//! Bias-free collection of samples from parallel workers (§III-C).
//!
//! Taking each sample into account *as soon as it arrives* biases
//! sequential stopping rules toward fast-completing paths (the paper's
//! \[21\]): short paths — often those that hit the goal or a deadlock early —
//! finish sooner, so an "accept on arrival" collector over-represents them
//! in the prefix the stopping rule sees. The fix (the paper's \[22\]) is to
//! buffer per worker and only consume *rounds*: one sample from every
//! worker at a time, in a fixed worker order.
//!
//! [`RoundRobinCollector`] implements that protocol. The simulator's
//! parallel runner feeds it *blocks* of consecutive paths from worker
//! channels and drains complete rounds — one block per worker — into the
//! generator, which thus sees the paths in index order.

use std::collections::VecDeque;

/// Per-worker FIFO buffers drained in synchronized rounds.
///
/// Generic in the sample type `T` (defaulting to the success flag the
/// generators consume) so the runner can carry richer per-sample payloads
/// — e.g. whole blocks of path outcomes — through the same
/// deterministic consumption order.
#[derive(Debug, Clone)]
pub struct RoundRobinCollector<T = bool> {
    buffers: Vec<VecDeque<T>>,
    finished: Vec<bool>,
}

impl<T> RoundRobinCollector<T> {
    /// Creates a collector for `workers` parallel producers.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> RoundRobinCollector<T> {
        assert!(workers > 0, "need at least one worker");
        RoundRobinCollector {
            buffers: (0..workers).map(|_| VecDeque::new()).collect(),
            finished: vec![false; workers],
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.buffers.len()
    }

    /// Buffers a sample produced by `worker`.
    ///
    /// # Panics
    /// Panics if the worker index is out of range or already marked
    /// finished.
    pub fn push(&mut self, worker: usize, sample: T) {
        assert!(!self.finished[worker], "worker {worker} already finished");
        self.buffers[worker].push_back(sample);
    }

    /// Marks a worker as producing no further samples (its buffered
    /// samples remain drainable).
    pub fn finish_worker(&mut self, worker: usize) {
        self.finished[worker] = true;
    }

    /// True when a complete round is available: every worker either has a
    /// buffered sample or is finished with leftovers... — precisely: every
    /// *unfinished* worker has at least one buffered sample, and at least
    /// one sample is buffered overall.
    fn round_ready(&self) -> bool {
        let mut any = false;
        for (buf, done) in self.buffers.iter().zip(&self.finished) {
            if buf.is_empty() {
                if !done {
                    return false;
                }
            } else {
                any = true;
            }
        }
        any
    }

    /// Drains all complete rounds, returning samples in round-robin worker
    /// order (worker 0 first within each round).
    ///
    /// Allocates a fresh `Vec` per call; hot loops should prefer
    /// [`Self::drain_rounds_into`] with a reused buffer.
    pub fn drain_rounds(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        self.drain_rounds_into(&mut out);
        out
    }

    /// Drains all complete rounds, appending samples to `out` in
    /// round-robin worker order (worker 0 first within each round).
    ///
    /// The allocation-free sibling of [`Self::drain_rounds`]: the parallel
    /// runner calls this once per received sample, so it reuses one buffer
    /// across the whole run instead of allocating per call.
    pub fn drain_rounds_into(&mut self, out: &mut Vec<T>) {
        while self.round_ready() {
            for buf in &mut self.buffers {
                if let Some(s) = buf.pop_front() {
                    out.push(s);
                }
            }
        }
    }

    /// Total number of still-buffered samples.
    pub fn buffered(&self) -> usize {
        self.buffers.iter().map(VecDeque::len).sum()
    }

    /// True when every worker is finished and all buffers are drained.
    pub fn is_exhausted(&self) -> bool {
        self.finished.iter().all(|&d| d) && self.buffered() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_round_until_all_workers_contribute() {
        let mut c = RoundRobinCollector::new(3);
        c.push(0, true);
        c.push(0, false);
        c.push(1, true);
        assert_eq!(c.drain_rounds(), Vec::<bool>::new());
        c.push(2, false);
        // One full round: worker order 0, 1, 2.
        assert_eq!(c.drain_rounds(), vec![true, true, false]);
        // Worker 0 still has one buffered sample but no round is complete.
        assert_eq!(c.buffered(), 1);
        assert_eq!(c.drain_rounds(), Vec::<bool>::new());
    }

    #[test]
    fn multiple_rounds_drained_in_order() {
        let mut c = RoundRobinCollector::new(2);
        for i in 0..4 {
            c.push(0, i % 2 == 0);
            c.push(1, false);
        }
        let drained = c.drain_rounds();
        assert_eq!(drained, vec![true, false, false, false, true, false, false, false]);
    }

    #[test]
    fn finished_worker_does_not_block_rounds() {
        let mut c = RoundRobinCollector::new(2);
        c.push(0, true);
        c.push(1, true);
        c.push(0, false);
        c.finish_worker(1);
        let drained = c.drain_rounds();
        // Round 1: both workers; round 2: only worker 0 (1 finished, empty).
        assert_eq!(drained, vec![true, true, false]);
        assert!(!c.is_exhausted());
        c.finish_worker(0);
        assert!(c.is_exhausted());
    }

    #[test]
    fn leftovers_of_finished_worker_still_drain() {
        let mut c = RoundRobinCollector::new(2);
        c.push(1, true);
        c.push(1, true);
        c.finish_worker(1);
        // Worker 0 unfinished and empty: no round available.
        assert!(c.drain_rounds().is_empty());
        c.push(0, false);
        assert_eq!(c.drain_rounds(), vec![false, true]);
        c.finish_worker(0);
        assert_eq!(c.drain_rounds(), vec![true]);
        assert!(c.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn push_after_finish_panics() {
        let mut c = RoundRobinCollector::new(1);
        c.finish_worker(0);
        c.push(0, true);
    }

    #[test]
    fn order_independent_of_arrival_interleaving() {
        // The same per-worker streams delivered in two different arrival
        // orders must drain identically — that is the bias fix.
        let w0 = [true, false, true];
        let w1 = [false, false, true];

        let mut a = RoundRobinCollector::new(2);
        for i in 0..3 {
            a.push(0, w0[i]);
            a.push(1, w1[i]);
        }
        let out_a = a.drain_rounds();

        let mut b = RoundRobinCollector::new(2);
        // Worker 1 races ahead.
        for &s in &w1 {
            b.push(1, s);
        }
        for &s in &w0 {
            b.push(0, s);
        }
        let out_b = b.drain_rounds();
        assert_eq!(out_a, out_b);

        // The buffer-reusing variant sees the same order under a third
        // interleaving (strict alternation, worker 1 first), and appends
        // rather than clobbering.
        let mut c = RoundRobinCollector::new(2);
        let mut out_c = vec![true]; // pre-existing content must survive
        for i in 0..3 {
            c.push(1, w1[i]);
            c.push(0, w0[i]);
            c.drain_rounds_into(&mut out_c);
        }
        assert!(out_c[0]);
        assert_eq!(&out_c[1..], &out_a[..]);
    }

    #[test]
    fn drain_into_incremental_equals_oneshot() {
        // Draining after every push must yield the same stream as one
        // final drain.
        let pushes =
            [(0, true), (1, false), (0, false), (0, true), (1, true), (1, false), (1, true)];
        let mut incremental = RoundRobinCollector::new(2);
        let mut stream = Vec::new();
        for &(w, s) in &pushes {
            incremental.push(w, s);
            incremental.drain_rounds_into(&mut stream);
        }
        let mut oneshot = RoundRobinCollector::new(2);
        for &(w, s) in &pushes {
            oneshot.push(w, s);
        }
        assert_eq!(stream, oneshot.drain_rounds());
    }
}
