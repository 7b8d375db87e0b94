//! Run-time observability for the simulator.
//!
//! A [`SimObserver`] bundles a [`MetricsRegistry`] with pre-registered
//! handles for everything the runner and engine measure: per-verdict path
//! counters, step/latency histograms, strategy decision counters,
//! round-robin collector depth, per-worker throughput, and phase wall
//! times. Instrumented code receives `Option<&SimObserver>`; with `None`
//! the cost is a single never-taken branch, and with `Some` every record
//! is a relaxed atomic add — the observer never takes a lock on the
//! sampling hot path and never touches the RNG, so it cannot perturb
//! `(seed, workers)`-determinism.

use crate::engine::PathHooks;
use crate::error::SimError;
use crate::strategy::{Decision, ScheduledCandidate};
use crate::verdict::{PathOutcome, Verdict};
use crate::witness::WitnessSelector;
use slim_automata::automaton::{ActionId, ProcId, TransId};
use slim_automata::prelude::NetState;
use slim_obs::metrics::{CounterId, HistogramId, MetricsRegistry, MetricsSnapshot};
use slim_obs::profile::ProfileHooks;
use slim_obs::report::ConvergencePoint;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Progress callback: `(samples_consumed, known_target, estimate)` with
/// `estimate = Some((p̂, half_width))` once at least one sample is in.
pub type ProgressFn = Box<dyn Fn(u64, Option<u64>, Option<(f64, f64)>) + Send + Sync>;

/// Per-worker counter handles.
#[derive(Debug, Clone, Copy)]
struct WorkerIds {
    paths: CounterId,
    satisfied: CounterId,
    busy_nanos: CounterId,
}

/// Per-path detail accumulated locally by the engine and flushed once per
/// path (cheaper and simpler than per-event atomics).
#[derive(Debug, Clone, Copy, Default)]
pub struct PathDetail {
    /// Markovian transition firings.
    pub fires_markovian: u64,
    /// Strategy-scheduled (guarded) transition firings.
    pub fires_guarded: u64,
    /// Pure delay steps (no firing).
    pub waits: u64,
    /// Strategy decisions that scheduled a firing.
    pub decisions_fire: u64,
    /// Strategy decisions that scheduled a pure wait.
    pub decisions_wait: u64,
    /// Strategy decisions reporting no schedulable candidate.
    pub decisions_stuck: u64,
}

/// One worker's aggregate contribution, extracted for run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStat {
    /// Paths the worker produced.
    pub paths: u64,
    /// Satisfied paths among them.
    pub satisfied: u64,
    /// Wall time the worker spent simulating, in nanoseconds.
    pub busy_nanos: u64,
}

/// Shared, lock-cheap instrumentation for one analysis run.
pub struct SimObserver {
    registry: MetricsRegistry,
    // Engine-level (flushed once per path).
    c_verdicts: [CounterId; 6],
    c_steps_total: CounterId,
    c_fires_markovian: CounterId,
    c_fires_guarded: CounterId,
    c_waits: CounterId,
    c_decisions_fire: CounterId,
    c_decisions_wait: CounterId,
    c_decisions_stuck: CounterId,
    h_steps_per_path: HistogramId,
    h_path_micros: HistogramId,
    // Collector-level (recorded by the consuming thread only).
    c_samples_consumed: CounterId,
    c_rounds_drained: CounterId,
    c_deadlocks: CounterId,
    c_timelocks: CounterId,
    h_buffer_depth: HistogramId,
    h_drain_batch: HistogramId,
    h_drain_gap_micros: HistogramId,
    // Batched-kernel lane utilization (flushed once per batch).
    c_batches: CounterId,
    c_scalar_drains: CounterId,
    h_active_lanes: HistogramId,
    // Per-worker.
    workers: Vec<WorkerIds>,
    // Cold path only: phase ends and report building.
    phases: Mutex<Vec<(String, Duration)>>,
    progress: Option<ProgressFn>,
    // Estimator convergence checkpoints (consumer thread only; the Mutex
    // is never contended on the sampling hot path).
    convergence: Mutex<Vec<ConvergencePoint>>,
    // Witness selection (consumer thread only, see `witness`).
    witnesses: Option<Mutex<WitnessSelector>>,
}

impl std::fmt::Debug for SimObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimObserver")
            .field("workers", &self.workers.len())
            .field("progress", &self.progress.is_some())
            .finish_non_exhaustive()
    }
}

fn verdict_slot(v: Verdict) -> usize {
    match v {
        Verdict::Satisfied => 0,
        Verdict::TimeBoundExceeded => 1,
        Verdict::HoldViolated => 2,
        Verdict::Deadlock => 3,
        Verdict::Timelock => 4,
        Verdict::StepLimit => 5,
    }
}

impl SimObserver {
    /// Creates an observer for a run with `workers` worker threads
    /// (pass `1` for sequential runs).
    pub fn new(workers: usize) -> SimObserver {
        let mut r = MetricsRegistry::new();
        let c_verdicts = [
            r.counter("paths.satisfied"),
            r.counter("paths.time_bound_exceeded"),
            r.counter("paths.hold_violated"),
            r.counter("paths.deadlock"),
            r.counter("paths.timelock"),
            r.counter("paths.step_limit"),
        ];
        SimObserver {
            c_steps_total: r.counter("sim.steps_total"),
            c_fires_markovian: r.counter("sim.fires_markovian"),
            c_fires_guarded: r.counter("sim.fires_guarded"),
            c_waits: r.counter("sim.waits"),
            c_decisions_fire: r.counter("strategy.decisions_fire"),
            c_decisions_wait: r.counter("strategy.decisions_wait"),
            c_decisions_stuck: r.counter("strategy.decisions_stuck"),
            h_steps_per_path: r.histogram("sim.steps_per_path"),
            h_path_micros: r.histogram("sim.path_micros"),
            c_samples_consumed: r.counter("collector.samples_consumed"),
            c_rounds_drained: r.counter("collector.rounds_drained"),
            c_deadlocks: r.counter("sim.deadlocks"),
            c_timelocks: r.counter("sim.timelocks"),
            h_buffer_depth: r.histogram("collector.buffer_depth"),
            h_drain_batch: r.histogram("collector.drain_batch"),
            h_drain_gap_micros: r.histogram("collector.drain_gap_micros"),
            c_batches: r.counter("batch.batches"),
            c_scalar_drains: r.counter("batch.scalar_drains"),
            h_active_lanes: r.histogram("batch.active_lanes"),
            workers: (0..workers)
                .map(|w| WorkerIds {
                    paths: r.counter(&format!("worker.{w}.paths")),
                    satisfied: r.counter(&format!("worker.{w}.satisfied")),
                    busy_nanos: r.counter(&format!("worker.{w}.busy_nanos")),
                })
                .collect(),
            c_verdicts,
            phases: Mutex::new(Vec::new()),
            registry: r,
            progress: None,
            convergence: Mutex::new(Vec::new()),
            witnesses: None,
        }
    }

    /// Installs a progress callback, invoked by the runner's consuming
    /// thread after each consumed block of samples with `(consumed,
    /// known_target, estimate)`.
    /// Throttling is the callback's job (see `slim_obs::ProgressMeter`).
    #[must_use]
    pub fn with_progress(mut self, f: ProgressFn) -> SimObserver {
        self.progress = Some(f);
        self
    }

    /// Enables witness capture: the runner offers every accepted sample
    /// (in its deterministic consumption order) and the first `k` goal
    /// and lock path *indices* are kept with O(k) memory. Retrieve the
    /// selection with [`Self::witness_selection`] and re-generate the
    /// traces with [`crate::witness::capture_witnesses`].
    #[must_use]
    pub fn with_witness_capture(mut self, k: usize) -> SimObserver {
        self.witnesses = Some(Mutex::new(WitnessSelector::new(k)));
        self
    }

    /// The underlying registry (for ad-hoc reads and snapshots).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Flushes one batch's [`Tally`] with one pass over the shared
    /// counters; `micros` is the per-lane wall time attributed to every
    /// path of the batch.
    fn record_tally(&self, t: &Tally, micros: u64) {
        if t.paths == 0 {
            return;
        }
        let r = &self.registry;
        for (slot, &count) in t.verdicts.iter().enumerate() {
            if count > 0 {
                r.add(self.c_verdicts[slot], count);
            }
        }
        r.add(self.c_steps_total, t.steps);
        r.add(self.c_fires_markovian, t.detail.fires_markovian);
        r.add(self.c_fires_guarded, t.detail.fires_guarded);
        r.add(self.c_waits, t.detail.waits);
        r.add(self.c_decisions_fire, t.detail.decisions_fire);
        r.add(self.c_decisions_wait, t.detail.decisions_wait);
        r.add(self.c_decisions_stuck, t.detail.decisions_stuck);
        r.record_n(self.h_path_micros, micros, t.paths);
        for (verdict, counter) in
            [(Verdict::Deadlock, self.c_deadlocks), (Verdict::Timelock, self.c_timelocks)]
        {
            if t.verdicts[verdict_slot(verdict)] > 0 {
                r.add(counter, t.verdicts[verdict_slot(verdict)]);
            }
        }
    }

    /// Records one batched-kernel sweep's lane utilization from the
    /// per-lane step counts sorted descending: for each rank `j`, the
    /// engine spent `sorted[j] - sorted[j+1]` steps with exactly `j + 1`
    /// lanes active, so the `batch.active_lanes` histogram weights each
    /// active-lane count by the steps spent there. A single-lane batch is
    /// a scalar drain — the batched kernel degenerating to the scalar
    /// one — counted separately so `bench_report` can explain
    /// batched-vs-scalar throughput deltas.
    pub(crate) fn record_batch_lanes(&self, sorted_desc: &[u64]) {
        if sorted_desc.is_empty() {
            return;
        }
        let r = &self.registry;
        r.inc(self.c_batches);
        if sorted_desc.len() == 1 {
            r.inc(self.c_scalar_drains);
        }
        for (j, &hi) in sorted_desc.iter().enumerate() {
            let lo = sorted_desc.get(j + 1).copied().unwrap_or(0);
            if hi > lo {
                r.record_n(self.h_active_lanes, (j + 1) as u64, hi - lo);
            }
        }
    }

    /// Attributes `paths` consumed paths (of which `satisfied` succeeded,
    /// each busy for `busy_each`) to worker `w` in one counter pass
    /// (called by the runner). Indices beyond the observer's worker count
    /// are not attributed.
    pub(crate) fn record_worker_batch(
        &self,
        w: usize,
        paths: u64,
        satisfied: u64,
        busy_each: Duration,
    ) {
        if paths == 0 {
            return;
        }
        if let Some(ids) = self.workers.get(w) {
            self.registry.add(ids.paths, paths);
            if satisfied > 0 {
                self.registry.add(ids.satisfied, satisfied);
            }
            self.registry.add(ids.busy_nanos, (busy_each.as_nanos() as u64).wrapping_mul(paths));
        }
    }

    /// Records one drain of the round-robin collector: how many samples
    /// it consumed, how many blocks remained buffered afterwards, and
    /// the wall-clock gap since the previous drain.
    pub(crate) fn record_drain(&self, batch: usize, buffered_after: usize, gap: Duration) {
        self.registry.inc(self.c_rounds_drained);
        self.registry.add(self.c_samples_consumed, batch as u64);
        self.registry.record(self.h_drain_batch, batch as u64);
        self.registry.record(self.h_buffer_depth, buffered_after as u64);
        self.registry.record(self.h_drain_gap_micros, gap.as_micros() as u64);
    }

    /// Reports progress through the optional callback.
    pub(crate) fn on_progress(
        &self,
        consumed: u64,
        target: Option<u64>,
        estimate: Option<(f64, f64)>,
    ) {
        if let Some(f) = &self.progress {
            f(consumed, target, estimate);
        }
    }

    /// Offers one accepted sample to the witness selector (no-op without
    /// [`Self::with_witness_capture`]).
    pub(crate) fn offer_witness(&self, index: u64, verdict: Verdict) {
        if let Some(w) = &self.witnesses {
            w.lock().unwrap().offer(index, verdict);
        }
    }

    /// The witness selection after a run (`None` without capture).
    pub fn witness_selection(&self) -> Option<WitnessSelector> {
        self.witnesses.as_ref().map(|w| w.lock().unwrap().clone())
    }

    /// Appends an estimator convergence checkpoint; a point repeating the
    /// previous sample count is dropped, keeping the series strictly
    /// increasing in `samples`.
    pub(crate) fn record_convergence(&self, point: ConvergencePoint) {
        let mut series = self.convergence.lock().unwrap();
        if series.last().is_some_and(|last| last.samples >= point.samples) {
            return;
        }
        series.push(point);
    }

    /// The recorded convergence series (per-checkpoint `p̂` and CI
    /// half-width), in sample order.
    pub fn convergence(&self) -> Vec<ConvergencePoint> {
        self.convergence.lock().unwrap().clone()
    }

    /// Records a phase's wall time (accumulating on repeated names).
    pub fn record_phase(&self, name: &str, d: Duration) {
        let mut phases = self.phases.lock().unwrap();
        if let Some((_, total)) = phases.iter_mut().find(|(n, _)| n == name) {
            *total += d;
        } else {
            phases.push((name.to_string(), d));
        }
    }

    /// The recorded phases in first-occurrence order.
    pub fn phases(&self) -> Vec<(String, Duration)> {
        self.phases.lock().unwrap().clone()
    }

    /// Per-worker aggregates in worker order.
    pub fn worker_stats(&self) -> Vec<WorkerStat> {
        self.workers
            .iter()
            .map(|ids| WorkerStat {
                paths: self.registry.counter_value(ids.paths),
                satisfied: self.registry.counter_value(ids.satisfied),
                busy_nanos: self.registry.counter_value(ids.busy_nanos),
            })
            .collect()
    }
}

/// Path metrics summed over the successful paths of one batch.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    paths: u64,
    steps: u64,
    verdicts: [u64; 6],
    detail: PathDetail,
}

/// Observer hooks for [`crate::engine::PathGenerator::generate_batch_with`]:
/// counts firings, waits and strategy decisions in the current lane's
/// [`PathDetail`], sums the batch's successful lanes, and flushes the sum
/// together with the lane utilization to a [`SimObserver`] once per
/// batch, attributing the batch's wall time evenly across its paths.
#[derive(Debug, Clone)]
pub struct PathObserver<'o> {
    obs: &'o SimObserver,
    started: Instant,
    current: PathDetail,
    /// Applied (non-terminal) steps of the current path: each is either
    /// a firing or a pure wait.
    moves: u64,
    tally: Tally,
}

impl<'o> PathObserver<'o> {
    /// Hooks flushing to `obs`, timing the first batch from now.
    pub fn new(obs: &'o SimObserver) -> PathObserver<'o> {
        PathObserver {
            obs,
            started: Instant::now(),
            current: PathDetail::default(),
            moves: 0,
            tally: Tally::default(),
        }
    }

    /// Times the next batch from now.
    pub(crate) fn restart(&mut self) {
        self.started = Instant::now();
    }
}

impl ProfileHooks for PathObserver<'_> {
    const ENABLED: bool = false;

    fn batch(&mut self, lane_steps: &[u64]) {
        self.obs.record_batch_lanes(lane_steps);
        let per_lane = (self.started.elapsed().as_nanos() as u64) / lane_steps.len().max(1) as u64;
        self.obs.record_tally(&self.tally, per_lane / 1_000);
        self.tally = Tally::default();
        self.started = Instant::now();
    }
}

impl PathHooks for PathObserver<'_> {
    fn decision(
        &mut self,
        _step: u64,
        _state: &NetState,
        decision: &Decision,
        _candidates: &[ScheduledCandidate],
    ) {
        match decision {
            Decision::Fire { .. } => self.current.decisions_fire += 1,
            Decision::Wait { .. } => self.current.decisions_wait += 1,
            Decision::Stuck => self.current.decisions_stuck += 1,
            Decision::Abort => {}
        }
    }

    fn fire(
        &mut self,
        _step: u64,
        _state: &NetState,
        _action: ActionId,
        _parts: &[(ProcId, TransId)],
        race: Option<(f64, f64)>,
    ) {
        if race.is_some() {
            self.current.fires_markovian += 1;
        } else {
            self.current.fires_guarded += 1;
        }
    }

    fn snapshot(&mut self, _step: u64, _state: &NetState) {
        self.moves += 1;
    }

    fn path_end(&mut self, result: &Result<PathOutcome, SimError>, _weight: f64) {
        let d = std::mem::take(&mut self.current);
        let moves = std::mem::take(&mut self.moves);
        let Ok(outcome) = result else { return };
        self.obs.registry.record(self.obs.h_steps_per_path, outcome.steps);
        let t = &mut self.tally;
        t.paths += 1;
        t.steps += outcome.steps;
        t.verdicts[verdict_slot(outcome.verdict)] += 1;
        t.detail.fires_markovian += d.fires_markovian;
        t.detail.fires_guarded += d.fires_guarded;
        t.detail.waits += moves - d.fires_markovian - d.fires_guarded;
        t.detail.decisions_fire += d.decisions_fire;
        t.detail.decisions_wait += d.decisions_wait;
        t.detail.decisions_stuck += d.decisions_stuck;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(verdict: Verdict, steps: u64) -> PathOutcome {
        PathOutcome { verdict, steps, end_time: 1.0 }
    }

    #[test]
    fn path_observer_flushes_successful_paths_per_batch() {
        let obs = SimObserver::new(1);
        let state = NetState::new(Vec::new(), slim_automata::prelude::Valuation::new(Vec::new()));
        let mut hooks = PathObserver::new(&obs);
        // Path 1: fire (guarded), wait, Markovian fire — then satisfied.
        for (decision, race) in [
            (Decision::Fire { delay: 0.0, candidate: 0 }, Some(None)),
            (Decision::Wait { delay: 1.0 }, None),
            (Decision::Stuck, Some(Some((1.0, 2.0)))),
        ] {
            hooks.decision(1, &state, &decision, &[]);
            if let Some(race) = race {
                hooks.fire(1, &state, ActionId::TAU, &[], race);
            }
            hooks.snapshot(1, &state);
        }
        hooks.path_end(&Ok(outcome(Verdict::Satisfied, 3)), 1.0);
        // Path 2 deadlocks after one wait; path 3 errors and is dropped.
        hooks.decision(1, &state, &Decision::Wait { delay: 1.0 }, &[]);
        hooks.snapshot(1, &state);
        hooks.path_end(&Ok(outcome(Verdict::Deadlock, 1)), 1.0);
        hooks.decision(1, &state, &Decision::Stuck, &[]);
        hooks.path_end(&Err(SimError::InputAborted), 1.0);
        hooks.batch(&[3, 1, 1]);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["paths.satisfied"], 1);
        assert_eq!(snap.counters["paths.deadlock"], 1);
        assert_eq!(snap.counters["sim.deadlocks"], 1);
        assert_eq!(snap.counters["sim.steps_total"], 4);
        assert_eq!(snap.counters["sim.fires_markovian"], 1);
        assert_eq!(snap.counters["sim.fires_guarded"], 1);
        assert_eq!(snap.counters["sim.waits"], 2);
        assert_eq!(snap.counters["strategy.decisions_fire"], 1);
        assert_eq!(snap.counters["strategy.decisions_wait"], 2);
        assert_eq!(snap.counters["strategy.decisions_stuck"], 1);
        assert_eq!(snap.counters["batch.batches"], 1);
        assert_eq!(snap.histograms["sim.steps_per_path"].count, 2);
        assert_eq!(snap.histograms["sim.path_micros"].count, 2);
    }

    #[test]
    fn worker_attribution_and_out_of_range_guard() {
        let obs = SimObserver::new(2);
        obs.record_worker_batch(0, 1, 1, Duration::from_micros(10));
        obs.record_worker_batch(1, 1, 0, Duration::ZERO);
        obs.record_worker_batch(7, 1, 1, Duration::ZERO); // ignored
        let ws = obs.worker_stats();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0], WorkerStat { paths: 1, satisfied: 1, busy_nanos: 10_000 });
        assert_eq!(ws[1], WorkerStat { paths: 1, satisfied: 0, busy_nanos: 0 });
    }

    #[test]
    fn drain_and_phase_recording() {
        let obs = SimObserver::new(1);
        obs.record_drain(4, 2, Duration::from_micros(50));
        obs.record_drain(2, 0, Duration::from_micros(10));
        obs.record_phase("simulate", Duration::from_millis(3));
        obs.record_phase("simulate", Duration::from_millis(2));
        obs.record_phase("estimate", Duration::from_millis(1));
        let snap = obs.snapshot();
        assert_eq!(snap.counters["collector.samples_consumed"], 6);
        assert_eq!(snap.counters["collector.rounds_drained"], 2);
        assert_eq!(snap.histograms["collector.buffer_depth"].max, 2);
        let phases = obs.phases();
        assert_eq!(phases[0], ("simulate".to_string(), Duration::from_millis(5)));
        assert_eq!(phases[1].0, "estimate");
    }

    #[test]
    fn batch_lane_utilization_weights_ranks_by_steps() {
        let obs = SimObserver::new(1);
        // 3 lanes: steps 10, 7, 7 (sorted desc). Rank 1 active for
        // 10-7 = 3 steps, rank 2 for 0 (tie skipped), rank 3 for 7.
        obs.record_batch_lanes(&[10, 7, 7]);
        // A single-lane batch is a scalar drain.
        obs.record_batch_lanes(&[5]);
        obs.record_batch_lanes(&[]); // no-op
        let snap = obs.snapshot();
        assert_eq!(snap.counters["batch.batches"], 2);
        assert_eq!(snap.counters["batch.scalar_drains"], 1);
        let h = &snap.histograms["batch.active_lanes"];
        // Records: (1, n=3), (3, n=7) from the first batch; (1, n=5)
        // from the drain. Total count 15, sum 3·1 + 7·3 + 5·1 = 29.
        assert_eq!(h.count, 15);
        assert_eq!(h.sum, 29);
        assert_eq!(h.max, 3);
    }

    #[test]
    fn progress_callback_fires() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let obs = SimObserver::new(1).with_progress(Box::new(move |done, target, estimate| {
            assert_eq!(target, Some(100));
            assert_eq!(estimate, Some((0.5, 0.05)));
            seen2.store(done, Ordering::Relaxed);
        }));
        obs.on_progress(42, Some(100), Some((0.5, 0.05)));
        assert_eq!(seen.load(Ordering::Relaxed), 42);
        // Without a callback this is a no-op.
        SimObserver::new(1).on_progress(1, None, None);
    }

    #[test]
    fn witness_offers_flow_into_selector() {
        let obs = SimObserver::new(1).with_witness_capture(1);
        obs.offer_witness(0, Verdict::TimeBoundExceeded);
        obs.offer_witness(1, Verdict::Satisfied);
        obs.offer_witness(2, Verdict::Satisfied); // capacity reached
        obs.offer_witness(3, Verdict::Timelock);
        let sel = obs.witness_selection().unwrap();
        assert_eq!(sel.goal(), &[1]);
        assert_eq!(sel.lock(), &[3]);
        // Without capture: no selector, offers are no-ops.
        let plain = SimObserver::new(1);
        plain.offer_witness(0, Verdict::Satisfied);
        assert!(plain.witness_selection().is_none());
    }

    #[test]
    fn convergence_series_stays_strictly_increasing() {
        let obs = SimObserver::new(1);
        obs.record_convergence(ConvergencePoint { samples: 1, mean: 1.0, half_width: 1.0 });
        obs.record_convergence(ConvergencePoint { samples: 2, mean: 0.5, half_width: 0.9 });
        // Duplicate and regressing sample counts are dropped.
        obs.record_convergence(ConvergencePoint { samples: 2, mean: 0.5, half_width: 0.9 });
        obs.record_convergence(ConvergencePoint { samples: 1, mean: 0.0, half_width: 0.1 });
        let series = obs.convergence();
        assert_eq!(series.len(), 2);
        assert_eq!(series[1].samples, 2);
    }
}
