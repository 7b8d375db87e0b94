//! Deterministic witness capture: the first *K* goal-reaching and the
//! first *K* dead-/timelocked paths of a run.
//!
//! "First" is defined over the runner's deterministic sample-consumption
//! order, which coincides with path-index order for every worker count
//! (see `runner`): consumed sample *j* is exactly path index *j*. The
//! selector therefore only records **indices** during the run — O(K)
//! memory regardless of path count or length — and the full event traces
//! are re-generated afterwards by [`capture_witnesses`], which replays
//! each selected index through its own `path_rng(seed, index)` stream.
//! For a fixed `(seed, workers)` pair the captured traces are
//! byte-identical across runs and worker counts.

use crate::config::SimConfig;
use crate::engine::{PathGenerator, SimScratch};
use crate::error::SimError;
use crate::property::TimedReach;
use crate::trace::{MemorySink, PathTracer, TraceEvent, TraceOptions};
use crate::verdict::{PathOutcome, Verdict};
use slim_automata::prelude::Network;
use slim_stats::rng::path_rng;

/// Which witness list a path belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessCategory {
    /// The path reached the goal (verdict `satisfied`).
    Goal,
    /// The path dead- or timelocked.
    Lock,
}

impl WitnessCategory {
    /// Stable code used in file names (`goal` / `lock`).
    pub fn code(self) -> &'static str {
        match self {
            WitnessCategory::Goal => "goal",
            WitnessCategory::Lock => "lock",
        }
    }
}

/// Records the first *K* goal and lock path indices in consumption order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessSelector {
    k: usize,
    goal: Vec<u64>,
    lock: Vec<u64>,
}

impl WitnessSelector {
    /// Creates a selector keeping at most `k` indices per category.
    pub fn new(k: usize) -> WitnessSelector {
        WitnessSelector { k, goal: Vec::new(), lock: Vec::new() }
    }

    /// The per-category capacity.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Offers one accepted sample, in consumption order.
    pub fn offer(&mut self, index: u64, verdict: Verdict) {
        if verdict.is_success() {
            if self.goal.len() < self.k {
                self.goal.push(index);
            }
        } else if verdict.is_lock() && self.lock.len() < self.k {
            self.lock.push(index);
        }
    }

    /// Selected goal-path indices, in consumption order.
    pub fn goal(&self) -> &[u64] {
        &self.goal
    }

    /// Selected lock-path indices, in consumption order.
    pub fn lock(&self) -> &[u64] {
        &self.lock
    }

    /// True once both categories are at capacity (offers become no-ops).
    pub fn is_full(&self) -> bool {
        self.goal.len() == self.k && self.lock.len() == self.k
    }

    /// All selections as `(category, index)` pairs, goals first.
    pub fn selections(&self) -> Vec<(WitnessCategory, u64)> {
        self.goal
            .iter()
            .map(|&i| (WitnessCategory::Goal, i))
            .chain(self.lock.iter().map(|&i| (WitnessCategory::Lock, i)))
            .collect()
    }
}

/// One captured witness path: its index, category, outcome, and the full
/// structured event trace (without a `Start` header — front-ends prepend
/// one with run context).
#[derive(Debug, Clone)]
pub struct Witness {
    /// Path index within the run (also its RNG stream selector).
    pub index: u64,
    /// Which list the path was selected into.
    pub category: WitnessCategory,
    /// The re-generated outcome.
    pub outcome: PathOutcome,
    /// The path's structured events, ending with the verdict.
    pub events: Vec<TraceEvent>,
}

/// Re-generates the selected witness paths with full event traces.
///
/// Each index re-runs the engine with `path_rng(config.seed, index)` and a
/// fresh strategy — bit-identical to the path the run consumed, because
/// strategies are stateless and the observer never touches the RNG.
///
/// # Errors
/// Propagates engine errors, and [`SimError::ReplayMismatch`] if a
/// re-generated path lands in a different verdict category than the one
/// it was selected for (which would indicate broken determinism).
pub fn capture_witnesses(
    net: &Network,
    property: &TimedReach,
    config: &SimConfig,
    selector: &WitnessSelector,
    opts: TraceOptions,
) -> Result<Vec<Witness>, SimError> {
    let gen = PathGenerator::new(net, property, config.max_steps);
    let mut scratch = SimScratch::new();
    let mut out = Vec::new();
    for (category, index) in selector.selections() {
        let mut rng = path_rng(config.seed, index);
        let mut strategy = config.strategy.instantiate();
        let mut sink = MemorySink::default();
        let outcome = {
            let mut tracer = PathTracer::with_options(net, &mut sink, opts);
            gen.generate_with(&mut scratch, strategy.as_mut(), &mut rng, &mut tracer)?
        };
        let matches = match category {
            WitnessCategory::Goal => outcome.verdict.is_success(),
            WitnessCategory::Lock => outcome.verdict.is_lock(),
        };
        if !matches {
            return Err(SimError::ReplayMismatch {
                event: 0,
                detail: format!(
                    "witness path {index} re-generated as {} but was selected as a {} witness",
                    outcome.verdict,
                    category.code()
                ),
            });
        }
        out.push(Witness { index, category, outcome, events: sink.events });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_keeps_first_k_per_category() {
        let mut s = WitnessSelector::new(2);
        s.offer(0, Verdict::TimeBoundExceeded);
        s.offer(1, Verdict::Satisfied);
        s.offer(2, Verdict::Deadlock);
        s.offer(3, Verdict::Satisfied);
        s.offer(4, Verdict::Satisfied); // over capacity — dropped
        s.offer(5, Verdict::Timelock);
        s.offer(6, Verdict::Timelock); // over capacity — dropped
        assert_eq!(s.goal(), &[1, 3]);
        assert_eq!(s.lock(), &[2, 5]);
        assert!(s.is_full());
        assert_eq!(
            s.selections(),
            vec![
                (WitnessCategory::Goal, 1),
                (WitnessCategory::Goal, 3),
                (WitnessCategory::Lock, 2),
                (WitnessCategory::Lock, 5),
            ]
        );
    }

    #[test]
    fn category_codes() {
        assert_eq!(WitnessCategory::Goal.code(), "goal");
        assert_eq!(WitnessCategory::Lock.code(), "lock");
    }
}
