//! Simulation configuration.

use crate::strategy::StrategyKind;
use slim_stats::chernoff::Accuracy;
use slim_stats::sequential::GeneratorKind;

/// What to do when a path dead- or timelocks (§III-D of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlockPolicy {
    /// Treat the path as falsifying the property (a goal state can no
    /// longer be reached) — the default.
    #[default]
    Falsify,
    /// Abort the analysis with an error (useful when deadlocks indicate a
    /// modeling mistake).
    Error,
}

/// Configuration of a statistical analysis run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Statistical accuracy (ε, δ).
    pub accuracy: Accuracy,
    /// Stopping rule / estimator.
    pub generator: GeneratorKind,
    /// Non-determinism resolution strategy.
    pub strategy: StrategyKind,
    /// Deadlock handling.
    pub deadlock_policy: DeadlockPolicy,
    /// Per-path step limit (guards against Zeno behavior).
    pub max_steps: u64,
    /// Master RNG seed; path `i` uses a stream derived from `(seed, i)`,
    /// making results independent of thread count and scheduling.
    pub seed: u64,
    /// Number of worker threads (1 = sequential).
    pub workers: usize,
    /// Lane width of the batched path driver: each worker generates up
    /// to this many paths per driver call on one shared scratch (one RNG
    /// stream per lane). `1` disables batching. Lane-by-lane determinism
    /// makes the estimate independent of this knob — it only amortizes
    /// per-call dispatch and observer flushing over more paths.
    pub batch_lanes: usize,
    /// Consult the static fixpoint analysis before sampling and
    /// short-circuit with an exact `P = 0` / `P = 1` when it decides the
    /// property (see [`crate::preverdict`]). On by default; disable to
    /// force sampling (e.g. to reproduce dynamic errors a short-circuited
    /// run would skip).
    pub static_pre_verdicts: bool,
    /// Let the pre-verdict fixpoint run the clock-zone domain, enabling
    /// timed `P = 0` verdicts (`deadline-unreachable`) for goals that
    /// are location-reachable but provably miss the property deadline.
    /// On by default; ignored when [`Self::static_pre_verdicts`] is off.
    /// This is the `--no-zones` opt-out.
    pub zone_pre_verdicts: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            accuracy: Accuracy::default(),
            generator: GeneratorKind::ChernoffHoeffding,
            strategy: StrategyKind::Progressive,
            deadlock_policy: DeadlockPolicy::Falsify,
            max_steps: 1_000_000,
            seed: 0xC0_FF_EE,
            workers: 1,
            batch_lanes: 16,
            static_pre_verdicts: true,
            zone_pre_verdicts: true,
        }
    }
}

impl SimConfig {
    /// Builder-style accuracy setter.
    pub fn with_accuracy(mut self, accuracy: Accuracy) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Builder-style strategy setter.
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style generator setter.
    pub fn with_generator(mut self, generator: GeneratorKind) -> Self {
        self.generator = generator;
        self
    }

    /// Builder-style seed setter.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style worker-count setter.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Builder-style batch-lane-width setter (`1` disables batching).
    ///
    /// # Panics
    /// Panics if `batch_lanes == 0`.
    pub fn with_batch_lanes(mut self, batch_lanes: usize) -> Self {
        assert!(batch_lanes > 0, "need at least one lane");
        self.batch_lanes = batch_lanes;
        self
    }

    /// Builder-style deadlock-policy setter.
    pub fn with_deadlock_policy(mut self, policy: DeadlockPolicy) -> Self {
        self.deadlock_policy = policy;
        self
    }

    /// Builder-style toggle for static property pre-verdicts.
    pub fn with_static_pre_verdicts(mut self, enabled: bool) -> Self {
        self.static_pre_verdicts = enabled;
        self
    }

    /// Builder-style toggle for the clock-zone domain inside pre-verdicts.
    pub fn with_zone_pre_verdicts(mut self, enabled: bool) -> Self {
        self.zone_pre_verdicts = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_setters_apply() {
        let acc = Accuracy::new(0.1, 0.1).unwrap();
        let c = SimConfig::default()
            .with_accuracy(acc)
            .with_strategy(StrategyKind::Asap)
            .with_generator(GeneratorKind::Gauss)
            .with_seed(99)
            .with_workers(4)
            .with_batch_lanes(8)
            .with_deadlock_policy(DeadlockPolicy::Error);
        assert_eq!(c.accuracy, acc);
        assert_eq!(c.strategy, StrategyKind::Asap);
        assert_eq!(c.generator, GeneratorKind::Gauss);
        assert_eq!(c.seed, 99);
        assert_eq!(c.workers, 4);
        assert_eq!(c.batch_lanes, 8);
        assert_eq!(c.deadlock_policy, DeadlockPolicy::Error);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = SimConfig::default().with_batch_lanes(0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = SimConfig::default().with_workers(0);
    }

    #[test]
    fn default_is_sensible() {
        let c = SimConfig::default();
        assert_eq!(c.workers, 1);
        assert_eq!(c.deadlock_policy, DeadlockPolicy::Falsify);
        assert!(c.max_steps >= 100_000);
    }
}
