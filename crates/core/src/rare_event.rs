//! Rare-event analysis by importance sampling (§VI of the paper).
//!
//! Plain statistical model checking is "inherently unlikely" to observe
//! rare events: at `p ≈ 10⁻⁷`, the CH bound's absolute ε is useless and
//! even a hit is improbable. The standard remedy — which the paper cites
//! as the rare-event literature — is to *bias the model so the event
//! becomes likely and adjust the final probability*: here, every
//! Markovian (fault) rate is multiplied by a boost factor during
//! simulation, and every path carries its exact likelihood ratio. The
//! weighted indicator is an unbiased estimator of the true probability,
//! and a relative-precision CLT rule decides when to stop.
//!
//! Guarded (timed) behavior and strategy resolution are untouched —
//! only the stochastic fault process is biased.

use crate::config::DeadlockPolicy;
use crate::engine::{BatchScratch, ImportanceBias, PathGenerator};
use crate::error::SimError;
use crate::property::TimedReach;
use crate::strategy::StrategyKind;
use crate::verdict::{PathOutcome, PathStats};
use slim_automata::prelude::Network;
use slim_stats::weighted::{WeightedEstimate, WeightedEstimator};
use std::time::{Duration, Instant};

/// Configuration of a rare-event analysis.
#[derive(Debug, Clone, Copy)]
pub struct RareEventConfig {
    /// Markovian rate multiplier (> 1 accelerates faults).
    pub boost: f64,
    /// Target relative half-width of the confidence interval.
    pub rel_err: f64,
    /// Confidence level of the interval.
    pub confidence: f64,
    /// Strategy resolving the (unbiased) timed non-determinism.
    pub strategy: StrategyKind,
    /// Hard cap on generated paths.
    pub max_paths: u64,
    /// Per-path step limit.
    pub max_steps: u64,
    /// Deadlock handling.
    pub deadlock_policy: DeadlockPolicy,
    /// Master seed.
    pub seed: u64,
    /// Lane width of the batched path kernel (see
    /// [`crate::config::SimConfig::batch_lanes`]); `1` disables batching.
    pub batch_lanes: usize,
}

impl Default for RareEventConfig {
    fn default() -> Self {
        RareEventConfig {
            boost: 100.0,
            rel_err: 0.1,
            confidence: 0.95,
            strategy: StrategyKind::Progressive,
            max_paths: 1_000_000,
            max_steps: 1_000_000,
            deadlock_policy: DeadlockPolicy::Falsify,
            seed: 0xAE0C0FFE,
            batch_lanes: 16,
        }
    }
}

/// Result of a rare-event analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RareEventResult {
    /// The weighted estimate (unbiased for the true probability).
    pub estimate: WeightedEstimate,
    /// Whether the relative-precision target was met within `max_paths`.
    pub converged: bool,
    /// Path verdict counters (under the *biased* measure).
    pub stats: PathStats,
    /// Wall-clock duration.
    pub wall: Duration,
}

/// Estimates `P(◇[0,u] goal)` (or bounded until) by importance sampling.
///
/// # Errors
/// * [`SimError::InvalidInput`] unless `boost` and `rel_err` are positive
///   and finite and `confidence` lies strictly between 0 and 1;
/// * simulation errors; deadlocks under [`DeadlockPolicy::Error`].
pub fn analyze_rare(
    net: &Network,
    property: &TimedReach,
    config: &RareEventConfig,
) -> Result<RareEventResult, SimError> {
    let invalid = |detail: String| Err(SimError::InvalidInput { detail });
    if !(config.boost > 0.0 && config.boost.is_finite()) {
        return invalid(format!("boost must be positive and finite, got {}", config.boost));
    }
    if !(config.rel_err > 0.0 && config.rel_err.is_finite()) {
        return invalid(format!(
            "relative error must be positive and finite, got {}",
            config.rel_err
        ));
    }
    if !(config.confidence > 0.0 && config.confidence < 1.0) {
        return invalid(format!(
            "confidence must lie strictly between 0 and 1 (delta in (0, 1)), got {}",
            config.confidence
        ));
    }
    let start = Instant::now();
    let gen = PathGenerator::new(net, property, config.max_steps);
    let mut strategy = config.strategy.instantiate();
    let mut estimator = WeightedEstimator::new(config.rel_err, config.confidence);
    let mut stats = PathStats::default();

    let mut scratch = BatchScratch::new();
    let mut bias = ImportanceBias::new(config.boost);
    let mut batch: Vec<Result<PathOutcome, SimError>> = Vec::new();
    let lanes = config.batch_lanes.max(1);
    let mut index = 0u64;
    'outer: while !estimator.is_complete() && index < config.max_paths {
        // Never batch past the path cap, so a capped run reports exactly
        // `max_paths` samples; a lane generated after the estimator
        // completed mid-batch is discarded unconsumed — the scalar loop
        // would never have sampled it.
        let count = (config.max_paths - index).min(lanes as u64) as usize;
        bias.clear();
        gen.generate_batch_hooked(
            &mut scratch,
            strategy.as_mut(),
            config.seed,
            index,
            1,
            count,
            &mut bias,
            &mut batch,
        );
        for (res, &weight) in batch.drain(..).zip(bias.weights()) {
            if estimator.is_complete() {
                break 'outer;
            }
            let outcome = res?;
            if config.deadlock_policy == DeadlockPolicy::Error && outcome.verdict.is_lock() {
                return Err(SimError::DeadlockDetected {
                    time: outcome.end_time,
                    description: format!("{} after {} steps", outcome.verdict, outcome.steps),
                });
            }
            stats.record(&outcome);
            estimator.add(outcome.verdict.is_success(), weight);
        }
        index += count as u64;
    }

    Ok(RareEventResult {
        estimate: estimator.estimate(),
        converged: estimator.is_complete(),
        stats,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::Goal;
    use slim_automata::prelude::*;
    use slim_stats::rng::path_rng;

    /// ok --λ--> failed with a tiny λ: P(◇[0,1] failed) = 1 − e^{−λ}.
    fn rare_net(lambda: f64) -> (Network, TimedReach) {
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("unit");
        let ok = a.location("ok");
        let failed = a.location("failed");
        a.markovian(ok, lambda, [], failed);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "unit", "failed").unwrap();
        (net, TimedReach::new(goal, 1.0))
    }

    #[test]
    fn estimates_rare_probability_within_relative_error() {
        let lambda = 1e-4;
        let (net, prop) = rare_net(lambda);
        let exact = 1.0 - (-lambda).exp(); // ≈ 1e-4
        let cfg = RareEventConfig {
            boost: 2_000.0, // biased rate 0.2: hits are common
            rel_err: 0.1,
            max_paths: 200_000,
            seed: 11,
            ..Default::default()
        };
        let r = analyze_rare(&net, &prop, &cfg).unwrap();
        assert!(r.converged, "did not converge: {}", r.estimate);
        let rel = (r.estimate.mean - exact).abs() / exact;
        assert!(rel < 0.25, "estimate {} vs exact {exact} (rel {rel})", r.estimate.mean);
        // Plain MC would need ~ 1/p ≈ 10⁴ paths per *hit*; IS needed far
        // fewer paths total.
        assert!(r.estimate.samples < 50_000, "used {} paths", r.estimate.samples);
        assert!(r.estimate.hits > 100, "only {} hits", r.estimate.hits);
    }

    #[test]
    fn boost_one_matches_unbiased_weighting() {
        let (net, prop) = rare_net(1.0); // not rare: p ≈ 0.632
        let cfg = RareEventConfig {
            boost: 1.0,
            rel_err: 0.05,
            max_paths: 100_000,
            seed: 3,
            ..Default::default()
        };
        let r = analyze_rare(&net, &prop, &cfg).unwrap();
        let exact = 1.0 - (-1.0f64).exp();
        assert!(r.converged);
        assert!((r.estimate.mean - exact).abs() < 0.05, "{} vs {exact}", r.estimate.mean);
        // Unbiased run: every weight is exactly 1, so ESS = hits.
        assert!((r.estimate.effective_samples - r.estimate.hits as f64).abs() < 1e-6);
    }

    #[test]
    fn different_boosts_agree() {
        let lambda = 1e-3;
        let (net, prop) = rare_net(lambda);
        let exact = 1.0 - (-lambda).exp();
        let mut means = Vec::new();
        for boost in [200.0, 500.0, 1000.0] {
            let cfg = RareEventConfig {
                boost,
                rel_err: 0.1,
                max_paths: 100_000,
                seed: 5,
                ..Default::default()
            };
            let r = analyze_rare(&net, &prop, &cfg).unwrap();
            assert!(r.converged, "boost {boost} did not converge");
            means.push(r.estimate.mean);
        }
        for m in &means {
            let rel = (m - exact).abs() / exact;
            assert!(rel < 0.3, "mean {m} vs exact {exact}");
        }
    }

    #[test]
    fn guarded_behavior_not_biased() {
        // A guarded window with no Markovian transitions at all: the
        // boost must change nothing (weights are exactly 1).
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let hit = b.var("hit", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location_with("w", Expr::var(x).le(Expr::real(5.0)), []);
        let l1 = a.location("done");
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(x).ge(Expr::real(1.0)),
            [Effect::assign(hit, Expr::bool(true))],
            l1,
        );
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::var(hit)), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let mut strategy = crate::strategy::Asap;
        let mut rng = path_rng(0, 0);
        let mut bias = ImportanceBias::new(50.0);
        let mut scratch = crate::engine::SimScratch::new();
        let out = gen.generate_with(&mut scratch, &mut strategy, &mut rng, &mut bias).unwrap();
        assert_eq!(out.verdict, crate::verdict::Verdict::Satisfied);
        let w = bias.weights()[0];
        assert!((w - 1.0).abs() < 1e-12, "weight {w} should be exactly 1");
    }

    #[test]
    fn max_paths_cap_reported() {
        let (net, prop) = rare_net(1e-9);
        let cfg = RareEventConfig {
            boost: 2.0, // far too small a boost: event stays rare
            rel_err: 0.01,
            max_paths: 200,
            seed: 1,
            ..Default::default()
        };
        let r = analyze_rare(&net, &prop, &cfg).unwrap();
        assert!(!r.converged);
        assert_eq!(r.estimate.samples, 200);
    }
}
