//! Table I's claim as a deterministic gate: the simulator's work per
//! engine step stays flat as the sensor–filter redundancy `n` grows,
//! while the CTMC grows like 4^n.
//!
//! The gate counts instead of timing. Guard evaluations and flow
//! re-evaluations per step at a fixed seed do not depend on the host, so
//! the bounds below are exact statements about the kernel: a location
//! scans only its possibly-enabled guards, a false conjunction is kept
//! until its falsifying variable changes, and a flow re-runs only when a
//! variable it read changed. It also pins that profiling observes the
//! production kernel: the profiled instantiation takes exactly the cache
//! decisions of the unprofiled one.

use slim_models::{sensor_filter_network, SensorFilterParams, GOAL_VAR};
use slim_obs::ProfileHooks;
use slim_stats::rng::path_rng;
use slimsim::prelude::*;

const SEED: u64 = 0x7AB1E;
/// The Table I time bound of the benchmark workload.
const HORIZON: f64 = 2.0;

/// Counts guard and flow evaluations; `ON` selects the profiled
/// (`ENABLED`) or the production instantiation of the kernel.
#[derive(Debug, Default, PartialEq)]
struct Counts<const ON: bool> {
    guard_evals: u64,
    flow_evals: u64,
}

impl<const ON: bool> ProfileHooks for Counts<ON> {
    const ENABLED: bool = ON;
    fn guard_eval(&mut self, _proc: usize, _trans: usize, _enabled: bool) {
        self.guard_evals += 1;
    }
    fn flow_eval(&mut self, _flow: usize) {
        self.flow_evals += 1;
    }
}

impl<const ON: bool> PathHooks for Counts<ON> {}

fn setup(n: usize) -> (Network, TimedReach, SimConfig) {
    let net = sensor_filter_network(&SensorFilterParams { redundancy: n, ..Default::default() });
    let goal = Goal::expr(Expr::var(net.var_id(GOAL_VAR).unwrap()));
    let config = SimConfig::default()
        .with_accuracy(Accuracy::new(0.05, 0.1).unwrap())
        .with_strategy(StrategyKind::Asap)
        .with_seed(SEED)
        .with_static_pre_verdicts(false);
    (net, TimedReach::new(goal, HORIZON), config)
}

/// Drives paths `0..paths` of `config`'s seed through the engine with
/// `hooks`, returning the total number of engine steps.
fn drive<const ON: bool>(
    net: &Network,
    prop: &TimedReach,
    config: &SimConfig,
    paths: u64,
    hooks: &mut Counts<ON>,
) -> u64 {
    let gen = PathGenerator::new(net, prop, config.max_steps);
    let mut scratch = SimScratch::new();
    let mut strategy = config.strategy.instantiate();
    (0..paths)
        .map(|i| {
            let mut rng = path_rng(config.seed, i);
            gen.generate_with(&mut scratch, strategy.as_mut(), &mut rng, hooks).unwrap().steps
        })
        .sum()
}

/// Guard and flow evaluations per step at redundancy `n`, after checking
/// that the profiled and the production kernel agree on every count.
fn per_step(n: usize) -> (f64, f64) {
    let (net, prop, config) = setup(n);
    let (result, profile) = analyze_profiled(&net, &prop, &config, None).unwrap();
    let paths = result.estimate.samples;
    let steps = result.stats.total_steps;
    let profiled_guards: u64 =
        (0..profile.shape().n_trans()).map(|flat| profile.guard_counts(flat).0).sum();

    let mut production = Counts::<false>::default();
    let mut profiled = Counts::<true>::default();
    assert_eq!(drive(&net, &prop, &config, paths, &mut production), steps, "n = {n}: path set");
    assert_eq!(drive(&net, &prop, &config, paths, &mut profiled), steps, "n = {n}: path set");
    assert_eq!(production.guard_evals, profiled.guard_evals, "n = {n}: guard cache decisions");
    assert_eq!(production.flow_evals, profiled.flow_evals, "n = {n}: flow re-runs");
    assert_eq!(production.guard_evals, profiled_guards, "n = {n}: analyze_profiled's count");

    let steps = steps as f64;
    (production.guard_evals as f64 / steps, production.flow_evals as f64 / steps)
}

#[test]
fn kernel_work_per_step_is_flat_in_redundancy() {
    let (guards_2, flows_2) = per_step(2);
    let (guards_16, flows_16) = per_step(16);
    assert!(
        guards_16 <= 1.25 * guards_2,
        "guard evaluations per step grow with n: {guards_2:.3} at n = 2, {guards_16:.3} at n = 16"
    );
    assert!(
        flows_16 <= flows_2,
        "flow evaluations per step grow with n: {flows_2:.3} at n = 2, {flows_16:.3} at n = 16"
    );
}
