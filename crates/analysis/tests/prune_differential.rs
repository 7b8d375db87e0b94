//! Pruning-soundness differential suite.
//!
//! [`Network::prune`] promises to be *observationally invisible*: the
//! pruned network must produce the same verdict stream and bit-identical
//! probability estimates as the original at any fixed `(seed, workers)`,
//! because statically dead transitions and unreachable locations cannot
//! influence a single sampled path. This suite checks that promise over
//! the live model zoo and over a hand-built fixture where pruning
//! provably removes at least one transition.

use slim_analysis::{analyze_network, analyze_network_with, AnalysisOptions};
use slim_automata::prelude::*;
use slim_models::{
    gps_network, launcher_network, power_system_network, repair_network, sensor_filter_network,
    voting_network, GpsParams, LauncherParams, PowerSystemParams, RepairParams, SensorFilterParams,
    VotingParams, FAILURE_VAR, GOAL_VAR, POWER_FAILED_VAR, REPAIR_GOAL_VAR, VOTING_GOAL_VAR,
};
use slim_stats::rng::path_rng;
use slim_stats::Accuracy;
use slimsim_core::prelude::*;

/// The model zoo: `(name, network, goal variable, time bound)`.
fn zoo() -> Vec<(&'static str, Network, &'static str, f64)> {
    vec![
        ("gps", gps_network(&GpsParams::default()), "gps.measurement", 100.0),
        ("launcher", launcher_network(&LauncherParams::default()), FAILURE_VAR, 1.0),
        (
            "power-system",
            power_system_network(&PowerSystemParams::default()),
            POWER_FAILED_VAR,
            2.0,
        ),
        ("repair", repair_network(&RepairParams::default()), REPAIR_GOAL_VAR, 2.0),
        ("sensor-filter", sensor_filter_network(&SensorFilterParams::default()), GOAL_VAR, 1.0),
        ("voting", voting_network(&VotingParams::default()), VOTING_GOAL_VAR, 1.0),
    ]
}

/// Property `P(<> [0,bound] var)` for a Boolean goal variable.
fn var_property(net: &Network, var: &str, bound: f64) -> TimedReach {
    let v = net.var_id(var).unwrap_or_else(|| panic!("goal variable `{var}`"));
    TimedReach::new(Goal::expr(Expr::var(v)), bound)
}

/// Prunes everything the fixpoint proves dead. The current zoo models
/// are fully live (no-op plans), so for them this exercises the prune
/// *reconstruction* path — the rebuilt network must still behave
/// identically; `fixture_prunes_a_transition_and_stays_equivalent`
/// covers actual removal.
fn prune_all(net: &Network) -> Network {
    let plan = analyze_network(net).prune_plan(net);
    net.prune(&plan).0
}

/// Generates `n` seeded paths and returns their outcomes with the float
/// end time frozen to bits, so equality is exact.
fn verdict_stream(
    net: &Network,
    property: &TimedReach,
    seed: u64,
    n: u64,
) -> Vec<(Verdict, u64, u64)> {
    let gen = PathGenerator::new(net, property, 100_000);
    let mut strategy = StrategyKind::Progressive.instantiate();
    let mut scratch = SimScratch::new();
    (0..n)
        .map(|i| {
            let mut rng = path_rng(seed, i);
            let o = gen
                .generate_with(&mut scratch, strategy.as_mut(), &mut rng, &mut NoHooks)
                .expect("path generation succeeds");
            (o.verdict, o.steps, o.end_time.to_bits())
        })
        .collect()
}

/// Full-analysis config with statistical parameters small enough to keep
/// the suite fast but large enough to draw hundreds of paths.
fn config(seed: u64, workers: usize) -> SimConfig {
    SimConfig::default()
        .with_accuracy(Accuracy::new(0.15, 0.15).unwrap())
        .with_seed(seed)
        .with_workers(workers)
}

#[test]
fn zoo_verdict_streams_survive_pruning() {
    for (name, net, var, bound) in zoo() {
        let pruned = prune_all(&net);
        let property = var_property(&net, var, bound);
        let before = verdict_stream(&net, &property, 7, 200);
        let after = verdict_stream(&pruned, &property, 7, 200);
        assert_eq!(before, after, "verdict stream changed after pruning `{name}`");
    }
}

#[test]
fn zoo_estimates_bit_identical_after_pruning() {
    for (name, net, var, bound) in zoo() {
        let pruned = prune_all(&net);
        let property = var_property(&net, var, bound);
        for workers in [1, 2] {
            let cfg = config(42, workers);
            let a = analyze(&net, &property, &cfg).expect("analysis succeeds");
            let b = analyze(&pruned, &property, &cfg).expect("analysis succeeds");
            assert_eq!(
                a.estimate.mean.to_bits(),
                b.estimate.mean.to_bits(),
                "estimate changed after pruning `{name}` (workers={workers})"
            );
            assert_eq!(a.estimate.samples, b.estimate.samples, "`{name}` samples");
            assert_eq!(a.estimate.successes, b.estimate.successes, "`{name}` successes");
            assert_eq!(a.stats, b.stats, "`{name}` path statistics");
        }
    }
}

/// A network where the fixpoint provably removes a transition: from
/// `step`, the guard `n >= 10` is dead for `n : int [0 .. 5]`, and the
/// `stuck` location behind it becomes unreachable. The goal (reaching
/// `work`) stays live, so the differential actually samples paths.
fn prunable_network() -> Network {
    let mut b = NetworkBuilder::new();
    let n = b.var("n", VarType::Int { lo: 0, hi: 5 }, Value::Int(0));
    let mut a = AutomatonBuilder::new("p");
    let idle = a.location("idle");
    let step = a.location("step");
    let work = a.location("work");
    let stuck = a.location("stuck");
    a.markovian(
        idle,
        2.0,
        [Effect::assign(n, Expr::var(n).add(Expr::int(1)).min(Expr::int(5)))],
        step,
    );
    a.guarded(step, ActionId::TAU, Expr::var(n).ge(Expr::int(1)), [], work);
    a.guarded(step, ActionId::TAU, Expr::var(n).ge(Expr::int(10)), [], stuck);
    a.markovian(work, 1.0, [], idle);
    b.add_automaton(a);
    b.build().expect("fixture network is well-formed")
}

#[test]
fn fixture_prunes_a_transition_and_stays_equivalent() {
    let net = prunable_network();
    let fix = analyze_network(&net);
    let plan = fix.prune_plan(&net);
    assert!(!plan.is_noop(), "the dead guard must be prunable");
    assert!(plan.dropped_transitions() >= 1, "at least one transition removed");
    assert!(plan.dropped_locations() >= 1, "`stuck` becomes unreachable");

    let (pruned, maps) = net.prune(&plan);
    // The goal location survives pruning and can be remapped.
    let p = net.proc_id("p").unwrap();
    let (_, work) = net.loc_id("p", "work").unwrap();
    let work_new = maps.locs[p.0][work.0].expect("live location keeps an id");

    let property = TimedReach::new(Goal::InLocation(p, work), 1.5);
    let property_pruned = TimedReach::new(Goal::InLocation(p, work_new), 1.5);
    let before = verdict_stream(&net, &property, 3, 300);
    let after = verdict_stream(&pruned, &property_pruned, 3, 300);
    assert_eq!(before, after, "verdict stream changed after pruning the fixture");
    assert!(
        before.iter().any(|(v, _, _)| *v == Verdict::Satisfied),
        "the goal must be reachable so the differential is not vacuous"
    );

    let cfg = config(42, 1);
    let a = analyze(&net, &property, &cfg).expect("analysis succeeds");
    let b = analyze(&pruned, &property_pruned, &cfg).expect("analysis succeeds");
    assert_eq!(a.estimate.mean.to_bits(), b.estimate.mean.to_bits());
    assert_eq!(a.estimate.samples, b.estimate.samples);
    assert!(a.estimate.samples > 0, "pre-verdict must not short-circuit a live goal");
}

/// A network where a transition is dead *only* under the clock-zone
/// domain: the clock `x` is never reset, so by the time `work` is
/// entered (guard `x >= 1`) the exit guard `x <= 0` can no longer hold.
/// The interval domain pins clocks to ⊤ and keeps the transition live.
fn zone_prunable_network() -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.var("x", VarType::Clock, Value::Real(0.0));
    let mut a = AutomatonBuilder::new("p");
    let idle = a.location("idle");
    let work = a.location("work");
    let stuck = a.location("stuck");
    a.guarded(idle, ActionId::TAU, Expr::var(x).ge(Expr::int(1)), [], work);
    a.guarded(work, ActionId::TAU, Expr::var(x).le(Expr::int(0)), [], stuck);
    a.guarded(work, ActionId::TAU, Expr::var(x).ge(Expr::int(2)), [], idle);
    b.add_automaton(a);
    b.build().expect("fixture network is well-formed")
}

#[test]
fn zone_dead_transition_is_gated_on_the_zone_domain() {
    let net = zone_prunable_network();
    // Interval-only analysis cannot prove the guard dead: the plan is a
    // no-op, so zone-gated pruning never fires without the zone domain.
    let off = analyze_network_with(&net, &AnalysisOptions { zones: false, deadline: None });
    assert!(off.prune_plan(&net).is_noop(), "interval-only plan must be a no-op");
    // With zones on, the guard is provably dead and `stuck` unreachable.
    let fix = analyze_network(&net);
    let plan = fix.prune_plan(&net);
    assert!(plan.dropped_transitions() >= 1, "zone-dead transition removed");
    assert!(plan.dropped_locations() >= 1, "`stuck` becomes unreachable");
}

#[test]
fn zone_gated_pruning_estimates_stay_bit_identical() {
    let net = zone_prunable_network();
    let plan = analyze_network(&net).prune_plan(&net);
    let (pruned, maps) = net.prune(&plan);

    let p = net.proc_id("p").unwrap();
    let (_, work) = net.loc_id("p", "work").unwrap();
    let work_new = maps.locs[p.0][work.0].expect("live location keeps an id");
    let property = TimedReach::new(Goal::InLocation(p, work), 1.5);
    let property_pruned = TimedReach::new(Goal::InLocation(p, work_new), 1.5);

    let before = verdict_stream(&net, &property, 5, 300);
    let after = verdict_stream(&pruned, &property_pruned, 5, 300);
    assert_eq!(before, after, "verdict stream changed after zone-gated pruning");
    assert!(
        before.iter().any(|(v, _, _)| *v == Verdict::Satisfied),
        "the goal must be reachable so the differential is not vacuous"
    );

    for workers in [1, 2] {
        let cfg = config(42, workers);
        let a = analyze(&net, &property, &cfg).expect("analysis succeeds");
        let b = analyze(&pruned, &property_pruned, &cfg).expect("analysis succeeds");
        assert_eq!(
            a.estimate.mean.to_bits(),
            b.estimate.mean.to_bits(),
            "estimate changed after zone-gated pruning (workers={workers})"
        );
        assert_eq!(a.estimate.samples, b.estimate.samples, "samples (workers={workers})");
        assert_eq!(a.estimate.successes, b.estimate.successes, "successes (workers={workers})");
        assert_eq!(a.stats, b.stats, "path statistics (workers={workers})");
        assert!(a.estimate.samples > 0, "pre-verdict must not short-circuit a live goal");
    }
}

#[test]
fn goal_locations_can_be_pinned_into_the_plan() {
    // `keep_location` pins a statically dead location (and is how the
    // CLI keeps `--goal-loc` targets alive); the pinned location then
    // keeps an id in the prune maps.
    let net = prunable_network();
    let fix = analyze_network(&net);
    let mut plan = fix.prune_plan(&net);
    let (p, stuck) = net.loc_id("p", "stuck").unwrap();
    plan.keep_location(p, stuck);
    let (_, maps) = net.prune(&plan);
    assert!(maps.locs[p.0][stuck.0].is_some(), "pinned location survives");
}
