//! Differential tests pinning the compiled step-table kernel to the
//! legacy allocating network API on every model-zoo system.
//!
//! The compiled kernel ([`StepTables`] + [`StepScratch`]) is the hot path
//! of the simulator; the legacy per-call methods (`delay_window`,
//! `guarded_candidates`, `markovian_candidates`, `advance`, `apply`)
//! remain as the reference semantics. These tests drive long seeded
//! pseudo-random walks over the real paper models and require both APIs
//! to agree *exactly* at every step — windows, candidate order, rates,
//! and successor states — and additionally require the engine to produce
//! identical path outcomes whether its scratch workspace is fresh per
//! path or reused (dirty) across paths, strategies, and models.

use slim_analysis::analyze_network;
use slim_models::{
    gps_network, launcher_network, power_system_network, repair_network, sensor_filter_network,
    voting_network, GpsParams, LauncherParams, PowerSystemParams, RepairParams, SensorFilterParams,
    VotingParams,
};
use slim_obs::{KernelProfile, NoopProfile};
use slimsim::prelude::*;

/// Deterministic linear-congruential driver for the differential walks
/// (no RNG dependency: the walk itself is part of the test's identity).
fn lcg(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *s >> 33
}

/// Every paper model, by name, with its goal variable where one exists.
fn model_zoo() -> Vec<(&'static str, Network, Option<&'static str>)> {
    vec![
        (
            "sensor_filter",
            sensor_filter_network(&SensorFilterParams::default()),
            Some(slim_models::GOAL_VAR),
        ),
        ("voting", voting_network(&VotingParams::default()), Some(slim_models::VOTING_GOAL_VAR)),
        ("repair", repair_network(&RepairParams::default()), Some(slim_models::REPAIR_GOAL_VAR)),
        ("gps", gps_network(&GpsParams::default()), None),
        (
            "power_system",
            power_system_network(&PowerSystemParams::default()),
            Some(slim_models::POWER_FAILED_VAR),
        ),
    ]
}

fn assert_cands_eq(name: &str, legacy: &[GuardedCandidate], compiled: &[CandidateBuf]) {
    assert_eq!(legacy.len(), compiled.len(), "{name}: candidate count diverged");
    for (l, c) in legacy.iter().zip(compiled) {
        assert_eq!(l.transition.action, c.action, "{name}: action diverged");
        assert_eq!(l.transition.parts, c.parts, "{name}: participants diverged");
        assert_eq!(l.window, c.window, "{name}: enabling window diverged");
        assert_eq!(l.urgent, c.urgent, "{name}: urgency flag diverged");
    }
}

/// A long pseudo-random walk over each zoo model where every step
/// compares the compiled kernel against the legacy API: delay windows,
/// guarded candidates (order included — the order feeds the RNG),
/// Markovian rates, and the `advance`/`apply` successor states.
#[test]
fn model_zoo_compiled_kernel_matches_legacy() {
    for (name, net, _) in model_zoo() {
        let tables = net.compile();
        let mut s = StepScratch::new();
        let mut seed = 0x5eed_0001_u64 ^ name.len() as u64;
        let mut window = IntervalSet::empty();

        for path in 0..8u64 {
            seed ^= (path + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut st = net.initial_state().unwrap();
            let mut st_c = st.clone();
            for _ in 0..80 {
                assert_eq!(st, st_c, "{name}: states diverged");
                let w = net.delay_window(&st).unwrap();
                net.delay_window_into(&tables, &mut s, &st_c, &mut window).unwrap();
                assert_eq!(w, window, "{name}: delay windows diverged");

                let cands = net.guarded_candidates(&st).unwrap();
                net.guarded_candidates_into(&tables, &mut s, &st_c).unwrap();
                assert_cands_eq(name, &cands, s.candidates());

                let markov = net.markovian_candidates(&st);
                net.markovian_candidates_into(&tables, &mut s, &st_c);
                assert_eq!(markov.len(), s.markovian().len(), "{name}: Markovian count");
                for (l, &(p, t, rate)) in markov.iter().zip(s.markovian()) {
                    assert_eq!(l.transition.parts, vec![(p, t)], "{name}: Markovian parts");
                    assert_eq!(l.rate, rate, "{name}: Markovian rate");
                }

                // Drive: a guarded candidate enabled inside the delay
                // window if one exists, else a Markovian jump, else stop.
                let pick = lcg(&mut seed) as usize;
                let fired = cands
                    .iter()
                    .cycle()
                    .skip(pick % cands.len().max(1))
                    .take(cands.len())
                    .find(|cand| !cand.window.intersect(&w).is_empty());
                if let Some(cand) = fired {
                    let joint = cand.window.intersect(&w);
                    let lo = joint.earliest_point().unwrap();
                    let frac = (lcg(&mut seed) % 101) as f64 / 100.0;
                    let d = match joint.sup().filter(|sup| sup.is_finite()) {
                        Some(sup) => lo + (sup - lo).max(0.0) * frac * 0.5,
                        None => lo,
                    };
                    let d = if joint.contains(d) { d } else { lo };
                    st = net.advance(&st, d).unwrap();
                    net.advance_mut(&tables, &mut s, &mut st_c, d, &window).unwrap();
                    assert_eq!(st, st_c, "{name}: advance diverged");
                    st = net.apply(&st, &cand.transition).unwrap();
                    net.apply_mut(&tables, &mut s, &mut st_c, &cand.transition.parts).unwrap();
                } else if !markov.is_empty() {
                    let sup = w.sup().unwrap_or(0.0);
                    let d = if sup.is_finite() { sup * 0.9 } else { 1.0 };
                    st = net.advance(&st, d).unwrap();
                    net.advance_mut(&tables, &mut s, &mut st_c, d, &window).unwrap();
                    assert_eq!(st, st_c, "{name}: advance diverged");
                    let m = &markov[lcg(&mut seed) as usize % markov.len()];
                    st = net.apply(&st, &m.transition).unwrap();
                    net.apply_mut(&tables, &mut s, &mut st_c, &m.transition.parts).unwrap();
                } else {
                    break;
                }
            }
        }
    }
}

/// One `SimScratch` reused — dirty — across models, strategies, and
/// seeds must yield exactly the outcomes of a fresh scratch per path,
/// and every hook type — tracer, observer, kernel profile, unit bias —
/// must leave the outcome of the same stream untouched.
#[test]
fn model_zoo_outcomes_identical_with_reused_scratch() {
    let mut shared = SimScratch::new();
    for (name, net, goal_var) in model_zoo() {
        let property = zoo_property(&net, goal_var);
        let gen = PathGenerator::new(&net, &property, 10_000);
        let obs = SimObserver::new(1);
        let mut observer = PathObserver::new(&obs);
        let mut profile = KernelProfile::new(profile_shape(&net));
        let mut unit_bias = ImportanceBias::new(1.0);
        for kind in [StrategyKind::Asap, StrategyKind::Progressive, StrategyKind::MaxTime] {
            for seed in 0..20u64 {
                let stream = || slimsim::stats::rng::path_rng(7, seed);
                let a = gen
                    .generate_with(
                        &mut shared,
                        kind.instantiate().as_mut(),
                        &mut stream(),
                        &mut NoHooks,
                    )
                    .unwrap();
                let b = gen.generate(kind.instantiate().as_mut(), &mut stream()).unwrap();
                assert_eq!(a, b, "{name}/{kind}/seed {seed}: reused scratch diverged");

                let mut sink = MemorySink::default();
                let traced = gen.generate_with(
                    &mut shared,
                    kind.instantiate().as_mut(),
                    &mut stream(),
                    &mut PathTracer::new(&net, &mut sink),
                );
                let observed = gen.generate_with(
                    &mut shared,
                    kind.instantiate().as_mut(),
                    &mut stream(),
                    &mut observer,
                );
                let profiled = gen.generate_with(
                    &mut shared,
                    kind.instantiate().as_mut(),
                    &mut stream(),
                    &mut profile,
                );
                unit_bias.clear();
                let biased = gen.generate_with(
                    &mut shared,
                    kind.instantiate().as_mut(),
                    &mut stream(),
                    &mut unit_bias,
                );
                for (hook, out) in [
                    ("tracer", traced),
                    ("observer", observed),
                    ("profile", profiled),
                    ("bias 1", biased),
                ] {
                    assert_eq!(out.unwrap(), a, "{name}/{kind}/seed {seed}: {hook} hook diverged");
                }
                assert_eq!(unit_bias.weights(), [1.0], "{name}/{kind}/seed {seed}: weight");
                let Some(TraceEvent::Verdict { steps, .. }) = sink.events.last() else {
                    panic!("{name}/{kind}/seed {seed}: trace does not end in a verdict");
                };
                assert_eq!(*steps, a.steps);
            }
        }
        // The observer saw every path it hooked, one batch each.
        assert_eq!(obs.snapshot().counters["batch.batches"], 60, "{name}: observer batches");
        assert!(profile.total_ops() > 0 || profile.delay_solve_count() > 0, "{name}: profile");
    }
}

/// The goal property used by the batched differential walks, mirroring
/// [`model_zoo_outcomes_identical_with_reused_scratch`].
fn zoo_property(net: &Network, goal_var: Option<&str>) -> TimedReach {
    let goal = match goal_var {
        Some(v) => Goal::expr(Expr::var(net.var_id(v).unwrap())),
        None => Goal::in_location(net, "gps.error_GpsError", "permanent").unwrap(),
    };
    TimedReach::new(goal, 100.0)
}

/// The scalar reference stream: path `i` generated one at a time on a
/// fresh RNG derived from `(seed, i)`.
fn scalar_outcomes(gen: &PathGenerator<'_>, kind: StrategyKind, n: u64) -> Vec<PathOutcome> {
    let mut sim = SimScratch::new();
    (0..n)
        .map(|i| {
            let mut rng = slimsim::stats::rng::path_rng(7, i);
            gen.generate_with(&mut sim, kind.instantiate().as_mut(), &mut rng, &mut NoHooks)
                .unwrap()
        })
        .collect()
}

/// [`scalar_outcomes`] under an importance-sampling `boost`, with each
/// path's likelihood weight.
fn scalar_biased(
    gen: &PathGenerator<'_>,
    kind: StrategyKind,
    n: u64,
    boost: f64,
) -> (Vec<PathOutcome>, Vec<f64>) {
    let mut sim = SimScratch::new();
    let mut bias = ImportanceBias::new(boost);
    let outcomes = (0..n)
        .map(|i| {
            let mut rng = slimsim::stats::rng::path_rng(7, i);
            gen.generate_with(&mut sim, kind.instantiate().as_mut(), &mut rng, &mut bias).unwrap()
        })
        .collect();
    (outcomes, bias.weights().to_vec())
}

/// The same `n` paths through the batched driver at lane width `lanes`,
/// on a (possibly dirty) shared [`BatchScratch`], driving `hooks`.
fn batched_outcomes<H: PathHooks>(
    gen: &PathGenerator<'_>,
    kind: StrategyKind,
    n: u64,
    lanes: usize,
    scratch: &mut BatchScratch,
    hooks: &mut H,
) -> Vec<PathOutcome> {
    let mut batch = Vec::new();
    let mut out = Vec::new();
    let mut i = 0u64;
    while i < n {
        let count = ((n - i) as usize).min(lanes);
        gen.generate_batch_hooked(
            scratch,
            kind.instantiate().as_mut(),
            7,
            i,
            1,
            count,
            hooks,
            &mut batch,
        );
        out.extend(batch.drain(..).map(|r| r.unwrap()));
        i += count as u64;
    }
    out
}

/// The batched driver must reproduce the scalar per-path outcome stream
/// *lane-exactly* on every zoo model: identical verdicts, step counts
/// and end times at every lane width, because lane `j` of a batch
/// starting at path `i` consumes exactly the RNG stream of path `i + j`.
/// The same holds under importance sampling, where the likelihood
/// weights must match bit for bit too. One `BatchScratch` is
/// deliberately reused — dirty — across models, strategies and widths
/// (including shrinking from 32 lanes back to 1), so stale lane state
/// from a previous batch can never leak.
#[test]
fn model_zoo_batched_matches_scalar_lane_exact() {
    const BOOST: f64 = 4.0;
    let mut scratch = BatchScratch::new();
    for (name, net, goal_var) in model_zoo() {
        let property = zoo_property(&net, goal_var);
        let gen = PathGenerator::new(&net, &property, 10_000);
        for kind in [StrategyKind::Asap, StrategyKind::Progressive] {
            let scalar = scalar_outcomes(&gen, kind, 64);
            let (scalar_b, scalar_w) = scalar_biased(&gen, kind, 64, BOOST);
            for lanes in [1usize, 4, 8, 32] {
                let batched = batched_outcomes(&gen, kind, 64, lanes, &mut scratch, &mut NoHooks);
                assert_eq!(
                    batched, scalar,
                    "{name}/{kind}: batched kernel diverged at lane width {lanes}"
                );
                let mut bias = ImportanceBias::new(BOOST);
                let batched_b = batched_outcomes(&gen, kind, 64, lanes, &mut scratch, &mut bias);
                assert_eq!(
                    batched_b, scalar_b,
                    "{name}/{kind}: biased batch diverged at lane width {lanes}"
                );
                let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(bias.weights()),
                    bits(&scalar_w),
                    "{name}/{kind}: biased weights diverged at lane width {lanes}"
                );
            }
        }
    }
}

/// Lane-exact equivalence must also hold on *pruned* networks: the
/// fixpoint's prune plan renumbers locations and transitions, and the
/// batched kernel runs the pruned step tables through exactly the same
/// RNG draws as the scalar path.
///
/// The zoo models are prune-tight (their plans are no-ops), so the test
/// additionally builds a stochastic model with a provably dead guard —
/// `n ≥ 5` on a never-written `n = 0` — whose plan drops a transition
/// and a location, guaranteeing a genuinely renumbered network runs.
#[test]
fn pruned_batched_matches_scalar_lane_exact() {
    let mut b = NetworkBuilder::new();
    let n = b.var("n", VarType::Int { lo: 0, hi: 10 }, Value::Int(0));
    let fail = b.var("fail", VarType::Bool, Value::Bool(false));
    let mut a = AutomatonBuilder::new("m");
    let up = a.location("up");
    let down = a.location("down");
    a.markovian(up, 0.8, [Effect::assign(fail, Expr::bool(true))], down);
    a.markovian(down, 2.0, [Effect::assign(fail, Expr::bool(false))], up);
    b.add_automaton(a);
    let mut g = AutomatonBuilder::new("g");
    let g0 = g.location("wait");
    let dead = g.location("dead");
    g.guarded(g0, ActionId::TAU, Expr::var(n).ge(Expr::int(5)), [], dead);
    b.add_automaton(g);
    let net = b.build().unwrap();

    let mut scratch = BatchScratch::new();
    let mut nets: Vec<(&str, Network, &str)> = vec![("synthetic", net, "fail")];
    for (name, net, goal_var) in model_zoo() {
        // Location goals do not survive renumbering without a remap;
        // variable goals are untouched by pruning.
        if let Some(var) = goal_var {
            nets.push((name, net, var));
        }
    }
    let mut pruned_any = false;
    for (name, net, var) in nets {
        let plan = analyze_network(&net).prune_plan(&net);
        if plan.is_noop() {
            continue;
        }
        pruned_any = true;
        let (pruned, _maps) = net.prune(&plan);
        let goal = Goal::expr(Expr::var(pruned.var_id(var).unwrap()));
        let property = TimedReach::new(goal, 100.0);
        let gen = PathGenerator::new(&pruned, &property, 10_000);
        let scalar = scalar_outcomes(&gen, StrategyKind::Asap, 48);
        for lanes in [4usize, 32] {
            let batched =
                batched_outcomes(&gen, StrategyKind::Asap, 48, lanes, &mut scratch, &mut NoHooks);
            assert_eq!(batched, scalar, "{name}: pruned batched kernel diverged at width {lanes}");
        }
    }
    assert!(pruned_any, "prune plans were all no-ops; the pruned leg never ran");
}

/// End-to-end lane-count independence: `analyze` must return the exact
/// same estimate (mean, samples, successes) whatever `batch_lanes` is
/// set to, including `1` (batching disabled). This is the user-visible
/// face of the lane determinism contract.
#[test]
fn runner_estimates_independent_of_batch_lanes() {
    let net = voting_network(&VotingParams::default());
    let goal = Goal::expr(Expr::var(net.var_id(slim_models::VOTING_GOAL_VAR).unwrap()));
    let property = TimedReach::new(goal, 100.0);
    let base = SimConfig::default()
        .with_accuracy(Accuracy::new(0.05, 0.05).unwrap())
        .with_strategy(StrategyKind::Asap)
        .with_seed(41);
    let reference = analyze(&net, &property, &base.with_batch_lanes(1)).unwrap();
    for lanes in [4usize, 16, 64] {
        let r = analyze(&net, &property, &base.with_batch_lanes(lanes)).unwrap();
        assert_eq!(
            r.estimate.mean.to_bits(),
            reference.estimate.mean.to_bits(),
            "estimate changed at batch_lanes {lanes}"
        );
        assert_eq!(r.estimate.samples, reference.estimate.samples, "samples at lanes {lanes}");
        assert_eq!(
            r.estimate.successes, reference.estimate.successes,
            "successes at lanes {lanes}"
        );
    }
}

/// The committed golden trace re-captures byte-identically through the
/// compiled kernel even on a *reused* scratch that previously ran other
/// models — the strongest form of the process-restart determinism
/// contract under the allocation-free engine.
#[test]
fn golden_trace_reproduced_on_reused_scratch() {
    let text = include_str!("golden/witness-goal.jsonl");
    let events = parse_trace(text).expect("golden trace parses");
    let TraceEvent::Start { model, path_index, seed, strategy, bound, max_steps, args, .. } =
        events.first().expect("golden trace is nonempty").clone()
    else {
        panic!("golden trace must begin with a Start header");
    };
    assert_eq!(model, "voting");
    let net = voting_network(&VotingParams::default());
    let goal_var = args.iter().find(|(k, _)| k == "goal-var").map(|(_, v)| v.as_str()).unwrap();
    let goal = Goal::expr(Expr::var(net.var_id(goal_var).unwrap()));
    let property = TimedReach::new(goal, bound);
    let gen = PathGenerator::new(&net, &property, max_steps);
    let kind = StrategyKind::parse(&strategy).unwrap();

    // Dirty the scratch with unrelated paths first.
    let mut scratch = SimScratch::new();
    for warm in 0..8 {
        let mut rng = slimsim::stats::rng::path_rng(seed ^ 0xdead, warm);
        gen.generate_with(&mut scratch, kind.instantiate().as_mut(), &mut rng, &mut NoHooks)
            .unwrap();
    }

    let mut rng = slimsim::stats::rng::path_rng(seed, path_index);
    let mut sink = MemorySink::default();
    {
        let mut tracer = PathTracer::new(&net, &mut sink);
        gen.generate_with(&mut scratch, kind.instantiate().as_mut(), &mut rng, &mut tracer)
            .expect("golden path regenerates");
    }
    let golden_body: Vec<&str> = text.lines().skip(1).filter(|l| !l.trim().is_empty()).collect();
    let regenerated = events_to_json_lines(&sink.events);
    let regenerated_body: Vec<&str> = regenerated.lines().collect();
    assert_eq!(regenerated_body, golden_body, "compiled kernel broke golden byte-identity");
}

/// Batching must not perturb trace capture: traced paths run one at a
/// time on the batch scratch's embedded `SimScratch`, and
/// the committed golden trace must re-capture byte-identically even
/// after batched (untraced) generation has dirtied every lane of that
/// scratch.
#[test]
fn golden_trace_byte_identical_with_batched_generation_active() {
    let text = include_str!("golden/witness-goal.jsonl");
    let events = parse_trace(text).expect("golden trace parses");
    let TraceEvent::Start { model, path_index, seed, strategy, bound, max_steps, args, .. } =
        events.first().expect("golden trace is nonempty").clone()
    else {
        panic!("golden trace must begin with a Start header");
    };
    assert_eq!(model, "voting");
    let net = voting_network(&VotingParams::default());
    let goal_var = args.iter().find(|(k, _)| k == "goal-var").map(|(_, v)| v.as_str()).unwrap();
    let goal = Goal::expr(Expr::var(net.var_id(goal_var).unwrap()));
    let property = TimedReach::new(goal, bound);
    let gen = PathGenerator::new(&net, &property, max_steps);
    let kind = StrategyKind::parse(&strategy).unwrap();

    // Dirty every lane with batched, untraced generation first.
    let mut scratch = BatchScratch::new();
    let mut batch = Vec::new();
    gen.generate_batch_with(
        &mut scratch,
        kind.instantiate().as_mut(),
        seed ^ 0xdead,
        0,
        1,
        16,
        None,
        &mut batch,
    );
    for r in batch.drain(..) {
        r.expect("warm-up batch paths succeed");
    }

    // The traced path runs on the same (dirty) scratch.
    let mut rng = slimsim::stats::rng::path_rng(seed, path_index);
    let mut sink = MemorySink::default();
    {
        let mut tracer = PathTracer::new(&net, &mut sink);
        gen.generate_with(scratch.sim_mut(), kind.instantiate().as_mut(), &mut rng, &mut tracer)
            .expect("golden path regenerates");
    }
    let golden_body: Vec<&str> = text.lines().skip(1).filter(|l| !l.trim().is_empty()).collect();
    let regenerated = events_to_json_lines(&sink.events);
    let regenerated_body: Vec<&str> = regenerated.lines().collect();
    assert_eq!(regenerated_body, golden_body, "batched generation perturbed the golden trace");
}

/// Batching must not perturb witness capture: the selector records path
/// *indices* in consumption order, and consumption order is path-index
/// order at every lane width, so the selected indices — and the
/// re-generated witness traces, byte for byte — must be identical
/// whether batching is disabled or running 64 lanes wide.
#[test]
fn witness_capture_unperturbed_by_batching() {
    let net = voting_network(&VotingParams::default());
    let goal = Goal::expr(Expr::var(net.var_id(slim_models::VOTING_GOAL_VAR).unwrap()));
    let property = TimedReach::new(goal, 100.0);
    let base = SimConfig::default()
        .with_accuracy(Accuracy::new(0.1, 0.1).unwrap())
        .with_strategy(StrategyKind::Asap)
        .with_seed(23);
    let run = |lanes: usize| {
        let config = base.with_batch_lanes(lanes);
        let obs = SimObserver::new(1).with_witness_capture(2);
        analyze_observed(&net, &property, &config, Some(&obs)).unwrap();
        let selector = obs.witness_selection().unwrap();
        let witnesses =
            capture_witnesses(&net, &property, &config, &selector, TraceOptions::default())
                .unwrap();
        let rendered: Vec<(u64, String)> =
            witnesses.iter().map(|w| (w.index, events_to_json_lines(&w.events))).collect();
        (selector, rendered)
    };
    let reference = run(1);
    assert!(!reference.1.is_empty(), "the run selected no witnesses; the guard is vacuous");
    for lanes in [16usize, 64] {
        assert_eq!(run(lanes), reference, "witness capture diverged at batch_lanes {lanes}");
    }
}

/// Networks aimed at the incremental-enabledness cache's invalidation
/// edges, each with a goal predicate:
/// * `delay-flow` — `late := c >= 2.0` over a clock flips a Boolean a
///   delay-free guard reads, changed only by the flow re-run in `advance`;
/// * `overshoot` — an invariant whose boundary a maximal delay overshoots
///   by one ulp (`0.08 + 3·(0.92/3) > 1`), so `advance` retreats, with
///   flows over the rated variable that differ across the retreat;
/// * `sync` — delay-free guards on an action-labelled sync, changed by a
///   third process's Markovian effects, plus a flow that mostly rewrites
///   the value it already holds.
fn cache_edge_models() -> Vec<(&'static str, Network, Expr)> {
    let delay_flow = {
        let mut b = NetworkBuilder::new();
        let c = b.var("c", VarType::Clock, Value::Real(0.0));
        let late = b.var("late", VarType::Bool, Value::Bool(false));
        let n = b.var("n", VarType::Int { lo: 0, hi: 3 }, Value::Int(0));
        let rounds = b.var("rounds", VarType::Int { lo: 0, hi: 3 }, Value::Int(0));
        b.flow(late, Expr::var(c).ge(Expr::real(2.0)));
        let mut a = AutomatonBuilder::new("tick");
        let up = a.location("up");
        let bump = Expr::var(n).add(Expr::int(1)).min(Expr::int(3));
        a.markovian(up, 1.5, [Effect::assign(n, bump)], up);
        b.add_automaton(a);
        let mut w = AutomatonBuilder::new("watch");
        let idle = w.location("idle");
        let seen = w.location("seen");
        w.guarded(idle, ActionId::TAU, Expr::var(late), [Effect::assign(c, Expr::real(0.0))], seen);
        let back = Expr::var(late).not().and(Expr::var(n).ge(Expr::int(2)));
        let count = Expr::var(rounds).add(Expr::int(1)).min(Expr::int(3));
        w.guarded(seen, ActionId::TAU, back, [Effect::assign(rounds, count)], idle);
        b.add_automaton(w);
        let goal = Expr::var(rounds).ge(Expr::int(2));
        (b.build().unwrap(), goal)
    };
    let overshoot = {
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Continuous, Value::Real(0.08));
        let over = b.var("over", VarType::Bool, Value::Bool(false));
        let high = b.var("high", VarType::Bool, Value::Bool(false));
        let cycles = b.var("cycles", VarType::Int { lo: 0, hi: 5 }, Value::Int(0));
        b.flow(over, Expr::var(x).gt(Expr::real(1.0)));
        b.flow(high, Expr::var(x).ge(Expr::real(0.99)));
        let mut a = AutomatonBuilder::new("tank");
        let fill = a.location_with("fill", Expr::var(x).le(Expr::real(1.0)), [(x, 3.0)]);
        let drain = a.location("drain");
        a.guarded(fill, ActionId::TAU, Expr::var(high), [], drain);
        let count = Expr::var(cycles).add(Expr::int(1)).min(Expr::int(5));
        let refill = [Effect::assign(x, Expr::real(0.08)), Effect::assign(cycles, count)];
        a.markovian(drain, 2.0, refill, fill);
        b.add_automaton(a);
        let mut w = AutomatonBuilder::new("watch");
        let w0 = w.location("w0");
        let w1 = w.location("w1");
        w.guarded(w0, ActionId::TAU, Expr::var(over), [], w1);
        w.guarded(w1, ActionId::TAU, Expr::var(over).not(), [], w0);
        b.add_automaton(w);
        let goal = Expr::var(cycles).ge(Expr::int(3));
        (b.build().unwrap(), goal)
    };
    let sync = {
        let mut b = NetworkBuilder::new();
        let k = b.var("k", VarType::Int { lo: 0, hi: 4 }, Value::Int(0));
        let open = b.var("open", VarType::Bool, Value::Bool(true));
        let big = b.var("big", VarType::Bool, Value::Bool(false));
        let done = b.var("done", VarType::Int { lo: 0, hi: 9 }, Value::Int(0));
        b.flow(big, Expr::var(k).ge(Expr::int(3)));
        let go = b.action("go");
        let mut src = AutomatonBuilder::new("src");
        let s0 = src.location("s0");
        let bump = Expr::var(k).add(Expr::int(1)).min(Expr::int(4));
        src.markovian(s0, 2.0, [Effect::assign(k, bump)], s0);
        src.markovian(s0, 0.5, [Effect::assign(open, Expr::var(open).not())], s0);
        b.add_automaton(src);
        let mut a = AutomatonBuilder::new("a");
        let a0 = a.location("a0");
        let a1 = a.location("a1");
        a.guarded(a0, go, Expr::var(k).ge(Expr::int(2)), [], a1);
        a.guarded(a0, go, Expr::var(open).and(Expr::var(big)), [], a0);
        let count = Expr::var(done).add(Expr::int(1)).min(Expr::int(9));
        a.guarded(
            a1,
            go,
            Expr::TRUE,
            [Effect::assign(k, Expr::int(0)), Effect::assign(done, count)],
            a0,
        );
        b.add_automaton(a);
        let mut p = AutomatonBuilder::new("b");
        let b0 = p.location("b0");
        p.guarded(b0, go, Expr::var(open).and(Expr::var(k).le(Expr::int(3))), [], b0);
        p.guarded(b0, go, Expr::var(k).eq(Expr::int(4)), [], b0);
        b.add_automaton(p);
        let goal = Expr::var(done).ge(Expr::int(3));
        (b.build().unwrap(), goal)
    };
    vec![
        ("delay-flow", delay_flow.0, delay_flow.1),
        ("overshoot", overshoot.0, overshoot.1),
        ("sync", sync.0, sync.1),
    ]
}

/// The engine with the enabledness cache (default compile) against the
/// uncached reference kernel: per-path outcomes under every strategy,
/// and the full traces of the first paths, must be identical on the
/// invalidation edge cases and on the Table I and Fig 5 models.
#[test]
fn incremental_enabledness_matches_reference_lane_exact() {
    let mut models = cache_edge_models();
    let sf = sensor_filter_network(&SensorFilterParams { redundancy: 4, ..Default::default() });
    let sf_goal = Expr::var(sf.var_id(slim_models::GOAL_VAR).unwrap());
    models.push(("sensor_filter", sf, sf_goal));
    let launcher = launcher_network(&LauncherParams::default());
    let launcher_goal = Expr::var(launcher.var_id(slim_models::launcher::FAILURE_VAR).unwrap());
    models.push(("launcher", launcher, launcher_goal));
    let mut scratch = SimScratch::new();
    for (name, net, goal) in &models {
        let property = TimedReach::new(Goal::expr(goal.clone()), 10.0);
        let cached = PathGenerator::new(net, &property, 2_000);
        let reference = PathGenerator::with_compile_options(
            net,
            &property,
            2_000,
            &CompileOptions::reference(),
        );
        let mut satisfied = 0;
        for kind in StrategyKind::ALL_EXTENDED {
            for i in 0..48u64 {
                let run = |gen: &PathGenerator<'_>, scratch: &mut SimScratch| {
                    let mut rng = slimsim::stats::rng::path_rng(5, i);
                    let mut sink = MemorySink::default();
                    let out = if i < 4 {
                        let mut tracer = PathTracer::new(net, &mut sink);
                        gen.generate_with(
                            scratch,
                            kind.instantiate().as_mut(),
                            &mut rng,
                            &mut tracer,
                        )
                    } else {
                        gen.generate_with(
                            scratch,
                            kind.instantiate().as_mut(),
                            &mut rng,
                            &mut NoHooks,
                        )
                    };
                    (
                        format!("{:?}", out.map_err(|e| e.to_string())),
                        events_to_json_lines(&sink.events),
                    )
                };
                let want = run(&reference, &mut scratch);
                let got = run(&cached, &mut scratch);
                assert_eq!(got, want, "{name}/{kind}: path {i} diverged from the reference kernel");
                satisfied += usize::from(want.0.contains("Satisfied"));
            }
        }
        assert!(satisfied > 0, "{name}: no path reached the goal; the walk is vacuous");
    }
}

/// The CTMC explorer's plain calls (`guarded_candidates_into`,
/// `apply_mut`, `successors_begin`, `successor`,
/// `markovian_candidates_into` on unrelated states),
/// interleaved on the same scratch with the engine's stepping sequence,
/// must neither read the sequence's cache nor leave it stale: the
/// sequence stays lane-exact against the reference kernel throughout.
#[test]
fn explore_calls_interleaved_with_stepping_stay_exact() {
    let mut models = cache_edge_models();
    let sf = sensor_filter_network(&SensorFilterParams { redundancy: 3, ..Default::default() });
    let sf_goal = Expr::var(sf.var_id(slim_models::GOAL_VAR).unwrap());
    models.push(("sensor_filter", sf, sf_goal));
    for (name, net, _) in &models {
        let fast = net.compile();
        let reference = net.compile_with(&CompileOptions::reference());
        let (mut s, mut r) = (StepScratch::new(), StepScratch::new());
        let (mut w, mut w_r) = (IntervalSet::empty(), IntervalSet::empty());
        let mut seed = 0x5eed_u64;
        let init = net.initial_state().unwrap();
        for path in 0..8 {
            let mut st = init.clone();
            let mut st_r = init.clone();
            net.stepping_begin(&fast, &mut s, &st);
            for step in 0..30 {
                net.stepping_refresh(&fast, &mut s, &st);
                net.delay_window_rated_prof(&fast, &mut s, &st, &mut w, &mut NoopProfile).unwrap();
                net.delay_window_into(&reference, &mut r, &st_r, &mut w_r).unwrap();
                assert_eq!(w, w_r, "{name}: delay window diverged");
                net.guarded_candidates_rated_prof(&fast, &mut s, &st, &mut NoopProfile).unwrap();
                net.guarded_candidates_into(&reference, &mut r, &st_r).unwrap();
                assert_eq!(s.candidates().len(), r.candidates().len(), "{name}: candidates");
                for (a, b) in s.candidates().iter().zip(r.candidates()) {
                    assert_eq!((&a.parts, &a.window), (&b.parts, &b.window), "{name}: candidate");
                }
                net.markovian_candidates_rated(&fast, &mut s, &st);
                net.markovian_candidates_into(&reference, &mut r, &st_r);
                assert_eq!(s.markovian(), r.markovian(), "{name}: Markovian list diverged");

                let pick = lcg(&mut seed) as usize;
                let parts = match (s.candidates(), s.markovian()) {
                    (c, _) if !c.is_empty() && pick.is_multiple_of(2) => {
                        c[pick % c.len()].parts.clone()
                    }
                    (_, m) if !m.is_empty() => vec![(m[pick % m.len()].0, m[pick % m.len()].1)],
                    _ => break,
                };
                let d = match w.sup() {
                    Some(sup) if sup.is_finite() => sup * 0.5,
                    _ => 0.25,
                };
                net.advance_rated_prof(&fast, &mut s, &mut st, d, &w, &mut NoopProfile).unwrap();
                net.advance_mut(&reference, &mut r, &mut st_r, d, &w_r).unwrap();
                net.apply_mut_prof(&fast, &mut s, &mut st, &parts, &mut NoopProfile).unwrap();
                net.apply_mut(&reference, &mut r, &mut st_r, &parts).unwrap();
                assert_eq!(format!("{st:?}"), format!("{st_r:?}"), "{name}: states diverged");

                // Explore-style expansion of the initial state on the
                // engine's scratch, every few steps and after a restart.
                if (step + path) % 3 == 0 {
                    let mut parent = init.clone();
                    net.successors_begin(&fast, &mut s, &parent);
                    net.guarded_candidates_into(&fast, &mut s, &init).unwrap();
                    let firings: Vec<_> = s.candidates().iter().map(|c| c.parts.clone()).collect();
                    for (c, parts) in firings.iter().enumerate() {
                        let mut succ = init.clone();
                        let _ = net.apply_mut(&fast, &mut s, &mut succ, parts);
                        let fired = Firing::Guarded(c);
                        let _ = net.successor(&fast, &mut s, &mut parent, fired, |_, _| ());
                    }
                    net.markovian_candidates_into(&fast, &mut s, &init);
                    for m in 0..s.markovian().len() {
                        let fired = Firing::Markovian(m);
                        let _ = net.successor(&fast, &mut s, &mut parent, fired, |_, _| ());
                    }
                    if step % 2 == 0 {
                        net.stepping_begin(&fast, &mut s, &st);
                    }
                }
            }
        }
    }
}

/// An unvalidated network whose effects write a flow target, which
/// validation forbids: `y := x + z`, with Markovian steps that break the
/// flow (`y := 3`), mask it without changing what it reads (`z := 0`),
/// and do both at once. Its stored states need not satisfy the flow.
fn flow_target_writer() -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.var("x", VarType::Int { lo: 0, hi: 2 }, Value::Int(0));
    let z = b.var("z", VarType::Int { lo: 0, hi: 1 }, Value::Int(0));
    let y = b.var("y", VarType::Int { lo: 0, hi: 3 }, Value::Int(0));
    b.flow(y, Expr::var(x).add(Expr::var(z)));
    let mut a = AutomatonBuilder::new("p");
    let l = a.location("l");
    let bump = Expr::var(x).add(Expr::int(1)).min(Expr::int(2));
    a.markovian(l, 1.0, [Effect::assign(x, bump)], l);
    a.markovian(l, 1.0, [Effect::assign(y, Expr::int(3))], l);
    a.markovian(l, 1.0, [Effect::assign(z, Expr::int(0))], l);
    a.markovian(l, 1.0, [Effect::assign(y, Expr::int(3)), Effect::assign(z, Expr::int(0))], l);
    b.add_automaton(a);
    b.assemble_for_validation().unwrap()
}

/// `successor` fires in place exactly what `apply_mut` builds from a
/// copy — the same state or the same error — lists every moved process
/// and changed variable in its delta, and leaves the parent as it was.
/// Checked on every candidate (windows ignored) of the first states of a
/// breadth-first walk through the model zoo, the cache edge models and
/// an unvalidated network whose effects write a flow target.
#[test]
fn successor_in_place_matches_apply_mut() {
    let mut models: Vec<(&str, Network)> =
        model_zoo().into_iter().map(|(name, net, _)| (name, net)).collect();
    models.extend(cache_edge_models().into_iter().map(|(name, net, _)| (name, net)));
    models.push(("flow_target_writer", flow_target_writer()));
    for (name, net) in &models {
        let t = net.compile();
        let (mut s, mut r) = (StepScratch::new(), StepScratch::new());
        let mut queue = vec![net.initial_state().unwrap()];
        let mut seen: Vec<String> = vec![format!("{:?}", queue[0])];
        let mut here = 0;
        while here < queue.len() && here < 40 {
            let state = queue[here].clone();
            let mut parent = state.clone();
            net.successors_begin(&t, &mut s, &parent);
            net.guarded_candidates_into(&t, &mut s, &state).unwrap();
            let guarded = s.candidates().iter().map(|c| c.parts.clone());
            let mut firings: Vec<_> =
                guarded.enumerate().map(|(c, parts)| (Firing::Guarded(c), parts)).collect();
            net.markovian_candidates_into(&t, &mut s, &state);
            let markovian = s.markovian().iter().map(|&(p, tr, _)| vec![(p, tr)]);
            firings.extend(markovian.enumerate().map(|(m, parts)| (Firing::Markovian(m), parts)));
            for (firing, parts) in firings {
                let mut want = state.clone();
                let want = net.apply_mut(&t, &mut r, &mut want, &parts).map(|()| want);
                let got = net.successor(&t, &mut s, &mut parent, firing, |n, d| {
                    (n.clone(), d.moved().collect::<Vec<_>>(), d.changed().collect::<Vec<_>>())
                });
                assert_eq!(
                    format!("{parent:?}"),
                    format!("{state:?}"),
                    "{name}: parent not restored"
                );
                let (next, moved, changed) = match (want, got) {
                    (Ok(want), Ok(got)) => {
                        assert_eq!(
                            format!("{want:?}"),
                            format!("{:?}", got.0),
                            "{name}: {parts:?}"
                        );
                        got
                    }
                    (want, got) => {
                        assert_eq!(want.err(), got.err(), "{name}: {parts:?}");
                        continue;
                    }
                };
                for (p, (a, b)) in state.locs.iter().zip(&next.locs).enumerate() {
                    assert_eq!(a != b, moved.contains(&ProcId(p)), "{name}: moved {p}");
                }
                for ((v, a), (_, b)) in state.nu.iter().zip(next.nu.iter()) {
                    if !a.same_bits(b) {
                        assert!(changed.contains(&v), "{name}: {v:?} changed unlisted");
                    }
                }
                let key = format!("{next:?}");
                if !seen.contains(&key) {
                    seen.push(key);
                    queue.push(next);
                }
            }
            here += 1;
        }
    }
}
