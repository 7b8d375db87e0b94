//! Statistical conformance: the Monte Carlo simulator against the exact
//! CTMC transient pipeline on every untimed bundled model.
//!
//! For each model the CTMC pipeline computes the reference probability to
//! solver precision; a seeded simulator run must then land within its own
//! Chernoff–Hoeffding half-width ε of that reference. The fast tier runs
//! at ε = 0.03 in CI; the `#[ignore]`d tier-2 variants tighten to
//! ε = 0.005 (hundreds of thousands of paths) and are exercised by the
//! scheduled heavy job / `cargo test -- --ignored`.

use slim_ctmc::analysis::{check_timed_reachability, PipelineConfig};
use slim_ctmc::{eliminate, explore, Ctmc, CtmcError, ExploreConfig, Imc, ImcRow};
use slim_models::{
    repair_failure_probability, repair_network, sensor_filter_network, voting_failure_probability,
    voting_network, RepairParams, SensorFilterParams, VotingParams, GOAL_VAR, REPAIR_GOAL_VAR,
    VOTING_GOAL_VAR,
};
use slimsim::prelude::*;

/// One untimed conformance case: a model, its goal variable, and the
/// property bound.
struct Case {
    name: &'static str,
    net: Network,
    goal_var: &'static str,
    bound: f64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "sensor-filter-2",
            net: sensor_filter_network(&SensorFilterParams::default()),
            goal_var: GOAL_VAR,
            bound: 1.0,
        },
        Case {
            name: "sensor-filter-3",
            net: sensor_filter_network(&SensorFilterParams { redundancy: 3, ..Default::default() }),
            goal_var: GOAL_VAR,
            bound: 1.0,
        },
        Case {
            name: "voting",
            net: voting_network(&VotingParams::default()),
            goal_var: VOTING_GOAL_VAR,
            bound: 1.0,
        },
        Case {
            name: "repair",
            net: repair_network(&RepairParams::default()),
            goal_var: REPAIR_GOAL_VAR,
            bound: 2.0,
        },
    ]
}

/// The CTMC pipeline's reference probability for a case.
fn ctmc_reference(case: &Case) -> f64 {
    let failed = case.net.var_id(case.goal_var).unwrap();
    let goal = move |s: &NetState| s.nu.get(failed).map(|v| v.as_bool().unwrap_or(false));
    check_timed_reachability(&case.net, &goal, case.bound, &PipelineConfig::default())
        .unwrap()
        .probability
}

/// Runs the seeded simulator at an explicit batch lane width and asserts
/// the estimate lands within its Chernoff half-width ε of the CTMC
/// reference.
fn assert_conformance_lanes(case: &Case, epsilon: f64, workers: usize, lanes: usize) {
    let reference = ctmc_reference(case);
    let goal = Goal::expr(Expr::var(case.net.var_id(case.goal_var).unwrap()));
    let prop = TimedReach::new(goal, case.bound);
    let cfg = SimConfig::default()
        .with_accuracy(Accuracy::new(epsilon, 0.05).unwrap())
        .with_strategy(StrategyKind::Asap)
        .with_seed(0xD5A1)
        .with_workers(workers)
        .with_batch_lanes(lanes);
    let r = analyze(&case.net, &prop, &cfg).unwrap();
    assert!(
        (r.probability() - reference).abs() <= epsilon,
        "{}: simulator {} vs CTMC {reference} (ε = {epsilon}, workers {workers}, lanes {lanes})",
        case.name,
        r.probability()
    );
}

/// [`assert_conformance_lanes`] at the default lane width.
fn assert_conformance(case: &Case, epsilon: f64, workers: usize) {
    assert_conformance_lanes(case, epsilon, workers, SimConfig::default().batch_lanes);
}

#[test]
fn simulator_conforms_to_ctmc_on_all_untimed_models() {
    for case in cases() {
        assert_conformance(&case, 0.03, 1);
    }
}

#[test]
fn simulator_conforms_to_ctmc_with_parallel_workers() {
    for case in cases() {
        assert_conformance(&case, 0.03, 4);
    }
}

/// The CTMC pipeline itself must agree with the closed forms the model
/// zoo provides — anchoring the conformance reference to ground truth.
#[test]
fn ctmc_reference_matches_closed_forms() {
    let voting = &cases()[2];
    let exact = voting_failure_probability(&VotingParams::default(), voting.bound);
    assert!((ctmc_reference(voting) - exact).abs() < 1e-6);

    let repair = &cases()[3];
    let exact = repair_failure_probability(&RepairParams::default(), repair.bound);
    assert!((ctmc_reference(repair) - exact).abs() < 1e-6);
}

/// Conformance must hold for the sequential stopping rules too, not just
/// the fixed-sample Chernoff bound. Gauss and Chow–Robbins adapt the
/// sample count to the observed variance; their estimates must still
/// land within ε of the exact reference.
#[test]
fn sequential_generators_conform_on_sensor_filter() {
    let case = &cases()[0];
    let reference = ctmc_reference(case);
    let goal = Goal::expr(Expr::var(case.net.var_id(case.goal_var).unwrap()));
    let prop = TimedReach::new(goal, case.bound);
    for generator in [GeneratorKind::Gauss, GeneratorKind::ChowRobbins] {
        let cfg = SimConfig::default()
            .with_accuracy(Accuracy::new(0.03, 0.05).unwrap())
            .with_strategy(StrategyKind::Asap)
            .with_generator(generator)
            .with_seed(0xD5A1);
        let r = analyze(&case.net, &prop, &cfg).unwrap();
        assert!(
            (r.probability() - reference).abs() <= 0.03,
            "{generator}: simulator {} vs CTMC {reference}",
            r.probability()
        );
    }
}

/// The batched driver, explicitly exercised at lane widths away from
/// the default (including `1`, which disables batching), must conform to
/// the same CTMC references. Lane determinism makes all widths produce
/// the *same* estimate, so a conformance failure here isolates a batched
/// stepping bug rather than a statistical fluke.
#[test]
fn batched_kernel_conforms_to_ctmc_on_all_untimed_models() {
    for case in cases() {
        for lanes in [1usize, 8, 64] {
            assert_conformance_lanes(&case, 0.03, 1, lanes);
        }
    }
}

/// The batched kernel under parallel workers: each worker strides its
/// lanes through the shared path-index space (`start + workers·j`), and
/// the merged estimate must still conform.
#[test]
fn batched_kernel_conforms_with_parallel_workers() {
    for case in cases() {
        assert_conformance_lanes(&case, 0.03, 4, 32);
    }
}

#[test]
#[ignore = "tier-2: tight-accuracy conformance (hundreds of thousands of paths)"]
fn tight_epsilon_conformance_sequential() {
    for case in cases() {
        assert_conformance(&case, 0.005, 1);
    }
}

#[test]
#[ignore = "tier-2: tight-accuracy conformance with parallel workers"]
fn tight_epsilon_conformance_parallel() {
    for case in cases() {
        assert_conformance(&case, 0.005, 4);
    }
}

#[test]
#[ignore = "tier-2: tight-accuracy conformance through the batched kernel"]
fn tight_epsilon_conformance_batched() {
    for case in cases() {
        assert_conformance_lanes(&case, 0.005, 1, 64);
    }
}

/// One pinned pipeline outcome: `(states, transitions, tangible_states,
/// lumped_states, probability.to_bits())`.
type Pin = (usize, usize, usize, usize, u64);

/// Bit pins of the CTMC pipeline, recorded before the packed-store
/// explorer and the flat eliminate/lump working storage landed. Any
/// change to state numbering, summation order or block numbering moves
/// at least one of these.
#[test]
fn ctmc_pipeline_golden_bits() {
    let sensor = |n: usize| Case {
        name: "sensor-filter",
        net: sensor_filter_network(&SensorFilterParams { redundancy: n, ..Default::default() }),
        goal_var: GOAL_VAR,
        bound: 2.0,
    };
    let [_, _, voting, repair] = <[Case; 4]>::try_from(cases()).ok().unwrap();
    let pinned: [(Case, Pin); 5] = [
        (sensor(2), (60, 119, 21, 9, 4603414239034450143)),
        (sensor(4), (1020, 3871, 285, 25, 4597704449426416446)),
        (sensor(6), (16380, 94335, 4221, 49, 4591142533465917818)),
        (voting, (28, 63, 16, 8, 4600421303395782108)),
        (repair, (8, 17, 7, 5, 4599917729580913705)),
    ];
    for (case, want) in pinned {
        let failed = case.net.var_id(case.goal_var).unwrap();
        let goal = move |s: &NetState| s.nu.get(failed).map(|v| v.as_bool().unwrap_or(false));
        let r = check_timed_reachability(&case.net, &goal, case.bound, &PipelineConfig::default())
            .unwrap();
        let got =
            (r.states, r.transitions, r.tangible_states, r.lumped_states, r.probability.to_bits());
        assert_eq!(got, want, "{}: pipeline output moved", case.name);
    }
}

/// Breadth-first exploration on the reference step API
/// (`guarded_candidates` / `markovian_candidates` / `apply`, one cloned
/// state per successor) — the semantics the packed explorer must
/// reproduce state for state. Every Markovian edge is kept, those of
/// vanishing states included.
fn reference_rows(
    net: &Network,
    goal: &dyn Fn(&NetState) -> bool,
) -> Result<Vec<ImcRow>, EvalError> {
    let key = |s: &NetState| -> (Vec<LocId>, Vec<i64>) {
        let vals = s.nu.as_slice().iter().map(|v| match *v {
            Value::Bool(b) => i64::from(b),
            Value::Int(i) => i,
            Value::Real(r) => panic!("real value {r} in an untimed model"),
        });
        (s.locs.clone(), vals.collect())
    };
    let initial = net.initial_state().unwrap();
    let mut index = std::collections::HashMap::from([(key(&initial), 0usize)]);
    let mut queue = vec![initial];
    let mut rows = Vec::new();
    let mut intern = |next: NetState, queue: &mut Vec<NetState>| {
        let fresh = index.len();
        let id = *index.entry(key(&next)).or_insert(fresh);
        if id == fresh {
            queue.push(next);
        }
        id
    };
    let mut here = 0;
    while here < queue.len() {
        let state = queue[here].clone();
        let (mut interactive, mut markovian) = (vec![], vec![]);
        for cand in net.guarded_candidates(&state)? {
            if cand.window.contains(0.0) {
                let next = net.apply(&state, &cand.transition)?;
                interactive.push(intern(next, &mut queue));
            }
        }
        for cand in net.markovian_candidates(&state) {
            let next = net.apply(&state, &cand.transition)?;
            markovian.push((intern(next, &mut queue), cand.rate));
        }
        rows.push((goal(&state), interactive, markovian));
        here += 1;
    }
    Ok(rows)
}

/// The reference IMC under maximal progress: the Markovian row of every
/// state with an immediate successor is dropped, and its edges counted
/// as preempted.
fn reference_imc(net: &Network, goal: &dyn Fn(&NetState) -> bool) -> Result<Imc, EvalError> {
    let mut rows = reference_rows(net, goal)?;
    let mut preempted = 0;
    for (_, interactive, markovian) in &mut rows {
        if !interactive.is_empty() {
            preempted += markovian.len();
            markovian.clear();
        }
    }
    Ok(Imc::from_rows(&rows).with_preempted(preempted))
}

/// A unit `name` with one location and a Markovian self-loop running
/// `effects`.
fn markov_loop(name: &str, rate: f64, effects: Vec<Effect>) -> AutomatonBuilder {
    let mut a = AutomatonBuilder::new(name);
    let l = a.location("l");
    a.markovian(l, rate, effects, l);
    a
}

/// A monitor that sets `flag` once `cond` holds: an immediate,
/// acyclic step.
fn latch(name: &str, cond: Expr, flag: VarId) -> AutomatonBuilder {
    let mut a = AutomatonBuilder::new(name);
    let l = a.location("l");
    a.guarded(
        l,
        ActionId::TAU,
        cond.and(Expr::var(flag).not()),
        [Effect::assign(flag, Expr::TRUE)],
        l,
    );
    a
}

/// `v := (v + 1) min hi`: at `hi` the effect writes back the value `v`
/// already holds.
fn bump(v: VarId, hi: i64) -> Effect {
    Effect::assign(v, Expr::var(v).add(Expr::int(1)).min(Expr::int(hi)))
}

/// A flow whose read set depends on a branch: `out := if sel then a
/// else b`, so a change to the unselected input leaves it alone. The
/// inputs saturate, so their bumps also write back held values.
fn branch_reads_network() -> Network {
    let mut b = NetworkBuilder::new();
    let sel = b.var("sel", VarType::Bool, Value::Bool(false));
    let x = b.var("a", VarType::Int { lo: 0, hi: 2 }, Value::Int(0));
    let y = b.var("b", VarType::Int { lo: 0, hi: 2 }, Value::Int(0));
    let out = b.var("out", VarType::Int { lo: 0, hi: 2 }, Value::Int(0));
    let hit = b.var("hit", VarType::Bool, Value::Bool(false));
    b.flow(out, Expr::ite(Expr::var(sel), Expr::var(x), Expr::var(y)));
    b.add_automaton(markov_loop("toggle", 0.5, vec![Effect::assign(sel, Expr::var(sel).not())]));
    b.add_automaton(markov_loop("pa", 1.0, vec![bump(x, 2)]));
    b.add_automaton(markov_loop("pb", 2.0, vec![bump(y, 2)]));
    b.add_automaton(latch("mon", Expr::var(out).eq(Expr::int(2)).and(Expr::var(sel)), hit));
    b.build().unwrap()
}

/// A flow that reads another flow's target: `mid := x + y`, then `top
/// := mid >= 3`, so a change to `x` reaches `top` only through `mid`'s
/// re-run.
fn flow_chain_network() -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.var("x", VarType::Int { lo: 0, hi: 2 }, Value::Int(0));
    let y = b.var("y", VarType::Int { lo: 0, hi: 2 }, Value::Int(0));
    let mid = b.var("mid", VarType::Int { lo: 0, hi: 4 }, Value::Int(0));
    let top = b.var("top", VarType::Bool, Value::Bool(false));
    let seen = b.var("seen", VarType::Bool, Value::Bool(false));
    b.flow(mid, Expr::var(x).add(Expr::var(y)));
    b.flow(top, Expr::var(mid).ge(Expr::int(3)));
    b.add_automaton(markov_loop("px", 1.0, vec![bump(x, 2)]));
    b.add_automaton(markov_loop("py", 0.5, vec![bump(y, 2)]));
    b.add_automaton(markov_loop("reset", 0.25, vec![Effect::assign(x, Expr::int(0))]));
    b.add_automaton(latch("mon", Expr::var(top), seen));
    b.build().unwrap()
}

/// A synchronizing pair whose parts both write `v`, the later part
/// winning: on the first `go` part `b` writes back `v`'s pre-state value
/// over part `a`'s `v + 1`, on the second its `v + 2` overrides `v + 1`.
/// A flow, a Markovian decrement and the immediate `look` (enumerated
/// after `go`, from the same parent) read `v`.
fn sync_same_var_network() -> Network {
    let mut b = NetworkBuilder::new();
    let go = b.action("go");
    let look = b.action("look");
    let v = b.var("v", VarType::Int { lo: 0, hi: 6 }, Value::Int(0));
    let seen = b.var("seen", VarType::Int { lo: 0, hi: 6 }, Value::Int(0));
    let high = b.var("high", VarType::Bool, Value::Bool(false));
    b.flow(high, Expr::var(v).ge(Expr::int(3)));
    let add = |k: i64| Expr::var(v).add(Expr::int(k)).min(Expr::int(6));
    // Each part steps `0 → 1 → 2` on `go` and returns to 0 at rate 1.
    for (name, first, second) in [("a", add(1), add(1)), ("b", Expr::var(v), add(2))] {
        let mut a = AutomatonBuilder::new(name);
        let l: Vec<LocId> = (0..3).map(|i| a.location(format!("{name}{i}"))).collect();
        a.guarded(l[0], go, Expr::TRUE, [Effect::assign(v, first)], l[1]);
        a.guarded(l[1], go, Expr::TRUE, [Effect::assign(v, second)], l[2]);
        a.markovian(l[2], 1.0, [], l[0]);
        b.add_automaton(a);
    }
    let mut probe = AutomatonBuilder::new("probe");
    let l = probe.location("l");
    let differs = Expr::var(seen).ne(Expr::var(v));
    probe.guarded(l, look, differs, [Effect::assign(seen, Expr::var(v))], l);
    b.add_automaton(probe);
    let dec = Effect::assign(v, Expr::var(v).sub(Expr::int(1)).max(Expr::int(0)));
    b.add_automaton(markov_loop("dec", 0.5, vec![dec]));
    b.build().unwrap()
}

/// A re-run flow that fails its range check: `y := 2·x` leaves `0..=4`
/// once `x` reaches 3, three Markovian steps in.
fn flow_range_error_network() -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.var("x", VarType::Int { lo: 0, hi: 3 }, Value::Int(0));
    let y = b.var("y", VarType::Int { lo: 0, hi: 4 }, Value::Int(0));
    b.var("never", VarType::Bool, Value::Bool(false));
    b.flow(y, Expr::var(x).mul(Expr::int(2)));
    b.add_automaton(markov_loop("px", 1.0, vec![bump(x, 3)]));
    b.build().unwrap()
}

/// The untimed cases, sensor–filter n = 4 and hand-built networks that
/// stress the explorer's parent-read flow rule, with their goal
/// predicates.
fn explore_cases() -> Vec<(Case, impl Fn(&NetState) -> bool)> {
    let mut all = cases();
    all.push(Case {
        name: "sensor-filter-4",
        net: sensor_filter_network(&SensorFilterParams { redundancy: 4, ..Default::default() }),
        goal_var: GOAL_VAR,
        bound: 2.0,
    });
    for (name, net, goal_var) in [
        ("branch-reads", branch_reads_network(), "hit"),
        ("flow-chain", flow_chain_network(), "seen"),
        ("sync-same-var", sync_same_var_network(), "high"),
        ("flow-range-error", flow_range_error_network(), "never"),
    ] {
        all.push(Case { name, net, goal_var, bound: 1.0 });
    }
    all.into_iter()
        .map(|case| {
            let failed = case.net.var_id(case.goal_var).unwrap();
            (case, move |s: &NetState| s.nu.get(failed).unwrap().as_bool().unwrap())
        })
        .collect()
}

/// The production explorer (compiled kernel, packed state store) builds
/// exactly the maximal-progress IMC of a reference-API breadth-first
/// search: same state numbering, same edge order, same rates, same goal
/// labels, same preempted count — or fails with the same evaluation
/// error.
#[test]
fn explore_matches_reference_step_api() {
    let mut failures = 0;
    for (case, holds) in explore_cases() {
        let explored = explore(&case.net, &|s| Ok(holds(s)), &ExploreConfig::default());
        match reference_imc(&case.net, &holds) {
            Ok(imc) => {
                let explored = explored.unwrap();
                assert_eq!(explored.imc, imc, "{}", case.name);
                assert_eq!(explored.states, explored.imc.len());
            }
            Err(e) => {
                assert_eq!(explored.unwrap_err(), CtmcError::Eval(e), "{}", case.name);
                failures += 1;
            }
        }
    }
    assert_eq!(failures, 1, "exactly the range-error case fails");
}

/// `(state, probability or rate bits)` entries.
type BitEntries = Vec<(usize, u64)>;

/// A CTMC as bits: goal labels, initial distribution and every row.
fn ctmc_bits(c: &Ctmc) -> (Vec<bool>, BitEntries, Vec<BitEntries>) {
    let bits = |(t, q): (usize, f64)| (t, q.to_bits());
    let rows = (0..c.len()).map(|s| c.row(s).map(bits).collect()).collect();
    (c.goal.clone(), c.initial.iter().copied().map(bits).collect(), rows)
}

/// The Markovian edges `explore` drops are never read: eliminating the
/// reference IMC with every edge stored gives the same CTMC, to the bit,
/// as eliminating the explored one.
#[test]
fn preempted_edges_never_reach_the_ctmc() {
    let mut preempted = 0;
    for (case, holds) in explore_cases() {
        let explored = explore(&case.net, &|s| Ok(holds(s)), &ExploreConfig::default());
        let rows = match reference_rows(&case.net, &holds) {
            Ok(rows) => rows,
            Err(e) => {
                assert_eq!(explored.unwrap_err(), CtmcError::Eval(e), "{}", case.name);
                continue;
            }
        };
        let explored = explored.unwrap();
        let unfiltered = Imc::from_rows(&rows);
        assert_eq!(unfiltered.transition_count(), explored.imc.transition_count(), "{}", case.name);
        preempted += explored.imc.preempted();
        let want = ctmc_bits(&eliminate(&unfiltered).unwrap());
        assert_eq!(ctmc_bits(&eliminate(&explored.imc).unwrap()), want, "{}", case.name);
    }
    assert!(preempted > 0, "some case must have preempted edges");
}

/// `Explored::approx_memory_bytes` is the capacity sum of every array
/// `explore` holds, re-derived here from public counts: the IMC's arrays
/// trimmed to one goal byte and two `u32` row ends per state, a `u32` per
/// interactive edge and a `u32` target plus an `f64` rate per stored
/// Markovian edge (vanishing states store none; their preempted edges
/// are only counted); the state index's `u32` slots (a power of two, at
/// least 1024 and at least twice the states); and the arena's whole `u64`
/// words per state, reserved for half the slots plus one. Bytes per state
/// at sensor–filter n = 6 stay under a pinned bound.
#[test]
fn explore_memory_accounting() {
    let net = sensor_filter_network(&SensorFilterParams { redundancy: 6, ..Default::default() });
    let failed = net.var_id(GOAL_VAR).unwrap();
    let goal = move |s: &NetState| s.nu.get(failed).map(|v| v.as_bool().unwrap_or(false));
    let e = explore(&net, &goal, &ExploreConfig::default()).unwrap();
    let (imc, len) = (&e.imc, e.states);
    let interactive: usize = (0..len).map(|s| imc.interactive(s).len()).sum();
    let markovian: usize = (0..len).map(|s| imc.markovian(s).count()).sum();
    assert!((0..len).all(|s| !imc.is_vanishing(s) || imc.markovian(s).len() == 0));
    assert_eq!(interactive + markovian + imc.preempted(), imc.transition_count());
    let imc_bytes = 9 * len + 4 * interactive + 12 * markovian;
    assert_eq!(imc.allocated_bytes(), imc_bytes, "IMC arrays are trimmed to their lengths");

    let slots = (2 * len).next_power_of_two().max(1024);
    let arena = e.approx_memory_bytes - imc_bytes - 4 * slots;
    let word_column = (slots / 2 + 1) * 8;
    assert_eq!(arena % word_column, 0, "arena of {arena} B is not whole words per state");
    assert!(arena / word_column >= 1, "a state is at least one word");

    let per_state = e.approx_memory_bytes as f64 / len as f64;
    assert!(per_state <= BYTES_PER_STATE_N6, "{per_state:.1} B per state at n = 6");
}

/// Pinned over the measured 46.2 B per state (756 216 B for 16 380
/// states), with headroom.
const BYTES_PER_STATE_N6: f64 = 50.0;
