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
use slim_ctmc::{explore, ExploreConfig, Imc, ImcState};
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
/// reproduce state for state.
fn reference_imc(net: &Network, goal: &dyn Fn(&NetState) -> bool) -> Imc {
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
    let mut imc = Imc { states: Vec::new() };
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
        let mut s = ImcState { interactive: vec![], markovian: vec![], goal: goal(&state) };
        for cand in net.guarded_candidates(&state).unwrap() {
            if cand.window.contains(0.0) {
                let next = net.apply(&state, &cand.transition).unwrap();
                s.interactive.push(intern(next, &mut queue));
            }
        }
        for cand in net.markovian_candidates(&state) {
            let next = net.apply(&state, &cand.transition).unwrap();
            s.markovian.push((intern(next, &mut queue), cand.rate));
        }
        imc.states.push(s);
        here += 1;
    }
    imc
}

/// The production explorer (compiled kernel, packed state store) builds
/// exactly the IMC of a reference-API breadth-first search: same state
/// numbering, same edge order, same rates, same goal labels.
#[test]
fn explore_matches_reference_step_api() {
    let mut all = cases();
    all.push(Case {
        name: "sensor-filter-4",
        net: sensor_filter_network(&SensorFilterParams { redundancy: 4, ..Default::default() }),
        goal_var: GOAL_VAR,
        bound: 2.0,
    });
    for case in all {
        let failed = case.net.var_id(case.goal_var).unwrap();
        let holds = move |s: &NetState| s.nu.get(failed).unwrap().as_bool().unwrap();
        let explored = explore(&case.net, &|s| Ok(holds(s)), &ExploreConfig::default()).unwrap();
        assert_eq!(explored.imc, reference_imc(&case.net, &holds), "{}", case.name);
        assert_eq!(explored.states, explored.imc.len());
    }
}
