//! Integration tests for structured tracing: witness capture is
//! deterministic across worker counts, captured traces replay to the
//! recorded verdict, and a committed golden trace (recorded by an earlier
//! process) still re-captures byte-identically and replays cleanly —
//! i.e. determinism survives a process restart.

use slim_models::voting::{voting_network, VotingParams};
use slimsim::prelude::*;

/// A component that fails with rate λ = 1, so `P(◇[0,1] failed) ≈ 0.63`
/// and goal witnesses are abundant.
fn exp_model() -> (Network, TimedReach) {
    let mut b = NetworkBuilder::new();
    let mut a = AutomatonBuilder::new("unit");
    let ok = a.location("ok");
    let failed = a.location("failed");
    a.markovian(ok, 1.0, [], failed);
    b.add_automaton(a);
    let net = b.build().expect("builds");
    let goal = Goal::in_location(&net, "unit", "failed").unwrap();
    let property = TimedReach::new(goal, 1.0);
    (net, property)
}

/// Witness traces are byte-identical across `workers ∈ {1, 4}`, and each
/// replays to exactly the verdict and step count it recorded.
#[test]
fn witnesses_identical_across_workers_and_replay_cleanly() {
    let (net, property) = exp_model();
    let mut per_worker_bytes: Vec<Vec<String>> = Vec::new();
    for workers in [1usize, 4] {
        let config = SimConfig::default()
            .with_accuracy(Accuracy::new(0.1, 0.1).unwrap())
            .with_seed(42)
            .with_workers(workers);
        let obs = SimObserver::new(workers).with_witness_capture(2);
        analyze_observed(&net, &property, &config, Some(&obs)).expect("analysis succeeds");
        let selector = obs.witness_selection().unwrap();
        let witnesses =
            capture_witnesses(&net, &property, &config, &selector, TraceOptions::default())
                .expect("witness capture succeeds");
        assert!(!witnesses.is_empty(), "λ=1 bound=1 run must produce goal witnesses");

        let mut rendered = Vec::new();
        for w in &witnesses {
            // Replay the captured events; the verdict and step count must
            // reproduce the recorded outcome exactly.
            let outcome = replay_events(&net, &property, &w.events).expect("replay succeeds");
            assert_eq!(outcome.verdict, w.outcome.verdict);
            assert_eq!(outcome.steps, w.outcome.steps);
            assert_eq!(outcome.end_time, w.outcome.end_time);
            rendered.push(events_to_json_lines(&w.events));
        }
        per_worker_bytes.push(rendered);
    }
    assert_eq!(
        per_worker_bytes[0], per_worker_bytes[1],
        "witness traces differ between workers=1 and workers=4"
    );
}

/// Tampering with a captured trace is caught by the replay verifier.
#[test]
fn tampered_witness_fails_replay() {
    let (net, property) = exp_model();
    let config = SimConfig::default()
        .with_accuracy(Accuracy::new(0.1, 0.1).unwrap())
        .with_seed(42)
        .with_workers(1);
    let obs = SimObserver::new(1).with_witness_capture(1);
    analyze_observed(&net, &property, &config, Some(&obs)).unwrap();
    let selector = obs.witness_selection().unwrap();
    let witnesses =
        capture_witnesses(&net, &property, &config, &selector, TraceOptions::default()).unwrap();
    let w = witnesses.first().expect("one goal witness");
    let last = w.events.len() - 1;

    // A shifted verdict time no longer matches the goal's first hit.
    let mut events = w.events.clone();
    if let TraceEvent::Verdict { at, .. } = &mut events[last] {
        *at += 0.1;
    } else {
        panic!("trace must end with a verdict");
    }
    assert!(replay_events(&net, &property, &events).is_err());

    // A deflated step count contradicts the recorded step numbers.
    let mut events = w.events.clone();
    if let TraceEvent::Verdict { steps, .. } = &mut events[last] {
        assert!(*steps > 0);
        *steps -= 1;
    }
    assert!(replay_events(&net, &property, &events).is_err());
}

/// The committed golden trace — recorded by a separate `slimsim analyze`
/// process — replays cleanly against a freshly built model, and
/// re-capturing its path index yields byte-identical event lines. This is
/// the process-restart half of the determinism contract.
#[test]
fn golden_witness_replays_after_process_restart() {
    let text = include_str!("golden/witness-goal.jsonl");
    let events = parse_trace(text).expect("golden trace parses");
    let TraceEvent::Start {
        format_version,
        model,
        path_index,
        seed,
        strategy,
        bound,
        max_steps,
        args,
    } = events.first().expect("golden trace is nonempty").clone()
    else {
        panic!("golden trace must begin with a Start header");
    };
    assert!(format_version <= TRACE_FORMAT_VERSION);
    assert_eq!(model, "voting", "golden trace was recorded on the voting builtin");
    let net = voting_network(&VotingParams::default());
    let goal_var = args
        .iter()
        .find(|(k, _)| k == "goal-var")
        .map(|(_, v)| v.as_str())
        .expect("header names the goal variable");
    let goal = Goal::expr(Expr::var(net.var_id(goal_var).expect("goal variable exists")));
    let property = TimedReach::new(goal, bound);

    // 1. The recorded trace verifies step-by-step and ends in the
    //    recorded verdict.
    let outcome = replay_events(&net, &property, &events).expect("golden trace replays");
    let TraceEvent::Verdict { verdict, steps, .. } = events.last().unwrap() else {
        panic!("golden trace must end with a verdict");
    };
    assert_eq!(outcome.verdict.code(), verdict);
    assert_eq!(outcome.steps, *steps);

    // 2. Re-generating the same path index in this process reproduces the
    //    recorded events byte-for-byte (modulo the CLI-added header).
    let kind = StrategyKind::parse(&strategy).expect("recorded strategy parses");
    let mut strat = kind.instantiate();
    let mut rng = slimsim::stats::rng::path_rng(seed, path_index);
    let mut sink = MemorySink::default();
    let gen = PathGenerator::new(&net, &property, max_steps);
    {
        let mut tracer = PathTracer::new(&net, &mut sink);
        gen.generate_with(&mut SimScratch::new(), strat.as_mut(), &mut rng, &mut tracer)
            .expect("path regenerates");
    }
    let golden_body: Vec<&str> = text.lines().skip(1).filter(|l| !l.trim().is_empty()).collect();
    let regenerated = events_to_json_lines(&sink.events);
    let regenerated_body: Vec<&str> = regenerated.lines().collect();
    assert_eq!(regenerated_body, golden_body, "re-captured trace differs from the golden file");
}
