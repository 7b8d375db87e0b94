//! Trace replay: re-drives the network from a recorded trace and verifies
//! step-by-step state agreement and the final verdict.
//!
//! Replay is *verification-based*: it does not re-run the strategy or the
//! RNG. Instead it walks the recorded events, applies every delay and
//! firing to a fresh initial state through the same `advance`/`apply`
//! code the engine used, and cross-checks
//!
//! * every recorded time against the reconstructed model time (exactly —
//!   the JSON codec round-trips `f64` losslessly),
//! * every [`TraceEvent::Snapshot`] against the reconstructed locations
//!   and valuation (built through the same conversion, so agreement is
//!   bit-for-bit),
//! * the final [`TraceEvent::Verdict`] against the property semantics in
//!   the reconstructed end state (goal/hold windows, time bound, lock
//!   classification).
//!
//! Any divergence is a [`SimError::ReplayMismatch`] naming the offending
//! event index. A trace that replays cleanly is a machine-checked witness
//! of its verdict.

use crate::error::SimError;
use crate::property::TimedReach;
use crate::trace::{snapshot_event, TraceEvent, TRACE_FORMAT_VERSION};
use crate::verdict::Verdict;
use slim_automata::automaton::TransId;
use slim_automata::interval::IntervalSet;
use slim_automata::network::GlobalTransition;
use slim_automata::prelude::{NetState, Network};

/// Absolute tolerance for verdict-time checks that involve re-derived
/// interval endpoints (recorded times themselves are compared exactly).
const TIME_TOL: f64 = 1e-9;

/// Result of a successful replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The verified verdict.
    pub verdict: Verdict,
    /// Steps claimed by the trace's verdict event.
    pub steps: u64,
    /// Model time the path ended at.
    pub end_time: f64,
    /// Total events walked (including the header, if present).
    pub events_checked: usize,
    /// Snapshot events verified against the reconstructed state.
    pub snapshots_checked: usize,
}

fn mismatch(event: usize, detail: impl Into<String>) -> SimError {
    SimError::ReplayMismatch { event, detail: detail.into() }
}

/// Replays `events` against `net` under `property`.
///
/// The event list is one path's trace, with or without its
/// [`TraceEvent::Start`] header; [`TraceEvent::Decision`] events are
/// informational and skipped.
///
/// # Errors
/// [`SimError::ReplayMismatch`] on any divergence between the trace and
/// the model, [`SimError::Eval`] if the model itself fails to evaluate.
pub fn replay_events(
    net: &Network,
    property: &TimedReach,
    events: &[TraceEvent],
) -> Result<ReplayOutcome, SimError> {
    let mut state = net.initial_state().map_err(SimError::Eval)?;
    let mut snapshots_checked = 0usize;
    let mut verdict_seen: Option<(usize, Verdict, f64, u64)> = None;
    let mut max_step = 0u64;

    for (i, event) in events.iter().enumerate() {
        if verdict_seen.is_some() {
            return Err(mismatch(i, "events after the verdict"));
        }
        match event {
            TraceEvent::Start { format_version, .. } => {
                if i != 0 {
                    return Err(mismatch(i, "start header not at the beginning"));
                }
                if *format_version > TRACE_FORMAT_VERSION {
                    return Err(mismatch(
                        i,
                        format!(
                            "trace format v{format_version} is newer than supported \
                             v{TRACE_FORMAT_VERSION}"
                        ),
                    ));
                }
            }
            TraceEvent::Decision { step, .. } => max_step = max_step.max(*step),
            TraceEvent::Delay { step, at, duration } => {
                max_step = max_step.max(*step);
                if *at != state.time {
                    return Err(mismatch(
                        i,
                        format!("delay recorded at t={at} but replay is at t={}", state.time),
                    ));
                }
                if !duration.is_finite() || *duration < 0.0 {
                    return Err(mismatch(i, format!("invalid delay duration {duration}")));
                }
                state = net.advance(&state, *duration).map_err(|e| {
                    mismatch(i, format!("recorded delay {duration} is not admissible: {e}"))
                })?;
            }
            TraceEvent::Fire { step, at, action, parts, .. } => {
                max_step = max_step.max(*step);
                if *at != state.time {
                    return Err(mismatch(
                        i,
                        format!("firing recorded at t={at} but replay is at t={}", state.time),
                    ));
                }
                let gt = resolve_transition(net, action, parts).map_err(|d| mismatch(i, d))?;
                state = net.apply(&state, &gt).map_err(SimError::Eval)?;
            }
            TraceEvent::Snapshot { step, .. } => {
                max_step = max_step.max(*step);
                let expected = snapshot_event(net, *step, &state);
                if *event != expected {
                    return Err(mismatch(
                        i,
                        format!("snapshot diverged: recorded {event}, replayed {expected}"),
                    ));
                }
                snapshots_checked += 1;
            }
            TraceEvent::Verdict { verdict, at, steps } => {
                let v = Verdict::from_code(verdict)
                    .ok_or_else(|| mismatch(i, format!("unknown verdict code {verdict:?}")))?;
                verdict_seen = Some((i, v, *at, *steps));
            }
        }
    }

    let Some((i, verdict, at, steps)) = verdict_seen else {
        return Err(mismatch(events.len(), "trace has no verdict event"));
    };
    if max_step > steps {
        return Err(mismatch(
            i,
            format!("trace contains step {max_step} but the verdict claims {steps} steps"),
        ));
    }
    verify_verdict(net, property, &state, verdict, at).map_err(|d| mismatch(i, d))?;
    Ok(ReplayOutcome {
        verdict,
        steps,
        end_time: at,
        events_checked: events.len(),
        snapshots_checked,
    })
}

/// Resolves a recorded firing back into a [`GlobalTransition`] by name.
fn resolve_transition(
    net: &Network,
    action: &str,
    parts: &[(String, u64)],
) -> Result<GlobalTransition, String> {
    let action_id = net.action_id(action).ok_or_else(|| format!("unknown action {action:?}"))?;
    let mut resolved = Vec::with_capacity(parts.len());
    for (name, t) in parts {
        let p = net.proc_id(name).ok_or_else(|| format!("unknown automaton {name:?}"))?;
        let count = net.automata()[p.0].transitions.len();
        if *t as usize >= count {
            return Err(format!(
                "automaton {name:?} has {count} transitions, trace names index {t}"
            ));
        }
        resolved.push((p, TransId(*t as usize)));
    }
    Ok(GlobalTransition { action: action_id, parts: resolved })
}

/// Checks that `verdict` at time `at` follows from the property semantics
/// in the reconstructed end state (mirrors the engine's classification).
fn verify_verdict(
    net: &Network,
    property: &TimedReach,
    state: &NetState,
    verdict: Verdict,
    at: f64,
) -> Result<(), String> {
    let remaining = property.remaining(state);
    let goal_win = property.goal.window(net, state).map_err(|e| format!("goal window: {e}"))?;
    let viol_win = match &property.hold {
        None => IntervalSet::empty(),
        Some(h) => h.window(net, state).map_err(|e| format!("hold window: {e}"))?.complement(),
    };
    let first_in = |w: &IntervalSet, up_to: f64| w.truncate(up_to).inf();

    match verdict {
        Verdict::Satisfied => {
            let hit = first_in(&goal_win, remaining)
                .ok_or("recorded satisfied, but the goal is unreachable from the end state")?;
            if let Some(v) = first_in(&viol_win, remaining) {
                if v < hit - TIME_TOL {
                    return Err(format!(
                        "hold is violated at t={} before the goal at t={}",
                        state.time + v,
                        state.time + hit
                    ));
                }
            }
            let t = state.time + hit;
            if (t - at).abs() > TIME_TOL {
                return Err(format!("goal is first reached at t={t}, trace claims t={at}"));
            }
            Ok(())
        }
        Verdict::HoldViolated => {
            let v = first_in(&viol_win, remaining)
                .ok_or("recorded hold_violated, but hold never fails from the end state")?;
            if let Some(g) = first_in(&goal_win, remaining) {
                if g <= v + TIME_TOL {
                    return Err(format!(
                        "goal at t={} precedes the violation at t={}",
                        state.time + g,
                        state.time + v
                    ));
                }
            }
            let t = state.time + v;
            if (t - at).abs() > TIME_TOL {
                return Err(format!("hold first fails at t={t}, trace claims t={at}"));
            }
            Ok(())
        }
        Verdict::TimeBoundExceeded => {
            ensure_clear(&goal_win, &viol_win, remaining, state.time)?;
            if (at - property.bound).abs() > TIME_TOL {
                return Err(format!(
                    "time-bound verdict at t={at}, but the bound is {}",
                    property.bound
                ));
            }
            Ok(())
        }
        Verdict::Deadlock | Verdict::Timelock => {
            if at != state.time {
                return Err(format!("lock recorded at t={at}, replay is at t={}", state.time));
            }
            if !net.markovian_candidates(state).is_empty() {
                return Err("recorded a lock, but Markovian transitions are enabled".into());
            }
            let window = effective_window(net, state)?;
            let bounded = window.sup().is_none_or(f64::is_finite);
            let horizon = if bounded { window.sup().unwrap_or(0.0) } else { remaining };
            let expected = if bounded { Verdict::Timelock } else { Verdict::Deadlock };
            if verdict != expected {
                return Err(format!("end state classifies as {expected}, trace says {verdict}"));
            }
            ensure_clear(&goal_win, &viol_win, horizon.min(remaining), state.time)
        }
        Verdict::StepLimit => Ok(()),
    }
}

/// Goal and violation must not occur within the scanned prefix — the
/// engine would have ended the path earlier otherwise.
fn ensure_clear(
    goal_win: &IntervalSet,
    viol_win: &IntervalSet,
    up_to: f64,
    base: f64,
) -> Result<(), String> {
    if let Some(g) = goal_win.truncate(up_to).inf() {
        return Err(format!("goal is reachable at t={} within the scanned prefix", base + g));
    }
    if let Some(v) = viol_win.truncate(up_to).inf() {
        return Err(format!("hold fails at t={} within the scanned prefix", base + v));
    }
    Ok(())
}

/// The delay window the engine saw: invariants intersected, truncated at
/// the first instant an urgent candidate becomes enabled.
fn effective_window(net: &Network, state: &NetState) -> Result<IntervalSet, String> {
    let invariant = net.delay_window(state).map_err(|e| format!("delay window: {e}"))?;
    let raw = net.guarded_candidates(state).map_err(|e| format!("candidates: {e}"))?;
    let mut cutoff = f64::INFINITY;
    for c in &raw {
        if c.urgent {
            if let Some(inf) = c.window.intersect(&invariant).inf() {
                cutoff = cutoff.min(inf);
            }
        }
    }
    Ok(if cutoff.is_finite() { invariant.truncate(cutoff) } else { invariant })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PathGenerator;
    use crate::property::Goal;
    use crate::strategy::{Asap, MaxTime, Progressive, StrategyKind};
    use crate::trace::{MemorySink, PathTracer};
    use slim_automata::prelude::*;
    use slim_stats::rng::StdRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Clock-driven one-shot: fires between 2 and 4, sets `done`.
    fn window_net() -> (Network, TimedReach) {
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let done = b.var("done", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location_with("wait", Expr::var(x).le(Expr::real(4.0)), []);
        let l1 = a.location("done");
        let g = Expr::var(x).ge(Expr::real(2.0)).and(Expr::var(x).le(Expr::real(4.0)));
        a.guarded(l0, ActionId::TAU, g, [Effect::assign(done, Expr::bool(true))], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Expr::var(net.var_id("done").unwrap());
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        (net, prop)
    }

    fn record(
        net: &Network,
        prop: &TimedReach,
        strategy: &mut dyn crate::strategy::Strategy,
        seed: u64,
    ) -> Vec<TraceEvent> {
        let gen = PathGenerator::new(net, prop, 1000);
        let mut sink = MemorySink::default();
        {
            let mut tracer = PathTracer::new(net, &mut sink);
            let mut scratch = crate::engine::SimScratch::new();
            gen.generate_with(&mut scratch, strategy, &mut rng(seed), &mut tracer).unwrap();
        }
        sink.events
    }

    #[test]
    fn recorded_paths_replay_cleanly() {
        let (net, prop) = window_net();
        for seed in 0..5 {
            let events = record(&net, &prop, &mut Progressive, seed);
            let out = replay_events(&net, &prop, &events).unwrap();
            assert_eq!(out.verdict, Verdict::Satisfied);
            assert!(out.snapshots_checked > 0, "no snapshots verified");
        }
        // The boundary strategies and every builtin kind replay too.
        for kind in StrategyKind::ALL {
            let events = record(&net, &prop, kind.instantiate().as_mut(), 1);
            replay_events(&net, &prop, &events).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn replay_survives_json_roundtrip() {
        let (net, prop) = window_net();
        let events = record(&net, &prop, &mut MaxTime, 3);
        let text = crate::trace::events_to_json_lines(&events);
        let back = crate::trace::parse_trace(&text).unwrap();
        let out = replay_events(&net, &prop, &back).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert_eq!(out.events_checked, events.len());
    }

    #[test]
    fn tampered_snapshot_is_detected() {
        let (net, prop) = window_net();
        let mut events = record(&net, &prop, &mut Asap, 1);
        let pos = events
            .iter()
            .position(|e| matches!(e, TraceEvent::Snapshot { .. }))
            .expect("trace has a snapshot");
        if let TraceEvent::Snapshot { values, .. } = &mut events[pos] {
            values[0].1 = slim_obs::Json::Num(99.0);
        }
        let err = replay_events(&net, &prop, &events).unwrap_err();
        assert!(matches!(err, SimError::ReplayMismatch { event, .. } if event == pos), "{err}");
    }

    #[test]
    fn tampered_verdict_is_detected() {
        let (net, prop) = window_net();
        let mut events = record(&net, &prop, &mut Asap, 1);
        let last = events.len() - 1;
        if let TraceEvent::Verdict { verdict, .. } = &mut events[last] {
            *verdict = "deadlock".into();
        }
        assert!(matches!(
            replay_events(&net, &prop, &events),
            Err(SimError::ReplayMismatch { .. })
        ));
    }

    #[test]
    fn tampered_delay_time_is_detected() {
        let (net, prop) = window_net();
        let mut events = record(&net, &prop, &mut Asap, 1);
        let pos = events
            .iter()
            .position(|e| matches!(e, TraceEvent::Delay { .. }))
            .expect("trace has a delay");
        if let TraceEvent::Delay { duration, .. } = &mut events[pos] {
            *duration += 0.5;
        }
        assert!(matches!(
            replay_events(&net, &prop, &events),
            Err(SimError::ReplayMismatch { .. })
        ));
    }

    #[test]
    fn missing_verdict_is_rejected() {
        let (net, prop) = window_net();
        let mut events = record(&net, &prop, &mut Asap, 1);
        events.pop();
        assert!(matches!(
            replay_events(&net, &prop, &events),
            Err(SimError::ReplayMismatch { .. })
        ));
    }

    #[test]
    fn lock_verdicts_verify() {
        // Deadlock: single location, no transitions, no invariant.
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("p");
        a.location("sink");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::FALSE), 10.0);
        let events = record(&net, &prop, &mut Asap, 1);
        let out = replay_events(&net, &prop, &events).unwrap();
        assert_eq!(out.verdict, Verdict::Deadlock);

        // Timelock: invariant x <= 3, only transition needs x >= 5.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location_with("trap", Expr::var(x).le(Expr::real(3.0)), []);
        let l1 = a.location("free");
        a.guarded(l0, ActionId::TAU, Expr::var(x).ge(Expr::real(5.0)), [], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::FALSE), 10.0);
        let events = record(&net, &prop, &mut Asap, 1);
        let out = replay_events(&net, &prop, &events).unwrap();
        assert_eq!(out.verdict, Verdict::Timelock);
    }
}
