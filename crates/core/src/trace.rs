//! Engine-side structured path tracing.
//!
//! The typed event vocabulary and the sinks live in `slim_obs::trace`
//! (re-exported here); this module adds the [`PathTracer`], a
//! [`PathHooks`] impl that turns id-based network steps into the
//! name-based [`TraceEvent`]s that trace files carry. Untraced paths run
//! on other hook types and never construct an event.

use crate::engine::PathHooks;
use crate::error::SimError;
use crate::strategy::{Decision, ScheduledCandidate};
use crate::verdict::PathOutcome;
use slim_automata::automaton::{ActionId, ProcId, TransId};
use slim_automata::prelude::{NetState, Network, Value};
use slim_obs::profile::ProfileHooks;
use slim_obs::Json;

pub use slim_obs::trace::{
    events_to_csv, events_to_json_lines, parse_trace, JsonLinesSink, MemorySink, RingBufferSink,
    TraceEvent, TraceSink, TRACE_FORMAT_VERSION,
};

/// What a [`PathTracer`] records beyond the always-on movement events
/// (delays, firings, verdict).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOptions {
    /// Record [`TraceEvent::Decision`] events with the candidate set the
    /// strategy considered.
    pub decisions: bool,
    /// Record a [`TraceEvent::Snapshot`] after every n-th step
    /// (`0` disables snapshots, `1` snapshots every step).
    pub snapshot_every: u64,
}

impl Default for TraceOptions {
    fn default() -> TraceOptions {
        TraceOptions { decisions: true, snapshot_every: 1 }
    }
}

/// Converts a network [`Value`] into its trace JSON form (booleans as
/// JSON bools, integers and reals as JSON numbers).
///
/// The replay verifier compares valuations through this same conversion,
/// so recorded and re-simulated values agree bit-for-bit whenever the
/// underlying `f64`s do.
pub fn value_to_json(v: Value) -> Json {
    match v {
        Value::Bool(b) => Json::Bool(b),
        Value::Int(i) => Json::Num(i as f64),
        Value::Real(r) => Json::Num(r),
    }
}

/// Renders one scheduled candidate as `action @ window` (the form the
/// interactive prompt and [`TraceEvent::Decision`] candidates share).
pub fn render_candidate(net: &Network, c: &ScheduledCandidate) -> String {
    format!("{} @ {}", net.actions()[c.transition.action.0].name, c.window)
}

/// Turns engine steps into structured [`TraceEvent`]s on a sink.
///
/// Created per path and passed as the hooks of
/// [`crate::engine::PathGenerator::generate_with`]; front-ends add
/// [`TraceEvent::Start`] headers via [`PathTracer::emit`].
pub struct PathTracer<'a> {
    net: &'a Network,
    sink: &'a mut dyn TraceSink,
    opts: TraceOptions,
}

impl std::fmt::Debug for PathTracer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathTracer").field("opts", &self.opts).finish_non_exhaustive()
    }
}

impl<'a> PathTracer<'a> {
    /// Creates a tracer with default options (decisions on, snapshot
    /// every step).
    pub fn new(net: &'a Network, sink: &'a mut dyn TraceSink) -> PathTracer<'a> {
        PathTracer::with_options(net, sink, TraceOptions::default())
    }

    /// Creates a tracer with explicit recording options.
    pub fn with_options(
        net: &'a Network,
        sink: &'a mut dyn TraceSink,
        opts: TraceOptions,
    ) -> PathTracer<'a> {
        PathTracer { net, sink, opts }
    }

    /// Forwards an already-built event (used for [`TraceEvent::Start`]
    /// headers, which carry run context the engine does not know).
    pub fn emit(&mut self, event: TraceEvent) {
        self.sink.record(event);
    }
}

impl ProfileHooks for PathTracer<'_> {
    const ENABLED: bool = false;
}

/// Tracing: strategy decisions (with their candidate sets), delays,
/// firings (with Markovian race rates), valuation snapshots per
/// [`TraceOptions`], and the final verdict of every successful path.
impl PathHooks for PathTracer<'_> {
    fn decision(
        &mut self,
        step: u64,
        state: &NetState,
        decision: &Decision,
        candidates: &[ScheduledCandidate],
    ) {
        if !self.opts.decisions {
            return;
        }
        let rendered = candidates.iter().map(|c| render_candidate(self.net, c)).collect();
        let (kind, chosen, delay) = match decision {
            Decision::Fire { delay, candidate } => ("fire", Some(*candidate as u64), Some(*delay)),
            Decision::Wait { delay } => ("wait", None, Some(*delay)),
            Decision::Stuck => ("stuck", None, None),
            Decision::Abort => ("abort", None, None),
        };
        self.sink.record(TraceEvent::Decision {
            step,
            at: state.time,
            kind: kind.to_string(),
            candidates: rendered,
            chosen,
            delay,
        });
    }

    fn delay(&mut self, step: u64, state: &NetState, duration: f64) {
        self.sink.record(TraceEvent::Delay { step, at: state.time, duration });
    }

    fn fire(
        &mut self,
        step: u64,
        state: &NetState,
        action: ActionId,
        parts: &[(ProcId, TransId)],
        race: Option<(f64, f64)>,
    ) {
        self.sink.record(TraceEvent::Fire {
            step,
            at: state.time,
            action: self.net.actions()[action.0].name.clone(),
            markovian: race.is_some(),
            rate: race.map(|(rate, _)| rate),
            rate_total: race.map(|(_, total)| total),
            parts: parts
                .iter()
                .map(|&(p, t)| (self.net.automata()[p.0].name.clone(), t.0 as u64))
                .collect(),
        });
    }

    fn snapshot(&mut self, step: u64, state: &NetState) {
        let every = self.opts.snapshot_every;
        if every == 0 || !step.is_multiple_of(every) {
            return;
        }
        self.sink.record(snapshot_event(self.net, step, state));
    }

    fn path_end(&mut self, result: &Result<PathOutcome, SimError>, _weight: f64) {
        if let Ok(outcome) = result {
            self.sink.record(TraceEvent::Verdict {
                verdict: outcome.verdict.code().to_string(),
                at: outcome.end_time,
                steps: outcome.steps,
            });
        }
    }
}

/// Builds a [`TraceEvent::Snapshot`] of `state` (locations in automaton
/// order, variables in declaration order). Shared with the replay
/// verifier, which re-derives snapshots through the same code path.
pub fn snapshot_event(net: &Network, step: u64, state: &NetState) -> TraceEvent {
    TraceEvent::Snapshot {
        step,
        at: state.time,
        locations: state
            .locs
            .iter()
            .enumerate()
            .map(|(p, &l)| net.automata()[p].locations[l.0].name.clone())
            .collect(),
        values: state
            .nu
            .iter()
            .map(|(v, val)| (net.name_of(v).to_string(), value_to_json(val)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversion_covers_all_variants() {
        assert_eq!(value_to_json(Value::Bool(true)), Json::Bool(true));
        assert_eq!(value_to_json(Value::Int(-3)), Json::Num(-3.0));
        assert_eq!(value_to_json(Value::Real(2.5)), Json::Num(2.5));
    }

    #[test]
    fn default_options_record_everything() {
        let o = TraceOptions::default();
        assert!(o.decisions);
        assert_eq!(o.snapshot_every, 1);
    }
}
