//! # slimsim-core
//!
//! A Monte Carlo simulator for timed reachability on SLIM/AADL models —
//! the core contribution of *"A Statistical Approach for Timed
//! Reachability in AADL Models"* (Bruintjes, Katoen, Lesens; DSN 2015),
//! reproduced in Rust.
//!
//! The simulator estimates `P(◇[0,u] goal)` on networks of event-data
//! automata with linear-hybrid dynamics, exponential fault rates and
//! event synchronization. Non-determinism (which transition, which delay)
//! is resolved by pluggable [`strategy::Strategy`] implementations — ASAP,
//! Progressive, Local, MaxTime and an interactive Input strategy — because
//! different resolutions yield different probability measures (§III-B).
//!
//! ## Quick start
//!
//! ```
//! use slim_automata::prelude::*;
//! use slimsim_core::prelude::*;
//!
//! // A component that fails with rate λ = 1 per time unit.
//! let mut b = NetworkBuilder::new();
//! let mut a = AutomatonBuilder::new("unit");
//! let ok = a.location("ok");
//! let failed = a.location("failed");
//! a.markovian(ok, 1.0, [], failed);
//! b.add_automaton(a);
//! let net = b.build()?;
//!
//! // P(◇[0,1] failed) = 1 − e⁻¹ ≈ 0.632.
//! let goal = Goal::in_location(&net, "unit", "failed").unwrap();
//! let property = TimedReach::new(goal, 1.0);
//! let config = SimConfig::default()
//!     .with_accuracy(slim_stats::Accuracy::new(0.05, 0.05)?);
//! let result = analyze(&net, &property, &config)?;
//! assert!((result.probability() - 0.632).abs() < 0.06);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod error;
pub mod obs;
pub mod preverdict;
pub mod property;
pub mod rare_event;
pub mod replay;
pub mod runner;
pub mod strategy;
pub mod trace;
pub mod verdict;
pub mod witness;

/// Convenient glob-import of the simulator API.
pub mod prelude {
    pub use crate::config::{DeadlockPolicy, SimConfig};
    pub use crate::engine::{
        BatchScratch, ImportanceBias, NoHooks, PathGenerator, PathHooks, SimScratch,
    };
    pub use crate::error::SimError;
    pub use crate::obs::{PathObserver, SimObserver, WorkerStat};
    pub use crate::preverdict::{goal_distance_targets, pre_verdict, pre_verdict_with, PreVerdict};
    pub use crate::property::{CompiledGoal, Goal, GoalPool, TimedReach};
    pub use crate::rare_event::{analyze_rare, RareEventConfig, RareEventResult};
    pub use crate::replay::{replay_events, ReplayOutcome};
    pub use crate::runner::{analyze, analyze_observed, analyze_profiled, AnalysisResult};
    pub use crate::strategy::{
        Asap, Decision, Input, InputChoice, InputOracle, Local, MaxTime, Progressive,
        ScheduledCandidate, ScriptedOracle, StepView, Strategy, StrategyKind, StrategyViews,
    };
    pub use crate::trace::{
        events_to_csv, events_to_json_lines, parse_trace, JsonLinesSink, MemorySink, PathTracer,
        RingBufferSink, TraceEvent, TraceOptions, TraceSink, TRACE_FORMAT_VERSION,
    };
    pub use crate::verdict::{PathOutcome, PathStats, Verdict};
    pub use crate::witness::{capture_witnesses, Witness, WitnessCategory, WitnessSelector};
}
