//! # slim-automata
//!
//! The event-data automata substrate underlying the `slimsim` statistical
//! model checker — a Rust reproduction of the formal model of
//! *"A Statistical Approach for Timed Reachability in AADL Models"*
//! (Bruintjes, Katoen, Lesens; DSN 2015), §II-E.
//!
//! A specification is a [`network::Network`] of communicating processes
//! `P = (L, l₀, I, Tr, Var, A, T)`:
//!
//! * locations with Boolean **invariants** over clocks/continuous variables
//!   restricting residence time;
//! * per-location constant **derivatives** (linear-hybrid dynamics);
//! * discrete transitions with either a Boolean **guard** or an exponential
//!   **rate** (Markovian, τ-labeled, never synchronizing);
//! * CSP-style **synchronization** on shared action alphabets;
//! * **data flows** modeling AADL data-port connections.
//!
//! The crate is deliberately RNG-free: all non-determinism is *exposed* —
//! guarded candidates carry exact enabling [`interval::IntervalSet`]s, and
//! the delay window of a state is computed symbolically by the linear
//! solver in [`linear`] — so that the simulator crate can resolve it with
//! pluggable strategies.
//!
//! ## Example
//!
//! ```
//! use slim_automata::prelude::*;
//!
//! // A clock-guarded repair window [200, 300] as in the paper's Fig. 2.
//! let mut net = NetworkBuilder::new();
//! let c = net.var("c", VarType::Clock, Value::Real(0.0));
//! let mut a = AutomatonBuilder::new("gps_error");
//! let transient = a.location_with("transient", Expr::var(c).le(Expr::real(300.0)), []);
//! let ok = a.location("ok");
//! let guard = Expr::var(c).ge(Expr::real(200.0)).and(Expr::var(c).le(Expr::real(300.0)));
//! a.guarded(transient, ActionId::TAU, guard, [Effect::assign(c, Expr::real(0.0))], ok);
//! net.add_automaton(a);
//! let network = net.build()?;
//!
//! let s0 = network.initial_state()?;
//! let cands = network.guarded_candidates(&s0)?;
//! assert_eq!(cands.len(), 1);
//! assert!(cands[0].window.contains(250.0));
//! assert!(!cands[0].window.contains(150.0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod automaton;
pub mod compiled;
pub mod dot;
pub mod error;
pub mod eval;
pub mod expr;
pub mod flow;
pub mod interval;
pub mod linear;
pub mod network;
pub mod state;
pub mod validate;
pub mod value;

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::automaton::{
        ActionId, Automaton, Effect, GuardKind, LocId, Location, ProcId, TransId, Transition,
    };
    pub use crate::compiled::{
        profile_labels, profile_shape, BytecodeError, BytecodeReport, CandidateBuf, CompileOptions,
        CompiledPredicate, Delta, Firing, StepScratch, StepTables, PROFILE_OP_NAMES,
    };
    pub use crate::error::{EvalError, ModelError};
    pub use crate::eval::{eval, eval_bool, eval_real, Valuation};
    pub use crate::expr::{BinOp, Expr, VarId};
    pub use crate::interval::{Interval, IntervalSet};
    pub use crate::network::{
        AutomatonBuilder, GlobalTransition, GuardedCandidate, MarkovianCandidate, Network,
        NetworkBuilder,
    };
    pub use crate::state::NetState;
    pub use crate::value::{Value, VarType};
}
