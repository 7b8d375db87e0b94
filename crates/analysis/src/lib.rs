//! Static pre-analysis of SLIM networks by abstract interpretation.
//!
//! A worklist fixpoint over the synchronized network computes, per
//! (process, location), an over-approximation of the reachable variable
//! valuations — interval environments for data variables, action-closed
//! propagation through sync vectors, guard/invariant refinement, and
//! widening for loops (see [`fixpoint`] for the construction and its
//! soundness argument).
//!
//! A clock-zone domain ([`zone`]) runs as a reduced product with the
//! interval store: canonical difference-bound matrices over the
//! network's clock variables plus a synthetic global-time clock, with
//! time elapse, guard/invariant intersection, reset on effect writes,
//! and k-bound extrapolation for termination.
//!
//! The fixpoint feeds four consumers:
//!
//! 1. **Property pre-verdicts** — `slimsim-core` short-circuits `analyze`
//!    with an exact `P = 0` when the goal is unreachable in the
//!    abstraction (zero samples drawn), including *timed*
//!    unreachability: the goal is location-reachable but the zone lower
//!    bound on elapsed time exceeds the property deadline;
//! 2. **Model pruning** — [`Fixpoint::prune_plan`] computes the
//!    transitions/locations `Network::prune` can strip with a
//!    byte-identical differential guarantee on live models, now
//!    including zone-dead guards;
//! 3. **Semantic lints** — `slim-lint`'s S1xx/S3xx passes consult the
//!    same fixpoint instead of re-deriving weaker syntactic facts
//!    (S302 zone-dead guards, S303 static timelocks);
//! 4. **Distance-to-goal maps** — per-location minimum transition
//!    counts and minimum elapsed times serialized in
//!    [`AnalysisSummary`], the seam rare-event splitting levels hang
//!    off of.
//!
//! Every verdict is conservative: `unreachable`/`dead` answers are
//! definite facts about all concrete runs; everything the abstraction
//! cannot decide stays "maybe".

#![forbid(unsafe_code)]

pub mod domain;
pub mod fixpoint;
pub mod summary;
pub mod zone;

pub use domain::{abs_eval, refine, AbsVal};
pub use fixpoint::{
    analyze_network, analyze_network_with, guard_total, AnalysisOptions, Fixpoint, FixpointWork,
    TransStatus,
};
pub use summary::AnalysisSummary;
pub use zone::Dbm;
