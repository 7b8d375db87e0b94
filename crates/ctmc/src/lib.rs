//! # slim-ctmc
//!
//! The CTMC baseline pipeline of the `slimsim` reproduction — the Rust
//! stand-in for the COMPASS analysis chain of §IV of *"A Statistical
//! Approach for Timed Reachability in AADL Models"* (DSN 2015):
//!
//! | COMPASS step | Here |
//! |--------------|------|
//! | NuSMV BDD reachability | [`explore()`](explore::explore) — explicit state-space exploration |
//! | (IMC closure) | [`eliminate()`](eliminate::eliminate) — vanishing-state elimination |
//! | sigref weak bisimulation | [`lumping`] — ordinary-lumpability refinement |
//! | MRMC CSL checking | [`transient`] — uniformization transient analysis |
//!
//! The pipeline handles **untimed** (discrete-data, Markovian) models only,
//! exactly like the original tool chain; timed models are the simulator's
//! domain.
//!
//! ```
//! use slim_automata::prelude::*;
//! use slim_ctmc::analysis::{check_timed_reachability, PipelineConfig};
//!
//! let mut b = NetworkBuilder::new();
//! let mut a = AutomatonBuilder::new("m");
//! let ok = a.location("ok");
//! let failed = a.location("failed");
//! a.markovian(ok, 1.0, [], failed);
//! b.add_automaton(a);
//! let net = b.build()?;
//!
//! let goal = |s: &NetState| Ok(s.locs[0] == LocId(1));
//! let r = check_timed_reachability(&net, &goal, 1.0, &PipelineConfig::default())?;
//! assert!((r.probability - (1.0 - (-1.0f64).exp())).abs() < 1e-8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod accumulate;
pub mod analysis;
pub mod ctmc;
pub mod eliminate;
pub mod error;
pub mod explore;
pub mod foxglynn;
pub mod imc;
pub mod lumping;
pub mod transient;

pub use analysis::{check_timed_reachability, PipelineConfig, PipelineResult};
pub use ctmc::Ctmc;
pub use eliminate::eliminate;
pub use error::CtmcError;
pub use explore::{explore, ExploreConfig, Explored};
pub use imc::{Imc, ImcState};
pub use lumping::{lump, Lumped};
pub use transient::{timed_reachability, transient_distribution, TransientConfig};
