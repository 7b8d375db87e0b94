//! # slim-fuzz
//!
//! Seeded parametric SLIM model generator plus a differential soundness
//! harness for the whole `slimsim` pipeline: parse → lint → fixpoint →
//! prune → compile → simulate.
//!
//! The static layers added over the last PRs make *claims* the simulator
//! silently trusts: the abstract-interpretation fixpoint short-circuits
//! sampling with exact `P = 0`/`P = 1` pre-verdicts, `--prune` deletes
//! model structure it proves dead, and the compiled step tables replace
//! the legacy interpreter on the hot path. This crate holds those layers
//! to an adversarial standard by generating thousands of structurally
//! diverse models per run and differential-testing every claim:
//!
//! | Oracle | Checked claim |
//! |--------|---------------|
//! | [`OracleKind::RoundTrip`] | `parse(pretty(m)) == m` and `pretty` is a fixed point |
//! | [`OracleKind::Lint`] | front-end + network lints never panic, are deterministic, and the deny verdict matches the `analyze` pre-flight |
//! | [`OracleKind::Bytecode`] | `Network::compile()` output passes `verify_bytecode` |
//! | [`OracleKind::CompiledEquivalence`] | compiled step tables reproduce the legacy interpreter exactly on sampled prefixes |
//! | [`OracleKind::KernelEquivalence`] | the production kernel, scalar and batched at every lane width, reproduces the plain reference kernel's per-path outcomes bit for bit |
//! | [`OracleKind::FixpointSoundness`] | a `P = 0` pre-verdict is never contradicted by a simulated goal hit (and dually for `P = 1`) |
//! | [`OracleKind::PruneInvariance`] | `--prune` leaves estimates bit-identical at fixed `(seed, workers)` |
//!
//! Any failing model is minimized by the deterministic [`shrink`]er and
//! written (with its repro command) into a regression corpus that a normal
//! `cargo test` replays — see `docs/fuzzing.md`.
//!
//! ## Example
//!
//! ```
//! use slim_fuzz::{generate, run_oracles, GenParams, OracleConfig};
//!
//! let model = generate(42, 0, &GenParams::default());
//! let outcome = run_oracles(&model, &OracleConfig::quick());
//! assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
//! ```

#![forbid(unsafe_code)]

pub mod corpus;
pub mod generate;
pub mod oracle;
pub mod params;
pub mod runner;
pub mod sample;
pub mod shrink;

pub use corpus::{replay_corpus, write_corpus_entry, CorpusEntry};
pub use generate::{generate, GeneratedModel, GoalSpec};
pub use oracle::{run_oracles, OracleConfig, OracleFailure, OracleKind, OracleOutcome};
pub use params::GenParams;
pub use runner::{run_campaign, CampaignConfig, CampaignSummary};
pub use shrink::{shrink, ShrinkResult};
