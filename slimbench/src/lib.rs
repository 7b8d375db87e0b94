//! `slimbench`, the benchmark of record for slimsim.
//!
//! It runs four workloads through the product crates' public
//! functions — Table I's simulator and CTMC columns, the §V launcher
//! under the four strategies, and a corpus of generated `.slim`
//! sources — one pass per child process, checks every answer, and
//! reduces the passes to end-to-end metrics. One extra traced pass per
//! workload records a span around each layer call and yields the
//! per-layer metrics. See `README.md` for the workloads, the metric
//! glossary, and how to compare two runs.

pub mod checks;
pub mod compare;
pub mod metrics;
pub mod trace;
pub mod workload;
