//! Kernel profiler: bytecode heat maps and phase attribution.
//!
//! Two complementary instruments live here:
//!
//! * [`KernelProfile`] — fixed-size, id-indexed execution counters for
//!   the compiled simulation kernel: per-opcode execution counts, opcode
//!   *digram* counts (the direct input for superinstruction fusion
//!   candidate mining), per-guard evaluation/enabled counts,
//!   per-transition firing counts, per-(process, location) occupancy
//!   step counts, delay-window solve counts, and batch-lane utilization
//!   histograms. Every counter is a plain `u64` updated without
//!   synchronization; cross-worker aggregation is a [`KernelProfile::merge`]
//!   of per-worker profiles with *wrapping* addition in worker-index
//!   order, which makes the merged profile exactly reproducible for a
//!   fixed `(seed, workers)` pair — and, with a worker-invariant path
//!   partition, for a fixed seed at *any* worker count.
//! * [`PhaseProfiler`] — a hierarchical wall-clock span tree
//!   (compile/fixpoint/sampling/estimation breakdown). Wall times are
//!   intentionally kept out of the deterministic [`ProfileReport`] JSON;
//!   the phase tree only appears in the human-readable text rendering.
//!
//! The kernel hooks are the [`ProfileHooks`] trait. The engine and the
//! compiled step tables are generic over it; the [`NoopProfile`]
//! instantiation has `ENABLED == false` and empty inline methods, so the
//! profiling-off build monomorphizes to exactly the un-instrumented
//! code — zero steady-state allocations and no measurable overhead.
//!
//! See `docs/profiling.md` for counter semantics and the determinism
//! contract.

use std::time::{Duration, Instant};

use crate::json::Json;

/// Schema version written into every [`ProfileReport`].
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// Discriminator value of the report's `kind` member, used by
/// `slimsim report` to tell a profile document from a run report.
pub const PROFILE_KIND: &str = "kernel-profile";

/// Compile-time profiling hooks threaded through the simulation kernel.
///
/// All methods default to empty bodies so a hook type only implements
/// what it measures. `ENABLED` lets call sites guard loops that would
/// otherwise cost something even when every hook inlines to nothing
/// (e.g. the per-process location-occupancy sweep).
pub trait ProfileHooks {
    /// Whether this instantiation records per-step kernel counters. When
    /// `false` the kernel skips hook-only loops entirely.
    const ENABLED: bool;

    /// A bytecode program is about to run; resets digram tracking so
    /// opcode pairs never span two programs.
    #[inline]
    fn eval_begin(&mut self) {}

    /// One opcode (index into the unified opcode name table) executed.
    #[inline]
    fn eval_op(&mut self, op: usize) {
        let _ = op;
    }

    /// A guard was evaluated for transition `trans` of process `proc`;
    /// `enabled` is whether the guard admitted at least one delay.
    #[inline]
    fn guard_eval(&mut self, proc: usize, trans: usize, enabled: bool) {
        let _ = (proc, trans, enabled);
    }

    /// Data flow `flow` (index in the network's flow list) was
    /// re-evaluated.
    #[inline]
    fn flow_eval(&mut self, flow: usize) {
        let _ = flow;
    }

    /// Transition `trans` of process `proc` fired.
    #[inline]
    fn fired(&mut self, proc: usize, trans: usize) {
        let _ = (proc, trans);
    }

    /// Process `proc` took a simulation step while residing in
    /// location `loc`.
    #[inline]
    fn loc_step(&mut self, proc: usize, loc: usize) {
        let _ = (proc, loc);
    }

    /// One delay-window (invariant) solve was performed.
    #[inline]
    fn delay_solve(&mut self) {}

    /// A batched sweep finished; `lane_steps` holds the number of steps
    /// each lane executed before its path completed, sorted descending.
    #[inline]
    fn batch(&mut self, lane_steps: &[u64]) {
        let _ = lane_steps;
    }
}

/// The profiling-off instantiation: every hook is an empty inline
/// function and `ENABLED` is `false`, so generic kernel code
/// monomorphizes to the un-instrumented machine code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProfile;

impl ProfileHooks for NoopProfile {
    const ENABLED: bool = false;
}

/// Index layout for a network's [`KernelProfile`]: how many unified
/// opcodes exist and how per-process transition/location ids flatten
/// into dense arrays.
///
/// `trans_offsets`/`loc_offsets` have one entry per process plus a final
/// total, so process `p`'s transition `t` lands at
/// `trans_offsets[p] + t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileShape {
    /// Size of the unified opcode name table.
    pub n_ops: usize,
    /// Prefix sums of per-process transition counts (`len = procs + 1`).
    pub trans_offsets: Vec<usize>,
    /// Prefix sums of per-process location counts (`len = procs + 1`).
    pub loc_offsets: Vec<usize>,
}

impl ProfileShape {
    /// Total flattened transition count.
    pub fn n_trans(&self) -> usize {
        self.trans_offsets.last().copied().unwrap_or(0)
    }

    /// Total flattened location count.
    pub fn n_locs(&self) -> usize {
        self.loc_offsets.last().copied().unwrap_or(0)
    }
}

const NO_PREV_OP: usize = usize::MAX;

/// Fixed-size, id-indexed execution counters for the compiled kernel.
///
/// Construct one per worker with [`KernelProfile::new`], thread it
/// through the engine as the [`ProfileHooks`] instantiation, then
/// [`KernelProfile::merge`] the workers' profiles in worker-index order.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    shape: ProfileShape,
    /// Execution count per unified opcode.
    ops: Vec<u64>,
    /// Execution count per ordered opcode pair, `prev * n_ops + next`.
    digrams: Vec<u64>,
    /// Previous opcode within the current program (digram state).
    prev_op: usize,
    /// Guard evaluations per flattened (process, transition).
    guard_evals: Vec<u64>,
    /// Guard evaluations that admitted a delay, same indexing.
    guard_true: Vec<u64>,
    /// Firings per flattened (process, transition).
    trans_fired: Vec<u64>,
    /// Steps taken per flattened (process, location) of residence.
    loc_steps: Vec<u64>,
    /// Delay-window (invariant) solves.
    delay_solves: u64,
    /// Steps executed with exactly `i` lanes still active (`lane_hist[i]`,
    /// index 0 unused).
    lane_hist: Vec<u64>,
    /// Batched sweeps that covered a single lane (scalar drains).
    scalar_drains: u64,
    /// Batched sweeps recorded.
    batches: u64,
}

impl KernelProfile {
    /// Creates a zeroed profile for the given shape.
    pub fn new(shape: ProfileShape) -> KernelProfile {
        let n_ops = shape.n_ops;
        let n_trans = shape.n_trans();
        let n_locs = shape.n_locs();
        KernelProfile {
            shape,
            ops: vec![0; n_ops],
            digrams: vec![0; n_ops * n_ops],
            prev_op: NO_PREV_OP,
            guard_evals: vec![0; n_trans],
            guard_true: vec![0; n_trans],
            trans_fired: vec![0; n_trans],
            loc_steps: vec![0; n_locs],
            delay_solves: 0,
            lane_hist: Vec::new(),
            scalar_drains: 0,
            batches: 0,
        }
    }

    /// The shape this profile was built for.
    pub fn shape(&self) -> &ProfileShape {
        &self.shape
    }

    /// Total opcode executions recorded.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    }

    /// Execution counts per unified opcode.
    pub fn op_counts(&self) -> &[u64] {
        &self.ops
    }

    /// Digram counts (`prev * n_ops + next` indexing).
    pub fn digram_counts(&self) -> &[u64] {
        &self.digrams
    }

    /// Guard (evals, enabled) for a flattened transition index.
    pub fn guard_counts(&self, flat: usize) -> (u64, u64) {
        (self.guard_evals[flat], self.guard_true[flat])
    }

    /// Firing count for a flattened transition index.
    pub fn fired_count(&self, flat: usize) -> u64 {
        self.trans_fired[flat]
    }

    /// Residence step count for a flattened location index.
    pub fn loc_step_count(&self, flat: usize) -> u64 {
        self.loc_steps[flat]
    }

    /// Delay-window solve count.
    pub fn delay_solve_count(&self) -> u64 {
        self.delay_solves
    }

    /// `(batches, scalar_drains, lane_hist)` of the batch-lane counters.
    pub fn batch_counts(&self) -> (u64, u64, &[u64]) {
        (self.batches, self.scalar_drains, &self.lane_hist)
    }

    /// Folds `other` into `self` with wrapping element-wise addition.
    /// Call in worker-index order to keep merged profiles deterministic.
    ///
    /// # Panics
    /// When the two profiles were built for different shapes.
    pub fn merge(&mut self, other: &KernelProfile) {
        assert_eq!(self.shape, other.shape, "cannot merge profiles of different models");
        let add = |dst: &mut [u64], src: &[u64]| {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = d.wrapping_add(*s);
            }
        };
        add(&mut self.ops, &other.ops);
        add(&mut self.digrams, &other.digrams);
        add(&mut self.guard_evals, &other.guard_evals);
        add(&mut self.guard_true, &other.guard_true);
        add(&mut self.trans_fired, &other.trans_fired);
        add(&mut self.loc_steps, &other.loc_steps);
        self.delay_solves = self.delay_solves.wrapping_add(other.delay_solves);
        if self.lane_hist.len() < other.lane_hist.len() {
            self.lane_hist.resize(other.lane_hist.len(), 0);
        }
        add(&mut self.lane_hist, &other.lane_hist);
        self.scalar_drains = self.scalar_drains.wrapping_add(other.scalar_drains);
        self.batches = self.batches.wrapping_add(other.batches);
    }
}

impl ProfileHooks for KernelProfile {
    const ENABLED: bool = true;

    #[inline]
    fn eval_begin(&mut self) {
        self.prev_op = NO_PREV_OP;
    }

    #[inline]
    fn eval_op(&mut self, op: usize) {
        self.ops[op] = self.ops[op].wrapping_add(1);
        if self.prev_op != NO_PREV_OP {
            let cell = self.prev_op * self.shape.n_ops + op;
            self.digrams[cell] = self.digrams[cell].wrapping_add(1);
        }
        self.prev_op = op;
    }

    #[inline]
    fn guard_eval(&mut self, proc: usize, trans: usize, enabled: bool) {
        let flat = self.shape.trans_offsets[proc] + trans;
        self.guard_evals[flat] = self.guard_evals[flat].wrapping_add(1);
        self.guard_true[flat] = self.guard_true[flat].wrapping_add(enabled as u64);
    }

    #[inline]
    fn fired(&mut self, proc: usize, trans: usize) {
        let flat = self.shape.trans_offsets[proc] + trans;
        self.trans_fired[flat] = self.trans_fired[flat].wrapping_add(1);
    }

    #[inline]
    fn loc_step(&mut self, proc: usize, loc: usize) {
        let flat = self.shape.loc_offsets[proc] + loc;
        self.loc_steps[flat] = self.loc_steps[flat].wrapping_add(1);
    }

    #[inline]
    fn delay_solve(&mut self) {
        self.delay_solves = self.delay_solves.wrapping_add(1);
    }

    fn batch(&mut self, lane_steps: &[u64]) {
        self.batches = self.batches.wrapping_add(1);
        if lane_steps.len() == 1 {
            self.scalar_drains = self.scalar_drains.wrapping_add(1);
        }
        if self.lane_hist.len() < lane_steps.len() + 1 {
            self.lane_hist.resize(lane_steps.len() + 1, 0);
        }
        // Lanes sorted by steps descending: exactly `j + 1` lanes were
        // still active for the steps between rank j's count and rank
        // j+1's count.
        for (j, &hi) in lane_steps.iter().enumerate() {
            let lo = lane_steps.get(j + 1).copied().unwrap_or(0);
            self.lane_hist[j + 1] = self.lane_hist[j + 1].wrapping_add(hi - lo);
        }
    }
}

/// Hierarchical wall-clock span tree for phase attribution.
///
/// Spans nest: `begin`/`end` pairs open and close children of the
/// currently open span; re-entering a name under the same parent
/// accumulates into the existing node. [`PhaseProfiler::record`] grafts
/// an externally measured duration as a child of the open span, which is
/// how the engine's existing phase clock feeds the tree.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    names: Vec<String>,
    totals: Vec<Duration>,
    parents: Vec<Option<usize>>,
    /// Stack of (node index, start instant) for open spans.
    open: Vec<(usize, Instant)>,
}

impl PhaseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> PhaseProfiler {
        PhaseProfiler::default()
    }

    fn node(&mut self, name: &str) -> usize {
        let parent = self.open.last().map(|(i, _)| *i);
        if let Some(i) =
            (0..self.names.len()).find(|&i| self.parents[i] == parent && self.names[i] == name)
        {
            return i;
        }
        self.names.push(name.to_string());
        self.totals.push(Duration::ZERO);
        self.parents.push(parent);
        self.names.len() - 1
    }

    /// Opens a span named `name` under the currently open span.
    pub fn begin(&mut self, name: &str) {
        let i = self.node(name);
        self.open.push((i, Instant::now()));
    }

    /// Closes the innermost open span, accumulating its elapsed time.
    ///
    /// # Panics
    /// When no span is open.
    pub fn end(&mut self) {
        let (i, start) = self.open.pop().expect("PhaseProfiler::end without begin");
        self.totals[i] += start.elapsed();
    }

    /// Times `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Grafts an externally measured duration as a child of the open
    /// span (or as a root when none is open).
    pub fn record(&mut self, name: &str, d: Duration) {
        let i = self.node(name);
        self.totals[i] += d;
    }

    /// Flat view of the recorded spans: `(depth, name, total)`, in tree
    /// (preorder) order.
    pub fn spans(&self) -> Vec<(usize, &str, Duration)> {
        let mut out = Vec::with_capacity(self.names.len());
        fn walk<'a>(
            p: &'a PhaseProfiler,
            parent: Option<usize>,
            depth: usize,
            out: &mut Vec<(usize, &'a str, Duration)>,
        ) {
            for i in 0..p.names.len() {
                if p.parents[i] == parent {
                    out.push((depth, p.names[i].as_str(), p.totals[i]));
                    walk(p, Some(i), depth + 1, out);
                }
            }
        }
        walk(self, None, 0, &mut out);
        out
    }

    /// Renders the span tree as indented text with per-span share of the
    /// parent's time.
    pub fn render(&self) -> String {
        let spans = self.spans();
        let root_total: f64 =
            spans.iter().filter(|(d, _, _)| *d == 0).map(|(_, _, t)| t.as_secs_f64()).sum();
        let mut parents = vec![root_total];
        let mut out = String::new();
        for (depth, name, total) in spans {
            parents.truncate(depth + 1);
            let parent_total = parents[depth];
            let secs = total.as_secs_f64();
            let pct = if parent_total > 0.0 { 100.0 * secs / parent_total } else { 0.0 };
            out.push_str(&format!(
                "{:indent$}{name:<24} {:>10.3} ms {pct:>5.1}%\n",
                "",
                secs * 1e3,
                indent = depth * 2
            ));
            parents.push(secs);
        }
        out
    }
}

/// One labeled counter in a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Human-readable label (opcode name, digram, or location).
    pub label: String,
    /// Execution count.
    pub count: u64,
}

/// One guard's evaluation statistics in a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardEntry {
    /// Structural label, e.g. `proc: idle -> busy`.
    pub label: String,
    /// `file:line:col` source span when the model came from a `.slim`
    /// file; `None` for built-in or synthesized transitions.
    pub span: Option<String>,
    /// How many times the guard was evaluated.
    pub evals: u64,
    /// How many evaluations admitted at least one delay.
    pub enabled: u64,
}

/// One transition's firing count in a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionEntry {
    /// Structural label, e.g. `proc: idle -> busy`.
    pub label: String,
    /// Source span, when known (see [`GuardEntry::span`]).
    pub span: Option<String>,
    /// Firing count.
    pub fired: u64,
}

/// Labels used to turn a [`KernelProfile`]'s dense counters into a
/// readable [`ProfileReport`]. All vectors align with the profile's
/// [`ProfileShape`] flattened indices.
#[derive(Debug, Clone, Default)]
pub struct ProfileLabels {
    /// Unified opcode names, indexed by opcode id.
    pub op_names: Vec<String>,
    /// Per flattened transition: structural label and optional span.
    pub transitions: Vec<(String, Option<String>)>,
    /// Per flattened location: structural label.
    pub locations: Vec<String>,
}

/// A versioned, deterministic profile document.
///
/// Everything in here is a function of `(model, seed)` alone — wall
/// times, worker counts and host facts are deliberately excluded so the
/// serialized report is byte-identical across worker counts and hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Schema version ([`PROFILE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Model name (builtin name or file path).
    pub model: String,
    /// RNG seed of the profiled run.
    pub seed: u64,
    /// Paths simulated.
    pub samples: u64,
    /// Total opcode executions.
    pub total_ops: u64,
    /// Per-opcode execution counts, hottest first (zero counts dropped).
    pub ops: Vec<ProfileEntry>,
    /// Opcode digram counts ranked as superinstruction fusion
    /// candidates, hottest first (zero counts dropped).
    pub digrams: Vec<ProfileEntry>,
    /// Per-guard evaluation statistics, most-evaluated first.
    pub guards: Vec<GuardEntry>,
    /// Per-transition firing counts, most-fired first.
    pub transitions: Vec<TransitionEntry>,
    /// Per-(process, location) residence step counts, hottest first.
    pub locations: Vec<ProfileEntry>,
    /// Delay-window (invariant) solves.
    pub delay_solves: u64,
    /// Batched sweeps executed.
    pub batches: u64,
    /// Batched sweeps that covered a single lane.
    pub scalar_drains: u64,
    /// `(active_lanes, steps)` pairs: how many kernel steps ran with
    /// exactly that many lanes active, ascending by lane count.
    pub lane_occupancy: Vec<(u64, u64)>,
}

impl ProfileReport {
    /// Builds the report from a merged kernel profile and its labels.
    ///
    /// Entries are sorted by count descending, then label ascending;
    /// zero-count entries are dropped. Guards keep ties stable the same
    /// way on their evaluation counts.
    pub fn from_profile(
        profile: &KernelProfile,
        labels: &ProfileLabels,
        model: &str,
        seed: u64,
        samples: u64,
    ) -> ProfileReport {
        let shape = profile.shape();
        let n_ops = shape.n_ops;
        let mut ops = Vec::new();
        for (i, &count) in profile.op_counts().iter().enumerate() {
            if count > 0 {
                ops.push(ProfileEntry { label: labels.op_names[i].clone(), count });
            }
        }
        sort_entries(&mut ops);
        let mut digrams = Vec::new();
        for (cell, &count) in profile.digram_counts().iter().enumerate() {
            if count > 0 {
                let (a, b) = (cell / n_ops, cell % n_ops);
                digrams.push(ProfileEntry {
                    label: format!("{} -> {}", labels.op_names[a], labels.op_names[b]),
                    count,
                });
            }
        }
        sort_entries(&mut digrams);
        let mut guards = Vec::new();
        let mut transitions = Vec::new();
        for (flat, (label, span)) in labels.transitions.iter().enumerate() {
            let (evals, enabled) = profile.guard_counts(flat);
            if evals > 0 {
                guards.push(GuardEntry {
                    label: label.clone(),
                    span: span.clone(),
                    evals,
                    enabled,
                });
            }
            let fired = profile.fired_count(flat);
            if fired > 0 {
                transitions.push(TransitionEntry {
                    label: label.clone(),
                    span: span.clone(),
                    fired,
                });
            }
        }
        guards.sort_by(|a, b| b.evals.cmp(&a.evals).then_with(|| a.label.cmp(&b.label)));
        transitions.sort_by(|a, b| b.fired.cmp(&a.fired).then_with(|| a.label.cmp(&b.label)));
        let mut locations = Vec::new();
        for (flat, label) in labels.locations.iter().enumerate() {
            let count = profile.loc_step_count(flat);
            if count > 0 {
                locations.push(ProfileEntry { label: label.clone(), count });
            }
        }
        sort_entries(&mut locations);
        let (batches, scalar_drains, lane_hist) = profile.batch_counts();
        let lane_occupancy = lane_hist
            .iter()
            .enumerate()
            .filter(|&(lanes, &steps)| lanes > 0 && steps > 0)
            .map(|(lanes, &steps)| (lanes as u64, steps))
            .collect();
        ProfileReport {
            schema_version: PROFILE_SCHEMA_VERSION,
            model: model.to_string(),
            seed,
            samples,
            total_ops: profile.total_ops(),
            ops,
            digrams,
            guards,
            transitions,
            locations,
            delay_solves: profile.delay_solve_count(),
            batches,
            scalar_drains,
            lane_occupancy,
        }
    }

    /// Serializes the report to its JSON document.
    pub fn to_json(&self) -> Json {
        let entries = |v: &[ProfileEntry]| {
            Json::Arr(
                v.iter()
                    .map(|e| {
                        Json::obj([
                            ("label", Json::str(&e.label)),
                            ("count", Json::Num(e.count as f64)),
                        ])
                    })
                    .collect(),
            )
        };
        let span = |s: &Option<String>| s.as_deref().map(Json::str).unwrap_or(Json::Null);
        Json::obj([
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("kind", Json::str(PROFILE_KIND)),
            ("model", Json::str(&self.model)),
            ("seed", Json::Num(self.seed as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("total_ops", Json::Num(self.total_ops as f64)),
            ("ops", entries(&self.ops)),
            ("digrams", entries(&self.digrams)),
            (
                "guards",
                Json::Arr(
                    self.guards
                        .iter()
                        .map(|g| {
                            Json::obj([
                                ("label", Json::str(&g.label)),
                                ("span", span(&g.span)),
                                ("evals", Json::Num(g.evals as f64)),
                                ("enabled", Json::Num(g.enabled as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "transitions",
                Json::Arr(
                    self.transitions
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("label", Json::str(&t.label)),
                                ("span", span(&t.span)),
                                ("fired", Json::Num(t.fired as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("locations", entries(&self.locations)),
            ("delay_solves", Json::Num(self.delay_solves as f64)),
            ("batches", Json::Num(self.batches as f64)),
            ("scalar_drains", Json::Num(self.scalar_drains as f64)),
            (
                "lane_occupancy",
                Json::Arr(
                    self.lane_occupancy
                        .iter()
                        .map(|&(lanes, steps)| {
                            Json::obj([
                                ("lanes", Json::Num(lanes as f64)),
                                ("steps", Json::Num(steps as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a report from its JSON document.
    ///
    /// # Errors
    /// A message naming the first missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<ProfileReport, String> {
        let kind = req_str(v, "kind", "profile")?;
        if kind != PROFILE_KIND {
            return Err(format!("profile: `kind` is `{kind}`, expected `{PROFILE_KIND}`"));
        }
        let entries = |key: &str| -> Result<Vec<ProfileEntry>, String> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("profile: missing array `{key}`"))?
                .iter()
                .map(|e| {
                    Ok(ProfileEntry {
                        label: req_str(e, "label", key)?,
                        count: req_u64(e, "count", key)?,
                    })
                })
                .collect()
        };
        let opt_span = |e: &Json, ctx: &str| -> Result<Option<String>, String> {
            match e.get("span") {
                None | Some(Json::Null) => Ok(None),
                Some(s) => Ok(Some(
                    s.as_str()
                        .map(str::to_string)
                        .ok_or(format!("{ctx}: `span` must be string or null"))?,
                )),
            }
        };
        Ok(ProfileReport {
            schema_version: req_u64(v, "schema_version", "profile")?,
            model: req_str(v, "model", "profile")?,
            seed: req_u64(v, "seed", "profile")?,
            samples: req_u64(v, "samples", "profile")?,
            total_ops: req_u64(v, "total_ops", "profile")?,
            ops: entries("ops")?,
            digrams: entries("digrams")?,
            guards: v
                .get("guards")
                .and_then(Json::as_arr)
                .ok_or("profile: missing array `guards`")?
                .iter()
                .map(|g| {
                    Ok(GuardEntry {
                        label: req_str(g, "label", "guards")?,
                        span: opt_span(g, "guards")?,
                        evals: req_u64(g, "evals", "guards")?,
                        enabled: req_u64(g, "enabled", "guards")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            transitions: v
                .get("transitions")
                .and_then(Json::as_arr)
                .ok_or("profile: missing array `transitions`")?
                .iter()
                .map(|t| {
                    Ok(TransitionEntry {
                        label: req_str(t, "label", "transitions")?,
                        span: opt_span(t, "transitions")?,
                        fired: req_u64(t, "fired", "transitions")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            locations: entries("locations")?,
            delay_solves: req_u64(v, "delay_solves", "profile")?,
            batches: req_u64(v, "batches", "profile")?,
            scalar_drains: req_u64(v, "scalar_drains", "profile")?,
            lane_occupancy: v
                .get("lane_occupancy")
                .and_then(Json::as_arr)
                .ok_or("profile: missing array `lane_occupancy`")?
                .iter()
                .map(|l| {
                    Ok((
                        req_u64(l, "lanes", "lane_occupancy")?,
                        req_u64(l, "steps", "lane_occupancy")?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?,
        })
    }

    /// Structural validation: returns all problems found (empty when
    /// the report is internally consistent).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.schema_version == 0 || self.schema_version > PROFILE_SCHEMA_VERSION {
            problems.push(format!(
                "schema_version is {} but this tool expects 1..={PROFILE_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        let op_sum = self.ops.iter().fold(0u64, |a, e| a.wrapping_add(e.count));
        if op_sum != self.total_ops {
            problems.push(format!("op counts sum to {op_sum} but total_ops is {}", self.total_ops));
        }
        for g in &self.guards {
            if g.enabled > g.evals {
                problems.push(format!(
                    "guard `{}` enabled count {} exceeds eval count {}",
                    g.label, g.enabled, g.evals
                ));
            }
        }
        if self.scalar_drains > self.batches {
            problems.push(format!(
                "scalar_drains ({}) exceeds batches ({})",
                self.scalar_drains, self.batches
            ));
        }
        for w in self.lane_occupancy.windows(2) {
            if w[1].0 <= w[0].0 {
                problems.push("lane_occupancy lane counts not strictly increasing".to_string());
                break;
            }
        }
        for (section, sorted) in [
            ("ops", is_sorted(&self.ops)),
            ("digrams", is_sorted(&self.digrams)),
            ("locations", is_sorted(&self.locations)),
        ] {
            if !sorted {
                problems.push(format!("`{section}` not sorted by count descending"));
            }
        }
        problems
    }

    /// Renders the heat-map text view: top-K opcodes and digrams,
    /// hottest guards and locations, and the batch-lane histogram.
    pub fn render_text(&self, top_k: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "kernel profile: {} (seed {}, {} paths, {} ops)\n",
            self.model, self.seed, self.samples, self.total_ops
        ));
        let bar = |count: u64, max: u64| {
            let width = (count * 24).checked_div(max).unwrap_or(0) as usize;
            "#".repeat(width.max(1))
        };
        let top = |out: &mut String, title: &str, entries: &[ProfileEntry]| {
            if entries.is_empty() {
                return;
            }
            out.push_str(&format!("\n{title} (top {}):\n", top_k.min(entries.len())));
            let max = entries[0].count;
            for e in entries.iter().take(top_k) {
                out.push_str(&format!(
                    "  {:<40} {:>12}  {}\n",
                    e.label,
                    e.count,
                    bar(e.count, max)
                ));
            }
        };
        top(&mut out, "opcodes", &self.ops);
        top(&mut out, "digrams (superinstruction candidates)", &self.digrams);
        if !self.guards.is_empty() {
            out.push_str(&format!("\nguards (top {}):\n", top_k.min(self.guards.len())));
            for g in self.guards.iter().take(top_k) {
                let pct = if g.evals > 0 { 100.0 * g.enabled as f64 / g.evals as f64 } else { 0.0 };
                let at = g.span.as_deref().unwrap_or("builtin");
                out.push_str(&format!(
                    "  {:<40} {:>12} evals  {pct:>5.1}% enabled  [{at}]\n",
                    g.label, g.evals
                ));
            }
        }
        if !self.transitions.is_empty() {
            out.push_str(&format!("\ntransitions (top {}):\n", top_k.min(self.transitions.len())));
            for t in self.transitions.iter().take(top_k) {
                let at = t.span.as_deref().unwrap_or("builtin");
                out.push_str(&format!("  {:<40} {:>12} fired  [{at}]\n", t.label, t.fired));
            }
        }
        top(&mut out, "locations (steps while resident)", &self.locations);
        out.push_str(&format!(
            "\ndelay solves : {}\nbatches      : {} ({} scalar drains)\n",
            self.delay_solves, self.batches, self.scalar_drains
        ));
        if !self.lane_occupancy.is_empty() {
            out.push_str("lane occupancy (steps at N active lanes):\n");
            let max = self.lane_occupancy.iter().map(|&(_, s)| s).max().unwrap_or(0);
            for &(lanes, steps) in &self.lane_occupancy {
                out.push_str(&format!("  {lanes:>3} lanes {steps:>12}  {}\n", bar(steps, max)));
            }
        }
        out
    }
}

fn sort_entries(v: &mut [ProfileEntry]) {
    v.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.label.cmp(&b.label)));
}

fn is_sorted(v: &[ProfileEntry]) -> bool {
    v.windows(2).all(|w| w[0].count >= w[1].count)
}

fn req_str(v: &Json, key: &str, ctx: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("{ctx}: missing string `{key}`"))
}

fn req_u64(v: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or(format!("{ctx}: missing integer `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ProfileShape {
        ProfileShape { n_ops: 3, trans_offsets: vec![0, 2, 3], loc_offsets: vec![0, 2, 4] }
    }

    fn labels() -> ProfileLabels {
        ProfileLabels {
            op_names: vec!["a".into(), "b".into(), "c".into()],
            transitions: vec![
                ("p: x -> y".into(), Some("m.slim:3:5".into())),
                ("p: y -> x".into(), None),
                ("q: u -> v".into(), None),
            ],
            locations: vec!["p.x".into(), "p.y".into(), "q.u".into(), "q.v".into()],
        }
    }

    #[test]
    fn digrams_reset_at_program_boundaries() {
        let mut p = KernelProfile::new(shape());
        p.eval_begin();
        p.eval_op(0);
        p.eval_op(1);
        p.eval_begin();
        p.eval_op(2); // no digram 1 -> 2 across the boundary
        assert_eq!(p.op_counts(), &[1, 1, 1]);
        assert_eq!(p.digram_counts()[1], 1); // 0 -> 1
        assert_eq!(p.digram_counts()[3 + 2], 0); // 1 -> 2 never counted
        assert_eq!(p.total_ops(), 3);
    }

    #[test]
    fn merge_is_elementwise_and_order_insensitive_for_sums() {
        let mut a = KernelProfile::new(shape());
        let mut b = KernelProfile::new(shape());
        a.eval_begin();
        a.eval_op(0);
        a.guard_eval(0, 1, true);
        a.fired(1, 0);
        b.eval_begin();
        b.eval_op(0);
        b.eval_op(0);
        b.guard_eval(0, 1, false);
        b.delay_solve();
        b.batch(&[5, 2, 2]);
        a.merge(&b);
        assert_eq!(a.op_counts()[0], 3);
        assert_eq!(a.guard_counts(1), (2, 1));
        assert_eq!(a.fired_count(2), 1);
        assert_eq!(a.delay_solve_count(), 1);
        let (batches, drains, hist) = a.batch_counts();
        assert_eq!((batches, drains), (1, 0));
        // 3 lanes for 2 steps, 2 lanes for 0 steps, 1 lane for 3 steps.
        assert_eq!(&hist[1..], &[3, 0, 2]);
    }

    #[test]
    fn report_sorts_drops_zeros_and_roundtrips() {
        let mut p = KernelProfile::new(shape());
        p.eval_begin();
        for op in [0, 1, 1, 2, 1] {
            p.eval_op(op);
        }
        p.guard_eval(0, 0, true);
        p.loc_step(0, 1);
        p.fired(0, 0);
        p.batch(&[4]);
        let r = ProfileReport::from_profile(&p, &labels(), "toy", 7, 1);
        assert_eq!(r.ops[0].label, "b");
        assert_eq!(r.ops.len(), 3);
        assert_eq!(r.guards.len(), 1);
        assert_eq!(r.guards[0].span.as_deref(), Some("m.slim:3:5"));
        assert_eq!(r.transitions.len(), 1);
        assert_eq!(r.locations, vec![ProfileEntry { label: "p.y".into(), count: 1 }]);
        assert_eq!(r.scalar_drains, 1);
        assert_eq!(r.validate(), Vec::<String>::new());
        let text = r.to_json().to_pretty();
        let back = ProfileReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // Determinism at the byte level: serializing twice is identical.
        assert_eq!(text, back.to_json().to_pretty());
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let mut p = KernelProfile::new(shape());
        p.eval_begin();
        p.eval_op(0);
        let mut r = ProfileReport::from_profile(&p, &labels(), "toy", 0, 1);
        r.total_ops = 99;
        r.guards.push(GuardEntry { label: "g".into(), span: None, evals: 1, enabled: 2 });
        let problems = r.validate();
        assert!(problems.iter().any(|s| s.contains("total_ops")), "{problems:?}");
        assert!(problems.iter().any(|s| s.contains("exceeds eval count")), "{problems:?}");
    }

    #[test]
    fn phase_profiler_nests_and_renders() {
        let mut p = PhaseProfiler::new();
        p.begin("analyze");
        p.record("load", Duration::from_millis(2));
        p.time("simulate", || std::thread::sleep(Duration::from_millis(1)));
        p.end();
        let spans = p.spans();
        assert_eq!(spans[0].1, "analyze");
        assert_eq!(
            spans.iter().map(|s| s.1).collect::<Vec<_>>(),
            vec!["analyze", "load", "simulate"]
        );
        assert_eq!(spans[1].0, 1);
        let text = p.render();
        assert!(text.contains("analyze"), "{text}");
        assert!(text.contains("simulate"), "{text}");
    }

    #[test]
    fn noop_profile_hooks_compile_to_nothing() {
        let mut n = NoopProfile;
        n.eval_begin();
        n.eval_op(3);
        n.guard_eval(0, 0, true);
        n.fired(0, 0);
        n.loc_step(0, 0);
        n.delay_solve();
        n.batch(&[1, 2]);
        const { assert!(!NoopProfile::ENABLED) }
    }

    #[test]
    fn render_text_shows_heatmap_sections() {
        let mut p = KernelProfile::new(shape());
        p.eval_begin();
        for op in [0, 1, 0, 1] {
            p.eval_op(op);
        }
        p.guard_eval(0, 0, true);
        p.batch(&[3, 1]);
        let r = ProfileReport::from_profile(&p, &labels(), "toy", 1, 2);
        let text = r.render_text(5);
        assert!(text.contains("opcodes"), "{text}");
        assert!(text.contains("superinstruction"), "{text}");
        assert!(text.contains("lane occupancy"), "{text}");
    }
}
