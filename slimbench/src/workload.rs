//! The four workloads, their query pipelines, and one pass over a
//! workload's queries.
//!
//! Every query goes through the crates' public functions exactly as a
//! user-facing invocation would: the simulator workloads follow the
//! `slimsim analyze` pipeline (load → lint pre-flight → static
//! pre-verdict → sampling), and the CTMC workload the `slimsim ctmc`
//! pipeline (explore → eliminate → lump → transient). Everything runs on
//! one thread (`workers = 1`).

use crate::checks;
use crate::trace::{self, Span, Tracer};
use slim_automata::prelude::{Expr, NetState, Network};
use slim_ctmc::eliminate::eliminate;
use slim_ctmc::explore::{explore, ExploreConfig};
use slim_ctmc::lumping::lump;
use slim_ctmc::transient::{timed_reachability, TransientConfig};
use slim_fuzz::{generate, GenParams, GoalSpec};
use slim_models::launcher::{launcher_network, DpuFaultMode, LauncherParams, FAILURE_VAR};
use slim_models::sensor_filter::{sensor_filter_network, SensorFilterParams, GOAL_VAR};
use slim_obs::{Json, KernelProfile};
use slim_stats::Accuracy;
use slimsim_core::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Property horizon of Table I, `P(◇[0,2] failed)`.
pub const HORIZON: f64 = 2.0;
/// CTMC exploration cap (the Table I "out of memory" bar).
const STATE_LIMIT: usize = 2_000_000;
/// Per-path step budget of the corpus queries. Generated models may
/// loop without letting time pass; this bounds the work such a path
/// wastes, so the corpus measures the per-query pipeline rather than
/// the share of looping models a seed happens to draw.
const CORPUS_MAX_STEPS: u64 = 50;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Table I, simulator column.
    Table1Sim,
    /// Table I, CTMC column.
    Table1Ctmc,
    /// §V / Fig. 5, recoverable launcher under the four strategies.
    Fig5Launcher,
    /// Generated `.slim` sources through the full analyze pipeline.
    ModelCorpus,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Table1Sim, Workload::Table1Ctmc, Workload::Fig5Launcher, Workload::ModelCorpus];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Sim => "table1-sim",
            Workload::Table1Ctmc => "table1-ctmc",
            Workload::Fig5Launcher => "fig5-launcher",
            Workload::ModelCorpus => "model-corpus",
        }
    }

    /// Parses [`Self::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A generated `.slim` query, kept as text so parsing is timed.
#[derive(Debug, Clone)]
pub struct SlimQuery {
    /// The source text.
    pub source: String,
    /// Root component type.
    pub root_type: String,
    /// Root implementation.
    pub root_impl: String,
    /// The reachability goal.
    pub goal: GoalSpec,
    /// Property time bound.
    pub bound: f64,
}

/// One query of a workload.
#[derive(Debug, Clone)]
pub enum Query {
    /// The sensor–filter model with `n` units per bank at horizon
    /// [`HORIZON`].
    SensorFilter {
        /// Units per bank.
        n: usize,
    },
    /// The recoverable launcher at time bound `bound` under `strategy`.
    Launcher {
        /// Time bound `u`.
        bound: f64,
        /// Non-determinism resolution.
        strategy: StrategyKind,
    },
    /// A generated model.
    Slim(SlimQuery),
}

/// A workload's queries and accuracy for one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Seeds every simulation and the corpus generator.
    pub seed: u64,
    /// The small configuration `cargo test` runs.
    pub smoke: bool,
    /// The queries, in execution order.
    pub queries: Vec<Query>,
}

/// Knobs of the corpus generator: 12–24 components per model.
fn corpus_params() -> GenParams {
    GenParams {
        min_components: 12,
        max_components: 24,
        max_locations: 6,
        max_extra_transitions: 6,
        ..GenParams::stress()
    }
}

impl Plan {
    /// Builds the queries of `workload`; the corpus is generated here,
    /// before any timing starts.
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Plan {
        let sizes: Vec<usize> = match (workload, smoke) {
            (_, true) => vec![2, 4],
            (Workload::Table1Ctmc, false) => vec![2, 4, 6, 8],
            _ => (2..=16).step_by(2).collect(),
        };
        let queries = match workload {
            Workload::Table1Sim | Workload::Table1Ctmc => {
                sizes.into_iter().map(|n| Query::SensorFilter { n }).collect()
            }
            Workload::Fig5Launcher => {
                let bounds: &[f64] = if smoke { &[1.0] } else { &[1.0, 2.0, 3.0] };
                bounds
                    .iter()
                    .flat_map(|&bound| {
                        StrategyKind::ALL
                            .into_iter()
                            .map(move |strategy| Query::Launcher { bound, strategy })
                    })
                    .collect()
            }
            Workload::ModelCorpus => {
                let count = if smoke { 10 } else { 1600 };
                let params = corpus_params();
                (0..count)
                    .map(|i| {
                        let g = generate(seed, i, &params);
                        Query::Slim(SlimQuery {
                            source: g.source,
                            root_type: g.root_type,
                            root_impl: g.root_impl,
                            goal: g.goal,
                            bound: g.bound,
                        })
                    })
                    .collect()
            }
        };
        Plan { workload, seed, smoke, queries }
    }

    /// The simulator accuracy of this workload (unused by the CTMC one).
    pub fn accuracy(&self) -> Accuracy {
        let (epsilon, delta) = match (self.workload, self.smoke) {
            (Workload::ModelCorpus, _) => (0.2, 0.1),
            (Workload::Fig5Launcher, false) => (0.01, 0.1),
            (Workload::Fig5Launcher, true) => (0.1, 0.1),
            (_, false) => (0.01, 0.05),
            (_, true) => (0.1, 0.05),
        };
        Accuracy::new(epsilon, delta).expect("workload accuracies are valid")
    }

    /// The simulator configuration of `query`. Pre-verdicts are off
    /// because the pipeline has just computed them.
    pub fn sim_config(&self, query: &Query) -> SimConfig {
        let mut config = SimConfig::default()
            .with_accuracy(self.accuracy())
            .with_seed(self.seed)
            .with_workers(1)
            .with_static_pre_verdicts(false);
        match query {
            Query::SensorFilter { .. } => config = config.with_strategy(StrategyKind::Asap),
            Query::Launcher { strategy, .. } => config = config.with_strategy(*strategy),
            Query::Slim(_) => config.max_steps = CORPUS_MAX_STEPS,
        }
        config
    }
}

/// What one query produced. Counts a query does not have stay 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Answer {
    /// Seconds before sampling or exploring: build or parse+lower,
    /// lint pre-flight, pre-verdict.
    pub setup_s: f64,
    /// Seconds inside `analyze` or the CTMC pipeline.
    pub solve_s: f64,
    /// The probability (estimate or exact).
    pub estimate: f64,
    /// Paths sampled.
    pub samples: u64,
    /// Steps over all sampled paths.
    pub steps: u64,
    /// Sampled paths that hit the step budget.
    pub step_limited: u64,
    /// The static pre-verdict decided the query (no sampling).
    pub decided: bool,
    /// Lint diagnostics the pre-flight reported.
    pub diagnostics: u64,
    /// Source bytes parsed.
    pub source_bytes: u64,
    /// CTMC states explored.
    pub states: u64,
    /// CTMC transitions explored.
    pub transitions: u64,
    /// CTMC states after lumping.
    pub lumped: u64,
    /// Stored state-space bytes, as the explorer estimates them.
    pub memory_bytes: u64,
    /// Why the query failed to produce an answer.
    pub error: Option<String>,
}

impl Answer {
    /// Seconds for the whole query.
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.solve_s
    }

    /// Work units the solver completed: paths sampled, or CTMC states
    /// explored.
    pub fn work(&self) -> u64 {
        self.samples + self.states
    }
}

/// Result of one pass (one child process).
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Wall seconds of the timed query loop.
    pub wall_s: f64,
    /// Per-query answers, in plan order.
    pub answers: Vec<Answer>,
    /// Failed queries: `(query index, reason)`.
    pub failures: Vec<(usize, String)>,
    /// `VmHWM` of the pass process in KiB.
    pub peak_rss_kib: u64,
    /// Per-layer metrics (traced pass only), `trace.overhead_frac` aside.
    pub layers: Vec<(String, f64)>,
    /// Recorded spans (traced pass only).
    pub spans: Vec<Span>,
}

impl PassResult {
    /// The one-line document a pass process prints for its parent.
    /// Estimates travel as bit patterns so the cross-pass check is exact.
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let answer = |a: &Answer| {
            Json::obj([
                ("setup_s", Json::Num(a.setup_s)),
                ("solve_s", Json::Num(a.solve_s)),
                ("estimate_bits", Json::str(format!("{:016x}", a.estimate.to_bits()))),
                ("samples", num(a.samples)),
                ("steps", num(a.steps)),
                ("step_limited", num(a.step_limited)),
                ("decided", Json::Bool(a.decided)),
                ("diagnostics", num(a.diagnostics)),
                ("source_bytes", num(a.source_bytes)),
                ("states", num(a.states)),
                ("transitions", num(a.transitions)),
                ("lumped", num(a.lumped)),
                ("memory_bytes", num(a.memory_bytes)),
                ("error", a.error.as_ref().map_or(Json::Null, |e| Json::str(e.as_str()))),
            ])
        };
        Json::obj([
            ("wall_s", Json::Num(self.wall_s)),
            ("peak_rss_kib", num(self.peak_rss_kib)),
            ("answers", Json::Arr(self.answers.iter().map(answer).collect())),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|(i, why)| {
                            Json::obj([("query", num(*i as u64)), ("why", Json::str(why.as_str()))])
                        })
                        .collect(),
                ),
            ),
            (
                "layers",
                Json::Obj(self.layers.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
            ),
        ])
    }

    /// Parses [`Self::to_json`] output (spans are not carried).
    ///
    /// # Errors
    /// The first missing or malformed member.
    pub fn from_json(v: &Json) -> Result<PassResult, String> {
        let f = |o: &Json, k: &str| {
            o.get(k).and_then(Json::as_f64).ok_or_else(|| format!("`{k}` missing"))
        };
        let u = |o: &Json, k: &str| {
            o.get(k).and_then(Json::as_u64).ok_or_else(|| format!("`{k}` missing"))
        };
        let list =
            |k: &str| v.get(k).and_then(Json::as_arr).ok_or_else(|| format!("`{k}` missing"));
        let answers = list("answers")?
            .iter()
            .map(|a| {
                let bits = a
                    .get("estimate_bits")
                    .and_then(Json::as_str)
                    .ok_or("`estimate_bits` missing")?;
                Ok(Answer {
                    setup_s: f(a, "setup_s")?,
                    solve_s: f(a, "solve_s")?,
                    estimate: f64::from_bits(
                        u64::from_str_radix(bits, 16).map_err(|e| e.to_string())?,
                    ),
                    samples: u(a, "samples")?,
                    steps: u(a, "steps")?,
                    step_limited: u(a, "step_limited")?,
                    decided: a.get("decided") == Some(&Json::Bool(true)),
                    diagnostics: u(a, "diagnostics")?,
                    source_bytes: u(a, "source_bytes")?,
                    states: u(a, "states")?,
                    transitions: u(a, "transitions")?,
                    lumped: u(a, "lumped")?,
                    memory_bytes: u(a, "memory_bytes")?,
                    error: a.get("error").and_then(Json::as_str).map(str::to_string),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let failures = list("failures")?
            .iter()
            .map(|x| {
                let why = x.get("why").and_then(Json::as_str).unwrap_or_default().to_string();
                Ok((u(x, "query")? as usize, why))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let layers = match v.get("layers") {
            Some(Json::Obj(m)) => {
                m.iter().map(|(k, x)| (k.clone(), x.as_f64().unwrap_or(f64::NAN))).collect()
            }
            _ => Vec::new(),
        };
        Ok(PassResult {
            wall_s: f(v, "wall_s")?,
            answers,
            failures,
            peak_rss_kib: u(v, "peak_rss_kib")?,
            layers,
            spans: Vec::new(),
        })
    }
}

/// A loaded simulator query, kept by the traced pass for the
/// diagnostic calls.
struct Loaded {
    net: Network,
    property: TimedReach,
    config: SimConfig,
}

/// Kernel-side counts gathered by the diagnostic calls.
#[derive(Debug, Default)]
struct DiagTotals {
    fallback_guards: u64,
    kernel_steps: u64,
    profiled_steps: u64,
    ops: u64,
    delay_solves: u64,
    guard_evals: u64,
    guard_enabled: u64,
    lane_steps: u64,
    lane_slots: u64,
}

/// Runs one pass of `plan`. With `traced`, records spans, then runs the
/// diagnostic calls and computes the per-layer metrics.
pub fn run_pass(plan: &Plan, traced: bool) -> PassResult {
    let mut tr = if traced { Tracer::on() } else { Tracer::off() };
    let mut answers = Vec::with_capacity(plan.queries.len());
    let mut loaded = Vec::new();
    let start = Instant::now();
    for (i, query) in plan.queries.iter().enumerate() {
        tr.root(i as u64, "query");
        let outcome = catch_unwind(AssertUnwindSafe(|| run_query(plan, query, &mut tr)));
        tr.close_all();
        let (answer, kept) = match outcome {
            Ok(Ok((a, kept))) => (a, kept),
            Ok(Err(e)) => (Answer { error: Some(e), ..Answer::default() }, None),
            Err(panic) => {
                (Answer { error: Some(panic_text(panic.as_ref())), ..Answer::default() }, None)
            }
        };
        answers.push(answer);
        if traced {
            loaded.push(kept);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut failures = checks::check(plan, &answers);

    let mut layers = Vec::new();
    if traced {
        let mut totals = DiagTotals::default();
        for (i, kept) in loaded.iter().enumerate() {
            let Some(kept) = kept else { continue };
            tr.root(i as u64, "diag");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                diagnose(kept, &answers[i], &mut tr, &mut totals)
            }));
            tr.close_all();
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => failures.push((i, e)),
                Err(panic) => failures.push((i, panic_text(panic.as_ref()))),
            }
        }
        layers = layer_metrics(&answers, tr.spans(), &totals, wall_s);
    }
    failures.sort_by_key(|f| f.0);
    PassResult {
        wall_s,
        answers,
        failures,
        peak_rss_kib: peak_rss_kib(),
        layers,
        spans: tr.spans().to_vec(),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("panicked: {text}")
}

/// The peak resident set of this process (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

type QueryOutcome = Result<(Answer, Option<Loaded>), String>;

fn run_query(plan: &Plan, query: &Query, tr: &mut Tracer) -> QueryOutcome {
    match (plan.workload, query) {
        (Workload::Table1Ctmc, Query::SensorFilter { n }) => Ok((run_ctmc(*n, tr)?, None)),
        _ => run_smc(plan, query, tr),
    }
}

fn sensor_params(n: usize) -> SensorFilterParams {
    SensorFilterParams { redundancy: n, ..SensorFilterParams::default() }
}

fn goal_of(net: &Network, spec: &GoalSpec) -> Result<Goal, String> {
    match spec {
        GoalSpec::Var(path) => net
            .var_id(path)
            .map(|id| Goal::expr(Expr::var(id)))
            .ok_or_else(|| format!("goal variable `{path}` does not exist")),
        GoalSpec::Loc(auto, loc) => Goal::in_location(net, auto, loc),
    }
}

/// The `slimsim analyze` pipeline.
fn run_smc(plan: &Plan, query: &Query, tr: &mut Tracer) -> QueryOutcome {
    let start = Instant::now();
    let mut a = Answer::default();
    let (net, goal, bound) = match query {
        Query::SensorFilter { n } => {
            let net = tr.time("models.build", || sensor_filter_network(&sensor_params(*n)));
            (net, GoalSpec::Var(GOAL_VAR.to_string()), HORIZON)
        }
        Query::Launcher { bound, .. } => {
            let params = LauncherParams {
                dpu_faults: DpuFaultMode::Recoverable,
                ..LauncherParams::default()
            };
            let net = tr.time("models.build", || launcher_network(&params));
            (net, GoalSpec::Var(FAILURE_VAR.to_string()), *bound)
        }
        Query::Slim(q) => {
            a.source_bytes = q.source.len() as u64;
            let model =
                tr.time("lang.parse", || slim_lang::parse(&q.source)).map_err(|e| e.to_string())?;
            let lowered = tr
                .time("lang.lower", || slim_lang::lower(&model, &q.root_type, &q.root_impl, "root"))
                .map_err(|e| e.to_string())?;
            (lowered.network, q.goal.clone(), q.bound)
        }
    };
    let lint = slim_lint::LintConfig::new();
    let diagnostics = tr
        .time("lint.preflight", || slim_lint::preflight(&net, &lint))
        .map_err(|d| format!("{} error-level lint(s) in pre-flight", slim_lint::error_count(&d)))?;
    a.diagnostics = diagnostics.len() as u64;
    let property = TimedReach::new(goal_of(&net, &goal)?, bound);
    let verdict = tr.time("analysis.pre_verdict", || pre_verdict_with(&net, &property, true));
    a.setup_s = start.elapsed().as_secs_f64();

    if let Some(p) = verdict.exact_probability() {
        a.decided = true;
        a.estimate = p;
        return Ok((a, None));
    }
    let config = plan.sim_config(query);
    let solve = Instant::now();
    let r =
        tr.time("core.analyze", || analyze(&net, &property, &config)).map_err(|e| e.to_string())?;
    a.solve_s = solve.elapsed().as_secs_f64();
    a.estimate = r.estimate.mean;
    a.samples = r.estimate.samples;
    a.steps = r.stats.total_steps;
    a.step_limited = r.stats.step_limited;
    Ok((a, Some(Loaded { net, property, config })))
}

/// The `slimsim ctmc` pipeline.
fn run_ctmc(n: usize, tr: &mut Tracer) -> Result<Answer, String> {
    let start = Instant::now();
    let net = tr.time("models.build", || sensor_filter_network(&sensor_params(n)));
    let failed = net.var_id(GOAL_VAR).ok_or("goal variable missing")?;
    let goal = move |s: &NetState| s.nu.get(failed).map(|v| v.as_bool().unwrap_or(false));
    let setup_s = start.elapsed().as_secs_f64();

    let solve = Instant::now();
    let explored = tr
        .time("ctmc.explore", || explore(&net, &goal, &ExploreConfig { state_limit: STATE_LIMIT }))
        .map_err(|e| e.to_string())?;
    let chain =
        tr.time("ctmc.eliminate", || eliminate(&explored.imc)).map_err(|e| e.to_string())?;
    let lumped = tr.time("ctmc.lump", || lump(&chain));
    let estimate = tr.time("ctmc.transient", || {
        timed_reachability(&lumped.quotient, HORIZON, &TransientConfig::default())
    });
    Ok(Answer {
        setup_s,
        solve_s: solve.elapsed().as_secs_f64(),
        estimate,
        states: explored.states as u64,
        transitions: explored.imc.transition_count() as u64,
        lumped: lumped.quotient.len() as u64,
        memory_bytes: explored.approx_memory_bytes as u64,
        ..Answer::default()
    })
}

/// Diagnostic calls on one sampled query: compile alone, the plain
/// kernel re-driven over the same path set (indices `0..target` in
/// blocks of `batch_lanes`), `analyze` again right after it so the two
/// times share the host's state, and the profiled runner for exact
/// kernel counts. Every re-run must reproduce the pass's answer.
fn diagnose(
    q: &Loaded,
    answer: &Answer,
    tr: &mut Tracer,
    totals: &mut DiagTotals,
) -> Result<(), String> {
    let tables = tr.time("automata.compile", || q.net.compile());
    totals.fallback_guards += tables.fallback_guards() as u64;

    let gen =
        tr.time("core.generator", || PathGenerator::new(&q.net, &q.property, q.config.max_steps));
    let target = q.config.accuracy.chernoff_samples();
    let lanes = q.config.batch_lanes as u64;
    let steps = tr.time("engine.kernel", || {
        let mut strategy = q.config.strategy.instantiate();
        let mut scratch = BatchScratch::new();
        let mut out = Vec::with_capacity(lanes as usize);
        let (mut first, mut steps) = (0u64, 0u64);
        while first < target {
            let count = (target - first).min(lanes) as usize;
            gen.generate_batch_with(
                &mut scratch,
                strategy.as_mut(),
                q.config.seed,
                first,
                1,
                count,
                None,
                &mut out,
            );
            for o in &out {
                steps += o.as_ref().map_err(|e| e.to_string())?.steps;
            }
            first += count as u64;
        }
        Ok::<u64, String>(steps)
    })?;
    if steps != answer.steps {
        return Err(format!("kernel re-drive took {steps} steps, analyze took {}", answer.steps));
    }
    totals.kernel_steps += steps;

    let again = tr
        .time("core.analyze", || analyze(&q.net, &q.property, &q.config))
        .map_err(|e| e.to_string())?;
    if again.estimate.mean.to_bits() != answer.estimate.to_bits() {
        return Err(format!(
            "repeated analyze gave {}, the pass {}",
            again.estimate.mean, answer.estimate
        ));
    }
    let (result, profile) = tr
        .time("core.analyze_profiled", || analyze_profiled(&q.net, &q.property, &q.config, None))
        .map_err(|e| e.to_string())?;
    if result.estimate.mean.to_bits() != answer.estimate.to_bits() {
        return Err(format!(
            "profiled estimate {} differs from analyze's {}",
            result.estimate.mean, answer.estimate
        ));
    }
    add_profile(totals, &profile, result.stats.total_steps, lanes);
    Ok(())
}

fn add_profile(totals: &mut DiagTotals, profile: &KernelProfile, steps: u64, lanes: u64) {
    totals.profiled_steps += steps;
    totals.ops += profile.total_ops();
    totals.delay_solves += profile.delay_solve_count();
    for flat in 0..profile.shape().n_trans() {
        let (evals, enabled) = profile.guard_counts(flat);
        totals.guard_evals += evals;
        totals.guard_enabled += enabled;
    }
    let (_, _, hist) = profile.batch_counts();
    for (active, &sweeps) in hist.iter().enumerate() {
        totals.lane_steps += active as u64 * sweeps;
        totals.lane_slots += lanes * sweeps;
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Spans of the timed pipeline whose self time is reported as a share
/// of the traced pass, as `<span>_pct`.
pub const PIPELINE_SPANS: [&str; 10] = [
    "models.build",
    "lang.parse",
    "lang.lower",
    "lint.preflight",
    "analysis.pre_verdict",
    "core.analyze",
    "ctmc.explore",
    "ctmc.eliminate",
    "ctmc.lump",
    "ctmc.transient",
];

fn layer_metrics(
    answers: &[Answer],
    spans: &[Span],
    d: &DiagTotals,
    pass_s: f64,
) -> Vec<(String, f64)> {
    let own = trace::self_seconds_by_name(spans, "query");
    let timed = trace::seconds_by_name(spans, "query");
    let diag = trace::seconds_by_name(spans, "diag");
    let secs =
        |m: &std::collections::BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let sum = |f: fn(&Answer) -> u64| answers.iter().map(f).sum::<u64>() as f64;
    let (samples, steps, states) = (sum(|a| a.samples), sum(|a| a.steps), sum(|a| a.states));
    let queries = answers.len() as f64;
    let analyze_s = secs(&diag, "core.analyze");
    let kernel_s = secs(&diag, "engine.kernel");
    let profiled = d.profiled_steps as f64;

    let mut out: Vec<(String, f64)> = PIPELINE_SPANS
        .iter()
        .map(|s| (format!("{s}_pct"), 100.0 * ratio(secs(&own, s), pass_s)))
        .collect();
    out.extend(
        [
            ("trace.pass_s", pass_s),
            ("lang.source_kib", sum(|a| a.source_bytes) / 1024.0),
            ("lint.diagnostics", sum(|a| a.diagnostics)),
            ("analysis.decided_frac", ratio(sum(|a| a.decided as u64), queries)),
            ("automata.compile_frac", ratio(secs(&diag, "automata.compile"), analyze_s)),
            ("automata.fallback_guards", d.fallback_guards as f64),
            ("engine.steps_per_s", ratio(d.kernel_steps as f64, kernel_s)),
            ("engine.steps_per_path", ratio(steps, samples)),
            ("engine.step_limited_frac", ratio(sum(|a| a.step_limited), samples)),
            (
                "runner.overhead_frac",
                if analyze_s > 0.0 { 1.0 - kernel_s / analyze_s } else { 0.0 },
            ),
            ("kernel.ops_per_step", ratio(d.ops as f64, profiled)),
            ("kernel.delay_solves_per_step", ratio(d.delay_solves as f64, profiled)),
            ("kernel.guard_evals_per_step", ratio(d.guard_evals as f64, profiled)),
            ("kernel.guard_enabled_frac", ratio(d.guard_enabled as f64, d.guard_evals as f64)),
            ("kernel.lane_occupancy", ratio(d.lane_steps as f64, d.lane_slots as f64)),
            ("stats.paths_per_query", ratio(samples, queries)),
            ("ctmc.explore_states_per_s", ratio(states, secs(&timed, "ctmc.explore"))),
            ("ctmc.bytes_per_state", ratio(sum(|a| a.memory_bytes), states)),
            ("ctmc.states", states),
            ("ctmc.transitions", sum(|a| a.transitions)),
            ("ctmc.lumped_states", sum(|a| a.lumped)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v)),
    );
    out
}
