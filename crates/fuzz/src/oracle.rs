//! The differential oracle stack run on every generated model.
//!
//! Each oracle checks one claim a pipeline layer makes and a later layer
//! silently trusts. Oracles run in pipeline order and stop at the first
//! failure — the shrinker then re-runs only the failing oracle while
//! minimizing. All randomness derives from the model's `(seed, index)`
//! provenance, so a failure replays exactly from a corpus entry.

use slim_analysis::analyze_network;
use slim_automata::network::{Network, PruneMaps, PrunePlan};
use slim_automata::prelude::{CompileOptions, Expr, IntervalSet, StepScratch};
use slim_lint::LintConfig;
use slim_stats::chernoff::Accuracy;
use slim_stats::rng::{derive_seed, path_rng};
use slimsim_core::prelude::{
    analyze, pre_verdict, BatchScratch, DeadlockPolicy, Goal, NoHooks, PathGenerator, PathOutcome,
    PreVerdict, SimConfig, SimError, SimScratch, StrategyKind, TimedReach,
};

use crate::generate::{GeneratedModel, GoalSpec};

/// Tag mixed into the simulation seed so soundness-oracle paths never
/// collide with the generator's own RNG stream.
const SOUNDNESS_SEED_TAG: u64 = 0x00f1_7b0a_57ab_1e00;

/// Tag for the prune-invariance runs, distinct from every other stream.
const INVARIANCE_SEED_TAG: u64 = 0x0b5e_55ed;

/// Tag for the kernel-equivalence paths, distinct from every other stream.
const KERNEL_SEED_TAG: u64 = 0x000f_05ed_0000_u64;

/// The seven checked claims, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// `parse(pretty(m)) == m`, and `pretty` is a fixed point of the
    /// round trip (printing the reparsed model reproduces the source).
    RoundTrip,
    /// The model lowers, the lints run without panicking and
    /// deterministically, and the shared [`slim_lint::preflight`] gate
    /// accepts the model (generated models are in-envelope by
    /// construction — a deny here is a generator or lint bug).
    Lint,
    /// `Network::compile()` output passes `verify_bytecode`.
    Bytecode,
    /// The compiled step tables agree with the legacy interpreter API on
    /// a seeded pseudo-random walk: delay windows, candidate lists
    /// (order included), Markovian rates, successor states.
    CompiledEquivalence,
    /// The production kernel (`CompileOptions::default`), driven scalar
    /// and batched four lanes at a time, reproduces the plain reference
    /// kernel's (`CompileOptions::reference`) per-path outcomes (or
    /// errors) bit for bit.
    KernelEquivalence,
    /// A `P = 0` pre-verdict is never contradicted by a simulated goal
    /// hit; a `P = 1` pre-verdict never sees a failing path.
    FixpointSoundness,
    /// Pruning with the goal pinned leaves the estimate bit-identical at
    /// fixed `(seed, workers)`.
    PruneInvariance,
}

impl OracleKind {
    /// Stable kebab-case name (corpus entries, reports).
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::RoundTrip => "round-trip",
            OracleKind::Lint => "lint",
            OracleKind::Bytecode => "bytecode",
            OracleKind::CompiledEquivalence => "compiled-equivalence",
            OracleKind::KernelEquivalence => "kernel-equivalence",
            OracleKind::FixpointSoundness => "fixpoint-soundness",
            OracleKind::PruneInvariance => "prune-invariance",
        }
    }

    /// Parses [`Self::name`]'s output back.
    pub fn parse(s: &str) -> Option<OracleKind> {
        OracleKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    /// All oracles, in pipeline order.
    pub const ALL: [OracleKind; 7] = [
        OracleKind::RoundTrip,
        OracleKind::Lint,
        OracleKind::Bytecode,
        OracleKind::CompiledEquivalence,
        OracleKind::KernelEquivalence,
        OracleKind::FixpointSoundness,
        OracleKind::PruneInvariance,
    ];
}

/// One oracle violation: which claim broke and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    /// The violated claim.
    pub kind: OracleKind,
    /// Human-readable description of the divergence.
    pub detail: String,
}

/// Result of running the stack on one model.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// The first failure, if any.
    pub failure: Option<OracleFailure>,
    /// Oracles that completed (vacuous passes included) before the first
    /// failure stopped the stack.
    pub ran: Vec<OracleKind>,
    /// The fixpoint's exact probability claim, when it made one —
    /// campaign statistics use this to report pre-verdict coverage.
    pub pre_exact: Option<f64>,
}

/// Effort knobs for one oracle run.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Paths simulated to challenge a `P = 0` / `P = 1` pre-verdict.
    pub soundness_paths: u64,
    /// Steps of the compiled-vs-legacy differential walk.
    pub equivalence_steps: u64,
    /// Pseudo-random walks driven per model in the equivalence oracle.
    pub equivalence_walks: u64,
    /// Statistical accuracy of the two prune-invariance estimates (kept
    /// loose: invariance is about bit-identity, not tightness).
    pub invariance_accuracy: Accuracy,
    /// Worker threads for the prune-invariance runs (invariance must
    /// hold for any fixed worker count, so exercising > 1 is useful).
    pub workers: usize,
    /// Step budget per simulated path.
    pub max_steps: u64,
    /// The pre-verdict function under test. Defaults to
    /// [`slimsim_core::pre_verdict`]; tests substitute a corrupted one to
    /// prove the soundness oracle actually catches unsound claims.
    pub pre_verdict_fn: fn(&Network, &TimedReach) -> PreVerdict,
}

impl OracleConfig {
    /// The CI-smoke configuration: small path counts, short walks.
    pub fn quick() -> OracleConfig {
        OracleConfig {
            soundness_paths: 24,
            equivalence_steps: 60,
            equivalence_walks: 2,
            invariance_accuracy: Accuracy::new(0.25, 0.25).expect("static accuracy is valid"),
            workers: 2,
            max_steps: 4_000,
            pre_verdict_fn: pre_verdict,
        }
    }

    /// The overnight-triage configuration: deeper walks, more paths.
    pub fn thorough() -> OracleConfig {
        OracleConfig {
            soundness_paths: 200,
            equivalence_steps: 200,
            equivalence_walks: 4,
            invariance_accuracy: Accuracy::new(0.15, 0.15).expect("static accuracy is valid"),
            workers: 2,
            max_steps: 20_000,
            ..Self::quick()
        }
    }
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self::quick()
    }
}

/// Runs the oracle stack on one model, stopping at the first failure.
pub fn run_oracles(model: &GeneratedModel, cfg: &OracleConfig) -> OracleOutcome {
    let mut out = OracleOutcome { failure: None, ran: Vec::new(), pre_exact: None };

    if let Err(detail) = round_trip(model) {
        out.failure = Some(OracleFailure { kind: OracleKind::RoundTrip, detail });
        return out;
    }
    out.ran.push(OracleKind::RoundTrip);

    // Everything downstream needs the network; a lowering failure on a
    // generated model is a generator-envelope bug and surfaces as a Lint
    // failure (the pre-flight gate could never have accepted the model).
    let net = match model.network() {
        Ok(net) => net,
        Err(e) => {
            out.failure = Some(OracleFailure {
                kind: OracleKind::Lint,
                detail: format!("model does not lower: {e}"),
            });
            return out;
        }
    };

    if let Err(detail) = lint_oracle(model, &net) {
        out.failure = Some(OracleFailure { kind: OracleKind::Lint, detail });
        return out;
    }
    out.ran.push(OracleKind::Lint);

    let tables = net.compile();
    if let Err(e) = tables.verify_bytecode() {
        out.failure = Some(OracleFailure {
            kind: OracleKind::Bytecode,
            detail: format!("bytecode verification failed: {e}"),
        });
        return out;
    }
    out.ran.push(OracleKind::Bytecode);

    if let Err(detail) = compiled_equivalence(model, &net, &tables, cfg) {
        out.failure = Some(OracleFailure { kind: OracleKind::CompiledEquivalence, detail });
        return out;
    }
    out.ran.push(OracleKind::CompiledEquivalence);

    let property = match build_property(model, &net) {
        Ok(p) => p,
        Err(detail) => {
            // The goal names structure the model is known to have; losing
            // it is a lowering/naming regression, reported as Lint.
            out.failure = Some(OracleFailure { kind: OracleKind::Lint, detail });
            return out;
        }
    };

    if let Err(detail) = kernel_equivalence(model, &net, &property, cfg) {
        out.failure = Some(OracleFailure { kind: OracleKind::KernelEquivalence, detail });
        return out;
    }
    out.ran.push(OracleKind::KernelEquivalence);

    match fixpoint_soundness(model, &net, &property, cfg) {
        Ok(pre_exact) => out.pre_exact = pre_exact,
        Err(detail) => {
            out.failure = Some(OracleFailure { kind: OracleKind::FixpointSoundness, detail });
            return out;
        }
    }
    out.ran.push(OracleKind::FixpointSoundness);

    if let Err(detail) = prune_invariance(model, &net, &property, cfg) {
        out.failure = Some(OracleFailure { kind: OracleKind::PruneInvariance, detail });
        return out;
    }
    out.ran.push(OracleKind::PruneInvariance);

    out
}

/// Builds the timed-reachability property from the model's goal spec.
fn build_property(model: &GeneratedModel, net: &Network) -> Result<TimedReach, String> {
    let goal = match &model.goal {
        GoalSpec::Var(path) => {
            let id = net
                .var_id(path)
                .ok_or_else(|| format!("goal variable `{path}` missing after lowering"))?;
            Goal::expr(Expr::var(id))
        }
        GoalSpec::Loc(auto, loc) => Goal::in_location(net, auto, loc)
            .map_err(|n| format!("goal location `{auto}@{loc}` missing after lowering: {n}"))?,
    };
    Ok(TimedReach::new(goal, model.bound))
}

// ---- round-trip ----

fn round_trip(model: &GeneratedModel) -> Result<(), String> {
    let reparsed = slim_lang::parse(&model.source)
        .map_err(|e| format!("pretty output fails to parse: {e}"))?;
    if reparsed != model.model {
        return Err(diff_models(&model.model, &reparsed));
    }
    let reprinted = slim_lang::pretty(&reparsed);
    if reprinted != model.source {
        return Err("pretty is not a fixed point: printing the reparsed model \
                    yields different text"
            .to_string());
    }
    Ok(())
}

/// A short pointer at the first section where two models disagree.
fn diff_models(a: &slim_lang::ast::Model, b: &slim_lang::ast::Model) -> String {
    if a.types != b.types {
        for (x, y) in a.types.iter().zip(&b.types) {
            if x != y {
                return format!("reparsed AST differs in component type `{}`", x.name);
            }
        }
        return "reparsed AST differs in the component type list".to_string();
    }
    if a.impls != b.impls {
        for (x, y) in a.impls.iter().zip(&b.impls) {
            if x != y {
                return format!(
                    "reparsed AST differs in implementation `{}.{}`",
                    x.name.0, x.name.1
                );
            }
        }
        return "reparsed AST differs in the implementation list".to_string();
    }
    if a.error_models != b.error_models {
        return "reparsed AST differs in an error model".to_string();
    }
    if a.injections != b.injections {
        return "reparsed AST differs in a fault injection".to_string();
    }
    "reparsed AST differs (position-independent comparison)".to_string()
}

// ---- lint ----

fn lint_oracle(model: &GeneratedModel, net: &Network) -> Result<(), String> {
    let front = catch(|| slim_lang::analyze_model(&model.model))
        .map_err(|p| format!("analyze_model panicked: {p}"))?;
    let front2 = catch(|| slim_lang::analyze_model(&model.model))
        .map_err(|p| format!("analyze_model panicked on second run: {p}"))?;
    if front != front2 {
        return Err("analyze_model is nondeterministic across identical runs".to_string());
    }

    let cfg = LintConfig::new();
    let first = catch(|| slim_lint::lint_network(net, &cfg))
        .map_err(|p| format!("lint_network panicked: {p}"))?;
    let second = catch(|| slim_lint::lint_network(net, &cfg))
        .map_err(|p| format!("lint_network panicked on second run: {p}"))?;
    if first != second {
        return Err("lint_network is nondeterministic across identical runs".to_string());
    }

    // The analyze pre-flight decision must match the raw deny count, and
    // must accept every generated model (the generator stays inside the
    // validity envelope by construction).
    match slim_lint::preflight(net, &cfg) {
        Ok(diags) => {
            if slim_lint::error_count(&diags) > 0 {
                return Err("preflight accepted a model with deny-level lints".to_string());
            }
            Ok(())
        }
        Err(diags) => Err(format!(
            "preflight rejects a generated model: {}",
            diags
                .iter()
                .filter(|d| d.severity == slim_lint::Severity::Error)
                .map(|d| format!("{} {}", d.code, d.message))
                .collect::<Vec<_>>()
                .join("; ")
        )),
    }
}

fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string())
    })
}

// ---- compiled vs legacy ----

/// Deterministic linear-congruential driver for the differential walk
/// (kept independent of `StdRng` so the walk is part of the oracle's
/// identity, mirroring `tests/compiled_equivalence.rs`).
fn lcg(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *s >> 33
}

fn compiled_equivalence(
    model: &GeneratedModel,
    net: &Network,
    tables: &slim_automata::compiled::StepTables,
    cfg: &OracleConfig,
) -> Result<(), String> {
    let mut s = StepScratch::new();
    let mut window = IntervalSet::empty();
    let mut seed = derive_seed(model.seed, model.index) | 1;

    for _walk in 0..cfg.equivalence_walks {
        let mut st = net.initial_state().map_err(|e| format!("initial state: {e}"))?;
        let mut st_c = st.clone();
        for step in 0..cfg.equivalence_steps {
            if st != st_c {
                return Err(format!("states diverged before step {step}"));
            }
            let w = net.delay_window(&st).map_err(|e| format!("legacy delay_window: {e}"))?;
            net.delay_window_into(tables, &mut s, &st_c, &mut window)
                .map_err(|e| format!("compiled delay_window: {e}"))?;
            if w != window {
                return Err(format!("delay windows diverged at step {step}: {w:?} vs {window:?}"));
            }

            let cands =
                net.guarded_candidates(&st).map_err(|e| format!("legacy candidates: {e}"))?;
            net.guarded_candidates_into(tables, &mut s, &st_c)
                .map_err(|e| format!("compiled candidates: {e}"))?;
            let compiled = s.candidates();
            if cands.len() != compiled.len() {
                return Err(format!(
                    "candidate count diverged at step {step}: {} vs {}",
                    cands.len(),
                    compiled.len()
                ));
            }
            for (l, c) in cands.iter().zip(compiled) {
                if l.transition.action != c.action
                    || l.transition.parts != c.parts
                    || l.window != c.window
                    || l.urgent != c.urgent
                {
                    return Err(format!(
                        "candidate diverged at step {step}: action {:?} vs {:?}",
                        l.transition.action, c.action
                    ));
                }
            }

            let markov = net.markovian_candidates(&st);
            net.markovian_candidates_into(tables, &mut s, &st_c);
            if markov.len() != s.markovian().len() {
                return Err(format!("Markovian count diverged at step {step}"));
            }
            for (l, &(p, t, rate)) in markov.iter().zip(s.markovian()) {
                if l.transition.parts != vec![(p, t)] || l.rate != rate {
                    return Err(format!("Markovian candidate diverged at step {step}"));
                }
            }

            // Drive: a guarded candidate enabled inside the delay window
            // if one exists, else a Markovian jump, else stop this walk.
            let pick = lcg(&mut seed) as usize;
            let fired = cands
                .iter()
                .cycle()
                .skip(pick % cands.len().max(1))
                .take(cands.len())
                .find(|cand| !cand.window.intersect(&w).is_empty());
            let (d, transition) = if let Some(cand) = fired {
                let joint = cand.window.intersect(&w);
                let lo = joint.earliest_point().ok_or("joint window has no earliest point")?;
                let frac = (lcg(&mut seed) % 101) as f64 / 100.0;
                let d = match joint.sup().filter(|sup| sup.is_finite()) {
                    Some(sup) => lo + (sup - lo).max(0.0) * frac * 0.5,
                    None => lo,
                };
                (if joint.contains(d) { d } else { lo }, cand.transition.clone())
            } else if !markov.is_empty() {
                let sup = w.sup().unwrap_or(0.0);
                let d = if sup.is_finite() { sup * 0.9 } else { 1.0 };
                let m = &markov[lcg(&mut seed) as usize % markov.len()];
                (d, m.transition.clone())
            } else {
                break;
            };
            st = net.advance(&st, d).map_err(|e| format!("legacy advance: {e}"))?;
            net.advance_mut(tables, &mut s, &mut st_c, d, &window)
                .map_err(|e| format!("compiled advance: {e}"))?;
            if st != st_c {
                return Err(format!("advance diverged at step {step} (d = {d})"));
            }
            st = net.apply(&st, &transition).map_err(|e| format!("legacy apply: {e}"))?;
            net.apply_mut(tables, &mut s, &mut st_c, &transition.parts)
                .map_err(|e| format!("compiled apply: {e}"))?;
        }
    }
    Ok(())
}

// ---- fixpoint soundness ----

fn fixpoint_soundness(
    model: &GeneratedModel,
    net: &Network,
    property: &TimedReach,
    cfg: &OracleConfig,
) -> Result<Option<f64>, String> {
    let pv = (cfg.pre_verdict_fn)(net, property);
    let Some(claim) = pv.exact_probability() else {
        return Ok(None);
    };

    // Challenge the exact claim with independent sampled paths, the
    // pre-verdict machinery bypassed entirely.
    let generator = PathGenerator::new(net, property, cfg.max_steps);
    let mut scratch = SimScratch::new();
    let sim_seed = derive_seed(model.seed, model.index ^ SOUNDNESS_SEED_TAG);
    for i in 0..cfg.soundness_paths {
        let mut rng = path_rng(sim_seed, i);
        let mut strategy = StrategyKind::Asap.instantiate();
        let outcome = match generator.generate_with(
            &mut scratch,
            strategy.as_mut(),
            &mut rng,
            &mut NoHooks,
        ) {
            Ok(o) => o,
            // A path cut by the step budget proves nothing either way.
            Err(SimError::StepLimitExceeded { .. }) => continue,
            Err(e) => return Err(format!("simulation error on path {i}: {e}")),
        };
        let success = outcome.verdict.is_success();
        if claim == 0.0 && success {
            // Covers timed claims too: a success verdict means the goal
            // was reached *inside* the property deadline, so it refutes
            // `deadline-unreachable` exactly as it refutes `unreachable`.
            return Err(format!(
                "fixpoint claims P = 0 ({pv}) but path {i} (seed {sim_seed}) hits the \
                 goal at t = {}",
                outcome.end_time
            ));
        }
        if claim == 1.0 && !success {
            return Err(format!(
                "fixpoint claims P = 1 but path {i} (seed {sim_seed}) ends with {:?}",
                outcome.verdict
            ));
        }
    }
    Ok(Some(claim))
}

// ---- kernel equivalence ----

/// Challenges the production kernel against the plain reference kernel.
/// The default tables turn on whole-program specialization, write-set–
/// masked flows and the incremental-enabledness cache;
/// the reference tables turn all of them off. The batched driver adds
/// its lane determinism contract. For the same `(seed, index)` stream,
/// the production kernel — scalar, and batched four lanes at a time on
/// a scratch deliberately left dirty between batches — must reproduce
/// the reference kernel's per-path outcome (verdict, step count, end
/// time) or the *same* error. Path `i` runs strategy
/// `ALL_EXTENDED[i % 5]`, so ASAP, Progressive, Local, MaxTime and
/// transition-first are all compared; a batch runs one strategy over
/// the indices `s, s + 5, …` that use it.
fn kernel_equivalence(
    model: &GeneratedModel,
    net: &Network,
    property: &TimedReach,
    cfg: &OracleConfig,
) -> Result<(), String> {
    let production = PathGenerator::new(net, property, cfg.max_steps);
    let reference = PathGenerator::with_compile_options(
        net,
        property,
        cfg.max_steps,
        &CompileOptions::reference(),
    );
    let sim_seed = derive_seed(model.seed, model.index ^ KERNEL_SEED_TAG);
    let total = cfg.soundness_paths;
    let kinds = StrategyKind::ALL_EXTENDED;
    let stride = kinds.len() as u64;
    let mismatch = |i: u64, leg: &str, want: &Result<PathOutcome, String>, got| {
        let kind = kinds[(i % stride) as usize];
        format!(
            "path {i} (seed {sim_seed}, strategy {kind:?}) diverged between the reference and \
             production kernels ({leg}): reference {want:?}, production {got:?}"
        )
    };

    // Reference stream, scalar, one fresh RNG per path index.
    let mut scratch = SimScratch::new();
    let run = |gen: &PathGenerator, scratch: &mut SimScratch, i: u64| {
        let mut rng = path_rng(sim_seed, i);
        let mut strategy = kinds[(i % stride) as usize].instantiate();
        gen.generate_with(scratch, strategy.as_mut(), &mut rng, &mut NoHooks)
            .map_err(|e| e.to_string())
    };
    let reference: Vec<Result<PathOutcome, String>> =
        (0..total).map(|i| run(&reference, &mut scratch, i)).collect();

    for i in 0..total {
        let got = run(&production, &mut scratch, i);
        if got != reference[i as usize] {
            return Err(mismatch(i, "scalar", &reference[i as usize], got));
        }
    }

    // The same stream through the batched driver; the scratch stays
    // dirty across batches so stale lane state can never leak. Batches
    // run their lanes one after another, so a single width exercises the
    // lane loop; four lanes already cross a batch boundary.
    const LANES: u64 = 4;
    let mut batch_scratch = BatchScratch::new();
    let mut batch = Vec::new();
    for s in 0..stride.min(total) {
        let mut strategy = kinds[s as usize].instantiate();
        let mut start = s;
        while start < total {
            let count = (total - start).div_ceil(stride).min(LANES);
            production.generate_batch_hooked(
                &mut batch_scratch,
                strategy.as_mut(),
                sim_seed,
                start,
                stride,
                count as usize,
                &mut NoHooks,
                &mut batch,
            );
            for (j, got) in batch.drain(..).enumerate() {
                let i = start + stride * j as u64;
                let got = got.map_err(|e| e.to_string());
                if got != reference[i as usize] {
                    return Err(mismatch(i, "batched", &reference[i as usize], got));
                }
            }
            start += stride * count;
        }
    }
    Ok(())
}

// ---- prune invariance ----

fn prune_invariance(
    model: &GeneratedModel,
    net: &Network,
    property: &TimedReach,
    cfg: &OracleConfig,
) -> Result<(), String> {
    let fx = analyze_network(net);
    let mut plan = fx.prune_plan(net);
    keep_goal_locations(&property.goal, &mut plan);
    if plan.is_noop() {
        return Ok(());
    }
    let (pruned, maps) = net.prune(&plan);
    let pruned_property = TimedReach {
        goal: remap_goal(property.goal.clone(), &maps),
        hold: property.hold.clone().map(|h| remap_goal(h, &maps)),
        bound: property.bound,
    };

    let sim_seed = derive_seed(model.seed, model.index ^ INVARIANCE_SEED_TAG);
    // The oracle's own step budget applies here too: generated models may
    // be Zeno (cycles of always-enabled guarded transitions), and the
    // default 1M-step cap would make each such path a slog.
    let mut sim_cfg = SimConfig::default()
        .with_accuracy(cfg.invariance_accuracy)
        .with_seed(sim_seed)
        .with_workers(cfg.workers)
        .with_deadlock_policy(DeadlockPolicy::Falsify)
        .with_static_pre_verdicts(false);
    sim_cfg.max_steps = cfg.max_steps;
    let full = analyze(net, property, &sim_cfg)
        .map_err(|e| format!("analysis on the full network failed: {e}"))?;
    let thin = analyze(&pruned, &pruned_property, &sim_cfg)
        .map_err(|e| format!("analysis on the pruned network failed: {e}"))?;

    let (a, b) = (full.estimate, thin.estimate);
    if a.mean.to_bits() != b.mean.to_bits() || a.samples != b.samples || a.successes != b.successes
    {
        return Err(format!(
            "estimates diverge under --prune at seed {sim_seed}, workers {}: \
             full {}/{} (mean {}), pruned {}/{} (mean {}); \
             {} transitions and {} locations were pruned",
            cfg.workers,
            a.successes,
            a.samples,
            a.mean,
            b.successes,
            b.samples,
            b.mean,
            plan.dropped_transitions(),
            plan.dropped_locations(),
        ));
    }
    Ok(())
}

/// Pins every location the goal names into the prune plan (mirrors the
/// CLI's `--prune` path).
fn keep_goal_locations(goal: &Goal, plan: &mut PrunePlan) {
    match goal {
        Goal::Expr(_) => {}
        Goal::InLocation(p, l) => plan.keep_location(*p, *l),
        Goal::And(a, b) | Goal::Or(a, b) => {
            keep_goal_locations(a, plan);
            keep_goal_locations(b, plan);
        }
        Goal::Not(a) => keep_goal_locations(a, plan),
    }
}

/// Rewrites the goal's location atoms through the prune maps.
fn remap_goal(goal: Goal, maps: &PruneMaps) -> Goal {
    match goal {
        Goal::Expr(e) => Goal::Expr(e),
        Goal::InLocation(p, l) => {
            let new = maps.locs[p.0][l.0].expect("goal locations are pinned before pruning");
            Goal::InLocation(p, new)
        }
        Goal::And(a, b) => {
            Goal::And(Box::new(remap_goal(*a, maps)), Box::new(remap_goal(*b, maps)))
        }
        Goal::Or(a, b) => Goal::Or(Box::new(remap_goal(*a, maps)), Box::new(remap_goal(*b, maps))),
        Goal::Not(a) => Goal::Not(Box::new(remap_goal(*a, maps))),
    }
}
