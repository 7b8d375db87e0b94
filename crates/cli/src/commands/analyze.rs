//! `slimsim analyze` — Monte Carlo timed-reachability analysis.

use crate::args::Args;
use crate::common::{
    load_bound, load_config, load_goal, load_hold, load_network_spanned, profile_labels_with_spans,
    start_event,
};
use slim_automata::network::{PruneMaps, PrunePlan};
use slim_obs::{
    ConfigInfo, EstimateInfo, HostInfo, ModelInfo, PathInfo, ProfileReport, ProgressMeter,
    PropertyInfo, RunReport, WorkerInfo, SCHEMA_VERSION,
};
use slim_stats::rng::path_rng;
use slimsim_core::prelude::*;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Runs the analysis and prints the estimate.
pub fn run(args: &Args) -> Result<(), String> {
    let load_start = Instant::now();
    let (net, mut spans) = load_network_spanned(args)?;
    let load_time = load_start.elapsed();

    // Pre-flight lint stage: surface suspicious model structure before
    // spending simulation time. `--no-lint` skips it, `--deny-lints`
    // escalates warnings to hard errors.
    if !args.has_flag("no-lint") {
        let cfg = super::lint::load_lint_config(args)?;
        match slim_lint::preflight(&net, &cfg) {
            Ok(diags) => {
                if !diags.is_empty() && !args.has_flag("quiet") {
                    eprintln!("{}", slim_lint::render_text_all(&diags, None));
                }
            }
            Err(diags) => {
                if !args.has_flag("quiet") {
                    eprintln!("{}", slim_lint::render_text_all(&diags, None));
                }
                let errors = slim_lint::error_count(&diags);
                return Err(format!(
                    "{errors} error-level lint(s); fix the model or pass --no-lint to proceed anyway"
                ));
            }
        }
    }

    let goal = load_goal(args, &net)?;
    let hold = load_hold(args, &net)?;
    let bound = load_bound(args)?;
    let config = load_config(args)?;
    let property = match hold {
        None => TimedReach::new(goal, bound),
        Some(h) => TimedReach::until(h, goal, bound),
    };

    // Static-analysis consumers: `--analysis-summary <path>` writes the
    // fixpoint's proof artifact; `--prune` strips statically dead
    // transitions and locations before the step tables are compiled.
    // Pruning is observationally invisible — estimates are byte-identical
    // at any fixed (seed, workers); see `Network::prune`. The summary
    // always describes the network as loaded, pre-prune.
    let summary_path = args.options.get("analysis-summary");
    let (net, property) = if summary_path.is_some() || args.has_flag("prune") {
        let opts = slim_analysis::AnalysisOptions {
            zones: !args.has_flag("no-zones"),
            deadline: Some(property.bound),
        };
        let fix = slim_analysis::analyze_network_with(&net, &opts);
        if let Some(path) = summary_path {
            // Seed the distance-to-goal map from the property's goal, so
            // the summary carries per-location splitting levels.
            let mut targets = goal_distance_targets(&net, &fix, &property.goal);
            if let Some(h) = &property.hold {
                targets.extend(goal_distance_targets(&net, &fix, h));
            }
            let text = fix.summary_with_goals(&net, &targets).render_json() + "\n";
            std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            if !args.has_flag("quiet") {
                outln!("analysis   : proof summary written to {path}");
            }
        }
        if args.has_flag("prune") {
            let mut plan = fix.prune_plan(&net);
            // Locations named by the property must survive so their
            // `LocId`s can be remapped onto the pruned network.
            keep_goal_locations(&property.goal, &mut plan);
            if let Some(h) = &property.hold {
                keep_goal_locations(h, &mut plan);
            }
            if plan.is_noop() {
                if !args.has_flag("quiet") {
                    outln!("prune      : nothing statically dead to remove");
                }
                (net, property)
            } else {
                let (dropped_t, dropped_l) = (plan.dropped_transitions(), plan.dropped_locations());
                let (pruned, maps) = net.prune(&plan);
                if !args.has_flag("quiet") {
                    outln!(
                        "prune      : removed {dropped_t} transition(s), {dropped_l} location(s)"
                    );
                }
                let property = TimedReach {
                    goal: remap_goal(property.goal, &maps),
                    hold: property.hold.map(|h| remap_goal(h, &maps)),
                    bound: property.bound,
                };
                // Pruning renumbers transitions; remap the lowering's
                // span table through the id maps so profiler heat maps
                // and lints keep file:line:col on the pruned model.
                spans = remap_spans(&spans, &pruned, &maps);
                (pruned, property)
            }
        } else {
            (net, property)
        }
    } else {
        (net, property)
    };

    if args.has_flag("trace") {
        print_sample_path(args, &net, &property, &config, None)?;
    } else if let Some(path) = args.options.get("trace-csv") {
        print_sample_path(args, &net, &property, &config, Some(path))?;
    }

    // Observability: `--report <path>` captures a full RunReport JSON
    // document, `--progress` renders a throttled live line on stderr,
    // and `--trace-dir`/`--witnesses` selects witness paths for capture.
    // All share one observer; without any of them, `analyze_observed`
    // gets `None` and the run is instrumentation-free.
    let report_path = args.options.get("report");
    let want_progress = args.has_flag("progress");
    let trace_dir = args.options.get("trace-dir");
    let want_witnesses = trace_dir.is_some() || args.options.contains_key("witnesses");
    let observer = if report_path.is_some() || want_progress || want_witnesses {
        let mut obs = SimObserver::new(config.workers.max(1));
        obs.record_phase("load", load_time);
        if want_progress {
            let meter = Mutex::new(ProgressMeter::new(Duration::from_millis(100)));
            obs = obs.with_progress(Box::new(move |done, target, estimate| {
                if let Some(line) = meter.lock().unwrap().tick(done, target, estimate) {
                    eprint!("\r\x1b[2K{line}");
                }
            }));
        }
        if want_witnesses {
            obs = obs.with_witness_capture(args.opt_usize("witnesses", 2)?);
        }
        Some(obs)
    } else {
        None
    };

    // `--profile <file>` swaps in the profiled runner: same estimate and
    // metrics, plus a kernel profile written as its own JSON document
    // (and embedded into the run report when `--report` is also given).
    // The profiled runner skips the pre-verdict short-circuit and
    // requires a fixed-target generator; see `analyze_profiled`.
    let profile_path = args.options.get("profile");
    let (result, profile_report) = if let Some(ppath) = profile_path {
        let (result, profile) = analyze_profiled(&net, &property, &config, observer.as_ref())
            .map_err(|e| e.to_string())?;
        let labels = profile_labels_with_spans(&net, &spans);
        let model = args.positional.first().cloned().unwrap_or_default();
        let report = ProfileReport::from_profile(
            &profile,
            &labels,
            &model,
            config.seed,
            result.estimate.samples,
        );
        let text = report.to_json().to_pretty() + "\n";
        std::fs::write(ppath, text).map_err(|e| format!("cannot write `{ppath}`: {e}"))?;
        if !args.has_flag("quiet") {
            outln!("profile    : {ppath}");
        }
        (result, Some(report))
    } else {
        let result = analyze_observed(&net, &property, &config, observer.as_ref())
            .map_err(|e| e.to_string())?;
        (result, None)
    };
    if want_progress {
        eprintln!();
    }
    if want_witnesses {
        let obs = observer.as_ref().expect("witness capture implies an observer");
        write_witnesses(args, &net, &property, &config, obs, trace_dir.map(String::as_str))?;
    }
    if let (Some(path), Some(obs)) = (report_path, observer.as_ref()) {
        let report = build_report(args, &net, &property, &config, &result, obs, profile_report);
        let text = report.to_json().to_pretty() + "\n";
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        if !args.has_flag("quiet") {
            outln!("report     : {path}");
        }
    }
    if !args.has_flag("quiet") {
        outln!("model      : {} automata, {} variables", net.automata().len(), net.vars().len());
        if property.hold.is_some() {
            outln!("property   : P(hold U[0,{bound}] goal)");
        } else {
            outln!("property   : P(◇[0,{bound}] goal)");
        }
        outln!("strategy   : {}", config.strategy);
        outln!("generator  : {}", config.generator);
        outln!("workers    : {}", config.workers);
        if let Some(p) = result.pre_verdict.exact_probability() {
            outln!(
                "pre-verdict: {} — exact P = {p} from the static fixpoint, no samples drawn",
                result.pre_verdict
            );
        }
        outln!(
            "paths      : {} (satisfied {}, bound-exceeded {}, hold-violated {}, deadlock {}, timelock {})",
            result.stats.total(),
            result.stats.satisfied,
            result.stats.time_bound_exceeded,
            result.stats.hold_violated,
            result.stats.deadlocks,
            result.stats.timelocks,
        );
        outln!("mean steps : {:.1}", result.stats.mean_steps());
        if let Some(mean_t) = result.stats.mean_satisfaction_time() {
            outln!(
                "goal hits  : mean t={:.4}, min t={:.4}, max t={:.4}",
                mean_t,
                result.stats.min_satisfaction_time().unwrap_or(0.0),
                result.stats.max_satisfaction_time().unwrap_or(0.0)
            );
        }
        outln!("wall time  : {:?}", result.wall);
        outln!("memory     : ~{} KiB", result.approx_memory_bytes / 1024);
    }
    outln!("{}", result.estimate);
    Ok(())
}

/// Assembles the [`RunReport`] for `--report` from the analysis result
/// and the observer's metrics, phases, and per-worker stats.
fn build_report(
    args: &Args,
    net: &slim_automata::prelude::Network,
    property: &TimedReach,
    config: &SimConfig,
    result: &AnalysisResult,
    obs: &SimObserver,
    profile: Option<ProfileReport>,
) -> RunReport {
    let goal = match (args.options.get("goal-var"), args.options.get("goal-loc")) {
        (Some(v), Some(l)) => format!("var {v} | loc {l}"),
        (Some(v), None) => format!("var {v}"),
        (None, Some(l)) => format!("loc {l}"),
        (None, None) => "default failure flag".to_string(),
    };
    let stats = &result.stats;
    let workers = obs
        .worker_stats()
        .iter()
        .enumerate()
        .map(|(w, s)| {
            let busy_secs = s.busy_nanos as f64 / 1e9;
            WorkerInfo {
                worker: w as u64,
                paths: s.paths,
                satisfied: s.satisfied,
                busy_ms: busy_secs * 1e3,
                paths_per_sec: if busy_secs > 0.0 { s.paths as f64 / busy_secs } else { 0.0 },
            }
        })
        .collect();
    RunReport {
        schema_version: SCHEMA_VERSION,
        tool_name: "slimsim".to_string(),
        tool_version: env!("CARGO_PKG_VERSION").to_string(),
        host: HostInfo::current(),
        model: ModelInfo {
            name: args.positional.first().cloned().unwrap_or_default(),
            automata: net.automata().len() as u64,
            variables: net.vars().len() as u64,
        },
        property: PropertyInfo {
            kind: if property.hold.is_some() { "bounded-until" } else { "timed-reachability" }
                .to_string(),
            bound: property.bound,
            goal,
        },
        config: ConfigInfo {
            epsilon: config.accuracy.epsilon(),
            delta: config.accuracy.delta(),
            strategy: config.strategy.to_string(),
            generator: config.generator.to_string(),
            deadlock_policy: match config.deadlock_policy {
                DeadlockPolicy::Falsify => "falsify".to_string(),
                DeadlockPolicy::Error => "error".to_string(),
            },
            max_steps: config.max_steps,
            seed: config.seed,
            workers: config.workers as u64,
        },
        estimate: EstimateInfo {
            mean: result.estimate.mean,
            epsilon: result.estimate.epsilon,
            confidence: result.estimate.confidence,
            samples: result.estimate.samples,
            successes: result.estimate.successes,
        },
        convergence: obs.convergence(),
        pre_verdict: Some(result.pre_verdict.as_str().to_string()),
        paths: PathInfo {
            satisfied: stats.satisfied,
            time_bound_exceeded: stats.time_bound_exceeded,
            hold_violated: stats.hold_violated,
            deadlock: stats.deadlocks,
            timelock: stats.timelocks,
            step_limit: stats.step_limited,
            total: stats.total(),
            total_steps: stats.total_steps,
            mean_steps: stats.mean_steps(),
            mean_satisfaction_time: stats.mean_satisfaction_time(),
            min_satisfaction_time: stats.min_satisfaction_time(),
            max_satisfaction_time: stats.max_satisfaction_time(),
        },
        wall_ms: result.wall.as_secs_f64() * 1e3,
        approx_memory_bytes: result.approx_memory_bytes as u64,
        phases: obs
            .phases()
            .iter()
            .map(|(name, d)| (name.clone(), d.as_secs_f64() * 1e3))
            .collect(),
        workers,
        metrics: obs.snapshot(),
        profile,
    }
}

/// Rebuilds the transition span table for a pruned network: surviving
/// transitions keep their original `file:line:col`, dropped ones vanish
/// with their rows renumbered densely, matching the pruned ids.
fn remap_spans(
    spans: &[Vec<Option<String>>],
    pruned: &slim_automata::prelude::Network,
    maps: &PruneMaps,
) -> Vec<Vec<Option<String>>> {
    let mut out: Vec<Vec<Option<String>>> =
        pruned.automata().iter().map(|a| vec![None; a.transitions.len()]).collect();
    for (p, row) in spans.iter().enumerate() {
        for (t, span) in row.iter().enumerate() {
            if let Some(new_t) = maps.trans.get(p).and_then(|m| m.get(t)).copied().flatten() {
                out[p][new_t.0] = span.clone();
            }
        }
    }
    out
}

/// Pins every location the goal names into the prune plan, so the
/// property stays expressible on the pruned network.
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

/// Rewrites the goal's location atoms through the prune maps. Variables
/// are never pruned, so expression atoms pass through unchanged.
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

/// Re-generates the selected witness paths and writes them as JSON-lines
/// traces into `--trace-dir` (or just summarizes the selection without
/// one). File names are `witness-{goal|lock}-{index:06}.jsonl`; each file
/// starts with a self-describing `Start` header so `slimsim replay` can
/// rebuild the run from the trace alone.
fn write_witnesses(
    args: &Args,
    net: &slim_automata::prelude::Network,
    property: &TimedReach,
    config: &SimConfig,
    obs: &SimObserver,
    trace_dir: Option<&str>,
) -> Result<(), String> {
    let selector = obs.witness_selection().expect("observer was built with witness capture");
    let witnesses = capture_witnesses(net, property, config, &selector, TraceOptions::default())
        .map_err(|e| e.to_string())?;
    let quiet = args.has_flag("quiet");
    if !quiet {
        outln!(
            "witnesses  : {} goal, {} lock (first {} per category)",
            selector.goal().len(),
            selector.lock().len(),
            selector.capacity()
        );
    }
    let Some(dir) = trace_dir else {
        if !quiet && !witnesses.is_empty() {
            outln!("             pass --trace-dir <dir> to write witness traces");
        }
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    for w in &witnesses {
        let mut events = Vec::with_capacity(w.events.len() + 1);
        events.push(start_event(args, config, property, w.index));
        events.extend(w.events.iter().cloned());
        let name = format!("witness-{}-{:06}.jsonl", w.category.code(), w.index);
        let path = std::path::Path::new(dir).join(&name);
        std::fs::write(&path, events_to_json_lines(&events))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        if !quiet {
            outln!(
                "             path {} ({}, {} at t={:.6}) -> {}",
                w.index,
                w.category.code(),
                w.outcome.verdict,
                w.outcome.end_time,
                path.display()
            );
        }
    }
    Ok(())
}

/// Generates and prints one seeded path (the `--trace` flag).
fn print_sample_path(
    args: &Args,
    net: &slim_automata::prelude::Network,
    property: &TimedReach,
    config: &SimConfig,
    csv_path: Option<&str>,
) -> Result<(), String> {
    let gen = PathGenerator::new(net, property, config.max_steps);
    let mut strategy = config.strategy.instantiate();
    let mut rng = path_rng(config.seed, 0);
    let mut sink = MemorySink::default();
    let outcome = {
        let mut tracer = PathTracer::new(net, &mut sink);
        tracer.emit(start_event(args, config, property, 0));
        gen.generate_with(&mut SimScratch::new(), strategy.as_mut(), &mut rng, &mut tracer)
    }
    .map_err(|e| e.to_string())?;
    if let Some(path) = csv_path {
        std::fs::write(path, events_to_csv(&sink.events))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        outln!("sample path (seed {}, path 0) written to {path}", config.seed);
        return Ok(());
    }
    outln!("--- sample path (seed {}, path 0) ---", config.seed);
    for event in &sink.events {
        outln!("  {event}");
    }
    outln!(
        "  verdict: {} at t={:.6} after {} steps",
        outcome.verdict,
        outcome.end_time,
        outcome.steps
    );
    outln!("--------------------------------------");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn analyze_builtin_runs() {
        let a =
            args("analyze sensor-filter --size 2 --bound 1.0 --epsilon 0.2 --delta 0.2 --quiet");
        run(&a).expect("analysis succeeds");
    }

    #[test]
    fn analyze_until_runs() {
        let a = args(
            "analyze launcher --bound 0.5 --epsilon 0.2 --delta 0.2 --hold-var nav.ok --quiet",
        );
        run(&a).expect("until analysis succeeds");
    }

    #[test]
    fn analyze_requires_bound() {
        let a = args("analyze gps --goal-var gps.measurement");
        assert!(run(&a).is_err());
    }

    #[test]
    fn report_written_and_schema_valid_with_workers() {
        let path = std::env::temp_dir().join("slimsim_test_analyze_report.json");
        let a = args(&format!(
            "analyze voting --bound 1.0 --epsilon 0.2 --delta 0.2 --workers 2 --quiet --report {}",
            path.display()
        ));
        run(&a).expect("analysis with report succeeds");
        let text = std::fs::read_to_string(&path).unwrap();
        let report =
            RunReport::from_json(&slim_obs::Json::parse(&text).unwrap()).expect("schema parses");
        assert_eq!(report.validate(), Vec::<String>::new());
        assert_eq!(report.config.workers, 2);
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.model.name, "voting");
        for phase in ["load", "simulate", "estimate"] {
            assert!(report.phases.iter().any(|(n, _)| n == phase), "missing phase {phase}");
        }
        assert!(report.metrics.counters["sim.steps_total"] > 0);
        // Schema v2: the convergence series is populated and ends at the
        // final estimate.
        assert!(!report.convergence.is_empty());
        let last = report.convergence.last().unwrap();
        assert_eq!(last.samples, report.estimate.samples);
        assert!((last.mean - report.estimate.mean).abs() < 1e-12);
        let _ = std::fs::remove_file(&path);
    }

    /// Path of a model under `examples/models/` relative to this crate.
    fn example(name: &str) -> String {
        format!("{}/../../examples/models/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn prune_differential_identical_reports() {
        // `--prune` must be observationally invisible: at a fixed
        // (seed, workers) the pruned and unpruned runs draw the same
        // paths and produce bit-identical estimates.
        let model = example("prunable.slim");
        let base = std::env::temp_dir().join("slimsim_test_prune_base.json");
        let pruned = std::env::temp_dir().join("slimsim_test_prune_pruned.json");
        let common = format!(
            "analyze {model} --root Pump.Main --bound 1.0 --goal-var root.done \
             --no-lint --seed 11 --epsilon 0.1 --delta 0.1 --quiet"
        );
        run(&args(&format!("{common} --report {}", base.display()))).expect("unpruned run");
        run(&args(&format!("{common} --prune --report {}", pruned.display()))).expect("pruned run");
        let read = |p: &std::path::Path| {
            let text = std::fs::read_to_string(p).unwrap();
            RunReport::from_json(&slim_obs::Json::parse(&text).unwrap()).expect("schema parses")
        };
        let (a, b) = (read(&base), read(&pruned));
        assert_eq!(a.estimate.mean.to_bits(), b.estimate.mean.to_bits());
        assert_eq!(a.estimate.samples, b.estimate.samples);
        assert_eq!(a.estimate.successes, b.estimate.successes);
        assert_eq!(a.paths.total_steps, b.paths.total_steps);
        assert!(a.estimate.samples > 0, "goal must be reachable so sampling runs");
        let _ = std::fs::remove_file(&base);
        let _ = std::fs::remove_file(&pruned);
    }

    #[test]
    fn pre_verdict_unreachable_skips_sampling() {
        // The static fixpoint proves `done` unreachable in broken.slim,
        // so the analysis returns exact P = 0 without drawing a sample.
        let path = std::env::temp_dir().join("slimsim_test_preverdict_report.json");
        let a = args(&format!(
            "analyze {} --root Probe.Main --bound 2.0 --goal-var root.done \
             --no-lint --quiet --report {}",
            example("broken.slim"),
            path.display()
        ));
        run(&a).expect("analysis succeeds");
        let text = std::fs::read_to_string(&path).unwrap();
        let report =
            RunReport::from_json(&slim_obs::Json::parse(&text).unwrap()).expect("schema parses");
        assert_eq!(report.pre_verdict.as_deref(), Some("unreachable"));
        assert_eq!(report.estimate.samples, 0);
        assert_eq!(report.estimate.mean, 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deadline_miss_pre_verdict_skips_sampling() {
        // The clock-zone fixpoint proves `done` cannot be set before
        // t = 8, so a bound of 2 short-circuits with exact P = 0.
        let path = std::env::temp_dir().join("slimsim_test_deadline_report.json");
        let common = format!(
            "analyze {} --root Timer.Main --bound 2.0 --goal-var root.done \
             --no-lint --epsilon 0.2 --delta 0.2 --quiet",
            example("deadline.slim")
        );
        run(&args(&format!("{common} --report {}", path.display()))).expect("analysis succeeds");
        let text = std::fs::read_to_string(&path).unwrap();
        let report =
            RunReport::from_json(&slim_obs::Json::parse(&text).unwrap()).expect("schema parses");
        assert_eq!(report.validate(), Vec::<String>::new());
        assert_eq!(report.pre_verdict.as_deref(), Some("deadline-unreachable"));
        assert_eq!(report.estimate.samples, 0);
        assert_eq!(report.estimate.mean, 0.0);

        // `--no-zones` opts out: interval-only analysis cannot decide the
        // deadline, so the run falls back to sampling.
        run(&args(&format!("{common} --no-zones --report {}", path.display())))
            .expect("no-zones analysis succeeds");
        let text = std::fs::read_to_string(&path).unwrap();
        let report =
            RunReport::from_json(&slim_obs::Json::parse(&text).unwrap()).expect("schema parses");
        assert_eq!(report.pre_verdict.as_deref(), Some("unknown"));
        assert!(report.estimate.samples > 0, "sampling must actually run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prune_keeps_spans_for_profile_labels() {
        // PR 8 cleared the span table under `--prune`; spans must now be
        // remapped through the prune id maps so profiler heat maps keep
        // file:line:col labels on the surviving transitions.
        let ppath = std::env::temp_dir().join("slimsim_test_prune_profile.json");
        let a = args(&format!(
            "analyze {} --root Pump.Main --bound 1.0 --goal-var root.done \
             --no-lint --seed 11 --epsilon 0.2 --delta 0.2 --quiet --prune --profile {}",
            example("prunable.slim"),
            ppath.display()
        ));
        run(&a).expect("pruned profiled run succeeds");
        let text = std::fs::read_to_string(&ppath).unwrap();
        assert!(
            text.contains("prunable.slim:"),
            "profile labels lost their source spans under --prune: {text}"
        );
        let _ = std::fs::remove_file(&ppath);
    }

    #[test]
    fn analysis_summary_carries_distance_to_goal() {
        let spath = std::env::temp_dir().join("slimsim_test_summary_distance.json");
        let a = args(&format!(
            "analyze {} --root Timer.Main --bound 20.0 --goal-var root.done \
             --no-lint --epsilon 0.2 --delta 0.2 --quiet --analysis-summary {}",
            example("deadline.slim"),
            spath.display()
        ));
        run(&a).expect("analysis with summary succeeds");
        let text = std::fs::read_to_string(&spath).unwrap();
        assert!(text.contains("\"kind\":\"analysis-summary\""), "{text}");
        assert!(text.contains("\"schema_version\":2"), "{text}");
        // The goal writes `done` from mode `ready`, so `ready` is the
        // offset-1 seed and `arm` sits one live hop further out.
        assert!(
            text.contains(
                "\"location\":\"ready\",\"reachable\":true,\"min_time\":5.0,\"steps_to_goal\":1"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "\"location\":\"arm\",\"reachable\":true,\"min_time\":0.0,\"steps_to_goal\":2"
            ),
            "{text}"
        );
        let _ = std::fs::remove_file(&spath);
    }

    #[test]
    fn trace_csv_written() {
        let path = std::env::temp_dir().join("slimsim_test_trace.csv");
        let a = args(&format!(
            "analyze gps --bound 1.0 --goal-var gps.measurement --epsilon 0.2 --delta 0.2 --quiet --trace-csv {}",
            path.display()
        ));
        run(&a).expect("analysis with trace succeeds");
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("time,kind"));
        let _ = std::fs::remove_file(&path);
    }
}
