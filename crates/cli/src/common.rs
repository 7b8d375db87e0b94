//! Shared plumbing for the CLI commands: model loading, goal parsing,
//! configuration assembly.

use crate::args::Args;
use slim_automata::prelude::{profile_labels, profile_shape, Expr, Network};
use slim_lang::{lower, parse};
use slim_obs::ProfileLabels;

/// Per-transition source spans (`file:line:col`), indexed
/// `[automaton][transition]` in network order. Empty for built-in
/// models; `None` entries mark synthesized transitions.
pub type SpanTable = Vec<Vec<Option<String>>>;
use slim_models::{
    gps_network, launcher_network, power_system_network, repair_network, sensor_filter_network,
    voting_network, DpuFaultMode, GpsParams, LauncherParams, PowerSystemParams, RepairParams,
    SensorFilterParams, VotingParams,
};
use slim_stats::{Accuracy, GeneratorKind};
use slimsim_core::prelude::*;

/// Writes to stdout. A reader that went away (`slimsim … | head`) ends
/// the process with exit code 0: nobody is left to read the rest. Any
/// other write error ends it with exit code 1.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::{ErrorKind, Write};
    if cfg!(test) {
        // Unit tests keep the harness's output capture, which only
        // `print!` feeds.
        print!("{args}");
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// Loads the analyzed network: either a SLIM file (with `--root Type.Impl`)
/// or a built-in model (`gps`, `launcher`, `launcher-permanent`,
/// `sensor-filter`, with optional `--size n`).
pub fn load_network(args: &Args) -> Result<Network, String> {
    load_network_spanned(args).map(|(net, _)| net)
}

/// Like [`load_network`], but also returns the per-transition source
/// spans as `file:line:col` strings, indexed `[automaton][transition]`
/// in network order. Built-in models are constructed programmatically
/// and have no source text, so their span table is empty; profile
/// consumers fall back to structural labels.
pub fn load_network_spanned(args: &Args) -> Result<(Network, SpanTable), String> {
    let target = args
        .positional
        .first()
        .ok_or("expected a model: a .slim file or gps|launcher|launcher-permanent|launcher-threeclass|power-system|sensor-filter|voting|repair")?;
    let no_spans = |net: Network| (net, Vec::new());
    match target.as_str() {
        "gps" => Ok(no_spans(gps_network(&GpsParams::default()))),
        "launcher" => Ok(no_spans(launcher_network(&LauncherParams::default()))),
        "launcher-permanent" => Ok(no_spans(launcher_network(&LauncherParams {
            dpu_faults: DpuFaultMode::Permanent,
            ..Default::default()
        }))),
        "launcher-threeclass" => Ok(no_spans(launcher_network(&LauncherParams {
            dpu_faults: DpuFaultMode::ThreeClass,
            ..Default::default()
        }))),
        "power-system" => Ok(no_spans(power_system_network(&PowerSystemParams::default()))),
        "voting" => Ok(no_spans(voting_network(&VotingParams::default()))),
        "repair" => Ok(no_spans(repair_network(&RepairParams::default()))),
        "sensor-filter" => {
            let size = args.opt_usize("size", 2)?;
            Ok(no_spans(sensor_filter_network(&SensorFilterParams {
                redundancy: size,
                ..Default::default()
            })))
        }
        path => {
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let model = parse(&src).map_err(|e| format!("{path}: {e}"))?;
            let root = args.required("root")?;
            let (ty, im) = root
                .split_once('.')
                .ok_or_else(|| format!("--root must be Type.Impl, got `{root}`"))?;
            let name = args.opt("name", "root");
            let lowered = lower(&model, ty, im, name).map_err(|e| format!("{path}: {e}"))?;
            let spans = lowered
                .transition_spans
                .iter()
                .map(|ts| ts.iter().map(|p| p.map(|pos| format!("{path}:{pos}"))).collect())
                .collect();
            Ok((lowered.network, spans))
        }
    }
}

/// Builds [`ProfileLabels`] for `net`, overlaying source spans from the
/// lowering's span table (see [`load_network_spanned`]) onto the
/// structural transition labels. An empty span table (built-in models)
/// leaves every span `None`.
pub fn profile_labels_with_spans(net: &Network, spans: &SpanTable) -> ProfileLabels {
    let mut labels = profile_labels(net);
    if spans.is_empty() {
        return labels;
    }
    let shape = profile_shape(net);
    for (p, ts) in spans.iter().enumerate() {
        for (t, span) in ts.iter().enumerate() {
            if let Some(s) = span {
                if let Some(slot) =
                    shape.trans_offsets.get(p).and_then(|off| labels.transitions.get_mut(off + t))
                {
                    slot.1 = Some(s.clone());
                }
            }
        }
    }
    labels
}

/// Builds the goal from `--goal-var <name>` (Boolean variable) and/or
/// `--goal-loc <automaton>@<location>`; defaults to the model's `failure`
/// variable if present.
pub fn load_goal(args: &Args, net: &Network) -> Result<Goal, String> {
    let mut goals: Vec<Goal> = Vec::new();
    if let Some(var) = args.options.get("goal-var") {
        let id = net.var_id(var).ok_or_else(|| format!("unknown variable `{var}`"))?;
        goals.push(Goal::expr(Expr::var(id)));
    }
    if let Some(loc) = args.options.get("goal-loc") {
        let (proc, l) = loc
            .split_once('@')
            .ok_or_else(|| format!("--goal-loc must be automaton@location, got `{loc}`"))?;
        goals.push(Goal::in_location(net, proc, l).map_err(|n| format!("unknown location `{n}`"))?);
    }
    if goals.is_empty() {
        // Convention: models expose a Boolean `failure` (launcher) or
        // `monitor.system_failed` (sensor-filter).
        for candidate in [
            "failure",
            "monitor.system_failed",
            "voter.system_failed",
            "sys.failed",
            "plant.ctrl.failed",
        ] {
            if let Some(id) = net.var_id(candidate) {
                return Ok(Goal::expr(Expr::var(id)));
            }
        }
        return Err("no goal: pass --goal-var <name> or --goal-loc <automaton>@<location>".into());
    }
    let mut it = goals.into_iter();
    let first = it.next().expect("nonempty");
    Ok(it.fold(first, Goal::or))
}

/// Assembles the simulation configuration from the common options.
pub fn load_config(args: &Args) -> Result<SimConfig, String> {
    let epsilon = args.opt_f64("epsilon", 0.01)?;
    let delta = args.opt_f64("delta", 0.05)?;
    let accuracy = Accuracy::new(epsilon, delta).map_err(|e| e.to_string())?;
    let strategy = StrategyKind::parse(args.opt("strategy", "progressive"))
        .ok_or_else(|| format!("unknown strategy `{}`", args.opt("strategy", "")))?;
    let generator = match args.opt("generator", "chernoff-hoeffding") {
        "chernoff-hoeffding" | "ch" => GeneratorKind::ChernoffHoeffding,
        "gauss" => GeneratorKind::Gauss,
        "chow-robbins" | "cr" => GeneratorKind::ChowRobbins,
        other => return Err(format!("unknown generator `{other}`")),
    };
    let deadlock_policy = match args.opt("deadlock", "falsify") {
        "falsify" => DeadlockPolicy::Falsify,
        "error" => DeadlockPolicy::Error,
        other => return Err(format!("unknown deadlock policy `{other}`")),
    };
    Ok(SimConfig::default()
        .with_accuracy(accuracy)
        .with_strategy(strategy)
        .with_generator(generator)
        .with_deadlock_policy(deadlock_policy)
        .with_seed(args.opt_u64("seed", 0xC0FFEE)?)
        .with_workers(args.opt_usize("workers", 1)?.max(1))
        .with_zone_pre_verdicts(!args.has_flag("no-zones")))
}

/// Builds the optional `hold` predicate (`--hold-var` / `--hold-loc`) of
/// a bounded-until property `P(hold U[0,u] goal)`.
pub fn load_hold(args: &Args, net: &Network) -> Result<Option<Goal>, String> {
    let mut goals: Vec<Goal> = Vec::new();
    if let Some(var) = args.options.get("hold-var") {
        let id = net.var_id(var).ok_or_else(|| format!("unknown variable `{var}`"))?;
        goals.push(Goal::expr(Expr::var(id)));
    }
    if let Some(loc) = args.options.get("hold-loc") {
        let (proc, l) = loc
            .split_once('@')
            .ok_or_else(|| format!("--hold-loc must be automaton@location, got `{loc}`"))?;
        goals.push(Goal::in_location(net, proc, l).map_err(|n| format!("unknown location `{n}`"))?);
    }
    let mut it = goals.into_iter();
    match it.next() {
        None => Ok(None),
        Some(first) => Ok(Some(it.fold(first, Goal::and))),
    }
}

/// Model/goal option keys a trace `Start` header carries so `slimsim
/// replay` can rebuild the run from the header alone (stable order).
const HEADER_KEYS: &[&str] =
    &["root", "name", "size", "goal-var", "goal-loc", "hold-var", "hold-loc"];

/// Builds the self-describing [`TraceEvent::Start`] header for a trace
/// recorded by this invocation.
pub fn start_event(
    args: &Args,
    config: &SimConfig,
    property: &TimedReach,
    path_index: u64,
) -> TraceEvent {
    let kv = HEADER_KEYS
        .iter()
        .filter_map(|&k| args.options.get(k).map(|v| (k.to_string(), v.clone())))
        .collect();
    TraceEvent::Start {
        format_version: TRACE_FORMAT_VERSION,
        model: args.positional.first().cloned().unwrap_or_default(),
        path_index,
        seed: config.seed,
        strategy: config.strategy.to_string(),
        bound: property.bound,
        max_steps: config.max_steps,
        args: kv,
    }
}

/// Rebuilds a synthetic argument set from a trace `Start` header, so the
/// normal model/goal loaders apply to recorded traces.
pub fn args_from_header(model: &str, bound: f64, kv: &[(String, String)]) -> Args {
    let mut out = Args { command: "replay".to_string(), ..Args::default() };
    out.positional.push(model.to_string());
    for (k, v) in kv {
        out.options.insert(k.clone(), v.clone());
    }
    out.options.insert("bound".to_string(), format!("{bound}"));
    out
}

/// The property bound `--bound u` (required).
pub fn load_bound(args: &Args) -> Result<f64, String> {
    let bound = args.opt_f64("bound", f64::NAN)?;
    if bound.is_nan() || bound < 0.0 {
        Err("missing or invalid --bound <u>".into())
    } else {
        Ok(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn builtin_models_load() {
        for name in [
            "gps",
            "launcher",
            "launcher-permanent",
            "launcher-threeclass",
            "power-system",
            "voting",
            "repair",
        ] {
            let a = args(&format!("analyze {name}"));
            assert!(load_network(&a).is_ok(), "{name}");
        }
        let a = args("analyze sensor-filter --size 3");
        let net = load_network(&a).unwrap();
        assert_eq!(net.automata().len(), 7);
    }

    #[test]
    fn unknown_file_is_error() {
        let a = args("analyze /nonexistent/model.slim --root A.B");
        assert!(load_network(&a).is_err());
    }

    #[test]
    fn goal_resolution() {
        let a = args("analyze launcher");
        let net = load_network(&a).unwrap();
        // Default goal convention: the launcher's `failure` flow.
        assert!(load_goal(&a, &net).is_ok());
        let bad = args("analyze launcher --goal-var nosuch");
        assert!(load_goal(&bad, &net).is_err());
        let loc = args("analyze launcher --goal-loc mission@flight");
        assert!(load_goal(&loc, &net).is_ok());
        let badloc = args("analyze launcher --goal-loc missionflight");
        assert!(load_goal(&badloc, &net).is_err());
    }

    #[test]
    fn hold_resolution() {
        let a = args("analyze launcher");
        let net = load_network(&a).unwrap();
        assert_eq!(load_hold(&a, &net).unwrap(), None);
        let h = args("analyze launcher --hold-var nav.ok");
        assert!(load_hold(&h, &net).unwrap().is_some());
    }

    #[test]
    fn config_assembly_and_errors() {
        let a = args("analyze gps --epsilon 0.02 --strategy max-time --generator gauss --workers 3 --deadlock error");
        let c = load_config(&a).unwrap();
        assert_eq!(c.strategy, StrategyKind::MaxTime);
        assert_eq!(c.workers, 3);
        assert_eq!(c.deadlock_policy, DeadlockPolicy::Error);
        assert!(load_config(&args("x --strategy bogus")).is_err());
        assert!(load_config(&args("x --generator bogus")).is_err());
        assert!(load_config(&args("x --epsilon 2.0")).is_err());
        assert!(load_config(&args("x --deadlock maybe")).is_err());
    }

    #[test]
    fn start_header_round_trips_through_args() {
        let a = args(
            "analyze sensor-filter --size 3 --bound 2.0 --goal-var monitor.system_failed --seed 42",
        );
        let cfg = load_config(&a).unwrap();
        let net = load_network(&a).unwrap();
        let goal = load_goal(&a, &net).unwrap();
        let property = TimedReach::new(goal, load_bound(&a).unwrap());
        let ev = start_event(&a, &cfg, &property, 7);
        let TraceEvent::Start { model, path_index, seed, bound, args: kv, .. } = &ev else {
            panic!("not a Start event");
        };
        assert_eq!(model, "sensor-filter");
        assert_eq!(*path_index, 7);
        assert_eq!(*seed, 42);
        assert_eq!(*bound, 2.0);
        let rebuilt = args_from_header(model, *bound, kv);
        assert_eq!(rebuilt.opt("size", ""), "3");
        assert_eq!(rebuilt.opt("goal-var", ""), "monitor.system_failed");
        assert_eq!(load_bound(&rebuilt).unwrap(), 2.0);
        let net2 = load_network(&rebuilt).unwrap();
        assert_eq!(net2.automata().len(), net.automata().len());
        assert!(load_goal(&rebuilt, &net2).is_ok());
    }

    #[test]
    fn bound_required() {
        assert!(load_bound(&args("analyze gps")).is_err());
        assert!(load_bound(&args("analyze gps --bound -1")).is_err());
        assert_eq!(load_bound(&args("analyze gps --bound 2.5")).unwrap(), 2.5);
    }
}
