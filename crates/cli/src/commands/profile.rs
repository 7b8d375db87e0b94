//! `slimsim profile` — kernel profiling run.
//!
//! Runs the full statistical analysis with the kernel profiler attached
//! and renders the result as bytecode/guard/transition heat maps plus a
//! hierarchical phase-attribution tree. `--out <file>` additionally
//! writes the versioned [`ProfileReport`] JSON document, which is
//! byte-identical across worker counts at a fixed seed (see
//! `docs/profiling.md`).

use crate::args::Args;
use crate::common::{
    load_bound, load_config, load_goal, load_hold, load_network_spanned, profile_labels_with_spans,
};
use slim_obs::{PhaseProfiler, ProfileReport};
use slimsim_core::prelude::*;

/// Runs the profiled analysis and prints the heat maps.
pub fn run(args: &Args) -> Result<(), String> {
    let mut phases = PhaseProfiler::new();
    phases.begin("profile");
    phases.begin("load");
    let loaded = load_network_spanned(args);
    phases.end();
    let (net, spans) = loaded?;
    let goal = load_goal(args, &net)?;
    let hold = load_hold(args, &net)?;
    let bound = load_bound(args)?;
    let config = load_config(args)?;
    let property = match hold {
        None => TimedReach::new(goal, bound),
        Some(h) => TimedReach::until(h, goal, bound),
    };
    phases.begin("simulate");
    let outcome = analyze_profiled(&net, &property, &config, None);
    phases.end();
    let (result, profile) = outcome.map_err(|e| e.to_string())?;
    let report = phases.time("report", || {
        let labels = profile_labels_with_spans(&net, &spans);
        let model = args.positional.first().cloned().unwrap_or_default();
        ProfileReport::from_profile(&profile, &labels, &model, config.seed, result.estimate.samples)
    });
    let problems = report.validate();
    if !problems.is_empty() {
        return Err(format!("internal: profile fails validation: {}", problems.join("; ")));
    }
    if let Some(path) = args.options.get("out") {
        let text = report.to_json().to_pretty() + "\n";
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    phases.end();
    if !args.has_flag("quiet") {
        let top = args.opt_usize("top", 10)?;
        out!("{}", report.render_text(top));
        outln!("\nphases:");
        out!("{}", phases.render());
        if let Some(path) = args.options.get("out") {
            outln!("profile written to {path}");
        }
    }
    outln!("{}", result.estimate);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_obs::Json;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(name)
    }

    #[test]
    fn profile_builtin_writes_valid_report() {
        let path = tmp("slimsim_test_profile_cmd.json");
        let a = args(&format!(
            "profile sensor-filter --size 2 --bound 1.0 --epsilon 0.2 --delta 0.2 --quiet \
             --out {}",
            path.display()
        ));
        run(&a).expect("profiled run succeeds");
        let text = std::fs::read_to_string(&path).unwrap();
        let report = ProfileReport::from_json(&Json::parse(&text).unwrap()).expect("schema parses");
        assert_eq!(report.validate(), Vec::<String>::new());
        assert_eq!(report.model, "sensor-filter");
        assert!(report.total_ops > 0, "the sensor filter's guards execute bytecode");
        assert!(!report.digrams.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_output_is_worker_count_invariant() {
        // The serialized profile is a function of (model, seed) alone:
        // worker count must not leak into a single byte of it.
        let mut texts = Vec::new();
        for workers in [1usize, 2, 4] {
            let path = tmp(&format!("slimsim_test_profile_w{workers}.json"));
            let a = args(&format!(
                "profile voting --bound 1.0 --epsilon 0.2 --delta 0.2 --seed 42 \
                 --workers {workers} --quiet --out {}",
                path.display()
            ));
            run(&a).expect("profiled run succeeds");
            texts.push(std::fs::read_to_string(&path).unwrap());
            let _ = std::fs::remove_file(&path);
        }
        assert_eq!(texts[0], texts[1], "1 vs 2 workers");
        assert_eq!(texts[0], texts[2], "1 vs 4 workers");
    }

    #[test]
    fn profile_of_slim_file_resolves_source_spans() {
        let model = format!("{}/../../examples/models/prunable.slim", env!("CARGO_MANIFEST_DIR"));
        let path = tmp("slimsim_test_profile_spans.json");
        let a = args(&format!(
            "profile {model} --root Pump.Main --bound 1.0 --goal-var root.done \
             --epsilon 0.2 --delta 0.2 --quiet --out {}",
            path.display()
        ));
        run(&a).expect("profiled run succeeds");
        let text = std::fs::read_to_string(&path).unwrap();
        let report = ProfileReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(!report.transitions.is_empty(), "something must fire to reach the goal");
        let spanned = report.transitions.iter().filter_map(|t| t.span.as_deref());
        for span in spanned.clone() {
            // file:line:col — the file part is the path as given.
            assert!(span.starts_with(&model), "unexpected span `{span}`");
            let tail = &span[model.len() + 1..];
            let (line, col) = tail.split_once(':').expect("line:col tail");
            assert!(line.parse::<u32>().unwrap() > 0);
            assert!(col.parse::<u32>().unwrap() > 0);
        }
        assert!(spanned.count() > 0, "fired .slim transitions carry source spans");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_rejects_sequential_generators() {
        let a = args("profile voting --bound 1.0 --generator gauss --quiet");
        let err = run(&a).unwrap_err();
        assert!(err.contains("fixed-target"), "{err}");
    }
}
