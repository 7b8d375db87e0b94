//! `slimsim replay` — re-drive the engine from a recorded trace and
//! verify step-by-step state agreement and the final verdict.
//!
//! The trace's `Start` header is self-describing: it names the model (a
//! builtin or a `.slim` path), the goal/hold selectors and the bound, so
//! `slimsim replay <trace.jsonl>` needs no further arguments. Model
//! options from the command line override the header (useful when a
//! `.slim` file moved).

use crate::args::Args;
use crate::common::{args_from_header, load_goal, load_hold, load_network};
use slimsim_core::prelude::*;

/// Replays one recorded trace file and reports the verification result.
pub fn run(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("expected a trace file: slimsim replay <trace>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let events = parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(TraceEvent::Start {
        format_version,
        model,
        path_index,
        seed,
        strategy,
        bound,
        args: kv,
        ..
    }) = events.first()
    else {
        return Err(format!("{path}: trace does not begin with a Start header"));
    };
    if *format_version > TRACE_FORMAT_VERSION {
        return Err(format!(
            "{path}: trace format v{format_version} is newer than this tool's v{TRACE_FORMAT_VERSION}"
        ));
    }

    // Rebuild the run context from the header, letting explicit command
    // line options (e.g. a relocated --root model file) take precedence.
    let mut header = args_from_header(model, *bound, kv);
    for (k, v) in &args.options {
        header.options.insert(k.clone(), v.clone());
    }
    if let Some(override_model) = args.positional.get(1) {
        header.positional[0] = override_model.clone();
    }
    let net = load_network(&header)?;
    let goal = load_goal(&header, &net)?;
    let hold = load_hold(&header, &net)?;
    let property = match hold {
        None => TimedReach::new(goal, *bound),
        Some(h) => TimedReach::until(h, goal, *bound),
    };

    let outcome = replay_events(&net, &property, &events).map_err(|e| e.to_string())?;
    if !args.has_flag("quiet") {
        outln!("trace      : {path}");
        outln!("model      : {model}");
        outln!("recorded   : path {path_index}, seed {seed}, strategy {strategy}");
        outln!(
            "verified   : {} events ({} snapshots compared)",
            outcome.events_checked,
            outcome.snapshots_checked
        );
    }
    outln!(
        "verdict    : {} at t={:.6} after {} steps — replay agrees",
        outcome.verdict,
        outcome.end_time,
        outcome.steps
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    /// End-to-end: analyze with witness capture, then replay every
    /// written witness through the `replay` command.
    #[test]
    fn captured_witnesses_replay_cleanly() {
        let dir = std::env::temp_dir().join("slimsim_test_replay_cmd");
        let _ = std::fs::remove_dir_all(&dir);
        let a = args(&format!(
            "analyze voting --bound 1.0 --epsilon 0.2 --delta 0.2 --workers 2 --seed 11 --quiet --witnesses 2 --trace-dir {}",
            dir.display()
        ));
        crate::commands::analyze::run(&a).expect("analysis with witness capture succeeds");
        let mut files: Vec<_> =
            std::fs::read_dir(&dir).expect("trace dir exists").map(|e| e.unwrap().path()).collect();
        files.sort();
        assert!(!files.is_empty(), "no witness traces were written");
        for f in &files {
            let r = args(&format!("replay {} --quiet", f.display()));
            run(&r).unwrap_or_else(|e| panic!("replay of {} failed: {e}", f.display()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_header_is_rejected() {
        let path = std::env::temp_dir().join("slimsim_test_replay_noheader.jsonl");
        std::fs::write(
            &path,
            "{\"type\":\"verdict\",\"verdict\":\"satisfied\",\"at\":0,\"steps\":0}\n",
        )
        .unwrap();
        let r = args(&format!("replay {}", path.display()));
        let err = run(&r).expect_err("header-less trace must be rejected");
        assert!(err.contains("Start header"), "unexpected error: {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_error() {
        assert!(run(&args("replay /nonexistent/trace.jsonl")).is_err());
    }
}
