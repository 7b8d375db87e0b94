//! `slimsim fuzz` — seeded differential fuzzing of the whole pipeline.
//!
//! Generates models with `slim-fuzz`, runs the seven-oracle differential
//! stack on each, shrinks any failure, and (optionally) records it into
//! the regression corpus. `--replay <dir>` instead re-runs the committed
//! corpus and fails on any regression — the hard gate CI uses.

use std::path::PathBuf;

use slim_fuzz::runner::CampaignEvent;
use slim_fuzz::{replay_corpus, run_campaign, CampaignConfig, GenParams, OracleConfig, OracleKind};

use crate::args::Args;

/// Entry point for `slimsim fuzz`.
pub fn run(args: &Args) -> Result<(), String> {
    if let Some(dir) = args.options.get("replay") {
        return replay(args, PathBuf::from(dir));
    }

    let seed = args.opt_u64("seed", 1)?;
    let count = args.opt_u64("count", 1000)?;
    let start_index = args.opt_u64("start-index", 0)?;
    let params = match args.opt("params", "default") {
        "default" => GenParams::default(),
        "tiny" => GenParams::tiny(),
        "stress" => GenParams::stress(),
        other => return Err(format!("--params must be tiny|default|stress, got `{other}`")),
    };
    let oracle =
        if args.has_flag("thorough") { OracleConfig::thorough() } else { OracleConfig::quick() };
    let quiet = args.has_flag("quiet");

    let cfg = CampaignConfig {
        seed,
        count,
        start_index,
        params,
        oracle,
        shrink: !args.has_flag("no-shrink"),
        max_failures: args.opt_usize("max-failures", 10)?,
        corpus_dir: args.options.get("corpus-dir").map(PathBuf::from),
    };

    let summary = run_campaign(&cfg, &mut |event| match event {
        CampaignEvent::Progress { done, total } if !quiet => {
            eprintln!("fuzz: {done}/{total} models checked");
        }
        CampaignEvent::Failure(f) => {
            eprintln!("fuzz: FAILURE at index {} — oracle `{}`", f.index, f.kind.name());
            eprintln!("      {}", f.detail);
            if let Some(path) = &f.corpus_path {
                eprintln!("      corpus entry: {}", path.display());
            }
            if !quiet {
                eprintln!("      minimized model:");
                for line in f.source.lines() {
                    eprintln!("        {line}");
                }
            }
        }
        CampaignEvent::Progress { .. } => {}
    });

    outln!(
        "fuzz: {} models in {:.1}s (seed {seed}, indices {start_index}..{}), {} failure(s)",
        summary.models,
        summary.wall.as_secs_f64(),
        start_index + summary.models,
        summary.failures.len()
    );
    outln!(
        "  oracles: {}",
        OracleKind::ALL
            .iter()
            .map(|k| format!("{} {}", k.name(), summary.runs_of(*k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    outln!(
        "  fixpoint pre-verdicts: P=0 on {} model(s), P=1 on {} model(s)",
        summary.pre_zero,
        summary.pre_one
    );
    for f in &summary.failures {
        outln!(
            "  failure: index {} oracle {} — repro: slimsim fuzz --seed {seed} \
             --start-index {} --count 1",
            f.index,
            f.kind.name(),
            f.index
        );
    }

    if summary.failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} oracle failure(s) found", summary.failures.len()))
    }
}

fn replay(args: &Args, dir: PathBuf) -> Result<(), String> {
    let oracle =
        if args.has_flag("thorough") { OracleConfig::thorough() } else { OracleConfig::quick() };
    let rows = replay_corpus(&dir, &oracle).map_err(|e| format!("reading corpus: {e}"))?;
    let mut regressions = 0;
    for (name, result) in &rows {
        match result {
            Ok(()) => {
                if !args.has_flag("quiet") {
                    outln!("replay: {name} ok");
                }
            }
            Err(detail) => {
                regressions += 1;
                eprintln!("replay: {name} FAILED — {detail}");
            }
        }
    }
    outln!("replay: {} corpus entr(ies), {regressions} regression(s)", rows.len());
    if regressions == 0 {
        Ok(())
    } else {
        Err(format!("{regressions} corpus regression(s)"))
    }
}
