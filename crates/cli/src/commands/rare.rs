//! `slimsim rare` — rare-event analysis by importance sampling.

use crate::args::Args;
use crate::common::{load_bound, load_goal, load_hold, load_network};
use slimsim_core::prelude::*;

/// Runs an importance-sampling analysis with boosted fault rates.
pub fn run(args: &Args) -> Result<(), String> {
    let net = load_network(args)?;
    let goal = load_goal(args, &net)?;
    let hold = load_hold(args, &net)?;
    let bound = load_bound(args)?;
    let property = match hold {
        None => TimedReach::new(goal, bound),
        Some(h) => TimedReach::until(h, goal, bound),
    };
    let strategy = StrategyKind::parse(args.opt("strategy", "progressive"))
        .ok_or_else(|| format!("unknown strategy `{}`", args.opt("strategy", "")))?;
    let config = RareEventConfig {
        boost: args.opt_f64("boost", 100.0)?,
        rel_err: args.opt_f64("rel-err", 0.1)?,
        confidence: 1.0 - args.opt_f64("delta", 0.05)?,
        strategy,
        max_paths: args.opt_u64("max-paths", 1_000_000)?,
        seed: args.opt_u64("seed", 0xAE0C0FFE)?,
        ..Default::default()
    };

    let r = analyze_rare(&net, &property, &config).map_err(|e| e.to_string())?;
    if !args.has_flag("quiet") {
        outln!("model      : {} automata, {} variables", net.automata().len(), net.vars().len());
        outln!("property   : P(◇[0,{bound}] goal), importance sampling");
        outln!("boost      : ×{} on all Markovian rates", config.boost);
        outln!("strategy   : {}", config.strategy);
        outln!(
            "paths      : {} ({} hits under the biased measure)",
            r.estimate.samples,
            r.estimate.hits
        );
        outln!("converged  : {}", if r.converged { "yes" } else { "NO (max-paths hit)" });
        outln!("wall time  : {:?}", r.wall);
    }
    outln!("{}", r.estimate);
    if !r.converged {
        eprintln!(
            "warning: relative precision {} not reached; raise --boost or --max-paths",
            config.rel_err
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn invalid_numeric_flags_are_diagnostics_not_panics() {
        let base = "rare voting --bound 1.0 --quiet --max-paths 10";
        for (flag, diagnostic) in [
            ("--boost 0", "boost must be positive"),
            ("--boost -3", "boost must be positive"),
            ("--boost nan", "boost must be positive"),
            ("--rel-err 0", "relative error must be positive"),
            ("--delta 0", "confidence must lie strictly between 0 and 1"),
            ("--delta 1.5", "confidence must lie strictly between 0 and 1"),
        ] {
            // `run`'s `Err` is what `main` prints as `error: …` before
            // exiting with status 1; a panic would fail this test instead.
            let err = run(&args(&format!("{base} {flag}"))).expect_err(flag);
            assert!(err.contains(diagnostic), "{flag}: {err}");
        }
        run(&args(base)).expect("valid flags still run");
    }
}
