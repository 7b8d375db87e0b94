//! `slimsim` — statistical model checking for SLIM/AADL models.
//!
//! A reproduction of the tool from *"A Statistical Approach for Timed
//! Reachability in AADL Models"* (DSN 2015). Commands:
//!
//! ```text
//! slimsim analyze <model> --bound u [--goal-var v] [--strategy s] [...]
//! slimsim ctmc <model> --bound u [--goal-var v]           (baseline pipeline)
//! slimsim interactive <model> --bound u [--goal-var v]    (Input strategy)
//! slimsim info <model>                                    (network summary)
//! ```
//!
//! `<model>` is a `.slim` file (with `--root Type.Impl`) or a built-in:
//! `gps`, `launcher`, `launcher-permanent`, `sensor-filter [--size n]`.

#![forbid(unsafe_code)]

/// `print!` through [`common::write_stdout`], the CLI's one path to stdout.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::common::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`common::write_stdout`].
macro_rules! outln {
    () => {
        $crate::common::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::common::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;
mod commands;
mod common;

use args::Args;

const USAGE: &str = "\
slimsim — statistical model checking for SLIM/AADL models

USAGE:
  slimsim analyze <model> --bound <u> [options]   Monte Carlo analysis
  slimsim ctmc <model> --bound <u> [options]      CTMC pipeline (untimed models)
  slimsim rare <model> --bound <u> --boost <k>    rare events (importance sampling)
  slimsim interactive <model> --bound <u>         step a path manually
                      [--script <file>] [--save-trace <file>]
  slimsim replay <trace.jsonl>                    verify a recorded trace
  slimsim profile <model> --bound <u> [options]   kernel heat maps + phase times
                  [--out <file>] [--top <k>]
  slimsim info <model> [--dot]                    print the lowered network
  slimsim lint <model> [--json]                   static lint passes (S0xx-S3xx)
  slimsim report <file.json>                      validate + summarize a run or
                                                  kernel-profile report
  slimsim validate <file.slim> [--root Type.Impl] static analysis + lowering check
  slimsim fuzz [--seed n] [--count k]             differential fuzzing campaign
               [--replay <dir>]                   replay the regression corpus

MODELS:
  a .slim file (requires --root Type.Impl [--name instance]) or a built-in:
  gps | launcher | launcher-permanent | launcher-threeclass |
  power-system | sensor-filter [--size n] | voting | repair

GOAL (analyze/ctmc/interactive):
  --goal-var <variable>            Boolean variable that must become true
  --goal-loc <automaton>@<loc>     location to reach (may combine; ORed)
  --hold-var / --hold-loc          optional: bounded until P(hold U[0,u] goal)

OPTIONS:
  --bound <u>            time bound of P(<> [0,u] goal)   (required)
  --epsilon <e>          error bound epsilon    [0.01]
  --delta <d>            significance delta     [0.05]
  --strategy <s>         asap|progressive|local|max-time  [progressive]
  --generator <g>        chernoff-hoeffding|gauss|chow-robbins [chernoff-hoeffding]
  --deadlock <p>         falsify|error          [falsify]
  --workers <k>          worker threads         [1]
  --seed <n>             RNG master seed
  --size <n>             sensor-filter redundancy [2]
  --boost <k>            (rare) fault-rate multiplier          [100]
  --rel-err <r>          (rare) target relative half-width     [0.1]
  --max-paths <n>        (rare) path cap                       [1e6]
  --skip-lumping         (ctmc) skip the bisimulation reduction
  --trace                (analyze) print the first generated path
  --trace-csv <file>     (analyze) write the first path as CSV
  --trace-dir <dir>      (analyze) write witness traces as JSON-lines files
  --witnesses <k>        (analyze) keep first k goal + k lock paths [2]
  --report <file>        (analyze) write a JSON run report (see `slimsim report`)
  --profile <file>       (analyze) profile the kernel, write the profile JSON
  --out <file>           (profile) write the profile report JSON
  --top <k>              (profile) heat-map rows per section [10]
  --progress             (analyze) live progress line with p-hat ± half-width
  --prune                (analyze) strip statically dead transitions/locations
  --analysis-summary <file> (analyze) write the fixpoint proof artifact JSON
  --no-zones             (analyze) disable the clock-zone domain (interval-only
                         fixpoint; no deadline-unreachable pre-verdicts)

LINTS (lint/analyze):
  --json                 (lint) one JSON object per diagnostic, one per line
  --allow/--warn/--deny <codes>  comma-separated lint codes or names
  --deny-lints           treat warning-level lints as errors
  --no-lint              (analyze) skip the pre-flight lint stage
  --verify-bytecode      (lint) verify the compiled step-table bytecode
";

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let asks_help = matches!(args.command.as_str(), "" | "help" | "--help" | "-h");
    if asks_help || args.has_flag("help") {
        out!("{USAGE}");
        return;
    }
    let result = match args.command.as_str() {
        "analyze" => commands::analyze::run(&args),
        "ctmc" => commands::ctmc::run(&args),
        "fuzz" => commands::fuzz::run(&args),
        "rare" => commands::rare::run(&args),
        "interactive" => commands::interactive::run(&args),
        "replay" => commands::replay::run(&args),
        "info" => commands::info::run(&args),
        "lint" => commands::lint::run(&args),
        "profile" => commands::profile::run(&args),
        "report" => commands::report::run(&args),
        "validate" => commands::validate::run(&args),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
