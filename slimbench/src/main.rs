//! Command line of `slimbench`; see `README.md`.

use slim_obs::Json;
use slimbench::compare;
use slimbench::metrics::{self, WorkloadReport};
use slimbench::workload::{run_pass, PassResult, Plan, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const USAGE: &str = "\
usage:
  slimbench [--workloads a,b | --workload NAME] [--seed S] [--passes K | --seconds T]
            [--trace 0|1] [--out DIR] [--smoke]
  slimbench compare <base.json> <new.json> [--bounds BENCHMARK.json]

workloads: table1-sim, table1-ctmc, fig5-launcher, model-corpus";

/// Untraced passes a `--seconds` run measures at least.
const MIN_PASSES: usize = 3;
/// Where results and traces go without `--out`.
const DEFAULT_OUT: &str = "slimbench-out";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("pass") => run_child(&args[1..]),
        _ => run_bench(&args),
    };
    std::process::exit(code);
}

/// Flags with a value, and bare switches, of one invocation.
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String], with_value: &[&str], switches: &[&str]) -> Result<Flags, String> {
    let mut f = Flags { values: BTreeMap::new(), switches: Vec::new(), positional: Vec::new() };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if with_value.contains(&name) {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                f.values.insert(name.to_string(), v.clone());
            } else if switches.contains(&name) {
                f.switches.push(name.to_string());
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        } else {
            f.positional.push(a.clone());
        }
    }
    Ok(f)
}

impl Flags {
    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.values
            .get(name)
            .map_or(Ok(default), |v| v.parse().map_err(|_| format!("--{name}: cannot parse `{v}`")))
    }
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

/// How long the untraced passes run.
enum Budget {
    Passes(usize),
    Seconds(f64),
}

fn run_bench(args: &[String]) -> i32 {
    let parsed = parse_flags(
        args,
        &["workload", "workloads", "seed", "passes", "seconds", "trace", "out"],
        &["smoke", "help"],
    );
    let flags = match parsed {
        Ok(f) if !f.has("help") && f.positional.is_empty() => f,
        Ok(f) if f.has("help") => {
            println!("{USAGE}");
            return 0;
        }
        Ok(f) => return usage_error(&format!("unexpected argument `{}`", f.positional[0])),
        Err(e) => return usage_error(&e),
    };
    match bench(&flags) {
        Ok(()) => 0,
        Err(e) => usage_error(&e),
    }
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("slimbench: {msg}\n{USAGE}");
    2
}

fn bench(flags: &Flags) -> Result<(), String> {
    let single = flags.values.get("workload").map(|w| parse_workload(w)).transpose()?;
    let workloads: Vec<Workload> = match (single, flags.values.get("workloads")) {
        (Some(w), None) => vec![w],
        (None, Some(list)) => list.split(',').map(parse_workload).collect::<Result<_, _>>()?,
        (None, None) => Workload::ALL.to_vec(),
        (Some(_), Some(_)) => return Err("give --workload or --workloads, not both".into()),
    };
    let seed: u64 = flags.num("seed", 1)?;
    let budget = match flags.values.get("seconds") {
        Some(_) => Budget::Seconds(flags.num("seconds", 0.0)?),
        None => Budget::Passes(flags.num("passes", 5usize)?.max(1)),
    };
    let traced = match flags.values.get("trace").map(String::as_str) {
        None | Some("1") => true,
        Some("0") => false,
        Some(v) => return Err(format!("--trace takes 0 or 1, not `{v}`")),
    };
    let smoke = flags.has("smoke");
    let out = PathBuf::from(flags.values.get("out").map_or(DEFAULT_OUT, String::as_str));
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    // One pass process at a time, round-robin over the workloads, so
    // host drift spreads evenly across them.
    let mut untraced: BTreeMap<Workload, Vec<PassResult>> = BTreeMap::new();
    let mut lost: BTreeMap<Workload, Vec<String>> = BTreeMap::new();
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        for &w in &workloads {
            match spawn_pass(w, seed, false, smoke, &out) {
                Ok(r) => untraced.entry(w).or_default().push(r),
                Err(e) => lost.entry(w).or_default().push(e),
            }
        }
        rounds += 1;
        let per_round = start.elapsed().as_secs_f64() / rounds as f64;
        let done = match budget {
            Budget::Passes(k) => rounds >= k,
            Budget::Seconds(t) => {
                rounds >= MIN_PASSES && start.elapsed().as_secs_f64() + per_round > t
            }
        };
        if done {
            break;
        }
    }
    let mut traced_passes = BTreeMap::new();
    if traced {
        for &w in &workloads {
            match spawn_pass(w, seed, true, smoke, &out) {
                Ok(r) => {
                    traced_passes.insert(w, r);
                }
                Err(e) => lost.entry(w).or_default().push(e),
            }
        }
    }

    let reports: Vec<WorkloadReport> = workloads
        .iter()
        .map(|w| {
            let passes = untraced.get(w).map_or(&[][..], Vec::as_slice);
            let mut r = metrics::aggregate(w.name(), passes, traced_passes.get(w));
            for e in lost.get(w).into_iter().flatten() {
                let n = Plan::new(*w, seed, smoke).queries.len() as u64;
                r.attempted += n;
                r.failed += n;
                r.failures.push(format!("{} pass process failed: {e}", w.name()));
            }
            r
        })
        .collect();

    for r in &reports {
        for f in &r.failures {
            eprintln!("FAILED {f}");
        }
        for line in metrics::lines(r) {
            println!("{line}");
        }
    }
    let path = out.join("slimbench.json");
    std::fs::write(&path, metrics::to_json(seed, smoke, &reports).to_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("slimbench: wrote {}", path.display());
    if let (Some(_), [r]) = (single, reports.as_slice()) {
        println!("{}", metrics::result_line(r, traced).to_compact());
    }
    Ok(())
}

/// Runs one pass in a fresh process and waits for its result line.
fn spawn_pass(
    w: Workload,
    seed: u64,
    traced: bool,
    smoke: bool,
    out: &Path,
) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["pass", "--workload", w.name(), "--seed", &seed.to_string()]).arg("--out").arg(out);
    if traced {
        cmd.arg("--trace");
    }
    if smoke {
        cmd.arg("--smoke");
    }
    let output =
        cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().ok_or("printed no result")?;
    PassResult::from_json(&Json::parse(line)?)
}

/// The pass process: one pass of one workload, result on stdout.
fn run_child(args: &[String]) -> i32 {
    let flags = match parse_flags(args, &["workload", "seed", "out"], &["trace", "smoke"]) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let run = || -> Result<(), String> {
        let w = parse_workload(flags.values.get("workload").ok_or("--workload is required")?)?;
        let plan = Plan::new(w, flags.num("seed", 1)?, flags.has("smoke"));
        let traced = flags.has("trace");
        let result = run_pass(&plan, traced);
        if traced {
            let out = PathBuf::from(flags.values.get("out").map_or(DEFAULT_OUT, String::as_str));
            let path = out.join(format!("trace-{}.jsonl", w.name()));
            std::fs::write(&path, slimbench::trace::to_jsonl(&result.spans))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        println!("{}", result.to_json().to_compact());
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => usage_error(&e),
    }
}

fn run_compare(args: &[String]) -> i32 {
    let flags = match parse_flags(args, &["bounds"], &[]) {
        Ok(f) if f.positional.len() == 2 => f,
        Ok(_) => return usage_error("compare takes two documents"),
        Err(e) => return usage_error(&e),
    };
    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let run = || -> Result<compare::Comparison, String> {
        let bounds = compare::bounds(&read(
            flags.values.get("bounds").map_or("BENCHMARK.json", String::as_str),
        )?)?;
        let base = metrics::from_json(&read(&flags.positional[0])?)?;
        let new = metrics::from_json(&read(&flags.positional[1])?)?;
        Ok(compare::compare(&base, &new, &bounds))
    };
    match run() {
        Ok(c) => {
            for row in &c.rows {
                println!("{row}");
            }
            for w in &c.worse {
                println!("WORSE {w}");
            }
            for ch in &c.changed_counts {
                println!("CHANGED exact count {ch}");
            }
            i32::from(!c.worse.is_empty())
        }
        Err(e) => usage_error(&e),
    }
}
