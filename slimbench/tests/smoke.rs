//! Runs the benchmark binary in its smoke configuration and checks what
//! it emits: every answer passes its check, every metric named in
//! `BENCHMARK.json` appears with its unit, and every traced pass left
//! well-formed span trees.

use slim_obs::Json;
use slimbench::metrics::{self, Metric};
use slimbench::trace::{check_trees, parse_jsonl};
use slimbench::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("valid JSON")
}

/// `(name, unit)` of every entry of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn slimbench(args: &[&str], out: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_slimbench"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("slimbench runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "slimbench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn assert_emitted(workload: &str, section: &str, emitted: &[Metric], stdout: &str) {
    for (name, unit) in declared(section) {
        let m = emitted
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
        assert_eq!(m.unit, unit, "{workload}: unit of `{name}`");
        assert!(m.value.is_finite(), "{workload}: `{name}` = {}", m.value);
        assert!(
            stdout.contains(&format!("{workload} {name} {} {unit}\n", m.value)),
            "{workload}: no line for `{name}`"
        );
    }
}

#[test]
fn smoke_run_passes_checks_emits_every_metric_and_well_formed_traces() {
    let out = out_dir("smoke");
    let stdout = slimbench(&["--smoke", "--passes", "2", "--seed", "1"], &out);
    let doc = Json::parse(&std::fs::read_to_string(out.join("slimbench.json")).unwrap()).unwrap();
    let reports = metrics::from_json(&doc).unwrap();
    assert_eq!(reports.len(), Workload::ALL.len());
    for r in &reports {
        assert!(r.attempted > 0, "{}: nothing attempted", r.workload);
        assert_eq!(r.failed, 0, "{}: {:?}", r.workload, r.failures);
        assert_emitted(&r.workload, "end_to_end", &r.end_to_end, &stdout);
        assert_emitted(&r.workload, "per_layer", &r.per_layer, &stdout);
        assert!(
            r.end_to_end.iter().all(|m| m.value > 0.0),
            "{}: an end-to-end metric is 0",
            r.workload
        );

        let spans = parse_jsonl(
            &std::fs::read_to_string(out.join(format!("trace-{}.jsonl", r.workload))).unwrap(),
        )
        .unwrap();
        assert!(spans.iter().any(|s| s.name == "query"), "{}: no query spans", r.workload);
        check_trees(&spans).unwrap_or_else(|e| panic!("{}: {e}", r.workload));
    }
}

#[test]
fn single_workload_run_ends_with_the_result_line() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = out_dir(&format!("result-line-{trace}"));
        let stdout = slimbench(
            &[
                "--workload",
                "table1-ctmc",
                "--seed",
                "3",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
            ],
            &out,
        );
        let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
        let Json::Obj(members) = &last else { panic!("result line is not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(ms)) = last.get("metrics") else { panic!("no metrics") };
        let names: Vec<(String, String)> = ms
            .iter()
            .map(|(k, v)| (k.clone(), v.get("unit").and_then(Json::as_str).unwrap().to_string()))
            .collect();
        assert_eq!(names, declared(section));
    }
}
