//! `slimsim report` — parse, validate and summarize a report document.
//!
//! Reads a JSON document written by `slimsim analyze --report <path>`
//! (a [`RunReport`]), by `slimsim profile --out <path>` /
//! `analyze --profile <path>` (a [`ProfileReport`], recognized by its
//! `"kind": "kernel-profile"` member), or by
//! `analyze --analysis-summary <path>` (an analysis summary, recognized
//! by `"kind": "analysis-summary"` — or, for v1 documents predating the
//! `kind` member, by its `automata` + `dead_transitions` arrays), checks
//! it against the schema and the structural validator, and prints a
//! short summary. Exits non-zero on any schema or consistency problem,
//! which is what the CI smoke jobs key on.

use crate::args::Args;
use slim_obs::{Json, ProfileReport, RunReport, PROFILE_KIND};

/// Validates the report file and prints its summary.
pub fn run(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("expected a report file: slimsim report <path>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    // Kernel-profile documents are self-describing via their `kind`.
    if json.get("kind").and_then(Json::as_str) == Some(PROFILE_KIND) {
        let report = ProfileReport::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
        fail_on_problems(path, report.validate())?;
        if !args.has_flag("quiet") {
            outln!("{path}: valid kernel profile (schema v{})", report.schema_version);
            print_profile_summary(&report);
        }
        return Ok(());
    }
    // Analysis summaries: v2 documents carry `kind`; v1 documents are
    // recognized structurally so pre-bump artifacts keep validating.
    let is_summary = json.get("kind").and_then(Json::as_str) == Some("analysis-summary")
        || (json.get("kind").is_none()
            && json.get("automata").is_some()
            && json.get("dead_transitions").is_some());
    if is_summary {
        let problems = validate_analysis_summary(&json);
        fail_on_problems(path, problems)?;
        if !args.has_flag("quiet") {
            print_analysis_summary(path, &json);
        }
        return Ok(());
    }
    let report = RunReport::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
    fail_on_problems(path, report.validate())?;
    if !args.has_flag("quiet") {
        print_summary(path, &report);
    }
    Ok(())
}

/// Structural validation of an analysis-summary document (v1 or v2).
fn validate_analysis_summary(json: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let version = json.get("schema_version").and_then(Json::as_u64).unwrap_or(1);
    if version == 0 || version > 2 {
        problems.push(format!("unknown analysis-summary schema_version {version}"));
    }
    let Some(automata) = json.get("automata").and_then(Json::as_arr) else {
        problems.push("missing `automata` array".to_string());
        return problems;
    };
    if automata.is_empty() {
        problems.push("`automata` is empty".to_string());
    }
    for a in automata {
        let name = a.get("name").and_then(Json::as_str).unwrap_or("?");
        let locs = a.get("locations").and_then(Json::as_u64).unwrap_or(0);
        let reach = a.get("reachable").and_then(Json::as_u64).unwrap_or(0);
        let trans = a.get("transitions").and_then(Json::as_u64).unwrap_or(0);
        let live = a.get("live").and_then(Json::as_u64).unwrap_or(0);
        if reach > locs {
            problems.push(format!("automaton `{name}`: reachable {reach} > locations {locs}"));
        }
        if live > trans {
            problems.push(format!("automaton `{name}`: live {live} > transitions {trans}"));
        }
    }
    let dead = json.get("dead_transitions").and_then(Json::as_arr);
    match dead {
        None => problems.push("missing `dead_transitions` array".to_string()),
        Some(rows) => {
            for d in rows {
                match d.get("reason").and_then(Json::as_str) {
                    Some("dead-source" | "dead-guard" | "zone-dead-guard" | "sync-blocked") => {}
                    Some(other) => problems.push(format!("unknown dead reason `{other}`")),
                    None => problems.push("dead transition without `reason`".to_string()),
                }
            }
        }
    }
    if version >= 2 {
        match json.get("locations").and_then(Json::as_arr) {
            None => problems.push("v2 summary missing `locations` array".to_string()),
            Some(rows) => {
                for l in rows {
                    if l.get("automaton").and_then(Json::as_str).is_none()
                        || l.get("location").and_then(Json::as_str).is_none()
                    {
                        problems.push("location row missing automaton/location".to_string());
                    }
                    if let Some(t) = l.get("min_time").and_then(Json::as_f64) {
                        if t < 0.0 {
                            problems.push(format!("negative min_time {t}"));
                        }
                    }
                }
            }
        }
        if json.get("zones").is_none() {
            problems.push("v2 summary missing `zones` member".to_string());
        }
    }
    problems
}

fn print_analysis_summary(path: &str, json: &Json) {
    let version = json.get("schema_version").and_then(Json::as_u64).unwrap_or(1);
    outln!("{path}: valid analysis summary (schema v{version})");
    let rounds = json.get("rounds").and_then(Json::as_u64).unwrap_or(0);
    let widenings = json.get("widenings").and_then(Json::as_u64).unwrap_or(0);
    outln!("  fixpoint : {rounds} round(s), {widenings} widening(s)");
    if let Some(z) = json.get("zones") {
        if !matches!(z, Json::Null) {
            outln!(
                "  zones    : {} clock(s), k = {}, {} zone-dead guard(s), {} timelock(s)",
                z.get("clocks").and_then(Json::as_u64).unwrap_or(0),
                z.get("k").and_then(Json::as_f64).unwrap_or(0.0),
                z.get("zone_dead_guards").and_then(Json::as_u64).unwrap_or(0),
                z.get("timelocks").and_then(Json::as_u64).unwrap_or(0),
            );
        }
    }
    for a in json.get("automata").and_then(Json::as_arr).unwrap_or(&[]) {
        outln!(
            "  {} : {}/{} locations reachable, {}/{} transitions live",
            a.get("name").and_then(Json::as_str).unwrap_or("?"),
            a.get("reachable").and_then(Json::as_u64).unwrap_or(0),
            a.get("locations").and_then(Json::as_u64).unwrap_or(0),
            a.get("live").and_then(Json::as_u64).unwrap_or(0),
            a.get("transitions").and_then(Json::as_u64).unwrap_or(0),
        );
    }
    let dead = json.get("dead_transitions").and_then(Json::as_arr).map_or(0, <[Json]>::len);
    outln!("  dead     : {dead} transition(s)");
    let with_goal = json.get("locations").and_then(Json::as_arr).map_or(0, |rows| {
        rows.iter().filter(|l| l.get("steps_to_goal").and_then(Json::as_u64).is_some()).count()
    });
    if with_goal > 0 {
        outln!("  distance : {with_goal} location(s) with a goal distance");
    }
}

fn fail_on_problems(path: &str, problems: Vec<String>) -> Result<(), String> {
    if problems.is_empty() {
        return Ok(());
    }
    let mut msg = format!("{path}: report fails validation:");
    for p in &problems {
        msg.push_str("\n  - ");
        msg.push_str(p);
    }
    Err(msg)
}

fn print_profile_summary(p: &ProfileReport) {
    outln!("  model    : {} (seed {}, {} paths)", p.model, p.seed, p.samples);
    outln!(
        "  kernel   : {} ops across {} opcodes, {} digrams, {} delay solves",
        p.total_ops,
        p.ops.len(),
        p.digrams.len(),
        p.delay_solves
    );
    outln!(
        "  heat     : {} guards, {} transitions, {} locations ranked",
        p.guards.len(),
        p.transitions.len(),
        p.locations.len()
    );
    if p.batches > 0 {
        outln!("  batches  : {} ({} scalar drains)", p.batches, p.scalar_drains);
    }
    if let Some(hot) = p.ops.first() {
        outln!("  hottest  : {} ({} executions)", hot.label, hot.count);
    }
}

fn print_summary(path: &str, r: &RunReport) {
    outln!("{path}: valid run report (schema v{})", r.schema_version);
    outln!(
        "  tool     : {} {} on {}/{} ({} cpus)",
        r.tool_name,
        r.tool_version,
        r.host.os,
        r.host.arch,
        r.host.cpus
    );
    outln!(
        "  model    : {} ({} automata, {} variables)",
        r.model.name,
        r.model.automata,
        r.model.variables
    );
    outln!("  property : {} bound={} goal={}", r.property.kind, r.property.bound, r.property.goal);
    outln!(
        "  config   : ε={} δ={} {} / {} seed={} workers={}",
        r.config.epsilon,
        r.config.delta,
        r.config.strategy,
        r.config.generator,
        r.config.seed,
        r.config.workers
    );
    outln!(
        "  estimate : {:.6} ± {} at {:.1}% confidence ({} samples, {} successes)",
        r.estimate.mean,
        r.estimate.epsilon,
        r.estimate.confidence * 100.0,
        r.estimate.samples,
        r.estimate.successes
    );
    let phases = r
        .phases
        .iter()
        .map(|(name, ms)| format!("{name} {ms:.1}ms"))
        .collect::<Vec<_>>()
        .join(", ");
    outln!("  phases   : {phases} (wall {:.1}ms)", r.wall_ms);
    for w in &r.workers {
        outln!(
            "  worker {} : {} paths ({} satisfied), busy {:.1}ms, {:.0} paths/s",
            w.worker,
            w.paths,
            w.satisfied,
            w.busy_ms,
            w.paths_per_sec
        );
    }
    if let Some(p) = &r.profile {
        outln!("  profile  : embedded kernel profile (schema v{})", p.schema_version);
        print_profile_summary(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(name)
    }

    #[test]
    fn analyze_report_then_validate() {
        // Sequential stopping rules sample past completion (lane overshoot
        // with one worker, in-flight paths with several); the report must
        // still count exactly the consumed samples.
        let path = tmp("slimsim_test_report_cmd.json");
        for generator in ["ch", "gauss", "chow-robbins"] {
            for workers in [1, 2] {
                let a = args(&format!(
                    "analyze sensor-filter --size 2 --bound 1.0 --epsilon 0.1 --delta 0.1 \
                     --generator {generator} --workers {workers} --quiet --report {}",
                    path.display()
                ));
                super::super::analyze::run(&a).expect("analysis with report succeeds");
                let v = args(&format!("report {} --quiet", path.display()));
                run(&v).unwrap_or_else(|e| panic!("{generator} workers={workers}: {e}"));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_report_then_validate() {
        let path = tmp("slimsim_test_report_profile_cmd.json");
        let a = args(&format!(
            "profile sensor-filter --size 2 --bound 1.0 --epsilon 0.2 --delta 0.2 --quiet \
             --out {}",
            path.display()
        ));
        super::super::profile::run(&a).expect("profiled run succeeds");
        let v = args(&format!("report {} --quiet", path.display()));
        run(&v).expect("fresh kernel profile validates");
        // Corrupt an invariant: total_ops must equal the op-count sum.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut report = ProfileReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        report.total_ops += 1;
        std::fs::write(&path, report.to_json().to_pretty()).unwrap();
        let err = run(&args(&format!("report {}", path.display()))).unwrap_err();
        assert!(err.contains("fails validation"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn embedded_profile_in_run_report_validates() {
        let report_path = tmp("slimsim_test_report_embedded.json");
        let profile_path = tmp("slimsim_test_report_embedded_profile.json");
        let a = args(&format!(
            "analyze sensor-filter --size 2 --bound 1.0 --epsilon 0.2 --delta 0.2 --quiet \
             --report {} --profile {}",
            report_path.display(),
            profile_path.display()
        ));
        super::super::analyze::run(&a).expect("profiled analysis succeeds");
        run(&args(&format!("report {} --quiet", report_path.display()))).expect("report validates");
        let text = std::fs::read_to_string(&report_path).unwrap();
        let report = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        let embedded = report.profile.expect("profile section embedded");
        // The embedded section is the same document as the standalone file.
        let standalone = std::fs::read_to_string(&profile_path).unwrap();
        let standalone = ProfileReport::from_json(&Json::parse(&standalone).unwrap()).unwrap();
        assert_eq!(embedded, standalone);
        assert!(embedded.total_ops > 0);
        let _ = std::fs::remove_file(&report_path);
        let _ = std::fs::remove_file(&profile_path);
    }

    #[test]
    fn analysis_summary_then_validate() {
        let model = format!("{}/../../examples/models/deadline.slim", env!("CARGO_MANIFEST_DIR"));
        let path = tmp("slimsim_test_report_analysis_summary.json");
        let a = args(&format!(
            "analyze {model} --root Timer.Main --goal-var root.done --bound 20 \
             --epsilon 0.2 --delta 0.2 --quiet --analysis-summary {}",
            path.display()
        ));
        super::super::analyze::run(&a).expect("analysis with summary succeeds");
        run(&args(&format!("report {} --quiet", path.display()))).expect("v2 summary validates");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_analysis_summary_fixture_still_validates() {
        // Committed artifact predating the `kind`/`schema_version` bump:
        // recognized structurally, validated under v1 rules.
        let fixture =
            format!("{}/../../tests/golden/analysis-summary-v1.json", env!("CARGO_MANIFEST_DIR"));
        run(&args(&format!("report {fixture} --quiet"))).expect("v1 fixture validates");
    }

    #[test]
    fn rejects_inconsistent_analysis_summaries() {
        let path = tmp("slimsim_test_report_bad_summary.json");
        // reachable > locations and an unknown dead reason.
        std::fs::write(
            &path,
            "{\"kind\":\"analysis-summary\",\"schema_version\":2,\"rounds\":1,\"widenings\":0,\
             \"zones\":null,\
             \"automata\":[{\"name\":\"p\",\"locations\":1,\"reachable\":2,\"transitions\":0,\"live\":0}],\
             \"locations\":[],\
             \"dead_transitions\":[{\"automaton\":\"p\",\"from\":\"a\",\"to\":\"b\",\"reason\":\"bogus\"}]}",
        )
        .unwrap();
        let err = run(&args(&format!("report {}", path.display()))).unwrap_err();
        assert!(err.contains("reachable 2 > locations 1"), "{err}");
        assert!(err.contains("unknown dead reason `bogus`"), "{err}");
        // A v2 document missing its `locations` array is also rejected.
        std::fs::write(
            &path,
            "{\"kind\":\"analysis-summary\",\"schema_version\":2,\"rounds\":1,\"widenings\":0,\
             \"zones\":null,\"automata\":[{\"name\":\"p\",\"locations\":1,\"reachable\":1,\
             \"transitions\":0,\"live\":0}],\"dead_transitions\":[]}",
        )
        .unwrap();
        let err = run(&args(&format!("report {}", path.display()))).unwrap_err();
        assert!(err.contains("missing `locations`"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_missing_and_malformed_files() {
        assert!(run(&args("report /nonexistent/report.json")).is_err());
        let path = tmp("slimsim_test_report_bad.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = run(&args(&format!("report {}", path.display()))).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");
        std::fs::write(&path, "{\"schema_version\": 1}").unwrap();
        assert!(run(&args(&format!("report {}", path.display()))).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_internally_inconsistent_reports() {
        let path = tmp("slimsim_test_report_inconsistent.json");
        let a = args(&format!(
            "analyze sensor-filter --size 2 --bound 1.0 --epsilon 0.2 --delta 0.2 --quiet --report {}",
            path.display()
        ));
        super::super::analyze::run(&a).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let json = Json::parse(&text).unwrap();
        let mut report = RunReport::from_json(&json).unwrap();
        report.paths.total += 1;
        std::fs::write(&path, report.to_json().to_pretty()).unwrap();
        let err = run(&args(&format!("report {}", path.display()))).unwrap_err();
        assert!(err.contains("fails validation"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
