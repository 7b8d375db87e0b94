//! Metric definitions, the reduction of passes to metrics, and the
//! `slimbench.json` document.

use crate::workload::{Answer, PassResult};
use slim_obs::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// Name, unit and direction of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// A deterministic count: identical for identical code and seed.
    pub exact: bool,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricSpec {
    MetricSpec { name, unit, better, exact }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured on untraced passes.
pub const END_TO_END: [MetricSpec; 6] = [
    spec("wall_s", "s", Lower, false),
    spec("setup_s", "s", Lower, false),
    spec("work_per_s", "1/s", Higher, false),
    spec("query_p50_s", "s", Lower, false),
    spec("query_p95_s", "s", Lower, false),
    spec("peak_rss_mib", "MiB", Lower, false),
];

/// Per-layer metrics, measured on the traced pass. The first ten are
/// self-time shares of [`crate::workload::PIPELINE_SPANS`], in that order.
pub const PER_LAYER: [MetricSpec; 32] = [
    spec("models.build_pct", "%", Lower, false),
    spec("lang.parse_pct", "%", Lower, false),
    spec("lang.lower_pct", "%", Lower, false),
    spec("lint.preflight_pct", "%", Lower, false),
    spec("analysis.pre_verdict_pct", "%", Lower, false),
    spec("core.analyze_pct", "%", Lower, false),
    spec("ctmc.explore_pct", "%", Lower, false),
    spec("ctmc.eliminate_pct", "%", Lower, false),
    spec("ctmc.lump_pct", "%", Lower, false),
    spec("ctmc.transient_pct", "%", Lower, false),
    spec("trace.pass_s", "s", Lower, false),
    spec("lang.source_kib", "KiB", Lower, true),
    spec("lint.diagnostics", "count", Lower, true),
    spec("analysis.decided_frac", "1", Higher, true),
    spec("automata.compile_frac", "1", Lower, false),
    spec("automata.fallback_guards", "count", Lower, true),
    spec("engine.steps_per_s", "1/s", Higher, false),
    spec("engine.steps_per_path", "steps", Lower, true),
    spec("engine.step_limited_frac", "1", Lower, true),
    spec("runner.overhead_frac", "1", Lower, false),
    spec("kernel.ops_per_step", "ops", Lower, true),
    spec("kernel.delay_solves_per_step", "1", Lower, true),
    spec("kernel.guard_evals_per_step", "1", Lower, true),
    spec("kernel.guard_enabled_frac", "1", Higher, true),
    spec("kernel.lane_occupancy", "1", Higher, true),
    spec("stats.paths_per_query", "paths", Lower, true),
    spec("ctmc.explore_states_per_s", "1/s", Higher, false),
    spec("ctmc.bytes_per_state", "B", Lower, true),
    spec("ctmc.states", "count", Lower, true),
    spec("ctmc.transitions", "count", Lower, true),
    spec("ctmc.lumped_states", "count", Lower, true),
    spec("trace.overhead_frac", "1", Lower, false),
];

/// Looks a metric up by name in either table.
pub fn find_spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|s| s.name == name)
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive); a single value is
/// its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `q`-quantile (0..=1) by linear interpolation between ranks.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// The reported value.
    pub value: f64,
    /// First quartile of the per-pass values.
    pub p25: f64,
    /// Third quartile of the per-pass values.
    pub p75: f64,
    /// Per-pass values the spread is taken over.
    pub passes: Vec<f64>,
    /// Samples behind `value` (pooled queries for the latency
    /// percentiles, passes otherwise).
    pub samples: usize,
}

impl Metric {
    fn over_passes(spec: &MetricSpec, value: f64, passes: Vec<f64>, samples: usize) -> Metric {
        let (p25, p75) = quartiles(&passes);
        Metric {
            name: spec.name.to_string(),
            unit: spec.unit.to_string(),
            value,
            p25,
            p75,
            passes,
            samples,
        }
    }

    fn single(spec: &MetricSpec, value: f64) -> Metric {
        Metric::over_passes(spec, value, vec![value], 1)
    }

    /// Distance between the quartiles as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            ((self.p75 - self.p25) / self.value).abs()
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Untraced passes measured.
    pub passes: usize,
    /// Queries attempted over every pass.
    pub attempted: u64,
    /// Queries that failed over every pass.
    pub failed: u64,
    /// One line per failed query.
    pub failures: Vec<String>,
    /// [`END_TO_END`] values.
    pub end_to_end: Vec<Metric>,
    /// [`PER_LAYER`] values (empty without a traced pass).
    pub per_layer: Vec<Metric>,
}

impl WorkloadReport {
    /// Failed queries per attempted query.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Reduces the passes of one workload to its metrics. Every pass is
/// also held to the first untraced pass's estimates bit for bit: a query
/// whose estimate differs fails in that pass.
pub fn aggregate(
    workload: &str,
    untraced: &[PassResult],
    traced: Option<&PassResult>,
) -> WorkloadReport {
    let reference: Vec<u64> = untraced
        .first()
        .map(|p| p.answers.iter().map(|a| a.estimate.to_bits()).collect())
        .unwrap_or_default();
    let (mut attempted, mut failed, mut failures) = (0u64, 0u64, Vec::new());
    for (k, pass) in untraced.iter().chain(traced).enumerate() {
        let label =
            if k < untraced.len() { format!("pass {}", k + 1) } else { "traced pass".to_string() };
        let mut bad: Vec<(usize, String)> = pass.failures.clone();
        for (i, a) in pass.answers.iter().enumerate() {
            if a.error.is_none() && reference.get(i).is_some_and(|&r| r != a.estimate.to_bits()) {
                bad.push((i, format!("estimate {} differs from pass 1's bits", a.estimate)));
            }
        }
        bad.sort_by_key(|b| b.0);
        bad.dedup_by_key(|b| b.0);
        attempted += pass.answers.len() as u64;
        failed += bad.len() as u64;
        failures
            .extend(bad.into_iter().map(|(i, why)| format!("{workload} {label} query {i}: {why}")));
    }

    // Timings take each query's best time over the K passes. Interference
    // from other tenants of a shared host only ever adds time, so the
    // minimum is the most repeatable estimate of the code's own cost, and
    // taking it per query lets every query use its own quiet moment. The
    // per-pass series keep the spread. Set-up time is the median over
    // passes.
    let per_pass = |f: &dyn Fn(&PassResult) -> f64| untraced.iter().map(f).collect::<Vec<f64>>();
    let rate = |work: u64, solve: f64| if solve > 0.0 { work as f64 / solve } else { 0.0 };
    let walls = per_pass(&|p| p.wall_s);
    let setups = per_pass(&|p| p.answers.iter().map(|a| a.setup_s).sum());
    let rates = per_pass(&|p| {
        rate(p.answers.iter().map(Answer::work).sum(), p.answers.iter().map(|a| a.solve_s).sum())
    });
    let totals = |p: &PassResult| p.answers.iter().map(Answer::total_s).collect::<Vec<f64>>();
    let p50s = per_pass(&|p| percentile(&totals(p), 0.5));
    let p95s = per_pass(&|p| percentile(&totals(p), 0.95));
    let rss = per_pass(&|p| p.peak_rss_kib as f64 / 1024.0);

    let queries = untraced.first().map_or(0, |p| p.answers.len());
    let best = |f: fn(&Answer) -> f64| -> Vec<f64> {
        (0..queries)
            .map(|i| {
                untraced
                    .iter()
                    .filter_map(|p| p.answers.get(i).map(f))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let best_total = best(Answer::total_s);
    let work: u64 = untraced.first().map_or(0, |p| p.answers.iter().map(Answer::work).sum());
    let k = untraced.len();
    let e = &END_TO_END;
    let end_to_end = vec![
        Metric::over_passes(&e[0], best_total.iter().sum(), walls, k),
        Metric::over_passes(&e[1], median(&setups), setups, k),
        Metric::over_passes(&e[2], rate(work, best(|a| a.solve_s).iter().sum()), rates, k),
        Metric::over_passes(&e[3], percentile(&best_total, 0.5), p50s, queries),
        Metric::over_passes(&e[4], percentile(&best_total, 0.95), p95s, queries),
        Metric::over_passes(&e[5], rss.iter().copied().fold(0.0, f64::max), rss, k),
    ];

    let per_layer = traced
        .map(|t| {
            let wall = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
            let overhead = if wall > 0.0 { t.wall_s / wall - 1.0 } else { 0.0 };
            PER_LAYER
                .iter()
                .map(|s| {
                    let v = if s.name == "trace.overhead_frac" {
                        overhead
                    } else {
                        t.layers.iter().find(|(n, _)| n == s.name).map_or(f64::NAN, |(_, v)| *v)
                    };
                    Metric::single(s, v)
                })
                .collect()
        })
        .unwrap_or_default();

    WorkloadReport {
        workload: workload.to_string(),
        passes: k,
        attempted,
        failed,
        failures,
        end_to_end,
        per_layer,
    }
}

/// `<workload> <metric> <value> <unit>` lines for every metric, with
/// the median and quartiles of each end-to-end metric's per-pass values
/// and the failure share.
pub fn lines(r: &WorkloadReport) -> Vec<String> {
    let w = &r.workload;
    let mut out = Vec::new();
    for m in &r.end_to_end {
        out.push(format!("{w} {} {} {}", m.name, m.value, m.unit));
        out.push(format!("{w} {}.median {} {}", m.name, median(&m.passes), m.unit));
        out.push(format!("{w} {}.p25 {} {}", m.name, m.p25, m.unit));
        out.push(format!("{w} {}.p75 {} {}", m.name, m.p75, m.unit));
        out.push(format!("{w} {}.samples {} count", m.name, m.samples));
    }
    for m in &r.per_layer {
        out.push(format!("{w} {} {} {}", m.name, m.value, m.unit));
    }
    out.push(format!("{w} passes {} count", r.passes));
    out.push(format!("{w} attempted {} count", r.attempted));
    out.push(format!("{w} fail_frac {} 1", r.fail_frac()));
    out
}

fn metric_json(m: &Metric) -> Json {
    Json::obj([
        ("value", Json::Num(m.value)),
        ("unit", Json::str(m.unit.as_str())),
        ("p25", Json::Num(m.p25)),
        ("p75", Json::Num(m.p75)),
        ("samples", Json::Num(m.samples as f64)),
        ("passes", Json::Arr(m.passes.iter().map(|&v| Json::Num(v)).collect())),
    ])
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::Obj(ms.iter().map(|m| (m.name.clone(), metric_json(m))).collect())
}

/// The `slimbench.json` document.
pub fn to_json(seed: u64, smoke: bool, reports: &[WorkloadReport]) -> Json {
    Json::obj([
        ("kind", Json::str("slimbench")),
        ("schema_version", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("smoke", Json::Bool(smoke)),
        (
            "workloads",
            Json::Obj(
                reports
                    .iter()
                    .map(|r| {
                        let doc = Json::obj([
                            ("passes", Json::Num(r.passes as f64)),
                            ("attempted", Json::Num(r.attempted as f64)),
                            ("failed", Json::Num(r.failed as f64)),
                            ("fail_frac", Json::Num(r.fail_frac())),
                            (
                                "failures",
                                Json::Arr(
                                    r.failures.iter().map(|f| Json::str(f.as_str())).collect(),
                                ),
                            ),
                            ("end_to_end", metrics_json(&r.end_to_end)),
                            ("per_layer", metrics_json(&r.per_layer)),
                        ]);
                        (r.workload.clone(), doc)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Metrics of one section; a value written as `null` (not measured)
/// reads back as NaN.
fn metrics_from(v: Option<&Json>) -> Vec<Metric> {
    let Some(Json::Obj(members)) = v else { return Vec::new() };
    members
        .iter()
        .map(|(name, m)| {
            let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            Metric {
                name: name.clone(),
                unit: m.get("unit").and_then(Json::as_str).unwrap_or_default().to_string(),
                value: num("value"),
                p25: num("p25"),
                p75: num("p75"),
                passes: m
                    .get("passes")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect(),
                samples: m.get("samples").and_then(Json::as_u64).unwrap_or(0) as usize,
            }
        })
        .collect()
}

/// Parses [`to_json`] output back into reports.
///
/// # Errors
/// A description of the first structural problem.
pub fn from_json(doc: &Json) -> Result<Vec<WorkloadReport>, String> {
    if doc.get("kind").and_then(Json::as_str) != Some("slimbench") {
        return Err("not a slimbench document (`kind` is not \"slimbench\")".to_string());
    }
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err("`workloads` is missing".to_string());
    };
    workloads
        .iter()
        .map(|(name, w)| {
            let int = |k: &str| {
                w.get(k).and_then(Json::as_u64).ok_or_else(|| format!("`{name}` lacks `{k}`"))
            };
            Ok(WorkloadReport {
                workload: name.clone(),
                passes: int("passes")? as usize,
                attempted: int("attempted")?,
                failed: int("failed")?,
                failures: w
                    .get("failures")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|f| f.as_str().map(str::to_string))
                    .collect(),
                end_to_end: metrics_from(w.get("end_to_end")),
                per_layer: metrics_from(w.get("per_layer")),
            })
        })
        .collect()
}

/// The benchmark's result line for one workload: correctness, query
/// counts, and the end-to-end metrics (or, for a traced run, the
/// per-layer ones) as `{value, unit}`.
pub fn result_line(r: &WorkloadReport, traced: bool) -> Json {
    let ms = if traced { &r.per_layer } else { &r.end_to_end };
    Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "metrics",
            Json::Obj(
                ms.iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit.as_str())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PIPELINE_SPANS;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.95), 9.5);
    }

    #[test]
    fn share_metrics_follow_pipeline_spans() {
        for (span, spec) in PIPELINE_SPANS.iter().zip(&PER_LAYER) {
            assert_eq!(spec.name, format!("{span}_pct"));
        }
    }

    fn pass(estimates: &[f64], wall_s: f64) -> PassResult {
        PassResult {
            wall_s,
            answers: estimates
                .iter()
                .map(|&e| Answer {
                    estimate: e,
                    setup_s: 0.1,
                    solve_s: 0.4,
                    samples: 10,
                    ..Answer::default()
                })
                .collect(),
            peak_rss_kib: 2048,
            ..PassResult::default()
        }
    }

    #[test]
    fn cross_pass_mismatch_fails_the_query() {
        let passes =
            vec![pass(&[0.25, 0.5], 1.0), pass(&[0.25, 0.5000001], 3.0), pass(&[0.25, 0.5], 2.0)];
        let r = aggregate("w", &passes, None);
        assert_eq!((r.attempted, r.failed), (6, 1));
        assert!(r.failures[0].contains("pass 2 query 1"), "{:?}", r.failures);
        assert_eq!(r.end_to_end[0].value, 1.0, "wall_s sums the best query times");
        assert_eq!(r.end_to_end[0].p75, 3.0);
        assert_eq!(r.end_to_end[1].value, 0.2);
        assert_eq!(r.end_to_end[2].value, 25.0);
        assert_eq!(r.end_to_end[3].value, 0.5);
        assert_eq!(r.end_to_end[3].samples, 2);
        assert_eq!(r.end_to_end[5].value, 2.0);
    }

    #[test]
    fn document_round_trips() {
        let traced =
            PassResult { layers: vec![("ctmc.states".into(), 60.0)], ..pass(&[0.25], 1.5) };
        let r = aggregate("w", &[pass(&[0.25], 1.0)], Some(&traced));
        let overhead = r.per_layer.iter().find(|m| m.name == "trace.overhead_frac").unwrap();
        assert_eq!(overhead.value, 0.5);
        let doc = to_json(3, true, std::slice::from_ref(&r));
        let back = from_json(&Json::parse(&doc.to_pretty()).unwrap()).unwrap();
        assert_eq!(back[0].end_to_end, r.end_to_end);
        assert_eq!(back[0].attempted, r.attempted);
        let line = result_line(&r, false).to_compact();
        assert!(
            line.starts_with(
                "{\"correct\":true,\"attempted\":2,\"failed\":0,\"metrics\":{\"wall_s\":"
            ),
            "{line}"
        );
    }
}
