//! `slimbench compare <base.json> <new.json>`: a verdict per workload and
//! end-to-end metric against the bounds in `BENCHMARK.json`, plus a flag
//! on every exact count that changed.

use crate::metrics::{find_spec, Better, Metric, WorkloadReport, END_TO_END};
use slim_obs::Json;
use std::collections::BTreeMap;

/// Outcome of comparing one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// The passes of one side spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The `bound` of every end-to-end metric in a `BENCHMARK.json`.
///
/// # Errors
/// When `end_to_end` is missing or an entry lacks a name or bound.
pub fn bounds(benchmark: &Json) -> Result<BTreeMap<String, f64>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?
        .iter()
        .map(|m| {
            let name =
                m.get("name").and_then(Json::as_str).ok_or("an end_to_end entry has no name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`{name}` has no bound"))?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Judges `new` against `base`. The change is signed so that positive
/// is worse. A side whose quartile spread exceeds `bound` leaves the
/// verdict unresolved, unless every pass of `new` beats every pass of
/// `base`.
pub fn verdict(base: &Metric, new: &Metric, bound: f64, better: Better) -> (Verdict, f64) {
    let raw = if base.value == 0.0 { 0.0 } else { (new.value - base.value) / base.value };
    let worse_by = if better == Better::Lower { raw } else { -raw };
    let beats = |a: f64, b: f64| if better == Better::Lower { a < b } else { a > b };
    let all_beat = !new.passes.is_empty()
        && new.passes.iter().all(|&n| base.passes.iter().all(|&b| beats(n, b)));
    let v = if base.spread() > bound || new.spread() > bound {
        if all_beat && worse_by < -bound {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (v, raw)
}

/// The rendered comparison.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Header plus one row per workload.
    pub rows: Vec<String>,
    /// Metrics judged worse, as `workload metric`.
    pub worse: Vec<String>,
    /// Exact counts whose value changed.
    pub changed_counts: Vec<String>,
}

const CELL: usize = 22;

/// Compares two sets of reports under `bounds`.
pub fn compare(
    base: &[WorkloadReport],
    new: &[WorkloadReport],
    bounds: &BTreeMap<String, f64>,
) -> Comparison {
    let mut c = Comparison::default();
    let mut header = format!("{:<15}", "workload");
    for s in END_TO_END {
        header.push_str(&format!("{:<CELL$}", s.name));
    }
    header.push_str("fail_frac");
    c.rows.push(header);
    for n in new {
        let Some(b) = base.iter().find(|b| b.workload == n.workload) else {
            c.rows.push(format!("{:<15}not in the base document", n.workload));
            continue;
        };
        let mut row = format!("{:<15}", n.workload);
        for spec in END_TO_END {
            let pair = b
                .end_to_end
                .iter()
                .find(|m| m.name == spec.name)
                .zip(n.end_to_end.iter().find(|m| m.name == spec.name));
            let (Some((bm, nm)), Some(&bound)) = (pair, bounds.get(spec.name)) else {
                row.push_str(&format!("{:<CELL$}", "n/a"));
                continue;
            };
            let (v, change) = verdict(bm, nm, bound, spec.better);
            if v == Verdict::Worse {
                c.worse.push(format!("{} {}", n.workload, spec.name));
            }
            row.push_str(&format!("{:<CELL$}", format!("{} {:+.1}%", v.as_str(), 100.0 * change)));
        }
        let fail = if n.fail_frac() > b.fail_frac() {
            c.worse.push(format!("{} fail_frac", n.workload));
            "worse"
        } else {
            "same"
        };
        row.push_str(&format!("{fail} {}", n.fail_frac()));
        c.rows.push(row);

        for nm in &n.per_layer {
            let exact = find_spec(&nm.name).is_some_and(|s| s.exact);
            if let Some(bm) = b.per_layer.iter().find(|m| m.name == nm.name && exact) {
                if bm.value.to_bits() != nm.value.to_bits() {
                    c.changed_counts
                        .push(format!("{} {}: {} -> {}", n.workload, nm.name, bm.value, nm.value));
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, passes: &[f64]) -> Metric {
        let (p25, p75) = crate::metrics::quartiles(passes);
        Metric {
            name: "wall_s".into(),
            unit: "s".into(),
            value,
            p25,
            p75,
            passes: passes.to_vec(),
            samples: passes.len(),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let base = m(1.0, &[0.99, 1.0, 1.01]);
        assert_eq!(
            verdict(&base, &m(1.05, &[1.04, 1.05, 1.06]), 0.1, Better::Lower).0,
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &m(1.2, &[1.19, 1.2, 1.21]), 0.1, Better::Lower).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &m(1.2, &[1.19, 1.2, 1.21]), 0.1, Better::Higher).0,
            Verdict::Better
        );
        let noisy = m(1.2, &[0.8, 1.2, 1.6]);
        assert_eq!(verdict(&base, &noisy, 0.1, Better::Lower).0, Verdict::Unresolved);
        let fast_but_noisy = m(0.5, &[0.3, 0.5, 0.7]);
        assert_eq!(verdict(&base, &fast_but_noisy, 0.1, Better::Lower).0, Verdict::Better);
    }

    fn report(wall: f64, states: f64) -> WorkloadReport {
        WorkloadReport {
            workload: "w".into(),
            passes: 3,
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            end_to_end: vec![m(wall, &[wall, wall, wall])],
            per_layer: vec![Metric { name: "ctmc.states".into(), ..m(states, &[states]) }],
        }
    }

    #[test]
    fn worse_and_changed_counts_are_flagged() {
        let bounds: BTreeMap<String, f64> = [("wall_s".to_string(), 0.1)].into();
        let c = compare(&[report(1.0, 60.0)], &[report(1.5, 61.0)], &bounds);
        assert_eq!(c.worse, vec!["w wall_s".to_string()]);
        assert_eq!(c.changed_counts, vec!["w ctmc.states: 60 -> 61".to_string()]);
        let c = compare(&[report(1.0, 60.0)], &[report(1.01, 60.0)], &bounds);
        assert!(c.worse.is_empty() && c.changed_counts.is_empty());
        assert!(c.rows[1].contains("same +1.0%"), "{}", c.rows[1]);
    }
}
