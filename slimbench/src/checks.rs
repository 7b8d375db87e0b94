//! Per-workload answer checks. Each returns the failed queries as
//! `(query index, reason)`; a query that failed to answer at all is
//! reported once, by [`check`].

use crate::workload::{Answer, Plan, Query, Workload, HORIZON};
use slim_models::sensor_filter::{analytic_failure_probability, SensorFilterParams};
use slimsim_core::prelude::StrategyKind;

/// Every failed query of one pass of `plan`.
pub fn check(plan: &Plan, answers: &[Answer]) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> =
        answers.iter().enumerate().filter_map(|(i, a)| a.error.clone().map(|e| (i, e))).collect();
    let sizes = || {
        plan.queries.iter().map(|q| match q {
            Query::SensorFilter { n } => *n,
            _ => 0,
        })
    };
    let answered: Vec<(usize, &Answer)> =
        answers.iter().enumerate().filter(|(_, a)| a.error.is_none()).collect();
    out.extend(match plan.workload {
        Workload::Table1Sim => {
            let sizes: Vec<usize> = sizes().collect();
            let eps = plan.accuracy().epsilon();
            answered
                .iter()
                .filter_map(|&(i, a)| check_sensor_filter_sim(sizes[i], a, eps).map(|e| (i, e)))
                .collect()
        }
        Workload::Table1Ctmc => {
            let sizes: Vec<usize> = sizes().collect();
            answered
                .iter()
                .filter_map(|&(i, a)| check_sensor_filter_ctmc(sizes[i], a).map(|e| (i, e)))
                .collect()
        }
        Workload::Fig5Launcher => {
            let points: Vec<(usize, f64, StrategyKind, f64)> = answered
                .iter()
                .filter_map(|&(i, a)| match plan.queries[i] {
                    Query::Launcher { bound, strategy } => Some((i, bound, strategy, a.estimate)),
                    _ => None,
                })
                .collect();
            check_fig5(&points, plan.accuracy().epsilon())
        }
        Workload::ModelCorpus => {
            answered.iter().filter_map(|&(i, a)| check_corpus_answer(a).map(|e| (i, e))).collect()
        }
    });
    out
}

/// Table I simulator column: the estimate lies within 2ε of the closed
/// form.
pub fn check_sensor_filter_sim(n: usize, a: &Answer, eps: f64) -> Option<String> {
    let exact = analytic_failure_probability(
        &SensorFilterParams { redundancy: n, ..Default::default() },
        HORIZON,
    );
    ((a.estimate - exact).abs() > 2.0 * eps).then(|| {
        format!(
            "n={n}: estimate {} is more than 2ε={} from the closed form {exact}",
            a.estimate,
            2.0 * eps
        )
    })
}

/// Table I CTMC column: the probability matches the closed form to 1e-6
/// and lumping leaves `(n+1)²` states.
pub fn check_sensor_filter_ctmc(n: usize, a: &Answer) -> Option<String> {
    let exact = analytic_failure_probability(
        &SensorFilterParams { redundancy: n, ..Default::default() },
        HORIZON,
    );
    if (a.estimate - exact).abs() > 1e-6 {
        return Some(format!(
            "n={n}: CTMC probability {} differs from the closed form {exact}",
            a.estimate
        ));
    }
    let want = ((n + 1) * (n + 1)) as u64;
    (a.lumped != want)
        .then(|| format!("n={n}: lumping left {} states, expected (n+1)² = {want}", a.lumped))
}

/// §V ordering on `(query index, u, strategy, P)` points: at u ∈ {2, 3},
/// ASAP lies above Progressive and Local, which both lie above MaxTime,
/// each gap wider than 2ε; and every strategy's P is non-decreasing in u
/// within 2ε. A violated relation fails both of its queries.
pub fn check_fig5(points: &[(usize, f64, StrategyKind, f64)], eps: f64) -> Vec<(usize, String)> {
    use StrategyKind::{Asap, Local, MaxTime, Progressive};
    let find = |u: f64, s: StrategyKind| points.iter().find(|p| p.1 == u && p.2 == s);
    let mut out = Vec::new();
    for u in [2.0, 3.0] {
        for (hi, lo) in
            [(Asap, Progressive), (Asap, Local), (Progressive, MaxTime), (Local, MaxTime)]
        {
            if let (Some(h), Some(l)) = (find(u, hi), find(u, lo)) {
                if h.3 - l.3 <= 2.0 * eps {
                    let msg = format!(
                        "u={u}: {hi} P={} is not above {lo} P={} by more than 2ε",
                        h.3, l.3
                    );
                    out.push((h.0, msg.clone()));
                    out.push((l.0, msg));
                }
            }
        }
    }
    for p in points {
        for q in points.iter().filter(|q| q.2 == p.2 && q.1 > p.1) {
            if p.3 > q.3 + 2.0 * eps {
                let msg = format!(
                    "{}: P={} at u={} exceeds P={} at u={} by more than 2ε",
                    p.2, p.3, p.1, q.3, q.1
                );
                out.push((p.0, msg.clone()));
                out.push((q.0, msg));
            }
        }
    }
    out.sort_by_key(|f| f.0);
    out.dedup_by_key(|f| f.0);
    out
}

/// Corpus queries: the estimate is a probability, and a query the
/// pre-verdict decided drew no samples.
pub fn check_corpus_answer(a: &Answer) -> Option<String> {
    if !(0.0..=1.0).contains(&a.estimate) {
        return Some(format!("estimate {} is not a probability", a.estimate));
    }
    (a.decided && a.samples != 0)
        .then(|| format!("decided statically yet sampled {} paths", a.samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(p: f64) -> Answer {
        Answer { estimate: p, ..Answer::default() }
    }

    #[test]
    fn sim_check_rejects_far_estimate() {
        let exact = analytic_failure_probability(&SensorFilterParams::default(), HORIZON);
        assert!(check_sensor_filter_sim(2, &est(exact + 0.015), 0.01).is_none());
        assert!(check_sensor_filter_sim(2, &est(exact + 0.025), 0.01).is_some());
    }

    #[test]
    fn ctmc_check_rejects_wrong_probability_or_lumping() {
        let exact = analytic_failure_probability(&SensorFilterParams::default(), HORIZON);
        let good = Answer { estimate: exact, lumped: 9, ..Answer::default() };
        assert!(check_sensor_filter_ctmc(2, &good).is_none());
        assert!(check_sensor_filter_ctmc(2, &Answer { estimate: exact + 1e-5, ..good.clone() })
            .is_some());
        assert!(check_sensor_filter_ctmc(2, &Answer { lumped: 10, ..good }).is_some());
    }

    #[test]
    fn fig5_check_rejects_wrong_order_and_non_monotone_curve() {
        use StrategyKind::{Asap, Local, MaxTime, Progressive};
        let mut pts = Vec::new();
        for (k, (u, base)) in [(1.0, 0.0), (2.0, 0.2), (3.0, 0.4)].into_iter().enumerate() {
            for (j, (s, p)) in [(Asap, 0.3), (Progressive, 0.15), (Local, 0.15), (MaxTime, 0.0)]
                .into_iter()
                .enumerate()
            {
                pts.push((4 * k + j, u, s, base + p));
            }
        }
        assert!(check_fig5(&pts, 0.01).is_empty());

        let mut swapped = pts.clone();
        swapped[4].3 = 0.36; // ASAP at u=2 within 2ε of Progressive and Local
        let failed: Vec<usize> = check_fig5(&swapped, 0.01).into_iter().map(|f| f.0).collect();
        assert_eq!(failed, vec![4, 5, 6]);

        let mut dip = pts;
        dip[11].3 = 0.1; // MaxTime at u=3 below its u=2 value by more than 2ε
        let failed: Vec<usize> = check_fig5(&dip, 0.01).into_iter().map(|f| f.0).collect();
        assert_eq!(failed, vec![7, 11]);
    }

    #[test]
    fn corpus_check_rejects_bad_estimates() {
        assert!(check_corpus_answer(&est(0.3)).is_none());
        assert!(check_corpus_answer(&est(1.5)).is_some());
        assert!(check_corpus_answer(&est(f64::NAN)).is_some());
        let decided = Answer { decided: true, samples: 5, ..Answer::default() };
        assert!(check_corpus_answer(&decided).is_some());
    }

    #[test]
    fn errors_fail_their_query_once() {
        let plan =
            Plan { workload: Workload::ModelCorpus, seed: 1, smoke: true, queries: Vec::new() };
        let answers = vec![est(0.5), Answer { error: Some("boom".into()), ..Answer::default() }];
        assert_eq!(check(&plan, &answers), vec![(1, "boom".to_string())]);
    }
}
