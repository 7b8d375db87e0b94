//! Statistical validation of the estimation machinery: empirical
//! confidence-interval coverage for each generator, and unbiasedness of
//! importance sampling. These are repetitions-of-analyses tests — slower
//! than unit tests but the definitive check that the statistics do what
//! they promise.

use slimsim::prelude::*;
use slimsim::stats::estimator::Generator as _;
use slimsim::stats::rng::{derive_seed, path_rng};
use slimsim::stats::weighted::WeightedEstimator;

/// A Bernoulli stream driven by a seeded RNG.
fn bernoulli_stream(p: f64, seed: u64) -> impl FnMut() -> bool {
    let mut rng = path_rng(seed, 0);
    move || rng.gen::<f64>() < p
}

/// Empirical coverage of the Chernoff–Hoeffding interval: across many
/// repetitions, the fraction of runs with `|p̂ − p| ≤ ε` must be at least
/// `1 − δ` (CH is conservative, so it will be much higher — but never
/// materially lower).
#[test]
fn chernoff_interval_coverage() {
    let p = 0.3;
    let acc = Accuracy::new(0.05, 0.2).unwrap();
    let reps = 200;
    let mut covered = 0;
    for rep in 0..reps {
        let mut gen = slimsim::stats::ChernoffHoeffding::new(acc);
        let mut draw = bernoulli_stream(p, derive_seed(1, rep));
        while !gen.is_complete() {
            gen.add(draw());
        }
        if (gen.estimate().mean - p).abs() <= acc.epsilon() {
            covered += 1;
        }
    }
    let coverage = covered as f64 / reps as f64;
    assert!(coverage >= 1.0 - acc.delta(), "CH coverage {coverage} below {}", 1.0 - acc.delta());
}

/// Gauss (CLT) sequential intervals are approximate; their empirical
/// coverage should land near the nominal level (allow slack for the
/// sequential-stopping optimism).
#[test]
fn gauss_interval_coverage_near_nominal() {
    let p = 0.4;
    let acc = Accuracy::new(0.04, 0.1).unwrap();
    let reps = 300;
    let mut covered = 0;
    for rep in 0..reps {
        let mut gen = slimsim::stats::Gauss::new(acc);
        let mut draw = bernoulli_stream(p, derive_seed(2, rep));
        while !gen.is_complete() {
            gen.add(draw());
        }
        if (gen.estimate().mean - p).abs() <= acc.epsilon() {
            covered += 1;
        }
    }
    let coverage = covered as f64 / reps as f64;
    assert!(coverage > 0.8, "Gauss coverage {coverage} far below nominal 0.9");
}

/// Chow–Robbins: same check.
#[test]
fn chow_robbins_interval_coverage_near_nominal() {
    let p = 0.15;
    let acc = Accuracy::new(0.04, 0.1).unwrap();
    let reps = 300;
    let mut covered = 0;
    for rep in 0..reps {
        let mut gen = slimsim::stats::ChowRobbins::new(acc);
        let mut draw = bernoulli_stream(p, derive_seed(3, rep));
        while !gen.is_complete() {
            gen.add(draw());
        }
        if (gen.estimate().mean - p).abs() <= acc.epsilon() {
            covered += 1;
        }
    }
    let coverage = covered as f64 / reps as f64;
    assert!(coverage > 0.8, "Chow–Robbins coverage {coverage} far below nominal 0.9");
}

/// Importance sampling is unbiased: averaging many independent weighted
/// estimates converges to the true probability, for several boosts.
#[test]
fn importance_sampling_unbiased_on_model() {
    let lambda = 0.05_f64;
    let mut b = NetworkBuilder::new();
    let mut a = AutomatonBuilder::new("unit");
    let ok = a.location("ok");
    let dead = a.location("dead");
    a.markovian(ok, lambda, [], dead);
    b.add_automaton(a);
    let net = b.build().unwrap();
    let goal = Goal::in_location(&net, "unit", "dead").unwrap();
    let prop = TimedReach::new(goal, 1.0);
    let exact = 1.0 - (-lambda).exp();

    let gen = PathGenerator::new(&net, &prop, 10_000);
    let mut scratch = SimScratch::new();
    for boost in [5.0, 20.0] {
        let mut est = WeightedEstimator::new(0.05, 0.95);
        let mut strategy = Asap;
        let mut bias = ImportanceBias::new(boost);
        for i in 0..20_000u64 {
            let mut rng = path_rng(derive_seed(4, boost as u64), i);
            bias.clear();
            let out = gen.generate_with(&mut scratch, &mut strategy, &mut rng, &mut bias).unwrap();
            est.add(out.verdict.is_success(), bias.weights()[0]);
        }
        let e = est.estimate();
        let rel = (e.mean - exact).abs() / exact;
        assert!(rel < 0.1, "boost {boost}: mean {} vs exact {exact} (rel {rel})", e.mean);
    }
}

/// The estimator's per-path weights are exactly the likelihood ratio:
/// with bias = 1 every weight is 1, even on paths with many events.
#[test]
fn bias_one_weights_are_exactly_one() {
    let mut b = NetworkBuilder::new();
    let count = b.var("count", VarType::Int { lo: 0, hi: 100 }, Value::Int(0));
    let mut a = AutomatonBuilder::new("p");
    let l = a.location("l");
    a.markovian(
        l,
        3.0,
        [Effect::assign(count, Expr::var(count).add(Expr::int(1)).min(Expr::int(100)))],
        l,
    );
    b.add_automaton(a);
    let net = b.build().unwrap();
    let goal = Goal::expr(Expr::var(count).ge(Expr::int(10)));
    let prop = TimedReach::new(goal, 100.0);
    let gen = PathGenerator::new(&net, &prop, 10_000);
    let mut strategy = Asap;
    let mut scratch = SimScratch::new();
    let mut bias = ImportanceBias::new(1.0);
    for i in 0..50 {
        let mut rng = path_rng(5, i);
        let out = gen.generate_with(&mut scratch, &mut strategy, &mut rng, &mut bias).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
    }
    for &w in bias.weights() {
        assert!((w - 1.0).abs() < 1e-12, "weight {w} != 1 with bias 1");
    }
    assert_eq!(bias.weights().len(), 50);
}

/// Parallel analysis coverage on a real model: repeated parallel runs
/// stay within ε of the analytic answer at least `1 − δ` of the time.
#[test]
fn parallel_analysis_coverage() {
    let mut b = NetworkBuilder::new();
    let mut a = AutomatonBuilder::new("m");
    let ok = a.location("ok");
    let dead = a.location("dead");
    a.markovian(ok, 1.0, [], dead);
    b.add_automaton(a);
    let net = b.build().unwrap();
    let goal = Goal::in_location(&net, "m", "dead").unwrap();
    let prop = TimedReach::new(goal, 1.0);
    let exact = 1.0 - (-1.0f64).exp();
    let acc = Accuracy::new(0.05, 0.2).unwrap();

    let reps = 30;
    let mut covered = 0;
    for rep in 0..reps {
        let cfg = SimConfig::default()
            .with_accuracy(acc)
            .with_strategy(StrategyKind::Asap)
            .with_workers(3)
            .with_seed(derive_seed(6, rep));
        let r = analyze(&net, &prop, &cfg).unwrap();
        if (r.probability() - exact).abs() <= acc.epsilon() {
            covered += 1;
        }
    }
    assert!(
        covered as f64 / reps as f64 >= 1.0 - acc.delta(),
        "parallel coverage {covered}/{reps}"
    );
}
