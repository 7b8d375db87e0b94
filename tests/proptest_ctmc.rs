//! Randomized tests for the CTMC pipeline: lumping preserves time-bounded
//! reachability on random chains; transient distributions stay stochastic;
//! vanishing elimination conserves probability.

mod common;

use common::*;
use slimsim::ctmc::ctmc::Ctmc;
use slimsim::ctmc::eliminate::eliminate;
use slimsim::ctmc::imc::{Imc, ImcState};
use slimsim::ctmc::lumping::lump;
use slimsim::ctmc::transient::{timed_reachability, transient_distribution, TransientConfig};

/// A random CTMC with up to `max_n` states, sparse random rates, random
/// goal labels.
fn ctmc(rng: &mut StdRng, max_n: usize) -> Ctmc {
    ctmc_with_rates(rng, max_n, |rng| f64_in(rng, 0.1, 5.0))
}

/// [`ctmc`] with rates drawn by `rate`.
fn ctmc_with_rates(
    rng: &mut StdRng,
    max_n: usize,
    mut rate: impl FnMut(&mut StdRng) -> f64,
) -> Ctmc {
    let n = usize_in(rng, 2, max_n + 1);
    let rates: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|s| {
            let row = vec_of(rng, 0, 4, |rng| (rng.gen_range(0..n), rate(rng)));
            // No self-loops (they are meaningless in a CTMC) and merge
            // duplicate targets.
            let mut acc = std::collections::BTreeMap::new();
            for (t, r) in row {
                if t != s {
                    *acc.entry(t).or_insert(0.0) += r;
                }
            }
            acc.into_iter().collect()
        })
        .collect();
    let goal = (0..n).map(|_| rng.gen::<bool>()).collect();
    Ctmc { rates, goal, initial: vec![(0, 1.0)] }
}

#[test]
fn lumping_preserves_timed_reachability() {
    let mut rng = StdRng::seed_from_u64(0x5eed_c3c1);
    for case in 0..128 {
        let c = ctmc(&mut rng, 8);
        let t = f64_in(&mut rng, 0.1, 5.0);
        let cfg = TransientConfig::default();
        let direct = timed_reachability(&c, t, &cfg);
        let lumped = lump(&c);
        let quotient = timed_reachability(&lumped.quotient, t, &cfg);
        assert!(
            (direct - quotient).abs() < 1e-7,
            "case {case}: direct {direct} vs quotient {quotient} ({} -> {} states)",
            c.len(),
            lumped.quotient.len()
        );
    }
}

/// A race: state 0 fans out to `k` intermediates, each of which moves to
/// the absorbing goal state `k + 1` (and maybe to another intermediate).
/// Intermediates differ only in their rates, so any rate quantizer that
/// conflates two distinct rates merges them.
fn race(rng: &mut StdRng, mut rate: impl FnMut(&mut StdRng) -> f64) -> Ctmc {
    let k = usize_in(rng, 2, 6);
    let mut rates = vec![(1..=k).map(|i| (i, rate(rng))).collect::<Vec<_>>()];
    for i in 1..=k {
        let mut row = vec![(k + 1, rate(rng))];
        let j = usize_in(rng, 1, k + 1);
        if j != i && rng.gen::<bool>() {
            row.push((j, rate(rng)));
            row.sort_by_key(|&(t, _)| t);
        }
        rates.push(row);
    }
    rates.push(vec![]);
    let goal = (0..k + 2).map(|s| s == k + 1).collect();
    Ctmc { rates, goal, initial: vec![(0, 1.0)] }
}

/// Lumping must be exact at every rate magnitude. Each chain draws its
/// rates log-uniformly from two decades around a log-uniform centre
/// 10^c, c ∈ [-5, 8], so rates span 1e-6..1e9 across chains and every
/// chain mixes distinct rates of one magnitude — which a quantizer that
/// saturates (or rounds to zero) at that magnitude would merge. Even
/// cases are general random chains, odd cases races; the horizon is set
/// on the chain's own time scale.
#[test]
fn lumping_preserves_timed_reachability_across_rate_scales() {
    let mut rng = StdRng::seed_from_u64(0x5eed_5ca1);
    for case in 0..2048 {
        let centre = f64_in(&mut rng, -5.0, 8.0);
        let rate = |rng: &mut StdRng| 10f64.powf(centre + f64_in(rng, -1.0, 1.0));
        let mut c =
            if case % 2 == 0 { ctmc_with_rates(&mut rng, 8, rate) } else { race(&mut rng, rate) };
        // Start outside the goal, so that the race matters.
        c.goal[0] = false;
        let t = f64_in(&mut rng, 0.1, 2.0) / 10f64.powf(centre);
        let cfg = TransientConfig::default();
        let direct = timed_reachability(&c, t, &cfg);
        let lumped = lump(&c);
        let quotient = timed_reachability(&lumped.quotient, t, &cfg);
        assert!(
            (direct - quotient).abs() < 1e-7,
            "case {case}: rates ~1e{centre:.1}: direct {direct} vs quotient {quotient} \
             ({} -> {} states)",
            c.len(),
            lumped.quotient.len()
        );
    }
}

#[test]
fn lumping_respects_goal_labels() {
    let mut rng = StdRng::seed_from_u64(0x5eed_90a1);
    for case in 0..128 {
        let c = ctmc(&mut rng, 8);
        let lumped = lump(&c);
        for (s, &b) in lumped.block_of.iter().enumerate() {
            assert_eq!(c.goal[s], lumped.quotient.goal[b], "case {case}: state {s} block {b}");
        }
    }
}

#[test]
fn transient_distribution_stochastic() {
    let mut rng = StdRng::seed_from_u64(0x5eed_d157);
    for case in 0..128 {
        let c = ctmc(&mut rng, 8);
        let t = f64_in(&mut rng, 0.0, 10.0);
        let pi = transient_distribution(&c, t, &TransientConfig::default());
        let mass: f64 = pi.iter().sum();
        assert!((mass - 1.0).abs() < 1e-7, "case {case}: mass {mass}");
        assert!(pi.iter().all(|&p| p >= -1e-10), "case {case}");
    }
}

#[test]
fn reachability_monotone_in_time() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0101);
    for case in 0..128 {
        let c = ctmc(&mut rng, 6);
        let t = f64_in(&mut rng, 0.1, 3.0);
        let cfg = TransientConfig::default();
        let p1 = timed_reachability(&c, t, &cfg);
        let p2 = timed_reachability(&c, t * 2.0, &cfg);
        assert!(p2 >= p1 - 1e-9, "case {case}: P(◇[0,{t}]) = {p1} > P(◇[0,{}]) = {p2}", t * 2.0);
    }
}

#[test]
fn elimination_conserves_probability() {
    let mut rng = StdRng::seed_from_u64(0x5eed_e11a);
    for case in 0..64 {
        let n = usize_in(&mut rng, 3, 8);
        let fan = usize_in(&mut rng, 1, 3);
        // A vanishing chain: tangible 0 --1.0--> vanishing 1..n-2 --> tangible n-1.
        let mut states = Vec::new();
        states.push(ImcState { interactive: vec![], markovian: vec![(1, 1.0)], goal: false });
        for i in 1..n - 1 {
            let succs: Vec<usize> = (0..fan).map(|k| ((i + 1 + k) % n).max(1)).collect();
            let succs = succs.into_iter().map(|s| if s <= i { n - 1 } else { s }).collect();
            states.push(ImcState { interactive: succs, markovian: vec![], goal: false });
        }
        states.push(ImcState { interactive: vec![], markovian: vec![], goal: true });
        let imc = Imc { states };
        let ctmc = eliminate(&imc).expect("acyclic vanishing chain");
        assert!(ctmc.check_valid().is_ok(), "case {case}: {:?}", ctmc.check_valid());
        // All rate mass of state 0 is conserved (redistributed, not lost).
        let init_ctmc_state = ctmc.initial[0].0;
        let total: f64 = ctmc.rates[init_ctmc_state].iter().map(|&(_, r)| r).sum();
        assert!((total - 1.0).abs() < 1e-9, "case {case}: rate mass {total}");
    }
}
