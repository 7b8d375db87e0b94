//! Uniformization-based transient analysis — the MRMC substitute.
//!
//! Time-bounded reachability `P(◇[0,t] G)` is computed by making the goal
//! states absorbing and summing the transient probability mass in `G` at
//! time `t`:
//!
//! ```text
//! π(t) = Σ_k Poisson(q·t; k) · π(0) · Pᵏ,    P = I + Q/q
//! ```
//!
//! with uniformization rate `q ≥ max exit rate` and Poisson weights from
//! [`crate::foxglynn`].

use crate::ctmc::Ctmc;
use crate::foxglynn::PoissonWeights;

/// Numerical tolerance configuration.
#[derive(Debug, Clone, Copy)]
pub struct TransientConfig {
    /// Total truncation error allowed in the Poisson sum.
    pub tolerance: f64,
}

impl Default for TransientConfig {
    fn default() -> Self {
        TransientConfig { tolerance: 1e-10 }
    }
}

/// Computes the transient distribution `π(t)` of `ctmc` at time `t`.
///
/// # Panics
/// Panics on negative `t`.
pub fn transient_distribution(ctmc: &Ctmc, t: f64, config: &TransientConfig) -> Vec<f64> {
    transient(ctmc, t, config, false)
}

/// `π(t)`; with `absorb_goal`, goal rows read as empty (absorbing).
fn transient(ctmc: &Ctmc, t: f64, config: &TransientConfig, absorb_goal: bool) -> Vec<f64> {
    assert!(t >= 0.0, "time must be non-negative");
    let n = ctmc.len();
    let mut pi0 = vec![0.0; n];
    for &(s, p) in &ctmc.initial {
        pi0[s] += p;
    }
    if t == 0.0 || n == 0 {
        return pi0;
    }
    let live = |s: usize| !(absorb_goal && ctmc.goal[s]);
    let exit_rate = |s| ctmc.row(s).map(|(_, r)| r).sum::<f64>();
    let q = (0..n).filter(|&s| live(s)).map(exit_rate).fold(0.0, f64::max).max(1e-12) * 1.02;
    let weights = PoissonWeights::new(q * t, config.tolerance);

    let mut vec_k = pi0; // π(0) · P^k, iterated
    let mut acc = vec![0.0; n];
    let k_max = weights.left + weights.weights.len();
    for k in 0..k_max {
        if k >= weights.left {
            let w = weights.weights[k - weights.left];
            for (a, v) in acc.iter_mut().zip(&vec_k) {
                *a += w * v;
            }
        }
        if k + 1 < k_max {
            // vec_{k+1} = vec_k · P with P = I + Q/q: each row's rates
            // scaled by 1/q, then the self-loop completing it to 1.
            let mut next = vec![0.0; n];
            for (s, &mass) in vec_k.iter().enumerate() {
                if mass == 0.0 {
                    continue;
                }
                let mut out = 0.0;
                for (tgt, r) in ctmc.row(s).filter(|_| live(s)) {
                    next[tgt] += mass * (r / q);
                    out += r / q;
                }
                next[s] += mass * (1.0 - out);
            }
            vec_k = next;
        }
    }
    acc
}

/// Computes `P(◇[0,t] G)` by absorbing-goal transient analysis.
///
/// # Panics
/// Panics on negative `t`.
pub fn timed_reachability(ctmc: &Ctmc, t: f64, config: &TransientConfig) -> f64 {
    let pi = transient(ctmc, t, config, true);
    // Folded from +0.0: the empty `f64` sum is -0.0, which `clamp` keeps,
    // so a chain without goal states would report `P = -0`.
    pi.iter().zip(&ctmc.goal).filter(|(_, &g)| g).fold(0.0, |acc, (p, _)| acc + p).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransientConfig {
        TransientConfig::default()
    }

    /// Single exponential transition: P(◇[0,t] G) = 1 − e^{−λt}.
    fn single_exp(lambda: f64) -> Ctmc {
        Ctmc::from_rows(&[vec![(1, lambda)], vec![]], vec![false, true], vec![(0, 1.0)])
    }

    #[test]
    fn goal_free_chain_is_positive_zero() {
        let c = Ctmc::from_rows(&[vec![(1, 1.0)], vec![]], vec![false, false], vec![(0, 1.0)]);
        assert_eq!(timed_reachability(&c, 1.0, &cfg()).to_bits(), 0);
    }

    #[test]
    fn matches_exponential_cdf() {
        for (lambda, t) in [(1.0, 1.0), (0.1, 5.0), (10.0, 0.3), (2.0, 0.0)] {
            let c = single_exp(lambda);
            let p = timed_reachability(&c, t, &cfg());
            let exact = 1.0 - (-lambda * t).exp();
            assert!((p - exact).abs() < 1e-8, "λ={lambda} t={t}: {p} vs {exact}");
        }
    }

    #[test]
    fn erlang_two_stages() {
        // 0 --λ--> 1 --λ--> 2 (goal): Erlang(2, λ) CDF = 1 − e^{−λt}(1 + λt).
        let lambda = 2.0;
        let c = Ctmc::from_rows(
            &[vec![(1, lambda)], vec![(2, lambda)], vec![]],
            vec![false, false, true],
            vec![(0, 1.0)],
        );
        for t in [0.1, 0.5, 1.0, 3.0] {
            let p = timed_reachability(&c, t, &cfg());
            let exact = 1.0 - (-lambda * t).exp() * (1.0 + lambda * t);
            assert!((p - exact).abs() < 1e-8, "t={t}: {p} vs {exact}");
        }
    }

    #[test]
    fn competing_risks_split() {
        // 0 → goal with rate a, 0 → trap with rate b:
        // P(◇[0,∞] goal) = a/(a+b); at finite t: a/(a+b)(1 − e^{−(a+b)t}).
        let (a, b) = (1.0, 3.0);
        let c = Ctmc::from_rows(
            &[vec![(1, a), (2, b)], vec![], vec![]],
            vec![false, true, false],
            vec![(0, 1.0)],
        );
        let t = 2.0;
        let p = timed_reachability(&c, t, &cfg());
        let exact = a / (a + b) * (1.0 - (-(a + b) * t).exp());
        assert!((p - exact).abs() < 1e-8, "{p} vs {exact}");
    }

    #[test]
    fn goal_absorption_prevents_leaving() {
        // goal state has an outgoing rate back to a non-goal state; once
        // reached within [0,t] the property holds regardless.
        let c =
            Ctmc::from_rows(&[vec![(1, 1.0)], vec![(0, 100.0)]], vec![false, true], vec![(0, 1.0)]);
        let p = timed_reachability(&c, 3.0, &cfg());
        let exact = 1.0 - (-3.0f64).exp();
        assert!((p - exact).abs() < 1e-8, "{p} vs {exact}");
    }

    #[test]
    fn transient_distribution_is_stochastic() {
        let c = Ctmc::from_rows(
            &[vec![(1, 0.5), (2, 0.5)], vec![(2, 1.0)], vec![(0, 0.2)]],
            vec![false, false, false],
            vec![(0, 0.7), (1, 0.3)],
        );
        for t in [0.0, 0.5, 2.0, 10.0] {
            let pi = transient_distribution(&c, t, &cfg());
            let mass: f64 = pi.iter().sum();
            assert!((mass - 1.0).abs() < 1e-8, "t={t}: mass {mass}");
            assert!(pi.iter().all(|&p| p >= -1e-12));
        }
    }

    #[test]
    fn initial_goal_state_counts_immediately() {
        let c = Ctmc::from_rows(&[vec![]], vec![true], vec![(0, 1.0)]);
        assert!((timed_reachability(&c, 0.0, &cfg()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn large_time_converges_to_absorption_probability() {
        let (a, b) = (0.3, 0.7);
        let c = Ctmc::from_rows(
            &[vec![(1, a), (2, b)], vec![], vec![]],
            vec![false, true, false],
            vec![(0, 1.0)],
        );
        let p = timed_reachability(&c, 1000.0, &cfg());
        assert!((p - 0.3).abs() < 1e-6, "{p}");
    }
}
