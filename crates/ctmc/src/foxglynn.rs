//! Poisson probability weights for uniformization.
//!
//! A light-weight stand-in for the Fox–Glynn algorithm: computes the
//! Poisson(λ) probabilities `w_k = e^{−λ} λ^k / k!` iteratively in a
//! numerically stable way (term ratios outward from the mode, then
//! normalized) and returns the truncation range covering at least
//! `1 − tol` probability mass.

/// Poisson weights `w[k]` for `k ∈ [left, left + w.len())` covering at
/// least `1 − tol` of the distribution's mass.
#[derive(Debug, Clone)]
pub struct PoissonWeights {
    /// First index with non-negligible weight.
    pub left: usize,
    /// Weights for `k = left, left+1, …`.
    pub weights: Vec<f64>,
}

impl PoissonWeights {
    /// Computes the weights for mean `lambda` and mass tolerance `tol`.
    ///
    /// # Panics
    /// Panics if `lambda` is negative/NaN or `tol` not in (0, 1).
    pub fn new(lambda: f64, tol: f64) -> PoissonWeights {
        assert!(lambda >= 0.0 && lambda.is_finite(), "bad lambda {lambda}");
        assert!(tol > 0.0 && tol < 1.0, "bad tolerance {tol}");
        if lambda == 0.0 {
            return PoissonWeights { left: 0, weights: vec![1.0] };
        }

        // Start at the mode, where the term is largest, and expand.
        let mode = lambda.floor() as usize;

        // Walk left and right multiplying by the term ratio
        // w_{k+1}/w_k = λ/(k+1).
        let mut right_terms = Vec::new();
        let mut w = 1.0f64; // relative to the mode weight
        let mut k = mode;
        loop {
            right_terms.push(w);
            let next = w * lambda / (k as f64 + 1.0);
            // The second bound guards against a runaway walk.
            if next < 1e-18 && k > mode + 3 || k >= mode + 10_000_000 {
                break;
            }
            w = next;
            k += 1;
        }
        let mut left_terms = Vec::new();
        let mut w = 1.0f64;
        let mut k = mode;
        while k > 0 {
            let prev = w * (k as f64) / lambda;
            if prev < 1e-18 && k < mode.saturating_sub(3) {
                break;
            }
            w = prev;
            k -= 1;
            left_terms.push(w);
        }
        let left = k;

        // Assemble and normalize: Σ w_k = 1 exactly (removes the scaling
        // constant e^{−λ} λ^m / m! along the way).
        let mut weights: Vec<f64> = left_terms.iter().rev().copied().chain(right_terms).collect();
        let sum: f64 = weights.iter().sum();
        weights.iter_mut().for_each(|v| *v /= sum);

        // Trim negligible tails until only `tol` mass is dropped.
        let mut dropped = 0.0;
        let mut start = 0;
        while start < weights.len() && dropped + weights[start] < tol / 2.0 {
            dropped += weights[start];
            start += 1;
        }
        let mut end = weights.len();
        let mut dropped_r = 0.0;
        while end > start + 1 && dropped_r + weights[end - 1] < tol / 2.0 {
            dropped_r += weights[end - 1];
            end -= 1;
        }
        PoissonWeights { left: left + start, weights: weights[start..end].to_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_pmf(lambda: f64, k: usize) -> f64 {
        let mut ln = -lambda + (k as f64) * lambda.ln();
        for i in 1..=k {
            ln -= (i as f64).ln();
        }
        ln.exp()
    }

    #[test]
    fn matches_direct_pmf_small_lambda() {
        let w = PoissonWeights::new(3.0, 1e-10);
        for (i, &v) in w.weights.iter().enumerate() {
            let k = w.left + i;
            let exact = poisson_pmf(3.0, k);
            assert!((v - exact).abs() < 1e-9, "k={k}: {v} vs {exact}");
        }
        assert!(w.weights.iter().sum::<f64>() > 1.0 - 1e-9);
    }

    #[test]
    fn large_lambda_stable() {
        let w = PoissonWeights::new(5000.0, 1e-9);
        assert!(w.weights.iter().sum::<f64>() > 1.0 - 1e-8);
        // Range centered near the mode with width ~ O(√λ).
        assert!(w.left < 5000 && 5000 < w.left + w.weights.len());
        assert!((w.weights.len() as f64) < 40.0 * 5000.0f64.sqrt());
        // Mode weight ≈ 1/√(2πλ).
        let peak = w.weights.iter().cloned().fold(0.0, f64::max);
        let expect = 1.0 / (2.0 * std::f64::consts::PI * 5000.0).sqrt();
        assert!((peak - expect).abs() / expect < 0.01, "{peak} vs {expect}");
    }

    #[test]
    fn zero_lambda_is_point_mass() {
        let w = PoissonWeights::new(0.0, 1e-9);
        assert_eq!(w.left, 0);
        assert_eq!(w.weights, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "bad lambda")]
    fn negative_lambda_panics() {
        PoissonWeights::new(-1.0, 1e-9);
    }
}
