//! Chernoff–Hoeffding sample bounds (§II-B of the paper).
//!
//! For i.i.d. Bernoulli samples X₁…X_N with mean estimator X̄, the
//! Hoeffding inequality gives `P[|X̄ − p| ≤ ε] ≥ 1 − δ` whenever
//!
//! ```text
//! N ≥ ln(2/δ) / (2 ε²)
//! ```
//!
//! (the paper's formula rendering is garbled; this is the standard form of
//! its reference \[7\]). The number of samples is thus known *a priori*,
//! which lets the simulator's runner commit whole lane blocks to its
//! workers up front.

use std::fmt;

/// Statistical accuracy parameters: error bound ε and confidence 1 − δ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    epsilon: f64,
    delta: f64,
}

/// Error constructing [`Accuracy`]: parameters must lie in (0, 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccuracyError;

impl fmt::Display for AccuracyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epsilon and delta must lie strictly between 0 and 1")
    }
}

impl std::error::Error for AccuracyError {}

impl Accuracy {
    /// Creates accuracy parameters.
    ///
    /// # Errors
    /// [`AccuracyError`] unless `0 < epsilon < 1` and `0 < delta < 1`.
    pub fn new(epsilon: f64, delta: f64) -> Result<Accuracy, AccuracyError> {
        if epsilon > 0.0 && epsilon < 1.0 && delta > 0.0 && delta < 1.0 {
            Ok(Accuracy { epsilon, delta })
        } else {
            Err(AccuracyError)
        }
    }

    /// The error bound ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The significance δ (confidence is `1 − δ`).
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The confidence level `1 − δ`.
    pub fn confidence(&self) -> f64 {
        1.0 - self.delta
    }

    /// The Chernoff–Hoeffding sample count `⌈ln(2/δ) / (2ε²)⌉`.
    ///
    /// # Examples
    ///
    /// ```
    /// use slim_stats::chernoff::Accuracy;
    /// let acc = Accuracy::new(0.01, 0.05)?;
    /// assert_eq!(acc.chernoff_samples(), 18445);
    /// # Ok::<(), slim_stats::chernoff::AccuracyError>(())
    /// ```
    pub fn chernoff_samples(&self) -> u64 {
        ((2.0 / self.delta).ln() / (2.0 * self.epsilon * self.epsilon)).ceil() as u64
    }

    /// The error bound achievable with `n` samples at this δ (inverse of
    /// [`Self::chernoff_samples`]).
    pub fn epsilon_for_samples(&self, n: u64) -> f64 {
        assert!(n > 0, "need at least one sample");
        ((2.0 / self.delta).ln() / (2.0 * n as f64)).sqrt()
    }
}

impl Default for Accuracy {
    /// ε = 0.01, δ = 0.05 (95% confidence) — the defaults used by the
    /// benchmark harness.
    fn default() -> Self {
        Accuracy { epsilon: 0.01, delta: 0.05 }
    }
}

impl fmt::Display for Accuracy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε={} δ={}", self.epsilon, self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range() {
        assert!(Accuracy::new(0.0, 0.5).is_err());
        assert!(Accuracy::new(0.5, 0.0).is_err());
        assert!(Accuracy::new(1.0, 0.5).is_err());
        assert!(Accuracy::new(0.5, 1.0).is_err());
        assert!(Accuracy::new(-0.1, 0.5).is_err());
        assert!(Accuracy::new(f64::NAN, 0.5).is_err());
        assert!(Accuracy::new(0.1, 0.1).is_ok());
    }

    #[test]
    fn sample_count_matches_formula() {
        let acc = Accuracy::new(0.01, 0.05).unwrap();
        let expected = ((2.0f64 / 0.05).ln() / (2.0 * 0.0001)).ceil() as u64;
        assert_eq!(acc.chernoff_samples(), expected);
    }

    #[test]
    fn halving_epsilon_quadruples_samples() {
        // The quadratic growth claimed in §IV of the paper.
        let a = Accuracy::new(0.02, 0.05).unwrap().chernoff_samples();
        let b = Accuracy::new(0.01, 0.05).unwrap().chernoff_samples();
        let ratio = b as f64 / a as f64;
        assert!((ratio - 4.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn tightening_delta_grows_logarithmically() {
        let a = Accuracy::new(0.01, 0.1).unwrap().chernoff_samples();
        let b = Accuracy::new(0.01, 0.01).unwrap().chernoff_samples();
        assert!(b > a);
        assert!((b as f64) < 2.0 * a as f64, "log growth only");
    }

    #[test]
    fn epsilon_inverse_round_trips() {
        let acc = Accuracy::new(0.01, 0.05).unwrap();
        let n = acc.chernoff_samples();
        let eps = acc.epsilon_for_samples(n);
        assert!(eps <= 0.01 + 1e-6, "achieved ε {eps}");
        assert!(eps > 0.009, "not wildly conservative");
    }

    #[test]
    fn paper_case_study_parameters() {
        // §V-d uses ε = 0.005; confidence written as δ = 0.9 in the paper's
        // notation (confidence 0.9 ⇒ our δ = 0.1).
        let acc = Accuracy::new(0.005, 0.1).unwrap();
        let n = acc.chernoff_samples();
        assert!(n > 50_000 && n < 100_000, "N = {n}");
    }

    #[test]
    fn default_and_display() {
        let acc = Accuracy::default();
        assert_eq!(acc.epsilon(), 0.01);
        assert_eq!(acc.confidence(), 0.95);
        assert!(acc.to_string().contains("ε=0.01"));
    }
}
