//! The *generator* abstraction (§III-A of the paper): decides from the
//! stream of Bernoulli samples whether further simulation is required, and
//! produces the final probability estimate.

use crate::chernoff::Accuracy;
use std::fmt;

/// The outcome of a statistical analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Point estimate of the probability (`A / N` in the paper).
    pub mean: f64,
    /// Total number of samples used.
    pub samples: u64,
    /// Number of samples satisfying the property.
    pub successes: u64,
    /// Error bound ε the estimate is accurate to.
    pub epsilon: f64,
    /// Confidence level `1 − δ`.
    pub confidence: f64,
}

impl Estimate {
    /// The confidence interval `[mean − ε, mean + ε]`, clamped to `[0, 1]`.
    pub fn interval(&self) -> (f64, f64) {
        ((self.mean - self.epsilon).max(0.0), (self.mean + self.epsilon).min(1.0))
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = self.interval();
        write!(
            f,
            "p ≈ {:.6} ∈ [{:.6}, {:.6}] ({} samples, {:.1}% confidence)",
            self.mean,
            lo,
            hi,
            self.samples,
            self.confidence * 100.0
        )
    }
}

/// A sequential sample acceptor; the paper calls this the *generator*.
///
/// Implementations: [`ChernoffHoeffding`] (fixed a-priori sample count),
/// and the sequential [`crate::sequential::Gauss`] and
/// [`crate::sequential::ChowRobbins`] generators the paper lists as future
/// extensions.
pub trait Generator: Send {
    /// Feeds one Bernoulli sample.
    fn add(&mut self, success: bool);

    /// True once the desired accuracy has been reached.
    fn is_complete(&self) -> bool;

    /// Current estimate (meaningful once [`Self::is_complete`], but always
    /// available for progress reporting).
    fn estimate(&self) -> Estimate;

    /// The a-priori known total sample count, if any (CH bound: yes;
    /// sequential rules: no). The simulator's runner samples exactly
    /// this many paths, in lane-wide blocks, when it is known.
    fn known_target(&self) -> Option<u64>;

    /// Samples accepted so far.
    fn samples(&self) -> u64;
}

/// Fixed-sample-count generator based on the Chernoff–Hoeffding bound.
#[derive(Debug, Clone)]
pub struct ChernoffHoeffding {
    accuracy: Accuracy,
    target: u64,
    samples: u64,
    successes: u64,
}

impl ChernoffHoeffding {
    /// Creates the generator for the given accuracy.
    pub fn new(accuracy: Accuracy) -> ChernoffHoeffding {
        ChernoffHoeffding {
            accuracy,
            target: accuracy.chernoff_samples(),
            samples: 0,
            successes: 0,
        }
    }

    /// The accuracy parameters.
    pub fn accuracy(&self) -> Accuracy {
        self.accuracy
    }
}

impl Generator for ChernoffHoeffding {
    fn add(&mut self, success: bool) {
        self.samples += 1;
        if success {
            self.successes += 1;
        }
    }

    fn is_complete(&self) -> bool {
        self.samples >= self.target
    }

    fn estimate(&self) -> Estimate {
        let mean =
            if self.samples == 0 { 0.0 } else { self.successes as f64 / self.samples as f64 };
        Estimate {
            mean,
            samples: self.samples,
            successes: self.successes,
            epsilon: self.accuracy.epsilon(),
            confidence: self.accuracy.confidence(),
        }
    }

    fn known_target(&self) -> Option<u64> {
        Some(self.target)
    }

    fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_exactly_at_target() {
        let acc = Accuracy::new(0.2, 0.2).unwrap();
        let mut g = ChernoffHoeffding::new(acc);
        let n = g.known_target().unwrap();
        assert!(n > 0);
        for i in 0..n {
            assert!(!g.is_complete(), "complete too early at {i}");
            g.add(i % 2 == 0);
        }
        assert!(g.is_complete());
        assert_eq!(g.samples(), n);
    }

    #[test]
    fn estimate_counts_successes() {
        let acc = Accuracy::new(0.1, 0.1).unwrap();
        let mut g = ChernoffHoeffding::new(acc);
        for i in 0..10 {
            g.add(i < 3);
        }
        let e = g.estimate();
        assert_eq!(e.successes, 3);
        assert_eq!(e.samples, 10);
        assert!((e.mean - 0.3).abs() < 1e-12);
        assert_eq!(e.confidence, 0.9);
    }

    #[test]
    fn empty_estimate_is_zero() {
        let g = ChernoffHoeffding::new(Accuracy::default());
        assert_eq!(g.estimate().mean, 0.0);
        assert_eq!(g.samples(), 0);
    }

    #[test]
    fn interval_clamps() {
        let e =
            Estimate { mean: 0.005, samples: 10, successes: 0, epsilon: 0.01, confidence: 0.95 };
        let (lo, hi) = e.interval();
        assert_eq!(lo, 0.0);
        assert!((hi - 0.015).abs() < 1e-12);
        assert!(e.to_string().contains("samples"));
    }

    #[test]
    fn generator_is_object_safe() {
        let mut boxed: Box<dyn Generator> = Box::new(ChernoffHoeffding::new(Accuracy::default()));
        boxed.add(true);
        assert_eq!(boxed.samples(), 1);
    }
}
