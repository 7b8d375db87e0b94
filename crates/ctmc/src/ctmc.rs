//! Continuous-time Markov chains.

use crate::csr::Rows;

/// A CTMC with compressed-sparse-row rates, a goal labeling and an initial
/// distribution (the model's initial state may be vanishing, dissolving
/// into a distribution over tangible states).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ctmc {
    pub(crate) rates: Rows,
    /// Goal labeling.
    pub goal: Vec<bool>,
    /// Initial probability distribution `[(state, p), …]`, summing to 1.
    pub initial: Vec<(usize, f64)>,
}

impl Ctmc {
    /// Builds a chain from per-state rate rows `rows[s] = [(target, λ), …]`,
    /// a goal labeling and an initial distribution `init`. Panics on a
    /// target or an edge count past `u32::MAX`.
    pub fn from_rows(rows: &[Vec<(usize, f64)>], goal: Vec<bool>, init: Vec<(usize, f64)>) -> Ctmc {
        let rates = Rows::from_lists(rows.iter().map(|r| r.iter().map(|&(t, q)| (t, Some(q)))));
        Ctmc { rates, goal, initial: init }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True if the chain has no states.
    pub fn is_empty(&self) -> bool {
        self.rates.len() == 0
    }

    /// Number of (non-zero) transitions.
    pub fn transition_count(&self) -> usize {
        self.rates.edges()
    }

    /// The `(target, λ)` edges leaving state `s`.
    pub fn row(&self, s: usize) -> impl ExactSizeIterator<Item = (usize, f64)> + '_ {
        self.rates.row(s)
    }

    /// Validates structural sanity (used by tests and debug assertions):
    /// targets in range, rates positive, initial distribution normalized.
    pub fn check_valid(&self) -> Result<(), String> {
        let n = self.len();
        if self.goal.len() != n {
            return Err(format!("goal labeling has {} entries for {n} states", self.goal.len()));
        }
        for s in 0..n {
            for (t, r) in self.row(s) {
                if t >= n {
                    return Err(format!("transition {s}→{t} out of range"));
                }
                if !r.is_finite() || r <= 0.0 {
                    return Err(format!("non-positive rate {r} on {s}→{t}"));
                }
            }
        }
        let mass: f64 = self.initial.iter().map(|(_, p)| p).sum();
        if (mass - 1.0).abs() > 1e-9 {
            return Err(format!("initial distribution sums to {mass}"));
        }
        for &(s, p) in &self.initial {
            if s >= n || p < 0.0 {
                return Err(format!("bad initial entry ({s}, {p})"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<(usize, f64)>> {
        vec![vec![(1, 2.0)], vec![(0, 1.0), (2, 3.0)], vec![]]
    }

    fn chain() -> Ctmc {
        Ctmc::from_rows(&rows(), vec![false, false, true], vec![(0, 1.0)])
    }

    #[test]
    fn accessors() {
        let c = chain();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.transition_count(), 3);
        assert_eq!(c.row(1).collect::<Vec<_>>(), [(0, 1.0), (2, 3.0)]);
        assert_eq!(c.row(2).len(), 0);
        assert!(c.check_valid().is_ok());
    }

    #[test]
    fn validity_catches_errors() {
        let with_edge = |e| {
            let mut r = rows();
            r[0][0] = e;
            Ctmc::from_rows(&r, vec![false, false, true], vec![(0, 1.0)])
        };
        assert!(with_edge((9, 2.0)).check_valid().is_err());
        assert!(with_edge((1, -1.0)).check_valid().is_err());
        let mut c = chain();
        c.initial = vec![(0, 0.5)];
        assert!(c.check_valid().is_err());
        let mut c = chain();
        c.goal.pop();
        assert!(c.check_valid().is_err());
    }
}
