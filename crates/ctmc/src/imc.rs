//! Interactive Markov chains — the intermediate representation between
//! state-space exploration and the CTMC (the role NuSMV's reachable state
//! graph plays in the COMPASS pipeline, §IV).
//!
//! An explored IMC stores the maximal-progress chain: a vanishing state
//! keeps its immediate edges only, and its Markovian edges, which
//! maximal progress makes unreachable, are counted but not stored.
//! [`Imc::transition_count`] counts every explored edge, stored or not.

use crate::csr::Rows;

/// A state for [`Imc::from_rows`]: `(goal, interactive, Markovian (target, rate))`.
pub type ImcRow = (bool, Vec<usize>, Vec<(usize, f64)>);

/// An interactive Markov chain over explored discrete states, its edges in
/// compressed-sparse-row form. State 0 is the initial state; a state with
/// immediate successors is *vanishing* (maximal progress makes its
/// Markovian edges unreachable).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Imc {
    pub(crate) goal: Vec<bool>,
    pub(crate) interactive: Rows,
    pub(crate) markovian: Rows,
    /// Markovian edges explored from vanishing states and not stored.
    pub(crate) preempted: usize,
}

impl Imc {
    /// Builds an IMC from per-state rows, state 0 first, storing every
    /// edge given (Markovian rows of vanishing states included). Panics on
    /// a target or an edge count past `u32::MAX`.
    pub fn from_rows(rows: &[ImcRow]) -> Imc {
        Imc {
            goal: rows.iter().map(|r| r.0).collect(),
            interactive: Rows::from_lists(rows.iter().map(|r| r.1.iter().map(|&t| (t, None)))),
            markovian: Rows::from_lists(
                rows.iter().map(|r| r.2.iter().map(|&(t, q)| (t, Some(q)))),
            ),
            preempted: 0,
        }
    }

    /// Sets the number of explored Markovian edges that are not stored
    /// because they leave vanishing states.
    pub fn with_preempted(self, preempted: usize) -> Imc {
        Imc { preempted, ..self }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.goal.len()
    }

    /// True if there are no states.
    pub fn is_empty(&self) -> bool {
        self.goal.is_empty()
    }

    /// Whether the goal predicate holds in state `s`.
    pub fn goal(&self, s: usize) -> bool {
        self.goal[s]
    }

    /// The immediate (interactive) successors of state `s`, in order.
    pub fn interactive(&self, s: usize) -> &[u32] {
        self.interactive.targets(s)
    }

    /// The stored Markovian `(target, rate)` edges of state `s`, in order
    /// (none for a vanishing state of an explored IMC).
    pub fn markovian(&self, s: usize) -> impl ExactSizeIterator<Item = (usize, f64)> + '_ {
        self.markovian.row(s)
    }

    /// True if immediate transitions leave state `s`.
    pub fn is_vanishing(&self, s: usize) -> bool {
        !self.interactive(s).is_empty()
    }

    /// Number of explored Markovian edges not stored because maximal
    /// progress preempts them.
    pub fn preempted(&self) -> usize {
        self.preempted
    }

    /// Total number of explored transitions: interactive, stored Markovian
    /// and preempted.
    pub fn transition_count(&self) -> usize {
        self.interactive.edges() + self.markovian.edges() + self.preempted
    }

    /// Bytes allocated by the IMC's arrays (their capacities).
    pub fn allocated_bytes(&self) -> usize {
        self.goal.capacity() + self.interactive.allocated_bytes() + self.markovian.allocated_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_counts() {
        let imc = Imc::from_rows(&[
            (false, vec![1, 2], vec![(2, 0.25)]),
            (false, vec![], vec![(2, 0.5), (0, 1.5)]),
            (true, vec![], vec![]),
        ]);
        assert_eq!(imc.len(), 3);
        assert!(!imc.is_empty());
        assert_eq!((imc.transition_count(), imc.preempted()), (5, 0));
        assert_eq!(imc.interactive(0), [1, 2]);
        assert!(imc.interactive(1).is_empty() && imc.interactive(2).is_empty());
        assert_eq!(imc.markovian(0).collect::<Vec<_>>(), [(2, 0.25)]);
        assert_eq!(imc.markovian(1).collect::<Vec<_>>(), [(2, 0.5), (0, 1.5)]);
        assert_eq!(imc.markovian(2).len(), 0);
        assert!(imc.is_vanishing(0) && !imc.is_vanishing(1));
        assert_eq!((imc.goal(0), imc.goal(2)), (false, true));
        let bytes = imc.goal.capacity()
            + imc.interactive.allocated_bytes()
            + imc.markovian.allocated_bytes();
        assert_eq!(imc.allocated_bytes(), bytes);
        let imc = imc.with_preempted(3);
        assert_eq!((imc.transition_count(), imc.preempted()), (8, 3));
    }
}
