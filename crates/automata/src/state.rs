//! Global state of a network of event-data automata.

use crate::automaton::LocId;
use crate::eval::Valuation;
use std::fmt;

/// A global state: one current location per automaton, a valuation of all
/// variables, and the absolute model time.
#[derive(Debug, Clone, PartialEq)]
pub struct NetState {
    /// Current location of each automaton (indexed by `ProcId`).
    pub locs: Vec<LocId>,
    /// Valuation of all network variables.
    pub nu: Valuation,
    /// Absolute elapsed model time.
    pub time: f64,
}

impl NetState {
    /// Creates a state at time zero.
    pub fn new(locs: Vec<LocId>, nu: Valuation) -> NetState {
        NetState { locs, nu, time: 0.0 }
    }

    /// Replaces the contents with a copy of `other`, reusing both buffers
    /// (no allocation once capacities match). The in-place per-path reset
    /// of the compiled simulation kernel.
    pub fn copy_from(&mut self, other: &NetState) {
        self.locs.clear();
        self.locs.extend_from_slice(&other.locs);
        self.nu.copy_from(&other.nu);
        self.time = other.time;
    }
}

impl fmt::Display for NetState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={} locs=[", self.time)?;
        for (i, l) in self.locs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "] ν=[")?;
        for (i, (_, v)) in self.nu.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn display_mentions_time_and_values() {
        let s = NetState::new(vec![LocId(2)], Valuation::new(vec![Value::Bool(true)]));
        let txt = s.to_string();
        assert!(txt.contains("t=0") && txt.contains("l2") && txt.contains("true"));
    }
}
