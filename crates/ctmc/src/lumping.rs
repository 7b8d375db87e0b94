//! Ordinary-lumpability bisimulation minimization of CTMCs.
//!
//! This substitutes the sigref weak-bisimulation reduction of the COMPASS
//! pipeline (§IV): the quotient chain is (usually much) smaller and
//! preserves time-bounded reachability of the goal label exactly.
//!
//! Algorithm: classical partition refinement — start from the partition
//! induced by the goal label, repeatedly split blocks whose states have
//! different cumulative rates into some block, until stable.

use crate::accumulate::Accumulator;
use crate::ctmc::Ctmc;
use std::collections::HashMap;

/// Result of lumping: the quotient chain plus the state-to-block map.
#[derive(Debug, Clone)]
pub struct Lumped {
    /// The quotient CTMC.
    pub quotient: Ctmc,
    /// `block_of[s]` is the quotient state of original state `s`.
    pub block_of: Vec<usize>,
}

/// Computes the coarsest ordinary lumping of `ctmc` that respects the goal
/// labeling.
///
/// Blocks are numbered by first occurrence in state order — except when
/// the goal-label partition is already stable, which ends refinement
/// before any renumbering: the non-goal states are then block 0 and the
/// goal states block 1, even when state 0 is goal-labelled. Either way
/// the quotient is deterministic.
pub fn lump(ctmc: &Ctmc) -> Lumped {
    let n = ctmc.len();
    if n == 0 {
        return Lumped { quotient: ctmc.clone(), block_of: vec![] };
    }
    // Initial partition by goal label (one block if all states agree).
    let mixed = ctmc.goal.iter().any(|&g| g) && ctmc.goal.iter().any(|&g| !g);
    let mut block_of: Vec<usize> = ctmc.goal.iter().map(|&g| usize::from(g && mixed)).collect();
    let mut block_count = 1 + usize::from(mixed);

    // Working storage reused by every round: the per-block rate
    // accumulator and all signatures back to back (state `s`'s is
    // `sigs[sig_end[s - 1]..sig_end[s]]`).
    let mut acc = Accumulator::new(n);
    let mut sigs: Vec<(usize, u64)> = Vec::new();
    let mut sig_end: Vec<usize> = Vec::with_capacity(n);
    let mut next: Vec<usize> = Vec::with_capacity(n);
    loop {
        // Signature of a state: (target block, quantized total rate) pairs
        // in block order.
        sigs.clear();
        sig_end.clear();
        for s in 0..n {
            for (t, r) in ctmc.row(s) {
                acc.add(block_of[t], r);
            }
            acc.drain(|b, r| sigs.push((b, quantize(r))));
            sig_end.push(sigs.len());
        }

        // Re-number blocks by (old block, signature).
        type BlockKey<'a> = (usize, &'a [(usize, u64)]);
        let mut renum: HashMap<BlockKey<'_>, usize> = HashMap::with_capacity(2 * block_count);
        next.clear();
        let mut start = 0;
        for s in 0..n {
            let key = (block_of[s], &sigs[start..sig_end[s]]);
            start = sig_end[s];
            let fresh = renum.len();
            next.push(*renum.entry(key).or_insert(fresh));
        }
        let new_count = renum.len();
        if new_count == block_count {
            break;
        }
        block_count = new_count;
        std::mem::swap(&mut block_of, &mut next);
    }

    // Build the quotient from each block's first member (ordinary
    // lumpability guarantees all members agree on block-cumulative rates).
    let mut representative = vec![n; block_count];
    for s in (0..n).rev() {
        representative[block_of[s]] = s;
    }
    let mut quotient = Ctmc::default();
    for &rep in &representative {
        for (t, r) in ctmc.row(rep) {
            acc.add(block_of[t], r);
        }
        acc.drain(|b, r| quotient.rates.push(b as u32, Some(r)));
        quotient.rates.end_row().expect("a quotient row is no longer than its representative's");
        quotient.goal.push(ctmc.goal[rep]);
    }
    for &(s, p) in &ctmc.initial {
        acc.add(block_of[s], p);
    }
    acc.drain(|b, p| quotient.initial.push((b, p)));

    debug_assert!(quotient.check_valid().is_ok(), "{:?}", quotient.check_valid());
    Lumped { quotient, block_of }
}

/// Quantizes a (non-negative) rate for signature comparison: the rate
/// rounded to 40 significant bits, i.e. to a relative granularity of
/// 2⁻⁴⁰ ≈ 9·10⁻¹³ at every magnitude. Lumping is exact up to that
/// floating-point noise; rates that differ beyond it never merge, however
/// large or small they are.
fn quantize(r: f64) -> u64 {
    const DROPPED_BITS: u32 = 52 - 40;
    // For non-negative floats the bit pattern is monotone in the value, so
    // rounding the pattern rounds the mantissa (carrying into the exponent).
    (r.to_bits() + (1 << (DROPPED_BITS - 1))) >> DROPPED_BITS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::{timed_reachability, TransientConfig};

    /// Two interchangeable redundant units: states (up,up), (up,down),
    /// (down,up), (down,down); the two mixed states are lumpable.
    fn redundant_pair(lambda: f64, mu: f64) -> Ctmc {
        // 0 = uu, 1 = ud, 2 = du, 3 = dd
        Ctmc::from_rows(
            &[
                vec![(1, lambda), (2, lambda)],
                vec![(0, mu), (3, lambda)],
                vec![(0, mu), (3, lambda)],
                vec![],
            ],
            vec![false, false, false, true],
            vec![(0, 1.0)],
        )
    }

    /// Block numbering: first occurrence in state order once refinement
    /// splits a block; the goal-label numbering (non-goal states first)
    /// when that partition is already stable.
    #[test]
    fn blocks_keep_goal_label_numbering_when_it_is_stable() {
        let goal_first = vec![true, false, false];
        let stable = Ctmc::from_rows(
            &[vec![], vec![(0, 1.0)], vec![(0, 1.0)]],
            goal_first.clone(),
            vec![(1, 1.0)],
        );
        let l = lump(&stable);
        assert_eq!(l.block_of, vec![1, 0, 0], "non-goal block first");
        assert_eq!(l.quotient.goal, vec![false, true]);

        let split =
            Ctmc::from_rows(&[vec![], vec![(0, 1.0)], vec![(0, 2.0)]], goal_first, vec![(1, 1.0)]);
        let l = lump(&split);
        assert_eq!(l.block_of, vec![0, 1, 2], "first occurrence in state order");
        assert_eq!(l.quotient.goal, vec![true, false, false]);
    }

    #[test]
    fn symmetric_states_lump() {
        let l = lump(&redundant_pair(0.1, 1.0));
        assert_eq!(l.quotient.len(), 3, "uu | {{ud, du}} | dd");
        assert_eq!(l.block_of[1], l.block_of[2]);
        assert_ne!(l.block_of[0], l.block_of[1]);
        assert_ne!(l.block_of[0], l.block_of[3]);
        // Rates from uu to the merged block sum: 2λ.
        let uu = l.block_of[0];
        let merged = l.block_of[1];
        let rate: f64 = l.quotient.row(uu).filter(|&(t, _)| t == merged).map(|(_, r)| r).sum();
        assert!((rate - 0.2).abs() < 1e-9);
    }

    #[test]
    fn goal_labels_never_merge() {
        let c = Ctmc::from_rows(&[vec![], vec![]], vec![false, true], vec![(0, 1.0)]);
        let l = lump(&c);
        assert_eq!(l.quotient.len(), 2);
    }

    #[test]
    fn identical_absorbing_states_merge() {
        let c = Ctmc::from_rows(
            &[vec![(1, 1.0), (2, 1.0)], vec![], vec![]],
            vec![false, false, false],
            vec![(0, 1.0)],
        );
        let l = lump(&c);
        assert_eq!(l.quotient.len(), 2);
        assert_eq!(l.block_of[1], l.block_of[2]);
    }

    #[test]
    fn asymmetric_rates_do_not_merge() {
        let c = Ctmc::from_rows(
            &[vec![(1, 1.0), (2, 1.0)], vec![(3, 1.0)], vec![(3, 2.0)], vec![]],
            vec![false, false, false, true],
            vec![(0, 1.0)],
        );
        let l = lump(&c);
        assert_ne!(l.block_of[1], l.block_of[2], "different rates to goal");
        assert_eq!(l.quotient.len(), 4);
    }

    #[test]
    fn large_rates_are_not_saturated() {
        // An absolute-granularity quantizer (`(r * 1e12) as u64`)
        // saturates above ~1.8e7, merging states 1 and 2 and moving P from
        // 0.711 to 0.591.
        let c = Ctmc::from_rows(
            &[vec![(1, 1e8), (2, 1e8)], vec![(3, 2e7)], vec![(3, 4e7)], vec![]],
            vec![false, false, false, true],
            vec![(0, 1.0)],
        );
        let l = lump(&c);
        assert_ne!(l.block_of[1], l.block_of[2], "2e7 and 4e7 must not merge");
        let cfg = TransientConfig::default();
        let exact = timed_reachability(&c, 5e-8, &cfg);
        let lumped = timed_reachability(&l.quotient, 5e-8, &cfg);
        assert!((exact - 0.711_046_178).abs() < 1e-8, "{exact}");
        assert!((lumped - exact).abs() < 1e-9, "lumped {lumped} vs unlumped {exact}");
    }

    #[test]
    fn quantization_is_relative() {
        for r in [1e-13, 1e-6, 0.5, 1.0, 3.7e4, 2e7, 1e9, 1e15] {
            assert_eq!(quantize(r), quantize(r * (1.0 + 1e-15)), "noise must not split {r}");
            assert_ne!(quantize(r), quantize(r * (1.0 + 1e-9)), "1e-9 apart must split {r}");
            assert_ne!(quantize(r), quantize(2.0 * r));
        }
        assert_ne!(quantize(1e-13), quantize(0.0));
    }

    #[test]
    fn initial_distribution_projected() {
        let c = Ctmc::from_rows(&[vec![], vec![]], vec![false, false], vec![(0, 0.5), (1, 0.5)]);
        let l = lump(&c);
        assert_eq!(l.quotient.len(), 1);
        assert_eq!(l.quotient.initial, vec![(0, 1.0)]);
    }

    #[test]
    fn empty_chain() {
        let c = Ctmc::from_rows(&[], vec![], vec![]);
        let l = lump(&c);
        assert_eq!(l.quotient.len(), 0);
    }
}
