//! Clock-zone abstract domain: difference-bound matrices (DBMs).
//!
//! A [`Dbm`] of dimension `n` represents the conjunction of constraints
//! `x_i − x_j ≤ m[i][j]` over clocks `x_1 … x_{n−1}` plus the constant
//! zero clock `x_0 = 0`, so row/column 0 encode plain upper/lower bounds.
//! This is the standard zone representation of timed-automata tooling
//! (UPPAAL lineage); here it runs as the *relational, timed* half of the
//! product domain in [`crate::fixpoint`], next to the non-relational
//! interval store.
//!
//! Two deliberate simplifications keep the domain sound for SLIM:
//!
//! * **Non-strict bounds only.** SLIM guards compare with `<`/`≤` over
//!   reals; we relax every strict bound to its non-strict closure. A
//!   relaxed zone is a superset of the exact one, so emptiness verdicts
//!   ("this guard can never be satisfied here") remain definite facts.
//! * **Uniform k-extrapolation.** Entries above `k` jump to ∞ and below
//!   `−k` clamp to `−k`, where `k` bounds every literal the model (and
//!   the property deadline) mentions. Extrapolation only grows the zone,
//!   so it is sound, and it bounds the constants the fixpoint can
//!   generate.
//!
//! Matrices are kept *canonical* (closed under the triangle inequality
//! via Floyd–Warshall) at the operations that need it — [`Dbm::reset`]
//! requires a canonical input, and emptiness is only decidable after
//! [`Dbm::close`]. Join (entrywise max) and extrapolation may leave a
//! non-canonical but still sound representation; consumers re-close
//! before reading bounds.

use crate::domain::AbsVal;
use slim_automata::expr::{BinOp, Expr, VarId};

/// A difference-bound matrix over `dim` clocks (index 0 is the zero
/// clock). Entry `(i, j)` bounds `x_i − x_j` from above; `f64::INFINITY`
/// means unconstrained.
#[derive(Debug, PartialEq)]
pub struct Dbm {
    dim: usize,
    m: Vec<f64>,
}

impl Clone for Dbm {
    fn clone(&self) -> Dbm {
        Dbm { dim: self.dim, m: self.m.clone() }
    }

    /// Reuses `self`'s matrix buffer (the fixpoint's per-transition
    /// zones copy into scratch buffers this way).
    fn clone_from(&mut self, source: &Dbm) {
        self.dim = source.dim;
        self.m.clone_from(&source.m);
    }
}

/// Bound addition with absorbing ∞ (avoids `∞ + −∞ = NaN`; widening the
/// sum to ∞ is always sound for an upper bound).
fn badd(a: f64, b: f64) -> f64 {
    if a == f64::INFINITY || b == f64::INFINITY {
        f64::INFINITY
    } else {
        a + b
    }
}

impl Dbm {
    /// The unconstrained zone (every clock anywhere).
    pub fn unconstrained(dim: usize) -> Dbm {
        let mut m = vec![f64::INFINITY; dim * dim];
        for i in 0..dim {
            m[i * dim + i] = 0.0;
        }
        Dbm { dim, m }
    }

    /// The singleton zone where clock `i + 1` equals `vals[i]`. Exact
    /// difference matrices are canonical by construction.
    pub fn point(vals: &[f64]) -> Dbm {
        let dim = vals.len() + 1;
        let at = |i: usize| if i == 0 { 0.0 } else { vals[i - 1] };
        let mut m = vec![0.0; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                m[i * dim + j] = at(i) - at(j);
            }
        }
        Dbm { dim, m }
    }

    /// Number of clocks including the zero clock.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The bound on `x_i − x_j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.m[i * self.dim + j]
    }

    /// Upper bound on clock `i` (read on a canonical matrix).
    pub fn upper(&self, i: usize) -> f64 {
        self.get(i, 0)
    }

    /// Lower bound on clock `i` (read on a canonical matrix).
    pub fn lower(&self, i: usize) -> f64 {
        -self.get(0, i)
    }

    /// Floyd–Warshall canonicalization. Returns `false` when the
    /// constraint system is inconsistent (the zone is empty), detected as
    /// a negative cycle through the diagonal.
    pub fn close(&mut self) -> bool {
        let n = self.dim;
        for k in 0..n {
            for i in 0..n {
                let ik = self.m[i * n + k];
                if ik == f64::INFINITY {
                    continue;
                }
                for j in 0..n {
                    let via = badd(ik, self.m[k * n + j]);
                    if via < self.m[i * n + j] {
                        self.m[i * n + j] = via;
                    }
                }
            }
        }
        (0..n).all(|i| self.m[i * n + i] >= 0.0)
    }

    /// True when already closed under the triangle inequality (test aid).
    pub fn is_canonical(&self) -> bool {
        let n = self.dim;
        (0..n).all(|i| {
            (0..n).all(|j| {
                (0..n).all(|k| self.m[i * n + j] <= badd(self.m[i * n + k], self.m[k * n + j]))
            })
        })
    }

    /// Time elapse (`up`): drops every upper bound, keeping differences
    /// and lower bounds. Preserves canonicity.
    pub fn up(&mut self) {
        for i in 1..self.dim {
            self.m[i * self.dim] = f64::INFINITY;
        }
    }

    /// Forgets everything about clock `i` (row and column to ∞).
    /// Preserves canonicity: every path through `i` now costs ∞.
    pub fn free(&mut self, i: usize) {
        for j in 0..self.dim {
            if j != i {
                self.m[i * self.dim + j] = f64::INFINITY;
                self.m[j * self.dim + i] = f64::INFINITY;
            }
        }
    }

    /// Resets clock `i` to the constant `c`. **Requires** a canonical
    /// matrix; the result is canonical.
    pub fn reset(&mut self, i: usize, c: f64) {
        let n = self.dim;
        for j in 0..n {
            if j != i {
                self.m[i * n + j] = badd(c, self.m[j]); // c + m[0][j]
                self.m[j * n + i] = badd(self.m[j * n], -c); // m[j][0] − c
            }
        }
        self.m[i * n + i] = 0.0;
    }

    /// Adds the constraint `x_i − x_j ≤ c` (tightens only; callers close
    /// once after a batch of constraints).
    pub fn constrain(&mut self, i: usize, j: usize, c: f64) {
        if c < self.m[i * self.dim + j] {
            self.m[i * self.dim + j] = c;
        }
    }

    /// Joins `other` into `self` (entrywise max — the smallest DBM zone
    /// containing both; max of two canonical matrices is canonical). With
    /// `widen`, every entry that would grow jumps straight to ∞, which
    /// caps ascending chains; the result is then *not* re-closed (closing
    /// could undo the jump and break termination).
    ///
    /// Returns whether any entry grew.
    pub fn join_widen(&mut self, other: &Dbm, widen: bool) -> bool {
        debug_assert_eq!(self.dim, other.dim);
        let mut grew = false;
        for (a, b) in self.m.iter_mut().zip(other.m.iter()) {
            if *b > *a {
                *a = if widen { f64::INFINITY } else { *b };
                grew = true;
            }
        }
        grew
    }

    /// Uniform k-extrapolation: entries above `k` become ∞, entries below
    /// `−k` clamp to `−k`. Only ever grows the zone (sound); idempotent.
    pub fn extrapolate(&mut self, k: f64) {
        let n = self.dim;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let e = &mut self.m[i * n + j];
                if *e > k {
                    *e = f64::INFINITY;
                } else if *e < -k {
                    *e = -k;
                }
            }
        }
    }
}

/// Context for extracting zone constraints from guard/invariant
/// expressions: the per-process clock indexing plus an interval read for
/// the clock-free remainder of each atom.
pub struct ZoneCtx<'a> {
    /// `VarId` → DBM index (1-based); `None` for untracked variables.
    pub zidx: &'a [Option<usize>],
    /// Interval view of the current frame (for clock-free subterms).
    pub read: &'a dyn Fn(VarId) -> AbsVal,
}

impl std::fmt::Debug for ZoneCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZoneCtx").field("zidx", &self.zidx).finish_non_exhaustive()
    }
}

/// One linearized side of a comparison: at most two unit-coefficient
/// clock terms plus an interval for everything clock-free.
struct Lin {
    /// `(dbm index, ±1)` terms.
    terms: Vec<(usize, i32)>,
    /// Interval of the clock-free remainder.
    lo: f64,
    hi: f64,
}

/// Assumes `e == want` and tightens `z` with every difference constraint
/// the assumption implies. Mirrors the descent of [`crate::refine`]:
/// conjunctions (and negated disjunctions) recurse, comparisons become
/// atoms, everything else is ignored (no constraint — sound). The caller
/// must [`Dbm::close`] afterwards to decide emptiness.
pub fn constrain_expr(z: &mut Dbm, ctx: &ZoneCtx<'_>, e: &Expr, want: bool) {
    use BinOp::*;
    match e {
        Expr::Not(x) => constrain_expr(z, ctx, x, !want),
        Expr::Bin(And, a, b) if want => {
            constrain_expr(z, ctx, a, true);
            constrain_expr(z, ctx, b, true);
        }
        Expr::Bin(Or, a, b) if !want => {
            constrain_expr(z, ctx, a, false);
            constrain_expr(z, ctx, b, false);
        }
        Expr::Bin(Implies, a, b) if !want => {
            constrain_expr(z, ctx, a, true);
            constrain_expr(z, ctx, b, false);
        }
        Expr::Bin(op, a, b) if op.is_comparison() => {
            let op = if want { *op } else { negate_cmp(*op) };
            constrain_cmp(z, ctx, op, a, b);
        }
        _ => {}
    }
}

fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        _ => unreachable!("not a comparison: {op:?}"),
    }
}

/// Tightens `z` with the atom `a op b`. Strict comparisons are relaxed to
/// their non-strict closure, `Ne` contributes nothing, and neither does
/// an atom without a tracked clock (it linearizes to no terms).
fn constrain_cmp(z: &mut Dbm, ctx: &ZoneCtx<'_>, op: BinOp, a: &Expr, b: &Expr) {
    let clock = |v: VarId| ctx.zidx[v.0].is_some();
    if !a.reads_any_var(&clock) && !b.reads_any_var(&clock) {
        return;
    }
    let (Some(la), Some(lb)) = (lin(ctx, a), lin(ctx, b)) else { return };
    // Move everything to `sum(terms) op [lo, hi]`.
    let mut terms = la.terms;
    for (i, c) in lb.terms {
        terms.push((i, -c));
    }
    let Some(terms) = cancel(terms) else { return };
    // constant interval of (b − a)'s clock-free parts
    let lo = lb.lo - la.hi;
    let hi = lb.hi - la.lo;
    let le = |z: &mut Dbm| match terms[..] {
        // sum ≤ c for some concrete c ∈ [lo, hi] ⇒ sum ≤ hi.
        [] => {}
        [(i, 1)] => z.constrain(i, 0, hi),
        [(i, -1)] => z.constrain(0, i, hi),
        [(i, 1), (j, -1)] => z.constrain(i, j, hi),
        [(j, -1), (i, 1)] => z.constrain(i, j, hi),
        _ => {}
    };
    let ge = |z: &mut Dbm| match terms[..] {
        // sum ≥ c for some concrete c ∈ [lo, hi] ⇒ sum ≥ lo.
        [] => {}
        [(i, 1)] => z.constrain(0, i, -lo),
        [(i, -1)] => z.constrain(i, 0, -lo),
        [(i, 1), (j, -1)] => z.constrain(j, i, -lo),
        [(j, -1), (i, 1)] => z.constrain(j, i, -lo),
        _ => {}
    };
    match op {
        BinOp::Le | BinOp::Lt => le(z),
        BinOp::Ge | BinOp::Gt => ge(z),
        BinOp::Eq => {
            le(z);
            ge(z);
        }
        _ => {}
    }
}

/// Cancels opposite-sign repeats of the same clock; bails (`None`) on a
/// coefficient outside {−1, 0, +1} or more than two surviving terms.
fn cancel(terms: Vec<(usize, i32)>) -> Option<Vec<(usize, i32)>> {
    let mut acc: Vec<(usize, i32)> = Vec::new();
    for (i, c) in terms {
        match acc.iter_mut().find(|(j, _)| *j == i) {
            Some(slot) => slot.1 += c,
            None => acc.push((i, c)),
        }
    }
    acc.retain(|(_, c)| *c != 0);
    if acc.len() > 2 || acc.iter().any(|(_, c)| c.abs() > 1) {
        return None;
    }
    Some(acc)
}

/// Linearizes a numeric expression over the tracked clocks: `Some` when
/// it is (clock-affine with unit coefficients) + (clock-free remainder).
fn lin(ctx: &ZoneCtx<'_>, e: &Expr) -> Option<Lin> {
    // Clock-free subtree: one interval, no terms.
    if !e.reads_any_var(&|v| ctx.zidx[v.0].is_some()) {
        return match crate::domain::abs_eval(e, ctx.read) {
            AbsVal::Num(lo, hi) => Some(Lin { terms: Vec::new(), lo, hi }),
            AbsVal::Bool(_) => None,
        };
    }
    match e {
        Expr::Var(v) => {
            let i = ctx.zidx[v.0]?;
            Some(Lin { terms: vec![(i, 1)], lo: 0.0, hi: 0.0 })
        }
        Expr::Neg(x) => {
            let l = lin(ctx, x)?;
            Some(Lin {
                terms: l.terms.into_iter().map(|(i, c)| (i, -c)).collect(),
                lo: -l.hi,
                hi: -l.lo,
            })
        }
        Expr::Bin(BinOp::Add, a, b) => {
            let (mut la, lb) = (lin(ctx, a)?, lin(ctx, b)?);
            la.terms.extend(lb.terms);
            Some(Lin { terms: la.terms, lo: la.lo + lb.lo, hi: la.hi + lb.hi })
        }
        Expr::Bin(BinOp::Sub, a, b) => {
            let (mut la, lb) = (lin(ctx, a)?, lin(ctx, b)?);
            la.terms.extend(lb.terms.into_iter().map(|(i, c)| (i, -c)));
            Some(Lin { terms: la.terms, lo: la.lo - lb.hi, hi: la.hi - lb.lo })
        }
        _ => None,
    }
}

/// The largest absolute numeric literal in `e` (0.0 when none). Feeds the
/// extrapolation constant `k`.
pub fn max_literal(e: &Expr) -> f64 {
    use slim_automata::value::Value;
    match e {
        Expr::Const(Value::Int(i)) => (*i as f64).abs(),
        Expr::Const(Value::Real(r)) => r.abs(),
        Expr::Const(Value::Bool(_)) | Expr::Var(_) => 0.0,
        Expr::Not(x) | Expr::Neg(x) => max_literal(x),
        Expr::Bin(_, a, b) => max_literal(a).max(max_literal(b)),
        Expr::Ite(c, t, e) => max_literal(c).max(max_literal(t)).max(max_literal(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::TOP_NUM;

    #[test]
    fn close_canonicalizes_and_detects_emptiness() {
        // x ∈ [0, 5], y ∈ [0, 3], x − y ≤ 10: closure tightens the
        // difference bound to x − y ≤ 5 (via x ≤ 5, −y ≤ 0).
        let mut z = Dbm::unconstrained(3);
        z.constrain(1, 0, 5.0);
        z.constrain(0, 1, 0.0);
        z.constrain(2, 0, 3.0);
        z.constrain(0, 2, 0.0);
        z.constrain(1, 2, 10.0);
        assert!(z.close());
        assert!(z.is_canonical());
        assert_eq!(z.get(1, 2), 5.0);
        // Contradictory bounds: x ≤ 1 ∧ x ≥ 2 is empty.
        let mut e = Dbm::unconstrained(2);
        e.constrain(1, 0, 1.0);
        e.constrain(0, 1, -2.0);
        assert!(!e.close());
    }

    #[test]
    fn up_elapses_time_preserving_differences() {
        let mut z = Dbm::point(&[1.0, 4.0]);
        z.up();
        assert!(z.is_canonical());
        assert_eq!(z.upper(1), f64::INFINITY);
        assert_eq!(z.lower(1), 1.0);
        // The difference y − x = 3 survives elapse exactly.
        assert_eq!(z.get(2, 1), 3.0);
        assert_eq!(z.get(1, 2), -3.0);
    }

    #[test]
    fn reset_pins_one_clock_and_keeps_the_rest() {
        let mut z = Dbm::point(&[2.0, 7.0]);
        z.up();
        z.reset(1, 0.0);
        assert!(z.is_canonical());
        assert_eq!(z.lower(1), 0.0);
        assert_eq!(z.upper(1), 0.0);
        // y still remembers its lower bound and is now ahead of x by ≥ 5.
        assert_eq!(z.lower(2), 7.0);
        assert_eq!(z.get(1, 2), -7.0);
    }

    #[test]
    fn intersection_emptiness_via_difference_chains() {
        // x and y advance in lockstep from 0 (x = y). Guard y − x ≥ 2 is
        // unsatisfiable even though both clocks are individually unbounded.
        let mut z = Dbm::point(&[0.0, 0.0]);
        z.up();
        z.constrain(1, 2, -2.0); // x − y ≤ −2 i.e. y − x ≥ 2
        assert!(!z.close());
    }

    #[test]
    fn extrapolation_is_idempotent_and_grows() {
        let mut z = Dbm::point(&[12.0, 3.0]);
        z.up();
        let before = z.clone();
        z.extrapolate(5.0);
        // Grows only: every entry is ≥ the original.
        for i in 0..3 {
            for j in 0..3 {
                assert!(z.get(i, j) >= before.get(i, j));
            }
        }
        let once = z.clone();
        z.extrapolate(5.0);
        assert_eq!(z, once, "extrapolation must be idempotent");
        assert_eq!(z.lower(1), 5.0, "deep lower bounds clamp to k");
    }

    #[test]
    fn join_is_entrywise_max_and_widen_jumps_to_infinity() {
        let mut a = Dbm::point(&[1.0]);
        let b = Dbm::point(&[3.0]);
        assert!(!a.clone().join_widen(&a.clone(), false));
        let mut j = a.clone();
        assert!(j.join_widen(&b, false));
        assert_eq!(j.lower(1), 1.0);
        assert_eq!(j.upper(1), 3.0);
        assert!(j.is_canonical());
        assert!(a.join_widen(&b, true));
        assert_eq!(a.upper(1), f64::INFINITY);
    }

    #[test]
    fn constraint_extraction_handles_atoms_and_conjunctions() {
        // Clocks x (idx 1), y (idx 2); n is an untracked data variable
        // with interval [2, 3].
        let zidx = vec![Some(1), Some(2), None];
        let read = |v: VarId| if v.0 == 2 { AbsVal::Num(2.0, 3.0) } else { TOP_NUM };
        let ctx = ZoneCtx { zidx: &zidx, read: &read };
        let (x, y, n) = (Expr::var(VarId(0)), Expr::var(VarId(1)), Expr::var(VarId(2)));
        let g =
            x.clone().ge(Expr::real(2.0)).and(x.clone().sub(y).le(Expr::real(1.0)).and(x.lt(n)));
        let mut z = Dbm::unconstrained(3);
        constrain_expr(&mut z, &ctx, &g, true);
        assert!(z.close());
        assert_eq!(z.lower(1), 2.0);
        assert_eq!(z.get(1, 2), 1.0);
        // x < n with n ∈ [2, 3] relaxes to x ≤ 3.
        assert_eq!(z.upper(1), 3.0);
        // ... and an extra x ≥ 5 makes 5 ≤ x ≤ 3 empty under closure.
        let mut z2 = Dbm::unconstrained(3);
        constrain_expr(&mut z2, &ctx, &g, true);
        z2.constrain(0, 1, -5.0);
        assert!(!z2.close());
    }

    #[test]
    fn negation_flips_polarity_in_extraction() {
        let zidx = vec![Some(1)];
        let read = |_: VarId| TOP_NUM;
        let ctx = ZoneCtx { zidx: &zidx, read: &read };
        // ¬(x < 4) ⇒ x ≥ 4.
        let g = Expr::var(VarId(0)).lt(Expr::real(4.0)).not();
        let mut z = Dbm::unconstrained(2);
        constrain_expr(&mut z, &ctx, &g, true);
        assert!(z.close());
        assert_eq!(z.lower(1), 4.0);
    }

    #[test]
    fn max_literal_walks_every_shape() {
        let x = Expr::var(VarId(0));
        let e = Expr::ite(
            x.clone().ge(Expr::real(7.5)),
            x.clone().add(Expr::int(-9)),
            x.mul(Expr::real(2.0)),
        );
        assert_eq!(max_literal(&e), 9.0);
    }
}
