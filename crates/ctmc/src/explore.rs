//! Explicit reachable-state-space exploration of untimed models.
//!
//! This substitutes the NuSMV BDD reachability step of the COMPASS
//! pipeline (§IV): the same artifact — the reachable state graph — is
//! produced, and its cost scales with the number of reachable states,
//! which is what makes the CTMC column of Table I blow up with model size.
//!
//! Exploration runs on the compiled production kernel the simulator
//! samples paths with: [`StepTables`](slim_automata::prelude::StepTables)
//! compiled once per call and one reused [`StepScratch`]. Successors are
//! enumerated in the legacy [`Network::guarded_candidates`] /
//! [`Network::markovian_candidates`] order, so state numbering is that of
//! a breadth-first search over the reference step API.
//!
//! # Successors as deltas of their parent
//!
//! A state being expanded is a parent its successors differ from in a
//! few fields, so no successor is built as a copy.
//! [`Network::successors_begin`] evaluates every flow once on the parent
//! and logs the variables each evaluation reads. [`Network::successor`]
//! then fires each candidate in place on the parent (effects still read
//! the pre-state), keeping an undo log of the moved locations and of the
//! variables whose bits changed; the key is the parent's packed words
//! with only those fields re-packed, and the undo log restores the
//! parent for the next candidate. Effects and flows run on
//! `apply_mut`'s code path, with one difference: a flow the firing's
//! mask selects re-runs only if its target or a variable its parent
//! evaluation read has changed. That is exact:
//!
//! * *A stored state satisfies every flow.* The initial state runs all
//!   flows; by induction each successor runs the ones whose value can
//!   move (`apply` runs the masked flows, and a flow outside the mask
//!   reads nothing the firing or an earlier flow wrote, so its value
//!   stays what the parent holds). Effects never write flow targets
//!   (validation rule 5), so a target keeps its flow's value. The
//!   parent log checks this anyway: a flow that fails on the parent or
//!   disagrees with its target is logged as unknown and always re-runs.
//! * *A skipped flow would rewrite the value it holds.* Flows run in
//!   topological order, and a re-run flow's changed target counts as a
//!   change, so when flow `i` is reached every variable it read on the
//!   parent still holds the parent's value. A value program is
//!   deterministic with forward jumps only, so it takes the same path,
//!   reads the same variables and computes the parent's value, which is
//!   its unchanged target's value. Writing it back changes nothing.
//! * *Errors are the same.* The first flow `apply` fails on is one whose
//!   reads changed (otherwise it evaluated cleanly on the parent), so it
//!   re-runs here too, on the same state, and fails the same way.
//!
//! At sensor–filter n = 8 this is 0.26 logging plus 0.29 re-run flow
//! evaluations per successor instead of `apply`'s 1.48, and 1.29 changed
//! variables to re-pack instead of a diff over all 38 fields.
//!
//! States live in a packed store: one flat arena of fixed-width `u64`
//! words per state (locations, then discrete variable values, each
//! bit-packed at the width its range needs) and an open-addressing index
//! of `u32` state ids. The arena doubles as the BFS queue — state `i` is
//! expanded by decoding its words into one reused [`NetState`] — and its
//! successors are appended straight to the [`Imc`]'s flat edge arrays, so
//! nothing is allocated per state.
//!
//! The IMC stores the maximal-progress chain. A state with an immediate
//! successor is vanishing: its Markovian successors are still enumerated,
//! applied and interned, so state numbering is unchanged, but their edges
//! are only counted ([`Imc::preempted`]), never stored, since elimination
//! never reads them. [`Imc::transition_count`] is the explored count.

use crate::error::CtmcError;
use crate::imc::Imc;
use slim_automata::error::EvalError;
use slim_automata::prelude::{
    Delta, Firing, LocId, NetState, Network, StepScratch, Value, VarId, VarType,
};
use std::mem::size_of;

/// Exploration configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Hard cap on explored states (the "out of memory / time" guard that
    /// makes large Table I instances infeasible for the CTMC pipeline).
    /// State ids are `u32`, so limits above `u32::MAX` act as `u32::MAX`.
    pub state_limit: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { state_limit: 5_000_000 }
    }
}

/// The exploration product: the IMC plus bookkeeping for reporting.
#[derive(Debug, Clone)]
pub struct Explored {
    /// The maximal-progress interactive Markov chain over reachable
    /// discrete states (the Markovian edges of vanishing states counted in
    /// [`Imc::preempted`], not stored).
    pub imc: Imc,
    /// Number of stored states (= `imc.len()`).
    pub states: usize,
    /// Memory footprint of the stored state space in bytes: the
    /// capacities of the packed arena, its index and the IMC's arrays.
    pub approx_memory_bytes: usize,
}

/// Explores the reachable discrete state space of an *untimed* network.
///
/// `goal` labels each state; it is evaluated once per stored state, in
/// state order.
///
/// # Errors
/// * [`CtmcError::TimedModel`] if the network declares clocks or
///   continuous variables;
/// * [`CtmcError::RealVariable`] if it declares a `real` data variable;
/// * [`CtmcError::StateLimitExceeded`] past `config.state_limit`;
/// * evaluation errors from guards/effects.
pub fn explore(
    net: &Network,
    goal: &dyn Fn(&NetState) -> Result<bool, EvalError>,
    config: &ExploreConfig,
) -> Result<Explored, CtmcError> {
    for decl in net.vars() {
        match decl.ty {
            VarType::Bool | VarType::Int { .. } => {}
            ty if ty.is_timed() => {
                return Err(CtmcError::TimedModel { variable: decl.name.clone() })
            }
            _ => return Err(CtmcError::RealVariable { variable: decl.name.clone() }),
        }
    }
    let tables = net.compile();
    let mut scratch = StepScratch::new();
    let mut current = net.initial_state()?;

    let mut store = StateStore::new(net, config.state_limit);
    store.intern_initial(&current)?;
    let mut imc = Imc::default();

    let mut here = 0;
    while here < store.len() {
        store.decode(here, &mut current)?;
        imc.goal.push(goal(&current)?);
        net.successors_begin(&tables, &mut scratch, &current);

        // Immediate (interactive) transitions: guarded transitions enabled
        // *now*. In an untimed model guards are delay-free, so the window
        // is either everything or nothing.
        net.guarded_candidates_into(&tables, &mut scratch, &current)?;
        let interactive_before = imc.interactive.edges();
        for c in 0..scratch.candidates().len() {
            if !scratch.candidates()[c].window.contains(0.0) {
                continue;
            }
            let target = net.successor(
                &tables,
                &mut scratch,
                &mut current,
                Firing::Guarded(c),
                |next, delta| store.intern(next, delta),
            )??;
            imc.interactive.push(target, None);
        }

        // Maximal progress: a vanishing state's Markovian successors are
        // still interned (the BFS numbering reaches them), not stored.
        net.markovian_candidates_into(&tables, &mut scratch, &current);
        let vanishing = imc.interactive.edges() > interactive_before;
        if vanishing {
            imc.preempted += scratch.markovian().len();
        }
        for m in 0..scratch.markovian().len() {
            let rate = scratch.markovian()[m].2;
            let target = net.successor(
                &tables,
                &mut scratch,
                &mut current,
                Firing::Markovian(m),
                |next, delta| store.intern(next, delta),
            )??;
            if !vanishing {
                imc.markovian.push(target, Some(rate));
            }
        }
        imc.interactive.end_row()?;
        imc.markovian.end_row()?;
        here += 1;
    }

    imc.goal.shrink_to_fit();
    imc.interactive.shrink_to_fit();
    imc.markovian.shrink_to_fit();
    let approx_memory_bytes = store.allocated_bytes() + imc.allocated_bytes();
    Ok(Explored { states: imc.len(), imc, approx_memory_bytes })
}

/// Empty slot of the open-addressing index.
const EMPTY: u32 = u32::MAX;

/// What a packed field holds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Loc,
    Bool,
    Int { lo: i64, hi: i64 },
}

/// Where one location or variable lives in a packed state: the bits
/// `mask << shift` of word `word`, holding the value's offset from its
/// lower bound (locations and Booleans: from 0).
#[derive(Debug, Clone, Copy)]
struct Field {
    kind: Kind,
    word: usize,
    shift: u32,
    mask: u64,
}

impl Field {
    fn get(&self, words: &[u64]) -> u64 {
        (words[self.word] >> self.shift) & self.mask
    }

    fn set(&self, words: &mut [u64], raw: u64) {
        let w = &mut words[self.word];
        *w = (*w & !(self.mask << self.shift)) | (raw << self.shift);
    }

    /// The raw bits of variable value `v` in this field.
    fn pack(&self, v: Value) -> Result<u64, EvalError> {
        match (self.kind, v) {
            (Kind::Bool, Value::Bool(b)) => Ok(u64::from(b)),
            (Kind::Int { lo, hi }, Value::Int(i)) if lo <= i && i <= hi => {
                Ok(i.wrapping_sub(lo) as u64)
            }
            (_, v) => Err(EvalError::TypeConfusion {
                context: format!("value {v} does not fit the packed {:?} field", self.kind),
            }),
        }
    }
}

/// Bits needed for the values `0..=max`.
fn bits_for(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// Packed, hash-indexed set of discrete states, numbered in insertion
/// order.
///
/// A state is `width` `u64` words: each automaton's location, then each
/// variable's value, bit-packed at the width its range needs (a field
/// never straddles two words).
#[derive(Debug)]
struct StateStore {
    /// One field per automaton, then one per variable.
    fields: Vec<Field>,
    /// Words per state.
    width: usize,
    /// `len · width` words: state `i` occupies `words[i·width..][..width]`,
    /// reserved for the `slots.len() / 2 + 1` states the index admits.
    words: Vec<u64>,
    /// Number of stored states.
    len: usize,
    /// Linear-probing table of state ids; its length is a power of two
    /// and at least twice `len`.
    slots: Vec<u32>,
    /// `64 − log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    /// Encoding buffer for lookups.
    key: Vec<u64>,
    /// Most states stored, clamped to `u32::MAX` (the empty-slot marker),
    /// so ids are `0..u32::MAX` and CTMC indices fit in `u32` too.
    limit: usize,
    /// Words of the state last decoded.
    base: Vec<u64>,
}

impl StateStore {
    fn new(net: &Network, limit: usize) -> StateStore {
        const INITIAL_SLOTS: usize = 1 << 10;
        let locs = net.automata().iter().map(|a| (Kind::Loc, a.locations.len().max(1) as u64 - 1));
        let vars = net.vars().iter().map(|d| match d.ty {
            VarType::Int { lo, hi } => (Kind::Int { lo, hi }, hi.wrapping_sub(lo) as u64),
            _ => (Kind::Bool, 1),
        });
        let (mut word, mut used) = (0, 0);
        let fields: Vec<Field> = locs
            .chain(vars)
            .map(|(kind, max)| {
                let bits = bits_for(max);
                if bits == 0 {
                    // A single-valued field: always decodes to its lower bound.
                    return Field { kind, word: 0, shift: 0, mask: 0 };
                }
                if used + bits > u64::BITS {
                    word += 1;
                    used = 0;
                }
                let mask = if bits == u64::BITS { u64::MAX } else { (1 << bits) - 1 };
                let field = Field { kind, word, shift: used, mask };
                used += bits;
                field
            })
            .collect();
        let width = word + 1;
        StateStore {
            fields,
            width,
            words: Vec::with_capacity((INITIAL_SLOTS / 2 + 1) * width),
            len: 0,
            slots: vec![EMPTY; INITIAL_SLOTS],
            shift: u64::BITS - INITIAL_SLOTS.trailing_zeros(),
            key: vec![0; width],
            limit: limit.min(EMPTY as usize),
            base: vec![0; width],
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn words_of(&self, id: usize) -> &[u64] {
        &self.words[id * self.width..][..self.width]
    }

    /// Bytes held by the arena and the index.
    fn allocated_bytes(&self) -> usize {
        self.words.capacity() * size_of::<u64>() + self.slots.capacity() * size_of::<u32>()
    }

    /// Returns the id of `state`, which must be the first state stored.
    fn intern_initial(&mut self, state: &NetState) -> Result<u32, CtmcError> {
        self.key.fill(0);
        let (loc_fields, var_fields) = self.fields.split_at(state.locs.len());
        for (f, l) in loc_fields.iter().zip(&state.locs) {
            f.set(&mut self.key, l.0 as u64);
        }
        for (f, v) in var_fields.iter().zip(state.nu.as_slice()) {
            f.set(&mut self.key, f.pack(*v)?);
        }
        self.insert_key()
    }

    /// Returns the id of `next`, a successor of the state last
    /// [decoded](StateStore::decode) that differs from it by `delta`,
    /// appending it to the arena if it was not stored yet. Its key is the
    /// parent's words with only the moved locations and the changed
    /// variables re-packed.
    fn intern(&mut self, next: &NetState, delta: Delta<'_>) -> Result<u32, CtmcError> {
        self.key.copy_from_slice(&self.base);
        let (loc_fields, var_fields) = self.fields.split_at(next.locs.len());
        for p in delta.moved() {
            loc_fields[p.0].set(&mut self.key, next.locs[p.0].0 as u64);
        }
        for v in delta.changed() {
            let f = &var_fields[v.0];
            f.set(&mut self.key, f.pack(next.nu.get(v)?)?);
        }
        self.insert_key()
    }

    /// Returns the id of the state in the key buffer, appending it to
    /// the arena if it was not stored yet.
    fn insert_key(&mut self) -> Result<u32, CtmcError> {
        let mask = self.slots.len() - 1;
        let mut slot = home_slot(&self.key, self.shift);
        loop {
            match self.slots[slot] {
                EMPTY => break,
                id if self.words_of(id as usize) == self.key.as_slice() => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
        // The initial state is always stored; the limit keeps ids below
        // `u32::MAX`, the empty-slot marker.
        if self.len > 0 && self.len >= self.limit {
            return Err(CtmcError::StateLimitExceeded { limit: self.limit });
        }
        let id = self.len as u32;
        self.slots[slot] = id;
        self.words.extend_from_slice(&self.key);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            self.grow();
        }
        Ok(id)
    }

    /// Doubles the index and re-inserts every stored id.
    fn grow(&mut self) {
        let cap = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        self.words.reserve_exact((cap / 2 + 1) * self.width - self.words.len());
        self.shift -= 1;
        let mask = cap - 1;
        for id in 0..self.len {
            let mut slot = home_slot(self.words_of(id), self.shift);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }

    /// Overwrites `state`'s locations and valuation with stored state `id`
    /// and remembers its words as the base for successor encoding.
    fn decode(&mut self, id: usize, state: &mut NetState) -> Result<(), EvalError> {
        let words = &self.words[id * self.width..][..self.width];
        self.base.copy_from_slice(words);
        let (loc_fields, var_fields) = self.fields.split_at(state.locs.len());
        for (l, f) in state.locs.iter_mut().zip(loc_fields) {
            *l = LocId(f.get(words) as usize);
        }
        for (i, f) in var_fields.iter().enumerate() {
            let raw = f.get(words);
            let v = match f.kind {
                Kind::Int { lo, .. } => Value::Int(lo.wrapping_add(raw as i64)),
                _ => Value::Bool(raw != 0),
            };
            state.nu.set(VarId(i), v)?;
        }
        Ok(())
    }
}

/// Multiplicative word hash (FxHash-style); the caller keeps the top bits.
fn home_slot(words: &[u64], shift: u32) -> usize {
    let mut h: u64 = 0;
    for &w in words {
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    (h >> shift) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_automata::prelude::*;

    fn goal_false() -> impl Fn(&NetState) -> Result<bool, slim_automata::error::EvalError> {
        |_s: &NetState| Ok(false)
    }

    /// Two-state failure model with repair: ok ⇄ failed.
    fn two_state() -> Network {
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("m");
        let ok = a.location("ok");
        let failed = a.location("failed");
        a.markovian(ok, 0.1, [], failed);
        a.markovian(failed, 1.0, [], ok);
        b.add_automaton(a);
        b.build().unwrap()
    }

    /// Counter `0..=hi` via guarded increments: `hi + 1` states.
    fn counter(hi: i64) -> Network {
        let mut b = NetworkBuilder::new();
        let n = b.var("n", VarType::Int { lo: 0, hi }, Value::Int(0));
        let mut a = AutomatonBuilder::new("p");
        let l = a.location("l");
        a.guarded(
            l,
            ActionId::TAU,
            Expr::var(n).lt(Expr::int(hi)),
            [Effect::assign(n, Expr::var(n).add(Expr::int(1)))],
            l,
        );
        b.add_automaton(a);
        b.build().unwrap()
    }

    #[test]
    fn explores_two_states() {
        let net = two_state();
        let e = explore(&net, &goal_false(), &ExploreConfig::default()).unwrap();
        assert_eq!(e.states, 2);
        assert_eq!(e.imc.transition_count(), 2);
        assert!(e.approx_memory_bytes > 0);
    }

    #[test]
    fn preempted_markovian_edges_are_counted_not_stored() {
        // An immediate step `start → next` races a fault `ok → failed`.
        // In (start, ok) maximal progress preempts the fault, but
        // (start, failed) is still reached and numbered.
        let mut b = NetworkBuilder::new();
        let mut p = AutomatonBuilder::new("p");
        let start = p.location("start");
        let next = p.location("next");
        p.guarded(start, ActionId::TAU, Expr::TRUE, [], next);
        b.add_automaton(p);
        let mut f = AutomatonBuilder::new("f");
        let ok = f.location("ok");
        let failed = f.location("failed");
        f.markovian(ok, 2.0, [], failed);
        b.add_automaton(f);
        let e = explore(&b.build().unwrap(), &goal_false(), &ExploreConfig::default()).unwrap();
        // 0 = (start, ok), 1 = (next, ok), 2 = (start, failed), 3 = (next, failed).
        assert_eq!(e.states, 4);
        assert!(e.imc.is_vanishing(0) && e.imc.is_vanishing(2));
        assert_eq!(e.imc.markovian(0).len(), 0);
        assert_eq!(e.imc.markovian(1).collect::<Vec<_>>(), [(3, 2.0)]);
        assert_eq!(e.imc.interactive(2), [3]);
        assert_eq!(e.imc.preempted(), 1);
        assert_eq!(e.imc.transition_count(), 4, "two immediate, one stored, one preempted");
    }

    #[test]
    fn rejects_timed_models() {
        let mut b = NetworkBuilder::new();
        b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        a.location("l");
        b.add_automaton(a);
        let net = b.build().unwrap();
        assert!(matches!(
            explore(&net, &goal_false(), &ExploreConfig::default()),
            Err(CtmcError::TimedModel { .. })
        ));
    }

    #[test]
    fn rejects_real_data_variables() {
        let mut b = NetworkBuilder::new();
        b.var("flag", VarType::Bool, Value::Bool(false));
        b.var("level", VarType::Real, Value::Real(0.5));
        let mut a = AutomatonBuilder::new("p");
        a.location("l");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let err = explore(&net, &goal_false(), &ExploreConfig::default()).unwrap_err();
        assert_eq!(err, CtmcError::RealVariable { variable: "level".into() });
        assert!(err.to_string().contains("`level`"), "{err}");
    }

    #[test]
    fn state_limit_enforced() {
        let net = counter(100);
        let ok = explore(&net, &goal_false(), &ExploreConfig { state_limit: 200 }).unwrap();
        assert_eq!(ok.states, 101);
        assert!(matches!(
            explore(&net, &goal_false(), &ExploreConfig { state_limit: 50 }),
            Err(CtmcError::StateLimitExceeded { limit: 50 })
        ));
    }

    #[test]
    fn oversized_state_limit_is_clamped_not_wrapped() {
        let limit = |l| StateStore::new(&counter(1), l).limit;
        assert_eq!(limit(usize::MAX), u32::MAX as usize);
        assert_eq!(limit(u32::MAX as usize + 7), u32::MAX as usize);
        assert_eq!(limit(50), 50);
        let e = explore(&counter(10), &goal_false(), &ExploreConfig { state_limit: usize::MAX })
            .unwrap();
        assert_eq!(e.states, 11);
    }

    #[test]
    fn index_growth_keeps_ids_stable() {
        // Enough states to double the index several times; the counter
        // value of state `i` is `i` because the BFS is a single chain.
        let e = explore(&counter(5000), &goal_false(), &ExploreConfig::default()).unwrap();
        assert_eq!(e.states, 5001);
        for i in 0..5000 {
            assert_eq!(e.imc.interactive(i), [i as u32 + 1]);
        }
        assert_eq!(e.imc.transition_count(), 5000, "state 5000 is absorbing");
    }

    #[test]
    fn goal_labels_applied() {
        let net = two_state();
        let goal = |s: &NetState| Ok(s.locs[0] == LocId(1));
        let e = explore(&net, &goal, &ExploreConfig::default()).unwrap();
        assert!(!e.imc.goal(0));
        assert!(e.imc.goal(1));
    }

    #[test]
    fn goal_sees_decoded_values() {
        // Booleans and negative integers round-trip through the arena.
        let mut b = NetworkBuilder::new();
        let flag = b.var("flag", VarType::Bool, Value::Bool(false));
        let k = b.var("k", VarType::Int { lo: -3, hi: 0 }, Value::Int(0));
        let mut a = AutomatonBuilder::new("p");
        let l = a.location("l");
        a.guarded(
            l,
            ActionId::TAU,
            Expr::var(k).gt(Expr::int(-3)),
            [
                Effect::assign(k, Expr::var(k).sub(Expr::int(1))),
                Effect::assign(flag, Expr::var(flag).not()),
            ],
            l,
        );
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = move |s: &NetState| {
            Ok(s.nu.get(k)? == Value::Int(-3) && s.nu.get(flag)? == Value::Bool(true))
        };
        let e = explore(&net, &goal, &ExploreConfig::default()).unwrap();
        assert_eq!(e.states, 4);
        let goals: Vec<bool> = (0..e.states).map(|s| e.imc.goal(s)).collect();
        assert_eq!(goals, [false, false, false, true]);
    }

    #[test]
    fn packing_round_trips_every_field_width() {
        // Constant, full-range, negative and word-straddling fields. Each
        // successor is computed from the decoded predecessor, so the
        // untouched variables must survive every round trip unchanged.
        let mut b = NetworkBuilder::new();
        let one = b.var("one", VarType::Int { lo: 7, hi: 7 }, Value::Int(7));
        let low = b.var("low", VarType::INT, Value::Int(i64::MIN));
        let high = b.var("high", VarType::INT, Value::Int(i64::MAX));
        let wide = b.var("wide", VarType::Int { lo: -(1 << 40), hi: 1 << 40 }, Value::Int(-5));
        let k = b.var("k", VarType::Int { lo: 0, hi: 2 }, Value::Int(0));
        let mut a = AutomatonBuilder::new("p");
        let l = a.location("l");
        a.guarded(
            l,
            ActionId::TAU,
            Expr::var(k).lt(Expr::int(2)),
            [Effect::assign(k, Expr::var(k).add(Expr::int(1)))],
            l,
        );
        b.add_automaton(a);
        let net = b.build().unwrap();
        let seen = std::cell::RefCell::new(Vec::new());
        let goal = |s: &NetState| {
            let v = |id| s.nu.get(id).and_then(Value::as_int);
            seen.borrow_mut().push([v(one)?, v(low)?, v(high)?, v(wide)?, v(k)?]);
            Ok(false)
        };
        let e = explore(&net, &goal, &ExploreConfig::default()).unwrap();
        assert_eq!(e.states, 3);
        let (lo, hi) = (i64::MIN, i64::MAX);
        assert_eq!(seen.into_inner(), [[7, lo, hi, -5, 0], [7, lo, hi, -5, 1], [7, lo, hi, -5, 2]]);
    }

    #[test]
    fn synchronization_explored() {
        // Two automata synchronizing: product has 2 reachable states, not 4.
        let mut b = NetworkBuilder::new();
        let go = b.action("go");
        for name in ["a", "b"] {
            let mut ab = AutomatonBuilder::new(name);
            let l0 = ab.location("l0");
            let l1 = ab.location("l1");
            ab.guarded(l0, go, Expr::TRUE, [], l1);
            b.add_automaton(ab);
        }
        let net = b.build().unwrap();
        let e = explore(&net, &goal_false(), &ExploreConfig::default()).unwrap();
        assert_eq!(e.states, 2);
        assert!(e.imc.is_vanishing(0));
        assert_eq!(e.imc.transition_count(), 1, "state 1 is absorbing");
    }
}
