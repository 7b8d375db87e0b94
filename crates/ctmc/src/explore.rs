//! Explicit reachable-state-space exploration of untimed models.
//!
//! This substitutes the NuSMV BDD reachability step of the COMPASS
//! pipeline (§IV): the same artifact — the reachable state graph — is
//! produced, and its cost scales with the number of reachable states,
//! which is what makes the CTMC column of Table I blow up with model size.
//!
//! Exploration runs on the compiled production kernel the simulator
//! samples paths with: [`StepTables`](slim_automata::prelude::StepTables)
//! compiled once per call, one reused [`StepScratch`], and successors
//! built by `copy_from` + `apply_mut` into one reused successor state.
//! Successors are enumerated in the legacy
//! [`Network::guarded_candidates`] / [`Network::markovian_candidates`]
//! order, so state numbering is that of a breadth-first search over the
//! reference step API.
//!
//! States live in a packed store: one flat arena of fixed-width `u64`
//! words per state (locations, then discrete variable values, each
//! bit-packed at the width its range needs) and an open-addressing index
//! of `u32` state ids. The arena doubles as the BFS queue — state `i` is
//! expanded by decoding its words into one reused [`NetState`] — so
//! nothing is allocated per state except the state's own [`ImcState`]
//! edge lists.

use crate::error::CtmcError;
use crate::imc::{Imc, ImcState};
use slim_automata::error::EvalError;
use slim_automata::prelude::{
    LocId, NetState, Network, ProcId, StepScratch, TransId, Value, VarId, VarType,
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
    /// The interactive Markov chain over reachable discrete states.
    pub imc: Imc,
    /// Number of stored states (= `imc.len()`).
    pub states: usize,
    /// Memory footprint of the stored state space in bytes: the packed
    /// arena and its index (as allocated), plus the IMC's state table and
    /// edge lists.
    pub approx_memory_bytes: usize,
}

/// Explores the reachable discrete state space of an *untimed* network.
///
/// `goal` labels each state; it is evaluated once per stored state.
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
    let limit = effective_limit(config.state_limit);

    let tables = net.compile();
    let mut scratch = StepScratch::new();
    let mut current = net.initial_state()?;
    let mut successor = current.clone();
    let mut parts: Vec<(ProcId, TransId)> = Vec::new();
    let mut interactive: Vec<usize> = Vec::new();
    let mut markovian: Vec<(usize, f64)> = Vec::new();

    let mut store = StateStore::new(net);
    store.intern(&current, None)?;
    let mut states =
        vec![ImcState { interactive: vec![], markovian: vec![], goal: goal(&current)? }];

    let mut here = 0;
    while here < store.len() {
        store.decode(here, &mut current)?;
        interactive.clear();
        markovian.clear();

        // Immediate (interactive) transitions: guarded transitions enabled
        // *now*. In an untimed model guards are delay-free, so the window
        // is either everything or nothing.
        net.guarded_candidates_into(&tables, &mut scratch, &current)?;
        for c in 0..scratch.candidates().len() {
            let cand = &scratch.candidates()[c];
            if !cand.window.contains(0.0) {
                continue;
            }
            parts.clear();
            parts.extend_from_slice(&cand.parts);
            successor.copy_from(&current);
            net.apply_mut(&tables, &mut scratch, &mut successor, &parts)?;
            let id = visit(&mut store, &mut states, goal, limit, &successor, &current)?;
            interactive.push(id);
        }

        net.markovian_candidates_into(&tables, &mut scratch, &current);
        for m in 0..scratch.markovian().len() {
            let (p, t, rate) = scratch.markovian()[m];
            successor.copy_from(&current);
            net.apply_mut(&tables, &mut scratch, &mut successor, &[(p, t)])?;
            let id = visit(&mut store, &mut states, goal, limit, &successor, &current)?;
            markovian.push((id, rate));
        }

        states[here].interactive = interactive.clone();
        states[here].markovian = markovian.clone();
        here += 1;
    }

    let edge_bytes: usize = states
        .iter()
        .map(|s| {
            s.interactive.capacity() * size_of::<usize>()
                + s.markovian.capacity() * size_of::<(usize, f64)>()
        })
        .sum();
    let approx_memory_bytes =
        store.allocated_bytes() + states.capacity() * size_of::<ImcState>() + edge_bytes;
    Ok(Explored { states: states.len(), imc: Imc { states }, approx_memory_bytes })
}

/// The state limit actually enforced: ids are `u32` and `u32::MAX` is the
/// index's empty-slot marker, so at most `u32::MAX` states (ids
/// `0..u32::MAX`) are ever stored.
fn effective_limit(state_limit: usize) -> usize {
    state_limit.min(EMPTY as usize)
}

/// Interns `state`, a successor of the last decoded state `parent`,
/// labelling it when it is new, and returns its id.
fn visit(
    store: &mut StateStore,
    states: &mut Vec<ImcState>,
    goal: &dyn Fn(&NetState) -> Result<bool, EvalError>,
    limit: usize,
    state: &NetState,
    parent: &NetState,
) -> Result<usize, CtmcError> {
    let (id, new) = store.intern(state, Some(parent))?;
    if new {
        if id >= limit {
            return Err(CtmcError::StateLimitExceeded { limit });
        }
        states.push(ImcState { interactive: vec![], markovian: vec![], goal: goal(state)? });
    }
    Ok(id)
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
    /// `len · width` words: state `i` occupies `words[i·width..][..width]`.
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
    /// Words of the state last decoded.
    base: Vec<u64>,
}

impl StateStore {
    fn new(net: &Network) -> StateStore {
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
            words: Vec::new(),
            len: 0,
            slots: vec![EMPTY; INITIAL_SLOTS],
            shift: u64::BITS - INITIAL_SLOTS.trailing_zeros(),
            key: vec![0; width],
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

    /// Packs `state` into the key buffer. Given the state `parent` that
    /// was last [decoded](StateStore::decode), only the fields in which
    /// `state` differs from it are re-packed over the parent's words.
    fn encode(&mut self, state: &NetState, parent: Option<&NetState>) -> Result<(), EvalError> {
        match parent {
            Some(_) => self.key.copy_from_slice(&self.base),
            None => self.key.fill(0),
        }
        let (loc_fields, var_fields) = self.fields.split_at(state.locs.len());
        for (i, (f, l)) in loc_fields.iter().zip(&state.locs).enumerate() {
            if parent.is_none_or(|p| p.locs[i] != *l) {
                f.set(&mut self.key, l.0 as u64);
            }
        }
        for (i, (f, v)) in var_fields.iter().zip(state.nu.as_slice()).enumerate() {
            if parent.is_some_and(|p| p.nu.as_slice()[i] == *v) {
                continue;
            }
            let raw = match (f.kind, *v) {
                (Kind::Bool, Value::Bool(b)) => u64::from(b),
                (Kind::Int { lo, hi }, Value::Int(i)) if lo <= i && i <= hi => {
                    i.wrapping_sub(lo) as u64
                }
                (_, v) => {
                    return Err(EvalError::TypeConfusion {
                        context: format!("value {v} does not fit the packed {:?} field", f.kind),
                    })
                }
            };
            f.set(&mut self.key, raw);
        }
        Ok(())
    }

    /// Returns `(id, new)`: the id of `state`'s discrete part, appending
    /// it to the arena if it was not stored yet. `parent`, if given, must
    /// be the state last decoded (see [`StateStore::encode`]).
    fn intern(
        &mut self,
        state: &NetState,
        parent: Option<&NetState>,
    ) -> Result<(usize, bool), EvalError> {
        self.encode(state, parent)?;
        let mask = self.slots.len() - 1;
        let mut slot = home_slot(&self.key, self.shift);
        loop {
            match self.slots[slot] {
                EMPTY => break,
                id if self.words_of(id as usize) == self.key.as_slice() => {
                    return Ok((id as usize, false))
                }
                _ => slot = (slot + 1) & mask,
            }
        }
        let id = self.len;
        // Ids past `u32::MAX − 1` are refused by the state limit before
        // they are used, so the truncation never aliases a live id.
        self.slots[slot] = id as u32;
        self.words.extend_from_slice(&self.key);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            self.grow();
        }
        Ok((id, true))
    }

    /// Doubles the index and re-inserts every stored id.
    fn grow(&mut self) {
        let cap = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
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
        assert_eq!(effective_limit(usize::MAX), u32::MAX as usize);
        assert_eq!(effective_limit(u32::MAX as usize + 7), u32::MAX as usize);
        assert_eq!(effective_limit(50), 50);
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
        for (i, s) in e.imc.states.iter().enumerate().take(5000) {
            assert_eq!(s.interactive, vec![i + 1]);
        }
        assert!(e.imc.states[5000].is_absorbing());
    }

    #[test]
    fn goal_labels_applied() {
        let net = two_state();
        let goal = |s: &NetState| Ok(s.locs[0] == LocId(1));
        let e = explore(&net, &goal, &ExploreConfig::default()).unwrap();
        assert!(!e.imc.states[0].goal);
        assert!(e.imc.states[1].goal);
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
        let goals: Vec<bool> = e.imc.states.iter().map(|s| s.goal).collect();
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
        assert!(e.imc.states[0].is_vanishing());
        assert!(e.imc.states[1].is_absorbing());
    }
}
