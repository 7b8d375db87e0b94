//! Networks of communicating event-data automata (NEDA, §III-A of the
//! paper) and their operational semantics.
//!
//! A [`Network`] owns the global action table, the global variable table,
//! the automata, and the data-flow assignments. It exposes the two kinds of
//! moves of the SLIM semantics:
//!
//! * **timed transitions** — [`Network::advance`], legal within the
//!   invariant-derived delay window of [`Network::delay_window`];
//! * **discrete transitions** — synchronized combinations of local
//!   transitions ([`Network::guarded_candidates`] with their exact enabling
//!   [`IntervalSet`]s, and [`Network::markovian_candidates`] with their
//!   exponential rates), executed by [`Network::apply`].

use crate::automaton::{ActionId, Automaton, GuardKind, LocId, ProcId, TransId, Transition};
use crate::error::{EvalError, ModelError};
use crate::eval::{eval, Valuation};
use crate::expr::{Expr, VarId};
use crate::flow::{run_flows, toposort_flows, Flow};
use crate::interval::{Interval, IntervalSet};
use crate::linear::{solve, DelayEnv};
use crate::state::NetState;
use crate::validate::validate_network;
use crate::value::{Value, VarType};
use std::sync::atomic::{AtomicU64, Ordering};

/// An entry of the network's action table.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionDecl {
    /// Action name; index 0 is always `"tau"`.
    pub name: String,
}

/// An entry of the network's variable table.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Fully qualified name (instance path).
    pub name: String,
    /// Declared type.
    pub ty: VarType,
    /// Initial value.
    pub init: Value,
    /// Owning automaton, if the variable belongs to a component (used for
    /// diagnostics; shared/global variables have no owner).
    pub owner: Option<ProcId>,
}

/// A global discrete transition: one local transition per participating
/// automaton, all labeled with `action` (or a single τ-transition).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalTransition {
    /// The synchronizing action ([`ActionId::TAU`] for internal moves).
    pub action: ActionId,
    /// Participating `(automaton, local transition)` pairs, sorted by
    /// automaton index.
    pub parts: Vec<(ProcId, TransId)>,
}

/// A guarded global transition together with the exact set of delays after
/// which it is enabled (before intersection with the invariant window).
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedCandidate {
    /// The global transition.
    pub transition: GlobalTransition,
    /// Delays `d ≥ 0` such that all local guards hold after waiting `d`.
    pub window: IntervalSet,
    /// True if any participating local transition is urgent: time may not
    /// pass beyond the first instant this candidate is enabled.
    pub urgent: bool,
}

/// A Markovian global transition (always a single τ-labeled local
/// transition) with its exponential rate.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovianCandidate {
    /// The global transition (one participant).
    pub transition: GlobalTransition,
    /// Exponential rate λ.
    pub rate: f64,
}

/// Absolute tolerance for invariant-boundary floating-point drift (see
/// [`Network::delay_window`]).
pub const INVARIANT_TOLERANCE: f64 = 1e-9;

/// Identity of an assembled [`Network`], for memoizing derived facts.
///
/// Every assembly ([`NetworkBuilder::assemble_for_validation`], which
/// [`NetworkBuilder::build`] calls, and [`Network::prune`]) draws a fresh
/// id; [`Clone`] carries it over. Since a `Network` has no mutating API —
/// its fields are crate-private and only builders take `&mut` — two
/// networks with the same id are clones of one assembly and therefore
/// equal, so any pure function of a network may be cached under its id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetUid(u64);

impl NetUid {
    fn fresh() -> NetUid {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NetUid(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A validated network of event-data automata.
///
/// `PartialEq` and `Debug` compare and show the model only, not its
/// [`NetUid`] or validation flag: a clone and a fresh assembly of the
/// same model are equal.
#[derive(Clone)]
pub struct Network {
    pub(crate) actions: Vec<ActionDecl>,
    pub(crate) vars: Vec<VarDecl>,
    pub(crate) automata: Vec<Automaton>,
    pub(crate) flows: Vec<Flow>,
    /// Participants per action (automata whose alphabet contains it).
    pub(crate) participants: Vec<Vec<ProcId>>,
    uid: NetUid,
    /// Whether [`validate_network`] accepted this network: set by
    /// [`NetworkBuilder::build`] and carried through [`Network::prune`].
    validated: bool,
}

impl PartialEq for Network {
    fn eq(&self, other: &Network) -> bool {
        self.actions == other.actions
            && self.vars == other.vars
            && self.automata == other.automata
            && self.flows == other.flows
            && self.participants == other.participants
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("actions", &self.actions)
            .field("vars", &self.vars)
            .field("automata", &self.automata)
            .field("flows", &self.flows)
            .field("participants", &self.participants)
            .finish()
    }
}

impl Network {
    /// This network's identity (see [`NetUid`]).
    pub fn uid(&self) -> NetUid {
        self.uid
    }

    /// Whether this network passed [`validate_network`] at assembly
    /// ([`NetworkBuilder::build`], or a prune of such a network). Then
    /// [`crate::validate::validate_all`] would report nothing, and
    /// well-formedness need not be checked again. A network from
    /// [`NetworkBuilder::assemble_for_validation`] answers `false`.
    pub fn is_validated(&self) -> bool {
        self.validated
    }

    /// The action table (index 0 is τ).
    pub fn actions(&self) -> &[ActionDecl] {
        &self.actions
    }

    /// The variable table.
    pub fn vars(&self) -> &[VarDecl] {
        &self.vars
    }

    /// The automata.
    pub fn automata(&self) -> &[Automaton] {
        &self.automata
    }

    /// The (topologically ordered) data flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Automata participating in `action`.
    pub fn participants(&self, action: ActionId) -> &[ProcId] {
        &self.participants[action.0]
    }

    /// Looks up a variable by its fully qualified name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars.iter().position(|v| v.name == name).map(VarId)
    }

    /// Looks up an action by name.
    pub fn action_id(&self, name: &str) -> Option<ActionId> {
        self.actions.iter().position(|a| a.name == name).map(ActionId)
    }

    /// Looks up an automaton by name.
    pub fn proc_id(&self, name: &str) -> Option<ProcId> {
        self.automata.iter().position(|a| a.name == name).map(ProcId)
    }

    /// Looks up a location of a named automaton.
    pub fn loc_id(&self, proc: &str, loc: &str) -> Option<(ProcId, LocId)> {
        let p = self.proc_id(proc)?;
        let l = self.automata[p.0].loc_by_name(loc)?;
        Some((p, l))
    }

    /// Type accessor used by evaluators.
    pub fn ty_of(&self, v: VarId) -> VarType {
        self.vars[v.0].ty
    }

    /// Name accessor used in diagnostics and trace rendering (borrowed —
    /// callers that need ownership convert explicitly).
    pub fn name_of(&self, v: VarId) -> &str {
        &self.vars[v.0].name
    }

    /// The initial state (initial locations, initial values, flows
    /// established, time 0).
    ///
    /// # Errors
    /// Propagates flow-evaluation errors.
    pub fn initial_state(&self) -> Result<NetState, EvalError> {
        let locs = self.automata.iter().map(|a| a.init).collect();
        let mut nu: Valuation = self.vars.iter().map(|v| v.ty.canonicalize(v.init)).collect();
        let ty = |v: VarId| self.ty_of(v);
        let name = |v: VarId| self.name_of(v).to_string();
        run_flows(&self.flows, &mut nu, &ty, &name)?;
        Ok(NetState::new(locs, nu))
    }

    /// The active derivative of every variable in `state`: 1 for clocks,
    /// the current location's rate for continuous variables, 0 otherwise.
    pub fn active_rates(&self, state: &NetState) -> Vec<f64> {
        let mut rates = Vec::new();
        self.active_rates_into(state, &mut rates);
        rates
    }

    /// Allocation-free [`Network::active_rates`]: overwrites `rates`
    /// in place, reusing its buffer.
    pub fn active_rates_into(&self, state: &NetState, rates: &mut Vec<f64>) {
        rates.clear();
        rates.resize(self.vars.len(), 0.0);
        for (i, decl) in self.vars.iter().enumerate() {
            if decl.ty == VarType::Clock {
                rates[i] = 1.0;
            }
        }
        for (p, a) in self.automata.iter().enumerate() {
            let loc = &a.locations[state.locs[p].0];
            for &(v, r) in &loc.rates {
                rates[v.0] = r;
            }
        }
    }

    /// The set of delays during which *all* location invariants keep
    /// holding, as a single prefix window `[0, D]`/`[0, D)` (empty time can
    /// always pass by 0).
    ///
    /// A small tolerance ([`INVARIANT_TOLERANCE`]) absorbs floating-point
    /// drift: delaying exactly to an invariant boundary can overshoot by
    /// one ulp, which must not count as a violation.
    ///
    /// # Errors
    /// [`EvalError::InvariantViolated`] if some invariant does not even
    /// hold now (`d = 0`, beyond tolerance), and solver errors for
    /// non-linear invariants.
    pub fn delay_window(&self, state: &NetState) -> Result<IntervalSet, EvalError> {
        let rates = self.active_rates(state);
        let rate = |v: VarId| rates[v.0];
        let env = DelayEnv::new(&state.nu, &rate);
        let mut window = IntervalSet::all();
        for (p, a) in self.automata.iter().enumerate() {
            let loc = &a.locations[state.locs[p].0];
            if loc.invariant.is_const_true() {
                continue;
            }
            let sat = solve(&loc.invariant, &env)?;
            let holds_now =
                sat.contains(0.0) || sat.inf().is_some_and(|lo| lo <= INVARIANT_TOLERANCE);
            if !holds_now {
                return Err(EvalError::InvariantViolated {
                    automaton: a.name.clone(),
                    location: loc.name.clone(),
                });
            }
            window = window.intersect(&sat);
        }
        // Keep only the connected component containing 0: time passes
        // continuously, so the invariant must hold throughout the delay.
        if let Some((hi, closed)) = window.prefix_from_zero() {
            return Ok(IntervalSet::from(
                Interval::new(0.0, hi, true, closed)
                    .expect("prefix window is nonempty: contains 0"),
            ));
        }
        // Floating-point slack: the joint window starts within tolerance
        // of now — treat the state as sitting exactly on the boundary.
        if let Some(first) = window.intervals().first() {
            if first.lo() <= INVARIANT_TOLERANCE {
                return Ok(IntervalSet::from(
                    Interval::new(0.0, first.hi(), true, first.hi_closed())
                        .expect("boundary window is nonempty"),
                ));
            }
        }
        // Each per-automaton window touches [0, tol] but their intersection
        // is empty: no time can pass.
        Ok(IntervalSet::from(Interval::point(0.0)))
    }

    /// All guarded global transition candidates from `state`, each with its
    /// exact enabling window (NOT yet intersected with
    /// [`Network::delay_window`]; strategies do that).
    ///
    /// Empty-window candidates are filtered out.
    ///
    /// # Errors
    /// Solver errors (non-linear guards, type confusion).
    pub fn guarded_candidates(&self, state: &NetState) -> Result<Vec<GuardedCandidate>, EvalError> {
        let rates = self.active_rates(state);
        let rate = |v: VarId| rates[v.0];
        let env = DelayEnv::new(&state.nu, &rate);
        let mut out = Vec::new();

        // Internal (τ) guarded transitions fire alone.
        for (p, a) in self.automata.iter().enumerate() {
            for (t_id, t) in a.outgoing(state.locs[p]) {
                if !t.action.is_tau() {
                    continue;
                }
                if let GuardKind::Boolean(g) = &t.guard {
                    let window = solve(g, &env)?;
                    if !window.is_empty() {
                        out.push(GuardedCandidate {
                            transition: GlobalTransition {
                                action: ActionId::TAU,
                                parts: vec![(ProcId(p), t_id)],
                            },
                            window,
                            urgent: t.urgent,
                        });
                    }
                }
            }
        }

        // Synchronizing actions: every participant must join.
        for (a_idx, procs) in self.participants.iter().enumerate() {
            let action = ActionId(a_idx);
            if action.is_tau() || procs.is_empty() {
                continue;
            }
            // Collect each participant's locally enabled a-transitions.
            let mut local: Vec<Vec<(TransId, IntervalSet, bool)>> = Vec::with_capacity(procs.len());
            let mut possible = true;
            for &p in procs {
                let a = &self.automata[p.0];
                let mut opts = Vec::new();
                for (t_id, t) in a.outgoing(state.locs[p.0]) {
                    if t.action != action {
                        continue;
                    }
                    if let GuardKind::Boolean(g) = &t.guard {
                        let w = solve(g, &env)?;
                        if !w.is_empty() {
                            opts.push((t_id, w, t.urgent));
                        }
                    }
                }
                if opts.is_empty() {
                    possible = false;
                    break;
                }
                local.push(opts);
            }
            if !possible {
                continue;
            }
            // Cross product of the participants' choices:
            // (participants so far, joint time window, any urgent).
            type Combo = (Vec<(ProcId, TransId)>, IntervalSet, bool);
            let mut combos: Vec<Combo> = vec![(Vec::new(), IntervalSet::all(), false)];
            for (&p, opts) in procs.iter().zip(&local) {
                let mut next = Vec::with_capacity(combos.len() * opts.len());
                for (parts, window, urgent) in &combos {
                    for (t_id, w, u) in opts {
                        let joint = window.intersect(w);
                        if joint.is_empty() {
                            continue;
                        }
                        let mut parts = parts.clone();
                        parts.push((p, *t_id));
                        next.push((parts, joint, *urgent || *u));
                    }
                }
                combos = next;
                if combos.is_empty() {
                    break;
                }
            }
            for (parts, window, urgent) in combos {
                out.push(GuardedCandidate {
                    transition: GlobalTransition { action, parts },
                    window,
                    urgent,
                });
            }
        }
        Ok(out)
    }

    /// All Markovian transition candidates enabled in `state` with their
    /// rates. Markovian transitions are τ-labeled and fire alone.
    pub fn markovian_candidates(&self, state: &NetState) -> Vec<MarkovianCandidate> {
        let mut out = Vec::new();
        for (p, a) in self.automata.iter().enumerate() {
            for (t_id, t) in a.outgoing(state.locs[p]) {
                if let GuardKind::Markovian(rate) = t.guard {
                    out.push(MarkovianCandidate {
                        transition: GlobalTransition {
                            action: ActionId::TAU,
                            parts: vec![(ProcId(p), t_id)],
                        },
                        rate,
                    });
                }
            }
        }
        out
    }

    /// Advances time by `d`, updating clocks and continuous variables and
    /// re-establishing flows.
    ///
    /// # Errors
    /// [`EvalError::DelayNotAllowed`] when `d` exceeds the invariant
    /// window, plus flow-evaluation errors.
    pub fn advance(&self, state: &NetState, d: f64) -> Result<NetState, EvalError> {
        debug_assert!(d >= 0.0, "negative delay");
        let window = self.delay_window(state)?;
        if !window.contains(d) {
            return Err(EvalError::DelayNotAllowed {
                requested: d,
                allowed_up_to: window.sup().unwrap_or(0.0),
            });
        }
        let next = self.advance_unchecked(state, d)?;
        // Floating-point robustness: delaying exactly to an invariant
        // boundary can overshoot by one ulp (`c + (B − c)` need not equal
        // `B`). Since `d` lies inside the legal window, any invariant
        // violation in `next` is pure rounding — retreat by a relative
        // epsilon so the state sits just inside the boundary.
        if self.delay_window(&next).is_err() && d > 0.0 {
            for backoff in [1e-12, 1e-9] {
                let shorter = self.advance_unchecked(state, d * (1.0 - backoff))?;
                if self.delay_window(&shorter).is_ok() {
                    return Ok(shorter);
                }
            }
        }
        Ok(next)
    }

    /// Advances time without boundary snapping (see [`Self::advance`]).
    fn advance_unchecked(&self, state: &NetState, d: f64) -> Result<NetState, EvalError> {
        let rates = self.active_rates(state);
        let mut next = state.clone();
        for (i, r) in rates.iter().enumerate() {
            if *r != 0.0 {
                let cur = next.nu.get(VarId(i))?.as_real()?;
                next.nu.set(VarId(i), Value::Real(cur + r * d))?;
            }
        }
        next.time += d;
        let ty = |v: VarId| self.ty_of(v);
        let name = |v: VarId| self.name_of(v).to_string();
        run_flows(&self.flows, &mut next.nu, &ty, &name)?;
        Ok(next)
    }

    /// Fires a global transition: applies all effects (reading the
    /// pre-state), moves the participating automata, re-establishes flows.
    ///
    /// Effects of different participants are applied in participant order;
    /// if two participants write the same variable the later write wins
    /// (validated models may warn on such races).
    ///
    /// # Errors
    /// Evaluation errors from effects or flows; integer range violations.
    pub fn apply(&self, state: &NetState, gt: &GlobalTransition) -> Result<NetState, EvalError> {
        let mut next = state.clone();
        // Evaluate all effect right-hand sides against the pre-state.
        let mut writes: Vec<(VarId, Value)> = Vec::new();
        for &(p, t) in &gt.parts {
            let tr = self.transition(p, t);
            for eff in &tr.effects {
                let v = eval(&eff.expr, &state.nu)?;
                let ty = self.ty_of(eff.var);
                let v = ty.canonicalize(v);
                if !ty.admits(v) {
                    if let (VarType::Int { lo, hi }, Value::Int(i)) = (ty, v) {
                        return Err(EvalError::IntOutOfRange {
                            variable: self.name_of(eff.var).to_string(),
                            value: i,
                            lo,
                            hi,
                        });
                    }
                    return Err(EvalError::TypeConfusion {
                        context: format!(
                            "effect on {} produced {}",
                            self.name_of(eff.var),
                            v.kind()
                        ),
                    });
                }
                writes.push((eff.var, v));
            }
            next.locs[p.0] = tr.to;
        }
        for (var, v) in writes {
            next.nu.set(var, v)?;
        }
        let ty = |v: VarId| self.ty_of(v);
        let name = |v: VarId| self.name_of(v).to_string();
        run_flows(&self.flows, &mut next.nu, &ty, &name)?;
        Ok(next)
    }

    /// The local transition `(p, t)`.
    pub fn transition(&self, p: ProcId, t: TransId) -> &Transition {
        &self.automata[p.0].transitions[t.0]
    }

    /// Evaluates a Boolean expression in a state.
    ///
    /// # Errors
    /// Evaluation errors (validated goals never type-confuse).
    pub fn eval_bool(&self, state: &NetState, expr: &Expr) -> Result<bool, EvalError> {
        crate::eval::eval_bool(expr, &state.nu)
    }

    /// Renders an expression with variable *names* instead of `v<i>`
    /// indices — for diagnostics and the CLI's `info` output.
    pub fn render_expr(&self, e: &Expr) -> String {
        use crate::expr::BinOp;
        match e {
            Expr::Const(v) => v.to_string(),
            Expr::Var(v) => self
                .vars
                .get(v.0)
                .map(|d| d.name.as_str())
                .map_or_else(|| format!("v{}", v.0), str::to_string),
            Expr::Not(x) => format!("(not {})", self.render_expr(x)),
            Expr::Neg(x) => format!("(-{})", self.render_expr(x)),
            Expr::Bin(BinOp::Min, a, b) => {
                format!("min({}, {})", self.render_expr(a), self.render_expr(b))
            }
            Expr::Bin(BinOp::Max, a, b) => {
                format!("max({}, {})", self.render_expr(a), self.render_expr(b))
            }
            Expr::Bin(op, a, b) => {
                format!("({} {} {})", self.render_expr(a), op.symbol(), self.render_expr(b))
            }
            Expr::Ite(c, t, els) => format!(
                "(if {} then {} else {})",
                self.render_expr(c),
                self.render_expr(t),
                self.render_expr(els)
            ),
        }
    }

    /// Rough per-state memory footprint in bytes, used for the Table I
    /// memory columns (we cannot reproduce the authors' RSS measurements).
    pub fn state_size_bytes(&self) -> usize {
        self.automata.len() * std::mem::size_of::<LocId>()
            + self.vars.len() * std::mem::size_of::<Value>()
            + std::mem::size_of::<NetState>()
    }
}

/// Builder for a single automaton; add it to a [`NetworkBuilder`] with
/// [`NetworkBuilder::add_automaton`].
///
/// # Examples
///
/// ```
/// use slim_automata::prelude::*;
///
/// let mut net = NetworkBuilder::new();
/// let x = net.var("x", VarType::Clock, Value::Real(0.0));
/// let mut a = AutomatonBuilder::new("proc");
/// let l0 = a.location("idle");
/// let l1 = a.location_with("busy", Expr::var(x).le(Expr::real(5.0)), []);
/// a.guarded(l0, ActionId::TAU, Expr::TRUE, [Effect::assign(x, Expr::real(0.0))], l1);
/// net.add_automaton(a);
/// let network = net.build()?;
/// assert_eq!(network.automata().len(), 1);
/// # Ok::<(), slim_automata::error::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AutomatonBuilder {
    automaton: Automaton,
}

impl AutomatonBuilder {
    /// Starts building an automaton with the given name.
    pub fn new(name: impl Into<String>) -> AutomatonBuilder {
        AutomatonBuilder { automaton: Automaton::new(name) }
    }

    /// Adds a location with trivial invariant; returns its id. The first
    /// location added is the initial one unless [`Self::set_init`] is used.
    pub fn location(&mut self, name: impl Into<String>) -> LocId {
        self.location_with(name, Expr::TRUE, [])
    }

    /// Adds a location with an invariant and continuous-variable rates.
    pub fn location_with(
        &mut self,
        name: impl Into<String>,
        invariant: Expr,
        rates: impl IntoIterator<Item = (VarId, f64)>,
    ) -> LocId {
        let id = LocId(self.automaton.locations.len());
        self.automaton.locations.push(crate::automaton::Location {
            name: name.into(),
            invariant,
            rates: rates.into_iter().collect(),
        });
        id
    }

    /// Adds a guarded transition.
    pub fn guarded(
        &mut self,
        from: LocId,
        action: ActionId,
        guard: Expr,
        effects: impl IntoIterator<Item = crate::automaton::Effect>,
        to: LocId,
    ) -> TransId {
        self.guarded_with_urgency(from, action, guard, effects, to, false)
    }

    /// Adds an **urgent** guarded transition: time may not pass beyond
    /// the first instant it is enabled (AADL-eager semantics; this is
    /// what makes untimed models strategy-independent, §V-d left graph).
    pub fn guarded_urgent(
        &mut self,
        from: LocId,
        action: ActionId,
        guard: Expr,
        effects: impl IntoIterator<Item = crate::automaton::Effect>,
        to: LocId,
    ) -> TransId {
        self.guarded_with_urgency(from, action, guard, effects, to, true)
    }

    fn guarded_with_urgency(
        &mut self,
        from: LocId,
        action: ActionId,
        guard: Expr,
        effects: impl IntoIterator<Item = crate::automaton::Effect>,
        to: LocId,
        urgent: bool,
    ) -> TransId {
        let id = TransId(self.automaton.transitions.len());
        self.automaton.transitions.push(Transition {
            from,
            action,
            guard: GuardKind::Boolean(guard),
            effects: effects.into_iter().collect(),
            to,
            urgent,
        });
        id
    }

    /// Adds a Markovian (exponential-rate, τ-labeled) transition.
    pub fn markovian(
        &mut self,
        from: LocId,
        rate: f64,
        effects: impl IntoIterator<Item = crate::automaton::Effect>,
        to: LocId,
    ) -> TransId {
        let id = TransId(self.automaton.transitions.len());
        self.automaton.transitions.push(Transition {
            from,
            action: ActionId::TAU,
            guard: GuardKind::Markovian(rate),
            effects: effects.into_iter().collect(),
            to,
            urgent: false,
        });
        id
    }

    /// Sets the initial location (defaults to the first one added).
    pub fn set_init(&mut self, loc: LocId) {
        self.automaton.init = loc;
    }

    /// The automaton's name.
    pub fn name(&self) -> &str {
        &self.automaton.name
    }

    /// Finishes building (no validation; the network validates globally).
    pub fn finish(self) -> Automaton {
        self.automaton
    }
}

/// Which transitions and locations a [`Network::prune`] call removes.
///
/// Produced by the `slim-analysis` fixpoint engine (its `prune_plan`
/// method); the shape is plain per-automaton flags so a plan can be
/// audited — or adjusted with [`PrunePlan::keep_location`] — before it is
/// applied.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunePlan {
    /// `[proc][trans]` — transitions to remove.
    pub drop_trans: Vec<Vec<bool>>,
    /// `[proc][loc]` — locations to remove. Must be unreferenced by any
    /// kept transition and never an initial location.
    pub drop_locs: Vec<Vec<bool>>,
}

impl PrunePlan {
    /// Number of transitions the plan removes.
    pub fn dropped_transitions(&self) -> usize {
        self.drop_trans.iter().flatten().filter(|d| **d).count()
    }

    /// Number of locations the plan removes.
    pub fn dropped_locations(&self) -> usize {
        self.drop_locs.iter().flatten().filter(|d| **d).count()
    }

    /// True when the plan removes nothing.
    pub fn is_noop(&self) -> bool {
        self.dropped_transitions() == 0 && self.dropped_locations() == 0
    }

    /// Forces a location to survive pruning (e.g. because a goal
    /// predicate names it).
    pub fn keep_location(&mut self, p: ProcId, l: LocId) {
        self.drop_locs[p.0][l.0] = false;
    }
}

/// Old-index → new-index maps produced by [`Network::prune`], for
/// translating [`LocId`]/[`TransId`] references (goals, traces) onto the
/// pruned network. `None` means the index was removed.
#[derive(Debug, Clone)]
pub struct PruneMaps {
    /// `[proc][old_loc]` → new location index.
    pub locs: Vec<Vec<Option<LocId>>>,
    /// `[proc][old_trans]` → new transition index.
    pub trans: Vec<Vec<Option<TransId>>>,
}

impl Network {
    /// Applies a [`PrunePlan`]: removes the planned transitions and
    /// locations, renumbers [`LocId`]s/[`TransId`]s densely, and
    /// recomputes the per-action participant table from the surviving
    /// alphabets. Actions, variables, and flows are untouched, so
    /// [`VarId`]/[`ActionId`] references stay valid.
    ///
    /// With a plan from the `slim-analysis` fixpoint, the pruned network
    /// is *observationally identical* on every `(seed, workers)` run: the
    /// removed transitions are provably never fired, their guards either
    /// were never evaluated (unreachable source) or can never error, and
    /// alphabets are preserved action-wise (an action loses either all of
    /// its transitions or none per automaton), keeping the candidate
    /// enumeration order of everything that can still fire unchanged.
    ///
    /// Note that pruning renumbers transitions, so recorded witness
    /// traces replay only against the network they were produced on.
    ///
    /// # Panics
    /// Panics if the plan's shape does not match this network, drops an
    /// initial location, or leaves a kept transition referencing a
    /// dropped location.
    pub fn prune(&self, plan: &PrunePlan) -> (Network, PruneMaps) {
        assert_eq!(plan.drop_trans.len(), self.automata.len(), "plan/network mismatch");
        assert_eq!(plan.drop_locs.len(), self.automata.len(), "plan/network mismatch");
        let mut automata = Vec::with_capacity(self.automata.len());
        let mut loc_maps = Vec::with_capacity(self.automata.len());
        let mut trans_maps = Vec::with_capacity(self.automata.len());
        for (p, a) in self.automata.iter().enumerate() {
            assert_eq!(plan.drop_trans[p].len(), a.transitions.len(), "plan/network mismatch");
            assert_eq!(plan.drop_locs[p].len(), a.locations.len(), "plan/network mismatch");
            let mut loc_map: Vec<Option<LocId>> = Vec::with_capacity(a.locations.len());
            let mut locations = Vec::new();
            for (l, loc) in a.locations.iter().enumerate() {
                if plan.drop_locs[p][l] {
                    loc_map.push(None);
                } else {
                    loc_map.push(Some(LocId(locations.len())));
                    locations.push(loc.clone());
                }
            }
            let init = loc_map[a.init.0].expect("initial location must not be pruned");
            let mut trans_map: Vec<Option<TransId>> = Vec::with_capacity(a.transitions.len());
            let mut transitions = Vec::new();
            for (t, trans) in a.transitions.iter().enumerate() {
                if plan.drop_trans[p][t] {
                    trans_map.push(None);
                } else {
                    trans_map.push(Some(TransId(transitions.len())));
                    let from = loc_map[trans.from.0]
                        .expect("kept transition references a pruned source location");
                    let to = loc_map[trans.to.0]
                        .expect("kept transition references a pruned target location");
                    transitions.push(Transition { from, to, ..trans.clone() });
                }
            }
            automata.push(Automaton { name: a.name.clone(), locations, init, transitions });
            loc_maps.push(loc_map);
            trans_maps.push(trans_map);
        }
        // Recompute participants from the surviving alphabets (mirrors
        // assembly in the builder).
        let mut participants: Vec<Vec<ProcId>> = vec![Vec::new(); self.actions.len()];
        for (p, a) in automata.iter().enumerate() {
            for act in a.alphabet() {
                participants[act.0].push(ProcId(p));
            }
        }
        let net = Network {
            actions: self.actions.clone(),
            vars: self.vars.clone(),
            automata,
            flows: self.flows.clone(),
            participants,
            uid: NetUid::fresh(),
            validated: self.validated,
        };
        debug_assert!(
            !net.validated || validate_network(&net).is_ok(),
            "pruning a validated network must preserve well-formedness"
        );
        (net, PruneMaps { locs: loc_maps, trans: trans_maps })
    }
}

/// Builder for a [`Network`]: declare actions and variables, add automata
/// and flows, then [`NetworkBuilder::build`] validates everything.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    actions: Vec<ActionDecl>,
    vars: Vec<VarDecl>,
    automata: Vec<Automaton>,
    flows: Vec<Flow>,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkBuilder {
    /// Creates an empty builder (with the τ action pre-declared).
    pub fn new() -> NetworkBuilder {
        NetworkBuilder {
            actions: vec![ActionDecl { name: "tau".into() }],
            vars: Vec::new(),
            automata: Vec::new(),
            flows: Vec::new(),
        }
    }

    /// Declares (or looks up) a synchronizing action by name.
    pub fn action(&mut self, name: impl Into<String>) -> ActionId {
        let name = name.into();
        if let Some(i) = self.actions.iter().position(|a| a.name == name) {
            return ActionId(i);
        }
        let id = ActionId(self.actions.len());
        self.actions.push(ActionDecl { name });
        id
    }

    /// Declares a variable; names must be unique (checked at build).
    pub fn var(&mut self, name: impl Into<String>, ty: VarType, init: Value) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarDecl { name: name.into(), ty, init, owner: None });
        id
    }

    /// Declares a variable owned by the automaton that will be added at
    /// index `owner`.
    pub fn var_owned(
        &mut self,
        name: impl Into<String>,
        ty: VarType,
        init: Value,
        owner: ProcId,
    ) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarDecl { name: name.into(), ty, init, owner: Some(owner) });
        id
    }

    /// Adds a finished automaton builder.
    pub fn add_automaton(&mut self, builder: AutomatonBuilder) -> ProcId {
        let id = ProcId(self.automata.len());
        self.automata.push(builder.finish());
        id
    }

    /// Adds a data-flow assignment `target := expr`.
    pub fn flow(&mut self, target: VarId, expr: Expr) {
        self.flows.push(Flow::new(target, expr));
    }

    /// Number of automata added so far (the next automaton's [`ProcId`]).
    pub fn next_proc_id(&self) -> ProcId {
        ProcId(self.automata.len())
    }

    /// Validates and assembles the network.
    ///
    /// # Errors
    /// Any [`ModelError`] describing a well-formedness violation; see the
    /// crate documentation for the full rule set.
    pub fn build(self) -> Result<Network, ModelError> {
        let mut network = self.assemble_for_validation()?;
        validate_network(&network)?;
        network.validated = true;
        Ok(network)
    }

    /// Assembles the network *without* running [`validate_network`]:
    /// orders the flows, computes the per-action participant lists, and
    /// returns the raw [`Network`].
    ///
    /// This is the entry point for tooling that wants to report **all**
    /// well-formedness violations (via [`crate::validate::validate_all`])
    /// instead of failing on the first one, and for tests that need to
    /// construct deliberately broken networks. Simulation of an
    /// unvalidated network may panic or return evaluation errors.
    ///
    /// # Errors
    /// Only the errors that make assembly itself impossible: duplicate
    /// flow targets and flow cycles (the flow order would be undefined),
    /// and out-of-range action indices (the participant table cannot be
    /// sized).
    pub fn assemble_for_validation(self) -> Result<Network, ModelError> {
        let NetworkBuilder { actions, vars, automata, flows } = self;
        // Topologically order flows first (also checks duplicates/cycles).
        let names: Vec<String> = vars.iter().map(|v| v.name.clone()).collect();
        let name_of = |v: VarId| {
            names.get(v.0).cloned().unwrap_or_else(|| format!("<out-of-range v{}>", v.0))
        };
        let flows = toposort_flows(flows, &name_of)?;

        // Participants per action.
        let mut participants: Vec<Vec<ProcId>> = vec![Vec::new(); actions.len()];
        for (p, a) in automata.iter().enumerate() {
            for act in a.alphabet() {
                if act.0 >= actions.len() {
                    return Err(ModelError::IndexOutOfRange {
                        what: "action",
                        index: act.0,
                        len: actions.len(),
                    });
                }
                participants[act.0].push(ProcId(p));
            }
        }

        Ok(Network {
            actions,
            vars,
            automata,
            flows,
            participants,
            uid: NetUid::fresh(),
            validated: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Effect;

    /// Two automata synchronizing on `go`; a clock guard on one side.
    fn sync_network() -> Network {
        let mut b = NetworkBuilder::new();
        let go = b.action("go");
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let flag = b.var("flag", VarType::Bool, Value::Bool(false));

        let mut a1 = AutomatonBuilder::new("left");
        let l0 = a1.location_with("wait", Expr::var(x).le(Expr::real(10.0)), []);
        let l1 = a1.location("done");
        a1.guarded(l0, go, Expr::var(x).ge(Expr::real(2.0)), [], l1);
        b.add_automaton(a1);

        let mut a2 = AutomatonBuilder::new("right");
        let r0 = a2.location("idle");
        let r1 = a2.location("active");
        a2.guarded(r0, go, Expr::TRUE, [Effect::assign(flag, Expr::bool(true))], r1);
        b.add_automaton(a2);

        b.build().unwrap()
    }

    #[test]
    fn uid_follows_assembly_not_content() {
        let a = sync_network();
        let b = sync_network();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(a.uid(), b.uid(), "each assembly draws a fresh id");
        assert_eq!(a.clone().uid(), a.uid());
        let keep_all = PrunePlan {
            drop_trans: a.automata.iter().map(|x| vec![false; x.transitions.len()]).collect(),
            drop_locs: a.automata.iter().map(|x| vec![false; x.locations.len()]).collect(),
        };
        let (pruned, _) = a.prune(&keep_all);
        assert_eq!(pruned, a);
        assert_ne!(pruned.uid(), a.uid());
    }

    #[test]
    fn build_and_prune_record_validation_and_raw_assembly_does_not() {
        let net = sync_network();
        assert!(net.is_validated());
        let keep_all = PrunePlan {
            drop_trans: net.automata.iter().map(|x| vec![false; x.transitions.len()]).collect(),
            drop_locs: net.automata.iter().map(|x| vec![false; x.locations.len()]).collect(),
        };
        assert!(net.prune(&keep_all).0.is_validated());
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("p");
        a.location("l");
        b.add_automaton(a);
        let raw = b.assemble_for_validation().unwrap();
        assert!(!raw.is_validated());
        assert!(!raw
            .prune(&PrunePlan { drop_trans: vec![vec![]], drop_locs: vec![vec![false]] })
            .0
            .is_validated());
    }

    #[test]
    fn initial_state_runs_flows() {
        let mut b = NetworkBuilder::new();
        let src = b.var("src", VarType::INT, Value::Int(4));
        let out = b.var("out", VarType::INT, Value::Int(0));
        b.flow(out, Expr::var(src).mul(Expr::int(3)));
        let mut a = AutomatonBuilder::new("p");
        a.location("only");
        b.add_automaton(a);
        let n = b.build().unwrap();
        let s = n.initial_state().unwrap();
        assert_eq!(s.nu.get(out), Ok(Value::Int(12)));
    }

    #[test]
    fn delay_window_from_invariant() {
        let n = sync_network();
        let s = n.initial_state().unwrap();
        let w = n.delay_window(&s).unwrap();
        assert_eq!(w.prefix_from_zero(), Some((10.0, true)));
    }

    #[test]
    fn guarded_candidates_synchronize() {
        let n = sync_network();
        let s = n.initial_state().unwrap();
        let cands = n.guarded_candidates(&s).unwrap();
        assert_eq!(cands.len(), 1);
        let c = &cands[0];
        assert_eq!(c.transition.parts.len(), 2);
        // Window is [2, ∞) from the left guard (invariant not yet applied).
        assert!(!c.window.contains(1.9) && c.window.contains(2.0));
    }

    #[test]
    fn apply_fires_both_sides() {
        let n = sync_network();
        let s0 = n.initial_state().unwrap();
        let s1 = n.advance(&s0, 3.0).unwrap();
        let cands = n.guarded_candidates(&s1).unwrap();
        let s2 = n.apply(&s1, &cands[0].transition).unwrap();
        assert_eq!(s2.locs, vec![LocId(1), LocId(1)]);
        assert_eq!(s2.nu.get(VarId(1)), Ok(Value::Bool(true)));
        assert_eq!(s2.time, 3.0);
    }

    #[test]
    fn advance_updates_clock_and_respects_window() {
        let n = sync_network();
        let s0 = n.initial_state().unwrap();
        let s1 = n.advance(&s0, 10.0).unwrap();
        assert_eq!(s1.nu.get(VarId(0)), Ok(Value::Real(10.0)));
        assert!(matches!(n.advance(&s0, 10.5), Err(EvalError::DelayNotAllowed { .. })));
    }

    #[test]
    fn markovian_candidates_listed() {
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("err");
        let ok = a.location("ok");
        let bad = a.location("bad");
        a.markovian(ok, 0.1, [], bad);
        a.markovian(ok, 0.2, [], bad);
        b.add_automaton(a);
        let n = b.build().unwrap();
        let s = n.initial_state().unwrap();
        let ms = n.markovian_candidates(&s);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].rate, 0.1);
        assert_eq!(ms[1].rate, 0.2);
        assert!(n.guarded_candidates(&s).unwrap().is_empty());
    }

    #[test]
    fn sync_blocked_when_partner_cannot() {
        // Same shape as sync_network but the right side is in a location
        // without a `go` transition.
        let mut b = NetworkBuilder::new();
        let go = b.action("go");
        let mut a1 = AutomatonBuilder::new("left");
        let l0 = a1.location("wait");
        let l1 = a1.location("done");
        a1.guarded(l0, go, Expr::TRUE, [], l1);
        b.add_automaton(a1);
        let mut a2 = AutomatonBuilder::new("right");
        let r_idle = a2.location("stuck"); // no outgoing `go`
        let r1 = a2.location("active");
        a2.guarded(r1, go, Expr::TRUE, [], r_idle);
        b.add_automaton(a2);
        let n = b.build().unwrap();
        let s = n.initial_state().unwrap();
        assert!(n.guarded_candidates(&s).unwrap().is_empty());
    }

    #[test]
    fn cross_product_of_choices() {
        // Left has two `go` transitions, right has two: 4 combinations.
        let mut b = NetworkBuilder::new();
        let go = b.action("go");
        let mut a1 = AutomatonBuilder::new("left");
        let l0 = a1.location("s");
        let l1 = a1.location("t");
        a1.guarded(l0, go, Expr::TRUE, [], l1);
        a1.guarded(l0, go, Expr::TRUE, [], l0);
        b.add_automaton(a1);
        let mut a2 = AutomatonBuilder::new("right");
        let r0 = a2.location("s");
        let r1 = a2.location("t");
        a2.guarded(r0, go, Expr::TRUE, [], r1);
        a2.guarded(r0, go, Expr::TRUE, [], r0);
        b.add_automaton(a2);
        let n = b.build().unwrap();
        let s = n.initial_state().unwrap();
        assert_eq!(n.guarded_candidates(&s).unwrap().len(), 4);
    }

    #[test]
    fn lookup_helpers() {
        let n = sync_network();
        assert!(n.var_id("x").is_some());
        assert!(n.var_id("nope").is_none());
        assert!(n.action_id("go").is_some());
        assert_eq!(n.proc_id("left"), Some(ProcId(0)));
        let (p, l) = n.loc_id("right", "active").unwrap();
        assert_eq!((p, l), (ProcId(1), LocId(1)));
        assert!(n.state_size_bytes() > 0);
    }

    #[test]
    fn render_expr_uses_names() {
        let n = sync_network();
        let x = n.var_id("x").unwrap();
        let flag = n.var_id("flag").unwrap();
        let e = Expr::var(x).ge(Expr::real(2.0)).and(Expr::var(flag));
        let s = n.render_expr(&e);
        assert!(s.contains("x") && s.contains("flag") && s.contains(">="), "{s}");
        // Out-of-range ids degrade gracefully.
        let bad = Expr::var(VarId(99));
        assert_eq!(n.render_expr(&bad), "v99");
    }

    #[test]
    fn continuous_rates_applied() {
        let mut b = NetworkBuilder::new();
        let e = b.var("energy", VarType::Continuous, Value::Real(100.0));
        let mut a = AutomatonBuilder::new("battery");
        a.location_with("draining", Expr::var(e).ge(Expr::real(0.0)), [(e, -2.0)]);
        b.add_automaton(a);
        let n = b.build().unwrap();
        let s0 = n.initial_state().unwrap();
        let w = n.delay_window(&s0).unwrap();
        assert_eq!(w.prefix_from_zero(), Some((50.0, true)));
        let s1 = n.advance(&s0, 25.0).unwrap();
        assert_eq!(s1.nu.get(e), Ok(Value::Real(50.0)));
    }

    #[test]
    fn invariant_violation_detected() {
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(5.0));
        let mut a = AutomatonBuilder::new("p");
        a.location_with("l", Expr::var(x).le(Expr::real(3.0)), []);
        b.add_automaton(a);
        let n = b.build().unwrap();
        let s = n.initial_state().unwrap();
        assert!(matches!(n.delay_window(&s), Err(EvalError::InvariantViolated { .. })));
    }
}
