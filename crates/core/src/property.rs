//! Timed reachability properties.
//!
//! The paper's tool evaluates the COMPASS *probabilistic existence*
//! pattern, i.e. the CSL formula `P(◇[0,u] goal)` (§V-d). A [`Goal`] is a
//! Boolean combination of data-expression atoms and location atoms; a
//! [`TimedReach`] property bounds the reachability time by `u`.

use slim_automata::error::EvalError;
use slim_automata::interval::IntervalSet;
use slim_automata::linear::{solve, DelayEnv};
use slim_automata::prelude::*;
use slim_obs::profile::{NoopProfile, ProfileHooks};

/// A [`Goal`] lowered onto a network's compiled step tables: every
/// expression atom becomes a [`CompiledPredicate`], so repeated window
/// evaluation through [`CompiledGoal::window_into`] performs no heap
/// allocation in steady state (combinator temporaries come from a
/// [`GoalPool`] free-list).
#[derive(Debug, Clone)]
pub enum CompiledGoal {
    /// A compiled Boolean expression over the network's variables.
    Pred(CompiledPredicate),
    /// True when automaton `proc` is in location `loc`.
    InLocation(ProcId, LocId),
    /// Conjunction.
    And(Box<CompiledGoal>, Box<CompiledGoal>),
    /// Disjunction.
    Or(Box<CompiledGoal>, Box<CompiledGoal>),
    /// Negation.
    Not(Box<CompiledGoal>),
}

/// Free-list of interval sets recycled across goal-window evaluations.
///
/// `window_into` needs one temporary per combinator level; taking them
/// from the pool (and returning them afterwards) keeps the recursion
/// allocation-free once the pool has warmed up to the goal's depth.
#[derive(Debug, Default)]
pub struct GoalPool {
    free: Vec<IntervalSet>,
}

impl GoalPool {
    /// Creates an empty pool.
    pub fn new() -> GoalPool {
        GoalPool::default()
    }

    fn take(&mut self) -> IntervalSet {
        self.free.pop().unwrap_or_default()
    }

    fn put(&mut self, set: IntervalSet) {
        self.free.push(set);
    }
}

impl CompiledGoal {
    /// Writes the goal's delay window in `state` into `out` — the compiled
    /// counterpart of [`Goal::window`], byte-identical in result and error
    /// behavior but free of per-call allocation.
    ///
    /// # Errors
    /// Linear-solver errors for non-linear goal expressions.
    pub fn window_into(
        &self,
        net: &Network,
        step: &mut StepScratch,
        pool: &mut GoalPool,
        state: &NetState,
        out: &mut IntervalSet,
    ) -> Result<(), EvalError> {
        self.window_with(net, step, pool, state, out, false, &mut NoopProfile)
    }

    /// [`CompiledGoal::window_into`] without the per-atom rate refresh and
    /// with profiling hooks: evaluates every predicate atom against the
    /// rates already in the step scratch (see [`Network::rates_refresh`]),
    /// so a stepping loop that refreshes once per step pays for exactly
    /// one refresh no matter how many atoms the goal has. Bit-identical to
    /// the refreshing form; records the predicate-program opcodes every
    /// atom executes.
    ///
    /// # Errors
    /// Linear-solver errors for non-linear goal expressions.
    pub fn window_rated_prof<P: ProfileHooks>(
        &self,
        net: &Network,
        step: &mut StepScratch,
        pool: &mut GoalPool,
        state: &NetState,
        out: &mut IntervalSet,
        prof: &mut P,
    ) -> Result<(), EvalError> {
        self.window_with(net, step, pool, state, out, true, prof)
    }

    #[allow(clippy::too_many_arguments)]
    fn window_with<P: ProfileHooks>(
        &self,
        net: &Network,
        step: &mut StepScratch,
        pool: &mut GoalPool,
        state: &NetState,
        out: &mut IntervalSet,
        rated: bool,
        prof: &mut P,
    ) -> Result<(), EvalError> {
        match self {
            CompiledGoal::Pred(p) => {
                if rated {
                    net.predicate_window_rated_prof(step, p, state, out, prof)
                } else {
                    net.predicate_window_into(step, p, state, out)
                }
            }
            CompiledGoal::InLocation(p, l) => {
                if state.locs[p.0] == *l {
                    out.set_all();
                } else {
                    out.clear();
                }
                Ok(())
            }
            CompiledGoal::And(a, b) | CompiledGoal::Or(a, b) => {
                a.window_with(net, step, pool, state, out, rated, prof)?;
                let mut wb = pool.take();
                b.window_with(net, step, pool, state, &mut wb, rated, prof)?;
                let mut combined = pool.take();
                if matches!(self, CompiledGoal::And(..)) {
                    out.intersect_into(&wb, &mut combined);
                } else {
                    out.union_into(&wb, &mut combined);
                }
                std::mem::swap(out, &mut combined);
                pool.put(wb);
                pool.put(combined);
                Ok(())
            }
            CompiledGoal::Not(a) => {
                a.window_with(net, step, pool, state, out, rated, prof)?;
                let mut flipped = pool.take();
                out.complement_into(&mut flipped);
                std::mem::swap(out, &mut flipped);
                pool.put(flipped);
                Ok(())
            }
        }
    }
}

/// A state predicate over a network: data expressions plus location atoms.
#[derive(Debug, Clone, PartialEq)]
pub enum Goal {
    /// A Boolean expression over the network's variables.
    Expr(Expr),
    /// True when automaton `proc` is in location `loc`.
    InLocation(ProcId, LocId),
    /// Conjunction.
    And(Box<Goal>, Box<Goal>),
    /// Disjunction.
    Or(Box<Goal>, Box<Goal>),
    /// Negation.
    Not(Box<Goal>),
}

impl Goal {
    /// Goal from a Boolean expression.
    pub fn expr(e: Expr) -> Goal {
        Goal::Expr(e)
    }

    /// Goal naming a location of a named automaton.
    ///
    /// # Errors
    /// Returns the unknown name when the automaton or location does not
    /// exist.
    pub fn in_location(net: &Network, proc: &str, loc: &str) -> Result<Goal, String> {
        net.loc_id(proc, loc)
            .map(|(p, l)| Goal::InLocation(p, l))
            .ok_or_else(|| format!("{proc}.{loc}"))
    }

    /// Conjunction.
    pub fn and(self, rhs: Goal) -> Goal {
        Goal::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction.
    pub fn or(self, rhs: Goal) -> Goal {
        Goal::Or(Box::new(self), Box::new(rhs))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Goal {
        Goal::Not(Box::new(self))
    }

    /// Evaluates the goal in a concrete state.
    ///
    /// # Errors
    /// Expression-evaluation errors.
    pub fn holds(&self, net: &Network, state: &NetState) -> Result<bool, EvalError> {
        match self {
            Goal::Expr(e) => net.eval_bool(state, e),
            Goal::InLocation(p, l) => Ok(state.locs[p.0] == *l),
            Goal::And(a, b) => Ok(a.holds(net, state)? && b.holds(net, state)?),
            Goal::Or(a, b) => Ok(a.holds(net, state)? || b.holds(net, state)?),
            Goal::Not(a) => Ok(!a.holds(net, state)?),
        }
    }

    /// The set of delays `d ≥ 0` (from the current instant, locations
    /// unchanged) at which the goal holds — goals over clocks/continuous
    /// variables can become true *during* a delay, which timed reachability
    /// must detect (goal hit mid-delay counts).
    ///
    /// # Errors
    /// Linear-solver errors for non-linear goal expressions.
    pub fn window(&self, net: &Network, state: &NetState) -> Result<IntervalSet, EvalError> {
        let rates = net.active_rates(state);
        let rate = |v: VarId| rates[v.0];
        let env = DelayEnv::new(&state.nu, &rate);
        self.window_in(&env, state)
    }

    /// Lowers the goal onto `net`'s compiled kernel for allocation-free
    /// window evaluation via [`CompiledGoal::window_into`].
    pub fn compile(&self, net: &Network) -> CompiledGoal {
        self.compile_with(net, &CompileOptions::default())
    }

    /// [`Goal::compile`] under explicit [`CompileOptions`] — the
    /// differential harnesses use [`CompileOptions::reference`] to pin the
    /// unfused predicate kernel.
    pub fn compile_with(&self, net: &Network, opts: &CompileOptions) -> CompiledGoal {
        match self {
            Goal::Expr(e) => CompiledGoal::Pred(net.compile_predicate_with(e, opts)),
            Goal::InLocation(p, l) => CompiledGoal::InLocation(*p, *l),
            Goal::And(a, b) => CompiledGoal::And(
                Box::new(a.compile_with(net, opts)),
                Box::new(b.compile_with(net, opts)),
            ),
            Goal::Or(a, b) => CompiledGoal::Or(
                Box::new(a.compile_with(net, opts)),
                Box::new(b.compile_with(net, opts)),
            ),
            Goal::Not(a) => CompiledGoal::Not(Box::new(a.compile_with(net, opts))),
        }
    }

    fn window_in(&self, env: &DelayEnv<'_>, state: &NetState) -> Result<IntervalSet, EvalError> {
        match self {
            Goal::Expr(e) => solve(e, env),
            Goal::InLocation(p, l) => {
                Ok(if state.locs[p.0] == *l { IntervalSet::all() } else { IntervalSet::empty() })
            }
            Goal::And(a, b) => Ok(a.window_in(env, state)?.intersect(&b.window_in(env, state)?)),
            Goal::Or(a, b) => Ok(a.window_in(env, state)?.union(&b.window_in(env, state)?)),
            Goal::Not(a) => Ok(a.window_in(env, state)?.complement()),
        }
    }
}

/// A timed reachability property `P(◇[0, bound] goal)` — optionally a
/// bounded **until** `P(hold U[0, bound] goal)`.
///
/// The paper's tool ships the probabilistic-existence pattern
/// (`hold = None`); bounded until is the first step of its stated future
/// work towards full CSL (§VII-A). Semantics: a path satisfies the until
/// property iff the goal holds at some `t ≤ bound` and `hold` holds at
/// every `t' < t` (at `t` itself `hold` may already be false).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedReach {
    /// The goal predicate ψ.
    pub goal: Goal,
    /// The predicate φ that must hold until the goal does (`None` = true,
    /// plain reachability).
    pub hold: Option<Goal>,
    /// The (inclusive) upper time bound `u`.
    pub bound: f64,
}

impl TimedReach {
    /// Creates a plain reachability property `P(◇[0, bound] goal)`.
    ///
    /// # Panics
    /// Panics if `bound` is negative or NaN.
    pub fn new(goal: Goal, bound: f64) -> TimedReach {
        assert!(bound >= 0.0, "time bound must be non-negative, got {bound}");
        TimedReach { goal, hold: None, bound }
    }

    /// Creates a bounded until property `P(hold U[0, bound] goal)`.
    ///
    /// # Panics
    /// Panics if `bound` is negative or NaN.
    pub fn until(hold: Goal, goal: Goal, bound: f64) -> TimedReach {
        assert!(bound >= 0.0, "time bound must be non-negative, got {bound}");
        TimedReach { goal, hold: Some(hold), bound }
    }

    /// Remaining time budget from a state (zero when exhausted).
    pub fn remaining(&self, state: &NetState) -> f64 {
        (self.bound - state.time).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock_net() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let f = b.var("flag", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("zero");
        let l1 = a.location("one");
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(x).ge(Expr::real(5.0)),
            [Effect::assign(f, Expr::bool(true))],
            l1,
        );
        b.add_automaton(a);
        b.build().unwrap()
    }

    #[test]
    fn holds_on_expression_and_location() {
        let net = clock_net();
        let s = net.initial_state().unwrap();
        let g_flag = Goal::expr(Expr::var(net.var_id("flag").unwrap()));
        assert!(!g_flag.holds(&net, &s).unwrap());
        let g_loc = Goal::in_location(&net, "p", "zero").unwrap();
        assert!(g_loc.holds(&net, &s).unwrap());
        let g_loc1 = Goal::in_location(&net, "p", "one").unwrap();
        assert!(!g_loc1.holds(&net, &s).unwrap());
        assert!(Goal::in_location(&net, "p", "nope").is_err());
        assert!(Goal::in_location(&net, "q", "zero").is_err());
    }

    #[test]
    fn boolean_combinators() {
        let net = clock_net();
        let s = net.initial_state().unwrap();
        let yes = Goal::in_location(&net, "p", "zero").unwrap();
        let no = Goal::in_location(&net, "p", "one").unwrap();
        assert!(yes.clone().or(no.clone()).holds(&net, &s).unwrap());
        assert!(!yes.and(no.clone()).holds(&net, &s).unwrap());
        assert!(no.not().holds(&net, &s).unwrap());
    }

    #[test]
    fn window_over_clock_goal() {
        let net = clock_net();
        let s = net.initial_state().unwrap();
        let x = net.var_id("x").unwrap();
        let g = Goal::expr(Expr::var(x).ge(Expr::real(3.0)));
        let w = g.window(&net, &s).unwrap();
        assert!(!w.contains(2.9) && w.contains(3.0));
        // Location atoms are delay-independent.
        let gl = Goal::in_location(&net, "p", "zero").unwrap();
        assert_eq!(gl.window(&net, &s).unwrap(), IntervalSet::all());
    }

    #[test]
    fn window_combines_sets() {
        let net = clock_net();
        let s = net.initial_state().unwrap();
        let x = net.var_id("x").unwrap();
        let a = Goal::expr(Expr::var(x).ge(Expr::real(3.0)));
        let b = Goal::expr(Expr::var(x).le(Expr::real(4.0)));
        let w = a.and(b).window(&net, &s).unwrap();
        assert!(w.contains(3.5) && !w.contains(4.5) && !w.contains(2.0));
    }

    #[test]
    fn compiled_goal_window_matches_legacy() {
        let net = clock_net();
        let mut s = net.initial_state().unwrap();
        s.time = 1.5;
        let x = net.var_id("x").unwrap();
        let a = Goal::expr(Expr::var(x).ge(Expr::real(3.0)));
        let b = Goal::expr(Expr::var(x).le(Expr::real(4.0)));
        let loc = Goal::in_location(&net, "p", "zero").unwrap();
        let goals = [
            a.clone(),
            a.clone().and(b.clone()),
            a.clone().or(b.clone()),
            a.clone().not(),
            loc.clone().and(a.or(b.not())),
            loc.not(),
        ];
        let mut step = StepScratch::new();
        let mut pool = GoalPool::new();
        let mut out = IntervalSet::empty();
        for g in &goals {
            let compiled = g.compile(&net);
            // Twice: the second pass runs on a warmed pool.
            for _ in 0..2 {
                compiled.window_into(&net, &mut step, &mut pool, &s, &mut out).unwrap();
                assert_eq!(out, g.window(&net, &s).unwrap(), "goal {g:?}");
            }
        }
    }

    #[test]
    fn remaining_budget_clamps() {
        let net = clock_net();
        let mut s = net.initial_state().unwrap();
        let p = TimedReach::new(Goal::expr(Expr::TRUE), 10.0);
        assert_eq!(p.remaining(&s), 10.0);
        s.time = 12.0;
        assert_eq!(p.remaining(&s), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bound_panics() {
        TimedReach::new(Goal::expr(Expr::TRUE), -1.0);
    }
}
