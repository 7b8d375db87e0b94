//! The discrete-event path generation engine (§III-A of the paper).
//!
//! A path alternates timed and discrete transitions. Guarded transitions
//! are scheduled by the configured [`Strategy`]; Markovian transitions race
//! against that schedule with exponentially sampled firing times; the
//! invariants bound how far time may pass. Paths end when
//!
//! * the goal holds (also *during* a delay — timed goals are checked
//!   against the exact goal window, not just at discrete instants),
//! * the property's time bound elapses,
//! * a deadlock or timelock is reached (§III-D), or
//! * the per-path step limit trips (Zeno guard).
//!
//! There is one step loop. Everything layered over it — tracing,
//! observer metrics, kernel profiling, the importance-sampling bias —
//! is a [`PathHooks`] impl the loop is monomorphized over, so the
//! production instantiation [`NoHooks`] compiles to the un-instrumented
//! loop.

use crate::error::SimError;
use crate::obs::{PathObserver, SimObserver};
use crate::property::{CompiledGoal, GoalPool, TimedReach};
use crate::strategy::{Decision, ScheduledCandidate, StepView, Strategy};
use crate::verdict::{PathOutcome, Verdict};
use slim_automata::automaton::{ActionId, ProcId, TransId};
use slim_automata::error::EvalError;
use slim_automata::interval::IntervalSet;
use slim_automata::network::GlobalTransition;
use slim_automata::prelude::{CompileOptions, NetState, Network, StepScratch, StepTables};
use slim_obs::profile::{KernelProfile, ProfileHooks};
use slim_stats::rng::{exponential_from_uniform, path_rng, StdRng};

/// Callbacks the engine loop makes while it generates paths.
///
/// A hook type is also the [`ProfileHooks`] sink of every kernel call
/// and carries the importance-sampling bias. Every callback defaults to
/// a no-op and the drivers are generic over the hook type, so hooks cost
/// nothing they do not use. Hooks never touch the RNG or the step logic:
/// a path's outcome is the same under every hook type.
///
/// Per engine step the loop calls [`Self::decision`], then — unless the
/// path ends in that step — [`Self::delay`] if time passes,
/// [`Self::fire`] if a transition fires, and [`Self::snapshot`] once the
/// step is applied. Each path ends with [`Self::path_end`], and each
/// driver call with one [`ProfileHooks::batch`] carrying the per-path
/// step counts sorted descending (a scalar call is a one-path batch).
pub trait PathHooks: ProfileHooks {
    /// Multiplier applied to every Markovian rate (importance sampling);
    /// `1` simulates the true measure. Must be positive and finite.
    #[inline]
    fn bias(&self) -> f64 {
        1.0
    }

    /// The strategy decided `decision` over the scheduled `candidates`.
    #[inline]
    fn decision(
        &mut self,
        step: u64,
        state: &NetState,
        decision: &Decision,
        candidates: &[ScheduledCandidate],
    ) {
        let _ = (step, state, decision, candidates);
    }

    /// Time is about to pass by `duration` from `state`.
    #[inline]
    fn delay(&mut self, step: u64, state: &NetState, duration: f64) {
        let _ = (step, state, duration);
    }

    /// The transition with `action` and `parts` is about to fire in
    /// `state`. `race` is the winner's rate and the total exit rate of a
    /// Markovian firing, `None` for a guarded one.
    #[inline]
    fn fire(
        &mut self,
        step: u64,
        state: &NetState,
        action: ActionId,
        parts: &[(ProcId, TransId)],
        race: Option<(f64, f64)>,
    ) {
        let _ = (step, state, action, parts, race);
    }

    /// The step's delay or firing has been applied, leaving `state`.
    #[inline]
    fn snapshot(&mut self, step: u64, state: &NetState) {
        let _ = (step, state);
    }

    /// The path ended with `result`. `weight` is its likelihood ratio
    /// (true over biased measure), exactly `1` under bias `1`.
    #[inline]
    fn path_end(&mut self, result: &Result<PathOutcome, SimError>, weight: f64) {
        let _ = (result, weight);
    }
}

/// The production instantiation: no callbacks, no profiling, no bias.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl ProfileHooks for NoHooks {
    const ENABLED: bool = false;
}

impl PathHooks for NoHooks {}

/// Kernel profiling: every kernel counter — opcodes, digrams, guard
/// outcomes, firings, location occupancy, delay solves, lane use — is
/// recorded into the profile.
impl PathHooks for KernelProfile {}

/// Importance sampling: every Markovian rate is multiplied by the bias,
/// and each path's likelihood ratio (true measure over biased measure)
/// is recorded in path order. With bias `> 1` rare fault-driven events
/// become frequent; the weighted indicator `w·1[success]` remains an
/// unbiased estimate of the true probability (see `rare_event`).
#[derive(Debug, Clone)]
pub struct ImportanceBias {
    bias: f64,
    weights: Vec<f64>,
}

impl ImportanceBias {
    /// A hook simulating under rate multiplier `bias`, which must be
    /// positive and finite (`analyze_rare` validates its input).
    pub fn new(bias: f64) -> ImportanceBias {
        ImportanceBias { bias, weights: Vec::new() }
    }

    /// The likelihood ratios of the paths generated since the last
    /// [`Self::clear`], in generation order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Forgets the recorded weights (keeping their buffer).
    pub fn clear(&mut self) {
        self.weights.clear();
    }
}

impl ProfileHooks for ImportanceBias {
    const ENABLED: bool = false;
}

impl PathHooks for ImportanceBias {
    fn bias(&self) -> f64 {
        self.bias
    }

    fn path_end(&mut self, _result: &Result<PathOutcome, SimError>, weight: f64) {
        self.weights.push(weight);
    }
}

/// Generates sample paths for one (network, property) pair.
///
/// Construction compiles the network into [`StepTables`] and the property
/// into [`CompiledGoal`]s once; every generated path then runs on the
/// allocation-free stepping kernel. Reusing a [`SimScratch`] (or a
/// [`BatchScratch`]) across calls makes steady-state path generation
/// heap-allocation free.
#[derive(Debug, Clone)]
pub struct PathGenerator<'a> {
    net: &'a Network,
    property: &'a TimedReach,
    max_steps: u64,
    tables: StepTables,
    goal: CompiledGoal,
    hold: Option<CompiledGoal>,
    initial: Result<NetState, EvalError>,
    /// Margin past the horizon for truncating unbounded enabling
    /// windows: any delay beyond the remaining bound is
    /// verdict-equivalent, so the exact cap does not affect outcomes
    /// (see docs/semantics.md).
    margin: f64,
}

/// Reusable per-worker workspace for the engine loop: the network-level
/// [`StepScratch`] plus every engine-owned buffer (goal/invariant windows,
/// scheduled candidates, temporaries). Allocated once, recycled across
/// paths — after warm-up, generating a path performs no heap allocation.
#[derive(Debug)]
pub struct SimScratch {
    step: StepScratch,
    pool: GoalPool,
    state: NetState,
    goal_win: IntervalSet,
    viol_win: IntervalSet,
    hold_win: IntervalSet,
    inv_window: IntervalSet,
    window: IntervalSet,
    schedulable: IntervalSet,
    capped: IntervalSet,
    tmp: IntervalSet,
    tmp2: IntervalSet,
    sched: Vec<ScheduledCandidate>,
    n_sched: usize,
}

impl SimScratch {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> SimScratch {
        SimScratch {
            step: StepScratch::new(),
            pool: GoalPool::new(),
            state: NetState::default(),
            goal_win: IntervalSet::empty(),
            viol_win: IntervalSet::empty(),
            hold_win: IntervalSet::empty(),
            inv_window: IntervalSet::empty(),
            window: IntervalSet::empty(),
            schedulable: IntervalSet::empty(),
            capped: IntervalSet::empty(),
            tmp: IntervalSet::empty(),
            tmp2: IntervalSet::empty(),
            sched: Vec::new(),
            n_sched: 0,
        }
    }
}

impl Default for SimScratch {
    fn default() -> SimScratch {
        SimScratch::new()
    }
}

/// Acquires the next scheduled-candidate slot, reusing retired buffers
/// (their `parts` and `window` capacity survives across steps).
fn next_sched<'a>(
    pool: &'a mut Vec<ScheduledCandidate>,
    used: &mut usize,
) -> &'a mut ScheduledCandidate {
    if *used == pool.len() {
        pool.push(ScheduledCandidate {
            transition: GlobalTransition { action: ActionId::TAU, parts: Vec::new() },
            window: IntervalSet::empty(),
        });
    }
    let slot = &mut pool[*used];
    *used += 1;
    slot
}

/// One path in flight: its state, the engine steps taken so far and the
/// log-likelihood ratio accumulated under the hooks' bias.
struct Walk {
    state: NetState,
    steps: u64,
    log_weight: f64,
}

/// Which transition a resolved step fires.
enum FireSrc {
    /// Index into the scheduled-candidate pool.
    Guarded(usize),
    /// The winning Markovian transition, with its own rate and the
    /// total race exit rate.
    Markov((ProcId, TransId), (f64, f64)),
}

/// How a step resolved after racing the strategy's schedule against the
/// Markovian transitions.
enum Resolved {
    Fire { delay: f64, src: FireSrc },
    Wait { delay: f64 },
    Lock { verdict: Verdict, horizon: f64 },
}

impl<'a> PathGenerator<'a> {
    /// Creates a generator, compiling the network and property onto the
    /// allocation-free stepping kernel.
    pub fn new(net: &'a Network, property: &'a TimedReach, max_steps: u64) -> Self {
        Self::with_compile_options(net, property, max_steps, &CompileOptions::default())
    }

    /// [`PathGenerator::new`] under explicit [`CompileOptions`]: the
    /// kernel-equivalence harnesses pin [`CompileOptions::reference`] to
    /// get the unfused, unspecialized kernel for differential comparison.
    pub fn with_compile_options(
        net: &'a Network,
        property: &'a TimedReach,
        max_steps: u64,
        opts: &CompileOptions,
    ) -> Self {
        let tables = net.compile_with(opts);
        let goal = property.goal.compile_with(net, opts);
        let hold = property.hold.as_ref().map(|h| h.compile_with(net, opts));
        let initial = net.initial_state();
        let margin = (0.1 * property.bound).max(1.0);
        PathGenerator { net, property, max_steps, tables, goal, hold, initial, margin }
    }

    /// The compiled step tables driving this generator.
    pub fn tables(&self) -> &StepTables {
        &self.tables
    }

    /// The network under simulation.
    pub fn network(&self) -> &Network {
        self.net
    }

    /// The property being checked.
    pub fn property(&self) -> &TimedReach {
        self.property
    }

    /// Generates one path on a fresh scratch, without hooks.
    ///
    /// # Errors
    /// Evaluation errors (invariant already violated, non-linear guards)
    /// and input-strategy errors.
    pub fn generate(
        &self,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
    ) -> Result<PathOutcome, SimError> {
        self.generate_with(&mut SimScratch::new(), strategy, rng, &mut NoHooks)
    }

    /// Generates one path on a caller-supplied scratch, driving `hooks`
    /// (see [`PathHooks`]). Reusing the same scratch across paths keeps
    /// the loop allocation-free; the outcome does not depend on the hook
    /// type.
    ///
    /// # Errors
    /// See [`Self::generate`].
    pub fn generate_with<H: PathHooks>(
        &self,
        scratch: &mut SimScratch,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        hooks: &mut H,
    ) -> Result<PathOutcome, SimError> {
        let (result, steps) = self.run_path(scratch, strategy, rng, hooks);
        hooks.batch(&[steps]);
        result
    }

    /// Generates `count` paths with indices `start`, `start + stride`,
    /// `start + 2·stride`, … on one scratch, clearing `out` and pushing
    /// one result per path in index order, driving `hooks` throughout.
    ///
    /// Lane `j` consumes exactly the RNG stream `path_rng(seed, start +
    /// stride·j)`, so its outcome is bit-identical to
    /// [`Self::generate_with`] on that stream, independent of the lane
    /// count. The contract assumes a memoryless `strategy` (all built-in
    /// [`crate::strategy::StrategyKind`]s are). A lane hitting a
    /// simulation error records `Err` in its slot without disturbing the
    /// other lanes.
    ///
    /// # Panics
    /// Panics when `stride == 0` while `count > 1` (the lanes would alias
    /// one RNG stream).
    #[allow(clippy::too_many_arguments)]
    pub fn generate_batch_hooked<H: PathHooks>(
        &self,
        scratch: &mut BatchScratch,
        strategy: &mut dyn Strategy,
        seed: u64,
        start: u64,
        stride: u64,
        count: usize,
        hooks: &mut H,
        out: &mut Vec<Result<PathOutcome, SimError>>,
    ) {
        assert!(stride > 0 || count <= 1, "stride must be positive for multi-lane batches");
        out.clear();
        scratch.lane_steps.clear();
        // Each lane runs to completion in index order. Lanes consume
        // disjoint RNG streams and never read each other's state, so the
        // order is unobservable — and completion order keeps the lane's
        // state hot in cache and the interpreter's branch history
        // coherent.
        for j in 0..count as u64 {
            let mut rng = path_rng(seed, start + stride * j);
            let (result, steps) = self.run_path(&mut scratch.sim, strategy, &mut rng, hooks);
            out.push(result);
            scratch.lane_steps.push(steps);
        }
        if count > 0 {
            scratch.lane_steps.sort_unstable_by(|a, b| b.cmp(a));
            hooks.batch(&scratch.lane_steps);
        }
    }

    /// [`Self::generate_batch_hooked`] with the observer as the only
    /// hook. With `obs` present, per-path metrics are flushed for every
    /// successful lane, and the batch's wall time is attributed evenly
    /// across its lanes.
    ///
    /// # Panics
    /// Panics when `stride == 0` while `count > 1`.
    #[allow(clippy::too_many_arguments)]
    pub fn generate_batch_with(
        &self,
        scratch: &mut BatchScratch,
        strategy: &mut dyn Strategy,
        seed: u64,
        start: u64,
        stride: u64,
        count: usize,
        obs: Option<&SimObserver>,
        out: &mut Vec<Result<PathOutcome, SimError>>,
    ) {
        let Some(obs) = obs else {
            self.generate_batch_hooked(
                scratch,
                strategy,
                seed,
                start,
                stride,
                count,
                &mut NoHooks,
                out,
            );
            return;
        };
        let mut hooks = PathObserver::new(obs);
        self.generate_batch_hooked(scratch, strategy, seed, start, stride, count, &mut hooks, out);
    }

    /// Runs one path to its end, returning its result and the number of
    /// engine steps taken.
    fn run_path<H: PathHooks>(
        &self,
        s: &mut SimScratch,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        hooks: &mut H,
    ) -> (Result<PathOutcome, SimError>, u64) {
        // Lend the scratch-owned state buffer to the path, which the step
        // function borrows separately from the scratch; the buffer (with
        // its grown capacity) is handed back before returning.
        let state = std::mem::take(&mut s.state);
        let mut walk = Walk { state, steps: 0, log_weight: 0.0 };
        let result = match &self.initial {
            Ok(init) => {
                walk.state.copy_from(init);
                self.net.stepping_begin(&self.tables, &mut s.step, &walk.state);
                loop {
                    if let Some(end) = self.step(s, &mut walk, strategy, rng, hooks).transpose() {
                        break end;
                    }
                }
            }
            Err(e) => Err(SimError::Eval(e.clone())),
        };
        hooks.path_end(&result, walk.log_weight.exp());
        s.state = walk.state;
        (result, walk.steps)
    }

    /// Advances one path by **one engine step** on the compiled kernel's
    /// stepping sequence (begun per path in [`Self::run_path`]): brings
    /// the flow rates up to date, computes the goal/hold windows and
    /// the candidate sets against that shared rate buffer, races the
    /// strategy's schedule against the Markovian transitions, and applies
    /// the resolved delay/firing to the path's state.
    ///
    /// Returns `Ok(None)` while the path continues and `Ok(Some(..))`
    /// when it ends.
    fn step<H: PathHooks>(
        &self,
        s: &mut SimScratch,
        walk: &mut Walk,
        strategy: &mut dyn Strategy,
        rng: &mut StdRng,
        hooks: &mut H,
    ) -> Result<Option<PathOutcome>, SimError> {
        let state = &mut walk.state;
        if walk.steps >= self.max_steps {
            return Ok(Some(PathOutcome {
                verdict: Verdict::StepLimit,
                steps: walk.steps,
                end_time: state.time,
            }));
        }
        walk.steps += 1;
        let steps_now = walk.steps;

        // Location occupancy: one tick per (process, current location)
        // per engine step. The `ENABLED` guard keeps the unprofiled
        // instantiation free of the per-process loop entirely.
        if H::ENABLED {
            for (p, loc) in state.locs.iter().enumerate() {
                hooks.loc_step(p, loc.0);
            }
        }

        // One rate buffer serves the whole step: rates depend only on the
        // locations, which no delay changes, so every `*_rated_prof` call
        // below reuses it bit-identically to a per-call refresh. The
        // buffer is rebuilt only when the last firing entered or left a
        // rate-declaring location (see `Network::stepping_refresh`).
        self.net.stepping_refresh(&self.tables, &mut s.step, state);

        let remaining = self.property.remaining(state);
        self.goal
            .window_rated_prof(self.net, &mut s.step, &mut s.pool, state, &mut s.goal_win, hooks)
            .map_err(SimError::Eval)?;
        // For bounded until: the set of delays at which `hold` is
        // violated (empty for plain reachability).
        match &self.hold {
            None => s.viol_win.clear(),
            Some(h) => {
                h.window_rated_prof(
                    self.net,
                    &mut s.step,
                    &mut s.pool,
                    state,
                    &mut s.hold_win,
                    hooks,
                )
                .map_err(SimError::Eval)?;
                s.hold_win.complement_into(&mut s.viol_win);
            }
        }
        if s.goal_win.contains(0.0) {
            return Ok(Some(PathOutcome {
                verdict: Verdict::Satisfied,
                steps: steps_now - 1,
                end_time: state.time,
            }));
        }
        if s.viol_win.contains(0.0) {
            return Ok(Some(PathOutcome {
                verdict: Verdict::HoldViolated,
                steps: steps_now - 1,
                end_time: state.time,
            }));
        }
        if remaining <= 0.0 {
            return Ok(Some(PathOutcome {
                verdict: Verdict::TimeBoundExceeded,
                steps: steps_now - 1,
                end_time: state.time,
            }));
        }

        self.net
            .delay_window_rated_prof(&self.tables, &mut s.step, state, &mut s.inv_window, hooks)
            .map_err(SimError::Eval)?;
        let cap = remaining + self.margin;

        self.net
            .guarded_candidates_rated_prof(&self.tables, &mut s.step, state, hooks)
            .map_err(SimError::Eval)?;
        // Urgency (AADL-eager transitions): time may not pass beyond
        // the first instant an urgent candidate becomes enabled.
        let mut urgency_cutoff = f64::INFINITY;
        for c in s.step.candidates() {
            if c.urgent {
                c.window.intersect_into(&s.inv_window, &mut s.tmp);
                if let Some(inf) = s.tmp.inf() {
                    urgency_cutoff = urgency_cutoff.min(inf);
                }
            }
        }
        if urgency_cutoff.is_finite() {
            s.inv_window.truncate_into(urgency_cutoff, &mut s.window);
        } else {
            s.window.copy_from(&s.inv_window);
        }

        // Guarded candidates: windows ∩ effective delay window,
        // infinite tails capped at the horizon. Slots are recycled
        // from the pool; only `..n_sched` is live this step.
        s.n_sched = 0;
        for c in s.step.candidates() {
            c.window.intersect_into(&s.window, &mut s.tmp);
            cap_infinite_into(&s.tmp, cap, &mut s.tmp2);
            if !s.tmp2.is_empty() {
                let slot = next_sched(&mut s.sched, &mut s.n_sched);
                slot.transition.action = c.action;
                slot.transition.parts.clear();
                slot.transition.parts.extend_from_slice(&c.parts);
                slot.window.copy_from(&s.tmp2);
            }
        }
        self.net.markovian_candidates_rated(&self.tables, &mut s.step, state);

        // Precomputed strategy views, only those the strategy reads: the
        // schedulable union (left fold in candidate order, as
        // Progressive computed it) and the horizon-capped delay window
        // (Local/MaxTime).
        let views = strategy.views();
        if views.schedulable {
            s.schedulable.clear();
            for i in 0..s.n_sched {
                s.schedulable.union_into(&s.sched[i].window, &mut s.tmp);
                std::mem::swap(&mut s.schedulable, &mut s.tmp);
            }
        }
        if views.capped {
            cap_infinite_into(&s.window, cap, &mut s.capped);
        }

        let decision = strategy.decide(
            &StepView {
                net: self.net,
                state,
                window: &s.window,
                guarded: &s.sched[..s.n_sched],
                cap,
                schedulable: views.schedulable.then_some(&s.schedulable),
                capped: views.capped.then_some(&s.capped),
            },
            rng,
        )?;
        hooks.decision(steps_now, state, &decision, &s.sched[..s.n_sched]);

        // Markovian race: total-rate exponential + categorical winner.
        // Under importance sampling all rates are scaled by `bias`
        // (the winner distribution is unchanged — scaling is uniform).
        let bias = hooks.bias();
        let m_sample: Option<(f64, (ProcId, TransId), f64, f64)> = {
            let markovian = s.step.markovian();
            if markovian.is_empty() {
                None
            } else {
                let total: f64 = markovian.iter().map(|&(_, _, r)| r).sum();
                let t = exponential_from_uniform(rng.gen::<f64>(), total * bias);
                let mut pick = rng.gen::<f64>() * total;
                let (lp, lt, lr) = markovian[markovian.len() - 1];
                let mut winner = ((lp, lt), lr);
                for &(p, t_id, r) in markovian {
                    if pick < r {
                        winner = ((p, t_id), r);
                        break;
                    }
                    pick -= r;
                }
                Some((t, winner.0, total, winner.1))
            }
        };

        // Likelihood-ratio bookkeeping for importance sampling:
        // a Markovian firing at t contributes (1/bias)·e^{(bias−1)Λt};
        // observing *no* Markovian event up to a delay d (censoring)
        // contributes e^{(bias−1)Λd}.
        let lr_fire = |t: f64, total: f64| -bias.ln() + (bias - 1.0) * total * t;
        let lr_censor = |d: f64, total: f64| (bias - 1.0) * total * d;

        let resolved = match decision {
            Decision::Abort => return Err(SimError::InputAborted),
            Decision::Fire { delay, candidate } => match m_sample {
                Some((t, mt, total, rate)) if t < delay => {
                    walk.log_weight += lr_fire(t, total);
                    Resolved::Fire { delay: t, src: FireSrc::Markov(mt, (rate, total)) }
                }
                m => {
                    if let Some((_, _, total, _)) = m {
                        walk.log_weight += lr_censor(delay, total);
                    }
                    Resolved::Fire { delay, src: FireSrc::Guarded(candidate) }
                }
            },
            Decision::Wait { delay } => match m_sample {
                Some((t, mt, total, rate)) if t < delay => {
                    walk.log_weight += lr_fire(t, total);
                    Resolved::Fire { delay: t, src: FireSrc::Markov(mt, (rate, total)) }
                }
                m => {
                    if let Some((_, _, total, _)) = m {
                        walk.log_weight += lr_censor(delay, total);
                    }
                    Resolved::Wait { delay }
                }
            },
            Decision::Stuck => match m_sample {
                Some((t, mt, total, rate)) if s.window.contains(t) => {
                    walk.log_weight += lr_fire(t, total);
                    Resolved::Fire { delay: t, src: FireSrc::Markov(mt, (rate, total)) }
                }
                Some((_, _, total, _)) => {
                    let horizon = s.window.sup().unwrap_or(0.0);
                    walk.log_weight += lr_censor(horizon, total);
                    Resolved::Lock { verdict: Verdict::Timelock, horizon }
                }
                None => {
                    let bounded = s.window.sup().is_none_or(f64::is_finite);
                    if bounded {
                        Resolved::Lock {
                            verdict: Verdict::Timelock,
                            horizon: s.window.sup().unwrap_or(0.0),
                        }
                    } else {
                        Resolved::Lock { verdict: Verdict::Deadlock, horizon: remaining }
                    }
                }
            },
        };

        match resolved {
            Resolved::Fire { delay, src } => {
                match scan_delay(&s.goal_win, &s.viol_win, delay.min(remaining), &mut s.tmp) {
                    Scan::Goal(hit) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::Satisfied,
                            steps: steps_now,
                            end_time: state.time + hit,
                        }))
                    }
                    Scan::Violated(at) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::HoldViolated,
                            steps: steps_now,
                            end_time: state.time + at,
                        }))
                    }
                    Scan::Clear => {}
                }
                if delay > remaining {
                    return Ok(Some(PathOutcome {
                        verdict: Verdict::TimeBoundExceeded,
                        steps: steps_now,
                        end_time: self.property.bound,
                    }));
                }
                if delay > 0.0 {
                    hooks.delay(steps_now, state, delay);
                    self.net
                        .advance_rated_prof(
                            &self.tables,
                            &mut s.step,
                            state,
                            delay,
                            &s.inv_window,
                            hooks,
                        )
                        .map_err(SimError::Eval)?;
                }
                let markov_parts;
                let (action, parts, race) = match src {
                    FireSrc::Guarded(i) => {
                        let t = &s.sched[i].transition;
                        (t.action, t.parts.as_slice(), None)
                    }
                    FireSrc::Markov(part, race) => {
                        markov_parts = [part];
                        (ActionId::TAU, markov_parts.as_slice(), Some(race))
                    }
                };
                hooks.fire(steps_now, state, action, parts, race);
                self.net
                    .apply_mut_prof(&self.tables, &mut s.step, state, parts, hooks)
                    .map_err(SimError::Eval)?;
                hooks.snapshot(steps_now, state);
            }
            Resolved::Wait { delay } => {
                match scan_delay(&s.goal_win, &s.viol_win, delay.min(remaining), &mut s.tmp) {
                    Scan::Goal(hit) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::Satisfied,
                            steps: steps_now,
                            end_time: state.time + hit,
                        }))
                    }
                    Scan::Violated(at) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::HoldViolated,
                            steps: steps_now,
                            end_time: state.time + at,
                        }))
                    }
                    Scan::Clear => {}
                }
                if delay > remaining {
                    return Ok(Some(PathOutcome {
                        verdict: Verdict::TimeBoundExceeded,
                        steps: steps_now,
                        end_time: self.property.bound,
                    }));
                }
                hooks.delay(steps_now, state, delay);
                self.net
                    .advance_rated_prof(
                        &self.tables,
                        &mut s.step,
                        state,
                        delay,
                        &s.inv_window,
                        hooks,
                    )
                    .map_err(SimError::Eval)?;
                hooks.snapshot(steps_now, state);
            }
            Resolved::Lock { verdict, horizon } => {
                match scan_delay(&s.goal_win, &s.viol_win, horizon.min(remaining), &mut s.tmp) {
                    Scan::Goal(hit) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::Satisfied,
                            steps: steps_now,
                            end_time: state.time + hit,
                        }))
                    }
                    Scan::Violated(at) => {
                        return Ok(Some(PathOutcome {
                            verdict: Verdict::HoldViolated,
                            steps: steps_now,
                            end_time: state.time + at,
                        }))
                    }
                    Scan::Clear => {}
                }
                return Ok(Some(PathOutcome { verdict, steps: steps_now, end_time: state.time }));
            }
        }
        Ok(None)
    }
}

/// Reusable workspace for [`PathGenerator::generate_batch_hooked`]: one
/// shared [`SimScratch`] (per-step windows, candidate pools and solver
/// buffers are recomputed each step, so every lane reuses them) plus the
/// per-lane step counts of the current batch. Allocated once and
/// recycled across batches; after warm-up a batch performs no heap
/// allocation.
#[derive(Debug)]
pub struct BatchScratch {
    sim: SimScratch,
    lane_steps: Vec<u64>,
}

impl BatchScratch {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> BatchScratch {
        BatchScratch { sim: SimScratch::new(), lane_steps: Vec::new() }
    }

    /// The underlying scalar scratch, for running single paths through
    /// [`PathGenerator::generate_with`] on the batch's buffers.
    pub fn sim_mut(&mut self) -> &mut SimScratch {
        &mut self.sim
    }
}

impl Default for BatchScratch {
    fn default() -> BatchScratch {
        BatchScratch::new()
    }
}

/// What happens first along a delay of length `up_to`.
enum Scan {
    /// The goal is hit (first) at this delay.
    Goal(f64),
    /// The hold predicate is violated (strictly first) at this delay.
    Violated(f64),
    /// Neither occurs within the scanned prefix.
    Clear,
}

/// Scans `[0, up_to]` for the first goal hit and the first hold
/// violation; a tie counts as satisfaction (at the goal instant `hold`
/// need not hold any more — standard until semantics).
fn scan_delay(
    goal_win: &IntervalSet,
    viol_win: &IntervalSet,
    up_to: f64,
    tmp: &mut IntervalSet,
) -> Scan {
    goal_win.truncate_into(up_to, tmp);
    let goal_at = tmp.inf();
    viol_win.truncate_into(up_to, tmp);
    let viol_at = tmp.inf();
    match (goal_at, viol_at) {
        (Some(g), Some(v)) if g <= v => Scan::Goal(g),
        (Some(g), None) => Scan::Goal(g),
        (_, Some(v)) => Scan::Violated(v),
        (None, None) => Scan::Clear,
    }
}

/// Replaces an infinite tail by a bounded one ending at `cap`,
/// writing the result into `out` without allocating.
fn cap_infinite_into(set: &IntervalSet, cap: f64, out: &mut IntervalSet) {
    match set.sup() {
        Some(s) if s.is_finite() => out.copy_from(set),
        Some(_) => set.truncate_into(cap.max(set.inf().unwrap_or(0.0)), out),
        None => out.clear(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::Goal;
    use crate::strategy::{Asap, MaxTime, Progressive, StrategyKind};
    use crate::trace::{MemorySink, PathTracer, TraceEvent};
    use slim_automata::prelude::*;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Clock-driven one-shot: fires between 2 and 4, sets `done`.
    fn window_net() -> (Network, Expr) {
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let done = b.var("done", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location_with("wait", Expr::var(x).le(Expr::real(4.0)), []);
        let l1 = a.location("done");
        let g = Expr::var(x).ge(Expr::real(2.0)).and(Expr::var(x).le(Expr::real(4.0)));
        a.guarded(l0, ActionId::TAU, g, [Effect::assign(done, Expr::bool(true))], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Expr::var(net.var_id("done").unwrap());
        (net, goal)
    }

    #[test]
    fn asap_hits_earliest_instant() {
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((out.end_time - 2.0).abs() < 1e-9, "end {}", out.end_time);
    }

    #[test]
    fn maxtime_hits_boundary_instant() {
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut MaxTime, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((out.end_time - 4.0).abs() < 1e-9, "end {}", out.end_time);
    }

    #[test]
    fn progressive_hits_inside_window() {
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        for seed in 0..20 {
            let out = gen.generate(&mut Progressive, &mut rng(seed)).unwrap();
            assert_eq!(out.verdict, Verdict::Satisfied);
            assert!((2.0 - 1e-9..=4.0 + 1e-9).contains(&out.end_time), "end {}", out.end_time);
        }
    }

    #[test]
    fn bound_too_small_fails() {
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 1.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::TimeBoundExceeded);
    }

    #[test]
    fn goal_at_exact_bound_satisfied() {
        let (net, goal) = window_net();
        // Goal becomes reachable exactly at t = 2 with bound 2 (inclusive).
        let prop = TimedReach::new(Goal::expr(goal), 2.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
    }

    #[test]
    fn timed_goal_detected_mid_delay() {
        // Goal is a pure clock condition hit during a long delay, with no
        // discrete transition at that instant.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location_with("only", Expr::var(x).le(Expr::real(100.0)), []);
        let _ = l0;
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(net.var_id("x").unwrap()).ge(Expr::real(7.0)));
        let prop = TimedReach::new(goal, 50.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        // MaxTime would delay to 100 — the goal is hit at 7 on the way.
        let out = gen.generate(&mut MaxTime, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((out.end_time - 7.0).abs() < 1e-9, "end {}", out.end_time);
    }

    #[test]
    fn deadlock_classified() {
        // Single location, no transitions, no invariant: time diverges.
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("p");
        a.location("sink");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::FALSE), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Deadlock);
        assert!(!out.verdict.is_success());
    }

    #[test]
    fn timelock_classified() {
        // Invariant x <= 3 but the only transition needs x >= 5.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location_with("trap", Expr::var(x).le(Expr::real(3.0)), []);
        let l1 = a.location("free");
        a.guarded(l0, ActionId::TAU, Expr::var(x).ge(Expr::real(5.0)), [], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::FALSE), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Timelock);
    }

    #[test]
    fn goal_during_lock_window_still_satisfied() {
        // Timelock at x = 3, but the goal (x >= 2) is hit on the way.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        a.location_with("trap", Expr::var(x).le(Expr::real(3.0)), []);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(net.var_id("x").unwrap()).ge(Expr::real(2.0)));
        let prop = TimedReach::new(goal, 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((out.end_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn markovian_transition_fires() {
        // ok --(λ=2)--> failed; goal = failed location.
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("err");
        let ok = a.location("ok");
        let failed = a.location("failed");
        a.markovian(ok, 2.0, [], failed);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "err", "failed").unwrap();
        let prop = TimedReach::new(goal, 100.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let mut times = Vec::new();
        for seed in 0..200 {
            let out = gen.generate(&mut Asap, &mut rng(seed)).unwrap();
            assert_eq!(out.verdict, Verdict::Satisfied);
            times.push(out.end_time);
        }
        let mean: f64 = times.iter().sum::<f64>() / times.len() as f64;
        assert!((mean - 0.5).abs() < 0.12, "mean exp delay {mean} (expect 1/λ = 0.5)");
    }

    #[test]
    fn markovian_race_preempts_guarded_schedule() {
        // Guarded transition at exactly x = 10 vs a fast fault (λ = 10):
        // the fault almost always wins.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut p = AutomatonBuilder::new("worker");
        let w0 = p.location("w0");
        let w1 = p.location("w1");
        p.guarded(w0, ActionId::TAU, Expr::var(x).ge(Expr::real(10.0)), [], w1);
        b.add_automaton(p);
        let mut e = AutomatonBuilder::new("fault");
        let ok = e.location("ok");
        let dead = e.location("dead");
        e.markovian(ok, 10.0, [], dead);
        b.add_automaton(e);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "fault", "dead").unwrap();
        let prop = TimedReach::new(goal, 100.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let mut fault_first = 0;
        for seed in 0..100 {
            let out = gen.generate(&mut Asap, &mut rng(seed)).unwrap();
            if out.verdict == Verdict::Satisfied && out.end_time < 10.0 {
                fault_first += 1;
            }
        }
        assert!(fault_first >= 95, "fault won only {fault_first}/100 races");
    }

    #[test]
    fn step_limit_trips_on_zeno() {
        // Self-loop always enabled at delay 0 (ASAP fires it forever).
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("zeno");
        let l0 = a.location("l");
        a.guarded(l0, ActionId::TAU, Expr::TRUE, [], l0);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::FALSE), 10.0);
        let gen = PathGenerator::new(&net, &prop, 50);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::StepLimit);
        assert_eq!(out.steps, 50);
    }

    #[test]
    fn trace_records_structured_events() {
        let (net, goal) = window_net();
        // Use a goal that requires the discrete transition to fire.
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let mut sink = MemorySink::default();
        let out = {
            let mut tracer = PathTracer::new(&net, &mut sink);
            gen.generate_with(&mut SimScratch::new(), &mut Asap, &mut rng(1), &mut tracer).unwrap()
        };
        assert_eq!(out.verdict, Verdict::Satisfied);
        // Goal is hit exactly when firing; the trace contains the delay.
        assert!(sink.events.iter().any(
            |e| matches!(e, TraceEvent::Delay { duration, .. } if (*duration - 2.0).abs() < 1e-9)
        ));
        // The strategy's decision is recorded with its candidate set.
        assert!(sink.events.iter().any(|e| matches!(
            e,
            TraceEvent::Decision { kind, candidates, chosen: Some(0), .. }
                if kind == "fire" && candidates.len() == 1
        )));
        // Snapshots carry the post-step valuation.
        assert!(sink
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Snapshot { locations, .. } if !locations.is_empty())));
        // The final event is the verdict.
        match sink.events.last().unwrap() {
            TraceEvent::Verdict { verdict, steps, .. } => {
                assert_eq!(verdict, "satisfied");
                assert_eq!(*steps, out.steps);
            }
            other => panic!("expected verdict last, got {other}"),
        }
    }

    #[test]
    fn until_hold_violation_fails_path() {
        // Clock model: goal at x >= 5, hold requires x <= 3 — the hold is
        // violated (strictly) before the goal can be reached.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        a.location("only");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(x).ge(Expr::real(5.0)));
        let hold = Goal::expr(Expr::var(x).le(Expr::real(3.0)));
        let prop = TimedReach::until(hold, goal, 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::HoldViolated);
        assert!((out.end_time - 3.0).abs() < 1e-9, "violated at {}", out.end_time);
    }

    #[test]
    fn until_goal_before_violation_succeeds() {
        // Goal at x >= 2, hold until x <= 4: goal wins.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        a.location("only");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(x).ge(Expr::real(2.0)));
        let hold = Goal::expr(Expr::var(x).le(Expr::real(4.0)));
        let prop = TimedReach::until(hold, goal, 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
        assert!((out.end_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn until_tie_counts_as_satisfaction() {
        // Goal and violation at the same instant x = 2: satisfied.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        a.location("only");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(x).ge(Expr::real(2.0)));
        let hold = Goal::expr(Expr::var(x).lt(Expr::real(2.0)));
        let prop = TimedReach::until(hold, goal, 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(1)).unwrap();
        assert_eq!(out.verdict, Verdict::Satisfied);
    }

    #[test]
    fn until_hold_violated_by_discrete_effect() {
        // A Markovian fault flips `ok` to false before the (late) goal.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let ok = b.var("ok", VarType::Bool, Value::Bool(true));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("up");
        let l1 = a.location("down");
        a.markovian(l0, 100.0, [Effect::assign(ok, Expr::bool(false))], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::expr(Expr::var(x).ge(Expr::real(50.0)));
        let hold = Goal::expr(Expr::var(ok));
        let prop = TimedReach::until(hold, goal, 100.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let out = gen.generate(&mut Asap, &mut rng(7)).unwrap();
        assert_eq!(out.verdict, Verdict::HoldViolated);
        assert!(out.end_time < 1.0, "fault should hit quickly, got {}", out.end_time);
    }

    #[test]
    fn urgent_transition_forces_immediate_firing() {
        // An urgent always-enabled transition: even MaxTime must fire it
        // at delay 0 rather than drifting to the horizon.
        let mut b = NetworkBuilder::new();
        let hit = b.var("hit", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.guarded_urgent(
            l0,
            ActionId::TAU,
            Expr::TRUE,
            [Effect::assign(hit, Expr::bool(true))],
            l1,
        );
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::var(hit)), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        for kind in StrategyKind::ALL {
            let out = gen.generate(kind.instantiate().as_mut(), &mut rng(3)).unwrap();
            assert_eq!(out.verdict, Verdict::Satisfied, "{kind}");
            assert_eq!(out.end_time, 0.0, "{kind} delayed an urgent transition");
        }
    }

    #[test]
    fn urgent_cutoff_bounds_other_candidates() {
        // A non-urgent transition enabled from 1.0 and an urgent one
        // enabled from 2.0: no strategy may fire the non-urgent one later
        // than 2.0.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let late = b.var("late", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(x).ge(Expr::real(1.0)),
            [Effect::assign(late, Expr::var(x).gt(Expr::real(2.0)))],
            l1,
        );
        let mut w = AutomatonBuilder::new("watchdog");
        let w0 = w.location("armed");
        let w1 = w.location("tripped");
        w.guarded_urgent(w0, ActionId::TAU, Expr::var(x).ge(Expr::real(2.0)), [], w1);
        b.add_automaton(a);
        b.add_automaton(w);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "p", "l1").unwrap();
        let prop = TimedReach::new(goal, 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        for kind in StrategyKind::ALL {
            for seed in 0..10 {
                let mut r = rng(seed);
                let mut strategy = kind.instantiate();
                let mut sink = MemorySink::default();
                {
                    let mut tracer = PathTracer::new(&net, &mut sink);
                    let mut scratch = SimScratch::new();
                    gen.generate_with(&mut scratch, strategy.as_mut(), &mut r, &mut tracer)
                        .unwrap();
                }
                // Until the urgent watchdog has fired, time must not pass
                // its 2.0 enabling instant — so the FIRST discrete event
                // of every path happens no later than 2.0.
                let first_fire_at = sink
                    .events
                    .iter()
                    .find_map(|e| match e {
                        TraceEvent::Fire { at, .. } => Some(*at),
                        _ => None,
                    })
                    .expect("some transition fires");
                assert!(
                    first_fire_at <= 2.0 + 1e-9,
                    "{kind}/{seed}: first event at {first_fire_at} past the urgency cutoff"
                );
            }
        }
    }

    #[test]
    fn seeded_runs_reproduce() {
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        for kind in StrategyKind::ALL {
            let a = gen.generate(kind.instantiate().as_mut(), &mut rng(42)).unwrap();
            let b = gen.generate(kind.instantiate().as_mut(), &mut rng(42)).unwrap();
            assert_eq!(a, b, "strategy {kind} not reproducible");
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        // One SimScratch carried across many paths and strategies must
        // yield exactly the outcomes of per-path fresh scratches: leftover
        // pool contents and stale buffer lengths may never leak between
        // paths.
        let (net, goal) = window_net();
        let prop = TimedReach::new(Goal::expr(goal), 10.0);
        let gen = PathGenerator::new(&net, &prop, 1000);
        let mut shared = SimScratch::new();
        for kind in StrategyKind::ALL {
            for seed in 0..25 {
                let a = gen
                    .generate_with(
                        &mut shared,
                        kind.instantiate().as_mut(),
                        &mut rng(seed),
                        &mut NoHooks,
                    )
                    .unwrap();
                let b = gen.generate(kind.instantiate().as_mut(), &mut rng(seed)).unwrap();
                assert_eq!(a, b, "strategy {kind}, seed {seed}");
            }
        }
    }
}
