//! Strategies resolving the model's non-determinism (§III-B of the paper).
//!
//! Where the specification does not dictate the next step — several
//! transitions enabled, or a whole interval of legal delays — a
//! [`Strategy`] decides. Different strategies yield different probability
//! measures over paths, so the choice is left to the user:
//!
//! | Strategy | Delay resolution | Analogue |
//! |----------|------------------|----------|
//! | [`Asap`] | earliest instant any transition becomes enabled | MODES |
//! | [`Progressive`] | uniform over the exact enabling-interval union | UPPAAL-SMC |
//! | [`Local`] | uniform over the invariant-allowed window only | — |
//! | [`MaxTime`] | maximal invariant-allowed delay | actionlock finder |
//! | [`Input`] | asks an [`InputOracle`] (interactive / scripted) | GUI |
//!
//! Underspecification of *choice* (several transitions enabled at the
//! selected instant) is always resolved uniformly — the paper's
//! equiprobability rule.

use crate::error::SimError;
use slim_automata::interval::IntervalSet;
use slim_automata::network::GlobalTransition;
use slim_automata::prelude::{NetState, Network};
use slim_stats::rng::StdRng;

/// A guarded candidate as seen by strategies: enabling window already
/// intersected with the invariant-allowed delay window and (for infinite
/// tails) truncated at the engine's horizon cap.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledCandidate {
    /// The global transition to fire.
    pub transition: GlobalTransition,
    /// Non-empty set of legal firing delays.
    pub window: IntervalSet,
}

/// Everything a strategy may inspect when deciding a step.
#[derive(Debug)]
pub struct StepView<'a> {
    /// The network (for names, structure).
    pub net: &'a Network,
    /// Current state.
    pub state: &'a NetState,
    /// Invariant-allowed delay window `[0, D]` (possibly horizon-capped).
    pub window: &'a IntervalSet,
    /// Guarded candidates with non-empty feasible windows.
    pub guarded: &'a [ScheduledCandidate],
    /// Horizon cap used for truncating unbounded windows.
    pub cap: f64,
    /// Union of all guarded candidate windows, when the engine has
    /// precomputed it (it does for strategies whose
    /// [`Strategy::views`] ask for it); `None` makes strategies compute
    /// it on the fly (allocating — hand-built views in tests).
    pub schedulable: Option<&'a IntervalSet>,
    /// `window` with an infinite tail already capped at `cap`, when the
    /// engine has precomputed it (as for `schedulable`); `None` falls
    /// back to capping locally.
    pub capped: Option<&'a IntervalSet>,
}

/// Which of the engine's precomputed [`StepView`] views a strategy reads.
/// The engine computes only the views asked for and passes `None` for the
/// others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyViews {
    /// [`StepView::schedulable`].
    pub schedulable: bool,
    /// [`StepView::capped`].
    pub capped: bool,
}

impl StrategyViews {
    /// Both views.
    pub const ALL: StrategyViews = StrategyViews { schedulable: true, capped: true };
    /// No view.
    pub const NONE: StrategyViews = StrategyViews { schedulable: false, capped: false };
}

/// A strategy's decision for the current step.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Wait `delay`, then fire `guarded[candidate]`.
    Fire {
        /// Delay before firing.
        delay: f64,
        /// Index into [`StepView::guarded`].
        candidate: usize,
    },
    /// Advance time by `delay` without firing, then reconsider
    /// (`delay > 0`).
    Wait {
        /// Delay to let pass.
        delay: f64,
    },
    /// No guarded transition can be scheduled (now or ever, from this
    /// state). The engine falls back to Markovian transitions or declares
    /// a dead-/timelock.
    Stuck,
    /// The (interactive) oracle aborted the simulation.
    Abort,
}

/// A policy resolving delay and transition non-determinism.
///
/// Implementations must be deterministic given the `rng` stream so that
/// seeded runs reproduce.
pub trait Strategy: Send {
    /// Human-readable strategy name.
    fn name(&self) -> &'static str;

    /// Decides the next move.
    ///
    /// # Errors
    /// Interactive strategies may fail on invalid input.
    fn decide(&mut self, view: &StepView<'_>, rng: &mut StdRng) -> Result<Decision, SimError>;

    /// The precomputed views [`Strategy::decide`] reads. The default asks
    /// for both, so a strategy that does not say sees every view.
    fn views(&self) -> StrategyViews {
        StrategyViews::ALL
    }
}

/// Uniformly picks one index among the candidates enabled at delay `d`
/// (the equiprobability rule). Returns `None` if none is enabled at `d`.
fn uniform_enabled_at(guarded: &[ScheduledCandidate], d: f64, rng: &mut StdRng) -> Option<usize> {
    // Count-then-select keeps this allocation-free; the RNG is consulted
    // exactly as often as with a materialized index list (only for n > 1),
    // so seeded streams are unchanged.
    let n = guarded.iter().filter(|c| c.window.contains(d)).count();
    match n {
        0 => None,
        1 => guarded.iter().position(|c| c.window.contains(d)),
        n => {
            let k = rng.gen_range(0..n);
            guarded.iter().enumerate().filter(|(_, c)| c.window.contains(d)).nth(k).map(|(i, _)| i)
        }
    }
}

/// The ASAP strategy: urgent semantics — the model moves as soon as any
/// discrete transition becomes enabled (the MODES approach).
#[derive(Debug, Clone, Copy, Default)]
pub struct Asap;

impl Strategy for Asap {
    fn name(&self) -> &'static str {
        "asap"
    }

    fn views(&self) -> StrategyViews {
        StrategyViews::NONE
    }

    fn decide(&mut self, view: &StepView<'_>, rng: &mut StdRng) -> Result<Decision, SimError> {
        let mut best: Option<f64> = None;
        for c in view.guarded {
            if let Some(t) = c.window.earliest_point() {
                best = Some(match best {
                    Some(b) => b.min(t),
                    None => t,
                });
            }
        }
        let Some(t_star) = best else {
            return Ok(Decision::Stuck);
        };
        match uniform_enabled_at(view.guarded, t_star, rng) {
            Some(i) => Ok(Decision::Fire { delay: t_star, candidate: i }),
            // Possible with open lower endpoints whose nudged earliest
            // point undercuts another candidate's closed bound; nudge in.
            None => {
                let later = t_star + slim_automata::interval::OPEN_NUDGE;
                match uniform_enabled_at(view.guarded, later, rng) {
                    Some(i) => Ok(Decision::Fire { delay: later, candidate: i }),
                    None => Ok(Decision::Stuck),
                }
            }
        }
    }
}

/// The Progressive strategy: selects a delay uniformly (by measure) from
/// the union of the exact enabling intervals, then uniformly among the
/// transitions enabled at that instant (the UPPAAL-SMC approach).
#[derive(Debug, Clone, Copy, Default)]
pub struct Progressive;

impl Strategy for Progressive {
    fn name(&self) -> &'static str {
        "progressive"
    }

    fn views(&self) -> StrategyViews {
        StrategyViews { schedulable: true, capped: false }
    }

    fn decide(&mut self, view: &StepView<'_>, rng: &mut StdRng) -> Result<Decision, SimError> {
        let union_local;
        let union = match view.schedulable {
            Some(u) => u,
            None => {
                let mut u = IntervalSet::empty();
                for c in view.guarded {
                    u = u.union(&c.window);
                }
                union_local = u;
                &union_local
            }
        };
        let Some(d) = union.pick(rng.gen::<f64>()) else {
            return Ok(Decision::Stuck);
        };
        match uniform_enabled_at(view.guarded, d, rng) {
            Some(i) => Ok(Decision::Fire { delay: d, candidate: i }),
            None => Ok(Decision::Stuck),
        }
    }
}

/// The Local strategy: ignores guards and samples the delay uniformly from
/// the invariant-allowed window of the current location(s); if some
/// transition happens to be enabled at the sampled instant it fires,
/// otherwise time simply passes and the simulator reconsiders.
#[derive(Debug, Clone, Copy, Default)]
pub struct Local;

impl Strategy for Local {
    fn name(&self) -> &'static str {
        "local"
    }

    fn views(&self) -> StrategyViews {
        StrategyViews { schedulable: false, capped: true }
    }

    fn decide(&mut self, view: &StepView<'_>, rng: &mut StdRng) -> Result<Decision, SimError> {
        if view.guarded.is_empty() {
            return Ok(Decision::Stuck);
        }
        let capped_local;
        let capped = match view.capped {
            Some(c) => c,
            None => {
                capped_local = cap_infinite(view.window, view.cap);
                &capped_local
            }
        };
        let Some(d) = capped.pick(rng.gen::<f64>()) else {
            return Ok(Decision::Stuck);
        };
        match uniform_enabled_at(view.guarded, d, rng) {
            Some(i) => Ok(Decision::Fire { delay: d, candidate: i }),
            None if d > 0.0 => Ok(Decision::Wait { delay: d }),
            None => {
                // Sampled exactly 0 with nothing enabled: retry by firing
                // at the earliest enabled instant to avoid a busy loop.
                let earliest = view
                    .guarded
                    .iter()
                    .filter_map(|c| c.window.earliest_point())
                    .fold(f64::INFINITY, f64::min);
                if earliest.is_finite() {
                    match uniform_enabled_at(view.guarded, earliest, rng) {
                        Some(i) => Ok(Decision::Fire { delay: earliest, candidate: i }),
                        None => Ok(Decision::Stuck),
                    }
                } else {
                    Ok(Decision::Stuck)
                }
            }
        }
    }
}

/// The MaxTime strategy: delays as long as the invariants allow — useful
/// for finding actionlocks (§III-B); with unbounded invariants the delay
/// is capped at the engine's horizon.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxTime;

impl Strategy for MaxTime {
    fn name(&self) -> &'static str {
        "max-time"
    }

    fn views(&self) -> StrategyViews {
        StrategyViews { schedulable: false, capped: true }
    }

    fn decide(&mut self, view: &StepView<'_>, rng: &mut StdRng) -> Result<Decision, SimError> {
        let capped_local;
        let capped = match view.capped {
            Some(c) => c,
            None => {
                capped_local = cap_infinite(view.window, view.cap);
                &capped_local
            }
        };
        let Some(d) = capped.latest_point() else {
            return Ok(Decision::Stuck);
        };
        match uniform_enabled_at(view.guarded, d, rng) {
            Some(i) => Ok(Decision::Fire { delay: d, candidate: i }),
            None if d > 0.0 => Ok(Decision::Wait { delay: d }),
            None => Ok(Decision::Stuck),
        }
    }
}

/// The TransitionFirst strategy: the *other* equiprobability order the
/// paper's §III-B contrasts — first pick the transition uniformly among
/// all schedulable candidates, then pick its firing delay uniformly from
/// that candidate's own window (ASAP picks transition-first with a fixed
/// delay; Progressive picks the delay first). Exposing both orders is the
/// paper's stated future work on "controlling the scheduling order of
/// transitions".
#[derive(Debug, Clone, Copy, Default)]
pub struct TransitionFirst;

impl Strategy for TransitionFirst {
    fn name(&self) -> &'static str {
        "transition-first"
    }

    fn views(&self) -> StrategyViews {
        StrategyViews::NONE
    }

    fn decide(&mut self, view: &StepView<'_>, rng: &mut StdRng) -> Result<Decision, SimError> {
        if view.guarded.is_empty() {
            return Ok(Decision::Stuck);
        }
        let candidate = rng.gen_range(0..view.guarded.len());
        let window = &view.guarded[candidate].window;
        // Engine-supplied windows already have finite tails, so the
        // cap-clone is only needed for hand-built unbounded windows.
        let picked = match window.sup() {
            Some(s) if s.is_finite() => window.pick(rng.gen::<f64>()),
            _ => cap_infinite(window, view.cap).pick(rng.gen::<f64>()),
        };
        match picked {
            Some(delay) => Ok(Decision::Fire { delay, candidate }),
            None => Ok(Decision::Stuck),
        }
    }
}

/// Replaces an infinite tail of `set` by a bounded one ending at `cap`
/// (bounded parts are left untouched).
fn cap_infinite(set: &IntervalSet, cap: f64) -> IntervalSet {
    match set.sup() {
        Some(s) if s.is_finite() => set.clone(),
        Some(_) => set.truncate(cap.max(set.inf().unwrap_or(0.0))),
        None => IntervalSet::empty(),
    }
}

/// What an [`InputOracle`] may answer.
#[derive(Debug, Clone, PartialEq)]
pub enum InputChoice {
    /// Fire guarded candidate `candidate` after `delay`.
    Fire {
        /// Index into the presented candidates.
        candidate: usize,
        /// Delay before firing.
        delay: f64,
    },
    /// Let `delay` time pass without firing.
    Wait {
        /// Delay to let pass.
        delay: f64,
    },
    /// Stop the simulation.
    Abort,
}

/// Supplies decisions for the [`Input`] strategy — interactively (CLI) or
/// from a script (tests, replay).
pub trait InputOracle: Send {
    /// Chooses the next step given the presented alternatives.
    ///
    /// # Errors
    /// May fail on I/O problems (interactive oracles).
    fn choose(&mut self, view: &StepView<'_>) -> Result<InputChoice, SimError>;
}

/// The Input strategy: defers every decision to an oracle, validating the
/// answers against the presented alternatives (the paper's manual mode /
/// GUI substitute).
pub struct Input<O> {
    oracle: O,
}

impl<O: std::fmt::Debug> std::fmt::Debug for Input<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Input").field("oracle", &self.oracle).finish()
    }
}

impl<O: InputOracle> Input<O> {
    /// Wraps an oracle.
    pub fn new(oracle: O) -> Input<O> {
        Input { oracle }
    }
}

impl<O: InputOracle> Strategy for Input<O> {
    fn name(&self) -> &'static str {
        "input"
    }

    fn decide(&mut self, view: &StepView<'_>, _rng: &mut StdRng) -> Result<Decision, SimError> {
        match self.oracle.choose(view)? {
            InputChoice::Abort => Ok(Decision::Abort),
            InputChoice::Wait { delay } => {
                if delay <= 0.0 || !view.window.contains(delay) {
                    return Err(SimError::InvalidInput {
                        detail: format!("delay {delay} outside allowed window {}", view.window),
                    });
                }
                Ok(Decision::Wait { delay })
            }
            InputChoice::Fire { candidate, delay } => {
                let Some(c) = view.guarded.get(candidate) else {
                    return Err(SimError::InvalidInput {
                        detail: format!(
                            "candidate {candidate} out of range ({} available)",
                            view.guarded.len()
                        ),
                    });
                };
                if !c.window.contains(delay) {
                    return Err(SimError::InvalidInput {
                        detail: format!("delay {delay} outside enabling window {}", c.window),
                    });
                }
                Ok(Decision::Fire { delay, candidate })
            }
        }
    }
}

/// A scripted oracle replaying a fixed list of choices (aborts when the
/// script runs dry).
#[derive(Debug, Clone)]
pub struct ScriptedOracle {
    script: std::collections::VecDeque<InputChoice>,
}

impl ScriptedOracle {
    /// Creates an oracle from a choice sequence.
    pub fn new(choices: impl IntoIterator<Item = InputChoice>) -> ScriptedOracle {
        ScriptedOracle { script: choices.into_iter().collect() }
    }
}

impl InputOracle for ScriptedOracle {
    fn choose(&mut self, _view: &StepView<'_>) -> Result<InputChoice, SimError> {
        Ok(self.script.pop_front().unwrap_or(InputChoice::Abort))
    }
}

/// The automated strategies, as a user-facing enum (the `--strategy` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// [`Asap`].
    Asap,
    /// [`Progressive`].
    Progressive,
    /// [`Local`].
    Local,
    /// [`MaxTime`].
    MaxTime,
    /// [`TransitionFirst`].
    TransitionFirst,
}

impl StrategyKind {
    /// The paper's four automated strategies, for sweeps (Fig. 5).
    pub const ALL: [StrategyKind; 4] =
        [StrategyKind::Asap, StrategyKind::Progressive, StrategyKind::Local, StrategyKind::MaxTime];

    /// All automated strategies including the transition-first extension.
    pub const ALL_EXTENDED: [StrategyKind; 5] = [
        StrategyKind::Asap,
        StrategyKind::Progressive,
        StrategyKind::Local,
        StrategyKind::MaxTime,
        StrategyKind::TransitionFirst,
    ];

    /// Instantiates the strategy.
    pub fn instantiate(self) -> Box<dyn Strategy> {
        match self {
            StrategyKind::Asap => Box::new(Asap),
            StrategyKind::Progressive => Box::new(Progressive),
            StrategyKind::Local => Box::new(Local),
            StrategyKind::MaxTime => Box::new(MaxTime),
            StrategyKind::TransitionFirst => Box::new(TransitionFirst),
        }
    }

    /// Parses a strategy name (as accepted by the CLI).
    pub fn parse(s: &str) -> Option<StrategyKind> {
        match s.to_ascii_lowercase().as_str() {
            "asap" => Some(StrategyKind::Asap),
            "progressive" => Some(StrategyKind::Progressive),
            "local" => Some(StrategyKind::Local),
            "maxtime" | "max-time" => Some(StrategyKind::MaxTime),
            "transition-first" | "transitionfirst" => Some(StrategyKind::TransitionFirst),
            _ => None,
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyKind::Asap => write!(f, "asap"),
            StrategyKind::Progressive => write!(f, "progressive"),
            StrategyKind::Local => write!(f, "local"),
            StrategyKind::MaxTime => write!(f, "max-time"),
            StrategyKind::TransitionFirst => write!(f, "transition-first"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_automata::interval::Interval;
    use slim_automata::prelude::*;

    fn tiny_net() -> Network {
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        a.guarded(l0, ActionId::TAU, Expr::TRUE, [], l0);
        b.add_automaton(a);
        b.build().unwrap()
    }

    fn cand(lo: f64, hi: f64, closed: bool) -> ScheduledCandidate {
        let iv = if closed {
            Interval::closed(lo, hi).unwrap()
        } else {
            Interval::open_closed(lo, hi).unwrap()
        };
        ScheduledCandidate {
            transition: GlobalTransition {
                action: ActionId::TAU,
                parts: vec![(ProcId(0), TransId(0))],
            },
            window: IntervalSet::from(iv),
        }
    }

    fn view<'a>(
        net: &'a Network,
        state: &'a NetState,
        window: &'a IntervalSet,
        guarded: &'a [ScheduledCandidate],
    ) -> StepView<'a> {
        StepView { net, state, window, guarded, cap: 1000.0, schedulable: None, capped: None }
    }

    /// Each built-in strategy declares every precomputed view it reads:
    /// junk in the views it does not ask for leaves its decisions and RNG
    /// draws unchanged.
    #[test]
    fn declared_views_cover_what_strategies_read() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::from(Interval::closed(0.0, 5.0).unwrap());
        let cands = [cand(1.0, 2.0, true), cand(3.0, 4.0, false)];
        let union = cands[0].window.union(&cands[1].window);
        let junk = IntervalSet::from(Interval::closed(7.0, 9.0).unwrap());
        for kind in StrategyKind::ALL_EXTENDED {
            let mut strategy = kind.instantiate();
            let views = strategy.views();
            let honest = StepView {
                schedulable: Some(&union),
                capped: Some(&w),
                ..view(&net, &s, &w, &cands)
            };
            let masked = StepView {
                schedulable: Some(if views.schedulable { &union } else { &junk }),
                capped: Some(if views.capped { &w } else { &junk }),
                ..view(&net, &s, &w, &cands)
            };
            for seed in 0..32 {
                let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let want = strategy.decide(&honest, &mut r1).unwrap();
                let got = strategy.decide(&masked, &mut r2).unwrap();
                assert_eq!(got, want, "{kind} reads a view it does not declare");
                assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "{kind}: RNG streams diverged");
            }
        }
    }

    #[test]
    fn asap_picks_earliest() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::all();
        let cands = [cand(200.0, 300.0, true), cand(250.0, 400.0, true)];
        let mut rng = StdRng::seed_from_u64(1);
        match Asap.decide(&view(&net, &s, &w, &cands), &mut rng).unwrap() {
            Decision::Fire { delay, candidate } => {
                assert_eq!(delay, 200.0);
                assert_eq!(candidate, 0);
            }
            d => panic!("unexpected {d:?}"),
        }
    }

    #[test]
    fn asap_open_window_nudges() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::all();
        let cands = [cand(200.0, 300.0, false)];
        let mut rng = StdRng::seed_from_u64(1);
        match Asap.decide(&view(&net, &s, &w, &cands), &mut rng).unwrap() {
            Decision::Fire { delay, .. } => {
                assert!(delay > 200.0 && delay < 200.1, "delay {delay}");
            }
            d => panic!("unexpected {d:?}"),
        }
    }

    #[test]
    fn asap_stuck_without_candidates() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::all();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(Asap.decide(&view(&net, &s, &w, &[]), &mut rng).unwrap(), Decision::Stuck);
    }

    #[test]
    fn progressive_samples_inside_union() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::all();
        let cands = [cand(200.0, 300.0, true), cand(400.0, 500.0, true)];
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen_first = false;
        let mut seen_second = false;
        for _ in 0..64 {
            match Progressive.decide(&view(&net, &s, &w, &cands), &mut rng).unwrap() {
                Decision::Fire { delay, candidate } => {
                    assert!(cands[candidate].window.contains(delay));
                    if delay <= 300.0 {
                        seen_first = true;
                    } else {
                        seen_second = true;
                    }
                }
                d => panic!("unexpected {d:?}"),
            }
        }
        assert!(seen_first && seen_second, "both windows should be sampled");
    }

    #[test]
    fn local_samples_invariant_window() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        // Invariant allows [0, 300]; guard only [200, 300].
        let w = IntervalSet::from(Interval::closed(0.0, 300.0).unwrap());
        let cands = [cand(200.0, 300.0, true)];
        let mut rng = StdRng::seed_from_u64(3);
        let mut fired = 0;
        let mut waited = 0;
        for _ in 0..256 {
            match Local.decide(&view(&net, &s, &w, &cands), &mut rng).unwrap() {
                Decision::Fire { delay, .. } => {
                    assert!((200.0..=300.0).contains(&delay));
                    fired += 1;
                }
                Decision::Wait { delay } => {
                    assert!(delay > 0.0 && delay < 200.0);
                    waited += 1;
                }
                d => panic!("unexpected {d:?}"),
            }
        }
        // Roughly 1/3 of the window is enabled.
        assert!(fired > 30 && waited > 100, "fired={fired} waited={waited}");
    }

    #[test]
    fn local_stuck_without_candidates() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::from(Interval::closed(0.0, 300.0).unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(Local.decide(&view(&net, &s, &w, &[]), &mut rng).unwrap(), Decision::Stuck);
    }

    #[test]
    fn maxtime_takes_boundary() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::from(Interval::closed(0.0, 300.0).unwrap());
        let cands = [cand(200.0, 300.0, true)];
        let mut rng = StdRng::seed_from_u64(3);
        match MaxTime.decide(&view(&net, &s, &w, &cands), &mut rng).unwrap() {
            Decision::Fire { delay, .. } => assert_eq!(delay, 300.0),
            d => panic!("unexpected {d:?}"),
        }
    }

    #[test]
    fn maxtime_waits_to_boundary_when_nothing_enabled_there() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::from(Interval::closed(0.0, 300.0).unwrap());
        // Guard window ends strictly before the invariant boundary.
        let cands = [cand(100.0, 200.0, true)];
        let mut rng = StdRng::seed_from_u64(3);
        match MaxTime.decide(&view(&net, &s, &w, &cands), &mut rng).unwrap() {
            Decision::Wait { delay } => assert_eq!(delay, 300.0),
            d => panic!("unexpected {d:?}"),
        }
    }

    #[test]
    fn maxtime_unbounded_capped() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::all();
        let cands = [cand(0.0, 2000.0, true)];
        let mut rng = StdRng::seed_from_u64(3);
        match MaxTime.decide(&view(&net, &s, &w, &cands), &mut rng).unwrap() {
            Decision::Fire { delay, .. } => assert_eq!(delay, 1000.0),
            d => panic!("unexpected {d:?}"),
        }
    }

    #[test]
    fn equiprobable_tie_break() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::all();
        let cands = [cand(5.0, 10.0, true), cand(5.0, 10.0, true)];
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 2];
        for _ in 0..400 {
            if let Decision::Fire { candidate, .. } =
                Asap.decide(&view(&net, &s, &w, &cands), &mut rng).unwrap()
            {
                counts[candidate] += 1;
            }
        }
        assert!(counts[0] > 120 && counts[1] > 120, "skewed {counts:?}");
    }

    #[test]
    fn input_strategy_validates() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::from(Interval::closed(0.0, 300.0).unwrap());
        let cands = [cand(200.0, 300.0, true)];
        let mut rng = StdRng::seed_from_u64(0);

        let mut ok =
            Input::new(ScriptedOracle::new([InputChoice::Fire { candidate: 0, delay: 250.0 }]));
        assert_eq!(
            ok.decide(&view(&net, &s, &w, &cands), &mut rng).unwrap(),
            Decision::Fire { delay: 250.0, candidate: 0 }
        );

        let mut bad_delay =
            Input::new(ScriptedOracle::new([InputChoice::Fire { candidate: 0, delay: 100.0 }]));
        assert!(bad_delay.decide(&view(&net, &s, &w, &cands), &mut rng).is_err());

        let mut bad_idx =
            Input::new(ScriptedOracle::new([InputChoice::Fire { candidate: 5, delay: 250.0 }]));
        assert!(bad_idx.decide(&view(&net, &s, &w, &cands), &mut rng).is_err());

        let mut wait_bad = Input::new(ScriptedOracle::new([InputChoice::Wait { delay: 500.0 }]));
        assert!(wait_bad.decide(&view(&net, &s, &w, &cands), &mut rng).is_err());

        let mut dry = Input::new(ScriptedOracle::new([]));
        assert_eq!(dry.decide(&view(&net, &s, &w, &cands), &mut rng).unwrap(), Decision::Abort);
    }

    #[test]
    fn transition_first_picks_candidate_then_delay() {
        let net = tiny_net();
        let s = net.initial_state().unwrap();
        let w = IntervalSet::all();
        // Two disjoint windows; delay-first (Progressive) would weight by
        // measure (9:1), transition-first weights candidates 1:1.
        let cands = [cand(0.0, 9.0, true), cand(100.0, 101.0, true)];
        let mut rng = StdRng::seed_from_u64(5);
        let mut late = 0;
        let n = 400;
        for _ in 0..n {
            match TransitionFirst.decide(&view(&net, &s, &w, &cands), &mut rng).unwrap() {
                Decision::Fire { delay, candidate } => {
                    assert!(cands[candidate].window.contains(delay));
                    if candidate == 1 {
                        late += 1;
                    }
                }
                d => panic!("unexpected {d:?}"),
            }
        }
        let frac = late as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.1, "transition-first should be 1:1, got {frac}");
    }

    #[test]
    fn kind_parse_and_display() {
        for k in StrategyKind::ALL_EXTENDED {
            assert_eq!(StrategyKind::parse(&k.to_string()), Some(k));
            assert!(!k.instantiate().name().is_empty());
        }
        assert_eq!(StrategyKind::parse("MaxTime"), Some(StrategyKind::MaxTime));
        assert_eq!(StrategyKind::parse("bogus"), None);
    }
}
