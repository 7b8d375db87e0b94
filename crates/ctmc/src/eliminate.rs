//! Vanishing-state elimination: IMC → CTMC.
//!
//! Under *maximal progress*, immediate (interactive) transitions preempt
//! Markovian ones, so states with interactive successors ("vanishing"
//! states) are left instantaneously. Non-determinism among the immediate
//! successors is resolved **uniformly** — the equiprobability rule the
//! simulator also applies; this closes the IMC into a CTMC (the role of
//! the weak-bisimulation step in the COMPASS chain, which likewise must
//! rid the model of interactive transitions before MRMC can run).

use crate::accumulate::Accumulator;
use crate::ctmc::Ctmc;
use crate::error::CtmcError;
use crate::imc::Imc;

/// Eliminates vanishing states, producing a CTMC over the tangible states.
///
/// Goal-labeled vanishing states are preserved by *absorption semantics*:
/// if a vanishing state on the way is a goal state, probability flowing
/// through it is redirected to a fresh absorbing goal state — passing
/// through a goal instantaneously still means the goal was reached.
///
/// Tangible states keep their relative order. Resolution is iterative
/// (an explicit DFS stack), so arbitrarily long immediate chains are fine.
///
/// # Errors
/// [`CtmcError::VanishingCycle`] on immediate-transition cycles and
/// [`CtmcError::Empty`] on empty input.
pub fn eliminate(imc: &Imc) -> Result<Ctmc, CtmcError> {
    if imc.is_empty() {
        return Err(CtmcError::Empty);
    }
    let mut r = Resolver::new(imc);
    let tangible = r.goal_sink;
    let mut acc = Accumulator::new(tangible + 1);

    // Build rows for tangible states, in state order.
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(tangible);
    let mut goal: Vec<bool> = Vec::with_capacity(tangible);
    for s in imc.states.iter().filter(|s| !s.is_vanishing()) {
        goal.push(s.goal);
        for &(target, _) in &s.markovian {
            r.resolve(imc, target, &mut acc)?;
        }
        for &(target, rate) in &s.markovian {
            for &(t, p) in r.dist(target) {
                acc.add(t, rate * p);
            }
        }
        let mut row = acc.take();
        row.retain(|&(_, rate)| rate > 0.0);
        rows.push(row);
    }

    // Initial distribution: resolve state 0.
    r.resolve(imc, 0, &mut acc)?;
    let initial = r.dist(0).to_vec();

    if r.uses_goal_sink {
        rows.push(Vec::new());
        goal.push(true);
    }

    let ctmc = Ctmc { rates: rows, goal, initial };
    debug_assert!(ctmc.check_valid().is_ok(), "{:?}", ctmc.check_valid());
    Ok(ctmc)
}

/// Resolution state of one IMC state.
#[derive(Debug, Clone, Copy)]
enum Memo {
    /// Goal-labelled vanishing state, not reached yet: it dissolves into
    /// the goal sink.
    GoalVanishing,
    /// Non-goal vanishing state, not resolved yet.
    Open,
    /// Vanishing state being resolved (on the DFS stack).
    OnStack,
    /// Resolved: the distribution is `dists[start..end]`.
    Done(usize, usize),
}

/// Memoized resolution: the distribution over CTMC indices reached from
/// an IMC state by following immediate transitions to quiescence.
#[derive(Debug)]
struct Resolver {
    memo: Vec<Memo>,
    /// Flat arena of distributions. It starts with one `(index, 1.0)`
    /// entry per tangible state (in CTMC order), followed by the goal
    /// sink's; resolved vanishing distributions are appended after.
    dists: Vec<(usize, f64)>,
    /// CTMC index of the synthetic absorbing goal state that collects
    /// probability reaching the goal *inside* a vanishing chain; it equals
    /// the number of tangible states.
    goal_sink: usize,
    uses_goal_sink: bool,
    /// Explicit DFS stack of `(state, next interactive successor)`.
    stack: Vec<(usize, usize)>,
}

impl Resolver {
    fn new(imc: &Imc) -> Resolver {
        let mut memo = Vec::with_capacity(imc.len());
        let mut dists = Vec::new();
        for s in &imc.states {
            memo.push(if !s.is_vanishing() {
                let t = dists.len();
                dists.push((t, 1.0));
                Memo::Done(t, t + 1)
            } else if s.goal {
                Memo::GoalVanishing
            } else {
                Memo::Open
            });
        }
        let goal_sink = dists.len();
        dists.push((goal_sink, 1.0));
        Resolver { memo, dists, goal_sink, uses_goal_sink: false, stack: Vec::new() }
    }

    /// The distribution of a resolved state.
    fn dist(&self, i: usize) -> &[(usize, f64)] {
        match self.memo[i] {
            Memo::Done(start, end) => &self.dists[start..end],
            _ => unreachable!("state {i} read before it was resolved"),
        }
    }

    /// Resolves `root` and everything it reaches through immediate
    /// transitions. A vanishing state's distribution is the uniform
    /// mixture of its successors', summed per target in successor order.
    fn resolve(&mut self, imc: &Imc, root: usize, acc: &mut Accumulator) -> Result<(), CtmcError> {
        self.enter(root)?;
        while let Some(top) = self.stack.last_mut() {
            let (i, next) = *top;
            let succs = &imc.states[i].interactive;
            if next < succs.len() {
                top.1 += 1;
                self.enter(succs[next])?;
                continue;
            }
            self.stack.pop();
            let k = succs.len() as f64;
            for &succ in succs {
                for &(t, p) in self.dist(succ) {
                    acc.add(t, p / k);
                }
            }
            let start = self.dists.len();
            acc.drain_into(&mut self.dists);
            self.memo[i] = Memo::Done(start, self.dists.len());
        }
        Ok(())
    }

    /// Visits state `i`: pushes it if it still needs resolving.
    fn enter(&mut self, i: usize) -> Result<(), CtmcError> {
        match self.memo[i] {
            Memo::Done(..) => {}
            Memo::GoalVanishing => {
                // Goal reached instantaneously on the way through.
                self.uses_goal_sink = true;
                self.memo[i] = Memo::Done(self.goal_sink, self.goal_sink + 1);
            }
            Memo::OnStack => return Err(CtmcError::VanishingCycle { state_index: i }),
            Memo::Open => {
                self.memo[i] = Memo::OnStack;
                self.stack.push((i, 0));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imc::ImcState;

    fn tangible(markovian: Vec<(usize, f64)>, goal: bool) -> ImcState {
        ImcState { interactive: vec![], markovian, goal }
    }

    fn vanishing(interactive: Vec<usize>, goal: bool) -> ImcState {
        ImcState { interactive, markovian: vec![], goal }
    }

    #[test]
    fn pure_markovian_chain_passes_through() {
        let imc = Imc { states: vec![tangible(vec![(1, 2.0)], false), tangible(vec![], true)] };
        let c = eliminate(&imc).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.rates[0], vec![(1, 2.0)]);
        assert_eq!(c.initial, vec![(0, 1.0)]);
        assert_eq!(c.goal, vec![false, true]);
    }

    #[test]
    fn vanishing_state_splits_uniformly() {
        // 0 --2.0--> 1 (vanishing) --> {2, 3} uniformly.
        let imc = Imc {
            states: vec![
                tangible(vec![(1, 2.0)], false),
                vanishing(vec![2, 3], false),
                tangible(vec![], false),
                tangible(vec![], true),
            ],
        };
        let c = eliminate(&imc).unwrap();
        // Tangible states: 0, 2, 3 → indices 0.. in insertion order by map;
        // find rates from the initial state.
        let row0: f64 = c.rates[find_initial(&c)].iter().map(|(_, r)| r).sum();
        assert!((row0 - 2.0).abs() < 1e-12);
        let rates: Vec<f64> = c.rates[find_initial(&c)].iter().map(|&(_, r)| r).collect();
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 1.0).abs() < 1e-12 && (rates[1] - 1.0).abs() < 1e-12);
    }

    fn find_initial(c: &Ctmc) -> usize {
        assert_eq!(c.initial.len(), 1);
        c.initial[0].0
    }

    #[test]
    fn chained_vanishing_states_compose() {
        // 0 --1.0--> 1 (vanishing) --> 2 (vanishing) --> 3 tangible.
        let imc = Imc {
            states: vec![
                tangible(vec![(1, 1.0)], false),
                vanishing(vec![2], false),
                vanishing(vec![3], false),
                tangible(vec![], true),
            ],
        };
        let c = eliminate(&imc).unwrap();
        let init = find_initial(&c);
        assert_eq!(c.rates[init].len(), 1);
        let (t, r) = c.rates[init][0];
        assert!((r - 1.0).abs() < 1e-12);
        assert!(c.goal[t]);
    }

    #[test]
    fn vanishing_initial_state_gives_distribution() {
        let imc = Imc {
            states: vec![
                vanishing(vec![1, 2], false),
                tangible(vec![], false),
                tangible(vec![], true),
            ],
        };
        let c = eliminate(&imc).unwrap();
        assert_eq!(c.initial.len(), 2);
        let mass: f64 = c.initial.iter().map(|(_, p)| p).sum();
        assert!((mass - 1.0).abs() < 1e-12);
        assert!((c.initial[0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn goal_inside_vanishing_chain_is_preserved() {
        // 0 --1.0--> 1 (vanishing, GOAL) --> 2 tangible (not goal).
        let imc = Imc {
            states: vec![
                tangible(vec![(1, 1.0)], false),
                ImcState { interactive: vec![2], markovian: vec![], goal: true },
                tangible(vec![], false),
            ],
        };
        let c = eliminate(&imc).unwrap();
        // Probability must flow to an absorbing goal sink, not to state 2.
        let init = find_initial(&c);
        let (t, _) = c.rates[init][0];
        assert!(c.goal[t], "goal hit mid-chain must be preserved");
        assert!(c.rates[t].is_empty(), "sink is absorbing");
    }

    #[test]
    fn vanishing_cycle_detected() {
        let imc = Imc {
            states: vec![
                tangible(vec![(1, 1.0)], false),
                vanishing(vec![2], false),
                vanishing(vec![1], false),
            ],
        };
        assert!(matches!(eliminate(&imc), Err(CtmcError::VanishingCycle { .. })));
    }

    #[test]
    fn long_vanishing_chain_resolves_without_recursion() {
        // 0 --2.0--> 1 → 2 → … → N (vanishing) → N+1 tangible goal. A
        // recursive resolver overflows the stack long before N = 300k.
        const N: usize = 300_000;
        let mut states = vec![tangible(vec![(1, 2.0)], false)];
        states.extend((1..=N).map(|i| vanishing(vec![i + 1], false)));
        states.push(tangible(vec![], true));
        let c = eliminate(&Imc { states }).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.rates[0], vec![(1, 2.0)]);
        assert_eq!(c.goal, vec![false, true]);
        assert_eq!(c.initial, vec![(0, 1.0)]);
    }

    #[test]
    fn long_vanishing_cycle_detected() {
        const N: usize = 300_000;
        let mut states = vec![tangible(vec![(1, 1.0)], false)];
        states.extend((1..N).map(|i| vanishing(vec![i + 1], false)));
        states.push(vanishing(vec![1], false));
        assert!(matches!(
            eliminate(&Imc { states }),
            Err(CtmcError::VanishingCycle { state_index: 1 })
        ));
    }

    #[test]
    fn shared_vanishing_successors_are_memoized() {
        // Diamond: 1 → {2, 3}, both → 4 → {5, 6}; every path ends in 5 or 6
        // with probability ½, whichever way it got there.
        let imc = Imc {
            states: vec![
                tangible(vec![(1, 4.0)], false),
                vanishing(vec![2, 3], false),
                vanishing(vec![4], false),
                vanishing(vec![4], false),
                vanishing(vec![5, 6], false),
                tangible(vec![], false),
                tangible(vec![], true),
            ],
        };
        let c = eliminate(&imc).unwrap();
        assert_eq!(c.rates[0], vec![(1, 2.0), (2, 2.0)]);
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(eliminate(&Imc { states: vec![] }), Err(CtmcError::Empty)));
    }
}
