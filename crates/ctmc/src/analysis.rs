//! End-to-end CTMC pipeline: explore → eliminate → lump → transient.
//!
//! This is the Rust stand-in for the COMPASS analysis chain of §IV
//! (NuSMV reachability → sigref bisimulation reduction → MRMC model
//! checking), producing the CTMC columns of Table I.

use crate::eliminate::eliminate;
use crate::error::CtmcError;
use crate::explore::{explore, ExploreConfig};
use crate::lumping::lump;
use crate::transient::{timed_reachability, TransientConfig};
use slim_automata::prelude::{NetState, Network};
use std::time::{Duration, Instant};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineConfig {
    /// Exploration limits.
    pub explore: ExploreConfig,
    /// Numerical tolerances.
    pub transient: TransientConfig,
    /// Skip the lumping step (ablation knob).
    pub skip_lumping: bool,
}

/// Everything the pipeline measured, for Table I reporting.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// `P(◇[0,t] goal)`.
    pub probability: f64,
    /// Reachable states explored.
    pub states: usize,
    /// Transitions explored: the IMC's interactive and Markovian edges,
    /// including the Markovian edges of vanishing states that maximal
    /// progress preempts (counted, not stored; see [`Imc`](crate::Imc)).
    pub transitions: usize,
    /// Tangible CTMC states after vanishing elimination.
    pub tangible_states: usize,
    /// Quotient states after lumping.
    pub lumped_states: usize,
    /// Approximate memory used by the stored state space, in bytes.
    pub approx_memory_bytes: usize,
    /// Wall-clock time of the whole pipeline.
    pub wall: Duration,
    /// Wall-clock time per phase `(explore, eliminate, lump, transient)`.
    pub phase_wall: (Duration, Duration, Duration, Duration),
}

/// Runs the full pipeline for `P(◇[0,t] goal)` on an untimed network.
///
/// # Errors
/// See [`explore`] and [`eliminate`].
pub fn check_timed_reachability(
    net: &Network,
    goal: &dyn Fn(&NetState) -> Result<bool, slim_automata::error::EvalError>,
    t: f64,
    config: &PipelineConfig,
) -> Result<PipelineResult, CtmcError> {
    let t0 = Instant::now();
    let explored = explore(net, goal, &config.explore)?;
    let t1 = Instant::now();
    let ctmc = eliminate(&explored.imc)?;
    let t2 = Instant::now();
    let tangible_states = ctmc.len();
    let chain = if config.skip_lumping { ctmc } else { lump(&ctmc).quotient };
    let t3 = Instant::now();
    let probability = timed_reachability(&chain, t, &config.transient);
    let t4 = Instant::now();

    Ok(PipelineResult {
        probability,
        states: explored.states,
        transitions: explored.imc.transition_count(),
        tangible_states,
        lumped_states: chain.len(),
        approx_memory_bytes: explored.approx_memory_bytes,
        wall: t4 - t0,
        phase_wall: (t1 - t0, t2 - t1, t3 - t2, t4 - t3),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_automata::prelude::*;

    /// ok --λ--> failed.
    fn exp_net(lambda: f64) -> Network {
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("m");
        let ok = a.location("ok");
        let failed = a.location("failed");
        a.markovian(ok, lambda, [], failed);
        b.add_automaton(a);
        b.build().unwrap()
    }

    #[test]
    fn pipeline_matches_exponential() {
        let net = exp_net(0.5);
        let goal = |s: &NetState| Ok(s.locs[0] == LocId(1));
        let r = check_timed_reachability(&net, &goal, 2.0, &PipelineConfig::default()).unwrap();
        let exact = 1.0 - (-1.0f64).exp();
        assert!((r.probability - exact).abs() < 1e-8, "{} vs {exact}", r.probability);
        assert_eq!(r.states, 2);
        assert!(r.approx_memory_bytes > 0);
        assert!(r.wall >= r.phase_wall.0);
    }

    #[test]
    fn lumping_reduces_redundant_pairs() {
        // Two identical independent units; goal = both failed.
        let mut b = NetworkBuilder::new();
        for name in ["u1", "u2"] {
            let mut a = AutomatonBuilder::new(name);
            let ok = a.location("ok");
            let failed = a.location("failed");
            a.markovian(ok, 0.1, [], failed);
            b.add_automaton(a);
        }
        let net = b.build().unwrap();
        let goal = |s: &NetState| Ok(s.locs[0] == LocId(1) && s.locs[1] == LocId(1));
        let with = check_timed_reachability(&net, &goal, 5.0, &PipelineConfig::default()).unwrap();
        let without = check_timed_reachability(
            &net,
            &goal,
            5.0,
            &PipelineConfig { skip_lumping: true, ..Default::default() },
        )
        .unwrap();
        assert_eq!(with.states, 4);
        assert_eq!(without.lumped_states, 4);
        assert_eq!(with.lumped_states, 3, "symmetric mixed states lump");
        // Same numeric answer either way.
        assert!((with.probability - without.probability).abs() < 1e-9);
        let exact = (1.0 - (-0.5f64).exp()).powi(2);
        assert!((with.probability - exact).abs() < 1e-8);
    }

    #[test]
    fn vanishing_states_handled_in_pipeline() {
        // A Markovian fault immediately propagated through a τ step.
        let mut b = NetworkBuilder::new();
        let failed_flag = b.var("failed", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("m");
        let ok = a.location("ok");
        let tripped = a.location("tripped");
        let down = a.location("down");
        a.markovian(ok, 1.0, [], tripped);
        a.guarded(
            tripped,
            ActionId::TAU,
            Expr::TRUE,
            [Effect::assign(failed_flag, Expr::bool(true))],
            down,
        );
        b.add_automaton(a);
        let net = b.build().unwrap();
        let fv = net.var_id("failed").unwrap();
        let goal = move |s: &NetState| s.nu.get(fv).map(|v| v.as_bool().unwrap_or(false));
        let r = check_timed_reachability(&net, &goal, 1.0, &PipelineConfig::default()).unwrap();
        let exact = 1.0 - (-1.0f64).exp();
        assert!((r.probability - exact).abs() < 1e-8, "{} vs {exact}", r.probability);
    }
}
