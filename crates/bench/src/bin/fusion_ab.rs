//! In-process A/B: the fused kernel vs `CompileOptions::reference()`.
//!
//! Cross-invocation throughput on shared hosts drifts by up to ~1.7×,
//! which swamps any real kernel delta when two `bench_report` artifacts
//! are compared. This harness removes the host from the comparison: it
//! compiles both kernels for each zoo model, interleaves timed rounds of
//! identical path batches (same per-path RNG streams) between them so
//! scheduler noise hits both sides equally, and reports the per-model
//! median speedup. Use this — not artifact diffs — to judge whether a
//! kernel change actually pays.

use slim_automata::prelude::{CompileOptions, Expr};
use slim_models::{
    gps_network, launcher_network, repair_network, sensor_filter_network, voting_network,
    GpsParams, LauncherParams, RepairParams, SensorFilterParams, VotingParams,
};
use slim_stats::rng::path_rng;
use slimsim_core::prelude::*;
use std::time::Instant;

fn main() {
    let cases: Vec<(&str, slim_automata::prelude::Network, &str, f64)> = vec![
        (
            "sensor_filter",
            sensor_filter_network(&SensorFilterParams::default()),
            slim_models::GOAL_VAR,
            1.0,
        ),
        ("voting", voting_network(&VotingParams::default()), slim_models::VOTING_GOAL_VAR, 1.0),
        ("repair", repair_network(&RepairParams::default()), slim_models::REPAIR_GOAL_VAR, 2.0),
        ("gps", gps_network(&GpsParams::default()), "gps.measurement", 10.0),
        // Table I's worst simulated case and the Fig 5 launcher.
        (
            "sensor_filter16",
            sensor_filter_network(&SensorFilterParams { redundancy: 16, ..Default::default() }),
            slim_models::GOAL_VAR,
            2.0,
        ),
        (
            "launcher",
            launcher_network(&LauncherParams::default()),
            slim_models::launcher::FAILURE_VAR,
            3.0,
        ),
    ];
    const PATHS: u64 = 20_000;
    const ROUNDS: usize = 7;
    for (name, net, goal_var, bound) in &cases {
        let goal = Goal::expr(Expr::var(net.var_id(goal_var).unwrap()));
        let prop = TimedReach::new(goal, *bound);
        let fused = PathGenerator::new(net, &prop, 100_000);
        let reference =
            PathGenerator::with_compile_options(net, &prop, 100_000, &CompileOptions::reference());
        let mut scratch = SimScratch::new();
        let mut strategy = Asap;
        let run = |gen: &PathGenerator, scratch: &mut SimScratch, strategy: &mut Asap| {
            let start = Instant::now();
            let mut steps = 0u64;
            for i in 0..PATHS {
                let mut rng = path_rng(7, i);
                steps +=
                    gen.generate_with(scratch, strategy, &mut rng, &mut NoHooks).unwrap().steps;
            }
            (start.elapsed().as_secs_f64(), steps)
        };
        // Warm both.
        run(&fused, &mut scratch, &mut strategy);
        run(&reference, &mut scratch, &mut strategy);
        let mut fused_t = Vec::new();
        let mut ref_t = Vec::new();
        // Interleave rounds so host-noise drift hits both sides equally.
        for _ in 0..ROUNDS {
            fused_t.push(run(&fused, &mut scratch, &mut strategy).0);
            ref_t.push(run(&reference, &mut scratch, &mut strategy).0);
        }
        fused_t.sort_by(f64::total_cmp);
        ref_t.sort_by(f64::total_cmp);
        let f = fused_t[ROUNDS / 2];
        let r = ref_t[ROUNDS / 2];
        println!(
            "{name:>15}: fused {:>9.0} paths/s | reference {:>9.0} paths/s | speedup {:.3}x",
            PATHS as f64 / f,
            PATHS as f64 / r,
            r / f,
        );
    }
}
