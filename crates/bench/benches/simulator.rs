//! Micro-benchmarks of the simulation engine: path-generation throughput
//! per model and strategy (the per-path cost that makes the simulator's
//! Table I columns flat).

use slim_automata::prelude::{Expr, IntervalSet, StepScratch};
use slim_models::gps::{gps_network, GpsParams};
use slim_models::launcher::{launcher_network, LauncherParams};
use slim_models::sensor_filter::{sensor_filter_network, SensorFilterParams, GOAL_VAR};
use slim_stats::rng::path_rng;
use slimsim_bench::harness::Harness;
use slimsim_core::prelude::*;

fn bench_path_generation(h: &mut Harness) {
    h.group("path_generation");

    // Sensor–filter (untimed, Markovian) at two sizes; the reused-scratch
    // hot path (what the runner's workers execute) vs the per-path
    // fresh-scratch wrapper.
    for size in [2, 6] {
        let net =
            sensor_filter_network(&SensorFilterParams { redundancy: size, ..Default::default() });
        let failed = net.var_id(GOAL_VAR).unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::var(failed)), 2.0);
        let gen = PathGenerator::new(&net, &prop, 100_000);
        let mut strategy = Asap;
        let mut scratch = SimScratch::new();
        let mut i = 0u64;
        h.bench(&format!("sensor_filter/{size}"), || {
            let mut rng = path_rng(1, i);
            i += 1;
            gen.generate_with(&mut scratch, &mut strategy, &mut rng, &mut NoHooks).unwrap()
        });
        let mut i = 0u64;
        h.bench(&format!("sensor_filter/{size}/fresh_scratch"), || {
            let mut rng = path_rng(1, i);
            i += 1;
            gen.generate(&mut strategy, &mut rng).unwrap()
        });
        // The batched driver, 32 lanes per iteration (divide the
        // reported time by 32 for the per-path cost).
        let mut batch_scratch = BatchScratch::new();
        let mut batch = Vec::new();
        let mut i = 0u64;
        h.bench(&format!("sensor_filter/{size}/batched32"), || {
            gen.generate_batch_with(
                &mut batch_scratch,
                &mut strategy,
                1,
                i,
                1,
                32,
                None,
                &mut batch,
            );
            i += 32;
            batch.drain(..).map(|r| r.unwrap().steps).sum::<u64>()
        });
    }

    // The launcher (timed, hybrid) per strategy.
    let net = launcher_network(&LauncherParams::default());
    let failure = net.var_id("failure").unwrap();
    let prop = TimedReach::new(Goal::expr(Expr::var(failure)), 2.0);
    let gen = PathGenerator::new(&net, &prop, 100_000);
    for kind in StrategyKind::ALL {
        let mut strategy = kind.instantiate();
        let mut scratch = SimScratch::new();
        let mut i = 0u64;
        h.bench(&format!("launcher/{kind}"), || {
            let mut rng = path_rng(2, i);
            i += 1;
            gen.generate_with(&mut scratch, strategy.as_mut(), &mut rng, &mut NoHooks).unwrap()
        });
    }

    // GPS (clock windows through the SLIM front-end).
    let net = gps_network(&GpsParams::default());
    let goal = Goal::in_location(&net, "gps.error_GpsError", "permanent").unwrap();
    let prop = TimedReach::new(goal, 10.0);
    let gen = PathGenerator::new(&net, &prop, 100_000);
    let mut strategy = Progressive;
    let mut scratch = SimScratch::new();
    let mut i = 0u64;
    h.bench("gps/progressive", || {
        let mut rng = path_rng(3, i);
        i += 1;
        gen.generate_with(&mut scratch, &mut strategy, &mut rng, &mut NoHooks).unwrap()
    });
    let mut batch_scratch = BatchScratch::new();
    let mut batch = Vec::new();
    let mut i = 0u64;
    h.bench("gps/progressive/batched32", || {
        gen.generate_batch_with(&mut batch_scratch, &mut strategy, 3, i, 1, 32, None, &mut batch);
        i += 32;
        batch.drain(..).map(|r| r.unwrap().steps).sum::<u64>()
    });
}

/// Steps-per-second of the raw stepping primitives: the compiled kernel
/// (`*_into` on a reused scratch) vs the legacy allocating methods.
fn bench_step_primitives(h: &mut Harness) {
    h.group("step_primitives");
    let net = launcher_network(&LauncherParams::default());
    let tables = net.compile();
    let mut s = StepScratch::new();
    let state = net.initial_state().unwrap();
    let mut window = IntervalSet::empty();
    net.delay_window_into(&tables, &mut s, &state, &mut window).unwrap();

    h.bench("guarded_candidates", || {
        net.guarded_candidates_into(&tables, &mut s, &state).unwrap();
        s.candidates().len()
    });
    h.bench("markovian_candidates", || {
        net.markovian_candidates_into(&tables, &mut s, &state);
        s.markovian().len()
    });
    h.bench("delay_window", || {
        net.delay_window_into(&tables, &mut s, &state, &mut window).unwrap();
    });
    let mut adv = state.clone();
    h.bench("advance", || {
        adv.copy_from(&state);
        net.advance_mut(&tables, &mut s, &mut adv, 0.05, &window).unwrap();
    });

    h.bench("legacy/guarded_candidates", || net.guarded_candidates(&state).unwrap());
    h.bench("legacy/markovian_candidates", || net.markovian_candidates(&state));
    h.bench("legacy/delay_window", || net.delay_window(&state).unwrap());
    h.bench("legacy/advance", || net.advance(&state, 0.05).unwrap());

    // The same primitives on the sensor–filter zoo model (pure-Markovian,
    // the throughput-gate worst case), plus the goal-window evaluation
    // the engine performs every step.
    let net = sensor_filter_network(&SensorFilterParams::default());
    let tables = net.compile();
    let mut s = StepScratch::new();
    let state = net.initial_state().unwrap();
    let mut window = IntervalSet::empty();
    net.delay_window_into(&tables, &mut s, &state, &mut window).unwrap();
    let failed = net.var_id(GOAL_VAR).unwrap();
    let goal = Goal::expr(Expr::var(failed)).compile(&net);
    let mut pool = GoalPool::new();
    let mut goal_win = IntervalSet::empty();
    h.bench("sensor_filter/goal_window", || {
        goal.window_into(&net, &mut s, &mut pool, &state, &mut goal_win).unwrap();
    });
    h.bench("sensor_filter/delay_window", || {
        net.delay_window_into(&tables, &mut s, &state, &mut window).unwrap();
    });
    h.bench("sensor_filter/guarded_candidates", || {
        net.guarded_candidates_into(&tables, &mut s, &state).unwrap();
        s.candidates().len()
    });
    h.bench("sensor_filter/markovian_candidates", || {
        net.markovian_candidates_into(&tables, &mut s, &state);
        s.markovian().len()
    });
    let mut adv = state.clone();
    h.bench("sensor_filter/advance", || {
        adv.copy_from(&state);
        net.advance_mut(&tables, &mut s, &mut adv, 0.05, &window).unwrap();
    });
    // Firing cost (effects + flow re-establishment) for one Markovian
    // unit failure, including the state restore that isolates it.
    net.markovian_candidates_into(&tables, &mut s, &state);
    let (mp, mt, _) = s.markovian()[0];
    let fire = [(mp, mt)];
    let mut fired = state.clone();
    h.bench("sensor_filter/apply", || {
        fired.copy_from(&state);
        net.apply_mut(&tables, &mut s, &mut fired, &fire).unwrap();
    });
    // The per-step RNG budget: the race's exponential draw plus the
    // categorical winner draw.
    let mut rng = path_rng(9, 0);
    h.bench("sensor_filter/rng_step", || {
        let u: f64 = rng.gen();
        let w: f64 = rng.gen();
        -u.ln() + w
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_path_generation(&mut h);
    bench_step_primitives(&mut h);
}
