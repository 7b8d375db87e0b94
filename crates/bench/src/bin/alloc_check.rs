//! Proves the simulator's zero-allocation steady-state contract.
//!
//! ```text
//! cargo run -p slimsim-bench --release --bin alloc_check
//! ```
//!
//! For each model the check builds a [`PathGenerator`] and one
//! [`SimScratch`], runs warm-up paths so every pooled buffer reaches its
//! steady-state capacity, resets the global allocation counter, runs the
//! measured paths, and requires the counter delta to be **exactly zero**.
//! The batched driver is gated the same way on every model: one
//! [`BatchScratch`], warm-up batches to steady state, then measured
//! batches that must allocate nothing (the reused output `Vec` included).
//! Any regression that sneaks an allocation into the hot loop — a
//! `clone`, a `Vec` literal, a formatted error on the happy path — fails
//! the process with a nonzero exit code, which CI treats as a hard error.
//!
//! The CTMC explorer is held to its own contract: besides compiling the
//! step tables once, it allocates only each state's own edge lists plus
//! amortised (logarithmically many) growth of its arena, index and state
//! table — never per explored state or per successor.

use slim_automata::prelude::{Expr, NetState, Network};
use slim_ctmc::explore::{explore, ExploreConfig};
use slim_models::{
    gps_network, repair_network, sensor_filter_network, voting_network, GpsParams, RepairParams,
    SensorFilterParams, VotingParams,
};
use slim_stats::rng::path_rng;
use slimsim_bench::alloc::{self, CountingAllocator};
use slimsim_core::prelude::*;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const WARM_PATHS: u64 = 512;
const MEASURED_PATHS: u64 = 512;

struct Case {
    name: &'static str,
    net: Network,
    goal_var: &'static str,
    bound: f64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "sensor_filter",
            net: sensor_filter_network(&SensorFilterParams::default()),
            goal_var: slim_models::GOAL_VAR,
            bound: 1.0,
        },
        Case {
            name: "voting",
            net: voting_network(&VotingParams::default()),
            goal_var: slim_models::VOTING_GOAL_VAR,
            bound: 1.0,
        },
        Case {
            name: "repair",
            net: repair_network(&RepairParams::default()),
            goal_var: slim_models::REPAIR_GOAL_VAR,
            bound: 2.0,
        },
        Case {
            name: "gps",
            net: gps_network(&GpsParams::default()),
            goal_var: "gps.measurement",
            bound: 10.0,
        },
    ]
}

fn main() {
    let mut failures = 0usize;
    let mut gated = 0usize;
    for case in cases() {
        let goal = Goal::expr(Expr::var(case.net.var_id(case.goal_var).expect("goal variable")));
        let property = TimedReach::new(goal, case.bound);
        let gen = PathGenerator::new(&case.net, &property, 100_000);
        // Every well-typed guard compiles to solver bytecode; any AST
        // fallback in a zoo model is a compiler regression and fails the
        // gate outright.
        let fallbacks = gen.tables().fallback_guards();
        let mut strategy = Asap;
        let mut scratch = SimScratch::new();

        for i in 0..WARM_PATHS {
            let mut rng = path_rng(1, i);
            black_box(
                gen.generate_with(&mut scratch, &mut strategy, &mut rng, &mut NoHooks).unwrap(),
            );
        }

        alloc::reset();
        let mut steps = 0u64;
        for i in WARM_PATHS..WARM_PATHS + MEASURED_PATHS {
            let mut rng = path_rng(1, i);
            let out =
                gen.generate_with(&mut scratch, &mut strategy, &mut rng, &mut NoHooks).unwrap();
            steps += out.steps;
            black_box(out);
        }
        let (calls, bytes) = alloc::counts();

        // The batched driver under the same contract: warm every
        // lane (and the reused output buffer) to steady state, then
        // require zero allocations across the measured batches.
        const LANES: u64 = 32;
        let mut batch_scratch = BatchScratch::new();
        let mut batch = Vec::new();
        let mut run_batches = |from: u64, to: u64, steps: &mut u64| {
            let mut i = from;
            while i < to {
                let count = (to - i).min(LANES) as usize;
                gen.generate_batch_with(
                    &mut batch_scratch,
                    &mut strategy,
                    1,
                    i,
                    1,
                    count,
                    None,
                    &mut batch,
                );
                for r in batch.drain(..) {
                    let out = r.unwrap();
                    *steps += out.steps;
                    black_box(out);
                }
                i += count as u64;
            }
        };
        let mut batch_steps = 0u64;
        run_batches(0, WARM_PATHS, &mut batch_steps);
        alloc::reset();
        batch_steps = 0;
        run_batches(WARM_PATHS, WARM_PATHS + MEASURED_PATHS, &mut batch_steps);
        let (batch_calls, batch_bytes) = alloc::counts();

        let verdict = if fallbacks > 0 {
            failures += 1;
            format!("FAIL ({fallbacks} AST-fallback guards)")
        } else if calls == 0 && batch_calls == 0 {
            gated += 1;
            "OK".to_string()
        } else {
            failures += 1;
            "FAIL".to_string()
        };
        println!(
            "{:>14}: scalar {MEASURED_PATHS} paths, {steps} steps — {calls} allocations \
             ({bytes} bytes); batched {MEASURED_PATHS} paths, {batch_steps} steps — \
             {batch_calls} allocations ({batch_bytes} bytes) [{verdict}]",
            case.name
        );
    }

    if !explore_allocations_amortised() {
        failures += 1;
    }

    if failures > 0 {
        eprintln!("alloc_check: {failures} model(s) allocated in the steady-state hot path");
        std::process::exit(1);
    }
    if gated == 0 {
        eprintln!("alloc_check: no fully-compiled model exercised the zero-allocation gate");
        std::process::exit(1);
    }
    println!("alloc_check: steady-state hot path is allocation-free ({gated} model(s) gated)");
}

/// Explores the sensor–filter model (n = 6, 16 380 states) and checks that
/// every allocation beyond step-table compilation and the IMC's own
/// non-empty edge lists is amortised growth: a fixed budget that any
/// per-state or per-successor allocation would exceed many times over.
fn explore_allocations_amortised() -> bool {
    const GROWTH_BUDGET: u64 = 256;
    let net = sensor_filter_network(&SensorFilterParams { redundancy: 6, ..Default::default() });
    let failed = net.var_id(slim_models::GOAL_VAR).expect("goal variable");
    let goal = move |s: &NetState| s.nu.get(failed).map(|v| v.as_bool().unwrap_or(false));

    alloc::reset();
    black_box(net.compile());
    let (compile_calls, _) = alloc::counts();

    alloc::reset();
    let explored = explore(&net, &goal, &ExploreConfig::default()).expect("explores");
    let (calls, bytes) = alloc::counts();
    let edge_lists: u64 = explored
        .imc
        .states
        .iter()
        .map(|s| u64::from(!s.interactive.is_empty()) + u64::from(!s.markovian.is_empty()))
        .sum();
    let growth = calls.saturating_sub(compile_calls + edge_lists);
    let ok = growth <= GROWTH_BUDGET;
    println!(
        "{:>14}: explore n=6, {} states — {calls} allocations ({bytes} bytes) = {compile_calls} \
         compile + {edge_lists} edge lists + {growth} growth (budget {GROWTH_BUDGET}) [{}]",
        "ctmc",
        explored.states,
        if ok { "OK" } else { "FAIL" }
    );
    ok
}
