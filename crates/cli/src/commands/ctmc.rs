//! `slimsim ctmc` — the COMPASS-style CTMC baseline pipeline.

use crate::args::Args;
use crate::common::{load_bound, load_goal, load_network};
use slim_automata::prelude::NetState;
use slim_ctmc::analysis::{check_timed_reachability, PipelineConfig};

/// Runs the explore → eliminate → lump → uniformization pipeline.
pub fn run(args: &Args) -> Result<(), String> {
    let net = load_network(args)?;
    let goal = load_goal(args, &net)?;
    let bound = load_bound(args)?;
    let config =
        PipelineConfig { skip_lumping: args.has_flag("skip-lumping"), ..Default::default() };

    let net_ref = &net;
    let goal_fn = move |s: &NetState| goal.holds(net_ref, s);
    let r = check_timed_reachability(&net, &goal_fn, bound, &config).map_err(|e| e.to_string())?;

    if !args.has_flag("quiet") {
        outln!("states     : {} reachable, {} transitions", r.states, r.transitions);
        outln!("tangible   : {} (after vanishing elimination)", r.tangible_states);
        outln!("lumped     : {}", r.lumped_states);
        outln!("memory     : ~{} KiB (stored state space)", r.approx_memory_bytes / 1024);
        let (explore, eliminate, lump, transient) = r.phase_wall;
        outln!(
            "wall time  : {:?} (explore {:?}, eliminate {:?}, lump {:?}, transient {:?})",
            r.wall,
            explore,
            eliminate,
            lump,
            transient
        );
    }
    outln!("P(◇[0,{bound}] goal) = {:.9}", r.probability);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        crate::args::Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn ctmc_builtin_runs() {
        run(&args("ctmc sensor-filter --size 2 --bound 1.0 --quiet")).expect("pipeline runs");
        run(&args("ctmc sensor-filter --size 2 --bound 1.0 --quiet --skip-lumping"))
            .expect("ablation runs");
    }

    #[test]
    fn ctmc_rejects_timed_models() {
        let r = run(&args("ctmc gps --bound 1.0 --goal-var gps.measurement --quiet"));
        assert!(r.is_err(), "timed model must be rejected");
        assert!(r.unwrap_err().contains("timed"));
    }

    #[test]
    fn ctmc_rejects_real_data_variables() {
        let model =
            format!("{}/../../tests/fixtures/ctmc_real_var.slim", env!("CARGO_MANIFEST_DIR"));
        let cmd =
            format!("ctmc {model} --root Tank.Main --bound 1.0 --goal-var root.empty --quiet");
        let err = run(&args(&cmd)).expect_err("a real-valued variable must be rejected");
        assert!(err.contains("`root.level`") && err.contains("real-valued"), "{err}");
    }
}
