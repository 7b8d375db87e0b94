//! `slimsim interactive` — step a path manually with the Input strategy
//! (the paper's GUI/manual mode, §III-B).

use crate::args::Args;
use crate::common::{load_bound, load_config, load_goal, load_network, start_event};
use slim_stats::rng::path_rng;
use slimsim_core::prelude::*;
use std::io::{BufRead, Write};

/// An oracle that prints the alternatives and reads decisions from stdin.
struct StdinOracle;

impl InputOracle for StdinOracle {
    fn choose(&mut self, view: &StepView<'_>) -> Result<InputChoice, SimError> {
        outln!("\nstate: {}", view.state);
        outln!("allowed delay window: {}", view.window);
        if view.guarded.is_empty() {
            outln!("no guarded transitions are schedulable from here");
        }
        for (i, c) in view.guarded.iter().enumerate() {
            let action = &view.net.actions()[c.transition.action.0].name;
            let participants: Vec<String> = c
                .transition
                .parts
                .iter()
                .map(|(p, _)| view.net.automata()[p.0].name.clone())
                .collect();
            outln!("  [{i}] {action} ({}) enabled at delays {}", participants.join("∥"), c.window);
        }
        loop {
            out!("> fire <i> <delay> | wait <delay> | abort: ");
            std::io::stdout().flush().ok();
            let mut line = String::new();
            if std::io::stdin().lock().read_line(&mut line).unwrap_or(0) == 0 {
                return Ok(InputChoice::Abort);
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["abort"] | ["quit"] | ["q"] => return Ok(InputChoice::Abort),
                ["wait", d] => {
                    if let Ok(delay) = d.parse() {
                        return Ok(InputChoice::Wait { delay });
                    }
                }
                ["fire", i, d] => {
                    if let (Ok(candidate), Ok(delay)) = (i.parse(), d.parse()) {
                        return Ok(InputChoice::Fire { candidate, delay });
                    }
                }
                _ => {}
            }
            outln!("could not parse that — try again");
        }
    }
}

/// Parses a decision script: one `fire <i> <delay>` / `wait <delay>` /
/// `abort` per line (`#` comments and blank lines ignored).
fn parse_script(text: &str) -> Result<Vec<InputChoice>, String> {
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let choice = match parts.as_slice() {
            ["abort"] => InputChoice::Abort,
            ["wait", d] => InputChoice::Wait {
                delay: d.parse().map_err(|_| format!("line {}: bad delay `{d}`", no + 1))?,
            },
            ["fire", i, d] => InputChoice::Fire {
                candidate: i.parse().map_err(|_| format!("line {}: bad index `{i}`", no + 1))?,
                delay: d.parse().map_err(|_| format!("line {}: bad delay `{d}`", no + 1))?,
            },
            _ => return Err(format!("line {}: cannot parse `{line}`", no + 1)),
        };
        out.push(choice);
    }
    Ok(out)
}

/// Runs one interactively-driven path (or replays a `--script` file).
pub fn run(args: &Args) -> Result<(), String> {
    let net = load_network(args)?;
    let goal = load_goal(args, &net)?;
    let bound = load_bound(args)?;
    let property = TimedReach::new(goal, bound);
    let config = load_config(args)?;
    let seed = config.seed;

    let gen = PathGenerator::new(&net, &property, config.max_steps);
    let mut rng = path_rng(seed, 0);
    let mut sink = MemorySink::default();

    let result = {
        let mut tracer = PathTracer::new(&net, &mut sink);
        let mut header = start_event(args, &config, &property, 0);
        if let TraceEvent::Start { strategy, .. } = &mut header {
            // The path is driven by the user, not the configured strategy.
            *strategy = "input".to_string();
        }
        tracer.emit(header);
        if let Some(path) = args.options.get("script") {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let choices = parse_script(&text)?;
            outln!("replaying {} scripted decisions from {path}", choices.len());
            let mut strategy = Input::new(ScriptedOracle::new(choices));
            gen.generate_with(&mut SimScratch::new(), &mut strategy, &mut rng, &mut tracer)
        } else {
            outln!("interactive simulation — P(◇[0,{bound}] goal); you are the strategy.");
            outln!("(Markovian transitions still race with your schedule.)");
            let mut strategy = Input::new(StdinOracle);
            gen.generate_with(&mut SimScratch::new(), &mut strategy, &mut rng, &mut tracer)
        }
    };
    match result {
        Ok(outcome) => {
            if let Some(path) = args.options.get("save-trace") {
                std::fs::write(path, events_to_json_lines(&sink.events))
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                outln!("trace written to {path} (replay with `slimsim replay {path}`)");
            }
            outln!("\n--- path ---");
            for e in &sink.events {
                outln!("  {e}");
            }
            outln!(
                "verdict: {} at t={:.6} after {} steps — the property is {}",
                outcome.verdict,
                outcome.end_time,
                outcome.steps,
                if outcome.verdict.is_success() { "satisfied" } else { "falsified" }
            );
            Ok(())
        }
        Err(SimError::InputAborted) => {
            outln!("aborted.");
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}
