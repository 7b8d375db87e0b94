//! `slimsim lint` — run the static lint passes over a model.
//!
//! For a `.slim` file the front-end lints (`S0xx`) run first, with source
//! excerpts; when the front end is clean and a `--root Type.Impl` is given
//! (or the model has exactly one implementation) the model is lowered and
//! the network passes (`S1xx`/`S2xx`/`S3xx`) run too. Built-in models
//! skip the front end and lint the instantiated network directly.
//!
//! `--verify-bytecode` additionally compiles the (lint-clean) network's
//! step tables and runs the bytecode verifier over every compiled
//! program — guards, effects, invariants, flows.

use crate::args::Args;
use crate::common::load_network;
use slim_automata::network::Network;
use slim_lang::{analyze_model, lower, parse};
use slim_lint::{
    error_count, has_errors, lint_network, render_json_all, render_text_all, Diagnostic, Level,
    LintConfig, SourceFile,
};

/// Builds the lint configuration from `--allow`/`--warn`/`--deny`
/// (comma-separated code lists) and `--deny-lints`.
pub fn load_lint_config(args: &Args) -> Result<LintConfig, String> {
    let mut cfg = LintConfig::new();
    cfg.deny_warnings = args.has_flag("deny-lints");
    for (key, level) in [("allow", Level::Allow), ("warn", Level::Warn), ("deny", Level::Deny)] {
        if let Some(list) = args.options.get(key) {
            for lint in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                if !cfg.set_by_name(lint, level) {
                    return Err(format!("--{key}: unknown lint `{lint}`"));
                }
            }
        }
    }
    Ok(cfg)
}

/// Prints diagnostics in text (with excerpts when the source is at hand)
/// or JSON-lines form.
fn emit(args: &Args, diags: &[Diagnostic], src: Option<&SourceFile<'_>>) {
    if args.has_flag("json") {
        let rendered = render_json_all(diags, src.map(|s| s.name));
        if !rendered.is_empty() {
            outln!("{rendered}");
        }
    } else {
        let rendered = render_text_all(diags, src);
        if !rendered.is_empty() {
            outln!("{rendered}");
        }
    }
}

/// Runs the linter; exits nonzero iff error-level diagnostics remain.
pub fn run(args: &Args) -> Result<(), String> {
    let target = args.positional.first().ok_or("expected a model: a .slim file or a built-in")?;
    let cfg = load_lint_config(args)?;
    let mut all: Vec<Diagnostic> = Vec::new();
    // Network kept around for `--verify-bytecode` (only lowered models
    // have one; compiling requires a well-formed network, so the stage
    // runs only when no error-level lints remain).
    let mut compiled_target: Option<Network> = None;

    if std::path::Path::new(target.as_str()).extension().is_some_and(|e| e == "slim") {
        let text =
            std::fs::read_to_string(target).map_err(|e| format!("cannot read `{target}`: {e}"))?;
        let src = SourceFile::new(target, &text);
        let model = parse(&text).map_err(|e| format!("{target}: {e}"))?;
        let front = cfg.apply(analyze_model(&model));
        let front_clean = !has_errors(&front);
        all.extend(front);

        // Lower and lint the network when the front end is clean and a
        // root is known (explicit --root, or an unambiguous model).
        let root = match args.options.get("root") {
            Some(r) => {
                let (ty, im) = r
                    .split_once('.')
                    .ok_or_else(|| format!("--root must be Type.Impl, got `{r}`"))?;
                Some((ty.to_string(), im.to_string()))
            }
            None if model.impls.len() == 1 => {
                let (ty, im) = &model.impls[0].name;
                Some((ty.clone(), im.clone()))
            }
            None => None,
        };
        if front_clean {
            if let Some((ty, im)) = root {
                let name = args.opt("name", "root");
                let net =
                    lower(&model, &ty, &im, name).map_err(|e| format!("{target}: {e}"))?.network;
                all.extend(lint_network(&net, &cfg));
                compiled_target = Some(net);
            } else if !args.has_flag("quiet") {
                let impls: Vec<String> =
                    model.impls.iter().map(|i| format!("{}.{}", i.name.0, i.name.1)).collect();
                eprintln!(
                    "note: network lints skipped: {} implementations ({}); pass --root Type.Impl",
                    impls.len(),
                    impls.join(", ")
                );
            }
        }
        emit(args, &all, Some(&src));
    } else {
        let net = load_network(args)?;
        all = lint_network(&net, &cfg);
        emit(args, &all, None);
        compiled_target = Some(net);
    }

    let errors = error_count(&all);
    if errors > 0 {
        Err(format!("{errors} error-level lint(s)"))
    } else {
        if args.has_flag("verify-bytecode") {
            match &compiled_target {
                Some(net) => verify_bytecode(net, args.has_flag("quiet"))?,
                None => {
                    return Err(
                        "--verify-bytecode needs a lowered network; pass --root Type.Impl".into()
                    )
                }
            }
        }
        if all.is_empty() && !args.has_flag("json") && !args.has_flag("quiet") {
            outln!("clean: no lints");
        }
        Ok(())
    }
}

/// Compiles the step tables and runs the stack-depth/type/jump-target
/// verifier over every compiled program, printing a one-line inventory.
fn verify_bytecode(net: &Network, quiet: bool) -> Result<(), String> {
    let report = net
        .compile()
        .verify_bytecode()
        .map_err(|e| format!("bytecode verification failed: {e}"))?;
    if !quiet {
        outln!(
            "bytecode: {} program(s) verified, {} op(s); {} static guard(s), {} fallback guard(s)",
            report.programs(),
            report.ops,
            report.static_guards,
            report.fallback_guards
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    fn example(name: &str) -> String {
        format!("{}/../../examples/models/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn verify_bytecode_on_clean_model() {
        let a = args(&format!(
            "lint {} --verify-bytecode --deny-lints --quiet",
            example("heartbeat.slim")
        ));
        run(&a).expect("heartbeat.slim is lint-clean and its bytecode verifies");
    }

    #[test]
    fn verify_bytecode_on_builtin() {
        let a = args("lint gps --verify-bytecode --quiet");
        run(&a).expect("builtin models compile to verifiable bytecode");
    }

    #[test]
    fn broken_model_fails_deny_lints_before_verification() {
        let a = args(&format!(
            "lint {} --verify-bytecode --deny-lints --quiet",
            example("broken.slim")
        ));
        assert!(run(&a).is_err(), "warnings escalate to errors under --deny-lints");
    }
}
