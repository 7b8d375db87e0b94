//! `slimsim validate` — parse and statically analyze a SLIM file.

use crate::args::Args;
use slim_lang::{analyze_model, is_lowerable, lower, parse};
use slim_lint::{error_count, render_text_all, SourceFile};

/// Parses the file, prints diagnostics, and (if a `--root` is given and
/// no errors were found) attempts full lowering.
pub fn run(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("expected a .slim file")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let model = parse(&src).map_err(|e| format!("{path}: {e}"))?;
    outln!(
        "parsed `{path}`: {} types, {} implementations, {} error models, {} injections",
        model.types.len(),
        model.impls.len(),
        model.error_models.len(),
        model.injections.len()
    );

    let diags = analyze_model(&model);
    let source = SourceFile::new(path, &src);
    if !diags.is_empty() {
        outln!("{}", render_text_all(&diags, Some(&source)));
    }
    let errors = error_count(&diags);

    if let Some(root) = args.options.get("root") {
        if !is_lowerable(&diags) {
            return Err("not lowering: fix the errors above first".into());
        }
        let (ty, im) = root
            .split_once('.')
            .ok_or_else(|| format!("--root must be Type.Impl, got `{root}`"))?;
        let name = args.opt("name", "root");
        let net = lower(&model, ty, im, name).map_err(|e| format!("{path}: {e}"))?.network;
        outln!(
            "lowering OK: {} automata, {} variables, {} actions, {} flows",
            net.automata().len(),
            net.vars().len(),
            net.actions().len(),
            net.flows().len()
        );
    }
    if errors > 0 {
        Err(format!("{errors} error(s)"))
    } else {
        Ok(())
    }
}
