//! Golden digests of the lint pre-flight, byte for byte.
//!
//! For each of the first 200 model-corpus models (seed 1, the corpus
//! generator knobs of the `model-corpus` benchmark workload), the network
//! is linted with the default configuration, and both renderings of the
//! diagnostics — the text form with source excerpts and the JSON-lines
//! form — are hashed with 64-bit FNV-1a, together with the pre-flight's
//! accept/reject decision. The table in `lint_golden.txt` pins those
//! digests, so any change to well-formedness checking, the fixpoint the
//! semantic passes consult, or the passes themselves that alters a single
//! rendered byte fails here.
//!
//! On a mismatch the test prints the full recomputed table; replace the
//! data file with it only when a change of the lints is intended.

use slim_fuzz::{generate, GenParams};
use slim_lint::{preflight, render_json_all, render_text_all, LintConfig, SourceFile};

const GOLDEN: &str = include_str!("lint_golden.txt");
const MODELS: u64 = 200;
const SEED: u64 = 1;

/// The `model-corpus` generator knobs: 12–24 components per model.
fn corpus_params() -> GenParams {
    GenParams {
        min_components: 12,
        max_components: 24,
        max_locations: 6,
        max_extra_transitions: 6,
        ..GenParams::stress()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One table line: the model index, the diagnostic count, the pre-flight
/// decision, then the digests of the text and JSON renderings.
fn digest_line(index: u64) -> String {
    let g = generate(SEED, index, &corpus_params());
    let net = g.network().expect("generated models lower");
    let (decision, diags) = match preflight(&net, &LintConfig::new()) {
        Ok(d) => ("ok", d),
        Err(d) => ("deny", d),
    };
    let src = SourceFile::new("model.slim", &g.source);
    let text = render_text_all(&diags, Some(&src));
    let json = render_json_all(&diags, Some("model.slim"));
    format!(
        "{index} {} {decision} {:016x} {:016x}",
        diags.len(),
        fnv1a(text.as_bytes()),
        fnv1a(json.as_bytes())
    )
}

#[test]
fn lints_match_the_golden_digests() {
    let actual: Vec<String> = (0..MODELS).map(digest_line).collect();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let diverging: Vec<u64> = (0..MODELS)
        .filter(|&i| expected.get(i as usize).copied() != Some(actual[i as usize].as_str()))
        .collect();
    if !diverging.is_empty() {
        eprintln!("recomputed table:\n{}", actual.join("\n"));
        panic!(
            "{} of {MODELS} models diverge from the golden digests: {diverging:?}",
            diverging.len()
        );
    }
}
