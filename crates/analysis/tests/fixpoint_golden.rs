//! Golden digests of the interval×zone fixpoint, bit for bit.
//!
//! For each of the first 200 model-corpus models (seed 1, the corpus
//! generator knobs of the `model-corpus` benchmark workload), the
//! fixpoint is computed under four settings — deadline none / the
//! model's bound, zones on / off — and its `Debug` rendering (every
//! reachability flag, interval, zone bound, `k`, `rounds` and
//! `widenings`) is hashed with 64-bit FNV-1a. The table in
//! `fixpoint_golden.txt` pins those digests, so any change to the
//! engine's scheduling or buffers that alters a single published bit —
//! or the iteration counts — fails here.
//!
//! On a mismatch the test prints the full recomputed table; replace the
//! data file with it only when a change of the analysis is intended.

use slim_analysis::{analyze_network_with, AnalysisOptions, FixpointWork};
use slim_fuzz::{generate, GenParams};

const GOLDEN: &str = include_str!("fixpoint_golden.txt");
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

/// One table line: the model index, then the digests for (no deadline,
/// zones), (no deadline, no zones), (bound, zones), (bound, no zones).
/// Consecutive settings alternate the zone flag, so each call misses the
/// one-slot fixpoint memo and runs the engine.
fn digest_line(index: u64) -> String {
    let g = generate(SEED, index, &corpus_params());
    let net = g.network().expect("generated models lower");
    let mut line = format!("{index}");
    for deadline in [None, Some(g.bound)] {
        for zones in [true, false] {
            let fix = analyze_network_with(&net, &AnalysisOptions { zones, deadline });
            line.push_str(&format!(" {:016x}", fnv1a(format!("{fix:?}").as_bytes())));
        }
    }
    line
}

#[test]
fn fixpoints_match_the_golden_digests() {
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

/// The engine's work over the golden models (zones on, no deadline) is
/// pinned exactly: a change that does more (or less) work shows here even
/// when every digest above holds. Flow evaluations stay under 30 % of
/// `posts × flows`, the count without the flow baseline (125 940 here),
/// and processes without a tracked clock do no zone work (they did
/// 42 719 of 192 866 zone closures before it was skipped).
#[test]
fn fixpoint_work_is_pinned() {
    let mut w = FixpointWork::default();
    let mut post_flows = 0;
    for index in 0..MODELS {
        let g = generate(SEED, index, &corpus_params());
        let net = g.network().expect("generated models lower");
        let one = analyze_network_with(&net, &AnalysisOptions::default()).work();
        w.locations += one.locations;
        w.posts += one.posts;
        w.flow_evals += one.flow_evals;
        w.zone_closures += one.zone_closures;
        w.clockless_zone_closures += one.clockless_zone_closures;
        post_flows += one.posts * net.flows().len();
    }
    assert!(w.flow_evals * 10 <= post_flows * 3, "{} of {post_flows}", w.flow_evals);
    assert_eq!(w.clockless_zone_closures, 0);
    let expected = FixpointWork {
        locations: 36_449,
        posts: 49_779,
        flow_evals: 16_757,
        zone_closures: 150_147,
        clockless_zone_closures: 0,
    };
    assert_eq!(w, expected);
}
