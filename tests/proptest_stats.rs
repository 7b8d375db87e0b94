//! Randomized tests for the statistics engine: order-unbiased parallel
//! collection, workload splitting, and stopping-rule sanity.

mod common;

use common::*;
use slimsim::stats::chernoff::Accuracy;
use slimsim::stats::parallel::RoundRobinCollector;
use slimsim::stats::sequential::GeneratorKind;

/// Drained output only depends on the per-worker streams, not on the
/// interleaving of arrivals — the §III-C bias fix.
#[test]
fn collector_is_arrival_order_invariant() {
    let mut rng = StdRng::seed_from_u64(0x5eed_c011);
    for case in 0..256 {
        let streams: Vec<Vec<bool>> =
            vec_of(&mut rng, 1, 5, |rng| vec_of(rng, 0, 12, |rng| rng.gen::<bool>()));
        let workers = streams.len();
        let schedule: Vec<usize> = vec_of(&mut rng, 0, 64, |rng| rng.gen_range(0..workers));

        // Reference: deliver stream-by-stream.
        let mut reference = RoundRobinCollector::new(workers);
        for (w, s) in streams.iter().enumerate() {
            for &b in s {
                reference.push(w, b);
            }
            reference.finish_worker(w);
        }
        let expected = reference.drain_rounds();

        // Interleaved delivery following a random schedule.
        let mut collector = RoundRobinCollector::new(workers);
        let mut cursors = vec![0usize; workers];
        let mut drained = Vec::new();
        for w in schedule {
            if cursors[w] < streams[w].len() {
                collector.push(w, streams[w][cursors[w]]);
                cursors[w] += 1;
                drained.extend(collector.drain_rounds());
            }
        }
        // Deliver the rest.
        for w in 0..workers {
            while cursors[w] < streams[w].len() {
                collector.push(w, streams[w][cursors[w]]);
                cursors[w] += 1;
            }
            collector.finish_worker(w);
        }
        drained.extend(collector.drain_rounds());
        assert_eq!(drained, expected, "case {case}");
    }
}

/// Every generator eventually stops and reports consistent counters.
#[test]
fn generators_terminate_and_count() {
    let mut rng = StdRng::seed_from_u64(0x5eed_9e4e);
    for case in 0..256 {
        let kind = *pick(&mut rng, &GeneratorKind::ALL);
        let p = rng.gen::<f64>();
        let seed = rng.gen::<u64>();
        let acc = Accuracy::new(0.05, 0.1).unwrap();
        let mut g = kind.instantiate(acc);
        let mut x = seed | 1;
        let mut fed: u64 = 0;
        let cap = acc.chernoff_samples() + 10;
        while !g.is_complete() && fed < cap {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            g.add(u < p);
            fed += 1;
        }
        assert!(g.is_complete(), "case {case}: {kind} did not stop within CH bound + 10");
        let e = g.estimate();
        assert_eq!(e.samples, fed, "case {case}");
        assert!(e.successes <= e.samples, "case {case}");
        assert!((0.0..=1.0).contains(&e.mean), "case {case}");
    }
}

/// The CH sample count is monotone: tighter ε or δ never needs fewer
/// samples.
#[test]
fn chernoff_monotone() {
    let mut rng = StdRng::seed_from_u64(0x5eed_307e);
    for case in 0..256 {
        let e1 = f64_in(&mut rng, 0.001, 0.5);
        let e2 = f64_in(&mut rng, 0.001, 0.5);
        let d = f64_in(&mut rng, 0.001, 0.5);
        let (tight, loose) = if e1 < e2 { (e1, e2) } else { (e2, e1) };
        let n_tight = Accuracy::new(tight, d).unwrap().chernoff_samples();
        let n_loose = Accuracy::new(loose, d).unwrap().chernoff_samples();
        assert!(n_tight >= n_loose, "case {case}");
    }
}
