//! Analysis orchestration: drives the path generator until the statistical
//! generator is satisfied, sequentially or in parallel (§III-C).
//!
//! Reproducibility: path `i` always consumes RNG stream `derive(seed, i)`,
//! and the estimator consumes outcomes in path-index order whatever the
//! worker count. Workers sample *blocks* of consecutive path indices,
//! handed out block-cyclically — worker `w` of `k` takes blocks `w`,
//! `w + k`, `w + 2k`, … — and the round-robin collector releases whole
//! blocks in block order. Workers may finish in any order; the consumed
//! sequence, and with it the estimate, the path statistics, witness
//! selection and the convergence series, does not depend on it.
//!
//! The runner is written against a small [`PathSource`] seam rather than
//! the engine directly, so its concurrency protocol — block distribution,
//! round-robin collection, completion, failure propagation — is testable
//! with deterministic mock samplers (panics, locks, slow late paths).

use crate::config::{DeadlockPolicy, SimConfig};
use crate::engine::{BatchScratch, NoHooks, PathGenerator, PathHooks};
use crate::error::SimError;
use crate::obs::{PathObserver, SimObserver};
use crate::preverdict::{pre_verdict_with, PreVerdict};
use crate::property::TimedReach;
use crate::strategy::Strategy;
use crate::verdict::{PathOutcome, PathStats};
use slim_automata::prelude::{profile_shape, Network};
use slim_obs::profile::KernelProfile;
use slim_obs::report::ConvergencePoint;
use slim_stats::chernoff::Accuracy;
use slim_stats::estimator::{Estimate, Generator};
use slim_stats::parallel::RoundRobinCollector;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Result of a statistical analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisResult {
    /// The probability estimate with its accuracy.
    pub estimate: Estimate,
    /// Path verdict counters.
    pub stats: PathStats,
    /// Wall-clock duration of the analysis.
    pub wall: Duration,
    /// Approximate peak memory attributable to the analysis (state size +
    /// bookkeeping), in bytes — the simulator's memory column of Table I.
    pub approx_memory_bytes: usize,
    /// Static pre-verdict: [`PreVerdict::Unknown`] when the estimate was
    /// sampled, otherwise the exact short-circuit that produced it (with
    /// `estimate.samples == 0`).
    pub pre_verdict: PreVerdict,
}

impl AnalysisResult {
    /// The estimated probability.
    pub fn probability(&self) -> f64 {
        self.estimate.mean
    }
}

/// Where the runner gets its per-index path samples from.
///
/// Production uses [`EngineSource`] (the simulation engine seeded per
/// index); tests substitute deterministic mocks to pin down the runner's
/// failure and completion semantics without racing real simulations.
pub(crate) trait PathSource: Sync {
    /// Per-worker reusable workspace threaded through [`Self::sample_batch`].
    type Scratch;

    /// Creates a fresh workspace (once per worker, not per path).
    fn make_scratch(&self) -> Self::Scratch;

    /// Generates the outcomes of the `count` consecutive paths from index
    /// `start`, clearing `out` and pushing one result per path in index
    /// order.
    fn sample_batch(
        &self,
        start: u64,
        count: usize,
        scratch: &mut Self::Scratch,
        strategy: &mut dyn Strategy,
        out: &mut Vec<Result<PathOutcome, SimError>>,
    );

    /// Takes back the workspace of a worker that has finished sampling.
    fn finish_scratch(&self, scratch: Self::Scratch) {
        let _ = scratch;
    }

    /// Size of one simulation state in bytes (for the memory estimate).
    fn state_bytes(&self) -> usize;
}

/// The engine hooks one worker drives. Every worker starts from a clone
/// of the run's hooks; [`EngineSource`] absorbs them back when the worker
/// finishes.
trait WorkerHooks: PathHooks + Clone + Send + Sync {
    /// Called before every driver call.
    fn begin_batch(&mut self) {}

    /// Folds the hooks of a finished worker into `self`.
    fn absorb(&mut self, finished: Self) {
        let _ = finished;
    }
}

impl WorkerHooks for NoHooks {}

impl WorkerHooks for PathObserver<'_> {
    /// Times each batch from its own start rather than from the previous
    /// flush, which would bill the consumer's work to the next batch.
    fn begin_batch(&mut self) {
        self.restart();
    }
}

/// Profiles merge with wrapping adds, which commute: the merged profile
/// does not depend on the order workers finish in.
impl WorkerHooks for KernelProfile {
    fn absorb(&mut self, finished: KernelProfile) {
        self.merge(&finished);
    }
}

/// The production source: the engine's batched driver, seeded per path
/// index, with per-worker hooks.
struct EngineSource<'a, H> {
    gen: PathGenerator<'a>,
    seed: u64,
    /// Every worker's hooks start as a clone of this value.
    hooks: H,
    /// A clone of `hooks` that absorbed the hooks of every finished worker.
    finished: Mutex<H>,
}

impl<'a, H: WorkerHooks> EngineSource<'a, H> {
    fn new(gen: PathGenerator<'a>, seed: u64, hooks: H) -> Self {
        EngineSource { gen, seed, finished: Mutex::new(hooks.clone()), hooks }
    }

    fn into_hooks(self) -> H {
        self.finished.into_inner().expect("no worker panics while absorbing")
    }
}

impl<H: WorkerHooks> PathSource for EngineSource<'_, H> {
    type Scratch = (BatchScratch, H);

    fn make_scratch(&self) -> (BatchScratch, H) {
        (BatchScratch::new(), self.hooks.clone())
    }

    fn sample_batch(
        &self,
        start: u64,
        count: usize,
        (scratch, hooks): &mut (BatchScratch, H),
        strategy: &mut dyn Strategy,
        out: &mut Vec<Result<PathOutcome, SimError>>,
    ) {
        hooks.begin_batch();
        self.gen.generate_batch_hooked(scratch, strategy, self.seed, start, 1, count, hooks, out);
    }

    fn finish_scratch(&self, (_, hooks): (BatchScratch, H)) {
        self.finished.lock().expect("no worker panics while absorbing").absorb(hooks);
    }

    fn state_bytes(&self) -> usize {
        self.gen.network().state_size_bytes()
    }
}

/// Runs the statistical analysis described by `config`.
///
/// # Errors
/// * [`SimError::DeadlockDetected`] under [`DeadlockPolicy::Error`];
/// * evaluation errors from ill-formed dynamic behavior;
/// * worker failures in parallel mode.
pub fn analyze(
    net: &Network,
    property: &TimedReach,
    config: &SimConfig,
) -> Result<AnalysisResult, SimError> {
    analyze_observed(net, property, config, None)
}

/// Runs the statistical analysis with optional instrumentation.
///
/// With `obs == Some`, the runner records per-path and per-worker metrics,
/// `simulate`/`estimate` phase timings, collector depth, and drives the
/// observer's progress callback. The observer never feeds back into
/// simulation (it is consulted only after samples are produced and never
/// touches the RNG), so results are bit-identical with and without it.
///
/// # Errors
/// See [`analyze`].
pub fn analyze_observed(
    net: &Network,
    property: &TimedReach,
    config: &SimConfig,
    obs: Option<&SimObserver>,
) -> Result<AnalysisResult, SimError> {
    match obs {
        Some(o) => Ok(analyze_with_hooks(net, property, config, obs, PathObserver::new(o))?.0),
        None => Ok(analyze_with_hooks(net, property, config, None, NoHooks)?.0),
    }
}

/// Runs the statistical analysis with the kernel profiler attached,
/// returning the merged [`KernelProfile`] alongside the analysis result.
///
/// This is [`analyze_observed`] with a [`KernelProfile`] as every
/// worker's engine hooks, and with the static pre-verdict short-circuit
/// skipped: a decisive pre-verdict samples zero paths, leaving nothing
/// to profile. The observer still sees every consumed sample — witness
/// selection, the convergence series and progress are those of the
/// unprofiled run.
///
/// Determinism contract: the profile is a pure function of `(model,
/// property, seed, accuracy, batch_lanes)` — in particular it is
/// byte-identical for every worker count. Profiling requires a generator
/// with an a-priori known sample target (the Chernoff–Hoeffding bound),
/// so the sampled path set is exactly `0..target`; the runner samples it
/// in the same `batch_lanes`-wide blocks of consecutive indices for every
/// worker count, so batch composition does not change either; and
/// worker profiles merge with commutative wrapping adds.
///
/// # Errors
/// * [`SimError::InvalidInput`] when `config.generator` has no known
///   sample target (sequential stopping rules sample a
///   worker-count-dependent path set — there is no deterministic profile
///   to report);
/// * everything [`analyze`] can raise.
pub fn analyze_profiled(
    net: &Network,
    property: &TimedReach,
    config: &SimConfig,
    obs: Option<&SimObserver>,
) -> Result<(AnalysisResult, KernelProfile), SimError> {
    if config.generator.instantiate(config.accuracy).known_target().is_none() {
        return Err(SimError::InvalidInput {
            detail: "profiling requires a fixed-target generator (chernoff); sequential \
                     stopping rules sample a worker-count-dependent path set"
                .to_string(),
        });
    }
    let config = config.with_static_pre_verdicts(false);
    analyze_with_hooks(net, property, &config, obs, KernelProfile::new(profile_shape(net)))
}

/// Runs the analysis with clones of `hooks` driving every worker's
/// engine, returning the result and the hooks with every worker's
/// absorbed.
fn analyze_with_hooks<H: WorkerHooks>(
    net: &Network,
    property: &TimedReach,
    config: &SimConfig,
    obs: Option<&SimObserver>,
    hooks: H,
) -> Result<(AnalysisResult, H), SimError> {
    if config.static_pre_verdicts {
        let start = Instant::now();
        let verdict = pre_verdict_with(net, property, config.zone_pre_verdicts);
        if let Some(p) = verdict.exact_probability() {
            return Ok((exact_result(net, verdict, p, start, obs), hooks));
        }
    }
    let gen = PathGenerator::new(net, property, config.max_steps);
    let source = EngineSource::new(gen, config.seed, hooks);
    let result = if config.workers <= 1 {
        analyze_sequential_impl(&source, config, obs)
    } else {
        analyze_parallel_impl(&source, config, obs)
    }?;
    Ok((result, source.into_hooks()))
}

/// Builds the zero-sample result of a decisive static pre-verdict. The
/// estimate is exact (`epsilon = 0`, `confidence = 1`), and the `static`
/// phase records the fixpoint time so instrumented reports stay non-empty.
fn exact_result(
    net: &Network,
    verdict: PreVerdict,
    p: f64,
    start: Instant,
    obs: Option<&SimObserver>,
) -> AnalysisResult {
    let stats = PathStats::default();
    let estimate = Estimate { mean: p, samples: 0, successes: 0, epsilon: 0.0, confidence: 1.0 };
    if let Some(o) = obs {
        o.record_phase("static", start.elapsed());
        o.on_progress(0, Some(0), Some((p, 0.0)));
    }
    AnalysisResult {
        estimate,
        stats,
        wall: start.elapsed(),
        approx_memory_bytes: approx_memory(net.state_size_bytes(), &stats),
        pre_verdict: verdict,
    }
}

fn check_deadlock_policy(config: &SimConfig, outcome: &PathOutcome) -> Result<(), SimError> {
    if config.deadlock_policy == DeadlockPolicy::Error && outcome.verdict.is_lock() {
        return Err(SimError::DeadlockDetected {
            time: outcome.end_time,
            description: format!("{} after {} steps", outcome.verdict, outcome.steps),
        });
    }
    Ok(())
}

/// The live `(p̂, half_width)` pair for progress lines and convergence
/// checkpoints. The half-width is the Hoeffding bound at the current
/// sample count (`Accuracy::epsilon_for_samples`) — a uniform,
/// generator-independent measure of how tight the estimate is so far.
fn current_estimate(generator: &dyn Generator, accuracy: Accuracy) -> Option<(f64, f64)> {
    let n = generator.samples();
    (n > 0).then(|| (generator.estimate().mean, accuracy.epsilon_for_samples(n)))
}

/// Geometric (~×1.25) checkpoint schedule over *accepted* samples.
///
/// Evaluated once per accepted sample — never per drain batch — so the
/// recorded series is identical for every worker count and channel
/// interleaving.
struct ConvergenceSchedule {
    next: u64,
}

impl ConvergenceSchedule {
    fn new() -> ConvergenceSchedule {
        ConvergenceSchedule { next: 1 }
    }

    fn after_sample(&mut self, generator: &dyn Generator, accuracy: Accuracy, obs: &SimObserver) {
        let n = generator.samples();
        if n < self.next {
            return;
        }
        if let Some((mean, half_width)) = current_estimate(generator, accuracy) {
            obs.record_convergence(ConvergencePoint { samples: n, mean, half_width });
        }
        while self.next <= n {
            self.next += (self.next / 4).max(1);
        }
    }
}

/// The estimator side of a run, shared by the sequential and parallel
/// runners. It consumes outcomes in path-index order, and only consumed
/// samples reach the estimate, the path statistics, the per-worker
/// attribution and the deadlock policy; paths sampled past completion
/// are dropped unseen.
struct Consumer<'r> {
    config: &'r SimConfig,
    obs: Option<&'r SimObserver>,
    generator: Box<dyn Generator>,
    stats: PathStats,
    convergence: ConvergenceSchedule,
    /// Path index of the next sample to consume.
    next: u64,
    start: Instant,
}

impl<'r> Consumer<'r> {
    fn new(config: &'r SimConfig, obs: Option<&'r SimObserver>) -> Consumer<'r> {
        Consumer {
            config,
            obs,
            generator: config.generator.instantiate(config.accuracy),
            stats: PathStats::default(),
            convergence: ConvergenceSchedule::new(),
            next: 0,
            start: Instant::now(),
        }
    }

    fn is_complete(&self) -> bool {
        self.generator.is_complete()
    }

    /// Consumes the block of paths from index `self.next` on, sampled by
    /// `worker` at `busy_each` per path, until the generator completes.
    /// Returns how many samples it consumed. An `Err` outcome, or a lock
    /// under [`DeadlockPolicy::Error`], aborts the run.
    fn consume(
        &mut self,
        worker: usize,
        outcomes: impl IntoIterator<Item = Result<PathOutcome, SimError>>,
        busy_each: Duration,
    ) -> Result<u64, SimError> {
        let (mut paths, mut satisfied) = (0u64, 0u64);
        for out in outcomes {
            if self.generator.is_complete() {
                break;
            }
            let outcome = out?;
            check_deadlock_policy(self.config, &outcome)?;
            let success = outcome.verdict.is_success();
            self.stats.record(&outcome);
            self.generator.add(success);
            if let Some(o) = self.obs {
                o.offer_witness(self.next, outcome.verdict);
                self.convergence.after_sample(self.generator.as_ref(), self.config.accuracy, o);
            }
            self.next += 1;
            paths += 1;
            satisfied += u64::from(success);
        }
        if let Some(o) = self.obs {
            o.record_worker_batch(worker, paths, satisfied, busy_each);
            o.on_progress(
                self.generator.samples(),
                self.generator.known_target(),
                current_estimate(self.generator.as_ref(), self.config.accuracy),
            );
        }
        Ok(paths)
    }

    fn finish(self, state_bytes: usize) -> AnalysisResult {
        let sim_wall = self.start.elapsed();
        let est_start = Instant::now();
        let generator = self.generator.as_ref();
        let estimate = generator.estimate();
        if let Some(o) = self.obs {
            o.record_phase("simulate", sim_wall);
            o.record_phase("estimate", est_start.elapsed());
            let est = current_estimate(generator, self.config.accuracy);
            // Close the convergence series at the final sample count (the
            // observer drops it if the last checkpoint already sits there).
            if let Some((mean, half_width)) = est {
                o.record_convergence(ConvergencePoint {
                    samples: generator.samples(),
                    mean,
                    half_width,
                });
            }
            o.on_progress(generator.samples(), generator.known_target(), est);
        }
        AnalysisResult {
            estimate,
            stats: self.stats,
            wall: self.start.elapsed(),
            approx_memory_bytes: approx_memory(state_bytes, &self.stats),
            pre_verdict: PreVerdict::Unknown,
        }
    }
}

/// Wall time per path of a batch of `count` paths sampled since `t0`.
fn per_path(t0: Option<Instant>, count: usize) -> Duration {
    t0.map_or(Duration::ZERO, |t0| t0.elapsed() / count.max(1) as u32)
}

fn analyze_sequential_impl<S: PathSource>(
    source: &S,
    config: &SimConfig,
    obs: Option<&SimObserver>,
) -> Result<AnalysisResult, SimError> {
    let mut run = Consumer::new(config, obs);
    let mut strategy = config.strategy.instantiate();
    let mut scratch = source.make_scratch();
    let lanes = config.batch_lanes.max(1) as u64;
    let mut batch: Vec<Result<PathOutcome, SimError>> = Vec::new();

    while !run.is_complete() {
        // Batch width: never overshoot a known sample target, so a
        // fixed-count (Chernoff) run samples exactly its target, in the
        // same blocks the parallel runner hands out. Sequential stopping
        // rules have no target; the consumer drops an overshoot of at
        // most `lanes − 1` paths.
        let count = match run.generator.known_target() {
            Some(n) => n.saturating_sub(run.next).clamp(1, lanes),
            None => lanes,
        } as usize;
        let sampled_at = obs.map(|_| Instant::now());
        source.sample_batch(run.next, count, &mut scratch, strategy.as_mut(), &mut batch);
        run.consume(0, batch.drain(..), per_path(sampled_at, count))?;
    }
    source.finish_scratch(scratch);
    Ok(run.finish(source.state_bytes()))
}

/// One worker's message: the outcomes of a block of consecutive paths.
struct Block {
    worker: usize,
    outcomes: Vec<Result<PathOutcome, SimError>>,
    /// Wall time per path.
    busy_each: Duration,
}

fn analyze_parallel_impl<S: PathSource>(
    source: &S,
    config: &SimConfig,
    obs: Option<&SimObserver>,
) -> Result<AnalysisResult, SimError> {
    let mut run = Consumer::new(config, obs);
    let workers = config.workers;
    let target = run.generator.known_target();
    // With a known target, workers sample `batch_lanes`-wide blocks: the
    // sequential runner's batches. Sequential stopping rules hand out
    // single paths: completion must be able to react between outcomes,
    // and a block finished as a unit would deliver its early outcomes as
    // late as its slowest lane.
    let block = if target.is_some() { config.batch_lanes.max(1) as u64 } else { 1 };
    let stop = AtomicBool::new(false);
    let mut collector: RoundRobinCollector<Block> = RoundRobinCollector::new(workers);
    // Reused across every drain; the collector appends complete rounds
    // into it instead of allocating a fresh Vec per received block.
    let mut rounds: Vec<Block> = Vec::new();
    let mut last_drain = Instant::now();

    // A panic escaping a worker (or the drain loop) propagates out of
    // `std::thread::scope`; map that to a structured error as a backstop —
    // workers additionally catch their own panics below so the estimate
    // protocol can react *before* the scope unwinds.
    let scoped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        std::thread::scope(|scope| -> Result<(), SimError> {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Block>(workers * 64);
            for w in 0..workers {
                let tx = tx.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let body = std::panic::AssertUnwindSafe(|| {
                        let mut strategy = config.strategy.instantiate();
                        // Created inside the worker: the scratch never
                        // crosses threads, so it needs no Send bound.
                        let mut scratch = source.make_scratch();
                        // Worker w samples blocks w, w + k, w + 2k, …
                        let mut first = w as u64 * block;
                        while !stop.load(Ordering::Relaxed) {
                            let count = match target {
                                Some(n) if first >= n => break,
                                Some(n) => (n - first).min(block),
                                None => block,
                            } as usize;
                            let sampled_at = obs.map(|_| Instant::now());
                            let mut outcomes = Vec::with_capacity(count);
                            source.sample_batch(
                                first,
                                count,
                                &mut scratch,
                                strategy.as_mut(),
                                &mut outcomes,
                            );
                            let failed = outcomes.iter().any(Result::is_err);
                            let busy_each = per_path(sampled_at, count);
                            if tx.send(Block { worker: w, outcomes, busy_each }).is_err() || failed
                            {
                                break;
                            }
                            first += workers as u64 * block;
                        }
                        source.finish_scratch(scratch);
                    });
                    // A panicking worker reports itself as a structured
                    // failure instead of silently starving the round-robin
                    // protocol (its rounds would otherwise never complete
                    // and sequential generators would spin forever).
                    if let Err(payload) = std::panic::catch_unwind(body) {
                        let detail = panic_message(payload.as_ref());
                        let outcomes = vec![Err(SimError::WorkerFailed { detail })];
                        let _ = tx.send(Block { worker: w, outcomes, busy_each: Duration::ZERO });
                    }
                });
            }
            drop(tx);

            for mut b in rx.iter() {
                // Once the generator completes, the estimate is final:
                // leftover blocks are drained so workers can exit, but
                // they can no longer fail the run.
                if run.is_complete() {
                    continue;
                }
                // Failures abort on arrival — a failed worker produces
                // nothing more, so its rounds would never complete.
                // Returning drops the receiver: every worker's next send
                // fails, and the worker exits.
                let failed = b.outcomes.iter().position(Result::is_err);
                if let Some(e) = failed.and_then(|i| b.outcomes.swap_remove(i).err()) {
                    return Err(e);
                }
                collector.push(b.worker, b);
                consume_rounds(&mut collector, &mut rounds, &mut run, &mut last_drain)?;
                if run.is_complete() {
                    stop.store(true, Ordering::Relaxed);
                }
            }
            // Channel closed: all workers exited. Consume the last,
            // possibly partial, round.
            if !run.is_complete() {
                for w in 0..workers {
                    collector.finish_worker(w);
                }
                consume_rounds(&mut collector, &mut rounds, &mut run, &mut last_drain)?;
            }
            Ok(())
        })
    }));
    scoped.map_err(|_| SimError::WorkerFailed { detail: "worker thread panicked".into() })??;
    Ok(run.finish(source.state_bytes()))
}

/// Consumes every complete round of blocks the collector holds: one
/// block per worker in worker order, which is block order, which is
/// path-index order. `rounds` is the reused drain buffer.
fn consume_rounds(
    collector: &mut RoundRobinCollector<Block>,
    rounds: &mut Vec<Block>,
    run: &mut Consumer<'_>,
    last_drain: &mut Instant,
) -> Result<(), SimError> {
    collector.drain_rounds_into(rounds);
    if rounds.is_empty() {
        return Ok(());
    }
    let mut consumed = 0;
    for b in rounds.drain(..) {
        consumed += run.consume(b.worker, b.outcomes, b.busy_each)?;
    }
    if let Some(o) = run.obs {
        o.record_drain(consumed as usize, collector.buffered(), last_drain.elapsed());
        *last_drain = Instant::now();
    }
    Ok(())
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker thread panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker thread panicked: {s}")
    } else {
        "worker thread panicked".to_string()
    }
}

/// The simulator's memory story (§IV): the per-state footprint plus the
/// recorded outcomes — it does *not* grow with the reachable state space.
fn approx_memory(state_bytes: usize, stats: &PathStats) -> usize {
    state_bytes * 2 // current + scratch state per worker
        + std::mem::size_of::<PathStats>()
        + stats.total() as usize / 8 // one bit per sample, amortized
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::Goal;
    use crate::strategy::StrategyKind;
    use crate::verdict::Verdict;
    use slim_automata::prelude::*;
    use slim_stats::chernoff::Accuracy;
    use slim_stats::sequential::GeneratorKind;

    /// ok --λ--> failed: P(◇[0,t] failed) = 1 − e^{−λt}, analytically.
    fn exp_net(lambda: f64) -> (Network, TimedReach) {
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("err");
        let ok = a.location("ok");
        let failed = a.location("failed");
        a.markovian(ok, lambda, [], failed);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "err", "failed").unwrap();
        (net, TimedReach::new(goal, 1.0))
    }

    fn loose() -> SimConfig {
        SimConfig::default()
            .with_accuracy(Accuracy::new(0.03, 0.05).unwrap())
            .with_strategy(StrategyKind::Asap)
    }

    #[test]
    fn sequential_matches_analytic_exponential() {
        let (net, prop) = exp_net(1.0);
        let r = analyze(&net, &prop, &loose()).unwrap();
        let exact = 1.0 - (-1.0f64).exp(); // ≈ 0.632
        assert!(
            (r.probability() - exact).abs() < 0.03 + 0.01,
            "estimate {} vs exact {exact}",
            r.probability()
        );
        assert_eq!(r.stats.total(), r.estimate.samples);
    }

    #[test]
    fn profiled_analysis_is_worker_count_invariant() {
        let (net, prop) = guarded_net();
        let base = loose().with_seed(7).with_batch_lanes(4);
        let (r1, p1) = analyze_profiled(&net, &prop, &base.with_workers(1), None).unwrap();
        let (r4, p4) = analyze_profiled(&net, &prop, &base.with_workers(4), None).unwrap();
        assert_eq!(r1.estimate, r4.estimate);
        assert_eq!(p1.op_counts(), p4.op_counts());
        assert_eq!(p1.digram_counts(), p4.digram_counts());
        assert_eq!(p1.batch_counts(), p4.batch_counts());
        assert!(p1.total_ops() > 0);
        assert!(p1.delay_solve_count() > 0);
        // The estimate also matches the unprofiled runner on the same
        // config (same path set, same consumption order).
        let plain = analyze(&net, &prop, &base.with_workers(1)).unwrap();
        assert_eq!(r1.estimate, plain.estimate);
    }

    /// The worker-count test's model: a Markovian race plus a
    /// clock-guarded process, so profiles see solver bytecode.
    fn guarded_net() -> (Network, TimedReach) {
        let mut b = NetworkBuilder::new();
        let c = b.var("c", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("err");
        let ok = a.location("ok");
        let failed = a.location("failed");
        a.markovian(ok, 1.0, [], failed);
        b.add_automaton(a);
        let mut g = AutomatonBuilder::new("g");
        let idle = g.location("idle");
        let done = g.location("done");
        g.guarded(idle, ActionId::TAU, Expr::var(c).ge(Expr::real(0.2)), [], done);
        b.add_automaton(g);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "err", "failed").unwrap();
        (net, TimedReach::new(goal, 1.0))
    }

    #[test]
    fn profiled_path_has_exact_golden_counts() {
        // Pins the profiler to exact per-opcode and digram counts for one
        // seeded path: any change to the compiled kernel's instruction
        // stream — reordering, fusion, extra evals — shows up here as a
        // count diff, not as a silent profile drift.
        use crate::engine::{PathGenerator, SimScratch};
        use slim_stats::rng::path_rng;

        // A compound clock guard so the solver executes a multi-op
        // program (comparisons joined by an intersection) and the digram
        // table is non-trivial.
        let mut b = NetworkBuilder::new();
        let c = b.var("c", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("err");
        let ok = a.location("ok");
        let failed = a.location("failed");
        a.markovian(ok, 1.0, [], failed);
        b.add_automaton(a);
        let mut g = AutomatonBuilder::new("g");
        let idle = g.location("idle");
        let done = g.location("done");
        let guard = Expr::var(c).ge(Expr::real(0.2)).and(Expr::var(c).le(Expr::real(0.8)));
        g.guarded(idle, ActionId::TAU, guard, [], done);
        b.add_automaton(g);
        let net = b.build().unwrap();
        let goal = Goal::in_location(&net, "err", "failed").unwrap();
        let prop = TimedReach::new(goal, 1.0);

        let gen = PathGenerator::new(&net, &prop, 10_000);
        let run_one = || {
            let mut strategy = StrategyKind::Asap.instantiate();
            let mut scratch = SimScratch::new();
            let mut prof = KernelProfile::new(profile_shape(&net));
            for path in 0..4 {
                let mut rng = path_rng(7, path);
                gen.generate_with(&mut scratch, strategy.as_mut(), &mut rng, &mut prof).unwrap();
            }
            prof
        };
        let prof = run_one();
        let ops: Vec<(&str, u64)> = prof
            .op_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (PROFILE_OP_NAMES[i], c))
            .collect();
        assert_eq!(
            ops,
            vec![
                ("solve.intersect", 4),
                ("solve.cmp", 8),
                ("solve.aff_const", 8),
                ("solve.aff_var", 8),
            ],
            "opcode counts drifted; update the golden vector deliberately"
        );
        let n_ops = prof.shape().n_ops;
        let digrams: Vec<(String, u64)> = prof
            .digram_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(cell, &c)| {
                (
                    format!(
                        "{} -> {}",
                        PROFILE_OP_NAMES[cell / n_ops],
                        PROFILE_OP_NAMES[cell % n_ops]
                    ),
                    c,
                )
            })
            .collect();
        // The two-atom conjunction runs as its `Conj` shortcut, which
        // reports the plain program: two `aff_var; aff_const; cmp` atoms
        // and an `intersect`, six digrams per guard evaluation.
        assert_eq!(
            digrams,
            vec![
                ("solve.cmp -> solve.intersect".to_string(), 4),
                ("solve.cmp -> solve.aff_var".to_string(), 4),
                ("solve.aff_const -> solve.cmp".to_string(), 8),
                ("solve.aff_var -> solve.aff_const".to_string(), 8),
            ]
        );
        // And the counts are a pure function of the seed: a second run
        // reproduces them exactly.
        let again = run_one();
        assert_eq!(prof.op_counts(), again.op_counts());
        assert_eq!(prof.digram_counts(), again.digram_counts());
    }

    #[test]
    fn profiled_analysis_rejects_sequential_generators() {
        let (net, prop) = exp_net(1.0);
        let cfg = loose().with_generator(GeneratorKind::Gauss);
        let err = analyze_profiled(&net, &prop, &cfg, None).unwrap_err();
        assert!(matches!(err, SimError::InvalidInput { .. }));
    }

    #[test]
    fn parallel_agrees_with_analytic() {
        let (net, prop) = exp_net(2.0);
        let cfg = loose().with_workers(4);
        let r = analyze(&net, &prop, &cfg).unwrap();
        let exact = 1.0 - (-2.0f64).exp();
        assert!(
            (r.probability() - exact).abs() < 0.03 + 0.01,
            "estimate {} vs exact {exact}",
            r.probability()
        );
        // Exactly the target is sampled and consumed.
        assert_eq!(r.estimate.samples, cfg.accuracy.chernoff_samples());
    }

    #[test]
    fn deadlock_policy_error_aborts() {
        let mut b = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("p");
        a.location("sink");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let prop = TimedReach::new(Goal::expr(Expr::FALSE), 1.0);
        // A constant-false goal is decided statically; disable pre-verdicts
        // to exercise the dynamic deadlock machinery.
        let cfg =
            loose().with_deadlock_policy(DeadlockPolicy::Error).with_static_pre_verdicts(false);
        assert!(matches!(analyze(&net, &prop, &cfg), Err(SimError::DeadlockDetected { .. })));
        // Falsify counts them as false samples instead.
        let cfg =
            loose().with_deadlock_policy(DeadlockPolicy::Falsify).with_static_pre_verdicts(false);
        let r = analyze(&net, &prop, &cfg).unwrap();
        assert_eq!(r.probability(), 0.0);
        assert_eq!(r.stats.deadlocks, r.stats.total());
        // With pre-verdicts on (the default), the same property
        // short-circuits to an exact zero before any path is drawn — even
        // under the Error policy, which a zero-sample run cannot trip.
        let r = analyze(&net, &prop, &loose().with_deadlock_policy(DeadlockPolicy::Error)).unwrap();
        assert_eq!(r.pre_verdict, PreVerdict::Unreachable);
        assert_eq!(r.probability(), 0.0);
        assert_eq!(r.estimate.samples, 0);
    }

    #[test]
    fn pre_verdicts_short_circuit_before_sampling() {
        let (net, prop) = exp_net(1.0);
        // Unreachable goal: conjunction with constant false.
        let dead = TimedReach::new(prop.goal.clone().and(Goal::expr(Expr::FALSE)), 1.0);
        let r = analyze(&net, &dead, &loose()).unwrap();
        assert_eq!(r.pre_verdict, PreVerdict::Unreachable);
        assert_eq!(r.estimate.samples, 0);
        assert_eq!(r.estimate.epsilon, 0.0);
        assert_eq!(r.estimate.confidence, 1.0);
        assert_eq!(r.probability(), 0.0);
        assert_eq!(r.stats.total(), 0);
        // Initially-satisfied goal: the `ok` location.
        let init = TimedReach::new(Goal::in_location(&net, "err", "ok").unwrap(), 1.0);
        let r = analyze(&net, &init, &loose()).unwrap();
        assert_eq!(r.pre_verdict, PreVerdict::InitiallySatisfied);
        assert_eq!(r.estimate.samples, 0);
        assert_eq!(r.probability(), 1.0);
        // The sampled path reports Unknown.
        let r = analyze(&net, &prop, &loose()).unwrap();
        assert_eq!(r.pre_verdict, PreVerdict::Unknown);
        assert!(r.estimate.samples > 0);
        // Observed short-circuits record a non-empty phase list.
        let obs = SimObserver::new(1);
        analyze_observed(&net, &dead, &loose(), Some(&obs)).unwrap();
        let phases = obs.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "static");
    }

    #[test]
    fn seeded_reproducibility_across_worker_counts() {
        // CH bound: the sample *set* is identical for 1 and 3 workers, so
        // the estimate (a count) matches exactly.
        let (net, prop) = exp_net(1.0);
        let acc = Accuracy::new(0.05, 0.1).unwrap();
        let c1 = loose().with_accuracy(acc).with_workers(1).with_seed(7);
        let c3 = loose().with_accuracy(acc).with_workers(3).with_seed(7);
        let r1 = analyze(&net, &prop, &c1).unwrap();
        let r3 = analyze(&net, &prop, &c3).unwrap();
        assert_eq!(r1.estimate.successes, r3.estimate.successes);
        assert_eq!(r1.estimate.samples, r3.estimate.samples);
    }

    #[test]
    fn sequential_generator_stops_early_on_rare_events() {
        let (net, prop) = exp_net(0.01); // p ≈ 0.00995
        let cfg = loose().with_generator(GeneratorKind::ChowRobbins);
        let r = analyze(&net, &prop, &cfg).unwrap();
        let ch = cfg.accuracy.chernoff_samples();
        assert!(r.estimate.samples < ch, "sequential rule used {} >= CH {ch}", r.estimate.samples);
        assert!(r.probability() < 0.05);
    }

    #[test]
    fn parallel_sequential_generator_completes() {
        let (net, prop) = exp_net(1.0);
        let cfg = loose().with_generator(GeneratorKind::Gauss).with_workers(3);
        let r = analyze(&net, &prop, &cfg).unwrap();
        let exact = 1.0 - (-1.0f64).exp();
        assert!((r.probability() - exact).abs() < 0.06, "estimate {}", r.probability());
    }

    #[test]
    fn memory_estimate_positive_and_flat() {
        let (net, prop) = exp_net(1.0);
        let r = analyze(&net, &prop, &loose()).unwrap();
        assert!(r.approx_memory_bytes > 0);
        assert!(r.approx_memory_bytes < 1_000_000, "simulator memory should be tiny");
    }

    #[test]
    fn observer_does_not_perturb_results() {
        let (net, prop) = exp_net(1.0);
        for workers in [1usize, 3] {
            let cfg = loose()
                .with_accuracy(Accuracy::new(0.05, 0.1).unwrap())
                .with_workers(workers)
                .with_seed(11);
            let plain = analyze(&net, &prop, &cfg).unwrap();
            let obs = SimObserver::new(workers);
            let observed = analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
            assert_eq!(plain.estimate, observed.estimate, "workers={workers}");
            assert_eq!(plain.stats, observed.stats, "workers={workers}");
        }
    }

    #[test]
    fn observer_accounts_every_path_and_phase() {
        let (net, prop) = exp_net(1.0);
        let cfg =
            loose().with_accuracy(Accuracy::new(0.05, 0.1).unwrap()).with_workers(2).with_seed(3);
        let obs = SimObserver::new(2);
        let r = analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
        let snap = obs.snapshot();
        let verdict_total: u64 = [
            "paths.satisfied",
            "paths.time_bound_exceeded",
            "paths.hold_violated",
            "paths.deadlock",
            "paths.timelock",
            "paths.step_limit",
        ]
        .iter()
        .map(|k| snap.counters[*k])
        .sum();
        assert_eq!(verdict_total, r.stats.total());
        assert_eq!(snap.counters["paths.satisfied"], r.stats.satisfied);
        assert_eq!(snap.histograms["sim.steps_per_path"].count, r.stats.total());
        // Every consumed path is attributed to exactly one worker.
        let ws = obs.worker_stats();
        assert_eq!(ws.iter().map(|w| w.paths).sum::<u64>(), r.stats.total());
        assert_eq!(ws.iter().map(|w| w.satisfied).sum::<u64>(), r.stats.satisfied);
        // Consumed (round-robin) samples match the estimate exactly.
        assert_eq!(snap.counters["collector.samples_consumed"], r.estimate.samples);
        let phases = obs.phases();
        let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["simulate", "estimate"]);
    }

    #[test]
    fn progress_callback_reaches_target() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let (net, prop) = exp_net(1.0);
        let cfg = loose().with_accuracy(Accuracy::new(0.1, 0.1).unwrap()).with_workers(2);
        let last = Arc::new(AtomicU64::new(0));
        let last2 = Arc::clone(&last);
        let obs = SimObserver::new(2).with_progress(Box::new(move |done, target, estimate| {
            assert!(target.is_some(), "CH bound has a known target");
            if done > 0 {
                let (mean, half_width) = estimate.expect("estimate available once sampled");
                assert!((0.0..=1.0).contains(&mean));
                assert!(half_width > 0.0);
            }
            last2.store(done, Ordering::Relaxed);
        }));
        let r = analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
        assert_eq!(last.load(Ordering::Relaxed), r.estimate.samples);
    }

    #[test]
    fn witness_selection_identical_across_worker_counts() {
        let (net, prop) = exp_net(1.0);
        let mut selections = Vec::new();
        for workers in [1usize, 4] {
            let cfg = loose()
                .with_accuracy(Accuracy::new(0.05, 0.1).unwrap())
                .with_workers(workers)
                .with_seed(7);
            let obs = SimObserver::new(workers).with_witness_capture(3);
            analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
            selections.push(obs.witness_selection().unwrap());
            // The profiled run consumes the same samples in the same order.
            let obs = SimObserver::new(workers).with_witness_capture(3);
            analyze_profiled(&net, &prop, &cfg, Some(&obs)).unwrap();
            selections.push(obs.witness_selection().unwrap());
        }
        for (i, s) in selections.iter().enumerate() {
            assert_eq!(s, &selections[0], "selection {i} depends on worker count or profiling");
        }
        assert!(!selections[0].goal().is_empty(), "λ=1 run should hit the goal");
    }

    #[test]
    fn witness_selection_deterministic_with_sequential_generator() {
        // Sequential stopping rules accept a worker-count-independent
        // prefix of the consumption order, so witnesses still agree.
        let (net, prop) = exp_net(1.0);
        let mut selections = Vec::new();
        for workers in [1usize, 3] {
            let cfg =
                loose().with_generator(GeneratorKind::Gauss).with_workers(workers).with_seed(13);
            let obs = SimObserver::new(workers).with_witness_capture(2);
            analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
            selections.push(obs.witness_selection().unwrap());
        }
        assert_eq!(selections[0], selections[1]);
    }

    #[test]
    fn convergence_series_recorded_and_well_formed() {
        let (net, prop) = exp_net(1.0);
        for workers in [1usize, 2] {
            let cfg = loose()
                .with_accuracy(Accuracy::new(0.05, 0.1).unwrap())
                .with_workers(workers)
                .with_seed(5);
            let obs = SimObserver::new(workers);
            let r = analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
            let series = obs.convergence();
            assert!(series.len() >= 2, "workers={workers}: series too short");
            assert!(series.windows(2).all(|w| w[0].samples < w[1].samples));
            assert!(series.windows(2).all(|w| w[0].half_width >= w[1].half_width));
            let last = series.last().unwrap();
            assert_eq!(last.samples, r.estimate.samples);
            assert!((last.mean - r.estimate.mean).abs() < 1e-12);
        }
    }

    #[test]
    fn convergence_checkpoints_independent_of_worker_count() {
        let (net, prop) = exp_net(1.0);
        let mut all = Vec::new();
        for workers in [1usize, 4] {
            let cfg = loose()
                .with_accuracy(Accuracy::new(0.05, 0.1).unwrap())
                .with_workers(workers)
                .with_seed(7);
            let obs = SimObserver::new(workers);
            analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
            all.push(obs.convergence());
            let obs = SimObserver::new(workers);
            analyze_profiled(&net, &prop, &cfg, Some(&obs)).unwrap();
            all.push(obs.convergence());
        }
        assert!(all[0].len() > 2, "series too short: {:?}", all[0]);
        for (i, series) in all.iter().enumerate() {
            assert_eq!(series, &all[0], "series {i} depends on worker count or profiling");
        }
    }

    // --- PathSource mocks: deterministic runner-protocol tests ---------

    fn sat(steps: u64) -> PathOutcome {
        PathOutcome { verdict: Verdict::Satisfied, steps, end_time: 0.5 }
    }

    /// Mock whose behavior is a pure function of the path index.
    struct FnSource<F: Fn(u64) -> Result<PathOutcome, SimError> + Sync>(F);

    impl<F: Fn(u64) -> Result<PathOutcome, SimError> + Sync> PathSource for FnSource<F> {
        type Scratch = ();

        fn make_scratch(&self) {}

        fn sample_batch(
            &self,
            start: u64,
            count: usize,
            _scratch: &mut (),
            _strategy: &mut dyn Strategy,
            out: &mut Vec<Result<PathOutcome, SimError>>,
        ) {
            out.clear();
            out.extend((start..start + count as u64).map(&self.0));
        }

        fn state_bytes(&self) -> usize {
            64
        }
    }

    #[test]
    fn worker_panic_maps_to_worker_failed() {
        // Worker 1 (odd indices) panics on its first path. The runner must
        // surface a structured error with the panic message — not hang
        // waiting for rounds that worker will never fill.
        let source = FnSource(|index| {
            if index % 2 == 1 {
                panic!("injected failure on path {index}");
            }
            Ok(sat(1))
        });
        let cfg =
            SimConfig::default().with_accuracy(Accuracy::new(0.2, 0.2).unwrap()).with_workers(2);
        let err = analyze_parallel_impl(&source, &cfg, None).unwrap_err();
        match err {
            SimError::WorkerFailed { detail } => {
                assert!(detail.contains("injected failure"), "detail: {detail}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }

    #[test]
    fn worker_panic_with_sequential_generator_does_not_hang() {
        // The livelock case the structured self-report prevents: a
        // sequential generator can only complete through full rounds, and
        // a silently dead worker would stall rounds forever.
        let source = FnSource(|index| {
            if index % 2 == 1 {
                panic!("boom");
            }
            Ok(sat(1))
        });
        let cfg = SimConfig::default()
            .with_accuracy(Accuracy::new(0.1, 0.1).unwrap())
            .with_generator(GeneratorKind::Gauss)
            .with_workers(2);
        assert!(matches!(
            analyze_parallel_impl(&source, &cfg, None),
            Err(SimError::WorkerFailed { .. })
        ));
    }

    #[test]
    fn parallel_deadlock_policy_error_aborts() {
        let source =
            FnSource(|_| Ok(PathOutcome { verdict: Verdict::Deadlock, steps: 2, end_time: 0.25 }));
        let cfg = SimConfig::default()
            .with_accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .with_workers(2)
            .with_deadlock_policy(DeadlockPolicy::Error);
        assert!(matches!(
            analyze_parallel_impl(&source, &cfg, None),
            Err(SimError::DeadlockDetected { .. })
        ));
        // Locks at several indices, each ending at its own index. The
        // lowest-index lock is delivered last, yet it is the one reported:
        // the policy is checked at consumption, in path-index order.
        let source = FnSource(|index| match index {
            6 => {
                std::thread::sleep(Duration::from_millis(50));
                Ok(PathOutcome { verdict: Verdict::Deadlock, steps: 2, end_time: 6.0 })
            }
            9 | 13 => {
                Ok(PathOutcome { verdict: Verdict::Timelock, steps: 2, end_time: index as f64 })
            }
            _ => Ok(sat(1)),
        });
        for generator in [GeneratorKind::ChernoffHoeffding, GeneratorKind::Gauss] {
            for workers in [2usize, 3] {
                let cfg = cfg.with_generator(generator).with_workers(workers).with_batch_lanes(4);
                match analyze_parallel_impl(&source, &cfg, None) {
                    Err(SimError::DeadlockDetected { time, .. }) => {
                        assert_eq!(time, 6.0, "{generator} workers={workers}");
                    }
                    other => panic!("expected DeadlockDetected, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn sequential_rules_count_only_consumed_samples() {
        // Lane overshoot (one worker) and in-flight paths (several) are
        // sampled but never consumed: they must not reach the path
        // statistics or the per-worker attribution. Consumption is in
        // path-index order, so the results agree across worker counts.
        let (net, prop) = exp_net(1.0);
        for generator in [GeneratorKind::Gauss, GeneratorKind::ChowRobbins] {
            let mut runs = Vec::new();
            for workers in [1usize, 2, 3] {
                let cfg = loose().with_generator(generator).with_workers(workers).with_seed(5);
                let obs = SimObserver::new(workers);
                let r = analyze_observed(&net, &prop, &cfg, Some(&obs)).unwrap();
                assert_eq!(r.stats.total(), r.estimate.samples, "{generator} workers={workers}");
                let ws = obs.worker_stats();
                assert_eq!(ws.iter().map(|w| w.paths).sum::<u64>(), r.stats.total());
                assert_eq!(ws.iter().map(|w| w.satisfied).sum::<u64>(), r.stats.satisfied);
                runs.push((r.estimate, r.stats));
            }
            for (i, run) in runs.iter().enumerate() {
                assert_eq!(run, &runs[0], "{generator}: run {i} depends on worker count");
            }
        }
    }

    /// Gauss at (ε, δ) = (0.1, 0.1) completes after exactly 50 uniform
    /// samples (the MIN_SAMPLES floor dominates), i.e. 25 per worker with
    /// 2 workers. Calls past each worker's 25th sleep long enough that
    /// their outcome arrives well after the estimate has completed.
    fn late_outcome_config() -> SimConfig {
        SimConfig::default()
            .with_accuracy(Accuracy::new(0.1, 0.1).unwrap())
            .with_generator(GeneratorKind::Gauss)
            .with_workers(2)
    }

    fn late_source(
        late: impl Fn(u64) -> Result<PathOutcome, SimError> + Sync,
    ) -> FnSource<impl Fn(u64) -> Result<PathOutcome, SimError> + Sync> {
        FnSource(move |index| {
            if index / 2 < 25 {
                Ok(sat(1))
            } else {
                // In flight when the generator completes; deliver late.
                std::thread::sleep(Duration::from_millis(400));
                late(index)
            }
        })
    }

    #[test]
    fn late_worker_error_after_completion_is_ignored() {
        let source = late_source(|index| {
            Err(SimError::WorkerFailed { detail: format!("late failure on path {index}") })
        });
        let r = analyze_parallel_impl(&source, &late_outcome_config(), None)
            .expect("completed estimate must survive late worker errors");
        assert_eq!(r.estimate.samples, 50);
        assert_eq!(r.estimate.mean, 1.0);
    }

    #[test]
    fn late_lock_verdict_after_completion_does_not_abort() {
        let source = late_source(|_| {
            Ok(PathOutcome { verdict: Verdict::Deadlock, steps: 3, end_time: 0.75 })
        });
        let cfg = late_outcome_config().with_deadlock_policy(DeadlockPolicy::Error);
        let r = analyze_parallel_impl(&source, &cfg, None)
            .expect("completed estimate must survive late lock verdicts");
        assert_eq!(r.estimate.samples, 50);
        assert_eq!(r.estimate.mean, 1.0);
        // The late deadlocks were never consumed, so they are not counted.
        assert_eq!(r.stats.deadlocks, 0);
        assert_eq!(r.stats.total(), 50);
    }
}
