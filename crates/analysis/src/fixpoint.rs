//! Worklist fixpoint over the synchronized network.
//!
//! Computes, per (process, location), an over-approximation of the
//! variable valuations reachable there, by abstract interpretation of
//! τ/Markovian/sync transitions with interval environments
//! ([`crate::domain`]):
//!
//! * **Flow-sensitive** tracking for *private* variables — owned by one
//!   automaton, written only by its effects, and not a flow target. Each
//!   (process, location) pair carries its own interval per private
//!   variable.
//! * A **flow-insensitive global store** for everything else (shared
//!   variables and flow targets). Timed variables (clocks, continuous)
//!   are pinned to ⊤: their values drift with time.
//! * **Guard refinement** narrows the frame before effects run (the
//!   transition fires only where the guard holds), **invariant
//!   refinement** narrows it on entry (violating runs abort), and
//!   **widening** (after [`WIDEN_AFTER`] growing joins) guarantees
//!   termination of loops like `n := n + 1`.
//!
//! Sync transitions propagate only while their action is *available* —
//! every participant has at least one guard-satisfiable transition from a
//! reachable location. This is the action-closed view that makes the dead
//! set sound for pruning: if any participant lacks a live option, no
//! participant can ever fire the action.
//!
//! Soundness notes. Runs that abort (invariant violated on entry,
//! integer assignment out of range, evaluation errors) have no successor
//! states, so cutting them from propagation over-approximates exactly the
//! set of states *completed* steps can reach. Urgency and time ordering
//! are ignored — both only restrict which successors occur, never add
//! new ones.

use crate::domain::{abs_eval, refine, AbsVal, TOP_NUM};
use crate::zone::{constrain_expr, max_literal, Dbm, ZoneCtx};
use slim_automata::automaton::{ActionId, GuardKind, LocId, ProcId, TransId};
use slim_automata::expr::{BinOp, Expr, VarId};
use slim_automata::network::{NetUid, Network, PrunePlan};
use slim_automata::value::{Value, VarType};
use std::cell::RefCell;
use std::rc::Rc;

/// Joins tolerated per (process, location) env — and per store variable —
/// before widening kicks in. Zone joins use the same threshold.
const WIDEN_AFTER: u32 = 8;

/// Tuning knobs for [`analyze_network_with`].
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Run the clock-zone (DBM) product next to the interval store. On by
    /// default; disable to reproduce the untimed fixpoint exactly.
    pub zones: bool,
    /// Property deadline, folded into the extrapolation constant `k` so
    /// elapsed-time bounds near the deadline survive extrapolation.
    pub deadline: Option<f64>,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions { zones: true, deadline: None }
    }
}

/// Why a transition can or cannot fire, in the final fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransStatus {
    /// May fire (not provably dead).
    Live,
    /// Its source location is unreachable; the guard is never evaluated.
    DeadSource,
    /// Its guard is unsatisfiable in every valuation reaching the source.
    DeadGuard,
    /// Guard and source are fine, but the sync action can never fire:
    /// some participant has no live transition carrying it.
    SyncBlocked,
}

/// Result of [`analyze_network`]: reachability, per-transition liveness,
/// and abstract environments, plus iteration statistics.
///
/// `Debug` shows the published result only, not the [`FixpointWork`]
/// counts, so a change that only saves work keeps every rendering.
#[derive(Clone)]
pub struct Fixpoint {
    /// Location reachability, `[proc][loc]`.
    reachable: Vec<Vec<bool>>,
    /// Abstract env per `[proc][loc]` over that proc's private variables
    /// (`None` until the location is reached).
    envs: Vec<Vec<Option<Vec<AbsVal>>>>,
    /// Private variables of each process, in frame order.
    priv_vars: Vec<Vec<VarId>>,
    /// Flow-insensitive store over all variables (timed vars pinned ⊤).
    store: Vec<AbsVal>,
    /// Final classification, `[proc][trans]`.
    status: Vec<Vec<TransStatus>>,
    /// Live transitions with an effect provably outside its target's
    /// range (the step always errors): `(proc, trans, effect index)`.
    doomed_effects: Vec<(ProcId, TransId, usize)>,
    /// Whether the clock-zone product ran.
    zones_enabled: bool,
    /// Extrapolation constant used by the zone domain.
    extrapolation_k: f64,
    /// Total tracked clock slots across all processes.
    zone_clock_count: usize,
    /// Zone lower bound on elapsed global time when residing at
    /// `[proc][loc]` (`None` when unreachable or zones are off).
    min_time: Vec<Vec<Option<f64>>>,
    /// Transitions dead *only* because of the zone domain (interval-live
    /// but zone-empty guard), `[proc][trans]` — the S302 attribution set.
    zone_dead: Vec<Vec<bool>>,
    /// Reachable locations whose invariant bounds residence while every
    /// outgoing transition is dead, at least one of them only under the
    /// zone domain — static timelocks the untimed pass cannot see (S303).
    timelocks: Vec<(ProcId, LocId)>,
    /// Zone lower bound on elapsed global time when `[proc][trans]` can
    /// first fire (`None` for dead transitions or with zones off).
    trans_min_time: Vec<Vec<Option<f64>>>,
    /// Fixpoint rounds until stabilization.
    pub rounds: usize,
    /// Number of widening applications.
    pub widenings: usize,
    /// What the engine computed to get here.
    work: FixpointWork,
}

impl std::fmt::Debug for Fixpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fixpoint")
            .field("reachable", &self.reachable)
            .field("envs", &self.envs)
            .field("priv_vars", &self.priv_vars)
            .field("store", &self.store)
            .field("status", &self.status)
            .field("doomed_effects", &self.doomed_effects)
            .field("zones_enabled", &self.zones_enabled)
            .field("extrapolation_k", &self.extrapolation_k)
            .field("zone_clock_count", &self.zone_clock_count)
            .field("min_time", &self.min_time)
            .field("zone_dead", &self.zone_dead)
            .field("timelocks", &self.timelocks)
            .field("trans_min_time", &self.trans_min_time)
            .field("rounds", &self.rounds)
            .field("widenings", &self.widenings)
            .finish()
    }
}

/// Deterministic counts of the work one engine run did, for comparing
/// two versions of the engine on the same networks (they repeat exactly
/// for a given network and options).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixpointWork {
    /// `(process, location)` processings (stale locations visited).
    pub locations: usize,
    /// Post-images computed: transitions that passed their guard.
    pub posts: usize,
    /// Flow expressions evaluated inside post-images. A flow whose
    /// inputs equal its baseline's bit for bit takes the baseline's value
    /// and is not counted, so this is at most `posts × flows`.
    pub flow_evals: usize,
    /// Zone canonicalizations ([`Dbm::close`]), the engine's dominant
    /// zone cost, over the search and the final classification.
    pub zone_closures: usize,
    /// The part of `zone_closures` spent on processes without a tracked
    /// clock, whose zone can never constrain anything.
    pub clockless_zone_closures: usize,
}

/// Runs the fixpoint over `net` with default options (zone product on;
/// the network should have passed validation — on malformed networks the
/// analysis may panic on out-of-range indices).
pub fn analyze_network(net: &Network) -> Rc<Fixpoint> {
    analyze_network_with(net, &AnalysisOptions::default())
}

/// Runs the fixpoint over `net` with explicit [`AnalysisOptions`].
///
/// The result is memoized per thread in a single slot keyed by the
/// network's [`NetUid`], the zone setting and the effective
/// extrapolation constant (`k`; ignored with zones off),
/// which together determine the fixpoint completely. The key is exact
/// because a [`Network`] cannot change after assembly: equal ids mean
/// clones of one assembly. So the lint pre-flight, the pre-verdict and
/// the CLI's prune/summary step share one engine run — and one shared
/// result — whenever the property deadline does not raise `k`, while a
/// pruned network (fresh id) is analysed afresh.
pub fn analyze_network_with(net: &Network, opts: &AnalysisOptions) -> Rc<Fixpoint> {
    let facts = opts.zones.then(|| net_facts(net));
    let k = facts.as_ref().map_or(0.0, |f| f.extrapolation_k(opts.deadline));
    let key = (net.uid(), opts.zones, k.to_bits());
    let hit = LAST_FIXPOINT.with_borrow(|slot| match slot {
        Some((at, fix)) if *at == key => Some(Rc::clone(fix)),
        _ => None,
    });
    if let Some(fix) = hit {
        return fix;
    }
    let tracked = facts.as_ref().map_or(&[][..], |f| &f.tracked[..]);
    let fix = Rc::new(Engine::new(net, k, tracked, opts.zones).run());
    LAST_FIXPOINT.set(Some((key, Rc::clone(&fix))));
    fix
}

/// What determines a fixpoint: the network, the zone flag and the bits of
/// the effective extrapolation constant (0 with zones off).
type MemoKey = (NetUid, bool, u64);

thread_local! {
    /// The last fixpoint computed on this thread, under its key.
    static LAST_FIXPOINT: RefCell<Option<(MemoKey, Rc<Fixpoint>)>> = const { RefCell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// Engine runs on this thread (memo misses), for the memo tests.
    static ENGINE_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// What the zone product needs of a network regardless of the deadline.
struct NetFacts {
    uid: NetUid,
    /// The deadline-free part of the extrapolation constant.
    k: f64,
    /// [`tracked_clocks`].
    tracked: Vec<(VarId, Option<usize>)>,
}

impl NetFacts {
    /// The zone domain's extrapolation constant under a property
    /// `deadline`: the largest magnitude among the deadline, every literal
    /// of the model's invariants, guards, effects and flows, and the
    /// initial values of the tracked clocks — and at least 1. The engine
    /// and the memo key of [`analyze_network_with`] both take `k` from
    /// here. `max` keeps the larger of two magnitudes exactly, so
    /// splitting the deadline off the network part is bit-identical.
    fn extrapolation_k(&self, deadline: Option<f64>) -> f64 {
        deadline.unwrap_or(0.0).abs().max(self.k)
    }
}

/// The [`NetFacts`] of `net`: a pure function of the network, so it is
/// memoized per thread under the network's [`NetUid`], like the fixpoint.
fn net_facts(net: &Network) -> Rc<NetFacts> {
    LAST_NET_FACTS.with_borrow_mut(|slot| match slot {
        Some(facts) if facts.uid == net.uid() => Rc::clone(facts),
        _ => {
            let tracked = tracked_clocks(net);
            let facts = Rc::new(NetFacts { uid: net.uid(), k: network_k(net, &tracked), tracked });
            *slot = Some(Rc::clone(&facts));
            facts
        }
    })
}

thread_local! {
    /// The facts of the last network the zone product saw on this thread.
    static LAST_NET_FACTS: RefCell<Option<Rc<NetFacts>>> = const { RefCell::new(None) };
}

/// The deadline-free extrapolation constant of `net`, whose zone product
/// tracks the clocks `tracked`.
fn network_k(net: &Network, tracked: &[(VarId, Option<usize>)]) -> f64 {
    let mut k = 0.0f64;
    for a in net.automata() {
        for l in &a.locations {
            k = k.max(max_literal(&l.invariant));
        }
        for t in &a.transitions {
            if let GuardKind::Boolean(g) = &t.guard {
                k = k.max(max_literal(g));
            }
            for eff in &t.effects {
                k = k.max(max_literal(&eff.expr));
            }
        }
    }
    for f in net.flows() {
        k = k.max(max_literal(&f.expr));
    }
    for (v, _) in tracked {
        let decl = &net.vars()[v.0];
        if let Value::Real(r) = decl.ty.canonicalize(decl.init) {
            k = k.max(r.abs());
        }
    }
    k.max(1.0)
}

/// The clocks the zone product tracks, each with the one process whose
/// effects may reset it (`None`: never written, tracked by every
/// process). Then "whenever p is at l, the clock valuation lies in the
/// zone" holds regardless of interleaving, because no foreign step can
/// move the tracked clocks. Flow targets, clocks written by several
/// processes and rate-listed clocks are excluded (their dynamics are not
/// plain rate-1 elapse).
fn tracked_clocks(net: &Network) -> Vec<(VarId, Option<usize>)> {
    let nvars = net.vars().len();
    let mut excluded = vec![false; nvars];
    let mut writer: Vec<Option<usize>> = vec![None; nvars];
    for f in net.flows() {
        excluded[f.target.0] = true;
    }
    for (p, a) in net.automata().iter().enumerate() {
        for l in &a.locations {
            for (v, _) in &l.rates {
                excluded[v.0] = true;
            }
        }
        for t in &a.transitions {
            for eff in &t.effects {
                match writer[eff.var.0] {
                    None => writer[eff.var.0] = Some(p),
                    Some(q) if q == p => {}
                    Some(_) => excluded[eff.var.0] = true,
                }
            }
        }
    }
    net.vars()
        .iter()
        .enumerate()
        .filter(|&(v, decl)| decl.ty == VarType::Clock && !excluded[v])
        .map(|(v, _)| (VarId(v), writer[v]))
        .collect()
}

struct Engine<'n> {
    net: &'n Network,
    timed: Vec<bool>,
    /// Indices of the timed variables.
    timed_vars: Vec<usize>,
    priv_vars: Vec<Vec<VarId>>,
    /// Global var → index into its owner's `priv_vars` list.
    priv_idx: Vec<Option<(usize, usize)>>,
    out: Outgoing,
    reachable: Vec<Vec<bool>>,
    envs: Vec<Vec<Option<Vec<AbsVal>>>>,
    env_joins: Vec<Vec<u32>>,
    store: Vec<AbsVal>,
    store_joins: Vec<u32>,
    /// Guard-satisfiable-from-reachable-source flags (monotone).
    live: Vec<Vec<bool>>,
    /// Zone product: tracked clocks per process (DBM indices 1..), with
    /// the synthetic global-time clock T as the last index.
    zones_on: bool,
    k: f64,
    zclocks: Vec<Vec<VarId>>,
    /// Per process: var → 1-based DBM index of its tracked clock. Empty
    /// for a process without tracked clocks: it does no zone work.
    zidx: Vec<Vec<Option<usize>>>,
    /// Residence zone per `[proc][loc]` (`None` until reached, and always
    /// for a process without tracked clocks). May be non-canonical after
    /// widening/extrapolation; readers re-close.
    zones: Vec<Vec<Option<Dbm>>>,
    zone_joins: Vec<Vec<u32>>,
    deps: Deps,
    flows: FlowBaseline,
    /// Reused buffers: the frame, the effect writes, the canonical
    /// residence zone of the location being processed, the guard-met
    /// source zone of a transition and the target residence zone.
    frame_buf: Vec<AbsVal>,
    writes_buf: Vec<(VarId, AbsVal)>,
    loc_zone: Dbm,
    zone_buf: Dbm,
    res_buf: Dbm,
    changed: bool,
    rounds: usize,
    widenings: usize,
    work: FixpointWork,
}

/// Change stamps for dirty-location scheduling.
///
/// Processing `(p, l)` is a function of its env and zone, the store
/// variables its outgoing guards, effects and target invariants — and,
/// when it has outgoing transitions, the flows — read, and the live
/// flags behind its sync actions. Every change to one of those bumps
/// `tick` and stamps the input; a location whose inputs all carry stamps
/// no newer than the start of its last processing would only re-join
/// values its targets already contain (all joins are monotone), so
/// skipping it leaves the sequence of effective joins — and with it
/// `rounds` and `widenings` — exactly as the plain round-robin produces
/// it.
///
/// Locations go by their [`Outgoing::index`], and the per-location
/// lists are slices of one array each.
struct Deps {
    tick: u64,
    /// Tick at the start of the last processing of each location.
    seen: Vec<u64>,
    /// Last change of the env or zone at each location.
    loc: Vec<u64>,
    /// Last change per store variable.
    var: Vec<u64>,
    /// Last change of a live flag per action.
    action: Vec<u64>,
    /// Store variables read by the outgoing guards, effects and target
    /// invariants of location `i`: `reads[read_at[i]..read_at[i + 1]]`.
    /// Timed variables (pinned to ⊤ for good) and the process's own
    /// private variables (the frame takes them from the env) are left
    /// out, here and in `flow_reads`.
    reads: Vec<usize>,
    read_at: Vec<usize>,
    /// Store variables the flows read, as seen from process `p`:
    /// `flow_reads[flow_read_at[p]..flow_read_at[p + 1]]`. They are
    /// inputs of every location of `p` with an outgoing transition.
    flow_reads: Vec<usize>,
    flow_read_at: Vec<usize>,
    /// Whether location `i` has an outgoing transition.
    has_out: Vec<bool>,
    /// Sync actions of the outgoing transitions of location `i`:
    /// `syncs[sync_at[i]..sync_at[i + 1]]`.
    syncs: Vec<usize>,
    sync_at: Vec<usize>,
}

impl Deps {
    fn new(
        net: &Network,
        out: &Outgoing,
        priv_idx: &[Option<(usize, usize)>],
        timed: &[bool],
    ) -> Deps {
        let mut read_by_flows = Vec::new();
        for f in net.flows() {
            f.expr.collect_vars(&mut read_by_flows);
        }
        let nprocs = net.automata().len();
        let nlocs = out.locations();
        // A store variable as process `p`'s frame reads it.
        let store_var =
            |p: usize, v: &VarId| !timed[v.0] && priv_idx[v.0].is_none_or(|(owner, _)| owner != p);
        let (mut flow_reads, mut flow_read_at) = (Vec::new(), Vec::with_capacity(nprocs + 1));
        let (mut reads, mut read_at) = (Vec::new(), Vec::with_capacity(nlocs + 1));
        let (mut syncs, mut sync_at) = (Vec::new(), Vec::with_capacity(nlocs + 1));
        let mut has_out = Vec::with_capacity(nlocs);
        flow_read_at.push(0);
        read_at.push(0);
        sync_at.push(0);
        let mut r = Vec::new();
        for (p, a) in net.automata().iter().enumerate() {
            let first_flow_read = flow_reads.len();
            flow_reads.extend(read_by_flows.iter().filter(|v| store_var(p, v)).map(|v| v.0));
            sort_dedup_tail(&mut flow_reads, first_flow_read);
            flow_read_at.push(flow_reads.len());
            for l in 0..a.locations.len() {
                let ts = out.of(p, l);
                has_out.push(!ts.is_empty());
                r.clear();
                let first_sync = syncs.len();
                for &t in ts {
                    let trans = &a.transitions[t];
                    if let GuardKind::Boolean(g) = &trans.guard {
                        g.collect_vars(&mut r);
                    }
                    for eff in &trans.effects {
                        eff.expr.collect_vars(&mut r);
                    }
                    a.locations[trans.to.0].invariant.collect_vars(&mut r);
                    if !trans.action.is_tau() {
                        syncs.push(trans.action.0);
                    }
                }
                let first_read = reads.len();
                reads.extend(r.iter().filter(|v| store_var(p, v)).map(|v| v.0));
                sort_dedup_tail(&mut reads, first_read);
                sort_dedup_tail(&mut syncs, first_sync);
                read_at.push(reads.len());
                sync_at.push(syncs.len());
            }
        }
        Deps {
            tick: 1,
            seen: vec![0; nlocs],
            // Every location starts out stale.
            loc: vec![1; nlocs],
            var: vec![0; net.vars().len()],
            action: vec![0; net.actions().len()],
            reads,
            read_at,
            flow_reads,
            flow_read_at,
            has_out,
            syncs,
            sync_at,
        }
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Whether an input of location `i`, of process `p`, changed since its
    /// last processing.
    fn stale(&self, p: usize, i: usize) -> bool {
        let seen = self.seen[i];
        let changed = |vars: &[usize]| vars.iter().any(|&v| self.var[v] > seen);
        self.loc[i] > seen
            || changed(&self.reads[self.read_at[i]..self.read_at[i + 1]])
            || (self.has_out[i]
                && changed(&self.flow_reads[self.flow_read_at[p]..self.flow_read_at[p + 1]]))
            || self.syncs[self.sync_at[i]..self.sync_at[i + 1]]
                .iter()
                .any(|&a| self.action[a] > seen)
    }
}

/// Outgoing transitions per location, in transition order, in one flat
/// array. Location `(p, l)` has the flat index `base[p] + l`.
struct Outgoing {
    /// Flat index of each process's first location.
    base: Vec<usize>,
    /// Location `i`'s transitions are `trans[at[i]..at[i + 1]]`.
    at: Vec<usize>,
    trans: Vec<usize>,
}

impl Outgoing {
    fn new(net: &Network) -> Outgoing {
        let mut base = Vec::with_capacity(net.automata().len());
        let mut nlocs = 0;
        for a in net.automata() {
            base.push(nlocs);
            nlocs += a.locations.len();
        }
        // Counting sort by source location, stable in transition order.
        let mut at = vec![0; nlocs + 1];
        for (p, a) in net.automata().iter().enumerate() {
            for t in &a.transitions {
                at[base[p] + t.from.0 + 1] += 1;
            }
        }
        for i in 0..nlocs {
            at[i + 1] += at[i];
        }
        let mut next = at.clone();
        let mut trans = vec![0; at[nlocs]];
        for (p, a) in net.automata().iter().enumerate() {
            for (t, tr) in a.transitions.iter().enumerate() {
                let slot = &mut next[base[p] + tr.from.0];
                trans[*slot] = t;
                *slot += 1;
            }
        }
        Outgoing { base, at, trans }
    }

    /// Number of locations over all processes.
    fn locations(&self) -> usize {
        self.at.len() - 1
    }

    /// Flat index of `(p, l)`.
    fn index(&self, p: usize, l: usize) -> usize {
        self.base[p] + l
    }

    /// Outgoing transitions of `(p, l)`.
    fn of(&self, p: usize, l: usize) -> &[usize] {
        let i = self.index(p, l);
        &self.trans[self.at[i]..self.at[i + 1]]
    }
}

/// Sorts and deduplicates `v[from..]` in place.
fn sort_dedup_tail(v: &mut Vec<usize>, from: usize) {
    v[from..].sort_unstable();
    let mut keep = from;
    for i in from..v.len() {
        if keep == from || v[i] != v[keep - 1] {
            v[keep] = v[i];
            keep += 1;
        }
    }
    v.truncate(keep);
}

/// The flow step of the post-image, memoized per flow.
///
/// A flow's value is a pure function of the variables it reads, so a
/// flow whose inputs equal, bit for bit, those its baseline value was
/// computed from takes that value without evaluating. The baseline
/// follows the store: it starts as the flow's value in the initial store
/// and is re-based whenever a post-image evaluates the flow on inputs
/// that equal the store's, so guard-refined or freshly written inputs
/// never evict it.
struct FlowBaseline {
    /// Variables each flow reads, deduplicated: flow `f`'s are
    /// `reads[at[f]..at[f + 1]]`.
    reads: Vec<usize>,
    at: Vec<usize>,
    /// The inputs the baseline value was computed from, aligned with
    /// `reads`.
    inputs: Vec<AbsVal>,
    /// Each flow's baseline value, already met with its target's type
    /// (`None`: provably out of range, every run through the step
    /// errors).
    value: Vec<Option<AbsVal>>,
}

impl FlowBaseline {
    fn new(net: &Network) -> FlowBaseline {
        let flows = net.flows();
        let mut reads = Vec::new();
        let mut at = Vec::with_capacity(flows.len() + 1);
        at.push(0);
        let mut vars = Vec::new();
        for f in flows {
            let first = reads.len();
            vars.clear();
            f.expr.collect_vars(&mut vars);
            reads.extend(vars.iter().map(|v| v.0));
            sort_dedup_tail(&mut reads, first);
            at.push(reads.len());
        }
        let inputs = vec![TOP_NUM; reads.len()];
        FlowBaseline { reads, at, inputs, value: vec![None; flows.len()] }
    }

    /// Makes `val` flow `i`'s baseline on the inputs `fr` holds.
    fn rebase(&mut self, i: usize, fr: &[AbsVal], val: Option<AbsVal>) {
        let span = self.at[i]..self.at[i + 1];
        for (slot, &v) in self.inputs[span.clone()].iter_mut().zip(&self.reads[span]) {
            *slot = fr[v];
        }
        self.value[i] = val;
    }

    /// Flow `i`'s value (`expr` met with `ty`) over the frame `fr`, from
    /// the baseline when its inputs match; `evals` counts evaluations.
    fn eval(
        &mut self,
        i: usize,
        expr: &Expr,
        ty: VarType,
        fr: &[AbsVal],
        store: &[AbsVal],
        evals: &mut usize,
    ) -> Option<AbsVal> {
        let reads = &self.reads[self.at[i]..self.at[i + 1]];
        let inputs = &self.inputs[self.at[i]..self.at[i + 1]];
        if reads.iter().zip(inputs).all(|(&v, &b)| same_bits(fr[v], b)) {
            return self.value[i];
        }
        *evals += 1;
        let val = abs_eval(expr, &|v| fr[v.0]).meet(AbsVal::of_type(ty));
        if reads.iter().all(|&v| same_bits(fr[v], store[v])) {
            self.rebase(i, fr, val);
        }
        val
    }
}

/// Bit-for-bit equality of abstract values (`==` identifies `-0.0` with
/// `+0.0`, which an evaluation may tell apart).
fn same_bits(a: AbsVal, b: AbsVal) -> bool {
    match (a, b) {
        (AbsVal::Num(al, ah), AbsVal::Num(bl, bh)) => {
            al.to_bits() == bl.to_bits() && ah.to_bits() == bh.to_bits()
        }
        (AbsVal::Bool(x), AbsVal::Bool(y)) => x == y,
        _ => false,
    }
}

impl<'n> Engine<'n> {
    /// An engine over `net` with extrapolation constant `k`, tracking the
    /// clocks `tracked` (see [`tracked_clocks`]) when `zones_on`.
    fn new(
        net: &'n Network,
        k: f64,
        tracked: &[(VarId, Option<usize>)],
        zones_on: bool,
    ) -> Engine<'n> {
        let vars = net.vars();
        let nvars = vars.len();
        let timed: Vec<bool> = vars.iter().map(|d| d.ty.is_timed()).collect();

        // A variable is private to its owner when only the owner's
        // effects ever write it and no flow re-derives it; everything
        // else lives in the global store.
        let mut flow_target = vec![false; nvars];
        for f in net.flows() {
            flow_target[f.target.0] = true;
        }
        let mut foreign_write = vec![false; nvars];
        for (p, a) in net.automata().iter().enumerate() {
            for t in &a.transitions {
                for eff in &t.effects {
                    if vars[eff.var.0].owner != Some(ProcId(p)) {
                        foreign_write[eff.var.0] = true;
                    }
                }
            }
        }
        let mut priv_vars: Vec<Vec<VarId>> = vec![Vec::new(); net.automata().len()];
        let mut priv_idx: Vec<Option<(usize, usize)>> = vec![None; nvars];
        for (v, decl) in vars.iter().enumerate() {
            if let Some(owner) = decl.owner {
                if !timed[v] && !flow_target[v] && !foreign_write[v] {
                    priv_idx[v] = Some((owner.0, priv_vars[owner.0].len()));
                    priv_vars[owner.0].push(VarId(v));
                }
            }
        }

        // Initial store: declared values exactly, timed pinned to ⊤,
        // then the flows overwrite their targets (the declared initial
        // value of a flow target is never observable). Each flow's value
        // here is its first baseline.
        let mut store: Vec<AbsVal> = vars
            .iter()
            .enumerate()
            .map(|(v, d)| if timed[v] { TOP_NUM } else { AbsVal::exact(d.ty.canonicalize(d.init)) })
            .collect();
        let mut flows = FlowBaseline::new(net);
        for (i, f) in net.flows().iter().enumerate() {
            let ty = vars[f.target.0].ty;
            let val = abs_eval(&f.expr, &|v| store[v.0]).meet(AbsVal::of_type(ty));
            flows.rebase(i, &store, val);
            store[f.target.0] = val.unwrap_or_else(|| AbsVal::of_type(ty));
        }

        let reachable: Vec<Vec<bool>> = net
            .automata()
            .iter()
            .map(|a| {
                let mut r = vec![false; a.locations.len()];
                r[a.init.0] = true;
                r
            })
            .collect();
        let envs: Vec<Vec<Option<Vec<AbsVal>>>> = net
            .automata()
            .iter()
            .enumerate()
            .map(|(p, a)| {
                let mut e: Vec<Option<Vec<AbsVal>>> = vec![None; a.locations.len()];
                e[a.init.0] = Some(priv_vars[p].iter().map(|v| store[v.0]).collect());
                e
            })
            .collect();
        let env_joins = net.automata().iter().map(|a| vec![0; a.locations.len()]).collect();
        let live = net.automata().iter().map(|a| vec![false; a.transitions.len()]).collect();
        let out = Outgoing::new(net);
        let deps = Deps::new(net, &out, &priv_idx, &timed);

        // Clock-zone product setup (see `tracked_clocks`).
        let nprocs = net.automata().len();
        let mut zclocks: Vec<Vec<VarId>> = vec![Vec::new(); nprocs];
        let mut zidx: Vec<Vec<Option<usize>>> = vec![Vec::new(); nprocs];
        if zones_on {
            for &(v, writer) in tracked {
                let mut track = |p: usize| {
                    if zidx[p].is_empty() {
                        zidx[p] = vec![None; nvars];
                    }
                    zidx[p][v.0] = Some(zclocks[p].len() + 1);
                    zclocks[p].push(v);
                };
                match writer {
                    Some(p) => track(p),
                    None => (0..nprocs).for_each(track),
                }
            }
        }
        let mut work = FixpointWork::default();
        // Initial residence zones: the exact initial point (clock inits
        // plus global time T = 0), intersected with the init location's
        // invariant, elapsed, and re-intersected. A process without
        // tracked clocks keeps T ≥ 0 at every location for good — no
        // constraint mentions T — so it stores no zones.
        let zones: Vec<Vec<Option<Dbm>>> = net
            .automata()
            .iter()
            .enumerate()
            .map(|(p, a)| {
                let mut zs: Vec<Option<Dbm>> = vec![None; a.locations.len()];
                if zones_on && !zclocks[p].is_empty() {
                    let mut vals: Vec<f64> = zclocks[p]
                        .iter()
                        .map(|v| match vars[v.0].ty.canonicalize(vars[v.0].init) {
                            Value::Real(r) => r,
                            Value::Int(i) => i as f64,
                            Value::Bool(_) => 0.0,
                        })
                        .collect();
                    vals.push(0.0); // global time T
                    let entry = Dbm::point(&vals);
                    let inv = &a.locations[a.init.0].invariant;
                    let ctx = ZoneCtx { zidx: &zidx[p], read: &|v| store[v.0] };
                    let mut met = entry.clone();
                    if !inv.is_const_true() {
                        constrain_expr(&mut met, &ctx, inv, true);
                    }
                    // An initially violated invariant aborts at t = 0;
                    // keep the point zone rather than ⊥ (sound).
                    let met = if met.close() { met } else { entry };
                    let mut res = met.clone();
                    residence_zone(&met, inv, &ctx, k, &mut res);
                    work.zone_closures += 2;
                    zs[a.init.0] = Some(res);
                }
                zs
            })
            .collect();
        let zone_joins = net.automata().iter().map(|a| vec![0; a.locations.len()]).collect();

        Engine {
            net,
            timed_vars: (0..nvars).filter(|&v| timed[v]).collect(),
            timed,
            priv_vars,
            priv_idx,
            out,
            reachable,
            envs,
            env_joins,
            store_joins: vec![0; nvars],
            store,
            live,
            zones_on,
            k,
            zclocks,
            zidx,
            zones,
            zone_joins,
            deps,
            flows,
            frame_buf: Vec::with_capacity(nvars),
            writes_buf: Vec::new(),
            loc_zone: Dbm::unconstrained(0),
            zone_buf: Dbm::unconstrained(0),
            res_buf: Dbm::unconstrained(0),
            changed: false,
            rounds: 0,
            widenings: 0,
            work,
        }
    }

    /// Counts one zone closure on behalf of process `p`.
    fn count_closure(&mut self, p: usize) {
        self.work.zone_closures += 1;
        if self.zclocks[p].is_empty() {
            self.work.clockless_zone_closures += 1;
        }
    }

    /// Whether `p` runs the zone product: zones are on and it tracks a
    /// clock. Without one, no guard or invariant atom has a clock term,
    /// so its residence zone stays T ≥ 0 and can never cut a transition.
    fn zoned(&self, p: usize) -> bool {
        self.zones_on && !self.zclocks[p].is_empty()
    }

    /// The canonical residence zone at `(p, l)` of a zoned process, into
    /// `w`. Stored zones are non-empty by construction; a failed close
    /// (cannot happen) degrades to the unconstrained zone.
    fn residence_into(&mut self, p: usize, l: usize, w: &mut Dbm) {
        let dim = self.zclocks[p].len() + 2;
        match &self.zones[p][l] {
            Some(z) => {
                w.clone_from(z);
                self.count_closure(p);
                if !w.close() {
                    *w = Dbm::unconstrained(dim);
                }
            }
            None => *w = Dbm::unconstrained(dim),
        }
    }

    /// The frame over all variables as seen from `(p, l)`, into a reused
    /// buffer.
    fn frame_into(&self, p: usize, l: usize, f: &mut Vec<AbsVal>) {
        f.clear();
        f.extend_from_slice(&self.store);
        if let Some(env) = &self.envs[p][l] {
            for (i, v) in self.priv_vars[p].iter().enumerate() {
                f[v.0] = env[i];
            }
        }
    }

    /// Every participant of `action` has a live transition carrying it.
    fn action_available(&self, action: ActionId) -> bool {
        self.net.participants(action).iter().all(|q| {
            self.net.automata()[q.0]
                .transitions
                .iter()
                .enumerate()
                .any(|(i, t)| t.action == action && self.live[q.0][i])
        })
    }

    /// Round-robin over the reachable locations until nothing changes,
    /// skipping locations whose inputs are unchanged (see [`Deps`]).
    fn run(mut self) -> Fixpoint {
        #[cfg(test)]
        ENGINE_RUNS.set(ENGINE_RUNS.get() + 1);
        loop {
            self.rounds += 1;
            self.changed = false;
            for p in 0..self.net.automata().len() {
                for l in 0..self.net.automata()[p].locations.len() {
                    let i = self.out.index(p, l);
                    if self.reachable[p][l] && self.deps.stale(p, i) {
                        self.deps.seen[i] = self.deps.tick;
                        self.process_location(p, l);
                    }
                }
            }
            if !self.changed {
                break;
            }
        }
        self.finish()
    }

    /// Marks the fixpoint as changed and returns a fresh change stamp.
    fn touch(&mut self) -> u64 {
        self.changed = true;
        self.deps.bump()
    }

    /// Stamps a change of the env or zone at `(p, l)`.
    fn touch_loc(&mut self, p: usize, l: usize) {
        let stamp = self.touch();
        let i = self.out.index(p, l);
        self.deps.loc[i] = stamp;
    }

    /// Sets the live flag of `(p, t)`, stamping its sync action.
    fn set_live(&mut self, p: usize, t: usize, action: ActionId) {
        if !self.live[p][t] {
            self.live[p][t] = true;
            let stamp = self.touch();
            if !action.is_tau() {
                self.deps.action[action.0] = stamp;
            }
        }
    }

    fn process_location(&mut self, p: usize, l: usize) {
        let net = self.net;
        self.work.locations += 1;
        let zoned = self.zoned(p);
        let mut res_zone = std::mem::replace(&mut self.loc_zone, Dbm::unconstrained(0));
        if zoned {
            self.residence_into(p, l, &mut res_zone);
        }
        let mut fr = std::mem::take(&mut self.frame_buf);
        let mut zone = std::mem::replace(&mut self.zone_buf, Dbm::unconstrained(0));
        for i in 0..self.out.of(p, l).len() {
            let t = self.out.of(p, l)[i];
            let trans = &net.automata()[p].transitions[t];
            let (to, action) = (trans.to.0, trans.action);
            self.frame_into(p, l, &mut fr);
            if zoned {
                zone.clone_from(&res_zone);
            }
            match &trans.guard {
                GuardKind::Markovian(_) => self.set_live(p, t, action),
                GuardKind::Boolean(g) => {
                    if !refine(g, true, &mut fr) {
                        continue; // guard unsatisfiable from here
                    }
                    // Zone product: intersect the residence zone with the
                    // guard's difference constraints. An empty meet means
                    // no time-consistent valuation satisfies the guard.
                    if zoned {
                        let ctx = ZoneCtx { zidx: &self.zidx[p], read: &|v| fr[v.0] };
                        constrain_expr(&mut zone, &ctx, g, true);
                        self.count_closure(p);
                        if !zone.close() {
                            continue; // zone-dead guard from here
                        }
                    }
                    self.set_live(p, t, action);
                    if !action.is_tau() && !self.action_available(action) {
                        continue;
                    }
                }
            }
            self.transfer(p, t, to, &mut fr, zoned.then_some(&mut zone));
        }
        self.frame_buf = fr;
        self.zone_buf = zone;
        self.loc_zone = res_zone;
    }

    /// Applies effects, flows, and the target invariant to the refined
    /// source frame, then joins the result into `(p, to)` and the store.
    /// `zone` is the canonical guard-met zone at the source (`None` when
    /// `p` runs no zone product).
    fn transfer(
        &mut self,
        p: usize,
        t: usize,
        to: usize,
        fr: &mut [AbsVal],
        mut zone: Option<&mut Dbm>,
    ) {
        let mut writes = std::mem::take(&mut self.writes_buf);
        writes.clear();
        if self.post(p, t, to, fr, zone.as_deref_mut(), &mut writes) {
            if !self.reachable[p][to] {
                self.reachable[p][to] = true;
                self.touch();
            }
            // The residence closure: every valuation reachable by
            // elapsing time from a surviving entry while the target's
            // invariant keeps holding.
            if let Some(entry) = zone {
                let mut res = std::mem::replace(&mut self.res_buf, Dbm::unconstrained(0));
                let inv = &self.net.automata()[p].locations[to].invariant;
                let ctx = ZoneCtx { zidx: &self.zidx[p], read: &|v| fr[v.0] };
                residence_zone(entry, inv, &ctx, self.k, &mut res);
                self.count_closure(p);
                self.join_zone(p, to, &res);
                self.res_buf = res;
            }
            self.join_env(p, to, fr);
            for &(v, _) in &writes {
                if self.priv_idx[v.0].is_none() {
                    self.join_store(v, fr[v.0]);
                }
            }
        }
        self.writes_buf = writes;
    }

    /// The post-state of `(p, t)` into `(p, to)`: rewrites `fr` in place,
    /// records the written variables in `writes` and, with the zone
    /// product on, leaves the canonical entry zone (target invariant
    /// met) in `zone`. Returns `false` when every run through the
    /// transition aborts.
    fn post(
        &mut self,
        p: usize,
        t: usize,
        to: usize,
        fr: &mut [AbsVal],
        mut zone: Option<&mut Dbm>,
        writes: &mut Vec<(VarId, AbsVal)>,
    ) -> bool {
        let net = self.net;
        self.work.posts += 1;
        let trans = &net.automata()[p].transitions[t];
        // Clock resets in the zone, evaluated over the pre-state frame
        // (before the interval writes land). A singleton value is an
        // exact reset; anything else frees the clock to the value's
        // interval hull.
        if let Some(z) = &mut zone {
            for eff in &trans.effects {
                let Some(i) = self.zidx[p][eff.var.0] else { continue };
                match abs_eval(&eff.expr, &|v| fr[v.0]) {
                    AbsVal::Num(lo, hi) if lo == hi && lo.is_finite() => z.reset(i, lo),
                    AbsVal::Num(lo, hi) => {
                        z.free(i);
                        if hi.is_finite() {
                            z.constrain(i, 0, hi);
                        }
                        if lo.is_finite() {
                            z.constrain(0, i, -lo);
                        }
                        self.count_closure(p);
                        if !z.close() {
                            return false; // unreachable: bounding a freed clock
                        }
                    }
                    AbsVal::Bool(_) => z.free(i),
                }
            }
        }
        // Effects read the pre-state simultaneously, then write.
        for eff in &trans.effects {
            let val = abs_eval(&eff.expr, &|v| fr[v.0]);
            if self.timed[eff.var.0] {
                continue; // re-pinned to ⊤ below
            }
            let Some(val) = val.meet(AbsVal::of_type(net.ty_of(eff.var))) else {
                return false; // provably out of range: the step always errors
            };
            writes.push((eff.var, val));
        }
        for (v, val) in writes.iter() {
            fr[v.0] = *val;
        }
        // Time may pass before the frame is next observed.
        for &v in &self.timed_vars {
            fr[v] = TOP_NUM;
        }
        // Flows re-derive their targets in every state.
        for (i, f) in net.flows().iter().enumerate() {
            let ty = net.ty_of(f.target);
            let evals = &mut self.work.flow_evals;
            let Some(val) = self.flows.eval(i, &f.expr, ty, fr, &self.store, evals) else {
                return false;
            };
            fr[f.target.0] = val;
            writes.push((f.target, val));
        }
        // Entering a location whose invariant the new valuation violates
        // aborts the run; surviving runs satisfy it.
        let inv = &net.automata()[p].locations[to].invariant;
        if !inv.is_const_true() && !refine(inv, true, fr) {
            return false;
        }
        // Zone side of the entry check.
        let Some(ze) = zone else { return true };
        if !inv.is_const_true() {
            let ctx = ZoneCtx { zidx: &self.zidx[p], read: &|v| fr[v.0] };
            constrain_expr(ze, &ctx, inv, true);
        }
        self.count_closure(p);
        ze.close() // empty: every entering run aborts on the invariant
    }

    fn join_env(&mut self, p: usize, to: usize, fr: &[AbsVal]) {
        let widen = self.env_joins[p][to] >= WIDEN_AFTER;
        let mut grew = false;
        match &mut self.envs[p][to] {
            slot @ None => {
                *slot = Some(self.priv_vars[p].iter().map(|v| fr[v.0]).collect());
                grew = true;
            }
            Some(old) => {
                for (i, v) in self.priv_vars[p].iter().enumerate() {
                    let joined = old[i].join(fr[v.0]);
                    if joined != old[i] {
                        old[i] = if widen {
                            self.widenings += 1;
                            let ty = self.net.ty_of(*v);
                            old[i]
                                .widen(joined)
                                .meet(AbsVal::of_type(ty))
                                .unwrap_or_else(|| AbsVal::of_type(ty))
                        } else {
                            joined
                        };
                        grew = true;
                    }
                }
            }
        }
        if grew {
            self.touch_loc(p, to);
            self.env_joins[p][to] += 1;
            // Keep the store an upper bound of every location env, so
            // cross-process reads of private variables stay sound.
            for i in 0..self.priv_vars[p].len() {
                let val = self.envs[p][to].as_ref().expect("just set")[i];
                self.join_store_raw(self.priv_vars[p][i], val);
            }
        }
    }

    /// Joins a residence zone into `(p, to)`, widening (grown entries
    /// jump to ∞) once the per-location join budget is spent.
    fn join_zone(&mut self, p: usize, to: usize, w: &Dbm) {
        match &mut self.zones[p][to] {
            slot @ None => {
                *slot = Some(w.clone());
                self.zone_joins[p][to] = 1;
                self.touch_loc(p, to);
            }
            Some(old) => {
                let widen = self.zone_joins[p][to] >= WIDEN_AFTER;
                if old.join_widen(w, widen) {
                    if widen {
                        self.widenings += 1;
                    }
                    self.zone_joins[p][to] += 1;
                    self.touch_loc(p, to);
                }
            }
        }
    }

    fn join_store(&mut self, v: VarId, val: AbsVal) {
        if self.timed[v.0] {
            return;
        }
        self.join_store_raw(v, val);
    }

    fn join_store_raw(&mut self, v: VarId, val: AbsVal) {
        let joined = self.store[v.0].join(val);
        if joined != self.store[v.0] {
            self.store[v.0] = if self.store_joins[v.0] >= WIDEN_AFTER {
                self.widenings += 1;
                let ty = self.net.ty_of(v);
                self.store[v.0]
                    .widen(joined)
                    .meet(AbsVal::of_type(ty))
                    .unwrap_or_else(|| AbsVal::of_type(ty))
            } else {
                joined
            };
            self.store_joins[v.0] += 1;
            self.deps.var[v.0] = self.touch();
        }
    }

    /// Final classification of every transition against the stabilized
    /// environments.
    fn finish(mut self) -> Fixpoint {
        let nprocs = self.net.automata().len();
        let mut status: Vec<Vec<TransStatus>> = Vec::with_capacity(nprocs);
        // Satisfiability against the final envs and zones (recomputed so
        // the flags are consistent with the published environments). The
        // interval and zone verdicts are kept apart so lints can
        // attribute zone-only deadness (S302) precisely.
        let mut int_sat: Vec<Vec<bool>> = Vec::with_capacity(nprocs);
        let mut zone_sat: Vec<Vec<bool>> = Vec::with_capacity(nprocs);
        let mut trans_min_time: Vec<Vec<Option<f64>>> = Vec::with_capacity(nprocs);
        // Canonical residence zone per reachable `[proc][loc]` of a zoned
        // process. Every other process resides in T ≥ 0, whose lower
        // bound on T is 0 and which every guard meets.
        let mut residences: Vec<Vec<Option<Dbm>>> = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut rs = Vec::with_capacity(self.reachable[p].len());
            for l in 0..self.reachable[p].len() {
                rs.push((self.reachable[p][l] && self.zoned(p)).then(|| {
                    let mut w = Dbm::unconstrained(0);
                    self.residence_into(p, l, &mut w);
                    w
                }));
            }
            residences.push(rs);
        }
        // Effects that provably always error, flagged on satisfiable
        // transitions and kept below for the live ones.
        let mut doomed_candidates: Vec<(ProcId, TransId, usize)> = Vec::new();
        let mut fr = Vec::with_capacity(self.store.len());
        let mut zg = Dbm::unconstrained(0);
        for (p, a) in self.net.automata().iter().enumerate() {
            let tidx = self.zclocks[p].len() + 1;
            let mut si = Vec::with_capacity(a.transitions.len());
            let mut sz = Vec::with_capacity(a.transitions.len());
            let mut mt = Vec::with_capacity(a.transitions.len());
            for (t, trans) in a.transitions.iter().enumerate() {
                let from = trans.from.0;
                let reach = self.reachable[p][from];
                if reach {
                    self.frame_into(p, from, &mut fr);
                }
                let ok = reach
                    && match &trans.guard {
                        GuardKind::Markovian(_) => true,
                        GuardKind::Boolean(g) => refine(g, true, &mut fr),
                    };
                // Zone verdict only matters where the interval side says
                // "live"; it also yields the earliest global time the
                // transition can fire (lower bound on T in the met zone).
                let (zok, zmin) = match (&residences[p][from], &trans.guard) {
                    _ if !ok => (true, None),
                    (None, _) => (true, self.zones_on.then_some(0.0)),
                    (Some(res), GuardKind::Markovian(_)) => (true, Some(time_lower(res, tidx))),
                    (Some(res), GuardKind::Boolean(g)) => {
                        zg.clone_from(res);
                        let ctx = ZoneCtx { zidx: &self.zidx[p], read: &|v| fr[v.0] };
                        constrain_expr(&mut zg, &ctx, g, true);
                        self.count_closure(p);
                        if zg.close() {
                            (true, Some(time_lower(&zg, tidx)))
                        } else {
                            (false, None)
                        }
                    }
                };
                if ok && zok {
                    for (i, eff) in trans.effects.iter().enumerate() {
                        if self.timed[eff.var.0] {
                            continue;
                        }
                        let val = abs_eval(&eff.expr, &|v| fr[v.0]);
                        if val.meet(AbsVal::of_type(self.net.ty_of(eff.var))).is_none() {
                            doomed_candidates.push((ProcId(p), TransId(t), i));
                        }
                    }
                }
                si.push(ok);
                sz.push(zok);
                mt.push(zmin);
            }
            int_sat.push(si);
            zone_sat.push(sz);
            trans_min_time.push(mt);
        }
        // The final live flags: satisfiable under both domains.
        self.live = int_sat
            .iter()
            .zip(zone_sat.iter())
            .map(|(a, b)| a.iter().zip(b.iter()).map(|(x, y)| *x && *y).collect())
            .collect();
        for (p, a) in self.net.automata().iter().enumerate() {
            let mut st = Vec::with_capacity(a.transitions.len());
            for (t, trans) in a.transitions.iter().enumerate() {
                let s = if !self.reachable[p][trans.from.0] {
                    TransStatus::DeadSource
                } else if !self.live[p][t] {
                    TransStatus::DeadGuard
                } else if !trans.action.is_tau() && !self.action_available(trans.action) {
                    TransStatus::SyncBlocked
                } else {
                    TransStatus::Live
                };
                st.push(s);
            }
            status.push(st);
        }
        let doomed_effects: Vec<(ProcId, TransId, usize)> = doomed_candidates
            .into_iter()
            .filter(|(p, t, _)| status[p.0][t.0] == TransStatus::Live)
            .collect();
        // Zone-only deadness (reachable, interval-live, zone-empty), the
        // per-location minimum elapsed time, and static timelocks: a
        // bounded-residence location where every exit is dead and at
        // least one only the zone domain could kill.
        let mut zone_dead: Vec<Vec<bool>> = Vec::with_capacity(nprocs);
        for (p, a) in self.net.automata().iter().enumerate() {
            let mut zd = Vec::with_capacity(a.transitions.len());
            for (t, _) in a.transitions.iter().enumerate() {
                zd.push(int_sat[p][t] && !zone_sat[p][t]);
            }
            zone_dead.push(zd);
        }
        let mut min_time: Vec<Vec<Option<f64>>> = Vec::with_capacity(nprocs);
        let mut timelocks: Vec<(ProcId, LocId)> = Vec::new();
        for (p, a) in self.net.automata().iter().enumerate() {
            let tidx = self.zclocks[p].len() + 1;
            let mut mt = Vec::with_capacity(a.locations.len());
            for (l, res) in residences[p].iter().enumerate() {
                let outgoing = self.out.of(p, l);
                mt.push(match res {
                    Some(z) => Some(time_lower(z, tidx)),
                    None => (self.zones_on && self.reachable[p][l]).then_some(0.0),
                });
                let Some(res) = res else { continue };
                if outgoing.is_empty()
                    || !outgoing.iter().all(|&t| !self.live[p][t])
                    || !outgoing.iter().any(|&t| zone_dead[p][t])
                {
                    continue;
                }
                let bounded = (1..tidx).any(|i| res.upper(i).is_finite());
                if bounded {
                    timelocks.push((ProcId(p), LocId(l)));
                }
            }
            min_time.push(mt);
        }
        Fixpoint {
            reachable: self.reachable,
            envs: self.envs,
            priv_vars: self.priv_vars,
            store: self.store,
            status,
            doomed_effects,
            zones_enabled: self.zones_on,
            extrapolation_k: if self.zones_on { self.k } else { 0.0 },
            zone_clock_count: self.zclocks.iter().map(Vec::len).sum(),
            min_time,
            zone_dead,
            timelocks,
            trans_min_time,
            rounds: self.rounds,
            widenings: self.widenings,
            work: self.work,
        }
    }
}

/// Lower bound on the global-time clock `tidx` in `z`, floored at zero.
/// The floor is always `+0.0`: `f64::max` may return either zero for
/// `max(-0.0, 0.0)`, which made the published bound depend on how the
/// call was compiled.
fn time_lower(z: &Dbm, tidx: usize) -> f64 {
    let lo = z.lower(tidx);
    if lo > 0.0 {
        lo
    } else {
        0.0
    }
}

/// The residence closure of a canonical, invariant-satisfying entry zone
/// into `w`: elapse time, re-intersect the invariant, close, extrapolate.
/// The entry zone itself is the (sound) fallback should closure ever
/// fail — it cannot for a convex invariant, since the entry zone is a
/// subset.
fn residence_zone(entry: &Dbm, inv: &Expr, ctx: &ZoneCtx<'_>, k: f64, w: &mut Dbm) {
    w.clone_from(entry);
    w.up();
    if !inv.is_const_true() {
        constrain_expr(w, ctx, inv, true);
    }
    if !w.close() {
        w.clone_from(entry);
    }
    w.extrapolate(k);
}

impl Fixpoint {
    /// Whether `(p, l)` is reachable in the abstraction. Unreachable here
    /// means unreachable in *every* concrete run.
    pub fn loc_reachable(&self, p: ProcId, l: LocId) -> bool {
        self.reachable[p.0][l.0]
    }

    /// Final classification of transition `(p, t)`.
    pub fn trans_status(&self, p: ProcId, t: TransId) -> TransStatus {
        self.status[p.0][t.0]
    }

    /// Live transitions with an effect that provably assigns outside its
    /// target's declared range (the step always errors at runtime), as
    /// `(proc, trans, effect index)`.
    pub fn doomed_effects(&self) -> &[(ProcId, TransId, usize)] {
        &self.doomed_effects
    }

    /// Global abstract value of a variable: an upper bound over every
    /// reachable state (⊤ interval for timed variables).
    pub fn global(&self, v: VarId) -> AbsVal {
        self.store[v.0]
    }

    /// Abstractly evaluates a predicate over the global store.
    /// `Some(b)` means the predicate is `b` in **every** reachable state;
    /// `None` means the abstraction cannot decide it.
    pub fn may_expr(&self, e: &Expr) -> Option<bool> {
        abs_eval(e, &|v| self.store[v.0]).as_bool()
    }

    /// The guard-refined frame a live transition fires under (`None` for
    /// dead/blocked transitions). Indexed by [`VarId`].
    pub fn transition_frame(&self, net: &Network, p: ProcId, t: TransId) -> Option<Vec<AbsVal>> {
        if self.status[p.0][t.0] != TransStatus::Live {
            return None;
        }
        let trans = &net.automata()[p.0].transitions[t.0];
        let mut fr = self.store.clone();
        if let Some(env) = &self.envs[p.0][trans.from.0] {
            for (i, v) in self.priv_vars[p.0].iter().enumerate() {
                fr[v.0] = env[i];
            }
        }
        if let GuardKind::Boolean(g) = &trans.guard {
            refine(g, true, &mut fr);
        }
        Some(fr)
    }

    /// Computes which transitions and locations can be removed without
    /// changing any observable `(seed, workers)` outcome — see
    /// [`Network::prune`].
    ///
    /// A transition is dropped when it is provably never *fired* **and**
    /// dropping it cannot change runtime behavior:
    ///
    /// * unreachable source — its guard is never even evaluated;
    /// * dead guard or blocked sync from a reachable source — the guard
    ///   *is* evaluated each step, so it must additionally be **total**
    ///   (evaluation can never error) for removal to be invisible;
    /// * sync alphabets are preserved action-wise: either every
    ///   transition of an action goes (the action can never fire and
    ///   disappears entirely) or each participant keeps at least one, so
    ///   the participant table of the pruned network is unchanged for
    ///   every action that can still fire.
    ///
    /// Locations are dropped when unreachable and unreferenced by any
    /// kept transition.
    pub fn prune_plan(&self, net: &Network) -> PrunePlan {
        let nprocs = net.automata().len();
        let mut drop_trans: Vec<Vec<bool>> =
            net.automata().iter().map(|a| vec![false; a.transitions.len()]).collect();

        // Per-action bookkeeping over sync transitions.
        let nactions = net.actions().len();
        // action → (proc, trans) of every transition carrying it.
        let mut carriers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nactions];
        for (p, a) in net.automata().iter().enumerate() {
            for (t, trans) in a.transitions.iter().enumerate() {
                if !trans.action.is_tau() {
                    carriers[trans.action.0].push((p, t));
                }
                // τ and Markovian transitions have no alphabet impact.
                let dead =
                    matches!(self.status[p][t], TransStatus::DeadSource | TransStatus::DeadGuard);
                if trans.action.is_tau() && dead && self.removable(net, p, t) {
                    drop_trans[p][t] = true;
                }
            }
        }

        for (act, carry) in carriers.iter().enumerate() {
            if carry.is_empty() {
                continue;
            }
            let action = ActionId(act);
            let fully_dead = net.participants(action).iter().any(|q| {
                net.automata()[q.0].transitions.iter().enumerate().all(|(t, trans)| {
                    trans.action != action
                        || matches!(
                            self.status[q.0][t],
                            TransStatus::DeadSource | TransStatus::DeadGuard
                        )
                })
            });
            if fully_dead {
                // The action can never fire. Either all its transitions
                // go (the action vanishes network-wide) or only the
                // alphabet-preserving subset does.
                if carry.iter().all(|&(p, t)| self.removable(net, p, t)) {
                    for &(p, t) in carry {
                        drop_trans[p][t] = true;
                    }
                } else {
                    self.drop_alphabet_preserving(net, carry, &mut drop_trans, |s| {
                        s == TransStatus::DeadSource
                    });
                }
            } else {
                // The action may fire: drop individual dead transitions,
                // keeping every participant's alphabet intact.
                self.drop_alphabet_preserving(net, carry, &mut drop_trans, |s| {
                    matches!(s, TransStatus::DeadSource | TransStatus::DeadGuard)
                });
            }
        }

        // Locations: unreachable and unreferenced by anything kept.
        let mut drop_locs: Vec<Vec<bool>> = Vec::with_capacity(nprocs);
        for (p, a) in net.automata().iter().enumerate() {
            let mut drop = vec![false; a.locations.len()];
            for (l, r) in self.reachable[p].iter().enumerate() {
                drop[l] = !r && LocId(l) != a.init;
            }
            for (t, trans) in a.transitions.iter().enumerate() {
                if !drop_trans[p][t] {
                    drop[trans.from.0] = false;
                    drop[trans.to.0] = false;
                }
            }
            drop_locs.push(drop);
        }
        PrunePlan { drop_trans, drop_locs }
    }

    /// Dropping `(p, t)` cannot change runtime behavior: either its guard
    /// is never evaluated (unreachable source) or its evaluation is total.
    fn removable(&self, net: &Network, p: usize, t: usize) -> bool {
        if self.status[p][t] == TransStatus::DeadSource {
            return true;
        }
        match &net.automata()[p].transitions[t].guard {
            GuardKind::Markovian(_) => false, // live from a reachable source
            GuardKind::Boolean(g) => guard_total(g, net, &|v| self.store[v.0]),
        }
    }

    /// Marks droppable transitions among `carry`, keeping ≥ 1 transition
    /// of the action per automaton so alphabets (and hence the pruned
    /// network's participant table) are unchanged.
    fn drop_alphabet_preserving(
        &self,
        net: &Network,
        carry: &[(usize, usize)],
        drop_trans: &mut [Vec<bool>],
        droppable_status: impl Fn(TransStatus) -> bool,
    ) {
        for (p, drops) in drop_trans.iter_mut().enumerate() {
            let mine: Vec<usize> =
                carry.iter().filter(|&&(q, _)| q == p).map(|&(_, t)| t).collect();
            if mine.is_empty() {
                continue;
            }
            let droppable: Vec<bool> = mine
                .iter()
                .map(|&t| droppable_status(self.status[p][t]) && self.removable(net, p, t))
                .collect();
            let fixed_keep = droppable.iter().filter(|d| !**d).count();
            // If nothing is forced to stay, keep one droppable transition
            // anyway so the automaton's alphabet is unchanged.
            let mut budget = if fixed_keep > 0 { usize::MAX } else { mine.len() - 1 };
            for (i, &t) in mine.iter().enumerate() {
                if droppable[i] && budget > 0 {
                    drops[t] = true;
                    budget = budget.saturating_sub(1);
                }
            }
        }
    }

    /// The work the engine did to compute this fixpoint.
    pub fn work(&self) -> FixpointWork {
        self.work
    }

    /// Whether the clock-zone product ran in this fixpoint.
    pub fn zones_enabled(&self) -> bool {
        self.zones_enabled
    }

    /// The k-extrapolation constant the zone domain used (0 when off).
    pub fn extrapolation_k(&self) -> f64 {
        self.extrapolation_k
    }

    /// Total tracked clock slots across all processes.
    pub fn zone_clock_count(&self) -> usize {
        self.zone_clock_count
    }

    /// Zone lower bound on the global elapsed time whenever `(p, l)` is
    /// occupied: every concrete run entering `l` does so at time ≥ this.
    /// `None` when unreachable or with zones off.
    pub fn min_time_to_loc(&self, p: ProcId, l: LocId) -> Option<f64> {
        self.min_time[p.0][l.0]
    }

    /// True when `(p, t)` is dead *only* under the zone domain — its
    /// source is reachable and the interval side finds the guard
    /// satisfiable, but no time-consistent valuation does (S302).
    pub fn zone_dead_guard(&self, p: ProcId, t: TransId) -> bool {
        self.zone_dead[p.0][t.0]
    }

    /// Reachable locations that are static timelocks under the zone
    /// domain: residence is invariant-bounded, every outgoing transition
    /// is dead, and at least one of them only the zones could kill (S303).
    pub fn static_timelocks(&self) -> &[(ProcId, LocId)] {
        &self.timelocks
    }

    /// Zone lower bound on the global elapsed time at which `(p, t)` can
    /// first fire. `None` for dead transitions or with zones off.
    pub fn trans_min_fire_time(&self, p: ProcId, t: TransId) -> Option<f64> {
        self.trans_min_time[p.0][t.0]
    }

    /// Per-location minimum number of transitions (within each process's
    /// own graph, over live transitions) to reach any of `targets`; a
    /// target's `u64` is its base offset (e.g. 1 for "one more firing
    /// makes the goal expression true"). `None` = no live path. This is
    /// the fixpoint-derived level function seam for rare-event splitting.
    pub fn distance_steps(
        &self,
        net: &Network,
        targets: &[(ProcId, LocId, u64)],
    ) -> Vec<Vec<Option<u64>>> {
        let mut dist: Vec<Vec<Option<u64>>> =
            net.automata().iter().map(|a| vec![None; a.locations.len()]).collect();
        for &(p, l, off) in targets {
            let slot = &mut dist[p.0][l.0];
            *slot = Some(slot.map_or(off, |d| d.min(off)));
        }
        // Backward relaxation over live transitions until stable; the
        // graphs are small, so the quadratic loop is fine.
        loop {
            let mut changed = false;
            for (p, a) in net.automata().iter().enumerate() {
                for (t, trans) in a.transitions.iter().enumerate() {
                    if self.status[p][t] != TransStatus::Live {
                        continue;
                    }
                    let Some(dt) = dist[p][trans.to.0] else { continue };
                    let cand = dt.saturating_add(1);
                    if dist[p][trans.from.0].is_none_or(|d| cand < d) {
                        dist[p][trans.from.0] = Some(cand);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        dist
    }

    /// Renders the proof-artifact summary.
    pub fn summary(&self, net: &Network) -> crate::summary::AnalysisSummary {
        crate::summary::AnalysisSummary::build(self, net, None)
    }

    /// Renders the summary with the per-location distance-to-goal map
    /// computed against `targets` (see [`Fixpoint::distance_steps`]).
    pub fn summary_with_goals(
        &self,
        net: &Network,
        targets: &[(ProcId, LocId, u64)],
    ) -> crate::summary::AnalysisSummary {
        crate::summary::AnalysisSummary::build(self, net, Some(targets))
    }

    pub(crate) fn reachable_matrix(&self) -> &[Vec<bool>] {
        &self.reachable
    }

    pub(crate) fn status_matrix(&self) -> &[Vec<TransStatus>] {
        &self.status
    }

    pub(crate) fn zone_dead_matrix(&self) -> &[Vec<bool>] {
        &self.zone_dead
    }

    pub(crate) fn min_time_matrix(&self) -> &[Vec<Option<f64>>] {
        &self.min_time
    }
}

/// True when evaluating `e` as a guard can never raise an evaluation
/// error — neither `NonLinear` (from the affine delay solver's fragment
/// limits) nor `DivisionByZero` — for any valuation the store admits.
///
/// This is the gate that makes removing an *evaluated-but-dead* guard
/// invisible: the legacy and compiled solvers evaluate guards eagerly, so
/// a dead transition whose guard could error must be kept.
pub fn guard_total(e: &Expr, net: &Network, read: &dyn Fn(VarId) -> AbsVal) -> bool {
    total_bool(e, net, read)
}

fn delay_free(e: &Expr, net: &Network) -> bool {
    !e.reads_any_var(&|v| net.ty_of(v).is_timed())
}

fn total_bool(e: &Expr, net: &Network, read: &dyn Fn(VarId) -> AbsVal) -> bool {
    use BinOp::*;
    match e {
        Expr::Const(slim_automata::value::Value::Bool(_)) => true,
        Expr::Var(v) => net.ty_of(*v) == VarType::Bool,
        Expr::Not(x) => total_bool(x, net, read),
        Expr::Bin(And | Or | Xor | Implies, a, b) => {
            total_bool(a, net, read) && total_bool(b, net, read)
        }
        Expr::Bin(Eq | Ne, a, b) => {
            (total_bool(a, net, read) && total_bool(b, net, read))
                || (total_num(a, net, read) && total_num(b, net, read))
        }
        Expr::Bin(Lt | Le | Gt | Ge, a, b) => total_num(a, net, read) && total_num(b, net, read),
        // Boolean-branch `if`: the solver solves all three sets eagerly.
        Expr::Ite(c, t, els) => {
            total_bool(c, net, read) && total_bool(t, net, read) && total_bool(els, net, read)
        }
        _ => false,
    }
}

fn total_num(e: &Expr, net: &Network, read: &dyn Fn(VarId) -> AbsVal) -> bool {
    use BinOp::*;
    match e {
        Expr::Const(slim_automata::value::Value::Int(_))
        | Expr::Const(slim_automata::value::Value::Real(_)) => true,
        Expr::Var(v) => net.ty_of(*v) != VarType::Bool,
        Expr::Neg(x) => total_num(x, net, read),
        Expr::Bin(Add | Sub, a, b) => total_num(a, net, read) && total_num(b, net, read),
        // The affine solver multiplies only when one side is constant in
        // the delay; a delay-free side is.
        Expr::Bin(Mul, a, b) => {
            total_num(a, net, read)
                && total_num(b, net, read)
                && (delay_free(a, net) || delay_free(b, net))
        }
        // Division needs a delay-constant, provably nonzero divisor.
        Expr::Bin(Div, a, b) => {
            total_num(a, net, read) && total_num(b, net, read) && delay_free(b, net) && {
                match abs_eval(b, read) {
                    AbsVal::Num(lo, hi) => lo > 0.0 || hi < 0.0,
                    AbsVal::Bool(_) => false,
                }
            }
        }
        // min/max of non-parallel affine lines is out of fragment; be
        // conservative and require both sides delay-free.
        Expr::Bin(Min | Max, a, b) => {
            total_num(a, net, read)
                && total_num(b, net, read)
                && delay_free(a, net)
                && delay_free(b, net)
        }
        // Numeric `if` solves its condition; a delay-free condition is
        // all-or-nothing, after which only the chosen branch evaluates.
        Expr::Ite(c, t, els) => {
            total_bool(c, net, read)
                && delay_free(c, net)
                && total_num(t, net, read)
                && total_num(els, net, read)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_automata::automaton::Effect;
    use slim_automata::network::{AutomatonBuilder, NetworkBuilder};
    use slim_automata::value::Value;

    #[test]
    fn constant_propagation_kills_guard_type_ranges_cannot() {
        // n ∈ int[0..10] but is never written, so only n = 0 is reachable;
        // the type range alone cannot decide `n ≥ 5`.
        let mut b = NetworkBuilder::new();
        let n = b.var("n", VarType::Int { lo: 0, hi: 10 }, Value::Int(0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.guarded(l0, ActionId::TAU, Expr::var(n).ge(Expr::int(5)), [], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();

        let fix = analyze_network(&net);
        assert_eq!(fix.trans_status(ProcId(0), TransId(0)), TransStatus::DeadGuard);
        assert!(!fix.loc_reachable(ProcId(0), LocId(1)));
        assert_eq!(fix.global(n), AbsVal::Num(0.0, 0.0));

        let plan = fix.prune_plan(&net);
        assert_eq!(plan.dropped_transitions(), 1);
        assert_eq!(plan.dropped_locations(), 1);
        let (pruned, maps) = net.prune(&plan);
        assert_eq!(pruned.automata()[0].transitions.len(), 0);
        assert_eq!(pruned.automata()[0].locations.len(), 1);
        assert_eq!(maps.locs[0][1], None);
        assert_eq!(maps.trans[0][0], None);
    }

    #[test]
    fn widening_terminates_counting_loops_and_keeps_targets_reachable() {
        let mut b = NetworkBuilder::new();
        let n = b.var("n", VarType::Int { lo: 0, hi: 1_000_000 }, Value::Int(0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("loop");
        let l1 = a.location("out");
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::TRUE,
            [Effect::assign(n, Expr::var(n).add(Expr::int(1)))],
            l0,
        );
        a.guarded(l0, ActionId::TAU, Expr::var(n).ge(Expr::int(10)), [], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let fix = analyze_network(&net);
        assert!(fix.widenings > 0, "the counting loop must trigger widening");
        assert!(fix.rounds < 100, "fixpoint must converge quickly ({} rounds)", fix.rounds);
        assert_eq!(fix.trans_status(ProcId(0), TransId(1)), TransStatus::Live);
        assert!(fix.loc_reachable(ProcId(0), LocId(1)));
        assert!(fix.prune_plan(&net).is_noop());
    }

    #[test]
    fn blocked_sync_is_action_closed_and_prunable() {
        // `right` can never offer `go` (its offering location is
        // unreachable), so `left`'s go-transition is sync-blocked and the
        // whole action can be pruned network-wide.
        let mut b = NetworkBuilder::new();
        let go = b.action("go");
        let mut a1 = AutomatonBuilder::new("left");
        let l0 = a1.location("start");
        let l1 = a1.location("after_go");
        a1.guarded(l0, go, Expr::TRUE, [], l1);
        b.add_automaton(a1);
        let mut a2 = AutomatonBuilder::new("right");
        let _r0 = a2.location("idle");
        let r1 = a2.location("offers_go");
        let r2 = a2.location("done");
        a2.guarded(r1, go, Expr::TRUE, [], r2);
        b.add_automaton(a2);
        let net = b.build().unwrap();

        let fix = analyze_network(&net);
        assert_eq!(fix.trans_status(ProcId(0), TransId(0)), TransStatus::SyncBlocked);
        assert_eq!(fix.trans_status(ProcId(1), TransId(0)), TransStatus::DeadSource);
        assert!(!fix.loc_reachable(ProcId(0), LocId(1)));

        let plan = fix.prune_plan(&net);
        assert_eq!(plan.dropped_transitions(), 2);
        let (pruned, _) = net.prune(&plan);
        assert_eq!(pruned.automata()[0].locations.len(), 1);
        assert_eq!(pruned.automata()[1].locations.len(), 1);
        assert!(pruned.participants(go).is_empty());
    }

    #[test]
    fn private_variables_are_tracked_flow_sensitively() {
        // After the assignment, the *location* env knows n = 5 even
        // though the global join over all locations would be [0, 5].
        let mut b = NetworkBuilder::new();
        let n = b.var_owned("n", VarType::Int { lo: 0, hi: 10 }, Value::Int(0), ProcId(0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        let l2 = a.location("l2");
        a.guarded(l0, ActionId::TAU, Expr::TRUE, [Effect::assign(n, Expr::int(5))], l1);
        a.guarded(l1, ActionId::TAU, Expr::var(n).le(Expr::int(4)), [], l2);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let fix = analyze_network(&net);
        assert_eq!(fix.trans_status(ProcId(0), TransId(1)), TransStatus::DeadGuard);
        assert!(!fix.loc_reachable(ProcId(0), LocId(2)));
        // The global view still covers both locations.
        assert_eq!(fix.global(n), AbsVal::Num(0.0, 5.0));
    }

    #[test]
    fn doomed_effects_are_flagged_but_never_pruned() {
        let mut b = NetworkBuilder::new();
        let n = b.var("n", VarType::Int { lo: 0, hi: 5 }, Value::Int(0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.guarded(l0, ActionId::TAU, Expr::TRUE, [Effect::assign(n, Expr::int(7))], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let fix = analyze_network(&net);
        assert_eq!(fix.trans_status(ProcId(0), TransId(0)), TransStatus::Live);
        assert_eq!(fix.doomed_effects(), &[(ProcId(0), TransId(0), 0)]);
        // The erroring step must stay: removing it would suppress the
        // runtime error.
        assert!(fix.prune_plan(&net).dropped_transitions() == 0);
        // ... and its always-erroring step has no successor.
        assert!(!fix.loc_reachable(ProcId(0), LocId(1)));
    }

    #[test]
    fn may_expr_decides_goal_unreachability() {
        let mut b = NetworkBuilder::new();
        let goal = b.var("goal", VarType::Bool, Value::Bool(false));
        let aux = b.var("aux", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        a.guarded(l0, ActionId::TAU, Expr::TRUE, [Effect::assign(aux, Expr::bool(true))], l0);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let fix = analyze_network(&net);
        assert_eq!(fix.may_expr(&Expr::var(goal)), Some(false));
        assert_eq!(fix.may_expr(&Expr::var(aux)), None);
        assert_eq!(fix.may_expr(&Expr::var(goal).and(Expr::var(aux))), Some(false));
        assert_eq!(fix.may_expr(&Expr::var(goal).not()), Some(true));
    }

    #[test]
    fn guard_total_gates_error_prone_shapes() {
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let n = b.var("n", VarType::Int { lo: 1, hi: 5 }, Value::Int(1));
        let z = b.var("z", VarType::Int { lo: 0, hi: 5 }, Value::Int(0));
        let mut a = AutomatonBuilder::new("p");
        a.location("l0");
        b.add_automaton(a);
        let net = b.build().unwrap();
        let read = |v: VarId| {
            if v == n {
                AbsVal::Num(1.0, 5.0)
            } else if v == z {
                AbsVal::Num(0.0, 5.0)
            } else {
                TOP_NUM
            }
        };
        // Affine clock comparison: total.
        assert!(guard_total(&Expr::var(x).le(Expr::int(3)), &net, &read));
        // Division by a provably nonzero, delay-free divisor: total.
        let div_ok = Expr::var(x).div(Expr::var(n)).le(Expr::int(3));
        assert!(guard_total(&div_ok, &net, &read));
        // Divisor range contains zero: may error.
        let div_zero = Expr::var(x).div(Expr::var(z)).le(Expr::int(3));
        assert!(!guard_total(&div_zero, &net, &read));
        // Clock × clock is outside the affine fragment.
        let nonlinear = Expr::var(x).mul(Expr::var(x)).le(Expr::int(3));
        assert!(!guard_total(&nonlinear, &net, &read));
        // Delay-dependent numeric-if condition may raise NonLinear.
        let ite =
            Expr::ite(Expr::var(x).gt(Expr::int(1)), Expr::int(1), Expr::int(2)).le(Expr::var(x));
        assert!(!guard_total(&ite, &net, &read));
    }

    #[test]
    fn summary_counts_and_json_render() {
        let mut b = NetworkBuilder::new();
        let n = b.var("n", VarType::Int { lo: 0, hi: 10 }, Value::Int(0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        a.guarded(l0, ActionId::TAU, Expr::var(n).ge(Expr::int(5)), [], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let fix = analyze_network(&net);
        let s = fix.summary(&net);
        assert_eq!(s.procs.len(), 1);
        assert_eq!(s.procs[0].reachable, 1);
        assert_eq!(s.dead.len(), 1);
        assert_eq!(s.dead[0].reason, "dead-guard");
        let json = s.render_json();
        assert!(json.contains("\"kind\":\"analysis-summary\""), "{json}");
        assert!(json.contains("\"schema_version\":2"), "{json}");
        assert!(json.contains("\"dead_transitions\":[{"), "{json}");
        assert!(json.contains("\"reason\":\"dead-guard\""), "{json}");
        assert!(s.render_text().contains("1/2 locations reachable"));
    }

    /// Clock chain: l0 −(x ≥ 5)→ l1 −(x ≤ 2)→ l2, x never reset. The
    /// interval domain pins clocks to ⊤ so both guards look satisfiable;
    /// the zone domain knows x ≥ 5 holds forever after the first hop.
    fn clock_chain() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        let l2 = a.location("l2");
        a.guarded(l0, ActionId::TAU, Expr::var(x).ge(Expr::int(5)), [], l1);
        a.guarded(l1, ActionId::TAU, Expr::var(x).le(Expr::int(2)), [], l2);
        b.add_automaton(a);
        b.build().unwrap()
    }

    #[test]
    fn zones_kill_clock_dead_guards_intervals_cannot() {
        let net = clock_chain();
        let fix = analyze_network(&net);
        assert!(fix.zones_enabled());
        assert_eq!(fix.zone_clock_count(), 1);
        assert_eq!(fix.trans_status(ProcId(0), TransId(0)), TransStatus::Live);
        assert_eq!(fix.trans_status(ProcId(0), TransId(1)), TransStatus::DeadGuard);
        assert!(fix.zone_dead_guard(ProcId(0), TransId(1)), "dead only via the zone domain");
        assert!(!fix.zone_dead_guard(ProcId(0), TransId(0)));
        assert!(!fix.loc_reachable(ProcId(0), LocId(2)));

        // The same model with zones disabled degrades to the old verdict.
        let off = analyze_network_with(&net, &AnalysisOptions { zones: false, deadline: None });
        assert!(!off.zones_enabled());
        assert_eq!(off.trans_status(ProcId(0), TransId(1)), TransStatus::Live);
        assert!(off.loc_reachable(ProcId(0), LocId(2)));
        assert_eq!(off.min_time_to_loc(ProcId(0), LocId(1)), None);
    }

    #[test]
    fn min_time_tracks_guard_lower_bounds_through_resets() {
        // l0 −(x ≥ 3, x := 0)→ l1 −(x ≥ 2)→ l2: the reset pins x while the
        // synthetic global clock keeps the elapsed 3, so l2 costs ≥ 5.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location("l0");
        let l1 = a.location("l1");
        let l2 = a.location("l2");
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(x).ge(Expr::int(3)),
            [Effect::assign(x, Expr::real(0.0))],
            l1,
        );
        a.guarded(l1, ActionId::TAU, Expr::var(x).ge(Expr::int(2)), [], l2);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let fix = analyze_network(&net);
        assert_eq!(fix.min_time_to_loc(ProcId(0), LocId(0)), Some(0.0));
        assert_eq!(fix.min_time_to_loc(ProcId(0), LocId(1)), Some(3.0));
        assert_eq!(fix.min_time_to_loc(ProcId(0), LocId(2)), Some(5.0));
        assert_eq!(fix.trans_min_fire_time(ProcId(0), TransId(0)), Some(3.0));
        assert_eq!(fix.trans_min_fire_time(ProcId(0), TransId(1)), Some(5.0));
    }

    #[test]
    fn invariant_guard_gap_is_a_static_timelock() {
        // Invariant x ≤ 2 but the only exit needs x ≥ 5: time runs out.
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("p");
        let l0 = a.location_with("stuck", Expr::var(x).le(Expr::int(2)), []);
        let l1 = a.location("out");
        a.guarded(l0, ActionId::TAU, Expr::var(x).ge(Expr::int(5)), [], l1);
        b.add_automaton(a);
        let net = b.build().unwrap();
        let fix = analyze_network(&net);
        assert_eq!(fix.trans_status(ProcId(0), TransId(0)), TransStatus::DeadGuard);
        assert!(fix.zone_dead_guard(ProcId(0), TransId(0)));
        assert_eq!(fix.static_timelocks(), &[(ProcId(0), LocId(0))]);

        let s = fix.summary(&net);
        assert_eq!(s.dead[0].reason, "zone-dead-guard");
        let z = s.zones.as_ref().expect("zones ran");
        assert_eq!(z.zone_dead_guards, 1);
        assert_eq!(z.timelocks, 1);
        assert!(s.render_json().contains("\"reason\":\"zone-dead-guard\""));
    }

    #[test]
    fn distance_steps_relax_backwards_over_live_transitions() {
        let net = clock_chain();
        let fix = analyze_network(&net);
        // Goal l1 (live chain prefix): l0 is one live hop away; l2 is
        // unreachable and gets no distance.
        let steps = fix.distance_steps(&net, &[(ProcId(0), LocId(1), 0)]);
        assert_eq!(steps[0][1], Some(0));
        assert_eq!(steps[0][0], Some(1));
        assert_eq!(steps[0][2], None);

        let s = fix.summary_with_goals(&net, &[(ProcId(0), LocId(1), 0)]);
        let json = s.render_json();
        assert!(json.contains("\"steps_to_goal\":1"), "{json}");
        assert!(json.contains("\"min_time\":5.0"), "{json}");
    }

    /// A flow reading a store variable is re-evaluated from every
    /// location once the variable changes, even where nothing else reads
    /// it: here only widening (after nine one-shot writers) moves `x` past
    /// 50, and no writer re-reads `x`, so only the observer's self-loop can
    /// re-derive `high := x >= 50` from the widened store.
    #[test]
    fn flows_are_re_evaluated_after_their_inputs_widen() {
        let mut b = NetworkBuilder::new();
        let x = b.var("x", VarType::Int { lo: 0, hi: 100 }, Value::Int(0));
        let high = b.var("high", VarType::Bool, Value::Bool(false));
        b.flow(high, Expr::var(x).ge(Expr::int(50)));
        let mut observer = AutomatonBuilder::new("observer");
        let o = observer.location("o");
        observer.guarded(o, ActionId::TAU, Expr::TRUE, [], o);
        b.add_automaton(observer);
        for k in 1..=9 {
            let mut w = AutomatonBuilder::new(format!("w{k}"));
            let (w0, w1) = (w.location("w0"), w.location("w1"));
            w.guarded(w0, ActionId::TAU, Expr::TRUE, [Effect::assign(x, Expr::int(k))], w1);
            b.add_automaton(w);
        }
        let net = b.build().unwrap();
        let fix = analyze_network(&net);
        assert_eq!(fix.global(x), AbsVal::Num(0.0, 100.0), "x widened to its type range");
        assert_eq!(fix.may_expr(&Expr::var(high)), None, "`high` may become true");
    }

    fn extrapolation_k(net: &Network, deadline: Option<f64>) -> f64 {
        net_facts(net).extrapolation_k(deadline)
    }

    /// Engine runs on this thread so far.
    fn engine_runs() -> usize {
        ENGINE_RUNS.get()
    }

    fn with_deadline(deadline: f64) -> AnalysisOptions {
        AnalysisOptions { zones: true, deadline: Some(deadline) }
    }

    #[test]
    fn lint_then_pre_verdict_within_k_runs_the_engine_once() {
        let net = clock_chain(); // largest literal 5
        assert_eq!(extrapolation_k(&net, None), 5.0);
        let before = engine_runs();
        let lint = analyze_network(&net);
        let pre = analyze_network_with(&net, &with_deadline(4.0));
        assert_eq!(engine_runs() - before, 1, "the pre-verdict reuses the lint fixpoint");
        assert!(Rc::ptr_eq(&lint, &pre), "and shares it instead of copying it");
    }

    #[test]
    fn a_deadline_above_k_runs_the_engine_again() {
        let net = clock_chain();
        let before = engine_runs();
        let lint = analyze_network(&net);
        let pre = analyze_network_with(&net, &with_deadline(12.0));
        assert_eq!(engine_runs() - before, 2);
        assert_eq!(lint.extrapolation_k(), 5.0);
        assert_eq!(pre.extrapolation_k(), 12.0);
        // The same larger deadline again is a hit.
        analyze_network_with(&net, &with_deadline(12.0));
        assert_eq!(engine_runs() - before, 2);
    }

    #[test]
    fn zones_off_has_its_own_entry_and_ignores_k() {
        let net = clock_chain();
        let before = engine_runs();
        analyze_network(&net);
        let off = AnalysisOptions { zones: false, deadline: None };
        let fix = analyze_network_with(&net, &off);
        assert_eq!(engine_runs() - before, 2);
        assert!(!fix.zones_enabled());
        // Without zones the deadline cannot change the result.
        analyze_network_with(&net, &AnalysisOptions { zones: false, deadline: Some(100.0) });
        assert_eq!(engine_runs() - before, 2);
    }

    #[test]
    fn a_pruned_or_reassembled_network_misses_and_a_clone_hits() {
        let net = clock_chain();
        let before = engine_runs();
        let fix = analyze_network(&net);
        let (pruned, _) = net.prune(&fix.prune_plan(&net));
        analyze_network(&pruned);
        assert_eq!(engine_runs() - before, 2, "pruning assembles a new network");
        // An equal model assembled separately is a different network.
        let twin = clock_chain();
        assert_eq!(twin, net);
        analyze_network(&twin);
        assert_eq!(engine_runs() - before, 3);
        let copy = twin.clone();
        assert_eq!(copy.uid(), twin.uid());
        analyze_network(&copy);
        assert_eq!(engine_runs() - before, 3, "a clone shares its original's identity");
    }

    #[test]
    fn a_memo_hit_equals_a_fresh_run() {
        let net = clock_chain();
        let opts = with_deadline(3.0);
        let first = analyze_network_with(&net, &opts);
        let hit = analyze_network_with(&net, &opts);
        let k = extrapolation_k(&net, Some(3.0));
        let fresh = Engine::new(&net, k, &tracked_clocks(&net), true).run();
        assert_eq!(format!("{hit:?}"), format!("{fresh:?}"));
        assert_eq!(format!("{first:?}"), format!("{fresh:?}"));
    }

    /// The memoized network part of `k` follows the network: alternating
    /// two networks never hands one the other's constant, and every
    /// deadline combines with it as the full walk would.
    #[test]
    fn extrapolation_k_memo_follows_the_network() {
        let (chain, small) = (clock_chain(), {
            let mut b = NetworkBuilder::new();
            let c = b.var("c", VarType::Clock, Value::Real(0.0));
            let mut a = AutomatonBuilder::new("a");
            let l = a.location_with("l", Expr::var(c).le(Expr::real(0.25)), []);
            a.guarded(l, ActionId::TAU, Expr::TRUE, [Effect::assign(c, Expr::real(0.0))], l);
            b.add_automaton(a);
            b.build().unwrap()
        });
        for _ in 0..2 {
            for (net, own) in [(&chain, 5.0), (&small, 1.0)] {
                assert_eq!(extrapolation_k(net, None), own);
                assert_eq!(extrapolation_k(net, Some(-0.5)), own);
                assert_eq!(extrapolation_k(net, Some(-9.0)), 9.0);
                assert_eq!(extrapolation_k(net, Some(f64::NAN)), own);
                assert_eq!(extrapolation_k(net, Some(f64::INFINITY)), f64::INFINITY);
            }
        }
    }
}
