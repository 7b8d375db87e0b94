//! Compiled simulation kernel: step tables + allocation-free stepping.
//!
//! The legacy semantics in [`crate::network`] re-walk guard/effect ASTs and
//! allocate fresh `Vec`s/[`IntervalSet`]s on every step. This module
//! compiles a [`Network`] once into [`StepTables`] — per-(process, location)
//! transition indices, per-action sync skeletons, and postfix bytecode for
//! guards, invariants, effects and flows — and evaluates steps through a
//! reusable [`StepScratch`] workspace so that the steady-state hot path
//! (`delay_window_into`, `guarded_candidates_into`,
//! `markovian_candidates_into`, `advance_mut`, `apply_mut`) performs **zero
//! heap allocations**.
//!
//! The compiled kernel is semantics-identical to the legacy methods: same
//! candidate enumeration order (τ transitions by process then transition
//! id, sync actions by action id with the last participant varying
//! fastest), same empty-window filtering points, and same error values in
//! the same evaluation order. Every well-typed guard compiles — numeric
//! `if` included, via lazy branch ops that mirror the legacy solver's
//! evaluation order exactly. Ill-typed guards (which validated networks
//! never contain) fall back to the legacy AST solver per guard —
//! allocating, but byte-identical in behavior.
//!
//! # One kernel: tiers and shortcuts
//!
//! A guard compiles to one of four tiers ([`GuardCode`]): `Static`
//! (solved once at compile time), `Prog` (a solver program over interval
//! sets), `DelayFree` (a program reading no rated variable, so only its
//! truth is kept — and cached, below) and the `Fallback` safety net. A
//! guard, effect or flow whose whole program is a common shape
//! ([`GuardSpec`], [`EvalSpec`]) is evaluated directly, without the
//! interpreter loop; every other program runs its bytecode. The
//! same code runs with and without profiling: [`ProfileHooks::ENABLED`]
//! only gates reporting, and a shortcut reports the ops of the program
//! it stands for, so a profile counts exactly what the interpreter
//! would have executed.
//!
//! # Incremental enabledness
//!
//! The engine's stepping sequence ([`Network::stepping_begin`], then the
//! `*_rated_prof` methods and [`Network::markovian_candidates_rated`] on
//! the same state) keeps enabledness across steps instead of rescanning
//! it. A [`GuardCode::DelayFree`] guard's truth is a pure function of the
//! variables its program reads, so it is cached per guard slot and
//! forgotten only when one of those variables changes *value*: every
//! write in `apply` and `advance` (effects and flows alike) compares the
//! old and new value bitwise and evicts the readers of what changed. The
//! Markovian list depends only on locations; it is kept in process order
//! and only the processes whose location changed are spliced back in.
//! Candidate order, windows, errors and RNG draws are unchanged. Every
//! plain entry point (the `*_into` methods, [`Network::rates_refresh`],
//! [`Network::advance_mut`], [`Network::apply_mut`]) ends the sequence,
//! so nothing outside it ever reads the cache, and
//! [`CompileOptions::reference`] tables never start one.
//!
//! Three refinements keep a step's work proportional to what changed:
//!
//! * **Scan only what may be enabled.** τ guard slots are contiguous per
//!   (process, location), in transition order, and a per-path bitset
//!   marks the slots whose truth is not known false; the scan visits only
//!   its set bits, in ascending (candidate) order, and only processes
//!   that have a τ guard.
//! * **Witness eviction.** A [`GuardSpec::Conj`] guard found false
//!   records the variable of its first false atom; a write keeps that
//!   cached `false` unless it changes the witness. Sound because a
//!   conjunction with a false atom stays false until that atom's variable
//!   changes, and because a delay-free `var op const` atom cannot start
//!   to error on a type-canonical state: it evaluated once without error,
//!   and a variable's value kind never changes.
//! * **Demand-driven flows.** Every value change is stamped with the
//!   change clock, and a flow's last evaluation logs the variables it
//!   read; `apply` re-runs a masked flow only if one of them changed
//!   since. Sound because a value program is deterministic with forward
//!   jumps only: equal values along the read path give the same result.
//!   `advance` re-runs its mask and forgets those read sets (its boundary
//!   retreat restores values behind the log). A delay-free goal or hold
//!   predicate keeps its last truth under the same rule.
//!
//! Records older than the running sequence read as unknown, so starting a
//! sequence is O(1) however many slots, variables and flows there are.
//!
//! # Successors in place
//!
//! State-space exploration expands each state into all its successors.
//! [`Network::successor`] fires one candidate in place on the parent,
//! hands the result and its [`Delta`] to a visitor and undoes the firing;
//! it shares the effect and checked flow evaluation with
//! [`Network::apply_mut_prof`] and applies the demand rule above against
//! the read sets [`Network::successors_begin`] logged on the parent.
//!
//! One caveat: `=`/`!=` between Boolean and numeric operands is dispatched
//! at *compile* time from declared variable types, where the legacy solver
//! inspects runtime values. The two agree on every type-canonical state
//! (which the engine maintains invariantly); hand-built states that store a
//! value of the wrong kind in a variable are outside the compiled kernel's
//! contract.

use crate::automaton::{ActionId, GuardKind, LocId, ProcId, TransId};
use crate::error::EvalError;
use crate::eval::{eval_bin, Valuation};
use crate::expr::{BinOp, Expr, VarId};
use crate::interval::{Interval, IntervalSet};
use crate::linear::{solve, Aff, DelayEnv};
use crate::network::{Network, INVARIANT_TOLERANCE};
use crate::state::NetState;
use crate::value::{Value, VarType};
use slim_obs::profile::{NoopProfile, ProfileHooks, ProfileLabels, ProfileShape};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Bytecode
// ---------------------------------------------------------------------------

/// One op of a compiled guard program. Set-valued ops work on a stack of
/// pooled [`IntervalSet`]s, numeric ops on a stack of affine forms.
#[derive(Debug, Clone)]
enum SolveOp {
    /// Push `[0, ∞)`.
    SetTrue,
    /// Push `∅`.
    SetFalse,
    /// Push the window of a Boolean variable (all/empty by its value).
    SetVar(VarId),
    /// Complement the top set.
    Complement,
    /// Intersect the top two sets.
    Intersect,
    /// Union the top two sets.
    Union,
    /// Symmetric difference of the top two sets.
    Xor,
    /// Boolean (co)incidence of the top two sets: `Eq` keeps delays where
    /// both or neither hold, `Ne` its complement.
    BoolEq,
    BoolNe,
    /// `if c then t else e` over the top three sets (c deepest).
    IteSet,
    /// Pop two affine forms `a`, `b` and push the delay set of `a op b`.
    Cmp(BinOp),
    /// Push a constant affine form.
    AffConst(f64),
    /// Push `ν(v) + rate(v)·d`.
    AffVar(VarId),
    /// Negate the top affine form.
    AffNeg,
    AffAdd,
    AffSub,
    /// Multiply; errors `NonLinear` (with the pre-rendered context at the
    /// given index) unless one operand is constant.
    AffMul(u32),
    AffDiv(u32),
    AffMin(u32),
    AffMax(u32),
    /// Lazy numeric `if`: pop the condition set. Falls through into the
    /// then-branch when the condition holds at *every* delay, skips
    /// `else_skip` ops (into the else-branch) when it holds at none, and
    /// otherwise errors `NonLinear` with the context at `ctx` — mirroring
    /// the legacy solver, which evaluates only the selected branch.
    AffBranch {
        ctx: u32,
        else_skip: u32,
    },
    /// Skip the next `n` ops (jump over an else-branch).
    AffJump(u32),
}

/// Whole-program shapes [`solve_spec_of`] recognizes on a guard's
/// program. A guard whose entire program is one of these skips the stack
/// machine: the interpreters dispatch on the shape directly
/// ([`SolveScratch::run_spec_into`] / [`spec_truth`]), bit-identical to
/// executing the program op by op. Under profiling the shortcut reports
/// the program's ops, so profiles count the same stream either way.
#[derive(Debug, Clone)]
enum GuardSpec {
    /// `[SetVar(v)]` — the window of a Boolean variable.
    BoolVar(VarId),
    /// `[SetVar(v); Complement]`.
    BoolVarNot(VarId),
    /// `[AffVar(v); AffConst(k); Cmp(op)]`.
    CmpVarConst(BinOp, VarId, f64),
    /// A pure conjunction of `var op const` atoms: `AffVar; AffConst;
    /// Cmp` triples joined by `Intersect`s. Atoms are stored in program
    /// order, so reads (and their errors) happen in the same order as the
    /// program; intersection is associative bit-exactly on the normalized
    /// interval representation, so the left fold below equals any
    /// association the program used.
    Conj(Box<[(BinOp, VarId, f64)]>),
}

/// A compiled guard: postfix ops plus pre-rendered expression contexts for
/// `NonLinear` diagnostics (cloned only on the error path), and the
/// recognized whole-program shape, if any.
#[derive(Debug, Clone)]
struct SolveProg {
    ops: Vec<SolveOp>,
    ctx: Vec<String>,
    spec: Option<GuardSpec>,
}

/// How a guard/invariant is evaluated at runtime.
#[derive(Debug, Clone)]
enum GuardCode {
    /// State-independent: solved once at compile time.
    Static(IntervalSet),
    /// Compiled postfix program.
    Prog(SolveProg),
    /// A compiled program none of whose variables can ever carry a
    /// nonzero rate: every affine form it builds is constant over the
    /// delay axis, so its window is all-or-nothing and only its truth is
    /// kept ([`delay_free_truth`]) — the tier the enabledness cache
    /// serves.
    DelayFree(SolveProg),
    /// Construct outside the compiled subset — an ill-typed guard, which
    /// only networks assembled without validation can carry: solved from
    /// the AST at runtime. Allocates, but preserves legacy behavior
    /// exactly.
    Fallback(Expr),
}

/// One op of a compiled value program (effects, flows).
#[derive(Debug, Clone)]
enum EvalOp {
    Const(Value),
    Var(VarId),
    Not,
    Neg,
    /// Non-short-circuit binary op (arithmetic or comparison).
    Bin(BinOp),
    /// Pop a Boolean; on `false` push `false` and skip the next `n` ops.
    AndJump(u32),
    /// Pop a Boolean; on `true` push `true` and skip the next `n` ops.
    OrJump(u32),
    /// Pop a Boolean; on `false` push `true` and skip the next `n` ops.
    ImpliesJump(u32),
    /// Pop, require Boolean, push back (surfaces `as_bool` errors at the
    /// same point the recursive evaluator would).
    CastBool,
    /// Pop `b` (require Boolean), pop `a`, push `a ^ b`.
    Xor,
    /// Pop a Boolean; on `false` skip the next `n` ops.
    JumpIfFalse(u32),
    /// Skip the next `n` ops.
    Jump(u32),
    /// The header of `if v op k then … else …`: evaluate `ν(v) op k`,
    /// require Boolean, and skip the next `skip` ops on `false` — the
    /// reads, `eval_bin` call and checks of `Var; Const; Bin(op);
    /// JumpIfFalse(skip)`, in one dispatch.
    VarCmpConstJumpFalse {
        op: BinOp,
        v: VarId,
        k: Value,
        skip: u32,
    },
    /// `if v then t else e` over constants: read `v`, require Boolean,
    /// push `t` or `e` — the diamond `Var; JumpIfFalse(2); Const(t);
    /// Jump(1); Const(e)` in one dispatch.
    VarSelConst {
        v: VarId,
        t: Value,
        e: Value,
    },
}

/// Whole-program shapes [`eval_spec_of`] recognizes on a value
/// program's ops, evaluated by [`run_eval_spec`] without touching the
/// value stack. Like [`GuardSpec`], the shortcut reports the program's
/// ops under profiling.
#[derive(Debug, Clone)]
enum EvalSpec {
    /// `[Const(v)]`.
    Const(Value),
    /// `[Var(v)]` — an aliasing assignment.
    Var(VarId),
    /// `[Var(v); Const(k); Bin(op)]` — e.g. the counter bump `n + 1`.
    VarConstBin(BinOp, VarId, Value),
    /// `[Var(v); Const(k1); Bin(op1); Const(k2); Bin(op2)]` — e.g. the
    /// clamped update `(n + 1) min 10`.
    VarConstBinConst(BinOp, VarId, Value, BinOp, Value),
}

/// A compiled value program, plus its recognized whole-program shape.
#[derive(Debug, Clone)]
struct EvalProg {
    ops: Vec<EvalOp>,
    spec: Option<EvalSpec>,
}

// ---------------------------------------------------------------------------
// Step tables
// ---------------------------------------------------------------------------

/// A compiled guarded local transition.
#[derive(Debug, Clone)]
struct CompiledGuarded {
    trans: TransId,
    guard: GuardCode,
    urgent: bool,
    /// Index of this guard in the enabledness cache (one slot per
    /// guarded transition, τ and sync alike; only delay-free guards use
    /// theirs).
    slot: u32,
}

/// One participant of a synchronizing action: its process and, per
/// location, the locally enabled transitions carrying the action.
#[derive(Debug, Clone)]
struct SyncPart {
    proc: ProcId,
    by_loc: Vec<Vec<CompiledGuarded>>,
}

/// Sync skeleton of one action: participants in participant-table order.
#[derive(Debug, Clone)]
struct SyncTable {
    action: ActionId,
    parts: Vec<SyncPart>,
}

/// Compiled effect `var := prog` with the target's declared type.
#[derive(Debug, Clone)]
struct CompiledEffect {
    var: VarId,
    ty: VarType,
    prog: EvalProg,
}

/// Compiled local transition: target location + effects.
#[derive(Debug, Clone)]
struct CompiledTrans {
    to: LocId,
    effects: Vec<CompiledEffect>,
    /// Bit `i` set ⇒ flow `i` must re-run after this transition's effects:
    /// the write-set closure of the effect targets over the topologically
    /// ordered flow list. All-ones when masking is disabled or the network
    /// has more than 64 flows (run everything, the pre-masking behavior).
    flow_mask: u64,
}

/// Compiled data flow. The target's name is captured at compile time so
/// flow errors render identically to the legacy path without a network
/// lookup.
#[derive(Debug, Clone)]
struct CompiledFlow {
    target: VarId,
    ty: VarType,
    name: String,
    /// Variables the flow expression reads — the edge set the write-set
    /// closure in [`flow_mask_from`] walks.
    reads: Vec<VarId>,
    prog: EvalProg,
    /// Where the per-path log keeps the read set of this flow's last
    /// evaluation: at most `reads.len()` entries from `read_at`.
    read_at: u32,
}

/// Precomputed stepping tables of a [`Network`] — build once with
/// [`Network::compile`], then drive steps through a [`StepScratch`].
///
/// The tables borrow nothing: they can be cloned per worker or shared
/// behind a reference.
#[derive(Debug, Clone)]
pub struct StepTables {
    /// τ-labeled Boolean transitions, `[proc][loc]`. Their cache slots
    /// are contiguous per location, in transition order.
    tau: Vec<Vec<Vec<CompiledGuarded>>>,
    /// Processes with at least one τ guard, ascending.
    tau_procs: Vec<usize>,
    /// Markovian transitions `(id, rate)`, `[proc][loc]`.
    markov: Vec<Vec<Vec<(TransId, f64)>>>,
    /// Sync skeletons in ascending action order (τ and participant-less
    /// actions excluded, like the legacy enumeration).
    sync: Vec<SyncTable>,
    /// Invariant per `[proc][loc]`; `None` when constant `true`.
    invariants: Vec<Vec<Option<GuardCode>>>,
    /// All local transitions, `[proc][trans]`.
    trans: Vec<Vec<CompiledTrans>>,
    /// Compiled flows in topological order.
    flows: Vec<CompiledFlow>,
    /// Rate baseline: 1.0 for clocks, 0.0 otherwise (location rates are
    /// overlaid per state).
    base_rates: Vec<f64>,
    /// False when every location invariant is constant `true`: delay
    /// windows are then always `[0, ∞)` and post-advance invariant
    /// re-checks are skipped.
    has_invariants: bool,
    /// False when no variable can ever carry a nonzero rate (no clocks,
    /// no location rate declarations): the rate buffer is then all-zero
    /// in every state and per-step refreshes are skipped.
    has_rates: bool,
    /// Flow mask for time advances: the write-set closure of the rated
    /// variables (the only ones `advance` mutates). All-ones when masking
    /// is disabled.
    advance_flow_mask: u64,
    /// Number of enabledness-cache slots (guarded transitions).
    n_guard_slots: usize,
    /// Length of the per-path flow read log (see [`CompiledFlow::read_at`]).
    n_flow_reads: usize,
    /// Readers index of the enabledness cache, in CSR form: the slots of
    /// the delay-free guards reading variable `v` are
    /// `guard_readers[reader_at[v]..reader_at[v + 1]]`.
    reader_at: Vec<u32>,
    guard_readers: Vec<u32>,
    /// `[proc][loc]`: the location declares flow rates, so entering or
    /// leaving it changes the rate buffer.
    loc_rated: Vec<Vec<bool>>,
    /// Stepping sequences may cache enabledness (the optimizing tiers are
    /// on); false for [`CompileOptions::reference`].
    incremental: bool,
}

impl StepTables {
    /// Number of guards/invariants that could not be flattened to solver
    /// bytecode and fall back to the allocating AST solver at runtime.
    ///
    /// Zero means every evaluation in the stepping hot path runs on the
    /// compiled programs — the precondition for the simulator's
    /// zero-allocation steady state (see the `alloc_check` gate in the
    /// bench crate).
    pub fn fallback_guards(&self) -> usize {
        let count = |cg: &CompiledGuarded| matches!(cg.guard, GuardCode::Fallback(_)) as usize;
        self.tau.iter().flatten().flatten().map(count).sum::<usize>()
            + self
                .sync
                .iter()
                .flat_map(|t| &t.parts)
                .flat_map(|p| &p.by_loc)
                .flatten()
                .map(count)
                .sum::<usize>()
            + self
                .invariants
                .iter()
                .flatten()
                .flatten()
                .filter(|g| matches!(g, GuardCode::Fallback(_)))
                .count()
    }

    /// Verifies every compiled bytecode program in the tables: stack
    /// discipline (no underflow, correct final depth on both the set and
    /// the affine stack), jump targets within bounds, context and variable
    /// indices in range, and consistent stack depths at every join point.
    ///
    /// [`Network::compile`] re-checks its own output with this in debug
    /// builds; the CLI exposes it as `slimsim lint --verify-bytecode` so a
    /// model author can audit the exact programs the simulator will run.
    ///
    /// # Errors
    /// The first violation found, locating the offending program and op.
    pub fn verify_bytecode(&self) -> Result<BytecodeReport, BytecodeError> {
        let n_vars = self.base_rates.len();
        let mut report = BytecodeReport::default();

        let guard = |code: &GuardCode,
                     at: &dyn Fn() -> String,
                     report: &mut BytecodeReport|
         -> Result<(), BytecodeError> {
            match code {
                GuardCode::Static(_) => report.static_guards += 1,
                GuardCode::Fallback(_) => report.fallback_guards += 1,
                GuardCode::Prog(p) | GuardCode::DelayFree(p) => {
                    verify_solve(p, n_vars).map_err(|(pc, reason)| BytecodeError {
                        program: at(),
                        pc,
                        reason,
                    })?;
                    report.guard_programs += 1;
                    report.ops += p.ops.len();
                }
            }
            Ok(())
        };

        for (p, by_loc) in self.tau.iter().enumerate() {
            for (l, cgs) in by_loc.iter().enumerate() {
                for (i, cg) in cgs.iter().enumerate() {
                    guard(&cg.guard, &|| format!("tau guard proc {p} loc {l} #{i}"), &mut report)?;
                }
            }
        }
        for table in &self.sync {
            for part in &table.parts {
                for (l, cgs) in part.by_loc.iter().enumerate() {
                    for (i, cg) in cgs.iter().enumerate() {
                        guard(
                            &cg.guard,
                            &|| {
                                format!(
                                    "sync guard action {} proc {} loc {l} #{i}",
                                    table.action.0, part.proc.0
                                )
                            },
                            &mut report,
                        )?;
                    }
                }
            }
        }
        for (p, by_loc) in self.invariants.iter().enumerate() {
            for (l, code) in by_loc.iter().enumerate() {
                if let Some(code) = code {
                    guard(code, &|| format!("invariant proc {p} loc {l}"), &mut report)?;
                }
            }
        }

        let value = |prog: &EvalProg,
                     target: VarId,
                     at: &dyn Fn() -> String,
                     report: &mut BytecodeReport|
         -> Result<(), BytecodeError> {
            if target.0 >= n_vars {
                return Err(BytecodeError {
                    program: at(),
                    pc: 0,
                    reason: format!("target v{} out of bounds ({n_vars} variables)", target.0),
                });
            }
            verify_eval(prog, n_vars).map_err(|(pc, reason)| BytecodeError {
                program: at(),
                pc,
                reason,
            })?;
            report.value_programs += 1;
            report.ops += prog.ops.len();
            Ok(())
        };

        for (p, ts) in self.trans.iter().enumerate() {
            for (t, ct) in ts.iter().enumerate() {
                for (i, eff) in ct.effects.iter().enumerate() {
                    value(
                        &eff.prog,
                        eff.var,
                        &|| format!("effect proc {p} trans {t} #{i}"),
                        &mut report,
                    )?;
                }
            }
        }
        for (i, f) in self.flows.iter().enumerate() {
            value(&f.prog, f.target, &|| format!("flow #{i} ({})", f.name), &mut report)?;
        }
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// Bytecode verification
// ---------------------------------------------------------------------------

/// A bytecode verification failure: which program, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BytecodeError {
    /// The program that failed (e.g. `tau guard proc 0 loc 1 #2`).
    pub program: String,
    /// Offending op index; `ops.len()` for end-of-program violations.
    pub pc: usize,
    /// What the check found.
    pub reason: String,
}

impl std::fmt::Display for BytecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at pc {}: {}", self.program, self.pc, self.reason)
    }
}

impl std::error::Error for BytecodeError {}

/// Statistics from a successful [`StepTables::verify_bytecode`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BytecodeReport {
    /// Solver (guard/invariant) programs verified.
    pub guard_programs: usize,
    /// Value (effect/flow) programs verified.
    pub value_programs: usize,
    /// Guards resolved to constant windows at compile time (nothing to
    /// verify).
    pub static_guards: usize,
    /// Guards kept as AST fallbacks (checked by the network validator, not
    /// the bytecode verifier).
    pub fallback_guards: usize,
    /// Total ops across all verified programs.
    pub ops: usize,
}

impl BytecodeReport {
    /// Total programs inspected, including static and fallback guards.
    pub fn programs(&self) -> usize {
        self.guard_programs + self.value_programs + self.static_guards + self.fallback_guards
    }
}

/// Checks a jump landing `skip + 1` ops past `pc`; `len` itself is a valid
/// target (end of program).
fn jump_target(pc: usize, skip: u32, len: usize) -> Result<usize, (usize, String)> {
    let target = pc + skip as usize + 1;
    if target > len {
        return Err((pc, format!("jump target {target} out of bounds (program length {len})")));
    }
    Ok(target)
}

/// Abstractly runs a solver program over every control path, tracking the
/// depths of the interval-set stack and the affine-form stack per pc. The
/// compiler only emits straight-line code joined by forward jumps, so each
/// pc has exactly one consistent depth pair; a conflict, an underflow, an
/// out-of-range index, or a wrong final depth means the program was not
/// produced by the compiler (or was corrupted since).
fn verify_solve(prog: &SolveProg, n_vars: usize) -> Result<(), (usize, String)> {
    let len = prog.ops.len();
    let n_ctx = prog.ctx.len();
    let mut seen: Vec<Option<(usize, usize)>> = vec![None; len + 1];
    let mut work: Vec<(usize, usize, usize)> = vec![(0, 0, 0)];
    while let Some((pc, set, aff)) = work.pop() {
        if let Some(prev) = seen[pc] {
            if prev != (set, aff) {
                return Err((
                    pc,
                    format!(
                        "inconsistent stack depths at join: (set {}, aff {}) vs (set {set}, aff {aff})",
                        prev.0, prev.1
                    ),
                ));
            }
            continue;
        }
        seen[pc] = Some((set, aff));
        if pc == len {
            if set != 1 || aff != 0 {
                return Err((
                    pc,
                    format!("program ends with set depth {set}, aff depth {aff} (want 1, 0)"),
                ));
            }
            continue;
        }
        let need_set = |n: usize| -> Result<(), (usize, String)> {
            if set < n {
                Err((pc, format!("set stack underflow: op needs {n}, depth is {set}")))
            } else {
                Ok(())
            }
        };
        let need_aff = |n: usize| -> Result<(), (usize, String)> {
            if aff < n {
                Err((pc, format!("aff stack underflow: op needs {n}, depth is {aff}")))
            } else {
                Ok(())
            }
        };
        let need_ctx = |c: u32| -> Result<(), (usize, String)> {
            if (c as usize) < n_ctx {
                Ok(())
            } else {
                Err((pc, format!("context index {c} out of bounds ({n_ctx} contexts)")))
            }
        };
        let need_var = |v: VarId| -> Result<(), (usize, String)> {
            if v.0 < n_vars {
                Ok(())
            } else {
                Err((pc, format!("variable v{} out of bounds ({n_vars} variables)", v.0)))
            }
        };
        match &prog.ops[pc] {
            SolveOp::SetTrue | SolveOp::SetFalse => work.push((pc + 1, set + 1, aff)),
            SolveOp::SetVar(v) => {
                need_var(*v)?;
                work.push((pc + 1, set + 1, aff));
            }
            SolveOp::Complement => {
                need_set(1)?;
                work.push((pc + 1, set, aff));
            }
            SolveOp::Intersect
            | SolveOp::Union
            | SolveOp::Xor
            | SolveOp::BoolEq
            | SolveOp::BoolNe => {
                need_set(2)?;
                work.push((pc + 1, set - 1, aff));
            }
            SolveOp::IteSet => {
                need_set(3)?;
                work.push((pc + 1, set - 2, aff));
            }
            SolveOp::Cmp(_) => {
                need_aff(2)?;
                work.push((pc + 1, set + 1, aff - 2));
            }
            SolveOp::AffConst(_) => work.push((pc + 1, set, aff + 1)),
            SolveOp::AffVar(v) => {
                need_var(*v)?;
                work.push((pc + 1, set, aff + 1));
            }
            SolveOp::AffNeg => {
                need_aff(1)?;
                work.push((pc + 1, set, aff));
            }
            SolveOp::AffAdd | SolveOp::AffSub => {
                need_aff(2)?;
                work.push((pc + 1, set, aff - 1));
            }
            SolveOp::AffMul(c) | SolveOp::AffDiv(c) | SolveOp::AffMin(c) | SolveOp::AffMax(c) => {
                need_aff(2)?;
                need_ctx(*c)?;
                work.push((pc + 1, set, aff - 1));
            }
            SolveOp::AffBranch { ctx, else_skip } => {
                need_set(1)?;
                need_ctx(*ctx)?;
                work.push((pc + 1, set - 1, aff));
                work.push((jump_target(pc, *else_skip, len)?, set - 1, aff));
            }
            SolveOp::AffJump(n) => work.push((jump_target(pc, *n, len)?, set, aff)),
        }
    }
    Ok(())
}

/// Abstractly runs a value program over every control path, tracking the
/// value-stack depth per pc (same discipline as [`verify_solve`], one
/// stack).
fn verify_eval(prog: &EvalProg, n_vars: usize) -> Result<(), (usize, String)> {
    let len = prog.ops.len();
    let mut seen: Vec<Option<usize>> = vec![None; len + 1];
    let mut work: Vec<(usize, usize)> = vec![(0, 0)];
    while let Some((pc, depth)) = work.pop() {
        if let Some(prev) = seen[pc] {
            if prev != depth {
                return Err((pc, format!("inconsistent stack depths at join: {prev} vs {depth}")));
            }
            continue;
        }
        seen[pc] = Some(depth);
        if pc == len {
            if depth != 1 {
                return Err((pc, format!("program ends with stack depth {depth} (want 1)")));
            }
            continue;
        }
        let need = |n: usize| -> Result<(), (usize, String)> {
            if depth < n {
                Err((pc, format!("value stack underflow: op needs {n}, depth is {depth}")))
            } else {
                Ok(())
            }
        };
        match &prog.ops[pc] {
            EvalOp::Const(_) => work.push((pc + 1, depth + 1)),
            EvalOp::Var(v) => {
                if v.0 >= n_vars {
                    return Err((
                        pc,
                        format!("variable v{} out of bounds ({n_vars} variables)", v.0),
                    ));
                }
                work.push((pc + 1, depth + 1));
            }
            EvalOp::Not | EvalOp::Neg | EvalOp::CastBool => {
                need(1)?;
                work.push((pc + 1, depth));
            }
            EvalOp::Bin(_) | EvalOp::Xor => {
                need(2)?;
                work.push((pc + 1, depth - 1));
            }
            // Pops the condition; when the jump is taken it pushes the
            // short-circuit result back, so the jump target sees the
            // pre-pop depth and the fall-through sees one less.
            EvalOp::AndJump(n) | EvalOp::OrJump(n) | EvalOp::ImpliesJump(n) => {
                need(1)?;
                work.push((pc + 1, depth - 1));
                work.push((jump_target(pc, *n, len)?, depth));
            }
            EvalOp::JumpIfFalse(n) => {
                need(1)?;
                work.push((pc + 1, depth - 1));
                work.push((jump_target(pc, *n, len)?, depth - 1));
            }
            EvalOp::Jump(n) => work.push((jump_target(pc, *n, len)?, depth)),
            // Net stack effect zero on both paths.
            EvalOp::VarCmpConstJumpFalse { v, skip, .. } => {
                if v.0 >= n_vars {
                    return Err((
                        pc,
                        format!("variable v{} out of bounds ({n_vars} variables)", v.0),
                    ));
                }
                work.push((pc + 1, depth));
                work.push((jump_target(pc, *skip, len)?, depth));
            }
            EvalOp::VarSelConst { v, .. } => {
                if v.0 >= n_vars {
                    return Err((
                        pc,
                        format!("variable v{} out of bounds ({n_vars} variables)", v.0),
                    ));
                }
                work.push((pc + 1, depth + 1));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scratch
// ---------------------------------------------------------------------------

/// Working stacks of the compiled guard solver.
#[derive(Debug, Default)]
struct SolveScratch {
    sets: Vec<IntervalSet>,
    depth: usize,
    affs: Vec<Aff>,
    t1: IntervalSet,
    t2: IntervalSet,
    t3: IntervalSet,
    t4: IntervalSet,
}

/// A raw guarded candidate produced by
/// [`Network::guarded_candidates_into`] — the pooled, field-reusing
/// counterpart of [`crate::network::GuardedCandidate`].
#[derive(Debug, Clone)]
pub struct CandidateBuf {
    /// The synchronizing action (τ for internal moves).
    pub action: ActionId,
    /// Participating `(process, local transition)` pairs.
    pub parts: Vec<(ProcId, TransId)>,
    /// Delays at which all local guards hold (not yet intersected with the
    /// invariant window).
    pub window: IntervalSet,
    /// True if any participating local transition is urgent.
    pub urgent: bool,
}

impl Default for CandidateBuf {
    fn default() -> Self {
        CandidateBuf {
            action: ActionId::TAU,
            parts: Vec::new(),
            window: IntervalSet::empty(),
            urgent: false,
        }
    }
}

/// One participant option during sync cross-product construction.
#[derive(Debug, Clone)]
struct OptBuf {
    trans: TransId,
    window: IntervalSet,
    urgent: bool,
}

impl Default for OptBuf {
    fn default() -> Self {
        OptBuf { trans: TransId(0), window: IntervalSet::empty(), urgent: false }
    }
}

/// One partial combination during sync cross-product construction.
#[derive(Debug, Clone, Default)]
struct ComboBuf {
    parts: Vec<(ProcId, TransId)>,
    window: IntervalSet,
    urgent: bool,
}

/// Cached guard truths, in the low two bits of a slot record whose other
/// bits hold the change-clock value it was recorded at.
const FALSE: u64 = 1;
const TRUE: u64 = 2;
/// Witness of a cached `false` that any read variable's change evicts.
const NO_WITNESS: u32 = u32::MAX;

/// Per-path state of an incremental stepping sequence (see the module
/// docs and [`Network::stepping_begin`]).
#[derive(Debug, Default)]
struct EnabledCache {
    /// A stepping sequence is running; nothing below is read otherwise.
    active: bool,
    /// The change clock: advanced when a sequence begins and before every
    /// `apply` or `advance` that writes.
    now: u64,
    /// `now` when the running sequence began. Records stamped earlier
    /// belong to an earlier sequence and read as unknown.
    begun: u64,
    /// Per guard slot: `stamp << 2 | FALSE/TRUE`, the truth of a
    /// delay-free guard at the sequence's current valuation.
    truth: Vec<u64>,
    /// Per guard slot cached `false`: the variable of its conjunction's
    /// first false atom, or [`NO_WITNESS`].
    witness: Vec<u32>,
    /// One bit per guard slot: its truth is not known to be `false`.
    /// Word `w` reads all-ones unless `maybe_at[w] >= begun`.
    maybe: Vec<u64>,
    maybe_at: Vec<u64>,
    /// Per variable: the change-clock value of its last value change.
    changed: Vec<u64>,
    /// Per flow: the change-clock value of its last recorded evaluation
    /// (older than `begun`: no read set), and how many reads that
    /// evaluation logged into `reads` at [`CompiledFlow::read_at`].
    flow_at: Vec<u64>,
    flow_reads: Vec<u32>,
    reads: Vec<VarId>,
    /// Delay-free predicate memos: `(predicate id, stamp, truth)`.
    preds: Vec<(u64, u64, bool)>,
    /// The scratch Markovian list is the current state's, except for the
    /// processes listed in `moved`.
    markov_valid: bool,
    /// Processes whose location change touched a Markovian location
    /// since the list was last brought up to date.
    moved: Vec<usize>,
    /// A firing entered or left a rate-declaring location since the
    /// scratch rates were last refreshed.
    rates_dirty: bool,
}

/// Grows `v` to at least `n` entries; never shrinks, so reuse is free.
fn grow<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    if v.len() < n {
        v.resize(n, fill);
    }
}

impl EnabledCache {
    /// Starts a sequence on `t`'s tables: O(1) beyond growing buffers
    /// to a new high-water mark, since older records read as unknown.
    fn begin(&mut self, t: &StepTables) {
        self.active = t.incremental;
        self.now += 1;
        self.begun = self.now;
        let words = t.n_guard_slots.div_ceil(64);
        grow(&mut self.truth, t.n_guard_slots, 0);
        grow(&mut self.witness, t.n_guard_slots, NO_WITNESS);
        grow(&mut self.maybe, words, 0);
        grow(&mut self.maybe_at, words, 0);
        grow(&mut self.changed, t.base_rates.len(), 0);
        grow(&mut self.flow_at, t.flows.len(), 0);
        grow(&mut self.flow_reads, t.flows.len(), 0);
        grow(&mut self.reads, t.n_flow_reads, VarId(0));
        if self.preds.len() > 8 {
            // Memos of predicates from earlier sequences; keep the list short.
            self.preds.clear();
        }
        self.markov_valid = false;
        self.moved.clear();
        self.rates_dirty = false;
    }

    /// Word `w` of the possibly-enabled bitset, reset to all-ones first
    /// when an earlier sequence left it.
    #[inline]
    fn maybe_word(&mut self, w: usize) -> &mut u64 {
        if self.maybe_at[w] < self.begun {
            self.maybe_at[w] = self.begun;
            self.maybe[w] = !0;
        }
        &mut self.maybe[w]
    }

    /// Accounts for writing `new` over `old` into `var`: a changed value
    /// (bitwise) is stamped, and forgets the cached truth of every guard
    /// reading `var` — except a `false` whose witness is another variable.
    #[inline]
    fn note_write(&mut self, t: &StepTables, var: VarId, old: Value, new: Value) {
        if !self.active || old.same_bits(new) {
            return;
        }
        self.changed[var.0] = self.now;
        let (lo, hi) = (t.reader_at[var.0] as usize, t.reader_at[var.0 + 1] as usize);
        for &slot in &t.guard_readers[lo..hi] {
            let slot = slot as usize;
            let rec = self.truth[slot];
            if rec >> 2 < self.begun {
                continue;
            }
            if rec & 3 == FALSE {
                let w = self.witness[slot];
                if w != NO_WITNESS && w as usize != var.0 {
                    continue;
                }
                // A stale word needs no bit: it reads all-ones anyway.
                self.maybe[slot / 64] |= 1 << (slot % 64);
            }
            self.truth[slot] = 0;
        }
    }

    /// The truth of the delay-free guard `cg` (program `prog`) of process
    /// `p`: served from its slot when the sequence has it, otherwise
    /// evaluated — recording one guard evaluation — and cached. Errors
    /// are returned, never cached.
    fn truth_of<P: ProfileHooks>(
        &mut self,
        cg: &CompiledGuarded,
        prog: &SolveProg,
        p: usize,
        nu: &Valuation,
        sv: &mut SolveScratch,
        prof: &mut P,
    ) -> Result<bool, EvalError> {
        let slot = cg.slot as usize;
        if self.active && self.truth[slot] >> 2 >= self.begun {
            return Ok(self.truth[slot] & 3 == TRUE);
        }
        let enabled = delay_free_truth(prog, nu, sv, prof)?;
        prof.guard_eval(p, cg.trans.0, enabled);
        if self.active {
            self.truth[slot] = self.now << 2 | if enabled { TRUE } else { FALSE };
            if !enabled {
                self.witness[slot] = conj_witness(prog, nu);
                *self.maybe_word(slot / 64) &= !(1 << (slot % 64));
            }
        }
        Ok(enabled)
    }

    /// The truth of the delay-free predicate `pred` (program `prog`)
    /// inside a running sequence: its memo when no variable it reads has
    /// changed since, otherwise evaluated and memoized.
    fn predicate_truth<P: ProfileHooks>(
        &mut self,
        pred: &CompiledPredicate,
        prog: &SolveProg,
        nu: &Valuation,
        sv: &mut SolveScratch,
        prof: &mut P,
    ) -> Result<bool, EvalError> {
        let i = self.preds.iter().position(|m| m.0 == pred.id).unwrap_or_else(|| {
            self.preds.push((pred.id, 0, false));
            self.preds.len() - 1
        });
        let (_, at, truth) = self.preds[i];
        if at >= self.begun && pred.reads.iter().all(|v| self.changed[v.0] <= at) {
            return Ok(truth);
        }
        let truth = delay_free_truth(prog, nu, sv, prof)?;
        self.preds[i] = (pred.id, self.now, truth);
        Ok(truth)
    }

    /// Inside a running sequence: flow `i` (`f`) holds what a re-run
    /// would compute, because no variable its last evaluation read has
    /// changed since.
    #[inline]
    fn flow_current(&self, f: &CompiledFlow, i: usize) -> bool {
        let at = self.flow_at[i];
        let lo = f.read_at as usize;
        at >= self.begun
            && self.reads[lo..lo + self.flow_reads[i] as usize]
                .iter()
                .all(|v| self.changed[v.0] <= at)
    }
}

/// `nu[var] := v`, telling the enabledness cache whether the value
/// changed.
#[inline]
fn set_noted(
    t: &StepTables,
    nu: &mut Valuation,
    cache: &mut EnabledCache,
    var: VarId,
    v: Value,
) -> Result<(), EvalError> {
    let old = nu.replace(var, v)?;
    cache.note_write(t, var, old, v);
    Ok(())
}

/// A flow [`Network::successors_begin`] could not log: it re-runs
/// whenever a firing masks it.
const UNLOGGED: u32 = u32::MAX;

/// The parent read log and the undo log of [`Network::successor`].
#[derive(Debug, Default)]
struct SuccessorLog {
    /// Per flow: how many variables its evaluation on the parent read,
    /// logged in `reads` at [`CompiledFlow::read_at`], or [`UNLOGGED`].
    flow_reads: Vec<u32>,
    reads: Vec<VarId>,
    /// Per variable: the number of the last successor that changed it.
    changed_in: Vec<u64>,
    /// The number of the current successor.
    now: u64,
    /// `(variable, parent value)` per value change, in write order.
    undo: Vec<(VarId, Value)>,
    /// `(process, parent location)` per moved process.
    moved: Vec<(ProcId, LocId)>,
}

impl SuccessorLog {
    /// `nu[var] := v`, logging a bitwise change for undo.
    #[inline]
    fn write(&mut self, nu: &mut Valuation, var: VarId, v: Value) -> Result<(), EvalError> {
        let old = nu.replace(var, v)?;
        if !old.same_bits(v) {
            self.undo.push((var, old));
            self.changed_in[var.0] = self.now;
        }
        Ok(())
    }

    /// Flow `i` (`f`) may not hold in the current successor: it is
    /// unlogged, or its target or a variable its parent evaluation read
    /// has changed.
    #[inline]
    fn stale(&self, f: &CompiledFlow, i: usize) -> bool {
        let n = self.flow_reads[i];
        let lo = f.read_at as usize;
        let changed = |v: &VarId| self.changed_in[v.0] == self.now;
        n == UNLOGGED || changed(&f.target) || self.reads[lo..lo + n as usize].iter().any(changed)
    }

    /// Undoes the current successor's changes on `state`.
    fn restore(&self, state: &mut NetState) {
        for &(var, old) in self.undo.iter().rev() {
            state.nu.replace(var, old).expect("the write being undone succeeded on `var`");
        }
        for &(p, from) in &self.moved {
            state.locs[p.0] = from;
        }
    }
}

/// A candidate of the last enumeration on a [`StepScratch`], fired by
/// [`Network::successor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Firing {
    /// `candidates()[i]` of the last [`Network::guarded_candidates_into`].
    Guarded(usize),
    /// `markovian()[i]` of the last [`Network::markovian_candidates_into`].
    Markovian(usize),
}

/// What a [`Network::successor`] firing changed in its parent.
#[derive(Debug, Clone, Copy)]
pub struct Delta<'a> {
    moved: &'a [(ProcId, LocId)],
    undo: &'a [(VarId, Value)],
}

impl Delta<'_> {
    /// The processes whose location changed.
    pub fn moved(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.moved.iter().map(|&(p, _)| p)
    }

    /// The variables whose value changed bitwise, in write order. A
    /// variable written more than once may be listed again, also when
    /// its last write restored the parent's value.
    pub fn changed(&self) -> impl Iterator<Item = VarId> + '_ {
        self.undo.iter().map(|&(v, _)| v)
    }
}

/// Evaluates the local guard `cg` of process `p`: `None` when disabled,
/// `Some(true)` when enabled at every delay (a delay-free guard), and
/// `Some(false)` with its window left in `s.guard_result` otherwise.
/// Records one guard evaluation unless a cached truth served it.
fn local_guard<P: ProfileHooks>(
    s: &mut StepScratch,
    cg: &CompiledGuarded,
    p: usize,
    nu: &Valuation,
    prof: &mut P,
) -> Result<Option<bool>, EvalError> {
    if let GuardCode::DelayFree(prog) = &cg.guard {
        return Ok(s.cache.truth_of(cg, prog, p, nu, &mut s.solver, prof)?.then_some(true));
    }
    eval_guard(&cg.guard, nu, &s.rates, &mut s.solver, &mut s.guard_result, prof)?;
    let enabled = !s.guard_result.is_empty();
    prof.guard_eval(p, cg.trans.0, enabled);
    Ok(enabled.then_some(false))
}

/// Reusable per-worker workspace for the compiled kernel.
///
/// All buffers grow to a high-water mark during the first few steps and
/// are reused afterwards; in steady state no method taking a
/// `&mut StepScratch` allocates (except guards compiled to
/// [`GuardCode::Fallback`], which are rare and documented).
#[derive(Debug, Default)]
pub struct StepScratch {
    rates: Vec<f64>,
    /// `rates` is the all-zero buffer of a rate-free model.
    rates_zero: bool,
    solver: SolveScratch,
    vals: Vec<Value>,
    guard_result: IntervalSet,
    temp_w: IntervalSet,
    cands: Vec<CandidateBuf>,
    n_cands: usize,
    opts: Vec<OptBuf>,
    n_opts: usize,
    opt_ranges: Vec<(usize, usize)>,
    combo_a: Vec<ComboBuf>,
    n_combo_a: usize,
    combo_b: Vec<ComboBuf>,
    n_combo_b: usize,
    markov: Vec<(ProcId, TransId, f64)>,
    writes: Vec<(VarId, Value)>,
    backup: NetState,
    // Dedicated to `invariants_violated`: its throwaway window output may
    // not share a buffer with `temp_w`, which `delay_window_into` uses
    // internally while that output is checked out.
    inv_check: IntervalSet,
    cache: EnabledCache,
    succ: SuccessorLog,
}

impl StepScratch {
    /// Creates an empty workspace; buffers size themselves on first use.
    pub fn new() -> StepScratch {
        StepScratch::default()
    }

    /// Candidates produced by the last
    /// [`Network::guarded_candidates_into`] call, in legacy enumeration
    /// order.
    pub fn candidates(&self) -> &[CandidateBuf] {
        &self.cands[..self.n_cands]
    }

    /// Markovian candidates `(proc, transition, rate)` produced by the
    /// last [`Network::markovian_candidates_into`] call.
    pub fn markovian(&self) -> &[(ProcId, TransId, f64)] {
        &self.markov
    }
}

/// Acquires the next slot of a pool, reusing retired buffers.
fn next_slot<'a, T: Default>(pool: &'a mut Vec<T>, used: &mut usize) -> &'a mut T {
    if *used == pool.len() {
        pool.push(T::default());
    }
    *used += 1;
    &mut pool[*used - 1]
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Marker: the expression uses a construct the bytecode does not model;
/// the whole guard falls back to the AST solver.
struct Unsupported;

/// True for every variable that can carry a nonzero rate in some
/// location: clocks (base rate 1) plus any variable a location rate
/// declaration drives. A guard whose affine ops reference none of these
/// builds constant forms only, in every reachable state.
fn rated_vars(net: &Network) -> Vec<bool> {
    let mut rated: Vec<bool> = net.vars().iter().map(|v| v.ty == VarType::Clock).collect();
    for a in net.automata() {
        for l in &a.locations {
            for &(v, r) in &l.rates {
                if r != 0.0 {
                    rated[v.0] = true;
                }
            }
        }
    }
    rated
}

/// The variable a solver op reads, if any.
fn solve_op_var(op: &SolveOp) -> Option<VarId> {
    match op {
        SolveOp::SetVar(v) | SolveOp::AffVar(v) => Some(*v),
        _ => None,
    }
}

/// Downgrades a compiled program to the truth-only tier
/// ([`GuardCode::DelayFree`]) when none of the variables it reads can
/// carry a rate, so every affine form it builds is constant.
fn specialize_delay_free(code: GuardCode, rated: &[bool]) -> GuardCode {
    let delay_free = |p: &SolveProg| {
        p.ops.iter().filter_map(solve_op_var).all(|v| !rated.get(v.0).copied().unwrap_or(false))
    };
    match code {
        GuardCode::Prog(p) if delay_free(&p) => GuardCode::DelayFree(p),
        other => other,
    }
}

/// Compilation knobs for [`Network::compile_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run the optimizing tiers: whole-program specialization
    /// ([`GuardSpec`]/[`EvalSpec`]), write-set flow masking and the
    /// incremental enabledness cache. On by default;
    /// [`CompileOptions::reference`] turns it off, producing the
    /// maximally conservative op-by-op kernel that re-establishes every
    /// flow and caches nothing — the baseline the kernel-equivalence fuzz
    /// oracle and the differential tests compare against.
    pub optimize: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions { optimize: true }
    }
}

impl CompileOptions {
    /// The unoptimized reference configuration: no specialization, no
    /// flow masking, no enabledness cache.
    pub fn reference() -> CompileOptions {
        CompileOptions { optimize: false }
    }
}

fn compile_guard(e: &Expr, net: &Network, optimize: bool) -> GuardCode {
    let mut prog = SolveProg { ops: Vec::new(), ctx: Vec::new(), spec: None };
    if compile_solve(e, net, &mut prog).is_err() {
        return GuardCode::Fallback(e.clone());
    }
    let state_dependent =
        prog.ops.iter().any(|op| matches!(op, SolveOp::SetVar(_) | SolveOp::AffVar(_)));
    if !state_dependent {
        // Evaluate once; a deterministic runtime error (e.g. constant
        // division by zero) keeps the program so the error surfaces on
        // every call, exactly like the legacy solver.
        let nu = Valuation::new(Vec::new());
        let mut sv = SolveScratch::default();
        if sv.run(&prog, &nu, &[], &mut NoopProfile).is_ok() {
            let mut set = IntervalSet::empty();
            std::mem::swap(&mut set, &mut sv.sets[0]);
            return GuardCode::Static(set);
        }
    }
    if optimize {
        prog.spec = solve_spec_of(&prog.ops);
    }
    GuardCode::Prog(prog)
}

/// Recognizes a solver program that is, in its entirety, one of the
/// [`GuardSpec`] shapes.
fn solve_spec_of(ops: &[SolveOp]) -> Option<GuardSpec> {
    match ops {
        [SolveOp::SetVar(v)] => return Some(GuardSpec::BoolVar(*v)),
        [SolveOp::SetVar(v), SolveOp::Complement] => return Some(GuardSpec::BoolVarNot(*v)),
        [SolveOp::AffVar(v), SolveOp::AffConst(k), SolveOp::Cmp(op)] => {
            return Some(GuardSpec::CmpVarConst(*op, *v, *k))
        }
        _ => {}
    }
    // Conjunction shape: `var op const` atoms joined by `Intersect`s with
    // valid postfix stack discipline, in any association.
    let mut atoms = Vec::new();
    let mut depth = 0usize;
    let mut rest = ops;
    while !rest.is_empty() {
        match rest {
            [SolveOp::AffVar(v), SolveOp::AffConst(k), SolveOp::Cmp(op), tail @ ..] => {
                atoms.push((*op, *v, *k));
                depth += 1;
                rest = tail;
            }
            [SolveOp::Intersect, tail @ ..] if depth >= 2 => {
                depth -= 1;
                rest = tail;
            }
            _ => return None,
        }
    }
    (depth == 1 && atoms.len() >= 2).then(|| GuardSpec::Conj(atoms.into_boxed_slice()))
}

/// Recognizes a value program that is one of the [`EvalSpec`] shapes.
fn eval_spec_of(ops: &[EvalOp]) -> Option<EvalSpec> {
    match ops {
        [EvalOp::Const(v)] => Some(EvalSpec::Const(*v)),
        [EvalOp::Var(v)] => Some(EvalSpec::Var(*v)),
        [EvalOp::Var(v), EvalOp::Const(k), EvalOp::Bin(op)] => {
            Some(EvalSpec::VarConstBin(*op, *v, *k))
        }
        [EvalOp::Var(v), EvalOp::Const(k1), EvalOp::Bin(op1), EvalOp::Const(k2), EvalOp::Bin(op2)] => {
            Some(EvalSpec::VarConstBinConst(*op1, *v, *k1, *op2, *k2))
        }
        _ => None,
    }
}

fn compile_solve(e: &Expr, net: &Network, prog: &mut SolveProg) -> Result<(), Unsupported> {
    match e {
        Expr::Const(Value::Bool(true)) => prog.ops.push(SolveOp::SetTrue),
        Expr::Const(Value::Bool(false)) => prog.ops.push(SolveOp::SetFalse),
        Expr::Const(_) => return Err(Unsupported),
        Expr::Var(v) => prog.ops.push(SolveOp::SetVar(*v)),
        Expr::Not(x) => {
            compile_solve(x, net, prog)?;
            prog.ops.push(SolveOp::Complement);
        }
        Expr::Neg(_) => return Err(Unsupported),
        Expr::Bin(op, a, b) => match op {
            BinOp::And => {
                compile_solve(a, net, prog)?;
                compile_solve(b, net, prog)?;
                prog.ops.push(SolveOp::Intersect);
            }
            BinOp::Or => {
                compile_solve(a, net, prog)?;
                compile_solve(b, net, prog)?;
                prog.ops.push(SolveOp::Union);
            }
            BinOp::Implies => {
                compile_solve(a, net, prog)?;
                prog.ops.push(SolveOp::Complement);
                compile_solve(b, net, prog)?;
                prog.ops.push(SolveOp::Union);
            }
            BinOp::Xor => {
                compile_solve(a, net, prog)?;
                compile_solve(b, net, prog)?;
                prog.ops.push(SolveOp::Xor);
            }
            BinOp::Eq | BinOp::Ne if is_boolish_decl(a, net) && is_boolish_decl(b, net) => {
                compile_solve(a, net, prog)?;
                compile_solve(b, net, prog)?;
                prog.ops.push(if *op == BinOp::Eq { SolveOp::BoolEq } else { SolveOp::BoolNe });
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                compile_aff(a, net, prog)?;
                compile_aff(b, net, prog)?;
                prog.ops.push(SolveOp::Cmp(*op));
            }
            _ => return Err(Unsupported),
        },
        Expr::Ite(c, t, els) => {
            compile_solve(c, net, prog)?;
            compile_solve(t, net, prog)?;
            compile_solve(els, net, prog)?;
            prog.ops.push(SolveOp::IteSet);
        }
    }
    Ok(())
}

fn compile_aff(e: &Expr, net: &Network, prog: &mut SolveProg) -> Result<(), Unsupported> {
    match e {
        Expr::Const(v) => match v.as_real() {
            Ok(k) => prog.ops.push(SolveOp::AffConst(k)),
            Err(_) => return Err(Unsupported),
        },
        Expr::Var(v) => prog.ops.push(SolveOp::AffVar(*v)),
        Expr::Neg(x) => {
            compile_aff(x, net, prog)?;
            prog.ops.push(SolveOp::AffNeg);
        }
        Expr::Bin(op, a, b) => {
            let with_ctx = matches!(op, BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max);
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max => {
                    compile_aff(a, net, prog)?;
                    compile_aff(b, net, prog)?;
                    let ctx = if with_ctx {
                        let i = prog.ctx.len() as u32;
                        prog.ctx.push(format!("{e}"));
                        i
                    } else {
                        0
                    };
                    prog.ops.push(match op {
                        BinOp::Add => SolveOp::AffAdd,
                        BinOp::Sub => SolveOp::AffSub,
                        BinOp::Mul => SolveOp::AffMul(ctx),
                        BinOp::Div => SolveOp::AffDiv(ctx),
                        BinOp::Min => SolveOp::AffMin(ctx),
                        BinOp::Max => SolveOp::AffMax(ctx),
                        _ => unreachable!(),
                    });
                }
                _ => return Err(Unsupported),
            }
        }
        // Numeric `if` is lazy in the legacy solver: the condition is
        // solved first and only the selected branch is evaluated. The
        // compiled form preserves that with a branch op that dispatches on
        // the condition's delay set, so errors in the unselected branch
        // never surface — identical to `lin_eval`.
        Expr::Ite(c, t, els) => {
            compile_solve(c, net, prog)?;
            let ctx = prog.ctx.len() as u32;
            prog.ctx.push(format!("delay-dependent condition in {e}"));
            let jb = prog.ops.len();
            prog.ops.push(SolveOp::AffJump(0)); // placeholder for the branch
            compile_aff(t, net, prog)?;
            let jt = prog.ops.len();
            prog.ops.push(SolveOp::AffJump(0)); // placeholder: skip the else
            prog.ops[jb] = SolveOp::AffBranch { ctx, else_skip: (prog.ops.len() - jb - 1) as u32 };
            compile_aff(els, net, prog)?;
            prog.ops[jt] = SolveOp::AffJump((prog.ops.len() - jt - 1) as u32);
        }
        // `not`/logical operators in numeric position are ill-typed;
        // validated networks never reach here, but the fallback keeps
        // `compile` infallible on arbitrary networks.
        _ => return Err(Unsupported),
    }
    Ok(())
}

/// Compile-time mirror of the legacy `is_boolish` dispatch, using declared
/// variable types in place of runtime value kinds (identical on canonical
/// states — see the module docs).
fn is_boolish_decl(e: &Expr, net: &Network) -> bool {
    match e {
        Expr::Const(Value::Bool(_)) => true,
        Expr::Var(v) => matches!(net.vars().get(v.0).map(|d| d.ty), Some(VarType::Bool)),
        Expr::Not(_) => true,
        Expr::Bin(op, ..) => op.is_logical() || op.is_comparison(),
        Expr::Ite(_, t, _) => is_boolish_decl(t, net),
        _ => false,
    }
}

fn compile_eval(e: &Expr, ops: &mut Vec<EvalOp>) {
    match e {
        Expr::Const(v) => ops.push(EvalOp::Const(*v)),
        Expr::Var(v) => ops.push(EvalOp::Var(*v)),
        Expr::Not(x) => {
            compile_eval(x, ops);
            ops.push(EvalOp::Not);
        }
        Expr::Neg(x) => {
            compile_eval(x, ops);
            ops.push(EvalOp::Neg);
        }
        Expr::Bin(op, a, b) => match op {
            BinOp::And | BinOp::Or | BinOp::Implies => {
                compile_eval(a, ops);
                let j = ops.len();
                ops.push(EvalOp::Jump(0)); // placeholder
                compile_eval(b, ops);
                ops.push(EvalOp::CastBool);
                let skip = (ops.len() - j - 1) as u32;
                ops[j] = match op {
                    BinOp::And => EvalOp::AndJump(skip),
                    BinOp::Or => EvalOp::OrJump(skip),
                    _ => EvalOp::ImpliesJump(skip),
                };
            }
            BinOp::Xor => {
                compile_eval(a, ops);
                ops.push(EvalOp::CastBool);
                compile_eval(b, ops);
                ops.push(EvalOp::Xor);
            }
            _ => {
                compile_eval(a, ops);
                compile_eval(b, ops);
                ops.push(EvalOp::Bin(*op));
            }
        },
        // The two commonest conditionals, a select over constants and a
        // branch on `v op k`, compile to one op each.
        Expr::Ite(c, t, els) => {
            if let (Expr::Var(v), Expr::Const(t), Expr::Const(e)) = (&**c, &**t, &**els) {
                ops.push(EvalOp::VarSelConst { v: *v, t: *t, e: *e });
                return;
            }
            match var_op_const(c) {
                Some((op, v, k)) => ops.push(EvalOp::VarCmpConstJumpFalse { op, v, k, skip: 0 }),
                None => {
                    compile_eval(c, ops);
                    ops.push(EvalOp::JumpIfFalse(0));
                }
            }
            let j1 = ops.len() - 1;
            compile_eval(t, ops);
            let j2 = ops.len();
            ops.push(EvalOp::Jump(0));
            let skip = (ops.len() - j1 - 1) as u32;
            match &mut ops[j1] {
                EvalOp::JumpIfFalse(n) | EvalOp::VarCmpConstJumpFalse { skip: n, .. } => *n = skip,
                _ => unreachable!("the branch op was just pushed"),
            }
            compile_eval(els, ops);
            ops[j2] = EvalOp::Jump((ops.len() - j2 - 1) as u32);
        }
    }
}

/// `v op k` with an `op` that compiles to a plain `Bin` — the condition
/// [`EvalOp::VarCmpConstJumpFalse`] branches on.
fn var_op_const(c: &Expr) -> Option<(BinOp, VarId, Value)> {
    match c {
        Expr::Bin(op, a, b)
            if !matches!(op, BinOp::And | BinOp::Or | BinOp::Implies | BinOp::Xor) =>
        {
            match (&**a, &**b) {
                (Expr::Var(v), Expr::Const(k)) => Some((*op, *v, *k)),
                _ => None,
            }
        }
        _ => None,
    }
}

fn compile_prog(e: &Expr, optimize: bool) -> EvalProg {
    let mut ops = Vec::new();
    compile_eval(e, &mut ops);
    let spec = if optimize { eval_spec_of(&ops) } else { None };
    EvalProg { ops, spec }
}

/// Write-set closure over the topologically ordered flow list: bit `i` is
/// set when flow `i` reads a variable some seed (or an earlier triggered
/// flow) writes. One forward pass reaches the fixed point because
/// [`crate::flow::toposort_flows`] guarantees every flow runs after the
/// flows defining the variables it reads. Conservative all-ones when the
/// network has more than 64 flows.
fn flow_mask_from(
    flows: &[CompiledFlow],
    n_vars: usize,
    seeds: impl Iterator<Item = VarId>,
) -> u64 {
    if flows.len() > 64 {
        return u64::MAX;
    }
    let mut written = vec![false; n_vars];
    for v in seeds {
        if v.0 < n_vars {
            written[v.0] = true;
        }
    }
    let mut mask = 0u64;
    for (i, f) in flows.iter().enumerate() {
        if f.reads.iter().any(|v| v.0 < n_vars && written[v.0]) {
            mask |= 1 << i;
            if f.target.0 < n_vars {
                written[f.target.0] = true;
            }
        }
    }
    mask
}

/// The enabledness cache's readers index over `guards`: for each
/// variable, the slots of the delay-free guards whose programs read it,
/// in CSR form (`n_vars + 1` offsets, then the slots). Two counting
/// passes, no per-guard allocation; a guard reading a variable twice is
/// listed once.
fn guard_readers_index<'a>(
    guards: impl Iterator<Item = &'a CompiledGuarded> + Clone,
    n_vars: usize,
) -> (Vec<u32>, Vec<u32>) {
    let reads = |cg: &'a CompiledGuarded| {
        let ops: &'a [SolveOp] = match &cg.guard {
            GuardCode::DelayFree(p) => &p.ops,
            _ => &[],
        };
        ops.iter().filter_map(solve_op_var).filter(move |v| v.0 < n_vars).map(move |v| (cg.slot, v))
    };
    // `last[v]`: the latest slot listed for `v` (deduplicates per guard).
    let mut last = vec![u32::MAX; n_vars];
    let mut at = vec![0u32; n_vars + 1];
    for (slot, v) in guards.clone().flat_map(reads) {
        if last[v.0] != slot {
            last[v.0] = slot;
            at[v.0 + 1] += 1;
        }
    }
    for v in 0..n_vars {
        at[v + 1] += at[v];
    }
    let mut next = at.clone();
    let mut readers = vec![0u32; at[n_vars] as usize];
    last.fill(u32::MAX);
    for (slot, v) in guards.flat_map(reads) {
        if last[v.0] != slot {
            last[v.0] = slot;
            readers[next[v.0] as usize] = slot;
            next[v.0] += 1;
        }
    }
    (at, readers)
}

impl Network {
    /// Compiles the network into reusable [`StepTables`] with all
    /// optimizing tiers enabled — shorthand for [`Network::compile_with`]
    /// on the default [`CompileOptions`]. Infallible: any guard the
    /// bytecode cannot model is kept as an AST fallback with identical
    /// runtime behavior.
    pub fn compile(&self) -> StepTables {
        self.compile_with(&CompileOptions::default())
    }

    /// Compiles the network into reusable [`StepTables`] under explicit
    /// [`CompileOptions`]. Every configuration is bit-identical in
    /// observable behavior (windows, candidate order, errors, RNG
    /// consumption); the options only trade compile-time optimization for
    /// interpreter simplicity.
    pub fn compile_with(&self, opts: &CompileOptions) -> StepTables {
        let optimize = opts.optimize;
        let rated = rated_vars(self);
        let guard = |g: &Expr| specialize_delay_free(compile_guard(g, self, optimize), &rated);
        let n_procs = self.automata().len();
        let mut tau = Vec::with_capacity(n_procs);
        let mut markov = Vec::with_capacity(n_procs);
        let mut invariants = Vec::with_capacity(n_procs);
        let mut trans: Vec<Vec<CompiledTrans>> = Vec::with_capacity(n_procs);
        let mut n_guard_slots = 0u32;
        for a in self.automata() {
            let n_locs = a.locations.len();
            let mut a_tau: Vec<Vec<CompiledGuarded>> = vec![Vec::new(); n_locs];
            let mut a_markov: Vec<Vec<(TransId, f64)>> = vec![Vec::new(); n_locs];
            for (i, t) in a.transitions.iter().enumerate() {
                match &t.guard {
                    GuardKind::Boolean(g) if t.action.is_tau() => {
                        a_tau[t.from.0].push(CompiledGuarded {
                            trans: TransId(i),
                            guard: guard(g),
                            urgent: t.urgent,
                            slot: 0,
                        });
                    }
                    GuardKind::Markovian(rate) => a_markov[t.from.0].push((TransId(i), *rate)),
                    GuardKind::Boolean(_) => {}
                }
            }
            // Slots contiguous per location, in candidate order.
            for cg in a_tau.iter_mut().flatten() {
                cg.slot = n_guard_slots;
                n_guard_slots += 1;
            }
            tau.push(a_tau);
            markov.push(a_markov);
            invariants.push(
                a.locations
                    .iter()
                    .map(
                        |l| {
                            if l.invariant.is_const_true() {
                                None
                            } else {
                                Some(guard(&l.invariant))
                            }
                        },
                    )
                    .collect(),
            );
            trans.push(
                a.transitions
                    .iter()
                    .map(|t| CompiledTrans {
                        to: t.to,
                        effects: t
                            .effects
                            .iter()
                            .map(|eff| CompiledEffect {
                                var: eff.var,
                                ty: self.ty_of(eff.var),
                                prog: compile_prog(&eff.expr, optimize),
                            })
                            .collect(),
                        // Filled in below, once the flows are compiled.
                        flow_mask: u64::MAX,
                    })
                    .collect(),
            );
        }

        let mut sync = Vec::new();
        for a_idx in 0..self.actions().len() {
            let action = ActionId(a_idx);
            let procs = self.participants(action);
            if action.is_tau() || procs.is_empty() {
                continue;
            }
            let parts = procs
                .iter()
                .map(|&p| {
                    let a = &self.automata()[p.0];
                    let mut by_loc: Vec<Vec<CompiledGuarded>> = vec![Vec::new(); a.locations.len()];
                    for (i, t) in a.transitions.iter().enumerate() {
                        if t.action != action {
                            continue;
                        }
                        if let GuardKind::Boolean(g) = &t.guard {
                            by_loc[t.from.0].push(CompiledGuarded {
                                trans: TransId(i),
                                guard: guard(g),
                                urgent: t.urgent,
                                slot: n_guard_slots,
                            });
                            n_guard_slots += 1;
                        }
                    }
                    SyncPart { proc: p, by_loc }
                })
                .collect();
            sync.push(SyncTable { action, parts });
        }

        let mut n_flow_reads = 0;
        let flows: Vec<CompiledFlow> = self
            .flows()
            .iter()
            .map(|f| {
                let reads = f.expr.vars();
                let read_at = n_flow_reads as u32;
                n_flow_reads += reads.len();
                CompiledFlow {
                    target: f.target,
                    ty: self.ty_of(f.target),
                    name: self.name_of(f.target).to_string(),
                    reads,
                    prog: compile_prog(&f.expr, optimize),
                    read_at,
                }
            })
            .collect();

        let n_vars = self.vars().len();
        let advance_flow_mask = if optimize {
            flow_mask_from(
                &flows,
                n_vars,
                rated.iter().enumerate().filter(|&(_, &r)| r).map(|(i, _)| VarId(i)),
            )
        } else {
            u64::MAX
        };
        if optimize {
            for ct in trans.iter_mut().flatten() {
                ct.flow_mask = flow_mask_from(&flows, n_vars, ct.effects.iter().map(|eff| eff.var));
            }
        }

        let base_rates =
            self.vars().iter().map(|v| if v.ty == VarType::Clock { 1.0 } else { 0.0 }).collect();

        let has_invariants = invariants.iter().flatten().any(Option::is_some);
        let has_rates = rated.iter().any(|&r| r);
        let (reader_at, guard_readers) = {
            let sync_guards =
                sync.iter().flat_map(|st| &st.parts).flat_map(|part| &part.by_loc).flatten();
            guard_readers_index(tau.iter().flatten().flatten().chain(sync_guards), n_vars)
        };
        let loc_rated = self
            .automata()
            .iter()
            .map(|a| a.locations.iter().map(|l| !l.rates.is_empty()).collect())
            .collect();
        let tau_procs = (0..n_procs).filter(|&p| tau[p].iter().any(|l| !l.is_empty())).collect();
        let tables = StepTables {
            tau,
            tau_procs,
            markov,
            sync,
            invariants,
            trans,
            flows,
            base_rates,
            has_invariants,
            has_rates,
            advance_flow_mask,
            n_guard_slots: n_guard_slots as usize,
            n_flow_reads,
            reader_at,
            guard_readers,
            loc_rated,
            incremental: optimize,
        };
        #[cfg(debug_assertions)]
        if let Err(e) = tables.verify_bytecode() {
            panic!("internal error: compiled bytecode failed verification: {e}");
        }
        tables
    }
}

// ---------------------------------------------------------------------------
// Runtime: guard solving
// ---------------------------------------------------------------------------

impl SolveScratch {
    fn push_slot(&mut self) -> usize {
        if self.depth == self.sets.len() {
            self.sets.push(IntervalSet::empty());
        }
        self.depth += 1;
        self.depth - 1
    }

    /// Runs a compiled guard; the result is left in `sets[0]` with
    /// `depth == 1`. The caller must reset `depth` after consuming it.
    fn run<P: ProfileHooks>(
        &mut self,
        prog: &SolveProg,
        nu: &Valuation,
        rates: &[f64],
        prof: &mut P,
    ) -> Result<(), EvalError> {
        self.depth = 0;
        self.affs.clear();
        prof.eval_begin();
        let mut pc = 0usize;
        while pc < prog.ops.len() {
            if P::ENABLED {
                prof.eval_op(solve_op_index(&prog.ops[pc]));
            }
            match &prog.ops[pc] {
                SolveOp::SetTrue => {
                    let i = self.push_slot();
                    self.sets[i].set_all();
                }
                SolveOp::SetFalse => {
                    let i = self.push_slot();
                    self.sets[i].clear();
                }
                SolveOp::SetVar(v) => {
                    let i = self.push_slot();
                    match nu.get(*v)? {
                        Value::Bool(true) => self.sets[i].set_all(),
                        Value::Bool(false) => self.sets[i].clear(),
                        other => {
                            return Err(EvalError::TypeConfusion {
                                context: format!("numeric variable {other} as guard"),
                            })
                        }
                    }
                }
                SolveOp::Complement => {
                    let i = self.depth - 1;
                    self.sets[i].complement_into(&mut self.t1);
                    std::mem::swap(&mut self.sets[i], &mut self.t1);
                }
                SolveOp::Intersect => {
                    let i = self.depth - 2;
                    self.sets[i].intersect_into(&self.sets[i + 1], &mut self.t1);
                    std::mem::swap(&mut self.sets[i], &mut self.t1);
                    self.depth -= 1;
                }
                SolveOp::Union => {
                    let i = self.depth - 2;
                    self.sets[i].union_into(&self.sets[i + 1], &mut self.t1);
                    std::mem::swap(&mut self.sets[i], &mut self.t1);
                    self.depth -= 1;
                }
                SolveOp::Xor => {
                    let i = self.depth - 2;
                    self.sets[i + 1].complement_into(&mut self.t1);
                    self.sets[i].intersect_into(&self.t1, &mut self.t2);
                    self.sets[i].complement_into(&mut self.t1);
                    self.sets[i + 1].intersect_into(&self.t1, &mut self.t3);
                    self.t2.union_into(&self.t3, &mut self.t1);
                    std::mem::swap(&mut self.sets[i], &mut self.t1);
                    self.depth -= 1;
                }
                op @ (SolveOp::BoolEq | SolveOp::BoolNe) => {
                    let i = self.depth - 2;
                    self.sets[i].intersect_into(&self.sets[i + 1], &mut self.t2);
                    self.sets[i].complement_into(&mut self.t1);
                    self.sets[i + 1].complement_into(&mut self.t3);
                    self.t1.intersect_into(&self.t3, &mut self.t4);
                    self.t2.union_into(&self.t4, &mut self.t1);
                    if matches!(op, SolveOp::BoolNe) {
                        self.t1.complement_into(&mut self.t2);
                        std::mem::swap(&mut self.sets[i], &mut self.t2);
                    } else {
                        std::mem::swap(&mut self.sets[i], &mut self.t1);
                    }
                    self.depth -= 1;
                }
                SolveOp::IteSet => {
                    let i = self.depth - 3; // [c, t, e]
                    self.sets[i + 1].intersect_into(&self.sets[i], &mut self.t1);
                    self.sets[i].complement_into(&mut self.t2);
                    self.sets[i + 2].intersect_into(&self.t2, &mut self.t3);
                    self.t1.union_into(&self.t3, &mut self.t2);
                    std::mem::swap(&mut self.sets[i], &mut self.t2);
                    self.depth -= 2;
                }
                SolveOp::Cmp(cmp) => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    let i = self.push_slot();
                    solve_cmp_into(*cmp, Aff { k: fa.k - fb.k, m: fa.m - fb.m }, &mut self.sets[i]);
                }
                SolveOp::AffConst(k) => self.affs.push(Aff::constant(*k)),
                SolveOp::AffVar(v) => {
                    let k = nu.get(*v)?.as_real()?;
                    self.affs.push(Aff { k, m: rates.get(v.0).copied().unwrap_or(0.0) });
                }
                SolveOp::AffNeg => {
                    let a = self.affs.pop().expect("aff stack underflow");
                    self.affs.push(Aff { k: -a.k, m: -a.m });
                }
                SolveOp::AffAdd => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    self.affs.push(Aff { k: fa.k + fb.k, m: fa.m + fb.m });
                }
                SolveOp::AffSub => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    self.affs.push(Aff { k: fa.k - fb.k, m: fa.m - fb.m });
                }
                SolveOp::AffMul(c) => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    if fa.is_constant() {
                        self.affs.push(Aff { k: fa.k * fb.k, m: fa.k * fb.m });
                    } else if fb.is_constant() {
                        self.affs.push(Aff { k: fa.k * fb.k, m: fa.m * fb.k });
                    } else {
                        return Err(EvalError::NonLinear {
                            context: prog.ctx[*c as usize].clone(),
                        });
                    }
                }
                SolveOp::AffDiv(c) => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    if !fb.is_constant() {
                        return Err(EvalError::NonLinear {
                            context: prog.ctx[*c as usize].clone(),
                        });
                    }
                    if fb.k == 0.0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    self.affs.push(Aff { k: fa.k / fb.k, m: fa.m / fb.k });
                }
                op @ (SolveOp::AffMin(c) | SolveOp::AffMax(c)) => {
                    let fb = self.affs.pop().expect("aff stack underflow");
                    let fa = self.affs.pop().expect("aff stack underflow");
                    if fa.m == fb.m {
                        // Parallel lines (constants included): decided by
                        // intercepts.
                        let k = if matches!(op, SolveOp::AffMin(_)) {
                            fa.k.min(fb.k)
                        } else {
                            fa.k.max(fb.k)
                        };
                        self.affs.push(Aff { k, m: fa.m });
                    } else {
                        return Err(EvalError::NonLinear {
                            context: prog.ctx[*c as usize].clone(),
                        });
                    }
                }
                SolveOp::AffBranch { ctx, else_skip } => {
                    self.depth -= 1;
                    let cond = &self.sets[self.depth];
                    if set_is_all(cond) {
                        // Fall through into the then-branch.
                    } else if cond.is_empty() {
                        pc += *else_skip as usize;
                    } else {
                        return Err(EvalError::NonLinear {
                            context: prog.ctx[*ctx as usize].clone(),
                        });
                    }
                }
                SolveOp::AffJump(n) => pc += *n as usize,
            }
            pc += 1;
        }
        debug_assert_eq!(self.depth, 1, "guard program leaves one set");
        Ok(())
    }

    /// Evaluates a recognized whole-program shape straight into `out` —
    /// no stack machine, no per-op dispatch. Bit-identical to running the
    /// program: same variable read order, same errors, and (for
    /// [`GuardSpec::Conj`]) an intersection fold that matches any
    /// association the program used, since `intersect_into` derives
    /// endpoints by min/max selection only.
    fn run_spec_into(
        &mut self,
        spec: &GuardSpec,
        nu: &Valuation,
        rates: &[f64],
        out: &mut IntervalSet,
    ) -> Result<(), EvalError> {
        let bool_window = |v: VarId, negate: bool, out: &mut IntervalSet| match nu.get(v)? {
            Value::Bool(b) => {
                if b != negate {
                    out.set_all();
                } else {
                    out.clear();
                }
                Ok(())
            }
            other => Err(EvalError::TypeConfusion {
                context: format!("numeric variable {other} as guard"),
            }),
        };
        match spec {
            GuardSpec::BoolVar(v) => bool_window(*v, false, out)?,
            GuardSpec::BoolVarNot(v) => bool_window(*v, true, out)?,
            GuardSpec::CmpVarConst(op, v, k) => {
                let x = nu.get(*v)?.as_real()?;
                let m = rates.get(v.0).copied().unwrap_or(0.0);
                solve_cmp_into(*op, Aff { k: x - k, m }, out);
            }
            GuardSpec::Conj(atoms) => {
                let (op0, v0, k0) = atoms[0];
                let x = nu.get(v0)?.as_real()?;
                let m = rates.get(v0.0).copied().unwrap_or(0.0);
                solve_cmp_into(op0, Aff { k: x - k0, m }, out);
                for &(op, v, k) in &atoms[1..] {
                    let x = nu.get(v)?.as_real()?;
                    let m = rates.get(v.0).copied().unwrap_or(0.0);
                    solve_cmp_into(op, Aff { k: x - k, m }, &mut self.t1);
                    out.intersect_into(&self.t1, &mut self.t2);
                    std::mem::swap(out, &mut self.t2);
                }
            }
        }
        Ok(())
    }
}

/// Truth of a recognized whole-program shape of a
/// [`GuardCode::DelayFree`] guard — the rate-free counterpart of
/// [`SolveScratch::run_spec_into`]. [`GuardSpec::Conj`] evaluates every
/// atom (no short-circuit), like the program it replaces.
fn spec_truth(spec: &GuardSpec, nu: &Valuation) -> Result<bool, EvalError> {
    let bool_var = |v: VarId| match nu.get(v)? {
        Value::Bool(b) => Ok(b),
        other => {
            Err(EvalError::TypeConfusion { context: format!("numeric variable {other} as guard") })
        }
    };
    match spec {
        GuardSpec::BoolVar(v) => bool_var(*v),
        GuardSpec::BoolVarNot(v) => Ok(!bool_var(*v)?),
        GuardSpec::CmpVarConst(op, v, k) => Ok(cmp_truth(*op, nu.get(*v)?.as_real()? - k)),
        GuardSpec::Conj(atoms) => {
            let mut acc = true;
            for &(op, v, k) in atoms.iter() {
                acc &= cmp_truth(op, nu.get(v)?.as_real()? - k);
            }
            Ok(acc)
        }
    }
}

/// The variable of the first false atom of a [`GuardSpec::Conj`] guard
/// that evaluated `false` on `nu`, or [`NO_WITNESS`] for any other guard.
fn conj_witness(prog: &SolveProg, nu: &Valuation) -> u32 {
    let Some(GuardSpec::Conj(atoms)) = &prog.spec else { return NO_WITNESS };
    atoms
        .iter()
        .find(|&&(op, v, k)| {
            nu.get(v).and_then(Value::as_real).is_ok_and(|x| !cmp_truth(op, x - k))
        })
        .map_or(NO_WITNESS, |&(_, v, _)| v.0 as u32)
}

/// Reports a shortcut evaluation to the profiler as a run of the program
/// it replaces. Every shape is straight-line, so the opcode and digram
/// counts are exactly those of executing `ops`.
#[inline(always)]
fn report_ops<P: ProfileHooks, T>(prof: &mut P, ops: &[T], index: fn(&T) -> usize) {
    if P::ENABLED {
        prof.eval_begin();
        for op in ops {
            prof.eval_op(index(op));
        }
    }
}

/// Evaluates a [`GuardCode::DelayFree`] program's truth, through its
/// [`GuardSpec`] shortcut when one was recognized. No variable the
/// program reads carries a rate, so the empty rate slice (every rate
/// read as 0) is exact and the window is all-or-nothing.
fn delay_free_truth<P: ProfileHooks>(
    prog: &SolveProg,
    nu: &Valuation,
    sv: &mut SolveScratch,
    prof: &mut P,
) -> Result<bool, EvalError> {
    if let Some(spec) = &prog.spec {
        report_ops(prof, &prog.ops, solve_op_index);
        return spec_truth(spec, nu);
    }
    sv.run(prog, nu, &[], prof)?;
    sv.depth = 0;
    let window = &sv.sets[0];
    debug_assert!(
        window.is_empty() || set_is_all(window),
        "delay-free window is all-or-nothing: {window:?}"
    );
    Ok(!window.is_empty())
}

/// Truth of `k cmp 0` — the constant (`m == 0`) case of
/// [`solve_cmp_into`], the only one a delay-free shape can reach.
fn cmp_truth(op: BinOp, k: f64) -> bool {
    match op {
        BinOp::Eq => k == 0.0,
        BinOp::Ne => k != 0.0,
        BinOp::Lt => k < 0.0,
        BinOp::Le => k <= 0.0,
        BinOp::Gt => k > 0.0,
        BinOp::Ge => k >= 0.0,
        _ => unreachable!("caller dispatches comparisons only"),
    }
}

/// Allocation-free equivalent of `set == IntervalSet::all()`: true iff the
/// (normalized) set is exactly `[0, ∞)`.
fn set_is_all(s: &IntervalSet) -> bool {
    matches!(s.intervals(),
        [iv] if iv.lo() == 0.0 && iv.lo_closed() && iv.hi() == f64::INFINITY && !iv.hi_closed())
}

/// Allocation-free mirror of the legacy `solve_cmp`: solves
/// `f(d) cmp 0` into `out`. Output-identical to the legacy routine,
/// including the point/complement structure of `Eq`/`Ne`.
fn solve_cmp_into(op: BinOp, f: Aff, out: &mut IntervalSet) {
    out.clear();
    if f.m == 0.0 {
        if cmp_truth(op, f.k) {
            out.set_all();
        }
        return;
    }
    let root = -f.k / f.m;
    let op = if f.m > 0.0 {
        op
    } else {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    };
    match op {
        BinOp::Eq => {
            if root >= 0.0 {
                out.set_point(root);
            }
        }
        BinOp::Ne => {
            if root >= 0.0 {
                // Complement of the point {root} in [0, ∞): a gap below
                // (empty when root == 0 or root == ∞ collapses it) and an
                // open tail above.
                if let Some(gap) = Interval::new(0.0, root, true, false) {
                    out.push_interval_unchecked(gap);
                }
                if let Some(tail) = Interval::new(root, f64::INFINITY, false, false) {
                    out.push_interval_unchecked(tail);
                }
            } else {
                out.set_all();
            }
        }
        BinOp::Lt => {
            if let Some(iv) = Interval::closed_open(0.0, root) {
                out.push_interval_unchecked(iv);
            }
        }
        BinOp::Le => {
            if let Some(iv) = Interval::closed(0.0, root) {
                out.push_interval_unchecked(iv);
            }
        }
        BinOp::Gt => {
            if let Some(iv) = Interval::new(root.max(0.0), f64::INFINITY, root < 0.0, false) {
                out.push_interval_unchecked(iv);
            }
        }
        BinOp::Ge => {
            if let Some(iv) = Interval::new(root.max(0.0), f64::INFINITY, true, false) {
                out.push_interval_unchecked(iv);
            }
        }
        _ => unreachable!(),
    }
}

/// Evaluates a guard code into `out` using the solver scratch.
fn eval_guard<P: ProfileHooks>(
    code: &GuardCode,
    nu: &Valuation,
    rates: &[f64],
    sv: &mut SolveScratch,
    out: &mut IntervalSet,
    prof: &mut P,
) -> Result<(), EvalError> {
    match code {
        GuardCode::Static(set) => out.copy_from(set),
        GuardCode::Prog(prog) => {
            if let Some(spec) = &prog.spec {
                report_ops(prof, &prog.ops, solve_op_index);
                return sv.run_spec_into(spec, nu, rates, out);
            }
            sv.run(prog, nu, rates, prof)?;
            std::mem::swap(out, &mut sv.sets[0]);
            sv.depth = 0;
        }
        GuardCode::DelayFree(prog) => {
            if delay_free_truth(prog, nu, sv, prof)? {
                out.set_all();
            } else {
                out.clear();
            }
        }
        GuardCode::Fallback(e) => {
            let rate = |v: VarId| rates.get(v.0).copied().unwrap_or(0.0);
            let env = DelayEnv::new(nu, &rate);
            *out = solve(e, &env)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Runtime: value programs
// ---------------------------------------------------------------------------

/// Receives every variable a value program reads, in read order.
trait ReadSink {
    fn read(&mut self, v: VarId);
}

/// Records nothing: the instantiation monomorphizes to no extra work.
impl ReadSink for () {
    #[inline(always)]
    fn read(&mut self, _: VarId) {}
}

/// Logs the distinct variables a flow evaluation reads into the flow's
/// slice of the per-path log, which has room for every variable of the
/// flow's expression.
struct ReadLog<'a> {
    buf: &'a mut [VarId],
    n: usize,
}

impl ReadSink for ReadLog<'_> {
    #[inline]
    fn read(&mut self, v: VarId) {
        if !self.buf[..self.n].contains(&v) {
            self.buf[self.n] = v;
            self.n += 1;
        }
    }
}

/// `nu[v]`, reported to the read sink.
#[inline(always)]
fn read_var<R: ReadSink>(nu: &Valuation, reads: &mut R, v: VarId) -> Result<Value, EvalError> {
    reads.read(v);
    nu.get(v)
}

fn run_eval<P: ProfileHooks, R: ReadSink>(
    prog: &EvalProg,
    nu: &Valuation,
    stack: &mut Vec<Value>,
    prof: &mut P,
    reads: &mut R,
) -> Result<Value, EvalError> {
    if let Some(spec) = &prog.spec {
        report_ops(prof, &prog.ops, eval_op_index);
        return run_eval_spec(spec, nu, reads);
    }
    stack.clear();
    prof.eval_begin();
    let mut pc = 0usize;
    while pc < prog.ops.len() {
        if P::ENABLED {
            prof.eval_op(eval_op_index(&prog.ops[pc]));
        }
        match &prog.ops[pc] {
            EvalOp::Const(v) => stack.push(*v),
            EvalOp::Var(v) => stack.push(read_var(nu, reads, *v)?),
            EvalOp::Not => {
                let v = stack.pop().expect("value stack underflow");
                stack.push(Value::Bool(!v.as_bool()?));
            }
            EvalOp::Neg => {
                let v = stack.pop().expect("value stack underflow");
                let r = match v {
                    Value::Int(i) => i.checked_neg().map(Value::Int).ok_or(EvalError::Overflow)?,
                    Value::Real(r) => Value::Real(-r),
                    v => return Err(EvalError::TypeConfusion { context: format!("negating {v}") }),
                };
                stack.push(r);
            }
            EvalOp::Bin(op) => {
                let vb = stack.pop().expect("value stack underflow");
                let va = stack.pop().expect("value stack underflow");
                stack.push(eval_bin(*op, va, vb)?);
            }
            EvalOp::AndJump(n) => {
                let cond = stack.pop().expect("value stack underflow").as_bool()?;
                if !cond {
                    stack.push(Value::Bool(false));
                    pc += *n as usize;
                }
            }
            EvalOp::OrJump(n) => {
                let cond = stack.pop().expect("value stack underflow").as_bool()?;
                if cond {
                    stack.push(Value::Bool(true));
                    pc += *n as usize;
                }
            }
            EvalOp::ImpliesJump(n) => {
                let cond = stack.pop().expect("value stack underflow").as_bool()?;
                if !cond {
                    stack.push(Value::Bool(true));
                    pc += *n as usize;
                }
            }
            EvalOp::CastBool => {
                let v = stack.pop().expect("value stack underflow");
                stack.push(Value::Bool(v.as_bool()?));
            }
            EvalOp::Xor => {
                let b = stack.pop().expect("value stack underflow").as_bool()?;
                let a = stack.pop().expect("value stack underflow").as_bool()?;
                stack.push(Value::Bool(a ^ b));
            }
            EvalOp::JumpIfFalse(n) => {
                let cond = stack.pop().expect("value stack underflow").as_bool()?;
                if !cond {
                    pc += *n as usize;
                }
            }
            EvalOp::Jump(n) => pc += *n as usize,
            EvalOp::VarCmpConstJumpFalse { op, v, k, skip } => {
                let a = read_var(nu, reads, *v)?;
                let cond = eval_bin(*op, a, *k)?.as_bool()?;
                if !cond {
                    pc += *skip as usize;
                }
            }
            EvalOp::VarSelConst { v, t, e } => {
                let c = read_var(nu, reads, *v)?.as_bool()?;
                stack.push(if c { *t } else { *e });
            }
        }
        pc += 1;
    }
    Ok(stack.pop().expect("value program leaves one value"))
}

/// Evaluates a recognized whole-program value shape without the stack
/// machine — same read order and errors as running the program.
fn run_eval_spec<R: ReadSink>(
    spec: &EvalSpec,
    nu: &Valuation,
    reads: &mut R,
) -> Result<Value, EvalError> {
    match spec {
        EvalSpec::Const(v) => Ok(*v),
        EvalSpec::Var(v) => read_var(nu, reads, *v),
        EvalSpec::VarConstBin(op, v, k) => eval_bin(*op, read_var(nu, reads, *v)?, *k),
        EvalSpec::VarConstBinConst(op1, v, k1, op2, k2) => {
            eval_bin(*op2, eval_bin(*op1, read_var(nu, reads, *v)?, *k1)?, *k2)
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime: network stepping
// ---------------------------------------------------------------------------

impl Network {
    /// Recomputes the active rates into `rates` (clock baseline overlaid
    /// with the current locations' rates) — value-identical to
    /// [`Network::active_rates`].
    fn refresh_rates(&self, t: &StepTables, s: &mut StepScratch, state: &NetState) {
        // Rate-free models keep an all-zero buffer forever: once filled it can
        // never change (base rates are zero and no location overlays a nonzero
        // rate), so the refresh is a no-op after the first call — provided
        // the buffer really is that all-zero fill, not the rates a rated
        // model left in a reused scratch.
        if !t.has_rates && s.rates_zero && s.rates.len() == t.base_rates.len() {
            return;
        }
        s.rates.clear();
        s.rates.extend_from_slice(&t.base_rates);
        for (p, a) in self.automata().iter().enumerate() {
            for &(v, r) in &a.locations[state.locs[p].0].rates {
                s.rates[v.0] = r;
            }
        }
        s.rates_zero = !t.has_rates;
    }

    /// Recomputes the per-variable flow rates of `state` into the scratch
    /// rate buffer — the single refresh a rated stepping sequence (the
    /// `*_rated` methods) shares for a whole step. Rates depend only on
    /// the current locations, so the buffer stays valid until a transition
    /// fires; delays never invalidate it. Ends any incremental stepping
    /// sequence (see [`Network::stepping_begin`]).
    pub fn rates_refresh(&self, t: &StepTables, s: &mut StepScratch, state: &NetState) {
        s.cache.active = false;
        self.refresh_rates(t, s, state);
    }

    /// Starts an incremental stepping sequence on `state`: refreshes the
    /// scratch rates and forgets every cached guard truth and the
    /// Markovian list.
    ///
    /// Until a plain entry point ends it, the sequence caches enabledness
    /// across steps (see the module docs). Its contract: every later call
    /// on this scratch is a rated or `*_rated_prof` method on this same
    /// state — [`Network::stepping_refresh`] at the start of each step,
    /// then [`Network::guarded_candidates_rated_prof`],
    /// [`Network::markovian_candidates_rated`] and the other readers,
    /// with the state changed only through
    /// [`Network::advance_rated_prof`] and [`Network::apply_mut_prof`].
    /// Any other change to the state needs a new `stepping_begin`.
    /// Tables compiled with [`CompileOptions::reference`] never cache.
    pub fn stepping_begin(&self, t: &StepTables, s: &mut StepScratch, state: &NetState) {
        s.cache.begin(t);
        self.refresh_rates(t, s, state);
    }

    /// Brings the scratch rates up to date at the start of a step of a
    /// stepping sequence. Inside a running sequence it refreshes only
    /// when a firing entered or left a rate-declaring location since the
    /// last refresh (otherwise the buffer is already `state`'s); outside
    /// one it always refreshes, like [`Network::rates_refresh`].
    pub fn stepping_refresh(&self, t: &StepTables, s: &mut StepScratch, state: &NetState) {
        if !s.cache.active || s.cache.rates_dirty {
            self.refresh_rates(t, s, state);
            s.cache.rates_dirty = false;
        }
    }

    /// Allocation-free [`Network::delay_window`]: writes the invariant
    /// delay window of `state` into `out`.
    ///
    /// # Errors
    /// Identical to the legacy method.
    pub fn delay_window_into(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
        out: &mut IntervalSet,
    ) -> Result<(), EvalError> {
        self.rates_refresh(t, s, state);
        self.delay_window_rated_prof(t, s, state, out, &mut NoopProfile)
    }

    /// [`Network::delay_window_into`] without the rate refresh and with
    /// profiling hooks. It evaluates against the rates left in the
    /// scratch by [`Network::rates_refresh`] (or any refreshing `*_into`
    /// call), which stay valid as long as no transition has fired since
    /// the refresh — bit-identical to the refreshing form. It records one
    /// delay-window solve plus every guard-program opcode executed; the
    /// [`NoopProfile`] instantiation monomorphizes to zero extra work.
    ///
    /// # Errors
    /// Identical to the legacy method.
    pub fn delay_window_rated_prof<P: ProfileHooks>(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
        out: &mut IntervalSet,
        prof: &mut P,
    ) -> Result<(), EvalError> {
        prof.delay_solve();
        out.set_all();
        if !t.has_invariants {
            // The general path below reduces to `prefix_from_zero` on
            // `[0, ∞)`, which reproduces `set_all` bit-for-bit.
            return Ok(());
        }
        for (p, by_loc) in t.invariants.iter().enumerate() {
            let Some(code) = &by_loc[state.locs[p].0] else { continue };
            eval_guard(code, &state.nu, &s.rates, &mut s.solver, &mut s.guard_result, prof)?;
            let sat = &s.guard_result;
            let holds_now =
                sat.contains(0.0) || sat.inf().is_some_and(|lo| lo <= INVARIANT_TOLERANCE);
            if !holds_now {
                let a = &self.automata()[p];
                return Err(EvalError::InvariantViolated {
                    automaton: a.name.clone(),
                    location: a.locations[state.locs[p].0].name.clone(),
                });
            }
            out.intersect_into(sat, &mut s.temp_w);
            std::mem::swap(out, &mut s.temp_w);
        }
        if let Some((hi, closed)) = out.prefix_from_zero() {
            out.set_interval(
                Interval::new(0.0, hi, true, closed)
                    .expect("prefix window is nonempty: contains 0"),
            );
            return Ok(());
        }
        if let Some(first) = out.intervals().first().copied() {
            if first.lo() <= INVARIANT_TOLERANCE {
                out.set_interval(
                    Interval::new(0.0, first.hi(), true, first.hi_closed())
                        .expect("boundary window is nonempty"),
                );
                return Ok(());
            }
        }
        out.set_point(0.0);
        Ok(())
    }

    /// Allocation-free [`Network::guarded_candidates`]: fills the scratch
    /// candidate pool (read it back via [`StepScratch::candidates`]) in the
    /// exact legacy enumeration order.
    ///
    /// # Errors
    /// Identical to the legacy method.
    pub fn guarded_candidates_into(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
    ) -> Result<(), EvalError> {
        self.rates_refresh(t, s, state);
        self.guarded_candidates_rated_prof(t, s, state, &mut NoopProfile)
    }

    /// [`Network::guarded_candidates_into`] without the rate refresh (see
    /// [`Network::delay_window_rated_prof`] for the contract) and with
    /// profiling hooks: records one guard evaluation (with its
    /// enabled/disabled outcome) per guard evaluated, plus every
    /// guard-program opcode executed. Inside a stepping sequence (see
    /// [`Network::stepping_begin`]) delay-free guards whose truth is
    /// cached are not evaluated, so they record nothing.
    ///
    /// # Errors
    /// Identical to the legacy method.
    pub fn guarded_candidates_rated_prof<P: ProfileHooks>(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
        prof: &mut P,
    ) -> Result<(), EvalError> {
        s.n_cands = 0;

        // Internal (τ) guarded transitions fire alone. An enabled
        // delay-free guard's window is a `set_all` — no interval-set
        // round-trip (the windows are identical either way).
        for &p in &t.tau_procs {
            let guards = &t.tau[p][state.locs[p].0];
            let Some(first) = guards.first() else { continue };
            // Inside a sequence only the slots not known false, ascending:
            // the candidate order.
            let (lo, hi) = (first.slot as usize, first.slot as usize + guards.len());
            for w in lo / 64..hi.div_ceil(64) {
                let (from, to) = (lo.max(w * 64) - w * 64, hi.min(w * 64 + 64) - w * 64);
                let word = if s.cache.active { *s.cache.maybe_word(w) } else { !0 };
                let mut bits = word & ((!0u64 >> (64 - (to - from))) << from);
                while bits != 0 {
                    let cg = &guards[w * 64 + bits.trailing_zeros() as usize - lo];
                    bits &= bits - 1;
                    let Some(all) = local_guard(s, cg, p, &state.nu, prof)? else { continue };
                    let c = next_slot(&mut s.cands, &mut s.n_cands);
                    c.action = ActionId::TAU;
                    c.parts.clear();
                    c.parts.push((ProcId(p), cg.trans));
                    if all {
                        c.window.set_all();
                    } else {
                        std::mem::swap(&mut c.window, &mut s.guard_result);
                    }
                    c.urgent = cg.urgent;
                }
            }
        }

        // Synchronizing actions: every participant must join.
        for table in &t.sync {
            // Collect each participant's locally enabled a-transitions.
            s.n_opts = 0;
            s.opt_ranges.clear();
            let mut possible = true;
            for part in &table.parts {
                let start = s.n_opts;
                for cg in &part.by_loc[state.locs[part.proc.0].0] {
                    let Some(all) = local_guard(s, cg, part.proc.0, &state.nu, prof)? else {
                        continue;
                    };
                    let o = next_slot(&mut s.opts, &mut s.n_opts);
                    o.trans = cg.trans;
                    if all {
                        o.window.set_all();
                    } else {
                        std::mem::swap(&mut o.window, &mut s.guard_result);
                    }
                    o.urgent = cg.urgent;
                }
                if s.n_opts == start {
                    possible = false;
                    break;
                }
                s.opt_ranges.push((start, s.n_opts));
            }
            if !possible {
                continue;
            }
            // Cross product of the participants' choices, last participant
            // varying fastest (legacy order).
            s.n_combo_a = 0;
            {
                let c = next_slot(&mut s.combo_a, &mut s.n_combo_a);
                c.parts.clear();
                c.window.set_all();
                c.urgent = false;
            }
            for (pi, part) in table.parts.iter().enumerate() {
                let (lo, hi) = s.opt_ranges[pi];
                s.n_combo_b = 0;
                for ci in 0..s.n_combo_a {
                    for oi in lo..hi {
                        s.combo_a[ci].window.intersect_into(&s.opts[oi].window, &mut s.temp_w);
                        if s.temp_w.is_empty() {
                            continue;
                        }
                        let nc = next_slot(&mut s.combo_b, &mut s.n_combo_b);
                        nc.parts.clear();
                        nc.parts.extend_from_slice(&s.combo_a[ci].parts);
                        nc.parts.push((part.proc, s.opts[oi].trans));
                        std::mem::swap(&mut nc.window, &mut s.temp_w);
                        nc.urgent = s.combo_a[ci].urgent || s.opts[oi].urgent;
                    }
                }
                std::mem::swap(&mut s.combo_a, &mut s.combo_b);
                std::mem::swap(&mut s.n_combo_a, &mut s.n_combo_b);
                if s.n_combo_a == 0 {
                    break;
                }
            }
            for ci in 0..s.n_combo_a {
                let c = next_slot(&mut s.cands, &mut s.n_cands);
                c.action = table.action;
                c.parts.clear();
                c.parts.extend_from_slice(&s.combo_a[ci].parts);
                c.window.copy_from(&s.combo_a[ci].window);
                c.urgent = s.combo_a[ci].urgent;
            }
        }
        Ok(())
    }

    /// Allocation-free [`Network::markovian_candidates`]: fills the
    /// scratch Markovian list (read it back via
    /// [`StepScratch::markovian`]) in the legacy enumeration order.
    /// Ends any incremental stepping sequence.
    pub fn markovian_candidates_into(&self, t: &StepTables, s: &mut StepScratch, state: &NetState) {
        s.cache.active = false;
        self.markovian_candidates_rated(t, s, state);
    }

    /// [`Network::markovian_candidates_into`] inside a stepping sequence
    /// (see [`Network::stepping_begin`]): the list kept from the previous
    /// step is reused, with only the processes whose location changed
    /// spliced back in at their place in process order — the same list,
    /// so the race sums the same rates in the same order. Outside a
    /// sequence it rebuilds the list.
    pub fn markovian_candidates_rated(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
    ) {
        let c = &mut s.cache;
        if !(c.active && c.markov_valid) {
            s.markov.clear();
            for (p, by_loc) in t.markov.iter().enumerate() {
                for &(t_id, rate) in &by_loc[state.locs[p].0] {
                    s.markov.push((ProcId(p), t_id, rate));
                }
            }
            c.markov_valid = c.active;
            c.moved.clear();
            return;
        }
        for &p in &c.moved {
            let lo = s.markov.partition_point(|e| e.0 .0 < p);
            let hi = lo + s.markov[lo..].partition_point(|e| e.0 .0 == p);
            let now = &t.markov[p][state.locs[p].0];
            s.markov.splice(lo..hi, now.iter().map(|&(t_id, rate)| (ProcId(p), t_id, rate)));
        }
        c.moved.clear();
    }

    /// In-place [`Network::advance`]: advances `state` by `d` against the
    /// caller-supplied (untruncated) invariant `window` — the same set the
    /// legacy method recomputes internally — including the
    /// boundary-overshoot retreat.
    ///
    /// # Errors
    /// Identical to the legacy method. On error the state may be partially
    /// advanced; callers reset per path.
    pub fn advance_mut(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &mut NetState,
        d: f64,
        window: &IntervalSet,
    ) -> Result<(), EvalError> {
        self.rates_refresh(t, s, state);
        self.advance_rated_prof(t, s, state, d, window, &mut NoopProfile)
    }

    /// [`Network::advance_mut`] without rate refreshes and with profiling
    /// hooks: advancing never changes locations, so the scratch rates stay
    /// valid through the internal boundary-overshoot retreats too (see
    /// [`Network::delay_window_rated_prof`] for the contract). Records the
    /// flow re-establishment opcodes and any invariant re-checks the
    /// boundary-overshoot retreat performs.
    ///
    /// # Errors
    /// Identical to the legacy method. On error the state may be partially
    /// advanced; callers reset per path.
    pub fn advance_rated_prof<P: ProfileHooks>(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &mut NetState,
        d: f64,
        window: &IntervalSet,
        prof: &mut P,
    ) -> Result<(), EvalError> {
        debug_assert!(d >= 0.0, "negative delay");
        if !window.contains(d) {
            return Err(EvalError::DelayNotAllowed {
                requested: d,
                allowed_up_to: window.sup().unwrap_or(0.0),
            });
        }
        if t.has_invariants {
            s.backup.copy_from(state);
        }
        let (rates, vals, cache) = (&s.rates, &mut s.vals, &mut s.cache);
        advance_unchecked_mut(t, rates, vals, cache, state, d, prof)?;
        // Floating-point robustness: retreat from invariant-boundary
        // overshoot exactly like the legacy `advance`. Invariant-free
        // models have nothing to overshoot. Restoring the backup writes
        // behind the enabledness cache's back, which is sound: every
        // value the restore reverts was changed by the attempt before
        // it, whose writes already evicted its readers, and no guard is
        // cached in between.
        if t.has_invariants && d > 0.0 && self.invariants_violated(t, s, state, prof) {
            for backoff in [1e-12, 1e-9] {
                state.copy_from(&s.backup);
                let (rates, vals, cache) = (&s.rates, &mut s.vals, &mut s.cache);
                advance_unchecked_mut(t, rates, vals, cache, state, d * (1.0 - backoff), prof)?;
                if !self.invariants_violated(t, s, state, prof) {
                    return Ok(());
                }
            }
            // Both retreats failed: return the full-d state, like legacy.
            state.copy_from(&s.backup);
            let (rates, vals, cache) = (&s.rates, &mut s.vals, &mut s.cache);
            advance_unchecked_mut(t, rates, vals, cache, state, d, prof)?;
        }
        Ok(())
    }

    /// True if [`Network::delay_window_rated_prof`] would fail on `state`. The
    /// scratch rates are already valid at every call site (locations are
    /// unchanged since the caller's refresh).
    fn invariants_violated<P: ProfileHooks>(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &NetState,
        prof: &mut P,
    ) -> bool {
        let mut out = std::mem::take(&mut s.inv_check);
        let violated = self.delay_window_rated_prof(t, s, state, &mut out, prof).is_err();
        s.inv_check = out;
        violated
    }

    /// In-place [`Network::apply`]: fires the global transition given by
    /// its participant list, applying effects (read against the
    /// pre-state), moving locations, and re-establishing flows.
    ///
    /// # Errors
    /// Identical to the legacy method. On error the state may be partially
    /// updated; callers reset per path.
    pub fn apply_mut(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &mut NetState,
        parts: &[(ProcId, TransId)],
    ) -> Result<(), EvalError> {
        s.cache.active = false;
        self.apply_mut_prof(t, s, state, parts, &mut NoopProfile)
    }

    /// [`Network::apply_mut`] with profiling hooks: records one firing per
    /// participant plus the effect- and flow-program opcodes executed.
    /// Inside a stepping sequence (see [`Network::stepping_begin`]) it
    /// also keeps the sequence's caches in step with the state: changed
    /// values evict their readers' cached truths, location changes are
    /// noted for the Markovian list and the rate refresh, and a flow
    /// re-runs only if a variable its last evaluation read changed.
    ///
    /// # Errors
    /// Identical to the legacy method. On error the state may be partially
    /// updated; callers reset per path.
    pub fn apply_mut_prof<P: ProfileHooks>(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        state: &mut NetState,
        parts: &[(ProcId, TransId)],
        prof: &mut P,
    ) -> Result<(), EvalError> {
        let c = &mut s.cache;
        c.now += 1;
        let flow_mask =
            self.fire_parts(t, &mut s.vals, &mut s.writes, state, parts, prof, |p, from, to| {
                if !c.active {
                    return;
                }
                c.rates_dirty |= t.loc_rated[p][from.0] || t.loc_rated[p][to.0];
                let markov = &t.markov[p];
                if c.markov_valid && !(markov[from.0].is_empty() && markov[to.0].is_empty()) {
                    if c.moved.len() == t.markov.len() {
                        // Firings without a list refresh in between:
                        // rebuild instead of growing the log.
                        c.markov_valid = false;
                        c.moved.clear();
                    } else {
                        c.moved.push(p);
                    }
                }
            })?;
        for i in 0..s.writes.len() {
            let (var, v) = s.writes[i];
            set_noted(t, &mut state.nu, &mut s.cache, var, v)?;
        }
        run_flows_inner(t, flow_mask, true, &mut s.vals, &mut s.cache, &mut state.nu, prof)
    }

    /// The firing half [`Network::apply_mut_prof`] and
    /// [`Network::successor`] share: records one firing per participant,
    /// evaluates every effect against the pre-state into `writes` (type-
    /// and range-checked, in participant order, so a later write to the
    /// same variable wins) and moves the participants, calling
    /// `moved(p, from, to)` for each whose location changes. Returns the
    /// union of the participants' flow masks.
    // Forced inline, like `eval_flow`: left to the compiler, the two
    // out-of-line calls made `step_primitives/sensor_filter/apply`
    // about a quarter slower than the unshared code it replaced.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn fire_parts<P: ProfileHooks>(
        &self,
        t: &StepTables,
        vals: &mut Vec<Value>,
        writes: &mut Vec<(VarId, Value)>,
        state: &mut NetState,
        parts: &[(ProcId, TransId)],
        prof: &mut P,
        mut moved: impl FnMut(usize, LocId, LocId),
    ) -> Result<u64, EvalError> {
        writes.clear();
        let mut flow_mask = 0u64;
        for &(p, t_id) in parts {
            prof.fired(p.0, t_id.0);
            let ct = &t.trans[p.0][t_id.0];
            flow_mask |= ct.flow_mask;
            for eff in &ct.effects {
                let v = run_eval(&eff.prog, &state.nu, vals, prof, &mut ())?;
                let v = eff.ty.canonicalize(v);
                if !eff.ty.admits(v) {
                    if let (VarType::Int { lo, hi }, Value::Int(i)) = (eff.ty, v) {
                        return Err(EvalError::IntOutOfRange {
                            variable: self.name_of(eff.var).to_string(),
                            value: i,
                            lo,
                            hi,
                        });
                    }
                    return Err(EvalError::TypeConfusion {
                        context: format!(
                            "effect on {} produced {}",
                            self.name_of(eff.var),
                            v.kind()
                        ),
                    });
                }
                writes.push((eff.var, v));
            }
            let from = state.locs[p.0];
            if from != ct.to {
                moved(p.0, from, ct.to);
            }
            state.locs[p.0] = ct.to;
        }
        Ok(flow_mask)
    }

    /// Starts expanding `parent` with [`Network::successor`]: evaluates
    /// every flow on it once and logs the variables each evaluation
    /// reads. A flow whose evaluation fails, or disagrees with the value
    /// `parent` holds in its target, is logged as unknown and re-runs in
    /// every successor whose firing masks it; so do all flows under
    /// [`CompileOptions::reference`] tables.
    pub fn successors_begin(&self, t: &StepTables, s: &mut StepScratch, parent: &NetState) {
        let log = &mut s.succ;
        grow(&mut log.flow_reads, t.flows.len(), 0);
        grow(&mut log.reads, t.n_flow_reads, VarId(0));
        grow(&mut log.changed_in, t.base_rates.len(), 0);
        for (i, f) in t.flows.iter().enumerate() {
            let mut reads = ReadLog { buf: &mut log.reads[f.read_at as usize..], n: 0 };
            let holds = t.incremental
                && eval_flow(f, i, &parent.nu, &mut s.vals, &mut NoopProfile, &mut reads)
                    .is_ok_and(|v| parent.nu.get(f.target).is_ok_and(|old| old.same_bits(v)));
            log.flow_reads[i] = if holds { reads.n as u32 } else { UNLOGGED };
        }
    }

    /// Fires `firing` — a candidate of the last enumeration on `s` — in
    /// place on `parent`, hands the successor and what changed to
    /// `visit`, and restores `parent`. The successor equals what
    /// [`Network::apply_mut`] builds from a copy of `parent`, and the
    /// errors are the same: effects and flows run on the same path,
    /// except that a masked flow is skipped when no variable its
    /// [`Network::successors_begin`] evaluation read has changed (see the
    /// `slim-ctmc` explorer's module docs for why that is exact).
    /// `parent` must be the state last passed to `successors_begin`.
    /// Ends any stepping sequence.
    ///
    /// # Errors
    /// Identical to [`Network::apply_mut`]; `parent` is restored either
    /// way, and `visit` is not called.
    pub fn successor<R>(
        &self,
        t: &StepTables,
        s: &mut StepScratch,
        parent: &mut NetState,
        firing: Firing,
        visit: impl FnOnce(&NetState, Delta<'_>) -> R,
    ) -> Result<R, EvalError> {
        s.cache.active = false;
        let StepScratch { cands, markov, vals, writes, succ: log, .. } = s;
        let markovian;
        let parts: &[(ProcId, TransId)] = match firing {
            Firing::Guarded(c) => &cands[c].parts,
            Firing::Markovian(m) => {
                markovian = [(markov[m].0, markov[m].1)];
                &markovian
            }
        };
        log.now += 1;
        log.undo.clear();
        log.moved.clear();
        let prof = &mut NoopProfile;
        let fired = self.fire_parts(t, vals, writes, parent, parts, prof, |p, from, _| {
            log.moved.push((ProcId(p), from));
        });
        let result = fired.and_then(|mask| {
            for &(var, v) in writes.iter() {
                log.write(&mut parent.nu, var, v)?;
            }
            for (i, f) in t.flows.iter().enumerate() {
                if mask != u64::MAX && (mask >> i) & 1 == 0 || !log.stale(f, i) {
                    continue;
                }
                let v = eval_flow(f, i, &parent.nu, vals, prof, &mut ())?;
                log.write(&mut parent.nu, f.target, v)?;
            }
            Ok(visit(parent, Delta { moved: &log.moved, undo: &log.undo }))
        });
        log.restore(parent);
        result
    }

    /// Compiles a standalone Boolean predicate (a property goal) for
    /// repeated window evaluation via
    /// [`Network::predicate_window_into`].
    pub fn compile_predicate(&self, e: &Expr) -> CompiledPredicate {
        self.compile_predicate_with(e, &CompileOptions::default())
    }

    /// [`Network::compile_predicate`] under explicit [`CompileOptions`]
    /// (pass [`CompileOptions::reference`] for the plain reference
    /// predicate used by differential testing).
    pub fn compile_predicate_with(&self, e: &Expr, opts: &CompileOptions) -> CompiledPredicate {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let rated = rated_vars(self);
        let code = specialize_delay_free(compile_guard(e, self, opts.optimize), &rated);
        let mut reads: Vec<VarId> = match &code {
            GuardCode::DelayFree(p) => p.ops.iter().filter_map(solve_op_var).collect(),
            _ => Vec::new(),
        };
        reads.sort_unstable_by_key(|v| v.0);
        reads.dedup();
        CompiledPredicate {
            code,
            reads: reads.into_boxed_slice(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Allocation-free equivalent of solving `pred` over the delay axis in
    /// `state` (the compiled counterpart of goal-window evaluation).
    ///
    /// # Errors
    /// Solver errors, as for guards.
    pub fn predicate_window_into(
        &self,
        s: &mut StepScratch,
        pred: &CompiledPredicate,
        state: &NetState,
        out: &mut IntervalSet,
    ) -> Result<(), EvalError> {
        s.cache.active = false;
        self.active_rates_into(state, &mut s.rates);
        s.rates_zero = false;
        self.predicate_window_rated_prof(s, pred, state, out, &mut NoopProfile)
    }

    /// [`Network::predicate_window_into`] without the rate refresh (see
    /// [`Network::delay_window_rated_prof`] for the contract) and with
    /// profiling hooks: records the predicate-program opcodes executed.
    /// Inside a stepping sequence a delay-free predicate keeps its last
    /// truth until a variable it reads changes, and records nothing
    /// while it does.
    ///
    /// # Errors
    /// Solver errors, as for guards.
    pub fn predicate_window_rated_prof<P: ProfileHooks>(
        &self,
        s: &mut StepScratch,
        pred: &CompiledPredicate,
        state: &NetState,
        out: &mut IntervalSet,
        prof: &mut P,
    ) -> Result<(), EvalError> {
        match &pred.code {
            GuardCode::DelayFree(prog) if s.cache.active => {
                if s.cache.predicate_truth(pred, prog, &state.nu, &mut s.solver, prof)? {
                    out.set_all();
                } else {
                    out.clear();
                }
                Ok(())
            }
            code => eval_guard(code, &state.nu, &s.rates, &mut s.solver, out, prof),
        }
    }
}

/// A compiled Boolean predicate over network state and delay (used for
/// property goals/hold conditions).
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    code: GuardCode,
    /// The variables a delay-free predicate reads, deduplicated.
    reads: Box<[VarId]>,
    /// Identifies the predicate's memo in a stepping sequence; clones
    /// share it, as they share the program.
    id: u64,
}

impl CompiledPredicate {
    /// Verifies the predicate's compiled program (no-op for static and
    /// fallback forms); `n_vars` bounds variable references.
    ///
    /// # Errors
    /// The first violation found, as for [`StepTables::verify_bytecode`].
    pub fn verify(&self, n_vars: usize) -> Result<(), BytecodeError> {
        if let GuardCode::Prog(p) | GuardCode::DelayFree(p) = &self.code {
            verify_solve(p, n_vars).map_err(|(pc, reason)| BytecodeError {
                program: "predicate".to_string(),
                pc,
                reason,
            })?;
        }
        Ok(())
    }
}

/// Advances clocks/continuous variables and re-establishes flows, without
/// boundary snapping. The rated variables themselves are written without
/// telling the enabledness cache: no delay-free guard reads a variable
/// that can carry a rate, so they have no readers to evict.
fn advance_unchecked_mut<P: ProfileHooks>(
    t: &StepTables,
    rates: &[f64],
    vals: &mut Vec<Value>,
    cache: &mut EnabledCache,
    state: &mut NetState,
    d: f64,
    prof: &mut P,
) -> Result<(), EvalError> {
    let mut moved = false;
    // A rate-free model's buffer is all zero: nothing to scan.
    if t.has_rates {
        for (i, r) in rates.iter().enumerate() {
            if *r != 0.0 {
                let cur = state.nu.get(VarId(i))?.as_real()?;
                state.nu.set(VarId(i), Value::Real(cur + r * d))?;
                moved = true;
            }
        }
    }
    state.time += d;
    if !moved {
        // No rated variable changed, so every flow (a pure function of
        // the valuation — time is not in scope) re-evaluates to the value
        // it already established; skip the re-run.
        return Ok(());
    }
    cache.now += 1;
    run_flows_inner(t, t.advance_flow_mask, false, vals, cache, &mut state.nu, prof)
}

/// Re-establishes flows in definition (topological) order. Bit `i` of
/// `mask` clear means flow `i`'s reads are untouched by the triggering
/// writes (including transitively, via earlier flows), so it would
/// re-evaluate to the value it already holds — skip it. An all-ones mask
/// runs everything, which is also the fallback for >64 flows. A flow that
/// does run but rewrites the value it already holds evicts nothing from
/// the enabledness cache.
///
/// Inside a stepping sequence, `demand` (an `apply`) also skips a masked
/// flow none of whose last-read variables changed, and logs the reads of
/// each flow it runs; otherwise (an `advance`, whose boundary retreat
/// restores values behind the log's back) the flows run and their read
/// sets are forgotten.
fn run_flows_inner<P: ProfileHooks>(
    t: &StepTables,
    mask: u64,
    demand: bool,
    vals: &mut Vec<Value>,
    cache: &mut EnabledCache,
    nu: &mut Valuation,
    prof: &mut P,
) -> Result<(), EvalError> {
    for (i, f) in t.flows.iter().enumerate() {
        if mask != u64::MAX && (mask >> i) & 1 == 0 {
            continue;
        }
        let v = if cache.active && demand {
            if cache.flow_current(f, i) {
                continue;
            }
            let mut log = ReadLog { buf: &mut cache.reads[f.read_at as usize..], n: 0 };
            let v = eval_flow(f, i, nu, vals, prof, &mut log)?;
            cache.flow_reads[i] = log.n as u32;
            cache.flow_at[i] = cache.now;
            v
        } else {
            if cache.active {
                cache.flow_at[i] = 0;
            }
            eval_flow(f, i, nu, vals, prof, &mut ())?
        };
        set_noted(t, nu, cache, f.target, v)?;
    }
    Ok(())
}

/// Evaluates flow `i` (`f`) on `nu` and checks the value against its
/// target's type, recording one flow evaluation.
#[inline(always)]
fn eval_flow<P: ProfileHooks, R: ReadSink>(
    f: &CompiledFlow,
    i: usize,
    nu: &Valuation,
    vals: &mut Vec<Value>,
    prof: &mut P,
    reads: &mut R,
) -> Result<Value, EvalError> {
    let v = run_eval(&f.prog, nu, vals, prof, reads)?;
    prof.flow_eval(i);
    let v = f.ty.canonicalize(v);
    if !f.ty.admits(v) {
        if let (VarType::Int { lo, hi }, Value::Int(i)) = (f.ty, v) {
            return Err(EvalError::IntOutOfRange { variable: f.name.clone(), value: i, lo, hi });
        }
        return Err(EvalError::TypeConfusion {
            context: format!("flow into {} produced {}", f.name, v.kind()),
        });
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Profiling: the unified opcode namespace and the counter layout
// ---------------------------------------------------------------------------

/// Structural [`EvalOp`] opcodes (everything except `Bin`, which gets one
/// profiling slot per [`BinOp`]).
const N_EVAL_STRUCT_OPS: usize = 13;
/// Number of [`BinOp`] variants.
const N_BIN_OPS: usize = 16;
/// Number of [`SolveOp`] variants.
const N_SOLVE_OPS: usize = 22;
/// First id of the solver ops inside the unified namespace.
const SOLVE_OP_BASE: usize = N_EVAL_STRUCT_OPS + N_BIN_OPS;

/// Display names of the unified profiling opcode namespace, indexed by the
/// ids handed to [`ProfileHooks::eval_op`]: the value-program (`eval.*`)
/// opcodes first — with `EvalOp::Bin` split into one slot per [`BinOp`] so
/// digram mining sees the actual arithmetic — then the guard-solver
/// (`solve.*`) opcodes. [`profile_shape`] sizes the opcode counters from
/// this table's length.
pub const PROFILE_OP_NAMES: [&str; SOLVE_OP_BASE + N_SOLVE_OPS] = [
    "eval.const",
    "eval.var",
    "eval.not",
    "eval.neg",
    "eval.cast_bool",
    "eval.xor",
    "eval.and_jump",
    "eval.or_jump",
    "eval.implies_jump",
    "eval.jump_if_false",
    "eval.jump",
    "eval.var_cmp_const_jump_false",
    "eval.var_sel_const",
    "eval.add",
    "eval.sub",
    "eval.mul",
    "eval.div",
    "eval.min",
    "eval.max",
    "eval.and",
    "eval.or",
    "eval.bin_xor",
    "eval.implies",
    "eval.eq",
    "eval.ne",
    "eval.lt",
    "eval.le",
    "eval.gt",
    "eval.ge",
    "solve.set_true",
    "solve.set_false",
    "solve.set_var",
    "solve.complement",
    "solve.intersect",
    "solve.union",
    "solve.xor",
    "solve.bool_eq",
    "solve.bool_ne",
    "solve.ite",
    "solve.cmp",
    "solve.aff_const",
    "solve.aff_var",
    "solve.aff_neg",
    "solve.aff_add",
    "solve.aff_sub",
    "solve.aff_mul",
    "solve.aff_div",
    "solve.aff_min",
    "solve.aff_max",
    "solve.aff_branch",
    "solve.aff_jump",
];

fn bin_op_index(op: BinOp) -> usize {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Min => 4,
        BinOp::Max => 5,
        BinOp::And => 6,
        BinOp::Or => 7,
        BinOp::Xor => 8,
        BinOp::Implies => 9,
        BinOp::Eq => 10,
        BinOp::Ne => 11,
        BinOp::Lt => 12,
        BinOp::Le => 13,
        BinOp::Gt => 14,
        BinOp::Ge => 15,
    }
}

#[inline]
fn eval_op_index(op: &EvalOp) -> usize {
    match op {
        EvalOp::Const(_) => 0,
        EvalOp::Var(_) => 1,
        EvalOp::Not => 2,
        EvalOp::Neg => 3,
        EvalOp::CastBool => 4,
        EvalOp::Xor => 5,
        EvalOp::AndJump(_) => 6,
        EvalOp::OrJump(_) => 7,
        EvalOp::ImpliesJump(_) => 8,
        EvalOp::JumpIfFalse(_) => 9,
        EvalOp::Jump(_) => 10,
        EvalOp::VarCmpConstJumpFalse { .. } => 11,
        EvalOp::VarSelConst { .. } => 12,
        EvalOp::Bin(b) => N_EVAL_STRUCT_OPS + bin_op_index(*b),
    }
}

#[inline]
fn solve_op_index(op: &SolveOp) -> usize {
    SOLVE_OP_BASE
        + match op {
            SolveOp::SetTrue => 0,
            SolveOp::SetFalse => 1,
            SolveOp::SetVar(_) => 2,
            SolveOp::Complement => 3,
            SolveOp::Intersect => 4,
            SolveOp::Union => 5,
            SolveOp::Xor => 6,
            SolveOp::BoolEq => 7,
            SolveOp::BoolNe => 8,
            SolveOp::IteSet => 9,
            SolveOp::Cmp(_) => 10,
            SolveOp::AffConst(_) => 11,
            SolveOp::AffVar(_) => 12,
            SolveOp::AffNeg => 13,
            SolveOp::AffAdd => 14,
            SolveOp::AffSub => 15,
            SolveOp::AffMul(_) => 16,
            SolveOp::AffDiv(_) => 17,
            SolveOp::AffMin(_) => 18,
            SolveOp::AffMax(_) => 19,
            SolveOp::AffBranch { .. } => 20,
            SolveOp::AffJump(_) => 21,
        }
}

/// Builds the dense counter layout a [`slim_obs::profile::KernelProfile`]
/// needs to profile this network's compiled kernel: the unified opcode
/// count plus flat per-(process, transition) and per-(process, location)
/// index spaces in declaration order.
pub fn profile_shape(net: &Network) -> ProfileShape {
    let mut trans_offsets = Vec::with_capacity(net.automata().len() + 1);
    let mut loc_offsets = Vec::with_capacity(net.automata().len() + 1);
    trans_offsets.push(0);
    loc_offsets.push(0);
    for a in net.automata() {
        let t = *trans_offsets.last().expect("seeded with 0") + a.transitions.len();
        trans_offsets.push(t);
        let l = *loc_offsets.last().expect("seeded with 0") + a.locations.len();
        loc_offsets.push(l);
    }
    ProfileShape { n_ops: PROFILE_OP_NAMES.len(), trans_offsets, loc_offsets }
}

/// Builds display labels aligned with [`profile_shape`]: opcode names from
/// [`PROFILE_OP_NAMES`], `"process: from -> to"` transition labels and
/// `"process.location"` location labels. Source spans are left unset;
/// front ends that kept the AST overlay them (see `slimsim profile`).
pub fn profile_labels(net: &Network) -> ProfileLabels {
    let op_names = PROFILE_OP_NAMES.iter().map(|s| (*s).to_string()).collect();
    let mut transitions = Vec::new();
    let mut locations = Vec::new();
    for a in net.automata() {
        for tr in &a.transitions {
            let label = format!(
                "{}: {} -> {}",
                a.name, a.locations[tr.from.0].name, a.locations[tr.to.0].name
            );
            transitions.push((label, None));
        }
        for l in &a.locations {
            locations.push(format!("{}.{}", a.name, l.name));
        }
    }
    ProfileLabels { op_names, transitions, locations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Effect;
    use crate::network::NetworkBuilder;
    use crate::network::{AutomatonBuilder, GuardedCandidate};

    /// Deterministic linear-congruential driver for the differential walk.
    fn lcg(s: &mut u64) -> u64 {
        *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *s >> 33
    }

    /// A network exercising sync cross-products, urgency, Markovian races,
    /// invariants with rates, flows, and most guard constructs the
    /// bytecode compiler handles natively.
    fn torture_net() -> Network {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let temp = net.var("temp", VarType::Continuous, Value::Real(0.0));
        let b = net.var("b", VarType::Bool, Value::Bool(false));
        let n = net.var("n", VarType::Int { lo: 0, hi: 10 }, Value::Int(0));
        let r = net.var("r", VarType::Real, Value::Real(0.0));
        let sel = net.var("sel", VarType::Real, Value::Real(0.0));
        net.flow(r, Expr::var(n).add(Expr::int(1)));
        let go = net.action("go");

        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location_with("l0", Expr::var(c).le(Expr::real(8.0)), [(temp, 0.5)]);
        let l1 = a.location_with("l1", Expr::var(temp).le(Expr::real(6.0)), [(temp, 1.0)]);
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(c).ge(Expr::real(1.0)).and(Expr::var(c).le(Expr::real(5.0))),
            [Effect::assign(n, Expr::var(n).add(Expr::int(1)).min(Expr::int(10)))],
            l1,
        );
        a.guarded_urgent(
            l0,
            ActionId::TAU,
            Expr::var(c).ge(Expr::real(3.0)),
            [Effect::assign(c, Expr::real(0.0))],
            l0,
        );
        // Guard-construct torture: data-free self loops.
        a.guarded(l0, ActionId::TAU, Expr::var(b).xor(Expr::var(c).gt(Expr::real(6.0))), [], l0);
        a.guarded(l0, ActionId::TAU, Expr::var(c).gt(Expr::real(1.0)).eq(Expr::var(b)), [], l0);
        a.guarded(
            l0,
            ActionId::TAU,
            (Expr::var(c).div(Expr::real(2.0)).le(Expr::real(3.0)))
                .and(Expr::real(2.0).mul(Expr::var(c)).ge(Expr::real(1.0))),
            [],
            l0,
        );
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(c).min(Expr::var(c).add(Expr::real(2.0))).ge(Expr::real(3.0)),
            [],
            l0,
        );
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::ite(
                Expr::var(b),
                Expr::var(c).le(Expr::real(4.0)),
                Expr::var(c).ge(Expr::real(6.0)),
            ),
            [],
            l0,
        );
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(c).lt(Expr::real(3.0)).not().implies(Expr::var(b)),
            [],
            l0,
        );
        // Numeric `if` with a delay-independent condition: compiled via
        // the lazy branch ops.
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(c).le(Expr::ite(Expr::var(b), Expr::real(4.0), Expr::real(7.0))),
            [],
            l0,
        );
        a.guarded(l1, ActionId::TAU, Expr::int(1).lt(Expr::int(2)), [], l1);
        a.guarded(
            l1,
            ActionId::TAU,
            Expr::ite(
                Expr::var(b),
                Expr::var(temp).le(Expr::real(2.0)),
                Expr::var(temp).ge(Expr::real(1.0)),
            ),
            [
                Effect::assign(b, Expr::var(b).not()),
                Effect::assign(c, Expr::real(0.0)),
                // Eval-side branch diamond: `if b then 2 else 5`.
                Effect::assign(sel, Expr::ite(Expr::var(b), Expr::real(2.0), Expr::real(5.0))),
            ],
            l0,
        );
        // Markovian race in a dedicated location (locations may not mix
        // guarded and Markovian transitions).
        let l2 = a.location("mk");
        a.guarded(l1, ActionId::TAU, Expr::var(temp).ge(Expr::real(0.5)), [], l2);
        a.markovian(
            l2,
            2.0,
            [Effect::assign(n, Expr::var(n).sub(Expr::int(1)).max(Expr::int(0)))],
            l0,
        );
        a.markovian(l2, 0.5, [], l1);
        a.guarded(l0, go, Expr::var(c).le(Expr::real(4.0)), [], l0);
        a.guarded(l0, go, Expr::var(c).ge(Expr::real(2.0)), [], l1);
        net.add_automaton(a);

        let mut bb = AutomatonBuilder::new("b");
        let m0 = bb.location("m0");
        let m1 = bb.location("m1");
        bb.guarded(m0, go, Expr::TRUE, [], m1);
        bb.guarded(m1, go, Expr::var(b).eq(Expr::FALSE), [], m0);
        bb.guarded(m1, ActionId::TAU, Expr::var(n).ge(Expr::int(1)), [], m0);
        net.add_automaton(bb);

        net.build().expect("torture net validates")
    }

    fn assert_cands_eq(legacy: &[GuardedCandidate], compiled: &[CandidateBuf]) {
        assert_eq!(legacy.len(), compiled.len(), "candidate count");
        for (l, c) in legacy.iter().zip(compiled) {
            assert_eq!(l.transition.action, c.action);
            assert_eq!(l.transition.parts, c.parts);
            assert_eq!(l.window, c.window);
            assert_eq!(l.urgent, c.urgent);
        }
    }

    /// The core differential test: a long pseudo-random walk where every
    /// step compares the compiled kernel against the legacy allocating
    /// API — windows, candidates, Markovian races, `advance`, `apply`.
    #[test]
    fn compiled_kernel_matches_legacy_walk() {
        let net = torture_net();
        let tables = net.compile();
        let mut s = StepScratch::new();
        let mut seed = 0xfeed_5eed_u64;

        for path in 0..16u64 {
            seed ^= path.wrapping_mul(0x9e37_79b9);
            let mut st = net.initial_state().unwrap();
            let mut st_c = st.clone();
            let mut window = IntervalSet::empty();
            for _ in 0..60 {
                assert_eq!(st, st_c, "states diverged");
                let w = net.delay_window(&st);
                let w_c = net.delay_window_into(&tables, &mut s, &st_c, &mut window);
                match (&w, &w_c) {
                    (Ok(wl), Ok(())) => assert_eq!(*wl, window, "delay windows diverged"),
                    (Err(el), Err(ec)) => {
                        assert_eq!(el, ec);
                        break;
                    }
                    _ => panic!("delay window result kind diverged: {w:?} vs {w_c:?}"),
                }
                let w = w.unwrap();

                let cands = net.guarded_candidates(&st).unwrap();
                net.guarded_candidates_into(&tables, &mut s, &st_c).unwrap();
                assert_cands_eq(&cands, s.candidates());

                let markov = net.markovian_candidates(&st);
                net.markovian_candidates_into(&tables, &mut s, &st_c);
                assert_eq!(markov.len(), s.markovian().len());
                for (l, &(p, t, rate)) in markov.iter().zip(s.markovian()) {
                    assert_eq!(l.transition.parts, vec![(p, t)]);
                    assert_eq!(l.rate, rate);
                }

                // Drive: prefer a guarded candidate whose window intersects
                // the invariant window; otherwise race a Markovian jump.
                let pick = lcg(&mut seed) as usize;
                let fired = cands
                    .iter()
                    .cycle()
                    .skip(pick % cands.len().max(1))
                    .take(cands.len())
                    .find(|cand| !cand.window.intersect(&w).is_empty());
                if let Some(cand) = fired {
                    let joint = cand.window.intersect(&w);
                    let frac = (lcg(&mut seed) % 101) as f64 / 100.0;
                    let d = joint.earliest_point().unwrap()
                        + joint.sup().filter(|s| s.is_finite()).map_or(0.0, |sup| {
                            (sup - joint.earliest_point().unwrap()).max(0.0) * frac * 0.5
                        });
                    let d = if joint.contains(d) { d } else { joint.earliest_point().unwrap() };
                    let adv = net.advance(&st, d);
                    let adv_c = net.advance_mut(&tables, &mut s, &mut st_c, d, &window);
                    match (adv, adv_c) {
                        (Ok(next), Ok(())) => st = next,
                        (Err(el), Err(ec)) => {
                            assert_eq!(el, ec);
                            break;
                        }
                        (a, b) => panic!("advance diverged: {a:?} vs {b:?}"),
                    }
                    assert_eq!(st, st_c, "advance diverged");
                    let ap = net.apply(&st, &cand.transition);
                    let ap_c = net.apply_mut(&tables, &mut s, &mut st_c, &cand.transition.parts);
                    match (ap, ap_c) {
                        (Ok(next), Ok(())) => st = next,
                        (Err(el), Err(ec)) => {
                            assert_eq!(el, ec);
                            break;
                        }
                        (a, b) => panic!("apply diverged: {a:?} vs {b:?}"),
                    }
                } else if !markov.is_empty() {
                    let sup = w.sup().unwrap_or(0.0);
                    let d = if sup.is_finite() { sup * 0.9 } else { 1.0 };
                    let next = net.advance(&st, d).unwrap();
                    net.advance_mut(&tables, &mut s, &mut st_c, d, &window).unwrap();
                    st = next;
                    assert_eq!(st, st_c, "advance diverged");
                    let m = &markov[lcg(&mut seed) as usize % markov.len()];
                    let next = net.apply(&st, &m.transition).unwrap();
                    net.apply_mut(&tables, &mut s, &mut st_c, &m.transition.parts).unwrap();
                    st = next;
                } else {
                    break;
                }
            }
        }
    }

    #[test]
    fn state_independent_guard_is_precomputed() {
        let mut net = NetworkBuilder::new();
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        a.guarded(l0, ActionId::TAU, Expr::int(1).lt(Expr::int(2)), [], l0);
        net.add_automaton(a);
        let net = net.build().unwrap();
        let tables = net.compile();
        assert!(
            matches!(tables.tau[0][0][0].guard, GuardCode::Static(ref s) if !s.is_empty()),
            "constant guard should be classified state-independent"
        );
    }

    #[test]
    fn numeric_ite_guard_compiles_and_matches() {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let b = net.var("b", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        // Numeric `if` in guard position: compiled lazily, both branches.
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::ite(Expr::var(b), Expr::real(1.0), Expr::real(2.0)).le(Expr::var(c)),
            [],
            l0,
        );
        net.add_automaton(a);
        let net = net.build().unwrap();
        let tables = net.compile();
        assert!(
            matches!(tables.tau[0][0][0].guard, GuardCode::Prog(_)),
            "numeric `if` guard should compile to bytecode"
        );

        let mut s = StepScratch::new();
        for b_val in [false, true] {
            let mut st = net.initial_state().unwrap();
            st.nu.set(b, Value::Bool(b_val)).unwrap();
            let cands = net.guarded_candidates(&st).unwrap();
            net.guarded_candidates_into(&tables, &mut s, &st).unwrap();
            assert_cands_eq(&cands, s.candidates());
        }
    }

    #[test]
    fn numeric_ite_delay_dependent_condition_errors_identically() {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        // At c = 0 the condition `c > 1` holds on (1, ∞): neither always
        // nor never, so the branch selection is delay-dependent.
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::ite(Expr::var(c).gt(Expr::real(1.0)), Expr::real(1.0), Expr::real(2.0))
                .le(Expr::var(c)),
            [],
            l0,
        );
        net.add_automaton(a);
        let net = net.build().unwrap();
        let tables = net.compile();
        let mut s = StepScratch::new();
        let st = net.initial_state().unwrap();
        let legacy = net.guarded_candidates(&st).unwrap_err();
        let compiled = net.guarded_candidates_into(&tables, &mut s, &st).unwrap_err();
        assert_eq!(legacy, compiled);
        assert!(matches!(legacy, EvalError::NonLinear { .. }));
    }

    #[test]
    fn ill_typed_guard_falls_back_and_errors_identically() {
        // Validated networks never contain ill-typed guards; assemble
        // without validation to exercise the AST-fallback safety net.
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        a.guarded(l0, ActionId::TAU, Expr::var(c).le(Expr::TRUE), [], l0);
        net.add_automaton(a);
        let net = net.assemble_for_validation().unwrap();
        let tables = net.compile();
        assert!(matches!(tables.tau[0][0][0].guard, GuardCode::Fallback(_)));

        let mut s = StepScratch::new();
        let st = net.initial_state().unwrap();
        let legacy = net.guarded_candidates(&st).unwrap_err();
        let compiled = net.guarded_candidates_into(&tables, &mut s, &st).unwrap_err();
        assert_eq!(legacy, compiled);
    }

    #[test]
    fn nonlinear_guard_errors_identically() {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(1.0));
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        a.guarded(l0, ActionId::TAU, Expr::var(c).mul(Expr::var(c)).gt(Expr::real(1.0)), [], l0);
        net.add_automaton(a);
        let net = net.build().unwrap();
        let tables = net.compile();
        let mut s = StepScratch::new();
        let st = net.initial_state().unwrap();
        let legacy = net.guarded_candidates(&st).unwrap_err();
        let compiled = net.guarded_candidates_into(&tables, &mut s, &st).unwrap_err();
        assert_eq!(legacy, compiled);
        assert!(matches!(legacy, EvalError::NonLinear { .. }));
    }

    #[test]
    fn predicate_window_matches_guard_solver() {
        let net = torture_net();
        let c = net.var_id("c").unwrap();
        let pred_expr = Expr::var(c).ge(Expr::real(2.0)).and(Expr::var(c).le(Expr::real(7.0)));
        let pred = net.compile_predicate(&pred_expr);
        let mut s = StepScratch::new();
        let st = net.initial_state().unwrap();
        let mut out = IntervalSet::empty();
        net.predicate_window_into(&mut s, &pred, &st, &mut out).unwrap();
        let rates = net.active_rates(&st);
        let rate = |v: VarId| rates[v.0];
        let env = DelayEnv::new(&st.nu, &rate);
        assert_eq!(out, solve(&pred_expr, &env).unwrap());
    }

    #[test]
    fn invariant_violation_errors_identically() {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(5.0));
        let mut a = AutomatonBuilder::new("a");
        a.location_with("l0", Expr::var(c).le(Expr::real(1.0)), []);
        net.add_automaton(a);
        let net = net.build().unwrap();
        let tables = net.compile();
        let mut s = StepScratch::new();
        let st = net.initial_state().unwrap();
        let legacy = net.delay_window(&st).unwrap_err();
        let mut out = IntervalSet::empty();
        let compiled = net.delay_window_into(&tables, &mut s, &st, &mut out).unwrap_err();
        assert_eq!(legacy, compiled);
    }

    #[test]
    fn verifier_accepts_all_compiled_programs() {
        let tables = torture_net().compile();
        let report = tables.verify_bytecode().expect("compiler output verifies");
        assert!(report.guard_programs > 0, "torture net has compiled guards");
        assert!(report.value_programs > 0, "torture net has effects/flows");
        assert!(report.ops > 0);
        assert_eq!(report.fallback_guards, 0, "torture net compiles fully");
        assert_eq!(
            report.programs(),
            report.guard_programs + report.value_programs + report.static_guards
        );
    }

    /// Find the first compiled guard program in the τ tables (mutably).
    fn first_tau_prog(tables: &mut StepTables) -> &mut SolveProg {
        tables
            .tau
            .iter_mut()
            .flatten()
            .flatten()
            .find_map(|cg| match &mut cg.guard {
                GuardCode::Prog(p) => Some(p),
                _ => None,
            })
            .expect("torture net has a compiled tau guard")
    }

    #[test]
    fn verifier_rejects_corrupted_programs() {
        // Stack underflow: an extra Intersect with only one set pushed.
        let mut tables = torture_net().compile();
        first_tau_prog(&mut tables).ops.insert(1, SolveOp::Intersect);
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("underflow"), "got: {err}");

        // Jump out of bounds.
        let mut tables = torture_net().compile();
        let prog = first_tau_prog(&mut tables);
        prog.ops.push(SolveOp::AffJump(u32::MAX));
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("jump target"), "got: {err}");

        // Wrong final depth: a trailing extra set.
        let mut tables = torture_net().compile();
        first_tau_prog(&mut tables).ops.push(SolveOp::SetTrue);
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("ends with"), "got: {err}");

        // Context index out of range on an error-reporting op.
        let mut tables = torture_net().compile();
        let prog = first_tau_prog(&mut tables);
        let n_ctx = prog.ctx.len() as u32;
        prog.ops.insert(0, SolveOp::AffConst(1.0));
        prog.ops.insert(1, SolveOp::AffConst(2.0));
        prog.ops.insert(2, SolveOp::AffMul(n_ctx));
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("context index"), "got: {err}");

        // Variable reference past the table width, in a value program.
        let mut tables = torture_net().compile();
        let n_vars = tables.base_rates.len();
        let eff = tables
            .trans
            .iter_mut()
            .flatten()
            .find_map(|ct| ct.effects.first_mut())
            .expect("torture net has an effect");
        eff.prog.ops.insert(0, EvalOp::Var(VarId(n_vars)));
        eff.prog.ops.insert(1, EvalOp::Bin(BinOp::Add));
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("out of bounds"), "got: {err}");
        assert!(err.program.contains("effect"), "got: {err}");
    }

    #[test]
    fn verifier_rejects_wrong_final_depth_in_value_program() {
        let mut tables = torture_net().compile();
        let flow = tables.flows.first_mut().expect("torture net has a flow");
        flow.prog.ops.push(EvalOp::Const(Value::Int(0)));
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("ends with"), "got: {err}");
        assert!(err.program.contains("flow"), "got: {err}");
    }

    #[test]
    fn profile_op_names_are_unique_and_dense() {
        let mut seen = std::collections::HashSet::new();
        for name in PROFILE_OP_NAMES {
            assert!(seen.insert(name), "duplicate opcode name {name}");
        }
        assert_eq!(PROFILE_OP_NAMES.len(), N_EVAL_STRUCT_OPS + N_BIN_OPS + N_SOLVE_OPS);
        assert_eq!(eval_op_index(&EvalOp::Bin(BinOp::Ge)), SOLVE_OP_BASE - 1);
        assert_eq!(solve_op_index(&SolveOp::AffJump(0)), PROFILE_OP_NAMES.len() - 1);
        assert_eq!(PROFILE_OP_NAMES[solve_op_index(&SolveOp::AffVar(VarId(0)))], "solve.aff_var");
        assert_eq!(
            PROFILE_OP_NAMES[eval_op_index(&EvalOp::VarSelConst {
                v: VarId(0),
                t: Value::Int(1),
                e: Value::Int(0)
            })],
            "eval.var_sel_const"
        );
    }

    #[test]
    fn profile_shape_and_labels_align() {
        let net = torture_net();
        let shape = profile_shape(&net);
        let labels = profile_labels(&net);
        assert_eq!(shape.n_ops, PROFILE_OP_NAMES.len());
        assert_eq!(labels.op_names.len(), shape.n_ops);
        assert_eq!(labels.transitions.len(), shape.n_trans());
        assert_eq!(labels.locations.len(), shape.n_locs());
        let total: usize = net.automata().iter().map(|a| a.transitions.len()).sum();
        assert_eq!(shape.n_trans(), total);
    }

    /// The profiled kernel is count-deterministic and the profiled step
    /// sequence leaves the state exactly where the unprofiled one does.
    #[test]
    fn profiled_walk_is_deterministic_and_state_identical() {
        use slim_obs::profile::KernelProfile;

        let net = torture_net();
        let tables = net.compile();

        let run_walk = |prof: &mut KernelProfile| {
            let mut s = StepScratch::new();
            let mut seed = 0x0bad_cafe_u64;
            let mut st = net.initial_state().unwrap();
            let mut window = IntervalSet::empty();
            for _ in 0..200 {
                net.rates_refresh(&tables, &mut s, &st);
                if net.delay_window_rated_prof(&tables, &mut s, &st, &mut window, prof).is_err() {
                    break;
                }
                net.guarded_candidates_rated_prof(&tables, &mut s, &st, prof).unwrap();
                let n = s.candidates().len();
                if n == 0 {
                    break;
                }
                let pick = lcg(&mut seed) as usize % n;
                let cand = &s.candidates()[pick];
                let joint = cand.window.intersect(&window);
                let Some(d) = joint.earliest_point() else { continue };
                let parts: Vec<_> = cand.parts.clone();
                if net.advance_rated_prof(&tables, &mut s, &mut st, d, &window, prof).is_err() {
                    break;
                }
                if net.apply_mut_prof(&tables, &mut s, &mut st, &parts, prof).is_err() {
                    break;
                }
            }
            st
        };

        let shape = profile_shape(&net);
        let mut p1 = KernelProfile::new(shape.clone());
        let st1 = run_walk(&mut p1);
        let mut p2 = KernelProfile::new(shape);
        let st2 = run_walk(&mut p2);

        assert_eq!(st1, st2, "profiled walk must be deterministic");
        assert!(p1.total_ops() > 0, "walk executed bytecode");
        assert!(p1.delay_solve_count() > 0, "walk solved delay windows");
        assert_eq!(p1.op_counts(), p2.op_counts());
        assert_eq!(p1.digram_counts(), p2.digram_counts());
        let fired: u64 = (0..p1.shape().n_trans()).map(|i| p1.fired_count(i)).sum();
        assert!(fired > 0, "walk fired transitions");
        let (evals, truth): (u64, u64) = (0..p1.shape().n_trans())
            .map(|i| p1.guard_counts(i))
            .fold((0, 0), |(e, t), (ge, gt)| (e + ge, t + gt));
        assert!(evals >= truth && evals > 0, "guard eval counts recorded");
    }

    fn collect_solve(t: &StepTables) -> Vec<&SolveProg> {
        fn push<'a>(out: &mut Vec<&'a SolveProg>, code: &'a GuardCode) {
            if let GuardCode::Prog(p) | GuardCode::DelayFree(p) = code {
                out.push(p);
            }
        }
        let mut out = Vec::new();
        for cg in t.tau.iter().flatten().flatten() {
            push(&mut out, &cg.guard);
        }
        for table in &t.sync {
            for cg in table.parts.iter().flat_map(|p| p.by_loc.iter().flatten()) {
                push(&mut out, &cg.guard);
            }
        }
        for inv in t.invariants.iter().flatten().flatten() {
            push(&mut out, inv);
        }
        out
    }

    fn collect_eval(t: &StepTables) -> Vec<&EvalProg> {
        let mut out: Vec<&EvalProg> = t
            .trans
            .iter()
            .flatten()
            .flat_map(|ct| ct.effects.iter().map(|eff| &eff.prog))
            .collect();
        out.extend(t.flows.iter().map(|f| &f.prog));
        out
    }

    /// A network whose guards and effects take every whole-program shape,
    /// delay-free and timed alike.
    fn shapes_net() -> Network {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let b = net.var("b", VarType::Bool, Value::Bool(false));
        let n = net.var("n", VarType::Int { lo: 0, hi: 6 }, Value::Int(0));
        let k = net.var("k", VarType::Int { lo: 0, hi: 6 }, Value::Int(0));
        let m = net.var("m", VarType::Int { lo: 0, hi: 6 }, Value::Int(0));
        let r = net.var("r", VarType::Real, Value::Real(0.0));
        net.flow(m, Expr::var(n));
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location_with("l0", Expr::var(c).le(Expr::real(5.0)), []);
        a.guarded(l0, ActionId::TAU, Expr::var(b), [Effect::assign(b, Expr::FALSE)], l0);
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(b).not(),
            [
                Effect::assign(b, Expr::TRUE),
                Effect::assign(n, Expr::var(n).add(Expr::int(1)).min(Expr::int(6))),
            ],
            l0,
        );
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(n).ge(Expr::int(2)),
            [Effect::assign(n, Expr::var(n).sub(Expr::int(2)))],
            l0,
        );
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(c).ge(Expr::real(1.0)).and(Expr::var(c).le(Expr::real(4.0))),
            [
                Effect::assign(c, Expr::real(0.0)),
                Effect::assign(r, Expr::ite(Expr::var(b), Expr::real(2.0), Expr::real(5.0))),
            ],
            l0,
        );
        a.guarded(
            l0,
            ActionId::TAU,
            Expr::var(n).ge(Expr::int(1)).and(Expr::var(n).le(Expr::int(4))),
            [Effect::assign(k, Expr::var(n))],
            l0,
        );
        a.guarded(l0, ActionId::TAU, Expr::var(c).ge(Expr::real(3.0)), [], l0);
        net.add_automaton(a);
        net.build().expect("shapes net validates")
    }

    /// `tables` with every whole-program shape forgotten, so every
    /// guard, effect and flow runs on the interpreters.
    fn without_specs(mut tables: StepTables) -> StepTables {
        let strip = |code: &mut GuardCode| {
            if let GuardCode::Prog(p) | GuardCode::DelayFree(p) = code {
                p.spec = None;
            }
        };
        for cg in tables.tau.iter_mut().flatten().flatten() {
            strip(&mut cg.guard);
        }
        for part in tables.sync.iter_mut().flat_map(|t| &mut t.parts) {
            for cg in part.by_loc.iter_mut().flatten() {
                strip(&mut cg.guard);
            }
        }
        for inv in tables.invariants.iter_mut().flatten().flatten() {
            strip(inv);
        }
        for eff in tables.trans.iter_mut().flatten().flat_map(|ct| &mut ct.effects) {
            eff.prog.spec = None;
        }
        for f in &mut tables.flows {
            f.prog.spec = None;
        }
        tables
    }

    /// The whole-program recognizers fire on the plain programs of the
    /// shapes the zoo models use, timed and delay-free alike, and the two
    /// commonest conditionals compile to one op each.
    #[test]
    fn specialization_recognizes_plain_shapes() {
        for net in [torture_net(), shapes_net()] {
            let tables = net.compile();
            let eval = collect_eval(&tables);
            assert!(
                eval.iter().any(|p| matches!(&p.spec, Some(EvalSpec::VarConstBinConst(..)))),
                "(n + 1) min k should specialize to VarConstBinConst"
            );
            assert!(
                eval.iter().any(|p| matches!(p.ops[..], [EvalOp::VarSelConst { .. }])),
                "a Boolean select over constants should compile to one op"
            );
        }
        let tables = shapes_net().compile();
        let codes: Vec<&GuardCode> = tables.tau[0][0].iter().map(|cg| &cg.guard).collect();
        let spec = |code: &GuardCode| match code {
            GuardCode::Prog(p) | GuardCode::DelayFree(p) => p.spec.clone(),
            _ => None,
        };
        assert!(matches!(codes[0], GuardCode::DelayFree(_)));
        assert!(matches!(spec(codes[0]), Some(GuardSpec::BoolVar(_))));
        assert!(matches!(spec(codes[1]), Some(GuardSpec::BoolVarNot(_))));
        assert!(matches!(codes[2], GuardCode::DelayFree(_)));
        assert!(matches!(spec(codes[2]), Some(GuardSpec::CmpVarConst(BinOp::Ge, ..))));
        assert!(matches!(codes[3], GuardCode::Prog(_)));
        assert!(matches!(spec(codes[3]), Some(GuardSpec::Conj(atoms)) if atoms.len() == 2));
        assert!(matches!(codes[4], GuardCode::DelayFree(_)));
        assert!(matches!(spec(codes[4]), Some(GuardSpec::Conj(atoms)) if atoms.len() == 2));
        assert!(matches!(codes[5], GuardCode::Prog(_)));
        assert!(matches!(spec(codes[5]), Some(GuardSpec::CmpVarConst(..))));
        assert!(matches!(
            tables.invariants[0][0].as_ref().and_then(spec),
            Some(GuardSpec::CmpVarConst(BinOp::Le, ..))
        ));
        let eval = collect_eval(&tables);
        assert!(eval.iter().any(|p| matches!(p.spec, Some(EvalSpec::Const(_)))));
        assert!(eval.iter().any(|p| matches!(p.spec, Some(EvalSpec::Var(_)))));
        assert!(eval.iter().any(|p| matches!(p.spec, Some(EvalSpec::VarConstBin(..)))));
        // A three-atom conjunction in either association is one shape;
        // a mirrored `k op x` atom is not.
        let (x, y) = (Expr::var(VarId(2)), Expr::var(VarId(3)));
        let atom = |e: &Expr, k: i64| e.clone().ge(Expr::int(k));
        for (g, want) in [
            (atom(&x, 1).and(atom(&y, 2)).and(atom(&x, 3)), true),
            (atom(&x, 1).and(atom(&y, 2).and(atom(&x, 3))), true),
            (atom(&x, 1).and(Expr::int(2).le(y.clone())), false),
            (atom(&x, 1).or(atom(&y, 2)), false),
        ] {
            let GuardCode::Prog(p) = compile_guard(&g, &shapes_net(), true) else {
                panic!("{g} did not compile to a program")
            };
            assert_eq!(matches!(p.spec, Some(GuardSpec::Conj(_))), want, "{g}");
        }
        let header = Expr::ite(x.ge(Expr::int(2)), Expr::int(1), Expr::int(0));
        let prog = compile_prog(&header, true);
        assert!(matches!(prog.ops[0], EvalOp::VarCmpConstJumpFalse { .. }), "{:?}", prog.ops);
        assert!(prog.spec.is_none());
    }

    /// `CompileOptions::reference()` must produce the maximally plain
    /// kernel: no whole-program shapes, no flow masking — the fixed
    /// point the kernel-equivalence oracle diffs against.
    #[test]
    fn reference_compile_disables_spec_and_masks() {
        let net = torture_net();
        let t = net.compile_with(&CompileOptions::reference());
        for p in collect_solve(&t) {
            assert!(p.spec.is_none(), "reference solve program carries a spec");
        }
        for p in collect_eval(&t) {
            assert!(p.spec.is_none(), "reference eval program carries a spec");
        }
        assert_eq!(t.advance_flow_mask, u64::MAX);
        for ct in t.trans.iter().flatten() {
            assert_eq!(ct.flow_mask, u64::MAX);
        }
        // The optimized tables, by contrast, do mask.
        let optimized = net.compile();
        assert_ne!(optimized.advance_flow_mask, u64::MAX);
    }

    /// Walks `net` on `tables` for up to 200 seeded steps, reporting to
    /// `prof`; returns the final state.
    fn walk<P: ProfileHooks>(net: &Network, tables: &StepTables, prof: &mut P) -> NetState {
        let mut s = StepScratch::new();
        let mut seed = 0x5bec_14e5_u64;
        let mut st = net.initial_state().unwrap();
        let mut window = IntervalSet::empty();
        for _ in 0..200 {
            net.rates_refresh(tables, &mut s, &st);
            if net.delay_window_rated_prof(tables, &mut s, &st, &mut window, prof).is_err() {
                break;
            }
            net.guarded_candidates_rated_prof(tables, &mut s, &st, prof).unwrap();
            let n = s.candidates().len();
            if n == 0 {
                break;
            }
            let pick = lcg(&mut seed) as usize % n;
            let cand = &s.candidates()[pick];
            let joint = cand.window.intersect(&window);
            let Some(d) = joint.earliest_point() else { continue };
            let parts: Vec<_> = cand.parts.clone();
            if net.advance_rated_prof(tables, &mut s, &mut st, d, &window, prof).is_err() {
                break;
            }
            if net.apply_mut_prof(tables, &mut s, &mut st, &parts, prof).is_err() {
                break;
            }
        }
        st
    }

    /// The whole-program shortcuts land in exactly the states that
    /// executing the same programs op by op reaches.
    #[test]
    fn spec_shortcut_matches_program_execution() {
        for net in [torture_net(), shapes_net()] {
            let tables = net.compile();
            let plain = without_specs(tables.clone());
            let st_spec = walk(&net, &tables, &mut NoopProfile);
            let st_prog = walk(&net, &plain, &mut NoopProfile);
            assert_eq!(st_spec, st_prog, "spec shortcut diverged from program execution");
            assert!(st_spec.time > 0.0, "the walk went nowhere");
        }
    }

    /// Records the opcode stream the kernel reports, program by program.
    #[derive(Default)]
    struct OpLog(Vec<Vec<usize>>);

    impl ProfileHooks for OpLog {
        const ENABLED: bool = true;
        fn eval_begin(&mut self) {
            self.0.push(Vec::new());
        }
        fn eval_op(&mut self, op: usize) {
            self.0.last_mut().expect("eval_begin comes first").push(op);
        }
    }

    /// Under profiling a shortcut evaluation reports exactly the op
    /// sequence its program executes, so the profiled kernel is the
    /// production kernel and its counts are those of the plain programs.
    #[test]
    fn shortcut_under_profiling_reports_its_programs_ops() {
        use slim_obs::profile::KernelProfile;

        for net in [torture_net(), shapes_net()] {
            let tables = net.compile();
            let plain = without_specs(tables.clone());
            let (mut spec_log, mut prog_log) = (OpLog::default(), OpLog::default());
            walk(&net, &tables, &mut spec_log);
            walk(&net, &plain, &mut prog_log);
            assert!(spec_log.0.len() > 10, "the walk ran programs");
            assert_eq!(spec_log.0, prog_log.0, "reported op streams differ");

            let (mut spec_prof, mut prog_prof) =
                (KernelProfile::new(profile_shape(&net)), KernelProfile::new(profile_shape(&net)));
            walk(&net, &tables, &mut spec_prof);
            walk(&net, &plain, &mut prog_prof);
            assert_eq!(spec_prof.op_counts(), prog_prof.op_counts());
            assert_eq!(spec_prof.digram_counts(), prog_prof.digram_counts());
        }
    }

    /// Write-set masks cover exactly the flows a transition's effects (or
    /// the rated variables, for delay advancement) can reach.
    #[test]
    fn flow_masks_track_write_sets() {
        let net = torture_net();
        let t = net.compile();
        assert_eq!(t.flows.len(), 1, "torture net has the one flow r := n + 1");
        // The flow reads `n`, which never carries a rate: delay
        // advancement can always skip re-establishing it.
        assert_eq!(t.advance_flow_mask, 0);
        let (mut hit, mut miss) = (false, false);
        for (p, by_proc) in t.trans.iter().enumerate() {
            for (i, ct) in by_proc.iter().enumerate() {
                let writes_n = net.automata()[p].transitions[i]
                    .effects
                    .iter()
                    .any(|e| net.name_of(e.var) == "n");
                if writes_n {
                    assert_eq!(ct.flow_mask, 1, "writer of n must re-run the flow");
                    hit = true;
                } else {
                    assert_eq!(ct.flow_mask, 0, "non-writer of n must skip the flow");
                    miss = true;
                }
            }
        }
        assert!(hit && miss, "torture net has both kinds of transition");
    }

    /// The verifier's stack-effect tables cover the two compound ops:
    /// corrupted programs are rejected, well-formed ones pass.
    #[test]
    fn corrupted_fused_programs_are_rejected() {
        let ep = |ops: Vec<EvalOp>| EvalProg { ops, spec: None };
        let select =
            |v: usize| EvalOp::VarSelConst { v: VarId(v), t: Value::Int(1), e: Value::Int(0) };
        assert!(verify_eval(&ep(vec![select(9)]), 2).is_err());
        // The compare-and-branch may not jump past the end.
        let bad_jump = vec![
            EvalOp::VarCmpConstJumpFalse { op: BinOp::Ge, v: VarId(0), k: Value::Int(1), skip: 3 },
            EvalOp::Const(Value::Int(1)),
        ];
        let (_, reason) = verify_eval(&ep(bad_jump), 2).unwrap_err();
        assert!(reason.contains("out of bounds"), "got: {reason}");
        assert!(verify_eval(&ep(vec![select(0)]), 2).is_ok());

        // End to end: a tampered flow program fails table verification.
        let mut tables = torture_net().compile();
        let flow = tables.flows.first_mut().expect("torture net has a flow");
        flow.prog.ops = vec![select(99)];
        let err = tables.verify_bytecode().unwrap_err();
        assert!(err.reason.contains("out of bounds"), "got: {err}");
    }

    // ---- incremental enabledness ----

    /// Records every guard evaluation and flow re-run the kernel reports.
    #[derive(Default)]
    struct Evals(Vec<(usize, usize)>, Vec<usize>);

    impl ProfileHooks for Evals {
        const ENABLED: bool = false;
        fn guard_eval(&mut self, proc: usize, trans: usize, _enabled: bool) {
            self.0.push((proc, trans));
        }
        fn flow_eval(&mut self, flow: usize) {
            self.1.push(flow);
        }
    }

    fn same_cands(reference: &[CandidateBuf], cached: &[CandidateBuf]) {
        assert_eq!(reference.len(), cached.len(), "candidate count");
        for (r, c) in reference.iter().zip(cached) {
            assert_eq!((r.action, &r.parts, r.urgent), (c.action, &c.parts, c.urgent));
            assert_eq!(r.window, c.window);
        }
    }

    /// Drives the engine's incremental stepping sequence on the default
    /// tables and the plain uncached API on the reference tables in
    /// lockstep along seeded pseudo-random walks, requiring identical
    /// delay windows, candidates (order included), Markovian lists and
    /// successor states at every step. `boundary` makes some steps pure
    /// delays to the very end of the invariant window, provoking the
    /// boundary-overshoot retreat; `between` runs after every step on the
    /// cached side's scratch. Returns how many steps fired a transition.
    fn lockstep(
        net: &Network,
        boundary: bool,
        mut between: impl FnMut(&StepTables, &mut StepScratch),
    ) -> usize {
        let fast = net.compile();
        let reference = net.compile_with(&CompileOptions::reference());
        let mut s = StepScratch::new();
        let mut r = StepScratch::new();
        let (mut window, mut window_r) = (IntervalSet::empty(), IntervalSet::empty());
        let mut seed = 0x1dea_5eed_u64;
        let mut fired = 0;
        for _path in 0..12 {
            let mut st = net.initial_state().unwrap();
            let mut st_r = st.clone();
            net.stepping_begin(&fast, &mut s, &st);
            for _ in 0..40 {
                assert_eq!(format!("{st:?}"), format!("{st_r:?}"), "states diverged");
                net.stepping_refresh(&fast, &mut s, &st);
                let w =
                    net.delay_window_rated_prof(&fast, &mut s, &st, &mut window, &mut NoopProfile);
                let w_r = net.delay_window_into(&reference, &mut r, &st_r, &mut window_r);
                assert_eq!(w, w_r);
                if w.is_err() {
                    break;
                }
                assert_eq!(window, window_r, "delay windows diverged");
                net.guarded_candidates_rated_prof(&fast, &mut s, &st, &mut NoopProfile).unwrap();
                net.guarded_candidates_into(&reference, &mut r, &st_r).unwrap();
                same_cands(r.candidates(), s.candidates());
                net.markovian_candidates_rated(&fast, &mut s, &st);
                net.markovian_candidates_into(&reference, &mut r, &st_r);
                assert_eq!(r.markovian(), s.markovian(), "Markovian lists diverged");

                let pick = lcg(&mut seed) as usize;
                let sup = window.sup().unwrap_or(0.0);
                if boundary && pick.is_multiple_of(2) && sup.is_finite() && sup > 0.0 {
                    let a = net.advance_rated_prof(
                        &fast,
                        &mut s,
                        &mut st,
                        sup,
                        &window,
                        &mut NoopProfile,
                    );
                    let a_r = net.advance_mut(&reference, &mut r, &mut st_r, sup, &window_r);
                    assert_eq!(a, a_r);
                    if a.is_err() {
                        break;
                    }
                    between(&fast, &mut s);
                    continue;
                }
                let cands = s.candidates();
                let guarded = cands
                    .iter()
                    .cycle()
                    .skip(pick % cands.len().max(1))
                    .take(cands.len())
                    .find(|c| !c.window.intersect(&window).is_empty());
                let (d, parts) = if let Some(c) = guarded.filter(|_| !pick.is_multiple_of(3)) {
                    let joint = c.window.intersect(&window);
                    (joint.earliest_point().unwrap(), c.parts.clone())
                } else if !s.markovian().is_empty() {
                    let d = match sup.is_finite() {
                        true => sup * (lcg(&mut seed) % 100) as f64 / 100.0,
                        false => (lcg(&mut seed) % 300) as f64 / 100.0,
                    };
                    let (p, t, _) = s.markovian()[pick % s.markovian().len()];
                    (d, vec![(p, t)])
                } else {
                    break;
                };
                if d > 0.0 {
                    let a = net.advance_rated_prof(
                        &fast,
                        &mut s,
                        &mut st,
                        d,
                        &window,
                        &mut NoopProfile,
                    );
                    let a_r = net.advance_mut(&reference, &mut r, &mut st_r, d, &window_r);
                    assert_eq!(a, a_r);
                    if a.is_err() {
                        break;
                    }
                }
                let a = net.apply_mut_prof(&fast, &mut s, &mut st, &parts, &mut NoopProfile);
                let a_r = net.apply_mut(&reference, &mut r, &mut st_r, &parts);
                assert_eq!(a, a_r);
                if a.is_err() {
                    break;
                }
                fired += 1;
                between(&fast, &mut s);
            }
        }
        fired
    }

    /// `late := c >= 2.0`: a flow over a clock flips a Boolean that a
    /// delay-free guard reads, with no firing in between — only the
    /// flow re-run inside `advance` can evict the guard's cached truth.
    fn delay_flow_net() -> Network {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let late = net.var("late", VarType::Bool, Value::Bool(false));
        let n = net.var("n", VarType::Int { lo: 0, hi: 3 }, Value::Int(0));
        net.flow(late, Expr::var(c).ge(Expr::real(2.0)));
        let mut a = AutomatonBuilder::new("tick");
        let up = a.location("up");
        a.markovian(
            up,
            1.5,
            [Effect::assign(n, Expr::var(n).add(Expr::int(1)).min(Expr::int(3)))],
            up,
        );
        net.add_automaton(a);
        let mut w = AutomatonBuilder::new("watch");
        let idle = w.location("idle");
        let seen = w.location("seen");
        w.guarded(idle, ActionId::TAU, Expr::var(late), [Effect::assign(c, Expr::real(0.0))], seen);
        w.guarded(
            seen,
            ActionId::TAU,
            Expr::var(late).not().and(Expr::var(n).ge(Expr::int(2))),
            [],
            idle,
        );
        net.add_automaton(w);
        net.build().unwrap()
    }

    #[test]
    fn delay_driven_flow_evicts_in_advance() {
        let net = delay_flow_net();
        let t = net.compile();
        let mut s = StepScratch::new();
        let mut st = net.initial_state().unwrap();
        net.stepping_begin(&t, &mut s, &st);
        net.guarded_candidates_rated_prof(&t, &mut s, &st, &mut NoopProfile).unwrap();
        assert!(s.candidates().is_empty(), "`late` is false at time 0");
        let mut window = IntervalSet::empty();
        net.delay_window_rated_prof(&t, &mut s, &st, &mut window, &mut NoopProfile).unwrap();
        net.advance_rated_prof(&t, &mut s, &mut st, 2.5, &window, &mut NoopProfile).unwrap();
        let mut evals = Evals::default();
        net.guarded_candidates_rated_prof(&t, &mut s, &st, &mut evals).unwrap();
        assert_eq!(evals.0, vec![(1, 0)], "the flip re-evaluates exactly the `late` guard");
        assert_eq!(s.candidates().len(), 1, "the advance's flow flip must show");
        assert!(lockstep(&net, false, |_, _| {}) > 0);
    }

    /// A flow that re-runs but rewrites the value it already holds
    /// evicts nothing; the variable its trigger changed does.
    #[test]
    fn flow_rewriting_same_value_evicts_nothing() {
        let mut net = NetworkBuilder::new();
        let x = net.var("x", VarType::Int { lo: 0, hi: 10 }, Value::Int(0));
        let y = net.var("y", VarType::Bool, Value::Bool(false));
        net.flow(y, Expr::var(x).gt(Expr::int(5)));
        let mut a = AutomatonBuilder::new("w");
        let l0 = a.location("l0");
        a.markovian(
            l0,
            1.0,
            [Effect::assign(x, Expr::var(x).add(Expr::int(1)).min(Expr::int(3)))],
            l0,
        );
        net.add_automaton(a);
        let mut m = AutomatonBuilder::new("m");
        let m0 = m.location("m0");
        let m1 = m.location("m1");
        m.guarded(m0, ActionId::TAU, Expr::var(y), [], m1);
        m.guarded(m0, ActionId::TAU, Expr::var(x).ge(Expr::int(2)), [], m1);
        net.add_automaton(m);
        let net = net.build().unwrap();

        let t = net.compile();
        let mut s = StepScratch::new();
        let mut st = net.initial_state().unwrap();
        net.stepping_begin(&t, &mut s, &st);
        let mut evals = Evals::default();
        net.guarded_candidates_rated_prof(&t, &mut s, &st, &mut evals).unwrap();
        assert_eq!(evals.0, vec![(1, 0), (1, 1)]);
        net.apply_mut_prof(&t, &mut s, &mut st, &[(ProcId(0), TransId(0))], &mut NoopProfile)
            .unwrap();
        let mut evals = Evals::default();
        net.guarded_candidates_rated_prof(&t, &mut s, &st, &mut evals).unwrap();
        assert_eq!(evals.0, vec![(1, 1)], "only the reader of the changed `x` re-evaluates");
        // Nothing changes at all: x saturates at 3, so no guard re-runs.
        for _ in 0..4 {
            net.apply_mut_prof(&t, &mut s, &mut st, &[(ProcId(0), TransId(0))], &mut NoopProfile)
                .unwrap();
        }
        net.guarded_candidates_rated_prof(&t, &mut s, &st, &mut evals).unwrap();
        let mut evals = Evals::default();
        net.apply_mut_prof(&t, &mut s, &mut st, &[(ProcId(0), TransId(0))], &mut NoopProfile)
            .unwrap();
        net.guarded_candidates_rated_prof(&t, &mut s, &st, &mut evals).unwrap();
        assert!(evals.0.is_empty(), "a rewrite of the held value evicted {:?}", evals.0);
        assert!(lockstep(&net, false, |_, _| {}) > 0);
    }

    /// An invariant whose boundary the advance overshoots by one ulp
    /// (`0.08 + 3·(0.92/3) > 1`), with flows over the rated variable that
    /// differ between the overshooting attempt and the retreat.
    #[test]
    fn boundary_overshoot_retreat_stays_exact() {
        let mut net = NetworkBuilder::new();
        let x = net.var("x", VarType::Continuous, Value::Real(0.08));
        let over = net.var("over", VarType::Bool, Value::Bool(false));
        let high = net.var("high", VarType::Bool, Value::Bool(false));
        net.flow(over, Expr::var(x).gt(Expr::real(1.0)));
        net.flow(high, Expr::var(x).ge(Expr::real(0.99)));
        let mut a = AutomatonBuilder::new("tank");
        let fill = a.location_with("fill", Expr::var(x).le(Expr::real(1.0)), [(x, 3.0)]);
        let drain = a.location("drain");
        a.guarded(fill, ActionId::TAU, Expr::var(high), [], drain);
        a.markovian(drain, 2.0, [Effect::assign(x, Expr::real(0.08))], fill);
        net.add_automaton(a);
        let mut w = AutomatonBuilder::new("watch");
        let w0 = w.location("w0");
        let w1 = w.location("w1");
        w.guarded(w0, ActionId::TAU, Expr::var(over), [], w1);
        w.guarded(w0, ActionId::TAU, Expr::var(high), [], w0);
        w.guarded(w1, ActionId::TAU, Expr::var(over).not(), [], w0);
        net.add_automaton(w);
        let net = net.build().unwrap();

        // The scenario really retreats: the full delay overshoots.
        let st = net.initial_state().unwrap();
        let w = net.delay_window(&st).unwrap();
        let d = w.sup().unwrap();
        assert!(0.08 + 3.0 * d > 1.0, "no overshoot to retreat from");
        assert!(lockstep(&net, true, |_, _| {}) > 0);
    }

    /// Delay-free guards on an action-labelled sync, read by both
    /// participants and changed by a third process's Markovian effect.
    #[test]
    fn sync_guards_cache_exactly() {
        let mut net = NetworkBuilder::new();
        let k = net.var("k", VarType::Int { lo: 0, hi: 4 }, Value::Int(0));
        let open = net.var("open", VarType::Bool, Value::Bool(true));
        let go = net.action("go");
        let mut src = AutomatonBuilder::new("src");
        let s0 = src.location("s0");
        src.markovian(
            s0,
            2.0,
            [Effect::assign(k, Expr::var(k).add(Expr::int(1)).min(Expr::int(4)))],
            s0,
        );
        src.markovian(s0, 0.5, [Effect::assign(open, Expr::var(open).not())], s0);
        net.add_automaton(src);
        let mut a = AutomatonBuilder::new("a");
        let a0 = a.location("a0");
        let a1 = a.location("a1");
        a.guarded(a0, go, Expr::var(k).ge(Expr::int(2)), [], a1);
        a.guarded(a0, go, Expr::var(open), [], a0);
        a.guarded(a1, go, Expr::TRUE, [Effect::assign(k, Expr::int(0))], a0);
        net.add_automaton(a);
        let mut b = AutomatonBuilder::new("b");
        let b0 = b.location("b0");
        b.guarded(b0, go, Expr::var(open).and(Expr::var(k).le(Expr::int(3))), [], b0);
        b.guarded(b0, go, Expr::var(k).eq(Expr::int(4)), [], b0);
        net.add_automaton(b);
        let net = net.build().unwrap();
        assert!(lockstep(&net, false, |_, _| {}) > 0);
        assert!(lockstep(&torture_net(), false, |_, _| {}) > 0);
    }

    /// Plain entry points on the same scratch — the CTMC explorer's
    /// `guarded_candidates_into`/`apply_mut`/`markovian_candidates_into`
    /// on unrelated states — end the sequence instead of reading (or
    /// polluting) its cache, and the sequence stays exact after them.
    #[test]
    fn plain_calls_interleaved_with_stepping_stay_exact() {
        for net in [torture_net(), delay_flow_net()] {
            let other = {
                let mut st = net.initial_state().unwrap();
                st.nu.set(VarId(0), Value::Real(3.5)).unwrap();
                st
            };
            let mut calls = 0;
            lockstep(&net, false, |t, s| {
                calls += 1;
                let mut x = other.clone();
                match calls % 3 {
                    0 => net.guarded_candidates_into(t, s, &x).unwrap(),
                    1 => net.markovian_candidates_into(t, s, &x),
                    _ => {
                        net.guarded_candidates_into(t, s, &x).unwrap();
                        if let Some(c) = s.candidates().first() {
                            let parts = c.parts.clone();
                            let _ = net.apply_mut(t, s, &mut x, &parts);
                        }
                    }
                }
                assert!(!s.cache.active, "a plain call left the sequence running");
            });
            assert!(calls > 0);
        }
    }

    #[test]
    fn reference_tables_never_cache() {
        let net = torture_net();
        let t = net.compile_with(&CompileOptions::reference());
        let mut s = StepScratch::new();
        let st = net.initial_state().unwrap();
        net.stepping_begin(&t, &mut s, &st);
        assert!(!s.cache.active);
        let mut first = Evals::default();
        net.guarded_candidates_rated_prof(&t, &mut s, &st, &mut first).unwrap();
        let mut second = Evals::default();
        net.guarded_candidates_rated_prof(&t, &mut s, &st, &mut second).unwrap();
        assert_eq!(first.0, second.0, "reference evaluates every guard every time");
    }

    /// A clock compared in the tail of a conjunction (`x >= 0 && c >= 2`,
    /// fused to `CmpVarConst; CmpVarConstAnd`) keeps its delay window: the
    /// fused tail's variable counts when classifying delay-free guards.
    #[test]
    fn clock_in_fused_conjunction_tail_is_not_delay_free() {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let x = net.var("x", VarType::Int { lo: 0, hi: 5 }, Value::Int(1));
        let mut a = AutomatonBuilder::new("a");
        let l0 = a.location("l0");
        let guard = Expr::var(x).ge(Expr::int(0)).and(Expr::var(c).ge(Expr::real(2.0)));
        a.guarded(l0, ActionId::TAU, guard, [], l0);
        net.add_automaton(a);
        let net = net.build().unwrap();
        let st = net.initial_state().unwrap();
        let t = net.compile();
        assert!(matches!(t.tau[0][0][0].guard, GuardCode::Prog(_)));
        let mut s = StepScratch::new();
        net.guarded_candidates_into(&t, &mut s, &st).unwrap();
        assert_cands_eq(&net.guarded_candidates(&st).unwrap(), s.candidates());
    }

    #[test]
    fn readers_index_lists_each_delay_free_reader_once() {
        let net = delay_flow_net();
        let t = net.compile();
        let readers =
            |v: usize| &t.guard_readers[t.reader_at[v] as usize..t.reader_at[v + 1] as usize];
        // c (clock) has no delay-free readers; `late` is read by both
        // watch guards, `n` by the second.
        assert!(readers(0).is_empty());
        assert_eq!(readers(1), &[0, 1]);
        assert_eq!(readers(2), &[1]);
        assert_eq!(t.n_guard_slots, 2);
    }

    /// A scratch reused from a rated network must not hand its rates to a
    /// rate-free network with as many variables.
    #[test]
    fn reused_scratch_does_not_leak_rates_into_rate_free_model() {
        let mut rated = NetworkBuilder::new();
        let x = rated.var("x", VarType::Continuous, Value::Real(0.0));
        rated.var("y", VarType::Bool, Value::Bool(false));
        let mut a = AutomatonBuilder::new("a");
        a.location_with("l", Expr::TRUE, [(x, 3.0)]);
        rated.add_automaton(a);
        let rated = rated.build().unwrap();
        let mut free = NetworkBuilder::new();
        let k = free.var("k", VarType::Int { lo: 0, hi: 4 }, Value::Int(0));
        free.var("z", VarType::Bool, Value::Bool(false));
        let mut b = AutomatonBuilder::new("b");
        let m = b.location("m");
        b.markovian(m, 1.0, [Effect::assign(k, Expr::int(1))], m);
        free.add_automaton(b);
        let free = free.build().unwrap();

        let mut s = StepScratch::new();
        let mut w = IntervalSet::empty();
        let t_rated = rated.compile();
        rated.delay_window_into(&t_rated, &mut s, &rated.initial_state().unwrap(), &mut w).unwrap();
        let t_free = free.compile();
        let init = free.initial_state().unwrap();
        for begin in [false, true] {
            let mut st = init.clone();
            if begin {
                rated.stepping_begin(&t_rated, &mut s, &rated.initial_state().unwrap());
                free.stepping_begin(&t_free, &mut s, &st);
                free.advance_rated_prof(
                    &t_free,
                    &mut s,
                    &mut st,
                    1.0,
                    &IntervalSet::all(),
                    &mut NoopProfile,
                )
                .unwrap();
            } else {
                free.advance_mut(&t_free, &mut s, &mut st, 1.0, &IntervalSet::all()).unwrap();
            }
            assert_eq!(st, free.advance(&init, 1.0).unwrap(), "stale rates moved `k`");
            rated
                .delay_window_into(&t_rated, &mut s, &rated.initial_state().unwrap(), &mut w)
                .unwrap();
        }
    }

    /// Fires transition `tr` of process `p` inside the running sequence,
    /// returning the flows it re-ran.
    fn fire(
        net: &Network,
        t: &StepTables,
        s: &mut StepScratch,
        st: &mut NetState,
        p: usize,
        tr: usize,
    ) -> Vec<usize> {
        let mut evals = Evals::default();
        net.apply_mut_prof(t, s, st, &[(ProcId(p), TransId(tr))], &mut evals).unwrap();
        evals.1
    }

    /// The guards the candidate scan evaluates in `st`.
    fn scanned(
        net: &Network,
        t: &StepTables,
        s: &mut StepScratch,
        st: &NetState,
    ) -> Vec<(usize, usize)> {
        let mut evals = Evals::default();
        net.guarded_candidates_rated_prof(t, s, st, &mut evals).unwrap();
        evals.0
    }

    /// A location with 70 τ guards whose slots start mid-word (after a
    /// 30-guard process) spans two bitset words and crosses the boundary
    /// at slot 64: the scan must keep candidate order across it.
    #[test]
    fn tau_scan_across_bitset_words_keeps_candidate_order() {
        let mut net = NetworkBuilder::new();
        let k = net.var("k", VarType::Int { lo: 0, hi: 6 }, Value::Int(0));
        let mut src = AutomatonBuilder::new("src");
        let s0 = src.location("s0");
        let bump = Expr::var(k).add(Expr::int(1)).min(Expr::int(6));
        src.markovian(s0, 1.0, [Effect::assign(k, bump)], s0);
        src.markovian(s0, 0.5, [Effect::assign(k, Expr::int(0))], s0);
        net.add_automaton(src);
        for (name, guards) in [("small", 30), ("big", 70)] {
            let mut a = AutomatonBuilder::new(name);
            let l0 = a.location("l0");
            for i in 0..guards {
                let g = Expr::var(k).eq(Expr::int(i % 7)).and(Expr::var(k).ge(Expr::int(i % 3)));
                a.guarded(l0, ActionId::TAU, g, [], l0);
            }
            net.add_automaton(a);
        }
        let net = net.build().unwrap();
        let t = net.compile();
        assert_eq!(t.tau[2][0].first().map(|cg| cg.slot), Some(30));
        assert!(lockstep(&net, false, |_, _| {}) > 0);

        // Once every truth is cached, the scan evaluates nothing; after
        // `k` changes it re-evaluates the readers in ascending order.
        let mut s = StepScratch::new();
        let mut st = net.initial_state().unwrap();
        net.stepping_begin(&t, &mut s, &st);
        assert_eq!(scanned(&net, &t, &mut s, &st).len(), 100);
        assert!(scanned(&net, &t, &mut s, &st).is_empty());
        fire(&net, &t, &mut s, &mut st, 0, 0);
        let again = scanned(&net, &t, &mut s, &st);
        assert!(again.windows(2).all(|w| w[0] < w[1]), "scan order {again:?}");
        assert!(again.iter().any(|&(p, tr)| p == 2 && tr >= 34), "second word not scanned");
    }

    /// `a == 1 && b > 2`: a cached `false` outlives writes to `b` while
    /// `a` falsifies it, a write to the witness `a` re-evaluates it, and
    /// a cached `true` is evicted by a write to either variable.
    #[test]
    fn false_conjunction_is_evicted_only_through_its_witness() {
        let mut net = NetworkBuilder::new();
        let a = net.var("a", VarType::Int { lo: 0, hi: 3 }, Value::Int(0));
        let b = net.var("b", VarType::Int { lo: 0, hi: 9 }, Value::Int(5));
        let mut src = AutomatonBuilder::new("src");
        let s0 = src.location("s0");
        src.markovian(
            s0,
            1.0,
            [Effect::assign(b, Expr::var(b).add(Expr::int(1)).min(Expr::int(9)))],
            s0,
        );
        src.markovian(s0, 1.0, [Effect::assign(a, Expr::int(1))], s0);
        src.markovian(s0, 1.0, [Effect::assign(b, Expr::int(0))], s0);
        src.markovian(s0, 1.0, [Effect::assign(a, Expr::int(0))], s0);
        net.add_automaton(src);
        let mut m = AutomatonBuilder::new("m");
        let m0 = m.location("m0");
        let guard = Expr::var(a).eq(Expr::int(1)).and(Expr::var(b).gt(Expr::int(2)));
        m.guarded(m0, ActionId::TAU, guard, [], m0);
        net.add_automaton(m);
        let net = net.build().unwrap();
        let t = net.compile();
        let GuardCode::DelayFree(prog) = &t.tau[1][0][0].guard else { panic!("not delay-free") };
        assert!(matches!(prog.spec, Some(GuardSpec::Conj(_))));

        let mut s = StepScratch::new();
        let mut st = net.initial_state().unwrap();
        net.stepping_begin(&t, &mut s, &st);
        assert_eq!(scanned(&net, &t, &mut s, &st), vec![(1, 0)], "first scan evaluates");
        fire(&net, &t, &mut s, &mut st, 0, 0);
        assert!(
            scanned(&net, &t, &mut s, &st).is_empty(),
            "a write to `b` evicted a false kept by `a`"
        );
        fire(&net, &t, &mut s, &mut st, 0, 1);
        assert_eq!(scanned(&net, &t, &mut s, &st), vec![(1, 0)], "the witness `a` changed");
        assert_eq!(s.candidates().len(), 1);
        fire(&net, &t, &mut s, &mut st, 0, 0);
        assert_eq!(scanned(&net, &t, &mut s, &st), vec![(1, 0)], "a true is evicted by `b`");
        fire(&net, &t, &mut s, &mut st, 0, 2);
        assert_eq!(scanned(&net, &t, &mut s, &st), vec![(1, 0)], "`b` falsifies it now");
        assert!(s.candidates().is_empty());
        fire(&net, &t, &mut s, &mut st, 0, 3);
        assert!(scanned(&net, &t, &mut s, &st).is_empty(), "`a` is not the witness any more");
        assert!(lockstep(&net, false, |_, _| {}) > 0);
    }

    /// `y := if c then x else z` reads `x` or `z`, depending on `c`: a
    /// write to the unread branch variable does not re-run it.
    #[test]
    fn flow_reruns_only_when_a_variable_it_read_changed() {
        let mut net = NetworkBuilder::new();
        let int = VarType::Int { lo: 0, hi: 9 };
        let c = net.var("c", VarType::Bool, Value::Bool(true));
        let x = net.var("x", int, Value::Int(1));
        let z = net.var("z", int, Value::Int(2));
        let y = net.var("y", int, Value::Int(1));
        net.flow(y, Expr::ite(Expr::var(c), Expr::var(x), Expr::var(z)));
        let mut src = AutomatonBuilder::new("src");
        let s0 = src.location("s0");
        let inc = |v: VarId| Effect::assign(v, Expr::var(v).add(Expr::int(1)).min(Expr::int(9)));
        src.markovian(s0, 1.0, [inc(x)], s0);
        src.markovian(s0, 1.0, [inc(z)], s0);
        src.markovian(s0, 1.0, [Effect::assign(c, Expr::var(c).not())], s0);
        net.add_automaton(src);
        let net = net.build().unwrap();
        let t = net.compile();
        let mut s = StepScratch::new();
        let mut st = net.initial_state().unwrap();
        net.stepping_begin(&t, &mut s, &st);
        assert_eq!(fire(&net, &t, &mut s, &mut st, 0, 1), vec![0], "no read set yet");
        assert!(fire(&net, &t, &mut s, &mut st, 0, 1).is_empty(), "`z` is not read");
        assert_eq!(fire(&net, &t, &mut s, &mut st, 0, 0), vec![0], "`x` is read");
        assert_eq!(fire(&net, &t, &mut s, &mut st, 0, 2), vec![0], "`c` flipped");
        assert_eq!(st.nu.get(y).unwrap(), st.nu.get(z).unwrap());
        assert!(fire(&net, &t, &mut s, &mut st, 0, 0).is_empty(), "`x` is not read any more");
        assert_eq!(fire(&net, &t, &mut s, &mut st, 0, 1), vec![0], "`z` is read now");
        assert_eq!(st.nu.get(y).unwrap(), st.nu.get(z).unwrap());
        assert!(lockstep(&net, false, |_, _| {}) > 0);
    }

    /// `hot := if c >= 2 then k > 0 else false` over a clock `c`: the
    /// advance that moves `c` past 2 re-runs the flow, which then reads
    /// `k` too. The read set `{c}` logged before must not survive it, or
    /// the next write to `k` would skip the flow.
    #[test]
    fn advance_forgets_read_sets_of_flows_over_rated_variables() {
        let mut net = NetworkBuilder::new();
        let c = net.var("c", VarType::Clock, Value::Real(0.0));
        let k = net.var("k", VarType::Int { lo: 0, hi: 3 }, Value::Int(0));
        let hot = net.var("hot", VarType::Bool, Value::Bool(false));
        let k_pos = Expr::var(k).gt(Expr::int(0));
        net.flow(hot, Expr::ite(Expr::var(c).ge(Expr::real(2.0)), k_pos, Expr::FALSE));
        let mut src = AutomatonBuilder::new("src");
        let s0 = src.location("s0");
        src.markovian(
            s0,
            1.0,
            [Effect::assign(k, Expr::var(k).add(Expr::int(1)).min(Expr::int(3)))],
            s0,
        );
        src.markovian(s0, 1.0, [Effect::assign(k, Expr::int(0))], s0);
        net.add_automaton(src);
        let net = net.build().unwrap();
        let t = net.compile();
        let mut s = StepScratch::new();
        let mut st = net.initial_state().unwrap();
        net.stepping_begin(&t, &mut s, &st);
        assert_eq!(fire(&net, &t, &mut s, &mut st, 0, 1), vec![0], "reads {{c}} at c = 0");
        let mut evals = Evals::default();
        net.advance_rated_prof(&t, &mut s, &mut st, 3.0, &IntervalSet::all(), &mut evals).unwrap();
        assert_eq!(evals.1, vec![0], "advance re-runs the flow");
        assert_eq!(fire(&net, &t, &mut s, &mut st, 0, 0), vec![0], "`k` is read now");
        assert_eq!(st.nu.get(hot).unwrap(), Value::Bool(true));
        assert!(lockstep(&net, false, |_, _| {}) > 0);
    }

    /// Reference tables evaluate every guard, re-run every flow and
    /// re-evaluate the goal predicate every time.
    #[test]
    fn reference_tables_cache_nothing() {
        let net = delay_flow_net();
        let t = net.compile_with(&CompileOptions::reference());
        let pred = net.compile_predicate_with(&Expr::var(VarId(1)), &CompileOptions::reference());
        let mut s = StepScratch::new();
        let mut st = net.initial_state().unwrap();
        net.stepping_begin(&t, &mut s, &st);
        let mut out = IntervalSet::empty();
        for _ in 0..3 {
            let mut evals = Evals::default();
            net.apply_mut_prof(&t, &mut s, &mut st, &[(ProcId(0), TransId(0))], &mut evals)
                .unwrap();
            assert_eq!(evals.1, vec![0], "every flow re-runs");
            let mut ops = Ops::default();
            net.predicate_window_rated_prof(&mut s, &pred, &st, &mut out, &mut ops).unwrap();
            assert!(ops.0 > 0, "the predicate was not evaluated");
            assert_eq!(scanned(&net, &t, &mut s, &st).len(), 1, "every guard of `idle`");
        }
    }

    /// Counts executed opcodes.
    #[derive(Default)]
    struct Ops(usize);

    impl ProfileHooks for Ops {
        const ENABLED: bool = true;
        fn eval_op(&mut self, _op: usize) {
            self.0 += 1;
        }
    }

    /// A delay-free goal keeps its truth until a variable it reads
    /// changes, and records no opcodes while it does.
    #[test]
    fn delay_free_predicate_keeps_its_truth_until_a_read_changes() {
        let net = delay_flow_net();
        let t = net.compile();
        let n = net.var_id("n").unwrap();
        let pred = net.compile_predicate(&Expr::var(n).ge(Expr::int(2)));
        let mut s = StepScratch::new();
        let mut st = net.initial_state().unwrap();
        net.stepping_begin(&t, &mut s, &st);
        let mut out = IntervalSet::empty();
        let mut window = |s: &mut StepScratch, st: &NetState| {
            let mut ops = Ops::default();
            net.predicate_window_rated_prof(s, &pred, st, &mut out, &mut ops).unwrap();
            let holds = net.eval_bool(st, &Expr::var(n).ge(Expr::int(2))).unwrap();
            assert_eq!(out, if holds { IntervalSet::all() } else { IntervalSet::empty() });
            ops.0
        };
        assert!(window(&mut s, &st) > 0);
        assert_eq!(window(&mut s, &st), 0, "nothing changed");
        net.advance_rated_prof(&t, &mut s, &mut st, 1.0, &IntervalSet::all(), &mut NoopProfile)
            .unwrap();
        assert_eq!(window(&mut s, &st), 0, "the advance changed no variable it reads");
        for expect_eval in [true, true, true, false] {
            fire(&net, &t, &mut s, &mut st, 0, 0);
            assert_eq!(window(&mut s, &st) > 0, expect_eval, "n = {:?}", st.nu.get(n));
        }
    }
}
