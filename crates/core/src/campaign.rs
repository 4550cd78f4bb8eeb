//! Statistical fault-injection campaigns at both abstraction layers,
//! executed by a resumable, shardable engine.
//!
//! The campaign machinery is split into three stages:
//!
//! 1. **Plan** ([`crate::plan`]) — a golden run plus the deterministic
//!    expansion of the configuration into an explicit trial list (seed →
//!    (kernel, structure/instruction, bit, cycle) for every injection).
//! 2. **Execute** ([`execute_shard`]) — run any strided shard of the plan
//!    in parallel, optionally journaling every classified trial to a
//!    JSONL checkpoint ([`crate::checkpoint`]), started afresh;
//!    [`execute_resumable`] is the same stage with the one journal rule
//!    of the command line: a journal that holds trials is finished, and
//!    loaded if it already is. A trial whose harness panics is retried
//!    once, then recorded as Timeout.
//! 3. **Assemble** ([`assemble`] and its projections) — one fold turns
//!    any record set that covers the plan (a single shot, a merge of
//!    shards in any order, duplicates from at-least-once execution
//!    included — [`crate::records::RecordSet`] owns that rule) into
//!    outcome counts per stratum of [`CampaignPlan::strata`];
//!    [`assemble_uarch`] / [`assemble_sw`] project the table by
//!    (kernel, target) into the AVF/SVF result types, and PVF, the
//!    two-level estimator and the adaptive sizer read it directly.
//!    Because outcome counts are integer sums and every trial's fault is
//!    fixed at plan time, merged shard outputs are identical to a
//!    single-shot run.
//!
//! [`run_uarch_campaign`] and [`run_sw_campaign`] — the gpuFI-4 (AVF) and
//! NVBitFI (SVF) methodologies of Sections II-B/II-C — are now thin
//! wrappers: prepare, execute the whole plan as one shard, assemble.
//! All randomness still derives from splitmix-style hashing of
//! (seed, app, kernel, structure, trial), so campaigns are
//! bit-reproducible at any thread count *and any shard count*.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rayon::prelude::*;

use kernels::{
    faulty_run_with, Accel, AppSnapshots, Benchmark, CtaLog, Outcome, PlannedFault, RunResult,
};
use trace::{AppTrace, Verdict};
use vgpu_sim::{FaultPattern, GpuConfig, HwStructure};

use crate::checkpoint::{
    load_checkpoint, outcome_class, CheckpointError, CheckpointHeader, CheckpointWriter,
    TrialRecord, DEFAULT_CHECKPOINT_EVERY,
};
use crate::metrics::{ClassCounts, ClassRates};
use crate::plan::{
    prepare_sw_campaign, prepare_uarch_campaign, shard_trials, CampaignPlan, Layer,
    PreparedCampaign, TrialTarget, SVF_KINDS,
};
use crate::records::RecordSet;

/// Per-injection wall-clock watchdog. No command-line flag sets it: a
/// wall-clock limit depends on the machine, so no plan fingerprint can
/// describe it, and the harness's golden-derived budget
/// ([`GpuConfig::timeout_factor`]) is the one source of Timeout a
/// campaign's records depend on. A library caller may set it to time its
/// trials; see docs/CAMPAIGNS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watchdog {
    /// Wall-clock budget per injection in microseconds; a trial that
    /// finishes over budget is reclassified as Timeout, and every trial's
    /// [`TrialRecord::wall_us`] is measured. `None` disables.
    pub wall_us_limit: Option<u64>,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignCfg {
    pub gpu: GpuConfig,
    /// Injections per (kernel, hardware structure) in AVF campaigns.
    pub n_uarch: usize,
    /// Injections per kernel (per fault kind) in SVF campaigns.
    pub n_sw: usize,
    pub seed: u64,
    pub watchdog: Watchdog,
    /// Fault pattern applied by every trial (docs/FAULT_MODELS.md).
    /// Defaults to the paper's single-bit model; the pattern never feeds
    /// seed derivation, so changing it re-uses the exact same injection
    /// coordinates.
    pub pattern: FaultPattern,
}

impl CampaignCfg {
    pub fn new(n_uarch: usize, n_sw: usize, seed: u64) -> Self {
        CampaignCfg {
            gpu: GpuConfig::default(),
            n_uarch,
            n_sw,
            seed,
            watchdog: Watchdog::default(),
            pattern: FaultPattern::SingleBit,
        }
    }

    /// Injections per (kernel, target) of a fixed-n campaign at `layer`.
    pub fn n(&self, layer: Layer) -> usize {
        match layer {
            Layer::Uarch => self.n_uarch,
            Layer::Sw => self.n_sw,
        }
    }
}

/// Whether any observability sink wants per-trial data. Hoisted out of
/// the hot loop so disabled campaigns pay nothing per trial.
fn observing() -> bool {
    obs::enabled() || obs::events_enabled() || obs::progress::progress_enabled()
}

/// Record one finished injection everywhere observability wants it:
/// outcome counters, wall-time histogram, JSONL event, progress line.
/// Callers gate on [`observing`]; nothing here touches RNG streams, so
/// campaign results are identical with observability on or off.
fn observe_trial(
    prep: &PreparedCampaign,
    t: &crate::plan::PlannedTrial,
    outcome: Outcome,
    started: Instant,
) {
    let app = prep.plan.app.as_str();
    let kernel = prep.bench().kernels()[t.kernel_idx];
    let layer = prep.plan.layer.label();
    let target = t.target.label();
    let (bit, cycle) = match &t.fault {
        None => (0, 0),
        Some((_, PlannedFault::Uarch(u))) => (u.bit, u.cycle),
        Some((_, PlannedFault::Sw(s))) => (s.bit, s.target),
    };
    let class = outcome_class(outcome);
    let out_label = class.label();
    let wall_us = started.elapsed().as_micros() as u64;
    obs::counter_add(
        "injections_total",
        &[
            ("app", app),
            ("kernel", kernel),
            ("layer", layer),
            ("target", target),
            ("outcome", out_label),
        ],
        1,
    );
    // Coarse per-structure rollup for the end-of-run summary table.
    obs::counter_add(
        "outcomes_total",
        &[("layer", layer), ("target", target), ("outcome", out_label)],
        1,
    );
    obs::histogram_observe(
        "injection_wall_us",
        &[("app", app), ("layer", layer)],
        &obs::WALL_US_BUCKETS,
        wall_us,
    );
    if obs::events_enabled() {
        obs::emit_record(&[
            ("seed", t.seed.into()),
            ("app", app.into()),
            ("kernel", kernel.into()),
            ("layer", layer.into()),
            ("target", target.into()),
            ("trial", t.trial.into()),
            ("bit", u64::from(bit).into()),
            ("cycle", cycle.into()),
            ("outcome", out_label.into()),
            ("wall_us", wall_us.into()),
        ]);
    }
    obs::progress::record(class);
}

// ---------------------------------------------------------------------
// Execution engine
// ---------------------------------------------------------------------

/// How to execute a prepared campaign: which shard of the plan, where to
/// journal it, on which backend.
#[derive(Debug, Clone)]
pub struct EngineCfg {
    /// Total shards the plan is partitioned into (>= 1).
    pub shards: usize,
    /// This process's shard (0-based, < `shards`).
    pub shard_index: usize,
    /// Journal every classified trial to this JSONL file: started afresh
    /// by [`execute_shard`], resumed by [`execute_resumable`] when it
    /// holds anything.
    pub checkpoint: Option<PathBuf>,
    /// Stop after this many *newly executed* trials, leaving a resumable
    /// checkpoint behind — interruption simulation and incremental runs.
    pub trial_limit: Option<usize>,
    /// The trial path every trial of the shard takes.
    pub backend: FastForward,
}

/// Mid-launch snapshots per launch in the golden-prefix capture pass.
pub const DEFAULT_SNAPSHOTS: usize = 8;

impl EngineCfg {
    /// One shard covering the whole plan, no files, on the `Timed` path.
    /// The command line defaults to `Replay`; this library default stays
    /// `Timed` because the perf ledger's adaptive workload inherits it, and
    /// it moves only once the ledger names every workload's path.
    pub fn single_shot() -> Self {
        EngineCfg {
            shards: 1,
            shard_index: 0,
            checkpoint: None,
            trial_limit: None,
            backend: FastForward::Timed,
        }
    }

    /// Shard `index` of `shards`, no files.
    pub fn sharded(shards: usize, index: usize) -> Self {
        EngineCfg {
            shards,
            shard_index: index,
            ..EngineCfg::single_shot()
        }
    }
}

impl Default for EngineCfg {
    fn default() -> Self {
        EngineCfg::single_shot()
    }
}

/// Why the engine refused to execute or assemble.
#[derive(Debug)]
pub enum EngineError {
    Io(std::io::Error),
    Checkpoint(CheckpointError),
    /// A checkpoint/shard header does not match the plan being executed
    /// (different seed, app, GPU config, shard slice, or code revision).
    PlanMismatch(String),
    /// A record's plan index is outside the plan or this shard's slice.
    ForeignTrial {
        idx: usize,
    },
    /// Two records claim the same plan index with *different*
    /// classifications — impossible for deterministic trials, so it means
    /// corruption or a plan/code mismatch, and no merge may paper over it.
    ConflictingDuplicate {
        idx: usize,
    },
    /// The record set does not cover the plan.
    IncompleteCover {
        missing: usize,
        total: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "campaign I/O error: {e}"),
            EngineError::Checkpoint(e) => write!(f, "{e}"),
            EngineError::PlanMismatch(why) => write!(f, "plan mismatch: {why}"),
            EngineError::ForeignTrial { idx } => {
                write!(f, "trial record {idx} does not belong to this plan/shard")
            }
            EngineError::ConflictingDuplicate { idx } => {
                write!(
                    f,
                    "records for trial {idx} disagree on the outcome — \
                     corrupt input or mismatched plans"
                )
            }
            EngineError::IncompleteCover { missing, total } => {
                write!(f, "records cover only {}/{total} trials", total - missing)
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

/// The path a trial takes through the engine: the one trial-path type,
/// named by the command line's `--backend`, the job frame's `backend`
/// field and [`EngineCfg::backend`] alike. Every path classifies every
/// trial identically (`crates/core/tests/path_differential.rs`); they
/// differ only in how much of the faulty run is simulated, so the path is
/// a throughput choice and no plan fingerprint covers it. There is no
/// `Default`: the command line's is `Replay`, [`EngineCfg::single_shot`]'s
/// is `Timed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastForward {
    /// Simulate the whole application for every trial: the reference the
    /// other two paths are verified against. No label parses to it, so
    /// neither the command line nor the wire selects it; tests and the
    /// perf ledger ask for it through [`execute_trials_with`].
    Oracle,
    /// Resume from the latest golden-prefix snapshot before the fault
    /// and stop once the machine provably re-converges with golden.
    Timed,
    /// Adjudicate the fault footprint against the recorded golden access
    /// trace first, and synthesize the (masked) record of a provably-dead
    /// one; trials it cannot decide pass on to the `Timed` path. A
    /// software-layer plan has no access trace and runs as on `Timed`.
    Replay,
}

/// The perf ledger's name for [`FastForward`]. It exists only because the
/// ledger under `benchmarks/` names it, and it goes when the ledger next
/// changes (ROADMAP item 1).
pub type EngineBackend = FastForward;

impl FastForward {
    /// The paths a `--backend` flag or a job frame may name.
    pub const SELECTABLE: [FastForward; 2] = [FastForward::Timed, FastForward::Replay];

    /// The oracle path: every trial simulates its whole application.
    pub fn disabled() -> Self {
        FastForward::Oracle
    }

    /// Stable CLI / wire label.
    pub fn label(&self) -> &'static str {
        match self {
            FastForward::Oracle => "oracle",
            FastForward::Timed => "timed",
            FastForward::Replay => "replay",
        }
    }

    /// Parse a CLI / wire label: `timed` or `replay`, never `oracle`.
    pub fn from_label(s: &str) -> Option<FastForward> {
        FastForward::SELECTABLE.into_iter().find(|b| b.label() == s)
    }
}

/// The golden material a plan's trials read on one path: chosen once per
/// [`execute_trials_with`], and the one place the (path, layer) pair
/// decides what a trial is adjudicated against and what it resumes from.
#[derive(Clone, Copy)]
enum Golden<'p> {
    /// Nothing: every trial simulates its whole application (the oracle
    /// path, or a plan with no fault to inject).
    None,
    /// The golden-prefix snapshot set (`Timed`, uarch).
    Snapshots(&'p Arc<AppSnapshots>),
    /// The golden access trace (`Replay`, uarch). The snapshot set is
    /// captured only once a trial falls back, so a campaign whose every
    /// footprint is dead never captures it.
    Trace(&'p Arc<AppTrace>),
    /// The golden CTA log (sw, on either accelerated path).
    CtaLog(&'p Arc<CtaLog>),
}

impl<'p> Golden<'p> {
    /// Capture (or share) what `path` needs for `prep`'s layer.
    fn of(prep: &'p PreparedCampaign, path: FastForward) -> Self {
        let material = match (path, prep.plan.layer) {
            (FastForward::Oracle, _) => None,
            (FastForward::Timed, Layer::Uarch) => {
                prep.snapshots(DEFAULT_SNAPSHOTS).map(Golden::Snapshots)
            }
            (FastForward::Replay, Layer::Uarch) => prep.trace().map(Golden::Trace),
            (_, Layer::Sw) => prep.cta_log().map(Golden::CtaLog),
        };
        material.unwrap_or(Golden::None)
    }

    /// What a simulated trial resumes from.
    fn accel(self, prep: &'p PreparedCampaign) -> Accel<'p> {
        match self {
            Golden::None => Accel::None,
            Golden::Snapshots(s) => Accel::Snapshots(s),
            Golden::Trace(_) => prep
                .snapshots(DEFAULT_SNAPSHOTS)
                .map_or(Accel::None, Accel::Snapshots),
            Golden::CtaLog(l) => Accel::CtaLog(l),
        }
    }
}

/// Stage 1, replay path only: a provably-dead footprint means the faulty
/// run is bit-identical to golden, so its result is synthesized without
/// simulating. `None` passes the trial on (no trace to adjudicate
/// against, or a footprint the trace cannot call dead).
fn adjudicate(
    prep: &PreparedCampaign,
    golden: Golden,
    ordinal: usize,
    pf: &PlannedFault,
) -> Option<RunResult> {
    let (Golden::Trace(trace), PlannedFault::Uarch(u)) = (golden, pf) else {
        return None;
    };
    let app = prep.plan.app.as_str();
    match obs::span("trace.adjudicate", || {
        trace.adjudicate(&prep.cfg.gpu, ordinal, u)
    }) {
        Verdict::Dead { population } => {
            obs::counter_add("trace_replay_dead_total", &[("app", app)], 1);
            Some(RunResult {
                outcome: Outcome::Masked,
                total_cost: prep.golden.total_cost,
                simulated_cost: 0,
                resumed_at: None,
                converged: true,
                applied: population > 0,
                corrupted_words: 0,
                ctas_replayed: 0,
                ctas_simulated: 0,
                restored_bytes: 0,
            })
        }
        Verdict::Fallback { reason } => {
            obs::counter_add(
                "trace_fallback_full_total",
                &[("app", app), ("reason", reason.label())],
                1,
            );
            None
        }
    }
}

/// Stage 2: run the faulty execution from what [`Golden::accel`] hands
/// it, in full when that is nothing. A panicking harness is retried once;
/// `None` means it panicked for good.
fn simulate(
    prep: &PreparedCampaign,
    golden: Golden,
    ordinal: usize,
    pf: &PlannedFault,
) -> Option<RunResult> {
    let accel = golden.accel(prep);
    let attempt = || {
        faulty_run_with(
            prep.bench(),
            &prep.cfg.gpu,
            prep.captures.variant(),
            &prep.golden,
            ordinal,
            *pf,
            accel,
        )
    };
    let layer = prep.plan.layer.label();
    let mut res = catch_unwind(AssertUnwindSafe(attempt)).ok();
    if res.is_none() {
        obs::counter_add("watchdog_retries_total", &[("layer", layer)], 1);
        res = catch_unwind(AssertUnwindSafe(attempt)).ok();
    }
    if let (false, Some(r), true) = (matches!(accel, Accel::None), &res, observing()) {
        let app = prep.plan.app.as_str();
        obs::counter_add(
            "campaign_cycles_skipped_total",
            &[("app", app), ("layer", layer)],
            r.total_cost - r.simulated_cost,
        );
        for (hit, kind) in [
            (r.resumed_at.is_some(), "resume"),
            (r.converged, "converged"),
        ] {
            if hit {
                obs::counter_add("snapshot_hits_total", &[("app", app), ("kind", kind)], 1);
            }
        }
        if let Accel::Snapshots(_) = accel {
            obs::counter_add(
                "snapshot_restore_bytes_total",
                &[("app", app)],
                r.restored_bytes,
            );
        }
        if let Accel::CtaLog(_) = accel {
            for (n, path) in [
                (r.ctas_replayed, "replayed"),
                (r.ctas_simulated, "simulated"),
            ] {
                obs::counter_add("sw_cta_total", &[("app", app), ("path", path)], n as u64);
            }
        }
    }
    res
}

/// Run one planned trial end to end as a linear pipeline — adjudicate →
/// resume-or-simulate → classify — where each stage either decides the
/// trial or passes it on. Which stages are live follows from `golden`
/// alone; classification is bit-identical on every path
/// (differential-tested).
fn run_one_trial(
    prep: &PreparedCampaign,
    t: &crate::plan::PlannedTrial,
    golden: Golden,
) -> TrialRecord {
    let wd = prep.cfg.watchdog;
    let layer = prep.plan.layer.label();
    let obs_on = observing();
    let t0 = (obs_on || wd.wall_us_limit.is_some()).then(Instant::now);
    let run = t.fault.as_ref().map(|(ordinal, pf)| {
        adjudicate(prep, golden, *ordinal, pf)
            .or_else(|| obs::span("kernels.trials", || simulate(prep, golden, *ordinal, pf)))
    });
    let (mut outcome, cost_differs) = match run {
        // No eligible fault population: trivially masked.
        None => (Outcome::Masked, false),
        Some(None) => {
            obs::counter_add("watchdog_panic_timeouts_total", &[("layer", layer)], 1);
            (Outcome::Timeout, false)
        }
        Some(Some(r)) => (r.outcome, r.total_cost != prep.golden.total_cost),
    };
    let wall_us = t0.map_or(0, |i| i.elapsed().as_micros() as u64);
    if wd.wall_us_limit.is_some_and(|l| wall_us > l) && outcome != Outcome::Timeout {
        obs::counter_add("watchdog_wall_timeouts_total", &[("layer", layer)], 1);
        outcome = Outcome::Timeout;
    }
    if let (true, Some(t0)) = (obs_on, t0) {
        observe_trial(prep, t, outcome, t0);
    }
    TrialRecord {
        idx: t.index,
        outcome,
        // The Figure-11 control-path proxy: a masked run whose total cost
        // differs from golden had its control path disturbed.
        ctrl: outcome == Outcome::Masked && cost_differs,
        wall_us,
    }
}

/// Scheduling key for snapshot locality: trials of the same launch,
/// ordered by injection cycle, reuse the same golden prefix and nearby
/// resume snapshots. Population-empty trials sort first.
fn trial_sort_key(t: &crate::plan::PlannedTrial) -> (u64, u64) {
    match &t.fault {
        None => (0, 0),
        Some((ordinal, PlannedFault::Uarch(u))) => (*ordinal as u64 + 1, u.cycle),
        Some((ordinal, PlannedFault::Sw(s))) => (*ordinal as u64 + 1, s.target),
    }
}

/// Execute an explicit set of plan indices in parallel on trial path
/// `path`, streaming every classified trial into `sink` as it finishes (in
/// completion order, not plan order — records are self-describing via
/// [`TrialRecord::idx`]).
///
/// This is the primitive under both [`execute_shard`] (sink = checkpoint
/// file) and the dispatch worker daemon (sink = TCP connection to the
/// coordinator). A sink error aborts the run; trials already in flight on
/// other workers may still call the sink before the abort propagates,
/// which is safe because every consumer holds its records in a
/// [`RecordSet`], one slot per plan index.
///
/// The accelerated paths capture what they need once up front: the
/// snapshot set for `Timed`, the golden access trace for `Replay` (which
/// defers snapshots until a trial falls back), the golden CTA log for a
/// software-layer plan on either. Uarch trials run sorted by (launch,
/// injection-cycle): the workers claim trials one at a time in that order,
/// so each worker's own sequence is ascending too, and a trial finds its
/// scratch machine synchronised with a snapshot close to the one it
/// resumes from. Records are self-describing, so the reordering is
/// invisible to every consumer.
pub fn execute_trials_with<F>(
    prep: &PreparedCampaign,
    path: FastForward,
    idxs: &[usize],
    sink: F,
) -> Result<Vec<TrialRecord>, std::io::Error>
where
    F: Fn(&TrialRecord) -> std::io::Result<()> + Sync,
{
    // Capture happens here, before any trial's wall clock starts; a path
    // with nothing captured keeps the caller's order, and so does a
    // software-layer plan (no locality to gain, and workers that claim
    // one trial at a time need no dealing-out to stay evenly busy).
    let golden = Golden::of(prep, path);
    let mut order: Vec<usize> = idxs.to_vec();
    let sorted = matches!(golden, Golden::Snapshots(_) | Golden::Trace(_));
    if sorted {
        order.sort_by_key(|&i| trial_sort_key(&prep.plan.trials[i]));
    }
    let mut records: Vec<TrialRecord> = obs::span("core.execute", || {
        (order.par_iter())
            .map(|&idx| -> Result<TrialRecord, std::io::Error> {
                let rec = run_one_trial(prep, &prep.plan.trials[idx], golden);
                sink(&rec)?;
                Ok(rec)
            })
            .collect::<Result<_, _>>()
    })?;
    // Execution order is a scheduling detail; callers get records back in
    // the order they asked for, exactly as on the oracle path.
    if sorted {
        let pos: HashMap<usize, usize> = idxs.iter().enumerate().map(|(p, &i)| (i, p)).collect();
        records.sort_by_key(|r| pos[&r.idx]);
    }
    Ok(records)
}

/// What [`execute_resumable`] returns: a shard's classified trials in plan
/// order, and how many of them its journal already held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRun {
    pub records: Vec<TrialRecord>,
    pub resumed: usize,
}

/// Execute one strided shard of a prepared campaign, in parallel.
///
/// Returns the shard's classified trials in plan order. With
/// `eng.checkpoint` set, the journal is started afresh (whatever the file
/// held is truncated) and every classified trial is journaled, so an
/// interruption at any point (including mid-line) loses at most
/// [`DEFAULT_CHECKPOINT_EVERY`] trials.
pub fn execute_shard(
    prep: &PreparedCampaign,
    eng: &EngineCfg,
) -> Result<Vec<TrialRecord>, EngineError> {
    execute(prep, eng, false).map(|run| run.records)
}

/// [`execute_shard`] under the one journal rule of the command line —
/// `campaign run --checkpoint`, the waves of `run --adaptive`, the
/// campaigns of `campaign paper`. A journal at `eng.checkpoint` that
/// holds anything is resumed: what it classifies is kept, what it lacks
/// is executed (up to `eng.trial_limit`) and appended, and one that
/// already classifies the whole shard is the result — loaded once,
/// nothing simulated, no file rewritten, no campaign event emitted. A
/// missing or empty one (a run killed before its header reached the
/// disk) is started. A journal of another plan or shard is refused and
/// left as it is.
pub fn execute_resumable(
    prep: &PreparedCampaign,
    eng: &EngineCfg,
) -> Result<ShardRun, EngineError> {
    let holds_records = (eng.checkpoint.as_deref())
        .is_some_and(|p| std::fs::metadata(p).is_ok_and(|m| m.len() > 0));
    execute(prep, eng, holds_records)
}

/// The body of [`execute_shard`] and [`execute_resumable`]: `resume`
/// says whether `eng.checkpoint` is loaded and appended to, or started.
fn execute(
    prep: &PreparedCampaign,
    eng: &EngineCfg,
    resume: bool,
) -> Result<ShardRun, EngineError> {
    let plan = &prep.plan;
    let my = shard_trials(plan.len(), eng.shards, eng.shard_index);
    let header = CheckpointHeader::for_plan(plan, eng.shards, eng.shard_index);
    let mut set = RecordSet::new(plan.len());
    let in_plan_order = |set: &RecordSet| -> Vec<TrialRecord> {
        my.iter().filter_map(|&i| set.get(i).copied()).collect()
    };
    // A `"record":"campaign"` line: shard start / done, checkpoint resume.
    let campaign_event = |kind: &str, done: usize| {
        obs::emit_record(&[
            ("record", "campaign".into()),
            ("kind", kind.into()),
            ("app", plan.app.as_str().into()),
            ("layer", plan.layer.label().into()),
            ("shard", eng.shard_index.into()),
            ("shards", eng.shards.into()),
            ("done", done.into()),
            ("total", my.len().into()),
        ])
    };

    let mut writer: Option<CheckpointWriter> = None;
    let journal = eng.checkpoint.as_deref();
    if let Some(rp) = journal.filter(|_| resume) {
        let ck = load_checkpoint(rp)?;
        if ck.header != header {
            return Err(EngineError::PlanMismatch(format!(
                "checkpoint {} was written by a different campaign \
                 (fingerprint {:#x} vs plan {:#x}, shard {}/{} vs {}/{})",
                rp.display(),
                ck.header.fingerprint,
                header.fingerprint,
                ck.header.shard_index,
                ck.header.shards,
                header.shard_index,
                header.shards,
            )));
        }
        for r in &ck.records {
            if r.idx % eng.shards != eng.shard_index {
                return Err(EngineError::ForeignTrial { idx: r.idx });
            }
            set.insert(*r)?;
        }
        let done = set.held();
        if done >= my.len() {
            return Ok(ShardRun {
                records: in_plan_order(&set),
                resumed: done,
            });
        }
        obs::counter_add(
            "campaign_resume_skipped_total",
            &[("layer", plan.layer.label())],
            done as u64,
        );
        campaign_event("resume", done);
        writer = Some(CheckpointWriter::recreate(
            rp,
            &ck,
            DEFAULT_CHECKPOINT_EVERY,
        )?);
    } else if let Some(cp) = journal {
        writer = Some(CheckpointWriter::create(
            cp,
            &header,
            DEFAULT_CHECKPOINT_EVERY,
        )?);
    }

    let resumed = set.held();
    let remaining = set.missing(&my);
    let todo = eng
        .trial_limit
        .map_or(remaining.len(), |l| l.min(remaining.len()));
    if obs::progress::progress_enabled() {
        obs::progress::add_total(todo as u64);
    }
    campaign_event("shard_start", my.len() - remaining.len());

    let writer = Mutex::new(writer);
    let new_records = execute_trials_with(prep, eng.backend, &remaining[..todo], |rec| {
        if let Some(w) = writer.lock().unwrap().as_mut() {
            w.record(rec)?;
        }
        Ok(())
    })?;
    // Durable before the shard reports done: finish() fsyncs, so a crash
    // right after "shard complete" cannot lose the checkpoint tail.
    if let Some(w) = writer.into_inner().unwrap() {
        w.finish()?;
    }

    set.extend(&new_records)?;
    let out = in_plan_order(&set);
    campaign_event("shard_done", out.len());
    Ok(ShardRun {
        records: out,
        resumed,
    })
}

// ---------------------------------------------------------------------
// Assembly: the one fold and its projections
// ---------------------------------------------------------------------

/// Outcome counts of one stratum of a plan: one row of [`assemble`]'s
/// table, and of the per-(kernel, structure) projection
/// [`UarchKernelResult::per_structure`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StratumCounts {
    pub counts: ClassCounts,
    /// Masked runs whose total cycle count differs from golden — the
    /// control-path proxy of Figure 11.
    pub ctrl_affected_masked: u32,
}

/// Stage 3, the one fold: outcome counts per stratum of the plan, aligned
/// with `prep.plan.strata`. `records` may come from a single-shot run, a
/// merge of shards in any order, a resumed checkpoint or a dispatch fleet,
/// and may repeat a trial (at-least-once execution) — they pass through a
/// [`RecordSet`] first, so the table is identical in every case and its
/// rows sum to `plan.len()`. Everything the engine reports — AVF, SVF,
/// PVF, the two-level estimate, adaptive convergence — is a projection of
/// this table.
pub fn assemble(
    prep: &PreparedCampaign,
    records: &[TrialRecord],
) -> Result<Vec<StratumCounts>, EngineError> {
    obs::span("core.assemble", || {
        let mut set = RecordSet::new(prep.plan.len());
        set.extend(records)?;
        let outs = set.complete()?;
        let rows = prep.plan.strata_trials().map(|(_, trials)| {
            let mut row = StratumCounts::default();
            for r in trials.iter().map(|t| &outs[t.index]) {
                row.counts.record(r.outcome);
                row.ctrl_affected_masked += r.ctrl as u32;
            }
            row
        });
        Ok(rows.collect())
    })
}

/// The table's projection onto one (kernel, target): the sum of the rows
/// of every stratum of that pair. A wave plan may hold a pair more than
/// once and a structure-subset plan not at all.
fn project(
    plan: &CampaignPlan,
    table: &[StratumCounts],
    kernel_idx: usize,
    target: TrialTarget,
) -> StratumCounts {
    let mut acc = StratumCounts::default();
    for (st, row) in plan.strata.iter().zip(table) {
        if st.kernel_idx == kernel_idx && st.target == target {
            acc.counts.add(&row.counts);
            acc.ctrl_affected_masked += row.ctrl_affected_masked;
        }
    }
    acc
}

// ---------------------------------------------------------------------
// Microarchitecture level (AVF)
// ---------------------------------------------------------------------

/// Everything measured about one kernel at the microarchitecture level.
#[derive(Debug, Clone, PartialEq)]
pub struct UarchKernelResult {
    /// Kernel display name ("K1", ...).
    pub kernel: String,
    pub per_structure: Vec<(HwStructure, StratumCounts)>,
    /// Derating factors (Section II-B): live-allocation share for RF and
    /// SMEM, 1.0 for the always-whole-array cache structures.
    pub df: Vec<(HwStructure, f64)>,
    /// Golden cycles attributed to this kernel (AVF weighting).
    pub cycles: u64,
    /// Injections per structure (for error margins).
    pub n_per_structure: usize,
}

impl UarchKernelResult {
    pub fn df_of(&self, h: HwStructure) -> f64 {
        self.df
            .iter()
            .find(|&&(s, _)| s == h)
            .map_or(1.0, |&(_, d)| d)
    }

    pub fn counts_of(&self, h: HwStructure) -> &StratumCounts {
        &self
            .per_structure
            .iter()
            .find(|&&(s, _)| s == h)
            .expect("structure present")
            .1
    }

    /// AVF of one structure: per-class failure fractions × derating factor.
    pub fn avf(&self, h: HwStructure) -> ClassRates {
        self.counts_of(h).counts.rates().scale(self.df_of(h))
    }

    /// Size-weighted AVF over a set of structures — the chip AVF when
    /// `set` is [`HwStructure::ALL`], the AVF-Cache sub-metric when it is
    /// [`HwStructure::CACHES`].
    pub fn avf_over(&self, gpu: &GpuConfig, set: &[HwStructure]) -> ClassRates {
        let total_bits: u64 = set.iter().map(|&h| gpu.structure_bits(h)).sum();
        let mut acc = ClassRates::default();
        for &h in set {
            let w = gpu.structure_bits(h) as f64 / total_bits as f64;
            acc.add(&self.avf(h).scale(w));
        }
        acc
    }

    /// Full-chip AVF (all five structures, size-weighted).
    pub fn chip_avf(&self, gpu: &GpuConfig) -> ClassRates {
        self.avf_over(gpu, &HwStructure::ALL)
    }

    /// Fraction of all injections that were masked with a disturbed cycle
    /// count (Figure 11).
    pub fn ctrl_affected_fraction(&self) -> f64 {
        let total: u32 = self
            .per_structure
            .iter()
            .map(|(_, c)| c.counts.total())
            .sum();
        if total == 0 {
            return 0.0;
        }
        let ctrl: u32 = self
            .per_structure
            .iter()
            .map(|(_, c)| c.ctrl_affected_masked)
            .sum();
        ctrl as f64 / total as f64
    }
}

/// Microarchitecture-level results for a whole application.
#[derive(Debug, Clone, PartialEq)]
pub struct UarchAppResult {
    pub app: String,
    pub kernels: Vec<UarchKernelResult>,
}

impl UarchAppResult {
    fn cycle_weighted(&self, f: impl Fn(&UarchKernelResult) -> ClassRates) -> ClassRates {
        ClassRates::weighted(self.kernels.iter().map(|k| (f(k), k.cycles)))
    }

    /// Application AVF: kernel chip-AVF weighted by kernel cycles
    /// (Section II-B's multi-kernel rule).
    pub fn app_avf(&self, gpu: &GpuConfig) -> ClassRates {
        self.cycle_weighted(|k| k.chip_avf(gpu))
    }

    /// Application AVF restricted to one structure (AVF-RF of Figure 4).
    pub fn app_avf_structure(&self, h: HwStructure) -> ClassRates {
        self.cycle_weighted(|k| k.avf(h))
    }

    /// Application AVF over the cache structures (Figure 5).
    pub fn app_avf_cache(&self, gpu: &GpuConfig) -> ClassRates {
        self.cycle_weighted(|k| k.avf_over(gpu, &HwStructure::CACHES))
    }
}

/// Derating factor of one kernel for RF or SMEM, cycle-weighted over its
/// launches (Section II-B):
/// `DF = size_per_thread × num_threads / system_size`
/// (per-CTA for shared memory), clamped to 1.
pub fn derating_factor(
    golden: &kernels::GoldenRun,
    kernel_idx: usize,
    gpu: &GpuConfig,
    h: HwStructure,
) -> f64 {
    let mut weighted = 0.0f64;
    let mut cycles = 0u64;
    for r in golden.records.iter().filter(|r| r.kernel_idx == kernel_idx) {
        let live_bits = match h {
            HwStructure::RegFile => r.num_regs as u64 * 32 * r.threads,
            HwStructure::Smem => r.smem_bytes as u64 * 8 * r.ctas,
            _ => return 1.0,
        };
        let df = (live_bits as f64 / gpu.structure_bits(h) as f64).min(1.0);
        weighted += df * r.stats.cycles as f64;
        cycles += r.stats.cycles;
    }
    if cycles == 0 {
        0.0
    } else {
        weighted / cycles as f64
    }
}

/// The microarchitecture-level result: [`assemble`]'s table projected by
/// (kernel, structure), plus each kernel's cycles and derating factors.
/// `records` may come from one single-shot run, a merge of shards, or a
/// resumed checkpoint — the result is identical.
pub fn assemble_uarch(
    prep: &PreparedCampaign,
    records: &[TrialRecord],
) -> Result<UarchAppResult, EngineError> {
    let plan = &prep.plan;
    if plan.layer != Layer::Uarch {
        return Err(EngineError::PlanMismatch(
            "assemble_uarch on a software-level plan".into(),
        ));
    }
    let table = assemble(prep, records)?;
    // Plans restricted to the storage structures keep the historical
    // five-row shape; only plans that actually target the SIMT stack or
    // the scheduler widen the result to the full injectable set.
    let structs: &[HwStructure] =
        if plan.strata.iter().any(
            |s| matches!(s.target, TrialTarget::Structure(h) if !HwStructure::ALL.contains(&h)),
        ) {
            &HwStructure::INJECTABLE
        } else {
            &HwStructure::ALL
        };
    let kernels = prep
        .bench()
        .kernels()
        .iter()
        .enumerate()
        .map(|(k_idx, k_name)| {
            let cycles: u64 = prep
                .golden
                .records
                .iter()
                .filter(|r| r.kernel_idx == k_idx)
                .map(|r| r.stats.cycles)
                .sum();
            let per_structure = structs
                .iter()
                .map(|&h| (h, project(plan, &table, k_idx, TrialTarget::Structure(h))))
                .collect();
            let df = structs
                .iter()
                .map(|&h| (h, derating_factor(&prep.golden, k_idx, &prep.cfg.gpu, h)))
                .collect();
            UarchKernelResult {
                kernel: k_name.to_string(),
                per_structure,
                df,
                cycles,
                n_per_structure: prep.cfg.n_uarch,
            }
        })
        .collect();
    Ok(UarchAppResult {
        app: plan.app.clone(),
        kernels,
    })
}

/// Run the cross-layer (gpuFI-4 model) campaign for one application:
/// plan, execute as a single shard, assemble.
pub fn run_uarch_campaign(
    bench: &dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
) -> UarchAppResult {
    let prep = prepare_uarch_campaign(bench, cfg, hardened);
    let records = execute_shard(&prep, &EngineCfg::single_shot())
        .expect("single-shot execution performs no checkpoint I/O");
    assemble_uarch(&prep, &records).expect("a single shard covers the whole plan")
}

// ---------------------------------------------------------------------
// Software level (SVF)
// ---------------------------------------------------------------------

/// Software-level results for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct SvfKernelResult {
    pub kernel: String,
    /// Destination-value injections (NVBitFI default).
    pub counts: ClassCounts,
    /// Load-destination injections (SVF-LD of Figure 5).
    pub counts_ld: ClassCounts,
    /// Dynamic thread instructions (the SVF application-weighting metric).
    pub instrs: u64,
}

impl SvfKernelResult {
    /// `SVF(ker) = FR(ker)` per class.
    pub fn svf(&self) -> ClassRates {
        self.counts.rates()
    }

    pub fn svf_ld(&self) -> ClassRates {
        self.counts_ld.rates()
    }
}

/// Software-level results for a whole application.
#[derive(Debug, Clone, PartialEq)]
pub struct SvfAppResult {
    pub app: String,
    pub kernels: Vec<SvfKernelResult>,
}

impl SvfAppResult {
    fn instr_weighted(&self, f: impl Fn(&SvfKernelResult) -> ClassRates) -> ClassRates {
        ClassRates::weighted(self.kernels.iter().map(|k| (f(k), k.instrs)))
    }

    /// Application SVF: kernel SVF weighted by executed instructions
    /// (Section II-C's multi-kernel rule).
    pub fn app_svf(&self) -> ClassRates {
        self.instr_weighted(|k| k.svf())
    }

    pub fn app_svf_ld(&self) -> ClassRates {
        self.instr_weighted(|k| k.svf_ld())
    }
}

/// The software-level result of the standard SVF plan: [`assemble`]'s
/// table projected by (kernel, dest-value | dest-value-load).
pub fn assemble_sw(
    prep: &PreparedCampaign,
    records: &[TrialRecord],
) -> Result<SvfAppResult, EngineError> {
    let plan = &prep.plan;
    let [value, load] = SVF_KINDS.map(TrialTarget::Fault);
    if (plan.strata.iter()).any(|s| s.target != value && s.target != load) {
        return Err(EngineError::PlanMismatch(
            "assemble_sw expects the standard dest-value + dest-value-ld plan".into(),
        ));
    }
    let table = assemble(prep, records)?;
    let kernels = prep
        .bench()
        .kernels()
        .iter()
        .enumerate()
        .map(|(k_idx, k_name)| SvfKernelResult {
            kernel: k_name.to_string(),
            counts: project(plan, &table, k_idx, value).counts,
            counts_ld: project(plan, &table, k_idx, load).counts,
            instrs: prep.golden.kernel_stats(k_idx).thread_instrs,
        })
        .collect();
    Ok(SvfAppResult {
        app: plan.app.clone(),
        kernels,
    })
}

/// Run the software-level (NVBitFI model) campaign for one application:
/// destination-value injections plus the load-only SVF-LD variant.
pub fn run_sw_campaign(bench: &dyn Benchmark, cfg: &CampaignCfg, hardened: bool) -> SvfAppResult {
    let prep = prepare_sw_campaign(bench, cfg, hardened);
    let records = execute_shard(&prep, &EngineCfg::single_shot())
        .expect("single-shot execution performs no checkpoint I/O");
    assemble_sw(&prep, &records).expect("a single shard covers the whole plan")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{prepare_sw_campaign, prepare_uarch_campaign};
    use crate::records::records_fingerprint;
    use kernels::apps::va::Va;

    #[test]
    fn single_shot_sharded_and_limited_runs_agree() {
        let cfg = CampaignCfg::new(10, 10, 0xFEED);
        let single = run_sw_campaign(&Va, &cfg, false);
        let prep = prepare_sw_campaign(&Va, &cfg, false);
        let mut recs = Vec::new();
        for i in 0..4 {
            recs.extend(execute_shard(&prep, &EngineCfg::sharded(4, i)).unwrap());
        }
        assert_eq!(assemble_sw(&prep, &recs).unwrap(), single);
        assert_eq!(
            records_fingerprint(&recs),
            records_fingerprint(&execute_shard(&prep, &EngineCfg::single_shot()).unwrap())
        );
    }

    #[test]
    fn assembly_rejects_gaps_and_duplicates() {
        let cfg = CampaignCfg::new(4, 4, 1);
        let prep = prepare_sw_campaign(&Va, &cfg, false);
        let recs = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
        assert!(matches!(
            assemble_sw(&prep, &recs[1..]),
            Err(EngineError::IncompleteCover { missing: 1, .. })
        ));
        // An agreeing duplicate folds into the record already held.
        let mut dup = recs.clone();
        dup.push(TrialRecord {
            wall_us: recs[0].wall_us + 1,
            ..recs[0]
        });
        assert_eq!(
            assemble_sw(&prep, &dup).unwrap(),
            assemble_sw(&prep, &recs).unwrap()
        );
        let mut foreign = recs.clone();
        foreign[0].idx = prep.plan.len();
        assert!(matches!(
            assemble_sw(&prep, &foreign),
            Err(EngineError::ForeignTrial { .. })
        ));
    }

    #[test]
    fn an_interrupted_checkpoint_resumes_identically() {
        // The kill goes through `trial_limit`, which flushes at finish;
        // the flush interval's own edges are `CheckpointWriter`'s tests.
        let dir = std::env::temp_dir().join(format!("relia_ckpt_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CampaignCfg::new(4, 4, 3);
        let prep = prepare_uarch_campaign(&Va, &cfg, false);
        let single = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
        let expect = assemble_uarch(&prep, &single).unwrap();
        let path = dir.join("journal.jsonl");
        let interrupted = EngineCfg {
            checkpoint: Some(path.clone()),
            trial_limit: Some(5),
            ..EngineCfg::single_shot()
        };
        assert_eq!(execute_shard(&prep, &interrupted).unwrap().len(), 5);
        let resumed = EngineCfg {
            trial_limit: None,
            ..interrupted
        };
        let records = execute_resumable(&prep, &resumed).unwrap().records;
        assert_eq!(records.len(), prep.plan.len());
        assert_eq!(assemble_uarch(&prep, &records).unwrap(), expect);
        assert_eq!(records_fingerprint(&records), records_fingerprint(&single));
        // The finished checkpoint alone also carries the result.
        let ck = crate::checkpoint::load_checkpoint(&path).unwrap();
        assert_eq!(assemble_uarch(&prep, &ck.records).unwrap(), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumable_execution_finishes_a_partial_journal_and_loads_a_complete_one() {
        let dir = std::env::temp_dir().join(format!("relia_resumable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");
        let prep = prepare_sw_campaign(&Va, &CampaignCfg::new(4, 4, 9), false);
        let eng = |trial_limit| EngineCfg {
            checkpoint: Some(path.clone()),
            trial_limit,
            ..EngineCfg::single_shot()
        };
        let killed = execute_resumable(&prep, &eng(Some(3))).unwrap();
        assert_eq!((killed.records.len(), killed.resumed), (3, 0));
        // A header that also names the plan's inputs resumes all the same.
        let text = std::fs::read_to_string(&path).unwrap();
        let h = CheckpointHeader::for_plan(&prep.plan, 1, 0);
        let with_inputs = format!(
            "{{\"record\":\"plan\",\"app\":\"VA\",\"layer\":\"sw\",\"seed\":9,\"hardened\":false,\
             \"n\":4,\"trials\":{},\"shards\":1,\"shard_index\":0,\"fingerprint\":{}}}",
            h.trials, h.fingerprint
        );
        let text = text.replacen(&h.to_json(), &with_inputs, 1);
        assert!(text.starts_with(&with_inputs));
        std::fs::write(&path, text).unwrap();
        let finished = execute_resumable(&prep, &eng(None)).unwrap();
        assert_eq!(
            (finished.records.len(), finished.resumed),
            (prep.plan.len(), 3)
        );
        // Complete: the journal is the result, and is left as it is.
        let bytes = std::fs::read(&path).unwrap();
        let loaded = execute_resumable(&prep, &eng(Some(0))).unwrap();
        assert_eq!(loaded.resumed, prep.plan.len());
        assert_eq!(loaded.records, finished.records);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert_eq!(
            records_fingerprint(&loaded.records),
            records_fingerprint(&execute_shard(&prep, &EngineCfg::single_shot()).unwrap())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_shard_submissions_dedupe_to_single_shot() {
        // Execute shard 1 of 3 twice (as two racing workers would after a
        // lease reassignment); the concatenation has duplicates, the
        // record set folds them, and assembly equals the single-shot
        // result even though the re-execution's wall_us values differ.
        let cfg = CampaignCfg::new(6, 6, 0xD15);
        let prep = prepare_sw_campaign(&Va, &cfg, false);
        let single = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
        let mut all = Vec::new();
        for i in 0..3 {
            all.extend(execute_shard(&prep, &EngineCfg::sharded(3, i)).unwrap());
        }
        all.extend(execute_shard(&prep, &EngineCfg::sharded(3, 1)).unwrap());
        assert_eq!(
            assemble_sw(&prep, &all).unwrap(),
            assemble_sw(&prep, &single).unwrap()
        );
        let mut set = RecordSet::new(prep.plan.len());
        set.extend(&all).unwrap();
        let deduped = set.complete().unwrap();
        assert_eq!(records_fingerprint(&deduped), records_fingerprint(&single));

        // A conflicting duplicate is corruption, never silently merged.
        let mut bad = single.clone();
        let mut evil = bad[0];
        evil.outcome = match evil.outcome {
            Outcome::Masked => Outcome::Sdc,
            _ => Outcome::Masked,
        };
        bad.push(evil);
        assert!(matches!(
            assemble_sw(&prep, &bad),
            Err(EngineError::ConflictingDuplicate { idx }) if idx == bad[0].idx
        ));
    }

    #[test]
    fn execute_trials_streams_every_record_exactly_once() {
        let cfg = CampaignCfg::new(5, 5, 0x7E57);
        let prep = prepare_sw_campaign(&Va, &cfg, false);
        let idxs: Vec<usize> = (0..prep.plan.len()).step_by(2).collect();
        let streamed = Mutex::new(Vec::new());
        let got = execute_trials_with(&prep, FastForward::Timed, &idxs, |r| {
            streamed.lock().unwrap().push(*r);
            Ok(())
        })
        .unwrap();
        let mut streamed = streamed.into_inner().unwrap();
        streamed.sort_by_key(|r| r.idx);
        let mut got_sorted = got.clone();
        got_sorted.sort_by_key(|r| r.idx);
        assert_eq!(
            streamed, got_sorted,
            "sink saw exactly the returned records"
        );
        assert_eq!(
            streamed.iter().map(|r| r.idx).collect::<Vec<_>>(),
            idxs,
            "every requested index classified once"
        );
        // A sink error aborts the run.
        let err = execute_trials_with(&prep, FastForward::Timed, &idxs, |_| {
            Err(std::io::Error::other("sink down"))
        });
        assert!(err.is_err());
    }

    #[test]
    fn trial_limit_executes_exactly_that_many() {
        let cfg = CampaignCfg::new(4, 4, 2);
        let prep = prepare_sw_campaign(&Va, &cfg, false);
        let eng = EngineCfg {
            trial_limit: Some(3),
            ..EngineCfg::single_shot()
        };
        assert_eq!(execute_shard(&prep, &eng).unwrap().len(), 3);
    }
}
