//! The four workloads, each one *pass* at a time.
//!
//! A pass runs one campaign per application (all 11, in
//! `kernels::all_benchmarks` order; the adaptive workload one per
//! application and seed) through the same public call chain
//! `campaign run` uses — `prepare_*_campaign` → forced capture →
//! `execute_shard` → `assemble_*` — with every call bracketed by the
//! [`Tracer`]. The bracketed durations *are* the end-to-end metrics; in a
//! traced run the same brackets also record spans.
//!
//! Closed loop, one process: a campaign starts when the previous one has
//! been assembled and verified. Verification runs between campaigns,
//! inside `ledger.verify` brackets that are subtracted from every metric.

use std::path::{Path, PathBuf};
use std::time::Duration;

use kernels::{all_benchmarks, Benchmark};
use relia::{
    assemble_sw, assemble_uarch, execute_shard, prepare_sw_campaign, prepare_uarch_campaign,
    records_fingerprint, CampaignCfg, EngineBackend, EngineCfg, EngineError, Layer,
    PreparedCampaign, TrialRecord, DEFAULT_SNAPSHOTS,
};
use stat::{run_adaptive, uarch_targets, AdaptiveCfg};
use trace::Verdict;

use crate::span::Tracer;
use crate::stats::median;
use crate::verify::{self, Pins};

/// Default `--seed`; the one `expected/seed7.json` pins.
pub const DEFAULT_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    AvfReplay,
    AvfTimed,
    SvfSw,
    AvfAdaptive,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "avf_replay",
        kind: Kind::AvfReplay,
    },
    Workload {
        name: "avf_timed",
        kind: Kind::AvfTimed,
    },
    Workload {
        name: "svf_sw",
        kind: Kind::SvfSw,
    },
    Workload {
        name: "avf_adaptive",
        kind: Kind::AvfAdaptive,
    },
];

pub fn find_workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Campaign sizes. [`Sizes::FROZEN`] is the benchmark; changing it
/// redefines every number the ledger has ever reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Injections per (kernel, structure) in `avf_replay` / `avf_timed`.
    pub n_avf: usize,
    /// Injections per (kernel, sw fault kind) in `svf_sw`.
    pub n_sw: usize,
    pub adaptive: AdaptiveCfg,
    /// `avf_adaptive` runs every application on seeds S .. S + this.
    pub adaptive_seeds: u64,
    /// Times a fixed-n campaign is set up; its `setup_s` is the median.
    pub setup_reps: usize,
}

impl Sizes {
    /// Calibrated once so that the one pass a run measures lasts 10–20 s
    /// on 2 cores (README, "Sizes").
    pub const FROZEN: Sizes = Sizes {
        n_avf: 72,
        n_sw: 120,
        adaptive: AdaptiveCfg {
            ci_target: 0.10,
            wave_size: 8,
            max_per_stratum: 64,
            conf: relia::Confidence::C95,
        },
        adaptive_seeds: 2,
        // Set-up is where the sandbox's noise lands: trace and snapshot
        // capture take fresh pages by the hundred MB, and every minute or
        // so the host stalls a page fault for a second or more. One stall
        // moves one repetition; the median of three ignores it.
        setup_reps: 3,
    };

    /// `ledger smoke`: every code path, two injections per target.
    pub const SMOKE: Sizes = Sizes {
        n_avf: 2,
        n_sw: 2,
        adaptive: AdaptiveCfg {
            ci_target: 0.10,
            wave_size: 2,
            max_per_stratum: 4,
            conf: relia::Confidence::C95,
        },
        adaptive_seeds: 1,
        setup_reps: 1,
    };
}

/// Everything measured about one application's campaign.
#[derive(Debug, Clone, Default)]
pub struct AppRun {
    pub app: String,
    /// Campaign seed (the pass's; the adaptive workload runs several).
    pub seed: u64,
    /// Planned trials (executed trials for the adaptive workload).
    pub trials: usize,
    /// `setup_s` plus the time from the end of set-up to the last
    /// `assemble_*` return, verification excluded.
    pub wall_s: f64,
    /// `prepare_*` + forced capture, the campaign's fixed cost: median
    /// of `Sizes::setup_reps` set-ups (adaptive: the one sum over waves).
    pub setup_s: f64,
    /// Forced `snapshots(k)` / `trace()` capture (part of `setup_s`).
    pub capture_s: f64,
    /// Seconds inside `execute_shard`.
    pub execute_s: f64,
    pub assemble_s: f64,
    /// `records_fingerprint` (adaptive: `AdaptiveResult::records_fp`).
    pub fingerprint: u64,
    pub snapshot_bytes: u64,
    pub trace_bytes: u64,
    /// Adaptive waves executed (0 for fixed-n workloads).
    pub waves: u64,
    /// Trials that failed verification or never produced a record.
    pub failed: usize,
    /// Traced runs only: `(TrialRecord::wall_us, adjudged dead?)` per
    /// trial; the label is `None` where no trace applies.
    pub trial_walls: Vec<(u64, Option<bool>)>,
    /// Traced runs only: span to hang the standalone golden probe under
    /// (`core.prepare`, or `stat.run_adaptive` which prepares per wave).
    pub golden_parent: Option<usize>,
}

/// One pass: every campaign of the workload once.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub apps: Vec<AppRun>,
}

impl Pass {
    fn sum(&self, f: impl Fn(&AppRun) -> f64) -> f64 {
        self.apps.iter().map(f).sum()
    }
    pub fn wall_s(&self) -> f64 {
        self.sum(|a| a.wall_s)
    }
    pub fn setup_s(&self) -> f64 {
        self.sum(|a| a.setup_s)
    }
    pub fn execute_s(&self) -> f64 {
        self.sum(|a| a.execute_s)
    }
    pub fn assemble_s(&self) -> f64 {
        self.sum(|a| a.assemble_s)
    }
    pub fn trials(&self) -> usize {
        self.apps.iter().map(|a| a.trials).sum()
    }
    pub fn failed(&self) -> usize {
        self.apps.iter().map(|a| a.failed).sum()
    }
    pub fn waves(&self) -> u64 {
        self.apps.iter().map(|a| a.waves).sum()
    }
    /// Planned trials ÷ seconds inside `execute_shard`.
    pub fn trials_per_s(&self) -> f64 {
        self.trials() as f64 / self.execute_s()
    }
}

/// How a pass's records are checked.
pub enum Check<'a> {
    /// Pinned fingerprint where `expected/` has one for the campaign,
    /// else a 1-in-16 strided slice re-executed on the slow oracle.
    Oracle(&'a Pins),
    /// Same seed as an earlier, already verified pass: fingerprints must
    /// repeat app by app (tracing and metrics must not change results).
    SameAs(&'a Pass),
    /// The discarded warm-up pass: nothing of it is reported.
    Unchecked,
}

pub struct PassCtx<'a> {
    pub tracer: &'a mut Tracer,
    pub sizes: &'a Sizes,
    pub threads: usize,
    /// Scratch directory for the adaptive workload's wave journals; the
    /// caller removes it when the run ends.
    pub tmp_dir: &'a Path,
    pub check: Check<'a>,
}

pub fn run_pass(kind: Kind, seed: u64, ctx: &mut PassCtx<'_>) -> Pass {
    let mut pass = Pass::default();
    let seeds = match kind {
        Kind::AvfAdaptive => seed..seed + ctx.sizes.adaptive_seeds,
        _ => seed..seed + 1,
    };
    for bench in all_benchmarks() {
        let bench = bench.as_ref();
        for seed in seeds.clone() {
            ctx.tracer.set_campaign(format!("{}#{seed}", bench.name()));
            let mut run = match kind {
                Kind::AvfAdaptive => adaptive_campaign(bench, seed, ctx),
                _ => fixed_campaign(kind, bench, seed, ctx),
            };
            if let Check::SameAs(first) = &ctx.check {
                let before = first.apps[pass.apps.len()].fingerprint;
                if before != run.fingerprint {
                    eprintln!(
                        "[ledger] FAIL {} seed {seed}: fingerprint {:#018x} differs from the \
                         traced pass's {before:#018x}",
                        run.app, run.fingerprint
                    );
                    run.failed = run.trials;
                }
            }
            pass.apps.push(run);
        }
    }
    pass
}

fn campaign_cfg(n: usize, seed: u64, timed_trials: bool) -> CampaignCfg {
    let mut cfg = CampaignCfg::new(n, n, seed);
    if timed_trials {
        // A wall limit nothing can reach: its only effect is that the
        // engine fills `TrialRecord::wall_us`, which it otherwise leaves
        // 0 — per-trial times without touching the crates.
        cfg.watchdog.wall_us_limit = Some(u64::MAX);
    }
    cfg
}

/// A whole-campaign engine failure: no trial of it counts as done.
fn engine_failure(run: &mut AppRun, planned: usize, what: &str, e: &EngineError) {
    eprintln!("[ledger] FAIL {}: {what}: {e}", run.app);
    run.trials = planned.max(1);
    run.failed = run.trials;
}

/// One set-up of a fixed-n campaign: `prepare_*` plus the forced capture
/// of everything the engine would otherwise capture lazily inside
/// `execute_shard`.
struct SetUp<'a> {
    prep: PreparedCampaign<'a>,
    prepare: Duration,
    /// Span of the `prepare_*` call, when recording.
    prepare_id: Option<usize>,
    capture: Duration,
    trace_bytes: u64,
    snapshot_bytes: u64,
}

fn set_up<'a>(
    kind: Kind,
    bench: &'a dyn Benchmark,
    cfg: &'a CampaignCfg,
    tr: &mut Tracer,
) -> SetUp<'a> {
    let open = tr.begin("core.prepare");
    let prep = match kind {
        Kind::SvfSw => prepare_sw_campaign(bench, cfg, false),
        _ => prepare_uarch_campaign(bench, cfg, false),
    };
    let (prepare, prepare_id) = tr.end(open);
    let (mut capture, mut trace_bytes, mut snapshot_bytes) = (Duration::ZERO, 0, 0);
    if kind == Kind::AvfReplay {
        let (bytes, d) = tr.time("trace.capture", || prep.trace().map_or(0, |t| t.bytes));
        trace_bytes = bytes;
        capture += d;
    }
    if kind != Kind::SvfSw {
        let (bytes, d) = tr.time("kernels.snapshot_capture", || {
            prep.snapshots(DEFAULT_SNAPSHOTS).map_or(0, |s| s.bytes)
        });
        snapshot_bytes = bytes;
        capture += d;
    }
    SetUp {
        prep,
        prepare,
        prepare_id,
        capture,
        trace_bytes,
        snapshot_bytes,
    }
}

fn fixed_campaign(kind: Kind, bench: &dyn Benchmark, seed: u64, ctx: &mut PassCtx<'_>) -> AppRun {
    let tracing = ctx.tracer.recording();
    let n = match kind {
        Kind::SvfSw => ctx.sizes.n_sw,
        _ => ctx.sizes.n_avf,
    };
    let cfg = campaign_cfg(n, seed, tracing);
    let mut run = AppRun {
        app: bench.name().to_string(),
        seed,
        ..AppRun::default()
    };
    let tr = &mut *ctx.tracer;

    // All but the last set-up are only timed: no spans, and each is
    // dropped before the next starts, so the peak is one set-up's.
    let mut setups: Vec<f64> = (1..ctx.sizes.setup_reps)
        .map(|_| {
            let s = set_up(kind, bench, &cfg, &mut Tracer::new(false));
            (s.prepare + s.capture).as_secs_f64()
        })
        .collect();

    let root = tr.begin("ledger.campaign");
    let SetUp {
        prep,
        prepare,
        prepare_id,
        capture,
        trace_bytes,
        snapshot_bytes,
    } = set_up(kind, bench, &cfg, tr);
    setups.push((prepare + capture).as_secs_f64());
    run.golden_parent = prepare_id;
    run.trials = prep.plan.len();
    run.trace_bytes = trace_bytes;
    run.snapshot_bytes = snapshot_bytes;

    let eng = EngineCfg {
        backend: match kind {
            Kind::AvfReplay => EngineBackend::Replay,
            _ => EngineBackend::Timed,
        },
        ..EngineCfg::single_shot()
    };
    let open = tr.begin("core.execute");
    let executed = execute_shard(&prep, &eng);
    let (execute, execute_id) = tr.end(open);

    let (assembled, assemble) = match &executed {
        Ok(records) => tr.time("core.assemble", || match prep.plan.layer {
            Layer::Uarch => assemble_uarch(&prep, records).map(drop),
            Layer::Sw => assemble_sw(&prep, records).map(drop),
        }),
        Err(_) => (Ok(()), Duration::ZERO),
    };
    let (wall, _) = tr.end(root);

    run.capture_s = capture.as_secs_f64();
    run.setup_s = median(&setups);
    run.wall_s = run.setup_s + wall.saturating_sub(prepare + capture).as_secs_f64();
    run.execute_s = execute.as_secs_f64();
    run.assemble_s = assemble.as_secs_f64();
    let records = match (executed, assembled) {
        (Ok(records), Ok(())) => records,
        (Err(e), _) => {
            engine_failure(&mut run, prep.plan.len(), "execute_shard", &e);
            return run;
        }
        (_, Err(e)) => {
            engine_failure(&mut run, prep.plan.len(), "assemble", &e);
            return run;
        }
    };
    run.fingerprint = records_fingerprint(&records);

    // Everything below is outside the campaign interval.
    let ((), _) = tr.time("ledger.verify", || {
        if let Check::Oracle(pins) = &ctx.check {
            run.failed = verify::check_fixed(pins, &prep, &records, run.fingerprint);
        }
        if tracing {
            run.trial_walls = label_trials(&prep, &records, kind);
        }
    });
    if let Some(id) = execute_id {
        attribute_execute(tr, id, &run.trial_walls, kind, ctx.threads);
    }
    run
}

/// Label each trial dead/live the way the replay backend would see it —
/// from outside, by asking the trace. `avf_timed` never captures a trace
/// itself, so one is captured here (outside the campaign interval) purely
/// to tell which of its simulated trials replay would have skipped.
fn label_trials(
    prep: &PreparedCampaign<'_>,
    records: &[TrialRecord],
    kind: Kind,
) -> Vec<(u64, Option<bool>)> {
    let trace = match kind {
        Kind::AvfReplay | Kind::AvfTimed => prep.trace(),
        _ => None,
    };
    records
        .iter()
        .map(|r| {
            let dead = trace.and_then(|tr| match &prep.plan.trials[r.idx].fault {
                None => None,
                Some((ordinal, kernels::PlannedFault::Uarch(u))) => Some(matches!(
                    tr.adjudicate(&prep.cfg.gpu, *ordinal, u),
                    Verdict::Dead { .. }
                )),
                Some((_, kernels::PlannedFault::Sw(_))) => None,
            });
            (r.wall_us, dead)
        })
        .collect()
}

/// Split an `execute_shard` span between the layers that ran inside it:
/// Σ per-trial wall ÷ threads is the time the workers spent simulating
/// (kernels + vgpu-sim) or, under replay, adjudicating (trace); what is
/// left is the engine's own — sorting, chunk imbalance, thread start-up,
/// journal I/O.
fn attribute_execute(
    tr: &mut Tracer,
    execute_span: usize,
    walls: &[(u64, Option<bool>)],
    kind: Kind,
    threads: usize,
) {
    let workers = threads.min(walls.len()).max(1) as u64;
    let (mut adjudged_us, mut simulated_us) = (0u64, 0u64);
    for &(us, dead) in walls {
        if kind == Kind::AvfReplay && dead == Some(true) {
            adjudged_us += us;
        } else {
            simulated_us += us;
        }
    }
    tr.add_synthetic(
        execute_span,
        "kernels.trials",
        Duration::from_micros(simulated_us / workers),
    );
    if adjudged_us > 0 {
        tr.add_synthetic(
            execute_span,
            "trace.adjudicate",
            Duration::from_micros(adjudged_us / workers),
        );
    }
}

fn wave_journal(dir: &Path, app: &str, seed: u64, wave: u64) -> PathBuf {
    dir.join(format!("{app}.{seed}.wave{wave}.jsonl"))
}

fn adaptive_campaign(bench: &dyn Benchmark, seed: u64, ctx: &mut PassCtx<'_>) -> AppRun {
    let tracing = ctx.tracer.recording();
    let cfg = campaign_cfg(0, seed, tracing);
    let acfg = ctx.sizes.adaptive;
    let pinned = match &ctx.check {
        Check::Oracle(pins) => pins.has_adaptive(bench.name(), &acfg, seed),
        Check::SameAs(_) | Check::Unchecked => true,
    };
    let mut run = AppRun {
        app: bench.name().to_string(),
        seed,
        ..AppRun::default()
    };
    let tr = &mut *ctx.tracer;
    let threads = ctx.threads;
    let tmp_dir = ctx.tmp_dir;

    // What happened inside the per-wave closure; the rest of
    // `run_adaptive` is wave set-up (`prepare_adaptive_wave` re-runs the
    // golden execution every wave) plus the estimator's own bookkeeping.
    let (mut capture, mut execute, mut verifying, mut in_closure) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let mut assemble = Duration::ZERO;
    let mut failed = 0usize;

    let root = tr.begin("ledger.campaign");
    let open = tr.begin("stat.run_adaptive");
    let result = run_adaptive(
        bench,
        &cfg,
        false,
        Layer::Uarch,
        &uarch_targets(),
        &acfg,
        |prep, wave| {
            let whole = tr.begin("ledger.wave");
            let (bytes, d) = tr.time("kernels.snapshot_capture", || {
                prep.snapshots(DEFAULT_SNAPSHOTS).map_or(0, |s| s.bytes)
            });
            run.snapshot_bytes = run.snapshot_bytes.max(bytes);
            capture += d;
            let eng = EngineCfg {
                checkpoint: Some(wave_journal(tmp_dir, bench.name(), seed, wave)),
                ..EngineCfg::single_shot()
            };
            let open = tr.begin("core.execute");
            let records = execute_shard(prep, &eng);
            let (d, execute_id) = tr.end(open);
            execute += d;
            let records = records?;
            if let Some(id) = execute_id {
                let walls: Vec<_> = records.iter().map(|r| (r.wall_us, None)).collect();
                run.trial_walls.extend_from_slice(&walls);
                attribute_execute(tr, id, &walls, Kind::AvfAdaptive, threads);
            }
            let ((), d) = tr.time("ledger.verify", || {
                if wave == 0 {
                    // `run_adaptive` assembles wave 0 itself, inside the
                    // callee; repeat it here on the same inputs so the
                    // cost has a number.
                    let t0 = std::time::Instant::now();
                    let _ = assemble_uarch(prep, &records);
                    assemble = t0.elapsed();
                }
                if !pinned {
                    failed += verify::oracle_slice(prep, &records);
                }
            });
            verifying += d;
            in_closure += tr.end(whole).0;
            Ok(records)
        },
    );
    let (total, adaptive_id) = tr.end(open);
    let _ = tr.end(root);
    run.golden_parent = adaptive_id;

    let wave_setup = total.saturating_sub(in_closure);
    run.wall_s = total.saturating_sub(verifying).as_secs_f64();
    run.capture_s = capture.as_secs_f64();
    run.setup_s = (wave_setup + capture).as_secs_f64();
    run.execute_s = execute.as_secs_f64();
    run.assemble_s = assemble.as_secs_f64();
    match result {
        Ok(res) => {
            run.trials = res.total_trials();
            run.waves = res.waves;
            run.fingerprint = res.records_fp;
            run.failed = failed;
            if let Check::Oracle(pins) = &ctx.check {
                if pinned
                    && !pins.adaptive_matches(bench.name(), &acfg, seed, res.records_fp, res.waves)
                {
                    run.failed = run.trials;
                }
            }
            if let Some(id) = adaptive_id {
                tr.add_synthetic(id, "core.assemble", assemble);
            }
        }
        Err(e) => engine_failure(&mut run, 0, "run_adaptive", &e),
    }
    run
}
