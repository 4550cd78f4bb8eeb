//! Per-layer probes: standalone measurements of each layer's public
//! functions on a deterministic sample of the run's own planned trials.
//!
//! They run after the traced pass, outside every end-to-end metric.
//! Besides their own numbers they supply the durations of children that
//! run *inside* a callee the ledger brackets (the golden run inside
//! `prepare_*`), so the parent's self time can be derived by subtraction.

use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dispatch::{parse_frame, serve, work, CampaignSpec, DispatchCfg, Frame, WorkerCfg};
use kernels::{
    all_benchmarks, faulty_run, faulty_run_ff, golden_run, golden_run_snapshots, Outcome,
    PlannedFault, Variant,
};
use relia::{
    load_checkpoint, prepare_sw_campaign, prepare_uarch_campaign, CampaignCfg, CheckpointHeader,
    CheckpointWriter, EngineBackend, Layer, PlannedTrial, TrialRecord, DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_SNAPSHOTS,
};
use trace::{codec::decode_segment_lossy, record_app_trace, AppTrace, Verdict};
use vgpu_sim::{ArenaPlanner, FaultPattern, Gpu, GpuConfig, Mode};

use crate::stats::{median, percentile};
use crate::verify::golden_fingerprint;
use crate::workload::Sizes;

/// Fast-forward and software trials probed per application.
const TRIAL_SAMPLE: usize = 16;
/// Slow-oracle trials probed per application (each simulates the whole
/// application, so the sample is small; the issue allows up to 20).
const SLOW_SAMPLE: usize = 2;
/// Arena of the synthetic device the device-state operations are timed
/// on: the order of the suite's application arenas (0.3–5 MB).
const DEVICE_ARENA_BYTES: u32 = 4 << 20;
const DEVICE_REPS: usize = 15;
const FRAME_REPS: u32 = 20_000;
/// The dispatch loopback campaign: VA, uarch, n = 96, 2 shards.
const LOOPBACK_N: usize = 96;

/// What the probes learned about one application.
#[derive(Debug, Clone, Default)]
pub struct AppProbe {
    pub app: String,
    /// Standalone `golden_run` on the timed / functional engine.
    pub golden_timed: Duration,
    pub golden_functional: Duration,
    pub snapshot_capture: Duration,
    pub snapshot_bytes: u64,
    pub trace_capture: Duration,
    pub trace_bytes: u64,
    /// Planned uarch trials the trace adjudges dead ÷ trials adjudicated.
    pub dead_frac: f64,
}

#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub apps: Vec<AppProbe>,
    /// `(metric name, value)` in reporting order.
    pub metrics: Vec<(&'static str, f64)>,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (r, t0.elapsed())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Every `len / k`-th trial that has a fault to inject, at most `k`.
fn sample(trials: &[PlannedTrial], k: usize) -> Vec<(usize, PlannedFault)> {
    let stride = (trials.len() / k).max(1);
    trials
        .iter()
        .step_by(stride)
        .filter_map(|t| t.fault)
        .take(k)
        .collect()
}

pub fn run(sizes: &Sizes, seed: u64, tmp_dir: &Path) -> Probes {
    let gpu = GpuConfig::default();
    let cfg = CampaignCfg::new(sizes.n_avf, sizes.n_sw, seed);
    let mut out = Probes::default();

    let (mut cycles, mut timed_instrs, mut func_instrs) = (0u64, 0u64, 0u64);
    let mut stats_fp = 0u64;
    let (mut ff_us, mut slow_us, mut sw_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ff_sim, mut ff_total, mut ff_converged) = (0u64, 0u64, 0usize);
    let (mut index_build, mut decode) = (Duration::ZERO, Duration::ZERO);
    let (mut adjudicate, mut adjudications, mut dead) = (Duration::ZERO, 0usize, 0usize);
    let mut checkpoint = None;

    for bench in all_benchmarks() {
        let bench = bench.as_ref();
        let mut p = AppProbe {
            app: bench.name().to_string(),
            ..AppProbe::default()
        };

        // vgpu-sim / kernels: the golden run on both engines.
        let (golden_t, d) = timed(|| golden_run(bench, &gpu, Variant::TIMED));
        p.golden_timed = d;
        let (golden_f, d) = timed(|| golden_run(bench, &gpu, Variant::FUNCTIONAL));
        p.golden_functional = d;
        cycles += golden_t.total_cost;
        timed_instrs += golden_t.app_stats().thread_instrs;
        func_instrs += golden_f.app_stats().thread_instrs;
        stats_fp = stats_fp.rotate_left(7) ^ golden_fingerprint(&golden_t);
        stats_fp = stats_fp.rotate_left(7) ^ golden_fingerprint(&golden_f);

        // The plans the sampled trials come from.
        let prep_u = prepare_uarch_campaign(bench, &cfg, false);
        let prep_s = prepare_sw_campaign(bench, &cfg, false);

        // kernels: snapshot capture, then trials on each path.
        let (snaps, d) =
            timed(|| golden_run_snapshots(bench, &gpu, &prep_u.golden, DEFAULT_SNAPSHOTS));
        p.snapshot_capture = d;
        p.snapshot_bytes = snaps.bytes;
        let snaps = Arc::new(snaps);
        for (ordinal, fault) in sample(&prep_u.plan.trials, TRIAL_SAMPLE) {
            let (r, d) =
                timed(|| faulty_run_ff(bench, &gpu, &prep_u.golden, &snaps, ordinal, fault));
            ff_us.push(us(d));
            ff_sim += r.simulated_cost;
            ff_total += r.total_cost;
            ff_converged += r.converged as usize;
        }
        drop(snaps);
        for (ordinal, fault) in sample(&prep_u.plan.trials, SLOW_SAMPLE) {
            let ((), d) = timed(|| {
                faulty_run(bench, &gpu, Variant::TIMED, &prep_u.golden, ordinal, fault);
            });
            slow_us.push(us(d));
        }
        for (ordinal, fault) in sample(&prep_s.plan.trials, TRIAL_SAMPLE) {
            let ((), d) = timed(|| {
                faulty_run(
                    bench,
                    &gpu,
                    Variant::FUNCTIONAL,
                    &prep_s.golden,
                    ordinal,
                    fault,
                );
            });
            sw_us.push(us(d));
        }

        // trace: capture, decode, index, adjudicate every planned trial.
        let (tr, d) = timed(|| record_app_trace(bench, &gpu, &prep_u.golden));
        p.trace_capture = d;
        p.trace_bytes = tr.bytes;
        for blob in tr.blobs() {
            decode += timed(|| decode_segment_lossy(blob)).1;
        }
        let blobs = tr.blobs().to_vec();
        index_build += timed(|| AppTrace::from_blobs(blobs)).1;
        let (mut app_adjudications, mut app_dead) = (0usize, 0usize);
        let t0 = Instant::now();
        for t in &prep_u.plan.trials {
            if let Some((ordinal, PlannedFault::Uarch(u))) = &t.fault {
                app_adjudications += 1;
                let verdict = std::hint::black_box(tr.adjudicate(&gpu, *ordinal, u));
                app_dead += matches!(verdict, Verdict::Dead { .. }) as usize;
            }
        }
        adjudicate += t0.elapsed();
        adjudications += app_adjudications;
        dead += app_dead;
        p.dead_frac = app_dead as f64 / app_adjudications.max(1) as f64;

        if checkpoint.is_none() {
            checkpoint = Some(checkpoint_probe(&prep_u.plan, tmp_dir));
        }
        out.apps.push(p);
    }

    let sum = |f: fn(&AppProbe) -> Duration| out.apps.iter().map(f).sum::<Duration>();
    let golden_timed = sum(|p| p.golden_timed);
    let golden_functional = sum(|p| p.golden_functional);
    let trace_bytes: u64 = out.apps.iter().map(|p| p.trace_bytes).sum();
    let snapshot_bytes: u64 = out.apps.iter().map(|p| p.snapshot_bytes).sum();
    let (device_snapshot, restore_device, device_converged) = device_probe(&gpu);
    let (record_us, sync_ms, parse_us) = checkpoint.expect("the suite has applications");
    let (loopback_rps, frame_ns) = dispatch_probe(seed);
    let (_, ace) = timed(|| ace::estimate_suite(&all_benchmarks(), &gpu));

    let ns_per = |d: Duration, n: u64| d.as_secs_f64() * 1e9 / n.max(1) as f64;
    out.metrics = vec![
        (
            "vgpu-sim.functional.ns_per_thread_instr",
            ns_per(golden_functional, func_instrs),
        ),
        ("vgpu-sim.timed.ns_per_cycle", ns_per(golden_timed, cycles)),
        (
            "vgpu-sim.timed.ns_per_thread_instr",
            ns_per(golden_timed, timed_instrs),
        ),
        ("vgpu-sim.device_snapshot_us", device_snapshot),
        ("vgpu-sim.restore_device_us", restore_device),
        ("vgpu-sim.device_converged_us", device_converged),
        ("vgpu-sim.golden_cycles", cycles as f64),
        ("vgpu-sim.golden_thread_instrs", timed_instrs as f64),
        // 48 bits: exact in a JSON number.
        (
            "vgpu-sim.stats_fingerprint",
            (stats_fp & 0xffff_ffff_ffff) as f64,
        ),
        ("kernels.golden_timed_ms", ms(golden_timed)),
        ("kernels.golden_functional_ms", ms(golden_functional)),
        (
            "kernels.snapshot_capture_ms",
            ms(sum(|p| p.snapshot_capture)),
        ),
        ("kernels.snapshot_mb", snapshot_bytes as f64 / 1e6),
        ("kernels.ff_trial_us.p50", median(&ff_us)),
        ("kernels.ff_trial_us.p90", percentile(&ff_us, 90.0)),
        (
            "kernels.ff_simulated_share",
            ff_sim as f64 / ff_total.max(1) as f64,
        ),
        (
            "kernels.ff_converged_frac",
            ff_converged as f64 / ff_us.len().max(1) as f64,
        ),
        ("kernels.slow_trial_us.p50", median(&slow_us)),
        ("kernels.sw_trial_us.p50", median(&sw_us)),
        ("trace.capture_ms", ms(sum(|p| p.trace_capture))),
        ("trace.trace_mb", trace_bytes as f64 / 1e6),
        ("trace.index_build_ms", ms(index_build)),
        (
            "trace.decode_mb_per_s",
            trace_bytes as f64 / 1e6 / decode.as_secs_f64(),
        ),
        (
            "trace.adjudicate_us",
            us(adjudicate) / adjudications.max(1) as f64,
        ),
        ("trace.dead_frac", dead as f64 / adjudications.max(1) as f64),
        ("core.checkpoint.record_us", record_us),
        ("core.checkpoint.sync_ms", sync_ms),
        ("core.checkpoint.parse_us_per_record", parse_us),
        ("dispatch.loopback_records_per_s", loopback_rps),
        ("dispatch.frame_roundtrip_ns", frame_ns),
        ("ace.estimate_suite_ms", ms(ace)),
    ];
    out
}

/// `device_snapshot` / `restore_device` / `device_converged` on a
/// synthetic device: default geometry, a fixed arena filled through the
/// coherent host path so the L2 holds lines. The harness owns every real
/// application's `Gpu`, so application state cannot be reached from
/// outside; `kernels.snapshot_capture_ms` and `kernels.ff_trial_us`
/// carry the application-shaped cost of the same operations.
fn device_probe(cfg: &GpuConfig) -> (f64, f64, f64) {
    let mut planner = ArenaPlanner::new();
    let base = planner.alloc(DEVICE_ARENA_BYTES);
    let mut gpu = Gpu::new(cfg.clone(), planner.build(), Mode::Timed);
    let words: Vec<u32> = (0..DEVICE_ARENA_BYTES / 4)
        .map(|i| i.wrapping_mul(0x9e37_79b9))
        .collect();
    gpu.host_write_block(base, &words);
    let (mut snap_us, mut restore_us, mut converged_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..DEVICE_REPS {
        let (snap, d) = timed(|| gpu.device_snapshot());
        snap_us.push(us(d));
        restore_us.push(us(timed(|| gpu.restore_device(&snap)).1));
        let (same, d) = timed(|| gpu.device_converged(&snap));
        assert!(same, "a device just restored from a snapshot equals it");
        converged_us.push(us(d));
    }
    (median(&snap_us), median(&restore_us), median(&converged_us))
}

/// Journal one record per planned trial through `CheckpointWriter`, sync,
/// and parse the file back: (µs per `record`, ms per `flush_and_sync`,
/// µs per record parsed).
fn checkpoint_probe(plan: &relia::CampaignPlan, tmp_dir: &Path) -> (f64, f64, f64) {
    let path = tmp_dir.join("probe.checkpoint.jsonl");
    let header = CheckpointHeader::for_plan(plan, 1, 0);
    let records: Vec<TrialRecord> = (0..plan.len())
        .map(|idx| TrialRecord {
            idx,
            outcome: [Outcome::Masked, Outcome::Sdc, Outcome::Due][idx % 3],
            ctrl: idx % 5 == 0,
            wall_us: 1000 + idx as u64,
        })
        .collect();
    let run = || -> std::io::Result<(f64, f64, f64)> {
        let mut w = CheckpointWriter::create(&path, &header, DEFAULT_CHECKPOINT_EVERY)?;
        let t0 = Instant::now();
        for r in &records {
            w.record(r)?;
        }
        let record = t0.elapsed();
        let (synced, sync) = timed(|| w.flush_and_sync());
        synced?;
        let (loaded, parse) = timed(|| load_checkpoint(&path));
        let loaded = loaded.map_err(std::io::Error::other)?;
        assert_eq!(loaded.records, records, "checkpoint round trip");
        let n = records.len().max(1) as f64;
        Ok((us(record) / n, ms(sync), us(parse) / n))
    };
    let result = run();
    let _ = std::fs::remove_file(&path);
    result.unwrap_or_else(|e| panic!("checkpoint probe in {}: {e}", tmp_dir.display()))
}

/// In-process coordinator + one worker thread over 127.0.0.1, and the
/// frame codec alone: (records/s over the wire, ns per encode + parse).
fn dispatch_probe(seed: u64) -> (f64, f64) {
    let frame = Frame::Trial(TrialRecord {
        idx: 12_345,
        outcome: Outcome::Sdc,
        ctrl: false,
        wall_us: 4_321,
    });
    let t0 = Instant::now();
    for _ in 0..FRAME_REPS {
        let line = std::hint::black_box(frame.to_json());
        assert!(std::hint::black_box(parse_frame(&line)).is_some());
    }
    let frame_ns = t0.elapsed().as_secs_f64() * 1e9 / FRAME_REPS as f64;

    let spec = CampaignSpec {
        app: "VA".into(),
        layer: Layer::Uarch,
        n: LOOPBACK_N,
        seed,
        sms: GpuConfig::default().num_sms,
        hardened: false,
        structures: None,
        fault_model: FaultPattern::SingleBit,
        backend: EngineBackend::Timed,
        wave: None,
    };
    let bench = spec.find_bench().expect("VA is part of the suite");
    let prep = spec.prepare(bench.as_ref());
    let loopback = || -> Result<f64, Box<dyn std::error::Error>> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let cfg = DispatchCfg {
            shards: 2,
            ..DispatchCfg::default()
        };
        let t0 = Instant::now();
        let outcome = std::thread::scope(|s| {
            let worker = s.spawn(|| work(&addr, &WorkerCfg::default()));
            let outcome = serve(listener, &prep.plan, &spec, &cfg);
            let worked = worker.join().expect("worker thread does not panic");
            outcome.and_then(|o| worked.map(|_| o))
        })?;
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(
            outcome.records.len(),
            prep.plan.len(),
            "dispatch covers the plan"
        );
        Ok(outcome.records.len() as f64 / elapsed)
    };
    // A sandbox without loopback networking must not take the whole
    // traced run down: the rate is reported as 0 and the reason logged.
    let rps = loopback().unwrap_or_else(|e| {
        eprintln!("[ledger] dispatch loopback probe unavailable: {e}");
        0.0
    });
    (rps, frame_ns)
}
