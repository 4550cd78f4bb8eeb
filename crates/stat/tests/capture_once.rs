//! Captured once per application: every wave of an adaptive campaign is
//! planned against one `AppCaptures` handle, so the golden run and the
//! capture pass (snapshot set, access trace or CTA log) happen once per
//! campaign instead of once per wave — lazily, per-plan eligible, freed
//! with the handle, and without moving a plan or a record.
//!
//! A test binary of its own: the metrics registry, which holds the span
//! counts, is process-global, so every test here holds [`observed`]'s
//! lock and starts it from zero.

use std::sync::{Arc, Mutex, MutexGuard};

use kernels::apps::va::Va;
use relia::{
    execute_resumable, execute_shard, execute_trials_with, plan_sw, plan_uarch, plan_wave,
    records_fingerprint, AppCaptures, CampaignCfg, EngineCfg, EngineError, FastForward, Layer,
    PreparedCampaign, StratumSpec, TrialRecord, TrialTarget, DEFAULT_SNAPSHOTS, SVF_KINDS,
};
use stat::{run_adaptive, sw_targets, uarch_targets, AdaptiveCfg, AdaptiveResult};
use vgpu_arch::InstrClass;
use vgpu_sim::{FaultPattern, HwStructure, SwFaultKind};

static OBS: Mutex<()> = Mutex::new(());

/// Serialise the tests of this binary and switch observability on, every
/// counter at zero.
fn observed() -> MutexGuard<'static, ()> {
    let guard = OBS.lock().unwrap_or_else(|e| e.into_inner());
    reset_counters();
    guard
}

fn reset_counters() {
    obs::reset_for_test();
    obs::set_enabled(true);
}

/// Calls of span `name` so far: the count of its `span_us` histogram.
fn calls(name: &str) -> u64 {
    let key = format!("span_us{{span={name}}}");
    let snap = obs::global().snapshot();
    let found = snap.histograms.iter().find(|(k, _)| *k == key);
    found.map_or(0, |(_, h)| h.count)
}

fn cfg() -> CampaignCfg {
    CampaignCfg::new(0, 0, 0xD0_0D)
}

fn acfg() -> AdaptiveCfg {
    AdaptiveCfg::new(0.1, 4, 48)
}

/// The standard uarch adaptive campaign of VA, waves executed by `exec`.
fn adaptive_uarch(
    exec: impl FnMut(&PreparedCampaign, u64) -> Result<Vec<TrialRecord>, EngineError>,
) -> AdaptiveResult {
    let targets = uarch_targets();
    run_adaptive(&Va, &cfg(), false, Layer::Uarch, &targets, &acfg(), exec).unwrap()
}

#[test]
fn a_campaign_of_many_waves_runs_golden_and_captures_once() {
    let _obs = observed();
    for (layer, backend, capture, kind, gauge) in [
        (
            Layer::Uarch,
            FastForward::Timed,
            "kernels.snapshot_capture",
            "snapshots",
            "snapshot_bytes{app=VA,layer=uarch,",
        ),
        (
            Layer::Uarch,
            FastForward::Replay,
            "trace.capture",
            "trace",
            "trace_bytes{app=VA,layer=uarch,",
        ),
        (
            Layer::Sw,
            FastForward::Timed,
            "kernels.cta_log_capture",
            "cta_log",
            "cta_log_bytes{app=VA,layer=sw,",
        ),
    ] {
        reset_counters();
        let events = std::env::temp_dir().join(format!(
            "relia_capture_once_{}_{kind}.jsonl",
            std::process::id()
        ));
        obs::init_events(&events).unwrap();
        let targets = match layer {
            Layer::Uarch => uarch_targets(),
            Layer::Sw => sw_targets(),
        };
        let eng = EngineCfg {
            backend,
            ..EngineCfg::single_shot()
        };
        // The unprotected application, then its TMR variant: a handle
        // each, captured once each, reported side by side.
        for (campaigns, hardened) in [(1, false), (2, true)] {
            let variant = if hardened { "tmr" } else { "base" };
            let what = format!("{variant} {} on {}", layer.label(), backend.label());
            let res = run_adaptive(
                &Va,
                &cfg(),
                hardened,
                layer,
                &targets,
                &acfg(),
                |prep, _| execute_shard(prep, &eng),
            )
            .unwrap();
            assert!(res.waves >= 3, "{what}: only {} waves", res.waves);
            assert_eq!(calls("kernels.golden"), campaigns, "{what}: golden runs");
            assert_eq!(calls(capture), campaigns, "{what}: {kind} captures");
            // Replay defers the snapshot set to its first fallback; it is
            // still one set per campaign.
            assert!(calls("kernels.snapshot_capture") <= campaigns, "{what}");
            // Every wave after the capturing one was served from the cell.
            let reused = obs::global().snapshot().counter(&format!(
                "captures_reused_total{{app=VA,kind={kind},variant={variant}}}"
            ));
            assert_eq!(reused, Some(res.waves - 1), "{what}: reuses");
        }
        // Neither handle's gauge replaced the other's, and the log holds
        // one snapshot event per (app, variant).
        let gauges = obs::global().snapshot().gauges;
        let bytes = |variant: &str| {
            let key = format!("{gauge}variant={variant}}}");
            let found = gauges.iter().find(|(k, _)| *k == key);
            found.unwrap_or_else(|| panic!("no {key} in {gauges:?}")).1
        };
        assert!(
            bytes("tmr") > bytes("base"),
            "{kind}: three copies cost more"
        );
        if capture == "trace.capture" {
            let index = |variant: &str| {
                let key = format!("trace_index_bytes{{app=VA,layer=uarch,variant={variant}}}");
                gauges.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
            };
            assert!(index("tmr") > index("base"), "{gauges:?}");
            assert!(index("base") > Some(0), "{gauges:?}");
        }
        obs::flush_events().unwrap();
        let log = std::fs::read_to_string(&events).unwrap();
        let snapshot_events: Vec<&str> = (log.lines())
            .filter(|l| l.contains("\"record\":\"snapshot\""))
            .collect();
        let of = |hardened: bool| {
            let field = format!("\"hardened\":{hardened}");
            snapshot_events
                .iter()
                .filter(|l| l.contains(&field))
                .count() as u64
        };
        assert!(of(false) <= 1 && of(true) <= 1, "{kind}: {log}");
        assert_eq!(
            of(false) + of(true),
            calls("kernels.snapshot_capture"),
            "{kind}"
        );
        let _ = std::fs::remove_file(&events);
    }
}

#[test]
fn shared_captures_move_no_plan_and_no_record() {
    let _obs = observed();
    for (layer, targets) in [(Layer::Uarch, uarch_targets()), (Layer::Sw, sw_targets())] {
        let (cfg, acfg) = (cfg(), acfg());
        let shared = run_adaptive(&Va, &cfg, false, layer, &targets, &acfg, |prep, _| {
            execute_shard(prep, &EngineCfg::single_shot())
        })
        .unwrap();
        // The same campaign with every wave re-planned on captures of its
        // own and executed on the oracle path.
        let standalone = run_adaptive(&Va, &cfg, false, layer, &targets, &acfg, |prep, wave| {
            let own = AppCaptures::new(&Va, &cfg.gpu, layer, false);
            let fresh = plan_wave(&own, &cfg, &prep.plan.strata, wave);
            assert_eq!(fresh.plan.trials, prep.plan.trials);
            let all: Vec<usize> = (0..fresh.plan.len()).collect();
            Ok(execute_trials_with(
                &fresh,
                FastForward::Oracle,
                &all,
                |_| Ok(()),
            )?)
        })
        .unwrap();
        assert_eq!(shared, standalone, "{}", layer.label());
    }
}

/// What the journaled driver does for the fault-model study: the
/// campaigns of every pattern of an application are planned against one
/// handle per layer (the pattern feeds neither seed derivation nor the
/// golden run). What a pattern measures must not depend on which campaigns
/// shared its captures, and a persistent pattern must reach the injector.
#[test]
fn a_patterns_records_do_not_depend_on_which_campaigns_shared_its_captures() {
    let _obs = observed();
    let base = CampaignCfg::new(6, 6, 0x5A5A);
    let run = |captures: &Arc<AppCaptures>, pattern: FaultPattern| {
        let cfg = CampaignCfg {
            pattern,
            ..base.clone()
        };
        let prep = match captures.layer() {
            Layer::Uarch => plan_uarch(captures, &cfg, &HwStructure::ALL),
            Layer::Sw => plan_sw(captures, &cfg, &SVF_KINDS),
        };
        // (index, outcome, ctrl) of every trial: a record minus its wall time.
        let records = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
        let outcomes: Vec<_> = records.iter().map(|r| r.outcome).collect();
        (records_fingerprint(&records), outcomes)
    };
    let patterns = [
        FaultPattern::BurstRow,
        FaultPattern::StuckAt0,
        FaultPattern::SingleBit,
        FaultPattern::StuckAt1,
    ];
    for layer in [Layer::Uarch, Layer::Sw] {
        let shared = AppCaptures::new(&Va, &base.gpu, layer, false);
        let first: Vec<_> = patterns.iter().map(|&p| run(&shared, p)).collect();
        // Rerun on captures of its own, one pattern at a time.
        for (&pattern, records) in patterns[..2].iter().zip(&first) {
            let own = AppCaptures::new(&Va, &base.gpu, layer, false);
            assert_eq!(run(&own, pattern), *records, "{}", pattern.label());
        }
        if layer == Layer::Uarch {
            assert_ne!(
                first[2].1, first[3].1,
                "stuck-at-1 outcomes identical to single-bit: the pattern is not reaching \
                 the injector"
            );
        }
    }
    assert_eq!(calls("kernels.golden"), 2 * 3, "one per handle");
    assert_eq!(calls("kernels.snapshot_capture"), 3, "one per uarch handle");
}

#[test]
fn a_run_resumed_from_complete_journals_captures_nothing() {
    let _obs = observed();
    let dir = std::env::temp_dir().join(format!("relia_capture_once_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = |wave: u64| dir.join(format!("wave{wave}.jsonl"));
    let first = adaptive_uarch(|prep, wave| {
        let eng = EngineCfg {
            checkpoint: Some(journal(wave)),
            ..EngineCfg::single_shot()
        };
        execute_shard(prep, &eng)
    });
    assert_eq!(calls("kernels.snapshot_capture"), 1);

    reset_counters();
    // What `campaign run --adaptive --checkpoint` does with complete
    // journals: each is loaded, and nothing is captured or simulated.
    let resumed = adaptive_uarch(|prep, wave| {
        let eng = EngineCfg {
            checkpoint: Some(journal(wave)),
            ..EngineCfg::single_shot()
        };
        let run = execute_resumable(prep, &eng)?;
        assert_eq!(run.resumed, prep.plan.len(), "wave {wave} was loaded");
        Ok(run.records)
    });
    assert_eq!(first, resumed);
    assert_eq!(calls("kernels.golden"), 1, "planning needs the golden run");
    for capture in [
        "kernels.snapshot_capture",
        "trace.capture",
        "kernels.cta_log_capture",
    ] {
        assert_eq!(calls(capture), 0, "{}", capture);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_plan_with_nothing_to_inject_neither_captures_nor_stops_the_next() {
    let _obs = observed();
    let cfg = cfg();
    let captures = AppCaptures::new(&Va, &cfg.gpu, Layer::Sw, false);
    // VA writes no register from some instruction classes.
    let populations = captures.golden().kernel_stats(0).class_dest_instrs;
    let class_wave = |populated: bool, wave: u64| {
        let class = (InstrClass::ALL.iter())
            .find(|c| (populations[c.index().unwrap()] > 0) == populated)
            .expect("VA has both empty and populated classes");
        let stratum = StratumSpec {
            kernel_idx: 0,
            target: TrialTarget::Fault(SwFaultKind::DestClass(*class)),
            start: 0,
            count: 4,
        };
        plan_wave(&captures, &cfg, &[stratum], wave)
    };
    let idle = class_wave(false, 0);
    assert!(idle.plan.trials.iter().all(|t| t.fault.is_none()));
    execute_shard(&idle, &EngineCfg::single_shot()).unwrap();
    assert!(idle.cta_log().is_none());
    assert_eq!(calls("kernels.cta_log_capture"), 0);

    let busy = class_wave(true, 1);
    execute_shard(&busy, &EngineCfg::single_shot()).unwrap();
    assert!(busy.cta_log().is_some(), "the idle plan pinned a None");
    assert_eq!(calls("kernels.cta_log_capture"), 1);
    // Eligibility is the plan's: the capture does not make the idle plan
    // accelerable after the fact.
    assert!(idle.cta_log().is_none());
    assert_eq!(calls("kernels.golden"), 1);
}

#[test]
fn dropping_the_plans_and_the_handle_frees_the_store() {
    let _obs = observed();
    let cfg = cfg();
    let captures = AppCaptures::new(&Va, &cfg.gpu, Layer::Uarch, false);
    let wave = |w: u64| {
        let stratum = StratumSpec {
            kernel_idx: 0,
            target: TrialTarget::Structure(HwStructure::RegFile),
            start: 4 * w as usize,
            count: 4,
        };
        plan_wave(&captures, &cfg, &[stratum], w)
    };
    let (a, b) = (wave(0), wave(1));
    let store = Arc::downgrade(a.snapshots(DEFAULT_SNAPSHOTS).unwrap());
    assert!(
        Arc::ptr_eq(
            b.snapshots(DEFAULT_SNAPSHOTS).unwrap(),
            &store.upgrade().unwrap()
        ),
        "two plans of one handle, two stores"
    );
    let handle = Arc::downgrade(&captures);
    drop(a);
    drop(captures);
    assert!(store.upgrade().is_some(), "plan b still needs the store");
    drop(b);
    assert!(handle.upgrade().is_none() && store.upgrade().is_none());
}
