//! The differential proof that the trial path is a pure throughput
//! choice: the oracle (`FastForward::disabled()`, every trial simulated
//! in full), the timed path (golden-prefix snapshots, the default) and
//! the replay path (trace adjudication first) must produce the same
//! classified records — and the same assembled result, derating factors
//! included — for every fault pattern, under a watchdog cycle budget,
//! merged from shards, and killed and resumed. Software-layer campaigns
//! take the same two engine paths through the golden CTA log instead
//! (docs/PERF.md) and are held to the same oracle, for every fault kind
//! and pattern on all 11 applications. TMR-hardened variants take the
//! same paths — `hardened` is a dimension of this suite, not a fork of
//! the engine. Any divergence here is a bug.

use kernels::apps::{bfs::Bfs, scp::Scp, va::Va};
use kernels::{all_benchmarks, Benchmark, Outcome};
use relia::plan::{plan_sw, Layer};
use relia::{
    assemble, assemble_uarch, execute_shard, execute_trials_with, prepare_sw_campaign,
    prepare_uarch_campaign, records_fingerprint, AppCaptures, CampaignCfg, EngineBackend,
    EngineCfg, FastForward, PreparedCampaign, TrialRecord, DEFAULT_SNAPSHOTS,
};
use vgpu_arch::InstrClass;
use vgpu_sim::{FaultPattern, SwFaultKind};

fn replay_engine() -> EngineCfg {
    EngineCfg {
        backend: EngineBackend::Replay,
        ..EngineCfg::single_shot()
    }
}

/// The whole plan on the oracle path.
fn oracle(prep: &PreparedCampaign) -> Vec<TrialRecord> {
    let all: Vec<usize> = (0..prep.plan.len()).collect();
    execute_trials_with(prep, FastForward::disabled(), &all, |_| Ok(())).unwrap()
}

/// Run the plan on the timed and replay paths and hold both to the
/// oracle, record for record and after assembly. Returns the oracle's
/// records.
fn assert_paths_agree(prep: &PreparedCampaign, what: &str) -> Vec<TrialRecord> {
    let oracle = oracle(prep);
    let assembled = assemble_uarch(prep, &oracle).unwrap();
    for (path, eng) in [
        ("timed", EngineCfg::single_shot()),
        ("replay", replay_engine()),
    ] {
        let records = execute_shard(prep, &eng).unwrap();
        assert_eq!(records, oracle, "{what}: {path} changed a trial record");
        assert_eq!(
            assemble_uarch(prep, &records).unwrap(),
            assembled,
            "{what}: {path} changed the assembled AVF result"
        );
    }
    oracle
}

#[test]
fn all_paths_classify_identically_for_every_fault_pattern() {
    for pattern in FaultPattern::ALL {
        let cfg = CampaignCfg {
            pattern,
            ..CampaignCfg::new(3, 0, 0x9A77)
        };
        let prep = prepare_uarch_campaign(&Va, &cfg, false);
        assert_paths_agree(&prep, pattern.label());
    }
    // A second application on the paper's default pattern, and BFS: 22
    // launches with host glue between them.
    let prep = prepare_uarch_campaign(&Scp, &CampaignCfg::new(6, 0, 0xFF_D1FF), false);
    assert_paths_agree(&prep, Scp.name());
    let prep = prepare_uarch_campaign(&Bfs, &CampaignCfg::new(2, 0, 0x5A5A), false);
    assert_paths_agree(&prep, Bfs.name());
}

/// A persistent stuck-at fault under a cycle limit: stuck-at trials
/// cannot take the masked-convergence early exit, and the watchdog must
/// compare the *architectural* cost (`total_cost`) against the budget —
/// `simulated_cost` is a scheduling artifact that differs between the
/// paths and must never feed classification.
#[test]
fn watchdog_cycle_limit_is_path_independent() {
    let cfg = CampaignCfg {
        pattern: FaultPattern::StuckAt0,
        ..CampaignCfg::new(3, 0, 11)
    };
    let mut prep = prepare_uarch_campaign(&Va, &cfg, false);
    // One cycle under the fault-free cost: every trial that runs to
    // completion overruns the budget on the oracle, while a resumed trial
    // *simulates* far fewer cycles than that.
    prep.cfg.watchdog.cycle_limit = Some(prep.golden.total_cost - 1);
    let records = assert_paths_agree(&prep, "stuck-at-0 under a cycle limit");
    assert!(records.iter().any(|r| r.outcome == Outcome::Timeout));
    assert!(
        records
            .iter()
            .all(|r| matches!(r.outcome, Outcome::Timeout | Outcome::Due)),
        "only aborted runs may keep their class: {records:?}"
    );
}

/// Merge `prep` from three shards, then kill it after 7 trials and
/// resume it from its journal, on `backend`: both must reproduce the
/// oracle's records and assembled counts.
fn assert_merge_and_resume_match_the_oracle(
    prep: &PreparedCampaign,
    backend: EngineBackend,
    tag: &str,
) {
    let dir = std::env::temp_dir().join(format!("relia_path_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let oracle = oracle(prep);
    let assembled = assemble(prep, &oracle).unwrap();
    let engine = |eng: EngineCfg| EngineCfg { backend, ..eng };

    let mut merged = Vec::new();
    for i in 0..3 {
        merged.extend(execute_shard(prep, &engine(EngineCfg::sharded(3, i))).unwrap());
    }
    assert_eq!(records_fingerprint(&merged), records_fingerprint(&oracle));
    assert_eq!(assemble(prep, &merged).unwrap(), assembled);

    let path = dir.join("journal.jsonl");
    let interrupted = engine(EngineCfg {
        checkpoint: Some(path.clone()),
        trial_limit: Some(7),
        ..EngineCfg::single_shot()
    });
    assert_eq!(execute_shard(prep, &interrupted).unwrap().len(), 7);
    let resumed = engine(EngineCfg {
        resume: Some(path),
        ..EngineCfg::single_shot()
    });
    let records = execute_shard(prep, &resumed).unwrap();
    assert_eq!(records, oracle);
    assert_eq!(assemble(prep, &records).unwrap(), assembled);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_shard_merge_and_kill_resume_match_the_oracle() {
    let prep = prepare_uarch_campaign(&Va, &CampaignCfg::new(5, 0, 0x9E5E), false);
    assert_merge_and_resume_match_the_oracle(&prep, EngineBackend::Replay, "replay");
}

/// Every software fault kind.
const SW_KINDS: [SwFaultKind; 6] = [
    SwFaultKind::DestValue,
    SwFaultKind::DestValueLoad,
    SwFaultKind::SrcTransient,
    SwFaultKind::SrcPersistent,
    SwFaultKind::ArchState,
    SwFaultKind::DestClass(InstrClass::IntAlu),
];

/// One software-layer plan of every kind in [`SW_KINDS`] on the default
/// and replay engines (both CTA replay), held to the oracle record for
/// record and after assembly; the CTA log must have been captured.
fn assert_sw_paths_agree(bench: &dyn Benchmark, cfg: &CampaignCfg, hardened: bool, what: &str) {
    let captures = AppCaptures::new(bench, &cfg.gpu, Layer::Sw, hardened);
    let prep = plan_sw(&captures, cfg, &SW_KINDS);
    let want = oracle(&prep);
    let counts = assemble(&prep, &want).unwrap();
    for eng in [EngineCfg::single_shot(), replay_engine()] {
        let records = execute_shard(&prep, &eng).unwrap();
        assert_eq!(records, want, "{what}: CTA replay changed a trial record");
        assert_eq!(assemble(&prep, &records).unwrap(), counts, "{what}");
    }
    assert!(prep.cta_log().is_some(), "{what}: CTA log never captured");
}

#[test]
fn sw_paths_classify_identically_for_every_app_kind_and_pattern() {
    // The software layer accepts every pattern: the geometric ones map
    // onto the bytes of the 32-bit value, the stuck-at ones pin a register
    // cell of one warp. One trial per (kernel, kind) keeps the 11 × 6 × 7
    // grid affordable; the per-fault sweep lives in
    // crates/kernels/tests/cta_replay.rs.
    for pattern in FaultPattern::ALL {
        for bench in all_benchmarks() {
            let cfg = CampaignCfg {
                pattern,
                ..CampaignCfg::new(0, 1, 0xC7A ^ pattern as u64)
            };
            let what = format!("{} {}", bench.name(), pattern.label());
            assert_sw_paths_agree(bench.as_ref(), &cfg, false, &what);
        }
    }
}

#[test]
fn sw_shard_merge_and_kill_resume_match_the_oracle() {
    // BFS: 22 launches with host glue between them.
    let prep = prepare_sw_campaign(&Bfs, &CampaignCfg::new(0, 6, 0xB0F5), false);
    assert_merge_and_resume_match_the_oracle(&prep, EngineBackend::Timed, "sw");
}

#[test]
fn sw_watchdog_instruction_limit_is_path_independent() {
    // The watchdog compares the architectural instruction count, which
    // CTA replay credits exactly; one under the fault-free cost, every
    // trial that completes overruns it on every path.
    let mut prep = prepare_sw_campaign(&Scp, &CampaignCfg::new(0, 6, 13), false);
    prep.cfg.watchdog.cycle_limit = Some(prep.golden.total_cost - 1);
    let want = oracle(&prep);
    assert_eq!(
        execute_shard(&prep, &EngineCfg::single_shot()).unwrap(),
        want
    );
    assert!(want.iter().any(|r| r.outcome == Outcome::Timeout));
    assert!(want
        .iter()
        .all(|r| matches!(r.outcome, Outcome::Timeout | Outcome::Due)));
}

/// `hardened` is not an eligibility dimension: a TMR plan captures the
/// artefacts of its layer and takes the same accelerated paths as its
/// unprotected twin — a hardened launch is the same kernel over
/// triplicated buffers, a vote is a launch plus a host read of the flag —
/// so it is held to the same oracle, under every fault pattern.
#[test]
fn hardened_uarch_plans_are_served_and_match_the_oracle_on_every_path() {
    // Each accelerator serves one layer, whatever the variant.
    for hardened in [false, true] {
        let sw = prepare_sw_campaign(&Va, &CampaignCfg::new(0, 8, 0x5_0FF), hardened);
        assert!(sw.snapshots(DEFAULT_SNAPSHOTS).is_none() && sw.trace().is_none());
    }

    let served = |prep: &PreparedCampaign, what: &str| {
        assert!(
            prep.snapshots(DEFAULT_SNAPSHOTS).is_some() && prep.trace().is_some(),
            "{what}: snapshot set or trace never captured"
        );
        assert!(prep.cta_log().is_none(), "{what}");
    };
    for pattern in FaultPattern::ALL {
        let cfg = CampaignCfg {
            pattern,
            ..CampaignCfg::new(2, 0, 0x4A9D)
        };
        let mut prep = prepare_uarch_campaign(&Va, &cfg, true);
        let what = format!("VA-TMR {}", pattern.label());
        if matches!(pattern, FaultPattern::StuckAt0 | FaultPattern::StuckAt1) {
            // No masked-convergence exit for a persistent fault, and the
            // watchdog budget is architectural cost on every path.
            prep.cfg.watchdog.cycle_limit = Some(prep.golden.total_cost - 1);
            let records = assert_paths_agree(&prep, &what);
            assert!(records.iter().any(|r| r.outcome == Outcome::Timeout));
        } else {
            assert_paths_agree(&prep, &what);
        }
        served(&prep, &what);
    }
    // BFS: 22 launches, a vote (launch + host read of its flag) after
    // each, host glue deciding whether to go on.
    let prep = prepare_uarch_campaign(&Bfs, &CampaignCfg::new(1, 0, 0xB0F5), true);
    assert!(prep.golden.records.iter().any(|r| r.is_vote));
    assert_paths_agree(&prep, "BFS-TMR");
    served(&prep, "BFS-TMR");
}

#[test]
fn hardened_sw_plans_are_served_and_match_the_oracle_on_every_path() {
    for bench in [&Va as &dyn Benchmark, &Scp, &Bfs] {
        let what = format!("{}-TMR", bench.name());
        assert_sw_paths_agree(bench, &CampaignCfg::new(0, 2, 0x4A9D), true, &what);
    }
}

#[test]
fn hardened_shard_merge_and_kill_resume_match_the_oracle() {
    let prep = prepare_uarch_campaign(&Va, &CampaignCfg::new(3, 0, 0x9E5E), true);
    assert_merge_and_resume_match_the_oracle(&prep, EngineBackend::Replay, "tmr");
}
