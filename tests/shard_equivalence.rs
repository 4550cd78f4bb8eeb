//! Differential tests for the sharded campaign engine: for both injectors
//! and two benchmarks, a campaign split into 3 shards and merged — and a
//! campaign killed partway and resumed from its checkpoint — must produce
//! the *byte-identical* result of a single-shot run: same per-structure
//! outcome counts, same AVF/SVF rates, same derating factors.
//!
//! This is the load-bearing guarantee of docs/CAMPAIGNS.md: per-trial
//! seeds depend only on (campaign seed, app, kernel, target, trial), never
//! on the shard layout, and assembly is a commutative integer fold.

use gpu_reliability::prelude::*;
use kernels::apps::{scp::Scp, va::Va};
use relia::checkpoint::load_checkpoint;
use relia::{execute_resumable, records_fingerprint, TrialRecord};
use std::path::PathBuf;
use vgpu_sim::{FaultPattern, HwStructure};

fn cfg() -> CampaignCfg {
    CampaignCfg::new(45, 45, 0x5EED_CAFE)
}

/// Same campaign, non-default fault model. Smaller n: the persistent
/// patterns cannot take the masked-convergence early exit, so each trial
/// simulates to launch end.
fn cfg_pattern(pattern: FaultPattern) -> CampaignCfg {
    let mut c = CampaignCfg::new(18, 18, 0x5EED_CAFE);
    c.pattern = pattern;
    c
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "relia_shard_eq_{}_{name}.jsonl",
        std::process::id()
    ))
}

/// Execute `prep` as `shards` independent shards and concatenate records.
fn run_sharded(prep: &relia::PreparedCampaign, shards: usize) -> Vec<TrialRecord> {
    let mut all = Vec::new();
    for i in 0..shards {
        all.extend(execute_shard(prep, &EngineCfg::sharded(shards, i)).unwrap());
    }
    all
}

/// Execute `prep` single-shot but killed after `limit` trials (leaving a
/// checkpoint), then resumed to completion from that checkpoint.
fn run_interrupted(prep: &relia::PreparedCampaign, path: &PathBuf) -> Vec<TrialRecord> {
    let _ = std::fs::remove_file(path);
    let interrupted = EngineCfg {
        checkpoint: Some(path.clone()),
        trial_limit: Some(prep.plan.len() / 3 + 1),
        ..EngineCfg::single_shot()
    };
    let partial = execute_shard(prep, &interrupted).unwrap();
    assert!(
        partial.len() < prep.plan.len(),
        "interrupt must leave work undone"
    );
    // The checkpoint holds exactly what the killed run classified.
    assert_eq!(
        load_checkpoint(path).unwrap().records.len(),
        partial.len(),
        "checkpoint records every classified trial"
    );
    let resumed = EngineCfg {
        trial_limit: None,
        ..interrupted
    };
    let records = execute_resumable(prep, &resumed).unwrap().records;
    let _ = std::fs::remove_file(path);
    records
}

fn check_uarch(bench: &dyn Benchmark, name: &str) {
    check_uarch_cfg(bench, name, cfg());
}

fn check_uarch_cfg(bench: &dyn Benchmark, name: &str, cfg: CampaignCfg) {
    let single = run_uarch_campaign(bench, &cfg, false);
    let prep = prepare_uarch_campaign(bench, &cfg, false);

    let sharded = run_sharded(&prep, 3);
    let merged = relia::assemble_uarch(&prep, &sharded).unwrap();
    assert_eq!(merged, single, "{name}: 3-shard merge != single-shot");

    let resumed = run_interrupted(&prep, &tmp(&format!("{name}_uarch")));
    let recovered = relia::assemble_uarch(&prep, &resumed).unwrap();
    assert_eq!(recovered, single, "{name}: interrupt+resume != single-shot");

    assert_eq!(
        records_fingerprint(&sharded),
        records_fingerprint(&resumed),
        "{name}: record fingerprints agree across execution strategies"
    );

    // Spell out the per-structure equivalence the struct equality implies,
    // so a future PartialEq change can't silently weaken this test.
    for (km, ks) in merged.kernels.iter().zip(&single.kernels) {
        for &h in &HwStructure::ALL {
            assert_eq!(km.counts_of(h).counts, ks.counts_of(h).counts);
            assert_eq!(
                km.counts_of(h).ctrl_affected_masked,
                ks.counts_of(h).ctrl_affected_masked
            );
            assert_eq!(km.df_of(h), ks.df_of(h), "{name} {h:?} derating factor");
            assert_eq!(km.avf(h), ks.avf(h), "{name} {h:?} AVF");
        }
        assert_eq!(km.cycles, ks.cycles);
    }
    assert_eq!(merged.app_avf(&cfg.gpu), single.app_avf(&cfg.gpu));
    assert_eq!(
        merged.app_avf_cache(&cfg.gpu),
        single.app_avf_cache(&cfg.gpu)
    );
}

fn check_sw(bench: &dyn Benchmark, name: &str) {
    check_sw_cfg(bench, name, cfg());
}

fn check_sw_cfg(bench: &dyn Benchmark, name: &str, cfg: CampaignCfg) {
    let single = run_sw_campaign(bench, &cfg, false);
    let prep = prepare_sw_campaign(bench, &cfg, false);

    let sharded = run_sharded(&prep, 3);
    let merged = relia::assemble_sw(&prep, &sharded).unwrap();
    assert_eq!(merged, single, "{name}: 3-shard merge != single-shot");

    let resumed = run_interrupted(&prep, &tmp(&format!("{name}_sw")));
    let recovered = relia::assemble_sw(&prep, &resumed).unwrap();
    assert_eq!(recovered, single, "{name}: interrupt+resume != single-shot");

    for (km, ks) in merged.kernels.iter().zip(&single.kernels) {
        assert_eq!(km.counts, ks.counts, "{name} dest-value counts");
        assert_eq!(km.counts_ld, ks.counts_ld, "{name} SVF-LD counts");
        assert_eq!(km.svf(), ks.svf(), "{name} SVF rates");
        assert_eq!(km.instrs, ks.instrs);
    }
    assert_eq!(merged.app_svf(), single.app_svf());
    assert_eq!(merged.app_svf_ld(), single.app_svf_ld());
}

#[test]
fn va_uarch_sharding_and_resume_are_equivalent() {
    check_uarch(&Va, "VA");
}

#[test]
fn va_sw_sharding_and_resume_are_equivalent() {
    check_sw(&Va, "VA");
}

#[test]
fn scp_uarch_sharding_and_resume_are_equivalent() {
    check_uarch(&Scp, "SCP");
}

#[test]
fn scp_sw_sharding_and_resume_are_equivalent() {
    check_sw(&Scp, "SCP");
}

// The non-default fault models must honor the same guarantee: the pattern
// is pure trial payload (it never feeds seed derivation), so shard layout,
// interruption, and resume must stay invisible — including for persistent
// stuck-at faults, whose sites are re-resolved identically on re-execution.

#[test]
fn va_uarch_burst_row_sharding_and_resume_are_equivalent() {
    check_uarch_cfg(&Va, "VA_burst_row", cfg_pattern(FaultPattern::BurstRow));
}

#[test]
fn va_uarch_stuck_at_1_sharding_and_resume_are_equivalent() {
    check_uarch_cfg(&Va, "VA_stuck_at_1", cfg_pattern(FaultPattern::StuckAt1));
}

#[test]
fn va_sw_double_adjacent_sharding_and_resume_are_equivalent() {
    check_sw_cfg(
        &Va,
        "VA_double_adjacent",
        cfg_pattern(FaultPattern::DoubleAdjacent),
    );
}

#[test]
fn va_sw_stuck_at_0_sharding_and_resume_are_equivalent() {
    check_sw_cfg(&Va, "VA_stuck_at_0", cfg_pattern(FaultPattern::StuckAt0));
}

#[test]
fn uneven_shard_counts_also_merge_exactly() {
    // 5 shards over a plan whose length is not a multiple of 5 — strided
    // partitioning leaves shards of different sizes; the merge must not
    // care.
    let cfg = CampaignCfg::new(13, 13, 0xA11CE);
    let single = run_sw_campaign(&Va, &cfg, false);
    let prep = prepare_sw_campaign(&Va, &cfg, false);
    assert_ne!(prep.plan.len() % 5, 0, "want ragged shards");
    let merged = relia::assemble_sw(&prep, &run_sharded(&prep, 5)).unwrap();
    assert_eq!(merged, single);
}

#[test]
fn resuming_a_complete_checkpoint_loads_it() {
    let cfg = CampaignCfg::new(6, 6, 0xD0E);
    let prep = prepare_sw_campaign(&Va, &cfg, false);
    let path = tmp("complete");
    let _ = std::fs::remove_file(&path);
    let eng = EngineCfg {
        checkpoint: Some(path.clone()),
        ..EngineCfg::single_shot()
    };
    let records = execute_shard(&prep, &eng).unwrap();
    let journal = std::fs::read(&path).unwrap();
    let loaded = execute_resumable(&prep, &eng).unwrap();
    assert_eq!(loaded.resumed, prep.plan.len());
    assert_eq!(loaded.records, records, "the journal's records, as run");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        journal,
        "left byte-identical"
    );
    let _ = std::fs::remove_file(&path);
}

/// `execute_shard` starts its journal afresh even over a complete one of
/// the same plan, and executes every trial again: the perf ledger times
/// real trials through scratch journals it rewrites on every pass.
#[test]
fn a_shard_over_a_complete_checkpoint_executes_every_trial_again() {
    let cfg = CampaignCfg::new(6, 6, 0xD0E);
    let prep = prepare_sw_campaign(&Va, &cfg, false);
    let path = tmp("rerun");
    let _ = std::fs::remove_file(&path);
    let eng = EngineCfg {
        checkpoint: Some(path.clone()),
        ..EngineCfg::single_shot()
    };
    let first = execute_shard(&prep, &eng).unwrap();
    // Stamp every journaled trial with a wall time no trial takes: a
    // record that still carries it was loaded, not executed.
    const STAMP: u64 = u64::MAX / 2;
    let mut ck = load_checkpoint(&path).unwrap();
    for r in &mut ck.records {
        r.wall_us = STAMP;
    }
    std::fs::write(&path, relia::checkpoint::checkpoint_to_string(&ck)).unwrap();
    let again = execute_shard(&prep, &eng).unwrap();
    assert_eq!(again.len(), prep.plan.len());
    assert!(
        again.iter().all(|r| r.wall_us != STAMP),
        "a trial was loaded"
    );
    assert_eq!(records_fingerprint(&again), records_fingerprint(&first));
    let rewritten = load_checkpoint(&path).unwrap().records;
    assert_eq!(rewritten.len(), prep.plan.len());
    assert!(
        rewritten.iter().all(|r| r.wall_us != STAMP),
        "not restarted"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resuming_a_foreign_checkpoint_is_rejected() {
    // A checkpoint from a different seed must not silently pollute a run,
    // and is left as it is.
    let cfg_a = CampaignCfg::new(6, 6, 1);
    let cfg_b = CampaignCfg::new(6, 6, 2);
    let path = tmp("foreign");
    let _ = std::fs::remove_file(&path);
    let prep_a = prepare_sw_campaign(&Va, &cfg_a, false);
    let eng = EngineCfg {
        checkpoint: Some(path.clone()),
        trial_limit: Some(2),
        ..EngineCfg::single_shot()
    };
    execute_shard(&prep_a, &eng).unwrap();
    let journal = std::fs::read(&path).unwrap();
    let prep_b = prepare_sw_campaign(&Va, &cfg_b, false);
    let err = execute_resumable(&prep_b, &eng).unwrap_err();
    assert!(
        matches!(err, EngineError::PlanMismatch(_)),
        "wanted PlanMismatch, got {err}"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        journal,
        "left byte-identical"
    );
    let _ = std::fs::remove_file(&path);
}

// The adaptive sizer extends the guarantee across *wave* boundaries
// (docs/TWOLEVEL.md): a campaign killed partway through its second wave
// and resumed from the per-wave checkpoint must reproduce the
// uninterrupted run byte for byte — same wave plans, same records, same
// converged intervals. Wave trials depend only on (seed, app, strata),
// never on how earlier waves were executed, so the kill is invisible.

#[test]
fn adaptive_campaign_killed_mid_wave_2_resumes_byte_identically() {
    use relia::plan::Layer;
    use stat::{run_adaptive, run_adaptive_single, uarch_targets, AdaptiveCfg};

    let cfg = CampaignCfg::new(0, 0, 0xAD_A911);
    let acfg = AdaptiveCfg::new(0.12, 8, 64);
    let targets = uarch_targets();
    let single = run_adaptive_single(&Va, &cfg, false, Layer::Uarch, &targets, &acfg).unwrap();
    assert!(
        single.waves >= 2,
        "campaign too easy: no second wave to kill"
    );

    let path = tmp("adaptive_wave2");
    let _ = std::fs::remove_file(&path);
    let interrupted = run_adaptive(
        &Va,
        &cfg,
        false,
        Layer::Uarch,
        &targets,
        &acfg,
        |prep, wave| {
            if wave != 1 {
                return execute_shard(prep, &EngineCfg::single_shot());
            }
            // Kill mid-wave-2: classify roughly half the wave, leaving a
            // resumable checkpoint behind.
            let killed = EngineCfg {
                checkpoint: Some(path.clone()),
                trial_limit: Some(prep.plan.len() / 2),
                ..EngineCfg::single_shot()
            };
            let partial = execute_shard(prep, &killed)?;
            assert!(
                partial.len() < prep.plan.len(),
                "kill must leave wave-2 work undone"
            );
            assert_eq!(
                load_checkpoint(&path).unwrap().records.len(),
                partial.len(),
                "checkpoint records every classified wave-2 trial"
            );
            let resumed = EngineCfg {
                trial_limit: None,
                ..killed
            };
            execute_resumable(prep, &resumed).map(|run| run.records)
        },
    )
    .unwrap();
    let _ = std::fs::remove_file(&path);

    assert_eq!(single, interrupted, "kill+resume must be invisible");
    assert_eq!(single.plans_fp, interrupted.plans_fp);
    assert_eq!(single.records_fp, interrupted.records_fp);
    assert!(single.total_trials() > 0 && single.savings() >= 1.0);
}
