//! Workspace integration tests: the cross-layer methodology end to end.

use gpu_reliability::prelude::*;
use kernels::apps::{scp::Scp, va::Va};
use relia::TrialTarget;
use vgpu_sim::{HwStructure, SwFaultKind};

const DEST_VALUE: TrialTarget = TrialTarget::Fault(SwFaultKind::DestValue);

fn small_cfg() -> CampaignCfg {
    CampaignCfg::new(60, 60, 0xABCD)
}

#[test]
fn avf_is_much_smaller_than_svf() {
    // The paper's first-order observation: full-system vulnerability is
    // far below software-only vulnerability because of hardware masking
    // and derating.
    let cfg = small_cfg();
    let avf = run_uarch_campaign(&Va, &cfg, false);
    let svf = run_sw_campaign(&Va, &cfg, false);
    let a = avf.app_avf().total();
    let s = svf.app_svf().total();
    assert!(a > 0.0, "some hardware faults must matter");
    assert!(s > 0.2, "software faults hit live state: {s}");
    assert!(a < s / 3.0, "AVF {a} must be well below SVF {s}");
}

#[test]
fn campaigns_are_deterministic() {
    let cfg = small_cfg();
    let a1 = run_uarch_campaign(&Va, &cfg, false);
    let a2 = run_uarch_campaign(&Va, &cfg, false);
    for k in 0..a1.kernels.len() {
        for &h in &HwStructure::ALL {
            let t = TrialTarget::Structure(h);
            assert_eq!(
                a1.counts(k, t),
                a2.counts(k, t),
                "{h:?} counts must be reproducible"
            );
        }
    }
    let s1 = run_sw_campaign(&Va, &cfg, false);
    let s2 = run_sw_campaign(&Va, &cfg, false);
    assert_eq!(s1.counts(0, DEST_VALUE), s2.counts(0, DEST_VALUE));
}

#[test]
fn different_seeds_differ() {
    let mut cfg = small_cfg();
    let a1 = run_sw_campaign(&Va, &cfg, false);
    cfg.seed ^= 0xFFFF;
    let a2 = run_sw_campaign(&Va, &cfg, false);
    assert_ne!(
        a1.counts(0, DEST_VALUE),
        a2.counts(0, DEST_VALUE),
        "different seeds should sample different faults"
    );
}

#[test]
fn derating_factors_are_sane() {
    let cfg = small_cfg();
    let avf = run_uarch_campaign(&Scp, &cfg, false);
    let df_of = |h| avf.derating(0, h);
    for &h in &HwStructure::ALL {
        let df = df_of(h);
        assert!((0.0..=1.0).contains(&df), "{h:?} DF {df}");
    }
    // SCP uses shared memory and a modest register count: both live DFs
    // are strictly between 0 and 1; cache DFs are exactly 1.
    assert!(df_of(HwStructure::RegFile) > 0.0 && df_of(HwStructure::RegFile) < 1.0);
    assert!(df_of(HwStructure::Smem) > 0.0 && df_of(HwStructure::Smem) < 1.0);
    assert_eq!(df_of(HwStructure::L1D), 1.0);
    assert_eq!(df_of(HwStructure::L2), 1.0);
}

#[test]
fn chip_avf_is_a_convex_combination_of_structures() {
    let cfg = small_cfg();
    let avf = run_uarch_campaign(&Va, &cfg, false);
    let chip = avf.chip_avf(0).total();
    let min = HwStructure::ALL
        .iter()
        .map(|&h| avf.avf(0, h).total())
        .fold(f64::MAX, f64::min);
    let max = HwStructure::ALL
        .iter()
        .map(|&h| avf.avf(0, h).total())
        .fold(0.0f64, f64::max);
    assert!(
        chip >= min - 1e-12 && chip <= max + 1e-12,
        "{min} <= {chip} <= {max}"
    );
}

#[test]
fn tmr_eliminates_svf_sdcs_but_not_avf_sdcs_necessarily() {
    // Insight #5, software side: under TMR, a single software-level value
    // flip can corrupt at most one redundant copy, so the vote repairs it
    // and SVF-SDC collapses (faults inside the vote kernel itself are the
    // only residue).
    let cfg = CampaignCfg::new(80, 80, 0x7777);
    let base = run_sw_campaign(&Scp, &cfg, false);
    let tmr = run_sw_campaign(&Scp, &cfg, true);
    let sdc_base = base.app_svf().sdc;
    let sdc_tmr = tmr.app_svf().sdc;
    assert!(
        sdc_base > 0.1,
        "unprotected SCP has plenty of SDCs: {sdc_base}"
    );
    assert!(
        sdc_tmr < sdc_base / 4.0,
        "TMR must slash software-visible SDCs: {sdc_base} -> {sdc_tmr}"
    );
}

#[test]
fn tmr_through_the_sharded_engine_shows_the_cross_layer_gap() {
    // Insight #5 via the sharded engine, both injectors: software-level
    // TMR campaigns see SDCs collapse (a single value flip corrupts at
    // most one redundant copy, and the vote outvotes it), while the
    // microarchitecture level still finds SDCs — flips in structures the
    // redundant copies *share* (caches, shared memory) defeat the vote.
    // Running both hardened campaigns as 2-shard merges also pins down
    // that hardened plans shard and merge exactly like unhardened ones.
    // VA rather than SCP: its redundant copies lean harder on the shared
    // cache hierarchy, so hardware-level SDCs survive the vote.
    let cfg = CampaignCfg::new(80, 80, 0x7777);

    let sw_prep = prepare_sw_campaign(&Va, &cfg, true);
    let mut sw_records = Vec::new();
    for i in 0..2 {
        sw_records.extend(execute_shard(&sw_prep, &EngineCfg::sharded(2, i)).unwrap());
    }
    let sw_tmr = assemble_sw(&sw_prep, &sw_records).unwrap();
    assert_eq!(
        sw_tmr,
        run_sw_campaign(&Va, &cfg, true),
        "hardened SW campaign: 2-shard merge != single-shot"
    );

    let u_prep = prepare_uarch_campaign(&Va, &cfg, true);
    let mut u_records = Vec::new();
    for i in 0..2 {
        u_records.extend(execute_shard(&u_prep, &EngineCfg::sharded(2, i)).unwrap());
    }
    let avf_tmr = assemble_uarch(&u_prep, &u_records).unwrap();
    assert_eq!(
        avf_tmr,
        run_uarch_campaign(&Va, &cfg, true),
        "hardened uarch campaign: 2-shard merge != single-shot"
    );

    let sdc_base = run_sw_campaign(&Va, &cfg, false).app_svf().sdc;
    let sdc_sw_tmr = sw_tmr.app_svf().sdc;
    assert!(
        sdc_sw_tmr < sdc_base / 4.0,
        "TMR must slash software-visible SDCs: {sdc_base} -> {sdc_sw_tmr}"
    );
    let uarch_sdcs: u32 = (0..avf_tmr.kernels.len())
        .flat_map(|k| HwStructure::ALL.map(|h| (k, TrialTarget::Structure(h))))
        .map(|(k, t)| avf_tmr.counts(k, t).sdc)
        .sum();
    assert!(
        uarch_sdcs > 0,
        "hardware-level faults must still slip past TMR (shared structures)"
    );
}

#[test]
fn outcome_population_is_exhaustive() {
    // Every injection lands in exactly one of the four classes.
    let cfg = small_cfg();
    let avf = run_uarch_campaign(&Va, &cfg, false);
    for k in 0..avf.kernels.len() {
        for h in HwStructure::ALL {
            let camp = avf.counts(k, TrialTarget::Structure(h));
            assert_eq!(camp.total() as usize, cfg.n_uarch);
        }
    }
}

#[test]
fn trend_comparison_plumbs_through() {
    let cfg = small_cfg();
    let apps: Vec<&dyn Benchmark> = vec![&Va, &Scp];
    let items: Vec<TrendItem> = apps
        .iter()
        .map(|b| {
            let avf = run_uarch_campaign(*b, &cfg, false);
            let svf = run_sw_campaign(*b, &cfg, false);
            TrendItem {
                name: b.name().to_string(),
                a: avf.app_avf().total(),
                b: svf.app_svf().total(),
            }
        })
        .collect();
    let t = relia::compare_pairs(&items);
    assert_eq!(t.total(), 1);
}
