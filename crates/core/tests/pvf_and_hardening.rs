//! Small-campaign tests of the PVF extension and the hardening evaluator
//! (cheap app, low N — statistical shapes only).

use kernels::apps::va::Va;
use relia::{
    run_pvf_campaign, run_sw_campaign, run_uarch_campaign, CampaignCfg, HardeningComparison,
};
use vgpu_sim::HwStructure;

fn cfg(n: usize) -> CampaignCfg {
    CampaignCfg::new(n, n, 0x50_46)
}

#[test]
fn pvf_sits_between_avf_and_svf() {
    let cfg = cfg(80);
    let svf = run_sw_campaign(&Va, &cfg, false).app_svf().total();
    let pvf = run_pvf_campaign(&Va, &cfg, false).app_pvf().total();
    let avf = run_uarch_campaign(&Va, &cfg, false)
        .app_avf(&cfg.gpu)
        .total();
    assert!(
        svf > pvf && pvf > avf,
        "expected SVF ({svf:.3}) > PVF ({pvf:.3}) > AVF ({avf:.4})"
    );
}

#[test]
fn pvf_campaign_is_deterministic() {
    let cfg = cfg(40);
    let a = run_pvf_campaign(&Va, &cfg, false);
    let b = run_pvf_campaign(&Va, &cfg, false);
    assert_eq!(a.kernels[0].counts, b.kernels[0].counts);
}

#[test]
fn hardening_comparison_has_full_shape() {
    let cfg = cfg(30);
    let cmp = HardeningComparison {
        app: "VA".into(),
        base_avf: run_uarch_campaign(&Va, &cfg, false),
        base_svf: run_sw_campaign(&Va, &cfg, false),
        tmr_avf: run_uarch_campaign(&Va, &cfg, true),
        tmr_svf: run_sw_campaign(&Va, &cfg, true),
    };
    let rows = cmp.kernel_rows(&cfg.gpu);
    assert_eq!(rows.len(), 1, "VA has one kernel");
    let row = &rows[0];
    assert_eq!(row.kernel, "K1");
    assert_eq!(row.structures.len(), HwStructure::ALL.len());
    // All rates are probabilities.
    for v in [
        row.avf_base.total(),
        row.avf_tmr.total(),
        row.svf_base.total(),
        row.svf_tmr.total(),
        row.ctrl_base,
        row.ctrl_tmr,
    ] {
        assert!((0.0..=1.0).contains(&v), "{v}");
    }
    // TMR slashes software-visible SDCs (Insight #5, software side).
    assert!(row.svf_tmr.sdc <= row.svf_base.sdc);
}
