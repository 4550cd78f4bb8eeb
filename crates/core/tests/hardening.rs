//! Small-campaign test of the hardening evaluator (cheap app, low N —
//! statistical shapes only).

use kernels::apps::va::Va;
use relia::{run_sw_campaign, run_uarch_campaign, CampaignCfg, HardeningComparison};
use vgpu_sim::HwStructure;

fn cfg(n: usize) -> CampaignCfg {
    CampaignCfg::new(n, n, 0x50_46)
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
    let rows = cmp.kernel_rows();
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
