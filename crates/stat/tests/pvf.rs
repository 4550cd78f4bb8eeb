//! PVF, the architectural-state extension, is a campaign of one fault
//! kind kept stratum by stratum: an `ArchState`-only software plan whose
//! application rate is [`StrataRecords::app_rates`], each kernel weighted
//! by its golden thread-instructions (cheap app, low N — statistical
//! shapes only).

use kernels::apps::va::Va;
use relia::{
    assemble, execute_shard, plan_sw, run_sw_campaign, run_uarch_campaign, AppCaptures,
    CampaignCfg, EngineCfg, Layer, StrataRecords,
};
use vgpu_sim::SwFaultKind;

fn cfg(n: usize) -> CampaignCfg {
    CampaignCfg::new(n, n, 0x50_46)
}

/// The PVF campaign of VA, unprotected.
fn pvf_campaign(cfg: &CampaignCfg) -> StrataRecords {
    let captures = AppCaptures::new(&Va, &cfg.gpu, Layer::Sw, false);
    let prep = plan_sw(&captures, cfg, &[SwFaultKind::ArchState]);
    let records = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
    assemble(&prep, &records).unwrap()
}

#[test]
fn pvf_sits_between_avf_and_svf() {
    let cfg = cfg(80);
    let svf = run_sw_campaign(&Va, &cfg, false).app_svf().total();
    let pvf = (pvf_campaign(&cfg).app_rates(SwFaultKind::ArchState)).total();
    let avf = run_uarch_campaign(&Va, &cfg, false).app_avf().total();
    assert!(
        svf > pvf && pvf > avf,
        "expected SVF ({svf:.3}) > PVF ({pvf:.3}) > AVF ({avf:.4})"
    );
}

#[test]
fn pvf_campaign_is_deterministic() {
    let cfg = cfg(40);
    let (a, b) = (pvf_campaign(&cfg), pvf_campaign(&cfg));
    assert_eq!(a.strata.len(), 1, "VA has one kernel");
    assert_eq!(a, b);
}
