//! Tracker on/off differential: an ACE-instrumented run must leave
//! injection-campaign outcomes unchanged. (That the tracker is invisible
//! to the golden run itself — output, cycle counts, statistics — is the
//! all-sinks differential of `crates/trace/tests/golden_pass.rs`.)

use relia::{execute_shard, prepare_uarch_campaign, records_fingerprint, CampaignCfg, EngineCfg};

#[test]
fn ace_runs_do_not_perturb_injection_campaigns() {
    let cfg = CampaignCfg::new(6, 6, 0xD1FF);
    let bench = kernels::apps::va::Va;
    let prep = prepare_uarch_campaign(&bench, &cfg, false);
    let before = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();

    // An instrumented run in between must not leak any state into a
    // fresh campaign: same plan fingerprint, byte-identical records.
    let est = ace::estimate_app(&bench, &cfg.gpu);
    assert!(est.events > 0);

    let prep2 = prepare_uarch_campaign(&bench, &cfg, false);
    assert_eq!(prep.plan.fingerprint(), prep2.plan.fingerprint());
    let after = execute_shard(&prep2, &EngineCfg::single_shot()).unwrap();
    assert_eq!(records_fingerprint(&before), records_fingerprint(&after));
    assert_eq!(before, after);
}
