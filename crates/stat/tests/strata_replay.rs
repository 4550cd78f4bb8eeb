//! Smaller designs read off one fixed campaign are the designs run: a
//! trial depends only on (seed, app, kernel, target, ordinal), never on
//! the plan that holds it, and an adaptive stratum stops on its own prefix
//! alone. So, over one fixed instruction-class campaign of `CAP` trials
//! per stratum,
//!
//! - replaying the adaptive waves (cap `CAP`) is the adaptive campaign
//!   `run_adaptive_single` runs: every stratum's trials, counts,
//!   emptiness and convergence wave, and the number of waves;
//! - folding the two-level model over the first `N` ordinals is
//!   `estimate_two_level` at `n_sw = N`: point estimates, class counts
//!   and intervals.
//!
//! Checked on VA (one kernel, empty class strata) and SRADv1 (six kernels,
//! the suite's dearest software-level application).

use kernels::apps::sradv1::SradV1;
use kernels::apps::va::Va;
use kernels::Benchmark;
use relia::{
    execute_shard, plan_sw, AppCaptures, CampaignCfg, Confidence, EngineCfg, Layer, TrialTarget,
};
use stat::{
    class_targets, estimate_two_level, run_adaptive_single, AdaptiveCfg, AdaptiveResult,
    StrataRecords, CLASS_KINDS,
};

const CAP: usize = 32;
const N: usize = 24;
const SEED: u64 = 0xC0FF_EE00;

/// The fixed class campaign of `bench` at `n` trials per stratum.
fn class_campaign(bench: &dyn Benchmark, n: usize) -> StrataRecords {
    let cfg = CampaignCfg::new(0, n, SEED);
    let captures = AppCaptures::new(bench, &cfg.gpu, Layer::Sw, false);
    let prep = plan_sw(&captures, &cfg, &CLASS_KINDS);
    let records = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
    StrataRecords::assemble(&prep, &records).unwrap()
}

/// Check both identities on `bench`; returns the adaptive campaign run.
fn check(bench: &dyn Benchmark) -> AdaptiveResult {
    let fixed = class_campaign(bench, CAP);
    assert_eq!(
        fixed.strata.len(),
        bench.kernels().len() * CLASS_KINDS.len()
    );

    let acfg = AdaptiveCfg::new(0.15, 8, CAP);
    let replayed = fixed.adaptive(&acfg);
    let cfg = CampaignCfg::new(0, 0, SEED);
    let run = run_adaptive_single(bench, &cfg, false, Layer::Sw, &class_targets(), &acfg).unwrap();
    assert_eq!(replayed.waves, run.waves, "{}", bench.name());
    assert_eq!(replayed.strata.len(), run.strata.len());
    for (r, s) in replayed.strata.iter().zip(&run.strata) {
        let at = (s.kernel_idx, s.target.label());
        assert_eq!((r.kernel_idx, r.target), (s.kernel_idx, s.target));
        assert_eq!(r.n, s.n, "{at:?}");
        assert_eq!(r.stats, s.stats, "{at:?}");
        assert_eq!(r.empty, s.empty, "{at:?}");
        assert_eq!(r.converged_wave, s.converged_wave, "{at:?}");
    }
    // Not a vacuous schedule: several waves, strata converging before the
    // cap.
    assert!(run.waves > 1, "{}: {} waves", bench.name(), run.waves);
    assert!((run.strata.iter()).any(|s| s.converged_wave.is_some() && s.n < CAP));

    let reps = 200;
    let folded = fixed.two_level(N, Confidence::C95, reps);
    let cfg = CampaignCfg::new(0, N, SEED);
    let estimated = estimate_two_level(bench, &cfg, Confidence::C95, reps);
    assert_eq!(folded, estimated, "{}", bench.name());
    assert_eq!(folded.planned, fixed.strata.len() * N);
    run
}

#[test]
fn va_replays_and_prefixes_equal_the_campaigns_run() {
    check(&Va);
    // VA has instruction classes it never executes: empty strata.
    let fixed = class_campaign(&Va, 2);
    assert!(fixed.strata.iter().any(|s| s.empty));
    assert!(fixed.strata.iter().all(|s| s.outcomes.len() == 2));
    let class = TrialTarget::Fault(CLASS_KINDS[0]);
    assert!(fixed.stratum(0, class).is_some() && fixed.stratum(1, class).is_none());
}

#[test]
fn sradv1_replays_and_prefixes_equal_the_campaigns_run() {
    let run = check(&SradV1);
    // And strata that stop at the cap without converging.
    assert!((run.strata.iter()).any(|s| s.converged_wave.is_none() && s.n == CAP));
}
