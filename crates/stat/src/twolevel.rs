//! The two-level statistical SDC estimator (the Hari et al. relyzer
//! family of models, Section II-C of the paper's related work): instead
//! of injecting blindly into the whole dynamic instruction stream, the
//! stream is partitioned into instruction classes, a small stratified
//! sample is injected per class, and the class-level failure rates are
//! propagated back up through the class population shares to a
//! kernel-level and application-level estimate — with honest confidence
//! intervals at every level (Wilson per class, percentile bootstrap for
//! the propagated estimate).
//!
//! The class strata reuse the deterministic plan/execute engine end to
//! end: a two-level campaign is an ordinary [`plan_sw`] plan over
//! [`CLASS_KINDS`], so checkpoints, shard merges, and dispatch leases all
//! work unchanged, and the estimate is a fold of its records
//! ([`StrataRecords::two_level`]) — of any prefix of them.

use kernels::Benchmark;
use relia::{
    execute_shard, plan_sw, AppCaptures, CampaignCfg, ClassCounts, Confidence, EngineCfg, Layer,
    TrialTarget,
};
use vgpu_arch::InstrClass;
use vgpu_sim::SwFaultKind;

use crate::ci::{bootstrap_weighted_ci, weighted_rate, wilson, Interval, WeightedStratum};
use crate::strata::StrataRecords;

/// The per-class sub-campaigns of a two-level plan, in the stable
/// [`InstrClass::ALL`] order (seed-derivation tags 20 + index).
pub const CLASS_KINDS: [SwFaultKind; InstrClass::COUNT] = {
    let mut kinds = [SwFaultKind::DestValue; InstrClass::COUNT];
    let mut i = 0;
    while i < InstrClass::COUNT {
        kinds[i] = SwFaultKind::DestClass(InstrClass::ALL[i]);
        i += 1;
    }
    kinds
};

/// Bootstrap replicates used by the top-level estimate unless the caller
/// picks a different budget.
pub const DEFAULT_BOOTSTRAP_REPS: usize = 1000;

/// One instruction-class stratum of one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassEstimate {
    pub class: InstrClass,
    /// This class's share of the kernel's register-writing dynamic
    /// instructions (the propagation weight; shares sum to 1 over a
    /// kernel unless the kernel writes no registers at all).
    pub share: f64,
    pub counts: ClassCounts,
    /// Wilson interval of the class SDC rate.
    pub sdc_ci: Interval,
    /// Wilson interval of the class failure (non-masked) rate.
    pub failure_ci: Interval,
}

impl ClassEstimate {
    pub fn sdc_rate(&self) -> f64 {
        let t = self.counts.total();
        if t == 0 {
            0.0
        } else {
            self.counts.sdc as f64 / t as f64
        }
    }
}

/// Two-level estimate for one kernel: class rates propagated through
/// class shares.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEstimate {
    pub kernel: String,
    /// Dynamic thread instructions (the application-weighting metric,
    /// same rule as the SVF assembly).
    pub instrs: u64,
    /// Register-writing dynamic instructions (the class-share
    /// denominator).
    pub gp_dest_instrs: u64,
    pub classes: Vec<ClassEstimate>,
}

impl KernelEstimate {
    /// Kernel SDC estimate: `Σ share_c · SDC-rate_c`.
    pub fn sdc(&self) -> f64 {
        self.classes.iter().map(|c| c.share * c.sdc_rate()).sum()
    }

    /// Kernel failure estimate: `Σ share_c · FR_c`.
    pub fn failure(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.share * c.counts.failure_rate())
            .sum()
    }
}

/// The propagated application-level two-level estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLevelEstimate {
    pub app: String,
    pub kernels: Vec<KernelEstimate>,
    /// Application SDC point estimate (instruction-weighted kernel SDC).
    pub sdc: f64,
    /// Application failure-rate point estimate.
    pub failure: f64,
    /// Bootstrap CI of the propagated application SDC estimate.
    pub sdc_ci: Interval,
    /// Bootstrap CI of the propagated application failure estimate.
    pub failure_ci: Interval,
    /// Planned trials (all strata, including empty-population ones).
    pub planned: usize,
    /// Trials that actually resolved to an injection (non-trivial).
    pub injected: usize,
}

/// Flatten the (kernel, class) strata into weighted bootstrap strata.
/// `pick` selects the per-stratum success count (SDC-only or any
/// failure). Kernel weight is the instruction share; within a kernel the
/// class weight is its population share — exactly the propagation rule
/// of the point estimate, so `weighted_rate` of these strata *is* the
/// point estimate.
fn bootstrap_strata(
    kernels: &[KernelEstimate],
    pick: impl Fn(&ClassCounts) -> u64,
) -> Vec<WeightedStratum> {
    let total_instrs: u64 = kernels.iter().map(|k| k.instrs).sum();
    let mut out = Vec::new();
    for k in kernels {
        let kw = k.instrs as f64 / total_instrs.max(1) as f64;
        for c in &k.classes {
            out.push(WeightedStratum {
                failures: pick(&c.counts),
                n: c.counts.total() as u64,
                weight: kw * c.share,
            });
        }
    }
    out
}

impl StrataRecords {
    /// The propagated two-level estimate from the first `n` ordinals of
    /// every instruction-class stratum (strata of other targets are
    /// skipped): what a plan of `n` trials per (kernel, class) folds to.
    /// Deterministic: the bootstrap seed is derived from the campaign
    /// seed.
    pub fn two_level(&self, n: usize, conf: Confidence, reps: usize) -> TwoLevelEstimate {
        let mut kernels: Vec<KernelEstimate> = (self.kernels.iter())
            .map(|(name, stats)| KernelEstimate {
                kernel: name.clone(),
                instrs: stats.thread_instrs,
                gp_dest_instrs: stats.gp_dest_instrs,
                classes: Vec::new(),
            })
            .collect();
        let (mut planned, mut injected) = (0, 0);
        for st in &self.strata {
            let TrialTarget::Fault(SwFaultKind::DestClass(class)) = st.target else {
                continue;
            };
            let taken = n.min(st.outcomes.len());
            planned += taken;
            injected += if st.empty { 0 } else { taken };
            let stats = &self.kernels[st.kernel_idx].1;
            let pop = class.index().map_or(0, |i| stats.class_dest_instrs[i]);
            let share = if stats.gp_dest_instrs == 0 {
                0.0
            } else {
                pop as f64 / stats.gp_dest_instrs as f64
            };
            // An empty class population contributes weight 0; its trivially
            // masked trials carry no evidence and must not narrow the
            // propagated CI, so drop its sample.
            let c = if pop == 0 {
                ClassCounts::default()
            } else {
                st.counts(0..taken)
            };
            kernels[st.kernel_idx].classes.push(ClassEstimate {
                class,
                share,
                counts: c,
                sdc_ci: wilson(c.sdc as u64, c.total() as u64, conf),
                failure_ci: wilson((c.sdc + c.timeout + c.due) as u64, c.total() as u64, conf),
            });
        }

        let sdc_strata = bootstrap_strata(&kernels, |c| c.sdc as u64);
        let fail_strata = bootstrap_strata(&kernels, |c| (c.sdc + c.timeout + c.due) as u64);
        let boot_seed = self.seed ^ 0x7701_e7e1u64.rotate_left(13);
        TwoLevelEstimate {
            app: self.app.clone(),
            sdc: weighted_rate(&sdc_strata),
            failure: weighted_rate(&fail_strata),
            sdc_ci: bootstrap_weighted_ci(&sdc_strata, reps, boot_seed, conf),
            failure_ci: bootstrap_weighted_ci(&fail_strata, reps, boot_seed ^ 1, conf),
            planned,
            injected,
            kernels,
        }
    }
}

/// Plan, execute (single shard), and fold the two-level estimate for one
/// application. `cfg.n_sw` is the per-(kernel, class) sample size — the
/// whole point of the model is that it can be small.
pub fn estimate_two_level(
    bench: &dyn Benchmark,
    cfg: &CampaignCfg,
    conf: Confidence,
    reps: usize,
) -> TwoLevelEstimate {
    let captures = AppCaptures::new(bench, &cfg.gpu, Layer::Sw, false);
    let prep = plan_sw(&captures, cfg, &CLASS_KINDS);
    let records = execute_shard(&prep, &EngineCfg::single_shot())
        .expect("single-shot execution performs no checkpoint I/O");
    let strata = StrataRecords::assemble(&prep, &records).expect("a single shard covers the plan");
    strata.two_level(cfg.n_sw, conf, reps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::apps::va::Va;

    #[test]
    fn class_kinds_cover_all_classes_with_stable_tags() {
        for (i, &kind) in CLASS_KINDS.iter().enumerate() {
            assert_eq!(kind, SwFaultKind::DestClass(InstrClass::ALL[i]));
            assert_eq!(relia::sw_seed_tag(kind), 20 + i as u64);
        }
    }

    #[test]
    fn two_level_estimate_is_deterministic_and_coherent() {
        let cfg = CampaignCfg::new(4, 6, 0xA11CE);
        let a = estimate_two_level(&Va, &cfg, Confidence::C95, 200);
        let b = estimate_two_level(&Va, &cfg, Confidence::C95, 200);
        assert_eq!(a, b, "same seed, same estimate");
        assert!(a.sdc.is_finite() && a.failure.is_finite());
        assert!(a.sdc <= a.failure + 1e-12, "SDC is a subset of failures");
        assert!(a.sdc_ci.contains(a.sdc), "CI covers the point estimate");
        assert!(a.failure_ci.contains(a.failure));
        assert!(a.injected <= a.planned);
        for k in &a.kernels {
            let share_sum: f64 = k.classes.iter().map(|c| c.share).sum();
            assert!(
                share_sum <= 1.0 + 1e-9,
                "class shares over-cover: {share_sum}"
            );
            if k.gp_dest_instrs > 0 {
                assert!(
                    (share_sum - 1.0).abs() < 1e-9,
                    "classes partition the register-writing stream: {share_sum}"
                );
            }
        }
    }

    #[test]
    fn propagated_point_equals_instr_weighted_kernel_estimates() {
        let cfg = CampaignCfg::new(4, 5, 0xBEE);
        let e = estimate_two_level(&Va, &cfg, Confidence::C95, 50);
        let total: u64 = e.kernels.iter().map(|k| k.instrs).sum();
        let by_hand: f64 = e
            .kernels
            .iter()
            .map(|k| k.sdc() * k.instrs as f64 / total.max(1) as f64)
            .sum();
        assert!((e.sdc - by_hand).abs() < 1e-12);
    }
}
