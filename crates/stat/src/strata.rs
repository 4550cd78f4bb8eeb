//! NaN-hardened per-stratum aggregation for adaptive campaigns, and a
//! fixed campaign kept stratum by stratum.
//!
//! Adaptive waves routinely produce strata with zero or one trial (a
//! stratum that converged in wave 0, or whose eligible population is
//! empty). Every statistic here is total: means and variances of empty
//! or single-trial strata are `0.0`, never NaN, and the confidence
//! interval of an empty stratum collapses to `[0, 1]` — so folding such
//! strata into a merge can never poison the aggregate.
//!
//! [`StrataRecords`] keeps each stratum's outcomes in ordinal order. A
//! trial depends only on (seed, app, kernel, target, ordinal), never on
//! the plan that holds it, so the first `k` outcomes of a stratum are the
//! records a plan of `k` trials per stratum would produce, and a slice
//! `a..b` is the records an adaptive wave asking for those ordinals would
//! produce: smaller designs are read off one journaled campaign instead
//! of being run again ([`StrataRecords::two_level`],
//! [`StrataRecords::adaptive`]).

use std::ops::Range;

use kernels::Outcome;
use relia::{
    ClassCounts, ClassRates, Confidence, EngineError, Layer, PreparedCampaign, RecordSet,
    TrialRecord, TrialTarget,
};
use vgpu_sim::{Stats, SwFaultKind};

use crate::ci::{wilson, Interval};

/// One stratum of a fixed plan with its outcomes in ordinal order.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedStratum {
    pub kernel_idx: usize,
    pub target: TrialTarget,
    /// The target population is empty: every trial was planned without a
    /// fault and is trivially masked.
    pub empty: bool,
    pub outcomes: Vec<Outcome>,
}

impl RecordedStratum {
    /// Outcome counts of the trials with ordinals `range`.
    pub fn counts(&self, range: Range<usize>) -> ClassCounts {
        let mut c = ClassCounts::default();
        self.outcomes[range].iter().for_each(|&o| c.record(o));
        c
    }
}

/// A complete fixed-n campaign, stratum by stratum, with each kernel's
/// golden-run statistics (its populations and weights).
#[derive(Debug, Clone, PartialEq)]
pub struct StrataRecords {
    pub app: String,
    pub layer: Layer,
    pub seed: u64,
    /// Kernel names and golden-run statistics, in kernel order.
    pub kernels: Vec<(String, Stats)>,
    /// The plan's strata, in plan order.
    pub strata: Vec<RecordedStratum>,
}

impl StrataRecords {
    /// Split the records of `prep` by stratum. Fails like
    /// [`relia::assemble`] when they do not cover the plan or disagree.
    pub fn assemble(prep: &PreparedCampaign, records: &[TrialRecord]) -> Result<Self, EngineError> {
        let mut set = RecordSet::new(prep.plan.len());
        set.extend(records)?;
        let outs = set.complete()?;
        let strata = (prep.plan.strata_trials())
            .map(|(st, trials)| RecordedStratum {
                kernel_idx: st.kernel_idx,
                target: st.target,
                empty: trials.iter().all(|t| t.fault.is_none()),
                outcomes: trials.iter().map(|t| outs[t.index].outcome).collect(),
            })
            .collect();
        let names = prep.bench().kernels().iter();
        let kernels = (names.enumerate())
            .map(|(k, name)| (name.to_string(), prep.golden.kernel_stats(k)))
            .collect();
        Ok(StrataRecords {
            app: prep.plan.app.clone(),
            layer: prep.plan.layer,
            seed: prep.plan.seed,
            kernels,
            strata,
        })
    }

    /// The stratum of (`kernel_idx`, `target`).
    pub fn stratum(&self, kernel_idx: usize, target: TrialTarget) -> Option<&RecordedStratum> {
        (self.strata.iter()).find(|s| s.kernel_idx == kernel_idx && s.target == target)
    }

    /// The application's rates under fault kind `kind`: each kernel's
    /// stratum weighted by the kind's population in it — a sample drawn
    /// uniformly from the whole application's `kind`-eligible
    /// instructions, stratified by kernel.
    pub fn app_rates(&self, kind: SwFaultKind) -> ClassRates {
        let target = TrialTarget::Fault(kind);
        ClassRates::weighted(
            (self.strata.iter().filter(|s| s.target == target)).map(|s| {
                let rates = s.counts(0..s.outcomes.len()).rates();
                (rates, kind.eligible(&self.kernels[s.kernel_idx].1))
            }),
        )
    }
}

/// Outcome statistics of one (kernel, target) stratum, safe to fold at
/// any trial count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StratumStats {
    pub counts: ClassCounts,
}

impl StratumStats {
    /// Trials recorded so far.
    pub fn n(&self) -> u64 {
        self.counts.total() as u64
    }

    /// Non-masked outcomes (the binomial "successes" of the failure-rate
    /// estimate).
    pub fn failures(&self) -> u64 {
        (self.counts.sdc + self.counts.timeout + self.counts.due) as u64
    }

    /// Failure-rate point estimate; `0.0` (not NaN) when empty.
    pub fn failure_rate(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.failures() as f64 / self.n() as f64
        }
    }

    /// SDC-rate point estimate; `0.0` (not NaN) when empty.
    pub fn sdc_rate(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.counts.sdc as f64 / self.n() as f64
        }
    }

    /// Unbiased sample variance of the per-trial failure indicator:
    /// `n·p̂(1−p̂)/(n−1)`. Zero-trial and single-trial strata have no
    /// dispersion information; both return `0.0`, never NaN.
    pub fn failure_variance(&self) -> f64 {
        let n = self.n();
        if n <= 1 {
            return 0.0;
        }
        let p = self.failure_rate();
        n as f64 * p * (1.0 - p) / (n - 1) as f64
    }

    /// Wilson CI of the failure rate; `[0, 1]` when empty.
    pub fn failure_ci(&self, conf: Confidence) -> Interval {
        wilson(self.failures(), self.n(), conf)
    }

    /// Wilson CI of the SDC rate; `[0, 1]` when empty.
    pub fn sdc_ci(&self, conf: Confidence) -> Interval {
        wilson(self.counts.sdc as u64, self.n(), conf)
    }

    /// Fold another stratum's counts in (the shard/wave merge fold).
    pub fn merge(&mut self, o: &StratumStats) {
        self.counts.add(&o.counts);
    }

    pub fn record(&mut self, outcome: kernels::Outcome) {
        self.counts.record(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::Outcome;

    #[test]
    fn empty_stratum_is_nan_free_and_degenerate() {
        let s = StratumStats::default();
        assert_eq!(s.n(), 0);
        assert_eq!(s.failure_rate(), 0.0);
        assert_eq!(s.sdc_rate(), 0.0);
        assert_eq!(s.failure_variance(), 0.0);
        assert!(s.failure_rate().is_finite() && s.failure_variance().is_finite());
        assert_eq!(s.failure_ci(Confidence::C95), Interval::FULL);
        assert_eq!(s.sdc_ci(Confidence::C99), Interval::FULL);
    }

    #[test]
    fn single_trial_stratum_is_finite() {
        for o in [Outcome::Masked, Outcome::Sdc] {
            let mut s = StratumStats::default();
            s.record(o);
            assert_eq!(s.n(), 1);
            assert!(s.failure_rate().is_finite());
            assert_eq!(s.failure_variance(), 0.0, "n=1 has no dispersion");
            let ci = s.failure_ci(Confidence::C95);
            assert!(ci.lo.is_finite() && ci.hi.is_finite());
            assert!(ci.half_width() < 0.5, "one trial is evidence: {ci:?}");
        }
    }

    #[test]
    fn merging_empty_strata_never_poisons_the_fold() {
        let mut acc = StratumStats::default();
        let mut live = StratumStats::default();
        for _ in 0..7 {
            live.record(Outcome::Masked);
        }
        for _ in 0..3 {
            live.record(Outcome::Sdc);
        }
        acc.merge(&StratumStats::default());
        acc.merge(&live);
        acc.merge(&StratumStats::default());
        assert_eq!(acc.n(), 10);
        assert!((acc.failure_rate() - 0.3).abs() < 1e-12);
        assert!((acc.sdc_rate() - 0.3).abs() < 1e-12);
        assert!(acc.failure_variance() > 0.0);
        // Merge is commutative on counts: fold order cannot matter.
        let mut rev = StratumStats::default();
        rev.merge(&live);
        rev.merge(&StratumStats::default());
        assert_eq!(acc, rev);
    }

    #[test]
    fn variance_matches_bernoulli_formula() {
        let mut s = StratumStats::default();
        for _ in 0..6 {
            s.record(Outcome::Masked);
        }
        for _ in 0..4 {
            s.record(Outcome::Due);
        }
        // n=10, p=0.4: 10·0.24/9
        assert!((s.failure_variance() - 10.0 * 0.24 / 9.0).abs() < 1e-12);
    }
}
