//! Adaptive, CI-driven campaign sizing: instead of a fixed `n` per
//! (kernel, target) stratum, trials are dispatched in deterministic
//! *waves* and each stratum stops as soon as its derated failure-rate
//! confidence interval is tight enough. Low-vulnerability strata (and
//! empty-population strata) converge after the first wave; only the
//! genuinely uncertain ones keep sampling — the trial-count savings the
//! paper's Section II-A sizing rule leaves on the table.
//!
//! Determinism contract: the trials of wave `w` depend only on
//! (seed, app, strata specs) — never on *how* earlier waves were
//! executed — because [`plan_wave`] derives per-trial seeds from the same
//! (kernel, target, ordinal) streams as the fixed-n planners. Convergence
//! decisions are pure functions of complete wave record sets: each wave's
//! records pass through a [`RecordSet`] and the one stratum fold
//! ([`assemble`]), whose strata — the wave plan's, which *are* the slices
//! the pending strata asked for — are folded into the running counts. So an
//! adaptive campaign run single-shot, sharded, killed-and-resumed, or
//! farmed out over dispatch workers produces byte-identical wave plans,
//! records, and final intervals.
//!
//! Every wave is planned against one [`AppCaptures`] handle: the golden
//! run happens once per campaign, and the snapshot set / access trace /
//! CTA log are captured by the first wave that executes a trial, not by
//! every wave.
//!
//! Which strata a wave samples and how a stratum folds a wave are one
//! rule (`AdaptiveResult::next_wave`, `AdaptiveResult::fold_wave`),
//! shared by [`run_adaptive`] and by [`replay_adaptive`], which replays
//! the schedule over a fixed campaign's records.

use kernels::Benchmark;
use relia::{
    assemble, derating_factor, execute_shard, plan_wave, records_fingerprint, AppCaptures,
    CampaignCfg, ClassCounts, Confidence, EngineCfg, EngineError, Layer, PreparedCampaign,
    RecordSet, StrataRecords, StratumSpec, TrialRecord, TrialTarget,
};
use vgpu_sim::{HwStructure, SwFaultKind};

use crate::ci::wilson;
use crate::twolevel::CLASS_KINDS;

/// How an adaptive campaign decides it is done.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveCfg {
    /// Target half-width of each stratum's *derated* failure-rate CI.
    pub ci_target: f64,
    /// Trials added to each unconverged stratum per wave.
    pub wave_size: usize,
    /// Hard per-stratum trial cap (a stratum stopping here is `capped`,
    /// not converged).
    pub max_per_stratum: usize,
    pub conf: Confidence,
}

impl AdaptiveCfg {
    pub fn new(ci_target: f64, wave_size: usize, max_per_stratum: usize) -> Self {
        AdaptiveCfg {
            ci_target,
            wave_size,
            max_per_stratum,
            conf: Confidence::C95,
        }
    }

    /// `Err(reason)` when the configuration cannot drive a terminating
    /// campaign (CLI layers surface this as a usage error).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.ci_target > 0.0 && self.ci_target < 1.0) {
            return Err(format!(
                "ci-target must be in (0, 1), got {}",
                self.ci_target
            ));
        }
        if self.wave_size == 0 {
            return Err("wave-size must be >= 1".into());
        }
        if self.max_per_stratum < self.wave_size {
            return Err(format!(
                "max-trials ({}) must be >= wave-size ({})",
                self.max_per_stratum, self.wave_size
            ));
        }
        Ok(())
    }
}

/// One (kernel, target) stratum of an adaptive campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveStratum {
    pub kernel_idx: usize,
    pub target: TrialTarget,
    /// Outcome counts of the trials executed so far.
    pub counts: ClassCounts,
    /// CI derating: the structure's derating factor for uarch strata,
    /// `1.0` for software strata. Multiplies the raw Wilson half-width —
    /// a stratum whose failures are derated away needs no tight raw CI.
    pub derate: f64,
    /// The target population is empty (every planned trial is trivially
    /// masked); the true rate is exactly 0 and the stratum converges
    /// after its first wave regardless of the interval.
    pub empty: bool,
    /// Wave after which the stratum converged; `None` means it hit
    /// `max_per_stratum` without reaching the CI target.
    pub converged_wave: Option<u64>,
}

impl AdaptiveStratum {
    /// A stratum no wave has sampled yet.
    fn new(kernel_idx: usize, target: TrialTarget, derate: f64) -> Self {
        AdaptiveStratum {
            kernel_idx,
            target,
            counts: ClassCounts::default(),
            derate,
            empty: false,
            converged_wave: None,
        }
    }

    /// Trials executed (= the ordinal the next wave would start at).
    pub fn n(&self) -> usize {
        self.counts.total() as usize
    }

    /// The stratum's current derated CI half-width (what the target is
    /// compared against): of the failure rate's Wilson interval, which is
    /// `[0, 1]` before the first wave.
    pub fn derated_halfwidth(&self, conf: Confidence) -> f64 {
        if self.empty {
            return 0.0;
        }
        let ci = wilson(self.counts.failures() as u64, self.n() as u64, conf);
        self.derate * ci.half_width()
    }

    fn converged(&self, acfg: &AdaptiveCfg) -> bool {
        self.n() > 0 && (self.empty || self.derated_halfwidth(acfg.conf) <= acfg.ci_target)
    }

    /// The ordinals the next wave samples: `wave_size` more, up to the
    /// cap; `None` once the stratum converged or reached the cap.
    fn next_slice(&self, acfg: &AdaptiveCfg) -> Option<StratumSpec> {
        let n = self.n();
        let open = self.converged_wave.is_none() && n < acfg.max_per_stratum;
        open.then(|| StratumSpec {
            kernel_idx: self.kernel_idx,
            target: self.target,
            start: n,
            count: acfg.wave_size.min(acfg.max_per_stratum - n),
        })
    }
}

/// Outcome of one adaptive campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveResult {
    pub app: String,
    pub layer: Layer,
    pub strata: Vec<AdaptiveStratum>,
    /// Waves executed.
    pub waves: u64,
    /// Order-sensitive digest of all wave-plan fingerprints.
    pub plans_fp: u64,
    /// Order-sensitive digest of all per-wave record fingerprints —
    /// byte-identical across single-shot / sharded / resumed / dispatched
    /// executions of the same campaign.
    pub records_fp: u64,
}

impl AdaptiveResult {
    /// A campaign no wave has run yet.
    fn start(app: String, layer: Layer, strata: Vec<AdaptiveStratum>) -> Self {
        AdaptiveResult {
            app,
            layer,
            strata,
            waves: 0,
            plans_fp: 0,
            records_fp: 0,
        }
    }

    /// Trials executed across all strata.
    pub fn total_trials(&self) -> usize {
        self.strata.iter().map(|s| s.n()).sum()
    }

    /// Trials a uniform fixed-n design would need for the same guarantee:
    /// every stratum sized at the worst stratum's trial count.
    pub fn uniform_equivalent(&self) -> usize {
        let max_n = self.strata.iter().map(|s| s.n()).max().unwrap_or(0);
        max_n * self.strata.len()
    }

    /// Trial-count savings factor vs the uniform design (`>= 1.0`).
    pub fn savings(&self) -> f64 {
        let t = self.total_trials();
        if t == 0 {
            1.0
        } else {
            self.uniform_equivalent() as f64 / t as f64
        }
    }

    /// Worst derated CI half-width over the non-empty strata.
    pub fn max_halfwidth(&self, conf: Confidence) -> f64 {
        self.strata
            .iter()
            .map(|s| s.derated_halfwidth(conf))
            .fold(0.0, f64::max)
    }

    /// The next wave: the slice every stratum still sampling asks for, in
    /// stratum order. Empty when the campaign is done.
    fn next_wave(&self, acfg: &AdaptiveCfg) -> Vec<StratumSpec> {
        (self.strata.iter())
            .filter_map(|s| s.next_slice(acfg))
            .collect()
    }

    /// Fold the wave [`AdaptiveResult::next_wave`] asks for: one row per
    /// slice, in order — the slice's outcome counts (one per trial of the
    /// slice), and whether the stratum's population is empty (the same
    /// verdict in every wave). A stratum converges once its derated
    /// interval meets the target.
    fn fold_wave(
        &mut self,
        acfg: &AdaptiveCfg,
        rows: impl IntoIterator<Item = (ClassCounts, bool)>,
    ) {
        let wave = self.waves;
        let sampled = (self.strata.iter_mut()).filter(|s| s.next_slice(acfg).is_some());
        for (s, (counts, empty)) in sampled.zip(rows) {
            s.empty = empty;
            s.counts.add(&counts);
            if s.converged(acfg) {
                s.converged_wave = Some(wave);
            }
        }
        self.waves += 1;
    }
}

/// The standard uarch stratification: every kernel × storage structure.
pub fn uarch_targets() -> Vec<TrialTarget> {
    HwStructure::ALL
        .iter()
        .map(|&h| TrialTarget::Structure(h))
        .collect()
}

/// The two-level software stratification: every kernel × instruction
/// class ([`CLASS_KINDS`]).
pub fn class_targets() -> Vec<TrialTarget> {
    CLASS_KINDS.map(TrialTarget::Fault).to_vec()
}

/// The standard software stratification (dest-value + dest-value-load).
pub fn sw_targets() -> Vec<TrialTarget> {
    vec![
        TrialTarget::Fault(SwFaultKind::DestValue),
        TrialTarget::Fault(SwFaultKind::DestValueLoad),
    ]
}

fn fold_fp(acc: u64, x: u64) -> u64 {
    acc.rotate_left(7) ^ x
}

/// Run an adaptive campaign, delegating each wave's execution to `exec`.
///
/// `exec` receives the prepared wave and its index and must return a
/// record set covering the wave plan (in any order; benign duplicates
/// from at-least-once execution are folded). [`execute_shard`] with any
/// `EngineCfg`, a merge of shard outputs, or a dispatch coordinator all
/// satisfy the contract — the decision loop is identical for every
/// execution strategy, which is what makes adaptive runs differentially
/// testable.
///
/// Strata are `targets × kernels`; all targets must belong to `layer`.
pub fn run_adaptive<E>(
    bench: &dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
    layer: Layer,
    targets: &[TrialTarget],
    acfg: &AdaptiveCfg,
    mut exec: E,
) -> Result<AdaptiveResult, EngineError>
where
    E: FnMut(&PreparedCampaign, u64) -> Result<Vec<TrialRecord>, EngineError>,
{
    obs::span("stat.run_adaptive", move || {
        assert!(
            acfg.validate().is_ok(),
            "invalid adaptive config: {:?}",
            acfg.validate()
        );
        let captures = AppCaptures::new(bench, &cfg.gpu, layer, hardened);
        let golden = captures.golden();
        let strata = (0..bench.kernels().len())
            .flat_map(|k_idx| {
                targets.iter().map(move |&target| {
                    let derate = match target {
                        TrialTarget::Structure(h) => derating_factor(golden, k_idx, &cfg.gpu, h),
                        TrialTarget::Fault(_) => 1.0,
                    };
                    AdaptiveStratum::new(k_idx, target, derate)
                })
            })
            .collect();
        let mut result = AdaptiveResult::start(bench.name().to_string(), layer, strata);
        loop {
            let specs = result.next_wave(acfg);
            if specs.is_empty() {
                return Ok(result);
            }
            let wave = result.waves;
            let prep = plan_wave(&captures, cfg, &specs, wave);
            result.plans_fp = fold_fp(result.plans_fp, prep.plan.fingerprint());
            let mut set = RecordSet::new(prep.plan.len());
            set.extend(&exec(&prep, wave)?)?;
            let records = set.complete()?;
            result.records_fp = fold_fp(result.records_fp, records_fingerprint(&records));

            // The wave's plan strata are the slices `next_wave` asked for, in
            // order.
            let strata = assemble(&prep, &records)?.strata;
            let rows = (strata.iter()).map(|s| (s.counts(0..s.outcomes.len()), s.empty));
            result.fold_wave(acfg, rows);

            let still_pending = result.next_wave(acfg).len() as u64;
            let max_hw = (result.strata.iter())
                .filter(|s| s.converged_wave.is_none())
                .map(|s| s.derated_halfwidth(acfg.conf))
                .fold(0.0, f64::max);
            let app = bench.name();
            let layer_label = layer.label();
            obs::counter_add(
                "adaptive_waves_total",
                &[("app", app), ("layer", layer_label)],
                1,
            );
            obs::gauge_set(
                "adaptive_ci_halfwidth_micros",
                &[("app", app), ("layer", layer_label)],
                (max_hw * 1e6) as u64,
            );
            obs::gauge_set(
                "adaptive_pending_strata",
                &[("app", app), ("layer", layer_label)],
                still_pending,
            );
            obs::emit_record(&[
                ("record", "wave".into()),
                ("app", app.into()),
                ("layer", layer_label.into()),
                ("wave", wave.into()),
                ("trials", prep.plan.len().into()),
                ("pending", still_pending.into()),
                ("strata", result.strata.len().into()),
                ("max_halfwidth_micros", ((max_hw * 1e6) as u64).into()),
            ]);
        }
    })
}

/// The adaptive campaign over the strata of a fixed-n campaign,
/// replayed: every wave reads the ordinals it asks for from the recorded
/// outcomes instead of running them. A trial does not depend on the plan
/// that holds it and a stratum stops on its own prefix alone, so with a
/// cap no larger than the recorded trials per stratum the strata, counts
/// and waves are exactly [`run_adaptive`]'s over the same targets; only
/// the fingerprints (of plans never built) stay 0. Strata are taken as
/// software strata: no derating.
pub fn replay_adaptive(records: &StrataRecords, acfg: &AdaptiveCfg) -> AdaptiveResult {
    let strata = (records.strata.iter())
        .map(|s| AdaptiveStratum::new(s.kernel_idx, s.target, 1.0))
        .collect();
    let mut result = AdaptiveResult::start(records.app.clone(), records.layer, strata);
    loop {
        let specs = result.next_wave(acfg);
        if specs.is_empty() {
            return result;
        }
        let rows = specs.iter().map(|sl| {
            let st = (records.strata.iter())
                .find(|s| s.kernel_idx == sl.kernel_idx && s.target == sl.target)
                .expect("a recorded stratum");
            (st.counts(sl.start..sl.start + sl.count), st.empty)
        });
        result.fold_wave(acfg, rows);
    }
}

/// [`run_adaptive`] with plain single-shot in-process wave execution.
pub fn run_adaptive_single(
    bench: &dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
    layer: Layer,
    targets: &[TrialTarget],
    acfg: &AdaptiveCfg,
) -> Result<AdaptiveResult, EngineError> {
    run_adaptive(bench, cfg, hardened, layer, targets, acfg, |prep, _| {
        execute_shard(prep, &EngineCfg::single_shot())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::apps::va::Va;

    fn acfg() -> AdaptiveCfg {
        AdaptiveCfg::new(0.12, 8, 64)
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(AdaptiveCfg::new(0.1, 4, 16).validate().is_ok());
        assert!(AdaptiveCfg::new(0.0, 4, 16).validate().is_err());
        assert!(AdaptiveCfg::new(1.5, 4, 16).validate().is_err());
        assert!(AdaptiveCfg::new(0.1, 0, 16).validate().is_err());
        assert!(AdaptiveCfg::new(0.1, 8, 4).validate().is_err());
    }

    #[test]
    fn adaptive_uarch_terminates_and_is_deterministic() {
        let cfg = CampaignCfg::new(0, 0, 0xD0_0D);
        let a =
            run_adaptive_single(&Va, &cfg, false, Layer::Uarch, &uarch_targets(), &acfg()).unwrap();
        let b =
            run_adaptive_single(&Va, &cfg, false, Layer::Uarch, &uarch_targets(), &acfg()).unwrap();
        assert_eq!(a, b, "same seed, same campaign");
        assert!(a.waves >= 1);
        assert!(a.total_trials() > 0);
        for s in &a.strata {
            assert!(s.n() <= 64, "cap respected: {}", s.n());
            if let Some(w) = s.converged_wave {
                assert!(w < a.waves);
            }
        }
        // Converged strata actually meet the target (or are empty/capped).
        for s in a.strata.iter().filter(|s| s.converged_wave.is_some()) {
            assert!(s.empty || s.derated_halfwidth(Confidence::C95) <= 0.12 + 1e-12);
        }
    }

    #[test]
    fn adaptive_matches_sharded_execution_byte_for_byte() {
        let cfg = CampaignCfg::new(0, 0, 0xD0_0D);
        let single =
            run_adaptive_single(&Va, &cfg, false, Layer::Uarch, &uarch_targets(), &acfg()).unwrap();
        let sharded = run_adaptive(
            &Va,
            &cfg,
            false,
            Layer::Uarch,
            &uarch_targets(),
            &acfg(),
            |prep, _| {
                let mut recs = Vec::new();
                for i in 0..3 {
                    recs.extend(execute_shard(prep, &EngineCfg::sharded(3, i))?);
                }
                Ok(recs)
            },
        )
        .unwrap();
        assert_eq!(single, sharded);
        assert_eq!(single.records_fp, sharded.records_fp);
        assert_eq!(single.plans_fp, sharded.plans_fp);
    }

    #[test]
    fn adaptive_sw_class_strata_converge_with_savings_structure() {
        let cfg = CampaignCfg::new(0, 0, 0x5EED);
        let r = run_adaptive_single(
            &Va,
            &cfg,
            false,
            Layer::Sw,
            &class_targets(),
            &AdaptiveCfg::new(0.2, 6, 48),
        )
        .unwrap();
        let converged = r.strata.iter().all(|s| s.converged_wave.is_some());
        assert!(converged || r.strata.iter().any(|s| s.n() == 48));
        // Va has kernels with empty instruction classes: those strata
        // must converge after wave 0 with rate 0.
        let empties: Vec<_> = r.strata.iter().filter(|s| s.empty).collect();
        assert!(!empties.is_empty(), "Va has empty class strata");
        for s in &empties {
            assert_eq!(s.converged_wave, Some(0));
            assert_eq!(s.counts.failures(), 0);
        }
        assert!(r.savings() >= 1.0);
        assert_eq!(r.total_trials(), r.strata.iter().map(|s| s.n()).sum());
    }
}
