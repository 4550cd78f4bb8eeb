//! Deterministic injection plans: seed → explicit trial list.
//!
//! A [`CampaignPlan`] expands a campaign configuration into the complete,
//! ordered list of trials it will run — for each trial the derived seed,
//! the targeted launch, and the fully resolved fault (structure/
//! instruction, bit, cycle). Because every trial is fixed up front from
//! `(seed, app, kernel, target, trial)` alone, the plan is identical no
//! matter how execution is split: across rayon workers, across
//! `--shards M --shard-index i` processes, or across an interruption and
//! the resume of its journal. The plan keeps the [`StratumSpec`]s it was
//! expanded from and lays its trials out stratum by stratum, so a wave's
//! job frame, the assemble fold and the adaptive sizer all read one
//! description instead of reverse-engineering it from the trial list.
//! [`shard_trials`] partitions a plan into disjoint strided slices, and
//! [`CampaignPlan::fingerprint`] condenses the whole trial list into one
//! u64 so checkpoints and shard outputs can prove they came from the same
//! plan before being merged.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use kernels::{AppSnapshots, Benchmark, CtaLog, GoldenRun, PlannedFault};
use vgpu_arch::InstrClass;
use vgpu_sim::{FaultPattern, HwStructure, Mode, SwFault, SwFaultKind, UarchFault};

use crate::campaign::CampaignCfg;
use crate::captures::{AppCaptures, Capture};

/// Abstraction layer of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Microarchitecture-level (gpuFI-4 model, AVF side).
    Uarch,
    /// Software-level (NVBitFI model, SVF/PVF side).
    Sw,
}

impl Layer {
    /// The engine a campaign of this layer runs on.
    pub fn mode(&self) -> Mode {
        match self {
            Layer::Uarch => Mode::Timed,
            Layer::Sw => Mode::Functional,
        }
    }

    /// Stable identifier used in metric labels, events, and checkpoints.
    pub fn label(&self) -> &'static str {
        match self {
            Layer::Uarch => "uarch",
            Layer::Sw => "sw",
        }
    }

    pub fn from_label(s: &str) -> Option<Layer> {
        match s {
            "uarch" => Some(Layer::Uarch),
            "sw" => Some(Layer::Sw),
            _ => None,
        }
    }
}

/// `base` | `tmr`: how journal names, the `variant` metric label and the
/// manifest call the unprotected and the TMR-hardened variant of an
/// application.
pub fn variant_label(hardened: bool) -> &'static str {
    if hardened {
        "tmr"
    } else {
        "base"
    }
}

/// What one trial targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialTarget {
    /// A hardware structure (uarch campaigns).
    Structure(HwStructure),
    /// A software fault kind (sw campaigns).
    Fault(SwFaultKind),
}

impl TrialTarget {
    pub fn label(&self) -> &'static str {
        match self {
            TrialTarget::Structure(h) => h.label(),
            TrialTarget::Fault(k) => k.label(),
        }
    }
}

/// One fully resolved injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedTrial {
    /// Global index into [`CampaignPlan::trials`] — the identity used by
    /// checkpoints and shard merging.
    pub index: usize,
    /// Index into [`Benchmark::kernels`].
    pub kernel_idx: usize,
    pub target: TrialTarget,
    /// Ordinal within its (kernel, target) sub-campaign.
    pub trial: usize,
    /// Per-trial derived seed (reproduces the trial exactly).
    pub seed: u64,
    /// Resolved fault: (golden launch ordinal, fault). `None` means the
    /// target population was empty and the trial is trivially masked.
    pub fault: Option<(usize, PlannedFault)>,
}

/// The complete, deterministic trial list of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    pub app: String,
    pub layer: Layer,
    pub seed: u64,
    pub hardened: bool,
    /// Fault pattern every trial of this plan applies. Pure payload: it
    /// never feeds the per-trial seed derivation, so the (cycle, location,
    /// bit) coordinates of a plan are identical across patterns and
    /// single-bit plans predate the field byte-for-byte.
    pub pattern: FaultPattern,
    /// Injections per (kernel, target) sub-campaign.
    pub n_per_target: usize,
    /// The strata the plan was expanded from, exactly as the expander was
    /// given them. `trials` is laid out stratum by stratum: stratum `i`
    /// owns the `strata[i].count` consecutive plan indices after those of
    /// strata `0..i` ([`CampaignPlan::strata_trials`]). A zero-count
    /// stratum and a (kernel, target) that appears twice are both legal.
    pub strata: Vec<StratumSpec>,
    /// Wave index for adaptive campaigns ([`plan_wave`]);
    /// `None` for classic fixed-n plans. Folded into the fingerprint so
    /// the checkpoints and dispatch leases of different waves can never
    /// be confused, while every fixed-plan fingerprint predates the
    /// field byte-for-byte.
    pub wave: Option<u64>,
    pub trials: Vec<PlannedTrial>,
}

impl CampaignPlan {
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// Every stratum with the slice of `trials` it owns, in plan order.
    pub fn strata_trials(&self) -> impl Iterator<Item = (&StratumSpec, &[PlannedTrial])> {
        let mut rest = &self.trials[..];
        self.strata.iter().map(move |st| {
            let (mine, tail) = rest.split_at(st.count);
            rest = tail;
            (st, mine)
        })
    }

    /// Order-sensitive digest of the plan: campaign identity plus, for
    /// every trial, its derived seed and resolved fault coordinates. Two
    /// runs agree on this u64 exactly when they would execute the same
    /// injections in the same slots, so checkpoint resume and shard merge
    /// use it to reject outputs from a different seed, app, GPU
    /// configuration, or code revision of the planner.
    pub fn fingerprint(&self) -> u64 {
        let mut h = derive_seed(
            self.seed,
            &[
                str_tag(&self.app),
                str_tag(self.layer.label()),
                self.hardened as u64,
                self.n_per_target as u64,
                self.trials.len() as u64,
            ],
        );
        // Folded only for non-default patterns so every single-bit
        // fingerprint minted before the pattern axis existed stays valid
        // (checkpoints, shard outputs, dispatch handshakes).
        if self.pattern != FaultPattern::SingleBit {
            h = derive_seed(h, &[str_tag(self.pattern.label())]);
        }
        // Same back-compat rule for the adaptive wave index.
        if let Some(w) = self.wave {
            h = derive_seed(h, &[str_tag("wave"), w]);
        }
        for t in &self.trials {
            let (ord, a, b, c) = match &t.fault {
                None => (0, 0, 0, 0),
                Some((ordinal, PlannedFault::Uarch(u))) => {
                    (*ordinal as u64 + 1, u.cycle, u.loc_pick, u.bit as u64)
                }
                Some((ordinal, PlannedFault::Sw(s))) => {
                    (*ordinal as u64 + 1, s.target, s.loc_pick, s.bit as u64)
                }
            };
            h = derive_seed(h, &[t.seed, ord, a, b, c]);
        }
        h
    }
}

/// A plan bound to everything needed to execute it: the campaign
/// configuration and the [`AppCaptures`] handle — benchmark, golden run,
/// lazily captured golden material — its faults were resolved against.
/// Produced by the `prepare_*` / `plan_*` functions below, consumed by
/// [`crate::campaign::execute_shard`] and [`crate::campaign::assemble`]. Every
/// plan of one application can share one handle; whether *this* plan may
/// use what the handle holds is decided here, per plan.
pub struct PreparedCampaign<'a> {
    pub cfg: CampaignCfg,
    pub plan: CampaignPlan,
    /// The handle's golden run.
    pub golden: Arc<GoldenRun>,
    pub captures: Arc<AppCaptures<'a>>,
    /// At least one trial has a fault to inject.
    injects: bool,
    /// Per [`Capture`]: this plan has asked for the artefact before (the
    /// first ask is where `captures_reused_total` is decided).
    asked: [AtomicBool; Capture::COUNT],
}

impl<'a> PreparedCampaign<'a> {
    pub fn bench(&self) -> &'a dyn Benchmark {
        self.captures.bench()
    }

    /// The handle's artefact `what` — captured by the first plan of the
    /// application that asks — if the accelerated trial path built on it
    /// can serve this campaign: the artefact exists for the application
    /// variant (the plan's layer) and the plan has at least one fault to
    /// inject. `None` captures nothing. Counts a reuse the
    /// first time the plan is handed what an earlier plan captured.
    fn shared<'s, T>(
        &'s self,
        what: Capture,
        get: impl FnOnce(&'s AppCaptures<'a>) -> &'s T,
    ) -> Option<&'s T> {
        if !(self.injects && self.captures.serves(what)) {
            return None;
        }
        let asked = &self.asked[what as usize];
        if !asked.load(Ordering::Relaxed)
            && !asked.swap(true, Ordering::Relaxed)
            && self.captures.captured(what)
        {
            let labels = [
                ("app", self.plan.app.as_str()),
                ("kind", what.label()),
                ("variant", variant_label(self.plan.hardened)),
            ];
            obs::counter_add("captures_reused_total", &labels, 1);
        }
        Some(get(&self.captures))
    }

    /// The fast-forward snapshot set: one instrumented golden pass with
    /// `k` mid-launch snapshots per launch. `None` for campaigns
    /// fast-forward cannot serve, or `k == 0`.
    pub fn snapshots(&self, k: usize) -> Option<&Arc<AppSnapshots>> {
        if k == 0 {
            return None;
        }
        self.shared(Capture::Snapshots, |c| c.snapshots(k))
    }

    /// The replay backend's recorded golden access trace. `None` for
    /// campaigns replay cannot serve.
    pub fn trace(&self) -> Option<&Arc<trace::AppTrace>> {
        self.shared(Capture::Trace, AppCaptures::trace)
    }

    /// The golden CTA log of a software-layer campaign. `None` for
    /// campaigns CTA replay cannot serve.
    pub fn cta_log(&self) -> Option<&Arc<CtaLog>> {
        self.shared(Capture::CtaLog, AppCaptures::cta_log)
    }
}

/// Strided shard partition: shard `index` of `shards` owns plan indices
/// `index, index + shards, index + 2·shards, …`. For any `(len, shards)`
/// the shards form a disjoint cover of `0..len` (guarded by a property
/// test), so merging all shard outputs reconstructs the whole campaign.
pub fn shard_trials(len: usize, shards: usize, index: usize) -> Vec<usize> {
    assert!(shards >= 1, "shards must be >= 1");
    assert!(
        index < shards,
        "shard index {index} out of range for {shards} shards"
    );
    (index..len).step_by(shards).collect()
}

/// Deterministic per-trial seed derivation (splitmix-style hashing).
pub(crate) fn derive_seed(base: u64, tags: &[u64]) -> u64 {
    let mut x = base ^ 0x9e37_79b9_7f4a_7c15;
    for &t in tags {
        x ^= t
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(x << 6)
            .wrapping_add(x >> 2);
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 31;
    }
    x
}

/// FNV-1a over the bytes of `s`: the seed-derivation tag of a name, and
/// the content hash `campaign paper` records per CSV.
pub fn str_tag(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Seed-derivation tag of a software fault kind. The historical
/// constants (10 = dest-value, 11 = dest-value-load, 12 = arch-state)
/// are frozen — results must stay comparable across versions — and the
/// per-class strata of the two-level model claim the 20+ range, keyed by
/// the stable [`vgpu_arch::InstrClass::index`] order.
pub fn sw_seed_tag(kind: SwFaultKind) -> u64 {
    match kind {
        SwFaultKind::DestValue => 10,
        SwFaultKind::DestValueLoad => 11,
        SwFaultKind::ArchState => 12,
        SwFaultKind::SrcTransient => 13,
        SwFaultKind::SrcPersistent => 14,
        SwFaultKind::DestClass(c) => 20 + c.index().unwrap_or(InstrClass::COUNT) as u64,
    }
}

/// Pick an index from `weights` proportionally.
pub(crate) fn pick_weighted(rng: &mut SmallRng, weights: &[(usize, u64)]) -> Option<(usize, u64)> {
    let total: u64 = weights.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return None;
    }
    let mut x = rng.gen_range(0..total);
    for &(idx, w) in weights {
        if x < w {
            return Some((idx, w));
        }
        x -= w;
    }
    unreachable!("weighted pick ran past total");
}

/// One (kernel, target) stratum slice of a plan: the trial ordinals
/// `start..start + count` of that stratum's seed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StratumSpec {
    pub kernel_idx: usize,
    pub target: TrialTarget,
    /// First trial ordinal (adaptive waves: the trials already executed
    /// by earlier waves; fixed-n plans: 0).
    pub start: usize,
    /// Trials the plan holds for the stratum.
    pub count: usize,
}

/// The standard software-level (SVF) sub-campaigns: destination-value
/// injections plus the load-only SVF-LD variant.
pub const SVF_KINDS: [SwFaultKind; 2] = [SwFaultKind::DestValue, SwFaultKind::DestValueLoad];

/// The one stratum expander: resolve, stratum by stratum, the trials with
/// ordinals `start..start + count` to a (launch, cycle | instruction,
/// location, bit) fault. A trial depends only on (seed, app, kernel,
/// target, ordinal) and the golden launch windows — never on which plan
/// asks — so a fixed-n plan ("every stratum, ordinals `0..n`"), a
/// structure subset and an adaptive wave mint identical trials for the
/// ordinals they share, and executing a plan in any partition reproduces
/// the single-shot campaign exactly.
fn expand(captures: &AppCaptures, cfg: &CampaignCfg, strata: &[StratumSpec]) -> Vec<PlannedTrial> {
    let app_tag = str_tag(captures.bench().name());
    let mut trials = Vec::with_capacity(strata.iter().map(|s| s.count).sum());
    for st in strata {
        // (seed-stream tag of the target, of its layer)
        let (tag, layer, layer_tag) = match st.target {
            TrialTarget::Structure(h) => (h as u64, Layer::Uarch, 1),
            TrialTarget::Fault(kind) => (sw_seed_tag(kind), Layer::Sw, 2),
        };
        assert_eq!(
            layer,
            captures.layer(),
            "{} stratum in a {} plan",
            st.target.label(),
            captures.layer().label()
        );
        // Launches of the kernel weighted by the target's population in
        // them: cycles for a structure, eligible instructions for a kind.
        let windows: Vec<(usize, u64)> = (captures.golden().records.iter().enumerate())
            .filter(|(_, r)| r.kernel_idx == st.kernel_idx)
            .map(|(o, r)| match st.target {
                TrialTarget::Structure(_) => (o, r.stats.cycles),
                TrialTarget::Fault(kind) => (o, kind.eligible(&r.stats)),
            })
            .filter(|&(_, w)| w > 0)
            .collect();
        for trial in st.start..st.start + st.count {
            let seed = derive_seed(
                cfg.seed,
                &[app_tag, st.kernel_idx as u64, tag, trial as u64, layer_tag],
            );
            let mut rng = SmallRng::seed_from_u64(seed);
            // Field order is draw order; both are frozen.
            let fault = pick_weighted(&mut rng, &windows).map(|(ordinal, weight)| {
                let fault = match st.target {
                    TrialTarget::Structure(h) => PlannedFault::Uarch(UarchFault {
                        cycle: rng.gen_range(0..weight),
                        structure: h,
                        loc_pick: rng.gen(),
                        bit: rng.gen_range(0..32),
                        pattern: cfg.pattern,
                    }),
                    TrialTarget::Fault(kind) => PlannedFault::Sw(SwFault {
                        kind,
                        target: rng.gen_range(0..weight),
                        bit: rng.gen_range(0..32),
                        loc_pick: rng.gen(),
                        pattern: cfg.pattern,
                    }),
                };
                (ordinal, fault)
            });
            trials.push(PlannedTrial {
                index: trials.len(),
                kernel_idx: st.kernel_idx,
                target: st.target,
                trial,
                seed,
                fault,
            });
        }
    }
    trials
}

/// Expand `strata` against the application's golden run and bind the plan
/// to `captures`: a fixed-n plan of `n_per_target` trials per stratum, or
/// adaptive wave `wave` (whose strata have sizes of their own).
fn plan_on<'a>(
    captures: &Arc<AppCaptures<'a>>,
    cfg: &CampaignCfg,
    strata: &[StratumSpec],
    n_per_target: usize,
    wave: Option<u64>,
) -> PreparedCampaign<'a> {
    assert!(
        *captures.gpu() == cfg.gpu,
        "captures of {} belong to another GPU configuration",
        captures.bench().name()
    );
    let trials = obs::span("core.plan", || expand(captures, cfg, strata));
    PreparedCampaign {
        cfg: cfg.clone(),
        golden: captures.golden().clone(),
        captures: captures.clone(),
        injects: trials.iter().any(|t| t.fault.is_some()),
        asked: Default::default(),
        plan: CampaignPlan {
            app: captures.bench().name().to_string(),
            layer: captures.layer(),
            seed: cfg.seed,
            hardened: captures.variant().hardened,
            pattern: cfg.pattern,
            n_per_target,
            strata: strata.to_vec(),
            wave,
            trials,
        },
    }
}

/// The fixed-n plan over `targets`: every (kernel, target) stratum,
/// ordinals `0..n`.
fn plan_fixed<'a>(
    captures: &Arc<AppCaptures<'a>>,
    cfg: &CampaignCfg,
    targets: impl Iterator<Item = TrialTarget> + Clone,
) -> PreparedCampaign<'a> {
    let count = cfg.n(captures.layer());
    let strata: Vec<StratumSpec> = (0..captures.bench().kernels().len())
        .flat_map(|kernel_idx| {
            targets.clone().map(move |target| StratumSpec {
                kernel_idx,
                target,
                start: 0,
                count,
            })
        })
        .collect();
    plan_on(captures, cfg, &strata, count, None)
}

/// Expand the microarchitecture-level (AVF) campaign against an
/// application's captures: `cfg.n_uarch` trials per (kernel, structure)
/// over `structures` (the `--structures` CLI filter; [`HwStructure::ALL`]
/// for the standard campaign), each resolved to a (launch, cycle,
/// location, bit) flip. Per-trial seeds depend only on (seed, app,
/// kernel, structure, trial), so a subset plan injects exactly the faults
/// the full plan would inject into those structures.
pub fn plan_uarch<'a>(
    captures: &Arc<AppCaptures<'a>>,
    cfg: &CampaignCfg,
    structures: &[HwStructure],
) -> PreparedCampaign<'a> {
    let targets = structures.iter().map(|&h| TrialTarget::Structure(h));
    plan_fixed(captures, cfg, targets)
}

/// Expand a software-level campaign against an application's captures:
/// `cfg.n_sw` trials per (kernel, fault kind) over `kinds` —
/// [`SVF_KINDS`] for the standard SVF campaign, one kind for PVF, the
/// instruction classes for the two-level model.
pub fn plan_sw<'a>(
    captures: &Arc<AppCaptures<'a>>,
    cfg: &CampaignCfg,
    kinds: &[SwFaultKind],
) -> PreparedCampaign<'a> {
    plan_fixed(captures, cfg, kinds.iter().map(|&k| TrialTarget::Fault(k)))
}

/// Expand one adaptive wave against an application's captures: for each
/// stratum, the trials with ordinals `start..start + count` of that
/// (kernel, target) seed stream — a contiguous slice of the stratum a
/// big-enough fixed plan would run. Adaptive campaigns are therefore
/// deterministic by construction: the trials of wave `w` depend only on
/// (seed, app, strata), never on how earlier waves were executed, and
/// each wave runs through the unchanged engine (checkpoints, shards,
/// dispatch leases) under its own wave-tagged fingerprint.
///
/// All strata must belong to the captures' layer; sw strata may mix
/// fault kinds.
pub fn plan_wave<'a>(
    captures: &Arc<AppCaptures<'a>>,
    cfg: &CampaignCfg,
    strata: &[StratumSpec],
    wave: u64,
) -> PreparedCampaign<'a> {
    plan_on(captures, cfg, strata, 0, Some(wave))
}

/// Golden run + [`plan_uarch`] over all five storage structures, on
/// captures of its own.
pub fn prepare_uarch_campaign<'a>(
    bench: &'a dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
) -> PreparedCampaign<'a> {
    obs::span("core.prepare", || {
        let captures = AppCaptures::new(bench, &cfg.gpu, Layer::Uarch, hardened);
        plan_uarch(&captures, cfg, &HwStructure::ALL)
    })
}

/// Golden run + [`plan_sw`] over [`SVF_KINDS`], on captures of its own.
pub fn prepare_sw_campaign<'a>(
    bench: &'a dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
) -> PreparedCampaign<'a> {
    obs::span("core.prepare", || {
        let captures = AppCaptures::new(bench, &cfg.gpu, Layer::Sw, hardened);
        plan_sw(&captures, cfg, &SVF_KINDS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::apps::va::Va;

    #[test]
    fn seeds_are_deterministic_and_spread() {
        let a = derive_seed(1, &[2, 3, 4]);
        assert_eq!(a, derive_seed(1, &[2, 3, 4]));
        assert_ne!(a, derive_seed(1, &[2, 3, 5]));
        assert_ne!(a, derive_seed(2, &[2, 3, 4]));
        assert_ne!(str_tag("VA"), str_tag("NW"));
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let mut rng = SmallRng::seed_from_u64(7);
        let weights = vec![(0usize, 0u64), (1, 90), (2, 10)];
        let mut hits = [0u32; 3];
        for _ in 0..1000 {
            let (idx, _) = pick_weighted(&mut rng, &weights).unwrap();
            hits[idx] += 1;
        }
        assert_eq!(hits[0], 0, "zero-weight never picked");
        assert!(hits[1] > 800, "{hits:?}");
        assert!(pick_weighted(&mut rng, &[(0, 0)]).is_none());
    }

    #[test]
    fn shard_partition_covers_small_cases() {
        assert_eq!(shard_trials(5, 2, 0), vec![0, 2, 4]);
        assert_eq!(shard_trials(5, 2, 1), vec![1, 3]);
        assert_eq!(shard_trials(0, 3, 2), Vec::<usize>::new());
        assert_eq!(shard_trials(4, 1, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn structure_subset_plans_inject_the_same_faults() {
        let cfg = CampaignCfg::new(8, 8, 0xACE);
        let full = prepare_uarch_campaign(&Va, &cfg, false);
        let subset = plan_uarch(
            &full.captures,
            &cfg,
            &[HwStructure::RegFile, HwStructure::L2],
        );
        assert_eq!(
            subset.plan.len(),
            Va.kernels().len() * 2 * cfg.n_uarch,
            "two structures only"
        );
        // Every subset trial matches the full plan's trial for the same
        // (kernel, structure, trial) triple — identical seed and fault.
        for t in &subset.plan.trials {
            let m = full
                .plan
                .trials
                .iter()
                .find(|f| {
                    f.kernel_idx == t.kernel_idx && f.target == t.target && f.trial == t.trial
                })
                .expect("triple present in full plan");
            assert_eq!(m.seed, t.seed);
            assert_eq!(m.fault, t.fault);
        }
        assert_ne!(full.plan.fingerprint(), subset.plan.fingerprint());
    }

    #[test]
    fn adaptive_waves_are_stratum_slices_of_fixed_plans() {
        // A wave asking for ordinals 3..8 of (kernel 0, RF) must mint
        // exactly the trials a fixed n>=8 plan holds at those ordinals —
        // identical seeds and fault coordinates.
        let cfg = CampaignCfg::new(8, 8, 0xADA7);
        let fixed = prepare_uarch_campaign(&Va, &cfg, false);
        let strata = [StratumSpec {
            kernel_idx: 0,
            target: TrialTarget::Structure(HwStructure::RegFile),
            start: 3,
            count: 5,
        }];
        let wave = plan_wave(&fixed.captures, &cfg, &strata, 1);
        assert_eq!(wave.plan.len(), 5);
        for t in &wave.plan.trials {
            let m = fixed
                .plan
                .trials
                .iter()
                .find(|f| {
                    f.kernel_idx == t.kernel_idx && f.target == t.target && f.trial == t.trial
                })
                .expect("ordinal present in fixed plan");
            assert_eq!(m.seed, t.seed);
            assert_eq!(m.fault, t.fault);
        }
        // Same strata, different wave index → different fingerprint, so
        // per-wave checkpoints and dispatch leases can never be confused.
        let wave2 = plan_wave(&fixed.captures, &cfg, &strata, 2);
        assert_ne!(wave.plan.fingerprint(), wave2.plan.fingerprint());
        assert_eq!(wave.plan.trials, wave2.plan.trials);

        // Sw class strata slice the per-class seed streams the same way.
        let class_strata = [StratumSpec {
            kernel_idx: 0,
            target: TrialTarget::Fault(SwFaultKind::DestClass(InstrClass::IntAlu)),
            start: 0,
            count: 4,
        }];
        let sw = AppCaptures::new(&Va, &cfg.gpu, Layer::Sw, false);
        let sw_wave = plan_wave(&sw, &cfg, &class_strata, 0);
        let sw_fixed = plan_sw(&sw, &cfg, &[SwFaultKind::DestClass(InstrClass::IntAlu)]);
        assert_eq!(
            sw_wave.plan.trials[..4]
                .iter()
                .map(|t| t.seed)
                .collect::<Vec<_>>(),
            sw_fixed.plan.trials[..4]
                .iter()
                .map(|t| t.seed)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn snapshots_of_zero_is_none_and_pins_nothing() {
        let prep = prepare_uarch_campaign(&Va, &CampaignCfg::new(2, 0, 0x5AA5), false);
        assert!(prep.snapshots(0).is_none());
        // k = 0 left the cell alone: a real k still captures.
        let snaps = prep.snapshots(2).expect("k = 0 pinned None").clone();
        assert!(Arc::ptr_eq(&snaps, prep.snapshots(2).unwrap()));
        assert!(prep.snapshots(0).is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "captured with 2 snapshots per launch")]
    fn snapshots_of_a_second_k_is_loud() {
        let prep = prepare_uarch_campaign(&Va, &CampaignCfg::new(2, 0, 0x5AA5), false);
        prep.snapshots(2);
        prep.snapshots(3);
    }

    #[test]
    fn sw_seed_tags_are_frozen() {
        assert_eq!(sw_seed_tag(SwFaultKind::DestValue), 10);
        assert_eq!(sw_seed_tag(SwFaultKind::DestValueLoad), 11);
        assert_eq!(sw_seed_tag(SwFaultKind::ArchState), 12);
        // Per-class strata claim 20+, in InstrClass::ALL order.
        for (i, c) in InstrClass::ALL.iter().enumerate() {
            assert_eq!(sw_seed_tag(SwFaultKind::DestClass(*c)), 20 + i as u64);
        }
    }

    #[test]
    fn plans_are_reproducible_and_seed_sensitive() {
        let cfg = CampaignCfg::new(12, 12, 0xBEEF);
        let a = prepare_uarch_campaign(&Va, &cfg, false);
        let b = prepare_uarch_campaign(&Va, &cfg, false);
        assert_eq!(a.plan.trials, b.plan.trials);
        assert_eq!(a.plan.fingerprint(), b.plan.fingerprint());

        let mut cfg2 = cfg.clone();
        cfg2.seed ^= 1;
        let c = prepare_uarch_campaign(&Va, &cfg2, false);
        assert_ne!(a.plan.fingerprint(), c.plan.fingerprint());

        let s = prepare_sw_campaign(&Va, &cfg, false);
        assert_ne!(a.plan.fingerprint(), s.plan.fingerprint());
        assert_eq!(
            s.plan.len(),
            Va.kernels().len() * 2 * cfg.n_sw,
            "dest-value and dest-value-ld sub-campaigns"
        );
    }
}
