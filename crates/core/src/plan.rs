//! Deterministic injection plans: seed → explicit trial list.
//!
//! A [`CampaignPlan`] expands a campaign configuration into the complete,
//! ordered list of trials it will run — for each trial the derived seed,
//! the targeted launch, and the fully resolved fault (structure/
//! instruction, bit, cycle). Because every trial is fixed up front from
//! `(seed, app, kernel, target, trial)` alone, the plan is identical no
//! matter how execution is split: across rayon workers, across
//! `--shards M --shard-index i` processes, or across an interruption and
//! a `--resume`. [`shard_trials`] partitions a plan into disjoint strided
//! slices, and [`CampaignPlan::fingerprint`] condenses the whole trial
//! list into one u64 so checkpoints and shard outputs can prove they came
//! from the same plan before being merged.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use kernels::{
    golden_run, golden_run_cta_log, golden_run_snapshots, AppSnapshots, Benchmark, CtaLog,
    GoldenRun, PlannedFault, Variant,
};
use obs::Phase;
use vgpu_arch::InstrClass;
use vgpu_sim::{FaultPattern, HwStructure, Mode, SwFault, SwFaultKind, UarchFault};

use crate::campaign::CampaignCfg;

/// Abstraction layer of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Microarchitecture-level (gpuFI-4 model, AVF side).
    Uarch,
    /// Software-level (NVBitFI model, SVF/PVF side).
    Sw,
}

impl Layer {
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
    /// Software fault kinds with their seed-derivation tags, in
    /// sub-campaign order (empty for uarch plans).
    pub sw_kinds: Vec<(SwFaultKind, u64)>,
    /// Wave index for adaptive campaigns ([`prepare_adaptive_wave`]);
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

/// A plan bound to everything needed to execute it: the benchmark, the
/// campaign configuration, and the golden run its faults were resolved
/// against. Produced by [`prepare_uarch_campaign`] / [`prepare_sw_campaign`],
/// consumed by [`crate::campaign::execute_shard`] and the `assemble_*`
/// folds.
pub struct PreparedCampaign<'a> {
    pub bench: &'a dyn Benchmark,
    pub cfg: CampaignCfg,
    pub variant: Variant,
    pub golden: GoldenRun,
    pub plan: CampaignPlan,
    /// Lazily captured golden-prefix snapshot set for fast-forward trial
    /// execution, shared by every worker thread. `None` inside the cell
    /// means snapshots do not apply to this campaign (software layer —
    /// served by `cta_log` instead — or hardened variant).
    pub snaps: OnceLock<Option<Arc<AppSnapshots>>>,
    /// Lazily recorded golden access trace for the replay backend,
    /// shared by every worker thread. `None` inside the cell means
    /// replay does not apply (software layer or hardened variant).
    pub app_trace: OnceLock<Option<Arc<trace::AppTrace>>>,
    /// Lazily captured golden CTA log for software-layer trial
    /// execution, shared by every worker thread. `None` inside the cell
    /// means CTA replay does not apply (microarchitecture layer or
    /// hardened variant).
    pub cta_log: OnceLock<Option<Arc<CtaLog>>>,
}

impl PreparedCampaign<'_> {
    /// Whether the accelerated trial paths of `layer` can serve this
    /// campaign: an unhardened plan of that layer (timed engine for
    /// uarch, functional for sw) with at least one fault to inject.
    /// Hardened variants run every trial in full.
    fn accelerable(&self, layer: Layer) -> bool {
        self.plan.layer == layer
            && !self.variant.hardened
            && self.plan.trials.iter().any(|t| t.fault.is_some())
    }

    /// The fast-forward snapshot set, capturing it on first use (one
    /// instrumented golden pass with `k` mid-launch snapshots per
    /// launch). Returns `None` — and captures nothing — for campaigns
    /// fast-forward cannot serve, or `k == 0`.
    pub fn snapshots(&self, k: usize) -> Option<&Arc<AppSnapshots>> {
        self.snaps
            .get_or_init(|| {
                if !self.accelerable(Layer::Uarch) || k == 0 {
                    return None;
                }
                let t0 = Instant::now();
                let snaps = obs::time_phase(Phase::SnapshotCapture, || {
                    golden_run_snapshots(self.bench, &self.cfg.gpu, &self.golden, k)
                });
                let app = self.plan.app.as_str();
                obs::gauge_set(
                    "snapshot_bytes",
                    &[("app", app), ("layer", "uarch")],
                    snaps.bytes,
                );
                let (owned, shared) = snaps.chunks();
                for (n, kind) in [(owned, "owned"), (shared, "shared")] {
                    obs::counter_add("snapshot_chunks_total", &[("app", app), ("kind", kind)], n);
                }
                obs::emit_snapshot(&obs::SnapshotEvent {
                    app: &self.plan.app,
                    layer: self.plan.layer.label(),
                    per_launch: k as u64,
                    count: snaps.count() as u64,
                    bytes: snaps.bytes,
                    wall_us: t0.elapsed().as_micros() as u64,
                });
                Some(Arc::new(snaps))
            })
            .as_ref()
    }

    /// The replay backend's recorded golden access trace, capturing it
    /// on first use (one traced golden pass, bit-identity asserted
    /// against the untraced baseline). Returns `None` — and records
    /// nothing — for campaigns replay cannot serve.
    pub fn trace(&self) -> Option<&Arc<trace::AppTrace>> {
        self.app_trace
            .get_or_init(|| {
                if !self.accelerable(Layer::Uarch) {
                    return None;
                }
                let tr = obs::time_phase(Phase::TraceCapture, || {
                    trace::record_app_trace(self.bench, &self.cfg.gpu, &self.golden)
                });
                obs::gauge_set(
                    "trace_bytes",
                    &[("app", self.plan.app.as_str()), ("layer", "uarch")],
                    tr.bytes,
                );
                Some(Arc::new(tr))
            })
            .as_ref()
    }

    /// The golden CTA log of a software-layer campaign, capturing it on
    /// first use (one logged functional golden pass, bit-identity
    /// asserted against the unlogged baseline). Returns `None` — and
    /// captures nothing — for campaigns CTA replay cannot serve.
    pub fn cta_log(&self) -> Option<&Arc<CtaLog>> {
        self.cta_log
            .get_or_init(|| {
                if !self.accelerable(Layer::Sw) {
                    return None;
                }
                let log = obs::time_phase(Phase::CtaLogCapture, || {
                    golden_run_cta_log(self.bench, &self.cfg.gpu, &self.golden)
                });
                obs::gauge_set(
                    "cta_log_bytes",
                    &[("app", self.plan.app.as_str())],
                    log.bytes(),
                );
                Some(Arc::new(log))
            })
            .as_ref()
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

pub(crate) fn str_tag(s: &str) -> u64 {
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

/// Run the golden execution and expand the microarchitecture-level (AVF)
/// campaign into its full trial list: every (kernel, structure) pair gets
/// `n_uarch` trials, each resolved to a (launch, cycle, location, bit)
/// flip by the same seed derivation the monolithic campaign loop used —
/// so executing the plan in any partition reproduces `run_uarch_campaign`
/// exactly.
pub fn prepare_uarch_campaign<'a>(
    bench: &'a dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
) -> PreparedCampaign<'a> {
    prepare_uarch_campaign_structures(bench, cfg, hardened, &HwStructure::ALL)
}

/// [`prepare_uarch_campaign`] restricted to a structure subset (the
/// `--structures` CLI filter). Per-trial seeds depend only on
/// (seed, app, kernel, structure, trial), so a subset plan injects
/// exactly the faults the full plan would inject into those structures.
pub fn prepare_uarch_campaign_structures<'a>(
    bench: &'a dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
    structures: &[HwStructure],
) -> PreparedCampaign<'a> {
    let variant = Variant {
        mode: Mode::Timed,
        hardened,
    };
    let golden = obs::time_phase(Phase::GoldenRun, || golden_run(bench, &cfg.gpu, variant));
    let app_tag = str_tag(bench.name());
    let n_kernels = bench.kernels().len();
    let mut trials = Vec::with_capacity(n_kernels * structures.len() * cfg.n_uarch);
    obs::time_phase(Phase::FaultSetup, || {
        for k_idx in 0..n_kernels {
            let windows: Vec<(usize, u64)> = golden
                .records
                .iter()
                .enumerate()
                .filter(|(_, r)| r.kernel_idx == k_idx && r.stats.cycles > 0)
                .map(|(o, r)| (o, r.stats.cycles))
                .collect();
            for &h in structures {
                for trial in 0..cfg.n_uarch {
                    let s = derive_seed(
                        cfg.seed,
                        &[app_tag, k_idx as u64, h as u64, trial as u64, 1],
                    );
                    let mut rng = SmallRng::seed_from_u64(s);
                    let fault =
                        pick_weighted(&mut rng, &windows).map(|(ordinal, launch_cycles)| {
                            (
                                ordinal,
                                PlannedFault::Uarch(UarchFault {
                                    cycle: rng.gen_range(0..launch_cycles),
                                    structure: h,
                                    loc_pick: rng.gen(),
                                    bit: rng.gen_range(0..32),
                                    pattern: cfg.pattern,
                                }),
                            )
                        });
                    trials.push(PlannedTrial {
                        index: trials.len(),
                        kernel_idx: k_idx,
                        target: TrialTarget::Structure(h),
                        trial,
                        seed: s,
                        fault,
                    });
                }
            }
        }
    });
    PreparedCampaign {
        bench,
        cfg: cfg.clone(),
        variant,
        golden,
        snaps: OnceLock::new(),
        app_trace: OnceLock::new(),
        cta_log: OnceLock::new(),
        plan: CampaignPlan {
            app: bench.name().to_string(),
            layer: Layer::Uarch,
            seed: cfg.seed,
            hardened,
            pattern: cfg.pattern,
            n_per_target: cfg.n_uarch,
            sw_kinds: Vec::new(),
            wave: None,
            trials,
        },
    }
}

/// The standard software-level (SVF) campaign: destination-value
/// injections plus the load-only SVF-LD variant.
pub fn prepare_sw_campaign<'a>(
    bench: &'a dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
) -> PreparedCampaign<'a> {
    prepare_sw_kinds(
        bench,
        cfg,
        hardened,
        &[
            (SwFaultKind::DestValue, 10),
            (SwFaultKind::DestValueLoad, 11),
        ],
    )
}

/// Software-level plan over an explicit set of (fault kind, seed tag)
/// sub-campaigns — the generalization behind [`prepare_sw_campaign`] and
/// the PVF campaign. Tags feed the seed derivation and must match the
/// historical constants (10 = dest-value, 11 = dest-value-load,
/// 12 = arch-state) for results to stay comparable across versions.
pub fn prepare_sw_kinds<'a>(
    bench: &'a dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
    kinds: &[(SwFaultKind, u64)],
) -> PreparedCampaign<'a> {
    let variant = Variant {
        mode: Mode::Functional,
        hardened,
    };
    let golden = obs::time_phase(Phase::GoldenRun, || golden_run(bench, &cfg.gpu, variant));
    let app_tag = str_tag(bench.name());
    let n_kernels = bench.kernels().len();
    let mut trials = Vec::with_capacity(n_kernels * kinds.len() * cfg.n_sw);
    obs::time_phase(Phase::FaultSetup, || {
        for k_idx in 0..n_kernels {
            for &(kind, tag) in kinds {
                let windows: Vec<(usize, u64)> = golden
                    .records
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.kernel_idx == k_idx)
                    .map(|(o, r)| (o, kind.eligible(&r.stats)))
                    .filter(|&(_, w)| w > 0)
                    .collect();
                for trial in 0..cfg.n_sw {
                    let s = derive_seed(cfg.seed, &[app_tag, k_idx as u64, tag, trial as u64, 2]);
                    let mut rng = SmallRng::seed_from_u64(s);
                    let fault = pick_weighted(&mut rng, &windows).map(|(ordinal, weight)| {
                        (
                            ordinal,
                            PlannedFault::Sw(SwFault {
                                kind,
                                target: rng.gen_range(0..weight),
                                bit: rng.gen_range(0..32),
                                loc_pick: rng.gen(),
                                pattern: cfg.pattern,
                            }),
                        )
                    });
                    trials.push(PlannedTrial {
                        index: trials.len(),
                        kernel_idx: k_idx,
                        target: TrialTarget::Fault(kind),
                        trial,
                        seed: s,
                        fault,
                    });
                }
            }
        }
    });
    PreparedCampaign {
        bench,
        cfg: cfg.clone(),
        variant,
        golden,
        snaps: OnceLock::new(),
        app_trace: OnceLock::new(),
        cta_log: OnceLock::new(),
        plan: CampaignPlan {
            app: bench.name().to_string(),
            layer: Layer::Sw,
            seed: cfg.seed,
            hardened,
            pattern: cfg.pattern,
            n_per_target: cfg.n_sw,
            sw_kinds: kinds.to_vec(),
            wave: None,
            trials,
        },
    }
}

/// One (kernel, target) stratum slice of an adaptive wave: the trial
/// ordinals `start..start + count` of that stratum's seed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StratumSpec {
    pub kernel_idx: usize,
    pub target: TrialTarget,
    /// First trial ordinal this wave executes in the stratum (= trials
    /// already executed by earlier waves).
    pub start: usize,
    /// Trials this wave adds to the stratum.
    pub count: usize,
}

/// Expand one adaptive wave into a plan: for each stratum, the trials
/// with ordinals `start..start + count` of that (kernel, target) seed
/// stream — derived *identically* to the fixed-n planners, so a wave is
/// a contiguous slice of the stratum a big-enough fixed plan would run.
/// Adaptive campaigns are therefore deterministic by construction: the
/// trials of wave `w` depend only on (seed, app, strata), never on how
/// earlier waves were executed, and each wave runs through the unchanged
/// engine (checkpoints, shards, dispatch leases) under its own
/// wave-tagged fingerprint.
///
/// All strata must belong to `layer`; sw strata may mix fault kinds.
pub fn prepare_adaptive_wave<'a>(
    bench: &'a dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
    layer: Layer,
    strata: &[StratumSpec],
    wave: u64,
) -> PreparedCampaign<'a> {
    let variant = Variant {
        mode: match layer {
            Layer::Uarch => Mode::Timed,
            Layer::Sw => Mode::Functional,
        },
        hardened,
    };
    let golden = obs::time_phase(Phase::GoldenRun, || golden_run(bench, &cfg.gpu, variant));
    let app_tag = str_tag(bench.name());
    let mut trials = Vec::with_capacity(strata.iter().map(|s| s.count).sum());
    let mut sw_kinds: Vec<(SwFaultKind, u64)> = Vec::new();
    obs::time_phase(Phase::FaultSetup, || {
        for st in strata {
            let k_idx = st.kernel_idx;
            match st.target {
                TrialTarget::Structure(h) => {
                    assert_eq!(layer, Layer::Uarch, "structure stratum in a sw wave");
                    let windows: Vec<(usize, u64)> = golden
                        .records
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.kernel_idx == k_idx && r.stats.cycles > 0)
                        .map(|(o, r)| (o, r.stats.cycles))
                        .collect();
                    for trial in st.start..st.start + st.count {
                        let s = derive_seed(
                            cfg.seed,
                            &[app_tag, k_idx as u64, h as u64, trial as u64, 1],
                        );
                        let mut rng = SmallRng::seed_from_u64(s);
                        let fault =
                            pick_weighted(&mut rng, &windows).map(|(ordinal, launch_cycles)| {
                                (
                                    ordinal,
                                    PlannedFault::Uarch(UarchFault {
                                        cycle: rng.gen_range(0..launch_cycles),
                                        structure: h,
                                        loc_pick: rng.gen(),
                                        bit: rng.gen_range(0..32),
                                        pattern: cfg.pattern,
                                    }),
                                )
                            });
                        trials.push(PlannedTrial {
                            index: trials.len(),
                            kernel_idx: k_idx,
                            target: st.target,
                            trial,
                            seed: s,
                            fault,
                        });
                    }
                }
                TrialTarget::Fault(kind) => {
                    assert_eq!(layer, Layer::Sw, "fault-kind stratum in a uarch wave");
                    let tag = sw_seed_tag(kind);
                    if !sw_kinds.iter().any(|&(k, _)| k == kind) {
                        sw_kinds.push((kind, tag));
                    }
                    let windows: Vec<(usize, u64)> = golden
                        .records
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.kernel_idx == k_idx)
                        .map(|(o, r)| (o, kind.eligible(&r.stats)))
                        .filter(|&(_, w)| w > 0)
                        .collect();
                    for trial in st.start..st.start + st.count {
                        let s =
                            derive_seed(cfg.seed, &[app_tag, k_idx as u64, tag, trial as u64, 2]);
                        let mut rng = SmallRng::seed_from_u64(s);
                        let fault = pick_weighted(&mut rng, &windows).map(|(ordinal, weight)| {
                            (
                                ordinal,
                                PlannedFault::Sw(SwFault {
                                    kind,
                                    target: rng.gen_range(0..weight),
                                    bit: rng.gen_range(0..32),
                                    loc_pick: rng.gen(),
                                    pattern: cfg.pattern,
                                }),
                            )
                        });
                        trials.push(PlannedTrial {
                            index: trials.len(),
                            kernel_idx: k_idx,
                            target: st.target,
                            trial,
                            seed: s,
                            fault,
                        });
                    }
                }
            }
        }
    });
    PreparedCampaign {
        bench,
        cfg: cfg.clone(),
        variant,
        golden,
        snaps: OnceLock::new(),
        app_trace: OnceLock::new(),
        cta_log: OnceLock::new(),
        plan: CampaignPlan {
            app: bench.name().to_string(),
            layer,
            seed: cfg.seed,
            hardened,
            pattern: cfg.pattern,
            n_per_target: 0,
            sw_kinds,
            wave: Some(wave),
            trials,
        },
    }
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
        let subset = prepare_uarch_campaign_structures(
            &Va,
            &cfg,
            false,
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
        let wave = prepare_adaptive_wave(&Va, &cfg, false, Layer::Uarch, &strata, 1);
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
        let wave2 = prepare_adaptive_wave(&Va, &cfg, false, Layer::Uarch, &strata, 2);
        assert_ne!(wave.plan.fingerprint(), wave2.plan.fingerprint());
        assert_eq!(wave.plan.trials, wave2.plan.trials);

        // Sw class strata slice the per-class seed streams the same way.
        let class_strata = [StratumSpec {
            kernel_idx: 0,
            target: TrialTarget::Fault(SwFaultKind::DestClass(InstrClass::IntAlu)),
            start: 0,
            count: 4,
        }];
        let sw_wave = prepare_adaptive_wave(&Va, &cfg, false, Layer::Sw, &class_strata, 0);
        let sw_fixed = prepare_sw_kinds(
            &Va,
            &cfg,
            false,
            &[(
                SwFaultKind::DestClass(InstrClass::IntAlu),
                sw_seed_tag(SwFaultKind::DestClass(InstrClass::IntAlu)),
            )],
        );
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
