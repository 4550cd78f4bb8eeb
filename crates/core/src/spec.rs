//! The campaign description: one application, layer, sample size, seed,
//! GPU, variant, structure subset, fault pattern and trial path — what
//! the `campaign run` / `merge` command line parses into, and everything
//! needed to rebuild the deterministic plan from scratch. Every range
//! check of a description from outside the program lives here
//! ([`CampaignSpec::validate`], [`scaled_gpu`], [`parse_structures`]).

use std::sync::Arc;

use vgpu_sim::{FaultPattern, GpuConfig, HwStructure};

use crate::campaign::{CampaignCfg, FastForward};
use crate::captures::AppCaptures;
use crate::plan::{
    plan_sw, plan_uarch, plan_wave, Layer, PreparedCampaign, StratumSpec, SVF_KINDS,
};

/// Largest simulated GPU a campaign may ask for. Bounds what a
/// description can make a process allocate, and keeps the L2 size
/// (128 KiB per SM) well inside `u32`.
pub const MAX_SMS: u32 = 1024;

/// Largest per-stratum sample size a campaign may ask for (333× the
/// paper's 3,000). Bounds the trial list a `--n` can make a process
/// allocate.
pub const MAX_N: usize = 1_000_000;

/// The simulated GPU for an SM count from outside the program (`--sms`):
/// the only place that count is range-checked.
pub fn scaled_gpu(sms: u32) -> Result<GpuConfig, String> {
    if !(1..=MAX_SMS).contains(&sms) {
        return Err(format!("--sms must be 1..={MAX_SMS}, got {sms}"));
    }
    Ok(GpuConfig::volta_scaled(sms))
}

/// Parse a `--structures RF,SMEM,L2` list into [`HwStructure`]s
/// (case-insensitive labels, order preserved, duplicates dropped). The
/// error message names the offending label so callers can `exit(2)` with
/// it.
pub fn parse_structures(spec: &str) -> Result<Vec<HwStructure>, String> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let label = part.trim().to_ascii_uppercase();
        if label.is_empty() {
            continue;
        }
        let h = HwStructure::from_label(&label).ok_or_else(|| {
            format!("unknown structure {label:?} (known: RF, SMEM, L1D, L1T, L2, SIMT, SCHED)")
        })?;
        if !out.contains(&h) {
            out.push(h);
        }
    }
    if out.is_empty() {
        return Err(
            "--structures requires at least one of RF, SMEM, L1D, L1T, L2, SIMT, SCHED".into(),
        );
    }
    Ok(out)
}

/// One adaptive wave of a CI-driven campaign: the still-unconverged
/// strata and their trial-ordinal windows. A description that carries a
/// wave plans with [`plan_wave`] instead of the fixed-n planners; the
/// wave index folds into the plan fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveSpec {
    pub wave: u64,
    pub strata: Vec<StratumSpec>,
}

/// Everything needed to rebuild a campaign's plan locally. Every setting
/// that decides a trial's record is here or in the plan fingerprint; the
/// one other knob, the library's wall-clock [`crate::Watchdog`],
/// reclassifies by machine speed and is never set from a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    pub app: String,
    pub layer: Layer,
    /// Injections per (kernel, target) sub-campaign.
    pub n: usize,
    pub seed: u64,
    /// SM count of the simulated GPU ([`GpuConfig::volta_scaled`]).
    pub sms: u32,
    pub hardened: bool,
    /// Structure subset for uarch campaigns (`None` = all five).
    pub structures: Option<Vec<HwStructure>>,
    /// Fault pattern every trial applies (docs/FAULT_MODELS.md). Part of
    /// the plan fingerprint for non-default patterns.
    pub fault_model: FaultPattern,
    /// Trial path: `timed` or `replay`, never the oracle. A pure
    /// throughput choice — classification is byte-identical either way —
    /// so it is *not* part of the plan fingerprint, and shards run on
    /// different backends still merge.
    pub backend: FastForward,
    /// `Some` for one wave of an adaptive campaign (`None` = the classic
    /// fixed-n plan).
    pub wave: Option<WaveSpec>,
}

impl CampaignSpec {
    /// The one range check of a campaign description, run wherever a spec
    /// enters the program: a spec that passes can be prepared and executed
    /// without tripping an engine assertion. Messages name the CLI flags.
    pub fn validate(&self) -> Result<(), String> {
        scaled_gpu(self.sms)?;
        if !FastForward::SELECTABLE.contains(&self.backend) {
            return Err(format!(
                "--backend must be timed or replay, got {}",
                self.backend.label()
            ));
        }
        let wave_counts = self.wave.iter().flat_map(|w| &w.strata).map(|s| s.count);
        if let Some(n) = wave_counts.chain([self.n]).find(|&n| n > MAX_N) {
            return Err(format!("--n must be 0..={MAX_N}, got {n}"));
        }
        let Some(structures) = &self.structures else {
            return Ok(());
        };
        if self.layer == Layer::Sw {
            return Err("--structures only applies to --layer uarch".into());
        }
        // SIMT-stack and scheduler state is ephemeral: a transient flip
        // there is just one corrupted access, which the storage
        // structures already model. Only the persistent stuck-at patterns
        // target them.
        let control = |h: &HwStructure| matches!(h, HwStructure::Simt | HwStructure::Sched);
        if structures.iter().any(control) && !self.fault_model.is_persistent() {
            return Err(format!(
                "--structures SIMT/SCHED requires a stuck-at fault model \
                 (--fault-model stuck-at-0 or stuck-at-1), got {}",
                self.fault_model.label()
            ));
        }
        Ok(())
    }

    /// The campaign configuration this spec describes (no wall-clock
    /// watchdog — the bit-reproducible setting).
    pub fn campaign_cfg(&self) -> CampaignCfg {
        let mut cfg = CampaignCfg::new(self.n, self.n, self.seed);
        cfg.gpu = GpuConfig::volta_scaled(self.sms);
        cfg.pattern = self.fault_model;
        cfg
    }

    /// Look up the benchmark by name (case-insensitive).
    pub fn find_bench(&self) -> Result<Box<dyn kernels::Benchmark>, String> {
        let mut all = kernels::all_benchmarks();
        let i = self.bench_index(&all)?;
        Ok(all.swap_remove(i))
    }

    /// Position of this spec's benchmark in `all` (by name,
    /// case-insensitive) — for callers that keep the suite alive across
    /// several specs.
    pub fn bench_index(&self, all: &[Box<dyn kernels::Benchmark>]) -> Result<usize, String> {
        all.iter()
            .position(|b| b.name().eq_ignore_ascii_case(&self.app))
            .ok_or_else(|| {
                let names: Vec<&str> = all.iter().map(|b| b.name()).collect();
                format!(
                    "unknown app {:?}; available: {}",
                    self.app,
                    names.join(", ")
                )
            })
    }

    /// Run the golden execution and expand the deterministic trial plan.
    /// Identical specs on identical code produce identical plan
    /// fingerprints.
    pub fn prepare<'a>(&self, bench: &'a dyn kernels::Benchmark) -> PreparedCampaign<'a> {
        let gpu = GpuConfig::volta_scaled(self.sms);
        self.plan(&AppCaptures::new(bench, &gpu, self.layer, self.hardened))
    }

    /// [`CampaignSpec::prepare`] against captures the caller holds (they
    /// must be this spec's application, GPU, layer and variant).
    pub fn plan<'a>(&self, captures: &Arc<AppCaptures<'a>>) -> PreparedCampaign<'a> {
        let cfg = self.campaign_cfg();
        match (&self.wave, self.layer) {
            (Some(w), _) => plan_wave(captures, &cfg, &w.strata, w.wave),
            (None, Layer::Uarch) => plan_uarch(
                captures,
                &cfg,
                self.structures.as_deref().unwrap_or(&HwStructure::ALL),
            ),
            (None, Layer::Sw) => plan_sw(captures, &cfg, &SVF_KINDS),
        }
    }
}
