//! Hardening evaluation (Section IV): the results of the unprotected and
//! the TMR-hardened variant of an application under both assessment
//! layers, paired for the Figure 7–11 comparisons. Running the four
//! campaigns is the caller's business (`campaign paper` runs each once,
//! journaled); this module only pairs what they produced.

use vgpu_sim::HwStructure;

use crate::campaign::{SvfAppResult, UarchAppResult};
use crate::metrics::ClassRates;

/// Paired unprotected/TMR measurements for one application.
#[derive(Debug, Clone)]
pub struct HardeningComparison {
    pub app: String,
    pub base_avf: UarchAppResult,
    pub base_svf: SvfAppResult,
    pub tmr_avf: UarchAppResult,
    pub tmr_svf: SvfAppResult,
}

/// One kernel's before/after numbers for the hardened figures.
#[derive(Debug, Clone)]
pub struct KernelHardeningRow {
    pub kernel: String,
    pub avf_base: ClassRates,
    pub avf_tmr: ClassRates,
    pub svf_base: ClassRates,
    pub svf_tmr: ClassRates,
    /// Per-structure AVF before/after (Figure 10).
    pub structures: Vec<(HwStructure, ClassRates, ClassRates)>,
    /// Control-path-affected masked fraction before/after (Figure 11).
    pub ctrl_base: f64,
    pub ctrl_tmr: f64,
}

impl HardeningComparison {
    /// Flatten into per-kernel before/after rows.
    pub fn kernel_rows(&self, gpu: &vgpu_sim::GpuConfig) -> Vec<KernelHardeningRow> {
        self.base_avf
            .kernels
            .iter()
            .zip(&self.tmr_avf.kernels)
            .zip(self.base_svf.kernels.iter().zip(&self.tmr_svf.kernels))
            .map(|((ab, at), (sb, st))| KernelHardeningRow {
                kernel: ab.kernel.clone(),
                avf_base: ab.chip_avf(gpu),
                avf_tmr: at.chip_avf(gpu),
                svf_base: sb.svf(),
                svf_tmr: st.svf(),
                structures: HwStructure::ALL
                    .iter()
                    .map(|&h| (h, ab.avf(h), at.avf(h)))
                    .collect(),
                ctrl_base: ab.ctrl_affected_fraction(),
                ctrl_tmr: at.ctrl_affected_fraction(),
            })
            .collect()
    }
}
