//! Hardening evaluation (Section IV): the results of the unprotected and
//! the TMR-hardened variant of an application under both assessment
//! layers, paired for the Figure 7–11 comparisons. Running the four
//! campaigns is the caller's business (`campaign paper` runs each once,
//! journaled); this module only pairs what they produced.

use vgpu_sim::HwStructure;

use crate::metrics::ClassRates;
use crate::records::StrataRecords;

/// Paired unprotected/TMR measurements for one application.
#[derive(Debug, Clone)]
pub struct HardeningComparison {
    pub app: String,
    pub base_avf: StrataRecords,
    pub base_svf: StrataRecords,
    pub tmr_avf: StrataRecords,
    pub tmr_svf: StrataRecords,
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
    pub fn kernel_rows(&self) -> Vec<KernelHardeningRow> {
        let (ab, at, sb, st) = (&self.base_avf, &self.tmr_avf, &self.base_svf, &self.tmr_svf);
        (ab.kernels.iter().enumerate())
            .map(|(k, kernel)| KernelHardeningRow {
                kernel: kernel.clone(),
                avf_base: ab.chip_avf(k),
                avf_tmr: at.chip_avf(k),
                svf_base: sb.svf(k),
                svf_tmr: st.svf(k),
                structures: (HwStructure::ALL.iter())
                    .map(|&h| (h, ab.avf(k, h), at.avf(k, h)))
                    .collect(),
                ctrl_base: ab.ctrl_fraction(k),
                ctrl_tmr: at.ctrl_fraction(k),
            })
            .collect()
    }
}
