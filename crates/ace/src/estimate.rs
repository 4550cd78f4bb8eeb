//! Fold lifetime-tracker totals into analytic AVF estimates.

use kernels::{golden_pass, AceProfile, Benchmark, Sinks, Variant};
use vgpu_sim::{GpuConfig, HwStructure};

/// Analytic per-kernel estimate from the single instrumented run.
#[derive(Debug, Clone, PartialEq)]
pub struct AceKernelEstimate {
    /// Kernel display name ("K1", ...).
    pub kernel: String,
    /// Golden cycles attributed to this kernel's launches.
    pub cycles: u64,
    /// ACE word-cycles per structure (`HwStructure::ALL` order),
    /// attributed from per-launch tracker deltas.
    pub ace_word_cycles: [u64; 5],
}

impl AceKernelEstimate {
    fn idx(h: HwStructure) -> usize {
        HwStructure::ALL.iter().position(|&x| x == h).unwrap()
    }

    /// Analytic AVF of one structure:
    /// `ACE-bit-cycles / (structure_bits × kernel_cycles)`, clamped to 1
    /// (word-granular accounting can over-approximate short overlaps).
    pub fn avf(&self, gpu: &GpuConfig, h: HwStructure) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let ace_bits = self.ace_word_cycles[Self::idx(h)] as f64 * 32.0;
        let denom = gpu.structure_bits(h) as f64 * self.cycles as f64;
        (ace_bits / denom).min(1.0)
    }

    /// Size-weighted analytic AVF over a set of structures (mirrors
    /// the injection side's `StrataRecords::chip_avf`).
    pub fn avf_over(&self, gpu: &GpuConfig, set: &[HwStructure]) -> f64 {
        let total_bits: u64 = set.iter().map(|&h| gpu.structure_bits(h)).sum();
        set.iter()
            .map(|&h| self.avf(gpu, h) * gpu.structure_bits(h) as f64 / total_bits as f64)
            .sum()
    }

    /// Full-chip analytic AVF (all five structures, size-weighted).
    pub fn chip_avf(&self, gpu: &GpuConfig) -> f64 {
        self.avf_over(gpu, &HwStructure::ALL)
    }
}

/// Analytic estimate for a whole application.
#[derive(Debug, Clone, PartialEq)]
pub struct AceAppEstimate {
    pub app: String,
    pub kernels: Vec<AceKernelEstimate>,
    /// Final per-structure ACE word-cycle totals, including the L2
    /// intervals only closed at end of application (dirty lines written
    /// back count live; clean residents count dead).
    pub totals: [u64; 5],
    /// Total golden cycles of the application.
    pub total_cycles: u64,
    /// Probe events the lifetime sink consumed (instrumentation volume).
    pub events: u64,
}

impl AceAppEstimate {
    /// App-level analytic AVF of one structure, computed from the final
    /// totals — unlike the cycle-weighted kernel mean, this includes the
    /// end-of-application L2 residual (output data awaiting writeback).
    pub fn app_avf_structure(&self, gpu: &GpuConfig, h: HwStructure) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let i = AceKernelEstimate::idx(h);
        let ace_bits = self.totals[i] as f64 * 32.0;
        (ace_bits / (gpu.structure_bits(h) as f64 * self.total_cycles as f64)).min(1.0)
    }

    /// App-level full-chip analytic AVF (size-weighted over structures).
    pub fn app_avf(&self, gpu: &GpuConfig) -> f64 {
        let total_bits = gpu.total_bits();
        HwStructure::ALL
            .iter()
            .map(|&h| {
                self.app_avf_structure(gpu, h) * gpu.structure_bits(h) as f64 / total_bits as f64
            })
            .sum()
    }
}

/// Run `bench` once, fault-free, with the lifetime sink attached, and
/// fold the intervals into per-kernel and app-level analytic AVF. The
/// whole instrumented simulation is the `ace.estimate` span, so its cost
/// sits next to the campaign's `kernels.trials` in `span_us`.
pub fn estimate_app(bench: &dyn Benchmark, cfg: &GpuConfig) -> AceAppEstimate {
    obs::span("ace.estimate", || {
        let sinks = Sinks {
            ace: Some(AceProfile::default()),
            ..Sinks::default()
        };
        let pass = golden_pass(bench, cfg, Variant::TIMED, sinks);
        let (golden, ace) = (pass.golden, pass.ace.expect("asked for"));
        let names = bench.kernels();
        let mut kernels: Vec<AceKernelEstimate> = names
            .iter()
            .map(|&n| AceKernelEstimate {
                kernel: n.to_string(),
                cycles: 0,
                ace_word_cycles: [0; 5],
            })
            .collect();
        for (r, delta) in golden.records.iter().zip(&ace.per_launch) {
            let k = &mut kernels[r.kernel_idx];
            k.cycles += r.stats.cycles;
            for (acc, d) in k.ace_word_cycles.iter_mut().zip(delta) {
                *acc += d;
            }
        }
        obs::counter_add("ace_runs_total", &[("app", bench.name())], 1);
        obs::counter_add(
            "ace_lifetime_events_total",
            &[("app", bench.name())],
            ace.events,
        );
        AceAppEstimate {
            app: bench.name().to_string(),
            kernels,
            totals: ace.totals,
            total_cycles: golden.total_cost,
            events: ace.events,
        }
    })
}

/// [`estimate_app`] over a benchmark list.
pub fn estimate_suite(benches: &[Box<dyn Benchmark>], cfg: &GpuConfig) -> Vec<AceAppEstimate> {
    benches
        .iter()
        .map(|b| estimate_app(b.as_ref(), cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(gpu: &GpuConfig) -> AceKernelEstimate {
        // Fill exactly half the RF bit-cycles for 100 cycles.
        let rf_words = gpu.structure_bits(HwStructure::RegFile) / 32;
        AceKernelEstimate {
            kernel: "K1".into(),
            cycles: 100,
            ace_word_cycles: [rf_words * 50, 0, 0, 0, 0],
        }
    }

    #[test]
    fn avf_is_ace_share_of_bit_cycles() {
        let gpu = GpuConfig::volta_scaled(2);
        let k = synthetic(&gpu);
        assert!((k.avf(&gpu, HwStructure::RegFile) - 0.5).abs() < 1e-12);
        assert_eq!(k.avf(&gpu, HwStructure::L2), 0.0);
        // Chip AVF is the size-weighted mix.
        let w = gpu.structure_bits(HwStructure::RegFile) as f64 / gpu.total_bits() as f64;
        assert!((k.chip_avf(&gpu) - 0.5 * w).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_and_overflow_are_guarded() {
        let gpu = GpuConfig::volta_scaled(2);
        let mut k = synthetic(&gpu);
        k.cycles = 0;
        assert_eq!(k.avf(&gpu, HwStructure::RegFile), 0.0);
        k.cycles = 1;
        k.ace_word_cycles[0] = u64::MAX / 64; // way past bits×cycles
        assert_eq!(k.avf(&gpu, HwStructure::RegFile), 1.0);
    }

    #[test]
    fn estimate_app_attributes_all_kernel_cycles() {
        let gpu = GpuConfig::volta_scaled(2);
        let bench = kernels::apps::va::Va;
        let est = estimate_app(&bench, &gpu);
        assert_eq!(est.kernels.len(), 1);
        assert_eq!(
            est.kernels.iter().map(|k| k.cycles).sum::<u64>(),
            est.total_cycles
        );
        assert!(est.kernels[0].avf(&gpu, HwStructure::RegFile) > 0.0);
        assert!(est.events > 0, "the lifetime sink saw no event");
        // Deterministic across reruns.
        let again = estimate_app(&bench, &gpu);
        assert_eq!(est, again);
    }
}
