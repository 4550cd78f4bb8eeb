//! Fault-free resource-utilization profiling — the Figure 3 metric set.

use kernels::GoldenRun;
use vgpu_sim::{GpuConfig, HwStructure};

/// The utilization metrics the paper correlates with vulnerability trends
/// (Figure 3's bar labels, in order).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UtilMetrics {
    pub occupancy: f64,
    pub rf_derating: f64,
    pub smem_derating: f64,
    pub l1d_accesses: f64,
    pub l1d_miss_rate: f64,
    pub l1d_misses: f64,
    pub l2_accesses: f64,
    pub l2_miss_rate: f64,
    pub l2_misses: f64,
    pub l2_pending_hits: f64,
    pub l2_reserv_fails: f64,
    pub load_instrs: f64,
    pub smem_instrs: f64,
    pub store_instrs: f64,
    pub mem_reads: f64,
    pub mem_writes: f64,
}

/// Metric labels, matching the field order of [`UtilMetrics::values`].
pub const METRIC_LABELS: [&str; 16] = [
    "Occupancy",
    "RF Derat. Factor",
    "SMEM Derat. Factor",
    "L1D Accesses",
    "L1D Miss Rate",
    "L1D Misses",
    "L2 Accesses",
    "L2 Miss Rate",
    "L2 Misses",
    "L2 Pending Hits",
    "L2 Reserv. Fails",
    "Load Instructions",
    "SMEM Instructions",
    "Store Instructions",
    "Memory Read",
    "Memory Write",
];

impl UtilMetrics {
    pub fn values(&self) -> [f64; 16] {
        [
            self.occupancy,
            self.rf_derating,
            self.smem_derating,
            self.l1d_accesses,
            self.l1d_miss_rate,
            self.l1d_misses,
            self.l2_accesses,
            self.l2_miss_rate,
            self.l2_misses,
            self.l2_pending_hits,
            self.l2_reserv_fails,
            self.load_instrs,
            self.smem_instrs,
            self.store_instrs,
            self.mem_reads,
            self.mem_writes,
        ]
    }
}

/// Extract the Figure-3 metrics for one kernel from a timed golden run.
pub fn kernel_metrics(golden: &GoldenRun, kernel_idx: usize, gpu: &GpuConfig) -> UtilMetrics {
    let s = golden.kernel_stats(kernel_idx);
    let mut rf_bits = 0.0f64;
    let mut smem_bits = 0.0f64;
    let mut cycles = 0u64;
    for r in golden.records.iter().filter(|r| r.kernel_idx == kernel_idx) {
        rf_bits += (r.num_regs as u64 * 32 * r.threads) as f64 * r.stats.cycles as f64;
        smem_bits += (r.smem_bytes as u64 * 8 * r.ctas) as f64 * r.stats.cycles as f64;
        cycles += r.stats.cycles;
    }
    let c = cycles.max(1) as f64;
    UtilMetrics {
        occupancy: s.occupancy(),
        rf_derating: (rf_bits / c / gpu.structure_bits(HwStructure::RegFile) as f64).min(1.0),
        smem_derating: (smem_bits / c / gpu.structure_bits(HwStructure::Smem) as f64).min(1.0),
        l1d_accesses: s.l1d.accesses as f64,
        l1d_miss_rate: s.l1d.miss_rate(),
        l1d_misses: s.l1d.misses as f64,
        l2_accesses: s.l2.accesses as f64,
        l2_miss_rate: s.l2.miss_rate(),
        l2_misses: s.l2.misses as f64,
        l2_pending_hits: s.l2.pending_hits as f64,
        l2_reserv_fails: s.l2.reservation_fails as f64,
        load_instrs: s.load_instrs as f64,
        smem_instrs: s.smem_instrs as f64,
        store_instrs: s.store_instrs as f64,
        mem_reads: s.mem_reads as f64,
        mem_writes: s.mem_writes as f64,
    }
}

/// Figure 3's normalization of one quantity of a kernel pair: each
/// kernel's share of the pair's sum, in percent (50/50 when both are 0).
pub fn pair_shares(a: f64, b: f64) -> (f64, f64) {
    let sum = a + b;
    if sum == 0.0 {
        (50.0, 50.0)
    } else {
        (a / sum * 100.0, b / sum * 100.0)
    }
}

/// [`pair_shares`] of every utilization metric: `(label, share1, share2)`
/// per metric, in percent.
pub fn normalized_pair(m1: &UtilMetrics, m2: &UtilMetrics) -> Vec<(&'static str, f64, f64)> {
    (METRIC_LABELS
        .iter()
        .zip(m1.values().iter().zip(&m2.values())))
    .map(|(&label, (&a, &b))| {
        let (a, b) = pair_shares(a, b);
        (label, a, b)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_shares_sum_to_100() {
        let m1 = UtilMetrics {
            occupancy: 0.75,
            l1d_accesses: 300.0,
            ..Default::default()
        };
        let m2 = UtilMetrics {
            occupancy: 0.25,
            l1d_accesses: 100.0,
            ..Default::default()
        };
        let rows = normalized_pair(&m1, &m2);
        assert_eq!(rows.len(), 16);
        for (label, a, b) in &rows {
            assert!((a + b - 100.0).abs() < 1e-9, "{label}");
        }
        assert_eq!(rows[0].0, "Occupancy");
        assert!((rows[0].1 - 75.0).abs() < 1e-9);
        assert!((rows[3].1 - 75.0).abs() < 1e-9);
        // Both-zero metrics show as the 50/50 neutral bar.
        assert_eq!(rows[4], ("L1D Miss Rate", 50.0, 50.0));
    }

    #[test]
    fn labels_align_with_values() {
        assert_eq!(METRIC_LABELS.len(), UtilMetrics::default().values().len());
    }
}
