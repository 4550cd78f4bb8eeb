//! Execution statistics — the fault-free profiling metrics of Figure 3.

/// Counters for one cache (an aggregate over the per-SM instances for L1s).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Line-granular accesses after coalescing.
    pub accesses: u64,
    pub misses: u64,
    /// Accesses that hit a line with an outstanding fill (MSHR merge).
    pub pending_hits: u64,
    /// Misses that found no free MSHR.
    pub reservation_fails: u64,
}

impl CacheStats {
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    pub fn add(&mut self, o: &CacheStats) {
        self.accesses += o.accesses;
        self.misses += o.misses;
        self.pending_hits += o.pending_hits;
        self.reservation_fails += o.reservation_fails;
    }
}

/// Statistics of one kernel launch (or an aggregate over launches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Cycles (timed mode only; 0 in functional mode).
    pub cycles: u64,
    /// Cycles where at least one warp issued (timed mode only).
    pub issue_cycles: u64,
    /// Cycles where no warp could issue — every warp busy until its last
    /// instruction's latency (ALU, SFU, shared or global memory) elapses,
    /// or at a barrier (timed mode only). `issue_cycles + stall_cycles ==
    /// cycles`.
    pub stall_cycles: u64,
    /// Warp-level instructions issued.
    pub warp_instrs: u64,
    /// Thread-level dynamic instructions (warp instruction × active lanes).
    pub thread_instrs: u64,
    /// Thread-level global/texture load instructions.
    pub load_instrs: u64,
    /// Thread-level global store instructions.
    pub store_instrs: u64,
    /// Thread-level shared-memory instructions (loads + stores).
    pub smem_instrs: u64,
    /// Thread-level dynamic instructions with a general-purpose destination
    /// register — the NVBitFI-eligible population.
    pub gp_dest_instrs: u64,
    /// Thread-level dynamic loads with a destination register (SVF-LD
    /// population).
    pub ld_dest_instrs: u64,
    /// Thread-level dynamic instructions reading at least one source
    /// register (population of the source-injection modes).
    pub src_reg_instrs: u64,
    /// `gp_dest_instrs` broken down by [`vgpu_arch::InstrClass`] (indexed
    /// by `InstrClass::index()`): the per-class strata of the two-level
    /// model. Sums to `gp_dest_instrs`.
    pub class_dest_instrs: [u64; 6],
    pub l1d: CacheStats,
    pub l1t: CacheStats,
    pub l2: CacheStats,
    /// DRAM read transactions (L2 fills).
    pub mem_reads: u64,
    /// DRAM write transactions (L2 write-backs).
    pub mem_writes: u64,
    /// Σ over cycles of resident warps (numerator of occupancy).
    pub resident_warp_cycles: u64,
    /// Σ over cycles of the maximum resident warps (denominator).
    pub max_warp_cycles: u64,
}

impl Stats {
    /// Average achieved occupancy in [0, 1].
    pub fn occupancy(&self) -> f64 {
        if self.max_warp_cycles == 0 {
            0.0
        } else {
            self.resident_warp_cycles as f64 / self.max_warp_cycles as f64
        }
    }

    /// Accumulate another launch's statistics.
    pub fn add(&mut self, o: &Stats) {
        self.cycles += o.cycles;
        self.issue_cycles += o.issue_cycles;
        self.stall_cycles += o.stall_cycles;
        self.warp_instrs += o.warp_instrs;
        self.thread_instrs += o.thread_instrs;
        self.load_instrs += o.load_instrs;
        self.store_instrs += o.store_instrs;
        self.smem_instrs += o.smem_instrs;
        self.gp_dest_instrs += o.gp_dest_instrs;
        self.ld_dest_instrs += o.ld_dest_instrs;
        self.src_reg_instrs += o.src_reg_instrs;
        for (mine, theirs) in self.class_dest_instrs.iter_mut().zip(&o.class_dest_instrs) {
            *mine += theirs;
        }
        self.l1d.add(&o.l1d);
        self.l1t.add(&o.l1t);
        self.l2.add(&o.l2);
        self.mem_reads += o.mem_reads;
        self.mem_writes += o.mem_writes;
        self.resident_warp_cycles += o.resident_warp_cycles;
        self.max_warp_cycles += o.max_warp_cycles;
    }

    /// Add `end − at` for the engine-accumulated counters (instruction,
    /// issue/stall and residency counts) — the golden-suffix credit used
    /// by the masked-convergence early exit. Cycles, DRAM traffic and
    /// cache deltas are spliced separately by the caller.
    pub fn add_engine_delta(&mut self, end: &Stats, at: &Stats) {
        self.issue_cycles += end.issue_cycles - at.issue_cycles;
        self.stall_cycles += end.stall_cycles - at.stall_cycles;
        self.warp_instrs += end.warp_instrs - at.warp_instrs;
        self.thread_instrs += end.thread_instrs - at.thread_instrs;
        self.load_instrs += end.load_instrs - at.load_instrs;
        self.store_instrs += end.store_instrs - at.store_instrs;
        self.smem_instrs += end.smem_instrs - at.smem_instrs;
        self.gp_dest_instrs += end.gp_dest_instrs - at.gp_dest_instrs;
        self.ld_dest_instrs += end.ld_dest_instrs - at.ld_dest_instrs;
        self.src_reg_instrs += end.src_reg_instrs - at.src_reg_instrs;
        for ((mine, e), a) in self
            .class_dest_instrs
            .iter_mut()
            .zip(&end.class_dest_instrs)
            .zip(&at.class_dest_instrs)
        {
            *mine += e - a;
        }
        self.resident_warp_cycles += end.resident_warp_cycles - at.resident_warp_cycles;
        self.max_warp_cycles += end.max_warp_cycles - at.max_warp_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_zero_accesses() {
        let c = CacheStats::default();
        assert_eq!(c.miss_rate(), 0.0);
        let c = CacheStats {
            accesses: 10,
            misses: 3,
            ..Default::default()
        };
        assert!((c.miss_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn occupancy_ratio() {
        let s = Stats {
            resident_warp_cycles: 50,
            max_warp_cycles: 200,
            ..Default::default()
        };
        assert!((s.occupancy() - 0.25).abs() < 1e-12);
        assert_eq!(Stats::default().occupancy(), 0.0);
    }

    #[test]
    fn add_accumulates_all_fields() {
        let mut a = Stats {
            cycles: 1,
            warp_instrs: 2,
            thread_instrs: 3,
            ..Default::default()
        };
        a.l1d.accesses = 5;
        a.issue_cycles = 1;
        let mut b = Stats {
            cycles: 10,
            warp_instrs: 20,
            thread_instrs: 30,
            ..Default::default()
        };
        b.l1d.accesses = 50;
        b.mem_reads = 7;
        b.issue_cycles = 6;
        b.stall_cycles = 4;
        a.add(&b);
        assert_eq!(a.cycles, 11);
        assert_eq!(a.warp_instrs, 22);
        assert_eq!(a.thread_instrs, 33);
        assert_eq!(a.l1d.accesses, 55);
        assert_eq!(a.mem_reads, 7);
        assert_eq!(a.issue_cycles, 7);
        assert_eq!(a.stall_cycles, 4);
    }

    #[test]
    fn zero_cycle_and_zero_slot_launches_do_not_nan() {
        // Functional-mode launches record instructions but neither cycles
        // nor warp-slot residency; both ratios must be 0.0, never NaN.
        let s = Stats {
            thread_instrs: 1000,
            warp_instrs: 32,
            resident_warp_cycles: 7, // no max_warp_cycles recorded
            issue_cycles: 3,         // no cycles recorded
            ..Default::default()
        };
        assert_eq!(s.occupancy(), 0.0);
        assert!(s.occupancy().is_finite());
    }
}
