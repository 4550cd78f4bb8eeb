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

    /// Apply `f` to every counter, paired with the same counter of `o`.
    fn each_with(&mut self, o: &CacheStats, mut f: impl FnMut(&mut u64, u64)) {
        let CacheStats {
            accesses,
            misses,
            pending_hits,
            reservation_fails,
        } = *o;
        f(&mut self.accesses, accesses);
        f(&mut self.misses, misses);
        f(&mut self.pending_hits, pending_hits);
        f(&mut self.reservation_fails, reservation_fails);
    }
}

/// Statistics of one kernel launch (or an aggregate over launches). A
/// timed launch keeps one of these and counts every field into it from
/// its own first cycle: the executor its instructions, the cache
/// hierarchy its accesses and DRAM traffic, the engine its clock
/// (`cycles`) and residency. The functional engine leaves the timed-only
/// fields (cycles, residency, caches, DRAM) at zero.
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
        self.each_with(o, |a, b| *a += b);
    }

    /// Add `end − at`, counter by counter: the share of a run between two
    /// points of it — golden's suffix past a convergence snapshot, or one
    /// CTA's slice of a launch logged as cumulative stats.
    pub fn add_delta(&mut self, end: &Stats, at: &Stats) {
        self.add(end);
        self.each_with(at, |s, a| *s -= a);
    }

    /// Apply `f` to every counter, paired with the same counter of `o`:
    /// the one field list [`Stats::add`] and [`Stats::add_delta`] walk.
    fn each_with(&mut self, o: &Stats, mut f: impl FnMut(&mut u64, u64)) {
        let Stats {
            cycles,
            issue_cycles,
            stall_cycles,
            warp_instrs,
            thread_instrs,
            load_instrs,
            store_instrs,
            smem_instrs,
            gp_dest_instrs,
            ld_dest_instrs,
            src_reg_instrs,
            class_dest_instrs,
            l1d,
            l1t,
            l2,
            mem_reads,
            mem_writes,
            resident_warp_cycles,
            max_warp_cycles,
        } = o;
        f(&mut self.cycles, *cycles);
        f(&mut self.issue_cycles, *issue_cycles);
        f(&mut self.stall_cycles, *stall_cycles);
        f(&mut self.warp_instrs, *warp_instrs);
        f(&mut self.thread_instrs, *thread_instrs);
        f(&mut self.load_instrs, *load_instrs);
        f(&mut self.store_instrs, *store_instrs);
        f(&mut self.smem_instrs, *smem_instrs);
        f(&mut self.gp_dest_instrs, *gp_dest_instrs);
        f(&mut self.ld_dest_instrs, *ld_dest_instrs);
        f(&mut self.src_reg_instrs, *src_reg_instrs);
        for (mine, theirs) in self.class_dest_instrs.iter_mut().zip(class_dest_instrs) {
            f(mine, *theirs);
        }
        self.l1d.each_with(l1d, &mut f);
        self.l1t.each_with(l1t, &mut f);
        self.l2.each_with(l2, &mut f);
        f(&mut self.mem_reads, *mem_reads);
        f(&mut self.mem_writes, *mem_writes);
        f(&mut self.resident_warp_cycles, *resident_warp_cycles);
        f(&mut self.max_warp_cycles, *max_warp_cycles);
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

    /// The `Debug` text of a `Stats` whose every counter differs: a run's
    /// stats are fingerprinted through this text, so a renamed or
    /// reordered field must fail here, not only against recorded pins.
    #[test]
    fn debug_text_names_every_counter_in_order() {
        let mut s = Stats::default();
        let mut n = 0;
        s.each_with(&Stats::default(), |a, _| {
            n += 1;
            *a = n;
        });
        let want = concat!(
            "Stats { cycles: 1, issue_cycles: 2, stall_cycles: 3, warp_instrs: 4, ",
            "thread_instrs: 5, load_instrs: 6, store_instrs: 7, smem_instrs: 8, ",
            "gp_dest_instrs: 9, ld_dest_instrs: 10, src_reg_instrs: 11, ",
            "class_dest_instrs: [12, 13, 14, 15, 16, 17], ",
            "l1d: CacheStats { accesses: 18, misses: 19, pending_hits: 20, reservation_fails: 21 }, ",
            "l1t: CacheStats { accesses: 22, misses: 23, pending_hits: 24, reservation_fails: 25 }, ",
            "l2: CacheStats { accesses: 26, misses: 27, pending_hits: 28, reservation_fails: 29 }, ",
            "mem_reads: 30, mem_writes: 31, resident_warp_cycles: 32, max_warp_cycles: 33 }",
        );
        assert_eq!(format!("{s:?}"), want);
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
