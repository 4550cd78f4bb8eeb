//! Property-based tests on core invariants, spanning the workspace.

use proptest::prelude::*;
use vgpu_arch::{CmpOp, KernelBuilder, MemSpace, Operand, WARP_SIZE};
use vgpu_sim::cache::{load_warp, store_warp, AccessCtx, Cache};
use vgpu_sim::{
    ArenaPlanner, Budget, CacheGeom, FaultPlan, GlobalMem, Gpu, GpuConfig, HwStructure, Mode, Stats,
};

/// Run `access` at `now`, unprobed, with the default latencies; what it
/// counts is dropped.
fn at<R>(
    l2: &mut Cache,
    mem: &mut GlobalMem,
    now: u64,
    access: impl FnOnce(&mut AccessCtx<'_>) -> R,
) -> R {
    let (lat, mut stats) = (GpuConfig::default().lat, Stats::default());
    access(&mut AccessCtx::new(l2, mem, now, &lat, &mut stats))
}

/// A one-lane [`load_warp`] of the word at `addr` through the L1D `l1`.
fn load_word(l1: &mut Cache, l2: &mut Cache, mem: &mut GlobalMem, addr: u32, now: u64) -> u32 {
    let (mut addrs, mut out) = ([0; WARP_SIZE], [0; WARP_SIZE]);
    addrs[0] = addr;
    at(l2, mem, now, |cx| {
        load_warp(l1, HwStructure::L1D, 1, &addrs, &mut out, cx)
    });
    out[0]
}

proptest! {
    /// Any value written through the cache hierarchy and read back — in any
    /// interleaving of other accesses — comes back intact (fault-free
    /// caches never corrupt data).
    #[test]
    fn cache_hierarchy_preserves_data(
        writes in prop::collection::vec((0u32..512, any::<u32>()), 1..60),
        probes in prop::collection::vec(0u32..512, 1..30),
    ) {
        let mut l1 = Cache::new(CacheGeom { bytes: 2048, line_bytes: 128, ways: 2, mshrs: 4 });
        let mut l2 = Cache::new(CacheGeom { bytes: 8192, line_bytes: 128, ways: 4, mshrs: 8 });
        let mut mem = GlobalMem::new(512 * 4 + 4096);
        mem.map(0, 512 * 4);
        let mut shadow = vec![0u32; 512];
        let mut now = 0u64;
        for (word, value) in writes {
            let (mut addrs, mut vals) = ([0; WARP_SIZE], [0; WARP_SIZE]);
            (addrs[0], vals[0]) = (word * 4, value);
            at(&mut l2, &mut mem, now, |cx| store_warp(&mut l1, 1, &addrs, &vals, cx));
            shadow[word as usize] = value;
            now += 1000;
        }
        for word in probes {
            let r = load_word(&mut l1, &mut l2, &mut mem, word * 4, now);
            prop_assert_eq!(r, shadow[word as usize]);
            now += 1000;
        }
    }

    /// A flipped bit in an L2 line is visible to a subsequent load of that
    /// word (no silent scrubbing), and flipping it back restores the value.
    #[test]
    fn l2_fault_is_observable_and_invertible(word in 0u32..64, bit in 0u8..32) {
        let mut l1 = Cache::new(CacheGeom { bytes: 1024, line_bytes: 128, ways: 2, mshrs: 4 });
        let mut l2 = Cache::new(CacheGeom { bytes: 8192, line_bytes: 128, ways: 4, mshrs: 8 });
        let mut mem = GlobalMem::new(64 * 4 + 4096);
        mem.map(0, 64 * 4);
        mem.write_u32(word * 4, 0x5A5A_5A5A);
        // Load through the hierarchy so L2 holds the line; invalidate L1 so
        // the next read must come from L2.
        load_word(&mut l1, &mut l2, &mut mem, word * 4, 0);
        l1.invalidate_all();
        let idx = l2.probe(word * 4 / 128).expect("line resident in L2");
        let byte_index = idx as u64 * 128 + (word as u64 * 4 % 128) + (bit as u64 / 8);
        l2.flip_mask(byte_index, 1 << (bit % 8));
        let r = load_word(&mut l1, &mut l2, &mut mem, word * 4, 10_000);
        prop_assert_eq!(r, 0x5A5A_5A5Au32 ^ (1 << ((bit / 8) * 8 + bit % 8)));
        // Flip back and reload (L1 holds the faulty copy; invalidate again).
        l2.flip_mask(byte_index, 1 << (bit % 8));
        l1.invalidate_all();
        let r = load_word(&mut l1, &mut l2, &mut mem, word * 4, 20_000);
        prop_assert_eq!(r, 0x5A5A_5A5A);
    }

    /// The arena planner never produces overlapping or adjacent
    /// allocations, and every allocation is fully mapped.
    #[test]
    fn planner_allocations_are_disjoint_and_mapped(sizes in prop::collection::vec(1u32..5000, 1..20)) {
        let mut planner = ArenaPlanner::new();
        let addrs: Vec<(u32, u32)> =
            sizes.iter().map(|&s| (planner.alloc(s), s)).collect();
        let mem = planner.build();
        for (i, &(a, s)) in addrs.iter().enumerate() {
            prop_assert!(mem.is_mapped_word(a));
            prop_assert!(mem.is_mapped_word(a + (s.div_ceil(4) - 1) * 4));
            for &(b, t) in &addrs[i + 1..] {
                let (ae, be) = (a + s.div_ceil(4) * 4, b + t.div_ceil(4) * 4);
                prop_assert!(ae <= b || be <= a, "overlap: [{a},{ae}) vs [{b},{be})");
            }
        }
    }

    /// Guard-gap probing: addresses just past an allocation are unmapped.
    #[test]
    fn guard_gaps_catch_overruns(size in 4u32..1000) {
        let mut planner = ArenaPlanner::new();
        let a = planner.alloc(size);
        planner.alloc(16);
        let mem = planner.build();
        let end = a + size.div_ceil(4) * 4;
        prop_assert!(!mem.is_mapped_word(end));
        prop_assert!(!mem.is_mapped_word(end + 256));
    }

    /// SIMT execution invariant: a guarded store writes exactly the lanes
    /// whose predicate holds, for any lane subset.
    #[test]
    fn predication_is_exact(threshold in 0u32..33) {
        let n = 32u32;
        let mut a = KernelBuilder::new("prop");
        let (gid, tmp, addr, v) = (a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        a.linear_tid(gid, tmp);
        a.isetp(p, gid, threshold, CmpOp::Lt, true);
        a.mov(addr, a.param(0));
        a.iscadd(addr, gid, Operand::Reg(addr), 2);
        a.mov(v, 7u32);
        a.predicated(p, false, |a| a.st(MemSpace::Global, addr, 0, v));
        let k = a.build().unwrap();
        let mut planner = ArenaPlanner::new();
        let out = planner.alloc(n * 4);
        let mem = planner.build();
        let mut gpu = Gpu::new(GpuConfig::default(), mem, Mode::Functional);
        let lc = vgpu_arch::LaunchConfig::new(1, n, vec![out]);
        gpu.launch(&k, &lc, FaultPlan::None, &Budget::unlimited()).unwrap();
        for i in 0..n {
            let expect = if i < threshold { 7 } else { 0 };
            prop_assert_eq!(gpu.host_read_u32(out + i * 4), expect);
        }
    }

    /// Divergent loops reconverge for arbitrary per-lane trip counts.
    #[test]
    fn divergent_loops_reconverge(trips in prop::collection::vec(1u32..20, 32)) {
        let mut a = KernelBuilder::new("prop");
        let (gid, tmp, addr, cnt, bound) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        a.linear_tid(gid, tmp);
        // bound = trips[gid] (read from a device array)
        a.mov(addr, a.param(1));
        a.iscadd(addr, gid, Operand::Reg(addr), 2);
        a.ld(bound, MemSpace::Global, addr, 0);
        a.mov(cnt, 0u32);
        a.loop_while(|a| {
            a.iadd(cnt, cnt, 1u32);
            a.isetp(p, cnt, Operand::Reg(bound), CmpOp::Lt, true);
            (p, false)
        });
        // out[gid] = cnt (all lanes reconverged)
        a.mov(addr, a.param(0));
        a.iscadd(addr, gid, Operand::Reg(addr), 2);
        a.st(MemSpace::Global, addr, 0, cnt);
        let k = a.build().unwrap();
        let mut planner = ArenaPlanner::new();
        let out = planner.alloc(32 * 4);
        let tr = planner.alloc(32 * 4);
        let mut mem = planner.build();
        for (i, &t) in trips.iter().enumerate() {
            mem.write_u32(tr + i as u32 * 4, t);
        }
        let mut gpu = Gpu::new(GpuConfig::default(), mem, Mode::Timed);
        let lc = vgpu_arch::LaunchConfig::new(1, 32, vec![out, tr]);
        gpu.launch(&k, &lc, FaultPlan::None, &Budget::unlimited()).unwrap();
        for (i, &t) in trips.iter().enumerate() {
            prop_assert_eq!(gpu.host_read_u32(out + i as u32 * 4), t.max(1), "lane {}", i);
        }
    }
}
