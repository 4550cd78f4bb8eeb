//! The timed engine's schedule, pinned. Every field of every launch's
//! `Stats` (cycles, the issue/stall split, residency, instruction and
//! cache counters) and the total cost of the timed golden pass are folded
//! into one FNV-1a value per run, recorded before the warp scheduler kept
//! per-SM occupancy bits and a wake cycle. Any change to which warp
//! issues when moves the fold — a change the path differential cannot
//! see, because its oracle runs the same engine.

use kernels::apps::{bfs::Bfs, scp::Scp, va::Va};
use kernels::{all_benchmarks, golden_run, Benchmark, GoldenRun, Variant};
use vgpu_sim::stats::{CacheStats, Stats};
use vgpu_sim::GpuConfig;

/// FNV-1a over every launch's statistics, then the total cost. Checks on
/// the way that each launch's issue and stall cycles add up to its cycles.
fn fold(run: &GoldenRun) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for r in &run.records {
        // Destructured without `..`: a new field fails to compile here.
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
        } = r.stats;
        assert_eq!(
            issue_cycles + stall_cycles,
            cycles,
            "every cycle of a launch issues or stalls"
        );
        for v in [
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
        ] {
            eat(v);
        }
        class_dest_instrs.into_iter().for_each(&mut eat);
        for c in [l1d, l1t, l2] {
            let CacheStats {
                accesses,
                misses,
                pending_hits,
                reservation_fails,
            } = c;
            for v in [accesses, misses, pending_hits, reservation_fails] {
                eat(v);
            }
        }
        for v in [mem_reads, mem_writes, resident_warp_cycles, max_warp_cycles] {
            eat(v);
        }
    }
    eat(run.total_cost);
    h
}

/// `(app, launches, total cycles, fold)` of one timed golden pass.
fn profile(bench: &dyn Benchmark, variant: Variant) -> (&'static str, usize, u64, u64) {
    let run = golden_run(bench, &GpuConfig::default(), variant);
    (bench.name(), run.records.len(), run.total_cost, fold(&run))
}

#[test]
fn the_golden_schedule_is_what_it_was() {
    const PLAIN: [(&str, usize, u64, u64); 11] = [
        ("SRADv1", 10, 33196, 0x1c78_e475_e01f_0585),
        ("SRADv2", 4, 20533, 0x4854_6292_a26c_500d),
        ("K-Means", 3, 32947, 0xb60c_4919_befb_e7ec),
        ("HotSpot", 2, 9277, 0x3aca_424a_2811_15a3),
        ("LUD", 10, 450852, 0xf926_b06e_398c_d603),
        ("SCP", 1, 5041, 0x63d4_865d_6004_36d9),
        ("VA", 1, 1548, 0x6791_b453_7341_36a9),
        ("NW", 7, 360199, 0xb6f3_4310_07e1_336a),
        ("PathFinder", 2, 10208, 0x6f75_703c_0076_e6f7),
        ("BackProp", 2, 18150, 0x477c_16e9_4064_ea09),
        ("BFS", 22, 97180, 0xb2a7_753b_cb6b_f978),
    ];
    for (b, pin) in all_benchmarks().iter().zip(PLAIN) {
        assert_eq!(profile(b.as_ref(), Variant::TIMED), pin);
    }
}

#[test]
fn the_hardened_golden_schedule_is_what_it_was() {
    const TMR: [(&str, usize, u64, u64); 3] = [
        ("VA", 2, 8852, 0xeaca_2425_3d76_9ff3),
        ("SCP", 2, 14764, 0x6937_f8b7_74b7_47be),
        ("BFS", 99, 148165, 0xca7c_74ec_4743_1c4e),
    ];
    for (b, pin) in [&Va as &dyn Benchmark, &Scp, &Bfs].into_iter().zip(TMR) {
        assert_eq!(profile(b, Variant::TIMED_TMR), pin);
    }
}
