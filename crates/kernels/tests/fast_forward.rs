//! Golden-prefix fast-forward must be an *optimization*, never a model
//! change: every classification artifact of [`kernels::faulty_run_ff`]
//! (outcome, architectural cost, applied flag, corrupted-word count) must
//! be bit-identical to the slow path's, and a fault-free snapshot resume
//! must reproduce the golden suffix verbatim.
//!
//! Fast-forward trials run back to back on one thread, so each starts on
//! the scratch machine the previous one left behind and restores only
//! what that one changed; in a debug build every such restore is checked
//! against the snapshot's full image and every dirty-only convergence
//! verdict against a full compare (`vgpu_sim::snapshot`).

use std::sync::Arc;

use kernels::apps::{lud::Lud, scp::Scp, va::Va};
use kernels::{
    all_benchmarks, faulty_run, faulty_run_ff, golden_run, golden_run_snapshots,
    verify_snapshot_resume, Benchmark, GoldenRun, PlannedFault, Variant,
};
use proptest::prelude::*;
use vgpu_sim::fault::HwStructure;
use vgpu_sim::{GpuConfig, UarchFault};

fn cfg() -> GpuConfig {
    GpuConfig::volta_scaled(2)
}

/// Fault cycles spread over a launch, including both extremes.
fn probe_cycles(total: u64) -> Vec<u64> {
    vec![
        0,
        total / 3,
        total / 2,
        total * 9 / 10,
        total.saturating_sub(1),
    ]
}

fn assert_ff_matches(bench: &dyn Benchmark, target: usize, golden: &GoldenRun) {
    assert_ff_matches_pattern(bench, target, golden, vgpu_sim::FaultPattern::SingleBit);
}

fn assert_ff_matches_pattern(
    bench: &dyn Benchmark,
    target: usize,
    golden: &GoldenRun,
    pattern: vgpu_sim::FaultPattern,
) {
    let launch_cycles = golden.records[target].stats.cycles;
    let mut faults = Vec::new();
    for structure in HwStructure::ALL {
        for (i, cycle) in probe_cycles(launch_cycles).into_iter().enumerate() {
            faults.push(UarchFault {
                cycle,
                structure,
                loc_pick: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1),
                bit: (i as u8 * 7) % 32,
                pattern,
            });
        }
    }
    let faults: Vec<_> = faults.into_iter().map(|f| (target, f)).collect();
    let resumed_past_zero = assert_ff_matches_faults(bench, golden, &faults);
    assert!(
        resumed_past_zero > 0,
        "{}: no trial ever resumed from a mid-launch snapshot — fast-forward inert",
        bench.name()
    );
}

/// Run `faults` (launch, fault) through fast-forward back to back — one
/// scratch machine, each trial inheriting the last one's leftovers — then
/// through the slow path, and require identical classification artifacts.
/// Returns how many trials resumed from a snapshot past cycle 0.
fn assert_ff_matches_faults(
    bench: &dyn Benchmark,
    golden: &GoldenRun,
    faults: &[(usize, UarchFault)],
) -> u32 {
    let cfg = cfg();
    let snaps = Arc::new(golden_run_snapshots(bench, &cfg, golden, 4));
    let fast: Vec<_> = faults
        .iter()
        .map(|&(target, f)| {
            faulty_run_ff(bench, &cfg, golden, &snaps, target, PlannedFault::Uarch(f))
        })
        .collect();
    let mut resumed_past_zero = 0;
    for (&(target, f), fast) in faults.iter().zip(fast) {
        let fault = PlannedFault::Uarch(f);
        let slow = faulty_run(bench, &cfg, Variant::TIMED, golden, target, fault);
        let tag = format!("{} launch {target} {f:?}", bench.name());
        assert_eq!(fast.outcome, slow.outcome, "{tag}");
        assert_eq!(fast.total_cost, slow.total_cost, "{tag}");
        assert_eq!(fast.applied, slow.applied, "{tag}");
        assert_eq!(fast.corrupted_words, slow.corrupted_words, "{tag}");
        // Slow path simulates everything it charges; fast path never
        // simulates more than it charges.
        assert_eq!(slow.simulated_cost, slow.total_cost, "{tag}");
        assert!(fast.simulated_cost <= fast.total_cost, "{tag}");
        assert!(!slow.converged && slow.resumed_at.is_none(), "{tag}");
        if let Some(at) = fast.resumed_at {
            assert!(at <= f.cycle, "{tag}: resumed after the fault cycle");
            resumed_past_zero += u32::from(at > 0);
        }
    }
    resumed_past_zero
}

#[test]
fn ff_bit_identical_to_slow_path_va() {
    let b = Va;
    let golden = golden_run(&b, &cfg(), Variant::TIMED);
    assert_ff_matches(&b, 0, &golden);
}

#[test]
fn ff_bit_identical_to_slow_path_scp() {
    let b = Scp;
    let golden = golden_run(&b, &cfg(), Variant::TIMED);
    assert_ff_matches(&b, 0, &golden);
}

#[test]
fn ff_bit_identical_to_slow_path_multi_launch() {
    // LUD interleaves three kernels: faulting the last launch exercises
    // the golden-prefix restore for every launch before it, and faulting
    // the first exercises post-fault boundary convergence.
    let b = Lud;
    let golden = golden_run(&b, &cfg(), Variant::TIMED);
    assert!(golden.records.len() > 1, "LUD should be multi-launch");
    assert_ff_matches(&b, 0, &golden);
    assert_ff_matches(&b, golden.records.len() - 1, &golden);
}

#[test]
fn ff_bit_identical_to_slow_path_stuck_at() {
    // Persistent faults are the riskiest case for fast-forward: the stuck
    // site must be pinned to the same physical location and re-asserted
    // over the same suffix whether or not the prefix was restored from a
    // snapshot. Classification must not depend on the path taken.
    let b = Va;
    let golden = golden_run(&b, &cfg(), Variant::TIMED);
    assert_ff_matches_pattern(&b, 0, &golden, vgpu_sim::FaultPattern::StuckAt1);
    assert_ff_matches_pattern(&b, 0, &golden, vgpu_sim::FaultPattern::StuckAt0);
}

#[test]
fn ff_bit_identical_to_slow_path_multi_bit() {
    // Spatial multi-bit transients: the footprint expansion happens at
    // the fault cycle, which fast-forward never skips past.
    let b = Scp;
    let golden = golden_run(&b, &cfg(), Variant::TIMED);
    assert_ff_matches_pattern(&b, 0, &golden, vgpu_sim::FaultPattern::BurstRow);
    assert_ff_matches_pattern(&b, 0, &golden, vgpu_sim::FaultPattern::WholeEntry);
}

#[test]
fn dead_state_left_on_the_scratch_machine_is_harmless() {
    // Faults into state no instruction can read — an L1 or L2 line that is
    // invalid at cycle 0, a register-file burst that runs past its CTA
    // slot into a free one — converge at once and leave the scratch
    // machine different from golden in dead bits only. Whatever runs on
    // it next must classify as on the oracle.
    let cfg = cfg();
    for b in [&Va as &dyn Benchmark, &Lud] {
        let golden = golden_run(b, &cfg, Variant::TIMED);
        let last = golden.records.len() - 1;
        let at = |launch: usize, frac: u64| golden.records[launch].stats.cycles * frac / 4;
        let f = |launch, cycle, structure, pattern, loc_pick| {
            let fault = UarchFault {
                cycle,
                structure,
                loc_pick,
                bit: 5,
                pattern,
            };
            (launch, fault)
        };
        use vgpu_sim::FaultPattern::{BurstCol, SingleBit};
        let faults = [
            f(0, 0, HwStructure::L1D, SingleBit, 99),
            f(0, at(0, 2), HwStructure::RegFile, SingleBit, 7),
            f(0, 0, HwStructure::L2, SingleBit, 1 << 40),
            f(last, at(last, 1), HwStructure::L2, SingleBit, 12345),
            f(last, at(last, 3), HwStructure::RegFile, BurstCol, u64::MAX),
            f(0, at(0, 1), HwStructure::Smem, SingleBit, 3),
            f(last, at(last, 3), HwStructure::L1T, SingleBit, 77),
            f(last, at(last, 2), HwStructure::RegFile, SingleBit, 4242),
        ];
        assert_ff_matches_faults(b, &golden, &faults);
    }
}

#[test]
fn snapshot_sets_cost_what_changed() {
    // The campaign configuration (4 SMs, 8 mid-launch snapshots per
    // launch): a regression to whole-machine copies — 400 MB for BFS,
    // 1.2 GB over the suite — must not land silently.
    let cfg = GpuConfig::default();
    let mut total = 0;
    for b in all_benchmarks() {
        let golden = golden_run(b.as_ref(), &cfg, Variant::TIMED);
        let bytes = golden_run_snapshots(b.as_ref(), &cfg, &golden, 8).bytes;
        if b.name() == "BFS" {
            assert!(bytes <= 40 << 20, "BFS snapshot set is {bytes} B");
        }
        total += bytes;
    }
    assert!(total <= 150 << 20, "the 11 snapshot sets sum to {total} B");
}

#[test]
fn snapshot_resume_reproduces_golden_suffix_every_benchmark() {
    // One mid-app, mid-launch probe per benchmark: capture an extra
    // snapshot there, resume fault-free, and require the golden suffix
    // (stats, cycle count, device state, final output) bit-for-bit.
    let cfg = cfg();
    for b in all_benchmarks() {
        let golden = golden_run(b.as_ref(), &cfg, Variant::TIMED);
        let ordinal = golden.records.len() / 2;
        let cycle = golden.records[ordinal].stats.cycles * 2 / 3;
        verify_snapshot_resume(b.as_ref(), &cfg, &golden, ordinal, cycle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary (benchmark, launch, cycle): a fault-free resume from a
    /// snapshot captured there reproduces the golden suffix exactly.
    #[test]
    fn snapshot_resume_is_lossless_at_arbitrary_cycles(
        bench_idx in 0usize..11,
        ordinal_pick in 0u64..u64::MAX,
        cycle_pick in 0u64..u64::MAX,
    ) {
        let cfg = cfg();
        let benches = all_benchmarks();
        let b = benches[bench_idx].as_ref();
        let golden = golden_run(b, &cfg, Variant::TIMED);
        let ordinal = (ordinal_pick % golden.records.len() as u64) as usize;
        let cycle = cycle_pick % golden.records[ordinal].stats.cycles.max(1);
        verify_snapshot_resume(b, &cfg, &golden, ordinal, cycle);
    }

    /// Arbitrary (benchmark, launch, cycle, structure, pattern) sequences
    /// of trials, back to back on one scratch machine: every record equals
    /// the oracle's, whatever the machine was left holding.
    #[test]
    fn consecutive_resumes_on_one_scratch_machine_match_the_oracle(
        bench_idx in 0usize..11,
        picks in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0usize..5, 0usize..7, 0u64..u64::MAX),
            2..5,
        ),
    ) {
        let benches = all_benchmarks();
        let b = benches[bench_idx].as_ref();
        let golden = golden_run(b, &cfg(), Variant::TIMED);
        let faults: Vec<_> = picks
            .into_iter()
            .map(|(ordinal_pick, cycle_pick, structure, pattern, loc_pick)| {
                let ordinal = (ordinal_pick % golden.records.len() as u64) as usize;
                let fault = UarchFault {
                    cycle: cycle_pick % golden.records[ordinal].stats.cycles.max(1),
                    structure: HwStructure::ALL[structure],
                    loc_pick,
                    bit: (loc_pick % 32) as u8,
                    pattern: vgpu_sim::FaultPattern::ALL[pattern],
                };
                (ordinal, fault)
            })
            .collect();
        assert_ff_matches_faults(b, &golden, &faults);
    }
}
