//! Golden-prefix fast-forward must be an *optimization*, never a model
//! change: every classification artifact of a faulty run under
//! [`Accel::Snapshots`] (outcome, architectural cost, applied flag,
//! corrupted-word count) must be bit-identical to the slow path's, for
//! unprotected and TMR-hardened applications alike, and a fault-free
//! snapshot resume must reproduce the golden suffix verbatim.
//!
//! Fast-forward trials run back to back on one thread, so each starts on
//! the scratch machine the previous one left behind and restores only
//! what that one changed; in a debug build every such restore is checked
//! against the snapshot's full image and every dirty-only convergence
//! verdict against a full compare (`vgpu_sim::snapshot`).

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use common::TmrProbe;
use kernels::apps::{lud::Lud, scp::Scp, va::Va};
use kernels::{
    all_benchmarks, faulty_run_ff, faulty_run_with, golden_pass, golden_run, golden_run_snapshots,
    verify_snapshot_resume, Accel, AppSnapshots, Benchmark, GoldenRun, PlannedFault, Sinks,
    SnapshotSink, Variant,
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
    let faults = sweep(golden, target, pattern);
    let resumed_past_zero = assert_ff_matches_faults(bench, Variant::TIMED, golden, &faults);
    assert!(
        resumed_past_zero > 0,
        "{}: no trial ever resumed from a mid-launch snapshot — fast-forward inert",
        bench.name()
    );
}

/// Every structure × [`probe_cycles`] of launch `target`.
fn sweep(
    golden: &GoldenRun,
    target: usize,
    pattern: vgpu_sim::FaultPattern,
) -> Vec<(usize, UarchFault)> {
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
    faults.into_iter().map(|f| (target, f)).collect()
}

/// The snapshot set of `variant`'s golden run, `k` per launch.
fn snapshot_set(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    variant: Variant,
    golden: &GoldenRun,
    k: usize,
) -> AppSnapshots {
    let sinks = Sinks {
        snapshots: Some(SnapshotSink::new(golden, k)),
        ..Sinks::default()
    };
    let pass = golden_pass(bench, cfg, variant, sinks);
    pass.snapshots.expect("asked for")
}

/// Run `faults` (launch, fault) through fast-forward back to back — one
/// scratch machine, each trial inheriting the last one's leftovers — then
/// through the slow path, and require identical classification artifacts.
/// Returns how many trials resumed from a snapshot past cycle 0.
fn assert_ff_matches_faults(
    bench: &dyn Benchmark,
    variant: Variant,
    golden: &GoldenRun,
    faults: &[(usize, UarchFault)],
) -> u32 {
    let cfg = cfg();
    let snaps = Arc::new(snapshot_set(bench, &cfg, variant, golden, 4));
    let run = |target, f, accel| {
        let fault = PlannedFault::Uarch(f);
        faulty_run_with(bench, &cfg, variant, golden, target, fault, accel)
    };
    let fast: Vec<_> = faults
        .iter()
        .map(|&(target, f)| run(target, f, Accel::Snapshots(&snaps)))
        .collect();
    let mut resumed_past_zero = 0;
    for (&(target, f), fast) in faults.iter().zip(fast) {
        let slow = run(target, f, Accel::None);
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
        assert_ff_matches_faults(b, Variant::TIMED, &golden, &faults);
    }
}

#[test]
fn ff_bit_identical_to_slow_path_hardened() {
    // A hardened launch is the same kernel with `grid_y == 3` over
    // triplicated buffers and a vote is a launch plus a host read of its
    // flag, so a TMR application follows, resumes and converges like any
    // other: SCP's two kernels, each followed by its votes, faulted in the
    // first kernel launch, in a vote and in the last launch.
    let golden = golden_run(&Scp, &cfg(), Variant::TIMED_TMR);
    let vote = golden.records.iter().position(|r| r.is_vote).unwrap();
    let mut faults = Vec::new();
    for target in [0, vote, golden.records.len() - 1] {
        faults.extend(sweep(&golden, target, vgpu_sim::FaultPattern::SingleBit));
    }
    let resumed = assert_ff_matches_faults(&Scp, Variant::TIMED_TMR, &golden, &faults);
    assert!(resumed > 0, "SCP-TMR: fast-forward inert");
}

#[test]
fn hardened_host_steps_follow_snapshots_exactly() {
    // `TmrProbe` (tests/common): the vote after K1 fails when a fault
    // changes what copy 1 or 2 stored — a DUE on both paths — and the host
    // then rewrites all three copies and reads each back before the next
    // launch, which a run still following a golden snapshot must answer
    // from a machine gone live with every copy written.
    let probe = TmrProbe::default();
    let golden = golden_run(&probe, &cfg(), Variant::TIMED_TMR);
    assert_eq!(golden.records.len(), 4, "K1, vote, K2, vote");
    let mut faults = Vec::new();
    for target in 0..4 {
        faults.extend(sweep(&golden, target, vgpu_sim::FaultPattern::SingleBit));
    }
    // A register-file fault early in K1, at every word of the three
    // resident CTAs: those in a live register of copy 1 or 2 change what
    // that copy stores.
    let k1 = &golden.records[0];
    for loc_pick in 0..3 * 32 * u64::from(k1.num_regs) {
        let fault = UarchFault {
            cycle: k1.stats.cycles / 4,
            structure: HwStructure::RegFile,
            loc_pick,
            bit: 3,
            pattern: vgpu_sim::FaultPattern::SingleBit,
        };
        faults.push((0, fault));
    }
    probe.vote_failures.store(0, Ordering::Relaxed);
    assert_ff_matches_faults(&probe, Variant::TIMED_TMR, &golden, &faults);
    let failed = probe.vote_failures.load(Ordering::Relaxed);
    assert!(failed > 0, "no fault made the vote fail");
    assert_eq!(failed % 2, 0, "a vote failed on one path only");
}

#[test]
fn unhardened_fronts_are_the_general_pass_and_run() {
    // `golden_run_snapshots` / `faulty_run_ff` are `golden_pass` with the
    // snapshot sink / `faulty_run_with` under `Accel::Snapshots`, for
    // `Variant::TIMED`.
    let cfg = cfg();
    let golden = golden_run(&Va, &cfg, Variant::TIMED);
    let front = Arc::new(golden_run_snapshots(&Va, &cfg, &golden, 4));
    let general = snapshot_set(&Va, &cfg, Variant::TIMED, &golden, 4);
    assert_eq!(
        (front.bytes, front.count(), front.chunks()),
        (general.bytes, general.count(), general.chunks())
    );
    let (target, f) = sweep(&golden, 0, vgpu_sim::FaultPattern::SingleBit)[7];
    let fault = PlannedFault::Uarch(f);
    let a = faulty_run_ff(&Va, &cfg, &golden, &front, target, fault);
    let accel = Accel::Snapshots(&front);
    let b = faulty_run_with(&Va, &cfg, Variant::TIMED, &golden, target, fault, accel);
    let artifacts = |r: &kernels::RunResult| {
        let cost = (r.total_cost, r.simulated_cost, r.resumed_at);
        (r.outcome, cost, r.converged, r.applied, r.corrupted_words)
    };
    assert_eq!(artifacts(&a), artifacts(&b));
}

#[test]
fn snapshot_sets_cost_what_changed() {
    // The campaign configuration (4 SMs, 8 mid-launch snapshots per
    // launch): a regression to whole-machine copies — 400 MB for BFS,
    // 1.2 GB over the suite — must not land silently. A hardened set holds
    // three copies of every buffer and a boundary per vote launch
    // (measured: BFS 11.3 → 55.0 MB, the suite 48.5 → 161.3 MB).
    let cfg = GpuConfig::default();
    for (variant, bfs_cap, suite_cap) in [
        (Variant::TIMED, 40u64 << 20, 150u64 << 20),
        (Variant::TIMED_TMR, 72 << 20, 200 << 20),
    ] {
        let mut total = 0;
        for b in all_benchmarks() {
            let golden = golden_run(b.as_ref(), &cfg, variant);
            let bytes = snapshot_set(b.as_ref(), &cfg, variant, &golden, 8).bytes;
            if b.name() == "BFS" {
                assert!(
                    bytes <= bfs_cap,
                    "{variant:?}: BFS snapshot set is {bytes} B"
                );
            }
            total += bytes;
        }
        assert!(
            total <= suite_cap,
            "{variant:?}: the 11 snapshot sets sum to {total} B"
        );
    }
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

    /// Arbitrary (benchmark, variant, launch, cycle, structure, pattern)
    /// sequences of trials, back to back on one scratch machine: every
    /// record equals the oracle's, whatever the machine was left holding.
    #[test]
    fn consecutive_resumes_on_one_scratch_machine_match_the_oracle(
        bench_idx in 0usize..11,
        hardened in any::<bool>(),
        picks in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0usize..5, 0usize..7, 0u64..u64::MAX),
            2..5,
        ),
    ) {
        let benches = all_benchmarks();
        let b = benches[bench_idx].as_ref();
        let variant = Variant { hardened, ..Variant::TIMED };
        let golden = golden_run(b, &cfg(), variant);
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
        assert_ff_matches_faults(b, variant, &golden, &faults);
    }
}
