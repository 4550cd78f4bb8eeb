//! The per-path trial statistics of both trial accelerators, pinned: the
//! simulated cost, the CTAs replayed and simulated, and how many trials
//! resumed from a mid-launch snapshot or re-converged to golden. They feed
//! the campaign counters `campaign_cycles_skipped_total`,
//! `snapshot_hits_total` and `sw_cta_total`; `fast_forward.rs` and
//! `cta_replay.rs` bound them per trial only.
//!
//! Each test runs a fixed list of planned trials in order on one thread;
//! the values were recorded before the accelerators moved out of the
//! harness's run controller, and moving them changed none.
//! `restored_bytes` is left out: it depends on what the thread's scratch
//! machine last held.

mod common;

use std::sync::Arc;

use common::{HostCarry, TmrProbe};
use kernels::apps::{backprop::BackProp, bfs::Bfs, kmeans::KMeans, sradv1::SradV1, va::Va};
use kernels::{
    faulty_run_with, golden_pass, golden_run, Accel, Benchmark, CtaLog, GoldenRun, Outcome,
    PlannedFault, RunResult, Sinks, SnapshotSink, Variant,
};
use vgpu_sim::fault::HwStructure;
use vgpu_sim::{FaultPattern, GpuConfig, SwFault, SwFaultKind, UarchFault};

/// The per-path statistics of a list of trials.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    trials: u32,
    simulated_cost: u64,
    ctas_replayed: u64,
    ctas_simulated: u64,
    resumed: u32,
    converged: u32,
    /// Completed trials under the CTA log that ran a launch whole: their
    /// host read a word the fault had made dirty.
    left_log: u32,
    sdcs: u32,
}

impl Tally {
    fn add(&mut self, r: &RunResult) {
        self.trials += 1;
        self.simulated_cost += r.simulated_cost;
        self.ctas_replayed += u64::from(r.ctas_replayed);
        self.ctas_simulated += u64::from(r.ctas_simulated);
        self.resumed += u32::from(r.resumed_at.is_some());
        self.converged += u32::from(r.converged);
        self.sdcs += u32::from(r.outcome == Outcome::Sdc);
    }
}

/// The first, a middle and the last launch of `golden`.
fn targets(golden: &GoldenRun) -> Vec<usize> {
    let n = golden.records.len();
    let mut t = vec![0, n / 2, n - 1];
    t.dedup();
    t
}

/// Every structure at four cycles of each of `targets`' launches.
fn sweep(golden: &GoldenRun) -> Vec<(usize, UarchFault)> {
    let mut faults = Vec::new();
    for target in targets(golden) {
        let cycles = golden.records[target].stats.cycles;
        for (si, structure) in HwStructure::ALL.into_iter().enumerate() {
            for (ci, cycle) in [0, cycles / 3, cycles * 2 / 3, cycles - 1]
                .into_iter()
                .enumerate()
            {
                let i = (si * 4 + ci) as u64;
                let fault = UarchFault {
                    cycle,
                    structure,
                    loc_pick: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1),
                    bit: (i * 7 % 32) as u8,
                    pattern: FaultPattern::SingleBit,
                };
                faults.push((target, fault));
            }
        }
    }
    faults
}

/// [`sweep`], plus register-file faults over the first launch, dense
/// enough that some corrupt a word the host carries to the output.
fn dense_sweep(golden: &GoldenRun) -> Vec<(usize, UarchFault)> {
    let k1 = &golden.records[0];
    let mut faults = sweep(golden);
    for cycle in (0..k1.stats.cycles).step_by(8) {
        for loc_pick in (0..32 * u64::from(k1.num_regs)).step_by(3) {
            let fault = UarchFault {
                cycle,
                structure: HwStructure::RegFile,
                loc_pick,
                bit: 3,
                pattern: FaultPattern::SingleBit,
            };
            faults.push((0, fault));
        }
    }
    faults
}

/// `faults` of `variant`'s golden run under its golden-prefix snapshots,
/// 4 per launch.
fn uarch_tally(
    bench: &dyn Benchmark,
    variant: Variant,
    faults: fn(&GoldenRun) -> Vec<(usize, UarchFault)>,
) -> Tally {
    let cfg = GpuConfig::volta_scaled(2);
    let golden = golden_run(bench, &cfg, variant);
    let sinks = Sinks {
        snapshots: Some(SnapshotSink::new(&golden, 4)),
        ..Sinks::default()
    };
    let snaps = Arc::new(golden_pass(bench, &cfg, variant, sinks).snapshots.unwrap());
    let mut tally = Tally::default();
    for (target, f) in faults(&golden) {
        let fault = PlannedFault::Uarch(f);
        let accel = Accel::Snapshots(&snaps);
        let r = faulty_run_with(bench, &cfg, variant, &golden, target, fault, accel);
        tally.add(&r);
    }
    tally
}

/// Four fault kinds at three points of each of `targets`' launches, under
/// the golden CTA log of the unhardened application.
fn sw_tally(bench: &dyn Benchmark) -> Tally {
    let cfg = GpuConfig::default();
    let variant = Variant::FUNCTIONAL;
    let golden = golden_run(bench, &cfg, variant);
    let sinks = Sinks {
        cta_log: Some(CtaLog::default()),
        ..Sinks::default()
    };
    let log = Arc::new(golden_pass(bench, &cfg, variant, sinks).cta_log.unwrap());
    let kinds = [
        SwFaultKind::DestValue,
        SwFaultKind::DestValueLoad,
        SwFaultKind::SrcTransient,
        SwFaultKind::ArchState,
    ];
    let mut tally = Tally::default();
    for target in targets(&golden) {
        for (ki, kind) in kinds.into_iter().enumerate() {
            let pop = kind.eligible(&golden.records[target].stats);
            for (fi, frac) in [0.1, 0.5, 0.9].into_iter().enumerate() {
                let bit = ((ki * 5 + fi * 13) % 32) as u8;
                let fault = PlannedFault::Sw(SwFault {
                    kind,
                    target: (pop.saturating_sub(1) as f64 * frac) as u64,
                    bit,
                    loc_pick: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(bit) + 1),
                    pattern: FaultPattern::ALL[(ki + fi) % FaultPattern::ALL.len()],
                });
                let accel = Accel::CtaLog(&log);
                let r = faulty_run_with(bench, &cfg, variant, &golden, target, fault, accel);
                tally.add(&r);
                let completed = matches!(r.outcome, Outcome::Masked | Outcome::Sdc);
                let ctas = (r.ctas_replayed + r.ctas_simulated) as usize;
                tally.left_log += u32::from(completed && ctas != log.ctas());
            }
        }
    }
    tally
}

#[test]
fn snapshot_trial_statistics_are_pinned() {
    let got = [
        ("VA", uarch_tally(&Va, Variant::TIMED, sweep)),
        ("BFS", uarch_tally(&Bfs, Variant::TIMED, sweep)),
        ("VA-TMR", uarch_tally(&Va, Variant::TIMED_TMR, sweep)),
        (
            "HostCarry",
            uarch_tally(&HostCarry, Variant::TIMED, dense_sweep),
        ),
        (
            "TmrProbe",
            uarch_tally(&TmrProbe::default(), Variant::TIMED_TMR, sweep),
        ),
    ];
    let want = [
        (
            "VA",
            Tally {
                trials: 20,
                simulated_cost: 19084,
                ctas_replayed: 0,
                ctas_simulated: 0,
                resumed: 20,
                converged: 20,
                left_log: 0,
                sdcs: 0,
            },
        ),
        (
            "BFS",
            Tally {
                trials: 60,
                simulated_cost: 33746,
                ctas_replayed: 0,
                ctas_simulated: 0,
                resumed: 60,
                converged: 59,
                left_log: 0,
                sdcs: 0,
            },
        ),
        (
            "VA-TMR",
            Tally {
                trials: 40,
                simulated_cost: 127872,
                ctas_replayed: 0,
                ctas_simulated: 0,
                resumed: 40,
                converged: 35,
                left_log: 0,
                sdcs: 0,
            },
        ),
        (
            "HostCarry",
            Tally {
                trials: 472,
                simulated_cost: 17031,
                ctas_replayed: 0,
                ctas_simulated: 0,
                resumed: 453,
                converged: 352,
                left_log: 0,
                sdcs: 101,
            },
        ),
        (
            "TmrProbe",
            Tally {
                trials: 60,
                simulated_cost: 13190,
                ctas_replayed: 0,
                ctas_simulated: 0,
                resumed: 60,
                converged: 60,
                left_log: 0,
                sdcs: 0,
            },
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn cta_log_trial_statistics_are_pinned() {
    let got = [
        ("BFS", sw_tally(&Bfs)),
        ("BackProp", sw_tally(&BackProp)),
        ("K-Means", sw_tally(&KMeans)),
        ("SRADv1", sw_tally(&SradV1)),
    ];
    let want = [
        (
            "BFS",
            Tally {
                trials: 36,
                simulated_cost: 1592335,
                ctas_replayed: 4796,
                ctas_simulated: 555,
                resumed: 0,
                converged: 15,
                left_log: 3,
                sdcs: 6,
            },
        ),
        (
            "BackProp",
            Tally {
                trials: 24,
                simulated_cost: 3118176,
                ctas_replayed: 2308,
                ctas_simulated: 25,
                resumed: 0,
                converged: 6,
                left_log: 5,
                sdcs: 9,
            },
        ),
        (
            "K-Means",
            Tally {
                trials: 36,
                simulated_cost: 7356318,
                ctas_replayed: 1395,
                ctas_simulated: 46,
                resumed: 0,
                converged: 21,
                left_log: 4,
                sdcs: 4,
            },
        ),
        (
            "SRADv1",
            Tally {
                trials: 36,
                simulated_cost: 16280588,
                ctas_replayed: 8274,
                ctas_simulated: 57,
                resumed: 0,
                converged: 7,
                left_log: 13,
                sdcs: 19,
            },
        ),
    ];
    assert_eq!(got, want);
}
