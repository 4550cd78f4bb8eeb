//! CTA replay must be an *optimization*, never a model change: every
//! classification artifact of a software-level faulty run under
//! [`Accel::CtaLog`] (outcome, architectural cost, applied flag,
//! corrupted-word count) must be bit-identical to the whole-application
//! simulation of [`faulty_run`], for every fault kind and pattern, on
//! every benchmark — including the ones whose host glue reads words the
//! fault corrupted, and TMR-hardened variants, whose votes are launches
//! like any other.

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use common::TmrProbe;
use kernels::apps::{bfs::Bfs, kmeans::KMeans, sradv2::SradV2, va::Va};
use kernels::{
    all_benchmarks, faulty_run, faulty_run_with, golden_pass, golden_run, Accel, Benchmark, CtaLog,
    GoldenRun, Outcome, PlannedFault, RunResult, Sinks, Variant,
};
use proptest::prelude::*;
use vgpu_arch::InstrClass;
use vgpu_sim::{FaultPattern, GpuConfig, SwFault, SwFaultKind};

const KINDS: [SwFaultKind; 7] = [
    SwFaultKind::DestValue,
    SwFaultKind::DestValueLoad,
    SwFaultKind::SrcTransient,
    SwFaultKind::SrcPersistent,
    SwFaultKind::ArchState,
    SwFaultKind::DestClass(InstrClass::IntAlu),
    SwFaultKind::DestClass(InstrClass::Ld),
];

struct Rig<'a> {
    bench: &'a dyn Benchmark,
    variant: Variant,
    cfg: GpuConfig,
    golden: GoldenRun,
    log: Arc<CtaLog>,
}

impl<'a> Rig<'a> {
    /// The unhardened application.
    fn new(bench: &'a dyn Benchmark) -> Self {
        Rig::of(bench, Variant::FUNCTIONAL)
    }

    fn of(bench: &'a dyn Benchmark, variant: Variant) -> Self {
        let cfg = GpuConfig::default();
        let golden = golden_run(bench, &cfg, variant);
        let sinks = Sinks {
            reference: Some(&golden),
            cta_log: Some(CtaLog::default()),
            ..Sinks::default()
        };
        let log = Arc::new(golden_pass(bench, &cfg, variant, sinks).cta_log.unwrap());
        assert_eq!(log.launches(), golden.records.len());
        assert_eq!(
            log.ctas() as u64,
            golden.records.iter().map(|r| r.ctas).sum::<u64>()
        );
        Rig {
            bench,
            variant,
            cfg,
            golden,
            log,
        }
    }

    fn replay(&self, launch: usize, fault: SwFault) -> RunResult {
        faulty_run_with(
            self.bench,
            &self.cfg,
            self.variant,
            &self.golden,
            launch,
            PlannedFault::Sw(fault),
            Accel::CtaLog(&self.log),
        )
    }

    /// Run one fault both ways and hold the replay to the oracle.
    fn check(&self, launch: usize, fault: SwFault) -> (RunResult, RunResult) {
        let slow = faulty_run(
            self.bench,
            &self.cfg,
            self.variant,
            &self.golden,
            launch,
            PlannedFault::Sw(fault),
        );
        let fast = self.replay(launch, fault);
        let tag = format!("{} launch {launch} {fault:?}", self.bench.name());
        assert_eq!(fast.outcome, slow.outcome, "{tag}");
        assert_eq!(fast.total_cost, slow.total_cost, "{tag}");
        assert_eq!(fast.applied, slow.applied, "{tag}");
        assert_eq!(fast.corrupted_words, slow.corrupted_words, "{tag}");
        assert_eq!(slow.simulated_cost, slow.total_cost, "{tag}");
        assert!(fast.simulated_cost <= fast.total_cost, "{tag}");
        assert_eq!((slow.ctas_replayed, slow.ctas_simulated), (0, 0), "{tag}");
        (slow, fast)
    }

    /// A fault at `frac` of the way through `launch`'s eligible population.
    fn fault_at(&self, launch: usize, kind: SwFaultKind, frac: f64, bit: u8) -> Option<SwFault> {
        let pop = kind.eligible(&self.golden.records[launch].stats);
        (pop > 0).then(|| SwFault {
            kind,
            target: ((pop - 1) as f64 * frac) as u64,
            bit,
            loc_pick: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(bit as u64 + 1),
            pattern: FaultPattern::SingleBit,
        })
    }
}

#[test]
fn zero_fault_replay_reproduces_golden_without_simulating() {
    // A fault aimed past the last launch never fires: every CTA of every
    // launch replays from the log, and the output is the golden output.
    for b in all_benchmarks() {
        let rig = Rig::new(b.as_ref());
        let fault = rig.fault_at(0, SwFaultKind::ArchState, 0.5, 3).unwrap();
        let r = rig.replay(usize::MAX, fault);
        let tag = b.name();
        assert_eq!(r.outcome, Outcome::Masked, "{tag}");
        assert_eq!(r.corrupted_words, 0, "{tag}");
        assert_eq!(r.total_cost, rig.golden.total_cost, "{tag}");
        assert_eq!(r.simulated_cost, 0, "{tag}");
        assert_eq!(r.ctas_simulated, 0, "{tag}");
        assert_eq!(r.ctas_replayed as usize, rig.log.ctas(), "{tag}");
        assert!(r.converged && !r.applied, "{tag}");
    }
}

#[test]
fn every_kind_and_pattern_matches_the_oracle_on_every_benchmark() {
    // First, middle and last launch × first, middle and last eligible
    // instruction: the fault CTA is the first, an inner and the last CTA
    // of its launch, with a golden prefix of zero, some and all-but-one
    // launches.
    let mut simulated = 0u64;
    let mut total = 0u64;
    let benches = all_benchmarks();
    let unhardened = benches.iter().map(|b| Rig::new(b.as_ref()));
    // One hardened application: BFS-TMR, a vote after each of its launches.
    for rig in unhardened.chain([Rig::of(&Bfs, Variant::FUNCTIONAL_TMR)]) {
        let n = rig.golden.records.len();
        let mut launches = vec![0, n / 2, n - 1];
        launches.dedup();
        for (li, &launch) in launches.iter().enumerate() {
            for (ki, kind) in KINDS.into_iter().enumerate() {
                for (fi, frac) in [0.0, 0.47, 1.0].into_iter().enumerate() {
                    let bit = ((li * 11 + ki * 5 + fi * 13) % 32) as u8;
                    let Some(mut fault) = rig.fault_at(launch, kind, frac, bit) else {
                        continue;
                    };
                    fault.pattern = FaultPattern::ALL[(li + ki + fi) % FaultPattern::ALL.len()];
                    let (slow, fast) = rig.check(launch, fault);
                    simulated += fast.simulated_cost;
                    total += slow.simulated_cost;
                }
            }
        }
    }
    assert!(
        simulated * 2 < total,
        "CTA replay simulated {simulated} of {total} instructions — inert"
    );
}

/// Sweep faults over `launch` and count the trials whose host glue read a
/// word the fault had corrupted: the replay must notice, stop consulting
/// the log, and still agree with the oracle. A completed run that
/// accounts for fewer (or more) CTAs than the log holds ran some launch
/// whole, outside the log.
fn host_divergence_trials(
    bench: &dyn Benchmark,
    launch: usize,
    kind: SwFaultKind,
    pattern: FaultPattern,
) -> usize {
    let rig = Rig::new(bench);
    let mut abandoned = 0;
    for i in 0..24u8 {
        let Some(mut fault) = rig.fault_at(launch, kind, i as f64 / 24.0, (i * 7) % 32) else {
            continue;
        };
        fault.pattern = pattern;
        let (slow, fast) = rig.check(launch, fault);
        let completed = matches!(slow.outcome, Outcome::Masked | Outcome::Sdc);
        if completed && (fast.ctas_replayed + fast.ctas_simulated) as usize != rig.log.ctas() {
            assert!(!fast.converged, "{fault:?}");
            abandoned += 1;
        }
    }
    abandoned
}

#[test]
fn bfs_host_glue_reading_a_dirty_word_falls_back_to_full_simulation() {
    // K2 raises `over`, which the host reads to decide whether to launch
    // another level; a corrupted frontier changes it.
    let n = host_divergence_trials(&Bfs, 2, SwFaultKind::DestValue, FaultPattern::SingleBit)
        + host_divergence_trials(
            &Bfs,
            3,
            SwFaultKind::DestValueLoad,
            FaultPattern::WholeEntry,
        );
    assert!(n > 0, "no BFS trial dirtied a host-read word");
}

#[test]
fn kmeans_host_glue_reading_a_dirty_word_falls_back_to_full_simulation() {
    // The host recomputes the centroids from `membership` between
    // launches; a corrupted membership word reaches every later launch.
    let n = host_divergence_trials(&KMeans, 1, SwFaultKind::DestValue, FaultPattern::WholeEntry)
        + host_divergence_trials(&KMeans, 1, SwFaultKind::ArchState, FaultPattern::StuckAt1);
    assert!(n > 0, "no K-Means trial dirtied a host-read word");
}

#[test]
fn hardened_host_steps_replay_exactly() {
    // `TmrProbe` (tests/common). A fault in K1 that changes what copy 1 or
    // 2 stores makes the vote fail: a DUE on both paths. A fault in the
    // vote that follows can corrupt all three copies alike; the host then
    // rewrites every copy of the buffer, so nothing stays dirty and no
    // later CTA simulates.
    let probe = TmrProbe::default();
    let rig = Rig::of(&probe, Variant::FUNCTIONAL_TMR);
    assert_eq!(rig.golden.records.len(), 4, "K1, vote, K2, vote");
    probe.vote_failures.store(0, Ordering::Relaxed);
    let mut cleaned = 0;
    for launch in 0..2 {
        let pop = SwFaultKind::DestValue.eligible(&rig.golden.records[launch].stats);
        for target in 0..pop {
            let fault = SwFault {
                kind: SwFaultKind::DestValue,
                target,
                bit: 7,
                loc_pick: target,
                pattern: FaultPattern::SingleBit,
            };
            let (slow, fast) = rig.check(launch, fault);
            if matches!(slow.outcome, Outcome::Masked | Outcome::Sdc) {
                assert_eq!(fast.ctas_simulated, 1, "launch {launch} {fault:?}");
                assert!(fast.converged, "launch {launch} {fault:?}");
                cleaned += 1;
            }
        }
    }
    let failed = probe.vote_failures.load(Ordering::Relaxed);
    assert!(failed > 0, "no fault made the vote fail");
    assert_eq!(failed % 2, 0, "a vote failed on one path only");
    assert!(cleaned > 0, "every trial aborted");
}

#[test]
fn stuck_at_faults_stay_confined_to_their_cta() {
    // A stuck register cell is re-forced after every instruction of its
    // warp — and only of its warp, whose `seq` the per-CTA step must
    // reproduce for an inner CTA exactly as a whole-launch run numbers it.
    let rig = Rig::new(&Va);
    for pattern in [FaultPattern::StuckAt0, FaultPattern::StuckAt1] {
        for kind in [SwFaultKind::DestValue, SwFaultKind::ArchState] {
            for frac in [0.1, 0.5, 0.9] {
                let mut fault = rig.fault_at(0, kind, frac, 4).unwrap();
                fault.pattern = pattern;
                let (_, fast) = rig.check(0, fault);
                assert_eq!(fast.ctas_simulated, 1, "{fault:?}");
            }
        }
    }
}

#[test]
fn instruction_budget_one_under_golden_cost_times_out_on_both_paths() {
    // With `timeout_factor` 1 the whole-application instruction budget is
    // the golden cost itself; one under it, a run that executes exactly
    // the golden instruction stream must time out — on the oracle at the
    // last warp slice, under replay at the budget check that follows the
    // last replayed CTA.
    let bench = SradV2;
    let mut rig = Rig::new(&bench);
    assert!(
        rig.golden.total_cost > 1 << 20,
        "budget floor would hide the edge"
    );
    rig.cfg.timeout_factor = 1;
    let never = rig.fault_at(0, SwFaultKind::DestValue, 0.5, 0).unwrap();
    // A fault that fires but leaves the instruction stream alone: the
    // trial costs exactly the golden cost with one CTA simulated.
    let masked = (0..64)
        .filter_map(|i| rig.fault_at(1, SwFaultKind::DestValue, i as f64 / 64.0, 0))
        .find(|&f| {
            let r = rig.replay(1, f);
            r.outcome == Outcome::Masked && r.applied && r.total_cost == rig.golden.total_cost
        })
        .expect("some low-bit fault is masked");
    for (launch, fault) in [(usize::MAX, never), (1, masked)] {
        let (slow, fast) = rig.check(launch, fault);
        assert_eq!(slow.outcome, Outcome::Masked, "{fault:?}");
        assert_eq!(fast.total_cost, rig.golden.total_cost);
    }
    rig.golden.total_cost -= 1;
    for (launch, fault) in [(usize::MAX, never), (1, masked)] {
        let (slow, fast) = rig.check(launch, fault);
        assert_eq!(slow.outcome, Outcome::Timeout, "{fault:?}");
        assert!(fast.simulated_cost < slow.simulated_cost);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary (benchmark, variant, launch, target, bit, kind, pattern) —
    /// targets past the eligible population (a fault that never fires)
    /// included.
    #[test]
    fn replay_matches_the_oracle_at_arbitrary_faults(
        bench_idx in 0usize..11,
        hardened in any::<bool>(),
        launch_pick in 0u64..u64::MAX,
        target_pick in 0u64..u64::MAX,
        bit in 0u8..32,
        kind_idx in 0usize..KINDS.len(),
        pattern_idx in 0usize..FaultPattern::ALL.len(),
        loc_pick in 0u64..u64::MAX,
    ) {
        let benches = all_benchmarks();
        let variant = Variant { hardened, ..Variant::FUNCTIONAL };
        let rig = Rig::of(benches[bench_idx].as_ref(), variant);
        let launch = (launch_pick % rig.golden.records.len() as u64) as usize;
        let kind = KINDS[kind_idx];
        let pop = kind.eligible(&rig.golden.records[launch].stats);
        let fault = SwFault {
            kind,
            // One target in sixteen lands beyond the population.
            target: target_pick % (pop + pop / 16 + 1),
            bit,
            loc_pick,
            pattern: FaultPattern::ALL[pattern_idx],
        };
        rig.check(launch, fault);
    }
}
