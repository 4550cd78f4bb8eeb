//! The dispatch differential proof: for both injectors (uarch and sw) on
//! two benchmarks, three executions of the same plan must agree down to
//! the per-structure counts and derating factors —
//!
//! 1. single-shot in-process execution,
//! 2. a local 3-shard run merged through a `RecordSet`,
//! 3. a coordinator + 3 worker daemons over TCP, where the FIRST worker
//!    is killed mid-campaign (socket torn down after a few trials) and
//!    its lease is reassigned to a healthy worker.
//!
//! "Agree" is byte-level for everything the campaign defines: record
//! fingerprints, per-trial (idx, outcome, ctrl), and the fully assembled
//! `StrataRecords` (whose `PartialEq` covers every stratum's outcomes
//! and the golden run the derating factors are computed from).

use std::net::TcpListener;
use std::time::Duration;

use dispatch::{serve, work, CampaignSpec, DispatchCfg, WorkerCfg};
use relia::checkpoint::TrialRecord;
use relia::plan::Layer;
use relia::{
    assemble_sw, assemble_uarch, execute_shard, execute_trials_with, records_fingerprint,
    EngineCfg, RecordSet, TrialTarget,
};
use vgpu_sim::{FaultPattern, HwStructure};

fn spec_for(app: &str, layer: Layer, fault_model: FaultPattern) -> CampaignSpec {
    CampaignSpec {
        app: app.to_string(),
        layer,
        // uarch: n × 5 structures per kernel; sw: n × 2 fault kinds.
        n: match layer {
            Layer::Uarch => 4,
            Layer::Sw => 8,
        },
        seed: 0xD15C_4A11_0000_0001,
        sms: 4,
        hardened: false,
        structures: None,
        fault_model,
        backend: relia::FastForward::Timed,
        wave: None,
    }
}

fn key(r: &TrialRecord) -> (usize, kernels::Outcome, bool) {
    (r.idx, r.outcome, r.ctrl)
}

fn differential(app: &str, layer: Layer) {
    differential_pattern(app, layer, FaultPattern::SingleBit);
}

fn differential_pattern(app: &str, layer: Layer, fault_model: FaultPattern) {
    differential_spec(spec_for(app, layer, fault_model));
}

fn differential_spec(spec: CampaignSpec) {
    let app = spec.app.clone();
    let layer = spec.layer;
    let bench = spec.find_bench().expect("benchmark exists");
    let prep = spec.prepare(bench.as_ref());
    assert!(
        prep.plan.len() >= 9,
        "plan too small to exercise 3 shards with a mid-shard kill"
    );

    // 1. Single-shot reference.
    let all: Vec<usize> = (0..prep.plan.len()).collect();
    let single = execute_trials_with(&prep, relia::FastForward::Timed, &all, |_| Ok(()))
        .expect("single-shot");

    // 2. Local 3-shard merge.
    let mut sharded = RecordSet::new(prep.plan.len());
    for i in 0..3 {
        let shard = execute_shard(&prep, &EngineCfg::sharded(3, i)).expect("shard");
        sharded
            .extend(&shard)
            .expect("no conflicts in a local merge");
    }
    let sharded = sharded.complete().expect("three shards cover the plan");
    assert_eq!(
        records_fingerprint(&sharded),
        records_fingerprint(&single),
        "{app}/{}: local 3-shard merge must equal single-shot",
        layer.label()
    );

    // 3. Coordinator + 3 workers; the first one dies mid-campaign.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    let cfg = DispatchCfg {
        shards: 3,
        lease: Duration::from_millis(300),
        out_dir: None,
    };
    let healthy = WorkerCfg::default();
    let outcome = std::thread::scope(|s| {
        let coordinator = s.spawn(|| serve(listener, &prep.plan, &spec, &cfg));
        // The doomed worker goes FIRST and alone, so it provably takes a
        // lease and dies holding it (2 < shard size, checked above).
        let doomed = work(
            &addr,
            &WorkerCfg {
                name: "doomed".into(),
                fail_after: Some(2),
            },
        )
        .expect("doomed worker session");
        assert!(doomed.died_early, "fail_after must kill the worker");
        assert_eq!(doomed.trials_executed, 2);
        assert_eq!(doomed.shards_completed, 0);
        let w1 = s.spawn(|| {
            work(
                &addr,
                &WorkerCfg {
                    name: "w1".into(),
                    ..healthy.clone()
                },
            )
        });
        let w2 = s.spawn(|| {
            work(
                &addr,
                &WorkerCfg {
                    name: "w2".into(),
                    ..healthy.clone()
                },
            )
        });
        let outcome = coordinator.join().unwrap().expect("serve");
        w1.join().unwrap().expect("w1");
        w2.join().unwrap().expect("w2");
        outcome
    });

    let label = format!("{app}/{}", layer.label());
    assert_eq!(
        records_fingerprint(&outcome.records),
        records_fingerprint(&single),
        "{label}: dispatch merge must equal single-shot"
    );
    assert_eq!(outcome.records.len(), single.len());
    for (d, s) in outcome.records.iter().zip(&single) {
        assert_eq!(key(d), key(s), "{label}: per-trial outcomes must match");
    }
    let stats = &outcome.stats;
    assert_eq!(stats.shards_completed, 3, "{label}");
    assert!(
        stats.leases_reassigned >= 1,
        "{label}: the doomed worker's lease must be reassigned, stats: {stats:?}"
    );
    assert!(stats.workers_joined >= 3, "{label}: {stats:?}");

    // Assembled results: equality covers per-kernel, per-structure
    // outcome counts, AVF/SVF rates, and derating factors.
    match layer {
        Layer::Uarch => {
            let a = assemble_uarch(&prep, &single).unwrap();
            let b = assemble_uarch(&prep, &outcome.records).unwrap();
            let c = assemble_uarch(&prep, &sharded).unwrap();
            for k in 0..a.kernels.len() {
                for h in HwStructure::ALL {
                    let t = TrialTarget::Structure(h);
                    assert_eq!(
                        (a.counts(k, t), a.ctrl_masked(k, t)),
                        (b.counts(k, t), b.ctrl_masked(k, t)),
                        "{label}: per-structure counts must match for {}",
                        h.label()
                    );
                    assert_eq!(
                        a.derating(k, h).to_bits(),
                        b.derating(k, h).to_bits(),
                        "{label}: derating factors must be bit-identical for {}",
                        h.label()
                    );
                }
            }
            assert_eq!(a, b, "{label}: assembled dispatch result");
            assert_eq!(a, c, "{label}: assembled local-merge result");
        }
        Layer::Sw => {
            let a = assemble_sw(&prep, &single).unwrap();
            let b = assemble_sw(&prep, &outcome.records).unwrap();
            let c = assemble_sw(&prep, &sharded).unwrap();
            assert_eq!(a, b, "{label}: assembled dispatch result");
            assert_eq!(a, c, "{label}: assembled local-merge result");
        }
    }
}

#[test]
fn va_uarch_dispatch_equals_single_shot() {
    differential("VA", Layer::Uarch);
}

#[test]
fn va_sw_dispatch_equals_single_shot() {
    differential("VA", Layer::Sw);
}

#[test]
fn scp_uarch_dispatch_equals_single_shot() {
    differential("SCP", Layer::Uarch);
}

#[test]
fn scp_sw_dispatch_equals_single_shot() {
    differential("SCP", Layer::Sw);
}

// The non-default patterns must survive the same three-way differential:
// the pattern rides in the job frame, lands in the plan fingerprint, and
// every re-execution after a lease reassignment applies the same
// multi-bit footprint or re-asserted stuck cell.

// The adaptive differential: a CI-driven campaign whose every wave is
// farmed out to a coordinator + workers (with the first worker of wave 0
// killed mid-stream) must reproduce the single-shot adaptive run bit for
// bit — wave plans, record fingerprints, per-stratum intervals, and the
// convergence trajectory. The wave rides in the job frame; each worker
// re-expands the wave plan from (kernel, target, start, count) strata and
// proves it via the wave-tagged plan fingerprint.
#[test]
fn va_uarch_adaptive_dispatch_equals_single_shot() {
    use dispatch::WaveSpec;
    use stat::{run_adaptive, run_adaptive_single, uarch_targets, AdaptiveCfg};

    let base = spec_for("VA", Layer::Uarch, FaultPattern::SingleBit);
    let bench = base.find_bench().expect("benchmark exists");
    let cfg = base.campaign_cfg();
    let acfg = AdaptiveCfg::new(0.15, 6, 24);

    let single = run_adaptive_single(
        bench.as_ref(),
        &cfg,
        false,
        Layer::Uarch,
        &uarch_targets(),
        &acfg,
    )
    .expect("single-shot adaptive");
    assert!(single.waves >= 2, "config must produce a multi-wave run");

    let dcfg = DispatchCfg {
        shards: 3,
        lease: Duration::from_millis(300),
        out_dir: None,
    };
    let healthy = WorkerCfg::default();
    let dispatched = run_adaptive(
        bench.as_ref(),
        &cfg,
        false,
        Layer::Uarch,
        &uarch_targets(),
        &acfg,
        |prep, wave| {
            let spec = CampaignSpec {
                wave: Some(WaveSpec {
                    wave,
                    strata: prep.plan.strata.clone(),
                }),
                ..base.clone()
            };
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
            let outcome = std::thread::scope(|s| {
                let coordinator = s.spawn(|| serve(listener, &prep.plan, &spec, &dcfg));
                if wave == 0 {
                    // Kill the first worker of the first wave while it
                    // holds a lease; its shard must be reassigned.
                    let doomed = work(
                        &addr,
                        &WorkerCfg {
                            name: "doomed".into(),
                            fail_after: Some(2),
                        },
                    )
                    .expect("doomed worker session");
                    assert!(doomed.died_early, "fail_after must kill the worker");
                }
                let workers: Vec<_> = ["w1", "w2"]
                    .iter()
                    .map(|name| {
                        let healthy = healthy.clone();
                        let addr = addr.clone();
                        s.spawn(move || {
                            work(
                                &addr,
                                &WorkerCfg {
                                    name: name.to_string(),
                                    ..healthy
                                },
                            )
                        })
                    })
                    .collect();
                let outcome = coordinator.join().unwrap().expect("serve wave");
                for w in workers {
                    w.join().unwrap().expect("worker session");
                }
                outcome
            });
            Ok(outcome.records)
        },
    )
    .expect("dispatched adaptive");

    assert_eq!(single, dispatched, "adaptive dispatch differential");
    assert_eq!(single.records_fp, dispatched.records_fp);
    assert_eq!(single.plans_fp, dispatched.plans_fp);
}

// A wave plan keeps the strata it was expanded from — a worker that
// re-derives the plan from the job frame they ride in lands on the same
// fingerprint the coordinator computed.
fn wave_strata_round_trip(strata: Vec<relia::plan::StratumSpec>) {
    use dispatch::{parse_frame, Frame, WaveSpec};
    use relia::plan::plan_wave;
    use relia::AppCaptures;

    let base = spec_for("VA", Layer::Uarch, FaultPattern::SingleBit);
    let bench = base.find_bench().expect("benchmark exists");
    let cfg = base.campaign_cfg();
    let captures = AppCaptures::new(bench.as_ref(), &cfg.gpu, Layer::Uarch, false);
    let prep = plan_wave(&captures, &cfg, &strata, 5);
    assert_eq!(prep.plan.strata, strata);
    let job = Frame::Job {
        spec: CampaignSpec {
            wave: Some(WaveSpec {
                wave: 5,
                strata: prep.plan.strata.clone(),
            }),
            ..base
        },
        shards: 2,
        fingerprint: prep.plan.fingerprint(),
    };
    let Some(Frame::Job { spec, .. }) = parse_frame(&job.to_json()) else {
        panic!("job frame must parse: {}", job.to_json());
    };
    let reprep = spec.prepare(bench.as_ref());
    assert_eq!(reprep.plan.strata, strata);
    assert_eq!(reprep.plan.fingerprint(), prep.plan.fingerprint());
    assert_eq!(reprep.plan.trials, prep.plan.trials);
}

fn stratum(h: HwStructure, start: usize, count: usize) -> relia::plan::StratumSpec {
    relia::plan::StratumSpec {
        kernel_idx: 0,
        target: relia::plan::TrialTarget::Structure(h),
        start,
        count,
    }
}

#[test]
fn wave_plan_strata_round_trip_through_job_spec() {
    wave_strata_round_trip(vec![
        stratum(HwStructure::RegFile, 4, 6),
        stratum(HwStructure::L2, 0, 3),
    ]);
}

// What the trial list alone could not express: a stratum with no trials,
// and the same (kernel, target) in two strata.
#[test]
fn zero_count_and_repeated_strata_round_trip_through_job_spec() {
    wave_strata_round_trip(vec![
        stratum(HwStructure::RegFile, 4, 6),
        stratum(HwStructure::Smem, 2, 0),
        stratum(HwStructure::RegFile, 20, 3),
    ]);
}

#[test]
fn va_uarch_replay_backend_dispatch_equals_single_shot() {
    // The workers run the replay backend (the spec field rides the job
    // frame); the single-shot reference stays timed, so this is the
    // cross-backend, cross-process equality the backend axis promises.
    differential_spec(CampaignSpec {
        backend: relia::FastForward::Replay,
        ..spec_for("VA", Layer::Uarch, FaultPattern::SingleBit)
    });
}

#[test]
fn va_uarch_double_adjacent_dispatch_equals_single_shot() {
    differential_pattern("VA", Layer::Uarch, FaultPattern::DoubleAdjacent);
}

#[test]
fn va_uarch_stuck_at_0_dispatch_equals_single_shot() {
    differential_pattern("VA", Layer::Uarch, FaultPattern::StuckAt0);
}

#[test]
fn va_sw_whole_entry_dispatch_equals_single_shot() {
    differential_pattern("VA", Layer::Sw, FaultPattern::WholeEntry);
}

#[test]
fn va_sw_stuck_at_1_dispatch_equals_single_shot() {
    differential_pattern("VA", Layer::Sw, FaultPattern::StuckAt1);
}
