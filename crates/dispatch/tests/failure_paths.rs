//! The failure paths of both ends, driven by the scripted raw-socket peer
//! ([`common::Conn`]). The coordinator's two ways of refusing a record:
//!
//! * two `trial` frames for one plan index that disagree on the outcome
//!   are fatal — `serve` returns the conflicting-duplicate error naming
//!   the index, whichever of the two arrives first;
//! * a `trial` frame whose index the plan does not have is dropped like a
//!   torn line — the campaign completes byte-identically — and counted in
//!   both `DispatchStats::torn_frames` and `dispatch_torn_frames_total`,
//!   so `serve`'s exit line and its exit metrics table agree.
//!
//! And, with one connection serving every plan of a campaign, a failure in
//! a plan after the first:
//!
//! * a worker whose re-planned fingerprint disagrees with a later `job`
//!   frame, or that is sent a frame it may not receive while idle, returns
//!   an `Err` from `work` — not a summary of the plans that went well;
//! * a coordinator whose worker answers a later `job` with the wrong
//!   `ready` drops that connection and finishes the plan with the others.

mod common;

use std::net::TcpListener;
use std::sync::atomic::Ordering;

use common::Conn;
use dispatch::proto::PROTO_VERSION;
use dispatch::{
    parse_strata, serve, serve_with, work, CampaignSpec, DispatchCfg, DispatchError, Frame,
    WaveSpec, WorkerCfg,
};
use kernels::Outcome;
use relia::checkpoint::TrialRecord;
use relia::plan::Layer;
use relia::{execute_trials, records_fingerprint, EngineError};

fn spec() -> CampaignSpec {
    CampaignSpec {
        app: "VA".into(),
        layer: Layer::Uarch,
        n: 2,
        seed: 0xFA11_0000_0000_0003,
        sms: 4,
        hardened: false,
        structures: None,
        fault_model: vgpu_sim::FaultPattern::SingleBit,
        backend: relia::EngineBackend::Timed,
        wave: None,
    }
}

fn cfg() -> DispatchCfg {
    DispatchCfg {
        shards: 1,
        ..DispatchCfg::default()
    }
}

#[test]
fn conflicting_duplicate_is_fatal_in_either_arrival_order() {
    let spec = spec();
    let bench = spec.find_bench().unwrap();
    let prep = spec.prepare(bench.as_ref());
    let honest = TrialRecord {
        idx: 3,
        outcome: Outcome::Masked,
        ctrl: false,
        wall_us: 1,
    };
    let evil = TrialRecord {
        outcome: Outcome::Sdc,
        ..honest
    };
    for pair in [[honest, evil], [evil, honest]] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
        let cfg = cfg();
        let err = std::thread::scope(|s| {
            let coordinator = s.spawn(|| serve(listener, &prep.plan, &spec, &cfg));
            let mut conn = Conn::connect(&addr);
            conn.handshake("liar");
            conn.await_lease();
            for r in pair {
                conn.send(&Frame::Trial(r));
            }
            assert!(conn.closed(), "the coordinator hangs up on the conflict");
            coordinator.join().unwrap().expect_err("conflict is fatal")
        });
        assert!(
            matches!(
                err,
                DispatchError::Engine(EngineError::ConflictingDuplicate { idx: 3 })
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("trial 3"), "{err}");
    }
}

#[test]
fn out_of_plan_index_is_dropped_and_counted_like_a_torn_line() {
    // The only test of this binary that tears anything, so the global
    // counter is its own.
    obs::set_enabled(true);
    let spec = spec();
    let bench = spec.find_bench().unwrap();
    let prep = spec.prepare(bench.as_ref());
    let all: Vec<usize> = (0..prep.plan.len()).collect();
    let records = execute_trials(&prep, &all, |_| Ok(())).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    let cfg = cfg();

    let outcome = std::thread::scope(|s| {
        let coordinator = s.spawn(|| serve(listener, &prep.plan, &spec, &cfg));
        let mut conn = Conn::connect(&addr);
        conn.handshake("stray");
        conn.await_lease();
        for idx in [prep.plan.len(), usize::MAX] {
            conn.send(&Frame::Trial(TrialRecord { idx, ..records[0] }));
        }
        for r in &records {
            conn.send(&Frame::Trial(*r));
        }
        conn.send(&Frame::ShardDone { shard: 0 });
        assert!(matches!(conn.recv(), Frame::Ack { shard: 0 }));
        assert!(matches!(conn.recv(), Frame::Shutdown));
        drop(conn);
        coordinator.join().unwrap().expect("serve")
    });

    assert_eq!(
        records_fingerprint(&outcome.records),
        records_fingerprint(&records),
        "stray indices must not change a result bit"
    );
    assert_eq!(outcome.records.len(), prep.plan.len());
    let stats = &outcome.stats;
    assert_eq!(stats.torn_frames, 2, "{stats:?}");
    assert_eq!(stats.duplicate_records, 0, "{stats:?}");
    assert_eq!(stats.resend_requests, 0, "{stats:?}");
    let metric = obs::global().counter("dispatch_torn_frames_total", &[]);
    assert_eq!(metric.load(Ordering::Relaxed), stats.torn_frames);
}

/// Two consecutive waves of one adaptive campaign (3 + 3 trials each).
fn wave(wave: u64) -> CampaignSpec {
    let strata = format!("0:RF:{0}:3;0:L2:{0}:3", 3 * wave);
    CampaignSpec {
        wave: Some(WaveSpec {
            wave,
            strata: parse_strata(&strata, Layer::Uarch).unwrap(),
        }),
        ..spec()
    }
}

#[test]
fn a_worker_failure_in_a_later_plan_is_an_error() {
    let bench = spec().find_bench().unwrap();
    let fp = |spec: &CampaignSpec| spec.prepare(bench.as_ref()).plan.fingerprint();
    let (fp0, fp1) = (fp(&wave(0)), fp(&wave(1)));
    let second_frames = [
        Frame::Job {
            spec: wave(1),
            shards: 1,
            fingerprint: fp1 ^ 1,
        },
        Frame::Ack { shard: 0 },
    ];
    for second in second_frames {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
        let err = std::thread::scope(|s| {
            let worker = s.spawn(|| work(&addr, &WorkerCfg::default()));
            let mut coordinator = Conn::accept(&listener);
            assert!(matches!(
                coordinator.recv(),
                Frame::Hello { proto, .. } if proto == PROTO_VERSION
            ));
            // The first plan goes well ...
            coordinator.send(&Frame::Job {
                spec: wave(0),
                shards: 1,
                fingerprint: fp0,
            });
            assert_eq!(coordinator.recv(), Frame::Ready { fingerprint: fp0 });
            // ... the second frame does not.
            coordinator.send(&second);
            worker.join().unwrap().expect_err("not a summary")
        });
        match second {
            Frame::Job { .. } => assert!(
                matches!(
                    err,
                    DispatchError::FingerprintMismatch { ours, theirs }
                        if ours == fp1 && theirs == fp1 ^ 1
                ),
                "{err:?}"
            ),
            _ => assert!(matches!(err, DispatchError::Protocol(_)), "{err:?}"),
        }
    }
}

#[test]
fn a_wrong_ready_in_a_later_plan_drops_that_connection_only() {
    let bench = spec().find_bench().unwrap();
    let preps = [wave(0), wave(1)].map(|spec| (spec.prepare(bench.as_ref()), spec));
    let reference: Vec<Vec<TrialRecord>> = (preps.iter())
        .map(|(prep, _)| {
            let all: Vec<usize> = (0..prep.plan.len()).collect();
            execute_trials(prep, &all, |_| Ok(())).unwrap()
        })
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    let cfg = cfg();

    let (served, stats) = std::thread::scope(|s| {
        let coordinator = s.spawn(|| {
            serve_with(listener, &cfg, |coord| {
                preps
                    .iter()
                    .map(|(prep, spec)| coord.run(&prep.plan, spec))
                    .collect::<Result<Vec<_>, _>>()
            })
        });
        // Alone on the first plan, the scripted peer serves all of it.
        let mut conn = Conn::connect(&addr);
        let (job, _, _) = conn.handshake("turncoat");
        assert_eq!(job, wave(0));
        conn.await_lease();
        for r in &reference[0] {
            conn.send(&Frame::Trial(*r));
        }
        conn.send(&Frame::ShardDone { shard: 0 });
        assert!(matches!(conn.recv(), Frame::Ack { shard: 0 }));
        // The second plan arrives on the same connection; its `ready`
        // carries a fingerprint the coordinator did not send.
        let (job, _, fingerprint) = conn.await_job();
        assert_eq!(job, wave(1));
        assert_eq!(fingerprint, preps[1].0.plan.fingerprint());
        conn.send(&Frame::Ready {
            fingerprint: fingerprint ^ 1,
        });
        assert!(conn.closed(), "a wrong ready is hung up on");
        // The plan is still there for an honest worker to finish.
        let honest = work(&addr, &WorkerCfg::default()).expect("honest worker");
        assert_eq!(honest.trials_executed, preps[1].0.plan.len());
        coordinator.join().unwrap().expect("coordinator")
    });

    let served = served.expect("both plans served");
    for (got, want) in served.iter().zip(&reference) {
        assert_eq!(records_fingerprint(got), records_fingerprint(want));
    }
    assert_eq!(stats.workers_joined, 2, "{stats:?}");
    assert_eq!(stats.shards_completed, 2, "{stats:?}");
}
