//! The coordinator's two ways of refusing a record, driven by the scripted
//! raw-socket peer ([`common::Conn`]):
//!
//! * two `trial` frames for one plan index that disagree on the outcome
//!   are fatal — `serve` returns the conflicting-duplicate error naming
//!   the index, whichever of the two arrives first;
//! * a `trial` frame whose index the plan does not have is dropped like a
//!   torn line — the campaign completes byte-identically — and counted in
//!   both `DispatchStats::torn_frames` and `dispatch_torn_frames_total`,
//!   so `/status` and `/metrics` agree.

mod common;

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::time::Duration;

use common::Conn;
use dispatch::{serve, CampaignSpec, DispatchCfg, DispatchError, Frame};
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
        lease: Duration::from_secs(10),
        wait_ms: 50,
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
