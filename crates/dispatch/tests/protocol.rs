//! Wire-level fault-tolerance tests, driven by a hand-rolled fake worker
//! ([`common::Conn`]) speaking raw frames over a real socket so every byte
//! is under test control:
//!
//! * a torn (truncated mid-line) trial record is dropped, the connection
//!   stays consistent, and the coordinator re-requests exactly the
//!   missing trial at `shard_done` time;
//! * two workers racing on a reassigned lease submit the same records
//!   twice — the merge dedupes and the assembled result still equals the
//!   single-shot run;
//! * a `job` frame may only reach a worker that holds no lease — the real
//!   worker, handed one while it awaits an `ack`, gives up with a protocol
//!   error;
//! * no proper prefix of any frame parses as a (different) frame — the
//!   wire-side mirror of `crates/core/tests/proptest_plan.rs`'s
//!   torn-final-line recovery property.

mod common;

use std::net::TcpListener;
use std::time::Duration;

use common::Conn;
use dispatch::proto::PROTO_VERSION;
use dispatch::{
    parse_frame, serve, work, CampaignSpec, DispatchCfg, DispatchError, Frame, WorkerCfg,
};
use proptest::prelude::*;
use relia::checkpoint::TrialRecord;
use relia::plan::Layer;
use relia::{execute_trials, records_fingerprint};
use vgpu_sim::HwStructure;

fn spec() -> CampaignSpec {
    CampaignSpec {
        app: "VA".into(),
        layer: Layer::Uarch,
        n: 2,
        seed: 0x70BD_0000_0000_0002,
        sms: 4,
        hardened: false,
        structures: None,
        fault_model: vgpu_sim::FaultPattern::SingleBit,
        backend: relia::EngineBackend::Timed,
        wave: None,
    }
}

fn run_all(spec: &CampaignSpec) -> Vec<TrialRecord> {
    let bench = spec.find_bench().unwrap();
    let prep = spec.prepare(bench.as_ref());
    let all: Vec<usize> = (0..prep.plan.len()).collect();
    execute_trials(&prep, &all, |_| Ok(())).unwrap()
}

#[test]
fn torn_trial_record_is_dropped_and_resent() {
    let spec = spec();
    let bench = spec.find_bench().unwrap();
    let prep = spec.prepare(bench.as_ref());
    let records = run_all(&spec);
    let cfg = DispatchCfg {
        shards: 1,
        lease: Duration::from_secs(10),
        wait_ms: 50,
        ..DispatchCfg::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());

    let outcome = std::thread::scope(|s| {
        let coordinator = s.spawn(|| serve(listener, &prep.plan, &spec, &cfg));
        // An older peer is refused at hello, never handed a job it would
        // half-understand — or, speaking version 2, a second job it would
        // take for a protocol violation.
        for proto in [1, 2] {
            let mut old = Conn::connect(&addr);
            old.send_line(&format!(
                "{{\"frame\":\"hello\",\"worker\":\"old\",\"proto\":{proto},\"telemetry\":\"\"}}"
            ));
            assert!(old.closed(), "proto-{proto} hello must be refused");
        }
        let mut conn = Conn::connect(&addr);
        let (jspec, shards, _) = conn.handshake("torn");
        assert_eq!(jspec, spec, "job frame must round-trip the spec");
        assert_eq!(shards, 1);
        let (shard, done) = conn.await_lease();
        assert_eq!((shard, done.as_slice()), (0, &[][..]));

        // Stream the shard, but tear one record in half mid-line — the
        // wire equivalent of a connection dying mid-write.
        let victim = records[records.len() / 2].idx;
        for r in &records {
            let line = Frame::Trial(r.clone()).to_json();
            if r.idx == victim {
                conn.send_line(&line[..line.len() / 2]);
            } else {
                conn.send_line(&line);
            }
        }
        conn.send(&Frame::ShardDone { shard: 0 });
        // The coordinator noticed the hole and asks for exactly it.
        let Frame::Resend { shard: 0, missing } = conn.recv() else {
            panic!("expected resend for the torn record");
        };
        assert_eq!(missing, vec![victim], "exactly the torn trial re-requested");
        let line = Frame::Trial(records.iter().find(|r| r.idx == victim).unwrap().clone());
        conn.send(&line);
        conn.send(&Frame::ShardDone { shard: 0 });
        assert!(matches!(conn.recv(), Frame::Ack { shard: 0 }));
        assert!(matches!(conn.recv(), Frame::Shutdown));
        drop(conn);
        coordinator.join().unwrap().expect("serve")
    });

    assert_eq!(
        records_fingerprint(&outcome.records),
        records_fingerprint(&records),
        "torn + resent merge must equal single-shot"
    );
    assert!(outcome.stats.torn_frames >= 1, "{:?}", outcome.stats);
    assert_eq!(outcome.stats.resend_requests, 1, "{:?}", outcome.stats);
    assert_eq!(outcome.stats.duplicate_records, 0, "{:?}", outcome.stats);
}

#[test]
fn duplicate_submissions_from_racing_workers_dedupe() {
    let spec = spec();
    let bench = spec.find_bench().unwrap();
    let prep = spec.prepare(bench.as_ref());
    let records = run_all(&spec);
    let cfg = DispatchCfg {
        shards: 1,
        lease: Duration::from_millis(150),
        backoff: Duration::from_millis(50),
        max_backoff: Duration::from_millis(100),
        wait_ms: 30,
        ..DispatchCfg::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());

    let half: Vec<&TrialRecord> = records.iter().filter(|r| r.idx % 2 == 0).collect();
    let rest: Vec<&TrialRecord> = records.iter().filter(|r| r.idx % 2 == 1).collect();

    let outcome = std::thread::scope(|s| {
        let coordinator = s.spawn(|| serve(listener, &prep.plan, &spec, &cfg));
        // Worker 1 takes the lease, submits half the shard, then stalls
        // (no heartbeats) until the lease expires.
        let mut w1 = Conn::connect(&addr);
        w1.handshake("racer-1");
        let (shard, done) = w1.await_lease();
        assert_eq!((shard, done.as_slice()), (0, &[][..]));
        for r in &half {
            w1.send(&Frame::Trial((*r).clone()));
        }
        std::thread::sleep(cfg.lease + Duration::from_millis(250));

        // Worker 2 is granted the reassigned lease, told which trials the
        // coordinator already holds (mid-shard resume).
        let mut w2 = Conn::connect(&addr);
        w2.handshake("racer-2");
        let (shard2, done2) = w2.await_lease();
        assert_eq!(shard2, 0);
        let mut held: Vec<usize> = half.iter().map(|r| r.idx).collect();
        held.sort_unstable();
        assert_eq!(done2, held, "resumed lease lists the records already held");

        // Worker 1 wakes up and races: re-submits its half and claims the
        // shard done. Every record is a duplicate; the claim is rejected
        // with a resend for the half it never ran — which proves the
        // connection state survived the duplicates.
        for r in &half {
            w1.send(&Frame::Trial((*r).clone()));
        }
        w1.send(&Frame::ShardDone { shard: 0 });
        let Frame::Resend { shard: 0, missing } = w1.recv() else {
            panic!("expected resend to the stale worker");
        };
        let mut want: Vec<usize> = rest.iter().map(|r| r.idx).collect();
        want.sort_unstable();
        assert_eq!(missing, want);

        // Worker 2 finishes the shard for real.
        for r in &rest {
            w2.send(&Frame::Trial((*r).clone()));
        }
        w2.send(&Frame::ShardDone { shard: 0 });
        assert!(matches!(w2.recv(), Frame::Ack { shard: 0 }));
        assert!(matches!(w2.recv(), Frame::Shutdown));
        drop(w2);
        drop(w1);
        coordinator.join().unwrap().expect("serve")
    });

    assert_eq!(
        records_fingerprint(&outcome.records),
        records_fingerprint(&records),
        "deduped racing merge must equal single-shot"
    );
    let stats = &outcome.stats;
    assert_eq!(stats.duplicate_records, half.len() as u64, "{stats:?}");
    assert_eq!(stats.leases_reassigned, 1, "{stats:?}");
    assert!(stats.leases_expired >= 1, "{stats:?}");
    assert_eq!(stats.shards_completed, 1, "{stats:?}");
}

#[test]
fn job_frame_while_holding_a_lease_is_a_protocol_error_on_the_worker() {
    let spec = spec();
    let bench = spec.find_bench().unwrap();
    let job = Frame::Job {
        fingerprint: spec.prepare(bench.as_ref()).plan.fingerprint(),
        spec,
        shards: 1,
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    let err = std::thread::scope(|s| {
        let worker = s.spawn(|| work(&addr, &WorkerCfg::default()));
        let mut coordinator = Conn::accept(&listener);
        assert!(matches!(coordinator.recv(), Frame::Hello { .. }));
        coordinator.send(&job);
        assert!(matches!(coordinator.recv(), Frame::Ready { .. }));
        coordinator.send(&Frame::Lease {
            shard: 0,
            done: vec![],
        });
        // The lease is the worker's until its claim is acked: a second
        // job in place of the ack is out of turn.
        while !matches!(coordinator.recv(), Frame::ShardDone { shard: 0 }) {}
        coordinator.send(&job);
        worker.join().unwrap().expect_err("job out of turn")
    });
    assert!(
        matches!(&err, DispatchError::Protocol(why) if why.contains("expected ack/resend")),
        "{err:?}"
    );
}

/// Every frame ends in `}` and the parser requires a complete object, so
/// no proper prefix of a frame may parse — a torn line is always seen as
/// torn, never as a shorter valid frame.
fn assert_no_prefix_parses(f: &Frame) {
    let line = f.to_json();
    assert!(parse_frame(&line).is_some(), "frame itself parses: {line}");
    for cut in 0..line.len() {
        assert!(
            parse_frame(&line[..cut]).is_none(),
            "prefix {:?} of {line:?} must not parse",
            &line[..cut]
        );
    }
}

#[test]
fn no_control_frame_prefix_parses() {
    let spec = spec();
    for f in [
        Frame::Hello {
            worker: "w\"1\\".into(),
            proto: PROTO_VERSION,
            telemetry: "127.0.0.1:9090".into(),
        },
        Frame::Job {
            spec: CampaignSpec {
                structures: Some(vec![HwStructure::RegFile, HwStructure::L2]),
                ..spec.clone()
            },
            shards: 3,
            fingerprint: u64::MAX,
        },
        Frame::Job {
            spec: CampaignSpec {
                backend: relia::EngineBackend::Replay,
                wave: Some(dispatch::WaveSpec {
                    wave: 1,
                    strata: dispatch::parse_strata("0:RF:4:4;0:L2:0:2", Layer::Uarch).unwrap(),
                }),
                ..spec.clone()
            },
            shards: 1,
            fingerprint: 5,
        },
        Frame::Ready { fingerprint: 1 },
        Frame::Lease {
            shard: 2,
            done: vec![1, 3, 5],
        },
        Frame::Wait { ms: 200 },
        Frame::Poll,
        Frame::Heartbeat { shard: 1, done: 9 },
        Frame::ShardDone { shard: 1 },
        Frame::Resend {
            shard: 1,
            missing: vec![7],
        },
        Frame::Ack { shard: 1 },
        Frame::Shutdown,
    ] {
        assert_no_prefix_parses(&f);
    }
}

/// A job frame is outside input to a worker: one whose spec would trip
/// an engine assertion (`"sms":0` panics in the cache model) must be
/// dropped by the parser like any torn frame, not reach `prepare`.
#[test]
fn hostile_job_frame_is_dropped() {
    let job = Frame::Job {
        spec: spec(),
        shards: 1,
        fingerprint: 9,
    }
    .to_json();
    assert!(parse_frame(&job).is_some());
    assert!(job.contains("\"sms\":4"));
    for sms in ["0", "1025", "4294967296", "-1", "\"4\""] {
        let hostile = job.replace("\"sms\":4", &format!("\"sms\":{sms}"));
        assert_eq!(parse_frame(&hostile), None, "sms {sms}");
    }
    // An `n` that would make `prepare` allocate the trial list of a
    // 400 TB (or `capacity overflow`) plan.
    assert!(job.contains("\"n\":2,"), "{job}");
    for n in ["1000001", "1000000000000", "18446744073709551615"] {
        let hostile = job.replace("\"n\":2,", &format!("\"n\":{n},"));
        assert_eq!(parse_frame(&hostile), None, "n {n}");
    }
    let sw = job.replace("\"layer\":\"uarch\"", "\"layer\":\"sw\"");
    assert!(parse_frame(&sw).is_some());
    let sw_rf = sw.replace("\"structures\":\"\"", "\"structures\":\"RF\"");
    assert_eq!(parse_frame(&sw_rf), None, "structures on the sw layer");
}

fn outcome_of(tag: u8) -> kernels::Outcome {
    match tag % 4 {
        0 => kernels::Outcome::Masked,
        1 => kernels::Outcome::Sdc,
        2 => kernels::Outcome::Timeout,
        _ => kernels::Outcome::Due,
    }
}

proptest! {
    /// Arbitrary trial records: full line parses, no proper prefix does —
    /// the wire twin of `truncated_checkpoint_recovers_a_prefix`.
    #[test]
    fn no_trial_frame_prefix_parses(
        idx in any::<u32>(),
        out in any::<u8>(),
        ctrl in any::<bool>(),
        wall in any::<u32>(),
    ) {
        let f = Frame::Trial(TrialRecord {
            idx: idx as usize,
            outcome: outcome_of(out),
            ctrl,
            wall_us: wall as u64,
        });
        let line = f.to_json();
        prop_assert_eq!(parse_frame(&line), Some(f));
        for cut in 0..line.len() {
            prop_assert!(parse_frame(&line[..cut]).is_none(), "prefix {} parsed", &line[..cut]);
        }
    }

    /// Hello frames with arbitrary printable worker names (quotes and
    /// backslashes included): round-trip, and no prefix parses.
    #[test]
    fn no_hello_frame_prefix_parses(name_bytes in prop::collection::vec(0x20u8..0x7f, 0..16)) {
        let f = Frame::Hello {
            worker: String::from_utf8(name_bytes).unwrap(),
            proto: PROTO_VERSION,
            telemetry: "127.0.0.1:1".into(),
        };
        let line = f.to_json();
        prop_assert_eq!(parse_frame(&line), Some(f));
        for cut in 0..line.len() {
            prop_assert!(parse_frame(&line[..cut]).is_none(), "prefix {} parsed", &line[..cut]);
        }
    }
}
