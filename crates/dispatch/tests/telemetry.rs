//! Telemetry differential: a dispatched campaign with the full
//! observability stack on — coordinator telemetry server, worker
//! telemetry servers, trace capture and forwarding — must still merge
//! byte-identically to a single-shot run, and the endpoints it exposes
//! mid-campaign must serve lint-clean Prometheus exposition text and a
//! parseable `/status` fleet document.

mod common;

use std::net::TcpListener;
use std::time::{Duration, Instant};

use common::Conn;
use dispatch::{serve, work, CampaignSpec, DispatchCfg, TelemetryCfg, WorkerCfg};
use relia::plan::Layer;
use relia::{execute_trials, records_fingerprint};

fn wait_for_port(path: &std::path::Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(text) = std::fs::read_to_string(path) {
            let port = text.trim();
            if !port.is_empty() {
                return format!("127.0.0.1:{port}");
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("telemetry port file {} never appeared", path.display());
}

#[test]
fn telemetry_preserves_bit_identical_merge_and_exposes_endpoints() {
    let spec = CampaignSpec {
        app: "VA".to_string(),
        layer: Layer::Uarch,
        n: 4,
        sms: 4,
        seed: 0x7E1E_AA11_0000_0002,
        hardened: false,
        structures: None,
        fault_model: vgpu_sim::FaultPattern::SingleBit,
        backend: relia::EngineBackend::Timed,
        wave: None,
    };
    let bench = spec.find_bench().expect("benchmark exists");
    let prep = spec.prepare(bench.as_ref());
    let all: Vec<usize> = (0..prep.plan.len()).collect();
    let single = execute_trials(&prep, &all, |_| Ok(())).expect("single-shot");

    let dir = std::env::temp_dir().join(format!("relia_telemetry_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let coord_pf = dir.join("coordinator-port.txt");
    let worker_pf = dir.join("worker-port.txt");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    let cfg = DispatchCfg {
        shards: 3,
        // Long enough that the scripted peer below keeps its lease for as
        // long as the test needs; its hang-up, not the timer, ends it.
        lease: Duration::from_secs(60),
        backoff: Duration::from_millis(50),
        max_backoff: Duration::from_millis(200),
        wait_ms: 50,
        out_dir: None,
        telemetry: Some(TelemetryCfg {
            listen: "127.0.0.1:0".to_string(),
            port_file: Some(coord_pf.clone()),
        }),
    };
    let wcfg = WorkerCfg {
        name: "tele-w1".into(),
        heartbeat: Duration::from_millis(50),
        read_timeout: Duration::from_secs(30),
        fail_after: None,
        telemetry: Some(TelemetryCfg {
            listen: "127.0.0.1:0".to_string(),
            port_file: Some(worker_pf.clone()),
        }),
        trace: true,
    };

    let outcome = std::thread::scope(|s| {
        let coordinator = s.spawn(|| serve(listener, &prep.plan, &spec, &cfg));

        // Scrape the coordinator BEFORE any worker joins: the campaign
        // cannot finish under us, so this is a guaranteed mid-run view.
        let tele_addr = wait_for_port(&coord_pf);
        let (code, metrics) =
            obs::http_get(&tele_addr, "/metrics", Duration::from_secs(2)).expect("GET /metrics");
        assert_eq!(code, 200);
        obs::expo::lint(&metrics).expect("mid-run /metrics must lint clean");
        let (code, status) =
            obs::http_get(&tele_addr, "/status", Duration::from_secs(2)).expect("GET /status");
        assert_eq!(code, 200);
        let doc = obs::parse_json(&status).expect("/status must parse as JSON");
        assert_eq!(
            doc.get("role").and_then(obs::JsonNode::as_str),
            Some("coordinator")
        );
        assert_eq!(
            doc.get("campaign_fp").and_then(obs::JsonNode::as_str),
            Some(format!("{:016x}", prep.plan.fingerprint()).as_str())
        );
        assert_eq!(
            doc.get("trials").and_then(obs::JsonNode::as_u64),
            Some(prep.plan.len() as u64)
        );
        assert_eq!(
            doc.get("done").and_then(obs::JsonNode::as_bool),
            Some(false)
        );
        let shard_detail = doc
            .get("shard_detail")
            .and_then(obs::JsonNode::as_arr)
            .expect("shard_detail array");
        assert_eq!(shard_detail.len(), 3);

        // A scripted peer handshakes first and sits on one shard's lease:
        // the campaign cannot complete, so the worker's session — and the
        // telemetry server that lives only as long as it — provably
        // outlasts the scrape below, however fast the trials are.
        let mut squatter = Conn::connect(&addr);
        squatter.handshake("squatter");
        squatter.await_lease();

        // Now run the fleet: one traced worker with its own telemetry
        // server, which the coordinator discovers via the hello frame.
        let w = s.spawn(|| work(&addr, &wcfg));
        let worker_addr = wait_for_port(&worker_pf);
        let (code, wstatus) =
            obs::http_get(&worker_addr, "/status", Duration::from_secs(2)).expect("worker /status");
        assert_eq!(code, 200);
        let wdoc = obs::parse_json(&wstatus).expect("worker /status must parse");
        assert_eq!(
            wdoc.get("role").and_then(obs::JsonNode::as_str),
            Some("worker")
        );
        // The peer hangs up; the coordinator reclaims its lease at once
        // and the worker finishes the campaign.
        drop(squatter);
        let summary = w.join().unwrap().expect("worker session");
        assert!(summary.shards_completed >= 1);
        coordinator.join().unwrap().expect("serve")
    });

    assert_eq!(
        records_fingerprint(&outcome.records),
        records_fingerprint(&single),
        "telemetry + trace must not change a single result bit"
    );
    assert_eq!(outcome.stats.shards_completed, 3);
    let _ = std::fs::remove_dir_all(&dir);
}
