//! Telemetry differential: a dispatched campaign with the full
//! observability stack on — coordinator telemetry server, worker
//! telemetry servers, trace capture and forwarding — must still merge
//! byte-identically to a single-shot run, and the endpoints it exposes
//! mid-campaign must serve lint-clean Prometheus exposition text and a
//! parseable `/status` fleet document. An adaptive campaign serves both
//! from one port for all of its waves, `/status` naming the current one.

mod common;

use std::net::TcpListener;
use std::time::{Duration, Instant};

use common::Conn;
use dispatch::{serve, serve_with, work, CampaignSpec, DispatchCfg, TelemetryCfg, WorkerCfg};
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

/// Poll the coordinator's `/status` until it shows the plan `shows`
/// accepts (the document is `{}` until the first plan is installed, and a
/// wave's stays up until the next wave's replaces it).
fn await_status(addr: &str, shows: impl Fn(&obs::JsonNode) -> bool) -> obs::JsonNode {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (code, status) =
            obs::http_get(addr, "/status", Duration::from_secs(2)).expect("GET /status");
        assert_eq!(code, 200);
        let doc = obs::parse_json(&status).expect("/status must parse as JSON");
        if shows(&doc) {
            return doc;
        }
        assert!(Instant::now() < deadline, "/status never showed the plan");
        std::thread::sleep(Duration::from_millis(5));
    }
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
        let doc = await_status(&tele_addr, |doc| doc.get("role").is_some());
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

#[test]
fn one_telemetry_port_serves_every_wave_of_an_adaptive_campaign() {
    use stat::{run_adaptive, run_adaptive_single, uarch_targets, AdaptiveCfg};

    let base = CampaignSpec {
        app: "VA".to_string(),
        layer: Layer::Uarch,
        n: 0,
        sms: 4,
        seed: 0x7E1E_AA11_0000_0003,
        hardened: false,
        structures: None,
        fault_model: vgpu_sim::FaultPattern::SingleBit,
        backend: relia::EngineBackend::Timed,
        wave: None,
    };
    let bench = base.find_bench().expect("benchmark exists");
    let (ccfg, targets) = (base.campaign_cfg(), uarch_targets());
    let acfg = AdaptiveCfg::new(0.15, 6, 24);
    let single = run_adaptive_single(bench.as_ref(), &ccfg, false, Layer::Uarch, &targets, &acfg)
        .expect("single-shot adaptive");
    assert!(single.waves >= 2, "config must produce a multi-wave run");

    let dir = std::env::temp_dir().join(format!("relia_telemetry_waves_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let telemetry = |file: &str| {
        Some(TelemetryCfg {
            listen: "127.0.0.1:0".to_string(),
            port_file: Some(dir.join(file)),
        })
    };
    let cfg = DispatchCfg {
        shards: 2,
        wait_ms: 50,
        telemetry: telemetry("coordinator-port.txt"),
        ..DispatchCfg::default()
    };
    let wcfg = WorkerCfg {
        name: "tele-waves".into(),
        heartbeat: Duration::from_millis(50),
        telemetry: telemetry("worker-port.txt"),
        trace: true,
        ..WorkerCfg::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());

    let (dispatched, stats) = std::thread::scope(|s| {
        // One worker session, with its own fixed telemetry port, for the
        // whole campaign.
        let worker = s.spawn(|| work(&addr, &wcfg));
        let served = serve_with(listener, &cfg, |coord| {
            // Bound once, before the first wave: every wave is scraped here.
            let tele_addr = wait_for_port(&dir.join("coordinator-port.txt"));
            run_adaptive(
                bench.as_ref(),
                &ccfg,
                false,
                Layer::Uarch,
                &targets,
                &acfg,
                |prep, wave| {
                    let plan = &prep.plan;
                    let records = std::thread::scope(|w| {
                        let run = w.spawn(|| coord.run(plan, &base));
                        // The wave's document is published when its plan is
                        // installed and stays until the next one's is — which
                        // cannot happen before this closure returns.
                        let doc = await_status(&tele_addr, |doc| {
                            doc.get("wave").and_then(obs::JsonNode::as_u64) == Some(wave)
                        });
                        let num = |k: &str| doc.get(k).and_then(obs::JsonNode::as_u64);
                        assert_eq!(num("trials"), Some(plan.len() as u64));
                        assert!(num("records_held") <= num("trials"));
                        assert_eq!(
                            doc.get("campaign_fp").and_then(obs::JsonNode::as_str),
                            Some(format!("{:016x}", plan.fingerprint()).as_str())
                        );
                        assert_eq!(
                            doc.get("done").and_then(obs::JsonNode::as_bool),
                            Some(false),
                            "a finished wave is not a finished campaign"
                        );
                        let (code, metrics) =
                            obs::http_get(&tele_addr, "/metrics", Duration::from_secs(2))
                                .expect("GET /metrics");
                        assert_eq!(code, 200);
                        obs::expo::lint(&metrics).expect("mid-campaign /metrics must lint clean");
                        run.join().unwrap()
                    });
                    Ok(records.expect("wave served"))
                },
            )
            .expect("dispatched adaptive")
        })
        .expect("coordinator");
        let summary = worker.join().unwrap().expect("worker session");
        assert_eq!(summary.trials_executed, single.total_trials());
        served
    });

    assert_eq!(
        single, dispatched,
        "telemetry + trace must not change a single result bit"
    );
    assert_eq!(stats.workers_joined, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
