//! A followed worker keeps its application's captures between the wave
//! sessions of an adaptive campaign: one golden run and one capture pass
//! per worker and campaign, not per wave — and the dispatched campaign
//! still equals the single-shot one bit for bit.
//!
//! A test binary of its own, with one test: it counts phase calls, and
//! the phase counters are process-global.

use std::net::TcpListener;
use std::time::Duration;

use dispatch::{follow, serve, CampaignSpec, DispatchCfg, WaveSpec, WorkerCfg};
use obs::Phase;
use relia::plan::Layer;
use stat::{run_adaptive, run_adaptive_single, uarch_targets, AdaptiveCfg};
use vgpu_sim::FaultPattern;

fn calls(phase: Phase) -> u64 {
    let snap = obs::phase_snapshot();
    snap.iter().find(|p| p.phase == phase).unwrap().calls
}

#[test]
fn a_followed_worker_captures_once_per_campaign() {
    let base = CampaignSpec {
        app: "VA".into(),
        layer: Layer::Uarch,
        n: 0,
        seed: 0xF011_0000_0000_0001,
        sms: 4,
        hardened: false,
        structures: None,
        fault_model: FaultPattern::SingleBit,
        backend: relia::EngineBackend::Timed,
        wave: None,
    };
    let bench = base.find_bench().expect("benchmark exists");
    let (cfg, targets) = (base.campaign_cfg(), uarch_targets());
    let acfg = AdaptiveCfg::new(0.1, 4, 48);
    let single = run_adaptive_single(bench.as_ref(), &cfg, false, Layer::Uarch, &targets, &acfg)
        .expect("single-shot adaptive");
    assert!(single.waves >= 3, "only {} waves", single.waves);

    let dcfg = DispatchCfg {
        shards: 2,
        lease: Duration::from_millis(300),
        backoff: Duration::from_millis(50),
        max_backoff: Duration::from_millis(200),
        wait_ms: 50,
        out_dir: None,
        telemetry: None,
    };
    let wcfg = WorkerCfg {
        name: "follower".into(),
        heartbeat: Duration::from_millis(50),
        ..WorkerCfg::default()
    };
    // One bound socket for the whole campaign, a coordinator per wave on
    // a clone of it — what `campaign serve --adaptive` does.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());

    obs::reset_for_test();
    obs::set_enabled(true);
    let (dispatched, summary) = std::thread::scope(|s| {
        let follower = s.spawn(|| follow(&addr, &wcfg));
        let dispatched = run_adaptive(
            bench.as_ref(),
            &cfg,
            false,
            Layer::Uarch,
            &targets,
            &acfg,
            |prep, wave| {
                let spec = CampaignSpec {
                    wave: Some(WaveSpec {
                        wave,
                        strata: prep.plan.strata.clone(),
                    }),
                    ..base.clone()
                };
                let l = listener.try_clone().expect("clone listener");
                Ok(serve(l, &prep.plan, &spec, &dcfg)
                    .expect("serve wave")
                    .records)
            },
        )
        .expect("dispatched adaptive");
        // The coordinator is gone: the follower's parked reconnect fails
        // and it reports what it did.
        drop(listener);
        let summary = follower.join().unwrap().expect("followed sessions");
        (dispatched, summary)
    });
    let golden_runs = calls(Phase::GoldenRun);
    let captures = calls(Phase::SnapshotCapture);
    obs::reset_for_test();

    assert_eq!(single, dispatched, "followed dispatch differential");
    // A reconnect that still reaches a finished wave's coordinator is a
    // clean zero-work session, so there may be more sessions than waves.
    assert!(summary.sessions as u64 >= single.waves, "{summary:?}");
    assert_eq!(summary.trials_executed, single.total_trials());
    assert_eq!(
        golden_runs, 2,
        "one golden run for the coordinator's plans, one for the worker's"
    );
    assert_eq!(
        captures, 1,
        "the worker captures; the coordinator never executes"
    );
}
