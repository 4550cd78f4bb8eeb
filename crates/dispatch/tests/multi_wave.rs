//! One coordinator and one worker session serve every wave of an adaptive
//! campaign: a worker connects once, plans each wave against the captures
//! it already holds — one golden run and at most one capture pass per
//! worker and campaign, not per wave — a late joiner is handed the wave
//! that is current when it arrives, a worker killed mid-wave costs a
//! reassignment, and the dispatched campaign still equals the single-shot
//! one bit for bit.
//!
//! A test binary of its own, with one test: it counts span calls and
//! joined workers, and both counters are process-global.

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dispatch::{serve_with, work, CampaignSpec, DispatchCfg, WorkerCfg};
use relia::plan::Layer;
use stat::{run_adaptive, run_adaptive_single, uarch_targets, AdaptiveCfg};
use vgpu_sim::FaultPattern;

/// Calls of span `name` so far: the count of its `span_us` histogram.
fn calls(name: &str) -> u64 {
    let key = format!("span_us{{span={name}}}");
    let snap = obs::global().snapshot();
    let found = snap.histograms.iter().find(|(k, _)| *k == key);
    found.map_or(0, |(_, h)| h.count)
}

/// Connections that got as far as `hello`, as the coordinator counts them.
fn joined() -> u64 {
    obs::global()
        .counter("dispatch_workers_joined_total", &[])
        .load(Ordering::Relaxed)
}

#[test]
fn one_session_per_worker_serves_every_wave() {
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
        out_dir: None,
    };
    let worker = |name: &str, fail_after| WorkerCfg {
        name: name.into(),
        fail_after,
        ..WorkerCfg::default()
    };
    let (steady_cfg, late_cfg) = (worker("steady", None), worker("late", None));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());

    obs::reset_for_test();
    obs::set_enabled(true);
    let (dispatched, stats, doomed, steady, late) = std::thread::scope(|s| {
        let (mut doomed, mut steady, mut late) = (None, None, None);
        let (dispatched, stats) = serve_with(listener, &dcfg, |coord| {
            run_adaptive(
                bench.as_ref(),
                &cfg,
                false,
                Layer::Uarch,
                &targets,
                &acfg,
                |prep, wave| {
                    let plan = &prep.plan;
                    let records = match wave {
                        0 => std::thread::scope(|w| {
                            let run = w.spawn(|| coord.run(plan, &base));
                            // Alone on the campaign, so it provably takes
                            // a lease and dies holding it (2 < shard size).
                            let d = work(&addr, &worker("doomed", Some(2))).expect("doomed worker");
                            assert!(d.died_early, "fail_after must kill the worker");
                            doomed = Some(d);
                            // Joins in wave 0 and stays to the end.
                            steady = Some(s.spawn(|| work(&addr, &steady_cfg)));
                            run.join().unwrap()
                        }),
                        1 => {
                            // Joins between waves 0 and 1: wave 0 is over,
                            // so the first job it can be handed is wave 1's
                            // (or a later one's), never a finished plan's.
                            late = Some(s.spawn(|| work(&addr, &late_cfg)));
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while joined() < 3 {
                                assert!(Instant::now() < deadline, "late joiner never said hello");
                                std::thread::yield_now();
                            }
                            coord.run(plan, &base)
                        }
                        _ => coord.run(plan, &base),
                    };
                    Ok(records.expect("wave served"))
                },
            )
            .expect("dispatched adaptive")
        })
        .expect("coordinator");
        // The closure returned: every worker is told `shutdown`.
        let steady = steady.unwrap().join().unwrap().expect("steady worker");
        let late = late.unwrap().join().unwrap().expect("late worker");
        (dispatched, stats, doomed.unwrap(), steady, late)
    });
    let golden_runs = calls("kernels.golden");
    let captures = calls("kernels.snapshot_capture");
    obs::reset_for_test();

    assert_eq!(single, dispatched, "multi-wave dispatch differential");
    assert_eq!(single.plans_fp, dispatched.plans_fp);
    assert_eq!(single.records_fp, dispatched.records_fp);
    assert_eq!(
        stats.workers_joined, 3,
        "connections, not connections × waves: {stats:?}"
    );
    assert!(stats.leases_reassigned >= 1, "{stats:?}");
    assert_eq!(
        stats.shards_completed,
        2 * single.waves,
        "one running total across the waves: {stats:?}"
    );
    assert_eq!(
        golden_runs, 4,
        "one golden run for the coordinator's plans and one per worker, whatever the wave count"
    );
    let summaries = [&doomed, &steady, &late];
    let executing = summaries.iter().filter(|s| s.trials_executed > 0).count();
    assert_eq!(
        captures, executing as u64,
        "one capture pass per executing worker; the coordinator never executes"
    );
    assert!(!steady.died_early && !late.died_early);
    assert_eq!(doomed.trials_executed, 2);
    let executed: usize = summaries.iter().map(|s| s.trials_executed).sum();
    assert!(
        executed >= single.total_trials(),
        "{executed} records for {} trials",
        single.total_trials()
    );
    assert!(steady.shards_completed + late.shards_completed >= 2 * single.waves as usize);
}
