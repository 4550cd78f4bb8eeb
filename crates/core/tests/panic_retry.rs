//! A trial whose host program panics is retried once and then recorded as
//! Timeout, on every trial path, without stopping its shard — and the
//! metrics count each retry and each such Timeout.
//!
//! Kept as a single `#[test]` because the obs switches and the metrics
//! registry are process-global.

use kernels::apps::va::{self, Va};
use kernels::{AppAbort, Benchmark, Outcome, RunCtl};
use relia::{
    execute_shard, execute_trials_with, prepare_sw_campaign, prepare_uarch_campaign, CampaignCfg,
    EngineCfg, FastForward, TrialRecord,
};

/// VA with a host program that checks its output word by word and
/// `assert!`s on the first corrupted one: a deterministic panic, so the
/// retry panics too.
struct CheckedVa;

impl Benchmark for CheckedVa {
    fn name(&self) -> &'static str {
        "CheckedVA"
    }

    fn kernels(&self) -> &'static [&'static str] {
        Va.kernels()
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let n = va::N;
        let bufs = ctl.alloc(&[n * 4, n * 4, n * 4]);
        let (a, b, c) = (bufs[0], bufs[1], bufs[2]);
        ctl.write_with(a, n, |i| va::input_a(i).to_bits());
        ctl.write_with(b, n, |i| va::input_b(i).to_bits());
        ctl.set_outputs(&[(c, n)]);
        ctl.launch(0, va::kernel(), n / 128, 128, vec![a, b, c, n])?;
        for i in 0..n {
            let got = ctl.read_f32(c + 4 * i);
            assert_eq!(got, va::input_a(i) + va::input_b(i), "element {i}");
        }
        Ok(())
    }
}

/// What a record says of its trial; `wall_us` is filled while metrics
/// are on, and differs between runs.
fn classes(records: &[TrialRecord]) -> Vec<(usize, Outcome, bool)> {
    records.iter().map(|r| (r.idx, r.outcome, r.ctrl)).collect()
}

#[test]
fn a_panicking_host_is_retried_once_then_recorded_as_timeout_on_every_path() {
    let cfg = CampaignCfg::new(12, 6, 0x9A1C);
    let uarch = prepare_uarch_campaign(&CheckedVa, &cfg, false);
    let sw = prepare_sw_campaign(&CheckedVa, &cfg, false);
    let replay = EngineCfg {
        backend: FastForward::Replay,
        ..EngineCfg::single_shot()
    };
    // The host's panics are the expected path here: keep them quiet.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    obs::reset_for_test();
    obs::set_enabled(true);
    let runs: Vec<Vec<Vec<TrialRecord>>> = [(&uarch, true), (&sw, false)]
        .into_iter()
        .map(|(prep, replays)| {
            let all: Vec<usize> = (0..prep.plan.len()).collect();
            let oracle = execute_trials_with(prep, FastForward::disabled(), &all, |_| Ok(()));
            let mut runs = vec![oracle.unwrap()];
            runs.push(execute_shard(prep, &EngineCfg::single_shot()).unwrap());
            if replays {
                runs.push(execute_shard(prep, &replay).unwrap());
            }
            runs
        })
        .collect();
    let metrics = obs::global().snapshot();
    obs::reset_for_test();
    std::panic::set_hook(hook);

    for (prep, runs) in [&uarch, &sw].into_iter().zip(runs) {
        let layer = prep.plan.layer.label();
        let want = classes(&runs[0]);
        for records in &runs {
            // Every shard completed, with the oracle's records.
            assert_eq!(classes(records), want, "{layer}");
        }
        let count = |o| want.iter().filter(|r| r.1 == o).count() as u64;
        // Every corrupted output panicked the host instead of reaching SDC.
        assert_eq!(count(Outcome::Sdc), 0, "{layer}: {want:?}");
        assert!(
            count(Outcome::Timeout) > 0,
            "{layer}: no trial corrupted the output"
        );
        let panics = count(Outcome::Timeout) * runs.len() as u64;
        for name in ["watchdog_retries_total", "watchdog_panic_timeouts_total"] {
            let key = format!("{name}{{layer={layer}}}");
            assert_eq!(metrics.counter(&key), Some(panics), "{key}");
        }
    }
}
