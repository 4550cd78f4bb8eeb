//! Production spans carry the perf ledger's names: a replay campaign and
//! an adaptive one, run with metrics on, observe `span_us{span=N}` for
//! every span the ledger times, and every span they open is one
//! docs/OBSERVABILITY.md documents.
//!
//! A test binary of its own: the metrics registry is process-global.

use kernels::apps::va::Va;
use relia::{
    assemble_uarch, execute_shard, prepare_uarch_campaign, CampaignCfg, EngineCfg, FastForward,
    Layer,
};
use stat::{run_adaptive, uarch_targets, AdaptiveCfg};

/// The ledger's span names for work production code also does — from
/// `benchmarks/ledger/src/workload.rs` (`tr.begin` / `tr.time` /
/// `add_synthetic`) and `benchmarks/ledger/src/bench.rs`
/// (`kernels.golden`). `ledger.*` spans time the ledger itself.
const LEDGER_SPANS: [&str; 9] = [
    "core.prepare",
    "core.execute",
    "core.assemble",
    "kernels.golden",
    "kernels.snapshot_capture",
    "kernels.trials",
    "trace.capture",
    "trace.adjudicate",
    "stat.run_adaptive",
];

#[test]
fn production_spans_are_the_ledgers() {
    obs::reset_for_test();
    obs::set_enabled(true);
    let cfg = CampaignCfg::new(4, 0, 0x5EED);
    let prep = prepare_uarch_campaign(&Va, &cfg, false);
    let eng = EngineCfg {
        backend: FastForward::Replay,
        ..EngineCfg::single_shot()
    };
    let records = execute_shard(&prep, &eng).unwrap();
    assemble_uarch(&prep, &records).unwrap();
    let acfg = AdaptiveCfg::new(0.1, 4, 16);
    run_adaptive(
        &Va,
        &cfg,
        false,
        Layer::Uarch,
        &uarch_targets(),
        &acfg,
        |p, _| execute_shard(p, &EngineCfg::single_shot()),
    )
    .unwrap();
    let snap = obs::global().snapshot();
    obs::reset_for_test();

    let spans: Vec<(&str, u64)> = (snap.histograms.iter())
        .filter_map(|(k, h)| Some((k.strip_prefix("span_us{span=")?.strip_suffix('}')?, h.count)))
        .collect();
    for name in LEDGER_SPANS {
        let calls = spans.iter().find(|(s, _)| *s == name).map_or(0, |s| s.1);
        assert!(calls >= 1, "{name}: no span_us observation in {spans:?}");
    }
    let documented = include_str!("../../../docs/OBSERVABILITY.md");
    for (name, _) in &spans {
        assert!(
            documented.contains(&format!("| `{name}` |")),
            "span {name} is not in docs/OBSERVABILITY.md's span table"
        );
    }
}
