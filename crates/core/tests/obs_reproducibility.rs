//! Enabling observability must not change campaign results.
//!
//! All campaign randomness flows through `derive_seed`-seeded per-trial
//! RNGs; the event sink, metrics registry, and spans never touch
//! those streams. This test runs the same small campaign with everything
//! off and with everything on, and demands bit-identical outcome counts —
//! plus a parseable JSONL record for every injection.
//!
//! Kept as a single `#[test]` because the obs switches are process-global
//! and cargo runs tests of one binary concurrently.

use kernels::apps::va::Va;
use relia::{run_sw_campaign, run_uarch_campaign, CampaignCfg, SvfAppResult, UarchAppResult};

fn counts_fingerprint(u: &UarchAppResult, s: &SvfAppResult) -> String {
    let mut out = String::new();
    for k in &u.kernels {
        for (h, c) in &k.per_structure {
            out.push_str(&format!(
                "{} {:?} {:?} ctrl={}\n",
                k.kernel,
                h.label(),
                c.counts,
                c.ctrl_affected_masked
            ));
        }
    }
    for k in &s.kernels {
        out.push_str(&format!(
            "{} {:?} ld={:?}\n",
            k.kernel, k.counts, k.counts_ld
        ));
    }
    out
}

#[test]
fn event_sink_and_metrics_do_not_change_outcomes() {
    let cfg = CampaignCfg::new(4, 4, 0xAB5E_11E5);

    // Reference run: everything off (the seed-default configuration).
    obs::reset_for_test();
    let base_u = run_uarch_campaign(&Va, &cfg, false);
    let base_s = run_sw_campaign(&Va, &cfg, false);
    let baseline = counts_fingerprint(&base_u, &base_s);

    // Observed run: metrics + events + progress accounting all on.
    let dir = std::env::temp_dir().join("relia_obs_repro_test");
    let _ = std::fs::remove_dir_all(&dir);
    let events_path = dir.join("events.jsonl");
    obs::reset_for_test();
    obs::init_events(&events_path).unwrap();
    obs::set_enabled(true);
    obs::progress::enable();
    let obs_u = run_uarch_campaign(&Va, &cfg, false);
    let obs_s = run_sw_campaign(&Va, &cfg, false);
    let observed = counts_fingerprint(&obs_u, &obs_s);
    let snapshot = obs::global().snapshot();
    let spans = |name: &str| {
        let key = format!("span_us{{span={name}}}");
        let found = snapshot.histograms.iter().find(|(k, _)| *k == key);
        found.map_or(0, |(_, h)| h.count) as usize
    };
    obs::reset_for_test(); // flushes + closes the sink, switches off

    assert_eq!(
        baseline, observed,
        "observability changed campaign outcomes"
    );

    // One parseable JSONL record per injection, plus the campaign
    // lifecycle records the engine journals (shard_start + shard_done for
    // each of the two single-shot campaigns).
    let n_kernels = base_u.kernels.len();
    let expected =
        n_kernels * vgpu_sim::HwStructure::ALL.len() * cfg.n_uarch + n_kernels * 2 * cfg.n_sw;
    let text = std::fs::read_to_string(&events_path).unwrap();
    let mut lines = Vec::new();
    let mut campaign_lines = 0usize;
    let mut snapshot_lines = 0usize;
    for line in text.lines() {
        let fields = obs::events::parse_line(line)
            .unwrap_or_else(|| panic!("unparseable event line: {line}"));
        let record = fields
            .iter()
            .find(|(k, _)| k == "record")
            .and_then(|(_, v)| v.as_str());
        match record {
            Some("campaign") => campaign_lines += 1,
            Some("snapshot") => snapshot_lines += 1,
            _ => lines.push(line),
        }
    }
    assert_eq!(lines.len(), expected, "one event per injection");
    assert_eq!(campaign_lines, 4, "shard_start + shard_done per campaign");
    assert_eq!(
        snapshot_lines, 1,
        "one snapshot capture for the uarch campaign, none for sw"
    );
    let mut event_outcomes = std::collections::BTreeMap::new();
    for line in &lines {
        let fields = obs::events::parse_line(line)
            .unwrap_or_else(|| panic!("unparseable event line: {line}"));
        for key in [
            "seed", "app", "kernel", "layer", "target", "trial", "bit", "cycle", "outcome",
            "wall_us",
        ] {
            assert!(
                fields.iter().any(|(k, _)| k == key),
                "missing field {key}: {line}"
            );
        }
        let outcome = fields
            .iter()
            .find(|(k, _)| k == "outcome")
            .and_then(|(_, v)| v.as_str())
            .unwrap()
            .to_string();
        *event_outcomes.entry(outcome).or_insert(0u32) += 1;
    }

    // The event log and the metrics registry agree with the campaign's
    // own per-class totals.
    let mut campaign_outcomes: std::collections::BTreeMap<String, u32> = Default::default();
    let mut bump = |label: &str, n: u32| {
        if n > 0 {
            *campaign_outcomes.entry(label.to_string()).or_insert(0) += n;
        }
    };
    for k in &obs_u.kernels {
        for (_, c) in &k.per_structure {
            bump("masked", c.counts.masked);
            bump("sdc", c.counts.sdc);
            bump("timeout", c.counts.timeout);
            bump("due", c.counts.due);
        }
    }
    for k in &obs_s.kernels {
        for c in [&k.counts, &k.counts_ld] {
            bump("masked", c.masked);
            bump("sdc", c.sdc);
            bump("timeout", c.timeout);
            bump("due", c.due);
        }
    }
    assert_eq!(
        event_outcomes, campaign_outcomes,
        "event log vs campaign counts"
    );
    let metric_total: u64 = snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("outcomes_total{"))
        .map(|&(_, v)| v)
        .sum();
    assert_eq!(
        metric_total, expected as u64,
        "outcomes_total rollup covers every trial"
    );

    // The span profile saw both campaign shapes.
    assert_eq!(spans("kernels.golden"), 2, "one golden run per campaign");
    assert_eq!(spans("kernels.trials"), expected);

    let _ = std::fs::remove_dir_all(&dir);
}
