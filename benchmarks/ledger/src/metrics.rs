//! The metric tables: every name the ledger reports, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` repeats
//! them for the benchmark driver; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By how much of `base` the value `new` is worse (negative = better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may get worse
    /// before it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the campaign engine sees, per workload. The bounds are
/// provisional: the benchmark contract's maximum (0.25) on the timing
/// metrics, because the shared 2-core sandbox the ledger was calibrated
/// on moves identical work by 10–15 % from run to run (README, "Observed
/// spreads") and a tighter gate would reject the commit it was measured
/// on. Tighten them, in a change of their own, on a quiet machine.
pub const END_TO_END: [Metric; 4] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("trials_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Single-layer metrics of the traced run, in reporting order.
pub const PER_LAYER: [Metric; 47] = [
    layer("vgpu-sim.functional.ns_per_thread_instr", "ns", Lower),
    layer("vgpu-sim.timed.ns_per_cycle", "ns", Lower),
    layer("vgpu-sim.timed.ns_per_thread_instr", "ns", Lower),
    layer("vgpu-sim.device_snapshot_us", "us", Lower),
    layer("vgpu-sim.restore_device_us", "us", Lower),
    layer("vgpu-sim.device_converged_us", "us", Lower),
    layer("vgpu-sim.golden_cycles", "count", Lower),
    layer("vgpu-sim.golden_thread_instrs", "count", Lower),
    layer("vgpu-sim.stats_fingerprint", "count", Lower),
    layer("kernels.golden_timed_ms", "ms", Lower),
    layer("kernels.golden_functional_ms", "ms", Lower),
    layer("kernels.snapshot_capture_ms", "ms", Lower),
    layer("kernels.snapshot_mb", "MB", Lower),
    layer("kernels.ff_trial_us.p50", "us", Lower),
    layer("kernels.ff_trial_us.p90", "us", Lower),
    layer("kernels.ff_simulated_share", "frac", Lower),
    layer("kernels.ff_converged_frac", "frac", Higher),
    layer("kernels.slow_trial_us.p50", "us", Lower),
    layer("kernels.sw_trial_us.p50", "us", Lower),
    layer("trace.capture_ms", "ms", Lower),
    layer("trace.trace_mb", "MB", Lower),
    layer("trace.index_build_ms", "ms", Lower),
    layer("trace.decode_mb_per_s", "MB/s", Higher),
    layer("trace.adjudicate_us", "us", Lower),
    layer("trace.dead_frac", "frac", Higher),
    layer("core.checkpoint.record_us", "us", Lower),
    layer("core.checkpoint.sync_ms", "ms", Lower),
    layer("core.checkpoint.parse_us_per_record", "us", Lower),
    layer("dispatch.loopback_records_per_s", "1/s", Higher),
    layer("dispatch.frame_roundtrip_ns", "ns", Lower),
    layer("ace.estimate_suite_ms", "ms", Lower),
    layer("core.plan_ms", "ms", Lower),
    layer("core.execute_s", "s", Lower),
    layer("core.assemble_ms", "ms", Lower),
    layer("core.trial_us.p50", "us", Lower),
    layer("core.trial_us.p99", "us", Lower),
    layer("core.busy_frac", "frac", Higher),
    layer("stat.adaptive_waves", "count", Lower),
    layer("stat.adaptive_trials", "count", Lower),
    layer("stat.wave_overhead_share", "frac", Lower),
    layer("obs.metrics_on_overhead_frac", "frac", Lower),
    layer("ledger.tracing_overhead_frac", "frac", Lower),
    layer("core.self_frac", "frac", Lower),
    layer("kernels.self_frac", "frac", Lower),
    layer("trace.self_frac", "frac", Lower),
    layer("stat.self_frac", "frac", Lower),
    layer("ledger.unattributed_s", "s", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn names(doc: &obs::JsonNode, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` is the driver's view of these tables: names,
    /// units, directions and bounds must be the same on both sides.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = obs::parse_json(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(|v| v.as_arr()).unwrap();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (node, m) in listed.iter().zip(table) {
                let field = |f: &str| node.get(f).and_then(|v| v.as_str()).map(str::to_string);
                assert_eq!(field("name").as_deref(), Some(m.name));
                assert_eq!(field("unit").as_deref(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    field("better").as_deref(),
                    Some(m.better.label()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    node.get("bound").and_then(|b| b.as_f64()),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        let listed = names(&doc, "workloads");
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn names_and_units_fit_the_benchmark_alphabet() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(m.name, "_.-", 64), "name {}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(ok(m.unit, "_/%.-", 16), "unit {}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Lower.worsening(10.0, 9.0) < 0.0);
    }
}
