//! The one timer. [`span`] runs a closure and, while metrics are on,
//! observes its wall time into the registry histogram
//! `span_us{span=<name>}` — named `<crate>.<what>`, the name the perf
//! ledger gives the same work (docs/OBSERVABILITY.md lists them) — which
//! the end-of-run histogram table carries. With metrics off, a span costs
//! one relaxed load.

use std::time::Instant;

use crate::registry;

/// Bucket upper bounds (µs) of `span_us`: from one trial's adjudication
/// to a whole campaign's execution, ×≈3 per step.
const SPAN_US_BUCKETS: [u64; 17] = [
    1,
    3,
    10,
    30,
    100,
    300,
    1_000,
    3_000,
    10_000,
    30_000,
    100_000,
    300_000,
    1_000_000,
    3_000_000,
    10_000_000,
    30_000_000,
    100_000_000,
];

/// Run `f` as span `name`, timing it when metrics are on.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if !registry::enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let us = t0.elapsed().as_micros() as u64;
    registry::global().histogram_observe("span_us", &[("span", name)], &SPAN_US_BUCKETS, us);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(name: &str) -> Option<u64> {
        let key = format!("span_us{{span={name}}}");
        let snap = registry::global().snapshot();
        let found = snap.histograms.into_iter().find(|(k, _)| *k == key);
        found.map(|(_, h)| h.count)
    }

    #[test]
    fn a_span_times_only_when_metrics_are_on() {
        let _guard = crate::testutil::lock();
        crate::reset_for_test();
        assert_eq!(span("core.plan", || 41 + 1), 42);
        assert_eq!(count("core.plan"), None, "metrics off");

        registry::set_enabled(true);
        assert_eq!(span("core.plan", || 2 * 21), 42);
        span("core.plan", || ());
        assert_eq!(count("core.plan"), Some(2));
        crate::reset_for_test();
    }
}
