//! The one timer. [`span`] runs a closure and, while metrics or tracing is
//! on, records its wall time under a `<crate>.<what>` name — the name the
//! perf ledger gives the same work (docs/OBSERVABILITY.md lists them):
//!
//! * metrics on: one observation of the registry histogram
//!   `span_us{span=<name>}`, which the end-of-run histogram table
//!   carries;
//! * tracing on: one span-end trace record with `kind = <name>`.
//!
//! With both off, a span costs two relaxed loads.

use std::time::Instant;

use crate::{registry, trace};

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

/// Run `f` as span `name`, timing it when metrics or tracing is on.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let (metrics, tracing) = (registry::enabled(), trace::tracing());
    if !metrics && !tracing {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let us = t0.elapsed().as_micros() as u64;
    if metrics {
        registry::global().histogram_observe("span_us", &[("span", name)], &SPAN_US_BUCKETS, us);
    }
    trace::emit(name, us);
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
    fn a_span_times_when_metrics_or_tracing_is_on() {
        let _guard = crate::testutil::lock();
        crate::reset_for_test();
        assert_eq!(span("core.plan", || 41 + 1), 42);
        assert_eq!(count("core.plan"), None, "both switches off");

        registry::set_enabled(true);
        assert_eq!(span("core.plan", || 2 * 21), 42);
        span("core.plan", || ());
        assert_eq!(count("core.plan"), Some(2));
        assert!(trace::drain().is_empty(), "tracing off");

        // Tracing alone: the span-end record, no histogram.
        crate::reset_for_test();
        trace::set_tracing(true);
        trace::set_capture(true);
        trace::with_ctx(7, || span("kernels.trials", || ()));
        let records = trace::drain();
        assert_eq!(records.len(), 1);
        assert_eq!(
            (records[0].kind.as_str(), records[0].trial),
            ("kernels.trials", 7)
        );
        assert_eq!(count("kernels.trials"), None, "metrics off");
        crate::reset_for_test();
    }
}
