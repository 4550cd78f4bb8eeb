//! # obs — observability for fault-injection campaigns
//!
//! A dependency-free metrics / events / profiling layer for the
//! statistical campaigns this repo runs (tens of thousands of independent
//! injections, fanned out over worker threads). Everything is built on
//! `std` atomics and mutexes; there is no crates.io dependency by design
//! (the build sandbox has no registry access).
//!
//! Four pieces, each behind a process-global switch so disabled campaigns
//! pay one relaxed atomic load per call site:
//!
//! * [`registry`] — a thread-safe metrics registry: monotonic counters,
//!   gauges, and fixed-bucket histograms, keyed by metric name plus
//!   `key=value` labels (e.g. `app`/`kernel`/`structure`).
//! * [`span()`] — the one timer: a named span (`kernels.trials`,
//!   `core.plan`, …, the perf ledger's names) observed into the
//!   `span_us{span=<name>}` histogram while metrics are on and emitted as
//!   a span-end [`trace`] record while tracing is on.
//! * [`events`] — a structured JSONL sink with one line writer,
//!   [`events::record_json`], behind every line (one per injection, plus
//!   campaign / dispatch / snapshot / wave / trace records, checkpoint
//!   journals and dispatch wire frames); [`events::Fields`] reads lines
//!   back.
//! * [`progress`] — a throttled stderr progress reporter with running
//!   outcome-class rates.
//!
//! Enabling any of this never changes campaign *results*: nothing here
//! touches the seeded RNG streams, so runs are bit-identical with
//! observability on or off (guarded by a test in `crates/core`).

pub mod events;
pub mod progress;
pub mod registry;
mod span;
pub mod trace;

pub use events::{
    emit_record, events_enabled, flush_events, init_events, parse_json, JsonNode, JsonValue,
};
pub use progress::OutcomeClass;
pub use registry::{
    counter_add, enabled, gauge_set, global, histogram_observe, set_enabled, Histogram,
    HistogramSnapshot, Registry, Snapshot,
};
pub use span::span;
pub use trace::{TraceCtx, TraceEvent};

/// Bucket upper bounds (µs) for injection wall-time histograms:
/// sub-millisecond through multi-second, roughly ×2.5 per step.
pub const WALL_US_BUCKETS: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Reset every global sub-system — intended for tests that need a clean
/// slate within one process.
pub fn reset_for_test() {
    registry::set_enabled(false);
    registry::global().clear();
    progress::reset();
    trace::reset();
    events::shutdown_events();
}

/// Install a panic hook that flushes the JSONL event sink before the
/// previous hook (usually the default backtrace printer) runs. Without
/// it, a worker panicking mid-campaign loses the buffered event/trace
/// lines — exactly the lines needed to debug the panic. Idempotent.
pub fn install_panic_hook() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = events::flush_events();
            prev(info);
        }));
    });
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    /// Unit tests that touch the global switches/sinks grab this so they
    /// don't interleave under the parallel test runner.
    pub fn lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
