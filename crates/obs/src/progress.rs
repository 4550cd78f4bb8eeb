//! Throttled stderr progress reporter with running outcome-class rates.
//!
//! Campaigns register the expected trial count with [`add_total`] and
//! call [`record`] once per finished injection; the reporter prints at
//! most one line per second, e.g.:
//!
//! ```text
//! [obs]  3200/12800 (25.0%)  masked 71.2%  sdc 18.1%  due 6.4%  timeout 4.3%  | 2150 inj/s
//! ```
//!
//! Like the rest of the crate the reporter is off by default and its
//! disabled fast path is a single relaxed atomic load.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Outcome classes tracked by the running-rate display. Mirrors the
/// campaign `Outcome` enum in `crates/kernels` without depending on it
/// (obs sits below every other crate in the dependency graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    Masked = 0,
    Sdc = 1,
    Timeout = 2,
    Due = 3,
}

impl OutcomeClass {
    pub const ALL: [OutcomeClass; 4] = [
        OutcomeClass::Masked,
        OutcomeClass::Sdc,
        OutcomeClass::Timeout,
        OutcomeClass::Due,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            OutcomeClass::Masked => "masked",
            OutcomeClass::Sdc => "sdc",
            OutcomeClass::Timeout => "timeout",
            OutcomeClass::Due => "due",
        }
    }
}

static PROGRESS_ON: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static DONE: AtomicU64 = AtomicU64::new(0);
static CLASSES: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
/// Milliseconds since [`epoch`] of the last printed line (0 = never).
static LAST_PRINT_MS: AtomicU64 = AtomicU64::new(0);
/// Lines actually printed (observable by tests; stderr is invisible to
/// the test harness).
static PRINTS: AtomicU64 = AtomicU64::new(0);
/// Serializes actual printing so lines never interleave.
static PRINT_LOCK: Mutex<()> = Mutex::new(());

const THROTTLE_MS: u64 = 1_000;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn the reporter on (and start its rate clock).
pub fn enable() {
    epoch();
    PROGRESS_ON.store(true, Ordering::Relaxed);
}

pub fn disable() {
    PROGRESS_ON.store(false, Ordering::Relaxed);
}

pub fn progress_enabled() -> bool {
    PROGRESS_ON.load(Ordering::Relaxed)
}

/// Announce `n` more expected trials (called once per sub-campaign).
pub fn add_total(n: u64) {
    TOTAL.fetch_add(n, Ordering::Relaxed);
}

/// Record one finished injection; prints a throttled status line.
pub fn record(class: OutcomeClass) {
    if !progress_enabled() {
        return;
    }
    CLASSES[class as usize].fetch_add(1, Ordering::Relaxed);
    let done = DONE.fetch_add(1, Ordering::Relaxed) + 1;
    // The last expected trial always prints, so a campaign finishing
    // inside the throttle window still gets its 100% line.
    let total = TOTAL.load(Ordering::Relaxed);
    maybe_print(done, total > 0 && done == total);
}

/// Print a final (unthrottled) status line and reset the throttle.
pub fn finish() {
    if !progress_enabled() {
        return;
    }
    maybe_print(DONE.load(Ordering::Relaxed), true);
}

fn maybe_print(done: u64, force: bool) {
    let now_ms = epoch().elapsed().as_millis() as u64;
    let last = LAST_PRINT_MS.load(Ordering::Relaxed);
    if !force && now_ms.saturating_sub(last) < THROTTLE_MS {
        return;
    }
    // One winner per throttle window; losers skip the print entirely.
    if LAST_PRINT_MS
        .compare_exchange(last, now_ms.max(1), Ordering::Relaxed, Ordering::Relaxed)
        .is_err()
        && !force
    {
        return;
    }
    let _guard = PRINT_LOCK.lock().unwrap();
    let total = TOTAL.load(Ordering::Relaxed);
    let pct = |n: u64| {
        if done == 0 {
            0.0
        } else {
            100.0 * n as f64 / done as f64
        }
    };
    let mut line = String::with_capacity(128);
    line.push_str("[obs]  ");
    if total > 0 {
        line.push_str(&format!(
            "{done}/{total} ({:.1}%)",
            100.0 * done as f64 / total.max(1) as f64
        ));
    } else {
        line.push_str(&format!("{done} injections"));
    }
    for c in OutcomeClass::ALL {
        let n = CLASSES[c as usize].load(Ordering::Relaxed);
        line.push_str(&format!("  {} {:.1}%", c.label(), pct(n)));
    }
    if let Some((p50, p95)) = wall_quantiles() {
        line.push_str(&format!("  p50 {:.1}ms p95 {:.1}ms", p50 / 1e3, p95 / 1e3));
    }
    let secs = now_ms.max(1) as f64 / 1e3;
    line.push_str(&format!("  | {:.0} inj/s", done as f64 / secs));
    if total > 0 {
        match eta_secs(done, total, secs) {
            Some(eta) => line.push_str(&format!("  eta {eta:.0}s")),
            None => line.push_str("  eta --"),
        }
    }
    PRINTS.fetch_add(1, Ordering::Relaxed);
    let _ = writeln!(std::io::stderr(), "{line}");
}

/// Projected seconds to finish `total - done` trials at the observed
/// rate. `None` when no rate exists yet (zero trials done or a zero
/// clock) — callers must render that as `eta --`, never `inf`/NaN.
pub fn eta_secs(done: u64, total: u64, elapsed_secs: f64) -> Option<f64> {
    if done == 0 || elapsed_secs <= 0.0 {
        return None;
    }
    let rate = done as f64 / elapsed_secs;
    if rate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return None;
    }
    Some(total.saturating_sub(done) as f64 / rate)
}

/// p50/p95 per-injection wall time (µs), merged across every
/// `injection_wall_us{...}` series in the global registry. `None` when
/// metrics are off, no series exists yet, or the tail sits in the
/// overflow bucket.
pub fn wall_quantiles() -> Option<(f64, f64)> {
    if !crate::registry::enabled() {
        return None;
    }
    let snap = crate::registry::global().snapshot();
    let mut merged: Option<crate::registry::HistogramSnapshot> = None;
    for (k, h) in &snap.histograms {
        if !k.starts_with("injection_wall_us") {
            continue;
        }
        match &mut merged {
            None => merged = Some(h.clone()),
            Some(m) if m.bounds == h.bounds => {
                for (b, v) in m.buckets.iter_mut().zip(&h.buckets) {
                    *b += v;
                }
                m.count += h.count;
                m.sum += h.sum;
            }
            Some(_) => {}
        }
    }
    let m = merged?;
    Some((m.quantile(0.5)?, m.quantile(0.95)?))
}

/// Lines actually printed since the last [`reset`] (tests).
pub fn prints() -> u64 {
    PRINTS.load(Ordering::Relaxed)
}

/// Zero all progress state (tests).
pub fn reset() {
    disable();
    TOTAL.store(0, Ordering::Relaxed);
    DONE.store(0, Ordering::Relaxed);
    for c in &CLASSES {
        c.store(0, Ordering::Relaxed);
    }
    LAST_PRINT_MS.store(0, Ordering::Relaxed);
    PRINTS.store(0, Ordering::Relaxed);
}

/// Running totals: `(done, total, per-class counts in OutcomeClass order)`.
pub fn counts() -> (u64, u64, [u64; 4]) {
    let mut classes = [0u64; 4];
    for (i, c) in CLASSES.iter().enumerate() {
        classes[i] = c.load(Ordering::Relaxed);
    }
    (
        DONE.load(Ordering::Relaxed),
        TOTAL.load(Ordering::Relaxed),
        classes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_record_is_noop() {
        let _guard = crate::testutil::lock();
        reset();
        record(OutcomeClass::Sdc);
        assert_eq!(counts(), (0, 0, [0, 0, 0, 0]));
    }

    #[test]
    fn enabled_record_accumulates() {
        let _guard = crate::testutil::lock();
        reset();
        enable();
        add_total(10);
        record(OutcomeClass::Masked);
        record(OutcomeClass::Masked);
        record(OutcomeClass::Sdc);
        record(OutcomeClass::Due);
        finish();
        let (done, total, classes) = counts();
        assert_eq!(done, 4);
        assert_eq!(total, 10);
        assert_eq!(classes, [2, 1, 0, 1]);
        reset();
    }

    #[test]
    fn final_trial_prints_inside_throttle_window() {
        let _guard = crate::testutil::lock();
        reset();
        enable();
        add_total(3);
        // All three records land well inside the 1 s throttle window;
        // only the done == total completion line may print, and it must.
        record(OutcomeClass::Masked);
        record(OutcomeClass::Sdc);
        assert_eq!(prints(), 0, "mid-run records stay throttled");
        record(OutcomeClass::Masked);
        assert_eq!(prints(), 1, "completion forces the 100% line");
        finish();
        assert_eq!(prints(), 2, "finish is never throttled");
        reset();
    }

    #[test]
    fn eta_is_guarded_against_zero_rate() {
        // No progress yet (or a zero clock): no ETA, never inf/NaN.
        assert_eq!(eta_secs(0, 100, 5.0), None);
        assert_eq!(eta_secs(10, 100, 0.0), None);
        assert_eq!(eta_secs(0, 0, 0.0), None);
        // Real progress projects finitely, and completion projects zero.
        let eta = eta_secs(25, 100, 5.0).unwrap();
        assert!(eta.is_finite() && (eta - 15.0).abs() < 1e-9);
        assert_eq!(eta_secs(100, 100, 5.0), Some(0.0));
        // Overshoot (done > total after a late add_total) saturates at 0.
        assert_eq!(eta_secs(120, 100, 5.0), Some(0.0));
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<_> = OutcomeClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["masked", "sdc", "timeout", "due"]);
    }
}
