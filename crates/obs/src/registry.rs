//! Thread-safe metrics registry: counters, gauges, fixed-bucket
//! histograms.
//!
//! Metrics are keyed by a canonical `name{k=v,...}` string. Handles
//! (`Arc<AtomicU64>` / `Arc<Histogram>`) can be cached by hot loops to
//! skip the map lookup; the convenience free functions
//! ([`counter_add`], [`gauge_set`], [`histogram_observe`]) look up per
//! call and no-op when the global switch is off.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Master switch for the metrics registry (and for the `span_us`
/// histogram of [`crate::span`]). Off by default: campaigns pay one
/// relaxed load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Canonical metric key: `name` or `name{k=v,k2=v2}`.
fn key_of(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut k = String::with_capacity(name.len() + 16 * labels.len());
    k.push_str(name);
    k.push('{');
    for (i, (lk, lv)) in labels.iter().enumerate() {
        if i > 0 {
            k.push(',');
        }
        k.push_str(lk);
        k.push('=');
        k.push_str(lv);
    }
    k.push('}');
    k
}

/// A fixed-bucket histogram. `bounds` are inclusive upper bounds per
/// bucket; one extra overflow bucket catches everything above the last
/// bound. Observation is lock-free.
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation. `v == bound` lands in that bucket
    /// (inclusive upper bounds, as in Prometheus `le`).
    pub fn observe(&self, v: u64) {
        let i = self.bounds.partition_point(|&b| v > b);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    /// `bounds.len() + 1` entries; the last is the overflow bucket.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate with linear interpolation inside the covering
    /// bucket (the Prometheus `histogram_quantile` model: observations
    /// spread uniformly between a bucket's lower and upper bound).
    /// `None` when the histogram is empty or the quantile lands in the
    /// overflow bucket, which has no upper bound to interpolate toward.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut acc = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            let prev = acc;
            acc += b;
            if acc as f64 >= target {
                let upper = *self.bounds.get(i)? as f64;
                let lower = if i == 0 {
                    0.0
                } else {
                    self.bounds[i - 1] as f64
                };
                if b == 0 {
                    return Some(upper);
                }
                let frac = ((target - prev as f64) / b as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * frac);
            }
        }
        None
    }

    /// Smallest bucket bound covering at least `q` (in `[0, 1]`) of the
    /// observations; `None` when the quantile falls in the overflow
    /// bucket or the histogram is empty.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= target {
                return self.bounds.get(i).copied();
            }
        }
        None
    }
}

/// Registry of counters, gauges and histograms. `BTreeMap` keeps
/// snapshots deterministically ordered.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Get-or-create a counter handle (monotonic).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicU64> {
        let key = key_of(name, labels);
        Arc::clone(self.counters.lock().unwrap().entry(key).or_default())
    }

    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.counter(name, labels).fetch_add(v, Ordering::Relaxed);
    }

    /// Get-or-create a gauge handle (last-write-wins).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicU64> {
        let key = key_of(name, labels);
        Arc::clone(self.gauges.lock().unwrap().entry(key).or_default())
    }

    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.gauge(name, labels).store(v, Ordering::Relaxed);
    }

    /// Get-or-create a histogram. The bounds of the first registration
    /// win; later calls with different bounds get the existing histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Arc<Histogram> {
        let key = key_of(name, labels);
        Arc::clone(
            self.histograms
                .lock()
                .unwrap()
                .entry(key)
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    pub fn histogram_observe(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64], v: u64) {
        self.histogram(name, labels, bounds).observe(v);
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Drop every registered metric (tests).
    pub fn clear(&self) {
        self.counters.lock().unwrap().clear();
        self.gauges.lock().unwrap().clear();
        self.histograms.lock().unwrap().clear();
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Deterministically ordered point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

// ---- enabled-gated conveniences on the global registry ----------------

/// Add to a counter in the global registry; no-op while disabled.
pub fn counter_add(name: &str, labels: &[(&str, &str)], v: u64) {
    if enabled() {
        global().counter_add(name, labels, v);
    }
}

/// Set a gauge in the global registry; no-op while disabled.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], v: u64) {
    if enabled() {
        global().gauge_set(name, labels, v);
    }
}

/// Observe into a histogram in the global registry; no-op while disabled.
pub fn histogram_observe(name: &str, labels: &[(&str, &str)], bounds: &[u64], v: u64) {
    if enabled() {
        global().histogram_observe(name, labels, bounds, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_canonical() {
        assert_eq!(key_of("m", &[]), "m");
        assert_eq!(key_of("m", &[("a", "1"), ("b", "x")]), "m{a=1,b=x}");
    }

    #[test]
    fn counters_and_gauges() {
        let r = Registry::new();
        r.counter_add("hits", &[("app", "VA")], 2);
        r.counter_add("hits", &[("app", "VA")], 3);
        r.counter_add("hits", &[("app", "NW")], 1);
        r.gauge_set("depth", &[], 7);
        r.gauge_set("depth", &[], 4);
        let s = r.snapshot();
        assert_eq!(s.counter("hits{app=VA}"), Some(5));
        assert_eq!(s.counter("hits{app=NW}"), Some(1));
        assert_eq!(s.gauges, vec![("depth".to_string(), 4)]);
        // Deterministic ordering (BTreeMap).
        assert_eq!(s.counters[0].0, "hits{app=NW}");
    }

    #[test]
    fn histogram_bucket_edges() {
        let h = Histogram::new(&[10, 20, 30]);
        h.observe(0); // -> bucket 0 (≤10)
        h.observe(10); // -> bucket 0 (inclusive bound)
        h.observe(11); // -> bucket 1 (≤20)
        h.observe(20); // -> bucket 1
        h.observe(30); // -> bucket 2 (≤30)
        h.observe(31); // -> overflow
        h.observe(u64::MAX / 2); // -> overflow
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 1, 2]);
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 10 + 11 + 20 + 30 + 31 + u64::MAX / 2);
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::new(&[1, 2, 4, 8]);
        for v in [1, 1, 2, 3, 5] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert!((s.mean() - 12.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.quantile_bound(0.5), Some(2));
        assert_eq!(s.quantile_bound(1.0), Some(8));
        h.observe(100); // overflow
        assert_eq!(h.snapshot().quantile_bound(1.0), None);
        assert_eq!(Histogram::new(&[1]).snapshot().quantile_bound(0.5), None);
    }

    #[test]
    fn histogram_interpolated_quantile() {
        let h = Histogram::new(&[10, 20, 40]);
        // 10 observations in (10,20]: quantiles interpolate linearly
        // across that bucket's span.
        for _ in 0..10 {
            h.observe(15);
        }
        let s = h.snapshot();
        assert!((s.quantile(0.0).unwrap() - 10.0).abs() < 1e-9);
        assert!((s.quantile(0.5).unwrap() - 15.0).abs() < 1e-9);
        assert!((s.quantile(1.0).unwrap() - 20.0).abs() < 1e-9);
        // First bucket interpolates from 0.
        let h = Histogram::new(&[10, 20]);
        for _ in 0..4 {
            h.observe(5);
        }
        assert!((h.snapshot().quantile(0.5).unwrap() - 5.0).abs() < 1e-9);
        // Empty and overflow cases are None.
        assert_eq!(Histogram::new(&[1]).snapshot().quantile(0.5), None);
        let h = Histogram::new(&[1]);
        h.observe(100);
        assert_eq!(h.snapshot().quantile(0.99), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[5, 5]);
    }

    #[test]
    fn disabled_global_calls_are_noops() {
        let _guard = crate::testutil::lock();
        set_enabled(false);
        counter_add("ghost", &[], 1);
        gauge_set("ghost_g", &[], 1);
        histogram_observe("ghost_h", &[], &[1], 1);
        let s = global().snapshot();
        assert_eq!(s.counter("ghost"), None);
        assert!(!s.gauges.iter().any(|(k, _)| k == "ghost_g"));
        assert!(!s.histograms.iter().any(|(k, _)| k == "ghost_h"));
    }
}
