//! Cross-thread correctness: metric updates from a rayon-style fan-out
//! must be lossless, exactly like the campaign worker pool uses them.

use std::sync::atomic::Ordering;

use rayon::prelude::*;

#[test]
fn concurrent_counter_and_histogram_updates_are_lossless() {
    let r = obs::Registry::new();
    let c = r.counter("trials", &[("app", "VA")]);
    let h = r.histogram("lat", &[], &[8, 64, 512]);
    const N: usize = 20_000;
    (0..N)
        .into_par_iter()
        .map(|i| {
            c.fetch_add(1, Ordering::Relaxed);
            h.observe((i % 1024) as u64);
            // Handle-free path too: per-call lookup under the map mutex.
            r.counter_add("lookups", &[], 1);
            1u64
        })
        .reduce(|| 0, |a, b| a + b);
    let s = r.snapshot();
    assert_eq!(s.counter("trials{app=VA}"), Some(N as u64));
    assert_eq!(s.counter("lookups"), Some(N as u64));
    let (_, hs) = &s.histograms[0];
    assert_eq!(hs.count, N as u64);
    assert_eq!(hs.buckets.iter().sum::<u64>(), N as u64);
}

#[test]
fn concurrent_spans_accumulate() {
    // Spans land in the global registry; this is the only test of its
    // binary that switches it on (cargo runs each test binary as a
    // separate process).
    obs::reset_for_test();
    obs::set_enabled(true);
    (0..1000usize)
        .into_par_iter()
        .map(|i| obs::span("kernels.trials", || i as u64))
        .reduce(|| 0, |a, b| a + b);
    let snap = obs::global().snapshot();
    let (_, spans) = (snap.histograms.iter())
        .find(|(k, _)| k == "span_us{span=kernels.trials}")
        .expect("the span histogram");
    assert_eq!(spans.count, 1000);
    assert_eq!(spans.buckets.iter().sum::<u64>(), 1000);
    obs::reset_for_test();
}
