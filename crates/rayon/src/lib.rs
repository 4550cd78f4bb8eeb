//! Vendored, dependency-free stand-in for `rayon`.
//!
//! The build sandbox has no crates.io access, so the workspace vendors the
//! subset of the `rayon` API the campaigns use: `into_par_iter()` /
//! `par_iter()` followed by `map`, then a terminal `reduce`, `for_each`,
//! `sum` or `collect`. Work is executed on real OS threads via
//! [`std::thread::scope`]: each worker claims the next unclaimed item from
//! a shared cursor until none are left, so items of very unequal cost
//! still keep every core busy, and each worker sees its items in
//! ascending order.
//!
//! Thread count: `RAYON_NUM_THREADS` if set, else
//! [`std::thread::available_parallelism`].

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelSliceMut};
}

/// Effective worker count.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// `f` over every item, on up to [`current_num_threads`] workers, results
/// in item order.
fn map_in_order<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let workers = current_num_threads().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // A slot is locked once, by the worker that claimed its index.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out distinct indices; items
            // are handed over by their mutexes, results by the join.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return done;
            };
            let item = slot
                .lock()
                .expect("a slot is locked once")
                .take()
                .expect("an index is claimed once");
            done.push((i, f(item)));
        }
    };
    let mut out: Vec<Option<R>> = slots.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        for h in handles {
            let done = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index was claimed"))
        .collect()
}

/// A materialized parallel iterator over owned items.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// `ParIter` with a mapping function applied per item on the worker.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send> ParIter<T> {
    pub fn map<F, R>(self, f: F) -> ParMap<T, F>
    where
        F: Fn(T) -> R + Send + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Send + Sync,
    {
        self.map(f).reduce(|| (), |_, _| ());
    }
}

impl<T, F, R> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Send + Sync,
{
    /// Chain another map, composing the closures.
    pub fn map<G, S>(self, g: G) -> ParMap<T, impl Fn(T) -> S + Send + Sync>
    where
        G: Fn(R) -> S + Send + Sync,
        S: Send,
    {
        let f = self.f;
        ParMap {
            items: self.items,
            f: move |t| g(f(t)),
        }
    }

    /// Map in parallel, then fold the results in item order, seeded with
    /// `identity()`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R + Send + Sync,
        OP: Fn(R, R) -> R + Send + Sync,
    {
        map_in_order(self.items, self.f)
            .into_iter()
            .fold(identity(), op)
    }

    /// Order-preserving parallel collect.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        map_in_order(self.items, self.f).into_iter().collect()
    }

    pub fn for_each<G>(self, g: G)
    where
        G: Fn(R) + Send + Sync,
    {
        self.map(g).reduce(|| (), |_, _| ());
    }

    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R> + Send,
        R: Clone,
    {
        let parts: Vec<R> = self.collect();
        parts.into_iter().sum()
    }
}

/// `into_par_iter()` — entry point mirroring rayon's trait of the same name.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for Range<u64> {
    type Item = u64;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for Range<u32> {
    type Item = u32;
    fn into_par_iter(self) -> ParIter<u32> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// `par_iter()` over borrowed slices.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Parallel in-place sorts over mutable slices (API subset of rayon's
/// `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    fn par_sort_unstable_by_key<K, F>(&mut self, f: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    /// Contiguous chunks are sorted on worker threads, then a final
    /// standard-library stable sort merges them — it detects the
    /// pre-sorted runs, so the merge pass is cheap rather than a fresh
    /// sort. Small inputs sort sequentially.
    fn par_sort_unstable_by_key<K, F>(&mut self, f: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        const MIN_PAR_SORT: usize = 1 << 13;
        let threads = current_num_threads();
        if threads < 2 || self.len() < MIN_PAR_SORT {
            self.sort_unstable_by_key(|e| f(e));
            return;
        }
        let chunk = self.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for part in self.chunks_mut(chunk) {
                let f = &f;
                s.spawn(move || part.sort_unstable_by_key(|e| f(e)));
            }
        });
        self.sort_by_key(|e| f(e));
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn map_reduce_matches_sequential() {
        let par: u64 = (0usize..10_000)
            .into_par_iter()
            .map(|i| (i as u64) * 3 + 1)
            .reduce(|| 0, |a, b| a + b);
        let seq: u64 = (0u64..10_000).map(|i| i * 3 + 1).sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn chained_maps_compose() {
        let v: Vec<u64> = (0usize..100)
            .into_par_iter()
            .map(|i| i as u64)
            .map(|x| x * x)
            .collect();
        assert_eq!(v.len(), 100);
        assert_eq!(v[10], 100);
        assert_eq!(v[99], 99 * 99);
    }

    #[test]
    fn collect_preserves_order() {
        let v: Vec<usize> = (0usize..5000).into_par_iter().map(|i| i).collect();
        assert!(v.iter().enumerate().all(|(i, &x)| i == x));
    }

    #[test]
    fn for_each_runs_every_item() {
        let hits = AtomicU64::new(0);
        (0usize..2048).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2048);
    }

    #[test]
    fn par_iter_over_slices() {
        let data: Vec<u32> = (0..1000).collect();
        let sum: u64 = data
            .par_iter()
            .map(|&x| x as u64)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(sum, (0..1000u64).sum());
    }

    #[test]
    fn par_sort_matches_sequential_sort() {
        // Deterministic pseudo-random data, above and below the
        // sequential-fallback threshold.
        for n in [100usize, 40_000] {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut data: Vec<u64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            data.par_sort_unstable_by_key(|&v| v);
            assert_eq!(data, expect, "n={n}");
        }
    }

    #[test]
    fn every_item_is_mapped_once_in_order() {
        for n in [0usize, 1, 2, 7, 100] {
            let claims = AtomicU64::new(0);
            let out = super::map_in_order((0..n).collect(), |i| {
                claims.fetch_add(1, Ordering::Relaxed);
                i * 2
            });
            assert_eq!(out, (0..n).map(|i| i * 2).collect::<Vec<_>>(), "n={n}");
            assert_eq!(claims.load(Ordering::Relaxed), n as u64);
        }
    }
}
