//! Set-associative, data-holding caches with MSHRs.
//!
//! These caches store actual line bytes — a requirement for bit-level fault
//! injection: a flipped bit in a cache data array must propagate to readers
//! and write-backs, and must vanish when a clean line is evicted (the
//! hardware masking effect Section V-B of the paper describes).
//!
//! Policies (GPGPU-Sim Volta-like):
//! * **L1 data cache** — write-through, no write-allocate, allocate on load.
//!   L1 lines are therefore never dirty and evictions silently drop data.
//! * **L1 texture cache** — read-only.
//! * **L2** — write-back, write-allocate; dirty evictions write DRAM.
//!
//! Timing is approximated by *eager fills with delayed readiness*: on a
//! miss the data moves immediately, an MSHR records when it would really
//! arrive, and later accesses to the in-flight line are pending hits that
//! wait for the remaining latency.

use crate::config::{CacheGeom, Latencies};
use crate::exec::lanes_of;
use crate::fault::{cache_word, HwStructure};
use crate::mem::{DirtyMap, GlobalMem};
use crate::probe::Probe;
use crate::snapshot::{Capture, Walk};
use crate::stats::{CacheStats, Stats};
use vgpu_arch::WARP_SIZE;

/// One cache instance.
#[derive(Debug)]
pub struct Cache {
    geom: CacheGeom,
    /// Per line: the line address (`addr / line_bytes`) it holds.
    tags: Vec<u32>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    lru: Vec<u64>,
    data: Vec<u8>,
    /// Outstanding fills: `(line_addr, ready_cycle)`.
    mshr: Vec<(u32, u64)>,
    stamp: u64,
    /// Lines whose data or per-line state (tag, valid, dirty, LRU age)
    /// changed since the last snapshot synchronisation, as granules of the
    /// data array: one map covers all five arrays.
    touched: DirtyMap,
}

/// The part of a [`Cache`] a snapshot keeps verbatim; the five per-line
/// arrays go to the chunk store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CacheScalars {
    mshr: Vec<(u32, u64)>,
    stamp: u64,
    /// [`Cache::no_live_lines`] of the captured cache.
    pub(crate) no_live_lines: bool,
}

impl CacheScalars {
    pub(crate) fn heap_bytes(&self) -> u64 {
        (self.mshr.capacity() * std::mem::size_of::<(u32, u64)>()) as u64
    }
}

impl Cache {
    pub fn new(geom: CacheGeom) -> Self {
        let lines = geom.lines() as usize;
        assert!(lines > 0 && geom.sets() > 0, "degenerate cache geometry");
        Cache {
            data: vec![0u8; geom.bytes as usize],
            tags: vec![0; lines],
            valid: vec![false; lines],
            dirty: vec![false; lines],
            lru: vec![0; lines],
            mshr: Vec::with_capacity(geom.mshrs as usize),
            stamp: 0,
            touched: DirtyMap::new(geom.bytes as usize),
            geom,
        }
    }

    /// Record that line `idx` is about to change.
    #[inline]
    fn touch(&mut self, idx: usize) {
        self.touched.mark(idx as u32 * self.geom.line_bytes);
    }

    pub fn geom(&self) -> &CacheGeom {
        &self.geom
    }

    #[inline]
    fn set_of(&self, line_addr: u32) -> u32 {
        line_addr % self.geom.sets()
    }

    /// Index range of the ways of a set.
    #[inline]
    fn ways_of(&self, set: u32) -> std::ops::Range<usize> {
        let base = (set * self.geom.ways) as usize;
        base..base + self.geom.ways as usize
    }

    /// Find a resident line without touching LRU (host peeks, tests).
    pub fn probe(&self, line_addr: u32) -> Option<usize> {
        self.ways_of(self.set_of(line_addr))
            .find(|&i| self.valid[i] && self.tags[i] == line_addr)
    }

    /// Find a resident line and mark it most-recently used.
    pub fn lookup(&mut self, line_addr: u32) -> Option<usize> {
        let idx = self.probe(line_addr)?;
        self.use_way(idx);
        Some(idx)
    }

    /// Mark way `idx` most-recently used, as a hit in [`Cache::lookup`] does.
    fn use_way(&mut self, idx: usize) {
        self.touch(idx);
        self.stamp += 1;
        self.lru[idx] = self.stamp;
    }

    /// Does way `idx`, where a lookup found or filled `line_addr`, still
    /// hold it? A fill since may have replaced it.
    #[inline]
    fn holds(&self, idx: usize, line_addr: u32) -> bool {
        self.valid[idx] && self.tags[idx] == line_addr
    }

    /// Choose a victim way in the set of `line_addr`: an invalid way if one
    /// exists, else the least recently used.
    pub fn victim(&self, line_addr: u32) -> usize {
        let range = self.ways_of(self.set_of(line_addr));
        let mut best = range.start;
        let mut best_lru = u64::MAX;
        for i in range {
            if !self.valid[i] {
                return i;
            }
            if self.lru[i] < best_lru {
                best_lru = self.lru[i];
                best = i;
            }
        }
        best
    }

    /// Is the victim line dirty (needs write-back before replacement)?
    pub fn line_dirty(&self, idx: usize) -> bool {
        self.valid[idx] && self.dirty[idx]
    }

    pub fn line_addr_of(&self, idx: usize) -> u32 {
        self.tags[idx]
    }

    /// Probe-stream name of the word at byte `off` of line `idx`.
    pub(crate) fn word(&self, idx: usize, off: u32) -> u64 {
        cache_word(idx as u64 * u64::from(self.geom.line_bytes) + u64::from(off))
    }

    /// Probe-stream name of the word at `addr`, if its line is resident.
    pub(crate) fn resident_word(&self, addr: u32) -> Option<u64> {
        let lb = self.geom.line_bytes;
        self.probe(addr / lb).map(|idx| self.word(idx, addr % lb))
    }

    /// Byte view of line `idx`.
    pub fn line_data(&self, idx: usize) -> &[u8] {
        let lb = self.geom.line_bytes as usize;
        &self.data[idx * lb..(idx + 1) * lb]
    }

    /// Install `bytes` as line `line_addr` in way `idx`, clean, MRU.
    pub fn fill(&mut self, idx: usize, line_addr: u32, bytes: &[u8]) {
        let lb = self.geom.line_bytes as usize;
        debug_assert_eq!(bytes.len(), lb);
        self.touch(idx);
        self.data[idx * lb..(idx + 1) * lb].copy_from_slice(bytes);
        self.tags[idx] = line_addr;
        self.valid[idx] = true;
        self.dirty[idx] = false;
        self.stamp += 1;
        self.lru[idx] = self.stamp;
    }

    /// Read the aligned word at byte `off` of line `idx`.
    #[inline]
    pub fn read_word(&self, idx: usize, off: u32) -> u32 {
        let p = idx * self.geom.line_bytes as usize + off as usize;
        u32::from_le_bytes(self.data[p..p + 4].try_into().unwrap())
    }

    /// Write the aligned word at byte `off` of line `idx`; optionally mark
    /// the line dirty (write-back caches).
    #[inline]
    pub fn write_word(&mut self, idx: usize, off: u32, v: u32, mark_dirty: bool) {
        let p = idx * self.geom.line_bytes as usize + off as usize;
        self.touched.mark(p as u32);
        self.data[p..p + 4].copy_from_slice(&v.to_le_bytes());
        if mark_dirty {
            self.dirty[idx] = true;
        }
    }

    /// Outstanding-fill readiness for `line_addr`, if any fill is still in
    /// flight at `now`.
    pub fn mshr_ready(&self, line_addr: u32, now: u64) -> Option<u64> {
        self.mshr
            .iter()
            .find(|&&(l, r)| l == line_addr && r > now)
            .map(|&(_, r)| r)
    }

    /// Try to allocate an MSHR for a new outstanding fill. Prunes completed
    /// entries first. Returns `false` (a reservation fail) when all MSHRs
    /// are busy.
    pub fn mshr_alloc(&mut self, line_addr: u32, ready: u64, now: u64) -> bool {
        self.mshr.retain(|&(_, r)| r > now);
        if self.mshr.len() >= self.geom.mshrs as usize {
            return false;
        }
        self.mshr.push((line_addr, ready));
        true
    }

    /// Drop every line (kernel-boundary L1 invalidation). Panics in debug
    /// builds if a dirty line would be lost — only write-through caches may
    /// be invalidated.
    pub fn invalidate_all(&mut self) {
        debug_assert!(
            !self.valid.iter().zip(&self.dirty).any(|(&v, &d)| v && d),
            "invalidating a cache with dirty lines"
        );
        for idx in 0..self.valid.len() {
            if self.valid[idx] {
                self.touch(idx);
            }
        }
        self.valid.fill(false);
        self.dirty.fill(false);
        self.mshr.clear();
    }

    /// XOR a bit mask into one byte of the data array (transient fault
    /// patterns). The flip lands wherever `byte_index` points — valid line,
    /// stale invalid line, it does not matter: that is the AVF fault model.
    pub fn flip_mask(&mut self, byte_index: u64, mask: u8) {
        let i = byte_index as usize % self.data.len();
        self.touched.mark(i as u32);
        self.data[i] ^= mask;
    }

    /// Force the masked bits of one data-array byte to `value` (stuck-at
    /// fault patterns; idempotent, so re-asserting every cycle is safe).
    pub fn force_mask(&mut self, byte_index: u64, mask: u8, value: bool) {
        let i = byte_index as usize % self.data.len();
        self.touched.mark(i as u32);
        self.data[i] = if value {
            self.data[i] | mask
        } else {
            self.data[i] & !mask
        };
    }

    /// Coherent host view: the current word at `addr` if resident.
    pub fn peek_word(&self, addr: u32) -> Option<u32> {
        let lb = self.geom.line_bytes;
        let idx = self.probe(addr / lb)?;
        Some(self.read_word(idx, (addr % lb) & !3))
    }

    /// No resident lines and no outstanding fills — the state every L1 is
    /// in at a kernel boundary after [`Cache::invalidate_all`]. With
    /// nothing resident the LRU stamp is dead state (victim choice only
    /// compares ages of *valid* lines), so two all-invalid caches are
    /// architecturally interchangeable regardless of their stamps.
    pub fn no_live_lines(&self) -> bool {
        self.mshr.is_empty() && !self.valid.iter().any(|&v| v)
    }

    /// Return the cache to its just-constructed state (scratch reuse):
    /// every line invalid, zeroed arrays, empty MSHRs. A cache keeps no
    /// counters: an access counts into the [`Stats`] it is given.
    pub fn reset(&mut self) {
        self.data.fill(0);
        self.tags.fill(0);
        self.valid.fill(false);
        self.dirty.fill(false);
        self.lru.fill(0);
        self.mshr.clear();
        self.stamp = 0;
        self.touched.mark_range(0, self.geom.bytes);
    }

    /// Append this cache to a snapshot being captured: the five per-line
    /// arrays as chunk indices (data, tags, valid, dirty, LRU — the order
    /// [`Cache::restore`], [`Cache::same`] and [`Cache::skip`] walk in),
    /// the rest verbatim.
    pub(crate) fn capture(&self, cap: &mut Capture<'_>) -> CacheScalars {
        let lb = self.geom.line_bytes;
        cap.array(&self.data, &self.touched, 1);
        cap.array(&self.tags, &self.touched, lb);
        cap.array(&self.valid, &self.touched, lb);
        cap.array(&self.dirty, &self.touched, lb);
        cap.array(&self.lru, &self.touched, lb);
        CacheScalars {
            mshr: self.mshr.clone(),
            stamp: self.stamp,
            no_live_lines: self.no_live_lines(),
        }
    }

    /// Bring the cache to the snapshot `w` walks — bit for bit, dead lines
    /// included — and mark it clean.
    pub(crate) fn restore(&mut self, w: &mut Walk<'_>, s: &CacheScalars) {
        let lb = self.geom.line_bytes;
        w.restore(&mut self.data, &self.touched, 1);
        w.restore(&mut self.tags, &self.touched, lb);
        w.restore(&mut self.valid, &self.touched, lb);
        w.restore(&mut self.dirty, &self.touched, lb);
        w.restore(&mut self.lru, &self.touched, lb);
        self.mshr.clone_from(&s.mshr);
        self.stamp = s.stamp;
        self.touched.clear();
    }

    /// Architectural equality with the snapshot `w` walks: do the two
    /// caches behave identically from here on? Compares the LRU stamp, the
    /// outstanding-fill list, the valid bitmap, and — for valid lines
    /// only — tag, dirtiness, LRU age and data bytes. Invalid lines' stale
    /// contents are dead state (a fill overwrites them before any read),
    /// so they are excluded unless `exact` asks for bit-for-bit identity.
    /// Used by the
    /// masked-convergence check; a `false` from residual dead-state
    /// differences only costs a missed early exit, never correctness.
    pub(crate) fn same(&self, w: &mut Walk<'_>, s: &CacheScalars, exact: bool) -> bool {
        if self.stamp != s.stamp || self.mshr != s.mshr {
            return false;
        }
        let lb = self.geom.line_bytes;
        let live = |line: usize| exact || self.valid[line];
        w.same(&self.data, &self.touched, 1, |i| live(i / lb as usize))
            && w.same(&self.tags, &self.touched, lb, live)
            && w.same(&self.valid, &self.touched, lb, |_| true)
            && w.same(&self.dirty, &self.touched, lb, live)
            && w.same(&self.lru, &self.touched, lb, live)
    }

    /// Step `w` past this cache without looking at it.
    pub(crate) fn skip(&self, w: &mut Walk<'_>) {
        w.skip(&self.data);
        w.skip(&self.tags);
        w.skip(&self.valid);
        w.skip(&self.dirty);
        w.skip(&self.lru);
    }

    pub(crate) fn clear_touched(&mut self) {
        self.touched.clear();
    }

    /// Coherent host update of a resident line (dirtiness unchanged).
    pub fn poke_word(&mut self, addr: u32, v: u32) -> bool {
        let lb = self.geom.line_bytes;
        if let Some(idx) = self.probe(addr / lb) {
            let p = idx * lb as usize + ((addr % lb) & !3) as usize;
            self.touched.mark(p as u32);
            self.data[p..p + 4].copy_from_slice(&v.to_le_bytes());
            true
        } else {
            false
        }
    }
}

/// What every access through the hierarchy shares: the L2 behind the
/// L1s, device memory, the cycle, the latencies, the counters the access
/// counts into, and the probe of an instrumented run.
pub struct AccessCtx<'a> {
    pub(crate) l2: &'a mut Cache,
    pub(crate) mem: &'a mut GlobalMem,
    pub(crate) now: u64,
    pub(crate) lat: &'a Latencies,
    /// The launch's counters: L1D accesses count into `l1d`, L1T accesses
    /// into `l1t`, L2 accesses into `l2`, DRAM traffic into `mem_reads`
    /// and `mem_writes`.
    pub(crate) stats: &'a mut Stats,
    pub(crate) probe: Option<&'a mut Probe>,
    /// SM index owning the L1 instance the access goes through.
    pub(crate) sm: usize,
}

impl<'a> AccessCtx<'a> {
    /// The context of an unprobed access at cycle `now`.
    pub fn new(
        l2: &'a mut Cache,
        mem: &'a mut GlobalMem,
        now: u64,
        lat: &'a Latencies,
        stats: &'a mut Stats,
    ) -> Self {
        AccessCtx {
            l2,
            mem,
            now,
            lat,
            stats,
            probe: None,
            sm: 0,
        }
    }

    /// The counters of L1 structure `h`: the L1T's or the L1D's.
    fn l1_stats(&mut self, h: HwStructure) -> &mut CacheStats {
        if h == HwStructure::L1T {
            &mut self.stats.l1t
        } else {
            &mut self.stats.l1d
        }
    }
}

/// Fetch a full line into the L2 (if absent) and return `(way, ready)`.
fn ensure_l2(line_addr: u32, cx: &mut AccessCtx<'_>) -> (usize, u64) {
    let (l2, now, lat) = (&mut *cx.l2, cx.now, cx.lat);
    cx.stats.l2.accesses += 1;
    if let Some(idx) = l2.lookup(line_addr) {
        let ready = match l2.mshr_ready(line_addr, now) {
            Some(r) => {
                cx.stats.l2.pending_hits += 1;
                r
            }
            None => now + lat.l2_hit as u64,
        };
        return (idx, ready);
    }
    cx.stats.l2.misses += 1;
    let victim = l2.victim(line_addr);
    let victim_dirty = l2.line_dirty(victim);
    if victim_dirty {
        let wb_addr = l2.line_addr_of(victim) * l2.geom.line_bytes;
        cx.mem.write_line(wb_addr, l2.line_data(victim));
        cx.stats.mem_writes += 1;
    }
    let lb = l2.geom.line_bytes;
    l2.fill(victim, line_addr, cx.mem.line(line_addr * lb, lb));
    if let Some(p) = cx.probe.as_deref_mut() {
        // A dirty write-back propagates the victim's data outward: a
        // whole-line read. The fill overwrites the line either way.
        let line = l2.word(victim, 0);
        if victim_dirty {
            p.range(HwStructure::L2, 0, line, lb / 4, now, false);
        }
        p.range(HwStructure::L2, 0, line, lb / 4, now, true);
    }
    cx.stats.mem_reads += 1;
    let mut ready = now + lat.dram as u64;
    if !l2.mshr_alloc(line_addr, ready, now) {
        cx.stats.l2.reservation_fails += 1;
        ready += lat.mshr_fail as u64;
    }
    (victim, ready)
}

/// One access through `l1`, the L1 structure `h` (L1D or L1T) backed by
/// the shared L2, to line `line_addr`, reading its word at byte `off`: the
/// way that holds the line afterwards, and the cycle its data is ready.
fn load_via(
    l1: &mut Cache,
    h: HwStructure,
    line_addr: u32,
    off: u32,
    cx: &mut AccessCtx<'_>,
) -> (usize, u64) {
    let (lb, now, lat) = (l1.geom.line_bytes, cx.now, cx.lat);
    debug_assert_eq!(lb, cx.l2.geom.line_bytes, "uniform line size across levels");
    cx.l1_stats(h).accesses += 1;
    if let Some(idx) = l1.lookup(line_addr) {
        let ready = match l1.mshr_ready(line_addr, now) {
            Some(r) => {
                cx.l1_stats(h).pending_hits += 1;
                r
            }
            None => now + lat.l1_hit as u64,
        };
        if let Some(p) = cx.probe.as_deref_mut() {
            p.access(h, cx.sm, l1.word(idx, off), now, false);
        }
        return (idx, ready);
    }
    cx.l1_stats(h).misses += 1;
    let (l2_idx, l2_ready) = ensure_l2(line_addr, cx);
    let victim = l1.victim(line_addr);
    // L1 is write-through: the victim is clean by construction and is
    // silently dropped — a fault previously injected into it is masked here.
    l1.fill(victim, line_addr, cx.l2.line_data(l2_idx));
    if let Some(p) = cx.probe.as_deref_mut() {
        // The whole L2 line is read to service the L1 fill (conservative),
        // every word of the L1 victim is overwritten, and the requested
        // word is read immediately.
        p.range(
            HwStructure::L2,
            0,
            cx.l2.word(l2_idx, 0),
            lb / 4,
            now,
            false,
        );
        p.range(h, cx.sm, l1.word(victim, 0), lb / 4, now, true);
        p.access(h, cx.sm, l1.word(victim, off), now, false);
    }
    let mut ready = l2_ready + (lat.l1_hit as u64);
    if !l1.mshr_alloc(line_addr, ready, now) {
        cx.l1_stats(h).reservation_fails += 1;
        ready += lat.mshr_fail as u64;
    }
    (victim, ready)
}

/// Load the lanes of `mask` of one warp instruction (`addrs[lane]` into
/// `out[lane]`) through `l1`, the L1 structure `h` (L1D or L1T) backed by
/// the shared L2. The first lane on a line makes one access; later lanes
/// on it read the way that access resolved to, without touching LRU,
/// unless a fill for another lane's line has since replaced it — then the
/// line is accessed again. Returns the cycle the warp may proceed. The
/// addresses must already be validated.
pub fn load_warp(
    l1: &mut Cache,
    h: HwStructure,
    mask: u32,
    addrs: &[u32; WARP_SIZE],
    out: &mut [u32; WARP_SIZE],
    cx: &mut AccessCtx<'_>,
) -> u64 {
    let lb = l1.geom.line_bytes;
    // (line, way) of each distinct line so far.
    let mut lines = [(0u32, 0usize); WARP_SIZE];
    let mut n = 0usize;
    let mut ready_max = cx.now;
    for lane in lanes_of(mask) {
        let (line, off) = (addrs[lane] / lb, addrs[lane] % lb);
        let known = lines[..n].iter().position(|&(l, _)| l == line);
        let way = match known {
            Some(i) if l1.holds(lines[i].1, line) => {
                if let Some(p) = cx.probe.as_deref_mut() {
                    p.access(h, cx.sm, l1.word(lines[i].1, off), cx.now, false);
                }
                lines[i].1
            }
            _ => {
                let (way, ready) = load_via(l1, h, line, off, cx);
                ready_max = ready_max.max(ready);
                let i = known.unwrap_or_else(|| {
                    n += 1;
                    n - 1
                });
                lines[i] = (line, way);
                way
            }
        };
        out[lane] = l1.read_word(way, off);
    }
    ready_max
}

/// Store the lanes of `mask` of one warp instruction (`vals[lane]` to
/// `addrs[lane]`): write-through the L1D without allocating, write-back
/// allocate in L2. Each distinct line counts one access (and, if the L1D
/// does not hold it, one miss) however many lanes hit it; each lane's
/// write to a resident L1D line counts as a use for LRU. A store never
/// fills the L1D, so a line's L1D way holds for the whole store; its L2
/// way holds until a later line's L2 fill replaces it, and the line is
/// then fetched again. Returns the cycle the warp may proceed. The
/// addresses must already be validated.
pub fn store_warp(
    l1d: &mut Cache,
    mask: u32,
    addrs: &[u32; WARP_SIZE],
    vals: &[u32; WARP_SIZE],
    cx: &mut AccessCtx<'_>,
) -> u64 {
    let (lb, now) = (l1d.geom.line_bytes, cx.now);
    // (line, L1D way, L2 way) of each distinct line so far.
    let mut lines = [(0u32, None, 0usize); WARP_SIZE];
    let mut n = 0usize;
    for lane in lanes_of(mask) {
        let (line, off) = (addrs[lane] / lb, addrs[lane] % lb);
        let i = match lines[..n].iter().position(|&(l, ..)| l == line) {
            Some(i) => i,
            None => {
                // One coalesced access per line for the statistics.
                cx.stats.l1d.accesses += 1;
                let i1 = l1d.probe(line);
                if i1.is_none() {
                    cx.stats.l1d.misses += 1; // write-through, no allocate
                }
                let (i2, _) = ensure_l2(line, cx);
                lines[n] = (line, i1, i2);
                n += 1;
                n - 1
            }
        };
        if let Some(i1) = lines[i].1 {
            // Update in place; the line stays clean (write-through).
            l1d.use_way(i1);
            l1d.write_word(i1, off, vals[lane], false);
            if let Some(p) = cx.probe.as_deref_mut() {
                p.access(HwStructure::L1D, cx.sm, l1d.word(i1, off), now, true);
            }
        }
        if !cx.l2.holds(lines[i].2, line) {
            lines[i].2 = ensure_l2(line, cx).0;
        }
        let i2 = lines[i].2;
        cx.l2.write_word(i2, off, vals[lane], true);
        if let Some(p) = cx.probe.as_deref_mut() {
            p.access(HwStructure::L2, 0, cx.l2.word(i2, off), now, true);
        }
    }
    now + cx.lat.store as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeEvent, TraceSink};
    use std::sync::{Arc, Mutex};

    fn small_geom() -> CacheGeom {
        CacheGeom {
            bytes: 1024,
            line_bytes: 128,
            ways: 2,
            mshrs: 2,
        }
    }

    const LAT: Latencies = Latencies {
        alu: 4,
        sfu: 16,
        smem: 24,
        smem_conflict: 2,
        l1_hit: 30,
        l2_hit: 100,
        dram: 400,
        store: 8,
        mshr_fail: 64,
    };

    fn mem_with(addr: u32, v: u32) -> GlobalMem {
        let mut m = GlobalMem::new(64 * 1024);
        m.map(0, 64 * 1024);
        m.write_u32(addr, v);
        m
    }

    /// A one-lane [`load_warp`] of `addr` through the L1D `l1`: the value
    /// and the ready cycle.
    fn load_word(
        l1: &mut Cache,
        l2: &mut Cache,
        mem: &mut GlobalMem,
        stats: &mut Stats,
        addr: u32,
        now: u64,
    ) -> (u32, u64) {
        let (mut addrs, mut out) = ([0; WARP_SIZE], [0; WARP_SIZE]);
        addrs[0] = addr;
        let mut cx = AccessCtx::new(l2, mem, now, &LAT, stats);
        let ready = load_warp(l1, HwStructure::L1D, 1, &addrs, &mut out, &mut cx);
        (out[0], ready)
    }

    /// A one-lane [`store_warp`] of `value` to `addr`.
    fn store_word(
        l1d: &mut Cache,
        l2: &mut Cache,
        mem: &mut GlobalMem,
        stats: &mut Stats,
        addr: u32,
        value: u32,
        now: u64,
    ) -> u64 {
        let (mut addrs, mut vals) = ([0; WARP_SIZE], [0; WARP_SIZE]);
        (addrs[0], vals[0]) = (addr, value);
        store_warp(
            l1d,
            1,
            &addrs,
            &vals,
            &mut AccessCtx::new(l2, mem, now, &LAT, stats),
        )
    }

    #[test]
    fn fill_and_read() {
        let mut c = Cache::new(small_geom());
        let bytes = [7u8; 128];
        let v = c.victim(3);
        c.fill(v, 3, &bytes);
        assert_eq!(c.probe(3), Some(v));
        assert_eq!(c.read_word(v, 0), 0x07070707);
        assert_eq!(c.probe(4), None);
    }

    #[test]
    fn lru_victim_selection() {
        let mut c = Cache::new(small_geom());
        // 4 sets, 2 ways. Lines 0 and 4 map to set 0.
        let v0 = c.victim(0);
        c.fill(v0, 0, &[0u8; 128]);
        let v4 = c.victim(4);
        c.fill(v4, 4, &[0u8; 128]);
        assert_ne!(v0, v4);
        // Touch line 0 → line 4 becomes LRU.
        c.lookup(0);
        let v8 = c.victim(8);
        assert_eq!(v8, v4);
    }

    #[test]
    fn load_miss_then_hit() {
        let mut l1 = Cache::new(small_geom());
        let mut l2 = Cache::new(geom(4096, 4, 4));
        let mut mem = mem_with(256, 0xabcd);
        let mut s = Stats::default();
        let r = load_word(&mut l1, &mut l2, &mut mem, &mut s, 256, 0);
        assert_eq!(r.0, 0xabcd);
        assert!(r.1 >= 400, "miss pays DRAM latency");
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.mem_reads, 1);

        // Second access after the fill completes: plain L1 hit.
        let r2 = load_word(&mut l1, &mut l2, &mut mem, &mut s, 260, 10_000);
        assert_eq!(r2.0, 0);
        assert_eq!(r2.1, 10_000 + 30);
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l1d.accesses, 2);
        assert_eq!(s.mem_reads, 1, "no extra DRAM traffic");
    }

    #[test]
    fn pending_hit_waits_for_fill() {
        let mut l1 = Cache::new(small_geom());
        let mut l2 = Cache::new(geom(4096, 4, 4));
        let mut mem = mem_with(0, 5);
        let mut s = Stats::default();
        let r = load_word(&mut l1, &mut l2, &mut mem, &mut s, 0, 0);
        // Another warp reads the same line 10 cycles later, before ready.
        let r2 = load_word(&mut l1, &mut l2, &mut mem, &mut s, 4, 10);
        assert_eq!(s.l1d.pending_hits, 1);
        assert_eq!(r2.1, r.1, "pending hit completes with the fill");
    }

    #[test]
    fn mshr_exhaustion_counts_reservation_fail() {
        let mut l1 = Cache::new(small_geom()); // 2 MSHRs
        let mut l2 = Cache::new(geom(8192, 4, 16));
        let mut mem = mem_with(0, 1);
        let mut s = Stats::default();
        for i in 0..3u32 {
            load_word(&mut l1, &mut l2, &mut mem, &mut s, i * 128, 0);
        }
        assert_eq!(s.l1d.reservation_fails, 1);
    }

    #[test]
    fn each_access_counts_into_the_fields_of_its_structures() {
        // A one-line L2: each access below misses it and evicts a line a
        // store dirtied, so each counts one L2 miss, one DRAM read (the
        // fill) and one DRAM write (the write-back).
        let (mut l1d, mut l1t) = (Cache::new(small_geom()), Cache::new(small_geom()));
        let mut l2 = Cache::new(geom(128, 1, 4));
        let mut mem = mem_with(0, 0);
        let miss = CacheStats {
            accesses: 1,
            misses: 1,
            ..Default::default()
        };
        let l2_traffic = Stats {
            l2: miss,
            mem_reads: 1,
            mem_writes: 1,
            ..Default::default()
        };
        store_word(&mut l1d, &mut l2, &mut mem, &mut Stats::default(), 0, 1, 0);

        let mut s = Stats::default();
        store_word(&mut l1d, &mut l2, &mut mem, &mut s, 128, 2, 1000);
        assert_eq!(
            s,
            Stats {
                l1d: miss,
                ..l2_traffic
            },
            "store"
        );

        let mut s = Stats::default();
        let mut addrs = [0; WARP_SIZE];
        addrs[0] = 2 * 128;
        let mut cx = AccessCtx::new(&mut l2, &mut mem, 2000, &LAT, &mut s);
        load_warp(
            &mut l1t,
            HwStructure::L1T,
            1,
            &addrs,
            &mut [0; WARP_SIZE],
            &mut cx,
        );
        assert_eq!(
            s,
            Stats {
                l1t: miss,
                ..l2_traffic
            },
            "texture load"
        );

        store_word(
            &mut l1d,
            &mut l2,
            &mut mem,
            &mut Stats::default(),
            3 * 128,
            3,
            3000,
        );
        let mut s = Stats::default();
        load_word(&mut l1d, &mut l2, &mut mem, &mut s, 4 * 128, 4000);
        assert_eq!(
            s,
            Stats {
                l1d: miss,
                ..l2_traffic
            },
            "data load"
        );
    }

    #[test]
    fn store_write_through_keeps_l1_clean_and_dirties_l2() {
        let mut l1 = Cache::new(small_geom());
        let mut l2 = Cache::new(geom(4096, 4, 4));
        let mut mem = mem_with(0, 0);
        let mut s = Stats::default();
        // Load first so the line is in both levels.
        load_word(&mut l1, &mut l2, &mut mem, &mut s, 0, 0);
        store_word(&mut l1, &mut l2, &mut mem, &mut s, 0, 42, 1000);
        let i1 = l1.probe(0).unwrap();
        assert!(!l1.line_dirty(i1), "write-through L1 stays clean");
        assert_eq!(l1.read_word(i1, 0), 42, "L1 copy updated");
        let i2 = l2.probe(0).unwrap();
        assert!(l2.line_dirty(i2), "L2 line dirtied");
        assert_eq!(l2.read_word(i2, 0), 42);
        assert_eq!(mem.read_u32(0), 0, "DRAM not yet updated (write-back L2)");
    }

    #[test]
    fn store_miss_does_not_allocate_in_l1() {
        let mut l1 = Cache::new(small_geom());
        let mut l2 = Cache::new(geom(4096, 4, 4));
        let mut mem = mem_with(0, 0);
        let mut s = Stats::default();
        // A whole warp storing one 128-byte line: one coalesced access.
        let addrs = std::array::from_fn(|lane| lane as u32 * 4);
        let vals = std::array::from_fn(|lane| 9 + lane as u32);
        let ready = store_warp(
            &mut l1,
            u32::MAX,
            &addrs,
            &vals,
            &mut AccessCtx::new(&mut l2, &mut mem, 0, &LAT, &mut s),
        );
        assert_eq!(ready, 8, "a store costs the store latency");
        assert_eq!(l1.probe(0), None, "no write-allocate in L1");
        assert_eq!((s.l1d.accesses, s.l1d.misses), (1, 1));
        assert_eq!((s.l2.accesses, s.l2.misses), (1, 1));
        let i2 = l2.probe(0).expect("write-allocate in L2");
        for lane in [0, 17, 31] {
            assert_eq!(l2.read_word(i2, lane * 4), 9 + lane);
        }
    }

    #[test]
    fn clean_eviction_masks_injected_fault() {
        // The paper's Section V-B masking scenario: flip a bit in a clean
        // L1 line, evict it by loading conflicting lines, reload — the
        // fault is gone.
        let mut l1 = Cache::new(small_geom()); // 4 sets, 2 ways
        let mut l2 = Cache::new(geom(16384, 8, 16));
        let mut mem = mem_with(0, 0x1111);
        let mut s = Stats::default();
        load_word(&mut l1, &mut l2, &mut mem, &mut s, 0, 0);
        let idx = l1.probe(0).unwrap();
        let byte_index = idx as u64 * 128;
        l1.flip_mask(byte_index, 1 << 1); // value becomes 0x1113
        let r = load_word(&mut l1, &mut l2, &mut mem, &mut s, 0, 1000);
        assert_eq!(r.0, 0x1113, "fault visible while resident");
        // Evict set 0 by loading two other lines mapping to it (lines 4, 8).
        load_word(&mut l1, &mut l2, &mut mem, &mut s, 4 * 128, 2000);
        load_word(&mut l1, &mut l2, &mut mem, &mut s, 8 * 128, 3000);
        assert_eq!(l1.probe(0), None, "faulty line evicted");
        let r = load_word(&mut l1, &mut l2, &mut mem, &mut s, 0, 9000);
        assert_eq!(r.0, 0x1111, "clean eviction masked the fault");
    }

    #[test]
    fn dirty_l2_eviction_propagates_fault_to_dram() {
        // Converse scenario: a fault in a *dirty* L2 line is written back
        // and corrupts memory even though no instruction ever reads it.
        let mut l1 = Cache::new(small_geom());
        let mut l2 = Cache::new(geom(512, 2, 4)); // 2 sets
        let mut mem = mem_with(0, 0);
        let mut s = Stats::default();
        store_word(&mut l1, &mut l2, &mut mem, &mut s, 0, 0x10, 0);
        let idx = l2.probe(0).unwrap();
        // 0x10 -> 0x11
        l2.flip_mask(idx as u64 * 128, 1);
        // Evict line 0 from L2: load lines 2 and 4 (set 0 of 2 sets).
        load_word(&mut l1, &mut l2, &mut mem, &mut s, 2 * 128, 100);
        load_word(&mut l1, &mut l2, &mut mem, &mut s, 4 * 128, 200);
        assert_eq!(
            mem.read_u32(0),
            0x11,
            "dirty write-back carried the flipped bit"
        );
        assert!(s.mem_writes >= 1);
    }

    #[test]
    fn invalidate_all_clears_lines() {
        let mut c = Cache::new(small_geom());
        let v = c.victim(0);
        c.fill(v, 0, &[1u8; 128]);
        c.invalidate_all();
        assert_eq!(c.probe(0), None);
    }

    #[test]
    fn peek_and_poke() {
        let mut c = Cache::new(small_geom());
        let v = c.victim(0);
        c.fill(v, 0, &[0u8; 128]);
        assert!(c.poke_word(8, 77));
        assert_eq!(c.peek_word(8), Some(77));
        assert_eq!(c.peek_word(128 * 5), None);
        assert!(!c.poke_word(128 * 5, 1));
    }

    /// The per-lane loop [`load_warp`] replaced, through the L1D: a lane on
    /// a line an earlier lane accessed probes the set again, and accesses
    /// the line again if it is gone.
    fn load_lanes(
        l1: &mut Cache,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
        cx: &mut AccessCtx<'_>,
    ) -> u64 {
        let (lb, now) = (l1.geom.line_bytes, cx.now);
        let mut seen = Vec::new();
        let mut ready_max = now;
        for lane in lanes_of(mask) {
            let (line, off) = (addrs[lane] / lb, addrs[lane] % lb);
            if seen.contains(&line) {
                if let Some(idx) = l1.probe(line) {
                    if let Some(p) = cx.probe.as_deref_mut() {
                        p.access(HwStructure::L1D, cx.sm, l1.word(idx, off), now, false);
                    }
                    out[lane] = l1.read_word(idx, off);
                    continue;
                }
            } else {
                seen.push(line);
            }
            let (way, ready) = load_via(l1, HwStructure::L1D, line, off, cx);
            out[lane] = l1.read_word(way, off);
            ready_max = ready_max.max(ready);
        }
        ready_max
    }

    /// The per-lane loop [`store_warp`] replaced: every lane looks its line
    /// up in the L1D and probes the L2 for it.
    fn store_lanes(
        l1d: &mut Cache,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
        cx: &mut AccessCtx<'_>,
    ) -> u64 {
        let (lb, now) = (l1d.geom.line_bytes, cx.now);
        let mut seen = Vec::new();
        for lane in lanes_of(mask) {
            let (line, off) = (addrs[lane] / lb, addrs[lane] % lb);
            if !seen.contains(&line) {
                cx.stats.l1d.accesses += 1;
                if l1d.probe(line).is_none() {
                    cx.stats.l1d.misses += 1;
                }
                ensure_l2(line, cx);
                seen.push(line);
            }
            if let Some(i1) = l1d.lookup(line) {
                l1d.write_word(i1, off, vals[lane], false);
                if let Some(p) = cx.probe.as_deref_mut() {
                    p.access(HwStructure::L1D, cx.sm, l1d.word(i1, off), now, true);
                }
            }
            let i2 = match cx.l2.probe(line) {
                Some(i) => i,
                None => ensure_l2(line, cx).0,
            };
            cx.l2.write_word(i2, off, vals[lane], true);
            if let Some(p) = cx.probe.as_deref_mut() {
                p.access(HwStructure::L2, 0, cx.l2.word(i2, off), now, true);
            }
        }
        now + LAT.store as u64
    }

    struct Collect(Vec<ProbeEvent>);

    impl TraceSink for Collect {
        fn consume(&mut self, batch: &[ProbeEvent]) {
            self.0.extend_from_slice(batch);
        }
    }

    /// A two-level hierarchy over a patterned arena, warmed up by one-lane
    /// loads of `warm`, and the counters its accesses count into.
    struct Rig {
        l1: Cache,
        l2: Cache,
        mem: GlobalMem,
        stats: Stats,
    }

    const ARENA: u32 = 64 * 1024;

    impl Rig {
        fn new(l1: CacheGeom, l2: CacheGeom, warm: &[u32]) -> Rig {
            let mut mem = GlobalMem::new(ARENA);
            mem.map(0, ARENA);
            for w in 0..ARENA / 4 {
                mem.write_u32(w * 4, w.wrapping_mul(2_654_435_761));
            }
            let (l1, l2) = (Cache::new(l1), Cache::new(l2));
            let mut rig = Rig {
                l1,
                l2,
                mem,
                stats: Stats::default(),
            };
            for (t, &addr) in (0..).zip(warm) {
                let Rig { l1, l2, mem, stats } = &mut rig;
                load_word(l1, l2, mem, stats, addr, t);
            }
            rig
        }

        /// Run `access` on the L1 at cycle `now` with a probe attached;
        /// what it returned and the probe events, in order.
        fn run<R>(
            &mut self,
            now: u64,
            access: impl FnOnce(&mut Cache, &mut AccessCtx<'_>) -> R,
        ) -> (R, Vec<ProbeEvent>) {
            let sink = Arc::new(Mutex::new(Collect(Vec::new())));
            let mut probe = Probe::new(sink.clone());
            let mut cx = AccessCtx {
                probe: Some(&mut probe),
                ..AccessCtx::new(&mut self.l2, &mut self.mem, now, &LAT, &mut self.stats)
            };
            let r = access(&mut self.l1, &mut cx);
            drop(probe);
            let events = std::mem::take(&mut sink.lock().unwrap().0);
            (r, events)
        }
    }

    /// Every bit of state an access may change: data, tags, valid and
    /// dirty bits, LRU ages, MSHR entries and stamp of both caches, the
    /// arena, and every counter.
    fn state(r: &Rig) -> impl PartialEq + std::fmt::Debug {
        let cache = |c: &Cache| {
            let arrays = (
                c.data.clone(),
                c.tags.clone(),
                c.valid.clone(),
                c.dirty.clone(),
            );
            (arrays, c.lru.clone(), c.mshr.clone(), c.stamp)
        };
        let mem = r.mem.line(0, ARENA).to_vec();
        (cache(&r.l1), cache(&r.l2), mem, r.stats)
    }

    /// `load_warp` and `store_warp` against the per-lane loops, each from
    /// the same warmed-up hierarchy, on the lanes of `addrs`.
    fn assert_warp_access_agrees(
        l1: CacheGeom,
        l2: CacheGeom,
        warm: &[u32],
        addrs: [u32; WARP_SIZE],
    ) {
        let now = 1000;
        let vals = std::array::from_fn(|lane| 0xA000 + lane as u32);
        let load = |lanes: bool| {
            let mut rig = Rig::new(l1.clone(), l2.clone(), warm);
            let mut out = [0; WARP_SIZE];
            let (ready, events) = rig.run(now, |l1, cx| {
                if lanes {
                    load_lanes(l1, u32::MAX, &addrs, &mut out, cx)
                } else {
                    load_warp(l1, HwStructure::L1D, u32::MAX, &addrs, &mut out, cx)
                }
            });
            (ready, out, events, state(&rig))
        };
        assert_eq!(load(false), load(true), "load");
        let store = |lanes: bool| {
            let mut rig = Rig::new(l1.clone(), l2.clone(), warm);
            let f = if lanes { store_lanes } else { store_warp };
            let (ready, events) = rig.run(now, |l1, cx| f(l1, u32::MAX, &addrs, &vals, cx));
            (ready, events, state(&rig))
        };
        assert_eq!(store(false), store(true), "store");
    }

    fn geom(bytes: u32, ways: u32, mshrs: u32) -> CacheGeom {
        CacheGeom {
            bytes,
            line_bytes: 128,
            ways,
            mshrs,
        }
    }

    #[test]
    fn warp_access_on_one_line_matches_the_lane_loop() {
        // Lines 3 and 5 resident in both levels, 5 still in flight.
        let warm = [3 * 128, 5 * 128 + 4];
        let (l1, l2) = (geom(2048, 4, 4), geom(8192, 4, 8));
        for line in [3, 5, 7] {
            let addrs = std::array::from_fn(|lane| line * 128 + 4 * (31 - lane as u32));
            assert_warp_access_agrees(l1.clone(), l2.clone(), &warm, addrs);
        }
    }

    #[test]
    fn warp_access_on_32_lines_matches_the_lane_loop() {
        // More lines than either cache holds, and than MSHRs: evictions,
        // dirty write-backs and reservation fails on the way.
        let warm = [0, 128 * 40, 128 * 9];
        let addrs = std::array::from_fn(|lane| 128 * (lane as u32 * 5 % 37) + 8);
        assert_warp_access_agrees(geom(1024, 2, 2), geom(2048, 2, 4), &warm, addrs);
    }

    #[test]
    fn a_fill_between_lanes_that_evicts_an_earlier_lanes_line_refetches_it() {
        // 4 sets of 4 ways: lines 0, 4, 8, 12 and 16 share set 0, which the
        // warm-up fills. Lanes cycle through the five, so each new line
        // evicts the oldest, which the next lane on it must fetch again.
        let warm = [20 * 128, 24 * 128, 28 * 128, 32 * 128];
        let addrs = std::array::from_fn(|lane| 128 * 4 * (lane as u32 % 5) + 4 * (lane as u32 / 5));
        assert_warp_access_agrees(geom(2048, 4, 8), geom(16384, 8, 8), &warm, addrs);
    }

    #[test]
    fn a_store_whose_l2_fill_evicts_an_earlier_lanes_line_refetches_it() {
        // Two sets of two L2 ways: lines 0, 2 and 4 share set 0. The third
        // line's fill evicts the first, dirty by then, which the next lane
        // on it fetches again. Line 2 is also resident in the L1D.
        let warm = [2 * 128];
        let addrs = std::array::from_fn(|lane| 128 * 2 * (lane as u32 % 3) + 4 * (lane as u32 / 3));
        assert_warp_access_agrees(geom(1024, 2, 4), geom(512, 2, 4), &warm, addrs);
    }
}
