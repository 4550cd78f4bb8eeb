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
use crate::fault::{cache_word, HwStructure};
use crate::mem::{DirtyMap, GlobalMem};
use crate::probe::Probe;
use crate::snapshot::{Capture, Walk};
use crate::stats::CacheStats;

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
    pub stats: CacheStats,
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
    pub(crate) stats: CacheStats,
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
            stats: CacheStats::default(),
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
        self.touch(idx);
        self.stamp += 1;
        self.lru[idx] = self.stamp;
        Some(idx)
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

    /// Write back every dirty line to `mem` and leave lines resident+clean.
    pub fn writeback_all(&mut self, mem: &mut GlobalMem, mem_writes: &mut u64) {
        let lb = self.geom.line_bytes;
        for idx in 0..self.tags.len() {
            if self.valid[idx] && self.dirty[idx] {
                let addr = self.tags[idx] * lb;
                mem.write_line(addr, self.line_data(idx));
                self.touch(idx);
                self.dirty[idx] = false;
                *mem_writes += 1;
            }
        }
    }

    /// Flip one bit of the data array (microarchitecture fault injection).
    /// The flip lands wherever `byte_index` points — valid line, stale
    /// invalid line, it does not matter: that is the AVF fault model.
    pub fn flip_bit(&mut self, byte_index: u64, bit: u8) {
        self.flip_mask(byte_index, 1 << (bit % 8));
    }

    /// XOR a whole bit mask into one byte of the data array (multi-bit
    /// transient fault patterns).
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
    /// every line invalid, zeroed arrays, empty MSHRs, zero stats.
    pub fn reset(&mut self) {
        self.data.fill(0);
        self.tags.fill(0);
        self.valid.fill(false);
        self.dirty.fill(false);
        self.lru.fill(0);
        self.mshr.clear();
        self.stamp = 0;
        self.stats = CacheStats::default();
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
            stats: self.stats,
            no_live_lines: self.no_live_lines(),
        }
    }

    /// Bring the cache to the snapshot `w` walks — bit for bit, statistics
    /// and dead lines included — and mark it clean.
    pub(crate) fn restore(&mut self, w: &mut Walk<'_>, s: &CacheScalars) {
        let lb = self.geom.line_bytes;
        w.restore(&mut self.data, &self.touched, 1);
        w.restore(&mut self.tags, &self.touched, lb);
        w.restore(&mut self.valid, &self.touched, lb);
        w.restore(&mut self.dirty, &self.touched, lb);
        w.restore(&mut self.lru, &self.touched, lb);
        self.mshr.clone_from(&s.mshr);
        self.stamp = s.stamp;
        self.stats = s.stats;
        self.touched.clear();
    }

    /// Architectural equality with the snapshot `w` walks: do the two
    /// caches behave identically from here on? Compares the LRU stamp, the
    /// outstanding-fill list, the valid bitmap, and — for valid lines
    /// only — tag, dirtiness, LRU age and data bytes. Invalid lines' stale
    /// contents are dead state (a fill overwrites them before any read),
    /// and `stats` are reporting counters, so both are excluded unless
    /// `exact` asks for bit-for-bit identity. Used by the
    /// masked-convergence check; a `false` from residual dead-state
    /// differences only costs a missed early exit, never correctness.
    pub(crate) fn same(&self, w: &mut Walk<'_>, s: &CacheScalars, exact: bool) -> bool {
        if self.stamp != s.stamp || self.mshr != s.mshr || (exact && self.stats != s.stats) {
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

/// The probe of an access through an L1, and the L1 instance it goes
/// through: L1-side and L2-side events each name the right instance.
pub struct L1Probe<'a> {
    pub(crate) probe: &'a mut Probe,
    /// Which L1 structure the access goes through (L1D or L1T).
    pub(crate) l1: HwStructure,
    /// SM index owning the L1 instance.
    pub(crate) sm: usize,
}

/// Result of a hierarchy access: the loaded value and the cycle at which
/// the requesting warp may proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    pub value: u32,
    pub ready: u64,
}

/// Fetch a full line into `l2` (if absent) and return `(way, ready)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ensure_l2(
    l2: &mut Cache,
    mem: &mut GlobalMem,
    line_addr: u32,
    now: u64,
    lat: &Latencies,
    mem_reads: &mut u64,
    mem_writes: &mut u64,
    probe: Option<&mut Probe>,
) -> (usize, u64) {
    l2.stats.accesses += 1;
    if let Some(idx) = l2.lookup(line_addr) {
        let ready = match l2.mshr_ready(line_addr, now) {
            Some(r) => {
                l2.stats.pending_hits += 1;
                r
            }
            None => now + lat.l2_hit as u64,
        };
        return (idx, ready);
    }
    l2.stats.misses += 1;
    let victim = l2.victim(line_addr);
    let victim_dirty = l2.line_dirty(victim);
    if victim_dirty {
        let wb_addr = l2.line_addr_of(victim) * l2.geom.line_bytes;
        mem.write_line(wb_addr, l2.line_data(victim));
        *mem_writes += 1;
    }
    let lb = l2.geom.line_bytes;
    let bytes: Vec<u8> = mem.line(line_addr * lb, lb).to_vec();
    l2.fill(victim, line_addr, &bytes);
    if let Some(p) = probe {
        // A dirty write-back propagates the victim's data outward: a
        // whole-line read. The fill overwrites the line either way.
        let line = l2.word(victim, 0);
        if victim_dirty {
            p.range(HwStructure::L2, 0, line, lb / 4, now, false);
        }
        p.range(HwStructure::L2, 0, line, lb / 4, now, true);
    }
    *mem_reads += 1;
    let mut ready = now + lat.dram as u64;
    if !l2.mshr_alloc(line_addr, ready, now) {
        l2.stats.reservation_fails += 1;
        ready += lat.mshr_fail as u64;
    }
    (victim, ready)
}

/// Load one word through an L1 (data or texture) backed by the shared L2.
/// `addr` must already be validated (aligned + mapped).
#[allow(clippy::too_many_arguments)]
pub fn load_via(
    l1: &mut Cache,
    l2: &mut Cache,
    mem: &mut GlobalMem,
    addr: u32,
    now: u64,
    lat: &Latencies,
    mem_reads: &mut u64,
    mem_writes: &mut u64,
    mut probe: Option<L1Probe<'_>>,
) -> AccessResult {
    let lb = l1.geom.line_bytes;
    debug_assert_eq!(lb, l2.geom.line_bytes, "uniform line size across levels");
    let line_addr = addr / lb;
    let off = addr % lb;
    l1.stats.accesses += 1;
    if let Some(idx) = l1.lookup(line_addr) {
        let ready = match l1.mshr_ready(line_addr, now) {
            Some(r) => {
                l1.stats.pending_hits += 1;
                r
            }
            None => now + lat.l1_hit as u64,
        };
        if let Some(p) = probe.as_mut() {
            p.probe.access(p.l1, p.sm, l1.word(idx, off), now, false);
        }
        return AccessResult {
            value: l1.read_word(idx, off),
            ready,
        };
    }
    l1.stats.misses += 1;
    let (l2_idx, l2_ready) = ensure_l2(
        l2,
        mem,
        line_addr,
        now,
        lat,
        mem_reads,
        mem_writes,
        probe.as_mut().map(|p| &mut *p.probe),
    );
    let victim = l1.victim(line_addr);
    // L1 is write-through: the victim is clean by construction and is
    // silently dropped — a fault previously injected into it is masked here.
    let line: Vec<u8> = l2.line_data(l2_idx).to_vec();
    l1.fill(victim, line_addr, &line);
    if let Some(L1Probe { probe, l1: h, sm }) = probe {
        // The whole L2 line is read to service the L1 fill (conservative),
        // every word of the L1 victim is overwritten, and the requested
        // word is read immediately.
        probe.range(HwStructure::L2, 0, l2.word(l2_idx, 0), lb / 4, now, false);
        probe.range(h, sm, l1.word(victim, 0), lb / 4, now, true);
        probe.access(h, sm, l1.word(victim, off), now, false);
    }
    let mut ready = l2_ready + (lat.l1_hit as u64);
    if !l1.mshr_alloc(line_addr, ready, now) {
        l1.stats.reservation_fails += 1;
        ready += lat.mshr_fail as u64;
    }
    AccessResult {
        value: l1.read_word(victim, off),
        ready,
    }
}

/// Store one word: write-through the L1D, write-back allocate in L2.
/// `addr` must already be validated.
#[allow(clippy::too_many_arguments)]
pub fn store_via(
    l1d: &mut Cache,
    l2: &mut Cache,
    mem: &mut GlobalMem,
    addr: u32,
    value: u32,
    now: u64,
    lat: &Latencies,
    mem_reads: &mut u64,
    mem_writes: &mut u64,
    mut probe: Option<L1Probe<'_>>,
) -> u64 {
    let lb = l1d.geom.line_bytes;
    let line_addr = addr / lb;
    let off = addr % lb;
    l1d.stats.accesses += 1;
    if let Some(idx) = l1d.lookup(line_addr) {
        // Update in place; the line stays clean (write-through).
        l1d.write_word(idx, off, value, false);
        if let Some(p) = probe.as_mut() {
            p.probe.access(p.l1, p.sm, l1d.word(idx, off), now, true);
        }
    } else {
        l1d.stats.misses += 1; // no write-allocate
    }
    let (l2_idx, _) = ensure_l2(
        l2,
        mem,
        line_addr,
        now,
        lat,
        mem_reads,
        mem_writes,
        probe.as_mut().map(|p| &mut *p.probe),
    );
    l2.write_word(l2_idx, off, value, true);
    if let Some(L1Probe { probe, .. }) = probe {
        probe.access(HwStructure::L2, 0, l2.word(l2_idx, off), now, true);
    }
    now + lat.store as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geom() -> CacheGeom {
        CacheGeom {
            bytes: 1024,
            line_bytes: 128,
            ways: 2,
            mshrs: 2,
        }
    }

    fn lat() -> Latencies {
        Latencies {
            alu: 4,
            sfu: 16,
            smem: 24,
            smem_conflict: 2,
            l1_hit: 30,
            l2_hit: 100,
            dram: 400,
            store: 8,
            mshr_fail: 64,
        }
    }

    fn mem_with(addr: u32, v: u32) -> GlobalMem {
        let mut m = GlobalMem::new(64 * 1024);
        m.map(0, 64 * 1024);
        m.write_u32(addr, v);
        m
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
        let mut l2 = Cache::new(CacheGeom {
            bytes: 4096,
            line_bytes: 128,
            ways: 4,
            mshrs: 4,
        });
        let mut mem = mem_with(256, 0xabcd);
        let (mut mr, mut mw) = (0, 0);
        let r = load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            256,
            0,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        assert_eq!(r.value, 0xabcd);
        assert!(r.ready >= 400, "miss pays DRAM latency");
        assert_eq!(l1.stats.misses, 1);
        assert_eq!(l2.stats.misses, 1);
        assert_eq!(mr, 1);

        // Second access after the fill completes: plain L1 hit.
        let r2 = load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            260,
            10_000,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        assert_eq!(r2.value, 0);
        assert_eq!(r2.ready, 10_000 + 30);
        assert_eq!(l1.stats.misses, 1);
        assert_eq!(l1.stats.accesses, 2);
        assert_eq!(mr, 1, "no extra DRAM traffic");
    }

    #[test]
    fn pending_hit_waits_for_fill() {
        let mut l1 = Cache::new(small_geom());
        let mut l2 = Cache::new(CacheGeom {
            bytes: 4096,
            line_bytes: 128,
            ways: 4,
            mshrs: 4,
        });
        let mut mem = mem_with(0, 5);
        let (mut mr, mut mw) = (0, 0);
        let r = load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            0,
            0,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        // Another warp reads the same line 10 cycles later, before ready.
        let r2 = load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            4,
            10,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        assert_eq!(l1.stats.pending_hits, 1);
        assert_eq!(r2.ready, r.ready, "pending hit completes with the fill");
    }

    #[test]
    fn mshr_exhaustion_counts_reservation_fail() {
        let mut l1 = Cache::new(small_geom()); // 2 MSHRs
        let mut l2 = Cache::new(CacheGeom {
            bytes: 8192,
            line_bytes: 128,
            ways: 4,
            mshrs: 16,
        });
        let mut mem = mem_with(0, 1);
        let (mut mr, mut mw) = (0, 0);
        for i in 0..3u32 {
            load_via(
                &mut l1,
                &mut l2,
                &mut mem,
                i * 128,
                0,
                &lat(),
                &mut mr,
                &mut mw,
                None,
            );
        }
        assert_eq!(l1.stats.reservation_fails, 1);
    }

    #[test]
    fn store_write_through_keeps_l1_clean_and_dirties_l2() {
        let mut l1 = Cache::new(small_geom());
        let mut l2 = Cache::new(CacheGeom {
            bytes: 4096,
            line_bytes: 128,
            ways: 4,
            mshrs: 4,
        });
        let mut mem = mem_with(0, 0);
        let (mut mr, mut mw) = (0, 0);
        // Load first so the line is in both levels.
        load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            0,
            0,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        store_via(
            &mut l1,
            &mut l2,
            &mut mem,
            0,
            42,
            1000,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        let i1 = l1.probe(0).unwrap();
        assert!(!l1.line_dirty(i1), "write-through L1 stays clean");
        assert_eq!(l1.read_word(i1, 0), 42, "L1 copy updated");
        let i2 = l2.probe(0).unwrap();
        assert!(l2.line_dirty(i2), "L2 line dirtied");
        assert_eq!(l2.read_word(i2, 0), 42);
        assert_eq!(mem.read_u32(0), 0, "DRAM not yet updated (write-back L2)");
        let mut mw2 = 0;
        l2.writeback_all(&mut mem, &mut mw2);
        assert_eq!(mw2, 1);
        assert_eq!(mem.read_u32(0), 42);
    }

    #[test]
    fn store_miss_does_not_allocate_in_l1() {
        let mut l1 = Cache::new(small_geom());
        let mut l2 = Cache::new(CacheGeom {
            bytes: 4096,
            line_bytes: 128,
            ways: 4,
            mshrs: 4,
        });
        let mut mem = mem_with(0, 0);
        let (mut mr, mut mw) = (0, 0);
        store_via(
            &mut l1,
            &mut l2,
            &mut mem,
            0,
            9,
            0,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        assert_eq!(l1.probe(0), None, "no write-allocate in L1");
        assert!(l2.probe(0).is_some(), "write-allocate in L2");
    }

    #[test]
    fn clean_eviction_masks_injected_fault() {
        // The paper's Section V-B masking scenario: flip a bit in a clean
        // L1 line, evict it by loading conflicting lines, reload — the
        // fault is gone.
        let mut l1 = Cache::new(small_geom()); // 4 sets, 2 ways
        let mut l2 = Cache::new(CacheGeom {
            bytes: 16384,
            line_bytes: 128,
            ways: 8,
            mshrs: 16,
        });
        let mut mem = mem_with(0, 0x1111);
        let (mut mr, mut mw) = (0, 0);
        load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            0,
            0,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        let idx = l1.probe(0).unwrap();
        let byte_index = idx as u64 * 128;
        l1.flip_bit(byte_index, 1); // value becomes 0x1113
        let r = load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            0,
            1000,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        assert_eq!(r.value, 0x1113, "fault visible while resident");
        // Evict set 0 by loading two other lines mapping to it (lines 4, 8).
        load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            4 * 128,
            2000,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            8 * 128,
            3000,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        assert_eq!(l1.probe(0), None, "faulty line evicted");
        let r = load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            0,
            9000,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        assert_eq!(r.value, 0x1111, "clean eviction masked the fault");
    }

    #[test]
    fn dirty_l2_eviction_propagates_fault_to_dram() {
        // Converse scenario: a fault in a *dirty* L2 line is written back
        // and corrupts memory even though no instruction ever reads it.
        let geom = CacheGeom {
            bytes: 512,
            line_bytes: 128,
            ways: 2,
            mshrs: 4,
        }; // 2 sets
        let mut l1 = Cache::new(small_geom());
        let mut l2 = Cache::new(geom);
        let mut mem = mem_with(0, 0);
        let (mut mr, mut mw) = (0, 0);
        store_via(
            &mut l1,
            &mut l2,
            &mut mem,
            0,
            0x10,
            0,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        let idx = l2.probe(0).unwrap();
        l2.flip_bit(idx as u64 * 128, 0); // 0x10 -> 0x11
                                          // Evict line 0 from L2: load lines 2 and 4 (set 0 of 2 sets).
        load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            2 * 128,
            100,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            4 * 128,
            200,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        assert_eq!(
            mem.read_u32(0),
            0x11,
            "dirty write-back carried the flipped bit"
        );
        assert!(mw >= 1);
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
}
