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
use crate::stats::CacheStats;
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
    /// The current launch's counts: a timed launch zeroes them at its
    /// first cycle, and a snapshot keeps and restores them with the rest
    /// of the cache.
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

/// Fetch a full line into `l2` (if absent) and return `(way, ready)`.
#[allow(clippy::too_many_arguments)]
fn ensure_l2(
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
    l2.fill(victim, line_addr, mem.line(line_addr * lb, lb));
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

/// One access through an L1 (data or texture) backed by the shared L2 to
/// line `line_addr`, reading its word at byte `off`: the way that holds
/// the line afterwards, and the cycle its data is ready.
#[allow(clippy::too_many_arguments)]
fn load_via(
    l1: &mut Cache,
    l2: &mut Cache,
    mem: &mut GlobalMem,
    line_addr: u32,
    off: u32,
    now: u64,
    lat: &Latencies,
    mem_reads: &mut u64,
    mem_writes: &mut u64,
    mut probe: Option<&mut L1Probe<'_>>,
) -> (usize, u64) {
    let lb = l1.geom.line_bytes;
    debug_assert_eq!(lb, l2.geom.line_bytes, "uniform line size across levels");
    l1.stats.accesses += 1;
    if let Some(idx) = l1.lookup(line_addr) {
        let ready = match l1.mshr_ready(line_addr, now) {
            Some(r) => {
                l1.stats.pending_hits += 1;
                r
            }
            None => now + lat.l1_hit as u64,
        };
        if let Some(p) = probe {
            p.probe.access(p.l1, p.sm, l1.word(idx, off), now, false);
        }
        return (idx, ready);
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
    l1.fill(victim, line_addr, l2.line_data(l2_idx));
    if let Some(L1Probe { probe, l1: h, sm }) = probe {
        // The whole L2 line is read to service the L1 fill (conservative),
        // every word of the L1 victim is overwritten, and the requested
        // word is read immediately.
        let (h, sm) = (*h, *sm);
        probe.range(HwStructure::L2, 0, l2.word(l2_idx, 0), lb / 4, now, false);
        probe.range(h, sm, l1.word(victim, 0), lb / 4, now, true);
        probe.access(h, sm, l1.word(victim, off), now, false);
    }
    let mut ready = l2_ready + (lat.l1_hit as u64);
    if !l1.mshr_alloc(line_addr, ready, now) {
        l1.stats.reservation_fails += 1;
        ready += lat.mshr_fail as u64;
    }
    (victim, ready)
}

/// Load the lanes of `mask` of one warp instruction (`addrs[lane]` into
/// `out[lane]`) through an L1 (data or texture) backed by the shared L2.
/// The first lane on a line makes one access; later lanes on it read the
/// way that access resolved to, without touching LRU, unless a fill for
/// another lane's line has since replaced it — then the line is accessed
/// again. Returns the cycle the warp may proceed. The addresses must
/// already be validated.
#[allow(clippy::too_many_arguments)]
pub fn load_warp(
    l1: &mut Cache,
    l2: &mut Cache,
    mem: &mut GlobalMem,
    mask: u32,
    addrs: &[u32; WARP_SIZE],
    out: &mut [u32; WARP_SIZE],
    now: u64,
    lat: &Latencies,
    mem_reads: &mut u64,
    mem_writes: &mut u64,
    mut probe: Option<L1Probe<'_>>,
) -> u64 {
    let lb = l1.geom.line_bytes;
    // (line, way) of each distinct line so far.
    let mut lines = [(0u32, 0usize); WARP_SIZE];
    let mut n = 0usize;
    let mut ready_max = now;
    for lane in lanes_of(mask) {
        let (line, off) = (addrs[lane] / lb, addrs[lane] % lb);
        let known = lines[..n].iter().position(|&(l, _)| l == line);
        let way = match known {
            Some(i) if l1.holds(lines[i].1, line) => {
                if let Some(p) = probe.as_mut() {
                    p.probe
                        .access(p.l1, p.sm, l1.word(lines[i].1, off), now, false);
                }
                lines[i].1
            }
            _ => {
                let (way, ready) = load_via(
                    l1,
                    l2,
                    mem,
                    line,
                    off,
                    now,
                    lat,
                    mem_reads,
                    mem_writes,
                    probe.as_mut(),
                );
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
#[allow(clippy::too_many_arguments)]
pub fn store_warp(
    l1d: &mut Cache,
    l2: &mut Cache,
    mem: &mut GlobalMem,
    mask: u32,
    addrs: &[u32; WARP_SIZE],
    vals: &[u32; WARP_SIZE],
    now: u64,
    lat: &Latencies,
    mem_reads: &mut u64,
    mem_writes: &mut u64,
    mut probe: Option<L1Probe<'_>>,
) -> u64 {
    let lb = l1d.geom.line_bytes;
    // (line, L1D way, L2 way) of each distinct line so far.
    let mut lines = [(0u32, None, 0usize); WARP_SIZE];
    let mut n = 0usize;
    for lane in lanes_of(mask) {
        let (line, off) = (addrs[lane] / lb, addrs[lane] % lb);
        let i = match lines[..n].iter().position(|&(l, ..)| l == line) {
            Some(i) => i,
            None => {
                // One coalesced access per line for the statistics.
                l1d.stats.accesses += 1;
                let i1 = l1d.probe(line);
                if i1.is_none() {
                    l1d.stats.misses += 1; // write-through, no allocate
                }
                let (i2, _) = ensure_l2(
                    l2,
                    mem,
                    line,
                    now,
                    lat,
                    mem_reads,
                    mem_writes,
                    probe.as_mut().map(|p| &mut *p.probe),
                );
                lines[n] = (line, i1, i2);
                n += 1;
                n - 1
            }
        };
        if let Some(i1) = lines[i].1 {
            // Update in place; the line stays clean (write-through).
            l1d.use_way(i1);
            l1d.write_word(i1, off, vals[lane], false);
            if let Some(p) = probe.as_mut() {
                p.probe.access(p.l1, p.sm, l1d.word(i1, off), now, true);
            }
        }
        if !l2.holds(lines[i].2, line) {
            lines[i].2 = ensure_l2(
                l2,
                mem,
                line,
                now,
                lat,
                mem_reads,
                mem_writes,
                probe.as_mut().map(|p| &mut *p.probe),
            )
            .0;
        }
        let i2 = lines[i].2;
        l2.write_word(i2, off, vals[lane], true);
        if let Some(p) = probe.as_mut() {
            p.probe
                .access(HwStructure::L2, 0, l2.word(i2, off), now, true);
        }
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

    /// A one-lane [`load_warp`] of `addr`: the value and the ready cycle.
    fn load_word(
        l1: &mut Cache,
        l2: &mut Cache,
        mem: &mut GlobalMem,
        addr: u32,
        now: u64,
        mem_reads: &mut u64,
        mem_writes: &mut u64,
    ) -> (u32, u64) {
        let (mut addrs, mut out) = ([0; WARP_SIZE], [0; WARP_SIZE]);
        addrs[0] = addr;
        let ready = load_warp(
            l1,
            l2,
            mem,
            1,
            &addrs,
            &mut out,
            now,
            &lat(),
            mem_reads,
            mem_writes,
            None,
        );
        (out[0], ready)
    }

    /// A one-lane [`store_warp`] of `value` to `addr`.
    #[allow(clippy::too_many_arguments)]
    fn store_word(
        l1d: &mut Cache,
        l2: &mut Cache,
        mem: &mut GlobalMem,
        addr: u32,
        value: u32,
        now: u64,
        mem_reads: &mut u64,
        mem_writes: &mut u64,
    ) -> u64 {
        let (mut addrs, mut vals) = ([0; WARP_SIZE], [0; WARP_SIZE]);
        (addrs[0], vals[0]) = (addr, value);
        store_warp(
            l1d,
            l2,
            mem,
            1,
            &addrs,
            &vals,
            now,
            &lat(),
            mem_reads,
            mem_writes,
            None,
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
        let mut l2 = Cache::new(CacheGeom {
            bytes: 4096,
            line_bytes: 128,
            ways: 4,
            mshrs: 4,
        });
        let mut mem = mem_with(256, 0xabcd);
        let (mut mr, mut mw) = (0, 0);
        let r = load_word(&mut l1, &mut l2, &mut mem, 256, 0, &mut mr, &mut mw);
        assert_eq!(r.0, 0xabcd);
        assert!(r.1 >= 400, "miss pays DRAM latency");
        assert_eq!(l1.stats.misses, 1);
        assert_eq!(l2.stats.misses, 1);
        assert_eq!(mr, 1);

        // Second access after the fill completes: plain L1 hit.
        let r2 = load_word(&mut l1, &mut l2, &mut mem, 260, 10_000, &mut mr, &mut mw);
        assert_eq!(r2.0, 0);
        assert_eq!(r2.1, 10_000 + 30);
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
        let r = load_word(&mut l1, &mut l2, &mut mem, 0, 0, &mut mr, &mut mw);
        // Another warp reads the same line 10 cycles later, before ready.
        let r2 = load_word(&mut l1, &mut l2, &mut mem, 4, 10, &mut mr, &mut mw);
        assert_eq!(l1.stats.pending_hits, 1);
        assert_eq!(r2.1, r.1, "pending hit completes with the fill");
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
            load_word(&mut l1, &mut l2, &mut mem, i * 128, 0, &mut mr, &mut mw);
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
        load_word(&mut l1, &mut l2, &mut mem, 0, 0, &mut mr, &mut mw);
        store_word(&mut l1, &mut l2, &mut mem, 0, 42, 1000, &mut mr, &mut mw);
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
        let mut l2 = Cache::new(CacheGeom {
            bytes: 4096,
            line_bytes: 128,
            ways: 4,
            mshrs: 4,
        });
        let mut mem = mem_with(0, 0);
        let (mut mr, mut mw) = (0, 0);
        // A whole warp storing one 128-byte line: one coalesced access.
        let addrs = std::array::from_fn(|lane| lane as u32 * 4);
        let vals = std::array::from_fn(|lane| 9 + lane as u32);
        let ready = store_warp(
            &mut l1,
            &mut l2,
            &mut mem,
            u32::MAX,
            &addrs,
            &vals,
            0,
            &lat(),
            &mut mr,
            &mut mw,
            None,
        );
        assert_eq!(ready, 8, "a store costs the store latency");
        assert_eq!(l1.probe(0), None, "no write-allocate in L1");
        assert_eq!((l1.stats.accesses, l1.stats.misses), (1, 1));
        assert_eq!((l2.stats.accesses, l2.stats.misses), (1, 1));
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
        let mut l2 = Cache::new(CacheGeom {
            bytes: 16384,
            line_bytes: 128,
            ways: 8,
            mshrs: 16,
        });
        let mut mem = mem_with(0, 0x1111);
        let (mut mr, mut mw) = (0, 0);
        load_word(&mut l1, &mut l2, &mut mem, 0, 0, &mut mr, &mut mw);
        let idx = l1.probe(0).unwrap();
        let byte_index = idx as u64 * 128;
        l1.flip_mask(byte_index, 1 << 1); // value becomes 0x1113
        let r = load_word(&mut l1, &mut l2, &mut mem, 0, 1000, &mut mr, &mut mw);
        assert_eq!(r.0, 0x1113, "fault visible while resident");
        // Evict set 0 by loading two other lines mapping to it (lines 4, 8).
        load_word(&mut l1, &mut l2, &mut mem, 4 * 128, 2000, &mut mr, &mut mw);
        load_word(&mut l1, &mut l2, &mut mem, 8 * 128, 3000, &mut mr, &mut mw);
        assert_eq!(l1.probe(0), None, "faulty line evicted");
        let r = load_word(&mut l1, &mut l2, &mut mem, 0, 9000, &mut mr, &mut mw);
        assert_eq!(r.0, 0x1111, "clean eviction masked the fault");
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
        store_word(&mut l1, &mut l2, &mut mem, 0, 0x10, 0, &mut mr, &mut mw);
        let idx = l2.probe(0).unwrap();
        // 0x10 -> 0x11
        l2.flip_mask(idx as u64 * 128, 1);
        // Evict line 0 from L2: load lines 2 and 4 (set 0 of 2 sets).
        load_word(&mut l1, &mut l2, &mut mem, 2 * 128, 100, &mut mr, &mut mw);
        load_word(&mut l1, &mut l2, &mut mem, 4 * 128, 200, &mut mr, &mut mw);
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

    /// The per-lane loop [`load_warp`] replaced: a lane on a line an
    /// earlier lane accessed probes the set again, and accesses the line
    /// again if it is gone.
    #[allow(clippy::too_many_arguments)]
    fn load_lanes(
        l1: &mut Cache,
        l2: &mut Cache,
        mem: &mut GlobalMem,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
        now: u64,
        mem_reads: &mut u64,
        mem_writes: &mut u64,
        mut probe: Option<L1Probe<'_>>,
    ) -> u64 {
        let lb = l1.geom.line_bytes;
        let mut seen = Vec::new();
        let mut ready_max = now;
        for lane in lanes_of(mask) {
            let (line, off) = (addrs[lane] / lb, addrs[lane] % lb);
            if seen.contains(&line) {
                if let Some(idx) = l1.probe(line) {
                    if let Some(p) = probe.as_mut() {
                        p.probe.access(p.l1, p.sm, l1.word(idx, off), now, false);
                    }
                    out[lane] = l1.read_word(idx, off);
                    continue;
                }
            } else {
                seen.push(line);
            }
            let (way, ready) = load_via(
                l1,
                l2,
                mem,
                line,
                off,
                now,
                &lat(),
                mem_reads,
                mem_writes,
                probe.as_mut(),
            );
            out[lane] = l1.read_word(way, off);
            ready_max = ready_max.max(ready);
        }
        ready_max
    }

    /// The per-lane loop [`store_warp`] replaced: every lane looks its line
    /// up in the L1D and probes the L2 for it.
    #[allow(clippy::too_many_arguments)]
    fn store_lanes(
        l1d: &mut Cache,
        l2: &mut Cache,
        mem: &mut GlobalMem,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
        now: u64,
        mem_reads: &mut u64,
        mem_writes: &mut u64,
        mut probe: Option<L1Probe<'_>>,
    ) -> u64 {
        let lb = l1d.geom.line_bytes;
        let mut seen = Vec::new();
        for lane in lanes_of(mask) {
            let (line, off) = (addrs[lane] / lb, addrs[lane] % lb);
            let mut l2_access = |l2: &mut Cache, probe: &mut Option<L1Probe<'_>>| {
                let probe = probe.as_mut().map(|p| &mut *p.probe);
                ensure_l2(l2, mem, line, now, &lat(), mem_reads, mem_writes, probe).0
            };
            if !seen.contains(&line) {
                l1d.stats.accesses += 1;
                if l1d.probe(line).is_none() {
                    l1d.stats.misses += 1;
                }
                l2_access(l2, &mut probe);
                seen.push(line);
            }
            if let Some(i1) = l1d.lookup(line) {
                l1d.write_word(i1, off, vals[lane], false);
                if let Some(p) = probe.as_mut() {
                    p.probe.access(p.l1, p.sm, l1d.word(i1, off), now, true);
                }
            }
            let i2 = match l2.probe(line) {
                Some(i) => i,
                None => l2_access(l2, &mut probe),
            };
            l2.write_word(i2, off, vals[lane], true);
            if let Some(p) = probe.as_mut() {
                p.probe
                    .access(HwStructure::L2, 0, l2.word(i2, off), now, true);
            }
        }
        now + lat().store as u64
    }

    struct Collect(Vec<crate::probe::ProbeEvent>);

    impl crate::probe::TraceSink for Collect {
        fn consume(&mut self, batch: &[crate::probe::ProbeEvent]) {
            self.0.extend_from_slice(batch);
        }
    }

    /// A two-level hierarchy over a patterned arena, warmed up by one-lane
    /// loads of `warm`.
    struct Rig {
        l1: Cache,
        l2: Cache,
        mem: GlobalMem,
        mem_reads: u64,
        mem_writes: u64,
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
                mem_reads: 0,
                mem_writes: 0,
            };
            for (t, &addr) in (0..).zip(warm) {
                let Rig {
                    l1,
                    l2,
                    mem,
                    mem_reads,
                    mem_writes,
                } = &mut rig;
                load_word(l1, l2, mem, addr, t, mem_reads, mem_writes);
            }
            rig
        }

        /// Run `access` with a probe attached; what it returned and the
        /// probe events, in order.
        fn run<R>(
            &mut self,
            access: impl FnOnce(&mut Rig, L1Probe<'_>) -> R,
        ) -> (R, Vec<crate::probe::ProbeEvent>) {
            let sink = std::sync::Arc::new(std::sync::Mutex::new(Collect(Vec::new())));
            let mut probe = Probe::new(sink.clone());
            let l1 = L1Probe {
                probe: &mut probe,
                l1: HwStructure::L1D,
                sm: 0,
            };
            let r = access(self, l1);
            drop(probe);
            let events = std::mem::take(&mut sink.lock().unwrap().0);
            (r, events)
        }
    }

    /// Every bit of state an access may change: data, tags, valid and
    /// dirty bits, LRU ages, MSHR entries, stamp and statistics of both
    /// caches, the arena, and the DRAM counters.
    fn state(r: &Rig) -> impl PartialEq + std::fmt::Debug {
        let cache = |c: &Cache| {
            let arrays = (
                c.data.clone(),
                c.tags.clone(),
                c.valid.clone(),
                c.dirty.clone(),
            );
            (arrays, c.lru.clone(), c.mshr.clone(), c.stamp, c.stats)
        };
        let mem = r.mem.line(0, ARENA).to_vec();
        (cache(&r.l1), cache(&r.l2), mem, r.mem_reads, r.mem_writes)
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
            let (ready, events) = rig.run(|r, p| {
                let f = if lanes { load_lanes } else { load_warp_at };
                f(
                    &mut r.l1,
                    &mut r.l2,
                    &mut r.mem,
                    u32::MAX,
                    &addrs,
                    &mut out,
                    now,
                    &mut r.mem_reads,
                    &mut r.mem_writes,
                    Some(p),
                )
            });
            (ready, out, events, state(&rig))
        };
        assert_eq!(load(false), load(true), "load");
        let store = |lanes: bool| {
            let mut rig = Rig::new(l1.clone(), l2.clone(), warm);
            let (ready, events) = rig.run(|r, p| {
                let f = if lanes { store_lanes } else { store_warp_at };
                f(
                    &mut r.l1,
                    &mut r.l2,
                    &mut r.mem,
                    u32::MAX,
                    &addrs,
                    &vals,
                    now,
                    &mut r.mem_reads,
                    &mut r.mem_writes,
                    Some(p),
                )
            });
            (ready, events, state(&rig))
        };
        assert_eq!(store(false), store(true), "store");
    }

    /// [`load_warp`] and [`store_warp`] with the test latencies, in the
    /// shape of the per-lane references.
    #[allow(clippy::too_many_arguments)]
    fn load_warp_at(
        l1: &mut Cache,
        l2: &mut Cache,
        mem: &mut GlobalMem,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
        now: u64,
        mem_reads: &mut u64,
        mem_writes: &mut u64,
        probe: Option<L1Probe<'_>>,
    ) -> u64 {
        load_warp(
            l1,
            l2,
            mem,
            mask,
            addrs,
            out,
            now,
            &lat(),
            mem_reads,
            mem_writes,
            probe,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn store_warp_at(
        l1d: &mut Cache,
        l2: &mut Cache,
        mem: &mut GlobalMem,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
        now: u64,
        mem_reads: &mut u64,
        mem_writes: &mut u64,
        probe: Option<L1Probe<'_>>,
    ) -> u64 {
        store_warp(
            l1d,
            l2,
            mem,
            mask,
            addrs,
            vals,
            now,
            &lat(),
            mem_reads,
            mem_writes,
            probe,
        )
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
