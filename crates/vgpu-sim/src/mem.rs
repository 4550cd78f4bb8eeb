//! Global (device) memory: the DRAM arena plus the mapped-range table used
//! to detect illegal accesses.
//!
//! Host code allocates buffers through [`ArenaPlanner`], which leaves guard
//! gaps between allocations and starts above address 0 so that
//! fault-corrupted pointers (including null-ish ones) are likely to land in
//! unmapped territory and be classified as DUEs, as on real hardware.

use crate::due::DueKind;
use crate::exec::lanes_of;
use crate::snapshot::{Capture, Walk};
use vgpu_arch::WARP_SIZE;

/// log2 of the address granule (64 bytes) of a read-footprint bitmap:
/// coarse enough that a CTA's footprint is a handful of bitmap words, fine
/// enough that two of [`ArenaPlanner`]'s 256-byte-aligned buffers never
/// share a granule.
pub const GRANULE_SHIFT: u32 = 6;

/// Position of `addr`'s granule in a granule bitmap (one bit per granule,
/// 32 per word): `(word index, bit mask)`.
#[inline]
pub fn granule_bit(addr: u32) -> (usize, u32) {
    let g = addr >> GRANULE_SHIFT;
    ((g / 32) as usize, 1 << (g % 32))
}

/// Whether the word at `addr` lies entirely in `[start, end)`.
#[inline]
fn word_in(addr: u32, (start, end): (u32, u32)) -> bool {
    start <= addr && addr as u64 + 4 <= end as u64
}

/// Words of a granule bitmap ([`granule_bit`]) covering `bytes` bytes.
pub(crate) fn granule_words(bytes: usize) -> usize {
    bytes.div_ceil(1 << GRANULE_SHIFT).div_ceil(32)
}

/// A granule bitmap over byte offsets into one flat array of the timed
/// machine: the granules written since the machine was last synchronised
/// with a snapshot (`crate::snapshot`). A clear bit promises the granule
/// still holds that snapshot's bytes, so every mutation of a tracked
/// array marks here first.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirtyMap {
    bits: Vec<u32>,
}

impl DirtyMap {
    /// An all-clean map over an array of `bytes` bytes.
    pub fn new(bytes: usize) -> Self {
        DirtyMap {
            bits: vec![0; granule_words(bytes)],
        }
    }

    /// Mark the granule holding byte `off`.
    #[inline]
    pub fn mark(&mut self, off: u32) {
        let (w, bit) = granule_bit(off);
        self.bits[w] |= bit;
    }

    /// `(word index, bit mask)` of every bitmap word overlapping
    /// `[off, off + len)`; `len > 0`.
    fn span(off: u32, len: u32) -> impl Iterator<Item = (usize, u32)> {
        let (g0, g1) = (off >> GRANULE_SHIFT, (off + len - 1) >> GRANULE_SHIFT);
        (g0 / 32..=g1 / 32).map(move |w| {
            let lo = if w == g0 / 32 { g0 % 32 } else { 0 };
            let hi = if w == g1 / 32 { g1 % 32 } else { 31 };
            (w as usize, (!0u32 >> (31 - hi)) & (!0u32 << lo))
        })
    }

    /// Mark every granule overlapping `[off, off + len)`.
    pub fn mark_range(&mut self, off: u32, len: u32) {
        for (w, mask) in Self::span(off, len) {
            self.bits[w] |= mask;
        }
    }

    /// Whether any granule overlapping `[off, off + len)` is marked; the
    /// range may run past the end of the array.
    pub fn any(&self, off: u32, len: u32) -> bool {
        Self::span(off, len).any(|(w, mask)| self.bits.get(w).is_some_and(|b| b & mask != 0))
    }

    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// The raw bitmap, 32 granules per word.
    pub fn words(&self) -> &[u32] {
        &self.bits
    }
}

/// Device memory arena with a mapped-range table.
#[derive(Debug, Clone)]
pub struct GlobalMem {
    data: Vec<u8>,
    /// Sorted, disjoint `[start, end)` mapped ranges.
    mapped: Vec<(u32, u32)>,
    /// Arena granules written on the timed path since the last snapshot
    /// synchronisation. [`GlobalMem::write_u32`] — the functional engine's
    /// store — deliberately does not mark.
    dirty: DirtyMap,
}

/// Same bytes and same mapping; dirty marks are bookkeeping.
impl PartialEq for GlobalMem {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data && self.mapped == other.mapped
    }
}

impl Eq for GlobalMem {}

impl GlobalMem {
    /// Create an arena of `size` bytes, all initially unmapped.
    pub fn new(size: u32) -> Self {
        GlobalMem {
            data: vec![0u8; size as usize],
            mapped: Vec::new(),
            dirty: DirtyMap::new(size as usize),
        }
    }

    /// Total arena size in bytes.
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Words of a granule bitmap ([`granule_bit`]) covering the arena.
    pub fn granule_words(&self) -> usize {
        granule_words(self.data.len())
    }

    /// Mark `[start, start+len)` as a valid allocation. Ranges must not
    /// overlap existing ones and must lie within the arena.
    pub fn map(&mut self, start: u32, len: u32) {
        let end = start
            .checked_add(len)
            .expect("mapping overflows address space");
        assert!(end as usize <= self.data.len(), "mapping outside arena");
        let pos = self.mapped.partition_point(|&(s, _)| s < start);
        if pos > 0 {
            assert!(self.mapped[pos - 1].1 <= start, "overlapping mapping");
        }
        if pos < self.mapped.len() {
            assert!(end <= self.mapped[pos].0, "overlapping mapping");
        }
        self.mapped.insert(pos, (start, end));
    }

    /// The mapped range `[start, end)` holding the whole word at `addr`.
    fn range_of_word(&self, addr: u32) -> Option<(u32, u32)> {
        let pos = self.mapped.partition_point(|&(_, e)| e <= addr);
        let &(s, e) = self.mapped.get(pos)?;
        word_in(addr, (s, e)).then_some((s, e))
    }

    /// True if the aligned word at `addr` lies entirely in a mapped range.
    pub fn is_mapped_word(&self, addr: u32) -> bool {
        self.range_of_word(addr).is_some()
    }

    /// Validate a warp's device word accesses, the lanes of `mask` in
    /// ascending order, alignment then mapping: the first bad lane's DUE.
    /// A lane inside the previous lane's mapped range skips the table
    /// search.
    pub fn check_warp(&self, mask: u32, addrs: &[u32; WARP_SIZE]) -> Result<(), DueKind> {
        let mut range = (0, 0);
        for lane in lanes_of(mask) {
            let addr = addrs[lane];
            if !addr.is_multiple_of(4) {
                return Err(DueKind::Misaligned { addr });
            }
            if !word_in(addr, range) {
                range = self
                    .range_of_word(addr)
                    .ok_or(DueKind::IllegalAddress { addr })?;
            }
        }
        Ok(())
    }

    /// Load one word per lane of `mask` into `out`, after
    /// [`GlobalMem::check_warp`]'s checks.
    pub fn read_warp(
        &self,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
    ) -> Result<(), DueKind> {
        if let Some(row) = self.row_span(mask, addrs) {
            for (o, w) in out.iter_mut().zip(self.data[row].chunks_exact(4)) {
                *o = u32::from_le_bytes(w.try_into().expect("a word is 4 bytes"));
            }
            return Ok(());
        }
        self.check_warp(mask, addrs)?;
        for lane in lanes_of(mask) {
            out[lane] = self.read_u32(addrs[lane]);
        }
        Ok(())
    }

    /// Store one word per lane of `mask` from `vals`, after
    /// [`GlobalMem::check_warp`]'s checks, in ascending lane order.
    pub fn write_warp(
        &mut self,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
    ) -> Result<(), DueKind> {
        if let Some(row) = self.row_span(mask, addrs) {
            for (w, v) in self.data[row].chunks_exact_mut(4).zip(vals) {
                w.copy_from_slice(&v.to_le_bytes());
            }
            return Ok(());
        }
        self.check_warp(mask, addrs)?;
        for lane in lanes_of(mask) {
            self.write_u32(addrs[lane], vals[lane]);
        }
        Ok(())
    }

    /// The bytes of a full warp whose lanes address 32 consecutive
    /// aligned words, ascending, in one mapped range: no lane can fault,
    /// so the row moves as one piece.
    fn row_span(&self, mask: u32, addrs: &[u32; WARP_SIZE]) -> Option<std::ops::Range<usize>> {
        let base = addrs[0];
        let consecutive = (0..WARP_SIZE).fold(mask == u32::MAX, |ok, l| {
            ok & (addrs[l] == base.wrapping_add(4 * l as u32))
        });
        if !consecutive || !base.is_multiple_of(4) {
            return None;
        }
        let (_, end) = self.range_of_word(base)?;
        let row_end = base as u64 + 4 * WARP_SIZE as u64;
        (row_end <= end as u64).then_some(base as usize..row_end as usize)
    }

    /// Read a word (caller must have validated the access).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let i = addr as usize;
        u32::from_le_bytes(self.data[i..i + 4].try_into().unwrap())
    }

    /// Write a word (caller must have validated the access).
    #[inline]
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        let i = addr as usize;
        self.data[i..i + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Raw byte view of a line for cache fills (no mapping check: caches
    /// may fetch whole lines that straddle guard gaps; only architectural
    /// accesses are checked).
    pub fn line(&self, addr: u32, len: u32) -> &[u8] {
        &self.data[addr as usize..(addr + len) as usize]
    }

    /// Write a line back from a cache.
    pub fn write_line(&mut self, addr: u32, bytes: &[u8]) {
        self.dirty.mark_range(addr, bytes.len() as u32);
        self.data[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
    }

    /// Host-side word write: [`GlobalMem::write_u32`] plus the dirty mark
    /// that snapshot restore and compare rely on.
    pub fn host_write_u32(&mut self, addr: u32, v: u32) {
        self.dirty.mark(addr);
        self.write_u32(addr, v);
    }

    /// Zero the whole arena, keeping the mapped-range table. Scratch-reuse
    /// helper: a recycled arena must start from the same all-zero bytes a
    /// fresh [`GlobalMem::new`] would have.
    pub fn clear_data(&mut self) {
        self.data.fill(0);
    }

    /// Append the arena's chunk indices to a snapshot being captured.
    pub(crate) fn capture(&self, cap: &mut Capture<'_>) {
        cap.array(&self.data, &self.dirty, 1);
    }

    /// Bring the arena to the snapshot `w` walks and mark it clean.
    pub(crate) fn restore(&mut self, w: &mut Walk<'_>) {
        w.restore(&mut self.data, &self.dirty, 1);
        self.dirty.clear();
    }

    /// Whether the arena holds the bytes of the snapshot `w` walks.
    pub(crate) fn same(&self, w: &mut Walk<'_>) -> bool {
        w.same(&self.data, &self.dirty, 1, |_| true)
    }

    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.clear();
    }
}

/// Bump allocator producing guarded, 256-byte-aligned device allocations.
#[derive(Debug)]
pub struct ArenaPlanner {
    cursor: u32,
    guard: u32,
    regions: Vec<(u32, u32)>,
}

impl ArenaPlanner {
    /// Allocations start at `base` (kept well above zero).
    pub fn new() -> Self {
        ArenaPlanner {
            cursor: 0x1000,
            guard: 512,
            regions: Vec::new(),
        }
    }

    /// Reserve `bytes` of device memory; returns the base address.
    pub fn alloc(&mut self, bytes: u32) -> u32 {
        assert!(bytes > 0, "zero-size allocation");
        let base = self.cursor;
        let len = bytes.div_ceil(4) * 4;
        self.regions.push((base, len));
        // 256-byte alignment keeps buffers line-aligned in the caches.
        self.cursor = (base + len + self.guard).div_ceil(256) * 256;
        base
    }

    /// Whether `mem` has exactly the arena size and mapped-range table
    /// [`ArenaPlanner::build`] would produce right now — the condition for
    /// recycling an existing arena (after [`GlobalMem::clear_data`])
    /// instead of allocating a fresh one.
    pub fn builds_layout_of(&self, mem: &GlobalMem) -> bool {
        let size = (self.cursor + 0x1000).div_ceil(4096) * 4096;
        mem.size() == size
            && mem.mapped.len() == self.regions.len()
            && self
                .regions
                .iter()
                .map(|&(s, l)| (s, s + l))
                .eq(mem.mapped.iter().copied())
    }

    /// Build the arena: size it to the high-water mark (plus slack) and map
    /// every allocation.
    pub fn build(self) -> GlobalMem {
        let size = (self.cursor + 0x1000).div_ceil(4096) * 4096;
        let mut m = GlobalMem::new(size);
        for (s, l) in self.regions {
            m.map(s, l);
        }
        m
    }
}

impl Default for ArenaPlanner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_check() {
        let mut m = GlobalMem::new(4096);
        m.map(256, 64);
        assert!(m.is_mapped_word(256));
        assert!(m.is_mapped_word(316)); // 256 + 60: last full word
        assert!(!m.is_mapped_word(318));
        assert!(!m.is_mapped_word(200));
        let one = |addr| m.check_warp(1, &[addr; WARP_SIZE]);
        assert!(one(256).is_ok());
        assert_eq!(one(258), Err(DueKind::Misaligned { addr: 258 }));
        assert_eq!(one(512), Err(DueKind::IllegalAddress { addr: 512 }));
    }

    #[test]
    fn warp_check_reports_the_first_bad_lane() {
        let mut m = GlobalMem::new(4096);
        m.map(256, 64);
        m.map(1024, 64);
        // Lanes alternate between the two ranges, then leave them.
        let mut addrs: [u32; WARP_SIZE] =
            std::array::from_fn(|l| [256, 1024][l % 2] + (l as u32 / 2) * 4);
        assert!(m.check_warp(u32::MAX, &addrs).is_ok());
        addrs[5] = 320; // one word past the first range
        addrs[9] = 3;
        assert_eq!(
            m.check_warp(u32::MAX, &addrs),
            Err(DueKind::IllegalAddress { addr: 320 })
        );
        assert_eq!(
            m.check_warp(!0x20, &addrs),
            Err(DueKind::Misaligned { addr: 3 })
        );
        assert!(m.check_warp(0x5f, &addrs).is_ok(), "bad lanes masked off");
        assert_eq!(
            m.check_warp(0x3, &[316; WARP_SIZE]),
            Ok(()),
            "a range's last word"
        );
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_map_panics() {
        let mut m = GlobalMem::new(4096);
        m.map(0, 128);
        m.map(64, 128);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GlobalMem::new(4096);
        m.map(0, 128);
        m.write_u32(8, 0xdead_beef);
        assert_eq!(m.read_u32(8), 0xdead_beef);
        assert_eq!(m.read_u32(12), 0);
    }

    #[test]
    fn planner_leaves_guard_gaps() {
        let mut p = ArenaPlanner::new();
        let a = p.alloc(100);
        let b = p.alloc(16);
        assert!(b >= a + 100 + 512, "guard gap enforced");
        assert_eq!(a % 256, 0);
        assert_eq!(b % 256, 0);
        let m = p.build();
        assert!(m.is_mapped_word(a));
        assert!(m.is_mapped_word(b));
        // Guard gap between them is unmapped.
        assert!(!m.is_mapped_word(a + 104));
    }

    #[test]
    fn line_fill_roundtrip() {
        let mut m = GlobalMem::new(4096);
        m.map(0, 256);
        m.write_u32(128, 0x11223344);
        let line: Vec<u8> = m.line(128, 128).to_vec();
        assert_eq!(&line[0..4], &0x11223344u32.to_le_bytes());
        let mut edited = line.clone();
        edited[4] = 0xff;
        m.write_line(128, &edited);
        assert_eq!(m.read_u32(132), 0xff);
    }
}
