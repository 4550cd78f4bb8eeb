//! Snapshots of the timed machine — the mechanism behind the golden-prefix
//! fast-forward for injection campaigns — held in a **chunk store** so that
//! a snapshot costs what changed, not what exists.
//!
//! A snapshot is the complete machine state at one point of a golden run:
//! device memory, the L1D/L1T/L2 arrays with their tags / valid / dirty
//! bits / LRU ages, every SM's register file and shared memory, and the
//! small scalars (MSHRs, warp contexts, CTA scheduling state, statistics).
//! The [`ChunkStore`] keeps the flat arrays as fixed-size chunks in one
//! append-only pool and, per snapshot, a table of chunk indices over them;
//! a chunk unchanged since the previous capture reuses the previous index,
//! so a set of snapshots of one run shares almost all of its bytes. The
//! scalars are kept verbatim.
//!
//! A [`Machine`] remembers which snapshot it was last synchronised with
//! (captured into or restored from) and marks every granule it writes
//! afterwards ([`crate::mem::DirtyMap`]). Restoring it to another snapshot
//! of the same store copies only the chunks that are dirty or whose index
//! differs between the two tables, and comparing it with one looks at only
//! those chunks. A restored machine equals the snapshot bit for bit, so a
//! run resumed from a snapshot at cycle `X` is bit-identical — outputs,
//! statistics, cycle count, DUE behaviour — to an uninterrupted run
//! passing through `X`.
//!
//! Injection trials exploit this in two ways (see `docs/PERF.md`):
//!
//! * **Fast-forward**: a fault at cycle `c` leaves everything before `c`
//!   equal to the golden run, so the trial resumes from the nearest
//!   golden snapshot at-or-before `c` instead of simulating from cycle 0.
//! * **Early masked-convergence exit**: after the flip, the disturbed
//!   machine is periodically compared against the golden snapshot at the
//!   same cycle; architectural equality means the remaining execution is
//!   bit-identical to golden, so the launch retires early with the golden
//!   suffix credited ([`ConvergeWith`]).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::{Cache, CacheScalars};
use crate::config::CacheGeom;
use crate::mem::{DirtyMap, GlobalMem, GRANULE_SHIFT};
use crate::stats::Stats;
use crate::timed::{EngineScalars, LaunchScalars, SmState};

/// Bytes per chunk: four granules, so one dirty-bitmap word covers eight
/// chunks of a byte array. Small enough that a store or a line fill
/// dirties little, large enough that an index table is 1/64 of what it
/// indexes.
pub(crate) const CHUNK_BYTES: usize = 4 << GRANULE_SHIFT;

/// An element type of the machine's flat arrays, with its pool.
pub(crate) trait Elem: Copy + PartialEq + Default {
    /// Elements per chunk.
    const LEN: usize = CHUNK_BYTES / std::mem::size_of::<Self>();
    fn pool(p: &Pools) -> &Pool<Self>;
    fn pool_mut(p: &mut Pools) -> &mut Pool<Self>;
}

/// Append-only pool of `T::LEN`-element chunks. Chunk 0 is all zeros
/// (`T::default()`), so untouched state costs a table entry, not bytes.
#[derive(Debug)]
pub(crate) struct Pool<T> {
    data: Vec<T>,
}

impl<T: Elem> Pool<T> {
    fn new() -> Self {
        Pool {
            data: vec![T::default(); T::LEN],
        }
    }

    fn chunk(&self, idx: u32) -> &[T] {
        let at = idx as usize * T::LEN;
        &self.data[at..at + T::LEN]
    }

    /// The index of a chunk holding `part` (a tail chunk may be short; it
    /// is padded with zeros).
    fn intern(&mut self, part: &[T]) -> u32 {
        if *part == self.chunk(0)[..part.len()] {
            return 0;
        }
        let idx = self.data.len() / T::LEN;
        self.data.extend_from_slice(part);
        self.data.resize((idx + 1) * T::LEN, T::default());
        u32::try_from(idx).expect("chunk pool outgrew its 32-bit indices")
    }

    fn heap_bytes(&self) -> u64 {
        (self.data.capacity() * std::mem::size_of::<T>()) as u64
    }
}

/// One pool per element type of the machine's arrays.
#[derive(Debug)]
pub(crate) struct Pools {
    bytes: Pool<u8>,
    words: Pool<u32>,
    ages: Pool<u64>,
    flags: Pool<bool>,
}

macro_rules! elem {
    ($t:ty, $field:ident) => {
        impl Elem for $t {
            fn pool(p: &Pools) -> &Pool<Self> {
                &p.$field
            }
            fn pool_mut(p: &mut Pools) -> &mut Pool<Self> {
                &mut p.$field
            }
        }
    };
}
elem!(u8, bytes);
elem!(u32, words);
elem!(u64, ages);
elem!(bool, flags);

/// Handle of one snapshot in its [`ChunkStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapId(u32);

#[derive(Debug)]
struct Snap {
    /// Chunk index of every chunk of every array, in machine walk order.
    table: Vec<u32>,
    /// L1Ds, L1Ts, then the L2.
    caches: Vec<CacheScalars>,
    /// Mid-launch snapshots only.
    engine: Option<EngineScalars>,
}

/// The snapshots of one golden run (or a single one): chunk pool, one
/// index table per snapshot, scalars verbatim. Append-only, so handles and
/// the tables behind them stay valid for the store's life.
#[derive(Debug)]
pub struct ChunkStore {
    /// Process-unique: a [`Machine`]'s synchronisation point names the
    /// store as well as the snapshot.
    id: u64,
    pools: Pools,
    snaps: Vec<Snap>,
    /// Length of every array in walk order, fixed by the first capture:
    /// all snapshots of a store are of one machine shape.
    shape: Vec<usize>,
    /// Table position and geometry of the L2, for [`ChunkStore::host_word`].
    l2: Option<(usize, CacheGeom)>,
    /// Chunks appended to the pools (the rest of the table entries share
    /// an earlier chunk).
    owned: u64,
}

impl Default for ChunkStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkStore {
    pub fn new() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        ChunkStore {
            // Relaxed: the counter only hands out distinct numbers.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            pools: Pools {
                bytes: Pool::new(),
                words: Pool::new(),
                ages: Pool::new(),
                flags: Pool::new(),
            },
            snaps: Vec::new(),
            shape: Vec::new(),
            l2: None,
            owned: 0,
        }
    }

    /// Snapshots held.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// Cycle (within its launch) at which a mid-launch snapshot was
    /// captured; `None` for a launch-boundary snapshot.
    pub fn cycle(&self, id: SnapId) -> Option<u64> {
        self.snap(id).engine.as_ref().map(|e| e.launch.cycle)
    }

    /// `(owned, shared)`: chunks this store holds bytes for, and table
    /// entries that point at a chunk an earlier entry already owns (or at
    /// the zero chunk).
    pub fn chunks(&self) -> (u64, u64) {
        let entries: u64 = self.snaps.iter().map(|s| s.table.len() as u64).sum();
        (self.owned, entries - self.owned)
    }

    /// Exact heap footprint in bytes: pools, index tables and scalars, at
    /// their allocated capacities.
    pub fn heap_bytes(&self) -> u64 {
        let p = &self.pools;
        let pools = p.bytes.heap_bytes()
            + p.words.heap_bytes()
            + p.ages.heap_bytes()
            + p.flags.heap_bytes();
        let per_snap = |s: &Snap| {
            (s.table.capacity() * 4 + s.caches.capacity() * std::mem::size_of::<CacheScalars>())
                as u64
                + s.caches.iter().map(CacheScalars::heap_bytes).sum::<u64>()
                + s.engine.as_ref().map_or(0, EngineScalars::heap_bytes)
        };
        pools
            + (self.snaps.capacity() * std::mem::size_of::<Snap>()
                + self.shape.capacity() * std::mem::size_of::<usize>()) as u64
            + self.snaps.iter().map(per_snap).sum::<u64>()
    }

    /// Give back the growth slack of the pools once capture is complete.
    pub fn shrink_to_fit(&mut self) {
        self.pools.bytes.data.shrink_to_fit();
        self.pools.words.data.shrink_to_fit();
        self.pools.ages.data.shrink_to_fit();
        self.pools.flags.data.shrink_to_fit();
        self.snaps.shrink_to_fit();
    }

    fn snap(&self, id: SnapId) -> &Snap {
        &self.snaps[id.0 as usize]
    }

    pub(crate) fn launch_scalars(&self, id: SnapId) -> &LaunchScalars {
        &self
            .snap(id)
            .engine
            .as_ref()
            .expect("a mid-launch snapshot")
            .launch
    }

    /// Cache scalars of snapshot `id`: `(L1Ds then L1Ts, L2)`.
    pub(crate) fn cache_scalars(&self, id: SnapId) -> (&[CacheScalars], &CacheScalars) {
        let (l2, l1s) = self.snap(id).caches.split_last().expect("an L2");
        (l1s, l2)
    }

    /// Element `i` of the array whose chunks start at table position `at`.
    fn elem<T: Elem>(&self, table: &[u32], at: usize, i: usize) -> T {
        T::pool(&self.pools).chunk(table[at + i / T::LEN])[i % T::LEN]
    }

    /// What a coherent host read of the aligned word at `addr` returns on
    /// a machine in the state of snapshot `id`: the L2's copy if resident,
    /// else device memory — without restoring anything.
    pub fn host_word(&self, id: SnapId, addr: u32) -> u32 {
        let table = &self.snap(id).table[..];
        let (data_at, g) = self.l2.as_ref().expect("a captured snapshot");
        let chunks = |len: u32, per: usize| (len as usize).div_ceil(per);
        let tags_at = data_at + chunks(g.bytes, u8::LEN);
        let valid_at = tags_at + chunks(g.lines(), u32::LEN);
        let line = addr / g.line_bytes;
        let first_way = ((line % g.sets()) * g.ways) as usize;
        let way = (first_way..first_way + g.ways as usize).find(|&w| {
            self.elem::<bool>(table, valid_at, w) && self.elem::<u32>(table, tags_at, w) == line
        });
        // The arena is the first array of the walk.
        let (at, byte) = match way {
            Some(w) => (
                *data_at,
                w * g.line_bytes as usize + (addr % g.line_bytes) as usize,
            ),
            None => (0, addr as usize),
        };
        let chunk = self.pools.bytes.chunk(table[at + byte / CHUNK_BYTES]);
        let b = byte % CHUNK_BYTES;
        u32::from_le_bytes(chunk[b..b + 4].try_into().expect("an aligned word"))
    }
}

/// Call `visit(c)` for every chunk `c < n` of the array at table position
/// `pos` that may differ between a machine synchronised with `from` and
/// the table `to`: chunks with a dirty granule, and chunks whose index
/// differs between the two tables. With no `from` (a machine not
/// synchronised with this store) that is every chunk. Stops early, and
/// returns `false`, as soon as `visit` does.
fn for_candidates(
    from: Option<&[u32]>,
    to: &[u32],
    pos: usize,
    n: usize,
    dirty: &DirtyMap,
    map_bytes_per_chunk: u32,
    mut visit: impl FnMut(usize) -> bool,
) -> bool {
    let Some(from) = from else {
        return (0..n).all(visit);
    };
    let (from, to) = (&from[pos..pos + n], &to[pos..pos + n]);
    if map_bytes_per_chunk as usize == CHUNK_BYTES {
        // Byte and word arrays, where nearly all chunks are: one bitmap
        // word spans eight chunks, and a clean word over equal indices
        // skips them in one step.
        for (w, &bits) in dirty.words().iter().enumerate() {
            let lo = w * 8;
            if lo >= n {
                break;
            }
            let hi = (lo + 8).min(n);
            if bits == 0 && from[lo..hi] == to[lo..hi] {
                continue;
            }
            for c in lo..hi {
                let marked = (bits >> (4 * (c - lo))) & 0xF != 0;
                if (marked || from[c] != to[c]) && !visit(c) {
                    return false;
                }
            }
        }
        return true;
    }
    (0..n).all(|c| {
        let clean =
            from[c] == to[c] && !dirty.any(c as u32 * map_bytes_per_chunk, map_bytes_per_chunk);
        clean || visit(c)
    })
}

/// One snapshot being captured: appends the chunk indices of each array
/// handed to [`Capture::array`], in walk order.
pub(crate) struct Capture<'a> {
    pools: &'a mut Pools,
    /// Table of the snapshot the machine is synchronised with, if it is
    /// one of this store's.
    from: Option<&'a [u32]>,
    /// Table of the store's latest snapshot, whose indices are reused.
    prev: Option<&'a [u32]>,
    shape: &'a mut Vec<usize>,
    first: bool,
    arrays: usize,
    table: Vec<u32>,
    owned: u64,
}

impl Capture<'_> {
    /// Append `arr`. `dirty` covers it at `map_bytes_per_elem` bytes of
    /// the map per element.
    pub(crate) fn array<T: Elem>(&mut self, arr: &[T], dirty: &DirtyMap, map_bytes_per_elem: u32) {
        if self.first {
            self.shape.push(arr.len());
        }
        assert_eq!(
            self.shape.get(self.arrays),
            Some(&arr.len()),
            "snapshot of a different machine shape"
        );
        self.arrays += 1;
        let pool = T::pool_mut(self.pools);
        let pos = self.table.len();
        let Some(prev) = self.prev else {
            // A store's first snapshot is a whole machine image (unless it
            // is all zeros, when later snapshots grow into the room).
            pool.data.reserve(arr.len());
            for part in arr.chunks(T::LEN) {
                let idx = pool.intern(part);
                self.owned += u64::from(idx != 0);
                self.table.push(idx);
            }
            return;
        };
        let n = arr.len().div_ceil(T::LEN);
        self.table.extend_from_slice(&prev[pos..pos + n]);
        let (table, owned) = (&mut self.table, &mut self.owned);
        for_candidates(
            self.from,
            prev,
            pos,
            n,
            dirty,
            map_bytes_per_elem * T::LEN as u32,
            |c| {
                let part = &arr[c * T::LEN..arr.len().min((c + 1) * T::LEN)];
                if pool.chunk(prev[pos + c])[..part.len()] != *part {
                    let idx = pool.intern(part);
                    *owned += u64::from(idx != 0);
                    table[pos + c] = idx;
                }
                true
            },
        );
    }
}

/// A walk over one snapshot's table in machine order, restoring a machine
/// to it or comparing a machine with it, array by array.
pub(crate) struct Walk<'a> {
    pools: &'a Pools,
    /// Table of the snapshot the machine is synchronised with, if it is
    /// one of this store's; `None` makes every chunk a candidate.
    from: Option<&'a [u32]>,
    to: &'a [u32],
    shape: &'a [usize],
    arrays: usize,
    pos: usize,
    /// Bytes copied by [`Walk::restore`].
    bytes: u64,
}

impl Walk<'_> {
    /// Table position of the next array of `len` elements; steps past it.
    fn next<T: Elem>(&mut self, len: usize) -> (usize, usize) {
        assert_eq!(
            self.shape.get(self.arrays),
            Some(&len),
            "snapshot of a different machine shape"
        );
        self.arrays += 1;
        let n = len.div_ceil(T::LEN);
        let pos = self.pos;
        self.pos += n;
        (pos, n)
    }

    pub(crate) fn skip<T: Elem>(&mut self, arr: &[T]) {
        self.next::<T>(arr.len());
    }

    /// Make `arr` hold the snapshot's bytes.
    pub(crate) fn restore<T: Elem>(
        &mut self,
        arr: &mut [T],
        dirty: &DirtyMap,
        map_bytes_per_elem: u32,
    ) {
        let (pos, n) = self.next::<T>(arr.len());
        let (pool, to, len) = (T::pool(self.pools), self.to, arr.len());
        let mut copied = 0;
        for_candidates(
            self.from,
            to,
            pos,
            n,
            dirty,
            map_bytes_per_elem * T::LEN as u32,
            |c| {
                let (lo, hi) = (c * T::LEN, len.min((c + 1) * T::LEN));
                arr[lo..hi].copy_from_slice(&pool.chunk(to[pos + c])[..hi - lo]);
                copied += hi - lo;
                true
            },
        );
        self.bytes += (copied * std::mem::size_of::<T>()) as u64;
    }

    /// Whether `arr` equals the snapshot in every element `live` cares
    /// about.
    pub(crate) fn same<T: Elem>(
        &mut self,
        arr: &[T],
        dirty: &DirtyMap,
        map_bytes_per_elem: u32,
        live: impl Fn(usize) -> bool,
    ) -> bool {
        let (pos, n) = self.next::<T>(arr.len());
        let (pool, to) = (T::pool(self.pools), self.to);
        for_candidates(
            self.from,
            to,
            pos,
            n,
            dirty,
            map_bytes_per_elem * T::LEN as u32,
            |c| {
                let lo = c * T::LEN;
                let part = &arr[lo..arr.len().min(lo + T::LEN)];
                let gold = &pool.chunk(to[pos + c])[..part.len()];
                part == gold
                    || part
                        .iter()
                        .zip(gold)
                        .enumerate()
                        .all(|(i, (a, b))| a == b || !live(lo + i))
            },
        )
    }
}

/// What [`Machine::same`] compares.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scope {
    /// Mid-launch architectural equality: dead state — stale RF/SMEM
    /// words of free CTA slots (`regs`/`smem_words` per slot), invalid
    /// cache lines, statistics — excluded.
    Engine {
        regs_per_cta: usize,
        smem_words_per_cta: usize,
    },
    /// Launch-boundary architectural equality: device memory and the L2;
    /// the L1s must hold nothing, and RF/SMEM died with the grid.
    Device,
    /// Bit-for-bit identity with the snapshot's full image.
    Image,
}

/// Everything a snapshot covers: the device (global memory + cache
/// hierarchy) and the SMs' register files and shared memories, plus the
/// snapshot the lot was last synchronised with.
#[derive(Debug)]
pub(crate) struct Machine {
    pub(crate) mem: GlobalMem,
    pub(crate) l1ds: Vec<Cache>,
    pub(crate) l1ts: Vec<Cache>,
    pub(crate) l2: Cache,
    /// Empty on a functional-mode GPU.
    pub(crate) sms: Vec<SmState>,
    /// `(store id, snapshot)`: every granule not marked dirty since holds
    /// that snapshot's bytes.
    sync: Option<(u64, SnapId)>,
}

impl Machine {
    pub(crate) fn new(
        mem: GlobalMem,
        l1ds: Vec<Cache>,
        l1ts: Vec<Cache>,
        l2: Cache,
        sms: Vec<SmState>,
    ) -> Self {
        Machine {
            mem,
            l1ds,
            l1ts,
            l2,
            sms,
            sync: None,
        }
    }

    /// Forget the synchronisation point: something is about to write the
    /// machine without marking (the functional engine, raw arena access, a
    /// wholesale reset).
    pub(crate) fn desync(&mut self) {
        self.sync = None;
    }

    fn synced_with(&self, store: &ChunkStore) -> Option<SnapId> {
        self.sync.filter(|s| s.0 == store.id).map(|s| s.1)
    }

    /// Append a snapshot of this machine to `store` without touching the
    /// machine. `launch` makes it a mid-launch snapshot.
    pub(crate) fn snapshot(&self, store: &mut ChunkStore, launch: Option<LaunchScalars>) -> SnapId {
        let synced = self.synced_with(store);
        let ChunkStore {
            pools,
            snaps,
            shape,
            l2,
            owned,
            ..
        } = store;
        let mut cap = Capture {
            pools,
            from: synced.map(|s| &snaps[s.0 as usize].table[..]),
            prev: snaps.last().map(|s| &s.table[..]),
            first: snaps.is_empty(),
            shape,
            arrays: 0,
            table: Vec::with_capacity(snaps.last().map_or(0, |s| s.table.len())),
            owned: 0,
        };
        self.mem.capture(&mut cap);
        let mut caches = Vec::with_capacity(self.l1ds.len() + self.l1ts.len() + 1);
        for c in self.l1ds.iter().chain(&self.l1ts) {
            caches.push(c.capture(&mut cap));
        }
        *l2 = Some((cap.table.len(), self.l2.geom().clone()));
        caches.push(self.l2.capture(&mut cap));
        for sm in &self.sms {
            sm.capture(&mut cap);
        }
        let Capture {
            table, owned: new, ..
        } = cap;
        *owned += new;
        let id = SnapId(u32::try_from(snaps.len()).expect("fewer than 2^32 snapshots"));
        snaps.push(Snap {
            table,
            caches,
            engine: launch.map(|launch| EngineScalars {
                sms: self.sms.iter().map(SmState::scalars).collect(),
                launch,
            }),
        });
        id
    }

    /// [`Machine::snapshot`], after which the machine is synchronised
    /// with the new snapshot.
    pub(crate) fn capture(
        &mut self,
        store: &mut ChunkStore,
        launch: Option<LaunchScalars>,
    ) -> SnapId {
        let id = self.snapshot(store, launch);
        self.mem.clear_dirty();
        for c in self.l1ds.iter_mut().chain(&mut self.l1ts) {
            c.clear_touched();
        }
        self.l2.clear_touched();
        for sm in &mut self.sms {
            sm.clear_dirty();
        }
        self.sync = Some((store.id, id));
        id
    }

    /// Bring the machine to snapshot `id` bit for bit — a mid-launch
    /// snapshot's warp and CTA-slot state included — copying only what
    /// may differ. Returns the bytes copied.
    pub(crate) fn restore(&mut self, store: &ChunkStore, id: SnapId) -> u64 {
        let snap = store.snap(id);
        let mut w = self.walk(store, id, self.synced_with(store));
        self.mem.restore(&mut w);
        let l1s = self.l1ds.iter_mut().chain(&mut self.l1ts);
        for (c, s) in l1s.chain([&mut self.l2]).zip(&snap.caches) {
            c.restore(&mut w, s);
        }
        for sm in &mut self.sms {
            sm.restore(&mut w);
        }
        assert_eq!(
            w.pos,
            snap.table.len(),
            "snapshot of a different machine shape"
        );
        let bytes = w.bytes;
        if let Some(e) = &snap.engine {
            for (sm, s) in self.sms.iter_mut().zip(&e.sms) {
                sm.load_scalars(s);
            }
        }
        self.sync = Some((store.id, id));
        debug_assert!(
            self.same_from(store, id, Scope::Image, None),
            "diff restore left the machine different from the snapshot's full image"
        );
        bytes
    }

    /// Whether the machine equals snapshot `id` in everything `scope`
    /// covers, looking only at chunks that may differ (at every chunk for
    /// [`Scope::Image`], which is the check on that shortcut).
    pub(crate) fn same(&self, store: &ChunkStore, id: SnapId, scope: Scope) -> bool {
        let synced = self
            .synced_with(store)
            .filter(|_| !matches!(scope, Scope::Image));
        let verdict = self.same_from(store, id, scope, synced);
        debug_assert_eq!(
            verdict,
            self.same_from(store, id, scope, None),
            "dirty-only compare disagrees with the full compare"
        );
        verdict
    }

    fn walk<'a>(&self, store: &'a ChunkStore, id: SnapId, synced: Option<SnapId>) -> Walk<'a> {
        Walk {
            pools: &store.pools,
            from: synced.map(|s| &store.snap(s).table[..]),
            to: &store.snap(id).table,
            shape: &store.shape,
            arrays: 0,
            pos: 0,
            bytes: 0,
        }
    }

    fn same_from(
        &self,
        store: &ChunkStore,
        id: SnapId,
        scope: Scope,
        synced: Option<SnapId>,
    ) -> bool {
        let snap = store.snap(id);
        let mut w = self.walk(store, id, synced);
        let exact = matches!(scope, Scope::Image);
        if !self.mem.same(&mut w) {
            return false;
        }
        let (l2, l1s) = snap.caches.split_last().expect("an L2");
        for (c, s) in self.l1ds.iter().chain(&self.l1ts).zip(l1s) {
            if let Scope::Device = scope {
                if !(c.no_live_lines() && s.no_live_lines) {
                    return false;
                }
                c.skip(&mut w);
            } else if !c.same(&mut w, s, exact) {
                return false;
            }
        }
        if !self.l2.same(&mut w, l2, exact) {
            return false;
        }
        match scope {
            Scope::Device => true,
            Scope::Engine {
                regs_per_cta,
                smem_words_per_cta,
            } => {
                let e = snap.engine.as_ref().expect("a mid-launch snapshot");
                let live = Some((regs_per_cta, smem_words_per_cta));
                self.sms
                    .iter()
                    .zip(&e.sms)
                    .all(|(sm, s)| sm.same(&mut w, Some(s), live))
            }
            Scope::Image => {
                let scalars = snap.engine.as_ref().map(|e| &e.sms[..]);
                self.sms
                    .iter()
                    .enumerate()
                    .all(|(i, sm)| sm.same(&mut w, scalars.map(|s| &s[i]), None))
            }
        }
    }
}

/// Device state (global memory + cache hierarchy) at a kernel boundary,
/// between launches, as a store of one snapshot
/// ([`Gpu::device_snapshot`](crate::Gpu::device_snapshot)).
#[derive(Debug)]
pub struct DeviceSnapshot {
    pub(crate) store: ChunkStore,
    pub(crate) id: SnapId,
}

/// Golden reference handed to `Gpu::resume_from` to enable the early
/// masked-convergence exit for one launch.
pub struct ConvergeWith<'a> {
    /// Golden mid-launch snapshots of this launch (in the store being
    /// resumed from), sorted by cycle; the disturbed machine is compared
    /// against each one it reaches after the fault has been applied.
    pub snaps: &'a [SnapId],
    /// Golden statistics of this launch (the launch delta, not an
    /// aggregate), used to credit the skipped suffix.
    pub end_stats: Stats,
}

/// What `Gpu::resume_from` did, beyond the launch statistics.
#[derive(Debug, Clone, Copy)]
pub struct ResumeOutcome {
    /// Launch statistics, bit-identical to a from-zero run of the same
    /// launch with the same fault.
    pub stats: Stats,
    /// Cycle the run was resumed at (the snapshot's cycle).
    pub resumed_at: u64,
    /// Cycles actually simulated (excludes both the skipped prefix and,
    /// on convergence, the credited suffix).
    pub simulated_cycles: u64,
    /// Cycle at which the disturbed machine re-converged to golden, if
    /// the early masked-convergence exit fired. The machine is then left
    /// as it was at that cycle — equal to golden in every live bit — and
    /// the run continues from the golden post-launch snapshot.
    pub converged_at: Option<u64>,
    /// Bytes the restore to the resume snapshot copied.
    pub restored_bytes: u64,
}
