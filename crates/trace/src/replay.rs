//! Replay-side trace representation and deadness adjudication.
//!
//! An [`AppTrace`] is the indexed form of one application's recorded
//! probe stream: the encoded per-segment blobs, per-launch occupancy
//! info, and a live-interval index folded from every recorded access,
//! one entry per row of 32 words until the row's words diverge.
//!
//! The replay engine's core question, for one transient uarch fault, is:
//! *is every bit of the fault footprint provably dead?* A flipped word
//! is dead when the first recorded touch of that word at-or-after the
//! fault position is a **write** (the corruption is overwritten before
//! anything reads it) or when it is never touched again (nothing ever
//! consumes it, and final outputs are produced exclusively through
//! recorded host reads). In either case the faulty execution is
//! bit-identical to golden — outcome `Masked`, `total_cost` equal to
//! golden's — so the trial record can be synthesized without simulating
//! a single cycle. Anything else (a read reaches the corruption, a
//! persistent fault, control state, an unindexable site) falls back to
//! full re-execution, which is what keeps replay byte-identical to the
//! timed backend by construction.
//!
//! Position ordering is global: launch ordinal `k` is segment `2k + 1`
//! and host glue fills the even segments, so `(segment, cycle)`
//! lexicographic order is program order. The fault applies at the *top*
//! of its cycle, before issue, so touches at `t == cycle` count as
//! post-fault, and a read and a write at the same position resolve as
//! *read first*.
//!
//! The index keeps, per (structure, instance, word), only the word's
//! **read runs** `(lo, hi]`: `lo` is the last write strictly before a read
//! (−∞ when none precedes it), `hi` the last read that follows the same
//! write. A flip at position `p` is consumed iff `p` lies in one of them;
//! writes and repeated reads inside a run leave nothing behind. `Fold`
//! builds the runs in one pass over the events in program order — per word
//! the last write, the write before it (what a read tied with the last
//! write follows) and the open run's last read — so they come out
//! time-ordered per word.
//!
//! Words come in **rows** of 32: a warp's register operand, a 128-B cache
//! line. A row whose touches have all covered every one of its words has
//! had one touch history, so the fold keeps one state for it and closes
//! one run for all 32 words. Its first partial touch splits it into 32
//! per-word states; a full-row touch that leaves those 32 equal field for
//! field merges it back. A closed run is `(lo, hi, lane mask)` per row —
//! one full-mask run for a uniform row, one per word for a split row, a
//! split row's equal neighbours closed in one touch sharing one run — and
//! at the end a counting sort by row and a sort of each row's runs by `hi`
//! lay them out. Besides that per-row state, the only thing the fold holds
//! per segment is an open launch's slot timeline.

use std::cell::OnceCell;
use std::mem::size_of;
use std::ops::Range;

use rayon::prelude::*;
use vgpu_sim::{resolve_site, GpuConfig, HwStructure, LaunchGeometry, SegEvent, UarchFault};

use crate::codec::decode_segment_lossy;

/// Coordinate caps: a touch beyond them makes the trace unindexable
/// (every trial falls back `NoTrace`) before any per-row state is
/// allocated for it.
const INST_BITS: u32 = 16;
const WORD_BITS: u32 = 24;
const T_BITS: u32 = 40;
const SEG_BITS: u32 = 22;

/// Words per row: a warp's register operand, a 128-B cache line.
const ROW: usize = 32;

/// `(seg, t)` as one ordered u64, offset by one so that 0 is −∞ ("no
/// write yet").
fn pos(seg: u32, t: u64) -> Option<u64> {
    (t >> T_BITS == 0 && seg >> SEG_BITS == 0).then(|| ((u64::from(seg) << T_BITS) | t) + 1)
}

/// Fold state of one word, positions as [`pos`].
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct WordState {
    /// The last write.
    w: u64,
    /// The last write strictly before `w`: what a read tied with `w`
    /// follows.
    before_w: u64,
    /// The open read run `(lo, hi]`; `hi == 0` when none is open.
    lo: u64,
    hi: u64,
}

impl WordState {
    /// Fold a touch at `p`; the read run it closes, if any.
    fn touch(&mut self, p: u64, write: bool) -> Option<(u64, u64)> {
        if write {
            if self.w != p {
                (self.before_w, self.w) = (self.w, p);
            }
            return None;
        }
        // The write this read follows; a different one opens a run.
        let lo = if self.w == p { self.before_w } else { self.w };
        let closed = (self.lo != lo && self.hi != 0).then_some((self.lo, self.hi));
        (self.lo, self.hi) = (lo, p);
        closed
    }

    /// The open read run, if any.
    fn open(&self) -> Option<(u64, u64)> {
        (self.hi != 0).then_some((self.lo, self.hi))
    }
}

/// Fold state of one row of [`ROW`] words.
enum Row {
    /// Every touch so far covered the whole row: one state for all of it.
    Uniform(WordState),
    /// Per word.
    Split(Box<[WordState; ROW]>),
}

impl Default for Row {
    fn default() -> Self {
        Row::Uniform(WordState::default())
    }
}

/// A read run `(lo, hi]` of the words of one row whose lanes are in `mask`.
#[derive(Clone, Copy, Default)]
struct Run {
    lo: u64,
    hi: u64,
    mask: u32,
}

/// A closed [`Run`] of row `row`.
struct Closed {
    row: u32,
    run: Run,
}

/// Push the run `(lo, hi]` of the words `mask` of `row`, into the last
/// closed run when that is the same run of their neighbours.
fn close(closed: &mut Vec<Closed>, row: u32, mask: u32, (lo, hi): (u64, u64)) {
    match closed.last_mut() {
        Some(c) if c.row == row && c.run.lo == lo && c.run.hi == hi => c.run.mask |= mask,
        _ => closed.push(Closed {
            row,
            run: Run { lo, hi, mask },
        }),
    }
}

/// One (structure, instance) array under construction.
#[derive(Default)]
struct Array {
    rows: Vec<Row>,
    /// Closed runs, in closing order.
    closed: Vec<Closed>,
}

impl Array {
    fn touch(&mut self, start: usize, end: usize, p: u64, write: bool) {
        if self.rows.len() < end.div_ceil(ROW) {
            self.rows.resize_with(end.div_ceil(ROW), Row::default);
        }
        for r in start / ROW..end.div_ceil(ROW) {
            let base = r * ROW;
            let lanes = start.max(base) - base..end.min(base + ROW) - base;
            self.touch_row(r, lanes, p, write);
        }
    }

    /// Fold a touch at `p` of the words `lanes` of row `r`.
    fn touch_row(&mut self, r: usize, lanes: Range<usize>, p: u64, write: bool) {
        let (row, closed) = (&mut self.rows[r], &mut self.closed);
        let full = lanes.len() == ROW;
        match row {
            Row::Uniform(s) if full => {
                if let Some(run) = s.touch(p, write) {
                    close(closed, r as u32, u32::MAX, run);
                }
                return;
            }
            Row::Uniform(s) => *row = Row::Split(Box::new([*s; ROW])),
            Row::Split(_) => {}
        }
        let Row::Split(words) = row else {
            unreachable!("a partial touch splits the row")
        };
        for lane in lanes {
            if let Some(run) = words[lane].touch(p, write) {
                close(closed, r as u32, 1 << lane, run);
            }
        }
        if full && words.iter().all(|s| *s == words[0]) {
            *row = Row::Uniform(words[0]);
        }
    }

    /// Close every open run and lay all of them out by row, each row's
    /// runs sorted by `hi`.
    fn finish(self) -> Column {
        let Array { rows, mut closed } = self;
        for (r, row) in rows.iter().enumerate() {
            let r = r as u32;
            match row {
                Row::Uniform(s) => {
                    if let Some(run) = s.open() {
                        close(&mut closed, r, u32::MAX, run);
                    }
                }
                Row::Split(words) => {
                    for (lane, s) in words.iter().enumerate() {
                        if let Some(run) = s.open() {
                            close(&mut closed, r, 1 << lane, run);
                        }
                    }
                }
            }
        }
        let mut offsets = vec![0; rows.len() + 1];
        for c in &closed {
            offsets[c.row as usize] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Latest first, each into the last free slot of its row's slice:
        // a row's offset ends where its slice starts, its runs in closing
        // order — time order for a row that never split.
        let mut runs = vec![Run::default(); closed.len()];
        for Closed { row, run } in closed.into_iter().rev() {
            offsets[row as usize] -= 1;
            runs[offsets[row as usize]] = run;
        }
        for w in offsets.windows(2) {
            runs[w[0]..w[1]].sort_unstable_by_key(|run| run.hi);
        }
        Column { offsets, runs }
    }
}

/// The read runs of one (structure, instance) array.
struct Column {
    /// Row `r`'s runs are `runs[offsets[r]..offsets[r + 1]]`, by `hi`.
    offsets: Vec<usize>,
    runs: Vec<Run>,
}

/// The fold that builds an [`AppTrace`]'s index and launch table from
/// its segments' events, fed one at a time in program order (module docs):
/// [`open`](Self::open) a segment, [`event`](Self::event) each of its
/// events, [`close`](Self::close) it. The recorder feeds it the probe
/// stream as it arrives, [`AppTrace::from_blobs`] each decoded blob. A
/// fresh fold has segment 0, host glue, open.
#[derive(Default)]
pub(crate) struct Fold {
    /// Per structure, per instance.
    arrays: [Vec<Array>; 5],
    launches: Vec<LaunchInfo>,
    /// Some touch exceeded the coordinate caps or went back in time; the
    /// arrays are dropped and adjudication always falls back.
    unindexable: bool,
    /// The open segment, and the last position folded in it.
    seg: u32,
    last: u64,
    /// The open launch's slot timeline so far; `None` in host glue.
    slots: Option<Vec<SlotEvent>>,
}

impl Fold {
    /// Open segment `seg`, a launch when `is_launch`.
    pub(crate) fn open(&mut self, seg: u32, is_launch: bool) {
        self.seg = seg;
        self.last = 0;
        self.slots = is_launch.then(Vec::new);
    }

    /// Fold the open segment's next event.
    pub(crate) fn event(&mut self, ev: &SegEvent) {
        let (h, inst, start, len, t, write) = match *ev {
            SegEvent::Access {
                h,
                inst,
                word,
                t,
                write,
            } => (h, inst, word, 1, t, write),
            SegEvent::Range {
                h,
                inst,
                start,
                len,
                t,
                write,
            } => (h, inst, start, len, t, write),
            SegEvent::HostRead { word } => (HwStructure::L2, 0, word, 1, 0, false),
            SegEvent::SlotFill {
                sm,
                slot,
                t,
                initial,
            } => return self.slot((sm, slot, if initial { 0 } else { t + 1 }, true)),
            SegEvent::SlotFree { sm, slot, t } => return self.slot((sm, slot, t + 1, false)),
        };
        if self.unindexable {
            return;
        }
        let end = start.saturating_add(u64::from(len));
        match pos(self.seg, t) {
            Some(p) if p >= self.last && inst >> INST_BITS == 0 && end <= 1 << WORD_BITS => {
                let arrays = &mut self.arrays[h as usize];
                if arrays.len() <= inst as usize {
                    arrays.resize_with(inst as usize + 1, Array::default);
                }
                arrays[inst as usize].touch(start as usize, end as usize, p, write);
                self.last = p;
            }
            _ => {
                self.unindexable = true;
                self.arrays = Default::default();
            }
        }
    }

    fn slot(&mut self, ev: SlotEvent) {
        if let Some(slots) = &mut self.slots {
            slots.push(ev);
        }
    }

    /// Close the open segment: a launch when `launch` is its geometry and
    /// retired cycles.
    pub(crate) fn close(&mut self, launch: Option<(LaunchGeometry, u64)>) {
        let slot_events = self.slots.take().unwrap_or_default();
        if let Some((geom, cycles)) = launch {
            self.launches.push(LaunchInfo {
                seg: self.seg,
                geom,
                cycles,
                slot_events,
            });
        }
    }

    /// The finished trace over `blobs`, the encoded form of the segments
    /// folded.
    pub(crate) fn finish(self, blobs: Vec<Vec<u8>>) -> AppTrace {
        AppTrace {
            bytes: blobs.iter().map(|b| b.len() as u64).sum(),
            blobs,
            launches: self.launches,
            columns: self
                .arrays
                .map(|arrays| arrays.into_par_iter().map(Array::finish).collect()),
            unindexable: self.unindexable,
        }
    }
}

/// One CTA-slot occupancy transition `(sm, slot, effective cycle, fill)`:
/// an initial (prefill) fill occupies from cycle 0, mid-run fills and
/// frees take effect from `t + 1` (they happen in cycle `t`'s retire
/// stage, after that cycle's fault application point).
type SlotEvent = (u32, u32, u64, bool);

/// Per-launch replay info: geometry, retired cycle count, and the slot
/// occupancy timeline the fault-site resolver needs.
pub struct LaunchInfo {
    /// Global segment number of this launch (`2 * ordinal + 1`).
    pub seg: u32,
    pub geom: LaunchGeometry,
    /// Local cycles the launch ran for (golden).
    pub cycles: u64,
    slot_events: Vec<SlotEvent>,
}

impl LaunchInfo {
    /// Which CTA slots hold a live CTA at the top of local cycle `c`.
    fn live_slots(&self, num_sms: usize, c: u64) -> Vec<Vec<bool>> {
        let mut live = vec![vec![false; self.geom.slots_per_sm as usize]; num_sms];
        for &(sm, slot, eff, fill) in &self.slot_events {
            if eff <= c {
                if let Some(s) = live
                    .get_mut(sm as usize)
                    .and_then(|sm| sm.get_mut(slot as usize))
                {
                    *s = fill;
                }
            }
        }
        live
    }
}

/// Why a trial could not be adjudicated dead and must re-execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Some footprint word is read before being overwritten.
    LiveWord,
    /// Stuck-at faults re-assert every cycle; overwrites don't clear them.
    Persistent,
    /// SIMT-stack / scheduler faults disturb control, not data.
    ControlState,
    /// No usable trace for the target site (missing launch, out-of-range
    /// cycle, unindexable coordinates).
    NoTrace,
}

impl FallbackReason {
    pub const ALL: [FallbackReason; 4] = [
        FallbackReason::LiveWord,
        FallbackReason::Persistent,
        FallbackReason::ControlState,
        FallbackReason::NoTrace,
    ];

    /// Stable label (metrics dimension).
    pub fn label(&self) -> &'static str {
        match self {
            FallbackReason::LiveWord => "live_word",
            FallbackReason::Persistent => "persistent",
            FallbackReason::ControlState => "control_state",
            FallbackReason::NoTrace => "no_trace",
        }
    }
}

/// Adjudication result for one (launch, fault) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every footprint bit is overwritten (or never touched) before any
    /// read: the faulty run is bit-identical to golden. `population` is
    /// exactly what the injector would have reported (0 means the fault
    /// landed on an empty structure and `applied` must be false).
    Dead { population: u64 },
    /// Must re-execute with the timed engine.
    Fallback { reason: FallbackReason },
}

/// A fully indexed application trace: the encoded segments, the launch
/// table, and per (structure, instance) the read runs of every row of 32
/// words, each run with the mask of the words it belongs to (module docs).
pub struct AppTrace {
    blobs: Vec<Vec<u8>>,
    launches: Vec<LaunchInfo>,
    /// Per structure, per instance: the read runs of every row.
    columns: [Vec<Column>; 5],
    unindexable: bool,
    /// Total encoded size of all segment blobs.
    pub bytes: u64,
}

impl AppTrace {
    /// Decode and index a set of encoded segment blobs, which must be in
    /// segment order, one decoded segment alive at a time. Panics if any
    /// blob fails to round-trip or is out of place — the blobs come from
    /// our own encoder, so anything else is a codec bug (or a permuted
    /// list the in-order fold would silently mis-index).
    pub fn from_blobs(blobs: Vec<Vec<u8>>) -> AppTrace {
        let mut fold = Fold::default();
        for (i, b) in blobs.iter().enumerate() {
            let se = decode_segment_lossy(b).expect("trace blob header must decode");
            assert!(se.complete, "trace blob must round-trip completely");
            assert_eq!(se.seg as usize, i, "trace blobs must be in segment order");
            fold.open(se.seg, se.launch.is_some());
            se.events.iter().for_each(|ev| fold.event(ev));
            fold.close(se.launch);
        }
        fold.finish(blobs)
    }

    /// Number of recorded launches.
    pub fn num_launches(&self) -> usize {
        self.launches.len()
    }

    /// Replay info for launch ordinal `k`.
    pub fn launch(&self, k: usize) -> Option<&LaunchInfo> {
        self.launches.get(k)
    }

    /// The encoded segment blobs, in segment order.
    pub fn blobs(&self) -> &[Vec<u8>] {
        &self.blobs
    }

    /// Decide whether the trial `(launch ordinal, fault)` can be
    /// adjudicated dead from the trace alone. The site is the one the
    /// injector would hit (`vgpu_sim::resolve_site`, given the recorded
    /// slot occupancy at the fault cycle); what is decided here is whether
    /// the first touch of each of its words is a read.
    pub fn adjudicate(&self, cfg: &GpuConfig, ordinal: usize, fault: &UarchFault) -> Verdict {
        let fallback = |reason| Verdict::Fallback { reason };
        let Some(li) = self.launches.get(ordinal) else {
            return fallback(FallbackReason::NoTrace);
        };
        if self.unindexable {
            return fallback(FallbackReason::NoTrace);
        }
        if fault.pattern.is_persistent() {
            return fallback(FallbackReason::Persistent);
        }
        let c = fault.cycle;
        let live = OnceCell::new();
        let occupied = |sm: usize, slot: usize| {
            live.get_or_init(|| li.live_slots(cfg.num_sms as usize, c))[sm][slot]
        };
        let Some(site) = resolve_site(fault, &li.geom, cfg, occupied) else {
            return fallback(FallbackReason::ControlState);
        };
        if c >= li.cycles {
            // The engine would idle-forward to the fault cycle and apply
            // the fault in post-launch state we did not model; punt.
            return fallback(FallbackReason::NoTrace);
        }
        let live = |w| self.live(fault.structure, site.inst as u32, w, li.seg, c);
        if site.words().into_iter().any(live) {
            return fallback(FallbackReason::LiveWord);
        }
        Verdict::Dead {
            population: site.population,
        }
    }

    /// Whether a flip of `word` at the top of `(seg, cycle)` is read before
    /// it is overwritten: the first recorded touch at-or-after that
    /// position is a read, a same-position read and write counting read
    /// first. Always `false` on an unindexable trace, which
    /// [`adjudicate`](Self::adjudicate) refuses before asking. The word's
    /// runs are those of its row whose mask holds it; the first of them
    /// with `hi ≥ p` decides.
    pub fn live(&self, h: HwStructure, inst: u32, word: u64, seg: u32, cycle: u64) -> bool {
        let column = self
            .columns
            .get(h as usize)
            .and_then(|c| c.get(inst as usize));
        let (Some(column), Some(p), w) = (column, pos(seg, cycle), word as usize) else {
            return false;
        };
        let Some(&[start, end]) = column.offsets.get(w / ROW..(w / ROW).saturating_add(2)) else {
            return false;
        };
        let runs = &column.runs[start..end];
        let first = runs.partition_point(|run| run.hi < p);
        let lane = 1 << (w % ROW);
        let own = runs[first..].iter().find(|run| run.mask & lane != 0);
        own.is_some_and(|run| run.lo < p)
    }

    /// Per structure (`HwStructure::ALL` order), Σ `hi − lo` over the read
    /// runs a write opened inside the segment of their last read: the
    /// word-cycles from a write to the last read of its value. ACE
    /// lifetime where ACE's rules and the trace's coincide (docs/ACE.md).
    pub fn live_word_cycles(&self) -> [u64; 5] {
        let same_seg = |run: &&Run| run.lo != 0 && (run.lo - 1) >> T_BITS == (run.hi - 1) >> T_BITS;
        self.columns.each_ref().map(|columns| {
            let runs = columns.iter().flat_map(|c| &c.runs).filter(same_seg);
            runs.map(|run| (run.hi - run.lo) * u64::from(run.mask.count_ones()))
                .sum()
        })
    }

    /// Bytes held by the index: per-row offsets, read runs and the
    /// launches' slot timelines (the blobs are [`bytes`](Self::bytes)).
    pub fn index_bytes(&self) -> u64 {
        let columns = self.columns.iter().flatten();
        let run = size_of::<Run>();
        let runs = columns.map(|c| c.offsets.len() * size_of::<usize>() + c.runs.len() * run);
        let slots = self.launches.iter().map(|l| l.slot_events.len());
        (runs.sum::<usize>() + slots.sum::<usize>() * size_of::<SlotEvent>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_segment;
    use vgpu_sim::FaultPattern;
    use HwStructure::{RegFile, L2};

    fn geom() -> LaunchGeometry {
        LaunchGeometry {
            warps_per_cta: 2,
            regs_per_cta: 64,
            smem_words_per_cta: 8,
            slots_per_sm: 2,
            total_ctas: 3,
        }
    }

    /// One launch (seg 1): SM0 slot0 lives [0, end), SM0 slot1 filled at
    /// retire of cycle 4 (live from 5). RF word 10 written at t=2, read
    /// at t=6; RF word 20 written at t=3, never read; word 30 untouched.
    fn tiny_trace() -> AppTrace {
        let g = geom();
        let launch_events = vec![
            SegEvent::SlotFill {
                sm: 0,
                slot: 0,
                t: 0,
                initial: true,
            },
            SegEvent::Range {
                h: RegFile,
                inst: 0,
                start: 0,
                len: 64,
                t: 0,
                write: true,
            },
            SegEvent::Access {
                h: RegFile,
                inst: 0,
                word: 10,
                t: 2,
                write: true,
            },
            SegEvent::Access {
                h: RegFile,
                inst: 0,
                word: 20,
                t: 3,
                write: true,
            },
            SegEvent::SlotFill {
                sm: 0,
                slot: 1,
                t: 4,
                initial: false,
            },
            SegEvent::Range {
                h: RegFile,
                inst: 0,
                start: 64,
                len: 64,
                t: 4,
                write: true,
            },
            SegEvent::Access {
                h: RegFile,
                inst: 0,
                word: 10,
                t: 6,
                write: false,
            },
        ];
        let blobs = vec![
            encode_segment(0, None, &[]),
            encode_segment(1, Some((&g, 10)), &launch_events),
            encode_segment(2, None, &[SegEvent::HostRead { word: 5 }]),
        ];
        AppTrace::from_blobs(blobs)
    }

    fn rf_fault(cycle: u64, loc_pick: u64) -> UarchFault {
        UarchFault {
            cycle,
            structure: HwStructure::RegFile,
            loc_pick,
            bit: 3,
            pattern: FaultPattern::SingleBit,
        }
    }

    fn cfg() -> GpuConfig {
        GpuConfig::default()
    }

    #[test]
    fn read_after_flip_is_live() {
        let tr = tiny_trace();
        // Only slot 0 lives at cycle 3 → population 64, idx == loc_pick.
        assert_eq!(
            tr.adjudicate(&cfg(), 0, &rf_fault(3, 10)),
            Verdict::Fallback {
                reason: FallbackReason::LiveWord
            }
        );
    }

    #[test]
    fn overwrite_before_read_is_dead() {
        let tr = tiny_trace();
        // Flip word 10 at cycle 1: write at t=2 kills it before the t=6
        // read. Flip word 20 at cycle 1: write at t=3 kills it. Both dead.
        for w in [10, 20] {
            assert_eq!(
                tr.adjudicate(&cfg(), 0, &rf_fault(1, w)),
                Verdict::Dead { population: 64 }
            );
        }
    }

    #[test]
    fn flip_at_write_cycle_counts_post_fault() {
        let tr = tiny_trace();
        // Fault applies at the top of cycle 2; the write at t=2 happens
        // after it and overwrites the flip.
        assert_eq!(
            tr.adjudicate(&cfg(), 0, &rf_fault(2, 10)),
            Verdict::Dead { population: 64 }
        );
        // At cycle 3 the write is past; the t=6 read consumes the flip.
        assert!(matches!(
            tr.adjudicate(&cfg(), 0, &rf_fault(3, 10)),
            Verdict::Fallback {
                reason: FallbackReason::LiveWord,
                ..
            }
        ));
    }

    #[test]
    fn untouched_word_is_dead() {
        let tr = tiny_trace();
        assert_eq!(
            tr.adjudicate(&cfg(), 0, &rf_fault(3, 30)),
            Verdict::Dead { population: 64 }
        );
    }

    #[test]
    fn mid_run_slot_fill_extends_population() {
        let tr = tiny_trace();
        // At cycle 4 only slot 0 is live (fill at t=4 is effective from
        // 5); at cycle 5 both slots are live and the zero-fill makes the
        // second slot's words dead.
        assert_eq!(
            tr.adjudicate(&cfg(), 0, &rf_fault(4, 70)),
            Verdict::Dead { population: 64 }
        );
        assert_eq!(
            tr.adjudicate(&cfg(), 0, &rf_fault(5, 70)),
            Verdict::Dead { population: 128 }
        );
    }

    #[test]
    fn persistent_and_control_faults_fall_back() {
        let tr = tiny_trace();
        let mut f = rf_fault(1, 0);
        f.pattern = FaultPattern::StuckAt1;
        assert!(matches!(
            tr.adjudicate(&cfg(), 0, &f),
            Verdict::Fallback {
                reason: FallbackReason::Persistent,
                ..
            }
        ));
        let mut f = rf_fault(1, 0);
        f.structure = HwStructure::Simt;
        assert!(matches!(
            tr.adjudicate(&cfg(), 0, &f),
            Verdict::Fallback {
                reason: FallbackReason::ControlState,
                ..
            }
        ));
    }

    #[test]
    fn missing_launch_and_late_cycle_fall_back() {
        let tr = tiny_trace();
        assert!(matches!(
            tr.adjudicate(&cfg(), 7, &rf_fault(0, 0)),
            Verdict::Fallback {
                reason: FallbackReason::NoTrace,
            }
        ));
        assert!(matches!(
            tr.adjudicate(&cfg(), 0, &rf_fault(10, 0)),
            Verdict::Fallback {
                reason: FallbackReason::NoTrace,
                ..
            }
        ));
    }

    #[test]
    fn host_read_keeps_l2_word_live() {
        let g = geom();
        let blobs = vec![
            encode_segment(0, None, &[]),
            encode_segment(
                1,
                Some((&g, 10)),
                &[
                    SegEvent::SlotFill {
                        sm: 0,
                        slot: 0,
                        t: 0,
                        initial: true,
                    },
                    SegEvent::Access {
                        h: L2,
                        inst: 0,
                        word: 5,
                        t: 1,
                        write: true,
                    },
                ],
            ),
            encode_segment(2, None, &[SegEvent::HostRead { word: 5 }]),
        ];
        let tr = AppTrace::from_blobs(blobs);
        let c = cfg();
        // L2 frame 0, word 5 → byte offset 20 of the data array. The
        // host read in seg 2 is the first touch after cycle 2.
        let f = UarchFault {
            cycle: 2,
            structure: HwStructure::L2,
            loc_pick: 20,
            bit: 0,
            pattern: FaultPattern::SingleBit,
        };
        assert!(matches!(
            tr.adjudicate(&c, 0, &f),
            Verdict::Fallback {
                reason: FallbackReason::LiveWord,
                ..
            }
        ));
        // A neighbouring untouched word is dead.
        let f2 = UarchFault { loc_pick: 24, ..f };
        assert!(matches!(tr.adjudicate(&c, 0, &f2), Verdict::Dead { .. }));
    }

    fn rf(word: u64, t: u64, write: bool) -> SegEvent {
        SegEvent::Access {
            h: RegFile,
            inst: 0,
            word,
            t,
            write,
        }
    }

    /// Host glue (seg 0), then one launch (seg 1) with `events`.
    fn one_launch(events: &[SegEvent]) -> AppTrace {
        AppTrace::from_blobs(vec![
            encode_segment(0, None, &[]),
            encode_segment(1, Some((&geom(), 100)), events),
        ])
    }

    #[test]
    fn same_cycle_read_and_write_resolve_read_first_in_any_arrival_order() {
        // RF word 0: written at t=2, a read and a write at t=5 arriving
        // W-R, R-W or R-W-R, written at 6, read at 7. The read at 5 comes
        // first whatever the order, so it consumes flips in (2, 5].
        let (w, r) = (rf(0, 5, true), rf(0, 5, false));
        for tie in [vec![w, r], vec![r, w], vec![r, w, r]] {
            let events = [
                vec![rf(0, 2, true)],
                tie,
                vec![rf(0, 6, true), rf(0, 7, false)],
            ];
            let tr = one_launch(&events.concat());
            let live: Vec<bool> = (1..=8).map(|c| tr.live(RegFile, 0, 0, 1, c)).collect();
            assert_eq!(live, [false, false, true, true, true, false, true, false]);
        }
    }

    #[test]
    fn a_host_read_is_a_read_at_the_top_of_its_host_segment() {
        // L2 word 9: written by launch 0 at t=3; in the glue after it the
        // host writes it and then reads it, both at (2, 0) — read first.
        let write = |t| SegEvent::Access {
            h: L2,
            inst: 0,
            word: 9,
            t,
            write: true,
        };
        let tr = AppTrace::from_blobs(vec![
            encode_segment(0, None, &[]),
            encode_segment(1, Some((&geom(), 10)), &[write(3)]),
            encode_segment(2, None, &[write(0), SegEvent::HostRead { word: 9 }]),
        ]);
        let live = |seg, c| tr.live(L2, 0, 9, seg, c);
        assert_eq!(
            [live(1, 3), live(1, 4), live(2, 0), live(2, 1)],
            [false, true, true, false]
        );
    }

    #[test]
    fn a_read_no_write_precedes_is_live_from_the_start() {
        let tr = one_launch(&[rf(4, 6, false), rf(4, 8, true), rf(4, 9, false)]);
        let live = |seg, c| tr.live(RegFile, 0, 4, seg, c);
        assert_eq!(
            [live(0, 0), live(1, 0), live(1, 6), live(1, 7), live(1, 9)],
            [true, true, true, false, true]
        );
    }

    #[test]
    #[should_panic(expected = "trace blobs must be in segment order")]
    fn permuted_blobs_are_refused() {
        let mut blobs = tiny_trace().blobs().to_vec();
        blobs.swap(0, 2);
        AppTrace::from_blobs(blobs);
    }

    #[test]
    fn coordinates_beyond_the_caps_make_the_trace_unindexable() {
        let fill = SegEvent::SlotFill {
            sm: 0,
            slot: 0,
            t: 0,
            initial: true,
        };
        let write = |h, inst, start, len, t| SegEvent::Range {
            h,
            inst,
            start,
            len,
            t,
            write: true,
        };
        for events in [
            vec![write(RegFile, 1 << 16, 0, 1, 1)],
            // Per-word state grows on demand: this must not allocate.
            vec![write(RegFile, 0, 1 << 40, 1, 1)],
            vec![write(L2, 0, (1 << 24) - 1, 2, 1)],
            vec![write(RegFile, 0, 0, 1, 1 << 40)],
            // A launch's times go back (the fold relies on program order).
            vec![rf(0, 5, true), SegEvent::HostRead { word: 0 }],
        ] {
            let tr = one_launch(&[vec![fill], events.clone()].concat());
            assert_eq!(
                tr.adjudicate(&cfg(), 0, &rf_fault(1, 7)),
                Verdict::Fallback {
                    reason: FallbackReason::NoTrace
                },
                "{events:?}"
            );
            assert!(tr.index_bytes() < 1 << 10, "{events:?}");
        }
        let tr = one_launch(&[fill, write(RegFile, (1 << 16) - 1, 0, 1, 1)]);
        assert_eq!(
            tr.adjudicate(&cfg(), 0, &rf_fault(1, 7)),
            Verdict::Dead { population: 64 }
        );
    }
}
