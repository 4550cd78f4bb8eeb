//! ACE-style lifetime accounting: a sink of the probe stream.
//!
//! A [`LifetimeTracker`] is a [`TraceSink`]: attached to the probe of a
//! *fault-free* timed run (`crate::probe`), it folds every recorded write
//! and read of the five modeled hardware structures into, per structure,
//! the number of word-cycles during which a stored value was ACE
//! ("architecturally correct execution"-critical): the interval from a
//! write to the **last read** of that value. Cycles between the last read
//! and the overwrite/eviction/kernel-end are un-ACE (a flip there is
//! dead). The analytic AVF of a structure over a run of `C` cycles is then
//! `ACE-bit-cycles / (structure_bits * C)` — computed in `crates/ace` on
//! top of the raw word-cycle totals collected here.
//!
//! Granularity is one 32-bit word: if *any* lane reads a word the whole
//! word is counted live for the interval, which makes the estimate a
//! conservative (upper-bound) approximation of bit-exact ACE analysis.
//!
//! How the stream is read: `Access`/`Range` events are reads and writes of
//! the words they name. A dirty write-back arrives as a whole-line read at
//! the eviction cycle followed by the fill's whole-line write, so the
//! evicted data counts live for its full residency; a clean victim's
//! words close at their last read when the fill overwrites them. A launch
//! end closes everything outside the L2 dead (register-file and
//! shared-memory contents die with the grid, the write-through L1s are
//! invalidated) and moves the global clock past the launch — events carry
//! *launch-local* cycles, and L2 lifetimes span launches. What is still
//! open in the L2 when the application ends is closed by
//! [`finalize`](LifetimeTracker::finalize), which the owner of the run
//! calls with the L2's dirty bits. Being a sink, the tracker only
//! receives: no accounting step can show up in the stream another sink
//! records.

use crate::config::GpuConfig;
use crate::fault::HwStructure;
use crate::probe::{ProbeEvent, SegEvent, TraceSink};

/// Sentinel marking "no open write interval" for a word.
const CLOSED: u64 = u64::MAX;

/// Per-structure lifetime state: one open-interval start (`wr`) and
/// last-read time (`rd`) per 32-bit word, plus the accumulated ACE total.
struct Track {
    wr: Vec<u64>,
    rd: Vec<u64>,
    ace_word_cycles: u64,
}

impl Track {
    fn new(words: usize) -> Self {
        Track {
            wr: vec![CLOSED; words],
            rd: vec![0; words],
            ace_word_cycles: 0,
        }
    }

    /// A new value is written at global time `t`: close the previous
    /// interval at its last read (dead from last read to overwrite) and
    /// open a fresh one.
    fn write(&mut self, i: usize, t: u64) {
        if self.wr[i] != CLOSED {
            self.ace_word_cycles += self.rd[i].saturating_sub(self.wr[i]);
        }
        self.wr[i] = t;
        self.rd[i] = t;
    }

    /// The current value is read at global time `t`.
    fn read(&mut self, i: usize, t: u64) {
        if self.wr[i] != CLOSED {
            self.rd[i] = self.rd[i].max(t);
        }
    }

    /// The value will never be read again (kernel end, clean eviction):
    /// ACE only up to its last read.
    fn close_dead(&mut self, i: usize) {
        if self.wr[i] != CLOSED {
            self.ace_word_cycles += self.rd[i].saturating_sub(self.wr[i]);
            self.wr[i] = CLOSED;
        }
    }

    /// The value leaves the structure still architecturally required
    /// (dirty write-back) at global time `t`: ACE for the full residency.
    fn close_live(&mut self, i: usize, t: u64) {
        if self.wr[i] != CLOSED {
            self.ace_word_cycles += t.saturating_sub(self.wr[i]);
            self.wr[i] = CLOSED;
        }
    }

    fn close_all_dead(&mut self) {
        for i in 0..self.wr.len() {
            self.close_dead(i);
        }
    }
}

/// Write→read lifetimes of every word of the five modeled structures,
/// folded from the probe stream; see the module docs for the accounting
/// rules.
pub struct LifetimeTracker {
    /// Global cycle at which the current segment's local cycle 0 falls.
    base: u64,
    tracks: [Track; 5],
    /// Words per instance, indexed by `HwStructure as usize`.
    words_per_inst: [usize; 5],
    l2_line_words: usize,
    /// `ace_word_cycles()` as of the last launch end.
    at_launch_end: [u64; 5],
    per_launch: Vec<[u64; 5]>,
    events: u64,
}

impl LifetimeTracker {
    pub fn new(cfg: &GpuConfig) -> Self {
        let sms = cfg.num_sms as usize;
        let words_per_inst = [
            cfg.rf_regs_per_sm as usize,
            cfg.smem_bytes_per_sm as usize / 4,
            cfg.l1d.bytes as usize / 4,
            cfg.l1t.bytes as usize / 4,
            cfg.l2.bytes as usize / 4,
        ];
        let insts = [sms, sms, sms, sms, 1];
        LifetimeTracker {
            base: 0,
            tracks: std::array::from_fn(|h| Track::new(words_per_inst[h] * insts[h])),
            words_per_inst,
            l2_line_words: cfg.l2.line_bytes as usize / 4,
            at_launch_end: [0; 5],
            per_launch: Vec::new(),
            events: 0,
        }
    }

    fn touch(&mut self, h: HwStructure, inst: u32, start: u64, len: u32, t: u64, write: bool) {
        self.events += 1;
        let g = self.base + t;
        let first = inst as usize * self.words_per_inst[h as usize] + start as usize;
        let track = &mut self.tracks[h as usize];
        for i in first..first + len as usize {
            if write {
                track.write(i, g);
            } else {
                track.read(i, g);
            }
        }
    }

    /// End of the application: close every surviving L2 line — live at the
    /// current global time if `dirty(line)` (its data still backs memory
    /// the host may read), dead otherwise.
    pub fn finalize(&mut self, dirty: impl Fn(usize) -> bool) {
        let l2 = &mut self.tracks[HwStructure::L2 as usize];
        for i in 0..l2.wr.len() {
            if dirty(i / self.l2_line_words) {
                l2.close_live(i, self.base);
            } else {
                l2.close_dead(i);
            }
        }
    }

    /// Accumulated ACE word-cycles per structure, in `HwStructure::ALL`
    /// order. Multiply by 32 for bit-cycles. L2 intervals still open are
    /// not yet included.
    pub fn ace_word_cycles(&self) -> [u64; 5] {
        std::array::from_fn(|h| self.tracks[h].ace_word_cycles)
    }

    /// What each launch added to [`ace_word_cycles`](Self::ace_word_cycles),
    /// the host glue since the previous launch included.
    pub fn per_launch(&self) -> &[[u64; 5]] {
        &self.per_launch
    }

    /// `Access` and `Range` events consumed.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl TraceSink for LifetimeTracker {
    fn consume(&mut self, batch: &[ProbeEvent]) {
        for ev in batch {
            match *ev {
                ProbeEvent::Seg(SegEvent::Access {
                    h,
                    inst,
                    word,
                    t,
                    write,
                }) => self.touch(h, inst, word, 1, t, write),
                ProbeEvent::Seg(SegEvent::Range {
                    h,
                    inst,
                    start,
                    len,
                    t,
                    write,
                }) => self.touch(h, inst, start, len, t, write),
                ProbeEvent::LaunchEnd { cycles } => {
                    for h in [
                        HwStructure::RegFile,
                        HwStructure::Smem,
                        HwStructure::L1D,
                        HwStructure::L1T,
                    ] {
                        self.tracks[h as usize].close_all_dead();
                    }
                    let now = self.ace_word_cycles();
                    self.per_launch
                        .push(std::array::from_fn(|h| now[h] - self.at_launch_end[h]));
                    self.at_launch_end = now;
                    self.base += cycles;
                }
                ProbeEvent::LaunchBegin(_)
                | ProbeEvent::Seg(
                    SegEvent::SlotFill { .. }
                    | SegEvent::SlotFree { .. }
                    | SegEvent::HostRead { .. },
                ) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use HwStructure::{RegFile, Smem, L1D, L2};

    fn tracker() -> LifetimeTracker {
        LifetimeTracker::new(&GpuConfig::volta_scaled(1))
    }

    fn range(h: HwStructure, start: u64, len: u32, t: u64, write: bool) -> ProbeEvent {
        ProbeEvent::Seg(SegEvent::Range {
            h,
            inst: 0,
            start,
            len,
            t,
            write,
        })
    }

    fn write(h: HwStructure, word: u64, t: u64) -> ProbeEvent {
        range(h, word, 1, t, true)
    }

    fn read(h: HwStructure, word: u64, t: u64) -> ProbeEvent {
        ProbeEvent::Seg(SegEvent::Access {
            h,
            inst: 0,
            word,
            t,
            write: false,
        })
    }

    fn launch_end(cycles: u64) -> ProbeEvent {
        ProbeEvent::LaunchEnd { cycles }
    }

    /// Words per L2 line of the test configuration.
    const LINE: u64 = 32;

    #[test]
    fn write_read_overwrite_counts_only_live_interval() {
        let mut t = tracker();
        t.consume(&[
            write(RegFile, 3, 10),
            read(RegFile, 3, 25),  // live 10..25 = 15
            write(RegFile, 3, 40), // dead 25..40
            launch_end(50),        // never read again: +0
        ]);
        assert_eq!(t.ace_word_cycles()[RegFile as usize], 15);
    }

    #[test]
    fn unread_write_is_dead() {
        let mut t = tracker();
        t.consume(&[write(Smem, 0, 5), launch_end(100)]);
        assert_eq!(t.ace_word_cycles()[Smem as usize], 0);
    }

    #[test]
    fn read_without_open_interval_is_ignored() {
        let mut t = tracker();
        t.consume(&[read(RegFile, 7, 10), launch_end(20)]);
        assert_eq!(t.ace_word_cycles()[RegFile as usize], 0);
    }

    #[test]
    fn dirty_eviction_closes_full_residency() {
        let mut t = tracker();
        t.consume(&[
            write(L2, 2 * LINE + 1, 10),
            // The write-back reads the line, the fill overwrites it.
            range(L2, 2 * LINE, LINE as u32, 100, false),
            range(L2, 2 * LINE, LINE as u32, 100, true),
        ]);
        // One word live 10..100; the other 31 line words had no open
        // interval.
        assert_eq!(t.ace_word_cycles()[L2 as usize], 90);
    }

    #[test]
    fn fill_then_partial_read_counts_read_words_only() {
        let mut t = tracker();
        t.consume(&[
            range(L1D, 0, LINE as u32, 10, true),
            read(L1D, 5, 30),
            launch_end(60),
        ]);
        // Only word 5 was read: live 10..30.
        assert_eq!(t.ace_word_cycles()[L1D as usize], 20);
    }

    #[test]
    fn base_offset_spans_launches() {
        let mut t = tracker();
        t.consume(&[
            write(L2, 0, 10), // global 10
            launch_end(100),
            read(L2, 0, 5), // global 105
            launch_end(50),
        ]);
        t.finalize(|_| false); // clean: dead after last read
        assert_eq!(t.ace_word_cycles()[L2 as usize], 95);
    }

    #[test]
    fn finalize_l2_dirty_line_live_until_end() {
        let mut t = tracker();
        t.consume(&[write(L2, LINE, 10), launch_end(200)]);
        t.finalize(|line| line == 1);
        assert_eq!(t.ace_word_cycles()[L2 as usize], 190);
    }

    #[test]
    fn cta_fill_zeroes_are_live_when_read() {
        let mut t = tracker();
        t.consume(&[
            range(RegFile, 0, 4, 0, true),
            range(Smem, 0, 2, 0, true),
            read(RegFile, 2, 30), // zero-filled reg read: live 0..30
            read(Smem, 1, 12),    // zero-filled smem word: live 0..12
            launch_end(40),
        ]);
        assert_eq!(t.ace_word_cycles()[RegFile as usize], 30);
        assert_eq!(t.ace_word_cycles()[Smem as usize], 12);
    }

    #[test]
    fn same_cycle_write_then_read_is_zero_length() {
        let mut t = tracker();
        t.consume(&[write(RegFile, 0, 10), read(RegFile, 0, 10), launch_end(20)]);
        assert_eq!(t.ace_word_cycles()[RegFile as usize], 0);
    }

    #[test]
    fn a_launch_end_records_what_was_added_since_the_previous_one() {
        let mut t = tracker();
        t.consume(&[
            write(RegFile, 0, 0),
            read(RegFile, 0, 7),
            write(L2, 0, 3),
            launch_end(10),
            // Host glue (local time 0 = global 10) overwrites the L2 word
            // after a read: its 3..10 lifetime lands in the next launch.
            read(L2, 0, 0),
            write(L2, 0, 0),
            launch_end(5),
        ]);
        assert_eq!(t.per_launch(), [[7, 0, 0, 0, 0], [0, 0, 0, 0, 7]]);
        assert_eq!(t.ace_word_cycles(), [7, 0, 0, 0, 7]);
        assert_eq!(t.events(), 5);
    }
}
