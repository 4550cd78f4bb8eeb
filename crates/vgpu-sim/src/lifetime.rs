//! ACE-style lifetime tracking for the timed engine.
//!
//! A [`LifetimeTracker`] observes every write and read of the five modeled
//! hardware structures during a *fault-free* timed simulation and
//! accumulates, per structure, the number of word-cycles during which a
//! stored value was ACE ("architecturally correct execution"-critical): the
//! interval from a write to the **last read** of that value. Cycles between
//! the last read and the overwrite/eviction/kernel-end are un-ACE (a flip
//! there is dead). The analytic AVF of a structure over a run of `C` cycles
//! is then `ACE-bit-cycles / (structure_bits * C)` — computed in
//! `crates/ace` on top of the raw word-cycle totals collected here.
//!
//! Granularity is one 32-bit word: if *any* lane reads a word the whole
//! word is counted live for the interval, which makes the estimate a
//! conservative (upper-bound) approximation of bit-exact ACE analysis.
//!
//! Timekeeping: hooks receive *launch-local* cycles; the tracker adds a
//! running `base` offset that [`advance_base`](LifetimeTracker::advance_base)
//! moves forward after each launch, so L2 lifetimes spanning multiple
//! kernel launches are measured on one global clock.

use crate::config::GpuConfig;
use crate::fault::HwStructure;
use crate::probe::{emit, ProbeBuf, ProbeEvent, SharedSink};

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

/// Records write→read lifetimes for every word of the five modeled
/// structures; see the module docs for the accounting rules.
pub struct LifetimeTracker {
    base: u64,
    tracks: [Track; 5],
    /// Words per instance, indexed by `HwStructure as usize`.
    words_per_inst: [usize; 5],
    line_words: usize,
    events: u64,
    /// Optional probe stream: every hook is forwarded (with its
    /// *launch-local* time) to an attached [`TraceSink`]
    /// (`crate::probe`), batched through a [`ProbeBuf`], so a trace
    /// recorder sees the exact access stream the ACE accounting is
    /// built from.
    sink: Option<ProbeBuf>,
    /// `false` for trace-only trackers ([`LifetimeTracker::trace_only`]):
    /// hooks forward to the probe sink but skip the per-word interval
    /// accounting (and its arrays) entirely.
    ace: bool,
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
        let tracks = [
            Track::new(words_per_inst[0] * insts[0]),
            Track::new(words_per_inst[1] * insts[1]),
            Track::new(words_per_inst[2] * insts[2]),
            Track::new(words_per_inst[3] * insts[3]),
            Track::new(words_per_inst[4] * insts[4]),
        ];
        LifetimeTracker {
            base: 0,
            tracks,
            words_per_inst,
            line_words: cfg.l2.line_bytes as usize / 4,
            events: 0,
            sink: None,
            ace: true,
        }
    }

    /// A forwarding-only tracker for trace recording: every engine hook
    /// still fires (and reaches an attached sink), but no ACE interval
    /// state is allocated or updated. This keeps the traced golden pass
    /// within a small factor of the untraced one instead of paying the
    /// full per-word lifetime accounting it never reads.
    pub fn trace_only(cfg: &GpuConfig) -> Self {
        LifetimeTracker {
            base: 0,
            tracks: [
                Track::new(0),
                Track::new(0),
                Track::new(0),
                Track::new(0),
                Track::new(0),
            ],
            words_per_inst: [
                cfg.rf_regs_per_sm as usize,
                cfg.smem_bytes_per_sm as usize / 4,
                cfg.l1d.bytes as usize / 4,
                cfg.l1t.bytes as usize / 4,
                cfg.l2.bytes as usize / 4,
            ],
            line_words: cfg.l2.line_bytes as usize / 4,
            events: 0,
            sink: None,
            ace: false,
        }
    }

    /// Attach a probe sink; every subsequent hook is mirrored into it.
    pub fn set_sink(&mut self, sink: SharedSink) {
        self.sink = Some(ProbeBuf::new(sink));
    }

    #[inline]
    fn g(&self, t: u64) -> u64 {
        self.base + t
    }

    #[inline]
    fn word(&self, h: HwStructure, inst: usize, word: usize) -> usize {
        inst * self.words_per_inst[h as usize] + word
    }

    // ---- register file / shared memory (word-indexed per SM) ----

    pub fn reg_write(&mut self, sm: usize, word: usize, t: u64) {
        self.events += 1;
        if self.ace {
            let i = self.word(HwStructure::RegFile, sm, word);
            let g = self.g(t);
            self.tracks[HwStructure::RegFile as usize].write(i, g);
        }
        self.probe_access(HwStructure::RegFile, sm, word as u64, t, true);
    }

    pub fn reg_read(&mut self, sm: usize, word: usize, t: u64) {
        self.events += 1;
        if self.ace {
            let i = self.word(HwStructure::RegFile, sm, word);
            let g = self.g(t);
            self.tracks[HwStructure::RegFile as usize].read(i, g);
        }
        self.probe_access(HwStructure::RegFile, sm, word as u64, t, false);
    }

    pub fn smem_write(&mut self, sm: usize, word: usize, t: u64) {
        self.events += 1;
        if self.ace {
            let i = self.word(HwStructure::Smem, sm, word);
            let g = self.g(t);
            self.tracks[HwStructure::Smem as usize].write(i, g);
        }
        self.probe_access(HwStructure::Smem, sm, word as u64, t, true);
    }

    pub fn smem_read(&mut self, sm: usize, word: usize, t: u64) {
        self.events += 1;
        if self.ace {
            let i = self.word(HwStructure::Smem, sm, word);
            let g = self.g(t);
            self.tracks[HwStructure::Smem as usize].read(i, g);
        }
        self.probe_access(HwStructure::Smem, sm, word as u64, t, false);
    }

    #[inline]
    fn probe_access(&mut self, h: HwStructure, inst: usize, word: u64, t: u64, write: bool) {
        emit(
            &mut self.sink,
            ProbeEvent::Access {
                h,
                inst: inst as u32,
                word,
                t,
                write,
            },
        );
    }

    /// CTA launch zero-fills its register and shared-memory partitions:
    /// record the fill as writes (a flip of the cleared state is live until
    /// the first overwrite if the zeros are read).
    pub fn cta_fill(
        &mut self,
        sm: usize,
        rf_start: usize,
        rf_len: usize,
        smem_start: usize,
        smem_len: usize,
        t: u64,
    ) {
        if self.ace {
            let g = self.g(t);
            let rf = &mut self.tracks[HwStructure::RegFile as usize];
            let base = sm * self.words_per_inst[HwStructure::RegFile as usize];
            for w in rf_start..rf_start + rf_len {
                rf.write(base + w, g);
            }
            let smem = &mut self.tracks[HwStructure::Smem as usize];
            let base = sm * self.words_per_inst[HwStructure::Smem as usize];
            for w in smem_start..smem_start + smem_len {
                smem.write(base + w, g);
            }
        }
        self.events += 1;
        emit(
            &mut self.sink,
            ProbeEvent::Range {
                h: HwStructure::RegFile,
                inst: sm as u32,
                start: rf_start as u64,
                len: rf_len as u32,
                t,
                write: true,
            },
        );
        emit(
            &mut self.sink,
            ProbeEvent::Range {
                h: HwStructure::Smem,
                inst: sm as u32,
                start: smem_start as u64,
                len: smem_len as u32,
                t,
                write: true,
            },
        );
    }

    // ---- caches (line-indexed per instance) ----

    #[inline]
    fn line_word(&self, h: HwStructure, inst: usize, line: usize, off: usize) -> usize {
        inst * self.words_per_inst[h as usize] + line * self.line_words + off
    }

    pub fn cache_read(&mut self, h: HwStructure, inst: usize, line: usize, off: usize, t: u64) {
        self.events += 1;
        if self.ace {
            let i = self.line_word(h, inst, line, off);
            let g = self.g(t);
            self.tracks[h as usize].read(i, g);
        }
        self.probe_access(h, inst, (line * self.line_words + off) as u64, t, false);
    }

    pub fn cache_write(&mut self, h: HwStructure, inst: usize, line: usize, off: usize, t: u64) {
        self.events += 1;
        if self.ace {
            let i = self.line_word(h, inst, line, off);
            let g = self.g(t);
            self.tracks[h as usize].write(i, g);
        }
        self.probe_access(h, inst, (line * self.line_words + off) as u64, t, true);
    }

    /// A whole line is filled from the next level: every word is written.
    /// The caller must close the victim line (live if dirty) *before* the
    /// fill.
    pub fn cache_fill(&mut self, h: HwStructure, inst: usize, line: usize, t: u64) {
        self.events += 1;
        if self.ace {
            let g = self.g(t);
            let start = self.line_word(h, inst, line, 0);
            let tr = &mut self.tracks[h as usize];
            for i in start..start + self.line_words {
                tr.write(i, g);
            }
        }
        self.probe_line(h, inst, line, t, true);
    }

    #[inline]
    fn probe_line(&mut self, h: HwStructure, inst: usize, line: usize, t: u64, write: bool) {
        emit(
            &mut self.sink,
            ProbeEvent::Range {
                h,
                inst: inst as u32,
                start: (line * self.line_words) as u64,
                len: self.line_words as u32,
                t,
                write,
            },
        );
    }

    /// A whole line is read to service a lower-level fill (conservative:
    /// all words count as read).
    pub fn cache_read_line(&mut self, h: HwStructure, inst: usize, line: usize, t: u64) {
        self.events += 1;
        if self.ace {
            let g = self.g(t);
            let start = self.line_word(h, inst, line, 0);
            let tr = &mut self.tracks[h as usize];
            for i in start..start + self.line_words {
                tr.read(i, g);
            }
        }
        self.probe_line(h, inst, line, t, false);
    }

    /// A dirty line is evicted at `t`: its data is architecturally required
    /// up to the write-back, so every word closes live.
    pub fn close_line_live(&mut self, h: HwStructure, inst: usize, line: usize, t: u64) {
        self.events += 1;
        self.account_line_live(h, inst, line, t);
        // A dirty write-back propagates the line's data outward — the
        // probe stream records it as a whole-line read.
        self.probe_line(h, inst, line, t, false);
    }

    /// The ACE half of [`close_line_live`](Self::close_line_live): every
    /// word of the line closes live at `t`; nothing reaches the sink.
    fn account_line_live(&mut self, h: HwStructure, inst: usize, line: usize, t: u64) {
        if self.ace {
            let g = self.g(t);
            let start = self.line_word(h, inst, line, 0);
            let tr = &mut self.tracks[h as usize];
            for i in start..start + self.line_words {
                tr.close_live(i, g);
            }
        }
    }

    // ---- scheduling probes (no ACE accounting, forwarding only) ----

    /// A kernel launch begins; geometry for occupancy reconstruction.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_begin(
        &mut self,
        warps_per_cta: u32,
        regs_per_cta: u32,
        smem_words_per_cta: u32,
        slots_per_sm: u32,
        total_ctas: u32,
    ) {
        emit(
            &mut self.sink,
            ProbeEvent::LaunchBegin {
                warps_per_cta,
                regs_per_cta,
                smem_words_per_cta,
                slots_per_sm,
                total_ctas,
            },
        );
    }

    /// CTA slot occupancy change: a slot was filled (`initial` during the
    /// pre-cycle-0 prefill) …
    pub fn slot_fill(&mut self, sm: usize, slot: usize, t: u64, initial: bool) {
        emit(
            &mut self.sink,
            ProbeEvent::SlotFill {
                sm: sm as u32,
                slot: slot as u32,
                t,
                initial,
            },
        );
    }

    /// … or drained during cycle `t`'s retire stage.
    pub fn slot_free(&mut self, sm: usize, slot: usize, t: u64) {
        emit(
            &mut self.sink,
            ProbeEvent::SlotFree {
                sm: sm as u32,
                slot: slot as u32,
                t,
            },
        );
    }

    /// The host observed an L2-resident word (classification or glue read).
    pub fn host_peek(&mut self, line: usize, off: usize) {
        emit(
            &mut self.sink,
            ProbeEvent::HostRead {
                word: (line * self.line_words + off) as u64,
            },
        );
    }

    // ---- boundaries ----

    /// Kernel launch finished after `cycles` local cycles: register-file
    /// and shared-memory contents die with the grid, and the (write-through
    /// L1D, read-only L1T) per-SM caches are invalidated — all remaining
    /// intervals close dead. The L2 persists.
    pub fn launch_end(&mut self, cycles: u64) {
        if self.ace {
            for h in [
                HwStructure::RegFile,
                HwStructure::Smem,
                HwStructure::L1D,
                HwStructure::L1T,
            ] {
                self.tracks[h as usize].close_all_dead();
            }
        }
        emit(&mut self.sink, ProbeEvent::LaunchEnd { cycles });
        // Segment boundary: hand the recorder the completed launch
        // promptly (drop still flushes whatever follows).
        if let Some(b) = &mut self.sink {
            b.flush();
        }
    }

    /// Advance the global clock after a launch completed in `cycles`.
    pub fn advance_base(&mut self, cycles: u64) {
        self.base += cycles;
    }

    /// End of the traced application: close every surviving L2 line —
    /// live at the current global time if dirty (its data still backs
    /// memory the host may read), dead otherwise. Bookkeeping only: no
    /// line is evicted, so an attached sink sees nothing.
    pub fn finalize_l2(&mut self, dirty: impl Fn(usize) -> bool) {
        if !self.ace {
            return;
        }
        let lines = self.words_per_inst[HwStructure::L2 as usize] / self.line_words;
        for line in 0..lines {
            if dirty(line) {
                // Local time 0 ⇒ the closing time is the current global
                // clock (`base`).
                self.account_line_live(HwStructure::L2, 0, line, 0);
            } else {
                let start = self.line_word(HwStructure::L2, 0, line, 0);
                let tr = &mut self.tracks[HwStructure::L2 as usize];
                for i in start..start + self.line_words {
                    tr.close_dead(i);
                }
            }
        }
    }

    /// Accumulated ACE word-cycles per structure, in `HwStructure::ALL`
    /// order. Multiply by 32 for bit-cycles.
    pub fn ace_word_cycles(&self) -> [u64; 5] {
        [
            self.tracks[0].ace_word_cycles,
            self.tracks[1].ace_word_cycles,
            self.tracks[2].ace_word_cycles,
            self.tracks[3].ace_word_cycles,
            self.tracks[4].ace_word_cycles,
        ]
    }

    /// Total hook invocations (observability counter fodder).
    pub fn events(&self) -> u64 {
        self.events
    }
}

/// Bundle threaded through the cache helpers so an L1 access can record
/// both L1-side and L2-side events against the right instance.
pub struct CacheAce<'a> {
    pub tracker: &'a mut LifetimeTracker,
    /// Which L1 structure the access goes through (L1D or L1T).
    pub l1: HwStructure,
    /// SM index owning the L1 instance.
    pub sm: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_cfg() -> GpuConfig {
        GpuConfig::volta_scaled(1)
    }

    #[test]
    fn write_read_overwrite_counts_only_live_interval() {
        let mut t = LifetimeTracker::new(&mini_cfg());
        t.reg_write(0, 3, 10);
        t.reg_read(0, 3, 25); // live 10..25 = 15
        t.reg_write(0, 3, 40); // dead 25..40
        t.launch_end(50); // never read again: +0
        assert_eq!(t.ace_word_cycles()[HwStructure::RegFile as usize], 15);
    }

    #[test]
    fn unread_write_is_dead() {
        let mut t = LifetimeTracker::new(&mini_cfg());
        t.smem_write(0, 0, 5);
        t.launch_end(100);
        assert_eq!(t.ace_word_cycles()[HwStructure::Smem as usize], 0);
    }

    #[test]
    fn read_without_open_interval_is_ignored() {
        let mut t = LifetimeTracker::new(&mini_cfg());
        t.reg_read(0, 7, 10);
        t.launch_end(20);
        assert_eq!(t.ace_word_cycles()[HwStructure::RegFile as usize], 0);
    }

    #[test]
    fn dirty_eviction_closes_full_residency() {
        let cfg = mini_cfg();
        let mut t = LifetimeTracker::new(&cfg);
        t.cache_write(HwStructure::L2, 0, 2, 1, 10);
        t.close_line_live(HwStructure::L2, 0, 2, 100);
        // One word live 10..100; the other 31 line words had no open
        // interval.
        assert_eq!(t.ace_word_cycles()[HwStructure::L2 as usize], 90);
    }

    #[test]
    fn fill_then_partial_read_counts_read_words_only() {
        let cfg = mini_cfg();
        let mut t = LifetimeTracker::new(&cfg);
        t.cache_fill(HwStructure::L1D, 0, 0, 10);
        t.cache_read(HwStructure::L1D, 0, 0, 5, 30);
        t.launch_end(60);
        // Only word 5 was read: live 10..30.
        assert_eq!(t.ace_word_cycles()[HwStructure::L1D as usize], 20);
    }

    #[test]
    fn base_offset_spans_launches() {
        let mut t = LifetimeTracker::new(&mini_cfg());
        t.cache_write(HwStructure::L2, 0, 0, 0, 10); // global 10
        t.advance_base(100);
        t.cache_read(HwStructure::L2, 0, 0, 0, 5); // global 105
        t.advance_base(50);
        t.finalize_l2(|_| false); // clean: dead after last read
        assert_eq!(t.ace_word_cycles()[HwStructure::L2 as usize], 95);
    }

    #[test]
    fn finalize_l2_dirty_line_live_until_end() {
        let mut t = LifetimeTracker::new(&mini_cfg());
        t.cache_write(HwStructure::L2, 0, 1, 0, 10);
        t.advance_base(200);
        t.finalize_l2(|line| line == 1);
        assert_eq!(t.ace_word_cycles()[HwStructure::L2 as usize], 190);
    }

    #[test]
    fn finalize_l2_accounts_without_reaching_the_sink() {
        use std::sync::{Arc, Mutex};
        struct Collect(Vec<ProbeEvent>);
        impl crate::probe::TraceSink for Collect {
            fn event(&mut self, ev: ProbeEvent) {
                self.0.push(ev);
            }
        }
        let sink = Arc::new(Mutex::new(Collect(Vec::new())));
        let mut t = LifetimeTracker::new(&mini_cfg());
        t.set_sink(sink.clone());
        t.cache_write(HwStructure::L2, 0, 1, 0, 10);
        t.advance_base(200);
        t.finalize_l2(|line| line == 1);
        assert_eq!(t.ace_word_cycles()[HwStructure::L2 as usize], 190);
        drop(t);
        // The write is the whole stream: closing the dirty line at end of
        // application is not a write-back and must not look like one.
        let got = &sink.lock().unwrap().0;
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(matches!(got[0], ProbeEvent::Access { write: true, .. }));
    }

    #[test]
    fn cta_fill_zeroes_are_live_when_read() {
        let mut t = LifetimeTracker::new(&mini_cfg());
        t.cta_fill(0, 0, 4, 0, 2, 0);
        t.reg_read(0, 2, 30); // zero-filled reg read: live 0..30
        t.smem_read(0, 1, 12); // zero-filled smem word: live 0..12
        t.launch_end(40);
        assert_eq!(t.ace_word_cycles()[HwStructure::RegFile as usize], 30);
        assert_eq!(t.ace_word_cycles()[HwStructure::Smem as usize], 12);
    }

    #[test]
    fn same_cycle_write_then_read_is_zero_length() {
        let mut t = LifetimeTracker::new(&mini_cfg());
        t.reg_write(0, 0, 10);
        t.reg_read(0, 0, 10);
        t.launch_end(20);
        assert_eq!(t.ace_word_cycles()[HwStructure::RegFile as usize], 0);
    }
}
