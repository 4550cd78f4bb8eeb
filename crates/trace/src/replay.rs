//! Replay-side trace representation and deadness adjudication.
//!
//! An [`AppTrace`] is the indexed form of one application's recorded
//! probe stream: the encoded per-segment blobs, per-launch occupancy
//! info, and a global first-touch index over every recorded access.
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
//! post-fault.

use std::cell::OnceCell;

use rayon::prelude::*;
use vgpu_sim::{resolve_site, GpuConfig, HwStructure, LaunchGeometry, SegEvent, UarchFault};

use crate::codec::decode_segment_lossy;

const KEY_WORD_BITS: u32 = 40;
const KEY_INST_BITS: u32 = 16;
const POS_T_BITS: u32 = 40;

fn pack_key(h: HwStructure, inst: u32, word: u64) -> Option<u64> {
    if word >> KEY_WORD_BITS != 0 || inst >> KEY_INST_BITS != 0 {
        return None;
    }
    Some(
        ((h as u64) << (KEY_WORD_BITS + KEY_INST_BITS)) | (u64::from(inst) << KEY_WORD_BITS) | word,
    )
}

/// Pack `(seg, t, write)` into one ordered u64. The write flag sits in
/// the LSB, so at equal `(seg, t)` reads sort *before* writes — which
/// makes the first-entry lookup conservatively report a read whenever a
/// read and a write hit the same word in the same cycle.
fn pack_pos(seg: u32, t: u64, write: bool) -> Option<u64> {
    if t >> POS_T_BITS != 0 || seg >> (63 - POS_T_BITS - 1) != 0 {
        return None;
    }
    Some((u64::from(seg) << (POS_T_BITS + 1)) | (t << 1) | u64::from(write))
}

/// One indexed word touch: `(key, pos)`, both packed.
#[derive(Clone, Copy)]
struct PointEntry {
    key: u64,
    pos: u64,
}

/// First-touch index over every recorded access, range events expanded
/// to their constituent words.
struct EventIndex {
    /// Sorted by `(key, pos)`.
    points: Vec<PointEntry>,
    /// Set when some event exceeded the packing limits; adjudication
    /// then refuses to trust the index and always falls back.
    unindexable: bool,
}

impl EventIndex {
    fn build(segs: &[crate::codec::SegmentEvents]) -> EventIndex {
        // Expand per segment in parallel (a trace is tens of millions of
        // word touches), then one parallel sort over the concatenation.
        let per_seg: Vec<(Vec<PointEntry>, bool)> = segs
            .par_iter()
            .map(|se| {
                let mut points = Vec::with_capacity(se.events.len());
                let mut unindexable = false;
                let mut push = |h: HwStructure, inst: u32, word: u64, t: u64, write: bool| match (
                    pack_key(h, inst, word),
                    pack_pos(se.seg, t, write),
                ) {
                    (Some(key), Some(pos)) => points.push(PointEntry { key, pos }),
                    _ => unindexable = true,
                };
                for ev in &se.events {
                    match *ev {
                        SegEvent::Access {
                            h,
                            inst,
                            word,
                            t,
                            write,
                        } => push(h, inst, word, t, write),
                        SegEvent::Range {
                            h,
                            inst,
                            start,
                            len,
                            t,
                            write,
                        } => {
                            for w in start..start + u64::from(len) {
                                push(h, inst, w, t, write);
                            }
                        }
                        SegEvent::HostRead { word } => push(HwStructure::L2, 0, word, 0, false),
                        SegEvent::SlotFill { .. } | SegEvent::SlotFree { .. } => {}
                    }
                }
                (points, unindexable)
            })
            .collect();
        let unindexable = per_seg.iter().any(|(_, u)| *u);
        let mut points = Vec::with_capacity(per_seg.iter().map(|(p, _)| p.len()).sum());
        for (p, _) in per_seg {
            points.extend(p);
        }
        points.par_sort_unstable_by_key(|e| (e.key, e.pos));
        EventIndex {
            points,
            unindexable,
        }
    }

    /// First recorded touch of `(h, inst, word)` at-or-after `(seg, c)`:
    /// `None` if never touched again, otherwise `Some(read)`. Reads sort
    /// before writes at equal position, so a same-cycle read/write tie
    /// conservatively reports a read.
    fn first_touch(&self, h: HwStructure, inst: u32, word: u64, seg: u32, c: u64) -> Option<bool> {
        let key = pack_key(h, inst, word)?;
        let pos = pack_pos(seg, c, false)?;
        let i = self.points.partition_point(|e| (e.key, e.pos) < (key, pos));
        match self.points.get(i) {
            Some(e) if e.key == key => Some(e.pos & 1 == 0),
            _ => None,
        }
    }
}

/// One CTA-slot occupancy transition, with its *effective* cycle: an
/// initial (prefill) fill occupies from cycle 0, mid-run fills and
/// frees take effect from `t + 1` (they happen in cycle `t`'s retire
/// stage, after that cycle's fault application point).
#[derive(Clone, Copy)]
struct SlotEvent {
    sm: u32,
    slot: u32,
    eff: u64,
    fill: bool,
}

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
        for ev in &self.slot_events {
            if ev.eff <= c {
                if let Some(s) = live
                    .get_mut(ev.sm as usize)
                    .and_then(|sm| sm.get_mut(ev.slot as usize))
                {
                    *s = ev.fill;
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

/// A fully indexed application trace.
pub struct AppTrace {
    blobs: Vec<Vec<u8>>,
    launches: Vec<LaunchInfo>,
    index: EventIndex,
    /// Total encoded size of all segment blobs.
    pub bytes: u64,
}

impl AppTrace {
    /// Decode and index a set of encoded segment blobs (in segment
    /// order). Panics if any blob fails to round-trip — the blobs come
    /// from our own encoder, so anything else is a codec bug.
    pub fn from_blobs(blobs: Vec<Vec<u8>>) -> AppTrace {
        let segs: Vec<crate::codec::SegmentEvents> = blobs
            .par_iter()
            .map(|b| {
                let se = decode_segment_lossy(b).expect("trace blob header must decode");
                assert!(se.complete, "trace blob must round-trip completely");
                se
            })
            .collect();
        Self::from_segments(blobs, &segs)
    }

    /// Index already-decoded segments against their encoded blobs. The
    /// recorder calls this directly with the in-memory event stream it
    /// just encoded, skipping the decode round trip (the codec's
    /// encode↔decode fixpoint is property-tested separately).
    pub fn from_segments(blobs: Vec<Vec<u8>>, segs: &[crate::codec::SegmentEvents]) -> AppTrace {
        let mut launches = Vec::new();
        for se in segs {
            if let Some((geom, cycles)) = se.launch {
                let slot_events = se
                    .events
                    .iter()
                    .filter_map(|ev| match *ev {
                        SegEvent::SlotFill {
                            sm,
                            slot,
                            t,
                            initial,
                        } => Some(SlotEvent {
                            sm,
                            slot,
                            eff: if initial { 0 } else { t + 1 },
                            fill: true,
                        }),
                        SegEvent::SlotFree { sm, slot, t } => Some(SlotEvent {
                            sm,
                            slot,
                            eff: t + 1,
                            fill: false,
                        }),
                        _ => None,
                    })
                    .collect();
                launches.push(LaunchInfo {
                    seg: se.seg,
                    geom,
                    cycles,
                    slot_events,
                });
            }
        }
        let index = EventIndex::build(segs);
        let bytes = blobs.iter().map(|b| b.len() as u64).sum();
        AppTrace {
            blobs,
            launches,
            index,
            bytes,
        }
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
        if self.index.unindexable {
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
        let read_first = |w| {
            let touch = self
                .index
                .first_touch(fault.structure, site.inst as u32, w, li.seg, c);
            touch == Some(true)
        };
        if site.words().into_iter().any(read_first) {
            return fallback(FallbackReason::LiveWord);
        }
        Verdict::Dead {
            population: site.population,
        }
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
}
