//! The replay index — read runs folded in program order, one entry per
//! 32-word row until the row's words diverge — against what it replaced
//! and what it must agree with:
//!
//! * on generated multi-segment streams — single words, ranges inside a
//!   row, ranges from an unaligned start across a row boundary and ranges
//!   of whole rows, and register rows as the timed engine reports them
//!   (full, partial-mask, read and written in one cycle, split by a
//!   partial operand and merged back by full-row touches) —
//!   `AppTrace::live` equals a brute-force scan of the sorted touch list
//!   (first touch at-or-after the position, reads before writes at one
//!   position) at every touch position ±1 cycle, and `live_word_cycles` a
//!   brute-force grouping of reads by the write they follow (one run per
//!   such write, none overlapping), for the recorder's trace and for its
//!   blobs re-imported; and however the stream is batched, each blob the
//!   recorder streamed decodes to exactly its segment's header and events;
//!   and ACE's word-cycles are the same with every `Range` split into one
//!   `Access` per word;
//! * on every application, the read runs' within-segment lengths are ACE's
//!   register-file and shared-memory lifetimes, word-cycle for word-cycle;
//! * K-Means' index costs its rows' read runs, not its word touches.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use kernels::{all_benchmarks, golden_pass, golden_run, AceProfile, Sinks, Variant};
use proptest::prelude::*;
use rayon::prelude::*;
use trace::{decode_segment_lossy, AppTrace, SegmentEvents, TraceBuilder};
use vgpu_sim::{
    GpuConfig, HwStructure, LaunchGeometry, LifetimeTracker, ProbeEvent, SegEvent, SharedSink,
    TraceSink,
};

/// One recorded word touch, in the oracle's terms.
#[derive(Clone, Copy)]
struct Touch {
    h: HwStructure,
    inst: u32,
    word: u64,
    seg: u32,
    t: u64,
    write: bool,
}

/// Each word's touches, `(seg, t, write)` in stream order.
type ByWord = BTreeMap<(HwStructure, u32, u64), Vec<(u32, u64, bool)>>;

fn by_word(touches: &[Touch]) -> ByWord {
    let mut words = ByWord::new();
    for x in touches {
        let key = (x.h, x.inst, x.word);
        words.entry(key).or_default().push((x.seg, x.t, x.write));
    }
    words
}

/// The pre-interval index's answer: the first touch of the word at-or-after
/// `(seg, c)`, reads ordered before writes at one position, is a read.
fn oracle(word: &[(u32, u64, bool)], seg: u32, c: u64) -> bool {
    word.iter()
        .filter(|&&(s, t, _)| (s, t) >= (seg, c))
        .min()
        .is_some_and(|&(.., write)| !write)
}

/// `AppTrace::live_word_cycles` from the touch list: per structure, each
/// word's reads grouped by the write they follow (the last one strictly
/// before them), Σ last read − write over the groups inside one segment.
fn oracle_word_cycles(words: &ByWord) -> [u64; 5] {
    let mut sum = [0; 5];
    for (&(h, ..), touches) in words {
        let mut runs = BTreeMap::new();
        for &(seg, t, _) in touches.iter().filter(|x| !x.2) {
            let opening = touches
                .iter()
                .filter(|&&(s, u, write)| write && (s, u) < (seg, t))
                .map(|&(s, u, _)| (s, u))
                .max();
            if let Some(write) = opening {
                let last = runs.entry(write).or_insert((seg, t));
                *last = (*last).max((seg, t));
            }
        }
        for ((seg, t), (last_seg, last_t)) in runs {
            if seg == last_seg {
                sum[h as usize] += last_t - t;
            }
        }
    }
    sum
}

/// Raw parts of one touch event:
/// `((op, h, write), (inst, word, len, dt), lane mask)`.
type Part = ((u8, u8, bool), (u32, u64, u32, u64), u32);

fn arb_parts(max: usize) -> impl Strategy<Value = Vec<Part>> {
    let mask = prop_oneof![
        Just(u32::MAX),
        Just(0xFFFF_FF0F),
        (0u32..32).prop_map(|lane| 1 << lane),
        any::<u32>(),
    ];
    prop::collection::vec(
        (
            (0u8..8, 0u8..5, any::<bool>()),
            (0u32..2, 0u64..4, 1u32..3, 0u64..3),
            mask,
        ),
        0..max,
    )
}

/// A warp register operand as the timed engine reports it: the lanes
/// `mask` of the 32-word row at `start`, one `Range` per run of two or
/// more consecutive lanes and one `Access` per lone lane, ascending.
fn row(inst: u32, start: u64, mask: u32, t: u64, write: bool) -> Vec<SegEvent> {
    let mut events = Vec::new();
    let mut lane = 0;
    while lane < 32 {
        let len = (lane..32).take_while(|&l| mask >> l & 1 == 1).count() as u64;
        let (h, word) = (HwStructure::RegFile, start + lane);
        if len == 1 {
            events.push(SegEvent::Access {
                h,
                inst,
                word,
                t,
                write,
            });
        } else if len > 1 {
            events.push(SegEvent::Range {
                h,
                inst,
                start: word,
                len: len as u32,
                t,
                write,
            });
        }
        lane += len.max(1);
    }
    events
}

/// One segment's events, and its touches appended to `touches`: in a
/// launch segment `t` accumulates the deltas (repeated cycles are
/// frequent) and the launch runs one cycle past the last; a host segment
/// is all `t == 0` and may carry `HostRead`s. Ops 0–2 touch words inside
/// the first row. Ops 3, 4 and 7 are register rows (`word` picks the row,
/// `mask` the lanes; `h` and `len` are unused): one operand, a row read
/// and then written in one cycle (`r1 = r1 + …`), or an operand followed
/// by a full-row write, read and write on the next three cycles — the
/// index splits the row at a partial operand and merges it back there.
/// Op 5 is a `Range` from an unaligned start into the next row or two, op
/// 6 a `Range` of two or three whole rows (a CTA's zero-fill with
/// `regs_per_cta > 32`).
fn segment(
    parts: Vec<Part>,
    seg: u32,
    launch: Option<LaunchGeometry>,
    touches: &mut Vec<Touch>,
) -> SegmentEvents {
    let mut events = Vec::new();
    let mut t = 0;
    for ((op, h, write), (inst, word, len, dt), mask) in parts {
        let h = HwStructure::ALL[usize::from(h)];
        if launch.is_some() {
            t += dt;
        }
        let mut evs = match op {
            2 if launch.is_none() => vec![SegEvent::HostRead { word }],
            0 => vec![SegEvent::Access {
                h,
                inst,
                word,
                t,
                write,
            }],
            1 | 2 => vec![SegEvent::Range {
                h,
                inst,
                start: word,
                len,
                t,
                write,
            }],
            3 | 7 => row(inst, word * 32, mask, t, write),
            4 => row(inst, word * 32, mask, t, false),
            5 => vec![SegEvent::Range {
                h,
                inst,
                start: word * 32 + 31 - u64::from(len),
                len: 2 + 17 * len,
                t,
                write,
            }],
            _ => vec![SegEvent::Range {
                h,
                inst,
                start: word * 32,
                len: 32 * (len + 1),
                t,
                write,
            }],
        };
        if op == 4 {
            evs.extend(row(inst, word * 32, mask, t, true));
        }
        if op == 7 {
            for write in [true, false, true] {
                if launch.is_some() {
                    t += 1;
                }
                evs.extend(row(inst, word * 32, u32::MAX, t, write));
            }
        }
        for ev in &evs {
            let (h, inst, start, len, t, write) = match *ev {
                SegEvent::HostRead { word } => (HwStructure::L2, 0, word, 1, 0, false),
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
                SegEvent::SlotFill { .. } | SegEvent::SlotFree { .. } => unreachable!(),
            };
            touches.extend((start..start + u64::from(len)).map(|word| Touch {
                h,
                inst,
                word,
                seg,
                t,
                write,
            }));
        }
        events.extend(evs);
    }
    SegmentEvents {
        seg,
        launch: launch.map(|g| (g, t + 1)),
        events,
        complete: true,
    }
}

/// `LifetimeTracker::ace_word_cycles` over `probe`, every L2 line still
/// open at the end closed live when its index is even. The tracker models
/// the one L2 there is, so L2 touches of instance 1 are left out.
fn ace_word_cycles(probe: &[ProbeEvent]) -> [u64; 5] {
    let other_l2 = |ev: &&ProbeEvent| match ev {
        ProbeEvent::Seg(SegEvent::Access { h, inst, .. } | SegEvent::Range { h, inst, .. }) => {
            *h == HwStructure::L2 && *inst > 0
        }
        _ => false,
    };
    let kept: Vec<_> = probe.iter().filter(|ev| !other_l2(ev)).copied().collect();
    let mut tracker = LifetimeTracker::new(&GpuConfig::volta_scaled(2));
    tracker.consume(&kept);
    tracker.finalize(|line| line % 2 == 0);
    tracker.ace_word_cycles()
}

/// `probe` with every `Range` replaced by one `Access` per word, ascending.
fn split_ranges(probe: &[ProbeEvent]) -> Vec<ProbeEvent> {
    let mut split = Vec::new();
    for &ev in probe {
        match ev {
            ProbeEvent::Seg(SegEvent::Range {
                h,
                inst,
                start,
                len,
                t,
                write,
            }) => split.extend((start..start + u64::from(len)).map(|word| {
                ProbeEvent::Seg(SegEvent::Access {
                    h,
                    inst,
                    word,
                    t,
                    write,
                })
            })),
            ev => split.push(ev),
        }
    }
    split
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_runs_answer_like_the_sorted_touch_list(
        prefix in arb_parts(8),
        launches in prop::collection::vec((arb_parts(48), arb_parts(8)), 0..4),
        batch in 1usize..9,
    ) {
        let geom = LaunchGeometry {
            warps_per_cta: 1,
            regs_per_cta: 8,
            smem_words_per_cta: 8,
            slots_per_sm: 1,
            total_ctas: 1,
        };
        let mut touches = Vec::new();
        let mut segments = vec![segment(prefix, 0, None, &mut touches)];
        for (k, (launch, host)) in launches.into_iter().enumerate() {
            let seg = 2 * k as u32 + 1;
            segments.push(segment(launch, seg, Some(geom), &mut touches));
            segments.push(segment(host, seg + 1, None, &mut touches));
        }
        let mut probe = Vec::new();
        for s in &segments {
            probe.extend(s.launch.map(|(g, _)| ProbeEvent::LaunchBegin(g)));
            probe.extend(s.events.iter().copied().map(ProbeEvent::Seg));
            probe.extend(s.launch.map(|(_, cycles)| ProbeEvent::LaunchEnd { cycles }));
        }
        let mut builder = TraceBuilder::new();
        for chunk in probe.chunks(batch) {
            builder.consume(chunk);
        }
        let recorded = builder.finish();
        // Streamed across batch boundaries, each blob is exactly its segment.
        prop_assert_eq!(recorded.blobs().len(), segments.len());
        for (blob, want) in recorded.blobs().iter().zip(&segments) {
            prop_assert_eq!(decode_segment_lossy(blob).as_ref(), Some(want));
        }
        let imported = AppTrace::from_blobs(recorded.blobs().to_vec());
        let words = by_word(&touches);
        let word_cycles = oracle_word_cycles(&words);
        for tr in [&recorded, &imported] {
            prop_assert_eq!(tr.live_word_cycles(), word_cycles);
        }
        // ACE lifetimes do not depend on how touches are grouped into events.
        prop_assert_eq!(ace_word_cycles(&probe), ace_word_cycles(&split_ranges(&probe)));
        for x in &touches {
            let word = &words[&(x.h, x.inst, x.word)];
            for c in [x.t.checked_sub(1), Some(x.t), Some(x.t + 1)].into_iter().flatten() {
                let want = oracle(word, x.seg, c);
                for tr in [&recorded, &imported] {
                    prop_assert_eq!(
                        tr.live(x.h, x.inst, x.word, x.seg, c),
                        want,
                        "{:?} inst {} word {} at ({}, {})",
                        x.h, x.inst, x.word, x.seg, c
                    );
                }
            }
        }
    }
}

/// One timed golden pass of every application with the ACE and trace sinks
/// teed onto the same probe stream.
#[test]
fn read_runs_are_ace_lifetimes_in_the_register_file_and_shared_memory() {
    // The two sinks fold one stream under different rules, which coincide
    // for RF and SMEM: both are written before they are read in a launch
    // and die with it, and the engine never writes and reads one of their
    // words in the same cycle, so "read first" at a tie never matters. The
    // other three structures legitimately differ (docs/ACE.md): K-Means
    // fills an L1T line and reads it in the same cycle, which the trace's
    // read-first rule counts live from the previous fill while ACE (and
    // injection) count 0; and ACE counts a dirty write-back, and a dirty
    // L2 line at the end of the application, live for its full residency,
    // across segments.
    let cfg = GpuConfig::default();
    all_benchmarks().par_iter().for_each(|b| {
        let golden = golden_run(b.as_ref(), &cfg, Variant::TIMED);
        let builder = Arc::new(Mutex::new(TraceBuilder::new()));
        let sinks = Sinks {
            reference: Some(&golden),
            ace: Some(AceProfile::default()),
            trace: Some(builder.clone() as SharedSink),
            ..Sinks::default()
        };
        let ace = golden_pass(b.as_ref(), &cfg, Variant::TIMED, sinks).ace;
        let ace = ace.expect("asked for").totals;
        let trace = builder.lock().unwrap().finish().live_word_cycles();
        assert!(ace[0] > 0, "{}: RF lifetimes expected", b.name());
        assert_eq!(trace[..2], ace[..2], "{}: RF, SMEM", b.name());
    });
}

#[test]
fn kmeans_index_costs_read_runs_not_word_touches() {
    // The campaign configuration (4 SMs). Measured: 2.9 MB (2,869,008 B)
    // of per-row offsets and read runs over K-Means' 6.75 M expanded word
    // touches. Folded per word, the same runs took 46.4 MB, and the point
    // index before them held every touch at 16 B (108 MB); a regression
    // back to per-word runs or per-touch storage must not land silently.
    let cfg = GpuConfig::default();
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.name() == "K-Means")
        .expect("K-Means is in the suite");
    let golden = golden_run(bench.as_ref(), &cfg, Variant::TIMED);
    let bytes = trace::record_app_trace(bench.as_ref(), &cfg, &golden).index_bytes();
    assert!(bytes <= 4 << 20, "K-Means index is {bytes} B");
}
