//! The replay index — per-word read runs folded in program order — against
//! what it replaced and what it must agree with:
//!
//! * on generated multi-segment streams, `AppTrace::live` equals a
//!   brute-force scan of the sorted touch list (first touch at-or-after the
//!   position, reads before writes at one position) at every touch position
//!   ±1 cycle, and `live_word_cycles` a brute-force grouping of reads by the
//!   write they follow (one run per such write, none overlapping), for the
//!   recorder's trace and for its blobs re-imported; and however the
//!   stream is batched, each blob the recorder streamed decodes to exactly
//!   its segment's header and events;
//! * on every application, the read runs' within-segment lengths are ACE's
//!   register-file and shared-memory lifetimes, word-cycle for word-cycle;
//! * K-Means' index costs its read runs, not its word touches.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use kernels::{all_benchmarks, golden_pass, golden_run, AceProfile, Sinks, Variant};
use proptest::prelude::*;
use rayon::prelude::*;
use trace::{decode_segment_lossy, AppTrace, SegmentEvents, TraceBuilder};
use vgpu_sim::{
    GpuConfig, HwStructure, LaunchGeometry, ProbeEvent, SegEvent, SharedSink, TraceSink,
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

/// The pre-interval index's answer: the first touch of the word at-or-after
/// `(seg, c)`, reads ordered before writes at one position, is a read.
fn oracle(touches: &[Touch], h: HwStructure, inst: u32, word: u64, seg: u32, c: u64) -> bool {
    touches
        .iter()
        .filter(|x| (x.h, x.inst, x.word) == (h, inst, word) && (x.seg, x.t) >= (seg, c))
        .min_by_key(|x| (x.seg, x.t, x.write))
        .is_some_and(|x| !x.write)
}

/// `AppTrace::live_word_cycles` from the touch list: per structure, each
/// word's reads grouped by the write they follow (the last one strictly
/// before them), Σ last read − write over the groups inside one segment.
fn oracle_word_cycles(touches: &[Touch]) -> [u64; 5] {
    let mut runs = BTreeMap::new();
    for r in touches.iter().filter(|x| !x.write) {
        let key = (r.h, r.inst, r.word);
        let opening = touches
            .iter()
            .filter(|x| x.write && (x.h, x.inst, x.word) == key && (x.seg, x.t) < (r.seg, r.t))
            .map(|x| (x.seg, x.t))
            .max();
        if let Some(write) = opening {
            let last = runs
                .entry((r.h as usize, write, key))
                .or_insert((r.seg, r.t));
            *last = (*last).max((r.seg, r.t));
        }
    }
    let mut sum = [0; 5];
    for ((h, (seg, t), _), (last_seg, last_t)) in runs {
        if seg == last_seg {
            sum[h] += last_t - t;
        }
    }
    sum
}

/// Raw parts of one touch event: `((op, h, write), (inst, word, len, dt))`.
type Part = ((u8, u8, bool), (u32, u64, u32, u64));

fn arb_parts(max: usize) -> impl Strategy<Value = Vec<Part>> {
    prop::collection::vec(
        (
            (0u8..3, 0u8..5, any::<bool>()),
            (0u32..2, 0u64..4, 1u32..3, 0u64..3),
        ),
        0..max,
    )
}

/// One segment's events, and its touches appended to `touches`: in a
/// launch segment `t` accumulates the deltas (repeated cycles are
/// frequent) and the launch runs one cycle past the last; a host segment
/// is all `t == 0` and may carry `HostRead`s.
fn segment(
    parts: Vec<Part>,
    seg: u32,
    launch: Option<LaunchGeometry>,
    touches: &mut Vec<Touch>,
) -> SegmentEvents {
    let mut events = Vec::new();
    let mut t = 0;
    for ((op, h, write), (inst, word, len, dt)) in parts {
        let h = HwStructure::ALL[usize::from(h)];
        if launch.is_some() {
            t += dt;
        }
        let (ev, h, inst, len, write) = match op {
            2 if launch.is_none() => (SegEvent::HostRead { word }, HwStructure::L2, 0, 1, false),
            0 => {
                let ev = SegEvent::Access {
                    h,
                    inst,
                    word,
                    t,
                    write,
                };
                (ev, h, inst, 1, write)
            }
            _ => {
                let ev = SegEvent::Range {
                    h,
                    inst,
                    start: word,
                    len,
                    t,
                    write,
                };
                (ev, h, inst, len, write)
            }
        };
        events.push(ev);
        touches.extend((word..word + u64::from(len)).map(|word| Touch {
            h,
            inst,
            word,
            seg,
            t,
            write,
        }));
    }
    SegmentEvents {
        seg,
        launch: launch.map(|g| (g, t + 1)),
        events,
        complete: true,
    }
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
        let word_cycles = oracle_word_cycles(&touches);
        for tr in [&recorded, &imported] {
            prop_assert_eq!(tr.live_word_cycles(), word_cycles);
        }
        for x in &touches {
            for c in [x.t.checked_sub(1), Some(x.t), Some(x.t + 1)].into_iter().flatten() {
                let want = oracle(&touches, x.h, x.inst, x.word, x.seg, c);
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
    // The campaign configuration (4 SMs). Measured: 45 MB of read runs
    // over K-Means' 6.75 M expanded word touches, which the point index
    // this replaced held at 16 B each (108 MB); a regression back to
    // per-touch storage must not land silently.
    let cfg = GpuConfig::default();
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.name() == "K-Means")
        .expect("K-Means is in the suite");
    let golden = golden_run(bench.as_ref(), &cfg, Variant::TIMED);
    let bytes = trace::record_app_trace(bench.as_ref(), &cfg, &golden).index_bytes();
    assert!(bytes <= 56 << 20, "K-Means index is {bytes} B");
}
