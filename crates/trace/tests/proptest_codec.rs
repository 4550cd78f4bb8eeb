//! Property tests for the trace blob codec:
//!
//! * encode → decode is the identity on arbitrary well-formed segments
//!   (round-trip fixpoint, `complete == true`);
//! * decoding any *prefix* of a valid blob never panics and yields a
//!   prefix of the original events (truncation recovery: a cut blob
//!   decodes to a clean prefix, never to garbage);
//! * decoding arbitrary garbage never panics.

use proptest::prelude::*;
use trace::{decode_segment_lossy, encode_segment};
use vgpu_sim::{HwStructure, LaunchGeometry, SegEvent};

/// One generated event: (op, structure, write), (inst, word, len, time delta).
type RawEvent = ((u8, u8, bool), (u32, u64, u32, u16));

/// Build a well-formed event list from proptest-generated raw parts:
/// times are made nondecreasing by accumulating the per-event deltas.
fn events_from(parts: Vec<RawEvent>) -> Vec<SegEvent> {
    let mut t = 0u64;
    parts
        .into_iter()
        .map(|((op, h, write), (inst, word, len, dt))| {
            t += u64::from(dt);
            let h = HwStructure::ALL[usize::from(h % 5)];
            match op % 5 {
                0 => SegEvent::Access {
                    h,
                    inst,
                    word,
                    t,
                    write,
                },
                1 => SegEvent::Range {
                    h,
                    inst,
                    start: word,
                    len,
                    t,
                    write,
                },
                2 => SegEvent::SlotFill {
                    sm: inst,
                    slot: len,
                    t,
                    initial: write,
                },
                3 => SegEvent::SlotFree {
                    sm: inst,
                    slot: len,
                    t,
                },
                _ => SegEvent::HostRead { word },
            }
        })
        .collect()
}

/// `HostRead` carries no time, so the delta chain resumes at the *next*
/// timed event; drop generated sequences where that would regress time
/// (the recorder never produces them: host reads live in host segments
/// where every timed event has t == 0).
fn well_formed(events: &[SegEvent]) -> bool {
    let mut last = 0u64;
    for ev in events {
        let t = match *ev {
            SegEvent::Access { t, .. } | SegEvent::Range { t, .. } => t,
            SegEvent::SlotFill { t, .. } | SegEvent::SlotFree { t, .. } => t,
            SegEvent::HostRead { .. } => continue,
        };
        if t < last {
            return false;
        }
        last = t;
    }
    true
}

fn arb_geom() -> impl Strategy<Value = LaunchGeometry> {
    (1u32..64, 1u32..4096, 1u32..1024, 1u32..16, 1u32..512).prop_map(
        |(warps_per_cta, regs_per_cta, smem_words_per_cta, slots_per_sm, total_ctas)| {
            LaunchGeometry {
                warps_per_cta,
                regs_per_cta,
                smem_words_per_cta,
                slots_per_sm,
                total_ctas,
            }
        },
    )
}

proptest! {
    /// Round trip: any well-formed host segment survives encode/decode.
    #[test]
    fn host_segment_round_trips(
        seg in 0u32..1_000_000,
        parts in prop::collection::vec(
            ((any::<u8>(), any::<u8>(), any::<bool>()),
             (0u32..65_536, 0u64..(1u64 << 40), 0u32..512, any::<u16>())),
            0..64,
        ),
    ) {
        let events = events_from(parts);
        prop_assert!(well_formed(&events));
        let blob = encode_segment(seg, None, &events);
        let dec = decode_segment_lossy(&blob).expect("valid blob decodes");
        prop_assert!(dec.complete);
        prop_assert_eq!(dec.seg, seg);
        prop_assert_eq!(dec.launch, None);
        prop_assert_eq!(dec.events, events);
    }

    /// Round trip for launch segments, including geometry and cycles.
    #[test]
    fn launch_segment_round_trips(
        seg in 0u32..1_000_000,
        g in arb_geom(),
        cycles in any::<u64>(),
        parts in prop::collection::vec(
            ((any::<u8>(), any::<u8>(), any::<bool>()),
             (0u32..65_536, 0u64..(1u64 << 40), 0u32..512, any::<u16>())),
            0..64,
        ),
    ) {
        let events = events_from(parts);
        let blob = encode_segment(seg, Some((&g, cycles)), &events);
        let dec = decode_segment_lossy(&blob).expect("valid blob decodes");
        prop_assert!(dec.complete);
        prop_assert_eq!(dec.launch, Some((g, cycles)));
        prop_assert_eq!(dec.events, events);
    }

    /// Truncation recovery: every prefix of a valid blob either fails
    /// header decode (None) or yields a clean *prefix* of the original
    /// events with `complete == false` — never a panic, never invented
    /// events.
    #[test]
    fn truncated_blob_decodes_to_event_prefix(
        seg in 0u32..4096,
        g in arb_geom(),
        cycles in 0u64..(1u64 << 40),
        parts in prop::collection::vec(
            ((any::<u8>(), any::<u8>(), any::<bool>()),
             (0u32..65_536, 0u64..(1u64 << 40), 0u32..512, any::<u16>())),
            1..48,
        ),
        cut_frac in 0.0f64..1.0,
    ) {
        let events = events_from(parts);
        let blob = encode_segment(seg, Some((&g, cycles)), &events);
        let cut = ((blob.len() as f64) * cut_frac) as usize;
        if let Some(dec) = decode_segment_lossy(&blob[..cut.min(blob.len() - 1)]) {
            prop_assert!(!dec.complete);
            prop_assert!(dec.events.len() <= events.len());
            prop_assert_eq!(&events[..dec.events.len()], dec.events.as_slice());
        }
    }

    /// Fuzz: arbitrary bytes never panic the lossy decoder, and a valid
    /// magic+version prefix with garbage payload still never panics.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_segment_lossy(&bytes);
        let mut with_magic = b"vtrc\x01\x01".to_vec();
        with_magic.extend_from_slice(&bytes);
        let _ = decode_segment_lossy(&with_magic);
    }
}
