//! Compact on-the-wire codec for per-segment trace blobs.
//!
//! A recorded application trace is a sequence of *segments*: segment 0 is
//! the host glue before the first launch, launch ordinal `k` occupies
//! segment `2k + 1`, and the glue between launches (and after the last
//! one) fills the even segments. Each segment encodes independently into
//! one blob:
//!
//! ```text
//! magic  b"vtrc"           4 bytes
//! version u8               currently 1
//! kind    u8               0 = host glue, 1 = launch
//! seg     varint           global segment number
//! (launch only)
//!   warps_per_cta, regs_per_cta, smem_words_per_cta,
//!   slots_per_sm, total_ctas   5 varints
//!   cycles                     varint
//! n_events varint
//! events   ...
//! ```
//!
//! Every event starts with a kind byte `op | (h << 4)` where `h` is the
//! [`HwStructure`](vgpu_sim::HwStructure) discriminant for access/range
//! ops and 0 otherwise. Cycle times are delta-encoded within a segment
//! (they are nondecreasing in append order). All integers are LEB128
//! varints, so a typical register access costs 4-6 bytes instead of the
//! 25 of its in-memory form.
//!
//! [`decode_segment_lossy`] is deliberately forgiving: a truncated blob
//! yields the longest cleanly-decodable event prefix with
//! `complete == false`, never a panic. The replay index is built from
//! *decoded* blobs, so the codec is load-bearing, not just an export
//! format.

/// Blob magic, little-endian `b"vtrc"`.
pub const MAGIC: [u8; 4] = *b"vtrc";
/// Current blob format version.
pub const VERSION: u8 = 1;

const OP_ACCESS_READ: u8 = 0;
const OP_ACCESS_WRITE: u8 = 1;
const OP_RANGE_READ: u8 = 2;
const OP_RANGE_WRITE: u8 = 3;
const OP_SLOT_FILL_INITIAL: u8 = 4;
const OP_SLOT_FILL: u8 = 5;
const OP_SLOT_FREE: u8 = 6;
const OP_HOST_READ: u8 = 7;

/// Occupancy geometry of one launch, as carried in its segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceGeometry {
    pub warps_per_cta: u32,
    pub regs_per_cta: u32,
    pub smem_words_per_cta: u32,
    pub slots_per_sm: u32,
    pub total_ctas: u32,
}

/// One decoded trace event. `h` is the raw [`HwStructure`] discriminant
/// (0 = RF, 1 = SMEM, 2 = L1D, 3 = L1T, 4 = L2).
///
/// [`HwStructure`]: vgpu_sim::HwStructure
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    Access {
        h: u8,
        inst: u32,
        word: u64,
        t: u64,
        write: bool,
    },
    Range {
        h: u8,
        inst: u32,
        start: u64,
        len: u32,
        t: u64,
        write: bool,
    },
    Slot {
        sm: u32,
        slot: u32,
        t: u64,
        fill: bool,
        initial: bool,
    },
    HostRead {
        word: u64,
    },
}

impl TraceEvent {
    fn t(&self) -> u64 {
        match *self {
            TraceEvent::Access { t, .. }
            | TraceEvent::Range { t, .. }
            | TraceEvent::Slot { t, .. } => t,
            TraceEvent::HostRead { .. } => 0,
        }
    }
}

/// One decoded segment: header plus whatever events survived decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEvents {
    pub seg: u32,
    /// `Some((geometry, cycles))` for launch segments, `None` for host glue.
    pub launch: Option<(TraceGeometry, u64)>,
    pub events: Vec<TraceEvent>,
    /// False when the blob was truncated or carried trailing garbage.
    pub complete: bool,
}

/// Append `v` as a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint at `*pos`, bounds- and overflow-checked.
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Encode one segment into a self-contained blob.
pub fn encode_segment(
    seg: u32,
    launch: Option<(&TraceGeometry, u64)>,
    events: &[TraceEvent],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + events.len() * 5);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(u8::from(launch.is_some()));
    put_varint(&mut buf, u64::from(seg));
    if let Some((g, cycles)) = launch {
        put_varint(&mut buf, u64::from(g.warps_per_cta));
        put_varint(&mut buf, u64::from(g.regs_per_cta));
        put_varint(&mut buf, u64::from(g.smem_words_per_cta));
        put_varint(&mut buf, u64::from(g.slots_per_sm));
        put_varint(&mut buf, u64::from(g.total_ctas));
        put_varint(&mut buf, cycles);
    }
    put_varint(&mut buf, events.len() as u64);
    let mut last_t = 0u64;
    for ev in events {
        // HostRead carries no time and must not disturb the delta chain.
        let dt = if matches!(ev, TraceEvent::HostRead { .. }) {
            0
        } else {
            let t = ev.t();
            debug_assert!(t >= last_t, "trace events must be t-nondecreasing");
            let dt = t.saturating_sub(last_t);
            last_t = last_t.max(t);
            dt
        };
        match *ev {
            TraceEvent::Access {
                h,
                inst,
                word,
                write,
                ..
            } => {
                let op = if write {
                    OP_ACCESS_WRITE
                } else {
                    OP_ACCESS_READ
                };
                buf.push(op | (h << 4));
                put_varint(&mut buf, u64::from(inst));
                put_varint(&mut buf, word);
                put_varint(&mut buf, dt);
            }
            TraceEvent::Range {
                h,
                inst,
                start,
                len,
                write,
                ..
            } => {
                let op = if write { OP_RANGE_WRITE } else { OP_RANGE_READ };
                buf.push(op | (h << 4));
                put_varint(&mut buf, u64::from(inst));
                put_varint(&mut buf, start);
                put_varint(&mut buf, u64::from(len));
                put_varint(&mut buf, dt);
            }
            TraceEvent::Slot {
                sm,
                slot,
                fill,
                initial,
                ..
            } => {
                let op = match (fill, initial) {
                    (true, true) => OP_SLOT_FILL_INITIAL,
                    (true, false) => OP_SLOT_FILL,
                    (false, _) => OP_SLOT_FREE,
                };
                buf.push(op);
                put_varint(&mut buf, u64::from(sm));
                put_varint(&mut buf, u64::from(slot));
                put_varint(&mut buf, dt);
            }
            TraceEvent::HostRead { word } => {
                buf.push(OP_HOST_READ);
                put_varint(&mut buf, word);
            }
        }
    }
    buf
}

fn decode_event(bytes: &[u8], pos: &mut usize, last_t: &mut u64) -> Option<TraceEvent> {
    let kind = *bytes.get(*pos)?;
    *pos += 1;
    let op = kind & 0x0F;
    let h = kind >> 4;
    match op {
        OP_ACCESS_READ | OP_ACCESS_WRITE => {
            let inst = u32::try_from(get_varint(bytes, pos)?).ok()?;
            let word = get_varint(bytes, pos)?;
            let t = last_t.checked_add(get_varint(bytes, pos)?)?;
            *last_t = t;
            Some(TraceEvent::Access {
                h,
                inst,
                word,
                t,
                write: op == OP_ACCESS_WRITE,
            })
        }
        OP_RANGE_READ | OP_RANGE_WRITE => {
            let inst = u32::try_from(get_varint(bytes, pos)?).ok()?;
            let start = get_varint(bytes, pos)?;
            let len = u32::try_from(get_varint(bytes, pos)?).ok()?;
            let t = last_t.checked_add(get_varint(bytes, pos)?)?;
            *last_t = t;
            Some(TraceEvent::Range {
                h,
                inst,
                start,
                len,
                t,
                write: op == OP_RANGE_WRITE,
            })
        }
        OP_SLOT_FILL_INITIAL | OP_SLOT_FILL | OP_SLOT_FREE => {
            if h != 0 {
                return None;
            }
            let sm = u32::try_from(get_varint(bytes, pos)?).ok()?;
            let slot = u32::try_from(get_varint(bytes, pos)?).ok()?;
            let t = last_t.checked_add(get_varint(bytes, pos)?)?;
            *last_t = t;
            Some(TraceEvent::Slot {
                sm,
                slot,
                t,
                fill: op != OP_SLOT_FREE,
                initial: op == OP_SLOT_FILL_INITIAL,
            })
        }
        OP_HOST_READ => {
            if h != 0 {
                return None;
            }
            let word = get_varint(bytes, pos)?;
            Some(TraceEvent::HostRead { word })
        }
        _ => None,
    }
}

/// Decode one blob, tolerating truncation: returns `None` only when the
/// header itself is unreadable; otherwise returns every event that
/// decodes cleanly before the stream ends, with `complete` reporting
/// whether the full advertised event count (and nothing more) was
/// present. A prefix of a valid blob always yields a prefix of its
/// events.
pub fn decode_segment_lossy(bytes: &[u8]) -> Option<SegmentEvents> {
    if bytes.len() < 6 || bytes[0..4] != MAGIC || bytes[4] != VERSION {
        return None;
    }
    let kind = bytes[5];
    if kind > 1 {
        return None;
    }
    let mut pos = 6usize;
    let seg = u32::try_from(get_varint(bytes, &mut pos)?).ok()?;
    let launch = if kind == 1 {
        let warps_per_cta = u32::try_from(get_varint(bytes, &mut pos)?).ok()?;
        let regs_per_cta = u32::try_from(get_varint(bytes, &mut pos)?).ok()?;
        let smem_words_per_cta = u32::try_from(get_varint(bytes, &mut pos)?).ok()?;
        let slots_per_sm = u32::try_from(get_varint(bytes, &mut pos)?).ok()?;
        let total_ctas = u32::try_from(get_varint(bytes, &mut pos)?).ok()?;
        let cycles = get_varint(bytes, &mut pos)?;
        Some((
            TraceGeometry {
                warps_per_cta,
                regs_per_cta,
                smem_words_per_cta,
                slots_per_sm,
                total_ctas,
            },
            cycles,
        ))
    } else {
        None
    };
    let n_events = get_varint(bytes, &mut pos)?;
    let mut events = Vec::new();
    let mut last_t = 0u64;
    let mut complete = true;
    for _ in 0..n_events {
        match decode_event(bytes, &mut pos, &mut last_t) {
            Some(ev) => events.push(ev),
            None => {
                complete = false;
                break;
            }
        }
    }
    if pos != bytes.len() {
        complete = false;
    }
    Some(SegmentEvents {
        seg,
        launch,
        events,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        let mut pos = 0;
        assert_eq!(get_varint(&[0x80, 0x80], &mut pos), None);
        let mut pos = 0;
        assert_eq!(get_varint(&[0xFF; 11], &mut pos), None);
    }

    #[test]
    fn segment_round_trip() {
        let g = TraceGeometry {
            warps_per_cta: 4,
            regs_per_cta: 512,
            smem_words_per_cta: 1,
            slots_per_sm: 8,
            total_ctas: 12,
        };
        let events = vec![
            TraceEvent::Slot {
                sm: 0,
                slot: 0,
                t: 0,
                fill: true,
                initial: true,
            },
            TraceEvent::Range {
                h: 0,
                inst: 0,
                start: 0,
                len: 512,
                t: 0,
                write: true,
            },
            TraceEvent::Access {
                h: 0,
                inst: 0,
                word: 37,
                t: 5,
                write: false,
            },
            TraceEvent::Access {
                h: 4,
                inst: 0,
                word: 1024,
                t: 9,
                write: true,
            },
            TraceEvent::Slot {
                sm: 0,
                slot: 0,
                t: 11,
                fill: false,
                initial: false,
            },
        ];
        let blob = encode_segment(3, Some((&g, 12)), &events);
        let dec = decode_segment_lossy(&blob).expect("header decodes");
        assert_eq!(dec.seg, 3);
        assert_eq!(dec.launch, Some((g, 12)));
        assert_eq!(dec.events, events);
        assert!(dec.complete);
    }

    #[test]
    fn host_segment_round_trip() {
        let events = vec![
            TraceEvent::HostRead { word: 99 },
            TraceEvent::HostRead { word: 0 },
        ];
        let blob = encode_segment(2, None, &events);
        let dec = decode_segment_lossy(&blob).unwrap();
        assert_eq!(dec.launch, None);
        assert_eq!(dec.events, events);
        assert!(dec.complete);
    }

    #[test]
    fn truncated_blob_yields_event_prefix() {
        let events: Vec<TraceEvent> = (0..20)
            .map(|i| TraceEvent::Access {
                h: 2,
                inst: 1,
                word: i * 131,
                t: i,
                write: i % 2 == 0,
            })
            .collect();
        let blob = encode_segment(1, None, &events);
        for cut in 0..blob.len() {
            let dec = decode_segment_lossy(&blob[..cut]);
            if let Some(d) = dec {
                assert!(!d.complete);
                assert_eq!(&events[..d.events.len()], d.events.as_slice());
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(decode_segment_lossy(b"nope").is_none());
        assert!(decode_segment_lossy(b"vtrc\x02\x00\x00\x00").is_none());
    }
}
