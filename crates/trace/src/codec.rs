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
//! [`HwStructure`] discriminant (0 = RF, 1 = SMEM, 2 = L1D, 3 = L1T,
//! 4 = L2) for access/range ops and 0 otherwise. Cycle times are
//! delta-encoded within a segment (they are nondecreasing in append
//! order). All integers are LEB128 varints, so a typical register access
//! costs 4-6 bytes instead of the 25 of its in-memory form.
//!
//! There is one event encoder, `SegmentEncoder`, and it streams: the
//! recorder hands it each probe-stream [`SegEvent`] as it arrives, and
//! when the segment closes it writes the header (whose event count and
//! launch cycles are only known then) in front of the body already
//! encoded. [`encode_segment`] is its one-shot form. No segment's events
//! are ever held in memory on the way in.
//!
//! [`decode_segment_lossy`] is deliberately forgiving: a truncated blob
//! yields the longest cleanly-decodable event prefix with
//! `complete == false`, never a panic. Decoding is the import side only
//! (`AppTrace::from_blobs`), and [`SegmentEvents`] — a header and its
//! `Vec<SegEvent>` — is its output: the recorder folds the replay index
//! from the events it streams, never from decoded blobs.

use vgpu_sim::{HwStructure, LaunchGeometry, SegEvent};

/// Blob magic, little-endian `b"vtrc"`.
const MAGIC: [u8; 4] = *b"vtrc";
/// Current blob format version.
const VERSION: u8 = 1;
/// The longest header: magic, version, kind, then eight varints at most —
/// seg and five geometry `u32`s (≤ 5 bytes each), cycles and the event
/// count (≤ 10 each).
const HEADER_MAX: usize = 4 + 1 + 1 + 6 * 5 + 2 * 10;

const OP_ACCESS_READ: u8 = 0;
const OP_ACCESS_WRITE: u8 = 1;
const OP_RANGE_READ: u8 = 2;
const OP_RANGE_WRITE: u8 = 3;
const OP_SLOT_FILL_INITIAL: u8 = 4;
const OP_SLOT_FILL: u8 = 5;
const OP_SLOT_FREE: u8 = 6;
const OP_HOST_READ: u8 = 7;

/// One decoded segment: header plus whatever events survived decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEvents {
    pub seg: u32,
    /// `Some((geometry, cycles))` for launch segments, `None` for host glue.
    pub launch: Option<(LaunchGeometry, u64)>,
    pub events: Vec<SegEvent>,
    /// False when the blob was truncated or carried trailing garbage.
    pub complete: bool,
}

/// Append `v` as a LEB128 varint.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
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
fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
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

/// Encode one segment into a self-contained blob: the one-shot form of
/// the recorder's streaming encoder.
pub fn encode_segment(
    seg: u32,
    launch: Option<(&LaunchGeometry, u64)>,
    events: &[SegEvent],
) -> Vec<u8> {
    let mut enc = SegmentEncoder::with_capacity(events.len() * 5);
    events.iter().for_each(|ev| enc.push(ev));
    enc.finish(seg, launch)
}

/// One segment's blob, encoded as its events arrive.
pub(crate) struct SegmentEncoder {
    /// [`HEADER_MAX`] bytes of room for the header, then the events.
    buf: Vec<u8>,
    events: u64,
    /// The time the next timed event's delta is taken from.
    last_t: u64,
}

impl Default for SegmentEncoder {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl SegmentEncoder {
    /// An empty segment with room for `body` bytes of events.
    fn with_capacity(body: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_MAX + body);
        buf.resize(HEADER_MAX, 0);
        Self {
            buf,
            events: 0,
            last_t: 0,
        }
    }

    /// Append the segment's next event.
    pub(crate) fn push(&mut self, ev: &SegEvent) {
        let (buf, last_t) = (&mut self.buf, &mut self.last_t);
        self.events += 1;
        // Cycle times are delta-encoded; `HostRead` carries none and
        // leaves the delta chain alone.
        let mut delta = |t: u64| {
            debug_assert!(t >= *last_t, "trace events must be t-nondecreasing");
            let dt = t.saturating_sub(*last_t);
            *last_t = (*last_t).max(t);
            dt
        };
        match *ev {
            SegEvent::Access {
                h,
                inst,
                word,
                t,
                write,
            } => {
                let op = if write {
                    OP_ACCESS_WRITE
                } else {
                    OP_ACCESS_READ
                };
                buf.push(op | ((h as u8) << 4));
                put_varint(buf, u64::from(inst));
                put_varint(buf, word);
                put_varint(buf, delta(t));
            }
            SegEvent::Range {
                h,
                inst,
                start,
                len,
                t,
                write,
            } => {
                let op = if write { OP_RANGE_WRITE } else { OP_RANGE_READ };
                buf.push(op | ((h as u8) << 4));
                put_varint(buf, u64::from(inst));
                put_varint(buf, start);
                put_varint(buf, u64::from(len));
                put_varint(buf, delta(t));
            }
            SegEvent::SlotFill {
                sm,
                slot,
                t,
                initial,
            } => {
                buf.push(if initial {
                    OP_SLOT_FILL_INITIAL
                } else {
                    OP_SLOT_FILL
                });
                put_varint(buf, u64::from(sm));
                put_varint(buf, u64::from(slot));
                put_varint(buf, delta(t));
            }
            SegEvent::SlotFree { sm, slot, t } => {
                buf.push(OP_SLOT_FREE);
                put_varint(buf, u64::from(sm));
                put_varint(buf, u64::from(slot));
                put_varint(buf, delta(t));
            }
            SegEvent::HostRead { word } => {
                buf.push(OP_HOST_READ);
                put_varint(buf, word);
            }
        }
    }

    /// The blob of segment `seg` (a launch when `launch` is its geometry
    /// and retired cycles): the header written into the room in front of
    /// the events, which move up to meet it in place — the body is never
    /// held twice.
    pub(crate) fn finish(self, seg: u32, launch: Option<(&LaunchGeometry, u64)>) -> Vec<u8> {
        let mut header = Vec::with_capacity(HEADER_MAX);
        header.extend_from_slice(&MAGIC);
        header.push(VERSION);
        header.push(u8::from(launch.is_some()));
        put_varint(&mut header, u64::from(seg));
        if let Some((g, cycles)) = launch {
            put_varint(&mut header, u64::from(g.warps_per_cta));
            put_varint(&mut header, u64::from(g.regs_per_cta));
            put_varint(&mut header, u64::from(g.smem_words_per_cta));
            put_varint(&mut header, u64::from(g.slots_per_sm));
            put_varint(&mut header, u64::from(g.total_ctas));
            put_varint(&mut header, cycles);
        }
        put_varint(&mut header, self.events);
        let mut buf = self.buf;
        let start = HEADER_MAX - header.len();
        buf[start..HEADER_MAX].copy_from_slice(&header);
        buf.drain(..start);
        buf.shrink_to_fit();
        buf
    }
}

fn decode_event(bytes: &[u8], pos: &mut usize, last_t: &mut u64) -> Option<SegEvent> {
    let kind = *bytes.get(*pos)?;
    *pos += 1;
    let (op, h) = (kind & 0x0F, kind >> 4);
    // The structure an access/range op names; the other ops carry 0.
    let structure = || HwStructure::ALL.get(usize::from(h)).copied();
    let mut next_t = |bytes: &[u8], pos: &mut usize| {
        *last_t = last_t.checked_add(get_varint(bytes, pos)?)?;
        Some(*last_t)
    };
    match op {
        OP_ACCESS_READ | OP_ACCESS_WRITE => Some(SegEvent::Access {
            h: structure()?,
            inst: u32::try_from(get_varint(bytes, pos)?).ok()?,
            word: get_varint(bytes, pos)?,
            t: next_t(bytes, pos)?,
            write: op == OP_ACCESS_WRITE,
        }),
        OP_RANGE_READ | OP_RANGE_WRITE => Some(SegEvent::Range {
            h: structure()?,
            inst: u32::try_from(get_varint(bytes, pos)?).ok()?,
            start: get_varint(bytes, pos)?,
            len: u32::try_from(get_varint(bytes, pos)?).ok()?,
            t: next_t(bytes, pos)?,
            write: op == OP_RANGE_WRITE,
        }),
        OP_SLOT_FILL_INITIAL | OP_SLOT_FILL if h == 0 => Some(SegEvent::SlotFill {
            sm: u32::try_from(get_varint(bytes, pos)?).ok()?,
            slot: u32::try_from(get_varint(bytes, pos)?).ok()?,
            t: next_t(bytes, pos)?,
            initial: op == OP_SLOT_FILL_INITIAL,
        }),
        OP_SLOT_FREE if h == 0 => Some(SegEvent::SlotFree {
            sm: u32::try_from(get_varint(bytes, pos)?).ok()?,
            slot: u32::try_from(get_varint(bytes, pos)?).ok()?,
            t: next_t(bytes, pos)?,
        }),
        OP_HOST_READ if h == 0 => Some(SegEvent::HostRead {
            word: get_varint(bytes, pos)?,
        }),
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
            LaunchGeometry {
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
    use HwStructure::{RegFile, L1D, L2};

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
        let g = LaunchGeometry {
            warps_per_cta: 4,
            regs_per_cta: 512,
            smem_words_per_cta: 1,
            slots_per_sm: 8,
            total_ctas: 12,
        };
        let events = vec![
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
                len: 512,
                t: 0,
                write: true,
            },
            SegEvent::Access {
                h: RegFile,
                inst: 0,
                word: 37,
                t: 5,
                write: false,
            },
            SegEvent::Access {
                h: L2,
                inst: 0,
                word: 1024,
                t: 9,
                write: true,
            },
            SegEvent::SlotFree {
                sm: 0,
                slot: 0,
                t: 11,
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
            SegEvent::HostRead { word: 99 },
            SegEvent::HostRead { word: 0 },
        ];
        let blob = encode_segment(2, None, &events);
        let dec = decode_segment_lossy(&blob).unwrap();
        assert_eq!(dec.launch, None);
        assert_eq!(dec.events, events);
        assert!(dec.complete);
    }

    #[test]
    fn truncated_blob_yields_event_prefix() {
        let events: Vec<SegEvent> = (0..20)
            .map(|i| SegEvent::Access {
                h: L1D,
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
    fn out_of_range_structure_is_a_malformed_byte() {
        let ev = SegEvent::Access {
            h: L2,
            inst: 0,
            word: 1,
            t: 0,
            write: false,
        };
        // The second event starts where a one-event blob ends.
        let second = encode_segment(0, None, &[ev]).len();
        let mut blob = encode_segment(0, None, &[ev, ev]);
        for h in 5..16u8 {
            blob[second] = OP_ACCESS_READ | (h << 4);
            let dec = decode_segment_lossy(&blob).expect("header decodes");
            assert!(!dec.complete, "h = {h}");
            assert_eq!(dec.events, [ev]);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(decode_segment_lossy(b"nope").is_none());
        assert!(decode_segment_lossy(b"vtrc\x02\x00\x00\x00").is_none());
    }
}
