//! The recorder streams: recording a segment holds what the trace keeps
//! (its encoded blob and the index's per-word state), not the events it
//! passes through. One launch of ≈ 1 M accesses — mostly reads of a few
//! hundred words, each written once, so the fold's words and runs stay
//! O(words) — arrives in probe-sized batches, and the heap may grow by at
//! most 16 B per event while it is consumed and finished: half of what one
//! buffered 32-B `SegEvent` per event would take alone. Measured: 11.6 B,
//! the encoded body (4.6 B per event) counted in its last doubled buffer
//! and again in the shrunk one; a recorder that buffers the segment's
//! events holds 48.
//!
//! The one test in this binary is the only thing allocating while it
//! measures, so the count is deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use trace::TraceBuilder;
use vgpu_sim::{HwStructure, LaunchGeometry, ProbeEvent, SegEvent, TraceSink};

/// The system allocator, counting live bytes and their high-water mark. A
/// reallocation counts as a new block allocated before the old one is
/// freed, whether or not the allocator moves it.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    PEAK.fetch_max(LIVE.fetch_add(bytes, Relaxed) + bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires; the
// counters are plain statistics and publish no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The probe's batch size (`vgpu_sim::probe`).
const BATCH: usize = 8192;
const EVENTS: usize = 128 * BATCH;
const WORDS: u64 = 300;

/// Event `i` of the launch: each word written once at cycle 0, then read
/// round-robin, a few reads per cycle.
fn event(i: usize) -> SegEvent {
    let i = i as u64;
    SegEvent::Access {
        h: HwStructure::RegFile,
        inst: 0,
        word: i % WORDS,
        t: i / 4,
        write: i < WORDS,
    }
}

#[test]
fn recording_holds_what_the_trace_keeps_not_the_events() {
    let geom = LaunchGeometry {
        warps_per_cta: 1,
        regs_per_cta: WORDS as u32,
        smem_words_per_cta: 0,
        slots_per_sm: 1,
        total_ctas: 1,
    };
    let mut builder = TraceBuilder::new();
    let mut batch = Vec::with_capacity(BATCH + 1);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);

    batch.push(ProbeEvent::LaunchBegin(geom));
    for i in 0..EVENTS {
        batch.push(ProbeEvent::Seg(event(i)));
        if batch.len() == BATCH {
            builder.consume(&batch);
            batch.clear();
        }
    }
    batch.push(ProbeEvent::LaunchEnd {
        cycles: (EVENTS / 4) as u64,
    });
    builder.consume(&batch);
    let trace = builder.finish();

    let per_event = (PEAK.load(Relaxed) - base) as f64 / EVENTS as f64;
    let blob = trace.blobs()[1].len();
    assert!(
        per_event <= 16.0,
        "recording held {per_event:.2} B per event (blob {blob} B)"
    );
    // What it holds is the blob, a few bytes per event, and the index.
    assert!(blob < 6 * EVENTS, "{blob} B");
    assert!(trace.index_bytes() < 1 << 16, "{}", trace.index_bytes());
}
