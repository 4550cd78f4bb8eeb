//! Simulation probes: the timed engine's only instrumentation interface.
//!
//! The engine (`timed.rs`, `cache.rs`, `gpu.rs`) reports every
//! architectural access of the five modeled structures — plus the
//! scheduling facts needed to interpret them (launch geometry, CTA slot
//! occupancy) and the host's reads of L2-resident words — to one optional
//! `Probe` through emit-only hooks. The probe batches the events and
//! hands them, in order, to a [`TraceSink`]. What the stream *means* is the
//! sink's business: `crate::lifetime` folds it into ACE lifetimes,
//! `crates/trace`'s recorder into the replay backend's access index, and
//! [`tee`] feeds both from one pass. A sink only ever receives — it has no
//! way to emit — so nothing a consumer does can leak into what another
//! consumer sees.
//!
//! Times are **launch-local** cycles; host-side events (L2 pokes between
//! launches) arrive with `t == 0`. A sink that needs a global order
//! segments the stream on [`ProbeEvent::LaunchBegin`] /
//! [`ProbeEvent::LaunchEnd`] or adds up the retired cycle counts.

use std::sync::{Arc, Mutex};

use crate::fault::HwStructure;

/// Occupancy geometry of one launch: what is needed to reconstruct the
/// per-SM CTA-slot partitioning of the register file and shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchGeometry {
    pub warps_per_cta: u32,
    pub regs_per_cta: u32,
    pub smem_words_per_cta: u32,
    pub slots_per_sm: u32,
    pub total_ctas: u32,
}

/// One event inside a segment of the stream (a launch, or the host glue
/// between two launches). Also the in-memory form of a trace event as
/// `crates/trace`'s decoder returns it; the recorder encodes the stream's
/// events as they arrive and never holds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegEvent {
    /// CTA slot `slot` of SM `sm` was (re)filled. `initial` fills happen
    /// during the pre-cycle-0 prefill and are occupied from cycle 0;
    /// mid-run fills happen during cycle `t`'s retire stage and are
    /// occupied from cycle `t + 1`.
    SlotFill {
        sm: u32,
        slot: u32,
        t: u64,
        initial: bool,
    },
    /// CTA slot `slot` of SM `sm` drained during cycle `t`'s retire
    /// stage (empty from cycle `t + 1`).
    SlotFree { sm: u32, slot: u32, t: u64 },
    /// One 32-bit word of structure `h`, instance `inst`, was accessed
    /// at local cycle `t`. Cache words are named by
    /// [`cache_word`](crate::fault::cache_word).
    Access {
        h: HwStructure,
        inst: u32,
        word: u64,
        t: u64,
        write: bool,
    },
    /// `len` consecutive words starting at `start` were accessed (CTA
    /// zero-fill and line fills are whole-range writes; line reads and
    /// dirty write-backs are whole-range reads).
    Range {
        h: HwStructure,
        inst: u32,
        start: u64,
        len: u32,
        t: u64,
        write: bool,
    },
    /// The host observed an L2-resident word (classification or
    /// inter-launch glue read through the run controller).
    HostRead { word: u64 },
}

/// One probe event, as the engine hooks emit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// A kernel launch begins.
    LaunchBegin(LaunchGeometry),
    /// The launch retired after `cycles` local cycles.
    LaunchEnd {
        cycles: u64,
    },
    Seg(SegEvent),
}

/// Receiver of the probe stream.
pub trait TraceSink: Send {
    /// Consume the next run of events, in stream order.
    fn consume(&mut self, batch: &[ProbeEvent]);
}

/// Shared handle to a sink, cloneable into the engine.
pub type SharedSink = Arc<Mutex<dyn TraceSink>>;

struct Tee(SharedSink, SharedSink);

impl TraceSink for Tee {
    fn consume(&mut self, batch: &[ProbeEvent]) {
        for sink in [&self.0, &self.1] {
            sink.lock().expect("probe sink poisoned").consume(batch);
        }
    }
}

/// A sink that hands every batch to `a`, then to `b`.
pub fn tee(a: SharedSink, b: SharedSink) -> SharedSink {
    Arc::new(Mutex::new(Tee(a, b)))
}

/// Events buffered per flush. Access hooks fire every simulated cycle, so
/// taking the sink mutex (and a dynamic dispatch) per event would dominate
/// an instrumented pass; batching amortises both to one per `BUF_CAP`
/// events.
const BUF_CAP: usize = 8192;

/// The engine side of the stream: emit-only hooks in front of an
/// order-preserving buffer that drains into the sink on overflow, at every
/// launch end, and on drop — the receiver sees the exact hook stream, in
/// bursts.
pub(crate) struct Probe {
    sink: SharedSink,
    buf: Vec<ProbeEvent>,
}

impl Probe {
    pub(crate) fn new(sink: SharedSink) -> Self {
        Probe {
            sink,
            buf: Vec::with_capacity(BUF_CAP),
        }
    }

    #[inline]
    fn push(&mut self, ev: ProbeEvent) {
        self.buf.push(ev);
        if self.buf.len() >= BUF_CAP {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            let mut sink = self.sink.lock().expect("probe sink poisoned");
            sink.consume(&self.buf);
            self.buf.clear();
        }
    }

    #[inline]
    pub(crate) fn access(&mut self, h: HwStructure, inst: usize, word: u64, t: u64, write: bool) {
        self.push(ProbeEvent::Seg(SegEvent::Access {
            h,
            inst: inst as u32,
            word,
            t,
            write,
        }));
    }

    #[inline]
    pub(crate) fn range(
        &mut self,
        h: HwStructure,
        inst: usize,
        start: u64,
        len: u32,
        t: u64,
        write: bool,
    ) {
        self.push(ProbeEvent::Seg(SegEvent::Range {
            h,
            inst: inst as u32,
            start,
            len,
            t,
            write,
        }));
    }

    pub(crate) fn slot_fill(&mut self, sm: usize, slot: usize, t: u64, initial: bool) {
        self.push(ProbeEvent::Seg(SegEvent::SlotFill {
            sm: sm as u32,
            slot: slot as u32,
            t,
            initial,
        }));
    }

    pub(crate) fn slot_free(&mut self, sm: usize, slot: usize, t: u64) {
        self.push(ProbeEvent::Seg(SegEvent::SlotFree {
            sm: sm as u32,
            slot: slot as u32,
            t,
        }));
    }

    pub(crate) fn host_read(&mut self, word: u64) {
        self.push(ProbeEvent::Seg(SegEvent::HostRead { word }));
    }

    pub(crate) fn launch_begin(&mut self, geom: LaunchGeometry) {
        self.push(ProbeEvent::LaunchBegin(geom));
    }

    /// Segment boundary: the sink gets the completed launch promptly.
    pub(crate) fn launch_end(&mut self, cycles: u64) {
        self.push(ProbeEvent::LaunchEnd { cycles });
        self.flush();
    }
}

impl Drop for Probe {
    /// A detaching owner (end of the instrumented run) must not strand
    /// buffered events.
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collect(Vec<ProbeEvent>);
    impl TraceSink for Collect {
        fn consume(&mut self, batch: &[ProbeEvent]) {
            self.0.extend_from_slice(batch);
        }
    }

    fn host_read(word: u64) -> ProbeEvent {
        ProbeEvent::Seg(SegEvent::HostRead { word })
    }

    #[test]
    fn hooks_reach_the_sink_in_order_on_launch_end_and_drop() {
        let sink = Arc::new(Mutex::new(Collect(Vec::new())));
        let mut probe = Probe::new(sink.clone());
        probe.host_read(17);
        // Buffered events only reach the sink on flush/drop.
        assert!(sink.lock().unwrap().0.is_empty());
        probe.launch_end(9);
        assert_eq!(sink.lock().unwrap().0.len(), 2);
        probe.host_read(18);
        drop(probe);
        let got = &sink.lock().unwrap().0;
        assert_eq!(
            got.as_slice(),
            &[
                host_read(17),
                ProbeEvent::LaunchEnd { cycles: 9 },
                host_read(18)
            ]
        );
    }

    #[test]
    fn probe_flushes_on_overflow_preserving_order() {
        let sink = Arc::new(Mutex::new(Collect(Vec::new())));
        let mut probe = Probe::new(sink.clone());
        for w in 0..(BUF_CAP as u64 + 10) {
            probe.host_read(w);
        }
        // One overflow flush happened; the tail is still buffered.
        assert_eq!(sink.lock().unwrap().0.len(), BUF_CAP);
        drop(probe);
        let got = &sink.lock().unwrap().0;
        assert_eq!(got.len(), BUF_CAP + 10);
        for (w, ev) in got.iter().enumerate() {
            assert_eq!(*ev, host_read(w as u64));
        }
    }

    #[test]
    fn tee_hands_both_sinks_the_same_stream() {
        let (a, b) = (
            Arc::new(Mutex::new(Collect(Vec::new()))),
            Arc::new(Mutex::new(Collect(Vec::new()))),
        );
        let mut probe = Probe::new(tee(a.clone(), b.clone()));
        probe.host_read(1);
        probe.launch_end(5);
        assert_eq!(a.lock().unwrap().0, b.lock().unwrap().0);
        assert_eq!(a.lock().unwrap().0.len(), 2);
    }
}
