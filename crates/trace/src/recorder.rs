//! Trace recording: a [`TraceSink`] that segments the probe stream and a
//! one-call wrapper around the golden pass it rides.
//!
//! The builder receives [`ProbeEvent`]s from the timed engine (see
//! `vgpu_sim::probe`) and buckets them into segments: host glue before
//! launch 0 is segment 0, launch ordinal `k` is segment `2k + 1`, and
//! the glue after each launch fills the next even segment. Launch
//! segments additionally capture the occupancy geometry and the retired
//! cycle count from [`ProbeEvent::LaunchBegin`] / [`ProbeEvent::LaunchEnd`].
//!
//! [`record_trace`] runs `kernels::golden_pass` once with the builder as
//! its trace sink (the pass asserts bit-identity to the untraced golden
//! run it is given) and returns the finished, indexed [`AppTrace`].

use std::sync::{Arc, Mutex};

use kernels::{golden_pass, Benchmark, GoldenRun, Sinks, Variant};
use rayon::prelude::*;
use vgpu_sim::{GpuConfig, LaunchGeometry, ProbeEvent, SegEvent, TraceSink};

use crate::codec::SegmentEvents;
use crate::replay::AppTrace;

struct SegRec {
    /// `Some` for launch segments; cycles is filled in at `LaunchEnd`.
    launch: Option<(LaunchGeometry, u64)>,
    events: Vec<SegEvent>,
}

impl SegRec {
    fn host() -> Self {
        SegRec {
            launch: None,
            events: Vec::new(),
        }
    }
}

/// Accumulates the probe stream of one application run.
pub struct TraceBuilder {
    done: Vec<SegRec>,
    cur: SegRec,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceBuilder {
    pub fn new() -> Self {
        TraceBuilder {
            done: Vec::new(),
            cur: SegRec::host(),
        }
    }

    fn roll(&mut self, next: SegRec) {
        let prev = std::mem::replace(&mut self.cur, next);
        self.done.push(prev);
    }

    /// Close the final segment and encode everything: the segment blobs
    /// ([`AppTrace::blobs`]) and the events they encode. The builder is
    /// left empty (reusable).
    pub fn encode(&mut self) -> (Vec<Vec<u8>>, Vec<SegmentEvents>) {
        let mut recs = std::mem::take(&mut self.done);
        recs.push(std::mem::replace(&mut self.cur, SegRec::host()));
        let segs: Vec<SegmentEvents> = recs
            .into_iter()
            .enumerate()
            .map(|(i, s)| SegmentEvents {
                seg: i as u32,
                launch: s.launch,
                events: s.events,
                complete: true,
            })
            .collect();
        let encoded: Vec<Vec<u8>> = segs
            .par_iter()
            .map(|s| {
                crate::codec::encode_segment(
                    s.seg,
                    s.launch.as_ref().map(|(g, c)| (g, *c)),
                    &s.events,
                )
            })
            .collect();
        (encoded, segs)
    }
}

impl TraceSink for TraceBuilder {
    fn consume(&mut self, batch: &[ProbeEvent]) {
        for ev in batch {
            match *ev {
                ProbeEvent::LaunchBegin(geom) => self.roll(SegRec {
                    launch: Some((geom, 0)),
                    events: Vec::new(),
                }),
                ProbeEvent::LaunchEnd { cycles } => {
                    if let Some((_, c)) = self.cur.launch.as_mut() {
                        *c = cycles;
                    }
                    self.roll(SegRec::host());
                }
                ProbeEvent::Seg(ev) => self.cur.events.push(ev),
            }
        }
    }
}

/// Record the replay trace of one application variant: one timed golden
/// pass with a [`TraceBuilder`] as its trace sink, returned as the
/// finished, indexed [`AppTrace`] — the index is built directly from the
/// in-memory event stream, skipping the decode round trip
/// (`AppTrace::from_segments`). The pass asserts bit-identity (outputs,
/// costs, per-launch stats) against the already-captured `golden`
/// baseline, so a trace can never silently desynchronise from the run it
/// claims to describe.
pub fn record_trace(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    variant: Variant,
    golden: &GoldenRun,
) -> AppTrace {
    let builder = Arc::new(Mutex::new(TraceBuilder::new()));
    let sinks = Sinks {
        reference: Some(golden),
        trace: Some(builder.clone()),
        ..Sinks::default()
    };
    golden_pass(bench, cfg, variant, sinks);
    let (encoded, segs) = builder.lock().expect("trace builder lock").encode();
    AppTrace::from_segments(encoded, &segs)
}

/// [`record_trace`] of the unhardened application.
pub fn record_app_trace(bench: &dyn Benchmark, cfg: &GpuConfig, golden: &GoldenRun) -> AppTrace {
    record_trace(bench, cfg, Variant::TIMED, golden)
}
