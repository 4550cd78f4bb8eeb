//! Trace recording: a [`TraceSink`] that segments the probe stream and a
//! one-call wrapper around the golden pass it rides.
//!
//! The builder receives [`ProbeEvent`]s from the timed engine (see
//! `vgpu_sim::probe`) and buckets them into segments: host glue before
//! launch 0 is segment 0, launch ordinal `k` is segment `2k + 1`, and
//! the glue after each launch fills the next even segment. Launch
//! segments additionally capture the occupancy geometry and the retired
//! cycle count from [`ProbeEvent::LaunchBegin`] / [`ProbeEvent::LaunchEnd`].
//! The recorder is a pure stream: every event of a batch goes straight
//! into the replay index (`replay::Fold`) and the segment's encoder as it
//! arrives, and when a segment closes only its header is written, in
//! front of the body already encoded. No event outlives its batch.
//!
//! [`record_trace`] runs `kernels::golden_pass` once with the builder as
//! its trace sink (the pass asserts bit-identity to the untraced golden
//! run it is given) and returns the finished, indexed [`AppTrace`].

use std::sync::{Arc, Mutex};

use kernels::{golden_pass, Benchmark, GoldenRun, Sinks, Variant};
use vgpu_sim::{GpuConfig, LaunchGeometry, ProbeEvent, TraceSink};

use crate::codec::SegmentEncoder;
use crate::replay::{AppTrace, Fold};

/// Accumulates the probe stream of one application run.
#[derive(Default)]
pub struct TraceBuilder {
    /// One per closed segment.
    blobs: Vec<Vec<u8>>,
    fold: Fold,
    /// The open segment: `Some` for a launch (cycles filled in at
    /// `LaunchEnd`), and its events encoded so far.
    launch: Option<(LaunchGeometry, u64)>,
    body: SegmentEncoder,
}

impl TraceBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Close the open segment — its blob is its header in front of its
    /// encoded events — and open the next one.
    fn close(&mut self, next: Option<(LaunchGeometry, u64)>) {
        let seg = self.blobs.len() as u32;
        let launch = std::mem::replace(&mut self.launch, next);
        self.fold.close(launch);
        let body = std::mem::take(&mut self.body);
        self.blobs
            .push(body.finish(seg, launch.as_ref().map(|(g, c)| (g, *c))));
        self.fold.open(seg + 1, next.is_some());
    }

    /// Close the final segment and return the finished, indexed trace
    /// ([`AppTrace::blobs`] are the encoded segments). The builder is left
    /// empty (reusable).
    pub fn finish(&mut self) -> AppTrace {
        self.close(None);
        let TraceBuilder { blobs, fold, .. } = std::mem::take(self);
        fold.finish(blobs)
    }
}

impl TraceSink for TraceBuilder {
    fn consume(&mut self, batch: &[ProbeEvent]) {
        for ev in batch {
            match *ev {
                ProbeEvent::LaunchBegin(geom) => self.close(Some((geom, 0))),
                ProbeEvent::LaunchEnd { cycles } => {
                    if let Some((_, c)) = self.launch.as_mut() {
                        *c = cycles;
                    }
                    self.close(None);
                }
                ProbeEvent::Seg(ev) => {
                    self.fold.event(&ev);
                    self.body.push(&ev);
                }
            }
        }
    }
}

/// Record the replay trace of one application variant: one timed golden
/// pass with a [`TraceBuilder`] as its trace sink, returned as the
/// finished, indexed [`AppTrace`] — the index is folded from the probe
/// stream as it arrives, never from decoded blobs. The pass asserts
/// bit-identity (outputs, costs, per-launch stats) against the
/// already-captured `golden` baseline, so a trace can never silently
/// desynchronise from the run it claims to describe.
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
    let trace = builder.lock().expect("trace builder lock").finish();
    trace
}

/// [`record_trace`] of the unhardened application.
pub fn record_app_trace(bench: &dyn Benchmark, cfg: &GpuConfig, golden: &GoldenRun) -> AppTrace {
    record_trace(bench, cfg, Variant::TIMED, golden)
}
