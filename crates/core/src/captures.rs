//! What is captured once per application: the golden run and the golden
//! material the accelerated trial paths reuse.
//!
//! An [`AppCaptures`] handle belongs to one (benchmark, GPU configuration,
//! layer, hardened) tuple. It runs the golden execution when it is built
//! and captures the fast-forward snapshot set, the replay access trace and
//! the CTA log lazily, each at most once, on the first plan that needs it.
//! Every one of them is [`kernels::golden_pass`] with the matching sink;
//! they stay separate passes, one artefact each, because each is wanted by
//! a different trial path at a different time and a timed golden pass is
//! the cheap part of any of them (docs/PERF.md, *One pass, its sinks*).
//! Every plan of that application — the waves of an adaptive campaign, the
//! patterns of a fault-model sweep, the waves a dispatch worker is sent in
//! its session — is expanded against the same handle
//! ([`crate::plan::plan_uarch`] / [`crate::plan::plan_sw`] /
//! [`crate::plan::plan_wave`]) and shares what it holds.
//!
//! Lifetime is the handle's: there is no process-wide cache, so dropping
//! the last `Arc` (the handle and every [`crate::plan::PreparedCampaign`]
//! built on it) frees the store. Whether a *plan* may use an artefact is
//! decided by the plan (`PreparedCampaign::{snapshots, trace, cta_log}`);
//! the cells here only ever hold a finished capture, never a "does not
//! apply", so one plan with nothing to inject cannot switch the
//! accelerators off for the next.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use kernels::{
    golden_pass, AppSnapshots, Benchmark, CtaLog, GoldenRun, Sinks, SnapshotSink, Variant,
};
use obs::Phase;
use vgpu_sim::GpuConfig;

use crate::plan::{variant_label, Layer};

/// One lazily captured golden artefact of an [`AppCaptures`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Capture {
    /// Golden-prefix snapshot set of the timed engine (uarch layer).
    Snapshots = 0,
    /// Golden access trace of the replay backend (uarch layer).
    Trace = 1,
    /// Golden CTA log of the functional engine (software layer).
    CtaLog = 2,
}

impl Capture {
    pub(crate) const COUNT: usize = 3;

    /// `kind` label of `captures_reused_total`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Capture::Snapshots => "snapshots",
            Capture::Trace => "trace",
            Capture::CtaLog => "cta_log",
        }
    }

    fn layer(self) -> Layer {
        match self {
            Capture::Snapshots | Capture::Trace => Layer::Uarch,
            Capture::CtaLog => Layer::Sw,
        }
    }
}

/// The golden run of one application variant plus everything captured
/// from it, shared by every plan of that application (module docs).
pub struct AppCaptures<'a> {
    bench: &'a dyn Benchmark,
    gpu: GpuConfig,
    layer: Layer,
    hardened: bool,
    golden: Arc<GoldenRun>,
    /// The snapshot set and the per-launch count it was captured with.
    snaps: OnceLock<(usize, Arc<AppSnapshots>)>,
    trace: OnceLock<Arc<trace::AppTrace>>,
    cta_log: OnceLock<Arc<CtaLog>>,
}

impl<'a> AppCaptures<'a> {
    /// Run the golden execution of `bench` on `gpu` — timed for the
    /// microarchitecture layer, functional for the software layer — and
    /// return the handle every plan of that application is expanded
    /// against. Captures nothing else yet.
    pub fn new(
        bench: &'a dyn Benchmark,
        gpu: &GpuConfig,
        layer: Layer,
        hardened: bool,
    ) -> Arc<AppCaptures<'a>> {
        let variant = Variant {
            mode: layer.mode(),
            hardened,
        };
        let golden = obs::time_phase(Phase::GoldenRun, || {
            golden_pass(bench, gpu, variant, Sinks::default()).golden
        });
        Arc::new(AppCaptures {
            bench,
            gpu: gpu.clone(),
            layer,
            hardened,
            golden: Arc::new(golden),
            snaps: OnceLock::new(),
            trace: OnceLock::new(),
            cta_log: OnceLock::new(),
        })
    }

    pub fn bench(&self) -> &'a dyn Benchmark {
        self.bench
    }

    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    pub fn layer(&self) -> Layer {
        self.layer
    }

    /// Execution variant of the golden run and of every trial.
    pub fn variant(&self) -> Variant {
        Variant {
            mode: self.layer.mode(),
            hardened: self.hardened,
        }
    }

    pub fn golden(&self) -> &Arc<GoldenRun> {
        &self.golden
    }

    /// Whether this handle is the one for (`bench`, `gpu`, `layer`,
    /// `hardened`) — what a long-lived holder checks before planning the
    /// next campaign against it.
    pub fn is_for(
        &self,
        bench: &dyn Benchmark,
        gpu: &GpuConfig,
        layer: Layer,
        hardened: bool,
    ) -> bool {
        self.bench.name() == bench.name()
            && self.gpu == *gpu
            && self.layer == layer
            && self.hardened == hardened
    }

    /// Whether artefact `what` exists for this application variant at
    /// all: it belongs to the handle's layer.
    pub(crate) fn serves(&self, what: Capture) -> bool {
        self.layer == what.layer()
    }

    /// `{app, layer, variant}`: the labels of this handle's capture gauges
    /// (`variant` is `base` | `tmr`, so the two handles of one application
    /// report side by side).
    fn labels(&self) -> [(&'static str, &'static str); 3] {
        [
            ("app", self.bench.name()),
            ("layer", self.layer.label()),
            ("variant", variant_label(self.hardened)),
        ]
    }

    /// Whether `what` has been captured already.
    pub(crate) fn captured(&self, what: Capture) -> bool {
        match what {
            Capture::Snapshots => self.snaps.get().is_some(),
            Capture::Trace => self.trace.get().is_some(),
            Capture::CtaLog => self.cta_log.get().is_some(),
        }
    }

    /// The fast-forward snapshot set, capturing it on first use: one
    /// golden pass with the snapshot sink, `k` mid-launch snapshots per
    /// launch.
    pub(crate) fn snapshots(&self, k: usize) -> &Arc<AppSnapshots> {
        debug_assert!(k > 0 && self.serves(Capture::Snapshots));
        let (captured_k, snaps) = self.snaps.get_or_init(|| {
            let t0 = Instant::now();
            let snaps = obs::time_phase(Phase::SnapshotCapture, || {
                let sinks = Sinks {
                    snapshots: Some(SnapshotSink::new(&self.golden, k)),
                    ..Sinks::default()
                };
                let pass = golden_pass(self.bench, &self.gpu, self.variant(), sinks);
                pass.snapshots.expect("asked for")
            });
            let app = self.bench.name();
            obs::gauge_set("snapshot_bytes", &self.labels(), snaps.bytes);
            let (owned, shared) = snaps.chunks();
            for (n, kind) in [(owned, "owned"), (shared, "shared")] {
                obs::counter_add("snapshot_chunks_total", &[("app", app), ("kind", kind)], n);
            }
            obs::emit_snapshot(&obs::SnapshotEvent {
                app,
                layer: self.layer.label(),
                hardened: self.hardened,
                per_launch: k as u64,
                count: snaps.count() as u64,
                bytes: snaps.bytes,
                wall_us: t0.elapsed().as_micros() as u64,
            });
            (k, Arc::new(snaps))
        });
        debug_assert_eq!(
            *captured_k,
            k,
            "{}: snapshot set was captured with {captured_k} snapshots per launch",
            self.bench.name()
        );
        snaps
    }

    /// The replay backend's golden access trace, recording it on first
    /// use (one golden pass with a trace sink, bit-identity asserted
    /// against the untraced baseline). Its encoded size and the size of its
    /// liveness index are gauges.
    pub(crate) fn trace(&self) -> &Arc<trace::AppTrace> {
        debug_assert!(self.serves(Capture::Trace));
        self.trace.get_or_init(|| {
            let tr = obs::time_phase(Phase::TraceCapture, || {
                trace::record_trace(self.bench, &self.gpu, self.variant(), &self.golden)
            });
            obs::gauge_set("trace_bytes", &self.labels(), tr.bytes);
            obs::gauge_set("trace_index_bytes", &self.labels(), tr.index_bytes());
            Arc::new(tr)
        })
    }

    /// The golden CTA log, capturing it on first use (one functional
    /// golden pass with the CTA-log sink, bit-identity asserted against
    /// the unlogged baseline).
    pub(crate) fn cta_log(&self) -> &Arc<CtaLog> {
        debug_assert!(self.serves(Capture::CtaLog));
        self.cta_log.get_or_init(|| {
            let log = obs::time_phase(Phase::CtaLogCapture, || {
                let sinks = Sinks {
                    reference: Some(&self.golden),
                    cta_log: Some(CtaLog::default()),
                    ..Sinks::default()
                };
                let pass = golden_pass(self.bench, &self.gpu, self.variant(), sinks);
                pass.cta_log.expect("asked for")
            });
            obs::gauge_set("cta_log_bytes", &self.labels(), log.bytes());
            Arc::new(log)
        })
    }
}
