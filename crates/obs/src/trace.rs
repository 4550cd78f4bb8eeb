//! Cross-process trace propagation for fleet campaigns.
//!
//! A [`TraceCtx`] identifies where work is happening — which campaign
//! (by plan fingerprint), which shard, which trial — and travels with
//! the work: the engine installs the trial coordinate around each
//! injection, the dispatch worker sets the shard per lease, and trace
//! records cross the wire as dispatch protocol frames so the
//! coordinator's event log holds a fleet-wide timeline.
//!
//! Records are JSONL [`TraceEvent`] lines (`"record":"trace"`, written by
//! [`crate::events`]' one record writer) with a kind (a span name such as
//! `kernels.trials`, or a lifecycle marker), the context coordinates, a start offset `t_us` relative to
//! this process's trace epoch, and a `wall_us` duration. The
//! `campaign timeline` tool reassembles them post hoc.
//!
//! Tracing shares the observability invariants: off by default (one
//! relaxed atomic load), and never touches the seeded RNG streams, so
//! campaign results are bit-identical with tracing on or off.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::events::{Fields, JsonValue};

/// Cap on the in-process capture buffer; past it, events are counted in
/// [`dropped`] instead of stored (a worker that never drains must not
/// grow without bound).
const CAPTURE_CAP: usize = 65_536;

static TRACE_ON: AtomicBool = AtomicBool::new(false);
static CAPTURE_ON: AtomicBool = AtomicBool::new(false);
static CAMPAIGN_FP: AtomicU64 = AtomicU64::new(0);
static SHARD: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static WORKER: Mutex<String> = Mutex::new(String::new());
static CAPTURE: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Trial coordinate of the injection currently running on this
    /// thread (`u64::MAX` = no trial scope).
    static TRIAL: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Where work is happening: campaign (plan fingerprint), shard, trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    pub campaign_fp: u64,
    pub shard: u64,
    /// Trial index within the plan (`u64::MAX` outside any trial).
    pub trial: u64,
}

/// One trace record: a span end or lifecycle marker with its
/// [`TraceCtx`] coordinates attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (`"kernels.trials"`, ...) or lifecycle marker
    /// (`"lease_start"`, `"shard_done"`, `"merge"`, ...).
    pub kind: String,
    /// Worker name (`""` when the process has not been named).
    pub worker: String,
    pub campaign_fp: u64,
    pub shard: u64,
    /// Trial index (`u64::MAX` = not tied to one trial).
    pub trial: u64,
    /// Event start, microseconds since the emitting process's trace
    /// epoch (first trace activity). Offsets are per-process clocks;
    /// the timeline tool orders within a worker, not across them.
    pub t_us: u64,
    /// Duration, microseconds (0 for point markers).
    pub wall_us: u64,
}

impl TraceEvent {
    fn fields(&self) -> [(&'static str, JsonValue); 8] {
        [
            ("record", "trace".into()),
            ("kind", self.kind.as_str().into()),
            ("worker", self.worker.as_str().into()),
            ("campaign_fp", self.campaign_fp.into()),
            ("shard", self.shard.into()),
            ("trial", self.trial.into()),
            ("t_us", self.t_us.into()),
            ("wall_us", self.wall_us.into()),
        ]
    }

    /// Serialize as a single JSON object (no trailing newline), through
    /// the event log's one record writer.
    pub fn to_json(&self) -> String {
        crate::events::record_json(&self.fields())
    }

    /// Rebuild from the fields of one line. `None` unless the line is a
    /// well-formed `"record":"trace"` object.
    pub fn from_fields(f: &Fields) -> Option<TraceEvent> {
        if f.str("record")? != "trace" {
            return None;
        }
        Some(TraceEvent {
            kind: f.str("kind")?.to_string(),
            worker: f.str("worker")?.to_string(),
            campaign_fp: f.u64("campaign_fp")?,
            shard: f.u64("shard")?,
            trial: f.u64("trial")?,
            t_us: f.u64("t_us")?,
            wall_us: f.u64("wall_us")?,
        })
    }

    /// Parse one JSONL line as a trace record.
    pub fn parse(line: &str) -> Option<TraceEvent> {
        TraceEvent::from_fields(&Fields::parse(line)?)
    }
}

/// Master switch. While off, every emit path is one relaxed load.
pub fn set_tracing(on: bool) {
    TRACE_ON.store(on, Ordering::Relaxed);
    if on {
        EPOCH.get_or_init(Instant::now);
    }
}

/// Whether trace emission is active.
pub fn tracing() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Additionally buffer emitted events in-process (a dispatch worker
/// turns this on so it can [`drain`] and forward them over the wire).
pub fn set_capture(on: bool) {
    CAPTURE_ON.store(on, Ordering::Relaxed);
}

/// Name this process in emitted records (dispatch worker name).
pub fn set_worker(name: &str) {
    *WORKER.lock().unwrap_or_else(|e| e.into_inner()) = name.to_string();
}

/// Set the shard coordinate for subsequent records (worker: per lease;
/// single-process runs: `--shard-index`).
pub fn set_shard(shard: u64) {
    SHARD.store(shard, Ordering::Relaxed);
}

/// Set the campaign fingerprint for subsequent records (engine: once
/// per prepared plan).
pub fn set_campaign_fp(fp: u64) {
    CAMPAIGN_FP.store(fp, Ordering::Relaxed);
}

/// Run `f` with the thread's trial coordinate set to `trial`.
pub fn with_ctx<T>(trial: u64, f: impl FnOnce() -> T) -> T {
    TRIAL.with(|t| {
        let prev = t.replace(trial);
        let out = f();
        t.set(prev);
        out
    })
}

/// The context that would be attached to a record emitted right now.
pub fn current() -> TraceCtx {
    TraceCtx {
        campaign_fp: CAMPAIGN_FP.load(Ordering::Relaxed),
        shard: SHARD.load(Ordering::Relaxed),
        trial: TRIAL.with(|t| t.get()),
    }
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Emit a record with the current context; no-op while tracing is off.
pub fn emit(kind: &str, wall_us: u64) {
    if !tracing() {
        return;
    }
    let ctx = current();
    emit_event(TraceEvent {
        kind: kind.to_string(),
        worker: WORKER.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        campaign_fp: ctx.campaign_fp,
        shard: ctx.shard,
        trial: ctx.trial,
        t_us: now_us().saturating_sub(wall_us),
        wall_us,
    });
}

/// Emit a record with explicit shard/trial coordinates (lifecycle
/// markers from the coordinator); no-op while tracing is off.
pub fn emit_for(kind: &str, shard: u64, trial: u64, wall_us: u64) {
    if !tracing() {
        return;
    }
    emit_event(TraceEvent {
        kind: kind.to_string(),
        worker: WORKER.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        campaign_fp: CAMPAIGN_FP.load(Ordering::Relaxed),
        shard,
        trial,
        t_us: now_us().saturating_sub(wall_us),
        wall_us,
    })
}

/// Route an already-built record: the local event sink (if one is
/// installed) and the capture buffer (if capture is on). A coordinator
/// calls this to re-log records forwarded from workers.
pub fn emit_event(ev: TraceEvent) {
    if crate::events::events_enabled() {
        crate::events::emit_record(&ev.fields());
    }
    if CAPTURE_ON.load(Ordering::Relaxed) {
        let mut buf = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() < CAPTURE_CAP {
            buf.push(ev);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Take everything the capture buffer holds (worker lease drain).
pub fn drain() -> Vec<TraceEvent> {
    std::mem::take(&mut *CAPTURE.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Records lost to the capture cap since the last [`reset`].
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Reset all trace state (tests).
pub fn reset() {
    TRACE_ON.store(false, Ordering::Relaxed);
    CAPTURE_ON.store(false, Ordering::Relaxed);
    CAMPAIGN_FP.store(0, Ordering::Relaxed);
    SHARD.store(0, Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
    WORKER.lock().unwrap_or_else(|e| e.into_inner()).clear();
    CAPTURE.lock().unwrap_or_else(|e| e.into_inner()).clear();
    TRIAL.with(|t| t.set(u64::MAX));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let ev = TraceEvent {
            kind: "kernels.trials".to_string(),
            worker: "w\"1\"".to_string(),
            campaign_fp: 0xDEAD_BEEF_1234_5678,
            shard: 2,
            trial: 41,
            t_us: 1_000_001,
            wall_us: 917,
        };
        let back = TraceEvent::parse(&ev.to_json()).expect("parses");
        assert_eq!(back, ev);
    }

    #[test]
    fn parse_rejects_other_records() {
        assert!(TraceEvent::parse("{\"record\":\"campaign\",\"kind\":\"x\"}").is_none());
        assert!(TraceEvent::parse("{\"kind\":\"x\"}").is_none());
        assert!(TraceEvent::parse("not json").is_none());
    }

    #[test]
    fn capture_and_context_flow() {
        let _guard = crate::testutil::lock();
        reset();
        set_tracing(true);
        set_capture(true);
        set_worker("w7");
        set_campaign_fp(99);
        set_shard(3);
        with_ctx(12, || emit("kernels.trials", 500));
        emit("lease_start", 0);
        let drained = drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].kind, "kernels.trials");
        assert_eq!(drained[0].worker, "w7");
        assert_eq!(drained[0].campaign_fp, 99);
        assert_eq!(drained[0].shard, 3);
        assert_eq!(drained[0].trial, 12);
        assert_eq!(drained[0].wall_us, 500);
        assert_eq!(drained[1].trial, u64::MAX);
        assert!(drain().is_empty());
        reset();
    }

    #[test]
    fn disabled_emits_nothing() {
        let _guard = crate::testutil::lock();
        reset();
        set_capture(true); // capture without tracing: emit still gated
        emit("kernels.trials", 1);
        assert!(drain().is_empty());
        reset();
    }

    #[test]
    fn capture_cap_counts_drops() {
        let _guard = crate::testutil::lock();
        reset();
        set_tracing(true);
        set_capture(true);
        {
            let mut buf = CAPTURE.lock().unwrap();
            buf.extend(std::iter::repeat_n(
                TraceEvent {
                    kind: "x".into(),
                    worker: String::new(),
                    campaign_fp: 0,
                    shard: 0,
                    trial: 0,
                    t_us: 0,
                    wall_us: 0,
                },
                CAPTURE_CAP,
            ));
        }
        emit("overflow", 0);
        assert_eq!(dropped(), 1);
        reset();
    }
}
