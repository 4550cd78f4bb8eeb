//! # trace — trace-driven replay backend for injection campaigns
//!
//! The timed engine simulates every trial cycle-by-cycle, even though
//! the overwhelming majority of uarch faults — especially in the large
//! cache arrays — land on bits that are overwritten (or never touched)
//! before anything reads them. This crate removes that waste without
//! giving up a single bit of fidelity:
//!
//! 1. **Record** ([`recorder`]): one golden pass per (app variant, config)
//!    runs with a probe sink attached. Every register-file, shared-memory,
//!    and cache word access streams, as its probe batch arrives, into
//!    per-word *read runs* — the intervals from a write to the last read
//!    of its value — and into a compact delta/varint-encoded blob per
//!    segment (host glue / launch; [`codec`]), held for the life of the
//!    application's captures. No segment's events are buffered.
//! 2. **Adjudicate** ([`replay`]): for each trial, ask the injector's own
//!    site resolver (`vgpu_sim::resolve_site`) which words the fault
//!    hits, and binary-search each word's read runs for the fault
//!    position. If no word's first touch at-or-after it is a read (every
//!    word is written first, or never touched), the trial is *provably
//!    masked* and its record is synthesized in microseconds. Reads,
//!    persistent faults, control-state faults, and unindexable sites fall
//!    back to full timed re-execution — so replay output is
//!    byte-identical to the timed backend by construction, just an order
//!    of magnitude faster.
//!
//! The engine-facing surface lives in `relia::campaign` (backend
//! selection); this crate is deliberately free of campaign and
//! observability dependencies so it can be tested in isolation.

pub mod codec;
pub mod recorder;
pub mod replay;

pub use codec::{decode_segment_lossy, encode_segment, SegmentEvents};
pub use recorder::{record_app_trace, record_trace, TraceBuilder};
pub use replay::{AppTrace, FallbackReason, LaunchInfo, Verdict};
