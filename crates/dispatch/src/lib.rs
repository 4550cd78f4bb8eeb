//! # dispatch — distributed campaign dispatch service
//!
//! A dependency-free (std::net TCP) coordinator + worker subsystem that
//! farms the shards of one deterministic fault-injection campaign out to
//! a fleet of worker daemons and merges their results **byte-identically**
//! to a single-process run — the networked layer on top of the
//! plan/execute/assemble engine in `crates/core` (docs/DISPATCH.md).
//!
//! * The **coordinator** ([`serve`] for one plan; [`serve_with`] and
//!   [`Coordinator::run`] for a campaign of several, the waves of an
//!   adaptive one, served to the same connected fleet) takes the same
//!   [`relia::plan::CampaignPlan`] every shard derives locally, leases
//!   strided shards to workers with expiring leases, and reassigns the
//!   shards of dead workers with exponential backoff. Incoming trial
//!   records land in one [`relia::RecordSet`] — a slot per plan index —
//!   so at-least-once execution (two workers racing on a reassigned
//!   lease, a slow worker finishing after its lease expired) cannot
//!   change a single result bit.
//! * A **worker** ([`work`]) connects once per campaign, rebuilds each
//!   plan from its job spec (keeping the application's captures from one
//!   plan to the next), verifies the plan fingerprint, and executes
//!   leased shards, streaming each classified trial back over the wire in
//!   the same JSONL record dialect the checkpoint files use — so a
//!   half-finished lease resumes mid-shard on reassignment (the
//!   coordinator tells the next worker which trials it already holds).
//!
//! The wire protocol ([`proto`]) is one flat JSON object per line,
//! written and parsed with the exact `obs::events` serializer/reader the
//! rest of the workspace uses. Torn frames (a connection dying mid-line)
//! are dropped by the reader; the shard-completion handshake re-requests
//! any records the coordinator is missing, so a torn frame costs one
//! round trip, never a wrong result.

pub mod coordinator;
pub mod proto;
pub mod worker;

pub use coordinator::{serve, serve_with, Coordinator, DispatchCfg, DispatchStats, ServeOutcome};
pub use proto::{
    parse_frame, parse_strata, parse_structures, scaled_gpu, strata_spec, structures_spec,
    CampaignSpec, Frame, WaveSpec, MAX_N, MAX_SMS,
};
pub use worker::{work, WorkSummary, WorkerCfg};

use std::fmt;
use std::path::PathBuf;

/// Where a dispatch endpoint mounts its telemetry HTTP server
/// (`GET /metrics`, `GET /status` — docs/OBSERVABILITY.md).
#[derive(Debug, Clone)]
pub struct TelemetryCfg {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// `port_file` or the startup log line).
    pub listen: String,
    /// Write the bound port here (write-then-rename, so a waiting reader
    /// never observes a partial file).
    pub port_file: Option<PathBuf>,
}

/// Bind a telemetry server per `cfg` and publish the chosen port.
pub(crate) fn mount_telemetry(
    cfg: &TelemetryCfg,
    handlers: obs::Handlers,
) -> std::io::Result<obs::TelemetryServer> {
    // Mounting /metrics implies wanting metrics: turn the registry on so
    // the dispatch_* series actually move. Safe by the observability
    // invariant — metrics never touch the seeded RNG streams (the
    // telemetry differential test pins the bit-identical merge).
    obs::set_enabled(true);
    let server = obs::TelemetryServer::bind(&cfg.listen, handlers)?;
    if let Some(pf) = &cfg.port_file {
        let tmp = pf.with_extension("tmp");
        std::fs::write(&tmp, format!("{}\n", server.addr().port()))?;
        std::fs::rename(&tmp, pf)?;
    }
    Ok(server)
}

use relia::EngineError;

/// Why a dispatch endpoint gave up.
#[derive(Debug)]
pub enum DispatchError {
    Io(std::io::Error),
    /// The peer violated the wire protocol (unexpected frame, bad
    /// handshake, connection closed mid-conversation).
    Protocol(String),
    /// The job spec cannot be realized on this machine (unknown app).
    Spec(String),
    /// The worker's locally rebuilt plan disagrees with the coordinator's
    /// — different code revision, seed handling, or GPU configuration.
    FingerprintMismatch {
        ours: u64,
        theirs: u64,
    },
    /// The record set refused the fleet's records: two records for one
    /// plan index disagree on the outcome (a nondeterministic worker or a
    /// corrupt stream), or the campaign ended without covering the plan.
    Engine(EngineError),
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::Io(e) => write!(f, "dispatch I/O error: {e}"),
            DispatchError::Protocol(why) => write!(f, "protocol error: {why}"),
            DispatchError::Spec(why) => write!(f, "job spec error: {why}"),
            DispatchError::FingerprintMismatch { ours, theirs } => write!(
                f,
                "plan fingerprint mismatch: local {ours:#018x} vs coordinator {theirs:#018x} \
                 (different code revision or configuration?)"
            ),
            DispatchError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DispatchError {}

impl From<std::io::Error> for DispatchError {
    fn from(e: std::io::Error) -> Self {
        DispatchError::Io(e)
    }
}

impl From<EngineError> for DispatchError {
    fn from(e: EngineError) -> Self {
        DispatchError::Engine(e)
    }
}
