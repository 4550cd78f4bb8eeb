//! The coordinator: owns the plan, leases shards, merges results.
//!
//! One accept loop (non-blocking, 20 ms tick) doubles as the lease
//! reaper; each accepted connection gets a handler thread under a
//! [`std::thread::scope`], so [`serve`] returns only after every handler
//! has drained. All shared state sits behind one mutex: the campaign's
//! [`RecordSet`] (a slot per planned trial) plus a state machine per shard:
//!
//! ```text
//!            grant                    all records held, journal fsynced
//! Pending ----------> Leased{conn, expires} ----------> Done
//!    ^                    |
//!    |   lease expired /  |
//!    +---- conn died -----+   (back off: min(backoff·2^(attempts-1), max))
//! ```
//!
//! Execution is at-least-once by design — an expired lease is simply
//! re-granted, and the slow first worker keeps streaming — so merge
//! safety comes from the record set's one duplicate rule: the first record
//! for a plan index wins, later duplicates must agree on (outcome, ctrl)
//! or the campaign aborts with [`relia::EngineError::ConflictingDuplicate`].
//! Trials are deterministic functions of their planned seed, so honest
//! duplicates always agree. The coordinator's one leniency sits at its
//! call site: a record whose index the plan does not have is stream
//! corruption, dropped like a torn line, not a fatal error.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use obs::events::push_json_str;
use obs::{counter_add, emit_dispatch, gauge_set, DispatchEvent};
use relia::checkpoint::{CheckpointHeader, CheckpointWriter, TrialRecord};
use relia::plan::{shard_trials, CampaignPlan};
use relia::{EngineError, RecordSet};

use crate::proto::{
    parse_frame, write_frame, CampaignSpec, Frame, Line, LineReader, PROTO_VERSION,
};
use crate::{DispatchError, TelemetryCfg};

/// Accept-loop tick: how often the coordinator scans for expired leases.
const ACCEPT_TICK: Duration = Duration::from_millis(20);
/// Per-connection read tick: how often a handler re-checks shared state
/// while waiting for the next frame.
const HANDLER_TICK: Duration = Duration::from_millis(50);
/// How long a handler lingers after sending `shutdown`, waiting for the
/// worker to hang up first (so the worker reads the frame, not a reset).
const FAREWELL_GRACE: Duration = Duration::from_secs(5);
/// How often the accept loop re-renders the `/status` fleet view (the
/// render scans every slot, so it runs well below the accept tick rate).
const STATUS_TICK: Duration = Duration::from_millis(250);
/// How often the scraper thread polls worker `/metrics` endpoints.
const SCRAPE_TICK: Duration = Duration::from_millis(500);
/// Per-worker scrape budget; a hung worker endpoint must not stall the
/// whole scrape round.
const SCRAPE_TIMEOUT: Duration = Duration::from_millis(250);

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct DispatchCfg {
    /// How many shards to cut the plan into (≥ 1; more shards than
    /// workers just means workers take several leases in turn).
    pub shards: usize,
    /// Lease duration; heartbeats renew it, silence past it reassigns.
    pub lease: Duration,
    /// Base delay before re-granting a shard whose lease was lost.
    pub backoff: Duration,
    /// Cap on the exponential reassignment backoff.
    pub max_backoff: Duration,
    /// How long workers are told to sleep when no shard is grantable.
    pub wait_ms: u64,
    /// Journal each completed shard here as a checkpoint file, fsynced
    /// *before* the shard is acked (crash-safe hand-off).
    pub out_dir: Option<PathBuf>,
    /// Mount `GET /metrics` + `GET /status` here while serving
    /// (docs/OBSERVABILITY.md). `None` = no telemetry server.
    pub telemetry: Option<TelemetryCfg>,
}

impl Default for DispatchCfg {
    fn default() -> Self {
        DispatchCfg {
            shards: 2,
            lease: Duration::from_secs(10),
            backoff: Duration::from_millis(250),
            max_backoff: Duration::from_secs(5),
            wait_ms: 200,
            out_dir: None,
            telemetry: None,
        }
    }
}

/// Counters a finished [`serve`] reports (mirrored into the `obs`
/// registry as `dispatch_*` metrics while running).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchStats {
    pub workers_joined: u64,
    pub leases_granted: u64,
    /// Leases granted for a shard that had already been leased before.
    pub leases_reassigned: u64,
    /// Leases reclaimed (heartbeat silence or worker disconnect).
    pub leases_expired: u64,
    pub shards_completed: u64,
    /// Records received for a plan index that already had one.
    pub duplicate_records: u64,
    /// Torn or malformed wire lines dropped by the reader.
    pub torn_frames: u64,
    /// `resend` frames sent because a shard arrived with holes.
    pub resend_requests: u64,
}

/// What [`serve`] hands back once every shard is done.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// One record per planned trial, sorted by plan index — the same
    /// vector a single-process [`relia::execute_trials`] over the full
    /// plan would produce (modulo wall-clock noise).
    pub records: Vec<TrialRecord>,
    pub stats: DispatchStats,
}

enum ShardState {
    Pending {
        not_before: Instant,
        attempts: u64,
    },
    Leased {
        conn: u64,
        worker: String,
        expires: Instant,
        attempts: u64,
    },
    Done,
}

struct State {
    records: RecordSet,
    shards: Vec<ShardState>,
    stats: DispatchStats,
    done: bool,
    fatal: Option<DispatchError>,
}

struct Ctx<'a> {
    plan: &'a CampaignPlan,
    spec: &'a CampaignSpec,
    cfg: &'a DispatchCfg,
    /// Plan indices owned by each shard (strided cover, precomputed).
    shard_idxs: Vec<Vec<usize>>,
    fingerprint: u64,
    started: Instant,
    /// Workers that said hello: `(name, telemetry addr)` — addr may be
    /// empty when the worker mounts no telemetry server.
    workers: Mutex<Vec<(String, String)>>,
    state: Mutex<State>,
}

fn backoff_for(cfg: &DispatchCfg, attempts: u64) -> Duration {
    let shift = attempts.saturating_sub(1).min(16) as u32;
    cfg.backoff
        .saturating_mul(1u32 << shift)
        .min(cfg.max_backoff)
}

/// Run the coordinator until every shard of `plan` is complete.
///
/// `listener` is accepted as-is so callers can bind port 0 and publish
/// the chosen port before serving. Returns the merged record vector and
/// the run's statistics; fatal errors (conflicting duplicates, journal
/// I/O failures) abort the campaign.
pub fn serve(
    listener: TcpListener,
    plan: &CampaignPlan,
    spec: &CampaignSpec,
    cfg: &DispatchCfg,
) -> Result<ServeOutcome, DispatchError> {
    if cfg.shards == 0 {
        return Err(DispatchError::Spec("shards must be >= 1".into()));
    }
    let now = Instant::now();
    let shard_idxs: Vec<Vec<usize>> = (0..cfg.shards)
        .map(|i| shard_trials(plan.len(), cfg.shards, i))
        .collect();
    let shards: Vec<ShardState> = shard_idxs
        .iter()
        .map(|idxs| {
            if idxs.is_empty() {
                ShardState::Done
            } else {
                ShardState::Pending {
                    not_before: now,
                    attempts: 0,
                }
            }
        })
        .collect();
    let done = shards.iter().all(|s| matches!(s, ShardState::Done));
    let ctx = Ctx {
        plan,
        spec,
        cfg,
        shard_idxs,
        fingerprint: plan.fingerprint(),
        started: Instant::now(),
        workers: Mutex::new(Vec::new()),
        state: Mutex::new(State {
            records: RecordSet::new(plan.len()),
            shards,
            stats: DispatchStats::default(),
            done,
            fatal: None,
        }),
    };
    obs::trace::set_campaign_fp(ctx.fingerprint);
    // Lifecycle markers (serve_start/lease/shard_complete/complete) are
    // gated on the tracing switch; a coordinator with a live events sink
    // wants them in the timeline alongside the worker-forwarded records.
    if obs::events_enabled() {
        obs::trace::set_tracing(true);
    }
    obs::trace::emit_for("serve_start", 0, u64::MAX, 0);
    listener.set_nonblocking(true)?;
    let next_conn = AtomicU64::new(1);

    // Telemetry: the HTTP handlers need 'static content, so the accept
    // loop publishes the fleet view into shared strings the server reads.
    let status_doc = Arc::new(Mutex::new(String::from("{}")));
    let worker_metrics = Arc::new(Mutex::new(String::new()));
    let _telemetry = match &cfg.telemetry {
        None => None,
        Some(tcfg) => {
            let status = Arc::clone(&status_doc);
            let extra = Arc::clone(&worker_metrics);
            Some(crate::mount_telemetry(
                tcfg,
                obs::Handlers {
                    status: Box::new(move || status.lock().unwrap().clone()),
                    metrics_extra: Box::new(move || extra.lock().unwrap().clone()),
                },
            )?)
        }
    };

    std::thread::scope(|s| {
        if _telemetry.is_some() {
            // Scraper: poll every advertised worker /metrics and
            // re-export the series under worker="name" labels.
            let ctx = &ctx;
            let extra = Arc::clone(&worker_metrics);
            s.spawn(move || loop {
                if ctx.state.lock().unwrap().done {
                    break;
                }
                *extra.lock().unwrap() = scrape_workers(ctx);
                std::thread::sleep(SCRAPE_TICK);
            });
        }
        let mut last_status = Instant::now() - STATUS_TICK;
        loop {
            if ctx.state.lock().unwrap().done {
                break;
            }
            if _telemetry.is_some() && last_status.elapsed() >= STATUS_TICK {
                last_status = Instant::now();
                *status_doc.lock().unwrap() = render_status(&ctx);
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let conn = next_conn.fetch_add(1, Ordering::Relaxed);
                    let ctx = &ctx;
                    s.spawn(move || handle(conn, stream, ctx));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    expire_leases(&ctx);
                    std::thread::sleep(ACCEPT_TICK);
                }
                Err(e) => {
                    let mut st = ctx.state.lock().unwrap();
                    st.fatal.get_or_insert(DispatchError::Io(e));
                    st.done = true;
                    break;
                }
            }
        }
        // Dropping out of the scope joins every handler; they all notice
        // `done` within one HANDLER_TICK and say goodbye to their worker.
    });
    // Final (post-completion) fleet view for pollers that race shutdown.
    if _telemetry.is_some() {
        *status_doc.lock().unwrap() = render_status(&ctx);
    }

    let st = ctx.state.into_inner().unwrap();
    if let Some(e) = st.fatal {
        return Err(e);
    }
    let records = st.records.complete()?;
    emit_dispatch(&DispatchEvent {
        kind: "complete",
        worker: "",
        shard: 0,
        shards: cfg.shards as u64,
        attempt: 0,
        done: records.len() as u64,
        total: records.len() as u64,
    });
    obs::trace::emit_for("complete", 0, u64::MAX, 0);
    Ok(ServeOutcome {
        records,
        stats: st.stats,
    })
}

/// Render the coordinator's `/status` document: one JSON object with the
/// fleet view (`campaign status`/`campaign top` poll this). Scans every
/// shard's slots, so it runs at [`STATUS_TICK`] rate, not per request. Also
/// refreshes the coordinator-side `dispatch_*` gauges so `/metrics`
/// moves in lockstep with `/status`.
fn render_status(ctx: &Ctx) -> String {
    let st = ctx.state.lock().unwrap();
    let now = Instant::now();
    let held_total = st.records.held();
    let planned = ctx.plan.len();
    let elapsed = ctx.started.elapsed();
    let rate = if elapsed.as_secs_f64() > 0.0 {
        held_total as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    let remaining = planned.saturating_sub(held_total);
    // No observed rate yet means no projection: `eta_ms` is omitted from
    // the document (status renderers print `eta --`) and the gauge is
    // left untouched rather than lying with a 0.
    let eta_ms: Option<u64> = if st.done {
        Some(0)
    } else if rate > 0.0 {
        Some((remaining as f64 / rate * 1000.0) as u64)
    } else {
        None
    };
    gauge_set("dispatch_records_held", &[], held_total as u64);
    gauge_set("dispatch_records_planned", &[], planned as u64);
    gauge_set("dispatch_record_rate_milli", &[], (rate * 1000.0) as u64);
    if let Some(ms) = eta_ms {
        gauge_set("dispatch_eta_ms", &[], ms);
    }
    gauge_set(
        "dispatch_workers_known",
        &[],
        ctx.workers.lock().unwrap().len() as u64,
    );

    let mut out = String::with_capacity(1024);
    out.push_str("{\"record\":\"dispatch_status\",\"role\":\"coordinator\"");
    out.push_str(",\"app\":");
    push_json_str(&mut out, &ctx.spec.app);
    out.push_str(",\"layer\":");
    push_json_str(&mut out, ctx.spec.layer.label());
    out.push_str(",\"campaign_fp\":");
    push_json_str(&mut out, &format!("{:016x}", ctx.fingerprint));
    out.push_str(&format!(
        ",\"shards\":{},\"trials\":{planned},\"records_held\":{held_total}",
        ctx.cfg.shards
    ));
    out.push_str(&format!(",\"records_per_s\":{rate:.3}"));
    if let Some(ms) = eta_ms {
        out.push_str(&format!(",\"eta_ms\":{ms}"));
    }
    out.push_str(&format!(",\"elapsed_ms\":{}", elapsed.as_millis()));
    out.push_str(&format!(",\"done\":{}", st.done));
    out.push_str(&format!(
        ",\"stats\":{{\"workers_joined\":{},\"leases_granted\":{},\"leases_reassigned\":{},\
         \"leases_expired\":{},\"shards_completed\":{},\"duplicate_records\":{},\
         \"torn_frames\":{},\"resend_requests\":{}}}",
        st.stats.workers_joined,
        st.stats.leases_granted,
        st.stats.leases_reassigned,
        st.stats.leases_expired,
        st.stats.shards_completed,
        st.stats.duplicate_records,
        st.stats.torn_frames,
        st.stats.resend_requests
    ));
    out.push_str(",\"shard_detail\":[");
    for (i, s) in st.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let total = ctx.shard_idxs[i].len();
        let held = total - st.records.missing(&ctx.shard_idxs[i]).len();
        out.push_str(&format!(
            "{{\"shard\":{i},\"held\":{held},\"total\":{total}"
        ));
        match s {
            ShardState::Pending {
                not_before,
                attempts,
            } => {
                let retry_in = not_before.saturating_duration_since(now).as_millis();
                out.push_str(&format!(
                    ",\"state\":\"pending\",\"attempts\":{attempts},\"retry_in_ms\":{retry_in}}}"
                ));
            }
            ShardState::Leased {
                worker,
                expires,
                attempts,
                ..
            } => {
                let expires_in = expires.saturating_duration_since(now);
                let hb_age = ctx.cfg.lease.saturating_sub(expires_in).as_millis();
                out.push_str(",\"state\":\"leased\",\"owner\":");
                push_json_str(&mut out, worker);
                out.push_str(&format!(
                    ",\"attempts\":{attempts},\"heartbeat_age_ms\":{hb_age},\
                     \"expires_in_ms\":{}}}",
                    expires_in.as_millis()
                ));
            }
            ShardState::Done => out.push_str(",\"state\":\"done\"}"),
        }
    }
    out.push_str("],\"workers\":[");
    for (i, (name, addr)) in ctx.workers.lock().unwrap().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, name);
        out.push_str(",\"telemetry\":");
        push_json_str(&mut out, addr);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Scrape every advertised worker `/metrics`, relabel each series with
/// `worker="name"`, and return the concatenated exposition text (appended
/// verbatim to the coordinator's own `/metrics` body — the lint accepts
/// per-worker label sets under a shared family). Unreachable workers are
/// skipped; a counter records the misses.
fn scrape_workers(ctx: &Ctx) -> String {
    let targets: Vec<(String, String)> = ctx
        .workers
        .lock()
        .unwrap()
        .iter()
        .filter(|(_, addr)| !addr.is_empty())
        .cloned()
        .collect();
    let mut out = String::new();
    for (name, addr) in targets {
        match obs::http_get(&addr, "/metrics", SCRAPE_TIMEOUT) {
            Ok((200, body)) => out.push_str(&obs::expo::inject_label(&body, "worker", &name)),
            Ok(_) | Err(_) => {
                counter_add("dispatch_scrape_failures_total", &[], 1);
            }
        }
    }
    out
}

/// Reclaim leases whose holder has gone silent past the lease duration.
fn expire_leases(ctx: &Ctx) {
    let mut st = ctx.state.lock().unwrap();
    if st.done {
        return;
    }
    let now = Instant::now();
    let expired: Vec<(usize, u64)> = st
        .shards
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            ShardState::Leased {
                expires, attempts, ..
            } if *expires <= now => Some((i, *attempts)),
            _ => None,
        })
        .collect();
    for (i, attempts) in expired {
        st.shards[i] = ShardState::Pending {
            not_before: now + backoff_for(ctx.cfg, attempts),
            attempts,
        };
        st.stats.leases_expired += 1;
        let held = ctx.shard_idxs[i].len() - st.records.missing(&ctx.shard_idxs[i]).len();
        counter_add("dispatch_lease_expiries_total", &[], 1);
        emit_dispatch(&DispatchEvent {
            kind: "lease_expired",
            worker: "",
            shard: i as u64,
            shards: ctx.cfg.shards as u64,
            attempt: attempts,
            done: held as u64,
            total: ctx.shard_idxs[i].len() as u64,
        });
    }
}

/// Release any lease still held by a departed connection (immediate
/// reclaim instead of waiting out the lease timer).
fn release_conn(ctx: &Ctx, conn: u64) {
    let mut st = ctx.state.lock().unwrap();
    let now = Instant::now();
    for i in 0..st.shards.len() {
        if let ShardState::Leased {
            conn: c, attempts, ..
        } = st.shards[i]
        {
            if c == conn {
                st.shards[i] = ShardState::Pending {
                    not_before: now + backoff_for(ctx.cfg, attempts),
                    attempts,
                };
                st.stats.leases_expired += 1;
                counter_add("dispatch_lease_expiries_total", &[], 1);
            }
        }
    }
}

enum Grant {
    Lease { shard: usize, done: Vec<usize> },
    Busy,
    AllDone,
}

fn try_grant(ctx: &Ctx, conn: u64, worker: &str) -> Grant {
    let mut st = ctx.state.lock().unwrap();
    if st.done {
        return Grant::AllDone;
    }
    let now = Instant::now();
    let pick = st
        .shards
        .iter()
        .position(|s| matches!(s, ShardState::Pending { not_before, .. } if *not_before <= now));
    let Some(shard) = pick else {
        return Grant::Busy;
    };
    let attempts = match st.shards[shard] {
        ShardState::Pending { attempts, .. } => attempts + 1,
        _ => unreachable!("picked a non-pending shard"),
    };
    st.shards[shard] = ShardState::Leased {
        conn,
        worker: worker.to_string(),
        expires: now + ctx.cfg.lease,
        attempts,
    };
    st.stats.leases_granted += 1;
    if attempts > 1 {
        st.stats.leases_reassigned += 1;
    }
    let done: Vec<usize> = ctx.shard_idxs[shard]
        .iter()
        .copied()
        .filter(|&t| st.records.get(t).is_some())
        .collect();
    counter_add("dispatch_leases_total", &[], 1);
    emit_dispatch(&DispatchEvent {
        kind: "lease",
        worker,
        shard: shard as u64,
        shards: ctx.cfg.shards as u64,
        attempt: attempts,
        done: done.len() as u64,
        total: ctx.shard_idxs[shard].len() as u64,
    });
    obs::trace::emit_for("lease", shard as u64, u64::MAX, 0);
    Grant::Lease { shard, done }
}

/// Offer one record to the campaign's set. Returns `true` when the
/// campaign must abort (two records for one plan index disagree on the
/// outcome).
fn insert_record(ctx: &Ctx, rec: TrialRecord) -> bool {
    let mut st = ctx.state.lock().unwrap();
    let conflict = match st.records.insert(rec) {
        Ok(true) => return false,
        // A record for a trial the plan doesn't have can only be stream
        // corruption; drop it like a torn line and let resend repair.
        Err(EngineError::ForeignTrial { .. }) => {
            note_torn(&mut st);
            return false;
        }
        Ok(false) => None,
        Err(e) => Some(e),
    };
    st.stats.duplicate_records += 1;
    counter_add("dispatch_duplicate_records_total", &[], 1);
    let Some(e) = conflict else {
        return false;
    };
    st.fatal.get_or_insert(e.into());
    st.done = true;
    true
}

fn renew_lease(ctx: &Ctx, conn: u64, shard: usize) {
    let mut st = ctx.state.lock().unwrap();
    if let Some(ShardState::Leased {
        conn: c, expires, ..
    }) = st.shards.get_mut(shard)
    {
        if *c == conn {
            *expires = Instant::now() + ctx.cfg.lease;
        }
    }
}

enum DoneReply {
    Ack,
    Resend(Vec<usize>),
    Fatal,
}

/// Handle a worker's `shard_done` claim. Verifies every slot the shard
/// owns is filled (else: `resend`), journals the shard durably (fsync)
/// when an out_dir is configured, and only then marks it Done — so the
/// `ack` the caller sends never precedes stable storage.
fn complete_shard(ctx: &Ctx, shard: usize, worker: &str) -> DoneReply {
    let mut st = ctx.state.lock().unwrap();
    if matches!(st.shards[shard], ShardState::Done) {
        return DoneReply::Ack; // another worker won the race; ack is idempotent
    }
    let missing = st.records.missing(&ctx.shard_idxs[shard]);
    if !missing.is_empty() {
        st.stats.resend_requests += 1;
        counter_add("dispatch_resend_requests_total", &[], 1);
        return DoneReply::Resend(missing);
    }
    if let Some(dir) = &ctx.cfg.out_dir {
        let persist = || -> std::io::Result<()> {
            let header = CheckpointHeader::for_plan(ctx.plan, ctx.cfg.shards, shard);
            let path = dir.join(format!("shard-{shard}.jsonl"));
            let mut w = CheckpointWriter::create(&path, &header, usize::MAX)?;
            for &t in &ctx.shard_idxs[shard] {
                w.record(st.records.get(t).expect("verified above"))?;
            }
            w.finish() // flush + fsync — must precede the ack
        };
        if let Err(e) = persist() {
            st.fatal.get_or_insert(DispatchError::Io(e));
            st.done = true;
            return DoneReply::Fatal;
        }
    }
    st.shards[shard] = ShardState::Done;
    st.stats.shards_completed += 1;
    let done_shards = st
        .shards
        .iter()
        .filter(|s| matches!(s, ShardState::Done))
        .count();
    if done_shards == ctx.cfg.shards {
        st.done = true;
    }
    counter_add("dispatch_shards_completed_total", &[], 1);
    gauge_set("dispatch_shards_done", &[], done_shards as u64);
    emit_dispatch(&DispatchEvent {
        kind: "shard_complete",
        worker,
        shard: shard as u64,
        shards: ctx.cfg.shards as u64,
        attempt: 0,
        done: ctx.shard_idxs[shard].len() as u64,
        total: ctx.shard_idxs[shard].len() as u64,
    });
    obs::trace::emit_for("shard_complete", shard as u64, u64::MAX, 0);
    DoneReply::Ack
}

fn note_torn(st: &mut State) {
    st.stats.torn_frames += 1;
    counter_add("dispatch_torn_frames_total", &[], 1);
}

/// Send `shutdown`, then linger until the worker hangs up (or a grace
/// period passes) so the frame is read before the socket dies.
fn farewell(stream: &mut TcpStream, lines: &mut LineReader) {
    if write_frame(stream, &Frame::Shutdown).is_err() {
        return;
    }
    let deadline = Instant::now() + FAREWELL_GRACE;
    while Instant::now() < deadline {
        match lines.next() {
            Ok(Line::Eof { .. }) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

fn handle(conn: u64, stream: TcpStream, ctx: &Ctx) {
    // Per-connection failures (bad handshake, worker I/O errors) drop the
    // connection; release_conn puts any lease it held back in play.
    let _ = handle_inner(conn, stream, ctx);
    release_conn(ctx, conn);
}

fn handle_inner(conn: u64, mut stream: TcpStream, ctx: &Ctx) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(HANDLER_TICK))?;
    let mut lines = LineReader::new(stream.try_clone()?);

    // Handshake: hello → job → ready (with a matching fingerprint).
    let worker = loop {
        match lines.next()? {
            Line::Full(l) => match parse_frame(&l) {
                Some(Frame::Hello {
                    worker,
                    proto,
                    telemetry,
                }) if proto == PROTO_VERSION => {
                    let mut ws = ctx.workers.lock().unwrap();
                    match ws.iter_mut().find(|(n, _)| *n == worker) {
                        Some(entry) => entry.1 = telemetry,
                        None => ws.push((worker.clone(), telemetry)),
                    }
                    break worker;
                }
                _ => return Ok(()),
            },
            Line::Timeout => {
                if ctx.state.lock().unwrap().done {
                    farewell(&mut stream, &mut lines);
                    return Ok(());
                }
            }
            Line::Eof { .. } => return Ok(()),
        }
    };
    ctx.state.lock().unwrap().stats.workers_joined += 1;
    counter_add("dispatch_workers_joined_total", &[], 1);
    emit_dispatch(&DispatchEvent {
        kind: "worker_join",
        worker: &worker,
        shard: 0,
        shards: ctx.cfg.shards as u64,
        attempt: 0,
        done: 0,
        total: ctx.plan.len() as u64,
    });
    write_frame(
        &mut stream,
        &Frame::Job {
            spec: ctx.spec.clone(),
            shards: ctx.cfg.shards,
            fingerprint: ctx.fingerprint,
        },
    )?;
    loop {
        match lines.next()? {
            Line::Full(l) => match parse_frame(&l) {
                Some(Frame::Ready { fingerprint }) if fingerprint == ctx.fingerprint => break,
                // Mismatched plan or confused worker: it cannot safely
                // execute trials for us, so drop the connection.
                _ => return Ok(()),
            },
            Line::Timeout => {
                if ctx.state.lock().unwrap().done {
                    farewell(&mut stream, &mut lines);
                    return Ok(());
                }
            }
            Line::Eof { .. } => return Ok(()),
        }
    }

    'serve: loop {
        match try_grant(ctx, conn, &worker) {
            Grant::AllDone => {
                farewell(&mut stream, &mut lines);
                return Ok(());
            }
            Grant::Busy => write_frame(
                &mut stream,
                &Frame::Wait {
                    ms: ctx.cfg.wait_ms,
                },
            )?,
            Grant::Lease { shard, done } => {
                write_frame(&mut stream, &Frame::Lease { shard, done })?
            }
        }
        // Pump frames until this worker goes idle again (poll after a
        // wait, or ack after a completed shard).
        loop {
            match lines.next()? {
                Line::Timeout => {
                    let st = ctx.state.lock().unwrap();
                    let mine = st
                        .shards
                        .iter()
                        .any(|s| matches!(s, ShardState::Leased { conn: c, .. } if *c == conn));
                    if st.done && !mine {
                        drop(st);
                        farewell(&mut stream, &mut lines);
                        return Ok(());
                    }
                }
                Line::Eof { torn } => {
                    if torn {
                        note_torn(&mut ctx.state.lock().unwrap());
                    }
                    return Ok(());
                }
                Line::Full(l) => match parse_frame(&l) {
                    None => note_torn(&mut ctx.state.lock().unwrap()),
                    Some(Frame::Trial(rec)) => {
                        if insert_record(ctx, rec) {
                            return Ok(()); // conflicting duplicate: campaign aborted
                        }
                    }
                    Some(Frame::Trace(ev)) => obs::trace::emit_event(ev),
                    Some(Frame::Heartbeat { shard, .. }) => renew_lease(ctx, conn, shard),
                    Some(Frame::Poll) => continue 'serve,
                    Some(Frame::ShardDone { shard }) => {
                        if shard >= ctx.cfg.shards {
                            return Ok(());
                        }
                        match complete_shard(ctx, shard, &worker) {
                            DoneReply::Ack => {
                                write_frame(&mut stream, &Frame::Ack { shard })?;
                                continue 'serve;
                            }
                            DoneReply::Resend(missing) => {
                                write_frame(&mut stream, &Frame::Resend { shard, missing })?
                            }
                            DoneReply::Fatal => return Ok(()),
                        }
                    }
                    // Frames that only flow coordinator → worker.
                    Some(_) => return Ok(()),
                },
            }
        }
    }
}
