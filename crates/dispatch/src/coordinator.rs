//! The coordinator: serves plans to the fleet, leases shards, merges
//! results.
//!
//! A coordinator outlives one plan: [`serve_with`] binds the fleet — the
//! listener, the accepted connections, the worker directory, the
//! telemetry server, one running [`DispatchStats`] — to the caller's
//! closure, and [`Coordinator::run`] serves one plan to it, once per wave
//! of an adaptive campaign. [`serve`] is the one-plan case.
//!
//! One accept loop (non-blocking, 20 ms tick) doubles as the lease
//! reaper; each accepted connection gets a handler thread under a
//! [`std::thread::scope`], so [`serve_with`] returns only after every
//! handler has drained. All shared state sits behind one mutex: the
//! current plan's [`RecordSet`] (a slot per planned trial) plus a state
//! machine per shard:
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
use std::sync::{Arc, Condvar, Mutex};
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

/// One plan being served: what [`Coordinator::run`] installs and the
/// handlers lease out. It owns what it needs of the caller's plan, so the
/// handlers — which outlive any one `run` — borrow nothing from it.
struct Job {
    /// Ordinal of the `run` call (1, 2, …). A handler takes records,
    /// heartbeats and shard claims only from a worker that answered *this*
    /// job's frame with `ready`: what a slow worker still streams for an
    /// earlier plan is dropped, never merged into the wrong record set.
    seq: u64,
    spec: CampaignSpec,
    /// Shard 0's journal header: the plan's identity (trial count,
    /// fingerprint) and, per shard, what each journal file starts with.
    header: CheckpointHeader,
    /// Where completed shards are journaled: `out_dir`, or for a wave
    /// `out_dir/waveW` — the shard file names repeat across waves.
    journal: Option<PathBuf>,
    /// Plan indices owned by each shard (strided cover, precomputed).
    shard_idxs: Vec<Vec<usize>>,
    records: RecordSet,
    shards: Vec<ShardState>,
    started: Instant,
    done: bool,
}

struct State {
    /// The plan of the latest `run` (kept after it completes, for `/status`).
    job: Option<Job>,
    stats: DispatchStats,
    /// The caller's closure has returned: handlers say `shutdown`.
    over: bool,
    fatal: Option<DispatchError>,
}

/// A running coordinator, handed to the closure of [`serve_with`].
pub struct Coordinator<'a> {
    cfg: &'a DispatchCfg,
    /// Workers that said hello: `(name, telemetry addr)` — addr may be
    /// empty when the worker mounts no telemetry server.
    workers: Mutex<Vec<(String, String)>>,
    state: Mutex<State>,
    /// The `/status` document the telemetry server hands out: its
    /// handlers need 'static content, so the fleet view is published
    /// into a shared string.
    status_doc: Arc<Mutex<String>>,
    /// Signalled on every transition a thread may be parked on: a plan
    /// installed, a plan finished or aborted, the campaign over.
    wake: Condvar,
}

fn backoff_for(cfg: &DispatchCfg, attempts: u64) -> Duration {
    let shift = attempts.saturating_sub(1).min(16) as u32;
    cfg.backoff
        .saturating_mul(1u32 << shift)
        .min(cfg.max_backoff)
}

/// Run the coordinator until every shard of `plan` is complete: the
/// one-plan case of [`serve_with`].
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
    let (records, stats) = serve_with(listener, cfg, |coord| coord.run(plan, spec))?;
    Ok(ServeOutcome {
        records: records?,
        stats,
    })
}

/// Run a coordinator for as long as `body` does: workers that connect to
/// `listener` stay connected across every [`Coordinator::run`] `body`
/// makes — one `hello`, then a `job`/`ready` handshake per plan — and are
/// sent `shutdown` when it returns. Returns what `body` returned and the
/// statistics of the whole campaign.
pub fn serve_with<R>(
    listener: TcpListener,
    cfg: &DispatchCfg,
    body: impl FnOnce(&Coordinator) -> R,
) -> Result<(R, DispatchStats), DispatchError> {
    if cfg.shards == 0 {
        return Err(DispatchError::Spec("shards must be >= 1".into()));
    }
    let coord = Coordinator {
        cfg,
        workers: Mutex::new(Vec::new()),
        state: Mutex::new(State {
            job: None,
            stats: DispatchStats::default(),
            over: false,
            fatal: None,
        }),
        status_doc: Arc::new(Mutex::new(String::from("{}"))),
        wake: Condvar::new(),
    };
    // Lifecycle markers (serve_start/lease/shard_complete/complete) are
    // gated on the tracing switch; a coordinator with a live events sink
    // wants them in the timeline alongside the worker-forwarded records.
    if obs::events_enabled() {
        obs::trace::set_tracing(true);
    }
    listener.set_nonblocking(true)?;

    let worker_metrics = Arc::new(Mutex::new(String::new()));
    let _telemetry = match &cfg.telemetry {
        None => None,
        Some(tcfg) => {
            let status = Arc::clone(&coord.status_doc);
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

    let out = std::thread::scope(|s| {
        let coord = &coord;
        if _telemetry.is_some() {
            // Scraper: poll every advertised worker /metrics and
            // re-export the series under worker="name" labels.
            let extra = Arc::clone(&worker_metrics);
            s.spawn(move || {
                while !coord.state.lock().unwrap().over {
                    *extra.lock().unwrap() = scrape_workers(coord);
                    std::thread::sleep(SCRAPE_TICK);
                }
            });
        }
        let listener = &listener;
        s.spawn(move || {
            let mut next_conn = 1u64;
            let mut last_status = Instant::now() - STATUS_TICK;
            while !coord.state.lock().unwrap().over {
                if last_status.elapsed() >= STATUS_TICK {
                    last_status = Instant::now();
                    coord.publish_status();
                }
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        let conn = next_conn;
                        next_conn += 1;
                        s.spawn(move || handle(conn, stream, coord));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        expire_leases(coord);
                        std::thread::sleep(ACCEPT_TICK);
                    }
                    Err(e) => {
                        let mut st = coord.state.lock().unwrap();
                        coord.finish(&mut st, Some(DispatchError::Io(e)));
                        break;
                    }
                }
            }
        });
        // However `body` ends — a panic included — the campaign is over;
        // leaving the scope then joins the accept loop and every handler,
        // which all notice within one tick and say goodbye to their worker.
        let _end = EndCampaign(coord);
        body(coord)
    });
    // Final (post-completion) fleet view for pollers that race shutdown.
    coord.publish_status();
    let st = coord.state.into_inner().unwrap();
    Ok((out, st.stats))
}

/// Marks the campaign over when [`serve_with`]'s closure is done.
struct EndCampaign<'a>(&'a Coordinator<'a>);

impl Drop for EndCampaign<'_> {
    fn drop(&mut self) {
        // Setting a flag leaves the state valid even if a handler panicked
        // while holding the lock.
        let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        st.over = true;
        self.0.wake.notify_all();
    }
}

impl Coordinator<'_> {
    /// Serve one plan to the fleet — every worker connected now or joining
    /// while it runs — until each of its shards is complete, and return
    /// one record per planned trial, sorted by plan index: the same vector
    /// a single-process [`relia::execute_trials`] over the full plan would
    /// produce (modulo wall-clock noise). `spec` is the campaign `plan`
    /// belongs to: it rides in the `job` frame each worker re-expands the
    /// plan from, a wave plan's index and strata with it.
    pub fn run(
        &self,
        plan: &CampaignPlan,
        spec: &CampaignSpec,
    ) -> Result<Vec<TrialRecord>, DispatchError> {
        let shards = self.cfg.shards;
        let journal = match (&self.cfg.out_dir, plan.wave) {
            (Some(dir), Some(wave)) => {
                let dir = dir.join(format!("wave{wave}"));
                std::fs::create_dir_all(&dir)?;
                Some(dir)
            }
            (dir, _) => dir.clone(),
        };
        let now = Instant::now();
        let shard_idxs: Vec<Vec<usize>> = (0..shards)
            .map(|i| shard_trials(plan.len(), shards, i))
            .collect();
        let states: Vec<ShardState> = shard_idxs
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
        let header = CheckpointHeader::for_plan(plan, shards, 0);
        obs::trace::set_campaign_fp(header.fingerprint);
        obs::trace::emit_for("serve_start", 0, u64::MAX, 0);

        {
            let mut st = self.state.lock().unwrap();
            st.job = Some(Job {
                seq: st.job.as_ref().map_or(1, |j| j.seq + 1),
                spec: spec.for_plan(plan),
                header,
                journal,
                shard_idxs,
                records: RecordSet::new(plan.len()),
                done: states.iter().all(|s| matches!(s, ShardState::Done)),
                shards: states,
                started: now,
            });
        }
        self.wake.notify_all();
        // A poller sees the new plan at once, not a status tick later.
        self.publish_status();
        let running = |s: &mut State| s.fatal.is_none() && s.job.as_ref().is_some_and(|j| !j.done);
        let mut st = (self.wake)
            .wait_while(self.state.lock().unwrap(), running)
            .unwrap();
        if let Some(e) = st.fatal.take() {
            return Err(e);
        }
        let job = st.job.as_ref().expect("installed above");
        let records = job.records.clone().complete()?;
        drop(st);
        emit_dispatch(&DispatchEvent {
            kind: "complete",
            worker: "",
            shard: 0,
            shards: shards as u64,
            attempt: 0,
            done: records.len() as u64,
            total: records.len() as u64,
        });
        obs::trace::emit_for("complete", 0, u64::MAX, 0);
        Ok(records)
    }

    /// Re-render the `/status` document, if a telemetry server serves one.
    fn publish_status(&self) {
        if self.cfg.telemetry.is_some() {
            *self.status_doc.lock().unwrap() = render_status(self);
        }
    }

    /// End the current plan — complete, or aborted by `fatal` — and wake
    /// its `run`.
    fn finish(&self, st: &mut State, fatal: Option<DispatchError>) {
        if let Some(e) = fatal {
            st.fatal.get_or_insert(e);
        }
        if let Some(job) = &mut st.job {
            job.done = true;
        }
        self.wake.notify_all();
    }
}

/// Render the coordinator's `/status` document: one JSON object with the
/// fleet view of the current plan (`campaign status`/`campaign top` poll
/// this; `{}` until the first plan is installed). Scans every shard's
/// slots, so it runs at [`STATUS_TICK`] rate, not per request. Also
/// refreshes the coordinator-side `dispatch_*` gauges so `/metrics`
/// moves in lockstep with `/status`.
fn render_status(coord: &Coordinator) -> String {
    let st = coord.state.lock().unwrap();
    let Some(job) = &st.job else {
        return String::from("{}");
    };
    let now = Instant::now();
    let held_total = job.records.held();
    let planned = job.header.trials;
    let elapsed = job.started.elapsed();
    let rate = if elapsed.as_secs_f64() > 0.0 {
        held_total as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    let remaining = planned.saturating_sub(held_total);
    // No observed rate yet means no projection: `eta_ms` is omitted from
    // the document (status renderers print `eta --`) and the gauge is
    // left untouched rather than lying with a 0.
    let eta_ms: Option<u64> = if job.done {
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
        coord.workers.lock().unwrap().len() as u64,
    );

    let mut out = String::with_capacity(1024);
    out.push_str("{\"record\":\"dispatch_status\",\"role\":\"coordinator\"");
    out.push_str(",\"app\":");
    push_json_str(&mut out, &job.spec.app);
    out.push_str(",\"layer\":");
    push_json_str(&mut out, job.spec.layer.label());
    // The trial counts below are the current wave's; the stats are the
    // whole campaign's.
    if let Some(w) = &job.spec.wave {
        out.push_str(&format!(",\"wave\":{}", w.wave));
    }
    out.push_str(",\"campaign_fp\":");
    push_json_str(&mut out, &format!("{:016x}", job.header.fingerprint));
    out.push_str(&format!(
        ",\"shards\":{},\"trials\":{planned},\"records_held\":{held_total}",
        coord.cfg.shards
    ));
    out.push_str(&format!(",\"records_per_s\":{rate:.3}"));
    if let Some(ms) = eta_ms {
        out.push_str(&format!(",\"eta_ms\":{ms}"));
    }
    out.push_str(&format!(",\"elapsed_ms\":{}", elapsed.as_millis()));
    out.push_str(&format!(",\"done\":{}", st.over));
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
    for (i, s) in job.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let total = job.shard_idxs[i].len();
        let held = total - job.records.missing(&job.shard_idxs[i]).len();
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
                let hb_age = coord.cfg.lease.saturating_sub(expires_in).as_millis();
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
    for (i, (name, addr)) in coord.workers.lock().unwrap().iter().enumerate() {
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
fn scrape_workers(coord: &Coordinator) -> String {
    let targets: Vec<(String, String)> = coord
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

/// Put a lost lease back in play, after the backoff its attempt count earns.
fn reclaim(cfg: &DispatchCfg, job: &mut Job, stats: &mut DispatchStats, shard: usize) -> u64 {
    let ShardState::Leased { attempts, .. } = job.shards[shard] else {
        unreachable!("only a leased shard is reclaimed");
    };
    job.shards[shard] = ShardState::Pending {
        not_before: Instant::now() + backoff_for(cfg, attempts),
        attempts,
    };
    stats.leases_expired += 1;
    counter_add("dispatch_lease_expiries_total", &[], 1);
    attempts
}

/// Reclaim leases whose holder has gone silent past the lease duration.
fn expire_leases(coord: &Coordinator) {
    let mut st = coord.state.lock().unwrap();
    let State { job, stats, .. } = &mut *st;
    let Some(job) = job.as_mut().filter(|j| !j.done) else {
        return;
    };
    let now = Instant::now();
    for i in 0..job.shards.len() {
        if !matches!(job.shards[i], ShardState::Leased { expires, .. } if expires <= now) {
            continue;
        }
        let attempts = reclaim(coord.cfg, job, stats, i);
        let total = job.shard_idxs[i].len();
        emit_dispatch(&DispatchEvent {
            kind: "lease_expired",
            worker: "",
            shard: i as u64,
            shards: coord.cfg.shards as u64,
            attempt: attempts,
            done: (total - job.records.missing(&job.shard_idxs[i]).len()) as u64,
            total: total as u64,
        });
    }
}

/// Release any lease still held by a departed connection (immediate
/// reclaim instead of waiting out the lease timer).
fn release_conn(coord: &Coordinator, conn: u64) {
    let mut st = coord.state.lock().unwrap();
    let State { job, stats, .. } = &mut *st;
    let Some(job) = job else { return };
    for i in 0..job.shards.len() {
        if matches!(job.shards[i], ShardState::Leased { conn: c, .. } if c == conn) {
            reclaim(coord.cfg, job, stats, i);
        }
    }
}

/// Decide the next frame for the idle worker on `conn`, which is `ready`
/// for plan `seq` (0 = none yet): `shutdown`, a `job` it has not seen,
/// a `lease`, or `wait`. The ordinal returned is the current plan's — what
/// a `ready` to that `job` makes the worker ready for.
fn next_frame(coord: &Coordinator, conn: u64, worker: &str, seq: u64) -> (Frame, u64) {
    // Between plans the worker is held for news — the next plan, or the
    // end of the campaign — so either reaches it at once; only a whole
    // wait period without any makes the handler send `wait`, the
    // keep-alive that restarts the worker's patience.
    let between_plans = |s: &mut State| !s.over && s.job.as_ref().is_none_or(|j| j.done);
    let wait = Duration::from_millis(coord.cfg.wait_ms);
    let st = coord.state.lock().unwrap();
    let (mut st, _) = (coord.wake)
        .wait_timeout_while(st, wait, between_plans)
        .unwrap();
    if st.over {
        return (Frame::Shutdown, seq);
    }
    let busy = Frame::Wait {
        ms: coord.cfg.wait_ms,
    };
    let State { job, stats, .. } = &mut *st;
    let Some(job) = job.as_mut().filter(|j| !j.done) else {
        return (busy, seq);
    };
    if job.seq != seq {
        let plan = Frame::Job {
            spec: job.spec.clone(),
            shards: coord.cfg.shards,
            fingerprint: job.header.fingerprint,
        };
        return (plan, job.seq);
    }
    let now = Instant::now();
    let pick = job
        .shards
        .iter()
        .position(|s| matches!(s, ShardState::Pending { not_before, .. } if *not_before <= now));
    let Some(shard) = pick else {
        return (busy, seq);
    };
    let attempts = match job.shards[shard] {
        ShardState::Pending { attempts, .. } => attempts + 1,
        _ => unreachable!("picked a non-pending shard"),
    };
    job.shards[shard] = ShardState::Leased {
        conn,
        worker: worker.to_string(),
        expires: now + coord.cfg.lease,
        attempts,
    };
    stats.leases_granted += 1;
    if attempts > 1 {
        stats.leases_reassigned += 1;
    }
    let done: Vec<usize> = job.shard_idxs[shard]
        .iter()
        .copied()
        .filter(|&t| job.records.get(t).is_some())
        .collect();
    counter_add("dispatch_leases_total", &[], 1);
    emit_dispatch(&DispatchEvent {
        kind: "lease",
        worker,
        shard: shard as u64,
        shards: coord.cfg.shards as u64,
        attempt: attempts,
        done: done.len() as u64,
        total: job.shard_idxs[shard].len() as u64,
    });
    obs::trace::emit_for("lease", shard as u64, u64::MAX, 0);
    (Frame::Lease { shard, done }, seq)
}

/// Offer one record to plan `seq`'s set. Returns `true` when the plan
/// must abort (two records for one plan index disagree on the outcome).
fn insert_record(coord: &Coordinator, seq: u64, rec: TrialRecord) -> bool {
    let mut st = coord.state.lock().unwrap();
    let State { job, stats, .. } = &mut *st;
    let Some(job) = job.as_mut().filter(|j| j.seq == seq) else {
        return false;
    };
    let conflict = match job.records.insert(rec) {
        Ok(true) => return false,
        // A record for a trial the plan doesn't have can only be stream
        // corruption; drop it like a torn line and let resend repair.
        Err(EngineError::ForeignTrial { .. }) => {
            note_torn(stats);
            return false;
        }
        Ok(false) => None,
        Err(e) => Some(e),
    };
    stats.duplicate_records += 1;
    counter_add("dispatch_duplicate_records_total", &[], 1);
    let Some(e) = conflict else {
        return false;
    };
    coord.finish(&mut st, Some(e.into()));
    true
}

fn renew_lease(coord: &Coordinator, conn: u64, seq: u64, shard: usize) {
    let mut st = coord.state.lock().unwrap();
    let job = st.job.as_mut().filter(|j| j.seq == seq);
    if let Some(ShardState::Leased {
        conn: c, expires, ..
    }) = job.and_then(|j| j.shards.get_mut(shard))
    {
        if *c == conn {
            *expires = Instant::now() + coord.cfg.lease;
        }
    }
}

/// Handle a worker's `shard_done` claim on plan `seq`, returning the reply
/// (`None`: the plan was aborted). Verifies every slot the shard owns is
/// filled (else: `resend`), journals the shard durably (fsync) when an
/// out_dir is configured, and only then marks it Done — so the `ack` the
/// caller sends never precedes stable storage.
fn complete_shard(coord: &Coordinator, seq: u64, shard: usize, worker: &str) -> Option<Frame> {
    let mut st = coord.state.lock().unwrap();
    let State { job, stats, .. } = &mut *st;
    let Some(job) = job.as_mut().filter(|j| j.seq == seq) else {
        return Some(Frame::Ack { shard }); // the plan completed without this worker and is gone
    };
    if matches!(job.shards[shard], ShardState::Done) {
        return Some(Frame::Ack { shard }); // another worker won the race; ack is idempotent
    }
    let idxs = &job.shard_idxs[shard];
    let missing = job.records.missing(idxs);
    if !missing.is_empty() {
        stats.resend_requests += 1;
        counter_add("dispatch_resend_requests_total", &[], 1);
        return Some(Frame::Resend { shard, missing });
    }
    if let Some(dir) = &job.journal {
        let persist = || -> std::io::Result<()> {
            let header = CheckpointHeader {
                shard_index: shard,
                ..job.header.clone()
            };
            let path = dir.join(format!("shard-{shard}.jsonl"));
            let mut w = CheckpointWriter::create(&path, &header, usize::MAX)?;
            for &t in idxs {
                w.record(job.records.get(t).expect("verified above"))?;
            }
            w.finish() // flush + fsync — must precede the ack
        };
        if let Err(e) = persist() {
            coord.finish(&mut st, Some(DispatchError::Io(e)));
            return None;
        }
    }
    let total = idxs.len() as u64;
    job.shards[shard] = ShardState::Done;
    stats.shards_completed += 1;
    let done_shards = job
        .shards
        .iter()
        .filter(|s| matches!(s, ShardState::Done))
        .count();
    counter_add("dispatch_shards_completed_total", &[], 1);
    gauge_set("dispatch_shards_done", &[], done_shards as u64);
    emit_dispatch(&DispatchEvent {
        kind: "shard_complete",
        worker,
        shard: shard as u64,
        shards: coord.cfg.shards as u64,
        attempt: 0,
        done: total,
        total,
    });
    obs::trace::emit_for("shard_complete", shard as u64, u64::MAX, 0);
    if done_shards == coord.cfg.shards {
        coord.finish(&mut st, None);
    }
    Some(Frame::Ack { shard })
}

fn note_torn(stats: &mut DispatchStats) {
    stats.torn_frames += 1;
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

fn handle(conn: u64, stream: TcpStream, coord: &Coordinator) {
    // Per-connection failures (bad handshake, worker I/O errors) drop the
    // connection; release_conn puts any lease it held back in play.
    let _ = handle_inner(conn, stream, coord);
    release_conn(coord, conn);
}

/// The worker's next handshake frame (`hello`, `ready`). `None`: it hung
/// up or sent garbage, or the campaign ended first and it was told so.
fn handshake_frame(
    coord: &Coordinator,
    stream: &mut TcpStream,
    lines: &mut LineReader,
) -> std::io::Result<Option<Frame>> {
    loop {
        match lines.next()? {
            Line::Full(l) => return Ok(parse_frame(&l)),
            Line::Eof { .. } => return Ok(None),
            Line::Timeout => {
                if coord.state.lock().unwrap().over {
                    farewell(stream, lines);
                    return Ok(None);
                }
            }
        }
    }
}

fn handle_inner(conn: u64, mut stream: TcpStream, coord: &Coordinator) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(HANDLER_TICK))?;
    let mut lines = LineReader::new(stream.try_clone()?);

    // Once per connection: hello.
    let worker = match handshake_frame(coord, &mut stream, &mut lines)? {
        Some(Frame::Hello {
            worker,
            proto: PROTO_VERSION,
            telemetry,
        }) => {
            let mut ws = coord.workers.lock().unwrap();
            match ws.iter_mut().find(|(n, _)| *n == worker) {
                Some(entry) => entry.1 = telemetry,
                None => ws.push((worker.clone(), telemetry)),
            }
            worker
        }
        _ => return Ok(()),
    };
    coord.state.lock().unwrap().stats.workers_joined += 1;
    counter_add("dispatch_workers_joined_total", &[], 1);
    emit_dispatch(&DispatchEvent {
        kind: "worker_join",
        worker: &worker,
        shard: 0,
        shards: coord.cfg.shards as u64,
        attempt: 0,
        done: 0,
        total: 0,
    });

    // The plan this worker is `ready` for (0 = none yet).
    let mut seq = 0u64;
    'serve: loop {
        match next_frame(coord, conn, &worker, seq) {
            (Frame::Shutdown, _) => {
                farewell(&mut stream, &mut lines);
                return Ok(());
            }
            // Once per plan: job → ready (with a matching fingerprint).
            (job @ Frame::Job { fingerprint, .. }, next) => {
                write_frame(&mut stream, &job)?;
                match handshake_frame(coord, &mut stream, &mut lines)? {
                    Some(Frame::Ready { fingerprint: f }) if f == fingerprint => seq = next,
                    // Mismatched plan or confused worker: it cannot safely
                    // execute trials for us, so drop the connection.
                    _ => return Ok(()),
                }
                continue 'serve;
            }
            (wait_or_lease, _) => write_frame(&mut stream, &wait_or_lease)?,
        }
        // Pump frames until this worker goes idle again (poll after a
        // wait, or ack after a completed shard).
        loop {
            match lines.next()? {
                Line::Timeout => {
                    let st = coord.state.lock().unwrap();
                    let mine = |s: &ShardState| matches!(s, ShardState::Leased { conn: c, .. } if *c == conn);
                    if st.over && !st.job.as_ref().is_some_and(|j| j.shards.iter().any(mine)) {
                        drop(st);
                        farewell(&mut stream, &mut lines);
                        return Ok(());
                    }
                }
                Line::Eof { torn } => {
                    if torn {
                        note_torn(&mut coord.state.lock().unwrap().stats);
                    }
                    return Ok(());
                }
                Line::Full(l) => match parse_frame(&l) {
                    None => note_torn(&mut coord.state.lock().unwrap().stats),
                    Some(Frame::Trial(rec)) => {
                        if insert_record(coord, seq, rec) {
                            return Ok(()); // conflicting duplicate: plan aborted
                        }
                    }
                    Some(Frame::Trace(ev)) => obs::trace::emit_event(ev),
                    Some(Frame::Heartbeat { shard, .. }) => renew_lease(coord, conn, seq, shard),
                    Some(Frame::Poll) => continue 'serve,
                    Some(Frame::ShardDone { shard }) => {
                        if shard >= coord.cfg.shards {
                            return Ok(());
                        }
                        let Some(reply) = complete_shard(coord, seq, shard, &worker) else {
                            return Ok(());
                        };
                        write_frame(&mut stream, &reply)?;
                        if matches!(reply, Frame::Ack { .. }) {
                            continue 'serve;
                        }
                    }
                    // Frames that only flow coordinator → worker.
                    Some(_) => return Ok(()),
                },
            }
        }
    }
}
