//! The worker daemon: rebuild the plan, execute leased shards, stream
//! records back.
//!
//! A worker connects, introduces itself, receives the job spec, and
//! rebuilds the *entire* campaign plan locally — golden run included —
//! then proves it by echoing the plan fingerprint. From there it loops:
//! take a lease, execute the shard's still-missing trials with the same
//! parallel engine a local run uses ([`relia::execute_trials_with`]), stream
//! each classified record over the wire the moment it exists, and claim
//! `shard_done`. A heartbeat thread renews the lease while trials run, at
//! an interval derived from the duration the `lease` frame carries, so a
//! lease only expires when the worker is actually gone.
//!
//! Every record the worker produced stays in a [`RecordSet`] for as
//! long as its plan is served: if the coordinator lost lines to a torn
//! frame it answers `shard_done` with `resend`, and the worker replays
//! the missing records from the set instead of re-executing them.
//!
//! One connection serves a whole campaign. Whenever the worker holds no
//! lease the coordinator may send another `job` — the next wave of an
//! adaptive campaign: the worker re-plans against the application's
//! captures it already holds (no second golden run), proves the new
//! fingerprint the same way, and starts a fresh record cache. `shutdown`
//! ends the campaign.
//!
//! For fault-tolerance tests, [`WorkerCfg::fail_after`] makes the worker
//! die abruptly (socket torn down mid-stream, no goodbye) after N trial
//! records — a process SIGKILL without needing a process.

use std::io::ErrorKind;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use obs::counter_add;
use relia::plan::{shard_trials, PreparedCampaign};
use relia::{execute_trials_with, AppCaptures, FastForward, RecordSet};

use crate::proto::{
    heartbeat, parse_frame, write_frame, Frame, Line, LineReader, PROTO_VERSION, READ_PATIENCE,
};
use crate::DispatchError;

/// Socket-level read tick; overall patience is [`READ_PATIENCE`].
const READ_TICK: Duration = Duration::from_millis(50);

/// Worker settings. Its timings are not among them: they derive from the
/// lease the coordinator grants.
#[derive(Debug, Clone)]
pub struct WorkerCfg {
    /// Name reported in the hello frame (shows up in dispatch events).
    pub name: String,
    /// Test hook: tear the connection down (no goodbye) after this many
    /// trial records have been streamed, emulating a SIGKILLed worker.
    pub fail_after: Option<usize>,
}

impl Default for WorkerCfg {
    fn default() -> Self {
        WorkerCfg {
            name: "worker".into(),
            fail_after: None,
        }
    }
}

/// What a worker's campaign amounted to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkSummary {
    pub worker: String,
    /// Shards this worker drove to an `ack`.
    pub shards_completed: usize,
    /// Trial records streamed to the coordinator.
    pub trials_executed: usize,
    /// True when `fail_after` fired and the session died mid-stream.
    pub died_early: bool,
}

/// Read the next well-formed frame, dropping torn lines, within
/// [`READ_PATIENCE`].
fn next_frame(lines: &mut LineReader) -> Result<Frame, DispatchError> {
    let start = Instant::now();
    loop {
        match lines.next()? {
            Line::Full(l) => {
                if let Some(f) = parse_frame(&l) {
                    return Ok(f);
                }
                counter_add("dispatch_worker_torn_frames_total", &[], 1);
            }
            Line::Timeout => {
                if start.elapsed() >= READ_PATIENCE {
                    return Err(DispatchError::Protocol(format!(
                        "coordinator silent for {READ_PATIENCE:?}"
                    )));
                }
            }
            Line::Eof { .. } => {
                return Err(DispatchError::Protocol(
                    "connection closed by coordinator".into(),
                ))
            }
        }
    }
}

fn send(write: &Mutex<TcpStream>, frame: &Frame) -> std::io::Result<()> {
    write_frame(&mut write.lock().unwrap(), frame)
}

/// The plan of the latest `job` frame, as this worker expanded it.
struct Job<'b> {
    prep: PreparedCampaign<'b>,
    shards: usize,
    path: FastForward,
    /// Every record this worker produced for the plan (`resend` replays
    /// from here).
    cache: Mutex<RecordSet>,
}

/// Connect to a coordinator at `addr` and work — through every plan of
/// its campaign — until it says shutdown.
///
/// Errors are local to this worker (the coordinator just reassigns its
/// leases): a spec it cannot realize, a plan fingerprint mismatch, a
/// frame out of turn, a dead connection. An injected `fail_after` death
/// is reported as `Ok` with [`WorkSummary::died_early`] set — the test
/// harness treats it as the expected outcome, not a failure.
pub fn work(addr: &str, cfg: &WorkerCfg) -> Result<WorkSummary, DispatchError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK))?;
    let mut lines = LineReader::new(stream.try_clone()?);
    let write = Mutex::new(stream);

    send(
        &write,
        &Frame::Hello {
            worker: cfg.name.clone(),
            proto: PROTO_VERSION,
        },
    )?;

    let benches = kernels::all_benchmarks();
    // The application's captures outlive a plan: for as long as the job
    // frames name the same (app, GPU, layer, hardened) — the waves of an
    // adaptive campaign — the golden execution and the capture pass run
    // once, not once per plan.
    let mut captures: Option<Arc<AppCaptures>> = None;
    let mut job: Option<Job> = None;
    let executed = AtomicUsize::new(0);
    let died = AtomicBool::new(false);
    let mut summary = WorkSummary {
        worker: cfg.name.clone(),
        shards_completed: 0,
        trials_executed: 0,
        died_early: false,
    };
    let held = |job: &Option<Job>| job.as_ref().map_or(0, |j| j.cache.lock().unwrap().held());

    loop {
        match next_frame(&mut lines)? {
            Frame::Shutdown => break,
            Frame::Wait { ms } => {
                std::thread::sleep(Duration::from_millis(ms.min(2_000)));
                send(&write, &Frame::Poll)?;
            }
            Frame::Job {
                spec,
                shards,
                fingerprint: theirs,
            } => {
                // The finished plan goes first — with it the last hold on the
                // captures of an application this job may not name again.
                summary.trials_executed += held(&job.take());
                let bench =
                    benches[spec.bench_index(&benches).map_err(DispatchError::Spec)?].as_ref();
                let gpu = spec.campaign_cfg().gpu;
                let captures = match &captures {
                    Some(c) if c.is_for(bench, &gpu, spec.layer, spec.hardened) => c,
                    _ => captures.insert(AppCaptures::new(bench, &gpu, spec.layer, spec.hardened)),
                };
                let prep = spec.plan(captures);
                let fingerprint = prep.plan.fingerprint();
                if fingerprint != theirs {
                    return Err(DispatchError::FingerprintMismatch {
                        ours: fingerprint,
                        theirs,
                    });
                }
                job = Some(Job {
                    cache: Mutex::new(RecordSet::new(prep.plan.len())),
                    prep,
                    shards,
                    // The dispatched backend is a throughput choice, not a
                    // plan property: it rides outside the fingerprint, so
                    // mixed-backend fleets merge.
                    path: spec.backend,
                });
                send(&write, &Frame::Ready { fingerprint })?;
            }
            Frame::Lease { shard, done, ms } => {
                let Some(job) = &job else {
                    return Err(DispatchError::Protocol("lease before any job".into()));
                };
                // `done` is a filtered shard slice, so ascending; were it
                // not, a miss here only re-executes a trial the
                // coordinator holds, and the duplicate folds.
                let todo: Vec<usize> = shard_trials(job.prep.plan.len(), job.shards, shard)
                    .into_iter()
                    .filter(|i| done.binary_search(i).is_err())
                    .collect();
                let hb = heartbeat(Duration::from_millis(ms));
                run_lease(job, &todo, &write, cfg, shard, hb, &executed, &died)?;
                if died.load(Ordering::Acquire) {
                    // Emulate SIGKILL: tear the socket down with records
                    // possibly still in flight, no shard_done, no goodbye.
                    let _ = write.lock().unwrap().shutdown(std::net::Shutdown::Both);
                    summary.died_early = true;
                    break;
                }
                send(&write, &Frame::ShardDone { shard })?;
                // Await the ack, replaying any records lost to torn frames.
                loop {
                    match next_frame(&mut lines)? {
                        Frame::Ack { shard: s } if s == shard => {
                            summary.shards_completed += 1;
                            counter_add("dispatch_worker_shards_total", &[], 1);
                            break;
                        }
                        Frame::Resend { shard: s, missing } if s == shard => {
                            let cached = job.cache.lock().unwrap();
                            for idx in &missing {
                                let Some(rec) = cached.get(*idx) else {
                                    return Err(DispatchError::Protocol(format!(
                                        "coordinator wants trial {idx}, which this worker \
                                         never executed"
                                    )));
                                };
                                send(&write, &Frame::Trial(*rec))?;
                            }
                            drop(cached);
                            send(&write, &Frame::ShardDone { shard })?;
                        }
                        f => {
                            return Err(DispatchError::Protocol(format!(
                                "expected ack/resend for shard {shard}, got {f:?}"
                            )))
                        }
                    }
                }
            }
            f => {
                return Err(DispatchError::Protocol(format!(
                    "unexpected frame while idle: {f:?}"
                )))
            }
        }
    }

    summary.trials_executed += held(&job);
    Ok(summary)
}

/// Execute the lease's trials in parallel, streaming each record as it
/// is classified, with a heartbeat thread keeping the lease alive every
/// `hb`.
#[allow(clippy::too_many_arguments)]
fn run_lease(
    job: &Job,
    todo: &[usize],
    write: &Mutex<TcpStream>,
    cfg: &WorkerCfg,
    shard: usize,
    hb: Duration,
    executed: &AtomicUsize,
    died: &AtomicBool,
) -> Result<(), DispatchError> {
    let stop = AtomicBool::new(false);
    let streamed = AtomicU64::new(0);
    let result = std::thread::scope(|s| {
        s.spawn(|| {
            let mut last = Instant::now();
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(hb.min(Duration::from_millis(10)));
                if last.elapsed() >= hb {
                    last = Instant::now();
                    let beat = Frame::Heartbeat {
                        shard,
                        done: streamed.load(Ordering::Acquire),
                    };
                    if send(write, &beat).is_err() {
                        break;
                    }
                }
            }
        });
        let r = execute_trials_with(&job.prep, job.path, todo, |rec| {
            let k = executed.fetch_add(1, Ordering::AcqRel);
            if let Some(limit) = cfg.fail_after {
                if k >= limit {
                    died.store(true, Ordering::Release);
                    return Err(std::io::Error::new(
                        ErrorKind::BrokenPipe,
                        "injected worker failure (fail_after)",
                    ));
                }
            }
            (job.cache.lock().unwrap().insert(*rec)).map_err(std::io::Error::other)?;
            send(write, &Frame::Trial(*rec))?;
            streamed.fetch_add(1, Ordering::AcqRel);
            counter_add("dispatch_worker_trials_total", &[], 1);
            Ok(())
        });
        stop.store(true, Ordering::Release);
        r
    });
    match result {
        Ok(_) => Ok(()),
        // The injected death aborts execute_trials_with with an I/O error;
        // the caller reads `died` and reports it as a summary, not an Err.
        Err(_) if died.load(Ordering::Acquire) => Ok(()),
        Err(e) => Err(e.into()),
    }
}
