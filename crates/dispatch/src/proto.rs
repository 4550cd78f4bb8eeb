//! Wire protocol: JSONL frames in the `obs::events` dialect.
//!
//! Every frame is one flat JSON object on one line. Control frames carry
//! a `"frame"` discriminator; trial results reuse the checkpoint record
//! shape (`"record":"trial"`, [`relia::checkpoint::TrialRecord`])
//! verbatim, so the bytes a worker streams over TCP are the bytes a
//! checkpoint file would hold and the coordinator can journal them with
//! [`relia::checkpoint::CheckpointWriter`] unchanged.
//!
//! ```text
//! W→C  {"frame":"hello","worker":"w1","proto":5}
//! C→W  {"frame":"job","app":"VA","layer":"uarch","n":60,"seed":7,...}
//! W→C  {"frame":"ready","fingerprint":123456789}
//! C→W  {"frame":"lease","shard":2,"done":"8,14","ms":10000}
//! W→C  {"record":"trial","idx":20,"outcome":"masked","ctrl":false,...}
//! W→C  {"frame":"heartbeat","shard":2,"done":17}
//! W→C  {"frame":"shard_done","shard":2}
//! C→W  {"frame":"ack","shard":2}          (or {"frame":"resend",...})
//! C→W  {"frame":"job",...}              (the next plan of the campaign)
//! C→W  {"frame":"shutdown"}
//! ```
//!
//! One connection serves a whole campaign: a worker that holds no lease
//! may be sent another `job` (the next wave of an adaptive campaign) and
//! answers each with `ready`; `shutdown` ends the campaign, not a plan.
//!
//! The lease is the fleet's one timing setting: the `lease` frame carries
//! its duration, and every other interval of both ends derives from it
//! (`heartbeat`, `wait`, `backoff`).
//!
//! [`parse_frame`] returns `None` on any malformed line. Because every
//! frame ends in `}` and contains no `}` before its end, *no proper
//! prefix of a frame parses* — a torn line (connection died mid-write)
//! is always detected, never misread as a shorter valid frame (guarded
//! by a property test mirroring the torn-checkpoint-line tests).

use std::sync::Arc;
use std::time::Duration;

use obs::events::{record_json, Fields, JsonValue};
use relia::checkpoint::TrialRecord;
use relia::plan::{
    plan_sw, plan_uarch, plan_wave, CampaignPlan, Layer, PreparedCampaign, StratumSpec,
    TrialTarget, SVF_KINDS,
};
use relia::{AppCaptures, CampaignCfg, EngineBackend};
use vgpu_sim::{FaultPattern, GpuConfig, HwStructure, SwFaultKind};

/// Bumped whenever a frame changes incompatibly; [`Frame::Hello`] carries
/// it and the coordinator rejects mismatched workers during the handshake.
/// Version 2 made every field of the hello and job frames mandatory;
/// version 3 changed no frame's bytes but lets `job` repeat on one
/// connection, which a version-2 worker would read as a protocol error;
/// version 4 adds the lease's duration (`ms`) to the `lease` frame, which
/// the worker derives its heartbeat from; version 5 drops the worker's
/// telemetry address from the `hello` frame.
pub const PROTO_VERSION: u64 = 5;

/// How long a worker waits on a silent coordinator before it gives up. A
/// constant: an idle worker hears from the coordinator at least every
/// [`wait`], which is at most 2 s.
pub(crate) const READ_PATIENCE: Duration = Duration::from_secs(30);

fn at_least_1ms(d: Duration) -> Duration {
    d.max(Duration::from_millis(1))
}

/// Delay before a shard whose lease was lost on its `attempts`-th grant is
/// granted again: `lease/40 · 2^(attempts−1)`, capped at `lease/2`.
pub(crate) fn backoff(lease: Duration, attempts: u64) -> Duration {
    let shift = attempts.saturating_sub(1).min(16) as u32;
    at_least_1ms((lease / 40).saturating_mul(1 << shift).min(lease / 2))
}

/// How long a worker with nothing to do is told to wait before it polls:
/// `min(lease/50, 2 s)`.
pub(crate) fn wait(lease: Duration) -> Duration {
    at_least_1ms((lease / 50).min(Duration::from_secs(2)))
}

/// How often a worker renews the lease it holds: `lease/20`. Only a
/// heartbeat renews a lease; records do not.
pub(crate) fn heartbeat(lease: Duration) -> Duration {
    at_least_1ms(lease / 20)
}

/// Largest simulated GPU a campaign may ask for. Bounds what a job frame
/// can make a worker allocate, and keeps the L2 size (128 KiB per SM)
/// well inside `u32`.
pub const MAX_SMS: u32 = 1024;

/// Largest per-stratum sample size a campaign may ask for (333× the
/// paper's 3,000). Bounds the trial list a `--n` or a job frame's `n` can
/// make a process allocate.
pub const MAX_N: usize = 1_000_000;

/// The simulated GPU for an SM count from outside the program (`--sms`,
/// the job frame's `sms`): the only place that count is range-checked.
pub fn scaled_gpu(sms: u32) -> Result<GpuConfig, String> {
    if !(1..=MAX_SMS).contains(&sms) {
        return Err(format!("--sms must be 1..={MAX_SMS}, got {sms}"));
    }
    Ok(GpuConfig::volta_scaled(sms))
}

/// Parse a `--structures RF,SMEM,L2` list into [`HwStructure`]s
/// (case-insensitive labels, order preserved, duplicates dropped). The
/// canonical implementation for both the CLI and the job frame; the error
/// message names the offending label so callers can `exit(2)` with it.
pub fn parse_structures(spec: &str) -> Result<Vec<HwStructure>, String> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let label = part.trim().to_ascii_uppercase();
        if label.is_empty() {
            continue;
        }
        let h = HwStructure::from_label(&label).ok_or_else(|| {
            format!("unknown structure {label:?} (known: RF, SMEM, L1D, L1T, L2, SIMT, SCHED)")
        })?;
        if !out.contains(&h) {
            out.push(h);
        }
    }
    if out.is_empty() {
        return Err(
            "--structures requires at least one of RF, SMEM, L1D, L1T, L2, SIMT, SCHED".into(),
        );
    }
    Ok(out)
}

/// Inverse of [`parse_structures`] for the job frame: `None` (all five
/// structures) serializes as the empty string.
pub fn structures_spec(structures: &Option<Vec<HwStructure>>) -> String {
    match structures {
        None => String::new(),
        Some(v) => v.iter().map(|h| h.label()).collect::<Vec<_>>().join(","),
    }
}

/// One adaptive wave of a CI-driven campaign: the still-unconverged
/// strata and their trial-ordinal windows. When a job frame carries a
/// wave the worker rebuilds the plan with
/// [`relia::plan::plan_wave`] instead of the fixed-n
/// planners; the wave index folds into the plan fingerprint, so the
/// handshake still proves both sides expanded the identical trial set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveSpec {
    pub wave: u64,
    pub strata: Vec<StratumSpec>,
}

/// Serialize wave strata for the job frame:
/// `kernel:TARGET:start:count;...` (target labels never contain `:` or
/// `;`). The inverse is [`parse_strata`].
pub fn strata_spec(strata: &[StratumSpec]) -> String {
    strata
        .iter()
        .map(|s| {
            format!(
                "{}:{}:{}:{}",
                s.kernel_idx,
                s.target.label(),
                s.start,
                s.count
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Parse a [`strata_spec`] string. Target labels resolve per `layer`
/// (structure labels for uarch, fault-kind labels for sw); `None` on any
/// malformed stratum or an empty list — a wave with no strata is
/// corruption, not a default.
pub fn parse_strata(spec: &str, layer: Layer) -> Option<Vec<StratumSpec>> {
    let mut out = Vec::new();
    for part in spec.split(';') {
        let mut it = part.split(':');
        let kernel_idx = it.next()?.parse().ok()?;
        let target = match layer {
            Layer::Uarch => TrialTarget::Structure(HwStructure::from_label(it.next()?)?),
            Layer::Sw => TrialTarget::Fault(SwFaultKind::from_label(it.next()?)?),
        };
        let start = it.next()?.parse().ok()?;
        let count = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        out.push(StratumSpec {
            kernel_idx,
            target,
            start,
            count,
        });
    }
    if out.is_empty() {
        return None;
    }
    Some(out)
}

/// Everything a worker needs to rebuild the coordinator's campaign plan
/// locally. Every setting that decides a trial's record is here or in the
/// plan fingerprint; the one other knob, the library's wall-clock
/// [`relia::Watchdog`], reclassifies by machine speed and is never set on
/// a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    pub app: String,
    pub layer: Layer,
    /// Injections per (kernel, target) sub-campaign.
    pub n: usize,
    pub seed: u64,
    /// SM count of the simulated GPU ([`GpuConfig::volta_scaled`]).
    pub sms: u32,
    pub hardened: bool,
    /// Structure subset for uarch campaigns (`None` = all five).
    pub structures: Option<Vec<HwStructure>>,
    /// Fault pattern every trial applies (docs/FAULT_MODELS.md). Part of
    /// the plan fingerprint for non-default patterns, so a worker running
    /// a different model fails the handshake instead of merging garbage.
    pub fault_model: FaultPattern,
    /// Simulation backend the workers run ([`relia::EngineBackend`]).
    /// A pure throughput choice — classification is byte-identical either
    /// way — so it is *not* part of the plan fingerprint; heterogeneous
    /// backends across a fleet still merge.
    pub backend: EngineBackend,
    /// `Some` for one wave of an adaptive campaign (`None` = the classic
    /// fixed-n plan, which carries neither wave field on the wire).
    pub wave: Option<WaveSpec>,
}

impl CampaignSpec {
    /// The one range check of a campaign description, run wherever a spec
    /// enters the program (the CLI flag table, [`parse_frame`]): a spec
    /// that passes can be prepared and executed without tripping an
    /// engine assertion. Messages name the CLI flags.
    pub fn validate(&self) -> Result<(), String> {
        scaled_gpu(self.sms)?;
        let wave_counts = self.wave.iter().flat_map(|w| &w.strata).map(|s| s.count);
        if let Some(n) = wave_counts.chain([self.n]).find(|&n| n > MAX_N) {
            return Err(format!("--n must be 0..={MAX_N}, got {n}"));
        }
        let Some(structures) = &self.structures else {
            return Ok(());
        };
        if self.layer == Layer::Sw {
            return Err("--structures only applies to --layer uarch".into());
        }
        // SIMT-stack and scheduler state is ephemeral: a transient flip
        // there is just one corrupted access, which the storage
        // structures already model. Only the persistent stuck-at patterns
        // target them.
        let control = |h: &HwStructure| matches!(h, HwStructure::Simt | HwStructure::Sched);
        if structures.iter().any(control) && !self.fault_model.is_persistent() {
            return Err(format!(
                "--structures SIMT/SCHED requires a stuck-at fault model \
                 (--fault-model stuck-at-0 or stuck-at-1), got {}",
                self.fault_model.label()
            ));
        }
        Ok(())
    }

    /// The campaign configuration this spec describes (no wall-clock
    /// watchdog — the bit-reproducible setting).
    pub fn campaign_cfg(&self) -> CampaignCfg {
        let mut cfg = CampaignCfg::new(self.n, self.n, self.seed);
        cfg.gpu = GpuConfig::volta_scaled(self.sms);
        cfg.pattern = self.fault_model;
        cfg
    }

    /// Look up the benchmark by name (case-insensitive).
    pub fn find_bench(&self) -> Result<Box<dyn kernels::Benchmark>, String> {
        let mut all = kernels::all_benchmarks();
        let i = self.bench_index(&all)?;
        Ok(all.swap_remove(i))
    }

    /// Position of this spec's benchmark in `all` (by name,
    /// case-insensitive) — for callers that keep the suite alive across
    /// several specs.
    pub fn bench_index(&self, all: &[Box<dyn kernels::Benchmark>]) -> Result<usize, String> {
        all.iter()
            .position(|b| b.name().eq_ignore_ascii_case(&self.app))
            .ok_or_else(|| {
                let names: Vec<&str> = all.iter().map(|b| b.name()).collect();
                format!(
                    "unknown app {:?}; available: {}",
                    self.app,
                    names.join(", ")
                )
            })
    }

    /// This spec as the job frame of `plan`, one plan of its campaign: a
    /// wave plan's index and strata ride along, so a worker re-expands
    /// exactly it.
    pub(crate) fn for_plan(&self, plan: &CampaignPlan) -> CampaignSpec {
        let wave = plan.wave.map(|wave| WaveSpec {
            wave,
            strata: plan.strata.clone(),
        });
        CampaignSpec {
            wave,
            ..self.clone()
        }
    }

    /// Run the golden execution and expand the deterministic trial plan —
    /// the worker-side mirror of what the coordinator prepared. Identical
    /// specs on identical code produce identical plan fingerprints; the
    /// handshake verifies exactly that.
    pub fn prepare<'a>(&self, bench: &'a dyn kernels::Benchmark) -> PreparedCampaign<'a> {
        let gpu = GpuConfig::volta_scaled(self.sms);
        self.plan(&AppCaptures::new(bench, &gpu, self.layer, self.hardened))
    }

    /// [`CampaignSpec::prepare`] against captures the caller holds (they
    /// must be this spec's application, GPU, layer and variant).
    pub fn plan<'a>(&self, captures: &Arc<AppCaptures<'a>>) -> PreparedCampaign<'a> {
        let cfg = self.campaign_cfg();
        match (&self.wave, self.layer) {
            (Some(w), _) => plan_wave(captures, &cfg, &w.strata, w.wave),
            (None, Layer::Uarch) => plan_uarch(
                captures,
                &cfg,
                self.structures.as_deref().unwrap_or(&HwStructure::ALL),
            ),
            (None, Layer::Sw) => plan_sw(captures, &cfg, &SVF_KINDS),
        }
    }
}

/// One protocol frame (control frames plus streamed trial records).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker introduces itself after connecting.
    Hello { worker: String, proto: u64 },
    /// Coordinator describes the campaign; the worker rebuilds the plan.
    Job {
        spec: CampaignSpec,
        shards: usize,
        fingerprint: u64,
    },
    /// Worker confirms its locally derived plan fingerprint.
    Ready { fingerprint: u64 },
    /// Coordinator grants a shard lease of `ms` milliseconds; `done` lists
    /// the plan indices it already holds for this shard (mid-shard resume
    /// on reassignment).
    Lease {
        shard: usize,
        done: Vec<usize>,
        ms: u64,
    },
    /// No shard available right now; poll again in `ms`.
    Wait { ms: u64 },
    /// Worker asks for work after a [`Frame::Wait`].
    Poll,
    /// Worker liveness while executing (also carries progress).
    Heartbeat { shard: usize, done: u64 },
    /// Worker believes the coordinator now holds the whole shard.
    ShardDone { shard: usize },
    /// Coordinator is missing these plan indices (torn frames) —
    /// the worker must re-send them and repeat [`Frame::ShardDone`].
    Resend { shard: usize, missing: Vec<usize> },
    /// Shard accepted and durably journaled.
    Ack { shard: usize },
    /// Campaign complete; the worker disconnects.
    Shutdown,
    /// One classified trial, in the checkpoint record shape.
    Trial(TrialRecord),
    /// One trace record forwarded worker → coordinator, in the
    /// `"record":"trace"` JSONL shape (docs/OBSERVABILITY.md), so the
    /// coordinator's event log holds the fleet-wide timeline.
    Trace(obs::TraceEvent),
}

fn idx_list(v: &[usize]) -> String {
    v.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_idx_list(s: &str) -> Option<Vec<usize>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(|p| p.parse().ok()).collect()
}

impl Frame {
    /// Serialize as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let (kind, fields): (&str, Vec<(&str, JsonValue)>) = match self {
            Frame::Hello { worker, proto } => (
                "hello",
                vec![
                    ("worker", worker.as_str().into()),
                    ("proto", (*proto).into()),
                ],
            ),
            Frame::Job {
                spec,
                shards,
                fingerprint,
            } => {
                let mut f = vec![
                    ("app", spec.app.as_str().into()),
                    ("layer", spec.layer.label().into()),
                    (
                        "structures",
                        structures_spec(&spec.structures).as_str().into(),
                    ),
                    ("fault_model", spec.fault_model.label().into()),
                    ("backend", spec.backend.label().into()),
                ];
                if let Some(w) = &spec.wave {
                    f.push(("wave", w.wave.into()));
                    f.push(("strata", strata_spec(&w.strata).as_str().into()));
                }
                f.extend([
                    ("n", spec.n.into()),
                    ("seed", spec.seed.into()),
                    ("sms", u64::from(spec.sms).into()),
                    ("hardened", spec.hardened.into()),
                    ("shards", (*shards).into()),
                    ("fingerprint", (*fingerprint).into()),
                ]);
                ("job", f)
            }
            Frame::Ready { fingerprint } => ("ready", vec![("fingerprint", (*fingerprint).into())]),
            Frame::Lease { shard, done, ms } => (
                "lease",
                vec![
                    ("shard", (*shard).into()),
                    ("done", idx_list(done).as_str().into()),
                    ("ms", (*ms).into()),
                ],
            ),
            Frame::Wait { ms } => ("wait", vec![("ms", (*ms).into())]),
            Frame::Poll => ("poll", vec![]),
            Frame::Heartbeat { shard, done } => (
                "heartbeat",
                vec![("shard", (*shard).into()), ("done", (*done).into())],
            ),
            Frame::ShardDone { shard } => ("shard_done", vec![("shard", (*shard).into())]),
            Frame::Resend { shard, missing } => (
                "resend",
                vec![
                    ("shard", (*shard).into()),
                    ("missing", idx_list(missing).as_str().into()),
                ],
            ),
            Frame::Ack { shard } => ("ack", vec![("shard", (*shard).into())]),
            Frame::Shutdown => ("shutdown", vec![]),
            Frame::Trial(r) => return r.to_json(),
            Frame::Trace(ev) => return ev.to_json(),
        };
        let mut all = vec![("frame", kind.into())];
        all.extend(fields);
        record_json(&all)
    }
}

/// Parse one wire line into a [`Frame`]. `None` on malformed input
/// (torn frames), unknown frame kinds, or a checkpoint *header* line
/// (which never travels over the wire).
pub fn parse_frame(line: &str) -> Option<Frame> {
    let f = Fields::parse(line)?;
    let Some(kind) = f.str("frame") else {
        // Not a control frame: a trial or a trace record.
        return match f.str("record")? {
            "trial" => TrialRecord::from_fields(&f).map(Frame::Trial),
            "trace" => obs::TraceEvent::from_fields(&f).map(Frame::Trace),
            _ => None,
        };
    };
    match kind {
        "hello" => Some(Frame::Hello {
            worker: f.str("worker")?.to_string(),
            proto: f.u64("proto")?,
        }),
        "job" => {
            let structures = match f.str("structures")? {
                "" => None,
                s => Some(parse_structures(s).ok()?),
            };
            let layer = Layer::from_label(f.str("layer")?)?;
            // Fixed-n campaigns carry neither wave field; a wave index
            // without strata (or vice versa) is a torn frame.
            let wave = match (f.u64("wave"), f.str("strata")) {
                (None, None) => None,
                (Some(w), Some(st)) => Some(WaveSpec {
                    wave: w,
                    strata: parse_strata(st, layer)?,
                }),
                _ => return None,
            };
            let spec = CampaignSpec {
                app: f.str("app")?.to_string(),
                layer,
                n: f.usize("n")?,
                seed: f.u64("seed")?,
                sms: u32::try_from(f.u64("sms")?).ok()?,
                hardened: f.bool("hardened")?,
                structures,
                fault_model: FaultPattern::from_label(f.str("fault_model")?)?,
                backend: EngineBackend::from_label(f.str("backend")?)?,
                wave,
            };
            // A job this worker could not execute without tripping an
            // engine assertion is dropped like any other malformed frame.
            spec.validate().ok()?;
            Some(Frame::Job {
                spec,
                shards: f.usize("shards")?,
                fingerprint: f.u64("fingerprint")?,
            })
        }
        "ready" => Some(Frame::Ready {
            fingerprint: f.u64("fingerprint")?,
        }),
        "lease" => Some(Frame::Lease {
            shard: f.usize("shard")?,
            done: parse_idx_list(f.str("done")?)?,
            ms: f.u64("ms")?,
        }),
        "wait" => Some(Frame::Wait { ms: f.u64("ms")? }),
        "poll" => Some(Frame::Poll),
        "heartbeat" => Some(Frame::Heartbeat {
            shard: f.usize("shard")?,
            done: f.u64("done")?,
        }),
        "shard_done" => Some(Frame::ShardDone {
            shard: f.usize("shard")?,
        }),
        "resend" => Some(Frame::Resend {
            shard: f.usize("shard")?,
            missing: parse_idx_list(f.str("missing")?)?,
        }),
        "ack" => Some(Frame::Ack {
            shard: f.usize("shard")?,
        }),
        "shutdown" => Some(Frame::Shutdown),
        _ => None,
    }
}

/// What one poll of a [`LineReader`] yielded.
#[derive(Debug)]
pub(crate) enum Line {
    /// One complete frame line (newline stripped).
    Full(String),
    /// The read timeout elapsed; any partial line stays buffered.
    Timeout,
    /// The peer closed the connection; `torn` means it died mid-line.
    Eof { torn: bool },
}

/// Newline-framed reader over a [`TcpStream`] with a read timeout.
///
/// A timeout can fire mid-line, so partial bytes persist in `buf`
/// across calls and a frame is only surfaced once its `\n` arrives —
/// the wire-side twin of the checkpoint reader's torn-tail handling.
pub(crate) struct LineReader {
    r: std::io::BufReader<std::net::TcpStream>,
    buf: String,
}

impl LineReader {
    pub fn new(stream: std::net::TcpStream) -> LineReader {
        LineReader {
            r: std::io::BufReader::new(stream),
            buf: String::new(),
        }
    }

    pub fn next(&mut self) -> std::io::Result<Line> {
        use std::io::BufRead;
        match self.r.read_line(&mut self.buf) {
            Ok(0) => Ok(Line::Eof {
                torn: !self.buf.is_empty(),
            }),
            Ok(_) => {
                if self.buf.ends_with('\n') {
                    let mut line = std::mem::take(&mut self.buf);
                    line.pop();
                    Ok(Line::Full(line))
                } else {
                    // read_line only returns without a newline at EOF.
                    Ok(Line::Eof { torn: true })
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(Line::Timeout)
            }
            Err(e) => Err(e),
        }
    }
}

/// Write one frame as a single `write_all` (line + newline in one
/// syscall-sized buffer, so concurrent writers never interleave bytes
/// as long as they serialize on the same lock).
pub(crate) fn write_frame(w: &mut std::net::TcpStream, frame: &Frame) -> std::io::Result<()> {
    use std::io::Write;
    let mut line = frame.to_json();
    line.push('\n');
    w.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::Outcome;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            app: "VA".into(),
            layer: Layer::Uarch,
            n: 60,
            seed: 0xDEAD_BEEF_0102_0304,
            sms: 4,
            hardened: true,
            structures: Some(vec![HwStructure::RegFile, HwStructure::L2]),
            fault_model: FaultPattern::SingleBit,
            backend: EngineBackend::Timed,
            wave: None,
        }
    }

    fn wave() -> WaveSpec {
        WaveSpec {
            wave: 3,
            strata: vec![
                StratumSpec {
                    kernel_idx: 0,
                    target: TrialTarget::Structure(HwStructure::RegFile),
                    start: 16,
                    count: 8,
                },
                StratumSpec {
                    kernel_idx: 2,
                    target: TrialTarget::Structure(HwStructure::L2),
                    start: 0,
                    count: 4,
                },
            ],
        }
    }

    #[test]
    fn every_frame_round_trips() {
        let frames = vec![
            Frame::Hello {
                worker: "w\"1\\".into(),
                proto: PROTO_VERSION,
            },
            Frame::Hello {
                worker: "plain".into(),
                proto: PROTO_VERSION,
            },
            Frame::Job {
                spec: spec(),
                shards: 6,
                fingerprint: u64::MAX - 1,
            },
            Frame::Job {
                spec: CampaignSpec {
                    structures: None,
                    layer: Layer::Sw,
                    hardened: false,
                    ..spec()
                },
                shards: 1,
                fingerprint: 7,
            },
            Frame::Job {
                spec: CampaignSpec {
                    fault_model: FaultPattern::StuckAt1,
                    structures: Some(vec![HwStructure::Simt, HwStructure::Sched]),
                    ..spec()
                },
                shards: 2,
                fingerprint: 8,
            },
            Frame::Job {
                spec: CampaignSpec {
                    wave: Some(wave()),
                    ..spec()
                },
                shards: 3,
                fingerprint: 9,
            },
            Frame::Job {
                spec: CampaignSpec {
                    layer: Layer::Sw,
                    structures: None,
                    wave: Some(WaveSpec {
                        wave: 0,
                        strata: vec![StratumSpec {
                            kernel_idx: 1,
                            target: TrialTarget::Fault(
                                SwFaultKind::from_label("dest_falu").unwrap(),
                            ),
                            start: 0,
                            count: 6,
                        }],
                    }),
                    ..spec()
                },
                shards: 1,
                fingerprint: 10,
            },
            Frame::Ready {
                fingerprint: u64::MAX,
            },
            Frame::Lease {
                shard: 2,
                done: vec![2, 8, 14],
                ms: 10_000,
            },
            Frame::Lease {
                shard: 0,
                done: vec![],
                ms: 1,
            },
            Frame::Wait { ms: 250 },
            Frame::Poll,
            Frame::Heartbeat { shard: 3, done: 41 },
            Frame::ShardDone { shard: 3 },
            Frame::Resend {
                shard: 3,
                missing: vec![9],
            },
            Frame::Ack { shard: 3 },
            Frame::Shutdown,
            Frame::Trial(TrialRecord {
                idx: 17,
                outcome: Outcome::Sdc,
                ctrl: false,
                wall_us: 950,
            }),
            Frame::Trace(obs::TraceEvent {
                kind: "kernels.trials".into(),
                worker: "w1".into(),
                campaign_fp: u64::MAX - 3,
                shard: 2,
                trial: 17,
                t_us: 1_000_000,
                wall_us: 917,
            }),
        ];
        for f in frames {
            let line = f.to_json();
            assert_eq!(parse_frame(&line), Some(f.clone()), "frame {line}");
        }
    }

    #[test]
    fn malformed_and_foreign_lines_are_rejected() {
        assert!(parse_frame("").is_none());
        assert!(parse_frame("not json").is_none());
        assert!(parse_frame("{\"frame\":\"warp-drive\"}").is_none());
        assert!(
            parse_frame("{\"frame\":\"lease\",\"shard\":1,\"done\":\"1,x\",\"ms\":9}").is_none()
        );
        // A checkpoint *header* line never travels over the wire.
        let h = relia::CheckpointHeader {
            trials: 10,
            shards: 1,
            shard_index: 0,
            fingerprint: 3,
        };
        assert!(parse_frame(&h.to_json()).is_none());
    }

    /// One line per frame kind. Every one but `lease` and `hello` holds
    /// the bytes the protocol-3 writer produced for the same values;
    /// `lease` gained its duration in protocol 4, and one without it does
    /// not parse; `hello` lost the worker's telemetry address in 5.
    #[test]
    fn every_frame_kind_is_pinned_byte_for_byte() {
        let pins = [
            (
                Frame::Hello {
                    worker: "w\"1".into(),
                    proto: 5,
                },
                r#"{"frame":"hello","worker":"w\"1","proto":5}"#,
            ),
            (
                Frame::Job {
                    spec: spec(),
                    shards: 6,
                    fingerprint: u64::MAX - 1,
                },
                r#"{"frame":"job","app":"VA","layer":"uarch","structures":"RF,L2","fault_model":"single-bit","backend":"timed","n":60,"seed":16045690981114315524,"sms":4,"hardened":true,"shards":6,"fingerprint":18446744073709551614}"#,
            ),
            (
                Frame::Job {
                    spec: CampaignSpec {
                        wave: Some(WaveSpec {
                            wave: 3,
                            strata: parse_strata("0:RF:16:8;2:L2:0:4", Layer::Uarch).unwrap(),
                        }),
                        backend: EngineBackend::Replay,
                        ..spec()
                    },
                    shards: 3,
                    fingerprint: 9,
                },
                r#"{"frame":"job","app":"VA","layer":"uarch","structures":"RF,L2","fault_model":"single-bit","backend":"replay","wave":3,"strata":"0:RF:16:8;2:L2:0:4","n":60,"seed":16045690981114315524,"sms":4,"hardened":true,"shards":3,"fingerprint":9}"#,
            ),
            (
                Frame::Ready {
                    fingerprint: u64::MAX,
                },
                r#"{"frame":"ready","fingerprint":18446744073709551615}"#,
            ),
            (
                Frame::Lease {
                    shard: 2,
                    done: vec![2, 8, 14],
                    ms: 10_000,
                },
                r#"{"frame":"lease","shard":2,"done":"2,8,14","ms":10000}"#,
            ),
            (Frame::Wait { ms: 200 }, r#"{"frame":"wait","ms":200}"#),
            (Frame::Poll, r#"{"frame":"poll"}"#),
            (
                Frame::Heartbeat { shard: 3, done: 41 },
                r#"{"frame":"heartbeat","shard":3,"done":41}"#,
            ),
            (
                Frame::ShardDone { shard: 3 },
                r#"{"frame":"shard_done","shard":3}"#,
            ),
            (
                Frame::Resend {
                    shard: 3,
                    missing: vec![9, 12],
                },
                r#"{"frame":"resend","shard":3,"missing":"9,12"}"#,
            ),
            (Frame::Ack { shard: 3 }, r#"{"frame":"ack","shard":3}"#),
            (Frame::Shutdown, r#"{"frame":"shutdown"}"#),
            (
                Frame::Trial(TrialRecord {
                    idx: 17,
                    outcome: Outcome::Sdc,
                    ctrl: true,
                    wall_us: 950,
                }),
                r#"{"record":"trial","idx":17,"outcome":"sdc","ctrl":true,"wall_us":950}"#,
            ),
            (
                Frame::Trace(obs::TraceEvent {
                    kind: "kernels.trials".into(),
                    worker: "w1".into(),
                    campaign_fp: u64::MAX - 3,
                    shard: 2,
                    trial: 17,
                    t_us: 1_000_000,
                    wall_us: 917,
                }),
                r#"{"record":"trace","kind":"kernels.trials","worker":"w1","campaign_fp":18446744073709551612,"shard":2,"trial":17,"t_us":1000000,"wall_us":917}"#,
            ),
        ];
        for (frame, pinned) in pins {
            assert_eq!(frame.to_json(), pinned);
            assert_eq!(parse_frame(pinned), Some(frame));
        }
        assert_eq!(
            parse_frame(r#"{"frame":"lease","shard":2,"done":"2,8,14"}"#),
            None,
            "a protocol-3 lease has no duration"
        );
    }

    #[test]
    fn every_timing_derives_from_the_lease() {
        let lease = Duration::from_secs(10);
        let ms = Duration::from_millis;
        assert_eq!(backoff(lease, 1), ms(250));
        assert_eq!(backoff(lease, 2), ms(500));
        assert_eq!(backoff(lease, 99), ms(5_000), "capped at lease/2");
        assert_eq!(wait(lease), ms(200));
        assert_eq!(heartbeat(lease), ms(500));
        assert_eq!(READ_PATIENCE, ms(30_000));
        // A long lease waits at most 2 s; a tiny one floors at 1 ms.
        assert_eq!(wait(Duration::from_secs(3600)), ms(2_000));
        let tiny = ms(5);
        assert_eq!(
            (backoff(tiny, 1), wait(tiny), heartbeat(tiny)),
            (ms(1), ms(1), ms(1))
        );
    }

    #[test]
    fn hello_and_job_fields_are_all_mandatory() {
        let hello = Frame::Hello {
            worker: "w".into(),
            proto: PROTO_VERSION,
        }
        .to_json();
        assert!(parse_frame(&hello).is_some());
        assert!(parse_frame(&hello.replace(",\"proto\":5", "")).is_none());
        let job = Frame::Job {
            spec: spec(),
            shards: 2,
            fingerprint: 21,
        }
        .to_json();
        assert!(parse_frame(&job).is_some());
        for field in [",\"fault_model\":\"single-bit\"", ",\"backend\":\"timed\""] {
            assert!(job.contains(field), "{field} is always serialized");
            assert!(parse_frame(&job.replace(field, "")).is_none(), "{field}");
        }
        // An unknown label is corruption, not a default.
        assert!(parse_frame(&job.replace("single-bit", "warp-drive")).is_none());
        assert!(parse_frame(&job.replace("\"timed\"", "\"quantum\"")).is_none());
        // A replay-backend job survives serialize → parse.
        let replay = Frame::Job {
            spec: CampaignSpec {
                backend: EngineBackend::Replay,
                ..spec()
            },
            shards: 2,
            fingerprint: 21,
        };
        assert_eq!(parse_frame(&replay.to_json()), Some(replay.clone()));
    }

    #[test]
    fn out_of_range_specs_fail_validation_and_never_parse() {
        assert_eq!(spec().validate(), Ok(()));
        let bad = [
            CampaignSpec { sms: 0, ..spec() },
            CampaignSpec {
                sms: MAX_SMS + 1,
                ..spec()
            },
            CampaignSpec {
                n: MAX_N + 1,
                ..spec()
            },
            CampaignSpec {
                wave: Some(WaveSpec {
                    wave: 1,
                    strata: vec![StratumSpec {
                        kernel_idx: 0,
                        target: TrialTarget::Structure(HwStructure::RegFile),
                        start: 0,
                        count: MAX_N + 1,
                    }],
                }),
                ..spec()
            },
            CampaignSpec {
                layer: Layer::Sw,
                ..spec()
            },
            CampaignSpec {
                structures: Some(vec![HwStructure::RegFile, HwStructure::Simt]),
                ..spec()
            },
        ];
        for spec in bad {
            assert!(spec.validate().is_err(), "{spec:?}");
            let job = Frame::Job {
                spec,
                shards: 1,
                fingerprint: 1,
            };
            assert_eq!(parse_frame(&job.to_json()), None, "{job:?}");
        }
    }

    #[test]
    fn wave_fields_come_together_or_not_at_all() {
        let fixed = Frame::Job {
            spec: spec(),
            shards: 2,
            fingerprint: 11,
        }
        .to_json();
        assert!(!fixed.contains("wave") && !fixed.contains("strata"));
        // A wave index without strata (or strata without an index) is a
        // torn frame, never silently a fixed-n job.
        let adaptive = Frame::Job {
            spec: CampaignSpec {
                wave: Some(wave()),
                ..spec()
            },
            shards: 1,
            fingerprint: 12,
        }
        .to_json();
        assert!(parse_frame(&adaptive).is_some());
        assert!(parse_frame(&adaptive.replace(",\"wave\":3", "")).is_none());
        let strata = format!(",\"strata\":\"{}\"", strata_spec(&wave().strata));
        assert!(parse_frame(&adaptive.replace(&strata, "")).is_none());
        // Malformed strata: unknown target label, wrong field count,
        // empty list.
        assert!(parse_frame(&adaptive.replace("0:RF:16:8", "0:WARP:16:8")).is_none());
        assert!(parse_frame(&adaptive.replace("0:RF:16:8", "0:RF:16")).is_none());
        assert!(parse_frame(&adaptive.replace("0:RF:16:8;2:L2:0:4", "")).is_none());
        // A sw-layer stratum label must resolve as a fault kind, and the
        // labels round-trip through the wire encoding.
        assert_eq!(
            parse_strata("1:dest_falu:0:6", Layer::Sw).unwrap()[0]
                .target
                .label(),
            "dest_falu"
        );
        assert!(parse_strata("1:RF:0:6", Layer::Sw).is_none());
        assert_eq!(
            parse_strata(&strata_spec(&wave().strata), Layer::Uarch).unwrap(),
            wave().strata
        );
    }

    #[test]
    fn structures_spec_round_trips() {
        assert_eq!(structures_spec(&None), "");
        let some = vec![HwStructure::Smem, HwStructure::L1T];
        assert_eq!(
            parse_structures(&structures_spec(&Some(some.clone()))).unwrap(),
            some
        );
        assert!(parse_structures("RF,WARP").unwrap_err().contains("WARP"));
        // Case-insensitive, whitespace-tolerant, dedup preserving order.
        assert_eq!(
            parse_structures(" l2 , rf ,L2").unwrap(),
            vec![HwStructure::L2, HwStructure::RegFile]
        );
        assert!(parse_structures("").is_err());
        assert!(parse_structures(",,").is_err());
    }
}
