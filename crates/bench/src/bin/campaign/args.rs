//! What the subcommands share on top of the flag table: the
//! runtime-failure and out-of-budget exits, the journal rule of `paper`
//! and `run --adaptive`, and the projections of `--adaptive` and
//! `--telemetry-port` that both `run`/`serve` and `serve`/`work` use.

use std::path::PathBuf;
use std::process::exit;

use bench::cli::{die, Parsed};
use dispatch::{CampaignSpec, TelemetryCfg};
use relia::plan::{Layer, PreparedCampaign, TrialTarget};
use relia::{execute_resumable, EngineCfg, ShardRun};
use stat::{sw_targets, uarch_targets, AdaptiveCfg};

/// Runtime failure: the request was well-formed but executing it failed.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

/// `--limit` ran out before `what` (a campaign of `paper`, a wave of
/// `run --adaptive`) was covered: say so and stop, successfully — the
/// journal is resumable.
pub fn exit_partial(what: &str, done: usize, total: usize) -> ! {
    println!("{what}: {done}/{total} trials classified (partial — resume to finish)");
    bench::finish_observability();
    exit(0);
}

/// Run — or finish, or just load — one journaled plan of a larger run
/// (`what`: a campaign of `paper`, a wave of `run --adaptive`). A journal
/// at `resume` that holds records is resumed, a complete one loaded; one
/// that is missing, or was killed before its header reached the disk,
/// holds nothing and the plan starts fresh. `eng.trial_limit` is what is
/// left of `--limit`: it is charged with the trials executed now, and
/// when it runs out before the plan is covered the process exits 0 with
/// the "partial" line, the journal at `checkpoint` resumable.
pub fn execute_journaled(
    what: &str,
    prep: &PreparedCampaign,
    eng: &mut EngineCfg,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
) -> ShardRun {
    let holds_records = |p: &PathBuf| std::fs::metadata(p).is_ok_and(|m| m.len() > 0);
    let cfg = EngineCfg {
        checkpoint,
        resume: resume.filter(holds_records),
        ..eng.clone()
    };
    let run = execute_resumable(prep, &cfg).unwrap_or_else(|e| fail(&format!("{what}: {e}")));
    if let Some(left) = &mut eng.trial_limit {
        *left -= run.records.len() - run.resumed;
    }
    if run.records.len() < prep.plan.len() {
        exit_partial(what, run.records.len(), prep.plan.len());
    }
    run
}

/// `--adaptive` sizing, or `None` for a fixed-n campaign. An
/// adaptive-only flag without `--adaptive` is a usage error, not a
/// silent no-op.
pub fn adaptive(a: &Parsed) -> Option<AdaptiveCfg> {
    if a.has("--adaptive") {
        return Some(a.adaptive_cfg(0.05, 16, 256));
    }
    for flag in ["--ci-target", "--wave-size", "--max-trials"] {
        if a.has(flag) {
            die(&format!("{flag} requires --adaptive"));
        }
    }
    None
}

/// The stratification an adaptive campaign sizes: kernel × structure for
/// the uarch layer (respecting `--structures`), kernel × software fault
/// kind for the sw layer.
pub fn adaptive_targets(spec: &CampaignSpec) -> Vec<TrialTarget> {
    match (spec.layer, &spec.structures) {
        (Layer::Uarch, None) => uarch_targets(),
        (Layer::Uarch, Some(v)) => v.iter().map(|&h| TrialTarget::Structure(h)).collect(),
        (Layer::Sw, _) => sw_targets(),
    }
}

/// `--telemetry-port` (0 = ephemeral; pair it with
/// `--telemetry-port-file` so pollers can find the port).
pub fn telemetry_cfg(a: &Parsed) -> Option<TelemetryCfg> {
    let port_file = a.path("--telemetry-port-file");
    match a.num::<u16>("--telemetry-port") {
        Some(port) => Some(TelemetryCfg {
            listen: format!("127.0.0.1:{port}"),
            port_file,
        }),
        None if port_file.is_some() => die("--telemetry-port-file requires --telemetry-port"),
        None => None,
    }
}
