//! `campaign work`: run one worker daemon against a coordinator, for the
//! whole of its campaign.

use bench::cli::{die, parse_or_exit, Cmd};
use dispatch::{WorkSummary, WorkerCfg};

use crate::args::{fail, telemetry_cfg};

/// The injected `--fail-after` death is the requested behaviour.
fn report_death(s: &WorkSummary) {
    println!(
        "worker {}: injected failure after {} trials (lease abandoned)",
        s.worker, s.trials_executed
    );
}

pub fn work(args: &[String]) {
    let a = parse_or_exit(Cmd::Work, args);
    let defaults = WorkerCfg::default();
    let cfg = WorkerCfg {
        name: a
            .text("--name")
            .map_or_else(|| format!("worker-{}", std::process::id()), String::from),
        heartbeat: a.millis("--heartbeat-ms").unwrap_or(defaults.heartbeat),
        read_timeout: a
            .millis("--read-timeout-ms")
            .unwrap_or(defaults.read_timeout),
        fail_after: a.num("--fail-after"),
        telemetry: telemetry_cfg(&a),
        trace: a.has("--trace"),
    };
    let Some(addr) = a.text("--connect") else {
        die("work requires --connect HOST:PORT");
    };
    match dispatch::work(addr, &cfg) {
        Ok(s) if s.died_early => report_death(&s),
        Ok(s) => println!(
            "worker {}: {} shards completed, {} trials executed",
            s.worker, s.shards_completed, s.trials_executed
        ),
        Err(e) => fail(&e.to_string()),
    }
}
