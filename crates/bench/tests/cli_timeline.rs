//! `campaign work --trace` forwards the worker's spans to the
//! coordinator's event log with no other telemetry switched on, and
//! `campaign timeline` renders them: one `kernels.trials` row per trial
//! the worker ran, plus its golden run, its plan and its snapshot capture.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `campaign` with every observability environment switch cleared, so
/// only the flags given turn anything on.
fn campaign(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(args);
    for var in ["RELIA_METRICS", "RELIA_EVENTS", "RELIA_PROGRESS"] {
        cmd.env_remove(var);
    }
    cmd
}

#[test]
fn a_traced_worker_alone_fills_the_timeline() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_timeline");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (events, port_file) = (dir.join("events.jsonl"), dir.join("port.txt"));
    let (events, port_file) = (events.to_str().unwrap(), port_file.to_str().unwrap());

    // On the timed backend every trial is simulated, so each one has a
    // `kernels.trials` span; replay would synthesize most of VA's as dead.
    let spec = "serve --app VA --layer uarch --n 4 --seed 1234 --shards 2 --backend timed \
                --listen 127.0.0.1:0";
    let mut args: Vec<&str> = spec.split(' ').collect();
    args.extend(["--port-file", port_file, "--events", events]);
    let mut serve = campaign(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let port = loop {
        match std::fs::read_to_string(port_file) {
            Ok(p) if !p.trim().is_empty() => break p.trim().to_string(),
            _ => {
                assert!(Instant::now() < deadline, "serve never wrote its port");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let addr = format!("127.0.0.1:{port}");
    let work = campaign(&["work", "--connect", &addr, "--name", "w1", "--trace"])
        .output()
        .expect("run work");
    assert!(
        work.status.success(),
        "{}",
        String::from_utf8_lossy(&work.stderr)
    );
    assert!(serve.wait().unwrap().success());

    let timeline = campaign(&["timeline", events]).output().unwrap();
    assert!(
        timeline.status.success(),
        "{}",
        String::from_utf8_lossy(&timeline.stderr)
    );
    let text = String::from_utf8(timeline.stdout).unwrap();
    // Rows are `t (ms)  Kind  Worker  Shard  Trial  Wall (µs)`.
    let rows = |kind: &str| {
        (text.lines())
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .filter(|cells| cells.len() == 6 && cells[1] == kind && cells[2] == "w1")
            .count()
    };
    // VA has one kernel: 5 structures × 4 trials.
    assert_eq!(rows("kernels.trials"), 20, "{text}");
    for kind in ["kernels.golden", "core.plan", "kernels.snapshot_capture"] {
        assert_eq!(rows(kind), 1, "{kind}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
