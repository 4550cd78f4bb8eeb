//! Uniform exit codes across every `campaign` subcommand:
//!
//! * **2** — CLI/validation errors: unknown subcommands/flags, malformed
//!   or out-of-range values;
//! * **1** — runtime failures: unreadable checkpoints, engine errors;
//! * **0** — success.
//!
//! These are load-bearing for scripts/check.sh and any supervisor that
//! runs shards on several machines: it must be able to tell "my command
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
    assert_exit(&["run", "--app", "VA", "--shards", "0"], 2);
    // What `--limit` leaves undone must be journaled to be resumable.
    assert_exit(&["run", "--app", "VA", "--n", "4", "--limit", "2"], 2);
    assert_exit(&["run", "--app", "VA", "--adaptive", "--limit", "10"], 2);
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
    assert_exit(
        &["paper", "--out-dir", "x", "--fault-model", "warp-drive"],
        2,
    );
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
    // every subcommand that accepts the flag.
    assert_exit(&["run", "--app", "VA", "--backend", "quantum"], 2);
    assert_exit(&["run", "--app", "VA", "--backend", ""], 2);
    assert_exit(&["paper", "--out-dir", "x", "--backend", "bogus"], 2);
    assert_exit(&["run", "--app", "VA", "--backend"], 2); // missing value

    // The oracle path is the library's reference, selectable by no flag.
    assert_exit(&["run", "--app", "VA", "--backend", "oracle"], 2);
    assert_exit(&["paper", "--out-dir", "x", "--backend", "oracle"], 2);
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
    assert_exit(&["paper", "--out-dir", "x", &snapshots, "4"], 2);
}

#[test]
fn out_of_range_sms_exits_2_instead_of_panicking() {
    // `--sms 0` used to reach the cache model's geometry assertion
    // (exit 101); the spec's range check now rejects it up front, on
    // every command that takes a campaign description.
    assert_exit(&["run", "--app", "VA", "--sms", "0"], 2);
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
        &["merge", "--app", "VA", "--n", "1000001", "x.jsonl"],
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
    // starts (docs/TWOLEVEL.md).
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
    // Adaptive campaigns are single-process per wave: no --shards.
    assert_exit(&["run", "--app", "VA", "--adaptive", "--shards", "3"], 2);
}

#[test]
fn removed_watchdog_and_flush_flags_are_unknown_options() {
    // The harness's golden-derived budget is the one source of Timeout,
    // the checkpoint flush interval is a constant, and a `--checkpoint`
    // that holds trials is resumed: the per-trial watchdog's three flags,
    // the flush flag and the resume flag are gone from every command.
    // (Spelled in pieces, like the other removed flags, so that a grep
    // over the sources finds none.)
    let run = ["run", "--app", "VA"];
    let paper = ["paper", "--out-dir", "x"];
    let merge = ["merge", "--app", "VA"];
    let removed = [
        (format!("--wall-limit-{}", "us"), Some("1000")),
        (format!("--cycle-{}", "limit"), Some("50")),
        (format!("--no-{}", "retry"), None),
        (format!("--checkpoint-{}", "every"), Some("1")),
        (format!("--{}", "resume"), Some("j.jsonl")),
    ];
    for cmd in [&run[..], &paper, &merge] {
        for (flag, value) in &removed {
            let args: Vec<&str> = cmd
                .iter()
                .copied()
                .chain([flag.as_str()])
                .chain(*value)
                .collect();
            let out = campaign(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
        }
    }
    for sub in ["run", "paper"] {
        let help = campaign(&[sub, "--help"]);
        let text = String::from_utf8_lossy(&help.stdout);
        for (flag, _) in &removed {
            assert!(!text.contains(flag.as_str()), "{sub} --help lists {flag}");
        }
    }
    assert!(!std::path::Path::new("x").exists(), "nothing was written");
}

/// The TCP fleet is gone from the command line: its subcommands are
/// unknown, and so are its flags — the seven it had last and the timing,
/// telemetry and reconnect flags it shed before them — on every command
/// that takes a campaign, and no `--help` lists one. Multi-machine runs
/// are `run --shards/--shard-index` plus `merge`. (Spelled in pieces,
/// like the other removed flags, so that a grep over the sources finds
/// none.)
#[test]
fn removed_fleet_surface_is_unknown() {
    for sub in [
        "serve", "work", "timeline", "status", "top", "scrape", "lint",
    ] {
        let out = campaign(&[sub, "127.0.0.1:80"]);
        assert_eq!(out.status.code(), Some(2), "{sub}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown subcommand"), "{sub}: {stderr}");
    }
    let removed = [
        (format!("--{}", "listen"), Some("127.0.0.1:0")),
        (format!("--port-{}", "file"), Some("port.txt")),
        (format!("--lease-{}", "ms"), Some("100")),
        (format!("--{}", "connect"), Some("127.0.0.1:80")),
        (format!("--{}", "name"), Some("w1")),
        (format!("--fail-{}", "after"), Some("1")),
        (format!("--{}", "trace"), None),
        (format!("--backoff-{}", "ms"), Some("100")),
        (format!("--max-backoff-{}", "ms"), Some("100")),
        (format!("--wait-{}", "ms"), Some("100")),
        (format!("--heartbeat-{}", "ms"), Some("100")),
        (format!("--read-timeout-{}", "ms"), Some("100")),
        (format!("--{}-port", "telemetry"), Some("1")),
        (format!("--{}-port-file", "telemetry"), Some("1")),
        (format!("--interval-{}", "ms"), Some("1")),
        (format!("--{}", "iterations"), Some("1")),
        (format!("--{}", "follow"), None),
    ];
    let run = ["run", "--app", "VA"];
    let merge = ["merge", "--app", "VA"];
    let paper = ["paper", "--out-dir", "x"];
    for cmd in [&run[..], &merge, &paper] {
        for (flag, value) in &removed {
            let args: Vec<&str> = cmd
                .iter()
                .copied()
                .chain([flag.as_str()])
                .chain(*value)
                .collect();
            let out = campaign(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
        }
    }
    for help in [
        &["--help"][..],
        &["run", "--help"],
        &["merge", "--help"],
        &["paper", "--help"],
    ] {
        let text = String::from_utf8(campaign(help).stdout).unwrap();
        for (flag, _) in &removed {
            assert!(!text.contains(flag.as_str()), "{help:?} lists {flag}");
        }
        for sub in ["serve", "work", "timeline"] {
            assert!(!text.contains(sub), "{help:?} names {sub}");
        }
    }
    assert!(!std::path::Path::new("x").exists(), "nothing was written");
}

#[test]
fn runtime_failures_exit_1() {
    // Unreadable checkpoint: well-formed command, failing execution.
    assert_exit(
        &["merge", "--app", "VA", "/definitely/not/a/real/file.jsonl"],
        1,
    );
}

/// A journal whose last line is `{"idx":` and 100,000 `[`s resumes like
/// any torn tail (exit 0); the same line before the last record is an
/// unreadable checkpoint (exit 1). Neither overflows the reader's stack.
#[test]
fn a_deeply_nested_journal_line_is_a_torn_tail_or_corruption() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_exit_deep_journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let run = [
        "run", "--app", "VA", "--layer", "uarch", "--n", "6", "--seed", "1",
    ];
    let ck = journal("ck.jsonl");
    assert_exit(
        &[&run[..], &["--checkpoint", &ck, "--limit", "5"]].concat(),
        0,
    );
    let text = std::fs::read_to_string(&ck).unwrap();
    let deep = format!("{{\"idx\":{}", "[".repeat(100_000));
    let (tail, inside) = (journal("tail.jsonl"), journal("inside.jsonl"));
    std::fs::write(&tail, format!("{text}{deep}")).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(1, &deep);
    std::fs::write(&inside, lines.join("\n") + "\n").unwrap();
    assert_exit(&[&run[..], &["--checkpoint", &tail]].concat(), 0);
    assert_exit(&[&run[..], &["--checkpoint", &inside]].concat(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--checkpoint J` never truncates a journal that holds trials: over an
/// empty file the run starts, over this plan's complete journal it
/// reprints the result (with or without `--limit`) and simulates nothing,
/// over another seed's journal it exits 1 — and in both cases `J` is left
/// byte-identical.
#[test]
fn a_checkpoint_is_never_truncated() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_exit_truncate");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.jsonl");
    std::fs::File::create(&ck).unwrap();
    let ck = ck.to_str().unwrap();
    let run = |seed: &str, extra: &[&str]| {
        let args = [
            "run",
            "--app",
            "VA",
            "--layer",
            "uarch",
            "--n",
            "2",
            "--seed",
            seed,
            "--checkpoint",
            ck,
        ];
        campaign(&[&args[..], extra].concat())
    };
    let fingerprint = |out: &std::process::Output| {
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().find(|l| l.starts_with("result fingerprint"));
        line.expect("a result fingerprint").to_string()
    };
    let first = run("1", &[]);
    assert_eq!(first.status.code(), Some(0));
    let journal = std::fs::read(ck).unwrap();
    for limit in [&[][..], &["--limit", "1"]] {
        let out = run("1", limit);
        assert_eq!(out.status.code(), Some(0), "{limit:?}");
        assert_eq!(fingerprint(&out), fingerprint(&first), "{limit:?}");
        assert_eq!(std::fs::read(ck).unwrap(), journal, "left byte-identical");
    }
    let out = run("2", &[]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("plan mismatch"), "{stderr}");
    assert_eq!(std::fs::read(ck).unwrap(), journal, "left byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
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
