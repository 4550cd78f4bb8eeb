//! Campaign-configuration regressions driven through the real `campaign`
//! binary.
//!
//! The load-bearing one: a **persistent stuck-at fault**. Stuck-at trials
//! cannot take the masked-convergence early exit, so a run whose
//! semantics diverge (hang, panic) shows up here. That the classification
//! does not depend on the trial path is proven in-process, record by
//! record, by `crates/core/tests/path_differential.rs`.

use std::process::Command;

fn campaign(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("spawn campaign binary")
}

fn run_ok(args: &[&str]) -> String {
    let out = campaign(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "campaign {args:?} failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `result fingerprint:` line of a finished `campaign run`.
fn result_fingerprint(stdout: &str) -> &str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("result fingerprint: "))
        .unwrap_or_else(|| panic!("no result fingerprint in\n{stdout}"))
}

/// A stuck-at campaign must terminate — not hang waiting for a
/// convergence that can never happen — and record the same trials on
/// both backends.
#[test]
fn stuck_at_campaign_terminates_with_one_result_on_every_backend() {
    let run = |backend| {
        run_ok(&[
            "run",
            "--app",
            "VA",
            "--n",
            "2",
            "--seed",
            "7",
            "--fault-model",
            "stuck-at-1",
            "--backend",
            backend,
        ])
    };
    let (timed, replay) = (run("timed"), run("replay"));
    assert_eq!(result_fingerprint(&timed), result_fingerprint(&replay));
}

/// A `run` without `--backend` runs on replay: the same records as
/// `--backend replay`, and its exit profile shows the golden access trace
/// captured. VA's 10 faults at n = 2 are all provably dead, so the default
/// run captures no snapshot set where the timed one must.
#[test]
fn a_run_without_backend_runs_on_replay() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_campaign_cfg_default");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |name: &str, backend: &[&str]| {
        let events = dir.join(format!("{name}.jsonl"));
        let base = ["run", "--app", "VA", "--n", "2", "--seed", "7", "--events"];
        let out = campaign(&[&base[..], &[events.to_str().unwrap()], backend].concat());
        assert_eq!(out.status.code(), Some(0), "{name}");
        let snapshots = std::fs::read_to_string(&events)
            .unwrap()
            .matches("\"record\":\"snapshot\"")
            .count();
        let stdout = String::from_utf8(out.stdout).unwrap();
        let profile = String::from_utf8(out.stderr).unwrap();
        (result_fingerprint(&stdout).to_string(), profile, snapshots)
    };
    let (default, profile, default_snaps) = run("default", &[]);
    let (replay, _, _) = run("replay", &["--backend", "replay"]);
    let (timed, _, timed_snaps) = run("timed", &["--backend", "timed"]);
    assert_eq!(default, replay);
    assert_eq!(default, timed);
    assert!(
        profile
            .lines()
            .any(|l| l.starts_with("span_us{span=trace.capture}")),
        "{profile}"
    );
    assert_eq!((default_snaps, timed_snaps), (0, 1));
    let _ = std::fs::remove_dir_all(&dir);
}
