//! Campaign-configuration regressions driven through the real `campaign`
//! binary.
//!
//! The load-bearing one: a **persistent stuck-at fault under a cycle
//! limit**. Stuck-at trials cannot take the masked-convergence early exit,
//! so a run whose semantics diverge (hang, panic) shows up here. That the
//! classification does not depend on the trial path is proven in-process
//! by `crates/core/tests/path_differential.rs`.

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

/// A stuck-at campaign whose every trial blows a tiny cycle budget must
/// terminate promptly and classify the trials as Timeout — not hang
/// waiting for a convergence that can never happen, and not leak the
/// overrun into SDC/DUE.
#[test]
fn stuck_at_with_cycle_limit_classifies_timeout() {
    let stdout = run_ok(&[
        "run",
        "--app",
        "VA",
        "--n",
        "2",
        "--seed",
        "7",
        "--fault-model",
        "stuck-at-1",
        "--cycle-limit",
        "50",
    ]);
    // Table rows are whitespace-aligned "Kernel SDC Timeout DUE AVF"
    // percentages. With a 50-cycle budget every trial that runs to
    // completion overruns it, so the entire SDC mass moves into the
    // Timeout column; only aborted runs (DUE) keep their class.
    let app_row: Vec<&str> = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("app"))
        .expect("app summary row")
        .split_whitespace()
        .collect();
    let (sdc, timeout) = (app_row[1], app_row[2]);
    assert_eq!(
        sdc, "0.00",
        "no completed trial may keep SDC, got {app_row:?}"
    );
    let timeout: f64 = timeout.parse().expect("Timeout column is a number");
    assert!(
        timeout > 0.0,
        "overrunning stuck-at trials must classify Timeout, got {app_row:?}"
    );
}
