//! `campaign paper` end to end on two cheap applications (VA and SCP,
//! n = 2: ten campaigns, 64 trials): a killed run resumes to exactly
//! what an uninterrupted run writes, a finished run re-simulates nothing,
//! a journal of another plan is refused rather than merged, only the
//! figures whose applications were run are written, and the backend does
//! not show in the manifest.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

const FLAGS: [&str; 6] = ["--apps", "VA,SCP", "--n-uarch", "2", "--n-sw", "2"];

fn paper(dir: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg("paper")
        .args(FLAGS)
        .arg("--out-dir")
        .arg(dir)
        .args(extra)
        .output()
        .expect("spawn campaign binary")
}

fn expect_exit(out: &Output, want: i32) -> String {
    assert_eq!(
        out.status.code(),
        Some(want),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// An empty directory of this test's own under cargo's `target/tmp`.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_paper_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The output directory of one uninterrupted run, shared by the tests.
fn uninterrupted() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = fresh_dir("reference");
        expect_exit(&paper(&dir, &[]), 0);
        dir
    })
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

#[test]
fn killed_run_resumes_byte_identically_and_a_finished_run_simulates_nothing() {
    let dir = fresh_dir("resumed");
    let stdout = expect_exit(&paper(&dir, &["--limit", "7"]), 0);
    assert!(stdout.contains("partial — resume to finish"), "{stdout}");
    assert!(
        !dir.join("MANIFEST.csv").exists(),
        "a partial run writes no results"
    );
    // A second kill, in a later campaign, then the same command line
    // without the limit finishes.
    expect_exit(&paper(&dir, &["--limit", "20"]), 0);
    assert!(!dir.join("MANIFEST.csv").exists());
    expect_exit(&paper(&dir, &[]), 0);
    for file in ["fig03c.csv", "MANIFEST.csv"] {
        assert_eq!(read(&dir, file), read(uninterrupted(), file), "{file}");
    }
    let manifest = String::from_utf8(read(&dir, "MANIFEST.csv")).unwrap();
    assert_eq!(manifest.matches("\ncampaign,").count(), 10);
    assert!(
        manifest.contains("\ncampaign,VA.uarch.tmr,,10,0x"),
        "{manifest}"
    );
    assert!(manifest.contains("\ncsv,fig03c.csv,0x"), "{manifest}");

    // Every journal is complete now: a further invocation loads them.
    let events = dir.join("events.jsonl");
    let stdout = expect_exit(&paper(&dir, &["--events", events.to_str().unwrap()]), 0);
    let log = std::fs::read_to_string(&events).unwrap();
    assert!(
        !log.contains("\"outcome\""),
        "an injection was simulated:\n{log}"
    );
    assert!(!log.contains("shard_start"), "a shard was started:\n{log}");
    let total = (stdout.lines().find(|l| l.starts_with("total ")))
        .unwrap_or_else(|| panic!("no total row:\n{stdout}"));
    let cells: Vec<&str> = total.split_whitespace().collect();
    assert_eq!(cells[1..3], ["64", "0"], "trials, executed: {total}");
    assert_eq!(
        read(&dir, "MANIFEST.csv"),
        read(uninterrupted(), "MANIFEST.csv")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journal_of_another_seed_is_a_plan_mismatch_not_a_merge() {
    let dir = fresh_dir("mismatch");
    expect_exit(&paper(&dir, &["--seed", "1", "--limit", "3"]), 0);
    let out = paper(&dir, &["--seed", "2"]);
    expect_exit(&out, 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("plan mismatch"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn only_figures_whose_applications_were_all_run_are_written() {
    let dir = uninterrupted();
    let mut written: Vec<String> = (std::fs::read_dir(dir).unwrap())
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    // Figure 3c is VA K1 vs SCP K1; 3a/3b need HotSpot and LUD, every
    // other figure but Figure 12's static reuse sets the whole suite.
    assert_eq!(
        written,
        [
            "MANIFEST.csv",
            "fig03c.csv",
            "fig12_reuse_sets.csv",
            "journal",
            "wall.csv"
        ]
    );
    // Per application: AVF and SVF, unprotected and TMR, and the
    // source-register campaign.
    let mut journals: Vec<String> = (std::fs::read_dir(dir.join("journal")).unwrap())
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    journals.sort();
    assert_eq!(journals.len(), 10, "{journals:?}");
    assert!(journals.contains(&"VA.sw.base.src.jsonl".to_string()));
}

/// The default run is on replay; its timed twin writes the same bytes.
#[test]
fn the_timed_backend_writes_the_same_manifest() {
    let dir = fresh_dir("timed");
    expect_exit(&paper(&dir, &["--backend", "timed"]), 0);
    for file in ["fig03c.csv", "MANIFEST.csv"] {
        assert_eq!(read(&dir, file), read(uninterrupted(), file), "{file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
