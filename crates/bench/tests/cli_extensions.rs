//! `campaign extensions` end to end on the whole suite at n = 2 (182
//! campaigns, 22 of them the unprotected ones `campaign paper` runs): the
//! four CSVs of `fixtures/ext_n2` are byte for byte what the binaries it
//! replaced wrote at the same flags (three generated at the parent of the
//! change that deleted `layers_study`, `ablation_sizing` and
//! `fault_model_study`, `fig_ace_vs_avf.csv` at the parent of the one that
//! deleted `ace_study`), the two-level study is written next to them, a
//! campaign `paper` completed under the same
//! `--out-dir` is loaded and not re-simulated, and a killed run into an
//! empty directory resumes to the same bytes and the same manifest.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CSVS: [&str; 4] = [
    "layers_study.csv",
    "ablation_sizing.csv",
    "fig_fault_model_ranking.csv",
    "fig_ace_vs_avf.csv",
];

fn campaign(sub: &str, dir: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([sub, "--n-uarch", "2", "--n-sw", "2", "--out-dir"])
        .arg(dir)
        .args(extra)
        .output()
        .expect("spawn campaign binary")
}

fn expect_ok(out: &Output) -> String {
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// An empty directory of this test's own under cargo's `target/tmp`.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_extensions_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(dir: &Path, file: &str) -> String {
    let path = dir.join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_writes_the_fixtures(dir: &Path) {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ext_n2");
    for file in CSVS {
        assert_eq!(read(dir, file), read(&fixtures, file), "{file}");
    }
}

#[test]
fn campaigns_paper_completed_are_loaded_not_simulated_again() {
    let dir = fresh_dir("after_paper");
    expect_ok(&campaign("paper", &dir, &[]));
    let paper_manifest = read(&dir, "MANIFEST.csv");
    let events = dir.join("events.jsonl");
    expect_ok(&campaign(
        "extensions",
        &dir,
        &["--events", events.to_str().unwrap()],
    ));
    assert_writes_the_fixtures(&dir);
    assert_eq!(
        read(&dir, "MANIFEST.csv"),
        paper_manifest,
        "paper's files stay"
    );

    // 22 shared campaigns, none of them executed; the other 160 (11 PVF,
    // 3 applications at 2 and 8 SMs, 6 patterns x 22, 11 instruction-class
    // campaigns) each started once.
    let wall = read(&dir, "wall.extensions.csv");
    let rows: Vec<Vec<&str>> = wall.lines().map(|l| l.split(',').collect()).collect();
    let shared: Vec<&Vec<&str>> = (rows.iter())
        .filter(|r| r[0].ends_with(".uarch.base") || r[0].ends_with(".sw.base"))
        .filter(|r| !r[0].starts_with("total."))
        .collect();
    assert_eq!(shared.len(), 22, "{wall}");
    for row in shared {
        assert_eq!(row[2], "0", "{} was executed again", row[0]);
        let in_paper = format!("\ncampaign,{},,{},", row[0], row[1]);
        assert!(paper_manifest.contains(&in_paper), "{in_paper}");
    }
    assert_eq!(
        rows.iter().filter(|r| !r[0].starts_with("total")).count(),
        1 + 182
    );
    let log = std::fs::read_to_string(&events).unwrap();
    assert_eq!(log.matches("\"kind\":\"shard_start\"").count(), 160);

    // The shared campaigns carry the fingerprints paper recorded.
    let manifest = read(&dir, "MANIFEST.extensions.csv");
    for line in paper_manifest.lines().filter(|l| l.contains(".base,")) {
        assert!(manifest.contains(line), "{line}");
    }
    for file in CSVS.iter().chain(&["fig_twolevel.csv"]) {
        assert!(manifest.contains(&format!("\ncsv,{file},0x")), "{file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_killed_run_into_an_empty_directory_resumes_to_the_same_bytes() {
    // Nothing to share: `extensions` runs the 22 standard campaigns itself.
    let dir = fresh_dir("resumed");
    let stdout = expect_ok(&campaign("extensions", &dir, &["--limit", "300"]));
    assert!(stdout.contains("partial — resume to finish"), "{stdout}");
    assert!(
        !dir.join("MANIFEST.extensions.csv").exists(),
        "a partial run writes no results"
    );
    expect_ok(&campaign("extensions", &dir, &[]));
    assert_writes_the_fixtures(&dir);
    let resumed = read(&dir, "MANIFEST.extensions.csv");
    assert_eq!(resumed.matches("\ncampaign,").count(), 182);

    // Every journal is complete now: again, and nothing is executed and
    // the manifest is the same.
    let stdout = expect_ok(&campaign("extensions", &dir, &[]));
    let total = (stdout.lines().find(|l| l.starts_with("total ")))
        .unwrap_or_else(|| panic!("no total row:\n{stdout}"));
    assert_eq!(total.split_whitespace().nth(2), Some("0"), "{total}");
    assert_eq!(read(&dir, "MANIFEST.extensions.csv"), resumed);
    assert!(!dir.join("MANIFEST.csv").exists(), "not paper's to write");
    let _ = std::fs::remove_dir_all(&dir);
}
