//! `campaign run --adaptive` end to end on its per-wave journals
//! (`BASE.waveW`): a run killed mid-wave resumes to exactly what an
//! uninterrupted run prints, also when the kill fell between creating a
//! wave's journal and flushing its header — a zero-length file holds
//! nothing, so that wave starts over instead of failing the resume.

use std::path::Path;
use std::process::Command;

const CAMPAIGN: [&str; 15] = [
    "--app",
    "VA",
    "--layer",
    "uarch",
    "--adaptive",
    "--ci-target",
    "0.15",
    "--wave-size",
    "6",
    "--max-trials",
    "24",
    "--seed",
    "53083",
    "--checkpoint-every",
    "1",
];

fn run(extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg("run")
        .args(CAMPAIGN)
        .args(extra)
        .output()
        .expect("spawn campaign binary");
    assert!(
        out.status.success(),
        "campaign run {extra:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn a_wave_journal_killed_before_its_header_resumes_like_a_missing_one() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_adaptive_zero_length");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("ck.jsonl");
    let base = base.to_str().unwrap();

    let uninterrupted = run(&[]);
    assert!(uninterrupted.contains("result fingerprint: 0x"));

    // Wave 0 is 30 trials: the budget runs out three trials into wave 1.
    let killed = run(&["--checkpoint", base, "--limit", "33"]);
    assert!(killed.contains("adaptive wave 1: 3/"), "{killed}");
    let wave1 = dir.join("ck.jsonl.wave1");
    assert!(std::fs::metadata(&wave1).unwrap().len() > 0);

    // As if the kill had come a moment earlier: the file exists, its
    // header never reached the disk.
    std::fs::File::create(&wave1).unwrap();
    let resumed = run(&["--checkpoint", base, "--resume", base]);
    assert_eq!(resumed, uninterrupted);

    // The journals are complete now: resuming again loads every wave.
    assert_eq!(run(&["--resume", base, "--limit", "0"]), uninterrupted);
    let _ = std::fs::remove_dir_all(&dir);
}
