//! The result tables `campaign run` and `campaign merge` print, pinned.
//!
//! Each line of `fixtures/run_tables/commands.txt` is a fixture stem and a
//! `campaign` command line; `<stem>.txt` is its stdout and `<stem>.csv`
//! what its `--csv` wrote. `va_n8_merge` is the first command run as two
//! shards and merged. The fixtures were written once by the binary of the
//! commit before AVF and SVF became projections of the stratum record, so
//! they hold every projection to the numbers the old per-layer result
//! types printed: a multi-kernel application at both layers (the cycle and
//! the instruction weighting), a structure subset (a structure the plan
//! leaves out counts as zero) and a SIMT stratum (not part of chip AVF).
//! `scripts/check.sh` runs the same commands with the release binary.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/run_tables")
}

/// Run `campaign args… --csv dir/stem.csv` and compare its stdout and CSV
/// with the fixtures of `stem`.
fn check(dir: &Path, stem: &str, args: &[&str]) {
    let csv = dir.join(format!("{stem}.csv"));
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .arg("--csv")
        .arg(&csv)
        .output()
        .expect("spawn campaign binary");
    assert!(
        out.status.success(),
        "{stem}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let want = |ext: &str| std::fs::read(fixtures().join(format!("{stem}.{ext}"))).unwrap();
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(want("txt")).unwrap(),
        "{stem}: stdout"
    );
    assert_eq!(std::fs::read(&csv).unwrap(), want("csv"), "{stem}: CSV");
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_tables_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn run_prints_the_pinned_tables() {
    let dir = fresh_dir("run");
    let commands = std::fs::read_to_string(fixtures().join("commands.txt")).unwrap();
    let mut n = 0;
    for line in commands.lines() {
        let mut words = line.split_whitespace();
        let stem = words.next().expect("a fixture stem");
        check(&dir, stem, &words.collect::<Vec<_>>());
        n += 1;
    }
    assert_eq!(n, 5, "commands.txt lost a line");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_of_two_shards_prints_the_pinned_table() {
    let dir = fresh_dir("merge");
    let shards: Vec<String> = (0..2)
        .map(|i| {
            let path = dir.join(format!("s{i}.jsonl"));
            let index = i.to_string();
            let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
                .args(["run", "--app", "VA", "--n", "8", "--shards", "2"])
                .args(["--shard-index", &index, "--checkpoint"])
                .arg(&path)
                .output()
                .expect("spawn campaign binary");
            assert!(out.status.success());
            path.to_str().unwrap().to_string()
        })
        .collect();
    let mut args = vec!["merge", "--app", "VA", "--n", "8"];
    args.extend(shards.iter().map(String::as_str));
    check(&dir, "va_n8_merge", &args);
    let _ = std::fs::remove_dir_all(&dir);
}
