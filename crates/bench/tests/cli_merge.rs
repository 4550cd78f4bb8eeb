//! `campaign merge` end to end on real shard checkpoint files: naming one
//! shard file twice must print exactly the single-shot result, and a
//! missing shard must fail loudly.
//!
//! The first case is the trap `records_fingerprint` sets: it XORs
//! per-record hashes, so fingerprinting a raw concatenation lets an
//! agreeing duplicate cancel its twin — the tables still look right and
//! only the printed fingerprint is wrong. `merge` must fingerprint the
//! `RecordSet`'s plan-ordered output.

use std::process::Command;

const CAMPAIGN: [&str; 8] = [
    "--app", "VA", "--layer", "uarch", "--n", "6", "--seed", "1234",
];

fn campaign(sub: &str, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg(sub)
        .args(CAMPAIGN)
        .args(extra)
        .output()
        .expect("spawn campaign binary")
}

#[test]
fn merging_one_shard_file_twice_prints_the_single_shot_result() {
    let dir = std::env::temp_dir().join(format!("relia_cli_merge_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();

    let single = campaign("run", &["--csv", &path("single.csv")]);
    assert!(single.status.success());
    let single_out = String::from_utf8(single.stdout).unwrap();
    assert!(
        single_out.contains("result fingerprint: 0x6ed40735f3d702d1"),
        "{single_out}"
    );
    for shard in ["0", "1"] {
        let ck = path(&format!("s{shard}.jsonl"));
        let args = ["--shards", "2", "--shard-index", shard, "--checkpoint", &ck];
        assert!(campaign("run", &args).status.success());
    }

    let (s0, s1) = (path("s0.jsonl"), path("s1.jsonl"));
    let merged = campaign("merge", &[&s0, &s0, &s1, "--csv", &path("merged.csv")]);
    assert!(
        merged.status.success(),
        "{}",
        String::from_utf8_lossy(&merged.stderr)
    );
    assert_eq!(String::from_utf8(merged.stdout).unwrap(), single_out);
    assert_eq!(
        std::fs::read(path("merged.csv")).unwrap(),
        std::fs::read(path("single.csv")).unwrap()
    );

    let half = campaign("merge", &[&s0]);
    assert_eq!(half.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&half.stderr);
    assert!(
        stderr.contains("records cover only 15/30 trials"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
