//! `ledger all` — the full ledger: every workload, repeated in fresh
//! child processes, aggregated into `ledger.json` — and `ledger agree`,
//! which compares two such files of the same commit against the bounds.

use std::path::{Path, PathBuf};
use std::process::Command;

use obs::JsonNode;

use crate::json::J;
use crate::metrics::{end_to_end, END_TO_END};
use crate::stats::{quartiles, spread};
use crate::workload::{Kind, Sizes, WORKLOADS};

/// Timed repetitions per workload: with seven, the quartiles are the
/// second-fastest and second-slowest repetition, so one outlier on
/// either side does not widen the reported spread.
const REPS: usize = 7;

pub struct AllArgs {
    pub seed: u64,
    pub out_dir: PathBuf,
    /// The `campaign` CLI binary, to prove the ledger measures what users
    /// run; the check fails when it is not given.
    pub campaign_bin: Option<PathBuf>,
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers were taken: they only compare on the same shape.
fn machine(threads: usize, seed: u64) -> J {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    J::obj([
        (
            "nproc",
            J::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu_model", J::str(model)),
        ("threads_used", J::Int(threads as u64)),
        ("rustc", J::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            J::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", J::Int(seed)),
    ])
}

/// Run one repetition as a fresh child process and parse its detail file.
fn child(
    workload: &str,
    args: &AllArgs,
    trace: bool,
    tag: &str,
) -> std::io::Result<(JsonNode, bool)> {
    let detail = args.out_dir.join(format!("run_{workload}_{tag}.json"));
    let status = Command::new(std::env::current_exe()?)
        .arg("bench")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .arg("--detail")
        .arg(&detail)
        .stdout(std::process::Stdio::null())
        .status()?;
    let text = std::fs::read_to_string(&detail)?;
    let _ = std::fs::remove_file(&detail);
    let doc = obs::parse_json(&text)
        .ok_or_else(|| std::io::Error::other(format!("{} is not JSON", detail.display())))?;
    Ok((doc, status.success()))
}

fn metric_value(doc: &JsonNode, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `app#seed -> fingerprint` of a run's campaigns.
fn fingerprints_of(doc: &JsonNode) -> Vec<(String, String)> {
    let campaigns = doc
        .get("campaigns")
        .and_then(|a| a.as_arr())
        .unwrap_or_default();
    campaigns
        .iter()
        .filter_map(|a| {
            Some((
                format!("{}#{}", a.get("app")?.as_str()?, a.get("seed")?.as_u64()?),
                a.get("fingerprint")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// One cross-check of the full ledger, printed as it is made.
struct CheckResult {
    name: &'static str,
    ok: bool,
    note: String,
}

impl CheckResult {
    fn new(name: &'static str, ok: bool, note: String) -> Self {
        println!("check {name}: {} ({note})", if ok { "ok" } else { "FAIL" });
        CheckResult { name, ok, note }
    }

    fn to_json(&self) -> J {
        J::obj([
            ("name", J::str(self.name)),
            ("ok", J::Bool(self.ok)),
            ("note", J::str(&self.note)),
        ])
    }
}

/// `campaign run --app VA` must print the fingerprint the ledger's VA
/// campaign produced, under both backends.
fn cli_check(args: &AllArgs, fingerprints: &[(String, Vec<(String, String)>)]) -> CheckResult {
    let Some(bin) = &args.campaign_bin else {
        return CheckResult::new("cli_fingerprint", false, "no --campaign-bin given".into());
    };
    let seed = args.seed.to_string();
    let n = Sizes::FROZEN.n_avf.to_string();
    let va = format!("VA#{seed}");
    let mut notes = Vec::new();
    let mut ok = true;
    for (workload, backend) in [("avf_timed", "timed"), ("avf_replay", "replay")] {
        let ours = fingerprints
            .iter()
            .find(|(w, _)| w == workload)
            .and_then(|(_, fps)| fps.iter().find(|(id, _)| *id == va))
            .map(|(_, fp)| fp.clone());
        let stdout = Command::new(bin)
            .args(["run", "--app", "VA", "--layer", "uarch"])
            .args(["--n", &n, "--seed", &seed, "--backend", backend])
            .output()
            .map(|o| String::from_utf8_lossy(&o.stdout).to_string())
            .unwrap_or_default();
        let theirs = stdout
            .lines()
            .find_map(|l| l.strip_prefix("result fingerprint: "))
            .map(str::to_string);
        ok &= ours.is_some() && ours == theirs;
        notes.push(format!(
            "{backend}: ledger {} cli {}",
            ours.as_deref().unwrap_or("none"),
            theirs.as_deref().unwrap_or("none")
        ));
    }
    CheckResult::new("cli_fingerprint", ok, notes.join("; "))
}

pub fn all(args: &AllArgs, threads: usize) -> std::io::Result<bool> {
    std::fs::create_dir_all(&args.out_dir)?;
    let mut workloads = Vec::new();
    let mut fingerprints: Vec<(String, Vec<(String, String)>)> = Vec::new();
    let mut failed_total = 0u64;
    let mut all_ok = true;

    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for i in 0..REPS {
            eprintln!("[ledger] {}: repetition {}/{REPS}", w.name, i + 1);
            let (doc, ok) = child(w.name, args, false, &format!("rep{i}"))?;
            all_ok &= ok;
            runs.push(doc);
        }
        eprintln!("[ledger] {}: traced repetition", w.name);
        let (traced, ok) = child(w.name, args, true, "traced")?;
        all_ok &= ok;

        println!("== {} ({} repetitions) ==", w.name, runs.len());
        let mut e2e = Vec::new();
        let mut medians = std::collections::BTreeMap::new();
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|d| metric_value(d, m.name))
                .collect();
            if values.len() != runs.len() || values.is_empty() {
                return Err(std::io::Error::other(format!(
                    "{}: a repetition did not report {}",
                    w.name, m.name
                )));
            }
            let (q1, med, q3) = quartiles(&values);
            medians.insert(m.name, med);
            println!(
                "  {:<14} median {:>12.4} {:<4} q1 {:>12.4} q3 {:>12.4} spread {:>6.2}% (n={})",
                m.name,
                med,
                m.unit,
                q1,
                q3,
                spread(&values) * 100.0,
                values.len()
            );
            e2e.push((
                m.name.to_string(),
                J::obj([
                    ("unit", J::str(m.unit)),
                    ("median", J::Num(med)),
                    ("q1", J::Num(q1)),
                    ("q3", J::Num(q3)),
                    ("n", J::Int(values.len() as u64)),
                    ("values", J::arr(values.iter().map(|&v| J::Num(v)))),
                ]),
            ));
        }
        let count = |key: &str| -> u64 {
            runs.iter()
                .chain([&traced])
                .filter_map(|d| d.get(key)?.as_u64())
                .sum()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        failed_total += failed;
        println!("  ops_attempted {attempted} ops_failed {failed}");

        // wall(n) ≈ setup_s + trials / trials_per_s, at the paper's
        // n = 3000 per target. Derived, not gated; meaningless for the
        // adaptive workload, whose n is the thing it decides.
        let regen_h = (w.kind != Kind::AvfAdaptive).then(|| {
            let targets = match w.kind {
                Kind::SvfSw => 2,
                _ => vgpu_sim::HwStructure::ALL.len(),
            };
            let trials = (kernels::total_kernels() * targets * 3000) as f64;
            (medians["setup_s"] + trials / medians["trials_per_s"]) / 3600.0
        });
        if let Some(h) = regen_h {
            println!("  paper_regen_h  {h:>12.4} h (derived, n=3000 per target)");
        }

        let per_layer = traced.get("metrics").cloned();
        if let Some(JsonNode::Obj(fields)) = &per_layer {
            for (name, node) in fields {
                println!(
                    "  {:<42} {:>16.4} {}",
                    name,
                    node.get("value")
                        .and_then(|v| v.as_f64())
                        .unwrap_or(f64::NAN),
                    node.get("unit").and_then(|u| u.as_str()).unwrap_or("")
                );
            }
        }
        if let Some(JsonNode::Obj(fields)) = traced.get("extra") {
            for (name, node) in fields {
                println!("  {:<42} {:>16.4}", name, node.as_f64().unwrap_or(f64::NAN));
            }
        }

        let fps = fingerprints_of(&runs[0]);
        workloads.push(J::obj([
            ("name", J::str(w.name)),
            ("end_to_end", J::Obj(e2e)),
            ("per_layer", per_layer.map_or(J::Null, |n| node_to_j(&n))),
            (
                "traced_extra",
                traced.get("extra").map_or(J::Null, node_to_j),
            ),
            ("ops_attempted", J::Int(attempted)),
            ("ops_failed", J::Int(failed)),
            ("paper_regen_h", regen_h.map_or(J::Null, J::Num)),
            (
                "fingerprints",
                J::Obj(fps.iter().map(|(a, f)| (a.clone(), J::str(f))).collect()),
            ),
        ]));
        fingerprints.push((w.name.to_string(), fps));
    }

    // The two AVF engines must have classified every trial identically.
    let of = |w: &str| fingerprints.iter().find(|(n, _)| n == w).map(|(_, f)| f);
    let agree =
        of("avf_replay") == of("avf_timed") && of("avf_replay").is_some_and(|f| !f.is_empty());
    let checks = [
        CheckResult::new("replay_vs_timed_fingerprints", agree, "app by app".into()),
        cli_check(args, &fingerprints),
    ];
    let checks_ok = checks.iter().all(|c| c.ok);

    let doc = J::obj([
        ("machine", machine(threads, args.seed)),
        ("seed", J::Int(args.seed)),
        ("repetitions", J::Int(REPS as u64)),
        (
            "sizes",
            J::obj([
                ("n_avf", J::Int(Sizes::FROZEN.n_avf as u64)),
                ("n_sw", J::Int(Sizes::FROZEN.n_sw as u64)),
                (
                    "adaptive_ci_target",
                    J::Num(Sizes::FROZEN.adaptive.ci_target),
                ),
                (
                    "adaptive_wave",
                    J::Int(Sizes::FROZEN.adaptive.wave_size as u64),
                ),
                (
                    "adaptive_cap",
                    J::Int(Sizes::FROZEN.adaptive.max_per_stratum as u64),
                ),
                ("adaptive_seeds", J::Int(Sizes::FROZEN.adaptive_seeds)),
            ]),
        ),
        ("workloads", J::Arr(workloads)),
        ("checks", J::arr(checks.iter().map(CheckResult::to_json))),
        ("ops_failed", J::Int(failed_total)),
    ]);
    let path = args.out_dir.join("ledger.json");
    std::fs::write(&path, doc.pretty())?;
    println!("ops_failed {failed_total}; wrote {}", path.display());
    Ok(all_ok && checks_ok && failed_total == 0)
}

fn node_to_j(n: &JsonNode) -> J {
    match n {
        JsonNode::Obj(fields) => J::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), node_to_j(v)))
                .collect(),
        ),
        JsonNode::Arr(items) => J::Arr(items.iter().map(node_to_j).collect()),
        JsonNode::Scalar(_) => {
            if let Some(s) = n.as_str() {
                J::str(s)
            } else if let Some(b) = n.as_bool() {
                J::Bool(b)
            } else {
                n.as_f64().map_or(J::Null, J::Num)
            }
        }
    }
}

/// The repetition values of `metric` for `workload` in a `ledger.json`.
fn repetition_values(doc: &JsonNode, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(workload))?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(|v| v.as_f64())
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Agree,
    /// The runs themselves scatter more than the bound: no statement.
    Unresolved,
    /// Steady runs whose medians differ by more than the bound.
    Disagree,
}

/// Compare two sets of repetitions of one metric against its bound.
pub fn judge(a: &[f64], b: &[f64], metric: &str) -> Verdict {
    let m = end_to_end(metric).expect("an end-to-end metric");
    let bound = m.bound.expect("end-to-end metrics are bounded");
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    // Same commit on both sides: neither may be worse than the other.
    if m.better.worsening(ma, mb).abs() > bound {
        Verdict::Disagree
    } else {
        Verdict::Agree
    }
}

/// `ledger agree A.json B.json`; `Ok(true)` when every row agrees.
pub fn agree(a: &Path, b: &Path) -> std::io::Result<bool> {
    let load = |p: &Path| -> std::io::Result<JsonNode> {
        obs::parse_json(&std::fs::read_to_string(p)?)
            .ok_or_else(|| std::io::Error::other(format!("{} is not JSON", p.display())))
    };
    let (da, db) = (load(a)?, load(b)?);
    let commit = |d: &JsonNode| {
        d.get("machine")
            .and_then(|m| m.get("git_commit"))
            .and_then(|c| c.as_str())
            .unwrap_or("unknown")
            .to_string()
    };
    if commit(&da) != commit(&db) {
        eprintln!(
            "[ledger] warning: comparing different commits ({} vs {})",
            commit(&da),
            commit(&db)
        );
    }
    println!(
        "{:<13} {:<13} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "bound"
    );
    let mut all = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                repetition_values(&da, w.name, m.name),
                repetition_values(&db, w.name, m.name),
            ) else {
                println!("{:<13} {:<13} missing from one side", w.name, m.name);
                all = false;
                continue;
            };
            let verdict = judge(&va, &vb, m.name);
            println!(
                "{:<13} {:<13} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                w.name,
                m.name,
                quartiles(&va).1,
                quartiles(&vb).1,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Agree => "agree",
                    Verdict::Unresolved => "unresolved: spread > bound",
                    Verdict::Disagree => "DISAGREE: medians differ by more than the bound",
                }
            );
            all &= verdict == Verdict::Agree;
        }
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_agreement_scatter_and_shift() {
        let bound = end_to_end("wall_s").unwrap().bound.unwrap();
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let scaled = |k: f64| steady.map(|v| v * k);
        let within = scaled(1.0 + bound / 2.0);
        let shifted = scaled(1.0 + bound * 2.0);
        let noisy = [10.0 - 20.0 * bound, 10.0, 10.0 + 20.0 * bound, 9.0, 11.0];
        assert_eq!(judge(&steady, &steady, "wall_s"), Verdict::Agree);
        assert_eq!(judge(&steady, &within, "wall_s"), Verdict::Agree);
        assert_eq!(judge(&steady, &shifted, "wall_s"), Verdict::Disagree);
        assert_eq!(judge(&shifted, &steady, "trials_per_s"), Verdict::Disagree);
        assert_eq!(judge(&steady, &noisy, "wall_s"), Verdict::Unresolved);
    }

    #[test]
    fn ledger_documents_round_trip_to_repetition_values() {
        let doc = J::obj([(
            "workloads",
            J::arr([J::obj([
                ("name", J::str("svf_sw")),
                (
                    "end_to_end",
                    J::obj([(
                        "wall_s",
                        J::obj([("values", J::arr([J::Num(1.25), J::Num(1.5)]))]),
                    )]),
                ),
            ])]),
        )]);
        let back = obs::parse_json(&doc.pretty()).unwrap();
        assert_eq!(
            repetition_values(&back, "svf_sw", "wall_s"),
            Some(vec![1.25, 1.5])
        );
        assert_eq!(repetition_values(&back, "svf_sw", "setup_s"), None);
        assert_eq!(node_to_j(&back), doc);
    }
}
