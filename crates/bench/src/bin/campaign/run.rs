//! `campaign run`: execute one shard of a campaign in this process —
//! fixed-n, or CI-sized in waves with `--adaptive`.

use std::path::{Path, PathBuf};

use bench::cli::{die, parse_or_exit, Cmd, Parsed};
use bench::driver::{execute_journaled, fail};
use kernels::Benchmark;
use relia::plan::{Layer, TrialTarget};
use relia::{pct, records_fingerprint, shard_trials, CampaignSpec, EngineCfg, Table};
use stat::{run_adaptive, sw_targets, uarch_targets, AdaptiveCfg, AdaptiveResult};

use crate::merge::{print_result, write_csv};

pub fn run(args: &[String]) {
    let a = parse_or_exit(Cmd::Run, args);
    let (spec, bench) = a.campaign();
    let adaptive = adaptive(&a);
    let mut eng = EngineCfg {
        shards: a.num("--shards").unwrap_or(1),
        shard_index: a.num("--shard-index").unwrap_or(0),
        checkpoint: a.path("--checkpoint"),
        trial_limit: a.num("--limit"),
        backend: spec.backend,
    };
    let (shards, shard_index) = (eng.shards, eng.shard_index);
    if shard_index >= shards {
        die(&format!(
            "--shard-index {shard_index} out of range for --shards {shards} (valid: 0..={})",
            shards - 1
        ));
    }
    // Without a journal, what `--limit` leaves undone could not be resumed.
    if eng.trial_limit.is_some() && eng.checkpoint.is_none() {
        die("--limit requires --checkpoint");
    }
    let csv = a.path("--csv");
    if let Some(acfg) = adaptive {
        if shards != 1 {
            die("--adaptive runs single-process per wave; it takes no --shards");
        }
        let res = run_waves(bench.as_ref(), &spec, &acfg, eng);
        print_adaptive(bench.as_ref(), &res, &acfg, csv.as_deref());
        return;
    }
    let prep = spec.prepare(bench.as_ref());
    let my = shard_trials(prep.plan.len(), shards, shard_index).len();
    eprintln!(
        "[campaign] {} {} plan: {} trials, fingerprint {:#018x}, shard {}/{} ({} trials)",
        prep.plan.app,
        prep.plan.layer.label(),
        prep.plan.len(),
        prep.plan.fingerprint(),
        shard_index,
        shards,
        my,
    );
    let what = format!("shard {shard_index}/{shards}");
    let records = execute_journaled(&what, &prep, &mut eng).records;
    if records.len() == prep.plan.len() {
        print_result(&prep, &records, csv.as_deref());
    } else {
        println!(
            "{what}: {}/{my} trials classified, fingerprint {:#018x} \
             (merge with the other shards for results)",
            records.len(),
            records_fingerprint(&records),
        );
    }
}

/// `--adaptive` sizing, or `None` for a fixed-n campaign. An
/// adaptive-only flag without `--adaptive` is a usage error, not a
/// silent no-op.
fn adaptive(a: &Parsed) -> Option<AdaptiveCfg> {
    if a.has("--adaptive") {
        return Some(a.adaptive_cfg(0.05, 16, 256));
    }
    for flag in ["--ci-target", "--wave-size", "--max-trials"] {
        if a.has(flag) {
            die(&format!("{flag} requires --adaptive"));
        }
    }
    None
}

/// The stratification an adaptive campaign sizes: kernel × structure for
/// the uarch layer (respecting `--structures`), kernel × software fault
/// kind for the sw layer.
fn adaptive_targets(spec: &CampaignSpec) -> Vec<TrialTarget> {
    match (spec.layer, &spec.structures) {
        (Layer::Uarch, None) => uarch_targets(),
        (Layer::Uarch, Some(v)) => v.iter().map(|&h| TrialTarget::Structure(h)).collect(),
        (Layer::Sw, _) => sw_targets(),
    }
}

/// Per-wave checkpoint path: `BASE.waveW` keeps every wave's journal
/// alongside the base the user named, so a killed adaptive run resumes
/// from whichever wave it died in.
fn wave_path(base: &Path, wave: u64) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".wave{wave}"));
    PathBuf::from(os)
}

/// `campaign run --adaptive`: CI-driven sizing, one in-process engine run
/// per wave. With `--checkpoint BASE` each wave journals to
/// `BASE.waveW` under the one journal rule: a complete wave's journal is
/// loaded, a partial one finished, a missing one started. `--limit L`
/// bounds the *new* trials this invocation executes (the kill-mid-wave
/// test hook): when the budget runs out mid-wave the run exits 0 with a
/// resumable checkpoint, exactly like a fixed-n sharded run.
fn run_waves(
    bench: &dyn Benchmark,
    spec: &CampaignSpec,
    acfg: &AdaptiveCfg,
    mut eng: EngineCfg,
) -> AdaptiveResult {
    let targets = adaptive_targets(spec);
    eprintln!(
        "[campaign] {} {} adaptive: {} kernels x {} targets, CI target ±{}, wave size {}, \
         cap {}/stratum",
        bench.name(),
        spec.layer.label(),
        bench.kernels().len(),
        targets.len(),
        acfg.ci_target,
        acfg.wave_size,
        acfg.max_per_stratum,
    );
    let cfg = spec.campaign_cfg();
    // What is left of `--limit` is charged wave by wave.
    let base = eng.checkpoint.take();
    run_adaptive(
        bench,
        &cfg,
        spec.hardened,
        spec.layer,
        &targets,
        acfg,
        |prep, wave| {
            eng.checkpoint = base.as_ref().map(|b| wave_path(b, wave));
            Ok(execute_journaled(&format!("adaptive wave {wave}"), prep, &mut eng).records)
        },
    )
    .unwrap_or_else(|e| fail(&e.to_string()))
}

/// Print the per-stratum table and summary of a finished adaptive
/// campaign. The two fingerprints are the byte-comparison artifact for
/// the adaptive differential checks (single-shot vs resumed).
fn print_adaptive(
    bench: &dyn Benchmark,
    res: &AdaptiveResult,
    acfg: &AdaptiveCfg,
    csv: Option<&Path>,
) {
    let names = bench.kernels();
    let mut t = Table::new(
        format!(
            "{} — adaptive {} strata (target CI ±{})",
            res.app,
            res.layer.label(),
            acfg.ci_target
        ),
        &[
            "Kernel", "Target", "Trials", "Fail", "Rate", "CI ±", "Derate", "Wave",
        ],
    );
    for s in &res.strata {
        t.row(vec![
            names[s.kernel_idx].to_string(),
            s.target.label().to_string(),
            s.n.to_string(),
            s.stats.failures().to_string(),
            pct(s.stats.failure_rate()),
            format!("{:.4}", s.derated_halfwidth(acfg.conf)),
            format!("{:.3}", s.derate),
            match s.converged_wave {
                Some(w) => w.to_string(),
                None => "cap".into(),
            },
        ]);
    }
    println!("{t}");
    write_csv(&t, csv);
    println!(
        "adaptive: {} waves, {} trials (uniform design {} → savings {:.2}x), max CI ±{:.4}",
        res.waves,
        res.total_trials(),
        res.uniform_equivalent(),
        res.savings(),
        res.max_halfwidth(acfg.conf),
    );
    println!("plans fingerprint: {:#018x}", res.plans_fp);
    println!("result fingerprint: {:#018x}", res.records_fp);
}
