//! `campaign run`: execute one shard of a campaign in this process —
//! fixed-n, or CI-sized in waves with `--adaptive`.

use std::path::{Path, PathBuf};

use bench::cli::{die, parse_or_exit, Cmd};
use bench::driver::execute_journaled;
use dispatch::CampaignSpec;
use kernels::Benchmark;
use relia::{
    execute_shard, pct, records_fingerprint, shard_trials, CampaignCfg, EngineCfg, Table, Watchdog,
    DEFAULT_CHECKPOINT_EVERY,
};
use stat::{run_adaptive, AdaptiveCfg, AdaptiveResult};

use crate::args::{adaptive, adaptive_targets, fail};
use crate::merge::{print_result, write_csv};

pub fn run(args: &[String]) {
    let a = parse_or_exit(Cmd::Run, args);
    let (spec, bench) = a.campaign();
    let adaptive = adaptive(&a);
    let eng = EngineCfg {
        shards: a.num("--shards").unwrap_or(1),
        shard_index: a.num("--shard-index").unwrap_or(0),
        checkpoint: a.path("--checkpoint"),
        checkpoint_every: a
            .num("--checkpoint-every")
            .unwrap_or(DEFAULT_CHECKPOINT_EVERY),
        resume: a.path("--resume"),
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
    let csv = a.path("--csv");
    if let Some(acfg) = adaptive {
        if shards != 1 {
            die(
                "--adaptive runs single-process per wave; distribute an adaptive campaign \
                 with serve --adaptive + work instead of --shards",
            );
        }
        let res = run_waves(bench.as_ref(), &spec, a.watchdog(), &acfg, &eng);
        print_adaptive(bench.as_ref(), &res, &acfg, csv.as_deref());
        return;
    }
    let mut prep = spec.prepare(bench.as_ref());
    prep.cfg.watchdog = a.watchdog();
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
    let records = execute_shard(&prep, &eng).unwrap_or_else(|e| fail(&e.to_string()));
    if records.len() == prep.plan.len() {
        print_result(&prep, &records, csv.as_deref());
    } else {
        println!(
            "shard {}/{}: {}/{} trials classified, fingerprint {:#018x}{}",
            shard_index,
            shards,
            records.len(),
            my,
            records_fingerprint(&records),
            if records.len() < my {
                " (partial — resume to finish)"
            } else {
                " (merge with the other shards for results)"
            }
        );
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
/// `BASE.waveW`; `--resume BASE` skips completed waves from their
/// journals and finishes a partial one. `--limit L` bounds the *new*
/// trials this invocation executes (the kill-mid-wave test hook): when
/// the budget runs out mid-wave the run exits 0 with a resumable
/// checkpoint, exactly like a fixed-n sharded run.
fn run_waves(
    bench: &dyn Benchmark,
    spec: &CampaignSpec,
    watchdog: Watchdog,
    acfg: &AdaptiveCfg,
    eng: &EngineCfg,
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
    let cfg = CampaignCfg {
        watchdog,
        ..spec.campaign_cfg()
    };
    // What is left of `--limit` is charged wave by wave.
    let mut eng = eng.clone();
    let (checkpoint, resume) = (eng.checkpoint.take(), eng.resume.take());
    run_adaptive(
        bench,
        &cfg,
        spec.hardened,
        spec.layer,
        &targets,
        acfg,
        |prep, wave| {
            let at = |base: &Option<PathBuf>| base.as_ref().map(|b| wave_path(b, wave));
            let what = format!("adaptive wave {wave}");
            Ok(execute_journaled(&what, prep, &mut eng, at(&checkpoint), at(&resume)).records)
        },
    )
    .unwrap_or_else(|e| fail(&e.to_string()))
}

/// Print the per-stratum table and summary of a finished adaptive
/// campaign. The two fingerprints are the byte-comparison artifact for
/// the adaptive differential checks (single-shot vs sharded vs resumed
/// vs dispatched).
pub fn print_adaptive(
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
