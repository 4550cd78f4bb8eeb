//! Regenerates the footnote-1 observation: cross-layer AVF measurement is
//! far more expensive than software-level SVF measurement.
//!
//! The paper reports 1,258 single-core machine-days for the AVF campaigns
//! vs 10 for the SVF campaigns (~126×). Two factors compose that gap:
//!
//! 1. **per-injection cost** — a cycle-level microarchitecture simulation
//!    vs software-visible execution (in the paper, native GPU runs; here,
//!    the functional engine);
//! 2. **campaign size** — AVF needs one campaign per hardware structure
//!    (×5), SVF a single campaign per kernel.
//!
//! This binary measures both factors on this implementation, twice: on
//! the oracle (`kernels::faulty_run`: every trial simulates its whole
//! application — the cost structure the paper describes) and on the
//! engine's default trial path (snapshot fast-forward for AVF, CTA replay
//! for SVF; docs/PERF.md), golden-reuse capture included — what a campaign
//! costs now. Both run the same plans: `--n-uarch` register-file injections
//! and `--n-sw` destination-value injections per kernel. Writes
//! `speed_study.csv` to `--out-dir` (default `results/`); `--events PATH`
//! logs every injection of both paths.

use bench::cli::{from_env, Cmd};
use bench::finish_observability;
use kernels::all_benchmarks;
use relia::plan::{plan_sw, plan_uarch, Layer, PreparedCampaign};
use relia::{execute_trials_with, AppCaptures, FastForward, Table, DEFAULT_SNAPSHOTS};
use std::time::Instant;
use vgpu_sim::{HwStructure, SwFaultKind};

/// Core-microseconds per injection of `prep` on `path`: the per-trial wall
/// times the workers measured, plus the one-off golden-reuse capture the
/// path needs, over the number of trials.
fn us_per_injection(prep: &PreparedCampaign, path: FastForward) -> f64 {
    let t0 = Instant::now();
    if path != FastForward::Oracle {
        match prep.plan.layer {
            Layer::Uarch => drop(prep.snapshots(DEFAULT_SNAPSHOTS)),
            Layer::Sw => drop(prep.cta_log()),
        }
    }
    let capture_us = t0.elapsed().as_micros() as u64;
    let all: Vec<usize> = (0..prep.plan.len()).collect();
    let records = execute_trials_with(prep, path, &all, |_| Ok(())).expect("sink cannot fail");
    let trial_us: u64 = records.iter().map(|r| r.wall_us).sum();
    (capture_us + trial_us) as f64 / records.len().max(1) as f64
}

fn main() {
    let args = from_env(Cmd::Study);
    let mut cfg = args.campaign_cfg(50, 50);
    // A wall limit nothing reaches: its only effect is that the engine
    // fills `TrialRecord::wall_us`.
    cfg.watchdog.wall_us_limit = Some(u64::MAX);
    let dir = args.results_dir();
    let mut t = Table::new(
        "Footnote 1: per-injection cost, AVF (cycle-level) vs SVF (software-level)",
        &[
            "App",
            "AVF us/inj",
            "SVF us/inj",
            "cost ratio",
            "x structures",
            "campaign ratio",
            "engine AVF us/inj",
            "engine SVF us/inj",
            "engine campaign ratio",
        ],
    );
    for b in all_benchmarks() {
        eprintln!("[speed] {} ...", b.name());
        let uarch = AppCaptures::new(b.as_ref(), &cfg.gpu, Layer::Uarch, false);
        let avf = plan_uarch(&uarch, &cfg, &[HwStructure::RegFile]);
        let sw = AppCaptures::new(b.as_ref(), &cfg.gpu, Layer::Sw, false);
        let svf = plan_sw(&sw, &cfg, &[SwFaultKind::DestValue]);
        let mut row = vec![b.name().to_string()];
        for path in [FastForward::Oracle, FastForward::default()] {
            let avf_us = us_per_injection(&avf, path);
            let svf_us = us_per_injection(&svf, path);
            let ratio = avf_us / svf_us.max(1.0);
            row.push(format!("{avf_us:.0}"));
            row.push(format!("{svf_us:.0}"));
            if path == FastForward::Oracle {
                row.push(format!("{ratio:.1}x"));
                row.push("5".to_string());
            }
            row.push(format!("{:.0}x", ratio * 5.0));
        }
        t.row(row);
    }
    println!("{t}");
    println!(
        "paper: AVF campaigns took 1258 machine-days vs 10 for SVF (~126x);\n\
         here the SVF side is also simulated (no silicon), so the per-\n\
         injection gap is smaller — the campaign-size factor (x5 structures)\n\
         composes identically. The engine columns are the same plans on the\n\
         default trial path (golden reuse, its capture included)."
    );
    t.write_csv(dir.join("speed_study.csv")).unwrap();
    finish_observability();
}
