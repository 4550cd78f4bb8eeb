//! ACE analytical-estimator study: single-pass analytic AVF for the whole
//! suite, cross-validated against the injection AVF of the same
//! campaigns `campaign paper` runs (`fig_ace_vs_avf.csv`).
//!
//! ```text
//! ace_study [--check] [--out-dir DIR]    # estimate + compare + figure CSV
//! ace_study smoke                        # tiny determinism gate
//! ```
//!
//! One instrumented fault-free timed simulation per application (under
//! the `ace_run` obs phase) yields per-kernel, per-structure analytic
//! AVF. The injection side is the `<app>.uarch.base` campaign of the
//! journaled driver ([`bench::driver`]) under `DIR/journal/` (`DIR`
//! defaults to the checked-in `results/`): where `campaign paper` — or an
//! earlier `ace_study` — completed it at the same `--n-uarch --seed --sms`
//! it is loaded and **no injection** is performed; otherwise it is run
//! and journaled here. The figure CSV carries the comparison with
//! Spearman rank correlation and mean absolute error; a stdout-only table
//! reports the estimator's speedup over each campaign this invocation
//! executed in full (`n/a` for a loaded one — no recorded wall is read).
//! `--check` gates on what is deterministic (Spearman ≥ 0.7) and exits 1
//! when unmet.
//!
//! Options: `--apps VA,NW` (suite subset), `--structures RF,SMEM,L2`
//! (comparison subset; exit 2 on unknown labels), `--n-uarch N --seed S
//! --sms N --events PATH`.

use ace::{estimate_app, spearman, CompareRow};
use bench::cli::{die, parse_or_exit, Cmd};
use bench::driver::{fail, write_csv, Driver, Key, Targets};
use bench::figures::{RECORD_N_SW, RECORD_N_UARCH};
use bench::finish_observability;
use dispatch::parse_structures;
use obs::Phase;
use relia::{EngineCfg, Table};
use vgpu_sim::{GpuConfig, HwStructure};

const FIG_CSV: &str = "fig_ace_vs_avf.csv";

fn ace_run_ns() -> u64 {
    obs::phase_snapshot()[Phase::AceRun as usize].total_ns
}

fn cmd_estimate(args: &[String]) {
    let a = parse_or_exit(Cmd::AceStudy, args);
    let benches = a.benches();
    let structures = match a.text("--structures") {
        Some(list) => parse_structures(list).unwrap_or_else(|e| die(&e)),
        None => HwStructure::ALL.to_vec(),
    };
    let (check, dir) = (a.has("--check"), a.results_dir());
    let cfg = a.campaign_cfg(RECORD_N_UARCH, RECORD_N_SW);
    let gpu = &cfg.gpu;
    // Phase timings back the speedup table, so always collect them here.
    obs::set_enabled(true);

    let mut driver = Driver::new(&cfg, EngineCfg::single_shot(), &dir, &benches);
    let mut estimates = Vec::new();
    let mut rows: Vec<CompareRow> = Vec::new();
    let mut speed = Table::new(
        "Estimator cost vs the injection campaign as this invocation ran it",
        &["app", "ace_ms", "campaign_ms", "speedup"],
    );
    for b in &benches {
        let t0 = ace_run_ns();
        let est = estimate_app(b.as_ref(), gpu);
        let ace_ms = (ace_run_ns() - t0) as f64 / 1e6;
        let campaign = driver.run(&Key::of(&cfg, b.name(), Targets::Structures, false));
        let injected = campaign.result.avf().0;
        for (k, inj) in est.kernels.iter().zip(&injected.kernels) {
            assert_eq!(k.kernel, inj.kernel, "kernel order must agree");
            rows.extend(structures.iter().map(|&h| CompareRow {
                app: est.app.clone(),
                kernel: k.kernel.clone(),
                structure: h,
                analytic: k.avf(gpu, h),
                injected: inj.avf(h).total(),
            }));
        }
        // Wall times are machine-dependent: stdout only, the figure CSV
        // stays deterministic. A campaign loaded (even in part) from its
        // journal has no wall of its own to compare against.
        let measured = |cell: String| match campaign.executed == campaign.trials {
            true => cell,
            false => "n/a".to_string(),
        };
        let campaign_ms = campaign.wall_s * 1e3;
        speed.row(vec![
            est.app.clone(),
            format!("{ace_ms:.3}"),
            measured(format!("{campaign_ms:.3}")),
            measured(format!("{:.0}x", campaign_ms / ace_ms.max(1e-9))),
        ]);
        estimates.push(est);
    }

    println!("{}", ace::structure_table(&estimates, gpu, &structures));
    println!("{}", ace::app_table(&estimates, gpu));
    let fig = ace::comparison_table(&rows);
    println!("{fig}");
    write_csv(&fig, &dir.join(FIG_CSV));
    println!("{speed}");

    let xs: Vec<f64> = rows.iter().map(|r| r.analytic).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.injected).collect();
    let rho = spearman(&xs, &ys);
    match rho {
        Some(r) => println!(
            "spearman(analytic, injection) = {r:.4} over {} points",
            rows.len()
        ),
        None => println!("spearman undefined ({} points)", rows.len()),
    }
    if check {
        // A valid command line whose comparison has no ranking to check
        // (constant input) failed at run time, not in its usage.
        let r = rho.unwrap_or_else(|| fail("--check: spearman undefined"));
        if r < 0.7 {
            eprintln!("check FAILED: spearman {r:.4} < 0.7");
            std::process::exit(1);
        }
        println!("check OK: spearman {r:.4} >= 0.7");
    }
}

/// Tiny gate for scripts/check.sh: the estimator must be deterministic,
/// injection-free, and produce nonzero RF lifetimes, without touching
/// `results/`.
fn cmd_smoke() {
    let gpu = GpuConfig::volta_scaled(2);
    let bench = kernels::all_benchmarks()
        .into_iter()
        .find(|b| b.name() == "VA")
        .expect("VA in the suite");
    let a = estimate_app(bench.as_ref(), &gpu);
    let b = estimate_app(bench.as_ref(), &gpu);
    if a != b {
        die("smoke failed: estimates differ across reruns");
    }
    if a.kernels[0].avf(&gpu, HwStructure::RegFile) <= 0.0 {
        die("smoke failed: zero RF analytic AVF");
    }
    if a.events == 0 {
        die("smoke failed: tracker recorded no events");
    }
    // Perfect self-agreement sanity for the comparison machinery.
    let avfs: Vec<f64> = HwStructure::ALL
        .iter()
        .map(|&h| a.kernels[0].avf(&gpu, h))
        .collect();
    if spearman(&avfs, &avfs) != Some(1.0) {
        die("smoke failed: self-spearman != 1");
    }
    println!(
        "smoke ok: VA analytic chip AVF {:.4}%, {} lifetime events, deterministic",
        a.kernels[0].chip_avf(&gpu) * 100.0,
        a.events
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("smoke") {
        cmd_smoke();
        return;
    }
    cmd_estimate(&args);
    finish_observability();
}
