//! Two-level estimator study: accuracy and cost of the stratified
//! two-level SDC model against a large full-injection reference and the
//! injection-free ACE analytic bound, plus the trial-count savings of
//! adaptive CI-driven sizing at a fixed interval target
//! (`fig_twolevel.csv` under `--out-dir`, default `results/`;
//! docs/TWOLEVEL.md).
//!
//! ```text
//! twolevel_study [--check]     # full study + figure CSV
//! twolevel_study smoke         # tiny determinism gate (no results/ I/O)
//! ```
//!
//! Three estimator arms per application, all from the same campaign seed:
//!
//! - **full** — a large dest-value injection campaign (`--n-ref` trials
//!   per kernel); its per-kernel SDC rate is the ground truth.
//! - **two-level** — [`stat::estimate_two_level`] with a small per-class
//!   sample (`--n-class`); class rates propagate through population
//!   shares, with Wilson CIs per class and a bootstrap CI at app level.
//! - **ACE** — the analytic chip AVF from a single fault-free pass
//!   (zero injections; an upper-bound ranking, not a calibrated rate).
//!
//! The fourth arm sizes the two-level strata *adaptively*
//! ([`stat::run_adaptive_single`] over the class targets) at a fixed CI
//! target and reports the trial-count savings vs the uniform fixed-n
//! design with the same guarantee. `--check` gates on the acceptance
//! thresholds (two-level Spearman >= 0.7 vs full injection, aggregate
//! adaptive savings >= 2x) and exits 1 when unmet.

use std::sync::Arc;

use ace::{estimate_app, spearman};
use bench::cli::{die, parse_or_exit, Cmd};
use bench::finish_observability;
use kernels::Benchmark;
use relia::plan::Layer;
use relia::{execute_shard, plan_sw, AppCaptures, CampaignCfg, Confidence, EngineCfg, Table};
use stat::{
    class_targets, estimate_two_level, estimate_two_level_on, run_adaptive_on, run_adaptive_single,
    AdaptiveCfg,
};
use vgpu_sim::{GpuConfig, SwFaultKind};

const FIG_CSV: &str = "fig_twolevel.csv";

struct Opts {
    benches: Vec<Box<dyn Benchmark>>,
    /// Full-injection reference trials per kernel (ground truth).
    n_ref: usize,
    /// Two-level trials per (kernel, instruction class).
    n_class: usize,
    /// Bootstrap replicates for the propagated app-level CI.
    reps: usize,
    seed: u64,
    gpu: GpuConfig,
    acfg: AdaptiveCfg,
    check: bool,
    out_dir: std::path::PathBuf,
}

fn parse_opts(args: &[String]) -> Opts {
    let a = parse_or_exit(Cmd::TwolevelStudy, args);
    Opts {
        benches: a.benches(),
        n_ref: a.num("--n-ref").unwrap_or(400),
        n_class: a.num("--n-class").unwrap_or(24),
        reps: a.num("--reps").unwrap_or(500),
        seed: a.num("--seed").unwrap_or(0x7E11_EBE1),
        gpu: a.gpu(),
        acfg: a.adaptive_cfg(0.1, 8, 128),
        check: a.has("--check"),
        out_dir: a.results_dir(),
    }
}

/// Large dest-value-only reference campaign: per-kernel SDC ground truth.
fn full_reference(captures: &Arc<AppCaptures>, o: &Opts) -> Vec<f64> {
    let cfg = CampaignCfg {
        gpu: o.gpu.clone(),
        ..CampaignCfg::new(0, o.n_ref, o.seed)
    };
    let prep = plan_sw(captures, &cfg, &[SwFaultKind::DestValue]);
    let records = execute_shard(&prep, &EngineCfg::single_shot())
        .expect("single-shot execution performs no checkpoint I/O");
    // One dest-value stratum per kernel, in kernel order.
    let table = relia::assemble(&prep, &records).expect("a single shard covers the whole plan");
    table.iter().map(|row| row.counts.rates().sdc).collect()
}

/// One per-kernel comparison point.
struct Point {
    app: String,
    kernel: String,
    full: f64,
    two: f64,
    two_lo: f64,
    two_hi: f64,
    ace: f64,
    /// Per-kernel trial budgets of the three injection designs.
    full_trials: usize,
    two_trials: usize,
    adaptive_trials: usize,
    adaptive_uniform: usize,
}

fn cmd_study(o: &Opts) {
    let benches = &o.benches;
    let mut points: Vec<Point> = Vec::new();
    let mut summary = Table::new(
        format!(
            "Two-level vs full-injection app SDC (seed {:#x}, n-ref {}, n-class {})",
            o.seed, o.n_ref, o.n_class
        ),
        &[
            "app",
            "full_sdc",
            "twolevel_sdc",
            "ci_lo",
            "ci_hi",
            "waves",
            "adaptive_trials",
            "uniform_trials",
            "savings",
        ],
    );

    for b in benches {
        eprintln!("[twolevel] {}...", b.name());
        // The three injection arms are functional-engine campaigns over
        // one app and GPU: one golden run and one CTA log serve them all.
        let captures = AppCaptures::new(b.as_ref(), &o.gpu, Layer::Sw, false);
        let full = full_reference(&captures, o);
        let two_cfg = CampaignCfg {
            gpu: o.gpu.clone(),
            ..CampaignCfg::new(0, o.n_class, o.seed)
        };
        let two = estimate_two_level_on(&captures, &two_cfg, Confidence::C95, o.reps);
        let ace = estimate_app(b.as_ref(), &o.gpu);
        let adaptive_cfg = CampaignCfg {
            gpu: o.gpu.clone(),
            ..CampaignCfg::new(0, 0, o.seed)
        };
        let adaptive = run_adaptive_on(
            &captures,
            &adaptive_cfg,
            &class_targets(),
            &o.acfg,
            |prep, _| execute_shard(prep, &EngineCfg::single_shot()),
        )
        .expect("in-process waves cannot under-cover their own plan");

        let classes_per_kernel = two.kernels[0].classes.len().max(1);
        for (k_idx, tk) in two.kernels.iter().enumerate() {
            let k_adaptive: usize = adaptive
                .strata
                .iter()
                .filter(|s| s.kernel_idx == k_idx)
                .map(|s| s.n)
                .sum();
            let k_max = adaptive
                .strata
                .iter()
                .filter(|s| s.kernel_idx == k_idx)
                .map(|s| s.n)
                .max()
                .unwrap_or(0);
            points.push(Point {
                app: two.app.clone(),
                kernel: tk.kernel.clone(),
                full: full[k_idx],
                two: tk.sdc(),
                two_lo: tk
                    .classes
                    .iter()
                    .map(|c| c.share * c.sdc_ci.lo)
                    .sum::<f64>(),
                two_hi: tk
                    .classes
                    .iter()
                    .map(|c| c.share * c.sdc_ci.hi)
                    .sum::<f64>(),
                ace: ace.kernels[k_idx].chip_avf(&o.gpu),
                full_trials: o.n_ref,
                two_trials: classes_per_kernel * o.n_class,
                adaptive_trials: k_adaptive,
                adaptive_uniform: k_max * classes_per_kernel,
            });
        }
        summary.row(vec![
            two.app.clone(),
            format!("{:.6}", full.iter().sum::<f64>() / full.len().max(1) as f64),
            format!("{:.6}", two.sdc),
            format!("{:.6}", two.sdc_ci.lo),
            format!("{:.6}", two.sdc_ci.hi),
            adaptive.waves.to_string(),
            adaptive.total_trials().to_string(),
            adaptive.uniform_equivalent().to_string(),
            format!("{:.2}x", adaptive.savings()),
        ]);
    }

    let mut fig = Table::new(
        format!(
            "Two-level vs full-injection vs ACE per kernel (seed {:#x})",
            o.seed
        ),
        &[
            "app",
            "kernel",
            "full_sdc",
            "twolevel_sdc",
            "twolevel_lo",
            "twolevel_hi",
            "ace_avf",
            "err_twolevel",
            "err_ace",
            "full_trials",
            "twolevel_trials",
            "adaptive_trials",
            "adaptive_uniform",
        ],
    );
    for p in &points {
        fig.row(vec![
            p.app.clone(),
            p.kernel.clone(),
            format!("{:.6}", p.full),
            format!("{:.6}", p.two),
            format!("{:.6}", p.two_lo),
            format!("{:.6}", p.two_hi),
            format!("{:.6}", p.ace),
            format!("{:.6}", (p.two - p.full).abs()),
            format!("{:.6}", (p.ace - p.full).abs()),
            p.full_trials.to_string(),
            p.two_trials.to_string(),
            p.adaptive_trials.to_string(),
            p.adaptive_uniform.to_string(),
        ]);
    }
    println!("{fig}");
    println!("{summary}");
    fig.write_csv(o.out_dir.join(FIG_CSV)).unwrap();
    println!("wrote {}", o.out_dir.join(FIG_CSV).display());

    let fulls: Vec<f64> = points.iter().map(|p| p.full).collect();
    let twos: Vec<f64> = points.iter().map(|p| p.two).collect();
    let aces: Vec<f64> = points.iter().map(|p| p.ace).collect();
    let mae = |xs: &[f64]| -> f64 {
        xs.iter()
            .zip(&fulls)
            .map(|(x, f)| (x - f).abs())
            .sum::<f64>()
            / xs.len().max(1) as f64
    };
    let rho_two = spearman(&twos, &fulls);
    let rho_ace = spearman(&aces, &fulls);
    let total_adaptive: usize = points.iter().map(|p| p.adaptive_trials).sum();
    let total_uniform: usize = points.iter().map(|p| p.adaptive_uniform).sum();
    let savings = total_uniform as f64 / total_adaptive.max(1) as f64;

    match rho_two {
        Some(r) => println!(
            "spearman(two-level, full) = {r:.4}, MAE {:.6} over {} kernels",
            mae(&twos),
            points.len()
        ),
        None => println!("spearman(two-level, full) undefined"),
    }
    match rho_ace {
        Some(r) => println!("spearman(ace, full)       = {r:.4}, MAE {:.6}", mae(&aces)),
        None => println!("spearman(ace, full) undefined"),
    }
    println!(
        "adaptive (target CI +/-{}): {} trials vs uniform {} -> savings {savings:.2}x",
        o.acfg.ci_target, total_adaptive, total_uniform
    );

    if o.check {
        let r = rho_two.unwrap_or_else(|| die("--check: two-level spearman undefined"));
        let mut failed = false;
        if r < 0.7 {
            eprintln!("check FAILED: two-level spearman {r:.4} < 0.7");
            failed = true;
        }
        if savings < 2.0 {
            eprintln!("check FAILED: adaptive savings {savings:.2}x < 2x");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check OK: spearman {r:.4} >= 0.7, adaptive savings {savings:.2}x >= 2x");
    }
}

/// Tiny gate for scripts/check.sh: the two-level estimator and the
/// adaptive sizer must be deterministic and structurally coherent,
/// without touching `results/`.
fn cmd_smoke() {
    let bench = kernels::all_benchmarks()
        .into_iter()
        .find(|b| b.name() == "VA")
        .expect("VA in the suite");
    let cfg = CampaignCfg::new(0, 3, 0x5710_CA5E);
    let a = estimate_two_level(bench.as_ref(), &cfg, Confidence::C95, 50);
    let b = estimate_two_level(bench.as_ref(), &cfg, Confidence::C95, 50);
    if a != b {
        die("smoke failed: two-level estimates differ across reruns");
    }
    if !(a.sdc_ci.contains(a.sdc) && a.failure_ci.contains(a.failure)) {
        die("smoke failed: propagated CI does not cover the point estimate");
    }
    let acfg = AdaptiveCfg::new(0.25, 4, 16);
    let r1 = run_adaptive_single(
        bench.as_ref(),
        &cfg,
        false,
        Layer::Sw,
        &class_targets(),
        &acfg,
    )
    .unwrap_or_else(|e| die(&format!("smoke failed: adaptive run: {e}")));
    let r2 = run_adaptive_single(
        bench.as_ref(),
        &cfg,
        false,
        Layer::Sw,
        &class_targets(),
        &acfg,
    )
    .unwrap_or_else(|e| die(&format!("smoke failed: adaptive rerun: {e}")));
    if r1 != r2 {
        die("smoke failed: adaptive campaigns differ across reruns");
    }
    if r1.savings() < 1.0 || r1.total_trials() == 0 {
        die("smoke failed: degenerate adaptive campaign");
    }
    println!(
        "smoke ok: VA two-level SDC {:.4} in [{:.4}, {:.4}], adaptive {} waves / {} trials \
         (savings {:.2}x), deterministic",
        a.sdc,
        a.sdc_ci.lo,
        a.sdc_ci.hi,
        r1.waves,
        r1.total_trials(),
        r1.savings()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("smoke") {
        cmd_smoke();
        return;
    }
    let o = parse_opts(&args);
    cmd_study(&o);
    finish_observability();
}
