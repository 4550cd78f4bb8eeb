//! Fault-model study: re-runs the cross-layer ranking analysis under every
//! [`FaultPattern`] — multi-bit transients (adjacent double, whole entry,
//! row/column bursts) and persistent stuck-at cells — and asks the paper's
//! question again for each: *does the software-level ranking survive?*
//!
//! For every (pattern, app, kernel) it records the injection AVF (uarch
//! layer, all five storage structures) and SVF (software layer), then
//! summarises per pattern:
//!
//! * Spearman rank correlation of the per-kernel AVF (and SVF) vector
//!   against the single-bit baseline — how much the fault model itself
//!   reshuffles the vulnerability ranking at each layer;
//! * the SVF-vs-AVF pairwise ranking agreement (the Table I / Insight #6
//!   inversion analysis), re-run under that pattern.
//!
//! Writes `results/fig_fault_model_ranking.csv`.
//! Options: `--n-uarch N --n-sw N --seed S --sms N --events PATH`,
//! watchdog `--wall-limit-us N --cycle-limit N --no-retry`
//! (docs/CAMPAIGNS.md; pattern catalog in docs/FAULT_MODELS.md).
//!
//! `fault_model_study smoke` is the scripts/check.sh gate: one app, tiny
//! campaigns, a transient multi-bit and a persistent pattern, determinism
//! asserted, nothing written under `results/`.

use ace::spearman;
use bench::cli::{parse_or_exit, Cmd};
use bench::finish_observability;
use kernels::{all_benchmarks, Benchmark};
use relia::{
    pct, pct4, run_sw_campaign_on, run_uarch_campaign_on, AppCaptures, CampaignCfg, EngineBackend,
    Layer, SvfAppResult, Table, TrendItem, UarchAppResult,
};
use vgpu_sim::FaultPattern;

/// One (app, kernel) measurement under one fault pattern.
struct Point {
    app: String,
    kernel: String,
    avf: f64,
    svf: f64,
}

/// Both campaigns of one app under every pattern of `patterns`, in that
/// order. The pattern never feeds seed derivation or the golden run, so
/// all of an app's campaigns share one set of captures per layer: one
/// golden run, one snapshot set (or trace) and one CTA log per app, not
/// per (app, pattern).
fn run_patterns(
    bench: &dyn Benchmark,
    cfg: &CampaignCfg,
    backend: EngineBackend,
    patterns: &[FaultPattern],
) -> Vec<(UarchAppResult, SvfAppResult)> {
    let uarch = AppCaptures::new(bench, &cfg.gpu, Layer::Uarch, false);
    let sw = AppCaptures::new(bench, &cfg.gpu, Layer::Sw, false);
    (patterns.iter())
        .map(|&pattern| {
            eprintln!("[fault-model] {} / {} ...", bench.name(), pattern.label());
            let cfg = CampaignCfg {
                pattern,
                ..cfg.clone()
            };
            (
                run_uarch_campaign_on(&uarch, &cfg, backend),
                run_sw_campaign_on(&sw, &cfg),
            )
        })
        .collect()
}

/// Per-kernel points of the whole suite under every [`FaultPattern`],
/// indexed like [`FaultPattern::ALL`].
fn measure(cfg: &CampaignCfg, backend: EngineBackend) -> Vec<Vec<Point>> {
    let mut points: Vec<Vec<Point>> = FaultPattern::ALL.iter().map(|_| Vec::new()).collect();
    for b in all_benchmarks() {
        let runs = run_patterns(b.as_ref(), cfg, backend, &FaultPattern::ALL);
        for ((uarch, sw), out) in runs.iter().zip(&mut points) {
            for (ku, ks) in uarch.kernels.iter().zip(&sw.kernels) {
                assert_eq!(ku.kernel, ks.kernel, "layer kernel order must agree");
                out.push(Point {
                    app: uarch.app.clone(),
                    kernel: ku.kernel.clone(),
                    avf: ku.chip_avf(&cfg.gpu).total(),
                    svf: ks.svf().total(),
                });
            }
        }
    }
    points
}

/// Spearman of a metric across the per-kernel vector vs the single-bit
/// baseline (same campaign sizes, same seeds — the pattern is the only
/// difference). `None` (constant input) renders as "NA".
fn rho(base: &[Point], pts: &[Point], f: impl Fn(&Point) -> f64) -> String {
    let xs: Vec<f64> = base.iter().map(&f).collect();
    let ys: Vec<f64> = pts.iter().map(&f).collect();
    match spearman(&xs, &ys) {
        Some(r) => format!("{r:.4}"),
        None => "NA".to_string(),
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke_only = argv.first().is_some_and(|a| a == "smoke");
    if smoke_only {
        argv.remove(0);
    }
    let args = parse_or_exit(Cmd::Study, &argv);
    let backend = args.backend();
    if smoke_only {
        smoke(backend);
        return;
    }
    let cfg = args.campaign_cfg(60, 120);
    let mut t = Table::new(
        format!(
            "Fault-model ranking study (n_uarch={}, n_sw={}, seed {:#x})",
            cfg.n_uarch, cfg.n_sw, cfg.seed
        ),
        &[
            "app",
            "kernel",
            "pattern",
            "avf",
            "svf",
            "spearman_avf_vs_single_bit",
            "spearman_svf_vs_single_bit",
        ],
    );
    let all = measure(&cfg, backend);
    let single_bit = (FaultPattern::ALL.iter())
        .position(|&p| p == FaultPattern::SingleBit)
        .expect("single-bit is a pattern");
    let base = &all[single_bit];
    let mut summary = Vec::new();
    for (&p, pts) in FaultPattern::ALL.iter().zip(&all) {
        assert_eq!(pts.len(), base.len(), "pattern runs must cover the suite");
        let rho_avf = rho(base, pts, |x| x.avf);
        let rho_svf = rho(base, pts, |x| x.svf);
        // The inversion analysis of Table I, re-run under this pattern:
        // does ranking apps by SVF still mis-order them vs AVF?
        let items: Vec<TrendItem> = pts
            .iter()
            .map(|x| TrendItem {
                name: format!("{}/{}", x.app, x.kernel),
                a: x.svf,
                b: x.avf,
            })
            .collect();
        let trend = relia::compare_pairs(&items);
        summary.push((p, rho_avf.clone(), rho_svf.clone(), trend));
        for x in pts {
            t.row(vec![
                x.app.clone(),
                x.kernel.clone(),
                p.label().to_string(),
                pct4(x.avf),
                pct(x.svf),
                rho_avf.clone(),
                rho_svf.clone(),
            ]);
        }
    }
    println!("{t}");
    for (p, ra, rs, trend) in &summary {
        println!(
            "{:>15}: spearman vs single-bit AVF {ra} / SVF {rs}, \
             SVF-vs-AVF ranking {}/{} pairs consistent",
            p.label(),
            trend.consistent,
            trend.total()
        );
    }
    let dir = args.results_dir();
    t.write_csv(dir.join("fig_fault_model_ranking.csv"))
        .unwrap();
    println!(
        "wrote {}",
        dir.join("fig_fault_model_ranking.csv").display()
    );
    finish_observability();
}

/// check.sh gate: one app, one transient multi-bit and one persistent
/// pattern, deterministic across reruns, and the stuck-at campaign must
/// actually differ from single-bit (the pattern is not a no-op).
fn smoke(backend: EngineBackend) {
    let cfg = CampaignCfg::new(6, 6, 0x5A5A);
    let bench = kernels::all_benchmarks()
        .into_iter()
        .find(|b| b.name() == "VA")
        .expect("VA in the suite");
    // One call = one set of captures; the patterns inside it share them.
    let run = |patterns: &[FaultPattern]| -> Vec<_> {
        run_patterns(bench.as_ref(), &cfg, backend, patterns)
            .into_iter()
            .map(|(u, s)| {
                (
                    u.app_avf(&cfg.gpu).total(),
                    s.app_svf().total(),
                    u.kernels[0].per_structure.clone(),
                )
            })
            .collect()
    };
    let patterns = [
        FaultPattern::BurstRow,
        FaultPattern::StuckAt0,
        FaultPattern::SingleBit,
        FaultPattern::StuckAt1,
    ];
    let first = run(&patterns);
    // Rerun on captures of its own, one pattern at a time: what a pattern
    // measures must not depend on which campaigns shared its captures.
    for (pattern, a) in patterns[..2].iter().zip(&first) {
        let b = &run(&[*pattern])[0];
        assert_eq!(
            a.2,
            b.2,
            "smoke failed: {} campaign not deterministic",
            pattern.label()
        );
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "AVF must be deterministic");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "SVF must be deterministic");
    }
    let (single, stuck) = (&first[2], &first[3]);
    assert_ne!(
        single.2, stuck.2,
        "smoke failed: stuck-at-1 outcomes identical to single-bit — the \
         pattern is not reaching the injector"
    );
    println!(
        "smoke ok: VA single-bit AVF {:.4}% vs stuck-at-1 AVF {:.4}%, deterministic",
        single.0 * 100.0,
        stuck.0 * 100.0
    );
}
