//! Regenerates the unprotected-system comparison artifacts:
//!
//! * **Figure 1** — application-level AVF (bottom) and SVF (top), with the
//!   SDC / Timeout / DUE breakdown (`results/fig01_app_avf_svf.csv`).
//! * **Figure 2** — the same at kernel level (`results/fig02_...csv`).
//! * **Figure 4** — AVF-RF vs SVF (`results/fig04_...csv`).
//! * **Figure 5** — AVF-Cache vs SVF-LD (`results/fig05_...csv`).
//! * **Table I** — consistent/opposite trend counts over all pairs
//!   (`results/tab1_trends.csv`).
//!
//! Options: `--n-uarch N --n-sw N --seed S --sms N --events PATH`,
//! watchdog: `--wall-limit-us N --cycle-limit N --no-retry`
//! (docs/CAMPAIGNS.md; plus the `RELIA_EVENTS` / `RELIA_METRICS` /
//! `RELIA_PROGRESS` environment switches — see
//! `bench::init_observability`).

use bench::cli::{from_env, Cmd};
use bench::{finish_observability, init_observability, results_dir, run_baseline};
use relia::{compare_pairs, error_margin, pct, pct4, Confidence, Table, TrendItem};
use vgpu_sim::HwStructure;

fn main() {
    let cfg = from_env(Cmd::Study).campaign_cfg(300, 300);
    init_observability();
    eprintln!(
        "n_uarch={} (±{:.2}% @99%), n_sw={} (±{:.2}% @99%)",
        cfg.n_uarch,
        error_margin(cfg.n_uarch, Confidence::C99) * 100.0,
        cfg.n_sw,
        error_margin(cfg.n_sw, Confidence::C99) * 100.0
    );
    let base = run_baseline(&cfg);
    let dir = results_dir();

    // ---- Figure 1: application level --------------------------------
    let mut fig1 = Table::new(
        "Figure 1: application-level AVF (cross-layer) and SVF (software-only), %",
        &[
            "App",
            "AVF_SDC",
            "AVF_Timeout",
            "AVF_DUE",
            "AVF",
            "SVF_SDC",
            "SVF_Timeout",
            "SVF_DUE",
            "SVF",
        ],
    );
    for (avf, svf) in &base.apps {
        let a = avf.app_avf(&cfg.gpu);
        let s = svf.app_svf();
        fig1.row(vec![
            avf.app.clone(),
            pct4(a.sdc),
            pct4(a.timeout),
            pct4(a.due),
            pct4(a.total()),
            pct(s.sdc),
            pct(s.timeout),
            pct(s.due),
            pct(s.total()),
        ]);
    }
    println!("{fig1}");
    fig1.write_csv(dir.join("fig01_app_avf_svf.csv")).unwrap();

    // ---- Figure 2: kernel level --------------------------------------
    let mut fig2 = Table::new(
        "Figure 2: kernel-level AVF and SVF, %",
        &[
            "Kernel",
            "AVF_SDC",
            "AVF_Timeout",
            "AVF_DUE",
            "AVF",
            "SVF_SDC",
            "SVF_Timeout",
            "SVF_DUE",
            "SVF",
        ],
    );
    for (avf, svf) in &base.apps {
        for (ka, ks) in avf.kernels.iter().zip(&svf.kernels) {
            let a = ka.chip_avf(&cfg.gpu);
            let s = ks.svf();
            fig2.row(vec![
                format!("{} {}", avf.app, ka.kernel),
                pct4(a.sdc),
                pct4(a.timeout),
                pct4(a.due),
                pct4(a.total()),
                pct(s.sdc),
                pct(s.timeout),
                pct(s.due),
                pct(s.total()),
            ]);
        }
    }
    println!("{fig2}");
    fig2.write_csv(dir.join("fig02_kernel_avf_svf.csv"))
        .unwrap();

    // ---- Figure 4: AVF-RF vs SVF --------------------------------------
    let mut fig4 = Table::new(
        "Figure 4: AVF-RF (register file only) vs SVF, %",
        &[
            "App",
            "AVF-RF_SDC",
            "AVF-RF_Timeout",
            "AVF-RF_DUE",
            "AVF-RF",
            "SVF",
        ],
    );
    for (avf, svf) in &base.apps {
        let a = avf.app_avf_structure(HwStructure::RegFile);
        fig4.row(vec![
            avf.app.clone(),
            pct4(a.sdc),
            pct4(a.timeout),
            pct4(a.due),
            pct4(a.total()),
            pct(svf.app_svf().total()),
        ]);
    }
    println!("{fig4}");
    fig4.write_csv(dir.join("fig04_avf_rf_vs_svf.csv")).unwrap();

    // ---- Figure 5: AVF-Cache vs SVF-LD --------------------------------
    let mut fig5 = Table::new(
        "Figure 5: AVF-Cache (L1D+L1T+L2) vs SVF-LD (load injections), %",
        &[
            "App",
            "AVF-Cache_SDC",
            "AVF-Cache_Timeout",
            "AVF-Cache_DUE",
            "AVF-Cache",
            "SVF-LD",
        ],
    );
    for (avf, svf) in &base.apps {
        let a = avf.app_avf_cache(&cfg.gpu);
        fig5.row(vec![
            avf.app.clone(),
            pct4(a.sdc),
            pct4(a.timeout),
            pct4(a.due),
            pct4(a.total()),
            pct(svf.app_svf_ld().total()),
        ]);
    }
    println!("{fig5}");
    fig5.write_csv(dir.join("fig05_avf_cache_vs_svf_ld.csv"))
        .unwrap();

    // ---- Table I: trend agreement --------------------------------------
    let app_items: Vec<TrendItem> = base
        .apps
        .iter()
        .map(|(a, s)| TrendItem {
            name: a.app.clone(),
            a: a.app_avf(&cfg.gpu).total(),
            b: s.app_svf().total(),
        })
        .collect();
    let kernel_items: Vec<TrendItem> = base
        .apps
        .iter()
        .flat_map(|(a, s)| {
            a.kernels.iter().zip(&s.kernels).map(|(ka, ks)| TrendItem {
                name: format!("{} {}", a.app, ka.kernel),
                a: ka.chip_avf(&cfg.gpu).total(),
                b: ks.svf().total(),
            })
        })
        .collect();
    let rf_items: Vec<TrendItem> = base
        .apps
        .iter()
        .map(|(a, s)| TrendItem {
            name: a.app.clone(),
            a: a.app_avf_structure(HwStructure::RegFile).total(),
            b: s.app_svf().total(),
        })
        .collect();
    let cache_items: Vec<TrendItem> = base
        .apps
        .iter()
        .map(|(a, s)| TrendItem {
            name: a.app.clone(),
            a: a.app_avf_cache(&cfg.gpu).total(),
            b: s.app_svf_ld().total(),
        })
        .collect();

    let mut tab1 = Table::new(
        "Table I: consistent vs opposite vulnerability-ranking trends",
        &[
            "Comparison",
            "Consistent",
            "Opposite",
            "Consistent%",
            "Opposite%",
        ],
    );
    for (label, items) in [
        ("Application-Level", &app_items),
        ("Kernel-Level", &kernel_items),
        ("AVF-RF vs. SVF", &rf_items),
        ("AVF-Cache vs. SVF-LD", &cache_items),
    ] {
        let t = compare_pairs(items);
        tab1.row(vec![
            label.to_string(),
            t.consistent.to_string(),
            t.opposite.to_string(),
            format!("{:.0}", t.consistent_pct()),
            format!("{:.0}", t.opposite_pct()),
        ]);
    }
    println!("{tab1}");
    tab1.write_csv(dir.join("tab1_trends.csv")).unwrap();

    finish_observability();
}
