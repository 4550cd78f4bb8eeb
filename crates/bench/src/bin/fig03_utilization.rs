//! Regenerates **Figure 3**: resource-utilization comparison (fault-free
//! profiling) for the paper's three kernel pairs, each metric normalized
//! to the pair's sum (50% = equal):
//!
//! * (a) HotSpot K1 vs LUD K1 — opposite AVF/SVF trend, utilization gap;
//! * (b) LUD K2 vs LUD K1 — consistent trend, utilization explains it;
//! * (c) VA K1 vs SCP K1 — opposite trend without a clear utilization
//!   signal.
//!
//! Writes `results/fig03a.csv`, `fig03b.csv`, `fig03c.csv`. The AVF/SVF
//! bars of the figure are produced by the (much more expensive)
//! `baseline_study`; this binary focuses on the profiling metrics and
//! reuses small campaigns for the two leading bars.
//!
//! Options: `--n-uarch N --n-sw N --seed S`.

use bench::cli::{from_env, Cmd};
use bench::results_dir;
use kernels::apps::{hotspot::HotSpot, lud::Lud, scp::Scp, va::Va};
use kernels::{golden_run, Benchmark, Variant};
use relia::{kernel_metrics, normalized_pair, run_sw_campaign, run_uarch_campaign, Table};

struct KernelRef<'a> {
    bench: &'a dyn Benchmark,
    k_idx: usize,
    label: &'a str,
}

fn main() {
    let cfg = from_env(Cmd::Study).campaign_cfg(200, 200);
    let dir = results_dir();
    let pairs: [(&str, &str, KernelRef, KernelRef); 3] = [
        (
            "Figure 3a: HotSpot K1 vs LUD K1 (opposite trend)",
            "fig03a.csv",
            KernelRef {
                bench: &HotSpot,
                k_idx: 0,
                label: "HotSpot K1",
            },
            KernelRef {
                bench: &Lud,
                k_idx: 0,
                label: "LUD K1",
            },
        ),
        (
            "Figure 3b: LUD K2 vs LUD K1 (consistent trend)",
            "fig03b.csv",
            KernelRef {
                bench: &Lud,
                k_idx: 1,
                label: "LUD K2",
            },
            KernelRef {
                bench: &Lud,
                k_idx: 0,
                label: "LUD K1",
            },
        ),
        (
            "Figure 3c: VA K1 vs SCP K1 (opposite trend)",
            "fig03c.csv",
            KernelRef {
                bench: &Va,
                k_idx: 0,
                label: "VA K1",
            },
            KernelRef {
                bench: &Scp,
                k_idx: 0,
                label: "SCP K1",
            },
        ),
    ];
    for (title, csv, k1, k2) in pairs {
        // Leading AVF/SVF bars.
        let vuln = |k: &KernelRef| {
            let avf = run_uarch_campaign(k.bench, &cfg, false);
            let svf = run_sw_campaign(k.bench, &cfg, false);
            (
                avf.kernels[k.k_idx].chip_avf(&cfg.gpu).total(),
                svf.kernels[k.k_idx].svf().total(),
            )
        };
        eprintln!("[fig03] {} vs {} ...", k1.label, k2.label);
        let (avf1, svf1) = vuln(&k1);
        let (avf2, svf2) = vuln(&k2);
        // Profiling metrics from timed golden runs.
        let g1 = golden_run(k1.bench, &cfg.gpu, Variant::TIMED);
        let g2 = golden_run(k2.bench, &cfg.gpu, Variant::TIMED);
        let m1 = kernel_metrics(&g1, k1.k_idx, &cfg.gpu);
        let m2 = kernel_metrics(&g2, k2.k_idx, &cfg.gpu);

        let mut t = Table::new(
            title,
            &[
                "Metric",
                &format!("{} %", k1.label),
                &format!("{} %", k2.label),
            ],
        );
        let share = |a: f64, b: f64| {
            if a + b == 0.0 {
                (50.0, 50.0)
            } else {
                (a / (a + b) * 100.0, b / (a + b) * 100.0)
            }
        };
        let (a, b) = share(avf1, avf2);
        t.row(vec!["AVF".into(), format!("{a:.1}"), format!("{b:.1}")]);
        let (a, b) = share(svf1, svf2);
        t.row(vec!["SVF".into(), format!("{a:.1}"), format!("{b:.1}")]);
        for (label, a, b) in normalized_pair(&m1, &m2) {
            t.row(vec![
                label.to_string(),
                format!("{a:.1}"),
                format!("{b:.1}"),
            ]);
        }
        println!("{t}");
        t.write_csv(dir.join(csv)).unwrap();
    }
}
