//! The paper's figures and tables as projections of campaign results —
//! what `campaign paper` writes.
//!
//! One [`AppResults`] per application holds the four campaigns the paper
//! runs on it (AVF and SVF, unprotected and TMR-hardened) plus the
//! fault-free run its utilization profile is read from. Every artifact of the
//! evaluation section that comes from injection — Figures 1, 2, 3a–c, 4,
//! 5, 7–11 and Table I — is a pure function of a slice of those
//! ([`FIGURES`]), so each campaign is simulated once however many figures
//! read it. [`manifest`] records what a set of CSVs was made from: the
//! flags that determine the records, every campaign's plan and record
//! fingerprints, and a content hash per CSV — all deterministic, so two
//! runs at the same flags write byte-identical manifests and
//! `crates/bench/tests/results_of_record.rs` can tell when a file under
//! `results/` is no longer the one the manifest describes.

use std::sync::Arc;

use kernels::{all_benchmarks, GoldenRun};
use relia::plan::{variant_label, Layer};
use relia::{
    compare_pairs, kernel_metrics, normalized_pair, pair_shares, pct, pct4, CampaignCfg,
    ClassRates, HardeningComparison, KernelHardeningRow, Table, TrendItem,
};
use vgpu_sim::{GpuConfig, HwStructure};

/// Injections per (kernel, structure) of the results of record under
/// `results/`, and `campaign paper`'s default `--n-uarch`.
pub const RECORD_N_UARCH: usize = 250;
/// Injections per (kernel, fault kind) of the results of record, and
/// `campaign paper`'s default `--n-sw`.
pub const RECORD_N_SW: usize = 500;

/// Everything the paper's figures read about one application.
pub struct AppResults {
    /// AVF and SVF campaigns of the unprotected and the TMR variant.
    pub campaigns: HardeningComparison,
    /// The golden run of the unprotected microarchitecture-level campaign:
    /// Figure 3's utilization profile.
    pub golden: Arc<GoldenRun>,
}

/// A pure function of the results of the applications that were run.
type Projection<T> = fn(&[AppResults], &GpuConfig) -> T;

/// One CSV of the evaluation section.
pub struct Figure {
    pub file: &'static str,
    source: Source,
}

enum Source {
    /// A projection of the whole suite's results.
    Suite(Projection<Table>),
    /// Figure 3: two kernels (application, kernel index) side by side.
    KernelPair(&'static str, [(&'static str, usize); 2]),
}
use Source::{KernelPair, Suite};

/// Every injection-derived artifact of the paper, in the paper's order.
#[rustfmt::skip]
pub const FIGURES: [Figure; 13] = [
    Figure { file: "fig01_app_avf_svf.csv", source: Suite(fig01) },
    Figure { file: "fig02_kernel_avf_svf.csv", source: Suite(fig02) },
    Figure { file: "fig03a.csv", source: KernelPair("Figure 3a: HotSpot K1 vs LUD K1 (opposite trend)", [("HotSpot", 0), ("LUD", 0)]) },
    Figure { file: "fig03b.csv", source: KernelPair("Figure 3b: LUD K2 vs LUD K1 (consistent trend)", [("LUD", 1), ("LUD", 0)]) },
    Figure { file: "fig03c.csv", source: KernelPair("Figure 3c: VA K1 vs SCP K1 (opposite trend)", [("VA", 0), ("SCP", 0)]) },
    Figure { file: "fig04_avf_rf_vs_svf.csv", source: Suite(fig04) },
    Figure { file: "fig05_avf_cache_vs_svf_ld.csv", source: Suite(fig05) },
    Figure { file: "tab1_trends.csv", source: Suite(tab1) },
    Figure { file: "fig07_hardened_avf_svf.csv", source: Suite(fig07) },
    Figure { file: "fig08_hardened_sdc.csv", source: Suite(fig08) },
    Figure { file: "fig09_hardened_due_timeout.csv", source: Suite(fig09) },
    Figure { file: "fig10_structure_breakdown.csv", source: Suite(fig10) },
    Figure { file: "fig11_control_path.csv", source: Suite(fig11) },
];

impl Figure {
    /// The figure over `results` (the applications that were run, in suite
    /// order), or `None` when one it reads is not among them.
    pub fn table(&self, results: &[AppResults], gpu: &GpuConfig) -> Option<Table> {
        let find = |app: &str| results.iter().find(|r| r.campaigns.app == app);
        match self.source {
            Suite(table) => (all_benchmarks().iter())
                .all(|b| find(b.name()).is_some())
                .then(|| table(results, gpu)),
            KernelPair(title, [(a, ka), (b, kb)]) => {
                Some(fig03(title, (find(a)?, ka), (find(b)?, kb), gpu))
            }
        }
    }
}

/// `[SDC, Timeout, DUE, total]` of `r` in percent, formatted by `fmt`.
fn classes(r: ClassRates, fmt: fn(f64) -> String) -> [String; 4] {
    [r.sdc, r.timeout, r.due, r.total()].map(fmt)
}

/// `[M_SDC, M_Timeout, M_DUE, M]`: the column names of [`classes`].
fn class_headers(metric: &str) -> [String; 4] {
    ["_SDC", "_Timeout", "_DUE", ""].map(|class| format!("{metric}{class}"))
}

fn row(label: String, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(label).chain(cells).collect()
}

fn table(title: &str, label: &str, columns: impl IntoIterator<Item = String>) -> Table {
    Table {
        title: title.to_string(),
        headers: row(label.to_string(), columns),
        rows: Vec::new(),
    }
}

/// One workload of an AVF-vs-SVF comparison: its name and its
/// vulnerability at the two layers, by outcome class.
type Pair = (String, ClassRates, ClassRates);

/// The four comparisons of Section III — the data of Figures 1, 2, 4 and
/// 5 and, as rankings, the four rows of Table I.
fn app_level(results: &[AppResults], gpu: &GpuConfig) -> Vec<Pair> {
    (results.iter().map(|r| &r.campaigns))
        .map(|c| (c.app.clone(), c.base_avf.app_avf(gpu), c.base_svf.app_svf()))
        .collect()
}

fn kernel_level(results: &[AppResults], gpu: &GpuConfig) -> Vec<Pair> {
    (results.iter().map(|r| &r.campaigns))
        .flat_map(|c| {
            (c.base_avf.kernels.iter().zip(&c.base_svf.kernels)).map(|(ka, ks)| {
                (
                    format!("{} {}", c.app, ka.kernel),
                    ka.chip_avf(gpu),
                    ks.svf(),
                )
            })
        })
        .collect()
}

fn rf_vs_svf(results: &[AppResults], _: &GpuConfig) -> Vec<Pair> {
    (results.iter().map(|r| &r.campaigns))
        .map(|c| {
            let rf = c.base_avf.app_avf_structure(HwStructure::RegFile);
            (c.app.clone(), rf, c.base_svf.app_svf())
        })
        .collect()
}

fn cache_vs_svf_ld(results: &[AppResults], gpu: &GpuConfig) -> Vec<Pair> {
    (results.iter().map(|r| &r.campaigns))
        .map(|c| {
            let cache = c.base_avf.app_avf_cache(gpu);
            (c.app.clone(), cache, c.base_svf.app_svf_ld())
        })
        .collect()
}

/// Figures 1 and 2: both layers by outcome class.
fn both_by_class(title: &str, label: &str, pairs: Vec<Pair>) -> Table {
    let mut t = table(
        title,
        label,
        class_headers("AVF").into_iter().chain(class_headers("SVF")),
    );
    for (name, avf, svf) in pairs {
        let cells = classes(avf, pct4).into_iter().chain(classes(svf, pct));
        t.row(row(name, cells));
    }
    t
}

/// Figures 4 and 5: an AVF sub-metric by outcome class against a total
/// software-level rate.
fn avf_by_class(title: &str, avf_name: &str, svf_name: &str, pairs: Vec<Pair>) -> Table {
    let mut t = table(
        title,
        "App",
        class_headers(avf_name)
            .into_iter()
            .chain([svf_name.to_string()]),
    );
    for (name, avf, svf) in pairs {
        let cells = classes(avf, pct4).into_iter().chain([pct(svf.total())]);
        t.row(row(name, cells));
    }
    t
}

fn fig01(results: &[AppResults], gpu: &GpuConfig) -> Table {
    let title = "Figure 1: application-level AVF (cross-layer) and SVF (software-only), %";
    both_by_class(title, "App", app_level(results, gpu))
}

fn fig02(results: &[AppResults], gpu: &GpuConfig) -> Table {
    let title = "Figure 2: kernel-level AVF and SVF, %";
    both_by_class(title, "Kernel", kernel_level(results, gpu))
}

fn fig04(results: &[AppResults], gpu: &GpuConfig) -> Table {
    let title = "Figure 4: AVF-RF (register file only) vs SVF, %";
    avf_by_class(title, "AVF-RF", "SVF", rf_vs_svf(results, gpu))
}

fn fig05(results: &[AppResults], gpu: &GpuConfig) -> Table {
    let title = "Figure 5: AVF-Cache (L1D+L1T+L2) vs SVF-LD (load injections), %";
    avf_by_class(title, "AVF-Cache", "SVF-LD", cache_vs_svf_ld(results, gpu))
}

/// Table I: consistent vs opposite ranking trends over all pairs of
/// workloads, for each of the four comparisons.
fn tab1(results: &[AppResults], gpu: &GpuConfig) -> Table {
    let mut t = Table::new(
        "Table I: consistent vs opposite vulnerability-ranking trends",
        &[
            "Comparison",
            "Consistent",
            "Opposite",
            "Consistent%",
            "Opposite%",
        ],
    );
    let comparisons: [(&str, Projection<Vec<Pair>>); 4] = [
        ("Application-Level", app_level),
        ("Kernel-Level", kernel_level),
        ("AVF-RF vs. SVF", rf_vs_svf),
        ("AVF-Cache vs. SVF-LD", cache_vs_svf_ld),
    ];
    for (label, pairs) in comparisons {
        let items: Vec<TrendItem> = (pairs(results, gpu).into_iter())
            .map(|(name, avf, svf)| TrendItem {
                name,
                a: avf.total(),
                b: svf.total(),
            })
            .collect();
        let trend = compare_pairs(&items);
        t.row(vec![
            label.to_string(),
            trend.consistent.to_string(),
            trend.opposite.to_string(),
            format!("{:.0}", trend.consistent_pct()),
            format!("{:.0}", trend.opposite_pct()),
        ]);
    }
    t
}

/// Figure 3: AVF, SVF and the sixteen utilization metrics of two kernels,
/// each normalized to the pair's sum (50 % = equal).
fn fig03(
    title: &str,
    first: (&AppResults, usize),
    second: (&AppResults, usize),
    gpu: &GpuConfig,
) -> Table {
    let [(name1, avf1, svf1, m1), (name2, avf2, svf2, m2)] = [first, second].map(|(r, k)| {
        let (avf, svf) = (&r.campaigns.base_avf.kernels[k], &r.campaigns.base_svf);
        (
            format!("{} {} %", r.campaigns.app, avf.kernel),
            avf.chip_avf(gpu).total(),
            svf.kernels[k].svf().total(),
            kernel_metrics(&r.golden, k, gpu),
        )
    });
    let mut t = table(title, "Metric", [name1, name2]);
    let ((avf1, avf2), (svf1, svf2)) = (pair_shares(avf1, avf2), pair_shares(svf1, svf2));
    let bars = [("AVF", avf1, avf2), ("SVF", svf1, svf2)];
    for (label, a, b) in bars.into_iter().chain(normalized_pair(&m1, &m2)) {
        t.row(row(label.to_string(), [a, b].map(|x| format!("{x:.1}"))));
    }
    t
}

/// A Section-IV table: `rows` maps each kernel's before/after numbers to
/// the rows labelled with the kernel's name.
fn hardening_table(
    title: &str,
    columns: &[&str],
    results: &[AppResults],
    gpu: &GpuConfig,
    rows: impl Fn(&KernelHardeningRow) -> Vec<Vec<String>>,
) -> Table {
    let mut t = table(title, "Kernel", columns.iter().map(|c| c.to_string()));
    for c in results.iter().map(|r| &r.campaigns) {
        for k in c.kernel_rows(gpu) {
            for cells in rows(&k) {
                t.row(row(format!("{} {}", c.app, k.kernel), cells));
            }
        }
    }
    t
}

fn fig07(results: &[AppResults], gpu: &GpuConfig) -> Table {
    let title = "Figure 7: AVF and SVF with/without TMR hardening, %";
    let columns = ["AVF_base", "AVF_TMR", "SVF_base", "SVF_TMR"];
    hardening_table(title, &columns, results, gpu, |k| {
        let avf = [k.avf_base, k.avf_tmr].map(|r| pct4(r.total()));
        let svf = [k.svf_base, k.svf_tmr].map(|r| pct(r.total()));
        vec![avf.into_iter().chain(svf).collect()]
    })
}

fn fig08(results: &[AppResults], gpu: &GpuConfig) -> Table {
    let title = "Figure 8: SDC share of AVF with/without hardening, %";
    let columns = ["AVF-SDC_base", "AVF-SDC_TMR"];
    hardening_table(title, &columns, results, gpu, |k| {
        vec![vec![pct4(k.avf_base.sdc), pct4(k.avf_tmr.sdc)]]
    })
}

fn fig09(results: &[AppResults], gpu: &GpuConfig) -> Table {
    let title = "Figure 9: Timeout and DUE with/without hardening, %";
    let columns = [
        "AVF-TO_base",
        "AVF-DUE_base",
        "AVF-TO_TMR",
        "AVF-DUE_TMR",
        "SVF-TO_base",
        "SVF-DUE_base",
        "SVF-TO_TMR",
        "SVF-DUE_TMR",
    ];
    hardening_table(title, &columns, results, gpu, |k| {
        let avf = [k.avf_base, k.avf_tmr].map(|r| [pct4(r.timeout), pct4(r.due)]);
        let svf = [k.svf_base, k.svf_tmr].map(|r| [pct(r.timeout), pct(r.due)]);
        vec![avf.into_iter().chain(svf).flatten().collect()]
    })
}

fn fig10(results: &[AppResults], gpu: &GpuConfig) -> Table {
    let title = "Figure 10: per-structure AVF before/after hardening, %";
    let columns = [
        "Structure",
        "SDC_base",
        "TO_base",
        "DUE_base",
        "SDC_TMR",
        "TO_TMR",
        "DUE_TMR",
    ];
    hardening_table(title, &columns, results, gpu, |k| {
        (k.structures.iter())
            .map(|(h, before, after)| {
                let rates = [before, after].map(|r| [pct4(r.sdc), pct4(r.timeout), pct4(r.due)]);
                row(h.label().to_string(), rates.into_iter().flatten())
            })
            .collect()
    })
}

fn fig11(results: &[AppResults], gpu: &GpuConfig) -> Table {
    let title = "Figure 11: control-path-affected masked runs (microarch FI), %";
    hardening_table(title, &["base", "TMR"], results, gpu, |k| {
        vec![vec![pct(k.ctrl_base), pct(k.ctrl_tmr)]]
    })
}

/// One campaign of a `campaign paper` run: what [`manifest`] records of
/// it, and what this invocation spent on it ([`wall`]).
pub struct CampaignEntry {
    pub app: String,
    pub layer: Layer,
    pub hardened: bool,
    pub trials: usize,
    pub plan_fp: u64,
    pub records_fp: u64,
    /// Trials this invocation executed; the rest came from the journal.
    pub executed: usize,
    /// Wall seconds: golden run + plan + execute (or load) + assemble.
    pub wall_s: f64,
}

/// `<app>.<uarch|sw>.<base|tmr>`: a campaign's name in the manifest and
/// the stem of its journal file.
pub fn campaign_name(app: &str, layer: Layer, hardened: bool) -> String {
    format!("{app}.{}.{}", layer.label(), variant_label(hardened))
}

/// `MANIFEST.csv`: what a directory of figure CSVs was made from. `flag`
/// rows are the settings that determine the records (the backend is not
/// one: records are identical on every backend), `campaign` rows carry
/// each campaign's trial count and plan / record fingerprints, `csv` rows
/// the FNV-1a hash ([`relia::plan::str_tag`]) of every CSV written next to
/// it — what `results_of_record.rs` recomputes.
pub fn manifest(cfg: &CampaignCfg, campaigns: &[CampaignEntry], csvs: &[(&str, u64)]) -> Table {
    let mut t = Table::new(
        "MANIFEST: flags, campaigns and CSV hashes of this run",
        &["Record", "Name", "Value", "Trials", "Plan", "Records"],
    );
    let opt = |v: Option<u64>| v.map_or("none".to_string(), |v| v.to_string());
    let hex = |v: u64| format!("{v:#018x}");
    let mut push = |cells: [&str; 6]| t.row(cells.map(String::from).to_vec());
    for (name, value) in [
        ("n_uarch", cfg.n_uarch.to_string()),
        ("n_sw", cfg.n_sw.to_string()),
        ("seed", cfg.seed.to_string()),
        ("sms", cfg.gpu.num_sms.to_string()),
        ("fault_model", cfg.pattern.label().to_string()),
        ("wall_limit_us", opt(cfg.watchdog.wall_us_limit)),
        ("cycle_limit", opt(cfg.watchdog.cycle_limit)),
        ("retry_on_panic", cfg.watchdog.retry_on_panic.to_string()),
    ] {
        push(["flag", name, &value, "", "", ""]);
    }
    for c in campaigns {
        let name = campaign_name(&c.app, c.layer, c.hardened);
        let (plan, records) = (hex(c.plan_fp), hex(c.records_fp));
        push([
            "campaign",
            &name,
            "",
            &c.trials.to_string(),
            &plan,
            &records,
        ]);
    }
    for &(file, hash) in csvs {
        push(["csv", file, &hex(hash), "", "", ""]);
    }
    t
}

/// `wall.csv`: what this invocation spent per campaign, then per campaign
/// kind — the regeneration wall, measured.
pub fn wall(campaigns: &[CampaignEntry]) -> Table {
    let mut t = Table::new(
        "Wall time of this invocation (golden run + plan + execute + assemble), s",
        &["Campaign", "Trials", "Executed", "Wall_s"],
    );
    let mut sum = |name: String, of: &[&CampaignEntry]| {
        let trials: usize = of.iter().map(|c| c.trials).sum();
        let executed: usize = of.iter().map(|c| c.executed).sum();
        let wall_s: f64 = of.iter().map(|c| c.wall_s).sum();
        let cells = [trials, executed].map(|n| n.to_string());
        t.row(row(name, cells.into_iter().chain([format!("{wall_s:.2}")])));
    };
    for c in campaigns {
        sum(campaign_name(&c.app, c.layer, c.hardened), &[c]);
    }
    for layer in [Layer::Uarch, Layer::Sw] {
        for hardened in [false, true] {
            let kind: Vec<&CampaignEntry> = (campaigns.iter())
                .filter(|c| c.layer == layer && c.hardened == hardened)
                .collect();
            sum(campaign_name("total", layer, hardened), &kind);
        }
    }
    sum("total".to_string(), &campaigns.iter().collect::<Vec<_>>());
    t
}
