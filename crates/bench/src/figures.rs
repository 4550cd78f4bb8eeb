//! The figures and tables under `results/` as projections of campaign
//! results — what `campaign paper` and `campaign extensions` write.
//!
//! A [`Figure`] names the campaigns it reads ([`Figure::keys`]) and is a
//! pure function of their assembled results, so each campaign is
//! simulated once however many figures — of either set — read it. (The
//! ACE comparison also runs the analytic estimator, one fault-free pass
//! per application: deterministic in the application and the GPU, so
//! the figure is still a function of the run's flags.)
//! [`FIGURES`] is the paper's set: every artifact of the evaluation
//! section that comes from injection (Figures 1, 2, 3a–c, 4, 5, 7–11 and
//! Table I), each a function of one [`AppResults`] per application — the
//! four campaigns the paper runs on it (AVF and SVF, unprotected and
//! TMR-hardened) plus the fault-free run its utilization profile is read
//! from — and Figure 12: the static register-reuse sets and the
//! Section V-B proposal measured by one source-register campaign per
//! application. [`EXTENSIONS`] is the set beyond the paper: the
//! three-layer comparison, the sizing ablation, the fault-model ranking
//! study, the two-level study and the analytic ACE estimate against
//! injection, which read the same unprotected campaigns plus their own
//! variants (PVF targets, other fault patterns, other SM counts,
//! instruction-class strata). [`manifest`]
//! records what a set of CSVs was made from: the flags that determine the
//! records, every campaign's plan and record fingerprints, and a content
//! hash per CSV — all deterministic, so two runs at the same flags write
//! byte-identical manifests and
//! `crates/bench/tests/results_of_record.rs` can tell when a file under
//! `results/` is no longer the one its manifest describes.

use std::sync::Arc;
use std::time::Instant;

use ace::{app_table, comparison_table, estimate_app, spearman, structure_table, CompareRow};
use kernels::{all_benchmarks, GoldenRun};
use relia::plan::{variant_label, Layer};
use relia::reuse::{figure12_kernel, readers_until_redef};
use relia::{
    compare_pairs, kernel_metrics, normalized_pair, pair_shares, pct, pct4, CampaignCfg,
    ClassRates, Confidence, HardeningComparison, KernelHardeningRow, Table, TrendItem, SVF_KINDS,
};
use stat::{AdaptiveCfg, Interval, CLASS_KINDS, DEFAULT_BOOTSTRAP_REPS};
use vgpu_arch::Reg;
use vgpu_sim::{FaultPattern, GpuConfig, HwStructure, SwFaultKind};

use crate::driver::{Assembled, Campaign, Key, Targets, SRC_KINDS};

/// Injections per (kernel, structure) of the results of record under
/// `results/`, and the default `--n-uarch` of the commands that write
/// them.
pub const RECORD_N_UARCH: usize = 250;
/// Injections per (kernel, fault kind) of the results of record, and the
/// default `--n-sw` of the commands that write them.
pub const RECORD_N_SW: usize = 500;

/// Everything the paper's figures read about one application.
pub struct AppResults {
    /// AVF and SVF campaigns of the unprotected and the TMR variant.
    pub campaigns: HardeningComparison,
    /// The golden run of the unprotected microarchitecture-level campaign:
    /// Figure 3's utilization profile.
    pub golden: Arc<GoldenRun>,
}

/// The suite's application names, in figure order.
fn suite() -> Vec<&'static str> {
    all_benchmarks().iter().map(|b| b.name()).collect()
}

/// The four campaigns the paper runs on each of `apps`: AVF and SVF,
/// unprotected then TMR.
fn paper_keys(cfg: &CampaignCfg, apps: impl IntoIterator<Item = &'static str>) -> Vec<Key> {
    let of = |app, hardened| {
        [Targets::Structures, Targets::Kinds(&SVF_KINDS)]
            .map(move |targets| Key::of(cfg, app, targets, hardened))
    };
    (apps.into_iter())
        .flat_map(|app| [of(app, false), of(app, true)])
        .flatten()
        .collect()
}

/// The results of [`paper_keys`], application by application.
fn app_results(results: &[&Assembled]) -> Vec<AppResults> {
    (results.chunks(4))
        .map(|of_app| {
            let (base_avf, golden) = of_app[0].avf();
            AppResults {
                campaigns: HardeningComparison {
                    app: base_avf.app.clone(),
                    base_avf: base_avf.clone(),
                    base_svf: of_app[1].svf().clone(),
                    tmr_avf: of_app[2].avf().0.clone(),
                    tmr_svf: of_app[3].svf().clone(),
                },
                golden: golden.clone(),
            }
        })
        .collect()
}

/// A pure function of the results of the applications that were run.
type Projection<T> = fn(&[AppResults], &GpuConfig) -> T;

/// A figure's table, with the summary lines printed under it, from the
/// results of its keys in key order.
type KeyedTable = fn(&CampaignCfg, &[&Assembled]) -> (Table, String);

/// One CSV under `results/`.
pub struct Figure {
    pub file: &'static str,
    source: Source,
}

enum Source {
    /// A projection of the whole suite's four campaigns per application.
    Suite(Projection<Table>),
    /// Figure 3: two kernels (application, kernel index) side by side.
    KernelPair(&'static str, [(&'static str, usize); 2]),
    /// Any other figure: the keys it reads at the run's flags, and its
    /// table.
    Keyed(fn(&CampaignCfg) -> Vec<Key>, KeyedTable),
}
use Source::{KernelPair, Keyed, Suite};

/// Every injection-derived artifact of the paper, in the paper's order,
/// and Figure 12's static reuse sets.
#[rustfmt::skip]
pub const FIGURES: [Figure; 15] = [
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
    Figure { file: "fig12_reuse_sets.csv", source: Keyed(no_keys, fig12_reuse_sets) },
    Figure { file: "fig12_src_injection_modes.csv", source: Keyed(src_keys, fig12_src) },
];

/// The extension studies (EXPERIMENTS.md, "Extensions beyond the paper"),
/// all projections of suite campaigns.
#[rustfmt::skip]
pub const EXTENSIONS: [Figure; 5] = [
    Figure { file: "layers_study.csv", source: Keyed(layers_keys, layers) },
    Figure { file: "ablation_sizing.csv", source: Keyed(ablation_keys, ablation) },
    Figure { file: "fig_fault_model_ranking.csv", source: Keyed(fault_model_keys, fault_model) },
    Figure { file: "fig_twolevel.csv", source: Keyed(twolevel_keys, twolevel) },
    Figure { file: "fig_ace_vs_avf.csv", source: Keyed(ace_keys, ace_vs_avf) },
];

impl Figure {
    /// The campaigns the figure reads, at the run's flags.
    pub fn keys(&self, cfg: &CampaignCfg) -> Vec<Key> {
        match self.source {
            Suite(_) => paper_keys(cfg, suite()),
            KernelPair(_, [(a, _), (b, _)]) => paper_keys(cfg, [a, b]),
            Keyed(keys, _) => keys(cfg),
        }
    }

    /// The figure over the campaigns of a run at flags `cfg`, with the
    /// summary lines to print under it (keyed figures only), or `None` when
    /// a campaign it reads is not among them.
    pub fn render(&self, campaigns: &[Campaign], cfg: &CampaignCfg) -> Option<(Table, String)> {
        let result = |key: &Key| Some(&campaigns.iter().find(|c| c.key == *key)?.result);
        let results: Vec<&Assembled> =
            (self.keys(cfg).iter().map(result)).collect::<Option<_>>()?;
        Some(match self.source {
            Suite(table) => (table(&app_results(&results), &cfg.gpu), String::new()),
            KernelPair(title, [(_, ka), (_, kb)]) => {
                let apps = app_results(&results);
                let table = fig03(title, (&apps[0], ka), (&apps[1], kb), &cfg.gpu);
                (table, String::new())
            }
            Keyed(_, table) => table(cfg, &results),
        })
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

fn no_keys(_: &CampaignCfg) -> Vec<Key> {
    Vec::new()
}

/// Figure 12: the register-reuse sets of the paper's ten-instruction
/// snippet — the instructions a flip of a source register reaches before
/// the register is rewritten (Section V-B's red circles) — with the
/// snippet's disassembly as the summary.
fn fig12_reuse_sets(_: &CampaignCfg, _: &[&Assembled]) -> (Table, String) {
    let k = figure12_kernel();
    let mut t = Table::new(
        "Figure 12: register-reuse sets (fault at instruction #4)",
        &["Register", "Fault at", "Affected instructions"],
    );
    for (reg, at) in [(Reg(0), 3usize), (Reg(3), 3), (Reg(2), 4)] {
        let readers: Vec<String> = (readers_until_redef(&k, at, reg).iter())
            .map(|i| format!("#{}", i + 1))
            .collect();
        t.row(vec![
            format!("R{}", reg.0),
            format!("#{}", at + 1),
            readers.join(" "),
        ]);
    }
    (t, k.disassemble())
}

fn src_keys(cfg: &CampaignCfg) -> Vec<Key> {
    let key = |app| Key::of(cfg, app, Targets::Kinds(&SRC_KINDS), false);
    suite().into_iter().map(key).collect()
}

/// Section V-B's proposal, quantified: per application, the failure rate
/// of source-register flips that last one instruction (what software-level
/// injectors model) against flips every later reader of the register sees
/// (what the proposed reuse analyzer replicates). Each kernel's rate is
/// weighted by its source-reading instructions.
fn fig12_src(_: &CampaignCfg, results: &[&Assembled]) -> (Table, String) {
    let mut t = Table::new(
        "Source-register injection: instantaneous (SrcTransient) vs reuse-replicating (SrcPersistent) failure rates, %",
        &["App", "FR transient", "FR persistent", "underestimation (pp)"],
    );
    let mut higher = 0;
    for r in results.iter().map(|r| r.strata()) {
        let [transient, persistent] = SRC_KINDS.map(|kind| r.app_rates(kind).total());
        higher += (persistent > transient) as usize;
        let gap = format!("{:+.2}", (persistent - transient) * 100.0);
        t.row(vec![r.app.clone(), pct(transient), pct(persistent), gap]);
    }
    let summary = format!(
        "reuse-replicating above instantaneous in {higher} of {} applications",
        results.len()
    );
    (t, summary)
}

// ---------------------------------------------------------------------
// Extensions beyond the paper
// ---------------------------------------------------------------------

fn layers_keys(cfg: &CampaignCfg) -> Vec<Key> {
    let targets = [
        Targets::Kinds(&SVF_KINDS),
        Targets::Kinds(&[SwFaultKind::ArchState]),
        Targets::Structures,
    ];
    let of_app = |app| targets.map(|targets| Key::of(cfg, app, targets, false));
    suite().into_iter().flat_map(of_app).collect()
}

/// The **three-layer** vulnerability comparison (SVF vs PVF vs AVF) — the
/// GPU analogue of the CPU cross-layer stack the paper's related work
/// builds on (Papadimitriou & Gizopoulos, ISCA'21; Sridharan & Kaeli's
/// PVF). Decomposes the software-level estimation error into its two
/// sources: SVF → PVF, the fault-origin population (destination values of
/// executed instructions vs the whole live architectural register state),
/// and PVF → AVF, hardware masking + derating (dead/unallocated entries,
/// cache evictions, structure sizes).
fn layers(cfg: &CampaignCfg, results: &[&Assembled]) -> (Table, String) {
    let mut t = Table::new(
        "Three-layer comparison: SVF (software) vs PVF (architectural state) vs AVF (cross-layer), %",
        &["App", "SVF", "PVF", "AVF", "SVF/PVF", "PVF/AVF"],
    );
    let mut items_sp = Vec::new(); // SVF vs PVF ranking agreement
    let mut items_pa = Vec::new(); // PVF vs AVF ranking agreement
    for of_app in results.chunks(3) {
        let app = &of_app[0].svf().app;
        let svf = of_app[0].svf().app_svf().total();
        let pvf = of_app[1].pvf().app_pvf().total();
        let avf = of_app[2].avf().0.app_avf(&cfg.gpu).total();
        t.row(vec![
            app.clone(),
            pct(svf),
            pct(pvf),
            pct4(avf),
            format!("{:.2}x", svf / pvf.max(1e-9)),
            format!("{:.0}x", pvf / avf.max(1e-9)),
        ]);
        let item = |a, b| TrendItem {
            name: app.clone(),
            a,
            b,
        };
        items_sp.push(item(svf, pvf));
        items_pa.push(item(pvf, avf));
    }
    let sp = compare_pairs(&items_sp);
    let pa = compare_pairs(&items_pa);
    let summary = format!(
        "ranking agreement: SVF-vs-PVF {}/{} consistent, PVF-vs-AVF {}/{} consistent\n\
         → most of the *ranking* error appears below the architectural level\n\
         (hardware masking + derating), matching the paper's Insight #6.",
        sp.consistent,
        sp.total(),
        pa.consistent,
        pa.total()
    );
    (t, summary)
}

const ABLATION_APPS: [&str; 3] = ["HotSpot", "LUD", "SCP"];
const ABLATION_SMS: [u32; 3] = [2, 4, 8];

fn ablation_keys(cfg: &CampaignCfg) -> Vec<Key> {
    let key = |app| Key::of(cfg, app, Targets::Structures, false);
    let of_sizing = |sms| ABLATION_APPS.map(|app| Key { sms, ..key(app) });
    ABLATION_SMS.into_iter().flat_map(of_sizing).collect()
}

/// How the chip AVF depends on design choices the methodology bakes in —
/// SM count (changes derating factors and the L2 share of the chip's bit
/// budget) and the structure-size weighting itself. Probes the paper's
/// threat-to-validity discussion (Section VI, "GPU devices": absolute
/// values shift with sizing, relative trends should not) by recomputing
/// three applications' AVFs under different GPU sizings and reporting
/// whether the HotSpot > LUD *ranking* survives.
fn ablation(_: &CampaignCfg, results: &[&Assembled]) -> (Table, String) {
    let mut t = Table::new(
        "Ablation: chip AVF under different GPU sizings, %",
        &[
            "SMs",
            "RF share",
            "App",
            "AVF",
            "AVF-RF",
            "AVF-L2",
            "rank(HotSpot>LUD)",
        ],
    );
    for (of_sizing, sms) in results.chunks(ABLATION_APPS.len()).zip(ABLATION_SMS) {
        let gpu = GpuConfig::volta_scaled(sms);
        let rf_share = gpu.structure_bits(HwStructure::RegFile) as f64 / gpu.total_bits() as f64;
        let avfs: Vec<_> = (of_sizing.iter())
            .map(|r| (r.avf().0, r.avf().0.app_avf(&gpu).total()))
            .collect();
        let rank_holds = avfs[0].1 > avfs[1].1; // HotSpot vs LUD
        for (r, avf) in &avfs {
            t.row(vec![
                sms.to_string(),
                format!("{:.0}%", rf_share * 100.0),
                r.app.clone(),
                pct4(*avf),
                pct4(r.app_avf_structure(HwStructure::RegFile).total()),
                pct4(r.app_avf_structure(HwStructure::L2).total()),
                if rank_holds {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
    (t, String::new())
}

fn fault_model_keys(cfg: &CampaignCfg) -> Vec<Key> {
    let base = paper_keys(cfg, suite()).into_iter().filter(|k| !k.hardened);
    let of_pattern = |pattern| base.clone().map(move |k| Key { pattern, ..k });
    FaultPattern::ALL.into_iter().flat_map(of_pattern).collect()
}

/// One (app, kernel) measurement under one fault pattern.
struct Point {
    app: String,
    kernel: String,
    avf: f64,
    svf: f64,
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

/// The cross-layer ranking analysis under every [`FaultPattern`] —
/// multi-bit transients (adjacent double, whole entry, row/column bursts)
/// and persistent stuck-at cells — asking the paper's question again for
/// each: *does the software-level ranking survive?* Per pattern: the
/// Spearman rank correlation of the per-kernel AVF (and SVF) vector
/// against the single-bit baseline — how much the fault model itself
/// reshuffles the vulnerability ranking at each layer — and the
/// SVF-vs-AVF pairwise ranking agreement (the Table I / Insight #6
/// inversion analysis), re-run under that pattern.
fn fault_model(cfg: &CampaignCfg, results: &[&Assembled]) -> (Table, String) {
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
    // Per-kernel points of the whole suite, indexed like `FaultPattern::ALL`.
    let all: Vec<Vec<Point>> = (results.chunks(results.len() / FaultPattern::ALL.len()))
        .map(|of_pattern| {
            let mut points = Vec::new();
            for of_app in of_pattern.chunks(2) {
                let (uarch, sw) = (of_app[0].avf().0, of_app[1].svf());
                for (ku, ks) in uarch.kernels.iter().zip(&sw.kernels) {
                    assert_eq!(ku.kernel, ks.kernel, "layer kernel order must agree");
                    points.push(Point {
                        app: uarch.app.clone(),
                        kernel: ku.kernel.clone(),
                        avf: ku.chip_avf(&cfg.gpu).total(),
                        svf: ks.svf().total(),
                    });
                }
            }
            points
        })
        .collect();
    let single_bit = (FaultPattern::ALL.iter())
        .position(|&p| p == FaultPattern::SingleBit)
        .expect("single-bit is a pattern");
    let base = &all[single_bit];
    let mut summary = Vec::new();
    for (&p, pts) in FaultPattern::ALL.iter().zip(&all) {
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
        let trend = compare_pairs(&items);
        summary.push(format!(
            "{:>15}: spearman vs single-bit AVF {rho_avf} / SVF {rho_svf}, \
             SVF-vs-AVF ranking {}/{} pairs consistent",
            p.label(),
            trend.consistent,
            trend.total()
        ));
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
    (t, summary.join("\n"))
}

/// Trials per (kernel, instruction class) of the two-level study's class
/// campaign, and the adaptive arm's cap, unless `--n-sw` is smaller.
const TWOLEVEL_CAP: usize = 128;
/// The two-level arm's sample per (kernel, instruction class).
const TWOLEVEL_N: usize = 24;

fn twolevel_keys(cfg: &CampaignCfg) -> Vec<Key> {
    let of_app = |app| {
        let svf = Key::of(cfg, app, Targets::Kinds(&SVF_KINDS), false);
        let classes = Key {
            targets: Targets::Kinds(&CLASS_KINDS),
            n: cfg.n_sw.min(TWOLEVEL_CAP),
            ..svf.clone()
        };
        [svf, classes]
    };
    suite().into_iter().flat_map(of_app).collect()
}

/// The two-level SDC model (docs/TWOLEVEL.md) against full injection, per
/// kernel, with three arms that each read one campaign:
///
/// - **full** — the SVF campaign's dest-value stratum, the reference;
/// - **two-level** — the first [`TWOLEVEL_N`] trials of every instruction
///   class, class rates propagated through population shares (Wilson
///   band per class; bootstrap interval per application in the summary);
/// - **adaptive** — the class strata sized by CI (±0.1, waves of 8, cap
///   [`TWOLEVEL_CAP`]), replayed over the class campaign's records, and
///   the uniform design with the same guarantee (every class stratum of
///   the kernel at its worst stratum's count).
fn twolevel(cfg: &CampaignCfg, results: &[&Assembled]) -> (Table, String) {
    let mut t = Table::new(
        format!(
            "Two-level vs full-injection SDC per kernel (seed {:#x})",
            cfg.seed
        ),
        &[
            "app",
            "kernel",
            "full_sdc",
            "twolevel_sdc",
            "twolevel_lo",
            "twolevel_hi",
            "err_twolevel",
            "full_trials",
            "twolevel_trials",
            "adaptive_trials",
            "adaptive_uniform",
        ],
    );
    let cap = cfg.n_sw.min(TWOLEVEL_CAP);
    let acfg = AdaptiveCfg::new(0.1, 8.min(cap), cap);
    let mut summary = Vec::new();
    let (mut fulls, mut twos, mut adaptive_total, mut uniform_total) = (vec![], vec![], 0, 0);
    for of_app in results.chunks(2) {
        let (full, classes) = (of_app[0].svf(), of_app[1].strata());
        let two = classes.two_level(TWOLEVEL_N, Confidence::C95, DEFAULT_BOOTSTRAP_REPS);
        let adaptive = classes.adaptive(&acfg);
        for (k, (kf, kt)) in full.kernels.iter().zip(&two.kernels).enumerate() {
            let sizes = (adaptive.strata.iter().filter(|s| s.kernel_idx == k)).map(|s| s.n);
            let trials: usize = sizes.clone().sum();
            let uniform = sizes.clone().max().unwrap_or(0) * sizes.count();
            let band = |end: fn(&Interval) -> f64| -> f64 {
                kt.classes.iter().map(|c| c.share * end(&c.sdc_ci)).sum()
            };
            let (f, two_sdc) = (kf.counts.rates().sdc, kt.sdc());
            let (lo, hi) = (band(|i| i.lo), band(|i| i.hi));
            let rates = [f, two_sdc, lo, hi, (two_sdc - f).abs()].map(|x| format!("{x:.6}"));
            let n_two = kt.classes.len() * TWOLEVEL_N.min(cap);
            let counts =
                [kf.counts.total() as usize, n_two, trials, uniform].map(|n| n.to_string());
            let cells = [kf.kernel.clone()].into_iter().chain(rates).chain(counts);
            t.row(row(full.app.clone(), cells));
            fulls.push(f);
            twos.push(two_sdc);
            adaptive_total += trials;
            uniform_total += uniform;
        }
        summary.push(format!(
            "{}: two-level SDC {:.4} in [{:.4}, {:.4}] (bootstrap, 95%); adaptive {} waves",
            two.app, two.sdc, two.sdc_ci.lo, two.sdc_ci.hi, adaptive.waves,
        ));
    }
    let rho = spearman(&twos, &fulls).map_or("undefined".to_string(), |r| format!("{r:.4}"));
    let errors = fulls.iter().zip(&twos).map(|(f, t)| (t - f).abs());
    let mae = errors.sum::<f64>() / fulls.len().max(1) as f64;
    summary.push(format!(
        "spearman(two-level, full) = {rho}, MAE {mae:.6} over {} kernels",
        fulls.len()
    ));
    summary.push(format!(
        "adaptive (CI ±{}): {adaptive_total} trials vs uniform {uniform_total} -> savings {:.2}x",
        acfg.ci_target,
        uniform_total as f64 / adaptive_total.max(1) as f64
    ));
    (t, summary.join("\n"))
}

fn ace_keys(cfg: &CampaignCfg) -> Vec<Key> {
    let key = |app| Key::of(cfg, app, Targets::Structures, false);
    suite().into_iter().map(key).collect()
}

/// The analytic ACE estimate (docs/ACE.md) against injection AVF, per
/// (kernel, structure) point, with the mean absolute error and Spearman
/// rank correlation per structure and over all points. The injection side
/// is each application's AVF campaign; the analytic side is one
/// instrumented fault-free run per application. The summary holds the
/// analytic estimates per kernel and per application, the overall
/// Spearman and each application's ACE pass in ms — machine-dependent,
/// so printed only, like `wall.csv`'s seconds.
fn ace_vs_avf(cfg: &CampaignCfg, results: &[&Assembled]) -> (Table, String) {
    let gpu = &cfg.gpu;
    let mut pass = Table::new("ACE pass per application, ms", &["app", "ace_ms"]);
    let (mut estimates, mut points) = (Vec::new(), Vec::new());
    for (bench, r) in all_benchmarks().iter().zip(results) {
        let t0 = Instant::now();
        let est = estimate_app(bench.as_ref(), gpu);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        pass.row(vec![est.app.clone(), format!("{ms:.1}")]);
        let injected = r.avf().0;
        for (k, inj) in est.kernels.iter().zip(&injected.kernels) {
            let (analytic, measured) = ((&est.app, &k.kernel), (&injected.app, &inj.kernel));
            assert_eq!(analytic, measured, "the two sides name the same kernels");
            points.extend(HwStructure::ALL.map(|h| CompareRow {
                app: est.app.clone(),
                kernel: k.kernel.clone(),
                structure: h,
                analytic: k.avf(gpu, h),
                injected: inj.avf(h).total(),
            }));
        }
        estimates.push(est);
    }
    let xs: Vec<f64> = points.iter().map(|p| p.analytic).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.injected).collect();
    let rho = spearman(&xs, &ys).map_or("undefined".to_string(), |r| format!("{r:.4}"));
    let summary = format!(
        "{}\n{}\nspearman(analytic, injection) = {rho} over {} points\n\n{pass}",
        structure_table(&estimates, gpu, &HwStructure::ALL),
        app_table(&estimates, gpu),
        points.len(),
    );
    (
        comparison_table(&points),
        summary.trim_end_matches('\n').to_string(),
    )
}

/// `MANIFEST.csv` / `MANIFEST.extensions.csv`: what a directory of figure
/// CSVs was made from. `flag` rows are the settings that determine the
/// records (the backend is not one: records are identical on every
/// backend), `campaign` rows carry each campaign's trial count and plan /
/// record fingerprints, `csv` rows the FNV-1a hash
/// ([`relia::plan::str_tag`]) of every CSV written next to it — what
/// `results_of_record.rs` recomputes.
pub fn manifest(cfg: &CampaignCfg, campaigns: &[Campaign], csvs: &[(&str, u64)]) -> Table {
    let mut t = Table::new(
        "MANIFEST: flags, campaigns and CSV hashes of this run",
        &["Record", "Name", "Value", "Trials", "Plan", "Records"],
    );
    let hex = |v: u64| format!("{v:#018x}");
    let mut push = |cells: [&str; 6]| t.row(cells.map(String::from).to_vec());
    for (name, value) in [
        ("n_uarch", cfg.n_uarch.to_string()),
        ("n_sw", cfg.n_sw.to_string()),
        ("seed", cfg.seed.to_string()),
        ("sms", cfg.gpu.num_sms.to_string()),
        ("fault_model", cfg.pattern.label().to_string()),
    ] {
        push(["flag", name, &value, "", "", ""]);
    }
    for c in campaigns {
        let (plan, records) = (hex(c.plan_fp), hex(c.records_fp));
        push([
            "campaign",
            &c.name,
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

/// `wall.csv` / `wall.extensions.csv`: what this invocation spent per
/// campaign, then per campaign kind — the regeneration wall, measured.
pub fn wall(campaigns: &[Campaign]) -> Table {
    let mut t = Table::new(
        "Wall time of this invocation (golden run + plan + execute + assemble), s",
        &["Campaign", "Trials", "Executed", "Wall_s"],
    );
    let mut sum = |name: &str, of: &[&Campaign]| {
        let trials: usize = of.iter().map(|c| c.trials).sum();
        let executed: usize = of.iter().map(|c| c.executed).sum();
        let wall_s: f64 = of.iter().map(|c| c.wall_s).sum();
        let cells = [trials, executed].map(|n| n.to_string());
        let cells = cells.into_iter().chain([format!("{wall_s:.2}")]);
        t.row(row(name.to_string(), cells));
    };
    for c in campaigns {
        sum(&c.name, &[c]);
    }
    for layer in [Layer::Uarch, Layer::Sw] {
        for hardened in [false, true] {
            let kind: Vec<&Campaign> = (campaigns.iter())
                .filter(|c| c.key.targets.layer() == layer && c.key.hardened == hardened)
                .collect();
            if !kind.is_empty() {
                let name = format!("total.{}.{}", layer.label(), variant_label(hardened));
                sum(&name, &kind);
            }
        }
    }
    sum("total", &campaigns.iter().collect::<Vec<_>>());
    t
}
