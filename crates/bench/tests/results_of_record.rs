//! `results/` holds results of record: the figure CSVs there are the ones
//! `results/MANIFEST.csv` and `results/MANIFEST.extensions.csv` describe —
//! written by one `campaign paper` and one `campaign extensions` run at
//! the sample size the bare commands default to, against one journal set
//! — and they show the paper's shapes (DESIGN.md §6) and what
//! EXPERIMENTS.md claims of the extensions. No simulation: everything is
//! read from the committed files, so a smaller run that overwrites any of
//! them (the n = 3 smoke that sat in `fig01` for eighteen PRs) fails here.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use ace::spearman;
use bench::cli::DEFAULT_SEED;
use bench::figures::{Figure, EXTENSIONS, FIGURES, RECORD_N_SW, RECORD_N_UARCH};
use relia::plan::str_tag;

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn read(file: &str) -> String {
    let path = results().join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The rows of a results CSV as cells, header first. None of these files
/// quotes a cell.
fn csv(file: &str) -> Vec<Vec<String>> {
    let text = read(file);
    assert!(!text.contains('"'), "{file}: quoted cell");
    (text.lines())
        .map(|l| l.split(',').map(String::from).collect())
        .collect()
}

/// A results CSV keyed by its first column: label → (header → value).
fn table(file: &str) -> Vec<(String, HashMap<String, f64>)> {
    let rows = csv(file);
    let header = &rows[0];
    (rows[1..].iter())
        .map(|r| {
            let cells = (header[1..].iter().zip(&r[1..]))
                .filter_map(|(h, v)| Some((h.clone(), v.parse().ok()?)))
                .collect();
            (r[0].clone(), cells)
        })
        .collect()
}

/// Check that `manifest` was written at exactly the flags the bare
/// command runs with, lists every figure of `figures`, and that every
/// file it lists still has the bytes the run wrote. Returns its
/// `campaign` rows.
fn campaigns_of(manifest: &str, command: &str, figures: &[Figure]) -> Vec<Vec<String>> {
    let rows = csv(manifest);
    assert_eq!(
        rows[0],
        ["Record", "Name", "Value", "Trials", "Plan", "Records"]
    );
    let of = |kind: &str| -> Vec<&Vec<String>> { rows.iter().filter(|r| r[0] == kind).collect() };
    let flags: HashMap<&str, &str> = (of("flag").iter())
        .map(|r| (r[1].as_str(), r[2].as_str()))
        .collect();
    // Recorded at (at least) the advertised sample size.
    let n = |name: &str| flags[name].parse::<usize>().unwrap();
    assert!(n("n_uarch") >= 250 && n("n_sw") >= 500, "{flags:?}");
    assert_eq!((n("n_uarch"), n("n_sw")), (RECORD_N_UARCH, RECORD_N_SW));
    assert_eq!(flags["seed"], DEFAULT_SEED.to_string());
    assert_eq!(flags["sms"], "4");
    assert_eq!(flags["fault_model"], "single-bit");
    assert_eq!(
        (flags["wall_limit_us"], flags["cycle_limit"]),
        ("none", "none")
    );

    let csvs = of("csv");
    let listed: Vec<&str> = csvs.iter().map(|r| r[1].as_str()).collect();
    let files: Vec<&str> = figures.iter().map(|f| f.file).collect();
    assert_eq!(listed, files, "{manifest}");
    for r in csvs {
        assert_eq!(
            format!("{:#018x}", str_tag(&read(&r[1]))),
            r[2],
            "results/{} is not the file results/{manifest} describes — regenerate all of \
             them with `{command} --out-dir results`, never one by hand",
            r[1]
        );
    }
    let campaigns: Vec<Vec<String>> = of("campaign").into_iter().cloned().collect();
    let mut names: Vec<&str> = campaigns.iter().map(|r| r[1].as_str()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), campaigns.len(), "a campaign is listed twice");
    campaigns
}

/// The trials of the campaigns whose name satisfies `named`.
fn trials(campaigns: &[Vec<String>], named: impl Fn(&str) -> bool) -> usize {
    (campaigns.iter().filter(|r| named(&r[1])))
        .map(|r| r[3].parse::<usize>().unwrap())
        .sum()
}

/// The FNV-1a hash of the `campaign` rows whose name satisfies `named`,
/// as CSV lines joined by newlines.
fn rows_hash(campaigns: &[Vec<String>], named: impl Fn(&str) -> bool) -> String {
    let rows: Vec<String> = (campaigns.iter().filter(|r| named(&r[1])))
        .map(|r| r.join(","))
        .collect();
    format!("{:#018x}", str_tag(&rows.join("\n")))
}

#[test]
fn every_csv_is_the_one_the_manifest_describes() {
    // 11 applications x {uarch, sw} x {base, tmr}, each exactly once:
    // 23 kernels x 5 structures (x 2 sw kinds) x n, unprotected + TMR;
    // and Figure 12's unprotected source-register campaign (2 kinds).
    let paper = campaigns_of("MANIFEST.csv", "campaign paper", &FIGURES);
    assert_eq!(paper.len(), 44 + 11);
    let src = |c: &str| c.ends_with(".src");
    assert_eq!(
        trials(&paper, |c| c.contains(".uarch.")),
        2 * 23 * 5 * RECORD_N_UARCH
    );
    assert_eq!(
        trials(&paper, |c| c.contains(".sw.") && !src(c)),
        2 * 23 * 2 * RECORD_N_SW
    );
    assert_eq!(trials(&paper, src), 23 * 2 * RECORD_N_SW);
    // The 44 campaigns the paper's figures read are the ones recorded
    // before Figure 12 joined the set, row for row.
    assert_eq!(rows_hash(&paper, |c| !src(c)), "0x370078fbf618aaf9");

    // The 22 unprotected ones again — the same journals, so the same
    // rows — plus 11 PVF campaigns (one stratum per kernel), HotSpot /
    // LUD / SCP (1 + 3 + 1 kernels) at 2 and 8 SMs, 6 patterns x 22 and
    // the two-level study's 11 instruction-class campaigns (6 classes).
    let ext = campaigns_of(
        "MANIFEST.extensions.csv",
        "campaign extensions",
        &EXTENSIONS,
    );
    assert_eq!(ext.len(), 22 + 11 + 6 + 6 * 22 + 11);
    let classes = |c: &str| c.contains(".classes");
    assert_eq!(trials(&ext, classes), 23 * 6 * 128);
    // The other 171 are the ones recorded before the two-level study
    // joined the set, row for row — but for the record fingerprints of
    // five: a shared-memory address that wraps is a DUE now, where the
    // trial used to panic twice and count as a Timeout (11 trials; no CSV
    // changed).
    assert_eq!(rows_hash(&ext, |c| !classes(c)), "0x6f0b837a0f11a4d1");
    let shared: Vec<&Vec<String>> = (paper.iter().filter(|r| r[1].ends_with(".base"))).collect();
    assert_eq!(shared.len(), 22);
    for row in shared {
        assert!(ext.contains(row), "{row:?} is not the campaign paper ran");
    }
    assert_eq!(trials(&ext, |c| c.ends_with(".pvf")), 23 * RECORD_N_SW);
    assert_eq!(
        trials(&ext, |c| c.contains(".sms")),
        2 * 5 * 5 * RECORD_N_UARCH
    );
    assert_eq!(
        trials(&ext, |c| c.contains(".stuck-at-0")),
        23 * 5 * RECORD_N_UARCH + 23 * 2 * RECORD_N_SW
    );

    // Every other CSV under results/ is a manifest or a wall table.
    let figures = FIGURES.iter().chain(&EXTENSIONS).map(|f| f.file);
    let mut described: Vec<&str> = figures.collect();
    described.extend(["MANIFEST.csv", "MANIFEST.extensions.csv"]);
    described.extend(["wall.csv", "wall.extensions.csv"]);
    for entry in std::fs::read_dir(results()).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let csv = name.ends_with(".csv");
        assert!(
            !csv || described.contains(&name.as_str()),
            "results/{name}: no manifest"
        );
    }
}

/// EXPERIMENTS.md, three-layer decomposition: SVF > PVF > AVF for every
/// application.
#[test]
fn shape_svf_above_pvf_above_avf_for_every_application() {
    let layers = table("layers_study.csv");
    assert_eq!(layers.len(), 11);
    for (app, v) in &layers {
        assert!(
            v["SVF"] > v["PVF"] && v["PVF"] > v["AVF"],
            "{app}: SVF {} PVF {} AVF {}",
            v["SVF"],
            v["PVF"],
            v["AVF"]
        );
    }
}

/// EXPERIMENTS.md, sizing ablation: absolute AVFs move with the SM count,
/// the HotSpot > LUD ranking does not.
#[test]
fn shape_hotspot_above_lud_at_every_gpu_sizing() {
    let rows = csv("ablation_sizing.csv");
    let avf = |sms: &str, app: &str| -> f64 {
        let row = (rows.iter().find(|r| r[0] == sms && r[2] == app))
            .unwrap_or_else(|| panic!("no row for {app} at {sms} SMs"));
        assert_eq!(row[6], "yes", "{row:?}");
        row[3].parse().unwrap()
    };
    assert_eq!(rows.len(), 1 + 9);
    for sms in ["2", "4", "8"] {
        assert!(avf(sms, "HotSpot") > avf(sms, "LUD"), "{sms} SMs");
    }
}

/// DESIGN.md §6, shape 1: SVF ≫ AVF.
#[test]
fn shape_svf_far_above_avf_for_every_application() {
    let fig01 = table("fig01_app_avf_svf.csv");
    assert_eq!(fig01.len(), 11);
    for (app, v) in &fig01 {
        assert!(
            v["SVF"] > 5.0 * v["AVF"],
            "{app}: SVF {} vs AVF {}",
            v["SVF"],
            v["AVF"]
        );
    }
}

/// Shape 2: a substantial minority of pairs flip ranking between AVF and
/// SVF, and the cache comparison flips more than the register-file one.
#[test]
fn shape_a_substantial_minority_of_rankings_flip() {
    let tab1: HashMap<String, HashMap<String, f64>> =
        table("tab1_trends.csv").into_iter().collect();
    let opposite = |row: &str| {
        let r = &tab1[row];
        r["Opposite"] / (r["Consistent"] + r["Opposite"])
    };
    for (row, pairs) in [("Application-Level", 55.0), ("Kernel-Level", 253.0)] {
        assert_eq!(tab1[row]["Consistent"] + tab1[row]["Opposite"], pairs);
        let share = opposite(row);
        assert!((0.35..=0.65).contains(&share), "{row}: {share:.2} opposite");
    }
    let (rf, cache) = (opposite("AVF-RF vs. SVF"), opposite("AVF-Cache vs. SVF-LD"));
    assert!(
        cache > rf,
        "AVF-Cache/SVF-LD {cache:.2} vs AVF-RF/SVF {rf:.2}"
    );
}

/// Shape 4: under TMR the software level sees SDCs all but vanish while
/// the microarchitecture level still has them, and the failures that
/// remain shift towards DUEs. "All but": a software-level flip inside the
/// vote kernel itself still corrupts the output, so a residue of a few
/// percent survives where the unprotected kernels show 10–75 % (at
/// n = 500: at most 4.6 %, LUD K1; suite mean 1.2 %) — the gate is a
/// collapse to a quarter or under 1 %, below 5 % everywhere, not the
/// exact zero a smaller sample suggests.
#[test]
fn shape_tmr_removes_svf_sdcs_but_not_avf_sdcs_and_due_share_rises() {
    let fig07 = table("fig07_hardened_avf_svf.csv");
    let fig08 = table("fig08_hardened_sdc.csv");
    let fig09 = table("fig09_hardened_due_timeout.csv");
    assert_eq!((fig07.len(), fig08.len(), fig09.len()), (23, 23, 23));
    // SVF-SDC = SVF − Timeout − DUE (two-decimal cells, so the difference
    // carries up to ±0.015 of rounding).
    let mut mean_tmr = 0.0;
    for ((kernel, total), (_, parts)) in fig07.iter().zip(&fig09) {
        let sdc = |v: &str| {
            total[&format!("SVF_{v}")]
                - parts[&format!("SVF-TO_{v}")]
                - parts[&format!("SVF-DUE_{v}")]
        };
        let (base, tmr) = (sdc("base"), sdc("TMR"));
        assert!(
            tmr <= 5.0 && tmr <= (base / 4.0).max(1.0) + 0.02,
            "{kernel}: SVF-SDC {base:.2} % unprotected, {tmr:.2} % under TMR"
        );
        mean_tmr += tmr / fig07.len() as f64;
    }
    assert!(mean_tmr <= 2.0, "mean SVF-SDC under TMR {mean_tmr:.2} %");
    let surviving = (fig08.iter())
        .filter(|(_, v)| v["AVF-SDC_TMR"] > 0.0)
        .count();
    assert!(surviving > 0, "no kernel keeps an AVF-SDC under TMR");
    let sum = |t: &[(String, HashMap<String, f64>)], col: &str| -> f64 {
        t.iter().map(|(_, v)| v[col]).sum()
    };
    let due_base = sum(&fig09, "AVF-DUE_base") / sum(&fig07, "AVF_base");
    let due_tmr = sum(&fig09, "AVF-DUE_TMR") / sum(&fig07, "AVF_TMR");
    assert!(
        due_tmr > due_base,
        "DUE share of AVF: {due_base:.3} unprotected, {due_tmr:.3} under TMR"
    );
}

/// Figure 12: a flip of `R0` at instruction #4 reaches #5 and #7, where
/// `R0` is rewritten (Section V-B's red circles).
#[test]
fn shape_the_reuse_set_of_r0_at_4_is_5_and_7() {
    let rows = csv("fig12_reuse_sets.csv");
    let r0 = (rows.iter().find(|r| r[0] == "R0")).expect("an R0 row");
    assert_eq!(r0[1..], ["#4", "#5 #7"]);
}

/// EXPERIMENTS.md, two-level study: the two-level estimate ranks the
/// kernels like full injection does (Spearman >= 0.7), and CI-driven
/// sizing needs at most half the trials of the uniform design with the
/// same guarantee.
#[test]
fn shape_two_level_ranks_like_full_injection_and_adaptive_halves_the_trials() {
    let fig = table("fig_twolevel.csv");
    assert_eq!(fig.len(), 23);
    let col = |name: &str| -> Vec<f64> { fig.iter().map(|(_, v)| v[name]).collect() };
    let rho = spearman(&col("twolevel_sdc"), &col("full_sdc")).expect("a ranking");
    assert!(rho >= 0.7, "spearman(two-level, full) = {rho:.4}");
    let sum = |name: &str| col(name).iter().sum::<f64>();
    let savings = sum("adaptive_uniform") / sum("adaptive_trials");
    assert!(savings >= 2.0, "adaptive savings {savings:.2}x");
}

/// EXPERIMENTS.md, ACE estimator: the analytic estimate ranks the 115
/// (kernel, structure) points like injection does — Spearman >= 0.7 over
/// all of them, the acceptance threshold of docs/ACE.md.
#[test]
fn shape_ace_ranks_the_points_like_injection() {
    let rows = csv("fig_ace_vs_avf.csv");
    let points = rows[1..].iter().filter(|r| r[0] != "SUMMARY").count();
    assert_eq!(points, 23 * 5);
    let all = (rows.iter().find(|r| r[0] == "SUMMARY" && r[2] == "ALL")).expect("an ALL row");
    let rho: f64 = all[6].parse().unwrap_or_else(|_| panic!("{all:?}"));
    assert!(rho >= 0.7, "spearman(analytic, injection) = {rho:.4}");
}
