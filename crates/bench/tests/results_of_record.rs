//! `results/` holds results of record: the figure CSVs there are the ones
//! `results/MANIFEST.csv` describes — written by one `campaign paper` run
//! at the sample size the bare command defaults to — and they show the
//! paper's shapes (DESIGN.md §6). No simulation: everything is read from
//! the committed files, so a smaller run that overwrites any of them
//! (the n = 3 smoke that sat in `fig01` for eighteen PRs) fails here.

use std::collections::HashMap;

use bench::cli::DEFAULT_SEED;
use bench::figures::{FIGURES, RECORD_N_SW, RECORD_N_UARCH};
use relia::plan::str_tag;

fn read(file: &str) -> String {
    let path = bench::results_dir().join(file);
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

#[test]
fn every_csv_is_the_one_the_manifest_describes() {
    let rows = csv("MANIFEST.csv");
    assert_eq!(
        rows[0],
        ["Record", "Name", "Value", "Trials", "Plan", "Records"]
    );
    let of = |kind: &str| -> Vec<&Vec<String>> { rows.iter().filter(|r| r[0] == kind).collect() };
    let flags: HashMap<&str, &str> = (of("flag").iter())
        .map(|r| (r[1].as_str(), r[2].as_str()))
        .collect();
    // Recorded at (at least) the advertised sample size, and at exactly
    // the flags the bare `campaign paper --out-dir results` runs with.
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

    // 11 applications x {uarch, sw} x {base, tmr}, each exactly once.
    let campaigns = of("campaign");
    assert_eq!(campaigns.len(), 44);
    let mut names: Vec<&str> = campaigns.iter().map(|r| r[1].as_str()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 44, "a campaign is listed twice");
    let trials = |layer: &str| -> usize {
        (campaigns.iter())
            .filter(|r| r[1].contains(layer))
            .map(|r| r[3].parse::<usize>().unwrap())
            .sum()
    };
    // 23 kernels x 5 structures (x 2 sw kinds) x n, unprotected + TMR.
    assert_eq!(trials(".uarch."), 2 * 23 * 5 * n("n_uarch"));
    assert_eq!(trials(".sw."), 2 * 23 * 2 * n("n_sw"));

    // Every figure is listed, and every listed file still has the bytes
    // the run wrote.
    let csvs = of("csv");
    let listed: Vec<&str> = csvs.iter().map(|r| r[1].as_str()).collect();
    let figures: Vec<&str> = FIGURES.iter().map(|f| f.file).collect();
    assert_eq!(listed, figures);
    for r in csvs {
        assert_eq!(
            format!("{:#018x}", str_tag(&read(&r[1]))),
            r[2],
            "results/{} is not the file results/MANIFEST.csv describes — regenerate all of \
             them with `campaign paper --out-dir results`, never one by hand",
            r[1]
        );
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
