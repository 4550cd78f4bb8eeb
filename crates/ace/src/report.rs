//! Comparison and summary tables for the ACE estimator (the
//! `fig_ace_vs_avf` figure data).

use relia::report::{pct4, Table};
use vgpu_sim::{GpuConfig, HwStructure};

use crate::corr::{mean_abs_error, spearman};
use crate::estimate::AceAppEstimate;

/// One (kernel, structure) point of the estimator-vs-injection
/// cross-validation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    pub app: String,
    pub kernel: String,
    pub structure: HwStructure,
    /// Analytic ACE estimate (fraction).
    pub analytic: f64,
    /// Recorded injection AVF (fraction, derated unsafe total).
    pub injected: f64,
}

/// Per-kernel analytic AVF, one column per requested structure plus the
/// size-weighted chip AVF (all values in percent).
pub fn structure_table(
    estimates: &[AceAppEstimate],
    gpu: &GpuConfig,
    structures: &[HwStructure],
) -> Table {
    let mut headers = vec!["app", "kernel", "cycles"];
    headers.extend(structures.iter().map(|h| h.label()));
    headers.push("chip");
    let mut t = Table::new("ACE analytic AVF per kernel (%)", &headers);
    for est in estimates {
        for k in &est.kernels {
            let mut cells = vec![est.app.clone(), k.kernel.clone(), k.cycles.to_string()];
            cells.extend(structures.iter().map(|&h| pct4(k.avf(gpu, h))));
            cells.push(pct4(k.chip_avf(gpu)));
            t.row(cells);
        }
    }
    t
}

/// App-level analytic AVF from the final totals (includes the L2
/// end-of-application residual).
pub fn app_table(estimates: &[AceAppEstimate], gpu: &GpuConfig) -> Table {
    let mut headers = vec!["app", "cycles", "events"];
    headers.extend(HwStructure::ALL.iter().map(|h| h.label()));
    headers.push("chip");
    let mut t = Table::new("ACE analytic AVF per app (%)", &headers);
    for est in estimates {
        let mut cells = vec![
            est.app.clone(),
            est.total_cycles.to_string(),
            est.events.to_string(),
        ];
        cells.extend(
            HwStructure::ALL
                .iter()
                .map(|&h| pct4(est.app_avf_structure(gpu, h))),
        );
        cells.push(pct4(est.app_avf(gpu)));
        t.row(cells);
    }
    t
}

/// The cross-validation table: one row per (kernel, structure) point with
/// both estimates and the absolute error, followed by per-structure and
/// overall summary rows carrying Spearman rank correlation and mean
/// absolute error. This is the `fig_ace_vs_avf.csv` payload.
pub fn comparison_table(rows: &[CompareRow]) -> Table {
    let mut t = Table::new(
        "ACE analytic AVF vs injection AVF",
        &[
            "app",
            "kernel",
            "structure",
            "ace_avf_pct",
            "inj_avf_pct",
            "abs_err_pct",
            "spearman",
        ],
    );
    for r in rows {
        t.row(vec![
            r.app.clone(),
            r.kernel.clone(),
            r.structure.label().to_string(),
            pct4(r.analytic),
            pct4(r.injected),
            pct4((r.analytic - r.injected).abs()),
            String::new(),
        ]);
    }
    let summary = |t: &mut Table, tag: &str, pts: &[&CompareRow]| {
        let xs: Vec<f64> = pts.iter().map(|r| r.analytic).collect();
        let ys: Vec<f64> = pts.iter().map(|r| r.injected).collect();
        let rho = spearman(&xs, &ys).map_or_else(|| "n/a".into(), |v| format!("{v:.4}"));
        t.row(vec![
            "SUMMARY".into(),
            "-".into(),
            tag.into(),
            "-".into(),
            "-".into(),
            pct4(mean_abs_error(&xs, &ys)),
            rho,
        ]);
    };
    for &h in &HwStructure::ALL {
        let pts: Vec<&CompareRow> = rows.iter().filter(|r| r.structure == h).collect();
        if !pts.is_empty() {
            summary(&mut t, h.label(), &pts);
        }
    }
    let all: Vec<&CompareRow> = rows.iter().collect();
    if !all.is_empty() {
        summary(&mut t, "ALL", &all);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: &str, h: HwStructure, a: f64, i: f64) -> CompareRow {
        CompareRow {
            app: "App".into(),
            kernel: k.into(),
            structure: h,
            analytic: a,
            injected: i,
        }
    }

    #[test]
    fn comparison_table_appends_summaries() {
        let rows = vec![
            row("K1", HwStructure::RegFile, 0.10, 0.08),
            row("K2", HwStructure::RegFile, 0.30, 0.25),
            row("K3", HwStructure::RegFile, 0.05, 0.04),
            row("K1", HwStructure::L2, 0.01, 0.02),
        ];
        let t = comparison_table(&rows);
        // 4 data rows + RF summary + L2 summary + ALL summary.
        assert_eq!(t.rows.len(), 7);
        let rf = t
            .rows
            .iter()
            .find(|r| r[0] == "SUMMARY" && r[2] == "RF")
            .unwrap();
        // Perfect rank agreement on the three RF points.
        assert_eq!(rf[6], "1.0000");
        assert!(t.rows.iter().any(|r| r[2] == "ALL"));
    }

    #[test]
    fn structure_and_app_tables_have_matching_arity() {
        let gpu = GpuConfig::volta_scaled(2);
        let est = AceAppEstimate {
            app: "VA".into(),
            kernels: vec![crate::estimate::AceKernelEstimate {
                kernel: "K1".into(),
                cycles: 10,
                ace_word_cycles: [5, 0, 0, 0, 0],
            }],
            totals: [5, 0, 0, 0, 0],
            total_cycles: 10,
            events: 7,
        };
        let t = structure_table(std::slice::from_ref(&est), &gpu, &HwStructure::ALL);
        assert_eq!(t.headers.len(), 3 + 5 + 1);
        assert_eq!(t.rows.len(), 1);
        let a = app_table(&[est], &gpu);
        assert_eq!(a.headers.len(), 3 + 5 + 1);
    }
}
