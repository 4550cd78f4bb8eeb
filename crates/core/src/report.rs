//! Plain-text and CSV report formatting for the figure/table generators.

use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Row/header arity mismatch, reported by [`Table::try_row`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowArityError {
    pub table: String,
    pub expected: usize,
    pub got: usize,
}

impl fmt::Display for RowArityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "table '{}': row has {} cells, header has {}",
            self.table, self.got, self.expected
        )
    }
}

impl std::error::Error for RowArityError {}

/// A simple column-aligned table that also serializes to CSV.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row whose arity must match the header.
    pub fn try_row(&mut self, cells: Vec<String>) -> Result<(), RowArityError> {
        if cells.len() != self.headers.len() {
            return Err(RowArityError {
                table: self.title.clone(),
                expected: self.headers.len(),
                got: cells.len(),
            });
        }
        self.rows.push(cells);
        Ok(())
    }

    /// Append a row, panicking on arity mismatch — the figure generators
    /// build rows from fixed-size literals, so a mismatch is a bug.
    pub fn row(&mut self, cells: Vec<String>) {
        self.try_row(cells).unwrap();
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }

    /// CSV serialization (RFC 4180: cells containing commas, quotes, or
    /// line breaks are quoted, with embedded quotes doubled).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV next to the other experiment outputs.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        if let Some(dir) = path.as_ref().parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (c, &width) in cells.iter().zip(&w) {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{c:<width$}")?;
                first = false;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Render an obs registry snapshot as report tables: one for counters,
/// one for gauges, one summarizing histograms (count / sum / mean / p50 /
/// p99; a `span_us` row's sum is that span's total time).
/// Empty sections are omitted; the `BTreeMap`-backed snapshot keeps the
/// ordering deterministic.
pub fn metrics_tables(snap: &obs::Snapshot) -> Vec<Table> {
    let mut out = Vec::new();
    if !snap.counters.is_empty() {
        let mut t = Table::new("metrics: counters", &["counter", "value"]);
        for (k, v) in &snap.counters {
            t.row(vec![k.clone(), v.to_string()]);
        }
        out.push(t);
    }
    if !snap.gauges.is_empty() {
        let mut t = Table::new("metrics: gauges", &["gauge", "value"]);
        for (k, v) in &snap.gauges {
            t.row(vec![k.clone(), v.to_string()]);
        }
        out.push(t);
    }
    if !snap.histograms.is_empty() {
        let mut t = Table::new(
            "metrics: histograms",
            &["histogram", "count", "sum", "mean", "p50", "p99"],
        );
        let bound = |b: Option<u64>| b.map_or("inf".to_string(), |v| v.to_string());
        for (k, h) in &snap.histograms {
            t.row(vec![
                k.clone(),
                h.count.to_string(),
                h.sum.to_string(),
                format!("{:.1}", h.mean()),
                bound(h.quantile_bound(0.5)),
                bound(h.quantile_bound(0.99)),
            ]);
        }
        out.push(t);
    }
    out
}

/// Format a fraction as a percentage with two decimals ("12.34").
pub fn pct(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

/// Format a fraction as a percentage with four decimals (small AVFs).
pub fn pct4(x: f64) -> String {
    format!("{:.4}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_csv() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "20,5".into()]);
        let text = t.to_string();
        assert!(text.contains("== demo =="));
        assert!(text.contains("alpha"));
        let csv = t.to_csv();
        assert!(csv.starts_with("name,value\n"));
        assert!(csv.contains("\"20,5\""), "comma cell quoted: {csv}");
    }

    #[test]
    fn csv_escapes_newlines_and_quotes() {
        let mut t = Table::new("esc", &["a", "b"]);
        t.row(vec!["line1\nline2".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"line1\nline2\""), "{csv}");
        assert!(csv.contains("\"say \"\"hi\"\"\""), "{csv}");
    }

    #[test]
    fn try_row_rejects_arity_mismatch() {
        let mut t = Table::new("demo", &["a", "b"]);
        assert!(t.try_row(vec!["1".into(), "2".into()]).is_ok());
        let err = t.try_row(vec!["only-one".into()]).unwrap_err();
        assert_eq!(err.expected, 2);
        assert_eq!(err.got, 1);
        assert!(err.to_string().contains("demo"));
        assert_eq!(t.rows.len(), 1, "bad row not appended");
    }

    #[test]
    fn metrics_tables_render() {
        let r = obs::Registry::new();
        r.counter_add("inj", &[("app", "VA")], 3);
        r.gauge_set("workers", &[], 8);
        r.histogram_observe("wall", &[], &[10, 100], 7);
        r.histogram_observe(
            "span_us",
            &[("span", "kernels.golden")],
            &[10, 10_000],
            4_000,
        );
        r.histogram_observe(
            "span_us",
            &[("span", "kernels.golden")],
            &[10, 10_000],
            2_000,
        );
        let tables = metrics_tables(&r.snapshot());
        assert_eq!(tables.len(), 3);
        let text: String = tables.iter().map(|t| t.to_string()).collect();
        assert!(text.contains("inj{app=VA}"));
        assert!(text.contains("workers"));
        assert!(text.contains("wall"));
        assert!(metrics_tables(&obs::Registry::new().snapshot()).is_empty());
        // A span's row carries its calls and its total µs.
        let spans = &tables[2].rows[0];
        assert_eq!(spans[..3], ["span_us{span=kernels.golden}", "2", "6000"]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.12345), "12.35");
        assert_eq!(pct4(0.0000123), "0.0012");
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("relia_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into()]);
        let p = dir.join("sub").join("t.csv");
        t.write_csv(&p).unwrap();
        assert!(std::fs::read_to_string(&p).unwrap().contains('1'));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
