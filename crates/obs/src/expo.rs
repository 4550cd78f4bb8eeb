//! Prometheus text exposition over the metrics registry.
//!
//! Renders a [`Snapshot`] in the Prometheus
//! text format (version 0.0.4): `# TYPE` comments, `name{label="v"} N`
//! sample lines, and the three-part histogram encoding — cumulative
//! `_bucket{le="..."}` series ending in `le="+Inf"`, plus `_sum` and
//! `_count`. Registry keys are the canonical `name{k=v,...}` strings of
//! [`crate::registry`]; this module parses them back apart, sanitizes
//! names to the Prometheus identifier charset, and escapes label values.
//!
//! [`lint`] is the same grammar in reverse: it validates an exposition
//! body line by line (and checks histogram bucket monotonicity and
//! `+Inf`/`_count` agreement), so tests and the `campaign scrape`
//! subcommand can prove an endpoint emits well-formed output.

use std::collections::BTreeMap;

use crate::registry::Snapshot;

/// Split a canonical registry key (`name` or `name{k=v,k2=v2}`) into its
/// metric name and label pairs. Label *values* may contain anything
/// except `,`/`}` (registry keys are not escaped); names get sanitized
/// at render time.
pub fn split_key(key: &str) -> (String, Vec<(String, String)>) {
    let Some(brace) = key.find('{') else {
        return (key.to_string(), Vec::new());
    };
    let name = key[..brace].to_string();
    let body = key[brace + 1..].trim_end_matches('}');
    let labels = body
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (p.to_string(), String::new()),
        })
        .collect();
    (name, labels)
}

/// Clamp a metric or label name to the Prometheus identifier grammar
/// `[a-zA-Z_][a-zA-Z0-9_]*` (`:` is reserved for recording rules, so we
/// exclude it): every invalid character becomes `_`, and a leading digit
/// gets an `_` prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render one `{k="v",...}` label block (empty string when no labels).
fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(labels.len() + extra.len());
    for (k, v) in extra {
        parts.push(format!(
            "{}=\"{}\"",
            sanitize_name(k),
            escape_label_value(v)
        ));
    }
    for (k, v) in labels {
        parts.push(format!(
            "{}=\"{}\"",
            sanitize_name(k),
            escape_label_value(v)
        ));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// A label block with one extra `le` pair appended (histogram buckets).
fn bucket_block(labels: &[(String, String)], extra: &[(&str, &str)], le: &str) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push(("le".to_string(), le.to_string()));
    label_block(&all, extra)
}

/// Render a whole registry snapshot in the Prometheus text format.
pub fn render(snap: &Snapshot) -> String {
    render_labeled(snap, &[])
}

/// [`render`] with extra label pairs stamped onto every sample — how a
/// coordinator re-exports a scraped worker registry under `worker="w1"`.
pub fn render_labeled(snap: &Snapshot, extra: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(4096);
    // Group samples by sanitized metric name so each family gets exactly
    // one `# TYPE` header even when several label sets share the name.
    let mut counters: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (key, v) in &snap.counters {
        let (name, labels) = split_key(key);
        let name = sanitize_name(&name);
        let line = format!("{name}{} {v}", label_block(&labels, extra));
        counters.entry(name).or_default().push(line);
    }
    for (name, lines) in &counters {
        out.push_str(&format!("# TYPE {name} counter\n"));
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
    }
    let mut gauges: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (key, v) in &snap.gauges {
        let (name, labels) = split_key(key);
        let name = sanitize_name(&name);
        let line = format!("{name}{} {v}", label_block(&labels, extra));
        gauges.entry(name).or_default().push(line);
    }
    for (name, lines) in &gauges {
        out.push_str(&format!("# TYPE {name} gauge\n"));
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
    }
    let mut histograms: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (key, h) in &snap.histograms {
        let (name, labels) = split_key(key);
        let name = sanitize_name(&name);
        let mut lines = Vec::with_capacity(h.buckets.len() + 2);
        let mut cum = 0u64;
        for (i, count) in h.buckets.iter().enumerate() {
            cum += count;
            let le = match h.bounds.get(i) {
                Some(b) => b.to_string(),
                None => "+Inf".to_string(),
            };
            lines.push(format!(
                "{name}_bucket{} {cum}",
                bucket_block(&labels, extra, &le)
            ));
        }
        lines.push(format!(
            "{name}_sum{} {}",
            label_block(&labels, extra),
            h.sum
        ));
        lines.push(format!(
            "{name}_count{} {}",
            label_block(&labels, extra),
            h.count
        ));
        histograms.entry(name).or_default().append(&mut lines);
    }
    for (name, lines) in &histograms {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
    }
    out
}

// ---------------------------------------------------------------------
// Exposition lint
// ---------------------------------------------------------------------

/// One parsed sample line: `(metric name, labels, value)`.
type Sample = (String, Vec<(String, String)>, f64);

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .enumerate()
            .all(|(i, c)| c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
}

/// Parse one exposition sample line. `Err` explains the grammar breach.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (head, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("no value separator in {line:?}"))?;
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse()
            .map_err(|_| format!("bad sample value {v:?} in {line:?}"))?,
    };
    let (name, labels) = match head.find('{') {
        None => (head.to_string(), Vec::new()),
        Some(i) => {
            let name = head[..i].to_string();
            let body = head[i..]
                .strip_prefix('{')
                .and_then(|b| b.strip_suffix('}'))
                .ok_or_else(|| format!("unbalanced label braces in {line:?}"))?;
            let mut labels = Vec::new();
            let mut rest = body;
            while !rest.is_empty() {
                let (k, after_eq) = rest
                    .split_once("=\"")
                    .ok_or_else(|| format!("label without =\" in {line:?}"))?;
                if !valid_name(k) {
                    return Err(format!("invalid label name {k:?} in {line:?}"));
                }
                // Scan to the closing unescaped quote.
                let mut val = String::new();
                let mut chars = after_eq.chars();
                let mut closed = false;
                while let Some(c) = chars.next() {
                    match c {
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\\' => match chars.next() {
                            Some('\\') => val.push('\\'),
                            Some('"') => val.push('"'),
                            Some('n') => val.push('\n'),
                            _ => return Err(format!("bad escape in label value in {line:?}")),
                        },
                        c => val.push(c),
                    }
                }
                if !closed {
                    return Err(format!("unterminated label value in {line:?}"));
                }
                labels.push((k.to_string(), val));
                rest = chars.as_str();
                rest = rest.strip_prefix(',').unwrap_or(rest);
            }
            (name, labels)
        }
    };
    if !valid_name(&name) {
        return Err(format!("invalid metric name {name:?} in {line:?}"));
    }
    Ok((name, labels, value))
}

/// Validate a Prometheus text exposition body.
///
/// Checks, per line: every line is a `# TYPE`/`# HELP` comment or a
/// well-formed sample; `# TYPE` names are valid with a known type; and,
/// across the body, every histogram family has cumulative
/// (non-decreasing) bucket counts per label set, a `+Inf` bucket, and
/// `+Inf == _count`. Returns the number of sample lines on success.
pub fn lint(body: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut histogram_families: Vec<String> = Vec::new();
    // (family, non-le labels rendered canonically) -> bucket series state.
    #[derive(Default)]
    struct Buckets {
        last: f64,
        cum: Vec<(f64, f64)>, // (le, cumulative count)
        inf: Option<f64>,
        count: Option<f64>,
    }
    let mut buckets: BTreeMap<(String, String), Buckets> = BTreeMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("bare # TYPE: {line:?}"))?;
                    if !valid_name(name) {
                        return Err(format!("invalid # TYPE name {name:?}"));
                    }
                    match parts.next() {
                        Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                        t => return Err(format!("unknown metric type {t:?} in {line:?}")),
                    }
                }
                Some("HELP") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("bare # HELP: {line:?}"))?;
                    if !valid_name(name) {
                        return Err(format!("invalid # HELP name {name:?}"));
                    }
                }
                _ => {} // other comments are allowed free-form
            }
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                if let Some((name, "histogram")) = rest.split_once(' ') {
                    histogram_families.push(name.to_string());
                }
            }
            continue;
        }
        let (name, labels, value) = parse_sample(line)?;
        samples += 1;
        for fam in &histogram_families {
            let series_key = |labels: &[(String, String)]| {
                labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            if let Some(stripped) = name.strip_suffix("_bucket") {
                if stripped == fam {
                    let le = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.as_str())
                        .ok_or_else(|| format!("bucket without le label: {line:?}"))?;
                    let le_v: f64 = match le {
                        "+Inf" => f64::INFINITY,
                        v => v
                            .parse()
                            .ok()
                            .filter(|f: &f64| !f.is_nan())
                            .ok_or_else(|| format!("non-numeric le {v:?} in {line:?}"))?,
                    };
                    let b = buckets
                        .entry((fam.clone(), series_key(&labels)))
                        .or_default();
                    if value < b.last {
                        return Err(format!(
                            "histogram {fam} buckets not cumulative at le={le}: \
                             {value} < {}",
                            b.last
                        ));
                    }
                    b.last = value;
                    b.cum.push((le_v, value));
                    if le_v.is_infinite() {
                        b.inf = Some(value);
                    }
                }
            } else if let Some(stripped) = name.strip_suffix("_count") {
                if stripped == fam {
                    buckets
                        .entry((fam.clone(), series_key(&labels)))
                        .or_default()
                        .count = Some(value);
                }
            }
        }
    }
    for ((fam, series), b) in &buckets {
        let inf = b
            .inf
            .ok_or_else(|| format!("histogram {fam}{{{series}}} missing +Inf bucket"))?;
        if let Some(count) = b.count {
            if inf != count {
                return Err(format!(
                    "histogram {fam}{{{series}}}: +Inf bucket {inf} != _count {count}"
                ));
            }
        }
        let mut sorted = b.cum.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        if sorted != b.cum {
            return Err(format!(
                "histogram {fam}{{{series}}}: buckets not in ascending le order"
            ));
        }
    }
    Ok(samples)
}

/// Stamp one extra label pair onto every sample line of an exposition
/// body — pure text surgery, used to re-export a worker's scraped
/// `/metrics` under `worker="name"` without re-parsing values.
pub fn inject_label(body: &str, key: &str, value: &str) -> String {
    let pair = format!("{}=\"{}\"", sanitize_name(key), escape_label_value(value));
    let mut out = String::with_capacity(body.len() + 32 * body.lines().count());
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let Some((head, value_part)) = line.rsplit_once(' ') else {
            out.push_str(line);
            out.push('\n');
            continue;
        };
        match head.find('{') {
            Some(i) => {
                // name{labels} -> name{pair,labels}
                out.push_str(&head[..=i]);
                out.push_str(&pair);
                if !head[i + 1..].starts_with('}') {
                    out.push(',');
                }
                out.push_str(&head[i + 1..]);
            }
            None => {
                out.push_str(head);
                out.push('{');
                out.push_str(&pair);
                out.push('}');
            }
        }
        out.push(' ');
        out.push_str(value_part);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn split_and_sanitize() {
        assert_eq!(split_key("m"), ("m".to_string(), vec![]));
        let (n, l) = split_key("hits{app=VA,kernel=K1}");
        assert_eq!(n, "hits");
        assert_eq!(
            l,
            vec![
                ("app".to_string(), "VA".to_string()),
                ("kernel".to_string(), "K1".to_string())
            ]
        );
        assert_eq!(sanitize_name("ok_name9"), "ok_name9");
        assert_eq!(sanitize_name("9lead"), "_9lead");
        assert_eq!(sanitize_name("a-b.c"), "a_b_c");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn renders_counters_gauges_histograms() {
        let r = Registry::new();
        r.counter_add("hits", &[("app", "VA")], 3);
        r.counter_add("hits", &[("app", "NW")], 1);
        r.gauge_set("depth", &[], 7);
        r.histogram_observe("wall", &[("app", "VA")], &[10, 20], 5);
        r.histogram_observe("wall", &[("app", "VA")], &[10, 20], 15);
        r.histogram_observe("wall", &[("app", "VA")], &[10, 20], 99);
        let text = render(&r.snapshot());
        assert!(text.contains("# TYPE hits counter\n"));
        assert!(text.contains("hits{app=\"NW\"} 1\n"));
        assert!(text.contains("hits{app=\"VA\"} 3\n"));
        assert!(text.contains("# TYPE depth gauge\ndepth 7\n"));
        assert!(text.contains("# TYPE wall histogram\n"));
        assert!(text.contains("wall_bucket{app=\"VA\",le=\"10\"} 1\n"));
        assert!(text.contains("wall_bucket{app=\"VA\",le=\"20\"} 2\n"));
        assert!(text.contains("wall_bucket{app=\"VA\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("wall_sum{app=\"VA\"} 119\n"));
        assert!(text.contains("wall_count{app=\"VA\"} 3\n"));
        // 2 counter + 1 gauge + 3 buckets + _sum + _count = 8 samples.
        assert_eq!(lint(&text).unwrap(), 8);
    }

    #[test]
    fn render_labeled_stamps_extra_labels_first() {
        let r = Registry::new();
        r.counter_add("hits", &[("app", "VA")], 3);
        r.gauge_set("depth", &[], 7);
        let text = render_labeled(&r.snapshot(), &[("worker", "w1")]);
        assert!(text.contains("hits{worker=\"w1\",app=\"VA\"} 3\n"));
        assert!(text.contains("depth{worker=\"w1\"} 7\n"));
        lint(&text).unwrap();
    }

    #[test]
    fn lint_rejects_grammar_breaches() {
        assert!(lint("no_value\n").is_err());
        assert!(lint("1bad_name 3\n").is_err());
        assert!(lint("ok{unclosed=\"v} 3\n").is_err());
        assert!(lint("ok{k=v} 3\n").is_err(), "unquoted label value");
        assert!(lint("ok 3\n").is_ok());
        assert!(lint("ok{k=\"a,b\"} 3\nok{k=\"c\"} 4\n").is_ok());
        // Histogram without +Inf.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\n";
        assert!(lint(bad).unwrap_err().contains("+Inf"));
        // Non-cumulative buckets.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\n";
        assert!(lint(bad).unwrap_err().contains("cumulative"));
        // +Inf disagrees with _count.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n";
        assert!(lint(bad).unwrap_err().contains("_count"));
    }

    #[test]
    fn inject_label_relabels_every_sample() {
        let body = "# TYPE a counter\na 1\nb{x=\"1\"} 2\nc{} 3\n";
        let out = inject_label(body, "worker", "w-1");
        assert!(out.contains("a{worker=\"w-1\"} 1\n"));
        assert!(out.contains("b{worker=\"w-1\",x=\"1\"} 2\n"));
        assert!(out.contains("c{worker=\"w-1\"} 3\n"));
        lint(&out).unwrap();
    }

    #[test]
    fn weird_registry_keys_render_lintably() {
        let r = Registry::new();
        r.counter_add("weird-metric.name", &[("bad key", "va\"lue\n2")], 1);
        r.counter_add("9starts_with_digit", &[], 2);
        let text = render(&r.snapshot());
        assert!(text.contains("weird_metric_name{bad_key=\"va\\\"lue\\n2\"} 1\n"));
        assert!(text.contains("_9starts_with_digit 2\n"));
        lint(&text).unwrap();
    }
}
