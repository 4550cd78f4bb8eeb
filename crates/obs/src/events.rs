//! Structured JSONL event sink: one flat JSON object per line.
//!
//! Every record shape — one line per injection, the `campaign`,
//! `dispatch`, `snapshot`, `wave` and `trace` records — goes through one
//! hand-rolled writer (no serde in the sandbox), [`record_json`] behind
//! [`emit_record`], so downstream analysis — SDC-pattern studies in the
//! style of Tung et al., two-level SDC estimation à la Hari et al. — can
//! regenerate per-injection telemetry with any JSON reader. Checkpoint
//! journals and dispatch wire frames are written by the same
//! [`record_json`] and read back by the same [`Fields`] over
//! [`parse_line`].
//!
//! The sink is process-global and off by default; while off,
//! [`emit_record`] is a single relaxed atomic load. Event emission never
//! perturbs campaign RNG streams, so results are identical with the sink
//! on or off.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static EVENTS_ON: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// JSON string literal serializer behind [`record_json`], so every line
/// escapes identically and [`parse_json`] reads them all.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Open (truncate) `path` and start recording events.
pub fn init_events(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let f = File::create(path)?;
    *SINK.lock().unwrap() = Some(BufWriter::new(f));
    EVENTS_ON.store(true, Ordering::Relaxed);
    Ok(())
}

/// Whether a sink is installed and recording.
pub fn events_enabled() -> bool {
    EVENTS_ON.load(Ordering::Relaxed)
}

fn write_line(line: &str) {
    let mut guard = SINK.lock().unwrap();
    if let Some(w) = guard.as_mut() {
        // A full disk mid-campaign should not abort the science run;
        // drop the line (the final flush reports failure via Result).
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
    }
}

/// `fields` as one flat JSON object, in order, with no spaces and no
/// trailing newline: the one line writer of the workspace — event-log
/// records, checkpoint journals and dispatch wire frames alike.
pub fn record_json(fields: &[(&str, JsonValue)]) -> String {
    let mut s = String::with_capacity(160);
    s.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_json_str(&mut s, key);
        s.push(':');
        match value {
            JsonValue::Str(v) => push_json_str(&mut s, v),
            JsonValue::Num(n) => s.push_str(n),
            JsonValue::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            JsonValue::Null => s.push_str("null"),
        }
    }
    s.push('}');
    s
}

/// Write one record line to the event log; no-op while no sink is
/// installed.
pub fn emit_record(fields: &[(&str, JsonValue)]) {
    if events_enabled() {
        write_line(&record_json(fields));
    }
}

/// Flush buffered events to disk.
pub fn flush_events() -> std::io::Result<()> {
    if let Some(w) = SINK.lock().unwrap().as_mut() {
        w.flush()?;
    }
    Ok(())
}

/// Flush, close, and disable the sink.
pub fn shutdown_events() {
    EVENTS_ON.store(false, Ordering::Relaxed);
    if let Some(mut w) = SINK.lock().unwrap().take() {
        let _ = w.flush();
    }
}

// ---------------------------------------------------------------------
// Minimal JSON reader, for checkpoints, wire frames, round-trip tests and
// in-repo analysis of event logs.
// ---------------------------------------------------------------------

/// A parsed JSON scalar. Numbers keep their raw text so 64-bit integers
/// (seeds!) survive without `f64` precision loss.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Str(String),
    Num(String),
    Bool(bool),
    Null,
}

impl JsonValue {
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

// What a record's fields are built from.
impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Num(n.to_string())
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n.to_string())
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

/// Parse one JSONL line: a flat object of string / number / bool / null
/// values. Returns the fields in source order. `None` on malformed input
/// or nested structures. A document only parses once its closing brace
/// has been read, so no proper prefix of a line parses — which is what
/// torn-frame detection in checkpoints and the dispatch protocol relies
/// on.
pub fn parse_line(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let JsonNode::Obj(fields) = parse_json(line)? else {
        return None;
    };
    fields
        .into_iter()
        .map(|(key, node)| match node {
            JsonNode::Scalar(value) => Some((key, value)),
            _ => None,
        })
        .collect()
}

/// The fields of one [`parse_line`] line, looked up by key: the one field
/// reader of every JSONL parser (checkpoint lines, wire frames, trace
/// records). Fields a reader does not ask for are ignored, so a line may
/// carry more than its reader knows.
#[derive(Debug)]
pub struct Fields(Vec<(String, JsonValue)>);

impl Fields {
    /// `None` on any line [`parse_line`] rejects.
    pub fn parse(line: &str) -> Option<Fields> {
        parse_line(line).map(Fields)
    }

    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// A number that fits a `usize`.
    pub fn usize(&self, key: &str) -> Option<usize> {
        usize::try_from(self.u64(key)?).ok()
    }

    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parsed JSON document node. Unlike [`parse_line`]'s flat rows, this
/// shape nests — arrays and objects inside objects, as in the perf
/// ledger's reports.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonNode {
    Scalar(JsonValue),
    Arr(Vec<JsonNode>),
    Obj(Vec<(String, JsonNode)>),
}

impl JsonNode {
    /// Object member lookup (`None` on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonNode> {
        match self {
            JsonNode::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonNode]> {
        match self {
            JsonNode::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonNode::Scalar(v) => v.as_str(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonNode::Scalar(v) => v.as_u64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonNode::Scalar(v) => v.as_f64(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonNode::Scalar(JsonValue::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

/// Parse a full (possibly nested) JSON document — the one reader of the
/// workspace; [`parse_line`] is this plus "a flat object". `None` on
/// malformed input or trailing garbage.
pub fn parse_json(text: &str) -> Option<JsonNode> {
    let mut chars = text.trim().chars().peekable();
    let node = parse_node(&mut chars)?;
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return None; // trailing garbage
    }
    Some(node)
}

fn parse_node(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<JsonNode> {
    skip_ws(chars);
    match chars.peek()? {
        '{' => {
            chars.next();
            let mut fields = Vec::new();
            loop {
                skip_ws(chars);
                match chars.peek()? {
                    '}' => {
                        chars.next();
                        return Some(JsonNode::Obj(fields));
                    }
                    ',' => {
                        chars.next();
                        continue;
                    }
                    _ => {}
                }
                let key = parse_string(chars)?;
                skip_ws(chars);
                if chars.next()? != ':' {
                    return None;
                }
                fields.push((key, parse_node(chars)?));
            }
        }
        '[' => {
            chars.next();
            let mut items = Vec::new();
            loop {
                skip_ws(chars);
                match chars.peek()? {
                    ']' => {
                        chars.next();
                        return Some(JsonNode::Arr(items));
                    }
                    ',' => {
                        chars.next();
                        continue;
                    }
                    _ => {}
                }
                items.push(parse_node(chars)?);
            }
        }
        '"' => Some(JsonNode::Scalar(JsonValue::Str(parse_string(chars)?))),
        't' | 'f' | 'n' => {
            let mut word = String::new();
            while chars.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
                word.push(chars.next().unwrap());
            }
            match word.as_str() {
                "true" => Some(JsonNode::Scalar(JsonValue::Bool(true))),
                "false" => Some(JsonNode::Scalar(JsonValue::Bool(false))),
                "null" => Some(JsonNode::Scalar(JsonValue::Null)),
                _ => None,
            }
        }
        _ => {
            let mut num = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_digit() || "+-.eE".contains(c) {
                    num.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            num.parse::<f64>().ok()?;
            Some(JsonNode::Scalar(JsonValue::Num(num)))
        }
    }
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut s = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(s),
            '\\' => match chars.next()? {
                '"' => s.push('"'),
                '\\' => s.push('\\'),
                '/' => s.push('/'),
                'n' => s.push('\n'),
                'r' => s.push('\r'),
                't' => s.push('\t'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    s.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => s.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injection() -> Vec<(&'static str, JsonValue)> {
        vec![
            ("seed", 0xDEAD_BEEF_1234_5678u64.into()),
            ("app", "HotSpot".into()),
            ("kernel", "K1".into()),
            ("layer", "uarch".into()),
            ("target", "L1D".into()),
            ("trial", 42u64.into()),
            ("bit", 17u64.into()),
            ("cycle", 123_456u64.into()),
            ("outcome", "sdc".into()),
            ("wall_us", 950u64.into()),
        ]
    }

    /// One line of each of the six record shapes, pinned to the bytes the
    /// per-shape serializers this writer replaced produced for the same
    /// values — and each line parses back to exactly its fields.
    #[test]
    fn every_record_shape_is_pinned_byte_for_byte() {
        let n = |v: u64| JsonValue::from(v);
        let s = |v: &str| JsonValue::from(v);
        let shapes: [(Vec<(&str, JsonValue)>, &str); 5] = [
            (
                injection(),
                r#"{"seed":16045690981402826360,"app":"HotSpot","kernel":"K1","layer":"uarch","target":"L1D","trial":42,"bit":17,"cycle":123456,"outcome":"sdc","wall_us":950}"#,
            ),
            (
                vec![
                    ("record", s("campaign")),
                    ("kind", s("resume")),
                    ("app", s("VA")),
                    ("layer", s("uarch")),
                    ("shard", n(1)),
                    ("shards", n(3)),
                    ("done", n(40)),
                    ("total", n(100)),
                ],
                r#"{"record":"campaign","kind":"resume","app":"VA","layer":"uarch","shard":1,"shards":3,"done":40,"total":100}"#,
            ),
            (
                vec![
                    ("record", s("dispatch")),
                    ("kind", s("lease")),
                    ("worker", s("w\"1\"")),
                    ("shard", n(2)),
                    ("shards", n(6)),
                    ("attempt", n(3)),
                    ("done", n(17)),
                    ("total", n(50)),
                ],
                r#"{"record":"dispatch","kind":"lease","worker":"w\"1\"","shard":2,"shards":6,"attempt":3,"done":17,"total":50}"#,
            ),
            (
                vec![
                    ("record", s("snapshot")),
                    ("app", s("SCP")),
                    ("layer", s("uarch")),
                    ("hardened", true.into()),
                    ("per_launch", n(8)),
                    ("count", n(9)),
                    ("bytes", n(4_200_000)),
                    ("wall_us", n(12_345)),
                ],
                r#"{"record":"snapshot","app":"SCP","layer":"uarch","hardened":true,"per_launch":8,"count":9,"bytes":4200000,"wall_us":12345}"#,
            ),
            (
                vec![
                    ("record", s("wave")),
                    ("app", s("VA")),
                    ("layer", s("sw")),
                    ("wave", n(2)),
                    ("trials", n(30)),
                    ("pending", n(4)),
                    ("strata", n(10)),
                    ("max_halfwidth_micros", n(81_234)),
                ],
                r#"{"record":"wave","app":"VA","layer":"sw","wave":2,"trials":30,"pending":4,"strata":10,"max_halfwidth_micros":81234}"#,
            ),
        ];
        for (fields, pinned) in &shapes {
            assert_eq!(record_json(fields), *pinned);
            let back = parse_line(pinned).expect("parses");
            let back: Vec<(&str, JsonValue)> =
                back.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            assert_eq!(back, *fields);
        }
        let trace = crate::TraceEvent {
            kind: "lease_start".into(),
            worker: "w\t7".into(),
            campaign_fp: 0xDEAD_BEEF_1234_5678,
            shard: 2,
            trial: u64::MAX,
            t_us: 1_000_001,
            wall_us: 0,
        };
        let pinned = r#"{"record":"trace","kind":"lease_start","worker":"w\t7","campaign_fp":16045690981402826360,"shard":2,"trial":18446744073709551615,"t_us":1000001,"wall_us":0}"#;
        assert_eq!(trace.to_json(), pinned);
        assert_eq!(crate::TraceEvent::parse(pinned), Some(trace));
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\te\u{1}");
        let parsed = parse_string(&mut s.chars().peekable()).unwrap();
        assert_eq!(parsed, "a\"b\\c\nd\te\u{1}");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_line("").is_none());
        assert!(parse_line("{\"a\":}").is_none());
        assert!(parse_line("{\"a\":1} trailing").is_none());
        assert!(parse_line("[1,2]").is_none());
        // Well-formed but nested: a document, not a line.
        assert!(parse_line("{\"a\":[1]}").is_none());
        assert!(parse_line("{\"a\":{\"b\":1}}").is_none());
        assert!(parse_line("{\"a\":1,\"b\":\"x\", \"c\":true,\"d\":null}").is_some());
    }

    #[test]
    fn nested_parser_reads_status_shapes() {
        let doc = parse_json(
            "{\"shards\":[{\"shard\":0,\"state\":\"done\"},{\"shard\":1,\"state\":\"leased\",\
             \"owner\":\"w1\"}],\"records_per_s\":123.5,\"fp\":\"00ff\",\"done\":false}",
        )
        .expect("parses");
        let shards = doc.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].get("shard").unwrap().as_u64(), Some(0));
        assert_eq!(shards[1].get("owner").unwrap().as_str(), Some("w1"));
        assert_eq!(doc.get("records_per_s").unwrap().as_f64(), Some(123.5));
        assert_eq!(doc.get("fp").unwrap().as_str(), Some("00ff"));
        assert_eq!(
            doc.get("done").unwrap(),
            &JsonNode::Scalar(JsonValue::Bool(false))
        );
        // Empty containers and nesting both work.
        assert_eq!(parse_json("[]"), Some(JsonNode::Arr(vec![])));
        assert_eq!(parse_json("{}"), Some(JsonNode::Obj(vec![])));
        assert!(parse_json("{\"a\":[{\"b\":[1,2]}]}").is_some());
        // Malformed / trailing input rejected.
        assert!(parse_json("{\"a\":1} x").is_none());
        assert!(parse_json("{\"a\":[1,}").is_none());
        assert!(parse_json("").is_none());
    }

    #[test]
    fn sink_lifecycle_writes_lines() {
        let _guard = crate::testutil::lock();
        let dir = std::env::temp_dir().join("obs_events_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");

        // Disabled: emit is a no-op, file never created.
        shutdown_events();
        emit_record(&injection());
        assert!(!path.exists());

        init_events(&path).unwrap();
        assert!(events_enabled());
        emit_record(&injection());
        emit_record(&injection());
        shutdown_events();
        assert!(!events_enabled());

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in lines {
            assert!(parse_line(l).is_some(), "unparseable: {l}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
