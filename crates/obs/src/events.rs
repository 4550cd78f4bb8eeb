//! Structured JSONL event sink: one line per injection.
//!
//! The serializer is hand-rolled (no serde in the sandbox) and the format
//! is one flat JSON object per line, so downstream analysis — SDC-pattern
//! studies in the style of Tung et al., two-level SDC estimation à la
//! Hari et al. — can regenerate per-injection telemetry with any JSON
//! reader. [`parse_line`] provides a minimal reader for tests and
//! in-repo tooling.
//!
//! The sink is process-global and off by default; while off, [`emit`] is
//! a single relaxed atomic load. Event emission never perturbs campaign
//! RNG streams, so results are identical with the sink on or off.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static EVENTS_ON: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// One fault-injection trial, as recorded in the event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionEvent<'a> {
    /// Per-trial derived seed (reproduces the trial exactly).
    pub seed: u64,
    pub app: &'a str,
    pub kernel: &'a str,
    /// Abstraction layer: `"uarch"` (AVF side) or `"sw"` (SVF side).
    pub layer: &'a str,
    /// Hardware structure label (uarch) or fault-kind label (sw).
    pub target: &'a str,
    /// Trial ordinal within its (kernel, target) sub-campaign.
    pub trial: u64,
    /// Flipped bit position.
    pub bit: u8,
    /// Injection cycle (uarch) or eligible-instruction index (sw).
    pub cycle: u64,
    /// Outcome class label: `masked` / `sdc` / `timeout` / `due`.
    pub outcome: &'a str,
    /// Wall-clock time of the whole trial, microseconds.
    pub wall_us: u64,
}

/// JSON string literal serializer shared by every JSONL writer in the
/// workspace (events here, campaign checkpoints in `crates/core`), so all
/// record shapes escape identically and [`parse_line`] reads them all.
pub fn push_json_str(out: &mut String, s: &str) {
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

impl InjectionEvent<'_> {
    /// Serialize as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push('{');
        let num = |s: &mut String, k: &str, v: u64, first: bool| {
            if !first {
                s.push(',');
            }
            push_json_str(s, k);
            s.push(':');
            s.push_str(&v.to_string());
        };
        let st = |s: &mut String, k: &str, v: &str| {
            s.push(',');
            push_json_str(s, k);
            s.push(':');
            push_json_str(s, v);
        };
        num(&mut s, "seed", self.seed, true);
        st(&mut s, "app", self.app);
        st(&mut s, "kernel", self.kernel);
        st(&mut s, "layer", self.layer);
        st(&mut s, "target", self.target);
        num(&mut s, "trial", self.trial, false);
        num(&mut s, "bit", self.bit as u64, false);
        num(&mut s, "cycle", self.cycle, false);
        st(&mut s, "outcome", self.outcome);
        num(&mut s, "wall_us", self.wall_us, false);
        s.push('}');
        s
    }
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

/// Write a pre-serialized record into the sink (sibling modules — trace
/// records share the event log). Callers check [`events_enabled`].
pub(crate) fn write_raw_line(line: &str) {
    write_line(line);
}

/// Record one event; no-op while no sink is installed.
pub fn emit(ev: &InjectionEvent) {
    if !events_enabled() {
        return;
    }
    write_line(&ev.to_json());
}

/// A campaign lifecycle event: shard start/finish, checkpoint resume,
/// merge. Distinguished from injection lines by `"record":"campaign"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignEvent<'a> {
    /// `"shard_start"` / `"shard_done"` / `"resume"` / `"merge"`.
    pub kind: &'a str,
    pub app: &'a str,
    /// `"uarch"` or `"sw"`.
    pub layer: &'a str,
    pub shard: u64,
    pub shards: u64,
    /// Trials already classified (loaded from a checkpoint on resume).
    pub done: u64,
    /// Trials owned by this shard.
    pub total: u64,
}

impl CampaignEvent<'_> {
    /// Serialize as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"record\":\"campaign\",\"kind\":");
        push_json_str(&mut s, self.kind);
        s.push_str(",\"app\":");
        push_json_str(&mut s, self.app);
        s.push_str(",\"layer\":");
        push_json_str(&mut s, self.layer);
        s.push_str(&format!(
            ",\"shard\":{},\"shards\":{},\"done\":{},\"total\":{}}}",
            self.shard, self.shards, self.done, self.total
        ));
        s
    }
}

/// Record one campaign lifecycle event; no-op while no sink is installed.
pub fn emit_campaign(ev: &CampaignEvent) {
    if !events_enabled() {
        return;
    }
    write_line(&ev.to_json());
}

/// A dispatch-service lifecycle event: worker joins, lease grants and
/// expiries, shard completions, campaign completion. Distinguished from
/// the other record shapes by `"record":"dispatch"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchEvent<'a> {
    /// `"worker_join"` / `"lease"` / `"lease_expired"` /
    /// `"shard_complete"` / `"complete"`.
    pub kind: &'a str,
    /// Worker name (`""` for coordinator-only events like expiries).
    pub worker: &'a str,
    /// Shard the event refers to (`0` for whole-campaign events).
    pub shard: u64,
    pub shards: u64,
    /// Execution attempt for this shard (1 = first lease).
    pub attempt: u64,
    /// Trial records the coordinator holds for this shard so far.
    pub done: u64,
    /// Trials owned by the shard.
    pub total: u64,
}

impl DispatchEvent<'_> {
    /// Serialize as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(144);
        s.push_str("{\"record\":\"dispatch\",\"kind\":");
        push_json_str(&mut s, self.kind);
        s.push_str(",\"worker\":");
        push_json_str(&mut s, self.worker);
        s.push_str(&format!(
            ",\"shard\":{},\"shards\":{},\"attempt\":{},\"done\":{},\"total\":{}}}",
            self.shard, self.shards, self.attempt, self.done, self.total
        ));
        s
    }
}

/// Record one dispatch lifecycle event; no-op while no sink is installed.
pub fn emit_dispatch(ev: &DispatchEvent) {
    if !events_enabled() {
        return;
    }
    write_line(&ev.to_json());
}

/// A snapshot-capture event: one instrumented golden pass materialized
/// the fast-forward snapshot set of a campaign. Distinguished from the
/// other record shapes by `"record":"snapshot"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEvent<'a> {
    pub app: &'a str,
    /// `"uarch"` or `"sw"`.
    pub layer: &'a str,
    /// The TMR-hardened variant of the application (its unprotected twin
    /// captures a set of its own).
    pub hardened: bool,
    /// Mid-launch snapshots requested per launch.
    pub per_launch: u64,
    /// Snapshots actually captured (initial + mid-launch + launch
    /// boundaries).
    pub count: u64,
    /// Heap footprint of the snapshot set's chunk store, bytes.
    pub bytes: u64,
    /// Wall time of the capture pass, microseconds.
    pub wall_us: u64,
}

impl SnapshotEvent<'_> {
    /// Serialize as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(144);
        s.push_str("{\"record\":\"snapshot\",\"app\":");
        push_json_str(&mut s, self.app);
        s.push_str(",\"layer\":");
        push_json_str(&mut s, self.layer);
        s.push_str(&format!(
            ",\"hardened\":{},\"per_launch\":{},\"count\":{},\"bytes\":{},\"wall_us\":{}}}",
            self.hardened, self.per_launch, self.count, self.bytes, self.wall_us
        ));
        s
    }
}

/// Record one snapshot-capture event; no-op while no sink is installed.
pub fn emit_snapshot(ev: &SnapshotEvent) {
    if !events_enabled() {
        return;
    }
    write_line(&ev.to_json());
}

/// An adaptive-sizing wave event: one CI-driven wave of an adaptive
/// campaign finished and the planner re-evaluated its strata.
/// Distinguished from the other record shapes by `"record":"wave"`.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveEvent<'a> {
    pub app: &'a str,
    /// `"uarch"` or `"sw"`.
    pub layer: &'a str,
    /// Wave index (0-based).
    pub wave: u64,
    /// Trials executed by this wave.
    pub trials: u64,
    /// Strata still below the CI target after this wave.
    pub pending: u64,
    /// Strata total.
    pub strata: u64,
    /// Worst per-stratum CI half-width after this wave (micro-units:
    /// half-width × 1e6, matching the `adaptive_ci_halfwidth_micros`
    /// gauge).
    pub max_halfwidth_micros: u64,
}

impl WaveEvent<'_> {
    /// Serialize as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(144);
        s.push_str("{\"record\":\"wave\",\"app\":");
        push_json_str(&mut s, self.app);
        s.push_str(",\"layer\":");
        push_json_str(&mut s, self.layer);
        s.push_str(&format!(
            ",\"wave\":{},\"trials\":{},\"pending\":{},\"strata\":{},\
             \"max_halfwidth_micros\":{}}}",
            self.wave, self.trials, self.pending, self.strata, self.max_halfwidth_micros
        ));
        s
    }
}

/// Record one adaptive wave event; no-op while no sink is installed.
pub fn emit_wave(ev: &WaveEvent) {
    if !events_enabled() {
        return;
    }
    write_line(&ev.to_json());
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

/// A parsed JSON document node. Unlike [`parse_line`]'s flat rows, this
/// shape nests — the telemetry `/status` documents carry arrays of
/// per-shard / per-worker objects.
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

    fn event() -> InjectionEvent<'static> {
        InjectionEvent {
            seed: 0xDEAD_BEEF_1234_5678,
            app: "HotSpot",
            kernel: "K1",
            layer: "uarch",
            target: "L1D",
            trial: 42,
            bit: 17,
            cycle: 123_456,
            outcome: "sdc",
            wall_us: 950,
        }
    }

    #[test]
    fn json_round_trip() {
        let line = event().to_json();
        let fields = parse_line(&line).expect("parses");
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("seed").unwrap().as_u64(), Some(0xDEAD_BEEF_1234_5678));
        assert_eq!(get("app").unwrap().as_str(), Some("HotSpot"));
        assert_eq!(get("kernel").unwrap().as_str(), Some("K1"));
        assert_eq!(get("layer").unwrap().as_str(), Some("uarch"));
        assert_eq!(get("target").unwrap().as_str(), Some("L1D"));
        assert_eq!(get("trial").unwrap().as_u64(), Some(42));
        assert_eq!(get("bit").unwrap().as_u64(), Some(17));
        assert_eq!(get("cycle").unwrap().as_u64(), Some(123_456));
        assert_eq!(get("outcome").unwrap().as_str(), Some("sdc"));
        assert_eq!(get("wall_us").unwrap().as_u64(), Some(950));
        assert_eq!(fields.len(), 10);
    }

    #[test]
    fn campaign_event_round_trips() {
        let ev = CampaignEvent {
            kind: "resume",
            app: "VA",
            layer: "uarch",
            shard: 1,
            shards: 3,
            done: 40,
            total: 100,
        };
        let fields = parse_line(&ev.to_json()).expect("parses");
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("record").unwrap().as_str(), Some("campaign"));
        assert_eq!(get("kind").unwrap().as_str(), Some("resume"));
        assert_eq!(get("shard").unwrap().as_u64(), Some(1));
        assert_eq!(get("shards").unwrap().as_u64(), Some(3));
        assert_eq!(get("done").unwrap().as_u64(), Some(40));
        assert_eq!(get("total").unwrap().as_u64(), Some(100));
    }

    #[test]
    fn dispatch_event_round_trips() {
        let ev = DispatchEvent {
            kind: "lease",
            worker: "w\"1\"",
            shard: 2,
            shards: 6,
            attempt: 3,
            done: 17,
            total: 50,
        };
        let fields = parse_line(&ev.to_json()).expect("parses");
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("record").unwrap().as_str(), Some("dispatch"));
        assert_eq!(get("kind").unwrap().as_str(), Some("lease"));
        assert_eq!(get("worker").unwrap().as_str(), Some("w\"1\""));
        assert_eq!(get("shard").unwrap().as_u64(), Some(2));
        assert_eq!(get("shards").unwrap().as_u64(), Some(6));
        assert_eq!(get("attempt").unwrap().as_u64(), Some(3));
        assert_eq!(get("done").unwrap().as_u64(), Some(17));
        assert_eq!(get("total").unwrap().as_u64(), Some(50));
    }

    #[test]
    fn snapshot_event_round_trips() {
        let ev = SnapshotEvent {
            app: "SCP",
            layer: "uarch",
            hardened: true,
            per_launch: 8,
            count: 9,
            bytes: 4_200_000,
            wall_us: 12_345,
        };
        let fields = parse_line(&ev.to_json()).expect("parses");
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("record").unwrap().as_str(), Some("snapshot"));
        assert_eq!(get("app").unwrap().as_str(), Some("SCP"));
        assert_eq!(get("layer").unwrap().as_str(), Some("uarch"));
        assert_eq!(get("hardened"), Some(JsonValue::Bool(true)));
        assert_eq!(get("per_launch").unwrap().as_u64(), Some(8));
        assert_eq!(get("count").unwrap().as_u64(), Some(9));
        assert_eq!(get("bytes").unwrap().as_u64(), Some(4_200_000));
        assert_eq!(get("wall_us").unwrap().as_u64(), Some(12_345));
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
        emit(&event());
        assert!(!path.exists());

        init_events(&path).unwrap();
        assert!(events_enabled());
        emit(&event());
        emit(&event());
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
