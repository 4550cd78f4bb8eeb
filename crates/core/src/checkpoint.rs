//! Hand-rolled JSONL checkpoint files for resumable campaigns.
//!
//! A checkpoint file records which trials of a [`crate::plan::CampaignPlan`]
//! shard have already been classified, so an interrupted shard can resume
//! without redoing finished injections and a `merge` can fold shard
//! outputs back into one result. The format follows the `obs::events`
//! record shape — one flat JSON object per line, written with the same
//! hand-rolled serializer conventions and read back with
//! [`obs::events::parse_line`]:
//!
//! ```text
//! {"record":"plan","app":"VA","layer":"uarch","seed":43981,"hardened":false,...}
//! {"record":"trial","idx":7,"outcome":"sdc","ctrl":false,"wall_us":123}
//! ```
//!
//! The first line identifies the plan (including its
//! [`fingerprint`](crate::plan::CampaignPlan::fingerprint) and the shard
//! slice); every following line is one classified trial. Writes are
//! append-only and flushed every K records, so the worst an interruption
//! can lose is K trials plus one torn line — [`parse_checkpoint`] drops an
//! unparseable *final* line as a torn write while still treating interior
//! garbage as corruption.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use kernels::Outcome;
use obs::events::{parse_line, push_json_str, JsonValue};

use crate::plan::{CampaignPlan, Layer};

/// Default flush interval: completed trials between checkpoint flushes.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 64;

/// Map a campaign outcome onto the obs reporting enum, whose labels are
/// the one table of outcome strings (events, metrics, checkpoints, wire).
pub(crate) fn outcome_class(o: Outcome) -> obs::OutcomeClass {
    match o {
        Outcome::Masked => obs::OutcomeClass::Masked,
        Outcome::Sdc => obs::OutcomeClass::Sdc,
        Outcome::Timeout => obs::OutcomeClass::Timeout,
        Outcome::Due => obs::OutcomeClass::Due,
    }
}

/// Outcome class label as used in event logs and checkpoints.
pub fn outcome_label(o: Outcome) -> &'static str {
    outcome_class(o).label()
}

pub fn outcome_from_label(s: &str) -> Option<Outcome> {
    [
        Outcome::Masked,
        Outcome::Sdc,
        Outcome::Timeout,
        Outcome::Due,
    ]
    .into_iter()
    .find(|&o| outcome_label(o) == s)
}

/// The identity line of a checkpoint file: which plan, which shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    pub app: String,
    pub layer: Layer,
    pub seed: u64,
    pub hardened: bool,
    /// Injections per (kernel, target) sub-campaign.
    pub n_per_target: usize,
    /// Total trials in the whole plan (all shards).
    pub trials: usize,
    pub shards: usize,
    pub shard_index: usize,
    pub fingerprint: u64,
}

impl CheckpointHeader {
    pub fn for_plan(plan: &CampaignPlan, shards: usize, shard_index: usize) -> Self {
        CheckpointHeader {
            app: plan.app.clone(),
            layer: plan.layer,
            seed: plan.seed,
            hardened: plan.hardened,
            n_per_target: plan.n_per_target,
            trials: plan.len(),
            shards,
            shard_index,
            fingerprint: plan.fingerprint(),
        }
    }

    /// Whether this header and `other` come from the same plan (any shard).
    pub fn same_plan(&self, other: &CheckpointHeader) -> bool {
        self.app == other.app
            && self.layer == other.layer
            && self.seed == other.seed
            && self.hardened == other.hardened
            && self.n_per_target == other.n_per_target
            && self.trials == other.trials
            && self.shards == other.shards
            && self.fingerprint == other.fingerprint
    }

    /// Serialize as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str("{\"record\":\"plan\",\"app\":");
        push_json_str(&mut s, &self.app);
        s.push_str(",\"layer\":");
        push_json_str(&mut s, self.layer.label());
        s.push_str(&format!(
            ",\"seed\":{},\"hardened\":{},\"n\":{},\"trials\":{},\"shards\":{},\"shard_index\":{},\"fingerprint\":{}}}",
            self.seed,
            self.hardened,
            self.n_per_target,
            self.trials,
            self.shards,
            self.shard_index,
            self.fingerprint
        ));
        s
    }
}

/// One classified trial, as recorded in a checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    /// Global plan index ([`crate::plan::PlannedTrial::index`]).
    pub idx: usize,
    pub outcome: Outcome,
    /// Masked with a disturbed cycle count (the Figure-11 control-path
    /// proxy); always `false` for software-level trials.
    pub ctrl: bool,
    /// Wall-clock time of the trial in microseconds (0 when untimed).
    pub wall_us: u64,
}

impl TrialRecord {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"record\":\"trial\",\"idx\":{},\"outcome\":\"{}\",\"ctrl\":{},\"wall_us\":{}}}",
            self.idx,
            outcome_label(self.outcome),
            self.ctrl,
            self.wall_us
        )
    }
}

/// One parsed checkpoint line.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointLine {
    Header(CheckpointHeader),
    Trial(TrialRecord),
}

/// Parse one checkpoint line. `None` on malformed input or an unknown
/// record type.
pub fn parse_checkpoint_line(line: &str) -> Option<CheckpointLine> {
    let fields = parse_line(line)?;
    let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    let num = |k: &str| get(k).and_then(JsonValue::as_u64);
    let boolean = |k: &str| match get(k)? {
        JsonValue::Bool(b) => Some(*b),
        _ => None,
    };
    match get("record")?.as_str()? {
        "plan" => Some(CheckpointLine::Header(CheckpointHeader {
            app: get("app")?.as_str()?.to_string(),
            layer: Layer::from_label(get("layer")?.as_str()?)?,
            seed: num("seed")?,
            hardened: boolean("hardened")?,
            n_per_target: num("n")? as usize,
            trials: num("trials")? as usize,
            shards: num("shards")? as usize,
            shard_index: num("shard_index")? as usize,
            fingerprint: num("fingerprint")?,
        })),
        "trial" => Some(CheckpointLine::Trial(TrialRecord {
            idx: num("idx")? as usize,
            outcome: outcome_from_label(get("outcome")?.as_str()?)?,
            ctrl: boolean("ctrl")?,
            wall_us: num("wall_us")?,
        })),
        _ => None,
    }
}

/// Why a checkpoint file could not be loaded.
#[derive(Debug)]
pub enum CheckpointError {
    Io(std::io::Error),
    /// The file has no (complete) header line.
    MissingHeader,
    /// An interior line failed to parse — real corruption, not a torn
    /// final write.
    Corrupt {
        line_no: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::MissingHeader => {
                write!(f, "checkpoint has no complete plan header line")
            }
            CheckpointError::Corrupt { line_no } => {
                write!(f, "checkpoint corrupt at line {line_no}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A loaded checkpoint: plan identity plus all classified trials.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub header: CheckpointHeader,
    pub records: Vec<TrialRecord>,
}

/// Canonical serialization: header line then one line per record, each
/// newline-terminated. `parse_checkpoint(checkpoint_to_string(c)) == c`
/// and serialize∘parse∘serialize is a fixpoint (guarded by property
/// tests).
pub fn checkpoint_to_string(c: &Checkpoint) -> String {
    let mut s = c.header.to_json();
    s.push('\n');
    for r in &c.records {
        s.push_str(&r.to_json());
        s.push('\n');
    }
    s
}

/// Parse checkpoint text. The final line, if unparseable, is treated as a
/// torn write (the process died mid-line) and dropped; blank lines are
/// skipped; any other unparseable line is an error.
pub fn parse_checkpoint(text: &str) -> Result<Checkpoint, CheckpointError> {
    let lines: Vec<&str> = text.lines().collect();
    let last_nonblank = lines.iter().rposition(|l| !l.trim().is_empty());
    let mut header: Option<CheckpointHeader> = None;
    let mut records = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        match parse_checkpoint_line(raw) {
            Some(CheckpointLine::Header(h)) => {
                if header.is_some() {
                    return Err(CheckpointError::Corrupt { line_no: i + 1 });
                }
                header = Some(h);
            }
            Some(CheckpointLine::Trial(t)) => {
                if header.is_none() {
                    return Err(CheckpointError::MissingHeader);
                }
                records.push(t);
            }
            None => {
                if Some(i) == last_nonblank {
                    break; // torn final write
                }
                return Err(CheckpointError::Corrupt { line_no: i + 1 });
            }
        }
    }
    Ok(Checkpoint {
        header: header.ok_or(CheckpointError::MissingHeader)?,
        records,
    })
}

/// Load and parse a checkpoint file.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, CheckpointError> {
    parse_checkpoint(&std::fs::read_to_string(path)?)
}

/// Incremental checkpoint writer: appends one line per classified trial
/// and flushes every `every` records, so an interruption loses at most
/// `every` finished trials (plus one torn line, which the reader drops).
pub struct CheckpointWriter {
    w: BufWriter<File>,
    every: usize,
    pending: usize,
}

impl CheckpointWriter {
    /// Create (truncate) `path` and write the header, flushed immediately
    /// so even an instantly-killed shard leaves a resumable file behind.
    pub fn create(
        path: &Path,
        header: &CheckpointHeader,
        every: usize,
    ) -> std::io::Result<CheckpointWriter> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(header.to_json().as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()?;
        Ok(CheckpointWriter {
            w,
            every: every.max(1),
            pending: 0,
        })
    }

    /// Rewrite `path` with the canonical serialization of an existing
    /// checkpoint and keep it open for appending — the resume path. The
    /// rewrite truncates any torn final line the previous run left, so
    /// appends never land mid-record.
    pub fn recreate(
        path: &Path,
        existing: &Checkpoint,
        every: usize,
    ) -> std::io::Result<CheckpointWriter> {
        let mut cw = CheckpointWriter::create(path, &existing.header, every)?;
        for r in &existing.records {
            cw.w.write_all(r.to_json().as_bytes())?;
            cw.w.write_all(b"\n")?;
        }
        cw.w.flush()?;
        Ok(cw)
    }

    /// Append one classified trial, flushing every `every` records.
    pub fn record(&mut self, t: &TrialRecord) -> std::io::Result<()> {
        self.w.write_all(t.to_json().as_bytes())?;
        self.w.write_all(b"\n")?;
        self.pending += 1;
        if self.pending >= self.every {
            self.w.flush()?;
            self.pending = 0;
            obs::counter_add("campaign_checkpoint_flushes_total", &[], 1);
        }
        Ok(())
    }

    /// Flush buffered lines *and* fsync the file to stable storage.
    ///
    /// Used whenever completion is about to be acknowledged to someone
    /// else — a shard reporting "done" to its driver, the dispatch
    /// coordinator acking a shard to a worker — so a crash immediately
    /// after the acknowledgement cannot lose the tail of the journal.
    /// (A plain [`std::io::Write::flush`] only empties the userspace
    /// buffer; the data can still sit in the page cache when power goes.)
    pub fn flush_and_sync(&mut self) -> std::io::Result<()> {
        self.w.flush()?;
        self.w.get_ref().sync_all()?;
        self.pending = 0;
        Ok(())
    }

    /// Flush and fsync any buffered lines. Shard completion goes through
    /// here so the checkpoint is durable before the shard reports done.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.flush_and_sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            app: "VA".into(),
            layer: Layer::Uarch,
            seed: 0xDEAD_BEEF_1234_5678,
            hardened: false,
            n_per_target: 60,
            trials: 300,
            shards: 3,
            shard_index: 1,
            fingerprint: 0xFFFF_FFFF_FFFF_FFFE,
        }
    }

    fn records() -> Vec<TrialRecord> {
        vec![
            TrialRecord {
                idx: 1,
                outcome: Outcome::Masked,
                ctrl: false,
                wall_us: 12,
            },
            TrialRecord {
                idx: 4,
                outcome: Outcome::Sdc,
                ctrl: false,
                wall_us: 900,
            },
            TrialRecord {
                idx: 7,
                outcome: Outcome::Masked,
                ctrl: true,
                wall_us: 0,
            },
        ]
    }

    #[test]
    fn lines_round_trip() {
        let h = header();
        assert_eq!(
            parse_checkpoint_line(&h.to_json()),
            Some(CheckpointLine::Header(h))
        );
        for r in records() {
            assert_eq!(
                parse_checkpoint_line(&r.to_json()),
                Some(CheckpointLine::Trial(r))
            );
        }
        assert!(parse_checkpoint_line("{\"record\":\"unknown\"}").is_none());
        assert!(parse_checkpoint_line("not json").is_none());
    }

    #[test]
    fn text_round_trip_and_torn_tail() {
        let ck = Checkpoint {
            header: header(),
            records: records(),
        };
        let text = checkpoint_to_string(&ck);
        assert_eq!(parse_checkpoint(&text).unwrap(), ck);
        // serialize → parse → serialize fixpoint
        assert_eq!(
            checkpoint_to_string(&parse_checkpoint(&text).unwrap()),
            text
        );
        // A torn final line is dropped, not fatal.
        let torn = &text[..text.len() - 9];
        let recovered = parse_checkpoint(torn).unwrap();
        assert_eq!(recovered.records, ck.records[..2].to_vec());
        // Interior corruption is fatal.
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "garbage";
        let bad = lines.join("\n");
        assert!(matches!(
            parse_checkpoint(&bad),
            Err(CheckpointError::Corrupt { line_no: 2 })
        ));
        assert!(matches!(
            parse_checkpoint(""),
            Err(CheckpointError::MissingHeader)
        ));
    }

    #[test]
    fn flush_and_sync_makes_the_tail_durable_before_any_ack() {
        // With a huge flush interval nothing reaches the file until the
        // writer is told to sync; after flush_and_sync every record must
        // be readable even though the writer is still open (the state a
        // coordinator is in when it acks a shard and then crashes).
        let dir = std::env::temp_dir().join(format!("relia_ckpt_sync_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("shard.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(), 1_000_000).unwrap();
        for r in records() {
            w.record(&r).unwrap();
        }
        assert_eq!(
            load_checkpoint(&path).unwrap().records.len(),
            0,
            "records still buffered before the sync"
        );
        w.flush_and_sync().unwrap();
        assert_eq!(load_checkpoint(&path).unwrap().records, records());
        // The writer keeps appending normally afterwards.
        let extra = TrialRecord {
            idx: 11,
            outcome: Outcome::Sdc,
            ctrl: false,
            wall_us: 1,
        };
        w.record(&extra).unwrap();
        w.finish().unwrap();
        assert_eq!(load_checkpoint(&path).unwrap().records.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_create_record_recreate() {
        let dir = std::env::temp_dir().join("relia_ckpt_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("shard.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(), 2).unwrap();
        for r in records() {
            w.record(&r).unwrap();
        }
        w.finish().unwrap();
        let ck = load_checkpoint(&path).unwrap();
        assert_eq!(ck.header, header());
        assert_eq!(ck.records, records());

        // Simulate a torn write, then verify recreate truncates it away.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"record\":\"tri");
        std::fs::write(&path, &text).unwrap();
        let loaded = load_checkpoint(&path).unwrap();
        let mut w = CheckpointWriter::recreate(&path, &loaded, 2).unwrap();
        let extra = TrialRecord {
            idx: 10,
            outcome: Outcome::Due,
            ctrl: false,
            wall_us: 5,
        };
        w.record(&extra).unwrap();
        w.finish().unwrap();
        let after = load_checkpoint(&path).unwrap();
        assert_eq!(after.records.len(), 4);
        assert_eq!(after.records[3], extra);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
