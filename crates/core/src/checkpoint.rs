//! JSONL checkpoint files for resumable campaigns.
//!
//! A checkpoint file records which trials of a [`crate::plan::CampaignPlan`]
//! shard have already been classified, so an interrupted shard can resume
//! without redoing finished injections and a `merge` can fold shard
//! outputs back into one result. The format follows the `obs::events`
//! record shape — one flat JSON object per line, written by
//! [`obs::events::record_json`] and read back with [`obs::events::Fields`]:
//!
//! ```text
//! {"record":"plan","trials":300,"shards":3,"shard_index":1,"fingerprint":1234}
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
use obs::events::{record_json, Fields};

use crate::plan::CampaignPlan;

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

/// The identity line of a checkpoint file: which plan, which shard. The
/// plan's fingerprint folds in its app, layer, seed, variant and sample
/// size, so the header does not repeat them. A header line that also
/// names them still loads: fields a reader does not ask for are ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Total trials in the whole plan (all shards).
    pub trials: usize,
    pub shards: usize,
    pub shard_index: usize,
    pub fingerprint: u64,
}

impl CheckpointHeader {
    pub fn for_plan(plan: &CampaignPlan, shards: usize, shard_index: usize) -> Self {
        CheckpointHeader {
            trials: plan.len(),
            shards,
            shard_index,
            fingerprint: plan.fingerprint(),
        }
    }

    /// Serialize as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        record_json(&[
            ("record", "plan".into()),
            ("trials", self.trials.into()),
            ("shards", self.shards.into()),
            ("shard_index", self.shard_index.into()),
            ("fingerprint", self.fingerprint.into()),
        ])
    }

    fn from_fields(f: &Fields) -> Option<CheckpointHeader> {
        Some(CheckpointHeader {
            trials: f.usize("trials")?,
            shards: f.usize("shards")?,
            shard_index: f.usize("shard_index")?,
            fingerprint: f.u64("fingerprint")?,
        })
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
        record_json(&[
            ("record", "trial".into()),
            ("idx", self.idx.into()),
            ("outcome", outcome_label(self.outcome).into()),
            ("ctrl", self.ctrl.into()),
            ("wall_us", self.wall_us.into()),
        ])
    }

    /// Rebuild from the fields of a `"record":"trial"` line (the caller
    /// has checked the discriminator).
    pub fn from_fields(f: &Fields) -> Option<TrialRecord> {
        Some(TrialRecord {
            idx: f.usize("idx")?,
            outcome: outcome_from_label(f.str("outcome")?)?,
            ctrl: f.bool("ctrl")?,
            wall_us: f.u64("wall_us")?,
        })
    }
}

/// One parsed checkpoint line.
#[derive(Debug, Clone, PartialEq)]
enum CheckpointLine {
    Header(CheckpointHeader),
    Trial(TrialRecord),
}

/// Parse one checkpoint line. `None` on malformed input or an unknown
/// record type.
fn parse_checkpoint_line(line: &str) -> Option<CheckpointLine> {
    let f = Fields::parse(line)?;
    match f.str("record")? {
        "plan" => CheckpointHeader::from_fields(&f).map(CheckpointLine::Header),
        "trial" => TrialRecord::from_fields(&f).map(CheckpointLine::Trial),
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

    /// The bytes of both line shapes. The trial line is the one every
    /// journal has always held; the header carries the shard slice and
    /// the fingerprint only, and a header that also names the plan's
    /// inputs (app, layer, seed, variant, n) still loads.
    #[test]
    fn line_bytes_are_pinned_and_extra_header_fields_are_ignored() {
        let trial = TrialRecord {
            idx: 17,
            outcome: Outcome::Sdc,
            ctrl: true,
            wall_us: 950,
        };
        assert_eq!(
            trial.to_json(),
            r#"{"record":"trial","idx":17,"outcome":"sdc","ctrl":true,"wall_us":950}"#
        );
        let h = CheckpointHeader {
            trials: 10,
            shards: 3,
            shard_index: 1,
            fingerprint: 0xFFFF_FFFF_FFFF_FFFE,
        };
        assert_eq!(
            h.to_json(),
            r#"{"record":"plan","trials":10,"shards":3,"shard_index":1,"fingerprint":18446744073709551614}"#
        );
        let with_inputs = r#"{"record":"plan","app":"VA","layer":"uarch","seed":43981,"hardened":false,"n":2,"trials":10,"shards":3,"shard_index":1,"fingerprint":18446744073709551614}"#;
        assert_eq!(
            parse_checkpoint_line(with_inputs),
            Some(CheckpointLine::Header(h))
        );
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

    /// A tail line of a million `[`s is a torn write like any other, and
    /// the same line between records is corruption; neither may overflow
    /// the reader's stack (2 MiB, a spawned thread's default).
    #[test]
    fn a_deeply_nested_line_is_torn_at_the_tail_and_corrupt_inside() {
        let text = checkpoint_to_string(&Checkpoint {
            header: header(),
            records: records(),
        });
        let deep = format!("{{\"idx\":{}", "[".repeat(1 << 20));
        let mut lines: Vec<&str> = text.lines().collect();
        let tail = format!("{text}{deep}");
        lines.insert(2, &deep);
        let inside = lines.join("\n");
        let (tail, inside) = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || (parse_checkpoint(&tail), parse_checkpoint(&inside)))
            .unwrap()
            .join()
            .expect("the reader must not overflow its stack");
        assert_eq!(tail.unwrap().records, records());
        assert!(matches!(
            inside,
            Err(CheckpointError::Corrupt { line_no: 3 })
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
    fn a_flush_interval_of_one_leaves_every_record_readable_at_once() {
        // The other edge of `flush_and_sync_makes_the_tail_durable_before_any_ack`:
        // at K = 1 (and at 0, which means 1) each record reaches the file
        // before `record` returns, with the writer still open.
        let dir = std::env::temp_dir().join(format!("relia_ckpt_k1_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for every in [0, 1] {
            let path = dir.join(format!("k{every}.jsonl"));
            let mut w = CheckpointWriter::create(&path, &header(), every).unwrap();
            for (i, r) in records().iter().enumerate() {
                w.record(r).unwrap();
                assert_eq!(load_checkpoint(&path).unwrap().records, records()[..=i]);
            }
        }
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
