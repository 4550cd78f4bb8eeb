//! The one holder of trial records: a slot per plan index.
//!
//! Execution is at-least-once everywhere records travel — a resumed
//! checkpoint next to its original, two dispatch workers racing on a
//! reassigned lease, one shard file handed to `campaign merge` twice — and
//! trials are deterministic, so the one duplicate rule lives here: a
//! second record for a plan index that agrees on `(outcome, ctrl)` folds
//! into the first (`wall_us` is wall-clock noise and may differ), one that
//! disagrees is corruption or a plan mismatch and is never papered over.
//! Because there is one slot per index, a duplicate can never be counted
//! twice, by [`crate::campaign::assemble`] or by [`records_fingerprint`].

use crate::campaign::EngineError;
use crate::checkpoint::TrialRecord;
use crate::plan::derive_seed;

/// The records held so far for a plan of a given length, keyed by plan
/// index; the first record for an index is the one kept.
#[derive(Debug, Clone)]
pub struct RecordSet {
    slots: Vec<Option<TrialRecord>>,
    held: usize,
}

impl RecordSet {
    /// An empty set for a plan of `plan_len` trials.
    pub fn new(plan_len: usize) -> Self {
        RecordSet {
            slots: vec![None; plan_len],
            held: 0,
        }
    }

    /// Offer one record: `Ok(true)` when its slot was empty, `Ok(false)`
    /// for an agreeing duplicate (dropped), [`EngineError::ForeignTrial`]
    /// for an index outside the plan and
    /// [`EngineError::ConflictingDuplicate`] for one that disagrees with
    /// the record already held.
    pub fn insert(&mut self, r: TrialRecord) -> Result<bool, EngineError> {
        let slot = (self.slots.get_mut(r.idx)).ok_or(EngineError::ForeignTrial { idx: r.idx })?;
        match slot {
            None => {
                *slot = Some(r);
                self.held += 1;
                Ok(true)
            }
            Some(first) if (first.outcome, first.ctrl) == (r.outcome, r.ctrl) => Ok(false),
            Some(_) => Err(EngineError::ConflictingDuplicate { idx: r.idx }),
        }
    }

    /// [`RecordSet::insert`] every record of `records`, in order.
    pub fn extend(&mut self, records: &[TrialRecord]) -> Result<(), EngineError> {
        records.iter().try_for_each(|&r| self.insert(r).map(drop))
    }

    pub fn get(&self, idx: usize) -> Option<&TrialRecord> {
        self.slots.get(idx)?.as_ref()
    }

    /// Plan indices that hold a record.
    pub fn held(&self) -> usize {
        self.held
    }

    /// The indices of `idxs` that hold no record yet, in `idxs` order.
    pub fn missing(&self, idxs: &[usize]) -> Vec<usize> {
        (idxs.iter().copied())
            .filter(|&i| self.get(i).is_none())
            .collect()
    }

    /// The records in plan order, or [`EngineError::IncompleteCover`] when
    /// some plan index holds none.
    pub fn complete(self) -> Result<Vec<TrialRecord>, EngineError> {
        let total = self.slots.len();
        if self.held < total {
            return Err(EngineError::IncompleteCover {
                missing: total - self.held,
                total,
            });
        }
        Ok(self.slots.into_iter().flatten().collect())
    }
}

/// Order-insensitive digest of a record set — two runs that classified
/// the same trials the same way agree on it regardless of shard layout.
/// Used by the shard-merge smoke gate and printed by `campaign merge`.
/// Per-record hashes are XOR-combined, so a duplicate cancels its twin:
/// hand it records that went through a [`RecordSet`], never a raw
/// concatenation that may repeat an index.
pub fn records_fingerprint(records: &[TrialRecord]) -> u64 {
    let mut acc = 0u64;
    for r in records {
        acc ^= derive_seed(
            0x5ca1_ab1e,
            &[r.idx as u64, r.outcome as u64, r.ctrl as u64],
        );
    }
    acc
}
