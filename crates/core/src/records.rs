//! The records of a campaign: [`RecordSet`], the one holder of trial
//! records while they arrive, and [`StrataRecords`], the one assembled
//! result, of which every metric the engine reports is a projection.
//!
//! Execution is at-least-once everywhere records travel — a resumed
//! checkpoint next to its original, two dispatch workers racing on a
//! reassigned lease, one shard file handed to `campaign merge` twice — and
//! trials are deterministic, so the one duplicate rule lives here: a
//! second record for a plan index that agrees on `(outcome, ctrl)` folds
//! into the first (`wall_us` is wall-clock noise and may differ), one that
//! disagrees is corruption or a plan mismatch and is never papered over.
//! Because there is one slot per index, a duplicate can never be counted
//! twice, by [`assemble`] or by [`records_fingerprint`].
//!
//! [`assemble`] folds a record set that covers the plan into a
//! [`StrataRecords`]: each stratum's outcomes in ordinal order, with the
//! golden run and the GPU the plan was expanded against. AVF (Section
//! II-B) and SVF (Section II-C) are its methods, and so are the rates of
//! any other fault kind (PVF, Figure 12's source-register kinds); the
//! `stat` crate reads the two-level estimate and the adaptive schedule off
//! it. A trial depends only on (seed, app, kernel, target, ordinal), never
//! on the plan that holds it, so the first `k` outcomes of a stratum are
//! the records a plan of `k` trials per stratum would produce.

use std::ops::Range;
use std::sync::Arc;

use kernels::{GoldenRun, Outcome};
use vgpu_sim::{GpuConfig, HwStructure, Stats, SwFaultKind};

use crate::campaign::EngineError;
use crate::checkpoint::TrialRecord;
use crate::metrics::{ClassCounts, ClassRates};
use crate::plan::{derive_seed, Layer, PreparedCampaign, TrialTarget};

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

/// Stage 3 of the engine, the one fold: the records of `prep`, stratum by
/// stratum of its plan. `records` may come from a single-shot run, a merge
/// of shards in any order, a resumed checkpoint or a dispatch fleet, and
/// may repeat a trial (at-least-once execution) — they pass through a
/// [`RecordSet`] first, so the result is identical in every case. Fails
/// when they do not cover the plan or disagree.
pub fn assemble(
    prep: &PreparedCampaign,
    records: &[TrialRecord],
) -> Result<StrataRecords, EngineError> {
    obs::span("core.assemble", || {
        let mut set = RecordSet::new(prep.plan.len());
        set.extend(records)?;
        let outs = set.complete()?;
        let strata = (prep.plan.strata_trials())
            .map(|(st, trials)| {
                let recs = trials.iter().map(|t| &outs[t.index]);
                RecordedStratum {
                    kernel_idx: st.kernel_idx,
                    target: st.target,
                    empty: trials.iter().all(|t| t.fault.is_none()),
                    outcomes: recs.clone().map(|r| r.outcome).collect(),
                    ctrl: recs.map(|r| r.ctrl).collect(),
                }
            })
            .collect();
        Ok(StrataRecords {
            app: prep.plan.app.clone(),
            layer: prep.plan.layer,
            seed: prep.plan.seed,
            gpu: prep.cfg.gpu.clone(),
            golden: prep.golden.clone(),
            kernels: prep
                .bench()
                .kernels()
                .iter()
                .map(|k| k.to_string())
                .collect(),
            strata,
        })
    })
}

/// One stratum of a plan with its trials' records in ordinal order.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedStratum {
    pub kernel_idx: usize,
    pub target: TrialTarget,
    /// The target population is empty: every trial was planned without a
    /// fault and is trivially masked.
    pub empty: bool,
    pub outcomes: Vec<Outcome>,
    /// Per trial, in the same order: masked, but with a total cycle count
    /// that differs from golden — the control-path proxy of Figure 11
    /// ([`TrialRecord::ctrl`]).
    pub ctrl: Vec<bool>,
}

impl RecordedStratum {
    /// Outcome counts of the trials with ordinals `range`.
    pub fn counts(&self, range: Range<usize>) -> ClassCounts {
        let mut c = ClassCounts::default();
        self.outcomes[range].iter().for_each(|&o| c.record(o));
        c
    }
}

/// A campaign's assembled result: its plan's strata in plan order, each
/// with its records, and the golden run and GPU the plan was expanded
/// against (the kernels' weights, populations and derating factors).
#[derive(Debug, Clone, PartialEq)]
pub struct StrataRecords {
    pub app: String,
    pub layer: Layer,
    pub seed: u64,
    /// The GPU the campaign ran on: its structure sizes weight chip AVF
    /// and scale the derating factors.
    pub gpu: GpuConfig,
    pub golden: Arc<GoldenRun>,
    /// Kernel names, in kernel order.
    pub kernels: Vec<String>,
    pub strata: Vec<RecordedStratum>,
}

impl StrataRecords {
    /// The strata of (`kernel_idx`, `target`): one in a fixed-n plan, none
    /// when the plan leaves the pair out, and one per slice when a plan
    /// holds the pair in several. Every projection sums them.
    fn of(&self, kernel_idx: usize, target: TrialTarget) -> impl Iterator<Item = &RecordedStratum> {
        (self.strata.iter()).filter(move |s| s.kernel_idx == kernel_idx && s.target == target)
    }

    /// Outcome counts of (`kernel_idx`, `target`) over all its slices;
    /// zero when the plan did not target it.
    pub fn counts(&self, kernel_idx: usize, target: TrialTarget) -> ClassCounts {
        let mut c = ClassCounts::default();
        (self.of(kernel_idx, target)).for_each(|s| c.add(&s.counts(0..s.outcomes.len())));
        c
    }

    /// Control-path-affected masked trials of (`kernel_idx`, `target`).
    pub fn ctrl_masked(&self, kernel_idx: usize, target: TrialTarget) -> u32 {
        let flags = self.of(kernel_idx, target).flat_map(|s| &s.ctrl);
        flags.filter(|&&c| c).count() as u32
    }

    /// Golden-run statistics of one kernel: its populations and weights.
    pub fn kernel_stats(&self, kernel_idx: usize) -> Stats {
        self.golden.kernel_stats(kernel_idx)
    }

    /// The application's rates under fault kind `kind`: each kernel that
    /// holds a stratum of the kind weighted by the kind's population in it
    /// — a sample drawn uniformly from the whole application's
    /// `kind`-eligible instructions, stratified by kernel.
    pub fn app_rates(&self, kind: SwFaultKind) -> ClassRates {
        let target = TrialTarget::Fault(kind);
        let planned = (0..self.kernels.len()).filter(|&k| self.of(k, target).next().is_some());
        ClassRates::weighted(planned.map(|k| {
            let rates = self.counts(k, target).rates();
            (rates, kind.eligible(&self.kernel_stats(k)))
        }))
    }

    // -----------------------------------------------------------------
    // Microarchitecture level (AVF, Section II-B)
    // -----------------------------------------------------------------

    /// Derating factor of structure `h` in one kernel
    /// ([`derating_factor`] on the campaign's golden run and GPU).
    pub fn derating(&self, kernel_idx: usize, h: HwStructure) -> f64 {
        derating_factor(&self.golden, kernel_idx, &self.gpu, h)
    }

    /// AVF of one structure in one kernel: per-class failure fractions ×
    /// derating factor; zero for a structure the plan did not target.
    pub fn avf(&self, kernel_idx: usize, h: HwStructure) -> ClassRates {
        let counts = self.counts(kernel_idx, TrialTarget::Structure(h));
        counts.rates().scale(self.derating(kernel_idx, h))
    }

    /// Size-weighted AVF of one kernel over a set of structures.
    fn avf_over(&self, kernel_idx: usize, set: &[HwStructure]) -> ClassRates {
        let total_bits: u64 = set.iter().map(|&h| self.gpu.structure_bits(h)).sum();
        let mut acc = ClassRates::default();
        for &h in set {
            let w = self.gpu.structure_bits(h) as f64 / total_bits as f64;
            acc.add(&self.avf(kernel_idx, h).scale(w));
        }
        acc
    }

    /// Full-chip AVF of one kernel: the five storage structures,
    /// size-weighted (a SIMT or scheduler stratum does not enter it).
    pub fn chip_avf(&self, kernel_idx: usize) -> ClassRates {
        self.avf_over(kernel_idx, &HwStructure::ALL)
    }

    /// Fraction of one kernel's trials that were masked with a disturbed
    /// cycle count (Figure 11).
    pub fn ctrl_fraction(&self, kernel_idx: usize) -> f64 {
        let mine = (self.strata.iter()).filter(|s| s.kernel_idx == kernel_idx);
        let flags = mine.flat_map(|s| &s.ctrl);
        let (total, ctrl) = flags.fold((0u32, 0u32), |(t, c), &f| (t + 1, c + f as u32));
        if total == 0 {
            return 0.0;
        }
        ctrl as f64 / total as f64
    }

    fn cycle_weighted(&self, f: impl Fn(usize) -> ClassRates) -> ClassRates {
        let kernels = 0..self.kernels.len();
        ClassRates::weighted(kernels.map(|k| (f(k), self.kernel_stats(k).cycles)))
    }

    /// Application AVF: kernel chip AVF weighted by kernel cycles
    /// (Section II-B's multi-kernel rule).
    pub fn app_avf(&self) -> ClassRates {
        self.cycle_weighted(|k| self.chip_avf(k))
    }

    /// Application AVF restricted to one structure (AVF-RF of Figure 4).
    pub fn app_avf_structure(&self, h: HwStructure) -> ClassRates {
        self.cycle_weighted(|k| self.avf(k, h))
    }

    /// Application AVF over the cache structures (Figure 5).
    pub fn app_avf_cache(&self) -> ClassRates {
        self.cycle_weighted(|k| self.avf_over(k, &HwStructure::CACHES))
    }

    // -----------------------------------------------------------------
    // Software level (SVF, Section II-C)
    // -----------------------------------------------------------------

    /// `SVF(ker) = FR(ker)` per class, of destination-value injections.
    pub fn svf(&self, kernel_idx: usize) -> ClassRates {
        let target = TrialTarget::Fault(SwFaultKind::DestValue);
        self.counts(kernel_idx, target).rates()
    }

    /// SVF-LD of one kernel: load-destination injections (Figure 5).
    pub fn svf_ld(&self, kernel_idx: usize) -> ClassRates {
        let target = TrialTarget::Fault(SwFaultKind::DestValueLoad);
        self.counts(kernel_idx, target).rates()
    }

    fn instr_weighted(&self, f: impl Fn(usize) -> ClassRates) -> ClassRates {
        let kernels = 0..self.kernels.len();
        ClassRates::weighted(kernels.map(|k| (f(k), self.kernel_stats(k).thread_instrs)))
    }

    /// Application SVF: kernel SVF weighted by executed thread
    /// instructions (Section II-C's multi-kernel rule).
    pub fn app_svf(&self) -> ClassRates {
        self.instr_weighted(|k| self.svf(k))
    }

    pub fn app_svf_ld(&self) -> ClassRates {
        self.instr_weighted(|k| self.svf_ld(k))
    }
}

/// Derating factor of one kernel for RF or SMEM, cycle-weighted over its
/// launches (Section II-B):
/// `DF = size_per_thread × num_threads / system_size`
/// (per-CTA for shared memory), clamped to 1; 1 for every other structure.
pub fn derating_factor(
    golden: &GoldenRun,
    kernel_idx: usize,
    gpu: &GpuConfig,
    h: HwStructure,
) -> f64 {
    let mut weighted = 0.0f64;
    let mut cycles = 0u64;
    for r in golden.records.iter().filter(|r| r.kernel_idx == kernel_idx) {
        let live_bits = match h {
            HwStructure::RegFile => r.num_regs as u64 * 32 * r.threads,
            HwStructure::Smem => r.smem_bytes as u64 * 8 * r.ctas,
            _ => return 1.0,
        };
        let df = (live_bits as f64 / gpu.structure_bits(h) as f64).min(1.0);
        weighted += df * r.stats.cycles as f64;
        cycles += r.stats.cycles;
    }
    if cycles == 0 {
        0.0
    } else {
        weighted / cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::LaunchRecord;

    /// PVF is the ArchState rate of each kernel weighted by its golden
    /// thread-instructions; strata of other kinds do not enter it.
    #[test]
    fn arch_state_rates_are_weighted_by_thread_instructions() {
        use Outcome::{Due, Masked, Sdc};
        let launch = |kernel_idx, thread_instrs| LaunchRecord {
            kernel_idx,
            is_vote: false,
            stats: Stats {
                thread_instrs,
                ..Stats::default()
            },
            threads: 0,
            ctas: 0,
            num_regs: 0,
            smem_bytes: 0,
        };
        let stratum = |kernel_idx, kind, outcomes: &[Outcome]| RecordedStratum {
            kernel_idx,
            target: TrialTarget::Fault(kind),
            empty: false,
            outcomes: outcomes.to_vec(),
            ctrl: vec![false; outcomes.len()],
        };
        let golden = GoldenRun {
            records: vec![launch(0, 100), launch(1, 300)],
            output: Vec::new(),
            total_cost: 0,
        };
        let records = StrataRecords {
            app: "Two".into(),
            layer: Layer::Sw,
            seed: 0,
            gpu: GpuConfig::default(),
            golden: Arc::new(golden),
            kernels: vec!["K1".into(), "K2".into()],
            strata: vec![
                stratum(0, SwFaultKind::ArchState, &[Sdc, Sdc, Masked, Masked]),
                stratum(0, SwFaultKind::DestValue, &[Sdc; 4]),
                stratum(1, SwFaultKind::ArchState, &[Due, Masked, Masked, Masked]),
            ],
        };
        let pvf = records.app_rates(SwFaultKind::ArchState);
        // SDC: (100 · 1/2 + 300 · 0) / 400; DUE: (100 · 0 + 300 · 1/4) / 400.
        assert!((pvf.sdc - 0.125).abs() < 1e-12, "{pvf:?}");
        assert!((pvf.due - 0.1875).abs() < 1e-12, "{pvf:?}");
        assert_eq!(pvf.timeout, 0.0);
    }
}
