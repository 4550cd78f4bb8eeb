//! Fault specifications for both abstraction layers.
//!
//! * [`UarchFault`] — a microarchitecture-level fault at a given cycle in
//!   one of the modeled hardware structures (the gpuFI-4 model of the
//!   paper: register files, shared memory, L1 data cache, L1 texture
//!   cache, L2 cache — plus the SIMT divergence stack and warp-scheduler
//!   state for the permanent-fault extension).
//! * [`SwFault`] — a software-level flip in the value produced (or read) by
//!   one dynamic instruction (the NVBitFI model), plus the source-register
//!   variants the paper proposes in Section V-B.
//!
//! Both carry a [`FaultPattern`] selecting *what* is corrupted at the
//! chosen site: the classic uniform single-bit flip, spatial multi-bit
//! transients (adjacent double-bit, whole-entry, row/column bursts per
//! structure geometry), or persistent stuck-at-0/1 faults that are
//! re-asserted on every access until the launch retires. See
//! docs/FAULT_MODELS.md for the catalog and geometry mapping.
//!
//! What a [`UarchFault`] in a storage structure *names* — which words of
//! which physical array, out of what population — is decided in one place,
//! [`resolve_site`] (next to [`pattern_footprint`], the pattern geometry it
//! expands the seed with). The injector of the timed engine applies the
//! [`FaultSite`] it returns; the trace-replay adjudicator looks the same
//! site's words up in the recorded probe stream, where [`cache_word`]
//! names cache words. The two agree by construction.

use vgpu_arch::{InstrClass, WARP_SIZE};

use crate::config::GpuConfig;
use crate::probe::LaunchGeometry;
use crate::stats::Stats;

/// The hardware structures targeted by microarchitecture-level fault
/// injection. The first five are the paper's storage structures; `Simt`
/// (per-warp divergence-stack state) and `Sched` (warp-scheduler
/// readiness state) extend the model to the parallelism-management units
/// that permanent-fault studies single out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HwStructure {
    RegFile,
    Smem,
    L1D,
    L1T,
    L2,
    /// Top-of-stack active mask of one warp's SIMT divergence stack.
    Simt,
    /// Warp-scheduler readiness state (`ready_at`) of one warp.
    Sched,
}

impl HwStructure {
    /// The paper's five storage structures (AVF reporting set).
    pub const ALL: [HwStructure; 5] = [
        HwStructure::RegFile,
        HwStructure::Smem,
        HwStructure::L1D,
        HwStructure::L1T,
        HwStructure::L2,
    ];

    /// Every structure the injector can target, including the SIMT stack
    /// and scheduler state (stuck-at campaigns).
    pub const INJECTABLE: [HwStructure; 7] = [
        HwStructure::RegFile,
        HwStructure::Smem,
        HwStructure::L1D,
        HwStructure::L1T,
        HwStructure::L2,
        HwStructure::Simt,
        HwStructure::Sched,
    ];

    /// Short label used in reports (matches the paper's figure labels).
    pub fn label(&self) -> &'static str {
        match self {
            HwStructure::RegFile => "RF",
            HwStructure::Smem => "SMEM",
            HwStructure::L1D => "L1D",
            HwStructure::L1T => "L1T",
            HwStructure::L2 => "L2",
            HwStructure::Simt => "SIMT",
            HwStructure::Sched => "SCHED",
        }
    }

    /// Inverse of [`label`](HwStructure::label): parse a report label.
    pub fn from_label(s: &str) -> Option<HwStructure> {
        match s {
            "RF" => Some(HwStructure::RegFile),
            "SMEM" => Some(HwStructure::Smem),
            "L1D" => Some(HwStructure::L1D),
            "L1T" => Some(HwStructure::L1T),
            "L2" => Some(HwStructure::L2),
            "SIMT" => Some(HwStructure::Simt),
            "SCHED" => Some(HwStructure::Sched),
            _ => None,
        }
    }

    /// The cache structures (used for the AVF-Cache sub-metric of Fig. 5).
    pub const CACHES: [HwStructure; 3] = [HwStructure::L1D, HwStructure::L1T, HwStructure::L2];
}

/// What is corrupted at the fault site: the classic uniform single-bit
/// transient, a spatial multi-bit transient, or a persistent stuck-at
/// fault re-asserted on every access until the launch retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultPattern {
    /// Flip one uniformly chosen bit (the paper's baseline model).
    #[default]
    SingleBit,
    /// Flip two adjacent bits of the same entry (wrapping at the entry
    /// width) — the dominant spatial multi-bit pattern in field studies.
    DoubleAdjacent,
    /// Corrupt every bit of the selected entry (word / byte).
    WholeEntry,
    /// Flip the selected bit position in every entry of the aligned
    /// geometric row containing the site (cache line, register row).
    BurstRow,
    /// Flip the selected bit position in up to [`BURST_COL_ROWS`]
    /// consecutive rows starting at the site (a column burst).
    BurstCol,
    /// Permanently force the selected bit to 0 until launch end.
    StuckAt0,
    /// Permanently force the selected bit to 1 until launch end.
    StuckAt1,
}

/// How many rows a [`FaultPattern::BurstCol`] fault spans (clipped at the
/// end of the structure; no wrap-around).
pub const BURST_COL_ROWS: u64 = 8;

impl FaultPattern {
    pub const ALL: [FaultPattern; 7] = [
        FaultPattern::SingleBit,
        FaultPattern::DoubleAdjacent,
        FaultPattern::WholeEntry,
        FaultPattern::BurstRow,
        FaultPattern::BurstCol,
        FaultPattern::StuckAt0,
        FaultPattern::StuckAt1,
    ];

    /// Stable identifier used by `--fault-model`, metric labels, and the
    /// dispatch protocol.
    pub fn label(&self) -> &'static str {
        match self {
            FaultPattern::SingleBit => "single-bit",
            FaultPattern::DoubleAdjacent => "double-adjacent",
            FaultPattern::WholeEntry => "whole-entry",
            FaultPattern::BurstRow => "burst-row",
            FaultPattern::BurstCol => "burst-col",
            FaultPattern::StuckAt0 => "stuck-at-0",
            FaultPattern::StuckAt1 => "stuck-at-1",
        }
    }

    /// Inverse of [`label`](FaultPattern::label).
    pub fn from_label(s: &str) -> Option<FaultPattern> {
        FaultPattern::ALL.into_iter().find(|p| p.label() == s)
    }

    /// Persistent faults are re-asserted until launch end; they disable
    /// the masked-convergence early exit (the machine can never provably
    /// re-converge to golden while the fault is live).
    pub fn is_persistent(&self) -> bool {
        matches!(self, FaultPattern::StuckAt0 | FaultPattern::StuckAt1)
    }

    /// The forced bit value of a stuck-at pattern; `None` for transients.
    pub fn stuck_value(&self) -> Option<bool> {
        match self {
            FaultPattern::StuckAt0 => Some(false),
            FaultPattern::StuckAt1 => Some(true),
            _ => None,
        }
    }
}

/// The exact set of `(entry, bit-mask)` sites a pattern corrupts in a
/// storage structure of `entries` entries of `width` bits each, arranged
/// geometrically in rows of `row` entries. `entry`/`bit` locate the seed
/// site (the uniformly drawn single-bit location); every returned entry
/// index is `< entries` and every mask fits in `width` bits. This is the
/// single source of truth for pattern geometry — the injector, the
/// property tests, and docs/FAULT_MODELS.md all derive from it.
pub fn pattern_footprint(
    pattern: FaultPattern,
    entry: u64,
    bit: u8,
    entries: u64,
    width: u8,
    row: u64,
) -> Vec<(u64, u32)> {
    debug_assert!(entries > 0 && width > 0 && (1..=32).contains(&width));
    let entry = entry % entries;
    let b = u32::from(bit) % u32::from(width);
    let one = 1u32 << b;
    let row = row.max(1);
    match pattern {
        FaultPattern::SingleBit | FaultPattern::StuckAt0 | FaultPattern::StuckAt1 => {
            vec![(entry, one)]
        }
        FaultPattern::DoubleAdjacent => {
            let b2 = (b + 1) % u32::from(width);
            vec![(entry, one | (1u32 << b2))]
        }
        FaultPattern::WholeEntry => {
            let mask = if width >= 32 {
                !0u32
            } else {
                (1u32 << width) - 1
            };
            vec![(entry, mask)]
        }
        FaultPattern::BurstRow => {
            let start = (entry / row) * row;
            (start..(start + row).min(entries))
                .map(|e| (e, one))
                .collect()
        }
        FaultPattern::BurstCol => (0..BURST_COL_ROWS)
            .map_while(|r| {
                let e = entry.checked_add(r * row)?;
                (e < entries).then_some((e, one))
            })
            .collect(),
    }
}

/// The physical location of one storage-structure fault: what
/// [`resolve_site`] makes of a [`UarchFault`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSite {
    pub structure: HwStructure,
    /// Size of the population the seed location was drawn from: the words
    /// of resident CTAs for the register file and shared memory (0 when
    /// none is resident — the fault lands nowhere), data-array bits for
    /// caches.
    pub population: u64,
    /// The array instance hit: the SM, or 0 for the L2.
    pub inst: usize,
    /// `(element, mask)` pairs to corrupt within that instance, ascending
    /// by element: 32-bit words of the SM's register file / shared memory,
    /// or bytes of the cache's data array (8-bit masks). Empty when the
    /// population is.
    pub footprint: Vec<(u64, u32)>,
}

impl FaultSite {
    /// The footprint as probe-stream word names
    /// ([`SegEvent::Access`](crate::probe::SegEvent)), ascending, each once.
    pub fn words(&self) -> Vec<u64> {
        let is_cache = HwStructure::CACHES.contains(&self.structure);
        let mut words: Vec<u64> = self
            .footprint
            .iter()
            .map(|&(e, _)| if is_cache { cache_word(e) } else { e })
            .collect();
        words.dedup();
        words
    }
}

/// The probe-stream name of the cache word holding byte `byte` of a data
/// array: its index in the array, whatever the line size.
pub fn cache_word(byte: u64) -> u64 {
    byte / 4
}

/// Site selection for a fault in one of the five storage structures, at a
/// cycle when `occupied(sm, slot)` says which CTA slots of the launch
/// hold a CTA: the seed location is `loc_pick % population` — over the
/// register / shared-memory partitions of the occupied slots in (SM, slot)
/// order, or over the data-array bytes of all instances of the cache,
/// valid or not — and the pattern expands it within its array
/// ([`pattern_footprint`]; rows are the 32 lanes / banks of a register or
/// shared-memory row, and a cache line). `None` for the control-state
/// structures, whose sites are warps, not words.
pub fn resolve_site(
    fault: &UarchFault,
    geom: &LaunchGeometry,
    cfg: &GpuConfig,
    occupied: impl Fn(usize, usize) -> bool,
) -> Option<FaultSite> {
    let structure = fault.structure;
    let (population, inst, seed, entries, width, row) = match structure {
        HwStructure::RegFile | HwStructure::Smem => {
            let (per_cta, entries) = if structure == HwStructure::RegFile {
                (geom.regs_per_cta, cfg.rf_regs_per_sm)
            } else {
                (geom.smem_words_per_cta, cfg.smem_bytes_per_sm / 4)
            };
            let per_cta = u64::from(per_cta);
            let live = || {
                (0..cfg.num_sms as usize)
                    .flat_map(|sm| (0..geom.slots_per_sm as usize).map(move |slot| (sm, slot)))
                    .filter(|&(sm, slot)| occupied(sm, slot))
            };
            let population = live().count() as u64 * per_cta;
            if population == 0 {
                // Nothing allocated at this cycle: trivially masked.
                return Some(FaultSite {
                    structure,
                    population,
                    inst: 0,
                    footprint: Vec::new(),
                });
            }
            let target = fault.loc_pick % population;
            let (sm, slot) = live()
                .nth((target / per_cta) as usize)
                .expect("the target is inside the population");
            let seed = slot as u64 * per_cta + target % per_cta;
            (
                population,
                sm,
                seed,
                u64::from(entries),
                32,
                WARP_SIZE as u64,
            )
        }
        HwStructure::L1D | HwStructure::L1T | HwStructure::L2 => {
            let (cache, count) = match structure {
                HwStructure::L1D => (&cfg.l1d, cfg.num_sms),
                HwStructure::L1T => (&cfg.l1t, cfg.num_sms),
                _ => (&cfg.l2, 1),
            };
            let per = u64::from(cache.bytes);
            let byte = fault.loc_pick % (per * u64::from(count));
            let inst = (byte / per) as usize;
            let row = u64::from(cache.line_bytes);
            (per * u64::from(count) * 8, inst, byte % per, per, 8, row)
        }
        HwStructure::Simt | HwStructure::Sched => return None,
    };
    Some(FaultSite {
        structure,
        population,
        inst,
        footprint: pattern_footprint(fault.pattern, seed, fault.bit, entries, width, row),
    })
}

/// The 32-bit value mask a pattern corrupts when the fault site is a
/// single architectural value (software-level faults, SIMT masks,
/// scheduler state): the geometric row/column patterns map onto the
/// byte lanes of the word.
pub fn value_mask(pattern: FaultPattern, bit: u8) -> u32 {
    let b = u32::from(bit) % 32;
    match pattern {
        FaultPattern::SingleBit | FaultPattern::StuckAt0 | FaultPattern::StuckAt1 => 1 << b,
        FaultPattern::DoubleAdjacent => (1 << b) | (1 << ((b + 1) % 32)),
        FaultPattern::WholeEntry => !0,
        FaultPattern::BurstRow => 0xFF << (8 * (b / 8)),
        FaultPattern::BurstCol => 0x0101_0101 << (b % 8),
    }
}

/// Force the masked bits of `word` to the stuck value. Idempotent.
#[inline]
pub fn apply_stuck(word: u32, mask: u32, value: bool) -> u32 {
    if value {
        word | mask
    } else {
        word & !mask
    }
}

/// A microarchitecture-level fault.
///
/// `loc_pick` selects the seed location *uniformly over the live
/// population at the injection cycle* (`loc_pick % population`):
/// for the register file and shared memory this is the set of
/// currently-allocated entries (gpuFI-4 can only target live allocations —
/// the derating factor of the AVF formula accounts for the rest), while for
/// caches it is the entire data array, valid or not, as AVF methodology
/// requires. The [`FaultPattern`] then expands the seed location into its
/// full footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UarchFault {
    /// Cycle (within the target launch) at which the fault strikes.
    pub cycle: u64,
    pub structure: HwStructure,
    /// Uniform random location selector.
    pub loc_pick: u64,
    /// Bit within the selected word (RF/SMEM, 0..32) or byte (caches, the
    /// low 3 bits are used).
    pub bit: u8,
    /// What is corrupted at the selected site.
    pub pattern: FaultPattern,
}

/// What a software-level fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwFaultKind {
    /// NVBitFI default: flip a bit of the destination-register value of a
    /// dynamic general-purpose instruction, after it executes. The flipped
    /// value persists in the register until overwritten.
    DestValue,
    /// SVF-LD: like `DestValue` but only load instructions are eligible.
    DestValueLoad,
    /// Flip a source-register value for the duration of one dynamic
    /// instruction only (the "instantaneous" software-level model whose
    /// blind spot Section V-B describes).
    SrcTransient,
    /// Flip a source register in the register file so every later reader
    /// observes it until the register is rewritten — the behaviour the
    /// paper's proposed register-reuse analyzer would reconstruct.
    SrcPersistent,
    /// Flip a bit of an arbitrary *architectural register* of the warp
    /// executing the target dynamic instruction (register chosen by
    /// `loc_pick % num_regs`), before the instruction executes. This is a
    /// fault-injection approximation of the **Program Vulnerability
    /// Factor** (Sridharan & Kaeli) — the microarchitecture-independent,
    /// architecturally-visible portion of AVF — sitting between the
    /// dest-value SVF model and the full cross-layer AVF.
    ArchState,
    /// Like `DestValue` but restricted to one [`InstrClass`]: the
    /// per-class strata of the two-level SDC model (docs/TWOLEVEL.md).
    /// `DestValue` is the pooled union of these strata.
    DestClass(InstrClass),
}

impl SwFaultKind {
    /// Stable identifier used in metric labels and event logs.
    pub fn label(&self) -> &'static str {
        match self {
            SwFaultKind::DestValue => "dest_value",
            SwFaultKind::DestValueLoad => "dest_value_ld",
            SwFaultKind::SrcTransient => "src_transient",
            SwFaultKind::SrcPersistent => "src_persistent",
            SwFaultKind::ArchState => "arch_state",
            SwFaultKind::DestClass(InstrClass::Mov) => "dest_mov",
            SwFaultKind::DestClass(InstrClass::IntAlu) => "dest_ialu",
            SwFaultKind::DestClass(InstrClass::FpAlu) => "dest_falu",
            SwFaultKind::DestClass(InstrClass::Sfu) => "dest_sfu",
            SwFaultKind::DestClass(InstrClass::Cvt) => "dest_cvt",
            SwFaultKind::DestClass(InstrClass::Ld) => "dest_ld",
            SwFaultKind::DestClass(InstrClass::Other) => "dest_other",
        }
    }

    /// Inverse of [`label`](SwFaultKind::label).
    pub fn from_label(s: &str) -> Option<SwFaultKind> {
        match s {
            "dest_value" => Some(SwFaultKind::DestValue),
            "dest_value_ld" => Some(SwFaultKind::DestValueLoad),
            "src_transient" => Some(SwFaultKind::SrcTransient),
            "src_persistent" => Some(SwFaultKind::SrcPersistent),
            "arch_state" => Some(SwFaultKind::ArchState),
            _ => s
                .strip_prefix("dest_")
                .and_then(InstrClass::from_label)
                .map(SwFaultKind::DestClass),
        }
    }

    /// The interpreter's instruction counter ([`vgpu_arch::counter`]) whose
    /// active lanes this kind counts towards its target: the same choice
    /// as [`eligible`](SwFaultKind::eligible) makes among the `Stats`
    /// fields. `None` for a kind nothing is eligible for.
    pub(crate) fn counter(&self) -> Option<usize> {
        use vgpu_arch::counter::*;
        match self {
            SwFaultKind::DestValue => Some(GP_DEST),
            SwFaultKind::DestValueLoad => Some(GLOBAL_LOAD),
            SwFaultKind::SrcTransient | SwFaultKind::SrcPersistent => Some(SRC_REG),
            SwFaultKind::ArchState => Some(THREAD),
            SwFaultKind::DestClass(c) => c.index().map(|i| CLASS + i),
        }
    }

    /// Eligible population of this kind in an execution that accumulated
    /// `stats`: the number of dynamic thread-instructions the injector
    /// counts towards [`SwFault::target`]. The one mapping behind the
    /// planner's target window, the injector counter of a launch resumed
    /// mid-way, and the fault-CTA lookup of the golden CTA log.
    pub fn eligible(&self, stats: &Stats) -> u64 {
        match self {
            SwFaultKind::DestValue => stats.gp_dest_instrs,
            SwFaultKind::DestValueLoad => stats.ld_dest_instrs,
            SwFaultKind::SrcTransient | SwFaultKind::SrcPersistent => stats.src_reg_instrs,
            SwFaultKind::ArchState => stats.thread_instrs,
            SwFaultKind::DestClass(c) => c.index().map_or(0, |i| stats.class_dest_instrs[i]),
        }
    }
}

/// A software-level fault: corrupt the value associated with the
/// `target`-th *eligible* dynamic thread-instruction (eligibility depends
/// on [`SwFaultKind`]). Dynamic instructions are counted per executing
/// lane, in deterministic execution order, exactly as a binary
/// instrumentation tool observes them. The [`FaultPattern`] selects the
/// corrupted bit set within the 32-bit value (stuck-at patterns pin the
/// register cell until launch end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwFault {
    pub kind: SwFaultKind,
    /// Index into the stream of eligible dynamic thread-instructions.
    pub target: u64,
    /// Bit to corrupt in the 32-bit value.
    pub bit: u8,
    /// Location selector for kinds that pick among several candidate
    /// registers ([`SwFaultKind::ArchState`]); ignored otherwise.
    pub loc_pick: u64,
    /// What is corrupted in the targeted value.
    pub pattern: FaultPattern,
}

/// A persistent software-level fault site: one register cell of one warp,
/// re-forced after every instruction of that warp until launch end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwStuck {
    /// `Warp::seq` of the warp whose register window holds the cell.
    pub seq: u64,
    /// Architectural register index.
    pub reg: u8,
    /// Lane within the warp.
    pub lane: usize,
    pub mask: u32,
    pub value: bool,
}

/// Mutable state tracking a software fault during a run.
#[derive(Debug, Clone)]
pub struct SwInjector {
    pub fault: SwFault,
    /// Eligible dynamic thread-instructions seen so far.
    pub counter: u64,
    /// Set once the fault has been applied.
    pub applied: bool,
    /// Resolved stuck-at site (persistent patterns only), re-asserted
    /// after every instruction of the owning warp.
    pub stuck: Option<SwStuck>,
}

impl SwInjector {
    pub fn new(fault: SwFault) -> Self {
        SwInjector {
            fault,
            counter: 0,
            applied: false,
            stuck: None,
        }
    }
}

/// Which physical cache instance a stuck-at site lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckCache {
    L1d(usize),
    L1t(usize),
    L2,
}

/// One resolved persistent fault site in the timed machine, pinned to a
/// physical location when the fault strikes and re-forced on every
/// simulation step until the launch retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckSite {
    /// Word `idx` of SM `sm`'s register file.
    RfWord { sm: usize, idx: usize, mask: u32 },
    /// Word `idx` of SM `sm`'s shared memory.
    SmemWord { sm: usize, idx: usize, mask: u32 },
    /// Byte `byte` of a cache data array.
    CacheByte {
        cache: StuckCache,
        byte: u64,
        mask: u8,
    },
    /// Top-of-stack active mask of warp slot `warp` on SM `sm`.
    SimtMask { sm: usize, warp: usize, mask: u32 },
    /// Low 32 bits of `ready_at` of warp slot `warp` on SM `sm`.
    SchedReady { sm: usize, warp: usize, mask: u32 },
}

/// Mutable state tracking a microarchitecture fault during a timed run.
#[derive(Debug, Clone)]
pub struct UarchInjector {
    pub fault: UarchFault,
    pub applied: bool,
    /// Live-population size observed when the fault was applied (0 if the
    /// structure had no live entries, in which case the flip was skipped
    /// and the run is trivially fault-free).
    pub population: u64,
    /// Resolved stuck-at sites (persistent patterns only), re-forced on
    /// every simulation step after application.
    pub stuck: Vec<StuckSite>,
}

impl UarchInjector {
    pub fn new(fault: UarchFault) -> Self {
        UarchInjector {
            fault,
            applied: false,
            population: 0,
            stuck: Vec::new(),
        }
    }

    /// The stuck bit value if this fault is persistent.
    pub fn stuck_value(&self) -> Option<bool> {
        self.fault.pattern.stuck_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(HwStructure::RegFile.label(), "RF");
        assert_eq!(HwStructure::Smem.label(), "SMEM");
        assert_eq!(HwStructure::L2.label(), "L2");
        assert_eq!(HwStructure::Simt.label(), "SIMT");
        assert_eq!(HwStructure::Sched.label(), "SCHED");
        assert_eq!(HwStructure::ALL.len(), 5);
        assert_eq!(HwStructure::INJECTABLE.len(), 7);
        assert_eq!(HwStructure::CACHES.len(), 3);
        for h in HwStructure::INJECTABLE {
            assert_eq!(HwStructure::from_label(h.label()), Some(h));
        }
    }

    #[test]
    fn pattern_labels_round_trip() {
        for p in FaultPattern::ALL {
            assert_eq!(FaultPattern::from_label(p.label()), Some(p));
        }
        assert_eq!(FaultPattern::from_label("bogus"), None);
        assert_eq!(FaultPattern::default(), FaultPattern::SingleBit);
        assert!(FaultPattern::StuckAt0.is_persistent());
        assert!(FaultPattern::StuckAt1.is_persistent());
        assert!(!FaultPattern::BurstRow.is_persistent());
        assert_eq!(FaultPattern::StuckAt0.stuck_value(), Some(false));
        assert_eq!(FaultPattern::StuckAt1.stuck_value(), Some(true));
        assert_eq!(FaultPattern::SingleBit.stuck_value(), None);
    }

    #[test]
    fn footprints_match_documented_shapes() {
        // Single bit: exactly the seed site.
        assert_eq!(
            pattern_footprint(FaultPattern::SingleBit, 5, 3, 16, 32, 4),
            vec![(5, 1 << 3)]
        );
        // Adjacent double bit wraps at the entry width.
        assert_eq!(
            pattern_footprint(FaultPattern::DoubleAdjacent, 0, 31, 8, 32, 4),
            vec![(0, (1 << 31) | 1)]
        );
        // Whole entry: full-width mask.
        assert_eq!(
            pattern_footprint(FaultPattern::WholeEntry, 2, 0, 8, 8, 4),
            vec![(2, 0xFF)]
        );
        // Burst row: aligned row, clipped at the structure end.
        assert_eq!(
            pattern_footprint(FaultPattern::BurstRow, 5, 1, 7, 32, 4),
            vec![(4, 2), (5, 2), (6, 2)]
        );
        // Burst column: same bit down consecutive rows, no wrap.
        assert_eq!(
            pattern_footprint(FaultPattern::BurstCol, 1, 0, 16, 32, 4),
            vec![(1, 1), (5, 1), (9, 1), (13, 1)]
        );
    }

    #[test]
    fn sw_fault_kind_labels_round_trip() {
        let kinds = [
            SwFaultKind::DestValue,
            SwFaultKind::DestValueLoad,
            SwFaultKind::SrcTransient,
            SwFaultKind::SrcPersistent,
            SwFaultKind::ArchState,
            SwFaultKind::DestClass(InstrClass::Mov),
            SwFaultKind::DestClass(InstrClass::IntAlu),
            SwFaultKind::DestClass(InstrClass::FpAlu),
            SwFaultKind::DestClass(InstrClass::Sfu),
            SwFaultKind::DestClass(InstrClass::Cvt),
            SwFaultKind::DestClass(InstrClass::Ld),
        ];
        for k in kinds {
            assert_eq!(SwFaultKind::from_label(k.label()), Some(k));
        }
        assert_eq!(SwFaultKind::from_label("bogus"), None);
        // `dest_ld` must parse as the load *class* stratum, distinct from
        // the legacy SVF-LD kind's `dest_value_ld`.
        assert_eq!(
            SwFaultKind::from_label("dest_ld"),
            Some(SwFaultKind::DestClass(InstrClass::Ld))
        );
    }

    #[test]
    fn stuck_force_is_idempotent() {
        let w = 0b1010_1100u32;
        let m = 0b0110u32;
        let w1 = apply_stuck(w, m, true);
        assert_eq!(apply_stuck(w1, m, true), w1);
        let w0 = apply_stuck(w, m, false);
        assert_eq!(apply_stuck(w0, m, false), w0);
        assert_eq!(w1 & m, m);
        assert_eq!(w0 & m, 0);
        assert_eq!(w1 & !m, w & !m);
        assert_eq!(w0 & !m, w & !m);
    }

    #[test]
    fn injector_initial_state() {
        let i = SwInjector::new(SwFault {
            kind: SwFaultKind::DestValue,
            target: 10,
            bit: 3,
            loc_pick: 0,
            pattern: FaultPattern::SingleBit,
        });
        assert_eq!(i.counter, 0);
        assert!(!i.applied);
        assert!(i.stuck.is_none());
        let u = UarchInjector::new(UarchFault {
            cycle: 5,
            structure: HwStructure::L2,
            loc_pick: 99,
            bit: 7,
            pattern: FaultPattern::SingleBit,
        });
        assert!(!u.applied);
        assert_eq!(u.population, 0);
        assert!(u.stuck.is_empty());
        assert_eq!(u.stuck_value(), None);
    }
}
