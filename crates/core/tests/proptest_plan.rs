//! Property tests for the sharded campaign engine's foundations:
//!
//! * strided shard partitioning is a *disjoint cover* of the plan for any
//!   (shard count, plan length) — no trial is dropped or run twice, which
//!   is what makes merged shard outputs equal the single-shot result;
//! * the JSONL checkpoint codec is a round-trip fixpoint, including
//!   recovery from a torn (interrupted mid-write) final line;
//! * the two single points of the assemble stage: a [`RecordSet`] ends
//!   equal to the deduplicated record set whatever the arrival order and
//!   duplication, and [`relia::assemble`] over any cover of the plan is
//!   the single-shot table, aligned with the plan's strata.

use proptest::prelude::*;
use relia::checkpoint::{
    checkpoint_to_string, parse_checkpoint, Checkpoint, CheckpointError, CheckpointHeader,
    TrialRecord,
};
use relia::plan::shard_trials;
use relia::{EngineError, RecordSet};

fn outcome_of(tag: u8) -> kernels::Outcome {
    match tag % 4 {
        0 => kernels::Outcome::Masked,
        1 => kernels::Outcome::Sdc,
        2 => kernels::Outcome::Timeout,
        _ => kernels::Outcome::Due,
    }
}

/// One record per plan index `0..parts.len()` from proptest-generated
/// (outcome tag, ctrl, wall) parts.
fn plan_records(parts: &[(u8, bool, u32)]) -> Vec<TrialRecord> {
    (parts.iter().enumerate())
        .map(|(idx, &(out, ctrl, wall))| TrialRecord {
            idx,
            outcome: outcome_of(out),
            ctrl,
            wall_us: wall as u64,
        })
        .collect()
}

/// Fisher–Yates driven by a splitmix-style stream of `seed`.
fn shuffle<T>(v: &mut [T], mut seed: u64) {
    for i in (1..v.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = seed;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        v.swap(i, (x % (i as u64 + 1)) as usize);
    }
}

/// Build a structurally valid checkpoint from proptest-generated parts.
fn checkpoint(seed: u64, trials: Vec<(u32, u8, bool, u32)>) -> Checkpoint {
    let records: Vec<TrialRecord> = trials
        .iter()
        .map(|&(idx, out, ctrl, wall)| TrialRecord {
            idx: idx as usize,
            outcome: outcome_of(out),
            ctrl,
            wall_us: wall as u64,
        })
        .collect();
    Checkpoint {
        header: CheckpointHeader {
            trials: 1 + records.iter().map(|r| r.idx).max().unwrap_or(0),
            shards: 3,
            shard_index: 1,
            fingerprint: seed.rotate_left(17) ^ 0xFEED,
        },
        records,
    }
}

proptest! {
    /// For arbitrary (plan length, shard count), the shards partition
    /// 0..len exactly: disjoint, complete, each sorted and owned by the
    /// right shard.
    #[test]
    fn shard_partition_is_a_disjoint_cover(len in 0usize..400, shards in 1usize..17) {
        let mut seen = vec![0u32; len];
        for i in 0..shards {
            let mine = shard_trials(len, shards, i);
            let mut prev: Option<usize> = None;
            for &idx in &mine {
                prop_assert!(idx < len, "index {idx} out of plan");
                prop_assert_eq!(idx % shards, i, "index {} landed in wrong shard", idx);
                prop_assert!(prev.is_none_or(|p| p < idx), "shard slice must be ascending");
                prev = Some(idx);
                seen[idx] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "every trial exactly once: {seen:?}");
    }

    /// Shard sizes are balanced to within one trial — no shard can starve.
    #[test]
    fn shard_sizes_are_balanced(len in 0usize..400, shards in 1usize..17) {
        let sizes: Vec<usize> = (0..shards).map(|i| shard_trials(len, shards, i).len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced shards: {sizes:?}");
        prop_assert_eq!(sizes.iter().sum::<usize>(), len);
    }

    /// Any shuffle and any duplication of a record vector leaves the set
    /// equal to the deduplicated vector: one record per index, the first
    /// arrival kept (`wall_us` tells arrivals apart), plan-ordered.
    #[test]
    fn record_set_is_the_deduplicated_set_in_plan_order(
        parts in prop::collection::vec((any::<u8>(), any::<bool>(), any::<u32>()), 1..60),
        dups in prop::collection::vec((any::<u32>(), any::<u32>()), 0..120),
        seed in any::<u64>(),
    ) {
        let base = plan_records(&parts);
        let mut stream = base.clone();
        for &(pick, wall) in &dups {
            let twin = base[pick as usize % base.len()];
            stream.push(TrialRecord { wall_us: wall as u64, ..twin });
        }
        shuffle(&mut stream, seed);
        let mut set = RecordSet::new(base.len());
        let mut first_wall = vec![None; base.len()];
        for r in &stream {
            let new = set.insert(*r).unwrap();
            prop_assert_eq!(new, first_wall[r.idx].is_none(), "insert reports a fresh slot");
            first_wall[r.idx].get_or_insert(r.wall_us);
        }
        prop_assert_eq!(set.held(), base.len());
        let out = set.complete().unwrap();
        prop_assert_eq!(out.len(), base.len());
        for (i, (got, want)) in out.iter().zip(&base).enumerate() {
            prop_assert_eq!(got.idx, i, "complete() is plan-ordered");
            prop_assert_eq!((got.outcome, got.ctrl), (want.outcome, want.ctrl));
            prop_assert_eq!(Some(got.wall_us), first_wall[i], "first arrival wins");
        }
    }

    /// Two records for one index that disagree on (outcome, ctrl) are an
    /// error whichever arrives first; an index outside the plan is foreign.
    #[test]
    fn conflicting_pair_is_an_error_in_either_arrival_order(
        parts in prop::collection::vec((any::<u8>(), any::<bool>(), any::<u32>()), 1..40),
        pick in any::<u32>(),
        flip_ctrl in any::<bool>(),
        beyond in 0usize..5,
    ) {
        let base = plan_records(&parts);
        let honest = base[pick as usize % base.len()];
        let evil = if flip_ctrl {
            TrialRecord { ctrl: !honest.ctrl, ..honest }
        } else {
            TrialRecord { outcome: outcome_of(honest.outcome as u8 + 1), ..honest }
        };
        for (a, b) in [(honest, evil), (evil, honest)] {
            let mut set = RecordSet::new(base.len());
            set.extend(&base[..honest.idx]).unwrap();
            prop_assert!(set.insert(a).unwrap());
            prop_assert!(matches!(
                set.insert(b),
                Err(EngineError::ConflictingDuplicate { idx }) if idx == honest.idx
            ));
            prop_assert_eq!(set.get(honest.idx), Some(&a), "the refused record changes nothing");
            let foreign = TrialRecord { idx: base.len() + beyond, ..honest };
            prop_assert!(matches!(
                set.insert(foreign),
                Err(EngineError::ForeignTrial { idx }) if idx == foreign.idx
            ));
        }
    }

    /// For any subset of records held, every shard splits into the
    /// indices the set misses and the indices it holds, and a set with a
    /// hole refuses to call itself complete.
    #[test]
    fn missing_and_held_partition_every_shard(
        parts in prop::collection::vec((any::<u8>(), any::<bool>(), any::<u32>()), 1..80),
        keep in prop::collection::vec(any::<bool>(), 80),
        shards in 1usize..9,
    ) {
        let base = plan_records(&parts);
        let mut set = RecordSet::new(base.len());
        for r in base.iter().filter(|r| keep[r.idx]) {
            set.insert(*r).unwrap();
        }
        let mut held_total = 0;
        for i in 0..shards {
            let shard = shard_trials(base.len(), shards, i);
            let missing = set.missing(&shard);
            let held: Vec<usize> = shard.iter().copied().filter(|&t| set.get(t).is_some()).collect();
            prop_assert!(missing.iter().all(|&t| !keep[t]) && held.iter().all(|&t| keep[t]));
            let mut union = [missing, held.clone()].concat();
            union.sort_unstable();
            prop_assert_eq!(union, shard, "missing ∪ held = the shard");
            held_total += held.len();
        }
        prop_assert_eq!(held_total, set.held());
        let holes = base.len() - set.held();
        match set.complete() {
            Ok(out) => prop_assert!(holes == 0 && out == base),
            Err(EngineError::IncompleteCover { missing, total }) => {
                prop_assert_eq!((missing, total), (holes, base.len()));
                prop_assert!(holes > 0);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// serialize → parse → serialize is a fixpoint, for arbitrary header
    /// fields and records.
    #[test]
    fn checkpoint_roundtrip_is_a_fixpoint(
        seed in any::<u64>(),
        trials in prop::collection::vec((any::<u32>(), any::<u8>(), any::<bool>(), any::<u32>()), 0..40),
    ) {
        let ck = checkpoint(seed, trials);
        let text = checkpoint_to_string(&ck);
        let back = parse_checkpoint(&text).unwrap();
        prop_assert_eq!(&back, &ck, "parse must invert serialize");
        prop_assert_eq!(checkpoint_to_string(&back), text, "fixpoint");
    }

    /// Truncating a checkpoint anywhere — as a kill -9 mid-write would —
    /// either recovers an exact prefix of the records (torn final line
    /// dropped) or fails with MissingHeader when the cut beheaded the
    /// file. It never invents or corrupts a record.
    #[test]
    fn truncated_checkpoint_recovers_a_prefix(
        seed in any::<u64>(),
        trials in prop::collection::vec((any::<u32>(), any::<u8>(), any::<bool>(), any::<u32>()), 1..30),
        cut_frac in 0.0f64..1.0,
    ) {
        let ck = checkpoint(seed, trials);
        let text = checkpoint_to_string(&ck);
        let cut = (text.len() as f64 * cut_frac) as usize;
        match parse_checkpoint(&text[..cut]) {
            Ok(rec) => {
                prop_assert_eq!(&rec.header, &ck.header, "header survives or parse fails");
                prop_assert!(rec.records.len() <= ck.records.len());
                prop_assert_eq!(
                    rec.records.as_slice(),
                    &ck.records[..rec.records.len()],
                    "recovered records are an exact prefix"
                );
            }
            Err(CheckpointError::MissingHeader) => {
                // Legal only when the cut happened inside the header line.
                let header_end = text.find('\n').unwrap() + 1;
                prop_assert!(cut < header_end, "complete header must parse (cut={cut})");
            }
            Err(e) => prop_assert!(false, "unexpected error on truncation: {e}"),
        }
    }

    /// The journal reader takes any bytes a damaged disk or a foreign
    /// writer could leave: a valid journal with random bit flips, inserted
    /// bytes and runs of `[`/`{` parses to a checkpoint or fails with a
    /// `CheckpointError` — it never panics — and what it does accept is
    /// canonical: written back out, it reads the same.
    #[test]
    fn damaged_journals_parse_or_fail_cleanly(
        seed in any::<u64>(),
        trials in prop::collection::vec((any::<u32>(), any::<u8>(), any::<bool>(), any::<u32>()), 0..30),
        edits in prop::collection::vec((any::<u8>(), 0.0f64..1.0, any::<u8>(), any::<u16>()), 1..5),
    ) {
        let mut bytes = checkpoint_to_string(&checkpoint(seed, trials)).into_bytes();
        for edit in edits {
            fuzz_edit(&mut bytes, edit);
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(ck) = parse_checkpoint(&text) {
            let again = parse_checkpoint(&checkpoint_to_string(&ck));
            prop_assert_eq!(again.ok(), Some(ck), "an accepted journal round-trips");
        }
    }
}

/// Apply one fuzz edit to `bytes`: flip a bit, insert a byte, or insert
/// a run of `[` or `{` (at most 1 KB), at the position `at` picks.
fn fuzz_edit(bytes: &mut Vec<u8>, (kind, at, byte, run): (u8, f64, u8, u16)) {
    let pos = (bytes.len() as f64 * at) as usize;
    match kind % 3 {
        0 if pos < bytes.len() => bytes[pos] ^= 1 << (byte % 8),
        0 | 1 => bytes.insert(pos, byte),
        _ => {
            let open = if byte % 2 == 0 { b'[' } else { b'{' };
            let run = usize::from(run % 1024);
            bytes.splice(pos..pos, std::iter::repeat_n(open, run));
        }
    }
}

/// Golden pin for plan identity: the fingerprints of single-bit plans
/// must never move. They are persisted in checkpoints and spoken over the
/// dispatch wire, so a drift here silently orphans every recorded shard.
/// The `FaultPattern` axis was added *after* these values were minted —
/// the planner folds the pattern into the digest only for non-default
/// patterns precisely so this test keeps passing.
#[test]
fn single_bit_plan_fingerprints_are_pinned() {
    use kernels::apps::va::Va;
    use relia::{prepare_sw_campaign, prepare_uarch_campaign, CampaignCfg};

    let cfg = CampaignCfg::new(8, 8, 0xACE);
    let uarch = prepare_uarch_campaign(&Va, &cfg, false);
    assert_eq!(
        uarch.plan.fingerprint(),
        0x81A4_0DC8_FCA8_96FE,
        "uarch single-bit fingerprint drifted"
    );
    let sw = prepare_sw_campaign(&Va, &cfg, false);
    assert_eq!(
        sw.plan.fingerprint(),
        0x1CD0_306F_463B_E7A0,
        "sw single-bit fingerprint drifted"
    );
}

/// The pattern axis is pure payload: for every pattern, the planner must
/// emit byte-identical trial coordinates — same per-trial seeds, same
/// (cycle, location, bit) — and only non-default patterns may move the
/// plan fingerprint.
#[test]
fn patterns_never_perturb_trial_seeds_or_coordinates() {
    use kernels::apps::va::Va;
    use kernels::PlannedFault;
    use relia::{prepare_uarch_campaign, CampaignCfg};
    use vgpu_sim::FaultPattern;

    let base_cfg = CampaignCfg::new(6, 6, 0xBEEF);
    let base = prepare_uarch_campaign(&Va, &base_cfg, false);
    for pattern in FaultPattern::ALL {
        let mut cfg = base_cfg.clone();
        cfg.pattern = pattern;
        let prep = prepare_uarch_campaign(&Va, &cfg, false);
        assert_eq!(prep.plan.trials.len(), base.plan.trials.len());
        for (t, b) in prep.plan.trials.iter().zip(&base.plan.trials) {
            assert_eq!(t.seed, b.seed, "{}: trial seed moved", pattern.label());
            assert_eq!(t.index, b.index);
            assert_eq!(t.kernel_idx, b.kernel_idx);
            assert_eq!(t.target, b.target);
            assert_eq!(t.trial, b.trial);
            // Identical fault coordinates; only the pattern field differs.
            match (&t.fault, &b.fault) {
                (Some((ot, PlannedFault::Uarch(ft))), Some((ob, PlannedFault::Uarch(fb)))) => {
                    assert_eq!(ot, ob);
                    assert_eq!(ft.cycle, fb.cycle, "{}", pattern.label());
                    assert_eq!(ft.structure, fb.structure);
                    assert_eq!(ft.loc_pick, fb.loc_pick);
                    assert_eq!(ft.bit, fb.bit);
                    assert_eq!(ft.pattern, pattern);
                }
                (None, None) => {}
                (a, b) => panic!("{}: fault shape diverged: {a:?} vs {b:?}", pattern.label()),
            }
        }
        if pattern == FaultPattern::SingleBit {
            assert_eq!(prep.plan.fingerprint(), base.plan.fingerprint());
        } else {
            assert_ne!(
                prep.plan.fingerprint(),
                base.plan.fingerprint(),
                "{}: non-default patterns must not collide with the single-bit digest",
                pattern.label()
            );
        }
    }
}

/// The one fold, over a fixed-n plan of each layer and over a wave plan
/// the trial list alone could not describe (a zero-count stratum, the same
/// (kernel, target) in two strata): its rows are aligned with the plan's
/// strata, whose trial slices partition the plan, and any cover of the
/// plan — all shards concatenated in any order, one of them twice —
/// assembles to the single-shot table.
#[test]
fn assemble_is_aligned_with_strata_and_insensitive_to_order_and_duplicates() {
    use kernels::apps::va::Va;
    use relia::plan::{plan_wave, StratumSpec, TrialTarget};
    use relia::{
        assemble, execute_shard, prepare_sw_campaign, prepare_uarch_campaign, CampaignCfg,
        EngineCfg,
    };
    use vgpu_sim::HwStructure;

    let cfg = CampaignCfg::new(3, 3, 0xA55E);
    let uarch = prepare_uarch_campaign(&Va, &cfg, false);
    let stratum = |h, start, count| StratumSpec {
        kernel_idx: 0,
        target: TrialTarget::Structure(h),
        start,
        count,
    };
    let wave = plan_wave(
        &uarch.captures,
        &cfg,
        &[
            stratum(HwStructure::RegFile, 0, 4),
            stratum(HwStructure::Smem, 2, 0),
            stratum(HwStructure::L2, 1, 3),
            stratum(HwStructure::RegFile, 9, 2),
        ],
        1,
    );
    let sw = prepare_sw_campaign(&Va, &cfg, false);
    for prep in [&uarch, &wave, &sw] {
        let plan = &prep.plan;
        let mut next = 0;
        for (st, trials) in plan.strata_trials() {
            assert_eq!(trials.len(), st.count);
            for (k, t) in trials.iter().enumerate() {
                assert_eq!(t.index, next, "slices are consecutive plan indices");
                assert_eq!((t.kernel_idx, t.target), (st.kernel_idx, st.target));
                assert_eq!(t.trial, st.start + k);
                next += 1;
            }
        }
        assert_eq!(next, plan.len(), "the strata's slices partition the plan");

        let single = execute_shard(prep, &EngineCfg::single_shot()).unwrap();
        let want = assemble(prep, &single).unwrap();
        assert_eq!(want.strata.len(), plan.strata.len());
        for (st, row) in plan.strata.iter().zip(&want.strata) {
            assert_eq!(row.counts(0..row.outcomes.len()).total() as usize, st.count);
        }
        let mut cover = Vec::new();
        for i in [0, 1, 2, 1] {
            cover.extend(execute_shard(prep, &EngineCfg::sharded(3, i)).unwrap());
        }
        for seed in 0..6 {
            shuffle(&mut cover, seed);
            assert_eq!(assemble(prep, &cover).unwrap(), want, "seed {seed}");
        }
    }
}

#[test]
fn shard_cover_holds_at_awkward_exact_points() {
    // Deterministic spot checks at the boundaries proptest may skip.
    for (len, shards) in [(0, 1), (0, 5), (1, 1), (1, 4), (5, 5), (7, 3), (16, 16)] {
        let total: usize = (0..shards)
            .map(|i| shard_trials(len, shards, i).len())
            .sum();
        assert_eq!(total, len, "len={len} shards={shards}");
    }
}
