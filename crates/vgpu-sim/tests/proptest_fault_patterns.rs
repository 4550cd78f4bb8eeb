//! Property tests for the fault-pattern geometry and for site selection:
//! for arbitrary structure geometries and seed sites, every
//! [`FaultPattern`] footprint must stay inside the structure, touch exactly
//! the bit set docs/FAULT_MODELS.md documents, and stuck-at forcing must be
//! idempotent; for arbitrary occupancy, `loc_pick` must draw uniformly from
//! the live population. (That the injector then changes exactly the words
//! of the resolved site is checked next to it, in `timed.rs` — it takes the
//! machine's private arrays to see.)

use proptest::prelude::*;
use vgpu_sim::{
    apply_stuck, cache_word, pattern_footprint, resolve_site, value_mask, CacheGeom, FaultPattern,
    GpuConfig, HwStructure, LaunchGeometry, UarchFault, BURST_COL_ROWS,
};

/// A two-SM machine small enough to enumerate.
fn small_cfg() -> GpuConfig {
    let cache = |bytes| CacheGeom {
        bytes,
        line_bytes: 128,
        ways: 2,
        mshrs: 2,
    };
    GpuConfig {
        rf_regs_per_sm: 1024,
        smem_bytes_per_sm: 4096,
        l1d: cache(512),
        l1t: cache(256),
        l2: cache(1024),
        ..GpuConfig::volta_scaled(2)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// No pattern ever writes outside the structure: every entry index is
    /// in bounds, every mask fits in the entry width, and no entry shows
    /// up twice (transient flips must never cancel themselves out).
    #[test]
    fn footprints_stay_in_bounds(
        entries in 1u64..4096,
        width in 1u8..=32,
        row in 0u64..128,
        entry in any::<u64>(),
        bit in any::<u8>(),
        which in 0usize..FaultPattern::ALL.len(),
    ) {
        let pattern = FaultPattern::ALL[which];
        let sites = pattern_footprint(pattern, entry, bit, entries, width, row);
        prop_assert!(!sites.is_empty(), "a fault must corrupt something");
        let width_mask = if width >= 32 { !0u32 } else { (1u32 << width) - 1 };
        for &(e, m) in &sites {
            prop_assert!(e < entries, "entry {} out of {}", e, entries);
            prop_assert_ne!(m, 0, "empty mask at entry {}", e);
            prop_assert_eq!(m & !width_mask, 0, "mask {:#x} exceeds width {}", m, width);
        }
        let mut idxs: Vec<u64> = sites.iter().map(|s| s.0).collect();
        idxs.sort_unstable();
        idxs.dedup();
        prop_assert_eq!(idxs.len(), sites.len(), "duplicate entry in footprint");
    }

    /// Each pattern touches exactly its documented bit set — checked
    /// against an independent recomputation of the documented shape.
    #[test]
    fn footprints_match_documented_shapes(
        entries in 1u64..4096,
        width in 1u8..=32,
        row in 0u64..128,
        entry in any::<u64>(),
        bit in any::<u8>(),
        which in 0usize..FaultPattern::ALL.len(),
    ) {
        let pattern = FaultPattern::ALL[which];
        let sites = pattern_footprint(pattern, entry, bit, entries, width, row);
        let seed_entry = entry % entries;
        let b = u32::from(bit) % u32::from(width);
        let row = row.max(1);
        let expected: Vec<(u64, u32)> = match pattern {
            FaultPattern::SingleBit | FaultPattern::StuckAt0 | FaultPattern::StuckAt1 =>
                vec![(seed_entry, 1 << b)],
            FaultPattern::DoubleAdjacent => {
                let next = (b + 1) % u32::from(width);
                vec![(seed_entry, (1 << b) | (1 << next))]
            }
            FaultPattern::WholeEntry => {
                let m = if width >= 32 { !0 } else { (1u32 << width) - 1 };
                vec![(seed_entry, m)]
            }
            FaultPattern::BurstRow => {
                let start = seed_entry - seed_entry % row;
                (start..entries.min(start + row)).map(|e| (e, 1 << b)).collect()
            }
            FaultPattern::BurstCol =>
                (0..BURST_COL_ROWS)
                    .filter_map(|r| {
                        let e = seed_entry.checked_add(r * row)?;
                        (e < entries).then_some((e, 1u32 << b))
                    })
                    .collect(),
        };
        prop_assert_eq!(sites, expected);
    }

    /// A one-bit-wide double-adjacent footprint degenerates to the single
    /// bit (wrap maps b+1 onto b) — corner of the wrap rule worth pinning.
    #[test]
    fn double_adjacent_on_one_bit_entries_degenerates(
        entries in 1u64..256,
        entry in any::<u64>(),
        bit in any::<u8>(),
    ) {
        let sites = pattern_footprint(FaultPattern::DoubleAdjacent, entry, bit, entries, 1, 4);
        prop_assert_eq!(sites, vec![(entry % entries, 1u32)]);
    }

    /// Stuck-at forcing is idempotent and only ever touches masked bits.
    #[test]
    fn stuck_application_is_idempotent(
        word in any::<u32>(),
        mask in any::<u32>(),
        value in any::<bool>(),
    ) {
        let once = apply_stuck(word, mask, value);
        prop_assert_eq!(apply_stuck(once, mask, value), once, "double application must be a no-op");
        prop_assert_eq!(once & !mask, word & !mask, "unmasked bits must survive");
        let forced = if value { mask } else { 0 };
        prop_assert_eq!(once & mask, forced, "masked bits must equal the stuck value");
    }

    /// The single-value mask (software faults, SIMT/scheduler words) is
    /// nonzero and always covers the seed bit; stuck-at patterns pin
    /// exactly one cell.
    #[test]
    fn value_masks_cover_seed_bit(
        bit in any::<u8>(),
        which in 0usize..FaultPattern::ALL.len(),
    ) {
        let pattern = FaultPattern::ALL[which];
        let m = value_mask(pattern, bit);
        prop_assert_ne!(m, 0);
        prop_assert_ne!(m & (1 << (u32::from(bit) % 32)), 0, "seed bit not in mask {:#x}", m);
        if pattern.is_persistent() {
            prop_assert_eq!(m.count_ones(), 1);
        }
    }

    /// Site selection draws uniformly from the live population: as
    /// `loc_pick` runs over `0..population`, the seed site runs over every
    /// word of every occupied CTA slot's partition in (SM, slot) order —
    /// or over every data-array byte of every instance of a cache — each
    /// exactly once, and `population` is their number (in bits, for caches).
    #[test]
    fn loc_pick_enumerates_the_live_population(
        which in 0usize..5,
        slots_per_sm in 1u32..=4,
        per_cta in 1u32..=256,
        occupancy in any::<u8>(),
        bit in any::<u8>(),
    ) {
        let cfg = small_cfg();
        let structure = HwStructure::ALL[which];
        let geom = LaunchGeometry {
            warps_per_cta: 1,
            regs_per_cta: per_cta,
            smem_words_per_cta: per_cta,
            slots_per_sm,
            total_ctas: 8,
        };
        let occupied = |sm: usize, slot: usize| occupancy >> (sm * 4 + slot) & 1 == 1;
        let expected: Vec<(usize, u64)> = match structure {
            HwStructure::RegFile | HwStructure::Smem => (0..2usize)
                .flat_map(|sm| (0..slots_per_sm as usize).map(move |slot| (sm, slot)))
                .filter(|&(sm, slot)| occupied(sm, slot))
                .flat_map(|(sm, slot)| {
                    let base = slot as u64 * u64::from(per_cta);
                    (base..base + u64::from(per_cta)).map(move |w| (sm, w))
                })
                .collect(),
            HwStructure::L1D => (0..2).flat_map(|i| (0..512).map(move |b| (i, b))).collect(),
            HwStructure::L1T => (0..2).flat_map(|i| (0..256).map(move |b| (i, b))).collect(),
            _ => (0..1024).map(|b| (0, b)).collect(),
        };
        let bits = if HwStructure::CACHES.contains(&structure) { 8 } else { 1 };
        let fault = |loc_pick| UarchFault {
            cycle: 0,
            structure,
            loc_pick,
            bit,
            pattern: FaultPattern::SingleBit,
        };
        let site =
            |loc_pick| resolve_site(&fault(loc_pick), &geom, &cfg, occupied).expect("storage");
        if expected.is_empty() {
            let empty = site(0);
            prop_assert_eq!((empty.population, empty.footprint.len()), (0, 0));
        }
        for (loc_pick, &(inst, element)) in expected.iter().enumerate() {
            // Any `loc_pick` in the same residue class names the same site.
            let s = site(loc_pick as u64 + expected.len() as u64 * u64::from(bit));
            prop_assert_eq!(s.population, expected.len() as u64 * bits);
            prop_assert_eq!((s.inst, s.footprint.len(), s.footprint[0].0), (inst, 1, element));
        }
    }

    /// The probe-stream words of a site are its footprint's elements —
    /// register and shared-memory words as they are, cache bytes by the
    /// word of the data array that holds them — ascending, each once.
    #[test]
    fn site_words_name_the_footprint(
        which in 0usize..5,
        pattern in 0usize..FaultPattern::ALL.len(),
        loc_pick in any::<u64>(),
        bit in any::<u8>(),
    ) {
        let cfg = small_cfg();
        let structure = HwStructure::ALL[which];
        let geom = LaunchGeometry {
            warps_per_cta: 2,
            regs_per_cta: 256,
            smem_words_per_cta: 64,
            slots_per_sm: 4,
            total_ctas: 8,
        };
        let pattern = FaultPattern::ALL[pattern];
        let fault = UarchFault { cycle: 0, structure, loc_pick, bit, pattern };
        let site = resolve_site(&fault, &geom, &cfg, |_, _| true).expect("storage");
        let words = site.words();
        prop_assert!(words.windows(2).all(|w| w[0] < w[1]), "{:?}", words);
        let is_cache = HwStructure::CACHES.contains(&structure);
        for &(e, _) in &site.footprint {
            let name = if is_cache { cache_word(e) } else { e };
            prop_assert!(words.contains(&name));
        }
        prop_assert!(words.len() <= site.footprint.len());
    }
}
