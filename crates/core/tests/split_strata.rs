//! A (kernel, target) stratum a plan holds as several slices projects as
//! the whole stratum. A trial depends only on (seed, app, kernel, target,
//! ordinal), so a plan holding ordinals `0..3` and `3..8` of a stratum
//! runs the trials a plan holding `0..8` runs, and every projection of
//! the assembled result — AVF, SVF and the rates of any fault kind — must
//! sum the slices before weighting the kernel, not weight each slice as if
//! it were the kernel's whole sample. NW has two kernels, so a slice
//! counted with its kernel's full weight would shift the application rate.

use kernels::apps::nw::Nw;
use relia::plan::{plan_wave, StratumSpec, TrialTarget};
use relia::{assemble, execute_shard, AppCaptures, CampaignCfg, EngineCfg, Layer, StrataRecords};
use vgpu_sim::{HwStructure, SwFaultKind};

const N: usize = 8;

/// Every (kernel, target) of `targets` over ordinals `0..N`, kernel 0's
/// `split` target held as the two slices `0..3` and `3..N`.
fn strata(kernels: usize, targets: &[TrialTarget], split: Option<TrialTarget>) -> Vec<StratumSpec> {
    let spec = |kernel_idx, target, start, count| StratumSpec {
        kernel_idx,
        target,
        start,
        count,
    };
    let mut out = Vec::new();
    for k in 0..kernels {
        for &t in targets {
            if k == 0 && Some(t) == split {
                out.extend([spec(k, t, 0, 3), spec(k, t, 3, N - 3)]);
            } else {
                out.push(spec(k, t, 0, N));
            }
        }
    }
    out
}

/// The assembled result of `targets` at `layer`, whole and with one
/// stratum split.
fn whole_and_split(
    layer: Layer,
    targets: &[TrialTarget],
    split: TrialTarget,
) -> [StrataRecords; 2] {
    let cfg = CampaignCfg::new(N, N, 0x5_11CE);
    let captures = AppCaptures::new(&Nw, &cfg.gpu, layer, false);
    [None, Some(split)].map(|split| {
        let prep = plan_wave(&captures, &cfg, &strata(2, targets, split), 0);
        let records = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
        assemble(&prep, &records).unwrap()
    })
}

#[test]
fn a_split_uarch_stratum_projects_as_the_whole() {
    let targets = HwStructure::ALL.map(TrialTarget::Structure);
    let split = TrialTarget::Structure(HwStructure::RegFile);
    let [whole, sliced] = whole_and_split(Layer::Uarch, &targets, split);
    assert_eq!(sliced.strata.len(), whole.strata.len() + 1);
    assert_eq!(sliced.counts(0, split), whole.counts(0, split));
    assert_eq!(sliced.counts(0, split).total() as usize, N);
    for k in 0..2 {
        assert_eq!(sliced.chip_avf(k), whole.chip_avf(k), "kernel {k}");
        assert_eq!(
            sliced.ctrl_fraction(k),
            whole.ctrl_fraction(k),
            "kernel {k}"
        );
    }
    assert_eq!(sliced.app_avf(), whole.app_avf());
    assert_eq!(sliced.app_avf_cache(), whole.app_avf_cache());
    assert_eq!(
        sliced.app_avf_structure(HwStructure::RegFile),
        whole.app_avf_structure(HwStructure::RegFile)
    );
}

#[test]
fn a_split_sw_stratum_projects_as_the_whole() {
    let kinds = [
        SwFaultKind::DestValue,
        SwFaultKind::DestValueLoad,
        SwFaultKind::ArchState,
    ];
    let targets = kinds.map(TrialTarget::Fault);
    for split in [SwFaultKind::DestValue, SwFaultKind::ArchState] {
        let [whole, sliced] = whole_and_split(Layer::Sw, &targets, TrialTarget::Fault(split));
        for k in 0..2 {
            assert_eq!(sliced.svf(k), whole.svf(k), "{split:?}, kernel {k}");
        }
        assert_eq!(sliced.app_svf(), whole.app_svf(), "{split:?}");
        assert_eq!(sliced.app_svf_ld(), whole.app_svf_ld(), "{split:?}");
        for kind in kinds {
            assert_eq!(
                sliced.app_rates(kind),
                whole.app_rates(kind),
                "{kind:?} rates with {split:?} split"
            );
        }
    }
}
