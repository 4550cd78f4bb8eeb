//! Tracker on/off differential: an ACE-instrumented run must leave
//! injection-campaign outcomes unchanged. (That the tracker is invisible
//! to the golden run itself — output, cycle counts, statistics — is the
//! all-sinks differential of `crates/trace/tests/golden_pass.rs`.)

use relia::{execute_shard, prepare_uarch_campaign, records_fingerprint, CampaignCfg, EngineCfg};

#[test]
fn ace_runs_do_not_perturb_injection_campaigns() {
    let cfg = CampaignCfg::new(6, 6, 0xD1FF);
    let bench = kernels::apps::va::Va;
    let prep = prepare_uarch_campaign(&bench, &cfg, false);
    let before = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();

    // An instrumented run in between must not leak any state into a
    // fresh campaign: same plan fingerprint, byte-identical records.
    let est = ace::estimate_app(&bench, &cfg.gpu);
    assert!(est.events > 0);

    let prep2 = prepare_uarch_campaign(&bench, &cfg, false);
    assert_eq!(prep.plan.fingerprint(), prep2.plan.fingerprint());
    let after = execute_shard(&prep2, &EngineCfg::single_shot()).unwrap();
    assert_eq!(records_fingerprint(&before), records_fingerprint(&after));
    assert_eq!(before, after);
}

/// The ACE profile of every application, as measured before lifetime
/// accounting became a sink of the probe stream (PR 19): launches, final
/// totals, and an FNV-1a fold of `per_launch` then `totals`.
#[test]
fn ace_profiles_are_what_they_were() {
    use kernels::{all_benchmarks, golden_pass, AceProfile, Sinks, Variant};
    const PINS: [(&str, usize, [u64; 5], u64); 11] = [
        (
            "SRADv1",
            10,
            [248015224, 17165080, 13244228, 0, 490105996],
            0xdcb6666cb3cbc077,
        ),
        (
            "SRADv2",
            4,
            [207425280, 5543794, 5349623, 0, 308692960],
            0x7e8ae24286585abb,
        ),
        (
            "K-Means",
            3,
            [329507978, 0, 19394224, 0, 520638568],
            0x16a47f245446c705,
        ),
        (
            "HotSpot",
            2,
            [94232476, 7989552, 3973718, 0, 56692288],
            0x465306cd2d0dbaaf,
        ),
        (
            "LUD",
            10,
            [709266448, 198386588, 42493856, 0, 1488413200],
            0x0faba5d384139897,
        ),
        (
            "SCP",
            1,
            [66186216, 763232, 0, 0, 40952],
            0xdfb8d8f29b111805,
        ),
        ("VA", 1, [15851520, 0, 0, 0, 972800], 0x9fe0c3ca2ddf078d),
        (
            "NW",
            7,
            [46214240, 47406814, 69390, 0, 1607057151],
            0x994c4ea2c1abe693,
        ),
        (
            "PathFinder",
            2,
            [22214924, 677684, 3040, 0, 3278304],
            0xbed0010d1254846f,
        ),
        (
            "BackProp",
            2,
            [214045636, 5173526, 599136, 0, 271792544],
            0xec535e027480aaf7,
        ),
        (
            "BFS",
            22,
            [18541671, 0, 4883804, 0, 523487391],
            0x5a6520e444b41de1,
        ),
    ];
    let cfg = vgpu_sim::GpuConfig::volta_scaled(4);
    for (b, (app, launches, totals, fold)) in all_benchmarks().iter().zip(PINS) {
        let sinks = Sinks {
            ace: Some(AceProfile::default()),
            ..Sinks::default()
        };
        let ace = golden_pass(b.as_ref(), &cfg, Variant::TIMED, sinks)
            .ace
            .expect("asked for");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in ace.per_launch.iter().flatten().chain(&ace.totals) {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(
            (b.name(), ace.per_launch.len(), ace.totals, h),
            (app, launches, totals, fold)
        );
    }
}
