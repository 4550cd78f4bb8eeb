//! One golden pass, any set of sinks (`kernels::golden_pass`): a sink
//! observes the run, never perturbs it — nor what another sink riding the
//! same pass records — and a pass that does not reproduce its reference is
//! refused; what the pass streams to its sinks, expanded to word touches,
//! is pinned per application. Lives in this crate because it is the lowest
//! one that can finish every sink's artefact, the encoded trace included.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use kernels::apps::va::Va;
use kernels::{
    all_benchmarks, golden_pass, golden_run, AceProfile, AppSnapshots, Benchmark, CtaLog,
    GoldenRun, Sinks, SnapshotSink, Variant,
};
use rayon::prelude::*;
use trace::TraceBuilder;
use vgpu_sim::{tee, GpuConfig, HwStructure, ProbeEvent, SegEvent, SharedSink, TraceSink};

const K: usize = 4;

/// What one timed pass left in its sinks, in comparable form.
struct Recorded {
    golden: GoldenRun,
    ace: Option<AceProfile>,
    snapshots: Option<AppSnapshots>,
    /// The encoded segments (`AppTrace::blobs`).
    trace: Option<Vec<Vec<u8>>>,
}

/// One timed pass over `bench` against `reference` with the chosen sinks.
fn timed_pass(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    reference: &GoldenRun,
    [ace, snapshots, trace]: [bool; 3],
) -> Recorded {
    let builder = Arc::new(Mutex::new(TraceBuilder::new()));
    let sinks = Sinks {
        reference: Some(reference),
        preamble: None,
        ace: ace.then(AceProfile::default),
        trace: trace.then(|| builder.clone() as SharedSink),
        snapshots: snapshots.then(|| SnapshotSink::new(reference, K)),
        cta_log: None,
    };
    let pass = golden_pass(bench, cfg, Variant::TIMED, sinks);
    let mut builder = builder.lock().unwrap();
    Recorded {
        golden: pass.golden,
        ace: pass.ace,
        snapshots: pass.snapshots,
        trace: trace.then(|| builder.finish().blobs().to_vec()),
    }
}

#[test]
fn all_sinks_on_one_pass_record_what_each_records_alone() {
    let cfg = GpuConfig::volta_scaled(4);
    all_benchmarks().par_iter().for_each(|b| {
        let (bench, app) = (b.as_ref(), b.name());
        let plain = golden_run(bench, &cfg, Variant::TIMED);
        let all = timed_pass(bench, &cfg, &plain, [true; 3]);
        let ace = timed_pass(bench, &cfg, &plain, [true, false, false]);
        let snapshots = timed_pass(bench, &cfg, &plain, [false, true, false]);
        let trace = timed_pass(bench, &cfg, &plain, [false, false, true]);
        for pass in [&all, &ace, &snapshots, &trace] {
            assert_eq!(pass.golden, plain, "{app}: a sink perturbed the run");
        }
        assert_eq!(all.ace, ace.ace, "{app}: ACE profile in company");
        // Byte for byte: the probed pass and the snapshot-only one capture
        // the same machine at every capture cycle.
        assert!(
            all.snapshots == snapshots.snapshots,
            "{app}: snapshot store in company"
        );
        assert!(all.trace == trace.trace, "{app}: trace blobs in company");
        // The sinks did record something.
        let ace = all.ace.expect("asked for");
        assert_eq!(ace.per_launch.len(), plain.records.len(), "{app}");
        assert!(ace.events > 0, "{app} recorded no lifetime events");
        assert!(ace.totals[0] > 0, "{app}: RF lifetimes expected");
        let attributed: u64 = ace.per_launch.iter().map(|d| d[4]).sum();
        assert!(ace.totals[4] >= attributed, "{app}: negative L2 residual");
        let count = all.snapshots.expect("asked for").count();
        assert!(count > 2 * plain.records.len(), "{app}: {count} snapshots");
        assert_eq!(
            all.trace.expect("asked for").len(),
            2 * plain.records.len() + 1
        );

        let plain = golden_run(bench, &cfg, Variant::FUNCTIONAL);
        let sinks = Sinks {
            reference: Some(&plain),
            cta_log: Some(CtaLog::default()),
            ..Sinks::default()
        };
        let logged = golden_pass(bench, &cfg, Variant::FUNCTIONAL, sinks);
        assert_eq!(logged.golden, plain, "{app}: CTA-log sink");
        assert_eq!(
            logged.cta_log.expect("asked for").launches(),
            plain.records.len()
        );
    });
}

/// `pass` must panic in the harness's one bit-identity check.
fn refused(what: &str, pass: impl FnOnce()) {
    let panic = catch_unwind(AssertUnwindSafe(pass))
        .expect_err(&format!("{what}: a tampered reference was accepted"));
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("diverged from golden"), "{what}: {msg}");
}

#[test]
fn a_pass_that_does_not_reproduce_its_reference_is_refused() {
    let cfg = GpuConfig::volta_scaled(2);
    type Tamper = (&'static str, fn(&mut GoldenRun));
    let tampers: [Tamper; 2] = [
        ("output word", |g| g.output[0] ^= 1),
        ("launch cycles", |g| g.records[0].stats.cycles += 1),
    ];
    for (tampered, tamper) in tampers {
        let mut timed = golden_run(&Va, &cfg, Variant::TIMED);
        tamper(&mut timed);
        refused(&format!("snapshot sink, {tampered}"), || {
            let sinks = Sinks {
                snapshots: Some(SnapshotSink::new(&timed, K)),
                ..Sinks::default()
            };
            golden_pass(&Va, &cfg, Variant::TIMED, sinks);
        });
        refused(&format!("trace sink, {tampered}"), || {
            trace::record_app_trace(&Va, &cfg, &timed);
        });
        let mut functional = golden_run(&Va, &cfg, Variant::FUNCTIONAL);
        tamper(&mut functional);
        refused(&format!("CTA-log sink, {tampered}"), || {
            let sinks = Sinks {
                reference: Some(&functional),
                cta_log: Some(CtaLog::default()),
                ..Sinks::default()
            };
            golden_pass(&Va, &cfg, Variant::FUNCTIONAL, sinks);
        });
    }
}

/// The probe stream as its consumers read it: each `Range` expanded into
/// its words, ascending, folded with FNV-1a over the `(seg, h, inst, word,
/// t, write)` of every touch. Segments are numbered as the recorder
/// numbers them; a host read is an L2 read at `t == 0`, as the replay
/// index takes it. How the engine groups touches into events is not part
/// of the fold.
struct TouchFold {
    seg: u64,
    touches: u64,
    hash: u64,
}

impl TouchFold {
    fn touch(&mut self, h: HwStructure, inst: u32, word: u64, t: u64, write: bool) {
        self.touches += 1;
        let fields = [self.seg, h as u64, inst.into(), word, t, write.into()];
        for v in fields {
            self.hash = (self.hash ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl TraceSink for TouchFold {
    fn consume(&mut self, batch: &[ProbeEvent]) {
        for ev in batch {
            match *ev {
                ProbeEvent::LaunchBegin(_) | ProbeEvent::LaunchEnd { .. } => self.seg += 1,
                ProbeEvent::Seg(SegEvent::Access {
                    h,
                    inst,
                    word,
                    t,
                    write,
                }) => self.touch(h, inst, word, t, write),
                ProbeEvent::Seg(SegEvent::Range {
                    h,
                    inst,
                    start,
                    len,
                    t,
                    write,
                }) => {
                    for word in start..start + u64::from(len) {
                        self.touch(h, inst, word, t, write);
                    }
                }
                ProbeEvent::Seg(SegEvent::HostRead { word }) => {
                    self.touch(HwStructure::L2, 0, word, 0, false)
                }
                ProbeEvent::Seg(SegEvent::SlotFill { .. } | SegEvent::SlotFree { .. }) => {}
            }
        }
    }
}

/// Per application, unprotected then TMR: expanded touches, their fold,
/// `AppTrace::index_bytes` and `AppTrace::live_word_cycles`.
type StreamPin = (&'static str, bool, u64, u64, u64, [u64; 5]);

/// The word-level probe stream of every application's timed golden pass,
/// unprotected and TMR, and the live word-cycles of the replay index folded
/// from it, are what they were when the engine reported one `Access` per
/// register lane: grouping a warp's lanes into `Range`s changes the events,
/// never the touches. The index's size is pinned as the row fold (one state
/// per 32-word row until its words diverge) lays it out.
#[test]
fn the_expanded_probe_stream_is_what_it_was() {
    const PINS: [StreamPin; 22] = [
        (
            "SRADv1",
            false,
            5139648,
            0x19d6676c5a723449,
            1697104,
            [248015224, 17165080, 2342504, 0, 0],
        ),
        (
            "SRADv1",
            true,
            20584068,
            0x5ab9326191328005,
            6142136,
            [1147675016, 41300640, 272104287, 0, 0],
        ),
        (
            "SRADv2",
            false,
            3661952,
            0xf70d9284528d29dd,
            2237808,
            [207425280, 5543794, 34662874, 0, 0],
        ),
        (
            "SRADv2",
            true,
            14370368,
            0x83474bf6c0ae9bb5,
            7661784,
            [926266418, 18662795, 198568769, 0, 0],
        ),
        (
            "K-Means",
            false,
            6745302,
            0x2dbd54ffabe23e23,
            2869008,
            [329507978, 0, 19384488, 109329152, 0],
        ),
        (
            "K-Means",
            true,
            21625170,
            0x76c3dcff3ee5df43,
            8120096,
            [1390848668, 0, 74292392, 338243072, 17103360],
        ),
        (
            "HotSpot",
            false,
            1425920,
            0x3ca5721a53c55fad,
            1057448,
            [94232476, 7989552, 2905141, 0, 861152],
        ),
        (
            "HotSpot",
            true,
            4833152,
            0x5e5e0d6b117ee33d,
            3191360,
            [281837756, 21100420, 107223644, 0, 4382176],
        ),
        (
            "LUD",
            false,
            2523456,
            0x9a2a303f09170a85,
            1569784,
            [709266448, 198386588, 40516896, 0, 9357696],
        ),
        (
            "LUD",
            true,
            10428928,
            0x8f294075d6688135,
            5304976,
            [641873520, 362011444, 82940304, 0, 0],
        ),
        (
            "SCP",
            false,
            511968,
            0xb874c076010115d,
            244048,
            [66186216, 763232, 2381824, 0, 0],
        ),
        (
            "SCP",
            true,
            1540001,
            0xad9a2d91b0dc22b2,
            637088,
            [194596952, 3606784, 85340928, 0, 0],
        ),
        (
            "VA",
            false,
            245792,
            0x8cda00d75e5cd485,
            116368,
            [15851520, 0, 0, 0, 0],
        ),
        (
            "VA",
            true,
            1015936,
            0x37ee94421e02d8e5,
            336952,
            [85450752, 0, 0, 0, 0],
        ),
        (
            "NW",
            false,
            535057,
            0xb8ecdd44a1f3eb03,
            724920,
            [46214240, 47406814, 69390, 0, 0],
        ),
        (
            "NW",
            true,
            3686003,
            0x96441c8a4fac2c98,
            2740208,
            [211824584, 182505307, 1539135, 0, 0],
        ),
        (
            "PathFinder",
            false,
            341192,
            0xcf12cc6cf6fa1b85,
            138080,
            [22214924, 677684, 2980, 0, 3744],
        ),
        (
            "PathFinder",
            true,
            1091104,
            0x5b0abdba4caa22b7,
            406320,
            [74698037, 2120026, 7246, 0, 11968],
        ),
        (
            "BackProp",
            false,
            2991456,
            0x6c931698e32564a5,
            1099400,
            [214045636, 5173526, 29977378, 0, 0],
        ),
        (
            "BackProp",
            true,
            11272232,
            0x1fc3f3a57b6d751a,
            3729560,
            [839084880, 15723944, 582611434, 0, 6496],
        ),
        (
            "BFS",
            false,
            1028278,
            0xadad27f9440c5170,
            1484464,
            [18541671, 0, 4432465, 0, 18572],
        ),
        (
            "BFS",
            true,
            7849461,
            0x2f27f5d5827dd35a,
            5913136,
            [325686043, 0, 11701988, 0, 0],
        ),
    ];
    let cfg = GpuConfig::default();
    let benches = all_benchmarks();
    let runs: Vec<_> = benches
        .iter()
        .flat_map(|b| [(b, false), (b, true)])
        .collect();
    let got: Vec<StreamPin> = runs
        .par_iter()
        .map(|&(b, hardened)| {
            let fold = Arc::new(Mutex::new(TouchFold {
                seg: 0,
                touches: 0,
                hash: 0xcbf2_9ce4_8422_2325,
            }));
            let builder = Arc::new(Mutex::new(TraceBuilder::new()));
            let sinks = Sinks {
                trace: Some(tee(fold.clone(), builder.clone())),
                ..Sinks::default()
            };
            let variant = if hardened {
                Variant::TIMED_TMR
            } else {
                Variant::TIMED
            };
            golden_pass(b.as_ref(), &cfg, variant, sinks);
            let trace = builder.lock().unwrap().finish();
            let fold = fold.lock().unwrap();
            (
                b.name(),
                hardened,
                fold.touches,
                fold.hash,
                trace.index_bytes(),
                trace.live_word_cycles(),
            )
        })
        .collect();
    assert_eq!(got, PINS, "{got:?}");
}
