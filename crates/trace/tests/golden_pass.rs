//! One golden pass, any set of sinks (`kernels::golden_pass`): a sink
//! observes the run, never perturbs it — nor what another sink riding the
//! same pass records — and a pass that does not reproduce its reference is
//! refused. Lives in this crate because it is the lowest one that can
//! finish every sink's artefact, the encoded trace included.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use kernels::apps::va::Va;
use kernels::{
    all_benchmarks, golden_pass, golden_run, AceProfile, Benchmark, CtaLog, GoldenRun, Sinks,
    SnapshotSink, Variant,
};
use rayon::prelude::*;
use trace::TraceBuilder;
use vgpu_sim::{GpuConfig, SharedSink};

const K: usize = 4;

/// What one timed pass left in its sinks, in comparable form.
struct Recorded {
    golden: GoldenRun,
    ace: Option<AceProfile>,
    /// `AppSnapshots::{bytes, count, chunks}`.
    snapshots: Option<(u64, usize, (u64, u64))>,
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
        snapshots: pass.snapshots.map(|s| (s.bytes, s.count(), s.chunks())),
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
        assert_eq!(
            all.snapshots, snapshots.snapshots,
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
        let (_, count, _) = all.snapshots.expect("asked for");
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
