//! One run of one workload: what the benchmark driver invokes, and what
//! `ledger all` spawns as a fresh child process per repetition.
//!
//! A run does a fixed amount of work: one discarded warm-up pass at the
//! smoke sizes, then one pass at the frozen sizes on `--seed`. How long
//! that takes is the measurement; nothing in a run depends on the clock.
//!
//! * Untraced (`--trace 0`): the four end-to-end metrics of that pass.
//! * Traced (`--trace 1`): the pass with span recording, the same
//!   campaigns once more untraced and once with the metrics registry on
//!   to price the observing itself, then the per-layer probes. Reports
//!   the per-layer metrics and writes `trace_<workload>.jsonl` and
//!   `apps_<workload>.csv`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::J;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::probes::{self, Probes};
use crate::span::{layer_of, self_s_by_name, Tracer};
use crate::stats::{median, percentile, tail_percentile};
use crate::verify::Pins;
use crate::workload::{run_pass, Check, Kind, Pass, PassCtx, Sizes, Workload};

pub struct BenchArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub trace: bool,
    /// Where trace / per-app files and scratch journals go.
    pub out_dir: PathBuf,
    /// Also write everything measured as one JSON document here.
    pub detail: Option<PathBuf>,
}

/// Result of one run, in the shape the driver reads.
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    /// The metrics of the requested mode, table order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Numbers reported but not part of the driver contract.
    pub extra: Vec<(String, f64)>,
    /// The measured pass (the traced one in a traced run).
    pub pass: Pass,
}

impl RunResult {
    /// The last line of stdout.
    pub fn driver_line(&self) -> String {
        J::obj([
            ("correct", J::Bool(self.failed == 0)),
            ("attempted", J::Int(self.attempted as u64)),
            ("failed", J::Int(self.failed as u64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .render()
    }
}

fn metrics_json(metrics: &[(&'static Metric, f64)]) -> J {
    J::Obj(
        metrics
            .iter()
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    J::obj([("value", J::Num(*v)), ("unit", J::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// `VmHWM` of this process in MB: the most memory it has held so far.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What every pass of a run shares.
struct Env<'a> {
    pins: &'a Pins,
    threads: usize,
    /// Scratch directory, removed when the run ends.
    tmp_dir: &'a Path,
}

impl<'a> Env<'a> {
    fn ctx(&self, tracer: &'a mut Tracer, sizes: &'a Sizes, check: Check<'a>) -> PassCtx<'a> {
        PassCtx {
            tracer,
            sizes,
            threads: self.threads,
            tmp_dir: self.tmp_dir,
            check,
        }
    }
}

/// The pass a run measures, after one discarded pass at the smoke sizes:
/// that one runs every golden run and capture at full size (those do not
/// depend on `n`), so the heap has grown to its working size, the binary
/// is paged in and the allocator's arenas exist. A cold first pass
/// measured 10 % slower end to end and 40 % slower in set-up than its
/// successors.
fn measured_pass(kind: Kind, seed: u64, tracer: &mut Tracer, env: &Env<'_>) -> Pass {
    run_pass(
        kind,
        seed,
        &mut env.ctx(&mut Tracer::new(false), &Sizes::SMOKE, Check::Unchecked),
    );
    run_pass(
        kind,
        seed,
        &mut env.ctx(tracer, &Sizes::FROZEN, Check::Oracle(env.pins)),
    )
}

pub fn run(args: &BenchArgs, threads: usize) -> std::io::Result<RunResult> {
    let pins = Pins::embedded();
    std::fs::create_dir_all(&args.out_dir)?;
    let tmp_dir = args.out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp_dir)?;
    let env = Env {
        pins: &pins,
        threads,
        tmp_dir: &tmp_dir,
    };
    let result = if args.trace {
        traced(args, &env)
    } else {
        Ok(untraced(args, &env))
    };
    let _ = std::fs::remove_dir_all(&tmp_dir);
    let result = result?;
    if let Some(path) = &args.detail {
        std::fs::write(path, detail_json(args, threads, &result).pretty())?;
    }
    Ok(result)
}

fn untraced(args: &BenchArgs, env: &Env<'_>) -> RunResult {
    let pass = measured_pass(args.workload.kind, args.seed, &mut Tracer::new(false), env);
    let values = [
        pass.wall_s(),
        pass.trials_per_s(),
        pass.setup_s(),
        peak_rss_mb(),
    ];
    RunResult {
        attempted: pass.trials(),
        failed: pass.failed(),
        metrics: END_TO_END.iter().zip(values).collect(),
        extra: Vec::new(),
        pass,
    }
}

fn traced(args: &BenchArgs, env: &Env<'_>) -> std::io::Result<RunResult> {
    let kind = args.workload.kind;
    let mut tracer = Tracer::new(true);
    let pass = measured_pass(kind, args.seed, &mut tracer, env);

    // The same campaigns again, unobserved and then with the metrics
    // registry on: what the ledger's tracing and `obs` cost end to end.
    let again = |metrics_on: bool| {
        let mut quiet = Tracer::new(false);
        obs::set_enabled(metrics_on);
        let pass = run_pass(
            kind,
            args.seed,
            &mut env.ctx(&mut quiet, &Sizes::FROZEN, Check::SameAs(&pass)),
        );
        obs::set_enabled(false);
        pass
    };
    let plain = again(false);
    let observed = again(true);

    let probes = probes::run(&Sizes::FROZEN, args.seed, env.tmp_dir);

    // Children that ran inside a bracketed callee, from their probes.
    for app in &pass.apps {
        let Some(parent) = app.golden_parent else {
            continue;
        };
        let probe = probes
            .apps
            .iter()
            .find(|p| p.app == app.app)
            .expect("probes cover every application");
        let golden = match kind {
            Kind::SvfSw => probe.golden_functional,
            _ => probe.golden_timed,
        };
        // Fixed-n campaigns prepare once; adaptive ones once per wave.
        for _ in 0..app.waves.max(1) {
            tracer.add_synthetic(parent, "kernels.golden", golden);
        }
    }

    let (values, extra) = layer_values(
        kind,
        &pass,
        &plain,
        &observed,
        &probes,
        &tracer,
        env.threads,
    );
    let metrics: Vec<(&'static Metric, f64)> = PER_LAYER
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name));
            (m, *v)
        })
        .collect();

    let name = args.workload.name;
    let mut jsonl = String::new();
    for s in tracer.spans() {
        jsonl.push_str(&s.to_json().render());
        jsonl.push('\n');
    }
    std::fs::write(args.out_dir.join(format!("trace_{name}.jsonl")), jsonl)?;
    std::fs::write(
        args.out_dir.join(format!("apps_{name}.csv")),
        apps_csv(kind, &pass, &probes),
    )?;

    let all = [&pass, &plain, &observed];
    Ok(RunResult {
        attempted: all.iter().map(|p| p.trials()).sum(),
        failed: all.iter().map(|p| p.failed()).sum(),
        metrics,
        extra,
        pass,
    })
}

/// Every per-layer value of a traced run, by metric name, plus the
/// numbers that are reported but not part of the driver contract.
fn layer_values(
    kind: Kind,
    pass: &Pass,
    plain: &Pass,
    observed: &Pass,
    probes: &Probes,
    tracer: &Tracer,
    threads: usize,
) -> (BTreeMap<&'static str, f64>, Vec<(String, f64)>) {
    let mut v: BTreeMap<&'static str, f64> = probes.metrics.iter().copied().collect();

    // Self time by span name, verification excluded: `ledger.verify`
    // spans cover their interval in the parent and are then dropped.
    let by_name = self_s_by_name(tracer.spans());
    let self_of = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, s) in &by_name {
        if *name != "ledger.verify" {
            *by_layer.entry(layer_of(name)).or_default() += s;
        }
    }
    let (wall, execute) = (pass.wall_s(), pass.execute_s());
    let layer_frac = |l: &str| by_layer.get(l).copied().unwrap_or(0.0) / wall;

    // Wave set-up cannot be split between the planner and the estimator
    // from outside: for the adaptive workload both names carry it.
    let plan_s = match kind {
        Kind::AvfAdaptive => self_of("stat.run_adaptive"),
        _ => self_of("core.prepare"),
    };
    v.insert("core.plan_ms", plan_s * 1e3);
    v.insert("core.execute_s", execute);
    v.insert("core.assemble_ms", pass.assemble_s() * 1e3);

    let walls: Vec<(u64, Option<bool>)> = pass
        .apps
        .iter()
        .flat_map(|a| a.trial_walls.iter().copied())
        .collect();
    let us: Vec<f64> = walls.iter().map(|&(us, _)| us as f64).collect();
    v.insert("core.trial_us.p50", median(&us));
    v.insert("core.trial_us.p99", percentile(&us, 99.0));
    let busy_us: f64 = us.iter().sum();
    v.insert("core.busy_frac", busy_us / (threads as f64 * execute * 1e6));

    let adaptive = kind == Kind::AvfAdaptive;
    v.insert(
        "stat.adaptive_waves",
        if adaptive { pass.waves() as f64 } else { 0.0 },
    );
    v.insert(
        "stat.adaptive_trials",
        if adaptive { pass.trials() as f64 } else { 0.0 },
    );
    v.insert(
        "stat.wave_overhead_share",
        if adaptive {
            (wall - execute) / wall
        } else {
            0.0
        },
    );
    v.insert(
        "obs.metrics_on_overhead_frac",
        observed.wall_s() / plain.wall_s() - 1.0,
    );
    v.insert("ledger.tracing_overhead_frac", wall / plain.wall_s() - 1.0);
    v.insert("core.self_frac", layer_frac("core"));
    v.insert("kernels.self_frac", layer_frac("kernels"));
    v.insert("trace.self_frac", layer_frac("trace"));
    v.insert("stat.self_frac", layer_frac("stat"));
    v.insert(
        "ledger.unattributed_s",
        by_layer.get("ledger").copied().unwrap_or(0.0),
    );

    let mut extra = vec![
        ("core.trial_us.samples".to_string(), us.len() as f64),
        // The highest percentile these samples support; p99 is reported
        // under that name only because the frozen sizes always reach it.
        (
            "core.trial_us.tail_percentile".to_string(),
            tail_percentile(us.len()).unwrap_or(0.0),
        ),
        ("traced.wall_s".to_string(), wall),
        (
            "ledger.attributed_frac".to_string(),
            1.0 - layer_frac("ledger"),
        ),
    ];
    for (label, want) in [("dead", true), ("live", false)] {
        let sel: Vec<f64> = walls
            .iter()
            .filter(|&&(_, dead)| dead == Some(want))
            .map(|&(us, _)| us as f64)
            .collect();
        if !sel.is_empty() {
            extra.push((format!("core.trial_us.{label}.p50"), median(&sel)));
            extra.push((format!("core.trials.{label}"), sel.len() as f64));
        }
    }
    (v, extra)
}

/// The per-campaign breakdown of the traced pass.
fn apps_csv(kind: Kind, pass: &Pass, probes: &Probes) -> String {
    let mut csv = String::from(
        "app,seed,trials,setup_s,execute_s,trials_per_s,dead_frac,capture_ms,snapshot_mb,trace_mb\n",
    );
    for a in &pass.apps {
        // What the trace says of this seed's fixed uarch plan; the
        // software layer has no footprints to adjudicate.
        let dead_frac = match kind {
            Kind::SvfSw => String::new(),
            _ => probes
                .apps
                .iter()
                .find(|p| p.app == a.app)
                .map_or(String::new(), |p| format!("{:.4}", p.dead_frac)),
        };
        csv.push_str(&format!(
            "{},{},{},{:.4},{:.4},{:.1},{},{:.2},{:.2},{:.2}\n",
            a.app,
            a.seed,
            a.trials,
            a.setup_s,
            a.execute_s,
            a.trials as f64 / a.execute_s,
            dead_frac,
            a.capture_s * 1e3,
            a.snapshot_bytes as f64 / 1e6,
            a.trace_bytes as f64 / 1e6,
        ));
    }
    csv
}

fn detail_json(args: &BenchArgs, threads: usize, r: &RunResult) -> J {
    J::obj([
        ("workload", J::str(args.workload.name)),
        ("seed", J::Int(args.seed)),
        ("trace", J::Bool(args.trace)),
        ("threads", J::Int(threads as u64)),
        ("attempted", J::Int(r.attempted as u64)),
        ("failed", J::Int(r.failed as u64)),
        ("metrics", metrics_json(&r.metrics)),
        (
            "extra",
            J::Obj(
                r.extra
                    .iter()
                    .map(|(k, v)| (k.clone(), J::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "campaigns",
            J::arr(r.pass.apps.iter().map(|a| {
                J::obj([
                    ("app", J::str(&a.app)),
                    ("seed", J::Int(a.seed)),
                    ("trials", J::Int(a.trials as u64)),
                    ("wall_s", J::Num(a.wall_s)),
                    ("setup_s", J::Num(a.setup_s)),
                    ("execute_s", J::Num(a.execute_s)),
                    ("fingerprint", J::Str(format!("{:#018x}", a.fingerprint))),
                    ("failed", J::Int(a.failed as u64)),
                ])
            })),
        ),
    ])
}

/// Human-readable report of one run (stdout, before the driver line).
pub fn print_report(args: &BenchArgs, threads: usize, r: &RunResult) {
    println!(
        "workload {} seed {} ({} campaigns, {} threads)",
        args.workload.name,
        args.seed,
        r.pass.apps.len(),
        threads
    );
    for (m, v) in &r.metrics {
        println!("  {:<42} {:>16.4} {}", m.name, v, m.unit);
    }
    for (k, v) in &r.extra {
        println!("  {k:<42} {v:>16.4}");
    }
    println!("  ops_attempted {} ops_failed {}", r.attempted, r.failed);
}
