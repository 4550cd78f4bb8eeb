//! Perf ledger: four campaign workloads, four end-to-end metrics and a
//! layer-attributed traced run. See `benchmarks/README.md`.
//!
//! ```text
//! ledger bench --workload W --seed S --seconds T --trace 0|1 [--out DIR] [--detail FILE]
//! ledger all   [--seed S] [--out DIR] [--campaign-bin PATH]
//! ledger agree A.json B.json
//! ledger pin   --write PATH
//! ledger smoke [--out DIR]
//! ```

mod bench;
mod json;
mod metrics;
mod probes;
mod report;
mod span;
mod stats;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{find_workload, Check, PassCtx, Sizes, DEFAULT_SEED, WORKLOADS};

fn usage(problem: &str) -> ExitCode {
    eprintln!("ledger: {problem}");
    eprintln!(
        "usage: ledger bench --workload W --seed S --seconds T --trace 0|1 [--out DIR] \
         [--detail FILE]\n       ledger all [--seed S] [--out DIR] [--campaign-bin PATH]\n       \
         ledger agree A.json B.json\n       ledger pin --write PATH\n       ledger smoke [--out DIR]"
    );
    ExitCode::from(2)
}

/// Worker threads for every campaign: min(nproc, 4), whatever the
/// caller's environment says — set here, before the first campaign reads
/// it, so a run means the same on every invocation path.
fn configure_threads() -> usize {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    threads
}

/// `--flag value` pairs after the subcommand, plus bare positionals.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} requires a value"))?;
                    args.flags.push((name.to_string(), value.clone()));
                }
                None => args.positional.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn take(&mut self, name: &str) -> Option<String> {
        let i = self.flags.iter().position(|(n, _)| n == name)?;
        Some(self.flags.remove(i).1)
    }

    fn num<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.take(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} takes a number, got {v:?}"))
            })
            .transpose()
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.flags.first() {
            Some((name, _)) => Err(format!("unknown option --{name}")),
            None => Ok(self.positional),
        }
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A failure while running (as opposed to a malformed command line,
/// which exits 2 with the usage text): reported, exit code 1.
fn runtime_failure(what: &str, e: impl std::fmt::Display) -> ExitCode {
    eprintln!("ledger: {what}: {e}");
    ExitCode::FAILURE
}

fn cmd_bench(mut a: Args, threads: usize) -> Result<ExitCode, String> {
    let name = a.take("workload").ok_or("bench requires --workload")?;
    let workload = find_workload(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    // The driver always passes `--seconds`; a run's work is fixed by the
    // frozen sizes (calibrated to BENCHMARK.json's `run_seconds`), so
    // the value is checked and changes nothing.
    if let Some(s) = a.num::<f64>("seconds")? {
        if !(s.is_finite() && s > 0.0) {
            return Err(format!("--seconds must be positive, got {s}"));
        }
    }
    let args = bench::BenchArgs {
        workload,
        seed: a.num("seed")?.unwrap_or(DEFAULT_SEED),
        trace: match a.take("trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, got {v:?}")),
        },
        out_dir: a
            .take("out")
            .map_or_else(|| "benchmarks/out".into(), PathBuf::from),
        detail: a.take("detail").map(PathBuf::from),
    };
    a.finish()?;
    let result = match bench::run(&args, threads) {
        Ok(r) => r,
        Err(e) => return Ok(runtime_failure("bench", e)),
    };
    bench::print_report(&args, threads, &result);
    println!("{}", result.driver_line());
    Ok(exit_code(result.failed == 0))
}

fn cmd_all(mut a: Args, threads: usize) -> Result<ExitCode, String> {
    let args = report::AllArgs {
        seed: a.num("seed")?.unwrap_or(DEFAULT_SEED),
        out_dir: a
            .take("out")
            .map_or_else(|| "benchmarks/out".into(), PathBuf::from),
        campaign_bin: a.take("campaign-bin").map(PathBuf::from),
    };
    a.finish()?;
    Ok(match report::all(&args, threads) {
        Ok(ok) => exit_code(ok),
        Err(e) => runtime_failure("all", e),
    })
}

fn cmd_agree(a: Args) -> Result<ExitCode, String> {
    let files = a.finish()?;
    let [a, b] = files.as_slice() else {
        return Err("agree takes exactly two ledger.json files".into());
    };
    Ok(match report::agree(a.as_ref(), b.as_ref()) {
        Ok(ok) => exit_code(ok),
        Err(e) => runtime_failure("agree", e),
    })
}

fn cmd_pin(mut a: Args) -> Result<ExitCode, String> {
    let path = a.take("write").ok_or("pin requires --write PATH")?;
    a.finish()?;
    let pins = verify::generate(&Sizes::FROZEN);
    Ok(match std::fs::write(&path, pins.to_text()) {
        Ok(()) => {
            eprintln!("[ledger] wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => runtime_failure(&path, e),
    })
}

/// Every workload once at n = 2, verified on the oracle slice, nothing
/// written: proves the whole call chain still links and agrees.
fn cmd_smoke(mut a: Args, threads: usize) -> Result<ExitCode, String> {
    let out: PathBuf = a
        .take("out")
        .map_or_else(|| "benchmarks/out".into(), PathBuf::from);
    a.finish()?;
    let tmp = out.join(format!("tmp-smoke-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        return Ok(runtime_failure(&tmp.display().to_string(), e));
    }
    let pins = verify::Pins::default();
    let mut failed = 0;
    for w in &WORKLOADS {
        let mut tracer = span::Tracer::new(true);
        let pass = workload::run_pass(
            w.kind,
            DEFAULT_SEED,
            &mut PassCtx {
                tracer: &mut tracer,
                sizes: &Sizes::SMOKE,
                threads,
                tmp_dir: &tmp,
                check: Check::Oracle(&pins),
            },
        );
        println!(
            "smoke {}: {} trials, {} failed, {} spans, {:.2} s",
            w.name,
            pass.trials(),
            pass.failed(),
            tracer.spans().len(),
            pass.wall_s()
        );
        failed += pass.failed();
    }
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(exit_code(failed == 0))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        return usage("missing subcommand");
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let threads = configure_threads();
    let done = match cmd.as_str() {
        "bench" => cmd_bench(args, threads),
        "all" => cmd_all(args, threads),
        "agree" => cmd_agree(args),
        "pin" => cmd_pin(args),
        "smoke" => cmd_smoke(args, threads),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    done.unwrap_or_else(|e| usage(&e))
}
