//! The library behind the `campaign` driver.
//!
//! `campaign paper` regenerates every injection-derived artifact of the
//! paper's evaluation section (Figures 1–5, 7–12, Table I; DESIGN.md's
//! per-experiment index) and `campaign extensions` the extension studies
//! built on the same campaigns (the two-level estimator and the analytic
//! ACE estimate against injection among them), both from one journaled
//! record set per campaign ([`driver`]) — the tables are the functions of
//! [`figures`]. Both take their flags from the one table in [`cli`], print
//! aligned text tables to stdout and write CSVs only to the `--out-dir`
//! they are given.

use std::sync::OnceLock;

pub mod cli;
pub mod driver;
pub mod figures;

/// Where the event log goes, for the error [`finish_observability`]
/// reports when it cannot be written.
static EVENTS_PATH: OnceLock<String> = OnceLock::new();

/// Turn on observability before running campaigns — called by
/// [`cli::parse_or_exit`] with the command line's `--events`, so a binary
/// that parses its flags has it on. `--events PATH` opens the JSONL event
/// sink (one line per injection) and turns on the metrics registry, spans
/// included (each `obs::span` observes `span_us{span=<name>}`), and the
/// stderr progress reporter.
///
/// Without it the campaigns run exactly as before: no files, no extra
/// output, identical results (observability never touches the seeded RNG
/// streams).
pub fn init_observability(events: Option<&str>) {
    // Always installed: a panicking campaign must not lose the buffered
    // event lines needed to debug the panic.
    obs::install_panic_hook();
    if let Some(p) = events {
        if let Err(e) = obs::init_events(std::path::Path::new(p)) {
            eprintln!("error: cannot open events file {p}: {e}");
            std::process::exit(2);
        }
        eprintln!("[obs] writing events to {p}");
        let _ = EVENTS_PATH.set(p.to_string());
        obs::set_enabled(true);
        obs::progress::enable();
    }
}

/// Print the final observability summary (the metrics snapshot; the
/// `span_us` histogram rows are the per-span profile) to stderr and
/// flush/close the event sink. No-op when [`init_observability`] enabled
/// nothing. An event log that cannot be written is a runtime failure
/// (exit 1), reported once the run's own output is out.
pub fn finish_observability() {
    obs::progress::finish();
    if obs::enabled() {
        let snap = obs::global().snapshot();
        for t in relia::report::metrics_tables(&snap) {
            eprintln!("{t}");
        }
    }
    if obs::events_enabled() {
        let flushed = obs::flush_events();
        obs::events::shutdown_events();
        if let Err(e) = flushed {
            let path = EVENTS_PATH.get().map_or("", String::as_str);
            driver::fail(&format!("cannot write events file {path}: {e}"));
        }
    }
}
