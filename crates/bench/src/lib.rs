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

pub mod cli;
pub mod driver;
pub mod figures;

/// Turn on observability before running campaigns — called by
/// [`cli::parse_or_exit`] with the command line's `--events`, so a binary
/// that parses its flags has it on:
///
/// * `--events PATH` (`events`) or `RELIA_EVENTS=PATH` — JSONL event sink
///   (one line per injection) plus the metrics registry;
/// * `RELIA_METRICS=1` — the metrics registry alone, spans included (each
///   `obs::span` observes `span_us{span=<name>}`);
/// * `RELIA_PROGRESS=1`/`0` — force the stderr progress reporter on/off
///   (default: on exactly when events or metrics are on).
///
/// With none of these set the campaigns run exactly as before: no files,
/// no extra output, identical results (observability never touches the
/// seeded RNG streams).
pub fn init_observability(events: Option<&str>) {
    // Always installed: a panicking campaign must not lose the buffered
    // event/trace lines needed to debug the panic.
    obs::install_panic_hook();
    let events_path = events
        .map(String::from)
        .or_else(|| std::env::var("RELIA_EVENTS").ok().filter(|s| !s.is_empty()));
    let metrics_on = std::env::var("RELIA_METRICS").is_ok_and(|v| v != "0");
    let mut any = metrics_on;
    if let Some(p) = &events_path {
        if let Err(e) = obs::init_events(std::path::Path::new(p)) {
            eprintln!("error: cannot open events file {p}: {e}");
            std::process::exit(2);
        }
        eprintln!("[obs] writing events to {p}");
        any = true;
    }
    if any {
        obs::set_enabled(true);
    }
    let progress = match std::env::var("RELIA_PROGRESS").ok().as_deref() {
        Some("0") => false,
        Some(_) => true,
        None => any,
    };
    if progress {
        obs::progress::enable();
    }
}

/// Print the final observability summary (the metrics snapshot; the
/// `span_us` histogram rows are the per-span profile) to stderr and
/// flush/close the event sink. No-op when [`init_observability`] enabled
/// nothing.
pub fn finish_observability() {
    obs::progress::finish();
    if obs::enabled() {
        let snap = obs::global().snapshot();
        for t in relia::report::metrics_tables(&snap) {
            eprintln!("{t}");
        }
    }
    if obs::events_enabled() {
        obs::flush_events().expect("flush events");
        obs::events::shutdown_events();
    }
}
