//! `campaign timeline FILE...`: the fleet's one telemetry view, read
//! from event logs after the fact (docs/OBSERVABILITY.md).

use bench::cli::die;
use relia::Table;

use crate::args::fail;

/// `campaign timeline FILE...`: print trace events from JSONL event files
/// in wall-clock order (one table across coordinator + worker sinks).
pub fn timeline(args: &[String]) {
    if args.is_empty() {
        die("timeline requires at least one JSONL events file");
    }
    let mut events = Vec::new();
    for path in args {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        events.extend(text.lines().filter_map(obs::TraceEvent::parse));
    }
    if events.is_empty() {
        fail("no trace records found (run workers with --trace and an --events sink)");
    }
    events.sort_by_key(|e| (e.t_us, e.shard, e.trial));
    let mut t = Table::new(
        format!("trace timeline — {} events", events.len()),
        &["t (ms)", "Kind", "Worker", "Shard", "Trial", "Wall (µs)"],
    );
    for e in &events {
        t.row(vec![
            format!("{:.3}", e.t_us as f64 / 1e3),
            e.kind.clone(),
            if e.worker.is_empty() {
                "-".into()
            } else {
                e.worker.clone()
            },
            e.shard.to_string(),
            if e.trial == u64::MAX {
                "-".into()
            } else {
                e.trial.to_string()
            },
            e.wall_us.to_string(),
        ]);
    }
    println!("{t}");
}
