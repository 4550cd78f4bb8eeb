//! The fleet-view subcommands over the telemetry endpoints and event
//! files (docs/OBSERVABILITY.md): `status`, `top`, `scrape`, `lint`,
//! `timeline`.

use bench::cli::{die, parse_or_exit, Arg, Cmd};
use relia::Table;

use crate::args::fail;

/// The `ADDR` argument of `status`/`top`/`scrape`: the `HOST:PORT` of a
/// telemetry endpoint, checked like every other address flag.
fn endpoint<'a>(sub: &str, args: &'a [String]) -> &'a str {
    let Some(addr) = args.first() else {
        die(&format!(
            "{sub} requires ADDR (HOST:PORT of a telemetry endpoint)"
        ));
    };
    Arg::Addr
        .check(&format!("{sub} ADDR"), addr)
        .unwrap_or_else(|e| die(&e));
    addr
}

/// Fetch and parse a telemetry `/status` document.
fn fetch_status(addr: &str) -> obs::JsonNode {
    match obs::http_get(addr, "/status", std::time::Duration::from_secs(2)) {
        Ok((200, body)) => obs::parse_json(&body)
            .unwrap_or_else(|| fail(&format!("{addr}/status returned unparseable JSON"))),
        Ok((code, _)) => fail(&format!("{addr}/status returned HTTP {code}")),
        Err(e) => fail(&format!("cannot reach {addr}: {e}")),
    }
}

/// Render one `/status` document as human-readable lines — the shared
/// body of `campaign status` (one shot) and `campaign top` (live).
fn fleet_lines(doc: &obs::JsonNode) -> Vec<String> {
    let s = |k: &str| doc.get(k).and_then(|n| n.as_str().map(String::from));
    let n = |k: &str| doc.get(k).and_then(obs::JsonNode::as_u64).unwrap_or(0);
    let mut out = Vec::new();
    match s("role").as_deref() {
        Some("coordinator") => {
            // An adaptive campaign names the wave its counts belong to.
            let wave = match doc.get("wave").and_then(obs::JsonNode::as_u64) {
                Some(w) => format!(" wave {w}"),
                None => String::new(),
            };
            out.push(format!(
                "coordinator  {} {}{wave}  fp {}  shards {}  {}",
                s("app").unwrap_or_default(),
                s("layer").unwrap_or_default(),
                s("campaign_fp").unwrap_or_default(),
                n("shards"),
                if doc.get("done").and_then(obs::JsonNode::as_bool) == Some(true) {
                    "DONE"
                } else {
                    "running"
                },
            ));
            let held = n("records_held");
            let trials = n("trials").max(1);
            // `eta_ms` is absent while the coordinator has no observed
            // rate yet; render that honestly instead of `eta 0.0s`.
            let eta = match doc.get("eta_ms").and_then(obs::JsonNode::as_u64) {
                Some(ms) => format!("{:.1}s", ms as f64 / 1e3),
                None => "--".to_string(),
            };
            out.push(format!(
                "records      {held}/{} ({:.1}%)  {:.1} rec/s  eta {eta}  elapsed {:.1}s",
                n("trials"),
                100.0 * held as f64 / trials as f64,
                doc.get("records_per_s")
                    .and_then(obs::JsonNode::as_f64)
                    .unwrap_or(0.0),
                n("elapsed_ms") as f64 / 1e3,
            ));
            if let Some(st) = doc.get("stats") {
                let sn = |k: &str| st.get(k).and_then(obs::JsonNode::as_u64).unwrap_or(0);
                out.push(format!(
                    "stats        {} workers  {} leases ({} reassigned, {} expired)  \
                     {} shards done  {} dup  {} torn  {} resent",
                    sn("workers_joined"),
                    sn("leases_granted"),
                    sn("leases_reassigned"),
                    sn("leases_expired"),
                    sn("shards_completed"),
                    sn("duplicate_records"),
                    sn("torn_frames"),
                    sn("resend_requests"),
                ));
            }
            let mut t = Table::new(
                "shards",
                &[
                    "Shard",
                    "State",
                    "Owner",
                    "Held/Total",
                    "Attempts",
                    "HB age",
                    "Retry in",
                ],
            );
            for sh in doc
                .get("shard_detail")
                .and_then(obs::JsonNode::as_arr)
                .unwrap_or(&[])
            {
                let g = |k: &str| sh.get(k).and_then(obs::JsonNode::as_u64).unwrap_or(0);
                let state = sh
                    .get("state")
                    .and_then(obs::JsonNode::as_str)
                    .unwrap_or("?");
                t.row(vec![
                    g("shard").to_string(),
                    state.to_string(),
                    sh.get("owner")
                        .and_then(obs::JsonNode::as_str)
                        .unwrap_or("-")
                        .to_string(),
                    format!("{}/{}", g("held"), g("total")),
                    g("attempts").to_string(),
                    if state == "leased" {
                        format!("{}ms", g("heartbeat_age_ms"))
                    } else {
                        "-".into()
                    },
                    if state == "pending" {
                        format!("{}ms", g("retry_in_ms"))
                    } else {
                        "-".into()
                    },
                ]);
            }
            out.push(t.to_string());
            let workers: Vec<String> = doc
                .get("workers")
                .and_then(obs::JsonNode::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|w| {
                    let name = w.get("name").and_then(obs::JsonNode::as_str).unwrap_or("?");
                    match w.get("telemetry").and_then(obs::JsonNode::as_str) {
                        Some(addr) if !addr.is_empty() => format!("{name} @{addr}"),
                        _ => name.to_string(),
                    }
                })
                .collect();
            out.push(format!("workers      {}", workers.join(", ")));
        }
        Some("worker") => {
            out.push(format!(
                "worker {}  {}/{} trials  masked {}  sdc {}  timeout {}  due {}",
                s("name").unwrap_or_default(),
                n("trials_done"),
                n("trials_total"),
                n("masked"),
                n("sdc"),
                n("timeout"),
                n("due"),
            ));
            // Cost-weighted progress: trial counts under the replay
            // backend mix near-free synthesized records with full
            // simulations, so prefer the engine's simulated-cycle rate
            // when the document carries it (docs/TRACE.md).
            if let Some(rate) = doc.get("sim_cycles_per_s").and_then(obs::JsonNode::as_f64) {
                out.push(format!(
                    "sim cost     {} cycles done  {:.2} Mcyc/s (cost-weighted)",
                    n("sim_cycles_done"),
                    rate / 1e6,
                ));
            }
            if doc.get("replay_dead").is_some() {
                out.push(format!(
                    "replay       {} dead  {} re-executed",
                    n("replay_dead"),
                    n("replay_fallback"),
                ));
            }
            if let (Some(p50), Some(p95)) = (
                doc.get("wall_p50_us").and_then(obs::JsonNode::as_f64),
                doc.get("wall_p95_us").and_then(obs::JsonNode::as_f64),
            ) {
                out.push(format!(
                    "wall time    p50 {:.1}ms  p95 {:.1}ms",
                    p50 / 1e3,
                    p95 / 1e3
                ));
            }
        }
        _ => out.push("(unrecognized /status document)".into()),
    }
    out
}

/// `campaign status ADDR`: one-shot fleet view from a `/status` endpoint.
pub fn status(args: &[String]) {
    let addr = endpoint("status", args);
    for line in fleet_lines(&fetch_status(addr)) {
        println!("{line}");
    }
}

/// `campaign top ADDR`: poll `/status` and redraw a live fleet view.
pub fn top(args: &[String]) {
    let a = parse_or_exit(Cmd::Top, args);
    if let Some(extra) = a.positional.get(1) {
        die(&format!("unexpected argument {extra:?}"));
    }
    let addr = endpoint("top", &a.positional);
    let interval = a
        .millis("--interval-ms")
        .unwrap_or(std::time::Duration::from_secs(1));
    // 0 = until the coordinator reports done.
    let iterations: u64 = a.num("--iterations").unwrap_or(0);
    use std::io::IsTerminal;
    let clear = std::io::stdout().is_terminal();
    let mut round = 0u64;
    loop {
        let doc = fetch_status(addr);
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        println!("campaign top — {addr} (poll {})", round + 1);
        for line in fleet_lines(&doc) {
            println!("{line}");
        }
        round += 1;
        let done = doc.get("done").and_then(obs::JsonNode::as_bool) == Some(true);
        if done || (iterations > 0 && round >= iterations) {
            break;
        }
        std::thread::sleep(interval);
    }
}

/// `campaign scrape ADDR`: fetch `/metrics` + `/status`, lint both.
pub fn scrape(args: &[String]) {
    let addr = endpoint("scrape", args);
    let body = match obs::http_get(addr, "/metrics", std::time::Duration::from_secs(2)) {
        Ok((200, body)) => body,
        Ok((code, _)) => fail(&format!("{addr}/metrics returned HTTP {code}")),
        Err(e) => fail(&format!("cannot reach {addr}: {e}")),
    };
    let series = obs::expo::lint(&body)
        .unwrap_or_else(|e| fail(&format!("{addr}/metrics failed exposition lint: {e}")));
    let _ = fetch_status(addr); // must parse as JSON
    println!("scrape ok: {series} series, /status parses");
}

/// `campaign lint`: validate Prometheus exposition text from stdin.
pub fn lint() {
    use std::io::Read;
    let mut body = String::new();
    std::io::stdin()
        .read_to_string(&mut body)
        .unwrap_or_else(|e| fail(&format!("cannot read stdin: {e}")));
    match obs::expo::lint(&body) {
        Ok(series) => println!("lint ok: {series} series"),
        Err(e) => fail(&format!("exposition lint failed: {e}")),
    }
}

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
