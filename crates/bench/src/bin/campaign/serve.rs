//! `campaign serve`: run the dispatch coordinator (docs/DISPATCH.md) for
//! one campaign — a fixed-n plan, or with `--adaptive` one plan per wave,
//! served to the same connected workers.

use std::net::TcpListener;

use bench::cli::{parse_or_exit, Cmd};
use dispatch::{DispatchCfg, DispatchStats};
use stat::run_adaptive;

use crate::args::{adaptive, adaptive_targets, fail};
use crate::merge::print_result;
use crate::run::print_adaptive;

fn stats_line(s: &DispatchStats) -> String {
    format!(
        "{} workers, {} leases ({} reassigned, {} expired), {} shards, \
         {} duplicate records, {} torn frames, {} resends",
        s.workers_joined,
        s.leases_granted,
        s.leases_reassigned,
        s.leases_expired,
        s.shards_completed,
        s.duplicate_records,
        s.torn_frames,
        s.resend_requests,
    )
}

pub fn serve(args: &[String]) {
    let a = parse_or_exit(Cmd::Serve, args);
    let (spec, bench) = a.campaign();
    let adaptive = adaptive(&a);
    let defaults = DispatchCfg::default();
    let dcfg = DispatchCfg {
        shards: a.num("--shards").unwrap_or(defaults.shards),
        lease: a.millis("--lease-ms").unwrap_or(defaults.lease),
        out_dir: a.path("--out-dir"),
    };
    let csv = a.path("--csv");
    let listen = a.text("--listen").unwrap_or("127.0.0.1:0");
    let listener = TcpListener::bind(listen)
        .unwrap_or_else(|e| fail(&format!("cannot listen on {listen}: {e}")));
    let local = listener
        .local_addr()
        .unwrap_or_else(|e| fail(&e.to_string()));
    if let Some(pf) = a.path("--port-file") {
        // Write-then-rename so pollers never read a half-written port.
        let tmp = pf.with_extension("tmp");
        std::fs::write(&tmp, format!("{}\n", local.port()))
            .and_then(|()| std::fs::rename(&tmp, &pf))
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", pf.display())));
    }

    let Some(acfg) = adaptive else {
        let prep = spec.prepare(bench.as_ref());
        eprintln!(
            "[dispatch] {} {} plan: {} trials, fingerprint {:#018x}, {} shards, listening on \
             {local}",
            prep.plan.app,
            prep.plan.layer.label(),
            prep.plan.len(),
            prep.plan.fingerprint(),
            dcfg.shards,
        );
        let outcome = dispatch::serve(listener, &prep.plan, &spec, &dcfg)
            .unwrap_or_else(|e| fail(&e.to_string()));
        eprintln!("[dispatch] complete: {}", stats_line(&outcome.stats));
        print_result(&prep, &outcome.records, csv.as_deref());
        return;
    };

    // The wave (index + strata) rides in the job frame, so each worker
    // re-expands the wave plan locally and the handshake proves it.
    eprintln!(
        "[dispatch] {} {} adaptive: CI target ±{}, wave size {}, cap {}/stratum, \
         {} shards, listening on {local}",
        bench.name(),
        spec.layer.label(),
        acfg.ci_target,
        acfg.wave_size,
        acfg.max_per_stratum,
        dcfg.shards,
    );
    let (res, stats) = dispatch::serve_with(listener, &dcfg, |coord| {
        run_adaptive(
            bench.as_ref(),
            &spec.campaign_cfg(),
            spec.hardened,
            spec.layer,
            &adaptive_targets(&spec),
            &acfg,
            |prep, wave| {
                eprintln!(
                    "[dispatch] wave {wave}: {} trials, fingerprint {:#018x}",
                    prep.plan.len(),
                    prep.plan.fingerprint(),
                );
                Ok(coord
                    .run(&prep.plan, &spec)
                    .unwrap_or_else(|e| fail(&e.to_string())))
            },
        )
    })
    .unwrap_or_else(|e| fail(&e.to_string()));
    let res = res.unwrap_or_else(|e| fail(&e.to_string()));
    eprintln!(
        "[dispatch] adaptive complete: {} waves, {}",
        res.waves,
        stats_line(&stats)
    );
    print_adaptive(bench.as_ref(), &res, &acfg, csv.as_deref());
}
