//! The campaign driver — the repo's one command line and its one binary.
//! Regenerate the paper's injection figures (`paper`) or the extension
//! studies built on the same campaigns, the analytic ACE estimate against
//! injection among them (`extensions`), in one resumable run each, or split
//! one fault-injection campaign across processes/machines, checkpoint
//! while running, resume after a kill, and merge shard outputs back into
//! the single-shot result.
//!
//! ```text
//! campaign paper --out-dir DIR [--n-uarch N --n-sw N --apps VA,SCP --limit L]
//! campaign extensions --out-dir DIR [the same flags; shares DIR/journal/ with paper]
//! campaign list
//! campaign golden --app VA [--layer uarch|sw] [--hardened] [--sms N]
//! campaign run   --app VA --layer uarch --shards 4 --shard-index 0 \
//!                --checkpoint shard0.jsonl [--resume shard0.jsonl]
//! campaign run   --app VA --layer uarch --adaptive --ci-target 0.05 \
//!                [--wave-size 16 --max-trials 256 --checkpoint BASE --resume BASE]
//! campaign merge --app VA --layer uarch shard0.jsonl shard1.jsonl ...
//! campaign serve --app VA --layer uarch --shards 3 --listen 127.0.0.1:0 [--adaptive ...]
//! campaign work  --connect 127.0.0.1:PORT
//! campaign status|top|scrape ADDR, campaign lint, campaign timeline FILE...
//! ```
//!
//! `campaign --help` lists the subcommands and `campaign <sub> --help`
//! every flag of one, both generated from the flag table in
//! [`bench::cli`] — the only place a flag is declared. `run`, `merge` and
//! `serve` parse into one campaign description
//! ([`dispatch::CampaignSpec`], range-checked by its `validate`), the
//! same structure the job frame carries to the workers.
//!
//! Plans are deterministic (docs/CAMPAIGNS.md): every shard derives the
//! same explicit trial list from `--seed`, so any disjoint cover of the
//! plan — 1 shard or 40, interrupted and resumed or not, executed locally
//! or by a fleet of `work` daemons against a `serve` coordinator
//! (docs/DISPATCH.md), on the timed engine or with `--backend replay`
//! (docs/TRACE.md) — merges to the byte-identical
//! `UarchAppResult`/`SvfAppResult`. `--adaptive` switches from a fixed
//! `--n` per stratum to CI-driven sizing in deterministic waves
//! (docs/TWOLEVEL.md).
//!
//! Exit codes are uniform across subcommands: **2** for CLI/validation
//! errors (unknown flags, out-of-range values, malformed addresses),
//! **1** for runtime failures (engine errors, unreadable checkpoints,
//! dispatch failures), **0** on success and for `--help`.

mod args;
mod fleet;
mod golden;
mod merge;
mod paper;
mod run;
mod serve;
mod work;

use bench::cli::{die, usage, Cmd};
use bench::figures::{EXTENSIONS, FIGURES};
use bench::{finish_observability, init_observability};

const SUBCOMMANDS: &str =
    "paper|extensions|list|golden|run|merge|serve|work|status|top|scrape|lint|timeline";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(sub) = args.get(1) else {
        die(&format!(
            "usage: campaign <{SUBCOMMANDS}> [options] (campaign --help; docs/CAMPAIGNS.md, \
             docs/DISPATCH.md, docs/OBSERVABILITY.md)"
        ));
    };
    if sub == "--help" || sub == "-h" {
        println!("usage: campaign <{SUBCOMMANDS}> [options]\n");
        for cmd in Cmd::ALL {
            println!("{}", usage(cmd));
        }
        println!(
            "usage: campaign list                   the applications and their kernels\n\
             usage: campaign status|scrape ADDR     one-shot fleet view / lint of a telemetry endpoint\n\
             usage: campaign lint                   validate Prometheus exposition text from stdin\n\
             usage: campaign timeline FILE...       merge JSONL trace events into one timeline"
        );
        return;
    }
    let rest = &args[2..];
    // A subcommand of the flag table turns observability on when it parses
    // `rest` (`--events`); the others have the `RELIA_*` variables alone.
    let in_table = (Cmd::ALL.iter().map(|c| c.subcommand()))
        .any(|names| names.split('|').any(|name| name == sub));
    if !in_table {
        init_observability(None);
    }
    match sub.as_str() {
        "paper" => paper::figure_set(sub, &FIGURES, "", rest),
        "extensions" => paper::figure_set(sub, &EXTENSIONS, ".extensions", rest),
        "list" => golden::list(),
        "golden" => golden::golden(rest),
        "run" => run::run(rest),
        "merge" => merge::merge(rest),
        "serve" => serve::serve(rest),
        "work" => work::work(rest),
        "status" => fleet::status(rest),
        "top" => fleet::top(rest),
        "scrape" => fleet::scrape(rest),
        "lint" => fleet::lint(),
        "timeline" => fleet::timeline(rest),
        other => die(&format!("unknown subcommand {other:?} ({SUBCOMMANDS})")),
    }
    finish_observability();
}
