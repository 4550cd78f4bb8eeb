//! `campaign paper` and `campaign extensions`: every campaign behind a
//! figure set, each exactly once, journaled and resumable.
//!
//! The campaigns are the ones the set's figures name
//! ([`bench::figures::Figure::keys`]) for the applications of `--apps`
//! (the suite by default) — for `paper` four per application: AVF
//! (`uarch`) and SVF (`sw`), unprotected (`base`) and TMR-hardened
//! (`tmr`); for `extensions` the unprotected two plus their PVF,
//! fault-pattern and SM-count variants — run by [`bench::driver::Driver`]
//! against `DIR/journal/`, which both commands share: a campaign either
//! of them completed is loaded, not re-simulated. Once every
//! campaign is complete, each figure whose campaigns were all run is
//! written to `DIR` as CSV, with `MANIFEST<set>.csv` (deterministic:
//! flags, campaign fingerprints, CSV hashes) and `wall<set>.csv` (this
//! invocation's wall time per campaign and per campaign kind — the
//! measured regeneration wall), `<set>` empty for the paper's and
//! `.extensions` for the other.

use bench::cli::{die, parse_or_exit, Cmd};
use bench::driver::{write_csv, Driver};
use bench::figures::{manifest, wall, Figure, RECORD_N_SW, RECORD_N_UARCH};
use relia::plan::str_tag;
use relia::{error_margin, Confidence, EngineCfg};

/// Run the figure set of subcommand `sub`; `set` is what its manifest and
/// wall table carry in their file names after `MANIFEST` / `wall`.
pub fn figure_set(sub: &str, figures: &[Figure], set: &str, args: &[String]) {
    let a = parse_or_exit(Cmd::Paper, args);
    let dir = a
        .path("--out-dir")
        .unwrap_or_else(|| die(&format!("{sub} requires --out-dir DIR")));
    let cfg = a.campaign_cfg(RECORD_N_UARCH, RECORD_N_SW);
    let benches = a.benches();
    let margin = |n| error_margin(n, Confidence::C99) * 100.0;
    println!(
        "campaign {sub}: {} applications, n_uarch={} (±{:.2}% @99%), n_sw={} (±{:.2}% @99%)\n",
        benches.len(),
        cfg.n_uarch,
        margin(cfg.n_uarch),
        cfg.n_sw,
        margin(cfg.n_sw),
    );
    let eng = EngineCfg {
        backend: a.backend(),
        trial_limit: a.num("--limit"),
        ..EngineCfg::single_shot()
    };
    let mut d = Driver::new(&cfg, eng, &dir, &benches);
    let keys = figures.iter().flat_map(|f| f.keys(&cfg)).collect();
    d.run_all(keys);

    // A figure whose campaigns were not all run is not written.
    let mut csvs = Vec::new();
    for fig in figures {
        if let Some((table, summary)) = fig.render(d.campaigns(), &cfg) {
            println!("{table}");
            if !summary.is_empty() {
                println!("{summary}\n");
            }
            write_csv(&table, &dir.join(fig.file));
            csvs.push((fig.file, str_tag(&table.to_csv())));
        }
    }
    let manifest = manifest(&cfg, d.campaigns(), &csvs);
    write_csv(&manifest, &dir.join(format!("MANIFEST{set}.csv")));
    let wall = wall(d.campaigns());
    println!("{wall}");
    write_csv(&wall, &dir.join(format!("wall{set}.csv")));
}
