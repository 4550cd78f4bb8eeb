//! `campaign paper`: every campaign behind the paper's injection figures,
//! each exactly once, journaled and resumable.
//!
//! For every application of `--apps` (the suite by default) the driver
//! runs four campaigns — AVF (`uarch`) and SVF (`sw`), unprotected
//! (`base`) and TMR-hardened (`tmr`) — through plan → execute → assemble,
//! journaling each at `DIR/journal/<app>.<layer>.<base|tmr>.jsonl` in the
//! checkpoint format. The journal is both checkpoint and resume file: a
//! killed run re-invoked with the same command line finishes what is
//! missing, and a complete journal is loaded, not re-simulated. One
//! handle ([`AppCaptures`]) lives at a time, so memory is one
//! application's. Once every campaign is complete, each figure of
//! [`bench::figures::FIGURES`] whose applications were all run is written
//! to `DIR` as CSV, with `MANIFEST.csv` (deterministic: flags, campaign
//! fingerprints, CSV hashes) and `wall.csv` (this invocation's wall time
//! per campaign and per campaign kind — the measured regeneration wall).

use std::path::PathBuf;
use std::time::Instant;

use bench::cli::{die, parse_or_exit, Cmd};
use bench::figures::{
    campaign_name, manifest, wall, AppResults, CampaignEntry, FIGURES, RECORD_N_SW, RECORD_N_UARCH,
};
use kernels::Benchmark;
use relia::plan::{str_tag, Layer, PreparedCampaign};
use relia::{
    assemble_sw, assemble_uarch, error_margin, plan_sw, plan_uarch, records_fingerprint,
    AppCaptures, CampaignCfg, Confidence, EngineCfg, EngineError, HardeningComparison, TrialRecord,
    DEFAULT_CHECKPOINT_EVERY, SVF_KINDS,
};
use vgpu_sim::HwStructure;

use crate::args::{execute_journaled, fail};
use crate::merge::write_csv;

struct Driver {
    cfg: CampaignCfg,
    /// Backend and flush interval of every campaign, and as `trial_limit`
    /// what is left of `--limit`: the new trials this invocation may still
    /// execute. The journal paths are filled in per campaign.
    eng: EngineCfg,
    journals: PathBuf,
    done: Vec<CampaignEntry>,
}

impl Driver {
    /// Run (or finish, or load) one campaign and assemble its result.
    /// Exits 0 with a "partial" line when `--limit` ran out first.
    fn campaign<R>(
        &mut self,
        bench: &dyn Benchmark,
        layer: Layer,
        hardened: bool,
        assemble: impl FnOnce(&PreparedCampaign, &[TrialRecord]) -> Result<R, EngineError>,
    ) -> R {
        let name = campaign_name(bench.name(), layer, hardened);
        eprintln!("[paper] {name} ...");
        let t0 = Instant::now();
        let captures = AppCaptures::new(bench, &self.cfg.gpu, layer, hardened);
        let prep = match layer {
            Layer::Uarch => plan_uarch(&captures, &self.cfg, &HwStructure::ALL),
            Layer::Sw => plan_sw(&captures, &self.cfg, &SVF_KINDS),
        };
        let journal = self.journals.join(format!("{name}.jsonl"));
        let run = execute_journaled(
            &name,
            &prep,
            &mut self.eng,
            Some(journal.clone()),
            Some(journal),
        );
        let executed = run.records.len() - run.resumed;
        let result =
            assemble(&prep, &run.records).unwrap_or_else(|e| fail(&format!("{name}: {e}")));
        self.done.push(CampaignEntry {
            app: bench.name().to_string(),
            layer,
            hardened,
            trials: prep.plan.len(),
            plan_fp: prep.plan.fingerprint(),
            records_fp: records_fingerprint(&run.records),
            executed,
            wall_s: t0.elapsed().as_secs_f64(),
        });
        result
    }
}

pub fn paper(args: &[String]) {
    let a = parse_or_exit(Cmd::Paper, args);
    let dir = a
        .path("--out-dir")
        .unwrap_or_else(|| die("paper requires --out-dir DIR"));
    let cfg = a.campaign_cfg(RECORD_N_UARCH, RECORD_N_SW);
    let benches = a.benches();
    let margin = |n| error_margin(n, Confidence::C99) * 100.0;
    println!(
        "campaign paper: {} applications, n_uarch={} (±{:.2}% @99%), n_sw={} (±{:.2}% @99%)\n",
        benches.len(),
        cfg.n_uarch,
        margin(cfg.n_uarch),
        cfg.n_sw,
        margin(cfg.n_sw),
    );
    let mut d = Driver {
        eng: EngineCfg {
            checkpoint_every: a
                .num("--checkpoint-every")
                .unwrap_or(DEFAULT_CHECKPOINT_EVERY),
            backend: a.backend(),
            trial_limit: a.num("--limit"),
            ..EngineCfg::single_shot()
        },
        journals: dir.join("journal"),
        done: Vec::new(),
        cfg,
    };
    let results: Vec<AppResults> = (benches.iter())
        .map(|b| {
            let b = b.as_ref();
            let (base_avf, golden) = d.campaign(b, Layer::Uarch, false, |prep, records| {
                Ok((assemble_uarch(prep, records)?, prep.golden.clone()))
            });
            AppResults {
                campaigns: HardeningComparison {
                    app: b.name().to_string(),
                    base_avf,
                    base_svf: d.campaign(b, Layer::Sw, false, assemble_sw),
                    tmr_avf: d.campaign(b, Layer::Uarch, true, assemble_uarch),
                    tmr_svf: d.campaign(b, Layer::Sw, true, assemble_sw),
                },
                golden,
            }
        })
        .collect();

    // A figure whose applications were not all run is not written.
    let mut csvs = Vec::new();
    for fig in &FIGURES {
        if let Some(table) = fig.table(&results, &d.cfg.gpu) {
            println!("{table}");
            write_csv(&table, Some(&dir.join(fig.file)));
            csvs.push((fig.file, str_tag(&table.to_csv())));
        }
    }
    let manifest = manifest(&d.cfg, &d.done, &csvs);
    write_csv(&manifest, Some(&dir.join("MANIFEST.csv")));
    let wall = wall(&d.done);
    println!("{wall}");
    write_csv(&wall, Some(&dir.join("wall.csv")));
}
