//! The journaled campaign driver: the one piece of code that runs a suite
//! campaign for a file under `results/`.
//!
//! A campaign is named by its [`Key`] — what, besides the run's sample
//! sizes, seed and watchdog, determines its records — and journaled at
//! `DIR/journal/<name>.jsonl` in the checkpoint format, `<name>` derived
//! from the key ([`Key::name`]). The journal is both checkpoint and
//! resume file: a killed run re-invoked with the same command line
//! finishes what is missing, and a complete journal is loaded, not
//! re-simulated — whichever command (`campaign paper`, `campaign
//! extensions`, `ace_study`) asked for the key first. One handle
//! ([`AppCaptures`]) lives at a time, reused by consecutive keys of the
//! same (application, GPU, layer, variant), so memory is one
//! application's and a fault-pattern sweep pays for one golden run and
//! one capture pass.

use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use kernels::{all_benchmarks, Benchmark, GoldenRun};
use relia::plan::{variant_label, Layer, PreparedCampaign};
use relia::{
    assemble_pvf, assemble_sw, assemble_uarch, execute_resumable, plan_sw, plan_uarch,
    records_fingerprint, AppCaptures, CampaignCfg, EngineCfg, PvfAppResult, ShardRun, SvfAppResult,
    Table, UarchAppResult, SVF_KINDS,
};
use vgpu_sim::{FaultPattern, GpuConfig, HwStructure, SwFaultKind};

/// Runtime failure: the request was well-formed but executing it failed.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

/// `--limit` ran out before `what` (a campaign of a figure set, a wave of
/// `run --adaptive`) was covered: say so and stop, successfully — the
/// journal is resumable.
fn exit_partial(what: &str, done: usize, total: usize) -> ! {
    println!("{what}: {done}/{total} trials classified (partial — resume to finish)");
    crate::finish_observability();
    exit(0);
}

/// Run — or finish, or just load — one journaled plan of a larger run
/// (`what`: a campaign of a figure set, a wave of `run --adaptive`). A
/// journal at `resume` that holds records is resumed, a complete one
/// loaded; one that is missing, or was killed before its header reached
/// the disk, holds nothing and the plan starts fresh. `eng.trial_limit`
/// is what is left of `--limit`: it is charged with the trials executed
/// now, and when it runs out before the plan is covered the process exits
/// 0 with the "partial" line, the journal at `checkpoint` resumable.
pub fn execute_journaled(
    what: &str,
    prep: &PreparedCampaign,
    eng: &mut EngineCfg,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
) -> ShardRun {
    let holds_records = |p: &PathBuf| std::fs::metadata(p).is_ok_and(|m| m.len() > 0);
    let cfg = EngineCfg {
        checkpoint,
        resume: resume.filter(holds_records),
        ..eng.clone()
    };
    let run = execute_resumable(prep, &cfg).unwrap_or_else(|e| fail(&format!("{what}: {e}")));
    if let Some(left) = &mut eng.trial_limit {
        *left -= run.records.len() - run.resumed;
    }
    if run.records.len() < prep.plan.len() {
        exit_partial(what, run.records.len(), prep.plan.len());
    }
    run
}

/// Write `table` as CSV at `path`; a failure is a runtime failure.
pub fn write_csv(table: &Table, path: &Path) {
    table
        .write_csv(path)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
    eprintln!("[campaign] wrote {}", path.display());
}

/// The vulnerability factor a campaign measures: which layer it injects
/// at and into which targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Microarchitecture level, the five storage structures.
    Avf,
    /// Software level, the standard destination-value kinds.
    Svf,
    /// Software level, arbitrary architectural registers (`.pvf`).
    Pvf,
}

impl Metric {
    pub fn layer(self) -> Layer {
        match self {
            Metric::Avf => Layer::Uarch,
            Metric::Svf | Metric::Pvf => Layer::Sw,
        }
    }
}

/// What determines a campaign's records, given the run's sample sizes,
/// seed and watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    pub app: &'static str,
    pub metric: Metric,
    pub hardened: bool,
    pub pattern: FaultPattern,
    pub sms: u32,
}

impl Key {
    /// The campaign of (`app`, `metric`, variant) at the run's own
    /// `--fault-model` and `--sms`.
    pub fn of(cfg: &CampaignCfg, app: &'static str, metric: Metric, hardened: bool) -> Key {
        Key {
            app,
            metric,
            hardened,
            pattern: cfg.pattern,
            sms: cfg.gpu.num_sms,
        }
    }

    /// `<app>.<uarch|sw>.<base|tmr>`, then a suffix for each thing that
    /// differs from the standard campaign at the run's flags: `.pvf`,
    /// `.<pattern>`, `.sms<k>`. The campaign's name in the manifest and
    /// the stem of its journal file.
    pub fn name(&self, cfg: &CampaignCfg) -> String {
        let layer = self.metric.layer().label();
        let mut name = format!("{}.{layer}.{}", self.app, variant_label(self.hardened));
        if self.metric == Metric::Pvf {
            name.push_str(".pvf");
        }
        if self.pattern != cfg.pattern {
            name.push_str(&format!(".{}", self.pattern.label()));
        }
        if self.sms != cfg.gpu.num_sms {
            name.push_str(&format!(".sms{}", self.sms));
        }
        name
    }

    /// Run order: application by application in suite order, and within
    /// one the keys that share a captures handle next to each other.
    fn order(&self) -> (Option<usize>, bool, Metric, u32, Option<usize>) {
        let app = all_benchmarks().iter().position(|b| b.name() == self.app);
        let pattern = FaultPattern::ALL.iter().position(|&p| p == self.pattern);
        (app, self.hardened, self.metric, self.sms, pattern)
    }
}

/// A campaign's assembled result.
pub enum Assembled {
    /// With the golden run the campaign was planned against (Figure 3's
    /// utilization profile).
    Avf(UarchAppResult, Arc<GoldenRun>),
    Svf(SvfAppResult),
    Pvf(PvfAppResult),
}

impl Assembled {
    /// The result of a [`Metric::Avf`] campaign, with its golden run.
    pub fn avf(&self) -> (&UarchAppResult, &Arc<GoldenRun>) {
        match self {
            Assembled::Avf(result, golden) => (result, golden),
            _ => panic!("not an AVF campaign"),
        }
    }

    /// The result of a [`Metric::Svf`] campaign.
    pub fn svf(&self) -> &SvfAppResult {
        match self {
            Assembled::Svf(result) => result,
            _ => panic!("not an SVF campaign"),
        }
    }

    /// The result of a [`Metric::Pvf`] campaign.
    pub fn pvf(&self) -> &PvfAppResult {
        match self {
            Assembled::Pvf(result) => result,
            _ => panic!("not a PVF campaign"),
        }
    }
}

/// One campaign of this invocation: its result, what the manifest records
/// of it, and what this invocation spent on it.
pub struct Campaign {
    pub key: Key,
    pub name: String,
    pub result: Assembled,
    pub trials: usize,
    pub plan_fp: u64,
    pub records_fp: u64,
    /// Trials this invocation executed; the rest came from the journal.
    pub executed: usize,
    /// Wall seconds: golden run (unless the handle was shared) + plan +
    /// execute (or load) + assemble.
    pub wall_s: f64,
}

pub struct Driver<'a> {
    cfg: CampaignCfg,
    /// Backend and flush interval of every campaign, and as `trial_limit`
    /// what is left of `--limit`: the new trials this invocation may still
    /// execute. The journal paths are filled in per campaign.
    eng: EngineCfg,
    journals: PathBuf,
    /// The applications campaigns may be asked for (`--apps`).
    benches: &'a [Box<dyn Benchmark>],
    captures: Option<Arc<AppCaptures<'a>>>,
    done: Vec<Campaign>,
}

impl<'a> Driver<'a> {
    /// A driver for a run at flags `cfg`, journaling under
    /// `dir/journal/`. `eng` carries the backend, the flush interval and
    /// `--limit`.
    pub fn new(
        cfg: &CampaignCfg,
        eng: EngineCfg,
        dir: &Path,
        benches: &'a [Box<dyn Benchmark>],
    ) -> Self {
        Driver {
            cfg: cfg.clone(),
            eng,
            journals: dir.join("journal"),
            benches,
            captures: None,
            done: Vec::new(),
        }
    }

    /// Every campaign run (or loaded) so far, in run order.
    pub fn campaigns(&self) -> &[Campaign] {
        &self.done
    }

    /// Run every key of `keys` that names one of the driver's
    /// applications, each once, in [`Key::order`].
    pub fn run_all(&mut self, mut keys: Vec<Key>) {
        keys.retain(|k| self.benches.iter().any(|b| b.name() == k.app));
        keys.sort_by_cached_key(Key::order);
        keys.dedup();
        for key in &keys {
            self.run(key);
        }
    }

    /// Run (or finish, or load) the campaign `key` names — once per
    /// driver — and assemble its result. Exits 0 with a "partial" line
    /// when `--limit` ran out first.
    pub fn run(&mut self, key: &Key) -> &Campaign {
        let name = key.name(&self.cfg);
        eprintln!("[campaign] {name} ...");
        let t0 = Instant::now();
        let bench = (self.benches.iter())
            .find(|b| b.name() == key.app)
            .expect("a key names one of the driver's applications")
            .as_ref();
        let cfg = CampaignCfg {
            gpu: GpuConfig::volta_scaled(key.sms),
            pattern: key.pattern,
            ..self.cfg.clone()
        };
        let layer = key.metric.layer();
        let held = self.captures.take();
        let captures = match held.filter(|c| c.is_for(bench, &cfg.gpu, layer, key.hardened)) {
            Some(shared) => shared,
            // The previous handle is dropped by now: one at a time.
            None => AppCaptures::new(bench, &cfg.gpu, layer, key.hardened),
        };
        self.captures = Some(captures.clone());
        let prep = match key.metric {
            Metric::Avf => plan_uarch(&captures, &cfg, &HwStructure::ALL),
            Metric::Svf => plan_sw(&captures, &cfg, &SVF_KINDS),
            Metric::Pvf => plan_sw(&captures, &cfg, &[SwFaultKind::ArchState]),
        };
        let journal = self.journals.join(format!("{name}.jsonl"));
        let run = execute_journaled(
            &name,
            &prep,
            &mut self.eng,
            Some(journal.clone()),
            Some(journal),
        );
        let records = &run.records;
        let result = match key.metric {
            Metric::Avf => {
                assemble_uarch(&prep, records).map(|r| Assembled::Avf(r, prep.golden.clone()))
            }
            Metric::Svf => assemble_sw(&prep, records).map(Assembled::Svf),
            Metric::Pvf => assemble_pvf(&prep, records).map(Assembled::Pvf),
        }
        .unwrap_or_else(|e| fail(&format!("{name}: {e}")));
        self.done.push(Campaign {
            key: key.clone(),
            name,
            result,
            trials: prep.plan.len(),
            plan_fp: prep.plan.fingerprint(),
            records_fp: records_fingerprint(records),
            executed: records.len() - run.resumed,
            wall_s: t0.elapsed().as_secs_f64(),
        });
        self.done.last().expect("just pushed")
    }
}
