//! The journaled campaign driver: the one piece of code that runs a suite
//! campaign for a file under `results/`.
//!
//! A campaign is named by its [`Key`] — what, besides the run's seed,
//! determines its records: application, targets, variant, fault
//! pattern, GPU size and trials per stratum — and journaled at
//! `DIR/journal/<name>.jsonl` in the checkpoint format, `<name>` derived
//! from the key ([`Key::name`]), under the one journal rule of
//! [`execute_resumable`]: a killed run re-invoked with the same command
//! line finishes what is missing, and a complete journal is loaded, not
//! re-simulated — whichever figure set (`campaign paper`, `campaign
//! extensions`) asked for the key first. One handle
//! ([`AppCaptures`]) lives at a time, reused by consecutive keys of the
//! same (application, GPU, layer, variant), so memory is one
//! application's and a fault-pattern sweep pays for one golden run and
//! one capture pass.

use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use kernels::{all_benchmarks, Benchmark};
use relia::plan::{variant_label, Layer, PreparedCampaign};
use relia::{
    assemble, execute_resumable, plan_sw, plan_uarch, records_fingerprint, shard_trials,
    AppCaptures, CampaignCfg, EngineCfg, ShardRun, StrataRecords, Table, SVF_KINDS,
};
use stat::CLASS_KINDS;
use vgpu_sim::{FaultPattern, GpuConfig, HwStructure, SwFaultKind};

/// Runtime failure: the request was well-formed but executing it failed.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

/// `--limit` ran out before `what` (a campaign of a figure set, a wave of
/// `run --adaptive`, the shard of `run`) was covered: say so and stop,
/// successfully — the journal is resumable.
fn exit_partial(what: &str, done: usize, total: usize) -> ! {
    println!("{what}: {done}/{total} trials classified (partial — resume to finish)");
    crate::finish_observability();
    exit(0);
}

/// Run — or finish, or just load — one journaled shard of a plan (`what`:
/// a campaign of a figure set, a wave of `run --adaptive`, the shard of
/// `run`), journaled at `eng.checkpoint` under
/// [`execute_resumable`]'s one rule. `eng.trial_limit` is what is left of
/// `--limit`: it is charged with the trials executed now, and when it
/// runs out before the shard is covered the process exits 0 with the
/// "partial" line, the journal resumable. A journal of another plan or
/// shard is a runtime failure, the file left as it is.
pub fn execute_journaled(what: &str, prep: &PreparedCampaign, eng: &mut EngineCfg) -> ShardRun {
    let run = execute_resumable(prep, eng).unwrap_or_else(|e| fail(&format!("{what}: {e}")));
    if let Some(left) = &mut eng.trial_limit {
        *left -= run.records.len() - run.resumed;
    }
    let my = shard_trials(prep.plan.len(), eng.shards, eng.shard_index).len();
    if run.records.len() < my {
        exit_partial(what, run.records.len(), my);
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

/// Figure 12's pair: a source-register flip that lasts one instruction
/// (instantaneous) and one every later reader sees (reuse-replicating).
pub const SRC_KINDS: [SwFaultKind; 2] = [SwFaultKind::SrcTransient, SwFaultKind::SrcPersistent];

/// What a campaign injects into, declared in run order; the layer
/// follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Targets {
    /// Microarchitecture level, the five storage structures (AVF).
    Structures,
    /// Destination values (SVF); this and every later variant is
    /// software level.
    Svf,
    /// Arbitrary architectural registers (PVF).
    Pvf,
    /// Figure 12's source-register pair.
    Src,
    /// The two-level model's instruction classes.
    Classes,
}

impl Targets {
    pub fn layer(self) -> Layer {
        match self {
            Targets::Structures => Layer::Uarch,
            _ => Layer::Sw,
        }
    }

    /// The software fault kinds injected; none at the microarchitecture
    /// level.
    pub fn kinds(self) -> &'static [SwFaultKind] {
        match self {
            Targets::Structures => &[],
            Targets::Svf => &SVF_KINDS,
            Targets::Pvf => &[SwFaultKind::ArchState],
            Targets::Src => &SRC_KINDS,
            Targets::Classes => &CLASS_KINDS,
        }
    }

    /// What the targets add to the campaign's name.
    pub fn suffix(self) -> &'static str {
        match self {
            Targets::Structures | Targets::Svf => "",
            Targets::Pvf => ".pvf",
            Targets::Src => ".src",
            Targets::Classes => ".classes",
        }
    }
}

/// What determines a campaign's records, given the run's seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    pub app: &'static str,
    pub targets: Targets,
    pub hardened: bool,
    pub pattern: FaultPattern,
    pub sms: u32,
    /// Trials per (kernel, target).
    pub n: usize,
}

impl Key {
    /// The campaign of (`app`, `targets`, variant) at the run's own
    /// `--fault-model`, `--sms` and `--n-uarch` / `--n-sw`.
    pub fn of(cfg: &CampaignCfg, app: &'static str, targets: Targets, hardened: bool) -> Key {
        Key {
            app,
            targets,
            hardened,
            pattern: cfg.pattern,
            sms: cfg.gpu.num_sms,
            n: cfg.n(targets.layer()),
        }
    }

    /// `<app>.<uarch|sw>.<base|tmr>`, then a suffix for each thing that
    /// differs from the standard campaign at the run's flags: the target
    /// set's (`.pvf`, `.src`, `.classes`), `.<pattern>`, `.sms<k>`,
    /// `.n<n>`. The campaign's name in the manifest and the stem of its
    /// journal file.
    pub fn name(&self, cfg: &CampaignCfg) -> String {
        let layer = self.targets.layer();
        let variant = variant_label(self.hardened);
        let suffix = self.targets.suffix();
        let mut name = format!("{}.{}.{variant}{suffix}", self.app, layer.label());
        if self.pattern != cfg.pattern {
            name.push_str(&format!(".{}", self.pattern.label()));
        }
        if self.sms != cfg.gpu.num_sms {
            name.push_str(&format!(".sms{}", self.sms));
        }
        if self.n != cfg.n(layer) {
            name.push_str(&format!(".n{}", self.n));
        }
        name
    }

    /// Run order: application by application in suite order, and within
    /// one the keys that share a captures handle next to each other.
    fn order(&self) -> (Option<usize>, bool, Targets, u32, Option<usize>, usize) {
        let app = all_benchmarks().iter().position(|b| b.name() == self.app);
        let pattern = FaultPattern::ALL.iter().position(|&p| p == self.pattern);
        (app, self.hardened, self.targets, self.sms, pattern, self.n)
    }
}

/// One campaign of this invocation: its result, what the manifest records
/// of it, and what this invocation spent on it.
pub struct Campaign {
    pub key: Key,
    pub name: String,
    /// The assembled result, with the golden run and GPU it was planned
    /// against.
    pub result: StrataRecords,
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
    /// Backend of every campaign, and as `trial_limit` what is left of
    /// `--limit`: the new trials this invocation may still execute. The
    /// journal path is filled in per campaign.
    eng: EngineCfg,
    journals: PathBuf,
    /// The applications campaigns may be asked for (`--apps`).
    benches: &'a [Box<dyn Benchmark>],
    captures: Option<Arc<AppCaptures<'a>>>,
    done: Vec<Campaign>,
}

impl<'a> Driver<'a> {
    /// A driver for a run at flags `cfg`, journaling under
    /// `dir/journal/`. `eng` carries the backend and `--limit`.
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
    /// applications, each once, in `Key::order`.
    pub fn run_all(&mut self, mut keys: Vec<Key>) {
        keys.retain(|k| self.benches.iter().any(|b| b.name() == k.app));
        keys.sort_by_cached_key(Key::order);
        keys.dedup();
        for key in &keys {
            self.run(key);
        }
    }

    /// Run (or finish, or load) the campaign `key` names and assemble its
    /// result. Exits 0 with a "partial" line when `--limit` ran out first.
    fn run(&mut self, key: &Key) {
        let name = key.name(&self.cfg);
        eprintln!("[campaign] {name} ...");
        let t0 = Instant::now();
        let bench = (self.benches.iter())
            .find(|b| b.name() == key.app)
            .expect("a key names one of the driver's applications")
            .as_ref();
        let layer = key.targets.layer();
        let mut cfg = CampaignCfg {
            gpu: GpuConfig::volta_scaled(key.sms),
            pattern: key.pattern,
            ..self.cfg.clone()
        };
        match layer {
            Layer::Uarch => cfg.n_uarch = key.n,
            Layer::Sw => cfg.n_sw = key.n,
        }
        let held = self.captures.take();
        let captures = match held.filter(|c| c.is_for(bench, &cfg.gpu, layer, key.hardened)) {
            Some(shared) => shared,
            // The previous handle is dropped by now: one at a time.
            None => AppCaptures::new(bench, &cfg.gpu, layer, key.hardened),
        };
        self.captures = Some(captures.clone());
        let prep = match key.targets {
            Targets::Structures => plan_uarch(&captures, &cfg, &HwStructure::ALL),
            sw => plan_sw(&captures, &cfg, sw.kinds()),
        };
        self.eng.checkpoint = Some(self.journals.join(format!("{name}.jsonl")));
        let run = execute_journaled(&name, &prep, &mut self.eng);
        let records = &run.records;
        let result = assemble(&prep, records).unwrap_or_else(|e| fail(&format!("{name}: {e}")));
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and the run order of an application's five campaigns at
    /// the run's own flags. A name is a journal under `DIR/journal/` and
    /// the order is `wall.csv`'s: renaming or reordering a variant would
    /// orphan every journal of an existing results directory.
    #[test]
    fn journal_names_and_run_order_are_frozen() {
        let cfg = CampaignCfg::new(2, 2, 7);
        let targets = [
            Targets::Classes,
            Targets::Src,
            Targets::Structures,
            Targets::Pvf,
            Targets::Svf,
        ];
        let mut keys = targets.map(|t| Key::of(&cfg, "VA", t, false));
        keys.sort_by_cached_key(Key::order);
        let names = keys.each_ref().map(|k| k.name(&cfg));
        let expected = [
            "VA.uarch.base",
            "VA.sw.base",
            "VA.sw.base.pvf",
            "VA.sw.base.src",
            "VA.sw.base.classes",
        ];
        assert_eq!(names, expected);
        let ranks = keys.each_ref().map(|k| k.order().2 as usize);
        assert_eq!(ranks, [0, 1, 2, 3, 4]);
    }
}
