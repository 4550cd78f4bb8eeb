//! The one flag table behind the `campaign` command line.
//!
//! Each flag a subcommand accepts is declared exactly once in [`FLAGS`]:
//! its name, what follows it on the command line (with the range check
//! the value must pass), the commands that accept it, and its help line.
//! [`parse`] checks a command line against the table, [`usage`] renders
//! `--help` from it, and the typed projections on [`Parsed`] turn the
//! checked values into the structures the engine takes — above all the
//! campaign description, [`relia::CampaignSpec`]. Every error is a usage
//! error: one line on stderr, exit 2.

use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::process::exit;

use kernels::{all_benchmarks, Benchmark};
use relia::plan::Layer;
use relia::{parse_structures, scaled_gpu, CampaignCfg, CampaignSpec, FastForward, MAX_N};
use stat::AdaptiveCfg;
use vgpu_sim::{FaultPattern, GpuConfig};

/// Campaign seed when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 0xC0FF_EE00;

/// A command line that is checked against [`FLAGS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    Run,
    Merge,
    /// `campaign paper` and `campaign extensions`: every campaign behind
    /// a figure set, once.
    Paper,
    /// `campaign golden`: one fault-free run, per launch.
    Golden,
}

impl Cmd {
    pub const ALL: [Cmd; 4] = [Cmd::Run, Cmd::Merge, Cmd::Paper, Cmd::Golden];

    const fn bit(self) -> u16 {
        1 << self as u16
    }

    /// `campaign` subcommand name (`a|b` when two subcommands share the
    /// flags).
    pub fn subcommand(self) -> &'static str {
        match self {
            Cmd::Run => "run",
            Cmd::Merge => "merge",
            Cmd::Paper => "paper|extensions",
            Cmd::Golden => "golden",
        }
    }

    /// What the non-flag arguments are, for the commands that take any.
    fn positional(self) -> Option<&'static str> {
        match self {
            Cmd::Merge => Some("SHARD.jsonl..."),
            _ => None,
        }
    }
}

const RUN: u16 = Cmd::Run.bit();
const MERGE: u16 = Cmd::Merge.bit();
const PAPER: u16 = Cmd::Paper.bit();
const GOLDEN: u16 = Cmd::Golden.bit();
/// The commands that rebuild a plan from a campaign description.
const PLAN: u16 = RUN | MERGE;

/// What follows a flag on the command line, with its placeholder in the
/// usage text and the check the value must pass.
pub enum Arg {
    /// Nothing: the flag's presence is the information.
    Switch,
    /// Free text: a name, a path, a comma-separated list.
    Text(&'static str),
    /// An unsigned integer inside the range.
    Num(&'static str, RangeInclusive<u64>),
    /// A floating-point number.
    Real(&'static str),
    /// One of a fixed set of labels.
    Choice(fn() -> Vec<&'static str>),
}

pub struct Flag {
    pub name: &'static str,
    pub arg: Arg,
    /// Bit set of the [`Cmd`]s that accept the flag.
    cmds: u16,
    pub help: &'static str,
}

const ANY: RangeInclusive<u64> = 0..=u64::MAX;
const POSITIVE: RangeInclusive<u64> = 1..=u64::MAX;
/// `--n-uarch` / `--n-sw`: the bound [`CampaignSpec::validate`] puts on `--n`.
const SAMPLE: RangeInclusive<u64> = 0..=MAX_N as u64;

fn layers() -> Vec<&'static str> {
    vec![Layer::Uarch.label(), Layer::Sw.label()]
}

fn fault_models() -> Vec<&'static str> {
    FaultPattern::ALL.iter().map(|p| p.label()).collect()
}

fn backends() -> Vec<&'static str> {
    FastForward::SELECTABLE.iter().map(|b| b.label()).collect()
}

const fn flag(name: &'static str, arg: Arg, cmds: u16, help: &'static str) -> Flag {
    Flag {
        name,
        arg,
        cmds,
        help,
    }
}

/// Every flag of `campaign`, declared once.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    // The campaign description (relia::CampaignSpec).
    flag("--app", Arg::Text("NAME"), PLAN | GOLDEN, "application to inject into (required)"),
    flag("--layer", Arg::Choice(layers), PLAN | GOLDEN, "injection layer: AVF (uarch, default) or SVF (sw)"),
    flag("--n", Arg::Num("N", ANY), PLAN, "injections per (kernel, target); default 100"),
    flag("--n-uarch", Arg::Num("N", SAMPLE), PAPER, "injections per (kernel, structure) in AVF campaigns; default 250"),
    flag("--n-sw", Arg::Num("N", SAMPLE), PAPER, "injections per kernel and fault kind in SVF campaigns; default 500"),
    flag("--seed", Arg::Num("S", ANY), PLAN | PAPER, "campaign seed; every trial derives from it"),
    flag("--sms", Arg::Num("N", 0..=u32::MAX as u64), PLAN | PAPER | GOLDEN, "SM count of the simulated GPU; default 4"),
    flag("--hardened", Arg::Switch, PLAN | GOLDEN, "the TMR-hardened variant of the application"),
    flag("--structures", Arg::Text("RF,SMEM,.."), PLAN, "uarch structure subset (SIMT, SCHED: stuck-at models only)"),
    flag("--fault-model", Arg::Choice(fault_models), PLAN | PAPER, "fault pattern of every trial; default single-bit"),
    flag("--backend", Arg::Choice(backends), RUN | PAPER, "trial engine; default replay, which skips dead faults; records are identical"),
    // Output.
    flag("--csv", Arg::Text("PATH"), PLAN, "also write the result table as CSV"),
    flag("--events", Arg::Text("PATH"), PLAN | PAPER, "JSONL event sink; turns metrics on (docs/OBSERVABILITY.md)"),
    // Sharding and journals.
    flag("--shards", Arg::Num("N", POSITIVE), RUN, "strided shards the plan is split into"),
    flag("--shard-index", Arg::Num("I", ANY), RUN, "this process's shard, 0-based"),
    flag("--checkpoint", Arg::Text("PATH"), RUN, "journal of the shard (adaptive: PATH.waveW); one that holds trials is resumed"),
    flag("--limit", Arg::Num("L", ANY), RUN | PAPER, "stop after L new trials, the journal resumable (run: needs --checkpoint)"),
    // CI-driven sizing (docs/TWOLEVEL.md).
    flag("--adaptive", Arg::Switch, RUN, "size each stratum by CI half-width instead of --n"),
    flag("--ci-target", Arg::Real("X"), RUN, "adaptive: CI half-width to reach, in (0, 1)"),
    flag("--wave-size", Arg::Num("N", ANY), RUN, "adaptive: trials per unconverged stratum per wave"),
    flag("--max-trials", Arg::Num("N", ANY), RUN, "adaptive: trial cap per stratum"),
    // Figure sets.
    flag("--out-dir", Arg::Text("DIR"), PAPER, "CSVs + journal/ under DIR (required)"),
    flag("--apps", Arg::Text("VA,NW,.."), PAPER, "suite subset"),
];

/// CLI/validation error: one line on stderr, exit 2.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

fn lookup(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.name == name)
}

impl Arg {
    fn meta(&self) -> Option<String> {
        match self {
            Arg::Switch => None,
            Arg::Text(m) | Arg::Num(m, _) | Arg::Real(m) => Some(m.to_string()),
            Arg::Choice(labels) => Some(labels().join("|")),
        }
    }

    /// Whether `v` is an acceptable value for the flag called `name`.
    fn check(&self, name: &str, v: &str) -> Result<(), String> {
        match self {
            Arg::Switch | Arg::Text(_) => Ok(()),
            Arg::Num(_, range) => match v.parse::<u64>() {
                Ok(n) if range.contains(&n) => Ok(()),
                Ok(n) if *range.start() == 1 && n == 0 => Err(format!("{name} must be positive")),
                Ok(n) => Err(format!(
                    "{name} must be {}..={}, got {n}",
                    range.start(),
                    range.end()
                )),
                Err(_) => Err(format!("{name} takes a number, got {v:?}")),
            },
            Arg::Real(_) => v
                .parse::<f64>()
                .map(|_| ())
                .map_err(|_| format!("{name} takes a number, got {v:?}")),
            Arg::Choice(labels) => {
                let labels = labels();
                if labels.contains(&v) {
                    Ok(())
                } else {
                    Err(format!(
                        "{name} must be one of {}, got {v:?}",
                        labels.join(", ")
                    ))
                }
            }
        }
    }
}

/// The `--help` text of one command, generated from [`FLAGS`].
pub fn usage(cmd: Cmd) -> String {
    let mut out = format!("usage: campaign {} [options]", cmd.subcommand());
    if let Some(what) = cmd.positional() {
        out.push_str(&format!(" {what}"));
    }
    out.push('\n');
    for f in FLAGS.iter().filter(|f| f.cmds & cmd.bit() != 0) {
        let left = match f.arg.meta() {
            Some(m) => format!("{} {m}", f.name),
            None => f.name.to_string(),
        };
        // Long choice lists push the help line to the next row.
        if left.len() > 30 {
            out.push_str(&format!("  {left}\n  {:30}  {}\n", "", f.help));
        } else {
            out.push_str(&format!("  {left:30}  {}\n", f.help));
        }
    }
    out.push_str("  --help, -h                      print this text\n");
    out
}

/// A command line checked against [`FLAGS`]: every flag is declared,
/// accepted by this command, and carries a value that passed its check.
pub struct Parsed {
    values: Vec<(&'static str, String)>,
    /// Non-flag arguments, for the commands that take any.
    pub positional: Vec<String>,
}

/// Check `args` (without the program and subcommand names) against the
/// table. `--help` is not handled here; see [`parse_or_exit`].
pub fn parse(cmd: Cmd, args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        values: Vec::new(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            if cmd.positional().is_none() {
                return Err(format!("unexpected argument {a:?}"));
            }
            parsed.positional.push(a.clone());
            continue;
        }
        let f = lookup(a).ok_or_else(|| format!("unknown option {a}"))?;
        if f.cmds & cmd.bit() == 0 {
            return Err(format!("option {a} does not apply to this command"));
        }
        let value = match f.arg {
            Arg::Switch => String::new(),
            _ => it
                .next()
                .ok_or_else(|| format!("option {a} requires a value"))?
                .clone(),
        };
        f.arg.check(f.name, &value)?;
        parsed.values.push((f.name, value));
    }
    Ok(parsed)
}

/// [`parse`] for a subcommand: `--help`/`-h` prints the usage text
/// and exits 0, a usage error exits 2, and a command line that parses
/// turns observability on from its `--events`
/// ([`crate::init_observability`]).
pub fn parse_or_exit(cmd: Cmd, args: &[String]) -> Parsed {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage(cmd));
        exit(0);
    }
    let parsed = parse(cmd, args).unwrap_or_else(|e| die(&e));
    crate::init_observability(parsed.text("--events"));
    parsed
}

impl Parsed {
    /// The value of `name` as given last, if it was given at all.
    pub fn text(&self, name: &str) -> Option<&str> {
        debug_assert!(lookup(name).is_some(), "{name} is not in the flag table");
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.text(name).map(PathBuf::from)
    }

    pub fn num<T: TryFrom<u64>>(&self, name: &str) -> Option<T> {
        let v: u64 = self.text(name)?.parse().expect("checked by the flag table");
        Some(T::try_from(v).unwrap_or_else(|_| die(&format!("{name} {v} is out of range"))))
    }

    pub fn real(&self, name: &str) -> Option<f64> {
        self.text(name)
            .map(|v| v.parse().expect("checked by the flag table"))
    }

    /// The value of an [`Arg::Choice`] flag, or `default` when absent.
    fn label<T>(&self, name: &str, default: T, from_label: fn(&str) -> Option<T>) -> T {
        self.text(name).map_or(default, |l| {
            from_label(l).expect("checked by the flag table")
        })
    }

    fn fault_model(&self) -> FaultPattern {
        self.label(
            "--fault-model",
            FaultPattern::SingleBit,
            FaultPattern::from_label,
        )
    }

    /// `--backend`; replay when absent. The one place the command line's
    /// default trial path lives: records are identical on every path, and
    /// replay regenerates the paper fastest.
    pub fn backend(&self) -> FastForward {
        self.label("--backend", FastForward::Replay, FastForward::from_label)
    }

    fn sms(&self) -> u32 {
        self.num("--sms").unwrap_or(GpuConfig::default().num_sms)
    }

    /// The simulated GPU `--sms` asks for (4 SMs when absent).
    pub fn gpu(&self) -> GpuConfig {
        scaled_gpu(self.sms()).unwrap_or_else(|e| die(&e))
    }

    /// The campaign description the command line gives, range-checked by
    /// [`CampaignSpec::validate`], with the application it names.
    pub fn campaign(&self) -> (CampaignSpec, Box<dyn Benchmark>) {
        let mut spec = CampaignSpec {
            app: self
                .text("--app")
                .unwrap_or_else(|| die("this command requires --app NAME"))
                .to_string(),
            layer: self.label("--layer", Layer::Uarch, Layer::from_label),
            n: self.num("--n").unwrap_or(100),
            seed: self.num("--seed").unwrap_or(DEFAULT_SEED),
            sms: self.sms(),
            hardened: self.has("--hardened"),
            structures: self
                .text("--structures")
                .map(|s| parse_structures(s).unwrap_or_else(|e| die(&e))),
            fault_model: self.fault_model(),
            backend: self.backend(),
            wave: None,
        };
        spec.validate().unwrap_or_else(|e| die(&e));
        let bench = spec.find_bench().unwrap_or_else(|e| die(&e));
        spec.app = bench.name().to_string();
        (spec, bench)
    }

    /// The configuration of the fixed-size campaigns of the figure sets.
    /// Defaults are sized so every figure regenerates in minutes on a
    /// laptop; pass larger counts to tighten confidence intervals (the
    /// paper used 3,000 injections per target at ±2.35%, 99% confidence),
    /// up to [`MAX_N`].
    pub fn campaign_cfg(&self, default_uarch: usize, default_sw: usize) -> CampaignCfg {
        CampaignCfg {
            gpu: self.gpu(),
            pattern: self.fault_model(),
            ..CampaignCfg::new(
                self.num("--n-uarch").unwrap_or(default_uarch),
                self.num("--n-sw").unwrap_or(default_sw),
                self.num("--seed").unwrap_or(DEFAULT_SEED),
            )
        }
    }

    /// The adaptive sizing flags over the given defaults, rejecting any
    /// configuration that cannot drive a terminating campaign.
    pub fn adaptive_cfg(&self, ci_target: f64, wave_size: usize, max_trials: usize) -> AdaptiveCfg {
        let acfg = AdaptiveCfg::new(
            self.real("--ci-target").unwrap_or(ci_target),
            self.num("--wave-size").unwrap_or(wave_size),
            self.num("--max-trials").unwrap_or(max_trials),
        );
        acfg.validate().unwrap_or_else(|e| die(&e));
        acfg
    }

    /// `--apps` as a suite subset in canonical (figure) order, whatever
    /// order the list names them in; the whole suite when absent. A list
    /// that names no application is a usage error.
    pub fn benches(&self) -> Vec<Box<dyn Benchmark>> {
        let all = all_benchmarks();
        let Some(list) = self.text("--apps") else {
            return all;
        };
        let wanted: Vec<&str> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if wanted.is_empty() {
            die(&format!("--apps {list:?} names no application"));
        }
        let named = |b: &dyn Benchmark, w: &str| b.name().eq_ignore_ascii_case(w);
        for w in &wanted {
            if !all.iter().any(|b| named(b.as_ref(), w)) {
                let names: Vec<&str> = all.iter().map(|b| b.name()).collect();
                die(&format!(
                    "unknown app {w:?}; available: {}",
                    names.join(", ")
                ));
            }
        }
        all.into_iter()
            .filter(|b| wanted.iter().any(|w| named(b.as_ref(), w)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value the flag's own check accepts.
    fn sample(f: &Flag) -> Option<String> {
        match &f.arg {
            Arg::Switch => None,
            Arg::Text(_) => Some("x".into()),
            Arg::Num(_, range) => Some(range.start().to_string()),
            Arg::Real(_) => Some("0.5".into()),
            Arg::Choice(labels) => Some(labels()[0].to_string()),
        }
    }

    /// The flag names a usage text lists.
    fn listed(usage: &str) -> Vec<&str> {
        usage
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .filter(|w| w.starts_with("--") && *w != "--help,")
            .collect()
    }

    #[test]
    fn every_flag_is_declared_once_and_used_somewhere() {
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(f.name.starts_with("--"), "{}", f.name);
            assert!(f.cmds != 0, "{} applies to no command", f.name);
            assert!(!f.help.is_empty(), "{} has no help line", f.name);
            assert!(
                FLAGS[..i].iter().all(|g| g.name != f.name),
                "{} is declared twice",
                f.name
            );
        }
    }

    #[test]
    fn help_lists_exactly_the_flags_the_parser_accepts() {
        for cmd in Cmd::ALL {
            let text = usage(cmd);
            let listed = listed(&text);
            assert!(!listed.is_empty(), "{cmd:?}");
            for f in FLAGS {
                let mut args = vec![f.name.to_string()];
                args.extend(sample(f));
                let accepted = parse(cmd, &args).is_ok();
                assert_eq!(
                    accepted,
                    listed.contains(&f.name),
                    "{cmd:?} {}: listed in --help iff accepted",
                    f.name
                );
            }
            // All of them together, as one command line.
            let all: Vec<String> = FLAGS
                .iter()
                .filter(|f| listed.contains(&f.name))
                .flat_map(|f| std::iter::once(f.name.to_string()).chain(sample(f)))
                .collect();
            let parsed = parse(cmd, &all).unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
            assert_eq!(parsed.values.len(), listed.len());
        }
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn values_are_checked_against_the_table() {
        for bad in [
            "--n many",
            "--n -1",
            "--n",
            "--layer quantum",
            "--fault-model bogus",
            "--backend quantum",
            "--shards 0",
            "--bogus-flag 1",
            "--out-dir x",
            "stray",
        ] {
            assert!(parse(Cmd::Run, &args(bad)).is_err(), "run {bad}");
        }
        let ok = parse(
            Cmd::Run,
            &args("--app va --n 3 --n 5 --hardened --ci-target 0.25"),
        )
        .unwrap();
        assert_eq!(ok.num::<usize>("--n"), Some(5), "the last value wins");
        assert_eq!(ok.real("--ci-target"), Some(0.25));
        assert!(ok.has("--hardened") && !ok.has("--adaptive"));
        assert_eq!(ok.text("--app"), Some("va"));
        let merge = parse(Cmd::Merge, &args("--app VA a.jsonl b.jsonl")).unwrap();
        assert_eq!(merge.positional, ["a.jsonl", "b.jsonl"]);
    }
}
