//! Output verification: every campaign the ledger times is checked
//! against the slow oracle (`FastForward::disabled()`, which simulates
//! every trial from cycle 0 with no snapshot, trace or convergence exit).
//!
//! * Campaigns of the default seed are pinned: `expected/seed7.json`
//!   holds, per campaign, the `records_fingerprint` the oracle produced
//!   (`ledger pin` regenerates it) and, per application, a fingerprint of
//!   the golden run's per-launch `Stats` and output.
//! * Any other campaign re-executes a 1-in-16 strided slice of its plan
//!   on the oracle, outside timing, and compares record for record.

use kernels::{all_benchmarks, Benchmark, GoldenRun};
use relia::{
    execute_trials_with, prepare_sw_campaign, prepare_uarch_campaign, records_fingerprint,
    shard_trials, CampaignCfg, FastForward, Layer, PreparedCampaign, TrialRecord,
};
use stat::{run_adaptive, uarch_targets, AdaptiveCfg};

use crate::json::J;
use crate::workload::{Sizes, DEFAULT_SEED};

/// The pin file, compiled in so the benchmark needs no path to find it
/// (editing it triggers a rebuild on the next `run.sh`).
const PIN_TEXT: &str = include_str!("../expected/seed7.json");

/// Stride of the oracle slice (`shard_trials(len, 16, 0)`).
const ORACLE_STRIDE: usize = 16;

#[derive(Debug, Clone, PartialEq)]
struct FixedPin {
    layer: Layer,
    app: String,
    n: usize,
    seed: u64,
    fingerprint: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct AdaptivePin {
    app: String,
    ci_target: f64,
    wave_size: usize,
    cap: usize,
    seed: u64,
    fingerprint: u64,
    waves: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct GoldenPin {
    app: String,
    layer: Layer,
    fingerprint: u64,
}

/// Oracle results pinned for the default seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pins {
    fixed: Vec<FixedPin>,
    adaptive: Vec<AdaptivePin>,
    golden: Vec<GoldenPin>,
}

fn hex(v: u64) -> J {
    J::Str(format!("{v:#018x}"))
}

fn unhex(node: &obs::JsonNode) -> Option<u64> {
    u64::from_str_radix(node.as_str()?.strip_prefix("0x")?, 16).ok()
}

impl Pins {
    /// The compiled-in pin file.
    ///
    /// # Panics
    /// Panics when the file is not what [`Pins::to_text`] writes — a
    /// damaged pin file must stop the benchmark, not disable its checks.
    pub fn embedded() -> Pins {
        Pins::parse(PIN_TEXT).expect("expected/seed7.json is malformed; regenerate with `pin`")
    }

    pub fn parse(text: &str) -> Option<Pins> {
        let doc = obs::parse_json(text)?;
        let layer = |n: &obs::JsonNode| Layer::from_label(n.get("layer")?.as_str()?);
        let mut pins = Pins::default();
        for n in doc.get("campaigns")?.as_arr()? {
            pins.fixed.push(FixedPin {
                layer: layer(n)?,
                app: n.get("app")?.as_str()?.to_string(),
                n: n.get("n")?.as_u64()? as usize,
                seed: n.get("seed")?.as_u64()?,
                fingerprint: unhex(n.get("fingerprint")?)?,
            });
        }
        for n in doc.get("adaptive")?.as_arr()? {
            pins.adaptive.push(AdaptivePin {
                app: n.get("app")?.as_str()?.to_string(),
                ci_target: n.get("ci_target")?.as_f64()?,
                wave_size: n.get("wave_size")?.as_u64()? as usize,
                cap: n.get("cap")?.as_u64()? as usize,
                seed: n.get("seed")?.as_u64()?,
                fingerprint: unhex(n.get("fingerprint")?)?,
                waves: n.get("waves")?.as_u64()?,
            });
        }
        for n in doc.get("golden")?.as_arr()? {
            pins.golden.push(GoldenPin {
                app: n.get("app")?.as_str()?.to_string(),
                layer: layer(n)?,
                fingerprint: unhex(n.get("fingerprint")?)?,
            });
        }
        Some(pins)
    }

    /// The pin file's text: one campaign per line, so a regenerated
    /// file diffs by campaign.
    pub fn to_text(&self) -> String {
        let section = |name: &str, rows: Vec<J>| {
            let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
            format!("  \"{name}\": [\n{}\n  ]", rows.join(",\n"))
        };
        let comment = J::str(
            "Slow-oracle results for the default seed; regenerate with \
             `benchmarks/run.sh pin`, never by hand.",
        );
        let campaigns = self
            .fixed
            .iter()
            .map(|p| {
                J::obj([
                    ("layer", J::str(p.layer.label())),
                    ("app", J::str(&p.app)),
                    ("n", J::Int(p.n as u64)),
                    ("seed", J::Int(p.seed)),
                    ("fingerprint", hex(p.fingerprint)),
                ])
            })
            .collect();
        let adaptive = self
            .adaptive
            .iter()
            .map(|p| {
                J::obj([
                    ("app", J::str(&p.app)),
                    ("ci_target", J::Num(p.ci_target)),
                    ("wave_size", J::Int(p.wave_size as u64)),
                    ("cap", J::Int(p.cap as u64)),
                    ("seed", J::Int(p.seed)),
                    ("fingerprint", hex(p.fingerprint)),
                    ("waves", J::Int(p.waves)),
                ])
            })
            .collect();
        let golden = self
            .golden
            .iter()
            .map(|p| {
                J::obj([
                    ("app", J::str(&p.app)),
                    ("layer", J::str(p.layer.label())),
                    ("fingerprint", hex(p.fingerprint)),
                ])
            })
            .collect();
        format!(
            "{{\n  \"comment\": {},\n{},\n{},\n{}\n}}\n",
            comment.render(),
            section("campaigns", campaigns),
            section("adaptive", adaptive),
            section("golden", golden),
        )
    }

    fn fixed(&self, prep: &PreparedCampaign<'_>) -> Option<u64> {
        let plan = &prep.plan;
        self.fixed
            .iter()
            .find(|p| {
                p.layer == plan.layer
                    && p.app == plan.app
                    && p.n == plan.n_per_target
                    && p.seed == plan.seed
            })
            .map(|p| p.fingerprint)
    }

    fn adaptive(&self, app: &str, acfg: &AdaptiveCfg, seed: u64) -> Option<&AdaptivePin> {
        self.adaptive.iter().find(|p| {
            p.app == app
                && p.ci_target == acfg.ci_target
                && p.wave_size == acfg.wave_size
                && p.cap == acfg.max_per_stratum
                && p.seed == seed
        })
    }

    pub fn has_adaptive(&self, app: &str, acfg: &AdaptiveCfg, seed: u64) -> bool {
        self.adaptive(app, acfg, seed).is_some()
    }

    /// Whether a pinned adaptive campaign reproduced the oracle's record
    /// digest and wave count.
    pub fn adaptive_matches(
        &self,
        app: &str,
        acfg: &AdaptiveCfg,
        seed: u64,
        records_fp: u64,
        waves: u64,
    ) -> bool {
        let Some(pin) = self.adaptive(app, acfg, seed) else {
            return false;
        };
        let ok = pin.fingerprint == records_fp && pin.waves == waves;
        if !ok {
            eprintln!(
                "[ledger] FAIL {app} adaptive seed {seed}: records {records_fp:#018x} in {waves} \
                 waves, oracle pinned {:#018x} in {}",
                pin.fingerprint, pin.waves
            );
        }
        ok
    }
}

/// FNV-1a over the `Debug` rendering of everything a golden run
/// produced: per-launch `Stats` (every field), the output words and the
/// total cost. A simulator-speed change must never move it.
pub fn golden_fingerprint(golden: &GoldenRun) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    };
    for r in &golden.records {
        eat(&format!("{:?}", r.stats));
    }
    eat(&format!("{:?}{}", golden.output, golden.total_cost));
    h
}

/// Records of `got` that disagree with the oracle's, by plan index.
fn mismatches(app: &str, got: &[TrialRecord], oracle: &[TrialRecord]) -> usize {
    let mut bad = 0;
    for o in oracle {
        let same = got
            .iter()
            .find(|r| r.idx == o.idx)
            .is_some_and(|r| r.outcome == o.outcome && r.ctrl == o.ctrl);
        if !same {
            if bad == 0 {
                eprintln!(
                    "[ledger] FAIL {app}: trial {} disagrees with the slow oracle ({:?})",
                    o.idx, o.outcome
                );
            }
            bad += 1;
        }
    }
    bad
}

/// Re-execute a 1-in-16 strided slice of `prep`'s plan on the slow oracle
/// and count the records of `records` that disagree (a record missing
/// from `records` disagrees).
pub fn oracle_slice(prep: &PreparedCampaign<'_>, records: &[TrialRecord]) -> usize {
    let idxs = shard_trials(prep.plan.len(), ORACLE_STRIDE, 0);
    match execute_trials_with(prep, FastForward::disabled(), &idxs, |_| Ok(())) {
        Ok(oracle) => mismatches(&prep.plan.app, records, &oracle),
        Err(e) => {
            eprintln!("[ledger] FAIL {}: oracle slice: {e}", prep.plan.app);
            idxs.len()
        }
    }
}

/// Verify one fixed-n campaign; returns how many of its trials failed.
pub fn check_fixed(
    pins: &Pins,
    prep: &PreparedCampaign<'_>,
    records: &[TrialRecord],
    fingerprint: u64,
) -> usize {
    let plan = &prep.plan;
    if records.len() != plan.len() {
        eprintln!(
            "[ledger] FAIL {}: {} records for {} planned trials",
            plan.app,
            records.len(),
            plan.len()
        );
        return plan.len() - records.len().min(plan.len());
    }
    if let Some(pin) = pins
        .golden
        .iter()
        .find(|p| p.app == plan.app && p.layer == plan.layer)
    {
        let got = golden_fingerprint(&prep.golden);
        if got != pin.fingerprint {
            eprintln!(
                "[ledger] FAIL {} {}: golden run fingerprint {got:#018x}, pinned {:#018x}",
                plan.app,
                plan.layer.label(),
                pin.fingerprint
            );
            return plan.len();
        }
    }
    match pins.fixed(prep) {
        Some(pin) if pin == fingerprint => 0,
        Some(pin) => {
            eprintln!(
                "[ledger] FAIL {} {} seed {}: records fingerprint {fingerprint:#018x}, oracle \
                 pinned {pin:#018x}",
                plan.app,
                plan.layer.label(),
                plan.seed
            );
            plan.len()
        }
        None => oracle_slice(prep, records),
    }
}

fn oracle_records(prep: &PreparedCampaign<'_>) -> Vec<TrialRecord> {
    let all: Vec<usize> = (0..prep.plan.len()).collect();
    execute_trials_with(prep, FastForward::disabled(), &all, |_| Ok(()))
        .expect("the oracle journals nothing, so it has no I/O to fail")
}

/// `ledger pin`: run every default-seed campaign of the frozen sizes on
/// the slow oracle and return the pins.
pub fn generate(sizes: &Sizes) -> Pins {
    let mut pins = Pins::default();
    for bench in all_benchmarks() {
        let bench: &dyn Benchmark = bench.as_ref();
        let cfg = CampaignCfg::new(sizes.n_avf, sizes.n_sw, DEFAULT_SEED);
        for layer in [Layer::Uarch, Layer::Sw] {
            let prep = match layer {
                Layer::Uarch => prepare_uarch_campaign(bench, &cfg, false),
                Layer::Sw => prepare_sw_campaign(bench, &cfg, false),
            };
            pins.golden.push(GoldenPin {
                app: bench.name().to_string(),
                layer,
                fingerprint: golden_fingerprint(&prep.golden),
            });
            pins.fixed.push(FixedPin {
                layer,
                app: bench.name().to_string(),
                n: prep.plan.n_per_target,
                seed: DEFAULT_SEED,
                fingerprint: records_fingerprint(&oracle_records(&prep)),
            });
        }
        let acfg = sizes.adaptive;
        for seed in DEFAULT_SEED..DEFAULT_SEED + sizes.adaptive_seeds {
            let res = run_adaptive(
                bench,
                &CampaignCfg::new(0, 0, seed),
                false,
                Layer::Uarch,
                &uarch_targets(),
                &acfg,
                |prep, _| Ok(oracle_records(prep)),
            )
            .expect("oracle waves cover their plans");
            pins.adaptive.push(AdaptivePin {
                app: bench.name().to_string(),
                ci_target: acfg.ci_target,
                wave_size: acfg.wave_size,
                cap: acfg.max_per_stratum,
                seed,
                fingerprint: res.records_fp,
                waves: res.waves,
            });
        }
        eprintln!("[ledger] pinned {}", bench.name());
    }
    pins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_file_round_trips_and_the_embedded_one_parses() {
        let pins = Pins {
            fixed: vec![FixedPin {
                layer: Layer::Sw,
                app: "K-Means".into(),
                n: 120,
                seed: 7,
                fingerprint: u64::MAX - 3,
            }],
            adaptive: vec![AdaptivePin {
                app: "VA".into(),
                ci_target: 0.1,
                wave_size: 8,
                cap: 64,
                seed: 9,
                fingerprint: 0xdead_beef,
                waves: 2,
            }],
            golden: vec![GoldenPin {
                app: "VA".into(),
                layer: Layer::Uarch,
                fingerprint: 42,
            }],
        };
        assert_eq!(Pins::parse(&pins.to_text()), Some(pins));
        assert!(Pins::parse("{\"campaigns\": 3}").is_none());
        // Whatever is checked in must be loadable — a run never starts
        // with its verification silently off — and exactly what `pin`
        // writes, not a hand edit.
        assert_eq!(Pins::embedded().to_text(), PIN_TEXT);
    }

    #[test]
    fn mismatches_count_missing_and_differing_records() {
        use kernels::Outcome;
        let rec = |idx, outcome| TrialRecord {
            idx,
            outcome,
            ctrl: false,
            wall_us: 0,
        };
        let oracle = [
            rec(0, Outcome::Masked),
            rec(16, Outcome::Sdc),
            rec(32, Outcome::Due),
        ];
        let got = [rec(0, Outcome::Masked), rec(16, Outcome::Masked)];
        assert_eq!(mismatches("t", &got, &oracle), 2);
        assert_eq!(mismatches("t", &oracle, &oracle), 0);
    }
}
