//! What the subcommands share on top of the flag table: the
//! runtime-failure exit, and the projection of `--adaptive` that both
//! `run` and `serve` use.

use bench::cli::{die, Parsed};
pub use bench::driver::fail;
use dispatch::CampaignSpec;
use relia::plan::{Layer, TrialTarget};
use stat::{sw_targets, uarch_targets, AdaptiveCfg};

/// `--adaptive` sizing, or `None` for a fixed-n campaign. An
/// adaptive-only flag without `--adaptive` is a usage error, not a
/// silent no-op.
pub fn adaptive(a: &Parsed) -> Option<AdaptiveCfg> {
    if a.has("--adaptive") {
        return Some(a.adaptive_cfg(0.05, 16, 256));
    }
    for flag in ["--ci-target", "--wave-size", "--max-trials"] {
        if a.has(flag) {
            die(&format!("{flag} requires --adaptive"));
        }
    }
    None
}

/// The stratification an adaptive campaign sizes: kernel × structure for
/// the uarch layer (respecting `--structures`), kernel × software fault
/// kind for the sw layer.
pub fn adaptive_targets(spec: &CampaignSpec) -> Vec<TrialTarget> {
    match (spec.layer, &spec.structures) {
        (Layer::Uarch, None) => uarch_targets(),
        (Layer::Uarch, Some(v)) => v.iter().map(|&h| TrialTarget::Structure(h)).collect(),
        (Layer::Sw, _) => sw_targets(),
    }
}
