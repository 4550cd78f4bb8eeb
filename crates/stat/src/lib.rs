//! Statistics engine for injection campaigns (docs/TWOLEVEL.md).
//!
//! Three layers, bottom-up:
//!
//! - [`ci`] — the interval machinery: Wilson score intervals for
//!   per-stratum binomial rates and a seeded percentile bootstrap for
//!   weighted combinations of strata. NaN-free by construction.
//! - [`twolevel`] — the two-level SDC estimator: the dynamic instruction
//!   stream is stratified into [`vgpu_arch::InstrClass`] classes, small
//!   per-class samples are injected through the ordinary plan/execute
//!   engine, and class rates propagate through population shares to
//!   kernel- and application-level estimates with bootstrap CIs.
//! - [`adaptive`] — CI-driven campaign sizing: deterministic trial waves
//!   per (kernel, target) stratum until every stratum's derated CI
//!   half-width meets the target, with per-wave plan fingerprints so
//!   checkpoints, shard merges, and dispatch leases stay byte-identical
//!   and resumable across execution strategies.

pub mod adaptive;
pub mod ci;
pub mod twolevel;

pub use adaptive::{
    class_targets, replay_adaptive, run_adaptive, run_adaptive_single, sw_targets, uarch_targets,
    AdaptiveCfg, AdaptiveResult, AdaptiveStratum,
};
pub use ci::{bootstrap_weighted_ci, weighted_rate, wilson, Interval, WeightedStratum};
pub use twolevel::{
    estimate_two_level, two_level, ClassEstimate, KernelEstimate, TwoLevelEstimate, CLASS_KINDS,
    DEFAULT_BOOTSTRAP_REPS,
};
