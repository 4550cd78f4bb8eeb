//! ACE-style analytical vulnerability estimation.
//!
//! The injection campaigns in [`relia`] measure AVF statistically:
//! hundreds of full faulty simulations per structure per kernel. This
//! crate implements the classic analytical alternative (Mukherjee et
//! al.'s ACE analysis, and the analytic half of Hari et al.'s two-level
//! hybrid): a *single* fault-free timed run, whose probe stream a
//! [`vgpu_sim::lifetime::LifetimeTracker`] sink folds, tells how long each
//! word of each hardware structure holds a value that is still
//! Architecturally Correct Execution-critical — written and later read (or
//! written back to DRAM) rather than overwritten or dropped. Folding those intervals
//! into per-structure totals gives an analytic AVF estimate
//!
//! ```text
//! AVF_ACE(h) = ACE-bit-cycles(h) / (bits(h) × cycles)
//! ```
//!
//! with the same size-weighted chip aggregation and cycle-weighted
//! multi-kernel aggregation as `relia::metrics`. The estimate is an
//! upper bound on the masked-complement (every live interval is assumed
//! critical) and carries no SDC/DUE split — its value is *screening*:
//! rank kernels and structures cheaply, then spend the injection budget
//! where the analytic estimate is high or uncertain.
//!
//! [`estimate_app`] runs the instrumented simulation under the
//! `ace.estimate` span (`obs::span`) so its cost is visible next to the
//! campaign's spans; [`corr::spearman`] quantifies agreement with recorded
//! injection AVF; [`report`] renders the comparison tables behind
//! `results/fig_ace_vs_avf.csv`.

pub mod corr;
pub mod estimate;
pub mod report;

pub use corr::{mean_abs_error, pearson, ranks, spearman};
pub use estimate::{estimate_app, estimate_suite, AceAppEstimate, AceKernelEstimate};
pub use report::{app_table, comparison_table, structure_table, CompareRow};
