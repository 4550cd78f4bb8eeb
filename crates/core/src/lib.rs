//! # relia — cross-layer GPU reliability assessment
//!
//! The reproduction of the CLUSTER 2024 paper *"GPU Reliability
//! Assessment: Insights Across the Abstraction Layers"*: statistical
//! single-bit fault-injection campaigns at the microarchitecture level
//! (the gpuFI-4 / AVF methodology, against the cycle-level [`vgpu_sim`]
//! simulator) and at the software level (the NVBitFI / SVF methodology,
//! against hardware-agnostic functional execution), plus the analyses the
//! paper builds on top:
//!
//! * one assembled result per campaign, its strata with their records
//!   ([`records::StrataRecords`]), of which every metric is a projection:
//!   the AVF formulas of Section II-B — failure rates, derating factors,
//!   size-weighted chip AVF, cycle-weighted application AVF — the SVF
//!   formulas of Section II-C, including the load-only SVF-LD sub-metric,
//!   and the rates of any other fault kind (PVF);
//! * consistent/opposite relative-vulnerability trend counting — Table I
//!   ([`trends`]);
//! * the Figure-3 resource-utilization profile and pairwise normalization
//!   ([`profile`]);
//! * the Section-IV TMR hardening study ([`hardening`]);
//! * the Section-V-B register-reuse analyzer and the exact Figure-12
//!   example ([`reuse`]);
//! * statistical-FI confidence margins ([`metrics::error_margin`]).
//!
//! # Quick start
//!
//! ```no_run
//! use relia::{CampaignCfg, run_uarch_campaign, run_sw_campaign};
//!
//! let cfg = CampaignCfg::new(300, 300, 0xC0FFEE);
//! let bench = kernels::apps::va::Va;
//! let avf = run_uarch_campaign(&bench, &cfg, false);
//! let svf = run_sw_campaign(&bench, &cfg, false);
//! println!("VA chip AVF = {:.4}%", avf.app_avf().total() * 100.0);
//! println!("VA SVF      = {:.2}%", svf.app_svf().total() * 100.0);
//! ```

pub mod campaign;
pub mod captures;
pub mod checkpoint;
pub mod hardening;
pub mod metrics;
pub mod plan;
pub mod profile;
pub mod records;
pub mod report;
pub mod reuse;
pub mod spec;
pub mod trends;

pub use campaign::{
    assemble_sw, assemble_uarch, execute_resumable, execute_shard, execute_trials_with,
    run_sw_campaign, run_uarch_campaign, CampaignCfg, EngineBackend, EngineCfg, EngineError,
    FastForward, ShardRun, Watchdog, DEFAULT_SNAPSHOTS,
};
pub use captures::AppCaptures;
pub use checkpoint::{
    load_checkpoint, Checkpoint, CheckpointError, CheckpointHeader, CheckpointWriter, TrialRecord,
    DEFAULT_CHECKPOINT_EVERY,
};
pub use hardening::{HardeningComparison, KernelHardeningRow};
pub use metrics::{error_margin, ClassCounts, ClassRates, Confidence};
pub use plan::{
    plan_sw, plan_uarch, plan_wave, prepare_sw_campaign, prepare_uarch_campaign, shard_trials,
    sw_seed_tag, CampaignPlan, Layer, PlannedTrial, PreparedCampaign, StratumSpec, TrialTarget,
    SVF_KINDS,
};
pub use profile::{kernel_metrics, normalized_pair, pair_shares, UtilMetrics, METRIC_LABELS};
pub use records::{
    assemble, derating_factor, records_fingerprint, RecordSet, RecordedStratum, StrataRecords,
};
pub use report::{metrics_tables, pct, pct4, RowArityError, Table};
pub use spec::{parse_structures, scaled_gpu, CampaignSpec, WaveSpec, MAX_N, MAX_SMS};
pub use trends::{compare_pairs, opposite_pairs, TrendCount, TrendItem};
