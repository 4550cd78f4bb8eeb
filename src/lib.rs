//! # gpu-reliability — cross-layer GPU reliability assessment
//!
//! A from-scratch Rust reproduction of *"GPU Reliability Assessment:
//! Insights Across the Abstraction Layers"* (IEEE CLUSTER 2024): a
//! Volta-class SIMT GPU simulator, microarchitecture-level (gpuFI-4 model)
//! and software-level (NVBitFI model) statistical fault injection, the
//! 11-application / 23-kernel CUDA-SDK + Rodinia mini benchmark suite,
//! thread-level TMR hardening, and the AVF/SVF analyses of the paper.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`arch`] ([`vgpu_arch`]) — the SASS-like ISA and assembler DSL;
//! * [`sim`] ([`vgpu_sim`]) — the cycle-level simulator with bit-level
//!   fault hooks and the functional engine;
//! * [`suite`] ([`kernels`]) — the benchmarks, the application harness,
//!   and the TMR transform;
//! * [`assess`] ([`relia`]) — campaigns, AVF/SVF math, trends, profiling,
//!   hardening evaluation, and the register-reuse analyzer.
//!
//! See `examples/quickstart.rs` for a five-minute tour. There is no
//! binary here: the one command line is the `bench` crate's `campaign`
//! driver, whose `paper` subcommand regenerates every injection figure
//! and table of the paper's evaluation section.

pub use kernels as suite;
pub use relia as assess;
pub use vgpu_arch as arch;
pub use vgpu_sim as sim;

/// Convenient glob import for examples and quick experiments.
pub mod prelude {
    pub use kernels::{
        all_benchmarks, faulty_run, golden_run, Benchmark, Outcome, PlannedFault, Variant,
    };
    pub use relia::{
        assemble_sw, assemble_uarch, execute_shard, prepare_sw_campaign, prepare_uarch_campaign,
        run_sw_campaign, run_uarch_campaign, CampaignCfg, ClassRates, EngineCfg, EngineError,
        StrataRecords, Table, TrendItem, Watchdog,
    };
    pub use vgpu_arch::{CmpOp, Kernel, KernelBuilder, LaunchConfig, MemSpace, Operand};
    pub use vgpu_sim::{
        Budget, FaultPlan, Gpu, GpuConfig, HwStructure, Mode, SwFault, SwFaultKind, UarchFault,
    };
}
