//! Program Vulnerability Factor (PVF) — an *extension* beyond the paper's
//! two layers, implementing the third abstraction level of its related
//! work (Sridharan & Kaeli: the microarchitecture-independent,
//! architecturally-visible portion of AVF; the CPU-side three-layer
//! methodology of Papadimitriou & Gizopoulos that the paper builds on).
//!
//! The fault model sits between SVF and AVF: a bit flip in an **arbitrary
//! architectural register** (live program state, not just the destination
//! of the current instruction) at a uniformly chosen dynamic instruction,
//! still with no microarchitectural masking. Comparing
//! `SVF ≥ PVF ≥ chip AVF` per workload quantifies how much estimation
//! error comes from the *fault-origin population* (SVF→PVF) versus from
//! *hardware masking and derating* (PVF→AVF).

use kernels::Benchmark;
use vgpu_sim::SwFaultKind;

use crate::campaign::{assemble, execute_shard, CampaignCfg, EngineCfg, EngineError};
use crate::captures::AppCaptures;
use crate::checkpoint::TrialRecord;
use crate::metrics::{ClassCounts, ClassRates};
use crate::plan::{plan_sw, Layer, PreparedCampaign, TrialTarget};

/// PVF measurements for one kernel.
#[derive(Debug, Clone)]
pub struct PvfKernelResult {
    pub kernel: String,
    pub counts: ClassCounts,
    /// Dynamic thread instructions (application weighting).
    pub instrs: u64,
}

impl PvfKernelResult {
    pub fn pvf(&self) -> ClassRates {
        self.counts.rates()
    }
}

/// PVF measurements for a whole application.
#[derive(Debug, Clone)]
pub struct PvfAppResult {
    pub app: String,
    pub kernels: Vec<PvfKernelResult>,
}

impl PvfAppResult {
    /// Instruction-weighted application PVF (same weighting rule as SVF).
    pub fn app_pvf(&self) -> ClassRates {
        ClassRates::weighted(self.kernels.iter().map(|k| (k.pvf(), k.instrs)))
    }
}

/// The architectural-state result of an ArchState-only software-level
/// plan: [`assemble`]'s table, one stratum per kernel in kernel order.
pub fn assemble_pvf(
    prep: &PreparedCampaign,
    records: &[TrialRecord],
) -> Result<PvfAppResult, EngineError> {
    let arch_state = TrialTarget::Fault(SwFaultKind::ArchState);
    if (prep.plan.strata.iter()).any(|s| s.target != arch_state) {
        return Err(EngineError::PlanMismatch(
            "assemble_pvf expects an ArchState-only plan".into(),
        ));
    }
    let table = assemble(prep, records)?;
    let kernels = (prep.plan.strata.iter().zip(table))
        .map(|(st, row)| PvfKernelResult {
            kernel: prep.bench().kernels()[st.kernel_idx].to_string(),
            counts: row.counts,
            instrs: prep.golden.kernel_stats(st.kernel_idx).thread_instrs,
        })
        .collect();
    Ok(PvfAppResult {
        app: prep.plan.app.clone(),
        kernels,
    })
}

/// Run the architectural-state (PVF approximation) campaign through the
/// sharded engine — one single-shot shard of an ArchState-only plan.
pub fn run_pvf_campaign(bench: &dyn Benchmark, cfg: &CampaignCfg, hardened: bool) -> PvfAppResult {
    let captures = AppCaptures::new(bench, &cfg.gpu, Layer::Sw, hardened);
    let prep = plan_sw(&captures, cfg, &[SwFaultKind::ArchState]);
    let records = execute_shard(&prep, &EngineCfg::single_shot())
        .expect("single-shot execution performs no checkpoint I/O");
    assemble_pvf(&prep, &records).expect("a single shard covers the whole plan")
}
