//! The [`Gpu`] facade: device memory + caches + the two execution engines,
//! with coherent host access between launches.

use crate::cache::Cache;
use crate::config::GpuConfig;
pub use crate::due::LaunchAbort;
use crate::fault::{HwStructure, SwInjector, UarchInjector};
use crate::functional::run_functional;
use crate::mem::GlobalMem;
use crate::probe::{Probe, SharedSink};
use crate::snapshot::{
    ChunkStore, ConvergeWith, DeviceSnapshot, Machine, ResumeOutcome, Scope, SnapId,
};
use crate::stats::Stats;
use crate::timed::{run_timed_ctl, SmState, TimedCtl};
use vgpu_arch::{Kernel, LaunchConfig};

/// Which execution engine a [`Gpu`] uses.
///
/// * `Timed` — cycle-level microarchitecture simulation (gpuFI-4 / AVF side
///   of the study).
/// * `Functional` — hardware-agnostic execution (NVBitFI / SVF side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Timed,
    Functional,
}

/// Run budget used for timeout classification, in the unit of the
/// engine that runs the launch. Golden runs should use
/// [`Budget::unlimited`]; faulty runs derive budgets from the golden
/// statistics (`timeout_factor ×` the golden cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Cycles on the timed engine, thread-level dynamic instructions on
    /// the functional one.
    pub limit: u64,
}

impl Budget {
    pub fn unlimited() -> Self {
        Budget {
            limit: u64::MAX / 2,
        }
    }
}

/// The fault (if any) injected into a launch.
pub enum FaultPlan<'a> {
    None,
    /// Microarchitecture-level bit flip (timed engine only).
    Uarch(&'a mut UarchInjector),
    /// Software-level value flip (either engine; normally functional).
    Sw(&'a mut SwInjector),
}

/// Export one launch's simulator counters (`sim_*`, labeled by engine
/// mode) into the global obs registry, if observability is on. Every
/// [`Gpu`] launch reports here itself; so must whoever drives an engine
/// without one (the harness's CTA-by-CTA functional launches).
pub fn record_launch(mode: Mode, res: &Result<Stats, LaunchAbort>) {
    if !obs::enabled() {
        return;
    }
    let mode = match mode {
        Mode::Timed => "timed",
        Mode::Functional => "functional",
    };
    let labels: &[(&str, &str)] = &[("mode", mode)];
    obs::counter_add("sim_launches_total", labels, 1);
    match res {
        Ok(s) => {
            obs::counter_add("sim_cycles_total", labels, s.cycles);
            obs::counter_add("sim_issue_cycles_total", labels, s.issue_cycles);
            obs::counter_add("sim_stall_cycles_total", labels, s.stall_cycles);
            obs::counter_add("sim_thread_instrs_total", labels, s.thread_instrs);
            obs::counter_add("sim_mem_reads_total", labels, s.mem_reads);
            obs::counter_add("sim_mem_writes_total", labels, s.mem_writes);
        }
        Err(abort) => {
            let cause = match abort {
                LaunchAbort::Timeout => "timeout",
                LaunchAbort::Due(_) => "due",
            };
            obs::counter_add("sim_aborts_total", &[("mode", mode), ("cause", cause)], 1);
        }
    }
}

/// A virtual GPU: configuration, device memory, cache hierarchy, engines.
///
/// Cache contents persist across launches (as on hardware, where the L2 is
/// shared across kernels of an application); L1s are invalidated at each
/// kernel boundary by the timed engine. Host accessors are L2-coherent so
/// host-side glue between kernels observes exactly what a `cudaMemcpy`
/// would.
pub struct Gpu {
    pub cfg: GpuConfig,
    mode: Mode,
    /// Device memory, cache hierarchy and (timed mode) the SMs' register
    /// files and shared memories: everything a snapshot covers.
    m: Machine,
    probe: Option<Probe>,
}

impl Gpu {
    pub fn new(cfg: GpuConfig, mem: GlobalMem, mode: Mode) -> Self {
        let l1ds = (0..cfg.num_sms)
            .map(|_| Cache::new(cfg.l1d.clone()))
            .collect();
        let l1ts = (0..cfg.num_sms)
            .map(|_| Cache::new(cfg.l1t.clone()))
            .collect();
        let l2 = Cache::new(cfg.l2.clone());
        // The functional engine keeps registers and shared memory per CTA.
        let sms = match mode {
            Mode::Timed => (0..cfg.num_sms).map(|_| SmState::new(&cfg)).collect(),
            Mode::Functional => Vec::new(),
        };
        Gpu {
            m: Machine::new(mem, l1ds, l1ts, l2, sms),
            cfg,
            mode,
            probe: None,
        }
    }

    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Instrument subsequent timed launches and host accesses: every
    /// engine hook is forwarded to `sink` (`crate::probe`). Must precede
    /// the first launch for the sink to see the whole application.
    pub fn attach_probe(&mut self, sink: SharedSink) {
        assert_eq!(self.mode, Mode::Timed, "probes require the timed engine");
        self.probe = Some(Probe::new(sink));
    }

    /// Stop instrumenting; the sink has the whole stream when this returns.
    pub fn detach_probe(&mut self) {
        self.probe = None;
    }

    /// Record a host-side word read against an attached probe: if `addr`
    /// is L2-resident, the sink learns that the word's value propagated to
    /// the host (classification or inter-launch glue). No-op otherwise.
    #[inline]
    pub fn probe_host_read(&mut self, addr: u32) {
        if let Some(p) = self.probe.as_mut() {
            if let Some(word) = self.m.l2.resident_word(addr) {
                p.host_read(word);
            }
        }
    }

    /// [`Gpu::probe_host_read`] of the `words` words from `addr`, in
    /// order. Without a probe it costs one test, not one per word.
    #[inline]
    pub fn probe_host_reads(&mut self, addr: u32, words: u32) {
        if self.probe.is_some() {
            for i in 0..words {
                self.probe_host_read(addr + 4 * i);
            }
        }
    }

    /// Launch a kernel. Returns per-launch statistics, or the abort cause
    /// (DUE / timeout) for classification.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        lc: &LaunchConfig,
        fault: FaultPlan<'_>,
        budget: &Budget,
    ) -> Result<Stats, LaunchAbort> {
        let res = self.launch_inner(kernel, lc, fault, budget);
        record_launch(self.mode, &res);
        res
    }

    fn launch_inner(
        &mut self,
        kernel: &Kernel,
        lc: &LaunchConfig,
        fault: FaultPlan<'_>,
        budget: &Budget,
    ) -> Result<Stats, LaunchAbort> {
        match self.mode {
            Mode::Timed => {
                let (uarch, sw) = match fault {
                    FaultPlan::None => (None, None),
                    FaultPlan::Uarch(u) => (Some(u), None),
                    FaultPlan::Sw(s) => (None, Some(s)),
                };
                run_timed_ctl(
                    &self.cfg,
                    &mut self.m,
                    kernel,
                    lc,
                    uarch,
                    sw,
                    self.probe.as_mut(),
                    budget.limit,
                    &mut TimedCtl::none(),
                )
            }
            Mode::Functional => {
                let sw = match fault {
                    FaultPlan::None => None,
                    FaultPlan::Sw(s) => Some(s),
                    FaultPlan::Uarch(_) => {
                        panic!("microarchitecture faults require the timed engine")
                    }
                };
                // Functional stores are not dirty-marked.
                self.m.desync();
                run_functional(
                    &mut self.m.mem,
                    kernel,
                    lc,
                    sw,
                    budget.limit,
                    self.cfg.max_stack_depth,
                )
            }
        }
    }

    // ---- snapshots and fast-forward ------------------------------------

    /// Fault-free launch that additionally appends a snapshot to `store`
    /// at each cycle of `capture_at` (sorted ascending) and returns their
    /// handles. The run itself is bit-identical to `launch(…,
    /// FaultPlan::None, …)` — capture points only read state, never
    /// perturb it — and an attached probe ([`Gpu::attach_probe`]) sees it
    /// exactly as it would see that launch. Timed mode.
    pub fn launch_instrumented(
        &mut self,
        kernel: &Kernel,
        lc: &LaunchConfig,
        budget: &Budget,
        capture_at: &[u64],
        store: &mut ChunkStore,
    ) -> Result<(Stats, Vec<SnapId>), LaunchAbort> {
        assert_eq!(self.mode, Mode::Timed, "snapshots require the timed engine");
        let mut ctl = TimedCtl::none();
        ctl.capture = Some((capture_at, store));
        let res = run_timed_ctl(
            &self.cfg,
            &mut self.m,
            kernel,
            lc,
            None,
            None,
            self.probe.as_mut(),
            budget.limit,
            &mut ctl,
        );
        record_launch(self.mode, &res);
        res.map(|s| (s, ctl.captured))
    }

    /// Resume a launch mid-flight from mid-launch snapshot `snap` of
    /// `store` — optionally with a pending microarchitecture `fault`
    /// (whose cycle must be ≥ the snapshot's) and a golden reference
    /// enabling the early masked-convergence exit. The machine is first
    /// restored to the snapshot bit for bit, so the result is
    /// bit-identical to running the same launch with the same fault from
    /// cycle 0.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_from(
        &mut self,
        store: &ChunkStore,
        snap: SnapId,
        kernel: &Kernel,
        lc: &LaunchConfig,
        fault: Option<&mut UarchInjector>,
        budget: &Budget,
        converge: Option<ConvergeWith<'_>>,
    ) -> Result<ResumeOutcome, LaunchAbort> {
        assert_eq!(self.mode, Mode::Timed, "snapshots require the timed engine");
        assert!(
            self.probe.is_none(),
            "snapshot resume is incompatible with an attached probe"
        );
        let resumed_at = store
            .cycle(snap)
            .expect("resume needs a mid-launch snapshot");
        if let Some(f) = &fault {
            assert!(
                f.fault.cycle >= resumed_at,
                "snapshot (cycle {resumed_at}) is past the fault cycle {}",
                f.fault.cycle
            );
        }
        let mut ctl = TimedCtl::none();
        ctl.resume = Some((store, snap));
        ctl.converge = converge;
        let res = run_timed_ctl(
            &self.cfg,
            &mut self.m,
            kernel,
            lc,
            fault,
            None,
            None,
            budget.limit,
            &mut ctl,
        );
        record_launch(self.mode, &res);
        res.map(|stats| ResumeOutcome {
            stats,
            resumed_at,
            simulated_cycles: ctl.simulated_cycles,
            converged_at: ctl.converged_at,
            restored_bytes: ctl.restored_bytes,
        })
    }

    /// Append a launch-boundary snapshot of the machine to `store`.
    pub fn capture(&mut self, store: &mut ChunkStore) -> SnapId {
        self.m.capture(store, None)
    }

    /// Bring the machine to snapshot `id` of `store` bit for bit, copying
    /// only what may differ from it. Returns the bytes copied.
    pub fn restore(&mut self, store: &ChunkStore, id: SnapId) -> u64 {
        self.m.restore(store, id)
    }

    /// Architectural equality with launch-boundary snapshot `id` of
    /// `store`: global memory and the L2 must match bit-for-bit in every
    /// valid line (`Cache::same`); the L1s must simply be empty on both
    /// sides, which they always are at a boundary (the timed engine
    /// invalidates them at launch end) — an empty cache's LRU stamp is
    /// dead state. A `true` here means every subsequent launch behaves
    /// bit-identically on both machines.
    pub fn converged(&self, store: &ChunkStore, id: SnapId) -> bool {
        self.m.same(store, id, Scope::Device)
    }

    /// Whether the machine equals snapshot `id` of `store` bit for bit,
    /// dead state included (tests).
    pub fn matches_image(&self, store: &ChunkStore, id: SnapId) -> bool {
        self.m.same(store, id, Scope::Image)
    }

    /// Capture the device state between launches as a store of its own.
    pub fn device_snapshot(&self) -> DeviceSnapshot {
        let mut store = ChunkStore::new();
        let id = self.m.snapshot(&mut store, None);
        DeviceSnapshot { store, id }
    }

    /// Restore device state captured by [`Gpu::device_snapshot`] verbatim.
    pub fn restore_device(&mut self, snap: &DeviceSnapshot) {
        self.restore(&snap.store, snap.id);
    }

    /// [`Gpu::converged`] against a [`Gpu::device_snapshot`].
    pub fn device_converged(&self, snap: &DeviceSnapshot) -> bool {
        self.converged(&snap.store, snap.id)
    }

    /// Return the GPU to its just-constructed state — zeroed arena bytes
    /// (the mapped-range table survives), reset caches, no probe — so a
    /// pooled instance can be reused without reallocating (per-worker
    /// scratch reuse on the campaign hot path). Register files and shared
    /// memories keep their bytes: a launch zeroes what it uses. A
    /// functional machine never touches its caches, so only a timed one
    /// resets them. No counter survives here to reset: each launch counts
    /// into its own [`Stats`].
    pub fn reset_in_place(&mut self) {
        self.m.desync();
        self.m.mem.clear_data();
        if self.mode == Mode::Timed {
            for c in self.m.l1ds.iter_mut().chain(self.m.l1ts.iter_mut()) {
                c.reset();
            }
            self.m.l2.reset();
        }
        self.probe = None;
    }

    // ---- coherent host access ------------------------------------------

    /// Host word read: sees the L2's copy if resident (timed mode).
    #[inline]
    pub fn host_read_u32(&self, addr: u32) -> u32 {
        if self.mode == Mode::Timed {
            if let Some(v) = self.m.l2.peek_word(addr) {
                return v;
            }
        }
        self.m.mem.read_u32(addr)
    }

    /// Host word write: updates DRAM and any resident L2 copy (which an
    /// attached probe sees as a write of that L2 word).
    pub fn host_write_u32(&mut self, addr: u32, v: u32) {
        self.m.mem.host_write_u32(addr, v);
        if self.mode == Mode::Timed && self.m.l2.poke_word(addr, v) {
            if let (Some(p), Some(word)) = (self.probe.as_mut(), self.m.l2.resident_word(addr)) {
                p.access(HwStructure::L2, 0, word, 0, true);
            }
        }
    }

    pub fn host_read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.host_read_u32(addr))
    }

    /// Host read of the `out.len()` consecutive words from `addr`, each
    /// what [`Gpu::host_read_u32`] returns: functional mode reads the arena
    /// as one slice, timed mode peeks the L2 word by word.
    pub fn host_read_words(&self, addr: u32, out: &mut [u32]) {
        match self.mode {
            Mode::Timed => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.host_read_u32(addr + 4 * i as u32);
                }
            }
            Mode::Functional => self.m.mem.read_words(addr, out),
        }
    }

    /// [`Gpu::host_read_words`] of `words` words into a new vector: one
    /// slice in functional mode, word by word in timed mode.
    pub fn host_read_block(&self, addr: u32, words: u32) -> Vec<u32> {
        let mut out = vec![0; words as usize];
        self.host_read_words(addr, &mut out);
        out
    }

    /// Write a block of words starting at `addr`.
    pub fn host_write_block(&mut self, addr: u32, data: &[u32]) {
        for (i, &v) in data.iter().enumerate() {
            self.host_write_u32(addr + i as u32 * 4, v);
        }
    }

    /// Direct access to the arena (tests, diagnostics).
    pub fn mem(&self) -> &GlobalMem {
        &self.m.mem
    }

    /// The L2 as it stands (which lines are dirty, for a lifetime sink's
    /// end-of-application accounting).
    pub fn l2(&self) -> &Cache {
        &self.m.l2
    }

    /// Raw arena access; writes through it are not dirty-marked, so the
    /// machine forgets its snapshot synchronisation point.
    pub fn mem_mut(&mut self) -> &mut GlobalMem {
        self.m.desync();
        &mut self.m.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu_arch::{KernelBuilder, MemSpace, Operand};

    fn store_kernel() -> vgpu_arch::Kernel {
        // out[gid] = gid
        let mut a = KernelBuilder::new("t");
        let (gid, tmp, addr) = (a.reg(), a.reg(), a.reg());
        a.linear_tid(gid, tmp);
        a.mov(addr, a.param(0));
        a.iscadd(addr, gid, Operand::Reg(addr), 2);
        a.st(MemSpace::Global, addr, 0, gid);
        a.build().unwrap()
    }

    fn fresh(mode: Mode) -> (Gpu, LaunchConfig, u32) {
        let mut planner = crate::mem::ArenaPlanner::new();
        let out = planner.alloc(64 * 4);
        let mem = planner.build();
        let gpu = Gpu::new(GpuConfig::default(), mem, mode);
        (gpu, LaunchConfig::new(2, 32, vec![out]), out)
    }

    #[test]
    fn budget_unlimited_is_huge() {
        assert!(Budget::unlimited().limit > 1 << 60);
    }

    #[test]
    fn host_reads_see_l2_resident_writes_in_timed_mode() {
        let k = store_kernel();
        let (mut gpu, lc, out) = fresh(Mode::Timed);
        gpu.launch(&k, &lc, FaultPlan::None, &Budget::unlimited())
            .unwrap();
        for i in 0..64 {
            assert_eq!(gpu.host_read_u32(out + i * 4), i);
        }
    }

    #[test]
    fn host_write_updates_resident_l2_copy() {
        let k = store_kernel();
        let (mut gpu, lc, out) = fresh(Mode::Timed);
        gpu.launch(&k, &lc, FaultPlan::None, &Budget::unlimited())
            .unwrap();
        // Output lines are dirty in L2; a host write must be visible to a
        // subsequent host read (and to the next kernel through the L2).
        gpu.host_write_u32(out + 8, 777);
        assert_eq!(gpu.host_read_u32(out + 8), 777);
    }

    #[test]
    fn block_accessors_roundtrip() {
        let (mut gpu, _, out) = fresh(Mode::Functional);
        gpu.host_write_block(out, &[1, 2, 3, 4]);
        assert_eq!(gpu.host_read_block(out, 4), vec![1, 2, 3, 4]);
        gpu.host_write_u32(out, 2.5f32.to_bits());
        assert_eq!(gpu.host_read_f32(out), 2.5);
    }

    #[test]
    #[should_panic(expected = "timed engine")]
    fn uarch_fault_in_functional_mode_panics() {
        let k = store_kernel();
        let (mut gpu, lc, _) = fresh(Mode::Functional);
        let mut inj = crate::fault::UarchInjector::new(crate::fault::UarchFault {
            cycle: 0,
            structure: crate::fault::HwStructure::L2,
            loc_pick: 0,
            bit: 0,
            pattern: crate::fault::FaultPattern::SingleBit,
        });
        let _ = gpu.launch(&k, &lc, FaultPlan::Uarch(&mut inj), &Budget::unlimited());
    }

    #[test]
    fn mode_accessor() {
        let (gpu, _, _) = fresh(Mode::Timed);
        assert_eq!(gpu.mode(), Mode::Timed);
    }

    #[test]
    fn snapshot_resume_reproduces_golden_suffix() {
        let k = store_kernel();
        let (mut g1, lc, out) = fresh(Mode::Timed);
        let golden = g1
            .launch(&k, &lc, FaultPlan::None, &Budget::unlimited())
            .unwrap();
        let gold_out = g1.host_read_block(out, 64);

        let (mut g2, lc2, _) = fresh(Mode::Timed);
        let mid = golden.cycles / 2;
        let mut store = ChunkStore::new();
        let (istats, snaps) = g2
            .launch_instrumented(&k, &lc2, &Budget::unlimited(), &[mid], &mut store)
            .unwrap();
        assert_eq!(istats, golden, "instrumented run must not perturb stats");
        let snap = snaps[0];
        assert_eq!(store.cycle(snap), Some(mid));

        let (mut g3, lc3, out3) = fresh(Mode::Timed);
        let r = g3
            .resume_from(&store, snap, &k, &lc3, None, &Budget::unlimited(), None)
            .unwrap();
        assert_eq!(r.stats, golden, "resumed run must finish bit-identically");
        assert_eq!(r.resumed_at, mid);
        assert_eq!(r.simulated_cycles, golden.cycles - mid);
        assert_eq!(r.converged_at, None);
        assert_eq!(g3.host_read_block(out3, 64), gold_out);
    }

    #[test]
    fn resume_with_fault_matches_slow_path() {
        use crate::fault::{HwStructure, UarchFault, UarchInjector};
        let k = store_kernel();
        let (mut g1, lc, out) = fresh(Mode::Timed);
        let golden = g1
            .launch(&k, &lc, FaultPlan::None, &Budget::unlimited())
            .unwrap();
        let fault = UarchFault {
            cycle: golden.cycles / 2 + 1,
            structure: HwStructure::L2,
            loc_pick: 12345,
            bit: 7,
            pattern: crate::fault::FaultPattern::SingleBit,
        };

        // Slow path: full run with the fault from cycle 0.
        let (mut gs, lcs, outs) = fresh(Mode::Timed);
        let mut slow_inj = UarchInjector::new(fault);
        let slow = gs
            .launch(
                &k,
                &lcs,
                FaultPlan::Uarch(&mut slow_inj),
                &Budget::unlimited(),
            )
            .unwrap();
        let slow_out = gs.host_read_block(outs, 64);

        // Fast path: snapshot before the fault, resume with it pending.
        let (mut gc, lcc, _) = fresh(Mode::Timed);
        let mut store = ChunkStore::new();
        let (_, snaps) = gc
            .launch_instrumented(
                &k,
                &lcc,
                &Budget::unlimited(),
                &[golden.cycles / 2],
                &mut store,
            )
            .unwrap();
        let (mut gf, lcf, outf) = fresh(Mode::Timed);
        let mut ff_inj = UarchInjector::new(fault);
        let r = gf
            .resume_from(
                &store,
                snaps[0],
                &k,
                &lcf,
                Some(&mut ff_inj),
                &Budget::unlimited(),
                None,
            )
            .unwrap();
        assert_eq!(r.stats, slow, "fault trial must be path-independent");
        assert_eq!(slow_inj.applied, ff_inj.applied);
        assert_eq!(slow_inj.population, ff_inj.population);
        assert_eq!(gf.host_read_block(outf, 64), slow_out);
        assert_eq!(gf.host_read_block(out, 64), gs.host_read_block(out, 64));
        let _ = out;
    }
}
