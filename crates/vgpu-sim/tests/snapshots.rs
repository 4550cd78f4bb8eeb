//! The chunk store's contract: a machine restored to a snapshot — from
//! whatever it was doing before, copying only what may differ — is that
//! snapshot bit for bit, and a compare that looks only at what may differ
//! decides as a compare of everything would.

use proptest::prelude::*;
use vgpu_arch::{CmpOp, Kernel, KernelBuilder, LaunchConfig, MemSpace, SpecialReg};
use vgpu_sim::{
    ArenaPlanner, Budget, ChunkStore, ConvergeWith, FaultPattern, FaultPlan, Gpu, GpuConfig,
    HwStructure, Mode, ResumeOutcome, SnapId, Stats, UarchFault, UarchInjector,
};

const CTAS: u32 = 24;
const BLOCK: u32 = 64;

/// out[cta] = sum of in[cta * BLOCK ..][..BLOCK], through shared memory and
/// a barrier: every structure a fault can land in sees traffic, and more
/// CTAs than slots means slots are freed and refilled mid-launch.
fn reduce_kernel() -> Kernel {
    let mut a = KernelBuilder::new("reduce");
    a.alloc_smem(BLOCK * 4);
    let (tid, gid, tmp, addr, v) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
    let p = a.pred();
    a.s2r(tid, SpecialReg::TidX);
    a.linear_tid(gid, tmp);
    a.mov(addr, a.param(0));
    a.iscadd(addr, gid, addr, 2);
    a.ld(v, MemSpace::Global, addr, 0);
    a.shl(addr, tid, 2u32);
    a.st(MemSpace::Shared, addr, 0, v);
    a.bar();
    a.isetp(p, tid, 0u32, CmpOp::Eq, true);
    a.if_then(p, false, |a| {
        let (acc, i, w) = (a.reg(), a.reg(), a.reg());
        let q = a.pred();
        a.mov(acc, 0u32);
        a.mov(i, 0u32);
        a.loop_while(|a| {
            a.shl(w, i, 2u32);
            a.ld(w, MemSpace::Shared, w, 0);
            a.iadd(acc, acc, w);
            a.iadd(i, i, 1u32);
            a.s2r(w, SpecialReg::NTidX);
            a.isetp(q, i, vgpu_arch::Operand::Reg(w), CmpOp::Lt, true);
            (q, false)
        });
        let o = a.reg();
        a.s2r(o, SpecialReg::CtaIdX);
        a.mov(w, a.param(1));
        a.iscadd(o, o, w, 2);
        a.st(MemSpace::Global, o, 0, acc);
    });
    a.build().unwrap()
}

/// One golden launch of [`reduce_kernel`] with its snapshots.
struct Rig {
    cfg: GpuConfig,
    kernel: Kernel,
    lc: LaunchConfig,
    input: u32,
    output: u32,
    golden: Stats,
    golden_out: Vec<u32>,
    store: ChunkStore,
    /// Before the launch, after the host wrote the input.
    start: SnapId,
    /// Mid-launch, ascending by cycle, cycle 0 first.
    mids: Vec<SnapId>,
    end: SnapId,
}

fn fresh_gpu(cfg: &GpuConfig) -> (Gpu, u32, u32) {
    let mut planner = ArenaPlanner::new();
    let input = planner.alloc(CTAS * BLOCK * 4);
    let output = planner.alloc(CTAS * 4);
    let gpu = Gpu::new(cfg.clone(), planner.build(), Mode::Timed);
    (gpu, input, output)
}

impl Rig {
    fn new() -> Rig {
        let cfg = GpuConfig::volta_scaled(2);
        let kernel = reduce_kernel();
        let words: Vec<u32> = (0..CTAS * BLOCK)
            .map(|i| i.wrapping_mul(2654435761))
            .collect();
        let run = |gpu: &mut Gpu, input| gpu.host_write_block(input, &words);

        let (mut plain, input, output) = fresh_gpu(&cfg);
        let lc = LaunchConfig::new(CTAS, BLOCK, vec![input, output]);
        run(&mut plain, input);
        let golden = plain
            .launch(&kernel, &lc, FaultPlan::None, &Budget::unlimited())
            .unwrap();
        let golden_out = plain.host_read_block(output, CTAS);

        let (mut gpu, ..) = fresh_gpu(&cfg);
        let mut store = ChunkStore::new();
        run(&mut gpu, input);
        let start = gpu.capture(&mut store);
        let at: Vec<u64> = (0..6).map(|i| i * golden.cycles / 6).collect();
        let (stats, mids) = gpu
            .launch_instrumented(&kernel, &lc, &Budget::unlimited(), &at, &mut store)
            .unwrap();
        assert_eq!(stats, golden, "capture must not perturb the run");
        assert_eq!(mids.len(), at.len());
        let end = gpu.capture(&mut store);
        store.shrink_to_fit();
        Rig {
            cfg,
            kernel,
            lc,
            input,
            output,
            golden,
            golden_out,
            store,
            start,
            mids,
            end,
        }
    }

    fn gpu(&self) -> Gpu {
        fresh_gpu(&self.cfg).0
    }

    fn all_snaps(&self) -> Vec<SnapId> {
        let mut v = vec![self.start];
        v.extend(&self.mids);
        v.push(self.end);
        v
    }

    /// Resume from `mids[from]` with `fault` (its cycle an offset into
    /// the rest of the launch), convergence exit armed.
    fn faulty_resume(
        &self,
        gpu: &mut Gpu,
        from: usize,
        mut fault: UarchFault,
    ) -> (Option<ResumeOutcome>, UarchInjector) {
        let at = self.store.cycle(self.mids[from]).unwrap();
        fault.cycle = at + fault.cycle % (self.golden.cycles - at);
        let mut inj = UarchInjector::new(fault);
        let cv = ConvergeWith {
            snaps: &self.mids,
            end_stats: self.golden,
        };
        let budget = Budget {
            cycles: self.golden.cycles * 10,
            instrs: u64::MAX / 2,
        };
        let out = gpu
            .resume_from(
                &self.store,
                self.mids[from],
                &self.kernel,
                &self.lc,
                Some(&mut inj),
                &budget,
                Some(cv),
            )
            .ok();
        (out, inj)
    }
}

fn fault(structure: HwStructure, pattern: FaultPattern, cycle: u64, loc_pick: u64) -> UarchFault {
    UarchFault {
        cycle,
        structure,
        loc_pick,
        bit: (loc_pick % 32) as u8,
        pattern,
    }
}

#[test]
fn snapshots_share_what_did_not_change() {
    let rig = Rig::new();
    let (owned, shared) = rig.store.chunks();
    assert_eq!(rig.store.len(), rig.all_snaps().len());
    assert!(
        shared > 4 * owned,
        "eight snapshots of one short launch mostly share: {owned} owned, {shared} shared"
    );
    // Owned chunks are 256 bytes each; the tables cost 4 bytes an entry.
    let floor = owned * 256 + (owned + shared) * 4;
    let bytes = rig.store.heap_bytes();
    assert!(bytes >= floor, "{bytes} B cannot hold {owned} chunks");
    assert!(
        bytes < floor + floor / 4 + (64 << 10),
        "{bytes} B for {owned} chunks"
    );
}

#[test]
fn host_word_reads_what_a_restored_machine_would() {
    let rig = Rig::new();
    let mut gpu = rig.gpu();
    for snap in rig.all_snaps() {
        gpu.restore(&rig.store, snap);
        for (base, words) in [(rig.input, CTAS * BLOCK), (rig.output, CTAS)] {
            for addr in (0..words).map(|i| base + 4 * i) {
                assert_eq!(rig.store.host_word(snap, addr), gpu.host_read_u32(addr));
            }
        }
    }
    assert_eq!(gpu.host_read_block(rig.output, CTAS), rig.golden_out);
}

#[test]
fn persistent_faults_never_take_the_convergence_exit() {
    let rig = Rig::new();
    let mut gpu = rig.gpu();
    for pattern in [FaultPattern::StuckAt0, FaultPattern::StuckAt1] {
        for structure in HwStructure::ALL {
            let (out, _) = rig.faulty_resume(&mut gpu, 1, fault(structure, pattern, 3, 0x5eed));
            assert!(
                out.is_none_or(|o| o.converged_at.is_none()),
                "{structure:?} {pattern:?} converged mid-launch"
            );
        }
    }
}

#[test]
fn dead_state_left_by_one_trial_cannot_reach_the_next() {
    let rig = Rig::new();
    // At cycle 0 every L1 line is invalid: the flip lands in dead state
    // and the run converges at the first golden snapshot it reaches.
    let dead = fault(HwStructure::L1D, FaultPattern::SingleBit, 0, 12345);
    // A burst down a register-file column runs past its CTA slot into
    // whatever slot follows — late in the launch, a free one.
    let spill = fault(HwStructure::RegFile, FaultPattern::BurstCol, 0, !0);
    let second = fault(HwStructure::L2, FaultPattern::SingleBit, 7, 0xabcdef);

    let mut used = rig.gpu();
    let (out, _) = rig.faulty_resume(&mut used, 0, dead);
    assert!(out.unwrap().converged_at.is_some(), "a dead flip converges");
    rig.faulty_resume(&mut used, rig.mids.len() - 1, spill);

    let mut clean = rig.gpu();
    let (a, inj_a) = rig.faulty_resume(&mut used, 2, second);
    let (b, inj_b) = rig.faulty_resume(&mut clean, 2, second);
    let (a, b) = (a.unwrap(), b.unwrap());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.converged_at, b.converged_at);
    assert_eq!(
        (inj_a.applied, inj_a.population),
        (inj_b.applied, inj_b.population)
    );
    assert!(
        a.restored_bytes < b.restored_bytes,
        "a synchronised machine copies less than a fresh one"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever a machine did before — resumed anywhere, with any fault,
    /// converged, crashed or run to the end — restoring it to any snapshot
    /// gives exactly the machine a verbatim restore of a fresh one gives,
    /// and it then runs exactly like it.
    #[test]
    fn diff_restore_is_verbatim_restore(
        steps in proptest::collection::vec(
            (0usize..6, 0usize..7, 0usize..7, 0u64..u64::MAX, 0u64..u64::MAX, 0usize..8),
            1..5,
        ),
    ) {
        let rig = Rig::new();
        let snaps = rig.all_snaps();
        let mut used = rig.gpu();
        for (from, structure, pattern, cycle, loc_pick, target) in steps {
            let f = fault(
                HwStructure::INJECTABLE[structure],
                FaultPattern::ALL[pattern],
                cycle,
                loc_pick,
            );
            rig.faulty_resume(&mut used, from, f);
            let target = snaps[target];
            used.restore(&rig.store, target);
            let mut fresh = rig.gpu();
            fresh.restore(&rig.store, target);
            prop_assert!(used.matches_image(&rig.store, target));
            prop_assert!(fresh.matches_image(&rig.store, target));
            prop_assert_eq!(
                used.converged(&rig.store, rig.end),
                fresh.converged(&rig.store, rig.end)
            );
            if rig.store.cycle(target).is_some() {
                let run = |gpu: &mut Gpu| {
                    let out = gpu
                        .resume_from(
                            &rig.store, target, &rig.kernel, &rig.lc, None,
                            &Budget::unlimited(), None,
                        )
                        .unwrap();
                    (out.stats, gpu.host_read_block(rig.output, CTAS))
                };
                let got = run(&mut used);
                prop_assert_eq!(&got, &run(&mut fresh));
                prop_assert_eq!(got, (rig.golden, rig.golden_out.clone()));
                prop_assert!(used.converged(&rig.store, rig.end));
            }
        }
    }
}
