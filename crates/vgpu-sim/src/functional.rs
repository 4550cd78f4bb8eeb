//! The functional engine: hardware-agnostic execution used for
//! software-level (NVBitFI-model) fault injection and golden references.
//!
//! CTAs run sequentially; warps within a CTA run round-robin with a fixed
//! quantum so barriers work. There are no caches, no latencies and no
//! occupancy limits — exactly the abstraction level a binary-instrumentation
//! injector sees, and the reason SVF campaigns are orders of magnitude
//! cheaper than cross-layer AVF campaigns.

use crate::due::{DueKind, LaunchAbort};
use crate::exec::{step_warp, ExecCtx, FlatMem, GMem, StepEvent};
use crate::fault::SwInjector;
use crate::mem::GlobalMem;
use crate::stats::Stats;
use crate::warp::Warp;
use vgpu_arch::{Kernel, LaunchConfig, WARP_SIZE};

/// Instructions a warp may run before yielding to its siblings.
const QUANTUM: u32 = 256;

/// Run one kernel launch functionally. `budget_instrs` bounds the total
/// thread-level dynamic instructions (timeout classification).
pub fn run_functional(
    mem: &mut GlobalMem,
    kernel: &Kernel,
    lc: &LaunchConfig,
    mut sw: Option<&mut SwInjector>,
    budget_instrs: u64,
    max_stack: usize,
) -> Result<Stats, LaunchAbort> {
    let mut stats = Stats::default();
    let mut flat = FlatMem { mem };
    for lin in 0..lc.num_ctas() {
        run_cta(
            &mut flat,
            kernel,
            lc,
            lin,
            sw.as_deref_mut(),
            &mut stats,
            budget_instrs,
            max_stack,
        )?;
    }
    Ok(stats)
}

/// Run CTA `lin` (linear index, x fastest) of a launch to completion
/// against `mem` — the per-CTA step of [`run_functional`], generic over
/// the memory so a caller can journal or filter one CTA's accesses.
///
/// CTAs run strictly one after another and registers, predicates and
/// shared memory die with the CTA, so global memory is the only state
/// that crosses this call: a CTA is a pure function of (kernel, launch
/// configuration, `lin`, the words it loads). `stats` accumulates over
/// the launch and `budget_instrs` bounds its `thread_instrs`, exactly as
/// in a whole-launch run; an injector passed for a CTA other than the
/// first must arrive with `counter` seeded to the eligible population of
/// the CTAs before it ([`crate::SwFaultKind::eligible`]).
#[allow(clippy::too_many_arguments)]
pub fn run_cta<M: GMem>(
    mem: &mut M,
    kernel: &Kernel,
    lc: &LaunchConfig,
    lin: u64,
    mut sw: Option<&mut SwInjector>,
    stats: &mut Stats,
    budget_instrs: u64,
    max_stack: usize,
) -> Result<(), LaunchAbort> {
    let wpc = lc.warps_per_cta() as usize;
    let regs_per_warp = kernel.num_regs as usize * WARP_SIZE;
    let smem_words = (kernel.smem_bytes / 4).max(1) as usize;
    let ctaid_x = (lin % lc.grid_x as u64) as u32;
    let ctaid_y = (lin / lc.grid_x as u64) as u32;
    let mut regs = vec![0u32; wpc * regs_per_warp];
    let mut smem = vec![0u32; smem_words];
    let mut warps: Vec<Warp> = (0..wpc)
        .map(|wi| {
            let first = wi as u32 * WARP_SIZE as u32;
            let lanes = (lc.block_x - first).min(WARP_SIZE as u32);
            let mask = if lanes >= 32 {
                u32::MAX
            } else {
                (1u32 << lanes) - 1
            };
            // Launch order: what `SwStuck::seq` identifies a warp by.
            Warp::new(
                ctaid_x,
                ctaid_y,
                wi as u32,
                mask,
                lin * wpc as u64 + wi as u64,
            )
        })
        .collect();

    let mut running = wpc as u32;
    let mut arrived = 0u32;
    while running > 0 {
        let mut progressed = false;
        // `wi` also derives the warp's register-bank offset and feeds a
        // second disjoint borrow of `warps` below, so iter_mut won't do.
        #[allow(clippy::needless_range_loop)]
        for wi in 0..wpc {
            if warps[wi].done || warps[wi].at_barrier {
                continue;
            }
            let rb = wi * regs_per_warp;
            let mut quantum = QUANTUM;
            loop {
                let mut ctx = ExecCtx {
                    kernel,
                    params: &lc.params,
                    ntid: lc.block_x,
                    nctaid: lc.grid_x,
                    regs: &mut regs[rb..rb + regs_per_warp],
                    smem: &mut smem,
                    mem: &mut *mem,
                    stats: &mut *stats,
                    sw: sw.as_deref_mut(),
                    max_stack,
                };
                match step_warp(&mut warps[wi], &mut ctx).map_err(LaunchAbort::Due)? {
                    StepEvent::Done => {
                        running -= 1;
                        progressed = true;
                        break;
                    }
                    StepEvent::Barrier => {
                        warps[wi].at_barrier = true;
                        arrived += 1;
                        progressed = true;
                        break;
                    }
                    StepEvent::Issued(_) => {
                        progressed = true;
                        quantum -= 1;
                        if quantum == 0 {
                            break;
                        }
                    }
                }
            }
            if stats.thread_instrs > budget_instrs {
                return Err(LaunchAbort::Timeout);
            }
        }
        if running > 0 && arrived >= running {
            arrived = 0;
            for w in warps.iter_mut() {
                w.at_barrier = false;
            }
        } else if !progressed && running > 0 {
            // Every live warp is stuck at a barrier that can never
            // release (fault-corrupted control flow).
            return Err(LaunchAbort::Due(DueKind::BarrierDeadlock));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu_arch::{CmpOp, KernelBuilder, SpecialReg};

    /// A kernel where the first warp exits before the barrier.
    fn early_exit_kernel() -> Kernel {
        let mut a = KernelBuilder::new("early_exit");
        let (tid,) = (a.reg(),);
        let p = a.pred();
        a.s2r(tid, SpecialReg::TidX);
        a.isetp(p, tid, 32u32, CmpOp::Lt, true);
        a.emit_guarded(vgpu_arch::Op::Exit, p, false);
        a.bar();
        a.build().unwrap()
    }

    #[test]
    fn barrier_counts_live_warps_only() {
        // Warp 0 exits pre-barrier; the barrier must release for the one
        // remaining warp (warp-level arrival counting, as on hardware) —
        // the run completes rather than deadlocking.
        let k = early_exit_kernel();
        let mut mem = GlobalMem::new(4096);
        mem.map(0, 4096);
        let lc = LaunchConfig::new(1, 64, vec![]);
        let r = run_functional(&mut mem, &k, &lc, None, u64::MAX / 2, 64);
        assert!(r.is_ok(), "{r:?}");
        let _ = DueKind::BarrierDeadlock; // deadlock is a defensive path
    }

    /// `out[gid] = in[gid] + 1` over a 3-CTA grid.
    fn incr_kernel() -> Kernel {
        let mut a = KernelBuilder::new("incr");
        let (gid, tmp, src, dst, v) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        a.linear_tid(gid, tmp);
        a.mov(src, a.param(0));
        a.iscadd(src, gid, vgpu_arch::Operand::Reg(src), 2);
        a.mov(dst, a.param(1));
        a.iscadd(dst, gid, vgpu_arch::Operand::Reg(dst), 2);
        a.ld(v, vgpu_arch::MemSpace::Global, src, 0);
        a.iadd(v, v, 1u32);
        a.st(vgpu_arch::MemSpace::Global, dst, 0, v);
        a.build().unwrap()
    }

    fn incr_setup() -> (GlobalMem, LaunchConfig) {
        let mut mem = GlobalMem::new(4096);
        mem.map(0, 4096);
        for i in 0..192 {
            mem.write_u32(1024 + i * 4, 100 + i);
        }
        (mem, LaunchConfig::new(3, 64, vec![1024, 2048]))
    }

    #[test]
    fn eligible_population_is_what_the_injector_counts() {
        use crate::fault::{FaultPattern, SwFault, SwFaultKind};
        use vgpu_arch::InstrClass;
        let k = incr_kernel();
        for kind in [
            SwFaultKind::DestValue,
            SwFaultKind::DestValueLoad,
            SwFaultKind::SrcTransient,
            SwFaultKind::SrcPersistent,
            SwFaultKind::ArchState,
            SwFaultKind::DestClass(InstrClass::IntAlu),
            SwFaultKind::DestClass(InstrClass::Ld),
        ] {
            let (mut mem, lc) = incr_setup();
            // A target past the population: the fault never fires and the
            // injector counts the whole launch.
            let mut inj = SwInjector::new(SwFault {
                kind,
                target: u64::MAX,
                bit: 0,
                loc_pick: 0,
                pattern: FaultPattern::SingleBit,
            });
            let stats = run_functional(&mut mem, &k, &lc, Some(&mut inj), u64::MAX, 64).unwrap();
            assert!(!inj.applied);
            assert_eq!(inj.counter, kind.eligible(&stats), "{kind:?}");
            assert!(inj.counter > 0, "{kind:?}");
        }
    }

    #[test]
    fn a_cta_stepped_alone_reproduces_its_share_of_the_launch() {
        use crate::exec::LogMem;
        use crate::fault::{FaultPattern, SwFault, SwFaultKind};
        let k = incr_kernel();
        // Whole launch, stuck-at fault in the second CTA's first load.
        let fault = SwFault {
            kind: SwFaultKind::DestValueLoad,
            target: 64 + 5,
            bit: 9,
            loc_pick: 0,
            pattern: FaultPattern::StuckAt1,
        };
        let (mut whole, lc) = incr_setup();
        let mut inj = SwInjector::new(fault);
        let want = run_functional(&mut whole, &k, &lc, Some(&mut inj), u64::MAX, 64).unwrap();
        assert!(inj.applied);
        assert_eq!(inj.stuck.unwrap().seq, 2, "CTA 1, warp 0 of 2 per CTA");

        // CTA by CTA: 0 and 2 fault-free, 1 with the counter seeded from
        // the statistics CTA 0 left behind; stores journaled.
        let (mut mem, _) = incr_setup();
        let mut stats = Stats::default();
        let mut journal = Vec::new();
        let mut reads = vec![0u32; mem.granule_words()];
        for lin in 0..3 {
            let mut step = (lin == 1).then(|| {
                let mut i = SwInjector::new(fault);
                i.counter = fault.kind.eligible(&stats);
                i
            });
            let mut lm = LogMem {
                mem: &mut mem,
                writes: &mut journal,
                reads: Some(&mut reads),
            };
            run_cta(
                &mut lm,
                &k,
                &lc,
                lin,
                step.as_mut(),
                &mut stats,
                u64::MAX,
                64,
            )
            .unwrap();
            if let Some(i) = step {
                assert!(i.applied);
                assert_eq!(i.stuck, inj.stuck);
            }
        }
        assert_eq!(stats, want);
        assert_eq!(mem, whole);
        assert_eq!(mem.read_u32(2048 + 69 * 4), ((100 + 69) | (1 << 9)) + 1);
        // 192 stores to fresh words, each journaled with the zero it
        // overwrote; loads touched the input's granules only.
        assert_eq!(journal.len(), 192);
        assert!(journal
            .iter()
            .all(|&(a, old)| (2048..2816).contains(&a) && old == 0));
        let granules: u32 = reads.iter().map(|w| w.count_ones()).sum();
        assert_eq!(granules, 192 * 4 / 64);
        assert_ne!(
            reads[crate::mem::granule_bit(1024).0] & crate::mem::granule_bit(1024).1,
            0
        );
    }

    #[test]
    fn instruction_budget_causes_timeout() {
        let mut a = KernelBuilder::new("spin");
        let (i,) = (a.reg(),);
        let p = a.pred();
        a.mov(i, 0u32);
        a.loop_while(|a| {
            a.iadd(i, i, 1u32);
            a.isetp(p, i, 1_000_000u32, CmpOp::Lt, true);
            (p, false)
        });
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(4096);
        let lc = LaunchConfig::new(1, 32, vec![]);
        let r = run_functional(&mut mem, &k, &lc, None, 10_000, 64);
        assert_eq!(r.unwrap_err(), LaunchAbort::Timeout);
    }
}
