//! Harness-level integration tests: TMR layout invariants, the vote
//! kernel's repair and failure paths, and fault-outcome classification.

use std::sync::OnceLock;

use kernels::apps::va::{self, Va};
use kernels::{
    faulty_run, golden_run, AppAbort, Benchmark, Outcome, PlannedFault, RunCtl, Variant,
};
use vgpu_arch::{Kernel, MemSpace};
use vgpu_sim::{GpuConfig, Mode, SwFault, SwFaultKind, UarchFault};

/// A tiny benchmark that lets the test desynchronise TMR copies between
/// the compute launch and the vote: `corrupt = (copy_index, delta or 0)`.
struct VoteProbe {
    /// Word values written per copy before voting (copy 0, 1, 2).
    values: [u32; 3],
}

/// A trivial kernel writing 1 to out[gid] in each copy, built once per
/// process.
fn probe_kernel() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = vgpu_arch::KernelBuilder::new("probe");
        let roff = kernels::tmr::prologue(&mut a);
        let (gid, tmp, addr, v) = (a.reg(), a.reg(), a.reg(), a.reg());
        a.linear_tid(gid, tmp);
        kernels::tmr::load_ptr(&mut a, addr, roff, 0);
        a.iscadd(addr, gid, vgpu_arch::Operand::Reg(addr), 2);
        a.mov(v, 1u32);
        a.st(MemSpace::Global, addr, 0, v);
        a.build().unwrap()
    })
}

impl Benchmark for VoteProbe {
    fn name(&self) -> &'static str {
        "VoteProbe"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let bufs = ctl.alloc(&[64]);
        let out = bufs[0];
        ctl.set_outputs(&[(out, 16)]);
        ctl.launch(0, probe_kernel(), 1, 16, vec![out])?;
        // Desynchronise the copies of word 3 before voting.
        if ctl.hardened() {
            let stride = ctl.tmr_stride();
            for (c, &val) in self.values.iter().enumerate() {
                ctl.write_u32_single(out + 12 + c as u32 * stride, val);
            }
        }
        ctl.vote(0, &[(out, 16)])?;
        Ok(())
    }
}

#[test]
fn vote_repairs_a_single_corrupted_copy() {
    // Copies: 9, 1, 1 → majority 1 wins, run completes.
    let probe = VoteProbe { values: [9, 1, 1] };
    let g = golden_run(&probe, &GpuConfig::default(), Variant::TIMED_TMR);
    assert_eq!(g.output[3], 1, "majority value restored");
}

#[test]
fn vote_repairs_copy_one_and_two_positions() {
    for values in [[1, 9, 1], [1, 1, 9]] {
        let probe = VoteProbe { values };
        let g = golden_run(&probe, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(g.output[3], 1, "{values:?}");
    }
}

#[test]
#[should_panic(expected = "VoteFailed")]
fn vote_with_three_different_copies_is_a_due() {
    // All three copies differ → the paper's red arrow: DUE.
    // golden_run panics on an aborted fault-free run, which is exactly the
    // assertable behaviour here.
    let probe = VoteProbe { values: [7, 8, 9] };
    golden_run(&probe, &GpuConfig::default(), Variant::TIMED_TMR);
}

#[test]
fn tmr_stride_is_uniform_and_copies_replicated() {
    struct LayoutProbe;
    impl Benchmark for LayoutProbe {
        fn name(&self) -> &'static str {
            "LayoutProbe"
        }
        fn kernels(&self) -> &'static [&'static str] {
            &["K1"]
        }
        fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
            let bufs = ctl.alloc(&[256, 1024, 64]);
            ctl.write_u32(bufs[1] + 40, 0xCAFE);
            let stride = ctl.tmr_stride();
            assert!(stride > 0);
            for c in 0..3 {
                assert_eq!(ctl.read_u32(bufs[1] + 40 + c * stride), 0xCAFE, "copy {c}");
            }
            ctl.set_outputs(&[(bufs[0], 4)]);
            // Minimal kernel so the harness accepts the run.
            static NOP: OnceLock<Kernel> = OnceLock::new();
            let k = NOP.get_or_init(|| {
                let mut a = vgpu_arch::KernelBuilder::new("nop");
                let r = a.reg();
                a.mov(r, 0u32);
                a.build().unwrap()
            });
            ctl.launch(0, k, 1, 32, vec![])?;
            Ok(())
        }
    }
    golden_run(&LayoutProbe, &GpuConfig::default(), Variant::TIMED_TMR);
}

#[test]
fn unhardened_ctl_has_no_stride_and_no_votes() {
    let g = golden_run(&Va, &GpuConfig::default(), Variant::TIMED);
    assert!(g.records.iter().all(|r| !r.is_vote));
}

#[test]
fn planted_sw_fault_in_output_value_is_an_sdc() {
    // VA: the FADD destination is the output value; a high bit flip in a
    // mid-stream FADD must surface as SDC.
    let cfg = GpuConfig::default();
    let variant = Variant {
        mode: Mode::Functional,
        hardened: false,
    };
    let golden = golden_run(&Va, &cfg, variant);
    let mut sdcs = 0;
    let elig = golden.records[0].stats.gp_dest_instrs;
    for t in 0..40 {
        // Spread the targets across the whole dynamic stream so some land
        // on value-producing instructions (loads, the FADD) rather than
        // address arithmetic.
        let res = faulty_run(
            &Va,
            &cfg,
            variant,
            &golden,
            0,
            PlannedFault::Sw(SwFault {
                kind: SwFaultKind::DestValue,
                target: elig * t / 40 + t,
                bit: 30,
                loc_pick: 0,
                pattern: vgpu_sim::FaultPattern::SingleBit,
            }),
        );
        assert!(res.applied);
        if res.outcome == Outcome::Sdc {
            sdcs += 1;
        }
    }
    assert!(sdcs > 0, "high-bit value flips must produce SDCs");
}

#[test]
fn fault_beyond_stream_is_masked_and_not_applied() {
    let cfg = GpuConfig::default();
    let variant = Variant {
        mode: Mode::Functional,
        hardened: false,
    };
    let golden = golden_run(&Va, &cfg, variant);
    let res = faulty_run(
        &Va,
        &cfg,
        variant,
        &golden,
        0,
        PlannedFault::Sw(SwFault {
            kind: SwFaultKind::DestValue,
            target: u64::MAX / 2,
            bit: 0,
            loc_pick: 0,
            pattern: vgpu_sim::FaultPattern::SingleBit,
        }),
    );
    assert_eq!(res.outcome, Outcome::Masked);
    assert!(!res.applied, "target past the eligible stream never fires");
}

#[test]
fn uarch_fault_after_kernel_end_is_masked() {
    let cfg = GpuConfig::default();
    let variant = Variant {
        mode: Mode::Timed,
        hardened: false,
    };
    let golden = golden_run(&Va, &cfg, variant);
    let res = faulty_run(
        &Va,
        &cfg,
        variant,
        &golden,
        0,
        PlannedFault::Uarch(UarchFault {
            cycle: golden.records[0].stats.cycles + 10_000,
            structure: vgpu_sim::HwStructure::RegFile,
            loc_pick: 42,
            bit: 5,
            pattern: vgpu_sim::FaultPattern::SingleBit,
        }),
    );
    assert_eq!(res.outcome, Outcome::Masked);
}

#[test]
fn hardened_run_result_matches_cpu_reference_for_va() {
    let g = golden_run(&Va, &GpuConfig::default(), Variant::FUNCTIONAL_TMR);
    let want = va::cpu_reference();
    for (i, (&got, &want)) in g.output.iter().zip(want.iter()).enumerate() {
        assert_eq!(f32::from_bits(got), want, "element {i}");
    }
}
