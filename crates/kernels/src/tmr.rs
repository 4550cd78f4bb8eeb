//! Thread-level Triple Modular Redundancy (Figure 6 of the paper).
//!
//! The transform has three parts:
//!
//! 1. **Pre-processing** — the harness triplicates every device buffer at a
//!    uniform region stride and writes inputs to all three copies
//!    ([`crate::harness::RunCtl::alloc`] / `write_u32`).
//! 2. **Kernel execution** — protected kernels launch with `grid_y == 3`;
//!    the [`prologue`] emitted at the top of every benchmark kernel
//!    computes `roff = ctaid.y * stride` (parameter word 0 holds the
//!    stride, 0 for unhardened launches) and [`load_ptr`] rebases every
//!    buffer pointer by `roff`, so each redundant copy of the grid works on
//!    its own copy of the data.
//! 3. **Post-processing** — after each protected kernel the harness
//!    launches the [`vote_kernel`] over that kernel's output buffers:
//!    majority value wins and is written back to all three copies
//!    (TMR with repair); three mutually different copies raise the vote
//!    flag, which the harness reports as a DUE — exactly the red arrow of
//!    the paper's Figure 6.
//!
//! The vote runs **on the GPU** and is therefore itself subject to
//! microarchitecture faults — this is what lets the cross-layer AVF
//! analysis observe residual SDCs that the software-level SVF analysis
//! declares eliminated (Insight #5).

use std::sync::OnceLock;

use vgpu_arch::{CmpOp, Kernel, KernelBuilder, MemSpace, Operand, Reg, SpecialReg};

/// Threads per CTA of the vote kernel.
pub const VOTE_BLOCK: u32 = 128;

/// Emit the TMR prologue: returns the region-offset register
/// `roff = ctaid.y * params[0]`. Call first, before any [`load_ptr`].
pub fn prologue(a: &mut KernelBuilder) -> Reg {
    let roff = a.reg();
    a.s2r(roff, SpecialReg::CtaIdY);
    a.imul(roff, roff, Operand::Const(0));
    roff
}

/// Load benchmark parameter `idx` (a device pointer) into `d`, rebased to
/// this copy's region. Benchmark parameter `idx` lives in constant-bank
/// word `idx + 1` (word 0 is the TMR stride).
pub fn load_ptr(a: &mut KernelBuilder, d: Reg, roff: Reg, idx: u16) {
    a.mov(d, Operand::Const(idx + 1));
    a.iadd(d, d, roff);
}

/// Constant-bank operand for scalar benchmark parameter `idx` (shifted past
/// the stride word).
pub fn scalar(idx: u16) -> Operand {
    Operand::Const(idx + 1)
}

/// The majority-vote kernel (built on first use).
///
/// Benchmark-level parameters (after the stride word):
/// `0` — copy-0 base address of the buffer to vote, `1` — word count,
/// `2` — address of the vote-failure flag word.
///
/// Each thread votes one word across the three copies, writes the winner
/// back to all copies, and raises the flag when all three disagree.
pub fn vote_kernel() -> &'static Kernel {
    static VOTE: OnceLock<Kernel> = OnceLock::new();
    VOTE.get_or_init(|| {
        let mut a = KernelBuilder::new("tmr_vote");
        let (gid, tmp) = (a.reg(), a.reg());
        let (a0, a1, a2) = (a.reg(), a.reg(), a.reg());
        let (v0, v1, v2, m) = (a.reg(), a.reg(), a.reg(), a.reg());
        let (p_in, p0, p1, p_fail) = (a.pred(), a.pred(), a.pred(), a.pred());
        a.linear_tid(gid, tmp);
        a.isetp(p_in, gid, scalar(1), CmpOp::Lt, true); // gid < words
        a.if_then(p_in, false, |a| {
            // a0 = base + 4*gid; a1/a2 at +stride/+2*stride (stride = c[0]).
            a.mov(a0, scalar(0));
            a.iscadd(a0, gid, Operand::Reg(a0), 2);
            a.mov(tmp, Operand::Const(0));
            a.iadd(a1, a0, Operand::Reg(tmp));
            a.iadd(a2, a1, Operand::Reg(tmp));
            a.ld(v0, MemSpace::Global, a0, 0);
            a.ld(v1, MemSpace::Global, a1, 0);
            a.ld(v2, MemSpace::Global, a2, 0);
            // p0 = (v0 == v1) | (v0 == v2): v0 is a majority value.
            a.isetp(p0, v0, Operand::Reg(v1), CmpOp::Eq, false);
            a.isetp(p1, v0, Operand::Reg(v2), CmpOp::Eq, false);
            a.psetp(p0, p0, p1, vgpu_arch::BoolOp::Or, false, false);
            // p1 = (v1 == v2): v1 is the majority when p0 fails.
            a.isetp(p1, v1, Operand::Reg(v2), CmpOp::Eq, false);
            // m = p1 ? v1 : v0; m = p0 ? v0 : m.
            a.sel(m, v1, Operand::Reg(v0), p1, false);
            a.sel(m, v0, Operand::Reg(m), p0, false);
            // All three differ: raise the flag (any lane may win the race —
            // they all write 1).
            a.psetp(p_fail, p0, p1, vgpu_arch::BoolOp::Or, false, false);
            a.predicated(p_fail, true, |a| {
                a.mov(tmp, scalar(2));
                let one = a.reg();
                a.mov(one, 1u32);
                a.st(MemSpace::Global, tmp, 0, one);
            });
            // Repair: write the voted value back to every copy.
            a.st(MemSpace::Global, a0, 0, m);
            a.st(MemSpace::Global, a1, 0, m);
            a.st(MemSpace::Global, a2, 0, m);
        });
        a.build().expect("vote kernel is well formed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_kernel_builds() {
        let k = vote_kernel();
        assert_eq!(k.name, "tmr_vote");
        assert!(k.num_regs >= 9);
        assert_eq!(k.smem_bytes, 0);
    }

    #[test]
    fn prologue_uses_param_zero() {
        let mut a = KernelBuilder::new("t");
        let roff = prologue(&mut a);
        load_ptr(&mut a, Reg(5), roff, 0);
        let k = a.build().unwrap();
        // prologue: S2R + IMUL c[0]; load_ptr: MOV c[1] + IADD.
        assert!(k.disassemble().contains("c[0x0][0x0]"));
        assert!(k.disassemble().contains("c[0x0][0x4]"));
    }

    #[test]
    fn scalar_shifts_past_stride_word() {
        assert_eq!(scalar(0), Operand::Const(1));
        assert_eq!(scalar(7), Operand::Const(8));
    }
}
