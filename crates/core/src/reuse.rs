//! The register-reuse analyzer the paper proposes in Section V-B
//! (Figure 12): a fault in a source register should affect *every*
//! subsequent instruction that reads the register, until it is rewritten.
//!
//! Typical software-level injectors model a source-operand fault as
//! instantaneous (one dynamic instruction). The analyzer reconstructs the
//! reuse set so the fault can be replicated to all readers — equivalently,
//! flipping the stored register value persistently. Both behaviours exist
//! as injection modes in the simulator ([`vgpu_sim::SwFaultKind`]);
//! this module provides the static analysis and the paper's exact example.

use vgpu_arch::{Kernel, KernelBuilder, MemSpace, Op, Operand, Reg, SpecialReg};

/// Program counters (after `pc`) whose instructions read `reg` before it
/// is redefined — the red circles of Figure 12.
///
/// The analysis is basic-block scoped: it stops at the first control
/// transfer (`BRA`/`EXIT`) or at the first write to `reg`. A *guarded*
/// write is conservative: it also terminates the scan (the fault may or
/// may not survive it depending on the predicate).
pub fn readers_until_redef(kernel: &Kernel, pc: usize, reg: Reg) -> Vec<usize> {
    let mut readers = Vec::new();
    for (i, instr) in kernel.instrs().iter().enumerate().skip(pc + 1) {
        if instr.op.src_regs().contains(&reg) {
            readers.push(i);
        }
        if instr.op.dst_reg() == Some(reg) {
            break; // redefined (conservatively also for guarded writes)
        }
        if matches!(instr.op, Op::Bra { .. } | Op::Exit) {
            break; // end of the basic block
        }
    }
    readers
}

/// The exact ten-instruction SASS snippet of Figure 12, transcribed into
/// the vGPU ISA (the `c[0x0][...]` kernel arguments become constant-bank
/// words; `R0` of instruction #4 is the register under study).
///
/// ```text
/// #1  S2R R0, SR_CTAID.X
/// #2  S2R R3, SR_TID.X
/// #3  IMAD R4, R0, c[0x0][0x14c], R3
/// #4  ISCADD R3, R0, c[0x0][0x140], 0x2   <- fault lands in source R0
/// #5  ISCADD R2, R0, c[0x0][0x144], 0x2   <- reads corrupted R0
/// #6  LD.CG R3, [R3]
/// #7  ISCADD R0, R0, c[0x0][0x148], 0x2   <- reads corrupted R0 (then redefines it)
/// #8  LD.CG R2, [R2]
/// #9  FADD R3, R0, R2
/// #10 ST [R0], R3
/// ```
pub fn figure12_kernel() -> Kernel {
    let mut a = KernelBuilder::new("figure12");
    let (r0, r2, r3, r4) = (Reg(0), Reg(2), Reg(3), Reg(4));
    a.s2r(r0, SpecialReg::CtaIdX); // #1 (index 0)
    a.s2r(r3, SpecialReg::TidX); // #2
    a.imad(r4, r0, Operand::Const(0x53), Operand::Reg(r3)); // #3
    a.iscadd(r3, r0, Operand::Const(0x50), 2); // #4
    a.iscadd(r2, r0, Operand::Const(0x51), 2); // #5
    a.ld(r3, MemSpace::Global, r3, 0); // #6
    a.iscadd(r0, r0, Operand::Const(0x52), 2); // #7
    a.ld(r2, MemSpace::Global, r2, 0); // #8
    a.fadd(r3, r0, Operand::Reg(r2)); // #9
    a.st(MemSpace::Global, r0, 0, r3); // #10
    a.build().expect("figure 12 snippet is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu_arch::CmpOp;

    #[test]
    fn figure12_reuse_set_is_5_and_7() {
        // Figure 12: a fault in R0 of #4 must affect #5 and #7 — and #7
        // rewrites R0, ending the reuse window before #9/#10.
        let k = figure12_kernel();
        // Our indices are 0-based: #4 is instruction index 3.
        let readers = readers_until_redef(&k, 3, Reg(0));
        assert_eq!(readers, vec![4, 6], "0-based #5 and #7");
    }

    #[test]
    fn scan_stops_at_redefinition() {
        let k = figure12_kernel();
        // R3 written at #4 (idx 3): readers afterwards = #6 (load addr);
        // and #6 redefines R3, so #9 is NOT in the reuse set.
        let readers = readers_until_redef(&k, 3, Reg(3));
        assert_eq!(readers, vec![5]);
    }

    #[test]
    fn scan_stops_at_control_flow() {
        let mut a = KernelBuilder::new("t");
        let r = a.reg();
        let p = a.pred();
        a.mov(r, 1u32); // 0
        a.isetp(p, r, 0u32, CmpOp::Gt, true); // 1 (reads r)
        a.if_then(p, false, |a| {
            a.iadd(r, r, 1u32); // 3 (inside branch)
        });
        let k = a.build().unwrap();
        // From the MOV: the ISETP reads r, then the BRA ends the block.
        assert_eq!(readers_until_redef(&k, 0, r), vec![1]);
    }

    #[test]
    fn figure12_disassembles_like_the_paper() {
        let d = figure12_kernel().disassemble();
        assert!(d.contains("S2R R0, SR_CTAID.X"));
        assert!(d.contains("IMAD R4, R0"));
        assert!(d.contains("ISCADD R3, R0"));
        assert!(d.contains("FADD R3, R0, R2"));
    }
}
