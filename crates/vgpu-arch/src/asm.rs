//! Assembler DSL for writing kernels with structured SIMT control flow.
//!
//! Hand-writing reconvergence points is error prone, so the builder exposes
//! structured constructs — [`KernelBuilder::if_then`],
//! [`KernelBuilder::if_then_else`], [`KernelBuilder::loop_while`] — and
//! computes branch targets and immediate-post-dominator reconvergence PCs
//! itself. Registers can be allocated sequentially ([`KernelBuilder::reg`])
//! or named explicitly; shared memory is handed out by a bump allocator
//! ([`KernelBuilder::alloc_smem`]).

use crate::instr::{Guard, Instr};
use crate::kernel::{Kernel, ValidateError};
use crate::op::{BoolOp, CmpOp, MemSpace, Op, Operand};
use crate::reg::{Pred, Reg, SpecialReg};

/// Incremental kernel assembler. See the module docs for an overview.
///
/// # Example
///
/// ```
/// use vgpu_arch::{KernelBuilder, CmpOp, MemSpace};
///
/// let mut a = KernelBuilder::new("saxpy_like");
/// let (gid, tmp, x, p) = (a.reg(), a.reg(), a.reg(), a.pred());
/// a.linear_tid(gid, tmp);                    // gid = ctaid.x * ntid.x + tid.x
/// a.mov(tmp, a.param(1));                    // n
/// a.isetp(p, gid, tmp, CmpOp::Lt, true);     // p = gid < n
/// a.if_then(p, false, |a| {
///     let addr = a.reg();
///     a.mov(addr, a.param(0));               // base pointer
///     a.iscadd(addr, gid, addr, 2);          // addr = base + 4*gid
///     a.ld(x, MemSpace::Global, addr, 0);
///     a.fadd(x, x, 1.0f32);
///     a.st(MemSpace::Global, addr, 0, x);
/// });
/// let k = a.build().unwrap();
/// assert!(k.num_regs >= 4);
/// ```
pub struct KernelBuilder {
    name: String,
    instrs: Vec<Instr>,
    smem_bytes: u32,
    next_reg: u8,
    next_pred: u8,
    ambient: Option<Guard>,
}

impl KernelBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            instrs: Vec::new(),
            smem_bytes: 0,
            next_reg: 0,
            next_pred: 0,
            ambient: None,
        }
    }

    /// Allocate the next free general-purpose register.
    ///
    /// # Panics
    /// Panics after 64 registers — more than any of our kernels need and a
    /// realistic per-thread architectural limit.
    pub fn reg(&mut self) -> Reg {
        assert!(self.next_reg < 64, "register allocator exhausted");
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Allocate the next free predicate register (max 4).
    pub fn pred(&mut self) -> Pred {
        assert!(
            self.next_pred < crate::NUM_PREDS,
            "predicate allocator exhausted"
        );
        let p = Pred(self.next_pred);
        self.next_pred += 1;
        p
    }

    /// Allocate `bytes` of static shared memory, returning the byte offset
    /// of the allocation (word aligned).
    pub fn alloc_smem(&mut self, bytes: u32) -> u32 {
        let off = self.smem_bytes;
        self.smem_bytes += bytes.div_ceil(4) * 4;
        off
    }

    /// Constant-bank operand for kernel parameter word `i`.
    pub fn param(&self, i: u16) -> Operand {
        Operand::Const(i)
    }

    /// Current PC (index of the next instruction to be emitted).
    pub fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    /// Emit a raw (optionally ambient-guarded) op.
    pub fn emit(&mut self, op: Op) {
        self.instrs.push(Instr {
            op,
            guard: self.ambient,
        });
    }

    /// Emit `op` under an explicit guard, ignoring the ambient guard.
    pub fn emit_guarded(&mut self, op: Op, pred: Pred, negate: bool) {
        self.instrs.push(Instr::guarded(op, pred, negate));
    }

    /// Run `f` with every emitted instruction predicated on `pred ^ negate`.
    /// Useful for short conditional sequences where a branch would be
    /// overkill (the SASS `@P` idiom).
    pub fn predicated(&mut self, pred: Pred, negate: bool, f: impl FnOnce(&mut Self)) {
        let saved = self.ambient;
        self.ambient = Some(Guard::new(pred, negate));
        f(self);
        self.ambient = saved;
    }

    // ---- instruction emitters -------------------------------------------

    pub fn s2r(&mut self, d: Reg, sr: SpecialReg) {
        self.emit(Op::S2R { d, sr });
    }
    pub fn mov(&mut self, d: Reg, a: impl Into<Operand>) {
        self.emit(Op::Mov { d, a: a.into() });
    }
    pub fn iadd(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::IAdd { d, a, b: b.into() });
    }
    pub fn isub(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::ISub { d, a, b: b.into() });
    }
    pub fn imul(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::IMul { d, a, b: b.into() });
    }
    pub fn imad(&mut self, d: Reg, a: Reg, b: impl Into<Operand>, c: impl Into<Operand>) {
        self.emit(Op::IMad {
            d,
            a,
            b: b.into(),
            c: c.into(),
        });
    }
    /// `d = (a << shift) + b` — the scaled-index addressing idiom.
    pub fn iscadd(&mut self, d: Reg, a: Reg, b: impl Into<Operand>, shift: u8) {
        self.emit(Op::IScAdd {
            d,
            a,
            b: b.into(),
            shift,
        });
    }
    pub fn imin(&mut self, d: Reg, a: Reg, b: impl Into<Operand>, signed: bool) {
        self.emit(Op::IMnMx {
            d,
            a,
            b: b.into(),
            max: false,
            signed,
        });
    }
    pub fn imax(&mut self, d: Reg, a: Reg, b: impl Into<Operand>, signed: bool) {
        self.emit(Op::IMnMx {
            d,
            a,
            b: b.into(),
            max: true,
            signed,
        });
    }
    pub fn shl(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::Shl { d, a, b: b.into() });
    }
    pub fn shr(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::Shr { d, a, b: b.into() });
    }
    pub fn and(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::And { d, a, b: b.into() });
    }
    pub fn or(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::Or { d, a, b: b.into() });
    }
    pub fn xor(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::Xor { d, a, b: b.into() });
    }
    pub fn not(&mut self, d: Reg, a: Reg) {
        self.emit(Op::Not { d, a });
    }
    pub fn fadd(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::FAdd { d, a, b: b.into() });
    }
    pub fn fmul(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::FMul { d, a, b: b.into() });
    }
    pub fn ffma(&mut self, d: Reg, a: Reg, b: impl Into<Operand>, c: impl Into<Operand>) {
        self.emit(Op::FFma {
            d,
            a,
            b: b.into(),
            c: c.into(),
        });
    }
    pub fn fmin(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::FMnMx {
            d,
            a,
            b: b.into(),
            max: false,
        });
    }
    pub fn fmax(&mut self, d: Reg, a: Reg, b: impl Into<Operand>) {
        self.emit(Op::FMnMx {
            d,
            a,
            b: b.into(),
            max: true,
        });
    }
    pub fn frcp(&mut self, d: Reg, a: Reg) {
        self.emit(Op::FRcp { d, a });
    }
    pub fn fsqrt(&mut self, d: Reg, a: Reg) {
        self.emit(Op::FSqrt { d, a });
    }
    pub fn fexp(&mut self, d: Reg, a: Reg) {
        self.emit(Op::FExp { d, a });
    }
    pub fn flog(&mut self, d: Reg, a: Reg) {
        self.emit(Op::FLog { d, a });
    }
    pub fn fabs(&mut self, d: Reg, a: Reg) {
        self.emit(Op::FAbs { d, a });
    }
    pub fn i2f(&mut self, d: Reg, a: Reg) {
        self.emit(Op::I2F { d, a });
    }
    pub fn f2i(&mut self, d: Reg, a: Reg) {
        self.emit(Op::F2I { d, a });
    }
    pub fn isetp(&mut self, p: Pred, a: Reg, b: impl Into<Operand>, cmp: CmpOp, signed: bool) {
        self.emit(Op::ISetP {
            p,
            a,
            b: b.into(),
            cmp,
            signed,
        });
    }
    pub fn fsetp(&mut self, p: Pred, a: Reg, b: impl Into<Operand>, cmp: CmpOp) {
        self.emit(Op::FSetP {
            p,
            a,
            b: b.into(),
            cmp,
        });
    }
    pub fn psetp(&mut self, p: Pred, a: Pred, b: Pred, op: BoolOp, na: bool, nb: bool) {
        self.emit(Op::PSetP {
            p,
            a,
            b,
            op,
            na,
            nb,
        });
    }
    pub fn sel(&mut self, d: Reg, a: Reg, b: impl Into<Operand>, p: Pred, neg: bool) {
        self.emit(Op::Sel {
            d,
            a,
            b: b.into(),
            p,
            neg,
        });
    }
    pub fn ld(&mut self, d: Reg, space: MemSpace, a: Reg, off: i32) {
        self.emit(Op::Ld { d, space, a, off });
    }
    pub fn st(&mut self, space: MemSpace, a: Reg, off: i32, v: Reg) {
        self.emit(Op::St { space, a, off, v });
    }
    pub fn bar(&mut self) {
        self.emit(Op::Bar);
    }
    pub fn exit(&mut self) {
        self.emit(Op::Exit);
    }

    // ---- composite helpers ----------------------------------------------

    /// `d = ctaid.x * ntid.x + tid.x` — the global linear thread id.
    /// Clobbers `tmp`.
    pub fn linear_tid(&mut self, d: Reg, tmp: Reg) {
        self.s2r(d, SpecialReg::CtaIdX);
        self.s2r(tmp, SpecialReg::NTidX);
        self.imul(d, d, tmp);
        self.s2r(tmp, SpecialReg::TidX);
        self.iadd(d, d, tmp);
    }

    // ---- structured control flow ----------------------------------------

    /// Execute `body` in lanes where `pred ^ negate` is true.
    pub fn if_then(&mut self, pred: Pred, negate: bool, body: impl FnOnce(&mut Self)) {
        // Lanes failing the condition jump to the end; reconvergence there.
        let bra_pc = self.instrs.len();
        self.emit_guarded(
            Op::Bra {
                target: 0,
                reconv: 0,
            },
            pred,
            !negate,
        );
        body(self);
        let end = self.here();
        if let Op::Bra { target, reconv } = &mut self.instrs[bra_pc].op {
            *target = end;
            *reconv = end;
        }
    }

    /// Execute `then_body` in lanes where the condition holds, `else_body`
    /// in the rest.
    pub fn if_then_else(
        &mut self,
        pred: Pred,
        negate: bool,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) {
        let bra_to_else = self.instrs.len();
        self.emit_guarded(
            Op::Bra {
                target: 0,
                reconv: 0,
            },
            pred,
            !negate,
        );
        then_body(self);
        let bra_to_end = self.instrs.len();
        self.emit(Op::Bra {
            target: 0,
            reconv: 0,
        });
        let else_start = self.here();
        else_body(self);
        let end = self.here();
        if let Op::Bra { target, reconv } = &mut self.instrs[bra_to_else].op {
            *target = else_start;
            *reconv = end;
        }
        if let Op::Bra { target, reconv } = &mut self.instrs[bra_to_end].op {
            *target = end;
            *reconv = end;
        }
    }

    /// Post-tested loop: run `body`, which must return the continue
    /// condition `(pred, negate)`; lanes where it holds branch back to the
    /// top. Equivalent to `do { body } while (pred ^ negate)`.
    pub fn loop_while(&mut self, body: impl FnOnce(&mut Self) -> (Pred, bool)) {
        let start = self.here();
        let (pred, negate) = body(self);
        let reconv = self.here() + 1;
        self.emit_guarded(
            Op::Bra {
                target: start,
                reconv,
            },
            pred,
            negate,
        );
    }

    /// Finish the kernel: appends `EXIT` if missing, computes the register
    /// high-water mark, and validates.
    pub fn build(mut self) -> Result<Kernel, ValidateError> {
        if !matches!(self.instrs.last().map(|i| i.op), Some(Op::Exit)) {
            self.exit();
        }
        let mut max_reg = 0u16;
        for i in &self.instrs {
            if let Some(d) = i.op.dst_reg() {
                max_reg = max_reg.max(d.0 as u16 + 1);
            }
            for r in i.op.src_regs() {
                max_reg = max_reg.max(r.0 as u16 + 1);
            }
        }
        let num_regs = (max_reg.max(self.next_reg as u16).max(1)) as u8;
        Kernel::new(self.name, self.instrs, num_regs, self.smem_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_allocates_and_counts_regs() {
        let mut a = KernelBuilder::new("t");
        let r0 = a.reg();
        let r1 = a.reg();
        assert_eq!((r0, r1), (Reg(0), Reg(1)));
        a.mov(r0, 1u32);
        a.iadd(r1, r0, 2u32);
        let k = a.build().unwrap();
        assert_eq!(k.num_regs, 2);
        assert!(matches!(k.instrs().last().unwrap().op, Op::Exit));
    }

    #[test]
    fn smem_allocator_aligns() {
        let mut a = KernelBuilder::new("t");
        assert_eq!(a.alloc_smem(6), 0);
        assert_eq!(a.alloc_smem(4), 8);
        a.exit();
        let k = a.build().unwrap();
        assert_eq!(k.smem_bytes, 12);
    }

    #[test]
    fn if_then_patches_branch() {
        let mut a = KernelBuilder::new("t");
        let r = a.reg();
        let p = a.pred();
        a.isetp(p, r, 0u32, CmpOp::Lt, true);
        a.if_then(p, false, |a| {
            a.mov(r, 42u32);
            a.mov(r, 43u32);
        });
        let k = a.build().unwrap();
        // instrs: 0 isetp, 1 bra, 2 mov, 3 mov, 4 exit
        match k.instrs()[1].op {
            Op::Bra { target, reconv } => {
                assert_eq!(target, 4);
                assert_eq!(reconv, 4);
            }
            ref other => panic!("expected Bra, got {other:?}"),
        }
        let g = k.instrs()[1].guard.unwrap();
        assert_eq!(g.pred, p);
        assert!(g.negate, "branch taken when condition is false");
    }

    #[test]
    fn if_then_else_patches_both_branches() {
        let mut a = KernelBuilder::new("t");
        let r = a.reg();
        let p = a.pred();
        a.isetp(p, r, 0u32, CmpOp::Eq, true);
        a.if_then_else(p, false, |a| a.mov(r, 1u32), |a| a.mov(r, 2u32));
        let k = a.build().unwrap();
        // 0 isetp, 1 bra->else(4) rc=5, 2 mov(then), 3 bra->5 rc=5, 4 mov(else), 5 exit
        match k.instrs()[1].op {
            Op::Bra { target, reconv } => {
                assert_eq!(target, 4);
                assert_eq!(reconv, 5);
            }
            ref o => panic!("{o:?}"),
        }
        match k.instrs()[3].op {
            Op::Bra { target, reconv } => {
                assert_eq!(target, 5);
                assert_eq!(reconv, 5);
            }
            ref o => panic!("{o:?}"),
        }
        assert!(
            k.instrs()[3].guard.is_none(),
            "jump over else is unconditional"
        );
    }

    #[test]
    fn loop_while_branches_backward() {
        let mut a = KernelBuilder::new("t");
        let r = a.reg();
        a.mov(r, 0u32);
        a.loop_while(|a| {
            let p = a.pred();
            a.iadd(r, r, 1u32);
            a.isetp(p, r, 10u32, CmpOp::Lt, true);
            (p, false)
        });
        let k = a.build().unwrap();
        // 0 mov, 1 iadd, 2 isetp, 3 bra->1 rc=4, 4 exit
        match k.instrs()[3].op {
            Op::Bra { target, reconv } => {
                assert_eq!(target, 1);
                assert_eq!(reconv, 4);
            }
            ref o => panic!("{o:?}"),
        }
        assert!(!k.instrs()[3].guard.unwrap().negate);
    }

    #[test]
    fn predicated_sets_ambient_guard() {
        let mut a = KernelBuilder::new("t");
        let r = a.reg();
        let p = a.pred();
        a.predicated(p, true, |a| a.mov(r, 7u32));
        a.mov(r, 8u32);
        let k = a.build().unwrap();
        assert_eq!(k.instrs()[0].guard, Some(Guard::new(p, true)));
        assert_eq!(k.instrs()[1].guard, None);
    }

    #[test]
    fn linear_tid_shape() {
        let mut a = KernelBuilder::new("t");
        let d = a.reg();
        let t = a.reg();
        a.linear_tid(d, t);
        let k = a.build().unwrap();
        assert_eq!(k.len(), 6); // 5 + exit
        assert!(matches!(
            k.instrs()[0].op,
            Op::S2R {
                sr: SpecialReg::CtaIdX,
                ..
            }
        ));
    }

    #[test]
    fn nested_control_flow_validates() {
        let mut a = KernelBuilder::new("t");
        let r = a.reg();
        let p = a.pred();
        let q = a.pred();
        a.isetp(p, r, 0u32, CmpOp::Ge, true);
        a.if_then(p, false, |a| {
            a.loop_while(|a| {
                a.iadd(r, r, 1u32);
                a.isetp(q, r, 4u32, CmpOp::Lt, true);
                (q, false)
            });
        });
        assert!(a.build().is_ok());
    }
}
