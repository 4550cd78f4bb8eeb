//! The instruction set: operations, operands, comparison and boolean modes.

use crate::reg::{Pred, Reg, SpecialReg};
use std::fmt;

/// The second/third source of most ALU operations: a register, a 32-bit
/// immediate, or a word of the constant bank (kernel parameter space,
/// `c[0x0][idx]` in SASS notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    Reg(Reg),
    Imm(u32),
    Const(u16),
}

impl Operand {
    /// Immediate operand from an `f32` (stored as its IEEE-754 bits).
    pub fn imm_f32(v: f32) -> Self {
        Operand::Imm(v.to_bits())
    }

    /// The register read by this operand, if any.
    pub fn src_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(v as u32)
    }
}

impl From<f32> for Operand {
    fn from(v: f32) -> Self {
        Operand::Imm(v.to_bits())
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{:#x}", v),
            Operand::Const(i) => write!(f, "c[0x0][{:#x}]", *i as u32 * 4),
        }
    }
}

/// Comparison mode for `ISETP`/`FSETP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// Evaluate on a totally ordered comparison result.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "LT",
            CmpOp::Le => "LE",
            CmpOp::Gt => "GT",
            CmpOp::Ge => "GE",
            CmpOp::Eq => "EQ",
            CmpOp::Ne => "NE",
        };
        f.write_str(s)
    }
}

/// Boolean combiner for `PSETP` (predicate-to-predicate logic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolOp {
    And,
    Or,
    Xor,
}

impl BoolOp {
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            BoolOp::And => a && b,
            BoolOp::Or => a || b,
            BoolOp::Xor => a ^ b,
        }
    }
}

/// Memory space addressed by `LD`/`ST`.
///
/// * `Global` — device memory, cached in L1D and L2.
/// * `Shared` — per-CTA scratchpad (SMEM).
/// * `Tex` — read-only global data routed through the L1 texture cache
///   (and L2). Stores to `Tex` are architecturally invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    Global,
    Shared,
    Tex,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemSpace::Global => "GLOBAL",
            MemSpace::Shared => "SHARED",
            MemSpace::Tex => "TEX",
        };
        f.write_str(s)
    }
}

/// One GPU operation. All data operations act on 32-bit values; floating
/// point follows IEEE-754 binary32 with Rust `f32` semantics (deterministic
/// on a given host, which is all statistical fault injection requires).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `d = special register`.
    S2R { d: Reg, sr: SpecialReg },
    /// `d = a` (register move, immediate load, or constant-bank read).
    Mov { d: Reg, a: Operand },
    /// `d = a + b` (wrapping).
    IAdd { d: Reg, a: Reg, b: Operand },
    /// `d = a - b` (wrapping).
    ISub { d: Reg, a: Reg, b: Operand },
    /// `d = a * b` (wrapping, low 32 bits).
    IMul { d: Reg, a: Reg, b: Operand },
    /// `d = a * b + c` (wrapping).
    IMad {
        d: Reg,
        a: Reg,
        b: Operand,
        c: Operand,
    },
    /// `d = (a << shift) + b` — SASS `ISCADD`, the scaled-index address form.
    IScAdd {
        d: Reg,
        a: Reg,
        b: Operand,
        shift: u8,
    },
    /// `d = min(a,b)` or `max(a,b)`, signed or unsigned.
    IMnMx {
        d: Reg,
        a: Reg,
        b: Operand,
        max: bool,
        signed: bool,
    },
    /// Logical shift left.
    Shl { d: Reg, a: Reg, b: Operand },
    /// Logical shift right.
    Shr { d: Reg, a: Reg, b: Operand },
    /// Bitwise and.
    And { d: Reg, a: Reg, b: Operand },
    /// Bitwise or.
    Or { d: Reg, a: Reg, b: Operand },
    /// Bitwise xor.
    Xor { d: Reg, a: Reg, b: Operand },
    /// Bitwise not.
    Not { d: Reg, a: Reg },
    /// `d = a + b` (f32).
    FAdd { d: Reg, a: Reg, b: Operand },
    /// `d = a * b` (f32).
    FMul { d: Reg, a: Reg, b: Operand },
    /// `d = a * b + c` (f32 fused multiply-add).
    FFma {
        d: Reg,
        a: Reg,
        b: Operand,
        c: Operand,
    },
    /// `d = min/max(a,b)` (f32).
    FMnMx {
        d: Reg,
        a: Reg,
        b: Operand,
        max: bool,
    },
    /// `d = 1.0 / a` (f32) — SFU op.
    FRcp { d: Reg, a: Reg },
    /// `d = sqrt(a)` (f32) — SFU op.
    FSqrt { d: Reg, a: Reg },
    /// `d = exp(a)` (f32) — SFU op.
    FExp { d: Reg, a: Reg },
    /// `d = ln(a)` (f32) — SFU op.
    FLog { d: Reg, a: Reg },
    /// `d = |a|` (f32).
    FAbs { d: Reg, a: Reg },
    /// `d = (f32) a` (signed int to float).
    I2F { d: Reg, a: Reg },
    /// `d = (i32) a` (float to signed int, truncating; saturates at the
    /// i32 range, NaN converts to 0 — Rust `as` semantics, matching PTX
    /// `cvt.rzi.s32.f32` saturation behaviour closely enough).
    F2I { d: Reg, a: Reg },
    /// `p = a <cmp> b` on integers.
    ISetP {
        p: Pred,
        a: Reg,
        b: Operand,
        cmp: CmpOp,
        signed: bool,
    },
    /// `p = a <cmp> b` on f32 (ordered; comparisons with NaN are false,
    /// except `Ne` which is true).
    FSetP {
        p: Pred,
        a: Reg,
        b: Operand,
        cmp: CmpOp,
    },
    /// `p = (a ^ na) <bool> (b ^ nb)`.
    PSetP {
        p: Pred,
        a: Pred,
        b: Pred,
        op: BoolOp,
        na: bool,
        nb: bool,
    },
    /// `d = (p ^ neg) ? a : b`.
    Sel {
        d: Reg,
        a: Reg,
        b: Operand,
        p: Pred,
        neg: bool,
    },
    /// `d = [a + off]` (32-bit load from `space`).
    Ld {
        d: Reg,
        space: MemSpace,
        a: Reg,
        off: i32,
    },
    /// `[a + off] = v` (32-bit store to `space`).
    St {
        space: MemSpace,
        a: Reg,
        off: i32,
        v: Reg,
    },
    /// CTA-wide barrier (`BAR.SYNC 0`).
    Bar,
    /// Branch to `target`; `reconv` is the immediate-post-dominator
    /// reconvergence PC used by the SIMT stack on divergence.
    Bra { target: u32, reconv: u32 },
    /// Terminate the thread (lane-maskable).
    Exit,
}

impl Op {
    /// Destination general-purpose register written by this op, if any.
    pub fn dst_reg(&self) -> Option<Reg> {
        use Op::*;
        match *self {
            S2R { d, .. }
            | Mov { d, .. }
            | IAdd { d, .. }
            | ISub { d, .. }
            | IMul { d, .. }
            | IMad { d, .. }
            | IScAdd { d, .. }
            | IMnMx { d, .. }
            | Shl { d, .. }
            | Shr { d, .. }
            | And { d, .. }
            | Or { d, .. }
            | Xor { d, .. }
            | Not { d, .. }
            | FAdd { d, .. }
            | FMul { d, .. }
            | FFma { d, .. }
            | FMnMx { d, .. }
            | FRcp { d, .. }
            | FSqrt { d, .. }
            | FExp { d, .. }
            | FLog { d, .. }
            | FAbs { d, .. }
            | I2F { d, .. }
            | F2I { d, .. }
            | Sel { d, .. }
            | Ld { d, .. } => Some(d),
            _ => None,
        }
    }

    /// General-purpose registers read by this op, in operand order.
    pub fn src_regs(&self) -> SrcRegs {
        use Op::*;
        let mut v = SrcRegs {
            regs: [Reg(0); 3],
            len: 0,
        };
        let push_op = |o: &Operand, v: &mut SrcRegs| {
            if let Some(r) = o.src_reg() {
                v.push(r);
            }
        };
        match self {
            S2R { .. } | Bar | Bra { .. } | Exit | PSetP { .. } => {}
            Mov { a, .. } => push_op(a, &mut v),
            IAdd { a, b, .. }
            | ISub { a, b, .. }
            | IMul { a, b, .. }
            | IMnMx { a, b, .. }
            | Shl { a, b, .. }
            | Shr { a, b, .. }
            | And { a, b, .. }
            | Or { a, b, .. }
            | Xor { a, b, .. }
            | FAdd { a, b, .. }
            | FMul { a, b, .. }
            | FMnMx { a, b, .. }
            | ISetP { a, b, .. }
            | FSetP { a, b, .. }
            | Sel { a, b, .. }
            | IScAdd { a, b, .. } => {
                v.push(*a);
                push_op(b, &mut v);
            }
            IMad { a, b, c, .. } | FFma { a, b, c, .. } => {
                v.push(*a);
                push_op(b, &mut v);
                push_op(c, &mut v);
            }
            Not { a, .. }
            | FRcp { a, .. }
            | FSqrt { a, .. }
            | FExp { a, .. }
            | FLog { a, .. }
            | FAbs { a, .. }
            | I2F { a, .. }
            | F2I { a, .. }
            | Ld { a, .. } => v.push(*a),
            St { a, v: val, .. } => {
                v.push(*a);
                v.push(*val);
            }
        }
        v
    }

    /// True if this is a memory access instruction.
    pub fn is_mem(&self) -> bool {
        matches!(self, Op::Ld { .. } | Op::St { .. })
    }

    /// True for control instructions (no destination value).
    pub fn is_control(&self) -> bool {
        matches!(self, Op::Bra { .. } | Op::Exit | Op::Bar)
    }

    /// True if this op is a "general purpose" instruction in the NVBitFI
    /// sense: it produces a 32-bit value in a destination register and is
    /// therefore eligible for software-level destination-register fault
    /// injection.
    pub fn has_gp_dest(&self) -> bool {
        self.dst_reg().is_some()
    }

    /// Instruction class of this op for two-level statistical modelling
    /// (docs/TWOLEVEL.md). Ops without a general-purpose destination fall
    /// into [`InstrClass::Other`] and carry no injectable population.
    pub fn instr_class(&self) -> InstrClass {
        use Op::*;
        match self {
            S2R { .. } | Mov { .. } | Sel { .. } => InstrClass::Mov,
            IAdd { .. }
            | ISub { .. }
            | IMul { .. }
            | IMad { .. }
            | IScAdd { .. }
            | IMnMx { .. }
            | Shl { .. }
            | Shr { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | Not { .. } => InstrClass::IntAlu,
            FAdd { .. } | FMul { .. } | FFma { .. } | FMnMx { .. } | FAbs { .. } => {
                InstrClass::FpAlu
            }
            FRcp { .. } | FSqrt { .. } | FExp { .. } | FLog { .. } => InstrClass::Sfu,
            I2F { .. } | F2I { .. } => InstrClass::Cvt,
            Ld { .. } => InstrClass::Ld,
            ISetP { .. } | FSetP { .. } | PSetP { .. } | St { .. } | Bar | Bra { .. } | Exit => {
                InstrClass::Other
            }
        }
    }
}

/// The general-purpose registers an op reads ([`Op::src_regs`]): an inline
/// list of at most three, so asking costs no allocation. It derefs to
/// `[Reg]` and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcRegs {
    regs: [Reg; 3],
    len: u8,
}

impl SrcRegs {
    fn push(&mut self, r: Reg) {
        self.regs[self.len as usize] = r;
        self.len += 1;
    }
}

impl std::ops::Deref for SrcRegs {
    type Target = [Reg];
    fn deref(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }
}

impl IntoIterator for SrcRegs {
    type Item = Reg;
    type IntoIter = std::iter::Take<std::array::IntoIter<Reg, 3>>;
    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(self.len as usize)
    }
}

/// Coarse instruction classes for the two-level SDC model (Hari et al.):
/// every op with a general-purpose destination register falls into exactly
/// one of the first [`InstrClass::COUNT`] classes; predicate writers,
/// stores, and control flow land in [`InstrClass::Other`], which has no
/// injectable destination population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Data movement into a register: `S2R`, `MOV`, `SEL`.
    Mov,
    /// Integer ALU: add/sub/mul/mad/shift/logic/min-max.
    IntAlu,
    /// Single-precision FP ALU: add/mul/fma/min-max/abs.
    FpAlu,
    /// Special-function unit: rcp/sqrt/exp/log.
    Sfu,
    /// Int<->float conversions.
    Cvt,
    /// Loads (any memory space).
    Ld,
    /// No general-purpose destination — not an injection stratum.
    Other,
}

impl InstrClass {
    /// Number of classes with an injectable destination population
    /// (everything except [`InstrClass::Other`]).
    pub const COUNT: usize = 6;

    /// The injectable classes, in stable stratum order.
    pub const ALL: [InstrClass; InstrClass::COUNT] = [
        InstrClass::Mov,
        InstrClass::IntAlu,
        InstrClass::FpAlu,
        InstrClass::Sfu,
        InstrClass::Cvt,
        InstrClass::Ld,
    ];

    /// Stable index into per-class count arrays. `Other` has no slot.
    #[inline]
    pub fn index(self) -> Option<usize> {
        match self {
            InstrClass::Mov => Some(0),
            InstrClass::IntAlu => Some(1),
            InstrClass::FpAlu => Some(2),
            InstrClass::Sfu => Some(3),
            InstrClass::Cvt => Some(4),
            InstrClass::Ld => Some(5),
            InstrClass::Other => None,
        }
    }

    /// Stable label used in CSVs, CLI flags, and dispatch frames.
    pub fn label(self) -> &'static str {
        match self {
            InstrClass::Mov => "mov",
            InstrClass::IntAlu => "ialu",
            InstrClass::FpAlu => "falu",
            InstrClass::Sfu => "sfu",
            InstrClass::Cvt => "cvt",
            InstrClass::Ld => "ld",
            InstrClass::Other => "other",
        }
    }

    /// Inverse of [`InstrClass::label`].
    pub fn from_label(s: &str) -> Option<InstrClass> {
        match s {
            "mov" => Some(InstrClass::Mov),
            "ialu" => Some(InstrClass::IntAlu),
            "falu" => Some(InstrClass::FpAlu),
            "sfu" => Some(InstrClass::Sfu),
            "cvt" => Some(InstrClass::Cvt),
            "ld" => Some(InstrClass::Ld),
            "other" => Some(InstrClass::Other),
            _ => None,
        }
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Lt.eval(Less));
        assert!(!CmpOp::Lt.eval(Equal));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Ge.eval(Greater));
        assert!(!CmpOp::Ne.eval(Equal));
        assert!(CmpOp::Eq.eval(Equal));
    }

    #[test]
    fn bool_eval() {
        assert!(BoolOp::And.eval(true, true));
        assert!(!BoolOp::And.eval(true, false));
        assert!(BoolOp::Or.eval(false, true));
        assert!(BoolOp::Xor.eval(true, false));
        assert!(!BoolOp::Xor.eval(true, true));
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg(3)), Operand::Reg(Reg(3)));
        assert_eq!(Operand::from(5u32), Operand::Imm(5));
        assert_eq!(Operand::from(-1i32), Operand::Imm(u32::MAX));
        assert_eq!(Operand::imm_f32(1.0), Operand::Imm(1.0f32.to_bits()));
    }

    #[test]
    fn dst_and_src_regs() {
        let op = Op::IMad {
            d: Reg(4),
            a: Reg(0),
            b: Operand::Const(3),
            c: Operand::Reg(Reg(3)),
        };
        assert_eq!(op.dst_reg(), Some(Reg(4)));
        assert_eq!(*op.src_regs(), [Reg(0), Reg(3)]);
        assert_eq!(
            op.src_regs().into_iter().collect::<Vec<_>>(),
            [Reg(0), Reg(3)]
        );

        let st = Op::St {
            space: MemSpace::Global,
            a: Reg(2),
            off: 4,
            v: Reg(5),
        };
        assert_eq!(st.dst_reg(), None);
        assert_eq!(*st.src_regs(), [Reg(2), Reg(5)]);
        assert!(Op::Bar.src_regs().is_empty());
        assert!(st.is_mem());
    }

    #[test]
    fn instr_class_partitioning() {
        // Every gp-dest op maps to an injectable class; everything else
        // to Other. Index/label/from_label round-trip across ALL.
        let mov = Op::Mov {
            d: Reg(0),
            a: Operand::Imm(1),
        };
        assert_eq!(mov.instr_class(), InstrClass::Mov);
        assert_eq!(
            Op::FFma {
                d: Reg(1),
                a: Reg(0),
                b: Operand::Imm(0),
                c: Operand::Imm(0)
            }
            .instr_class(),
            InstrClass::FpAlu
        );
        assert_eq!(
            Op::FRcp {
                d: Reg(1),
                a: Reg(0)
            }
            .instr_class(),
            InstrClass::Sfu
        );
        assert_eq!(
            Op::Ld {
                d: Reg(1),
                space: MemSpace::Shared,
                a: Reg(0),
                off: 0
            }
            .instr_class(),
            InstrClass::Ld
        );
        assert_eq!(Op::Bar.instr_class(), InstrClass::Other);
        assert_eq!(InstrClass::Other.index(), None);
        for (i, c) in InstrClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), Some(i));
            assert_eq!(InstrClass::from_label(c.label()), Some(*c));
        }
        assert_eq!(InstrClass::from_label("bogus"), None);
    }

    #[test]
    fn gp_dest_classification() {
        assert!(Op::Mov {
            d: Reg(0),
            a: Operand::Imm(1)
        }
        .has_gp_dest());
        assert!(!Op::Bar.has_gp_dest());
        assert!(!Op::Bra {
            target: 0,
            reconv: 1
        }
        .has_gp_dest());
        assert!(!Op::St {
            space: MemSpace::Shared,
            a: Reg(0),
            off: 0,
            v: Reg(1)
        }
        .has_gp_dest());
        assert!(Op::Ld {
            d: Reg(1),
            space: MemSpace::Global,
            a: Reg(0),
            off: 0
        }
        .has_gp_dest());
    }
}
