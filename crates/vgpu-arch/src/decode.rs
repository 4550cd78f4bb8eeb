//! The decoded form of a kernel: what the interpreter executes.
//!
//! [`Kernel::new`](crate::Kernel::new) decodes every [`Instr`] once into a
//! dense [`Decoded`] op. Register operands become word offsets of register
//! rows (`reg * WARP_SIZE`), immediates are widened to the words the lanes
//! use, sub-modes that would otherwise be matched on every execution
//! (signedness, min or max, memory space, comparison) are folded into the
//! [`Tag`], and constant-bank operands keep their index, since the bank is
//! a launch's parameters. Each op also records where its straight-line run
//! ends and which instruction counters it adds its active lanes to; the
//! kernel keeps running sums of those counters ([`Kernel::counted`]), so an
//! interpreter that runs a block of ops can count it with a subtraction.
//! [`PcFacts`] are derived from the decoded op.
//!
//! [`Kernel::counted`]: crate::Kernel::counted

use crate::instr::{Guard, Instr};
use crate::kernel::{MemAccess, PcFacts};
use crate::op::{BoolOp, CmpOp, InstrClass, MemSpace, Op, Operand};
use crate::reg::{Reg, SpecialReg};
use crate::WARP_SIZE;

/// A decoded source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A register row: word offset `reg * WARP_SIZE` in the warp's
    /// register window.
    Row(u16),
    /// An immediate, broadcast to every lane.
    Imm(u32),
    /// A constant-bank word index (a kernel parameter).
    Const(u16),
}

impl Src {
    fn of(o: Operand) -> Src {
        match o {
            Operand::Reg(r) => Src::Row(row(r)),
            Operand::Imm(v) => Src::Imm(v),
            Operand::Const(i) => Src::Const(i),
        }
    }
}

/// The word offset of register `r`'s row.
fn row(r: Reg) -> u16 {
    r.0 as u16 * WARP_SIZE as u16
}

/// What a decoded op does. One tag per [`Op`] variant and sub-mode; the
/// comment names the [`Decoded`] fields the tag reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// `S2R d, SR_TID.X` (`d`); likewise the five below.
    TidX,
    LaneId,
    CtaIdX,
    CtaIdY,
    NTidX,
    NCtaIdX,
    /// `d = b`.
    Mov,
    /// `d = a <op> b`.
    IAdd,
    ISub,
    IMul,
    IMaxS,
    IMinS,
    IMaxU,
    IMinU,
    Shl,
    Shr,
    And,
    Or,
    Xor,
    FAdd,
    FMul,
    FMax,
    FMin,
    /// `d = a * b + c`.
    IMad,
    FFma,
    /// `d = (a << imm) + b`, `imm` already masked to 0..32.
    IScAdd,
    /// `d = <op> a`.
    Not,
    FRcp,
    FSqrt,
    FExp,
    FLog,
    FAbs,
    I2F,
    F2I,
    /// Predicate `d = a <cmp> b`; `imm` holds the comparison table
    /// ([`cmp_table`]).
    ISetPS,
    ISetPU,
    FSetP,
    /// Predicate `d = (P[a] ^ na) <op> (P[b] ^ nb)`: `imm` is the predicate
    /// index of `b`, with `na` in bit 8 and `nb` in bit 9.
    PAnd,
    POr,
    PXor,
    /// `d = (P[imm & 0xff] ^ neg) ? a : b`, `neg` in bit 8 of `imm`.
    Sel,
    /// `d = [a + imm]`.
    LdGlobal,
    LdTex,
    LdShared,
    /// `[a + imm] = b`, `b` a register row.
    StGlobal,
    StShared,
    Bar,
    /// Branch to `imm`, reconverging at `reconv`.
    Bra,
    Exit,
}

impl Tag {
    /// Whether an op of this tag is pure: it reads and writes only its
    /// warp's registers and predicates (and the launch's parameters),
    /// leaves the SIMT stack alone and cannot raise a DUE. Every tag but
    /// the loads, the stores, `Bar`, `Bra` and `Exit`.
    pub fn is_pure(self) -> bool {
        !matches!(
            self,
            Tag::LdGlobal
                | Tag::LdTex
                | Tag::LdShared
                | Tag::StGlobal
                | Tag::StShared
                | Tag::Bar
                | Tag::Bra
                | Tag::Exit
        )
    }

    /// Whether an op of this tag issues to the special-function unit.
    pub fn is_sfu(self) -> bool {
        matches!(self, Tag::FRcp | Tag::FSqrt | Tag::FExp | Tag::FLog)
    }
}

/// The instruction counters an op adds its active lanes to: bit `k` of
/// [`Decoded::counts`] stands for counter `k`, and [`Kernel::counted`]
/// sums a counter over a pc range.
///
/// [`Kernel::counted`]: crate::Kernel::counted
pub mod counter {
    /// Every instruction.
    pub const THREAD: usize = 0;
    /// Instructions with a general-purpose destination.
    pub const GP_DEST: usize = 1;
    /// Global and texture loads.
    pub const GLOBAL_LOAD: usize = 2;
    pub const GLOBAL_STORE: usize = 3;
    /// Shared-memory loads and stores.
    pub const SHARED: usize = 4;
    /// Instructions that read a source register.
    pub const SRC_REG: usize = 5;
    /// `CLASS + c` counts the destinations of class index `c`
    /// ([`crate::InstrClass::index`]).
    pub const CLASS: usize = 6;
    /// Number of counters.
    pub const COUNT: usize = CLASS + crate::InstrClass::COUNT;
}

/// One decoded instruction. Fields a tag does not read are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    pub tag: Tag,
    pub guard: Option<Guard>,
    /// Destination row offset; the destination predicate of a set-predicate
    /// op.
    pub d: u16,
    /// First source row offset; the first predicate of `PAnd`/`POr`/`PXor`.
    pub a: u16,
    pub b: Src,
    pub c: Src,
    /// The tag's immediate (see [`Tag`]).
    pub imm: u32,
    /// The reconvergence pc of a `Bra`.
    pub reconv: u32,
    /// One past the last instruction of this op's straight-line run: the
    /// pc after the next `Bra`, `Bar` or `Exit`, this op included.
    pub end: u32,
    /// The counters this op adds its active lanes to (see [`counter`]).
    pub counts: u16,
}

/// `cmp` on a comparison result as a 4-bit table: bit 0 less, 1 equal,
/// 2 greater, 3 unordered (NaN, where only `Ne` holds).
pub fn cmp_table(cmp: CmpOp) -> u32 {
    use std::cmp::Ordering::*;
    cmp.eval(Less) as u32
        | (cmp.eval(Equal) as u32) << 1
        | (cmp.eval(Greater) as u32) << 2
        | ((cmp == CmpOp::Ne) as u32) << 3
}

impl Decoded {
    /// Decode `i`. `end` is set by the caller, which sees the whole kernel.
    pub(crate) fn of(i: &Instr) -> Decoded {
        let mut o = Decoded {
            tag: Tag::Exit,
            guard: i.guard,
            d: 0,
            a: 0,
            b: Src::Imm(0),
            c: Src::Imm(0),
            imm: 0,
            reconv: 0,
            end: 0,
            counts: 0,
        };
        let mut ab = |tag, d: Reg, a: Reg, b: Operand| {
            o.tag = tag;
            o.d = row(d);
            o.a = row(a);
            o.b = Src::of(b);
        };
        match i.op {
            Op::S2R { d, sr } => {
                o.tag = match sr {
                    SpecialReg::TidX => Tag::TidX,
                    SpecialReg::LaneId => Tag::LaneId,
                    SpecialReg::CtaIdX => Tag::CtaIdX,
                    SpecialReg::CtaIdY => Tag::CtaIdY,
                    SpecialReg::NTidX => Tag::NTidX,
                    SpecialReg::NCtaIdX => Tag::NCtaIdX,
                };
                o.d = row(d);
            }
            Op::Mov { d, a } => {
                o.tag = Tag::Mov;
                o.d = row(d);
                o.b = Src::of(a);
            }
            Op::IAdd { d, a, b } => ab(Tag::IAdd, d, a, b),
            Op::ISub { d, a, b } => ab(Tag::ISub, d, a, b),
            Op::IMul { d, a, b } => ab(Tag::IMul, d, a, b),
            Op::IMnMx {
                d,
                a,
                b,
                max,
                signed,
            } => {
                let tag = match (max, signed) {
                    (true, true) => Tag::IMaxS,
                    (false, true) => Tag::IMinS,
                    (true, false) => Tag::IMaxU,
                    (false, false) => Tag::IMinU,
                };
                ab(tag, d, a, b)
            }
            Op::Shl { d, a, b } => ab(Tag::Shl, d, a, b),
            Op::Shr { d, a, b } => ab(Tag::Shr, d, a, b),
            Op::And { d, a, b } => ab(Tag::And, d, a, b),
            Op::Or { d, a, b } => ab(Tag::Or, d, a, b),
            Op::Xor { d, a, b } => ab(Tag::Xor, d, a, b),
            Op::FAdd { d, a, b } => ab(Tag::FAdd, d, a, b),
            Op::FMul { d, a, b } => ab(Tag::FMul, d, a, b),
            Op::FMnMx { d, a, b, max } => ab(if max { Tag::FMax } else { Tag::FMin }, d, a, b),
            Op::IMad { d, a, b, c } => {
                ab(Tag::IMad, d, a, b);
                o.c = Src::of(c);
            }
            Op::FFma { d, a, b, c } => {
                ab(Tag::FFma, d, a, b);
                o.c = Src::of(c);
            }
            Op::IScAdd { d, a, b, shift } => {
                ab(Tag::IScAdd, d, a, b);
                o.imm = shift as u32 & 31;
            }
            Op::Not { d, a } => ab(Tag::Not, d, a, Operand::Imm(0)),
            Op::FRcp { d, a } => ab(Tag::FRcp, d, a, Operand::Imm(0)),
            Op::FSqrt { d, a } => ab(Tag::FSqrt, d, a, Operand::Imm(0)),
            Op::FExp { d, a } => ab(Tag::FExp, d, a, Operand::Imm(0)),
            Op::FLog { d, a } => ab(Tag::FLog, d, a, Operand::Imm(0)),
            Op::FAbs { d, a } => ab(Tag::FAbs, d, a, Operand::Imm(0)),
            Op::I2F { d, a } => ab(Tag::I2F, d, a, Operand::Imm(0)),
            Op::F2I { d, a } => ab(Tag::F2I, d, a, Operand::Imm(0)),
            Op::ISetP {
                p,
                a,
                b,
                cmp,
                signed,
            } => {
                ab(Tag::ISetPU, Reg(0), a, b);
                if signed {
                    o.tag = Tag::ISetPS;
                }
                o.d = p.0 as u16;
                o.imm = cmp_table(cmp);
            }
            Op::FSetP { p, a, b, cmp } => {
                ab(Tag::FSetP, Reg(0), a, b);
                o.d = p.0 as u16;
                o.imm = cmp_table(cmp);
            }
            Op::PSetP {
                p,
                a,
                b,
                op,
                na,
                nb,
            } => {
                o.tag = match op {
                    BoolOp::And => Tag::PAnd,
                    BoolOp::Or => Tag::POr,
                    BoolOp::Xor => Tag::PXor,
                };
                o.d = p.0 as u16;
                o.a = a.0 as u16;
                o.imm = b.0 as u32 | (na as u32) << 8 | (nb as u32) << 9;
            }
            Op::Sel { d, a, b, p, neg } => {
                ab(Tag::Sel, d, a, b);
                o.imm = p.0 as u32 | (neg as u32) << 8;
            }
            Op::Ld { d, space, a, off } => {
                let tag = match space {
                    MemSpace::Global => Tag::LdGlobal,
                    MemSpace::Tex => Tag::LdTex,
                    MemSpace::Shared => Tag::LdShared,
                };
                ab(tag, d, a, Operand::Imm(0));
                o.imm = off as u32;
            }
            Op::St { space, a, off, v } => {
                // Texture stores fail validation; decode them as global.
                let tag = match space {
                    MemSpace::Shared => Tag::StShared,
                    MemSpace::Global | MemSpace::Tex => Tag::StGlobal,
                };
                ab(tag, Reg(0), a, Operand::Reg(v));
                o.imm = off as u32;
            }
            Op::Bar => o.tag = Tag::Bar,
            Op::Bra { target, reconv } => {
                o.tag = Tag::Bra;
                o.imm = target;
                o.reconv = reconv;
            }
            Op::Exit => o.tag = Tag::Exit,
        }
        o.counts = counts(&o.facts());
        o
    }

    /// Whether this op ends its straight-line run: a branch, a barrier or
    /// an exit.
    pub fn is_control(&self) -> bool {
        matches!(self.tag, Tag::Bra | Tag::Bar | Tag::Exit)
    }

    /// The [`InstrClass`] of this op's destination.
    pub fn class(&self) -> InstrClass {
        use Tag::*;
        match self.tag {
            TidX | LaneId | CtaIdX | CtaIdY | NTidX | NCtaIdX | Mov | Sel => InstrClass::Mov,
            IAdd | ISub | IMul | IMad | IScAdd | IMaxS | IMinS | IMaxU | IMinU | Shl | Shr
            | And | Or | Xor | Not => InstrClass::IntAlu,
            FAdd | FMul | FFma | FMax | FMin | FAbs => InstrClass::FpAlu,
            FRcp | FSqrt | FExp | FLog => InstrClass::Sfu,
            I2F | F2I => InstrClass::Cvt,
            LdGlobal | LdTex | LdShared => InstrClass::Ld,
            ISetPS | ISetPU | FSetP | PAnd | POr | PXor | StGlobal | StShared | Bar | Bra
            | Exit => InstrClass::Other,
        }
    }

    /// What the interpreter's statistics ask of this op.
    pub fn facts(&self) -> PcFacts {
        use Tag::*;
        let class = self.class();
        PcFacts {
            // Exactly the ops with a GP destination have a class other
            // than `Other` (see [`InstrClass`]).
            gp_dest: class != InstrClass::Other,
            class,
            access: match self.tag {
                LdGlobal | LdTex => MemAccess::GlobalLoad,
                StGlobal => MemAccess::GlobalStore,
                LdShared | StShared => MemAccess::Shared,
                _ => MemAccess::None,
            },
            reads_src: match self.tag {
                TidX | LaneId | CtaIdX | CtaIdY | NTidX | NCtaIdX | PAnd | POr | PXor | Bar
                | Bra | Exit => false,
                Mov => matches!(self.b, Src::Row(_)),
                _ => true,
            },
        }
    }
}

/// The counter bits of an op with `facts`.
fn counts(f: &PcFacts) -> u16 {
    let mut m = 1 << counter::THREAD;
    let mut set = |holds: bool, k: usize| m |= (holds as u16) << k;
    set(f.gp_dest, counter::GP_DEST);
    set(f.access == MemAccess::GlobalLoad, counter::GLOBAL_LOAD);
    set(f.access == MemAccess::GlobalStore, counter::GLOBAL_STORE);
    set(f.access == MemAccess::Shared, counter::SHARED);
    set(f.reads_src, counter::SRC_REG);
    if let Some(c) = f.class.index() {
        set(true, counter::CLASS + c);
    }
    m
}

/// Decode `instrs`: one op per pc with its run end, and the running sums
/// of the counters (one row more than there are instructions).
pub(crate) fn decode(instrs: &[Instr]) -> (Vec<Decoded>, Vec<[u16; counter::COUNT]>) {
    let mut ops: Vec<Decoded> = instrs.iter().map(Decoded::of).collect();
    let mut end = ops.len() as u32;
    for (pc, o) in ops.iter_mut().enumerate().rev() {
        if o.is_control() {
            end = pc as u32 + 1;
        }
        o.end = end;
    }
    let mut sums = Vec::with_capacity(ops.len() + 1);
    let mut acc = [0u16; counter::COUNT];
    sums.push(acc);
    for o in &ops {
        for (k, n) in acc.iter_mut().enumerate() {
            *n += o.counts >> k & 1;
        }
        sums.push(acc);
    }
    (ops, sums)
}
