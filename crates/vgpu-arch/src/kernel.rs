//! Kernels (validated programs) and launch configurations.

use crate::instr::Instr;
use crate::op::{InstrClass, MemSpace, Op};
use crate::reg::Reg;
use crate::{NUM_PREDS, WARP_SIZE};
use std::fmt;

/// A validated GPU kernel: its instruction stream plus the static resource
/// footprint the hardware needs to reserve per thread / per CTA.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub name: String,
    pub instrs: Vec<Instr>,
    /// Architectural general-purpose registers per thread.
    pub num_regs: u8,
    /// Static shared memory per CTA in bytes (word aligned).
    pub smem_bytes: u32,
    /// One [`PcFacts`] per instruction of `instrs`, built by [`Kernel::new`].
    facts: Vec<PcFacts>,
}

/// The memory access an instruction makes, as the interpreter's statistics
/// count it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAccess {
    None,
    /// A global or texture load.
    GlobalLoad,
    GlobalStore,
    /// A shared-memory load or store.
    Shared,
}

/// What the interpreter asks of an instruction on every execution, settled
/// once per kernel: [`Kernel::facts`] holds one per pc, so the answers cost
/// a table read instead of a walk over the [`Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcFacts {
    /// [`Op::has_gp_dest`].
    pub gp_dest: bool,
    /// [`Op::instr_class`].
    pub class: InstrClass,
    pub access: MemAccess,
    /// Whether [`Op::src_regs`] is non-empty.
    pub reads_src: bool,
}

impl PcFacts {
    /// The facts of `op`. Cheap enough for a kernel built on every run: one
    /// class lookup and two small matches. The interpreter's debug build
    /// checks each entry against [`Op::has_gp_dest`] and [`Op::src_regs`].
    pub fn of(op: &Op) -> PcFacts {
        let class = op.instr_class();
        PcFacts {
            // Exactly the ops with a GP destination have a class other
            // than `Other` (see [`InstrClass`]).
            gp_dest: class != InstrClass::Other,
            class,
            access: match op {
                Op::Ld {
                    space: MemSpace::Shared,
                    ..
                }
                | Op::St {
                    space: MemSpace::Shared,
                    ..
                } => MemAccess::Shared,
                Op::Ld { .. } => MemAccess::GlobalLoad,
                Op::St { .. } => MemAccess::GlobalStore,
                _ => MemAccess::None,
            },
            reads_src: match op {
                Op::S2R { .. } | Op::PSetP { .. } | Op::Bar | Op::Bra { .. } | Op::Exit => false,
                Op::Mov { a, .. } => a.src_reg().is_some(),
                _ => true,
            },
        }
    }
}

/// Errors found by [`Kernel::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    Empty,
    MissingExit,
    RegOutOfRange { pc: usize, reg: Reg, num_regs: u8 },
    PredOutOfRange { pc: usize, pred: u8 },
    BranchOutOfRange { pc: usize, target: u32 },
    StoreToTexture { pc: usize },
    ReconvOutOfRange { pc: usize, reconv: u32 },
    SmemUnaligned { smem_bytes: u32 },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Empty => write!(f, "kernel has no instructions"),
            ValidateError::MissingExit => write!(f, "kernel does not end with EXIT"),
            ValidateError::RegOutOfRange { pc, reg, num_regs } => {
                write!(f, "pc {pc}: {reg} out of range (num_regs = {num_regs})")
            }
            ValidateError::PredOutOfRange { pc, pred } => {
                write!(f, "pc {pc}: P{pred} out of range")
            }
            ValidateError::BranchOutOfRange { pc, target } => {
                write!(f, "pc {pc}: branch target {target} out of range")
            }
            ValidateError::StoreToTexture { pc } => {
                write!(f, "pc {pc}: store to read-only texture space")
            }
            ValidateError::ReconvOutOfRange { pc, reconv } => {
                write!(f, "pc {pc}: reconvergence point {reconv} out of range")
            }
            ValidateError::SmemUnaligned { smem_bytes } => {
                write!(f, "shared memory size {smem_bytes} is not word aligned")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl Kernel {
    /// Construct and validate a kernel. The only constructor: it also
    /// builds the per-pc [`PcFacts`] table.
    pub fn new(
        name: impl Into<String>,
        instrs: Vec<Instr>,
        num_regs: u8,
        smem_bytes: u32,
    ) -> Result<Self, ValidateError> {
        let k = Kernel {
            name: name.into(),
            facts: instrs.iter().map(|i| PcFacts::of(&i.op)).collect(),
            instrs,
            num_regs,
            smem_bytes,
        };
        k.validate()?;
        Ok(k)
    }

    /// Check structural well-formedness: register/predicate indices in range,
    /// branch targets and reconvergence points inside the program, word
    /// aligned shared memory, and a terminating `EXIT`.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.instrs.is_empty() {
            return Err(ValidateError::Empty);
        }
        if !matches!(self.instrs.last().map(|i| i.op), Some(Op::Exit)) {
            return Err(ValidateError::MissingExit);
        }
        if !self.smem_bytes.is_multiple_of(4) {
            return Err(ValidateError::SmemUnaligned {
                smem_bytes: self.smem_bytes,
            });
        }
        let len = self.instrs.len() as u32;
        for (pc, instr) in self.instrs.iter().enumerate() {
            if let Some(g) = &instr.guard {
                if g.pred.0 >= NUM_PREDS {
                    return Err(ValidateError::PredOutOfRange { pc, pred: g.pred.0 });
                }
            }
            let check_reg = |r: Reg| -> Result<(), ValidateError> {
                if r.0 >= self.num_regs {
                    Err(ValidateError::RegOutOfRange {
                        pc,
                        reg: r,
                        num_regs: self.num_regs,
                    })
                } else {
                    Ok(())
                }
            };
            if let Some(d) = instr.op.dst_reg() {
                check_reg(d)?;
            }
            for r in instr.op.src_regs() {
                check_reg(r)?;
            }
            match instr.op {
                Op::ISetP { p, .. } | Op::FSetP { p, .. } if p.0 >= NUM_PREDS => {
                    return Err(ValidateError::PredOutOfRange { pc, pred: p.0 });
                }
                Op::PSetP { p, a, b, .. } => {
                    for q in [p, a, b] {
                        if q.0 >= NUM_PREDS {
                            return Err(ValidateError::PredOutOfRange { pc, pred: q.0 });
                        }
                    }
                }
                Op::Sel { p, .. } if p.0 >= NUM_PREDS => {
                    return Err(ValidateError::PredOutOfRange { pc, pred: p.0 });
                }
                Op::St {
                    space: crate::op::MemSpace::Tex,
                    ..
                } => {
                    return Err(ValidateError::StoreToTexture { pc });
                }
                Op::Bra { target, reconv } => {
                    if target >= len {
                        return Err(ValidateError::BranchOutOfRange { pc, target });
                    }
                    if reconv >= len {
                        return Err(ValidateError::ReconvOutOfRange { pc, reconv });
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The facts of every instruction, indexed by pc. They describe
    /// `instrs` as [`Kernel::new`] received it.
    pub fn facts(&self) -> &[PcFacts] {
        &self.facts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the kernel has no instructions (never true for validated
    /// kernels).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Disassembly listing with PC labels.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            ".kernel {} (regs={}, smem={}B)",
            self.name, self.num_regs, self.smem_bytes
        );
        for (pc, i) in self.instrs.iter().enumerate() {
            let _ = writeln!(s, "  #{pc:<4} {i}");
        }
        s
    }
}

/// A kernel launch configuration.
///
/// Blocks are one-dimensional (`block_x` threads per CTA). Grids are
/// two-dimensional: `grid_x` CTAs of payload, with `grid_y` redundant
/// copies of the whole grid. Unhardened launches use `grid_y == 1`; the
/// TMR transform launches with `grid_y == 3`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchConfig {
    pub grid_x: u32,
    pub grid_y: u32,
    pub block_x: u32,
    /// Kernel parameters: the constant bank contents (pointers & scalars).
    pub params: Vec<u32>,
}

impl LaunchConfig {
    pub fn new(grid_x: u32, block_x: u32, params: Vec<u32>) -> Self {
        LaunchConfig {
            grid_x,
            grid_y: 1,
            block_x,
            params,
        }
    }

    /// Total CTAs launched.
    pub fn num_ctas(&self) -> u64 {
        self.grid_x as u64 * self.grid_y as u64
    }

    /// Total threads launched.
    pub fn num_threads(&self) -> u64 {
        self.num_ctas() * self.block_x as u64
    }

    /// Warps per CTA (blocks are padded to a whole number of warps).
    pub fn warps_per_cta(&self) -> u32 {
        self.block_x.div_ceil(WARP_SIZE as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, Operand};
    use crate::reg::Pred;

    fn exit() -> Instr {
        Instr::new(Op::Exit)
    }

    #[test]
    fn empty_kernel_rejected() {
        assert_eq!(
            Kernel::new("k", vec![], 4, 0).unwrap_err(),
            ValidateError::Empty
        );
    }

    #[test]
    fn missing_exit_rejected() {
        let i = Instr::new(Op::Mov {
            d: Reg(0),
            a: Operand::Imm(0),
        });
        assert_eq!(
            Kernel::new("k", vec![i], 4, 0).unwrap_err(),
            ValidateError::MissingExit
        );
    }

    #[test]
    fn reg_out_of_range_rejected() {
        let i = Instr::new(Op::Mov {
            d: Reg(9),
            a: Operand::Imm(0),
        });
        let err = Kernel::new("k", vec![i, exit()], 4, 0).unwrap_err();
        assert!(matches!(
            err,
            ValidateError::RegOutOfRange { reg: Reg(9), .. }
        ));
    }

    #[test]
    fn source_reg_out_of_range_rejected() {
        let i = Instr::new(Op::IAdd {
            d: Reg(0),
            a: Reg(7),
            b: Operand::Imm(1),
        });
        let err = Kernel::new("k", vec![i, exit()], 4, 0).unwrap_err();
        assert!(matches!(
            err,
            ValidateError::RegOutOfRange { reg: Reg(7), .. }
        ));
    }

    #[test]
    fn branch_bounds_checked() {
        let i = Instr::new(Op::Bra {
            target: 5,
            reconv: 1,
        });
        let err = Kernel::new("k", vec![i, exit()], 4, 0).unwrap_err();
        assert!(matches!(
            err,
            ValidateError::BranchOutOfRange { target: 5, .. }
        ));

        let i = Instr::new(Op::Bra {
            target: 1,
            reconv: 9,
        });
        let err = Kernel::new("k", vec![i, exit()], 4, 0).unwrap_err();
        assert!(matches!(
            err,
            ValidateError::ReconvOutOfRange { reconv: 9, .. }
        ));
    }

    #[test]
    fn pred_out_of_range_rejected() {
        let i = Instr::guarded(Op::Exit, Pred(7), false);
        let err = Kernel::new("k", vec![i, exit()], 4, 0).unwrap_err();
        assert!(matches!(err, ValidateError::PredOutOfRange { pred: 7, .. }));
    }

    #[test]
    fn unaligned_smem_rejected() {
        let err = Kernel::new("k", vec![exit()], 4, 6).unwrap_err();
        assert_eq!(err, ValidateError::SmemUnaligned { smem_bytes: 6 });
    }

    #[test]
    fn valid_kernel_accepted() {
        let instrs = vec![
            Instr::new(Op::Mov {
                d: Reg(0),
                a: Operand::Imm(1),
            }),
            exit(),
        ];
        let k = Kernel::new("ok", instrs, 4, 16).unwrap();
        assert_eq!(k.len(), 2);
        assert!(!k.is_empty());
        assert!(k.disassemble().contains("MOV R0, 0x1"));
    }

    #[test]
    fn launch_config_arithmetic() {
        let lc = LaunchConfig {
            grid_x: 10,
            grid_y: 3,
            block_x: 100,
            params: vec![],
        };
        assert_eq!(lc.num_ctas(), 30);
        assert_eq!(lc.num_threads(), 3000);
        assert_eq!(lc.warps_per_cta(), 4);
        let lc = LaunchConfig::new(4, 64, vec![1, 2]);
        assert_eq!(lc.grid_y, 1);
        assert_eq!(lc.num_threads(), 256);
        assert_eq!(lc.warps_per_cta(), 2);
    }
}
