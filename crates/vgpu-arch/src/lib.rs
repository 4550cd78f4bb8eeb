//! # vgpu-arch — a SASS-like SIMT GPU instruction set architecture
//!
//! This crate defines the virtual GPU ISA executed by the [`vgpu-sim`]
//! microarchitecture simulator. It is modeled on NVIDIA SASS as seen through
//! GPGPU-Sim: 32-bit general-purpose registers, predicate registers,
//! special registers for thread/CTA identity, a constant bank for kernel
//! parameters, explicit global/shared/texture memory spaces, CTA-wide
//! barriers, and branch instructions that carry an immediate-post-dominator
//! reconvergence point for stack-based SIMT divergence handling.
//!
//! The crate provides:
//!
//! * [`Op`] / [`Instr`] — the instruction set, with optional predication.
//! * [`Kernel`] — a validated program plus its static resource footprint
//!   (architectural registers per thread, static shared memory per CTA),
//!   decoded once into the dense [`Decoded`] ops the interpreter runs.
//! * [`KernelBuilder`] — an assembler DSL with structured control flow
//!   (`if_then`, `if_then_else`, `loop_while`) that computes reconvergence
//!   points so hand-written kernels cannot get divergence wrong.
//! * A disassembler (`Display` impls) used in diagnostics and in the
//!   register-reuse example reproducing Figure 12 of the paper.
//!
//! [`vgpu-sim`]: ../vgpu_sim/index.html

pub mod asm;
pub mod decode;
pub mod instr;
pub mod kernel;
pub mod op;
pub mod reg;

pub use asm::KernelBuilder;
pub use decode::{counter, Decoded, Src, Tag};
pub use instr::{Guard, Instr};
pub use kernel::{Kernel, LaunchConfig, MemAccess, PcFacts, ValidateError};
pub use op::{BoolOp, CmpOp, InstrClass, MemSpace, Op, Operand, SrcRegs};
pub use reg::{Pred, Reg, SpecialReg};

/// Number of threads in a warp. Fixed at 32, as on all NVIDIA hardware.
pub const WARP_SIZE: usize = 32;

/// Number of predicate registers per thread.
pub const NUM_PREDS: u8 = 4;
