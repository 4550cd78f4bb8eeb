//! PathFinder — grid dynamic programming (Rodinia `pathfinder`).
//!
//! One kernel, `dynproc_kernel`: each CTA advances `PYRAMID` rows of the
//! DP in shared memory with a ping-pong buffer and barriers; the computed
//! region shrinks by one column per side per step (the Rodinia halo
//! scheme), so CTAs overlap by `2*PYRAMID` columns. Integer data — output
//! comparisons are exact.

use std::sync::OnceLock;

use crate::harness::{AppAbort, Benchmark, RunCtl};
use crate::kutil::hash_u32;
use crate::tmr;
use vgpu_arch::{BoolOp, CmpOp, Kernel, KernelBuilder, MemSpace, Operand, SpecialReg};

const BLOCK: u32 = 128;
/// DP steps per launch.
pub const PYRAMID: u32 = 4;
/// Valid (non-halo) columns each CTA produces.
const STRIDE: u32 = BLOCK - 2 * PYRAMID; // 120
/// Grid columns.
pub const COLS: u32 = 4 * STRIDE; // 480
/// Wall rows: 1 source row + ROWS-1 DP steps.
pub const ROWS: u32 = 1 + 2 * PYRAMID; // two launches
const SEED: u64 = 0x5046;

pub struct PathFinder;

/// Benchmark parameters: 0 = wall, 1 = src row, 2 = dst row,
/// 3 = first wall row of this launch (scalar).
pub fn kernel() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("pathfinder_k1_dynproc");
        let s_prev = a.alloc_smem(BLOCK * 4);
        let s_next = a.alloc_smem(BLOCK * 4);
        let roff = tmr::prologue(&mut a);
        let (tx, xidx, addr, v, l, r, u) = (
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
        );
        let (p_in, p, q) = (a.pred(), a.pred(), a.pred());
        a.s2r(tx, SpecialReg::TidX);
        // xidx = ctaid*STRIDE + tx - PYRAMID (may be out of range at edges).
        a.s2r(xidx, SpecialReg::CtaIdX);
        a.imad(xidx, xidx, STRIDE, Operand::Reg(tx));
        a.isub(xidx, xidx, PYRAMID);
        // p_in: 0 <= xidx < COLS (signed compare handles the negative side).
        a.isetp(p_in, xidx, 0u32, CmpOp::Ge, true);
        a.isetp(p, xidx, COLS, CmpOp::Lt, true);
        a.psetp(p_in, p_in, p, BoolOp::And, false, false);
        // prev[tx] = src[xidx] where in range.
        a.predicated(p_in, false, |a| {
            tmr::load_ptr(a, addr, roff, 1);
            a.iscadd(addr, xidx, Operand::Reg(addr), 2);
            a.ld(v, MemSpace::Global, addr, 0);
            a.shl(addr, tx, 2u32);
            a.st(MemSpace::Shared, addr, s_prev as i32, v);
        });
        a.bar();
        for step in 0..PYRAMID {
            // computed := (tx >= step+1) && (tx <= BLOCK-2-step) && p_in
            a.isetp(p, tx, step + 1, CmpOp::Ge, true);
            a.isetp(q, tx, BLOCK - 2 - step, CmpOp::Le, true);
            a.psetp(p, p, q, BoolOp::And, false, false);
            a.psetp(p, p, p_in, BoolOp::And, false, false);
            a.predicated(p, false, |a| {
                // left = prev[xidx == 0 ? tx : tx-1]
                a.isub(l, tx, 1u32);
                a.isetp(q, xidx, 0u32, CmpOp::Eq, true);
                a.sel(l, tx, Operand::Reg(l), q, false);
                a.shl(l, l, 2u32);
                a.ld(l, MemSpace::Shared, l, s_prev as i32);
                // right = prev[xidx == COLS-1 ? tx : tx+1]
                a.iadd(r, tx, 1u32);
                a.isetp(q, xidx, COLS - 1, CmpOp::Eq, true);
                a.sel(r, tx, Operand::Reg(r), q, false);
                a.shl(r, r, 2u32);
                a.ld(r, MemSpace::Shared, r, s_prev as i32);
                // up = prev[tx]
                a.shl(u, tx, 2u32);
                a.ld(u, MemSpace::Shared, u, s_prev as i32);
                a.imin(u, u, Operand::Reg(l), true);
                a.imin(u, u, Operand::Reg(r), true);
                // wall value at row (first + step), col xidx.
                a.mov(v, tmr::scalar(3));
                a.iadd(v, v, step);
                a.imul(v, v, COLS);
                a.iadd(v, v, Operand::Reg(xidx));
                tmr::load_ptr(a, addr, roff, 0);
                a.iscadd(addr, v, Operand::Reg(addr), 2);
                a.ld(v, MemSpace::Global, addr, 0);
                a.iadd(v, v, Operand::Reg(u));
                a.shl(addr, tx, 2u32);
                a.st(MemSpace::Shared, addr, s_next as i32, v);
            });
            a.bar();
            // prev[tx] = next[tx] for the lanes that computed.
            a.predicated(p, false, |a| {
                a.shl(addr, tx, 2u32);
                a.ld(v, MemSpace::Shared, addr, s_next as i32);
                a.st(MemSpace::Shared, addr, s_prev as i32, v);
            });
            a.bar();
        }
        // Valid producers write out: tx in [PYRAMID, BLOCK-PYRAMID) && in range.
        a.isetp(p, tx, PYRAMID, CmpOp::Ge, true);
        a.isetp(q, tx, BLOCK - PYRAMID, CmpOp::Lt, true);
        a.psetp(p, p, q, BoolOp::And, false, false);
        a.psetp(p, p, p_in, BoolOp::And, false, false);
        a.predicated(p, false, |a| {
            a.shl(addr, tx, 2u32);
            a.ld(v, MemSpace::Shared, addr, s_prev as i32);
            tmr::load_ptr(a, addr, roff, 2);
            a.iscadd(addr, xidx, Operand::Reg(addr), 2);
            a.st(MemSpace::Global, addr, 0, v);
        });
        a.build().expect("dynproc kernel is well formed")
    })
}

/// Wall cost at (row, col).
pub fn wall(row: u32, col: u32) -> u32 {
    hash_u32(SEED, (row * COLS + col) as u64, 10)
}

impl Benchmark for PathFinder {
    fn name(&self) -> &'static str {
        "PathFinder"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let bufs = ctl.alloc(&[ROWS * COLS * 4, COLS * 4, COLS * 4]);
        let (wall_buf, r0, r1) = (bufs[0], bufs[1], bufs[2]);
        ctl.write_with(wall_buf, ROWS * COLS, |i| wall(i / COLS, i % COLS));
        // Source row = wall row 0.
        ctl.write_with(r0, COLS, |col| wall(0, col));
        let k = kernel();
        let grid = COLS / STRIDE;
        let (mut src, mut dst) = (r0, r1);
        let mut row = 1;
        while row < ROWS {
            ctl.launch(0, k, grid, BLOCK, vec![wall_buf, src, dst, row])?;
            ctl.vote(0, &[(dst, COLS)])?;
            std::mem::swap(&mut src, &mut dst);
            row += PYRAMID;
        }
        ctl.set_outputs(&[(src, COLS)]);
        Ok(())
    }
}

/// CPU reference: the plain DP with edge clamping.
pub fn cpu_reference() -> Vec<u32> {
    let mut prev: Vec<u32> = (0..COLS).map(|c| wall(0, c)).collect();
    for row in 1..ROWS {
        let mut next = vec![0u32; COLS as usize];
        for c in 0..COLS as i32 {
            let l = prev[c.max(1) as usize - 1];
            let u = prev[c as usize];
            let r = prev[(c + 1).min(COLS as i32 - 1) as usize];
            let best = (l as i32).min(u as i32).min(r as i32) as u32;
            next[c as usize] = wall(row, c as u32) + best;
        }
        prev = next;
    }
    prev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{golden_run, Variant};
    use vgpu_sim::GpuConfig;

    #[test]
    fn matches_cpu_reference_exactly() {
        let g = golden_run(&PathFinder, &GpuConfig::default(), Variant::FUNCTIONAL);
        let want = cpu_reference();
        assert_eq!(g.output.len(), COLS as usize);
        for (i, (&got, &want)) in g.output.iter().zip(want.iter()).enumerate() {
            assert_eq!(got, want, "column {i}");
        }
    }

    #[test]
    fn timed_equals_functional() {
        let f = golden_run(&PathFinder, &GpuConfig::default(), Variant::FUNCTIONAL);
        let t = golden_run(&PathFinder, &GpuConfig::default(), Variant::TIMED);
        assert_eq!(f.output, t.output);
    }

    #[test]
    fn hardened_matches() {
        let plain = golden_run(&PathFinder, &GpuConfig::default(), Variant::TIMED);
        let tmr = golden_run(&PathFinder, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(plain.output, tmr.output);
    }
}
