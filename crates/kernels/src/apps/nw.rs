//! NW — Needleman-Wunsch sequence alignment (Rodinia `needle`).
//!
//! Two kernels sweep 16×16 tiles of the DP matrix along anti-diagonals:
//! **K1** (`needle_cuda_shared_1`) covers the upper-left triangle of tile
//! diagonals, **K2** (`needle_cuda_shared_2`) the lower-right. Inside a
//! tile, 16 threads perform the classic shared-memory wavefront with a
//! barrier per wave. Integer data — output comparisons are exact.

use std::sync::OnceLock;

use crate::harness::{AppAbort, Benchmark, RunCtl};
use crate::kutil::hash_u32;
use crate::tmr;
use vgpu_arch::{CmpOp, Kernel, KernelBuilder, MemSpace, Operand, Reg, SpecialReg};

/// Sequence length; the DP matrix is (N+1)².
pub const N: u32 = 64;
/// Tile side and threads per CTA.
pub const B: u32 = 16;
const NB: u32 = N / B;
const COLS: u32 = N + 1;
/// Gap penalty.
pub const PENALTY: i32 = 3;
const SEED: u64 = 0x4e57;

pub struct Nw;

/// Substitution score for DP cell (i, j), i, j >= 1.
pub fn reference(i: u32, j: u32) -> i32 {
    hash_u32(SEED, (i * COLS + j) as u64, 10) as i32 - 2
}

/// Shared tile-processing body. `coords` emits code computing the tile
/// coordinates (b_index_x, b_index_y) from `ctaid.x` and the diagonal
/// parameter into the given registers.
fn tile_kernel(name: &str, coords: impl FnOnce(&mut KernelBuilder, Reg, Reg, Reg)) -> Kernel {
    let mut a = KernelBuilder::new(name);
    let s_temp = a.alloc_smem((B + 1) * (B + 1) * 4);
    let s_ref = a.alloc_smem(B * B * 4);
    debug_assert_eq!(s_temp, 0);
    let roff = tmr::prologue(&mut a);
    let (tx, bxx, byy, base, addr, v) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
    let (t0, t1, txx, tyy, tmp) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
    let p = a.pred();
    a.s2r(tx, SpecialReg::TidX);
    coords(&mut a, bxx, byy, tmp);
    // base = (byy*B)*COLS + bxx*B — the halo corner of the tile.
    a.imul(base, byy, B * COLS);
    a.shl(tmp, bxx, B.trailing_zeros());
    a.iadd(base, base, Operand::Reg(tmp));

    // Left halo column: temp[(tx+1)*(B+1)] = items[base + (tx+1)*COLS].
    a.iadd(tmp, tx, 1u32);
    a.imul(v, tmp, COLS);
    a.iadd(v, v, Operand::Reg(base));
    tmr::load_ptr(&mut a, addr, roff, 1);
    a.iscadd(addr, v, Operand::Reg(addr), 2);
    a.ld(t0, MemSpace::Global, addr, 0);
    a.imul(v, tmp, B + 1);
    a.shl(v, v, 2u32);
    a.st(MemSpace::Shared, v, s_temp as i32, t0);
    // Top halo row: temp[tx+1] = items[base + tx + 1].
    a.iadd(v, base, Operand::Reg(tmp));
    tmr::load_ptr(&mut a, addr, roff, 1);
    a.iscadd(addr, v, Operand::Reg(addr), 2);
    a.ld(t0, MemSpace::Global, addr, 0);
    a.shl(v, tmp, 2u32);
    a.st(MemSpace::Shared, v, s_temp as i32, t0);
    // Corner: temp[0][0] = items[base] (thread 0).
    a.isetp(p, tx, 0u32, CmpOp::Eq, true);
    a.predicated(p, false, |a| {
        tmr::load_ptr(a, addr, roff, 1);
        a.iscadd(addr, base, Operand::Reg(addr), 2);
        a.ld(t0, MemSpace::Global, addr, 0);
        a.mov(v, 0u32);
        a.st(MemSpace::Shared, v, s_temp as i32, t0);
    });
    // Substitution tile: ref_s[ty*B + tx] = reference[base + (ty+1)*COLS + tx+1].
    for ty in 0..B {
        a.mov(v, (ty + 1) * COLS + 1);
        a.iadd(v, v, Operand::Reg(base));
        a.iadd(v, v, Operand::Reg(tx));
        tmr::load_ptr(&mut a, addr, roff, 0);
        a.iscadd(addr, v, Operand::Reg(addr), 2);
        a.ld(t0, MemSpace::Global, addr, 0);
        a.iadd(v, tx, ty * B);
        a.shl(v, v, 2u32);
        a.st(MemSpace::Shared, v, s_ref as i32, t0);
    }
    a.bar();

    // One wavefront step at thread-cell (txx, tyy), both in 1..=B:
    // temp[tyy][txx] = max(temp[tyy-1][txx-1] + ref[tyy-1][txx-1],
    //                      temp[tyy][txx-1] - P, temp[tyy-1][txx] - P).
    let wave = |a: &mut KernelBuilder, m: u32, forward: bool| {
        a.isetp(p, tx, m, CmpOp::Le, true);
        a.predicated(p, false, |a| {
            if forward {
                a.iadd(txx, tx, 1u32);
                a.mov(tyy, m + 1);
                a.isub(tyy, tyy, Operand::Reg(tx)); // m - tx + 1
            } else {
                a.iadd(txx, tx, B - m);
                a.mov(tyy, B);
                a.isub(tyy, tyy, Operand::Reg(tx));
            }
            // v = ((tyy-1)*(B+1) + txx) * 4
            a.isub(tmp, tyy, 1u32);
            a.imul(v, tmp, B + 1);
            a.iadd(v, v, Operand::Reg(txx));
            a.shl(v, v, 2u32);
            a.ld(t0, MemSpace::Shared, v, s_temp as i32 - 4); // temp[tyy-1][txx-1]
            a.ld(t1, MemSpace::Shared, v, s_temp as i32); // temp[tyy-1][txx]
            a.shl(tmp, tmp, B.trailing_zeros());
            a.iadd(tmp, tmp, Operand::Reg(txx));
            a.shl(tmp, tmp, 2u32);
            a.ld(tmp, MemSpace::Shared, tmp, s_ref as i32 - 4); // ref[tyy-1][txx-1]
            a.iadd(t0, t0, Operand::Reg(tmp)); // diagonal + score
            a.isub(t1, t1, PENALTY as u32); // up - P
            a.imax(t0, t0, Operand::Reg(t1), true);
            // left: temp[tyy*(B+1) + txx - 1] - P
            a.imul(v, tyy, B + 1);
            a.iadd(v, v, Operand::Reg(txx));
            a.shl(v, v, 2u32);
            a.ld(t1, MemSpace::Shared, v, s_temp as i32 - 4);
            a.isub(t1, t1, PENALTY as u32);
            a.imax(t0, t0, Operand::Reg(t1), true);
            a.st(MemSpace::Shared, v, s_temp as i32, t0);
        });
        a.bar();
    };
    for m in 0..B {
        wave(&mut a, m, true);
    }
    for m in (0..B - 1).rev() {
        wave(&mut a, m, false);
    }

    // Write back: items[base + (ty+1)*COLS + tx+1] = temp[ty+1][tx+1].
    for ty in 0..B {
        a.mov(v, (ty + 1) * (B + 1) + 1);
        a.iadd(v, v, Operand::Reg(tx));
        a.shl(v, v, 2u32);
        a.ld(t0, MemSpace::Shared, v, s_temp as i32);
        a.mov(v, (ty + 1) * COLS + 1);
        a.iadd(v, v, Operand::Reg(base));
        a.iadd(v, v, Operand::Reg(tx));
        tmr::load_ptr(&mut a, addr, roff, 1);
        a.iscadd(addr, v, Operand::Reg(addr), 2);
        a.st(MemSpace::Global, addr, 0, t0);
    }
    a.build().expect("nw tile kernel is well formed")
}

/// K1: upper-left diagonals. Benchmark parameters: 0 = reference,
/// 1 = itemsets, 2 = diagonal index i (1..=NB); grid = i CTAs.
pub fn kernel1() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        tile_kernel("nw_k1", |a, bxx, byy, _tmp| {
            // b_index_x = bx; b_index_y = i - 1 - bx.
            a.s2r(bxx, SpecialReg::CtaIdX);
            a.mov(byy, tmr::scalar(2));
            a.isub(byy, byy, 1u32);
            a.isub(byy, byy, Operand::Reg(bxx));
        })
    })
}

/// K2: lower-right diagonals. Benchmark parameters as K1 but i counts
/// down (NB-1..=1); grid = i CTAs.
pub fn kernel2() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        tile_kernel("nw_k2", |a, bxx, byy, tmp| {
            // b_index_x = bx + NB - i; b_index_y = NB - bx - 1.
            a.s2r(bxx, SpecialReg::CtaIdX);
            a.mov(tmp, NB);
            a.isub(tmp, tmp, tmr::scalar(2));
            a.iadd(bxx, bxx, Operand::Reg(tmp));
            a.s2r(tmp, SpecialReg::CtaIdX);
            a.mov(byy, NB - 1);
            a.isub(byy, byy, Operand::Reg(tmp));
        })
    })
}

impl Benchmark for Nw {
    fn name(&self) -> &'static str {
        "NW"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1", "K2"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let words = COLS * COLS;
        let bufs = ctl.alloc(&[words * 4, words * 4]);
        let (refs, items) = (bufs[0], bufs[1]);
        ctl.write_with(refs, words, |w| {
            let (i, j) = (w / COLS, w % COLS);
            let r = if i >= 1 && j >= 1 { reference(i, j) } else { 0 };
            r as u32
        });
        ctl.write_with(items, words, |w| {
            let (i, j) = (w / COLS, w % COLS);
            let v: i32 = if i == 0 {
                -(j as i32) * PENALTY
            } else if j == 0 {
                -(i as i32) * PENALTY
            } else {
                0
            };
            v as u32
        });
        let k1 = kernel1();
        let k2 = kernel2();
        for i in 1..=NB {
            ctl.launch(0, k1, i, B, vec![refs, items, i])?;
            ctl.vote(0, &[(items, words)])?;
        }
        for i in (1..NB).rev() {
            ctl.launch(1, k2, i, B, vec![refs, items, i])?;
            ctl.vote(1, &[(items, words)])?;
        }
        ctl.set_outputs(&[(items, words)]);
        Ok(())
    }
}

/// CPU reference: the plain quadratic DP.
pub fn cpu_reference() -> Vec<i32> {
    let cols = COLS as usize;
    let mut m = vec![0i32; cols * cols];
    for (j, v) in m.iter_mut().take(cols).enumerate() {
        *v = -(j as i32) * PENALTY;
    }
    for i in 0..cols {
        m[i * cols] = -(i as i32) * PENALTY;
    }
    for i in 1..cols {
        for j in 1..cols {
            let diag = m[(i - 1) * cols + j - 1] + reference(i as u32, j as u32);
            let up = m[(i - 1) * cols + j] - PENALTY;
            let left = m[i * cols + j - 1] - PENALTY;
            m[i * cols + j] = diag.max(up).max(left);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{golden_run, Variant};
    use vgpu_sim::GpuConfig;

    #[test]
    fn matches_cpu_reference_exactly() {
        let g = golden_run(&Nw, &GpuConfig::default(), Variant::FUNCTIONAL);
        let want = cpu_reference();
        for (i, (&got, &want)) in g.output.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                got as i32,
                want,
                "cell {i} (r{} c{})",
                i / COLS as usize,
                i % COLS as usize
            );
        }
    }

    #[test]
    fn timed_equals_functional() {
        let f = golden_run(&Nw, &GpuConfig::default(), Variant::FUNCTIONAL);
        let t = golden_run(&Nw, &GpuConfig::default(), Variant::TIMED);
        assert_eq!(f.output, t.output);
        // K1 runs NB diagonals, K2 NB-1.
        let k1 = t
            .records
            .iter()
            .filter(|r| r.kernel_idx == 0 && !r.is_vote)
            .count();
        let k2 = t
            .records
            .iter()
            .filter(|r| r.kernel_idx == 1 && !r.is_vote)
            .count();
        assert_eq!((k1, k2), (NB as usize, NB as usize - 1));
    }

    #[test]
    fn hardened_matches() {
        let plain = golden_run(&Nw, &GpuConfig::default(), Variant::TIMED);
        let tmr = golden_run(&Nw, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(plain.output, tmr.output);
    }
}
