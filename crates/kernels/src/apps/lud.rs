//! LUD — blocked LU decomposition (Rodinia `lud`).
//!
//! Three kernels driven by a host loop over diagonal steps:
//!
//! * **K1 `lud_diagonal`** — a *single CTA* of 16 threads factorises the
//!   current 16×16 diagonal block in shared memory (the suite's
//!   low-occupancy, long-serial-chain kernel: tiny derating factor, hence
//!   tiny AVF, but high SVF — the paper's flagship divergence case).
//! * **K2 `lud_perimeter`** — 32-thread CTAs solve the row strip (unit
//!   lower triangular solve) and column strip (upper triangular solve with
//!   division) against the factorised diagonal block.
//! * **K3 `lud_internal`** — 256-thread CTAs rank-16-update the trailing
//!   submatrix from shared-memory strips.
//!
//! Product subtractions everywhere use the `a.mul_add(-b, c)` idiom so the
//! CPU reference can mirror the arithmetic bit-exactly.

use std::sync::OnceLock;

use crate::harness::{AppAbort, Benchmark, RunCtl};
use crate::kutil::hash_f32;
use crate::tmr;
use vgpu_arch::{CmpOp, Kernel, KernelBuilder, MemSpace, Operand, SpecialReg};

/// Matrix side.
pub const N: u32 = 64;
/// Block side.
pub const B: u32 = 16;
const NB: u32 = N / B;
const SEED: u64 = 0x4c55;

pub struct Lud;

/// Input matrix entry (diagonally dominant for a stable factorisation).
pub fn input(i: u32, j: u32) -> f32 {
    let base = hash_f32(SEED, (i * N + j) as u64);
    if i == j {
        base + N as f32
    } else {
        base
    }
}

/// K1: benchmark parameters: 0 = matrix, 1 = base element index
/// (`kb*N + kb`, scalar). One CTA, B threads.
pub fn kernel_diagonal() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("lud_k1_diagonal");
        let s_dia = a.alloc_smem(B * B * 4);
        debug_assert_eq!(s_dia, 0);
        let roff = tmr::prologue(&mut a);
        let (tx, addr, v, t0, t1, idx) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        a.s2r(tx, SpecialReg::TidX);
        // Load: dia[i][tx] = m[base + i*N + tx].
        for i in 0..B {
            a.mov(v, tmr::scalar(1));
            a.iadd(v, v, i * N);
            a.iadd(v, v, Operand::Reg(tx));
            tmr::load_ptr(&mut a, addr, roff, 0);
            a.iscadd(addr, v, Operand::Reg(addr), 2);
            a.ld(t0, MemSpace::Global, addr, 0);
            a.iadd(idx, tx, i * B);
            a.shl(idx, idx, 2u32);
            a.st(MemSpace::Shared, idx, 0, t0);
        }
        a.bar();
        for i in 0..B - 1 {
            // Column elimination: dia[tx][i] *= 1/dia[i][i]  (tx > i).
            a.isetp(p, tx, i, CmpOp::Gt, true);
            a.predicated(p, false, |a| {
                a.mov(idx, (i * B + i) * 4);
                a.ld(v, MemSpace::Shared, idx, 0);
                a.frcp(v, v);
                a.shl(idx, tx, B.trailing_zeros());
                a.iadd(idx, idx, i);
                a.shl(idx, idx, 2u32);
                a.ld(t0, MemSpace::Shared, idx, 0);
                a.fmul(t0, t0, Operand::Reg(v));
                a.st(MemSpace::Shared, idx, 0, t0);
            });
            a.bar();
            // Trailing update: dia[tx][j] -= dia[tx][i] * dia[i][j], j > i.
            a.predicated(p, false, |a| {
                a.shl(idx, tx, B.trailing_zeros());
                a.iadd(idx, idx, i);
                a.shl(idx, idx, 2u32);
                a.ld(v, MemSpace::Shared, idx, 0); // dia[tx][i]
                for j in i + 1..B {
                    a.mov(idx, (i * B + j) * 4);
                    a.ld(t0, MemSpace::Shared, idx, 0); // dia[i][j]
                    a.fmul(t0, t0, Operand::imm_f32(-1.0));
                    a.shl(idx, tx, B.trailing_zeros());
                    a.iadd(idx, idx, j);
                    a.shl(idx, idx, 2u32);
                    a.ld(t1, MemSpace::Shared, idx, 0);
                    a.ffma(t1, v, Operand::Reg(t0), Operand::Reg(t1));
                    a.st(MemSpace::Shared, idx, 0, t1);
                }
            });
            a.bar();
        }
        // Write back.
        for i in 0..B {
            a.iadd(idx, tx, i * B);
            a.shl(idx, idx, 2u32);
            a.ld(t0, MemSpace::Shared, idx, 0);
            a.mov(v, tmr::scalar(1));
            a.iadd(v, v, i * N);
            a.iadd(v, v, Operand::Reg(tx));
            tmr::load_ptr(&mut a, addr, roff, 0);
            a.iscadd(addr, v, Operand::Reg(addr), 2);
            a.st(MemSpace::Global, addr, 0, t0);
        }
        a.build().expect("lud_diagonal is well formed")
    })
}

/// K2: benchmark parameters: 0 = matrix, 1 = kb (scalar). Grid = remaining
/// blocks, 2*B threads: the low half solves the row strip, the high half
/// the column strip.
pub fn kernel_perimeter() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("lud_k2_perimeter");
        let s_dia = a.alloc_smem(B * B * 4);
        let s_row = a.alloc_smem(B * B * 4);
        let s_col = a.alloc_smem(B * B * 4);
        debug_assert_eq!(s_dia, 0);
        let roff = tmr::prologue(&mut a);
        let (tx, idx2, addr, v, t0, t1, idx, gcol) = (
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
        );
        let p = a.pred();
        a.s2r(tx, SpecialReg::TidX);
        // Cooperatively load the diagonal block: 8 entries per thread.
        for q in 0..8 {
            // e = tx*8 + q; dia[e] = m[(kb + e/B)*N + kb + e%B]
            a.shl(idx, tx, 3u32);
            a.iadd(idx, idx, q);
            a.shr(v, idx, B.trailing_zeros()); // e / B
            a.imul(v, v, N);
            a.and(t0, idx, B - 1); // e % B
            a.iadd(v, v, Operand::Reg(t0));
            a.iadd(v, v, tmr::scalar(1)); // + kb (row)
            a.mov(t0, tmr::scalar(1));
            a.imul(t0, t0, N);
            a.iadd(v, v, Operand::Reg(t0)); // + kb*N
            tmr::load_ptr(&mut a, addr, roff, 0);
            a.iscadd(addr, v, Operand::Reg(addr), 2);
            a.ld(t0, MemSpace::Global, addr, 0);
            a.shl(idx, idx, 2u32);
            a.st(MemSpace::Shared, idx, 0, t0);
        }
        a.bar();
        // gcol/idx2: strip coordinates. chunk = ctaid.x.
        a.isetp(p, tx, B, CmpOp::Lt, true);
        a.if_then_else(
            p,
            false,
            |a| {
                // Row strip: thread tx owns column tx of tile at
                // rows kb..kb+B, cols kb + (chunk+1)*B .. +B.
                a.s2r(gcol, SpecialReg::CtaIdX);
                a.iadd(gcol, gcol, 1u32);
                a.shl(gcol, gcol, B.trailing_zeros());
                a.iadd(gcol, gcol, tmr::scalar(1)); // + kb
                a.iadd(gcol, gcol, Operand::Reg(tx));
                // Load column: row_t[i][tx] = m[(kb+i)*N + gcol].
                for i in 0..B {
                    a.mov(v, tmr::scalar(1));
                    a.iadd(v, v, i);
                    a.imul(v, v, N);
                    a.iadd(v, v, Operand::Reg(gcol));
                    tmr::load_ptr(a, addr, roff, 0);
                    a.iscadd(addr, v, Operand::Reg(addr), 2);
                    a.ld(t0, MemSpace::Global, addr, 0);
                    a.mov(idx, i * B * 4);
                    a.iscadd(idx, tx, Operand::Reg(idx), 2);
                    a.st(MemSpace::Shared, idx, s_row as i32, t0);
                }
                // Unit lower solve: row_t[i] -= dia[i][j]*row_t[j], j < i.
                for i in 1..B {
                    a.mov(idx, i * B * 4);
                    a.iscadd(idx, tx, Operand::Reg(idx), 2);
                    a.ld(t1, MemSpace::Shared, idx, s_row as i32);
                    for j in 0..i {
                        a.mov(idx2, (i * B + j) * 4);
                        a.ld(v, MemSpace::Shared, idx2, 0); // dia[i][j]
                        a.fmul(v, v, Operand::imm_f32(-1.0));
                        a.mov(idx2, j * B * 4);
                        a.iscadd(idx2, tx, Operand::Reg(idx2), 2);
                        a.ld(t0, MemSpace::Shared, idx2, s_row as i32);
                        a.ffma(t1, t0, Operand::Reg(v), Operand::Reg(t1));
                    }
                    a.mov(idx, i * B * 4);
                    a.iscadd(idx, tx, Operand::Reg(idx), 2);
                    a.st(MemSpace::Shared, idx, s_row as i32, t1);
                }
                // Store back.
                for i in 0..B {
                    a.mov(idx, i * B * 4);
                    a.iscadd(idx, tx, Operand::Reg(idx), 2);
                    a.ld(t0, MemSpace::Shared, idx, s_row as i32);
                    a.mov(v, tmr::scalar(1));
                    a.iadd(v, v, i);
                    a.imul(v, v, N);
                    a.iadd(v, v, Operand::Reg(gcol));
                    tmr::load_ptr(a, addr, roff, 0);
                    a.iscadd(addr, v, Operand::Reg(addr), 2);
                    a.st(MemSpace::Global, addr, 0, t0);
                }
            },
            |a| {
                // Column strip: thread (tx-B) owns row (tx-B) of tile at
                // rows kb + (chunk+1)*B .., cols kb..kb+B.
                let lane = gcol; // reuse: lane = tx - B
                a.isub(lane, tx, B);
                // grow = kb + (chunk+1)*B + lane
                let grow = idx2;
                a.s2r(grow, SpecialReg::CtaIdX);
                a.iadd(grow, grow, 1u32);
                a.shl(grow, grow, B.trailing_zeros());
                a.iadd(grow, grow, tmr::scalar(1));
                a.iadd(grow, grow, Operand::Reg(lane));
                // Load row: col_t[lane][j] = m[grow*N + kb + j].
                for j in 0..B {
                    a.imul(v, grow, N);
                    a.iadd(v, v, tmr::scalar(1));
                    a.iadd(v, v, j);
                    tmr::load_ptr(a, addr, roff, 0);
                    a.iscadd(addr, v, Operand::Reg(addr), 2);
                    a.ld(t0, MemSpace::Global, addr, 0);
                    a.shl(idx, lane, B.trailing_zeros());
                    a.iadd(idx, idx, j);
                    a.shl(idx, idx, 2u32);
                    a.st(MemSpace::Shared, idx, s_col as i32, t0);
                }
                // Upper solve with division:
                // col_t[j] = (col_t[j] - Σ_{i<j} col_t[i]*dia[i][j]) / dia[j][j].
                for j in 0..B {
                    a.shl(idx, lane, B.trailing_zeros());
                    a.iadd(idx, idx, j);
                    a.shl(idx, idx, 2u32);
                    a.ld(t1, MemSpace::Shared, idx, s_col as i32);
                    for i in 0..j {
                        a.mov(v, (i * B + j) * 4);
                        a.ld(v, MemSpace::Shared, v, 0); // dia[i][j]
                        a.fmul(v, v, Operand::imm_f32(-1.0));
                        a.shl(idx, lane, B.trailing_zeros());
                        a.iadd(idx, idx, i);
                        a.shl(idx, idx, 2u32);
                        a.ld(t0, MemSpace::Shared, idx, s_col as i32);
                        a.ffma(t1, t0, Operand::Reg(v), Operand::Reg(t1));
                    }
                    a.mov(v, (j * B + j) * 4);
                    a.ld(v, MemSpace::Shared, v, 0); // pivot
                    a.frcp(v, v);
                    a.fmul(t1, t1, Operand::Reg(v));
                    a.shl(idx, lane, B.trailing_zeros());
                    a.iadd(idx, idx, j);
                    a.shl(idx, idx, 2u32);
                    a.st(MemSpace::Shared, idx, s_col as i32, t1);
                }
                // Store back.
                for j in 0..B {
                    a.shl(idx, lane, B.trailing_zeros());
                    a.iadd(idx, idx, j);
                    a.shl(idx, idx, 2u32);
                    a.ld(t0, MemSpace::Shared, idx, s_col as i32);
                    a.imul(v, grow, N);
                    a.iadd(v, v, tmr::scalar(1));
                    a.iadd(v, v, j);
                    tmr::load_ptr(a, addr, roff, 0);
                    a.iscadd(addr, v, Operand::Reg(addr), 2);
                    a.st(MemSpace::Global, addr, 0, t0);
                }
            },
        );
        a.build().expect("lud_perimeter is well formed")
    })
}

/// K3: benchmark parameters: 0 = matrix, 1 = kb (scalar), 2 = nbb
/// (remaining blocks per side, scalar). Grid = nbb², B*B threads.
pub fn kernel_internal() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("lud_k3_internal");
        let s_a = a.alloc_smem(B * B * 4); // U strip above the target tile
        let s_b = a.alloc_smem(B * B * 4); // L strip left of the target tile
        debug_assert_eq!(s_a, 0);
        let roff = tmr::prologue(&mut a);
        let (tid, tx, ty, bx, by, addr, v, t0, acc) = (
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
        );
        let p = a.pred();
        a.s2r(tid, SpecialReg::TidX);
        a.and(tx, tid, B - 1);
        a.shr(ty, tid, B.trailing_zeros());
        // (bx, by) = ctaid % nbb, ctaid / nbb via repeated subtraction
        // (nbb <= 3; the ISA has no integer divide, like early GPUs).
        a.s2r(bx, SpecialReg::CtaIdX);
        a.mov(by, 0u32);
        a.isetp(p, bx, tmr::scalar(2), CmpOp::Ge, true);
        a.loop_while(|a| {
            a.predicated(p, false, |a| {
                a.isub(bx, bx, tmr::scalar(2));
                a.iadd(by, by, 1u32);
            });
            a.isetp(p, bx, tmr::scalar(2), CmpOp::Ge, true);
            (p, false)
        });
        // After the loop: bx = remainder, by = quotient. Global tile origin:
        // rows = kb + (by+1)*B, cols = kb + (bx+1)*B.
        let (grow, gcol) = (a.reg(), a.reg());
        a.iadd(grow, by, 1u32);
        a.shl(grow, grow, B.trailing_zeros());
        a.iadd(grow, grow, tmr::scalar(1));
        a.iadd(gcol, bx, 1u32);
        a.shl(gcol, gcol, B.trailing_zeros());
        a.iadd(gcol, gcol, tmr::scalar(1));
        // s_a[ty][tx] = m[(kb+ty)*N + gcol + tx] (U strip).
        a.mov(v, tmr::scalar(1));
        a.iadd(v, v, Operand::Reg(ty));
        a.imul(v, v, N);
        a.iadd(v, v, Operand::Reg(gcol));
        a.iadd(v, v, Operand::Reg(tx));
        tmr::load_ptr(&mut a, addr, roff, 0);
        a.iscadd(addr, v, Operand::Reg(addr), 2);
        a.ld(t0, MemSpace::Global, addr, 0);
        a.shl(v, tid, 2u32);
        a.st(MemSpace::Shared, v, s_a as i32, t0);
        // s_b[ty][tx] = m[(grow+ty)*N + kb + tx] (L strip).
        a.iadd(v, grow, Operand::Reg(ty));
        a.imul(v, v, N);
        a.iadd(v, v, tmr::scalar(1));
        a.iadd(v, v, Operand::Reg(tx));
        tmr::load_ptr(&mut a, addr, roff, 0);
        a.iscadd(addr, v, Operand::Reg(addr), 2);
        a.ld(t0, MemSpace::Global, addr, 0);
        a.shl(v, tid, 2u32);
        a.st(MemSpace::Shared, v, s_b as i32, t0);
        a.bar();
        // acc = Σ_i s_b[ty][i] * s_a[i][tx]; m[target] -= acc.
        a.mov(acc, 0.0f32);
        for i in 0..B {
            a.shl(v, ty, B.trailing_zeros());
            a.iadd(v, v, i);
            a.shl(v, v, 2u32);
            a.ld(t0, MemSpace::Shared, v, s_b as i32);
            a.mov(v, i * B * 4);
            a.iscadd(v, tx, Operand::Reg(v), 2);
            a.ld(v, MemSpace::Shared, v, s_a as i32);
            a.ffma(acc, t0, Operand::Reg(v), Operand::Reg(acc));
        }
        a.iadd(v, grow, Operand::Reg(ty));
        a.imul(v, v, N);
        a.iadd(v, v, Operand::Reg(gcol));
        a.iadd(v, v, Operand::Reg(tx));
        tmr::load_ptr(&mut a, addr, roff, 0);
        a.iscadd(addr, v, Operand::Reg(addr), 2);
        a.ld(t0, MemSpace::Global, addr, 0);
        a.ffma(t0, acc, Operand::imm_f32(-1.0), Operand::Reg(t0));
        a.st(MemSpace::Global, addr, 0, t0);
        a.build().expect("lud_internal is well formed")
    })
}

impl Benchmark for Lud {
    fn name(&self) -> &'static str {
        "LUD"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1", "K2", "K3"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let words = N * N;
        let bufs = ctl.alloc(&[words * 4]);
        let m = bufs[0];
        ctl.write_with(m, words, |i| input(i / N, i % N).to_bits());
        let k1 = kernel_diagonal();
        let k2 = kernel_perimeter();
        let k3 = kernel_internal();
        for k in 0..NB {
            let kb = k * B;
            ctl.launch(0, k1, 1, B, vec![m, kb * N + kb])?;
            ctl.vote(0, &[(m, words)])?;
            let nbb = NB - 1 - k;
            if nbb > 0 {
                ctl.launch(1, k2, nbb, 2 * B, vec![m, kb])?;
                ctl.vote(1, &[(m, words)])?;
                ctl.launch(2, k3, nbb * nbb, B * B, vec![m, kb, nbb])?;
                ctl.vote(2, &[(m, words)])?;
            }
        }
        ctl.set_outputs(&[(m, words)]);
        Ok(())
    }
}

/// CPU reference mirroring the blocked algorithm's arithmetic order.
pub fn cpu_reference() -> Vec<f32> {
    let n = N as usize;
    let b = B as usize;
    let mut m: Vec<f32> = (0..N)
        .flat_map(|i| (0..N).map(move |j| input(i, j)))
        .collect();
    for k in 0..NB as usize {
        let kb = k * b;
        // Diagonal.
        for i in 0..b - 1 {
            let r = 1.0 / m[(kb + i) * n + kb + i];
            for t in i + 1..b {
                m[(kb + t) * n + kb + i] *= r;
            }
            for t in i + 1..b {
                let lti = m[(kb + t) * n + kb + i];
                for j in i + 1..b {
                    let uij = -m[(kb + i) * n + kb + j];
                    m[(kb + t) * n + kb + j] = lti.mul_add(uij, m[(kb + t) * n + kb + j]);
                }
            }
        }
        let nbb = NB as usize - 1 - k;
        if nbb == 0 {
            break;
        }
        // Row strips.
        for chunk in 0..nbb {
            let cb = kb + (chunk + 1) * b;
            for col in cb..cb + b {
                for i in 1..b {
                    let mut v = m[(kb + i) * n + col];
                    for j in 0..i {
                        let d = -m[(kb + i) * n + kb + j];
                        v = m[(kb + j) * n + col].mul_add(d, v);
                    }
                    m[(kb + i) * n + col] = v;
                }
            }
        }
        // Column strips.
        for chunk in 0..nbb {
            let rb = kb + (chunk + 1) * b;
            for row in rb..rb + b {
                for j in 0..b {
                    let mut v = m[row * n + kb + j];
                    for i in 0..j {
                        let d = -m[(kb + i) * n + kb + j];
                        v = m[row * n + kb + i].mul_add(d, v);
                    }
                    let r = 1.0 / m[(kb + j) * n + kb + j];
                    m[row * n + kb + j] = v * r;
                }
            }
        }
        // Internal tiles.
        let snapshot = m.clone();
        for byy in 0..nbb {
            for bxx in 0..nbb {
                let rb = kb + (byy + 1) * b;
                let cb = kb + (bxx + 1) * b;
                for ty in 0..b {
                    for tx in 0..b {
                        let mut acc = 0.0f32;
                        for i in 0..b {
                            acc = snapshot[(rb + ty) * n + kb + i]
                                .mul_add(snapshot[(kb + i) * n + cb + tx], acc);
                        }
                        let t = m[(rb + ty) * n + cb + tx];
                        m[(rb + ty) * n + cb + tx] = acc.mul_add(-1.0, t);
                    }
                }
            }
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
    fn matches_cpu_reference_bit_exactly() {
        let g = golden_run(&Lud, &GpuConfig::default(), Variant::FUNCTIONAL);
        let want = cpu_reference();
        for (i, (&got, &want)) in g.output.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                f32::from_bits(got),
                want,
                "cell {i} (r{} c{})",
                i / N as usize,
                i % N as usize
            );
        }
    }

    #[test]
    fn lu_reconstructs_the_input() {
        // Extract L (unit lower) and U from the in-place result and verify
        // L*U ≈ A — algebra-level validation independent of op ordering.
        let m = cpu_reference();
        let n = N as usize;
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f64;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { m[i * n + k] as f64 };
                    let u = m[k * n + j] as f64;
                    if k <= j && k < i || k == i {
                        acc += l * u;
                    }
                }
                let want = input(i as u32, j as u32) as f64;
                assert!(
                    (acc - want).abs() < 1e-2 * want.abs().max(1.0),
                    "A[{i}][{j}]: {acc} vs {want}"
                );
            }
        }
    }

    #[test]
    fn timed_equals_functional() {
        let f = golden_run(&Lud, &GpuConfig::default(), Variant::FUNCTIONAL);
        let t = golden_run(&Lud, &GpuConfig::default(), Variant::TIMED);
        assert_eq!(f.output, t.output);
        // K1 x4, K2 x3, K3 x3 launches.
        let count = |i| {
            t.records
                .iter()
                .filter(|r| r.kernel_idx == i && !r.is_vote)
                .count()
        };
        assert_eq!((count(0), count(1), count(2)), (4, 3, 3));
    }

    #[test]
    fn hardened_matches() {
        let plain = golden_run(&Lud, &GpuConfig::default(), Variant::TIMED);
        let tmr = golden_run(&Lud, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(plain.output, tmr.output);
    }
}
