//! SRADv2 — speckle-reducing anisotropic diffusion, v2 (Rodinia `srad_v2`).
//!
//! The tiled two-kernel variant: **K1** (`srad_cuda_1`) computes the four
//! directional derivatives and the diffusion coefficient from a
//! shared-memory image tile, **K2** (`srad_cuda_2`) applies the divergence
//! update from a shared-memory coefficient tile. The image statistic `q0²`
//! is recomputed on the host before each iteration, as in the original's
//! main loop.

use std::sync::OnceLock;

use crate::harness::{AppAbort, Benchmark, RunCtl};
use crate::kutil::hash_f32;
use crate::tmr;
use vgpu_arch::{CmpOp, Kernel, KernelBuilder, MemSpace, Operand, Reg, SpecialReg};

/// Image side.
pub const W: u32 = 64;
pub const NE: u32 = W * W;
pub const ITERS: usize = 2;
pub const LAMBDA: f32 = 0.5;
/// Tile side (block = TILE² threads).
const TILE: u32 = 8;
const BLOCK: u32 = TILE * TILE;
const SEED: u64 = 0x5332;

pub struct SradV2;

/// Emit global/tile coordinates: `(r, c, gr, gc, lid)` from tid/ctaid.
fn coords(a: &mut KernelBuilder, tid: Reg, r: Reg, c: Reg, gr: Reg, gc: Reg) {
    a.s2r(tid, SpecialReg::TidX);
    a.shr(r, tid, TILE.trailing_zeros());
    a.and(c, tid, TILE - 1);
    a.s2r(gr, SpecialReg::CtaIdX);
    a.shr(gr, gr, (W / TILE).trailing_zeros());
    a.shl(gr, gr, TILE.trailing_zeros());
    a.iadd(gr, gr, Operand::Reg(r));
    a.s2r(gc, SpecialReg::CtaIdX);
    a.and(gc, gc, W / TILE - 1);
    a.shl(gc, gc, TILE.trailing_zeros());
    a.iadd(gc, gc, Operand::Reg(c));
}

/// Load a neighbour value: from the shared tile when it is interior to the
/// tile, from (clamped) global memory otherwise. `dir` as in sradv1.
#[allow(clippy::too_many_arguments)]
fn neighbour_value(
    a: &mut KernelBuilder,
    dst: Reg,
    roff: Reg,
    ptr_idx: u16,
    r: Reg,
    c: Reg,
    gr: Reg,
    gc: Reg,
    tid: Reg,
    tmp: Reg,
    addr: Reg,
    dir: u32,
) {
    let p = vgpu_arch::Pred(3); // dedicated scratch predicate
    let (interior_reg, boundary_at, smem_off): (Reg, u32, i32) = match dir {
        0 => (r, 0, -((TILE * 4) as i32)),
        1 => (r, TILE - 1, (TILE * 4) as i32),
        2 => (c, 0, -4),
        _ => (c, TILE - 1, 4),
    };
    a.isetp(p, interior_reg, boundary_at, CmpOp::Ne, true);
    // Interior: read the shared tile at tid +/- offset.
    a.predicated(p, false, |a| {
        a.shl(tmp, tid, 2u32);
        a.ld(dst, MemSpace::Shared, tmp, smem_off);
    });
    // Boundary: clamped global read.
    a.predicated(p, true, |a| {
        match dir {
            0 => {
                a.isub(tmp, gr, 1u32);
                a.imax(tmp, tmp, 0u32, true);
                a.shl(tmp, tmp, W.trailing_zeros());
                a.iadd(tmp, tmp, Operand::Reg(gc));
            }
            1 => {
                a.iadd(tmp, gr, 1u32);
                a.imin(tmp, tmp, W - 1, true);
                a.shl(tmp, tmp, W.trailing_zeros());
                a.iadd(tmp, tmp, Operand::Reg(gc));
            }
            2 => {
                a.isub(tmp, gc, 1u32);
                a.imax(tmp, tmp, 0u32, true);
                a.shl(dst, gr, W.trailing_zeros());
                a.iadd(tmp, tmp, Operand::Reg(dst));
            }
            _ => {
                a.iadd(tmp, gc, 1u32);
                a.imin(tmp, tmp, W - 1, true);
                a.shl(dst, gr, W.trailing_zeros());
                a.iadd(tmp, tmp, Operand::Reg(dst));
            }
        }
        tmr::load_ptr(a, addr, roff, ptr_idx);
        a.iscadd(addr, tmp, Operand::Reg(addr), 2);
        a.ld(dst, MemSpace::Global, addr, 0);
    });
}

/// K1: params: 0 = image, 1 = dN, 2 = dS, 3 = dW, 4 = dE, 5 = c,
/// 6 = q0sqr (f32 bits).
pub fn kernel1() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("sradv2_k1");
        let s_tile = a.alloc_smem(BLOCK * 4);
        debug_assert_eq!(s_tile, 0);
        let roff = tmr::prologue(&mut a);
        let (tid, r, c, gr, gc) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let (tmp, addr, jc, g2, l) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let (dn, ds, dw, de, num, den, q, gidx) = (
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
        );
        coords(&mut a, tid, r, c, gr, gc);
        // Stage the tile: smem[tid] = I[gr*W + gc].
        a.shl(gidx, gr, W.trailing_zeros());
        a.iadd(gidx, gidx, Operand::Reg(gc));
        tmr::load_ptr(&mut a, addr, roff, 0);
        a.iscadd(addr, gidx, Operand::Reg(addr), 2);
        a.ld(jc, MemSpace::Global, addr, 0);
        a.shl(tmp, tid, 2u32);
        a.st(MemSpace::Shared, tmp, 0, jc);
        a.bar();
        // Directional derivatives.
        let deriv = |a: &mut KernelBuilder, d: Reg, dir: u32| {
            neighbour_value(a, d, roff, 0, r, c, gr, gc, tid, tmp, addr, dir);
            a.ffma(d, jc, Operand::imm_f32(-1.0), Operand::Reg(d));
        };
        deriv(&mut a, dn, 0);
        deriv(&mut a, ds, 1);
        deriv(&mut a, dw, 2);
        deriv(&mut a, de, 3);
        // Same diffusion-coefficient arithmetic as SRADv1 K4.
        a.fmul(g2, dn, Operand::Reg(dn));
        a.ffma(g2, ds, Operand::Reg(ds), Operand::Reg(g2));
        a.ffma(g2, dw, Operand::Reg(dw), Operand::Reg(g2));
        a.ffma(g2, de, Operand::Reg(de), Operand::Reg(g2));
        a.fmul(tmp, jc, Operand::Reg(jc));
        a.frcp(tmp, tmp);
        a.fmul(g2, g2, Operand::Reg(tmp));
        a.fadd(l, dn, Operand::Reg(ds));
        a.fadd(l, l, Operand::Reg(dw));
        a.fadd(l, l, Operand::Reg(de));
        a.frcp(tmp, jc);
        a.fmul(l, l, Operand::Reg(tmp));
        a.fmul(num, g2, Operand::imm_f32(0.5));
        a.fmul(tmp, l, Operand::Reg(l));
        a.ffma(num, tmp, Operand::imm_f32(-1.0 / 16.0), Operand::Reg(num));
        a.mov(den, 1.0f32);
        a.ffma(den, l, Operand::imm_f32(0.25), Operand::Reg(den));
        a.fmul(den, den, Operand::Reg(den));
        a.frcp(den, den);
        a.fmul(q, num, Operand::Reg(den));
        a.mov(tmp, tmr::scalar(6));
        a.ffma(q, tmp, Operand::imm_f32(-1.0), Operand::Reg(q));
        a.mov(den, 1.0f32);
        a.fadd(den, den, Operand::Reg(tmp));
        a.fmul(den, den, Operand::Reg(tmp));
        a.frcp(den, den);
        a.fmul(q, q, Operand::Reg(den));
        a.mov(den, 1.0f32);
        a.fadd(q, q, Operand::Reg(den));
        a.frcp(q, q);
        a.fmax(q, q, Operand::imm_f32(0.0));
        a.fmin(q, q, Operand::imm_f32(1.0));
        for (i, reg) in [(1u16, dn), (2, ds), (3, dw), (4, de), (5, q)] {
            tmr::load_ptr(&mut a, addr, roff, i);
            a.iscadd(addr, gidx, Operand::Reg(addr), 2);
            a.st(MemSpace::Global, addr, 0, reg);
        }
        a.build().expect("sradv2 k1 is well formed")
    })
}

/// K2: params: 0 = image, 1 = dN, 2 = dS, 3 = dW, 4 = dE, 5 = c.
pub fn kernel2() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("sradv2_k2");
        let s_tile = a.alloc_smem(BLOCK * 4);
        debug_assert_eq!(s_tile, 0);
        let roff = tmr::prologue(&mut a);
        let (tid, r, c, gr, gc) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let (tmp, addr, cn, cs, ce) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let (d, acc, gidx) = (a.reg(), a.reg(), a.reg());
        coords(&mut a, tid, r, c, gr, gc);
        // Stage the coefficient tile.
        a.shl(gidx, gr, W.trailing_zeros());
        a.iadd(gidx, gidx, Operand::Reg(gc));
        tmr::load_ptr(&mut a, addr, roff, 5);
        a.iscadd(addr, gidx, Operand::Reg(addr), 2);
        a.ld(cn, MemSpace::Global, addr, 0); // cN = cW = c[gid]
        a.shl(tmp, tid, 2u32);
        a.st(MemSpace::Shared, tmp, 0, cn);
        a.bar();
        neighbour_value(&mut a, cs, roff, 5, r, c, gr, gc, tid, tmp, addr, 1);
        neighbour_value(&mut a, ce, roff, 5, r, c, gr, gc, tid, tmp, addr, 3);
        // D = cN*dN + cS*dS + cN*dW + cE*dE; I += 0.25*lambda*D.
        tmr::load_ptr(&mut a, addr, roff, 1);
        a.iscadd(addr, gidx, Operand::Reg(addr), 2);
        a.ld(d, MemSpace::Global, addr, 0);
        a.fmul(acc, cn, Operand::Reg(d));
        tmr::load_ptr(&mut a, addr, roff, 2);
        a.iscadd(addr, gidx, Operand::Reg(addr), 2);
        a.ld(d, MemSpace::Global, addr, 0);
        a.ffma(acc, cs, Operand::Reg(d), Operand::Reg(acc));
        tmr::load_ptr(&mut a, addr, roff, 3);
        a.iscadd(addr, gidx, Operand::Reg(addr), 2);
        a.ld(d, MemSpace::Global, addr, 0);
        a.ffma(acc, cn, Operand::Reg(d), Operand::Reg(acc));
        tmr::load_ptr(&mut a, addr, roff, 4);
        a.iscadd(addr, gidx, Operand::Reg(addr), 2);
        a.ld(d, MemSpace::Global, addr, 0);
        a.ffma(acc, ce, Operand::Reg(d), Operand::Reg(acc));
        tmr::load_ptr(&mut a, addr, roff, 0);
        a.iscadd(addr, gidx, Operand::Reg(addr), 2);
        a.ld(d, MemSpace::Global, addr, 0);
        a.ffma(d, acc, Operand::imm_f32(0.25 * LAMBDA), Operand::Reg(d));
        a.st(MemSpace::Global, addr, 0, d);
        a.build().expect("sradv2 k2 is well formed")
    })
}

pub fn input_pixel(i: u32) -> f32 {
    0.2 + 0.8 * hash_f32(SEED, i as u64)
}

impl Benchmark for SradV2 {
    fn name(&self) -> &'static str {
        "SRADv2"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1", "K2"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let bufs = ctl.alloc(&[NE * 4; 6]);
        let (img, dn, ds, dw, de, c) = (bufs[0], bufs[1], bufs[2], bufs[3], bufs[4], bufs[5]);
        ctl.write_with(img, NE, |i| input_pixel(i).to_bits());
        let k1 = kernel1();
        let k2 = kernel2();
        let grid = (W / TILE) * (W / TILE);
        let mut pixels = vec![0u32; NE as usize];
        for _ in 0..ITERS {
            // Host-side statistics, as in the original's main loop.
            let mut total = 0.0f32;
            let mut total2 = 0.0f32;
            ctl.read_slice(img, &mut pixels);
            for &v in &pixels {
                let v = f32::from_bits(v);
                total += v;
                total2 += v * v;
            }
            let mean = total / NE as f32;
            let var = total2 / NE as f32 - mean * mean;
            let q0sqr = var / (mean * mean);
            ctl.launch(
                0,
                k1,
                grid,
                BLOCK,
                vec![img, dn, ds, dw, de, c, q0sqr.to_bits()],
            )?;
            ctl.vote(0, &[(dn, NE), (ds, NE), (dw, NE), (de, NE), (c, NE)])?;
            ctl.launch(1, k2, grid, BLOCK, vec![img, dn, ds, dw, de, c])?;
            ctl.vote(1, &[(img, NE)])?;
        }
        ctl.set_outputs(&[(img, NE)]);
        Ok(())
    }
}

/// CPU reference mirroring the GPU arithmetic order.
pub fn cpu_reference() -> Vec<f32> {
    let ne = NE as usize;
    let w = W as usize;
    let mut img: Vec<f32> = (0..NE).map(input_pixel).collect();
    for _ in 0..ITERS {
        let mut total = 0.0f32;
        let mut total2 = 0.0f32;
        for &v in &img {
            total += v;
            total2 += v * v;
        }
        let mean = total / NE as f32;
        let var = total2 / NE as f32 - mean * mean;
        let q0 = var / (mean * mean);
        let mut dn = vec![0.0f32; ne];
        let mut ds = vec![0.0f32; ne];
        let mut dwv = vec![0.0f32; ne];
        let mut de = vec![0.0f32; ne];
        let mut cc = vec![0.0f32; ne];
        for g in 0..ne {
            let (r, c) = (g / w, g % w);
            let jc = img[g];
            let nb = |rr: i32, ccc: i32| {
                img[(rr.clamp(0, w as i32 - 1) as usize) * w + ccc.clamp(0, w as i32 - 1) as usize]
            };
            let d_n = jc.mul_add(-1.0, nb(r as i32 - 1, c as i32));
            let d_s = jc.mul_add(-1.0, nb(r as i32 + 1, c as i32));
            let d_w = jc.mul_add(-1.0, nb(r as i32, c as i32 - 1));
            let d_e = jc.mul_add(-1.0, nb(r as i32, c as i32 + 1));
            let mut g2 = d_n * d_n;
            g2 = d_s.mul_add(d_s, g2);
            g2 = d_w.mul_add(d_w, g2);
            g2 = d_e.mul_add(d_e, g2);
            g2 *= 1.0 / (jc * jc);
            let mut l = d_n + d_s;
            l += d_w;
            l += d_e;
            l *= 1.0 / jc;
            let mut num = g2 * 0.5;
            num = (l * l).mul_add(-1.0 / 16.0, num);
            let mut den = l.mul_add(0.25, 1.0);
            den *= den;
            let mut q = num * (1.0 / den);
            q = q0.mul_add(-1.0, q);
            let den2 = (1.0 + q0) * q0;
            q *= 1.0 / den2;
            q += 1.0;
            dn[g] = d_n;
            ds[g] = d_s;
            dwv[g] = d_w;
            de[g] = d_e;
            cc[g] = (1.0 / q).clamp(0.0, 1.0);
        }
        for g in 0..ne {
            let (r, c) = (g / w, g % w);
            let cs = cc[(r + 1).min(w - 1) * w + c];
            let ce = cc[r * w + (c + 1).min(w - 1)];
            let mut acc = cc[g] * dn[g];
            acc = cs.mul_add(ds[g], acc);
            acc = cc[g].mul_add(dwv[g], acc);
            acc = ce.mul_add(de[g], acc);
            img[g] = acc.mul_add(0.25 * LAMBDA, img[g]);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{golden_run, Variant};
    use vgpu_sim::GpuConfig;

    #[test]
    fn matches_cpu_reference_bit_exactly() {
        let g = golden_run(&SradV2, &GpuConfig::default(), Variant::FUNCTIONAL);
        let want = cpu_reference();
        for (i, (&got, &want)) in g.output.iter().zip(want.iter()).enumerate() {
            assert_eq!(f32::from_bits(got), want, "pixel {i}");
        }
    }

    #[test]
    fn timed_equals_functional() {
        let f = golden_run(&SradV2, &GpuConfig::default(), Variant::FUNCTIONAL);
        let t = golden_run(&SradV2, &GpuConfig::default(), Variant::TIMED);
        assert_eq!(f.output, t.output);
        assert!(t.app_stats().smem_instrs > 0);
    }

    #[test]
    fn hardened_matches() {
        let plain = golden_run(&SradV2, &GpuConfig::default(), Variant::TIMED);
        let tmr = golden_run(&SradV2, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(plain.output, tmr.output);
    }
}
