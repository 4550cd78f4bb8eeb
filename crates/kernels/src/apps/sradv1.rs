//! SRADv1 — speckle-reducing anisotropic diffusion, v1 (Rodinia `srad_v1`).
//!
//! The six-kernel pipeline of the original:
//!
//! * **K1 `extract`** — `I = exp(I/255)`.
//! * **K2 `prepare`** — stage `sums = I`, `sums2 = I²` for the reduction.
//! * **K3 `reduce`** — per-CTA shared-memory tree reduction of both
//!   arrays; the host folds the per-CTA partials into the image statistics
//!   (mean, variance, `q0²`).
//! * **K4 `srad`** — per-pixel directional derivatives and the diffusion
//!   coefficient.
//! * **K5 `srad2`** — divergence and image update.
//! * **K6 `compress`** — `I = ln(I)·255`.
//!
//! K2–K5 run once per diffusion iteration (2 iterations here).

use std::sync::OnceLock;

use crate::harness::{AppAbort, Benchmark, RunCtl};
use crate::kutil::{elem_addr, gid_guard, hash_f32};
use crate::tmr;
use vgpu_arch::{CmpOp, Kernel, KernelBuilder, MemSpace, Operand, SpecialReg};

/// Image side (power of two).
pub const W: u32 = 64;
/// Pixels.
pub const NE: u32 = W * W;
/// Diffusion iterations.
pub const ITERS: usize = 2;
pub const LAMBDA: f32 = 0.5;
const BLOCK: u32 = 128;
const RBLOCKS: u32 = NE / BLOCK;
const SEED: u64 = 0x5352;

pub struct SradV1;

/// K1: params: 0 = image, 1 = Ne.
pub fn kernel_extract() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("sradv1_k1_extract");
        let roff = tmr::prologue(&mut a);
        let (gid, tmp, addr, v) = (a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        gid_guard(&mut a, gid, tmp, p, 1);
        a.if_then(p, false, |a| {
            elem_addr(a, addr, roff, 0, gid, 2);
            a.ld(v, MemSpace::Global, addr, 0);
            a.fmul(v, v, Operand::imm_f32(1.0 / 255.0));
            a.fexp(v, v);
            a.st(MemSpace::Global, addr, 0, v);
        });
        a.build().expect("extract is well formed")
    })
}

/// K2: params: 0 = image, 1 = sums, 2 = sums2, 3 = Ne.
pub fn kernel_prepare() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("sradv1_k2_prepare");
        let roff = tmr::prologue(&mut a);
        let (gid, tmp, addr, v, v2) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        gid_guard(&mut a, gid, tmp, p, 3);
        a.if_then(p, false, |a| {
            elem_addr(a, addr, roff, 0, gid, 2);
            a.ld(v, MemSpace::Global, addr, 0);
            elem_addr(a, addr, roff, 1, gid, 2);
            a.st(MemSpace::Global, addr, 0, v);
            a.fmul(v2, v, Operand::Reg(v));
            elem_addr(a, addr, roff, 2, gid, 2);
            a.st(MemSpace::Global, addr, 0, v2);
        });
        a.build().expect("prepare is well formed")
    })
}

/// K3: params: 0 = sums, 1 = sums2, 2 = partial1, 3 = partial2.
/// Tree-reduces both arrays per CTA.
pub fn kernel_reduce() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("sradv1_k3_reduce");
        let s1 = a.alloc_smem(BLOCK * 4);
        let s2 = a.alloc_smem(BLOCK * 4);
        debug_assert_eq!(s1, 0);
        let roff = tmr::prologue(&mut a);
        let (tid, gid, tmp, addr, v, w) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        a.s2r(tid, SpecialReg::TidX);
        a.linear_tid(gid, tmp);
        elem_addr(&mut a, addr, roff, 0, gid, 2);
        a.ld(v, MemSpace::Global, addr, 0);
        a.shl(tmp, tid, 2u32);
        a.st(MemSpace::Shared, tmp, s1 as i32, v);
        elem_addr(&mut a, addr, roff, 1, gid, 2);
        a.ld(v, MemSpace::Global, addr, 0);
        a.st(MemSpace::Shared, tmp, s2 as i32, v);
        a.bar();
        let mut s = BLOCK / 2;
        while s >= 1 {
            a.isetp(p, tid, s, CmpOp::Lt, true);
            a.predicated(p, false, |a| {
                for off in [s1, s2] {
                    a.iadd(tmp, tid, s);
                    a.shl(tmp, tmp, 2u32);
                    a.ld(v, MemSpace::Shared, tmp, off as i32);
                    a.shl(tmp, tid, 2u32);
                    a.ld(w, MemSpace::Shared, tmp, off as i32);
                    a.fadd(w, w, Operand::Reg(v));
                    a.st(MemSpace::Shared, tmp, off as i32, w);
                }
            });
            a.bar();
            s /= 2;
        }
        a.isetp(p, tid, 0u32, CmpOp::Eq, true);
        a.predicated(p, false, |a| {
            a.s2r(gid, SpecialReg::CtaIdX);
            a.mov(tmp, 0u32);
            a.ld(v, MemSpace::Shared, tmp, s1 as i32);
            elem_addr(a, addr, roff, 2, gid, 2);
            a.st(MemSpace::Global, addr, 0, v);
            a.ld(v, MemSpace::Shared, tmp, s2 as i32);
            elem_addr(a, addr, roff, 3, gid, 2);
            a.st(MemSpace::Global, addr, 0, v);
        });
        a.build().expect("reduce is well formed")
    })
}

/// Emit `nbr = clamped neighbour pixel index` for a direction.
/// `dir`: 0 = N, 1 = S, 2 = W, 3 = E. Uses `row`/`col` and clobbers `tmp`.
fn neighbour_index(
    a: &mut KernelBuilder,
    nbr: vgpu_arch::Reg,
    row: vgpu_arch::Reg,
    col: vgpu_arch::Reg,
    tmp: vgpu_arch::Reg,
    dir: u32,
) {
    match dir {
        0 => {
            a.isub(tmp, row, 1u32);
            a.imax(tmp, tmp, 0u32, true);
            a.shl(tmp, tmp, W.trailing_zeros());
            a.iadd(nbr, tmp, Operand::Reg(col));
        }
        1 => {
            a.iadd(tmp, row, 1u32);
            a.imin(tmp, tmp, W - 1, true);
            a.shl(tmp, tmp, W.trailing_zeros());
            a.iadd(nbr, tmp, Operand::Reg(col));
        }
        2 => {
            a.isub(tmp, col, 1u32);
            a.imax(tmp, tmp, 0u32, true);
            a.shl(nbr, row, W.trailing_zeros());
            a.iadd(nbr, nbr, Operand::Reg(tmp));
        }
        _ => {
            a.iadd(tmp, col, 1u32);
            a.imin(tmp, tmp, W - 1, true);
            a.shl(nbr, row, W.trailing_zeros());
            a.iadd(nbr, nbr, Operand::Reg(tmp));
        }
    }
}

/// K4: params: 0 = image, 1 = dN, 2 = dS, 3 = dW, 4 = dE, 5 = c,
/// 6 = q0sqr (f32 bits), 7 = Ne.
pub fn kernel_srad() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("sradv1_k4_srad");
        let roff = tmr::prologue(&mut a);
        let (gid, tmp, addr, row, col, jc) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let (dn, ds, dw, de, g2, l) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let (num, den, q) = (a.reg(), a.reg(), a.reg());
        let p = a.pred();
        gid_guard(&mut a, gid, tmp, p, 7);
        a.if_then(p, false, |a| {
            a.shr(row, gid, W.trailing_zeros());
            a.and(col, gid, W - 1);
            elem_addr(a, addr, roff, 0, gid, 2);
            a.ld(jc, MemSpace::Global, addr, 0);
            // Directional derivatives d· = I[neighbour] - Jc.
            let deriv = |a: &mut KernelBuilder, d: vgpu_arch::Reg, dir: u32| {
                neighbour_index(a, num, row, col, tmp, dir);
                elem_addr(a, addr, roff, 0, num, 2);
                a.ld(d, MemSpace::Global, addr, 0);
                a.ffma(d, jc, Operand::imm_f32(-1.0), Operand::Reg(d));
            };
            deriv(a, dn, 0);
            deriv(a, ds, 1);
            deriv(a, dw, 2);
            deriv(a, de, 3);
            // G2 = (dN²+dS²+dW²+dE²) / Jc².
            a.fmul(g2, dn, Operand::Reg(dn));
            a.ffma(g2, ds, Operand::Reg(ds), Operand::Reg(g2));
            a.ffma(g2, dw, Operand::Reg(dw), Operand::Reg(g2));
            a.ffma(g2, de, Operand::Reg(de), Operand::Reg(g2));
            a.fmul(tmp, jc, Operand::Reg(jc));
            a.frcp(tmp, tmp);
            a.fmul(g2, g2, Operand::Reg(tmp));
            // L = (dN+dS+dW+dE) / Jc.
            a.fadd(l, dn, Operand::Reg(ds));
            a.fadd(l, l, Operand::Reg(dw));
            a.fadd(l, l, Operand::Reg(de));
            a.frcp(tmp, jc);
            a.fmul(l, l, Operand::Reg(tmp));
            // num = 0.5*G2 - (1/16)*L²; den = 1 + 0.25*L; q = num/den².
            a.fmul(num, g2, Operand::imm_f32(0.5));
            a.fmul(tmp, l, Operand::Reg(l));
            a.ffma(num, tmp, Operand::imm_f32(-1.0 / 16.0), Operand::Reg(num));
            a.mov(den, 1.0f32);
            a.ffma(den, l, Operand::imm_f32(0.25), Operand::Reg(den));
            a.fmul(den, den, Operand::Reg(den));
            a.frcp(den, den);
            a.fmul(q, num, Operand::Reg(den));
            // c = 1 / (1 + (q - q0)/(q0*(1+q0))), clamped to [0,1].
            a.mov(tmp, tmr::scalar(6)); // q0sqr
            a.ffma(q, tmp, Operand::imm_f32(-1.0), Operand::Reg(q)); // q - q0
            a.mov(den, 1.0f32);
            a.fadd(den, den, Operand::Reg(tmp));
            a.fmul(den, den, Operand::Reg(tmp)); // q0*(1+q0)
            a.frcp(den, den);
            a.fmul(q, q, Operand::Reg(den));
            a.mov(den, 1.0f32);
            a.fadd(q, q, Operand::Reg(den));
            a.frcp(q, q);
            a.fmax(q, q, Operand::imm_f32(0.0));
            a.fmin(q, q, Operand::imm_f32(1.0));
            // Store derivatives and coefficient.
            for (i, r) in [(1u16, dn), (2, ds), (3, dw), (4, de), (5, q)] {
                elem_addr(a, addr, roff, i, gid, 2);
                a.st(MemSpace::Global, addr, 0, r);
            }
        });
        a.build().expect("srad is well formed")
    })
}

/// K5: params: 0 = image, 1 = dN, 2 = dS, 3 = dW, 4 = dE, 5 = c, 6 = Ne.
pub fn kernel_srad2() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("sradv1_k5_srad2");
        let roff = tmr::prologue(&mut a);
        let (gid, tmp, addr, row, col, nbr) =
            (a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let (cn, cs, cw, ce, d, acc) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        gid_guard(&mut a, gid, tmp, p, 6);
        a.if_then(p, false, |a| {
            a.shr(row, gid, W.trailing_zeros());
            a.and(col, gid, W - 1);
            // cN = cW = c[gid]; cS = c[south]; cE = c[east] (Rodinia scheme).
            elem_addr(a, addr, roff, 5, gid, 2);
            a.ld(cn, MemSpace::Global, addr, 0);
            a.mov(cw, Operand::Reg(cn));
            neighbour_index(a, nbr, row, col, tmp, 1);
            elem_addr(a, addr, roff, 5, nbr, 2);
            a.ld(cs, MemSpace::Global, addr, 0);
            neighbour_index(a, nbr, row, col, tmp, 3);
            elem_addr(a, addr, roff, 5, nbr, 2);
            a.ld(ce, MemSpace::Global, addr, 0);
            // D = cN*dN + cS*dS + cW*dW + cE*dE.
            elem_addr(a, addr, roff, 1, gid, 2);
            a.ld(d, MemSpace::Global, addr, 0);
            a.fmul(acc, cn, Operand::Reg(d));
            elem_addr(a, addr, roff, 2, gid, 2);
            a.ld(d, MemSpace::Global, addr, 0);
            a.ffma(acc, cs, Operand::Reg(d), Operand::Reg(acc));
            elem_addr(a, addr, roff, 3, gid, 2);
            a.ld(d, MemSpace::Global, addr, 0);
            a.ffma(acc, cw, Operand::Reg(d), Operand::Reg(acc));
            elem_addr(a, addr, roff, 4, gid, 2);
            a.ld(d, MemSpace::Global, addr, 0);
            a.ffma(acc, ce, Operand::Reg(d), Operand::Reg(acc));
            // I += 0.25*lambda*D.
            elem_addr(a, addr, roff, 0, gid, 2);
            a.ld(d, MemSpace::Global, addr, 0);
            a.ffma(d, acc, Operand::imm_f32(0.25 * LAMBDA), Operand::Reg(d));
            a.st(MemSpace::Global, addr, 0, d);
        });
        a.build().expect("srad2 is well formed")
    })
}

/// K6: params: 0 = image, 1 = Ne.
pub fn kernel_compress() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("sradv1_k6_compress");
        let roff = tmr::prologue(&mut a);
        let (gid, tmp, addr, v) = (a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        gid_guard(&mut a, gid, tmp, p, 1);
        a.if_then(p, false, |a| {
            elem_addr(a, addr, roff, 0, gid, 2);
            a.ld(v, MemSpace::Global, addr, 0);
            a.flog(v, v);
            a.fmul(v, v, Operand::imm_f32(255.0));
            a.st(MemSpace::Global, addr, 0, v);
        });
        a.build().expect("compress is well formed")
    })
}

pub fn input_pixel(i: u32) -> f32 {
    30.0 + 80.0 * hash_f32(SEED, i as u64)
}

impl Benchmark for SradV1 {
    fn name(&self) -> &'static str {
        "SRADv1"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1", "K2", "K3", "K4", "K5", "K6"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let bufs = ctl.alloc(&[
            NE * 4,      // image
            NE * 4,      // sums
            NE * 4,      // sums2
            RBLOCKS * 4, // partial1
            RBLOCKS * 4, // partial2
            NE * 4,      // dN
            NE * 4,      // dS
            NE * 4,      // dW
            NE * 4,      // dE
            NE * 4,      // c
        ]);
        let (img, sums, sums2, p1, p2) = (bufs[0], bufs[1], bufs[2], bufs[3], bufs[4]);
        let (dn, ds, dw, de, c) = (bufs[5], bufs[6], bufs[7], bufs[8], bufs[9]);
        ctl.write_with(img, NE, |i| input_pixel(i).to_bits());
        let grid = NE / BLOCK;
        let (k1, k2, k3) = (kernel_extract(), kernel_prepare(), kernel_reduce());
        let (k4, k5, k6) = (kernel_srad(), kernel_srad2(), kernel_compress());
        ctl.launch(0, k1, grid, BLOCK, vec![img, NE])?;
        ctl.vote(0, &[(img, NE)])?;
        for _ in 0..ITERS {
            ctl.launch(1, k2, grid, BLOCK, vec![img, sums, sums2, NE])?;
            ctl.vote(1, &[(sums, NE), (sums2, NE)])?;
            ctl.launch(2, k3, RBLOCKS, BLOCK, vec![sums, sums2, p1, p2])?;
            ctl.vote(2, &[(p1, RBLOCKS), (p2, RBLOCKS)])?;
            // Host: fold partials into the image statistics.
            let mut total = 0.0f32;
            let mut total2 = 0.0f32;
            for b in 0..RBLOCKS {
                total += ctl.read_f32(p1 + b * 4);
                total2 += ctl.read_f32(p2 + b * 4);
            }
            let mean = total / NE as f32;
            let var = total2 / NE as f32 - mean * mean;
            let q0sqr = var / (mean * mean);
            ctl.launch(
                3,
                k4,
                grid,
                BLOCK,
                vec![img, dn, ds, dw, de, c, q0sqr.to_bits(), NE],
            )?;
            ctl.vote(3, &[(dn, NE), (ds, NE), (dw, NE), (de, NE), (c, NE)])?;
            ctl.launch(4, k5, grid, BLOCK, vec![img, dn, ds, dw, de, c, NE])?;
            ctl.vote(4, &[(img, NE)])?;
        }
        ctl.launch(5, k6, grid, BLOCK, vec![img, NE])?;
        ctl.vote(5, &[(img, NE)])?;
        ctl.set_outputs(&[(img, NE)]);
        Ok(())
    }
}

/// CPU reference mirroring the GPU arithmetic order.
pub fn cpu_reference() -> Vec<f32> {
    let ne = NE as usize;
    let w = W as usize;
    let mut img: Vec<f32> = (0..NE).map(input_pixel).collect();
    for v in img.iter_mut() {
        *v = (*v * (1.0 / 255.0)).exp();
    }
    for _ in 0..ITERS {
        // Reduction in the GPU's tree order.
        let mut total = 0.0f32;
        let mut total2 = 0.0f32;
        for b in 0..RBLOCKS as usize {
            let base = b * BLOCK as usize;
            let mut t1: Vec<f32> = (0..BLOCK as usize).map(|t| img[base + t]).collect();
            let mut t2: Vec<f32> = (0..BLOCK as usize)
                .map(|t| img[base + t] * img[base + t])
                .collect();
            let mut s = BLOCK as usize / 2;
            while s >= 1 {
                for t in 0..s {
                    t1[t] += t1[t + s];
                    t2[t] += t2[t + s];
                }
                s /= 2;
            }
            total += t1[0];
            total2 += t2[0];
        }
        let mean = total / NE as f32;
        let var = total2 / NE as f32 - mean * mean;
        let q0 = var / (mean * mean);
        // K4.
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
            let cv = (1.0 / q).clamp(0.0, 1.0);
            dn[g] = d_n;
            ds[g] = d_s;
            dwv[g] = d_w;
            de[g] = d_e;
            cc[g] = cv;
        }
        // K5.
        let snapshot = img.clone();
        let _ = snapshot;
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
    for v in img.iter_mut() {
        *v = v.ln() * 255.0;
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
        let g = golden_run(&SradV1, &GpuConfig::default(), Variant::FUNCTIONAL);
        let want = cpu_reference();
        for (i, (&got, &want)) in g.output.iter().zip(want.iter()).enumerate() {
            assert_eq!(f32::from_bits(got), want, "pixel {i}");
        }
    }

    #[test]
    fn timed_equals_functional_with_six_kernels() {
        let f = golden_run(&SradV1, &GpuConfig::default(), Variant::FUNCTIONAL);
        let t = golden_run(&SradV1, &GpuConfig::default(), Variant::TIMED);
        assert_eq!(f.output, t.output);
        for idx in 0..6 {
            assert!(
                t.records.iter().any(|r| r.kernel_idx == idx && !r.is_vote),
                "kernel {idx} never launched"
            );
        }
    }

    #[test]
    fn hardened_matches() {
        let plain = golden_run(&SradV1, &GpuConfig::default(), Variant::TIMED);
        let tmr = golden_run(&SradV1, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(plain.output, tmr.output);
    }
}
