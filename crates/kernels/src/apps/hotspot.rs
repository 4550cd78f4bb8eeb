//! HotSpot — thermal simulation stencil (Rodinia `hotspot`).
//!
//! One kernel: a 4-point stencil over a 2D temperature grid with a power
//! term, tiled through shared memory with halo loads and a CTA barrier —
//! the high-resource-utilization workload of Figure 3a. Two ping-pong
//! iterations.

use std::sync::OnceLock;

use crate::harness::{AppAbort, Benchmark, RunCtl};
use crate::kutil::hash_f32;
use crate::tmr;
use vgpu_arch::{CmpOp, Kernel, KernelBuilder, MemSpace, Operand, Reg, SpecialReg};

/// Grid side (power of two).
pub const W: u32 = 64;
/// Tile side; block = TILE*TILE threads.
pub const TILE: u32 = 8;
const BLOCK: u32 = TILE * TILE;
/// Ping-pong steps.
pub const STEPS: usize = 2;
const SEED: u64 = 0x484f54;

/// Stencil coefficients (scaled-down Rodinia constants).
pub const K_DIFF: f32 = 0.1;
pub const K_POWER: f32 = 0.05;
pub const K_AMB: f32 = 0.002;
pub const T_AMB: f32 = 80.0;

pub struct HotSpot;

/// `temp_in[row*W + col]` → `smem[(sr_base + r)*sh + sc_base + c]`.
#[allow(clippy::too_many_arguments)]
fn emit_halo_load(
    a: &mut KernelBuilder,
    roff: Reg,
    row: Reg,
    col: Reg,
    r: Reg,
    c: Reg,
    sr_add: u32,
    sc_add: u32,
    scratch: (Reg, Reg, Reg),
) {
    let sh = TILE + 2;
    let (addr, v, t) = scratch;
    a.shl(t, row, W.trailing_zeros());
    a.iadd(t, t, Operand::Reg(col));
    tmr::load_ptr(a, addr, roff, 0);
    a.iscadd(addr, t, Operand::Reg(addr), 2);
    a.ld(v, MemSpace::Global, addr, 0);
    a.imad(t, r, sh, Operand::Reg(c));
    a.iadd(t, t, sr_add * sh + sc_add);
    a.shl(t, t, 2u32);
    a.st(MemSpace::Shared, t, 0, v);
}

/// Benchmark parameters: 0 = temp_in, 1 = power, 2 = temp_out.
pub fn kernel() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let sh = TILE + 2; // halo'd tile side (10)
        let mut a = KernelBuilder::new("hotspot_k1");
        let smem = a.alloc_smem(sh * sh * 4);
        debug_assert_eq!(smem, 0);
        let roff = tmr::prologue(&mut a);
        let (tid, r, c, gr, gc, nb) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let (addr, v, t0, t1) = (a.reg(), a.reg(), a.reg(), a.reg());
        let (idx, acc) = (a.reg(), a.reg());
        let scratch = (addr, v, idx);
        let p = a.pred();

        a.s2r(tid, SpecialReg::TidX);
        a.shr(r, tid, TILE.trailing_zeros());
        a.and(c, tid, TILE - 1);
        // Tile coordinates from the linear CTA id.
        a.s2r(gr, SpecialReg::CtaIdX);
        a.shr(gr, gr, (W / TILE).trailing_zeros()); // tile row
        a.shl(gr, gr, TILE.trailing_zeros());
        a.iadd(gr, gr, Operand::Reg(r)); // global row
        a.s2r(gc, SpecialReg::CtaIdX);
        a.and(gc, gc, W / TILE - 1);
        a.shl(gc, gc, TILE.trailing_zeros());
        a.iadd(gc, gc, Operand::Reg(c)); // global col

        // Center cell.
        emit_halo_load(&mut a, roff, gr, gc, r, c, 1, 1, scratch);
        // North halo (tile row 0): row = max(gr-1, 0); smem row 0.
        a.isetp(p, r, 0u32, CmpOp::Eq, true);
        a.if_then(p, false, |a| {
            a.isub(nb, gr, 1u32);
            a.imax(nb, nb, 0u32, true);
            emit_halo_load(a, roff, nb, gc, r, c, 0, 1, scratch);
        });
        // South halo (tile row TILE-1): row = min(gr+1, W-1); smem row TILE+1.
        a.isetp(p, r, TILE - 1, CmpOp::Eq, true);
        a.if_then(p, false, |a| {
            a.iadd(nb, gr, 1u32);
            a.imin(nb, nb, W - 1, true);
            emit_halo_load(a, roff, nb, gc, r, c, 2, 1, scratch);
        });
        // West halo.
        a.isetp(p, c, 0u32, CmpOp::Eq, true);
        a.if_then(p, false, |a| {
            a.isub(nb, gc, 1u32);
            a.imax(nb, nb, 0u32, true);
            emit_halo_load(a, roff, gr, nb, r, c, 1, 0, scratch);
        });
        // East halo.
        a.isetp(p, c, TILE - 1, CmpOp::Eq, true);
        a.if_then(p, false, |a| {
            a.iadd(nb, gc, 1u32);
            a.imin(nb, nb, W - 1, true);
            emit_halo_load(a, roff, gr, nb, r, c, 1, 2, scratch);
        });
        a.bar();

        // Stencil from shared memory; center index = (r+1)*sh + (c+1).
        a.imad(idx, r, sh, Operand::Reg(c));
        a.iadd(idx, idx, sh + 1);
        a.shl(idx, idx, 2u32);
        a.ld(t0, MemSpace::Shared, idx, 0); // center
        a.ld(v, MemSpace::Shared, idx, -((sh * 4) as i32)); // north
        a.ld(t1, MemSpace::Shared, idx, (sh * 4) as i32); // south
        a.fadd(acc, v, Operand::Reg(t1));
        a.ld(v, MemSpace::Shared, idx, -4); // west
        a.fadd(acc, acc, Operand::Reg(v));
        a.ld(v, MemSpace::Shared, idx, 4); // east
        a.fadd(acc, acc, Operand::Reg(v));
        a.ffma(acc, t0, Operand::imm_f32(-4.0), Operand::Reg(acc)); // Σneigh - 4t
                                                                    // new = t + K_DIFF*acc + K_POWER*power[g] + K_AMB*(T_AMB - t)
        a.ffma(t1, acc, Operand::imm_f32(K_DIFF), Operand::Reg(t0));
        a.shl(idx, gr, W.trailing_zeros());
        a.iadd(idx, idx, Operand::Reg(gc));
        tmr::load_ptr(&mut a, addr, roff, 1);
        a.iscadd(addr, idx, Operand::Reg(addr), 2);
        a.ld(v, MemSpace::Global, addr, 0); // power
        a.ffma(t1, v, Operand::imm_f32(K_POWER), Operand::Reg(t1));
        // v = T_AMB - t0
        a.fmul(t0, t0, Operand::imm_f32(-1.0));
        a.mov(v, T_AMB);
        a.fadd(v, v, Operand::Reg(t0));
        a.ffma(t1, v, Operand::imm_f32(K_AMB), Operand::Reg(t1));
        // temp_out[g] = t1
        tmr::load_ptr(&mut a, addr, roff, 2);
        a.iscadd(addr, idx, Operand::Reg(addr), 2);
        a.st(MemSpace::Global, addr, 0, t1);
        a.build().expect("hotspot kernel is well formed")
    })
}

pub fn input_temp(i: u32) -> f32 {
    70.0 + 20.0 * hash_f32(SEED, i as u64)
}

pub fn input_power(i: u32) -> f32 {
    hash_f32(SEED ^ 0x50, i as u64)
}

impl Benchmark for HotSpot {
    fn name(&self) -> &'static str {
        "HotSpot"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let n = W * W;
        let bufs = ctl.alloc(&[n * 4, n * 4, n * 4]);
        let (t0, power, t1) = (bufs[0], bufs[1], bufs[2]);
        ctl.write_with(t0, n, |i| input_temp(i).to_bits());
        ctl.write_with(power, n, |i| input_power(i).to_bits());
        let k = kernel();
        let grid = (W / TILE) * (W / TILE);
        let (mut src, mut dst) = (t0, t1);
        for _ in 0..STEPS {
            ctl.launch(0, k, grid, BLOCK, vec![src, power, dst])?;
            ctl.vote(0, &[(dst, n)])?;
            std::mem::swap(&mut src, &mut dst);
        }
        ctl.set_outputs(&[(src, n)]);
        Ok(())
    }
}

/// CPU reference mirroring the GPU arithmetic order.
pub fn cpu_reference() -> Vec<f32> {
    let n = (W * W) as usize;
    let mut src: Vec<f32> = (0..n as u32).map(input_temp).collect();
    let power: Vec<f32> = (0..n as u32).map(input_power).collect();
    let mut dst = vec![0.0f32; n];
    let at = |g: &[f32], r: i32, c: i32| {
        let r = r.clamp(0, W as i32 - 1) as usize;
        let c = c.clamp(0, W as i32 - 1) as usize;
        g[r * W as usize + c]
    };
    for _ in 0..STEPS {
        for r in 0..W as i32 {
            for c in 0..W as i32 {
                let t = at(&src, r, c);
                let mut acc = at(&src, r - 1, c) + at(&src, r + 1, c);
                acc += at(&src, r, c - 1);
                acc += at(&src, r, c + 1);
                acc = t.mul_add(-4.0, acc);
                let i = (r * W as i32 + c) as usize;
                let mut new = acc.mul_add(K_DIFF, t);
                new = power[i].mul_add(K_POWER, new);
                let amb = T_AMB + -t;
                new = amb.mul_add(K_AMB, new);
                dst[i] = new;
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{golden_run, Variant};
    use vgpu_sim::GpuConfig;

    #[test]
    fn matches_cpu_reference_bit_exactly() {
        let g = golden_run(&HotSpot, &GpuConfig::default(), Variant::FUNCTIONAL);
        let want = cpu_reference();
        for (i, (&got, &want)) in g.output.iter().zip(want.iter()).enumerate() {
            assert_eq!(f32::from_bits(got), want, "cell {i}");
        }
    }

    #[test]
    fn timed_equals_functional_and_uses_smem_heavily() {
        let f = golden_run(&HotSpot, &GpuConfig::default(), Variant::FUNCTIONAL);
        let t = golden_run(&HotSpot, &GpuConfig::default(), Variant::TIMED);
        assert_eq!(f.output, t.output);
        let s = t.app_stats();
        assert!(s.smem_instrs > s.store_instrs, "stencil is smem-heavy");
    }

    #[test]
    fn hardened_matches() {
        let plain = golden_run(&HotSpot, &GpuConfig::default(), Variant::TIMED);
        let tmr = golden_run(&HotSpot, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(plain.output, tmr.output);
    }
}
