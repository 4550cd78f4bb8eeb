//! BackProp — neural-network training step (Rodinia `backprop`).
//!
//! Two kernels, as in Rodinia:
//!
//! * **K1 `layerforward`** — each CTA handles a 16×16 slice of the
//!   input→hidden weight matrix: products go into a shared-memory matrix
//!   that is tree-reduced along the input dimension; per-CTA partial sums
//!   land in global memory and the host finishes the sums and applies the
//!   sigmoid.
//! * **K2 `adjust_weights`** — one thread per weight applies the delta
//!   rule with momentum (pure global-memory ALU work).

use std::sync::OnceLock;

use crate::harness::{AppAbort, Benchmark, RunCtl};
use crate::kutil::{elem_addr, gid_guard, hash_f32};
use crate::tmr;
use vgpu_arch::{CmpOp, Kernel, KernelBuilder, MemSpace, Operand, SpecialReg};

/// Input-layer units.
pub const N_IN: u32 = 1024;
/// Hidden-layer units (one 16-wide group per CTA column).
pub const HID: u32 = 16;
const BLOCK: u32 = 256; // 16 input rows x 16 hidden cols
const GROUPS: u32 = N_IN / HID; // CTAs of K1
pub const ETA: f32 = 0.3;
pub const MOMENTUM: f32 = 0.3;
const SEED: u64 = 0x4250;

pub struct BackProp;

/// K1: benchmark parameters: 0 = input, 1 = weights, 2 = partial sums.
pub fn kernel_layerforward() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("backprop_k1_layerforward");
        let s_in = a.alloc_smem(HID * 4); // 16 input activations
        let s_mat = a.alloc_smem(BLOCK * 4); // 16x16 product matrix
        debug_assert_eq!(s_in, 0);
        let roff = tmr::prologue(&mut a);
        let (tid, row, col, gin, addr, v, w) = (
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
        a.shr(row, tid, HID.trailing_zeros()); // input row within group
        a.and(col, tid, HID - 1); // hidden unit
                                  // gin = ctaid * 16 + row: the global input index this row covers.
        a.s2r(gin, SpecialReg::CtaIdX);
        a.shl(gin, gin, HID.trailing_zeros());
        a.iadd(gin, gin, Operand::Reg(row));
        // Threads in column 0 stage the input slice into shared memory.
        a.isetp(p, col, 0u32, CmpOp::Eq, true);
        a.predicated(p, false, |a| {
            elem_addr(a, addr, roff, 0, gin, 2);
            a.ld(v, MemSpace::Global, addr, 0);
            a.shl(addr, row, 2u32);
            a.st(MemSpace::Shared, addr, s_in as i32, v);
        });
        a.bar();
        // product = input[row] * w[gin*HID + col] into the matrix.
        a.shl(addr, row, 2u32);
        a.ld(v, MemSpace::Shared, addr, s_in as i32);
        a.shl(w, gin, HID.trailing_zeros());
        a.iadd(w, w, Operand::Reg(col));
        elem_addr(&mut a, addr, roff, 1, w, 2);
        a.ld(w, MemSpace::Global, addr, 0);
        a.fmul(v, v, Operand::Reg(w));
        a.shl(addr, tid, 2u32);
        a.st(MemSpace::Shared, addr, s_mat as i32, v);
        a.bar();
        // Tree reduction along rows: matrix[row][col] += matrix[row+s][col].
        let mut s = HID / 2;
        while s >= 1 {
            a.isetp(p, row, s, CmpOp::Lt, true);
            a.predicated(p, false, |a| {
                a.iadd(addr, row, s);
                a.shl(addr, addr, HID.trailing_zeros());
                a.iadd(addr, addr, Operand::Reg(col));
                a.shl(addr, addr, 2u32);
                a.ld(v, MemSpace::Shared, addr, s_mat as i32);
                a.shl(addr, tid, 2u32);
                a.ld(w, MemSpace::Shared, addr, s_mat as i32);
                a.fadd(w, w, Operand::Reg(v));
                a.st(MemSpace::Shared, addr, s_mat as i32, w);
            });
            a.bar();
            s /= 2;
        }
        // Row 0 publishes: partial[ctaid*HID + col] = matrix[0][col].
        a.isetp(p, row, 0u32, CmpOp::Eq, true);
        a.predicated(p, false, |a| {
            a.shl(addr, col, 2u32);
            a.ld(v, MemSpace::Shared, addr, s_mat as i32);
            a.s2r(w, SpecialReg::CtaIdX);
            a.shl(w, w, HID.trailing_zeros());
            a.iadd(w, w, Operand::Reg(col));
            elem_addr(a, addr, roff, 2, w, 2);
            a.st(MemSpace::Global, addr, 0, v);
        });
        a.build().expect("layerforward is well formed")
    })
}

/// K2: benchmark parameters: 0 = weights, 1 = old deltas, 2 = input,
/// 3 = hidden deltas, 4 = n (number of weights).
pub fn kernel_adjust() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("backprop_k2_adjust_weights");
        let roff = tmr::prologue(&mut a);
        let (gid, tmp, addr, w, ow, inp, dl) = (
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
            a.reg(),
        );
        let p = a.pred();
        gid_guard(&mut a, gid, tmp, p, 4);
        a.if_then(p, false, |a| {
            // i = gid / HID (input), j = gid % HID (hidden).
            a.shr(tmp, gid, HID.trailing_zeros());
            elem_addr(a, addr, roff, 2, tmp, 2);
            a.ld(inp, MemSpace::Global, addr, 0); // input[i]
            a.and(tmp, gid, HID - 1);
            elem_addr(a, addr, roff, 3, tmp, 2);
            a.ld(dl, MemSpace::Global, addr, 0); // delta[j]
            elem_addr(a, addr, roff, 1, gid, 2);
            a.ld(ow, MemSpace::Global, addr, 0); // oldw
                                                 // new_dw = ETA*delta*input + MOMENTUM*oldw
            a.fmul(dl, dl, Operand::imm_f32(ETA));
            a.fmul(dl, dl, Operand::Reg(inp));
            a.ffma(dl, ow, Operand::imm_f32(MOMENTUM), Operand::Reg(dl));
            // w += new_dw; oldw = new_dw
            elem_addr(a, addr, roff, 0, gid, 2);
            a.ld(w, MemSpace::Global, addr, 0);
            a.fadd(w, w, Operand::Reg(dl));
            a.st(MemSpace::Global, addr, 0, w);
            elem_addr(a, addr, roff, 1, gid, 2);
            a.st(MemSpace::Global, addr, 0, dl);
        });
        a.build().expect("adjust_weights is well formed")
    })
}

pub fn input_unit(i: u32) -> f32 {
    hash_f32(SEED, i as u64)
}

pub fn input_weight(i: u32) -> f32 {
    hash_f32(SEED ^ 0x77, i as u64) * 0.2 - 0.1
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Benchmark for BackProp {
    fn name(&self) -> &'static str {
        "BackProp"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1", "K2"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let nw = N_IN * HID;
        let bufs = ctl.alloc(&[
            N_IN * 4,         // input
            nw * 4,           // weights
            GROUPS * HID * 4, // partial sums
            nw * 4,           // old deltas
            HID * 4,          // hidden deltas (host-computed)
        ]);
        let (input, weights, partial, oldw, deltas) = (bufs[0], bufs[1], bufs[2], bufs[3], bufs[4]);
        ctl.write_with(input, N_IN, |i| input_unit(i).to_bits());
        ctl.write_with(weights, nw, |i| input_weight(i).to_bits());
        ctl.write_with(oldw, nw, |_| 0);
        let k1 = kernel_layerforward();
        let k2 = kernel_adjust();
        ctl.launch(0, k1, GROUPS, BLOCK, vec![input, weights, partial])?;
        ctl.vote(0, &[(partial, GROUPS * HID)])?;
        // Host: fold partial sums per hidden unit, sigmoid, delta rule
        // against a constant target.
        for j in 0..HID {
            let mut sum = 0.0f32;
            for g in 0..GROUPS {
                sum += ctl.read_f32(partial + (g * HID + j) * 4);
            }
            let h = sigmoid(sum);
            let delta = (0.5 - h) * h * (1.0 - h);
            ctl.write_f32(deltas + j * 4, delta);
        }
        ctl.launch(
            1,
            k2,
            nw / BLOCK,
            BLOCK,
            vec![weights, oldw, input, deltas, nw],
        )?;
        ctl.vote(1, &[(weights, nw), (oldw, nw)])?;
        ctl.set_outputs(&[(weights, nw), (oldw, nw)]);
        Ok(())
    }
}

/// CPU reference mirroring the GPU arithmetic order; returns
/// (weights, oldw).
pub fn cpu_reference() -> (Vec<f32>, Vec<f32>) {
    let nw = (N_IN * HID) as usize;
    let mut weights: Vec<f32> = (0..nw as u32).map(input_weight).collect();
    let mut oldw = vec![0.0f32; nw];
    // K1 + host fold: partial[g][j] = Σ_{r} in[g*16+r]*w[(g*16+r)*16+j],
    // reduced in tree order.
    let mut deltas = [0.0f32; HID as usize];
    for j in 0..HID {
        let mut sum = 0.0f32;
        for g in 0..GROUPS {
            let mut col = [0.0f32; HID as usize];
            for (r, val) in col.iter_mut().enumerate() {
                let gin = g * HID + r as u32;
                *val = input_unit(gin) * weights[(gin * HID + j) as usize];
            }
            let mut s = HID as usize / 2;
            while s >= 1 {
                for r in 0..s {
                    col[r] += col[r + s];
                }
                s /= 2;
            }
            sum += col[0];
        }
        let h = sigmoid(sum);
        deltas[j as usize] = (0.5 - h) * h * (1.0 - h);
    }
    for gid in 0..nw as u32 {
        let i = gid / HID;
        let j = gid % HID;
        let mut dl = deltas[j as usize] * ETA;
        dl *= input_unit(i);
        dl = oldw[gid as usize].mul_add(MOMENTUM, dl);
        weights[gid as usize] += dl;
        oldw[gid as usize] = dl;
    }
    (weights, oldw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{golden_run, Variant};
    use vgpu_sim::GpuConfig;

    #[test]
    fn matches_cpu_reference_bit_exactly() {
        let g = golden_run(&BackProp, &GpuConfig::default(), Variant::FUNCTIONAL);
        let (want_w, want_o) = cpu_reference();
        let nw = (N_IN * HID) as usize;
        for i in 0..nw {
            assert_eq!(f32::from_bits(g.output[i]), want_w[i], "weight {i}");
            assert_eq!(f32::from_bits(g.output[nw + i]), want_o[i], "oldw {i}");
        }
    }

    #[test]
    fn timed_equals_functional() {
        let f = golden_run(&BackProp, &GpuConfig::default(), Variant::FUNCTIONAL);
        let t = golden_run(&BackProp, &GpuConfig::default(), Variant::TIMED);
        assert_eq!(f.output, t.output);
        // Two kernels recorded under distinct indices.
        assert!(t.records.iter().any(|r| r.kernel_idx == 0));
        assert!(t.records.iter().any(|r| r.kernel_idx == 1));
    }

    #[test]
    fn hardened_matches() {
        let plain = golden_run(&BackProp, &GpuConfig::default(), Variant::TIMED);
        let tmr = golden_run(&BackProp, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(plain.output, tmr.output);
    }
}
