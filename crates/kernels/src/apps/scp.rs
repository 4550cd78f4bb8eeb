//! SCP — scalar products (CUDA SDK `scalarProd`).
//!
//! Computes the dot product of `VECS` vector pairs; one CTA per pair, with
//! strided per-thread accumulation followed by a shared-memory tree
//! reduction — the classic reduction idiom (heavy SMEM + barrier use).

use std::sync::OnceLock;

use crate::harness::{AppAbort, Benchmark, RunCtl};
use crate::kutil::hash_f32;
use crate::tmr;
use vgpu_arch::{CmpOp, Kernel, KernelBuilder, MemSpace, Operand, SpecialReg};

/// Vector pairs (one CTA each).
pub const VECS: u32 = 32;
/// Elements per vector (power of two).
pub const ELEM: u32 = 256;
const BLOCK: u32 = 128;
const SEED: u64 = 0x0053_4350;

pub struct Scp;

/// Benchmark parameters: 0 = A, 1 = B, 2 = C (results).
pub fn kernel() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("scp_k1");
        let smem = a.alloc_smem(BLOCK * 4);
        debug_assert_eq!(smem, 0);
        let roff = tmr::prologue(&mut a);
        let (tid, acc, i, idx, pa, va, vb) = (
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
        a.mov(acc, 0.0f32);
        a.mov(i, Operand::Reg(tid));
        // Strided accumulation: for (i = tid; i < ELEM; i += BLOCK).
        a.loop_while(|a| {
            // idx = ctaid.x * ELEM + i
            a.s2r(idx, SpecialReg::CtaIdX);
            a.shl(idx, idx, ELEM.trailing_zeros());
            a.iadd(idx, idx, Operand::Reg(i));
            tmr::load_ptr(a, pa, roff, 0);
            a.iscadd(pa, idx, Operand::Reg(pa), 2);
            a.ld(va, MemSpace::Global, pa, 0);
            tmr::load_ptr(a, pa, roff, 1);
            a.iscadd(pa, idx, Operand::Reg(pa), 2);
            a.ld(vb, MemSpace::Global, pa, 0);
            a.ffma(acc, va, Operand::Reg(vb), Operand::Reg(acc));
            a.iadd(i, i, BLOCK);
            a.isetp(p, i, ELEM, CmpOp::Lt, true);
            (p, false)
        });
        // smem[tid] = acc
        a.shl(idx, tid, 2u32);
        a.st(MemSpace::Shared, idx, 0, acc);
        a.bar();
        // Tree reduction (predicated so every thread reaches each barrier).
        let mut s = BLOCK / 2;
        while s >= 1 {
            a.isetp(p, tid, s, CmpOp::Lt, true);
            a.predicated(p, false, |a| {
                a.iadd(idx, tid, s);
                a.shl(idx, idx, 2u32);
                a.ld(va, MemSpace::Shared, idx, 0);
                a.shl(idx, tid, 2u32);
                a.ld(vb, MemSpace::Shared, idx, 0);
                a.fadd(vb, vb, Operand::Reg(va));
                a.st(MemSpace::Shared, idx, 0, vb);
            });
            a.bar();
            s /= 2;
        }
        // Thread 0 publishes the result.
        a.isetp(p, tid, 0u32, CmpOp::Eq, true);
        a.predicated(p, false, |a| {
            a.mov(idx, 0u32);
            a.ld(va, MemSpace::Shared, idx, 0);
            a.s2r(idx, SpecialReg::CtaIdX);
            tmr::load_ptr(a, pa, roff, 2);
            a.iscadd(pa, idx, Operand::Reg(pa), 2);
            a.st(MemSpace::Global, pa, 0, va);
        });
        a.build().expect("scp kernel is well formed")
    })
}

pub fn input_a(i: u32) -> f32 {
    hash_f32(SEED, i as u64) * 2.0 - 1.0
}

pub fn input_b(i: u32) -> f32 {
    hash_f32(SEED ^ 0xabcd, i as u64) * 2.0 - 1.0
}

impl Benchmark for Scp {
    fn name(&self) -> &'static str {
        "SCP"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let n = VECS * ELEM;
        let bufs = ctl.alloc(&[n * 4, n * 4, VECS * 4]);
        let (a, b, c) = (bufs[0], bufs[1], bufs[2]);
        ctl.write_with(a, n, |i| input_a(i).to_bits());
        ctl.write_with(b, n, |i| input_b(i).to_bits());
        ctl.set_outputs(&[(c, VECS)]);
        let k = kernel();
        ctl.launch(0, k, VECS, BLOCK, vec![a, b, c])?;
        ctl.vote(0, &[(c, VECS)])?;
        Ok(())
    }
}

/// CPU reference replicating the GPU accumulation order bit-exactly.
pub fn cpu_reference() -> Vec<f32> {
    (0..VECS)
        .map(|v| {
            let base = v * ELEM;
            let mut partial = [0.0f32; BLOCK as usize];
            for (t, acc) in partial.iter_mut().enumerate() {
                let mut i = t as u32;
                while i < ELEM {
                    let idx = base + i;
                    *acc = input_a(idx).mul_add(input_b(idx), *acc);
                    i += BLOCK;
                }
            }
            let mut s = BLOCK as usize / 2;
            while s >= 1 {
                for t in 0..s {
                    partial[t] += partial[t + s];
                }
                s /= 2;
            }
            partial[0]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{golden_run, Variant};
    use vgpu_sim::GpuConfig;

    #[test]
    fn matches_cpu_reference_bit_exactly() {
        let g = golden_run(&Scp, &GpuConfig::default(), Variant::FUNCTIONAL);
        let want = cpu_reference();
        for (i, (&got, &want)) in g.output.iter().zip(want.iter()).enumerate() {
            assert_eq!(f32::from_bits(got), want, "pair {i}");
        }
    }

    #[test]
    fn timed_equals_functional_and_uses_smem() {
        let f = golden_run(&Scp, &GpuConfig::default(), Variant::FUNCTIONAL);
        let t = golden_run(&Scp, &GpuConfig::default(), Variant::TIMED);
        assert_eq!(f.output, t.output);
        let s = t.app_stats();
        assert!(s.smem_instrs > 0, "reduction uses shared memory");
        assert!(s.cycles > 0);
    }

    #[test]
    fn hardened_matches() {
        let plain = golden_run(&Scp, &GpuConfig::default(), Variant::TIMED);
        let tmr = golden_run(&Scp, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(plain.output, tmr.output);
    }
}
