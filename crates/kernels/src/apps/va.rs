//! VA — vector addition (CUDA SDK `vectorAdd`).
//!
//! The canonical one-kernel streaming workload: `c[i] = a[i] + b[i]`.
//! Minimal register pressure, no shared memory, one load pair and one store
//! per thread — the low-utilization end of the suite's spectrum.

use std::sync::OnceLock;

use crate::harness::{AppAbort, Benchmark, RunCtl};
use crate::kutil::{elem_addr, gid_guard, hash_f32};
use crate::tmr;
use vgpu_arch::{Kernel, KernelBuilder, MemSpace, Operand};

/// Elements per vector.
pub const N: u32 = 4096;
const BLOCK: u32 = 128;
const SEED: u64 = 0x5641; // "VA"

pub struct Va;

/// Benchmark parameters: 0 = a, 1 = b, 2 = c, 3 = n.
pub fn kernel() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("va_k1");
        let roff = tmr::prologue(&mut a);
        let (gid, tmp, addr, x, y) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        gid_guard(&mut a, gid, tmp, p, 3);
        a.if_then(p, false, |a| {
            elem_addr(a, addr, roff, 0, gid, 2);
            a.ld(x, MemSpace::Global, addr, 0);
            elem_addr(a, addr, roff, 1, gid, 2);
            a.ld(y, MemSpace::Global, addr, 0);
            a.fadd(x, x, Operand::Reg(y));
            elem_addr(a, addr, roff, 2, gid, 2);
            a.st(MemSpace::Global, addr, 0, x);
        });
        a.build().expect("va kernel is well formed")
    })
}

/// Input vector element `i` of `a` (shared with tests).
pub fn input_a(i: u32) -> f32 {
    hash_f32(SEED, i as u64)
}

pub fn input_b(i: u32) -> f32 {
    hash_f32(SEED ^ 0xffff, i as u64)
}

impl Benchmark for Va {
    fn name(&self) -> &'static str {
        "VA"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let bufs = ctl.alloc(&[N * 4, N * 4, N * 4]);
        let (a, b, c) = (bufs[0], bufs[1], bufs[2]);
        ctl.write_with(a, N, |i| input_a(i).to_bits());
        ctl.write_with(b, N, |i| input_b(i).to_bits());
        ctl.set_outputs(&[(c, N)]);
        let k = kernel();
        ctl.launch(0, k, N / BLOCK, BLOCK, vec![a, b, c, N])?;
        ctl.vote(0, &[(c, N)])?;
        Ok(())
    }
}

/// CPU reference.
pub fn cpu_reference() -> Vec<f32> {
    (0..N).map(|i| input_a(i) + input_b(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{golden_run, Variant};
    use vgpu_sim::GpuConfig;

    #[test]
    fn matches_cpu_reference() {
        let g = golden_run(&Va, &GpuConfig::default(), Variant::FUNCTIONAL);
        let want = cpu_reference();
        assert_eq!(g.output.len(), N as usize);
        for (i, (&got, &want)) in g.output.iter().zip(want.iter()).enumerate() {
            assert_eq!(f32::from_bits(got), want, "element {i}");
        }
    }

    #[test]
    fn timed_equals_functional() {
        let f = golden_run(&Va, &GpuConfig::default(), Variant::FUNCTIONAL);
        let t = golden_run(&Va, &GpuConfig::default(), Variant::TIMED);
        assert_eq!(f.output, t.output);
        assert!(t.records[0].stats.cycles > 0);
    }

    #[test]
    fn hardened_output_matches_unhardened() {
        let plain = golden_run(&Va, &GpuConfig::default(), Variant::TIMED);
        let tmr = golden_run(&Va, &GpuConfig::default(), Variant::TIMED_TMR);
        assert_eq!(plain.output, tmr.output);
        // Hardened app runs vote launches too.
        assert!(tmr.records.iter().any(|r| r.is_vote));
        // Triplication costs roughly 3x the work.
        let pi = plain.app_stats().thread_instrs;
        let ti: u64 = tmr
            .records
            .iter()
            .filter(|r| !r.is_vote)
            .map(|r| r.stats.thread_instrs)
            .sum();
        assert!(ti >= 3 * pi, "tripled kernel work: {ti} vs {pi}");
    }
}
