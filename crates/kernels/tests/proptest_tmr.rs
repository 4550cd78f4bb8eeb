//! Property-based tests of the TMR vote: for *any* single-copy corruption
//! pattern the vote repairs the data; for any three-way disagreement it
//! raises the DUE flag.

use std::sync::OnceLock;

use kernels::{golden_run, AppAbort, Benchmark, RunCtl, Variant};
use proptest::prelude::*;
use vgpu_arch::{Kernel, KernelBuilder, MemSpace, Operand};
use vgpu_sim::GpuConfig;

/// Benchmark that writes known data, then applies an arbitrary corruption
/// pattern to the copies of chosen words before voting.
#[derive(Debug, Clone)]
struct Corruptor {
    /// (word index, copy index, xor delta) triples.
    hits: Vec<(u32, u32, u32)>,
}

const WORDS: u32 = 32;

/// `out[gid] = gid + 100` (per copy), built once per process.
fn fill_kernel() -> &'static Kernel {
    static K: OnceLock<Kernel> = OnceLock::new();
    K.get_or_init(|| {
        let mut a = KernelBuilder::new("fill");
        let roff = kernels::tmr::prologue(&mut a);
        let (gid, tmp, addr, v) = (a.reg(), a.reg(), a.reg(), a.reg());
        a.linear_tid(gid, tmp);
        kernels::tmr::load_ptr(&mut a, addr, roff, 0);
        a.iscadd(addr, gid, Operand::Reg(addr), 2);
        a.iadd(v, gid, 100u32);
        a.st(MemSpace::Global, addr, 0, v);
        a.build().unwrap()
    })
}

impl Benchmark for Corruptor {
    fn name(&self) -> &'static str {
        "Corruptor"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let bufs = ctl.alloc(&[WORDS * 4]);
        let out = bufs[0];
        ctl.set_outputs(&[(out, WORDS)]);
        ctl.launch(0, fill_kernel(), 1, WORDS, vec![out])?;
        if ctl.hardened() {
            let stride = ctl.tmr_stride();
            for &(word, copy, delta) in &self.hits {
                // The pristine value of every copy is word + 100; xor the
                // chosen copy only.
                let addr = out + word * 4 + copy * stride;
                ctl.write_u32_single(addr, (word + 100) ^ delta);
            }
        }
        ctl.vote(0, &[(out, WORDS)])?;
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corrupting at most one copy of each word is always repaired.
    #[test]
    fn single_copy_corruption_is_always_repaired(
        words in prop::collection::btree_set(0u32..WORDS, 1..8),
        copy in 0u32..3,
        delta in 1u32..=u32::MAX,
    ) {
        let hits = words.iter().map(|&w| (w, copy, delta)).collect();
        let b = Corruptor { hits };
        let g = golden_run(&b, &GpuConfig::default(), Variant::TIMED_TMR);
        for i in 0..WORDS {
            prop_assert_eq!(g.output[i as usize], i + 100);
        }
    }

    /// Distinct corruption of all three copies of a word raises the DUE
    /// flag (VoteFailed), for any pair of distinct nonzero deltas.
    #[test]
    fn three_way_disagreement_is_a_due(
        word in 0u32..WORDS,
        d1 in 1u32..1000,
        d2 in 1001u32..2000,
    ) {
        let b = Corruptor { hits: vec![(word, 1, d1), (word, 2, d2)] };
        // copy 0 pristine, copies 1/2 corrupted differently → all differ.
        let result = std::panic::catch_unwind(|| {
            golden_run(&b, &GpuConfig::default(), Variant::TIMED_TMR)
        });
        prop_assert!(result.is_err(), "vote must fail");
    }

    /// Two copies corrupted with the SAME delta outvote the pristine one —
    /// the voted value is the (identically) corrupted one. This is the
    /// well-known TMR limitation, worth pinning as a semantic.
    #[test]
    fn matching_double_corruption_wins_the_vote(
        word in 0u32..WORDS,
        delta in 1u32..=u32::MAX,
    ) {
        let b = Corruptor { hits: vec![(word, 0, delta), (word, 2, delta)] };
        let g = golden_run(&b, &GpuConfig::default(), Variant::TIMED_TMR);
        prop_assert_eq!(g.output[word as usize], (word + 100) ^ delta);
        for i in (0..WORDS).filter(|&i| i != word) {
            prop_assert_eq!(g.output[i as usize], i + 100);
        }
    }
}
