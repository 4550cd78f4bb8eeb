//! Small applications with host steps the 11 benchmarks lack: for the
//! hardened sweeps of `fast_forward.rs` and `cta_replay.rs`, a vote a
//! single fault can make fail and a replicated host write read back with
//! no launch in between; for `fast_forward.rs`, a corrupted word the host
//! carries past a launch that re-converges the device.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use kernels::{tmr, AppAbort, Benchmark, RunCtl};
use vgpu_arch::{Kernel, KernelBuilder, MemSpace, Operand};

pub const WORDS: u32 = 32;

/// K1 fills `out`, K2 increments it; each is voted. Between the two the
/// host rewrites every word of `out` (all copies), so nothing a fault did
/// to `out` before that survives it.
#[derive(Default)]
pub struct TmrProbe {
    /// Runs that ended in [`AppAbort::VoteFailed`].
    pub vote_failures: AtomicU32,
}

/// `out[gid] = gid + 100` (`fill`) or `out[gid] += 1`, per copy, built
/// once per process as [`kernels::RunCtl::launch`] asks.
fn kernel(fill: bool) -> &'static Kernel {
    static K: [OnceLock<Kernel>; 2] = [OnceLock::new(), OnceLock::new()];
    K[fill as usize].get_or_init(|| build(fill))
}

fn build(fill: bool) -> Kernel {
    let mut a = KernelBuilder::new(if fill { "fill" } else { "bump" });
    let roff = tmr::prologue(&mut a);
    let (gid, tmp, addr, v) = (a.reg(), a.reg(), a.reg(), a.reg());
    a.linear_tid(gid, tmp);
    tmr::load_ptr(&mut a, addr, roff, 0);
    a.iscadd(addr, gid, Operand::Reg(addr), 2);
    if fill {
        a.iadd(v, gid, 100u32);
    } else {
        a.ld(v, MemSpace::Global, addr, 0);
        a.iadd(v, v, 1u32);
    }
    a.st(MemSpace::Global, addr, 0, v);
    a.build().unwrap()
}

impl TmrProbe {
    fn host_program(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let out = ctl.alloc(&[WORDS * 4])[0];
        ctl.set_outputs(&[(out, WORDS)]);
        ctl.launch(0, kernel(true), 1, WORDS, vec![out])?;
        // Copy 0 disagrees with the other two before the vote: the golden
        // vote out-votes it, and any fault that changed what copy 1 or 2
        // stored leaves three different words.
        if ctl.hardened() {
            for w in 0..WORDS {
                ctl.write_u32_single(out + 4 * w, 9);
            }
        }
        ctl.vote(0, &[(out, WORDS)])?;
        // A replicated host write read back, copy by copy, before any
        // launch: a run that was following a golden snapshot has to go
        // live with all three copies written.
        for w in 0..WORDS {
            ctl.write_u32(out + 4 * w, w + 200);
        }
        let stride = ctl.tmr_stride();
        if (0..3).any(|c| ctl.read_u32(out + c * stride) != 200) {
            return Err(AppAbort::VoteFailed);
        }
        ctl.launch(1, kernel(false), 1, WORDS, vec![out])?;
        ctl.vote(1, &[(out, WORDS)])
    }
}

impl Benchmark for TmrProbe {
    fn name(&self) -> &'static str {
        "TmrProbe"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1", "K2"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let run = self.host_program(ctl);
        if run == Err(AppAbort::VoteFailed) {
            self.vote_failures.fetch_add(1, Ordering::Relaxed);
        }
        run
    }
}

/// K1 fills `x`, the host reads `x` into locals, K1 runs again — the
/// device now equals golden whatever the first run stored — and the host
/// writes the locals to `out`, the output. A fault that corrupted `x` in
/// the first launch is an SDC the device state no longer shows.
pub struct HostCarry;

impl Benchmark for HostCarry {
    fn name(&self) -> &'static str {
        "HostCarry"
    }

    fn kernels(&self) -> &'static [&'static str] {
        &["K1"]
    }

    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
        let bufs = ctl.alloc(&[WORDS * 4, WORDS * 4]);
        let (x, out) = (bufs[0], bufs[1]);
        ctl.set_outputs(&[(out, WORDS)]);
        ctl.launch(0, kernel(true), 1, WORDS, vec![x])?;
        let carried: Vec<u32> = (0..WORDS).map(|w| ctl.read_u32(x + 4 * w)).collect();
        ctl.launch(0, kernel(true), 1, WORDS, vec![x])?;
        for (w, v) in (0..).zip(carried) {
            ctl.write_u32(out + 4 * w, v);
        }
        Ok(())
    }
}
