//! The SIMT instruction interpreter, shared by the cycle-level and
//! functional engines.
//!
//! [`step_warp`] executes one warp instruction: it settles the SIMT stack,
//! evaluates predication, runs the lane loop, handles divergence, applies
//! software-level fault injection hooks, and reports an issue class that the
//! timed engine converts into latency. The engines differ only in the
//! [`GMem`] implementation (cached vs. flat) and in how they consume the
//! returned issue class.

use crate::due::DueKind;
use crate::fault::{apply_stuck, value_mask, SwFaultKind, SwInjector, SwStuck};
use crate::stats::Stats;
use crate::warp::{StackEntry, Warp};
use vgpu_arch::{
    CmpOp, Kernel, MemAccess, MemSpace, Op, Operand, PcFacts, Reg, SpecialReg, WARP_SIZE,
};

/// Global-memory interface implemented by the two engines.
pub trait GMem {
    /// Warp-coalesced load of one word per active lane. `addrs[lane]` is
    /// meaningful where `mask` has the lane bit set. Returns the cycle at
    /// which the data is available (0 in functional mode).
    fn load(
        &mut self,
        tex: bool,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
    ) -> Result<u64, DueKind>;

    /// Warp-coalesced store.
    fn store(
        &mut self,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
    ) -> Result<u64, DueKind>;

    /// Whether a probe is attached. Gates the per-instruction
    /// register-operand walk in [`step_warp`] so unprobed runs pay nothing.
    fn probed(&self) -> bool {
        false
    }

    /// Probe hook: a register word (`reg * 32 + lane`, warp-local) was
    /// read or written.
    fn probe_reg(&mut self, _reg_word: usize, _write: bool) {}

    /// Probe hook: a shared-memory word (CTA-local index) was read or
    /// written.
    fn probe_smem(&mut self, _word: usize, _write: bool) {}
}

/// How long the issued instruction occupies the warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueClass {
    Alu,
    Sfu,
    /// Shared-memory access; `extra_conflicts` = serialized extra bank
    /// passes beyond the first.
    Smem {
        extra_conflicts: u32,
    },
    /// Global/texture access; `ready` is the absolute completion cycle.
    Mem {
        ready: u64,
    },
}

/// Outcome of stepping a warp once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    Issued(IssueClass),
    /// The warp arrived at a CTA barrier (PC already advanced).
    Barrier,
    /// The warp finished.
    Done,
}

/// Everything `step_warp` needs besides the warp itself.
pub struct ExecCtx<'a, M: GMem> {
    pub kernel: &'a Kernel,
    pub params: &'a [u32],
    pub ntid: u32,
    pub nctaid: u32,
    /// This warp's register window: `num_regs * 32` words, laid out
    /// register-major (`reg * 32 + lane`).
    pub regs: &'a mut [u32],
    /// The owning CTA's shared memory (word granular).
    pub smem: &'a mut [u32],
    pub mem: &'a mut M,
    pub stats: &'a mut Stats,
    /// Software-level fault injection hook (NVBitFI model).
    pub sw: Option<&'a mut SwInjector>,
    pub max_stack: usize,
}

#[inline]
fn f(v: u32) -> f32 {
    f32::from_bits(v)
}

#[inline]
fn fb(v: f32) -> u32 {
    v.to_bits()
}

#[inline]
fn reg_idx(r: Reg, lane: usize) -> usize {
    r.0 as usize * WARP_SIZE + lane
}

/// One 32-bit word per lane of a warp.
type Row = [u32; WARP_SIZE];

/// The lanes of `mask`, ascending.
#[inline]
pub(crate) fn lanes_of(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let lane = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (lane < WARP_SIZE).then_some(lane)
    })
}

/// Register `r` of every lane.
#[inline]
fn row(regs: &[u32], r: Reg) -> &Row {
    regs[reg_idx(r, 0)..reg_idx(r, WARP_SIZE)]
        .try_into()
        .expect("a row is WARP_SIZE words")
}

/// An operand on every lane: a register row, or an immediate or
/// constant-bank word broadcast.
#[inline]
fn operand(regs: &[u32], params: &[u32], o: &Operand) -> Row {
    match *o {
        Operand::Reg(r) => *row(regs, r),
        Operand::Imm(v) => [v; WARP_SIZE],
        Operand::Const(i) => {
            debug_assert!(
                (i as usize) < params.len(),
                "constant bank index out of range"
            );
            [params.get(i as usize).copied().unwrap_or(0); WARP_SIZE]
        }
    }
}

/// `f` evaluated on every lane. Every op computed this way is pure, so
/// the values of lanes outside the exec mask are simply discarded.
#[inline(always)]
fn lanes(f: impl Fn(usize) -> u32) -> Row {
    let mut out = [0; WARP_SIZE];
    for (lane, o) in out.iter_mut().enumerate() {
        *o = f(lane);
    }
    out
}

/// `a` on the lanes of `mask`, `b` on the others: a branch-free masked
/// select.
#[inline(always)]
fn select(mask: u32, a: &Row, b: &Row) -> Row {
    lanes(|l| {
        let m = (mask >> l & 1).wrapping_neg();
        (a[l] & m) | (b[l] & !m)
    })
}

/// Register `r` of every lane, to write.
#[inline]
fn row_mut(regs: &mut [u32], r: Reg) -> &mut Row {
    (&mut regs[reg_idx(r, 0)..reg_idx(r, WARP_SIZE)])
        .try_into()
        .expect("a row is WARP_SIZE words")
}

/// Write `vals` into register `d` on the lanes of `mask` only.
#[inline(always)]
fn write_row(regs: &mut [u32], d: Reg, mask: u32, vals: &Row) {
    let dst = row_mut(regs, d);
    *dst = select(mask, vals, dst);
}

/// `a * b + c`, fused, on every lane: bit for bit what `f32::mul_add` gives
/// lane by lane. On an x86-64 CPU with FMA the row runs on the vector
/// fused op. `mul_add` is a call to `fmaf` there (the default target has no
/// FMA), and `fmaf` runs the scalar fused op when the CPU has one, so both
/// round `a * b + c` once and agree on every result that is not a NaN.
/// Which input NaN an FMA instruction returns depends on the operand order
/// it encodes, so every lane whose result is a NaN is recomputed with
/// `mul_add`.
pub fn ffma_row(
    a: &[u32; WARP_SIZE],
    b: &[u32; WARP_SIZE],
    c: &[u32; WARP_SIZE],
) -> [u32; WARP_SIZE] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU has FMA, the one feature the function enables.
        let mut out = unsafe { ffma_row_fma(a, b, c) };
        let nan = lane_bits(|l| out[l] & 0x7fff_ffff > 0x7f80_0000);
        for l in lanes_of(nan) {
            out[l] = fb(f(a[l]).mul_add(f(b[l]), f(c[l])));
        }
        return out;
    }
    ffma_row_lanes(a, b, c)
}

/// [`ffma_row`] without the vector path: `f32::mul_add` lane by lane.
pub fn ffma_row_lanes(
    a: &[u32; WARP_SIZE],
    b: &[u32; WARP_SIZE],
    c: &[u32; WARP_SIZE],
) -> [u32; WARP_SIZE] {
    lanes(|l| fb(f(a[l]).mul_add(f(b[l]), f(c[l]))))
}

/// [`ffma_row_lanes`] compiled for the FMA instruction set.
///
/// # Safety
///
/// The CPU must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn ffma_row_fma(a: &Row, b: &Row, c: &Row) -> Row {
    lanes(|l| fb(f(a[l]).mul_add(f(b[l]), f(c[l]))))
}

/// Predicate bits of `mask` set to those of `bits`, the rest kept.
#[inline]
fn write_pred(p: &mut u32, mask: u32, bits: u32) {
    *p = (*p & !mask) | (bits & mask);
}

/// Bit `lane` set where `f(lane)` holds.
#[inline(always)]
fn lane_bits(f: impl Fn(usize) -> bool) -> u32 {
    (0..WARP_SIZE).fold(0, |m, lane| m | (f(lane) as u32) << lane)
}

/// `cmp` on a comparison result, tabulated so a lane pays an index, not a
/// match: `table[ord_idx(..)]`. Unordered (NaN) is index 3, where only
/// `Ne` holds.
#[inline]
fn cmp_table(cmp: CmpOp) -> [bool; 4] {
    use std::cmp::Ordering::*;
    [
        cmp.eval(Less),
        cmp.eval(Equal),
        cmp.eval(Greater),
        cmp == CmpOp::Ne,
    ]
}

#[inline(always)]
fn ord_idx(ord: Option<std::cmp::Ordering>) -> usize {
    ord.map_or(3, |o| (o as i8 + 1) as usize)
}

/// `[a + off]` on every lane.
#[inline]
fn addrs(regs: &[u32], a: Reg, off: i32) -> Row {
    let a = row(regs, a);
    lanes(|l| a[l].wrapping_add(off as u32))
}

/// Kind of value-level software fault pending for this instruction.
enum PendingSw {
    Dest { lane: usize, mask: u32 },
    SrcRestore { r: Reg, lane: usize, mask: u32 },
    None,
}

/// Execute one instruction of `w`. Returns the issue event or a DUE.
pub fn step_warp<M: GMem>(w: &mut Warp, ctx: &mut ExecCtx<'_, M>) -> Result<StepEvent, DueKind> {
    if !w.settle() {
        return Ok(StepEvent::Done);
    }
    let top_idx = w.stack.len() - 1;
    let live = w.stack[top_idx].mask & !w.exited;
    let pc = w.stack[top_idx].pc;
    if pc as usize >= ctx.kernel.instrs.len() {
        return Err(DueKind::BadPc { pc });
    }
    let instr = ctx.kernel.instrs[pc as usize];
    let exec_mask = match instr.guard {
        Some(g) => {
            let pm = w.preds[g.pred.0 as usize];
            live & if g.negate { !pm } else { pm }
        }
        None => live,
    };

    ctx.stats.warp_instrs += 1;
    let n_active = exec_mask.count_ones() as u64;
    ctx.stats.thread_instrs += n_active;

    let op = instr.op;
    let facts = ctx.kernel.facts()[pc as usize];
    debug_assert!(
        facts == PcFacts::of(&op)
            && facts.gp_dest == op.has_gp_dest()
            && facts.reads_src != op.src_regs().is_empty(),
        "pc {pc}: facts {facts:?} do not describe {op}"
    );

    // ---- software-level fault injection bookkeeping -------------------
    // Count eligible dynamic thread-instructions and, when the target index
    // falls inside this instruction, arrange the bit flip.
    let mut pending = PendingSw::None;
    if let Some(sw) = ctx.sw.as_deref_mut() {
        if n_active > 0 {
            let eligible = match sw.fault.kind {
                SwFaultKind::DestValue => facts.gp_dest,
                SwFaultKind::DestValueLoad => facts.access == MemAccess::GlobalLoad,
                SwFaultKind::SrcTransient | SwFaultKind::SrcPersistent => facts.reads_src,
                SwFaultKind::ArchState => true,
                SwFaultKind::DestClass(c) => facts.gp_dest && facts.class == c,
            };
            if eligible {
                let t = sw.fault.target;
                if t >= sw.counter && t < sw.counter + n_active {
                    let lane = lanes_of(exec_mask)
                        .nth((t - sw.counter) as usize)
                        .expect("the target is one of this instruction's active lanes");
                    let mask = value_mask(sw.fault.pattern, sw.fault.bit);
                    let stuck_v = sw.fault.pattern.stuck_value();
                    match sw.fault.kind {
                        SwFaultKind::DestValue
                        | SwFaultKind::DestValueLoad
                        | SwFaultKind::DestClass(_) => {
                            pending = PendingSw::Dest { lane, mask };
                        }
                        SwFaultKind::SrcTransient | SwFaultKind::SrcPersistent => {
                            let r = op.src_regs()[0];
                            let i = reg_idx(r, lane);
                            match stuck_v {
                                Some(v) => {
                                    // Persistent pattern: the cell is stuck
                                    // regardless of the source-fault kind.
                                    ctx.regs[i] = apply_stuck(ctx.regs[i], mask, v);
                                    sw.stuck = Some(SwStuck {
                                        seq: w.seq,
                                        reg: r.0,
                                        lane,
                                        mask,
                                        value: v,
                                    });
                                }
                                None => {
                                    ctx.regs[i] ^= mask;
                                    if sw.fault.kind == SwFaultKind::SrcTransient {
                                        pending = PendingSw::SrcRestore { r, lane, mask };
                                    }
                                }
                            }
                            sw.applied = true;
                        }
                        SwFaultKind::ArchState => {
                            // Architectural-state fault (PVF model): any
                            // live register of this warp, before execution.
                            let nregs = ctx.kernel.num_regs as u64;
                            let r = Reg((sw.fault.loc_pick % nregs) as u8);
                            let i = reg_idx(r, lane);
                            match stuck_v {
                                Some(v) => {
                                    ctx.regs[i] = apply_stuck(ctx.regs[i], mask, v);
                                    sw.stuck = Some(SwStuck {
                                        seq: w.seq,
                                        reg: r.0,
                                        lane,
                                        mask,
                                        value: v,
                                    });
                                }
                                None => ctx.regs[i] ^= mask,
                            }
                            sw.applied = true;
                        }
                    }
                }
                sw.counter += n_active;
            }
        }
    }

    // ---- instruction-class statistics ----------------------------------
    // Branch-free: `n_active` where the fact holds, else 0.
    let count = |holds: bool| n_active * holds as u64;
    let global_load = count(facts.access == MemAccess::GlobalLoad);
    ctx.stats.load_instrs += global_load;
    ctx.stats.ld_dest_instrs += global_load;
    ctx.stats.store_instrs += count(facts.access == MemAccess::GlobalStore);
    ctx.stats.smem_instrs += count(facts.access == MemAccess::Shared);
    ctx.stats.gp_dest_instrs += count(facts.gp_dest);
    ctx.stats.src_reg_instrs += count(facts.reads_src);
    if facts.gp_dest {
        if let Some(c) = facts.class.index() {
            ctx.stats.class_dest_instrs[c] += n_active;
        }
    }

    // ---- probe: source-register reads -----------------------------------
    // `Sel` conservatively counts both inputs as read; predicate registers
    // are not part of the modeled register file.
    if ctx.mem.probed() {
        for r in op.src_regs() {
            for lane in lanes_of(exec_mask) {
                ctx.mem.probe_reg(reg_idx(r, lane), false);
            }
        }
    }

    // ---- the operation: one pass over 32-lane rows ----------------------
    // Register operands are read as rows and immediate / constant operands
    // broadcast once; results are written back under the exec mask.
    macro_rules! alu {
        ($class:expr, $d:expr, |$l:ident| $e:expr) => {{
            let out = lanes(|$l| $e);
            write_row(ctx.regs, *$d, exec_mask, &out);
            $class
        }};
    }
    macro_rules! alu1 {
        ($d:expr, $a:expr, $e:expr) => {{
            let a = row(ctx.regs, *$a);
            alu!(IssueClass::Alu, $d, |l| $e(a[l]))
        }};
    }
    macro_rules! alu2 {
        ($d:expr, $a:expr, $b:expr, $e:expr) => {{
            let (a, b) = (row(ctx.regs, *$a), operand(ctx.regs, ctx.params, $b));
            alu!(IssueClass::Alu, $d, |l| $e(a[l], b[l]))
        }};
    }
    macro_rules! sfu {
        ($d:expr, $a:expr, $e:expr) => {{
            let a = row(ctx.regs, *$a);
            alu!(IssueClass::Sfu, $d, |l| fb($e(f(a[l]))))
        }};
    }

    let mut event = StepEvent::Issued(IssueClass::Alu);
    let mut advance = true;

    let class: IssueClass = match &op {
        Op::S2R { d, sr } => {
            let tid0 = w.warp_in_cta * WARP_SIZE as u32;
            let v = match sr {
                SpecialReg::TidX => lanes(|l| tid0 + l as u32),
                SpecialReg::LaneId => lanes(|l| l as u32),
                SpecialReg::CtaIdX => [w.ctaid_x; WARP_SIZE],
                SpecialReg::CtaIdY => [w.ctaid_y; WARP_SIZE],
                SpecialReg::NTidX => [ctx.ntid; WARP_SIZE],
                SpecialReg::NCtaIdX => [ctx.nctaid; WARP_SIZE],
            };
            write_row(ctx.regs, *d, exec_mask, &v);
            IssueClass::Alu
        }
        Op::Mov { d, a } => {
            let v = operand(ctx.regs, ctx.params, a);
            write_row(ctx.regs, *d, exec_mask, &v);
            IssueClass::Alu
        }
        Op::IAdd { d, a, b } => alu2!(d, a, b, |x: u32, y| x.wrapping_add(y)),
        Op::ISub { d, a, b } => alu2!(d, a, b, |x: u32, y| x.wrapping_sub(y)),
        Op::IMul { d, a, b } => alu2!(d, a, b, |x: u32, y| x.wrapping_mul(y)),
        Op::IMad { d, a, b, c } => {
            let (a, b) = (row(ctx.regs, *a), operand(ctx.regs, ctx.params, b));
            let c = operand(ctx.regs, ctx.params, c);
            alu!(IssueClass::Alu, d, |l| a[l]
                .wrapping_mul(b[l])
                .wrapping_add(c[l]))
        }
        Op::IScAdd { d, a, b, shift } => {
            let sh = *shift as u32 & 31;
            alu2!(d, a, b, |x: u32, y| (x << sh).wrapping_add(y))
        }
        Op::IMnMx {
            d,
            a,
            b,
            max,
            signed,
        } => match (*max, *signed) {
            (true, true) => alu2!(d, a, b, |x, y| (x as i32).max(y as i32) as u32),
            (false, true) => alu2!(d, a, b, |x, y| (x as i32).min(y as i32) as u32),
            (true, false) => alu2!(d, a, b, u32::max),
            (false, false) => alu2!(d, a, b, u32::min),
        },
        // NVIDIA shifts clamp: amounts >= 32 yield 0.
        Op::Shl { d, a, b } => alu2!(d, a, b, |x: u32, y| x.checked_shl(y).unwrap_or(0)),
        Op::Shr { d, a, b } => alu2!(d, a, b, |x: u32, y| x.checked_shr(y).unwrap_or(0)),
        Op::And { d, a, b } => alu2!(d, a, b, |x, y| x & y),
        Op::Or { d, a, b } => alu2!(d, a, b, |x, y| x | y),
        Op::Xor { d, a, b } => alu2!(d, a, b, |x, y| x ^ y),
        Op::Not { d, a } => alu1!(d, a, |x: u32| !x),
        Op::FAdd { d, a, b } => alu2!(d, a, b, |x, y| fb(f(x) + f(y))),
        Op::FMul { d, a, b } => alu2!(d, a, b, |x, y| fb(f(x) * f(y))),
        Op::FFma { d, a, b, c } => {
            let (a, b) = (row(ctx.regs, *a), operand(ctx.regs, ctx.params, b));
            let c = operand(ctx.regs, ctx.params, c);
            write_row(ctx.regs, *d, exec_mask, &ffma_row(a, &b, &c));
            IssueClass::Alu
        }
        Op::FMnMx { d, a, b, max } => {
            if *max {
                alu2!(d, a, b, |x, y| fb(f(x).max(f(y))))
            } else {
                alu2!(d, a, b, |x, y| fb(f(x).min(f(y))))
            }
        }
        Op::FRcp { d, a } => sfu!(d, a, |x: f32| 1.0 / x),
        Op::FSqrt { d, a } => sfu!(d, a, f32::sqrt),
        Op::FExp { d, a } => sfu!(d, a, f32::exp),
        Op::FLog { d, a } => sfu!(d, a, f32::ln),
        Op::FAbs { d, a } => alu1!(d, a, |x: u32| x & 0x7fff_ffff),
        Op::I2F { d, a } => alu1!(d, a, |x: u32| fb(x as i32 as f32)),
        Op::F2I { d, a } => alu1!(d, a, |x: u32| f(x) as i32 as u32),
        Op::ISetP {
            p,
            a,
            b,
            cmp,
            signed,
        } => {
            let (a, b) = (row(ctx.regs, *a), operand(ctx.regs, ctx.params, b));
            let t = cmp_table(*cmp);
            let bits = if *signed {
                lane_bits(|l| t[ord_idx(Some((a[l] as i32).cmp(&(b[l] as i32))))])
            } else {
                lane_bits(|l| t[ord_idx(Some(a[l].cmp(&b[l])))])
            };
            write_pred(&mut w.preds[p.0 as usize], exec_mask, bits);
            IssueClass::Alu
        }
        Op::FSetP { p, a, b, cmp } => {
            let (a, b) = (row(ctx.regs, *a), operand(ctx.regs, ctx.params, b));
            let t = cmp_table(*cmp);
            let bits = lane_bits(|l| t[ord_idx(f(a[l]).partial_cmp(&f(b[l])))]);
            write_pred(&mut w.preds[p.0 as usize], exec_mask, bits);
            IssueClass::Alu
        }
        Op::PSetP {
            p,
            a,
            b,
            op: bop,
            na,
            nb,
        } => {
            let am = w.preds[a.0 as usize] ^ if *na { !0 } else { 0 };
            let bm = w.preds[b.0 as usize] ^ if *nb { !0 } else { 0 };
            let rm = match bop {
                vgpu_arch::BoolOp::And => am & bm,
                vgpu_arch::BoolOp::Or => am | bm,
                vgpu_arch::BoolOp::Xor => am ^ bm,
            };
            write_pred(&mut w.preds[p.0 as usize], exec_mask, rm);
            IssueClass::Alu
        }
        Op::Sel { d, a, b, p, neg } => {
            let pm = w.preds[p.0 as usize] ^ if *neg { !0 } else { 0 };
            let (a, b) = (row(ctx.regs, *a), operand(ctx.regs, ctx.params, b));
            let v = select(pm, a, &b);
            write_row(ctx.regs, *d, exec_mask, &v);
            IssueClass::Alu
        }
        Op::Ld { d, space, a, off } => {
            let addrs = addrs(ctx.regs, *a, *off);
            match space {
                MemSpace::Shared => smem_access(ctx, exec_mask, &addrs, Some(*d), None)?,
                _ if exec_mask == 0 => IssueClass::Alu,
                MemSpace::Global | MemSpace::Tex => {
                    let mut out = [0u32; WARP_SIZE];
                    let tex = *space == MemSpace::Tex;
                    let ready = ctx.mem.load(tex, exec_mask, &addrs, &mut out)?;
                    write_row(ctx.regs, *d, exec_mask, &out);
                    IssueClass::Mem { ready }
                }
            }
        }
        Op::St { space, a, off, v } => {
            let addrs = addrs(ctx.regs, *a, *off);
            match space {
                MemSpace::Shared => smem_access(ctx, exec_mask, &addrs, None, Some(*v))?,
                MemSpace::Tex => unreachable!("validated kernels cannot store to texture space"),
                _ if exec_mask == 0 => IssueClass::Alu,
                MemSpace::Global => {
                    let ready = ctx.mem.store(exec_mask, &addrs, row(ctx.regs, *v))?;
                    IssueClass::Mem { ready }
                }
            }
        }
        Op::Bar => {
            event = StepEvent::Barrier;
            IssueClass::Alu
        }
        Op::Bra { target, reconv } => {
            advance = false;
            let taken = exec_mask;
            let fall = live & !taken;
            let top = &mut w.stack[top_idx];
            if taken == 0 {
                top.pc = pc + 1;
            } else if fall == 0 {
                top.pc = *target;
            } else {
                // Divergence: the current entry becomes the reconvergence
                // continuation; push the two sides (skipping any side that
                // starts at the reconvergence point itself).
                top.pc = *reconv;
                top.mask = live;
                let rpc = *reconv;
                if pc + 1 != rpc {
                    w.stack.push(StackEntry {
                        pc: pc + 1,
                        rpc,
                        mask: fall,
                    });
                }
                if *target != rpc {
                    w.stack.push(StackEntry {
                        pc: *target,
                        rpc,
                        mask: taken,
                    });
                }
                if w.stack.len() > ctx.max_stack {
                    return Err(DueKind::StackOverflow);
                }
            }
            IssueClass::Alu
        }
        Op::Exit => {
            w.exited |= exec_mask;
            IssueClass::Alu
        }
    };

    // ---- apply pending destination-value fault & advance ---------------
    match pending {
        PendingSw::Dest { lane, mask } => {
            if let Some(d) = op.dst_reg() {
                let i = reg_idx(d, lane);
                if let Some(sw) = ctx.sw.as_deref_mut() {
                    match sw.fault.pattern.stuck_value() {
                        Some(v) => {
                            ctx.regs[i] = apply_stuck(ctx.regs[i], mask, v);
                            sw.stuck = Some(SwStuck {
                                seq: w.seq,
                                reg: d.0,
                                lane,
                                mask,
                                value: v,
                            });
                        }
                        None => ctx.regs[i] ^= mask,
                    }
                    sw.applied = true;
                }
            }
        }
        PendingSw::SrcRestore { r, lane, mask } => {
            // Transient source fault: undo the flip unless the instruction
            // overwrote the register anyway.
            if op.dst_reg() != Some(r) {
                ctx.regs[reg_idx(r, lane)] ^= mask;
            }
        }
        PendingSw::None => {}
    }

    // ---- re-assert a persistent software-level fault --------------------
    // A stuck register cell is re-forced after every instruction of its
    // warp, so whatever the instruction wrote is pinned back before the
    // next reader can observe it.
    if let Some(sw) = ctx.sw.as_deref_mut() {
        if let Some(st) = sw.stuck {
            if st.seq == w.seq {
                let i = reg_idx(Reg(st.reg), st.lane);
                ctx.regs[i] = apply_stuck(ctx.regs[i], st.mask, st.value);
            }
        }
    }

    // ---- probe: destination-register write ------------------------------
    if ctx.mem.probed() {
        if let Some(d) = op.dst_reg() {
            for lane in lanes_of(exec_mask) {
                ctx.mem.probe_reg(reg_idx(d, lane), true);
            }
        }
    }

    if advance {
        w.stack[top_idx].pc = pc + 1;
    }
    if let StepEvent::Issued(_) = event {
        event = StepEvent::Issued(class);
    }
    Ok(event)
}

/// Shared-memory access with bounds checking and a 32-bank conflict model,
/// as one pass over the warp: the lanes are checked as a row, and the
/// first bad lane, ascending, raises its DUE (misalignment before bounds)
/// after the lanes below it have loaded or stored. Lanes store in
/// ascending order, so of two lanes on one word the higher one wins.
fn smem_access<M: GMem>(
    ctx: &mut ExecCtx<'_, M>,
    exec_mask: u32,
    addrs: &Row,
    load_into: Option<Reg>,
    store_from: Option<Reg>,
) -> Result<IssueClass, DueKind> {
    let words = u32::try_from(ctx.smem.len()).unwrap_or(u32::MAX);
    let bad = exec_mask & lane_bits(|l| (addrs[l] & 3 != 0) | (addrs[l] / 4 >= words));
    let done = match bad {
        0 => exec_mask,
        _ => exec_mask & ((bad & bad.wrapping_neg()) - 1),
    };
    if ctx.mem.probed() {
        for lane in lanes_of(done) {
            ctx.mem
                .probe_smem((addrs[lane] / 4) as usize, store_from.is_some());
        }
    }
    // Each lane that completes moves its word and counts it against its
    // bank. Lane `l` counts in tally `l % 4`, so lanes that share a bank
    // mostly bump different bytes rather than one byte in a chain.
    let mut tally = [[0u8; 32]; 4];
    let word = |lane: usize| (addrs[lane] / 4) as usize;
    if let Some(d) = load_into {
        let dst = row_mut(ctx.regs, d);
        for lane in lanes_of(done) {
            tally[lane % 4][word(lane) % 32] += 1;
            dst[lane] = ctx.smem[word(lane)];
        }
    }
    if let Some(v) = store_from {
        let vals = row(ctx.regs, v);
        for lane in lanes_of(done) {
            tally[lane % 4][word(lane) % 32] += 1;
            ctx.smem[word(lane)] = vals[lane];
        }
    }
    if bad != 0 {
        let addr = addrs[bad.trailing_zeros() as usize];
        return Err(if addr.is_multiple_of(4) {
            DueKind::SmemOutOfBounds { off: addr }
        } else {
            DueKind::Misaligned { addr }
        });
    }
    // The most lanes on one bank; two lanes on one word count twice.
    let max_per_bank = (0..32)
        .map(|b| tally.iter().map(|t| t[b]).sum::<u8>())
        .max()
        .map_or(0, u32::from);
    Ok(IssueClass::Smem {
        extra_conflicts: max_per_bank.saturating_sub(1),
    })
}

/// Flat (uncached) memory used by the functional engine.
pub struct FlatMem<'a> {
    pub mem: &'a mut crate::mem::GlobalMem,
}

impl GMem for FlatMem<'_> {
    fn load(
        &mut self,
        _tex: bool,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
    ) -> Result<u64, DueKind> {
        self.mem.read_warp(mask, addrs, out)?;
        Ok(0)
    }

    fn store(
        &mut self,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
    ) -> Result<u64, DueKind> {
        self.mem.write_warp(mask, addrs, vals)?;
        Ok(0)
    }
}

/// [`FlatMem`] that also journals what one CTA did to global memory — the
/// memory hook behind the golden CTA log ([`crate::functional::run_cta`]):
/// every lane store is recorded with the word it overwrote, and, when
/// `reads` is set, every lane load marks its granule
/// ([`crate::mem::granule_bit`]) in that bitmap.
pub struct LogMem<'a> {
    pub mem: &'a mut crate::mem::GlobalMem,
    /// `(address, word before this store)` per lane store, in program
    /// order: an address's first entry holds the value the CTA found.
    pub writes: &'a mut Vec<(u32, u32)>,
    /// Read-footprint bitmap, `GlobalMem::granule_words` long.
    pub reads: Option<&'a mut [u32]>,
}

impl GMem for LogMem<'_> {
    fn load(
        &mut self,
        tex: bool,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
    ) -> Result<u64, DueKind> {
        FlatMem {
            mem: &mut *self.mem,
        }
        .load(tex, mask, addrs, out)?;
        if let Some(reads) = self.reads.as_deref_mut() {
            for lane in lanes_of(mask) {
                let (word, bit) = crate::mem::granule_bit(addrs[lane]);
                reads[word] |= bit;
            }
        }
        Ok(0)
    }

    fn store(
        &mut self,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
    ) -> Result<u64, DueKind> {
        self.mem.check_warp(mask, addrs)?;
        for lane in lanes_of(mask) {
            self.writes
                .push((addrs[lane], self.mem.read_u32(addrs[lane])));
            self.mem.write_u32(addrs[lane], vals[lane]);
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::GlobalMem;
    use vgpu_arch::KernelBuilder;

    /// Run `kernel` for one full warp with flat memory; returns
    /// (regs, preds, stats) on completion.
    fn run_one_warp(
        kernel: &Kernel,
        params: &[u32],
        mem: &mut GlobalMem,
        init_mask: u32,
    ) -> (Vec<u32>, [u32; 4], Stats) {
        let mut w = Warp::new(0, 0, 0, init_mask, 0);
        let mut regs = vec![0u32; kernel.num_regs as usize * WARP_SIZE];
        let mut smem = vec![0u32; (kernel.smem_bytes / 4).max(1) as usize];
        let mut stats = Stats::default();
        let mut flat = FlatMem { mem };
        for _ in 0..100_000 {
            let mut ctx = ExecCtx {
                kernel,
                params,
                ntid: 32,
                nctaid: 1,
                regs: &mut regs,
                smem: &mut smem,
                mem: &mut flat,
                stats: &mut stats,
                sw: None,
                max_stack: 64,
            };
            match step_warp(&mut w, &mut ctx).expect("no DUE expected") {
                StepEvent::Done => return (regs, w.preds, stats),
                StepEvent::Barrier => {} // single warp: barrier is a no-op
                StepEvent::Issued(_) => {}
            }
        }
        panic!("warp did not finish");
    }

    #[test]
    fn alu_basics_per_lane() {
        let mut a = KernelBuilder::new("t");
        let (r0, r1, r2) = (a.reg(), a.reg(), a.reg());
        a.s2r(r0, SpecialReg::LaneId);
        a.imad(r1, r0, 3u32, 10u32); // r1 = lane*3 + 10
        a.iscadd(r2, r0, 100u32, 2); // r2 = lane*4 + 100
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(4096);
        let (regs, _, stats) = run_one_warp(&k, &[], &mut mem, u32::MAX);
        for lane in 0..32 {
            assert_eq!(regs[reg_idx(Reg(1), lane)], lane as u32 * 3 + 10);
            assert_eq!(regs[reg_idx(Reg(2), lane)], lane as u32 * 4 + 100);
        }
        assert_eq!(stats.warp_instrs, 4); // 3 + exit
        assert_eq!(stats.thread_instrs, 4 * 32);
    }

    #[test]
    fn float_ops() {
        let mut a = KernelBuilder::new("t");
        let (r0, r1, r2, r3) = (a.reg(), a.reg(), a.reg(), a.reg());
        a.mov(r0, 2.0f32);
        a.ffma(r1, r0, 3.0f32, 1.0f32); // 7.0
        a.frcp(r2, r0); // 0.5
        a.fsqrt(r3, r1); // sqrt(7)
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(4096);
        let (regs, _, _) = run_one_warp(&k, &[], &mut mem, 1);
        assert_eq!(f(regs[reg_idx(Reg(1), 0)]), 7.0);
        assert_eq!(f(regs[reg_idx(Reg(2), 0)]), 0.5);
        assert_eq!(f(regs[reg_idx(Reg(3), 0)]), 7.0f32.sqrt());
    }

    #[test]
    fn predication_masks_lanes() {
        let mut a = KernelBuilder::new("t");
        let (r0, r1) = (a.reg(), a.reg());
        let p = a.pred();
        a.s2r(r0, SpecialReg::LaneId);
        a.isetp(p, r0, 16u32, CmpOp::Lt, true);
        a.predicated(p, false, |a| a.mov(r1, 7u32));
        a.predicated(p, true, |a| a.mov(r1, 9u32));
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(4096);
        let (regs, preds, _) = run_one_warp(&k, &[], &mut mem, u32::MAX);
        assert_eq!(preds[0], 0x0000_ffff);
        for lane in 0..32 {
            let expect = if lane < 16 { 7 } else { 9 };
            assert_eq!(regs[reg_idx(Reg(1), lane)], expect, "lane {lane}");
        }
    }

    #[test]
    fn divergence_if_then_else_reconverges() {
        let mut a = KernelBuilder::new("t");
        let (r0, r1, r2) = (a.reg(), a.reg(), a.reg());
        let p = a.pred();
        a.s2r(r0, SpecialReg::LaneId);
        a.isetp(p, r0, 8u32, CmpOp::Lt, true);
        a.if_then_else(p, false, |a| a.mov(r1, 100u32), |a| a.mov(r1, 200u32));
        a.iadd(r2, r1, 1u32); // after reconvergence: all lanes execute
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(4096);
        let (regs, _, _) = run_one_warp(&k, &[], &mut mem, u32::MAX);
        for lane in 0..32 {
            let expect = if lane < 8 { 101 } else { 201 };
            assert_eq!(regs[reg_idx(Reg(2), lane)], expect, "lane {lane}");
        }
    }

    #[test]
    fn divergent_loop_trip_counts() {
        // Each lane loops `lane+1` times, accumulating into r1.
        let mut a = KernelBuilder::new("t");
        let (r0, r1, r2) = (a.reg(), a.reg(), a.reg());
        let p = a.pred();
        a.s2r(r0, SpecialReg::LaneId);
        a.mov(r1, 0u32);
        a.mov(r2, 0u32);
        a.loop_while(|a| {
            a.iadd(r1, r1, 1u32);
            a.iadd(r2, r2, 1u32);
            a.isetp(p, r2, Operand::Reg(r0), CmpOp::Le, true);
            (p, false)
        });
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(4096);
        let (regs, _, _) = run_one_warp(&k, &[], &mut mem, u32::MAX);
        for lane in 0..32 {
            assert_eq!(regs[reg_idx(Reg(1), lane)], lane as u32 + 1, "lane {lane}");
        }
    }

    #[test]
    fn global_load_store_roundtrip() {
        let mut a = KernelBuilder::new("t");
        let (r0, r1, r2) = (a.reg(), a.reg(), a.reg());
        a.s2r(r0, SpecialReg::LaneId);
        a.mov(r1, a.param(0));
        a.iscadd(r1, r0, r1, 2); // addr = base + lane*4
        a.ld(r2, MemSpace::Global, r1, 0);
        a.iadd(r2, r2, 1000u32);
        a.st(MemSpace::Global, r1, 0, r2);
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(4096);
        mem.map(0, 4096);
        for i in 0..32u32 {
            mem.write_u32(256 + i * 4, i);
        }
        let (_, _, stats) = run_one_warp(&k, &[256], &mut mem, u32::MAX);
        for i in 0..32u32 {
            assert_eq!(mem.read_u32(256 + i * 4), i + 1000);
        }
        assert_eq!(stats.load_instrs, 32);
        assert_eq!(stats.store_instrs, 32);
    }

    #[test]
    fn illegal_address_is_due() {
        let mut a = KernelBuilder::new("t");
        let (r0, r1) = (a.reg(), a.reg());
        a.mov(r0, 0x10u32); // unmapped
        a.ld(r1, MemSpace::Global, r0, 0);
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(4096);
        let mut w = Warp::new(0, 0, 0, 1, 0);
        let mut regs = vec![0u32; k.num_regs as usize * WARP_SIZE];
        let mut smem = vec![0u32; 1];
        let mut stats = Stats::default();
        let mut flat = FlatMem { mem: &mut mem };
        let mut err = None;
        for _ in 0..10 {
            let mut ctx = ExecCtx {
                kernel: &k,
                params: &[],
                ntid: 32,
                nctaid: 1,
                regs: &mut regs,
                smem: &mut smem,
                mem: &mut flat,
                stats: &mut stats,
                sw: None,
                max_stack: 64,
            };
            match step_warp(&mut w, &mut ctx) {
                Err(e) => {
                    err = Some(e);
                    break;
                }
                Ok(StepEvent::Done) => break,
                Ok(_) => {}
            }
        }
        assert_eq!(err, Some(DueKind::IllegalAddress { addr: 0x10 }));
    }

    #[test]
    fn smem_roundtrip_and_bounds() {
        let mut a = KernelBuilder::new("t");
        let base = a.alloc_smem(128);
        assert_eq!(base, 0);
        let (r0, r1, r2) = (a.reg(), a.reg(), a.reg());
        a.s2r(r0, SpecialReg::LaneId);
        a.shl(r1, r0, 2u32);
        a.st(MemSpace::Shared, r1, 0, r0);
        a.ld(r2, MemSpace::Shared, r1, 0);
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(64);
        let (regs, _, stats) = run_one_warp(&k, &[], &mut mem, u32::MAX);
        for lane in 0..32 {
            assert_eq!(regs[reg_idx(Reg(2), lane)], lane as u32);
        }
        assert_eq!(stats.smem_instrs, 64);
    }

    #[test]
    fn smem_out_of_bounds_is_due() {
        // One word past the end, and an address whose `+ 4` wraps to 0
        // (a zero register with offset -4).
        for (base, off, want) in [(64u32, 0, 64), (0, -4, 0xffff_fffc)] {
            let mut a = KernelBuilder::new("t");
            a.alloc_smem(16);
            let (r0, r1) = (a.reg(), a.reg());
            a.mov(r0, base);
            a.ld(r1, MemSpace::Shared, r0, off);
            let k = a.build().unwrap();
            let mut w = Warp::new(0, 0, 0, 1, 0);
            let mut regs = vec![0u32; k.num_regs as usize * WARP_SIZE];
            let mut smem = vec![0u32; (k.smem_bytes / 4) as usize];
            let mut stats = Stats::default();
            let mut mem = GlobalMem::new(64);
            let mut flat = FlatMem { mem: &mut mem };
            let mut got = None;
            for _ in 0..10 {
                let mut ctx = ExecCtx {
                    kernel: &k,
                    params: &[],
                    ntid: 32,
                    nctaid: 1,
                    regs: &mut regs,
                    smem: &mut smem,
                    mem: &mut flat,
                    stats: &mut stats,
                    sw: None,
                    max_stack: 64,
                };
                match step_warp(&mut w, &mut ctx) {
                    Err(e) => {
                        got = Some(e);
                        break;
                    }
                    Ok(StepEvent::Done) => break,
                    Ok(_) => {}
                }
            }
            assert_eq!(got, Some(DueKind::SmemOutOfBounds { off: want }));
        }
    }

    #[test]
    fn sw_fault_dest_value_flips_target_instruction() {
        // Kernel: r1 = 5; r2 = r1 + 1. Inject into dynamic instr index 0
        // (the MOV) of lane 3, bit 1: r1 becomes 7, so r2 = 8 in lane 3.
        let mut a = KernelBuilder::new("t");
        let (r1, r2) = (a.reg(), a.reg());
        a.mov(r1, 5u32);
        a.iadd(r2, r1, 1u32);
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(64);
        let mut w = Warp::new(0, 0, 0, u32::MAX, 0);
        let mut regs = vec![0u32; k.num_regs as usize * WARP_SIZE];
        let mut smem = vec![0u32; 1];
        let mut stats = Stats::default();
        let mut inj = SwInjector::new(crate::fault::SwFault {
            kind: SwFaultKind::DestValue,
            target: 3, // lane 3 of the first eligible instruction
            bit: 1,
            loc_pick: 0,
            pattern: crate::fault::FaultPattern::SingleBit,
        });
        let mut flat = FlatMem { mem: &mut mem };
        loop {
            let mut ctx = ExecCtx {
                kernel: &k,
                params: &[],
                ntid: 32,
                nctaid: 1,
                regs: &mut regs,
                smem: &mut smem,
                mem: &mut flat,
                stats: &mut stats,
                sw: Some(&mut inj),
                max_stack: 64,
            };
            if let StepEvent::Done = step_warp(&mut w, &mut ctx).unwrap() {
                break;
            }
        }
        assert!(inj.applied);
        assert_eq!(
            regs[reg_idx(Reg(0), 3)],
            7,
            "flipped destination value persists"
        );
        assert_eq!(
            regs[reg_idx(Reg(1), 3)],
            8,
            "downstream reader sees the flip"
        );
        assert_eq!(regs[reg_idx(Reg(1), 2)], 6, "other lanes unaffected");
    }

    #[test]
    fn sw_fault_src_transient_affects_single_instruction() {
        // r0 = 4; r1 = r0 + 1; r2 = r0 + 2.
        // Transient source fault on the *second* eligible source-reading
        // instruction (r2 = r0+2) must leave r1 and r0 intact.
        let mut a = KernelBuilder::new("t");
        let (r0, r1, r2) = (a.reg(), a.reg(), a.reg());
        a.mov(r0, 4u32);
        a.iadd(r1, r0, 1u32);
        a.iadd(r2, r0, 2u32);
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(64);
        let mut w = Warp::new(0, 0, 0, 1, 0); // one lane
        let mut regs = vec![0u32; k.num_regs as usize * WARP_SIZE];
        let mut smem = vec![0u32; 1];
        let mut stats = Stats::default();
        let mut inj = SwInjector::new(crate::fault::SwFault {
            kind: SwFaultKind::SrcTransient,
            target: 1, // second src-reading dynamic instr (iadd r2)
            bit: 0,    // 4 -> 5
            loc_pick: 0,
            pattern: crate::fault::FaultPattern::SingleBit,
        });
        let mut flat = FlatMem { mem: &mut mem };
        loop {
            let mut ctx = ExecCtx {
                kernel: &k,
                params: &[],
                ntid: 32,
                nctaid: 1,
                regs: &mut regs,
                smem: &mut smem,
                mem: &mut flat,
                stats: &mut stats,
                sw: Some(&mut inj),
                max_stack: 64,
            };
            if let StepEvent::Done = step_warp(&mut w, &mut ctx).unwrap() {
                break;
            }
        }
        assert!(inj.applied);
        assert_eq!(regs[reg_idx(Reg(1), 0)], 5, "earlier instr unaffected");
        assert_eq!(
            regs[reg_idx(Reg(2), 0)],
            7,
            "target instr read flipped src (5+2)"
        );
        assert_eq!(
            regs[reg_idx(Reg(0), 0)],
            4,
            "source restored after the instr"
        );
    }

    #[test]
    fn masked_exit_finishes_warp_partially() {
        // Lanes < 4 exit early (via predicated EXIT), the rest write r1.
        let mut a = KernelBuilder::new("t");
        let (r0, r1) = (a.reg(), a.reg());
        let p = a.pred();
        a.s2r(r0, SpecialReg::LaneId);
        a.isetp(p, r0, 4u32, CmpOp::Lt, true);
        a.emit_guarded(Op::Exit, p, false);
        a.mov(r1, 9u32);
        let k = a.build().unwrap();
        let mut mem = GlobalMem::new(64);
        let (regs, _, _) = run_one_warp(&k, &[], &mut mem, 0xff);
        for lane in 0..8 {
            let expect = if lane < 4 { 0 } else { 9 };
            assert_eq!(regs[reg_idx(Reg(1), lane)], expect, "lane {lane}");
        }
    }
}
