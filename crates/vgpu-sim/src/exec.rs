//! The SIMT instruction interpreter, shared by the cycle-level and
//! functional engines.
//!
//! [`run_warp`] runs a warp a straight-line block at a time over the
//! kernel's decoded ops ([`vgpu_arch::Decoded`]): it settles the SIMT stack,
//! evaluates predication, runs each op as one pass over 32-lane rows,
//! handles divergence, applies software-level fault injection hooks, and
//! reports an issue class that the timed engine converts into latency. The
//! functional engine runs a warp up to its scheduling quantum per call,
//! the timed engine one instruction per issue slot. The engines differ
//! otherwise only in the [`GMem`] implementation (cached vs. flat).

use crate::due::DueKind;
use crate::fault::{apply_stuck, value_mask, SwFaultKind, SwInjector, SwStuck};
use crate::stats::Stats;
use crate::warp::{StackEntry, Warp};
use vgpu_arch::{counter, Decoded, Kernel, Reg, Src, Tag, WARP_SIZE};

/// Global-memory interface implemented by the two engines.
pub trait GMem {
    /// Whether issue latency is read: the timed engine's memory. Only then
    /// does a shared-memory access tally its bank conflicts; otherwise
    /// [`IssueClass::Smem`] reports none.
    const TIMED: bool = false;

    /// Warp-coalesced load of one word per active lane. `addrs[lane]` is
    /// meaningful where `mask` has the lane bit set. Returns the cycle at
    /// which the data is available (0 in functional mode). A cached memory
    /// counts its cache and DRAM traffic into `stats`, the executing
    /// launch's; a flat one has none to count.
    fn load(
        &mut self,
        tex: bool,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
        stats: &mut Stats,
    ) -> Result<u64, DueKind>;

    /// Warp-coalesced store, counted as [`GMem::load`] counts.
    fn store(
        &mut self,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
        stats: &mut Stats,
    ) -> Result<u64, DueKind>;

    /// Whether a probe is attached. Gates the per-instruction
    /// register-operand walk in [`run_warp`] so unprobed runs pay nothing.
    fn probed(&self) -> bool {
        false
    }

    /// Probe hook: the lanes `mask` of the register row at word offset
    /// `row` (`reg * 32`, warp-local) were read or written.
    fn probe_reg(&mut self, _row: usize, _mask: u32, _write: bool) {}

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

/// How a call of [`run_warp`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// The instruction limit ran out; the last instruction's class.
    Issued(IssueClass),
    /// The warp arrived at a CTA barrier (PC already advanced).
    Barrier,
    /// The warp finished.
    Done,
}

/// Everything [`run_warp`] needs besides the warp itself.
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

/// The register row at word offset `o` ([`Src::Row`]).
#[inline]
fn row(regs: &[u32], o: u16) -> &Row {
    let o = o as usize;
    regs[o..o + WARP_SIZE]
        .try_into()
        .expect("a row is WARP_SIZE words")
}

/// A source operand on every lane: a register row, or an immediate or
/// constant-bank word broadcast.
#[inline]
fn src(regs: &[u32], params: &[u32], s: Src) -> Row {
    match s {
        Src::Row(o) => *row(regs, o),
        Src::Imm(v) => [v; WARP_SIZE],
        Src::Const(i) => {
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
    // Each lane tests the constant bit `1 << l`, not `mask >> l`: the
    // baseline x86-64 target has no per-lane variable shift, and a row of
    // constants lets the loop run as vector compares.
    lanes(|l| {
        let m = (((mask & (1 << l)) != 0) as u32).wrapping_neg();
        (a[l] & m) | (b[l] & !m)
    })
}

/// The register row at word offset `o`, to write.
#[inline]
fn row_mut(regs: &mut [u32], o: u16) -> &mut Row {
    let o = o as usize;
    (&mut regs[o..o + WARP_SIZE])
        .try_into()
        .expect("a row is WARP_SIZE words")
}

/// Write `vals` into the row at `d` on the lanes of `mask` only.
#[inline(always)]
fn write_row(regs: &mut [u32], d: u16, mask: u32, vals: &Row) {
    let dst = row_mut(regs, d);
    if mask == u32::MAX {
        *dst = *vals;
    } else {
        *dst = select(mask, vals, dst);
    }
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

/// Bit `lane` set where `f(lane)` holds. Like [`select`], each lane masks
/// the constant bit `1 << lane` rather than shifting by the lane index.
#[inline(always)]
fn lane_bits(f: impl Fn(usize) -> bool) -> u32 {
    (0..WARP_SIZE).fold(0, |m, lane| {
        m | ((f(lane) as u32).wrapping_neg() & (1 << lane))
    })
}

/// `[a + off]` on every lane.
#[inline]
fn addrs(regs: &[u32], a: u16, off: u32) -> Row {
    let a = row(regs, a);
    lanes(|l| a[l].wrapping_add(off))
}

/// Kind of value-level software fault pending for this instruction.
enum PendingSw {
    Dest { lane: usize, mask: u32 },
    SrcRestore { r: Reg, lane: usize, mask: u32 },
    None,
}

/// Run `w` until `limit` instructions have issued, it arrives at a
/// barrier, or it finishes. Returns the event that ended the run (the
/// issue class of the last instruction when `limit` ran out), or a DUE.
///
/// The warp runs a straight-line block at a time. A block starts wherever
/// the SIMT stack's top entry points and ends at the earliest of: the end
/// of the op's run (its next `Bra`, `Bar` or `Exit`, included), the top
/// entry's reconvergence point, or `limit`. The stack is settled and its
/// top read once per block, and the block's instruction counters are
/// added once, from the kernel's running sums ([`Kernel::counted`]) times
/// the live lanes, less the lanes each guard masked off. The guard is
/// re-read per instruction, so predicates set inside a block apply at
/// once. A software fault's target is tested once per block, against the
/// most lanes the block can count; the block that may hold it, and every
/// block of a warp with a stuck-at cell, run one instruction at a time
/// with the injector's per-instruction bookkeeping. The timed engine calls
/// this at a warp's issue with a `limit` of its deferred pure ops plus one,
/// and with a `limit` of 1 — the least there is — whenever a probe or a
/// software injector rides the launch. At a DUE, `Stats` and the injector
/// hold what they held had every instruction run alone: the faulting one
/// counted, nothing after it.
pub fn run_warp<M: GMem>(
    w: &mut Warp,
    ctx: &mut ExecCtx<'_, M>,
    limit: u32,
) -> Result<StepEvent, DueKind> {
    debug_assert!(limit > 0, "a call issues at least one instruction");
    let kernel = ctx.kernel;
    let ops = kernel.ops();
    let sw_k = ctx.sw.as_deref().and_then(|sw| sw.fault.kind.counter());
    let probed = ctx.mem.probed();
    let mut left = limit as usize;
    loop {
        if !w.settle() {
            return Ok(StepEvent::Done);
        }
        let top_idx = w.stack.len() - 1;
        let top = w.stack[top_idx];
        let live = top.mask & !w.exited;
        let pc = top.pc as usize;
        if pc >= ops.len() {
            return Err(DueKind::BadPc { pc: top.pc });
        }
        let mut end = (ops[pc].end as usize).min(pc + left);
        if top.rpc as usize > pc {
            end = end.min(top.rpc as usize);
        }
        let n_live = live.count_ones();
        let slow = ctx.sw.as_deref().is_some_and(|sw| {
            let bound = |k| u64::from(n_live) * u64::from(kernel.counted(pc, end)[k]);
            sw.stuck.is_some_and(|st| st.seq == w.seq)
                || sw_k.is_some_and(|k| {
                    let t = sw.fault.target;
                    t >= sw.counter && t - sw.counter < bound(k)
                })
        });
        if slow {
            end = pc + 1;
        }

        // Lanes each counter did not get because a guard masked them off.
        let mut short = [0u32; counter::COUNT];
        let mut class = IssueClass::Alu;
        for (i, op) in (pc..end).zip(&ops[pc..end]) {
            let exec = match op.guard {
                Some(g) => live & (w.preds[g.pred.0 as usize] ^ (g.negate as u32).wrapping_neg()),
                None => live,
            };
            if exec != live {
                let off = n_live - exec.count_ones();
                let mut m = op.counts;
                while m != 0 {
                    short[m.trailing_zeros() as usize] += off;
                    m &= m - 1;
                }
            }
            let pending = if slow {
                sw_before(w, ctx, sw_k, i, exec)
            } else {
                PendingSw::None
            };
            // `Sel` conservatively counts both inputs as read; predicate
            // registers are not part of the modeled register file.
            if probed {
                for r in kernel.instrs()[i].op.src_regs() {
                    ctx.mem.probe_reg(reg_idx(r, 0), exec, false);
                }
            }
            match exec_op(op, i, live, exec, w, ctx) {
                Ok(c) => class = c,
                Err(e) => {
                    count_block(ctx, pc, i + 1, n_live, &short, slow, sw_k);
                    if op.tag != Tag::Bra {
                        w.stack[top_idx].pc = i as u32;
                    }
                    return Err(e);
                }
            }
            if slow {
                sw_after(w, ctx, i, pending);
            }
            if probed {
                if let Some(d) = kernel.instrs()[i].op.dst_reg() {
                    ctx.mem.probe_reg(reg_idx(d, 0), exec, true);
                }
            }
        }
        count_block(ctx, pc, end, n_live, &short, slow, sw_k);
        let last = ops[end - 1].tag;
        if last != Tag::Bra {
            w.stack[top_idx].pc = end as u32;
        }
        if last == Tag::Bar {
            return Ok(StepEvent::Barrier);
        }
        left -= end - pc;
        if left == 0 {
            return Ok(StepEvent::Issued(class));
        }
    }
}

/// Add the block `pc..end`, run with `n_live` live lanes, to the
/// statistics: each counter gets the live lanes times the block's ops that
/// feed it ([`Kernel::counted`]), less the lanes guards took from it
/// (`short`); a one-instruction block reads its op's counter bits instead.
/// Unless the block did the injector's bookkeeping itself (`slow`), the
/// injector's counter too.
#[inline(always)]
fn count_block<M: GMem>(
    ctx: &mut ExecCtx<'_, M>,
    pc: usize,
    end: usize,
    n_live: u32,
    short: &[u32; counter::COUNT],
    slow: bool,
    sw_k: Option<usize>,
) {
    if end - pc == 1 {
        let n = u64::from(n_live - short[counter::THREAD]);
        let bits = ctx.kernel.ops()[pc].counts;
        let lanes = |k: usize| n * u64::from(bits >> k & 1);
        add_counts(ctx, 1, lanes, bits >> counter::CLASS, slow, sw_k);
    } else {
        let counted = ctx.kernel.counted(pc, end);
        let lanes = |k: usize| u64::from(n_live * counted[k] - short[k]);
        add_counts(ctx, (end - pc) as u64, lanes, !0, slow, sw_k);
    }
}

/// Add `warp_instrs` instructions and `lanes(k)` lanes to each counter `k`;
/// of the per-class counters, only those in `classes` (bit `c` for class
/// index `c`) can be non-zero.
#[inline(always)]
fn add_counts<M: GMem>(
    ctx: &mut ExecCtx<'_, M>,
    warp_instrs: u64,
    lanes: impl Fn(usize) -> u64,
    classes: u16,
    slow: bool,
    sw_k: Option<usize>,
) {
    let s = &mut *ctx.stats;
    s.warp_instrs += warp_instrs;
    s.thread_instrs += lanes(counter::THREAD);
    let global_load = lanes(counter::GLOBAL_LOAD);
    s.load_instrs += global_load;
    s.ld_dest_instrs += global_load;
    s.store_instrs += lanes(counter::GLOBAL_STORE);
    s.smem_instrs += lanes(counter::SHARED);
    s.gp_dest_instrs += lanes(counter::GP_DEST);
    s.src_reg_instrs += lanes(counter::SRC_REG);
    for (c, n) in s.class_dest_instrs.iter_mut().enumerate() {
        if classes >> c & 1 != 0 {
            *n += lanes(counter::CLASS + c);
        }
    }
    if !slow {
        if let (Some(sw), Some(k)) = (ctx.sw.as_deref_mut(), sw_k) {
            sw.counter += lanes(k);
        }
    }
}

/// The injector's bookkeeping of the instruction at `pc` before it runs
/// on `exec`: count its eligible lanes and, when the target index falls
/// among them, apply a source or architectural-state fault now or return
/// the destination fault to apply after it.
fn sw_before<M: GMem>(
    w: &Warp,
    ctx: &mut ExecCtx<'_, M>,
    sw_k: Option<usize>,
    pc: usize,
    exec: u32,
) -> PendingSw {
    let Some(sw) = ctx.sw.as_deref_mut() else {
        return PendingSw::None;
    };
    let n_active = exec.count_ones() as u64;
    let eligible = sw_k.is_some_and(|k| ctx.kernel.ops()[pc].counts >> k & 1 != 0);
    if n_active == 0 || !eligible {
        return PendingSw::None;
    }
    let mut pending = PendingSw::None;
    let t = sw.fault.target;
    if t >= sw.counter && t < sw.counter + n_active {
        let lane = lanes_of(exec)
            .nth((t - sw.counter) as usize)
            .expect("the target is one of this instruction's active lanes");
        let mask = value_mask(sw.fault.pattern, sw.fault.bit);
        let stuck_v = sw.fault.pattern.stuck_value();
        let hit = match sw.fault.kind {
            SwFaultKind::DestValue | SwFaultKind::DestValueLoad | SwFaultKind::DestClass(_) => {
                pending = PendingSw::Dest { lane, mask };
                None
            }
            SwFaultKind::SrcTransient | SwFaultKind::SrcPersistent => {
                let r = ctx.kernel.instrs()[pc].op.src_regs()[0];
                // A persistent pattern sticks the cell whatever the
                // source-fault kind; a transient one is undone after the
                // instruction.
                if stuck_v.is_none() && sw.fault.kind == SwFaultKind::SrcTransient {
                    pending = PendingSw::SrcRestore { r, lane, mask };
                }
                Some(r)
            }
            // Architectural-state fault (PVF model): any live register of
            // this warp, before execution.
            SwFaultKind::ArchState => Some(Reg(
                (sw.fault.loc_pick % u64::from(ctx.kernel.num_regs)) as u8,
            )),
        };
        if let Some(r) = hit {
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
    sw.counter += n_active;
    pending
}

/// The injector's bookkeeping after the instruction at `pc` ran: apply a
/// pending destination fault or undo a transient source flip, then
/// re-force a stuck cell of this warp, so whatever the instruction wrote
/// is pinned back before the next reader can observe it.
fn sw_after<M: GMem>(w: &Warp, ctx: &mut ExecCtx<'_, M>, pc: usize, pending: PendingSw) {
    let Some(sw) = ctx.sw.as_deref_mut() else {
        return;
    };
    let dst = ctx.kernel.instrs()[pc].op.dst_reg();
    match pending {
        PendingSw::Dest { lane, mask } => {
            if let Some(d) = dst {
                let i = reg_idx(d, lane);
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
        // Transient source fault: undo the flip unless the instruction
        // overwrote the register anyway.
        PendingSw::SrcRestore { r, lane, mask } => {
            if dst != Some(r) {
                ctx.regs[reg_idx(r, lane)] ^= mask;
            }
        }
        PendingSw::None => {}
    }
    if let Some(st) = sw.stuck.filter(|st| st.seq == w.seq) {
        let i = reg_idx(Reg(st.reg), st.lane);
        ctx.regs[i] = apply_stuck(ctx.regs[i], st.mask, st.value);
    }
}

/// Execute decoded op `op` at `pc` on the lanes of `exec` (`live` are the
/// lanes of the stack's top entry): one pass over 32-lane rows. Register
/// operands are read as rows and immediate / constant operands broadcast
/// once; results are written back under the exec mask. A branch updates
/// the SIMT stack itself; the caller advances the pc past any other op.
#[inline(always)]
fn exec_op<M: GMem>(
    op: &Decoded,
    pc: usize,
    live: u32,
    exec: u32,
    w: &mut Warp,
    ctx: &mut ExecCtx<'_, M>,
) -> Result<IssueClass, DueKind> {
    macro_rules! put {
        ($v:expr) => {{
            let v = $v;
            write_row(ctx.regs, op.d, exec, &v);
            IssueClass::Alu
        }};
    }
    macro_rules! alu1 {
        ($class:expr, |$x:ident| $e:expr) => {{
            let a = row(ctx.regs, op.a);
            let out = lanes(|l| {
                let $x = a[l];
                $e
            });
            write_row(ctx.regs, op.d, exec, &out);
            $class
        }};
    }
    macro_rules! alu2 {
        (|$x:ident, $y:ident| $e:expr) => {{
            let (a, b) = (row(ctx.regs, op.a), src(ctx.regs, ctx.params, op.b));
            put!(lanes(|l| {
                let ($x, $y) = (a[l], b[l]);
                $e
            }))
        }};
    }
    // NVIDIA shifts clamp: amounts >= 32 yield 0. An immediate or constant
    // amount is one for every lane, so the row shifts as one vector op;
    // the baseline x86-64 target has no per-lane variable shift.
    macro_rules! shift {
        (|$x:ident, $y:ident| $e:expr) => {
            match op.b {
                Src::Row(_) => alu2!(|$x, $y| $e),
                Src::Imm(_) | Src::Const(_) => {
                    let $y = src(ctx.regs, ctx.params, op.b)[0];
                    alu1!(IssueClass::Alu, |$x| $e)
                }
            }
        };
    }
    macro_rules! sfu {
        ($e:expr) => {
            alu1!(IssueClass::Sfu, |x| fb($e(f(x))))
        };
    }
    // `op.imm` is a [`vgpu_arch::decode::cmp_table`]: bits 0–3 hold the
    // result when the lane's operands, read as `$v`, compare less, equal,
    // greater or unordered (a NaN). Each lane tests the four relations
    // against those bits rather than shifting the table by its own
    // ordering, so the row runs as vector compares.
    macro_rules! setp {
        (|$x:ident| $v:expr) => {{
            let (a, b) = (row(ctx.regs, op.a), src(ctx.regs, ctx.params, op.b));
            let t = |bit: u32| op.imm & 1 << bit != 0;
            let (lt, eq, gt, un) = (t(0), t(1), t(2), t(3));
            let read = |$x: u32| $v;
            let bits = lane_bits(|l| {
                let (x, y) = (read(a[l]), read(b[l]));
                (lt & (x < y))
                    | (eq & (x == y))
                    | (gt & (x > y))
                    | (un & x.partial_cmp(&y).is_none())
            });
            write_pred(&mut w.preds[op.d as usize], exec, bits);
            IssueClass::Alu
        }};
    }
    macro_rules! pset {
        (|$x:ident, $y:ident| $e:expr) => {{
            let neg = |bit: u32| (op.imm >> bit & 1).wrapping_neg();
            let $x = w.preds[op.a as usize] ^ neg(8);
            let $y = w.preds[(op.imm & 0xff) as usize] ^ neg(9);
            write_pred(&mut w.preds[op.d as usize], exec, $e);
            IssueClass::Alu
        }};
    }
    Ok(match op.tag {
        Tag::TidX => {
            let tid0 = w.warp_in_cta * WARP_SIZE as u32;
            put!(lanes(|l| tid0 + l as u32))
        }
        Tag::LaneId => put!(lanes(|l| l as u32)),
        Tag::CtaIdX => put!([w.ctaid_x; WARP_SIZE]),
        Tag::CtaIdY => put!([w.ctaid_y; WARP_SIZE]),
        Tag::NTidX => put!([ctx.ntid; WARP_SIZE]),
        Tag::NCtaIdX => put!([ctx.nctaid; WARP_SIZE]),
        Tag::Mov => put!(src(ctx.regs, ctx.params, op.b)),
        Tag::IAdd => alu2!(|x, y| x.wrapping_add(y)),
        Tag::ISub => alu2!(|x, y| x.wrapping_sub(y)),
        Tag::IMul => alu2!(|x, y| x.wrapping_mul(y)),
        Tag::IMaxS => alu2!(|x, y| (x as i32).max(y as i32) as u32),
        Tag::IMinS => alu2!(|x, y| (x as i32).min(y as i32) as u32),
        Tag::IMaxU => alu2!(|x, y| x.max(y)),
        Tag::IMinU => alu2!(|x, y| x.min(y)),
        Tag::Shl => shift!(|x, y| x.checked_shl(y).unwrap_or(0)),
        Tag::Shr => shift!(|x, y| x.checked_shr(y).unwrap_or(0)),
        Tag::And => alu2!(|x, y| x & y),
        Tag::Or => alu2!(|x, y| x | y),
        Tag::Xor => alu2!(|x, y| x ^ y),
        Tag::FAdd => alu2!(|x, y| fb(f(x) + f(y))),
        Tag::FMul => alu2!(|x, y| fb(f(x) * f(y))),
        Tag::FMax => alu2!(|x, y| fb(f(x).max(f(y)))),
        Tag::FMin => alu2!(|x, y| fb(f(x).min(f(y)))),
        Tag::IScAdd => {
            let sh = op.imm;
            alu2!(|x, y| (x << sh).wrapping_add(y))
        }
        Tag::IMad => {
            let (a, b) = (row(ctx.regs, op.a), src(ctx.regs, ctx.params, op.b));
            let c = src(ctx.regs, ctx.params, op.c);
            put!(lanes(|l| a[l].wrapping_mul(b[l]).wrapping_add(c[l])))
        }
        Tag::FFma => {
            let (a, b) = (row(ctx.regs, op.a), src(ctx.regs, ctx.params, op.b));
            let c = src(ctx.regs, ctx.params, op.c);
            put!(ffma_row(a, &b, &c))
        }
        Tag::Not => alu1!(IssueClass::Alu, |x| !x),
        Tag::FAbs => alu1!(IssueClass::Alu, |x| x & 0x7fff_ffff),
        Tag::I2F => alu1!(IssueClass::Alu, |x| fb(x as i32 as f32)),
        Tag::F2I => alu1!(IssueClass::Alu, |x| f(x) as i32 as u32),
        Tag::FRcp => sfu!(|x: f32| 1.0 / x),
        Tag::FSqrt => sfu!(f32::sqrt),
        Tag::FExp => sfu!(f32::exp),
        Tag::FLog => sfu!(f32::ln),
        Tag::ISetPS => setp!(|x| x as i32),
        Tag::ISetPU => setp!(|x| x),
        Tag::FSetP => setp!(|x| f(x)),
        Tag::PAnd => pset!(|x, y| x & y),
        Tag::POr => pset!(|x, y| x | y),
        Tag::PXor => pset!(|x, y| x ^ y),
        Tag::Sel => {
            let pm = w.preds[(op.imm & 0xff) as usize] ^ (op.imm >> 8 & 1).wrapping_neg();
            let (a, b) = (row(ctx.regs, op.a), src(ctx.regs, ctx.params, op.b));
            put!(select(pm, a, &b))
        }
        Tag::LdShared => {
            let addrs = addrs(ctx.regs, op.a, op.imm);
            smem_access(ctx, exec, &addrs, Some(op.d), None)?
        }
        Tag::StShared => {
            let addrs = addrs(ctx.regs, op.a, op.imm);
            smem_access(ctx, exec, &addrs, None, Some(stored(op)))?
        }
        Tag::LdGlobal | Tag::LdTex | Tag::StGlobal if exec == 0 => IssueClass::Alu,
        Tag::LdGlobal | Tag::LdTex => {
            let addrs = addrs(ctx.regs, op.a, op.imm);
            let mut out = [0u32; WARP_SIZE];
            let ready = ctx
                .mem
                .load(op.tag == Tag::LdTex, exec, &addrs, &mut out, ctx.stats)?;
            write_row(ctx.regs, op.d, exec, &out);
            IssueClass::Mem { ready }
        }
        Tag::StGlobal => {
            let addrs = addrs(ctx.regs, op.a, op.imm);
            let ready = ctx
                .mem
                .store(exec, &addrs, row(ctx.regs, stored(op)), ctx.stats)?;
            IssueClass::Mem { ready }
        }
        Tag::Bar => IssueClass::Alu,
        Tag::Exit => {
            w.exited |= exec;
            IssueClass::Alu
        }
        Tag::Bra => {
            let (pc, target, rpc) = (pc as u32, op.imm, op.reconv);
            let taken = exec;
            let fall = live & !taken;
            let top_idx = w.stack.len() - 1;
            let top = &mut w.stack[top_idx];
            if taken == 0 {
                top.pc = pc + 1;
            } else if fall == 0 {
                top.pc = target;
            } else {
                // Divergence: the current entry becomes the reconvergence
                // continuation; push the two sides (skipping any side that
                // starts at the reconvergence point itself).
                top.pc = rpc;
                top.mask = live;
                if pc + 1 != rpc {
                    w.stack.push(StackEntry {
                        pc: pc + 1,
                        rpc,
                        mask: fall,
                    });
                }
                if target != rpc {
                    w.stack.push(StackEntry {
                        pc: target,
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
    })
}

/// The register row a store writes out.
#[inline]
fn stored(op: &Decoded) -> u16 {
    match op.b {
        Src::Row(v) => v,
        _ => unreachable!("a store's value is a register"),
    }
}

/// Shared-memory access with bounds checking and a 32-bank conflict model,
/// as one pass over the warp: the lanes are checked as a row, and the
/// first bad lane, ascending, raises its DUE (misalignment before bounds)
/// after the lanes below it have loaded or stored. Lanes store in
/// ascending order, so of two lanes on one word the higher one wins. The
/// banks are tallied only for a [`GMem::TIMED`] memory; the functional
/// engine, which never reads the degree, gets `extra_conflicts: 0`.
fn smem_access<M: GMem>(
    ctx: &mut ExecCtx<'_, M>,
    exec_mask: u32,
    addrs: &Row,
    load_into: Option<u16>,
    store_from: Option<u16>,
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
    let word = |lane: usize| (addrs[lane] / 4) as usize;
    if let Some(d) = load_into {
        let dst = row_mut(ctx.regs, d);
        for lane in lanes_of(done) {
            dst[lane] = ctx.smem[word(lane)];
        }
    }
    if let Some(v) = store_from {
        let vals = row(ctx.regs, v);
        for lane in lanes_of(done) {
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
    if !M::TIMED {
        return Ok(IssueClass::Smem { extra_conflicts: 0 });
    }
    // Each lane counts its word against its bank. Lane `l` counts in
    // tally `l % 4`, so lanes that share a bank mostly bump different
    // bytes rather than one byte in a chain.
    let mut tally = [[0u8; 32]; 4];
    for lane in lanes_of(done) {
        tally[lane % 4][word(lane) % 32] += 1;
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
        _stats: &mut Stats,
    ) -> Result<u64, DueKind> {
        self.mem.read_warp(mask, addrs, out)?;
        Ok(0)
    }

    fn store(
        &mut self,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
        _stats: &mut Stats,
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
        stats: &mut Stats,
    ) -> Result<u64, DueKind> {
        FlatMem {
            mem: &mut *self.mem,
        }
        .load(tex, mask, addrs, out, stats)?;
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
        _stats: &mut Stats,
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
    use crate::fault::FaultPattern;
    use crate::mem::GlobalMem;
    use vgpu_arch::{CmpOp, KernelBuilder, MemSpace, Op, Operand, SpecialReg};

    /// Run `kernel` for one full warp with flat memory; returns
    /// (regs, preds, stats) on completion.
    fn run_one_warp(
        kernel: &Kernel,
        params: &[u32],
        mem: &mut GlobalMem,
        init_mask: u32,
    ) -> (Vec<u32>, [u32; 4], Stats) {
        let run = run_to_end(kernel, params, mem, init_mask, 256, None);
        run.end.expect("no DUE expected");
        (run.regs, run.preds, run.stats)
    }

    /// What one warp left behind.
    #[derive(Debug, PartialEq)]
    struct WarpRun {
        regs: Vec<u32>,
        preds: [u32; 4],
        stats: Stats,
        end: Result<(), DueKind>,
    }

    /// Run one warp of `kernel` until it finishes or raises a DUE,
    /// `limit` instructions per [`run_warp`] call: 1 is the
    /// per-instruction path the timed engine takes, 256 the functional
    /// engine's quantum.
    fn run_to_end(
        kernel: &Kernel,
        params: &[u32],
        mem: &mut GlobalMem,
        init_mask: u32,
        limit: u32,
        mut sw: Option<&mut SwInjector>,
    ) -> WarpRun {
        let mut w = Warp::new(0, 0, 0, init_mask, 0);
        let mut regs = vec![0u32; kernel.num_regs as usize * WARP_SIZE];
        let mut smem = vec![0u32; (kernel.smem_bytes / 4).max(1) as usize];
        let mut stats = Stats::default();
        let mut flat = FlatMem { mem };
        let mut end = Err(DueKind::BarrierDeadlock);
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
                sw: sw.as_deref_mut(),
                max_stack: 64,
            };
            match run_warp(&mut w, &mut ctx, limit) {
                Ok(StepEvent::Done) => {
                    end = Ok(());
                    break;
                }
                // Single warp: a barrier is a no-op.
                Ok(StepEvent::Barrier | StepEvent::Issued(_)) => {}
                Err(e) => {
                    end = Err(e);
                    break;
                }
            }
        }
        WarpRun {
            regs,
            preds: w.preds,
            stats,
            end,
        }
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
            match run_warp(&mut w, &mut ctx, 1) {
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
                match run_warp(&mut w, &mut ctx, 1) {
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
            if let StepEvent::Done = run_warp(&mut w, &mut ctx, 1).unwrap() {
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
            if let StepEvent::Done = run_warp(&mut w, &mut ctx, 1).unwrap() {
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

    /// One straight-line block: lane-dependent values, a predicate set
    /// inside the block and used by the next two guards, a global load
    /// and store, FFMA and a source-reading op that overwrites its own
    /// source. Params: 0 = a 32-word input, 1 = a 32-word output.
    fn block_kernel() -> Kernel {
        let mut a = KernelBuilder::new("block");
        let (lane, r1, r2, r3, r4, addr) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        a.s2r(lane, SpecialReg::LaneId);
        a.isetp(p, lane, 20u32, CmpOp::Lt, true);
        a.mov(r1, 7u32);
        a.predicated(p, false, |a| a.iadd(r2, lane, 3u32));
        a.predicated(p, true, |a| a.imul(r3, lane, 5u32));
        a.mov(addr, a.param(0));
        a.iscadd(addr, lane, Operand::Reg(addr), 2);
        a.ld(r4, MemSpace::Global, addr, 0);
        a.iadd(r1, r1, Operand::Reg(r4));
        a.ffma(r2, r1, 0.5f32, Operand::Reg(r2));
        a.xor(r3, r3, Operand::Reg(r2));
        a.mov(addr, a.param(1));
        a.iscadd(addr, lane, Operand::Reg(addr), 2);
        a.st(MemSpace::Global, addr, 0, r3);
        a.build().unwrap()
    }

    fn block_mem() -> GlobalMem {
        let mut mem = GlobalMem::new(4096);
        mem.map(0, 4096);
        for i in 0..32u32 {
            mem.write_u32(256 + 4 * i, 1000 + i * i);
        }
        mem
    }

    const KINDS: [SwFaultKind; 6] = [
        SwFaultKind::DestValue,
        SwFaultKind::DestValueLoad,
        SwFaultKind::SrcTransient,
        SwFaultKind::SrcPersistent,
        SwFaultKind::ArchState,
        SwFaultKind::DestClass(vgpu_arch::InstrClass::IntAlu),
    ];

    /// `kernel` run with `fault` as a block and one instruction at a time:
    /// registers, predicates, statistics, memory and injector agree.
    fn assert_block_matches_per_instruction(
        kernel: &Kernel,
        init_mask: u32,
        fault: crate::fault::SwFault,
    ) -> (SwInjector, WarpRun) {
        let (mut m1, mut m256) = (block_mem(), block_mem());
        let (mut i1, mut i256) = (SwInjector::new(fault), SwInjector::new(fault));
        let one = run_to_end(kernel, &[256, 512], &mut m1, init_mask, 1, Some(&mut i1));
        let block = run_to_end(
            kernel,
            &[256, 512],
            &mut m256,
            init_mask,
            256,
            Some(&mut i256),
        );
        let what = format!("{fault:?} mask {init_mask:#x}");
        assert_eq!(block, one, "{what}");
        assert_eq!(m256, m1, "{what}");
        assert_eq!(
            (i256.counter, i256.applied, i256.stuck),
            (i1.counter, i1.applied, i1.stuck),
            "{what}"
        );
        (i256, block)
    }

    #[test]
    fn a_sw_target_anywhere_in_a_block_fires_as_one_instruction_at_a_time_would() {
        // Every eligible lane of every instruction, so targets on the
        // first, middle and last instruction of the block, under a full
        // and a partial warp, with guards that split each.
        let k = block_kernel();
        for init_mask in [u32::MAX, 0x0ff0_f00f] {
            let golden = run_to_end(&k, &[256, 512], &mut block_mem(), init_mask, 256, None);
            for kind in KINDS {
                let eligible = kind.eligible(&golden.stats);
                assert!(eligible > 0, "{kind:?}");
                for target in 0..eligible + 2 {
                    for pattern in [FaultPattern::SingleBit, FaultPattern::WholeEntry] {
                        let fault = crate::fault::SwFault {
                            kind,
                            target,
                            bit: (target % 32) as u8,
                            loc_pick: target * 7,
                            pattern,
                        };
                        let (inj, run) = assert_block_matches_per_instruction(&k, init_mask, fault);
                        assert_eq!(inj.applied, target < eligible, "{fault:?}");
                        if run.end.is_ok() {
                            assert_eq!(inj.counter, eligible, "{fault:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_stuck_at_warp_runs_as_one_instruction_at_a_time_would() {
        // The cell is pinned after every later instruction of the warp,
        // also the ones that write it.
        let k = block_kernel();
        let golden = run_to_end(&k, &[256, 512], &mut block_mem(), u32::MAX, 256, None);
        for kind in KINDS {
            let eligible = kind.eligible(&golden.stats);
            for target in [0, eligible / 3, eligible / 2, eligible - 1] {
                for pattern in [FaultPattern::StuckAt0, FaultPattern::StuckAt1] {
                    let fault = crate::fault::SwFault {
                        kind,
                        target,
                        bit: 3,
                        loc_pick: 2,
                        pattern,
                    };
                    let (inj, _) = assert_block_matches_per_instruction(&k, u32::MAX, fault);
                    assert!(inj.stuck.is_some(), "{fault:?}");
                }
            }
        }
    }

    #[test]
    fn a_transient_source_fault_stays_in_a_register_its_instruction_overwrote() {
        // `r1 = r1 + r4` reads and writes r1: the flipped source is
        // consumed and the result is not flipped back.
        let k = block_kernel();
        let pc = k
            .instrs()
            .iter()
            .position(|i| matches!(i.op, Op::IAdd { d, a, .. } if d == a))
            .unwrap();
        // Of the source readers before it, the two guarded ones split the
        // warp 20 / 12 and the others take all 32 lanes.
        let readers = k.ops()[..pc].iter().filter(|o| o.facts().reads_src).count() as u64;
        let target = (readers - 1) * 32 + 5;
        let fault = crate::fault::SwFault {
            kind: SwFaultKind::SrcTransient,
            target,
            bit: 4,
            loc_pick: 0,
            pattern: FaultPattern::SingleBit,
        };
        let (inj, run) = assert_block_matches_per_instruction(&k, u32::MAX, fault);
        assert!(inj.applied);
        let golden = run_to_end(&k, &[256, 512], &mut block_mem(), u32::MAX, 256, None);
        let r1 = |r: &WarpRun, lane| r.regs[reg_idx(Reg(1), lane)];
        assert_eq!(
            r1(&run, 5),
            r1(&golden, 5) ^ 1 << 4,
            "lane 5 keeps the flip"
        );
        assert_eq!(r1(&run, 6), r1(&golden, 6), "lane 6 is untouched");
    }

    #[test]
    fn a_due_mid_block_leaves_the_statistics_of_the_per_instruction_path() {
        // Lanes 0..20 load from the input, lanes 20.. from an unmapped
        // word: the load raises the DUE in the middle of the block, after
        // a guarded instruction, with ALU ops after it never counted.
        let mut a = KernelBuilder::new("due");
        let (lane, addr, v) = (a.reg(), a.reg(), a.reg());
        let p = a.pred();
        a.s2r(lane, SpecialReg::LaneId);
        a.isetp(p, lane, 20u32, CmpOp::Lt, true);
        a.mov(addr, a.param(0));
        a.predicated(p, true, |a| a.mov(addr, 0x2000u32));
        a.iscadd(addr, lane, Operand::Reg(addr), 2);
        a.ld(v, MemSpace::Global, addr, 0);
        a.iadd(v, v, 1u32);
        a.st(MemSpace::Global, addr, 0, v);
        let k = a.build().unwrap();
        let fault = crate::fault::SwFault {
            kind: SwFaultKind::DestValue,
            target: 1_000,
            bit: 0,
            loc_pick: 0,
            pattern: FaultPattern::SingleBit,
        };
        let (inj, run) = assert_block_matches_per_instruction(&k, u32::MAX, fault);
        assert_eq!(
            run.end,
            Err(DueKind::IllegalAddress {
                addr: 0x2000 + 4 * 20
            })
        );
        // s2r, isetp, mov, @!p mov (12 lanes), iscadd, ld: counted.
        let s = run.stats;
        assert_eq!(s.warp_instrs, 6);
        assert_eq!(s.thread_instrs, 5 * 32 + 12);
        assert_eq!(s.gp_dest_instrs, 4 * 32 + 12);
        assert_eq!(s.load_instrs, 32);
        assert_eq!(s.store_instrs, 0);
        assert_eq!(inj.counter, s.gp_dest_instrs);
    }

    /// Global memory that only records the register rows the probe hook
    /// reports: `(row, mask, write)`.
    #[derive(Default)]
    struct RowLog(Vec<(usize, u32, bool)>);

    impl GMem for RowLog {
        fn load(
            &mut self,
            _: bool,
            _: u32,
            _: &Row,
            _: &mut Row,
            _: &mut Stats,
        ) -> Result<u64, DueKind> {
            unreachable!("the kernel does not load")
        }

        fn store(&mut self, _: u32, _: &Row, _: &Row, _: &mut Stats) -> Result<u64, DueKind> {
            unreachable!("the kernel does not store")
        }

        fn probed(&self) -> bool {
            true
        }

        fn probe_reg(&mut self, row: usize, mask: u32, write: bool) {
            self.0.push((row, mask, write));
        }
    }

    #[test]
    fn the_probe_hears_each_register_operand_once_as_a_row() {
        // `@!p r1 = r1 + r4` with p set on lanes 4..8: the operands are
        // reported in program order, sources first, each as one row under
        // the lanes the guard let through.
        let mut a = KernelBuilder::new("rows");
        let (lane, r1, quad, _, r4) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
        let p = a.pred();
        a.s2r(lane, SpecialReg::LaneId);
        a.shr(quad, lane, 2u32);
        a.isetp(p, quad, 1u32, CmpOp::Eq, false);
        a.predicated(p, true, |a| a.iadd(r1, r1, Operand::Reg(r4)));
        let k = a.build().unwrap();
        let mut w = Warp::new(0, 0, 0, u32::MAX, 0);
        let mut regs = vec![0u32; k.num_regs as usize * WARP_SIZE];
        let (mut smem, mut stats, mut log) = (vec![0u32; 1], Stats::default(), RowLog::default());
        let mut ctx = ExecCtx {
            kernel: &k,
            params: &[],
            ntid: 32,
            nctaid: 1,
            regs: &mut regs,
            smem: &mut smem,
            mem: &mut log,
            stats: &mut stats,
            sw: None,
            max_stack: 64,
        };
        assert_eq!(run_warp(&mut w, &mut ctx, 256), Ok(StepEvent::Done));
        let row = |r: Reg| reg_idx(r, 0);
        let (all, guarded) = (u32::MAX, 0xFFFF_FF0F);
        assert_eq!(
            log.0,
            [
                (row(lane), all, true),
                (row(lane), all, false),
                (row(quad), all, true),
                (row(quad), all, false),
                (row(r1), guarded, false),
                (row(r4), guarded, false),
                (row(r1), guarded, true),
            ]
        );
    }
}
