//! The cycle-level engine: SMs, CTA occupancy limits, greedy-then-oldest
//! warp scheduling, latency stalling, MSHR-backed caches, and
//! microarchitecture-level fault application at a chosen cycle.
//!
//! Timing model: one instruction issues per SM per cycle; a warp that
//! issues is busy until its instruction's latency elapses. Idle stretches
//! are fast-forwarded to the next readiness event (clamped to the pending
//! fault cycle so injections land at the exact requested cycle).

use crate::cache::{load_warp, store_warp, AccessCtx, Cache};
use crate::config::{GpuConfig, Latencies};
use crate::due::{DueKind, LaunchAbort};
use crate::exec::{run_warp, ExecCtx, GMem, IssueClass, StepEvent};
use crate::fault::{
    apply_stuck, resolve_site, value_mask, HwStructure, StuckCache, StuckSite, SwInjector,
    UarchInjector,
};
use crate::mem::{DirtyMap, GlobalMem};
use crate::probe::{LaunchGeometry, Probe};
use crate::snapshot::{Capture, ChunkStore, ConvergeWith, Machine, Scope, SnapId, Walk};
use crate::stats::Stats;
use crate::warp::Warp;
use vgpu_arch::{Decoded, Kernel, LaunchConfig, WARP_SIZE};

/// Timed global-memory interface: coalesces a warp's lane accesses into
/// line accesses against the L1/L2 hierarchy.
struct TimedGMem<'a> {
    l1d: &'a mut Cache,
    l1t: &'a mut Cache,
    l2: &'a mut Cache,
    mem: &'a mut GlobalMem,
    lat: &'a Latencies,
    now: u64,
    /// The probe of an instrumented fault-free run, plus the coordinates
    /// translating this step's warp-local register / CTA-local
    /// shared-memory indices to words of the SM's arrays.
    probe: Option<&'a mut Probe>,
    sm: usize,
    rf_base: usize,
    smem_base: usize,
}

impl TimedGMem<'_> {
    /// This SM's L1D and L1T, and the context of an access through either
    /// that counts into `stats`.
    fn split<'s>(
        &'s mut self,
        stats: &'s mut Stats,
    ) -> (&'s mut Cache, &'s mut Cache, AccessCtx<'s>) {
        let cx = AccessCtx {
            probe: self.probe.as_deref_mut(),
            sm: self.sm,
            ..AccessCtx::new(self.l2, self.mem, self.now, self.lat, stats)
        };
        (self.l1d, self.l1t, cx)
    }
}

impl GMem for TimedGMem<'_> {
    const TIMED: bool = true;

    fn load(
        &mut self,
        tex: bool,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
        stats: &mut Stats,
    ) -> Result<u64, DueKind> {
        self.mem.check_warp(mask, addrs)?;
        let (l1d, l1t, mut cx) = self.split(stats);
        let (l1, h) = if tex {
            (l1t, HwStructure::L1T)
        } else {
            (l1d, HwStructure::L1D)
        };
        Ok(load_warp(l1, h, mask, addrs, out, &mut cx))
    }

    fn store(
        &mut self,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
        stats: &mut Stats,
    ) -> Result<u64, DueKind> {
        self.mem.check_warp(mask, addrs)?;
        let (l1d, _, mut cx) = self.split(stats);
        Ok(store_warp(l1d, mask, addrs, vals, &mut cx))
    }

    fn probed(&self) -> bool {
        self.probe.is_some()
    }

    /// One event per run of consecutive lanes in `mask`, ascending: a
    /// `Range` of its words, or an `Access` for a lone lane.
    fn probe_reg(&mut self, row: usize, mask: u32, write: bool) {
        if let Some(p) = self.probe.as_deref_mut() {
            let row = (self.rf_base + row) as u64;
            for (lane, len) in lane_runs(mask) {
                let word = row + u64::from(lane);
                if len == 1 {
                    p.access(HwStructure::RegFile, self.sm, word, self.now, write);
                } else {
                    p.range(HwStructure::RegFile, self.sm, word, len, self.now, write);
                }
            }
        }
    }

    fn probe_smem(&mut self, word: usize, write: bool) {
        if let Some(p) = self.probe.as_deref_mut() {
            let word = (self.smem_base + word) as u64;
            p.access(HwStructure::Smem, self.sm, word, self.now, write);
        }
    }
}

/// The memory of deferred pure ops ([`materialize`]), which touch none.
struct NoMem;

impl GMem for NoMem {
    fn load(
        &mut self,
        _: bool,
        _: u32,
        _: &[u32; WARP_SIZE],
        _: &mut [u32; WARP_SIZE],
        _: &mut Stats,
    ) -> Result<u64, DueKind> {
        unreachable!("a pure op loads nothing")
    }

    fn store(
        &mut self,
        _: u32,
        _: &[u32; WARP_SIZE],
        _: &[u32; WARP_SIZE],
        _: &mut Stats,
    ) -> Result<u64, DueKind> {
        unreachable!("a pure op stores nothing")
    }
}

/// The runs of consecutive set bits of `mask`, ascending, as
/// `(first lane, lanes)`.
fn lane_runs(mut mask: u32) -> impl Iterator<Item = (u32, u32)> {
    std::iter::from_fn(move || {
        let lane = mask.trailing_zeros();
        // An empty mask has 32 trailing zeros, a shift that ends the runs.
        let len = mask.checked_shr(lane)?.trailing_ones();
        // Adding the lowest set bit carries through the run, clearing it.
        mask &= mask.wrapping_add(mask & mask.wrapping_neg());
        Some((lane, len))
    })
}

/// One CTA resident on an SM.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CtaSlot {
    warps_running: u32,
    arrived: u32,
}

/// Per-SM state. The register file and shared memory are allocated once
/// per [`Machine`] and outlive launches — a launch only ever reads the
/// ranges of CTA slots it filled itself ([`launch_cta`] zeroes them) — the
/// rest is rebuilt per launch.
#[derive(Debug)]
pub(crate) struct SmState {
    rf: Vec<u32>,
    smem: Vec<u32>,
    slots: Vec<Option<CtaSlot>>,
    warps: Vec<Option<Warp>>,
    /// Index of the warp issued last cycle (greedy-then-oldest policy).
    last: Option<usize>,
    /// Derived from `warps`, so never captured or compared: bit `wi` is
    /// set iff warp slot `wi` holds a warp ([`launch_cta`] sets it, `Done`
    /// clears it, [`SmState::load_scalars`] rebuilds it).
    occupied: u64,
    /// Derived too, the scheduler's view of `warps` (docs/PERF.md): warp
    /// slot `wi`'s `ready_at`, or `u64::MAX` for an empty slot or a warp
    /// at a barrier ([`SmState::schedule`], [`SmState::unschedule`])…
    issue_at: Vec<u64>,
    /// … the warps whose `issue_at` the last [`SmState::pick`] found come…
    ready: u64,
    /// … the other occupied warps not at a barrier…
    pending: u64,
    /// … and the live CTA slots in launch order, which is `seq` order: a
    /// CTA's warps take consecutive `seq`s.
    order: Vec<usize>,
    /// Warps per CTA slot of the current launch.
    wpc: usize,
    /// The earliest `issue_at` of a `pending` warp (`u64::MAX` if none) —
    /// exactly, or any value not after the cycle it was set in, which
    /// sends the next [`SmState::pick`] to rescan `pending`. With `ready`
    /// empty, as on every idle advance, it is the earliest cycle at which
    /// an occupied warp that is not at a barrier can issue. A `SchedReady`
    /// fault, which changes readiness behind the scheduler's back, sets it
    /// to 0.
    wake: u64,
    /// Granules of `rf` / `smem` written since the last snapshot
    /// synchronisation …
    rf_dirty: DirtyMap,
    smem_dirty: DirtyMap,
    /// … plus what the issue loop has not folded into them yet
    /// ([`fold_issue_marks`]): bit `wi` for a warp that issued (its
    /// register block may have changed), bit `slot` for a CTA slot whose
    /// shared memory may have.
    issued: u64,
    smem_issued: u64,
    /// Per warp slot, the pure ops issued but not yet run (docs/PERF.md,
    /// *Issue now, execute later*): those from the top entry's pc on, in
    /// program order. All zero whenever the machine is observed
    /// ([`materialize`]), so never captured or compared.
    lazy: Vec<u32>,
}

/// The part of an [`SmState`] a mid-launch snapshot keeps verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SmScalars {
    slots: Vec<Option<CtaSlot>>,
    warps: Vec<Option<Warp>>,
    last: Option<usize>,
}

impl SmState {
    pub(crate) fn new(cfg: &GpuConfig) -> Self {
        let (rf_words, smem_words) = (
            cfg.rf_regs_per_sm as usize,
            cfg.smem_bytes_per_sm as usize / 4,
        );
        SmState {
            rf: vec![0; rf_words],
            smem: vec![0; smem_words],
            slots: Vec::new(),
            warps: Vec::new(),
            last: None,
            occupied: 0,
            issue_at: Vec::new(),
            ready: 0,
            pending: 0,
            order: Vec::new(),
            wpc: 1,
            wake: u64::MAX,
            rf_dirty: DirtyMap::new(rf_words * 4),
            smem_dirty: DirtyMap::new(smem_words * 4),
            issued: 0,
            smem_issued: 0,
            lazy: Vec::new(),
        }
    }

    /// Empty `slots_per_sm` CTA slots of `wpc` warps each.
    fn begin_launch(&mut self, g: &Geometry) {
        self.slots.clear();
        self.slots.resize(g.slots_per_sm as usize, None);
        self.warps.clear();
        self.warps.resize((g.slots_per_sm * g.wpc) as usize, None);
        self.last = None;
        self.occupied = 0;
        self.issue_at.clear();
        self.issue_at.resize(self.warps.len(), u64::MAX);
        self.lazy.clear();
        self.lazy.resize(self.warps.len(), 0);
        (self.ready, self.pending) = (0, 0);
        self.order.clear();
        self.wpc = g.wpc as usize;
        self.wake = u64::MAX;
    }

    pub(crate) fn scalars(&self) -> SmScalars {
        SmScalars {
            slots: self.slots.clone(),
            warps: self.warps.clone(),
            last: self.last,
        }
    }

    pub(crate) fn load_scalars(&mut self, s: &SmScalars) {
        self.slots.clone_from(&s.slots);
        self.warps.clone_from(&s.warps);
        self.last = s.last;
        self.wpc = self.warps.len() / self.slots.len();
        (self.occupied, self.ready, self.pending) = (0, 0, 0);
        self.wake = u64::MAX;
        self.issue_at.clear();
        self.issue_at.resize(self.warps.len(), u64::MAX);
        self.lazy.clear();
        self.lazy.resize(self.warps.len(), 0);
        for wi in 0..self.warps.len() {
            if let Some(w) = &self.warps[wi] {
                self.occupied |= 1 << wi;
                if !w.at_barrier {
                    self.schedule(wi, w.ready_at);
                }
            }
        }
        let first_seq = |slot: usize| {
            let warps = &self.warps[slot * self.wpc..(slot + 1) * self.wpc];
            warps.iter().flatten().map(|w| w.seq).next()
        };
        let mut order: Vec<usize> = (0..self.slots.len())
            .filter(|&slot| self.slots[slot].is_some())
            .collect();
        order.sort_by_key(|&slot| first_seq(slot));
        self.order = order;
    }

    /// Warp `wi` competes again from cycle `at` on: it issued, arrived, or
    /// left a barrier.
    fn schedule(&mut self, wi: usize, at: u64) {
        self.issue_at[wi] = at;
        self.ready &= !(1 << wi);
        self.pending |= 1 << wi;
        self.wake = self.wake.min(at);
    }

    /// Warp `wi` stops competing: it waits at a barrier or retired.
    fn unschedule(&mut self, wi: usize) {
        self.issue_at[wi] = u64::MAX;
        self.ready &= !(1 << wi);
        self.pending &= !(1 << wi);
    }

    /// The greedy-then-oldest pick at `cycle`: the warp issued last cycle
    /// if it is ready again, else the oldest ready warp — the lowest ready
    /// bit of the first slot in `order` that has one. Pending warps whose
    /// cycle has come move to `ready` only when `wake` says one has; with
    /// nothing ready, forgets the greedy warp.
    fn pick(&mut self, cycle: u64) -> Option<usize> {
        #[cfg(debug_assertions)]
        let scan = self.pick_by_scan(cycle);
        if self.wake <= cycle {
            // Branch-free: which warps come due is data, not control flow.
            let (mut due, mut next) = (0u64, u64::MAX);
            for wi in bits(self.pending) {
                let at = self.issue_at[wi];
                due |= u64::from(at <= cycle) << wi;
                next = next.min(if at <= cycle { u64::MAX } else { at });
            }
            self.ready |= due;
            self.pending &= !due;
            self.wake = next;
        }
        let slot_warps = u64::MAX >> (u64::BITS as usize - self.wpc);
        let picked = match self.last {
            _ if self.ready == 0 => None,
            Some(wi) if self.ready >> wi & 1 == 1 => Some(wi),
            _ => self.order.iter().find_map(|&slot| {
                let m = self.ready & slot_warps << (slot * self.wpc);
                (m != 0).then(|| m.trailing_zeros() as usize)
            }),
        };
        if picked.is_none() {
            self.last = None;
        }
        #[cfg(debug_assertions)]
        {
            assert_eq!(picked, scan.0, "pick disagrees with the scan at {cycle}");
            assert!(picked.is_some() || self.wake == scan.1, "inexact wake");
        }
        picked
    }

    /// The pick by brute force over `warps`, and the earliest `ready_at`
    /// after `cycle` of a warp not at a barrier: what [`SmState::pick`]
    /// must agree with.
    #[cfg(debug_assertions)]
    fn pick_by_scan(&self, cycle: u64) -> (Option<usize>, u64) {
        let live = || {
            let warps = self.warps.iter().enumerate();
            warps.filter_map(|(wi, w)| w.as_ref().filter(|w| !w.at_barrier).map(|w| (wi, w)))
        };
        let ready = live().filter(|(_, w)| w.ready_at <= cycle);
        let picked = match self.last {
            Some(wi) if ready.clone().any(|(r, _)| r == wi) => Some(wi),
            _ => ready.min_by_key(|(_, w)| w.seq).map(|(wi, _)| wi),
        };
        let wake = live().map(|(_, w)| w.ready_at).filter(|&r| r > cycle).min();
        (picked, wake.unwrap_or(u64::MAX))
    }

    /// Release the barrier of CTA slot `slot`.
    fn release_barrier(&mut self, slot: usize) {
        self.slots[slot].as_mut().expect("slot live").arrived = 0;
        for wi in slot * self.wpc..(slot + 1) * self.wpc {
            if let Some(w) = self.warps[wi].as_mut() {
                w.at_barrier = false;
                let at = w.ready_at;
                self.schedule(wi, at);
            }
        }
    }

    /// Append the register file and shared memory to a snapshot being
    /// captured (the order [`SmState::restore`] and [`SmState::same`]
    /// walk in).
    pub(crate) fn capture(&self, cap: &mut Capture<'_>) {
        self.assert_observable();
        cap.array(&self.rf, &self.rf_dirty, 4);
        cap.array(&self.smem, &self.smem_dirty, 4);
    }

    pub(crate) fn restore(&mut self, w: &mut Walk<'_>) {
        self.assert_observable();
        w.restore(&mut self.rf, &self.rf_dirty, 4);
        w.restore(&mut self.smem, &self.smem_dirty, 4);
        self.clear_dirty();
    }

    /// What holds whenever the SM is captured, restored or compared: the
    /// issue marks folded and no pure op left to run.
    fn assert_observable(&self) {
        debug_assert_eq!(self.issued | self.smem_issued, 0, "unfolded issue marks");
        debug_assert!(self.lazy.iter().all(|&n| n == 0), "deferred ops not run");
    }

    pub(crate) fn clear_dirty(&mut self) {
        self.rf_dirty.clear();
        self.smem_dirty.clear();
    }

    /// Equality with the snapshot `w` walks: warp and slot state must
    /// match the mid-launch scalars `s`, if the snapshot has them; RF and
    /// SMEM must match in the live CTA slots of `live_slots` — `(regs,
    /// shared-memory words)` per slot; a free slot's words are zeroed on
    /// reuse — or, without it, bit for bit.
    pub(crate) fn same(
        &self,
        w: &mut Walk<'_>,
        s: Option<&SmScalars>,
        live_slots: Option<(usize, usize)>,
    ) -> bool {
        self.assert_observable();
        if s.is_some_and(|s| self.last != s.last || self.slots != s.slots || self.warps != s.warps)
        {
            return false;
        }
        let live = |per_slot: Option<usize>| {
            move |i: usize| {
                per_slot.is_none_or(|n| self.slots.get(i / n).is_some_and(Option::is_some))
            }
        };
        w.same(&self.rf, &self.rf_dirty, 4, live(live_slots.map(|l| l.0)))
            && w.same(
                &self.smem,
                &self.smem_dirty,
                4,
                live(live_slots.map(|l| l.1)),
            )
    }
}

/// The state of one launch beyond the [`Machine`]: [`run_timed_ctl`] holds
/// one for the whole launch, a mid-launch snapshot keeps a copy, and a
/// resume starts from the snapshot's copy. Together with the machine
/// (device state, RF/SMEM, warp and slot state) it suffices to continue a
/// launch bit-identically from `stats.cycles`. `stats` is the one home of
/// the launch's counters, counted from its first cycle: the executor, the
/// cache hierarchy and the clock all count into it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LaunchScalars {
    pub(crate) next_cta: u64,
    pub(crate) done_ctas: u64,
    pub(crate) seq: u64,
    pub(crate) stats: Stats,
}

/// Everything a mid-launch snapshot keeps verbatim beyond the caches'
/// own scalars.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct EngineScalars {
    pub(crate) sms: Vec<SmScalars>,
    pub(crate) launch: LaunchScalars,
}

impl EngineScalars {
    pub(crate) fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let per_sm = |sm: &SmScalars| {
            sm.slots.capacity() * size_of::<Option<CtaSlot>>()
                + sm.warps.capacity() * size_of::<Option<Warp>>()
                + sm.warps
                    .iter()
                    .flatten()
                    .map(|w| w.stack.capacity() * size_of::<crate::warp::StackEntry>())
                    .sum::<usize>()
        };
        (self.sms.capacity() * size_of::<SmScalars>() + self.sms.iter().map(per_sm).sum::<usize>())
            as u64
    }
}

/// Snapshot / resume / convergence controls for [`run_timed_ctl`]. The
/// empty value ([`TimedCtl::none`]) runs a plain launch from cycle 0.
pub(crate) struct TimedCtl<'a> {
    /// Cycles (sorted ascending) at which to capture a snapshot, and the
    /// store to capture into.
    pub(crate) capture: Option<(&'a [u64], &'a mut ChunkStore)>,
    /// Snapshots captured this run, in cycle order.
    pub(crate) captured: Vec<SnapId>,
    /// Start mid-launch from this snapshot instead of from cycle 0.
    pub(crate) resume: Option<(&'a ChunkStore, SnapId)>,
    /// Golden reference (snapshots of the `resume` store) enabling the
    /// early masked-convergence exit.
    pub(crate) converge: Option<ConvergeWith<'a>>,
    /// Cycle at which the run exited early through the convergence check.
    pub(crate) converged_at: Option<u64>,
    /// Cycles actually simulated (exit cycle − start cycle).
    pub(crate) simulated_cycles: u64,
    /// Bytes the restore to `resume` copied.
    pub(crate) restored_bytes: u64,
}

impl<'a> TimedCtl<'a> {
    pub(crate) fn none() -> TimedCtl<'a> {
        TimedCtl {
            capture: None,
            captured: Vec::new(),
            resume: None,
            converge: None,
            converged_at: None,
            simulated_cycles: 0,
            restored_bytes: 0,
        }
    }
}

/// Per-launch geometry derived from the kernel and launch config.
struct Geometry {
    wpc: u32,
    regs_per_warp: u32,
    regs_per_cta: u32,
    smem_words_per_cta: u32,
    slots_per_sm: u32,
}

impl Geometry {
    /// The geometry as the probe stream and the fault-site resolver see it.
    fn launch(&self, lc: &LaunchConfig) -> LaunchGeometry {
        LaunchGeometry {
            warps_per_cta: self.wpc,
            regs_per_cta: self.regs_per_cta,
            smem_words_per_cta: self.smem_words_per_cta,
            slots_per_sm: self.slots_per_sm,
            total_ctas: lc.num_ctas() as u32,
        }
    }
}

fn geometry(cfg: &GpuConfig, kernel: &Kernel, lc: &LaunchConfig) -> Geometry {
    let wpc = lc.warps_per_cta();
    let regs_per_warp = kernel.num_regs as u32 * WARP_SIZE as u32;
    let regs_per_cta = wpc * regs_per_warp;
    let smem_words_per_cta = (kernel.smem_bytes / 4).max(1);
    let by_threads = cfg.max_threads_per_sm / (wpc * WARP_SIZE as u32);
    let by_rf = cfg.rf_regs_per_sm / regs_per_cta;
    let by_smem = (cfg.smem_bytes_per_sm / 4) / smem_words_per_cta;
    let slots_per_sm = cfg.max_ctas_per_sm.min(by_threads).min(by_rf).min(by_smem);
    assert!(
        slots_per_sm >= 1,
        "kernel {} exceeds SM limits (block {}, regs {}, smem {}B)",
        kernel.name,
        lc.block_x,
        kernel.num_regs,
        kernel.smem_bytes
    );
    assert!(
        slots_per_sm * wpc <= u64::BITS,
        "more resident warps per SM than the issue-mark bitmask holds"
    );
    Geometry {
        wpc,
        regs_per_warp,
        regs_per_cta,
        smem_words_per_cta,
        slots_per_sm,
    }
}

/// Place CTA `lin` into `slot` of `sm` (SM index `smi`) at cycle `t`.
/// `initial` marks the pre-cycle-0 prefill (occupied from cycle 0), as
/// opposed to a mid-run refill during cycle `t`'s retire stage (occupied
/// from `t + 1`).
#[allow(clippy::too_many_arguments)]
fn launch_cta(
    sm: &mut SmState,
    slot: usize,
    lin: u64,
    lc: &LaunchConfig,
    g: &Geometry,
    seq: &mut u64,
    smi: usize,
    t: u64,
    initial: bool,
    probe: Option<&mut Probe>,
) {
    let ctaid_x = (lin % lc.grid_x as u64) as u32;
    let ctaid_y = (lin / lc.grid_x as u64) as u32;
    let rf_base = slot * g.regs_per_cta as usize;
    sm.rf_dirty
        .mark_range(rf_base as u32 * 4, g.regs_per_cta * 4);
    sm.rf[rf_base..rf_base + g.regs_per_cta as usize].fill(0);
    let sm_base = slot * g.smem_words_per_cta as usize;
    sm.smem_dirty
        .mark_range(sm_base as u32 * 4, g.smem_words_per_cta * 4);
    sm.smem[sm_base..sm_base + g.smem_words_per_cta as usize].fill(0);
    if let Some(p) = probe {
        // The zero-fill writes both partitions whole.
        p.range(
            HwStructure::RegFile,
            smi,
            rf_base as u64,
            g.regs_per_cta,
            t,
            true,
        );
        p.range(
            HwStructure::Smem,
            smi,
            sm_base as u64,
            g.smem_words_per_cta,
            t,
            true,
        );
        p.slot_fill(smi, slot, t, initial);
    }
    for wi in 0..g.wpc {
        let first_thread = wi * WARP_SIZE as u32;
        let lanes = (lc.block_x - first_thread).min(WARP_SIZE as u32);
        let mask = if lanes >= 32 {
            u32::MAX
        } else {
            (1u32 << lanes) - 1
        };
        let w = Warp::new(ctaid_x, ctaid_y, wi, mask, *seq);
        *seq += 1;
        let idx = slot * g.wpc as usize + wi as usize;
        sm.warps[idx] = Some(w);
        sm.occupied |= 1 << idx;
        // The new warps are ready at once.
        sm.schedule(idx, 0);
    }
    sm.slots[slot] = Some(CtaSlot {
        warps_running: g.wpc,
        arrived: 0,
    });
    sm.order.push(slot);
}

/// The indices of the set bits of `m`, ascending.
fn bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = (m != 0).then(|| m.trailing_zeros() as usize)?;
        m &= m - 1;
        Some(i)
    })
}

/// Fold the issue loop's per-warp / per-slot marks into the RF and SMEM
/// dirty maps. The loop sets one bit per issue instead of marking granule
/// ranges; whoever is about to consult the maps (capture, convergence
/// compare) or leave the launch folds first.
fn fold_issue_marks(sms: &mut [SmState], g: &Geometry) {
    for sm in sms {
        for wi in bits(std::mem::take(&mut sm.issued)) {
            // Warp `wi` is warp `wi % wpc` of slot `wi / wpc`, so its
            // register block starts `wi` blocks into the file.
            sm.rf_dirty
                .mark_range(wi as u32 * g.regs_per_warp * 4, g.regs_per_warp * 4);
        }
        for slot in bits(std::mem::take(&mut sm.smem_issued)) {
            let words = g.smem_words_per_cta;
            sm.smem_dirty.mark_range(slot as u32 * words * 4, words * 4);
        }
    }
}

/// The warp's next instruction if its issue may be deferred: a pure op
/// ([`vgpu_arch::Tag::is_pure`]) `lazy` ops past the top entry's pc, run
/// by live lanes before the entry's reconvergence pc — in the block the
/// deferred ops began, so [`run_warp`] can run them all as one.
fn deferrable<'k>(w: &Warp, lazy: u32, ops: &'k [Decoded]) -> Option<&'k Decoded> {
    let top = w.stack.last()?;
    let pc = top.pc + lazy;
    let op = ops.get(pc as usize)?;
    (op.tag.is_pure() && pc < top.rpc && top.mask & !w.exited != 0).then_some(op)
}

/// Run every warp's deferred pure ops, each warp's as one block, before
/// anything observes the machine: a snapshot capture, a convergence
/// compare, a fault landing, the end of the launch.
fn materialize(
    sms: &mut [SmState],
    g: &Geometry,
    kernel: &Kernel,
    lc: &LaunchConfig,
    max_stack: usize,
    stats: &mut Stats,
) {
    let rpw = g.regs_per_warp as usize;
    for sm in sms {
        for wi in 0..sm.lazy.len() {
            let n = std::mem::take(&mut sm.lazy[wi]);
            if n == 0 {
                continue;
            }
            let warp = sm.warps[wi].as_mut().expect("a warp with deferred ops");
            let mut ctx = ExecCtx {
                kernel,
                params: &lc.params,
                ntid: lc.block_x,
                nctaid: lc.grid_x,
                regs: &mut sm.rf[wi * rpw..(wi + 1) * rpw],
                smem: &mut [],
                mem: &mut NoMem,
                stats: &mut *stats,
                sw: None,
                max_stack,
            };
            let ran = run_warp(warp, &mut ctx, n);
            debug_assert!(matches!(ran, Ok(StepEvent::Issued(_))), "{ran:?}");
        }
    }
}

/// Apply a pending microarchitecture fault to the live machine state.
///
/// [`resolve_site`] names the physical words and masks of a fault in a
/// storage structure — the seed location drawn exactly as in the
/// single-bit model (`loc_pick % population`), expanded by the fault's
/// [`FaultPattern`]; a control-state fault hits one live warp. Transient
/// patterns XOR their masks once; stuck-at patterns force the masked bits
/// and pin the resolved physical sites in `inj.stuck`, which the engine
/// re-forces on every simulation step until launch end.
///
/// [`FaultPattern`]: crate::fault::FaultPattern
fn apply_uarch(
    inj: &mut UarchInjector,
    sms: &mut [SmState],
    l1ds: &mut [Cache],
    l1ts: &mut [Cache],
    l2: &mut Cache,
    g: &LaunchGeometry,
    cfg: &GpuConfig,
) {
    inj.applied = true;
    let structure = inj.fault.structure;
    let occupied = |sm: usize, slot: usize| sms[sm].slots[slot].is_some();
    let sites: Vec<StuckSite> = if let Some(site) = resolve_site(&inj.fault, g, cfg, occupied) {
        inj.population = site.population;
        let sm = site.inst;
        let physical = |(e, mask): (u64, u32)| {
            let byte = |cache| StuckSite::CacheByte {
                cache,
                byte: e,
                mask: mask as u8,
            };
            let idx = e as usize;
            match structure {
                HwStructure::RegFile => StuckSite::RfWord { sm, idx, mask },
                HwStructure::Smem => StuckSite::SmemWord { sm, idx, mask },
                HwStructure::L1D => byte(StuckCache::L1d(sm)),
                HwStructure::L1T => byte(StuckCache::L1t(sm)),
                _ => byte(StuckCache::L2),
            }
        };
        site.footprint.into_iter().map(physical).collect()
    } else {
        // Parallelism-management state: target one live warp, chosen
        // uniformly over the resident not-yet-retired warps.
        let live = || {
            sms.iter().enumerate().flat_map(|(smi, sm)| {
                let warps = sm.warps.iter().enumerate();
                warps
                    .filter(|(_, w)| w.as_ref().is_some_and(|w| !w.done))
                    .map(move |(wi, _)| (smi, wi))
            })
        };
        inj.population = live().count() as u64;
        if inj.population == 0 {
            return;
        }
        let (sm, warp) = live()
            .nth((inj.fault.loc_pick % inj.population) as usize)
            .expect("the target is inside the population");
        let mask = value_mask(inj.fault.pattern, inj.fault.bit);
        let stack_empty = sms[sm].warps[warp]
            .as_ref()
            .is_some_and(|w| w.stack.is_empty());
        match structure {
            HwStructure::Simt if stack_empty => Vec::new(),
            HwStructure::Simt => vec![StuckSite::SimtMask { sm, warp, mask }],
            _ => vec![StuckSite::SchedReady { sm, warp, mask }],
        }
    };
    let stuck = inj.stuck_value();
    for &site in &sites {
        disturb(site, stuck, sms, l1ds, l1ts, l2);
    }
    if stuck.is_some() {
        inj.stuck = sites;
    }
}

/// XOR the masked bits of one physical site (a transient), or force them
/// to `stuck`.
fn disturb(
    site: StuckSite,
    stuck: Option<bool>,
    sms: &mut [SmState],
    l1ds: &mut [Cache],
    l1ts: &mut [Cache],
    l2: &mut Cache,
) {
    let hit = |word: u32, mask: u32| match stuck {
        Some(v) => apply_stuck(word, mask, v),
        None => word ^ mask,
    };
    match site {
        StuckSite::RfWord { sm, idx, mask } => {
            sms[sm].rf_dirty.mark(idx as u32 * 4);
            let w = &mut sms[sm].rf[idx];
            *w = hit(*w, mask);
        }
        StuckSite::SmemWord { sm, idx, mask } => {
            sms[sm].smem_dirty.mark(idx as u32 * 4);
            let w = &mut sms[sm].smem[idx];
            *w = hit(*w, mask);
        }
        StuckSite::CacheByte { cache, byte, mask } => {
            let cache = match cache {
                StuckCache::L1d(i) => &mut l1ds[i],
                StuckCache::L1t(i) => &mut l1ts[i],
                StuckCache::L2 => l2,
            };
            match stuck {
                Some(v) => cache.force_mask(byte, mask, v),
                None => cache.flip_mask(byte, mask),
            }
        }
        StuckSite::SimtMask { sm, warp, mask } => {
            let warp = sms[sm].warps[warp].as_mut();
            if let Some(top) = warp.and_then(|w| w.stack.last_mut()) {
                top.mask = hit(top.mask, mask);
            }
        }
        StuckSite::SchedReady { sm, warp, mask } => {
            let sm = &mut sms[sm];
            if let Some(w) = sm.warps[warp].as_mut() {
                let lo = hit(w.ready_at as u32, mask);
                w.ready_at = (w.ready_at & !0xFFFF_FFFF) | u64::from(lo);
                let (at, waiting) = (w.ready_at, w.at_barrier);
                if !waiting {
                    sm.schedule(warp, at);
                }
            }
            // The warp may have been the earliest pending one.
            sm.wake = 0;
        }
    }
}

/// Re-force every resolved stuck-at site (idempotent). Called at the top
/// of each engine step after the fault has landed, so any overwrite in
/// the previous step is pinned back to the stuck value before the next
/// instruction can observe it — the "re-asserted on every access"
/// semantics of a permanent fault. Sites are physical: a CTA slot or
/// cache line reallocated over a stuck location inherits the fault.
fn reassert_stuck(
    inj: &UarchInjector,
    sms: &mut [SmState],
    l1ds: &mut [Cache],
    l1ts: &mut [Cache],
    l2: &mut Cache,
) {
    if let Some(v) = inj.stuck_value() {
        for &site in &inj.stuck {
            disturb(site, Some(v), sms, l1ds, l1ts, l2);
        }
    }
}

/// Run one kernel launch on the timed engine, with the snapshot capture /
/// resume / convergence controls of `ctl` ([`TimedCtl::none`] for none).
/// Every fast-forward feature routes through the same loop as a plain
/// launch, so the two cannot drift apart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_timed_ctl(
    cfg: &GpuConfig,
    m: &mut Machine,
    kernel: &Kernel,
    lc: &LaunchConfig,
    mut uarch: Option<&mut UarchInjector>,
    mut sw: Option<&mut SwInjector>,
    mut probe: Option<&mut Probe>,
    budget_cycles: u64,
    ctl: &mut TimedCtl<'_>,
) -> Result<Stats, LaunchAbort> {
    let g = geometry(cfg, kernel, lc);
    let num_sms = cfg.num_sms as usize;
    let total_ctas = lc.num_ctas();
    let launch_geom = g.launch(lc);
    if let Some(p) = probe.as_deref_mut() {
        p.launch_begin(launch_geom);
    }
    let (capture_at, mut capture_into) = match ctl.capture.take() {
        Some((at, store)) => (at, Some(store)),
        None => (&[][..], None),
    };
    let mut converge = ctl.converge.take();
    // Issue now, execute later (docs/PERF.md): a probe stamps every
    // register access with its cycle and a software injector counts
    // instructions in issue order, so both see every op run at its issue.
    let mut defer = probe.is_none() && sw.is_none();
    let run_deferred = |sms: &mut [SmState], stats: &mut Stats| {
        materialize(sms, &g, kernel, lc, cfg.max_stack_depth, stats)
    };
    // A persistent (stuck-at) fault is re-asserted until launch end, so
    // the disturbed machine can never provably re-converge to golden
    // while the launch runs: disable the early masked-convergence exit.
    // (Launch-boundary convergence remains valid — the fault dies with
    // the launch.)
    if uarch
        .as_deref()
        .is_some_and(|i| i.fault.pattern.is_persistent())
    {
        converge = None;
    }

    // The launch state, the one value the loop below advances.
    let mut ls = match ctl.resume {
        Some((store, snap)) => {
            // The probe stream and SW injection counters accumulate over
            // the whole prefix; a mid-launch restore cannot rebuild them,
            // so fast-forward refuses those modes.
            assert!(
                probe.is_none() && sw.is_none(),
                "snapshot resume supports plain and uarch-fault runs only"
            );
            // The restored machine is bit-identical to the one the
            // snapshot was taken from, and the snapshot's launch state
            // holds every counter, so the continuation accumulates exactly
            // what an uninterrupted run would.
            ctl.restored_bytes = m.restore(store, snap);
            *store.launch_scalars(snap)
        }
        None => {
            let mut ls = LaunchScalars::default();
            for sm in m.sms.iter_mut() {
                sm.begin_launch(&g);
            }
            // Initial CTA fill, round-robin over SMs.
            'fill: for slot in 0..g.slots_per_sm as usize {
                for (smi, sm) in m.sms.iter_mut().enumerate() {
                    if ls.next_cta >= total_ctas {
                        break 'fill;
                    }
                    launch_cta(
                        sm,
                        slot,
                        ls.next_cta,
                        lc,
                        &g,
                        &mut ls.seq,
                        smi,
                        0,
                        true,
                        probe.as_deref_mut(),
                    );
                    ls.next_cta += 1;
                }
            }
            ls
        }
    };
    let start_cycle = ls.stats.cycles;
    let mut cap_idx = capture_at.partition_point(|&c| c < ls.stats.cycles);
    // Convergence checks start strictly after the fault cycle: at or
    // before it the disturbed state cannot have diverged yet, and the
    // check only fires once the flip has actually landed.
    let golden = ctl.resume.map(|(store, _)| store);
    let golden_cycle = |id: SnapId| {
        golden
            .and_then(|s| s.cycle(id))
            .expect("convergence snapshots are mid-launch snapshots of the resume store")
    };
    let mut conv_idx = match (&converge, uarch.as_deref()) {
        (Some(cv), Some(inj)) => cv
            .snaps
            .partition_point(|&s| golden_cycle(s) <= inj.fault.cycle),
        (Some(_), None) => panic!("convergence exit requires a microarchitecture fault"),
        _ => 0,
    };

    let max_warps_hw = (cfg.max_threads_per_sm / WARP_SIZE as u32) as u64;

    let result: Result<(), LaunchAbort> = if ls.stats.cycles > budget_cycles {
        // Resumed past the budget: the uninterrupted run would already
        // have timed out on its way to this cycle.
        Err(LaunchAbort::Timeout)
    } else {
        'outer: loop {
            // Capture due snapshots before anything mutates state this
            // cycle (golden instrumented runs only).
            while let Some(&cc) = capture_at.get(cap_idx) {
                if cc > ls.stats.cycles {
                    break;
                }
                if cc == ls.stats.cycles {
                    run_deferred(&mut m.sms, &mut ls.stats);
                    fold_issue_marks(&mut m.sms, &g);
                    let store = capture_into.as_deref_mut().expect("capture store");
                    ctl.captured.push(m.capture(store, Some(ls)));
                }
                cap_idx += 1;
            }

            // Apply a due microarchitecture fault before issuing at this
            // cycle, and re-force any live stuck-at sites (permanent
            // faults) before the next instructions can observe them.
            if let Some(inj) = uarch.as_deref_mut() {
                if !inj.applied && ls.stats.cycles >= inj.fault.cycle {
                    run_deferred(&mut m.sms, &mut ls.stats);
                    apply_uarch(
                        inj,
                        &mut m.sms,
                        &mut m.l1ds,
                        &mut m.l1ts,
                        &mut m.l2,
                        &launch_geom,
                        cfg,
                    );
                    // A stuck-at site is re-forced every cycle, so every
                    // op must run at its issue from now on.
                    defer &= inj.stuck.is_empty();
                } else if inj.applied && !inj.stuck.is_empty() {
                    reassert_stuck(inj, &mut m.sms, &mut m.l1ds, &mut m.l1ts, &mut m.l2);
                }
            }

            // Early masked-convergence exit: once the fault has landed,
            // compare the disturbed machine against the golden snapshot at
            // the same cycle; architectural equality means the rest of the
            // launch is bit-identical to golden, so credit the golden
            // suffix instead of simulating it.
            if let (Some(cv), Some(store)) = (&converge, golden) {
                if uarch.as_deref().is_some_and(|i| i.applied) {
                    while cv
                        .snaps
                        .get(conv_idx)
                        .is_some_and(|&s| golden_cycle(s) < ls.stats.cycles)
                    {
                        conv_idx += 1;
                    }
                    if cv
                        .snaps
                        .get(conv_idx)
                        .is_some_and(|&s| golden_cycle(s) == ls.stats.cycles)
                    {
                        let gs = cv.snaps[conv_idx];
                        conv_idx += 1;
                        run_deferred(&mut m.sms, &mut ls.stats);
                        fold_issue_marks(&mut m.sms, &g);
                        let gl = store.launch_scalars(gs);
                        if (ls.next_cta, ls.done_ctas, ls.seq)
                            == (gl.next_cta, gl.done_ctas, gl.seq)
                            && m.same(
                                store,
                                gs,
                                Scope::Engine {
                                    regs_per_cta: g.regs_per_cta as usize,
                                    smem_words_per_cta: g.smem_words_per_cta as usize,
                                },
                            )
                        {
                            // The spliced suffix ends where golden's
                            // launch does: past the budget, the run it
                            // stands for times out on its way there.
                            if cv.end_stats.cycles > budget_cycles {
                                break 'outer Err(LaunchAbort::Timeout);
                            }
                            ctl.converged_at = Some(ls.stats.cycles);
                            ctl.simulated_cycles = ls.stats.cycles - start_cycle;
                            // The rest of the launch is golden's: credit
                            // every counter with golden's end minus golden
                            // here. The machine stays where it converged:
                            // whoever continues the run restores the golden
                            // post-launch snapshot (or follows it without
                            // restoring), so the launch epilogue is skipped.
                            ls.stats.add_delta(&cv.end_stats, &gl.stats);
                            return Ok(ls.stats);
                        }
                    }
                }
            }

            let mut issued_any = false;
            let mut resident = 0u64;
            for (smi, sm) in m.sms.iter_mut().enumerate() {
                resident += u64::from(sm.occupied.count_ones());
                let Some(wi) = sm.pick(ls.stats.cycles) else {
                    continue;
                };

                let warp = sm.warps[wi].as_mut().expect("picked warp exists");
                let slot_idx = wi / g.wpc as usize;
                sm.issued |= 1 << wi;
                let lazy = sm.lazy[wi];
                let pure = if defer {
                    deferrable(warp, lazy, kernel.ops())
                } else {
                    None
                };
                let (event, due) = if let Some(op) = pure {
                    // Charged now, run with the warp's next impure issue.
                    sm.lazy[wi] += 1;
                    let class = if op.tag.is_sfu() {
                        IssueClass::Sfu
                    } else {
                        IssueClass::Alu
                    };
                    (Some(StepEvent::Issued(class)), None)
                } else {
                    sm.lazy[wi] = 0;
                    let rf_base = slot_idx * g.regs_per_cta as usize
                        + warp.warp_in_cta as usize * g.regs_per_warp as usize;
                    let smem_base = slot_idx * g.smem_words_per_cta as usize;
                    let mut tg = TimedGMem {
                        l1d: &mut m.l1ds[smi],
                        l1t: &mut m.l1ts[smi],
                        l2: &mut m.l2,
                        mem: &mut m.mem,
                        lat: &cfg.lat,
                        now: ls.stats.cycles,
                        probe: probe.as_deref_mut(),
                        sm: smi,
                        rf_base,
                        smem_base,
                    };
                    let mut ctx = ExecCtx {
                        kernel,
                        params: &lc.params,
                        ntid: lc.block_x,
                        nctaid: lc.grid_x,
                        regs: &mut sm.rf[rf_base..rf_base + g.regs_per_warp as usize],
                        smem: &mut sm.smem[smem_base..smem_base + g.smem_words_per_cta as usize],
                        mem: &mut tg,
                        stats: &mut ls.stats,
                        sw: sw.as_deref_mut(),
                        max_stack: cfg.max_stack_depth,
                    };
                    match run_warp(warp, &mut ctx, lazy + 1) {
                        Ok(ev) => (Some(ev), None),
                        Err(e) => (None, Some(e)),
                    }
                };
                // Shared memory changes only under a shared-memory
                // instruction — which may have stored to some lanes before
                // faulting on another.
                if matches!(
                    event,
                    None | Some(StepEvent::Issued(IssueClass::Smem { .. }))
                ) {
                    sm.smem_issued |= 1 << slot_idx;
                }
                if let Some(e) = due {
                    break 'outer Err(LaunchAbort::Due(e));
                }
                issued_any = true;
                let mut clear_greedy = true;
                match event.unwrap() {
                    StepEvent::Issued(class) => {
                        let latency = match class {
                            IssueClass::Alu => cfg.lat.alu as u64,
                            IssueClass::Sfu => cfg.lat.sfu as u64,
                            IssueClass::Smem { extra_conflicts } => {
                                cfg.lat.smem as u64
                                    + extra_conflicts as u64 * cfg.lat.smem_conflict as u64
                            }
                            IssueClass::Mem { ready } => {
                                ready.saturating_sub(ls.stats.cycles).max(1)
                            }
                        };
                        warp.ready_at = ls.stats.cycles + latency;
                        sm.schedule(wi, ls.stats.cycles + latency);
                        sm.last = Some(wi);
                        clear_greedy = false;
                    }
                    StepEvent::Barrier => {
                        warp.at_barrier = true;
                        warp.ready_at = ls.stats.cycles + cfg.lat.alu as u64;
                        sm.unschedule(wi);
                        let slot = sm.slots[slot_idx].as_mut().expect("slot live");
                        slot.arrived += 1;
                        if slot.arrived >= slot.warps_running {
                            sm.release_barrier(slot_idx);
                        }
                    }
                    StepEvent::Done => {
                        sm.warps[wi] = None;
                        sm.occupied &= !(1 << wi);
                        sm.unschedule(wi);
                        let slot = sm.slots[slot_idx].as_mut().expect("slot live");
                        slot.warps_running -= 1;
                        if slot.warps_running == 0 {
                            sm.slots[slot_idx] = None;
                            sm.order.retain(|&s| s != slot_idx);
                            ls.done_ctas += 1;
                            if let Some(p) = probe.as_deref_mut() {
                                p.slot_free(smi, slot_idx, ls.stats.cycles);
                            }
                            if ls.next_cta < total_ctas {
                                launch_cta(
                                    sm,
                                    slot_idx,
                                    ls.next_cta,
                                    lc,
                                    &g,
                                    &mut ls.seq,
                                    smi,
                                    ls.stats.cycles,
                                    false,
                                    probe.as_deref_mut(),
                                );
                                ls.next_cta += 1;
                            }
                        } else if slot.arrived >= slot.warps_running {
                            // Last non-waiting warp exited: release the barrier.
                            sm.release_barrier(slot_idx);
                        }
                    }
                }
                if clear_greedy {
                    sm.last = None;
                }
            }

            if ls.done_ctas == total_ctas {
                ls.stats.resident_warp_cycles += resident;
                ls.stats.max_warp_cycles += num_sms as u64 * max_warps_hw;
                ls.stats.issue_cycles += 1; // the Done event implies an issue
                ls.stats.cycles += 1;
                // The budget check every other advance makes below.
                break if ls.stats.cycles > budget_cycles {
                    Err(LaunchAbort::Timeout)
                } else {
                    Ok(())
                };
            }

            // Advance time: one cycle after an issue, else fast-forward to the
            // next readiness event (clamped to a pending fault cycle). With
            // nothing issued, every SM's pick found nothing ready, so every
            // wake cycle is exact and after `cycle` (a debug build checks it
            // in each pick).
            let advance = if issued_any {
                1
            } else {
                let nxt = m.sms.iter().map(|sm| sm.wake).min().unwrap_or(u64::MAX);
                if nxt == u64::MAX {
                    break Err(LaunchAbort::Due(DueKind::BarrierDeadlock));
                }
                let mut target = nxt;
                if let Some(inj) = uarch.as_deref() {
                    if !inj.applied && inj.fault.cycle > ls.stats.cycles {
                        target = target.min(inj.fault.cycle);
                    }
                }
                // Land exactly on pending capture / convergence-check cycles;
                // splitting an idle stretch in two is stats-neutral (stall and
                // residency counters scale linearly with `advance`).
                if let Some(&cc) = capture_at.get(cap_idx) {
                    if cc > ls.stats.cycles {
                        target = target.min(cc);
                    }
                }
                if let Some(cv) = &converge {
                    if let Some(&gs) = cv.snaps.get(conv_idx) {
                        if golden_cycle(gs) > ls.stats.cycles {
                            target = target.min(golden_cycle(gs));
                        }
                    }
                }
                target - ls.stats.cycles
            };
            if issued_any {
                ls.stats.issue_cycles += 1;
            } else {
                ls.stats.stall_cycles += advance;
            }
            ls.stats.resident_warp_cycles += resident * advance;
            ls.stats.max_warp_cycles += num_sms as u64 * max_warps_hw * advance;
            ls.stats.cycles += advance;
            if ls.stats.cycles > budget_cycles {
                break Err(LaunchAbort::Timeout);
            }
        }
    };

    ctl.simulated_cycles = ls.stats.cycles - start_cycle;
    run_deferred(&mut m.sms, &mut ls.stats);

    // A stuck-at site overwritten by the very last step must still read
    // stuck when the launch retires (output classification reads L2 and
    // memory after the epilogue).
    if let Some(inj) = uarch.as_deref() {
        if inj.applied && !inj.stuck.is_empty() {
            reassert_stuck(inj, &mut m.sms, &mut m.l1ds, &mut m.l1ts, &mut m.l2);
        }
    }
    fold_issue_marks(&mut m.sms, &g);

    // Kernel boundary: L1s are invalidated (write-through, nothing dirty).
    for c in m.l1ds.iter_mut().chain(m.l1ts.iter_mut()) {
        c.invalidate_all();
    }
    if let Some(p) = probe {
        p.launch_end(ls.stats.cycles);
    }

    debug_assert_eq!(
        ls.stats.issue_cycles + ls.stats.stall_cycles,
        ls.stats.cycles,
        "every cycle issues or stalls"
    );
    result?;
    Ok(ls.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeom;
    use crate::fault::{FaultPattern, UarchFault};
    use proptest::prelude::*;
    use vgpu_arch::KernelBuilder;

    fn kernel_with(regs: u8, smem: u32) -> Kernel {
        let mut a = KernelBuilder::new("g");
        for i in 0..regs {
            a.mov(vgpu_arch::Reg(i), 0u32);
        }
        if smem > 0 {
            a.alloc_smem(smem);
        }
        a.build().unwrap()
    }

    #[test]
    fn geometry_respects_all_limits() {
        let cfg = GpuConfig::default();
        // Thread-limited: 1024 threads/SM, block 256 → 4 CTAs.
        let k = kernel_with(4, 0);
        let lc = LaunchConfig::new(64, 256, vec![]);
        let g = geometry(&cfg, &k, &lc);
        assert_eq!(g.slots_per_sm, 4);
        assert_eq!(g.wpc, 8);
        assert_eq!(g.regs_per_warp, 4 * 32);

        // RF-limited: 32 regs × 256 threads = 8192 regs/CTA, 65536 RF → 8,
        // but thread cap (4) binds first; with block 64 the RF allows 32
        // and max_ctas (16) binds.
        let k = kernel_with(32, 0);
        let lc = LaunchConfig::new(64, 64, vec![]);
        let g = geometry(&cfg, &k, &lc);
        assert_eq!(g.slots_per_sm, 16);

        // SMEM-limited: 48 KiB per CTA of a 64 KiB SM → 1 slot.
        let k = kernel_with(2, 48 * 1024);
        let lc = LaunchConfig::new(8, 64, vec![]);
        let g = geometry(&cfg, &k, &lc);
        assert_eq!(g.slots_per_sm, 1);
        assert_eq!(g.smem_words_per_cta, 48 * 1024 / 4);
    }

    #[test]
    #[should_panic(expected = "exceeds SM limits")]
    fn oversized_kernel_panics_at_launch_geometry() {
        let cfg = GpuConfig::default();
        let k = kernel_with(2, 80 * 1024); // > 64 KiB SMEM per SM
        let lc = LaunchConfig::new(1, 32, vec![]);
        geometry(&cfg, &k, &lc);
    }

    /// Every element of the five storage structures, `[structure][instance]`:
    /// words of the register files and shared memories, bytes of the cache
    /// data arrays.
    fn image(sms: &[SmState], l1ds: &[Cache], l1ts: &[Cache], l2: &Cache) -> [Vec<Vec<u32>>; 5] {
        let bytes = |c: &Cache| {
            let lines = 0..c.geom().lines() as usize;
            lines
                .flat_map(|l| c.line_data(l).iter().map(|&b| u32::from(b)))
                .collect()
        };
        [
            sms.iter().map(|sm| sm.rf.clone()).collect(),
            sms.iter().map(|sm| sm.smem.clone()).collect(),
            l1ds.iter().map(bytes).collect(),
            l1ts.iter().map(bytes).collect(),
            vec![bytes(l2)],
        ]
    }

    proptest! {
        /// The injector changes exactly what the site resolver names: on a
        /// machine with arbitrary slot occupancy and contents, a fault of
        /// any storage structure and pattern flips (or forces) the masked
        /// bits of the resolved footprint and nothing else, out of the
        /// resolved population.
        #[test]
        fn a_fault_changes_exactly_the_words_its_site_names(
            regs in 1u8..=8,
            smem_words in 0u32..=64,
            wpc in 1u32..=2,
            occupancy in any::<u32>(),
            noise in any::<u32>(),
            which in 0usize..5,
            pattern in 0usize..FaultPattern::ALL.len(),
            loc_pick in any::<u64>(),
            bit in any::<u8>(),
        ) {
            let line = |bytes| CacheGeom { bytes, line_bytes: 128, ways: 2, mshrs: 2 };
            let cfg = GpuConfig {
                max_threads_per_sm: 256,
                max_ctas_per_sm: 4,
                rf_regs_per_sm: 2048,
                smem_bytes_per_sm: 1024,
                l1d: line(1024),
                l1t: line(512),
                l2: line(2048),
                ..GpuConfig::volta_scaled(2)
            };
            let kernel = kernel_with(regs, smem_words * 4);
            let lc = LaunchConfig::new(64, wpc * WARP_SIZE as u32, vec![]);
            let g = geometry(&cfg, &kernel, &lc);
            let occupied = |sm: usize, slot: usize| occupancy >> (sm * 4 + slot) & 1 == 1;
            // Any byte pattern will do, as long as both stuck values show.
            let mut noise = u64::from(noise);
            let mut next = || {
                noise = noise.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (noise >> 32) as u32
            };
            let mut sms: Vec<SmState> = (0..2).map(|_| SmState::new(&cfg)).collect();
            for (smi, sm) in sms.iter_mut().enumerate() {
                sm.begin_launch(&g);
                for slot in (0..g.slots_per_sm as usize).filter(|&slot| occupied(smi, slot)) {
                    launch_cta(sm, slot, 0, &lc, &g, &mut 0, smi, 0, true, None);
                }
                sm.rf.iter_mut().chain(&mut sm.smem).for_each(|w| *w = next());
            }
            let mut cache = |geom: &CacheGeom| {
                let mut c = Cache::new(geom.clone());
                for l in 0..geom.lines() as usize {
                    let bytes: Vec<u8> = (0..geom.line_bytes).map(|_| next() as u8).collect();
                    c.fill(l, l as u32, &bytes);
                }
                c
            };
            let mut l1ds = vec![cache(&cfg.l1d), cache(&cfg.l1d)];
            let mut l1ts = vec![cache(&cfg.l1t), cache(&cfg.l1t)];
            let mut l2 = cache(&cfg.l2);

            let fault = UarchFault {
                cycle: 0,
                structure: HwStructure::ALL[which],
                loc_pick,
                bit,
                pattern: FaultPattern::ALL[pattern],
            };
            let site = resolve_site(&fault, &g.launch(&lc), &cfg, occupied).expect("storage");
            let mut expected = image(&sms, &l1ds, &l1ts, &l2);
            for &(e, mask) in &site.footprint {
                let w = &mut expected[which][site.inst][e as usize];
                *w = match fault.pattern.stuck_value() {
                    Some(v) => apply_stuck(*w, mask, v),
                    None => *w ^ mask,
                };
            }
            let mut inj = UarchInjector::new(fault);
            apply_uarch(&mut inj, &mut sms, &mut l1ds, &mut l1ts, &mut l2, &g.launch(&lc), &cfg);
            prop_assert!(inj.applied);
            prop_assert_eq!(inj.population, site.population);
            prop_assert!(image(&sms, &l1ds, &l1ts, &l2) == expected);
            // A pinned stuck-at site is one the fault named.
            let pinned = if fault.pattern.is_persistent() { site.footprint.len() } else { 0 };
            prop_assert_eq!(inj.stuck.len(), pinned);
        }
    }

    #[test]
    fn partial_last_warp_gets_partial_mask() {
        let cfg = GpuConfig::default();
        let k = kernel_with(2, 0);
        let lc = LaunchConfig::new(1, 40, vec![]); // 1 full warp + 8 lanes
        let g = geometry(&cfg, &k, &lc);
        let mut sm = SmState::new(&cfg);
        sm.begin_launch(&g);
        let mut seq = 0;
        launch_cta(&mut sm, 0, 0, &lc, &g, &mut seq, 0, 0, true, None);
        let w0 = sm.warps[0].as_ref().unwrap();
        let w1 = sm.warps[1].as_ref().unwrap();
        assert_eq!(w0.init_mask, u32::MAX);
        assert_eq!(w1.init_mask, 0xFF);
        assert_eq!(seq, 2);
    }

    #[test]
    fn a_register_row_is_one_event_per_run_of_lanes() {
        use crate::probe::{ProbeEvent, SegEvent, TraceSink};
        use std::sync::{Arc, Mutex};

        struct Collect(Vec<ProbeEvent>);
        impl TraceSink for Collect {
            fn consume(&mut self, batch: &[ProbeEvent]) {
                self.0.extend_from_slice(batch);
            }
        }

        let cfg = GpuConfig::default();
        let sink = Arc::new(Mutex::new(Collect(Vec::new())));
        let mut probe = Probe::new(sink.clone());
        let (mut l1d, mut l1t, mut l2) =
            (Cache::new(cfg.l1d), Cache::new(cfg.l1t), Cache::new(cfg.l2));
        let mut mem = GlobalMem::new(4096);
        let mut tg = TimedGMem {
            l1d: &mut l1d,
            l1t: &mut l1t,
            l2: &mut l2,
            mem: &mut mem,
            lat: &cfg.lat,
            now: 7,
            probe: Some(&mut probe),
            sm: 1,
            rf_base: 256,
            smem_base: 0,
        };
        // Row r2 of a warp whose registers start at word 256 of SM 1.
        let row = 256 + 64;
        tg.probe_reg(64, 0xFFFF_FF0F, false);
        tg.probe_reg(64, 1 << 5, true);
        tg.probe_reg(64, u32::MAX, true);
        tg.probe_reg(64, 0, false);
        tg.probe_reg(64, 1 << 31 | 1, false);
        drop(probe);
        let range = |start, len, write| SegEvent::Range {
            h: HwStructure::RegFile,
            inst: 1,
            start,
            len,
            t: 7,
            write,
        };
        let access = |word, write| SegEvent::Access {
            h: HwStructure::RegFile,
            inst: 1,
            word,
            t: 7,
            write,
        };
        let want = [
            range(row, 4, false),
            range(row + 8, 24, false),
            access(row + 5, true),
            range(row, 32, true),
            access(row, false),
            access(row + 31, false),
        ];
        let got = &sink.lock().unwrap().0;
        assert_eq!(got, &want.map(ProbeEvent::Seg));
    }
}
