//! The cycle-level engine: SMs, CTA occupancy limits, greedy-then-oldest
//! warp scheduling, latency stalling, MSHR-backed caches, and
//! microarchitecture-level fault application at a chosen cycle.
//!
//! Timing model: one instruction issues per SM per cycle; a warp that
//! issues is busy until its instruction's latency elapses. Idle stretches
//! are fast-forwarded to the next readiness event (clamped to the pending
//! fault cycle so injections land at the exact requested cycle).

use crate::cache::{ensure_l2, load_via, Cache, L1Probe};
use crate::config::{GpuConfig, Latencies};
use crate::due::{DueKind, LaunchAbort};
use crate::exec::{lanes_of, step_warp, ExecCtx, GMem, IssueClass, StepEvent};
use crate::fault::{
    apply_stuck, resolve_site, value_mask, HwStructure, StuckCache, StuckSite, SwInjector,
    UarchInjector,
};
use crate::mem::{DirtyMap, GlobalMem};
use crate::probe::{LaunchGeometry, Probe};
use crate::snapshot::{Capture, ChunkStore, ConvergeWith, Machine, Scope, SnapId, Walk};
use crate::stats::{CacheStats, Stats};
use crate::warp::Warp;
use vgpu_arch::{Kernel, LaunchConfig, WARP_SIZE};

/// Timed global-memory interface: coalesces a warp's lane accesses into
/// line accesses against the L1/L2 hierarchy.
struct TimedGMem<'a> {
    l1d: &'a mut Cache,
    l1t: &'a mut Cache,
    l2: &'a mut Cache,
    mem: &'a mut GlobalMem,
    lat: &'a Latencies,
    now: u64,
    mem_reads: &'a mut u64,
    mem_writes: &'a mut u64,
    /// The probe of an instrumented fault-free run, plus the coordinates
    /// translating this step's warp-local register / CTA-local
    /// shared-memory indices to words of the SM's arrays.
    probe: Option<&'a mut Probe>,
    sm: usize,
    rf_base: usize,
    smem_base: usize,
}

impl GMem for TimedGMem<'_> {
    fn load(
        &mut self,
        tex: bool,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
    ) -> Result<u64, DueKind> {
        self.mem.check_warp(mask, addrs)?;
        let l1 = if tex { &mut *self.l1t } else { &mut *self.l1d };
        let h = if tex {
            HwStructure::L1T
        } else {
            HwStructure::L1D
        };
        let lb = l1.geom().line_bytes;
        let mut seen = [0u32; WARP_SIZE];
        let mut n = 0usize;
        let mut ready_max = self.now;
        for lane in lanes_of(mask) {
            let addr = addrs[lane];
            let line = addr / lb;
            let already = seen[..n].contains(&line);
            if already {
                // Same line touched earlier in this coalesced access; it is
                // normally still resident, but an intervening fill in the
                // same set may have evicted it — refetch in that case.
                if let Some(idx) = l1.probe(line) {
                    if let Some(p) = self.probe.as_deref_mut() {
                        p.access(h, self.sm, l1.word(idx, addr % lb), self.now, false);
                    }
                    out[lane] = l1.read_word(idx, addr % lb);
                    continue;
                }
            }
            let r = load_via(
                l1,
                self.l2,
                self.mem,
                addr,
                self.now,
                self.lat,
                self.mem_reads,
                self.mem_writes,
                self.probe.as_deref_mut().map(|probe| L1Probe {
                    probe,
                    l1: h,
                    sm: self.sm,
                }),
            );
            out[lane] = r.value;
            ready_max = ready_max.max(r.ready);
            if !already {
                seen[n] = line;
                n += 1;
            }
        }
        Ok(ready_max)
    }

    fn store(
        &mut self,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
    ) -> Result<u64, DueKind> {
        self.mem.check_warp(mask, addrs)?;
        let lb = self.l1d.geom().line_bytes;
        let mut seen = [0u32; WARP_SIZE];
        let mut n = 0usize;
        for lane in lanes_of(mask) {
            let addr = addrs[lane];
            let line = addr / lb;
            let off = addr % lb;
            if !seen[..n].contains(&line) {
                // One coalesced access per line for the statistics.
                self.l1d.stats.accesses += 1;
                if self.l1d.probe(line).is_none() {
                    self.l1d.stats.misses += 1; // write-through, no allocate
                }
                ensure_l2(
                    self.l2,
                    self.mem,
                    line,
                    self.now,
                    self.lat,
                    self.mem_reads,
                    self.mem_writes,
                    self.probe.as_deref_mut(),
                );
                seen[n] = line;
                n += 1;
            }
            if let Some(i1) = self.l1d.lookup(line) {
                self.l1d.write_word(i1, off, vals[lane], false);
                if let Some(p) = self.probe.as_deref_mut() {
                    let word = self.l1d.word(i1, off);
                    p.access(HwStructure::L1D, self.sm, word, self.now, true);
                }
            }
            let i2 = match self.l2.probe(line) {
                Some(i) => i,
                None => {
                    ensure_l2(
                        self.l2,
                        self.mem,
                        line,
                        self.now,
                        self.lat,
                        self.mem_reads,
                        self.mem_writes,
                        self.probe.as_deref_mut(),
                    )
                    .0
                }
            };
            self.l2.write_word(i2, off, vals[lane], true);
            if let Some(p) = self.probe.as_deref_mut() {
                p.access(HwStructure::L2, 0, self.l2.word(i2, off), self.now, true);
            }
        }
        Ok(self.now + self.lat.store as u64)
    }

    fn probed(&self) -> bool {
        self.probe.is_some()
    }

    fn probe_reg(&mut self, reg_word: usize, write: bool) {
        if let Some(p) = self.probe.as_deref_mut() {
            let word = (self.rf_base + reg_word) as u64;
            p.access(HwStructure::RegFile, self.sm, word, self.now, write);
        }
    }

    fn probe_smem(&mut self, word: usize, write: bool) {
        if let Some(p) = self.probe.as_deref_mut() {
            let word = (self.smem_base + word) as u64;
            p.access(HwStructure::Smem, self.sm, word, self.now, write);
        }
    }
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
            rf_dirty: DirtyMap::new(rf_words * 4),
            smem_dirty: DirtyMap::new(smem_words * 4),
            issued: 0,
            smem_issued: 0,
        }
    }

    /// Empty `slots_per_sm` CTA slots of `wpc` warps each.
    fn begin_launch(&mut self, g: &Geometry) {
        self.slots.clear();
        self.slots.resize(g.slots_per_sm as usize, None);
        self.warps.clear();
        self.warps.resize((g.slots_per_sm * g.wpc) as usize, None);
        self.last = None;
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
    }

    /// Append the register file and shared memory to a snapshot being
    /// captured (the order [`SmState::restore`] and [`SmState::same`]
    /// walk in).
    pub(crate) fn capture(&self, cap: &mut Capture<'_>) {
        debug_assert_eq!(self.issued | self.smem_issued, 0, "unfolded issue marks");
        cap.array(&self.rf, &self.rf_dirty, 4);
        cap.array(&self.smem, &self.smem_dirty, 4);
    }

    pub(crate) fn restore(&mut self, w: &mut Walk<'_>) {
        debug_assert_eq!(self.issued | self.smem_issued, 0, "unfolded issue marks");
        w.restore(&mut self.rf, &self.rf_dirty, 4);
        w.restore(&mut self.smem, &self.smem_dirty, 4);
        self.clear_dirty();
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
        debug_assert_eq!(self.issued | self.smem_issued, 0, "unfolded issue marks");
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

/// The launch-wide scalars `run_timed_ctl` keeps in locals while
/// simulating, in storable form. Together with the [`Machine`] (device
/// state, RF/SMEM, warp and slot state) this suffices to continue a
/// launch bit-identically from the captured cycle.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LaunchScalars {
    pub(crate) next_cta: u64,
    pub(crate) done_ctas: u64,
    pub(crate) seq: u64,
    pub(crate) stats: Stats,
    pub(crate) mem_reads: u64,
    pub(crate) mem_writes: u64,
    pub(crate) cycle: u64,
    /// Per-launch cache-stat baselines captured at launch start; restored
    /// verbatim so the resumed run's launch-delta accounting matches an
    /// uninterrupted run exactly.
    pub(crate) l1d_start: Vec<CacheStats>,
    pub(crate) l1t_start: Vec<CacheStats>,
    pub(crate) l2_start: CacheStats,
}

/// Everything a mid-launch snapshot keeps verbatim beyond the caches'
/// own scalars.
#[derive(Debug)]
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
        let l = &self.launch;
        (self.sms.capacity() * size_of::<SmScalars>()
            + self.sms.iter().map(per_sm).sum::<usize>()
            + (l.l1d_start.capacity() + l.l1t_start.capacity()) * size_of::<CacheStats>())
            as u64
    }
}

/// Snapshot / resume / convergence controls for [`run_timed_ctl`]. The
/// empty value ([`TimedCtl::none`]) makes `run_timed_ctl` behave exactly
/// like the historical slow path.
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
        sm.warps[slot * g.wpc as usize + wi as usize] = Some(w);
    }
    sm.slots[slot] = Some(CtaSlot {
        warps_running: g.wpc,
        arrived: 0,
    });
}

/// Fold the issue loop's per-warp / per-slot marks into the RF and SMEM
/// dirty maps. The loop sets one bit per issue instead of marking granule
/// ranges; whoever is about to consult the maps (capture, convergence
/// compare) or leave the launch folds first.
fn fold_issue_marks(sms: &mut [SmState], g: &Geometry) {
    for sm in sms {
        let mut m = std::mem::take(&mut sm.issued);
        while m != 0 {
            let wi = m.trailing_zeros();
            m &= m - 1;
            // Warp `wi` is warp `wi % wpc` of slot `wi / wpc`, so its
            // register block starts `wi` blocks into the file.
            sm.rf_dirty
                .mark_range(wi * g.regs_per_warp * 4, g.regs_per_warp * 4);
        }
        let mut m = std::mem::take(&mut sm.smem_issued);
        while m != 0 {
            let slot = m.trailing_zeros();
            m &= m - 1;
            sm.smem_dirty
                .mark_range(slot * g.smem_words_per_cta * 4, g.smem_words_per_cta * 4);
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
            if let Some(w) = sms[sm].warps[warp].as_mut() {
                let lo = hit(w.ready_at as u32, mask);
                w.ready_at = (w.ready_at & !0xFFFF_FFFF) | u64::from(lo);
            }
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

/// Run one kernel launch on the timed engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_timed(
    cfg: &GpuConfig,
    m: &mut Machine,
    kernel: &Kernel,
    lc: &LaunchConfig,
    uarch: Option<&mut UarchInjector>,
    sw: Option<&mut SwInjector>,
    probe: Option<&mut Probe>,
    budget_cycles: u64,
) -> Result<Stats, LaunchAbort> {
    run_timed_ctl(
        cfg,
        m,
        kernel,
        lc,
        uarch,
        sw,
        probe,
        budget_cycles,
        &mut TimedCtl::none(),
    )
}

/// Run one kernel launch with snapshot capture / resume / convergence
/// controls. With an empty [`TimedCtl`] this is exactly the historical
/// engine; every fast-forward feature routes through the same loop so the
/// two paths cannot drift apart.
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

    let state = match ctl.resume {
        Some((store, snap)) => {
            // The probe stream and SW injection counters accumulate over
            // the whole prefix; a mid-launch restore cannot rebuild them,
            // so fast-forward refuses those modes.
            assert!(
                probe.is_none() && sw.is_none(),
                "snapshot resume supports plain and uarch-fault runs only"
            );
            // The restored machine is bit-identical to the one the
            // snapshot was taken from — including cache stats and the
            // per-launch baselines — so the continuation accumulates
            // exactly what an uninterrupted run would.
            ctl.restored_bytes = m.restore(store, snap);
            store.launch_scalars(snap).clone()
        }
        None => {
            let mut next_cta = 0u64;
            let mut seq = 0u64;
            for sm in m.sms.iter_mut() {
                sm.begin_launch(&g);
            }
            // Initial CTA fill, round-robin over SMs.
            'fill: for slot in 0..g.slots_per_sm as usize {
                for (smi, sm) in m.sms.iter_mut().enumerate() {
                    if next_cta >= total_ctas {
                        break 'fill;
                    }
                    launch_cta(
                        sm,
                        slot,
                        next_cta,
                        lc,
                        &g,
                        &mut seq,
                        smi,
                        0,
                        true,
                        probe.as_deref_mut(),
                    );
                    next_cta += 1;
                }
            }
            LaunchScalars {
                next_cta,
                done_ctas: 0,
                seq,
                stats: Stats::default(),
                mem_reads: 0,
                mem_writes: 0,
                cycle: 0,
                l1d_start: m.l1ds.iter().map(|c| c.stats).collect(),
                l1t_start: m.l1ts.iter().map(|c| c.stats).collect(),
                l2_start: m.l2.stats,
            }
        }
    };
    let LaunchScalars {
        mut next_cta,
        mut done_ctas,
        mut seq,
        mut stats,
        mut mem_reads,
        mut mem_writes,
        mut cycle,
        l1d_start,
        l1t_start,
        l2_start,
    } = state;
    let start_cycle = cycle;
    let mut cap_idx = capture_at.partition_point(|&c| c < cycle);
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

    let result: Result<(), LaunchAbort> = if cycle > budget_cycles {
        // Resumed past the budget: the uninterrupted run would already
        // have timed out on its way to this cycle.
        Err(LaunchAbort::Timeout)
    } else {
        'outer: loop {
            // Capture due snapshots before anything mutates state this
            // cycle (golden instrumented runs only).
            while let Some(&cc) = capture_at.get(cap_idx) {
                if cc > cycle {
                    break;
                }
                if cc == cycle {
                    fold_issue_marks(&mut m.sms, &g);
                    let store = capture_into.as_deref_mut().expect("capture store");
                    let launch = LaunchScalars {
                        next_cta,
                        done_ctas,
                        seq,
                        stats,
                        mem_reads,
                        mem_writes,
                        cycle,
                        l1d_start: l1d_start.clone(),
                        l1t_start: l1t_start.clone(),
                        l2_start,
                    };
                    ctl.captured.push(m.capture(store, Some(launch)));
                }
                cap_idx += 1;
            }

            // Apply a due microarchitecture fault before issuing at this
            // cycle, and re-force any live stuck-at sites (permanent
            // faults) before the next instructions can observe them.
            if let Some(inj) = uarch.as_deref_mut() {
                if !inj.applied && cycle >= inj.fault.cycle {
                    apply_uarch(
                        inj,
                        &mut m.sms,
                        &mut m.l1ds,
                        &mut m.l1ts,
                        &mut m.l2,
                        &launch_geom,
                        cfg,
                    );
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
                        .is_some_and(|&s| golden_cycle(s) < cycle)
                    {
                        conv_idx += 1;
                    }
                    if cv
                        .snaps
                        .get(conv_idx)
                        .is_some_and(|&s| golden_cycle(s) == cycle)
                    {
                        let gs = cv.snaps[conv_idx];
                        conv_idx += 1;
                        fold_issue_marks(&mut m.sms, &g);
                        let gl = store.launch_scalars(gs);
                        if (next_cta, done_ctas, seq) == (gl.next_cta, gl.done_ctas, gl.seq)
                            && m.same(
                                store,
                                gs,
                                Scope::Engine {
                                    regs_per_cta: g.regs_per_cta as usize,
                                    smem_words_per_cta: g.smem_words_per_cta as usize,
                                },
                            )
                        {
                            ctl.converged_at = Some(cycle);
                            ctl.simulated_cycles = cycle - start_cycle;
                            return Ok(splice_golden_suffix(
                                cv, store, gs, stats, mem_reads, mem_writes, m, &l1d_start,
                                &l1t_start, &l2_start,
                            ));
                        }
                    }
                }
            }

            let mut issued_any = false;
            let mut resident = 0u64;
            for (smi, sm) in m.sms.iter_mut().enumerate() {
                resident += sm.warps.iter().flatten().filter(|w| !w.done).count() as u64;

                // Greedy-then-oldest pick.
                let ready = |w: &Warp, cyc: u64| !w.done && !w.at_barrier && w.ready_at <= cyc;
                let pick = match sm.last {
                    Some(wi) if sm.warps[wi].as_ref().is_some_and(|w| ready(w, cycle)) => Some(wi),
                    _ => sm
                        .warps
                        .iter()
                        .enumerate()
                        .filter_map(|(i, w)| w.as_ref().map(|w| (i, w)))
                        .filter(|(_, w)| ready(w, cycle))
                        .min_by_key(|(_, w)| w.seq)
                        .map(|(i, _)| i),
                };
                let Some(wi) = pick else {
                    sm.last = None;
                    continue;
                };

                let mut warp = sm.warps[wi].take().expect("picked warp exists");
                let slot_idx = wi / g.wpc as usize;
                let rf_base = slot_idx * g.regs_per_cta as usize
                    + warp.warp_in_cta as usize * g.regs_per_warp as usize;
                let smem_base = slot_idx * g.smem_words_per_cta as usize;
                sm.issued |= 1 << wi;
                let (event, due) = {
                    let mut tg = TimedGMem {
                        l1d: &mut m.l1ds[smi],
                        l1t: &mut m.l1ts[smi],
                        l2: &mut m.l2,
                        mem: &mut m.mem,
                        lat: &cfg.lat,
                        now: cycle,
                        mem_reads: &mut mem_reads,
                        mem_writes: &mut mem_writes,
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
                        stats: &mut stats,
                        sw: sw.as_deref_mut(),
                        max_stack: cfg.max_stack_depth,
                    };
                    match step_warp(&mut warp, &mut ctx) {
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
                            IssueClass::Mem { ready } => ready.saturating_sub(cycle).max(1),
                        };
                        warp.ready_at = cycle + latency;
                        sm.warps[wi] = Some(warp);
                        sm.last = Some(wi);
                        clear_greedy = false;
                    }
                    StepEvent::Barrier => {
                        warp.at_barrier = true;
                        warp.ready_at = cycle + cfg.lat.alu as u64;
                        sm.warps[wi] = Some(warp);
                        let slot = sm.slots[slot_idx].as_mut().expect("slot live");
                        slot.arrived += 1;
                        if slot.arrived >= slot.warps_running {
                            slot.arrived = 0;
                            let base = slot_idx * g.wpc as usize;
                            for w in sm.warps[base..base + g.wpc as usize].iter_mut().flatten() {
                                w.at_barrier = false;
                            }
                        }
                    }
                    StepEvent::Done => {
                        sm.warps[wi] = None;
                        let slot = sm.slots[slot_idx].as_mut().expect("slot live");
                        slot.warps_running -= 1;
                        if slot.warps_running == 0 {
                            sm.slots[slot_idx] = None;
                            done_ctas += 1;
                            if let Some(p) = probe.as_deref_mut() {
                                p.slot_free(smi, slot_idx, cycle);
                            }
                            if next_cta < total_ctas {
                                launch_cta(
                                    sm,
                                    slot_idx,
                                    next_cta,
                                    lc,
                                    &g,
                                    &mut seq,
                                    smi,
                                    cycle,
                                    false,
                                    probe.as_deref_mut(),
                                );
                                next_cta += 1;
                            }
                        } else if slot.arrived >= slot.warps_running {
                            // Last non-waiting warp exited: release the barrier.
                            slot.arrived = 0;
                            let base = slot_idx * g.wpc as usize;
                            for w in sm.warps[base..base + g.wpc as usize].iter_mut().flatten() {
                                w.at_barrier = false;
                            }
                        }
                    }
                }
                if clear_greedy {
                    sm.last = None;
                }
            }

            if done_ctas == total_ctas {
                stats.resident_warp_cycles += resident;
                stats.max_warp_cycles += num_sms as u64 * max_warps_hw;
                stats.issue_cycles += 1; // the Done event implies an issue
                cycle += 1;
                break Ok(());
            }

            // Advance time: one cycle after an issue, else fast-forward to the
            // next readiness event (clamped to a pending fault cycle).
            let advance = if issued_any {
                1
            } else {
                let mut nxt = u64::MAX;
                for sm in &m.sms {
                    for w in sm.warps.iter().flatten() {
                        if !w.done && !w.at_barrier && w.ready_at > cycle {
                            nxt = nxt.min(w.ready_at);
                        }
                    }
                }
                if nxt == u64::MAX {
                    break Err(LaunchAbort::Due(DueKind::BarrierDeadlock));
                }
                let mut target = nxt;
                if let Some(inj) = uarch.as_deref() {
                    if !inj.applied && inj.fault.cycle > cycle {
                        target = target.min(inj.fault.cycle);
                    }
                }
                // Land exactly on pending capture / convergence-check cycles;
                // splitting an idle stretch in two is stats-neutral (stall and
                // residency counters scale linearly with `advance`).
                if let Some(&cc) = capture_at.get(cap_idx) {
                    if cc > cycle {
                        target = target.min(cc);
                    }
                }
                if let Some(cv) = &converge {
                    if let Some(&gs) = cv.snaps.get(conv_idx) {
                        if golden_cycle(gs) > cycle {
                            target = target.min(golden_cycle(gs));
                        }
                    }
                }
                target - cycle
            };
            if issued_any {
                stats.issue_cycles += 1;
            } else {
                stats.stall_cycles += advance;
            }
            stats.resident_warp_cycles += resident * advance;
            stats.max_warp_cycles += num_sms as u64 * max_warps_hw * advance;
            cycle += advance;
            if cycle > budget_cycles {
                break Err(LaunchAbort::Timeout);
            }
        }
    };

    ctl.simulated_cycles = cycle - start_cycle;

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
        p.launch_end(cycle);
    }

    result?;

    stats.cycles = cycle;
    stats.mem_reads = mem_reads;
    stats.mem_writes = mem_writes;
    stats
        .l1d
        .add(&cache_delta(m.l1ds.iter().map(|c| c.stats), &l1d_start));
    stats
        .l1t
        .add(&cache_delta(m.l1ts.iter().map(|c| c.stats), &l1t_start));
    stats.l2.add(&one_cache_delta(m.l2.stats, &l2_start));
    Ok(stats)
}

/// Build the final launch [`Stats`] for a trial that converged with the
/// golden snapshot `gs` of `store`. The disturbed run simulated the prefix
/// up to the convergence cycle; golden's own counters cover the suffix
/// from `gs` to launch end, so the total is `prefix + (golden_end −
/// golden_at_gs)` for every engine counter, and the cache deltas compose
/// the same way against their per-launch baselines. The machine stays
/// where it converged: whoever continues the run restores the golden
/// post-launch snapshot (or follows it without restoring), so the launch
/// epilogue is skipped.
#[allow(clippy::too_many_arguments)]
fn splice_golden_suffix(
    cv: &ConvergeWith<'_>,
    store: &ChunkStore,
    gs: SnapId,
    mut stats: Stats,
    mem_reads: u64,
    mem_writes: u64,
    m: &Machine,
    l1d_start: &[CacheStats],
    l1t_start: &[CacheStats],
    l2_start: &CacheStats,
) -> Stats {
    let end = &cv.end_stats;
    let gl = store.launch_scalars(gs);
    let (g_l1s, g_l2) = store.cache_scalars(gs);
    let (g_l1ds, g_l1ts) = g_l1s.split_at(m.l1ds.len());
    stats.add_engine_delta(end, &gl.stats);
    stats.cycles = end.cycles;
    stats.mem_reads = mem_reads + (end.mem_reads - gl.mem_reads);
    stats.mem_writes = mem_writes + (end.mem_writes - gl.mem_writes);
    // Cache counters: what this run accumulated so far plus golden's
    // remaining share of its own per-launch delta.
    stats.l1d = cache_delta(m.l1ds.iter().map(|c| c.stats), l1d_start);
    stats.l1t = cache_delta(m.l1ts.iter().map(|c| c.stats), l1t_start);
    stats.l2 = one_cache_delta(m.l2.stats, l2_start);
    let mut tail = end.l1d;
    sub_stats(
        &mut tail,
        &cache_delta(g_l1ds.iter().map(|c| c.stats), &gl.l1d_start),
    );
    stats.l1d.add(&tail);
    let mut tail = end.l1t;
    sub_stats(
        &mut tail,
        &cache_delta(g_l1ts.iter().map(|c| c.stats), &gl.l1t_start),
    );
    stats.l1t.add(&tail);
    let mut tail = end.l2;
    sub_stats(&mut tail, &one_cache_delta(g_l2.stats, &gl.l2_start));
    stats.l2.add(&tail);
    stats
}

/// Sum of per-cache stat deltas against their launch-start baselines.
fn cache_delta(now: impl Iterator<Item = CacheStats>, starts: &[CacheStats]) -> CacheStats {
    let mut acc = CacheStats::default();
    for (c, s0) in now.zip(starts) {
        acc.add(&one_cache_delta(c, s0));
    }
    acc
}

fn one_cache_delta(mut now: CacheStats, s0: &CacheStats) -> CacheStats {
    sub_stats(&mut now, s0);
    now
}

fn sub_stats(a: &mut CacheStats, b: &CacheStats) {
    a.accesses -= b.accesses;
    a.misses -= b.misses;
    a.pending_hits -= b.pending_hits;
    a.reservation_fails -= b.reservation_fails;
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
}
