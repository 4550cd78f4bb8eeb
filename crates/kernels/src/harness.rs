//! The application harness: drives multi-kernel GPU applications through
//! golden and fault-injection runs, with optional thread-level TMR
//! hardening (Figure 6 of the paper).
//!
//! A [`Benchmark`] implementation expresses its host program against
//! [`RunCtl`]: it allocates device buffers once, initializes inputs, and
//! interleaves kernel launches with host-side glue. The same host program
//! is then run two ways:
//!
//! * **fault-free**, by [`golden_pass`] — the one profiling run each of the
//!   paper's methodologies needs per application. It records per-launch
//!   statistics and the final output (the [`GoldenRun`]) and feeds whatever
//!   [`Sinks`] ride along: ACE lifetime accounting and the access trace
//!   (both sinks of the timed engine's probe stream), golden-prefix
//!   snapshots (timed engine), the CTA log (functional engine). Sinks
//!   observe, never perturb: a pass given a reference run is compared with
//!   it, in one place;
//! * **faulty**, by [`faulty_run_with`] — one fault injected into one
//!   chosen launch, the outcome classified against the golden output,
//!   reusing whatever golden material an [`Accel`] offers.
//!
//! Either way the **hardened** variant transparently triplicates buffers,
//! launches with `grid_y == 3`, and majority-votes after every protected
//! kernel (Figure 6 of the paper).

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use vgpu_arch::{Kernel, LaunchConfig};
use vgpu_sim::due::LaunchAbort;
use vgpu_sim::{
    record_launch, tee, ArenaPlanner, Budget, ChunkStore, ConvergeWith, FaultPlan, Gpu, GpuConfig,
    LifetimeTracker, Mode, SharedSink, SnapId, Stats, SwFault, SwInjector, UarchFault,
    UarchInjector,
};

use crate::ctalog::{CtaLog, CtaReplay};
use crate::tmr;

thread_local! {
    /// Per-thread GPU scratch pool: [`faulty_run_with`] parks
    /// its `Gpu` here on exit and `RunCtl::alloc` revives it when the next
    /// trial on this thread wants an identical configuration and arena
    /// layout — zeroed in place, or, for a fast-forward trial, as it is:
    /// the machine remembers the snapshot it was last synchronised with
    /// and what it wrote since, so the trial's first restore copies only
    /// that. Under rayon this makes the hot campaign loop reuse one arena
    /// per worker instead of reallocating megabytes per trial.
    static GPU_SCRATCH: RefCell<Option<Gpu>> = const { RefCell::new(None) };
}

/// Why an application run did not produce an output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppAbort {
    /// A kernel crashed or timed out.
    Launch(LaunchAbort),
    /// TMR majority voting found three mutually different copies
    /// (classified as DUE, per the paper's Figure 6 workflow).
    VoteFailed,
}

impl From<LaunchAbort> for AppAbort {
    fn from(l: LaunchAbort) -> Self {
        AppAbort::Launch(l)
    }
}

/// Fault-effect classification (Section II-A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    Masked,
    Sdc,
    Timeout,
    Due,
}

/// Result of one faulty application run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    pub outcome: Outcome,
    /// Total timed cycles (or functional instructions) of the run, used by
    /// the Figure-11 control-path proxy: a masked run whose cycle count
    /// differs from golden had its control path disturbed. Under
    /// fast-forward this still counts *architectural* cycles — skipped
    /// prefixes and spliced suffixes are credited at their golden cost —
    /// so it is bit-identical to the slow path's value.
    pub total_cost: u64,
    /// Cycles (or instructions) actually simulated: `total_cost` minus
    /// everything fast-forward skipped or spliced. Equal to `total_cost`
    /// on the slow path. A scheduling statistic only — anything that
    /// feeds classification (including the campaign watchdog's cycle
    /// budget) must use `total_cost`, which both paths agree on.
    pub simulated_cost: u64,
    /// Cycle the injected launch was resumed at, if fast-forward used a
    /// mid-launch snapshot.
    pub resumed_at: Option<u64>,
    /// Whether the disturbed machine provably re-converged to golden
    /// (in-launch splice or launch-boundary match) and the remaining
    /// execution was credited instead of simulated.
    pub converged: bool,
    /// Whether the planned fault was actually applied (a fault aimed at an
    /// empty structure or past the end of execution never fires).
    pub applied: bool,
    /// For SDC outcomes: how many output words differ from golden — the
    /// error-propagation magnitude (a single SIMT fault frequently fans
    /// out into many corrupted outputs, cf. the paper's introduction).
    pub corrupted_words: u32,
    /// CTAs whose golden effects were applied from the CTA log instead of
    /// simulating them ([`Accel::CtaLog`] runs; 0 otherwise).
    pub ctas_replayed: u32,
    /// CTAs simulated one at a time under the CTA log (0 otherwise);
    /// launches simulated whole after the host diverged are not counted.
    pub ctas_simulated: u32,
    /// Bytes snapshot restores copied into the scratch machine
    /// ([`Accel::Snapshots`] runs; 0 otherwise).
    pub restored_bytes: u64,
}

/// Record of one launch during a golden run.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchRecord {
    /// Index into [`Benchmark::kernels`]. Vote launches carry the index of
    /// the kernel they protect.
    pub kernel_idx: usize,
    pub is_vote: bool,
    pub stats: Stats,
    /// Threads launched (all TMR copies included).
    pub threads: u64,
    /// CTAs launched.
    pub ctas: u64,
    /// Architectural registers per thread.
    pub num_regs: u8,
    /// Static shared memory per CTA in bytes.
    pub smem_bytes: u32,
}

/// Everything learned from a golden run.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenRun {
    pub records: Vec<LaunchRecord>,
    /// Final output words (copy 0 for hardened apps).
    pub output: Vec<u32>,
    /// Total cycles (timed) or thread instructions (functional).
    pub total_cost: u64,
}

impl GoldenRun {
    /// Aggregate statistics over the launches attributed to `kernel_idx`.
    pub fn kernel_stats(&self, kernel_idx: usize) -> Stats {
        let mut s = Stats::default();
        for r in self.records.iter().filter(|r| r.kernel_idx == kernel_idx) {
            s.add(&r.stats);
        }
        s
    }

    /// Aggregate statistics over the whole application.
    pub fn app_stats(&self) -> Stats {
        let mut s = Stats::default();
        for r in &self.records {
            s.add(&r.stats);
        }
        s
    }
}

/// The fault to inject into one specific launch of the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedFault {
    Uarch(UarchFault),
    Sw(SwFault),
}

/// Golden-prefix snapshots of one application, captured by
/// [`golden_run_snapshots`] and shared (via `Arc`) across every
/// fast-forward trial of a campaign: one chunk store, so the set costs
/// about one machine image plus what the run changed. Always timed, to
/// match the microarchitectural campaigns that consume them; a hardened
/// application's set holds its three copies and its vote launches like
/// any other buffers and launches.
#[derive(Debug)]
pub struct AppSnapshots {
    store: ChunkStore,
    /// The machine when the host program first looks at it (reads a word
    /// or launches a kernel), its initial writes done.
    initial: SnapId,
    /// `boundaries[i]`: device state immediately after golden launch `i`
    /// retired (before any host glue that follows it).
    boundaries: Vec<SnapId>,
    /// `mids[i]`: mid-launch snapshots of launch `i`, ascending by cycle;
    /// always includes cycle 0, so a resume point exists for every fault.
    mids: Vec<Vec<SnapId>>,
    /// Exact heap footprint of the store (the `snapshot_bytes` gauge).
    pub bytes: u64,
}

impl AppSnapshots {
    /// Total number of snapshots held (initial + mid-launch + boundary).
    pub fn count(&self) -> usize {
        self.store.len()
    }

    /// `(owned, shared)` chunk-table entries ([`ChunkStore::chunks`]).
    pub fn chunks(&self) -> (u64, u64) {
        self.store.chunks()
    }
}

/// What a golden pass records on top of its [`GoldenRun`]
/// ([`golden_pass`]). The sinks are independent of one another — any set
/// the engine of the pass serves may ride the same run — and each is
/// handed in empty and comes back filled in the [`GoldenPass`].
#[derive(Default)]
pub struct Sinks<'a> {
    /// The run this pass must reproduce bit for bit: output, total cost,
    /// per-launch statistics. A snapshot sink brings its own.
    pub reference: Option<&'a GoldenRun>,
    /// ACE lifetime accounting: a `vgpu_sim::lifetime` sink on the probe
    /// stream of the pass (timed engine).
    pub ace: Option<AceProfile>,
    /// Feed the engine's probe stream (`vgpu_sim::probe`) — its accesses
    /// and the host program's reads — to this sink: the recording side of
    /// the replay backend (`crates/trace`; timed engine).
    pub trace: Option<SharedSink>,
    /// Golden-prefix snapshots (timed engine).
    pub snapshots: Option<SnapshotSink<'a>>,
    /// What every CTA read and wrote (functional engine).
    pub cta_log: Option<CtaLog>,
}

/// What the ACE sink of a golden pass measured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AceProfile {
    /// Per-launch ACE word-cycle deltas (`HwStructure::ALL` order), one
    /// entry per [`GoldenRun::records`] element. L2 intervals still open
    /// when a launch retires are only counted once closed — they surface
    /// either in a later launch's delta or in the final residual.
    pub per_launch: Vec<[u64; 5]>,
    /// Final per-structure ACE word-cycle totals, including every L2
    /// interval closed at end of application (dirty lines live, clean
    /// lines dead).
    pub totals: [u64; 5],
    /// `Access` and `Range` probe events the sink consumed (work volume,
    /// for `obs`).
    pub events: u64,
}

/// The snapshot sink of a golden pass: `~k` mid-launch snapshots per
/// launch, evenly spaced over the launch, plus one at every launch
/// boundary — the [`AppSnapshots`] consumed under [`Accel::Snapshots`].
pub struct SnapshotSink<'a> {
    /// The reference golden run: capture cycles are spaced by its launch
    /// lengths, and the pass is compared with it.
    golden: &'a GoldenRun,
    k: usize,
    /// Test hook: `(ordinal, cycle)` — capture an extra snapshot of that
    /// launch at that cycle (clamped into the launch), immediately resume
    /// from it with no fault, and assert the suffix is reproduced
    /// bit-identically ([`verify_snapshot_resume`]).
    pub verify_resume: Option<(usize, u64)>,
    store: ChunkStore,
    initial: Option<SnapId>,
    boundaries: Vec<SnapId>,
    mids: Vec<Vec<SnapId>>,
}

impl<'a> SnapshotSink<'a> {
    pub fn new(golden: &'a GoldenRun, k: usize) -> Self {
        SnapshotSink {
            golden,
            k,
            verify_resume: None,
            store: ChunkStore::new(),
            initial: None,
            boundaries: Vec::new(),
            mids: Vec::new(),
        }
    }

    /// Run golden launch `ordinal` on `gpu`, capturing its mid-launch
    /// snapshots and the boundary snapshot after it.
    fn launch(
        &mut self,
        gpu: &mut Gpu,
        ordinal: usize,
        kernel: &Kernel,
        lc: &LaunchConfig,
    ) -> Result<Stats, LaunchAbort> {
        let cycles = self.golden.records.get(ordinal).map_or_else(
            || panic!("the pass launched more kernels than its reference golden run"),
            |r| r.stats.cycles,
        );
        let mut capture_at = snapshot_cycles(cycles, self.k);
        let probe_cycle = match self.verify_resume {
            Some((po, pc)) if po == ordinal => {
                let pc = pc.min(cycles.saturating_sub(1));
                if let Err(i) = capture_at.binary_search(&pc) {
                    capture_at.insert(i, pc);
                }
                Some(pc)
            }
            _ => None,
        };
        let store = &mut self.store;
        let (stats, snaps) =
            gpu.launch_instrumented(kernel, lc, &Budget::unlimited(), &capture_at, store)?;
        let boundary = gpu.capture(store);
        if let Some(pc) = probe_cycle {
            // Resume from the probe snapshot with no fault; the suffix
            // must be reproduced bit-for-bit in statistics, cycle count,
            // and machine state.
            let snap = *snaps
                .iter()
                .find(|&&s| store.cycle(s) == Some(pc))
                .expect("probe snapshot captured");
            let r = gpu
                .resume_from(store, snap, kernel, lc, None, &Budget::unlimited(), None)
                .unwrap_or_else(|e| panic!("fault-free resume aborted: {e:?}"));
            assert_eq!(r.stats, stats, "resume must reproduce golden stats");
            assert_eq!(r.resumed_at, pc);
            assert_eq!(r.simulated_cycles, stats.cycles - pc);
            assert!(r.converged_at.is_none());
            assert!(
                gpu.matches_image(store, boundary),
                "resume must reproduce the post-launch machine state verbatim"
            );
        }
        self.mids.push(snaps);
        self.boundaries.push(boundary);
        Ok(stats)
    }

    fn finish(mut self) -> AppSnapshots {
        self.store.shrink_to_fit();
        AppSnapshots {
            bytes: self.store.heap_bytes(),
            store: self.store,
            initial: self.initial.expect("the run launched a kernel"),
            boundaries: self.boundaries,
            mids: self.mids,
        }
    }
}

/// A finished [`golden_pass`]: the golden run and what its sinks hold.
pub struct GoldenPass {
    pub golden: GoldenRun,
    pub ace: Option<AceProfile>,
    pub snapshots: Option<AppSnapshots>,
    pub cta_log: Option<CtaLog>,
}

/// The golden material a faulty run may reuse instead of simulating
/// ([`faulty_run_with`]). Every choice classifies identically; they differ
/// in how much of the application is simulated.
#[derive(Debug, Clone, Copy)]
pub enum Accel<'a> {
    /// None: simulate the whole application — the reference the other two
    /// are verified against.
    None,
    /// Golden-prefix snapshots of the timed engine: follow them instead of
    /// simulating the prefix, resume the injected launch mid-flight, and
    /// credit whatever provably re-converges ([`SnapshotSink`]).
    Snapshots(&'a Arc<AppSnapshots>),
    /// The golden CTA log of the functional engine: simulate only the
    /// CTAs the fault can reach ([`Sinks::cta_log`]).
    CtaLog(&'a Arc<CtaLog>),
}

/// [`Accel`] plus the per-run state it needs.
enum AccelState<'a> {
    None,
    Snapshots(FfCtx<'a>),
    CtaLog(CtaReplay),
}

/// Fast-forward state threaded through one faulty run.
struct FfCtx<'a> {
    snaps: &'a AppSnapshots,
    /// The machine has provably re-converged to golden; every remaining
    /// launch is credited instead of simulated.
    converged: bool,
    /// Cycle the injected launch resumed at.
    resumed_at: Option<u64>,
    /// The golden snapshot the run is *following*: up to here it is
    /// bit-identical to the golden run, so nothing has been materialised
    /// on the scratch machine — skipped launches only move this, host
    /// reads are answered from the store, and a run that ends here has
    /// the golden output. `None` once the machine is live (the fault
    /// launch resumed, or a launch had to simulate).
    following: Option<SnapId>,
    /// Nothing has been read or launched yet: the host program cannot have
    /// left the golden one, so its writes are the ones the initial
    /// snapshot already holds, and are dropped.
    preamble: bool,
    /// Host writes since `following`, oldest first; replayed onto the
    /// machine if it has to go live before the next snapshot subsumes
    /// them.
    host_writes: Vec<(u32, u32)>,
    restored_bytes: u64,
}

impl FfCtx<'_> {
    fn follow(&mut self, snap: SnapId) {
        self.following = Some(snap);
        self.host_writes.clear();
    }

    /// A host write while following (`false`: the machine is live, write
    /// it there).
    fn host_write(&mut self, addr: u32, v: u32) -> bool {
        if self.following.is_some() && !self.preamble {
            self.host_writes.push((addr, v));
        }
        self.following.is_some()
    }

    /// Launch `ordinal` just retired (or converged mid-flight) on the live
    /// machine: if its state now equals the golden post-launch snapshot,
    /// the rest of the application is provably bit-identical to golden —
    /// follow it from there.
    fn check_boundary(&mut self, gpu: &Gpu, ordinal: usize) {
        if let Some(&boundary) = self.snaps.boundaries.get(ordinal) {
            self.converged = self.converged || gpu.converged(&self.snaps.store, boundary);
            if self.converged {
                self.follow(boundary);
            }
        }
    }

    /// Stop following: bring `gpu` to the followed snapshot plus the
    /// host writes made since. Must run before anything simulates on it
    /// or reads a word written since.
    fn go_live(&mut self, gpu: &mut Gpu) {
        self.preamble = false;
        if let Some(at) = self.following.take() {
            self.restored_bytes += gpu.restore(&self.snaps.store, at);
            for (addr, v) in self.host_writes.drain(..) {
                gpu.host_write_u32(addr, v);
            }
        }
    }
}

/// What a [`RunCtl`] is doing.
enum CtlMode<'a> {
    /// Fault-free pass feeding these sinks ([`golden_pass`]). Boxed: the
    /// per-trial `Faulty` controller should not carry their size.
    Golden(Box<Sinks<'a>>),
    Faulty {
        target_launch: usize,
        fault: PlannedFault,
        /// The golden run: per-launch budgets, prefix credit, the
        /// reference of the convergence exit.
        golden: &'a GoldenRun,
        /// Whole-application budget backstop.
        app_budget: Budget,
        applied: bool,
        accel: AccelState<'a>,
    },
}

/// Controller handed to [`Benchmark::run`]: owns the GPU, performs
/// (optionally triplicated) allocation and host access, launches kernels,
/// and injects the planned fault at the right launch.
pub struct RunCtl<'a> {
    pub cfg: &'a GpuConfig,
    mode_sim: Mode,
    hardened: bool,
    gpu: Option<Gpu>,
    tmr_stride: u32,
    flag_addr: u32,
    launch_idx: usize,
    records: Vec<LaunchRecord>,
    ctl: CtlMode<'a>,
    total_cost: u64,
    /// Cycles/instructions actually simulated (excludes fast-forwarded
    /// prefixes and spliced suffixes); equals `total_cost` off the fast
    /// path.
    simulated_cost: u64,
    outputs: Vec<(u32, u32)>,
}

impl<'a> RunCtl<'a> {
    fn new(cfg: &'a GpuConfig, mode_sim: Mode, hardened: bool, ctl: CtlMode<'a>) -> Self {
        RunCtl {
            cfg,
            mode_sim,
            hardened,
            gpu: None,
            tmr_stride: 0,
            flag_addr: 0,
            launch_idx: 0,
            records: Vec::new(),
            ctl,
            total_cost: 0,
            simulated_cost: 0,
            outputs: Vec::new(),
        }
    }

    /// Allocate all device buffers the application needs, in one shot.
    /// Returns the copy-0 base address of each buffer. In hardened mode the
    /// whole set is triplicated at a uniform stride and a vote-flag word is
    /// appended.
    pub fn alloc(&mut self, sizes: &[u32]) -> Vec<u32> {
        assert!(
            self.gpu.is_none(),
            "alloc must be called exactly once, first"
        );
        let mut planner = ArenaPlanner::new();
        let addrs: Vec<u32> = sizes.iter().map(|&s| planner.alloc(s)).collect();
        if self.hardened {
            let base0 = addrs[0];
            // Copies 1 and 2: repeat the same allocation sequence; the
            // planner is deterministic, so internal offsets are identical.
            let first1 = planner.alloc(sizes[0]);
            for &s in &sizes[1..] {
                planner.alloc(s);
            }
            self.tmr_stride = first1 - base0;
            let first2 = planner.alloc(sizes[0]);
            for &s in &sizes[1..] {
                planner.alloc(s);
            }
            assert_eq!(first2 - first1, self.tmr_stride, "uniform TMR stride");
            self.flag_addr = planner.alloc(4);
        }
        // A faulty run tries to revive the thread-local scratch `Gpu`
        // instead of building a fresh one (campaign hot path).
        let scratch = match self.ctl {
            CtlMode::Faulty { .. } => GPU_SCRATCH.take().filter(|g| {
                g.mode() == self.mode_sim && g.cfg == *self.cfg && planner.builds_layout_of(g.mem())
            }),
            CtlMode::Golden(_) => None,
        };
        let mut gpu = match scratch {
            Some(mut g) => {
                // Identical configuration and arena layout: reuse instead
                // of reallocating (hot campaign loop). A fast-forward run
                // restores a snapshot before it simulates anything, and
                // wants the machine as the last trial left it; any other
                // run starts from zeroed memory and reset caches.
                if self.ff().is_none() {
                    g.reset_in_place();
                }
                g
            }
            None => Gpu::new(self.cfg.clone(), planner.build(), self.mode_sim),
        };
        if let CtlMode::Golden(sinks) = &mut self.ctl {
            if let Some(sink) = sinks.trace.take() {
                gpu.attach_probe(sink);
            }
        }
        self.gpu = Some(gpu);
        addrs
    }

    /// Park this run's `Gpu` in the thread-local scratch pool for the next
    /// trial on this thread.
    fn stash_scratch(&mut self) {
        if let Some(g) = self.gpu.take() {
            GPU_SCRATCH.set(Some(g));
        }
    }

    /// The host program is about to observe the device for the first time
    /// (a read or a launch): whatever it wrote until now, it wrote without
    /// having seen anything, on the golden run and on every faulty one
    /// alike. A snapshot sink takes its initial snapshot here; a
    /// fast-forward run starts following it.
    fn observe(&mut self) {
        match &mut self.ctl {
            CtlMode::Golden(sinks) => {
                if let Some(snaps @ SnapshotSink { initial: None, .. }) = &mut sinks.snapshots {
                    let gpu = self.gpu.as_mut().expect("alloc before device access");
                    snaps.initial = Some(gpu.capture(&mut snaps.store));
                }
            }
            CtlMode::Faulty {
                accel: AccelState::Snapshots(ffc),
                ..
            } => ffc.preamble = false,
            _ => {}
        }
    }

    /// The fast-forward state of this run, if it has one.
    fn ff(&mut self) -> Option<&mut FfCtx<'a>> {
        match &mut self.ctl {
            CtlMode::Faulty {
                accel: AccelState::Snapshots(ffc),
                ..
            } => Some(ffc),
            _ => None,
        }
    }

    fn gpu_mut(&mut self) -> &mut Gpu {
        self.gpu
            .as_mut()
            .expect("alloc() must run before device access")
    }

    /// The CTA-log state of this run, if it has one.
    fn cta_replay(&mut self) -> Option<&mut CtaReplay> {
        match &mut self.ctl {
            CtlMode::Faulty {
                accel: AccelState::CtaLog(replay),
                ..
            } => Some(replay),
            _ => None,
        }
    }

    /// True when running the TMR-hardened variant.
    pub fn hardened(&self) -> bool {
        self.hardened
    }

    /// Region stride between TMR copies (0 when unhardened). Diagnostic.
    pub fn tmr_stride(&self) -> u32 {
        self.tmr_stride
    }

    /// Host write to a *single* copy, bypassing TMR replication — only for
    /// tests and diagnostics that need to desynchronise redundant copies.
    pub fn write_u32_single(&mut self, addr: u32, v: u32) {
        if self.ff().is_some_and(|f| f.host_write(addr, v)) {
            return;
        }
        self.gpu_mut().host_write_u32(addr, v);
        if let Some(replay) = self.cta_replay() {
            replay.host_write(addr);
        }
    }

    /// Host write, replicated to every TMR copy: each copy is a word of
    /// its own to the machine, to a followed snapshot and to the CTA log.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        let copies = if self.hardened { 3 } else { 1 };
        for c in 0..copies {
            self.write_u32_single(addr + c * self.tmr_stride, v);
        }
    }

    pub fn write_f32(&mut self, addr: u32, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Host read (copy 0 — the voted copy in hardened mode).
    pub fn read_u32(&mut self, addr: u32) -> u32 {
        self.observe();
        let RunCtl { ctl, gpu, .. } = self;
        if let CtlMode::Faulty {
            accel: AccelState::Snapshots(ffc),
            ..
        } = ctl
        {
            match ffc.following {
                Some(at) if ffc.host_writes.is_empty() => {
                    return ffc.snaps.store.host_word(at, addr);
                }
                // A word the host wrote since the followed snapshot is on
                // the machine once it is live.
                _ => ffc.go_live(gpu.as_mut().expect("alloc() must run before device access")),
            }
        }
        if let Some(replay) = self.cta_replay() {
            replay.host_read(addr);
        }
        let gpu = self.gpu_mut();
        gpu.probe_host_read(addr);
        gpu.host_read_u32(addr)
    }

    pub fn read_f32(&mut self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Register the application's final output buffers (copy-0 address,
    /// word count). Must be called before `finish`.
    pub fn set_outputs(&mut self, outputs: &[(u32, u32)]) {
        self.outputs = outputs.to_vec();
    }

    /// Launch `kernel` as benchmark kernel `kernel_idx` with `grid_x` CTAs
    /// of `block_x` threads and the given (benchmark-level) parameters.
    ///
    /// The TMR stride is prepended as parameter word 0 — kernels built with
    /// [`tmr::prologue`] use it to rebase their buffer pointers per copy —
    /// and hardened launches run with `grid_y == 3`.
    pub fn launch(
        &mut self,
        kernel_idx: usize,
        kernel: &Kernel,
        grid_x: u32,
        block_x: u32,
        params: Vec<u32>,
    ) -> Result<(), AppAbort> {
        let mut full_params = Vec::with_capacity(params.len() + 1);
        full_params.push(self.tmr_stride);
        full_params.extend(params);
        let lc = LaunchConfig {
            grid_x,
            grid_y: if self.hardened { 3 } else { 1 },
            block_x,
            params: full_params,
        };
        self.do_launch(kernel_idx, false, kernel, lc)
    }

    /// In hardened mode, majority-vote (and repair) the listed buffers
    /// produced by `kernel_idx`; a vote with three mutually different
    /// copies aborts the application as [`AppAbort::VoteFailed`].
    /// No-op when unhardened.
    pub fn vote(&mut self, kernel_idx: usize, bufs: &[(u32, u32)]) -> Result<(), AppAbort> {
        if !self.hardened {
            return Ok(());
        }
        for &(addr, words) in bufs {
            let vk = tmr::vote_kernel();
            let lc = LaunchConfig {
                grid_x: words.div_ceil(tmr::VOTE_BLOCK),
                grid_y: 1,
                block_x: tmr::VOTE_BLOCK,
                params: vec![self.tmr_stride, addr, words, self.flag_addr],
            };
            self.do_launch(kernel_idx, true, vk, lc)?;
            if self.read_u32(self.flag_addr) != 0 {
                return Err(AppAbort::VoteFailed);
            }
        }
        Ok(())
    }

    fn do_launch(
        &mut self,
        kernel_idx: usize,
        is_vote: bool,
        kernel: &Kernel,
        lc: LaunchConfig,
    ) -> Result<(), AppAbort> {
        let ordinal = self.launch_idx;
        self.launch_idx += 1;
        self.observe();
        match &mut self.ctl {
            CtlMode::Golden(sinks) => {
                let gpu = self.gpu.as_mut().expect("alloc before launch");
                let stats = if let Some(log) = &mut sinks.cta_log {
                    let max_stack = gpu.cfg.max_stack_depth;
                    let res = log.capture_launch(gpu.mem_mut(), kernel, &lc, max_stack);
                    record_launch(Mode::Functional, &res);
                    res?
                } else if let Some(snaps) = &mut sinks.snapshots {
                    snaps.launch(gpu, ordinal, kernel, &lc)?
                } else {
                    gpu.launch(kernel, &lc, FaultPlan::None, &Budget::unlimited())?
                };
                let cost = if gpu.mode() == Mode::Timed {
                    stats.cycles
                } else {
                    stats.thread_instrs
                };
                self.total_cost += cost;
                self.simulated_cost += cost;
                self.records.push(LaunchRecord {
                    kernel_idx,
                    is_vote,
                    stats,
                    threads: lc.num_threads(),
                    ctas: lc.num_ctas(),
                    num_regs: kernel.num_regs,
                    smem_bytes: kernel.smem_bytes,
                });
                Ok(())
            }
            CtlMode::Faulty {
                target_launch,
                fault,
                golden,
                app_budget,
                applied,
                accel,
            } => {
                let golden_stats = golden.records.get(ordinal).map(|r| &r.stats);
                let mut budget = launch_budget(golden_stats, self.cfg);
                // Whole-app backstop: never exceed the remaining budget.
                budget.cycles = budget
                    .cycles
                    .min(app_budget.cycles.saturating_sub(self.total_cost));
                budget.instrs = budget
                    .instrs
                    .min(app_budget.instrs.saturating_sub(self.total_cost));
                if budget.cycles == 0 || budget.instrs == 0 {
                    return Err(AppAbort::Launch(LaunchAbort::Timeout));
                }
                let fault_here = ordinal == *target_launch;
                let gpu = self.gpu.as_mut().expect("alloc before launch");

                if let AccelState::Snapshots(ffc) = accel {
                    let snaps = ffc.snaps;
                    // Fast-forward: a launch before the fault, or after the
                    // machine provably re-converged, executes bit-identically
                    // to golden — follow the run to its golden boundary
                    // snapshot and credit the golden cost instead of
                    // simulating. Nothing is restored: a run of skipped
                    // launches costs nothing until the machine goes live.
                    if !fault_here && (ordinal < *target_launch || ffc.converged) {
                        if let (Some(gstats), Some(&boundary)) =
                            (golden_stats, snaps.boundaries.get(ordinal))
                        {
                            // The slow path would simulate exactly the
                            // golden launch; it times out iff the golden
                            // cycle count exceeds the budget. Keep that
                            // equivalence exact.
                            if gstats.cycles > budget.cycles {
                                return Err(AppAbort::Launch(LaunchAbort::Timeout));
                            }
                            ffc.follow(boundary);
                            self.total_cost += gstats.cycles;
                            return Ok(());
                        }
                        // Launch the golden pass never saw (impossible for
                        // a deterministic benchmark): simulate it.
                    }
                    let mids = snaps.mids.get(ordinal).filter(|m| !m.is_empty());
                    if let (true, PlannedFault::Uarch(f), Some(mids), Some(gstats)) =
                        (fault_here, &*fault, mids, golden_stats)
                    {
                        // Resume from the nearest golden snapshot
                        // at-or-before the fault cycle — which subsumes
                        // whatever the run was following — with the
                        // convergence exit armed against the remaining
                        // golden snapshots of this launch.
                        let snap = *mids
                            .iter()
                            .rev()
                            .find(|&&s| snaps.store.cycle(s).is_some_and(|c| c <= f.cycle))
                            .expect("cycle-0 snapshot always exists");
                        ffc.following = None;
                        ffc.host_writes.clear();
                        let mut inj = UarchInjector::new(*f);
                        let cv = ConvergeWith {
                            snaps: mids,
                            end_stats: *gstats,
                        };
                        let out = gpu.resume_from(
                            &snaps.store,
                            snap,
                            kernel,
                            &lc,
                            Some(&mut inj),
                            &budget,
                            Some(cv),
                        );
                        *applied = inj.applied && inj.population > 0;
                        let out = out?;
                        ffc.resumed_at = Some(out.resumed_at);
                        ffc.restored_bytes += out.restored_bytes;
                        // Skipped prefix + credited suffix are not
                        // simulated.
                        self.simulated_cost += out.simulated_cycles;
                        self.total_cost += out.stats.cycles;
                        ffc.converged = out.converged_at.is_some();
                        ffc.check_boundary(gpu, ordinal);
                        return Ok(());
                    }
                    // This launch simulates for real.
                    ffc.go_live(gpu);
                }

                // CTA replay: simulate only the CTAs the fault can reach.
                if let AccelState::CtaLog(replay) = accel {
                    let sw = match fault {
                        PlannedFault::Sw(f) if fault_here => Some(&*f),
                        PlannedFault::Uarch(_) if fault_here => {
                            panic!("microarchitecture faults require the timed engine")
                        }
                        _ => None,
                    };
                    let max_stack = gpu.cfg.max_stack_depth;
                    if let Some(run) = replay.launch(
                        gpu.mem_mut(),
                        ordinal,
                        kernel,
                        &lc,
                        sw,
                        applied,
                        budget.instrs,
                        max_stack,
                    ) {
                        // The simulator counters see what was simulated;
                        // replayed CTAs are `sw_cta_total{path=replayed}`.
                        record_launch(
                            Mode::Functional,
                            &run.as_ref().map_err(|e| *e).map(|r| Stats {
                                thread_instrs: r.simulated_instrs,
                                ..Stats::default()
                            }),
                        );
                        let run = run?;
                        self.total_cost += run.stats.thread_instrs;
                        self.simulated_cost += run.simulated_instrs;
                        return Ok(());
                    }
                    // The log no longer applies: simulate the launch whole.
                }

                let result = if fault_here {
                    match fault {
                        PlannedFault::Uarch(f) => {
                            let mut inj = UarchInjector::new(*f);
                            let r = gpu.launch(kernel, &lc, FaultPlan::Uarch(&mut inj), &budget);
                            *applied = inj.applied && inj.population > 0;
                            r
                        }
                        PlannedFault::Sw(f) => {
                            let mut inj = SwInjector::new(*f);
                            let r = gpu.launch(kernel, &lc, FaultPlan::Sw(&mut inj), &budget);
                            *applied = inj.applied;
                            r
                        }
                    }
                } else {
                    gpu.launch(kernel, &lc, FaultPlan::None, &budget)
                };
                let stats = result?;
                let cost = if gpu.mode() == Mode::Timed {
                    stats.cycles
                } else {
                    stats.thread_instrs
                };
                self.total_cost += cost;
                self.simulated_cost += cost;
                // After the fault, a launch that retires with device state
                // identical to golden makes every later launch
                // bit-identical too — flag it so they are credited.
                if let (true, AccelState::Snapshots(ffc)) = (ordinal >= *target_launch, accel) {
                    ffc.check_boundary(gpu, ordinal);
                }
                Ok(())
            }
        }
    }

    fn snapshot_outputs(&mut self) -> Vec<u32> {
        let outputs = self.outputs.clone();
        let gpu = self.gpu_mut();
        let mut out = Vec::new();
        for &(addr, words) in &outputs {
            for i in 0..words {
                gpu.probe_host_read(addr + i * 4);
            }
            out.extend(gpu.host_read_block(addr, words));
        }
        out
    }
}

/// A GPU application: the 11 benchmarks implement this.
pub trait Benchmark: Sync {
    /// Application name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Kernel display names, e.g. `["K1", "K2"]`.
    fn kernels(&self) -> &'static [&'static str];

    /// The whole host program: allocate, initialize, launch, glue.
    /// All device interaction must go through `ctl`. Host-side loops must
    /// be iteration-capped so corrupted device data cannot hang the host.
    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort>;
}

/// Execution variant selector for [`golden_run`] / [`faulty_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    pub mode: Mode,
    pub hardened: bool,
}

impl Variant {
    pub const TIMED: Variant = Variant {
        mode: Mode::Timed,
        hardened: false,
    };
    pub const FUNCTIONAL: Variant = Variant {
        mode: Mode::Functional,
        hardened: false,
    };
    pub const TIMED_TMR: Variant = Variant {
        mode: Mode::Timed,
        hardened: true,
    };
    pub const FUNCTIONAL_TMR: Variant = Variant {
        mode: Mode::Functional,
        hardened: true,
    };
}

/// Run `bench` fault-free on the engine `variant` names, recording
/// per-launch statistics and the output, and feed `sinks` along the way.
/// This is the only fault-free run of the harness: every golden artefact —
/// the plain [`GoldenRun`], the ACE profile, the access trace, the
/// snapshot set, the CTA log — is this pass with the matching sink
/// attached. Sinks observe, never perturb: with a reference given, the
/// pass is checked against it before anything is returned.
///
/// # Panics
/// Panics if the fault-free application aborts (a benchmark bug, not a
/// measurable outcome), if it diverges from the reference, or if a sink
/// does not match `variant`.
pub fn golden_pass(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    variant: Variant,
    mut sinks: Sinks<'_>,
) -> GoldenPass {
    if sinks.snapshots.is_some() {
        assert_eq!(variant.mode, Mode::Timed, "snapshots are timed");
    }
    if sinks.cta_log.is_some() {
        assert_eq!(variant.mode, Mode::Functional, "the CTA log is functional");
    }
    // The ACE sink rides the same probe stream as the trace sink.
    let lifetimes = sinks
        .ace
        .as_ref()
        .map(|_| Arc::new(Mutex::new(LifetimeTracker::new(cfg))));
    if let Some(lifetimes) = &lifetimes {
        sinks.trace = Some(match sinks.trace.take() {
            Some(trace) => tee(lifetimes.clone(), trace),
            None => lifetimes.clone(),
        });
    }
    let app = bench.name();
    let mode = CtlMode::Golden(Box::new(sinks));
    let mut ctl = RunCtl::new(cfg, variant.mode, variant.hardened, mode);
    bench
        .run(&mut ctl)
        .unwrap_or_else(|e| panic!("golden pass of {app} aborted: {e:?}"));
    assert!(!ctl.outputs.is_empty(), "{app} registered no outputs");
    let golden = GoldenRun {
        output: ctl.snapshot_outputs(),
        records: std::mem::take(&mut ctl.records),
        total_cost: ctl.total_cost,
    };
    let CtlMode::Golden(mut sinks) = ctl.ctl else {
        unreachable!()
    };
    let snapshot_reference = sinks.snapshots.as_ref().map(|s| s.golden);
    if let Some(reference) = snapshot_reference.or(sinks.reference) {
        assert_same_golden(&golden, reference, app);
    }
    // A probe sink has seen the whole stream by the time anyone looks at it.
    let gpu = ctl.gpu.as_mut().expect("alloc ran");
    gpu.detach_probe();
    if let (Some(ace), Some(lifetimes)) = (&mut sinks.ace, lifetimes) {
        let mut lifetimes = lifetimes.lock().expect("lifetime sink poisoned");
        lifetimes.finalize(|line| gpu.l2().line_dirty(line));
        ace.per_launch = lifetimes.per_launch().to_vec();
        ace.totals = lifetimes.ace_word_cycles();
        ace.events = lifetimes.events();
    }
    GoldenPass {
        golden,
        ace: sinks.ace,
        snapshots: sinks.snapshots.map(SnapshotSink::finish),
        cta_log: sinks.cta_log,
    }
}

/// A pass with sinks attached must reproduce its reference golden run:
/// output, cost, and per-launch statistics.
fn assert_same_golden(pass: &GoldenRun, reference: &GoldenRun, app: &str) {
    assert!(
        pass.output == reference.output,
        "instrumented pass of {app} diverged from golden output"
    );
    assert_eq!(
        (pass.total_cost, pass.records.len()),
        (reference.total_cost, reference.records.len()),
        "instrumented pass of {app} diverged from golden cost or launch count"
    );
    for (i, (t, p)) in pass.records.iter().zip(&reference.records).enumerate() {
        assert_eq!(
            t.stats, p.stats,
            "instrumented pass of {app} diverged from golden stats at launch {i}"
        );
    }
}

/// [`golden_pass`] with no sink: the plain golden run.
pub fn golden_run(bench: &dyn Benchmark, cfg: &GpuConfig, variant: Variant) -> GoldenRun {
    golden_pass(bench, cfg, variant, Sinks::default()).golden
}

/// [`golden_pass`] of the unhardened application with the snapshot sink
/// alone: `~k` mid-launch snapshots per launch plus one at every launch
/// boundary — the golden-prefix material consumed by [`faulty_run_ff`].
pub fn golden_run_snapshots(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    golden: &GoldenRun,
    k: usize,
) -> AppSnapshots {
    let sinks = Sinks {
        snapshots: Some(SnapshotSink::new(golden, k)),
        ..Sinks::default()
    };
    let pass = golden_pass(bench, cfg, Variant::TIMED, sinks);
    pass.snapshots.expect("asked for")
}

/// The `~k` capture cycles for a launch of `cycles` total: evenly spaced,
/// deduplicated, always including cycle 0 (so every fault cycle has a
/// snapshot at-or-before it) and never reaching the final cycle (which a
/// completing launch may never revisit).
fn snapshot_cycles(cycles: u64, k: usize) -> Vec<u64> {
    let k = k.max(1) as u64;
    let mut v: Vec<u64> = (0..k).map(|i| i * cycles / k).collect();
    v.dedup();
    v
}

/// Test helper: capture an extra snapshot of launch `ordinal` at `cycle`
/// (clamped into the launch), resume from it with no fault, and assert
/// the golden suffix — statistics, cycle count, post-launch device state,
/// and final application output — is reproduced bit-identically.
///
/// # Panics
/// Panics (or fails an assertion) on any divergence.
pub fn verify_snapshot_resume(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    golden: &GoldenRun,
    ordinal: usize,
    cycle: u64,
) {
    assert!(ordinal < golden.records.len(), "probe ordinal out of range");
    let mut snapshots = SnapshotSink::new(golden, 2);
    snapshots.verify_resume = Some((ordinal, cycle));
    let sinks = Sinks {
        snapshots: Some(snapshots),
        ..Sinks::default()
    };
    golden_pass(bench, cfg, Variant::TIMED, sinks);
}

/// The budget of one faulty launch, from the statistics of its golden
/// counterpart (a launch the golden run never made gets a fixed one).
fn launch_budget(golden: Option<&Stats>, cfg: &GpuConfig) -> Budget {
    golden.map_or(
        Budget {
            cycles: 1 << 22,
            instrs: 1 << 26,
        },
        |s| Budget {
            cycles: (s.cycles * cfg.timeout_factor).max(cfg.min_timeout_cycles),
            instrs: (s.thread_instrs * cfg.timeout_factor).max(1 << 20),
        },
    )
}

/// The whole-application budget of a faulty run.
fn app_budget(golden: &GoldenRun, cfg: &GpuConfig) -> Budget {
    Budget {
        cycles: (golden.total_cost * cfg.timeout_factor).max(cfg.min_timeout_cycles),
        instrs: (golden.total_cost * cfg.timeout_factor).max(1 << 20),
    }
}

/// Run `bench` with one injected fault and classify the outcome against
/// `golden`, simulating the whole application: [`faulty_run_with`] under
/// [`Accel::None`].
pub fn faulty_run(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    variant: Variant,
    golden: &GoldenRun,
    target_launch: usize,
    fault: PlannedFault,
) -> RunResult {
    faulty_run_with(
        bench,
        cfg,
        variant,
        golden,
        target_launch,
        fault,
        Accel::None,
    )
}

/// [`faulty_run`] on the timed engine with golden-prefix fast-forward:
/// [`faulty_run_with`] under [`Accel::Snapshots`].
pub fn faulty_run_ff(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    golden: &GoldenRun,
    snaps: &Arc<AppSnapshots>,
    target_launch: usize,
    fault: PlannedFault,
) -> RunResult {
    faulty_run_with(
        bench,
        cfg,
        Variant::TIMED,
        golden,
        target_launch,
        fault,
        Accel::Snapshots(snaps),
    )
}

/// Run `bench` with `fault` injected into launch `target_launch` and
/// classify the outcome against `golden`, reusing golden material where
/// `accel` offers it. The returned classification, `total_cost`, `applied`
/// and `corrupted_words` are bit-identical under every [`Accel`].
///
/// * [`Accel::Snapshots`] (timed engine): the fault-free prefix
///   follows golden snapshots instead of simulating, a microarchitecture
///   fault resumes its launch from the nearest snapshot at-or-before the
///   fault cycle, and execution that provably re-converges to golden
///   (in-launch or at a launch boundary) is credited at its golden cost.
/// * [`Accel::CtaLog`] (functional engine): CTAs the fault cannot
///   reach apply their golden stores instead of simulating
///   ([`crate::ctalog`]).
///
/// # Panics
/// Panics if `accel` does not match `variant`.
pub fn faulty_run_with(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    variant: Variant,
    golden: &GoldenRun,
    target_launch: usize,
    fault: PlannedFault,
    accel: Accel<'_>,
) -> RunResult {
    let accel = match accel {
        Accel::None => AccelState::None,
        Accel::Snapshots(snaps) => {
            assert_eq!(variant.mode, Mode::Timed, "snapshots are timed");
            AccelState::Snapshots(FfCtx {
                snaps,
                converged: false,
                resumed_at: None,
                following: Some(snaps.initial),
                preamble: true,
                host_writes: Vec::new(),
                restored_bytes: 0,
            })
        }
        Accel::CtaLog(log) => {
            assert_eq!(variant.mode, Mode::Functional, "the CTA log is functional");
            AccelState::CtaLog(CtaReplay::new(log))
        }
    };
    let mut ctl = RunCtl::new(
        cfg,
        variant.mode,
        variant.hardened,
        CtlMode::Faulty {
            target_launch,
            fault,
            golden,
            app_budget: app_budget(golden, cfg),
            applied: false,
            accel,
        },
    );
    let run = bench.run(&mut ctl);
    let (outcome, corrupted_words) = match run {
        // Still following the golden run at the end: its output is the
        // golden output, no need to read it back.
        Ok(()) if ctl.ff().is_some_and(|f| f.following.is_some()) => (Outcome::Masked, 0),
        Ok(()) => {
            let out = ctl.snapshot_outputs();
            let corrupted_words = out
                .iter()
                .zip(&golden.output)
                .filter(|(a, b)| a != b)
                .count() as u32;
            let outcome = if corrupted_words == 0 {
                Outcome::Masked
            } else {
                Outcome::Sdc
            };
            (outcome, corrupted_words)
        }
        Err(AppAbort::Launch(LaunchAbort::Timeout)) => (Outcome::Timeout, 0),
        Err(AppAbort::Launch(LaunchAbort::Due(_))) | Err(AppAbort::VoteFailed) => (Outcome::Due, 0),
    };
    let CtlMode::Faulty { applied, accel, .. } = &ctl.ctl else {
        unreachable!()
    };
    let mut result = RunResult {
        outcome,
        total_cost: ctl.total_cost,
        simulated_cost: ctl.simulated_cost,
        resumed_at: None,
        converged: false,
        applied: *applied,
        corrupted_words,
        ctas_replayed: 0,
        ctas_simulated: 0,
        restored_bytes: 0,
    };
    match accel {
        AccelState::None => {}
        AccelState::Snapshots(ffc) => {
            result.resumed_at = ffc.resumed_at;
            result.converged = ffc.converged;
            result.restored_bytes = ffc.restored_bytes;
        }
        AccelState::CtaLog(replay) => {
            result.converged = run.is_ok() && replay.converged();
            result.ctas_replayed = replay.replayed;
            result.ctas_simulated = replay.simulated;
        }
    }
    ctl.stash_scratch();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_and_abort_conversions() {
        let a: AppAbort = LaunchAbort::Timeout.into();
        assert_eq!(a, AppAbort::Launch(LaunchAbort::Timeout));
        assert_ne!(a, AppAbort::VoteFailed);
    }

    #[test]
    fn golden_run_aggregations() {
        let mk = |kernel_idx, cycles, instrs| LaunchRecord {
            kernel_idx,
            is_vote: false,
            stats: Stats {
                cycles,
                thread_instrs: instrs,
                ..Default::default()
            },
            threads: 64,
            ctas: 2,
            num_regs: 8,
            smem_bytes: 0,
        };
        let g = GoldenRun {
            records: vec![mk(0, 100, 1000), mk(1, 50, 700), mk(0, 200, 2000)],
            output: vec![],
            total_cost: 350,
        };
        assert_eq!(g.kernel_stats(0).cycles, 300);
        assert_eq!(g.kernel_stats(0).thread_instrs, 3000);
        assert_eq!(g.kernel_stats(1).cycles, 50);
        assert_eq!(g.app_stats().cycles, 350);
    }

    #[test]
    fn variants_cover_the_grid() {
        assert_eq!(Variant::TIMED.mode, Mode::Timed);
        assert!(!Variant::TIMED.hardened);
        assert!(Variant::TIMED_TMR.hardened);
        assert_eq!(Variant::FUNCTIONAL.mode, Mode::Functional);
        assert!(Variant::FUNCTIONAL_TMR.hardened);
    }
}
