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
//!   reusing whatever golden material an [`Accel`] offers. The controller
//!   puts each launch and host access to the run's accelerator through one
//!   contract (`Accelerator`) and simulates whatever it declines; it holds
//!   no code of its own for either accelerator, which live in
//!   [`crate::ffwd`] (golden-prefix snapshots) and [`crate::ctalog`] (the
//!   golden CTA log).
//!
//! Either way the **hardened** variant transparently triplicates buffers,
//! launches with `grid_y == 3`, and majority-votes after every protected
//! kernel (Figure 6 of the paper).

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use vgpu_arch::{Kernel, LaunchConfig};
use vgpu_sim::due::LaunchAbort;
use vgpu_sim::{
    record_launch, tee, ArenaPlanner, Budget, FaultPlan, Gpu, GpuConfig, LifetimeTracker, Mode,
    SharedSink, Stats, SwFault, SwInjector, UarchFault, UarchInjector,
};

use crate::ctalog::{CtaLog, CtaReplay};
use crate::ffwd::{AppSnapshots, FfCtx, SnapshotSink};
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
    /// The trial provably re-joined the golden run for good: what is left
    /// of its host program is the golden one, so it stops at the launch
    /// that re-joins (or the next one) and [`faulty_run_with`] credits the
    /// golden launches it did not make. Never ends a golden pass or an
    /// unaccelerated trial.
    Rejoined,
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
    /// feeds classification must use `total_cost`, which both paths
    /// agree on.
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

/// What a golden pass records on top of its [`GoldenRun`]
/// ([`golden_pass`]). The sinks are independent of one another — any set
/// the engine of the pass serves may ride the same run — and each is
/// handed in empty and comes back filled in the [`GoldenPass`].
#[derive(Default)]
pub struct Sinks<'a> {
    /// The run this pass must reproduce bit for bit: output, total cost,
    /// per-launch statistics. A snapshot sink brings its own.
    pub reference: Option<&'a GoldenRun>,
    /// The arena this pass must hold when its host program first observes
    /// the device — a [`CtaLog::image`] to check: compared there.
    pub preamble: Option<&'a [u8]>,
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
    /// for `obs`). A warp's register operand is one event per run of
    /// executing lanes — one for a full warp — not one per lane, so this
    /// counts far fewer events than the words they touch.
    pub events: u64,
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
    /// credit whatever provably re-converges ([`crate::ffwd`]).
    Snapshots(&'a Arc<AppSnapshots>),
    /// The golden CTA log of the functional engine: simulate only the
    /// CTAs the fault can reach ([`crate::ctalog`]).
    CtaLog(&'a Arc<CtaLog>),
}

/// The one contract of a trial accelerator: the golden material of an
/// [`Accel`], consulted by a faulty run's [`RunCtl`] at each launch and
/// host access. Every call may decline — a launch to simulate whole, a
/// host access for the machine — and what it does not decline it answers
/// exactly as the whole simulation would. [`Accel::None`] declines
/// everything.
pub(crate) trait Accelerator {
    /// Whether the trial drops the host writes of its preamble: it starts
    /// from golden material that already holds them.
    fn drops_preamble(&self) -> bool;

    /// The host program observes the device for the first time
    /// ([`RunCtl::observe`]).
    fn enter(&mut self, gpu: &mut Gpu);

    /// Decide launch `l` — credit it, resume it, replay it — or decline
    /// it (`applied`: whether the planned fault fired).
    fn launch(&mut self, gpu: &mut Gpu, l: &TrialLaunch<'_>, applied: &mut bool) -> Decision;

    /// The host reads `out.len()` words from `addr` after `launches`
    /// launches: `true` when the accelerator answered into `out`, `false`
    /// when they are to be read from the machine.
    fn host_read(&mut self, gpu: &mut Gpu, launches: usize, addr: u32, out: &mut [u32]) -> bool;

    /// The host writes `v` to `addr` after `launches` launches: `true`
    /// when the accelerator took the write, `false` when it is to be made
    /// on the machine.
    fn host_write(&mut self, launches: usize, addr: u32, v: u32) -> bool;

    /// Whether the trial has provably re-joined the golden run for good:
    /// the device equals golden and every host read since the fault saw
    /// the golden word. Asked before every launch and after every one that
    /// completes.
    fn rejoined(&mut self, gpu: &Gpu) -> bool;

    /// Add what the accelerator knows to the classified `r`;
    /// `credited_ctas`: the CTAs of the golden launches credited after the
    /// trial re-joined golden.
    fn fill(&self, r: &mut RunResult, credited_ctas: u64);
}

/// One launch of a faulty run, as its [`Accelerator`] is asked to decide
/// it.
pub(crate) struct TrialLaunch<'r> {
    pub ordinal: usize,
    /// The launch the planned fault targets.
    pub target: usize,
    /// The planned fault, if this launch carries it.
    pub fault: Option<&'r PlannedFault>,
    pub kernel: &'static Kernel,
    pub lc: &'r LaunchConfig,
    /// The golden run's record of this launch, if it made one.
    pub golden: Option<&'r LaunchRecord>,
    /// What the launch may spend ([`budget_left`]).
    pub budget: Budget,
}

/// An [`Accelerator`]'s answer to a launch: `Some` when it decided the
/// launch, with why it aborted or its [`LaunchCost`]; `None` when it
/// cannot decide, and the launch simulates whole.
pub(crate) type Decision = Option<Result<LaunchCost, AppAbort>>;

/// What a launch cost, and how much of that was simulated, in cycles
/// (timed) or thread instructions (functional).
pub(crate) type LaunchCost = (u64, u64);

/// [`Accel`] plus the per-run state it needs.
enum AccelState<'a> {
    None,
    Snapshots(FfCtx<'a>),
    CtaLog(CtaReplay),
}

/// Make one [`Accelerator`] call on the accelerator an [`AccelState`]
/// holds, dispatched statically; `$none` is the answer of
/// [`Accel::None`], which declines everything.
macro_rules! on_accel {
    ($state:expr, $none:expr, $a:ident => $call:expr) => {
        match $state {
            AccelState::None => $none,
            AccelState::Snapshots($a) => $call,
            AccelState::CtaLog($a) => $call,
        }
    };
}

impl<'a> AccelState<'a> {
    fn new(accel: Accel<'a>, mode: Mode) -> Self {
        match accel {
            Accel::None => AccelState::None,
            Accel::Snapshots(snaps) => {
                assert_eq!(mode, Mode::Timed, "snapshots are timed");
                AccelState::Snapshots(FfCtx::new(snaps))
            }
            Accel::CtaLog(log) => {
                assert_eq!(mode, Mode::Functional, "the CTA log is functional");
                AccelState::CtaLog(CtaReplay::new(log))
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
    /// Nothing has been read or launched yet ([`RunCtl::observe`]).
    preamble: bool,
    /// The accelerator reported that the trial re-joined golden for good
    /// ([`RunCtl::check_rejoined`]).
    rejoined: bool,
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
            preamble: true,
            rejoined: false,
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
                // of reallocating (hot campaign loop). A run that drops
                // its preamble starts from golden material — a snapshot
                // restore, which wants the machine as the last trial left
                // it, or the CTA log's image, copied whole; any other run
                // starts from zeroed memory and reset caches.
                if !self.drops_preamble() {
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

    /// The host program is about to observe the device (a read or a
    /// launch). The first time, its preamble ends: whatever it wrote until
    /// now, it wrote without having seen anything, on the golden run and
    /// on every faulty one alike. A snapshot sink takes its initial
    /// snapshot here and a fast-forward run starts following it; the CTA
    /// log copies the arena here and a CTA-log run gets that copy.
    #[inline]
    fn observe(&mut self) {
        if self.preamble {
            self.end_preamble();
        }
    }

    fn end_preamble(&mut self) {
        self.preamble = false;
        let gpu = self.gpu.as_mut().expect("alloc before device access");
        match &mut self.ctl {
            CtlMode::Golden(sinks) => {
                if let Some(image) = sinks.preamble {
                    assert!(
                        gpu.mem().data() == image,
                        "the arena at the first observation differs from the image"
                    );
                }
                if let Some(snaps) = &mut sinks.snapshots {
                    snaps.capture_initial(gpu);
                }
                if let Some(log) = &mut sinks.cta_log {
                    log.capture_image(gpu.mem());
                }
            }
            CtlMode::Faulty { accel, .. } => on_accel!(accel, (), a => a.enter(gpu)),
        }
    }

    /// Whether this run drops the host writes of its preamble
    /// ([`Accelerator::drops_preamble`]).
    fn drops_preamble(&self) -> bool {
        let CtlMode::Faulty { accel, .. } = &self.ctl else {
            return false;
        };
        on_accel!(accel, false, a => a.drops_preamble())
    }

    /// Whether a host write made now is dropped ([`RunCtl::drops_preamble`]).
    fn drops_write(&self) -> bool {
        self.preamble && self.drops_preamble()
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
        if self.drops_write() {
            return;
        }
        if let CtlMode::Faulty { accel, .. } = &mut self.ctl {
            if on_accel!(accel, false, a => a.host_write(self.launch_idx, addr, v)) {
                return;
            }
        }
        let gpu = self.gpu.as_mut().expect("alloc before device access");
        gpu.host_write_u32(addr, v);
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

    /// Host write of `words` consecutive words from `addr`, word `i` being
    /// `f(i)`, replicated like [`RunCtl::write_u32`]. Where the writes
    /// would be dropped — an accelerated trial's preamble — `f` is never
    /// called, so inputs are computed only where they land: the golden
    /// passes and the unaccelerated trials.
    pub fn write_with(&mut self, addr: u32, words: u32, f: impl Fn(u32) -> u32) {
        if self.drops_write() {
            return;
        }
        for i in 0..words {
            self.write_u32(addr + 4 * i, f(i));
        }
    }

    /// Host read (copy 0 — the voted copy in hardened mode).
    pub fn read_u32(&mut self, addr: u32) -> u32 {
        let mut word = [0];
        self.read_slice(addr, &mut word);
        word[0]
    }

    pub fn read_f32(&mut self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Host read of the `out.len()` consecutive words from `addr` (copy
    /// 0), into `out`: what a [`RunCtl::read_u32`] per word, in address
    /// order, returns and leaves behind. The accelerator may answer it;
    /// else the arena is read as one slice (word by word on the timed
    /// engine, and for an attached probe).
    pub fn read_slice(&mut self, addr: u32, out: &mut [u32]) {
        if out.is_empty() {
            return;
        }
        self.observe();
        let gpu = self.gpu.as_mut().expect("alloc before device access");
        if let CtlMode::Faulty { accel, .. } = &mut self.ctl {
            if on_accel!(accel, false, a => a.host_read(gpu, self.launch_idx, addr, out)) {
                return;
            }
        }
        gpu.probe_host_reads(addr, out.len() as u32);
        gpu.host_read_words(addr, out);
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
    /// and hardened launches run with `grid_y == 3`. Kernels are built once
    /// per process (a `OnceLock` per kernel function), so every run shares
    /// one decode and the golden CTA log knows a kernel by its address.
    pub fn launch(
        &mut self,
        kernel_idx: usize,
        kernel: &'static Kernel,
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

    /// Make one launch — unless the run has re-joined golden for good, or
    /// does with this launch: then what is left of the host program is
    /// the golden one, so the run stops, and `faulty_run_with` credits the
    /// golden launches from the first one not made.
    fn do_launch(
        &mut self,
        kernel_idx: usize,
        is_vote: bool,
        kernel: &'static Kernel,
        lc: LaunchConfig,
    ) -> Result<(), AppAbort> {
        self.check_rejoined()?;
        let ordinal = self.launch_idx;
        self.launch_idx += 1;
        self.observe();
        let gpu = self.gpu.as_mut().expect("alloc before launch");
        let (cost, simulated) = match &mut self.ctl {
            CtlMode::Golden(sinks) => {
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
                self.records.push(LaunchRecord {
                    kernel_idx,
                    is_vote,
                    stats,
                    threads: lc.num_threads(),
                    ctas: lc.num_ctas(),
                    num_regs: kernel.num_regs,
                    smem_bytes: kernel.smem_bytes,
                });
                let cost = cost(&stats, gpu.mode());
                (cost, cost)
            }
            CtlMode::Faulty {
                target_launch,
                fault,
                golden,
                app_budget,
                applied,
                accel,
                ..
            } => {
                let rec = golden.records.get(ordinal);
                let budget = budget_left(
                    rec.map(|r| &r.stats),
                    self.cfg,
                    self.mode_sim,
                    app_budget,
                    self.total_cost,
                )?;
                let l = TrialLaunch {
                    ordinal,
                    target: *target_launch,
                    fault: (ordinal == *target_launch).then_some(&*fault),
                    kernel,
                    lc: &lc,
                    golden: rec,
                    budget,
                };
                match on_accel!(accel, None, a => a.launch(gpu, &l, applied)) {
                    Some(decided) => decided?,
                    None => simulate(gpu, &l, applied)?,
                }
            }
        };
        self.total_cost += cost;
        self.simulated_cost += simulated;
        self.check_rejoined()
    }

    /// [`AppAbort::Rejoined`] once the accelerator has reported that the
    /// trial re-joined golden for good ([`Accelerator::rejoined`]).
    fn check_rejoined(&mut self) -> Result<(), AppAbort> {
        if let CtlMode::Faulty { accel, .. } = &mut self.ctl {
            let gpu = self.gpu.as_ref().expect("alloc before launch");
            self.rejoined = self.rejoined || on_accel!(accel, false, a => a.rejoined(gpu));
        }
        match self.rejoined {
            true => Err(AppAbort::Rejoined),
            false => Ok(()),
        }
    }
}

/// The output buffers `outputs` of `gpu`, read back as the host would at
/// the end.
fn read_outputs(gpu: &mut Option<Gpu>, outputs: &[(u32, u32)]) -> Vec<u32> {
    let gpu = gpu.as_mut().expect("alloc() must run before device access");
    let mut out = vec![0; outputs.iter().map(|&(_, words)| words as usize).sum()];
    let mut rest = &mut out[..];
    for &(addr, words) in outputs {
        let (buf, tail) = rest.split_at_mut(words as usize);
        gpu.probe_host_reads(addr, words);
        gpu.host_read_words(addr, buf);
        rest = tail;
    }
    out
}

/// Simulate faulty launch `l` whole, injecting its fault if it carries
/// one.
fn simulate(
    gpu: &mut Gpu,
    l: &TrialLaunch<'_>,
    applied: &mut bool,
) -> Result<LaunchCost, AppAbort> {
    let (mut uarch, mut sw) = (None, None);
    let plan = match l.fault {
        Some(PlannedFault::Uarch(f)) => FaultPlan::Uarch(uarch.insert(UarchInjector::new(*f))),
        Some(PlannedFault::Sw(f)) => FaultPlan::Sw(sw.insert(SwInjector::new(*f))),
        None => FaultPlan::None,
    };
    let run = gpu.launch(l.kernel, l.lc, plan, &l.budget);
    *applied |=
        uarch.is_some_and(|i| i.applied && i.population > 0) || sw.is_some_and(|i| i.applied);
    let cost = cost(&run?, gpu.mode());
    Ok((cost, cost))
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
    /// A launch returns [`AppAbort::Rejoined`] once an accelerated trial
    /// has re-joined golden; propagating it with `?` saves the rest of
    /// the host program's work, but the trial is classified from the
    /// re-join point whatever `run` returns.
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
        output: read_outputs(&mut ctl.gpu, &ctl.outputs),
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

/// `timeout_factor ×` a golden `cost` on `mode`'s engine, and at least
/// that engine's floor: `min_timeout_cycles` on the timed one, 2^20
/// thread-instructions on the functional one.
fn scaled_budget(cost: u64, cfg: &GpuConfig, mode: Mode) -> Budget {
    let floor = match mode {
        Mode::Timed => cfg.min_timeout_cycles,
        Mode::Functional => 1 << 20,
    };
    Budget {
        limit: (cost * cfg.timeout_factor).max(floor),
    }
}

/// The budget of one faulty launch on `mode`'s engine, from the
/// statistics of its golden counterpart (a launch the golden run never
/// made gets a fixed one).
fn launch_budget(golden: Option<&Stats>, cfg: &GpuConfig, mode: Mode) -> Budget {
    match (golden, mode) {
        (Some(s), _) => scaled_budget(cost(s, mode), cfg, mode),
        (None, Mode::Timed) => Budget { limit: 1 << 22 },
        (None, Mode::Functional) => Budget { limit: 1 << 26 },
    }
}

/// The whole-application budget of a faulty run on `mode`'s engine, the
/// engine of its golden run.
fn app_budget(golden: &GoldenRun, cfg: &GpuConfig, mode: Mode) -> Budget {
    scaled_budget(golden.total_cost, cfg, mode)
}

/// The budget of a faulty launch after the run has spent `spent`: its
/// own ([`launch_budget`]), capped by what is left of the application's.
/// Nothing left is a timeout before the launch starts.
fn budget_left(
    golden: Option<&Stats>,
    cfg: &GpuConfig,
    mode: Mode,
    app: &Budget,
    spent: u64,
) -> Result<Budget, AppAbort> {
    let own = launch_budget(golden, cfg, mode);
    match own.limit.min(app.limit.saturating_sub(spent)) {
        0 => Err(AppAbort::Launch(LaunchAbort::Timeout)),
        limit => Ok(Budget { limit }),
    }
}

/// What a launch costs on `mode`'s engine: cycles (timed) or thread
/// instructions (functional).
fn cost(stats: &Stats, mode: Mode) -> u64 {
    match mode {
        Mode::Timed => stats.cycles,
        Mode::Functional => stats.thread_instrs,
    }
}

/// Credit golden launches `records` at their golden cost instead of
/// simulating them, adding it to `spent`, the run's cost so far; returns
/// the CTAs credited. Simulating a golden launch reproduces it, so it
/// times out iff its golden cost exceeds its budget ([`budget_left`]):
/// crediting stops with a timeout exactly there, the launches before it
/// credited. The one way a faulty run skips a launch — the golden prefix
/// a fast-forward run follows, and whatever is left once a run re-joined
/// golden — so the two cannot disagree on a timeout.
fn credit(
    records: &[LaunchRecord],
    cfg: &GpuConfig,
    mode: Mode,
    app: &Budget,
    spent: &mut u64,
) -> Result<u64, AppAbort> {
    let mut ctas = 0;
    for r in records {
        let budget = budget_left(Some(&r.stats), cfg, mode, app, *spent)?;
        *spent += credit_one(r, mode, &budget)?;
        ctas += r.ctas;
    }
    Ok(ctas)
}

/// [`credit`] of golden launch `r` alone, given the budget a simulation
/// of it would get: its golden cost, or a timeout if that exceeds the
/// budget.
pub(crate) fn credit_one(r: &LaunchRecord, mode: Mode, budget: &Budget) -> Result<u64, AppAbort> {
    match cost(&r.stats, mode) {
        cost if cost > budget.limit => Err(AppAbort::Launch(LaunchAbort::Timeout)),
        cost => Ok(cost),
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
/// Under either, the trial starts from the golden material at the host
/// program's first observation instead of making its preamble's writes.
/// A trial whose accelerator reports that it re-joined golden for good
/// stops at its next launch ([`AppAbort::Rejoined`]) and is classified
/// from there, whatever its host program returned: what is left of the
/// host program is the golden one, so the golden launches it did not make
/// are credited, and it is Masked.
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
    let mut ctl = RunCtl::new(
        cfg,
        variant.mode,
        variant.hardened,
        CtlMode::Faulty {
            target_launch,
            fault,
            golden,
            app_budget: app_budget(golden, cfg, variant.mode),
            applied: false,
            accel: AccelState::new(accel, variant.mode),
        },
    );
    let run = bench.run(&mut ctl);
    let CtlMode::Faulty { applied, accel, .. } = &ctl.ctl else {
        unreachable!()
    };
    let mut credited_ctas = 0;
    let run = match ctl.rejoined {
        true => credit(
            &golden.records[ctl.launch_idx..],
            cfg,
            variant.mode,
            &app_budget(golden, cfg, variant.mode),
            &mut ctl.total_cost,
        )
        .map(|ctas| credited_ctas = ctas),
        false => run,
    };
    let (outcome, corrupted_words) = match run {
        Ok(()) if ctl.rejoined => (Outcome::Masked, 0),
        Ok(()) => {
            let out = read_outputs(&mut ctl.gpu, &ctl.outputs);
            let corrupted = out.iter().zip(&golden.output).filter(|(a, b)| a != b);
            match corrupted.count() as u32 {
                0 => (Outcome::Masked, 0),
                corrupted => (Outcome::Sdc, corrupted),
            }
        }
        Err(AppAbort::Launch(LaunchAbort::Timeout)) => (Outcome::Timeout, 0),
        Err(AppAbort::Launch(LaunchAbort::Due(_))) | Err(AppAbort::VoteFailed) => (Outcome::Due, 0),
        Err(AppAbort::Rejoined) => unreachable!("credited above"),
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
    on_accel!(accel, (), a => a.fill(&mut result, credited_ctas));
    // Park the machine for the next trial on this thread.
    if let Some(gpu) = ctl.gpu {
        GPU_SCRATCH.set(Some(gpu));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffwd::golden_run_snapshots;

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

    /// Launch records costing `costs` in units of 2^20 cycles and thread
    /// instructions — above every budget floor — of two CTAs each.
    fn records(costs: &[u64]) -> Vec<LaunchRecord> {
        let unit = 1 << 20;
        let rec = |&c: &u64| LaunchRecord {
            kernel_idx: 0,
            is_vote: false,
            stats: Stats {
                cycles: c * unit,
                thread_instrs: c * unit,
                ..Default::default()
            },
            threads: 64,
            ctas: 2,
            num_regs: 8,
            smem_bytes: 0,
        };
        costs.iter().map(rec).collect()
    }

    #[test]
    fn credit_times_out_exactly_where_a_simulation_would() {
        const U: u64 = 1 << 20;
        // Each launch's own budget is its golden cost: the application's
        // budget is what binds.
        let cfg = GpuConfig {
            timeout_factor: 1,
            min_timeout_cycles: 1,
            ..GpuConfig::default()
        };
        let recs = records(&[3, 2, 5]);
        let timeout = Err(AppAbort::Launch(LaunchAbort::Timeout));
        for mode in [Mode::Timed, Mode::Functional] {
            let app = Budget { limit: 10 * U };
            // A cost equal to the budget left is credited …
            let mut spent = 5 * U;
            assert_eq!(credit(&recs[2..], &cfg, mode, &app, &mut spent), Ok(2));
            assert_eq!(spent, 10 * U, "{mode:?}");
            // … one above it times out, crediting nothing …
            let mut spent = 5 * U + 1;
            assert_eq!(credit(&recs[2..], &cfg, mode, &app, &mut spent), timeout);
            assert_eq!(spent, 5 * U + 1, "{mode:?}");
            // … and with nothing left, so does a launch costing nothing.
            let mut spent = 10 * U;
            assert_eq!(
                credit(&records(&[0]), &cfg, mode, &app, &mut spent),
                timeout
            );
            // The budget runs out at the third launch left: the two before
            // it are credited, the trial times out there.
            let app = Budget { limit: 9 * U };
            let mut spent = 0;
            assert_eq!(credit(&recs, &cfg, mode, &app, &mut spent), timeout);
            assert_eq!(spent, 5 * U, "{mode:?}");
            let mut spent = 0;
            assert_eq!(credit(&recs[..2], &cfg, mode, &app, &mut spent), Ok(4));
        }
    }

    /// A run's budget is in its engine's unit, floored in that unit: a
    /// functional run whose ten-fold golden cost is under 2^20
    /// thread-instructions may spend up to 2^20 of them, however many
    /// cycles `min_timeout_cycles` names; a timed one stops there.
    #[test]
    fn a_budget_is_floored_in_its_engines_unit() {
        let cfg = GpuConfig::default();
        let golden_cost = 1_000;
        let golden = Stats {
            cycles: golden_cost,
            thread_instrs: golden_cost,
            ..Default::default()
        };
        let spent = 200_000;
        assert!(spent > (10 * golden_cost).max(cfg.min_timeout_cycles) && spent < 1 << 20);
        let app = scaled_budget(golden_cost, &cfg, Mode::Functional);
        assert_eq!(
            budget_left(Some(&golden), &cfg, Mode::Functional, &app, spent),
            Ok(Budget {
                limit: (1 << 20) - spent
            })
        );
        let app = scaled_budget(golden_cost, &cfg, Mode::Timed);
        assert_eq!(
            budget_left(Some(&golden), &cfg, Mode::Timed, &app, spent),
            Err(AppAbort::Launch(LaunchAbort::Timeout))
        );
    }

    /// VA on 256 elements whose host reads its buffers back both ways —
    /// an input before the launch, the output after it, and again after a
    /// host write — and panics where `read_slice` and a `read_u32` loop
    /// disagree.
    struct ReadsBothWays;

    const RN: u32 = 256;

    impl Benchmark for ReadsBothWays {
        fn name(&self) -> &'static str {
            "ReadsBothWays"
        }

        fn kernels(&self) -> &'static [&'static str] {
            &["K1"]
        }

        fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort> {
            use crate::apps::va;
            let bufs = ctl.alloc(&[RN * 4; 3]);
            let (a, b, c) = (bufs[0], bufs[1], bufs[2]);
            ctl.write_with(a, RN, |i| va::input_a(i).to_bits());
            ctl.write_with(b, RN, |i| va::input_b(i).to_bits());
            ctl.set_outputs(&[(c, RN)]);
            let both = |ctl: &mut RunCtl, addr: u32| {
                let mut slice = vec![0; RN as usize];
                ctl.read_slice(addr, &mut slice);
                let words: Vec<u32> = (0..RN).map(|i| ctl.read_u32(addr + 4 * i)).collect();
                assert_eq!(slice, words, "read_slice at {addr:#x}");
            };
            both(ctl, a);
            ctl.launch(0, va::kernel(), RN / 128, 128, vec![a, b, c, RN])?;
            both(ctl, c);
            ctl.write_u32(c + 8, 7);
            both(ctl, c);
            Ok(())
        }
    }

    #[test]
    fn read_slice_reads_what_read_u32_reads() {
        use vgpu_sim::{FaultPattern, HwStructure, SwFaultKind};
        let cfg = GpuConfig::default();
        let bench = &ReadsBothWays;
        let timed = golden_run(bench, &cfg, Variant::TIMED);
        let functional = golden_run(bench, &cfg, Variant::FUNCTIONAL);
        assert_eq!(timed.output, functional.output);

        // Every run reads `a` while following the initial snapshot; a
        // masked fault follows a boundary snapshot for the rest, a
        // corrupting one reads the live machine.
        let snaps = Arc::new(golden_run_snapshots(bench, &cfg, &timed, 2));
        let cycles = timed.records[0].stats.cycles;
        for i in 0..8u64 {
            let fault = UarchFault {
                cycle: i * cycles / 8,
                structure: [HwStructure::RegFile, HwStructure::L2][i as usize % 2],
                loc_pick: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1),
                bit: 30,
                pattern: FaultPattern::SingleBit,
            };
            let accel = Accel::Snapshots(&snaps);
            faulty_run_with(
                bench,
                &cfg,
                Variant::TIMED,
                &timed,
                0,
                PlannedFault::Uarch(fault),
                accel,
            );
        }

        // A corrupted output word is dirty when the host reads it back.
        let sinks = Sinks {
            cta_log: Some(CtaLog::default()),
            ..Sinks::default()
        };
        let log = Arc::new(
            golden_pass(bench, &cfg, Variant::FUNCTIONAL, sinks)
                .cta_log
                .unwrap(),
        );
        let instrs = functional.records[0].stats.thread_instrs;
        for i in 0..8u64 {
            let fault = PlannedFault::Sw(SwFault {
                kind: SwFaultKind::DestValue,
                target: i * instrs / 8,
                bit: 30,
                loc_pick: 0,
                pattern: FaultPattern::SingleBit,
            });
            let accel = Accel::CtaLog(&log);
            let replayed = faulty_run_with(
                bench,
                &cfg,
                Variant::FUNCTIONAL,
                &functional,
                0,
                fault,
                accel,
            );
            let oracle = faulty_run(bench, &cfg, Variant::FUNCTIONAL, &functional, 0, fault);
            assert_eq!(
                (replayed.outcome, replayed.corrupted_words),
                (oracle.outcome, oracle.corrupted_words)
            );
        }
    }

    #[test]
    fn variants_cover_the_grid() {
        let grid = [
            Variant::TIMED,
            Variant::TIMED_TMR,
            Variant::FUNCTIONAL,
            Variant::FUNCTIONAL_TMR,
        ]
        .map(|v| (v.mode, v.hardened));
        assert_eq!(
            grid,
            [
                (Mode::Timed, false),
                (Mode::Timed, true),
                (Mode::Functional, false),
                (Mode::Functional, true),
            ]
        );
    }
}
