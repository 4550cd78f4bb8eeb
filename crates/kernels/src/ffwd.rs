//! Golden-prefix fast-forward: snapshot reuse for microarchitecture-level
//! (timed-engine) trials.
//!
//! One golden pass with the snapshot sink ([`SnapshotSink`]) captures the
//! machine when the host program first observes it, after every launch,
//! and `~k` times inside every launch, into one chunk store
//! ([`AppSnapshots`]). A faulty run (`FfCtx`) then answers the harness's
//! per-launch question (`harness::Accelerator`) from it:
//!
//! * a launch before the fault equals golden: the run *follows* its
//!   boundary snapshot instead of simulating it, host reads are answered
//!   from the snapshot, and nothing is restored until the run must go
//!   live;
//! * the fault launch resumes from the nearest snapshot at or before the
//!   fault cycle, with the convergence exit armed against the launch's
//!   later snapshots;
//! * any other launch is simulated whole on the live machine, after which
//!   the run has re-joined golden if the machine equals the golden
//!   boundary and every host read since the fault saw the golden word.
//!
//! (docs/PERF.md, "The three trial paths".)

use std::collections::HashSet;
use std::sync::Arc;

use vgpu_arch::{Kernel, LaunchConfig};
use vgpu_sim::due::LaunchAbort;
use vgpu_sim::{
    Budget, ChunkStore, ConvergeWith, Gpu, GpuConfig, Mode, SnapId, Stats, UarchInjector,
};

use crate::harness::{
    credit_one, golden_pass, Accelerator, AppAbort, Benchmark, Decision, GoldenRun, PlannedFault,
    RunResult, Sinks, TrialLaunch, Variant,
};

/// Golden-prefix snapshots of one application, captured by
/// [`golden_run_snapshots`] and shared (via `Arc`) across every
/// fast-forward trial of a campaign: one chunk store, so the set costs
/// about one machine image plus what the run changed. Always timed, to
/// match the microarchitectural campaigns that consume them; a hardened
/// application's set holds its three copies and its vote launches like
/// any other buffers and launches. Two sets are equal when they captured
/// the same machines at the same points, chunk for chunk.
#[derive(Debug, PartialEq, Eq)]
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

/// The snapshot sink of a golden pass: `~k` mid-launch snapshots per
/// launch, evenly spaced over the launch, plus one at every launch
/// boundary — the [`AppSnapshots`] consumed under
/// [`crate::Accel::Snapshots`].
pub struct SnapshotSink<'a> {
    /// The reference golden run: capture cycles are spaced by its launch
    /// lengths, and the pass is compared with it.
    pub(crate) golden: &'a GoldenRun,
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

    /// The host program first observes `gpu`: the initial snapshot.
    pub(crate) fn capture_initial(&mut self, gpu: &mut Gpu) {
        self.initial = Some(gpu.capture(&mut self.store));
    }

    /// Run golden launch `ordinal` on `gpu`, capturing its mid-launch
    /// snapshots and the boundary snapshot after it.
    pub(crate) fn launch(
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

    pub(crate) fn finish(mut self) -> AppSnapshots {
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

/// [`golden_pass`] of the unhardened application with the snapshot sink
/// alone: `~k` mid-launch snapshots per launch plus one at every launch
/// boundary — the golden-prefix material consumed by
/// [`crate::faulty_run_ff`].
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

/// One faulty run's use of an [`AppSnapshots`].
pub(crate) struct FfCtx<'a> {
    snaps: &'a AppSnapshots,
    /// The machine has provably re-converged to golden: the run has
    /// re-joined it for good.
    converged: bool,
    /// Cycle the injected launch resumed at.
    resumed_at: Option<u64>,
    /// The golden snapshot the run is *following*: up to here it is
    /// bit-identical to the golden run, so nothing has been materialised
    /// on the scratch machine — skipped launches only move this, and host
    /// reads are answered from the store. `None` once the machine is live
    /// (the fault launch resumed, or a launch had to simulate).
    following: Option<SnapId>,
    /// Host writes since `following`, oldest first; replayed onto the
    /// machine if it has to go live before the next snapshot subsumes
    /// them.
    host_writes: Vec<(u32, u32)>,
    /// The injected launch has started.
    injected: bool,
    /// A launch at or after the fault that simulated whole on the live
    /// machine, its golden boundary not yet compared ([`FfCtx::rejoined`]).
    unchecked: Option<usize>,
    /// The host's accesses to the live machine since the injected launch
    /// and until it re-converges, oldest first: `(launch before it,
    /// address, value read)`, with `None` for a write. What the host read
    /// decides what it does next, so a boundary convergence stands only if
    /// these reads saw the golden words ([`FfCtx::host_agrees`]).
    host_glue: Vec<(u32, u32, Option<u32>)>,
    restored_bytes: u64,
}

/// The most host accesses [`FfCtx::host_glue`] keeps. A run whose host
/// made more is not let re-converge at a boundary: that misses a
/// convergence, which costs time, never exactness, and keeps the log's
/// memory bounded (K-Means reads 18,472 words an iteration; the shipped
/// apps that re-converge after host reads read at most 4,096).
const HOST_GLUE_CAP: usize = 8192;

impl<'a> FfCtx<'a> {
    /// A run that follows `snaps` from the host program's first
    /// observation.
    pub fn new(snaps: &'a Arc<AppSnapshots>) -> Self {
        FfCtx {
            snaps,
            converged: false,
            resumed_at: None,
            following: Some(snaps.initial),
            host_writes: Vec::new(),
            injected: false,
            unchecked: None,
            host_glue: Vec::new(),
            restored_bytes: 0,
        }
    }

    /// Log a host access to the live machine after launch `launch`
    /// (`read`: the value read, `None` for a write), if it can tell the
    /// host program apart from the golden one.
    fn log_host(&mut self, launch: usize, addr: u32, read: Option<u32>) {
        if self.injected && !self.converged && self.host_glue.len() < HOST_GLUE_CAP {
            self.host_glue.push((launch as u32, addr, read));
        }
    }

    /// Whether every logged host read saw what the golden host program
    /// saw at the same point: the word of the golden boundary snapshot of
    /// the launch before it — unless the host itself wrote that word since
    /// that launch. Then, by induction over the reads, the host program is
    /// still the golden one.
    fn host_agrees(&self) -> bool {
        let mut written = HashSet::new();
        let mut since = None;
        self.host_glue.len() < HOST_GLUE_CAP
            && self.host_glue.iter().all(|&(launch, addr, read)| {
                if since != Some(launch) {
                    (since, written) = (Some(launch), HashSet::new());
                }
                match read {
                    None => {
                        written.insert(addr);
                        true
                    }
                    Some(v) => {
                        written.contains(&addr)
                            || (self.snaps.boundaries.get(launch as usize))
                                .is_some_and(|&b| self.snaps.store.host_word(b, addr) == v)
                    }
                }
            })
    }

    /// Launch `ordinal` just retired (or converged mid-flight) on the live
    /// machine: if its state now equals the golden post-launch snapshot and
    /// the host program is still the golden one, the rest of the
    /// application is provably bit-identical to golden.
    fn check_boundary(&mut self, gpu: &Gpu, ordinal: usize) {
        if let Some(&boundary) = self.snaps.boundaries.get(ordinal) {
            self.converged = self.converged
                || (gpu.converged(&self.snaps.store, boundary) && self.host_agrees());
        }
    }

    /// Stop following: bring `gpu` to the followed snapshot plus the
    /// host writes made since. Must run before anything simulates on it
    /// or reads a word written since.
    fn go_live(&mut self, gpu: &mut Gpu) {
        if let Some(at) = self.following.take() {
            self.restored_bytes += gpu.restore(&self.snaps.store, at);
            for (addr, v) in self.host_writes.drain(..) {
                gpu.host_write_u32(addr, v);
            }
        }
    }
}

impl Accelerator for FfCtx<'_> {
    fn drops_preamble(&self) -> bool {
        true
    }

    /// The run follows the initial snapshot from here.
    fn enter(&mut self, _: &mut Gpu) {}

    fn launch(&mut self, gpu: &mut Gpu, l: &TrialLaunch<'_>, applied: &mut bool) -> Decision {
        self.injected |= l.ordinal == l.target;
        // A launch before the fault executes bit-identically to golden:
        // follow the run to its golden boundary snapshot and credit the
        // golden cost. Nothing is restored: a run of skipped launches
        // costs nothing until the machine goes live. (A launch the golden
        // pass never saw — impossible for a deterministic benchmark —
        // simulates.)
        if l.ordinal < l.target {
            if let (Some(rec), Some(&boundary)) = (l.golden, self.snaps.boundaries.get(l.ordinal)) {
                let cost = credit_one(rec, Mode::Timed, &l.budget);
                if cost.is_ok() {
                    self.following = Some(boundary);
                    self.host_writes.clear();
                }
                return Some(cost.map(|cost| (cost, 0)));
            }
        }
        // The fault launch resumes from the nearest golden snapshot at or
        // before the fault cycle — which subsumes whatever the run was
        // following — with the convergence exit armed against the
        // launch's later golden snapshots.
        let snaps = self.snaps;
        let mids = snaps.mids.get(l.ordinal).filter(|m| !m.is_empty());
        if let (Some(PlannedFault::Uarch(f)), Some(mids), Some(rec)) = (l.fault, mids, l.golden) {
            let snap = *mids
                .iter()
                .rev()
                .find(|&&s| snaps.store.cycle(s).is_some_and(|c| c <= f.cycle))
                .expect("cycle-0 snapshot always exists");
            self.following = None;
            self.host_writes.clear();
            let mut inj = UarchInjector::new(*f);
            let cv = ConvergeWith {
                snaps: mids,
                end_stats: rec.stats,
            };
            let out = gpu.resume_from(
                &snaps.store,
                snap,
                l.kernel,
                l.lc,
                Some(&mut inj),
                &l.budget,
                Some(cv),
            );
            *applied = inj.applied && inj.population > 0;
            let run = out.map(|out| {
                self.resumed_at = Some(out.resumed_at);
                self.restored_bytes += out.restored_bytes;
                self.converged = out.converged_at.is_some();
                self.check_boundary(gpu, l.ordinal);
                // The skipped prefix and a credited suffix are not simulated.
                (out.stats.cycles, out.simulated_cycles)
            });
            return Some(run.map_err(AppAbort::from));
        }
        // This launch simulates for real.
        self.go_live(gpu);
        if l.ordinal >= l.target {
            self.unchecked = Some(l.ordinal);
        }
        None
    }

    fn host_read(&mut self, gpu: &mut Gpu, launches: usize, addr: u32, out: &mut [u32]) -> bool {
        match self.following {
            Some(at) if self.host_writes.is_empty() => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.snaps.store.host_word(at, addr + 4 * i as u32);
                }
            }
            // A word the host wrote since the followed snapshot is on the
            // machine once it is live.
            _ => {
                self.go_live(gpu);
                gpu.host_read_words(addr, out);
                let launch = launches.wrapping_sub(1);
                for (i, &v) in out.iter().enumerate() {
                    self.log_host(launch, addr + 4 * i as u32, Some(v));
                }
            }
        }
        true
    }

    fn host_write(&mut self, launches: usize, addr: u32, v: u32) -> bool {
        match self.following {
            Some(_) => self.host_writes.push((addr, v)),
            None => self.log_host(launches.wrapping_sub(1), addr, None),
        }
        self.following.is_some()
    }

    /// A launch that retires on the live machine after the fault with the
    /// device equal to its golden boundary, every host read since the fault
    /// golden, makes every later launch bit-identical to golden.
    fn rejoined(&mut self, gpu: &Gpu) -> bool {
        if let Some(ordinal) = self.unchecked.take() {
            self.check_boundary(gpu, ordinal);
        }
        self.converged
    }

    fn fill(&self, r: &mut RunResult, _credited_ctas: u64) {
        r.resumed_at = self.resumed_at;
        r.converged = self.converged;
        r.restored_bytes = self.restored_bytes;
    }
}
