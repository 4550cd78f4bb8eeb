//! The golden CTA log: CTA-granular golden reuse for software-level
//! (functional-engine) trials.
//!
//! The functional engine runs CTAs strictly one after another, and
//! registers, predicates and shared memory die with their CTA, so a CTA is
//! a pure function of (kernel, launch parameters, CTA index, the global
//! words it loads). One logged golden pass ([`CtaLog`]) therefore lets a
//! faulty run (`CtaReplay`) keep only a **dirty set** — the words where
//! its memory differs from golden — and apply one rule per CTA: a CTA whose
//! read footprint misses the dirty set (and that does not carry the fault)
//! did exactly what it did in the golden run, so its golden stores and
//! instruction counts are applied instead of simulating it; any other CTA
//! is simulated against the trial's real memory and the dirty set updated
//! from what it wrote. Skipping the golden prefix, stopping at a crash,
//! crediting everything after a masked fault and simulating only the
//! dependent CTAs of a corrupted run all follow from that rule
//! (docs/PERF.md, "Software-layer trials: CTA replay").

use std::collections::BTreeMap;
use std::sync::Arc;

use vgpu_arch::{Kernel, LaunchConfig};
use vgpu_sim::due::LaunchAbort;
use vgpu_sim::exec::LogMem;
use vgpu_sim::functional::run_cta;
use vgpu_sim::{
    granule_bit, granule_span, record_launch, GlobalMem, Gpu, Mode, Stats, SwFault, SwInjector,
    GRANULE_SHIFT,
};

use crate::harness::{
    Accelerator, AppAbort, Decision, LaunchCost, Outcome, PlannedFault, RunResult, TrialLaunch,
};

/// What every CTA of one golden functional run read and wrote. Captured
/// once per software-level application by [`crate::golden_pass`] and
/// shared by every trial; holds store deltas and sparse granule bitmaps,
/// and one copy of device memory: the arena when the host program first
/// observes the device, its inputs written — where every trial starts
/// instead of re-running the host code that writes them.
#[derive(Debug, Default)]
pub struct CtaLog {
    /// The arena's bytes at the golden run's first observation
    /// ([`vgpu_sim::GlobalMem::data`]).
    image: Vec<u8>,
    launches: Vec<LaunchLog>,
    /// The distinct kernels launched, referenced by [`LaunchLog::kernel`].
    /// Apps build each kernel once per process, so a kernel is known by
    /// its address.
    kernels: Vec<&'static Kernel>,
}

/// One golden launch, CTA by CTA. The per-CTA slices of `runs`, `words`
/// and `reads` are delimited by `ends`.
#[derive(Debug)]
struct LaunchLog {
    kernel: usize,
    grid_x: u32,
    grid_y: u32,
    block_x: u32,
    params: Vec<u32>,
    /// Launch-cumulative statistics at the start of each CTA, then the
    /// launch total: one entry more than there are CTAs.
    cum: Vec<Stats>,
    /// `[runs.len(), words.len(), reads.len()]` after each CTA.
    ends: Vec<[u32; 3]>,
    /// Net store delta, run-length coded (a CTA mostly stores to a few
    /// contiguous ranges): `(first address, words)` of each maximal run of
    /// consecutive words a CTA stored to, ascending within the CTA …
    runs: Vec<(u32, u32)>,
    /// … and the final word at each of those addresses, in that order.
    words: Vec<u32>,
    /// Read footprint: the non-zero `(word index, bits)` of the CTA's
    /// granule bitmap ([`vgpu_sim::granule_bit`]).
    reads: Vec<(u32, u32)>,
}

impl LaunchLog {
    fn ctas(&self) -> usize {
        self.ends.len()
    }

    /// CTA `c`'s range of the `i`-th of the three pooled vectors.
    fn span(&self, c: usize, i: usize) -> std::ops::Range<usize> {
        let start = if c == 0 { 0 } else { self.ends[c - 1][i] };
        start as usize..self.ends[c][i] as usize
    }

    fn delta(&self, c: usize) -> Delta<'_> {
        Delta {
            runs: &self.runs[self.span(c, 0)],
            words: &self.words[self.span(c, 1)],
        }
    }

    fn footprint(&self, c: usize) -> &[(u32, u32)] {
        &self.reads[self.span(c, 2)]
    }

    /// The CTA in which the golden execution reaches the fault's target
    /// instruction; `None` if the launch's eligible population ends first
    /// (such a fault never fires).
    fn fault_cta(&self, f: &SwFault) -> Option<usize> {
        let c = self.cum[1..].partition_point(|s| f.kind.eligible(s) <= f.target);
        (c < self.ctas()).then_some(c)
    }
}

/// The net store delta of one golden CTA.
#[derive(Clone, Copy)]
struct Delta<'a> {
    runs: &'a [(u32, u32)],
    words: &'a [u32],
}

impl<'a> Delta<'a> {
    /// `(first address, final words)` of each run, ascending by address:
    /// what a replayed CTA copies into memory.
    fn runs(&self) -> impl Iterator<Item = (u32, &'a [u32])> + 'a {
        let mut words = self.words;
        self.runs.iter().map(move |&(start, n)| {
            let (run, rest) = words.split_at(n as usize);
            words = rest;
            (start, run)
        })
    }
}

impl CtaLog {
    /// Golden launches logged.
    pub fn launches(&self) -> usize {
        self.launches.len()
    }

    /// Golden CTAs logged, over all launches.
    pub fn ctas(&self) -> usize {
        self.launches.iter().map(LaunchLog::ctas).sum()
    }

    /// Approximate heap footprint (the `cta_log_bytes` gauge).
    pub fn bytes(&self) -> u64 {
        let per_launch = |l: &LaunchLog| {
            l.cum.len() * std::mem::size_of::<Stats>()
                + l.ends.len() * 12
                + (l.runs.len() + l.reads.len()) * 8
                + (l.words.len() + l.params.len()) * 4
        };
        (self.image.len()
            + self.launches.iter().map(per_launch).sum::<usize>()
            + std::mem::size_of_val(self.kernels.as_slice())) as u64
    }

    /// The arena at the golden run's first observation: what a trial's
    /// host program has written by then, since it has seen nothing.
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// The golden host program observes the device for the first time.
    pub(crate) fn capture_image(&mut self, mem: &GlobalMem) {
        self.image = mem.data().to_vec();
    }

    /// Run the next golden launch CTA by CTA on `mem`, logging each CTA's
    /// stores, read footprint and starting statistics. Returns the launch
    /// statistics.
    pub(crate) fn capture_launch(
        &mut self,
        mem: &mut GlobalMem,
        kernel: &'static Kernel,
        lc: &LaunchConfig,
        max_stack: usize,
    ) -> Result<Stats, LaunchAbort> {
        let kernel_idx = match self.kernels.iter().position(|&k| std::ptr::eq(k, kernel)) {
            Some(i) => i,
            None => {
                self.kernels.push(kernel);
                self.kernels.len() - 1
            }
        };
        let mut ll = LaunchLog {
            kernel: kernel_idx,
            grid_x: lc.grid_x,
            grid_y: lc.grid_y,
            block_x: lc.block_x,
            params: lc.params.clone(),
            cum: Vec::new(),
            ends: Vec::new(),
            runs: Vec::new(),
            words: Vec::new(),
            reads: Vec::new(),
        };
        let mut stats = Stats::default();
        let mut bitmap = vec![0u32; mem.granule_words()];
        let mut stores = Vec::new();
        for lin in 0..lc.num_ctas() {
            ll.cum.push(stats);
            let mut lm = LogMem {
                mem,
                writes: &mut stores,
                reads: Some(&mut bitmap),
            };
            run_cta(
                &mut lm,
                kernel,
                lc,
                lin,
                None,
                &mut stats,
                u64::MAX,
                max_stack,
            )?;
            stores.sort_unstable_by_key(|&(a, _)| a);
            stores.dedup_by_key(|&mut (a, _)| a);
            let first_run = ll.runs.len();
            for (addr, _) in stores.drain(..) {
                match ll.runs[first_run..].last_mut() {
                    Some((start, n)) if *start + 4 * *n == addr => *n += 1,
                    _ => ll.runs.push((addr, 1)),
                }
                ll.words.push(mem.read_u32(addr));
            }
            for (i, bits) in bitmap.iter_mut().enumerate().filter(|(_, b)| **b != 0) {
                ll.reads.push((i as u32, std::mem::take(bits)));
            }
            ll.ends
                .push([ll.runs.len(), ll.words.len(), ll.reads.len()].map(|n| n as u32));
        }
        ll.cum.push(stats);
        ll.runs.shrink_to_fit();
        ll.words.shrink_to_fit();
        ll.reads.shrink_to_fit();
        self.launches.push(ll);
        Ok(stats)
    }
}

/// The words where a trial's device memory differs from golden memory at
/// the same point of the run, each with the *golden* value — so a later
/// store can be recognised as restoring it — plus a granule bitmap of
/// those words for the footprint test.
#[derive(Debug, Default, Clone)]
struct DirtySet {
    words: BTreeMap<u32, u32>,
    /// One bit per granule holding a dirty word; grown on demand.
    granules: Vec<u32>,
}

impl DirtySet {
    fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether `addr`'s granule holds a dirty word: when not, `addr` is
    /// clean without a search of `words`.
    fn granule_dirty(&self, addr: u32) -> bool {
        let (w, bit) = granule_bit(addr);
        self.granules.get(w).is_some_and(|g| g & bit != 0)
    }

    /// Whether a word of the bytes `[lo, hi)` is dirty: the granule bits
    /// first, a search of `words` only behind a set one.
    fn any_in(&self, lo: u32, hi: u32) -> bool {
        !self.words.is_empty()
            && lo < hi
            && granule_span(lo, hi - lo)
                .any(|(w, bits)| self.granules.get(w).is_some_and(|g| g & bits != 0))
            && self.words.range(lo..hi).next().is_some()
    }

    fn touches(&self, footprint: &[(u32, u32)]) -> bool {
        !self.words.is_empty()
            && footprint
                .iter()
                .any(|&(w, bits)| self.granules.get(w as usize).is_some_and(|g| g & bits != 0))
    }

    fn insert(&mut self, addr: u32, golden: u32) {
        self.words.insert(addr, golden);
        let (w, bit) = granule_bit(addr);
        if self.granules.len() <= w {
            self.granules.resize(w + 1, 0);
        }
        self.granules[w] |= bit;
    }

    fn remove(&mut self, addr: u32) {
        if !self.granule_dirty(addr) || self.words.remove(&addr).is_none() {
            return;
        }
        let base = addr >> GRANULE_SHIFT << GRANULE_SHIFT;
        let last = base | ((1 << GRANULE_SHIFT) - 1);
        if self.words.range(base..=last).next().is_none() {
            let (w, bit) = granule_bit(addr);
            self.granules[w] &= !bit;
        }
    }

    /// [`DirtySet::remove`] of every word in the bytes `[lo, hi)`: a run
    /// of golden stores. A run whose granules hold no dirty word costs no
    /// search, and an empty set not even the granule test.
    fn remove_range(&mut self, lo: u32, hi: u32) {
        if !self.any_in(lo, hi) {
            return;
        }
        while let Some((&addr, _)) = self.words.range(lo..hi).next() {
            self.remove(addr);
        }
    }

    /// Record that golden memory now holds `golden` at `addr` and the
    /// trial's memory `actual`.
    fn settle(&mut self, addr: u32, golden: u32, actual: u32) {
        if golden == actual {
            self.remove(addr);
        } else {
            self.insert(addr, golden);
        }
    }

    /// Update the set after a simulated CTA whose store journal is
    /// `stores` ([`LogMem::writes`]) and whose golden counterpart stored
    /// `golden`: every word either of them stored to is compared with
    /// what golden memory holds there now. Both lists ascend, so they are
    /// merged in one walk, and a stored word inside a golden run is
    /// settled with the run.
    fn absorb(&mut self, mem: &GlobalMem, stores: &mut Vec<(u32, u32)>, golden: Delta<'_>) {
        // Stable sort + dedup keeps each address's first journal entry:
        // the word the CTA found there.
        stores.sort_by_key(|&(a, _)| a);
        stores.dedup_by_key(|&mut (a, _)| a);
        let mut own = stores.iter().copied().peekable();
        for (start, run) in golden.runs() {
            while let Some((addr, found)) = own.next_if(|&(a, _)| a < start) {
                self.settle_unstored(mem, addr, found);
            }
            let end = start + 4 * run.len() as u32;
            while own.next_if(|&(a, _)| a < end).is_some() {}
            for (i, &gold) in run.iter().enumerate() {
                let addr = start + 4 * i as u32;
                self.settle(addr, gold, mem.read_u32(addr));
            }
        }
        for (addr, found) in own {
            self.settle_unstored(mem, addr, found);
        }
    }

    /// Settle a word the simulated CTA stored to and its golden counterpart
    /// left alone. Golden memory holds there what it held before: the
    /// recorded golden value of a dirty word, else what the trial's own
    /// memory held, `found`. Only a set granule bit costs a search.
    fn settle_unstored(&mut self, mem: &GlobalMem, addr: u32, found: u32) {
        let gold = if self.granule_dirty(addr) {
            self.words.get(&addr).copied().unwrap_or(found)
        } else {
            found
        };
        self.settle(addr, gold, mem.read_u32(addr));
    }
}

/// One faulty run's view of the [`CtaLog`]: its dirty set, and whether the
/// log may still be consulted.
#[derive(Debug)]
pub(crate) struct CtaReplay {
    log: Arc<CtaLog>,
    dirty: DirtySet,
    /// Cleared once the host may have diverged from the golden host
    /// program; every later launch then simulates in full.
    live: bool,
    /// The fault launch has started.
    injected: bool,
    /// Store journal of the CTA being simulated (scratch).
    stores: Vec<(u32, u32)>,
    replayed: u32,
    simulated: u32,
}

impl CtaReplay {
    pub fn new(log: &Arc<CtaLog>) -> Self {
        CtaReplay {
            log: Arc::clone(log),
            dirty: DirtySet::default(),
            live: true,
            injected: false,
            stores: Vec::new(),
            replayed: 0,
            simulated: 0,
        }
    }

    /// Whether the trial's memory currently equals golden memory with the
    /// log still in use — everything that follows is then golden.
    fn converged(&self) -> bool {
        self.live && self.dirty.is_empty()
    }

    /// Run launch `l` CTA by CTA on `mem`: replay the CTAs the dirty set
    /// cannot reach, simulate the others (the one carrying `fault`
    /// included; `applied` is set if it fires, abort or not). The launch
    /// cost is bit-identical to a whole-launch simulation's. `None` when
    /// the log no longer applies: the host diverged, or the launch is not
    /// the golden run's.
    fn replay(
        &mut self,
        mem: &mut GlobalMem,
        l: &TrialLaunch<'_>,
        fault: Option<&SwFault>,
        applied: &mut bool,
        max_stack: usize,
    ) -> Option<Result<LaunchCost, LaunchAbort>> {
        let CtaReplay {
            log,
            dirty,
            live,
            stores,
            replayed,
            simulated,
            ..
        } = self;
        let (kernel, lc) = (l.kernel, l.lc);
        let ll = log.launches.get(l.ordinal).filter(|ll| {
            *live
                && (ll.grid_x, ll.grid_y, ll.block_x) == (lc.grid_x, lc.grid_y, lc.block_x)
                && ll.params == lc.params
                && std::ptr::eq(log.kernels[ll.kernel], kernel)
        })?;
        let budget_instrs = l.budget.limit;
        let fault_cta = fault.and_then(|f| ll.fault_cta(f));
        let mut stats = Stats::default();
        let mut simulated_instrs = 0;
        for c in 0..ll.ctas() {
            let carries_fault = fault_cta == Some(c);
            if !carries_fault && !dirty.touches(ll.footprint(c)) {
                for (start, run) in ll.delta(c).runs() {
                    mem.write_words(start, run);
                    dirty.remove_range(start, start + 4 * run.len() as u32);
                }
                stats.add_delta(&ll.cum[c + 1], &ll.cum[c]);
                *replayed += 1;
                // The oracle checks the budget after every warp slice; the
                // count only grows, so checking where a replayed CTA ends
                // reports the same timeouts.
                if stats.thread_instrs > budget_instrs {
                    return Some(Err(LaunchAbort::Timeout));
                }
                continue;
            }
            let mut inj = fault.filter(|_| carries_fault).map(|f| {
                let mut inj = SwInjector::new(*f);
                inj.counter = f.kind.eligible(&ll.cum[c]);
                inj
            });
            let before = stats.thread_instrs;
            stores.clear();
            let mut lm = LogMem {
                mem,
                writes: stores,
                reads: None,
            };
            let run = run_cta(
                &mut lm,
                kernel,
                lc,
                c as u64,
                inj.as_mut(),
                &mut stats,
                budget_instrs,
                max_stack,
            );
            *simulated += 1;
            simulated_instrs += stats.thread_instrs - before;
            *applied |= inj.is_some_and(|i| i.applied);
            if let Err(abort) = run {
                return Some(Err(abort));
            }
            dirty.absorb(mem, stores, ll.delta(c));
        }
        Some(Ok((stats.thread_instrs, simulated_instrs)))
    }
}

impl Accelerator for CtaReplay {
    /// A debug build makes the preamble's writes anyway, and checks them
    /// against the image ([`Accelerator::enter`]).
    fn drops_preamble(&self) -> bool {
        !cfg!(debug_assertions)
    }

    /// Bring the machine to the golden image in one copy. The trial's
    /// writes until now were the golden ones, dropped in a release build;
    /// a debug build made them, and checks them against the image.
    fn enter(&mut self, gpu: &mut Gpu) {
        let mem = gpu.mem_mut();
        debug_assert!(
            mem.data() == self.log.image,
            "the preamble must write the golden image"
        );
        mem.load_data(&self.log.image);
    }

    /// Replay the launch from the log, the CTAs the fault can reach
    /// simulated. Once the log no longer applies, every launch from this
    /// one on simulates whole.
    fn launch(&mut self, gpu: &mut Gpu, l: &TrialLaunch<'_>, applied: &mut bool) -> Decision {
        self.injected |= l.ordinal == l.target;
        let fault = match l.fault {
            Some(PlannedFault::Sw(f)) => Some(f),
            // The functional engine refuses it.
            Some(PlannedFault::Uarch(_)) => return None,
            None => None,
        };
        let max_stack = gpu.cfg.max_stack_depth;
        let run = self.replay(gpu.mem_mut(), l, fault, applied, max_stack);
        self.live &= run.is_some();
        let run = run?;
        // The simulator counters see what was simulated; replayed CTAs are
        // `sw_cta_total{path=replayed}`.
        let simulated = run.as_ref().map(|&(_, simulated)| Stats {
            thread_instrs: simulated,
            ..Stats::default()
        });
        record_launch(Mode::Functional, &simulated.map_err(|e| *e));
        Some(run.map_err(AppAbort::from))
    }

    /// A dirty word may steer the host program away from the golden one,
    /// so reading one ends the log's use.
    fn host_read(&mut self, _: &mut Gpu, _: usize, addr: u32, out: &mut [u32]) -> bool {
        self.live = self.live && !self.dirty.any_in(addr, addr + 4 * out.len() as u32);
        false
    }

    /// Until it has read a dirty word the host program is the golden one,
    /// so the golden run wrote the same value.
    fn host_write(&mut self, _: usize, addr: u32, _: u32) -> bool {
        if self.live && !self.dirty.is_empty() {
            self.dirty.remove(addr);
        }
        false
    }

    /// Once the fault launch is made, memory equal to golden with the log
    /// still live — which a host write restoring the last dirty word can
    /// also bring about.
    fn rejoined(&mut self, _: &Gpu) -> bool {
        self.injected && self.converged()
    }

    fn fill(&self, r: &mut RunResult, credited_ctas: u64) {
        r.converged = matches!(r.outcome, Outcome::Masked | Outcome::Sdc) && self.converged();
        r.ctas_replayed = self.replayed + credited_ctas as u32;
        r.ctas_simulated = self.simulated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vgpu_sim::GpuConfig;

    #[test]
    fn dirty_set_tracks_granules_exactly() {
        let mut d = DirtySet::default();
        assert!(!d.touches(&[(0, !0)]));
        d.insert(0x40, 7); // granule 1
        d.insert(0x44, 8); // granule 1
        d.insert(0x1000, 9); // granule 64 -> word 2, bit 0
        assert!(d.touches(&[(0, 0b10)]));
        assert!(!d.touches(&[(0, 0b01), (1, !0)]));
        assert!(d.touches(&[(2, 1)]));
        assert!(d.granule_dirty(0x48) && !d.granule_dirty(0x80));
        // A clean granule, beyond the bitmap too, answers without a search.
        d.remove(0x80);
        d.remove(0x10_0000);
        assert_eq!(d.words.len(), 3);
        // A granule's bit survives until its last dirty word goes.
        d.remove(0x40);
        assert!(d.touches(&[(0, 0b10)]));
        d.settle(0x44, 5, 5);
        assert!(!d.touches(&[(0, 0b10)]));
        d.settle(0x1000, 1, 2);
        assert_eq!(d.words[&0x1000], 1, "settle keeps the golden value");
        d.remove(0x1000);
        assert!(d.is_empty() && d.granules.iter().all(|&g| g == 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `remove_range` is `remove` of every word in the range, and a
        /// range host read ends the log's use iff a word in it is dirty.
        /// Runs start and end mid-granule, granules hold dirty words on
        /// both sides of a run's ends, and ranges reach past the bitmap.
        #[test]
        fn range_operations_match_their_words(
            dirty in prop::collection::vec((0u32..2048, any::<u32>()), 0..48),
            lo in 0u32..2560,
            words in 0u32..160,
        ) {
            let mut d = DirtySet::default();
            for &(w, golden) in &dirty {
                d.insert(4 * w, golden);
            }
            let (lo, hi) = (4 * lo, 4 * (lo + words));
            let mut by_word = d.clone();
            for addr in (lo..hi).step_by(4) {
                by_word.remove(addr);
            }
            let mut by_range = d.clone();
            by_range.remove_range(lo, hi);
            prop_assert_eq!(&by_range.words, &by_word.words);
            prop_assert_eq!(&by_range.granules, &by_word.granules);

            let mut replay = CtaReplay::new(&Arc::new(CtaLog::default()));
            replay.dirty = d;
            let mut gpu = Gpu::new(GpuConfig::default(), GlobalMem::new(4), Mode::Functional);
            replay.host_read(&mut gpu, 0, lo, &mut vec![0; words as usize]);
            let hit = (lo..hi).step_by(4).any(|a| replay.dirty.words.contains_key(&a));
            prop_assert_eq!(replay.live, !hit);
        }

        /// The merged `absorb` leaves the set the per-word one does: every
        /// stored word looked up in the golden runs, and a dirty word's
        /// golden value looked up whatever its granule. Journals repeat
        /// addresses, store inside and outside golden runs and to words
        /// already dirty; memory, found and golden words are drawn from a
        /// few values, so that many words settle clean.
        #[test]
        fn merged_absorb_matches_the_per_word_model(
            dirty in prop::collection::vec((0u32..512, 0u32..4), 0..48),
            golden in prop::collection::vec((0u32..512, 0u32..4), 0..96),
            journal in prop::collection::vec((0u32..512, 0u32..4), 0..96),
            memory in prop::collection::vec(0u32..4, 512),
        ) {
            let mut d = DirtySet::default();
            for &(w, gold) in &dirty {
                d.insert(4 * w, gold);
            }
            let golden: BTreeMap<u32, u32> = golden.into_iter().collect();
            let mut runs: Vec<(u32, u32)> = Vec::new();
            for &w in golden.keys() {
                match runs.last_mut() {
                    Some((start, n)) if *start + 4 * *n == 4 * w => *n += 1,
                    _ => runs.push((4 * w, 1)),
                }
            }
            let words: Vec<u32> = golden.values().copied().collect();
            let delta = Delta { runs: &runs, words: &words };
            let mut mem = GlobalMem::new(4 * 512);
            mem.write_words(0, &memory);
            let stores: Vec<(u32, u32)> = journal.iter().map(|&(w, found)| (4 * w, found)).collect();

            let mut by_word = d.clone();
            absorb_by_word(&mut by_word, &mem, &mut stores.clone(), delta);
            let mut merged = d;
            merged.absorb(&mem, &mut stores.clone(), delta);
            prop_assert_eq!(&merged.words, &by_word.words);
            prop_assert_eq!(&merged.granules, &by_word.granules);
        }
    }

    /// `DirtySet::absorb` word by word: each stored word is searched for in
    /// the golden runs, each golden word settled after them.
    fn absorb_by_word(
        d: &mut DirtySet,
        mem: &GlobalMem,
        stores: &mut Vec<(u32, u32)>,
        golden: Delta<'_>,
    ) {
        let in_golden = |addr: u32| {
            let after = golden.runs.partition_point(|&(start, _)| start <= addr);
            after > 0 && addr < golden.runs[after - 1].0 + 4 * golden.runs[after - 1].1
        };
        stores.sort_by_key(|&(a, _)| a);
        stores.dedup_by_key(|&mut (a, _)| a);
        for &(addr, found) in stores.iter() {
            if in_golden(addr) {
                continue;
            }
            let gold = d.words.get(&addr).copied().unwrap_or(found);
            d.settle(addr, gold, mem.read_u32(addr));
        }
        for (start, run) in golden.runs() {
            for (i, &gold) in run.iter().enumerate() {
                let addr = start + 4 * i as u32;
                d.settle(addr, gold, mem.read_u32(addr));
            }
        }
    }
}
