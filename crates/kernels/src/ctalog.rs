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
use vgpu_sim::{granule_bit, GlobalMem, Stats, SwFault, SwInjector, GRANULE_SHIFT};

/// What every CTA of one golden functional run read and wrote. Captured
/// once per software-level application by [`crate::golden_pass`] and
/// shared by every trial; holds store deltas and sparse granule bitmaps
/// only, never a copy of device memory.
#[derive(Debug, Default)]
pub struct CtaLog {
    launches: Vec<LaunchLog>,
    /// The distinct kernels launched, referenced by [`LaunchLog::kernel`].
    kernels: Vec<Kernel>,
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

fn same_kernel(a: &Kernel, b: &Kernel) -> bool {
    a.num_regs == b.num_regs && a.smem_bytes == b.smem_bytes && a.instrs == b.instrs
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

impl Delta<'_> {
    /// `(address, final word)`, ascending by address.
    fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.runs
            .iter()
            .flat_map(|&(start, n)| (0..n).map(move |i| start + 4 * i))
            .zip(self.words.iter().copied())
    }

    fn contains(&self, addr: u32) -> bool {
        let after = self.runs.partition_point(|&(start, _)| start <= addr);
        after > 0 && addr < self.runs[after - 1].0 + 4 * self.runs[after - 1].1
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
        let kernels = |k: &Kernel| {
            k.instrs.len() * std::mem::size_of::<vgpu_arch::Instr>()
                + std::mem::size_of_val(k.facts())
        };
        (self.launches.iter().map(per_launch).sum::<usize>()
            + self.kernels.iter().map(kernels).sum::<usize>()) as u64
    }

    /// Run the next golden launch CTA by CTA on `mem`, logging each CTA's
    /// stores, read footprint and starting statistics. Returns the launch
    /// statistics.
    pub(crate) fn capture_launch(
        &mut self,
        mem: &mut GlobalMem,
        kernel: &Kernel,
        lc: &LaunchConfig,
        max_stack: usize,
    ) -> Result<Stats, LaunchAbort> {
        let kernel_idx = match self.kernels.iter().position(|k| same_kernel(k, kernel)) {
            Some(i) => i,
            None => {
                self.kernels.push(kernel.clone());
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
#[derive(Debug, Default)]
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
    /// what golden memory holds there now.
    fn absorb(&mut self, mem: &GlobalMem, stores: &mut Vec<(u32, u32)>, golden: Delta<'_>) {
        // Stable sort + dedup keeps each address's first journal entry:
        // the word the CTA found there.
        stores.sort_by_key(|&(a, _)| a);
        stores.dedup_by_key(|&mut (a, _)| a);
        for &(addr, found) in stores.iter() {
            if golden.contains(addr) {
                continue;
            }
            // The golden CTA left this word alone, so golden memory holds
            // what it held before: the recorded golden value of a dirty
            // word, else what the trial's own memory held.
            let gold = self.words.get(&addr).copied().unwrap_or(found);
            self.settle(addr, gold, mem.read_u32(addr));
        }
        for (addr, gold) in golden.iter() {
            self.settle(addr, gold, mem.read_u32(addr));
        }
    }
}

/// What [`CtaReplay::launch`] did with one launch that completed.
pub(crate) struct CtaLaunch {
    /// Launch statistics, bit-identical to a whole-launch simulation's.
    pub stats: Stats,
    /// Thread instructions actually simulated (the rest was credited).
    pub simulated_instrs: u64,
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
    /// Store journal of the CTA being simulated (scratch).
    stores: Vec<(u32, u32)>,
    pub replayed: u32,
    pub simulated: u32,
}

impl CtaReplay {
    pub fn new(log: &Arc<CtaLog>) -> Self {
        CtaReplay {
            log: Arc::clone(log),
            dirty: DirtySet::default(),
            live: true,
            stores: Vec::new(),
            replayed: 0,
            simulated: 0,
        }
    }

    /// Whether the trial's memory currently equals golden memory with the
    /// log still in use — everything that follows is then golden.
    pub fn converged(&self) -> bool {
        self.live && self.dirty.is_empty()
    }

    /// The host read `addr`: a dirty word may steer the host program away
    /// from the golden one, so the log is consulted no further.
    pub fn host_read(&mut self, addr: u32) {
        if self.dirty.granule_dirty(addr) && self.dirty.words.contains_key(&addr) {
            self.live = false;
        }
    }

    /// The host wrote `addr`. Until it has read a dirty word the host
    /// program is the golden one, so the golden run wrote the same value.
    pub fn host_write(&mut self, addr: u32) {
        if self.live && !self.dirty.is_empty() {
            self.dirty.remove(addr);
        }
    }

    /// Run launch `ordinal` CTA by CTA: replay the CTAs the dirty set
    /// cannot reach, simulate the others (the one carrying `fault`
    /// included; `applied` is set if it fires, abort or not). `None` means
    /// the log no longer applies — the host diverged, or the launch is
    /// not the golden run's — and the caller must simulate the launch
    /// whole.
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        &mut self,
        mem: &mut GlobalMem,
        ordinal: usize,
        kernel: &Kernel,
        lc: &LaunchConfig,
        fault: Option<&SwFault>,
        applied: &mut bool,
        budget_instrs: u64,
        max_stack: usize,
    ) -> Option<Result<CtaLaunch, LaunchAbort>> {
        let CtaReplay {
            log,
            dirty,
            live,
            stores,
            replayed,
            simulated,
        } = self;
        let ll = log.launches.get(ordinal).filter(|ll| {
            *live
                && (ll.grid_x, ll.grid_y, ll.block_x) == (lc.grid_x, lc.grid_y, lc.block_x)
                && ll.params == lc.params
                && same_kernel(&log.kernels[ll.kernel], kernel)
        });
        let Some(ll) = ll else {
            *live = false;
            return None;
        };
        let fault_cta = fault.and_then(|f| ll.fault_cta(f));
        let mut out = CtaLaunch {
            stats: Stats::default(),
            simulated_instrs: 0,
        };
        for c in 0..ll.ctas() {
            let carries_fault = fault_cta == Some(c);
            if !carries_fault && !dirty.touches(ll.footprint(c)) {
                for (addr, v) in ll.delta(c).iter() {
                    mem.write_u32(addr, v);
                    if !dirty.is_empty() {
                        dirty.remove(addr);
                    }
                }
                out.stats.add_engine_delta(&ll.cum[c + 1], &ll.cum[c]);
                *replayed += 1;
                // The oracle checks the budget after every warp slice; the
                // count only grows, so checking where a replayed CTA ends
                // reports the same timeouts.
                if out.stats.thread_instrs > budget_instrs {
                    return Some(Err(LaunchAbort::Timeout));
                }
                continue;
            }
            let mut inj = fault.filter(|_| carries_fault).map(|f| {
                let mut inj = SwInjector::new(*f);
                inj.counter = f.kind.eligible(&ll.cum[c]);
                inj
            });
            let before = out.stats.thread_instrs;
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
                &mut out.stats,
                budget_instrs,
                max_stack,
            );
            *simulated += 1;
            out.simulated_instrs += out.stats.thread_instrs - before;
            *applied |= inj.is_some_and(|i| i.applied);
            if let Err(abort) = run {
                return Some(Err(abort));
            }
            dirty.absorb(mem, stores, ll.delta(c));
        }
        Some(Ok(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
