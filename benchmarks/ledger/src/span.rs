//! In-memory spans around the ledger's own calls into each layer.
//!
//! Every call the ledger makes into a layer's public functions goes
//! through [`Tracer::begin`] / [`Tracer::end`]: the pair always *times*
//! the call (the end-to-end metrics are sums of those durations), and in
//! a traced run it also *records* a [`Span`] — name, start, end, parent
//! and campaign id — that is written out as JSONL when the run ends.
//!
//! A span's layer is the part of its name before the first `.`. Where a
//! child layer runs *inside* the callee (the golden run inside
//! `prepare_*`, the trials inside `execute_shard`) the ledger cannot
//! bracket it from outside; it measures the child standalone on the same
//! inputs and inserts a synthetic child span of that duration
//! ([`Tracer::add_synthetic`]), so the parent's self time is what is
//! left after subtracting it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::J;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Identifier shared by all spans of one campaign (`app#seed`).
    pub campaign: String,
    /// Inserted from a standalone probe, not bracketed live.
    pub synthetic: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json(&self) -> J {
        J::obj([
            ("id", J::Int(self.id as u64)),
            ("parent", self.parent.map_or(J::Null, |p| J::Int(p as u64))),
            ("name", J::str(self.name)),
            ("start_ns", J::Int(self.start_ns)),
            ("end_ns", J::Int(self.end_ns)),
            ("campaign", J::str(&self.campaign)),
            ("synthetic", J::Bool(self.synthetic)),
        ])
    }
}

/// Handle of an open interval, returned by [`Tracer::begin`].
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open {
    started: Instant,
    id: Option<usize>,
}

/// Times every bracketed call; records spans only when `recording`.
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    campaign: String,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            campaign: String::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Campaign id stamped on every span opened from now on.
    pub fn set_campaign(&mut self, id: String) {
        self.campaign = id;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let id = self.recording.then(|| {
            let id = self.spans.len();
            let at = started.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name,
                start_ns: at,
                end_ns: at,
                campaign: self.campaign.clone(),
                synthetic: false,
            });
            self.stack.push(id);
            id
        });
        Open { started, id }
    }

    /// Close `open`; returns the bracketed duration and, when recording,
    /// the span's id (for [`Tracer::add_synthetic`]).
    pub fn end(&mut self, open: Open) -> (Duration, Option<usize>) {
        let dur = open.started.elapsed();
        if let Some(id) = open.id {
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans must close innermost-first");
            self.spans[id].end_ns = self.spans[id].start_ns + dur.as_nanos() as u64;
        }
        (dur, open.id)
    }

    /// Bracket `f` in a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.begin(name);
        let r = f();
        (r, self.end(open).0)
    }

    /// Insert under `parent` a child lasting `dur` that was measured
    /// standalone on the same inputs. It fills the parts of the parent no
    /// other child covers, earliest first (split across gaps if need be),
    /// and whatever does not fit is dropped — so children always nest
    /// inside their parent, never overlap, and self time cannot go
    /// negative.
    pub fn add_synthetic(&mut self, parent: usize, name: &'static str, dur: Duration) {
        let (p_start, p_end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        let campaign = self.spans[parent].campaign.clone();
        let mut taken: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| {
                (
                    s.start_ns.clamp(p_start, p_end),
                    s.end_ns.clamp(p_start, p_end),
                )
            })
            .collect();
        taken.sort_unstable();
        taken.push((p_end, p_end));
        let mut left = dur.as_nanos() as u64;
        let mut at = p_start;
        for (a, b) in taken {
            let room = a.saturating_sub(at).min(left);
            if room > 0 {
                let id = self.spans.len();
                self.spans.push(Span {
                    id,
                    parent: Some(parent),
                    name,
                    start_ns: at,
                    end_ns: at + room,
                    campaign: campaign.clone(),
                    synthetic: true,
                });
                left -= room;
            }
            at = at.max(b);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are merged, not double-counted).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            kids.entry(p)
                .or_default()
                .push((s.start_ns.clamp(ps, pe), s.end_ns.clamp(ps, pe)));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut upto = s.start_ns;
            let mut iv = kids.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            for (a, b) in iv {
                let a = a.max(upto);
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Layer a span name is attributed to: the part before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Total self time per span name, in seconds.
pub fn self_s_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_default() += ns as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            campaign: "t".into(),
            synthetic: false,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children_and_is_never_negative() {
        let spans = vec![
            span(0, None, "core.execute", 0, 100),
            span(1, Some(0), "kernels.trial", 10, 60),
            // Overlaps its sibling: the union [10, 80) counts once.
            span(2, Some(0), "trace.adjudicate", 40, 80),
            // Sticks out of the parent: clamped to [.., 100).
            span(3, Some(0), "kernels.golden", 90, 250),
            span(4, Some(1), "vgpu-sim.launch", 10, 60),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st, vec![20, 0, 40, 160, 50]);
        let by = self_s_by_name(&spans);
        assert!((by["core.execute"] - 20e-9).abs() < 1e-15);
        assert!((by["vgpu-sim.launch"] - 50e-9).abs() < 1e-15);
        assert_eq!(layer_of("vgpu-sim.launch"), "vgpu-sim");
        assert_eq!(layer_of("core.checkpoint.sync"), "core");
    }

    #[test]
    fn tracer_nests_live_spans_and_clamps_synthetic_children() {
        let mut t = Tracer::new(true);
        t.set_campaign("VA#7".into());
        let outer = t.begin("core.prepare");
        let ((), inner_dur) = t.time("kernels.golden", || {
            std::thread::sleep(Duration::from_millis(2));
        });
        let (outer_dur, outer_id) = t.end(outer);
        let outer_id = outer_id.unwrap();
        assert!(outer_dur >= inner_dur);
        // A probe longer than the parent cannot push self time below 0:
        // it fills the gaps around the live child and the rest is dropped.
        t.add_synthetic(outer_id, "kernels.golden", Duration::from_secs(5));
        t.add_synthetic(outer_id, "kernels.golden", Duration::from_secs(5));
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(outer_id));
        assert_eq!(spans[1].campaign, "VA#7");
        for s in spans {
            if let Some(p) = s.parent {
                assert!(s.start_ns >= spans[p].start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        let kids: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent == Some(outer_id))
            .collect();
        for (i, a) in kids.iter().enumerate() {
            for b in &kids[i + 1..] {
                assert!(a.end_ns <= b.start_ns || b.end_ns <= a.start_ns, "overlap");
            }
        }
        let covered: u64 = kids.iter().map(|s| s.dur_ns()).sum();
        assert_eq!(covered, spans[outer_id].dur_ns(), "gaps filled exactly");
        assert_eq!(self_times_ns(spans)[outer_id], 0);
    }

    #[test]
    fn a_tracer_that_does_not_record_still_times() {
        let mut t = Tracer::new(false);
        let ((), d) = t.time("core.execute", || {
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(d >= Duration::from_millis(1));
        assert!(t.spans().is_empty());
    }
}
