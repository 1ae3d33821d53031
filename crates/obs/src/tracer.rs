//! Causal, sim-time span sink.
//!
//! The control loop emits system spans (`agg.heartbeat`, `sched.round`,
//! `probe.round`, `pool.batch`, `chaos.inject`) on a control track, and
//! `knots-trace`'s lifecycle tracker folds the cluster event log into
//! per-pod stage spans. Design rules (see DESIGN.md §12):
//! - **Sim time only.** Every timestamp is `SimTime` microseconds; a trace
//!   is a pure function of the run seed, byte-identical across `--threads`.
//! - **Bounded.** Spans live in a ring buffer like the JSONL recorder;
//!   stage histograms are streamed on emission so the latency breakdown
//!   stays exact even after ring eviction.
//! - **Near-free when off.** A disabled tracer holds no allocation and
//!   every emission site is a single `Option` branch, mirroring
//!   [`Recorder`](crate::Recorder).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

use crate::event::FieldValue;
use crate::histogram::Histogram;

/// Stage-latency histograms span 1 µs .. ~2^39 µs (~6.4 days of sim time),
/// enough head-room for full-length 12 h DNN traces.
const STAGE_HISTOGRAM_BUCKETS: usize = 40;

/// Which timeline a span lives on. Control-loop spans (probe rounds,
/// scheduling rounds, multi-tick step batches, chaos injections) share one
/// track; each pod gets its own, keyed by pod id, so a Perfetto view shows
/// one row per pod with the lifecycle stages laid end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The orchestrator's own timeline.
    Control,
    /// A pod's lifecycle timeline, keyed by pod id.
    Pod(u64),
}

/// One trace span. `dur_us = None` marks an instant event (a point in
/// time: `placed` audit links, `checkpoint`, `migrated`, `gave_up`);
/// `Some(d)` marks a complete span covering `[start_us, start_us + d]`
/// (`queued`, `running`, `relaunch.backoff`, `pool.batch`).
///
/// All timestamps are **simulation time** in microseconds. Span ids are
/// allocated sequentially by the tracer in emission order, which is what
/// makes a trace a pure function of the run seed.
#[derive(Debug, Clone)]
pub struct Span {
    /// Tracer-unique id (1-based, emission order).
    pub id: u64,
    /// Causal parent span, if any.
    pub parent: Option<u64>,
    /// Stage name, `dot.case` (`queued`, `sched.round`, `relaunch.backoff`).
    pub name: &'static str,
    /// Timeline this span belongs to.
    pub track: Track,
    /// Start, sim-time microseconds.
    pub start_us: u64,
    /// Duration in microseconds; `None` for instant events.
    pub dur_us: Option<u64>,
    /// Structured payload, in insertion order.
    pub args: Vec<(&'static str, FieldValue)>,
}

impl Span {
    /// End timestamp (equals `start_us` for instants).
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us.unwrap_or(0)
    }
}

/// One leg's span sink.
///
/// A disabled tracer holds no buffer and every `record_*` call is one
/// `Option` branch; an enabled tracer keeps the most recent `capacity`
/// spans and counts what it evicts. Span ids are sequential in emission
/// order, so a single-threaded control loop produces a deterministic id
/// assignment. The state sits in a `RefCell` (the lifecycle tracker emits
/// through a shared borrow); a study running legs on several threads
/// gives each its own tracer and merges them with [`Tracer::absorb`].
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Option<RefCell<State>>,
}

#[derive(Debug)]
struct State {
    spans: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
    /// The id this tracer's numbering began at (see [`Tracer::empty_like`]).
    first_id: u64,
    next_id: u64,
    /// Per-stage duration histograms, fed at emission time so eviction
    /// from the ring never loses latency mass. Complete spans only.
    stages: BTreeMap<&'static str, Histogram>,
}

impl Tracer {
    /// A tracer that silently drops everything.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer retaining at most `capacity` spans (oldest evicted).
    pub fn bounded(capacity: usize) -> Self {
        Self::numbered_from(capacity, 1)
    }

    fn numbered_from(capacity: usize, first_id: u64) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            inner: Some(RefCell::new(State {
                spans: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                dropped: 0,
                first_id,
                next_id: first_id,
                stages: BTreeMap::new(),
            })),
        }
    }

    /// An empty tracer with this one's capacity (disabled when this one
    /// is) that numbers its spans on from this one's next id: what a leg
    /// records into before [`Tracer::absorb`].
    pub fn empty_like(&self) -> Self {
        self.inner.as_ref().map_or_else(Self::disabled, |st| {
            let st = st.borrow();
            Self::numbered_from(st.capacity, st.next_id)
        })
    }

    /// Append `leg`'s spans after this tracer's, under this tracer's
    /// capacity, and merge its stage histograms. The leg's spans are
    /// renumbered to follow this tracer's; a parent id from before the leg
    /// began already is in this tracer's numbering and is kept. A disabled
    /// tracer drops them.
    pub fn absorb(&self, leg: Tracer) {
        let (Some(st), Some(leg)) = (&self.inner, leg.inner) else { return };
        let leg = leg.into_inner();
        let mut st = st.borrow_mut();
        let (first, base) = (leg.first_id, st.next_id);
        let renumber = move |id: u64| if id >= first { id - first + base } else { id };
        st.next_id += leg.next_id - first;
        st.dropped += leg.dropped;
        for mut span in leg.spans {
            span.id = renumber(span.id);
            span.parent = span.parent.map(renumber);
            st.evict_if_full();
            st.spans.push_back(span);
        }
        for (name, h) in leg.stages {
            st.stages.entry(name).and_modify(|sum| sum.merge(&h)).or_insert(h);
        }
    }

    /// Whether spans are being kept. Call sites building expensive args
    /// should check this first.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record a complete span covering `[start_us, end_us]` and stream its
    /// duration into the per-stage histogram. Returns the span id, or
    /// `None` when disabled.
    pub fn record_complete(
        &self,
        track: Track,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: Option<u64>,
        args: Vec<(&'static str, FieldValue)>,
    ) -> Option<u64> {
        let mut st = self.inner.as_ref()?.borrow_mut();
        let dur = end_us.saturating_sub(start_us);
        st.stages
            .entry(name)
            .or_insert_with(|| Histogram::exponential(1.0, 2.0, STAGE_HISTOGRAM_BUCKETS))
            .observe(dur as f64);
        Some(st.push(Span { id: 0, parent, name, track, start_us, dur_us: Some(dur), args }))
    }

    /// Record an instant event at `at_us`. Returns the span id, or `None`
    /// when disabled.
    pub fn record_instant(
        &self,
        track: Track,
        name: &'static str,
        at_us: u64,
        parent: Option<u64>,
        args: Vec<(&'static str, FieldValue)>,
    ) -> Option<u64> {
        let mut st = self.inner.as_ref()?.borrow_mut();
        Some(st.push(Span { id: 0, parent, name, track, start_us: at_us, dur_us: None, args }))
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.borrow().spans.len())
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of spans evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().dropped)
    }

    /// Snapshot the retained spans (oldest first).
    pub fn spans(&self) -> Vec<Span> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.borrow().spans.iter().cloned().collect())
    }

    /// Snapshot the per-stage duration histograms, sorted by stage name.
    /// These cover *every* complete span ever recorded, including ones the
    /// ring has since evicted.
    pub fn stage_histograms(&self) -> Vec<(&'static str, Histogram)> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.borrow().stages.iter().map(|(k, v)| (*k, v.clone())).collect()
        })
    }
}

impl State {
    fn push(&mut self, mut span: Span) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        span.id = id;
        self.evict_if_full();
        self.spans.push_back(span);
        id
    }

    fn evict_if_full(&mut self) {
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.record_instant(Track::Control, "probe.round", 5, None, vec![]), None);
        assert!(t.is_empty());
        assert!(t.stage_histograms().is_empty());
    }

    #[test]
    fn ids_are_sequential_and_parents_link() {
        let t = Tracer::bounded(16);
        let a = t.record_complete(Track::Pod(7), "queued", 0, 100, None, vec![]).unwrap();
        let b = t.record_complete(Track::Pod(7), "placed", 100, 150, Some(a), vec![]).unwrap();
        assert_eq!((a, b), (1, 2));
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(a));
        assert_eq!(spans[1].end_us(), 150);
    }

    #[test]
    fn ring_evicts_but_histograms_keep_everything() {
        let t = Tracer::bounded(2);
        for i in 0..5u64 {
            t.record_complete(Track::Pod(i), "queued", 0, 10, None, vec![]);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let stages = t.stage_histograms();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].0, "queued");
        assert_eq!(stages[0].1.count(), 5);
    }

    #[test]
    fn absorbed_legs_are_renumbered_in_order() {
        let t = Tracer::bounded(3);
        let legs = [t.empty_like(), t.empty_like()];
        for leg in &legs {
            let q = leg.record_complete(Track::Pod(1), "queued", 0, 10, None, vec![]);
            leg.record_instant(Track::Pod(1), "placed", 10, q, vec![]);
        }
        for leg in legs {
            t.absorb(leg);
        }
        // Four spans through a ring of three: the first leg's `queued` goes.
        assert_eq!((t.len(), t.dropped()), (3, 1));
        let ids: Vec<(u64, Option<u64>)> = t.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(2, Some(1)), (3, None), (4, Some(3))]);
        assert_eq!(t.stage_histograms()[0].1.count(), 2);
        // A leg made now numbers on from the merged spans.
        let next = t.empty_like();
        assert_eq!(next.record_instant(Track::Control, "chaos.inject", 1, None, vec![]), Some(5));
    }
}
