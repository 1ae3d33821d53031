//! The continuous-time event calendar at the heart of the orchestrator.
//!
//! A deterministic binary-heap calendar of typed control events — aggregator
//! heartbeats, metric-grid points, workload arrivals, chaos actions, the
//! drain deadline — ordered by the total key `(SimTime, priority, seq)`.
//! The key mirrors the `BTreeMap<(SimTime, seq)>` relaunch-queue convention
//! in `knots-sim`: simultaneous events pop in a fixed class order (the order
//! the naive tick loop processes them within one tick), and events of the
//! same class at the same instant pop in insertion order. Pop order is
//! therefore a pure function of the push sequence — never of heap layout,
//! hash state, or allocation addresses.
//!
//! Event times are *processing* instants: producers snap a continuous due
//! time to the first tick-grid point at or after it (see
//! [`grid_at_or_after`]) before scheduling, because the oracle loop
//! (`KubeKnots::run_ticked`) only observes the world at grid
//! points. Handlers then advance the simulation in closed form between
//! events; nothing in the hot path rescans layers for their next due
//! instant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use knots_sim::time::SimTime;

/// A typed control event. The variant fixes the event's priority class:
/// within one instant, classes pop in the order the naive tick loop
/// processes them — end-of-previous-tick work (metric grid) first, then
/// start-of-tick work (arrivals, chaos, heartbeat), then the deadline.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum CoreEvent {
    /// Experiment metric-grid point (`collect_metrics`): end-of-tick work,
    /// so it sorts before the start-of-tick classes at the same instant.
    MetricGrid,
    /// One or more workload arrivals have come due.
    Arrival,
    /// The chaos engine has actions due (injections or recoveries).
    Chaos,
    /// Aggregator heartbeat: snapshot, decide, apply.
    Heartbeat,
    /// The drain deadline: the run stops here regardless of queue state.
    DrainDeadline,
}

impl CoreEvent {
    /// Priority class within one instant (lower pops first).
    pub fn priority(self) -> u8 {
        match self {
            CoreEvent::MetricGrid => 0,
            CoreEvent::Arrival => 1,
            CoreEvent::Chaos => 2,
            CoreEvent::Heartbeat => 3,
            CoreEvent::DrainDeadline => 4,
        }
    }

    /// Stable label for metrics (`knots_core_events_total{kind=...}`).
    pub fn label(self) -> &'static str {
        match self {
            CoreEvent::MetricGrid => "metric_grid",
            CoreEvent::Arrival => "arrival",
            CoreEvent::Chaos => "chaos",
            CoreEvent::Heartbeat => "heartbeat",
            CoreEvent::DrainDeadline => "drain_deadline",
        }
    }

    /// Every event kind, in priority order (metrics export iterates this).
    pub const ALL: [CoreEvent; 5] = [
        CoreEvent::MetricGrid,
        CoreEvent::Arrival,
        CoreEvent::Chaos,
        CoreEvent::Heartbeat,
        CoreEvent::DrainDeadline,
    ];
}

/// Heap entry: the total order is `(time, priority, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: SimTime,
    priority: u8,
    seq: u64,
    kind: CoreEvent,
}

/// The deterministic event calendar.
///
/// A thin wrapper over `BinaryHeap<Reverse<Entry>>`: O(log n) push and pop,
/// O(1) peek of the earliest instant. Stale entries (a chaos heartbeat
/// delay moved the aggregator's due time after its event was enqueued) are
/// handled by the consumer re-validating against the producing layer on
/// pop and re-scheduling — lazy invalidation, never in-heap mutation.
#[derive(Debug, Default)]
pub struct EventCalendar {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl EventCalendar {
    /// An empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `at`. Ties at the same instant break by the
    /// event's priority class, then by insertion order.
    pub fn schedule(&mut self, at: SimTime, kind: CoreEvent) {
        let entry = Entry { at, priority: kind.priority(), seq: self.seq, kind };
        self.seq += 1;
        self.heap.push(Reverse(entry));
    }

    /// The earliest scheduled instant, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// The next event's `(time, kind)` without popping it.
    pub fn peek(&self) -> Option<(SimTime, CoreEvent)> {
        self.heap.peek().map(|Reverse(e)| (e.at, e.kind))
    }

    /// Pop the next event due at or before `now`, in `(time, priority,
    /// seq)` order. Returns `None` once every remaining event is in the
    /// future.
    pub fn pop_due(&mut self, now: SimTime) -> Option<CoreEvent> {
        match self.heap.peek() {
            Some(Reverse(e)) if e.at <= now => self.heap.pop().map(|Reverse(e)| e.kind),
            _ => None,
        }
    }

    /// Pop the next event unconditionally.
    pub fn pop(&mut self) -> Option<(SimTime, CoreEvent)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.kind))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the calendar is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every scheduled entry in pop order — `(time, priority, seq)` — for a
    /// control-plane snapshot (see crates/recovery). Heap iteration order is
    /// layout-dependent, so the export sorts; rebuilding via
    /// [`EventCalendar::from_entries`] re-pushes in this order, which
    /// preserves all tie-breaks (restored entries receive fresh ascending
    /// sequence numbers, and any entry scheduled after a restore is younger
    /// than every restored one — exactly as in the uninterrupted run).
    pub fn entries(&self) -> Vec<(SimTime, CoreEvent)> {
        let mut v: Vec<Entry> = self.heap.iter().map(|Reverse(e)| *e).collect();
        v.sort();
        v.into_iter().map(|e| (e.at, e.kind)).collect()
    }

    /// Rebuild a calendar from entries exported by
    /// [`EventCalendar::entries`].
    pub fn from_entries(entries: &[(SimTime, CoreEvent)]) -> Self {
        let mut cal = EventCalendar::new();
        for &(at, kind) in entries {
            cal.schedule(at, kind);
        }
        cal
    }
}

/// One event the loop actually applied, in application order — the record
/// type of the recovery crate's write-ahead log. The WAL acts as a
/// divergence fence: replaying from the last checkpoint must re-apply
/// exactly this sequence or the restored state did not capture something.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AppliedEvent {
    /// The instant the event was processed at.
    pub at: SimTime,
    /// The event class.
    pub kind: CoreEvent,
}

/// Snap a continuous due instant to the first tick-grid point at or after
/// it (grid anchored at t=0). The oracle loop only observes the world at
/// grid points, so an event scheduled for its grid-snapped processing
/// instant fires exactly where naive ticking would have acted on it.
/// Producers call this once per enqueue — quantization happens at the
/// calendar's edge, never inside event handlers.
pub fn grid_at_or_after(t: SimTime, tick_us: u64) -> SimTime {
    let tick_us = tick_us.max(1);
    let t_us = t.as_micros();
    SimTime::from_micros(t_us.div_ceil(tick_us) * tick_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simultaneous_events_pop_in_priority_then_insertion_order() {
        // Enqueue every class at the same instant in shuffled order, twice
        // (two different shuffles), plus same-class duplicates: the pop
        // sequence must be identical — priority class first, then seq.
        let t = SimTime::from_millis(40);
        let shuffles: [&[CoreEvent]; 3] = [
            &[
                CoreEvent::Heartbeat,
                CoreEvent::Arrival,
                CoreEvent::DrainDeadline,
                CoreEvent::Chaos,
                CoreEvent::MetricGrid,
            ],
            &[
                CoreEvent::DrainDeadline,
                CoreEvent::MetricGrid,
                CoreEvent::Chaos,
                CoreEvent::Heartbeat,
                CoreEvent::Arrival,
            ],
            &[
                CoreEvent::Arrival,
                CoreEvent::Chaos,
                CoreEvent::MetricGrid,
                CoreEvent::DrainDeadline,
                CoreEvent::Heartbeat,
            ],
        ];
        for order in shuffles {
            let mut cal = EventCalendar::new();
            for &kind in order {
                cal.schedule(t, kind);
            }
            let mut popped = Vec::new();
            while let Some(k) = cal.pop_due(t) {
                popped.push(k);
            }
            assert_eq!(
                popped,
                vec![
                    CoreEvent::MetricGrid,
                    CoreEvent::Arrival,
                    CoreEvent::Chaos,
                    CoreEvent::Heartbeat,
                    CoreEvent::DrainDeadline,
                ],
                "pop order must not depend on push order"
            );
        }
    }

    #[test]
    fn same_class_ties_break_by_insertion_seq() {
        // The relaunch-queue convention: equal (time, priority) resolves by
        // monotone sequence number, i.e. FIFO.
        let mut cal = EventCalendar::new();
        let t = SimTime::from_millis(10);
        cal.schedule(t, CoreEvent::Arrival);
        cal.schedule(t, CoreEvent::Heartbeat);
        cal.schedule(t, CoreEvent::Arrival);
        assert_eq!(cal.pop(), Some((t, CoreEvent::Arrival)));
        assert_eq!(cal.pop(), Some((t, CoreEvent::Arrival)));
        assert_eq!(cal.pop(), Some((t, CoreEvent::Heartbeat)));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn time_dominates_priority() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime::from_millis(20), CoreEvent::MetricGrid);
        cal.schedule(SimTime::from_millis(10), CoreEvent::DrainDeadline);
        assert_eq!(cal.peek_time(), Some(SimTime::from_millis(10)));
        assert_eq!(cal.pop(), Some((SimTime::from_millis(10), CoreEvent::DrainDeadline)));
        assert_eq!(cal.pop(), Some((SimTime::from_millis(20), CoreEvent::MetricGrid)));
    }

    #[test]
    fn pop_due_leaves_future_events() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime::from_millis(10), CoreEvent::Arrival);
        cal.schedule(SimTime::from_millis(30), CoreEvent::Heartbeat);
        assert_eq!(cal.pop_due(SimTime::from_millis(10)), Some(CoreEvent::Arrival));
        assert_eq!(cal.pop_due(SimTime::from_millis(10)), None);
        assert_eq!(cal.len(), 1);
        assert!(!cal.is_empty());
    }

    #[test]
    fn entries_export_rebuilds_an_identical_calendar() {
        let mut cal = EventCalendar::new();
        let t = SimTime::from_millis(10);
        cal.schedule(SimTime::from_millis(30), CoreEvent::Heartbeat);
        cal.schedule(t, CoreEvent::Arrival);
        cal.schedule(t, CoreEvent::MetricGrid);
        cal.schedule(t, CoreEvent::Arrival); // same-class tie, FIFO
        let entries = cal.entries();
        assert_eq!(entries.len(), 4);
        let mut rebuilt = EventCalendar::from_entries(&entries);
        // Exhaustive pop comparison, including a post-restore schedule that
        // must tie-break younger than every restored entry.
        cal.schedule(t, CoreEvent::Arrival);
        rebuilt.schedule(t, CoreEvent::Arrival);
        loop {
            let (a, b) = (cal.pop(), rebuilt.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn grid_snap_matches_first_tick_at_or_after() {
        let tick = 10_000u64; // 10 ms
        let snap = |us: u64| grid_at_or_after(SimTime::from_micros(us), tick).as_micros();
        assert_eq!(snap(0), 0);
        assert_eq!(snap(1), 10_000);
        assert_eq!(snap(10_000), 10_000);
        assert_eq!(snap(10_001), 20_000);
        // The metric-cadence case: 100 ms due on a 30 ms grid snaps to 120.
        assert_eq!(grid_at_or_after(SimTime::from_millis(100), 30_000).as_micros(), 120_000);
    }
}
