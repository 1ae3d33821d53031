//! The continuous-time event calendar at the heart of the orchestrator.
//!
//! A deterministic calendar of typed control events — aggregator
//! heartbeats, metric-grid points, workload arrivals, chaos actions, the
//! drain deadline. Each producer runs one self-rescheduling chain (a
//! handler pops its class's entry and schedules at most one successor), so
//! the calendar holds at most one due instant per event class, in five
//! slots. The next event is the earliest slot; simultaneous events pop
//! in a fixed class order (the order the naive tick loop processes them
//! within one tick). Pop order is therefore a pure function of the due
//! times — never of insertion order, hash state, or allocation addresses.
//!
//! Event times are *processing* instants: producers snap a continuous due
//! time to the first tick-grid point at or after it (see
//! [`grid_at_or_after`]) before scheduling, because the oracle loop
//! (`KubeKnots::run_ticked`) only observes the world at grid
//! points. Handlers then advance the simulation in closed form between
//! events; nothing in the hot path rescans layers for their next due
//! instant.

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
    /// Priority class within one instant (lower pops first): the
    /// declaration index, which also indexes the calendar's slots.
    pub fn priority(self) -> u8 {
        self as u8
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

/// The deterministic event calendar: one optional due instant per
/// [`CoreEvent`] class, indexed by [`CoreEvent::priority`].
///
/// The earliest entry is kept beside the slots, so schedule and peek are
/// O(1) and a pop rescans the five slots once. Stale entries (a chaos
/// heartbeat delay moved the aggregator's due time after its event was
/// scheduled) are handled by the consumer re-validating against the
/// producing layer on pop and re-scheduling — lazy invalidation, so the
/// stale instant still pops.
#[derive(Debug, Default)]
pub struct EventCalendar {
    due: [Option<SimTime>; 5],
    /// The earliest occupied slot, in `(time, priority)` order.
    next: Option<(SimTime, CoreEvent)>,
}

impl EventCalendar {
    /// An empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `at`. Its class must have no entry yet: every
    /// producer keeps one chain, scheduling its successor only after its
    /// entry popped.
    pub fn schedule(&mut self, at: SimTime, kind: CoreEvent) {
        let slot = &mut self.due[kind.priority() as usize];
        debug_assert!(slot.is_none(), "{kind:?} is already scheduled at {slot:?}");
        *slot = Some(at);
        if self.next.is_none_or(|next| (at, kind) < next) {
            self.next = Some((at, kind));
        }
    }

    /// The earliest scheduled instant, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// The next event's `(time, kind)` without popping it: the earliest
    /// instant, and at equal instants the lowest priority class.
    pub fn peek(&self) -> Option<(SimTime, CoreEvent)> {
        self.next
    }

    /// Pop the next event due at or before `now`, in `(time, priority)`
    /// order. Returns `None` once every remaining event is in the future.
    pub fn pop_due(&mut self, now: SimTime) -> Option<CoreEvent> {
        match self.next {
            Some((at, _)) if at <= now => self.pop().map(|(_, kind)| kind),
            _ => None,
        }
    }

    /// Pop the next event unconditionally.
    pub fn pop(&mut self) -> Option<(SimTime, CoreEvent)> {
        let popped = self.next?;
        self.due[popped.1.priority() as usize] = None;
        self.next = None;
        for (slot, kind) in self.due.iter().zip(CoreEvent::ALL) {
            // Slots run in priority order, so a later class wins only when
            // strictly earlier.
            if let Some(at) = *slot {
                if self.next.is_none_or(|(t, _)| at < t) {
                    self.next = Some((at, kind));
                }
            }
        }
        Some(popped)
    }

    /// Every scheduled entry in pop order — `(time, priority)` — for a
    /// control-plane snapshot (see crates/recovery).
    /// [`EventCalendar::from_entries`] rebuilds the same calendar.
    pub fn entries(&self) -> Vec<(SimTime, CoreEvent)> {
        let slots = self.due.iter().zip(CoreEvent::ALL);
        let mut v: Vec<_> = slots.filter_map(|(at, kind)| Some(((*at)?, kind))).collect();
        v.sort();
        v
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
    fn simultaneous_events_pop_in_priority_order() {
        // Enqueue every class at the same instant in five different orders:
        // the pop sequence is always the priority-class order.
        let t = SimTime::from_millis(40);
        for r in 0..5 {
            let mut order = CoreEvent::ALL;
            order.reverse();
            order.rotate_left(r);
            let mut cal = EventCalendar::new();
            for kind in order {
                cal.schedule(t, kind);
            }
            let popped: Vec<_> = std::iter::from_fn(|| cal.pop_due(t)).collect();
            assert_eq!(popped, CoreEvent::ALL, "pop order must not depend on push order");
        }
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
        assert_eq!(cal.peek(), Some((SimTime::from_millis(30), CoreEvent::Heartbeat)));
    }

    #[test]
    fn entries_export_rebuilds_an_identical_calendar() {
        // One entry per class, scheduled out of order, two of them tied.
        let ms = SimTime::from_millis;
        let mut cal = EventCalendar::new();
        for (at, class) in [(30, 3), (10, 1), (50, 4), (10, 0), (20, 2)] {
            cal.schedule(ms(at), CoreEvent::ALL[class]);
        }
        let entries = cal.entries();
        let in_pop_order: Vec<_> =
            [10, 10, 20, 30, 50].map(ms).into_iter().zip(CoreEvent::ALL).collect();
        assert_eq!(entries, in_pop_order);
        let mut rebuilt = EventCalendar::from_entries(&entries);
        // Re-schedule a popped class to tie with a restored entry, then pop
        // both calendars dry.
        for c in [&mut cal, &mut rebuilt] {
            assert_eq!(c.pop(), Some((ms(10), CoreEvent::MetricGrid)));
            c.schedule(ms(30), CoreEvent::MetricGrid);
        }
        let drain = |c: &mut EventCalendar| std::iter::from_fn(|| c.pop()).collect::<Vec<_>>();
        assert_eq!(drain(&mut cal), drain(&mut rebuilt));
    }

    proptest::proptest! {
        /// Random schedules and pops against a sorted list of the occupied
        /// slots: the cached earliest entry is always the list's head.
        #[test]
        fn cached_next_is_the_earliest_entry(
            ops in proptest::collection::vec((0usize..5, 0u64..6, proptest::bool::ANY), 1..60),
        ) {
            let mut cal = EventCalendar::new();
            for (class, ms, pop) in ops {
                let kind = CoreEvent::ALL[class];
                if pop {
                    let want = cal.entries().first().copied();
                    proptest::prop_assert_eq!(cal.pop(), want);
                } else if cal.entries().iter().all(|&(_, k)| k != kind) {
                    cal.schedule(SimTime::from_millis(ms), kind);
                }
                proptest::prop_assert_eq!(cal.peek(), cal.entries().first().copied());
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
