//! The span record: one causal unit of work, on a track, in sim time.

use knots_obs::FieldValue;

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
