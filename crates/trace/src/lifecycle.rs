//! Turns the cluster event log into causal per-pod stage spans.
//!
//! The simulator already records every externally observable lifecycle
//! transition as a `knots_sim::events::Event`; this tracker folds that
//! stream into *stage intervals* — the time a pod spent `queued`, being
//! `placed` (image pull / reattach), `running`, `suspended`, or sitting in
//! `relaunch.backoff` — and emits each interval as a complete span when
//! the transition that ends it arrives. Instants (`checkpoint`,
//! `migrated`, `completed`, `gave_up`, `resized`) mark the transitions
//! themselves. Within a pod, each span's parent is the previous span, so
//! the whole lifecycle reads as one causal chain.
//!
//! Node-scoped events (`pod = None`) become control-track instants
//! (`node.failed`, `gpu.degraded`, ...).

use std::collections::BTreeMap;

use knots_obs::{FieldValue, Tracer, Track};
use knots_sim::events::{CrashReason, Event, EventKind};

/// Per-pod facts the tracker cannot derive from the event stream alone.
#[derive(Debug, Clone, Copy)]
pub struct PodMeta {
    /// Submission time, sim-time µs — anchors the first `queued` span
    /// (the `Submitted` event itself is tick-quantized).
    pub arrival_us: u64,
    /// Fraction of progress preserved on crash; > 0 means the pod
    /// checkpoints, which surfaces as a `checkpoint` instant per crash.
    pub checkpoint_fraction: f64,
}

#[derive(Debug)]
struct OpenStage {
    name: &'static str,
    since_us: u64,
    args: Vec<(&'static str, FieldValue)>,
}

#[derive(Debug, Default)]
struct PodState {
    stage: Option<OpenStage>,
    /// Last span emitted for this pod; the next span's causal parent.
    last: Option<u64>,
}

/// Streaming event-log → span folder. Feed it events in log order (the
/// orchestrator keeps a cursor into `cluster.events()`), then [`flush`]
/// once the run ends to close still-open stages.
///
/// [`flush`]: LifecycleTracker::flush
#[derive(Debug, Default)]
pub struct LifecycleTracker {
    pods: BTreeMap<u64, PodState>,
}

fn crash_reason_label(reason: CrashReason) -> &'static str {
    match reason {
        CrashReason::MemoryCapacityViolation => "memory_capacity",
        CrashReason::NodeFailure => "node_failure",
    }
}

impl LifecycleTracker {
    /// A tracker with no pods in flight.
    pub fn new() -> Self {
        Self::default()
    }

    fn close(state: &mut PodState, pod: u64, end_us: u64, tracer: &Tracer) -> Option<u64> {
        let open = state.stage.take()?;
        let id = tracer.record_complete(
            Track::Pod(pod),
            open.name,
            open.since_us,
            end_us,
            state.last,
            open.args,
        );
        state.last = id;
        id
    }

    fn open(
        state: &mut PodState,
        name: &'static str,
        since_us: u64,
        args: Vec<(&'static str, FieldValue)>,
    ) {
        state.stage = Some(OpenStage { name, since_us, args });
    }

    fn instant(
        state: &mut PodState,
        pod: u64,
        name: &'static str,
        at_us: u64,
        args: Vec<(&'static str, FieldValue)>,
        tracer: &Tracer,
    ) {
        let id = tracer.record_instant(Track::Pod(pod), name, at_us, state.last, args);
        state.last = id;
    }

    /// Fold one event. `meta` resolves per-pod facts (arrival time,
    /// checkpointing) from the cluster; it may return `None` for pods the
    /// cluster no longer knows.
    pub fn on_event(&mut self, e: &Event, meta: Option<PodMeta>, tracer: &Tracer) {
        let at = e.at.as_micros();
        let Some(pod_id) = e.pod else {
            self.on_node_event(e, tracer);
            return;
        };
        let pod = pod_id.0;
        let state = self.pods.entry(pod).or_default();
        match e.kind {
            EventKind::Submitted => {
                let start = meta.map_or(at, |m| m.arrival_us.min(at));
                Self::open(state, "queued", start, vec![]);
            }
            EventKind::Placed { node, cold_start } => {
                Self::close(state, pod, at, tracer);
                Self::open(
                    state,
                    "placed",
                    at,
                    vec![
                        ("node", FieldValue::U64(node.0 as u64)),
                        ("cold_start", FieldValue::Bool(cold_start)),
                    ],
                );
            }
            EventKind::Started { node } => {
                Self::close(state, pod, at, tracer);
                Self::open(state, "running", at, vec![("node", FieldValue::U64(node.0 as u64))]);
            }
            EventKind::Completed { .. } => {
                Self::close(state, pod, at, tracer);
                Self::instant(state, pod, "completed", at, vec![], tracer);
                self.pods.remove(&pod);
            }
            EventKind::Crashed { node, reason } => {
                if let Some(open) = state.stage.as_mut() {
                    open.args.push(("outcome", FieldValue::Str("crashed".to_string())));
                    open.args
                        .push(("reason", FieldValue::Str(crash_reason_label(reason).to_string())));
                }
                Self::close(state, pod, at, tracer);
                if meta.is_some_and(|m| m.checkpoint_fraction > 0.0) {
                    let fraction = meta.map_or(0.0, |m| m.checkpoint_fraction);
                    Self::instant(
                        state,
                        pod,
                        "checkpoint",
                        at,
                        vec![("fraction", FieldValue::F64(fraction))],
                        tracer,
                    );
                }
                Self::open(
                    state,
                    "relaunch.backoff",
                    at,
                    vec![("node", FieldValue::U64(node.0 as u64))],
                );
            }
            EventKind::Requeued => {
                Self::close(state, pod, at, tracer);
                Self::open(state, "queued", at, vec![]);
            }
            EventKind::GaveUp { crashes, .. } => {
                Self::close(state, pod, at, tracer);
                Self::instant(
                    state,
                    pod,
                    "gave_up",
                    at,
                    vec![("crashes", FieldValue::U64(u64::from(crashes)))],
                    tracer,
                );
                self.pods.remove(&pod);
            }
            EventKind::Preempted { node } => {
                if let Some(open) = state.stage.as_mut() {
                    open.args.push(("outcome", FieldValue::Str("preempted".to_string())));
                }
                Self::close(state, pod, at, tracer);
                Self::open(state, "suspended", at, vec![("node", FieldValue::U64(node.0 as u64))]);
            }
            EventKind::Resumed { node } => {
                Self::close(state, pod, at, tracer);
                Self::open(
                    state,
                    "placed",
                    at,
                    vec![
                        ("node", FieldValue::U64(node.0 as u64)),
                        ("cold_start", FieldValue::Bool(false)),
                    ],
                );
            }
            EventKind::Migrated { from, to } => {
                if let Some(open) = state.stage.as_mut() {
                    open.args.push(("outcome", FieldValue::Str("migrated".to_string())));
                }
                Self::close(state, pod, at, tracer);
                Self::instant(
                    state,
                    pod,
                    "migrated",
                    at,
                    vec![
                        ("from", FieldValue::U64(from.0 as u64)),
                        ("to", FieldValue::U64(to.0 as u64)),
                    ],
                    tracer,
                );
                Self::open(
                    state,
                    "placed",
                    at,
                    vec![
                        ("node", FieldValue::U64(to.0 as u64)),
                        ("cold_start", FieldValue::Bool(false)),
                    ],
                );
            }
            EventKind::Resized { from_mb, to_mb } => {
                Self::instant(
                    state,
                    pod,
                    "resized",
                    at,
                    vec![("from_mb", FieldValue::F64(from_mb)), ("to_mb", FieldValue::F64(to_mb))],
                    tracer,
                );
            }
            // Node-scoped kinds never carry a pod id.
            _ => {}
        }
    }

    fn on_node_event(&mut self, e: &Event, tracer: &Tracer) {
        let at = e.at.as_micros();
        let (name, args) = match e.kind {
            EventKind::NodeSlept { node } => {
                ("node.slept", vec![("node", FieldValue::U64(node.0 as u64))])
            }
            EventKind::NodeWoken { node } => {
                ("node.woken", vec![("node", FieldValue::U64(node.0 as u64))])
            }
            EventKind::NodeFailed { node } => {
                ("node.failed", vec![("node", FieldValue::U64(node.0 as u64))])
            }
            EventKind::NodeRecovered { node } => {
                ("node.recovered", vec![("node", FieldValue::U64(node.0 as u64))])
            }
            EventKind::GpuDegraded { node, capacity_mb } => (
                "gpu.degraded",
                vec![
                    ("node", FieldValue::U64(node.0 as u64)),
                    ("capacity_mb", FieldValue::F64(capacity_mb)),
                ],
            ),
            _ => return,
        };
        tracer.record_instant(Track::Control, name, at, None, args);
    }

    /// Close every still-open stage at `end_us`, marking it unfinished.
    /// Pods iterate in id order, so the tail of the trace is deterministic.
    pub fn flush(&mut self, end_us: u64, tracer: &Tracer) {
        for (pod, state) in std::mem::take(&mut self.pods) {
            let mut state = state;
            if let Some(open) = state.stage.as_mut() {
                open.args.push(("unfinished", FieldValue::Bool(true)));
                Self::close(&mut state, pod, end_us, tracer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_sim::ids::{NodeId, PodId};
    use knots_sim::time::SimTime;

    fn meta(arrival_us: u64, ckpt: f64) -> Option<PodMeta> {
        Some(PodMeta { arrival_us, checkpoint_fraction: ckpt })
    }

    fn ev(at_us: u64, pod: u64, kind: EventKind) -> Event {
        Event::pod(SimTime::from_micros(at_us), PodId(pod), kind)
    }

    #[test]
    fn happy_path_chains_queued_placed_running_completed() {
        let t = Tracer::bounded(64);
        let mut lt = LifecycleTracker::new();
        lt.on_event(&ev(1_000, 7, EventKind::Submitted), meta(500, 0.0), &t);
        lt.on_event(
            &ev(2_000, 7, EventKind::Placed { node: NodeId(3), cold_start: true }),
            meta(500, 0.0),
            &t,
        );
        lt.on_event(&ev(3_000, 7, EventKind::Started { node: NodeId(3) }), meta(500, 0.0), &t);
        lt.on_event(&ev(9_000, 7, EventKind::Completed { node: NodeId(3) }), meta(500, 0.0), &t);
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["queued", "placed", "running", "completed"]);
        // Queued anchors on the (earlier, exact) arrival, not the tick.
        assert_eq!(spans[0].start_us, 500);
        assert_eq!(spans[0].end_us(), 2_000);
        // Causal chain: each span parents the next.
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].parent, Some(spans[1].id));
        assert_eq!(spans[3].parent, Some(spans[2].id));
        assert!(lt.pods.is_empty());
    }

    #[test]
    fn crash_emits_checkpoint_and_backoff_then_requeue_reopens_queued() {
        let t = Tracer::bounded(64);
        let mut lt = LifecycleTracker::new();
        let m = meta(0, 0.9);
        lt.on_event(&ev(0, 1, EventKind::Submitted), m, &t);
        lt.on_event(&ev(10, 1, EventKind::Placed { node: NodeId(0), cold_start: false }), m, &t);
        lt.on_event(&ev(10, 1, EventKind::Started { node: NodeId(0) }), m, &t);
        lt.on_event(
            &ev(
                50,
                1,
                EventKind::Crashed {
                    node: NodeId(0),
                    reason: CrashReason::MemoryCapacityViolation,
                },
            ),
            m,
            &t,
        );
        lt.on_event(&ev(90, 1, EventKind::Requeued), m, &t);
        lt.flush(120, &t);
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["queued", "placed", "running", "checkpoint", "relaunch.backoff", "queued"]
        );
        // The reopened queue stage was still open at flush time.
        assert!(spans[5].args.iter().any(|(k, _)| *k == "unfinished"));
        let running = &spans[2];
        assert!(running
            .args
            .iter()
            .any(|(k, v)| *k == "outcome" && *v == FieldValue::Str("crashed".to_string())));
        assert_eq!(spans[4].start_us, 50);
        assert_eq!(spans[4].end_us(), 90);
    }

    #[test]
    fn gave_up_terminates_the_chain() {
        let t = Tracer::bounded(64);
        let mut lt = LifecycleTracker::new();
        let m = meta(0, 0.0);
        lt.on_event(&ev(0, 2, EventKind::Submitted), m, &t);
        lt.on_event(&ev(5, 2, EventKind::Placed { node: NodeId(1), cold_start: false }), m, &t);
        lt.on_event(&ev(5, 2, EventKind::Started { node: NodeId(1) }), m, &t);
        lt.on_event(
            &ev(9, 2, EventKind::Crashed { node: NodeId(1), reason: CrashReason::NodeFailure }),
            m,
            &t,
        );
        lt.on_event(&ev(9, 2, EventKind::GaveUp { node: NodeId(1), crashes: 5 }), m, &t);
        let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["queued", "placed", "running", "relaunch.backoff", "gave_up"]);
        assert!(lt.pods.is_empty());
    }

    #[test]
    fn node_events_land_on_the_control_track() {
        let t = Tracer::bounded(8);
        let mut lt = LifecycleTracker::new();
        lt.on_event(
            &Event::node(SimTime::from_micros(7), EventKind::NodeFailed { node: NodeId(4) }),
            None,
            &t,
        );
        let spans = t.spans();
        assert_eq!(spans[0].name, "node.failed");
        assert_eq!(spans[0].track, Track::Control);
    }

    #[test]
    fn flush_closes_open_stages_as_unfinished() {
        let t = Tracer::bounded(8);
        let mut lt = LifecycleTracker::new();
        lt.on_event(&ev(100, 9, EventKind::Submitted), meta(100, 0.0), &t);
        lt.flush(1_000, &t);
        let spans = t.spans();
        assert_eq!(spans[0].name, "queued");
        assert_eq!(spans[0].end_us(), 1_000);
        assert!(spans[0].args.iter().any(|(k, _)| *k == "unfinished"));
        assert!(lt.pods.is_empty());
    }
}
