//! The Kube-Knots control loop.
//!
//! The default loop is a continuous-time event core: every layer schedules
//! typed events — workload arrivals, chaos actions, aggregator heartbeats,
//! metric-grid points, the drain deadline — on a deterministic
//! [`EventCalendar`] with one slot per event class, and the loop jumps
//! straight from one event to the next, advancing the cluster in closed
//! form across the gap. At each
//! event instant the orchestrator:
//!
//! 1. submits any workload arrivals that have come due;
//! 2. replays injected faults due at the instant;
//! 3. on a heartbeat, snapshots the cluster through the utilization
//!    aggregator, assembles the scheduler context (pending and suspended
//!    pod views + telemetry handle) and applies the scheduler's actions —
//!    skipping, never crashing on, actions that race with same-instant
//!    state changes. A round with no pod pending or suspended, under a
//!    policy that then does nothing
//!    ([`Scheduler::idle_without_waiting_pods`]), is counted, not built;
//! 4. advances the cluster to the next event, sampling every node's five
//!    metrics into the TSDB after each tick (the pyNVML probe) and
//!    recording experiment metrics at the configured interval.
//!
//! Without a chaos engine, each tick steps and probes only the nodes that
//! host work ([`Cluster::step_active`]). An idle node owes its ticks and
//! settles them in closed form, bit for bit, when it next changes or
//! before anything reads it: its TSDB node series (the forecast and the
//! freshness gauges), `pause_state` and the report. Every exit from the
//! loop settles everything.
//!
//! The one-tick-at-a-time loop survives as the A/B oracle, a separate
//! entry point ([`KubeKnots::run_ticked`]): it steps and probes every node
//! every tick. The two are bit-identical at matching grid points (the
//! determinism suite, `tests/determinism.rs`, and its pinned digests gate
//! this on every run). Either way the cluster steps its nodes serially, in
//! node order.

use crate::calendar::{grid_at_or_after, AppliedEvent, CoreEvent, EventCalendar};
use crate::config::OrchestratorConfig;
use crate::metrics::{FaultStats, JctStats, RecoveryStats, RunReport, SkippedAction};
use knots_chaos::{ChaosAction, ChaosEngine, ChaosEngineState, FaultPlan};
use knots_obs::{Event, FieldValue, Histogram, Obs, Severity, Track};
use knots_sched::context::app_key_str;
use knots_sched::{Action, PendingPodView, SchedContext, Scheduler, SuspendedPodView};
use knots_sim::cluster::{Cluster, ClusterConfig, ClusterState};
use knots_sim::error::SimError;
use knots_sim::events::EventKind;
use knots_sim::pod::QosClass;
use knots_sim::time::SimTime;
use knots_telemetry::{
    probe, ClusterSnapshot, TimeSeriesDb, TsdbConfig, TsdbState, UtilizationAggregator,
};
use knots_trace::{LifecycleTracker, PodMeta};
use knots_workloads::{next_arrival, ScheduledPod};
use std::collections::BTreeMap;

/// Stable label for an action's kind, used in metrics and audit events.
fn action_kind(a: &Action) -> &'static str {
    match a {
        Action::Place { .. } => "Place",
        Action::Resize { .. } => "Resize",
        Action::ConfigureGrowth { .. } => "ConfigureGrowth",
        Action::Preempt { .. } => "Preempt",
        Action::Resume { .. } => "Resume",
        Action::Migrate { .. } => "Migrate",
        Action::Wake { .. } => "Wake",
        Action::Sleep { .. } => "Sleep",
    }
}

/// Stable label for a simulator error variant.
fn error_label(e: &SimError) -> &'static str {
    match e {
        SimError::UnknownPod(_) => "unknown_pod",
        SimError::UnknownNode(_) => "unknown_node",
        SimError::InvalidState { .. } => "invalid_state",
        SimError::ExceedsDevice { .. } => "exceeds_device",
        SimError::NodeAsleep(_) => "node_asleep",
        SimError::NodeFailed(_) => "node_failed",
        SimError::InvalidResize { .. } => "invalid_resize",
    }
}

/// Probe every live node into the TSDB through
/// `probe::sample_cluster_with`: the probe of a tick that stepped every
/// node. Under chaos the engine may drop or corrupt each node's sample;
/// the return value counts dropped nodes.
fn probe_round(cluster: &Cluster, tsdb: &TimeSeriesDb, chaos: Option<&mut ChaosEngine>) -> u64 {
    let Some(engine) = chaos else {
        probe::sample_cluster_with(cluster, tsdb, |_, s| Some(s));
        return 0;
    };
    let now = cluster.now();
    probe::sample_cluster_with(cluster, tsdb, |node, s| {
        (!engine.probe_dropped(node, now)).then(|| engine.corrupt_sample(node, now, s))
    })
}

/// Store `item` at index `i` (at most `v.len()`): overwrite, or append.
fn put<T>(v: &mut Vec<T>, i: usize, item: T) {
    match v.get_mut(i) {
        Some(slot) => *slot = item,
        None => v.push(item),
    }
}

/// Refill the scheduler's pending and suspended pod views (queue order) in
/// place: names and app keys reuse the previous round's strings, and both
/// lists truncate to the live counts.
fn fill_views(
    cluster: &Cluster,
    pending: &mut Vec<PendingPodView>,
    suspended: &mut Vec<SuspendedPodView>,
) {
    let mut n = 0;
    for (id, pod) in cluster.pending_pods() {
        let spec = pod.spec();
        let (mut name, mut app) = pending
            .get_mut(n)
            .map(|v| (std::mem::take(&mut v.name), std::mem::take(&mut v.app)))
            .unwrap_or_default();
        name.clone_from(&spec.name);
        app.clear();
        app.push_str(app_key_str(&spec.name));
        let view = PendingPodView {
            id,
            name,
            app,
            qos: spec.qos,
            request_mb: spec.request_mb,
            limit_mb: pod.limit_mb(),
            greedy_memory: spec.greedy_memory,
            allow_growth: spec.allow_growth,
            arrival: pod.arrival(),
            crashes: pod.crashes(),
        };
        put(pending, n, view);
        n += 1;
    }
    pending.truncate(n);
    let mut n = 0;
    for id in cluster.suspended_pods() {
        let Some(pod) = cluster.pod(id) else { continue };
        let mut app = suspended.get_mut(n).map(|v| std::mem::take(&mut v.app)).unwrap_or_default();
        app.clear();
        app.push_str(app_key_str(&pod.spec().name));
        let view = SuspendedPodView {
            id,
            app,
            qos: pod.spec().qos,
            limit_mb: pod.limit_mb(),
            attained_service_secs: pod.attained_service(),
            arrival: pod.arrival(),
        };
        put(suspended, n, view);
        n += 1;
    }
    suspended.truncate(n);
}

/// Loop metrics counted in plain fields while the run goes and published to
/// the metrics registry once, by [`KubeKnots::finish`] — no registry lock or
/// series-key allocation per heartbeat or probe. Each `Option` is `Some` exactly when
/// the per-event write would have created its series. Like the skip
/// breakdown, the tally describes this process and restarts empty on resume.
#[derive(Debug, Default)]
struct LoopTally {
    /// Pending-queue length of the latest round (`knots_pending_pods`);
    /// `Some` once a round ran.
    pending: Option<usize>,
    /// Applied actions by kind (`knots_actions_applied_total{kind}`).
    applied: BTreeMap<&'static str, u64>,
    /// Sums of the per-action `mb as u64` truncations
    /// (`knots_{requested,harvested}_mb_total`).
    requested_mb: Option<u64>,
    harvested_mb: Option<u64>,
    /// Nodes whose probe sample chaos dropped (`knots_probe_dropped_total`).
    probe_dropped: u64,
    /// Whether a probe burst ran under chaos, which publishes the TSDB's
    /// rejected-sample total (`knots_telemetry_rejected_samples_total`).
    chaos_probed: bool,
    /// Node-ticks on nodes that host work and on idle ones (failed, or
    /// hosting no pod), counted whether or not the tick skipped them
    /// (`knots_node_ticks_total{state}`).
    active_node_ticks: u64,
    idle_node_ticks: u64,
}

/// The orchestrator.
pub struct KubeKnots {
    cluster: Cluster,
    tsdb: TimeSeriesDb,
    aggregator: UtilizationAggregator,
    scheduler: Box<dyn Scheduler>,
    cfg: OrchestratorConfig,
    obs: Obs,
    chaos: Option<ChaosEngine>,
    chaos_buf: Vec<ChaosAction>,
    skipped: usize,
    /// This run's skipped actions keyed `(error, kind)` — the metrics
    /// registry's sorted label order. A registry may be merged with other
    /// runs' (`Obs::absorb`), so the report's breakdown is counted here, not
    /// read back.
    skips: BTreeMap<(&'static str, &'static str), u64>,
    tally: LoopTally,
    /// The scheduler's inputs, refilled in place every heartbeat so a
    /// steady-state round reuses the previous round's buffers.
    snapshot: ClusterSnapshot,
    pending: Vec<PendingPodView>,
    suspended: Vec<SuspendedPodView>,
    util_series: Vec<Vec<f64>>,
    active_util: Vec<f64>,
    next_metric: Option<SimTime>,
    events_seen: usize,
    lifecycle: LifecycleTracker,
    round: u64,
    event_counts: [u64; 5],
    /// Heartbeat latency of each built round, accumulated locally and
    /// merged into the metrics registry once per run
    /// (`knots_heartbeat_latency_us`). A round skipped for having nothing
    /// to decide is not timed; `knots_core_events_total{kind="heartbeat"}`
    /// counts every heartbeat.
    hb_latency: Histogram,
    /// Live state of a begun event-queue loop, present between
    /// [`KubeKnots::begin`] (or a resume) and completion. Lifting the
    /// loop's locals onto the orchestrator is what makes the loop pausable
    /// at any event boundary.
    loop_state: Option<EventLoopState>,
    /// Write-ahead journal of applied events, recorded while enabled (the
    /// recovery harness drains it into its WAL between checkpoints).
    journal: Option<Vec<AppliedEvent>>,
}

/// The event-queue loop's locals, kept on the orchestrator between
/// [`KubeKnots::drive`] calls so the loop can stop at an event boundary
/// with its full state on the orchestrator.
struct EventLoopState {
    cal: EventCalendar,
    /// Cursor into the workload schedule: first arrival not yet submitted.
    next: usize,
    deadline: SimTime,
}

/// The complete dynamic state of a paused event-queue run — the payload of
/// the recovery crate's snapshots. Only dynamic state travels here; static
/// configuration is re-supplied to [`KubeKnots::resume`]. Every field uses
/// vec/tuple shapes the serde shim deserializes (clippy's `disallowed_types`
/// keeps `HashMap`/`HashSet`/`Instant` out of every library crate).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OrchestratorState {
    /// Cluster state (nodes, pods, queues, relaunch schedule, energy).
    pub cluster: ClusterState,
    /// Telemetry store state (RLE rings, rejection counters).
    pub tsdb: TsdbState,
    /// The aggregator's armed heartbeat (its only dynamic field).
    pub aggregator_next_due: Option<SimTime>,
    /// Scheduler-specific learned state ([`Scheduler::snapshot_state`]).
    pub scheduler: serde::Value,
    /// Chaos-engine replay position, if an engine was attached.
    pub chaos: Option<ChaosEngineState>,
    /// Calendar entries in pop order ([`EventCalendar::entries`]).
    pub calendar: Vec<(SimTime, CoreEvent)>,
    /// Cursor into the workload schedule: first arrival not yet submitted.
    pub next_arrival: u64,
    /// The run's drain deadline.
    pub deadline: SimTime,
    /// Actions skipped so far.
    pub skipped: u64,
    /// Per-node utilization series collected so far.
    pub util_series: Vec<Vec<f64>>,
    /// Active-GPU utilization samples collected so far.
    pub active_util: Vec<f64>,
    /// Next armed metric-grid instant.
    pub next_metric: Option<SimTime>,
    /// Cluster events already garbage-collected / folded.
    pub events_seen: u64,
    /// Scheduling rounds run so far.
    pub round: u64,
    /// Per-class processed-event counters (priority order, 5 entries).
    pub event_counts: Vec<u64>,
    /// Always written as `1` and ignored on resume. Builds with a sharded
    /// core recorded their shard count here; the field keeps the snapshot
    /// format (`SNAPSHOT_VERSION` 2) and the benchmark's loop copy, which
    /// still writes it, unchanged. The change to the benchmark that deletes
    /// that copy deletes this field with it.
    pub shards: u64,
}

impl KubeKnots {
    /// Build an orchestrator over a fresh cluster.
    pub fn new(
        cluster_cfg: ClusterConfig,
        scheduler: Box<dyn Scheduler>,
        cfg: OrchestratorConfig,
    ) -> Self {
        Self::build(cluster_cfg, scheduler, cfg, None)
    }

    /// The one constructor behind [`KubeKnots::new`] and
    /// [`KubeKnots::resume`]: a fresh cluster and TSDB, or the ones `saved`
    /// carries, with every loop counter at zero and the heartbeat raised to
    /// at least one tick. `resume` then restores the rest of the state.
    fn build(
        mut cluster_cfg: ClusterConfig,
        scheduler: Box<dyn Scheduler>,
        cfg: OrchestratorConfig,
        saved: Option<(ClusterState, TsdbState)>,
    ) -> Self {
        if !scheduler.wants_cluster_auto_sleep() {
            cluster_cfg.auto_sleep_after = None;
        }
        let heartbeat = cfg.heartbeat.max(cfg.tick);
        let nodes = cluster_cfg.node_models.len();
        let (cluster, tsdb) = match saved {
            None => (Cluster::new(cluster_cfg), TimeSeriesDb::new(TsdbConfig::default())),
            Some((cluster, tsdb)) => (
                Cluster::from_state(cluster_cfg, cluster),
                TimeSeriesDb::from_state(TsdbConfig::default(), tsdb),
            ),
        };
        KubeKnots {
            cluster,
            tsdb,
            aggregator: UtilizationAggregator::new(heartbeat, cfg.window),
            scheduler,
            cfg,
            obs: Obs::disabled(),
            chaos: None,
            chaos_buf: Vec::new(),
            skipped: 0,
            skips: BTreeMap::new(),
            tally: LoopTally::default(),
            snapshot: ClusterSnapshot::default(),
            pending: Vec::new(),
            suspended: Vec::new(),
            util_series: vec![Vec::new(); nodes],
            active_util: Vec::new(),
            next_metric: None,
            events_seen: 0,
            lifecycle: LifecycleTracker::new(),
            round: 0,
            event_counts: [0; 5],
            hb_latency: Histogram::latency_us(),
            loop_state: None,
            journal: None,
        }
    }

    /// Attach the observability bundle: JSONL recorder, metrics registry
    /// and span tracer, all in one handle. A disabled recorder or tracer
    /// keeps each of its emission sites down to one branch, and no sink
    /// feeds back into the simulation, so observed runs stay bit-identical
    /// to bare ones. The configs stay `Copy`; the handle rides on the
    /// orchestrator itself.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The attached observability bundle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Hand the observability bundle back, leaving an empty one with the
    /// same sinks switched on (`Obs::empty_like`) to record the rest of the
    /// run. A study folds the returned bundle into its own with
    /// `Obs::absorb`.
    pub fn take_obs(&mut self) -> Obs {
        let rest = self.obs.empty_like();
        std::mem::replace(&mut self.obs, rest)
    }

    /// Attach a fault-injection engine. An inert engine (empty plan) is
    /// dropped on the spot, so fault-free runs take exactly the fault-free
    /// code path and stay bit-identical to runs built without chaos.
    pub fn with_chaos(mut self, engine: ChaosEngine) -> Self {
        self.chaos = (!engine.is_inert()).then_some(engine);
        self
    }

    /// Fault-injection totals so far, when an engine is attached.
    pub fn fault_counts(&self) -> Option<knots_chaos::FaultCounts> {
        self.chaos.as_ref().map(|e| e.counts())
    }

    /// The underlying cluster (read access for tests and examples).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The telemetry store.
    pub fn tsdb(&self) -> &TimeSeriesDb {
        &self.tsdb
    }

    /// Run the full workload `schedule` (sorted by arrival), then keep
    /// going until the cluster drains or the drain grace expires. Returns
    /// the run report.
    pub fn run_schedule(&mut self, schedule: &[ScheduledPod]) -> RunReport {
        self.begin(schedule);
        let done = self.drive(schedule, None);
        debug_assert!(done, "an unbounded drive runs to completion");
        self.finish(schedule.len())
    }

    /// End a run: flush the lifecycle tracker into the tracer, publish the
    /// run's loop metrics to the registry, and cut the report. Call it once
    /// per run — [`KubeKnots::run_schedule`] and [`KubeKnots::run_ticked`]
    /// end with it, and a run driven via [`KubeKnots::begin`] /
    /// [`KubeKnots::drive`] calls it after its last drive. Counters add to
    /// whatever the registry holds.
    pub fn finish(&mut self, submitted: usize) -> RunReport {
        if self.obs.tracer.enabled() {
            self.lifecycle.flush(self.cluster.now().as_micros(), &self.obs.tracer);
        }
        let report = self.report_now(submitted);
        self.publish_run_metrics();
        report
    }

    /// Start an event-queue run without driving it: seed the calendar and
    /// park the loop at t=0. The recovery harness uses `begin` + [`drive`]
    /// instead of [`run_schedule`] so it can checkpoint between drives.
    ///
    /// The calendar holds one self-rescheduling chain per producer — each
    /// handler pops exactly one entry and schedules at most one successor,
    /// so the calendar holds at most one event per class.
    ///
    /// [`drive`]: KubeKnots::drive
    /// [`run_schedule`]: KubeKnots::run_schedule
    pub fn begin(&mut self, schedule: &[ScheduledPod]) {
        debug_assert!(schedule.windows(2).all(|w| w[0].at <= w[1].at), "schedule must be sorted");
        let last_arrival = schedule.last().map(|s| s.at).unwrap_or(SimTime::ZERO);
        let deadline = last_arrival + self.cfg.drain_grace;
        let tick = self.cfg.tick;
        let tick_us = tick.as_micros().max(1);
        let start = self.cluster.now();

        let mut cal = EventCalendar::new();
        cal.schedule(
            grid_at_or_after(self.aggregator.next_due().unwrap_or(start), tick_us),
            CoreEvent::Heartbeat,
        );
        if let Some(first) = schedule.first() {
            cal.schedule(grid_at_or_after(first.at, tick_us), CoreEvent::Arrival);
        }
        if let Some(t) = self.chaos.as_ref().and_then(|e| e.next_due()) {
            cal.schedule(grid_at_or_after(t, tick_us), CoreEvent::Chaos);
        }
        // The oracle's unarmed metric grid first fires at the end of the
        // first tick; collect_metrics then anchors it to the interval grid.
        cal.schedule(start + tick, CoreEvent::MetricGrid);
        cal.schedule(grid_at_or_after(deadline, tick_us), CoreEvent::DrainDeadline);
        self.loop_state = Some(EventLoopState { cal, next: 0, deadline });
    }

    /// Drive a begun (or resumed) run until it completes (`true`) or until
    /// the first event boundary at or past `stop` (`false`, paused), with
    /// every loop local left on `self` so [`KubeKnots::pause_state`] can
    /// capture it.
    ///
    /// The event-queue loop: producers schedule their next occurrence on
    /// the calendar, the loop pops due events in `(time, priority)`
    /// order and jumps the cluster straight to the next instant anything
    /// can happen. Every event time is snapped to the tick grid at enqueue
    /// (`grid_at_or_after`), so each jump is an exact number of ticks and
    /// the trajectory is bit-identical to the oracle's: within one instant
    /// the oracle runs previous-iteration metric collection first, then
    /// arrivals, chaos and the heartbeat — exactly the calendar's priority
    /// order — and it only ever observes layers at grid points.
    pub fn drive(&mut self, schedule: &[ScheduledPod], stop: Option<SimTime>) -> bool {
        #[expect(
            clippy::expect_used,
            reason = "`begin` and `resume` establish loop_state, and `run_schedule` calls `begin` first; driving an un-begun loop is a caller bug worth aborting on"
        )]
        let mut st = self.loop_state.take().expect("begin (or resume) before drive");
        let tick = self.cfg.tick;
        let tick_us = tick.as_micros().max(1);

        let done = loop {
            let now = self.cluster.now();
            // The pause boundary: *before* popping this instant's events,
            // so a resumed loop re-enters exactly here with the same
            // calendar and processes the instant identically.
            if stop.is_some_and(|s| now >= s) {
                break false;
            }
            // Start-of-instant control events (arrivals, then chaos, then
            // the heartbeat — `pop_due` yields priority order).
            while let Some(kind) = st.cal.pop_due(now) {
                self.handle_event(kind, now, schedule, &mut st.next, &mut st.cal);
            }
            // Jump to the next event: at least one tick, never past one.
            // Nothing can fire strictly between grid-snapped events, so
            // the span is closed-form; it still stops early on the exact
            // tick the cluster drains.
            let arrivals_done = st.next >= schedule.len();
            let target = st.cal.peek_time().map_or(now + tick, |t| t.max(now + tick));
            let k = (target.as_micros() - now.as_micros()) / tick_us;
            if k <= 1 {
                self.step_and_probe(false);
            } else {
                self.advance_span(k, arrivals_done);
            }
            // End-of-instant work where the jump landed: the metric grid
            // fires before any control event due at the same instant
            // (those pop at the top of the next iteration), matching the
            // oracle's step → collect → break-check → next-tick order.
            let now = self.cluster.now();
            while let Some((t, CoreEvent::MetricGrid)) = st.cal.peek() {
                if t > now {
                    break;
                }
                st.cal.pop();
                self.handle_event(CoreEvent::MetricGrid, now, schedule, &mut st.next, &mut st.cal);
            }
            self.garbage_collect();

            if arrivals_done && self.cluster.is_drained() {
                break true;
            }
            if now >= st.deadline {
                self.event_counts[CoreEvent::DrainDeadline.priority() as usize] += 1;
                break true;
            }
        };
        // Whoever reads next — `pause_state`, a checkpoint, the report —
        // reads the cluster and the TSDB directly.
        probe::settle_idle(&mut self.cluster, &self.tsdb);
        self.loop_state = Some(st);
        done
    }

    /// Start recording every applied calendar event into an in-memory
    /// journal ([`KubeKnots::take_journal`] drains it). The recovery
    /// harness appends the drained entries to its write-ahead log and uses
    /// them as a divergence fence during replay.
    pub fn enable_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Drain the journal recorded since [`KubeKnots::enable_journal`] or
    /// the previous drain. Empty when journaling is off.
    pub fn take_journal(&mut self) -> Vec<AppliedEvent> {
        self.journal.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Capture the complete dynamic state of a paused event-queue run.
    /// `None` unless the loop was begun via [`KubeKnots::begin`] (or a
    /// resume). Read-only: capturing never perturbs the run.
    ///
    /// Configuration (cluster topology, orchestrator config, scheduler
    /// identity, workload schedule, fault plan) is *not* captured — it is
    /// re-supplied to [`KubeKnots::resume`], which keeps snapshots small.
    /// A state with a chaos cursor needs its fault plan, and `resume`
    /// refuses a cluster config whose topology (node count, GPU model per
    /// node) differs from the state's.
    /// There is no live RNG to capture: workload schedules and fault plans
    /// are pre-generated, so the loop itself is deterministic state
    /// machine + calendar.
    pub fn pause_state(&self) -> Option<OrchestratorState> {
        let st = self.loop_state.as_ref()?;
        Some(OrchestratorState {
            cluster: self.cluster.snapshot_state(),
            tsdb: self.tsdb.snapshot_state(),
            aggregator_next_due: self.aggregator.next_due(),
            scheduler: self.scheduler.snapshot_state(),
            chaos: self.chaos.as_ref().map(|e| e.snapshot_state()),
            calendar: st.cal.entries(),
            next_arrival: st.next as u64,
            deadline: st.deadline,
            skipped: self.skipped as u64,
            util_series: self.util_series.clone(),
            active_util: self.active_util.clone(),
            next_metric: self.next_metric,
            events_seen: self.events_seen as u64,
            round: self.round,
            event_counts: self.event_counts.to_vec(),
            shards: 1,
        })
    }

    /// Rebuild a paused orchestrator from a captured state plus the run's
    /// static configuration. The scheduler must be the same policy that
    /// produced the state (its learned state is restored via
    /// [`Scheduler::restore_state`]); `chaos_plan` must be the original
    /// plan when the state carries a chaos cursor, and `cluster_cfg` must
    /// describe the state's topology (same node count, same GPU model per
    /// node), and a calendar with two entries of one event class is
    /// refused. The observability bundle (recorder, registry, tracer), the
    /// heartbeat-latency histogram, the loop-metric tally and the per-kind
    /// skip breakdown restart empty (the skip total carries over), and the
    /// lifecycle tracker starts at the resumed event cursor — they describe
    /// the process, not the simulation. The reused snapshot and pod views
    /// start empty and are derived state anyway.
    pub fn resume(
        cluster_cfg: ClusterConfig,
        mut scheduler: Box<dyn Scheduler>,
        cfg: OrchestratorConfig,
        chaos_plan: Option<FaultPlan>,
        state: OrchestratorState,
    ) -> Result<Self, serde::Error> {
        let nodes = &state.cluster.nodes;
        if !cluster_cfg.node_models.iter().copied().eq(nodes.iter().map(|n| n.gpu().spec().model)) {
            return Err(serde::Error::custom(format!(
                "cluster config ({} nodes) does not match the state's topology ({} nodes): \
                 node count and per-node GPU models must be equal",
                cluster_cfg.node_models.len(),
                nodes.len()
            )));
        }
        let mut seen = [false; 5];
        for &(_, kind) in &state.calendar {
            if std::mem::replace(&mut seen[kind.priority() as usize], true) {
                return Err(serde::Error::custom(format!(
                    "the state's calendar holds two {kind:?} entries: each class has one chain"
                )));
            }
        }
        scheduler.restore_state(&state.scheduler)?;
        let chaos = match state.chaos {
            None => None,
            Some(cs) => {
                let plan = chaos_plan.ok_or_else(|| {
                    serde::Error::custom("state carries a chaos cursor but no plan was supplied")
                })?;
                Some(ChaosEngine::from_state(plan, cs))
            }
        };
        let mut k = Self::build(cluster_cfg, scheduler, cfg, Some((state.cluster, state.tsdb)));
        k.aggregator.restore_next_due(state.aggregator_next_due);
        k.chaos = chaos;
        k.skipped = state.skipped as usize;
        k.util_series = state.util_series;
        k.active_util = state.active_util;
        k.next_metric = state.next_metric;
        k.events_seen = state.events_seen as usize;
        k.round = state.round;
        for (slot, v) in k.event_counts.iter_mut().zip(state.event_counts.iter()) {
            *slot = *v;
        }
        k.loop_state = Some(EventLoopState {
            cal: EventCalendar::from_entries(&state.calendar),
            next: state.next_arrival as usize,
            deadline: state.deadline,
        });
        Ok(k)
    }

    /// The per-tick oracle: run `schedule` like [`KubeKnots::run_schedule`],
    /// but one tick at a time, stepping and probing every node every tick.
    /// Kept as the A/B reference the event core is digest-checked against.
    /// It parks no loop state, so [`KubeKnots::pause_state`] stays `None`.
    pub fn run_ticked(&mut self, schedule: &[ScheduledPod]) -> RunReport {
        debug_assert!(schedule.windows(2).all(|w| w[0].at <= w[1].at), "schedule must be sorted");
        let mut next = 0usize;
        let last_arrival = schedule.last().map(|s| s.at).unwrap_or(SimTime::ZERO);
        let deadline = last_arrival + self.cfg.drain_grace;

        loop {
            let now = self.cluster.now();
            // 1. Arrivals due this tick.
            while next < schedule.len() && schedule[next].at <= now {
                self.cluster.submit(schedule[next].spec.clone(), schedule[next].at);
                next += 1;
            }
            // 1b. Injected faults due this tick (before the heartbeat, so
            // the scheduler sees the post-fault world the same round).
            if self.chaos.is_some() {
                self.apply_chaos(now);
            }
            // 2. Heartbeat: scheduling round.
            if self.aggregator.due(now) {
                self.heartbeat_round(now);
            }
            // 3+4. Advance one tick and probe.
            self.step_and_probe(true);
            self.collect_metrics();
            self.garbage_collect();

            let done = next >= schedule.len() && self.cluster.is_drained();
            if done || self.cluster.now() >= deadline {
                break;
            }
        }
        self.finish(schedule.len())
    }

    /// Apply one calendar event at `now` and schedule the producer's next
    /// occurrence. Handlers advance bookkeeping in closed form: due times
    /// are snapped to the tick grid once, at enqueue (`grid_at_or_after`)
    /// — analyzer rule E1 keeps tick quantization out of this dispatch, and
    /// clippy's `disallowed-types` ban keeps wall clocks out.
    fn handle_event(
        &mut self,
        kind: CoreEvent,
        now: SimTime,
        schedule: &[ScheduledPod],
        next: &mut usize,
        cal: &mut EventCalendar,
    ) {
        self.event_counts[kind.priority() as usize] += 1;
        if let Some(journal) = self.journal.as_mut() {
            journal.push(AppliedEvent { at: now, kind });
        }
        let tick_us = self.cfg.tick.as_micros().max(1);
        match kind {
            CoreEvent::MetricGrid => {
                self.collect_metrics();
                if let Some(t) = self.next_metric {
                    cal.schedule(grid_at_or_after(t, tick_us), CoreEvent::MetricGrid);
                }
            }
            CoreEvent::Arrival => {
                while *next < schedule.len() && schedule[*next].at <= now {
                    self.cluster.submit(schedule[*next].spec.clone(), schedule[*next].at);
                    *next += 1;
                }
                if let Some(at) = next_arrival(schedule, *next) {
                    cal.schedule(grid_at_or_after(at, tick_us), CoreEvent::Arrival);
                }
            }
            CoreEvent::Chaos => {
                self.apply_chaos(now);
                if let Some(t) = self.chaos.as_ref().and_then(|e| e.next_due()) {
                    cal.schedule(grid_at_or_after(t, tick_us), CoreEvent::Chaos);
                }
            }
            CoreEvent::Heartbeat => {
                // Lazy revalidation: a chaos heartbeat delay may have
                // pushed the due time past this entry after it was
                // enqueued. Skip the stale entry and chase the new time.
                if self.aggregator.due(now) {
                    self.heartbeat(now);
                }
                if let Some(t) = self.aggregator.next_due() {
                    cal.schedule(grid_at_or_after(t, tick_us), CoreEvent::Heartbeat);
                }
            }
            CoreEvent::DrainDeadline => {}
        }
    }

    /// One heartbeat of the event loop. When the policy declares that
    /// [`decide`](Scheduler::decide) does nothing with no pod waiting
    /// ([`Scheduler::idle_without_waiting_pods`]) and none is pending or
    /// suspended, the round is counted, not built: it arms the next
    /// heartbeat and leaves the same trace and tally a built round with no
    /// action would, and it reads no wall clock. The per-tick oracle builds
    /// every round, so the determinism suite checks the skip against it.
    fn heartbeat(&mut self, now: SimTime) {
        let idle = self.scheduler.idle_without_waiting_pods()
            && self.cluster.pending_len() == 0
            && self.cluster.suspended_pods().next().is_none();
        if !idle {
            return self.heartbeat_round(now);
        }
        self.aggregator.arm(self.cluster.now());
        self.tally.pending = Some(0);
        self.round += 1;
        let heartbeat_span = self.trace_heartbeat(now);
        self.trace_round(heartbeat_span, 0, 0);
    }

    /// One built heartbeat: trace the instant, run the scheduling round,
    /// record the round's wall-clock latency.
    fn heartbeat_round(&mut self, now: SimTime) {
        #[expect(
            clippy::disallowed_types,
            reason = "wall-clock heartbeat latency is an observability metric only; it never feeds back into simulation state"
        )]
        let t0 = std::time::Instant::now();
        let heartbeat_span = self.trace_heartbeat(now);
        self.schedule_round(heartbeat_span);
        self.hb_latency.observe(t0.elapsed().as_secs_f64() * 1e6);
    }

    /// Mark a heartbeat at `now` on the trace; the span id, when tracing.
    fn trace_heartbeat(&self, now: SimTime) -> Option<u64> {
        if !self.obs.tracer.enabled() {
            return None;
        }
        self.obs.tracer.record_instant(
            Track::Control,
            "agg.heartbeat",
            now.as_micros(),
            None,
            vec![],
        )
    }

    /// Mark the round just counted on the trace, under its heartbeat
    /// `parent`; the span id, when tracing.
    fn trace_round(&self, parent: Option<u64>, pending: usize, actions: usize) -> Option<u64> {
        if !self.obs.tracer.enabled() {
            return None;
        }
        self.obs.tracer.record_instant(
            Track::Control,
            "sched.round",
            self.cluster.now().as_micros(),
            parent,
            vec![
                ("round", FieldValue::U64(self.round)),
                ("scheduler", FieldValue::Str(self.scheduler.name().to_string())),
                ("pending", FieldValue::U64(pending as u64)),
                ("actions", FieldValue::U64(actions as u64)),
            ],
        )
    }

    /// Advance one tick and probe — the unit step every loop
    /// implementation shares (a jump of one tick and the oracle's every-tick
    /// path are the same code) — and mark it on the trace. `every_node` goes
    /// to `tick`.
    fn step_and_probe(&mut self, every_node: bool) {
        self.tick(every_node);
        if self.obs.tracer.enabled() {
            self.obs.tracer.record_instant(
                Track::Control,
                "probe.round",
                self.cluster.now().as_micros(),
                None,
                vec![],
            );
        }
    }

    /// Advance one tick and probe it. Without chaos, and unless the caller
    /// asks for `every_node` (the per-tick oracle does), only the nodes
    /// that host work are stepped and probed; idle ones owe the tick. Under
    /// chaos every node steps, and the engine may drop or corrupt each
    /// probe sample.
    fn tick(&mut self, every_node: bool) {
        let active = self.cluster.active_len() as u64;
        self.tally.active_node_ticks += active;
        self.tally.idle_node_ticks += self.cluster.nodes().len() as u64 - active;
        if self.chaos.is_none() && !every_node {
            self.cluster.step_active(self.cfg.tick);
            probe::sample_active(&mut self.cluster, &self.tsdb);
            return;
        }
        self.cluster.step(self.cfg.tick);
        let dropped = probe_round(&self.cluster, &self.tsdb, self.chaos.as_mut());
        if self.chaos.is_some() {
            self.tally.probe_dropped += dropped;
            self.tally.chaos_probed = true;
        }
    }

    /// Advance `k` ticks, probing after every one, so cluster and TSDB end
    /// up byte-identical to `k` single steps. The span stops on the exact
    /// tick the cluster drains, so the reported duration matches the
    /// per-tick oracle's.
    fn advance_span(&mut self, k: u64, arrivals_done: bool) {
        let start = self.cluster.now();
        // Nodes the span skips while idle (none under chaos).
        let idle = if self.chaos.is_none() {
            (self.cluster.nodes().len() - self.cluster.active_len()) as u64
        } else {
            0
        };
        let mut executed = 0;
        while executed < k {
            let events = self.cluster.events().len();
            self.tick(false);
            executed += 1;
            if arrivals_done && self.cluster.events().len() > events && self.cluster.is_drained() {
                break;
            }
        }
        if self.obs.tracer.enabled() {
            self.obs.tracer.record_complete(
                Track::Control,
                "pool.batch",
                start.as_micros(),
                self.cluster.now().as_micros(),
                None,
                vec![("ticks", FieldValue::U64(executed)), ("quiet", FieldValue::U64(idle))],
            );
        }
    }

    /// Replay every chaos action due at `now` against the cluster. Errors
    /// (a plan targeting a node the topology doesn't have, a double fail)
    /// are counted and skipped, never fatal: injected faults must not be
    /// able to crash the control loop they are stressing.
    fn apply_chaos(&mut self, now: SimTime) {
        let mut actions = std::mem::take(&mut self.chaos_buf);
        if let Some(engine) = self.chaos.as_mut() {
            engine.actions_due(now, &mut actions);
        }
        let now_us = now.as_micros();
        for a in &actions {
            let (kind, res) = match *a {
                ChaosAction::FailNode(n) => ("fail_node", self.cluster.fail_node(n).map(|_| ())),
                ChaosAction::RecoverNode(n) => ("recover_node", self.cluster.recover_node(n)),
                ChaosAction::DegradeNode { node, frac } => {
                    ("degrade_node", self.cluster.degrade_node(node, frac))
                }
                ChaosAction::RestoreNode(n) => ("restore_node", self.cluster.degrade_node(n, 0.0)),
                ChaosAction::DelayHeartbeat(d) => {
                    self.aggregator.postpone(now, d);
                    ("delay_heartbeat", Ok(()))
                }
            };
            match res {
                Ok(()) => {
                    self.obs.metrics.inc("knots_chaos_actions_total", &[("kind", kind)]);
                    self.obs.recorder.record(
                        Event::new("chaos", "chaos.inject")
                            .at(now_us)
                            .severity(Severity::Warn)
                            .str("kind", kind),
                    );
                    if self.obs.tracer.enabled() {
                        self.obs.tracer.record_instant(
                            Track::Control,
                            "chaos.inject",
                            now_us,
                            None,
                            vec![("kind", FieldValue::Str(kind.to_string()))],
                        );
                    }
                }
                Err(e) => {
                    self.obs.metrics.inc(
                        "knots_chaos_actions_skipped_total",
                        &[("kind", kind), ("error", error_label(&e))],
                    );
                }
            }
        }
        self.chaos_buf = actions;
    }

    /// One scheduling round: snapshot, contextualize, decide, apply.
    /// `trace_parent` is the heartbeat instant that triggered this round.
    /// The snapshot and the pending/suspended views are refilled in place.
    fn schedule_round(&mut self, trace_parent: Option<u64>) {
        self.aggregator.query_into(&self.cluster, &mut self.snapshot);
        fill_views(&self.cluster, &mut self.pending, &mut self.suspended);
        self.tally.pending = Some(self.pending.len());
        // Node series are read only to admit a placement, and only by a
        // policy that reads them (PP's forecast and its freshness check), so
        // only its rounds with pending pods settle the idle nodes' owed
        // samples first.
        if !self.pending.is_empty() && self.scheduler.reads_node_series() {
            probe::settle_idle(&mut self.cluster, &self.tsdb);
        }

        let actions = {
            let ctx = SchedContext {
                now: self.cluster.now(),
                snapshot: &self.snapshot,
                pending: &self.pending,
                suspended: &self.suspended,
                tsdb: &self.tsdb,
                window: self.cfg.window,
                recorder: Some(&self.obs.recorder),
                cache: knots_sched::StatsCache::new(),
                freshness: self.cfg.freshness,
                shards: 1,
            };
            self.scheduler.decide(&ctx)
        };
        self.round += 1;
        let round_span = self.trace_round(trace_parent, self.pending.len(), actions.len());
        let now_us = self.cluster.now().as_micros();
        for action in actions {
            let kind = action_kind(&action);
            let audit_pod = match &action {
                Action::Place { pod, .. }
                | Action::Resize { pod, .. }
                | Action::ConfigureGrowth { pod, .. }
                | Action::Preempt { pod }
                | Action::Resume { pod, .. }
                | Action::Migrate { pod, .. } => Some(pod.0),
                Action::Wake { .. } | Action::Sleep { .. } => None,
            };
            // Memory-harvesting accounting needs the pod's request before the
            // action lands: a Resize below request is harvested headroom.
            let mb_delta = match &action {
                Action::Place { pod, .. } => {
                    self.cluster.pod(*pod).map(|p| ("requested", p.spec().request_mb))
                }
                Action::Resize { pod, limit_mb } => self
                    .cluster
                    .pod(*pod)
                    .map(|p| ("harvested", (p.spec().request_mb - limit_mb).max(0.0))),
                _ => None,
            };
            let res = match action {
                Action::Place { pod, node } => self.cluster.place(pod, node),
                Action::Resize { pod, limit_mb } => self.cluster.resize(pod, limit_mb),
                Action::ConfigureGrowth { pod, allow } => self.cluster.configure_growth(pod, allow),
                Action::Preempt { pod } => self.cluster.preempt(pod),
                Action::Resume { pod, node } => self.cluster.resume(pod, node),
                Action::Migrate { pod, to } => self.cluster.migrate(pod, to),
                Action::Wake { node } => self.cluster.wake_node(node),
                Action::Sleep { node } => self.cluster.sleep_node(node),
            };
            match res {
                Ok(()) => {
                    *self.tally.applied.entry(kind).or_insert(0) += 1;
                    // The audit link: a pod-track instant tying the decision
                    // that moved this pod back to the deciding round.
                    if self.obs.tracer.enabled() {
                        if let Some(pod) = audit_pod {
                            self.obs.tracer.record_instant(
                                Track::Pod(pod),
                                "sched.round",
                                now_us,
                                round_span,
                                vec![
                                    ("kind", FieldValue::Str(kind.to_string())),
                                    (
                                        "scheduler",
                                        FieldValue::Str(self.scheduler.name().to_string()),
                                    ),
                                ],
                            );
                        }
                    }
                    match mb_delta {
                        Some(("requested", mb)) => {
                            *self.tally.requested_mb.get_or_insert(0) += mb as u64;
                        }
                        Some(("harvested", mb)) if mb > 0.0 => {
                            *self.tally.harvested_mb.get_or_insert(0) += mb as u64;
                        }
                        _ => {}
                    }
                }
                Err(e) => {
                    self.skipped += 1;
                    let err = error_label(&e);
                    *self.skips.entry((err, kind)).or_insert(0) += 1;
                    self.obs.recorder.record(
                        Event::new("orchestrator", "action.skipped")
                            .at(now_us)
                            .severity(Severity::Warn)
                            .str("kind", kind)
                            .str("error", err),
                    );
                }
            }
        }
    }

    /// Record per-node utilization at the metric interval. Due times snap to
    /// the interval grid (anchored at t=0) rather than trailing the previous
    /// fire time, so a tick that doesn't divide the interval cannot make the
    /// effective cadence drift to `ceil(interval / tick) * tick`.
    fn collect_metrics(&mut self) {
        let now = self.cluster.now();
        if self.next_metric.is_some_and(|t| now < t) {
            return;
        }
        let iv_us = self.cfg.metric_interval.as_micros().max(1);
        self.next_metric = Some(SimTime::from_micros((now.as_micros() / iv_us + 1) * iv_us));
        for (i, node) in self.cluster.nodes().iter().enumerate() {
            let util = self.cluster.node_sample(node.id()).sm_util * 100.0;
            self.util_series[i].push(util);
            if node.resident_count() > 0 {
                self.active_util.push(util);
            }
        }
        // Telemetry freshness: per-node sample age plus a stale-series
        // count against the configured bound, so stale-fallback behaviour
        // is observable without grepping the audit log. Only maintained
        // when a freshness bound is configured — without one no fallback
        // can trigger, and the per-node gauge labels cost an allocation
        // per node per grid point.
        let Some(freshness) = self.cfg.freshness else { return };
        // The ages read the node series' last sample times.
        probe::settle_idle(&mut self.cluster, &self.tsdb);
        let now_us = now.as_micros();
        let mut stale = 0u64;
        for node in self.cluster.nodes() {
            let age_us = match self.tsdb.node_last_at(node.id()) {
                Some(t) => now_us.saturating_sub(t.as_micros()),
                None => now_us,
            };
            let label = node.id().0.to_string();
            self.obs.metrics.set_gauge(
                "knots_telemetry_node_age_us",
                &[("node", &label)],
                age_us as f64,
            );
            if age_us > freshness.as_micros() {
                stale += 1;
            }
        }
        self.obs.metrics.set_gauge("knots_telemetry_stale_series", &[], stale as f64);
    }

    /// Drop TSDB series of pods that finished since the last call and,
    /// when tracing, fold the same new events into lifecycle spans. Runs
    /// once per loop iteration, so the span stream stays roughly
    /// chronological with the system spans.
    fn garbage_collect(&mut self) {
        let events = self.cluster.events();
        let fresh = &events[self.events_seen..];
        for e in fresh {
            match (e.pod, e.kind) {
                (Some(pod), EventKind::Completed { .. }) => self.tsdb.forget_pod(pod),
                (_, EventKind::Crashed { .. }) => {
                    // Crashed pods are requeued, so their series must stay:
                    // CBP's OOM-avoidance needs the history that preceded the
                    // crash. Only count it.
                    self.obs.metrics.inc("knots_crashes_total", &[]);
                }
                _ => {}
            }
        }
        if self.obs.tracer.enabled() {
            for e in fresh {
                let meta = e.pod.and_then(|id| self.cluster.pod(id)).map(|p| PodMeta {
                    arrival_us: p.arrival().as_micros(),
                    checkpoint_fraction: p.spec().checkpoint_fraction,
                });
                self.lifecycle.on_event(e, meta, &self.obs.tracer);
            }
        }
        self.events_seen = events.len();
    }

    /// Publish the run's event counts, heartbeat latencies and loop tallies
    /// to the metrics registry: counters add to whatever the registry holds,
    /// gauges overwrite.
    fn publish_run_metrics(&self) {
        let (m, t) = (&self.obs.metrics, &self.tally);
        for kind in CoreEvent::ALL {
            let n = self.event_counts[kind.priority() as usize];
            if n > 0 {
                m.add("knots_core_events_total", &[("kind", kind.label())], n);
            }
        }
        if self.hb_latency.count() > 0 {
            m.merge_histogram("knots_heartbeat_latency_us", &[], &self.hb_latency);
        }
        if let Some(pending) = t.pending {
            m.set_gauge("knots_pending_pods", &[], pending as f64);
        }
        for (&kind, &n) in &t.applied {
            m.add("knots_actions_applied_total", &[("kind", kind)], n);
        }
        for (&(error, kind), &n) in &self.skips {
            m.add("knots_actions_skipped_total", &[("kind", kind), ("error", error)], n);
        }
        if let Some(mb) = t.requested_mb {
            m.add("knots_requested_mb_total", &[], mb);
        }
        if let Some(mb) = t.harvested_mb {
            m.add("knots_harvested_mb_total", &[], mb);
        }
        if t.probe_dropped > 0 {
            m.add("knots_probe_dropped_total", &[], t.probe_dropped);
        }
        if t.chaos_probed {
            m.set_gauge(
                "knots_telemetry_rejected_samples_total",
                &[],
                self.tsdb.rejected_total() as f64,
            );
        }
        if t.active_node_ticks + t.idle_node_ticks > 0 {
            m.add("knots_node_ticks_total", &[("state", "active")], t.active_node_ticks);
            m.add("knots_node_ticks_total", &[("state", "idle")], t.idle_node_ticks);
        }
    }

    /// Build the report of the run so far without touching the run or the
    /// registry, so a paused run may be read mid-way. [`KubeKnots::finish`]
    /// returns the same report at the end of a run.
    pub fn report_now(&self, submitted: usize) -> RunReport {
        let mut batch = Vec::new();
        let mut lc = Vec::new();
        let mut all = Vec::new();
        let mut lc_completed = 0usize;
        let mut lc_violations = 0usize;
        for (_, pod) in self.cluster.completed_pods() {
            let Some(turnaround) = pod.turnaround() else { continue };
            let t = turnaround.as_secs_f64();
            all.push(t);
            match pod.spec().qos {
                QosClass::LatencyCritical { .. } => {
                    lc.push(t);
                    lc_completed += 1;
                    if pod.met_deadline() == Some(false) {
                        lc_violations += 1;
                    }
                }
                QosClass::Batch => batch.push(t),
            }
        }
        // Unfinished latency-critical queries already past their deadline
        // also count as violations (a scheduler cannot hide violations by
        // starving the queue).
        let now = self.cluster.now();
        for id in self.cluster.pending_queue() {
            if let Some(pod) = self.cluster.pod(id) {
                if let QosClass::LatencyCritical { deadline } = pod.spec().qos {
                    if now.saturating_since(pod.arrival()) > deadline {
                        lc_violations += 1;
                    }
                }
            }
        }

        let mut crashes = 0;
        let mut preemptions = 0;
        let mut migrations = 0;
        let mut gave_up = 0;
        for e in self.cluster.events() {
            match e.kind {
                EventKind::Crashed { .. } => crashes += 1,
                EventKind::Preempted { .. } => preemptions += 1,
                EventKind::Migrated { .. } => migrations += 1,
                EventKind::GaveUp { .. } => gave_up += 1,
                _ => {}
            }
        }
        // Event-core throughput (digest-excluded, like fault counts): how
        // many calendar events the run processed, in total and per
        // simulated second. Zero under the per-tick oracle, which pops none.
        let events_processed: u64 = self.event_counts.iter().sum();
        let duration = now.saturating_since(SimTime::ZERO);
        let events_per_sim_second = if duration.as_micros() > 0 {
            events_processed as f64 / duration.as_secs_f64()
        } else {
            0.0
        };

        let fc = self.chaos.as_ref().map(|e| e.counts()).unwrap_or_default();
        let faults = FaultStats {
            node_failures: fc.node_failures,
            degradations: fc.degradations,
            probe_dropouts: fc.probe_dropouts,
            corruption_windows: fc.corruption_windows,
            corrupted_samples: fc.corrupted_samples,
            heartbeat_delays: fc.heartbeat_delays,
            controller_crashes: fc.controller_crashes,
            rejected_samples: self.tsdb.rejected_total(),
            gave_up,
        };

        RunReport {
            scheduler: self.scheduler.name().to_string(),
            duration,
            node_util_series: self.util_series.clone(),
            active_util_samples: self.active_util.clone(),
            submitted,
            completed: self.cluster.completed_len(),
            lc_completed,
            lc_violations,
            batch_jct: JctStats::from_secs(batch),
            lc_latency: JctStats::from_secs(lc),
            all_jct: JctStats::from_secs(all),
            energy_joules: self.cluster.total_energy_joules(),
            crashes,
            preemptions,
            migrations,
            skipped_actions: self.skipped,
            skipped_breakdown: self
                .skips
                .iter()
                .map(|(&(error, kind), &count)| SkippedAction {
                    kind: kind.to_string(),
                    error: error.to_string(),
                    count,
                })
                .collect(),
            faults,
            events_processed,
            events_per_sim_second,
            recovery: RecoveryStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_sched::pp::CbpPp;
    use knots_sched::resag::ResAg;
    use knots_sched::uniform::Uniform;
    use knots_sim::pod::PodSpec;
    use knots_sim::profile::ResourceProfile;
    use knots_sim::resources::GpuModel;
    use knots_sim::time::SimDuration;

    fn tiny_schedule() -> Vec<ScheduledPod> {
        (0..6)
            .map(|i| ScheduledPod {
                at: SimTime::from_millis(i * 200),
                spec: PodSpec::batch(
                    format!("job-{i}"),
                    ResourceProfile::constant(0.4, 1500.0, 1.0),
                )
                .with_request_mb(3000.0),
            })
            .collect()
    }

    fn quiet(nodes: usize) -> ClusterConfig {
        let mut c = ClusterConfig::homogeneous(nodes, GpuModel::P100);
        c.overheads.cold_start_pull = SimDuration::from_millis(200);
        c
    }

    #[test]
    fn uniform_runs_everything_to_completion() {
        let mut k =
            KubeKnots::new(quiet(3), Box::new(Uniform::new()), OrchestratorConfig::default());
        let report = k.run_schedule(&tiny_schedule());
        assert_eq!(report.submitted, 6);
        assert_eq!(report.completed, 6);
        assert_eq!(report.crashes, 0);
        assert!(report.batch_jct.count == 6);
        assert!(report.energy_joules > 0.0);
        assert_eq!(report.scheduler, "Uniform");
    }

    #[test]
    fn resag_packs_more_than_uniform() {
        // Same workload, fewer nodes than jobs: Res-Ag shares, Uniform
        // serializes, so Res-Ag finishes sooner.
        let run = |s: Box<dyn Scheduler>| {
            let mut k = KubeKnots::new(quiet(1), s, OrchestratorConfig::default());
            k.run_schedule(&tiny_schedule())
        };
        let uni = run(Box::new(Uniform::new()));
        let ra = run(Box::new(ResAg::new()));
        assert_eq!(uni.completed, 6);
        assert_eq!(ra.completed, 6);
        assert!(
            ra.all_jct.avg < uni.all_jct.avg,
            "sharing should beat serializing: {} vs {}",
            ra.all_jct.avg,
            uni.all_jct.avg
        );
    }

    #[test]
    fn pp_consolidates_and_sleeps_nodes() {
        let mut cfg = quiet(4);
        cfg.auto_sleep_after = Some(SimDuration::from_secs(5));
        let mut k = KubeKnots::new(cfg, Box::new(CbpPp::new()), OrchestratorConfig::default());
        let report = k.run_schedule(&tiny_schedule());
        assert_eq!(report.completed, 6);
        // Consolidation: at least one node never hosted anything.
        let idle_nodes =
            report.node_util_series.iter().filter(|s| s.iter().all(|&u| u == 0.0)).count();
        assert!(idle_nodes >= 1, "PP should leave nodes idle");
    }

    #[test]
    fn report_counts_unfinished_lc_as_violations() {
        // A latency-critical pod that can never be placed (request larger
        // than the device) must still surface as a violation.
        let schedule = vec![ScheduledPod {
            at: SimTime::ZERO,
            spec: PodSpec::latency_critical("q", ResourceProfile::constant(0.5, 100.0, 0.05))
                .with_request_mb(20_000.0),
        }];
        let orch_cfg =
            OrchestratorConfig { drain_grace: SimDuration::from_secs(2), ..Default::default() };
        let mut k = KubeKnots::new(quiet(1), Box::new(ResAg::new()), orch_cfg);
        let report = k.run_schedule(&schedule);
        assert_eq!(report.completed, 0);
        assert_eq!(report.lc_violations, 1);
    }

    #[test]
    fn telemetry_is_populated_during_runs() {
        let mut k = KubeKnots::new(quiet(2), Box::new(ResAg::new()), OrchestratorConfig::default());
        let _ = k.run_schedule(&tiny_schedule());
        assert!(k.tsdb().node_len(knots_sim::ids::NodeId(0)) > 0);
    }

    #[test]
    fn metric_cadence_does_not_drift_under_non_divisible_tick() {
        // 100 ms metric interval sampled by a 30 ms tick: the "since last
        // sample" rule stretches every gap to 120 ms, collecting ~25 samples
        // where ~30 belong. The grid-snapped rule keeps the average cadence
        // at the configured interval.
        let cfg = OrchestratorConfig {
            tick: SimDuration::from_millis(30),
            heartbeat: SimDuration::from_millis(30),
            drain_grace: SimDuration::from_secs(3),
            ..Default::default()
        };
        let schedule = vec![ScheduledPod {
            at: SimTime::ZERO,
            spec: PodSpec::batch("long", ResourceProfile::constant(0.4, 1500.0, 5.0)),
        }];
        let mut k = KubeKnots::new(quiet(1), Box::new(ResAg::new()), cfg);
        let report = k.run_schedule(&schedule);
        let samples = report.node_util_series[0].len() as f64;
        // +1 for the fencepost: both endpoints of the run are sampled. The
        // drifting rule would lose ~5 samples here (cadence 120 ms, not 100).
        let expected = report.duration.as_secs_f64() / 0.1 + 1.0;
        assert!(
            (samples - expected).abs() <= 2.0,
            "metric cadence drifted: {samples} samples over {:.2} s (expected ~{expected:.0})",
            report.duration.as_secs_f64()
        );
    }

    #[test]
    fn gc_keeps_crashed_pod_series_and_drops_completed_ones() {
        // One well-behaved pod plus two that each use 18x their request:
        // Res-Ag co-locates all three on the single node by request, the
        // aggregate usage blows past the 16 GB device and victims OOM-crash
        // and requeue. Their telemetry must survive GC — CBP's OOM-avoidance
        // needs the pre-crash history — while the completed pod's series is
        // forgotten to bound TSDB growth.
        let mut schedule = vec![ScheduledPod {
            at: SimTime::ZERO,
            spec: PodSpec::batch("good", ResourceProfile::constant(0.3, 1000.0, 0.5)),
        }];
        for i in 0..2 {
            // Quiet for a second (so the probe records some history), then
            // the demand jumps past half the device.
            let profile = knots_sim::profile::ProfileBuilder::new()
                .compute(1.0, 0.3, 800.0)
                .compute(60.0, 0.3, 9000.0)
                .build();
            schedule.push(ScheduledPod {
                at: SimTime::ZERO,
                spec: PodSpec::batch(format!("oom-{i}"), profile).with_request_mb(500.0),
            });
        }
        let cfg =
            OrchestratorConfig { drain_grace: SimDuration::from_secs(3), ..Default::default() };
        let mut k = KubeKnots::new(quiet(1), Box::new(ResAg::new()), cfg);
        let report = k.run_schedule(&schedule);
        assert!(report.crashes > 0, "oversubscribed co-location should crash");
        assert_eq!(report.completed, 1, "only the well-behaved pod finishes");
        let (completed_id, _) = k.cluster().completed_pods().next().expect("one completion");
        assert_eq!(k.tsdb().pod_len(completed_id), 0, "completed series must be GC'd");
        let crashed_id = k
            .cluster()
            .events()
            .iter()
            .find_map(|e| match e.kind {
                EventKind::Crashed { .. } => e.pod,
                _ => None,
            })
            .expect("a crash event");
        assert!(
            k.tsdb().pod_len(crashed_id) > 0,
            "crashed-and-requeued pod series must be retained"
        );
        // The crash counter flows through the metrics registry too.
        assert_eq!(
            k.obs().metrics.counter_value("knots_crashes_total", &[]),
            report.crashes as u64
        );
    }

    #[test]
    fn chaos_node_failure_crashes_requeues_and_recovers() {
        use knots_chaos::{FaultEvent, FaultKind, FaultPlan};
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_millis(500),
            kind: FaultKind::NodeFail {
                node: knots_sim::ids::NodeId(0),
                recover_after: Some(SimDuration::from_secs(2)),
            },
        }]);
        let mut k = KubeKnots::new(quiet(2), Box::new(ResAg::new()), OrchestratorConfig::default())
            .with_chaos(ChaosEngine::new(plan));
        let report = k.run_schedule(&tiny_schedule());
        assert_eq!(report.faults.node_failures, 1);
        assert!(report.crashes > 0, "residents of the failed node must crash");
        assert_eq!(report.completed, 6, "victims requeue and finish elsewhere or after recovery");
        let reasons: Vec<_> = k
            .cluster()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Crashed { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        assert!(reasons.contains(&knots_sim::events::CrashReason::NodeFailure), "{reasons:?}");
        assert!(
            k.obs().metrics.counter_value("knots_chaos_actions_total", &[("kind", "fail_node")])
                == 1
        );
    }

    #[test]
    fn inert_chaos_engine_is_dropped() {
        let k = KubeKnots::new(quiet(1), Box::new(ResAg::new()), OrchestratorConfig::default())
            .with_chaos(ChaosEngine::new(knots_chaos::FaultPlan::empty()));
        assert!(k.fault_counts().is_none(), "empty plan must leave no chaos state behind");
    }

    #[test]
    fn obs_bundle_records_metrics_and_trace() {
        let obs = knots_obs::Obs::with_trace_capacity(4096);
        let mut k = KubeKnots::new(quiet(2), Box::new(CbpPp::new()), OrchestratorConfig::default())
            .with_obs(obs);
        let report = k.run_schedule(&tiny_schedule());
        assert_eq!(report.completed, 6);
        let placed =
            k.obs().metrics.counter_value("knots_actions_applied_total", &[("kind", "Place")]);
        assert!(placed >= 6, "every pod placement should be counted, got {placed}");
        let hist = k.obs().metrics.histogram("knots_heartbeat_latency_us", &[]).expect("histogram");
        let heartbeats =
            k.obs().metrics.counter_value("knots_core_events_total", &[("kind", "heartbeat")]);
        assert_eq!(
            hist.count(),
            heartbeats,
            "heartbeat latency must be observed on every built round, and CBP+PP builds \
             every round of a fault-free run"
        );
        // The scheduler audit trail flows through the run's recorder.
        let trace = k.obs().recorder.export_jsonl();
        assert!(trace.contains("\"sched."), "scheduler decisions should be audited: {trace}");
        // Skipped breakdown is consistent with the aggregate counter.
        let sum: u64 = report.skipped_breakdown.iter().map(|s| s.count).sum();
        assert_eq!(sum as usize, report.skipped_actions);
    }

    #[test]
    fn heartbeat_latency_counts_built_rounds_only() {
        // Uniform skips the rounds with no pod waiting, so it observes
        // fewer latencies than it has heartbeats; the heartbeat counter
        // still counts every one.
        let obs = knots_obs::Obs::with_trace_capacity(16);
        let mut k =
            KubeKnots::new(quiet(2), Box::new(Uniform::new()), OrchestratorConfig::default())
                .with_obs(obs);
        k.run_schedule(&tiny_schedule());
        let hist = k.obs().metrics.histogram("knots_heartbeat_latency_us", &[]).expect("histogram");
        let heartbeats =
            k.obs().metrics.counter_value("knots_core_events_total", &[("kind", "heartbeat")]);
        assert!(hist.count() > 0, "rounds with pending pods are built and timed");
        assert!(
            hist.count() < heartbeats,
            "{} latencies over {heartbeats} heartbeats: idle rounds must not be timed",
            hist.count()
        );
        assert_eq!(k.round, heartbeats, "every heartbeat still counts a round");
    }

    /// Uniform with the trait's default `idle_without_waiting_pods`
    /// (`false`), counting its `decide` calls.
    struct CountingUniform {
        inner: Uniform,
        calls: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl Scheduler for CountingUniform {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
            self.calls.set(self.calls.get() + 1);
            self.inner.decide(ctx)
        }
    }

    #[test]
    fn a_policy_keeping_the_default_decides_every_round() {
        // A policy that keeps the default is asked every round, idle or
        // not; Uniform, which declares its idle rounds, skips them and
        // still ends in the same report after the same number of rounds.
        let calls = std::rc::Rc::new(std::cell::Cell::new(0));
        let counting = CountingUniform { inner: Uniform::new(), calls: calls.clone() };
        assert!(!counting.idle_without_waiting_pods());
        let mut built = KubeKnots::new(quiet(3), Box::new(counting), OrchestratorConfig::default());
        let a = built.run_schedule(&tiny_schedule());
        assert!(built.round > 0);
        assert_eq!(calls.get(), built.round, "one decide per round");
        let mut skipping =
            KubeKnots::new(quiet(3), Box::new(Uniform::new()), OrchestratorConfig::default());
        let b = skipping.run_schedule(&tiny_schedule());
        assert_eq!(skipping.round, built.round);
        assert_eq!(crate::report_digest(&a), crate::report_digest(&b));
    }

    #[test]
    fn tracer_captures_lifecycle_and_system_spans() {
        let obs = Obs { tracer: knots_obs::Tracer::bounded(1 << 16), ..Obs::disabled() };
        let mut k = KubeKnots::new(quiet(2), Box::new(CbpPp::new()), OrchestratorConfig::default())
            .with_obs(obs);
        let report = k.run_schedule(&tiny_schedule());
        assert_eq!(report.completed, 6);
        let spans = k.obs().tracer.spans();
        let has = |name: &str| spans.iter().any(|s| s.name == name);
        for name in ["queued", "placed", "running", "completed", "agg.heartbeat", "sched.round"] {
            assert!(has(name), "missing span {name}");
        }
        // Every pod's chain terminates: 6 completions on pod tracks.
        let completed = spans.iter().filter(|s| s.name == "completed").count();
        assert_eq!(completed, 6);
        // Audit links tie pod placements back to a scheduling round.
        let audit = spans
            .iter()
            .find(|s| s.name == "sched.round" && matches!(s.track, Track::Pod(_)))
            .expect("pod-track audit instant");
        let parent = audit.parent.expect("audit links to the deciding round");
        assert!(spans
            .iter()
            .any(|s| s.id == parent && s.name == "sched.round" && s.track == Track::Control));
        // Stage histograms fold every complete span.
        let stages = k.obs().tracer.stage_histograms();
        assert!(stages.iter().any(|(name, h)| *name == "queued" && h.count() >= 6));
    }

    #[test]
    fn disabled_tracer_keeps_the_run_untraced() {
        let mut k = KubeKnots::new(quiet(2), Box::new(CbpPp::new()), OrchestratorConfig::default());
        let report = k.run_schedule(&tiny_schedule());
        assert_eq!(report.completed, 6);
        assert!(k.obs().tracer.is_empty());
        assert!(k.obs().tracer.stage_histograms().is_empty());
    }

    #[test]
    fn skip_breakdown_is_per_run_when_runs_merge_into_one_registry() {
        // Every round asks to sleep a node that does not exist, so every
        // action is skipped. Two identical runs merge into one metrics
        // registry (as the legs of a cluster study do); each report must
        // describe its own run only.
        struct SleepGhost;
        impl Scheduler for SleepGhost {
            fn name(&self) -> &'static str {
                "SleepGhost"
            }
            fn decide(&mut self, _ctx: &SchedContext<'_>) -> Vec<Action> {
                vec![Action::Sleep { node: knots_sim::ids::NodeId(99) }]
            }
        }
        let schedule = vec![ScheduledPod {
            at: SimTime::ZERO,
            spec: PodSpec::batch("b", ResourceProfile::constant(0.4, 1000.0, 1.0)),
        }];
        let cfg =
            OrchestratorConfig { drain_grace: SimDuration::from_secs(1), ..Default::default() };
        let obs = Obs::disabled();
        let run = || {
            let mut k = KubeKnots::new(quiet(1), Box::new(SleepGhost), cfg);
            let report = k.run_schedule(&schedule);
            obs.absorb(k.take_obs(), &[]);
            report
        };
        let (a, b) = (run(), run());
        assert!(a.skipped_actions > 0);
        assert_eq!(a.skipped_actions, b.skipped_actions);
        assert_eq!(a.skipped_breakdown, b.skipped_breakdown);
        let sum: u64 = b.skipped_breakdown.iter().map(|s| s.count).sum();
        assert_eq!(sum as usize, b.skipped_actions);
        assert_eq!(
            b.skipped_breakdown,
            vec![SkippedAction {
                kind: "Sleep".into(),
                error: "unknown_node".into(),
                count: b.skipped_actions as u64,
            }]
        );
        // The merged registry accumulates across runs.
        let total = obs.metrics.counter_value(
            "knots_actions_skipped_total",
            &[("kind", "Sleep"), ("error", "unknown_node")],
        );
        assert_eq!(total, 2 * a.skipped_actions as u64);
    }

    #[test]
    fn pause_state_does_not_depend_on_the_tracer() {
        let paused = |obs: Obs| {
            let schedule = tiny_schedule();
            let mut k =
                KubeKnots::new(quiet(2), Box::new(CbpPp::new()), OrchestratorConfig::default())
                    .with_obs(obs);
            k.begin(&schedule);
            assert!(!k.drive(&schedule, Some(SimTime::from_millis(700))), "run must pause");
            let state = k.pause_state().expect("paused run has a state");
            assert!(state.round > 0, "every heartbeat is a scheduling round");
            serde_json::to_string(&state).unwrap()
        };
        let traced = Obs { tracer: knots_obs::Tracer::bounded(1 << 16), ..Obs::disabled() };
        assert_eq!(paused(Obs::disabled()), paused(traced));
    }

    #[test]
    fn freshness_gauges_track_node_sample_age() {
        let obs = knots_obs::Obs::disabled();
        let cfg =
            OrchestratorConfig { freshness: Some(SimDuration::from_secs(5)), ..Default::default() };
        let mut k = KubeKnots::new(quiet(2), Box::new(CbpPp::new()), cfg).with_obs(obs);
        k.run_schedule(&tiny_schedule());
        // Per-node age gauges exist for every node; probes run every tick,
        // so nothing is stale.
        for node in ["0", "1"] {
            assert!(
                k.obs()
                    .metrics
                    .gauge_value("knots_telemetry_node_age_us", &[("node", node)])
                    .is_some(),
                "missing age gauge for node {node}"
            );
        }
        assert_eq!(k.obs().metrics.gauge_value("knots_telemetry_stale_series", &[]), Some(0.0));
    }

    #[test]
    fn refilled_pod_views_match_fresh_ones() {
        // The pending queue and the suspended set grow and shrink, and the
        // view at a given slot changes name length: every in-place refill
        // must print exactly like views built from empty buffers.
        let mut c = Cluster::new(quiet(2));
        let (mut pending, mut suspended) = (Vec::new(), Vec::new());
        let mut check = |c: &Cluster| {
            fill_views(c, &mut pending, &mut suspended);
            let (mut fresh_pending, mut fresh_suspended) = (Vec::new(), Vec::new());
            fill_views(c, &mut fresh_pending, &mut fresh_suspended);
            assert_eq!(format!("{pending:?}"), format!("{fresh_pending:?}"));
            assert_eq!(format!("{suspended:?}"), format!("{fresh_suspended:?}"));
            (pending.len(), suspended.len())
        };
        let submit = |c: &mut Cluster, name: &str| {
            let spec = PodSpec::batch(name, ResourceProfile::constant(0.2, 500.0, 30.0));
            c.submit(spec, c.now())
        };
        let node = knots_sim::ids::NodeId;
        assert_eq!(check(&c), (0, 0));
        let a = submit(&mut c, "a-1");
        let long = submit(&mut c, "a-much-longer-application-name-12");
        submit(&mut c, "mid-3");
        submit(&mut c, "q");
        assert_eq!(check(&c), (4, 0));
        c.place(a, node(0)).unwrap();
        c.place(long, node(0)).unwrap();
        assert_eq!(check(&c), (2, 0));
        c.step(SimDuration::from_millis(300));
        c.preempt(a).unwrap();
        c.preempt(long).unwrap();
        assert_eq!(check(&c), (2, 2));
        c.resume(a, node(1)).unwrap();
        assert_eq!(check(&c), (2, 1));
        for name in ["b-1", "b-22", "c-333"] {
            submit(&mut c, name);
        }
        assert_eq!(check(&c), (5, 1));
        let queued: Vec<_> = c.pending_queue().collect();
        for id in queued {
            c.place(id, node(1)).unwrap();
        }
        assert_eq!(check(&c), (0, 1));
        c.resume(long, node(0)).unwrap();
        assert_eq!(check(&c), (0, 0));
    }

    #[test]
    fn loop_metrics_are_published_once_per_run() {
        // A scheduler that records each round's pending count, driving
        // CBP+PP. The unplaceable query keeps the queue non-empty to the
        // end, so the last round's pending count is not trivially zero.
        struct Spy(CbpPp, std::rc::Rc<std::cell::Cell<usize>>);
        impl Scheduler for Spy {
            fn name(&self) -> &'static str {
                "Spy"
            }
            fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
                self.1.set(ctx.pending.len());
                self.0.decide(ctx)
            }
        }
        let mut schedule = tiny_schedule();
        schedule.push(ScheduledPod {
            at: SimTime::from_millis(1000),
            spec: PodSpec::latency_critical("huge", ResourceProfile::constant(0.5, 100.0, 0.05))
                .with_request_mb(20_000.0),
        });
        let cfg =
            OrchestratorConfig { drain_grace: SimDuration::from_secs(8), ..Default::default() };
        let obs = Obs::disabled();
        let m = &obs.metrics;
        let place = |m: &knots_obs::Registry| {
            m.counter_value("knots_actions_applied_total", &[("kind", "Place")])
        };
        let last_pending = std::rc::Rc::new(std::cell::Cell::new(usize::MAX));
        let last_end = std::cell::Cell::new(0u64);
        // One leg, paused halfway: placements have happened, but nothing
        // reaches the registry before the run reports. Returns the leg's
        // placement events, and merges the leg's metrics into `obs`.
        let run = || {
            let spy = Spy(CbpPp::new(), last_pending.clone());
            let mut k = KubeKnots::new(quiet(2), Box::new(spy), cfg);
            k.begin(&schedule);
            assert!(!k.drive(&schedule, Some(SimTime::from_secs(2))), "run must pause");
            let placed = |k: &KubeKnots| {
                let events = k.cluster().events().iter();
                events.filter(|e| matches!(e.kind, EventKind::Placed { .. })).count() as u64
            };
            assert!(placed(&k) > 0);
            assert_eq!(place(&k.obs().metrics), 0, "applied actions reached the registry mid-run");
            assert!(k.drive(&schedule, None));
            k.finish(schedule.len());
            last_end.set(k.cluster().now().as_micros());
            obs.absorb(k.take_obs(), &[]);
            placed(&k)
        };
        let placed = run();
        let applied = place(m);
        assert_eq!(applied, placed, "one Place per placement event");
        // Every node-tick is counted once, as active or idle.
        let ticks = |state| m.counter_value("knots_node_ticks_total", &[("state", state)]);
        let (active, idle) = (ticks("active"), ticks("idle"));
        assert!(active > 0 && idle > 0, "{active} active, {idle} idle node-ticks");
        let (end, tick) = (last_end.get(), cfg.tick.as_micros());
        assert_eq!(active + idle, 2 * end / tick, "two nodes, one count per tick each");
        assert_eq!(last_pending.get(), 1, "the unplaceable query is still queued");
        assert_eq!(m.gauge_value("knots_pending_pods", &[]), Some(1.0));
        let requested = m.counter_value("knots_requested_mb_total", &[]);
        assert!(requested > 0);

        // A second, identical leg merged into the same registry: counters
        // add up, the gauge holds the latest round.
        assert_eq!(run(), placed);
        assert_eq!(place(m), 2 * applied);
        assert_eq!(m.counter_value("knots_requested_mb_total", &[]), 2 * requested);
        assert_eq!(m.gauge_value("knots_pending_pods", &[]), Some(1.0));
    }

    #[test]
    fn reading_a_paused_report_publishes_nothing() {
        // Two identical runs, each on its own registry; one reads its report
        // while paused. Both publish the same metrics, once, at `finish`.
        let schedule = tiny_schedule();
        let run = |peek: bool| {
            let mut k =
                KubeKnots::new(quiet(2), Box::new(CbpPp::new()), OrchestratorConfig::default());
            k.begin(&schedule);
            assert!(!k.drive(&schedule, Some(SimTime::from_millis(1500))), "run must pause");
            if peek {
                let mid = k.report_now(schedule.len());
                assert!(mid.completed < schedule.len(), "the pause falls mid-run");
            }
            assert!(k.drive(&schedule, None));
            let digest = crate::digest::report_digest(&k.finish(schedule.len()));
            // Latency buckets and sums are wall-clock; their count is not.
            let wall = ["knots_heartbeat_latency_us_bucket", "knots_heartbeat_latency_us_sum"];
            let text = k.obs().metrics.to_prometheus();
            let lines = text.lines().filter(|l| !wall.iter().any(|w| l.starts_with(w)));
            (digest, lines.map(|l| format!("{l}\n")).collect::<String>())
        };
        let (read, unread) = (run(true), run(false));
        assert!(unread.1.contains("knots_core_events_total"), "{}", unread.1);
        assert_eq!(read, unread);
    }
}
