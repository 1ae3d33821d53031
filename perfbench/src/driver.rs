//! The traced driver: the orchestrator's event-queue loop rebuilt from the
//! layers' public functions, with a [`Scope`] around every call into a
//! layer.
//!
//! It mirrors `KubeKnots::begin`/`drive`/`pause_state`/`resume` call for
//! call, minus the observability sinks (metrics registry, recorder events,
//! tracer), which never feed back into the simulation. Fidelity is checked,
//! not assumed: a traced leg must end in the same cluster and TSDB state as
//! the orchestrator's own run ([`crate::workload::state_digest`]), and in
//! recovery legs the orchestrator's replayed journal must match the
//! driver's write-ahead log record for record.

use std::time::Instant;

use knots_chaos::{ChaosAction, ChaosEngine, FaultPlan};
use knots_core::calendar::grid_at_or_after;
use knots_core::{
    AppliedEvent, CoreEvent, EventCalendar, KubeKnots, OrchestratorConfig, OrchestratorState,
};
use knots_obs::Obs;
use knots_recovery::{Snapshot, WriteAheadLog};
use knots_sched::{Action, PendingPodView, SchedContext, Scheduler, SuspendedPodView};
use knots_sim::cluster::{Cluster, ClusterConfig};
use knots_sim::events::EventKind;
use knots_sim::pod::PodState;
use knots_sim::time::SimTime;
use knots_telemetry::{probe, TimeSeriesDb, TsdbConfig, UtilizationAggregator};
use knots_workloads::{next_arrival, ScheduledPod};

use crate::prof::{self, Counter, Layer, Scope};
use crate::workload::{LegSpec, Prepared};

/// The event-queue loop over one cluster, driven from benchmark code.
pub struct Driver {
    cluster: Cluster,
    tsdb: TimeSeriesDb,
    aggregator: UtilizationAggregator,
    scheduler: Box<dyn Scheduler>,
    cfg: OrchestratorConfig,
    /// Disabled, as in an untraced orchestrator: schedulers receive its
    /// recorder exactly as they do there.
    obs: Obs,
    chaos: Option<ChaosEngine>,
    chaos_buf: Vec<ChaosAction>,
    cal: EventCalendar,
    next: usize,
    deadline: SimTime,
    skipped: usize,
    util_series: Vec<Vec<f64>>,
    active_util: Vec<f64>,
    next_metric: Option<SimTime>,
    events_seen: usize,
    round: u64,
    event_counts: [u64; 5],
    journal: Option<Vec<AppliedEvent>>,
}

impl Driver {
    /// `KubeKnots::new(..).with_chaos(..)`.
    pub fn new(
        mut cluster_cfg: ClusterConfig,
        scheduler: Box<dyn Scheduler>,
        cfg: OrchestratorConfig,
        plan: Option<FaultPlan>,
    ) -> Driver {
        if !scheduler.wants_cluster_auto_sleep() {
            cluster_cfg.auto_sleep_after = None;
        }
        let heartbeat = cfg.heartbeat.max(cfg.tick);
        let nodes = cluster_cfg.node_models.len();
        let cluster = Cluster::new(cluster_cfg);
        let tsdb = TimeSeriesDb::partitioned(TsdbConfig::default(), cluster.shard_layout());
        let chaos = plan.map(ChaosEngine::new).filter(|e| !e.is_inert());
        Driver {
            cluster,
            tsdb,
            aggregator: UtilizationAggregator::new(heartbeat, cfg.window),
            scheduler,
            cfg,
            obs: Obs::disabled(),
            chaos,
            chaos_buf: Vec::new(),
            cal: EventCalendar::new(),
            next: 0,
            deadline: SimTime::ZERO,
            skipped: 0,
            util_series: vec![Vec::new(); nodes],
            active_util: Vec::new(),
            next_metric: None,
            events_seen: 0,
            round: 0,
            event_counts: [0; 5],
            journal: None,
        }
    }

    /// `KubeKnots::resume`: rebuild a paused driver from a captured state.
    pub fn from_state(
        mut cluster_cfg: ClusterConfig,
        mut scheduler: Box<dyn Scheduler>,
        cfg: OrchestratorConfig,
        plan: Option<FaultPlan>,
        state: OrchestratorState,
    ) -> Result<Driver, String> {
        if !scheduler.wants_cluster_auto_sleep() {
            cluster_cfg.auto_sleep_after = None;
        }
        scheduler.restore_state(&state.scheduler).map_err(|e| e.to_string())?;
        let heartbeat = cfg.heartbeat.max(cfg.tick);
        let mut aggregator = UtilizationAggregator::new(heartbeat, cfg.window);
        aggregator.restore_next_due(state.aggregator_next_due);
        let chaos = match (state.chaos, plan) {
            (None, _) => None,
            (Some(cs), Some(plan)) => Some(ChaosEngine::from_state(plan, cs)),
            (Some(_), None) => {
                return Err("state carries a chaos cursor but no plan was supplied".into())
            }
        };
        let mut event_counts = [0u64; 5];
        for (slot, v) in event_counts.iter_mut().zip(state.event_counts.iter()) {
            *slot = *v;
        }
        let cluster = Cluster::from_state(cluster_cfg, state.cluster);
        let tsdb = TimeSeriesDb::from_state_partitioned(
            TsdbConfig::default(),
            cluster.shard_layout(),
            state.tsdb,
        );
        Ok(Driver {
            cluster,
            tsdb,
            aggregator,
            scheduler,
            cfg,
            obs: Obs::disabled(),
            chaos,
            chaos_buf: Vec::new(),
            cal: EventCalendar::from_entries(&state.calendar),
            next: state.next_arrival as usize,
            deadline: state.deadline,
            skipped: state.skipped as usize,
            util_series: state.util_series,
            active_util: state.active_util,
            next_metric: state.next_metric,
            events_seen: state.events_seen as usize,
            round: state.round,
            event_counts,
            journal: None,
        })
    }

    /// The cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The telemetry store.
    pub fn tsdb(&self) -> &TimeSeriesDb {
        &self.tsdb
    }

    /// `KubeKnots::pause_state`.
    pub fn pause_state(&self) -> OrchestratorState {
        OrchestratorState {
            cluster: self.cluster.snapshot_state(),
            tsdb: self.tsdb.snapshot_state(),
            aggregator_next_due: self.aggregator.next_due(),
            scheduler: self.scheduler.snapshot_state(),
            chaos: self.chaos.as_ref().map(|e| e.snapshot_state()),
            calendar: self.cal.entries(),
            next_arrival: self.next as u64,
            deadline: self.deadline,
            skipped: self.skipped as u64,
            util_series: self.util_series.clone(),
            active_util: self.active_util.clone(),
            next_metric: self.next_metric,
            events_seen: self.events_seen as u64,
            round: self.round,
            event_counts: self.event_counts.to_vec(),
            shards: self.cluster.shards() as u64,
        }
    }

    /// `KubeKnots::enable_journal`.
    pub fn enable_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// `KubeKnots::take_journal`.
    pub fn take_journal(&mut self) -> Vec<AppliedEvent> {
        self.journal.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// `KubeKnots::begin`: seed one self-rescheduling chain per producer.
    pub fn begin(&mut self, schedule: &[ScheduledPod]) {
        let _s = Scope::enter(Layer::Calendar);
        let last_arrival = schedule.last().map(|s| s.at).unwrap_or(SimTime::ZERO);
        self.deadline = last_arrival + self.cfg.drain_grace;
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
        cal.schedule(start + tick, CoreEvent::MetricGrid);
        cal.schedule(grid_at_or_after(self.deadline, tick_us), CoreEvent::DrainDeadline);
        self.cal = cal;
        self.next = 0;
    }

    /// `KubeKnots::drive`: run to completion (`true`) or pause at the
    /// first event boundary at or past `stop` (`false`).
    pub fn drive(&mut self, schedule: &[ScheduledPod], stop: Option<SimTime>) -> bool {
        let _s = Scope::enter(Layer::Calendar);
        let tick = self.cfg.tick;
        let tick_us = tick.as_micros().max(1);
        loop {
            let now = self.cluster.now();
            if stop.is_some_and(|s| now >= s) {
                return false;
            }
            while let Some(kind) = self.cal.pop_due(now) {
                self.handle_event(kind, now, schedule);
            }
            let arrivals_done = self.next >= schedule.len();
            let target = self.cal.peek_time().map_or(now + tick, |t| t.max(now + tick));
            let k = (target.as_micros() - now.as_micros()) / tick_us;
            if k <= 1 {
                self.step_and_probe();
            } else {
                self.advance_span(k, arrivals_done);
            }
            let now = self.cluster.now();
            while let Some((t, CoreEvent::MetricGrid)) = self.cal.peek() {
                if t > now {
                    break;
                }
                self.cal.pop();
                self.handle_event(CoreEvent::MetricGrid, now, schedule);
            }
            self.garbage_collect();
            if arrivals_done && self.cluster.is_drained() {
                return true;
            }
            if now >= self.deadline {
                self.event_counts[CoreEvent::DrainDeadline.priority() as usize] += 1;
                prof::add(Counter::Events, 1);
                return true;
            }
        }
    }

    fn handle_event(&mut self, kind: CoreEvent, now: SimTime, schedule: &[ScheduledPod]) {
        self.event_counts[kind.priority() as usize] += 1;
        prof::add(Counter::Events, 1);
        if let Some(journal) = self.journal.as_mut() {
            journal.push(AppliedEvent { at: now, kind });
        }
        let tick_us = self.cfg.tick.as_micros().max(1);
        match kind {
            CoreEvent::MetricGrid => {
                self.collect_metrics();
                if let Some(t) = self.next_metric {
                    self.cal.schedule(grid_at_or_after(t, tick_us), CoreEvent::MetricGrid);
                }
            }
            CoreEvent::Arrival => {
                let first = self.next;
                while self.next < schedule.len() && schedule[self.next].at <= now {
                    self.cluster.submit(schedule[self.next].spec.clone(), schedule[self.next].at);
                    self.next += 1;
                }
                prof::add(Counter::Pods, (self.next - first) as u64);
                if let Some(at) = next_arrival(schedule, self.next) {
                    self.cal.schedule(grid_at_or_after(at, tick_us), CoreEvent::Arrival);
                }
            }
            CoreEvent::Chaos => {
                self.apply_chaos(now);
                if let Some(t) = self.chaos.as_ref().and_then(|e| e.next_due()) {
                    self.cal.schedule(grid_at_or_after(t, tick_us), CoreEvent::Chaos);
                }
            }
            CoreEvent::Heartbeat => {
                if self.aggregator.due(now) {
                    let t0 = Instant::now();
                    self.schedule_round();
                    prof::observe_round(t0.elapsed().as_nanos() as u64);
                }
                if let Some(t) = self.aggregator.next_due() {
                    self.cal.schedule(grid_at_or_after(t, tick_us), CoreEvent::Heartbeat);
                }
            }
            CoreEvent::DrainDeadline => {}
        }
    }

    /// One tick, then one probe round.
    fn step_and_probe(&mut self) {
        {
            let _s = Scope::enter(Layer::Step);
            self.cluster.step(self.cfg.tick);
        }
        prof::add(Counter::NodeTicks, self.cluster.nodes().len() as u64);
        let _p = Scope::enter(Layer::Probe);
        let now = self.cluster.now();
        let mut samples = 0u64;
        // `probe::sample_cluster` is this call with an identity hook; the
        // hook here only counts.
        match self.chaos.as_mut() {
            None => {
                probe::sample_cluster_with(&self.cluster, &self.tsdb, |_, s| {
                    samples += 1;
                    Some(s)
                });
            }
            Some(engine) => {
                probe::sample_cluster_with(&self.cluster, &self.tsdb, |node, s| {
                    if engine.probe_dropped(node, now) {
                        None
                    } else {
                        samples += 1;
                        Some(engine.corrupt_sample(node, now, s))
                    }
                });
            }
        }
        prof::add(Counter::Samples, samples);
    }

    /// `k` ticks in one `Cluster::step_span`, probing after every tick and
    /// backfilling quiet nodes in closed form afterwards.
    fn advance_span(&mut self, k: u64, arrivals_done: bool) {
        let tick = self.cfg.tick;
        let start = self.cluster.now();
        let step = Scope::enter(Layer::Step);
        let quiet: Vec<bool> = if self.chaos.is_some() {
            Vec::new()
        } else {
            self.cluster.nodes().iter().map(|n| n.is_failed() || n.resident_count() == 0).collect()
        };
        let mut samples = 0u64;
        let executed = {
            let tsdb = &self.tsdb;
            let quiet_ref = &quiet;
            let mut engine = self.chaos.as_mut();
            let samples = &mut samples;
            self.cluster.step_span(tick, k, quiet_ref, |c, activity| {
                let _p = Scope::enter(Layer::Probe);
                let now = c.now();
                let mut w = tsdb.writer();
                for (i, node) in c.nodes().iter().enumerate() {
                    if node.is_failed() || quiet_ref.get(i).copied().unwrap_or(false) {
                        continue;
                    }
                    let sample = match engine.as_deref_mut() {
                        None => node.last_sample(),
                        Some(e) => {
                            if e.probe_dropped(node.id(), now) {
                                continue;
                            }
                            e.corrupt_sample(node.id(), now, node.last_sample())
                        }
                    };
                    w.push_node(node.id(), sample);
                    *samples += 1;
                    for (pod_id, pod) in node.residents() {
                        if matches!(pod.state(), PodState::Running) {
                            w.push_pod(pod_id, sample.at, pod.last_usage());
                        }
                    }
                }
                drop(w);
                !(arrivals_done && activity && c.is_drained())
            })
        };
        drop(step);
        let quiet_nodes = quiet.iter().filter(|q| **q).count() as u64;
        prof::add(Counter::NodeTicks, self.cluster.nodes().len() as u64 * executed);
        prof::add(Counter::QuietNodeTicks, quiet_nodes * executed);
        prof::add(Counter::Samples, samples);
        if !quiet.is_empty() && executed > 0 {
            let _p = Scope::enter(Layer::Probe);
            let mut w = self.tsdb.writer();
            for (i, node) in self.cluster.nodes().iter().enumerate() {
                if quiet[i] && !node.is_failed() {
                    w.push_node_span(node.id(), node.last_sample(), start, tick, executed);
                }
            }
        }
    }

    fn apply_chaos(&mut self, now: SimTime) {
        let _s = Scope::enter(Layer::Chaos);
        let mut actions = std::mem::take(&mut self.chaos_buf);
        if let Some(engine) = self.chaos.as_mut() {
            engine.actions_due(now, &mut actions);
        }
        prof::add(Counter::ChaosActions, actions.len() as u64);
        for a in &actions {
            // Errors are skipped, as the orchestrator skips them.
            let _ = match *a {
                ChaosAction::FailNode(n) => self.cluster.fail_node(n).map(|_| ()),
                ChaosAction::RecoverNode(n) => self.cluster.recover_node(n),
                ChaosAction::DegradeNode { node, frac } => self.cluster.degrade_node(node, frac),
                ChaosAction::RestoreNode(n) => self.cluster.degrade_node(n, 0.0),
                ChaosAction::DelayHeartbeat(d) => {
                    self.aggregator.postpone(now, d);
                    Ok(())
                }
            };
        }
        self.chaos_buf = actions;
    }

    /// Snapshot, views, decide, apply.
    fn schedule_round(&mut self) {
        let snapshot_scope = Scope::enter(Layer::Snapshot);
        let snapshot = self.aggregator.query(&self.cluster);
        let pending: Vec<PendingPodView> = self
            .cluster
            .pending_queue()
            .filter_map(|id| {
                let pod = self.cluster.pod(id)?;
                let spec = pod.spec();
                Some(PendingPodView {
                    id,
                    name: spec.name.clone(),
                    app: knots_sched::context::app_key(&spec.name),
                    qos: spec.qos,
                    request_mb: spec.request_mb,
                    limit_mb: pod.limit_mb(),
                    greedy_memory: spec.greedy_memory,
                    allow_growth: spec.allow_growth,
                    arrival: pod.arrival(),
                    crashes: pod.crashes(),
                })
            })
            .collect();
        let suspended: Vec<SuspendedPodView> = self
            .cluster
            .suspended_pods()
            .filter_map(|id| {
                let pod = self.cluster.pod(id)?;
                Some(SuspendedPodView {
                    id,
                    app: knots_sched::context::app_key(&pod.spec().name),
                    qos: pod.spec().qos,
                    limit_mb: pod.limit_mb(),
                    attained_service_secs: pod.attained_service(),
                    arrival: pod.arrival(),
                })
            })
            .collect();
        drop(snapshot_scope);
        prof::add(Counter::Snapshots, 1);

        let actions = {
            let _s = Scope::enter(Layer::Decide);
            let t0 = Instant::now();
            let ctx = SchedContext {
                now: self.cluster.now(),
                snapshot: &snapshot,
                pending: &pending,
                suspended: &suspended,
                tsdb: &self.tsdb,
                window: self.cfg.window,
                recorder: Some(&self.obs.recorder),
                cache: knots_sched::StatsCache::new(),
                freshness: self.cfg.freshness,
                shards: self.cluster.shards(),
            };
            let actions = self.scheduler.decide(&ctx);
            let cs = ctx.cache.stats();
            drop(ctx);
            prof::observe_decide(t0.elapsed().as_nanos() as u64);
            prof::add(Counter::CacheHits, cs.hits);
            prof::add(Counter::CacheMisses, cs.misses);
            actions
        };

        let _s = Scope::enter(Layer::Apply);
        prof::add(Counter::Actions, actions.len() as u64);
        for action in actions {
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
                Ok(()) => prof::add(Counter::Applied, 1),
                Err(_) => self.skipped += 1,
            }
        }
    }

    fn collect_metrics(&mut self) {
        let _s = Scope::enter(Layer::Gc);
        let now = self.cluster.now();
        if self.next_metric.is_some_and(|t| now < t) {
            return;
        }
        let iv_us = self.cfg.metric_interval.as_micros().max(1);
        self.next_metric = Some(SimTime::from_micros((now.as_micros() / iv_us + 1) * iv_us));
        for (i, node) in self.cluster.nodes().iter().enumerate() {
            let util = node.last_sample().sm_util * 100.0;
            self.util_series[i].push(util);
            if node.resident_count() > 0 {
                self.active_util.push(util);
            }
        }
    }

    fn garbage_collect(&mut self) {
        let _s = Scope::enter(Layer::Gc);
        let events = self.cluster.events();
        for e in &events[self.events_seen..] {
            if let (Some(pod), EventKind::Completed { .. }) = (e.pod, e.kind) {
                self.tsdb.forget_pod(pod);
            }
        }
        self.events_seen = events.len();
    }
}

/// Capture a checkpoint of a paused driver (`Snapshot::capture`'s work).
fn capture(d: &Driver) -> Result<Snapshot, String> {
    let snap =
        Snapshot::from_state(&d.pause_state(), d.cluster().now()).map_err(|e| format!("{e:?}"))?;
    prof::add(Counter::Captures, 1);
    prof::add(Counter::CaptureBytes, snap.payload.len() as u64);
    Ok(snap)
}

/// Run one leg through the traced driver. Returns the finished driver and
/// the traced wall seconds, which start after `Driver::new` (set-up).
pub fn run_traced(leg: &LegSpec, p: &Prepared) -> Result<(Driver, f64), String> {
    let mut d = Driver::new(p.cluster_cfg.clone(), leg.scheduler(), p.orch, p.plan.clone());
    let t0 = Instant::now();
    if let Some(rc) = p.recovery {
        d = run_traced_recovery(d, leg, p, rc.checkpoint_every)?;
    } else {
        d.begin(&p.schedule);
        d.drive(&p.schedule, None);
    }
    Ok((d, t0.elapsed().as_secs_f64()))
}

/// `run_with_recovery`, step for step, with the forward progress on the
/// traced driver and the restore + replay on the real orchestrator.
fn run_traced_recovery(
    mut d: Driver,
    leg: &LegSpec,
    p: &Prepared,
    checkpoint_every: knots_sim::time::SimDuration,
) -> Result<Driver, String> {
    let plan = p.plan.clone().ok_or("recovery legs carry a plan")?;
    let every = checkpoint_every.max(p.orch.tick);
    let mut crashes = plan.controller_crashes().into_iter().peekable();
    d.begin(&p.schedule);
    d.enable_journal();
    let mut wal = WriteAheadLog::new();
    let mut latest = {
        let _s = Scope::enter(Layer::Capture);
        capture(&d)?
    };
    let mut next_cp = d.cluster().now() + every;
    loop {
        let now = d.cluster().now();
        while crashes.peek().is_some_and(|c| *c <= now) {
            crashes.next();
        }
        while next_cp <= now {
            next_cp += every;
        }
        let (stop, crash) = match crashes.peek() {
            Some(&c) if c < next_cp => (c, true),
            _ => (next_cp, false),
        };
        if d.drive(&p.schedule, Some(stop)) {
            break;
        }
        if !crash {
            let _s = Scope::enter(Layer::Capture);
            wal.append(&d.take_journal());
            latest = capture(&d)?;
            wal.truncate();
            continue;
        }
        crashes.next();
        {
            let _s = Scope::enter(Layer::Capture);
            wal.append(&d.take_journal());
        }
        drop(d);
        let mut revived = {
            let _s = Scope::enter(Layer::Restore);
            let state = latest.state().map_err(|e| format!("{e:?}"))?;
            let mut k = KubeKnots::resume(
                p.cluster_cfg.clone(),
                leg.scheduler(),
                p.orch,
                Some(plan.clone()),
                state,
            )
            .map_err(|e| e.to_string())?;
            k.enable_journal();
            k
        };
        let replay_done = {
            let _s = Scope::enter(Layer::Replay);
            let done = revived.drive(&p.schedule, Some(stop));
            let replayed = revived.take_journal();
            wal.verify_replay(&replayed)
                .map_err(|e| format!("{}: replay fence tripped: {e:?}", leg.label))?;
            prof::add(Counter::ReplayedRecords, replayed.len() as u64);
            done
        };
        d = {
            let _s = Scope::enter(Layer::Handoff);
            let state = revived.pause_state().ok_or("a resumed orchestrator is paused")?;
            let mut d = Driver::from_state(
                p.cluster_cfg.clone(),
                leg.scheduler(),
                p.orch,
                Some(plan.clone()),
                state,
            )?;
            d.enable_journal();
            d
        };
        if replay_done {
            break;
        }
    }
    Ok(d)
}
