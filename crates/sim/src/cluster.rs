//! The simulated cluster: nodes, pending queue, event loop, and the action
//! surface schedulers drive (place / resize / preempt / resume / migrate /
//! sleep / wake).
//!
//! Placement deliberately performs only *sanity* validation (node exists and
//! is awake, provision fits the bare device). Whether a placement is *wise*
//! is the scheduler's job — utilization-agnostic schedulers are allowed to
//! create the memory-capacity violations the paper describes, and the
//! resulting crash/relaunch cycles are part of the modeled behaviour.

use crate::config::Overheads;
use crate::error::{SimError, SimResult};
use crate::events::{CrashReason, Event, EventKind};
use crate::gpu::PState;
use crate::ids::{ImageId, NodeId, PodId};
use crate::metrics::GpuSample;
use crate::node::{Node, StepOutcome};
use crate::pod::{Pod, PodSpec};
use crate::resources::GpuModel;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// GPU model per node; the vector length is the node count.
    pub node_models: Vec<GpuModel>,
    /// Timing overheads.
    pub overheads: Overheads,
    /// Automatically put a node to deep sleep after this much idle time.
    /// `None` disables auto-sleep (nodes stay at idle power).
    pub auto_sleep_after: Option<SimDuration>,
    /// Container images pre-pulled on every node at cluster creation
    /// (production registries mirror hot images; pre-warmed services skip
    /// the cold start).
    pub prewarm_images: Vec<ImageId>,
}

impl ClusterConfig {
    /// A homogeneous cluster of `n` nodes with the given GPU.
    pub fn homogeneous(n: usize, model: GpuModel) -> Self {
        ClusterConfig {
            node_models: vec![model; n],
            overheads: Overheads::default(),
            auto_sleep_after: None,
            prewarm_images: Vec::new(),
        }
    }

    /// The trace-driven DNN simulation setup (§V-C): 256 GPUs.
    pub fn dnn_sim() -> Self {
        Self::homogeneous(crate::config::DNN_SIM_GPUS, GpuModel::P100)
    }

    /// A heterogeneous pool in the spirit of the Knots design figure
    /// (Fig. 5 shows P100, M40, V100 and K80 workers behind one head node):
    /// cycles through the four device models.
    pub fn heterogeneous(n: usize) -> Self {
        let models = [GpuModel::P100, GpuModel::M40, GpuModel::V100, GpuModel::K80];
        ClusterConfig {
            node_models: (0..n).map(|i| models[i % models.len()]).collect(),
            overheads: Overheads::default(),
            auto_sleep_after: None,
            prewarm_images: Vec::new(),
        }
    }
}

/// Where a pod currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Pending,
    OnNode(NodeId),
    Suspended,
    Relaunching,
    Completed,
    Failed,
}

/// The simulated GPU cluster.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<Node>,
    now: SimTime,
    next_pod: u64,
    /// FIFO of pending pod ids (schedulers may serve it out of order; the
    /// queue order is what FCFS policies follow).
    queue: VecDeque<PodId>,
    pending: BTreeMap<PodId, Pod>,
    suspended: BTreeMap<PodId, Pod>,
    /// Crashed pods waiting out their relaunch backoff, min-ordered by due
    /// time. The `u64` is a monotonic insertion sequence: same-tick expiries
    /// requeue in crash order (§IV-C queue-tail semantics) and distinct due
    /// times never collide on the key.
    relaunching: BTreeMap<(SimTime, u64), (PodId, Pod)>,
    relaunch_seq: u64,
    completed: BTreeMap<PodId, Pod>,
    /// Pods abandoned by the crash-loop cap (terminal, never relaunched).
    failed: BTreeMap<PodId, Pod>,
    location: BTreeMap<PodId, Loc>,
    events: Vec<Event>,
    /// Earliest instant the auto-sleep pass could transition a node, or
    /// `None` when cluster state changed and it must rescan. Lets quiet
    /// ticks skip the all-nodes idle scan.
    sleep_scan_due: Option<SimTime>,
    /// Indices of the nodes that host work (live, at least one resident),
    /// ascending: the only nodes [`Cluster::step_active`] steps.
    active: Vec<usize>,
    /// The nodes the last [`Cluster::step_active`] stepped, ascending.
    stepped: Vec<usize>,
    /// Per-node idle-skipping bookkeeping, in node order.
    pace: Vec<Pace>,
    /// Tick of the idle-skipping steps, in which owed ticks are counted.
    lazy_dt: SimDuration,
    /// Idle spans of live nodes settled since the last
    /// [`Cluster::drain_idle_spans`].
    idle_spans: Vec<IdleSpan>,
}

/// Per-node idle-skipping bookkeeping. Derived state: rebuilt by
/// [`Cluster::from_state`], never serialized.
#[derive(Debug, Clone, Copy, Default)]
struct Pace {
    /// Instant through which the node has been stepped. An idle node that
    /// [`Cluster::step_active`] skipped owes the ticks since.
    settled: SimTime,
    /// Instant of the node's last change other than an idle tick:
    /// placement, completion, eviction, sleep, wake, failure, ...
    touched: SimTime,
}

/// Idle ticks of a live node, replayed by a settle: its probe owes
/// `ticks` copies of `sample`'s readings, at `start + dt`, …,
/// `start + ticks·dt`. Failed nodes report nothing and leave no span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleSpan {
    /// The node.
    pub node: NodeId,
    /// Its constant idle sample (the readings; `at` is the span end).
    pub sample: GpuSample,
    /// Instant the node was last stepped or settled before the span.
    pub start: SimTime,
    /// Tick length.
    pub dt: SimDuration,
    /// Ticks in the span.
    pub ticks: u64,
}

/// Whether a node hosts work: live, with at least one resident pod.
fn hosts_work(n: &Node) -> bool {
    !n.is_failed() && n.resident_count() > 0
}

/// Which nodes a tick skips.
#[derive(Clone, Copy)]
enum Skip<'a> {
    /// Step every node.
    Nothing,
    /// Step only the nodes that host work; idle ones owe the tick.
    Idle,
    /// Skip the nodes flagged in the mask (see [`Cluster::step_span`]).
    Mask(&'a [bool]),
}

impl Cluster {
    /// Build a cluster with every node awake and idle.
    pub fn new(cfg: ClusterConfig) -> Self {
        let nodes: Vec<Node> = cfg
            .node_models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut n = Node::new(NodeId(i), *m);
                n.prewarm(&cfg.prewarm_images);
                n
            })
            .collect();
        let n = nodes.len();
        Cluster {
            cfg,
            nodes,
            now: SimTime::ZERO,
            next_pod: 0,
            queue: VecDeque::new(),
            pending: BTreeMap::new(),
            suspended: BTreeMap::new(),
            relaunching: BTreeMap::new(),
            relaunch_seq: 0,
            completed: BTreeMap::new(),
            failed: BTreeMap::new(),
            location: BTreeMap::new(),
            events: Vec::new(),
            sleep_scan_due: None,
            active: Vec::new(),
            stepped: Vec::new(),
            pace: vec![Pace::default(); n],
            lazy_dt: SimDuration::ZERO,
            idle_spans: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One node.
    pub fn node(&self, id: NodeId) -> SimResult<&Node> {
        self.nodes.get(id.0).ok_or(SimError::UnknownNode(id))
    }

    /// Pending pod ids in queue order.
    pub fn pending_queue(&self) -> impl Iterator<Item = PodId> + '_ {
        self.queue.iter().copied()
    }

    /// Number of pending pods.
    pub fn pending_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of crashed pods waiting out their relaunch backoff.
    pub fn relaunching_len(&self) -> usize {
        self.relaunching.len()
    }

    /// Look up any pod, wherever it lives.
    pub fn pod(&self, id: PodId) -> Option<&Pod> {
        match self.location.get(&id)? {
            Loc::Pending => self.pending.get(&id),
            Loc::OnNode(n) => self.nodes[n.0].resident(id),
            Loc::Suspended => self.suspended.get(&id),
            Loc::Relaunching => {
                self.relaunching.values().find(|(pid, _)| *pid == id).map(|(_, p)| p)
            }
            Loc::Completed => self.completed.get(&id),
            Loc::Failed => self.failed.get(&id),
        }
    }

    /// Ids of suspended pods.
    pub fn suspended_pods(&self) -> impl Iterator<Item = PodId> + '_ {
        self.suspended.keys().copied()
    }

    /// All completed pods.
    pub fn completed_pods(&self) -> impl Iterator<Item = (PodId, &Pod)> {
        self.completed.iter().map(|(id, p)| (*id, p))
    }

    /// Number of completed pods.
    pub fn completed_len(&self) -> usize {
        self.completed.len()
    }

    /// Pods abandoned by the crash-loop cap, in id order.
    pub fn failed_pods(&self) -> impl Iterator<Item = (PodId, &Pod)> {
        self.failed.iter().map(|(id, p)| (*id, p))
    }

    /// Number of crash-loop-abandoned pods.
    pub fn failed_len(&self) -> usize {
        self.failed.len()
    }

    /// The full event log.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Total GPU energy drawn so far, joules. Counts a skipped idle node's
    /// owed ticks only once it is settled ([`Cluster::settle_idle`]).
    pub fn total_energy_joules(&self) -> f64 {
        self.nodes.iter().map(|n| n.energy().joules()).sum()
    }

    /// True when no pod remains anywhere but the terminal maps
    /// (`completed`, and `failed` for crash-loop-abandoned pods).
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty()
            && self.suspended.is_empty()
            && self.relaunching.is_empty()
            && self.active.is_empty()
    }

    /// Number of nodes that host work (live, at least one resident).
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// The nodes the last [`Cluster::step_active`] stepped — those that
    /// hosted work when the tick began, including any it left idle — in
    /// node order: the nodes whose probe readings that tick changed.
    pub fn stepped_nodes(&self) -> impl Iterator<Item = &Node> {
        self.stepped.iter().map(|&i| &self.nodes[i])
    }

    /// For an idle node (failed, or hosting no pod), the instant of its
    /// last change other than an idle tick; `None` while it hosts work. A
    /// view of the node built after that instant differs from the node
    /// now only in the sample time and the waking flag.
    pub fn quiet_since(&self, id: NodeId) -> Option<SimTime> {
        let i = id.0;
        (!hosts_work(self.nodes.get(i)?)).then(|| self.pace[i].touched)
    }

    /// A node's latest sample, counting the ticks it owes: a node skipped
    /// since its last settle reports its constant idle sample at `now`.
    /// Panics on an unknown node.
    pub fn node_sample(&self, id: NodeId) -> GpuSample {
        let n = &self.nodes[id.0];
        if self.pace[id.0].settled < self.now {
            n.idle_sample(self.now)
        } else {
            n.last_sample()
        }
    }

    // ------------------------------------------------------------------
    // Scheduler-facing actions.
    // ------------------------------------------------------------------

    /// Submit a pod to the pending queue. `arrival` is recorded for latency
    /// accounting and is normally the current simulation time.
    pub fn submit(&mut self, spec: PodSpec, arrival: SimTime) -> PodId {
        let id = PodId(self.next_pod);
        self.next_pod += 1;
        let pod = Pod::new(spec, arrival);
        self.pending.insert(id, pod);
        self.queue.push_back(id);
        self.location.insert(id, Loc::Pending);
        self.events.push(Event::pod(self.now.max(arrival), id, EventKind::Submitted));
        id
    }

    /// The `location` index disagrees with the state map it points into.
    /// Surfacing this as an error keeps a long run alive and lets the
    /// orchestrator report it through the skipped-action channel instead of
    /// aborting mid-experiment.
    fn desync(pod: PodId, op: &'static str) -> SimError {
        SimError::InvalidState { pod, op, state: "location index desynced".into() }
    }

    /// Bind a pending pod to a node.
    pub fn place(&mut self, id: PodId, node: NodeId) -> SimResult<()> {
        let loc = *self.location.get(&id).ok_or(SimError::UnknownPod(id))?;
        if loc != Loc::Pending {
            return Err(SimError::InvalidState { pod: id, op: "place", state: format!("{loc:?}") });
        }
        let n = self.nodes.get(node.0).ok_or(SimError::UnknownNode(node))?;
        if n.is_failed() {
            return Err(SimError::NodeFailed(node));
        }
        if !n.is_available() {
            return Err(SimError::NodeAsleep(node));
        }
        let pod = self.pending.get(&id).ok_or(Self::desync(id, "place"))?;
        let cap = n.gpu().capacity_mb();
        if pod.limit_mb() > cap {
            return Err(SimError::ExceedsDevice {
                pod: id,
                node,
                limit_mb: pod.limit_mb(),
                capacity_mb: cap,
            });
        }
        let pod = self.pending.remove(&id).ok_or(Self::desync(id, "place"))?;
        self.queue.retain(|q| *q != id);
        let (now, pull) = (self.now, self.cfg.overheads.cold_start_pull);
        let cold = self.change(node.0, |n| n.admit(id, pod, now, pull));
        self.location.insert(id, Loc::OnNode(node));
        self.events.push(Event::pod(self.now, id, EventKind::Placed { node, cold_start: cold }));
        if !cold {
            self.events.push(Event::pod(self.now, id, EventKind::Started { node }));
        }
        Ok(())
    }

    /// Change a pod's memory provision (harvest or grow-back). Valid for
    /// pending and resident pods.
    pub fn resize(&mut self, id: PodId, new_limit_mb: f64) -> SimResult<()> {
        if !new_limit_mb.is_finite() || new_limit_mb < 0.0 {
            return Err(SimError::InvalidResize { pod: id, limit_mb: new_limit_mb });
        }
        let loc = *self.location.get(&id).ok_or(SimError::UnknownPod(id))?;
        let pod: &mut Pod = match loc {
            Loc::Pending => self.pending.get_mut(&id).ok_or(Self::desync(id, "resize"))?,
            Loc::OnNode(n) => self.nodes[n.0].resident_mut(id).ok_or(Self::desync(id, "resize"))?,
            _ => {
                return Err(SimError::InvalidState {
                    pod: id,
                    op: "resize",
                    state: format!("{loc:?}"),
                })
            }
        };
        let from = pod.limit_mb();
        pod.set_limit_mb(new_limit_mb);
        self.events.push(Event::pod(
            self.now,
            id,
            EventKind::Resized { from_mb: from, to_mb: new_limit_mb },
        ));
        Ok(())
    }

    /// Toggle a pending pod's framework `allow_growth` knob — the API the
    /// paper argues must be exposed to the cluster scheduler (Observation 5)
    /// so TF stops earmarking the whole device. Only valid before placement:
    /// a running framework has already committed to its memory strategy.
    pub fn configure_growth(&mut self, id: PodId, allow: bool) -> SimResult<()> {
        let loc = *self.location.get(&id).ok_or(SimError::UnknownPod(id))?;
        if loc != Loc::Pending {
            return Err(SimError::InvalidState {
                pod: id,
                op: "configure growth",
                state: format!("{loc:?}"),
            });
        }
        self.pending
            .get_mut(&id)
            .ok_or(Self::desync(id, "configure growth"))?
            .set_allow_growth(allow);
        Ok(())
    }

    /// Suspend a running pod, releasing its GPU memory but keeping progress.
    pub fn preempt(&mut self, id: PodId) -> SimResult<()> {
        let loc = *self.location.get(&id).ok_or(SimError::UnknownPod(id))?;
        let Loc::OnNode(node) = loc else {
            return Err(SimError::InvalidState {
                pod: id,
                op: "preempt",
                state: format!("{loc:?}"),
            });
        };
        let mut pod = self.change(node.0, |n| n.evict(id)).ok_or(Self::desync(id, "preempt"))?;
        // The node may now be idle; the auto-sleep cache must rescan.
        self.sleep_scan_due = None;
        pod.suspend();
        pod.set_node(None);
        self.suspended.insert(id, pod);
        self.location.insert(id, Loc::Suspended);
        self.events.push(Event::pod(self.now, id, EventKind::Preempted { node }));
        Ok(())
    }

    /// Resume a suspended pod on a node, paying the resume overhead.
    pub fn resume(&mut self, id: PodId, node: NodeId) -> SimResult<()> {
        let loc = *self.location.get(&id).ok_or(SimError::UnknownPod(id))?;
        if loc != Loc::Suspended {
            return Err(SimError::InvalidState {
                pod: id,
                op: "resume",
                state: format!("{loc:?}"),
            });
        }
        let n = self.nodes.get(node.0).ok_or(SimError::UnknownNode(node))?;
        if n.is_failed() {
            return Err(SimError::NodeFailed(node));
        }
        if !n.is_available() {
            return Err(SimError::NodeAsleep(node));
        }
        let pod = self.suspended.remove(&id).ok_or(Self::desync(id, "resume"))?;
        let (now, delay) = (self.now, self.cfg.overheads.resume_overhead);
        self.change(node.0, |n| n.reattach(id, pod, now, delay));
        self.location.insert(id, Loc::OnNode(node));
        self.events.push(Event::pod(self.now, id, EventKind::Resumed { node }));
        Ok(())
    }

    /// Migrate a running pod to another node (suspend + move + resume with
    /// the migration penalty). Progress is retained (checkpointed).
    pub fn migrate(&mut self, id: PodId, to: NodeId) -> SimResult<()> {
        let loc = *self.location.get(&id).ok_or(SimError::UnknownPod(id))?;
        let Loc::OnNode(from) = loc else {
            return Err(SimError::InvalidState {
                pod: id,
                op: "migrate",
                state: format!("{loc:?}"),
            });
        };
        if from == to {
            return Ok(());
        }
        let n = self.nodes.get(to.0).ok_or(SimError::UnknownNode(to))?;
        if n.is_failed() {
            return Err(SimError::NodeFailed(to));
        }
        if !n.is_available() {
            return Err(SimError::NodeAsleep(to));
        }
        let mut pod = self.change(from.0, |n| n.evict(id)).ok_or(Self::desync(id, "migrate"))?;
        // The source node may now be idle; the auto-sleep cache must rescan.
        self.sleep_scan_due = None;
        pod.suspend();
        pod.record_migration();
        let (now, delay) = (self.now, self.cfg.overheads.migration_delay);
        self.change(to.0, |n| n.reattach(id, pod, now, delay));
        self.location.insert(id, Loc::OnNode(to));
        self.events.push(Event::pod(self.now, id, EventKind::Migrated { from, to }));
        Ok(())
    }

    /// Put an idle node into deep sleep. Fails when pods are resident.
    pub fn sleep_node(&mut self, id: NodeId) -> SimResult<()> {
        let n = self.nodes.get(id.0).ok_or(SimError::UnknownNode(id))?;
        if n.resident_count() > 0 {
            return Err(SimError::InvalidState {
                pod: PodId(u64::MAX),
                op: "sleep node",
                state: format!("{} resident pods", n.resident_count()),
            });
        }
        if !n.gpu().is_asleep() {
            self.change(id.0, |n| n.set_pstate(PState::DeepSleep));
            self.events.push(Event::node(self.now, EventKind::NodeSlept { node: id }));
        }
        Ok(())
    }

    /// Wake a sleeping node; it becomes placeable immediately but pays the
    /// wake latency before pods actually execute.
    pub fn wake_node(&mut self, id: NodeId) -> SimResult<()> {
        let wake = self.cfg.overheads.wake_delay;
        let now = self.now;
        let n = self.nodes.get(id.0).ok_or(SimError::UnknownNode(id))?;
        if n.gpu().is_asleep() {
            self.change(id.0, |n| n.begin_wake(now + wake));
            // A fresh empty-awake candidate appears; rescan for auto-sleep.
            self.sleep_scan_due = None;
            self.events.push(Event::node(now, EventKind::NodeWoken { node: id }));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault injection (driven by the chaos layer; see crates/chaos).
    // ------------------------------------------------------------------

    /// Fail a node outright: every resident pod crashes with
    /// [`CrashReason::NodeFailure`] and re-enters the relaunch pipeline
    /// (subject to backoff and the crash-loop cap), the node stops executing
    /// and reporting, and placement on it is rejected until
    /// [`Cluster::recover_node`]. Idempotent: failing an already-failed node
    /// is a no-op that returns an empty victim list.
    pub fn fail_node(&mut self, id: NodeId) -> SimResult<Vec<PodId>> {
        let n = self.nodes.get(id.0).ok_or(SimError::UnknownNode(id))?;
        if n.is_failed() {
            return Ok(Vec::new());
        }
        let victims = self.change(id.0, Node::fail);
        // The node just lost its residents; the auto-sleep cache must rescan.
        self.sleep_scan_due = None;
        self.events.push(Event::node(self.now, EventKind::NodeFailed { node: id }));
        let mut ids = Vec::with_capacity(victims.len());
        for (pid, pod) in victims {
            ids.push(pid);
            self.crash_pod(pid, pod, id, CrashReason::NodeFailure);
        }
        Ok(ids)
    }

    /// Bring a failed node back into service, awake and empty; pods it lost
    /// come back through the normal relaunch queue. No-op on healthy nodes.
    pub fn recover_node(&mut self, id: NodeId) -> SimResult<()> {
        let now = self.now;
        let n = self.nodes.get(id.0).ok_or(SimError::UnknownNode(id))?;
        if n.is_failed() {
            self.change(id.0, |n| n.recover(now));
            // A fresh empty-awake candidate appears; rescan for auto-sleep.
            self.sleep_scan_due = None;
            self.events.push(Event::node(now, EventKind::NodeRecovered { node: id }));
        }
        Ok(())
    }

    /// Set the fraction of a node's GPU memory lost to an injected hardware
    /// fault; `0.0` restores full capacity. Non-finite fractions are treated
    /// as `0.0` and finite ones are clamped into `[0.0, 0.99]` so the device
    /// never reaches zero capacity.
    pub fn degrade_node(&mut self, id: NodeId, frac: f64) -> SimResult<()> {
        let frac = if frac.is_finite() { frac.clamp(0.0, 0.99) } else { 0.0 };
        let now = self.now;
        self.nodes.get(id.0).ok_or(SimError::UnknownNode(id))?;
        let capacity_mb = self.change(id.0, |n| {
            n.set_degraded_frac(frac);
            n.gpu().capacity_mb()
        });
        self.events.push(Event::node(now, EventKind::GpuDegraded { node: id, capacity_mb }));
        Ok(())
    }

    /// Common crash handling: schedule a relaunch with the backoff schedule,
    /// or abandon the pod as terminally `Failed` once the crash-loop cap is
    /// reached (Kubernetes gives up on crash-looping containers too — ours
    /// is a hard cap rather than an ever-growing backoff).
    fn crash_pod(&mut self, id: PodId, mut pod: Pod, node: NodeId, reason: CrashReason) {
        let delay = self.cfg.overheads.relaunch_delay_for(pod.crashes());
        let relaunch_at = self.now + delay;
        pod.crash(relaunch_at);
        pod.set_node(None);
        self.events.push(Event::pod(self.now, id, EventKind::Crashed { node, reason }));
        let cap = self.cfg.overheads.crash_loop_cap;
        if cap > 0 && pod.crashes() >= cap {
            let crashes = pod.crashes();
            pod.fail(self.now);
            self.events.push(Event::pod(self.now, id, EventKind::GaveUp { node, crashes }));
            self.failed.insert(id, pod);
            self.location.insert(id, Loc::Failed);
        } else {
            self.relaunching.insert((relaunch_at, self.relaunch_seq), (id, pod));
            self.relaunch_seq += 1;
            self.location.insert(id, Loc::Relaunching);
        }
    }

    // ------------------------------------------------------------------
    // Time.
    // ------------------------------------------------------------------

    /// Advance the cluster by `dt`, stepping every node (after settling
    /// any ticks idle nodes owe).
    pub fn step(&mut self, dt: SimDuration) {
        self.settle_idle();
        self.tick_once(dt, Skip::Nothing);
    }

    /// Advance the cluster by `dt`, stepping only the nodes that host
    /// work. An idle node's tick is a constant sample, a fixed power draw
    /// and at most the clearing of its waking flag, so a skipped node owes
    /// it and replays it in closed form (`Node::finish_quiet_span`) when
    /// it is next changed or settled. Every state change goes through that
    /// settle, so the cluster evolves bit-identically to [`Cluster::step`].
    ///
    /// Until [`Cluster::settle_idle`], the `&self` reads of a skipped node
    /// (`nodes`, `node`, `total_energy_joules`, `snapshot_state`) see it as
    /// of its last settle; [`Cluster::node_sample`] and
    /// [`Cluster::quiet_since`] already count the owed ticks. The probe
    /// readings a settle replays queue up for [`Cluster::drain_idle_spans`].
    pub fn step_active(&mut self, dt: SimDuration) {
        if dt != self.lazy_dt {
            self.settle_idle();
            self.lazy_dt = dt;
        }
        self.tick_once(dt, Skip::Idle);
    }

    /// Replay every tick skipped idle nodes owe, queueing their probe
    /// readings as idle spans.
    pub fn settle_idle(&mut self) {
        for i in 0..self.nodes.len() {
            self.settle(i);
        }
    }

    /// Hand over the idle spans settled since the last call, oldest first
    /// per node.
    pub fn drain_idle_spans(&mut self) -> std::vec::Drain<'_, IdleSpan> {
        self.idle_spans.drain(..)
    }

    /// Replay node `i`'s owed idle ticks, and queue the probe readings of
    /// a live node.
    fn settle(&mut self, i: usize) {
        let start = self.pace[i].settled;
        if start >= self.now {
            return;
        }
        let dt = self.lazy_dt;
        let ticks = (self.now.0 - start.0) / dt.0;
        self.pace[i].settled = self.now;
        let node = &mut self.nodes[i];
        node.finish_quiet_span(start, dt, ticks);
        if !node.is_failed() {
            let sample = node.last_sample();
            self.idle_spans.push(IdleSpan { node: NodeId(i), sample, start, dt, ticks });
        }
    }

    /// Change node `i` through `f`: settle the ticks it owes first, then
    /// update its membership in the active set and its change time.
    fn change<R>(&mut self, i: usize, f: impl FnOnce(&mut Node) -> R) -> R {
        self.settle(i);
        let r = f(&mut self.nodes[i]);
        self.touch(i);
        r
    }

    /// Record a change of node `i` at `now`: stamp it, and add it to or
    /// drop it from the active set.
    fn touch(&mut self, i: usize) {
        self.pace[i].touched = self.now;
        match (self.active.binary_search(&i), hosts_work(&self.nodes[i])) {
            (Err(at), true) => self.active.insert(at, i),
            (Ok(at), false) => {
                self.active.remove(at);
            }
            _ => {}
        }
    }

    /// One tick of size `dt`, skipping the nodes `skip` names.
    fn tick_once(&mut self, dt: SimDuration, skip: Skip<'_>) {
        assert!(!dt.is_zero(), "step needs a positive dt");
        let now = self.now;
        self.now = now + dt;

        // 1. Step the nodes, folding each outcome in node order.
        if let Skip::Idle = skip {
            // Stepping may drop nodes from the active set; walk a copy.
            self.stepped.clone_from(&self.active);
            for j in 0..self.stepped.len() {
                self.step_node(self.stepped[j], now, dt);
            }
        } else {
            for i in 0..self.nodes.len() {
                if let Skip::Mask(q) = skip {
                    if q.get(i).copied().unwrap_or(false) {
                        // The span replays it in closed form at its end.
                        self.pace[i].settled = self.now;
                        continue;
                    }
                }
                self.step_node(i, now, dt);
            }
        }

        // 2. Relaunches whose delay expired re-enter the queue tail.
        self.requeue_due_relaunches();

        // 3. Auto-sleep long-idle nodes.
        self.auto_sleep_pass();
    }

    /// Step node `i` through the tick from `now` and fold its outcome.
    fn step_node(&mut self, i: usize, now: SimTime, dt: SimDuration) {
        let out = self.nodes[i].step(now, dt);
        self.pace[i].settled = self.now;
        self.fold_outcome(NodeId(i), out);
    }

    /// Fold one node's tick outcome into cluster state, in node order.
    fn fold_outcome(&mut self, node: NodeId, out: StepOutcome) {
        if !out.completed.is_empty() || !out.crashed.is_empty() {
            // The node may just have gone empty; any cached auto-sleep
            // deadline could now be too late.
            self.sleep_scan_due = None;
            self.touch(node.0);
        }
        for id in out.started {
            self.events.push(Event::pod(self.now, id, EventKind::Started { node }));
        }
        for (id, pod) in out.completed {
            self.events.push(Event::pod(self.now, id, EventKind::Completed { node }));
            self.completed.insert(id, pod);
            self.location.insert(id, Loc::Completed);
        }
        for (id, pod, reason) in out.crashed {
            self.crash_pod(id, pod, node, reason);
        }
    }

    /// Relaunches whose delay expired re-enter the queue tail (§IV-C:
    /// relaunched tasks "cannot be prioritized over tasks ... already
    /// ahead on the queue"). Entries pop from the min-ordered map, and the
    /// due batch re-sorts by insertion sequence so same-tick expiries
    /// requeue in their original crash order — exactly what the old
    /// linear scan produced, without its O(n²) `remove(i)` loop.
    fn requeue_due_relaunches(&mut self) {
        match self.relaunching.first_key_value() {
            Some((&(at, _), _)) if at <= self.now => {}
            _ => return,
        }
        let mut due: Vec<(u64, PodId, Pod)> = Vec::new();
        loop {
            match self.relaunching.first_key_value() {
                Some((&(at, _), _)) if at <= self.now => {}
                _ => break,
            }
            let Some(((_, seq), (id, mut pod))) = self.relaunching.pop_first() else { break };
            pod.reenqueue();
            due.push((seq, id, pod));
        }
        due.sort_by_key(|(seq, _, _)| *seq);
        for (_, id, pod) in due {
            self.events.push(Event::pod(self.now, id, EventKind::Requeued));
            self.pending.insert(id, pod);
            self.queue.push_back(id);
            self.location.insert(id, Loc::Pending);
        }
    }

    /// Auto-sleep long-idle nodes. The full scan only runs when the cached
    /// deadline has been reached (or invalidated by a state change); quiet
    /// ticks in between cost one comparison. Transitions fire on exactly
    /// the same ticks, in the same node order, as the old per-step scan.
    fn auto_sleep_pass(&mut self) {
        let Some(idle) = self.cfg.auto_sleep_after else { return };
        if self.sleep_scan_due.is_some_and(|due| self.now < due) {
            return;
        }
        let mut next_due = SimTime(u64::MAX);
        for i in 0..self.nodes.len() {
            let n = &self.nodes[i];
            if n.gpu().is_asleep() || n.resident_count() > 0 {
                // Residents can only leave through events that invalidate
                // the cache, and sleepers only wake through `wake_node`;
                // neither bounds the next scan.
                continue;
            }
            let due = n.last_busy() + idle;
            if self.now >= due {
                let id = n.id();
                self.change(i, |n| n.set_pstate(PState::DeepSleep));
                self.events.push(Event::node(self.now, EventKind::NodeSlept { node: id }));
            } else {
                next_due = next_due.min(due);
            }
        }
        self.sleep_scan_due = Some(next_due);
    }

    /// Advance the cluster `k` ticks of size `dt` in one call.
    ///
    /// Behaviour is bit-identical to calling [`Cluster::step`] `k` times:
    /// every node that can make progress still sub-steps at tick
    /// granularity, and relaunch/auto-sleep processing runs every tick.
    /// The only batching is for *quiet* nodes — failed, asleep or empty
    /// ones whose per-tick work reduces to a constant sample and a fixed
    /// power draw; `quiet[i]` marks them and their side effects are
    /// replayed in closed form after the loop. Pass an empty slice to
    /// disable batching (e.g. while fault injection can flip node state
    /// mid-span).
    ///
    /// After each executed tick, `on_tick(&cluster, activity)` runs with
    /// `activity` true when that tick changed pod state (completions,
    /// crashes, requeues — anything that appends events); returning
    /// `false` stops the span early, to halt on the exact tick the cluster
    /// drains. Returns the number of ticks executed.
    ///
    /// No program path calls this since the event loop skips idle nodes
    /// through [`Cluster::step_active`]; the benchmark's copy of the loop
    /// (`perfbench/`) still does, and the change to the benchmark that
    /// deletes that copy deletes the quiet mask with it.
    pub fn step_span(
        &mut self,
        dt: SimDuration,
        k: u64,
        quiet: &[bool],
        mut on_tick: impl FnMut(&Cluster, bool) -> bool,
    ) -> u64 {
        let batching = !quiet.is_empty();
        assert!(!batching || quiet.len() == self.nodes.len(), "quiet mask length mismatch");
        self.settle_idle();
        let start = self.now;
        let mut executed = 0;
        while executed < k {
            let events_before = self.events.len();
            self.tick_once(dt, if batching { Skip::Mask(quiet) } else { Skip::Nothing });
            executed += 1;
            let activity = self.events.len() > events_before;
            if !on_tick(self, activity) {
                break;
            }
        }
        if batching && executed > 0 {
            for (i, &q) in quiet.iter().enumerate() {
                if q {
                    self.nodes[i].finish_quiet_span(start, dt, executed);
                }
            }
        }
        executed
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (durable control plane; see crates/recovery).
    // ------------------------------------------------------------------

    /// Clone every dynamic field into a serializable [`ClusterState`].
    /// Read-only: taking a snapshot must never perturb the simulation.
    /// Settle skipped idle nodes first ([`Cluster::settle_idle`]).
    pub fn snapshot_state(&self) -> ClusterState {
        debug_assert!(
            self.pace.iter().all(|p| p.settled >= self.now),
            "snapshot of a cluster whose idle nodes owe ticks"
        );
        let kv = |m: &BTreeMap<PodId, Pod>| m.iter().map(|(k, v)| (*k, v.clone())).collect();
        ClusterState {
            now: self.now,
            next_pod: self.next_pod,
            queue: self.queue.iter().copied().collect(),
            pending: kv(&self.pending),
            suspended: kv(&self.suspended),
            relaunching: self
                .relaunching
                .iter()
                .map(|(&(at, seq), (id, p))| (at, seq, *id, p.clone()))
                .collect(),
            relaunch_seq: self.relaunch_seq,
            completed: kv(&self.completed),
            failed: kv(&self.failed),
            events: self.events.clone(),
            sleep_scan_due: self.sleep_scan_due,
            nodes: self.nodes.clone(),
        }
    }

    /// Rebuild a cluster from a snapshot plus the same configuration it was
    /// originally built with (config is a static input and does not travel
    /// through snapshots). The `location` index is reconstructed from the
    /// state maps.
    pub fn from_state(cfg: ClusterConfig, state: ClusterState) -> Self {
        let mut location = BTreeMap::new();
        for id in state.pending.iter().map(|(id, _)| *id) {
            location.insert(id, Loc::Pending);
        }
        for id in state.suspended.iter().map(|(id, _)| *id) {
            location.insert(id, Loc::Suspended);
        }
        for id in state.relaunching.iter().map(|(_, _, id, _)| *id) {
            location.insert(id, Loc::Relaunching);
        }
        for id in state.completed.iter().map(|(id, _)| *id) {
            location.insert(id, Loc::Completed);
        }
        for id in state.failed.iter().map(|(id, _)| *id) {
            location.insert(id, Loc::Failed);
        }
        for node in &state.nodes {
            for (id, _) in node.residents() {
                location.insert(id, Loc::OnNode(node.id()));
            }
        }
        let active = (0..state.nodes.len()).filter(|&i| hosts_work(&state.nodes[i])).collect();
        let pace = Pace { settled: state.now, touched: state.now };
        Cluster {
            cfg,
            active,
            stepped: Vec::new(),
            pace: vec![pace; state.nodes.len()],
            lazy_dt: SimDuration::ZERO,
            idle_spans: Vec::new(),
            nodes: state.nodes,
            now: state.now,
            next_pod: state.next_pod,
            queue: state.queue.into_iter().collect(),
            pending: state.pending.into_iter().collect(),
            suspended: state.suspended.into_iter().collect(),
            relaunching: state
                .relaunching
                .into_iter()
                .map(|(at, seq, id, p)| ((at, seq), (id, p)))
                .collect(),
            relaunch_seq: state.relaunch_seq,
            completed: state.completed.into_iter().collect(),
            failed: state.failed.into_iter().collect(),
            location,
            events: state.events,
            sleep_scan_due: state.sleep_scan_due,
        }
    }
}

// ----------------------------------------------------------------------
// Single-partition stand-ins. The benchmark's copy of the event loop
// (`perfbench/`) still names these; no program path calls them. The
// change to the benchmark that deletes that copy deletes them with it.
// ----------------------------------------------------------------------

/// Zero-sized stand-in for the deleted shard layout: a cluster is one
/// partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLayout;

impl Cluster {
    /// Always `1`: a cluster is one partition.
    pub fn shards(&self) -> usize {
        1
    }

    /// Always `1`: nodes step serially in node order; a per-tick fan-out
    /// measured slower than the serial loop at every cluster size
    /// (DESIGN.md §11).
    pub fn workers(&self) -> usize {
        1
    }

    /// The single-partition layout.
    pub fn shard_layout(&self) -> ShardLayout {
        ShardLayout
    }
}

/// Serializable image of a [`Cluster`]'s dynamic state.
///
/// Configuration is deliberately absent: a restore re-provisions the same
/// `ClusterConfig` and only evolving state travels through the snapshot.
/// Map- and deque-shaped fields are flattened to sorted vectors (the serde
/// shim round-trips Vec/tuple/Option shapes but not keyed maps or
/// `VecDeque`), and the `location` index is not stored at all — it is
/// rebuilt from the maps it mirrors.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ClusterState {
    /// Simulation clock at capture.
    pub now: SimTime,
    /// Next pod id to allocate.
    pub next_pod: u64,
    /// Pending queue, front first.
    pub queue: Vec<PodId>,
    /// Pending pods in id order.
    pub pending: Vec<(PodId, Pod)>,
    /// Suspended pods in id order.
    pub suspended: Vec<(PodId, Pod)>,
    /// Relaunch backlog as `(due, seq, id, pod)`, key order.
    pub relaunching: Vec<(SimTime, u64, PodId, Pod)>,
    /// Monotonic relaunch insertion sequence.
    pub relaunch_seq: u64,
    /// Completed pods in id order.
    pub completed: Vec<(PodId, Pod)>,
    /// Crash-loop-abandoned pods in id order.
    pub failed: Vec<(PodId, Pod)>,
    /// Full event log (report accounting and GC/trace cursors index it).
    pub events: Vec<Event>,
    /// Cached auto-sleep scan deadline.
    pub sleep_scan_due: Option<SimTime>,
    /// Every node, including residents, energy meters and image caches.
    pub nodes: Vec<Node>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CrashReason;
    use crate::profile::ResourceProfile;

    fn spec(sm: f64, mem: f64, work: f64) -> PodSpec {
        PodSpec::batch("t", ResourceProfile::constant(sm, mem, work))
    }

    fn quiet_cfg(n: usize) -> ClusterConfig {
        let mut c = ClusterConfig::homogeneous(n, GpuModel::P100);
        c.overheads.cold_start_pull = SimDuration::ZERO;
        c
    }

    #[test]
    fn submit_place_run_complete() {
        let mut c = Cluster::new(quiet_cfg(2));
        let id = c.submit(spec(0.5, 1000.0, 0.5), SimTime::ZERO);
        assert_eq!(c.pending_len(), 1);
        c.place(id, NodeId(1)).unwrap();
        assert_eq!(c.pending_len(), 0);
        for _ in 0..60 {
            c.step(SimDuration::from_millis(10));
        }
        assert!(c.pod(id).unwrap().state().is_completed());
        assert!(c.is_drained());
        assert_eq!(c.completed_len(), 1);
        let kinds: Vec<_> = c.events().iter().map(|e| e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, EventKind::Submitted)));
        assert!(kinds.iter().any(|k| matches!(k, EventKind::Placed { .. })));
        assert!(kinds.iter().any(|k| matches!(k, EventKind::Completed { .. })));
    }

    #[test]
    fn cold_start_emits_started_later() {
        let mut cfg = quiet_cfg(1);
        cfg.overheads.cold_start_pull = SimDuration::from_secs(1);
        let mut c = Cluster::new(cfg);
        let id = c.submit(spec(0.5, 100.0, 0.1), SimTime::ZERO);
        c.place(id, NodeId(0)).unwrap();
        // No Started event yet.
        assert!(!c.events().iter().any(|e| matches!(e.kind, EventKind::Started { .. })));
        for _ in 0..12 {
            c.step(SimDuration::from_millis(100));
        }
        assert!(c.events().iter().any(|e| matches!(e.kind, EventKind::Started { .. })));
    }

    #[test]
    fn place_rejects_bad_targets() {
        let mut c = Cluster::new(quiet_cfg(1));
        let id = c.submit(spec(0.5, 100.0, 1.0), SimTime::ZERO);
        assert!(matches!(c.place(id, NodeId(9)), Err(SimError::UnknownNode(_))));
        let big = c.submit(spec(0.5, 100.0, 1.0).with_request_mb(20_000.0), SimTime::ZERO);
        assert!(matches!(c.place(big, NodeId(0)), Err(SimError::ExceedsDevice { .. })));
        c.place(id, NodeId(0)).unwrap();
        assert!(matches!(c.place(id, NodeId(0)), Err(SimError::InvalidState { .. })));
    }

    #[test]
    fn crash_relaunch_requeues_at_tail() {
        let mut cfg = quiet_cfg(1);
        cfg.overheads.relaunch_delay = SimDuration::from_millis(50);
        let mut c = Cluster::new(cfg);
        let a = c.submit(spec(0.2, 10_000.0, 5.0), SimTime::ZERO);
        let b = c.submit(spec(0.2, 10_000.0, 5.0), SimTime::ZERO);
        c.place(a, NodeId(0)).unwrap();
        c.place(b, NodeId(0)).unwrap();
        c.step(SimDuration::from_millis(10));
        let crashed: Vec<_> = c
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Crashed { reason: CrashReason::MemoryCapacityViolation, .. }
                )
            })
            .collect();
        assert_eq!(crashed.len(), 1);
        // After the relaunch delay the pod is pending again.
        for _ in 0..6 {
            c.step(SimDuration::from_millis(10));
        }
        assert_eq!(c.pending_len(), 1);
        let requeued = c.pending_queue().next().unwrap();
        assert_eq!(c.pod(requeued).unwrap().crashes(), 1);
    }

    #[test]
    fn resize_pending_and_resident() {
        let mut c = Cluster::new(quiet_cfg(1));
        let id = c.submit(spec(0.2, 1000.0, 5.0).with_request_mb(8000.0), SimTime::ZERO);
        c.resize(id, 2000.0).unwrap();
        assert_eq!(c.pod(id).unwrap().limit_mb(), 2000.0);
        c.place(id, NodeId(0)).unwrap();
        c.resize(id, 1500.0).unwrap();
        assert_eq!(c.pod(id).unwrap().limit_mb(), 1500.0);
        assert!(matches!(c.resize(id, f64::NAN), Err(SimError::InvalidResize { .. })));
        assert_eq!(
            c.events().iter().filter(|e| matches!(e.kind, EventKind::Resized { .. })).count(),
            2
        );
    }

    #[test]
    fn preempt_and_resume() {
        let mut cfg = quiet_cfg(2);
        cfg.overheads.resume_overhead = SimDuration::from_millis(100);
        let mut c = Cluster::new(cfg);
        let id = c.submit(spec(0.5, 1000.0, 1.0), SimTime::ZERO);
        c.place(id, NodeId(0)).unwrap();
        for _ in 0..20 {
            c.step(SimDuration::from_millis(10));
        }
        let progress_before = c.pod(id).unwrap().progress();
        assert!(progress_before > 0.0);
        c.preempt(id).unwrap();
        assert_eq!(c.node(NodeId(0)).unwrap().resident_count(), 0);
        assert!(c.suspended_pods().any(|p| p == id));
        c.resume(id, NodeId(1)).unwrap();
        // During the resume overhead no progress happens.
        c.step(SimDuration::from_millis(50));
        assert!((c.pod(id).unwrap().progress() - progress_before).abs() < 1e-9);
        for _ in 0..120 {
            c.step(SimDuration::from_millis(10));
        }
        assert!(c.pod(id).unwrap().state().is_completed());
        assert_eq!(c.pod(id).unwrap().preemptions(), 1);
    }

    #[test]
    fn migrate_retains_progress_and_counts() {
        let mut c = Cluster::new(quiet_cfg(2));
        let id = c.submit(spec(0.5, 1000.0, 2.0), SimTime::ZERO);
        c.place(id, NodeId(0)).unwrap();
        for _ in 0..50 {
            c.step(SimDuration::from_millis(10));
        }
        let before = c.pod(id).unwrap().progress();
        c.migrate(id, NodeId(1)).unwrap();
        assert_eq!(c.pod(id).unwrap().node(), Some(NodeId(1)));
        assert!((c.pod(id).unwrap().progress() - before).abs() < 1e-9);
        assert_eq!(c.pod(id).unwrap().migrations(), 1);
        // Self-migration is a no-op.
        c.migrate(id, NodeId(1)).unwrap();
        assert_eq!(c.pod(id).unwrap().migrations(), 1);
    }

    #[test]
    fn sleep_wake_cycle() {
        let mut c = Cluster::new(quiet_cfg(2));
        c.sleep_node(NodeId(1)).unwrap();
        assert!(c.node(NodeId(1)).unwrap().gpu().is_asleep());
        let id = c.submit(spec(0.5, 100.0, 1.0), SimTime::ZERO);
        assert!(matches!(c.place(id, NodeId(1)), Err(SimError::NodeAsleep(_))));
        c.wake_node(NodeId(1)).unwrap();
        c.place(id, NodeId(1)).unwrap();
        // Can't sleep a node with residents.
        assert!(c.sleep_node(NodeId(1)).is_err());
    }

    #[test]
    fn auto_sleep_after_idle() {
        let mut cfg = quiet_cfg(2);
        cfg.auto_sleep_after = Some(SimDuration::from_millis(100));
        let mut c = Cluster::new(cfg);
        for _ in 0..3 {
            c.step(SimDuration::from_millis(50));
        }
        assert!(c.node(NodeId(0)).unwrap().gpu().is_asleep());
        assert!(c.node(NodeId(1)).unwrap().gpu().is_asleep());
        assert!(
            c.events().iter().filter(|e| matches!(e.kind, EventKind::NodeSlept { .. })).count()
                >= 2
        );
    }

    #[test]
    fn empty_nodes_draw_deep_sleep_power() {
        // Hardware-automatic p-states: a node with no resident context
        // draws sleep power without any explicit action, so consolidating
        // pods onto fewer nodes saves energy by itself.
        let mut busy = Cluster::new(quiet_cfg(1));
        let id = busy.submit(spec(0.0, 100.0, 3600.0), SimTime::ZERO);
        busy.place(id, NodeId(0)).unwrap();
        let mut empty = Cluster::new(quiet_cfg(1));
        for _ in 0..100 {
            busy.step(SimDuration::from_millis(100));
            empty.step(SimDuration::from_millis(100));
        }
        // Busy node draws >= idle power (25 W); empty node ~9 W.
        assert!(empty.total_energy_joules() < busy.total_energy_joules() * 0.5);
        let sleep_w = GpuModel::P100.spec().sleep_watts;
        let expected = sleep_w * 10.0; // 10 s
        assert!((empty.total_energy_joules() - expected).abs() < 1e-6);
    }

    #[test]
    fn configure_growth_only_while_pending() {
        let mut c = Cluster::new(quiet_cfg(1));
        let id = c.submit(spec(0.3, 500.0, 1.0).with_greedy_memory(true), SimTime::ZERO);
        c.configure_growth(id, true).unwrap();
        assert!(c.pod(id).unwrap().spec().allow_growth);
        c.place(id, NodeId(0)).unwrap();
        assert!(c.configure_growth(id, false).is_err());
        // The earmark was suppressed: measured usage tracks the profile.
        c.step(SimDuration::from_millis(10));
        assert!((c.node(NodeId(0)).unwrap().last_sample().mem_used_mb - 500.0).abs() < 1.0);
    }

    #[test]
    fn node_failure_crashes_residents_and_blocks_placement() {
        let mut cfg = quiet_cfg(2);
        cfg.overheads.relaunch_delay = SimDuration::from_millis(50);
        let mut c = Cluster::new(cfg);
        let a = c.submit(spec(0.5, 1000.0, 10.0), SimTime::ZERO);
        c.place(a, NodeId(0)).unwrap();
        c.step(SimDuration::from_millis(10));
        let victims = c.fail_node(NodeId(0)).unwrap();
        assert_eq!(victims, vec![a]);
        assert!(c.node(NodeId(0)).unwrap().is_failed());
        assert!(c.events().iter().any(|e| matches!(e.kind, EventKind::NodeFailed { .. })));
        assert!(c.events().iter().any(|e| matches!(
            e.kind,
            EventKind::Crashed { reason: CrashReason::NodeFailure, .. }
        )));
        // The dead node reports a zero sample and rejects placement.
        c.step(SimDuration::from_millis(10));
        assert_eq!(c.node(NodeId(0)).unwrap().last_sample().power_watts, 0.0);
        for _ in 0..6 {
            c.step(SimDuration::from_millis(10));
        }
        assert_eq!(c.pending_len(), 1);
        assert_eq!(c.pod(a).unwrap().crashes(), 1);
        assert!(matches!(c.place(a, NodeId(0)), Err(SimError::NodeFailed(_))));
        // Re-failing is a no-op; recovery makes the node placeable again.
        assert!(c.fail_node(NodeId(0)).unwrap().is_empty());
        c.recover_node(NodeId(0)).unwrap();
        assert!(c.events().iter().any(|e| matches!(e.kind, EventKind::NodeRecovered { .. })));
        c.place(a, NodeId(0)).unwrap();
    }

    #[test]
    fn relaunch_backoff_doubles_between_crashes() {
        let mut cfg = quiet_cfg(2);
        cfg.overheads.relaunch_delay = SimDuration::from_millis(40);
        cfg.overheads.relaunch_backoff = 2.0;
        let mut c = Cluster::new(cfg);
        let id = c.submit(spec(0.5, 1000.0, 100.0), SimTime::ZERO);

        c.place(id, NodeId(0)).unwrap();
        c.fail_node(NodeId(0)).unwrap();
        let crash1 = c.now();
        while c.pending_len() == 0 {
            c.step(SimDuration::from_millis(10));
        }
        assert_eq!(c.now().saturating_since(crash1), SimDuration::from_millis(40));

        c.place(id, NodeId(1)).unwrap();
        c.fail_node(NodeId(1)).unwrap();
        let crash2 = c.now();
        while c.pending_len() == 0 {
            c.step(SimDuration::from_millis(10));
        }
        assert_eq!(c.now().saturating_since(crash2), SimDuration::from_millis(80));
    }

    #[test]
    fn crash_loop_cap_abandons_pod() {
        let mut cfg = quiet_cfg(1);
        cfg.overheads.relaunch_delay = SimDuration::from_millis(20);
        cfg.overheads.crash_loop_cap = 3;
        let mut c = Cluster::new(cfg);
        // Two pods whose combined footprint overflows the device: every
        // co-residency produces a capacity-violation crash.
        let a = c.submit(spec(0.2, 10_000.0, 50.0), SimTime::ZERO);
        let b = c.submit(spec(0.2, 10_000.0, 50.0), SimTime::ZERO);
        while c.failed_len() == 0 && c.now() < SimTime::from_secs(10) {
            let pending: Vec<_> = c.pending_queue().collect();
            for id in pending {
                let _ = c.place(id, NodeId(0));
            }
            c.step(SimDuration::from_millis(10));
        }
        assert_eq!(c.failed_len(), 1);
        let (victim, p) = c.failed_pods().next().unwrap();
        assert!(victim == a || victim == b);
        assert!(p.state().is_failed());
        assert_eq!(p.crashes(), 3);
        assert!(p.node().is_none());
        assert!(c.events().iter().any(|e| matches!(e.kind, EventKind::GaveUp { crashes: 3, .. })));
        // The abandoned pod is terminal: never requeued, lookup still works.
        assert!(c.pod(victim).unwrap().state().is_failed());
        assert!(c.pending_queue().all(|q| q != victim));
    }

    #[test]
    fn degrade_emits_event_and_tightens_capacity() {
        let mut c = Cluster::new(quiet_cfg(1));
        c.degrade_node(NodeId(0), 0.5).unwrap();
        assert!(c.events().iter().any(
            |e| matches!(e.kind, EventKind::GpuDegraded { capacity_mb, .. } if capacity_mb == 8192.0)
        ));
        let id = c.submit(spec(0.2, 100.0, 1.0).with_request_mb(10_000.0), SimTime::ZERO);
        assert!(matches!(c.place(id, NodeId(0)), Err(SimError::ExceedsDevice { .. })));
        // Restoring health re-admits the pod.
        c.degrade_node(NodeId(0), 0.0).unwrap();
        c.place(id, NodeId(0)).unwrap();
    }
}
