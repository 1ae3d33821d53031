//! Pods (containers) and their lifecycle.
//!
//! The paper uses Google's *pod* and *container* interchangeably (§I,
//! footnote 1); so do we. A pod carries a [`ResourceProfile`] describing how
//! its demand evolves as it executes, a user-stated memory *request* (which,
//! per the Alibaba analysis in §II-B, routinely overstates real usage), and a
//! current *provision* (`limit_mb`) that Kube-Knots may shrink ("harvest")
//! or grow at runtime.

use crate::ids::{ImageId, NodeId};
use crate::profile::ResourceProfile;
use crate::resources::Usage;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Scheduling class of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QosClass {
    /// A user-facing query with an end-to-end latency deadline. The paper
    /// uses the canonical 150 ms "tail at scale" threshold (§VI-B).
    LatencyCritical {
        /// End-to-end deadline measured from arrival to completion.
        deadline: SimDuration,
    },
    /// A throughput-oriented batch job (HPC kernel, DNN training, ...).
    Batch,
}

impl QosClass {
    /// The default latency-critical class with the paper's 150 ms deadline.
    pub fn latency_critical() -> Self {
        QosClass::LatencyCritical { deadline: SimDuration::from_millis(150) }
    }

    /// True for latency-critical pods.
    pub fn is_latency_critical(self) -> bool {
        matches!(self, QosClass::LatencyCritical { .. })
    }
}

/// Immutable description of a pod handed to the orchestrator at submission.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PodSpec {
    /// Human-readable name (e.g. `"lud"`, `"face-inference"`).
    pub name: String,
    /// Container image; first use on a node pays a cold-start pull.
    pub image: ImageId,
    /// Scheduling class.
    pub qos: QosClass,
    /// Demand as a function of executed work.
    pub profile: ResourceProfile,
    /// User-stated GPU memory request in MB. Schedulers that are agnostic of
    /// real utilization (Uniform, Res-Ag) provision exactly this much.
    pub request_mb: f64,
    /// When true the pod's framework earmarks essentially the whole free GPU
    /// memory at startup regardless of need — TensorFlow's default behaviour
    /// (§II-C2, Fig. 4). Knots-aware schedulers disable this via
    /// `allow_growth`.
    pub greedy_memory: bool,
    /// Framework knob equivalent to TF's `allow_growth`: when set, the pod
    /// consumes only its profile's demand. Kube-Knots sets this when placing
    /// pods (§V-B); GPU-agnostic baselines leave the default.
    pub allow_growth: bool,
    /// Fraction of progress retained across a crash. HPC kernels restart
    /// from scratch (0.0, the default); DL training jobs checkpoint and
    /// lose only the work since the last checkpoint (e.g. 0.9).
    pub checkpoint_fraction: f64,
}

impl PodSpec {
    /// Create a batch pod with a request equal to its peak demand (the
    /// "provision for the worst case" default the paper criticizes).
    pub fn batch(name: impl Into<String>, profile: ResourceProfile) -> Self {
        let peak = profile.peak_demand().mem_mb;
        PodSpec {
            name: name.into(),
            image: ImageId(0),
            qos: QosClass::Batch,
            request_mb: peak,
            profile,
            greedy_memory: false,
            allow_growth: false,
            checkpoint_fraction: 0.0,
        }
    }

    /// Create a latency-critical pod (150 ms deadline) with a peak-demand request.
    pub fn latency_critical(name: impl Into<String>, profile: ResourceProfile) -> Self {
        let peak = profile.peak_demand().mem_mb;
        PodSpec {
            name: name.into(),
            image: ImageId(0),
            qos: QosClass::latency_critical(),
            request_mb: peak,
            profile,
            greedy_memory: false,
            allow_growth: false,
            checkpoint_fraction: 0.0,
        }
    }

    /// Mark the pod as checkpointing (DL training): a crash keeps this
    /// fraction of progress.
    pub fn with_checkpointing(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.checkpoint_fraction = fraction;
        self
    }

    /// Override the memory request.
    pub fn with_request_mb(mut self, mb: f64) -> Self {
        self.request_mb = mb;
        self
    }

    /// Override the image.
    pub fn with_image(mut self, image: ImageId) -> Self {
        self.image = image;
        self
    }

    /// Mark the pod as framework-greedy (TF default memory earmarking).
    pub fn with_greedy_memory(mut self, greedy: bool) -> Self {
        self.greedy_memory = greedy;
        self
    }

    /// Set the `allow_growth` knob.
    pub fn with_allow_growth(mut self, allow: bool) -> Self {
        self.allow_growth = allow;
        self
    }
}

/// Lifecycle state of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PodState {
    /// Waiting in the cluster-wide pending queue.
    Pending,
    /// Bound to a node, waiting for the container image pull to finish.
    Pulling {
        /// When the pull completes and execution starts.
        until: SimTime,
    },
    /// Executing on its node's GPU.
    Running,
    /// Preempted (suspend-and-resume schedulers); progress is retained, GPU
    /// memory is released, and resuming pays an overhead.
    Suspended,
    /// Crashed (memory capacity violation) and waiting out the relaunch
    /// latency before re-entering the pending queue (§IV-C).
    Relaunching {
        /// When the pod re-enters the pending queue.
        until: SimTime,
    },
    /// Finished all its work.
    Completed {
        /// Completion instant.
        at: SimTime,
    },
    /// Abandoned after hitting the crash-loop cap (CrashLoopBackOff): the
    /// pod will never be relaunched.
    Failed {
        /// Abandonment instant.
        at: SimTime,
    },
}

impl PodState {
    /// True for `Completed`.
    pub fn is_completed(self) -> bool {
        matches!(self, PodState::Completed { .. })
    }

    /// True for `Failed` (crash-loop abandonment).
    pub fn is_failed(self) -> bool {
        matches!(self, PodState::Failed { .. })
    }

    /// True when the pod will never run again.
    pub fn is_terminal(self) -> bool {
        self.is_completed() || self.is_failed()
    }

    /// True while the pod occupies GPU memory on a node (pulling counts: the
    /// provision is reserved as soon as the pod is bound).
    pub fn holds_gpu(self) -> bool {
        matches!(self, PodState::Pulling { .. } | PodState::Running)
    }
}

/// A pod's full runtime record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pod {
    spec: PodSpec,
    state: PodState,
    node: Option<NodeId>,
    /// Current memory provision in MB (starts at `request_mb`; resized by
    /// harvesting schedulers).
    limit_mb: f64,
    /// Executed work in seconds-at-full-speed.
    progress: f64,
    /// Cumulative GPU service received, in seconds weighted by granted SM
    /// share — the "attained service" used by Tiresias' LAS policy.
    attained_service: f64,
    arrival: SimTime,
    first_placed: Option<SimTime>,
    started: Option<SimTime>,
    completed: Option<SimTime>,
    crashes: u32,
    preemptions: u32,
    migrations: u32,
    /// Memory earmarked at start by a greedy framework (TF default): the pod
    /// holds this much regardless of need, and crashes if its real demand
    /// ever exceeds it. `None` for well-behaved (`allow_growth`) pods.
    earmark_mb: Option<f64>,
    /// Usage measured by the node on the most recent tick.
    last_usage: Usage,
    /// Usage measured on the tick before that (for growth detection).
    prev_usage: Usage,
}

impl Pod {
    /// Create a pod in the pending state.
    pub fn new(spec: PodSpec, arrival: SimTime) -> Self {
        let limit = spec.request_mb;
        Pod {
            spec,
            state: PodState::Pending,
            node: None,
            limit_mb: limit,
            progress: 0.0,
            attained_service: 0.0,
            arrival,
            first_placed: None,
            started: None,
            completed: None,
            crashes: 0,
            preemptions: 0,
            migrations: 0,
            earmark_mb: None,
            last_usage: Usage::ZERO,
            prev_usage: Usage::ZERO,
        }
    }

    /// The immutable spec.
    pub fn spec(&self) -> &PodSpec {
        &self.spec
    }

    /// Current lifecycle state.
    pub fn state(&self) -> PodState {
        self.state
    }

    /// The node this pod is currently bound to, if any.
    pub fn node(&self) -> Option<NodeId> {
        self.node
    }

    /// Current memory provision in MB.
    pub fn limit_mb(&self) -> f64 {
        self.limit_mb
    }

    /// Executed work, in seconds-at-full-speed.
    pub fn progress(&self) -> f64 {
        self.progress
    }

    /// Remaining work at full speed.
    pub fn remaining_work(&self) -> f64 {
        (self.spec.profile.total_work() - self.progress).max(0.0)
    }

    /// Attained GPU service in SM-share-weighted seconds (for LAS).
    pub fn attained_service(&self) -> f64 {
        self.attained_service
    }

    /// Submission time.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// First time the pod was bound to a node, if ever.
    pub fn first_placed(&self) -> Option<SimTime> {
        self.first_placed
    }

    /// Time execution first started, if ever.
    pub fn started(&self) -> Option<SimTime> {
        self.started
    }

    /// Completion time, if completed.
    pub fn completed(&self) -> Option<SimTime> {
        self.completed
    }

    /// Number of crashes suffered (capacity violations and node failures).
    pub fn crashes(&self) -> u32 {
        self.crashes
    }

    /// Number of preemptions suffered.
    pub fn preemptions(&self) -> u32 {
        self.preemptions
    }

    /// Number of migrations performed.
    pub fn migrations(&self) -> u32 {
        self.migrations
    }

    /// End-to-end latency (completion − arrival), if completed.
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.completed.map(|c| c.saturating_since(self.arrival))
    }

    /// Whether a completed latency-critical pod met its deadline. `None` for
    /// batch pods or pods that have not completed.
    pub fn met_deadline(&self) -> Option<bool> {
        match (self.spec.qos, self.turnaround()) {
            (QosClass::LatencyCritical { deadline }, Some(t)) => Some(t <= deadline),
            _ => None,
        }
    }

    /// The pod's demand vector at its current progress.
    pub fn current_demand(&self) -> Usage {
        self.spec.profile.demand_at(self.progress)
    }

    /// Memory earmarked by a greedy framework at startup, if any.
    pub fn earmark_mb(&self) -> Option<f64> {
        self.earmark_mb
    }

    /// Usage measured on the most recent simulation tick.
    pub fn last_usage(&self) -> Usage {
        self.last_usage
    }

    /// Whether the pod's measured memory grew on the most recent tick.
    pub fn memory_grew(&self) -> bool {
        self.last_usage.mem_mb > self.prev_usage.mem_mb + 1e-9
    }

    // ------------------------------------------------------------------
    // State transitions. These are crate-internal: the `Cluster` is the only
    // entity allowed to drive the lifecycle.
    // ------------------------------------------------------------------

    pub(crate) fn bind(&mut self, node: NodeId, now: SimTime, pull_until: Option<SimTime>) {
        debug_assert!(matches!(self.state, PodState::Pending));
        self.node = Some(node);
        if self.first_placed.is_none() {
            self.first_placed = Some(now);
        }
        match pull_until {
            Some(until) if until > now => self.state = PodState::Pulling { until },
            _ => {
                self.state = PodState::Running;
                if self.started.is_none() {
                    self.started = Some(now);
                }
            }
        }
    }

    pub(crate) fn finish_pull(&mut self, now: SimTime) {
        debug_assert!(matches!(self.state, PodState::Pulling { .. }));
        self.state = PodState::Running;
        if self.started.is_none() {
            self.started = Some(now);
        }
    }

    pub(crate) fn advance(&mut self, work_done: f64, service: f64) {
        debug_assert!(matches!(self.state, PodState::Running));
        self.progress += work_done;
        self.attained_service += service;
    }

    pub(crate) fn complete(&mut self, now: SimTime) {
        self.state = PodState::Completed { at: now };
        self.completed = Some(now);
        self.node = None;
    }

    pub(crate) fn crash(&mut self, relaunch_at: SimTime) {
        self.crashes += 1;
        // A crashed container restarts from scratch unless the application
        // checkpoints (DL training does): it then resumes from the last
        // checkpoint.
        self.progress *= self.spec.checkpoint_fraction;
        self.state = PodState::Relaunching { until: relaunch_at };
        self.node = None;
    }

    pub(crate) fn reenqueue(&mut self) {
        debug_assert!(matches!(self.state, PodState::Relaunching { .. }));
        self.state = PodState::Pending;
    }

    /// Abandon the pod after its final crash (crash-loop cap reached).
    pub(crate) fn fail(&mut self, now: SimTime) {
        self.state = PodState::Failed { at: now };
        self.node = None;
    }

    pub(crate) fn suspend(&mut self) {
        debug_assert!(matches!(self.state, PodState::Running | PodState::Pulling { .. }));
        self.preemptions += 1;
        self.state = PodState::Suspended;
    }

    pub(crate) fn resume(&mut self, now: SimTime, resume_until: Option<SimTime>) {
        debug_assert!(matches!(self.state, PodState::Suspended));
        match resume_until {
            Some(until) if until > now => self.state = PodState::Pulling { until },
            _ => self.state = PodState::Running,
        }
    }

    pub(crate) fn record_migration(&mut self) {
        self.migrations += 1;
    }

    pub(crate) fn set_node(&mut self, node: Option<NodeId>) {
        self.node = node;
    }

    pub(crate) fn set_limit_mb(&mut self, mb: f64) {
        debug_assert!(mb.is_finite() && mb >= 0.0);
        self.limit_mb = mb;
    }

    pub(crate) fn set_earmark_mb(&mut self, mb: Option<f64>) {
        self.earmark_mb = mb;
    }

    pub(crate) fn set_allow_growth(&mut self, allow: bool) {
        self.spec.allow_growth = allow;
    }

    pub(crate) fn record_usage(&mut self, usage: Usage) {
        self.prev_usage = self.last_usage;
        self.last_usage = usage;
    }

    pub(crate) fn clear_runtime_memory(&mut self) {
        self.earmark_mb = None;
        self.last_usage = Usage::ZERO;
        self.prev_usage = Usage::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ResourceProfile;

    fn spec() -> PodSpec {
        PodSpec::batch("t", ResourceProfile::constant(0.5, 1000.0, 4.0))
    }

    #[test]
    fn new_pod_is_pending_with_request_limit() {
        let p = Pod::new(spec().with_request_mb(2000.0), SimTime::ZERO);
        assert_eq!(p.state(), PodState::Pending);
        assert_eq!(p.limit_mb(), 2000.0);
        assert_eq!(p.node(), None);
    }

    #[test]
    fn batch_spec_requests_peak() {
        let s = spec();
        assert_eq!(s.request_mb, 1000.0);
        assert!(!s.qos.is_latency_critical());
    }

    #[test]
    fn bind_with_pull_then_run() {
        let mut p = Pod::new(spec(), SimTime::ZERO);
        let now = SimTime::from_secs(1);
        p.bind(NodeId(3), now, Some(SimTime::from_secs(3)));
        assert!(matches!(p.state(), PodState::Pulling { .. }));
        assert!(p.state().holds_gpu());
        assert_eq!(p.node(), Some(NodeId(3)));
        assert_eq!(p.first_placed(), Some(now));
        assert_eq!(p.started(), None);
        p.finish_pull(SimTime::from_secs(3));
        assert_eq!(p.state(), PodState::Running);
        assert_eq!(p.started(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn bind_without_pull_starts_immediately() {
        let mut p = Pod::new(spec(), SimTime::ZERO);
        p.bind(NodeId(0), SimTime::from_millis(5), None);
        assert_eq!(p.state(), PodState::Running);
        assert_eq!(p.started(), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn progress_and_completion() {
        let mut p = Pod::new(spec(), SimTime::ZERO);
        p.bind(NodeId(0), SimTime::ZERO, None);
        p.advance(2.0, 1.0);
        assert!((p.remaining_work() - 2.0).abs() < 1e-12);
        assert!((p.attained_service() - 1.0).abs() < 1e-12);
        p.complete(SimTime::from_secs(5));
        assert!(p.state().is_completed());
        assert_eq!(p.turnaround(), Some(SimDuration::from_secs(5)));
        assert_eq!(p.node(), None);
    }

    #[test]
    fn crash_resets_progress_and_counts() {
        let mut p = Pod::new(spec(), SimTime::ZERO);
        p.bind(NodeId(0), SimTime::ZERO, None);
        p.advance(3.0, 3.0);
        p.crash(SimTime::from_secs(2));
        assert_eq!(p.crashes(), 1);
        assert_eq!(p.progress(), 0.0);
        assert!(matches!(p.state(), PodState::Relaunching { .. }));
        p.reenqueue();
        assert_eq!(p.state(), PodState::Pending);
    }

    #[test]
    fn deadline_check() {
        let lc = PodSpec::latency_critical("q", ResourceProfile::constant(0.2, 100.0, 0.05));
        let mut p = Pod::new(lc, SimTime::ZERO);
        p.bind(NodeId(0), SimTime::ZERO, None);
        p.complete(SimTime::from_millis(100));
        assert_eq!(p.met_deadline(), Some(true));

        let lc = PodSpec::latency_critical("q2", ResourceProfile::constant(0.2, 100.0, 0.05));
        let mut p = Pod::new(lc, SimTime::ZERO);
        p.bind(NodeId(0), SimTime::ZERO, None);
        p.complete(SimTime::from_millis(200));
        assert_eq!(p.met_deadline(), Some(false));
    }

    #[test]
    fn batch_pods_have_no_deadline_verdict() {
        let mut p = Pod::new(spec(), SimTime::ZERO);
        p.bind(NodeId(0), SimTime::ZERO, None);
        p.complete(SimTime::from_secs(1));
        assert_eq!(p.met_deadline(), None);
    }

    // Satellite invariant for the checkpoint-fraction path: across any
    // number of crash/relaunch cycles a pod never *gains* progress from a
    // crash and never ends up owing more work than it was submitted with.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 128,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn checkpointing_never_gains_progress_across_crashes(
            // Percent, so both endpoints (no checkpointing / full
            // checkpointing) are exercised.
            fraction_pct in 0u32..=100,
            total_work in 1.0f64..500.0,
            cycles in proptest::collection::vec(0.0f64..50.0, 1..16),
        ) {
            let fraction = f64::from(fraction_pct) / 100.0;
            let spec = PodSpec::batch(
                "ckpt",
                ResourceProfile::constant(0.5, 1000.0, total_work),
            )
            .with_checkpointing(fraction);
            let mut p = Pod::new(spec, SimTime::ZERO);
            let mut now = SimTime::ZERO;
            for (i, advance_by) in cycles.iter().enumerate() {
                p.bind(NodeId(0), now, None);
                // A node never advances a pod past its remaining work.
                p.advance(advance_by.min(p.remaining_work()), *advance_by);
                let before = p.progress();
                now += SimDuration::from_secs(1);
                p.crash(now + SimDuration::from_secs(4));
                let after = p.progress();
                proptest::prop_assert!(
                    after <= before + 1e-12,
                    "crash must not add progress: {before} -> {after}"
                );
                proptest::prop_assert!(after >= 0.0);
                proptest::prop_assert!(
                    p.remaining_work() <= total_work + 1e-12,
                    "remaining work {} exceeds original {total_work}",
                    p.remaining_work()
                );
                proptest::prop_assert_eq!(p.crashes(), (i + 1) as u32);
                p.reenqueue();
            }
        }
    }

    #[test]
    fn fail_is_terminal() {
        let mut p = Pod::new(spec(), SimTime::ZERO);
        p.bind(NodeId(0), SimTime::ZERO, None);
        p.crash(SimTime::from_secs(2));
        p.fail(SimTime::from_secs(2));
        assert!(p.state().is_failed());
        assert!(p.state().is_terminal());
        assert!(!p.state().holds_gpu());
        assert_eq!(p.node(), None);
    }

    #[test]
    fn suspend_resume_cycle() {
        let mut p = Pod::new(spec(), SimTime::ZERO);
        p.bind(NodeId(0), SimTime::ZERO, None);
        p.advance(1.0, 1.0);
        p.suspend();
        assert_eq!(p.preemptions(), 1);
        assert_eq!(p.state(), PodState::Suspended);
        assert!((p.progress() - 1.0).abs() < 1e-12, "suspend keeps progress");
        p.resume(SimTime::from_secs(1), None);
        assert_eq!(p.state(), PodState::Running);
    }
}
