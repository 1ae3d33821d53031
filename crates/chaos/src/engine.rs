//! The plan replayer: turns a [`FaultPlan`] into tick-by-tick effects.

use crate::plan::{CorruptionMode, FaultEvent, FaultKind, FaultPlan};
use knots_sim::ids::NodeId;
use knots_sim::metrics::GpuSample;
use knots_sim::time::SimTime;
use std::collections::BTreeMap;

/// A cluster-level action the orchestrator must perform now.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ChaosAction {
    /// Kill the node (resident pods crash with `CrashReason::NodeFailure`).
    FailNode(NodeId),
    /// Bring a previously failed node back.
    RecoverNode(NodeId),
    /// Reduce the node's GPU capacity by `frac`.
    DegradeNode {
        /// Target node.
        node: NodeId,
        /// Fraction of memory capacity lost.
        frac: f64,
    },
    /// Restore the node's GPU to full capacity.
    RestoreNode(NodeId),
    /// Postpone the aggregator's next heartbeat.
    DelayHeartbeat(knots_sim::time::SimDuration),
}

/// Running totals of injected faults, by kind. `corrupted_samples` counts
/// individual mangled probe readings (many per `SampleCorruption` window).
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultCounts {
    /// `NodeFail` events fired.
    pub node_failures: u64,
    /// `GpuDegrade` events fired.
    pub degradations: u64,
    /// `ProbeDropout` events fired.
    pub probe_dropouts: u64,
    /// `SampleCorruption` events fired.
    pub corruption_windows: u64,
    /// Individual samples mangled inside those windows.
    pub corrupted_samples: u64,
    /// `HeartbeatDelay` events fired.
    pub heartbeat_delays: u64,
    /// `ControllerCrash` events reached (counted only; the kill itself is
    /// performed by the recovery harness).
    pub controller_crashes: u64,
}

/// Replays a [`FaultPlan`] against simulation time.
///
/// Drive it with [`ChaosEngine::actions_due`] once per tick *before*
/// stepping the cluster, and interpose [`ChaosEngine::probe_dropped`] /
/// [`ChaosEngine::corrupt_sample`] on the telemetry probe. All state lives
/// in sorted structures and every decision is a pure function of the plan
/// and `now`, so replays are bit-identical across runs and thread counts.
#[derive(Debug)]
pub struct ChaosEngine {
    events: Vec<FaultEvent>,
    cursor: usize,
    /// Scheduled follow-ups (recoveries/restorations), in schedule order.
    deferred: Vec<(SimTime, ChaosAction)>,
    /// Active probe-dropout windows: node → end of window (exclusive).
    dropouts: BTreeMap<NodeId, SimTime>,
    /// Active corruption windows: node → (end, mode). A later window on the
    /// same node replaces the earlier one.
    corruptions: BTreeMap<NodeId, (SimTime, CorruptionMode)>,
    counts: FaultCounts,
}

impl ChaosEngine {
    /// Build an engine for one run of the given plan.
    pub fn new(plan: FaultPlan) -> Self {
        // `FaultPlan::from_events` sorts on construction, but a manually
        // assembled or deserialized plan may not be ordered — re-sorting an
        // already-sorted Vec is cheap and makes the invariant local.
        let plan = FaultPlan::from_events(plan.events);
        ChaosEngine {
            events: plan.events,
            cursor: 0,
            deferred: Vec::new(),
            dropouts: BTreeMap::new(),
            corruptions: BTreeMap::new(),
            counts: FaultCounts::default(),
        }
    }

    /// True when the plan schedules nothing at all. The orchestrator uses
    /// this to skip every chaos code path, keeping no-fault runs
    /// bit-identical to runs without a chaos engine.
    pub fn is_inert(&self) -> bool {
        self.events.is_empty()
    }

    /// Totals so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Collect every action due at or before `now`, in deterministic order:
    /// scheduled follow-ups first (they were caused by strictly earlier
    /// events), then newly due plan events in plan order. Also retires
    /// expired dropout/corruption windows.
    pub fn actions_due(&mut self, now: SimTime, out: &mut Vec<ChaosAction>) {
        out.clear();
        let mut i = 0;
        while i < self.deferred.len() {
            if self.deferred[i].0 <= now {
                out.push(self.deferred.remove(i).1);
            } else {
                i += 1;
            }
        }
        while self.cursor < self.events.len() && self.events[self.cursor].at <= now {
            let ev = self.events[self.cursor];
            self.cursor += 1;
            match ev.kind {
                FaultKind::NodeFail { node, recover_after } => {
                    self.counts.node_failures += 1;
                    out.push(ChaosAction::FailNode(node));
                    if let Some(d) = recover_after {
                        // Anchor on the scheduled time, not the (tick-late)
                        // processing time, so outage length is independent
                        // of the simulation tick.
                        self.deferred.push((ev.at + d, ChaosAction::RecoverNode(node)));
                    }
                }
                FaultKind::GpuDegrade { node, frac, duration } => {
                    self.counts.degradations += 1;
                    out.push(ChaosAction::DegradeNode { node, frac });
                    if let Some(d) = duration {
                        self.deferred.push((ev.at + d, ChaosAction::RestoreNode(node)));
                    }
                }
                FaultKind::ProbeDropout { node, duration } => {
                    self.counts.probe_dropouts += 1;
                    let until = ev.at + duration;
                    let e = self.dropouts.entry(node).or_insert(until);
                    if *e < until {
                        *e = until;
                    }
                }
                FaultKind::SampleCorruption { node, duration, mode } => {
                    self.counts.corruption_windows += 1;
                    self.corruptions.insert(node, (ev.at + duration, mode));
                }
                FaultKind::HeartbeatDelay { delay } => {
                    self.counts.heartbeat_delays += 1;
                    out.push(ChaosAction::DelayHeartbeat(delay));
                }
                FaultKind::ControllerCrash => {
                    // Counted, but no cluster action: the crash targets the
                    // controller process, not the cluster. The recovery
                    // harness reads the instants from the plan and performs
                    // kill/restore outside the simulation, so both the
                    // interrupted and the uninterrupted leg consume this
                    // event identically.
                    self.counts.controller_crashes += 1;
                }
            }
        }
        self.dropouts.retain(|_, until| *until > now);
        self.corruptions.retain(|_, (until, _)| *until > now);
    }

    /// Earliest future instant at which a new action can fire: the next
    /// unconsumed plan event (the list is sorted) or the nearest scheduled
    /// follow-up, whichever comes first. Active dropout/corruption windows
    /// don't appear here — probe interposition is a pure function of `now`
    /// and is evaluated on every tick regardless of how the orchestrator
    /// batches them. Feeds the orchestrator's event calendar; `None` means
    /// the plan is exhausted and chaos can never act again.
    pub fn next_due(&self) -> Option<SimTime> {
        let next_event = self.events.get(self.cursor).map(|e| e.at);
        let next_deferred = self.deferred.iter().map(|(t, _)| *t).min();
        match (next_event, next_deferred) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether the node's probe is inside a dropout window at `now`.
    pub fn probe_dropped(&self, node: NodeId, now: SimTime) -> bool {
        self.dropouts.get(&node).is_some_and(|until| now < *until)
    }

    /// Export the replay position for a control-plane snapshot (see
    /// crates/recovery). The plan itself is configuration and is re-supplied
    /// to [`ChaosEngine::from_state`] at restore.
    pub fn snapshot_state(&self) -> ChaosEngineState {
        ChaosEngineState {
            cursor: self.cursor as u64,
            deferred: self.deferred.clone(),
            dropouts: self.dropouts.iter().map(|(&n, &t)| (n, t)).collect(),
            corruptions: self.corruptions.iter().map(|(&n, &(t, m))| (n, t, m)).collect(),
            counts: self.counts,
        }
    }

    /// Rebuild an engine mid-replay from the plan plus an exported state.
    pub fn from_state(plan: FaultPlan, state: ChaosEngineState) -> Self {
        let plan = FaultPlan::from_events(plan.events);
        ChaosEngine {
            events: plan.events,
            cursor: state.cursor as usize,
            deferred: state.deferred,
            dropouts: state.dropouts.into_iter().collect(),
            corruptions: state.corruptions.into_iter().map(|(n, t, m)| (n, (t, m))).collect(),
            counts: state.counts,
        }
    }

    /// Apply any active corruption to a probe reading. Returns the sample to
    /// record; counts each mangled reading.
    pub fn corrupt_sample(&mut self, node: NodeId, now: SimTime, mut s: GpuSample) -> GpuSample {
        let Some((until, mode)) = self.corruptions.get(&node) else {
            return s;
        };
        if now >= *until {
            return s;
        }
        self.counts.corrupted_samples += 1;
        match *mode {
            CorruptionMode::Nan => s.sm_util = f64::NAN,
            CorruptionMode::Inf => s.mem_used_mb = f64::INFINITY,
            CorruptionMode::Spike { factor } => {
                s.sm_util *= factor;
                s.mem_used_mb *= factor;
                s.tx_mbps *= factor;
                s.rx_mbps *= factor;
            }
        }
        s
    }
}

/// Serializable replay position of a [`ChaosEngine`] (snapshot interchange;
/// see crates/recovery). Window maps are flattened to sorted vecs because
/// the serde shim deserializes sequences, not `BTreeMap`s.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ChaosEngineState {
    /// Index of the next unconsumed plan event.
    pub cursor: u64,
    /// Pending follow-up actions (recoveries/restorations), schedule order.
    pub deferred: Vec<(SimTime, ChaosAction)>,
    /// Active probe-dropout windows as `(node, end)`, sorted by node.
    pub dropouts: Vec<(NodeId, SimTime)>,
    /// Active corruption windows as `(node, end, mode)`, sorted by node.
    pub corruptions: Vec<(NodeId, SimTime, CorruptionMode)>,
    /// Totals so far.
    pub counts: FaultCounts,
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_sim::time::SimDuration;

    fn drain(engine: &mut ChaosEngine, now: SimTime) -> Vec<ChaosAction> {
        let mut out = Vec::new();
        engine.actions_due(now, &mut out);
        out
    }

    #[test]
    fn empty_plan_is_inert() {
        let mut e = ChaosEngine::new(FaultPlan::empty());
        assert!(e.is_inert());
        assert!(drain(&mut e, SimTime::from_secs(100)).is_empty());
        assert_eq!(e.counts(), FaultCounts::default());
    }

    #[test]
    fn fail_then_scheduled_recovery() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::NodeFail {
                node: NodeId(2),
                recover_after: Some(SimDuration::from_secs(3)),
            },
        }]);
        let mut e = ChaosEngine::new(plan);
        assert!(!e.is_inert());
        assert!(drain(&mut e, SimTime::from_millis(999)).is_empty());
        assert_eq!(drain(&mut e, SimTime::from_secs(1)), vec![ChaosAction::FailNode(NodeId(2))]);
        assert!(drain(&mut e, SimTime::from_secs(3)).is_empty());
        // Recovery anchors on the fault's scheduled time: 1 s + 3 s = 4 s.
        assert_eq!(drain(&mut e, SimTime::from_secs(4)), vec![ChaosAction::RecoverNode(NodeId(2))]);
        assert_eq!(e.counts().node_failures, 1);
    }

    #[test]
    fn degrade_restores_after_duration() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(2),
            kind: FaultKind::GpuDegrade {
                node: NodeId(0),
                frac: 0.5,
                duration: Some(SimDuration::from_secs(10)),
            },
        }]);
        let mut e = ChaosEngine::new(plan);
        assert_eq!(
            drain(&mut e, SimTime::from_secs(2)),
            vec![ChaosAction::DegradeNode { node: NodeId(0), frac: 0.5 }]
        );
        assert_eq!(
            drain(&mut e, SimTime::from_secs(12)),
            vec![ChaosAction::RestoreNode(NodeId(0))]
        );
    }

    #[test]
    fn dropout_window_opens_and_expires() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::ProbeDropout { node: NodeId(1), duration: SimDuration::from_secs(2) },
        }]);
        let mut e = ChaosEngine::new(plan);
        assert!(!e.probe_dropped(NodeId(1), SimTime::from_secs(1)));
        drain(&mut e, SimTime::from_secs(1));
        assert!(e.probe_dropped(NodeId(1), SimTime::from_secs(1)));
        assert!(e.probe_dropped(NodeId(1), SimTime::from_millis(2_999)));
        assert!(!e.probe_dropped(NodeId(1), SimTime::from_secs(3)), "window end is exclusive");
        assert!(!e.probe_dropped(NodeId(0), SimTime::from_secs(2)), "other nodes unaffected");
        // After the window the map entry is retired.
        drain(&mut e, SimTime::from_secs(5));
        assert!(!e.probe_dropped(NodeId(1), SimTime::from_secs(5)));
    }

    #[test]
    fn corruption_modes_mangle_samples() {
        let mk = |mode| {
            FaultPlan::from_events(vec![FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::SampleCorruption {
                    node: NodeId(0),
                    duration: SimDuration::from_secs(1),
                    mode,
                },
            }])
        };
        let sample = GpuSample {
            at: SimTime::from_millis(500),
            sm_util: 0.5,
            mem_used_mb: 1000.0,
            power_watts: 100.0,
            tx_mbps: 10.0,
            rx_mbps: 20.0,
        };

        let mut e = ChaosEngine::new(mk(CorruptionMode::Nan));
        drain(&mut e, SimTime::ZERO);
        let s = e.corrupt_sample(NodeId(0), SimTime::from_millis(500), sample);
        assert!(s.sm_util.is_nan());

        let mut e = ChaosEngine::new(mk(CorruptionMode::Inf));
        drain(&mut e, SimTime::ZERO);
        let s = e.corrupt_sample(NodeId(0), SimTime::from_millis(500), sample);
        assert!(s.mem_used_mb.is_infinite());

        let mut e = ChaosEngine::new(mk(CorruptionMode::Spike { factor: 3.0 }));
        drain(&mut e, SimTime::ZERO);
        let s = e.corrupt_sample(NodeId(0), SimTime::from_millis(500), sample);
        assert!((s.mem_used_mb - 3000.0).abs() < 1e-9);
        assert!((s.sm_util - 1.5).abs() < 1e-12);
        // Outside the window and on other nodes the sample passes through.
        let s = e.corrupt_sample(NodeId(0), SimTime::from_secs(2), sample);
        assert_eq!(s, sample);
        let s = e.corrupt_sample(NodeId(1), SimTime::from_millis(500), sample);
        assert_eq!(s, sample);
        assert_eq!(e.counts().corrupted_samples, 1);
    }

    #[test]
    fn heartbeat_delay_is_surfaced_once() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::HeartbeatDelay { delay: SimDuration::from_millis(200) },
        }]);
        let mut e = ChaosEngine::new(plan);
        assert_eq!(
            drain(&mut e, SimTime::from_secs(1)),
            vec![ChaosAction::DelayHeartbeat(SimDuration::from_millis(200))]
        );
        assert!(drain(&mut e, SimTime::from_secs(2)).is_empty());
        assert_eq!(e.counts(), FaultCounts { heartbeat_delays: 1, ..Default::default() });
    }

    #[test]
    fn generated_plan_replays_identically() {
        let cfg = crate::gen::GenConfig {
            seed: 42,
            nodes: 10,
            duration: SimDuration::from_secs(120),
            faults_per_minute: 10.0,
        };
        let run = |cfg: &crate::gen::GenConfig| {
            let mut e = ChaosEngine::new(crate::gen::generate(cfg));
            let mut log = Vec::new();
            let mut out = Vec::new();
            let mut now = SimTime::ZERO;
            while now <= SimTime::from_secs(180) {
                e.actions_due(now, &mut out);
                log.extend(out.iter().copied().map(|a| (now, a)));
                now += SimDuration::from_millis(10);
            }
            (log, e.counts())
        };
        let (log_a, counts_a) = run(&cfg);
        let (log_b, counts_b) = run(&cfg);
        assert_eq!(log_a, log_b);
        assert_eq!(counts_a, counts_b);
        // Every one of the plan's 20 events fired.
        let c = counts_a;
        let fired = c.node_failures
            + c.degradations
            + c.probe_dropouts
            + c.corruption_windows
            + c.heartbeat_delays
            + c.controller_crashes;
        assert_eq!(fired, 20);
    }
}
