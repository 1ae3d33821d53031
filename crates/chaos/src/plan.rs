//! Fault plans: what goes wrong, where, and when.

use knots_sim::ids::NodeId;
use knots_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How a corrupted probe reading mangles the sample it reports.
///
/// The first two model outright sensor failure (pyNVML returning garbage);
/// the TSDB rejects such samples at the door and the series goes stale. The
/// spike is nastier: a finite, plausible-looking wrong value that *is*
/// stored — downstream consumers can only survive it statistically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CorruptionMode {
    /// SM utilization reads as NaN.
    Nan,
    /// Memory usage reads as +Inf.
    Inf,
    /// Every utilization reading is multiplied by `factor`.
    Spike { factor: f64 },
}

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The whole node dies: resident pods crash, telemetry stops, placement
    /// is refused. With `recover_after` set the node rejoins that much
    /// later, empty and cold; `None` means it never comes back.
    NodeFail { node: NodeId, recover_after: Option<SimDuration> },
    /// The node's GPU loses `frac` of its memory capacity (ECC retirement,
    /// thermal throttling of the memory controller). `duration: None` makes
    /// the degradation permanent.
    GpuDegrade { node: NodeId, frac: f64, duration: Option<SimDuration> },
    /// The node's telemetry probe reports nothing for `duration`: its series
    /// in the TSDB simply stops advancing.
    ProbeDropout { node: NodeId, duration: SimDuration },
    /// The node's probe reports *wrong* values for `duration`.
    SampleCorruption { node: NodeId, duration: SimDuration, mode: CorruptionMode },
    /// The head-node aggregator's next heartbeat slips by `delay` — the
    /// scheduler keeps deciding on an aging snapshot in the meantime.
    HeartbeatDelay { delay: SimDuration },
    /// The controller process itself dies at this instant. The engine only
    /// counts it — the kill and the restart-from-checkpoint are performed
    /// by the recovery harness (crates/recovery), outside the simulation,
    /// so a crash-and-resume run stays bit-identical to an uninterrupted
    /// one.
    ControllerCrash,
}

/// A fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A complete scripted fault schedule for one run.
///
/// Construction sorts events by time (stably, so same-instant events keep
/// their authored order); the engine replays them in that order regardless
/// of the simulation tick size.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults, ordered by [`FaultEvent::at`].
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The no-fault plan. Running with it is bit-identical to not running
    /// chaos at all — the pinned self-check digests depend on this.
    pub fn empty() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Build a plan from events in any order; they are sorted by time.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled [`FaultKind::ControllerCrash`] instants, in time order.
    /// The recovery harness drives kill/restart from this list.
    pub fn controller_crashes(&self) -> Vec<SimTime> {
        let mut v: Vec<SimTime> = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::ControllerCrash))
            .map(|e| e.at)
            .collect();
        v.sort();
        v
    }

    /// Check the plan for malformed events before a run instead of letting
    /// them silently generate garbage mid-experiment.
    ///
    /// Rejects non-finite or negative numeric parameters, events scheduled
    /// past `horizon` (faults the run can never reach are almost always a
    /// unit mix-up), and node-failure windows that overlap on the same node
    /// (the second `FailNode` would hit an already-failed node and its
    /// recovery schedule would be ambiguous).
    pub fn validate(&self, horizon: SimDuration) -> Result<(), PlanError> {
        // Last failure window per node: (start, end; None = never recovers).
        let mut windows: BTreeMap<NodeId, (SimTime, Option<SimTime>)> = BTreeMap::new();
        let mut events: Vec<&FaultEvent> = self.events.iter().collect();
        events.sort_by_key(|e| e.at);
        for (index, ev) in events.into_iter().enumerate() {
            if ev.at.as_micros() > horizon.as_micros() {
                return Err(PlanError::OutOfRange {
                    index,
                    what: "event time past run horizon",
                    value: ev.at.as_micros() as f64 / 1e6,
                });
            }
            match ev.kind {
                FaultKind::NodeFail { node, recover_after } => {
                    let end = recover_after.map(|d| ev.at + d);
                    if let Some(&(start, prev_end)) = windows.get(&node) {
                        if prev_end.is_none_or(|e| ev.at < e) {
                            return Err(PlanError::OverlappingNodeFailure {
                                node,
                                first: start,
                                second: ev.at,
                            });
                        }
                    }
                    windows.insert(node, (ev.at, end));
                }
                FaultKind::GpuDegrade { frac, .. } => {
                    if !frac.is_finite() {
                        return Err(PlanError::NonFinite { index, what: "GpuDegrade frac" });
                    }
                    if !(0.0..=1.0).contains(&frac) {
                        return Err(PlanError::OutOfRange {
                            index,
                            what: "GpuDegrade frac outside [0, 1]",
                            value: frac,
                        });
                    }
                }
                FaultKind::SampleCorruption { mode: CorruptionMode::Spike { factor }, .. } => {
                    if !factor.is_finite() {
                        return Err(PlanError::NonFinite { index, what: "Spike factor" });
                    }
                    if factor < 0.0 {
                        return Err(PlanError::OutOfRange {
                            index,
                            what: "Spike factor negative",
                            value: factor,
                        });
                    }
                }
                FaultKind::ProbeDropout { .. }
                | FaultKind::SampleCorruption { .. }
                | FaultKind::HeartbeatDelay { .. }
                | FaultKind::ControllerCrash => {}
            }
        }
        Ok(())
    }
}

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// A numeric parameter is NaN or infinite.
    NonFinite {
        /// Index of the offending event in time order.
        index: usize,
        /// Which parameter.
        what: &'static str,
    },
    /// A parameter is outside its meaningful range (negative rate, time
    /// past the run horizon, ...).
    OutOfRange {
        /// Index of the offending event in time order.
        index: usize,
        /// Which parameter and why.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Two `NodeFail` windows overlap on the same node.
    OverlappingNodeFailure {
        /// The doubly-failed node.
        node: NodeId,
        /// Start of the earlier failure window.
        first: SimTime,
        /// Start of the later, overlapping failure.
        second: SimTime,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NonFinite { index, what } => {
                write!(f, "fault plan event #{index}: {what} is not finite")
            }
            PlanError::OutOfRange { index, what, value } => {
                write!(f, "fault plan event #{index}: {what} ({value})")
            }
            PlanError::OverlappingNodeFailure { node, first, second } => write!(
                f,
                "fault plan: node {} failure at {:?} overlaps the window opened at {:?}",
                node.0, second, first
            ),
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_events_sorts_stably() {
        let e1 = FaultEvent {
            at: SimTime::from_secs(5),
            kind: FaultKind::NodeFail { node: NodeId(1), recover_after: None },
        };
        let e2 = FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::HeartbeatDelay { delay: SimDuration::from_millis(100) },
        };
        let e3 = FaultEvent {
            at: SimTime::from_secs(5),
            kind: FaultKind::ProbeDropout { node: NodeId(0), duration: SimDuration::from_secs(2) },
        };
        let plan = FaultPlan::from_events(vec![e1, e2, e3]);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.events[0], e2);
        // Same-instant events keep their authored order.
        assert_eq!(plan.events[1], e1);
        assert_eq!(plan.events[2], e3);
        assert!(FaultPlan::empty().is_empty());
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(10),
                kind: FaultKind::NodeFail {
                    node: NodeId(3),
                    recover_after: Some(SimDuration::from_secs(30)),
                },
            },
            FaultEvent {
                at: SimTime::from_secs(12),
                kind: FaultKind::GpuDegrade { node: NodeId(1), frac: 0.25, duration: None },
            },
            FaultEvent {
                at: SimTime::from_secs(20),
                kind: FaultKind::SampleCorruption {
                    node: NodeId(0),
                    duration: SimDuration::from_secs(5),
                    mode: CorruptionMode::Spike { factor: 4.0 },
                },
            },
            FaultEvent {
                at: SimTime::from_secs(21),
                kind: FaultKind::SampleCorruption {
                    node: NodeId(2),
                    duration: SimDuration::from_secs(1),
                    mode: CorruptionMode::Nan,
                },
            },
            FaultEvent {
                at: SimTime::from_secs(30),
                kind: FaultKind::HeartbeatDelay { delay: SimDuration::from_millis(250) },
            },
        ]);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    fn horizon() -> SimDuration {
        SimDuration::from_secs(120)
    }

    fn fail(at_secs: u64, node: usize, recover_secs: Option<u64>) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_secs(at_secs),
            kind: FaultKind::NodeFail {
                node: NodeId(node),
                recover_after: recover_secs.map(SimDuration::from_secs),
            },
        }
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        let plan = FaultPlan::from_events(vec![
            fail(10, 0, Some(5)),
            fail(20, 0, Some(5)), // previous window closed at 15 s
            fail(21, 1, None),
            FaultEvent {
                at: SimTime::from_secs(30),
                kind: FaultKind::GpuDegrade { node: NodeId(2), frac: 0.5, duration: None },
            },
            FaultEvent { at: SimTime::from_secs(40), kind: FaultKind::ControllerCrash },
        ]);
        assert_eq!(plan.validate(horizon()), Ok(()));
        assert_eq!(FaultPlan::empty().validate(horizon()), Ok(()));
        assert_eq!(plan.controller_crashes(), vec![SimTime::from_secs(40)]);
    }

    #[test]
    fn validate_rejects_non_finite_and_negative_rates() {
        let nan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::GpuDegrade { node: NodeId(0), frac: f64::NAN, duration: None },
        }]);
        assert!(matches!(nan.validate(horizon()), Err(PlanError::NonFinite { .. })));

        let neg = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::GpuDegrade { node: NodeId(0), frac: -0.25, duration: None },
        }]);
        assert!(matches!(neg.validate(horizon()), Err(PlanError::OutOfRange { .. })));

        let spike = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::SampleCorruption {
                node: NodeId(0),
                duration: SimDuration::from_secs(1),
                mode: CorruptionMode::Spike { factor: f64::INFINITY },
            },
        }]);
        assert!(matches!(spike.validate(horizon()), Err(PlanError::NonFinite { .. })));
    }

    #[test]
    fn validate_rejects_out_of_range_times() {
        let plan = FaultPlan::from_events(vec![fail(500, 0, None)]);
        let err = plan.validate(horizon()).unwrap_err();
        assert!(matches!(err, PlanError::OutOfRange { value, .. } if value == 500.0));
        assert!(err.to_string().contains("horizon"), "{err}");
    }

    #[test]
    fn validate_rejects_overlapping_node_failures() {
        // Window [10, 40) on node 3; second failure at 20 lands inside it.
        let plan = FaultPlan::from_events(vec![fail(10, 3, Some(30)), fail(20, 3, None)]);
        assert_eq!(
            plan.validate(horizon()),
            Err(PlanError::OverlappingNodeFailure {
                node: NodeId(3),
                first: SimTime::from_secs(10),
                second: SimTime::from_secs(20),
            })
        );
        // A never-recovering failure blocks all later failures on the node.
        let plan = FaultPlan::from_events(vec![fail(10, 3, None), fail(100, 3, Some(1))]);
        assert!(matches!(plan.validate(horizon()), Err(PlanError::OverlappingNodeFailure { .. })));
        // Distinct nodes never conflict.
        let plan = FaultPlan::from_events(vec![fail(10, 3, None), fail(20, 4, None)]);
        assert_eq!(plan.validate(horizon()), Ok(()));
    }
}
