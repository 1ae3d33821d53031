//! Versioned, integrity-checked snapshots of the paused control plane.
//!
//! A [`Snapshot`] is an *envelope*: the complete dynamic state of a paused
//! event-queue run ([`knots_core::OrchestratorState`]) serialized to a JSON
//! payload, stamped with a format version and an FNV-1a digest over the
//! payload bytes. The envelope is what a durable store would persist; the
//! digest turns silent bit-rot into a typed [`RecoveryError::DigestMismatch`]
//! instead of a bogus resume.
//!
//! Capture validates **finiteness as it writes**: the serde shim writes
//! non-finite floats as JSON `null` and reads `null` back as `NaN`, so a
//! `NaN` smuggled into a snapshot would round-trip as silent corruption.
//! [`Snapshot::from_state`] streams the state straight into its payload
//! with a writer that refuses any non-finite float, reporting the offending
//! path ([`RecoveryError::NonFinite`]); no document tree is built on the
//! way. [`Snapshot::state`] likewise reads the state straight from the
//! payload text.

use knots_core::{fnv1a, KubeKnots, OrchestratorState};
use knots_sim::time::SimTime;

use crate::RecoveryError;

/// Current snapshot format version. Bump on any change to
/// [`OrchestratorState`]'s shape; decode rejects other versions.
/// History: 1 = original shape; 2 = adds `OrchestratorState::shards`,
/// the shard count of the since-deleted sharded core. The field is now
/// always written as `1` and ignored on resume, so a v2 state recorded
/// with any shard count still resumes; it goes, with a version bump, in
/// the change to the benchmark that deletes the loop copy that writes it.
pub const SNAPSHOT_VERSION: u32 = 2;

/// A versioned, digest-protected snapshot of the paused control plane.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// Format version ([`SNAPSHOT_VERSION`] at capture).
    pub version: u32,
    /// FNV-1a 64 over the payload bytes.
    pub digest: u64,
    /// Simulation instant the state was captured at (the cluster clock).
    pub at: SimTime,
    /// The JSON-serialized [`OrchestratorState`].
    pub payload: String,
}

impl Snapshot {
    /// Capture an orchestrator's event-queue loop state: one begun via
    /// [`KubeKnots::begin`] (as [`KubeKnots::run_schedule`] does, which
    /// leaves the finished loop's state in place) or resumed. Fails with
    /// [`RecoveryError::NotPaused`] on a fresh orchestrator and after
    /// [`KubeKnots::run_ticked`], which parks no loop state.
    pub fn capture(k: &KubeKnots) -> Result<Self, RecoveryError> {
        let state = k.pause_state().ok_or(RecoveryError::NotPaused)?;
        Self::from_state(&state, k.cluster().now())
    }

    /// Build the envelope around an already-captured state: serialize
    /// straight into the payload, digest. The write itself validates
    /// finiteness, failing at the first non-finite float in document order.
    pub fn from_state(state: &OrchestratorState, at: SimTime) -> Result<Self, RecoveryError> {
        let payload = serde_json::to_string_finite(state)
            .map_err(|e| RecoveryError::NonFinite { path: format!("state{}", e.path) })?;
        let digest = fnv1a(payload.as_bytes());
        Ok(Snapshot { version: SNAPSHOT_VERSION, digest, at, payload })
    }

    /// Verify the envelope (version, digest) and decode the state. Every
    /// failure mode is a typed [`RecoveryError`]; corrupted input never
    /// panics.
    pub fn state(&self) -> Result<OrchestratorState, RecoveryError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(RecoveryError::VersionMismatch {
                found: self.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let found = fnv1a(self.payload.as_bytes());
        if found != self.digest {
            return Err(RecoveryError::DigestMismatch { expected: self.digest, found });
        }
        serde_json::from_str(&self.payload).map_err(|e| RecoveryError::Malformed(e.to_string()))
    }

    /// Serialize the whole envelope (what a durable store would write).
    #[expect(
        clippy::expect_used,
        reason = "the envelope is four plain fields (ints and a string); its Serialize impl cannot fail"
    )]
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("snapshot envelope always serializes")
    }

    /// Parse an envelope previously produced by [`Snapshot::encode`]. Does
    /// *not* verify the digest — that happens in [`Snapshot::state`].
    pub fn decode(text: &str) -> Result<Self, RecoveryError> {
        serde_json::from_str(text).map_err(|e| RecoveryError::Malformed(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_core::OrchestratorConfig;
    use knots_sched::resag::ResAg;
    use knots_sim::cluster::ClusterConfig;
    use knots_sim::pod::PodSpec;
    use knots_sim::profile::ResourceProfile;
    use knots_sim::resources::GpuModel;
    use knots_workloads::loadgen::ScheduledPod;

    #[test]
    fn capture_needs_event_queue_loop_state() {
        let fresh = || {
            let cluster = ClusterConfig::homogeneous(2, GpuModel::P100);
            KubeKnots::new(cluster, Box::new(ResAg::new()), OrchestratorConfig::default())
        };
        let schedule = [ScheduledPod {
            at: SimTime::ZERO,
            spec: PodSpec::batch("b", ResourceProfile::constant(0.5, 1000.0, 1.0)),
        }];
        assert_eq!(Snapshot::capture(&fresh()).err(), Some(RecoveryError::NotPaused));
        let mut k = fresh();
        k.run_schedule(&schedule);
        assert!(Snapshot::capture(&k).is_ok(), "run_schedule leaves its loop state");
        let mut k = fresh();
        k.run_ticked(&schedule);
        assert_eq!(Snapshot::capture(&k).err(), Some(RecoveryError::NotPaused));
    }

    #[test]
    fn from_state_rejects_a_nan_planted_in_a_real_state() {
        let cluster = ClusterConfig::homogeneous(2, GpuModel::P100);
        let mut k = KubeKnots::new(cluster, Box::new(ResAg::new()), OrchestratorConfig::default());
        let schedule = [ScheduledPod {
            at: SimTime::ZERO,
            spec: PodSpec::batch("b", ResourceProfile::constant(0.5, 1000.0, 1.0)),
        }];
        k.run_schedule(&schedule);
        let mut state = k.pause_state().unwrap();
        assert!(Snapshot::from_state(&state, SimTime::ZERO).is_ok());
        let at = state.util_series[1].len();
        state.util_series[1].push(f64::NAN);
        state.active_util.push(f64::INFINITY);
        assert_eq!(
            Snapshot::from_state(&state, SimTime::ZERO),
            Err(RecoveryError::NonFinite { path: format!("state.util_series[1][{at}]") })
        );
    }
}
