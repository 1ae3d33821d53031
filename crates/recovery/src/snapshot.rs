//! Versioned, integrity-checked snapshots of the paused control plane.
//!
//! A [`Snapshot`] is an *envelope*: the complete dynamic state of a paused
//! event-queue run ([`knots_core::OrchestratorState`]) serialized to a JSON
//! payload, stamped with a format version and an FNV-1a digest over the
//! payload bytes. The envelope is what a durable store would persist; the
//! digest turns silent bit-rot into a typed [`RecoveryError::DigestMismatch`]
//! instead of a bogus resume.
//!
//! Capture validates **finiteness up front**: the serde shim writes
//! non-finite floats as JSON `null` and reads `null` back as `NaN`, so a
//! `NaN` smuggled into a snapshot would round-trip as silent corruption.
//! [`Snapshot::from_state`] walks the value tree and rejects any non-finite
//! float with the offending path ([`RecoveryError::NonFinite`]) before the
//! state ever reaches disk shape.

use knots_core::{KubeKnots, OrchestratorState};
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

/// FNV-1a 64-bit over a byte slice — the integrity digest of the payload.
/// Hand-rolled (15 lines) rather than depending on the analyzer's hasher:
/// the recovery crate must stay loadable without dev tooling.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

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

    /// Build the envelope around an already-captured state: validate
    /// finiteness, serialize, digest.
    pub fn from_state(state: &OrchestratorState, at: SimTime) -> Result<Self, RecoveryError> {
        let value = serde::Serialize::to_value(state);
        check_finite(&value, "state")?;
        let payload =
            serde_json::to_string(&value).map_err(|e| RecoveryError::Malformed(e.to_string()))?;
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
        let value: serde::Value = serde_json::from_str(&self.payload)
            .map_err(|e| RecoveryError::Malformed(e.to_string()))?;
        serde::Deserialize::from_value(&value).map_err(|e| RecoveryError::Malformed(e.to_string()))
    }

    /// Serialize the whole envelope (what a durable store would write).
    pub fn encode(&self) -> String {
        // knots-allow: P1 -- the envelope is four plain fields (ints and a string); its Serialize impl cannot fail
        serde_json::to_string(self).expect("snapshot envelope always serializes")
    }

    /// Parse an envelope previously produced by [`Snapshot::encode`]. Does
    /// *not* verify the digest — that happens in [`Snapshot::state`].
    pub fn decode(text: &str) -> Result<Self, RecoveryError> {
        serde_json::from_str(text).map_err(|e| RecoveryError::Malformed(e.to_string()))
    }
}

/// Reject non-finite floats anywhere in the value tree, reporting the path
/// (e.g. `state.cluster.nodes[3].energy_joules`).
fn check_finite(v: &serde::Value, path: &str) -> Result<(), RecoveryError> {
    match v {
        serde::Value::F64(x) if !x.is_finite() => {
            Err(RecoveryError::NonFinite { path: path.to_string() })
        }
        serde::Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                check_finite(item, &format!("{path}[{i}]"))?;
            }
            Ok(())
        }
        serde::Value::Object(fields) => {
            for (name, field) in fields {
                check_finite(field, &format!("{path}.{name}"))?;
            }
            Ok(())
        }
        _ => Ok(()),
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
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn finiteness_walk_reports_the_offending_path() {
        let v = serde::Value::Object(vec![(
            "nodes".into(),
            serde::Value::Array(vec![serde::Value::F64(1.0), serde::Value::F64(f64::NAN)]),
        )]);
        let err = check_finite(&v, "state").unwrap_err();
        match err {
            RecoveryError::NonFinite { path } => assert_eq!(path, "state.nodes[1]"),
            other => panic!("wrong error: {other:?}"),
        }
    }
}
