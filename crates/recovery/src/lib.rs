//! # knots-recovery — the durable control plane
//!
//! Kube-Knots' head node is a single point of failure: if the controller
//! dies, every learned scheduler statistic, telemetry ring and in-flight
//! queue dies with it. This crate makes the control plane *durable* and —
//! because the whole reproduction is a deterministic discrete-event
//! system — makes recovery **bit-identical**: a run that crashes and
//! resumes produces the same report digest, the same TSDB sample bits and
//! the same energy total as the run that never crashed.
//!
//! Three pieces (DESIGN.md §15):
//!
//! * [`Snapshot`]: a versioned envelope around the complete dynamic state
//!   of a paused run ([`knots_core::OrchestratorState`]) with an FNV-1a
//!   integrity digest and capture-time finiteness validation;
//! * [`WriteAheadLog`]: the applied-event log since the last checkpoint,
//!   truncated at every checkpoint and used on resume as a *divergence
//!   fence* — replayed events must match the log record for record;
//! * [`run_with_recovery`]: the supervisor harness — periodic grid-aligned
//!   checkpoints, controller kills at the fault plan's scheduled
//!   [`knots_chaos::FaultKind::ControllerCrash`] instants, restore +
//!   fenced replay, and recovery statistics in the run report
//!   ([`knots_core::RecoveryStats`], excluded from the report digest).
//!
//! Every failure mode — bit-rot, version skew, malformed payloads,
//! replay divergence — is a typed [`RecoveryError`]; corrupted input
//! never panics the supervisor.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod snapshot;
pub mod wal;

pub use harness::{run_with_recovery, RecoveryConfig};
/// Re-exported for the benchmark harness, which names it here.
pub use knots_core::fnv1a;
pub use snapshot::{Snapshot, SNAPSHOT_VERSION};
pub use wal::WriteAheadLog;

use knots_core::AppliedEvent;

/// Everything that can go wrong between a capture and a verified resume.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The orchestrator has no event-queue loop state to capture: it was
    /// never begun (nor resumed), or it ran on the per-tick oracle
    /// (`KubeKnots::run_ticked`), which parks none.
    NotPaused,
    /// A non-finite float was found in the state at capture. The serde
    /// layer round-trips non-finite floats through JSON `null` (read back
    /// as `NaN`), so letting one into a snapshot would be silent
    /// corruption; the path names the offending field.
    NonFinite {
        /// Dotted path to the non-finite value, e.g. `state.cluster.nodes[3]`.
        path: String,
    },
    /// The snapshot was produced by a different format version.
    VersionMismatch {
        /// Version found in the envelope.
        found: u32,
        /// Version this build understands ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The payload bytes do not hash to the envelope's digest: bit-rot,
    /// truncation, or tampering.
    DigestMismatch {
        /// Digest recorded in the envelope.
        expected: u64,
        /// Digest of the payload as found.
        found: u64,
    },
    /// The payload (or an encoded envelope/WAL) failed to parse or had
    /// the wrong shape for the target state type.
    Malformed(
        /// Human-readable parse/shape error.
        String,
    ),
    /// The divergence fence tripped: a resumed run re-applied a different
    /// event sequence than the write-ahead log recorded.
    Divergence {
        /// Index of the first mismatching record.
        index: usize,
        /// What the WAL logged at that index (`None`: replay ran long).
        logged: Option<AppliedEvent>,
        /// What the replay applied at that index (`None`: replay ran short).
        replayed: Option<AppliedEvent>,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NotPaused => {
                write!(f, "snapshot capture requires an event-queue run (begun, resumed, or driven by run_schedule), not a fresh orchestrator or the per-tick oracle")
            }
            RecoveryError::NonFinite { path } => {
                write!(f, "non-finite float at {path}: would corrupt silently through JSON null")
            }
            RecoveryError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} (this build understands {expected})")
            }
            RecoveryError::DigestMismatch { expected, found } => write!(
                f,
                "snapshot payload digest {found:#018x} does not match envelope {expected:#018x}"
            ),
            RecoveryError::Malformed(msg) => write!(f, "malformed recovery data: {msg}"),
            RecoveryError::Divergence { index, logged, replayed } => write!(
                f,
                "replay diverged from the write-ahead log at record {index}: \
                 logged {logged:?}, replayed {replayed:?}"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}
