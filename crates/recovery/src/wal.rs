//! The write-ahead event log.
//!
//! The control loop is a deterministic function of its paused state, so
//! durability does not require logging effects — logging *which calendar
//! events were applied* is enough. The WAL accumulates the
//! [`AppliedEvent`]s drained from the orchestrator's journal since the
//! last checkpoint; a checkpoint truncates it (the snapshot subsumes the
//! prefix). On recovery the suffix is not *executed* from the log — the
//! resumed orchestrator re-drives the simulation to the crash boundary —
//! the log instead acts as a **divergence fence**: the re-applied events
//! must match the logged suffix record for record, or the resume is
//! rejected as [`RecoveryError::Divergence`] rather than silently forking
//! the timeline.

use knots_core::AppliedEvent;

use crate::RecoveryError;

/// Write-ahead log of applied calendar events since the last checkpoint.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WriteAheadLog {
    records: Vec<AppliedEvent>,
    truncated: u64,
}

impl WriteAheadLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a batch of applied events (a drained orchestrator journal).
    pub fn append(&mut self, batch: &[AppliedEvent]) {
        self.records.extend_from_slice(batch);
    }

    /// Records currently in the log (the suffix since the last checkpoint).
    pub fn records(&self) -> &[AppliedEvent] {
        &self.records
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Checkpoint truncation: the snapshot now subsumes every logged
    /// record, so drop them all (counting them for bookkeeping).
    pub fn truncate(&mut self) {
        self.truncated += self.records.len() as u64;
        self.records.clear();
    }

    /// Total records dropped by checkpoints over the log's lifetime.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// The divergence fence: compare the events a resumed orchestrator
    /// re-applied against the logged suffix. Any mismatch — wrong event,
    /// wrong instant, too few or too many — rejects the resume.
    pub fn verify_replay(&self, replayed: &[AppliedEvent]) -> Result<(), RecoveryError> {
        let n = self.records.len().max(replayed.len());
        for i in 0..n {
            let logged = self.records.get(i).copied();
            let replay = replayed.get(i).copied();
            if logged != replay {
                return Err(RecoveryError::Divergence { index: i, logged, replayed: replay });
            }
        }
        Ok(())
    }

    /// Serialize the log (what a durable store would write alongside the
    /// latest snapshot).
    #[expect(
        clippy::expect_used,
        reason = "records are Copy structs of ints and unit-ish enums; their Serialize impl cannot fail"
    )]
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("WAL always serializes")
    }

    /// Parse a log previously produced by [`WriteAheadLog::encode`].
    pub fn decode(text: &str) -> Result<Self, RecoveryError> {
        serde_json::from_str(text).map_err(|e| RecoveryError::Malformed(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_core::CoreEvent;
    use knots_sim::time::SimTime;

    fn ev(us: u64, kind: CoreEvent) -> AppliedEvent {
        AppliedEvent { at: SimTime(us), kind }
    }

    #[test]
    fn append_truncate_and_roundtrip() {
        let mut wal = WriteAheadLog::new();
        wal.append(&[ev(1, CoreEvent::Arrival), ev(2, CoreEvent::Heartbeat)]);
        assert_eq!(wal.len(), 2);
        let back = WriteAheadLog::decode(&wal.encode()).unwrap();
        assert_eq!(back, wal);
        wal.truncate();
        assert!(wal.is_empty());
        assert_eq!(wal.truncated(), 2);
    }

    #[test]
    fn an_out_of_range_number_is_malformed() {
        let mut wal = WriteAheadLog::new();
        wal.append(&[ev(7, CoreEvent::Arrival)]);
        let text = wal.encode();
        let corrupted = text.replacen('7', "1e300", 1);
        assert_ne!(corrupted, text);
        assert!(matches!(WriteAheadLog::decode(&corrupted), Err(RecoveryError::Malformed(_))));
    }

    #[test]
    fn fence_rejects_any_mismatch() {
        let mut wal = WriteAheadLog::new();
        wal.append(&[ev(1, CoreEvent::Arrival), ev(2, CoreEvent::Heartbeat)]);
        // Exact match passes.
        wal.verify_replay(&[ev(1, CoreEvent::Arrival), ev(2, CoreEvent::Heartbeat)]).unwrap();
        // Wrong kind at index 1.
        let err =
            wal.verify_replay(&[ev(1, CoreEvent::Arrival), ev(2, CoreEvent::Chaos)]).unwrap_err();
        assert!(matches!(err, RecoveryError::Divergence { index: 1, .. }));
        // Short replay.
        let err = wal.verify_replay(&[ev(1, CoreEvent::Arrival)]).unwrap_err();
        assert!(matches!(err, RecoveryError::Divergence { index: 1, replayed: None, .. }));
        // Long replay.
        let err = wal
            .verify_replay(&[
                ev(1, CoreEvent::Arrival),
                ev(2, CoreEvent::Heartbeat),
                ev(3, CoreEvent::Chaos),
            ])
            .unwrap_err();
        assert!(matches!(err, RecoveryError::Divergence { index: 2, logged: None, .. }));
    }
}
