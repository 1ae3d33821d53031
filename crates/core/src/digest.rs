//! Run identity: the FNV-1a hash and the digest of a [`RunReport`].
//!
//! Two runs made the same decisions exactly when their report digests are
//! equal. The digest covers only the simulated outcome: fault, engine
//! throughput and recovery accounting describe how a run was executed and
//! are left out. [`report_digest`] destructures every report struct
//! exhaustively, so a new field does not compile until it is either hashed
//! or bound to `_` with its reason.

use crate::metrics::{JctStats, RunReport, SkippedAction};

/// FNV-1a 64-bit — tiny, dependency-free, and stable across platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        // to_bits gives every float (NaN payloads included) a stable image.
        self.u64(v.to_bits());
    }

    /// Final digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// Digest every simulated-outcome field of a report.
pub fn report_digest(r: &RunReport) -> u64 {
    let RunReport {
        scheduler,
        duration,
        node_util_series,
        active_util_samples,
        submitted,
        completed,
        lc_completed,
        lc_violations,
        batch_jct,
        lc_latency,
        all_jct,
        energy_joules,
        crashes,
        preemptions,
        migrations,
        skipped_actions,
        skipped_breakdown,
        // The pinned digests predate fault injection.
        faults: _,
        // Engine throughput describes the loop, not the simulated outcome.
        events_processed: _,
        events_per_sim_second: _,
        // Controller kills and replays: how the run was executed.
        recovery: _,
    } = r;
    let mut h = Fnv::new();
    h.write(scheduler.as_bytes());
    h.u64(duration.as_micros());
    h.u64(node_util_series.len() as u64);
    for series in node_util_series {
        h.u64(series.len() as u64);
        for &v in series {
            h.f64(v);
        }
    }
    h.u64(active_util_samples.len() as u64);
    for &v in active_util_samples {
        h.f64(v);
    }
    h.u64(*submitted as u64);
    h.u64(*completed as u64);
    h.u64(*lc_completed as u64);
    h.u64(*lc_violations as u64);
    for jct in [batch_jct, lc_latency, all_jct] {
        let JctStats { count, avg, median, p99, max } = *jct;
        h.u64(count as u64);
        h.f64(avg);
        h.f64(median);
        h.f64(p99);
        h.f64(max);
    }
    h.f64(*energy_joules);
    h.u64(*crashes as u64);
    h.u64(*preemptions as u64);
    h.u64(*migrations as u64);
    h.u64(*skipped_actions as u64);
    for SkippedAction { kind, error, count } in skipped_breakdown {
        h.write(kind.as_bytes());
        h.write(error.as_bytes());
        h.u64(*count);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{FaultStats, RecoveryStats};
    use knots_sim::time::SimDuration;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Streaming in pieces hashes the concatenation.
        let mut h = Fnv::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        assert_ne!(fnv1a(b"hello"), fnv1a(b"hellp"));
    }

    #[test]
    fn digest_covers_decisions_but_not_engine_accounting() {
        let base = RunReport {
            scheduler: "X".into(),
            duration: SimDuration::from_secs(1),
            node_util_series: vec![vec![1.0, 2.0]],
            active_util_samples: vec![0.5],
            submitted: 3,
            completed: 2,
            lc_completed: 1,
            lc_violations: 0,
            batch_jct: JctStats::from_secs(vec![1.0]),
            lc_latency: JctStats::from_secs(vec![]),
            all_jct: JctStats::from_secs(vec![1.0]),
            energy_joules: 9.0,
            crashes: 0,
            preemptions: 1,
            migrations: 0,
            skipped_actions: 0,
            skipped_breakdown: vec![],
            faults: FaultStats::default(),
            events_processed: 0,
            events_per_sim_second: 0.0,
            recovery: RecoveryStats::default(),
        };
        let d0 = report_digest(&base);

        let mut evented = base.clone();
        evented.events_processed = 1234;
        evented.events_per_sim_second = 9.75;
        assert_eq!(report_digest(&evented), d0, "engine throughput must not affect the digest");

        let mut faulted = base.clone();
        faulted.faults.node_failures = 2;
        assert_eq!(report_digest(&faulted), d0, "fault stats must not affect the digest");

        let mut recovered = base.clone();
        recovered.recovery = RecoveryStats {
            controller_crashes: 3,
            checkpoints: 7,
            replayed_events: 41,
            recovery_wall_us: 812.5,
        };
        assert_eq!(report_digest(&recovered), d0, "recovery stats must not affect the digest");

        let mut decided = base.clone();
        decided.preemptions = 2;
        assert_ne!(report_digest(&decided), d0);

        let mut skipped = base;
        skipped.skipped_breakdown =
            vec![SkippedAction { kind: "Place".into(), error: "node_asleep".into(), count: 1 }];
        assert_ne!(report_digest(&skipped), d0);
    }
}
