//! Cluster-level configuration, including the paper's testbed constants
//! (Tables II & III) and the trace-driven DNN simulation setup (§V-C).

use crate::resources::GpuModel;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Number of GPU worker nodes in the paper's physical testbed (§V-A).
pub const TESTBED_WORKER_NODES: usize = 10;

/// Worker GPU in the paper's testbed (Table II).
pub const TESTBED_GPU: GpuModel = GpuModel::P100;

/// Nodes in the trace-driven DNN simulation (§V-C): 32 nodes × 8 GPUs.
/// Since the simulator schedules at single-GPU granularity (see DESIGN.md),
/// this flattens to 256 single-GPU nodes.
pub const DNN_SIM_GPUS: usize = 256;

/// Defaults for timing overheads (documented in DESIGN.md):
/// cold-start image pulls take a few seconds (§V-B), container relaunch
/// latency is "in the order of few seconds" (§IV-C), job migration incurs
/// "latency up to few seconds" (§VI-E).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Overheads {
    /// Cold-start image pull duration.
    pub cold_start_pull: SimDuration,
    /// Base delay between a crash and re-entering the pending queue.
    pub relaunch_delay: SimDuration,
    /// Multiplier applied to [`Overheads::relaunch_delay`] per *prior* crash
    /// of the same pod (Kubernetes `CrashLoopBackOff` semantics). `1.0`
    /// (default) reproduces the historical fixed delay bit-for-bit.
    pub relaunch_backoff: f64,
    /// Upper bound on the backed-off relaunch delay.
    pub relaunch_delay_max: SimDuration,
    /// After this many crashes a pod is abandoned (terminal `Failed` state)
    /// instead of relaunched. `0` (default) disables the cap.
    pub crash_loop_cap: u32,
    /// Deep-sleep wake-up latency.
    pub wake_delay: SimDuration,
    /// Suspend cost paid when a pod is resumed after preemption
    /// (suspend-and-resume schedulers such as Gandiva/Tiresias).
    pub resume_overhead: SimDuration,
    /// Migration cost (checkpoint + transfer + restore).
    pub migration_delay: SimDuration,
}

impl Default for Overheads {
    fn default() -> Self {
        Overheads {
            cold_start_pull: SimDuration::from_secs(2),
            relaunch_delay: SimDuration::from_secs(4),
            relaunch_backoff: 1.0,
            relaunch_delay_max: SimDuration::from_secs(300),
            crash_loop_cap: 0,
            migration_delay: SimDuration::from_secs(3),
            resume_overhead: SimDuration::from_millis(250),
            wake_delay: SimDuration::from_millis(500),
        }
    }
}

impl Overheads {
    /// Relaunch delay for a pod that has already crashed `prior_crashes`
    /// times: `relaunch_delay * backoff^prior_crashes`, capped at
    /// [`Overheads::relaunch_delay_max`].
    ///
    /// With the default `relaunch_backoff == 1.0` this returns
    /// `relaunch_delay` unchanged — no float round-trip — so historical
    /// digests are preserved exactly.
    pub fn relaunch_delay_for(&self, prior_crashes: u32) -> SimDuration {
        if self.relaunch_backoff == 1.0 || prior_crashes == 0 {
            return self.relaunch_delay;
        }
        let factor = self.relaunch_backoff.powi(prior_crashes.min(i32::MAX as u32) as i32);
        let us = (self.relaunch_delay.as_micros() as f64 * factor).round();
        let capped = if us.is_finite() { us as u64 } else { u64::MAX };
        SimDuration::from_micros(capped.min(self.relaunch_delay_max.as_micros()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(TESTBED_WORKER_NODES, 10);
        assert_eq!(DNN_SIM_GPUS, 32 * 8);
    }

    #[test]
    fn default_overheads_are_seconds_scale() {
        let o = Overheads::default();
        assert!(o.cold_start_pull >= SimDuration::from_secs(1));
        assert!(o.relaunch_delay >= SimDuration::from_secs(1));
        assert!(o.migration_delay >= o.resume_overhead);
    }

    #[test]
    fn default_backoff_is_the_historical_fixed_delay() {
        let o = Overheads::default();
        for crashes in 0..16 {
            assert_eq!(o.relaunch_delay_for(crashes), o.relaunch_delay);
        }
        assert_eq!(o.crash_loop_cap, 0);
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let o = Overheads {
            relaunch_backoff: 2.0,
            relaunch_delay_max: SimDuration::from_secs(20),
            ..Overheads::default()
        };
        assert_eq!(o.relaunch_delay_for(0), SimDuration::from_secs(4));
        assert_eq!(o.relaunch_delay_for(1), SimDuration::from_secs(8));
        assert_eq!(o.relaunch_delay_for(2), SimDuration::from_secs(16));
        // 32 s exceeds the 20 s cap.
        assert_eq!(o.relaunch_delay_for(3), SimDuration::from_secs(20));
        // Huge exponents saturate at the cap instead of overflowing.
        assert_eq!(o.relaunch_delay_for(4000), SimDuration::from_secs(20));
    }
}
