//! The read-only context handed to a scheduler on every heartbeat.

use knots_obs::Recorder;
use knots_sim::ids::{NodeId, PodId};
use knots_sim::pod::QosClass;
use knots_sim::time::{SimDuration, SimTime};
use knots_telemetry::{ClusterSnapshot, TimeSeriesDb};

/// What the scheduler knows about one pending pod.
///
/// Deliberately *excludes* the ground-truth resource profile: a scheduler
/// only sees the user's request, the QoS class, and whatever telemetry
/// history exists for the same application (no a-priori profiling, §I).
#[derive(Debug, Clone)]
pub struct PendingPodView {
    /// Pod id.
    pub id: PodId,
    /// Full pod name (e.g. `"lud-42"`).
    pub name: String,
    /// Application key — the name with any trailing instance counter
    /// stripped (`"lud"`), used for per-app telemetry history.
    pub app: String,
    /// QoS class.
    pub qos: QosClass,
    /// User-stated memory request, MB.
    pub request_mb: f64,
    /// Current provision, MB (equals the request unless already resized).
    pub limit_mb: f64,
    /// Whether the pod's framework defaults to greedy memory earmarking.
    pub greedy_memory: bool,
    /// Whether `allow_growth` has been set.
    pub allow_growth: bool,
    /// Submission time.
    pub arrival: SimTime,
    /// Crashes suffered so far (relaunched pods carry their history).
    pub crashes: u32,
}

/// What the scheduler knows about one suspended pod.
#[derive(Debug, Clone)]
pub struct SuspendedPodView {
    /// Pod id.
    pub id: PodId,
    /// Application key.
    pub app: String,
    /// QoS class.
    pub qos: QosClass,
    /// Current provision, MB.
    pub limit_mb: f64,
    /// Attained service (for LAS ordering).
    pub attained_service_secs: f64,
    /// Submission time.
    pub arrival: SimTime,
}

/// Everything a scheduler sees each heartbeat.
pub struct SchedContext<'a> {
    /// Current time.
    pub now: SimTime,
    /// The aggregator's cluster snapshot.
    pub snapshot: &'a ClusterSnapshot,
    /// Pending pods in queue order (FCFS order; policies may reorder).
    pub pending: &'a [PendingPodView],
    /// Suspended pods (for suspend-and-resume policies).
    pub suspended: &'a [SuspendedPodView],
    /// The telemetry store, for per-node and per-pod history queries.
    pub tsdb: &'a TimeSeriesDb,
    /// The sliding-window length `d` (§IV-C; default 5 s).
    pub window: SimDuration,
    /// Optional decision-audit recorder. `None` (or a disabled recorder)
    /// keeps policies silent; when enabled, policies log *why* each
    /// decision happened (Spearman gate outcomes, Algorithm-1 branches,
    /// bin-pack rejections) via [`knots_obs::audit`].
    pub recorder: Option<&'a Recorder>,
    /// Unread stand-in for the deleted per-round memo (see [`StatsCache`]).
    /// The benchmark's copy of the event loop (`perfbench/`) still writes
    /// it; the change to the benchmark that deletes that copy deletes this
    /// field with it.
    pub cache: StatsCache,
    /// Maximum telemetry age before a series is treated as stale. `None`
    /// (the default) trusts every series — the behavior of a fault-free
    /// cluster. With a bound set, policies that consume history (CBP's
    /// correlation gate, PP's forecast) fall back to their Res-Ag-like
    /// baseline instead of deciding on dead data after a probe dropout or
    /// node failure.
    pub freshness: Option<SimDuration>,
    /// Unread single-partition stand-in: the benchmark's copy of the event
    /// loop (`perfbench/`) still writes it, and the orchestrator writes
    /// `1`. The change to the benchmark that deletes that copy deletes
    /// this field with it.
    pub shards: usize,
}

// Stand-ins for the benchmark's copy of the event loop (`perfbench/`), which
// builds a `StatsCache` per round and reads its counts. Every other place
// that constructs a `SchedContext` fills `cache` with the stand-in, and
// nothing reads it; the change to the benchmark that deletes that copy
// deletes them.

/// Lookup counts of the deleted per-round memo; always zero.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Memo hits (always 0).
    pub hits: u64,
    /// Memo misses (always 0).
    pub misses: u64,
}

/// Field-less stand-in for the per-round memo that schedulers no longer
/// read: CBP and PP query the TSDB and compute Spearman ρ directly.
#[derive(Debug, Default)]
pub struct StatsCache;

impl StatsCache {
    /// The stand-in.
    pub fn new() -> Self {
        StatsCache
    }

    /// Always [`CacheStats::default`].
    pub fn stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

impl SchedContext<'_> {
    /// The audit recorder, when one is attached and enabled.
    pub fn audit(&self) -> Option<&Recorder> {
        self.recorder.filter(|r| r.enabled())
    }

    /// Whether `pod`'s telemetry series is fresh enough to trust. Always
    /// true when no freshness bound is set; otherwise the series must
    /// exist and its newest sample must be at most `freshness` old.
    pub fn pod_series_fresh(&self, pod: PodId) -> bool {
        let Some(max_age) = self.freshness else { return true };
        self.tsdb.pod_last_at(pod).is_some_and(|at| self.now.saturating_since(at) <= max_age)
    }

    /// Node-series counterpart of [`Self::pod_series_fresh`].
    pub fn node_series_fresh(&self, node: NodeId) -> bool {
        let Some(max_age) = self.freshness else { return true };
        self.tsdb.node_last_at(node).is_some_and(|at| self.now.saturating_since(at) <= max_age)
    }
}

/// Derive the application key from a pod name: strips one trailing
/// `-<digits>` instance suffix (`"lud-42"` → `"lud"`, `"face"` → `"face"`,
/// `"dli-3-face"` → `"dli-3-face"` is *not* stripped to keep dli ids — use
/// explicit naming for those).
pub fn app_key(name: &str) -> String {
    app_key_str(name).to_string()
}

/// [`app_key`] borrowed from the pod name, for per-round lookups that
/// should not allocate.
pub fn app_key_str(name: &str) -> &str {
    match name.rsplit_once('-') {
        Some((head, tail)) if !head.is_empty() && tail.chars().all(|c| c.is_ascii_digit()) => head,
        _ => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freshness_gates_series_trust() {
        use crate::testutil::{ctx, snap};
        use knots_sim::metrics::GpuSample;
        use knots_telemetry::TimeSeriesDb;
        let db = TimeSeriesDb::default();
        db.push_node(NodeId(0), GpuSample { at: SimTime::from_secs(1), ..Default::default() });
        let mut snapshot = snap(vec![]);
        snapshot.at = SimTime::from_secs(3);
        let mut c = ctx(&snapshot, &[], &[], &db);
        // No bound: everything is trusted, even a series that never existed.
        assert!(c.node_series_fresh(NodeId(0)));
        assert!(c.pod_series_fresh(PodId(9)));
        // 1 s bound: the 2 s-old node series and the absent pod series fail.
        c.freshness = Some(SimDuration::from_secs(1));
        assert!(!c.node_series_fresh(NodeId(0)));
        assert!(!c.pod_series_fresh(PodId(9)));
        // A 5 s bound readmits the node series.
        c.freshness = Some(SimDuration::from_secs(5));
        assert!(c.node_series_fresh(NodeId(0)));
    }

    #[test]
    fn app_key_strips_instance_suffix() {
        assert_eq!(app_key("lud-42"), "lud");
        assert_eq!(app_key("face"), "face");
        assert_eq!(app_key("streamcluster-0"), "streamcluster");
        assert_eq!(app_key("dlt-17"), "dlt");
        assert_eq!(app_key("a-b"), "a-b");
        assert_eq!(app_key("-3"), "-3");
        for name in ["lud-42", "face", "a-b", "-3", "dli-3-face"] {
            assert_eq!(app_key_str(name), app_key(name));
        }
    }
}
