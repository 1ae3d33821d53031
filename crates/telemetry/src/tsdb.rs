//! The in-memory time-series store (InfluxDB stand-in).
//!
//! One bounded ring of [`GpuSample`]s per node, plus one bounded ring of
//! per-pod [`Usage`] samples per pod. Retention is capacity-based: with the
//! paper's 1 ms heartbeat and 5 s sliding window (§IV-D), the default
//! capacity of 8192 samples comfortably covers the window the schedulers
//! query.
//!
//! Rings are **run-length encoded**: probe series are dominated by long
//! stretches of bit-identical values (quiet nodes report the same idle
//! sample every tick), so the ring stores runs `(at0, dt, n, value)` —
//! `n` samples at `at0, at0+dt, …, at0+(n-1)·dt` — instead of one slot per
//! sample. Run equality is *bitwise* (`f64::to_bits`), so `-0.0` and `0.0`
//! never merge and every materialized value is exactly the value pushed.
//! Consequences that keep the hot paths cheap:
//!
//! * **A quiet-span backfill is O(1)**: [`TsdbWriter::push_node_span`]
//!   extends the back run by `n` instead of appending `n` samples. The
//!   event-driven loop leans on this — a multi-tick quiet span costs the
//!   same as a single push.
//! * **Pushes only touch the ring**: a push is a finite-value check plus a
//!   run extend-or-append. Summary statistics ([`SeriesStats`]) are
//!   computed on demand by a Welford rescan of the retained samples — they
//!   are diagnostic reads (tests, tools), never on the per-tick or
//!   per-heartbeat path.
//! * **Copy-into-scratch** queries (`*_series_into`) extend a caller-owned
//!   buffer under the read lock one run at a time, so hot callers reuse one
//!   allocation across heartbeats and constant stretches decode as a
//!   repeat-fill rather than a per-sample copy. The allocating `*_series`
//!   forms remain as conveniences built on top and return bit-identical
//!   values.

use knots_sim::ids::{NodeId, PodId};
use knots_sim::metrics::{GpuSample, Metric};
use knots_sim::resources::Usage;
use knots_sim::shard::ShardLayout;
use knots_sim::time::{SimDuration, SimTime};
use parking_lot::RwLock;
use std::collections::VecDeque;

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct TsdbConfig {
    /// Maximum retained samples per node series.
    pub node_capacity: usize,
    /// Maximum retained samples per pod series.
    pub pod_capacity: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        TsdbConfig { node_capacity: 8192, pod_capacity: 8192 }
    }
}

/// Count/mean/M2 summary of a series, built with Welford's online update.
///
/// The store computes these on demand by rescanning the retained ring, so
/// the summary always describes exactly the samples currently retained.
/// `push`/`evict` remain available for callers maintaining their own
/// incremental summaries; the inverse update is subject to ordinary
/// floating-point cancellation, so `m2` is clamped at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeriesStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl SeriesStats {
    /// Number of samples currently summarized.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the retained samples (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance of the retained samples (0 when `count < 2`).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Welford push.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Inverse Welford update: remove one previously-pushed sample.
    pub fn evict(&mut self, x: f64) {
        match self.count {
            0 => {}
            1 => *self = SeriesStats::default(),
            n => {
                self.count = n - 1;
                let old_mean = self.mean;
                self.mean = (n as f64 * old_mean - x) / (n - 1) as f64;
                self.m2 = (self.m2 - (x - self.mean) * (x - old_mean)).max(0.0);
            }
        }
    }
}

/// `n` samples sharing one value, at `at0, at0+dt, …, at0+(n-1)·dt`.
///
/// A fresh single-sample run carries `dt == 0`; the spacing is fixed by the
/// second sample (or by the span push that created it) and never changes
/// afterwards, so every timestamp in the run is reconstructible in closed
/// form.
#[derive(Debug, Clone, Copy)]
struct Run<V> {
    at0: SimTime,
    dt: SimDuration,
    n: u64,
    v: V,
}

impl<V: Copy> Run<V> {
    fn last_at(&self) -> SimTime {
        SimTime(self.at0.0 + self.dt.0 * (self.n - 1))
    }
}

/// A bounded, run-length-encoded sample ring.
///
/// `len` is the *logical* sample count (sum of run lengths); capacity
/// eviction trims whole runs off the front and, when a run straddles the
/// boundary, shortens it in place by advancing `at0` — so retention is
/// sample-exact, identical to a flat ring of the same capacity.
#[derive(Debug)]
struct RleRing<V> {
    runs: VecDeque<Run<V>>,
    len: usize,
}

impl<V> Default for RleRing<V> {
    fn default() -> Self {
        RleRing { runs: VecDeque::new(), len: 0 }
    }
}

impl<V: Copy> RleRing<V> {
    /// Append one sample: extend the back run when the value is bitwise
    /// equal and the timestamp continues the run's spacing, else start a
    /// new run.
    fn push(&mut self, cap: usize, at: SimTime, v: V, eq: impl Fn(&V, &V) -> bool) {
        let extended = match self.runs.back_mut() {
            Some(r) if eq(&r.v, &v) => {
                if r.n == 1 {
                    // Second sample fixes the run's spacing.
                    if at.0 > r.at0.0 {
                        r.dt = SimDuration(at.0 - r.at0.0);
                        r.n = 2;
                        true
                    } else {
                        false
                    }
                } else if r.dt.0 > 0 && at.0 == r.last_at().0 + r.dt.0 {
                    r.n += 1;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if !extended {
            self.runs.push_back(Run { at0: at, dt: SimDuration(0), n: 1, v });
        }
        self.len += 1;
        self.evict_to(cap);
    }

    /// Append `ticks` samples of one value at `start+dt, …, start+ticks·dt`
    /// in O(1): extend the back run when it already carries the value at
    /// spacing `dt` ending at `start`, else append one new run.
    fn push_span(
        &mut self,
        cap: usize,
        start: SimTime,
        dt: SimDuration,
        ticks: u64,
        v: V,
        eq: impl Fn(&V, &V) -> bool,
    ) {
        if ticks == 0 {
            return;
        }
        let extended = match self.runs.back_mut() {
            Some(r) if dt.0 > 0 && eq(&r.v, &v) => {
                if r.n == 1 && start.0 == r.at0.0 {
                    r.dt = dt;
                    r.n = 1 + ticks;
                    true
                } else if r.n > 1 && r.dt.0 == dt.0 && start.0 == r.last_at().0 {
                    r.n += ticks;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if !extended {
            self.runs.push_back(Run { at0: SimTime(start.0 + dt.0), dt, n: ticks, v });
        }
        self.len += ticks as usize;
        self.evict_to(cap);
    }

    /// Trim the oldest samples until at most `cap` remain.
    fn evict_to(&mut self, cap: usize) {
        while self.len > cap {
            let excess = self.len - cap;
            let Some(f) = self.runs.front_mut() else { break };
            if (f.n as usize) <= excess {
                self.len -= f.n as usize;
                self.runs.pop_front();
            } else {
                f.at0 = SimTime(f.at0.0 + f.dt.0 * excess as u64);
                f.n -= excess as u64;
                self.len -= excess;
            }
        }
    }

    /// Timestamp and value of the newest sample.
    fn last(&self) -> Option<(SimTime, &V)> {
        self.runs.back().map(|r| (r.last_at(), &r.v))
    }

    /// Every retained value, oldest first, one item per logical sample.
    fn values(&self) -> impl Iterator<Item = &V> {
        self.runs.iter().flat_map(|r| std::iter::repeat_n(&r.v, r.n as usize))
    }

    /// Visit the runs overlapping `start <= at <= now`, oldest first, as
    /// `(first_at, dt, count, value)` — the caller decodes each run with
    /// one value read. Runs are time-monotone (`run[i].last_at <=
    /// run[i+1].at0`), so a backwards scan from the newest run finds the
    /// window in O(overlap), not O(ring).
    fn window_runs(
        &self,
        start: SimTime,
        now: SimTime,
        mut f: impl FnMut(SimTime, SimDuration, u64, &V),
    ) {
        let mut hi = self.runs.len();
        while hi > 0 && self.runs[hi - 1].at0 > now {
            hi -= 1;
        }
        let mut lo = hi;
        while lo > 0 && self.runs[lo - 1].last_at() >= start {
            lo -= 1;
        }
        for r in self.runs.range(lo..hi) {
            // Clamp the in-run index range to the window. `at0 <= now` and
            // `last_at >= start` hold for every run in `lo..hi`.
            let i_lo = if r.at0 >= start || r.dt.0 == 0 {
                0
            } else {
                (start.0 - r.at0.0).div_ceil(r.dt.0)
            };
            let i_hi = if r.last_at() <= now || r.dt.0 == 0 {
                r.n - 1
            } else {
                (now.0 - r.at0.0) / r.dt.0
            };
            if i_lo > i_hi {
                continue; // window narrower than the spacing, between samples
            }
            f(SimTime(r.at0.0 + r.dt.0 * i_lo), r.dt, i_hi - i_lo + 1, &r.v);
        }
    }
}

/// Bitwise equality of the five probe metrics (`at` excluded — timestamps
/// advance within a run by construction). NaN is never stored, and
/// `to_bits` keeps `-0.0` distinct from `0.0`, so merged samples
/// materialize bit-identically.
fn gpu_eq(a: &GpuSample, b: &GpuSample) -> bool {
    Metric::ALL.iter().all(|m| a.get(*m).to_bits() == b.get(*m).to_bits())
}

/// Bitwise equality of the four pod usage fields.
fn usage_eq(a: &Usage, b: &Usage) -> bool {
    a.sm_frac.to_bits() == b.sm_frac.to_bits()
        && a.mem_mb.to_bits() == b.mem_mb.to_bits()
        && a.rx_mbps.to_bits() == b.rx_mbps.to_bits()
        && a.tx_mbps.to_bits() == b.tx_mbps.to_bits()
}

/// One node's ring buffer.
#[derive(Debug, Default)]
struct NodeEntry {
    ring: RleRing<GpuSample>,
    /// Samples skipped because a metric value was NaN/Inf.
    rejected: u64,
}

/// One pod's ring buffer.
#[derive(Debug, Default)]
struct PodEntry {
    ring: RleRing<Usage>,
    /// Samples skipped because a usage value was NaN/Inf.
    rejected: u64,
}

/// Welford rescan over an iterator of values.
fn stats_over(values: impl Iterator<Item = f64>) -> SeriesStats {
    let mut s = SeriesStats::default();
    for v in values {
        s.push(v);
    }
    s
}

/// Grow-on-demand slot table: return the entry at `i`, creating it (and any
/// missing slots before it) as needed. `NodeId` and `PodId` are dense
/// sequential indices handed out by the cluster, so a flat `Vec` of optional
/// entries replaces a hash map: series lookup on the per-tick push path is
/// a bounds check and a pointer add instead of a SipHash round.
fn slot<T: Default>(v: &mut Vec<Option<T>>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, || None);
    }
    v[i].get_or_insert_with(T::default)
}

#[derive(Debug, Default)]
struct Inner {
    /// Running total of rejected samples across every series (node + pod),
    /// maintained on push so surfacing it never iterates the tables.
    rejected_total: u64,
    // Dense slot tables indexed by NodeId / PodId. Slots are only ever
    // addressed by id (never iterated), so table order cannot leak into
    // scheduling decisions.
    nodes: Vec<Option<NodeEntry>>,
    pods: Vec<Option<PodEntry>>,
}

impl Inner {
    fn node(&self, node: NodeId) -> Option<&NodeEntry> {
        self.nodes.get(node.0).and_then(|e| e.as_ref())
    }

    fn pod(&self, pod: PodId) -> Option<&PodEntry> {
        self.pods.get(pod.0 as usize).and_then(|e| e.as_ref())
    }

    /// Shared push logic behind both the one-shot and the batched writers.
    fn push_node(&mut self, cfg: &TsdbConfig, node: NodeId, sample: GpuSample) -> bool {
        if Metric::ALL.iter().any(|m| !sample.get(*m).is_finite()) {
            slot(&mut self.nodes, node.0).rejected += 1;
            self.rejected_total += 1;
            return false;
        }
        slot(&mut self.nodes, node.0).ring.push(cfg.node_capacity, sample.at, sample, gpu_eq);
        true
    }

    /// Shared push logic behind both the one-shot and the batched writers.
    fn push_pod(&mut self, cfg: &TsdbConfig, pod: PodId, at: SimTime, usage: Usage) -> bool {
        if !usage.mem_mb.is_finite()
            || !usage.sm_frac.is_finite()
            || !usage.total_bw_mbps().is_finite()
        {
            slot(&mut self.pods, pod.0 as usize).rejected += 1;
            self.rejected_total += 1;
            return false;
        }
        slot(&mut self.pods, pod.0 as usize).ring.push(cfg.pod_capacity, at, usage, usage_eq);
        true
    }
}

/// A batched write handle holding the write lock of *every* partition.
///
/// Per-tick probing pushes one sample per node and one per running pod;
/// taking the locks once per tick instead of once per push removes the
/// dominant constant cost of the probe phase. Partition guards are always
/// acquired in index order (the workspace-wide lock-order discipline), so
/// two full writers can never deadlock against each other. Values
/// written through the writer are bit-identical to the one-shot
/// [`TimeSeriesDb::push_node`] / [`TimeSeriesDb::push_pod`] calls. Drop
/// the writer to release the locks.
#[derive(Debug)]
pub struct TsdbWriter<'a> {
    cfg: TsdbConfig,
    layout: ShardLayout,
    guards: Vec<parking_lot::RwLockWriteGuard<'a, Inner>>,
}

impl TsdbWriter<'_> {
    fn node_guard(&mut self, node: NodeId) -> &mut Inner {
        let p = self.layout.shard_of(node.0);
        &mut self.guards[p]
    }

    /// Append a node sample; same semantics as [`TimeSeriesDb::push_node`].
    pub fn push_node(&mut self, node: NodeId, sample: GpuSample) -> bool {
        let cfg = self.cfg;
        self.node_guard(node).push_node(&cfg, node, sample)
    }

    /// Append a pod usage sample; same semantics as
    /// [`TimeSeriesDb::push_pod`].
    pub fn push_pod(&mut self, pod: PodId, at: SimTime, usage: Usage) -> bool {
        let cfg = self.cfg;
        let p = (pod.0 as usize) % self.guards.len();
        self.guards[p].push_pod(&cfg, pod, at, usage)
    }

    /// Backfill `ticks` constant samples for a quiet node: the same metric
    /// values at `start + dt`, `start + 2·dt`, …, `start + ticks·dt`.
    /// With run-length-encoded rings this is O(1) — the back run extends by
    /// `ticks` when it already ends at `start` with the same value and
    /// spacing (the steady state for a quiet node), so the series ends up
    /// bit-identical to per-tick probing of an idle node at constant cost
    /// per span. Returns accepted samples.
    pub fn push_node_span(
        &mut self,
        node: NodeId,
        sample: GpuSample,
        start: SimTime,
        dt: SimDuration,
        ticks: u64,
    ) -> u64 {
        let cap = self.cfg.node_capacity;
        let g = self.node_guard(node);
        if Metric::ALL.iter().any(|m| !sample.get(*m).is_finite()) {
            // Every sample in the span carries the same values, so the
            // whole span is rejected exactly as `ticks` one-shot pushes
            // would have been.
            slot(&mut g.nodes, node.0).rejected += ticks;
            g.rejected_total += ticks;
            return 0;
        }
        slot(&mut g.nodes, node.0).ring.push_span(cap, start, dt, ticks, sample, gpu_eq);
        ticks
    }
}

/// The time-series database.
///
/// Thread-safe: writers (node samplers) and readers (the head-node
/// aggregator) take the internal locks independently.
///
/// The store is **partitioned by shard**: node rings live in the partition
/// of the [`ShardLayout`] shard owning their node id, pod rings round-robin
/// across partitions by pod id. A single-partition store (the default) is
/// exactly the old single-lock store. Partitioning is invisible to every
/// query and to [`TimeSeriesDb::snapshot_state`] — the snapshot is flat and
/// global-ordered, so digests and restores are independent of the
/// partition count.
#[derive(Debug)]
pub struct TimeSeriesDb {
    cfg: TsdbConfig,
    layout: ShardLayout,
    parts: Vec<RwLock<Inner>>,
}

impl Default for TimeSeriesDb {
    fn default() -> Self {
        Self::new(TsdbConfig::default())
    }
}

impl TimeSeriesDb {
    /// Create an empty single-partition store.
    pub fn new(cfg: TsdbConfig) -> Self {
        Self::partitioned(cfg, ShardLayout::new(0, 1))
    }

    /// Create an empty store partitioned along `layout`: one lock-guarded
    /// partition per shard.
    pub fn partitioned(cfg: TsdbConfig, layout: ShardLayout) -> Self {
        let parts = (0..layout.shards()).map(|_| RwLock::new(Inner::default())).collect();
        TimeSeriesDb { cfg, layout, parts }
    }

    /// Number of lock-guarded partitions (= shard count of the layout).
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    fn node_part(&self, node: NodeId) -> &RwLock<Inner> {
        &self.parts[self.layout.shard_of(node.0)]
    }

    fn pod_part(&self, pod: PodId) -> &RwLock<Inner> {
        &self.parts[(pod.0 as usize) % self.parts.len()]
    }

    /// Append a node sample. A sample carrying any non-finite metric value
    /// (NaN/Inf — e.g. a corrupted probe read) is *rejected*, not stored:
    /// storing it would poison every window statistic derived from the
    /// series. Returns whether the sample was accepted; rejections are
    /// counted per series and in total.
    pub fn push_node(&self, node: NodeId, sample: GpuSample) -> bool {
        self.node_part(node).write().push_node(&self.cfg, node, sample)
    }

    /// Append a pod usage sample, with the same non-finite rejection rule
    /// as [`TimeSeriesDb::push_node`].
    pub fn push_pod(&self, pod: PodId, at: SimTime, usage: Usage) -> bool {
        self.pod_part(pod).write().push_pod(&self.cfg, pod, at, usage)
    }

    /// Open a batched write handle that holds every partition's write lock
    /// until dropped. Use for per-tick probe bursts: one lock sweep per
    /// tick instead of one acquisition per sample. Guards are taken in
    /// partition-index order.
    pub fn writer(&self) -> TsdbWriter<'_> {
        TsdbWriter {
            cfg: self.cfg,
            layout: self.layout,
            guards: self.parts.iter().map(|p| p.write()).collect(),
        }
    }

    /// Rejected (non-finite) samples for one node series.
    pub fn node_rejected(&self, node: NodeId) -> u64 {
        self.node_part(node).read().node(node).map_or(0, |e| e.rejected)
    }

    /// Rejected (non-finite) samples for one pod series.
    pub fn pod_rejected(&self, pod: PodId) -> u64 {
        self.pod_part(pod).read().pod(pod).map_or(0, |e| e.rejected)
    }

    /// Total rejected samples across every series since creation/`clear`.
    pub fn rejected_total(&self) -> u64 {
        self.parts.iter().map(|p| p.read().rejected_total).sum()
    }

    /// Timestamp of the most recent *accepted* sample of a node series —
    /// the freshness signal consumers use to spot probe dropouts.
    pub fn node_last_at(&self, node: NodeId) -> Option<SimTime> {
        self.node_part(node).read().node(node).and_then(|e| e.ring.last().map(|(at, _)| at))
    }

    /// Timestamp of the most recent *accepted* sample of a pod series.
    pub fn pod_last_at(&self, pod: PodId) -> Option<SimTime> {
        self.pod_part(pod).read().pod(pod).and_then(|e| e.ring.last().map(|(at, _)| at))
    }

    /// Drop a pod's series (pod finished; keeps the store bounded over long
    /// experiments).
    pub fn forget_pod(&self, pod: PodId) {
        if let Some(e) = self.pod_part(pod).write().pods.get_mut(pod.0 as usize) {
            *e = None;
        }
    }

    /// Number of samples currently retained for a node.
    pub fn node_len(&self, node: NodeId) -> usize {
        self.node_part(node).read().node(node).map_or(0, |e| e.ring.len)
    }

    /// Number of samples currently retained for a pod.
    pub fn pod_len(&self, pod: PodId) -> usize {
        self.pod_part(pod).read().pod(pod).map_or(0, |e| e.ring.len)
    }

    /// Summary statistics of one node metric over the *retained ring* (not
    /// the query window), computed on demand by a Welford rescan. This is
    /// a diagnostic read — O(ring), never on the per-tick probe path.
    pub fn node_stats(&self, node: NodeId, metric: Metric) -> Option<SeriesStats> {
        self.node_part(node)
            .read()
            .node(node)
            .map(|e| stats_over(e.ring.values().map(|s| s.get(metric))))
    }

    /// Summary statistics of a pod's retained memory series.
    pub fn pod_mem_stats(&self, pod: PodId) -> Option<SeriesStats> {
        self.pod_part(pod).read().pod(pod).map(|e| stats_over(e.ring.values().map(|u| u.mem_mb)))
    }

    /// Summary statistics of a pod's retained SM-share series.
    pub fn pod_sm_stats(&self, pod: PodId) -> Option<SeriesStats> {
        self.pod_part(pod).read().pod(pod).map(|e| stats_over(e.ring.values().map(|u| u.sm_frac)))
    }

    /// The most recent node sample, if any.
    pub fn latest_node(&self, node: NodeId) -> Option<GpuSample> {
        self.node_part(node)
            .read()
            .node(node)
            .and_then(|e| e.ring.last().map(|(at, v)| GpuSample { at, ..*v }))
    }

    /// Node samples within the trailing `window` ending at `now`, oldest
    /// first. This is the §IV-D sliding window (default 5 s) query.
    pub fn node_window(&self, node: NodeId, now: SimTime, window: SimDuration) -> Vec<GpuSample> {
        let start = SimTime(now.0.saturating_sub(window.0));
        let mut out = Vec::new();
        if let Some(e) = self.node_part(node).read().node(node) {
            e.ring.window_runs(start, now, |at0, dt, n, v| {
                for i in 0..n {
                    out.push(GpuSample { at: SimTime(at0.0 + dt.0 * i), ..*v });
                }
            });
        }
        out
    }

    /// One metric of a node over the trailing window, as a plain series.
    pub fn node_series(
        &self,
        node: NodeId,
        metric: Metric,
        now: SimTime,
        window: SimDuration,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.node_series_into(node, metric, now, window, &mut out);
        out
    }

    /// [`TimeSeriesDb::node_series`] into a caller-owned scratch buffer.
    ///
    /// Clears `out` and appends the window's values; returns the sample
    /// count. Reusing one buffer across heartbeats keeps the decision loop
    /// allocation-free once the buffer has grown to the window size, and
    /// each constant run in the window decodes as a single repeat-fill.
    pub fn node_series_into(
        &self,
        node: NodeId,
        metric: Metric,
        now: SimTime,
        window: SimDuration,
        out: &mut Vec<f64>,
    ) -> usize {
        out.clear();
        let start = SimTime(now.0.saturating_sub(window.0));
        if let Some(e) = self.node_part(node).read().node(node) {
            e.ring.window_runs(start, now, |_, _, n, v| {
                out.extend(std::iter::repeat_n(v.get(metric), n as usize));
            });
        }
        out.len()
    }

    /// Pod usage samples within the trailing window, oldest first.
    pub fn pod_window(
        &self,
        pod: PodId,
        now: SimTime,
        window: SimDuration,
    ) -> Vec<(SimTime, Usage)> {
        let start = SimTime(now.0.saturating_sub(window.0));
        let mut out = Vec::new();
        if let Some(e) = self.pod_part(pod).read().pod(pod) {
            e.ring.window_runs(start, now, |at0, dt, n, v| {
                for i in 0..n {
                    out.push((SimTime(at0.0 + dt.0 * i), *v));
                }
            });
        }
        out
    }

    /// A pod's usage-derived series over the trailing window, into a
    /// caller-owned scratch buffer. Clears `out`; returns the sample count.
    fn pod_series_into(
        &self,
        pod: PodId,
        now: SimTime,
        window: SimDuration,
        out: &mut Vec<f64>,
        get: impl Fn(&Usage) -> f64,
    ) -> usize {
        out.clear();
        let start = SimTime(now.0.saturating_sub(window.0));
        if let Some(e) = self.pod_part(pod).read().pod(pod) {
            e.ring.window_runs(start, now, |_, _, n, v| {
                out.extend(std::iter::repeat_n(get(v), n as usize));
            });
        }
        out.len()
    }

    /// A pod's memory series over the trailing window.
    pub fn pod_mem_series(&self, pod: PodId, now: SimTime, window: SimDuration) -> Vec<f64> {
        let mut out = Vec::new();
        self.pod_mem_series_into(pod, now, window, &mut out);
        out
    }

    /// [`TimeSeriesDb::pod_mem_series`] into a caller-owned scratch buffer.
    pub fn pod_mem_series_into(
        &self,
        pod: PodId,
        now: SimTime,
        window: SimDuration,
        out: &mut Vec<f64>,
    ) -> usize {
        self.pod_series_into(pod, now, window, out, |u| u.mem_mb)
    }

    /// A pod's SM-share series over the trailing window.
    pub fn pod_sm_series(&self, pod: PodId, now: SimTime, window: SimDuration) -> Vec<f64> {
        let mut out = Vec::new();
        self.pod_series_into(pod, now, window, &mut out, |u| u.sm_frac);
        out
    }

    /// A pod's total-bandwidth series over the trailing window.
    pub fn pod_bw_series(&self, pod: PodId, now: SimTime, window: SimDuration) -> Vec<f64> {
        let mut out = Vec::new();
        self.pod_series_into(pod, now, window, &mut out, |u| u.total_bw_mbps());
        out
    }

    /// Clear everything (between experiment repetitions).
    pub fn clear(&self) {
        for p in &self.parts {
            let mut g = p.write();
            g.nodes.clear();
            g.pods.clear();
            g.rejected_total = 0;
        }
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (durable control plane; see crates/recovery).
    // ------------------------------------------------------------------

    /// Serializable image of every retained series, run-exact and **flat**:
    /// slot tables are walked in global id order regardless of how the
    /// store is partitioned, so the state (and any digest over it) is
    /// identical across partition counts. Read-only under the read locks
    /// (taken in partition-index order); taking a snapshot never perturbs
    /// the store.
    pub fn snapshot_state(&self) -> TsdbState {
        let guards: Vec<_> = self.parts.iter().map(|p| p.read()).collect();
        let node_len = guards.iter().map(|g| g.nodes.len()).max().unwrap_or(0);
        let pod_len = guards.iter().map(|g| g.pods.len()).max().unwrap_or(0);
        TsdbState {
            rejected_total: guards.iter().map(|g| g.rejected_total).sum(),
            nodes: (0..node_len)
                .map(|i| {
                    let g = &guards[self.layout.shard_of(i)];
                    g.nodes.get(i).and_then(|e| e.as_ref()).map(|e| NodeSeriesState {
                        rejected: e.rejected,
                        runs: e.ring.runs.iter().map(|r| (r.at0, r.dt, r.n, r.v)).collect(),
                    })
                })
                .collect(),
            pods: (0..pod_len)
                .map(|i| {
                    let g = &guards[i % guards.len()];
                    g.pods.get(i).and_then(|e| e.as_ref()).map(|e| PodSeriesState {
                        rejected: e.rejected,
                        runs: e.ring.runs.iter().map(|r| (r.at0, r.dt, r.n, r.v)).collect(),
                    })
                })
                .collect(),
        }
    }

    /// Rebuild a single-partition store from a snapshot plus its original
    /// configuration. See [`TimeSeriesDb::from_state_partitioned`].
    pub fn from_state(cfg: TsdbConfig, state: TsdbState) -> Self {
        Self::from_state_partitioned(cfg, ShardLayout::new(0, 1), state)
    }

    /// Rebuild a store from a snapshot plus its original configuration and
    /// shard layout. The snapshot is flat; series are re-routed into the
    /// partitions of `layout`, so a run captured at one partition count
    /// restores bit-identically at any other. Empty (`None`) slots — pods
    /// forgotten after completion — are preserved, so slot indices keep
    /// their meaning.
    pub fn from_state_partitioned(cfg: TsdbConfig, layout: ShardLayout, state: TsdbState) -> Self {
        fn ring<V: Copy>(runs: Vec<(SimTime, SimDuration, u64, V)>) -> RleRing<V> {
            let len = runs.iter().map(|(_, _, n, _)| *n as usize).sum();
            RleRing {
                runs: runs.into_iter().map(|(at0, dt, n, v)| Run { at0, dt, n, v }).collect(),
                len,
            }
        }
        // Extend the owning partition's slot table to the global index even
        // for `None` slots: trailing forgotten pods must keep the flat
        // table length stable through a snapshot round-trip.
        fn route<T>(table: &mut Vec<Option<T>>, i: usize, e: Option<T>) {
            if table.len() <= i {
                table.resize_with(i + 1, || None);
            }
            table[i] = e;
        }
        let mut inners: Vec<Inner> = (0..layout.shards()).map(|_| Inner::default()).collect();
        // The per-partition split of the running total is not observable
        // (every read sums the partitions), so the whole count lands in
        // partition 0.
        inners[0].rejected_total = state.rejected_total;
        for (i, e) in state.nodes.into_iter().enumerate() {
            let p = layout.shard_of(i);
            let e = e.map(|e| NodeEntry { ring: ring(e.runs), rejected: e.rejected });
            route(&mut inners[p].nodes, i, e);
        }
        let parts_n = inners.len();
        for (i, e) in state.pods.into_iter().enumerate() {
            let p = i % parts_n;
            let e = e.map(|e| PodEntry { ring: ring(e.runs), rejected: e.rejected });
            route(&mut inners[p].pods, i, e);
        }
        TimeSeriesDb { cfg, layout, parts: inners.into_iter().map(RwLock::new).collect() }
    }
}

/// Serializable image of one node series: rejected-sample counter plus the
/// RLE runs as `(at0, dt, n, value)` tuples. The logical sample count is
/// recomputed from the run lengths on restore.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NodeSeriesState {
    /// Samples rejected (non-finite) on this series.
    pub rejected: u64,
    /// The retained runs, oldest first.
    pub runs: Vec<(SimTime, SimDuration, u64, GpuSample)>,
}

/// Serializable image of one pod series; see [`NodeSeriesState`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PodSeriesState {
    /// Samples rejected (non-finite) on this series.
    pub rejected: u64,
    /// The retained runs, oldest first.
    pub runs: Vec<(SimTime, SimDuration, u64, Usage)>,
}

/// Serializable image of the whole store (see [`TimeSeriesDb::snapshot_state`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TsdbState {
    /// Running total of rejected samples across every series.
    pub rejected_total: u64,
    /// Node slot table; `None` slots are preserved.
    pub nodes: Vec<Option<NodeSeriesState>>,
    /// Pod slot table; `None` slots (forgotten pods) are preserved.
    pub pods: Vec<Option<PodSeriesState>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: u64, sm: f64) -> GpuSample {
        GpuSample { at: SimTime::from_millis(ms), sm_util: sm, ..Default::default() }
    }

    #[test]
    fn push_and_window_query() {
        let db = TimeSeriesDb::default();
        for i in 0..100 {
            db.push_node(NodeId(0), sample(i * 10, i as f64 / 100.0));
        }
        assert_eq!(db.node_len(NodeId(0)), 100);
        let w = db.node_window(NodeId(0), SimTime::from_millis(990), SimDuration::from_millis(200));
        assert_eq!(w.len(), 21); // samples at 790..=990 inclusive
        assert!(w.first().unwrap().at >= SimTime::from_millis(790));
        assert_eq!(db.latest_node(NodeId(0)).unwrap().at, SimTime::from_millis(990));
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let db = TimeSeriesDb::new(TsdbConfig { node_capacity: 10, pod_capacity: 4 });
        for i in 0..25 {
            db.push_node(NodeId(1), sample(i, 0.0));
        }
        assert_eq!(db.node_len(NodeId(1)), 10);
        let w = db.node_window(NodeId(1), SimTime::from_millis(30), SimDuration::from_secs(10));
        assert_eq!(w.first().unwrap().at, SimTime::from_micros(15_000));
    }

    #[test]
    fn metric_series_extraction() {
        let db = TimeSeriesDb::default();
        for i in 0..5 {
            db.push_node(NodeId(0), sample(i, (i as f64) / 10.0));
        }
        let s = db.node_series(
            NodeId(0),
            Metric::SmUtil,
            SimTime::from_millis(10),
            SimDuration::from_secs(1),
        );
        assert_eq!(s, vec![0.0, 0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn series_into_matches_allocating_form_and_reuses_buffer() {
        let db = TimeSeriesDb::default();
        for i in 0..64 {
            db.push_node(NodeId(0), sample(i * 10, (i as f64).sin()));
            db.push_pod(
                PodId(3),
                SimTime::from_millis(i * 10),
                Usage::new(0.1, 50.0 + i as f64, 1.0, 1.0),
            );
        }
        let now = SimTime::from_millis(630);
        let w = SimDuration::from_millis(300);
        let mut buf = vec![99.0; 4]; // stale contents must be cleared
        let n = db.node_series_into(NodeId(0), Metric::SmUtil, now, w, &mut buf);
        assert_eq!(buf, db.node_series(NodeId(0), Metric::SmUtil, now, w));
        assert_eq!(n, buf.len());
        let cap_before = buf.capacity();
        db.node_series_into(NodeId(0), Metric::SmUtil, now, w, &mut buf);
        assert_eq!(buf.capacity(), cap_before, "steady state must not reallocate");
        let mut pbuf = Vec::new();
        db.pod_mem_series_into(PodId(3), now, w, &mut pbuf);
        assert_eq!(pbuf, db.pod_mem_series(PodId(3), now, w));
        // Missing keys leave the buffer cleared.
        assert_eq!(db.node_series_into(NodeId(9), Metric::SmUtil, now, w, &mut buf), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn rolling_stats_track_the_retained_ring() {
        // Capacity 8: pushes 0..50 keep only the last 8; the Welford
        // summary (push + inverse-update eviction) must match a rescan.
        let db = TimeSeriesDb::new(TsdbConfig { node_capacity: 8, pod_capacity: 8 });
        for i in 0..50u64 {
            db.push_node(NodeId(0), sample(i, i as f64 * 0.7));
            db.push_pod(PodId(1), SimTime::from_millis(i), Usage::new(0.2, i as f64, 0.0, 0.0));
        }
        let retained: Vec<f64> = (42..50).map(|i| i as f64 * 0.7).collect();
        let naive_mean = retained.iter().sum::<f64>() / retained.len() as f64;
        let naive_var =
            retained.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>() / retained.len() as f64;
        let s = db.node_stats(NodeId(0), Metric::SmUtil).unwrap();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - naive_mean).abs() < 1e-9, "{} vs {naive_mean}", s.mean());
        assert!((s.variance() - naive_var).abs() < 1e-9, "{} vs {naive_var}", s.variance());
        let p = db.pod_mem_stats(PodId(1)).unwrap();
        assert_eq!(p.count(), 8);
        assert!((p.mean() - 45.5).abs() < 1e-9);
        assert!(db.pod_sm_stats(PodId(1)).unwrap().count() == 8);
    }

    #[test]
    fn rolling_stats_survive_long_evict_cycles() {
        // Seeded-LCG fuzz: thousands of push/evict cycles with values of
        // mixed magnitude must not drift the incremental summary off a
        // fresh rescan of the retained window.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 1000.0
        };
        let db = TimeSeriesDb::new(TsdbConfig { node_capacity: 32, pod_capacity: 32 });
        let mut pushed = Vec::new();
        for i in 0..5000u64 {
            let v = lcg();
            pushed.push(v);
            db.push_node(NodeId(0), sample(i, v));
        }
        let tail = &pushed[pushed.len() - 32..];
        let mean = tail.iter().sum::<f64>() / 32.0;
        let var = tail.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 32.0;
        let s = db.node_stats(NodeId(0), Metric::SmUtil).unwrap();
        assert!((s.mean() - mean).abs() / mean.abs() < 1e-6, "{} vs {mean}", s.mean());
        assert!((s.variance() - var).abs() / var < 1e-6, "{} vs {var}", s.variance());
    }

    #[test]
    fn stats_degenerate_cases() {
        let mut s = SeriesStats::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        s.evict(1.0); // evicting from empty is a no-op
        assert_eq!(s.count(), 0);
        s.push(5.0);
        assert_eq!(s.variance(), 0.0);
        s.evict(5.0);
        assert_eq!(s, SeriesStats::default());
        let db = TimeSeriesDb::default();
        assert!(db.node_stats(NodeId(0), Metric::SmUtil).is_none());
        assert!(db.pod_mem_stats(PodId(0)).is_none());
    }

    #[test]
    fn pod_series_round_trip() {
        let db = TimeSeriesDb::default();
        for i in 0..10u64 {
            db.push_pod(
                PodId(7),
                SimTime::from_millis(i),
                Usage::new(0.5, 100.0 + i as f64, 1.0, 2.0),
            );
        }
        assert_eq!(db.pod_len(PodId(7)), 10);
        let mem = db.pod_mem_series(PodId(7), SimTime::from_millis(9), SimDuration::from_secs(1));
        assert_eq!(mem.len(), 10);
        assert_eq!(mem[9], 109.0);
        let bw = db.pod_bw_series(PodId(7), SimTime::from_millis(9), SimDuration::from_secs(1));
        assert!(bw.iter().all(|&b| (b - 3.0).abs() < 1e-12));
        db.forget_pod(PodId(7));
        assert_eq!(db.pod_len(PodId(7)), 0);
        assert!(db.pod_mem_stats(PodId(7)).is_none(), "forget drops the rolling stats too");
    }

    #[test]
    fn non_finite_samples_are_rejected_and_counted() {
        let db = TimeSeriesDb::default();
        assert!(db.push_node(NodeId(0), sample(0, 0.4)));
        assert!(!db.push_node(NodeId(0), sample(1, f64::NAN)));
        assert!(!db.push_node(NodeId(0), sample(2, f64::INFINITY)));
        assert!(db.push_node(NodeId(0), sample(3, 0.6)));
        // Only the two finite samples are retained; stats stay finite.
        assert_eq!(db.node_len(NodeId(0)), 2);
        assert_eq!(db.node_rejected(NodeId(0)), 2);
        let s = db.node_stats(NodeId(0), Metric::SmUtil).unwrap();
        assert!((s.mean() - 0.5).abs() < 1e-12);
        // Freshness reflects the last *accepted* sample.
        assert_eq!(db.node_last_at(NodeId(0)), Some(SimTime::from_millis(3)));

        assert!(!db.push_pod(PodId(1), SimTime::ZERO, Usage::new(0.1, f64::NAN, 0.0, 0.0)));
        assert!(!db.push_pod(
            PodId(1),
            SimTime::ZERO,
            Usage::new(f64::NEG_INFINITY, 1.0, 0.0, 0.0)
        ));
        assert!(db.push_pod(PodId(1), SimTime::from_millis(5), Usage::new(0.1, 10.0, 0.0, 0.0)));
        assert_eq!(db.pod_len(PodId(1)), 1);
        assert_eq!(db.pod_rejected(PodId(1)), 2);
        assert_eq!(db.pod_last_at(PodId(1)), Some(SimTime::from_millis(5)));
        assert_eq!(db.rejected_total(), 4);
        db.clear();
        assert_eq!(db.rejected_total(), 0);
    }

    #[test]
    fn freshness_of_missing_series_is_none() {
        let db = TimeSeriesDb::default();
        assert_eq!(db.node_last_at(NodeId(7)), None);
        assert_eq!(db.pod_last_at(PodId(7)), None);
        assert_eq!(db.node_rejected(NodeId(7)), 0);
        assert_eq!(db.rejected_total(), 0);
    }

    #[test]
    fn empty_queries_are_empty() {
        let db = TimeSeriesDb::default();
        assert!(db
            .node_window(NodeId(3), SimTime::from_secs(1), SimDuration::from_secs(1))
            .is_empty());
        assert!(db.latest_node(NodeId(3)).is_none());
        assert_eq!(db.pod_sm_series(PodId(1), SimTime::ZERO, SimDuration::from_secs(1)).len(), 0);
    }

    #[test]
    fn clear_resets() {
        let db = TimeSeriesDb::default();
        db.push_node(NodeId(0), sample(0, 0.1));
        db.push_pod(PodId(0), SimTime::ZERO, Usage::ZERO);
        db.clear();
        assert_eq!(db.node_len(NodeId(0)), 0);
        assert_eq!(db.pod_len(PodId(0)), 0);
        assert!(db.node_stats(NodeId(0), Metric::SmUtil).is_none());
    }

    #[test]
    fn batched_writer_matches_one_shot_pushes() {
        let a = TimeSeriesDb::new(TsdbConfig { node_capacity: 16, pod_capacity: 16 });
        let b = TimeSeriesDb::new(TsdbConfig { node_capacity: 16, pod_capacity: 16 });
        {
            let mut w = a.writer();
            for i in 0..40u64 {
                w.push_node(NodeId(0), sample(i, (i as f64).cos()));
                w.push_pod(PodId(1), SimTime::from_millis(i), Usage::new(0.3, i as f64, 1.0, 0.0));
            }
            assert!(!w.push_node(NodeId(0), sample(40, f64::NAN)), "rejection rule preserved");
        }
        for i in 0..40u64 {
            b.push_node(NodeId(0), sample(i, (i as f64).cos()));
            b.push_pod(PodId(1), SimTime::from_millis(i), Usage::new(0.3, i as f64, 1.0, 0.0));
        }
        b.push_node(NodeId(0), sample(40, f64::NAN));
        let now = SimTime::from_millis(39);
        let w = SimDuration::from_secs(1);
        assert_eq!(
            a.node_series(NodeId(0), Metric::SmUtil, now, w),
            b.node_series(NodeId(0), Metric::SmUtil, now, w)
        );
        assert_eq!(
            a.node_stats(NodeId(0), Metric::SmUtil),
            b.node_stats(NodeId(0), Metric::SmUtil)
        );
        assert_eq!(a.node_rejected(NodeId(0)), b.node_rejected(NodeId(0)));
        assert_eq!(a.pod_mem_series(PodId(1), now, w), b.pod_mem_series(PodId(1), now, w));
    }

    #[test]
    fn span_backfill_matches_per_tick_pushes() {
        // 12 quiet ticks through push_node_span must equal 12 individual
        // pushes of the same constant sample with advancing timestamps —
        // including ring eviction and retained-sample stats.
        let a = TimeSeriesDb::new(TsdbConfig { node_capacity: 8, pod_capacity: 8 });
        let b = TimeSeriesDb::new(TsdbConfig { node_capacity: 8, pod_capacity: 8 });
        let dt = SimDuration::from_millis(10);
        let start = SimTime::from_millis(100);
        let quiet = GpuSample {
            at: start,
            sm_util: 0.0,
            mem_used_mb: 0.0,
            power_watts: 9.0,
            tx_mbps: 0.0,
            rx_mbps: 0.0,
        };
        let accepted = a.writer().push_node_span(NodeId(3), quiet, start, dt, 12);
        assert_eq!(accepted, 12);
        for i in 1..=12u64 {
            b.push_node(NodeId(3), GpuSample { at: start + dt * i, ..quiet });
        }
        let now = start + dt * 12;
        let w = SimDuration::from_secs(5);
        let wa = a.node_window(NodeId(3), now, w);
        let wb = b.node_window(NodeId(3), now, w);
        assert_eq!(wa.len(), wb.len());
        for (x, y) in wa.iter().zip(wb.iter()) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.power_watts, y.power_watts);
        }
        assert_eq!(
            a.node_stats(NodeId(3), Metric::PowerWatts),
            b.node_stats(NodeId(3), Metric::PowerWatts)
        );
        assert_eq!(a.node_last_at(NodeId(3)), b.node_last_at(NodeId(3)));
    }

    #[test]
    fn runs_merge_only_bit_identical_values_and_spacing() {
        // A constant series collapses into one run; a value change or an
        // off-grid timestamp starts a new run. Either way the materialized
        // window is identical to a flat ring.
        let db = TimeSeriesDb::default();
        for i in 0..6u64 {
            db.push_node(NodeId(0), sample(i * 10, 0.25));
        }
        db.push_node(NodeId(0), sample(60, -0.0)); // -0.0 must not merge with 0.0 later
        db.push_node(NodeId(0), sample(70, 0.0));
        db.push_node(NodeId(0), sample(95, 0.0)); // same value, broken spacing
        let s = db.node_series(
            NodeId(0),
            Metric::SmUtil,
            SimTime::from_millis(95),
            SimDuration::from_secs(1),
        );
        assert_eq!(s.len(), 9);
        assert_eq!(&s[..6], &[0.25; 6]);
        assert_eq!(s[6].to_bits(), (-0.0f64).to_bits());
        assert_eq!(s[7].to_bits(), 0.0f64.to_bits());
        assert_eq!(s[8].to_bits(), 0.0f64.to_bits());
        let w = db.node_window(NodeId(0), SimTime::from_millis(95), SimDuration::from_secs(1));
        let ats: Vec<u64> = w.iter().map(|g| g.at.0).collect();
        let expect: Vec<u64> =
            [0u64, 10, 20, 30, 40, 50, 60, 70, 95].iter().map(|ms| ms * 1000).collect();
        assert_eq!(ats, expect);
    }

    #[test]
    fn partial_eviction_trims_run_fronts_sample_exactly() {
        // Capacity 10 over one long constant run: eviction shortens the
        // run in place, so retention is sample-exact.
        let db = TimeSeriesDb::new(TsdbConfig { node_capacity: 10, pod_capacity: 10 });
        let quiet = sample(0, 0.5);
        db.push_node(NodeId(0), quiet);
        let dt = SimDuration::from_millis(1);
        db.writer().push_node_span(NodeId(0), quiet, SimTime::ZERO, dt, 24);
        assert_eq!(db.node_len(NodeId(0)), 10);
        let w = db.node_window(NodeId(0), SimTime::from_millis(24), SimDuration::from_secs(1));
        assert_eq!(w.len(), 10);
        assert_eq!(w.first().unwrap().at, SimTime::from_millis(15));
        assert_eq!(w.last().unwrap().at, SimTime::from_millis(24));
    }

    #[test]
    fn partitioned_store_matches_single_partition() {
        // The same push sequence against 1-, 2- and 4-partition stores must
        // be indistinguishable through every query and through the flat
        // snapshot — partitioning only moves locks, never data.
        let cfg = TsdbConfig { node_capacity: 32, pod_capacity: 32 };
        let feed = |db: &TimeSeriesDb| {
            for i in 0..200u64 {
                for n in 0..8usize {
                    db.push_node(NodeId(n), sample(i * 10, (i as f64 + n as f64).sin()));
                }
                for p in 0..5u64 {
                    db.push_pod(
                        PodId(p),
                        SimTime::from_millis(i * 10),
                        Usage::new(0.2, i as f64 + p as f64, 1.0, 0.0),
                    );
                }
            }
            db.push_node(NodeId(3), sample(9999, f64::NAN));
            db.forget_pod(PodId(4));
        };
        let flat = TimeSeriesDb::new(cfg);
        feed(&flat);
        let base = flat.snapshot_state();
        for shards in [2usize, 4] {
            let db = TimeSeriesDb::partitioned(cfg, ShardLayout::new(8, shards));
            assert_eq!(db.partitions(), shards);
            feed(&db);
            assert_eq!(db.snapshot_state(), base, "{shards} partitions");
            assert_eq!(db.rejected_total(), flat.rejected_total());
            let now = SimTime::from_millis(1990);
            let w = SimDuration::from_secs(1);
            for n in 0..8usize {
                assert_eq!(
                    db.node_series(NodeId(n), Metric::SmUtil, now, w),
                    flat.node_series(NodeId(n), Metric::SmUtil, now, w)
                );
                assert_eq!(db.node_last_at(NodeId(n)), flat.node_last_at(NodeId(n)));
            }
            for p in 0..5u64 {
                assert_eq!(
                    db.pod_mem_series(PodId(p), now, w),
                    flat.pod_mem_series(PodId(p), now, w)
                );
            }
        }
    }

    #[test]
    fn snapshot_round_trips_across_partition_counts() {
        // Capture at one partition count, restore at another: the restored
        // store must re-snapshot identically and answer queries the same.
        let cfg = TsdbConfig { node_capacity: 16, pod_capacity: 16 };
        let db = TimeSeriesDb::partitioned(cfg, ShardLayout::new(6, 3));
        for i in 0..50u64 {
            for n in 0..6usize {
                db.push_node(NodeId(n), sample(i, (n as f64) * 0.1));
            }
            db.push_pod(PodId(9), SimTime::from_millis(i), Usage::new(0.4, i as f64, 0.0, 0.0));
        }
        db.forget_pod(PodId(9)); // trailing None slot must survive the trip
        let state = db.snapshot_state();
        for shards in [1usize, 2, 6] {
            let re = TimeSeriesDb::from_state_partitioned(
                cfg,
                ShardLayout::new(6, shards),
                state.clone(),
            );
            assert_eq!(re.snapshot_state(), state, "{shards} partitions");
            assert_eq!(re.pod_len(PodId(9)), 0);
            assert_eq!(re.node_len(NodeId(5)), db.node_len(NodeId(5)));
        }
    }

    #[test]
    fn concurrent_writers_and_reader() {
        let db = std::sync::Arc::new(TimeSeriesDb::default());
        let mut handles = vec![];
        for n in 0..4usize {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    db.push_node(NodeId(n), sample(i, 0.5));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for n in 0..4usize {
            assert_eq!(db.node_len(NodeId(n)), 1000);
        }
    }
}
