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
//! * **An idle-span backfill is O(1)**: [`TsdbWriter::push_node_span`]
//!   extends the back run by `n` instead of appending `n` samples, and
//!   leaves the ring exactly as `n` pushes would. The event loop leans on
//!   this — the owed samples of an idle node cost one call however many
//!   ticks it skipped.
//! * **Pushes only touch the ring**: a push is a finite-value check plus a
//!   run extend-or-append; the store keeps no per-series summary to update.
//! * **Queries decode run by run**: the `*_series` queries decode each
//!   constant run in the window as one repeat-fill rather than a
//!   per-sample copy, and [`TimeSeriesDb::pod_mem_runs_into`] hands the
//!   runs themselves to a caller-owned buffer, so the scheduler's per-round
//!   reference refresh costs O(runs) and decodes only when it is read.

use knots_sim::cluster::ShardLayout;
use knots_sim::ids::{NodeId, PodId};
use knots_sim::metrics::{GpuSample, Metric};
use knots_sim::resources::Usage;
use knots_sim::time::{SimDuration, SimTime};
use std::cell::{RefCell, RefMut};
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
    /// in O(1), the sample at `at` being `v_at(at)`. The ring ends exactly
    /// as `ticks` calls of [`RleRing::push`] leave it — the same runs,
    /// spacings and stored values: the first sample goes through `push`,
    /// and the rest extend the run it landed in, or start one new run when
    /// that run has another spacing.
    fn push_span(
        &mut self,
        cap: usize,
        start: SimTime,
        dt: SimDuration,
        ticks: u64,
        v_at: impl Fn(SimTime) -> V,
        eq: impl Fn(&V, &V) -> bool,
    ) {
        debug_assert!(dt.0 > 0 && ticks > 0, "a span needs a positive tick and length");
        let first = SimTime(start.0 + dt.0);
        self.push(cap, first, v_at(first), &eq);
        let more = ticks - 1;
        if more == 0 {
            return;
        }
        match self.runs.back_mut() {
            // A single-sample run takes its spacing from the second sample.
            Some(r) if r.n == 1 || r.dt.0 == dt.0 => {
                r.dt = dt;
                r.n += more;
            }
            _ => {
                let at0 = SimTime(first.0 + dt.0);
                let spacing = if more > 1 { dt } else { SimDuration(0) };
                self.runs.push_back(Run { at0, dt: spacing, n: more, v: v_at(at0) });
            }
        }
        self.len += more as usize;
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

/// A batched write handle holding the store's one mutable borrow.
///
/// Per-tick probing pushes one sample per node and one per running pod
/// through one borrow instead of one per push. Values written through the
/// writer are bit-identical to the one-shot [`TimeSeriesDb::push_node`] /
/// [`TimeSeriesDb::push_pod`] calls. Drop the writer before reading the
/// store again: a read while it is live panics.
#[derive(Debug)]
pub struct TsdbWriter<'a> {
    cfg: TsdbConfig,
    inner: RefMut<'a, Inner>,
}

impl TsdbWriter<'_> {
    /// Append a node sample; same semantics as [`TimeSeriesDb::push_node`].
    pub fn push_node(&mut self, node: NodeId, sample: GpuSample) -> bool {
        self.inner.push_node(&self.cfg, node, sample)
    }

    /// Append a pod usage sample; same semantics as
    /// [`TimeSeriesDb::push_pod`].
    pub fn push_pod(&mut self, pod: PodId, at: SimTime, usage: Usage) -> bool {
        self.inner.push_pod(&self.cfg, pod, at, usage)
    }

    /// Backfill `ticks` constant samples for an idle node: `sample`'s
    /// metric values at `start + dt`, `start + 2·dt`, …, `start + ticks·dt`
    /// (its own `at` is ignored). O(1) on the run-length-encoded ring, and
    /// the series — runs, spacings, stored samples, snapshot bytes — ends
    /// up exactly as `ticks` per-tick [`TsdbWriter::push_node`] calls leave
    /// it. Returns accepted samples.
    pub fn push_node_span(
        &mut self,
        node: NodeId,
        sample: GpuSample,
        start: SimTime,
        dt: SimDuration,
        ticks: u64,
    ) -> u64 {
        if ticks == 0 {
            return 0;
        }
        let cap = self.cfg.node_capacity;
        let g = &mut *self.inner;
        if Metric::ALL.iter().any(|m| !sample.get(*m).is_finite()) {
            // Every sample in the span carries the same values, so the
            // whole span is rejected exactly as `ticks` one-shot pushes
            // would have been.
            slot(&mut g.nodes, node.0).rejected += ticks;
            g.rejected_total += ticks;
            return 0;
        }
        let v_at = |at| GpuSample { at, ..sample };
        slot(&mut g.nodes, node.0).ring.push_span(cap, start, dt, ticks, v_at, gpu_eq);
        ticks
    }
}

/// The time-series database: one store with one owner.
///
/// The orchestrator owns it and is its only writer (the per-tick probe,
/// through a [`TsdbWriter`]); schedulers read it between writes, on the
/// same thread. A `RefCell` keeps the `&self` write API that the
/// benchmark's loop copy still calls, and makes the store `!Sync`, so the
/// compiler refuses to share it between threads:
///
/// ```compile_fail,E0277
/// fn sync<T: Sync>() {}
/// sync::<knots_telemetry::TimeSeriesDb>();
/// ```
#[derive(Debug)]
pub struct TimeSeriesDb {
    cfg: TsdbConfig,
    inner: RefCell<Inner>,
}

impl Default for TimeSeriesDb {
    fn default() -> Self {
        Self::new(TsdbConfig::default())
    }
}

impl TimeSeriesDb {
    /// Create an empty store.
    pub fn new(cfg: TsdbConfig) -> Self {
        TimeSeriesDb { cfg, inner: RefCell::new(Inner::default()) }
    }

    /// Append a node sample. A sample carrying any non-finite metric value
    /// (NaN/Inf — e.g. a corrupted probe read) is *rejected*, not stored:
    /// storing it would poison every window statistic derived from the
    /// series. Returns whether the sample was accepted; rejections are
    /// counted per series and in total.
    pub fn push_node(&self, node: NodeId, sample: GpuSample) -> bool {
        self.inner.borrow_mut().push_node(&self.cfg, node, sample)
    }

    /// Append a pod usage sample, with the same non-finite rejection rule
    /// as [`TimeSeriesDb::push_node`].
    pub fn push_pod(&self, pod: PodId, at: SimTime, usage: Usage) -> bool {
        self.inner.borrow_mut().push_pod(&self.cfg, pod, at, usage)
    }

    /// Open a batched write handle that holds the store's mutable borrow
    /// until dropped. Use for per-tick probe bursts: one borrow per tick
    /// instead of one per sample.
    pub fn writer(&self) -> TsdbWriter<'_> {
        TsdbWriter { cfg: self.cfg, inner: self.inner.borrow_mut() }
    }

    /// Rejected (non-finite) samples for one node series.
    pub fn node_rejected(&self, node: NodeId) -> u64 {
        self.inner.borrow().node(node).map_or(0, |e| e.rejected)
    }

    /// Rejected (non-finite) samples for one pod series.
    pub fn pod_rejected(&self, pod: PodId) -> u64 {
        self.inner.borrow().pod(pod).map_or(0, |e| e.rejected)
    }

    /// Total rejected samples across every series since creation.
    pub fn rejected_total(&self) -> u64 {
        self.inner.borrow().rejected_total
    }

    /// Timestamp of the most recent *accepted* sample of a node series —
    /// the freshness signal consumers use to spot probe dropouts.
    pub fn node_last_at(&self, node: NodeId) -> Option<SimTime> {
        self.inner.borrow().node(node).and_then(|e| e.ring.last().map(|(at, _)| at))
    }

    /// Timestamp of the most recent *accepted* sample of a pod series.
    pub fn pod_last_at(&self, pod: PodId) -> Option<SimTime> {
        self.inner.borrow().pod(pod).and_then(|e| e.ring.last().map(|(at, _)| at))
    }

    /// Drop a pod's series (pod finished; keeps the store bounded over long
    /// experiments).
    pub fn forget_pod(&self, pod: PodId) {
        if let Some(e) = self.inner.borrow_mut().pods.get_mut(pod.0 as usize) {
            *e = None;
        }
    }

    /// Number of samples currently retained for a node.
    pub fn node_len(&self, node: NodeId) -> usize {
        self.inner.borrow().node(node).map_or(0, |e| e.ring.len)
    }

    /// Number of samples currently retained for a pod.
    pub fn pod_len(&self, pod: PodId) -> usize {
        self.inner.borrow().pod(pod).map_or(0, |e| e.ring.len)
    }

    /// The most recent node sample, if any.
    pub fn latest_node(&self, node: NodeId) -> Option<GpuSample> {
        self.inner
            .borrow()
            .node(node)
            .and_then(|e| e.ring.last().map(|(at, v)| GpuSample { at, ..*v }))
    }

    /// Node samples within the trailing `window` ending at `now`, oldest
    /// first. This is the §IV-D sliding window (default 5 s) query.
    pub fn node_window(&self, node: NodeId, now: SimTime, window: SimDuration) -> Vec<GpuSample> {
        let start = SimTime(now.0.saturating_sub(window.0));
        let mut out = Vec::new();
        if let Some(e) = self.inner.borrow().node(node) {
            e.ring.window_runs(start, now, |at0, dt, n, v| {
                for i in 0..n {
                    out.push(GpuSample { at: SimTime(at0.0 + dt.0 * i), ..*v });
                }
            });
        }
        out
    }

    /// One metric of a node over the trailing window, as a plain series.
    /// Each constant run in the window decodes as a single repeat-fill.
    pub fn node_series(
        &self,
        node: NodeId,
        metric: Metric,
        now: SimTime,
        window: SimDuration,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        let start = SimTime(now.0.saturating_sub(window.0));
        if let Some(e) = self.inner.borrow().node(node) {
            e.ring.window_runs(start, now, |_, _, n, v| {
                out.extend(std::iter::repeat_n(v.get(metric), n as usize));
            });
        }
        out
    }

    /// A pod's memory series over the trailing window.
    pub fn pod_mem_series(&self, pod: PodId, now: SimTime, window: SimDuration) -> Vec<f64> {
        let mut out = Vec::new();
        let start = SimTime(now.0.saturating_sub(window.0));
        if let Some(e) = self.inner.borrow().pod(pod) {
            e.ring.window_runs(start, now, |_, _, n, v| {
                out.extend(std::iter::repeat_n(v.mem_mb, n as usize));
            });
        }
        out
    }

    /// [`TimeSeriesDb::pod_mem_series`] as `(count, value)` runs:
    /// decoding each run as `count` copies of `value` gives that series bit
    /// for bit. Adjacent runs with bit-identical memory values merge (a
    /// ring run changes when any usage field does), so the cost is
    /// O(runs in the window). Clears `out`; returns the sample count.
    pub fn pod_mem_runs_into(
        &self,
        pod: PodId,
        now: SimTime,
        window: SimDuration,
        out: &mut Vec<(u64, f64)>,
    ) -> usize {
        out.clear();
        let start = SimTime(now.0.saturating_sub(window.0));
        let mut len = 0;
        if let Some(e) = self.inner.borrow().pod(pod) {
            e.ring.window_runs(start, now, |_, _, n, v| {
                len += n as usize;
                match out.last_mut() {
                    Some((count, m)) if m.to_bits() == v.mem_mb.to_bits() => *count += n,
                    _ => out.push((n, v.mem_mb)),
                }
            });
        }
        len
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (durable control plane; see crates/recovery).
    // ------------------------------------------------------------------

    /// Serializable image of every retained series, run-exact, with the
    /// slot tables in id order. Read-only; taking a snapshot never perturbs
    /// the store.
    pub fn snapshot_state(&self) -> TsdbState {
        let g = self.inner.borrow();
        TsdbState {
            rejected_total: g.rejected_total,
            nodes: g
                .nodes
                .iter()
                .map(|e| {
                    e.as_ref().map(|e| NodeSeriesState {
                        rejected: e.rejected,
                        runs: e.ring.runs.iter().map(|r| (r.at0, r.dt, r.n, r.v)).collect(),
                    })
                })
                .collect(),
            pods: g
                .pods
                .iter()
                .map(|e| {
                    e.as_ref().map(|e| PodSeriesState {
                        rejected: e.rejected,
                        runs: e.ring.runs.iter().map(|r| (r.at0, r.dt, r.n, r.v)).collect(),
                    })
                })
                .collect(),
        }
    }

    /// Rebuild a store from a snapshot plus its original configuration.
    /// Empty (`None`) slots — pods forgotten after completion — are
    /// preserved, so slot indices keep their meaning.
    pub fn from_state(cfg: TsdbConfig, state: TsdbState) -> Self {
        fn ring<V: Copy>(runs: Vec<(SimTime, SimDuration, u64, V)>) -> RleRing<V> {
            let len = runs.iter().map(|(_, _, n, _)| *n as usize).sum();
            RleRing {
                runs: runs.into_iter().map(|(at0, dt, n, v)| Run { at0, dt, n, v }).collect(),
                len,
            }
        }
        let inner = Inner {
            rejected_total: state.rejected_total,
            nodes: state
                .nodes
                .into_iter()
                .map(|e| e.map(|e| NodeEntry { ring: ring(e.runs), rejected: e.rejected }))
                .collect(),
            pods: state
                .pods
                .into_iter()
                .map(|e| e.map(|e| PodEntry { ring: ring(e.runs), rejected: e.rejected }))
                .collect(),
        };
        TimeSeriesDb { cfg, inner: RefCell::new(inner) }
    }
}

// ----------------------------------------------------------------------
// Single-partition stand-ins. The benchmark's copy of the event loop
// (`perfbench/`) still names these; no program path calls them. The
// change to the benchmark that deletes that copy deletes them with it.
// ----------------------------------------------------------------------

impl TimeSeriesDb {
    /// Same as [`TimeSeriesDb::new`]: the store is one partition.
    pub fn partitioned(cfg: TsdbConfig, _layout: ShardLayout) -> Self {
        Self::new(cfg)
    }

    /// Same as [`TimeSeriesDb::from_state`]: the store is one partition.
    pub fn from_state_partitioned(cfg: TsdbConfig, _layout: ShardLayout, state: TsdbState) -> Self {
        Self::from_state(cfg, state)
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

    /// Every sample of a node's window as `(at, metric bits)`, so equality
    /// is bitwise (`-0.0 != 0.0`) rather than numeric.
    fn window_bits(
        db: &TimeSeriesDb,
        node: NodeId,
        now: SimTime,
        w: SimDuration,
    ) -> Vec<(SimTime, [u64; 5])> {
        db.node_window(node, now, w)
            .iter()
            .map(|g| (g.at, Metric::ALL.map(|m| g.get(m).to_bits())))
            .collect()
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
            db.push_pod(PodId(2), SimTime::from_millis(i), Usage::new(0.2, i as f64, 0.0, 0.0));
        }
        assert_eq!(db.node_len(NodeId(1)), 10);
        let w = db.node_window(NodeId(1), SimTime::from_millis(30), SimDuration::from_secs(10));
        assert_eq!(w.first().unwrap().at, SimTime::from_micros(15_000));
        assert_eq!(db.pod_len(PodId(2)), 4);
        let mem = db.pod_mem_series(PodId(2), SimTime::from_millis(30), SimDuration::from_secs(10));
        assert_eq!(mem, vec![21.0, 22.0, 23.0, 24.0]);
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

    proptest::proptest! {
        // Few cases: this module also runs under Miri.
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 16, ..Default::default() })]

        /// Random single pushes (on and off a 1 ms grid), span pushes, and
        /// `forget_pod` over a small capacity (so eviction trims runs):
        /// after every step, decoding `pod_mem_runs_into` gives exactly
        /// `pod_mem_series`'s bits, for windows ending now and in the
        /// past, with no empty run and no two adjacent runs of equal bits.
        #[test]
        fn pod_mem_runs_decode_to_the_series(
            cap in 1usize..24,
            ops in proptest::collection::vec((0u8..8, 0usize..3, 0usize..2, 1u64..20), 1..40),
            window_ms in 1u64..40,
            back_ms in 0u64..10,
        ) {
            let db = TimeSeriesDb::new(TsdbConfig { node_capacity: 4, pod_capacity: cap });
            let pod = PodId(1);
            let mut now = SimTime::ZERO;
            let mut runs = Vec::new();
            for (kind, mem, sm, n) in ops {
                // Memory values include ±0.0; a changing SM share splits
                // the ring's runs without changing the memory value.
                let usage = Usage::new([0.1, 0.2][sm], [0.0, -0.0, 64.0][mem], 0.0, 0.0);
                match kind {
                    0 => db.forget_pod(pod),
                    1 | 2 => {
                        let dt = SimDuration::from_millis(u64::from(kind));
                        let g = &mut *db.inner.borrow_mut();
                        slot(&mut g.pods, 1).ring.push_span(cap, now, dt, n, |_| usage, usage_eq);
                        now += dt * n;
                    }
                    _ => {
                        now += SimDuration::from_micros(500 * (1 + u64::from(kind % 2)));
                        db.push_pod(pod, now, usage);
                    }
                }
                for at in [now, SimTime(now.0.saturating_sub(back_ms * 1000))] {
                    for w in [SimDuration::from_millis(window_ms), SimDuration::from_secs(5)] {
                        let len = db.pod_mem_runs_into(pod, at, w, &mut runs);
                        let series = db.pod_mem_series(pod, at, w);
                        let decoded: Vec<u64> = runs
                            .iter()
                            .flat_map(|&(c, v)| std::iter::repeat_n(v.to_bits(), c as usize))
                            .collect();
                        let want: Vec<u64> = series.iter().map(|v| v.to_bits()).collect();
                        proptest::prop_assert_eq!(decoded, want);
                        proptest::prop_assert_eq!(len, series.len());
                        proptest::prop_assert!(runs.iter().all(|&(c, _)| c > 0));
                        proptest::prop_assert!(runs.windows(2).all(|p| p[0].1.to_bits() != p[1].1.to_bits()));
                    }
                }
            }
        }
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
        db.forget_pod(PodId(7));
        assert_eq!(db.pod_len(PodId(7)), 0);
        assert_eq!(db.pod_last_at(PodId(7)), None, "forget drops the whole series");
    }

    #[test]
    fn non_finite_samples_are_rejected_and_counted() {
        let db = TimeSeriesDb::default();
        assert!(db.push_node(NodeId(0), sample(0, 0.4)));
        assert!(!db.push_node(NodeId(0), sample(1, f64::NAN)));
        assert!(!db.push_node(NodeId(0), sample(2, f64::INFINITY)));
        assert!(db.push_node(NodeId(0), sample(3, 0.6)));
        // Only the two finite samples are retained.
        assert_eq!(db.node_len(NodeId(0)), 2);
        assert_eq!(db.node_rejected(NodeId(0)), 2);
        let s = db.node_series(
            NodeId(0),
            Metric::SmUtil,
            SimTime::from_millis(3),
            SimDuration::from_secs(1),
        );
        assert_eq!(s, vec![0.4, 0.6]);
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
        assert!(db.pod_mem_series(PodId(1), SimTime::ZERO, SimDuration::from_secs(1)).is_empty());
        assert!(db
            .node_series(
                NodeId(9),
                Metric::SmUtil,
                SimTime::from_secs(1),
                SimDuration::from_secs(1)
            )
            .is_empty());
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
        assert_eq!(window_bits(&a, NodeId(0), now, w), window_bits(&b, NodeId(0), now, w));
        assert_eq!(a.node_rejected(NodeId(0)), b.node_rejected(NodeId(0)));
        assert_eq!(a.pod_mem_series(PodId(1), now, w), b.pod_mem_series(PodId(1), now, w));
    }

    #[test]
    fn span_backfill_matches_per_tick_pushes() {
        // 12 quiet ticks through push_node_span must equal 12 individual
        // pushes of the same constant sample with advancing timestamps —
        // including ring eviction, down to the bits of every retained sample.
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
        assert_eq!(a.node_len(NodeId(3)), 8);
        assert_eq!(window_bits(&a, NodeId(3), now, w), window_bits(&b, NodeId(3), now, w));
        assert_eq!(a.node_last_at(NodeId(3)), b.node_last_at(NodeId(3)));
        assert_eq!(a.snapshot_state(), b.snapshot_state());
    }

    #[test]
    fn span_backfill_leaves_the_ring_of_per_tick_pushes() {
        // Random interleavings of single pushes (two values, on and off
        // the tick grid) and spans of 0-30 ticks over small capacities:
        // the span path must leave exactly the runs — spacing, stored
        // sample and all — that the same samples pushed one by one leave.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _ in 0..400 {
            let cfg = TsdbConfig { node_capacity: 1 + next(12) as usize, pod_capacity: 4 };
            let (a, b) = (TimeSeriesDb::new(cfg), TimeSeriesDb::new(cfg));
            let mut now = SimTime::ZERO;
            for _ in 0..next(8) + 1 {
                let v = sample(0, [0.0, 0.5][next(2) as usize]);
                if next(3) == 0 {
                    now += SimDuration::from_micros(1 + next(3) * 500);
                    a.push_node(NodeId(0), GpuSample { at: now, ..v });
                    b.push_node(NodeId(0), GpuSample { at: now, ..v });
                } else {
                    let dt = SimDuration::from_millis(1 + next(2));
                    let ticks = next(31);
                    a.writer().push_node_span(NodeId(0), v, now, dt, ticks);
                    for i in 1..=ticks {
                        b.push_node(NodeId(0), GpuSample { at: now + dt * i, ..v });
                    }
                    now += dt * ticks;
                }
                assert_eq!(a.snapshot_state(), b.snapshot_state());
            }
        }
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
    fn snapshot_round_trip_keeps_forgotten_slots() {
        // The restored store re-snapshots identically and answers queries
        // the same; a trailing forgotten pod keeps its `None` slot.
        let cfg = TsdbConfig { node_capacity: 16, pod_capacity: 16 };
        let db = TimeSeriesDb::new(cfg);
        for i in 0..50u64 {
            for n in 0..6usize {
                db.push_node(NodeId(n), sample(i, (n as f64) * 0.1));
            }
            db.push_pod(PodId(9), SimTime::from_millis(i), Usage::new(0.4, i as f64, 0.0, 0.0));
        }
        db.push_node(NodeId(2), sample(99, f64::NAN));
        db.forget_pod(PodId(9));
        let state = db.snapshot_state();
        assert_eq!(state.pods.len(), 10);
        let re = TimeSeriesDb::from_state(cfg, state.clone());
        assert_eq!(re.snapshot_state(), state);
        assert_eq!(re.pod_len(PodId(9)), 0);
        assert_eq!(re.node_len(NodeId(5)), db.node_len(NodeId(5)));
        assert_eq!(re.rejected_total(), 1);
    }
}
