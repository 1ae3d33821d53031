//! Per-round memoization for the decision loop's telemetry statistics.
//!
//! Every heartbeat the GPU-aware schedulers re-derive the same quantities
//! many times over: CBP's correlation gate fetches each resident pod's
//! memory series once per *candidate pod × node* pair, ranks the same
//! series repeatedly, and PP re-fetches a node's memory series for every
//! pending pod probing that node. [`StatsCache`] memoizes all of it for
//! exactly one scheduling round:
//!
//! * fetched pod/node series (shared via `Rc`, filled through the TSDB's
//!   copy-into-scratch path),
//! * Spearman rank vectors per (series, overlap-length),
//! * pairwise Spearman ρ keyed by (app, resident pod, overlap-length).
//!
//! **Invalidation rule:** there is none, by construction. The orchestrator
//! builds a fresh `SchedContext` — and with it a fresh cache — for every
//! round, and the TSDB is only written *between* rounds (probe step), so
//! within a round every memoized value is trivially current. Nothing may
//! hold a cache across heartbeats.
//!
//! **Determinism:** every cached value is computed by the exact reference
//! code path (`TimeSeriesDb::*_series_into`, `ranks`, `pearson`), so a
//! cache hit returns the same bits as a recompute.
//! `crates/sched/tests/statscache.rs` fuzzes this bit-identity with
//! seeded-LCG series.

use knots_forecast::spearman::{pearson, ranks};
use knots_sim::ids::{NodeId, PodId};
use knots_sim::metrics::Metric;
use knots_sim::time::{SimDuration, SimTime};
use knots_telemetry::{ClusterSnapshot, TimeSeriesDb};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Hit/miss counters of one cache, surfaced to the metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo tables.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

/// Memo table mapping a key to a shared series / rank vector.
type SeriesMemo<K> = RefCell<BTreeMap<K, Rc<Vec<f64>>>>;

/// One scheduling round's memo tables (see module docs).
///
/// Interior-mutable so the read-only [`crate::SchedContext`] can carry it;
/// single-threaded by design (`Rc`), matching the one-context-per-round,
/// one-round-per-thread control loop.
#[derive(Debug, Default)]
pub struct StatsCache {
    pod_mem: SeriesMemo<PodId>,
    node_mem: SeriesMemo<NodeId>,
    /// Rank vector of a pod series' trailing `n` samples, keyed (pod, n).
    pod_ranks: SeriesMemo<(PodId, usize)>,
    /// Rank vector of an app reference's trailing `n` samples.
    ref_ranks: SeriesMemo<(String, usize)>,
    /// Pairwise Spearman ρ keyed (app, resident pod, overlap n).
    rho: RefCell<BTreeMap<(String, PodId, usize), f64>>,
    /// This round's free-memory candidate order (Algorithm 1), shared by
    /// every placement pass.
    free_memory_order: RefCell<Option<Rc<Vec<NodeId>>>>,
    /// This round's consolidation (packing) candidate order.
    packing_order: RefCell<Option<Rc<Vec<NodeId>>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl StatsCache {
    /// Fresh, empty cache (one per scheduling round).
    pub fn new() -> Self {
        Self::default()
    }

    /// Hit/miss counters accumulated so far this round.
    pub fn stats(&self) -> CacheStats {
        CacheStats { hits: self.hits.get(), misses: self.misses.get() }
    }

    fn hit(&self) {
        self.hits.set(self.hits.get() + 1);
    }

    fn miss(&self) {
        self.misses.set(self.misses.get() + 1);
    }

    /// A pod's memory series over the trailing window, fetched at most once
    /// per round. Bit-identical to [`TimeSeriesDb::pod_mem_series`].
    pub fn pod_mem_series(
        &self,
        tsdb: &TimeSeriesDb,
        pod: PodId,
        now: SimTime,
        window: SimDuration,
    ) -> Rc<Vec<f64>> {
        if let Some(s) = self.pod_mem.borrow().get(&pod) {
            self.hit();
            return Rc::clone(s);
        }
        self.miss();
        let mut buf = Vec::new();
        tsdb.pod_mem_series_into(pod, now, window, &mut buf);
        let rc = Rc::new(buf);
        self.pod_mem.borrow_mut().insert(pod, Rc::clone(&rc));
        rc
    }

    /// A node's used-memory series over the trailing window, fetched at
    /// most once per round. Bit-identical to [`TimeSeriesDb::node_series`]
    /// with [`Metric::MemUsedMb`].
    pub fn node_mem_series(
        &self,
        tsdb: &TimeSeriesDb,
        node: NodeId,
        now: SimTime,
        window: SimDuration,
    ) -> Rc<Vec<f64>> {
        if let Some(s) = self.node_mem.borrow().get(&node) {
            self.hit();
            return Rc::clone(s);
        }
        self.miss();
        let mut buf = Vec::new();
        tsdb.node_series_into(node, Metric::MemUsedMb, now, window, &mut buf);
        let rc = Rc::new(buf);
        self.node_mem.borrow_mut().insert(node, Rc::clone(&rc));
        rc
    }

    /// The round's free-memory placement order
    /// ([`ClusterSnapshot::nodes_by_free_memory`]), computed at most once
    /// per round.
    pub fn free_memory_order(&self, snapshot: &ClusterSnapshot) -> Rc<Vec<NodeId>> {
        if let Some(o) = self.free_memory_order.borrow().as_ref() {
            self.hit();
            return Rc::clone(o);
        }
        self.miss();
        let rc = Rc::new(snapshot.nodes_by_free_memory());
        *self.free_memory_order.borrow_mut() = Some(Rc::clone(&rc));
        rc
    }

    /// Packing counterpart of [`Self::free_memory_order`]
    /// ([`ClusterSnapshot::nodes_by_packing`]).
    pub fn packing_order(&self, snapshot: &ClusterSnapshot) -> Rc<Vec<NodeId>> {
        if let Some(o) = self.packing_order.borrow().as_ref() {
            self.hit();
            return Rc::clone(o);
        }
        self.miss();
        let rc = Rc::new(snapshot.nodes_by_packing());
        *self.packing_order.borrow_mut() = Some(Rc::clone(&rc));
        rc
    }

    /// Memoized rank vector of `series`' trailing `n` samples for a pod.
    fn pod_rank_suffix(&self, pod: PodId, series: &[f64], n: usize) -> Rc<Vec<f64>> {
        if let Some(r) = self.pod_ranks.borrow().get(&(pod, n)) {
            self.hit();
            return Rc::clone(r);
        }
        self.miss();
        let rc = Rc::new(ranks(&series[series.len() - n..]));
        self.pod_ranks.borrow_mut().insert((pod, n), Rc::clone(&rc));
        rc
    }

    /// Memoized rank vector of an app reference's trailing `n` samples.
    fn ref_rank_suffix(&self, app: &str, reference: &[f64], n: usize) -> Rc<Vec<f64>> {
        if let Some(r) = self.ref_ranks.borrow().get(&(app.to_string(), n)) {
            self.hit();
            return Rc::clone(r);
        }
        self.miss();
        let rc = Rc::new(ranks(&reference[reference.len() - n..]));
        self.ref_ranks.borrow_mut().insert((app.to_string(), n), Rc::clone(&rc));
        rc
    }

    /// Spearman ρ between an app's reference series and a resident pod's
    /// series, aligned on the common trailing suffix and memoized per
    /// (app, pod, overlap). Bit-identical to
    /// `knots_forecast::spearman::spearman(&reference[..], &series[..])`
    /// on the aligned suffixes: the rank vectors are computed by the same
    /// `ranks` and correlated by the same `pearson`.
    pub fn spearman_suffix(&self, app: &str, reference: &[f64], pod: PodId, series: &[f64]) -> f64 {
        let n = reference.len().min(series.len());
        if n < 2 {
            return 0.0;
        }
        let key = (app.to_string(), pod, n);
        if let Some(rho) = self.rho.borrow().get(&key) {
            self.hit();
            return *rho;
        }
        self.miss();
        let ra = self.ref_rank_suffix(app, reference, n);
        let rb = self.pod_rank_suffix(pod, series, n);
        let rho = pearson(&ra, &rb);
        self.rho.borrow_mut().insert(key, rho);
        rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_forecast::spearman::spearman;
    use knots_sim::metrics::GpuSample;
    use knots_sim::resources::Usage;

    fn seeded_db() -> TimeSeriesDb {
        let db = TimeSeriesDb::default();
        for i in 0..40u64 {
            db.push_node(
                NodeId(0),
                GpuSample {
                    at: SimTime::from_millis(i * 10),
                    mem_used_mb: 1000.0 + (i as f64 * 0.7).sin() * 300.0,
                    ..Default::default()
                },
            );
            db.push_pod(
                PodId(1),
                SimTime::from_millis(i * 10),
                Usage::new(0.2, 100.0 + i as f64, 0.0, 0.0),
            );
        }
        db
    }

    #[test]
    fn series_fetches_are_memoized_and_identical() {
        let db = seeded_db();
        let c = StatsCache::new();
        let now = SimTime::from_millis(400);
        let w = SimDuration::from_secs(5);
        let a = c.pod_mem_series(&db, PodId(1), now, w);
        let b = c.pod_mem_series(&db, PodId(1), now, w);
        assert!(Rc::ptr_eq(&a, &b), "second fetch must be a cache hit");
        assert_eq!(*a, db.pod_mem_series(PodId(1), now, w));
        let n1 = c.node_mem_series(&db, NodeId(0), now, w);
        let n2 = c.node_mem_series(&db, NodeId(0), now, w);
        assert!(Rc::ptr_eq(&n1, &n2));
        assert_eq!(*n1, db.node_series(NodeId(0), Metric::MemUsedMb, now, w));
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn spearman_suffix_matches_reference_implementation() {
        let c = StatsCache::new();
        let reference: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).cos() * 50.0).collect();
        let series: Vec<f64> = (0..22).map(|i| i as f64 * 2.0).collect();
        let n = series.len();
        let expected = spearman(&reference[reference.len() - n..], &series);
        let got = c.spearman_suffix("app", &reference, PodId(9), &series);
        assert_eq!(got.to_bits(), expected.to_bits());
        // Memo hit returns the same value without recomputation.
        let again = c.spearman_suffix("app", &reference, PodId(9), &series);
        assert_eq!(again.to_bits(), expected.to_bits());
        assert!(c.stats().hits >= 1);
        // Degenerate overlap.
        assert_eq!(c.spearman_suffix("app", &[1.0], PodId(9), &series), 0.0);
    }
}
