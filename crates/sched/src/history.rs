//! Online per-application usage history.
//!
//! Kube-Knots performs "QoS-aware container co-locations ... without a
//! priori knowledge of incoming applications" (§I): nothing is profiled
//! offline. Instead, the GPU-aware schedulers learn each application's
//! memory behaviour from the telemetry of pods that already ran — the
//! "Container Resource Usage Profiles" box of Fig. 5. This module is that
//! memory: bounded per-app sample reservoirs supporting the two queries CBP
//! needs (the 80th-percentile footprint to resize to, and a recent usage
//! series to correlate against).

use knots_forecast::stats::percentile_of_sorted;
use knots_sim::ids::PodId;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

/// A bounded FIFO of samples with a lazily sorted copy for quantile reads.
///
/// `learn` observes every resident pod every round, but quantiles are read
/// only in rounds with pending pods, many times over (pending pod ×
/// candidate node × resident). So a push only notes what changed, and the
/// first read after it patches the sorted copy; every later read in the
/// round is a lookup.
#[derive(Debug, Default, Clone)]
struct Reservoir {
    /// Samples, oldest first.
    samples: VecDeque<f64>,
    /// Derived state: never serialized.
    sorted: RefCell<SortedCopy>,
}

/// The samples of a [`Reservoir`] in `f64::total_cmp` order as of its last
/// read, plus what changed since.
#[derive(Debug, Default, Clone)]
struct SortedCopy {
    /// Sorted samples as of the last read.
    values: Vec<f64>,
    /// Samples evicted since the last read that `values` holds.
    evicted: Vec<f64>,
    /// How many of the newest samples arrived since the last read.
    fresh: usize,
    /// Reused buffers: the fresh samples, and the patched copy.
    added: Vec<f64>,
    merged: Vec<f64>,
}

impl SortedCopy {
    /// Bring `values` up to `samples`: patch in the fresh samples and out
    /// the evicted ones in one pass, or sort from scratch when they are
    /// more than a sixteenth of the reservoir. Under `total_cmp`, equal
    /// samples are equal bits, so either way `values` is exactly
    /// `samples`, sorted.
    fn refresh(&mut self, samples: &VecDeque<f64>) {
        let delta = self.fresh + self.evicted.len();
        if delta == 0 {
            return;
        }
        if delta * 16 > samples.len() {
            self.values.clear();
            self.values.extend(samples.iter().copied());
            self.values.sort_unstable_by(f64::total_cmp);
        } else {
            self.added.clear();
            self.added.extend(samples.range(samples.len() - self.fresh..).copied());
            self.added.sort_unstable_by(f64::total_cmp);
            self.evicted.sort_unstable_by(f64::total_cmp);
            self.patch();
        }
        self.evicted.clear();
        self.fresh = 0;
    }

    /// One pass over `values` in sorted order of the changes: copy the
    /// stretch before each change, then drop the evicted sample or insert
    /// the added one.
    fn patch(&mut self) {
        let (values, out) = (&self.values, &mut self.merged);
        out.clear();
        let (mut from, mut e, mut a) = (0, 0, 0);
        let below = |x: f64| move |v: &f64| v.total_cmp(&x).is_lt();
        while e < self.evicted.len() || a < self.added.len() {
            let evict = a == self.added.len()
                || (e < self.evicted.len() && self.evicted[e].total_cmp(&self.added[a]).is_le());
            if evict {
                let x = self.evicted[e];
                let at = from + values[from..].partition_point(below(x));
                debug_assert_eq!(values.get(at).map(|v| v.to_bits()), Some(x.to_bits()));
                out.extend_from_slice(&values[from..at]);
                from = at + 1;
                e += 1;
            } else {
                let x = self.added[a];
                let at = from + values[from..].partition_point(below(x));
                out.extend_from_slice(&values[from..at]);
                out.push(x);
                from = at;
                a += 1;
            }
        }
        out.extend_from_slice(&values[from..]);
        std::mem::swap(&mut self.values, &mut self.merged);
    }
}

impl Reservoir {
    /// Append a sample, evicting the oldest at `cap`, and note both for
    /// the next read. Once the changes outgrow a patch, the next read sorts
    /// from scratch and the evicted samples are no longer kept.
    fn push(&mut self, x: f64, cap: usize) {
        let c = self.sorted.get_mut();
        if self.samples.len() == cap {
            if let Some(old) = self.samples.pop_front() {
                if c.fresh > self.samples.len() {
                    c.fresh -= 1; // it arrived after the last read
                } else {
                    c.evicted.push(old);
                }
            }
        }
        self.samples.push_back(x);
        c.fresh += 1;
        if !c.evicted.is_empty() && (c.fresh + c.evicted.len()) * 16 > self.samples.len() {
            c.evicted.clear();
            c.fresh = self.samples.len();
        }
    }

    /// A reservoir of `samples` whose sorted copy is yet to be built.
    fn from_samples(samples: Vec<f64>) -> Self {
        let fresh = samples.len();
        Reservoir {
            samples: samples.into(),
            sorted: RefCell::new(SortedCopy { fresh, ..Default::default() }),
        }
    }

    /// The q-quantile of the samples, bit-identical to
    /// `knots_forecast::stats::percentile` over them: the same
    /// `total_cmp` order and the same interpolation.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.sorted.borrow_mut();
        sorted.refresh(&self.samples);
        Some(percentile_of_sorted(&sorted.values, q))
    }
}

/// Bounded history for one application.
#[derive(Debug, Default, Clone)]
struct AppStats {
    /// Whether the app exists: a valid observation or a non-empty
    /// reference refresh has landed in it. A slot interned for a name seen
    /// only on a pulling pod stays dead, and no query or snapshot sees it.
    live: bool,
    /// Recent memory observations across all pods of this app, MB.
    mem: Reservoir,
    /// Recent SM-share observations across all pods of this app.
    sm: Reservoir,
    /// The most recent contiguous memory series of a single pod (for
    /// correlation checks), as `(count, value)` runs. Empty after a
    /// restore, which brings back only the decoded series.
    runs: Vec<(u64, f64)>,
    /// The series decoded, or empty from a refresh of `runs` until the
    /// first read ([`AppUsageHistory::decode_reference`]).
    reference: Vec<f64>,
    /// Largest memory observation ever seen, MB.
    peak_mb: f64,
    /// Total observations.
    count: u64,
}

/// Per-application usage history learned online from telemetry.
///
/// Each app name is interned once into a slot: `index` maps names to
/// slots of `apps`, so a round's learning resolves each resident's app
/// with one lookup and then works by slot.
#[derive(Debug)]
pub struct AppUsageHistory {
    cap: usize,
    /// Interned app names, each to its slot in `apps`; name order is the
    /// snapshot order.
    index: BTreeMap<String, usize>,
    apps: Vec<AppStats>,
    /// Reused fill buffer for [`refresh_at`](Self::refresh_at); holds a
    /// retired reference's runs between calls.
    scratch: Vec<(u64, f64)>,
    /// Reused per-slot list of CBP's per-round reference-pod picks.
    pub(crate) picks: Vec<Option<(PodId, usize)>>,
}

impl Default for AppUsageHistory {
    fn default() -> Self {
        Self::new(4096)
    }
}

/// Smallest per-app sample cap a history accepts.
const MIN_CAP: usize = 8;

/// Append `runs` to `out`, each `(count, value)` as `count` copies of
/// `value`.
fn decode(runs: &[(u64, f64)], out: &mut Vec<f64>) {
    for &(n, v) in runs {
        out.extend(std::iter::repeat_n(v, n as usize));
    }
}

impl AppUsageHistory {
    /// Create with a per-app sample cap.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= MIN_CAP);
        AppUsageHistory {
            cap,
            index: BTreeMap::new(),
            apps: Vec::new(),
            scratch: Vec::new(),
            picks: Vec::new(),
        }
    }

    /// The app's slot, interned on first sight. Looks up by `&str` first,
    /// so known apps allocate nothing. Interning does not create the app
    /// ([`len`](Self::len) counts live apps only).
    pub(crate) fn slot(&mut self, app: &str) -> usize {
        if let Some(&i) = self.index.get(app) {
            return i;
        }
        self.index.insert(app.to_string(), self.apps.len());
        self.apps.push(AppStats::default());
        self.apps.len() - 1
    }

    /// The live app's stats.
    fn get(&self, app: &str) -> Option<&AppStats> {
        self.apps.get(*self.index.get(app)?).filter(|s| s.live)
    }

    /// The stats in `slot`, made live.
    fn live_at(&mut self, slot: usize) -> &mut AppStats {
        let s = &mut self.apps[slot];
        s.live = true;
        s
    }

    /// Record one observation of a resident pod: its memory in MB and its
    /// SM share. Each is checked on its own, so an invalid memory sample
    /// still records the SM sample and vice versa.
    pub fn observe(&mut self, app: &str, mem_mb: f64, sm_frac: f64) {
        let slot = self.slot(app);
        self.observe_at(slot, mem_mb, sm_frac);
    }

    /// [`observe`](Self::observe) into an interned slot.
    pub(crate) fn observe_at(&mut self, slot: usize, mem_mb: f64, sm_frac: f64) {
        let mem_ok = mem_mb.is_finite() && mem_mb >= 0.0;
        let sm_ok = sm_frac.is_finite() && (0.0..=1.0).contains(&sm_frac);
        if !mem_ok && !sm_ok {
            return;
        }
        let cap = self.cap;
        let s = self.live_at(slot);
        if mem_ok {
            s.mem.push(mem_mb, cap);
            s.peak_mb = s.peak_mb.max(mem_mb);
            s.count += 1;
        }
        if sm_ok {
            s.sm.push(sm_frac, cap);
        }
    }

    /// The q-quantile of the app's observed SM share.
    pub fn sm_quantile(&self, app: &str, q: f64) -> Option<f64> {
        self.get(app)?.sm.quantile(q)
    }

    /// Replace the app's reference series (one pod's recent memory series)
    /// in place: `fill` writes the new series as `(count, value)` runs into
    /// a reused buffer, which is swapped into the app's slot. O(runs): the
    /// dense series is decoded only when read. An empty series keeps the
    /// old reference. Tests seed references through it; `learn` refreshes
    /// by slot ([`refresh_at`](Self::refresh_at)).
    #[cfg(test)]
    pub(crate) fn refresh_reference(&mut self, app: &str, fill: impl FnOnce(&mut Vec<(u64, f64)>)) {
        let slot = self.slot(app);
        self.refresh_at(slot, fill);
    }

    /// [`refresh_reference`](Self::refresh_reference) of an interned slot.
    pub(crate) fn refresh_at(&mut self, slot: usize, fill: impl FnOnce(&mut Vec<(u64, f64)>)) {
        self.scratch.clear();
        fill(&mut self.scratch);
        if self.scratch.is_empty() {
            return;
        }
        let mut runs = std::mem::take(&mut self.scratch);
        let s = self.live_at(slot);
        std::mem::swap(&mut s.runs, &mut runs);
        s.reference.clear();
        self.scratch = runs;
    }

    /// Decode the app's reference runs, unless this refresh's are decoded
    /// already. [`reference`](Self::reference) reads only decoded runs.
    pub(crate) fn decode_reference(&mut self, app: &str) {
        if let Some(&i) = self.index.get(app) {
            let s = &mut self.apps[i];
            if s.reference.is_empty() {
                decode(&s.runs, &mut s.reference);
            }
        }
    }

    /// Whether enough history exists to trust a resize decision. The
    /// threshold guards against resizing on a handful of startup samples.
    pub fn is_known(&self, app: &str) -> bool {
        self.get(app).is_some_and(|s| s.count >= 32)
    }

    /// The q-quantile of the app's observed memory, MB.
    pub fn mem_quantile(&self, app: &str, q: f64) -> Option<f64> {
        self.get(app)?.mem.quantile(q)
    }

    /// Largest memory observation, MB.
    pub fn mem_peak(&self, app: &str) -> Option<f64> {
        self.get(app).map(|s| s.peak_mb)
    }

    /// The app's reference memory series for correlation checks, as
    /// decoded by [`decode_reference`](Self::decode_reference).
    pub(crate) fn reference(&self, app: &str) -> Option<&[f64]> {
        let s = self.get(app)?;
        debug_assert!(
            s.runs.is_empty() || !s.reference.is_empty(),
            "reference of {app:?} read before its decode"
        );
        (!s.reference.is_empty()).then_some(&s.reference[..])
    }

    /// Number of tracked applications.
    pub fn len(&self) -> usize {
        self.apps.iter().filter(|s| s.live).count()
    }

    /// True when no app has been observed.
    pub fn is_empty(&self) -> bool {
        !self.apps.iter().any(|s| s.live)
    }

    /// Export the learned statistics for a control-plane snapshot
    /// (see crates/recovery). Live apps are emitted in name order so the
    /// serialized form is deterministic.
    pub fn snapshot_state(&self) -> AppHistoryState {
        AppHistoryState {
            cap: self.cap as u64,
            apps: self
                .index
                .iter()
                .map(|(name, &i)| (name, &self.apps[i]))
                .filter(|(_, s)| s.live)
                .map(|(name, s)| AppStatsState {
                    name: name.clone(),
                    mem_samples: s.mem.samples.iter().copied().collect(),
                    sm_samples: s.sm.samples.iter().copied().collect(),
                    reference: if s.reference.is_empty() {
                        let mut dense = Vec::new();
                        decode(&s.runs, &mut dense);
                        dense
                    } else {
                        s.reference.clone()
                    },
                    peak_mb: s.peak_mb,
                    count: s.count,
                })
                .collect(),
        }
    }

    /// Rebuild a history from exported statistics. Inverse of
    /// [`snapshot_state`](Self::snapshot_state).
    ///
    /// # Errors
    /// Refuses a state [`snapshot_state`](Self::snapshot_state) cannot
    /// produce: a cap below 8, or a reservoir holding more samples than the
    /// cap (eviction only trims at exactly `cap`, so such a reservoir would
    /// grow without bound).
    pub fn from_state(state: AppHistoryState) -> Result<Self, serde::Error> {
        let cap = usize::try_from(state.cap).unwrap_or(usize::MAX);
        if cap < MIN_CAP {
            return Err(serde::Error::custom(format!(
                "app history cap {cap} is below the minimum {MIN_CAP}"
            )));
        }
        let mut h = AppUsageHistory::new(cap);
        for a in state.apps {
            let (mem, sm) = (a.mem_samples.len(), a.sm_samples.len());
            if mem > cap || sm > cap {
                return Err(serde::Error::custom(format!(
                    "app {:?} holds {mem} memory / {sm} SM samples, over its cap {cap}",
                    a.name
                )));
            }
            let slot = h.slot(&a.name);
            h.apps[slot] = AppStats {
                live: true,
                mem: Reservoir::from_samples(a.mem_samples),
                sm: Reservoir::from_samples(a.sm_samples),
                runs: Vec::new(),
                reference: a.reference,
                peak_mb: a.peak_mb,
                count: a.count,
            };
        }
        Ok(h)
    }
}

/// Serializable form of one app's `AppStats` (snapshot interchange).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AppStatsState {
    /// Application name (the map key in the live structure).
    pub name: String,
    /// Recent memory observations, oldest first, MB.
    pub mem_samples: Vec<f64>,
    /// Recent SM-share observations, oldest first.
    pub sm_samples: Vec<f64>,
    /// Reference memory series for correlation checks.
    pub reference: Vec<f64>,
    /// Largest memory observation ever seen, MB.
    pub peak_mb: f64,
    /// Total observations.
    pub count: u64,
}

/// Serializable form of a whole [`AppUsageHistory`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AppHistoryState {
    /// Per-app sample cap the history was created with.
    pub cap: u64,
    /// Per-app statistics, sorted by app name.
    pub apps: Vec<AppStatsState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_from_observations() {
        let mut h = AppUsageHistory::new(64);
        for i in 0..100 {
            h.observe("lud", 100.0 + i as f64, 0.5);
        }
        // Cap keeps the most recent 64: values 136..=199.
        let p50 = h.mem_quantile("lud", 0.5).unwrap();
        assert!((p50 - 167.5).abs() < 1.0, "p50 {p50}");
        assert_eq!(h.mem_peak("lud"), Some(199.0));
        assert!(h.is_known("lud"));
        assert!(!h.is_known("unknown"));
    }

    #[test]
    fn few_samples_are_not_trusted() {
        let mut h = AppUsageHistory::default();
        for _ in 0..10 {
            h.observe("x", 50.0, 0.5);
        }
        assert!(!h.is_known("x"));
        assert!(h.mem_quantile("x", 0.8).is_some());
    }

    #[test]
    fn reference_series_round_trip() {
        let mut h = AppUsageHistory::default();
        assert!(h.reference("a").is_none());
        h.refresh_reference("a", |b| b.extend([(2, 1.0), (1, 3.0)]));
        h.decode_reference("a");
        assert_eq!(h.reference("a").unwrap(), &[1.0, 1.0, 3.0]);
        h.refresh_reference("a", |_| {});
        h.decode_reference("a");
        assert_eq!(h.reference("a").unwrap(), &[1.0, 1.0, 3.0], "empty update ignored");
        h.refresh_reference("a", |b| b.push((1, 4.0)));
        h.decode_reference("a");
        assert_eq!(h.reference("a").unwrap(), &[4.0], "the reused buffers start empty");
    }

    #[test]
    fn undecoded_reference_snapshots_as_the_decoded_series() {
        // Two histories fed the same runs; one decodes before each
        // snapshot, the other never does. Their snapshots match bit for
        // bit, an empty refresh keeps the old reference in both, and a
        // restored history reads the series without a decode.
        let bits = |h: &AppUsageHistory| -> Vec<Vec<u64>> {
            let state = h.snapshot_state();
            state.apps.iter().map(|a| a.reference.iter().map(|v| v.to_bits()).collect()).collect()
        };
        let (mut lazy, mut eager) = (AppUsageHistory::new(8), AppUsageHistory::new(8));
        let refreshes: [&[(u64, f64)]; 3] =
            [&[(3, -0.0), (2, 0.0), (1, 512.5)], &[], &[(4, 1.0), (1, f64::MIN_POSITIVE)]];
        let mut last: &[(u64, f64)] = &[];
        for runs in refreshes {
            for h in [&mut lazy, &mut eager] {
                h.observe("a", 1.0, 0.5);
                h.refresh_reference("a", |b| b.extend_from_slice(runs));
            }
            eager.decode_reference("a");
            if !runs.is_empty() {
                last = runs;
            }
            let want: Vec<u64> = last
                .iter()
                .flat_map(|&(n, v)| std::iter::repeat_n(v.to_bits(), n as usize))
                .collect();
            assert_eq!(bits(&lazy), vec![want.clone()]);
            assert_eq!(bits(&eager), vec![want]);
        }
        assert_eq!(eager.reference("a").unwrap(), &[1.0, 1.0, 1.0, 1.0, f64::MIN_POSITIVE]);
        let restored = AppUsageHistory::from_state(lazy.snapshot_state()).unwrap();
        assert_eq!(restored.reference("a"), eager.reference("a"));
        assert_eq!(bits(&restored), bits(&eager));
    }

    #[test]
    fn each_half_of_an_observation_is_checked_on_its_own() {
        let mut h = AppUsageHistory::default();
        h.observe("a", f64::NAN, f64::NAN);
        h.observe("a", -5.0, 2.0);
        assert!(h.is_empty(), "a wholly invalid observation creates no app");
        h.observe("a", f64::NAN, 0.25);
        h.observe("a", 128.0, f64::INFINITY);
        assert_eq!(h.sm_quantile("a", 0.5), Some(0.25));
        assert_eq!(h.mem_quantile("a", 0.5), Some(128.0));
        assert_eq!(h.mem_peak("a"), Some(128.0));
        assert!(!h.is_known("a"));
    }

    proptest::proptest! {
        /// Random pushes through a small cap (so evictions land between
        /// reads), with reads at random points: every quantile equals
        /// `stats::percentile` over the same samples, bit for bit, whether
        /// the read patched the sorted copy or sorted from scratch.
        #[test]
        fn patched_quantiles_match_a_full_sort(
            cap in 8usize..300,
            ops in proptest::collection::vec((0u8..6, 0u8..4, 0.0f64..1.0), 1..800),
        ) {
            let mut r = Reservoir::default();
            for (kind, pick, x) in ops {
                // A few repeated values, and ±0.0, exercise equal keys.
                let v = match pick {
                    0 => 0.0,
                    1 => -0.0,
                    2 => (x * 4.0).floor(),
                    _ => x,
                };
                r.push(v, cap);
                if kind == 0 {
                    let all: Vec<f64> = r.samples.iter().copied().collect();
                    for q in [0.0, 0.5, 0.8, 1.0] {
                        let want = knots_forecast::stats::percentile(&all, q);
                        proptest::prop_assert_eq!(r.quantile(q).map(f64::to_bits), Some(want.to_bits()));
                    }
                }
            }
        }
    }

    #[test]
    fn len_counts_apps() {
        let mut h = AppUsageHistory::default();
        assert!(h.is_empty());
        h.observe("a", 1.0, 0.5);
        h.observe("b", 2.0, 0.5);
        assert_eq!(h.len(), 2);
    }
}
