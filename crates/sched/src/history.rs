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
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

/// A bounded FIFO of samples with a lazily sorted copy for quantile reads.
///
/// `learn` observes every resident pod every round, but quantiles are read
/// only in rounds with pending pods, many times over (pending pod ×
/// candidate node × resident). So a push only invalidates the sorted copy,
/// and the first read after it sorts the reservoir once; every later read
/// in the round is a lookup.
#[derive(Debug, Default, Clone)]
struct Reservoir {
    /// Samples, oldest first.
    samples: VecDeque<f64>,
    /// `samples` in `f64::total_cmp` order, or empty while stale. Derived
    /// state: never serialized.
    sorted: RefCell<Vec<f64>>,
}

impl Reservoir {
    /// Append a sample, evicting the oldest at `cap`, and mark the sorted
    /// copy stale.
    fn push(&mut self, x: f64, cap: usize) {
        if self.samples.len() == cap {
            self.samples.pop_front();
        }
        self.samples.push_back(x);
        self.sorted.get_mut().clear();
    }

    /// The q-quantile of the samples, bit-identical to
    /// `knots_forecast::stats::percentile` over them: the same
    /// `total_cmp` order (under which equal elements are equal bits, so an
    /// unstable sort yields the same slice) and the same interpolation.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.sorted.borrow_mut();
        if sorted.is_empty() {
            sorted.extend(self.samples.iter().copied());
            sorted.sort_unstable_by(f64::total_cmp);
        }
        Some(percentile_of_sorted(&sorted, q))
    }
}

/// Bounded history for one application.
#[derive(Debug, Default, Clone)]
struct AppStats {
    /// Recent memory observations across all pods of this app, MB.
    mem: Reservoir,
    /// Recent SM-share observations across all pods of this app.
    sm: Reservoir,
    /// The most recent contiguous memory series of a single pod (for
    /// correlation checks).
    reference: Vec<f64>,
    /// Largest memory observation ever seen, MB.
    peak_mb: f64,
    /// Total observations.
    count: u64,
}

/// Per-application usage history learned online from telemetry.
#[derive(Debug)]
pub struct AppUsageHistory {
    cap: usize,
    apps: BTreeMap<String, AppStats>,
    /// Reused fill buffer for [`refresh_reference`](Self::refresh_reference);
    /// holds a retired reference's allocation between calls.
    scratch: Vec<f64>,
}

impl Default for AppUsageHistory {
    fn default() -> Self {
        Self::new(4096)
    }
}

/// Smallest per-app sample cap a history accepts.
const MIN_CAP: usize = 8;

/// Run `f` on the app's entry, created on first sight. Looks up by `&str`
/// first so the per-round observations of known apps allocate nothing.
fn update(apps: &mut BTreeMap<String, AppStats>, app: &str, f: impl FnOnce(&mut AppStats)) {
    if let Some(s) = apps.get_mut(app) {
        return f(s);
    }
    f(apps.entry(app.to_string()).or_default());
}

impl AppUsageHistory {
    /// Create with a per-app sample cap.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= MIN_CAP);
        AppUsageHistory { cap, apps: BTreeMap::new(), scratch: Vec::new() }
    }

    /// Record one memory observation for an app.
    pub fn observe_mem(&mut self, app: &str, mem_mb: f64) {
        if !mem_mb.is_finite() || mem_mb < 0.0 {
            return;
        }
        update(&mut self.apps, app, |s| {
            s.mem.push(mem_mb, self.cap);
            s.peak_mb = s.peak_mb.max(mem_mb);
            s.count += 1;
        });
    }

    /// Record one SM-share observation for an app.
    pub fn observe_sm(&mut self, app: &str, sm_frac: f64) {
        if !sm_frac.is_finite() || !(0.0..=1.0).contains(&sm_frac) {
            return;
        }
        update(&mut self.apps, app, |s| s.sm.push(sm_frac, self.cap));
    }

    /// The q-quantile of the app's observed SM share.
    pub fn sm_quantile(&self, app: &str, q: f64) -> Option<f64> {
        self.apps.get(app)?.sm.quantile(q)
    }

    /// Replace the app's reference series (one pod's recent memory series)
    /// in place: `fill` writes the new series into a reused buffer, which
    /// is swapped into the app's slot. An empty series keeps the old
    /// reference.
    pub(crate) fn refresh_reference(&mut self, app: &str, fill: impl FnOnce(&mut Vec<f64>)) {
        self.scratch.clear();
        fill(&mut self.scratch);
        if self.scratch.is_empty() {
            return;
        }
        update(&mut self.apps, app, |s| std::mem::swap(&mut s.reference, &mut self.scratch));
    }

    /// Whether enough history exists to trust a resize decision. The
    /// threshold guards against resizing on a handful of startup samples.
    pub fn is_known(&self, app: &str) -> bool {
        self.apps.get(app).is_some_and(|s| s.count >= 32)
    }

    /// The q-quantile of the app's observed memory, MB.
    pub fn mem_quantile(&self, app: &str, q: f64) -> Option<f64> {
        self.apps.get(app)?.mem.quantile(q)
    }

    /// Largest memory observation, MB.
    pub fn mem_peak(&self, app: &str) -> Option<f64> {
        self.apps.get(app).map(|s| s.peak_mb)
    }

    /// The app's reference memory series for correlation checks.
    pub fn reference(&self, app: &str) -> Option<&[f64]> {
        let s = self.apps.get(app)?;
        if s.reference.is_empty() {
            None
        } else {
            Some(&s.reference)
        }
    }

    /// Number of tracked applications.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True when no app has been observed.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Export the learned statistics for a control-plane snapshot
    /// (see crates/recovery). Apps are emitted in BTreeMap (name) order so
    /// the serialized form is deterministic.
    pub fn snapshot_state(&self) -> AppHistoryState {
        AppHistoryState {
            cap: self.cap as u64,
            apps: self
                .apps
                .iter()
                .map(|(name, s)| AppStatsState {
                    name: name.clone(),
                    mem_samples: s.mem.samples.iter().copied().collect(),
                    sm_samples: s.sm.samples.iter().copied().collect(),
                    reference: s.reference.clone(),
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
        let mut apps = BTreeMap::new();
        for a in state.apps {
            let (mem, sm) = (a.mem_samples.len(), a.sm_samples.len());
            if mem > cap || sm > cap {
                return Err(serde::Error::custom(format!(
                    "app {:?} holds {mem} memory / {sm} SM samples, over its cap {cap}",
                    a.name
                )));
            }
            let stats = AppStats {
                mem: Reservoir { samples: a.mem_samples.into(), ..Default::default() },
                sm: Reservoir { samples: a.sm_samples.into(), ..Default::default() },
                reference: a.reference,
                peak_mb: a.peak_mb,
                count: a.count,
            };
            apps.insert(a.name, stats);
        }
        Ok(AppUsageHistory { cap, apps, scratch: Vec::new() })
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
            h.observe_mem("lud", 100.0 + i as f64);
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
            h.observe_mem("x", 50.0);
        }
        assert!(!h.is_known("x"));
        assert!(h.mem_quantile("x", 0.8).is_some());
    }

    #[test]
    fn reference_series_round_trip() {
        let mut h = AppUsageHistory::default();
        assert!(h.reference("a").is_none());
        h.refresh_reference("a", |b| b.extend([1.0, 2.0, 3.0]));
        assert_eq!(h.reference("a").unwrap(), &[1.0, 2.0, 3.0]);
        h.refresh_reference("a", |_| {});
        assert_eq!(h.reference("a").unwrap(), &[1.0, 2.0, 3.0], "empty update ignored");
        h.refresh_reference("a", |b| b.push(4.0));
        assert_eq!(h.reference("a").unwrap(), &[4.0], "the reused buffer starts empty");
    }

    #[test]
    fn invalid_observations_ignored() {
        let mut h = AppUsageHistory::default();
        h.observe_mem("a", f64::NAN);
        h.observe_mem("a", -5.0);
        assert!(h.mem_quantile("a", 0.5).is_none() || h.is_empty() || h.len() <= 1);
        assert!(!h.is_known("a"));
    }

    #[test]
    fn len_counts_apps() {
        let mut h = AppUsageHistory::default();
        assert!(h.is_empty());
        h.observe_mem("a", 1.0);
        h.observe_mem("b", 2.0);
        assert_eq!(h.len(), 2);
    }
}
