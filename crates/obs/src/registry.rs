//! Labelled metrics registry with Prometheus text exposition.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::histogram::Histogram;

/// A metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        Key { name: name.to_string(), labels }
    }

    /// This key with `extra` labels added, kept sorted.
    fn labelled(mut self, extra: &[(&str, &str)]) -> Self {
        self.labels.extend(extra.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        self.labels.sort();
        self
    }

    fn render(&self) -> String {
        if self.labels.is_empty() {
            self.name.clone()
        } else {
            let inner: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
                .collect();
            format!("{}{{{}}}", self.name, inner.join(","))
        }
    }
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double-quote and line feed must be backslash-escaped.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[derive(Debug, Default)]
struct Series {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

/// One leg's registry of counters, gauges and histograms.
///
/// Metric names follow Prometheus conventions (`knots_..._total` for
/// counters); labels are `(key, value)` pairs and are part of the series
/// identity. Updates go through a shared borrow (the recovery harness
/// counts into a borrowed bundle), so the series sit in a `RefCell`; a
/// study running legs on several threads gives each its own registry and
/// merges them afterwards with [`Registry::absorb`].
#[derive(Debug, Default)]
pub struct Registry {
    inner: RefCell<Series>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment a counter by one.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.add(name, labels, 1);
    }

    /// Increment a counter by `delta`.
    pub fn add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        *self.inner.borrow_mut().counters.entry(Key::new(name, labels)).or_insert(0) += delta;
    }

    /// Set a gauge to `v`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.inner.borrow_mut().gauges.insert(Key::new(name, labels), v);
    }

    /// Fold a locally-accumulated histogram into the registry series.
    /// One merge instead of an update per observation; the series is
    /// created with the same [`Histogram::latency_us`] buckets on first
    /// use, and the merged result is identical to observing every value
    /// through [`Registry::observe_with`] with those buckets.
    pub fn merge_histogram(&self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.inner
            .borrow_mut()
            .histograms
            .entry(Key::new(name, labels))
            .or_insert_with(Histogram::latency_us)
            .merge(h);
    }

    /// Record `v` into a histogram, supplying buckets on first use.
    pub fn observe_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        v: f64,
        make: impl FnOnce() -> Histogram,
    ) {
        self.inner
            .borrow_mut()
            .histograms
            .entry(Key::new(name, labels))
            .or_insert_with(make)
            .observe(v);
    }

    /// Fold `leg`'s series into this registry, each with `labels` added:
    /// counters add, gauges overwrite, histograms merge.
    pub fn absorb(&self, leg: Registry, labels: &[(&str, &str)]) {
        let leg = leg.inner.into_inner();
        let mut inner = self.inner.borrow_mut();
        for (key, v) in leg.counters {
            *inner.counters.entry(key.labelled(labels)).or_insert(0) += v;
        }
        for (key, v) in leg.gauges {
            inner.gauges.insert(key.labelled(labels), v);
        }
        for (key, h) in leg.histograms {
            inner
                .histograms
                .entry(key.labelled(labels))
                .and_modify(|sum| sum.merge(&h))
                .or_insert(h);
        }
    }

    /// Read a counter (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.inner.borrow().counters.get(&Key::new(name, labels)).copied().unwrap_or(0)
    }

    /// Read a gauge.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.inner.borrow().gauges.get(&Key::new(name, labels)).copied()
    }

    /// Snapshot a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        self.inner.borrow().histograms.get(&Key::new(name, labels)).cloned()
    }

    /// Prometheus text exposition (v0.0.4) of every metric.
    pub fn to_prometheus(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        let mut last_name = String::new();
        for (key, v) in &inner.counters {
            if key.name != last_name {
                out.push_str(&format!("# TYPE {} counter\n", key.name));
                last_name.clone_from(&key.name);
            }
            out.push_str(&format!("{} {v}\n", key.render()));
        }
        last_name.clear();
        for (key, v) in &inner.gauges {
            if key.name != last_name {
                out.push_str(&format!("# TYPE {} gauge\n", key.name));
                last_name.clone_from(&key.name);
            }
            out.push_str(&format!("{} {v}\n", key.render()));
        }
        last_name.clear();
        for (key, h) in &inner.histograms {
            if key.name != last_name {
                out.push_str(&format!("# TYPE {} histogram\n", key.name));
                last_name.clone_from(&key.name);
            }
            for (bound, cumulative) in h.cumulative_buckets() {
                let le = if bound.is_infinite() { "+Inf".to_string() } else { format!("{bound}") };
                let mut labels = key.labels.clone();
                labels.push(("le".into(), le));
                let series = Key { name: format!("{}_bucket", key.name), labels };
                out.push_str(&format!("{} {cumulative}\n", series.render()));
            }
            let base = Key { name: format!("{}_sum", key.name), labels: key.labels.clone() };
            out.push_str(&format!("{} {}\n", base.render(), h.sum()));
            let base = Key { name: format!("{}_count", key.name), labels: key.labels.clone() };
            out.push_str(&format!("{} {}\n", base.render(), h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = Registry::new();
        r.inc("knots_actions_applied_total", &[("kind", "Place")]);
        r.inc("knots_actions_applied_total", &[("kind", "Place")]);
        r.inc("knots_actions_applied_total", &[("kind", "Resize")]);
        assert_eq!(r.counter_value("knots_actions_applied_total", &[("kind", "Place")]), 2);
        assert_eq!(r.counter_value("knots_actions_applied_total", &[("kind", "Resize")]), 1);
        assert_eq!(r.counter_value("knots_actions_applied_total", &[("kind", "Wake")]), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        r.inc("x_total", &[("a", "1"), ("b", "2")]);
        assert_eq!(r.counter_value("x_total", &[("b", "2"), ("a", "1")]), 1);
    }

    #[test]
    fn prometheus_exposition_has_types_buckets_and_counts() {
        let r = Registry::new();
        r.inc("knots_crashes_total", &[]);
        r.set_gauge("knots_pending_pods", &[], 4.0);
        r.observe_with("knots_heartbeat_latency_us", &[], 120.0, Histogram::latency_us);
        r.observe_with("knots_heartbeat_latency_us", &[], 90.0, Histogram::latency_us);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE knots_crashes_total counter"));
        assert!(text.contains("knots_crashes_total 1"));
        assert!(text.contains("# TYPE knots_pending_pods gauge"));
        assert!(text.contains("knots_pending_pods 4"));
        assert!(text.contains("# TYPE knots_heartbeat_latency_us histogram"));
        assert!(text.contains("knots_heartbeat_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("knots_heartbeat_latency_us_count 2"));
        assert!(text.contains("knots_heartbeat_latency_us_sum 210"));
    }
}
