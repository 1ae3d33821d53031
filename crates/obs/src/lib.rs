//! Observability for the Kube-Knots control loop.
//!
//! Three pillars, all zero-external-dependency and cheap when disabled:
//!
//! * **Structured events** ([`Recorder`], [`Event`]): a bounded ring buffer
//!   of typed, timestamped records (component, severity, pod/node ids,
//!   key-value payload) exported as JSONL. A disabled recorder is a `None`
//!   behind an `Option` — recording is a single branch. The decision audit
//!   ([`audit`]) writes here: semantic constructors for the *why* of every
//!   scheduler decision — the Spearman coefficient a CBP co-location gate
//!   saw, the Algorithm-1 branch peak prediction took, the reason a
//!   bin-pack pass rejected a pod — so a run's JSONL trace reads as an
//!   explanation, not just a log.
//! * **Metrics** ([`Registry`], [`Histogram`]): labelled counters, gauges
//!   and fixed-bucket histograms with Prometheus text exposition.
//! * **Causal spans** ([`Tracer`], [`Span`], [`Track`]): a bounded ring of
//!   sim-time spans on a control track and one track per pod, with
//!   per-stage latency histograms; `knots-trace` folds them into stage
//!   breakdowns and Chrome traces. A disabled tracer is one branch too.
//!
//! The [`Obs`] bundle holds one of each and is the single handle the
//! orchestrator and experiment binaries thread through the stack. A bundle
//! belongs to one leg (one run of one scheduler on one workload): nothing in
//! it is shared or locked. A study that runs several legs gives each an
//! [`Obs::empty_like`] bundle and folds them back in a fixed order with
//! [`Obs::absorb`], so its outputs do not depend on the thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod event;
pub mod histogram;
pub mod recorder;
pub mod registry;
pub mod tracer;

pub use event::{Event, FieldValue, Severity};
pub use histogram::Histogram;
pub use recorder::Recorder;
pub use registry::Registry;
pub use tracer::{Span, Tracer, Track};

/// One recorder, one metrics registry and one span tracer: the handle the
/// control loop threads through orchestrator, schedulers and experiment
/// binaries.
///
/// One leg owns it; read it back through the orchestrator that ran the
/// leg. A disabled bundle costs one branch per would-be record or span.
#[derive(Debug, Default)]
pub struct Obs {
    /// Structured event/trace sink.
    pub recorder: Recorder,
    /// Counters, gauges and histograms.
    pub metrics: Registry,
    /// Causal sim-time span sink.
    pub tracer: Tracer,
}

impl Obs {
    /// A fully disabled bundle: events and spans are dropped, metrics
    /// still count (they are cheap and always useful in reports).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A bundle with the JSONL event recorder enabled, keeping at most
    /// `capacity` events (oldest evicted first). The span tracer stays
    /// disabled; set [`Obs::tracer`] to a bounded [`Tracer`] for spans.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Obs { recorder: Recorder::bounded(capacity), ..Self::default() }
    }

    /// An empty bundle with this one's sinks switched on at the same
    /// capacities: what one leg records into before [`Obs::absorb`].
    pub fn empty_like(&self) -> Self {
        Obs {
            recorder: self.recorder.empty_like(),
            metrics: Registry::new(),
            tracer: self.tracer.empty_like(),
        }
    }

    /// Fold a leg's bundle into this one: its events after this bundle's,
    /// each with `labels` prepended to its fields; its series with `labels`
    /// added; its spans renumbered after this bundle's. The recorder's and
    /// the tracer's capacities bound the merged rings.
    pub fn absorb(&self, leg: Obs, labels: &[(&'static str, &str)]) {
        self.recorder.absorb(leg.recorder, labels);
        self.metrics.absorb(leg.metrics, labels);
        self.tracer.absorb(leg.tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_drops_events_but_counts_metrics() {
        let obs = Obs::disabled();
        obs.recorder.record(Event::new("test", "noop"));
        assert_eq!(obs.recorder.len(), 0);
        assert!(!obs.tracer.enabled());
        obs.metrics.inc("knots_test_total", &[("kind", "x")]);
        assert_eq!(obs.metrics.counter_value("knots_test_total", &[("kind", "x")]), 1);
    }

    #[test]
    fn enabled_bundle_retains_events() {
        let obs = Obs::with_trace_capacity(16);
        obs.recorder.record(Event::new("test", "hello").u64("n", 3));
        assert_eq!(obs.recorder.len(), 1);
        assert!(obs.recorder.export_jsonl().contains("\"hello\""));
        assert!(!obs.tracer.enabled(), "the JSONL capacity must not switch spans on");
    }

    #[test]
    fn legs_merge_in_order_with_labels_under_the_merged_capacity() {
        let study = Obs::with_trace_capacity(3);
        let legs: Vec<Obs> = (0..2).map(|_| study.empty_like()).collect();
        for (n, leg) in legs.iter().enumerate() {
            for i in 0..2u64 {
                leg.recorder.record(Event::new("test", "tick").at(10 * n as u64 + i).u64("i", i));
            }
            leg.metrics.add("knots_ticks_total", &[("kind", "x")], 2);
            leg.metrics.set_gauge("knots_pending_pods", &[], n as f64);
        }
        for (leg, sched) in legs.into_iter().zip(["Uniform", "CBP"]) {
            study.absorb(leg, &[("scheduler", sched), ("mix", "App-Mix-1")]);
        }
        // Four events through a ring of three: the first leg's first goes.
        assert_eq!((study.recorder.len(), study.recorder.dropped()), (3, 1));
        let at: Vec<u64> = study.recorder.events().iter().map(|e| e.at_us).collect();
        assert_eq!(at, vec![1, 10, 11]);
        let first = &study.recorder.events()[0];
        assert_eq!(first.field("scheduler"), Some(&FieldValue::Str("Uniform".into())));
        assert_eq!(first.fields[1], ("mix", FieldValue::Str("App-Mix-1".into())));
        assert_eq!(first.fields[2], ("i", FieldValue::U64(1)));
        // Each leg's series stays its own.
        let labels = |s| [("kind", "x"), ("mix", "App-Mix-1"), ("scheduler", s)];
        assert_eq!(study.metrics.counter_value("knots_ticks_total", &labels("CBP")), 2);
        assert_eq!(study.metrics.counter_value("knots_ticks_total", &[("kind", "x")]), 0);
        let cbp = [("scheduler", "CBP"), ("mix", "App-Mix-1")];
        assert_eq!(study.metrics.gauge_value("knots_pending_pods", &cbp), Some(1.0));
        assert!(study
            .metrics
            .to_prometheus()
            .contains("knots_ticks_total{kind=\"x\",mix=\"App-Mix-1\",scheduler=\"Uniform\"} 2"));
    }
}
