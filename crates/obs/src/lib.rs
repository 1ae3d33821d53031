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
//! orchestrator and experiment binaries thread through the stack.

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
/// Cloning is cheap (shared interior); a disabled bundle costs one branch
/// per would-be record or span.
#[derive(Clone, Debug, Default)]
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
}
