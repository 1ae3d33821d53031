//! Bounded ring-buffer event sink with JSONL export.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::Event;

/// Shared, clonable event sink.
///
/// A disabled recorder holds no buffer at all: [`Recorder::record`] is a
/// single `Option` branch, which keeps tracing effectively free when off
/// (the property the telemetry bench asserts). An enabled recorder keeps
/// the most recent `capacity` events and counts what it evicts.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    buf: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Recorder {
    /// A recorder that silently drops everything.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder retaining at most `capacity` events (oldest evicted).
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Recorder {
            inner: Some(Arc::new(Inner {
                buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
                capacity,
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Whether events are being kept. Call sites building expensive events
    /// should check this first.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Append an event, evicting the oldest when full.
    pub fn record(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        let mut buf = inner.buf.lock();
        if buf.len() == inner.capacity {
            buf.pop_front();
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.buf.lock().len())
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Snapshot the retained events (oldest first).
    pub fn events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.buf.lock().iter().cloned().collect())
    }

    /// Export retained events as JSON Lines, oldest first.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            #[expect(
                clippy::expect_used,
                reason = "Event is a plain struct with string keys; its Serialize impl cannot fail"
            )]
            out.push_str(&serde_json::to_string(&e).expect("event serializes"));
            out.push('\n');
        }
        out
    }

    /// Write the JSONL export to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.export_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Severity;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        r.record(Event::new("x", "y"));
        assert!(!r.enabled());
        assert!(r.is_empty());
        assert_eq!(r.export_jsonl(), "");
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let r = Recorder::bounded(3);
        for i in 0..5u64 {
            r.record(Event::new("t", "e").at(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r.events().iter().map(|e| e.at_us).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_export_is_one_line_per_event() {
        let r = Recorder::bounded(8);
        r.record(Event::new("a", "first").severity(Severity::Warn));
        r.record(Event::new("a", "second").u64("n", 1));
        let out = r.export_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"warn\""));
        assert!(lines[1].contains("\"second\""));
    }

    #[test]
    fn clones_share_the_buffer() {
        let r = Recorder::bounded(8);
        let r2 = r.clone();
        r2.record(Event::new("a", "shared"));
        assert_eq!(r.len(), 1);
    }
}
