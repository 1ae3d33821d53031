//! Bounded ring-buffer event sink with JSONL export.

use std::cell::RefCell;
use std::collections::VecDeque;

use crate::event::{Event, FieldValue};

/// One leg's event sink.
///
/// A disabled recorder holds no buffer at all: [`Recorder::record`] is a
/// single `Option` branch, which keeps tracing effectively free when off
/// (the property the telemetry bench asserts). An enabled recorder keeps
/// the most recent `capacity` events and counts what it evicts.
///
/// The recorder belongs to one leg. Schedulers record through a shared
/// borrow (`SchedContext`), so the ring sits in a `RefCell`; a study that
/// runs legs on several threads gives each its own recorder and merges
/// them afterwards with [`Recorder::absorb`].
#[derive(Debug, Default)]
pub struct Recorder {
    ring: Option<RefCell<Ring>>,
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

impl Recorder {
    /// A recorder that silently drops everything.
    pub fn disabled() -> Self {
        Recorder { ring: None }
    }

    /// A recorder retaining at most `capacity` events (oldest evicted).
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Recorder {
            ring: Some(RefCell::new(Ring {
                buf: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                dropped: 0,
            })),
        }
    }

    /// An empty recorder with this one's capacity (disabled when this one
    /// is): what a leg records into before [`Recorder::absorb`].
    pub fn empty_like(&self) -> Self {
        self.ring.as_ref().map_or_else(Self::disabled, |r| Self::bounded(r.borrow().capacity))
    }

    /// Whether events are being kept. Call sites building expensive events
    /// should check this first.
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Append an event, evicting the oldest when full.
    pub fn record(&self, event: Event) {
        let Some(ring) = &self.ring else { return };
        ring.borrow_mut().push(event);
    }

    /// Append `leg`'s events after this recorder's, each with `labels`
    /// prepended to its fields, under this recorder's capacity. What `leg`
    /// evicted counts as dropped here too. A disabled recorder drops them.
    pub fn absorb(&self, leg: Recorder, labels: &[(&'static str, &str)]) {
        let (Some(ring), Some(leg)) = (&self.ring, leg.ring) else { return };
        let leg = leg.into_inner();
        let mut ring = ring.borrow_mut();
        ring.dropped += leg.dropped;
        for mut event in leg.buf {
            let tags = labels.iter().map(|&(k, v)| (k, FieldValue::Str(v.to_string())));
            event.fields.splice(0..0, tags);
            ring.push(event);
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.borrow().buf.len())
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.borrow().dropped)
    }

    /// Snapshot the retained events (oldest first).
    pub fn events(&self) -> Vec<Event> {
        self.ring.as_ref().map_or_else(Vec::new, |r| r.borrow().buf.iter().cloned().collect())
    }

    /// Export retained events as JSON Lines, oldest first.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        let Some(ring) = &self.ring else { return out };
        for e in &ring.borrow().buf {
            #[expect(
                clippy::expect_used,
                reason = "Event is a plain struct with string keys; its Serialize impl cannot fail"
            )]
            out.push_str(&serde_json::to_string(e).expect("event serializes"));
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
}
