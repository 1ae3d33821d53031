//! Chrome-trace-format (Trace Event Format) exporter.
//!
//! Emits the JSON object form `{"traceEvents": [...]}` that
//! `chrome://tracing` and Perfetto load directly. Complete spans become
//! `ph: "X"` events with `ts`/`dur` in (sim-time) microseconds — which is
//! exactly the unit the format expects — and instants become `ph: "i"`
//! thread-scoped events. The control loop renders as process 1; pods
//! render as process 2 with one thread per pod id, so a loaded trace shows
//! the orchestrator timeline above a lane per pod.
//!
//! Output is built from the serde shim's `Value` tree and serialized with
//! field order fixed by construction, so the bytes are a deterministic
//! function of the span list.

use knots_obs::{FieldValue, Span, Track};
use serde::Value;

/// Process id for the orchestrator/control track.
const PID_CONTROL: u64 = 1;
/// Process id under which every pod renders as its own thread.
const PID_PODS: u64 = 2;

fn field_to_value(v: &FieldValue) -> Value {
    match v {
        FieldValue::F64(x) => Value::F64(*x),
        FieldValue::I64(x) => Value::I64(*x),
        FieldValue::U64(x) => Value::U64(*x),
        FieldValue::Bool(x) => Value::Bool(*x),
        FieldValue::Str(x) => Value::Str(x.clone()),
    }
}

fn event(span: &Span) -> Value {
    let (pid, tid, cat) = match span.track {
        Track::Control => (PID_CONTROL, 0, "system"),
        Track::Pod(id) => (PID_PODS, id, "lifecycle"),
    };
    let mut entries = vec![
        ("name".to_string(), Value::Str(span.name.to_string())),
        ("cat".to_string(), Value::Str(cat.to_string())),
    ];
    match span.dur_us {
        Some(dur) => {
            entries.push(("ph".to_string(), Value::Str("X".to_string())));
            entries.push(("ts".to_string(), Value::U64(span.start_us)));
            entries.push(("dur".to_string(), Value::U64(dur)));
        }
        None => {
            entries.push(("ph".to_string(), Value::Str("i".to_string())));
            entries.push(("ts".to_string(), Value::U64(span.start_us)));
            entries.push(("s".to_string(), Value::Str("t".to_string())));
        }
    }
    entries.push(("pid".to_string(), Value::U64(pid)));
    entries.push(("tid".to_string(), Value::U64(tid)));
    let mut args = vec![("id".to_string(), Value::U64(span.id))];
    if let Some(parent) = span.parent {
        args.push(("parent".to_string(), Value::U64(parent)));
    }
    for (k, v) in &span.args {
        args.push((k.to_string(), field_to_value(v)));
    }
    entries.push(("args".to_string(), Value::Object(args)));
    Value::Object(entries)
}

fn process_name(pid: u64, name: &str) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::Str("process_name".to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::U64(pid)),
        (
            "args".to_string(),
            Value::Object(vec![("name".to_string(), Value::Str(name.to_string()))]),
        ),
    ])
}

/// Render `spans` as a Chrome trace JSON string.
pub fn export(spans: &[Span]) -> String {
    let mut events =
        vec![process_name(PID_CONTROL, "control-loop"), process_name(PID_PODS, "pods")];
    events.extend(spans.iter().map(event));
    let root = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    // knots-allow: P1 -- a Value tree always serializes
    serde_json::to_string(&root).expect("chrome trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use knots_obs::Tracer;

    #[test]
    fn export_emits_complete_and_instant_events() {
        let t = Tracer::bounded(8);
        let q = t.record_complete(Track::Pod(3), "queued", 10, 60, None, vec![]).unwrap();
        t.record_instant(
            Track::Pod(3),
            "checkpoint",
            60,
            Some(q),
            vec![("fraction", FieldValue::F64(0.9))],
        );
        t.record_instant(Track::Control, "probe.round", 20, None, vec![]);
        let json = export(&t.spans());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains(
            "\"name\":\"queued\",\"cat\":\"lifecycle\",\"ph\":\"X\",\"ts\":10,\"dur\":50"
        ));
        assert!(json.contains("\"name\":\"checkpoint\",\"cat\":\"lifecycle\",\"ph\":\"i\""));
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"name\":\"probe.round\",\"cat\":\"system\""));
        assert!(json.contains("\"process_name\""));
        // Round-trips through the JSON parser (Perfetto-loadable shape).
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        match v {
            serde::Value::Object(entries) => assert_eq!(entries[0].0, "traceEvents"),
            _ => panic!("not an object"),
        }
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let t = Tracer::bounded(8);
            t.record_complete(Track::Pod(1), "running", 0, 500, None, vec![]);
            t.record_instant(Track::Control, "chaos.inject", 250, None, vec![]);
            export(&t.spans())
        };
        assert_eq!(build(), build());
    }
}
