//! Chrome `trace_event` JSON export and validation.
//!
//! [`export`] renders recorded events in the JSON Object Format of the
//! Chrome trace-event spec (`{"traceEvents": [...]}`), which Perfetto and
//! `chrome://tracing` load directly. [`validate`] re-parses such a file
//! and checks the structural invariants the viewers rely on — balanced
//! begin/end nesting per thread with matching names, monotonically
//! non-decreasing timestamps, numeric counter samples — so CI can gate on
//! a trace actually being loadable rather than merely being JSON.

use serde_json::Value;

use crate::tracer::{Event, EventKind};

/// The process id recorded on every event (the simulator is one process).
const PID: i128 = 1;

/// Builds one trace row for an event.
fn event_row(e: &Event) -> Value {
    let mut row = Value::new_object();
    row.push_field("name", Value::Str(e.name.clone()));
    row.push_field("cat", Value::Str(e.cat.to_string()));
    row.push_field("ph", Value::Str(e.kind.phase().to_string()));
    row.push_field("ts", Value::Int(e.ts_us as i128));
    row.push_field("pid", Value::Int(PID));
    row.push_field("tid", Value::Int(e.tid as i128));
    match e.kind {
        EventKind::Counter => {
            let mut args = Value::new_object();
            args.push_field("value", Value::Float(e.value));
            row.push_field("args", args);
        }
        // Process-scoped instants render as vertical lines.
        EventKind::Instant => row.push_field("s", Value::Str("p".to_string())),
        EventKind::Begin | EventKind::End => {}
    }
    row
}

/// Renders events as a Chrome trace JSON object (compact, one line).
pub fn export(events: &[Event]) -> String {
    let mut root = Value::new_object();
    root.push_field(
        "traceEvents",
        Value::Array(events.iter().map(event_row).collect()),
    );
    root.push_field("displayTimeUnit", Value::Str("ms".to_string()));
    serde_json::to_string(&root).expect("trace value serializes")
}

/// Tallies from a validated trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events.
    pub events: usize,
    /// Completed begin/end span pairs.
    pub spans: usize,
    /// Counter samples.
    pub counters: usize,
    /// Instant events.
    pub instants: usize,
    /// Largest timestamp seen (microseconds).
    pub max_ts_us: u64,
}

fn field<'v>(ev: &'v Value, name: &str, idx: usize) -> Result<&'v Value, String> {
    match ev.get(name) {
        Some(Value::Null) | None => Err(format!("event {idx}: missing field {name:?}")),
        Some(v) => Ok(v),
    }
}

fn str_field(ev: &Value, name: &str, idx: usize) -> Result<String, String> {
    match field(ev, name, idx)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!(
            "event {idx}: {name} is {}, not a string",
            other.kind()
        )),
    }
}

fn int_field(ev: &Value, name: &str, idx: usize) -> Result<i128, String> {
    match field(ev, name, idx)? {
        Value::Int(i) => Ok(*i),
        other => Err(format!(
            "event {idx}: {name} is {}, not an integer",
            other.kind()
        )),
    }
}

/// Parses a Chrome trace JSON document and checks that Perfetto would
/// accept it: every event carries `name`/`ph`/`ts`/`pid`/`tid`, timestamps
/// never decrease, `B`/`E` events nest with matching names per thread and
/// every span is closed, and counters carry a numeric `args.value`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate(json: &str) -> Result<TraceCheck, String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = match root.get("traceEvents") {
        Some(Value::Array(a)) => a,
        Some(other) => return Err(format!("traceEvents is {}, not an array", other.kind())),
        None => return Err("missing traceEvents array".to_string()),
    };
    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    // Open-span stack per (pid, tid).
    let mut stacks: Vec<((i128, i128), Vec<String>)> = Vec::new();
    let mut last_ts: Option<i128> = None;
    for (idx, ev) in events.iter().enumerate() {
        let name = str_field(ev, "name", idx)?;
        let ph = str_field(ev, "ph", idx)?;
        let ts = int_field(ev, "ts", idx)?;
        let pid = int_field(ev, "pid", idx)?;
        let tid = int_field(ev, "tid", idx)?;
        if ts < 0 {
            return Err(format!("event {idx} ({name}): negative timestamp {ts}"));
        }
        if let Some(last) = last_ts {
            if ts < last {
                return Err(format!(
                    "event {idx} ({name}): timestamp {ts} decreases from {last}"
                ));
            }
        }
        last_ts = Some(ts);
        check.max_ts_us = check.max_ts_us.max(ts as u64);
        let key = (pid, tid);
        let stack = match stacks.iter_mut().find(|(k, _)| *k == key) {
            Some((_, s)) => s,
            None => {
                stacks.push((key, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        match ph.as_str() {
            "B" => stack.push(name),
            "E" => match stack.pop() {
                Some(open) if open == name => check.spans += 1,
                Some(open) => {
                    return Err(format!(
                        "event {idx}: end of {name:?} but {open:?} is open on tid {tid}"
                    ))
                }
                None => {
                    return Err(format!(
                        "event {idx}: end of {name:?} with no open span on tid {tid}"
                    ))
                }
            },
            "i" | "I" => check.instants += 1,
            "C" => {
                match ev.get("args").and_then(|a| a.get("value")) {
                    Some(Value::Int(_) | Value::Float(_)) => {}
                    _ => {
                        return Err(format!(
                            "event {idx} ({name}): counter without numeric args.value"
                        ))
                    }
                }
                check.counters += 1;
            }
            other => return Err(format!("event {idx} ({name}): unsupported ph {other:?}")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "unbalanced trace: span {open:?} never ends on pid {pid} tid {tid}"
            ));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, ts_us: u64, tid: u32, name: &str, value: f64) -> Event {
        Event {
            kind,
            ts_us,
            tid,
            cat: "test",
            name: name.to_string(),
            value,
        }
    }

    #[test]
    fn export_validate_round_trip() {
        let events = vec![
            ev(EventKind::Begin, 1, 1, "outer", 0.0),
            ev(EventKind::Begin, 2, 1, "inner", 0.0),
            ev(EventKind::Counter, 3, 1, "bytes", 64.0),
            ev(EventKind::End, 4, 1, "inner", 0.0),
            ev(EventKind::Instant, 5, 1, "tick", 0.0),
            ev(EventKind::End, 6, 1, "outer", 0.0),
        ];
        let json = export(&events);
        let check = validate(&json).expect("trace validates");
        assert_eq!(check.events, 6);
        assert_eq!(check.spans, 2);
        assert_eq!(check.counters, 1);
        assert_eq!(check.instants, 1);
        assert_eq!(check.max_ts_us, 6);
    }

    #[test]
    fn empty_trace_validates() {
        let check = validate(&export(&[])).expect("empty trace validates");
        assert_eq!(check, TraceCheck::default());
    }

    #[test]
    fn per_thread_stacks_are_independent() {
        let events = vec![
            ev(EventKind::Begin, 1, 1, "a", 0.0),
            ev(EventKind::Begin, 2, 2, "b", 0.0),
            ev(EventKind::End, 3, 1, "a", 0.0),
            ev(EventKind::End, 4, 2, "b", 0.0),
        ];
        assert_eq!(validate(&export(&events)).expect("validates").spans, 2);
    }

    #[test]
    fn dangling_begin_is_rejected() {
        let events = vec![ev(EventKind::Begin, 1, 1, "leak", 0.0)];
        let err = validate(&export(&events)).unwrap_err();
        assert!(err.contains("never ends"), "{err}");
    }

    #[test]
    fn mismatched_end_is_rejected() {
        let events = vec![
            ev(EventKind::Begin, 1, 1, "a", 0.0),
            ev(EventKind::End, 2, 1, "b", 0.0),
        ];
        let err = validate(&export(&events)).unwrap_err();
        assert!(err.contains("is open"), "{err}");
    }

    #[test]
    fn end_without_begin_is_rejected() {
        let events = vec![ev(EventKind::End, 1, 1, "orphan", 0.0)];
        let err = validate(&export(&events)).unwrap_err();
        assert!(err.contains("no open span"), "{err}");
    }

    #[test]
    fn decreasing_timestamps_are_rejected() {
        let events = vec![
            ev(EventKind::Instant, 5, 1, "late", 0.0),
            ev(EventKind::Instant, 4, 1, "early", 0.0),
        ];
        let err = validate(&export(&events)).unwrap_err();
        assert!(err.contains("decreases"), "{err}");
    }

    #[test]
    fn non_json_and_wrong_shapes_are_rejected() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").unwrap_err().contains("missing traceEvents"));
        assert!(validate("{\"traceEvents\": 3}")
            .unwrap_err()
            .contains("not an array"));
        let missing_ph = "{\"traceEvents\":[{\"name\":\"x\",\"ts\":1,\"pid\":1,\"tid\":1}]}";
        assert!(validate(missing_ph).unwrap_err().contains("missing field"));
    }

    #[test]
    fn counter_without_value_is_rejected() {
        let json = "{\"traceEvents\":[{\"name\":\"c\",\"ph\":\"C\",\"ts\":1,\"pid\":1,\"tid\":1}]}";
        let err = validate(json).unwrap_err();
        assert!(err.contains("args.value"), "{err}");
    }
}
