//! Chrome trace-event / Perfetto JSON export of a [`TraceSnapshot`].
//!
//! The [trace-event format] is the lingua franca of timeline viewers:
//! `ui.perfetto.dev` and `chrome://tracing` both load a JSON object with
//! a `traceEvents` array whose entries carry `name`, `ph` (phase), `ts`
//! (microseconds), `pid` and `tid`. We emit complete spans (`ph: "X"`
//! with `dur`) for plane×level and barrier-wait work and instant events
//! (`ph: "i"`) for quarantine/heal/fallback markers, plus `"M"` metadata
//! records naming the process and each team member's track.
//!
//! Everything is built on the crate's own [`Json`] tree — the build is
//! offline, so no serde — and [`validate_chrome_trace`] re-parses what
//! the writer produced, which is the check `threefive trace --validate`
//! and CI run on every exported file.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use threefive_sync::{TraceEventKind, TraceSnapshot};

use crate::json::Json;

/// Process id stamped into every event (one process per export).
pub const TRACE_PID: u64 = 1;

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn span_name(kind: &TraceEventKind) -> String {
    match kind {
        TraceEventKind::Plane { z, level } => format!("plane z={z} t'={level}"),
        TraceEventKind::Barrier { step } => format!("barrier s={step}"),
        TraceEventKind::Quarantine { tid } => format!("quarantine tid={tid}"),
        TraceEventKind::Heal { tid } => format!("heal tid={tid}"),
        TraceEventKind::Fallback { from, to } => format!("fallback {from}->{to}"),
    }
}

fn meta_event(name: &str, tid: u64, key: &str, value: &str) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("ph".into(), Json::str("M")),
        ("ts".into(), Json::Num(0.0)),
        ("pid".into(), Json::Num(TRACE_PID as f64)),
        ("tid".into(), Json::Num(tid as f64)),
        (
            "args".into(),
            Json::Obj(vec![(key.into(), Json::str(value))]),
        ),
    ])
}

/// Converts a snapshot into a Chrome trace-event JSON document.
///
/// `process_name` labels the single process track (e.g.
/// `"threefive 64x64x64 dimT=4"`). Events keep per-thread recording
/// order, so `ts` is monotonic within each `tid`.
pub fn trace_to_chrome_json(snapshot: &TraceSnapshot, process_name: &str) -> Json {
    let mut events = Vec::with_capacity(snapshot.total_events() + snapshot.threads.len() + 1);
    events.push(meta_event("process_name", 0, "name", process_name));
    for (tid, tt) in snapshot.threads.iter().enumerate() {
        events.push(meta_event(
            "thread_name",
            tid as u64,
            "name",
            &format!("team member {tid}"),
        ));
        for e in &tt.events {
            let instant = matches!(
                e.kind,
                TraceEventKind::Quarantine { .. }
                    | TraceEventKind::Heal { .. }
                    | TraceEventKind::Fallback { .. }
            );
            let mut fields = vec![
                ("name".into(), Json::str(span_name(&e.kind))),
                ("cat".into(), Json::str(e.kind.label())),
                ("ph".into(), Json::str(if instant { "i" } else { "X" })),
                ("ts".into(), Json::Num(us(e.start_ns))),
                ("pid".into(), Json::Num(TRACE_PID as f64)),
                ("tid".into(), Json::Num(tid as f64)),
            ];
            if instant {
                // Thread-scoped instant marker.
                fields.push(("s".into(), Json::str("t")));
            } else {
                fields.push(("dur".into(), Json::Num(us(e.duration_ns()))));
            }
            events.push(Json::Obj(fields));
        }
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::str("ns")),
    ])
}

/// Summary of a validated trace document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceFileSummary {
    /// Non-metadata events in the file.
    pub events: usize,
    /// Distinct `tid` values seen.
    pub threads: usize,
    /// Complete spans (`ph: "X"`).
    pub spans: usize,
    /// Instant events (`ph: "i"`).
    pub instants: usize,
}

/// Checks that `doc` is a loadable Chrome trace-event document: a
/// `traceEvents` array whose entries all carry `name`, `ph`, `ts`,
/// `pid` and `tid`, with `ts` monotonically non-decreasing per
/// `(pid, tid)` track. Returns counts on success and a named-field
/// error on the first violation.
pub fn validate_chrome_trace(doc: &Json) -> Result<TraceFileSummary, String> {
    let events = doc.req_arr("traceEvents")?;
    let mut summary = TraceFileSummary::default();
    let mut last_ts: Vec<(u64, u64, f64)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let required = || -> Result<_, String> {
            Ok((
                e.req_str("name")?,
                e.req_str("ph")?,
                e.req_f64("ts")?,
                e.req_u64("pid")?,
                e.req_u64("tid")?,
            ))
        };
        let (name, ph, ts, pid, tid) = required().map_err(|err| format!("event {i}: {err}"))?;
        if ph == "M" {
            continue; // metadata records carry no timeline position
        }
        match ph.as_str() {
            "X" => {
                e.req_f64("dur")
                    .map_err(|err| format!("event {i} ('{name}'): span {err}"))?;
                summary.spans += 1;
            }
            "i" => summary.instants += 1,
            other => return Err(format!("event {i} ('{name}'): unsupported phase '{other}'")),
        }
        match last_ts.iter_mut().find(|(p, t, _)| *p == pid && *t == tid) {
            Some((_, _, last)) => {
                if ts < *last {
                    return Err(format!(
                        "event {i} ('{name}'): ts {ts} before {last} on pid {pid} tid {tid} \
                         (per-thread timestamps must be monotonic)"
                    ));
                }
                *last = ts;
            }
            None => last_ts.push((pid, tid, ts)),
        }
        summary.events += 1;
    }
    summary.threads = last_ts.len();
    Ok(summary)
}

/// Parses JSON text and validates it as a Chrome trace-event document —
/// the `threefive trace --validate` entry point.
pub fn validate_trace_str(text: &str) -> Result<TraceFileSummary, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    validate_chrome_trace(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use threefive_sync::Tracer;

    fn sample_snapshot() -> TraceSnapshot {
        let t = Tracer::enabled(2);
        t.record(0, TraceEventKind::Plane { z: 0, level: 1 }, 100, 300);
        t.record(0, TraceEventKind::Barrier { step: 0 }, 300, 450);
        t.record(0, TraceEventKind::Plane { z: 1, level: 1 }, 450, 700);
        t.instant(1, TraceEventKind::Quarantine { tid: 1 }, 500);
        t.instant(1, TraceEventKind::Fallback { from: 0, to: 1 }, 600);
        t.snapshot()
    }

    #[test]
    fn export_round_trips_and_validates() {
        let doc = trace_to_chrome_json(&sample_snapshot(), "test");
        let text = format!("{doc}\n");
        let summary = validate_trace_str(&text).expect("valid trace");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.instants, 2);
        assert_eq!(summary.events, 5);
        assert_eq!(summary.threads, 2);
    }

    #[test]
    fn exported_events_carry_perfetto_required_keys() {
        let doc = trace_to_chrome_json(&sample_snapshot(), "test");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        for e in events {
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(e.get(key).is_some(), "missing {key} in {e}");
            }
        }
        // Timestamps are microseconds: a 200 ns span shows as 0.2 µs.
        let first_span = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(first_span.get("ts").unwrap().as_f64(), Some(0.1));
        assert_eq!(first_span.get("dur").unwrap().as_f64(), Some(0.2));
    }

    #[test]
    fn validator_names_the_missing_field() {
        let bad = r#"{"traceEvents": [{"ph": "X", "ts": 1, "pid": 1, "tid": 0}]}"#;
        let err = validate_trace_str(bad).unwrap_err();
        assert!(err.contains("'name'"), "{err}");
        let no_arr = r#"{"foo": 1}"#;
        assert!(validate_trace_str(no_arr)
            .unwrap_err()
            .contains("traceEvents"));
    }

    #[test]
    fn validator_rejects_non_monotonic_thread_timestamps() {
        let bad = r#"{"traceEvents": [
            {"name": "a", "ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 2, "dur": 1, "pid": 1, "tid": 0}
        ]}"#;
        let err = validate_trace_str(bad).unwrap_err();
        assert!(err.contains("monotonic"), "{err}");
        // Same timestamps on different tids are fine.
        let ok = r#"{"traceEvents": [
            {"name": "a", "ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 2, "dur": 1, "pid": 1, "tid": 1}
        ]}"#;
        assert!(validate_trace_str(ok).is_ok());
    }
}
