//! In-memory span recorder for the traced invocation.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions; spans inside the program are a
//! later change. Everything stays in memory until the process ends and
//! is then written once to `benchmark/out/trace_<workload>.json`.

use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use threefive::bench::json::Json;

/// One closed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, the layer being the program's module name.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one job share this identifier.
    pub job: Option<u64>,
}

/// Shared by the main thread, the client threads and the daemon's
/// dispatcher (through the `JobRunner` decorator), hence the mutex; only
/// the traced invocation ever records, so end-to-end numbers never pay
/// for it.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: Option<u64>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            job,
        });
        spans.len() - 1
    }

    /// Times `f` as one span and returns its result with the elapsed
    /// seconds.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, None);
        (out, (end - start).as_secs_f64())
    }

    /// Makes each `child` span the child of the `parent`-named span with
    /// the same job identifier (the daemon runs a job on another thread
    /// than the one that sent it, so the link is made afterwards).
    pub fn link_by_job(&self, child: &str, parent: &str) {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let parents: std::collections::HashMap<u64, usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .filter_map(|(i, s)| s.job.map(|j| (j, i)))
            .collect();
        for s in spans.iter_mut().filter(|s| s.name == child) {
            s.parent = s.job.and_then(|j| parents.get(&j).copied());
        }
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover.
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    let s = &spans[index];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(index))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let (mut total, mut reach) = (0u64, s.start_ns);
    for (a, b) in covered {
        if b > reach {
            total += b - a.max(reach);
            reach = b;
        }
    }
    (s.end_ns - s.start_ns) - total
}

/// Indices of the spans called `name` whose job identifier is in `jobs`.
fn select<'a>(
    spans: &'a [Span],
    name: &'a str,
    jobs: &'a Range<u64>,
) -> impl Iterator<Item = usize> + 'a {
    (0..spans.len())
        .filter(move |&i| spans[i].name == name && spans[i].job.is_some_and(|j| jobs.contains(&j)))
}

/// Self times (ns) of the spans called `name` of the given jobs.
pub fn self_times(spans: &[Span], name: &str, jobs: &Range<u64>) -> Vec<f64> {
    select(spans, name, jobs)
        .map(|i| self_ns(spans, i) as f64)
        .collect()
}

/// Durations (ns) of the spans called `name` of the given jobs.
pub fn durations(spans: &[Span], name: &str, jobs: &Range<u64>) -> Vec<f64> {
    select(spans, name, jobs)
        .map(|i| (spans[i].end_ns - spans[i].start_ns) as f64)
        .collect()
}

/// The trace file: a header object and one object per span.
pub fn to_json(header: &[(&'static str, String)], spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
    let header = header.iter().map(|(k, v)| (k.to_string(), Json::str(v)));
    let spans = spans.iter().enumerate().map(|(id, s)| {
        Json::Obj(vec![
            ("id".into(), Json::Num(id as f64)),
            ("name".into(), Json::str(s.name)),
            ("start_ns".into(), Json::Num(s.start_ns as f64)),
            ("end_ns".into(), Json::Num(s.end_ns as f64)),
            ("parent".into(), opt(s.parent.map(|p| p as u64))),
            ("job".into(), opt(s.job)),
        ])
    });
    Json::Obj(vec![
        ("header".into(), Json::Obj(header.collect())),
        ("spans".into(), Json::Arr(spans.collect())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<usize>, job: Option<u64>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            job,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", 0, 100, None, None),
            span("a", 10, 40, Some(0), None),
            span("b", 30, 60, Some(0), None),  // overlaps a by 10
            span("c", 90, 120, Some(0), None), // clipped to the parent's end
            span("grandchild", 12, 20, Some(1), None),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_ns(&spans, 1), 30 - 8);
        assert_eq!(self_ns(&spans, 4), 8);
    }

    #[test]
    fn runner_spans_are_linked_to_the_round_trip_of_the_same_job() {
        let rec = Recorder::new();
        let t = Instant::now();
        rec.record("serve.solve_rtt", t, t, None, Some(2));
        rec.record("serve_runner.run", t, t, None, Some(2));
        rec.record("serve_runner.run", t, t, None, Some(9));
        rec.link_by_job("serve_runner.run", "serve.solve_rtt");
        let spans = rec.snapshot();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(durations(&spans, "serve_runner.run", &(0..5)).len(), 1);
        assert_eq!(self_times(&spans, "serve.solve_rtt", &(0..5)), vec![0.0]);
        let text = to_json(&[("seed", "1".into())], &spans);
        assert!(threefive::bench::json::Json::parse(&text).is_ok(), "{text}");
    }
}
