//! One workload, one process: set-up, fixed-count warm-up, a timed window
//! of 12 equal segments, and bit-exact verification against the scalar
//! reference, which runs after the window and is excluded from every
//! metric.

use std::sync::Arc;
use std::time::Instant;

use threefive::prelude::*;
use threefive::serve::ServeMetrics;
use threefive::serve_runner::reference_checksum;

use crate::estimator::{
    all_job_ms, batch_segments, half_drift_pct, median, noisy_segments, quartiles,
    service_segments, tail_percentile, trimmed, Completion, Job, Segment, SEGMENTS,
};
use crate::host;
use crate::ladder;
use crate::spans::Recorder;
use crate::workloads::{
    service_spec, set_up_batch, threads, Batch, Kind, Reply, Service, Workload,
};
use crate::{Args, Metrics};

/// Operations attempted and failed, and whether the checks ran at all.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// Timed jobs.
    pub attempted: u64,
    /// Jobs that returned `Err`, were rejected, timed out, downgraded or
    /// failed their checksum.
    pub failed: u64,
    /// Segments whose bit-exact verification ran (12 in a sound run).
    pub segments_checked: usize,
    /// Every accounting check of the run held: the daemon's own counts
    /// agree with the client's, and in the traced invocation raw sweep
    /// plus run-layer self time make up the job.
    pub accounting_ok: bool,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.segments_checked == SEGMENTS && self.accounting_ok
    }
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub verdict: Verdict,
    pub metrics: Metrics,
    /// Shown above the result line, not part of it.
    pub notes: Vec<String>,
}

/// The jobs of a finished window, cut into segments.
struct Window {
    segments: Vec<Segment>,
    verdict: Verdict,
}

impl Window {
    /// Times of all successful jobs, ascending.
    fn sorted_job_ms(&self) -> Vec<f64> {
        let mut v = all_job_ms(&self.segments);
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Jobs per segment of this invocation: the traced one runs a quarter,
/// but at least two, so that each of its medians has six samples or more.
pub fn jobs_per_segment(w: &Workload, args: &Args) -> usize {
    let untraced = w.jobs_per_segment(args.seconds);
    if args.trace {
        untraced.div_ceil(4).max(2)
    } else {
        untraced
    }
}

pub fn run(w: &'static Workload, args: &Args, process_start: Instant) -> Outcome {
    let per_segment = jobs_per_segment(w, args);
    if args.trace {
        traced(w, args, per_segment)
    } else {
        end_to_end(w, args, per_segment, process_start)
    }
}

// ---------------------------------------------------------------------------
// Untraced: the four end-to-end metrics
// ---------------------------------------------------------------------------

fn end_to_end(
    w: &'static Workload,
    args: &Args,
    per_segment: usize,
    process_start: Instant,
) -> Outcome {
    // `setup_s` ends where the first timed job begins: plan, allocate and
    // initialise, spawn the team or the daemon, warm-up jobs.
    let (setup_s, window, peak_rss_mib) = match w.kind {
        Kind::Serve => {
            let mut service = set_up_service(w, args.seed, None);
            let setup_s = process_start.elapsed().as_secs_f64();
            let logs = service.drive(SEGMENTS * per_segment);
            let rss = host::peak_rss_mib();
            let accounting_ok = service.accounting_agrees();
            service.stop();
            let expected = expected_service_checksum(w, args);
            let window = service_window(&logs, per_segment, w, expected, accounting_ok);
            (setup_s, window, rss)
        }
        _ => {
            let (mut batch, _) = set_up_batch(w, args.seed);
            warm_up(&mut *batch, w.warmup_jobs);
            let setup_s = process_start.elapsed().as_secs_f64();
            let log = batch_window(&mut *batch, per_segment, None);
            let rss = host::peak_rss_mib();
            (setup_s, verify_batch(batch, log, per_segment, w, args), rss)
        }
    };

    let mut metrics = Metrics::default();
    let t = trimmed(&window.segments);
    metrics.set("setup_s", setup_s);
    metrics.set("mups", t.map_or(f64::NAN, |t| t.mups));
    metrics.set("job_ms_p50", t.map_or(f64::NAN, |t| t.job_ms_p50));
    metrics.set("peak_rss_mib", peak_rss_mib);

    let all = window.sorted_job_ms();
    let mut notes = vec![format!(
        "jobs {} = {SEGMENTS} x {per_segment}, warm-up {}",
        all.len(),
        w.warmup_jobs
    )];
    notes.push(format!(
        "segment mups: {}",
        join(window.segments.iter().map(|s| s.mups))
    ));
    for p in [50.0, 90.0, 99.0] {
        if let Some(v) = tail_percentile(&all, p) {
            notes.push(format!("job.ms_p{p:.0}_all {v:.4} ms (untrimmed)"));
        }
    }
    notes.push(format!(
        "job.ms_max {:.4} ms, bench.noisy_segments {}, bench.half_drift_pct {:.2}",
        all.last().copied().unwrap_or(f64::NAN),
        noisy_segments(&window.segments),
        half_drift_pct(&window.segments)
    ));
    Outcome {
        verdict: window.verdict,
        metrics,
        notes,
    }
}

fn join(values: impl Iterator<Item = f64>) -> String {
    values
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

// ---------------------------------------------------------------------------
// Batch windows
// ---------------------------------------------------------------------------

fn warm_up(batch: &mut dyn Batch, jobs: usize) {
    for _ in 0..jobs {
        batch.job(&Observer::disabled());
    }
}

/// Raw log of a batch window, before the reference is known.
struct BatchLog {
    jobs: Vec<Job>,
    /// Checksum after each segment's first job.
    first_checksums: Vec<u64>,
    reset_s: Vec<f64>,
    downgrades: usize,
    worst_rung: u32,
    /// Per job: was it run with an enabled `Instrument`?
    instrumented: Vec<bool>,
    /// Traced window only, per job: the raw sweep that followed it.
    sweep_ms: Vec<f64>,
    /// Per instrumented job: its time inside the engine's parallel
    /// region. The rest of the job is the run layer's own work.
    region_ms: Vec<f64>,
    timing: threefive::sync::SweepTiming,
}

impl BatchLog {
    /// Times of the jobs run with (or without) an enabled `Instrument`.
    fn job_ms(&self, instrumented: bool) -> Vec<f64> {
        let jobs = self.jobs.iter().zip(&self.instrumented);
        jobs.filter(|(_, &i)| i == instrumented)
            .map(|(j, _)| j.ms)
            .collect()
    }
}

/// Longest time any member has spent inside the parallel region so far:
/// between barriers or waiting at one.
fn in_region_ms(instr: &Instrument) -> f64 {
    let per_thread = instr.timing().per_thread;
    let ns = per_thread.iter().map(|t| t.compute_ns + t.barrier_ns).max();
    ns.unwrap_or(0) as f64 / 1e6
}

/// Runs 12 segments of `per_segment` jobs. Each segment starts (untimed)
/// by putting the seeded state back in place; its first job is timed like
/// any other and its checksum is taken after its clock stops. With
/// `instrument`, the jobs of odd segments pass an enabled `Instrument`
/// through the public `Observer` argument and record a span, and every
/// job is followed by one raw sweep, so that the two see the same phase of
/// the host.
fn batch_window(
    batch: &mut dyn Batch,
    per_segment: usize,
    instrument: Option<(&Instrument, &Recorder)>,
) -> BatchLog {
    let mut log = BatchLog {
        jobs: Vec::with_capacity(SEGMENTS * per_segment),
        first_checksums: Vec::with_capacity(SEGMENTS),
        reset_s: Vec::with_capacity(SEGMENTS),
        downgrades: 0,
        worst_rung: 0,
        instrumented: Vec::new(),
        sweep_ms: Vec::new(),
        region_ms: Vec::new(),
        timing: Default::default(),
    };
    for segment in 0..SEGMENTS {
        let t = Instant::now();
        batch.reset();
        log.reset_s.push(t.elapsed().as_secs_f64());
        let traced = instrument.filter(|_| segment % 2 == 1);
        for j in 0..per_segment {
            let in_region_before = traced.map_or(0.0, |(instr, _)| in_region_ms(instr));
            let start = Instant::now();
            let outcome = match traced {
                Some((instr, _)) => batch.job(&Observer::with_instrument(instr)),
                None => batch.job(&Observer::disabled()),
            };
            let end = Instant::now();
            let ms = (end - start).as_secs_f64() * 1e3;
            if let Some((instr, rec)) = traced {
                let id = (segment * per_segment + j) as u64;
                rec.record("run.job", start, end, None, Some(id));
                log.region_ms.push(in_region_ms(instr) - in_region_before);
            }
            if j == 0 {
                log.first_checksums.push(batch.checksum());
            }
            log.jobs.push(Job { ms, ok: outcome.ok });
            log.instrumented.push(traced.is_some());
            log.downgrades += outcome.downgrades;
            log.worst_rung = log.worst_rung.max(outcome.rung);
            if let Some((_, rec)) = instrument {
                let (ok, secs) = rec.time("run.raw_sweep", None, || batch.raw_sweep());
                assert!(ok, "a healthy team completes the raw sweep");
                log.sweep_ms.push(secs * 1e3);
            }
        }
    }
    if let Some((instr, _)) = instrument {
        log.timing = instr.timing();
    }
    log
}

/// Computes the scalar reference (consuming the batch state) and fails
/// the first job of every segment whose checksum differs from it.
fn verify_batch(
    batch: Box<dyn Batch>,
    mut log: BatchLog,
    per_segment: usize,
    w: &Workload,
    args: &Args,
) -> Window {
    let reference = batch.reference_checksum() ^ u64::from(args.corrupt_reference);
    for (segment, &sum) in log.first_checksums.iter().enumerate() {
        if sum != reference {
            log.jobs[segment * per_segment].ok = false;
        }
    }
    Window {
        segments: batch_segments(&log.jobs, per_segment, w.updates_per_job()),
        verdict: Verdict {
            attempted: log.jobs.len() as u64,
            failed: log.jobs.iter().filter(|j| !j.ok).count() as u64,
            segments_checked: log.first_checksums.len(),
            accounting_ok: true,
        },
    }
}

// ---------------------------------------------------------------------------
// Service windows
// ---------------------------------------------------------------------------

fn set_up_service(w: &Workload, seed: u64, rec: Option<&Arc<Recorder>>) -> Service {
    Service::set_up(w, seed, threads(), ServeMetrics::new(), rec)
}

/// Service jobs are a pure function of their spec, so the reference is
/// the spec's own scalar-reference checksum.
fn expected_service_checksum(w: &Workload, args: &Args) -> u64 {
    reference_checksum(&service_spec(w)) ^ u64::from(args.corrupt_reference)
}

/// Every reply's checksum is compared with the reference.
fn service_window(
    logs: &[Vec<Reply>],
    per_segment: usize,
    w: &Workload,
    expected: u64,
    accounting_ok: bool,
) -> Window {
    let completions: Vec<Vec<Completion>> = logs
        .iter()
        .map(|log| {
            log.iter()
                .map(|r| Completion {
                    done_ns: r.done_ns,
                    ms: r.rtt_ms(),
                    ok: r.checksum == Some(expected),
                })
                .collect()
        })
        .collect();
    let segments = service_segments(&completions, per_segment, w.updates_per_job());
    let attempted = completions.iter().map(Vec::len).sum::<usize>() as u64;
    let ok = segments.iter().map(|s| s.job_ms.len()).sum::<usize>() as u64;
    Window {
        verdict: Verdict {
            attempted,
            failed: attempted - ok,
            segments_checked: segments.len(),
            accounting_ok,
        },
        segments,
    }
}

// ---------------------------------------------------------------------------
// Traced: the per-layer metrics
// ---------------------------------------------------------------------------

/// The service workload's traced window: two daemons, plain and traced,
/// serve alternate segments. Returns the window and the plain and traced
/// round-trip times.
fn traced_service_window(
    w: &Workload,
    args: &Args,
    per_segment: usize,
    rec: &Arc<Recorder>,
) -> (Window, Vec<f64>, Vec<f64>) {
    let mut services = [
        set_up_service(w, args.seed, None),
        set_up_service(w, args.seed, Some(rec)),
    ];
    let mut logs: [Vec<Reply>; 2] = [Vec::new(), Vec::new()];
    let mut offset_ns = 0;
    for segment in 0..SEGMENTS {
        // Each `drive` has its own clock: put the segments one behind
        // the other so completion order keeps them apart.
        let replies = services[segment % 2].drive(per_segment);
        let mut replies: Vec<Reply> = replies.into_iter().flatten().collect();
        for r in &mut replies {
            r.sent_ns += offset_ns;
            r.done_ns += offset_ns;
        }
        offset_ns = replies.iter().map(|r| r.done_ns).max().unwrap_or(offset_ns);
        logs[segment % 2].extend(replies);
    }
    let accounting_ok = services.iter_mut().all(Service::accounting_agrees);
    Service::stop_all(services.into());
    let rtt = |log: &[Reply]| log.iter().map(Reply::rtt_ms).collect::<Vec<_>>();
    let (plain_ms, traced_ms) = (rtt(&logs[0]), rtt(&logs[1]));
    let expected = expected_service_checksum(w, args);
    let window = service_window(&logs, per_segment, w, expected, accounting_ok);
    (window, plain_ms, traced_ms)
}

/// One quarter of the jobs, never used for end-to-end numbers. Even
/// segments run plain and odd ones traced, so the tracing overhead is the
/// difference inside one invocation.
fn traced(w: &'static Workload, args: &Args, per_segment: usize) -> Outcome {
    let rec = Arc::new(Recorder::new());
    let mut metrics = Metrics::default();

    // The workload's own jobs first, on a fresh process as in the
    // untraced invocation; the ladder's probes follow.
    let service =
        (w.kind == Kind::Serve).then(|| traced_service_window(w, args, per_segment, &rec));
    // Direct job calls: the workload itself for the batch kinds, the run
    // layer under the service job for `serve_small`.
    let (mut batch, alloc_init_ms) = set_up_batch(w, args.seed);
    warm_up(&mut *batch, w.warmup_jobs);
    let instr = Instrument::enabled(w.team_threads());
    let log = batch_window(&mut *batch, per_segment, Some((&instr, &rec)));
    let gap_error_pct = run_layer_metrics(&mut metrics, &*batch, &log, alloc_init_ms);
    let (window, plain_ms, traced_ms) = service.unwrap_or_else(|| {
        let (plain_ms, traced_ms) = (log.job_ms(false), log.job_ms(true));
        (
            verify_batch(batch, log, per_segment, w, args),
            plain_ms,
            traced_ms,
        )
    });

    let all = window.sorted_job_ms();
    metrics.set("job.count", all.len() as f64);
    metrics.set("job.ms_p50_all", median(&all));
    metrics.set("job.ms_max", all.last().copied().unwrap_or(f64::NAN));
    metrics.set(
        "bench.noisy_segments",
        noisy_segments(&window.segments) as f64,
    );
    metrics.set("bench.half_drift_pct", half_drift_pct(&window.segments));
    let (plain, traced) = (median(&plain_ms), median(&traced_ms));
    metrics.set("bench.trace_overhead_pct", (traced - plain) / plain * 100.0);
    metrics.set("verify.attempted", window.verdict.attempted as f64);
    metrics.set("verify.failed", window.verdict.failed as f64);
    metrics.set(
        "verify.segments_checked",
        window.verdict.segments_checked as f64,
    );

    let mut notes = vec![format!(
        "traced window: {} jobs = {SEGMENTS} x {per_segment}; plain p50 {plain:.4} ms, traced p50 {traced:.4} ms",
        all.len()
    )];
    for p in [90.0, 99.0] {
        if let Some(v) = tail_percentile(&all, p) {
            notes.push(format!("job.ms_p{p:.0}_all {v:.4} ms (untrimmed)"));
        }
    }
    let mut verdict = window.verdict;
    if w.kind != Kind::Serve {
        let gap_pct = metrics.get("run.accounting_gap_pct");
        // NaN compares false: a gap that could not be measured fails.
        let closes = gap_pct.abs() - 2.0 * gap_error_pct <= ACCOUNTING_TOLERANCE_PCT;
        verdict.accounting_ok &= closes;
        notes.push(format!(
            "accounting: run.sweep_ms + run.self_ms miss run.job_ms by {gap_pct:.2} % +- {:.2} % \
             (twice the standard error), tolerance {ACCOUNTING_TOLERANCE_PCT} %: {}",
            2.0 * gap_error_pct,
            if closes { "closes" } else { "DOES NOT CLOSE" }
        ));
    }
    if !ladder::measure(w, args.seed, &rec, &mut metrics) {
        verdict.accounting_ok = false;
        notes.push(
            "accounting: the ladder's daemons count other jobs than their client sent".into(),
        );
    }

    let header = crate::header(w, args, per_segment);
    match crate::write_trace(w.name, &header, &rec) {
        Ok((path, spans)) => notes.push(format!("spans: {spans} written to {path}")),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
    Outcome {
        verdict,
        metrics,
        notes,
    }
}

/// Most by which the sweep inside a job and the sweep called directly may
/// differ, as a share of the job. The traced invocation fails when the
/// measured gap exceeds it by more than twice its own standard error.
const ACCOUNTING_TOLERANCE_PCT: f64 = 5.0;

/// `run.*`, `grid.*` and the in-job `sync.*` numbers from the traced
/// window of direct job calls. An instrumented job splits exactly into
/// its time inside the engine's parallel region and the run layer's self
/// time. The accounting closes when the sweep called directly, outside
/// any job, takes as long as that region: then raw sweep plus self time
/// make up the job, and `run.overhead_share` is what the run layer costs.
/// Returns the gap's standard error in percent of the job.
fn run_layer_metrics(
    metrics: &mut Metrics,
    batch: &dyn Batch,
    log: &BatchLog,
    alloc_init_ms: f64,
) -> f64 {
    let job_ms = median(&log.job_ms(false));
    let traced = (0..log.jobs.len()).filter(|&i| log.instrumented[i]);
    let (self_ms, unexplained_ms): (Vec<f64>, Vec<f64>) = traced
        .zip(&log.region_ms)
        .map(|(i, region_ms)| (log.jobs[i].ms - region_ms, region_ms - log.sweep_ms[i]))
        .unzip();
    let sweep_ms = median(&log.sweep_ms);
    let gap_pct = median(&unexplained_ms) / job_ms * 100.0;
    // Standard error of a median, the sample's scale taken from its
    // quartiles: 1.2533 x (IQR / 1.349) / sqrt(n).
    let (q1, q3) = quartiles(&unexplained_ms).unwrap_or((f64::NAN, f64::NAN));
    let error_pct = 0.929 * (q3 - q1) / (unexplained_ms.len() as f64).sqrt() / job_ms * 100.0;
    metrics.set("run.job_ms", job_ms);
    metrics.set("run.sweep_ms", sweep_ms);
    metrics.set("run.self_ms", median(&self_ms));
    metrics.set("run.overhead_share", 1.0 - sweep_ms / job_ms);
    metrics.set("run.accounting_gap_pct", gap_pct);
    metrics.set("run.downgrades", log.downgrades as f64);
    metrics.set("run.rung", f64::from(log.worst_rung));
    metrics.set("sync.barrier_share", log.timing.barrier_share());
    metrics.set("grid.alloc_init_ms", alloc_init_ms);
    metrics.set(
        "grid.copy_gbs",
        batch.reset_bytes() as f64 / median(&log.reset_s) / 1e9,
    );
    error_pct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn traced_window_pairs_jobs_with_raw_sweeps_and_splits_instrumented_jobs() {
        let w = Workload {
            n: 12,
            steps: 4,
            ..WORKLOADS[0]
        };
        let (mut batch, alloc_init_ms) = set_up_batch(&w, 3);
        let (instr, rec) = (Instrument::enabled(w.team_threads()), Recorder::new());
        let log = batch_window(&mut *batch, 2, Some((&instr, &rec)));
        assert_eq!(log.jobs.len(), SEGMENTS * 2);
        assert_eq!(log.sweep_ms.len(), log.jobs.len());
        assert_eq!(log.region_ms.len(), log.jobs.len() / 2);
        // The parallel region lies inside the job that ran it.
        let traced = log.job_ms(true);
        for (job_ms, region_ms) in traced.iter().zip(&log.region_ms) {
            assert!(0.0 < *region_ms && region_ms <= job_ms);
        }
        let mut m = Metrics::default();
        run_layer_metrics(&mut m, &*batch, &log, alloc_init_ms);
        assert!(m.get("run.self_ms") > 0.0);
        assert!(m.get("run.sweep_ms") > 0.0);
        assert!(m.get("run.accounting_gap_pct").is_finite());
    }
}
