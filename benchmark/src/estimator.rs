//! Interference-trimmed estimators over a window of 12 equal segments.
//!
//! On a shared host a neighbour can only *subtract* speed: the floor of a
//! 384³ sweep repeats within ±1 %, interrupted by ≈10 s episodes of
//! +8…+24 %. A window is therefore cut into [`SEGMENTS`] equal segments,
//! each with its own throughput, and the end-to-end metrics read the
//! fast end of those: `mups` is the highest segment value and `job_ms_p50`
//! is the median job time over the six fastest segments. An episode that
//! slows a third of the window leaves both unchanged; a uniform slowdown
//! of the program moves both by its full size. (The highest segment, not
//! the third-highest: over the self-checks kept in `baseline/earlier/` its
//! run-to-run spread was the smaller one in 10 of 15 workload × hour
//! cells, by a sixth in total; see `README.md`.)

/// Segments per timed window. Fixed: cutting the window's cost means
/// fewer jobs per segment, never fewer segments.
pub const SEGMENTS: usize = 12;

/// Fewest jobs a segment may hold.
pub const MIN_JOBS_PER_SEGMENT: usize = 3;

/// How many of the highest-throughput segments feed `job_ms_p50`.
const FAST_SEGMENTS: usize = 6;

/// One timed batch job.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Wall time of the call.
    pub ms: f64,
    /// Returned `Ok`, zero downgrades, and (where checked) a bit-exact
    /// checksum.
    pub ok: bool,
}

/// One service reply as a connection thread saw it.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Reply arrival, nanoseconds since the window opened.
    pub done_ns: u64,
    /// Round-trip time of this request.
    pub ms: f64,
    /// `Done` with zero downgrades and the reference checksum.
    pub ok: bool,
}

/// Throughput and job times of one segment.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Updates of successful jobs ÷ the segment's busy wall time.
    pub mups: f64,
    /// Times of the segment's successful jobs.
    pub job_ms: Vec<f64>,
}

/// Cuts a sequential batch window into segments of `per_segment` jobs.
/// Busy time is the sum of the segment's job times (resets and checksums
/// between jobs are untimed); a failed job adds its time but no updates.
pub fn batch_segments(jobs: &[Job], per_segment: usize, updates_per_job: u64) -> Vec<Segment> {
    jobs.chunks(per_segment)
        .map(|chunk| {
            let busy_ms: f64 = chunk.iter().map(|j| j.ms).sum();
            let ok: Vec<f64> = chunk.iter().filter(|j| j.ok).map(|j| j.ms).collect();
            Segment {
                mups: ok.len() as f64 * updates_per_job as f64 / (busy_ms * 1e3),
                job_ms: ok,
            }
        })
        .collect()
}

/// Merges the per-connection reply logs of a closed-loop service window
/// and cuts them, in completion order, into segments of `per_segment`
/// replies. A segment's busy time is the span over which its replies
/// arrived (from the previous segment's last reply, or the window start).
/// Every completion lands in exactly one segment.
pub fn service_segments(
    logs: &[Vec<Completion>],
    per_segment: usize,
    updates_per_job: u64,
) -> Vec<Segment> {
    let mut all: Vec<Completion> = logs.iter().flatten().copied().collect();
    all.sort_by_key(|c| c.done_ns);
    let mut prev_end = 0u64;
    all.chunks(per_segment)
        .map(|chunk| {
            let end = chunk.last().map_or(prev_end, |c| c.done_ns);
            let span_us = (end - prev_end) as f64 / 1e3;
            prev_end = end;
            let ok: Vec<f64> = chunk.iter().filter(|c| c.ok).map(|c| c.ms).collect();
            Segment {
                mups: ok.len() as f64 * updates_per_job as f64 / span_us,
                job_ms: ok,
            }
        })
        .collect()
}

/// The two trimmed end-to-end estimates of a window.
#[derive(Clone, Copy, Debug)]
pub struct Trimmed {
    /// Highest segment throughput.
    pub mups: f64,
    /// Median job time over the six highest-throughput segments.
    pub job_ms_p50: f64,
}

/// The trimmed estimates; `None` without a full window of segments.
pub fn trimmed(segments: &[Segment]) -> Option<Trimmed> {
    if segments.len() < SEGMENTS {
        return None;
    }
    let mut by_speed: Vec<&Segment> = segments.iter().collect();
    by_speed.sort_by(|a, b| b.mups.total_cmp(&a.mups));
    let fast_jobs: Vec<f64> = by_speed[..FAST_SEGMENTS]
        .iter()
        .flat_map(|s| s.job_ms.iter().copied())
        .collect();
    Some(Trimmed {
        mups: by_speed[0].mups,
        job_ms_p50: median(&fast_jobs),
    })
}

/// Segments more than 5 % below the best one.
pub fn noisy_segments(segments: &[Segment]) -> usize {
    let best = segments.iter().map(|s| s.mups).fold(0.0, f64::max);
    segments.iter().filter(|s| s.mups < 0.95 * best).count()
}

/// Median job time of the window's second half against its first half,
/// in percent (positive: the window got slower as it went).
pub fn half_drift_pct(segments: &[Segment]) -> f64 {
    let (first, second) = segments.split_at(segments.len() / 2);
    let half = |s: &[Segment]| median(&all_job_ms(s));
    let (a, b) = (half(first), half(second));
    (b - a) / a * 100.0
}

/// Times of every successful job of `segments`, in window order.
pub fn all_job_ms(segments: &[Segment]) -> Vec<f64> {
    segments
        .iter()
        .flat_map(|s| s.job_ms.iter().copied())
        .collect()
}

/// Median; NaN when there is nothing to take it of, which the result
/// line then reports as a metric that could not be measured.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        threefive::bench::median(values)
    }
}

/// The `p`-th percentile (nearest rank) of ascending `sorted`, refused
/// unless at least ten samples lie beyond it: a p90 of 40 jobs is a
/// statement about four of them.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (rank >= 1 && n - rank >= 10).then(|| sorted[rank - 1])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch window of 12 × `per` jobs of `base_ms`, slowed by `factor`
    /// in the segments listed.
    fn window(per: usize, base_ms: f64, slow: &[usize], factor: f64) -> Vec<Job> {
        (0..SEGMENTS * per)
            .map(|i| {
                let seg = i / per;
                // ±0.2 % deterministic jitter so medians are not degenerate.
                let jitter = 1.0 + ((i * 7919) % 5) as f64 * 0.001 - 0.002;
                let f = if slow.contains(&seg) { factor } else { 1.0 };
                Job {
                    ms: base_ms * f * jitter,
                    ok: true,
                }
            })
            .collect()
    }

    fn estimate(jobs: &[Job], per: usize) -> Trimmed {
        trimmed(&batch_segments(jobs, per, 1_000_000)).unwrap()
    }

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b
    }

    #[test]
    fn episode_over_four_segments_leaves_both_estimates_unchanged() {
        let clean = estimate(&window(4, 760.0, &[], 1.0), 4);
        let hit = estimate(&window(4, 760.0, &[3, 4, 5, 6], 1.2), 4);
        assert!(rel(hit.mups, clean.mups) < 0.01, "{hit:?} vs {clean:?}");
        assert!(rel(hit.job_ms_p50, clean.job_ms_p50) < 0.01);
    }

    #[test]
    fn uniform_slowdown_moves_both_estimates_by_its_size() {
        let all: Vec<usize> = (0..SEGMENTS).collect();
        let clean = estimate(&window(4, 760.0, &[], 1.0), 4);
        let slow = estimate(&window(4, 760.0, &all, 1.05), 4);
        assert!(rel(clean.mups / slow.mups, 1.05) < 0.005);
        assert!(rel(slow.job_ms_p50 / clean.job_ms_p50, 1.05) < 0.005);
    }

    #[test]
    fn failed_job_contributes_time_but_no_updates() {
        let mut jobs = window(4, 100.0, &[], 1.0);
        let clean = batch_segments(&jobs, 4, 1_000_000)[0].mups;
        jobs[1].ok = false;
        let segs = batch_segments(&jobs, 4, 1_000_000);
        assert!(rel(segs[0].mups, clean * 0.75) < 0.01);
        assert_eq!(segs[0].job_ms.len(), 3);
    }

    #[test]
    fn short_window_has_no_trimmed_estimate() {
        let jobs = window(4, 100.0, &[], 1.0);
        assert!(trimmed(&batch_segments(&jobs[..11 * 4], 4, 1)).is_none());
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 50.0), Some(50.0));
        assert_eq!(tail_percentile(&v, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&v, 99.0), None);
        assert_eq!(tail_percentile(&v[..99], 90.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn interleaved_connections_count_every_completion_once() {
        // Two closed-loop connections of different speed: 700 µs and
        // 1100 µs per reply, 24 × 5 replies in all.
        let total = SEGMENTS * 10;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let (mut ta, mut tb) = (0u64, 0u64);
        for _ in 0..total {
            let (log, t, rtt) = if ta + 700_000 <= tb + 1_100_000 {
                (&mut a, &mut ta, 700_000u64)
            } else {
                (&mut b, &mut tb, 1_100_000u64)
            };
            *t += rtt;
            log.push(Completion {
                done_ns: *t,
                ms: rtt as f64 / 1e6,
                ok: true,
            });
        }
        let segs = service_segments(&[a.clone(), b.clone()], 10, 4096);
        assert_eq!(segs.len(), SEGMENTS);
        assert_eq!(segs.iter().map(|s| s.job_ms.len()).sum::<usize>(), total);
        assert_eq!(a.len() + b.len(), total);
        // Spans tile the window: Σ replies ÷ mups recovers the last arrival.
        let span_us: f64 = segs.iter().map(|s| 10.0 * 4096.0 / s.mups).sum();
        assert!(rel(span_us * 1e3, ta.max(tb) as f64) < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn noise_and_drift_diagnostics() {
        let segs = batch_segments(&window(4, 100.0, &[6, 7, 8, 9, 10, 11], 1.1), 4, 1000);
        assert_eq!(noisy_segments(&segs), 6);
        assert!(rel(half_drift_pct(&segs), 10.0) < 0.05);
        assert!(median(&[]).is_nan());
    }
}
