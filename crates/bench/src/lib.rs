//! Shared measurement helpers for the figure binaries and the `threefive
//! bench` subcommand.
//!
//! Every figure binary prints two kinds of rows side by side:
//!
//! * **model** — the roofline prediction for the paper's machine
//!   (`threefive_machine::figures`), which reproduces the published bars;
//! * **host** — wall-clock measurements of the real executors on the
//!   machine running the benchmark (different absolute numbers, same
//!   qualitative story).
//!
//! # Measurement methodology
//!
//! Temporal-blocking speedups are notoriously easy to mis-measure
//! (cold-start page faults charge the first sweep with the cost of
//! faulting in every grid page; a single repetition confuses noise with
//! signal; dividing by *all* grid points inflates MUPS with Dirichlet
//! boundary points that are never updated). The harness therefore:
//!
//! * runs `warmup` untimed repetitions first, so first-touch page faults
//!   and frequency ramp-up are excluded from every timed number;
//! * runs `reps` timed repetitions and reports the **median** (and the
//!   min/max spread) rather than a single sample;
//! * computes MUPS from **interior updates** — the points a sweep
//!   actually updates, consistent with `SweepStats::committed_points` —
//!   never from `dim.len()`;
//! * reports the per-thread **barrier-wait share** of the parallel 3.5-D
//!   executors via the zero-cost-when-disabled
//!   [`Instrument`] handle.
//!
//! Grid sizes default to a laptop-friendly subset; set `THREEFIVE_FULL=1`
//! to run the paper's full 64³/256³/512³ sweep.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::time::Instant;

use threefive_core::exec::{Blocking35, ScheduleKind, StencilExec};
use threefive_core::stats::SweepStats;
use threefive_core::{ExecError, SevenPoint, StencilKernel};
use threefive_grid::{Dim3, DoubleGrid, Grid3, Real};
use threefive_lbm::{LbmBlocking, LbmError, LbmExec};
use threefive_machine::Precision;
use threefive_sync::{Instrument, Observer, SweepTiming, ThreadTeam, WaitHistogram};

pub mod counters;
pub mod json;
pub mod perfetto;
pub mod probe;
pub mod report;
pub mod service;

/// Whether to run the paper's full grid sizes.
pub fn full_run() -> bool {
    std::env::var("THREEFIVE_FULL").is_ok_and(|v| v != "0")
}

/// Grid edges to measure: {64, 128} by default, {64, 256, 512} with
/// `THREEFIVE_FULL=1` (the paper's sizes).
pub fn grid_edges() -> Vec<usize> {
    if full_run() {
        vec![64, 256, 512]
    } else {
        vec![64, 128]
    }
}

/// Host thread count.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Repetition policy for one measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchConfig {
    /// Untimed repetitions run first (first-touch/warmup exclusion).
    pub warmup: usize,
    /// Timed repetitions (at least 1 is always run).
    pub reps: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self { warmup: 1, reps: 3 }
    }
}

impl BenchConfig {
    /// One warmup, one timed repetition — the figure binaries' policy
    /// (they sweep many configurations and only need the shape).
    pub fn quick() -> Self {
        Self { warmup: 1, reps: 1 }
    }
}

/// Runs `sweep` under `cfg`: `cfg.warmup` untimed calls (argument
/// `true`), then `max(cfg.reps, 1)` timed calls (argument `false`).
/// Returns the per-repetition wall-clock seconds and the timed sweeps'
/// results.
pub fn run_reps<R>(cfg: &BenchConfig, mut sweep: impl FnMut(bool) -> R) -> (Vec<f64>, Vec<R>) {
    for _ in 0..cfg.warmup {
        sweep(true);
    }
    let reps = cfg.reps.max(1);
    let mut secs = Vec::with_capacity(reps);
    let mut results = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = sweep(false);
        secs.push(t0.elapsed().as_secs_f64());
        results.push(r);
    }
    (secs, results)
}

/// Median of a non-empty sample (mean of the two central order statistics
/// for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// What one measurement runs: precision, problem, blocking and team. One
/// spec drives every rung of either ladder; each rung reads the fields it
/// needs ([`StencilExec::sweep`], [`LbmExec::sweep`]).
#[derive(Clone, Copy)]
pub struct Spec<'a> {
    /// Element precision; f32/f64 is dispatched once, inside `measure_*`.
    pub precision: Precision,
    /// Grid extent (for LBM, of the lid-driven cavity).
    pub dim: Dim3,
    /// Time steps per repetition.
    pub steps: usize,
    /// Requested block edge (dimX = dimY = tile).
    pub tile: usize,
    /// Temporal depth dim_T.
    pub dim_t: usize,
    /// Temporal-blocking schedule of the engine-backed rungs.
    pub schedule: ScheduleKind,
    /// The team the team-parallel rungs run on.
    pub team: &'a ThreadTeam,
}

impl<'a> Spec<'a> {
    /// The blocking a [`StencilExec`] rung is handed, unvalidated: the
    /// rung rejects zero parameters itself.
    pub fn stencil_blocking(&self) -> Blocking35 {
        Blocking35 {
            dim_x: self.tile,
            dim_y: self.tile,
            dim_t: self.dim_t,
            schedule: self.schedule,
        }
    }

    /// The blocking an [`LbmExec`] rung is handed, unvalidated.
    pub fn lbm_blocking(&self) -> LbmBlocking {
        LbmBlocking {
            dim_x: self.tile,
            dim_y: self.tile,
            dim_t: self.dim_t,
            schedule: self.schedule,
        }
    }

    /// A single-precision lag35d spec on an `n`³ grid, for unit tests.
    #[cfg(test)]
    pub(crate) fn sp_cube(
        team: &'a ThreadTeam,
        n: usize,
        steps: usize,
        tile: usize,
        dim_t: usize,
    ) -> Self {
        Self {
            precision: Precision::Sp,
            dim: Dim3::cube(n),
            steps,
            tile,
            dim_t,
            schedule: ScheduleKind::Lag35d,
            team,
        }
    }
}

/// A measured throughput sample: repetition timings plus the work/traffic
/// accounting needed to report honest MUPS.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Variant label.
    pub label: &'static str,
    /// Wall-clock seconds of each timed repetition.
    pub secs: Vec<f64>,
    /// Interior-point updates performed per repetition — the MUPS
    /// numerator, consistent with `SweepStats::committed_points`.
    pub interior_updates: u64,
    /// Modeled work/traffic counters from the last repetition (zero
    /// update counters for executors that do not report stats, e.g. the
    /// LBM ladder, which models its traffic instead).
    pub stats: SweepStats,
    /// κ: stencil variants report the measured update overestimation;
    /// LBM variants report the planner's modeled κ for their blocking.
    pub kappa: f64,
    /// Barrier-wait share of the last timed repetition (observed
    /// variants only).
    pub barrier_share: Option<f64>,
    /// Barrier-wait histogram of the last timed repetition (observed
    /// variants only).
    pub barrier_hist: Option<WaitHistogram>,
    /// Temporal-blocking schedule the sweep ran under — `Some` only for
    /// variants backed by the unified engine (the no-blocking and purely
    /// spatial variants have no schedule).
    pub schedule: Option<ScheduleKind>,
    /// Median million interior updates per second.
    pub mups: f64,
}

impl Measurement {
    /// Assembles a measurement from raw parts, deriving the median MUPS.
    /// Public so callers that time a sweep themselves (e.g. the `trace`
    /// subcommand) can feed the telemetry builders in [`crate::counters`].
    pub fn from_parts(
        label: &'static str,
        secs: Vec<f64>,
        interior_updates: u64,
        stats: SweepStats,
        kappa: f64,
        timing: Option<&SweepTiming>,
    ) -> Self {
        let med = median(&secs);
        Self {
            label,
            interior_updates,
            stats,
            kappa,
            barrier_share: timing.map(SweepTiming::barrier_share),
            barrier_hist: timing.map(|t| t.wait_hist),
            schedule: None,
            mups: interior_updates as f64 / med / 1e6,
            secs,
        }
    }

    /// A fabricated measurement for unit tests: one 1-second repetition
    /// at the given MUPS, default stats, κ = 1, no instrumentation.
    #[cfg(test)]
    pub(crate) fn synthetic(label: &'static str, mups: f64) -> Self {
        Self::from_parts(
            label,
            vec![1.0],
            (mups * 1e6) as u64,
            SweepStats::default(),
            1.0,
            None,
        )
    }

    /// Median repetition time in seconds.
    pub fn median_secs(&self) -> f64 {
        median(&self.secs)
    }

    /// Fastest repetition in seconds.
    pub fn min_secs(&self) -> f64 {
        self.secs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Slowest repetition in seconds.
    pub fn max_secs(&self) -> f64 {
        self.secs.iter().copied().fold(0.0, f64::max)
    }
}

/// Runs `sweep` under `cfg` with an observer that records barrier-wait
/// timing when `observed`, and returns the timed seconds, the last
/// repetition's result and the last timed repetition's timing (observed
/// only). Any repetition's error is returned instead.
fn time_reps<R: Default, E>(
    cfg: &BenchConfig,
    team: &ThreadTeam,
    observed: bool,
    mut sweep: impl FnMut(&Observer<'_>) -> Result<R, E>,
) -> Result<(Vec<f64>, R, Option<SweepTiming>), E> {
    let instr = if observed {
        Instrument::enabled(team.threads())
    } else {
        Instrument::disabled()
    };
    let obs = Observer::with_instrument(&instr);
    let mut err = None;
    let (secs, mut results) = run_reps(cfg, |is_warmup| {
        if !is_warmup {
            // Keep only the current timed repetition in the barrier-share
            // numbers: the final snapshot then reflects the last timed
            // rep, never the warmup's cold-cache behavior.
            instr.reset();
        }
        sweep(&obs).unwrap_or_else(|e| {
            err.get_or_insert(e);
            R::default()
        })
    });
    match err {
        Some(e) => Err(e),
        None => {
            let last = results.pop().expect("at least one repetition");
            Ok((secs, last, observed.then(|| instr.timing())))
        }
    }
}

/// Times the 7-point heat stencil on `exec` under `cfg`.
///
/// MUPS counts interior updates only (the Dirichlet rim is never
/// updated). Invalid blocking surfaces as [`ExecError::InvalidBlocking`]
/// instead of panicking, so CLI input can be routed here directly.
pub fn measure_stencil(
    cfg: &BenchConfig,
    exec: StencilExec,
    spec: &Spec<'_>,
) -> Result<Measurement, ExecError> {
    match spec.precision {
        Precision::Sp => measure_stencil_as::<f32>(cfg, exec, spec),
        Precision::Dp => measure_stencil_as::<f64>(cfg, exec, spec),
    }
}

fn measure_stencil_as<T: Real>(
    cfg: &BenchConfig,
    exec: StencilExec,
    spec: &Spec<'_>,
) -> Result<Measurement, ExecError>
where
    SevenPoint<T>: StencilKernel<T>,
{
    let kernel = SevenPoint::<T>::heat(T::from_f64(0.125));
    let initial = Grid3::<T>::from_fn(spec.dim, |x, y, z| {
        T::from_f64(((x * 13 + y * 7 + z * 3) % 17) as f64 * 0.1)
    });
    let mut grids = DoubleGrid::from_initial(initial);
    let b = spec.stencil_blocking();
    let (secs, stats, timing) = time_reps(cfg, spec.team, exec.observed(), |obs| {
        exec.sweep(&kernel, &mut grids, spec.steps, b, spec.team, obs)
    })?;
    let interior = spec.dim.interior_region(kernel.radius()).len() as u64 * spec.steps as u64;
    let kappa = stats.overestimation();
    let mut m =
        Measurement::from_parts(exec.label(), secs, interior, stats, kappa, timing.as_ref());
    m.schedule = exec.temporal().then_some(spec.schedule);
    Ok(m)
}

/// Times `exec` on a D3Q19 lid-driven cavity of extent `spec.dim` under
/// `cfg`. Traffic and κ are modeled ([`counters::lbm_traffic_and_kappa`]); invalid
/// blocking surfaces as [`LbmError`] instead of panicking.
pub fn measure_lbm(
    cfg: &BenchConfig,
    exec: LbmExec,
    spec: &Spec<'_>,
) -> Result<Measurement, LbmError> {
    match spec.precision {
        Precision::Sp => measure_lbm_as::<f32>(cfg, exec, spec),
        Precision::Dp => measure_lbm_as::<f64>(cfg, exec, spec),
    }
}

fn measure_lbm_as<T: Real>(
    cfg: &BenchConfig,
    exec: LbmExec,
    spec: &Spec<'_>,
) -> Result<Measurement, LbmError> {
    let mut lat = threefive_lbm::scenarios::lid_driven_cavity::<T>(
        spec.dim,
        T::from_f64(1.2),
        T::from_f64(0.05),
    );
    let b = spec.lbm_blocking();
    let (secs, _, timing) = time_reps(cfg, spec.team, exec.observed(), |obs| {
        exec.sweep(&mut lat, spec.steps, b, Some(spec.team), None, obs)
    })?;
    let (stats, kappa) = counters::lbm_traffic_and_kappa(exec, spec);
    // D3Q19 propagates one site: the bounce-back rim is not an update.
    let interior = spec.dim.interior_region(1).len() as u64 * spec.steps as u64;
    let mut m =
        Measurement::from_parts(exec.label(), secs, interior, stats, kappa, timing.as_ref());
    m.schedule = exec.temporal().then_some(spec.schedule);
    Ok(m)
}

/// Prints one figure row.
pub fn print_row(group: &str, label: &str, model_mups: Option<f64>, host_mups: Option<f64>) {
    let model = model_mups.map_or("      -".into(), |m| format!("{m:7.0}"));
    let host = host_mups.map_or("      -".into(), |m| format!("{m:7.1}"));
    println!("{group:12} {label:28} {model:>9} {host:>9}");
}

/// Prints the standard figure header.
pub fn print_header(title: &str) {
    println!("\n== {title} ==");
    println!(
        "{:12} {:28} {:>9} {:>9}",
        "group", "variant", "model", "host"
    );
    println!("{}", "-".repeat(62));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_reps_runs_warmup_untimed_and_reps_timed() {
        let cfg = BenchConfig { warmup: 2, reps: 3 };
        let mut warmups = 0usize;
        let mut timed = 0usize;
        let (secs, results) = run_reps(&cfg, |is_warmup| {
            if is_warmup {
                warmups += 1;
                assert_eq!(timed, 0, "all warmups precede the timed reps");
            } else {
                timed += 1;
            }
            timed
        });
        assert_eq!(warmups, 2, "warmup sweeps happen");
        assert_eq!(timed, 3);
        assert_eq!(secs.len(), 3, "only timed reps are measured");
        assert_eq!(results, vec![1, 2, 3]);
    }

    #[test]
    fn run_reps_always_times_at_least_once() {
        let cfg = BenchConfig { warmup: 0, reps: 0 };
        let (secs, _) = run_reps(&cfg, |_| ());
        assert_eq!(secs.len(), 1);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn stencil_mups_counts_interior_updates_only() {
        let n = 12usize;
        let cfg = BenchConfig { warmup: 1, reps: 2 };
        let team = ThreadTeam::new(1);
        let m = measure_stencil(
            &cfg,
            StencilExec::Parallel35d,
            &Spec::sp_cube(&team, n, 2, 8, 2),
        )
        .unwrap();
        // The denominator basis is interior points × steps, not n³ ×
        // steps: the Dirichlet rim is never updated.
        let interior = (n - 2).pow(3) as u64 * 2;
        assert_eq!(m.interior_updates, interior);
        assert_eq!(m.stats.committed_points, interior);
        let expected_mups = interior as f64 / m.median_secs() / 1e6;
        assert!((m.mups - expected_mups).abs() < 1e-9 * expected_mups.max(1.0));
        assert_eq!(m.secs.len(), 2);
        assert!(m.kappa >= 1.0, "measured κ {}", m.kappa);
    }

    #[test]
    fn zero_dim_t_is_a_typed_error_not_a_panic() {
        let cfg = BenchConfig::quick();
        let team = ThreadTeam::new(1);
        let bad = Spec::sp_cube(&team, 8, 2, 4, 0);
        for exec in [
            StencilExec::Parallel35d,
            StencilExec::Temporal,
            StencilExec::Blocked4d,
        ] {
            let err = measure_stencil(&cfg, exec, &bad).unwrap_err();
            assert!(
                matches!(err, ExecError::InvalidBlocking { dim_t: 0, .. }),
                "{exec:?}"
            );
        }
        let err = measure_lbm(&cfg, LbmExec::Blocked35d, &bad).unwrap_err();
        assert!(matches!(err, LbmError::InvalidBlocking { dim_t: 0, .. }));
    }

    #[test]
    fn lbm_measurement_reports_modeled_traffic_and_kappa() {
        let cfg = BenchConfig::quick();
        let team = ThreadTeam::new(1);
        let m = measure_lbm(
            &cfg,
            LbmExec::Blocked35d,
            &Spec::sp_cube(&team, 10, 2, 6, 2),
        )
        .unwrap();
        assert_eq!(m.interior_updates, 8u64.pow(3) * 2);
        assert!(m.kappa > 1.0);
        assert!(m.stats.dram_bytes() > 0);
        let naive =
            measure_lbm(&cfg, LbmExec::NaiveSimd, &Spec::sp_cube(&team, 10, 2, 6, 2)).unwrap();
        assert_eq!(naive.kappa, 1.0);
        // Blocked traffic model: half the chunks of the naive sweep.
        assert_eq!(naive.stats.dram_bytes(), 2 * m.stats.dram_bytes());
    }

    /// Every registry rung measures, reports barrier timing exactly when
    /// it runs observed, and carries a schedule exactly when temporal.
    #[test]
    fn every_rung_measures_and_reports_what_it_ran() {
        let cfg = BenchConfig { warmup: 0, reps: 1 };
        let team = ThreadTeam::new(2);
        for exec in StencilExec::ALL {
            let m = measure_stencil(&cfg, exec, &Spec::sp_cube(&team, 10, 2, 6, 2))
                .unwrap_or_else(|e| panic!("{exec:?}: {e}"));
            assert!(m.mups > 0.0, "{exec:?}");
            assert_eq!(m.label, exec.label());
            assert_eq!(m.barrier_share.is_some(), exec.observed(), "{exec:?}");
            assert_eq!(m.schedule.is_some(), exec.temporal(), "{exec:?}");
        }
        for exec in LbmExec::ALL {
            let m = measure_lbm(&cfg, exec, &Spec::sp_cube(&team, 8, 2, 4, 1))
                .unwrap_or_else(|e| panic!("{exec:?}: {e}"));
            assert!(m.mups > 0.0, "{exec:?}");
            assert_eq!(m.label, exec.label());
            assert_eq!(m.barrier_share.is_some(), exec.observed(), "{exec:?}");
            assert_eq!(m.schedule.is_some(), exec.temporal(), "{exec:?}");
        }
    }
}
