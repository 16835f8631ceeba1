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

use threefive_core::exec::{
    blocked25d_sweep, blocked3d_sweep, blocked4d_sweep, reference_sweep, simd_sweep,
    tile_parallel35d_sweep, try_parallel35d_sweep, Blocking35, ScheduleKind,
};
use threefive_core::stats::SweepStats;
use threefive_core::{ExecError, SevenPoint, StencilKernel};
use threefive_grid::{Dim3, DoubleGrid, Grid3, Real};
use threefive_lbm::{lbm_naive_sweep, try_lbm35d_sweep, LbmBlocking, LbmError, LbmMode};
use threefive_sync::{Instrument, Observer, ThreadTeam, WaitHistogram};

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

/// The stencil variant labels the harness understands, in ladder order.
pub const STENCIL_VARIANTS: &[&str] = &[
    "scalar",
    "simd no-blocking",
    "3D blocking",
    "spatial only",
    "temporal only",
    "4D blocking",
    "3.5D blocking",
    "tile 3.5D",
];

/// The LBM variant labels the harness understands, in ladder order.
pub const LBM_VARIANTS: &[&str] = &[
    "scalar no-blocking",
    "simd no-blocking",
    "temporal only",
    "3.5D blocking",
];

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
    /// Barrier-wait share of the last timed repetition (instrumented
    /// parallel variants only).
    pub barrier_share: Option<f64>,
    /// Barrier-wait histogram of the last timed repetition (instrumented
    /// parallel variants only).
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
        barrier_share: Option<f64>,
        barrier_hist: Option<WaitHistogram>,
    ) -> Self {
        let med = median(&secs);
        Self {
            label,
            interior_updates,
            stats,
            kappa,
            barrier_share,
            barrier_hist,
            schedule: None,
            mups: interior_updates as f64 / med / 1e6,
            secs,
        }
    }

    /// A fabricated measurement for unit tests: one 1-second repetition
    /// at the given MUPS, default stats, κ = 1, no instrumentation.
    #[cfg(test)]
    pub(crate) fn synthetic(label: &'static str, mups: f64) -> Self {
        Self {
            label,
            secs: vec![1.0],
            interior_updates: (mups * 1e6) as u64,
            stats: SweepStats::default(),
            kappa: 1.0,
            barrier_share: None,
            barrier_hist: None,
            schedule: None,
            mups,
        }
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

/// Times the 7-point stencil under the given variant (one of
/// [`STENCIL_VARIANTS`]) with warmup and repetitions per `cfg`.
///
/// Zero blocking parameters surface as [`ExecError::InvalidBlocking`]
/// instead of panicking, so CLI input can be routed here directly.
///
/// # Panics
/// Panics on an unknown `variant` label (a programmer error — callers
/// select labels from [`STENCIL_VARIANTS`]).
pub fn measure_seven_point<T: Real>(
    cfg: &BenchConfig,
    variant: &'static str,
    dim: Dim3,
    steps: usize,
    tile: usize,
    dim_t: usize,
    team: Option<&ThreadTeam>,
) -> Result<Measurement, ExecError>
where
    SevenPoint<T>: StencilKernel<T>,
{
    measure_seven_point_scheduled::<T>(
        cfg,
        variant,
        dim,
        steps,
        tile,
        dim_t,
        team,
        ScheduleKind::Lag35d,
    )
}

/// Whether [`measure_seven_point_scheduled`] runs `variant` on the thread
/// team it is handed: exactly the engine-backed variants do; every other
/// variant executes on the calling thread alone.
pub fn stencil_variant_uses_team(variant: &str) -> bool {
    matches!(variant, "temporal only" | "3.5D blocking" | "tile 3.5D")
}

/// [`measure_seven_point`] with an explicit temporal-blocking schedule
/// for the engine-backed variants (`temporal only`, `3.5D blocking`,
/// `tile 3.5D`); the other variants ignore it.
#[allow(clippy::too_many_arguments)]
pub fn measure_seven_point_scheduled<T: Real>(
    cfg: &BenchConfig,
    variant: &'static str,
    dim: Dim3,
    steps: usize,
    tile: usize,
    dim_t: usize,
    team: Option<&ThreadTeam>,
    schedule: ScheduleKind,
) -> Result<Measurement, ExecError>
where
    SevenPoint<T>: StencilKernel<T>,
{
    let kernel = SevenPoint::<T>::heat(T::from_f64(0.125));
    let r = kernel.radius();
    let tile = tile.min(dim.nx).min(dim.ny);
    // Validate user-controlled blocking parameters up front, before any
    // executor can reach a panicking constructor.
    let needs_blocking = !matches!(variant, "scalar" | "simd no-blocking");
    if needs_blocking {
        let checked_dim_t = if matches!(variant, "3D blocking" | "spatial only") {
            1 // purely spatial variants ignore dim_t
        } else {
            dim_t
        };
        Blocking35::try_new(tile, tile, checked_dim_t)?;
    }

    let initial = Grid3::<T>::from_fn(dim, |x, y, z| {
        T::from_f64(((x * 13 + y * 7 + z * 3) % 17) as f64 * 0.1)
    });
    let mut grids = DoubleGrid::from_initial(initial);
    let serial_team;
    let team = match team {
        Some(t) => t,
        None => {
            serial_team = ThreadTeam::new(1);
            &serial_team
        }
    };
    let instrumented = matches!(variant, "3.5D blocking");
    let instr = if instrumented {
        Instrument::enabled(team.threads())
    } else {
        Instrument::disabled()
    };
    let obs = Observer::with_instrument(&instr);

    let mut err: Option<ExecError> = None;
    let (secs, stats_per_rep) = run_reps(cfg, |is_warmup| {
        if !is_warmup && instr.is_enabled() {
            // Keep only the current timed repetition in the barrier-share
            // numbers: the final snapshot then reflects the last timed
            // rep, never the warmup's cold-cache behavior.
            instr.reset();
        }
        match variant {
            "scalar" => reference_sweep(&kernel, &mut grids, steps),
            "simd no-blocking" => simd_sweep(&kernel, &mut grids, steps),
            "3D blocking" => blocked3d_sweep(&kernel, &mut grids, steps, tile.min(64)),
            "spatial only" => blocked25d_sweep(&kernel, &mut grids, steps, tile, tile),
            "temporal only" => {
                // Whole-plane tiles: the temporal-only special case.
                let b = Blocking35 {
                    dim_x: dim.nx,
                    dim_y: dim.ny,
                    dim_t,
                    schedule,
                };
                match try_parallel35d_sweep(&kernel, &mut grids, steps, b, team, None, &obs) {
                    Ok(s) => s,
                    Err(e) => {
                        err.get_or_insert(e);
                        SweepStats::default()
                    }
                }
            }
            "4D blocking" => blocked4d_sweep(&kernel, &mut grids, steps, tile.min(48), dim_t),
            "3.5D blocking" => {
                let b = Blocking35 {
                    dim_x: tile,
                    dim_y: tile,
                    dim_t,
                    schedule,
                };
                match try_parallel35d_sweep(&kernel, &mut grids, steps, b, team, None, &obs) {
                    Ok(s) => s,
                    Err(e) => {
                        err.get_or_insert(e);
                        SweepStats::default()
                    }
                }
            }
            "tile 3.5D" => tile_parallel35d_sweep(
                &kernel,
                &mut grids,
                steps,
                Blocking35 {
                    dim_x: tile,
                    dim_y: tile,
                    dim_t,
                    schedule,
                },
                team,
            ),
            other => panic!("unknown stencil variant {other}"),
        }
    });
    if let Some(e) = err {
        return Err(e);
    }

    let stats = *stats_per_rep.last().expect("at least one repetition");
    let interior = dim.interior_region(r).len() as u64 * steps as u64;
    let timing = instr.timing();
    let barrier_share = instrumented.then(|| timing.barrier_share());
    let barrier_hist = instrumented.then_some(timing.wait_hist);
    let mut m = Measurement::from_parts(
        variant,
        secs,
        interior,
        stats,
        stats.overestimation(),
        barrier_share,
        barrier_hist,
    );
    if matches!(variant, "temporal only" | "3.5D blocking" | "tile 3.5D") {
        m.schedule = Some(schedule);
    }
    Ok(m)
}

/// Times `steps` LBM sweeps under the given variant (one of
/// [`LBM_VARIANTS`]) on a lid-driven cavity of edge `n`, with warmup and
/// repetitions per `cfg`. Zero blocking parameters surface as
/// [`LbmError`] instead of panicking.
///
/// # Panics
/// Panics on an unknown `variant` label.
pub fn measure_lbm<T: Real>(
    cfg: &BenchConfig,
    variant: &'static str,
    n: usize,
    steps: usize,
    tile: usize,
    dim_t: usize,
    team: Option<&ThreadTeam>,
) -> Result<Measurement, LbmError> {
    measure_lbm_scheduled::<T>(
        cfg,
        variant,
        n,
        steps,
        tile,
        dim_t,
        team,
        ScheduleKind::Lag35d,
    )
}

/// [`measure_lbm`] with an explicit temporal-blocking schedule for the
/// engine-backed variants (`temporal only`, `3.5D blocking`); the
/// no-blocking variants ignore it.
#[allow(clippy::too_many_arguments)]
pub fn measure_lbm_scheduled<T: Real>(
    cfg: &BenchConfig,
    variant: &'static str,
    n: usize,
    steps: usize,
    tile: usize,
    dim_t: usize,
    team: Option<&ThreadTeam>,
    schedule: ScheduleKind,
) -> Result<Measurement, LbmError> {
    /// D3Q19 propagation radius.
    const R: usize = 1;
    let dim = Dim3::cube(n);
    let tile = tile.min(n);
    let blocking = match variant {
        "scalar no-blocking" | "simd no-blocking" => None,
        "temporal only" => {
            Some(LbmBlocking::try_new(n.max(1), n.max(1), dim_t)?.with_schedule(schedule))
        }
        "3.5D blocking" => Some(LbmBlocking::try_new(tile, tile, dim_t)?.with_schedule(schedule)),
        other => panic!("unknown LBM variant {other}"),
    };

    let mut lat =
        threefive_lbm::scenarios::lid_driven_cavity::<T>(dim, T::from_f64(1.2), T::from_f64(0.05));
    let instrumented = blocking.is_some();
    let threads = team.map_or(1, ThreadTeam::threads);
    let instr = if instrumented {
        Instrument::enabled(threads)
    } else {
        Instrument::disabled()
    };
    let obs = Observer::with_instrument(&instr);

    let mut err: Option<LbmError> = None;
    let (secs, _) = run_reps(cfg, |is_warmup| {
        if !is_warmup && instr.is_enabled() {
            instr.reset();
        }
        match (variant, blocking) {
            ("scalar no-blocking", _) => lbm_naive_sweep(&mut lat, steps, LbmMode::Scalar, team),
            ("simd no-blocking", _) => lbm_naive_sweep(&mut lat, steps, LbmMode::Simd, team),
            (_, Some(b)) => match try_lbm35d_sweep(&mut lat, steps, b, team, None, &obs) {
                Ok(updates) => updates,
                Err(e) => {
                    err.get_or_insert(e);
                    0
                }
            },
            _ => unreachable!("blocking validated above"),
        }
    });
    if let Some(e) = err {
        return Err(e);
    }

    // The lattice executors do not carry SweepStats; model the traffic:
    // each dim_T-chunk streams all 19 distribution planes in and out once
    // (write-allocate folded into the write stream).
    let q = threefive_lbm::model::Q as u64;
    let e = T::BYTES as u64;
    let chunks = match blocking {
        Some(b) => steps.div_ceil(b.dim_t) as u64,
        None => steps as u64,
    };
    let lattice_bytes = dim.len() as u64 * q * e;
    let stats = SweepStats {
        stencil_updates: 0,
        committed_points: 0,
        dram_bytes_read: lattice_bytes * chunks,
        dram_bytes_written: lattice_bytes * chunks,
    };
    // Modeled κ for the blocked variants (the lattice executor does not
    // count ghost recomputation, so there is no measured value).
    let kappa = match blocking {
        Some(b) => {
            let loaded_x = b.dim_x.min(n) + 2 * R * b.dim_t;
            let loaded_y = b.dim_y.min(n) + 2 * R * b.dim_t;
            threefive_core::planner::kappa_35d(R, b.dim_t, loaded_x, loaded_y)
        }
        None => 1.0,
    };
    let interior = dim.interior_region(R).len() as u64 * steps as u64;
    let timing = instr.timing();
    let barrier_share = instrumented.then(|| timing.barrier_share());
    let barrier_hist = instrumented.then_some(timing.wait_hist);
    let mut m = Measurement::from_parts(
        variant,
        secs,
        interior,
        stats,
        kappa,
        barrier_share,
        barrier_hist,
    );
    if blocking.is_some() {
        m.schedule = Some(schedule);
    }
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
        let steps = 2usize;
        let cfg = BenchConfig { warmup: 1, reps: 2 };
        let m = measure_seven_point::<f32>(&cfg, "3.5D blocking", Dim3::cube(n), steps, 8, 2, None)
            .unwrap();
        // The denominator basis is interior points × steps, not n³ ×
        // steps: the Dirichlet rim is never updated.
        let interior = (n - 2).pow(3) as u64 * steps as u64;
        assert_eq!(m.interior_updates, interior);
        assert_eq!(m.stats.committed_points, interior);
        let expected_mups = interior as f64 / m.median_secs() / 1e6;
        assert!((m.mups - expected_mups).abs() < 1e-9 * expected_mups.max(1.0));
        assert_eq!(m.secs.len(), 2);
        assert!(m.kappa >= 1.0, "measured κ {}", m.kappa);
        assert!(m.barrier_share.is_some());
    }

    #[test]
    fn zero_dim_t_is_a_typed_error_not_a_panic() {
        let cfg = BenchConfig::quick();
        let err = measure_seven_point::<f32>(&cfg, "3.5D blocking", Dim3::cube(8), 2, 4, 0, None)
            .unwrap_err();
        assert!(matches!(err, ExecError::InvalidBlocking { dim_t: 0, .. }));
        let err = measure_seven_point::<f32>(&cfg, "temporal only", Dim3::cube(8), 2, 4, 0, None)
            .unwrap_err();
        assert!(matches!(err, ExecError::InvalidBlocking { dim_t: 0, .. }));
        let err = measure_lbm::<f32>(&cfg, "3.5D blocking", 8, 2, 4, 0, None).unwrap_err();
        assert!(matches!(err, LbmError::InvalidBlocking { dim_t: 0, .. }));
    }

    #[test]
    fn lbm_measurement_reports_modeled_traffic_and_kappa() {
        let cfg = BenchConfig::quick();
        let m = measure_lbm::<f32>(&cfg, "3.5D blocking", 10, 2, 6, 2, None).unwrap();
        assert_eq!(m.interior_updates, 8u64.pow(3) * 2);
        assert!(m.kappa > 1.0);
        assert!(m.stats.dram_bytes() > 0);
        assert!(m.barrier_share.is_some());
        let naive = measure_lbm::<f32>(&cfg, "simd no-blocking", 10, 2, 6, 2, None).unwrap();
        assert_eq!(naive.kappa, 1.0);
        assert!(naive.barrier_share.is_none());
        // Blocked traffic model: half the chunks of the naive sweep.
        assert_eq!(naive.stats.dram_bytes(), 2 * m.stats.dram_bytes());
    }

    #[test]
    fn every_listed_variant_measures() {
        let cfg = BenchConfig { warmup: 0, reps: 1 };
        let team = ThreadTeam::new(2);
        for v in STENCIL_VARIANTS {
            let m = measure_seven_point::<f32>(&cfg, v, Dim3::cube(10), 2, 6, 2, Some(&team))
                .unwrap_or_else(|e| panic!("{v}: {e}"));
            assert!(m.mups > 0.0, "{v}");
        }
        for v in LBM_VARIANTS {
            let m = measure_lbm::<f32>(&cfg, v, 8, 1, 4, 1, Some(&team))
                .unwrap_or_else(|e| panic!("{v}: {e}"));
            assert!(m.mups > 0.0, "{v}");
        }
    }
}
