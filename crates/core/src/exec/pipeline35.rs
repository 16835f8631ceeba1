//! The 3.5-D blocking pipeline (paper §V-C, §V-E) — serial and parallel.
//!
//! # Structure
//!
//! The XY plane is covered by non-overlapping *owned* tiles of
//! `dim_x × dim_y`. Each tile's footprint is expanded by `R·dim_T` into a
//! *loaded* region. For every chunk of `dim_T` time steps the tile streams
//! through Z once: time level `t′ = 1` reads the source grid (time `T`),
//! levels `1 < t′ < dim_T` read/write in-cache plane rings, and level
//! `dim_T` writes the destination grid (time `T + dim_T`) — so DRAM sees
//! each point once per `dim_T` steps.
//!
//! Under the default [`ScheduleKind::Lag35d`](crate::exec::ScheduleKind)
//! schedule, levels are staggered along Z by `2R` planes (the paper's
//! `z_s = z + 2R(dim_T − t″)` schedule): at outer step `s`, level `t′`
//! processes plane `z = s − 2R(t′−1)`. The extra `R` of lag (beyond the
//! `R` strictly required by the data dependence) is what lets **all**
//! levels execute concurrently in one barrier-separated step, giving
//! `dim_T`-fold more parallelism than one-level-at-a-time schemes (§V-C).
//! [`Blocking35::with_schedule`] swaps in the shared-cache wavefront or
//! wavefront-diamond schedules instead — same kernels, same results,
//! different lag/ring/barrier arithmetic (see
//! [`schedule`](crate::exec::schedule)).
//!
//! # Ring capacity
//!
//! The paper stores `2R+2` sub-planes per time level. With the `2R` lag a
//! level's ring must simultaneously retain the producer's current plane
//! `z` and the consumer's read window `[z−3R, z−R]`, i.e. `3R+1` distinct
//! planes — which equals `2R+2` at the paper's `R = 1` but exceeds it for
//! `R ≥ 2`. We allocate `max(2R+2, 3R+1)` slots so the pipeline is correct
//! for every radius; the planner's capacity formula (Eq. 1) keeps the
//! paper's `2R+2` since both kernels studied have `R = 1`.
//!
//! # Parallelization (§V-D)
//!
//! Within a tile, every thread owns a fixed band of Y rows of **every**
//! sub-plane at **every** time level (the flexible load-balancing scheme),
//! performing identical DRAM traffic and flops; one barrier separates
//! consecutive outer steps. The serial executor is the same code run by a
//! one-member team.
//!
//! Since the engine refactor the Z-stream schedule, rings, barriers and
//! fault handling all live in [`engine35`](crate::exec::engine35); this
//! module contributes the Dirichlet stencil [`PlaneKernel`] impl
//! ([`StencilPlanes`]) and the public sweep entry points.

use std::ops::Range;
use std::time::Duration;

use threefive_grid::{DoubleGrid, Grid3, Real};
use threefive_sync::{Observer, SharedSlice, SpinBarrier, ThreadTeam};

use crate::error::ExecError;
use crate::exec::engine35::{stream_chunk, BoundaryPolicy, PlaneKernel, Rings, SweepCtx, TileGeom};
use crate::exec::has_interior;
use crate::exec::Blocking35;
use crate::kernel::StencilKernel;
use crate::stats::SweepStats;

/// Serial 3.5-D blocked sweep. Result ends in `grids.src()`; bit-exact
/// with [`reference_sweep`](crate::exec::reference_sweep).
pub fn blocked35d_sweep<T: Real, K: StencilKernel<T>>(
    kernel: &K,
    grids: &mut DoubleGrid<T>,
    steps: usize,
    b: Blocking35,
) -> SweepStats {
    let team = ThreadTeam::new(1);
    parallel35d_sweep(kernel, grids, steps, b, &team)
}

/// Temporal-only blocking (Habich-style, §VII-B "only temporal blocking"):
/// the tile is the whole XY plane, so there is no ghost overestimation —
/// but the plane rings only fit in cache for small grids.
pub fn temporal_sweep<T: Real, K: StencilKernel<T>>(
    kernel: &K,
    grids: &mut DoubleGrid<T>,
    steps: usize,
    dim_t: usize,
) -> SweepStats {
    let d = grids.dim();
    blocked35d_sweep(kernel, grids, steps, Blocking35::new(d.nx, d.ny, dim_t))
}

/// Parallel 3.5-D blocked sweep over a persistent [`ThreadTeam`].
///
/// Result ends in `grids.src()`; bit-exact with
/// [`reference_sweep`](crate::exec::reference_sweep) for every team size.
///
/// # Panics
/// Panics if a team member panics mid-sweep; see
/// [`try_parallel35d_sweep`] for the non-panicking, watchdogged variant.
pub fn parallel35d_sweep<T: Real, K: StencilKernel<T>>(
    kernel: &K,
    grids: &mut DoubleGrid<T>,
    steps: usize,
    b: Blocking35,
    team: &ThreadTeam,
) -> SweepStats {
    match try_parallel35d_sweep(kernel, grids, steps, b, team, None, &Observer::disabled()) {
        Ok(stats) => stats,
        Err(e) => panic!("parallel35d_sweep: {e}"),
    }
}

/// Fault-tolerant, observable parallel 3.5-D blocked sweep — the single
/// entry point behind every stencil executor variant.
///
/// Behaves like [`parallel35d_sweep`], but failures inside the parallel
/// region surface as [`ExecError`] instead of panics or hangs:
///
/// * a member **panic** poisons the per-Z-step barrier (via an RAII guard)
///   so the remaining members drain at their next barrier episode instead
///   of spinning forever, and the call returns
///   [`SyncError`](threefive_sync::SyncError)`::TeamPanicked` wrapped in
///   [`ExecError::Sync`];
/// * with `deadline: Some(d)`, a member **stall** longer than `d` trips
///   the barrier watchdog: the waiting members poison the barrier and
///   drain, and the call returns
///   [`SyncError`](threefive_sync::SyncError)`::BarrierTimeout`. The call
///   itself still joins the stalled member (the closure borrows the
///   caller's grids, so abandoning it would be unsound); the deadline
///   bounds how long *healthy* members are held hostage, and the facade's
///   ladder runs retries on a fresh team;
/// * `deadline: None` disables the watchdog (benchmark configuration) —
///   panic poisoning stays active.
///
/// Observability composes through `obs` instead of dedicated entry
/// points: [`Observer::with_instrument`] accumulates per-thread
/// compute/barrier-wait timing, [`Observer::with_tracer`] records one
/// plane span per streamed Z plane × time level and one barrier span per
/// episode, and [`Observer::disabled`] never reads the clock — the hot
/// loop is bit-identical to the unobserved fast path.
///
/// On `Err` the destination of the failing chunk is unspecified (it may
/// be partially committed) but its source is untouched: a call of at most
/// `dim_T` steps is one chunk and leaves the input intact, which is how
/// [`run_plan`](../../threefive/fn.run_plan.html) rolls back without a
/// snapshot. Callers of longer runs must keep the input themselves.
pub fn try_parallel35d_sweep<T: Real, K: StencilKernel<T>>(
    kernel: &K,
    grids: &mut DoubleGrid<T>,
    steps: usize,
    b: Blocking35,
    team: &ThreadTeam,
    deadline: Option<Duration>,
    obs: &Observer<'_>,
) -> Result<SweepStats, ExecError> {
    Blocking35::try_new(b.dim_x, b.dim_y, b.dim_t)?;
    let dim = grids.dim();
    let r = kernel.radius();
    if !has_interior(dim, r) {
        return Ok(SweepStats::default());
    }
    let barrier = SpinBarrier::new(team.threads());
    let mut stats = SweepStats::default();
    let mut remaining = steps;
    while remaining > 0 {
        let chunk = remaining.min(b.dim_t);
        let (src, dst) = grids.pair_mut();
        let dst_view = SharedSlice::new(dst.as_mut_slice());
        let planes = StencilPlanes {
            kernel,
            src,
            dst: &dst_view,
        };
        let ctx = SweepCtx {
            team,
            barrier: &barrier,
            deadline,
            obs,
        };
        stream_chunk(&planes, dim, b, chunk, &ctx, |geom| {
            stats = stats + geom.stats::<T>();
        })?;
        grids.swap();
        remaining -= chunk;
    }
    Ok(stats)
}

/// The Dirichlet stencil workload as a [`PlaneKernel`]: level 1 reads the
/// source grid, intermediate levels read/write the plane rings, the final
/// level writes the destination grid, and the fixed boundary rim is
/// copied into intermediate rings so deeper levels see correct values.
pub(crate) struct StencilPlanes<'a, T: Real, K: StencilKernel<T>> {
    pub(crate) kernel: &'a K,
    pub(crate) src: &'a Grid3<T>,
    pub(crate) dst: &'a SharedSlice<'a, T>,
}

impl<T: Real, K: StencilKernel<T>> PlaneKernel<T> for StencilPlanes<'_, T, K> {
    fn radius(&self) -> usize {
        self.kernel.radius()
    }

    fn boundary(&self) -> BoundaryPolicy {
        BoundaryPolicy::DirichletRim
    }

    fn process_level(
        &self,
        geom: &TileGeom,
        rings: &Rings<'_, T>,
        t: usize,
        z: usize,
        my_rows: &Range<usize>,
    ) {
        let (r, c) = (geom.radius(), geom.levels());
        let dim = geom.dim();
        let (gx0, gx1, gy0) = (geom.gx0(), geom.gx1(), geom.gy0());
        let lx = geom.lx();
        let is_final = t == c;
        let z_boundary = z < r || z >= dim.nz - r;

        if z_boundary {
            if !is_final {
                // Dirichlet Z plane: intermediate levels must hold it so the
                // next level's reads see boundary values; the final level's
                // destination grid already carries them.
                for row in my_rows.clone() {
                    let y = gy0 + row;
                    // SAFETY: this thread owns `row` of every ring plane.
                    let dst = unsafe { rings.row_mut(t - 1, z, 0, row, 0, lx) };
                    dst.copy_from_slice(&self.src.row(y, z)[gx0..gx1]);
                }
            }
            return;
        }

        let xs = geom.compute_x(t);
        let ys = geom.compute_y(t);

        // Stencil rows this thread owns.
        let row_lo = ys.start.max(gy0 + my_rows.start);
        let row_hi = ys.end.min(gy0 + my_rows.end);

        if row_lo < row_hi && !xs.is_empty() {
            // The plane window is 2R+1 references; stage them on the stack
            // so the per-plane hot path never touches the allocator. Radii
            // past the in-tree kernels' range take a cold heap spill.
            const MAX_WIN: usize = 9;
            let mut stack: [&[T]; MAX_WIN] = [&[]; MAX_WIN];
            // analyze:allow(hot-path-alloc) cold spill path, only taken when R > 4
            let mut spill: Vec<&[T]> = Vec::new();
            let planes: &mut [&[T]] = if 2 * r < MAX_WIN {
                &mut stack[..2 * r + 1]
            } else {
                spill.resize(2 * r + 1, &[]);
                &mut spill
            };
            if t == 1 {
                // Level 1 reads the source grid directly (global stride).
                for (i, zz) in (z - r..=z + r).enumerate() {
                    planes[i] = self.src.plane(zz);
                }
            } else {
                // Deeper levels read the previous level's ring (local stride).
                for (i, zz) in (z - r..=z + r).enumerate() {
                    // SAFETY: those planes were completed at earlier outer
                    // steps (barrier-separated) and their slots are disjoint
                    // from any plane written in this step.
                    planes[i] = unsafe { rings.plane(t - 2, zz, 0) };
                }
            }
            let planes: &[&[T]] = planes;
            let (nx, x_off, y_off) = if t == 1 {
                (dim.nx, 0usize, 0usize)
            } else {
                (lx, gx0, gy0)
            };

            for y in row_lo..row_hi {
                let out: &mut [T] = if is_final {
                    // SAFETY: this thread owns row `y` of the destination.
                    unsafe { self.dst.slice_mut(dim.idx(xs.start, y, z), xs.len()) }
                } else {
                    // SAFETY: this thread owns this local row of the ring.
                    unsafe { rings.row_mut(t - 1, z, 0, y - gy0, xs.start - gx0, xs.len()) }
                };
                self.kernel
                    .apply_row(planes, nx, y - y_off, xs.start - x_off..xs.end - x_off, out);

                if !is_final {
                    // Dirichlet X rim inside the loaded footprint, so deeper
                    // levels read correct boundary values.
                    if gx0 == 0 && r > 0 {
                        // SAFETY: same row ownership as above.
                        let rim = unsafe { rings.row_mut(t - 1, z, 0, y - gy0, 0, r) };
                        rim.copy_from_slice(&self.src.row(y, z)[0..r]);
                    }
                    if gx1 == dim.nx && r > 0 {
                        // SAFETY: same row ownership as above.
                        let rim = unsafe { rings.row_mut(t - 1, z, 0, y - gy0, lx - r, r) };
                        rim.copy_from_slice(&self.src.row(y, z)[dim.nx - r..dim.nx]);
                    }
                }
            }
        }

        if !is_final {
            // Dirichlet Y rows (grid faces) inside the loaded footprint.
            for row in my_rows.clone() {
                let y = gy0 + row;
                if y < r || y >= dim.ny - r {
                    // SAFETY: this thread owns `row` of every ring plane.
                    let dst = unsafe { rings.row_mut(t - 1, z, 0, row, 0, lx) };
                    dst.copy_from_slice(&self.src.row(y, z)[gx0..gx1]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::reference_sweep;
    use crate::kernel::{GenericStar, SevenPoint, TwentySevenPoint};
    use crate::planner::kappa_35d;
    use threefive_grid::Dim3;
    use threefive_sync::{Instrument, Tracer};

    fn init<T: Real>(d: Dim3) -> DoubleGrid<T> {
        DoubleGrid::from_initial(Grid3::from_fn(d, |x, y, z| {
            T::from_f64((((x * 17 + y * 23 + z * 29) % 31) as f64) * 0.125 - 1.5)
        }))
    }

    #[test]
    fn serial_matches_reference_across_tilings() {
        let d = Dim3::new(14, 12, 10);
        let k = SevenPoint::new(0.3f32, 0.1);
        for steps in [1usize, 2, 3, 4, 6] {
            let mut want = init::<f32>(d);
            reference_sweep(&k, &mut want, steps);
            for (tx, ty, dt) in [
                (6usize, 6usize, 2usize),
                (14, 12, 2),
                (5, 7, 3),
                (4, 4, 1),
                (14, 12, 4),
                (3, 3, 2),
            ] {
                let mut got = init::<f32>(d);
                blocked35d_sweep(&k, &mut got, steps, Blocking35::new(tx, ty, dt));
                assert_eq!(
                    got.src().as_slice(),
                    want.src().as_slice(),
                    "steps={steps} tile={tx}x{ty} dimT={dt}"
                );
            }
        }
    }

    #[test]
    fn serial_matches_reference_f64_27pt() {
        let d = Dim3::cube(11);
        let k = TwentySevenPoint::<f64>::smoothing();
        let mut want = init::<f64>(d);
        reference_sweep(&k, &mut want, 4);
        let mut got = init::<f64>(d);
        blocked35d_sweep(&k, &mut got, 4, Blocking35::new(5, 6, 2));
        assert_eq!(got.src().as_slice(), want.src().as_slice());
    }

    #[test]
    fn serial_matches_reference_radius_two() {
        // R = 2 exercises the 3R+1 ring-capacity generalization.
        let d = Dim3::cube(16);
        let k = GenericStar::<f64>::smoothing(2);
        for steps in [2usize, 4, 5] {
            let mut want = init::<f64>(d);
            reference_sweep(&k, &mut want, steps);
            let mut got = init::<f64>(d);
            blocked35d_sweep(&k, &mut got, steps, Blocking35::new(7, 9, 2));
            assert_eq!(got.src().as_slice(), want.src().as_slice(), "steps={steps}");
        }
    }

    #[test]
    fn parallel_matches_reference_for_every_team_size() {
        let d = Dim3::new(13, 11, 9);
        let k = SevenPoint::new(0.3f32, 0.1);
        let mut want = init::<f32>(d);
        reference_sweep(&k, &mut want, 4);
        for threads in [1usize, 2, 3, 4, 7] {
            let team = ThreadTeam::new(threads);
            let mut got = init::<f32>(d);
            parallel35d_sweep(&k, &mut got, 4, Blocking35::new(6, 5, 2), &team);
            assert_eq!(
                got.src().as_slice(),
                want.src().as_slice(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_matches_with_partial_rows() {
        // More threads than tile rows: the partition degrades gracefully
        // (some members idle), results stay exact.
        let d = Dim3::cube(8);
        let k = SevenPoint::new(0.25f64, 0.125);
        let mut want = init::<f64>(d);
        reference_sweep(&k, &mut want, 3);
        let team = ThreadTeam::new(6);
        let mut got = init::<f64>(d);
        parallel35d_sweep(&k, &mut got, 3, Blocking35::new(4, 2, 3), &team);
        assert_eq!(got.src().as_slice(), want.src().as_slice());
    }

    #[test]
    fn temporal_only_is_ghost_free() {
        let d = Dim3::cube(12);
        let k = SevenPoint::new(0.3f32, 0.1);
        let mut want = init::<f32>(d);
        reference_sweep(&k, &mut want, 4);
        let mut got = init::<f32>(d);
        let stats = temporal_sweep(&k, &mut got, 4, 2);
        assert_eq!(got.src().as_slice(), want.src().as_slice());
        // Whole-plane tiles ⇒ every level computes the full interior ⇒ no
        // recompute overestimation.
        assert!((stats.overestimation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_and_recompute_track_kappa_35d() {
        let (tx, dt, r) = (16usize, 2usize, 1usize);
        let d = Dim3::new(tx * 3, tx * 3, 12);
        let k = SevenPoint::new(0.3f64, 0.1);
        let mut g = init::<f64>(d);
        let stats = blocked35d_sweep(&k, &mut g, dt, Blocking35::new(tx, tx, dt));
        let loaded = tx + 2 * r * dt;
        let kappa = kappa_35d(r, dt, loaded, loaded);

        // Bandwidth: loaded footprints per chunk vs one-load-per-point.
        let e = 8u64;
        let commit_bytes = stats.committed_points / dt as u64 * e;
        let measured_kappa =
            (stats.dram_bytes_read - commit_bytes) as f64 / (d.len() as u64 * e) as f64;
        assert!(
            measured_kappa <= kappa * 1.0001 && measured_kappa > 0.6 * kappa,
            "traffic {measured_kappa} vs kappa {kappa}"
        );

        // Compute: ghost recomputation is visible but bounded by κ.
        let over = stats.overestimation();
        assert!(
            over > 1.02 && over <= kappa,
            "recompute {over} vs kappa {kappa}"
        );
    }

    #[test]
    fn dram_traffic_reduces_by_dim_t() {
        // The headline claim: 3.5-D traffic ≈ (no-blocking traffic) × κ/dimT.
        let d = Dim3::cube(24);
        let k = SevenPoint::new(0.3f32, 0.1);
        let steps = 4usize;
        let mut a = init::<f32>(d);
        let naive = reference_sweep(&k, &mut a, steps);
        let mut b = init::<f32>(d);
        let blocked = blocked35d_sweep(&k, &mut b, steps, Blocking35::new(12, 12, 2));
        let ratio = naive.dram_bytes() as f64 / blocked.dram_bytes() as f64;
        // dimT = 2 with modest κ: expect between 1.4X and 2X reduction.
        assert!(ratio > 1.4 && ratio <= 2.2, "ratio {ratio}");
    }

    #[test]
    fn zero_interior_grid_is_no_op() {
        let d = Dim3::new(5, 2, 5);
        let k = SevenPoint::new(0.3f32, 0.1);
        let mut g = init::<f32>(d);
        let before = g.src().clone();
        let stats = blocked35d_sweep(&k, &mut g, 3, Blocking35::new(4, 4, 2));
        assert_eq!(g.src().as_slice(), before.as_slice());
        assert_eq!(stats, SweepStats::default());
    }

    #[test]
    fn instrumented_sweep_is_bit_exact_and_records_timing() {
        let d = Dim3::cube(12);
        let k = SevenPoint::new(0.3f32, 0.1);
        let mut want = init::<f32>(d);
        reference_sweep(&k, &mut want, 4);
        let team = ThreadTeam::new(3);
        let instr = Instrument::enabled(team.threads());
        let mut got = init::<f32>(d);
        let stats = try_parallel35d_sweep(
            &k,
            &mut got,
            4,
            Blocking35::new(6, 6, 2),
            &team,
            None,
            &Observer::with_instrument(&instr),
        )
        .unwrap();
        assert_eq!(got.src().as_slice(), want.src().as_slice());
        assert!(stats.committed_points > 0);
        let timing = instr.timing();
        assert_eq!(timing.per_thread.len(), 3);
        // Every member passed through barriers and compute regions.
        assert!(timing.total_compute_ns() > 0);
        let share = timing.barrier_share();
        assert!((0.0..=1.0).contains(&share), "share {share}");
    }

    #[test]
    fn disabled_instrument_collects_nothing() {
        let d = Dim3::cube(8);
        let k = SevenPoint::new(0.3f32, 0.1);
        let team = ThreadTeam::new(2);
        let instr = Instrument::disabled();
        let mut g = init::<f32>(d);
        try_parallel35d_sweep(
            &k,
            &mut g,
            2,
            Blocking35::new(4, 4, 2),
            &team,
            None,
            &Observer::with_instrument(&instr),
        )
        .unwrap();
        assert!(instr.timing().per_thread.is_empty());
        assert_eq!(instr.timing().barrier_share(), 0.0);
    }

    #[test]
    fn traced_sweep_is_bit_exact_and_spans_every_plane_level() {
        use threefive_sync::TraceEventKind;
        let d = Dim3::cube(12);
        let k = SevenPoint::new(0.3f32, 0.1);
        let (steps, dim_t, threads) = (4usize, 2usize, 2usize);
        let mut want = init::<f32>(d);
        reference_sweep(&k, &mut want, steps);
        let team = ThreadTeam::new(threads);
        let instr = Instrument::enabled(threads);
        let tracer = Tracer::enabled(threads);
        let mut got = init::<f32>(d);
        try_parallel35d_sweep(
            &k,
            &mut got,
            steps,
            Blocking35::new(d.nx, d.ny, dim_t), // one tile: exact span accounting
            &team,
            None,
            &Observer::new(&instr, &tracer),
        )
        .unwrap();
        assert_eq!(got.src().as_slice(), want.src().as_slice());
        let snap = tracer.snapshot();
        assert_eq!(snap.threads.len(), threads);
        assert_eq!(snap.total_dropped(), 0);
        let chunks = steps / dim_t;
        let outer = d.nz + 2 * (dim_t - 1);
        for tt in &snap.threads {
            let planes = tt
                .events
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::Plane { .. }))
                .count();
            // One span per (plane, time level) per chunk on every thread.
            assert_eq!(planes, d.nz * dim_t * chunks);
            let barriers = tt
                .events
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::Barrier { .. }))
                .count();
            assert_eq!(barriers, outer * chunks);
            // Recording order gives monotonic per-thread start times.
            let starts: Vec<u64> = tt.events.iter().map(|e| e.start_ns).collect();
            assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        }
        // The instrument now also carries the wait histogram.
        assert_eq!(
            instr.timing().wait_hist.total() as usize,
            outer * chunks * threads
        );
    }

    #[test]
    fn disabled_observer_keeps_sweep_bit_identical() {
        let d = Dim3::new(11, 9, 10);
        let k = SevenPoint::new(0.3f64, 0.1);
        let team = ThreadTeam::new(3);
        let b = Blocking35::new(5, 6, 2);
        let mut plain = init::<f64>(d);
        try_parallel35d_sweep(&k, &mut plain, 4, b, &team, None, &Observer::disabled()).unwrap();
        let mut traced = init::<f64>(d);
        let tracer = Tracer::disabled();
        try_parallel35d_sweep(
            &k,
            &mut traced,
            4,
            b,
            &team,
            None,
            &Observer::with_tracer(&tracer),
        )
        .unwrap();
        assert_eq!(plain.src().as_slice(), traced.src().as_slice());
        assert_eq!(tracer.snapshot().total_events(), 0);
    }

    #[test]
    fn every_schedule_matches_reference_in_parallel() {
        use crate::exec::schedule::ScheduleKind;
        let d = Dim3::new(14, 11, 13);
        let k = SevenPoint::new(0.3f32, 0.1);
        let mut want = init::<f32>(d);
        reference_sweep(&k, &mut want, 5);
        for schedule in ScheduleKind::ALL {
            for threads in [1usize, 3] {
                let team = ThreadTeam::new(threads);
                let mut got = init::<f32>(d);
                parallel35d_sweep(
                    &k,
                    &mut got,
                    5,
                    Blocking35::new(6, 5, 2).with_schedule(schedule),
                    &team,
                );
                assert_eq!(
                    got.src().as_slice(),
                    want.src().as_slice(),
                    "schedule={schedule} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn steps_not_multiple_of_dim_t() {
        let d = Dim3::cube(10);
        let k = SevenPoint::new(0.3f64, 0.1);
        for steps in 1..=7 {
            let mut want = init::<f64>(d);
            reference_sweep(&k, &mut want, steps);
            let mut got = init::<f64>(d);
            blocked35d_sweep(&k, &mut got, steps, Blocking35::new(5, 5, 3));
            assert_eq!(got.src().as_slice(), want.src().as_slice(), "steps={steps}");
        }
    }
}
