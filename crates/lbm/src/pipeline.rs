//! 3.5-D blocking for the lattice Boltzmann method (paper §VI-B).
//!
//! Since the engine refactor this module no longer carries its own copy
//! of the pipeline: the chunked tile loop, Z-stream schedule, plane
//! rings, barriers and fault handling come from
//! [`threefive_core::exec::engine35`], and this module contributes the
//! D3Q19 workload as a [`PlaneKernel`] impl ([`LbmPlanes`]) plus the
//! public sweep entry points. Running on the engine also puts the LBM
//! under the fault-tolerance layer: [`try_lbm35d_sweep`] honors a
//! watchdog `deadline` and surfaces member panics / poisoned barriers as
//! [`LbmError::Sync`] instead of hanging.
//!
//! Structure (same as the stencil pipeline): XY tiles stream through Z;
//! time level 1 pulls from the source lattice, intermediate levels live in
//! tile-local plane rings (19 distribution planes per ring slot), the last
//! level writes the destination lattice. Every thread owns a band of rows
//! of every sub-plane at every level, with one barrier per outer Z step.
//!
//! Differences from the scalar-stencil pipeline, both induced by the
//! lattice's flag semantics and captured by
//! [`BoundaryPolicy::FaceExtended`]:
//!
//! * valid ranges extend to the grid faces (face sites are non-fluid by
//!   construction and are *copied* from the time-invariant source, which
//!   doubles as the Dirichlet rim);
//! * every committed cell is written each chunk (there is no pre-
//!   initialized destination), so Z-boundary planes are copied into the
//!   destination too.
//!
//! D3Q19 propagation has L∞ radius 1, so `R = 1` throughout; under the
//! default lag schedule rings carry `max(2R+2, 3R+1) = 4` sub-planes per
//! level, matching the paper. [`LbmBlocking::with_schedule`] runs the
//! same kernel under the wavefront or wavefront-diamond schedules
//! instead (see [`threefive_core::exec::schedule`]), which size their
//! own rings.

use std::fmt;
use std::ops::Range;
use std::time::Duration;

use threefive_core::exec::engine35::{
    stream_chunk, Blocking35, BoundaryPolicy, PlaneKernel, Rings, SweepCtx, TileGeom,
};
use threefive_core::exec::ScheduleKind;
use threefive_grid::{CellFlags, Real, SoaGrid};
use threefive_sync::{Observer, SharedSlice, SpinBarrier, SyncError, ThreadTeam};

use crate::model::Q;
use crate::step::{row_update, PullSource};
use crate::Lattice;

/// Propagation radius of D3Q19 (L∞ norm).
const R: usize = 1;

/// 3.5-D blocking parameters for the lattice executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LbmBlocking {
    /// Owned tile extent along X.
    pub dim_x: usize,
    /// Owned tile extent along Y.
    pub dim_y: usize,
    /// Temporal blocking factor.
    pub dim_t: usize,
    /// Which lag/ring/barrier schedule streams the chunk.
    pub schedule: ScheduleKind,
}

impl LbmBlocking {
    /// Creates blocking parameters under the paper's lag schedule.
    ///
    /// # Panics
    /// Panics if any parameter is zero; see
    /// [`try_new`](LbmBlocking::try_new) for the non-panicking variant.
    pub fn new(dim_x: usize, dim_y: usize, dim_t: usize) -> Self {
        match Self::try_new(dim_x, dim_y, dim_t) {
            Ok(b) => b,
            Err(_) => panic!("LbmBlocking: zero parameter"),
        }
    }

    /// Creates blocking parameters, rejecting zero extents with a typed
    /// error instead of panicking — the CLI and bench entry points route
    /// through this so user input cannot reach the `assert!`.
    pub fn try_new(dim_x: usize, dim_y: usize, dim_t: usize) -> Result<Self, LbmError> {
        if dim_x == 0 || dim_y == 0 || dim_t == 0 {
            return Err(LbmError::InvalidBlocking {
                dim_x,
                dim_y,
                dim_t,
            });
        }
        Ok(Self {
            dim_x,
            dim_y,
            dim_t,
            schedule: ScheduleKind::Lag35d,
        })
    }

    /// The same blocking under a different temporal schedule.
    pub fn with_schedule(mut self, schedule: ScheduleKind) -> Self {
        self.schedule = schedule;
        self
    }
}

/// Typed errors for the lattice executors' fallible entry points.
#[derive(Clone, Debug, PartialEq)]
pub enum LbmError {
    /// A blocking parameter was zero; the 3.5-D geometry is undefined.
    InvalidBlocking {
        /// Requested owned-tile extent along X.
        dim_x: usize,
        /// Requested owned-tile extent along Y.
        dim_y: usize,
        /// Requested temporal factor.
        dim_t: usize,
    },
    /// The parallel substrate failed: a member panicked, the barrier was
    /// poisoned, or a watchdog deadline expired.
    Sync(SyncError),
    /// A distribution value went non-finite (NaN/∞).
    NonFinite {
        /// Distribution component `q` containing the value.
        comp: usize,
        /// Lattice site `(x, y, z)` of the value.
        at: (usize, usize, usize),
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for LbmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LbmError::InvalidBlocking {
                dim_x,
                dim_y,
                dim_t,
            } => write!(
                f,
                "invalid LBM 3.5-D blocking {dim_x}x{dim_y} dimT={dim_t}: \
                 every parameter must be positive"
            ),
            LbmError::Sync(e) => write!(f, "LBM parallel sweep failed: {e}"),
            LbmError::NonFinite { comp, at, value } => write!(
                f,
                "non-finite distribution f[{comp}] = {value} at ({}, {}, {})",
                at.0, at.1, at.2
            ),
        }
    }
}

impl std::error::Error for LbmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LbmError::Sync(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SyncError> for LbmError {
    fn from(e: SyncError) -> Self {
        LbmError::Sync(e)
    }
}

/// Temporal-only blocking: tile = the whole XY plane (paper's
/// "only temporal blocking" bars, which help only when the plane rings fit
/// in cache).
pub fn lbm_temporal_sweep<T: Real>(
    lat: &mut Lattice<T>,
    steps: usize,
    dim_t: usize,
    team: Option<&ThreadTeam>,
) -> u64 {
    let d = lat.dim();
    lbm35d_sweep(lat, steps, LbmBlocking::new(d.nx, d.ny, dim_t), team)
}

/// Advances the lattice `steps` time steps with 3.5-D blocking.
///
/// Bit-exact with [`lbm_naive_sweep`](crate::lbm_naive_sweep) in SIMD mode
/// for every tiling, temporal factor and team size. Returns the number of
/// site updates.
///
/// # Panics
/// Panics if the parallel substrate fails; see [`try_lbm35d_sweep`] for
/// the non-panicking, watchdogged variant.
pub fn lbm35d_sweep<T: Real>(
    lat: &mut Lattice<T>,
    steps: usize,
    b: LbmBlocking,
    team: Option<&ThreadTeam>,
) -> u64 {
    match try_lbm35d_sweep(lat, steps, b, team, None, &Observer::disabled()) {
        Ok(updates) => updates,
        Err(e) => panic!("lbm35d_sweep: {e}"),
    }
}

/// Fault-tolerant, observable 3.5-D LBM sweep — the single entry point
/// behind every lattice executor variant.
///
/// Behaves like [`lbm35d_sweep`], but failures inside the parallel
/// region surface as [`LbmError`] instead of panics or hangs, exactly as
/// [`try_parallel35d_sweep`](threefive_core::exec::try_parallel35d_sweep)
/// does for the stencil: a member panic poisons the per-Z-step barrier
/// and drains the team ([`LbmError::Sync`] /
/// [`SyncError::TeamPanicked`]), and `deadline: Some(d)` bounds how long
/// healthy members wait on a stalled one
/// ([`SyncError::BarrierTimeout`]). Observability composes through
/// `obs`: [`Observer::with_instrument`] accumulates per-thread
/// compute/barrier-wait timing, [`Observer::with_tracer`] records one
/// plane span per streamed Z plane × time level and one barrier span per
/// episode, and [`Observer::disabled`] never reads the clock.
///
/// On `Err` the destination of the failing chunk is unspecified (it may
/// be partially committed) but its source is untouched: a call of at most
/// `dim_T` steps is one chunk and leaves the input intact, which is how
/// the facade's `run_lbm_plan` ladder rolls back without a snapshot.
/// Callers of longer runs must keep the input themselves.
pub fn try_lbm35d_sweep<T: Real>(
    lat: &mut Lattice<T>,
    steps: usize,
    b: LbmBlocking,
    team: Option<&ThreadTeam>,
    deadline: Option<Duration>,
    obs: &Observer<'_>,
) -> Result<u64, LbmError> {
    LbmBlocking::try_new(b.dim_x, b.dim_y, b.dim_t)?;
    let fallback;
    let team = match team {
        Some(t) => t,
        None => {
            fallback = ThreadTeam::new(1);
            &fallback
        }
    };
    let dim = lat.dim();
    let omega = lat.omega;
    let barrier = SpinBarrier::new(team.threads());
    // The engine's blocking type mirrors the LBM one field-for-field.
    let eb = Blocking35 {
        dim_x: b.dim_x,
        dim_y: b.dim_y,
        dim_t: b.dim_t,
        schedule: b.schedule,
    };
    let mut remaining = steps;
    while remaining > 0 {
        let chunk = remaining.min(b.dim_t);
        let (flags, simple, src, dst) = lat.split_step();
        let dst_views: Vec<SharedSlice<'_, T>> =
            dst.comps_mut().into_iter().map(SharedSlice::new).collect();
        let planes = LbmPlanes {
            src,
            dst: &dst_views,
            flags,
            simple,
            omega,
        };
        let ctx = SweepCtx {
            team,
            barrier: &barrier,
            deadline,
            obs,
        };
        stream_chunk(&planes, dim, eb, chunk, &ctx, |_| {})?;
        lat.swap();
        remaining -= chunk;
    }
    Ok(dim.len() as u64 * steps as u64)
}

/// The D3Q19 workload as a [`PlaneKernel`]: level 1 pulls from the source
/// lattice, intermediate levels read/write 19-component plane rings, the
/// final level writes the destination lattice. Non-fluid Z-boundary
/// planes are copied from the time-invariant source — into rings for
/// intermediate levels, into the destination for the final level.
struct LbmPlanes<'a, T: Real> {
    src: &'a SoaGrid<T>,
    dst: &'a [SharedSlice<'a, T>],
    flags: &'a CellFlags,
    simple: &'a [u8],
    omega: T,
}

impl<T: Real> PlaneKernel<T> for LbmPlanes<'_, T> {
    fn radius(&self) -> usize {
        R
    }

    fn boundary(&self) -> BoundaryPolicy {
        BoundaryPolicy::FaceExtended
    }

    fn components(&self) -> usize {
        Q
    }

    fn process_level(
        &self,
        geom: &TileGeom,
        rings: &Rings<'_, T>,
        t: usize,
        z: usize,
        my_rows: &Range<usize>,
    ) {
        let c = geom.levels();
        let dim = geom.dim();
        let (gx0, gy0, lx) = (geom.gx0(), geom.gy0(), geom.lx());
        let is_final = t == c;
        let z_boundary = z < R || z >= dim.nz - R;

        if z_boundary {
            // Non-fluid planes: propagate the time-invariant source values
            // to wherever the consumer will read them.
            if !is_final {
                for row in my_rows.clone() {
                    let y = gy0 + row;
                    let i = dim.idx(gx0, y, z);
                    for q in 0..Q {
                        // SAFETY: this thread owns `row`.
                        let dst = unsafe { rings.row_mut(t - 1, z, q, row, 0, lx) };
                        dst.copy_from_slice(&self.src.comp(q)[i..i + lx]);
                    }
                }
            } else {
                let xs = geom.compute_x(c);
                if xs.is_empty() {
                    return;
                }
                let ys = geom.compute_y(c);
                for row in my_rows.clone() {
                    let y = gy0 + row;
                    if !ys.contains(&y) {
                        continue;
                    }
                    let i = dim.idx(xs.start, y, z);
                    for (q, view) in self.dst.iter().enumerate() {
                        // SAFETY: this thread owns row `y` of the
                        // destination for this tile's X range.
                        let dst = unsafe { view.slice_mut(i, xs.len()) };
                        dst.copy_from_slice(&self.src.comp(q)[i..i + xs.len()]);
                    }
                }
            }
            return;
        }

        let xs = geom.compute_x(t);
        let ys = geom.compute_y(t);
        if xs.is_empty() {
            return;
        }
        let row_lo = ys.start.max(gy0 + my_rows.start);
        let row_hi = ys.end.min(gy0 + my_rows.end);
        let mut out_rows: Vec<&mut [T]> = Vec::with_capacity(Q);
        for y in row_lo..row_hi {
            out_rows.clear();
            if is_final {
                let i = dim.idx(xs.start, y, z);
                for view in self.dst {
                    // SAFETY: this thread owns row `y` of the destination
                    // for this tile's X range.
                    out_rows.push(unsafe { view.slice_mut(i, xs.len()) });
                }
            } else {
                for q in 0..Q {
                    // SAFETY: this thread owns row `y`.
                    out_rows.push(unsafe {
                        rings.row_mut(t - 1, z, q, y - gy0, xs.start - gx0, xs.len())
                    });
                }
            }
            if t == 1 {
                row_update(
                    &self.src,
                    self.src,
                    self.flags,
                    self.simple,
                    self.omega,
                    y,
                    z,
                    xs.clone(),
                    &mut out_rows,
                    true,
                );
            } else {
                let rsrc = RingSrc {
                    rings,
                    ring: t - 2,
                    gx0,
                    gy0,
                    lx,
                };
                row_update(
                    &rsrc,
                    self.src,
                    self.flags,
                    self.simple,
                    self.omega,
                    y,
                    z,
                    xs.clone(),
                    &mut out_rows,
                    true,
                );
            }
        }
    }
}

/// Pull source backed by an engine ring (global-coordinate adapter).
struct RingSrc<'b, 'a, T> {
    rings: &'b Rings<'a, T>,
    ring: usize,
    gx0: usize,
    gy0: usize,
    lx: usize,
}

impl<T: Real> PullSource<T> for RingSrc<'_, '_, T> {
    #[inline(always)]
    fn row(&self, q: usize, x0: usize, y: usize, z: usize, len: usize) -> &[T] {
        // SAFETY: the pipeline only reads planes completed in earlier
        // barrier-separated steps, and ring slots written this step are
        // disjoint from slots read this step.
        let plane = unsafe { self.rings.plane(self.ring, z, q) };
        let off = (y - self.gy0) * self.lx + (x0 - self.gx0);
        &plane[off..off + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use crate::step::{lbm_naive_sweep, LbmMode};
    use threefive_grid::Dim3;
    use threefive_sync::{Instrument, TraceEventKind, Tracer};

    fn assert_lattices_equal<T: Real>(a: &Lattice<T>, b: &Lattice<T>, what: &str) {
        for q in 0..Q {
            assert_eq!(a.src().comp(q), b.src().comp(q), "{what}: comp {q}");
        }
    }

    fn perturb<T: Real>(lat: &mut Lattice<T>) {
        let d = lat.dim();
        for z in 1..d.nz - 1 {
            for y in 1..d.ny - 1 {
                for x in 1..d.nx - 1 {
                    if lat.flags().get(x, y, z) != threefive_grid::CellKind::Fluid {
                        continue;
                    }
                    let rho =
                        T::from_f64(1.0 + 0.02 * (((x * 3 + y * 5 + z * 7) % 9) as f64 - 4.0));
                    let u = [
                        T::from_f64(0.008 * ((x % 3) as f64 - 1.0)),
                        T::from_f64(0.008 * ((y % 3) as f64 - 1.0)),
                        T::from_f64(0.008 * ((z % 3) as f64 - 1.0)),
                    ];
                    lat.set_equilibrium(x, y, z, rho, u);
                }
            }
        }
    }

    #[test]
    fn blocked_matches_naive_across_tilings() {
        let d = Dim3::new(13, 11, 9);
        let mut want = scenarios::closed_box::<f32>(d, 1.3);
        perturb(&mut want);
        lbm_naive_sweep(&mut want, 4, LbmMode::Simd, None);
        for (tx, ty, dt) in [
            (6usize, 5usize, 2usize),
            (13, 11, 2),
            (4, 4, 3),
            (13, 11, 1),
            (5, 11, 4),
        ] {
            let mut got = scenarios::closed_box::<f32>(d, 1.3);
            perturb(&mut got);
            lbm35d_sweep(&mut got, 4, LbmBlocking::new(tx, ty, dt), None);
            assert_lattices_equal(&want, &got, &format!("tile {tx}x{ty} dimT={dt}"));
        }
    }

    #[test]
    fn blocked_matches_naive_f64_cavity() {
        let d = Dim3::cube(10);
        let mut want = scenarios::lid_driven_cavity::<f64>(d, 1.1, 0.08);
        lbm_naive_sweep(&mut want, 5, LbmMode::Simd, None);
        let mut got = scenarios::lid_driven_cavity::<f64>(d, 1.1, 0.08);
        lbm35d_sweep(&mut got, 5, LbmBlocking::new(5, 4, 3), None);
        assert_lattices_equal(&want, &got, "cavity");
    }

    #[test]
    fn blocked_matches_naive_with_interior_obstacle() {
        // A sphere in the channel exercises bounce-back inside tiles and
        // across tile seams.
        let d = Dim3::new(18, 10, 10);
        let mut want = scenarios::channel_with_sphere::<f32>(d, 1.0, 0.04, 2.5);
        lbm_naive_sweep(&mut want, 4, LbmMode::Simd, None);
        let mut got = scenarios::channel_with_sphere::<f32>(d, 1.0, 0.04, 2.5);
        lbm35d_sweep(&mut got, 4, LbmBlocking::new(7, 6, 2), None);
        assert_lattices_equal(&want, &got, "channel");
    }

    #[test]
    fn parallel_blocked_matches_for_every_team_size() {
        let d = Dim3::cube(9);
        let mut want = scenarios::lid_driven_cavity::<f32>(d, 1.2, 0.06);
        lbm_naive_sweep(&mut want, 3, LbmMode::Simd, None);
        for threads in [1usize, 2, 4, 5] {
            let team = ThreadTeam::new(threads);
            let mut got = scenarios::lid_driven_cavity::<f32>(d, 1.2, 0.06);
            lbm35d_sweep(&mut got, 3, LbmBlocking::new(4, 4, 3), Some(&team));
            assert_lattices_equal(&want, &got, &format!("threads {threads}"));
        }
    }

    #[test]
    fn temporal_only_matches_naive() {
        let d = Dim3::cube(8);
        let mut want = scenarios::closed_box::<f64>(d, 1.5);
        perturb(&mut want);
        lbm_naive_sweep(&mut want, 6, LbmMode::Simd, None);
        let mut got = scenarios::closed_box::<f64>(d, 1.5);
        perturb(&mut got);
        lbm_temporal_sweep(&mut got, 6, 3, None);
        assert_lattices_equal(&want, &got, "temporal-only");
    }

    #[test]
    fn steps_not_multiple_of_dim_t() {
        let d = Dim3::cube(8);
        for steps in 1..=5 {
            let mut want = scenarios::closed_box::<f32>(d, 1.2);
            perturb(&mut want);
            lbm_naive_sweep(&mut want, steps, LbmMode::Simd, None);
            let mut got = scenarios::closed_box::<f32>(d, 1.2);
            perturb(&mut got);
            lbm35d_sweep(&mut got, steps, LbmBlocking::new(4, 3, 3), None);
            assert_lattices_equal(&want, &got, &format!("steps {steps}"));
        }
    }

    #[test]
    fn invalid_blocking_is_a_typed_error() {
        let d = Dim3::cube(8);
        let mut lat = scenarios::closed_box::<f32>(d, 1.2);
        let b = LbmBlocking {
            dim_x: 4,
            dim_y: 4,
            dim_t: 0,
            schedule: ScheduleKind::Lag35d,
        };
        let err = try_lbm35d_sweep(&mut lat, 2, b, None, None, &Observer::disabled()).unwrap_err();
        assert!(matches!(err, LbmError::InvalidBlocking { dim_t: 0, .. }));
    }

    #[test]
    fn traced_sweep_matches_naive_and_spans_every_plane_level() {
        let d = Dim3::cube(9);
        let (steps, dim_t, threads) = (4usize, 2usize, 2usize);
        let mut want = scenarios::closed_box::<f32>(d, 1.3);
        perturb(&mut want);
        lbm_naive_sweep(&mut want, steps, LbmMode::Simd, None);
        let team = ThreadTeam::new(threads);
        let instr = Instrument::enabled(threads);
        let tracer = Tracer::enabled(threads);
        let mut got = scenarios::closed_box::<f32>(d, 1.3);
        perturb(&mut got);
        try_lbm35d_sweep(
            &mut got,
            steps,
            LbmBlocking::new(d.nx, d.ny, dim_t), // one tile: exact span accounting
            Some(&team),
            None,
            &Observer::new(&instr, &tracer),
        )
        .unwrap();
        assert_lattices_equal(&want, &got, "traced");
        let snap = tracer.snapshot();
        assert_eq!(snap.threads.len(), threads);
        let chunks = steps / dim_t;
        let outer = d.nz + 2 * R * (dim_t - 1);
        for tt in &snap.threads {
            let planes = tt
                .events
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::Plane { .. }))
                .count();
            assert_eq!(planes, d.nz * dim_t * chunks);
            let barriers = tt
                .events
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::Barrier { .. }))
                .count();
            assert_eq!(barriers, outer * chunks);
        }
        assert!(instr.timing().total_compute_ns() > 0);
    }

    #[test]
    fn every_schedule_matches_naive() {
        let d = Dim3::new(11, 9, 10);
        let mut want = scenarios::lid_driven_cavity::<f32>(d, 1.2, 0.06);
        lbm_naive_sweep(&mut want, 4, LbmMode::Simd, None);
        for schedule in ScheduleKind::ALL {
            for threads in [1usize, 3] {
                let team = ThreadTeam::new(threads);
                let mut got = scenarios::lid_driven_cavity::<f32>(d, 1.2, 0.06);
                lbm35d_sweep(
                    &mut got,
                    4,
                    LbmBlocking::new(5, 4, 2).with_schedule(schedule),
                    Some(&team),
                );
                assert_lattices_equal(&want, &got, &format!("{schedule} threads {threads}"));
            }
        }
    }

    #[test]
    fn blocked_conserves_mass() {
        let d = Dim3::cube(10);
        let mut lat = scenarios::closed_box::<f64>(d, 1.4);
        perturb(&mut lat);
        let before = lat.fluid_mass();
        lbm35d_sweep(&mut lat, 12, LbmBlocking::new(5, 5, 3), None);
        let after = lat.fluid_mass();
        assert!((after - before).abs() / before < 1e-12);
    }
}
