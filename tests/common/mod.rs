//! The conformance checks: every rung of a registry against the scalar
//! reference. Shared by the conformance matrix (`tests/conformance.rs`)
//! and the pinned cases that run through the same checks
//! (`tests/{executor,schedule,random}_equivalence.rs`,
//! `tests/lbm_integration.rs`).

// Each test target uses a subset of these helpers.
#![allow(dead_code)]

use std::collections::HashMap;

use proptest::prelude::*;
use threefive::core::exec::StencilExec;
use threefive::core::stats::SweepStats;
use threefive::lbm::LbmExec;
use threefive::prelude::*;

/// One problem, run on every rung of a registry.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    pub dim: Dim3,
    pub tile_x: usize,
    pub tile_y: usize,
    pub dim_t: usize,
    pub steps: usize,
    pub seed: usize,
}

impl Case {
    /// A fixed case on the default seed.
    pub fn pinned(dim: Dim3, (tile_x, tile_y): (usize, usize), dim_t: usize, steps: usize) -> Self {
        Self {
            dim,
            tile_x,
            tile_y,
            dim_t,
            steps,
            seed: 0,
        }
    }

    /// The blocking every rung is handed; each reads what it needs.
    fn blocking(&self, schedule: ScheduleKind) -> Blocking35 {
        Blocking35 {
            dim_x: self.tile_x,
            dim_y: self.tile_y,
            dim_t: self.dim_t,
            schedule,
        }
    }
}

/// The schedules a rung runs under: all of them if it takes one.
fn schedules(temporal: bool) -> &'static [ScheduleKind] {
    if temporal {
        &ScheduleKind::ALL
    } else {
        &[ScheduleKind::Lag35d]
    }
}

/// Runs `sweep` from `init` and checks it bit-exact against
/// `reference_sweep`.
pub fn matches_reference<T: Real, K: StencilKernel<T>>(
    kernel: &K,
    init: &Grid3<T>,
    steps: usize,
    sweep: impl FnOnce(&mut DoubleGrid<T>) -> SweepStats,
) -> Result<(), TestCaseError> {
    let mut want = DoubleGrid::from_initial(init.clone());
    reference_sweep(kernel, &mut want, steps);
    let mut got = DoubleGrid::from_initial(init.clone());
    sweep(&mut got);
    prop_assert_eq!(got.src().as_slice(), want.src().as_slice());
    Ok(())
}

/// Runs `check` on every team size the matrix samples, 1 to 4.
pub fn on_every_team(check: impl Fn(&ThreadTeam) -> Result<(), TestCaseError>) {
    for threads in 1..=4 {
        check(&ThreadTeam::new(threads)).unwrap();
    }
}

/// A deterministic pseudo-random grid in [-1, 1) keyed by `seed`.
pub fn seeded<T: Real>(dim: Dim3, seed: usize) -> Grid3<T> {
    Grid3::from_fn(dim, |x, y, z| {
        let h = x
            .wrapping_mul(0x9E37)
            .wrapping_add(y.wrapping_mul(0x79B9))
            .wrapping_add(z.wrapping_mul(0x85EB))
            .wrapping_add(seed);
        T::from_f64((h % 97) as f64 * 0.02 - 1.0)
    })
}

/// Runs `case` on every [`StencilExec`] rung — under every schedule the
/// rung takes — and checks the result bit-exact against
/// `reference_sweep` and the rung's work counters: every rung commits
/// each interior point, only the ghost-zone rungs recompute, and rungs
/// that run the same geometry report the same work.
pub fn check_stencil<T: Real, K: StencilKernel<T>>(
    kernel: &K,
    case: &Case,
    team: &ThreadTeam,
) -> Result<(), TestCaseError> {
    let dim = case.dim;
    let init = seeded::<T>(dim, case.seed);
    let mut want = DoubleGrid::from_initial(init.clone());
    reference_sweep(kernel, &mut want, case.steps);
    let interior = dim.interior_region(kernel.radius()).len() as u64 * case.steps as u64;

    let mut work: HashMap<StencilExec, SweepStats> = HashMap::new();
    for exec in StencilExec::ALL {
        for &schedule in schedules(exec.temporal()) {
            let what = format!(
                "{exec:?}, R = {}, {dim}, schedule {schedule}, {} thread(s)",
                kernel.radius(),
                team.threads()
            );
            let mut got = DoubleGrid::from_initial(init.clone());
            let stats = exec
                .sweep(
                    kernel,
                    &mut got,
                    case.steps,
                    case.blocking(schedule),
                    team,
                    &Observer::disabled(),
                )
                .map_err(|e| TestCaseError(format!("{what}: {e}")))?;
            let (got, want) = (got.src().as_slice(), want.src().as_slice());
            if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
                return Err(TestCaseError(format!(
                    "{what} diverged at linear index {i}: {:?} vs {:?}",
                    got[i], want[i]
                )));
            }
            // A 3.5-D tile narrower than R·dim_T re-commits a neighbour's
            // edge (same values), so the engine's tiled count is a bound.
            if matches!(
                exec,
                StencilExec::Parallel35d | StencilExec::TileParallel35d
            ) {
                prop_assert!(
                    stats.committed_points >= interior,
                    "{} skipped points",
                    what
                );
            } else {
                prop_assert_eq!(stats.committed_points, interior, "{}", what);
            }
            if !matches!(
                exec,
                StencilExec::Blocked4d | StencilExec::Parallel35d | StencilExec::TileParallel35d
            ) {
                prop_assert_eq!(stats.stencil_updates, interior, "{} recomputed", what);
            }
            // Work depends on the geometry only, never on the schedule.
            let first = *work.entry(exec).or_insert(stats);
            prop_assert_eq!(first, stats, "{}", what);
        }
    }
    let parallel = work[&StencilExec::Parallel35d];
    prop_assert_eq!(work[&StencilExec::TileParallel35d], parallel);
    if case.tile_x >= dim.nx && case.tile_y >= dim.ny {
        prop_assert_eq!(work[&StencilExec::Temporal], parallel);
    }
    Ok(())
}

/// Runs `case` on every [`LbmExec`] rung — under every schedule the rung
/// takes — on the lattice `build` makes, and checks every distribution
/// bit-exact against the scalar naive sweep.
pub fn check_lbm(
    build: &dyn Fn() -> Lattice<f32>,
    case: &Case,
    team: &ThreadTeam,
) -> Result<(), TestCaseError> {
    let mut want = build();
    lbm_naive_sweep(&mut want, case.steps, LbmMode::Scalar, None);
    let dim = want.dim();
    for exec in LbmExec::ALL {
        for &schedule in schedules(exec.temporal()) {
            let what = format!(
                "{exec:?}, {dim}, schedule {schedule}, {} thread(s)",
                team.threads()
            );
            let blocking = LbmBlocking {
                dim_x: case.tile_x,
                dim_y: case.tile_y,
                dim_t: case.dim_t,
                schedule,
            };
            let mut got = build();
            let updates = exec
                .sweep(
                    &mut got,
                    case.steps,
                    blocking,
                    Some(team),
                    None,
                    &Observer::disabled(),
                )
                .map_err(|e| TestCaseError(format!("{what}: {e}")))?;
            prop_assert_eq!(updates, (dim.len() * case.steps) as u64, "{}", what);
            for q in 0..19 {
                prop_assert!(
                    got.src().comp(q) == want.src().comp(q),
                    "{} diverged in distribution {}",
                    what,
                    q
                );
            }
        }
    }
    Ok(())
}
