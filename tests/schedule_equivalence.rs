//! Every temporal-blocking schedule — the paper's 3.5-D lag schedule,
//! the shared-cache wavefront and the wavefront-diamond — on pinned
//! non-divisible cases at every team size, and through the
//! graceful-degradation ladder. (`tests/conformance.rs` samples each
//! schedule on every kernel, shape and tiling.)

mod common;

use common::{check_lbm, check_stencil, on_every_team, Case};
use threefive::lbm::scenarios;
use threefive::prelude::*;

#[test]
fn every_schedule_matches_the_stencil_reference() {
    let case = Case::pinned(Dim3::new(13, 11, 9), (5, 7), 3, 5);
    on_every_team(|team| check_stencil(&SevenPoint::<f32>::new(0.3, 0.1), &case, team));
}

/// Higher radii R = 2, 3: the schedules' lag/ring formulas differ the
/// most here, so a wrong formula shows up as a bit divergence.
#[test]
fn every_schedule_matches_the_star_reference_at_higher_radius() {
    let case = Case::pinned(Dim3::cube(11), (6, 5), 2, 3);
    for r in [2, 3] {
        on_every_team(|team| check_stencil(&GenericStar::<f32>::smoothing(r), &case, team));
    }
}

#[test]
fn every_schedule_matches_the_lbm_reference() {
    let dim = Dim3::new(9, 7, 6);
    let case = Case::pinned(dim, (4, 5), 3, 4);
    let build = || scenarios::lid_driven_cavity(dim, 1.25, 0.05);
    on_every_team(|team| check_lbm(&build, &case, team));
}

fn seeded_grid(dim: Dim3, seed: u64) -> Grid3<f32> {
    Grid3::from_fn(dim, |x, y, z| {
        let h = x
            .wrapping_mul(0x9E37)
            .wrapping_add(y.wrapping_mul(0x79B9))
            .wrapping_add(z.wrapping_mul(0x85EB))
            .wrapping_add(seed as usize);
        ((h % 97) as f32) * 0.02 - 1.0
    })
}

/// A tuned plan carrying a non-default schedule executes through the
/// graceful-degradation ladder bit-identically — the path `run`/`serve`
/// take when `TUNE.json` persists a wavefront or diamond winner.
#[test]
fn run_plan_executes_every_schedule_bit_identically() {
    let dim = Dim3::cube(12);
    let kernel = SevenPoint::<f32>::heat(0.125);
    let init = seeded_grid(dim, 7);
    let mut want = DoubleGrid::from_initial(init.clone());
    reference_sweep(&kernel, &mut want, 4);

    let plan = plan_35d_forced(0.5, 2, 4 << 20, 4, 1).expect("plan fits");
    for schedule in ScheduleKind::ALL {
        let opts = RunOptions {
            threads: 2,
            log: false,
            schedule,
            ..RunOptions::default()
        };
        let mut got = DoubleGrid::from_initial(init.clone());
        let report = run_plan(&kernel, &mut got, 4, Ok(plan), &opts).expect("ladder serves");
        assert_eq!(report.downgrades.len(), 0, "schedule {schedule} downgraded");
        assert_eq!(
            got.src().as_slice(),
            want.src().as_slice(),
            "schedule {schedule} diverged through the ladder"
        );
    }
}
