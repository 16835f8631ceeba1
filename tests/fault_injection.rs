//! End-to-end fault-tolerance suite: injected worker panics, stalls, and
//! numerical corruption must surface as typed errors in bounded time —
//! never as hangs — and the executors must stay usable afterwards.
//!
//! The fault harness ([`threefive::core::faults`]) is process-global, so
//! every test in this binary serializes through one mutex; the injected
//! fault of one test must not be claimed by the sweep of another.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use threefive::core::exec::{reference_sweep, try_parallel35d_sweep, Blocking35};
use threefive::core::faults::{self, FaultKind, FaultPlan};
use threefive::core::verify::verification_grid;
use threefive::core::{ExecError, PlanError, SevenPoint};
use threefive::grid::{Dim3, DoubleGrid};
use threefive::sync::{Observer, SyncError, ThreadTeam};
use threefive::{run_plan, RunOptions, Rung};

static HARNESS: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A poisoned mutex just means an earlier test failed; the harness
    // state itself is disarmed by FaultGuard's drop during that unwind.
    HARNESS.lock().unwrap_or_else(|e| e.into_inner())
}

fn problem(n: usize) -> DoubleGrid<f32> {
    DoubleGrid::from_initial(verification_grid(Dim3::cube(n), 42))
}

fn reference_result(n: usize, steps: usize) -> DoubleGrid<f32> {
    let k = SevenPoint::new(0.3f32, 0.1);
    let mut g = problem(n);
    reference_sweep(&k, &mut g, steps);
    g
}

/// An injected worker panic must surface as `Err(TeamPanicked)` — with no
/// deadlock — and the same team must produce bit-exact results right after.
#[test]
fn injected_panic_surfaces_as_error_and_team_recovers() {
    let _h = serial();
    let k = SevenPoint::new(0.3f32, 0.1);
    let team = ThreadTeam::new(4);
    let b = Blocking35::new(6, 6, 2);

    let t0 = Instant::now();
    let err = {
        let _fault = faults::inject(FaultPlan {
            tid: 1,
            step: 2,
            kind: FaultKind::Panic,
        });
        let mut g = problem(12);
        try_parallel35d_sweep(
            &k,
            &mut g,
            4,
            b,
            &team,
            Some(Duration::from_secs(5)),
            &Observer::disabled(),
        )
        .unwrap_err()
    };
    assert!(
        matches!(err, ExecError::Sync(SyncError::TeamPanicked { .. })),
        "wrong error: {err:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "panic must drain well within the watchdog deadline"
    );

    // Same team, fault disarmed: bit-exact results.
    let mut g = problem(12);
    try_parallel35d_sweep(
        &k,
        &mut g,
        4,
        b,
        &team,
        Some(Duration::from_secs(5)),
        &Observer::disabled(),
    )
    .unwrap();
    assert_eq!(g.src().as_slice(), reference_result(12, 4).src().as_slice());
}

/// A stalled worker must trip the barrier watchdog: healthy members drain
/// with `BarrierTimeout` instead of spinning forever, and once the
/// straggler's sleep ends the team is reusable.
#[test]
fn injected_stall_trips_watchdog_without_hanging() {
    let _h = serial();
    let k = SevenPoint::new(0.3f32, 0.1);
    let team = ThreadTeam::new(3);
    let b = Blocking35::new(6, 6, 2);

    let t0 = Instant::now();
    let err = {
        let _fault = faults::inject(FaultPlan {
            tid: 2,
            step: 1,
            kind: FaultKind::Stall(Duration::from_millis(400)),
        });
        let mut g = problem(12);
        try_parallel35d_sweep(
            &k,
            &mut g,
            4,
            b,
            &team,
            Some(Duration::from_millis(50)),
            &Observer::disabled(),
        )
        .unwrap_err()
    };
    assert!(
        matches!(
            err,
            ExecError::Sync(SyncError::BarrierTimeout { .. } | SyncError::BarrierPoisoned)
        ),
        "wrong error: {err:?}"
    );
    // Bounded by the stall length (the borrowed closure must drain), far
    // under "forever".
    assert!(t0.elapsed() < Duration::from_secs(10), "no deadlock");

    let mut g = problem(12);
    try_parallel35d_sweep(
        &k,
        &mut g,
        4,
        b,
        &team,
        Some(Duration::from_secs(5)),
        &Observer::disabled(),
    )
    .unwrap();
    assert_eq!(g.src().as_slice(), reference_result(12, 4).src().as_slice());
}

/// The caller (member 0) panicking is also caught and typed.
#[test]
fn injected_caller_panic_is_reported() {
    let _h = serial();
    let k = SevenPoint::new(0.3f32, 0.1);
    let team = ThreadTeam::new(2);
    let _fault = faults::inject(FaultPlan {
        tid: 0,
        step: 0,
        kind: FaultKind::Panic,
    });
    let mut g = problem(10);
    let err = try_parallel35d_sweep(
        &k,
        &mut g,
        2,
        Blocking35::new(5, 5, 2),
        &team,
        Some(Duration::from_secs(5)),
        &Observer::disabled(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        ExecError::Sync(SyncError::TeamPanicked { .. })
    ));
}

/// Non-finite input is rejected up front with the first offending
/// coordinate, before any executor runs.
#[test]
fn nan_input_is_rejected_with_coordinates() {
    let _h = serial();
    let k = SevenPoint::new(0.3f32, 0.1);
    let mut g = problem(10);
    let initial = g.src().clone();
    {
        let (src_dirty, _) = {
            // Corrupt one plane of the source grid.
            let mut corrupted = initial.clone();
            faults::corrupt_plane(&mut corrupted, 3);
            (corrupted, ())
        };
        g = DoubleGrid::from_initial(src_dirty);
    }
    let machine = threefive::machine::core_i7();
    let traffic = threefive::machine::seven_point_traffic();
    let plan = threefive::core::plan_35d(
        traffic.gamma(threefive::machine::Precision::Sp),
        machine.big_gamma(threefive::machine::Precision::Sp),
        machine.fast_storage_bytes,
        4,
        1,
    );
    let opts = RunOptions {
        threads: 2,
        log: false,
        ..RunOptions::default()
    };
    let err = run_plan(&k, &mut g, 2, plan, &opts).unwrap_err();
    match err {
        ExecError::NonFinite { at, value } => {
            assert_eq!(at.2, 3, "first bad coordinate must be on plane z=3");
            assert!(value.is_nan());
        }
        other => panic!("wrong error: {other}"),
    }
}

/// Planner rejection walks the ladder to 2.5-D blocking, and the result is
/// bit-identical to the reference sweep.
#[test]
fn plan_rejection_falls_back_bit_identically() {
    let _h = serial();
    let k = SevenPoint::new(0.3f32, 0.1);
    let mut g = problem(12);
    let opts = RunOptions {
        threads: 2,
        log: false,
        ..RunOptions::default()
    };
    let report = run_plan(
        &k,
        &mut g,
        3,
        Err(PlanError::AlreadyComputeBound {
            gamma: 0.2,
            big_gamma: 0.3,
        }),
        &opts,
    )
    .unwrap();
    assert_eq!(report.rung, Rung::Blocked25D);
    assert_eq!(report.downgrades.len(), 2, "both 3.5-D rungs skipped");
    assert_eq!(g.src().as_slice(), reference_result(12, 3).src().as_slice());
}

/// A fault during the parallel rung downgrades to the serial rung; the
/// rollback keeps the final grid bit-identical to the reference.
#[test]
fn runtime_fault_downgrades_and_stays_bit_identical() {
    let _h = serial();
    let k = SevenPoint::new(0.3f32, 0.1);
    let mut g = problem(12);
    let plan = Ok(threefive::core::Plan35D {
        radius: 1,
        dim_t: 2,
        dim_xy: 6,
        kappa: 1.5,
        buffer_bytes: 0,
        effective_gamma: 0.1,
    });
    let opts = RunOptions {
        threads: 3,
        deadline: Some(Duration::from_secs(5)),
        verify_finite: true,
        log: false,
        ..RunOptions::default()
    };
    let report = {
        // tid 1 only exists on the parallel rung (serial teams have just
        // the caller), so exactly the first rung fails.
        let _fault = faults::inject(FaultPlan {
            tid: 1,
            step: 2,
            kind: FaultKind::Panic,
        });
        run_plan(&k, &mut g, 3, plan, &opts).unwrap()
    };
    assert_eq!(report.rung, Rung::Serial35D, "one downgrade taken");
    assert_eq!(report.downgrades.len(), 1);
    assert_eq!(report.downgrades[0].from, Rung::Parallel35D);
    assert!(matches!(
        report.downgrades[0].reason,
        ExecError::Sync(SyncError::TeamPanicked { .. })
    ));
    assert_eq!(g.src().as_slice(), reference_result(12, 3).src().as_slice());
}

/// Healthy path: the first rung serves the request, no downgrades, still
/// bit-identical.
#[test]
fn healthy_run_uses_parallel_rung() {
    let _h = serial();
    let k = SevenPoint::new(0.3f32, 0.1);
    let mut g = problem(12);
    let plan = Ok(threefive::core::Plan35D {
        radius: 1,
        dim_t: 2,
        dim_xy: 6,
        kappa: 1.5,
        buffer_bytes: 0,
        effective_gamma: 0.1,
    });
    let opts = RunOptions {
        threads: 4,
        log: false,
        ..RunOptions::default()
    };
    let report = run_plan(&k, &mut g, 4, plan, &opts).unwrap();
    assert_eq!(report.rung, Rung::Parallel35D);
    assert!(report.downgrades.is_empty());
    assert_eq!(g.src().as_slice(), reference_result(12, 4).src().as_slice());
}

/// `solve_steady`'s typed variant: zero check interval is an error, not a
/// panic, and an injected fault surfaces through it too.
#[test]
fn try_solve_steady_propagates_typed_errors() {
    let _h = serial();
    let k = SevenPoint::<f32>::heat(1.0 / 6.0);
    let mut g = problem(10);
    let err = threefive::core::try_solve_steady(
        &k,
        &mut g,
        Blocking35::new(10, 10, 2),
        None,
        1e-6,
        100,
        0,
        None,
    )
    .unwrap_err();
    assert_eq!(err, ExecError::ZeroCheckInterval);

    let team = ThreadTeam::new(3);
    let _fault = faults::inject(FaultPlan {
        tid: 2,
        step: 1,
        kind: FaultKind::Panic,
    });
    let err = threefive::core::try_solve_steady(
        &k,
        &mut g,
        Blocking35::new(10, 10, 2),
        Some(&team),
        1e-6,
        100,
        10,
        Some(Duration::from_secs(5)),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        ExecError::Sync(SyncError::TeamPanicked { .. })
    ));
}

fn lbm_problem(n: usize) -> threefive::lbm::Lattice<f32> {
    threefive::lbm::scenarios::lid_driven_cavity(Dim3::cube(n), 1.15, 0.06)
}

fn lbm_reference(n: usize, steps: usize) -> threefive::lbm::Lattice<f32> {
    use threefive::lbm::{lbm_naive_sweep, LbmMode};
    let mut lat = lbm_problem(n);
    lbm_naive_sweep(&mut lat, steps, LbmMode::Simd, None);
    lat
}

fn assert_lbm_equal(a: &threefive::lbm::Lattice<f32>, b: &threefive::lbm::Lattice<f32>) {
    for q in 0..threefive::lbm::model::Q {
        assert_eq!(a.src().comp(q), b.src().comp(q), "distribution comp {q}");
    }
}

/// The LBM pipeline runs on the same engine, so the same injected panic
/// must surface as a typed error — and the team must recover.
#[test]
fn lbm_injected_panic_surfaces_as_typed_error() {
    use threefive::lbm::{try_lbm35d_sweep, LbmBlocking, LbmError};
    let _h = serial();
    let team = ThreadTeam::new(3);
    let b = LbmBlocking::new(6, 6, 2);
    let err = {
        let _fault = faults::inject(FaultPlan {
            tid: 1,
            step: 2,
            kind: FaultKind::Panic,
        });
        let mut lat = lbm_problem(12);
        try_lbm35d_sweep(
            &mut lat,
            4,
            b,
            Some(&team),
            Some(Duration::from_secs(5)),
            &Observer::disabled(),
        )
        .unwrap_err()
    };
    assert!(
        matches!(err, LbmError::Sync(SyncError::TeamPanicked { .. })),
        "wrong error: {err:?}"
    );
    // Same team, fault disarmed: bit-exact results.
    let mut lat = lbm_problem(12);
    try_lbm35d_sweep(
        &mut lat,
        4,
        b,
        Some(&team),
        Some(Duration::from_secs(5)),
        &Observer::disabled(),
    )
    .unwrap();
    assert_lbm_equal(&lat, &lbm_reference(12, 4));
}

/// A stalled LBM worker trips the same barrier watchdog in bounded time.
#[test]
fn lbm_injected_stall_trips_watchdog_without_hanging() {
    use threefive::lbm::{try_lbm35d_sweep, LbmBlocking, LbmError};
    let _h = serial();
    let team = ThreadTeam::new(3);
    let t0 = Instant::now();
    let err = {
        let _fault = faults::inject(FaultPlan {
            tid: 2,
            step: 1,
            kind: FaultKind::Stall(Duration::from_millis(400)),
        });
        let mut lat = lbm_problem(12);
        try_lbm35d_sweep(
            &mut lat,
            4,
            LbmBlocking::new(6, 6, 2),
            Some(&team),
            Some(Duration::from_millis(50)),
            &Observer::disabled(),
        )
        .unwrap_err()
    };
    assert!(
        matches!(
            err,
            LbmError::Sync(SyncError::BarrierTimeout { .. } | SyncError::BarrierPoisoned)
        ),
        "wrong error: {err:?}"
    );
    assert!(t0.elapsed() < Duration::from_secs(10), "no deadlock");
}

/// A fault during the parallel LBM rung downgrades to the serial rung with
/// a bit-identical rollback — the lattice counterpart of
/// `runtime_fault_downgrades_and_stays_bit_identical`.
#[test]
fn lbm_runtime_fault_downgrades_and_stays_bit_identical() {
    use threefive::lbm::{LbmBlocking, LbmError};
    use threefive::{run_lbm_plan, LbmRung};
    let _h = serial();
    let mut lat = lbm_problem(12);
    let opts = RunOptions {
        threads: 3,
        deadline: Some(Duration::from_secs(5)),
        verify_finite: true,
        log: false,
        ..RunOptions::default()
    };
    let report = {
        // tid 1 only exists on the parallel rung (serial teams have just
        // the caller), so exactly the first rung fails.
        let _fault = faults::inject(FaultPlan {
            tid: 1,
            step: 2,
            kind: FaultKind::Panic,
        });
        run_lbm_plan(
            &mut lat,
            3,
            LbmBlocking::new(6, 6, 2),
            &opts,
            &Observer::disabled(),
        )
        .unwrap()
    };
    assert_eq!(report.rung, LbmRung::Serial35D, "one downgrade taken");
    assert_eq!(report.downgrades.len(), 1);
    assert_eq!(report.downgrades[0].from, LbmRung::Parallel35D);
    assert!(matches!(
        report.downgrades[0].reason,
        LbmError::Sync(SyncError::TeamPanicked { .. })
    ));
    assert_lbm_equal(&lat, &lbm_reference(12, 3));
}

/// Healthy LBM path: the parallel rung serves, no downgrades, bit-exact.
#[test]
fn lbm_healthy_run_uses_parallel_rung() {
    use threefive::lbm::LbmBlocking;
    use threefive::{run_lbm_plan, LbmRung};
    let _h = serial();
    let mut lat = lbm_problem(12);
    let opts = RunOptions {
        threads: 3,
        log: false,
        ..RunOptions::default()
    };
    let report = run_lbm_plan(
        &mut lat,
        4,
        LbmBlocking::new(6, 6, 2),
        &opts,
        &Observer::disabled(),
    )
    .unwrap();
    assert_eq!(report.rung, LbmRung::Parallel35D);
    assert!(report.downgrades.is_empty());
    assert_lbm_equal(&lat, &lbm_reference(12, 4));
}

// ---------------------------------------------------------------------
// Ladder state machine: keep the input, swap it out before pass 2, put
// it back on failure. Faults are aimed at pass 1 and at the last pass of
// every rung; whichever rung serves, the result must be bit-identical to
// the scalar reference, and a follow-up healthy job on the same pair
// must be too (the destination buffer's rim survived the rollback).
// ---------------------------------------------------------------------

mod ladder {
    use super::*;
    use threefive::core::exec::{blocked25d_sweep, blocked35d_sweep, ScheduleKind};
    use threefive::core::faults::{CorruptingKernel, Corruption};
    use threefive::core::Plan35D;
    use threefive::grid::Grid3;
    use threefive::RunReport;

    /// 13 and 11 are not multiples of the tile edge: ragged last tiles,
    /// and the last Y tile owns only rim rows (commits nothing).
    pub const DIM: Dim3 = Dim3::new(13, 11, 9);
    pub const TILE: usize = 5;

    pub type Faulty = CorruptingKernel<SevenPoint<f32>>;

    pub fn kernel() -> SevenPoint<f32> {
        SevenPoint::new(0.3, 0.1)
    }

    pub fn faulty(fail_at: &[(usize, Corruption)]) -> Faulty {
        CorruptingKernel::new(kernel(), fail_at)
    }

    pub fn input() -> Grid3<f32> {
        verification_grid(DIM, 7)
    }

    pub fn reference(steps: usize) -> Grid3<f32> {
        let mut g = DoubleGrid::from_initial(input());
        reference_sweep(&kernel(), &mut g, steps);
        g.src().clone()
    }

    pub fn plan(dim_t: usize) -> Result<Plan35D, PlanError> {
        Ok(Plan35D {
            radius: 1,
            dim_t,
            dim_xy: TILE,
            kappa: 1.5,
            buffer_bytes: 0,
            effective_gamma: 0.1,
        })
    }

    pub const REJECTED: Result<Plan35D, PlanError> = Err(PlanError::AlreadyComputeBound {
        gamma: 0.2,
        big_gamma: 0.3,
    });

    pub fn opts(threads: usize, schedule: ScheduleKind) -> RunOptions {
        RunOptions {
            threads,
            deadline: Some(Duration::from_secs(5)),
            verify_finite: true,
            log: false,
            schedule,
        }
    }

    /// The step counts the issue names, for one `dim_T`.
    pub fn step_counts(dim_t: usize) -> Vec<usize> {
        let mut v = vec![0, 1, dim_t - 1, dim_t, dim_t + 1, 3 * dim_t + 1];
        v.sort_unstable();
        v.dedup();
        v
    }

    pub fn passes(steps: usize, dim_t: usize) -> usize {
        steps.div_ceil(dim_t)
    }

    /// Tiles of the 3.5-D rungs that commit anything: one fault-point
    /// match per such tile per pass.
    pub fn committing_tiles() -> usize {
        let along = |n: usize| {
            (0..n)
                .step_by(TILE)
                .filter(|&o| o.max(1) < (o + TILE).min(n - 1))
                .count()
        };
        along(DIM.nx) * along(DIM.ny)
    }

    /// Kernel invocations one healthy sweep makes.
    pub fn invocations(sweep: impl FnOnce(&Faulty, &mut DoubleGrid<f32>)) -> usize {
        let k = faulty(&[]);
        sweep(&k, &mut DoubleGrid::from_initial(input()));
        k.calls()
    }

    /// Invocations of a whole 3.5-D rung (the same for every team size).
    pub fn calls_35d(steps: usize, dim_t: usize) -> usize {
        invocations(|k, g| {
            blocked35d_sweep(k, g, steps, Blocking35::new(TILE, TILE, dim_t));
        })
    }

    pub fn calls_25d(steps: usize) -> usize {
        invocations(|k, g| {
            blocked25d_sweep(k, g, steps, DIM.nx, DIM.ny);
        })
    }

    pub fn calls_reference(steps: usize) -> usize {
        invocations(|k, g| {
            reference_sweep(k, g, steps);
        })
    }

    /// Asserts the job's outcome, then runs a healthy follow-up job of the
    /// same length on the same pair and asserts that too.
    pub fn check_served(
        what: &str,
        g: &mut DoubleGrid<f32>,
        report: &RunReport,
        rung: Rung,
        steps: usize,
        follow_up: (Result<Plan35D, PlanError>, &RunOptions),
    ) {
        assert_eq!(report.rung, rung, "{what}: serving rung");
        assert_eq!(
            report.downgrades.len() as u32,
            rung.ladder_index(),
            "{what}: one downgrade per rung above the serving one"
        );
        assert_eq!(
            g.src().as_slice(),
            reference(steps).as_slice(),
            "{what}: result differs from the scalar reference"
        );
        let again = run_plan(&kernel(), g, steps, follow_up.0, follow_up.1).unwrap();
        assert!(again.downgrades.is_empty() || follow_up.0.is_err());
        assert_eq!(
            g.src().as_slice(),
            reference(2 * steps).as_slice(),
            "{what}: follow-up job on the same pair differs from the reference"
        );
    }
}

/// Parallel and serial 3.5-D rungs × pass 1 / last pass × three schedules
/// × team sizes 1–3 × every step count around `dim_T`.
#[test]
fn ladder_survives_faults_in_any_pass_of_the_35d_rungs() {
    use ladder::*;
    use threefive::core::exec::ScheduleKind;
    use threefive::core::faults::Corruption;
    let _h = serial();
    let tiles = committing_tiles();
    assert_eq!(tiles, 6);
    for dim_t in [2usize, 3] {
        for steps in step_counts(dim_t) {
            let n_pass = passes(steps, dim_t);
            for schedule in ScheduleKind::ALL {
                for threads in 1..=3usize {
                    let opts = opts(threads, schedule);
                    let panic_on = |tid| FaultPlan {
                        tid,
                        step: 1,
                        kind: FaultKind::Panic,
                    };
                    if steps == 0 {
                        // Nothing runs, so an armed fault must not fire
                        // and the pair must come back untouched.
                        let fault = faults::inject(panic_on(0));
                        let mut g = DoubleGrid::from_initial(input());
                        let report = run_plan(&kernel(), &mut g, 0, plan(dim_t), &opts).unwrap();
                        assert!(!fault.fired());
                        assert_eq!(report.rung, Rung::Parallel35D);
                        assert_eq!(g.src().as_slice(), input().as_slice());
                        continue;
                    }
                    // First and last pass; the same pass when there is
                    // only one.
                    let mut aimed = vec![0, n_pass - 1];
                    aimed.dedup();
                    for pass in aimed {
                        let what = format!(
                            "dimT={dim_t} steps={steps} {schedule} threads={threads} pass={pass}"
                        );

                        // Parallel rung dies in `pass`; serial serves.
                        let mut g = DoubleGrid::from_initial(input());
                        let report = {
                            let fault = faults::inject_nth(panic_on(threads - 1), tiles * pass);
                            let r = run_plan(&kernel(), &mut g, steps, plan(dim_t), &opts).unwrap();
                            assert!(fault.fired(), "{what}: fault never fired");
                            r
                        };
                        check_served(
                            &format!("parallel rung, {what}"),
                            &mut g,
                            &report,
                            Rung::Serial35D,
                            steps,
                            (plan(dim_t), &opts),
                        );

                        // Parallel rung completes with a corrupted result
                        // (all its fault-point matches pass first), then
                        // the serial rung dies in `pass`; 2.5-D serves.
                        let k = faulty(&[(0, Corruption::Nan)]);
                        let mut g = DoubleGrid::from_initial(input());
                        let report = {
                            let fault = faults::inject_nth(panic_on(0), tiles * (n_pass + pass));
                            let r = run_plan(&k, &mut g, steps, plan(dim_t), &opts).unwrap();
                            assert!(fault.fired(), "{what}: fault never fired");
                            r
                        };
                        assert!(matches!(
                            report.downgrades[0].reason,
                            ExecError::NonFinite { .. }
                        ));
                        check_served(
                            &format!("serial rung, {what}"),
                            &mut g,
                            &report,
                            Rung::Blocked25D,
                            steps,
                            (plan(dim_t), &opts),
                        );
                    }
                }
            }
        }
    }
}

/// 2.5-D and reference rungs × pass 1 / last pass, by corruption and by
/// panic; a reference-rung failure is total and must hand the input back.
#[test]
fn ladder_survives_faults_in_any_pass_of_the_teamless_rungs() {
    use ladder::*;
    use threefive::core::exec::ScheduleKind;
    use threefive::core::faults::Corruption;
    let _h = serial();
    let opts = opts(2, ScheduleKind::Lag35d);
    let (per_25d, per_ref) = (calls_25d(1), calls_reference(1));
    for steps in [1usize, 2, 3, 7] {
        let mut aimed = vec![0, steps - 1];
        aimed.dedup();
        for pass in aimed {
            for how in [Corruption::Nan, Corruption::Panic] {
                let what = format!("steps={steps} pass={pass} {how:?}");

                // Planner rejection starts the ladder at 2.5-D, which
                // fails in `pass`; the reference serves.
                let k = faulty(&[(pass * per_25d + per_25d / 2, how)]);
                let mut g = DoubleGrid::from_initial(input());
                let report = run_plan(&k, &mut g, steps, REJECTED, &opts).unwrap();
                check_served(
                    &format!("2.5-D rung, {what}"),
                    &mut g,
                    &report,
                    Rung::Reference,
                    steps,
                    (REJECTED, &opts),
                );
            }

            // Every rung fails, the reference in `pass`: a typed error,
            // the source is the input again, and the pair still works.
            let after_25d = steps * per_25d;
            let k = faulty(&[
                (0, Corruption::Nan),
                (after_25d + pass * per_ref + per_ref / 2, Corruption::Nan),
            ]);
            let mut g = DoubleGrid::from_initial(input());
            let err = run_plan(&k, &mut g, steps, REJECTED, &opts).unwrap_err();
            assert!(matches!(err, ExecError::NonFinite { .. }), "{err:?}");
            assert_eq!(
                g.src().as_slice(),
                input().as_slice(),
                "steps={steps} pass={pass}"
            );
            run_plan(&kernel(), &mut g, steps, plan(2), &opts).unwrap();
            assert_eq!(g.src().as_slice(), reference(steps).as_slice());
        }
    }

    // The whole ladder in one job: both 3.5-D rungs and the 2.5-D rung
    // return corrupted results (the last one from its last pass); the
    // reference serves after three rollbacks.
    for (steps, dim_t) in [(1usize, 2usize), (2, 2), (5, 2), (10, 3)] {
        let whole_35d = calls_35d(steps, dim_t);
        let k = faulty(&[
            (0, Corruption::Nan),
            (whole_35d, Corruption::Nan),
            (2 * whole_35d + (steps - 1) * per_25d, Corruption::Nan),
        ]);
        let mut g = DoubleGrid::from_initial(input());
        let report = run_plan(&k, &mut g, steps, plan(dim_t), &opts).unwrap();
        check_served(
            &format!("whole ladder, steps={steps} dimT={dim_t}"),
            &mut g,
            &report,
            Rung::Reference,
            steps,
            (plan(dim_t), &opts),
        );
    }
}

/// A stall aimed at the second pass — after the input has been swapped
/// out of the pair — trips the watchdog and rolls back just the same.
#[test]
fn stall_in_the_second_pass_rolls_back_bit_identically() {
    use ladder::*;
    use threefive::core::exec::ScheduleKind;
    let _h = serial();
    let opts = RunOptions {
        deadline: Some(Duration::from_millis(50)),
        ..opts(3, ScheduleKind::Lag35d)
    };
    let mut g = DoubleGrid::from_initial(input());
    let report = {
        let fault = faults::inject_nth(
            FaultPlan {
                tid: 2,
                step: 1,
                kind: FaultKind::Stall(Duration::from_millis(400)),
            },
            committing_tiles(),
        );
        let r = run_plan(&kernel(), &mut g, 5, plan(2), &opts).unwrap();
        assert!(fault.fired());
        r
    };
    assert!(matches!(
        report.downgrades[0].reason,
        ExecError::Sync(SyncError::BarrierTimeout { .. } | SyncError::BarrierPoisoned)
    ));
    check_served(
        "stall",
        &mut g,
        &report,
        Rung::Serial35D,
        5,
        (plan(2), &opts),
    );
}

/// A pair whose two buffers carry different rims keeps the executors'
/// own parity behaviour: the job equals the serving rung's raw sweep on
/// the same pair — after a rollback too, because the rollback returns
/// the original destination buffer, not a stand-in.
#[test]
fn differing_rims_follow_the_raw_sweeps_parity() {
    use ladder::*;
    use threefive::core::exec::{blocked25d_sweep, blocked35d_sweep, ScheduleKind};
    let _h = serial();
    let pair = || {
        let mut g = DoubleGrid::<f32>::zeros(DIM);
        g.dst_mut().copy_from(&verification_grid(DIM, 99));
        g.swap();
        g.dst_mut().copy_from(&input());
        g.swap();
        g
    };
    let opts = opts(2, ScheduleKind::Lag35d);
    let b = Blocking35::new(TILE, TILE, 2);
    // 5 steps fail in pass 3, when the third buffer is the source; 7 in
    // pass 4, when it is the destination.
    for steps in [1usize, 2, 3, 4, 5, 7] {
        let mut raw = pair();
        blocked35d_sweep(&kernel(), &mut raw, steps, b);

        let mut healthy = pair();
        let report = run_plan(&kernel(), &mut healthy, steps, plan(2), &opts).unwrap();
        assert_eq!(report.rung, Rung::Parallel35D);
        assert_eq!(
            healthy.src().as_slice(),
            raw.src().as_slice(),
            "steps={steps}"
        );

        // The parallel rung fails in its last pass; the serial rung must
        // start from the very same pair.
        let mut downgraded = pair();
        let report = {
            let _fault = faults::inject_nth(
                FaultPlan {
                    tid: 1,
                    step: 1,
                    kind: FaultKind::Panic,
                },
                committing_tiles() * (passes(steps, 2) - 1),
            );
            run_plan(&kernel(), &mut downgraded, steps, plan(2), &opts).unwrap()
        };
        assert_eq!(report.rung, Rung::Serial35D);
        assert_eq!(
            downgraded.src().as_slice(),
            raw.src().as_slice(),
            "steps={steps}"
        );

        let mut raw = pair();
        blocked25d_sweep(&kernel(), &mut raw, steps, DIM.nx, DIM.ny);
        let mut rejected = pair();
        run_plan(&kernel(), &mut rejected, steps, REJECTED, &opts).unwrap();
        assert_eq!(
            rejected.src().as_slice(),
            raw.src().as_slice(),
            "steps={steps}"
        );
    }
}

/// LBM ladder: the parallel rung fails in its first and in its last pass,
/// under every schedule and team size 1–3; the serial rung serves
/// bit-identically and the lattice stays usable.
#[test]
fn lbm_ladder_survives_faults_in_any_pass() {
    use threefive::core::exec::ScheduleKind;
    use threefive::lbm::LbmBlocking;
    use threefive::{run_lbm_plan, LbmRung};
    let _h = serial();
    // 8 is not a multiple of 3: ragged tiles; under the face-extended
    // policy every one of the 3 × 3 tiles commits.
    let (n, tile, tiles) = (8usize, 3usize, 9usize);
    for dim_t in [2usize, 3] {
        for steps in ladder::step_counts(dim_t) {
            let n_pass = ladder::passes(steps, dim_t);
            // The references depend on the step count alone.
            let (want, want_again) = (lbm_reference(n, steps), lbm_reference(n, 2 * steps));
            for schedule in ScheduleKind::ALL {
                let blocking = LbmBlocking::new(tile, tile, dim_t).with_schedule(schedule);
                for threads in 1..=3usize {
                    let opts = ladder::opts(threads, schedule);
                    let mut aimed = vec![0, n_pass.saturating_sub(1)];
                    aimed.dedup();
                    for pass in aimed {
                        let what = format!(
                            "dimT={dim_t} steps={steps} {schedule} threads={threads} pass={pass}"
                        );
                        let mut lat = lbm_problem(n);
                        let report = {
                            let fault = faults::inject_nth(
                                FaultPlan {
                                    tid: threads - 1,
                                    step: 1,
                                    kind: FaultKind::Panic,
                                },
                                tiles * pass,
                            );
                            let r = run_lbm_plan(
                                &mut lat,
                                steps,
                                blocking,
                                &opts,
                                &Observer::disabled(),
                            )
                            .unwrap();
                            assert_eq!(fault.fired(), steps > 0, "{what}");
                            r
                        };
                        let rung = match steps {
                            0 => LbmRung::Parallel35D,
                            _ => LbmRung::Serial35D,
                        };
                        assert_eq!(report.rung, rung, "{what}");
                        assert_lbm_equal(&lat, &want);
                        // Follow-up healthy job on the same lattice.
                        let again =
                            run_lbm_plan(&mut lat, steps, blocking, &opts, &Observer::disabled())
                                .unwrap();
                        assert!(again.downgrades.is_empty(), "{what}");
                        assert_lbm_equal(&lat, &want_again);
                    }
                }
            }
        }
    }
}

/// LBM lower rungs: invalid blocking fails both 3.5-D rungs before they
/// touch anything and the naive SIMD rung serves; an input that is finite
/// but overflows in the first collision fails all four rungs, and the
/// lattice must come back holding exactly that input.
#[test]
fn lbm_ladder_reaches_the_naive_rungs_and_total_failure() {
    use threefive::lbm::{LbmBlocking, LbmError};
    use threefive::{run_lbm_plan, LbmRung};
    let _h = serial();
    let opts = ladder::opts(2, threefive::core::exec::ScheduleKind::Lag35d);
    let zero_tile = LbmBlocking {
        dim_x: 0,
        ..LbmBlocking::new(4, 4, 2)
    };
    for steps in [1usize, 2, 5] {
        let mut lat = lbm_problem(10);
        let report =
            run_lbm_plan(&mut lat, steps, zero_tile, &opts, &Observer::disabled()).unwrap();
        assert_eq!(report.rung, LbmRung::NaiveSimd);
        assert_eq!(report.downgrades.len(), 2);
        assert_lbm_equal(&lat, &lbm_reference(10, steps));

        // Two saturated sites two apart: their common neighbour pulls one
        // f32::MAX population from each and its density overflows.
        let mut lat = lbm_problem(10);
        for x in [4usize, 6] {
            lat.set_site(x, 5, 5, &[f32::MAX; 19]);
        }
        let before: Vec<Vec<f32>> = (0..19).map(|q| lat.src().comp(q).to_vec()).collect();
        let err = run_lbm_plan(
            &mut lat,
            steps,
            LbmBlocking::new(4, 4, 2),
            &opts,
            &Observer::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, LbmError::NonFinite { .. }), "{err:?}");
        for (q, comp) in before.iter().enumerate() {
            assert_eq!(lat.src().comp(q), &comp[..], "steps={steps} comp {q}");
        }
    }
}
