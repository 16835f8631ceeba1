//! Degradation-ladder equivalence: wherever a failure lands — whichever
//! rung, whichever pass, before or after the driver has swapped the input
//! buffer out of the pair — `run_plan` / `run_lbm_plan` must end in one of
//! two states: `Ok` with a result bit-identical to the scalar reference,
//! or `Err` with the source bit-identical to the input. Either way the
//! pair must still serve a healthy follow-up job bit-identically.
//!
//! The stencil property corrupts random kernel invocations
//! ([`CorruptingKernel`]: every rung calls the kernel, and each rung
//! makes a fixed number of calls per pass, so a random index within a
//! rung's range is a random pass of that rung); the LBM property aims the process-global fault harness
//! at a random tile of a random pass with [`inject_nth`]. Sweeps of one
//! test could claim the fault armed by the other, so both serialize.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use proptest::prelude::*;
use threefive::core::faults::{self, CorruptingKernel, Corruption, FaultKind, FaultPlan};
use threefive::core::verify::verification_grid;
use threefive::lbm::scenarios;
use threefive::prelude::*;

static HARNESS: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    HARNESS.lock().unwrap_or_else(|e| e.into_inner())
}

fn plan(tile: usize, dim_t: usize) -> Result<Plan35D, PlanError> {
    Ok(Plan35D {
        radius: 1,
        dim_t,
        dim_xy: tile,
        kappa: 1.5,
        buffer_bytes: 0,
        effective_gamma: 0.1,
    })
}

fn opts(threads: usize, schedule: ScheduleKind) -> RunOptions {
    RunOptions {
        threads,
        deadline: Some(Duration::from_secs(5)),
        verify_finite: true,
        log: false,
        schedule,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stencil_ladder_ends_in_the_reference_or_the_input(
        nx in 5usize..16,
        ny in 5usize..16,
        nz in 5usize..12,
        tile in 2usize..11,
        dim_t in 1usize..4,
        steps in 0usize..9,
        threads in 1usize..4,
        schedule_pick in 0usize..3,
        depth in 0usize..5,
        picks in prop::array::uniform4(0u32..1_000_000),
        seed in 0u64..1000,
    ) {
        let _h = serial();
        let dim = Dim3::new(nx, ny, nz);
        let kernel = SevenPoint::<f32>::new(0.3, 0.1);
        let init: Grid3<f32> = verification_grid(dim, seed);
        let reference = |n: usize| {
            let mut g = DoubleGrid::from_initial(init.clone());
            reference_sweep(&kernel, &mut g, n);
            g.src().clone()
        };
        let opts = opts(threads, ScheduleKind::ALL[schedule_pick]);

        // Invocations each rung makes when it runs to completion, from
        // three counted jobs: parallel fails / serial serves (two 3.5-D
        // rungs), planner rejection served by 2.5-D, and planner
        // rejection with a failing 2.5-D served by the reference.
        let count = |plan: Result<Plan35D, PlanError>, fail_at: &[(usize, Corruption)]| {
            let k = CorruptingKernel::new(kernel, fail_at);
            let mut g = DoubleGrid::from_initial(init.clone());
            let _ = run_plan(&k, &mut g, steps, plan, &opts);
            k.calls()
        };
        let rejected = Err(PlanError::AlreadyComputeBound { gamma: 0.2, big_gamma: 0.3 });
        let first_call = [(0, Corruption::Nan)];
        let per_35d = count(plan(tile, dim_t), &first_call) / 2;
        let per_25d = count(rejected, &[]);
        let per_ref = count(rejected, &first_call) - per_25d;
        // The first `depth` rungs each fail at a random invocation of
        // their own, i.e. in a random pass.
        let mut base = 0;
        let mut fail_at: Vec<(usize, Corruption)> = Vec::new();
        for (len, pick) in [per_35d, per_35d, per_25d, per_ref].into_iter().zip(picks) {
            if fail_at.len() < depth && len > 0 {
                fail_at.push((base + pick as usize % len, Corruption::Nan));
            }
            base += len;
        }

        let faulty = CorruptingKernel::new(kernel, &fail_at);
        let mut g = DoubleGrid::from_initial(init.clone());
        let served = match run_plan(&faulty, &mut g, steps, plan(tile, dim_t), &opts) {
            Ok(_) => steps,
            Err(e) => {
                prop_assert!(matches!(e, ExecError::NonFinite { .. }), "{e:?}");
                0
            }
        };
        let want = reference(served);
        prop_assert_eq!(
            g.src().as_slice(),
            want.as_slice(),
            "after failures at {:?}",
            &fail_at
        );

        let again = run_plan(&kernel, &mut g, steps, plan(tile, dim_t), &opts)
            .expect("healthy follow-up job");
        prop_assert!(again.downgrades.is_empty());
        let want = reference(served + steps);
        prop_assert_eq!(
            g.src().as_slice(),
            want.as_slice(),
            "follow-up job after failures at {:?}",
            &fail_at
        );
    }

    #[test]
    fn lbm_ladder_survives_a_fault_in_a_random_tile_and_pass(
        n in 6usize..12,
        tile in 3usize..9,
        dim_t in 1usize..4,
        steps in 1usize..8,
        threads in 1usize..4,
        schedule_pick in 0usize..3,
        lid in 0u8..2,
        tid_pick in 0usize..3,
        step_pick in 0usize..3,
        nth_pick in 0usize..10_000,
    ) {
        let _h = serial();
        let dim = Dim3::cube(n);
        let build = || -> Lattice<f32> {
            if lid == 0 {
                scenarios::closed_box(dim, 1.25)
            } else {
                scenarios::lid_driven_cavity(dim, 1.25, 0.05)
            }
        };
        let reference = |steps: usize| {
            let mut want = build();
            lbm_naive_sweep(&mut want, steps, LbmMode::Scalar, None);
            want
        };
        let schedule = ScheduleKind::ALL[schedule_pick];
        let blocking = LbmBlocking::new(tile, tile, dim_t).with_schedule(schedule);
        let opts = opts(threads, schedule);
        // Every tile commits under the face-extended policy: one match
        // per tile per pass.
        let matches = n.div_ceil(tile).pow(2) * steps.div_ceil(dim_t);

        let mut lat = build();
        let report = {
            let fault = faults::inject_nth(
                FaultPlan {
                    tid: tid_pick % threads,
                    step: step_pick,
                    kind: FaultKind::Panic,
                },
                nth_pick % matches,
            );
            let r = run_lbm_plan(&mut lat, steps, blocking, &opts, &Observer::disabled())
                .expect("the serial rung serves");
            prop_assert!(fault.fired());
            r
        };
        prop_assert_eq!(report.rung, LbmRung::Serial35D);
        let want = reference(steps);
        for q in 0..19 {
            prop_assert_eq!(want.src().comp(q), lat.src().comp(q), "component {}", q);
        }

        let again = run_lbm_plan(&mut lat, steps, blocking, &opts, &Observer::disabled())
            .expect("healthy follow-up job");
        prop_assert!(again.downgrades.is_empty());
        let want = reference(2 * steps);
        for q in 0..19 {
            prop_assert_eq!(want.src().comp(q), lat.src().comp(q), "follow-up component {}", q);
        }
    }
}
