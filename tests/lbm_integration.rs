//! Cross-crate LBM integration: executor equivalence on realistic
//! scenarios and physics sanity at the system level.

mod common;

use common::{check_lbm, Case};
use threefive::lbm::scenarios;
use threefive::prelude::*;

fn assert_equal<T: Real>(a: &Lattice<T>, b: &Lattice<T>, what: &str) {
    for q in 0..19 {
        assert_eq!(a.src().comp(q), b.src().comp(q), "{what} comp {q}");
    }
}

#[test]
fn all_lbm_executors_agree_on_cavity_flow() {
    let dim = Dim3::new(16, 12, 10);
    let build = || scenarios::lid_driven_cavity(dim, 1.15, 0.06);
    let case = Case::pinned(dim, (7, 5), 3, 4);
    check_lbm(&build, &case, &ThreadTeam::new(3)).unwrap();
}

#[test]
fn paper_plan_drives_lbm_executor() {
    // LBM SP plan (dimT = 3, tile 64) applied end to end on a smaller box.
    let plan = plan_35d(
        0.85,
        core_i7().big_gamma(Precision::Sp),
        core_i7().fast_storage_bytes,
        lbm_traffic().elem_bytes(Precision::Sp),
        1,
    )
    .unwrap();
    assert_eq!((plan.dim_t, plan.dim_xy), (3, 64));
    let dim = Dim3::cube(16);
    let mut want = scenarios::closed_box::<f32>(dim, 1.3);
    let mut got = scenarios::closed_box::<f32>(dim, 1.3);
    lbm_naive_sweep(&mut want, 6, LbmMode::Simd, None);
    lbm35d_sweep(
        &mut got,
        6,
        LbmBlocking::new(plan.dim_xy.min(16), plan.dim_xy.min(16), plan.dim_t),
        None,
    );
    assert_equal(&want, &got, "planned");
}

#[test]
fn momentum_is_injected_only_by_the_lid() {
    let dim = Dim3::cube(14);
    let mut quiescent = scenarios::closed_box::<f64>(dim, 1.2);
    let mut driven = scenarios::lid_driven_cavity::<f64>(dim, 1.2, 0.1);
    lbm35d_sweep(&mut quiescent, 30, LbmBlocking::new(7, 7, 3), None);
    lbm35d_sweep(&mut driven, 30, LbmBlocking::new(7, 7, 3), None);

    let momentum = |lat: &Lattice<f64>| {
        let mut m = 0.0;
        for z in 1..dim.nz - 1 {
            for y in 1..dim.ny - 1 {
                for x in 1..dim.nx - 1 {
                    if lat.flags().get(x, y, z) == CellKind::Fluid {
                        let mac = lat.macroscopic(x, y, z);
                        m += mac.rho * mac.u[0];
                    }
                }
            }
        }
        m
    };
    assert!(
        momentum(&quiescent).abs() < 1e-10,
        "closed box stays at rest"
    );
    assert!(momentum(&driven) > 1e-3, "the lid must drag fluid along +x");
}

#[test]
fn obstacle_channel_blocked_equals_naive_over_long_run() {
    let dim = Dim3::new(30, 14, 12);
    let mut want = scenarios::channel_with_sphere::<f64>(dim, 1.05, 0.04, 3.0);
    let mut got = scenarios::channel_with_sphere::<f64>(dim, 1.05, 0.04, 3.0);
    lbm_naive_sweep(&mut want, 25, LbmMode::Simd, None);
    lbm35d_sweep(&mut got, 25, LbmBlocking::new(10, 7, 4), None);
    assert_equal(&want, &got, "channel long run");
}

#[test]
fn densities_stay_physical_under_blocking() {
    let dim = Dim3::cube(12);
    let mut lat = scenarios::lid_driven_cavity::<f32>(dim, 1.4, 0.08);
    lbm35d_sweep(&mut lat, 40, LbmBlocking::new(6, 6, 2), None);
    for z in 1..dim.nz - 1 {
        for y in 1..dim.ny - 1 {
            for x in 1..dim.nx - 1 {
                if lat.flags().get(x, y, z) != CellKind::Fluid {
                    continue;
                }
                let m = lat.macroscopic(x, y, z);
                assert!(
                    m.rho > 0.5 && m.rho < 2.0,
                    "density blew up at ({x},{y},{z}): {}",
                    m.rho
                );
                let speed = (m.u[0] * m.u[0] + m.u[1] * m.u[1] + m.u[2] * m.u[2]).sqrt();
                assert!(speed < 0.3, "speed blew up at ({x},{y},{z}): {speed}");
            }
        }
    }
}
