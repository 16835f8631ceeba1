//! Pinned ladder cases — shapes, tiles and depths worth keeping fixed —
//! run on every registered stencil executor through the conformance
//! checks (`tests/conformance.rs` samples the rest), plus two facts
//! beyond bit-equality: the planner's parameters drive an executor
//! directly, and the Dirichlet rim never changes.

mod common;

use common::{check_stencil, Case};
use threefive::prelude::*;

fn initial<T: Real>(dim: Dim3) -> Grid3<T> {
    Grid3::from_fn(dim, |x, y, z| {
        T::from_f64((((x * 29 + y * 13 + z * 5) % 37) as f64) * 0.0625 - 1.0)
    })
}

/// Every stencil rung on `dim`, bit-exact against the reference.
fn ladder<T: Real, K: StencilKernel<T>>(
    kernel: &K,
    dim: Dim3,
    steps: usize,
    tile: (usize, usize),
    dim_t: usize,
    threads: usize,
) {
    let case = Case::pinned(dim, tile, dim_t, steps);
    check_stencil(kernel, &case, &ThreadTeam::new(threads)).unwrap();
}

fn seven_point() -> SevenPoint<f32> {
    SevenPoint::new(0.35, 0.105)
}

#[test]
fn full_ladder_small_cube() {
    ladder(&seven_point(), Dim3::cube(16), 4, (8, 8), 2, 3);
}

#[test]
fn full_ladder_anisotropic_grid() {
    ladder(&seven_point(), Dim3::new(23, 11, 17), 3, (7, 7), 3, 3);
}

#[test]
fn full_ladder_tile_larger_than_grid() {
    ladder(&seven_point(), Dim3::cube(12), 5, (64, 64), 2, 3);
}

#[test]
fn full_ladder_deep_temporal_blocking() {
    ladder(&seven_point(), Dim3::cube(20), 8, (10, 10), 4, 3);
}

#[test]
fn ladder_f64_27_point() {
    let kernel = TwentySevenPoint::<f64>::smoothing();
    ladder(&kernel, Dim3::cube(12), 3, (6, 5), 2, 4);
}

#[test]
fn ladder_radius_two_star() {
    let kernel = GenericStar::<f32>::smoothing(2);
    ladder(&kernel, Dim3::cube(18), 4, (9, 8), 2, 2);
}

#[test]
fn planner_parameters_drive_executor_directly() {
    // End-to-end: plan from machine+kernel ratios, execute with the plan.
    let machine = core_i7();
    let traffic = seven_point_traffic();
    let plan = plan_35d(
        traffic.gamma(Precision::Sp),
        machine.big_gamma(Precision::Sp),
        machine.fast_storage_bytes,
        4,
        1,
    )
    .unwrap();
    let dim = Dim3::cube(24);
    let kernel = SevenPoint::<f32>::heat(0.125);
    let mut want = DoubleGrid::from_initial(initial::<f32>(dim));
    reference_sweep(&kernel, &mut want, plan.dim_t * 2);
    let mut g = DoubleGrid::from_initial(initial::<f32>(dim));
    let blocking = Blocking35::new(plan.dim_xy.min(dim.nx), plan.dim_xy.min(dim.ny), plan.dim_t);
    blocked35d_sweep(&kernel, &mut g, plan.dim_t * 2, blocking);
    assert_eq!(g.src().as_slice(), want.src().as_slice());
}

#[test]
fn dirichlet_boundary_is_immutable_through_deep_sweeps() {
    let dim = Dim3::cube(14);
    let init = initial::<f32>(dim);
    let mut g = DoubleGrid::from_initial(init.clone());
    let kernel = SevenPoint::<f32>::heat(0.1);
    blocked35d_sweep(&kernel, &mut g, 9, Blocking35::new(7, 7, 3));
    for (x, y, z) in dim.full_region().points() {
        if !dim.is_interior(x, y, z, 1) {
            assert_eq!(
                g.src().get(x, y, z),
                init.get(x, y, z),
                "boundary changed at ({x},{y},{z})"
            );
        }
    }
}
