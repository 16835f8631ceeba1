//! The conformance matrix: every registered executor, stencil and LBM,
//! bit-exact against its scalar reference — the repository's core
//! correctness contract, checked through the same registries the CLI,
//! the bench harness and the tuner dispatch through.
//!
//! * Stencil: every [`StencilExec`](threefive::core::exec::StencilExec) ×
//!   {7-point f32, 7-point f64, 27-point f64, star R = 2, star R = 3} ×
//!   every schedule (temporal rungs) against `reference_sweep`.
//! * LBM: every [`LbmExec`](threefive::lbm::LbmExec) × every schedule
//!   (temporal rungs) × {closed box, lid-driven cavity, channel past a
//!   sphere} against the scalar naive sweep.
//!
//! Every case runs each kernel (stencil) or scenario (LBM) on a different
//! team size from {1, 2, 3, 4}, rotated from a sampled offset, so each
//! stencil case covers every size and the team rungs meet every size
//! across cases. Shapes are random and anisotropic, tiles are
//! non-divisible and sometimes larger than the grid, and `steps` need not
//! be a multiple of dim_T.

mod common;

use common::{check_lbm, check_stencil, Case};
use proptest::prelude::*;
use threefive::lbm::scenarios;
use threefive::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_stencil_executor_matches_the_reference(
        nx in 5usize..15,
        ny in 5usize..15,
        nz in 5usize..13,
        tile_x in 2usize..18,
        tile_y in 2usize..18,
        dim_t in 1usize..5,
        steps in 1usize..7,
        seed in 0usize..1000,
        team_pick in 0usize..4,
    ) {
        let teams = [1, 2, 3, 4].map(ThreadTeam::new);
        let team = |i: usize| &teams[(team_pick + i) % teams.len()];
        // Wider stencils get proportionally larger grids.
        let case = |r: usize| {
            let pad = 2 * (r - 1);
            let dim = Dim3::new(nx + pad, ny + pad, nz + pad);
            Case { dim, tile_x, tile_y, dim_t, steps, seed }
        };
        check_stencil(&SevenPoint::<f32>::new(0.3, 0.1), &case(1), team(0))?;
        check_stencil(&SevenPoint::<f64>::new(0.25, 0.125), &case(1), team(1))?;
        check_stencil(&TwentySevenPoint::<f64>::smoothing(), &case(1), team(2))?;
        check_stencil(&GenericStar::<f32>::smoothing(2), &case(2), team(3))?;
        check_stencil(&GenericStar::<f32>::smoothing(3), &case(3), team(4))?;
    }

    #[test]
    fn every_lbm_executor_matches_the_scalar_naive_sweep(
        nx in 6usize..12,
        ny in 6usize..11,
        nz in 6usize..10,
        tile_x in 3usize..13,
        tile_y in 3usize..13,
        dim_t in 1usize..5,
        steps in 1usize..5,
        team_pick in 0usize..4,
    ) {
        let teams = [1, 2, 3, 4].map(ThreadTeam::new);
        let team = |i: usize| &teams[(team_pick + i) % teams.len()];
        let dim = Dim3::new(nx, ny, nz);
        let case = Case { dim, tile_x, tile_y, dim_t, steps, seed: 0 };
        let r_obs = ny.min(nz) as f64 / 4.0;
        check_lbm(&|| scenarios::closed_box(dim, 1.25), &case, team(0))?;
        check_lbm(&|| scenarios::lid_driven_cavity(dim, 1.15, 0.06), &case, team(1))?;
        check_lbm(&|| scenarios::channel_with_sphere(dim, 1.05, 0.04, r_obs), &case, team(2))?;
    }
}
