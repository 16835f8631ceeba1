//! Property-based equivalence of single executors: random grids,
//! tilings, temporal factors, team sizes and kernels — each sweep must
//! equal its reference bit for bit. (Every registered executor at once
//! is walked by `tests/conformance.rs`.)

mod common;

use common::{matches_reference, seeded};
use proptest::prelude::*;
use threefive::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_stencil_pipeline_equivalence(
        nx in 5usize..20,
        ny in 5usize..20,
        nz in 5usize..16,
        tile_x in 2usize..24,
        tile_y in 2usize..24,
        dim_t in 1usize..5,
        steps in 1usize..7,
        threads in 1usize..5,
        seed in 0usize..1000,
    ) {
        let kernel = SevenPoint::<f32>::new(0.3, 0.1);
        let init = seeded(Dim3::new(nx, ny, nz), seed);
        let b = Blocking35::new(tile_x, tile_y, dim_t);
        matches_reference(&kernel, &init, steps, |g| blocked35d_sweep(&kernel, g, steps, b))?;
        let team = ThreadTeam::new(threads);
        matches_reference(&kernel, &init, steps, |g| {
            parallel35d_sweep(&kernel, g, steps, b, &team)
        })?;
    }

    /// The unified engine must stay bit-identical to the reference for
    /// higher-radius star stencils too: R = 2 and R = 3 exercise the
    /// deeper ring (`max(2R+2, 3R+1)` slots), wider halos (`R·dim_T`) and
    /// thicker Z-boundary bands, across non-divisible tiles and team
    /// sizes 1/2/4.
    #[test]
    fn random_higher_radius_star_equivalence(
        r in 2usize..4,
        nx in 9usize..18,
        ny in 9usize..18,
        nz in 9usize..15,
        tile_x in 4usize..13,
        tile_y in 4usize..13,
        dim_t in 1usize..4,
        steps in 1usize..5,
        team_pick in 0usize..3,
        seed in 0usize..1000,
    ) {
        let kernel = GenericStar::<f32>::smoothing(r);
        let init = seeded(Dim3::new(nx, ny, nz), seed);
        let b = Blocking35::new(tile_x, tile_y, dim_t);
        matches_reference(&kernel, &init, steps, |g| blocked35d_sweep(&kernel, g, steps, b))?;
        let team = ThreadTeam::new([1usize, 2, 4][team_pick]);
        matches_reference(&kernel, &init, steps, |g| {
            try_parallel35d_sweep(&kernel, g, steps, b, &team, None, &Observer::disabled())
                .expect("engine sweep runs")
        })?;
    }

    #[test]
    fn random_4d_blocking_equivalence(
        n in 5usize..14,
        block in 2usize..10,
        dim_t in 1usize..4,
        steps in 1usize..6,
    ) {
        let kernel = SevenPoint::<f64>::new(0.25, 0.125);
        let init = seeded(Dim3::cube(n), 0);
        matches_reference(&kernel, &init, steps, |g| {
            blocked4d_sweep(&kernel, g, steps, block, dim_t)
        })?;
    }

    /// The tile-queue scheduling matches the reference for random inputs.
    #[test]
    fn random_tile_parallel_equivalence(
        n in 5usize..15,
        tile in 2usize..12,
        dim_t in 1usize..4,
        steps in 1usize..5,
        threads in 1usize..5,
    ) {
        let kernel = SevenPoint::<f64>::new(0.25, 0.12);
        let init = seeded(Dim3::cube(n), 0);
        let team = ThreadTeam::new(threads);
        matches_reference(&kernel, &init, steps, |g| {
            tile_parallel35d_sweep(&kernel, g, steps, Blocking35::new(tile, tile, dim_t), &team)
        })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Periodic pipeline vs modular-indexing reference across random
    /// shapes, tilings and temporal factors.
    #[test]
    fn random_periodic_pipeline_equivalence(
        nx in 4usize..14,
        ny in 4usize..14,
        nz in 4usize..12,
        tile in 2usize..16,
        dim_t in 1usize..4,
        steps in 1usize..5,
        threads in 1usize..4,
    ) {
        let dim = Dim3::new(nx, ny, nz);
        let kernel = SevenPoint::<f32>::new(0.3, 0.1);
        let init = Grid3::from_fn(dim, |x, y, z| {
            ((x * 7 + y * 13 + z * 31) % 19) as f32 * 0.11 - 1.0
        });
        let mut want = DoubleGrid::from_initial(init.clone());
        reference_sweep_periodic(&kernel, &mut want, steps);
        let team = ThreadTeam::new(threads);
        let mut got = DoubleGrid::from_initial(init);
        periodic35d_sweep(
            &kernel,
            &mut got,
            steps,
            Blocking35::new(tile, tile, dim_t),
            Some(&team),
        );
        prop_assert_eq!(got.src().as_slice(), want.src().as_slice());
    }
}
