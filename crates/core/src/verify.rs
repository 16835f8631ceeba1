//! Packaged executor verification.
//!
//! Downstream code adding its own kernels or executor variants can reuse
//! the same machinery this repository uses to validate the 3.5-D
//! pipeline: run the candidate against the scalar reference on a battery
//! of deterministic pseudo-random grids and report the first divergence.

use std::fmt;

use threefive_grid::{Dim3, DoubleGrid, Grid3, Real};

use crate::error::ExecError;
use crate::exec::reference_sweep;
use crate::kernel::StencilKernel;

/// A divergence found by [`verify_executor`].
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Grid where the executor and the reference first disagreed.
    pub dim: Dim3,
    /// Number of time steps in the failing configuration.
    pub steps: usize,
    /// First differing point.
    pub at: (usize, usize, usize),
    /// Reference value (as `f64`).
    pub expected: f64,
    /// Executor value (as `f64`).
    pub got: f64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "executor diverged from reference on {} after {} steps at {:?}: \
             expected {}, got {}",
            self.dim, self.steps, self.at, self.expected, self.got
        )
    }
}

/// Deterministic pseudo-random initial grid (seeded hash of coordinates).
pub fn verification_grid<T: Real>(dim: Dim3, seed: u64) -> Grid3<T> {
    Grid3::from_fn(dim, |x, y, z| {
        let mut h = (x as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((y as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((z as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        // Finalizer so every input bit (including the seed) reaches the
        // extracted bits.
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        T::from_f64(((h >> 17) % 1024) as f64 / 512.0 - 1.0)
    })
}

/// Elements per block of [`first_non_finite`]'s reduction: big enough to
/// amortise the per-block branch, small enough that the rescan after a
/// hit stays in L1.
const FINITE_BLOCK: usize = 1024;

/// Index of the first NaN/±∞ in `vals`, or `None` when every value is
/// finite — the one non-finite scanner behind the stencil and the LBM
/// guards.
///
/// The healthy path is a branch-free OR-reduction per block (`v · 0` is
/// `±0` for every finite `v`, denormals and `±MAX` included, and NaN for
/// NaN/±∞), which the compiler vectorises, so a clean grid is scanned at
/// memory speed; only a block that reports "somewhere" is rescanned
/// element by element for the position.
pub fn first_non_finite<T: Real>(vals: &[T]) -> Option<usize> {
    for (b, block) in vals.chunks(FINITE_BLOCK).enumerate() {
        let mut any = false;
        for &v in block {
            any |= v * T::ZERO != T::ZERO;
        }
        if any {
            let i = block.iter().position(|v| !v.to_f64().is_finite());
            return i.map(|i| b * FINITE_BLOCK + i);
        }
    }
    None
}

/// Checks every grid point for NaN/±∞ and reports the **first** offending
/// coordinate in row-major (z-outermost) scan order.
///
/// Jacobi sweeps are contractions, so non-finite values never arise from
/// healthy execution — they indicate corrupted input, a broken custom
/// kernel, or memory damage from a fault mid-sweep. The facade's
/// [`run_plan`](../../threefive/fn.run_plan.html) runs this guard after
/// each ladder rung so corruption triggers a downgrade instead of
/// propagating silently.
pub fn check_finite<T: Real>(grid: &Grid3<T>) -> Result<(), ExecError> {
    // Layout order is the row-major scan order, so one pass over the
    // backing slice finds the first offender; coordinates are only
    // reconstructed on failure.
    match first_non_finite(grid.as_slice()) {
        None => Ok(()),
        Some(i) => Err(ExecError::NonFinite {
            at: grid.dim().coords(i),
            value: grid.as_slice()[i].to_f64(),
        }),
    }
}

/// Runs `executor` against the scalar reference over a battery of grid
/// shapes and step counts, demanding **bit-exact** agreement (achievable
/// whenever the kernel fixes its association order — see the crate docs).
///
/// `executor(grids, steps)` must advance the pair and leave the result in
/// `grids.src()`, like every executor in [`crate::exec`].
pub fn verify_executor<T, K, F>(kernel: &K, mut executor: F) -> Result<(), Divergence>
where
    T: Real,
    K: StencilKernel<T>,
    F: FnMut(&mut DoubleGrid<T>, usize),
{
    let battery = [
        (Dim3::cube(8), 1usize),
        (Dim3::cube(12), 4),
        (Dim3::new(17, 9, 11), 3),
        (Dim3::new(5, 19, 7), 5),
        (Dim3::new(2 * kernel.radius() + 2, 9, 9), 2),
    ];
    for (i, &(dim, steps)) in battery.iter().enumerate() {
        let init = verification_grid::<T>(dim, i as u64 * 7919);
        let mut want = DoubleGrid::from_initial(init.clone());
        reference_sweep(kernel, &mut want, steps);
        let mut got = DoubleGrid::from_initial(init);
        executor(&mut got, steps);
        for (x, y, z) in dim.full_region().points() {
            let a = want.src().get(x, y, z);
            let b = got.src().get(x, y, z);
            if a != b {
                return Err(Divergence {
                    dim,
                    steps,
                    at: (x, y, z),
                    expected: a.to_f64(),
                    got: b.to_f64(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{blocked35d_sweep, simd_sweep, Blocking35};
    use crate::kernel::{GenericStar, SevenPoint};

    #[test]
    fn library_executors_pass_verification() {
        let k = SevenPoint::new(0.4f32, 0.1);
        verify_executor(&k, |g, steps| {
            simd_sweep(&k, g, steps);
        })
        .unwrap();
        verify_executor(&k, |g, steps| {
            blocked35d_sweep(&k, g, steps, Blocking35::new(6, 7, 2));
        })
        .unwrap();
        let star = GenericStar::<f64>::smoothing(2);
        verify_executor(&star, |g, steps| {
            blocked35d_sweep(&star, g, steps, Blocking35::new(8, 8, 2));
        })
        .unwrap();
    }

    #[test]
    fn a_buggy_executor_is_caught_with_location() {
        let k = SevenPoint::new(0.4f64, 0.1);
        // "Executor" that runs one step too few.
        let err = verify_executor(&k, |g, steps| {
            simd_sweep(&k, g, steps.saturating_sub(1));
        })
        .unwrap_err();
        assert!(err.expected != err.got);
        let msg = err.to_string();
        assert!(msg.contains("diverged"), "{msg}");
    }

    #[test]
    fn check_finite_accepts_healthy_grids() {
        let g = verification_grid::<f32>(Dim3::cube(7), 3);
        check_finite(&g).unwrap();
    }

    #[test]
    fn check_finite_reports_first_bad_coordinate() {
        let d = Dim3::new(5, 4, 3);
        let mut g = Grid3::<f64>::splat(d, 1.0);
        g.set(3, 2, 1, f64::NAN);
        g.set(4, 3, 2, f64::INFINITY); // later in scan order
        match check_finite(&g).unwrap_err() {
            ExecError::NonFinite { at, value } => {
                assert_eq!(at, (3, 2, 1));
                assert!(value.is_nan());
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn verification_grid_is_deterministic_and_seed_sensitive() {
        let d = Dim3::cube(6);
        let a = verification_grid::<f32>(d, 1);
        let b = verification_grid::<f32>(d, 1);
        let c = verification_grid::<f32>(d, 2);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
        // Values are bounded.
        assert!(a.as_slice().iter().all(|v| (-1.0..=1.0).contains(v)));
    }
}
