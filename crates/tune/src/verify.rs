//! Correctness gate for tuning winners.
//!
//! Speed alone never qualifies a plan for persistence: before an entry
//! reaches `TUNE.json` the candidate must (1) pass the symbolic race
//! checker for its exact (R, dim_T, threads, nz, ly) geometry and
//! (2) produce results **bit-identical** to the scalar reference on a
//! real sweep. Both kernels already guarantee bit-identity by
//! construction (the engine commits the same arithmetic in the same
//! order); this check catches the day that stops being true, instead of
//! letting the autotuner launder a wrong-but-fast plan into every
//! subsequent run.

use threefive_bench::probe::ProbeWorkload;
use threefive_core::exec::{reference_sweep, Blocking35, StencilExec};
use threefive_core::{SevenPoint, StencilKernel};
use threefive_grid::{Dim3, DoubleGrid, Grid3, Real};
use threefive_lbm::{lbm_naive_sweep, LbmBlocking, LbmExec, LbmMode};
use threefive_sync::{Observer, ThreadTeam};

use crate::search::Candidate;

/// Verifies `c` on an `n`³ problem over `steps` time steps: symbolic
/// race check plus bit-identity against the scalar reference, at the
/// precision the plan was tuned for.
pub fn verify_candidate(
    workload: ProbeWorkload,
    n: usize,
    steps: usize,
    dp: bool,
    c: &Candidate,
) -> Result<(), String> {
    if c.tile == 0 || c.dim_t == 0 || c.threads == 0 {
        return Err(format!("degenerate candidate {c:?}"));
    }
    race_check(n, c)?;
    match (workload, dp) {
        (ProbeWorkload::Stencil, false) => verify_stencil::<f32>(n, steps, c),
        (ProbeWorkload::Stencil, true) => verify_stencil::<f64>(n, steps, c),
        (ProbeWorkload::Lbm, false) => verify_lbm::<f32>(n, steps, c),
        (ProbeWorkload::Lbm, true) => verify_lbm::<f64>(n, steps, c),
    }
}

fn race_check(n: usize, c: &Candidate) -> Result<(), String> {
    use threefive_analyze::schedule::{check_schedule, ScheduleConfig, ScheduleModel};
    const R: usize = 1; // both kernels
    let cfg = ScheduleConfig {
        r: R,
        c: c.dim_t,
        threads: c.threads,
        nz: n,
        ly: c.tile.min(n) + 2 * R * c.dim_t,
    };
    let violations = check_schedule(&cfg, &ScheduleModel::for_kind(c.schedule));
    match violations.first() {
        None => Ok(()),
        Some(v) => Err(format!("candidate {c:?} fails the race checker: {v:?}")),
    }
}

fn stencil_initial<T: Real>(dim: Dim3) -> Grid3<T> {
    // Same deterministic initial condition the bench harness measures on.
    Grid3::from_fn(dim, |x, y, z| {
        T::from_f64(((x * 13 + y * 7 + z * 3) % 17) as f64 * 0.1)
    })
}

fn verify_stencil<T: Real>(n: usize, steps: usize, c: &Candidate) -> Result<(), String>
where
    SevenPoint<T>: StencilKernel<T>,
{
    let dim = Dim3::cube(n);
    let kernel = SevenPoint::<T>::heat(T::from_f64(0.125));
    let mut reference = DoubleGrid::from_initial(stencil_initial::<T>(dim));
    reference_sweep(&kernel, &mut reference, steps);

    let mut tuned = DoubleGrid::from_initial(stencil_initial::<T>(dim));
    let team = ThreadTeam::new(c.threads);
    let b = Blocking35 {
        dim_x: c.tile,
        dim_y: c.tile,
        dim_t: c.dim_t,
        schedule: c.schedule,
    };
    StencilExec::Parallel35d
        .sweep(&kernel, &mut tuned, steps, b, &team, &Observer::disabled())
        .map_err(|e| format!("candidate {c:?} failed to execute: {e}"))?;

    let want = reference.src().as_slice();
    let got = tuned.src().as_slice();
    if let Some(i) = (0..want.len()).find(|&i| want[i] != got[i]) {
        return Err(format!(
            "candidate {c:?} is not bit-identical to the scalar reference: \
             first divergence at linear index {i} ({} vs {})",
            got[i], want[i]
        ));
    }
    Ok(())
}

fn verify_lbm<T: Real>(n: usize, steps: usize, c: &Candidate) -> Result<(), String> {
    let dim = Dim3::cube(n);
    let omega = T::from_f64(1.2);
    let u_lid = T::from_f64(0.05);
    let mut reference = threefive_lbm::scenarios::lid_driven_cavity::<T>(dim, omega, u_lid);
    // The SIMD pull sweep is the in-tree ground truth the 3.5-D LBM
    // pipeline is verified against (same arithmetic per site).
    lbm_naive_sweep(&mut reference, steps, LbmMode::Simd, None);

    let mut tuned = threefive_lbm::scenarios::lid_driven_cavity::<T>(dim, omega, u_lid);
    let team = ThreadTeam::new(c.threads);
    let b = LbmBlocking {
        dim_x: c.tile,
        dim_y: c.tile,
        dim_t: c.dim_t,
        schedule: c.schedule,
    };
    LbmExec::Blocked35d
        .sweep(
            &mut tuned,
            steps,
            b,
            Some(&team),
            None,
            &Observer::disabled(),
        )
        .map_err(|e| format!("candidate {c:?} failed to execute: {e}"))?;

    for q in 0..threefive_lbm::model::Q {
        let want = reference.src().comp(q);
        let got = tuned.src().comp(q);
        if let Some(i) = (0..want.len()).find(|&i| want[i] != got[i]) {
            return Err(format!(
                "candidate {c:?} is not bit-identical to the reference: \
                 distribution {q} diverges at linear index {i} ({} vs {})",
                got[i], want[i]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use threefive_core::exec::ScheduleKind;

    #[test]
    fn valid_candidates_verify_for_both_kernels() {
        for schedule in ScheduleKind::ALL {
            let c = Candidate {
                tile: 8,
                dim_t: 2,
                threads: 2,
                schedule,
            };
            verify_candidate(ProbeWorkload::Stencil, 12, 3, false, &c).unwrap();
            verify_candidate(ProbeWorkload::Stencil, 12, 3, true, &c).unwrap();
            verify_candidate(ProbeWorkload::Lbm, 12, 3, false, &c).unwrap();
        }
    }

    #[test]
    fn degenerate_candidates_are_rejected() {
        let c = Candidate {
            tile: 8,
            dim_t: 0,
            threads: 1,
            schedule: ScheduleKind::Lag35d,
        };
        assert!(verify_candidate(ProbeWorkload::Stencil, 12, 2, false, &c).is_err());
    }
}
