//! The *alternative* parallelization the paper argues against (§II,
//! §V-D): instead of all threads cooperating on every XY tile (one barrier
//! per Z step, identical DRAM traffic per thread), each thread owns whole
//! tiles and runs its own serial pipeline over them.
//!
//! Pros: no intra-tile barriers at all. Cons — exactly the ones the paper
//! attributes to wavefront-style schemes: the effective working set is one
//! ring set *per thread* (threads × the cache budget of Eq. 1), and when
//! the tile count isn't a multiple of the thread count the tail imbalance
//! wastes whole tile-times. This executor exists so the trade-off can be
//! measured: `threefive bench` reports it as the "tile 3.5D" row next to
//! the row-parallel "3.5D blocking" row.

use std::sync::atomic::{AtomicUsize, Ordering};

use threefive_grid::{DoubleGrid, Real};
use threefive_sync::{SharedSlice, ThreadTeam};

use crate::exec::engine35::{tile_stream_serial, Blocking35, BoundaryPolicy, TileGeom};
use crate::exec::has_interior;
use crate::exec::pipeline35::StencilPlanes;
use crate::kernel::StencilKernel;
use crate::stats::SweepStats;

/// 3.5-D blocked sweep with **tile-level** parallelism: a work queue of
/// tiles drained by the team, each tile processed serially by one thread.
///
/// Bit-exact with [`reference_sweep`](crate::exec::reference_sweep) (tiles
/// are independent within a chunk), but see the module docs for why the
/// paper prefers [`parallel35d_sweep`](crate::exec::parallel35d_sweep).
pub fn tile_parallel35d_sweep<T: Real, K: StencilKernel<T>>(
    kernel: &K,
    grids: &mut DoubleGrid<T>,
    steps: usize,
    b: Blocking35,
    team: &ThreadTeam,
) -> SweepStats {
    let dim = grids.dim();
    let r = kernel.radius();
    if !has_interior(dim, r) {
        return SweepStats::default();
    }
    let mut stats = SweepStats::default();
    let mut remaining = steps;
    while remaining > 0 {
        let chunk = remaining.min(b.dim_t);
        // Enumerate owned tiles.
        let mut tiles = Vec::new();
        let mut oy = 0usize;
        while oy < dim.ny {
            let oy1 = (oy + b.dim_y).min(dim.ny);
            let mut ox = 0usize;
            while ox < dim.nx {
                let ox1 = (ox + b.dim_x).min(dim.nx);
                tiles.push((ox, ox1, oy, oy1));
                ox = ox1;
            }
            oy = oy1;
        }

        let (src, dst) = grids.pair_mut();
        let dst_view = SharedSlice::new(dst.as_mut_slice());
        let planes = StencilPlanes {
            kernel,
            src,
            dst: &dst_view,
        };
        let next = AtomicUsize::new(0);
        let sched = b.schedule.schedule();
        // Per-tile destination rows are disjoint across tiles, so a simple
        // work queue is race-free; each thread runs a serial pipeline.
        team.run(|_tid| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(ox, ox1, oy, oy1)) = tiles.get(i) else {
                break;
            };
            let geom = TileGeom::new(
                dim,
                r,
                chunk,
                BoundaryPolicy::DirichletRim,
                ox..ox1,
                oy..oy1,
            );
            tile_stream_serial(&planes, &geom, sched);
        });
        for &(ox, ox1, oy, oy1) in &tiles {
            let geom = TileGeom::new(
                dim,
                r,
                chunk,
                BoundaryPolicy::DirichletRim,
                ox..ox1,
                oy..oy1,
            );
            if geom.has_commit() {
                stats = stats + geom.stats::<T>();
            }
        }
        grids.swap();
        remaining -= chunk;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::reference_sweep;
    use crate::kernel::SevenPoint;
    use threefive_grid::{Dim3, Grid3};

    fn init(d: Dim3) -> DoubleGrid<f32> {
        DoubleGrid::from_initial(Grid3::from_fn(d, |x, y, z| {
            ((x * 19 + y * 11 + z * 3) % 13) as f32 * 0.2 - 1.0
        }))
    }

    #[test]
    fn tile_parallel_matches_reference() {
        let d = Dim3::new(20, 17, 11);
        let k = SevenPoint::new(0.3f32, 0.1);
        for steps in [1usize, 3, 5] {
            let mut want = init(d);
            reference_sweep(&k, &mut want, steps);
            for threads in [1usize, 2, 4] {
                let team = ThreadTeam::new(threads);
                let mut got = init(d);
                tile_parallel35d_sweep(&k, &mut got, steps, Blocking35::new(6, 5, 2), &team);
                assert_eq!(
                    got.src().as_slice(),
                    want.src().as_slice(),
                    "steps={steps} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn tile_parallel_matches_row_parallel() {
        use crate::exec::parallel35d_sweep;
        let d = Dim3::cube(18);
        let k = SevenPoint::new(0.25f32, 0.125);
        let b = Blocking35::new(7, 9, 3);
        let team = ThreadTeam::new(3);
        let mut a = init(d);
        parallel35d_sweep(&k, &mut a, 6, b, &team);
        let mut c = init(d);
        tile_parallel35d_sweep(&k, &mut c, 6, b, &team);
        assert_eq!(a.src().as_slice(), c.src().as_slice());
    }

    #[test]
    fn stats_match_row_parallel_executor() {
        use crate::exec::blocked35d_sweep;
        let d = Dim3::cube(16);
        let k = SevenPoint::new(0.3f64, 0.1);
        let b = Blocking35::new(8, 8, 2);
        let team = ThreadTeam::new(2);
        let mut a = init_f64(d);
        let s1 = blocked35d_sweep(&k, &mut a, 4, b);
        let mut c = init_f64(d);
        let s2 = tile_parallel35d_sweep(&k, &mut c, 4, b, &team);
        assert_eq!(s1, s2, "same tiling must report the same work/traffic");
    }

    fn init_f64(d: Dim3) -> DoubleGrid<f64> {
        DoubleGrid::from_initial(Grid3::from_fn(d, |x, y, z| {
            ((x * 19 + y * 11 + z * 3) % 13) as f64 * 0.2 - 1.0
        }))
    }
}
