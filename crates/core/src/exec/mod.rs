//! The executor ladder (paper §V, §VI-A).
//!
//! Every function here advances a Jacobi [`DoubleGrid`](threefive_grid::DoubleGrid) by `steps` time
//! steps under Dirichlet boundaries and leaves the result in `grids.src()`.
//! All executors compute **identical results** (bit-exact, because kernels
//! fix their association order); they differ only in traversal order,
//! buffering, temporal blocking and parallelism — which is exactly what
//! the paper's figures compare. [`StencilExec`] names every rung, maps it
//! to its executor and paper label, and is the one way callers run them.

mod blocked25d;
mod blocked3d;
mod blocked4d;
pub mod engine35;
mod periodic;
mod pipeline35;
mod reference;
mod registry;
pub mod schedule;
mod tile_parallel;

pub use blocked25d::blocked25d_sweep;
pub use blocked3d::blocked3d_sweep;
pub use blocked4d::blocked4d_sweep;
pub use engine35::{
    level_lag, outer_steps, plane_for_level, ring_slots, stream_chunk, tile_stream,
    tile_stream_serial, Blocking35, BoundaryPolicy, PlaneKernel, Rings, SweepCtx, TileGeom,
};
pub use periodic::{periodic35d_sweep, reference_sweep_periodic, wrap_extend};
pub use pipeline35::{blocked35d_sweep, parallel35d_sweep, temporal_sweep, try_parallel35d_sweep};
pub use reference::{reference_sweep, simd_sweep};
pub use registry::StencilExec;
pub use schedule::{
    Lag35, Schedule, ScheduleKind, WavefrontDiamond, WavefrontShared, DIAMOND_SPAN,
};
pub use tile_parallel::tile_parallel35d_sweep;

use threefive_grid::{Dim3, Real};

/// Validates that a grid is large enough for radius-`r` sweeps to have an
/// interior; returns `false` for degenerate grids where every sweep is a
/// no-op (the executors then return immediately, by construction agreeing
/// with the reference).
pub(crate) fn has_interior(dim: Dim3, r: usize) -> bool {
    !dim.interior_region(r).is_empty()
}

/// Bytes of one grid point for modeled-traffic purposes.
pub(crate) fn elem_bytes<T: Real>() -> u64 {
    T::BYTES as u64
}
