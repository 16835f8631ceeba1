//! The stencil executor registry: every rung of the ladder named,
//! validated and dispatched in one place.

use threefive_grid::{DoubleGrid, Real};
use threefive_sync::{Observer, ThreadTeam};

use crate::error::ExecError;
use crate::exec::{
    blocked25d_sweep, blocked3d_sweep, blocked4d_sweep, reference_sweep, simd_sweep,
    tile_parallel35d_sweep, try_parallel35d_sweep, Blocking35,
};
use crate::kernel::StencilKernel;
use crate::stats::SweepStats;

/// One rung of the stencil executor ladder, in the paper's order (no
/// blocking → spatial → temporal → 4-D → 3.5-D).
///
/// The CLI, the bench harness, the figure binaries, the tuner and the
/// conformance tests all name, validate and run executors through this
/// enum, so which variants exist and what each one needs is answered
/// here and nowhere else.
///
/// | Variant | Executor | Paper label |
/// |---|---|---|
/// | [`Reference`](Self::Reference) | [`reference_sweep`] | no-blocking, scalar |
/// | [`Simd`](Self::Simd) | [`simd_sweep`] | no-blocking (+SIMD) |
/// | [`Blocked3d`](Self::Blocked3d) | [`blocked3d_sweep`] | 3-D spatial blocking |
/// | [`Blocked25d`](Self::Blocked25d) | [`blocked25d_sweep`] | spatial-only (2.5-D) blocking |
/// | [`Temporal`](Self::Temporal) | [`try_parallel35d_sweep`] on whole-plane tiles ([`temporal_sweep`](crate::exec::temporal_sweep) is its one-thread form) | temporal-only blocking |
/// | [`Blocked4d`](Self::Blocked4d) | [`blocked4d_sweep`] | 4-D (3-D space + time) blocking |
/// | [`Parallel35d`](Self::Parallel35d) | [`try_parallel35d_sweep`] ([`blocked35d_sweep`](crate::exec::blocked35d_sweep) and [`parallel35d_sweep`](crate::exec::parallel35d_sweep) are its one-thread and panicking forms) | 3.5-D blocking |
/// | [`TileParallel35d`](Self::TileParallel35d) | [`tile_parallel35d_sweep`] | 3.5-D blocking, one tile per thread (§V-D's rejected alternative) |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StencilExec {
    /// Scalar, no-blocking ground truth.
    Reference,
    /// No blocking, SIMD rows.
    Simd,
    /// 3-D spatial blocking.
    Blocked3d,
    /// 2.5-D spatial blocking (block XY, stream Z).
    Blocked25d,
    /// Temporal-only blocking: the 3.5-D engine on whole-plane tiles.
    Temporal,
    /// 4-D blocking (3-D space + time).
    Blocked4d,
    /// The paper's parallel 3.5-D blocking.
    Parallel35d,
    /// 3.5-D blocking with tile-level parallelism.
    TileParallel35d,
}

impl StencilExec {
    /// Every rung, in ladder order.
    pub const ALL: [Self; 8] = [
        Self::Reference,
        Self::Simd,
        Self::Blocked3d,
        Self::Blocked25d,
        Self::Temporal,
        Self::Blocked4d,
        Self::Parallel35d,
        Self::TileParallel35d,
    ];

    /// The `threefive run --variant` value.
    pub fn cli_name(self) -> &'static str {
        match self {
            Self::Reference => "ref",
            Self::Simd => "simd",
            Self::Blocked3d => "3d",
            Self::Blocked25d => "25d",
            Self::Temporal => "temporal",
            Self::Blocked4d => "4d",
            Self::Parallel35d => "35d",
            Self::TileParallel35d => "tile35",
        }
    }

    /// The `variant` string of a BENCH report entry.
    pub fn label(self) -> &'static str {
        match self {
            Self::Reference => "scalar",
            Self::Simd => "simd no-blocking",
            Self::Blocked3d => "3D blocking",
            Self::Blocked25d => "spatial only",
            Self::Temporal => "temporal only",
            Self::Blocked4d => "4D blocking",
            Self::Parallel35d => "3.5D blocking",
            Self::TileParallel35d => "tile 3.5D",
        }
    }

    /// Looks a rung up by its [`cli_name`](Self::cli_name).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.cli_name() == name)
    }

    /// Whether [`sweep`](Self::sweep) runs on the team it is handed;
    /// every other rung runs on the calling thread alone.
    pub fn uses_team(self) -> bool {
        matches!(
            self,
            Self::Temporal | Self::Parallel35d | Self::TileParallel35d
        )
    }

    /// Whether the rung streams time levels through the 3.5-D engine, and
    /// so takes `dim_T` and a [`ScheduleKind`](crate::exec::ScheduleKind).
    /// (4-D blocking takes `dim_T` but has no schedule.)
    pub fn temporal(self) -> bool {
        matches!(
            self,
            Self::Temporal | Self::Parallel35d | Self::TileParallel35d
        )
    }

    /// Whether the rung runs through [`try_parallel35d_sweep`] and so
    /// reports to the [`Observer`] handed to [`sweep`](Self::sweep).
    pub fn observed(self) -> bool {
        matches!(self, Self::Temporal | Self::Parallel35d)
    }

    /// The block edge this rung actually runs for a requested `tile`,
    /// before clamping to the grid. A 3.5-D tile is sized for plane rings
    /// and can be hundreds of points wide, so the cubic 3-D and 4-D blocks
    /// cap it at 64 and 48 to stay cache-sized.
    pub fn block(self, tile: usize) -> usize {
        match self {
            Self::Blocked3d => tile.min(64),
            Self::Blocked4d => tile.min(48),
            _ => tile,
        }
    }

    /// Advances `grids` by `steps` Jacobi steps on this rung; the result
    /// ends in `grids.src()`, bit-exact with [`reference_sweep`].
    ///
    /// `b` carries the requested tile (`dim_x × dim_y`; the cubic 3-D and
    /// 4-D blocks use `dim_x`), `dim_T` and schedule. Each rung reads what
    /// it needs: the tile through [`block`](Self::block) and clamped to the
    /// grid, the whole plane for [`Temporal`](Self::Temporal). Zero
    /// parameters are rejected through [`Blocking35::try_new`] as
    /// [`ExecError::InvalidBlocking`] before any executor runs; the
    /// spatial-only rungs ignore `dim_T`.
    pub fn sweep<T: Real, K: StencilKernel<T>>(
        self,
        kernel: &K,
        grids: &mut DoubleGrid<T>,
        steps: usize,
        b: Blocking35,
        team: &ThreadTeam,
        obs: &Observer<'_>,
    ) -> Result<SweepStats, ExecError> {
        let dim = grids.dim();
        let (x, y) = match self {
            Self::Temporal => (dim.nx, dim.ny),
            _ => (
                self.block(b.dim_x).min(dim.nx),
                self.block(b.dim_y).min(dim.ny),
            ),
        };
        match self {
            Self::Reference | Self::Simd => {}
            Self::Blocked3d | Self::Blocked25d => {
                Blocking35::try_new(x, y, 1)?;
            }
            _ => {
                Blocking35::try_new(x, y, b.dim_t)?;
            }
        }
        let tiled = Blocking35 {
            dim_x: x,
            dim_y: y,
            ..b
        };
        Ok(match self {
            Self::Reference => reference_sweep(kernel, grids, steps),
            Self::Simd => simd_sweep(kernel, grids, steps),
            Self::Blocked3d => blocked3d_sweep(kernel, grids, steps, x),
            Self::Blocked25d => blocked25d_sweep(kernel, grids, steps, x, y),
            Self::Blocked4d => blocked4d_sweep(kernel, grids, steps, x, b.dim_t),
            Self::Temporal | Self::Parallel35d => {
                try_parallel35d_sweep(kernel, grids, steps, tiled, team, None, obs)?
            }
            Self::TileParallel35d => tile_parallel35d_sweep(kernel, grids, steps, tiled, team),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for e in StencilExec::ALL {
            assert_eq!(StencilExec::parse(e.cli_name()), Some(e));
            let same_label = StencilExec::ALL.iter().filter(|o| o.label() == e.label());
            assert_eq!(same_label.count(), 1, "{e:?}");
        }
        assert_eq!(StencilExec::parse("bogus"), None);
    }
}
