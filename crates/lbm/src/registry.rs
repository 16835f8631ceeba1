//! The LBM executor registry: every rung of the lattice ladder named,
//! validated and dispatched in one place.

use std::time::Duration;

use threefive_grid::Real;
use threefive_sync::{Observer, ThreadTeam};

use crate::{lbm_naive_sweep, try_lbm35d_sweep, Lattice, LbmBlocking, LbmError, LbmMode};

/// One rung of the D3Q19 executor ladder (paper Fig. 4(a), 5(a)), in
/// ladder order. The lattice counterpart of
/// [`StencilExec`](threefive_core::exec::StencilExec); every lattice rung
/// runs on the team it is handed (the naive sweeps split rows over it)
/// and none caps the tile.
///
/// | Variant | Executor | Paper label |
/// |---|---|---|
/// | [`NaiveScalar`](Self::NaiveScalar) | [`lbm_naive_sweep`] ([`LbmMode::Scalar`]) | parallel scalar, no blocking |
/// | [`NaiveSimd`](Self::NaiveSimd) | [`lbm_naive_sweep`] ([`LbmMode::Simd`]) | + SIMD, no blocking |
/// | [`Temporal`](Self::Temporal) | [`try_lbm35d_sweep`] on whole-plane tiles ([`lbm_temporal_sweep`](crate::lbm_temporal_sweep) is its panicking form) | temporal-only blocking |
/// | [`Blocked35d`](Self::Blocked35d) | [`try_lbm35d_sweep`] ([`lbm35d_sweep`](crate::lbm35d_sweep) is its panicking form) | 3.5-D blocking |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LbmExec {
    /// Scalar pull–collide, no blocking.
    NaiveScalar,
    /// SIMD pull–collide, no blocking.
    NaiveSimd,
    /// Temporal-only blocking: the 3.5-D pipeline on whole-plane tiles.
    Temporal,
    /// The paper's 3.5-D blocking.
    Blocked35d,
}

impl LbmExec {
    /// Every rung, in ladder order.
    pub const ALL: [Self; 4] = [
        Self::NaiveScalar,
        Self::NaiveSimd,
        Self::Temporal,
        Self::Blocked35d,
    ];

    /// The `threefive lbm --variant` value.
    pub fn cli_name(self) -> &'static str {
        match self {
            Self::NaiveScalar => "scalar",
            Self::NaiveSimd => "simd",
            Self::Temporal => "temporal",
            Self::Blocked35d => "35d",
        }
    }

    /// The `variant` string of a BENCH report entry.
    pub fn label(self) -> &'static str {
        match self {
            Self::NaiveScalar => "scalar no-blocking",
            Self::NaiveSimd => "simd no-blocking",
            Self::Temporal => "temporal only",
            Self::Blocked35d => "3.5D blocking",
        }
    }

    /// Looks a rung up by its [`cli_name`](Self::cli_name).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.cli_name() == name)
    }

    /// Whether the rung streams time levels through the 3.5-D engine, and
    /// so takes `dim_T` and a schedule.
    pub fn temporal(self) -> bool {
        matches!(self, Self::Temporal | Self::Blocked35d)
    }

    /// Whether the rung runs through [`try_lbm35d_sweep`] and so reports
    /// to the [`Observer`] handed to [`sweep`](Self::sweep).
    pub fn observed(self) -> bool {
        matches!(self, Self::Temporal | Self::Blocked35d)
    }

    /// Advances `lat` by `steps` time steps on this rung and returns the
    /// site updates; bit-exact with the scalar naive sweep.
    ///
    /// `b` carries the requested tile, `dim_T` and schedule; the naive
    /// rungs ignore it, [`Temporal`](Self::Temporal) replaces the tile by
    /// the whole plane, and the tile is clamped to the lattice. The
    /// blocked rungs reject zero parameters through
    /// [`LbmBlocking::try_new`] as [`LbmError::InvalidBlocking`].
    /// `deadline` arms the blocked rungs' barrier watchdog.
    pub fn sweep<T: Real>(
        self,
        lat: &mut Lattice<T>,
        steps: usize,
        b: LbmBlocking,
        team: Option<&ThreadTeam>,
        deadline: Option<Duration>,
        obs: &Observer<'_>,
    ) -> Result<u64, LbmError> {
        let dim = lat.dim();
        let (x, y) = match self {
            Self::Temporal => (dim.nx, dim.ny),
            _ => (b.dim_x.min(dim.nx), b.dim_y.min(dim.ny)),
        };
        match self {
            Self::NaiveScalar => Ok(lbm_naive_sweep(lat, steps, LbmMode::Scalar, team)),
            Self::NaiveSimd => Ok(lbm_naive_sweep(lat, steps, LbmMode::Simd, team)),
            Self::Temporal | Self::Blocked35d => {
                let tiled = LbmBlocking::try_new(x, y, b.dim_t)?.with_schedule(b.schedule);
                try_lbm35d_sweep(lat, steps, tiled, team, deadline, obs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for e in LbmExec::ALL {
            assert_eq!(LbmExec::parse(e.cli_name()), Some(e));
            let same_label = LbmExec::ALL.iter().filter(|o| o.label() == e.label());
            assert_eq!(same_label.count(), 1, "{e:?}");
        }
        assert_eq!(LbmExec::parse("bogus"), None);
    }
}
