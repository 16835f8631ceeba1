//! Jacobi-style read/write grid pair.

use crate::{Dim3, Grid3, Real};

/// A pair of grids for Jacobi-type sweeps: one read, one written, swapped
/// between time steps (paper §IV: "the roles of the grids are swapped").
///
/// The pair can also park one *spare* grid of the same extents: a driver
/// that swapped a third buffer into the pair ([`replace_dst`]) leaves the
/// displaced one here so its next job on this pair faults in no fresh
/// memory. The spare is scratch — its contents mean nothing and `Clone`
/// does not copy it.
///
/// [`replace_dst`]: DoubleGrid::replace_dst
#[derive(Debug)]
pub struct DoubleGrid<T: Real> {
    grids: [Grid3<T>; 2],
    src_is_zero: bool,
    spare: Option<Grid3<T>>,
}

impl<T: Real> Clone for DoubleGrid<T> {
    fn clone(&self) -> Self {
        Self {
            grids: self.grids.clone(),
            src_is_zero: self.src_is_zero,
            spare: None,
        }
    }
}

impl<T: Real> DoubleGrid<T> {
    /// Creates a pair of zero grids.
    pub fn zeros(dim: Dim3) -> Self {
        Self {
            grids: [Grid3::zeros(dim), Grid3::zeros(dim)],
            src_is_zero: true,
            spare: None,
        }
    }

    /// Creates a pair whose source grid is `initial`; the destination starts
    /// as a copy so that boundary (never-written) cells carry the correct
    /// Dirichlet values after a sweep.
    pub fn from_initial(initial: Grid3<T>) -> Self {
        let dst = initial.clone();
        Self {
            grids: [initial, dst],
            src_is_zero: true,
            spare: None,
        }
    }

    /// Grid extents.
    pub fn dim(&self) -> Dim3 {
        self.grids[0].dim()
    }

    /// The grid read in the current time step.
    #[inline]
    pub fn src(&self) -> &Grid3<T> {
        &self.grids[if self.src_is_zero { 0 } else { 1 }]
    }

    /// The grid written in the current time step.
    #[inline]
    pub fn dst(&self) -> &Grid3<T> {
        &self.grids[if self.src_is_zero { 1 } else { 0 }]
    }

    /// Mutable destination grid.
    #[inline]
    pub fn dst_mut(&mut self) -> &mut Grid3<T> {
        &mut self.grids[if self.src_is_zero { 1 } else { 0 }]
    }

    /// Both grids at once: `(source, destination)`, destination mutable.
    #[inline]
    pub fn pair_mut(&mut self) -> (&Grid3<T>, &mut Grid3<T>) {
        let (a, b) = self.grids.split_at_mut(1);
        if self.src_is_zero {
            (&a[0], &mut b[0])
        } else {
            (&b[0], &mut a[0])
        }
    }

    /// Swaps source and destination (O(1), no copy).
    #[inline]
    pub fn swap(&mut self) {
        self.src_is_zero = !self.src_is_zero;
    }

    /// Installs `new_dst` as the destination and returns the grid it
    /// displaces — an O(1) pointer move, no element is copied.
    ///
    /// Executors never write the Dirichlet rim of the destination, so the
    /// caller must have given `new_dst` the rim it wants results to carry.
    ///
    /// # Panics
    /// Panics if `new_dst` has different extents.
    pub fn replace_dst(&mut self, new_dst: Grid3<T>) -> Grid3<T> {
        assert_eq!(
            new_dst.dim(),
            self.dim(),
            "DoubleGrid::replace_dst dimension mismatch"
        );
        std::mem::replace(self.dst_mut(), new_dst)
    }

    /// Takes the parked spare grid, if there is one.
    pub fn take_spare(&mut self) -> Option<Grid3<T>> {
        self.spare.take()
    }

    /// Parks `grid` as the spare, replacing any previous one. A grid of
    /// different extents is dropped instead.
    pub fn park_spare(&mut self, grid: Grid3<T>) {
        self.spare = (grid.dim() == self.dim()).then_some(grid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_exchanges_roles_without_copying() {
        let d = Dim3::cube(3);
        let mut dg = DoubleGrid::<f64>::zeros(d);
        dg.dst_mut().set(1, 1, 1, 42.0);
        assert_eq!(dg.src().get(1, 1, 1), 0.0);
        dg.swap();
        assert_eq!(dg.src().get(1, 1, 1), 42.0);
        assert_eq!(dg.dst().get(1, 1, 1), 0.0);
        dg.swap();
        assert_eq!(dg.src().get(1, 1, 1), 0.0);
    }

    #[test]
    fn from_initial_copies_boundary_into_destination() {
        let d = Dim3::cube(4);
        let init = Grid3::<f32>::from_fn(d, |x, y, z| (x + y + z) as f32);
        let dg = DoubleGrid::from_initial(init.clone());
        // Destination starts as a copy: boundary cells that a sweep never
        // writes will still hold their Dirichlet values after swap.
        assert_eq!(dg.dst().as_slice(), init.as_slice());
    }

    #[test]
    fn replace_dst_moves_buffers_without_copying() {
        let d = Dim3::cube(3);
        let mut dg = DoubleGrid::from_initial(Grid3::<f32>::splat(d, 1.0));
        let old_dst = dg.dst().as_slice().as_ptr();
        let third = Grid3::<f32>::splat(d, 3.0);
        let third_ptr = third.as_slice().as_ptr();
        let displaced = dg.replace_dst(third);
        assert_eq!(displaced.as_slice().as_ptr(), old_dst);
        assert_eq!(dg.dst().as_slice().as_ptr(), third_ptr);
        assert_eq!(dg.src().get(1, 1, 1), 1.0);
        // After a swap the replaced slot follows the roles, not the index.
        dg.swap();
        let back = dg.replace_dst(displaced);
        assert_eq!(back.get(0, 0, 0), 1.0);
        assert_eq!(dg.src().get(0, 0, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn replace_dst_rejects_other_extents() {
        let mut dg = DoubleGrid::<f64>::zeros(Dim3::cube(3));
        dg.replace_dst(Grid3::zeros(Dim3::cube(4)));
    }

    #[test]
    fn spare_is_scratch_not_state() {
        let d = Dim3::cube(3);
        let mut dg = DoubleGrid::<f64>::zeros(d);
        assert!(dg.take_spare().is_none());
        dg.park_spare(Grid3::zeros(Dim3::cube(4)));
        assert!(dg.take_spare().is_none(), "mismatched spare is dropped");
        dg.park_spare(Grid3::splat(d, 5.0));
        assert!(dg.clone().take_spare().is_none(), "Clone skips the spare");
        assert_eq!(dg.take_spare().unwrap().get(0, 0, 0), 5.0);
        assert!(dg.take_spare().is_none());
    }

    #[test]
    fn pair_mut_yields_distinct_grids() {
        let d = Dim3::cube(2);
        let mut dg = DoubleGrid::<f64>::zeros(d);
        {
            let (src, dst) = dg.pair_mut();
            assert_eq!(src.get(0, 0, 0), 0.0);
            dst.set(0, 0, 0, 7.0);
        }
        assert_eq!(dg.dst().get(0, 0, 0), 7.0);
        assert_eq!(dg.src().get(0, 0, 0), 0.0);
        dg.swap();
        let (src, dst) = dg.pair_mut();
        assert_eq!(src.get(0, 0, 0), 7.0);
        assert_eq!(dst.get(0, 0, 0), 0.0);
    }
}
