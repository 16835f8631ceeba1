//! Dense 3-D scalar grid.

use crate::{AlignedVec, Dim3, Real, Region3};

/// A dense 3-D grid of scalars, row-major with X fastest, backed by
/// 64-byte-aligned storage.
#[derive(Clone, Debug)]
pub struct Grid3<T: Real> {
    dim: Dim3,
    data: AlignedVec<T>,
}

impl<T: Real> Grid3<T> {
    /// Creates a zero-filled grid.
    pub fn zeros(dim: Dim3) -> Self {
        Self {
            dim,
            data: AlignedVec::zeroed(dim.len()),
        }
    }

    /// Creates a grid filled with `value`.
    pub fn splat(dim: Dim3, value: T) -> Self {
        Self {
            dim,
            data: AlignedVec::splat(dim.len(), value),
        }
    }

    /// Creates a grid by evaluating `f(x, y, z)` at every point.
    pub fn from_fn(dim: Dim3, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let mut g = Self::zeros(dim);
        for z in 0..dim.nz {
            for y in 0..dim.ny {
                let row = g.row_mut(y, z);
                for (x, slot) in row.iter_mut().enumerate() {
                    *slot = f(x, y, z);
                }
            }
        }
        g
    }

    /// Grid extents.
    #[inline]
    pub fn dim(&self) -> Dim3 {
        self.dim
    }

    /// Immutable view of the whole backing slice (layout order).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the whole backing slice (layout order).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Value at `(x, y, z)`.
    #[inline(always)]
    pub fn get(&self, x: usize, y: usize, z: usize) -> T {
        self.data[self.dim.idx(x, y, z)]
    }

    /// Sets the value at `(x, y, z)`.
    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.dim.idx(x, y, z);
        self.data[i] = v;
    }

    /// The X row at `(y, z)` as a slice.
    #[inline]
    pub fn row(&self, y: usize, z: usize) -> &[T] {
        let start = self.dim.idx(0, y, z);
        &self.data[start..start + self.dim.nx]
    }

    /// The X row at `(y, z)` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, y: usize, z: usize) -> &mut [T] {
        let start = self.dim.idx(0, y, z);
        let nx = self.dim.nx;
        &mut self.data[start..start + nx]
    }

    /// The XY plane at `z` as a slice of `nx*ny` values.
    #[inline]
    pub fn plane(&self, z: usize) -> &[T] {
        let start = self.dim.idx(0, 0, z);
        &self.data[start..start + self.dim.plane_len()]
    }

    /// The XY plane at `z` as a mutable slice.
    #[inline]
    pub fn plane_mut(&mut self, z: usize) -> &mut [T] {
        let start = self.dim.idx(0, 0, z);
        let n = self.dim.plane_len();
        &mut self.data[start..start + n]
    }

    /// Copies every value of `src` into `self`.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.dim, src.dim, "Grid3::copy_from dimension mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Copies the width-`r` boundary shell of `src` into `self` — exactly
    /// the cells a Dirichlet sweep of radius `r` never writes. O(n²)
    /// elements for a fixed `r`; the interior is left untouched.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn copy_rim_from(&mut self, src: &Self, r: usize) {
        assert_eq!(self.dim, src.dim, "Grid3::copy_rim_from dimension mismatch");
        let dim = self.dim;
        let inner = dim.interior_region(r);
        let (xs, ys, zs) = (inner.xs(), inner.ys(), inner.zs());
        for z in 0..dim.nz {
            for y in 0..dim.ny {
                let (to, from) = (self.row_mut(y, z), src.row(y, z));
                if zs.contains(&z) && ys.contains(&y) {
                    to[..xs.start].copy_from_slice(&from[..xs.start]);
                    to[xs.end..].copy_from_slice(&from[xs.end..]);
                } else {
                    to.copy_from_slice(from);
                }
            }
        }
    }

    /// Fills a region with `value`.
    pub fn fill_region(&mut self, region: &Region3, value: T) {
        for z in region.zs() {
            for y in region.ys() {
                let row = self.row_mut(y, z);
                row[region.xs()].fill(value);
            }
        }
    }

    /// Maximum absolute difference with another grid over `region`.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn max_abs_diff(&self, other: &Self, region: &Region3) -> f64 {
        assert_eq!(
            self.dim, other.dim,
            "Grid3::max_abs_diff dimension mismatch"
        );
        let mut m = 0.0f64;
        for (x, y, z) in region.points() {
            let d = (self.get(x, y, z).to_f64() - other.get(x, y, z).to_f64()).abs();
            m = m.max(d);
        }
        m
    }

    /// Asserts per-point closeness with `other` over `region`, reporting the
    /// first offending point. `tol` is relative-or-absolute (see
    /// [`Real::close_to`]).
    ///
    /// # Panics
    /// Panics on dimension mismatch or on the first point exceeding `tol`.
    pub fn assert_close(&self, other: &Self, region: &Region3, tol: f64) {
        assert_eq!(
            self.dim, other.dim,
            "Grid3::assert_close dimension mismatch"
        );
        for (x, y, z) in region.points() {
            let a = self.get(x, y, z);
            let b = other.get(x, y, z);
            assert!(
                a.close_to(b, tol),
                "grids differ at ({x},{y},{z}): {a} vs {b} (tol {tol})"
            );
        }
    }

    /// Sum of all values as `f64` (diagnostics; not a compensated sum).
    pub fn total(&self) -> f64 {
        self.data.iter().map(|v| v.to_f64()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_places_values_by_coordinates() {
        let d = Dim3::new(3, 4, 5);
        let g = Grid3::<f64>::from_fn(d, |x, y, z| (x + 10 * y + 100 * z) as f64);
        for z in 0..d.nz {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    assert_eq!(g.get(x, y, z), (x + 10 * y + 100 * z) as f64);
                }
            }
        }
    }

    #[test]
    fn rows_and_planes_are_contiguous_views() {
        let d = Dim3::new(4, 3, 2);
        let g = Grid3::<f32>::from_fn(d, |x, y, z| d.idx(x, y, z) as f32);
        assert_eq!(g.row(1, 1), &[16.0, 17.0, 18.0, 19.0]);
        assert_eq!(g.plane(1).len(), 12);
        assert_eq!(g.plane(1)[0], 12.0);
    }

    #[test]
    fn row_base_addresses_follow_layout() {
        let d = Dim3::new(8, 2, 2);
        let g = Grid3::<f64>::zeros(d);
        let base = g.as_slice().as_ptr() as usize;
        let row = g.row(1, 1).as_ptr() as usize;
        assert_eq!((row - base) / std::mem::size_of::<f64>(), d.idx(0, 1, 1));
    }

    #[test]
    fn fill_region_touches_only_the_region() {
        let d = Dim3::cube(4);
        let mut g = Grid3::<f32>::zeros(d);
        let r = Region3::new(1, 3, 1, 3, 1, 3);
        g.fill_region(&r, 5.0);
        for (x, y, z) in d.full_region().points() {
            let expect = if r.contains(x, y, z) { 5.0 } else { 0.0 };
            assert_eq!(g.get(x, y, z), expect);
        }
    }

    #[test]
    fn max_abs_diff_sees_the_largest_deviation() {
        let d = Dim3::cube(3);
        let a = Grid3::<f64>::splat(d, 1.0);
        let mut b = a.clone();
        b.set(2, 1, 0, 1.5);
        b.set(0, 0, 2, 0.25);
        assert_eq!(a.max_abs_diff(&b, &d.full_region()), 0.75);
        // Restricting the region hides the larger deviation.
        let r = Region3::new(0, 3, 0, 3, 0, 1);
        assert_eq!(a.max_abs_diff(&b, &r), 0.5);
    }

    #[test]
    #[should_panic(expected = "grids differ")]
    fn assert_close_reports_mismatch() {
        let d = Dim3::cube(2);
        let a = Grid3::<f32>::splat(d, 1.0);
        let b = Grid3::<f32>::splat(d, 2.0);
        a.assert_close(&b, &d.full_region(), 1e-6);
    }

    #[test]
    fn copy_rim_from_copies_the_shell_and_nothing_else() {
        for (d, r) in [
            (Dim3::new(7, 6, 5), 1usize),
            (Dim3::new(9, 8, 7), 2),
            (Dim3::new(5, 2, 5), 1), // no interior: everything is rim
            (Dim3::cube(4), 0),      // no rim at all
        ] {
            let src = Grid3::<f32>::from_fn(d, |x, y, z| (1 + d.idx(x, y, z)) as f32);
            let mut dst = Grid3::<f32>::splat(d, -1.0);
            dst.copy_rim_from(&src, r);
            for (x, y, z) in d.full_region().points() {
                let want = if d.is_interior(x, y, z, r) {
                    -1.0
                } else {
                    src.get(x, y, z)
                };
                assert_eq!(dst.get(x, y, z), want, "{d} r={r} at ({x},{y},{z})");
            }
        }
    }

    #[test]
    fn copy_from_duplicates_contents() {
        let d = Dim3::new(5, 2, 2);
        let src = Grid3::<f64>::from_fn(d, |x, _, _| x as f64);
        let mut dst = Grid3::<f64>::zeros(d);
        dst.copy_from(&src);
        assert_eq!(dst.as_slice(), src.as_slice());
    }
}
