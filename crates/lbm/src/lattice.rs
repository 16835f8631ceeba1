//! The lattice container: double-buffered distributions, flags, and
//! observables.

use threefive_core::verify::first_non_finite;
use threefive_grid::{AlignedVec, CellFlags, CellKind, Dim3, Real, SoaGrid};

use crate::model::{equilibrium_site, C, Q};
use crate::LbmError;

/// Macroscopic state of one lattice site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Macroscopic<T> {
    /// Density ρ = Σᵢ fᵢ.
    pub rho: T,
    /// Velocity u = Σᵢ cᵢ fᵢ / ρ.
    pub u: [T; 3],
}

/// A D3Q19 lattice: two structure-of-arrays distribution grids (source and
/// destination, swapped each step), per-site flags, and the static
/// "simple" mask marking fluid sites with no obstacle neighbor (eligible
/// for branch-free SIMD updates).
///
/// Like [`DoubleGrid`](threefive_grid::DoubleGrid), the lattice can park
/// one *spare* distribution grid: scratch memory a driver that swapped a
/// third buffer in ([`replace_dst`](Lattice::replace_dst)) leaves behind
/// so its next job on this lattice faults in nothing.
pub struct Lattice<T: Real> {
    grids: [SoaGrid<T>; 2],
    src_is_zero: bool,
    spare: Option<SoaGrid<T>>,
    flags: CellFlags,
    simple: AlignedVec<u8>,
    /// Relaxation rate ω = 1/τ.
    pub omega: T,
}

impl<T: Real> Lattice<T> {
    /// Creates a lattice at uniform equilibrium (ρ = 1, u = 0) with
    /// all-fluid interior and the given flags.
    ///
    /// # Panics
    /// Panics if `flags` has different dimensions, if `omega` is not in
    /// `(0, 2)` (BGK stability range), or if any *face* site of the lattice
    /// is fluid — streaming would read outside the grid (mark faces
    /// [`CellKind::Obstacle`] or [`CellKind::Fixed`]).
    pub fn new(dim: Dim3, flags: CellFlags, omega: T) -> Self {
        assert_eq!(flags.dim(), dim, "Lattice: flag dimensions mismatch");
        assert!(
            omega.to_f64() > 0.0 && omega.to_f64() < 2.0,
            "Lattice: omega must be in (0, 2)"
        );
        for z in 0..dim.nz {
            for y in 0..dim.ny {
                for x in 0..dim.nx {
                    let face = x == 0
                        || x + 1 == dim.nx
                        || y == 0
                        || y + 1 == dim.ny
                        || z == 0
                        || z + 1 == dim.nz;
                    if face {
                        assert!(
                            flags.get(x, y, z) != CellKind::Fluid,
                            "Lattice: face site ({x},{y},{z}) must not be fluid"
                        );
                    }
                }
            }
        }
        let mut grids = [SoaGrid::zeros(dim, Q), SoaGrid::zeros(dim, Q)];
        let eq = equilibrium_site(T::ONE, [T::ZERO; 3]);
        for g in &mut grids {
            for (i, &v) in eq.iter().enumerate() {
                g.comp_mut(i).fill(v);
            }
        }
        let simple = compute_simple_mask(dim, &flags);
        Self {
            grids,
            src_is_zero: true,
            spare: None,
            flags,
            simple,
            omega,
        }
    }

    /// Lattice extents.
    pub fn dim(&self) -> Dim3 {
        self.flags.dim()
    }

    /// Site flags.
    pub fn flags(&self) -> &CellFlags {
        &self.flags
    }

    /// The "simple" mask: 1 for fluid sites with no obstacle among their 18
    /// neighbors (SIMD-eligible), 0 otherwise. Layout order.
    pub fn simple_mask(&self) -> &[u8] {
        &self.simple
    }

    /// Source (current time) distributions.
    pub fn src(&self) -> &SoaGrid<T> {
        &self.grids[if self.src_is_zero { 0 } else { 1 }]
    }

    /// Destination distributions.
    pub fn dst(&self) -> &SoaGrid<T> {
        &self.grids[if self.src_is_zero { 1 } else { 0 }]
    }

    /// Mutable destination distributions.
    pub fn dst_mut(&mut self) -> &mut SoaGrid<T> {
        &mut self.grids[if self.src_is_zero { 1 } else { 0 }]
    }

    /// Source and mutable destination together.
    pub fn pair_mut(&mut self) -> (&SoaGrid<T>, &mut SoaGrid<T>) {
        let (a, b) = self.grids.split_at_mut(1);
        if self.src_is_zero {
            (&a[0], &mut b[0])
        } else {
            (&b[0], &mut a[0])
        }
    }

    /// Swaps source and destination (O(1)).
    pub fn swap(&mut self) {
        self.src_is_zero = !self.src_is_zero;
    }

    /// Installs `new_dst` as the destination and returns the grid it
    /// displaces — an O(1) pointer move. Every executor writes all `Q`
    /// components of every destination site each step, so the contents
    /// of `new_dst` never reach a result.
    ///
    /// # Panics
    /// Panics if `new_dst` has different extents or component count.
    pub fn replace_dst(&mut self, new_dst: SoaGrid<T>) -> SoaGrid<T> {
        assert!(
            self.fits(&new_dst),
            "Lattice::replace_dst dimension mismatch"
        );
        std::mem::replace(self.dst_mut(), new_dst)
    }

    /// Takes the parked spare grid, if there is one.
    pub fn take_spare(&mut self) -> Option<SoaGrid<T>> {
        self.spare.take()
    }

    /// Parks `grid` as the spare, replacing any previous one. A grid of
    /// different extents or component count is dropped instead.
    pub fn park_spare(&mut self, grid: SoaGrid<T>) {
        self.spare = self.fits(&grid).then_some(grid);
    }

    fn fits(&self, grid: &SoaGrid<T>) -> bool {
        grid.dim() == self.dim() && grid.q_count() == Q
    }

    /// NaN/±∞ guard over every distribution component of the source grid:
    /// the first offender in component order, then row-major site order.
    /// Runs on the same scanner as the stencil guard
    /// ([`first_non_finite`]).
    pub fn check_finite(&self) -> Result<(), LbmError> {
        let src = self.src();
        for q in 0..Q {
            if let Some(i) = first_non_finite(src.comp(q)) {
                return Err(LbmError::NonFinite {
                    comp: q,
                    at: self.dim().coords(i),
                    value: src.comp(q)[i].to_f64(),
                });
            }
        }
        Ok(())
    }

    /// Splits the lattice into all the parts one time step needs: flags,
    /// simple mask, source grid, and mutable destination grid.
    pub fn split_step(&mut self) -> (&CellFlags, &[u8], &SoaGrid<T>, &mut SoaGrid<T>) {
        let (a, b) = self.grids.split_at_mut(1);
        let (src, dst) = if self.src_is_zero {
            (&a[0], &mut b[0])
        } else {
            (&b[0], &mut a[0])
        };
        (&self.flags, &self.simple, src, dst)
    }

    /// Sets one site of the **source** grid to the equilibrium state for
    /// `(rho, u)` (initialisation / fixed boundary values).
    pub fn set_equilibrium(&mut self, x: usize, y: usize, z: usize, rho: T, u: [T; 3]) {
        let f = equilibrium_site(rho, u);
        self.set_site(x, y, z, &f);
    }

    /// Sets one site's raw distributions in **both** buffers (so the value
    /// survives swaps; used for initialisation and halo construction).
    ///
    /// # Panics
    /// Panics if `values.len() != 19`.
    pub fn set_site(&mut self, x: usize, y: usize, z: usize, values: &[T]) {
        let idx = if self.src_is_zero { 0 } else { 1 };
        self.grids[idx].set_site(x, y, z, values);
        // Fixed sites are copied from the source grid by every executor, so
        // mirroring into the other buffer keeps both time parities correct.
        self.grids[1 - idx].set_site(x, y, z, values);
    }

    /// Macroscopic state of one site of the source grid.
    pub fn macroscopic(&self, x: usize, y: usize, z: usize) -> Macroscopic<T> {
        let f = self.src().site(x, y, z);
        let mut rho = T::ZERO;
        for &v in &f {
            rho += v;
        }
        let mut u = [T::ZERO; 3];
        for (i, &v) in f.iter().enumerate() {
            let (cx, cy, cz) = C[i];
            if cx != 0 {
                u[0] += v * T::from_f64(cx as f64);
            }
            if cy != 0 {
                u[1] += v * T::from_f64(cy as f64);
            }
            if cz != 0 {
                u[2] += v * T::from_f64(cz as f64);
            }
        }
        for c in &mut u {
            *c = *c / rho;
        }
        Macroscopic { rho, u }
    }

    /// Kinematic viscosity implied by the relaxation rate:
    /// `ν = (1/ω − 1/2) / 3` in lattice units.
    pub fn viscosity(&self) -> f64 {
        (1.0 / self.omega.to_f64() - 0.5) / 3.0
    }

    /// Reynolds number of a flow with characteristic speed `u` and length
    /// `l` (in lattice units) at this lattice's viscosity.
    pub fn reynolds(&self, u: f64, l: f64) -> f64 {
        u * l / self.viscosity()
    }

    /// Density of every site as a scalar grid (obstacle/fixed sites report
    /// their stored distributions' density).
    pub fn density_field(&self) -> threefive_grid::Grid3<T> {
        let dim = self.dim();
        threefive_grid::Grid3::from_fn(dim, |x, y, z| self.macroscopic(x, y, z).rho)
    }

    /// The three velocity components as scalar grids (zero at non-fluid
    /// sites, whose "velocity" has no physical meaning).
    pub fn velocity_field(&self) -> [threefive_grid::Grid3<T>; 3] {
        let dim = self.dim();
        let comp = |axis: usize| {
            threefive_grid::Grid3::from_fn(dim, |x, y, z| {
                if self.flags.get(x, y, z) == CellKind::Fluid {
                    self.macroscopic(x, y, z).u[axis]
                } else {
                    T::ZERO
                }
            })
        };
        [comp(0), comp(1), comp(2)]
    }

    /// Largest fluid speed on the lattice — the stability telltale (BGK
    /// wants |u| well below the lattice sound speed 1/√3 ≈ 0.577).
    pub fn max_speed(&self) -> f64 {
        let dim = self.dim();
        let mut max = 0.0f64;
        for z in 0..dim.nz {
            for y in 0..dim.ny {
                for x in 0..dim.nx {
                    if self.flags.get(x, y, z) != CellKind::Fluid {
                        continue;
                    }
                    let m = self.macroscopic(x, y, z);
                    let s2 = (m.u[0] * m.u[0] + m.u[1] * m.u[1] + m.u[2] * m.u[2]).to_f64();
                    max = max.max(s2);
                }
            }
        }
        max.sqrt()
    }

    /// Total kinetic energy ½ Σ ρ|u|² over fluid sites.
    pub fn kinetic_energy(&self) -> f64 {
        let dim = self.dim();
        let mut e = 0.0f64;
        for z in 0..dim.nz {
            for y in 0..dim.ny {
                for x in 0..dim.nx {
                    if self.flags.get(x, y, z) != CellKind::Fluid {
                        continue;
                    }
                    let m = self.macroscopic(x, y, z);
                    let u2 = (m.u[0] * m.u[0] + m.u[1] * m.u[1] + m.u[2] * m.u[2]).to_f64();
                    e += 0.5 * m.rho.to_f64() * u2;
                }
            }
        }
        e
    }

    /// Total mass over fluid sites of the source grid (conserved by
    /// collision and bounce-back).
    pub fn fluid_mass(&self) -> f64 {
        let dim = self.dim();
        let src = self.src();
        let mut total = 0.0f64;
        for z in 0..dim.nz {
            for y in 0..dim.ny {
                for x in 0..dim.nx {
                    if self.flags.get(x, y, z) == CellKind::Fluid {
                        for q in 0..Q {
                            total += src.get(q, x, y, z).to_f64();
                        }
                    }
                }
            }
        }
        total
    }
}

/// A fluid site is "simple" when none of its 18 neighbors is an obstacle:
/// its pull update needs no bounce-back branches and can run in SIMD.
fn compute_simple_mask(dim: Dim3, flags: &CellFlags) -> AlignedVec<u8> {
    let mut mask = AlignedVec::<u8>::zeroed(dim.len());
    for z in 0..dim.nz {
        for y in 0..dim.ny {
            for x in 0..dim.nx {
                if flags.get(x, y, z) != CellKind::Fluid {
                    continue;
                }
                let ok = C.iter().skip(1).all(|&(cx, cy, cz)| {
                    let nx = x as i64 - cx as i64;
                    let ny = y as i64 - cy as i64;
                    let nz = z as i64 - cz as i64;
                    // Fluid faces are rejected at construction, so all
                    // neighbors are in bounds.
                    flags.get(nx as usize, ny as usize, nz as usize) != CellKind::Obstacle
                });
                if ok {
                    mask[dim.idx(x, y, z)] = 1;
                }
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn new_lattice_is_uniform_equilibrium() {
        let lat = scenarios::closed_box::<f64>(Dim3::cube(6), 1.25);
        let m = lat.macroscopic(3, 3, 3);
        assert!((m.rho.to_f64() - 1.0).abs() < 1e-12);
        for c in m.u {
            assert!(c.abs().to_f64() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "must not be fluid")]
    fn fluid_faces_are_rejected() {
        let d = Dim3::cube(4);
        let flags = CellFlags::all_fluid(d);
        let _ = Lattice::<f32>::new(d, flags, 1.0);
    }

    #[test]
    #[should_panic(expected = "omega must be in")]
    fn unstable_omega_rejected() {
        let d = Dim3::cube(4);
        let mut flags = CellFlags::all_fluid(d);
        paint_walls(&mut flags);
        let _ = Lattice::<f32>::new(d, flags, 2.5);
    }

    fn paint_walls(flags: &mut CellFlags) {
        let d = flags.dim();
        for z in 0..d.nz {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    if x == 0 || x + 1 == d.nx || y == 0 || y + 1 == d.ny || z == 0 || z + 1 == d.nz
                    {
                        flags.set(x, y, z, CellKind::Obstacle);
                    }
                }
            }
        }
    }

    #[test]
    fn simple_mask_excludes_wall_adjacent_sites() {
        let lat = scenarios::closed_box::<f32>(Dim3::cube(6), 1.0);
        let d = lat.dim();
        let mask = lat.simple_mask();
        // Site adjacent to a wall: not simple.
        assert_eq!(mask[d.idx(1, 3, 3)], 0);
        // Central site in a 6³ box: neighbors are 1..4 — (2,2,2) has
        // neighbor (1,..) which touches the wall? No: neighbor (1,2,2) is
        // fluid; only obstacle neighbors disqualify. Walls are at 0 and 5.
        assert_eq!(mask[d.idx(2, 2, 2)], 1);
        assert_eq!(mask[d.idx(3, 3, 3)], 1);
        // Obstacle sites are never simple.
        assert_eq!(mask[d.idx(0, 0, 0)], 0);
    }

    #[test]
    fn set_equilibrium_updates_both_buffers() {
        let mut lat = scenarios::closed_box::<f64>(Dim3::cube(5), 1.0);
        lat.set_equilibrium(2, 2, 2, 1.2, [0.05, 0.0, 0.0]);
        let m = lat.macroscopic(2, 2, 2);
        assert!((m.rho.to_f64() - 1.2).abs() < 1e-12);
        lat.swap();
        let m2 = lat.macroscopic(2, 2, 2);
        assert!((m2.rho.to_f64() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn replace_dst_and_spare_move_buffers_without_copying() {
        let d = Dim3::cube(5);
        let mut lat = scenarios::closed_box::<f32>(d, 1.0);
        let old_dst = lat.dst().comp(0).as_ptr();
        let third = SoaGrid::<f32>::zeros(d, Q);
        let third_ptr = third.comp(0).as_ptr();
        let displaced = lat.replace_dst(third);
        assert_eq!(displaced.comp(0).as_ptr(), old_dst);
        assert_eq!(lat.dst().comp(0).as_ptr(), third_ptr);

        assert!(lat.take_spare().is_none());
        lat.park_spare(SoaGrid::zeros(Dim3::cube(4), Q));
        assert!(lat.take_spare().is_none(), "mismatched spare is dropped");
        lat.park_spare(SoaGrid::zeros(d, 3));
        assert!(lat.take_spare().is_none(), "wrong arity is dropped");
        lat.park_spare(displaced);
        assert_eq!(lat.take_spare().unwrap().comp(0).as_ptr(), old_dst);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn replace_dst_rejects_other_extents() {
        let mut lat = scenarios::closed_box::<f32>(Dim3::cube(5), 1.0);
        lat.replace_dst(SoaGrid::zeros(Dim3::cube(6), Q));
    }

    #[test]
    fn viscosity_and_reynolds_follow_bgk_formulas() {
        let lat = scenarios::closed_box::<f64>(Dim3::cube(4), 1.0);
        // ω = 1 ⇒ τ = 1 ⇒ ν = (1 − 0.5)/3 = 1/6.
        assert!((lat.viscosity() - 1.0 / 6.0).abs() < 1e-12);
        assert!((lat.reynolds(0.1, 48.0) - 0.1 * 48.0 * 6.0).abs() < 1e-9);
        // ω → 2 drives viscosity to zero (the stability edge).
        let thin = scenarios::closed_box::<f64>(Dim3::cube(4), 1.99);
        assert!(thin.viscosity() < 0.002);
    }

    #[test]
    fn field_extraction_matches_pointwise_macroscopics() {
        let d = Dim3::cube(5);
        let mut lat = scenarios::closed_box::<f64>(d, 1.1);
        lat.set_equilibrium(2, 2, 2, 1.3, [0.05, -0.02, 0.01]);
        let rho = lat.density_field();
        let [ux, uy, uz] = lat.velocity_field();
        assert!((rho.get(2, 2, 2) - 1.3).abs() < 1e-12);
        assert!((ux.get(2, 2, 2) - 0.05).abs() < 1e-12);
        assert!((uy.get(2, 2, 2) + 0.02).abs() < 1e-12);
        assert!((uz.get(2, 2, 2) - 0.01).abs() < 1e-12);
        // Non-fluid sites report zero velocity.
        assert_eq!(ux.get(0, 0, 0), 0.0);
    }

    #[test]
    fn energy_and_speed_observables() {
        let d = Dim3::cube(6);
        let mut lat = scenarios::closed_box::<f64>(d, 1.1);
        assert_eq!(lat.kinetic_energy(), 0.0);
        assert_eq!(lat.max_speed(), 0.0);
        lat.set_equilibrium(3, 3, 3, 1.0, [0.1, 0.0, 0.0]);
        assert!((lat.max_speed() - 0.1).abs() < 1e-12);
        assert!((lat.kinetic_energy() - 0.5 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn fluid_mass_counts_only_fluid_sites() {
        let d = Dim3::cube(5);
        let lat = scenarios::closed_box::<f64>(d, 1.0);
        let fluid_sites = lat.flags().count(CellKind::Fluid);
        assert_eq!(fluid_sites, 27); // 3³ interior
        assert!((lat.fluid_mass() - 27.0).abs() < 1e-9);
    }
}
