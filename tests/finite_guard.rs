//! Differential test of the non-finite guard: the blocked, branch-free
//! scanner behind `check_finite` / `Lattice::check_finite` against the
//! element-by-element early-exit scan it replaced. Same verdict, same
//! first offender in row-major order, same reported value — for both
//! precisions, on `Grid3` and on every `SoaGrid` component.

use threefive::core::verify::first_non_finite;
use threefive::lbm::{scenarios, LbmError};
use threefive::prelude::*;

/// The scan the guard used before: stop at the first non-finite value.
fn old_scan<T: Real>(vals: &[T]) -> Option<usize> {
    vals.iter().position(|v| !v.to_f64().is_finite())
}

/// The scanner's reduction block (private to `core::verify`); the cases
/// below only need positions on both sides of a multiple of it.
const BLOCK: usize = 1024;

fn offenders<T: Real>() -> [T; 3] {
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(T::from_f64)
}

fn scanner_agrees_with_the_old_scan<T: Real>(finite_specials: &[T]) {
    let lengths = [
        0usize,
        1,
        15,
        16,
        17,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        2 * BLOCK + 7,
        3000,
    ];
    for len in lengths {
        // Finite data only — including denormals, −0.0 and ±MAX.
        let clean: Vec<T> = (0..len)
            .map(
                |i| match finite_specials.get(i % (finite_specials.len() + 3)) {
                    Some(&v) => v,
                    None => T::from_f64(i as f64 * 0.25 - 3.0),
                },
            )
            .collect();
        assert_eq!(old_scan(&clean), None);
        assert_eq!(first_non_finite(&clean), None, "len={len}");
        if len == 0 {
            continue;
        }

        // One offender: first and last element, every lane offset 0..16
        // from the start and from just below a block boundary (so the
        // offsets straddle it).
        let mut positions = vec![0, len - 1];
        for base in [0, BLOCK - 8, 2 * BLOCK - 8] {
            positions.extend((0..16).map(|lane| base + lane).filter(|&p| p < len));
        }
        for &p in &positions {
            for bad in offenders::<T>() {
                let mut v = clean.clone();
                v[p] = bad;
                assert_eq!(first_non_finite(&v), Some(p), "len={len} p={p} {bad}");
                assert_eq!(first_non_finite(&v), old_scan(&v));
            }
        }

        // Two offenders: the first in layout order is reported, whether
        // they share a block or not.
        for &(a, b) in &[(0usize, len - 1), (len / 3, len / 2), (len / 2, len - 1)] {
            let [nan, inf, _] = offenders::<T>();
            let mut v = clean.clone();
            v[b] = nan;
            v[a] = inf;
            assert_eq!(first_non_finite(&v), Some(a.min(b)), "len={len} ({a}, {b})");
            assert_eq!(first_non_finite(&v), old_scan(&v));
        }
    }
}

#[test]
fn scanner_agrees_with_the_old_scan_f32() {
    scanner_agrees_with_the_old_scan::<f32>(&[
        f32::MIN_POSITIVE / 4.0, // denormal
        -f32::MIN_POSITIVE / 4.0,
        -0.0,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        f32::EPSILON,
    ]);
}

#[test]
fn scanner_agrees_with_the_old_scan_f64() {
    scanner_agrees_with_the_old_scan::<f64>(&[
        f64::MIN_POSITIVE / 4.0, // denormal
        -f64::MIN_POSITIVE / 4.0,
        -0.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::EPSILON,
    ]);
}

fn grid_guard_reports_the_row_major_first<T: Real>() {
    // 11 · 7 · 19 = 1463 elements: not a multiple of the block, and the
    // boundary falls mid-row.
    let dim = Dim3::new(11, 7, 19);
    let clean = Grid3::<T>::from_fn(dim, |x, y, z| T::from_f64((x + 2 * y + 3 * z) as f64));
    assert_eq!(check_finite(&clean), Ok(()));
    let sites = [
        (0, 0, 0),
        (10, 6, 18),
        dim.coords(BLOCK - 1),
        dim.coords(BLOCK),
        (5, 3, 9),
    ];
    for at in sites {
        for bad in offenders::<T>() {
            let mut g = clean.clone();
            g.set(at.0, at.1, at.2, bad);
            // A later offender must not change the report.
            g.set(10, 6, 18, bad);
            match check_finite(&g) {
                Err(ExecError::NonFinite { at: got, value }) => {
                    assert_eq!(got, at);
                    assert_eq!(value.to_bits(), bad.to_f64().to_bits());
                    assert_eq!(dim.idx(at.0, at.1, at.2), old_scan(g.as_slice()).unwrap());
                }
                other => panic!("expected NonFinite at {at:?}, got {other:?}"),
            }
        }
    }
}

#[test]
fn grid_guard_reports_the_row_major_first_offender() {
    grid_guard_reports_the_row_major_first::<f32>();
    grid_guard_reports_the_row_major_first::<f64>();
}

fn lattice_guard_names_the_component<T: Real>() {
    // 12³ = 1728 sites per component: the block boundary is mid-lattice.
    let dim = Dim3::cube(12);
    let clean = scenarios::closed_box(dim, T::from_f64(1.2));
    assert_eq!(clean.check_finite(), Ok(()));
    let healthy = clean.src().site(5, 5, 5);
    for q in 0..19 {
        for (at, bad) in [(0usize, 0usize, 0usize), (7, 1, 7), (11, 11, 11)]
            .into_iter()
            .zip(offenders::<T>())
        {
            let mut lat = scenarios::closed_box(dim, T::from_f64(1.2));
            let mut site = healthy.clone();
            site[q] = bad;
            lat.set_site(at.0, at.1, at.2, &site);
            // An offender in a later component, at an earlier site, must
            // not win: component order comes first.
            if q + 1 < 19 {
                let mut later = healthy.clone();
                later[q + 1] = bad;
                lat.set_site(0, 0, 1, &later);
            }
            match lat.check_finite() {
                Err(LbmError::NonFinite {
                    comp,
                    at: got,
                    value,
                }) => {
                    assert_eq!((comp, got), (q, at));
                    assert_eq!(value.to_bits(), bad.to_f64().to_bits());
                    assert_eq!(old_scan(lat.src().comp(q)), Some(dim.idx(at.0, at.1, at.2)));
                }
                other => panic!("expected NonFinite in comp {q} at {at:?}, got {other:?}"),
            }
        }
    }
}

#[test]
fn lattice_guard_names_the_first_offending_component() {
    lattice_guard_names_the_component::<f32>();
    lattice_guard_names_the_component::<f64>();
}
