//! Runtime fault-injection harness for the fault-tolerance test suite.
//!
//! Production configurations never arm a fault, and the only cost they pay
//! is one relaxed atomic load per (member × outer step) inside the
//! parallel pipeline — noise next to a barrier episode. Tests arm a
//! [`FaultPlan`] through [`inject`], which returns an RAII [`FaultGuard`]
//! so a failing test cannot leak an armed fault into the next one.
//!
//! Faults fire **at most once** per arming: the first team member whose
//! `(tid, outer_step)` matches claims the fault with a compare-exchange
//! and then panics or stalls. This models the paper-relevant failure
//! modes of the 3.5-D executor — a worker dying mid-pipeline and a worker
//! wedging while its peers spin at the per-Z-step barrier — without any
//! test-only compilation of the executor itself.
//!
//! The same `(tid, outer_step)` recurs once per tile, per chunk and per
//! ladder rung, so [`inject_nth`] lets a test skip the first `nth`
//! matches and aim the fault at a later tile, a later pass (after the
//! facade has swapped the input buffer out of the pair) or a lower 3.5-D
//! rung.
//!
//! [`corrupt_plane`] covers the third failure class (numerical
//! corruption): it poisons a Z plane with NaNs so the
//! [`check_finite`](crate::verify::check_finite) guard has something to
//! find. [`CorruptingKernel`] aims the same corruption at a chosen
//! kernel invocation — any pass of any stencil rung, including the
//! team-less 2.5-D and reference rungs that have no fault points.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Duration;

use threefive_grid::{Grid3, Real};

use crate::kernel::{OpCount, StencilKernel};

/// What the armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The matching team member panics (message `"injected fault"`).
    Panic,
    /// The matching team member sleeps for this long before continuing —
    /// long enough to trip a watchdog deadline, short enough that the
    /// member eventually drains and the team heals.
    Stall(Duration),
}

/// A single scheduled fault: member `tid`, pipeline outer step `step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Team member that should fail (caller is `tid == 0`).
    pub tid: usize,
    /// Pipeline outer step (Z-step index within a tile × chunk) at which
    /// the fault fires.
    pub step: usize,
    /// Failure mode.
    pub kind: FaultKind,
}

// Armed state. `STATE` is the fast-path gate: DISARMED means `fault_point`
// returns after one relaxed load. ARMED → FIRED transitions through a
// compare-exchange so exactly one matching member fires.
const DISARMED: u8 = 0;
const ARMED: u8 = 1;
const FIRED: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(DISARMED);
static FAULT_TID: AtomicUsize = AtomicUsize::new(0);
static FAULT_STEP: AtomicUsize = AtomicUsize::new(0);
/// 0 = panic; otherwise stall milliseconds.
static FAULT_STALL_MS: AtomicU64 = AtomicU64::new(0);
/// Matches still to let pass before the fault may fire.
static FAULT_SKIP: AtomicUsize = AtomicUsize::new(0);

/// Arms `plan` process-wide and returns a guard that disarms it on drop:
/// the fault fires on the first `(tid, step)` match.
///
/// Only one fault can be armed at a time; arming while armed panics (the
/// harness is for single-threaded test orchestration, not concurrent
/// fuzzing).
pub fn inject(plan: FaultPlan) -> FaultGuard {
    inject_nth(plan, 0)
}

/// [`inject`], but the fault lets the first `nth` matches of
/// `(tid, step)` pass and fires on the next one.
///
/// One match happens per committing tile of every chunk of every 3.5-D
/// rung that has a member `tid`, in execution order, so with `tiles`
/// committing tiles `nth = tiles` is the first tile of the second pass.
pub fn inject_nth(plan: FaultPlan, nth: usize) -> FaultGuard {
    FAULT_TID.store(plan.tid, Ordering::Relaxed);
    FAULT_STEP.store(plan.step, Ordering::Relaxed);
    FAULT_SKIP.store(nth, Ordering::Relaxed);
    FAULT_STALL_MS.store(
        match plan.kind {
            FaultKind::Panic => 0,
            FaultKind::Stall(d) => d.as_millis().max(1) as u64,
        },
        Ordering::Relaxed,
    );
    // Release: publish the plan fields before the armed flag.
    let prev = STATE.swap(ARMED, Ordering::Release);
    assert_ne!(prev, ARMED, "faults::inject: a fault is already armed");
    FaultGuard { _priv: () }
}

/// Disarms the fault when dropped (whether or not it fired).
#[must_use = "dropping the guard immediately disarms the fault"]
pub struct FaultGuard {
    _priv: (),
}

impl FaultGuard {
    /// Whether the armed fault has fired.
    pub fn fired(&self) -> bool {
        STATE.load(Ordering::Acquire) == FIRED
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        STATE.store(DISARMED, Ordering::Release);
    }
}

/// Test point called by the parallel pipeline once per member per outer
/// step. Disarmed cost: one relaxed load.
#[inline]
pub fn fault_point(tid: usize, step: usize) {
    if STATE.load(Ordering::Relaxed) != ARMED {
        return;
    }
    fault_point_slow(tid, step);
}

#[cold]
fn fault_point_slow(tid: usize, step: usize) {
    if FAULT_TID.load(Ordering::Relaxed) != tid || FAULT_STEP.load(Ordering::Relaxed) != step {
        return;
    }
    // Count this match off the skip budget; only a match that finds the
    // budget already spent goes on to claim the fault.
    let skipped =
        FAULT_SKIP.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    if skipped.is_ok() {
        return;
    }
    // Claim the fault: exactly one member fires even if several match
    // (e.g. the same step of a later tile).
    if STATE
        .compare_exchange(ARMED, FIRED, Ordering::AcqRel, Ordering::Relaxed)
        .is_err()
    {
        return;
    }
    let stall_ms = FAULT_STALL_MS.load(Ordering::Relaxed);
    if stall_ms == 0 {
        panic!("injected fault");
    }
    std::thread::sleep(Duration::from_millis(stall_ms));
}

/// Overwrites plane `z` of `grid` with NaNs — numerical-corruption
/// injection for exercising [`check_finite`](crate::verify::check_finite).
///
/// # Panics
/// Panics if `z` is out of range.
pub fn corrupt_plane<T: Real>(grid: &mut Grid3<T>, z: usize) {
    let nan = T::from_f64(f64::NAN);
    for v in grid.plane_mut(z) {
        *v = nan;
    }
}

/// How a [`CorruptingKernel`] fails at its chosen invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Overwrite the invocation's output with NaN — the rung runs to
    /// completion and the finite guard rejects its result.
    Nan,
    /// Panic (message `"injected kernel fault"`). On a rung with more
    /// than one member the others stop wherever they are, so invocation
    /// numbers after a panic are only deterministic on one-member rungs.
    Panic,
}

/// Wraps a kernel so that chosen invocations fail — numerical-corruption
/// (or panic) injection that can be aimed at any pass of any stencil
/// rung, because every rung calls the kernel.
///
/// Invocations (`apply_row` and `apply_point` calls alike) are numbered
/// from 0 across threads in arrival order. Each executor makes a fixed
/// number of them per pass whatever the team size, and passes are
/// separated by team-wide joins, so "invocation `k`" lands in a
/// deterministic pass even though *which* row it is may vary between
/// runs. A corrupted row is NaN end to end: under a star-shaped kernel
/// the far corners of a 3.5-D tile's ghost zone never influence what the
/// chunk commits, but every computed row spans the tile's owned columns,
/// and those always do.
pub struct CorruptingKernel<K> {
    inner: K,
    calls: AtomicUsize,
    fail_at: Vec<(usize, Corruption)>,
}

impl<K> CorruptingKernel<K> {
    /// Wraps `inner`; invocation `k` fails as `how` for every `(k, how)`
    /// in `fail_at`, all others pass through untouched.
    pub fn new(inner: K, fail_at: &[(usize, Corruption)]) -> Self {
        Self {
            inner,
            calls: AtomicUsize::new(0),
            fail_at: fail_at.to_vec(),
        }
    }

    /// Invocations made so far.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    /// Numbers this invocation; panics if it is to fail by panic, and
    /// returns whether its output is to be corrupted.
    fn corrupts(&self) -> bool {
        let k = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.fail_at.iter().find(|(at, _)| *at == k) {
            Some((_, Corruption::Panic)) => panic!("injected kernel fault"),
            Some((_, Corruption::Nan)) => true,
            None => false,
        }
    }
}

impl<T: Real, K: StencilKernel<T>> StencilKernel<T> for CorruptingKernel<K> {
    fn radius(&self) -> usize {
        self.inner.radius()
    }

    fn ops(&self) -> OpCount {
        self.inner.ops()
    }

    fn apply_point(&self, src: &Grid3<T>, x: usize, y: usize, z: usize) -> T {
        if self.corrupts() {
            return T::from_f64(f64::NAN);
        }
        self.inner.apply_point(src, x, y, z)
    }

    fn apply_row(&self, planes: &[&[T]], nx: usize, y: usize, xs: Range<usize>, out: &mut [T]) {
        let corrupt = self.corrupts();
        self.inner.apply_row(planes, nx, y, xs, out);
        if corrupt {
            out.fill(T::from_f64(f64::NAN));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threefive_grid::Dim3;

    // The global harness state is process-wide, so these tests serialize
    // through a mutex rather than relying on `--test-threads=1`.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disarmed_fault_point_is_inert() {
        let _l = LOCK.lock().unwrap();
        for tid in 0..4 {
            for step in 0..4 {
                fault_point(tid, step); // must not panic
            }
        }
    }

    #[test]
    fn fires_once_at_the_matching_point_only() {
        let _l = LOCK.lock().unwrap();
        let guard = inject(FaultPlan {
            tid: 2,
            step: 3,
            kind: FaultKind::Panic,
        });
        fault_point(2, 2); // wrong step
        fault_point(1, 3); // wrong tid
        assert!(!guard.fired());
        let caught = std::panic::catch_unwind(|| fault_point(2, 3));
        assert!(caught.is_err());
        assert!(guard.fired());
        fault_point(2, 3); // already fired: inert
    }

    #[test]
    fn nth_selector_skips_exactly_that_many_matches() {
        let _l = LOCK.lock().unwrap();
        let plan = FaultPlan {
            tid: 1,
            step: 2,
            kind: FaultKind::Panic,
        };
        let guard = inject_nth(plan, 2);
        fault_point(1, 2); // match 0: skipped
        fault_point(0, 2); // other member: not a match, not counted
        fault_point(1, 2); // match 1: skipped
        assert!(!guard.fired());
        let caught = std::panic::catch_unwind(|| fault_point(1, 2)); // match 2
        assert!(caught.is_err());
        assert!(guard.fired());
        drop(guard);
        // A later plain `inject` starts from a zero budget again.
        let guard = inject(plan);
        assert!(std::panic::catch_unwind(|| fault_point(1, 2)).is_err());
        assert!(guard.fired());
    }

    #[test]
    fn corrupting_kernel_fails_only_the_chosen_invocations() {
        use crate::kernel::SevenPoint;
        let d = Dim3::cube(5);
        let g = Grid3::<f32>::splat(d, 1.0);
        let k = CorruptingKernel::new(
            SevenPoint::new(0.4f32, 0.1),
            &[(1, Corruption::Nan), (3, Corruption::Panic)],
        );
        let planes = [g.plane(1), g.plane(2), g.plane(3)];
        let mut out = [0.0f32; 3];
        k.apply_row(&planes, d.nx, 2, 1..4, &mut out); // call 0
        assert!(out.iter().all(|v| v.is_finite()));
        k.apply_row(&planes, d.nx, 2, 1..4, &mut out); // call 1
        assert!(out.iter().all(|v| v.is_nan()));
        assert!(k.apply_point(&g, 2, 2, 2).is_finite()); // call 2
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.apply_point(&g, 2, 2, 2)));
        assert!(caught.is_err()); // call 3
        assert!(k.apply_point(&g, 2, 2, 2).is_finite()); // call 4
        assert_eq!(k.calls(), 5);
    }

    #[test]
    fn guard_disarms_on_drop() {
        let _l = LOCK.lock().unwrap();
        {
            let _g = inject(FaultPlan {
                tid: 0,
                step: 0,
                kind: FaultKind::Stall(Duration::from_millis(1)),
            });
        }
        fault_point(0, 0); // disarmed again: inert
    }

    #[test]
    fn stall_fault_delays_instead_of_panicking() {
        let _l = LOCK.lock().unwrap();
        let guard = inject(FaultPlan {
            tid: 1,
            step: 0,
            kind: FaultKind::Stall(Duration::from_millis(20)),
        });
        let t0 = std::time::Instant::now();
        fault_point(1, 0);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(guard.fired());
    }

    #[test]
    fn corrupt_plane_writes_nans() {
        let mut g = Grid3::<f32>::splat(Dim3::cube(4), 1.0);
        corrupt_plane(&mut g, 2);
        assert!(g.plane(2).iter().all(|v| v.is_nan()));
        assert!(g.plane(1).iter().all(|v| *v == 1.0));
    }
}
