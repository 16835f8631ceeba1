//! Allocation-count regression test for the degradation ladders.
//!
//! The ladders keep the input buffer instead of copying it, so a job must
//! allocate **no grid-sized block** when it fits in one pass
//! (`steps ≤ dim_T`), exactly one third buffer the first time a pair runs
//! a multi-pass job, and none again afterwards — the third buffer stays
//! parked with the pair, also across a downgrade's rollback. A counting
//! global allocator makes those statements exact: the counts are block
//! counts, not timings, and repeat run to run.
//!
//! The allocator is process-global, so this lives in its own test binary
//! and its tests serialize through one mutex.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use threefive::core::faults::{self, FaultKind, FaultPlan};
use threefive::core::verify::verification_grid;
use threefive::lbm::scenarios;
use threefive::prelude::*;
use threefive::{run_lbm_plan_on_team, run_plan_on_team};

/// Blocks of at least this many bytes are counted; `usize::MAX` = off.
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static BIG_BLOCKS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn note(size: usize) {
        if size >= THRESHOLD.load(Ordering::Relaxed) {
            BIG_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Blocks of at least `bytes` bytes allocated while `job` runs.
///
/// `expect_panic` silences the panic hook meanwhile: the default hook may
/// capture and symbolise a backtrace for an injected panic, which
/// allocates large blocks that are no part of the job.
fn big_blocks_during(bytes: usize, expect_panic: bool, job: impl FnOnce()) -> usize {
    let hook = expect_panic.then(|| {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        hook
    });
    BIG_BLOCKS.store(0, Ordering::Relaxed);
    THRESHOLD.store(bytes, Ordering::Relaxed);
    job();
    THRESHOLD.store(usize::MAX, Ordering::Relaxed);
    if let Some(hook) = hook {
        std::panic::set_hook(hook);
    }
    BIG_BLOCKS.load(Ordering::Relaxed)
}

fn opts(threads: usize) -> RunOptions {
    RunOptions {
        threads,
        deadline: Some(Duration::from_secs(5)),
        log: false,
        ..RunOptions::default()
    }
}

// Long in Z and tiled in XY, so every plane ring is far smaller than a
// grid and only whole-grid buffers cross the threshold.
const DIM: Dim3 = Dim3::new(24, 24, 32);
const TILE: usize = 12;
const DIM_T: usize = 2;
const GRID_BYTES: usize = DIM.len() * 4;

fn stencil_plan() -> Result<Plan35D, PlanError> {
    Ok(Plan35D {
        radius: 1,
        dim_t: DIM_T,
        dim_xy: TILE,
        kappa: 1.5,
        buffer_bytes: 0,
        effective_gamma: 0.1,
    })
}

/// Arms a worker panic in the first tile of the second pass; both tests
/// tile their plane 2 × 2 with every tile committing, so that is match 4.
fn panic_in_second_pass() -> faults::FaultGuard {
    faults::inject_nth(
        FaultPlan {
            tid: 1,
            step: 1,
            kind: FaultKind::Panic,
        },
        4,
    )
}

#[test]
fn stencil_jobs_allocate_no_grid_beyond_one_third_buffer() {
    let _s = serial();
    let kernel = SevenPoint::<f32>::new(0.3, 0.1);
    let team = ThreadTeam::new(2);
    let opts = opts(2);
    let job = |g: &mut DoubleGrid<f32>, steps: usize, faulty: bool| {
        big_blocks_during(GRID_BYTES, faulty, || {
            run_plan_on_team(
                &kernel,
                g,
                steps,
                stencil_plan(),
                &opts,
                Some(&team),
                &Observer::disabled(),
            )
            .unwrap();
        })
    };

    // One pass: the input is never in danger, nothing is allocated.
    let mut g = DoubleGrid::from_initial(verification_grid(DIM, 1));
    for steps in [0, 1, DIM_T] {
        assert_eq!(job(&mut g, steps, false), 0, "steps={steps}");
    }

    // Multi-pass: the first job brings the third buffer, the second finds
    // it parked with the pair.
    assert_eq!(job(&mut g, 3 * DIM_T + 1, false), 1, "first multi-pass job");
    assert_eq!(
        job(&mut g, 3 * DIM_T + 1, false),
        0,
        "second multi-pass job"
    );
    assert_eq!(job(&mut g, DIM_T + 1, false), 0, "later multi-pass job");

    // A downgrade after the swap-out reuses the same third buffer on the
    // next rung: one block on a fresh pair, none on a warm one.
    let mut fresh = DoubleGrid::from_initial(verification_grid(DIM, 2));
    for (pair, want) in [(&mut fresh, 1), (&mut g, 0)] {
        let fault = panic_in_second_pass();
        assert_eq!(job(pair, 2 * DIM_T, true), want, "downgrading job");
        assert!(fault.fired());
    }

    let mut want = DoubleGrid::from_initial(verification_grid(DIM, 2));
    reference_sweep(&kernel, &mut want, 2 * DIM_T);
    assert_eq!(fresh.src().as_slice(), want.src().as_slice());
}

#[test]
fn lbm_jobs_allocate_no_grid_beyond_one_third_buffer() {
    let _s = serial();
    let dim = Dim3::new(12, 12, 64);
    // One distribution component; a third buffer is 19 of them.
    let comp_bytes = dim.len() * 4;
    let blocking = LbmBlocking::new(6, 6, DIM_T);
    let team = ThreadTeam::new(2);
    let opts = opts(2);
    let job = |lat: &mut Lattice<f32>, steps: usize, faulty: bool| {
        big_blocks_during(comp_bytes, faulty, || {
            run_lbm_plan_on_team(
                lat,
                steps,
                blocking,
                &opts,
                Some(&team),
                &Observer::disabled(),
            )
            .unwrap();
        })
    };

    let mut lat = scenarios::lid_driven_cavity::<f32>(dim, 1.2, 0.05);
    for steps in [0, 1, DIM_T] {
        assert_eq!(job(&mut lat, steps, false), 0, "steps={steps}");
    }
    assert_eq!(
        job(&mut lat, 2 * DIM_T + 1, false),
        19,
        "first multi-pass job"
    );
    assert_eq!(
        job(&mut lat, 2 * DIM_T + 1, false),
        0,
        "second multi-pass job"
    );

    let mut fresh = scenarios::lid_driven_cavity::<f32>(dim, 1.2, 0.05);
    for (lat, want) in [(&mut fresh, 19), (&mut lat, 0)] {
        let fault = panic_in_second_pass();
        assert_eq!(job(lat, 2 * DIM_T, true), want, "downgrading job");
        assert!(fault.fired());
    }
}
