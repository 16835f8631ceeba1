//! Graceful-degradation driver: plan → parallel 3.5-D → fallbacks.
//!
//! The executor ladder (paper §VI-A) is ordered by performance; this
//! module walks it in reverse on *failure*. [`run_plan`] tries the fastest
//! applicable rung and degrades — parallel 3.5-D → serial 3.5-D → 2.5-D
//! spatial blocking → scalar reference — whenever the planner rejects the
//! configuration ([`PlanError`]) or a run fails at execution time (member
//! panic, watchdog timeout, non-finite output). Every executor in the
//! ladder is bit-exact with the reference sweep, and the driver keeps the
//! input buffer intact through every attempt and hands it back as the
//! source before retrying, so **the result is bit-identical no matter
//! which rung finally serves the request**; only throughput degrades.
//!
//! # Keeping the input instead of copying it
//!
//! A pass reads `src` and writes only `dst`, so the input survives the
//! first pass of any rung for free (`dim_T` steps on the 3.5-D rungs, one
//! step on the others). Before a second pass would overwrite it, the
//! driver swaps the input out of the pair for a third buffer — an O(1)
//! pointer move — and ping-pongs the remaining steps between the other
//! two. Success parks the input buffer with the pair as its warm spare
//! (the next job on the same pair faults in no memory); failure moves it
//! back in as `src`. No grid is ever copied, and a job of at most `dim_T`
//! steps never sees a third buffer at all.
//!
//! [`run_lbm_plan`] drives the same protocol for the lattice Boltzmann
//! workload, whose pipeline runs on the same streaming engine: parallel
//! 3.5-D → serial 3.5-D → naive SIMD → naive scalar, with the same
//! keep-the-input rollback and bit-identical guarantee.
//!
//! Failures never escape as panics or hangs: worker panics poison the
//! per-Z-step barrier and drain the team (see
//! [`try_parallel35d_sweep`] and [`try_lbm35d_sweep`]), stalls are
//! bounded by the watchdog `deadline` (on by default here, unlike the raw
//! executor API used by the benchmarks), and numerical corruption is
//! caught by the [`check_finite`] guard after every attempt.

use std::fmt;
use std::ops::Add;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use threefive_core::exec::{
    blocked25d_sweep, reference_sweep, try_parallel35d_sweep, Blocking35, ScheduleKind,
};
use threefive_core::stats::SweepStats;
use threefive_core::verify::check_finite;
use threefive_core::{ExecError, Plan35D, PlanError, StencilKernel};
use threefive_grid::{DoubleGrid, Grid3, Real, SoaGrid};
use threefive_lbm::{lbm_naive_sweep, try_lbm35d_sweep, Lattice, LbmBlocking, LbmError, LbmMode};
use threefive_sync::{Observer, SyncError, ThreadTeam, TraceEventKind};

/// One rung of the executor ladder, fastest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Parallel 3.5-D pipeline on a thread team.
    Parallel35D,
    /// Serial 3.5-D pipeline (one-member team).
    Serial35D,
    /// 2.5-D spatial blocking, no temporal blocking.
    Blocked25D,
    /// Scalar reference sweep — always applicable.
    Reference,
}

impl Rung {
    /// Position on the ladder, fastest = 0 — the encoding used by
    /// [`TraceEventKind::Fallback`] events.
    pub fn ladder_index(self) -> u32 {
        match self {
            Rung::Parallel35D => 0,
            Rung::Serial35D => 1,
            Rung::Blocked25D => 2,
            Rung::Reference => 3,
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rung::Parallel35D => "parallel 3.5-D",
            Rung::Serial35D => "serial 3.5-D",
            Rung::Blocked25D => "2.5-D spatial",
            Rung::Reference => "scalar reference",
        })
    }
}

/// Record of one abandoned rung: which executor was given up on and why.
#[derive(Clone, Debug, PartialEq)]
pub struct Downgrade {
    /// The rung that failed or was rejected.
    pub from: Rung,
    /// Why it could not serve the request.
    pub reason: ExecError,
}

/// Outcome of a successful [`run_plan`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// The rung that produced the final grid contents.
    pub rung: Rung,
    /// Modeled work/traffic accounting from that rung.
    pub stats: SweepStats,
    /// Every downgrade taken on the way, in order. Empty means the first
    /// applicable rung succeeded.
    pub downgrades: Vec<Downgrade>,
}

/// Knobs for [`run_plan`] and [`run_lbm_plan`].
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Team size for the parallel rung.
    pub threads: usize,
    /// Watchdog deadline for barrier episodes of the parallel rung —
    /// **on by default** here (the raw executor API defaults to off so
    /// benchmarks pay no timing overhead). `None` disables it.
    pub deadline: Option<Duration>,
    /// Run the NaN/∞ guard on the result of every rung (and on the input).
    pub verify_finite: bool,
    /// Log downgrades to stderr as they happen.
    pub log: bool,
    /// Temporal-blocking schedule for the 3.5-D stencil rungs. The LBM
    /// ladder takes its schedule from the [`LbmBlocking`] the caller
    /// passes in instead, since that already carries the blocking.
    pub schedule: ScheduleKind,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |c| c.get()),
            deadline: Some(Duration::from_secs(10)),
            verify_finite: true,
            log: true,
            schedule: ScheduleKind::Lag35d,
        }
    }
}

/// Runs `steps` Jacobi time steps under the given 3.5-D `plan`, degrading
/// down the executor ladder on any failure.
///
/// `plan` is the planner's verdict, passed through so a
/// [`PlanError`] (kernel already compute-bound, cache too small) skips
/// both 3.5-D rungs and lands on 2.5-D spatial blocking — the paper's own
/// prescription for those regimes. Execution-time failures (member panic,
/// watchdog timeout, non-finite values) hand the untouched input buffer
/// back as the source and retry one rung down, so the final contents are
/// bit-identical to [`reference_sweep`] regardless of the serving rung.
///
/// Returns the serving rung, its stats, and the downgrade trail. `Err` is
/// reserved for unrecoverable states: non-finite *input*, or a reference
/// sweep that itself produced non-finite values (a broken kernel); the
/// source grid is the input again in both cases.
///
/// A job of more than `dim_T` steps leaves a third grid parked with the
/// pair (see [`DoubleGrid::park_spare`]); the caller's source buffer may
/// therefore be a different allocation afterwards.
pub fn run_plan<T: Real, K: StencilKernel<T>>(
    kernel: &K,
    grids: &mut DoubleGrid<T>,
    steps: usize,
    plan: Result<Plan35D, PlanError>,
    opts: &RunOptions,
) -> Result<RunReport, ExecError> {
    run_plan_observed(kernel, grids, steps, plan, opts, &Observer::disabled())
}

/// [`run_plan`] with an [`Observer`] attached.
///
/// The observer's handles are threaded into the 3.5-D rungs (per-plane and
/// per-barrier spans, per-thread timing), and the driver itself marks
/// ladder transitions as instant events on thread 0:
/// [`TraceEventKind::Fallback`] for every downgrade (encoded via
/// [`Rung::ladder_index`]), [`TraceEventKind::Quarantine`] when a failed
/// parallel rung left its team quarantined, and [`TraceEventKind::Heal`]
/// when a later rung then serves the request anyway. A disabled observer
/// never reads the clock, so this is exactly [`run_plan`].
pub fn run_plan_observed<T: Real, K: StencilKernel<T>>(
    kernel: &K,
    grids: &mut DoubleGrid<T>,
    steps: usize,
    plan: Result<Plan35D, PlanError>,
    opts: &RunOptions,
    obs: &Observer<'_>,
) -> Result<RunReport, ExecError> {
    run_plan_on_team(kernel, grids, steps, plan, opts, None, obs)
}

/// [`run_plan_observed`] with the parallel rung scoped to a **borrowed**
/// team.
///
/// The solver service leases persistent teams from a
/// [`TeamPool`](threefive_sync::TeamPool) instead of spawning one per
/// request; passing `Some(team)` makes the parallel rung run on that
/// lease (its size wins over `opts.threads`) so a failure poisons only
/// the caller's team, which the pool then health-probes on checkin. The
/// serial rung always gets a fresh one-member team: it is the retry path
/// after the borrowed team may have been wedged, so it must not share
/// fate with it. `None` reproduces [`run_plan_observed`] exactly.
pub fn run_plan_on_team<T: Real, K: StencilKernel<T>>(
    kernel: &K,
    grids: &mut DoubleGrid<T>,
    steps: usize,
    plan: Result<Plan35D, PlanError>,
    opts: &RunOptions,
    parallel_team: Option<&ThreadTeam>,
    obs: &Observer<'_>,
) -> Result<RunReport, ExecError> {
    if opts.verify_finite {
        // Corrupt input would fail every rung; reject it up front with the
        // offending coordinate instead of walking the whole ladder.
        check_finite(grids.src())?;
    }
    let dim = grids.dim();
    let rim = kernel.radius();
    let finite = |g: &DoubleGrid<T>| {
        if opts.verify_finite {
            check_finite(g.src())
        } else {
            Ok(())
        }
    };
    let mut downgrades: Vec<Downgrade> = Vec::new();
    let mut quarantined = false;
    let mut downgrade = |from: Rung, reason: ExecError, log: bool| {
        if log {
            eprintln!("threefive: {from} executor failed ({reason}); downgrading");
        }
        obs.instant(
            0,
            TraceEventKind::Fallback {
                from: from.ladder_index(),
                to: from.ladder_index() + 1,
            },
        );
        downgrades.push(Downgrade { from, reason });
    };

    let blocking = match plan {
        Ok(p) => Some(
            Blocking35::new(
                p.dim_xy.clamp(1, dim.nx.max(1)),
                p.dim_xy.clamp(1, dim.ny.max(1)),
                p.dim_t.max(1),
            )
            .with_schedule(opts.schedule),
        ),
        Err(e) => {
            // Planner rejection disqualifies both temporal-blocking rungs.
            downgrade(Rung::Parallel35D, ExecError::Plan(e), opts.log);
            downgrade(Rung::Serial35D, ExecError::Plan(e), opts.log);
            None
        }
    };

    // Marks the recovery once a rung serves a request that saw an earlier
    // team quarantine on the way down the ladder.
    let heal_mark = |quarantined: bool| {
        if quarantined {
            obs.instant(0, TraceEventKind::Heal { tid: 0 });
        }
    };

    if let Some(b) = blocking {
        for (rung, threads, deadline) in [
            (Rung::Parallel35D, opts.threads.max(1), opts.deadline),
            (Rung::Serial35D, 1, None),
        ] {
            let owned;
            let team: &ThreadTeam = match (rung, parallel_team) {
                // The caller's lease serves the parallel rung; the serial
                // retry never reuses it (it may be wedged — that can be
                // why we are retrying).
                (Rung::Parallel35D, Some(t)) => t,
                _ => {
                    owned = ThreadTeam::new(threads);
                    &owned
                }
            };
            let sweep = |g: &mut DoubleGrid<T>, n: usize| {
                try_parallel35d_sweep(kernel, g, n, b, team, deadline, obs)
            };
            match attempt(grids, steps, b.dim_t, rim, sweep, finite) {
                Ok(stats) => {
                    heal_mark(quarantined);
                    return Ok(RunReport {
                        rung,
                        stats,
                        downgrades,
                    });
                }
                Err(e) => downgrade(rung, e, opts.log),
            }
            if team.is_quarantined() {
                // The failed run left a stalled generation behind; the
                // team object is dropped here, but the event records that
                // this request ran through a quarantine.
                quarantined = true;
                obs.instant(0, TraceEventKind::Quarantine { tid: 0 });
            }
        }
    }

    // 2.5-D spatial blocking: no thread team, no temporal blocking. Tile
    // edges come from the plan when there is one; otherwise fall back to
    // whole-plane tiles (always valid, degenerate-but-correct blocking).
    let (tx, ty) = match plan {
        Ok(p) => (
            p.dim_xy.clamp(1, dim.nx.max(1)),
            p.dim_xy.clamp(1, dim.ny.max(1)),
        ),
        Err(_) => (dim.nx.max(1), dim.ny.max(1)),
    };
    let sweep = |g: &mut DoubleGrid<T>, n: usize| {
        catch_unwind(AssertUnwindSafe(|| blocked25d_sweep(kernel, g, n, tx, ty)))
            .map_err(|_| ExecError::Sync(SyncError::TeamPanicked { generation: 0 }))
    };
    match attempt(grids, steps, 1, rim, sweep, finite) {
        Ok(stats) => {
            heal_mark(quarantined);
            return Ok(RunReport {
                rung: Rung::Blocked25D,
                stats,
                downgrades,
            });
        }
        Err(e) => downgrade(Rung::Blocked25D, e, opts.log),
    }

    // Last rung: the scalar reference. If even this produces non-finite
    // values the kernel itself is numerically broken — that is not
    // recoverable by falling further, so it surfaces as `Err`.
    let sweep = |g: &mut DoubleGrid<T>, n: usize| Ok(reference_sweep(kernel, g, n));
    let stats = attempt(grids, steps, 1, rim, sweep, finite)?;
    heal_mark(quarantined);
    Ok(RunReport {
        rung: Rung::Reference,
        stats,
        downgrades,
    })
}

/// What the keep-the-input protocol ([`attempt`]) needs from a
/// double-buffered workload: buffer identities, and O(1) buffer moves.
trait KeepInput {
    /// One buffer of the pair.
    type Buf;

    /// Identity (base address) of the buffer currently read.
    fn src_id(&self) -> usize;

    /// Identity (base address) of the buffer currently written.
    fn dst_id(&self) -> usize;

    /// Exchanges the source and destination roles.
    fn swap(&mut self);

    /// A third buffer fit to stand in for the current destination: the
    /// parked spare if there is one, else a fresh allocation. `rim` is the
    /// width of the boundary shell the executors leave unwritten (0 when
    /// they write every site); that shell is copied from the current
    /// destination so results computed into the third buffer carry the
    /// same boundary values.
    fn third(&mut self, rim: usize) -> Self::Buf;

    /// Installs `buf` as the destination; returns the displaced buffer.
    fn replace_dst(&mut self, buf: Self::Buf) -> Self::Buf;

    /// Parks `buf` with the pair as its warm spare.
    fn park_spare(&mut self, buf: Self::Buf);
}

impl<T: Real> KeepInput for DoubleGrid<T> {
    type Buf = Grid3<T>;

    fn src_id(&self) -> usize {
        self.src().as_slice().as_ptr() as usize
    }

    fn dst_id(&self) -> usize {
        self.dst().as_slice().as_ptr() as usize
    }

    fn swap(&mut self) {
        DoubleGrid::swap(self);
    }

    fn third(&mut self, rim: usize) -> Grid3<T> {
        let mut third = self
            .take_spare()
            .unwrap_or_else(|| Grid3::zeros(self.dim()));
        third.copy_rim_from(self.dst(), rim);
        third
    }

    fn replace_dst(&mut self, buf: Grid3<T>) -> Grid3<T> {
        DoubleGrid::replace_dst(self, buf)
    }

    fn park_spare(&mut self, buf: Grid3<T>) {
        DoubleGrid::park_spare(self, buf);
    }
}

impl<T: Real> KeepInput for Lattice<T> {
    type Buf = SoaGrid<T>;

    fn src_id(&self) -> usize {
        self.src().comp(0).as_ptr() as usize
    }

    fn dst_id(&self) -> usize {
        self.dst().comp(0).as_ptr() as usize
    }

    fn swap(&mut self) {
        Lattice::swap(self);
    }

    // Every LBM rung writes all components of every destination site each
    // step (non-fluid sites are copied from the source), so there is no
    // rim to carry over.
    fn third(&mut self, _rim: usize) -> SoaGrid<T> {
        self.take_spare()
            .unwrap_or_else(|| SoaGrid::zeros(self.dim(), threefive_lbm::model::Q))
    }

    fn replace_dst(&mut self, buf: SoaGrid<T>) -> SoaGrid<T> {
        Lattice::replace_dst(self, buf)
    }

    fn park_spare(&mut self, buf: SoaGrid<T>) {
        Lattice::park_spare(self, buf);
    }
}

/// Runs one rung as "first pass, swap the input out, rest", checks the
/// result, and on any failure puts the pair back exactly as it was handed
/// in — without ever copying a grid.
///
/// `sweep(pair, n)` advances the pair `n` steps and leaves the result in
/// `src`; `first` is how many steps its first pass covers, i.e. how long
/// the input survives untouched in the other buffer. The states:
///
/// 1. **First pass** (`min(first, steps)` steps): reads the input,
///    writes only the destination. The input is intact whatever happens.
/// 2. **Swap-out** (only if steps remain): the input now sits in the
///    destination slot, which the next pass would overwrite. It is moved
///    out of the pair for a [`third`](KeepInput::third) buffer and held
///    here; the remaining steps ping-pong between the other two.
/// 3. **Success**: the held input buffer is parked as the pair's spare.
/// 4. **Failure** (sweep error or `check` rejection, in any state): the
///    input goes back in as `src` next to the original destination buffer
///    — whose unwritten rim is therefore the original one — and the third
///    buffer is parked. The next rung sees what this one saw.
fn attempt<P: KeepInput, S: Add<Output = S>, E>(
    pair: &mut P,
    steps: usize,
    first: usize,
    rim: usize,
    mut sweep: impl FnMut(&mut P, usize) -> Result<S, E>,
    check: impl FnOnce(&P) -> Result<(), E>,
) -> Result<S, E> {
    let input = pair.src_id();
    let first = first.min(steps);
    // The input buffer once it is out of the pair, with the identity of
    // the buffer the first pass wrote.
    let mut kept: Option<(P::Buf, usize)> = None;
    let outcome = (|| {
        let mut done = sweep(pair, first)?;
        if steps > first {
            // A sweep over a grid without interior is a no-op that never
            // swaps; the input then stays in `src`, out of harm's way.
            if pair.dst_id() == input {
                let pass1 = pair.src_id();
                let third = pair.third(rim);
                kept = Some((pair.replace_dst(third), pass1));
            }
            done = done + sweep(pair, steps - first)?;
        }
        check(pair)?;
        Ok(done)
    })();
    match (&outcome, kept) {
        (Ok(_), Some((input_buf, _))) => pair.park_spare(input_buf),
        (Ok(_), None) => {}
        (Err(_), Some((input_buf, pass1))) => {
            if pair.src_id() != pass1 {
                pair.swap();
            }
            let third = pair.replace_dst(input_buf);
            pair.swap();
            pair.park_spare(third);
        }
        (Err(_), None) => {
            if pair.src_id() != input {
                pair.swap();
            }
        }
    }
    outcome
}

/// One rung of the lattice-Boltzmann executor ladder, fastest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbmRung {
    /// Parallel 3.5-D pipeline on a thread team.
    Parallel35D,
    /// Serial 3.5-D pipeline (one-member team).
    Serial35D,
    /// No-blocking SIMD sweep.
    NaiveSimd,
    /// No-blocking scalar sweep — always applicable.
    NaiveScalar,
}

impl LbmRung {
    /// Position on the ladder, fastest = 0 — the encoding used by
    /// [`TraceEventKind::Fallback`] events.
    pub fn ladder_index(self) -> u32 {
        match self {
            LbmRung::Parallel35D => 0,
            LbmRung::Serial35D => 1,
            LbmRung::NaiveSimd => 2,
            LbmRung::NaiveScalar => 3,
        }
    }
}

impl fmt::Display for LbmRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LbmRung::Parallel35D => "parallel 3.5-D LBM",
            LbmRung::Serial35D => "serial 3.5-D LBM",
            LbmRung::NaiveSimd => "naive SIMD LBM",
            LbmRung::NaiveScalar => "naive scalar LBM",
        })
    }
}

/// Record of one abandoned LBM rung.
#[derive(Clone, Debug, PartialEq)]
pub struct LbmDowngrade {
    /// The rung that failed.
    pub from: LbmRung,
    /// Why it could not serve the request.
    pub reason: LbmError,
}

/// Outcome of a successful [`run_lbm_plan`].
#[derive(Clone, Debug, PartialEq)]
pub struct LbmRunReport {
    /// The rung that produced the final lattice contents.
    pub rung: LbmRung,
    /// Site updates performed by that rung.
    pub updates: u64,
    /// Every downgrade taken on the way, in order.
    pub downgrades: Vec<LbmDowngrade>,
}

/// Advances the lattice `steps` time steps under `blocking`, degrading
/// down the LBM executor ladder on any failure — the lattice counterpart
/// of [`run_plan`], enabled by both workloads sharing one streaming
/// engine.
///
/// Rungs: parallel 3.5-D (team of `opts.threads`, watchdog
/// `opts.deadline`) → serial 3.5-D (one-member team, no deadline) → naive
/// SIMD → naive scalar. The input distributions are kept intact through
/// every attempt and handed back as the source before each retry (the
/// protocol of [`run_plan`], minus the rim copy: every LBM rung writes
/// all 19 components of every destination site each step), and every rung
/// is bit-exact with the naive scalar sweep, so the final lattice is
/// bit-identical regardless of the serving rung. Ladder
/// transitions are marked on `obs` exactly as in [`run_plan_observed`]
/// (Fallback / Quarantine / Heal instants, encoded via
/// [`LbmRung::ladder_index`]).
///
/// `Err` is reserved for unrecoverable states: non-finite input
/// distributions, or a scalar sweep that itself produced non-finite
/// values; the source distributions are the input again in both cases.
pub fn run_lbm_plan<T: Real>(
    lat: &mut Lattice<T>,
    steps: usize,
    blocking: LbmBlocking,
    opts: &RunOptions,
    obs: &Observer<'_>,
) -> Result<LbmRunReport, LbmError> {
    run_lbm_plan_on_team(lat, steps, blocking, opts, None, obs)
}

/// [`run_lbm_plan`] with the parallel rung scoped to a **borrowed** team
/// — the lattice counterpart of [`run_plan_on_team`], with the same
/// contract: `Some(team)` confines parallel-rung failures to the
/// caller's lease, the serial retry always runs on a fresh one-member
/// team, and `None` reproduces [`run_lbm_plan`] exactly.
pub fn run_lbm_plan_on_team<T: Real>(
    lat: &mut Lattice<T>,
    steps: usize,
    blocking: LbmBlocking,
    opts: &RunOptions,
    parallel_team: Option<&ThreadTeam>,
    obs: &Observer<'_>,
) -> Result<LbmRunReport, LbmError> {
    if opts.verify_finite {
        lat.check_finite()?;
    }
    let finite = |l: &Lattice<T>| {
        if opts.verify_finite {
            l.check_finite()
        } else {
            Ok(())
        }
    };
    let mut downgrades: Vec<LbmDowngrade> = Vec::new();
    let mut quarantined = false;
    let mut downgrade = |from: LbmRung, reason: LbmError, log: bool| {
        if log {
            eprintln!("threefive: {from} executor failed ({reason}); downgrading");
        }
        obs.instant(
            0,
            TraceEventKind::Fallback {
                from: from.ladder_index(),
                to: from.ladder_index() + 1,
            },
        );
        downgrades.push(LbmDowngrade { from, reason });
    };
    let heal_mark = |quarantined: bool| {
        if quarantined {
            obs.instant(0, TraceEventKind::Heal { tid: 0 });
        }
    };

    for (rung, threads, deadline) in [
        (LbmRung::Parallel35D, opts.threads.max(1), opts.deadline),
        (LbmRung::Serial35D, 1, None),
    ] {
        let owned;
        let team: &ThreadTeam = match (rung, parallel_team) {
            (LbmRung::Parallel35D, Some(t)) => t,
            _ => {
                owned = ThreadTeam::new(threads);
                &owned
            }
        };
        let sweep = |l: &mut Lattice<T>, n: usize| {
            try_lbm35d_sweep(l, n, blocking, Some(team), deadline, obs)
        };
        match attempt(lat, steps, blocking.dim_t, 0, sweep, finite) {
            Ok(updates) => {
                heal_mark(quarantined);
                return Ok(LbmRunReport {
                    rung,
                    updates,
                    downgrades,
                });
            }
            Err(e) => downgrade(rung, e, opts.log),
        }
        if team.is_quarantined() {
            quarantined = true;
            obs.instant(0, TraceEventKind::Quarantine { tid: 0 });
        }
    }

    // No-blocking SIMD sweep: no team, no rings. A panic here (it shares
    // the collision kernel with every other rung, so this is defensive)
    // degrades to the scalar baseline.
    let sweep = |l: &mut Lattice<T>, n: usize| {
        catch_unwind(AssertUnwindSafe(|| {
            lbm_naive_sweep(l, n, LbmMode::Simd, None)
        }))
        .map_err(|_| LbmError::Sync(SyncError::TeamPanicked { generation: 0 }))
    };
    match attempt(lat, steps, 1, 0, sweep, finite) {
        Ok(updates) => {
            heal_mark(quarantined);
            return Ok(LbmRunReport {
                rung: LbmRung::NaiveSimd,
                updates,
                downgrades,
            });
        }
        Err(e) => downgrade(LbmRung::NaiveSimd, e, opts.log),
    }

    let sweep = |l: &mut Lattice<T>, n: usize| Ok(lbm_naive_sweep(l, n, LbmMode::Scalar, None));
    let updates = attempt(lat, steps, 1, 0, sweep, finite)?;
    heal_mark(quarantined);
    Ok(LbmRunReport {
        rung: LbmRung::NaiveScalar,
        updates,
        downgrades,
    })
}
