//! Thread-level-parallelism substrate for the 3.5-D executor.
//!
//! The paper's parallel 3.5-D algorithm barriers **once per streamed Z
//! plane** across all threads (§V-E), so barrier latency is on the critical
//! path; the authors implement "our own barrier that is 50X faster than
//! pthreads barrier" (§III-B). This crate provides:
//!
//! * [`SpinBarrier`] — a centralized sense-reversing spin barrier (one
//!   atomic counter + one generation word, local spinning on the
//!   generation);
//! * [`ThreadTeam`] — a pool of persistent workers that repeatedly execute
//!   borrowed closures (`run(|tid| …)`), so the executor pays thread spawn
//!   cost once per run, not once per time step;
//! * [`TeamPool`] — a fixed set of persistent teams behind RAII
//!   checkout/checkin leases, with health probing, quarantine of stalled
//!   teams and heal accounting — the serving layer's isolation boundary
//!   between tenants;
//! * [`SharedSlice`] — the unsafe-but-audited escape hatch that lets team
//!   members write disjoint regions of one buffer in parallel, as the row
//!   partitioning guarantees;
//! * [`Instrument`] / [`SweepTiming`] — zero-cost-when-disabled per-thread
//!   compute vs. barrier-wait timing, the observability layer the
//!   benchmark harness reports through;
//! * [`Tracer`] / [`TraceSnapshot`] — zero-cost-when-disabled per-thread
//!   span/event recording (one cache-padded ring per team member) at
//!   pipeline-stage granularity, exported to Perfetto by the bench crate;
//! * [`Observer`] — the composable bundle of [`Instrument`] + [`Tracer`]
//!   that the sweep entry points take, replacing the per-combination
//!   executor variants that used to exist.

#![deny(unsafe_op_in_unsafe_fn)]
#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod barrier;
mod error;
mod instrument;
mod observer;
mod pad;
mod pool;
mod shared;
pub mod shim;
mod team;
mod trace;

pub use barrier::SpinBarrier;
pub use error::SyncError;
pub use instrument::{Instrument, SweepTiming, ThreadTiming, WaitHistogram, WAIT_HIST_BUCKETS};
pub use observer::Observer;
pub use pad::CachePadded;
pub use pool::{TeamLease, TeamPool, TeamUnit, DEFAULT_PROBE_DEADLINE};
pub use shared::SharedSlice;
pub use shim::{
    AtomicBoolShim, AtomicUsizeShim, CondvarShim, GuardOf, MutexShim, StdFamily, SyncFamily,
};
pub use team::ThreadTeam;
pub use trace::{
    ThreadTrace, TraceEvent, TraceEventKind, TraceSnapshot, Tracer, TRACE_DEFAULT_CAPACITY,
};
