//! Runtime autotuner for the 3.5-D blocking parameters.
//!
//! The planner's closed-form Eqs. 1–4 are exact for the paper's 2010
//! Core i7 and *systematically wrong* everywhere else: the checked-in
//! baselines came from a 1-thread cloud machine where the "optimal"
//! parallel plan ran ~100× slower than the scalar reference. Following
//! AN5D's recipe, this crate treats the analytical plan as a **seed**,
//! not an answer:
//!
//! 1. [`search::SearchSpace::seeds`] enumerates starting candidates from
//!    [`threefive_core::planner::candidate_plans`] plus a cache-simulator
//!    sweep ([`threefive_cachesim::trace::blocked35d_trace`]);
//! 2. [`search::hill_climb`] walks (tile, dim_T, threads, schedule)
//!    neighbors with
//!    short timed probes through the `threefive-bench` harness
//!    ([`search::BenchProber`]), under a probe/deadline budget, with
//!    a monotonic best-so-far invariant;
//! 3. winners are persisted in a schema-versioned `TUNE.json`
//!    ([`db::TuneDb`]) keyed by (host fingerprint, kernel, precision,
//!    grid) — but **only** after passing the symbolic race checker and
//!    bit-identity verification ([`verify::verify_candidate`]), and only
//!    when they beat the scalar reference. A losing probe is recorded in
//!    the search history, never in the database, so the 100×-slower
//!    failure mode cannot be persisted at all.
//!
//! `run`/`bench`/`serve` consult the database first and fall back to the
//! analytical plan on a miss; plans carry a
//! [`threefive_core::planner::PlanSource`] provenance tag either way.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod db;
pub mod search;
pub mod verify;

pub use db::{RecordOutcome, TuneDb, TuneEntry, TunedPlan, TUNE_SCHEMA_VERSION};
pub use search::{
    hill_climb, BenchProber, Candidate, ProbeBudget, Prober, SearchSpace, TuneOutcome,
};
pub use verify::verify_candidate;
