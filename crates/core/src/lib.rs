//! # threefive-core — 3.5-D blocking for stencil computations
//!
//! Implementation of the central contribution of Nguyen, Satish, Chhugani,
//! Kim, Dubey, *"3.5-D Blocking Optimization for Stencil Computations on
//! Modern CPUs and GPUs"* (SC 2010): 2.5-D spatial blocking (block XY,
//! stream Z) combined with 1-D temporal blocking, a planner that chooses
//! the blocking parameters from machine and kernel byte/op ratios, and a
//! thread-parallel executor in which **every** thread works on **every**
//! time level of **every** XY sub-plane.
//!
//! ## Module map
//!
//! * [`kernel`] — the [`kernel::StencilKernel`] trait and
//!   the paper's kernels: 7-point, 27-point, and a generic star stencil of
//!   arbitrary radius used to exercise the machinery at `R > 1`.
//! * [`planner`] — Eqs. 1–4 and all overestimation (κ) formulas for 3-D,
//!   2.5-D, 4-D and 3.5-D blocking.
//! * [`exec`] — the executor ladder from the scalar reference to the
//!   parallel 3.5-D pipeline; [`exec::StencilExec`] lists every rung, and
//!   each is verified bit-exact against the reference sweep.
//! * [`stats`] — analytic DRAM-traffic/op accounting per executor, used by
//!   the machine-model figures.
//!
//! ## Boundary semantics
//!
//! All executors implement Jacobi sweeps with **Dirichlet (time-invariant)
//! boundaries**: grid points within distance `R` of any face keep their
//! initial values forever, matching the paper's "z₀ (boundary condition)
//! does not change with time".

#![deny(unsafe_op_in_unsafe_fn)]
#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod error;
pub mod exec;
pub mod faults;
pub mod kernel;
pub mod planner;
pub mod solve;
pub mod stats;
pub mod verify;

pub use error::ExecError;
pub use kernel::{GenericStar, OpCount, SevenPoint, StencilKernel, TwentySevenPoint};
pub use planner::{plan_35d, plan_35d_forced, plan_35d_optimal, Plan35D, PlanError};
pub use solve::{solve_steady, try_solve_steady, SteadyState};
pub use verify::{check_finite, verify_executor, Divergence};
