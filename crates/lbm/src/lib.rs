//! # threefive-lbm — D3Q19 lattice Boltzmann with 3.5-D blocking
//!
//! The paper's second kernel (§IV-B): a 19-velocity, BGK single-relaxation
//! lattice Boltzmann method over a 3-D lattice, with
//!
//! * **structure-of-arrays** storage — one array per distribution function
//!   so SIMD lanes map to consecutive lattice sites (§IV-B);
//! * a fused **stream–collide ("pull")** update: the new state of a site is
//!   collided from the 19 values streaming *in* from its neighbors, so one
//!   sweep reads 19 values + a flag and writes 19 values per site;
//! * **full-way bounce-back** obstacles and **fixed** (constant
//!   distribution) boundary sites, e.g. a moving lid;
//! * the executor ladder of the paper's Figure 4(a)/5(a): scalar,
//!   SIMD, parallel, temporal-only blocking and full 3.5-D blocking — all
//!   bit-exact with each other because every variant shares one generic
//!   collision kernel evaluated in a fixed association order.
//!
//! The per-site cost matches the paper's accounting: ~220 flops plus
//! 20 reads and 19 writes ⇒ 259 ops, bytes/op 0.88 (SP) / 1.75 (DP).

#![deny(unsafe_op_in_unsafe_fn)]
#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod lattice;
pub mod model;
pub mod periodic;
mod pipeline;
mod registry;
pub mod scenarios;
mod step;

pub use lattice::{Lattice, Macroscopic};
pub use periodic::{lbm_periodic_reference, lbm_periodic_sweep, periodic_lattice};
pub use pipeline::{lbm35d_sweep, lbm_temporal_sweep, try_lbm35d_sweep, LbmBlocking, LbmError};
pub use registry::LbmExec;
pub use step::{lbm_naive_sweep, LbmMode};
