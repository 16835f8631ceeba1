//! Regenerates **Figure 4(b)**: 7-point stencil on the CPU — no-blocking,
//! spatial-only and 3.5-D blocking, SP and DP, across grid sizes.
//!
//! ```text
//! cargo run --release -p threefive-bench --bin fig4b
//! THREEFIVE_FULL=1 cargo run --release -p threefive-bench --bin fig4b
//! ```

use threefive_bench::{
    grid_edges, host_threads, measure_stencil, print_header, print_row, BenchConfig, Spec,
};
use threefive_core::exec::{ScheduleKind, StencilExec};
use threefive_grid::Dim3;
use threefive_machine::figures::fig4b_rows;
use threefive_machine::Precision;
use threefive_sync::ThreadTeam;

fn main() {
    let model = fig4b_rows();
    let team = ThreadTeam::new(host_threads());
    let cfg = BenchConfig::quick();
    print_header("Figure 4(b): 7-point stencil on CPU (MUPS)");
    for precision in [Precision::Sp, Precision::Dp] {
        for n in grid_edges() {
            let group = format!("{} {n}^3", precision.label());
            let spec = Spec {
                precision,
                dim: Dim3::cube(n),
                steps: if n >= 256 { 4 } else { 8 },
                tile: if precision == Precision::Sp { 360 } else { 256 },
                dim_t: 2,
                schedule: ScheduleKind::Lag35d,
                team: &team,
            };
            for (exec, model_label) in [
                (StencilExec::Simd, "no blocking"),
                (StencilExec::Blocked25d, "spatial only (2.5D)"),
                (StencilExec::Parallel35d, StencilExec::Parallel35d.label()),
            ] {
                let host = measure_stencil(&cfg, exec, &spec).expect("valid blocking");
                let mg = group.replace("128", "256");
                let model_mups = model
                    .iter()
                    .find(|r| r.group == mg && r.variant == model_label)
                    .map(|r| r.mups);
                print_row(&group, exec.label(), model_mups, Some(host.mups));
            }
        }
    }
    println!(
        "\nmodel = roofline for the paper's Core i7; host = this machine \
         ({} threads). Shape: blocking does not help the cache-resident 64^3 \
         case; on large grids 3.5-D converts the bandwidth-bound sweep into \
         a compute-bound one (~1.4-1.5X).",
        host_threads()
    );
}
