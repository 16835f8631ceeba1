//! Regenerates **Figure 4(a)**: LBM on the CPU — no-blocking, temporal-only
//! and 3.5-D blocking, SP and DP, across grid sizes. Prints the machine-
//! model bars for the paper's Core i7 next to host measurements.
//!
//! ```text
//! cargo run --release -p threefive-bench --bin fig4a        # reduced sizes
//! THREEFIVE_FULL=1 cargo run --release -p threefive-bench --bin fig4a
//! ```

use threefive_bench::{
    grid_edges, host_threads, measure_lbm, print_header, print_row, BenchConfig, Spec,
};
use threefive_core::exec::ScheduleKind;
use threefive_grid::Dim3;
use threefive_lbm::LbmExec;
use threefive_machine::figures::fig4a_rows;
use threefive_machine::Precision;
use threefive_sync::ThreadTeam;

fn main() {
    let model = fig4a_rows();
    let team = ThreadTeam::new(host_threads());
    let cfg = BenchConfig::quick();
    print_header("Figure 4(a): D3Q19 LBM on CPU (MLUPS)");
    for precision in [Precision::Sp, Precision::Dp] {
        for n in grid_edges() {
            let group = format!("{} {n}^3", precision.label());
            let spec = Spec {
                precision,
                dim: Dim3::cube(n),
                // Host: keep the work bounded — a few steps is enough for
                // a stable MLUPS number on streaming kernels.
                steps: if n >= 256 { 3 } else { 6 },
                tile: if precision == Precision::Sp { 64 } else { 44 },
                dim_t: 3,
                schedule: ScheduleKind::Lag35d,
                team: &team,
            };
            for exec in LbmExec::ALL {
                let host = measure_lbm(&cfg, exec, &spec).expect("valid blocking");
                // Fig 4(a) has no scalar bar; the blocked bars carry the
                // host labels.
                let model_label = match exec {
                    LbmExec::NaiveScalar => None,
                    LbmExec::NaiveSimd => Some("no blocking"),
                    LbmExec::Temporal | LbmExec::Blocked35d => Some(exec.label()),
                };
                let model_mups = model_label.and_then(|ml| {
                    let mg = group.replace("128", "256"); // reduced-size proxy
                    model
                        .iter()
                        .find(|r| r.group == mg && r.variant == ml)
                        .map(|r| r.mups)
                });
                print_row(&group, exec.label(), model_mups, Some(host.mups));
            }
        }
    }
    println!(
        "\nmodel = roofline for the paper's Core i7 (4C/3.2GHz, 22 GB/s); \
         host = this machine ({} threads). Shapes should match: temporal-only \
         helps only when plane rings fit in cache; 3.5-D wins ~2X.",
        host_threads()
    );
}
