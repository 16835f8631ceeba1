//! Regenerates **Figure 5(a)**: the LBM CPU optimization breakdown —
//! parallel scalar → +SIMD → +spatial → 4-D → 3.5-D → +ILP.
//!
//! ```text
//! cargo run --release -p threefive-bench --bin fig5a
//! ```

use threefive_bench::{
    full_run, host_threads, measure_lbm, print_header, print_row, BenchConfig, Spec,
};
use threefive_core::exec::ScheduleKind;
use threefive_grid::Dim3;
use threefive_lbm::LbmExec;
use threefive_machine::figures::fig5a_rows;
use threefive_machine::Precision;
use threefive_sync::ThreadTeam;

/// The host rung behind each of the model's six bars, in bar order. The
/// paper's "+spatial" bar is a no-op for LBM (no spatial reuse), there is
/// no 4-D lattice executor, and "+ILP" is a compiler-level knob here, so
/// those bars show model numbers only.
const HOST_LADDER: [Option<LbmExec>; 6] = [
    Some(LbmExec::NaiveScalar),
    Some(LbmExec::NaiveSimd),
    None,
    None,
    Some(LbmExec::Blocked35d),
    None,
];

fn main() {
    let team = ThreadTeam::new(host_threads());
    let cfg = BenchConfig::quick();
    let n = if full_run() { 256 } else { 96 };
    let spec = Spec {
        precision: Precision::Sp,
        dim: Dim3::cube(n),
        steps: if full_run() { 3 } else { 6 },
        tile: 64,
        dim_t: 3,
        schedule: ScheduleKind::Lag35d,
        team: &team,
    };
    print_header(&format!(
        "Figure 5(a): LBM SP optimization breakdown (model: 256^3; host: {n}^3, MLUPS)"
    ));
    for (row, exec) in fig5a_rows().iter().zip(HOST_LADDER) {
        let host = exec.map(|e| measure_lbm(&cfg, e, &spec).expect("valid blocking").mups);
        print_row("SP", row.variant, Some(row.mups), host);
    }
    println!(
        "\npaper bars: 52 -> 87 -> 87 -> 94 -> 157 -> 171 MLUPS. Shape to check: \
         SIMD alone is capped by bandwidth; spatial blocking buys nothing \
         (no reuse); 4-D's overestimation eats most of its gain; 3.5-D \
         delivers ~2X."
    );
}
