//! Regenerates the **§VII-D comparison**: the paper's headline speedups
//! of 3.5-D blocking over the best unblocked implementations, next to the
//! model's predictions and a host measurement of the same ratio — and the
//! **§III-B barrier claim**: a custom spin barrier against the futex-based
//! `std::sync::Barrier` (the paper's "pthreads barrier"), as nanoseconds
//! per episode on this host.
//!
//! ```text
//! cargo run --release -p threefive-bench --bin compare
//! ```
//!
//! Regressions are judged by the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`), not here.

use std::process::ExitCode;

use threefive_bench::{
    full_run, host_threads, measure_lbm, measure_seven_point, median, run_reps, BenchConfig,
};
use threefive_grid::Dim3;
use threefive_machine::figures::comparisons;
use threefive_sync::{SpinBarrier, ThreadTeam};

/// Median nanoseconds per barrier episode when every member of `team`
/// calls `wait` back to back (the executor barriers once per streamed
/// plane, so this is the per-plane synchronization cost).
fn barrier_episode_ns(team: &ThreadTeam, wait: impl Fn() + Sync) -> f64 {
    const EPISODES: usize = 1000;
    let cfg = BenchConfig { warmup: 1, reps: 5 };
    let (secs, _) = run_reps(&cfg, |_| {
        team.run(|_| (0..EPISODES).for_each(|_| wait()));
    });
    median(&secs) / EPISODES as f64 * 1e9
}

fn print_barrier_table() {
    // A one-member barrier never waits; measure at least a pair.
    let team = ThreadTeam::new(host_threads().max(2));
    let spin = SpinBarrier::new(team.threads());
    let futex = std::sync::Barrier::new(team.threads());
    let spin_ns = barrier_episode_ns(&team, || {
        spin.wait();
    });
    let futex_ns = barrier_episode_ns(&team, || {
        futex.wait();
    });
    println!(
        "\n== §III-B: barrier episode, {} threads ==\n",
        team.threads()
    );
    println!("{:28} {:>10.0} ns", "spin (sync::SpinBarrier)", spin_ns);
    println!("{:28} {:>10.0} ns", "futex (std::sync::Barrier)", futex_ns);
    println!(
        "spin is {:.1}x faster (paper: 50x over the pthreads barrier)",
        futex_ns / spin_ns
    );
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument '{arg}'");
        eprintln!("usage: compare");
        return ExitCode::FAILURE;
    }
    println!("\n== §VII-D: 3.5-D speedups — paper vs model vs host ==\n");
    println!(
        "{:52} {:>7} {:>7} {:>7}",
        "comparison", "paper", "model", "host"
    );
    println!("{}", "-".repeat(78));

    let team = ThreadTeam::new(host_threads());
    let cfg = BenchConfig::quick();
    let n = if full_run() { 512 } else { 128 };
    let nl = if full_run() { 256 } else { 96 };

    // Host ratios for the comparisons we can measure directly.
    let host_7pt_sp = {
        let base = measure_seven_point::<f32>(
            &cfg,
            "simd no-blocking",
            Dim3::cube(n),
            4,
            360,
            2,
            Some(&team),
        )
        .expect("valid blocking");
        let b35 = measure_seven_point::<f32>(
            &cfg,
            "3.5D blocking",
            Dim3::cube(n),
            4,
            360,
            2,
            Some(&team),
        )
        .expect("valid blocking");
        b35.mups / base.mups
    };
    let host_7pt_dp = {
        let base = measure_seven_point::<f64>(
            &cfg,
            "simd no-blocking",
            Dim3::cube(n),
            4,
            256,
            2,
            Some(&team),
        )
        .expect("valid blocking");
        let b35 = measure_seven_point::<f64>(
            &cfg,
            "3.5D blocking",
            Dim3::cube(n),
            4,
            256,
            2,
            Some(&team),
        )
        .expect("valid blocking");
        b35.mups / base.mups
    };
    let host_lbm_sp = {
        let base = measure_lbm::<f32>(&cfg, "simd no-blocking", nl, 3, 64, 3, Some(&team))
            .expect("valid blocking");
        let b35 = measure_lbm::<f32>(&cfg, "3.5D blocking", nl, 3, 64, 3, Some(&team))
            .expect("valid blocking");
        b35.mups / base.mups
    };
    let host_lbm_dp = {
        let base = measure_lbm::<f64>(&cfg, "simd no-blocking", nl, 3, 44, 3, Some(&team))
            .expect("valid blocking");
        let b35 = measure_lbm::<f64>(&cfg, "3.5D blocking", nl, 3, 44, 3, Some(&team))
            .expect("valid blocking");
        b35.mups / base.mups
    };

    let hosts = [
        Some(host_7pt_sp),
        Some(host_7pt_dp),
        Some(host_lbm_sp),
        Some(host_lbm_dp),
        None, // GPU comparison: no host GPU — simulator covers it (fig4c)
    ];
    for (c, host) in comparisons().iter().zip(hosts) {
        let host_s = host.map_or("      -".into(), |h| format!("{h:6.2}x"));
        println!(
            "{:52} {:>6.2}x {:>6.2}x {:>7}",
            c.what, c.paper_speedup, c.model_speedup, host_s
        );
    }
    println!(
        "\nHost ratios depend on this machine's cache/bandwidth balance \
         (grids: {n}^3 stencil, {nl}^3 LBM; THREEFIVE_FULL=1 for paper sizes). \
         The model column should track the paper within ~25%."
    );
    print_barrier_table();
    ExitCode::SUCCESS
}
