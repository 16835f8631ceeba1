//! The outside-in layer ladder of the traced invocation.
//!
//! Every number here comes from timing calls into a layer's *public*
//! functions from this file (layer = module name). `core.*` is always the
//! 7-point ladder and `lbm.*` always the D3Q19 ladder, both at the
//! workload's regime sizes ([`crate::workloads::LadderSizes`]); `serve.*`,
//! `serve_runner.*` and `metrics.*` are always the 16³ × 8 service job on
//! one connection. `run.*`, `grid.*`, `job.*`, `bench.*`, `verify.*` and
//! the in-job `sync.*` numbers come from the workload's own jobs (see
//! `run.rs`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use threefive::core::planner::kappa_35d;
use threefive::prelude::*;
use threefive::serve::protocol::{decode_request, decode_response, encode_response, encode_solve};
use threefive::serve::{AdmissionQueue, Completed, Popped, QueuedJob, Response, ServeMetrics};
use threefive::serve_runner::{grid_checksum, job_grid, STENCIL_ALPHA};
use threefive::sync::TeamPool;

use crate::estimator::median;
use crate::host::{self, HostFacts};
use crate::spans::{durations, self_times, Recorder};
use crate::workloads::{
    clamped, interior, lbm_plan, seeded_field, seeded_lid_velocity, service_spec, stencil_plan,
    Kind, Reply, Service, Workload, LBM_OMEGA,
};
use crate::Metrics;

/// Median seconds of `rep`, which times its own measured part: at least
/// three repetitions and 0.3 s, cut off once two seconds have gone (a
/// 384³ scalar sweep takes 1.5 s).
fn repeat(mut rep: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut secs = Vec::new();
    loop {
        secs.push(rep());
        let total = started.elapsed().as_secs_f64();
        if (secs.len() >= 3 && total >= 0.3) || total >= 2.0 || secs.len() >= 5000 {
            return median(&secs);
        }
    }
}

/// Mean seconds per call of `f` over `calls` calls, as one span.
fn per_call(rec: &Recorder, name: &'static str, calls: usize, mut f: impl FnMut()) -> f64 {
    rec.time(name, None, || (0..calls).for_each(|_| f())).1 / calls as f64
}

fn mups(updates: u64, secs: f64) -> f64 {
    updates as f64 / secs / 1e6
}

/// Returns whether the service ladder's daemons counted exactly the jobs
/// their client sent.
pub fn measure(w: &Workload, seed: u64, rec: &Arc<Recorder>, m: &mut Metrics) -> bool {
    let threads = w.team_threads();
    let facts = HostFacts::detect();
    m.set("host.nproc", facts.nproc as f64);
    m.set("host.llc_mib", facts.llc_mib);
    m.set("host.l2_mib", facts.l2_mib);
    let (triad, _) = rec.time("host.triad", None, || host::triad(&facts, threads));
    m.set("host.triad_array_mib", triad.array_mib);
    m.set("host.triad_gbs_1t", triad.gbs_1t);
    m.set("host.triad_gbs_nt", triad.gbs_nt);
    let (fma, _) = rec.time("host.fma", None, host::fma_gflops_1t);
    m.set("host.fma_gflops_1t", fma);

    stencil_ladder(w, threads, seed, rec, m);
    lbm_ladder(w, threads, seed, rec, m);
    sync_probes(w, threads, rec, m);
    service_ladder(seed, rec, m)
}

/// Puts `initial` back (untimed), then times `sweep` as one span.
fn timed_sweep(
    rec: &Recorder,
    name: &'static str,
    grids: &mut DoubleGrid<f32>,
    initial: &Grid3<f32>,
    mut sweep: impl FnMut(&mut DoubleGrid<f32>),
) -> f64 {
    repeat(|| {
        grids.dst_mut().copy_from(initial);
        grids.swap();
        rec.time(name, None, || sweep(grids)).1
    })
}

/// 7-point ladder at the regime's stencil size.
fn stencil_ladder(w: &Workload, threads: usize, seed: u64, rec: &Recorder, m: &mut Metrics) {
    let (n, steps) = (w.ladder.stencil_n, w.ladder.stencil_steps);
    let updates = interior(n) * steps as u64;
    m.set(
        "core.plan_us",
        per_call(rec, "core.plan_35d", 1000, || {
            std::hint::black_box(stencil_plan()).ok();
        }) * 1e6,
    );
    let plan =
        stencil_plan().expect("7-point SP is bandwidth bound on the planner's machine model");
    m.set("core.plan_dim_t", plan.dim_t as f64);
    m.set("core.plan_tile", plan.dim_xy as f64);
    m.set("core.kappa", plan.kappa);

    let (tile, dim_t) = clamped(&plan, n);
    let blocking = Blocking35::new(tile, tile, dim_t);
    let kernel = SevenPoint::<f32>::heat(STENCIL_ALPHA);
    let initial = seeded_field(n, seed);
    let mut grids = DoubleGrid::from_initial(initial.clone());
    let (one, team) = (ThreadTeam::new(1), ThreadTeam::new(threads));
    let mut stats = Default::default();
    let mut blocked = |name, b: Blocking35, team: &ThreadTeam, grids: &mut DoubleGrid<f32>| {
        timed_sweep(rec, name, grids, &initial, |g| {
            stats = try_parallel35d_sweep(&kernel, g, steps, b, team, None, &Observer::disabled())
                .expect("a healthy team completes the sweep");
        })
    };

    let blocked_1t = mups(
        updates,
        blocked("core.blocked35d_1t", blocking, &one, &mut grids),
    );
    let wavefront = blocked(
        "core.wavefront",
        blocking.with_schedule(ScheduleKind::Wavefront),
        &team,
        &mut grids,
    );
    let diamond = blocked(
        "core.diamond",
        blocking.with_schedule(ScheduleKind::Diamond),
        &team,
        &mut grids,
    );
    let parallel_s = blocked("core.parallel35d", blocking, &team, &mut grids);
    let stats: threefive::core::stats::SweepStats = stats;
    let reference_s = timed_sweep(rec, "core.reference_sweep", &mut grids, &initial, |g| {
        reference_sweep(&kernel, g, steps);
    });
    let simd_1t = mups(
        updates,
        timed_sweep(rec, "core.simd_sweep", &mut grids, &initial, |g| {
            simd_sweep(&kernel, g, steps);
        }),
    );
    let parallel = mups(updates, parallel_s);
    m.set("core.reference_mups_1t", mups(updates, reference_s));
    m.set("core.simd_sweep_mups_1t", simd_1t);
    m.set("core.blocked35d_mups_1t", blocked_1t);
    m.set("core.parallel35d_mups", parallel);
    m.set("core.wavefront_mups", mups(updates, wavefront));
    m.set("core.diamond_mups", mups(updates, diamond));
    m.set("core.blocking_gain_1t", blocked_1t / simd_1t);
    m.set(
        "core.parallel_eff",
        parallel / (threads as f64 * blocked_1t),
    );

    // Exact counts from the executor's own loop bounds and the kernel's
    // declared operations; "computed" because cache misses are not seen.
    let bytes = stats.dram_bytes() as f64 / stats.committed_points as f64;
    let flops = kernel.ops().flops() as f64;
    m.set("core.bytes_per_update_computed", bytes);
    m.set("core.flops_per_update", flops);
    m.set("core.op_per_byte_computed", flops / bytes);
    let (triad, fma) = (m.get("host.triad_gbs_nt"), m.get("host.fma_gflops_1t"));
    m.set("core.mem_bw_frac", parallel * 1e6 * bytes / (triad * 1e9));
    let roof_gflops = (fma * threads as f64).min(triad * flops / bytes);
    m.set(
        "core.roofline_frac",
        parallel * 1e6 * flops / 1e9 / roof_gflops,
    );
}

/// D3Q19 ladder at the regime's lattice size.
fn lbm_ladder(w: &Workload, threads: usize, seed: u64, rec: &Recorder, m: &mut Metrics) {
    let (n, steps) = (w.ladder.lbm_n, w.ladder.lbm_steps);
    let updates = interior(n) * steps as u64;
    let plan = lbm_plan().expect("D3Q19 SP is bandwidth bound on the planner's machine model");
    let (tile, dim_t) = clamped(&plan, n);
    let blocking = LbmBlocking::new(tile, tile, dim_t);
    let mut lat = threefive::lbm::scenarios::lid_driven_cavity::<f32>(
        Dim3::cube(n),
        LBM_OMEGA,
        seeded_lid_velocity(seed),
    );
    let initial = lat.src().clone();
    let team = ThreadTeam::new(threads);
    let mut timed = |name, sweep: &mut dyn FnMut(&mut Lattice<f32>)| {
        repeat(|| {
            lat.dst_mut().copy_from(&initial);
            lat.swap();
            rec.time(name, None, || sweep(&mut lat)).1
        })
    };
    let blocked_s = timed("lbm.lbm35d", &mut |lat| {
        try_lbm35d_sweep(
            lat,
            steps,
            blocking,
            Some(&team),
            None,
            &Observer::disabled(),
        )
        .expect("a healthy team completes the sweep");
    });
    let simd = mups(
        updates,
        timed("lbm.naive_simd", &mut |lat| {
            lbm_naive_sweep(lat, steps, LbmMode::Simd, Some(&team));
        }),
    );
    let scalar_s = timed("lbm.naive_scalar", &mut |lat| {
        lbm_naive_sweep(lat, steps, LbmMode::Scalar, None);
    });
    let blocked = mups(updates, blocked_s);
    m.set("lbm.naive_scalar_mups_1t", mups(updates, scalar_s));
    m.set("lbm.naive_simd_mups", simd);
    m.set("lbm.lbm35d_mups", blocked);
    m.set("lbm.blocking_gain", blocked / simd);
    // 19 values read and 19 written per update, once per dim_T steps,
    // times the ghost-zone overestimation of the tile the engine loads
    // (none when one tile covers the plane).
    let loaded = tile + 2 * dim_t;
    let kappa = if tile >= n {
        1.0
    } else {
        kappa_35d(1, dim_t, loaded, loaded)
    };
    let bytes = (19 + 19) as f64 * 4.0 * kappa / dim_t as f64;
    m.set("lbm.bytes_per_update_computed", bytes);
    m.set(
        "lbm.mem_bw_frac",
        blocked * 1e6 * bytes / (m.get("host.triad_gbs_nt") * 1e9),
    );
}

/// Barrier, dispatch and lease costs at the workload's team size, and the
/// exact barrier count of one of its jobs.
fn sync_probes(w: &Workload, threads: usize, rec: &Recorder, m: &mut Metrics) {
    const WAITS: usize = 100_000;
    let team = ThreadTeam::new(threads);
    let barrier = SpinBarrier::new(threads);
    let (_, secs) = rec.time("sync.barrier_loop", None, || {
        team.run(|_| {
            (0..WAITS).for_each(|_| {
                barrier.wait();
            })
        });
    });
    m.set("sync.barrier_ns", secs / WAITS as f64 * 1e9);
    m.set(
        "sync.team_dispatch_us",
        per_call(rec, "sync.team_dispatch", 20_000, || team.run(|_| {})) * 1e6,
    );
    let pool = TeamPool::new(1, threads);
    let lease = || drop(pool.checkout(Duration::from_secs(1)).expect("an idle team"));
    m.set(
        "sync.pool_lease_us",
        per_call(rec, "sync.pool_lease", 20_000, lease) * 1e6,
    );

    // One barrier per outer step of every tile of every chunk.
    let plan = match w.kind {
        Kind::Lbm => lbm_plan(),
        _ => stencil_plan(),
    }
    .expect("the workload's kernel is bandwidth bound on the planner's machine model");
    let (tile, dim_t) = clamped(&plan, w.n);
    let tiles = w.n.div_ceil(tile).pow(2);
    let schedule = ScheduleKind::Lag35d.schedule();
    let chunks = (0..w.steps)
        .step_by(dim_t)
        .map(|done| dim_t.min(w.steps - done));
    let barriers: usize = chunks
        .map(|c| tiles * schedule.outer_steps(w.n, 1, c))
        .sum();
    m.set("sync.barriers_per_job", barriers as f64);
}

/// The service layers on one connection: what of a round trip is the
/// runner, what of the runner is the engine, and what the rest costs.
/// Returns whether the daemons' counts agree with the client's.
fn service_ladder(seed: u64, rec: &Arc<Recorder>, m: &mut Metrics) -> bool {
    const SOLVES: usize = 1500;
    const BATCHES: usize = 6;
    const CALLS: usize = 2000;
    let w = Workload::find("serve_small").expect("the service workload is defined");
    let spec = service_spec(w);
    // Two daemons, metrics plane on and off, take turns in short batches
    // so that both see the same phases of the host.
    let mut on = Service::set_up(w, seed, 1, ServeMetrics::new(), Some(rec));
    let mut off = Service::set_up(w, seed, 1, ServeMetrics::disabled(), Some(rec));
    let (mut log, mut off_log): (Vec<Reply>, Vec<Reply>) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        log.extend(on.drive(SOLVES / BATCHES).remove(0));
        off_log.extend(off.drive(SOLVES / BATCHES).remove(0));
    }
    let rtt_us = |log: &[Reply]| median(&log.iter().map(|r| r.rtt_ms() * 1e3).collect::<Vec<_>>());
    let (rtt_on, rtt_off) = (rtt_us(&log), rtt_us(&off_log));
    m.set("serve.solve_rtt_us_1c", rtt_on);
    m.set(
        "metrics.on_vs_off_pct",
        (rtt_on - rtt_off) / rtt_off * 100.0,
    );

    let ping = per_call(rec, "serve.ping_rtt", CALLS, || {
        on.client().ping().expect("ping")
    });
    m.set("serve.frame_rtt_us", ping * 1e6);
    let (_, scrape) = rec.time("metrics.scrape", None, || {
        on.client().metrics_exposition().expect("scrape")
    });
    m.set("metrics.scrape_ms", scrape * 1e3);
    let (completed, rejected, failed, identities_ok) = on.daemon_counts().expect("daemon stats");
    m.set("serve.completed", completed as f64);
    m.set("serve.rejected", rejected as f64);
    m.set("serve.failed", failed as f64);
    let agree = identities_ok && on.accounting_agrees() && off.accounting_agrees();
    let jobs = on.job_ids();
    m.set("serve.identities_ok", f64::from(u8::from(agree)));
    Service::stop_all(vec![on, off]);

    // A round trip's self time is what is left of it outside the runner.
    rec.link_by_job("serve_runner.run", "serve.solve_rtt");
    let spans = rec.snapshot();
    let med_us = |ns: Vec<f64>| median(&ns) / 1e3;
    let run_us = med_us(durations(&spans, "serve_runner.run", &jobs));
    m.set("serve_runner.run_us", run_us);
    m.set(
        "serve.overhead_us",
        med_us(self_times(&spans, "serve.solve_rtt", &jobs)),
    );
    let exec_us = median(&log.iter().map(|r| r.exec_ms * 1e3).collect::<Vec<_>>());
    m.set("serve_runner.exec_share", exec_us / run_us);

    // The runner's per-job grid set-up and checksum, by its own public
    // building blocks.
    let mut grids = None;
    let setup = per_call(rec, "serve_runner.setup", CALLS, || {
        grids = Some(DoubleGrid::from_initial(job_grid(spec.n)));
    });
    m.set("serve_runner.setup_us", setup * 1e6);
    let grids = grids.expect("set up at least once");
    let checksum = per_call(rec, "serve_runner.checksum", CALLS, || {
        std::hint::black_box(grid_checksum(grids.src()));
    });
    m.set("serve_runner.checksum_us", checksum * 1e6);

    // Codec: what one job's two frames cost to write and read as text.
    let done = Response::Done {
        job_id: 1,
        completed: Completed {
            rung: "parallel 3.5-D".into(),
            downgrades: 0,
            checksum: grid_checksum(grids.src()),
            barrier_share: Some(0.0),
            exec_ms: 0.25,
        },
    };
    let parse =
        |text: String| threefive::bench::json::Json::parse(&text).expect("own encoding parses");
    let codec = per_call(rec, "serve.codec", CALLS, || {
        decode_request(&parse(encode_solve(&spec).to_string())).expect("request round-trips");
        decode_response(&parse(encode_response(&done).to_string())).expect("response round-trips");
    });
    m.set("serve.codec_us", codec * 1e6);

    // Queue: one uncontended push and pop.
    let queue = AdmissionQueue::new(64);
    let queued = per_call(rec, "serve.queue", CALLS, || {
        let job = QueuedJob {
            id: 1,
            spec: spec.clone(),
            admitted_at: Instant::now(),
            reply_to: 0,
        };
        queue.push(job).expect("queue has room");
        assert!(matches!(queue.pop(Duration::from_secs(1)), Popped::Job(_)));
    });
    m.set("serve.queue_us", queued * 1e6);
    agree
}
