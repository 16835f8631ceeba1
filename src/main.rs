//! `threefive` — command-line driver for the 3.5-D blocking library.
//!
//! ```text
//! threefive plan  --kernel 7pt --machine i7 --precision sp
//! threefive run   --variant 35d --n 128 --steps 8 --threads 4
//! threefive lbm   --scenario cavity --variant 35d --n 48 --steps 120
//! threefive bench --n 64 --steps 4 --out .
//! threefive bench --validate BENCH_stencil.json
//! threefive gpu   --n 96 --steps 2
//! threefive info
//! ```
//!
//! All user input is validated: unparseable option values and invalid
//! blocking parameters (e.g. `--dimt 0`) are reported as errors with a
//! nonzero exit status, never silently defaulted or panicked on.

use std::collections::HashMap;
use std::fmt;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use threefive::analyze::findings::AnalyzeReport;
use threefive::bench::counters::{lbm_telemetry, stencil_telemetry, Telemetry};
use threefive::bench::perfetto::{trace_to_chrome_json, validate_trace_str};
use threefive::bench::probe::ProbeWorkload;
use threefive::bench::report::{BenchEntry, BenchReport, HostInfo};
use threefive::bench::service::ServiceReport;
use threefive::bench::{
    measure_lbm_scheduled, measure_seven_point_scheduled, stencil_variant_uses_team, BenchConfig,
    Measurement, LBM_VARIANTS, STENCIL_VARIANTS,
};
use threefive::cli::{self, CliError};
use threefive::gpu::kernels::{
    naive_sweep as gpu_naive, pipelined35_sweep, spatial_sweep, Pipe35Config, SevenPointGpu,
};
use threefive::gpu::timing::throughput_gtx285;
use threefive::gpu::Device;
use threefive::lbm::{scenarios, LbmError};
use threefive::loadgen::{run_loadgen, LoadgenConfig, WorkloadMix};
use threefive::machine::fermi;
use threefive::machine::roofline::{GPU_ALU_EFF, GPU_ALU_EFF_TUNED};
use threefive::machine::twenty_seven_point_traffic;
use threefive::metrics::Level;
use threefive::prelude::*;
use threefive::serve::{signal, AdmissionLimits, ServeMetrics, Server, ServerConfig};
use threefive::serve_runner::SolverRunner;
use threefive::stat::{run_once as stat_once, StatOptions};
use threefive::tune::{
    hill_climb, verify_candidate, BenchProber, ProbeBudget, SearchSpace, TuneDb, TuneEntry,
    TunedPlan,
};

type Opts = HashMap<String, String>;

/// Anything a subcommand can fail with. Every variant prints as
/// `error: ...` and exits nonzero.
#[derive(Debug)]
enum CmdError {
    Cli(CliError),
    Exec(ExecError),
    Lbm(LbmError),
    Io(std::io::Error),
    Msg(String),
}

impl fmt::Display for CmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmdError::Cli(e) => write!(f, "{e}"),
            CmdError::Exec(e) => write!(f, "{e}"),
            CmdError::Lbm(e) => write!(f, "{e}"),
            CmdError::Io(e) => write!(f, "{e}"),
            CmdError::Msg(m) => f.write_str(m),
        }
    }
}

impl From<CliError> for CmdError {
    fn from(e: CliError) -> Self {
        CmdError::Cli(e)
    }
}
impl From<ExecError> for CmdError {
    fn from(e: ExecError) -> Self {
        CmdError::Exec(e)
    }
}
impl From<LbmError> for CmdError {
    fn from(e: LbmError) -> Self {
        CmdError::Lbm(e)
    }
}
impl From<std::io::Error> for CmdError {
    fn from(e: std::io::Error) -> Self {
        CmdError::Io(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let opts = cli::parse_opts(rest);
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => {
            usage();
            return ExitCode::SUCCESS;
        }
        name => match COMMANDS.iter().find(|c| c.0 == name) {
            Some(&(_, flags, run)) => cli::ensure_known(&opts, flags)
                .map_err(CmdError::from)
                .and_then(|()| run(&opts)),
            None => {
                eprintln!("unknown command: {name}\n");
                usage();
                return ExitCode::FAILURE;
            }
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every subcommand: its name, the closed set of `--flags` it accepts
/// (anything else is an error naming the flag, checked before the command
/// runs) and its entry point. Keep each row in step with the usage text
/// below.
type Command = (
    &'static str,
    &'static [&'static str],
    fn(&Opts) -> Result<(), CmdError>,
);

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("plan", &["kernel", "machine", "precision", "cache"], cmd_plan),
    ("run", &["variant", "n", "steps", "tile", "dimt", "threads", "schedule", "reps", "warmup",
        "precision", "db"], cmd_run),
    ("lbm", &["scenario", "variant", "n", "steps", "tile", "dimt", "threads", "schedule",
        "timing", "trace", "out", "deadline"], cmd_lbm),
    ("bench", &["n", "steps", "reps", "warmup", "tile", "dimt", "threads", "schedule",
        "precision", "out", "db", "validate"], cmd_bench),
    ("tune", &["workload", "n", "steps", "probes", "deadline-ms", "threads", "reps", "warmup",
        "precision", "schedule", "db", "validate"], cmd_tune),
    ("trace", &["nx", "ny", "nz", "n", "dimt", "steps", "tile", "threads", "workload",
        "schedule", "out", "validate"], cmd_trace),
    ("analyze", &["root", "deny-findings", "out", "baseline", "write-baseline", "model-check",
        "mc-schedules", "mc-steps", "mc-preemptions", "replay", "validate"], cmd_analyze),
    ("serve", &["addr", "metrics-addr", "teams", "threads", "queue", "dispatchers", "max-n",
        "quiet", "tune-db"], cmd_serve),
    ("loadgen", &["addr", "tenants", "jobs", "workload", "n", "steps", "tile", "dimt",
        "deadline", "chaos", "verify", "verify-latency", "out", "validate"], cmd_loadgen),
    ("stat", &["addr", "watch", "events", "level", "check", "jsonl"], cmd_stat),
    ("gpu", &["n", "steps"], cmd_gpu),
    ("info", &[], cmd_info),
];

fn usage() {
    eprintln!(
        "threefive — 3.5-D blocking for stencil computations (SC 2010 reproduction)

USAGE:
  threefive plan  --kernel 7pt|27pt|lbm --machine i7|gtx285|fermi
                  [--precision sp|dp] [--cache BYTES]
  threefive run   --variant ref|simd|25d|3d|4d|temporal|35d|tile35
                  [--n 128] [--steps 8] [--tile T] [--dimt K] [--threads N]
                  [--schedule lag35d|wavefront|diamond]
                  [--reps R] [--warmup W] [--precision sp|dp] [--db TUNE.json]
  threefive lbm   --scenario box|cavity|channel
                  --variant scalar|simd|temporal|35d
                  [--n 48] [--steps 60] [--tile T] [--dimt K] [--threads N]
                  [--schedule lag35d|wavefront|diamond]
                  [--timing] [--trace] [--out DIR] [--deadline MS]
  threefive bench [--n 64] [--steps 4] [--reps 3] [--warmup 1]
                  [--tile T] [--dimt K] [--threads N]
                  [--schedule lag35d|wavefront|diamond]
                  [--precision sp|dp|both] [--out DIR] [--db TUNE.json]
  threefive bench --validate FILE
  threefive tune  [--workload stencil|lbm|both] [--n 64] [--steps 2]
                  [--probes 24] [--deadline-ms 60000] [--threads N]
                  [--reps R] [--warmup W] [--precision sp|dp|both]
                  [--schedule all|lag35d|wavefront|diamond]
                  [--db TUNE.json]
  threefive tune  --validate FILE
  threefive trace [--nx X --ny Y --nz Z | --n N] [--dimt K] [--steps S]
                  [--tile T] [--threads N] [--workload stencil|lbm]
                  [--schedule lag35d|wavefront|diamond]
                  [--out DIR]
  threefive trace --validate FILE
  threefive analyze [--root DIR] [--deny-findings] [--out DIR]
                  [--baseline FILE] [--write-baseline]
                  [--model-check] [--mc-schedules N] [--mc-steps N]
                  [--mc-preemptions N|none]
  threefive analyze --replay TRACE.json [--mc-steps N]
  threefive analyze --validate FILE
  threefive serve [--addr 127.0.0.1:7435] [--metrics-addr HOST:PORT]
                  [--teams 2] [--threads N] [--queue 64] [--dispatchers 2]
                  [--max-n 128] [--quiet] [--tune-db FILE]
  threefive loadgen [--addr 127.0.0.1:7435] [--tenants 8] [--jobs 64]
                  [--workload stencil|lbm|mix] [--n 16] [--steps 4]
                  [--tile T] [--dimt K] [--deadline MS]
                  [--chaos] [--verify] [--verify-latency] [--out DIR]
  threefive loadgen --validate FILE
  threefive stat  [--addr 127.0.0.1:7435] [--watch SECS] [--events N]
                  [--level debug|info|warn|error] [--check] [--jsonl]
  threefive gpu   [--n 96] [--steps 2]
  threefive info"
    );
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Parses `--schedule` into a temporal-blocking schedule; defaults to the
/// paper's 3.5-D lag schedule.
fn parse_schedule(opts: &Opts) -> Result<ScheduleKind, CmdError> {
    let s = cli::getstr(opts, "schedule", "lag35d");
    ScheduleKind::parse(&s).ok_or_else(|| {
        CmdError::Msg(format!(
            "unknown schedule '{s}' (expected lag35d, wavefront or diamond)"
        ))
    })
}

/// A tuned plan pulled from the `TUNE.json` database, plus a one-line
/// provenance string for the console.
struct TunedChoice {
    tile: usize,
    dim_t: usize,
    threads: usize,
    schedule: ScheduleKind,
    provenance: String,
}

/// Consults the autotuner database for (kernel, precision, `n`³) on this
/// host. Only consulted when the user pinned none of `--tile`, `--dimt`,
/// `--threads` or `--schedule` — explicit flags always win — and
/// `--db none` disables the lookup entirely. A missing database file is a plain miss (the
/// caller falls back to the analytical plan); a present-but-invalid one
/// is a diagnosed error, never silently ignored.
fn tuned_lookup(
    opts: &Opts,
    kernel: &str,
    dp: bool,
    n: usize,
) -> Result<Option<TunedChoice>, CmdError> {
    if ["tile", "dimt", "threads", "schedule"]
        .iter()
        .any(|k| opts.contains_key(*k))
    {
        return Ok(None);
    }
    let db_path = cli::getstr(opts, "db", "TUNE.json");
    if db_path == "none" {
        return Ok(None);
    }
    let Some(db) = TuneDb::load(std::path::Path::new(&db_path)).map_err(CmdError::Msg)? else {
        return Ok(None);
    };
    let host = HostInfo::detect();
    let precision = if dp { "dp" } else { "sp" };
    Ok(db
        .lookup(&host.fingerprint, kernel, precision, [n, n, n])
        .map(|e| TunedChoice {
            tile: e.plan.tile,
            dim_t: e.plan.dim_t,
            threads: e.plan.threads,
            schedule: e.plan.schedule,
            provenance: format!(
                "{} plan from {db_path}: tile {} dim_T {} threads {} schedule {} \
                 ({:.1} MUPS tuned vs {:.1} scalar floor)",
                e.plan.source,
                e.plan.tile,
                e.plan.dim_t,
                e.plan.threads,
                e.plan.schedule,
                e.mups,
                e.scalar_mups
            ),
        }))
}

fn machine_by_name(name: &str) -> Result<Machine, CmdError> {
    match name {
        "i7" | "corei7" => Ok(core_i7()),
        "gtx285" | "gpu" => Ok(gtx285()),
        "fermi" => Ok(fermi()),
        other => Err(CmdError::Msg(format!(
            "unknown machine '{other}' (expected i7, gtx285 or fermi)"
        ))),
    }
}

fn cmd_plan(opts: &Opts) -> Result<(), CmdError> {
    let machine = machine_by_name(&cli::getstr(opts, "machine", "i7"))?;
    let precision = match cli::getstr(opts, "precision", "sp").as_str() {
        "sp" => Precision::Sp,
        "dp" => Precision::Dp,
        other => {
            return Err(CmdError::Msg(format!(
                "unknown precision '{other}' (expected sp or dp)"
            )))
        }
    };
    let kernel = cli::getstr(opts, "kernel", "7pt");
    let traffic = match kernel.as_str() {
        "7pt" => seven_point_traffic(),
        "27pt" => twenty_seven_point_traffic(),
        "lbm" => lbm_traffic(),
        other => {
            return Err(CmdError::Msg(format!(
                "unknown kernel '{other}' (expected 7pt, 27pt or lbm)"
            )))
        }
    };
    let cache = cli::get(opts, "cache", machine.fast_storage_bytes)?;
    println!(
        "planning {} ({}) on {} with 𝒞 = {} KB",
        traffic.name,
        precision.label(),
        machine.name,
        cache / 1024
    );
    println!(
        "  γ = {:.3} B/op, Γ = {:.3} B/op",
        traffic.gamma(precision),
        machine.big_gamma(precision)
    );
    match plan_35d(
        traffic.gamma(precision),
        machine.big_gamma(precision),
        cache,
        traffic.elem_bytes(precision),
        traffic.radius,
    ) {
        Ok(p) => {
            println!(
                "  dim_T = {}, tile = {}x{}, κ = {:.3}",
                p.dim_t, p.dim_xy, p.dim_xy, p.kappa
            );
            println!(
                "  buffers: {:.2} MB; effective γ after blocking: {:.3} (target ≤ {:.3})",
                p.buffer_bytes as f64 / (1 << 20) as f64,
                p.effective_gamma,
                machine.big_gamma(precision)
            );
        }
        // "does not fit" is an informative planner answer, not a failure.
        Err(e) => println!("  {e}"),
    }
    Ok(())
}

/// Maps a `run` CLI variant name to the bench harness's ladder label.
fn stencil_label(variant: &str) -> Result<&'static str, CmdError> {
    Ok(match variant {
        "ref" => "scalar",
        "simd" => "simd no-blocking",
        "25d" => "spatial only",
        "3d" => "3D blocking",
        "4d" => "4D blocking",
        "temporal" => "temporal only",
        "35d" => "3.5D blocking",
        "tile35" => "tile 3.5D",
        other => {
            return Err(CmdError::Msg(format!(
            "unknown variant '{other}' (expected ref, simd, 25d, 3d, 4d, temporal, 35d or tile35)"
        )))
        }
    })
}

fn cmd_run(opts: &Opts) -> Result<(), CmdError> {
    let n: usize = cli::get(opts, "n", 128)?;
    let steps: usize = cli::get(opts, "steps", 8)?;
    let cfg = BenchConfig {
        warmup: cli::get(opts, "warmup", 1)?,
        reps: cli::get(opts, "reps", 1)?,
    };
    let variant = cli::getstr(opts, "variant", "35d");
    let label = stencil_label(&variant)?;
    let dp = cli::getstr(opts, "precision", "sp") == "dp";
    // Blocking parameters: explicit flags beat the tuner database beats
    // the analytical defaults.
    let tuned = tuned_lookup(opts, "7pt", dp, n)?;
    let (tile, dim_t, threads, schedule) = match &tuned {
        Some(t) => {
            println!("  {}", t.provenance);
            (t.tile, t.dim_t, t.threads, t.schedule)
        }
        None => (
            cli::get(opts, "tile", n.min(360))?,
            cli::get(opts, "dimt", 2)?,
            cli::get(opts, "threads", host_threads())?,
            parse_schedule(opts)?,
        ),
    };
    // A single-threaded variant reports one thread — whatever the host or
    // the tuner database would have picked — and refuses to be told more.
    let threads = if !stencil_variant_uses_team(label) {
        if cli::get(opts, "threads", 1usize)? > 1 {
            return Err(CmdError::Msg(format!(
                "--threads requires a variant that runs on a thread team \
                 (temporal, 35d or tile35), not '{variant}', which is single-threaded"
            )));
        }
        1
    } else {
        threads
    };
    let dim = Dim3::cube(n);
    let team = ThreadTeam::new(threads);
    // Blocking parameters come straight from the user; the harness routes
    // them through `Blocking35::try_new`, so `--dimt 0` is a diagnosed
    // error, not a panic.
    let m = if dp {
        measure_seven_point_scheduled::<f64>(
            &cfg,
            label,
            dim,
            steps,
            tile,
            dim_t,
            Some(&team),
            schedule,
        )?
    } else {
        measure_seven_point_scheduled::<f32>(
            &cfg,
            label,
            dim,
            steps,
            tile,
            dim_t,
            Some(&team),
            schedule,
        )?
    };
    println!(
        "7-point {} on {dim}, {steps} steps, variant {variant}, schedule {schedule}, \
         {threads} thread(s)",
        if dp { "DP" } else { "SP" }
    );
    println!(
        "  {:.3} s median ({} timed rep(s) after {} warmup), {:.1} interior Mupdates/s",
        m.median_secs(),
        m.secs.len(),
        cfg.warmup,
        m.mups
    );
    print!(
        "  recompute overhead κ {:.3}, modeled DRAM {:.1} MB",
        m.kappa,
        m.stats.dram_bytes() as f64 / (1 << 20) as f64
    );
    match m.barrier_share {
        Some(s) => println!(", barrier-wait share {:.1}%", s * 100.0),
        None => println!(),
    }
    Ok(())
}

fn cmd_lbm(opts: &Opts) -> Result<(), CmdError> {
    let n: usize = cli::get(opts, "n", 48)?;
    let steps: usize = cli::get(opts, "steps", 60)?;
    let tile: usize = cli::get(opts, "tile", 32.min(n))?;
    let dim_t: usize = cli::get(opts, "dimt", 3)?;
    let threads: usize = cli::get(opts, "threads", host_threads())?;
    let dim = Dim3::cube(n);
    let scenario = cli::getstr(opts, "scenario", "cavity");
    let mut lat: Lattice<f64> = match scenario.as_str() {
        "box" => scenarios::closed_box(dim, 1.2),
        "cavity" => scenarios::lid_driven_cavity(dim, 1.2, 0.08),
        "channel" => scenarios::channel_with_sphere(dim, 1.1, 0.05, n as f64 / 8.0),
        other => {
            return Err(CmdError::Msg(format!(
                "unknown scenario '{other}' (expected box, cavity or channel)"
            )))
        }
    };
    let team = ThreadTeam::new(threads);
    let variant = cli::getstr(opts, "variant", "35d");
    let schedule = parse_schedule(opts)?;
    // Validate user-supplied blocking before any executor can panic.
    let blocking = match variant.as_str() {
        "scalar" | "simd" => None,
        "temporal" => {
            Some(LbmBlocking::try_new(n.max(1), n.max(1), dim_t)?.with_schedule(schedule))
        }
        "35d" => Some(LbmBlocking::try_new(tile, tile, dim_t)?.with_schedule(schedule)),
        other => {
            return Err(CmdError::Msg(format!(
                "unknown variant '{other}' (expected scalar, simd, temporal or 35d)"
            )))
        }
    };
    // Observability, same knobs as `threefive trace`: `--timing` prints the
    // per-thread barrier-wait share, `--trace` additionally exports a
    // Chrome trace; both route through the 3.5-D pipeline's Observer entry
    // point. `--deadline MS` arms the watchdog on barrier episodes.
    let timing: bool = cli::get(opts, "timing", false)?;
    let trace: bool = cli::get(opts, "trace", false)?;
    let deadline_ms: u64 = cli::get(opts, "deadline", 0)?;
    let deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
    if (timing || trace || deadline.is_some()) && blocking.is_none() {
        return Err(CmdError::Msg(format!(
            "--timing/--trace/--deadline require a 3.5-D variant (temporal or 35d), \
             not '{variant}'"
        )));
    }
    let instr = if timing || trace {
        Instrument::enabled(threads)
    } else {
        Instrument::disabled()
    };
    let tracer = if trace {
        Tracer::enabled(threads)
    } else {
        Tracer::disabled()
    };
    let obs = Observer::new(&instr, &tracer);
    let sweep = |lat: &mut Lattice<f64>, s: usize, obs: &Observer<'_>| -> Result<(), CmdError> {
        match variant.as_str() {
            "scalar" => {
                lbm_naive_sweep(lat, s, LbmMode::Scalar, Some(&team));
            }
            "simd" => {
                lbm_naive_sweep(lat, s, LbmMode::Simd, Some(&team));
            }
            // `temporal` is the whole-plane special case of the same
            // blocking, so both 3.5-D variants share one entry point.
            "temporal" | "35d" => {
                let Some(b) = blocking else {
                    return Err(CmdError::Msg(format!(
                        "internal: no blocking constructed for 3.5-D variant '{variant}'"
                    )));
                };
                try_lbm35d_sweep(lat, s, b, Some(&team), deadline, obs)?;
            }
            other => {
                return Err(CmdError::Msg(format!(
                    "internal: variant '{other}' escaped validation"
                )))
            }
        }
        Ok(())
    };
    // The first step is run untimed: it absorbs the first-touch page
    // faults on the never-written destination buffer without changing the
    // physics (the state still advances exactly `steps` steps). It is also
    // kept out of the trace/timing so they reflect warm-cache behavior.
    let timed_steps = if steps > 1 {
        sweep(&mut lat, 1, &Observer::disabled())?;
        steps - 1
    } else {
        steps
    };
    let t0 = Instant::now();
    if timed_steps > 0 {
        sweep(&mut lat, timed_steps, &obs)?;
    }
    let secs = t0.elapsed().as_secs_f64();
    // MLUPS over interior sites only — the bounce-back rim is not a
    // lattice update — and over the timed steps only.
    let interior_updates = dim.interior_region(1).len() as f64 * timed_steps as f64;
    let mlups = if secs > 0.0 {
        interior_updates / secs / 1e6
    } else {
        0.0
    };
    let probe = lat.macroscopic(n / 2, n / 2, n / 2);
    println!(
        "D3Q19 LBM {scenario} on {dim}, {steps} steps, variant {variant}, schedule {schedule}"
    );
    println!(
        "  {secs:.3} s over {timed_steps} timed step(s), {mlups:.2} interior MLUPS; \
         center: rho = {:.4}, u = ({:+.4}, {:+.4}, {:+.4})",
        probe.rho.to_f64(),
        probe.u[0].to_f64(),
        probe.u[1].to_f64(),
        probe.u[2].to_f64()
    );
    if instr.is_enabled() {
        println!(
            "  barrier-wait share {:.1}%",
            instr.timing().barrier_share() * 100.0
        );
    }
    if tracer.is_enabled() {
        let snapshot = tracer.snapshot();
        let process = format!("threefive lbm {scenario} {dim} dimT={dim_t} sched={schedule}");
        let text = format!("{}\n", trace_to_chrome_json(&snapshot, &process));
        validate_trace_str(&text)
            .map_err(|e| CmdError::Msg(format!("internal: exported trace invalid: {e}")))?;
        let out_dir = std::path::PathBuf::from(cli::getstr(opts, "out", "."));
        std::fs::create_dir_all(&out_dir)?;
        let path = out_dir.join("TRACE_lbm_run.json");
        std::fs::write(&path, &text)?;
        println!("wrote {} (open at ui.perfetto.dev)", path.display());
        print_trace_summary(&snapshot);
    }
    Ok(())
}

fn bench_entry(
    m: &Measurement,
    precision: &str,
    grid: [usize; 3],
    steps: usize,
    threads: usize,
    cfg: &BenchConfig,
    telemetry: Option<Telemetry>,
) -> BenchEntry {
    BenchEntry {
        variant: m.label.to_string(),
        schedule: m
            .schedule
            .map_or_else(|| "none".to_string(), |s| s.as_str().to_string()),
        precision: precision.to_string(),
        grid,
        steps,
        threads,
        warmup: cfg.warmup,
        reps: cfg.reps.max(1),
        median_secs: m.median_secs(),
        min_secs: m.min_secs(),
        max_secs: m.max_secs(),
        mups: m.mups,
        interior_updates: m.interior_updates,
        modeled_dram_bytes: m.stats.dram_bytes(),
        kappa: m.kappa,
        barrier_share: m.barrier_share,
        telemetry,
    }
}

fn print_bench_entry(e: &BenchEntry) {
    let barrier = e
        .barrier_share
        .map_or("     -".to_string(), |s| format!("{:5.1}%", s * 100.0));
    // Attainment vs the paper's reference machine (see bench::counters).
    let attain = e
        .telemetry
        .as_ref()
        .and_then(|t| t.counters.get("roofline_attainment_pct"))
        .map_or("     -".to_string(), |a| format!("{a:5.1}%"));
    println!(
        "  {:4} {:20} {:9} {:>9.3} ms {:>8.1} MUPS  κ {:>5.3}  barrier {barrier}  attain {attain}",
        e.precision,
        e.variant,
        e.schedule,
        e.median_secs * 1e3,
        e.mups,
        e.kappa
    );
    if let Some(t) = &e.telemetry {
        if let Some(sim) = t.counters.get("cachesim_dram_bytes") {
            println!(
                "       {:20} modeled DRAM {:>7.2} MB vs cachesim {:>7.2} MB",
                "",
                e.modeled_dram_bytes as f64 / (1 << 20) as f64,
                sim / (1 << 20) as f64
            );
        }
    }
}

fn cmd_bench(opts: &Opts) -> Result<(), CmdError> {
    if let Some(path) = opts.get("validate") {
        let text = std::fs::read_to_string(path)?;
        let report = BenchReport::validate_str(&text)
            .map_err(|e| CmdError::Msg(format!("{path}: invalid BENCH report: {e}")))?;
        println!(
            "{path}: valid BENCH report (kind = {}, schema v{}, {} entries)",
            report.kind,
            report.schema_version,
            report.entries.len()
        );
        return Ok(());
    }

    let n: usize = cli::get(opts, "n", 64)?;
    let steps: usize = cli::get(opts, "steps", 4)?;
    let tile: usize = cli::get(opts, "tile", n.min(360))?;
    let dim_t: usize = cli::get(opts, "dimt", 2)?;
    let threads: usize = cli::get(opts, "threads", host_threads())?;
    let cfg = BenchConfig {
        warmup: cli::get(opts, "warmup", 1)?,
        reps: cli::get(opts, "reps", 3)?,
    };
    let dp0 = cli::getstr(opts, "precision", "sp") == "dp";
    let flag_schedule = parse_schedule(opts)?;
    // Per-kernel tuned blocking (tile, dim_T, schedule) when no explicit
    // flags pin it; the thread count stays bench-wide so variants compare
    // like for like on one team.
    let (stencil_tile, stencil_dim_t, stencil_sched) = match tuned_lookup(opts, "7pt", dp0, n)? {
        Some(t) => {
            println!("stencil: {}", t.provenance);
            (t.tile, t.dim_t, t.schedule)
        }
        None => (tile, dim_t, flag_schedule),
    };
    let (lbm_tile, lbm_dim_t, lbm_sched) = match tuned_lookup(opts, "lbm", dp0, n)? {
        Some(t) => {
            println!("lbm: {}", t.provenance);
            (t.tile, t.dim_t, t.schedule)
        }
        None => (tile, dim_t, flag_schedule),
    };
    let precisions: &[&str] = match cli::getstr(opts, "precision", "sp").as_str() {
        "sp" => &["sp"],
        "dp" => &["dp"],
        "both" => &["sp", "dp"],
        other => {
            return Err(CmdError::Msg(format!(
                "unknown precision '{other}' (expected sp, dp or both)"
            )))
        }
    };
    let out_dir = std::path::PathBuf::from(cli::getstr(opts, "out", "."));
    let dim = Dim3::cube(n);
    let grid = [dim.nx, dim.ny, dim.nz];
    let team = ThreadTeam::new(threads);

    println!(
        "bench: {n}^3, {steps} steps, {} warmup + {} timed rep(s), {threads} threads, \
         tile {tile}, dim_T {dim_t}, schedule {flag_schedule}",
        cfg.warmup,
        cfg.reps.max(1)
    );

    let mut stencil = BenchReport::new("stencil");
    println!("\n7-point stencil:");
    for &prec in precisions {
        let p = if prec == "dp" {
            Precision::Dp
        } else {
            Precision::Sp
        };
        for &variant in STENCIL_VARIANTS {
            let m = if prec == "dp" {
                measure_seven_point_scheduled::<f64>(
                    &cfg,
                    variant,
                    dim,
                    steps,
                    stencil_tile,
                    stencil_dim_t,
                    Some(&team),
                    stencil_sched,
                )?
            } else {
                measure_seven_point_scheduled::<f32>(
                    &cfg,
                    variant,
                    dim,
                    steps,
                    stencil_tile,
                    stencil_dim_t,
                    Some(&team),
                    stencil_sched,
                )?
            };
            let tel = stencil_telemetry(p, &m, dim, steps, stencil_tile, stencil_dim_t);
            let e = bench_entry(&m, prec, grid, steps, threads, &cfg, Some(tel));
            print_bench_entry(&e);
            stencil.entries.push(e);
        }
    }

    let mut lbm = BenchReport::new("lbm");
    println!("\nD3Q19 LBM (lid-driven cavity):");
    for &prec in precisions {
        let p = if prec == "dp" {
            Precision::Dp
        } else {
            Precision::Sp
        };
        for &variant in LBM_VARIANTS {
            let m = if prec == "dp" {
                measure_lbm_scheduled::<f64>(
                    &cfg,
                    variant,
                    n,
                    steps,
                    lbm_tile,
                    lbm_dim_t,
                    Some(&team),
                    lbm_sched,
                )?
            } else {
                measure_lbm_scheduled::<f32>(
                    &cfg,
                    variant,
                    n,
                    steps,
                    lbm_tile,
                    lbm_dim_t,
                    Some(&team),
                    lbm_sched,
                )?
            };
            let tel = lbm_telemetry(p, &m, n, lbm_tile, lbm_dim_t);
            let e = bench_entry(&m, prec, grid, steps, threads, &cfg, Some(tel));
            print_bench_entry(&e);
            lbm.entries.push(e);
        }
    }

    std::fs::create_dir_all(&out_dir)?;
    for (name, report) in [("BENCH_stencil.json", &stencil), ("BENCH_lbm.json", &lbm)] {
        let path = out_dir.join(name);
        std::fs::write(&path, report.to_json_string())?;
        println!(
            "wrote {} ({} entries)",
            path.display(),
            report.entries.len()
        );
    }
    Ok(())
}

fn cmd_tune(opts: &Opts) -> Result<(), CmdError> {
    if let Some(path) = opts.get("validate") {
        let text = std::fs::read_to_string(path)?;
        let db = TuneDb::validate_str(&text)
            .map_err(|e| CmdError::Msg(format!("{path}: invalid TUNE database: {e}")))?;
        // Schema-valid is not enough: stored plans must still pass the
        // race checker and the never-persist-a-loser invariant today.
        let problems = db.revalidate();
        if !problems.is_empty() {
            for p in &problems {
                eprintln!("  {p}");
            }
            return Err(CmdError::Msg(format!(
                "{path}: {} stored entr{} failed revalidation",
                problems.len(),
                if problems.len() == 1 { "y" } else { "ies" }
            )));
        }
        println!(
            "{path}: valid TUNE database ({} entr{}, all plans re-validated)",
            db.entries.len(),
            if db.entries.len() == 1 { "y" } else { "ies" }
        );
        return Ok(());
    }

    let n: usize = cli::get(opts, "n", 64)?;
    let steps: usize = cli::get(opts, "steps", 2)?;
    let probes: usize = cli::get(opts, "probes", 24)?;
    let deadline_ms: u64 = cli::get(opts, "deadline-ms", 60_000)?;
    let max_threads: usize = cli::get(opts, "threads", host_threads())?;
    let cfg = BenchConfig {
        warmup: cli::get(opts, "warmup", 1)?,
        reps: cli::get(opts, "reps", 1)?,
    };
    if n == 0 || steps == 0 || probes == 0 || max_threads == 0 {
        return Err(CmdError::Msg(
            "--n, --steps, --probes and --threads must be positive".into(),
        ));
    }
    let workloads: &[ProbeWorkload] = match cli::getstr(opts, "workload", "both").as_str() {
        "stencil" => &[ProbeWorkload::Stencil],
        "lbm" => &[ProbeWorkload::Lbm],
        "both" => &[ProbeWorkload::Stencil, ProbeWorkload::Lbm],
        other => {
            return Err(CmdError::Msg(format!(
                "unknown workload '{other}' (expected stencil, lbm or both)"
            )))
        }
    };
    let precisions: &[bool] = match cli::getstr(opts, "precision", "sp").as_str() {
        "sp" => &[false],
        "dp" => &[true],
        "both" => &[false, true],
        other => {
            return Err(CmdError::Msg(format!(
                "unknown precision '{other}' (expected sp, dp or both)"
            )))
        }
    };
    // `--schedule all` (the default) searches every temporal-blocking
    // schedule as one more hill-climb axis; a concrete name pins it.
    let schedule_pin = match cli::getstr(opts, "schedule", "all").as_str() {
        "all" => None,
        s => Some(ScheduleKind::parse(s).ok_or_else(|| {
            CmdError::Msg(format!(
                "unknown schedule '{s}' (expected all, lag35d, wavefront or diamond)"
            ))
        })?),
    };
    let db_path = std::path::PathBuf::from(cli::getstr(opts, "db", "TUNE.json"));

    let host = HostInfo::detect();
    // The analytical seed comes from the paper's CPU machine model — the
    // very numbers whose blind extrapolation this command exists to
    // correct with measurements.
    let machine = core_i7();
    let budget = ProbeBudget {
        max_probes: probes,
        max_duration: Some(Duration::from_millis(deadline_ms)),
    };
    let mut db = TuneDb::load(&db_path)
        .map_err(CmdError::Msg)?
        .unwrap_or_default();

    println!(
        "tune: host {} — {n}^3, {steps} probe step(s), {} warmup + {} rep(s) per probe, \
         budget {probes} probe(s) / {deadline_ms} ms per campaign",
        host.fingerprint,
        cfg.warmup,
        cfg.reps.max(1)
    );

    for &workload in workloads {
        for &dp in precisions {
            let p = if dp { Precision::Dp } else { Precision::Sp };
            let precision = if dp { "dp" } else { "sp" };
            let kernel = workload.kernel_name();
            let traffic = match workload {
                ProbeWorkload::Stencil => seven_point_traffic(),
                ProbeWorkload::Lbm => lbm_traffic(),
            };
            let space = SearchSpace {
                n,
                max_threads,
                cache_bytes: machine.fast_storage_bytes,
                elem_bytes: traffic.elem_bytes(p),
                r: traffic.radius,
                schedule: schedule_pin,
            };
            let seeds = space.seeds(traffic.gamma(p), machine.big_gamma(p));
            let analytical_seed = seeds.first().copied();
            let mut prober = BenchProber {
                cfg,
                workload,
                n,
                steps,
                dp,
            };
            let out = hill_climb(&space, &seeds, &mut prober, &budget).map_err(CmdError::Msg)?;

            println!(
                "\n{kernel} {precision}: scalar floor {:.1} MUPS; {} probe(s), {} candidate(s)",
                out.scalar_mups,
                out.probes_used,
                out.history.len()
            );
            if let Some(am) = out.analytical_mups {
                println!("  analytical seed measured at {am:.1} MUPS");
            }
            match out.winner {
                Some((c, mups)) => {
                    // Speed never shortcuts correctness: the winner must
                    // pass the race checker and reproduce the scalar
                    // reference bit-exactly before it may be persisted.
                    verify_candidate(workload, n, steps, dp, &c).map_err(CmdError::Msg)?;
                    let source = if analytical_seed == Some(c) {
                        PlanSource::Analytical
                    } else {
                        PlanSource::Tuned
                    };
                    let entry = TuneEntry {
                        fingerprint: host.fingerprint.clone(),
                        kernel: kernel.to_string(),
                        precision: precision.to_string(),
                        grid: [n, n, n],
                        plan: TunedPlan {
                            tile: c.tile,
                            dim_t: c.dim_t,
                            threads: c.threads,
                            schedule: c.schedule,
                            source,
                        },
                        mups,
                        scalar_mups: out.scalar_mups,
                        analytical_mups: out.analytical_mups,
                        probes: out.probes_used as u64,
                        probe_steps: steps,
                    };
                    let outcome = db.record_winner(entry).map_err(CmdError::Msg)?;
                    println!(
                        "  winner: tile {} dim_T {} threads {} schedule {} at {mups:.1} MUPS \
                         ({source}) — {outcome}",
                        c.tile, c.dim_t, c.threads, c.schedule
                    );
                }
                None => println!(
                    "  no candidate beat the scalar floor; nothing persisted (consumers fall \
                     back to the analytical plan)"
                ),
            }
        }
    }

    db.save(&db_path).map_err(CmdError::Msg)?;
    println!(
        "\nwrote {} ({} entr{})",
        db_path.display(),
        db.entries.len(),
        if db.entries.len() == 1 { "y" } else { "ies" }
    );
    Ok(())
}

/// Prints the per-thread timeline summary of a trace snapshot.
fn print_trace_summary(snapshot: &TraceSnapshot) {
    println!("\nper-thread timeline:");
    println!(
        "  {:>3} {:>8} {:>12} {:>12} {:>8} {:>8}",
        "tid", "events", "compute ms", "barrier ms", "share", "dropped"
    );
    for (tid, tt) in snapshot.threads.iter().enumerate() {
        let mut plane_ns = 0u64;
        let mut barrier_ns = 0u64;
        for e in &tt.events {
            match e.kind {
                TraceEventKind::Plane { .. } => plane_ns += e.duration_ns(),
                TraceEventKind::Barrier { .. } => barrier_ns += e.duration_ns(),
                _ => {}
            }
        }
        let total = plane_ns + barrier_ns;
        let share = if total > 0 {
            barrier_ns as f64 / total as f64
        } else {
            0.0
        };
        println!(
            "  {tid:>3} {:>8} {:>12.3} {:>12.3} {:>7.1}% {:>8}",
            tt.events.len(),
            plane_ns as f64 / 1e6,
            barrier_ns as f64 / 1e6,
            share * 100.0,
            tt.dropped
        );
    }
}

/// Prints the attainment/κ/DRAM counter table of a telemetry block.
fn print_attainment_table(tel: &Telemetry) {
    println!("\nattainment vs {} (reference machine):", tel.machine);
    for (name, value) in tel.counters.iter() {
        println!("  {name:28} {value:>16.3}");
    }
}

fn cmd_trace(opts: &Opts) -> Result<(), CmdError> {
    if let Some(path) = opts.get("validate") {
        let text = std::fs::read_to_string(path)?;
        let s = validate_trace_str(&text)
            .map_err(|e| CmdError::Msg(format!("{path}: invalid trace: {e}")))?;
        println!(
            "{path}: valid Chrome trace ({} events: {} spans, {} instants, {} threads)",
            s.events, s.spans, s.instants, s.threads
        );
        return Ok(());
    }

    let n: usize = cli::get(opts, "n", 64)?;
    let nx: usize = cli::get(opts, "nx", n)?;
    let ny: usize = cli::get(opts, "ny", n)?;
    let nz: usize = cli::get(opts, "nz", n)?;
    let dim_t: usize = cli::get(opts, "dimt", 4)?;
    // One dim_T chunk by default: exactly one span per (plane, level).
    let steps: usize = cli::get(opts, "steps", dim_t.max(1))?;
    let tile: usize = cli::get(opts, "tile", nx.max(ny))?;
    let threads: usize = cli::get(opts, "threads", host_threads())?;
    let workload = cli::getstr(opts, "workload", "stencil");
    let schedule = parse_schedule(opts)?;
    let out_dir = std::path::PathBuf::from(cli::getstr(opts, "out", "."));
    let dim = Dim3::new(nx, ny, nz);
    let team = ThreadTeam::new(threads);
    let tracer = Tracer::enabled(threads);
    let instr = Instrument::enabled(threads);

    let (file_name, measurement, telemetry) = match workload.as_str() {
        "stencil" => {
            let b = Blocking35::try_new(tile.min(nx), tile.min(ny), dim_t)?.with_schedule(schedule);
            let kernel = SevenPoint::<f32>::heat(0.125);
            let initial =
                Grid3::<f32>::from_fn(dim, |x, y, z| ((x * 13 + y * 7 + z * 3) % 17) as f32 * 0.1);
            let mut grids = DoubleGrid::from_initial(initial);
            let t0 = Instant::now();
            let stats = try_parallel35d_sweep(
                &kernel,
                &mut grids,
                steps,
                b,
                &team,
                None,
                &Observer::new(&instr, &tracer),
            )?;
            let secs = t0.elapsed().as_secs_f64();
            let timing = instr.timing();
            let interior = dim.interior_region(kernel.radius()).len() as u64 * steps as u64;
            let m = Measurement::from_parts(
                "3.5D blocking",
                vec![secs],
                interior,
                stats,
                stats.overestimation(),
                Some(timing.barrier_share()),
                Some(timing.wait_hist),
            );
            let tel = stencil_telemetry(Precision::Sp, &m, dim, steps, tile, dim_t);
            ("TRACE_stencil.json", m, tel)
        }
        "lbm" => {
            let b =
                LbmBlocking::try_new(tile.min(nx), tile.min(ny), dim_t)?.with_schedule(schedule);
            let mut lat: Lattice<f32> = scenarios::lid_driven_cavity(dim, 1.2, 0.05);
            let t0 = Instant::now();
            try_lbm35d_sweep(
                &mut lat,
                steps,
                b,
                Some(&team),
                None,
                &Observer::new(&instr, &tracer),
            )?;
            let secs = t0.elapsed().as_secs_f64();
            let timing = instr.timing();
            // Model the traffic the way `measure_lbm` does: each dim_T
            // chunk streams the whole lattice in and out once.
            let q = threefive::lbm::model::Q as u64;
            let lattice_bytes = dim.len() as u64 * q * 4;
            let chunks = steps.div_ceil(dim_t) as u64;
            let stats = threefive::core::stats::SweepStats {
                stencil_updates: 0,
                committed_points: 0,
                dram_bytes_read: lattice_bytes * chunks,
                dram_bytes_written: lattice_bytes * chunks,
            };
            let loaded_x = tile.min(nx) + 2 * dim_t;
            let loaded_y = tile.min(ny) + 2 * dim_t;
            let kappa = threefive::core::planner::kappa_35d(1, dim_t, loaded_x, loaded_y);
            let interior = dim.interior_region(1).len() as u64 * steps as u64;
            let m = Measurement::from_parts(
                "3.5D blocking",
                vec![secs],
                interior,
                stats,
                kappa,
                Some(timing.barrier_share()),
                Some(timing.wait_hist),
            );
            let tel = lbm_telemetry(Precision::Sp, &m, nx.max(ny).max(nz), tile, dim_t);
            ("TRACE_lbm.json", m, tel)
        }
        other => {
            return Err(CmdError::Msg(format!(
                "unknown workload '{other}' (expected stencil or lbm)"
            )))
        }
    };

    let snapshot = tracer.snapshot();
    let process = format!("threefive {workload} {nx}x{ny}x{nz} dimT={dim_t} sched={schedule}");
    let doc = trace_to_chrome_json(&snapshot, &process);
    let text = format!("{doc}\n");
    // Self-check before writing: the exporter's output must satisfy the
    // same validator CI runs on the file.
    let summary = validate_trace_str(&text)
        .map_err(|e| CmdError::Msg(format!("internal: exported trace invalid: {e}")))?;
    std::fs::create_dir_all(&out_dir)?;
    let path = out_dir.join(file_name);
    std::fs::write(&path, &text)?;

    println!(
        "traced {workload} {nx}x{ny}x{nz}, dim_T {dim_t}, schedule {schedule}, {steps} step(s), \
         {threads} thread(s): {:.1} MUPS",
        measurement.mups
    );
    println!(
        "wrote {} ({} events: {} spans, {} instants; open at ui.perfetto.dev)",
        path.display(),
        summary.events,
        summary.spans,
        summary.instants
    );
    if snapshot.total_dropped() > 0 {
        println!(
            "note: {} event(s) dropped by full ring buffers (raise capacity or shrink the grid)",
            snapshot.total_dropped()
        );
    }
    print_trace_summary(&snapshot);
    print_attainment_table(&telemetry);
    Ok(())
}

/// Parses the model-checker exploration budgets from `--mc-schedules`,
/// `--mc-steps` and `--mc-preemptions` (a count, or `none` to lift the
/// preemption bound and explore the full interleaving space).
fn mc_budgets(opts: &Opts) -> Result<threefive::modelcheck::Budgets, CmdError> {
    let defaults = threefive::modelcheck::Budgets::default();
    let max_preemptions = match opts.get("mc-preemptions").map(String::as_str) {
        None => defaults.max_preemptions,
        Some("none") => None,
        Some(s) => Some(s.parse::<usize>().map_err(|_| {
            CmdError::Msg(format!(
                "--mc-preemptions: expected a count or 'none', got '{s}'"
            ))
        })?),
    };
    Ok(threefive::modelcheck::Budgets {
        max_schedules: cli::get(opts, "mc-schedules", defaults.max_schedules)?,
        max_steps: cli::get(opts, "mc-steps", defaults.max_steps)?,
        max_preemptions,
    })
}

/// `threefive analyze --replay FILE`: re-executes a recorded schedule
/// trace step-for-step against current code. Reproducing the recorded
/// failure (or finding it fixed) succeeds; a diverged or different
/// failure is an error.
fn cmd_analyze_replay(path: &str, opts: &Opts) -> Result<(), CmdError> {
    use threefive::modelcheck::{replay, ReplayOutcome, Trace};
    let text = std::fs::read_to_string(path)?;
    let trace =
        Trace::parse(&text).map_err(|e| CmdError::Msg(format!("{path}: invalid trace: {e}")))?;
    let max_steps = cli::get(
        opts,
        "mc-steps",
        threefive::modelcheck::Budgets::default().max_steps,
    )?;
    let what = match &trace.mutation {
        Some(m) => format!("model `{}` + mutation `{m}`", trace.model),
        None => format!("model `{}`", trace.model),
    };
    // A reproduced panic-kind failure panics inside the replay (caught
    // there); keep the default hook from printing its backtrace.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = replay(&trace, max_steps);
    std::panic::set_hook(prev_hook);
    match outcome.map_err(CmdError::Msg)? {
        ReplayOutcome::Reproduced { kind, message } => {
            println!("{path}: reproduced on {what}: {kind}: {message}");
            Ok(())
        }
        ReplayOutcome::Vanished => {
            println!(
                "{path}: schedule ran clean on {what} — the recorded {} no longer reproduces",
                trace.failure_kind
            );
            Ok(())
        }
        ReplayOutcome::Diverged { detail } => Err(CmdError::Msg(format!(
            "{path}: replay diverged from the recorded schedule ({detail}) — \
             the code under {what} changed; re-record the trace"
        ))),
        ReplayOutcome::DifferentFailure { expected, got } => Err(CmdError::Msg(format!(
            "{path}: replay failed differently than recorded: expected {expected}, got {got}"
        ))),
    }
}

/// Runs the model-checker suite (and mutant suite), printing per-model
/// explored-state counts, writing any counterexample traces under
/// `out`, and returning the report section.
fn run_model_check(
    budgets: &threefive::modelcheck::Budgets,
    out: Option<&std::path::Path>,
) -> Result<threefive::analyze::findings::ModelCheckSection, CmdError> {
    use threefive::analyze::findings::{ModelCheckEntry, MutantEntry};
    use threefive::modelcheck::{run_mutants, run_suite, TimeMode};

    let mode_str = |m: TimeMode| match m {
        TimeMode::Never => "never",
        TimeMode::Nondet => "nondet",
    };
    // Mutant scenarios panic by design (the checker catches and records
    // them); silence the default hook so expected panics don't spray
    // backtraces over the report. Restored before returning.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let started = Instant::now();
    let suite = run_suite(budgets);
    let mut models = Vec::new();
    for o in &suite {
        let verdict = match (&o.trace, o.complete) {
            (Some(_), _) => "COUNTEREXAMPLE",
            (None, true) => "exhaustive",
            (None, false) => "budget exhausted (inconclusive)",
        };
        println!(
            "  {} [{}]: {} schedule(s), {} step(s){}: {verdict}",
            o.name,
            mode_str(o.time_mode),
            o.schedules,
            o.steps,
            if o.bounded {
                ", preemption-bounded"
            } else {
                ""
            },
        );
        if let (Some(trace), Some(dir)) = (&o.trace, out) {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("MODELCHECK_{}.json", o.name));
            std::fs::write(&path, trace.to_text())?;
            println!("    wrote counterexample trace to {}", path.display());
        }
        models.push(ModelCheckEntry {
            name: o.name.to_string(),
            time_mode: mode_str(o.time_mode).to_string(),
            schedules: o.schedules as u64,
            steps: o.steps as u64,
            complete: o.complete,
            bounded: o.bounded,
            counterexample: o.trace.is_some(),
        });
    }
    let mutant_suite = run_mutants(budgets);
    std::panic::set_hook(prev_hook);
    let caught = mutant_suite.iter().filter(|m| m.caught()).count();
    println!(
        "  mutants: {caught}/{} seeded bug(s) caught ({:.1}s total)",
        mutant_suite.len(),
        started.elapsed().as_secs_f64()
    );
    let mut mutants = Vec::new();
    for m in &mutant_suite {
        if !m.caught() {
            println!(
                "    ESCAPED: {} on {} ({}) after {} schedule(s)",
                m.mutation, m.model, m.seeded, m.schedules
            );
        }
        mutants.push(MutantEntry {
            mutation: m.mutation.to_string(),
            model: m.model.to_string(),
            caught: m.caught(),
            schedules: m.schedules as u64,
        });
    }
    Ok(threefive::analyze::findings::ModelCheckSection { models, mutants })
}

fn cmd_analyze(opts: &Opts) -> Result<(), CmdError> {
    if let Some(path) = opts.get("validate") {
        let text = std::fs::read_to_string(path)?;
        let report = AnalyzeReport::validate_str(&text)
            .map_err(|e| CmdError::Msg(format!("{path}: invalid ANALYZE report: {e}")))?;
        println!(
            "{path}: valid ANALYZE report (schema v{}, {} finding(s), {} schedule config(s))",
            report.schema_version,
            report.findings.len(),
            report.configs_checked
        );
        return Ok(());
    }
    if let Some(path) = opts.get("replay") {
        return cmd_analyze_replay(path, opts);
    }

    let root = std::path::PathBuf::from(cli::getstr(opts, "root", "."));
    let deny: bool = cli::get(opts, "deny-findings", false)?;
    // The baseline defaults to the repo's checked-in suppression file;
    // an explicitly named one must exist, the default may be absent.
    let baseline_path = match opts.get("baseline") {
        Some(path) => std::path::PathBuf::from(path),
        None => root.join("ANALYZE_baseline.json"),
    };
    let baseline_text = match opts.get("baseline") {
        Some(path) => Some(std::fs::read_to_string(path)?),
        None => std::fs::read_to_string(&baseline_path).ok(),
    };
    let mut report =
        threefive::analyze::analyze_tree(&root, baseline_text.as_deref()).map_err(CmdError::Msg)?;

    if cli::get(opts, "model-check", false)? {
        println!("model-check:");
        let budgets = mc_budgets(opts)?;
        let out_dir = opts.get("out").map(std::path::PathBuf::from);
        report.model_check = Some(run_model_check(&budgets, out_dir.as_deref())?);
    }
    // Self-check before writing: the emitted document must satisfy the
    // same validator CI runs on the artifact.
    let text = format!("{}\n", report.to_json_string());
    AnalyzeReport::validate_str(&text)
        .map_err(|e| CmdError::Msg(format!("internal: emitted report invalid: {e}")))?;

    let active = report.active_findings().count();
    let suppressed = report.findings.len() - active;
    println!(
        "lint: {} file(s) scanned, {} finding(s) ({suppressed} suppressed)",
        report.files_scanned, active
    );
    for f in report.findings.iter().filter(|f| f.suppressed.is_none()) {
        println!("  {}: [{}] {}", f.locus(), f.rule, f.message);
    }
    let per_schedule = report
        .schedule_configs
        .iter()
        .map(|(name, count)| format!("{name} {count}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "schedule: {} config(s) checked ({per_schedule}): {}",
        report.configs_checked,
        if report.violations.is_empty() {
            "race-free".to_string()
        } else {
            format!("{} violation(s)", report.violations.len())
        }
    );
    for v in &report.violations {
        println!(
            "  [{}] step {} ring {} slot {} (R={} dim_T={} threads={} nz={} ly={}): {}",
            v.schedule,
            v.step,
            v.ring,
            v.slot,
            v.config.r,
            v.config.c,
            v.config.threads,
            v.config.nz,
            v.config.ly,
            v.detail
        );
    }

    // Baseline ratchet: report unused budget, and tighten the checked-in
    // file on request (budgets only ever go down).
    if let Some(btext) = baseline_text.as_deref() {
        use threefive::analyze::findings::{
            baseline_slack, baseline_to_json_string, parse_baseline, tighten_baseline,
        };
        let baseline = parse_baseline(btext).map_err(CmdError::Msg)?;
        let slack = baseline_slack(&report.findings, &baseline);
        for s in &slack {
            println!(
                "baseline: {} in {} uses {} of {} allowed ({} slack)",
                s.rule,
                s.file,
                s.used,
                s.allowed,
                s.slack()
            );
        }
        if cli::get(opts, "write-baseline", false)? {
            let tightened = tighten_baseline(&baseline, &report.findings);
            let dropped = baseline.len() - tightened.len();
            std::fs::write(
                &baseline_path,
                format!("{}\n", baseline_to_json_string(&tightened)),
            )?;
            println!(
                "wrote {} ({} entr(ies), {dropped} dropped)",
                baseline_path.display(),
                tightened.len()
            );
        } else if !slack.is_empty() {
            println!("baseline: run with --write-baseline to ratchet the budgets down");
        }
    }

    if let Some(dir) = opts.get("out") {
        let out_dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&out_dir)?;
        let path = out_dir.join("ANALYZE.json");
        std::fs::write(&path, &text)?;
        println!("wrote {}", path.display());
    }
    if deny && !report.is_clean() {
        let mc_dirty = report.model_check.as_ref().is_some_and(|mc| !mc.is_clean());
        return Err(CmdError::Msg(format!(
            "analysis failed: {active} active finding(s), {} schedule violation(s){}",
            report.violations.len(),
            if mc_dirty {
                ", model-check counterexample or escaped mutant"
            } else {
                ""
            }
        )));
    }
    Ok(())
}

fn cmd_serve(opts: &Opts) -> Result<(), CmdError> {
    let teams: usize = cli::get(opts, "teams", 2)?;
    let threads: usize = cli::get(opts, "threads", (host_threads() / teams.max(1)).max(1))?;
    let max_n: u64 = cli::get(opts, "max-n", 128)?;
    let config = ServerConfig {
        addr: cli::getstr(opts, "addr", "127.0.0.1:7435"),
        metrics_addr: opts.get("metrics-addr").cloned(),
        teams,
        threads_per_team: threads,
        queue_capacity: cli::get(opts, "queue", 64)?,
        dispatchers: cli::get(opts, "dispatchers", teams)?,
        limits: AdmissionLimits {
            max_cells: max_n.pow(3),
        },
    };
    let quiet: bool = cli::get(opts, "quiet", false)?;
    if config.teams == 0 || config.threads_per_team == 0 || config.queue_capacity == 0 {
        return Err(CmdError::Msg(
            "--teams, --threads and --queue must be positive".into(),
        ));
    }

    // `--tune-db FILE` serves jobs with this host's tuned plans where
    // the database has an entry for (kernel, n) — an explicit opt-in,
    // since it overrides the per-job blocking clients ask for. Safe in
    // the answer-sense: every rung is bit-identical, so only throughput
    // changes. The named file must exist and re-validate.
    // The metrics plane: per-job telemetry lands in the structured event
    // ring (echoed to stderr as JSONL at info+ unless --quiet) and in
    // the Prometheus registry served over `stats`/`metrics` and the
    // optional --metrics-addr scrape listener.
    let metrics = ServeMetrics::with_options(true, 1024, (!quiet).then_some(Level::Info));
    let runner = match opts.get("tune-db") {
        None => SolverRunner::new(!quiet),
        Some(path) => {
            let db = TuneDb::load(std::path::Path::new(path))
                .map_err(CmdError::Msg)?
                .ok_or_else(|| CmdError::Msg(format!("{path}: no such TUNE database")))?;
            let problems = db.revalidate();
            if !problems.is_empty() {
                return Err(CmdError::Msg(format!(
                    "{path}: refusing to serve from a database that fails revalidation: {}",
                    problems.join("; ")
                )));
            }
            let host = HostInfo::detect();
            let tuned: HashMap<(String, usize), (usize, usize, ScheduleKind)> = db
                .entries
                .iter()
                .filter(|e| e.fingerprint == host.fingerprint && e.precision == "sp")
                .map(|e| {
                    (
                        (e.kernel.clone(), e.grid[0]),
                        (e.plan.tile, e.plan.dim_t, e.plan.schedule),
                    )
                })
                .collect();
            eprintln!(
                "threefive serve: {} tuned plan(s) from {path} for host {}",
                tuned.len(),
                host.fingerprint
            );
            metrics.tune_db_entries.set(tuned.len() as i64);
            SolverRunner::with_tuned(!quiet, tuned)
        }
    };
    let runner = runner.with_metrics(Arc::clone(&metrics));
    signal::install_handlers();
    let server = Server::bind_with_metrics(config.clone(), Arc::new(runner), metrics)?;
    eprintln!(
        "threefive serve: listening on {} ({} team(s) x {} thread(s), queue {}, max grid {}^3); \
         SIGINT/SIGTERM drains and exits",
        server.local_addr()?,
        config.teams,
        config.threads_per_team,
        config.queue_capacity,
        max_n
    );
    if let Some(addr) = server.metrics_local_addr() {
        eprintln!("threefive serve: metrics exposition on http://{addr}/metrics");
    }
    server.run()?;
    eprintln!("threefive serve: drained, all threads joined");
    Ok(())
}

fn cmd_loadgen(opts: &Opts) -> Result<(), CmdError> {
    if let Some(path) = opts.get("validate") {
        let text = std::fs::read_to_string(path)?;
        let report = ServiceReport::validate_str(&text)
            .map_err(|e| CmdError::Msg(format!("{path}: invalid SERVICE report: {e}")))?;
        println!(
            "{path}: valid SERVICE report (schema v{}, {} offered, {} completed, {} mismatched)",
            report.schema_version,
            report.totals.offered,
            report.totals.completed,
            report.totals.mismatched
        );
        if report.totals.mismatched > 0 {
            return Err(CmdError::Msg(format!(
                "{path}: {} completed job(s) returned a checksum that does not match the \
                 scalar reference",
                report.totals.mismatched
            )));
        }
        return Ok(());
    }

    let workload = cli::getstr(opts, "workload", "mix");
    let n: usize = cli::get(opts, "n", 16)?;
    let cfg = LoadgenConfig {
        addr: cli::getstr(opts, "addr", "127.0.0.1:7435"),
        tenants: cli::get(opts, "tenants", 8)?,
        jobs: cli::get(opts, "jobs", 64)?,
        n,
        steps: cli::get(opts, "steps", 4)?,
        dim_t: cli::get(opts, "dimt", 2)?,
        tile: cli::get(opts, "tile", n)?,
        deadline: Duration::from_millis(cli::get(opts, "deadline", 10_000u64)?),
        mix: WorkloadMix::parse(&workload).ok_or_else(|| {
            CmdError::Msg(format!(
                "unknown workload '{workload}' (expected stencil, lbm or mix)"
            ))
        })?,
        chaos: cli::get(opts, "chaos", false)?,
        verify: cli::get(opts, "verify", false)?,
        verify_latency: cli::get(opts, "verify-latency", false)?,
    };

    eprintln!(
        "threefive loadgen: {} job(s) from {} tenant(s) against {} (workload {workload}, \
         {n}^3, chaos {}, verify {})",
        cfg.jobs, cfg.tenants, cfg.addr, cfg.chaos, cfg.verify
    );
    let report = run_loadgen(&cfg).map_err(CmdError::Msg)?;
    let text = report.to_json_string();
    // Self-check before writing: the emitted document must satisfy the
    // same validator CI runs on the artifact.
    ServiceReport::validate_str(&text)
        .map_err(|e| CmdError::Msg(format!("internal: emitted report invalid: {e}")))?;

    let t = &report.totals;
    println!(
        "offered {} | accepted {} | completed {} | rejected {} | failed {} | timed out {}",
        t.offered, t.accepted, t.completed, t.rejected, t.failed, t.timed_out
    );
    println!(
        "latency p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, max {:.1} ms",
        report.latency_ms.p50, report.latency_ms.p90, report.latency_ms.p99, report.latency_ms.max
    );
    println!(
        "throughput {:.1} completed/s of {:.1} offered/s over {:.2} s; rejection rate {:.1}%",
        report.completed_per_sec,
        report.offered_per_sec,
        report.wall_secs,
        report.rejection_rate * 100.0
    );
    if cfg.verify {
        println!(
            "verification: {} bit-identical to the scalar reference, {} mismatched",
            t.verified, t.mismatched
        );
    }
    if let Some(dir) = opts.get("out") {
        let out_dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&out_dir)?;
        let path = out_dir.join("SERVICE_load.json");
        std::fs::write(&path, &text)?;
        println!("wrote {}", path.display());
    }
    if t.mismatched > 0 {
        return Err(CmdError::Msg(format!(
            "{} completed job(s) returned a checksum that does not match the scalar reference",
            t.mismatched
        )));
    }
    Ok(())
}

fn cmd_stat(opts: &Opts) -> Result<(), CmdError> {
    let level_str = cli::getstr(opts, "level", "info");
    let stat = StatOptions {
        addr: cli::getstr(opts, "addr", "127.0.0.1:7435"),
        events: cli::get(opts, "events", 8)?,
        level: Level::parse(&level_str).ok_or_else(|| {
            CmdError::Msg(format!(
                "unknown level '{level_str}' (expected debug, info, warn or error)"
            ))
        })?,
        check: cli::get(opts, "check", false)?,
        jsonl: cli::get(opts, "jsonl", false)?,
    };
    let watch_secs: u64 = cli::get(opts, "watch", 0)?;
    if watch_secs == 0 {
        println!("{}", stat_once(&stat).map_err(CmdError::Msg)?);
        return Ok(());
    }
    // --watch: redraw in place until the daemon goes away or the user
    // interrupts us. A scrape failure ends the loop with the error so a
    // daemon shutdown is visible rather than a frozen last frame.
    loop {
        let frame = stat_once(&stat).map_err(CmdError::Msg)?;
        // ANSI clear-screen + home, like `watch(1)`.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        std::io::stdout().flush()?;
        std::thread::sleep(Duration::from_secs(watch_secs));
    }
}

fn cmd_gpu(opts: &Opts) -> Result<(), CmdError> {
    let n: usize = cli::get(opts, "n", 96)?;
    let steps: usize = cli::get(opts, "steps", 2)?;
    let dim = Dim3::new(n, n / 2, 24);
    let dev = Device::gtx285();
    let k = SevenPointGpu {
        alpha: 0.4,
        beta: 0.1,
    };
    let grid = Grid3::from_fn(dim, |x, y, z| ((x + 2 * y + 3 * z) % 11) as f32 * 0.2);
    println!("simulated GTX 285, {dim}, {steps} steps");
    let (_, s) = gpu_naive(&dev, k, &grid, steps);
    let t = throughput_gtx285(&s, GPU_ALU_EFF);
    println!(
        "  naive:   {:>8.0} MUPS ({} read tx)",
        t.mups, s.gmem_read_tx
    );
    let (_, s) = spatial_sweep(&dev, k, &grid, steps);
    let t = throughput_gtx285(&s, GPU_ALU_EFF);
    println!(
        "  spatial: {:>8.0} MUPS ({} read tx)",
        t.mups, s.gmem_read_tx
    );
    let (_, s) = pipelined35_sweep(
        &dev,
        k,
        &grid,
        steps,
        Pipe35Config {
            ty_loaded: 12,
            overhead_per_update: 1.0,
        },
    );
    let t = throughput_gtx285(&s, GPU_ALU_EFF_TUNED);
    println!(
        "  3.5D:    {:>8.0} MUPS ({} read tx)",
        t.mups, s.gmem_read_tx
    );
    Ok(())
}

fn cmd_info(_opts: &Opts) -> Result<(), CmdError> {
    println!("machine models (Table I + §VIII):\n");
    for m in [core_i7(), gtx285(), fermi()] {
        println!(
            "  {:30} {:>5.0} GB/s peak ({:>5.0} achieved), {:>6.0}/{:>5.0} Gops SP/DP, 𝒞 = {} KB",
            m.name,
            m.peak_bw_gbs,
            m.achieved_bw_gbs,
            m.peak_gops_sp,
            m.peak_gops_dp,
            m.fast_storage_bytes / 1024
        );
    }
    println!("\nkernels (§IV):\n");
    for k in [
        seven_point_traffic(),
        twenty_seven_point_traffic(),
        lbm_traffic(),
    ] {
        println!(
            "  {:20} {:>4} ops/update, γ = {:.2}/{:.2} B/op (SP/DP), R = {}",
            k.name,
            k.ops_per_update,
            k.gamma(Precision::Sp),
            k.gamma(Precision::Dp),
            k.radius
        );
    }
    Ok(())
}
