//! The repository's benchmark: four workloads, four end-to-end metrics
//! each, and an outside-in ladder of per-layer metrics. See `README.md`
//! beside this package for what is measured and why; `BENCHMARK.json` at
//! the repository root names the command, the metrics and their bounds.
//!
//! ```text
//! threefive-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! threefive-benchmark --selfcheck [--passes N] [--seconds S]
//! ```

mod estimator;
mod host;
mod ladder;
mod run;
mod selfcheck;
mod spans;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use workloads::{Workload, WORKLOADS};

/// `(name, unit)` of the metrics the untraced invocation reports.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mups", "Mupdates/s"),
    ("job_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
];

const MUPS: &str = "Mupdates/s";
const GBS: &str = "GB/s";

/// `(name, unit)` of the metrics the traced invocation reports, layer by
/// layer from the outside in.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("host.llc_mib", "MiB"),
    ("host.l2_mib", "MiB"),
    ("host.triad_array_mib", "MiB"),
    ("host.triad_gbs_1t", GBS),
    ("host.triad_gbs_nt", GBS),
    ("host.fma_gflops_1t", "GFLOP/s"),
    ("job.count", "count"),
    ("job.ms_p50_all", "ms"),
    ("job.ms_max", "ms"),
    ("bench.noisy_segments", "count"),
    ("bench.half_drift_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("verify.attempted", "count"),
    ("verify.failed", "count"),
    ("verify.segments_checked", "count"),
    ("serve.solve_rtt_us_1c", "us"),
    ("serve.overhead_us", "us"),
    ("serve.frame_rtt_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("serve.identities_ok", "count"),
    ("metrics.on_vs_off_pct", "%"),
    ("metrics.scrape_ms", "ms"),
    ("serve_runner.run_us", "us"),
    ("serve_runner.exec_share", "ratio"),
    ("serve_runner.setup_us", "us"),
    ("serve_runner.checksum_us", "us"),
    ("run.job_ms", "ms"),
    ("run.sweep_ms", "ms"),
    ("run.self_ms", "ms"),
    ("run.overhead_share", "ratio"),
    ("run.accounting_gap_pct", "%"),
    ("run.downgrades", "count"),
    ("run.rung", "count"),
    ("grid.alloc_init_ms", "ms"),
    ("grid.copy_gbs", GBS),
    ("sync.barrier_ns", "ns"),
    ("sync.barrier_share", "ratio"),
    ("sync.barriers_per_job", "count"),
    ("sync.team_dispatch_us", "us"),
    ("sync.pool_lease_us", "us"),
    ("core.plan_us", "us"),
    ("core.plan_dim_t", "count"),
    ("core.plan_tile", "count"),
    ("core.kappa", "ratio"),
    ("core.reference_mups_1t", MUPS),
    ("core.simd_sweep_mups_1t", MUPS),
    ("core.blocked35d_mups_1t", MUPS),
    ("core.parallel35d_mups", MUPS),
    ("core.wavefront_mups", MUPS),
    ("core.diamond_mups", MUPS),
    ("core.blocking_gain_1t", "ratio"),
    ("core.parallel_eff", "ratio"),
    ("core.bytes_per_update_computed", "B"),
    ("core.flops_per_update", "count"),
    ("core.op_per_byte_computed", "flop/B"),
    ("core.mem_bw_frac", "ratio"),
    ("core.roofline_frac", "ratio"),
    ("lbm.naive_scalar_mups_1t", MUPS),
    ("lbm.naive_simd_mups", MUPS),
    ("lbm.lbm35d_mups", MUPS),
    ("lbm.blocking_gain", "ratio"),
    ("lbm.bytes_per_update_computed", "B"),
    ("lbm.mem_bw_frac", "ratio"),
];

/// Metric values by name, in the order they were set.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// A metric set earlier in the same run (a denominator such as the
    /// triad bandwidth); missing ones read as NaN and show as such.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Test hook: flips one bit of the scalar reference's checksum, which
    /// must make every verification fail and the command exit nonzero.
    pub corrupt_reference: bool,
    pub selfcheck: bool,
    pub passes: usize,
}

/// Window length the job counts in `README.md` are quoted for, and the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 25;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        corrupt_reference: false,
        selfcheck: false,
        passes: 6,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: '{text}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => args.seed = number(value("a number")?)?,
            "--seconds" => {
                args.seconds = number(value("a number")?)?;
                if !(1..=60).contains(&args.seconds) {
                    return Err(format!("--seconds {} is outside 1..60", args.seconds));
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--corrupt-reference" => args.corrupt_reference = true,
            "--selfcheck" => args.selfcheck = true,
            "--passes" => args.passes = number(value("a number")?)?.max(2) as usize,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// A JSON string literal, escaped by the repository's own JSON writer.
pub fn quote(text: &str) -> String {
    threefive::bench::json::Json::str(text).to_string()
}

/// What two result files must agree on before their numbers may be
/// compared: seed, commit, thread count, job counts and the host facts.
pub fn header(w: &Workload, args: &Args, per_segment: usize) -> Vec<(&'static str, String)> {
    let facts = host::HostFacts::detect();
    vec![
        ("workload", w.name.into()),
        ("why", w.why.into()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_commit", host::git_commit()),
        ("threads", w.team_threads().to_string()),
        (
            "load_generators",
            if w.kind == workloads::Kind::Serve {
                workloads::threads()
            } else {
                1
            }
            .to_string(),
        ),
        ("jobs", format!("{} x {per_segment}", estimator::SEGMENTS)),
        ("warmup_jobs", w.warmup_jobs.to_string()),
        ("grid", format!("{}^3 x {} steps", w.n, w.steps)),
        ("host.nproc", facts.nproc.to_string()),
        ("host.llc_mib", facts.llc_mib.to_string()),
        ("host.l2_mib", facts.l2_mib.to_string()),
        ("host.thp", facts.thp),
    ]
}

/// Writes the spans kept in memory during the run; returns the path and
/// the number of spans.
pub fn write_trace(
    workload: &str,
    header: &[(&'static str, String)],
    rec: &spans::Recorder,
) -> std::io::Result<(String, usize)> {
    let spans = rec.snapshot();
    std::fs::create_dir_all("benchmark/out")?;
    let path = format!("benchmark/out/trace_{workload}.json");
    std::fs::write(&path, spans::to_json(header, &spans))?;
    Ok((path, spans.len()))
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of `table` and nothing
/// else, each as measured with all its digits.
fn result_line(outcome: &run::Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name);
            // JSON has no NaN; a metric that could not be measured is a
            // defect of the run and fails it (see `main`).
            let shown = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!(
                "{}: {{\"value\": {shown}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.verdict.correct(),
        outcome.verdict.attempted,
        outcome.verdict.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("threefive-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck::run(&args);
    }
    let Some(w) = args.workload.as_deref().and_then(Workload::find) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "threefive-benchmark: --workload must be one of {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    for (key, value) in header(w, &args, run::jobs_per_segment(w, &args)) {
        println!("# {key}: {value}");
    }
    let outcome = run::run(w, &args, process_start);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for note in &outcome.notes {
        println!("# {note}");
    }
    let mut measured = true;
    for (name, unit) in table {
        let value = outcome.metrics.get(name);
        measured &= value.is_finite();
        println!("{name:32} {value:>16.6} {unit}");
    }
    println!(
        "# verify: {} failed of {} attempted, {} of {} segments checked bit-exactly{}",
        outcome.verdict.failed,
        outcome.verdict.attempted,
        outcome.verdict.segments_checked,
        estimator::SEGMENTS,
        if outcome.verdict.accounting_ok {
            ""
        } else {
            "; the accounting does not close"
        }
    );
    println!("{}", result_line(&outcome, table));
    if outcome.verdict.correct() && measured {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threefive::bench::json::Json;

    fn strings(argv: &[&str]) -> Vec<String> {
        argv.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse_args(&strings(&[
            "--workload",
            "lbm_dram",
            "--seed",
            "7",
            "--seconds",
            "25",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("lbm_dram"), 7, 25, true)
        );
        assert!(!parse_args(&strings(&["--trace", "0"])).unwrap().trace);
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "61"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--seed", "x"])).is_err());
    }

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// metrics with the same units, or the driver refuses the result line.
    #[test]
    fn benchmark_json_matches_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"),
        )
        .unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key}.{field}"))
                        .to_string()
                })
                .collect()
        };
        let names = |table: &[(&str, &str)], i: usize| -> Vec<String> {
            table.iter().map(|t| [t.0, t.1][i].to_string()).collect()
        };
        assert_eq!(
            listed("workloads", "name"),
            WORKLOADS
                .iter()
                .map(|w| w.name.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            listed("workloads", "why"),
            WORKLOADS
                .iter()
                .map(|w| w.why.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(listed("end_to_end", "name"), names(END_TO_END, 0));
        assert_eq!(listed("end_to_end", "unit"), names(END_TO_END, 1));
        assert_eq!(listed("per_layer", "name"), names(PER_LAYER, 0));
        assert_eq!(listed("per_layer", "unit"), names(PER_LAYER, 1));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS)
        );
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut metrics = Metrics::default();
        for (name, _) in END_TO_END {
            metrics.set(name, 1.25);
        }
        let outcome = run::Outcome {
            verdict: run::Verdict {
                attempted: 36,
                failed: 0,
                segments_checked: 12,
                accounting_ok: true,
            },
            metrics,
            notes: vec![],
        };
        let line = result_line(&outcome, END_TO_END);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(36));
        let mups = doc.get("metrics").and_then(|m| m.get("mups")).unwrap();
        assert_eq!(mups.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(mups.get("unit").and_then(Json::as_str), Some("Mupdates/s"));
        let awkward = "a\"b\\c\n";
        assert_eq!(
            Json::parse(&quote(awkward)).unwrap().as_str(),
            Some(awkward)
        );
    }
}
