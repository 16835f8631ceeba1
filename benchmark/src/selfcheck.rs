//! `--selfcheck`: do two sets of runs of the same code agree within the
//! bounds `BENCHMARK.json` fixes?
//!
//! Runs `--passes` full passes (every workload once, seed = pass number),
//! forms two sets by alternation (passes 1, 3, 5 against 2, 4, 6, so slow
//! drift of the host lands in both), and compares each end-to-end
//! metric's set medians, workload by workload, and each metric's quartile
//! spread over all passes as a share of its median, with the bound: all 16
//! workload × metric cells must pass both. Then one traced run per
//! workload, which fails unless its accounting closes. The raw output of
//! every run is written to `benchmark/baseline/`: the benchmark's latest
//! numbers, from which later changes size their gains and from which the
//! bounds in `BENCHMARK.json` are derived (last table).

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use threefive::bench::json::Json;

use crate::estimator::{median, quartiles};
use crate::workloads::WORKLOADS;
use crate::Args;

const BASELINE_DIR: &str = "benchmark/baseline";

struct Bound {
    name: String,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name or bound".to_string())
}

/// One workload run as a child process, its output written to `file` of
/// the baseline directory; returns the metrics of its result line.
fn child(
    workload: &str,
    seed: usize,
    seconds: u64,
    trace: bool,
    file: &str,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let path = format!("{BASELINE_DIR}/{file}");
    std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {} exited with {}:\n{text}",
            u8::from(trace),
            out.status
        ));
    }
    let last = text
        .lines()
        .last()
        .ok_or(format!("{workload}: no output"))?;
    Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))
}

pub fn run(args: &Args) -> ExitCode {
    match check(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("threefive-benchmark --selfcheck: {e}");
            ExitCode::from(2)
        }
    }
}

fn check(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    std::fs::create_dir_all(BASELINE_DIR).map_err(|e| e.to_string())?;
    // values[workload][metric][pass]
    let mut values = vec![vec![Vec::new(); bounds.len()]; WORKLOADS.len()];
    for pass in 1..=args.passes {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            eprintln!("pass {pass}/{}: {}", args.passes, w.name);
            let file = format!("pass{pass:02}_{}.txt", w.name);
            let doc = child(w.name, pass, args.seconds, false, &file)?;
            for (mi, b) in bounds.iter().enumerate() {
                let value = doc
                    .get("metrics")
                    .and_then(|m| m.get(&b.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{}: result line lacks {}", w.name, b.name))?;
                values[wi][mi].push(value);
            }
        }
    }

    let mut report = String::new();
    let mut ok = true;
    // Per metric, the largest set difference and quartile spread of any
    // workload.
    let mut largest = vec![(0.0f64, 0.0f64); bounds.len()];
    let _ = writeln!(
        report,
        "set-to-set median difference, passes 1,3,5,.. against 2,4,6,.. (of {})",
        args.passes
    );
    let _ = writeln!(
        report,
        "{:14} {:14} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "odd set", "even set", "diff %", "bound %"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, b) in bounds.iter().enumerate() {
            let set = |parity: usize| {
                let v: Vec<f64> = values[wi][mi]
                    .iter()
                    .copied()
                    .skip(parity)
                    .step_by(2)
                    .collect();
                median(&v)
            };
            let (odd, even) = (set(0), set(1));
            let diff = (even - odd).abs() / odd;
            let pass = diff <= b.bound;
            ok &= pass;
            largest[mi].0 = largest[mi].0.max(diff);
            let _ = writeln!(
                report,
                "{:14} {:14} {odd:>12.4} {even:>12.4} {:>8.2} {:>7.1}  {}",
                w.name,
                b.name,
                diff * 100.0,
                b.bound * 100.0,
                if pass { "ok" } else { "MISS" }
            );
        }
    }
    let _ = writeln!(
        report,
        "\nquartile spread over all {} passes, as a share of the median",
        args.passes
    );
    let _ = writeln!(
        report,
        "{:14} {:14} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread %", "bound %"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, b) in bounds.iter().enumerate() {
            let v = &values[wi][mi];
            let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
            let med = median(v);
            let spread = (q3 - q1) / med;
            let pass = spread <= b.bound;
            ok &= pass;
            largest[mi].1 = largest[mi].1.max(spread);
            let _ = writeln!(
                report,
                "{:14} {:14} {med:>12.4} {:>9.2} {:>7.1}  {}",
                w.name,
                b.name,
                spread * 100.0,
                b.bound * 100.0,
                if pass { "ok" } else { "MISS" }
            );
        }
    }
    let _ = writeln!(
        report,
        "\nbound = min(10 %, max(3 %, 2 x largest set difference, 3 x largest quartile spread))"
    );
    let _ = writeln!(
        report,
        "{:14} {:>8} {:>9} {:>7} {:>15}",
        "metric", "diff %", "spread %", "rule %", "BENCHMARK.json %"
    );
    for (b, (diff, spread)) in bounds.iter().zip(largest) {
        let rule = (2.0 * diff).max(3.0 * spread).clamp(0.03, 0.10);
        let _ = writeln!(
            report,
            "{:14} {:>8.2} {:>9.2} {:>7.1} {:>15.1}",
            b.name,
            diff * 100.0,
            spread * 100.0,
            rule * 100.0,
            b.bound * 100.0
        );
    }
    print!("{report}");
    let path = format!("{BASELINE_DIR}/summary.txt");
    std::fs::write(&path, &report).map_err(|e| format!("{path}: {e}"))?;

    // One traced run per workload; it fails unless its accounting closes.
    for w in &WORKLOADS {
        eprintln!("traced: {}", w.name);
        if let Err(e) = child(
            w.name,
            1,
            args.seconds,
            true,
            &format!("traced_{}.txt", w.name),
        ) {
            eprintln!("{e}");
            ok = false;
        }
    }
    Ok(ok)
}
