//! End-to-end tests of the `threefive` binary: option parsing, error
//! exits, and the `bench` subcommand's machine-readable output.

use std::path::PathBuf;
use std::process::{Command, Output};

use threefive::bench::json::Json;
use threefive::bench::report::{BenchReport, BENCH_SCHEMA_VERSION};
use threefive::core::exec::StencilExec;
use threefive::lbm::LbmExec;

fn threefive(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_threefive"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("threefive_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn run_with_zero_dimt_exits_cleanly_with_typed_error() {
    let out = threefive(&["run", "--n", "16", "--steps", "1", "--dimt", "0"]);
    assert!(!out.status.success(), "must exit nonzero");
    let err = stderr(&out);
    assert!(
        err.contains("dimT=0") || err.contains("dim_t"),
        "names the bad parameter: {err}"
    );
    assert!(!err.contains("panicked"), "no panic backtrace: {err}");
}

#[test]
fn lbm_with_zero_dimt_exits_cleanly_with_typed_error() {
    let out = threefive(&["lbm", "--n", "12", "--steps", "1", "--dimt", "0"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "no panic backtrace: {err}");
}

#[test]
fn unparseable_value_names_the_flag_and_exits_nonzero() {
    let out = threefive(&["run", "--n", "abc"]);
    assert!(!out.status.success(), "must not silently default --n");
    let err = stderr(&out);
    assert!(err.contains("--n") && err.contains("abc"), "{err}");
}

#[test]
fn valueless_flag_does_not_swallow_the_next_option() {
    // Before the parser fix, a valueless flag consumed `--n` and the run
    // silently used the default grid.
    let out = threefive(&["lbm", "--timing", "--n", "24", "--steps", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("24x24x24"),
        "the --n value must take effect: {}",
        stdout(&out)
    );
}

#[test]
fn every_subcommand_rejects_an_unknown_flag_by_name() {
    for cmd in [
        "plan", "run", "lbm", "bench", "tune", "trace", "analyze", "serve", "loadgen", "stat",
        "gpu", "info",
    ] {
        let out = threefive(&[cmd, "--bogus", "1"]);
        assert!(!out.status.success(), "{cmd} --bogus must exit nonzero");
        let err = stderr(&out);
        assert!(err.contains("unknown flag --bogus"), "{cmd}: {err}");
        assert!(
            stdout(&out).is_empty(),
            "{cmd} ran anyway: {}",
            stdout(&out)
        );
    }
}

#[test]
fn run_reports_interior_mups_with_warmup() {
    let out = threefive(&["run", "--n", "20", "--steps", "2", "--variant", "35d"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("interior Mupdates/s"), "{text}");
    assert!(text.contains("after 1 warmup"), "{text}");
    assert!(text.contains("barrier-wait share"), "{text}");
}

/// A variant that executes on no thread team must not print a thread
/// count it never used — it refuses `--threads N > 1` naming the flag,
/// and reports one thread otherwise. Which variants those are is read
/// from the registry, so the CLI cannot drift from it. (Every `lbm`
/// variant runs on the team, so there is nothing to refuse there.)
#[test]
fn run_refuses_threads_on_single_threaded_variants() {
    for exec in StencilExec::ALL {
        let variant = exec.cli_name();
        let base = [
            "run",
            "--n",
            "16",
            "--steps",
            "2",
            "--db",
            "none",
            "--variant",
            variant,
        ];
        let out = threefive(&[&base[..], &["--threads", "2"]].concat());
        if exec.uses_team() {
            assert!(out.status.success(), "{variant}: {}", stderr(&out));
            assert!(stdout(&out).contains("2 thread(s)"), "{}", stdout(&out));
            continue;
        }
        assert!(!out.status.success(), "{variant}: must exit nonzero");
        let err = stderr(&out);
        assert!(
            err.contains("--threads") && err.contains(variant),
            "{variant}: names the flag and the variant: {err}"
        );
        assert!(!err.contains("panicked"), "no panic backtrace: {err}");

        for explicit in [&["--threads", "1"][..], &[]] {
            let out = threefive(&[&base[..], explicit].concat());
            assert!(out.status.success(), "{variant}: {}", stderr(&out));
            assert!(stdout(&out).contains("1 thread(s)"), "{}", stdout(&out));
        }
    }
    let out = threefive(&[
        "lbm",
        "--n",
        "12",
        "--steps",
        "2",
        "--variant",
        "simd",
        "--threads",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
}

/// An unknown `--variant` exits nonzero listing every registered name,
/// and the usage text offers the same list.
#[test]
fn unknown_variant_lists_every_registered_name() {
    let stencil: Vec<&str> = StencilExec::ALL.map(StencilExec::cli_name).into();
    let lbm: Vec<&str> = LbmExec::ALL.map(LbmExec::cli_name).into();
    for (cmd, names) in [("run", &stencil), ("lbm", &lbm)] {
        let out = threefive(&[cmd, "--n", "8", "--steps", "1", "--variant", "bogus"]);
        assert!(!out.status.success(), "{cmd}: must exit nonzero");
        let err = stderr(&out);
        assert!(err.contains("unknown variant 'bogus'"), "{cmd}: {err}");
        for name in names {
            assert!(err.contains(name), "{cmd}: '{name}' missing from {err}");
        }
    }
    let usage = stderr(&threefive(&["help"]));
    assert!(usage.contains(&stencil.join("|")), "{usage}");
    assert!(usage.contains(&lbm.join("|")), "{usage}");
}

#[test]
fn bench_writes_schema_versioned_reports_that_validate() {
    let dir = scratch_dir("bench_out");
    let out = threefive(&[
        "bench",
        "--n",
        "16",
        "--steps",
        "2",
        "--reps",
        "1",
        "--db",
        "none",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // The report's variant/schedule strings, pinned byte for byte.
    let stencil: &[(&str, &str)] = &[
        ("scalar", "none"),
        ("simd no-blocking", "none"),
        ("3D blocking", "none"),
        ("spatial only", "none"),
        ("temporal only", "lag35d"),
        ("4D blocking", "none"),
        ("3.5D blocking", "lag35d"),
        ("tile 3.5D", "lag35d"),
    ];
    let lbm: &[(&str, &str)] = &[
        ("scalar no-blocking", "none"),
        ("simd no-blocking", "none"),
        ("temporal only", "lag35d"),
        ("3.5D blocking", "lag35d"),
    ];
    for (name, kind, expect_variants) in [
        ("BENCH_stencil.json", "stencil", stencil),
        ("BENCH_lbm.json", "lbm", lbm),
    ] {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path).expect("report written");
        let report = BenchReport::validate_str(&text).expect("schema-valid");
        assert_eq!(report.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(report.kind, kind);
        let variants: Vec<(&str, &str)> = report
            .entries
            .iter()
            .map(|e| (e.variant.as_str(), e.schedule.as_str()))
            .collect();
        assert_eq!(variants, expect_variants);
        for e in &report.entries {
            assert_eq!(e.grid, [16, 16, 16]);
            assert_eq!(e.steps, 2);
            assert!(e.mups > 0.0, "{}: positive MUPS", e.variant);
            assert!(e.median_secs > 0.0);
            assert!(e.modeled_dram_bytes > 0);
            // MUPS is defined over interior updates, never dim³.
            let implied = e.interior_updates as f64 / e.median_secs / 1e6;
            assert!(
                (e.mups - implied).abs() < 1e-6 * implied.max(1.0),
                "{}: mups {} vs interior-implied {}",
                e.variant,
                e.mups,
                implied
            );
        }

        // The binary's own validator accepts what it wrote.
        let out = threefive(&["bench", "--validate", path.to_str().unwrap()]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(stdout(&out).contains("valid BENCH report"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_validate_names_a_missing_schema_field() {
    // The v1 validator's gap: deleting a required field (e.g. `kappa`)
    // still validated. v2 must exit nonzero and name the field.
    let dir = scratch_dir("bench_missing_field");
    let out = threefive(&[
        "bench",
        "--n",
        "12",
        "--steps",
        "1",
        "--reps",
        "1",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let path = dir.join("BENCH_stencil.json");
    let text = std::fs::read_to_string(&path).expect("report written");
    for field in ["kappa", "barrier_share", "telemetry"] {
        // Delete the key from every entry object, then re-serialize.
        let mut doc = Json::parse(&text).expect("report parses");
        let Json::Obj(top) = &mut doc else {
            panic!("report is an object")
        };
        let entries = top
            .iter_mut()
            .find(|(k, _)| k == "entries")
            .map(|(_, v)| v)
            .expect("entries key");
        let Json::Arr(items) = entries else {
            panic!("entries is an array")
        };
        for item in items {
            let Json::Obj(fields) = item else {
                panic!("entry is an object")
            };
            fields.retain(|(k, _)| k != field);
        }
        let bad = dir.join(format!("BENCH_missing_{field}.json"));
        std::fs::write(&bad, doc.to_string()).unwrap();

        let out = threefive(&["bench", "--validate", bad.to_str().unwrap()]);
        assert!(
            !out.status.success(),
            "missing '{field}' must fail validation"
        );
        let err = stderr(&out);
        assert!(
            err.contains(field),
            "error must name the missing field '{field}': {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_subcommand_writes_a_valid_perfetto_trace() {
    let dir = scratch_dir("trace_out");
    let out = threefive(&[
        "trace",
        "--nx",
        "16",
        "--ny",
        "16",
        "--nz",
        "16",
        "--dimt",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("wrote"), "{text}");
    assert!(text.contains("per-thread timeline"), "{text}");
    assert!(text.contains("roofline_attainment_pct"), "{text}");

    let path = dir.join("TRACE_stencil.json");
    assert!(path.exists(), "trace file written");

    // The binary's own validator accepts what it wrote.
    let out = threefive(&["trace", "--validate", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));

    // And a corrupted trace is rejected.
    let garbled = dir.join("TRACE_bad.json");
    std::fs::write(&garbled, "{\"traceEvents\": [{\"ph\": \"X\"}]}").unwrap();
    let out = threefive(&["trace", "--validate", garbled.to_str().unwrap()]);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_validate_rejects_garbage() {
    let dir = scratch_dir("bench_bad");
    let path = dir.join("BENCH_bad.json");
    std::fs::write(&path, "{\"schema_version\": 999}").unwrap();
    let out = threefive(&["bench", "--validate", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("invalid BENCH report"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}
