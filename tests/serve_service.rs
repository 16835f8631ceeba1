//! End-to-end tests of the multi-tenant solver service: admission,
//! bit-identical results over the wire, graceful shutdown under load, and
//! per-job fault isolation under chaos.
//!
//! Every test serializes on one mutex: the shutdown flag and the fault
//! injection plan are process-wide statics, so two daemons in one test
//! process would observe each other's state.

use std::io::{Read, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use threefive::metrics::{validate_exposition, Level};
use threefive::serve::protocol::{
    decode_request, decode_response, encode_solve, read_frame, MAX_FRAME,
};
use threefive::serve::signal;
use threefive::serve::{
    AdmissionLimits, ChaosCmd, JobSpec, LbmScenario, Rejected, Response, ServeMetrics, Server,
    ServerConfig, ServiceClient, WireError, Workload,
};
use threefive::serve_runner::{reference_checksum, SolverRunner};
use threefive_bench::json::Json;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    signal::reset_for_test();
    guard
}

/// Binds a daemon on an ephemeral port and runs it on a background
/// thread. The join handle resolves to `run()`'s result once the daemon
/// has drained — all of its threads joined.
fn start_server(config: ServerConfig) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, std::sync::Arc::new(SolverRunner::new(false)))
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

fn connect(addr: &str) -> ServiceClient {
    let mut client = ServiceClient::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    client
}

fn spec(workload: Workload) -> JobSpec {
    JobSpec {
        workload,
        n: 12,
        steps: 3,
        dim_t: 2,
        tile: 12,
        deadline: Duration::from_secs(60),
        priority: 0,
    }
}

fn stat_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key}: {doc}"))
}

const MIXED: [Workload; 4] = [
    Workload::Stencil,
    Workload::Lbm(LbmScenario::ClosedBox),
    Workload::Lbm(LbmScenario::Cavity),
    Workload::Lbm(LbmScenario::Channel),
];

#[test]
fn solve_round_trip_is_bit_identical_and_counted() {
    let _guard = serial();
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = connect(&addr);
    client.ping().expect("ping");

    for workload in MIXED {
        let s = spec(workload);
        match client.solve(&s).expect("solve") {
            Response::Done { completed, .. } => {
                assert_eq!(
                    completed.checksum,
                    reference_checksum(&s),
                    "{workload} result must be bit-identical to the scalar reference"
                );
            }
            other => panic!("{workload}: unexpected response {other:?}"),
        }
    }

    // Admission control rejects with a typed reason, not a disconnect.
    let mut oversized = spec(Workload::Stencil);
    oversized.n = 129;
    match client.solve(&oversized).expect("solve oversized") {
        Response::Rejected(Rejected::GridTooLarge { cells, max_cells }) => {
            assert_eq!(cells, 129u64.pow(3));
            assert_eq!(max_cells, AdmissionLimits::default().max_cells);
        }
        other => panic!("unexpected response {other:?}"),
    }
    let mut bad = spec(Workload::Stencil);
    bad.dim_t = 0;
    assert!(matches!(
        client.solve(&bad).expect("solve bad plan"),
        Response::Rejected(Rejected::BadPlan { .. })
    ));

    let stats = client.stats().expect("stats");
    assert_eq!(stat_u64(&stats, "offered"), 6);
    assert_eq!(stat_u64(&stats, "accepted"), 4);
    assert_eq!(stat_u64(&stats, "completed"), 4);
    assert_eq!(stat_u64(&stats, "rejected"), 2);

    // The accounting identities are machine-checkable from this single
    // snapshot — the daemon evaluates them under the same lock that
    // updates the counters, and the raw fields must agree with it.
    assert_eq!(
        stats.get("identities_ok").and_then(Json::as_bool),
        Some(true),
        "identities violated: {stats}"
    );
    assert_eq!(
        stat_u64(&stats, "offered"),
        stat_u64(&stats, "accepted") + stat_u64(&stats, "rejected"),
        "{stats}"
    );
    assert_eq!(
        stat_u64(&stats, "accepted"),
        stat_u64(&stats, "completed")
            + stat_u64(&stats, "failed")
            + stat_u64(&stats, "timed_out")
            + stat_u64(&stats, "in_flight"),
        "{stats}"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

/// Tentpole: the live metrics plane end to end. One daemon with the
/// runner wired into the same registry, a plaintext `GET /metrics`
/// listener, mixed jobs through it, then every surface is scraped: the
/// protocol `metrics`/`events` commands, the HTTP exposition, and the
/// nested registry snapshot inside `stats` — all from one process, all
/// internally consistent.
#[test]
fn metrics_plane_exposes_histograms_events_and_identities() {
    let _guard = serial();
    let metrics = ServeMetrics::with_options(true, 256, None);
    let runner = SolverRunner::new(false).with_metrics(Arc::clone(&metrics));
    let server = Server::bind_with_metrics(
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
        Arc::new(runner),
        metrics,
    )
    .expect("bind ephemeral ports");
    let addr = server.local_addr().expect("local addr").to_string();
    let scrape_addr = server
        .metrics_local_addr()
        .expect("metrics listener bound")
        .to_string();
    let handle = thread::spawn(move || server.run());

    let mut client = connect(&addr);
    for workload in MIXED {
        let s = spec(workload);
        match client.solve(&s).expect("solve") {
            Response::Done { completed, .. } => {
                assert_eq!(completed.checksum, reference_checksum(&s));
            }
            other => panic!("{workload}: unexpected response {other:?}"),
        }
    }

    // Protocol scrape: the exposition passes the in-tree validator and
    // carries non-zero job histograms and per-rung/kernel counters.
    let expo = client.metrics_exposition().expect("metrics command");
    validate_exposition(&expo).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{expo}"));
    for needle in [
        "threefive_jobs_offered_total 4",
        "threefive_jobs_completed_total 4",
        "threefive_jobs_in_flight 0",
        "threefive_job_queue_wait_seconds_count 4",
        "threefive_job_exec_seconds_count 4",
        "threefive_job_latency_seconds_count 4",
        "threefive_jobs_by_kernel_total{kernel=\"stencil\"} 1",
        "threefive_engine_sweeps_total",
        "threefive_jobs_by_rung_total{rung=",
    ] {
        assert!(
            expo.contains(needle),
            "exposition missing {needle:?}:\n{expo}"
        );
    }

    // HTTP scrape: the plaintext listener serves the same document to
    // curl/Prometheus with nothing but a socket.
    let mut sock = std::net::TcpStream::connect(&scrape_addr).expect("connect scrape port");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("send request");
    let mut http = String::new();
    sock.read_to_string(&mut http).expect("read response");
    assert!(http.starts_with("HTTP/1.0 200 OK\r\n"), "{http}");
    let body = http.split("\r\n\r\n").nth(1).expect("header/body split");
    validate_exposition(body).unwrap_or_else(|e| panic!("HTTP exposition invalid: {e}\n{body}"));
    assert!(body.contains("threefive_jobs_completed_total 4"), "{body}");

    // The stats document nests the registry snapshot with quantiles, and
    // the identities hold at this scrape too.
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("identities_ok").and_then(Json::as_bool),
        Some(true),
        "{stats}"
    );
    let latency = stats
        .get("metrics")
        .and_then(|m| m.get("threefive_job_latency_seconds"))
        .expect("nested latency histogram");
    assert_eq!(stat_u64(latency, "count"), 4, "{latency}");
    assert!(
        latency.get("p50_ns").and_then(Json::as_f64).unwrap_or(0.0) > 0.0,
        "{latency}"
    );

    // The structured event log saw the lifecycle: server_started at
    // info, per-job admission at debug, per-job completion at info —
    // each stamped with a job id where one exists.
    let events = client.events(256, Level::Debug).expect("events command");
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    assert!(kinds.contains(&"server_started"), "{kinds:?}");
    assert!(kinds.contains(&"job_admitted"), "{kinds:?}");
    assert!(kinds.contains(&"job_done"), "{kinds:?}");
    let done = events
        .iter()
        .find(|e| e.get("kind").and_then(Json::as_str) == Some("job_done"))
        .unwrap();
    assert!(
        done.get("job_id").and_then(Json::as_u64).is_some(),
        "{done}"
    );
    // Warn-level filtering drops the debug/info stream.
    let warns = client.events(256, Level::Warn).expect("filtered events");
    assert!(
        warns.iter().all(|e| matches!(
            e.get("level").and_then(Json::as_str),
            Some("warn" | "error")
        )),
        "{warns:?}"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

/// Satellite: a daemon under load that receives a shutdown request
/// drains every admitted job to a final answer, refuses new work with a
/// typed `ShuttingDown`, and exits cleanly with all threads joined.
#[test]
fn graceful_shutdown_under_load_drains_admitted_jobs() {
    let _guard = serial();
    let (addr, handle) = start_server(ServerConfig {
        teams: 1,
        threads_per_team: 2,
        dispatchers: 1,
        queue_capacity: 32,
        ..ServerConfig::default()
    });

    // Four tenants submit continuously until they see the drain refusal.
    let drain_requested = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut tenants = Vec::new();
    for t in 0..4usize {
        let addr = addr.clone();
        let drain_requested = std::sync::Arc::clone(&drain_requested);
        tenants.push(thread::spawn(move || {
            let mut client = connect(&addr);
            let mut answered = 0u64;
            let mut saw_drain = false;
            for k in 0..100 {
                let s = spec(MIXED[(t + k) % MIXED.len()]);
                match client.solve(&s) {
                    Ok(Response::Done { completed, .. }) => {
                        answered += 1;
                        assert_eq!(completed.checksum, reference_checksum(&s));
                    }
                    Ok(Response::Rejected(Rejected::ShuttingDown)) => {
                        saw_drain = true;
                        break;
                    }
                    Ok(Response::Rejected(Rejected::QueueFull { .. }))
                    | Ok(Response::Failed { .. }) => answered += 1,
                    Ok(other) => panic!("unexpected response {other:?}"),
                    Err(e) => {
                        // A closed socket is only acceptable once the
                        // daemon was asked to drain and may have already
                        // exited; before that it is a wire bug.
                        assert!(
                            drain_requested.load(std::sync::atomic::Ordering::SeqCst),
                            "request got no answer before the drain was requested: {e}"
                        );
                        saw_drain = true;
                        break;
                    }
                }
            }
            (answered, saw_drain)
        }));
    }

    // Let some jobs land, then ask for the drain mid-load.
    thread::sleep(Duration::from_millis(300));
    drain_requested.store(true, std::sync::atomic::Ordering::SeqCst);
    connect(&addr).shutdown().expect("shutdown request");

    let mut total_answered = 0;
    for t in tenants {
        let (answered, saw_drain) = t.join().expect("tenant thread");
        assert!(
            saw_drain,
            "every tenant must eventually observe the typed ShuttingDown refusal"
        );
        total_answered += answered;
    }
    assert!(total_answered > 0, "some jobs were admitted before drain");

    // run() returning Ok proves the drain completed and every dispatcher,
    // connection and writer thread was joined — nothing wedged.
    handle.join().expect("server thread").expect("clean exit");
}

/// Acceptance: ≥32 concurrent mixed jobs with fault injection armed
/// mid-load. Every accepted job must either return a checksum
/// bit-identical to the scalar reference or a typed error; the daemon
/// must not hang, and after the chaos stops the pool must heal back to
/// full capacity.
#[test]
fn chaos_isolation_keeps_results_bit_identical_and_pool_heals() {
    let _guard = serial();
    let (addr, handle) = start_server(ServerConfig {
        teams: 2,
        threads_per_team: 2,
        dispatchers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    });

    // References computed up front — all jobs share n/steps, so there are
    // exactly four distinct expected checksums.
    let expected: Vec<u64> = MIXED
        .iter()
        .map(|w| reference_checksum(&spec(*w)))
        .collect();

    // Chaos driver: keep re-arming faults (panic on worker 0, stall on
    // worker 1) inside the daemon while the tenants are loading it.
    let chaos_done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let chaos_handle = {
        let addr = addr.clone();
        let done = std::sync::Arc::clone(&chaos_done);
        thread::spawn(move || {
            let mut client = connect(&addr);
            let mut flip = false;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let cmd = if flip {
                    ChaosCmd::Stall {
                        tid: 1,
                        step: 2,
                        stall: Duration::from_millis(20),
                    }
                } else {
                    ChaosCmd::Panic { tid: 0, step: 1 }
                };
                flip = !flip;
                client.chaos(&cmd).expect("arm chaos");
                thread::sleep(Duration::from_millis(25));
            }
            client.chaos(&ChaosCmd::Off).expect("disarm chaos");
        })
    };

    // 8 tenants × 4 jobs = 32 concurrent mixed jobs under fault injection.
    let mut tenants = Vec::new();
    for t in 0..8usize {
        let addr = addr.clone();
        let expected = expected.clone();
        tenants.push(thread::spawn(move || {
            let mut client = connect(&addr);
            let mut done_jobs = 0u64;
            let mut typed_errors = 0u64;
            for k in 0..4 {
                let which = (t + k) % MIXED.len();
                let s = spec(MIXED[which]);
                match client.solve(&s).expect("every request gets an answer") {
                    Response::Done { completed, .. } => {
                        // The core guarantee: whatever rung survived the
                        // injected faults, the bits match the scalar
                        // reference — no cross-job corruption.
                        assert_eq!(
                            completed.checksum, expected[which],
                            "tenant {t} job {k} ({}) corrupted under chaos",
                            MIXED[which]
                        );
                        done_jobs += 1;
                    }
                    Response::Failed { .. } | Response::Rejected(_) => typed_errors += 1,
                    other => panic!("unexpected response {other:?}"),
                }
            }
            (done_jobs, typed_errors)
        }));
    }

    let mut done_jobs = 0;
    let mut typed_errors = 0;
    for t in tenants {
        let (d, e) = t.join().expect("tenant thread survived");
        done_jobs += d;
        typed_errors += e;
    }
    chaos_done.store(true, std::sync::atomic::Ordering::Relaxed);
    chaos_handle.join().expect("chaos thread");
    assert_eq!(done_jobs + typed_errors, 32, "all 32 jobs answered");
    assert!(
        done_jobs > 0,
        "the degradation ladder should complete jobs despite injected faults"
    );

    // With the faults disarmed the pool must heal back to full capacity:
    // quarantined teams drain their stragglers and return to idle.
    let mut client = connect(&addr);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.stats().expect("stats");
        let capacity = stat_u64(&stats, "pool_capacity");
        if stat_u64(&stats, "pool_quarantined") == 0 && stat_u64(&stats, "pool_idle") == capacity {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pool did not heal to full capacity: {stats}"
        );
        thread::sleep(Duration::from_millis(100));
    }

    // And a healed pool serves fresh jobs bit-identically.
    for (which, workload) in MIXED.iter().enumerate() {
        let s = spec(*workload);
        match client.solve(&s).expect("post-heal solve") {
            Response::Done { completed, .. } => assert_eq!(completed.checksum, expected[which]),
            other => panic!("post-heal {workload}: unexpected response {other:?}"),
        }
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

/// A frame of 200 000 unclosed `[` — 200 KB, far under `MAX_FRAME` — used
/// to overflow the reader thread's stack inside the recursive JSON parser
/// and abort the whole process. It must be refused with a typed reply (or
/// a clean close), and the daemon must go on serving verified jobs.
#[test]
fn deeply_nested_frame_is_refused_and_the_daemon_survives() {
    let _guard = serial();
    let (addr, handle) = start_server(ServerConfig::default());

    let payload = "[".repeat(200_000);
    assert!(payload.len() < MAX_FRAME);
    let mut sock = std::net::TcpStream::connect(&addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.write_all(&(payload.len() as u32).to_be_bytes())
        .expect("send length prefix");
    sock.write_all(payload.as_bytes()).expect("send payload");
    match read_frame(&mut sock) {
        Ok(doc) => match decode_response(&doc).expect("typed reply") {
            Response::BadRequest { detail } => assert!(detail.contains("nesting"), "{detail}"),
            other => panic!("unexpected response {other:?}"),
        },
        Err(WireError::Closed) => {}
        Err(e) => panic!("neither a typed reply nor a clean close: {e}"),
    }

    let mut client = connect(&addr);
    let s = spec(Workload::Stencil);
    match client.solve(&s).expect("solve after the hostile frame") {
        Response::Done { completed, .. } => assert_eq!(completed.checksum, reference_checksum(&s)),
        other => panic!("unexpected response {other:?}"),
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

/// Seed documents for the codec fuzz: every `solve` request shape plus the
/// checked-in model-checker traces (the largest documents in the tree).
fn codec_corpus() -> &'static [String] {
    static CORPUS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
        let mut files: Vec<_> = std::fs::read_dir(&data)
            .expect("tests/data")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "no corpus under {}", data.display());
        MIXED
            .iter()
            .map(|w| encode_solve(&spec(*w)).to_string())
            .chain(
                files
                    .iter()
                    .map(|p| std::fs::read_to_string(p).expect("corpus file")),
            )
            .collect()
    })
}

/// Bytes a mutation writes: JSON's structural characters and the pieces
/// of numbers, literals and escapes, plus a NUL and a stray UTF-8 lead
/// byte.
const FUZZ_BYTES: &[u8] = b"[]{}\",:\\-+.eE019utfn \n\0\xc3";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile bytes never panic the codec (or the request decoder behind
    /// it), and every document it accepts survives write → parse unchanged.
    #[test]
    fn mutated_documents_never_panic_and_accepted_ones_round_trip(
        pick in 0usize..1 << 16,
        edits in prop::collection::vec((0usize..1 << 16, 0u8..4, 0usize..1 << 16), 1..6),
    ) {
        let corpus = codec_corpus();
        let mut bytes = corpus[pick % corpus.len()].clone().into_bytes();
        for &(at, op, which) in &edits {
            let at = at % bytes.len().max(1);
            let byte = FUZZ_BYTES[which % FUZZ_BYTES.len()];
            match op {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => drop(bytes.remove(at)),
                2 => bytes.insert(at, byte),
                // A run long enough to cross the nesting cap.
                _ => drop(bytes.splice(at..at, vec![byte; 60 + which % 16])),
            }
        }
        // The daemon refuses non-UTF-8 frames before the parser sees them;
        // the lossy form still exercises multi-byte scalars in strings.
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(doc) = Json::parse(&text) {
            let _ = decode_request(&doc);
            prop_assert_eq!(Json::parse(&doc.to_string()), Ok(doc));
        }
    }
}
