//! Stress and failure-injection tests for the synchronization substrate.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use threefive_sync::{SharedSlice, SpinBarrier, SyncError, ThreadTeam};

#[test]
fn spin_barrier_many_threads_many_episodes() {
    const T: usize = 8;
    const EPISODES: usize = 500;
    let barrier = Arc::new(SpinBarrier::new(T));
    let counter = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for _ in 0..T {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&counter);
            s.spawn(move || {
                for e in 1..=EPISODES {
                    counter.fetch_add(1, Ordering::Relaxed);
                    barrier.wait();
                    // After the barrier every increment of this episode is
                    // visible; before the next one, none of the next's.
                    let seen = counter.load(Ordering::Relaxed);
                    assert!(seen >= e * T && seen <= e * T + T, "episode {e}: {seen}");
                    barrier.wait();
                }
            });
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), T * EPISODES);
}

#[test]
fn team_survives_thousands_of_tiny_runs() {
    let team = ThreadTeam::new(4);
    let total = AtomicUsize::new(0);
    for _ in 0..2000 {
        team.run(|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(total.into_inner(), 8000);
}

#[test]
fn team_panic_recovery_under_repeated_failures() {
    let team = ThreadTeam::new(3);
    for round in 0..20 {
        let failing = round % 3;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.run(|tid| {
                if tid == failing {
                    panic!("injected failure {round}");
                }
            });
        }));
        assert!(result.is_err(), "round {round} should propagate the panic");
        // The team must stay functional after every failure.
        let ok = AtomicUsize::new(0);
        team.run(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.into_inner(), 3, "round {round}");
    }
}

#[test]
fn try_run_panic_recovery_cycles() {
    // The typed-error twin of the panic-recovery test: repeated injected
    // panics through `try_run` must come back as `TeamPanicked` every
    // time, with a healthy run in between each failure.
    let team = ThreadTeam::new(4);
    for round in 0..25 {
        let failing = round % 4;
        let err = team
            .try_run(|tid| {
                if tid == failing {
                    panic!("injected failure {round}");
                }
            })
            .unwrap_err();
        assert!(
            matches!(err, SyncError::TeamPanicked { .. }),
            "round {round}: {err:?}"
        );
        let ok = AtomicUsize::new(0);
        team.try_run(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(ok.into_inner(), 4, "round {round}");
    }
}

#[test]
fn oversubscribed_team_double_the_cores() {
    // 2× the hardware threads: members must yield rather than livelock,
    // both in the team dispatch loop and inside barrier episodes.
    let cores = std::thread::available_parallelism().map_or(4, |c| c.get());
    let n = 2 * cores;
    let team = ThreadTeam::new(n);
    let barrier = SpinBarrier::new(n);
    let counter = AtomicUsize::new(0);
    const EPISODES: usize = 50;
    let t0 = Instant::now();
    team.run(|_| {
        for e in 1..=EPISODES {
            counter.fetch_add(1, Ordering::Relaxed);
            barrier.wait();
            let seen = counter.load(Ordering::Relaxed);
            assert!(seen >= e * n && seen <= e * n + n, "episode {e}: {seen}");
            barrier.wait();
        }
    });
    assert_eq!(counter.into_inner(), n * EPISODES);
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "oversubscription must degrade, not livelock"
    );
}

#[test]
fn oversubscribed_team_survives_panics() {
    let cores = std::thread::available_parallelism().map_or(4, |c| c.get());
    let n = 2 * cores;
    let team = ThreadTeam::new(n);
    let err = team
        .try_run(|tid| {
            if tid == n - 1 {
                panic!("last member dies");
            }
        })
        .unwrap_err();
    assert!(matches!(err, SyncError::TeamPanicked { .. }));
    let ok = AtomicUsize::new(0);
    team.run(|_| {
        ok.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ok.into_inner(), n);
}

#[test]
fn watchdog_timeout_never_hangs_permanently() {
    // A member that stalls far past the deadline: the caller must get
    // `TeamStalled` at ~deadline (not at stall length), quarantine must
    // refuse further dispatch, and the team must heal once the straggler
    // drains — the "no permanent hang" guarantee end to end.
    let team = ThreadTeam::new(4);
    let release = Arc::new(AtomicBool::new(false));
    let stall = {
        let release = Arc::clone(&release);
        Arc::new(move |tid: usize| {
            if tid == 3 {
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        })
    };
    let t0 = Instant::now();
    let err = team
        .try_run_for(stall, Duration::from_millis(50))
        .unwrap_err();
    assert_eq!(err, SyncError::TeamStalled { tid: 3, phase: 1 });
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "watchdog returned at the deadline, not at stall length"
    );
    // Quarantined: fail fast, not hang.
    let t1 = Instant::now();
    assert!(team.try_run(|_| {}).is_err());
    assert!(t1.elapsed() < Duration::from_secs(5));
    // Heal and prove reuse.
    release.store(true, Ordering::Release);
    let deadline = Instant::now() + Duration::from_secs(10);
    while team.is_quarantined() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let ok = AtomicUsize::new(0);
    team.run(|_| {
        ok.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ok.into_inner(), 4);
}

#[test]
fn barrier_timeout_with_oversubscription_drains_all() {
    // Missing participant + more waiters than cores: every checked waiter
    // must drain with an error in bounded time.
    let cores = std::thread::available_parallelism().map_or(4, |c| c.get());
    let waiters = 2 * cores;
    let barrier = Arc::new(SpinBarrier::new(waiters + 1)); // one never arrives
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..waiters)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier
                        .checked_wait(Some(Duration::from_millis(100)))
                        .unwrap_err()
                })
            })
            .collect();
        for h in handles {
            let e = h.join().unwrap();
            assert!(matches!(
                e,
                SyncError::BarrierTimeout { .. } | SyncError::BarrierPoisoned
            ));
        }
    });
    assert!(t0.elapsed() < Duration::from_secs(30), "bounded drain");
}

#[test]
fn shared_slice_full_checkerboard_write() {
    // Interleaved (non-contiguous) disjoint ownership: even indices to
    // thread 0, odd to thread 1 — stresses aliasing assumptions harder
    // than block partitions.
    let n = 4096usize;
    let mut data = vec![0u32; n];
    {
        let view = SharedSlice::new(&mut data);
        let team = ThreadTeam::new(2);
        team.run(|tid| {
            for i in (tid..n).step_by(2) {
                // SAFETY: parity partition is disjoint.
                unsafe {
                    *view.slice_mut(i, 1).first_mut().unwrap() = (i * 3 + tid) as u32;
                }
            }
        });
    }
    for (i, &v) in data.iter().enumerate() {
        assert_eq!(v, (i * 3 + i % 2) as u32);
    }
}

#[test]
fn barrier_heavy_team_workload_like_the_pipeline() {
    // Shape of the 3.5-D executor: many barrier-separated phases over a
    // shared buffer, each thread writing its row band every phase.
    const T: usize = 4;
    const PHASES: usize = 300;
    let team = ThreadTeam::new(T);
    let barrier = SpinBarrier::new(T);
    let mut buf = vec![0u64; 64];
    let view = SharedSlice::new(&mut buf);
    team.run(|tid| {
        let rows = threefive_grid_rows(64, T, tid);
        for phase in 1..=PHASES {
            // SAFETY: row bands are disjoint per thread.
            let mine = unsafe { view.slice_mut(rows.0, rows.1 - rows.0) };
            for v in mine.iter_mut() {
                *v += phase as u64;
            }
            barrier.wait();
            // All rows must now be at the same phase sum.
            let expect = (phase * (phase + 1) / 2) as u64;
            // SAFETY: no writers during the read phase.
            let all = unsafe { view.slice(0, 64) };
            assert!(all.iter().all(|&v| v == expect), "phase {phase}");
            barrier.wait();
        }
    });
}

/// Minimal stand-in for the grid crate's partitioner (avoids a dev-dep
/// cycle): contiguous even split.
fn threefive_grid_rows(n: usize, parts: usize, k: usize) -> (usize, usize) {
    let base = n / parts;
    let extra = n % parts;
    let start = k * base + k.min(extra);
    (start, start + base + usize::from(k < extra))
}
