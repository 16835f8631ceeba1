//! The tuning search: analytical seeds, neighborhood, hill-climb.
//!
//! The search space is (tile, dim_T, threads, schedule) on a fixed
//! (kernel, precision, grid). Seeds come from the paper's own machinery — every
//! depth the planner can justify ([`candidate_plans`]) plus the tile the
//! cache simulator predicts cheapest — so the climb starts where Eqs.
//! 1–4 point and only *walks away* when measurements disagree. The
//! probing side is behind the [`Prober`] trait: production uses
//! [`BenchProber`] (real timed runs through `threefive-bench`), tests
//! inject synthetic landscapes to pin down the search's invariants
//! without timing noise.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use threefive_analyze::schedule::{check_schedule, ScheduleConfig, ScheduleModel};
use threefive_bench::probe::ProbeWorkload;
use threefive_bench::{measure_lbm, measure_stencil, BenchConfig, Spec};
use threefive_cachesim::trace::blocked35d_trace;
use threefive_cachesim::CacheSim;
use threefive_core::exec::{ScheduleKind, StencilExec};
use threefive_core::planner::candidate_plans;
use threefive_grid::Dim3;
use threefive_lbm::LbmExec;
use threefive_machine::Precision;
use threefive_sync::ThreadTeam;

/// One point of the search space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// Block edge (dimX = dimY).
    pub tile: usize,
    /// Temporal depth dim_T.
    pub dim_t: usize,
    /// Team size.
    pub threads: usize,
    /// Temporal-blocking schedule.
    pub schedule: ScheduleKind,
}

/// Measurement backend for the search.
pub trait Prober {
    /// Times the 3.5-D blocked variant at `c`; returns MUPS.
    fn probe_blocked(&mut self, c: &Candidate) -> Result<f64, String>;
    /// Times the scalar reference; returns MUPS.
    fn probe_scalar(&mut self) -> Result<f64, String>;
}

/// The production prober: short timed runs through the bench harness.
pub struct BenchProber {
    /// Repetition policy per probe.
    pub cfg: BenchConfig,
    /// Kernel to probe.
    pub workload: ProbeWorkload,
    /// Cubic grid edge.
    pub n: usize,
    /// Time steps per probe repetition.
    pub steps: usize,
    /// Element precision.
    pub precision: Precision,
}

impl BenchProber {
    /// Times `stencil` or `lbm` (whichever the workload names) at `c`.
    fn probe(&self, stencil: StencilExec, lbm: LbmExec, c: &Candidate) -> Result<f64, String> {
        let team = ThreadTeam::new(c.threads);
        let spec = Spec {
            precision: self.precision,
            dim: Dim3::cube(self.n),
            steps: self.steps,
            tile: c.tile,
            dim_t: c.dim_t,
            schedule: c.schedule,
            team: &team,
        };
        let measured = match self.workload {
            ProbeWorkload::Stencil => {
                measure_stencil(&self.cfg, stencil, &spec).map_err(|e| e.to_string())
            }
            ProbeWorkload::Lbm => measure_lbm(&self.cfg, lbm, &spec).map_err(|e| e.to_string()),
        };
        measured
            .map(|m| m.mups)
            .map_err(|e| format!("probe {c:?} n={} failed: {e}", self.n))
    }
}

impl Prober for BenchProber {
    fn probe_blocked(&mut self, c: &Candidate) -> Result<f64, String> {
        self.probe(StencilExec::Parallel35d, LbmExec::Blocked35d, c)
    }

    fn probe_scalar(&mut self) -> Result<f64, String> {
        let c = Candidate {
            tile: self.n,
            dim_t: 1,
            threads: 1,
            schedule: ScheduleKind::Lag35d,
        };
        self.probe(StencilExec::Reference, LbmExec::NaiveScalar, &c)
    }
}

/// Geometry and budget limits of the space being searched.
#[derive(Clone, Copy, Debug)]
pub struct SearchSpace {
    /// Cubic grid edge.
    pub n: usize,
    /// Largest team size to consider.
    pub max_threads: usize,
    /// Fast-storage budget 𝒞 (Eq. 1).
    pub cache_bytes: usize,
    /// Element footprint ℰ.
    pub elem_bytes: usize,
    /// Stencil radius R.
    pub r: usize,
    /// Pin the search to one schedule (`Some`) or let the climb explore
    /// all of them (`None`).
    pub schedule: Option<ScheduleKind>,
}

impl SearchSpace {
    /// Whether a candidate is admissible: geometrically sound (the tile
    /// has an interior, dim_T fits the streaming axis), within the Eq. 1
    /// storage budget, and race-free per the symbolic checker.
    pub fn valid(&self, c: &Candidate) -> bool {
        let tile = c.tile.min(self.n);
        if c.tile == 0 || c.dim_t == 0 || c.threads == 0 {
            return false;
        }
        if tile <= 2 * self.r || c.dim_t > self.n || c.threads > self.max_threads {
            return false;
        }
        if self.schedule.is_some_and(|pin| pin != c.schedule) {
            return false;
        }
        // Eq. 1: the working set of a (loaded tile)² × dim_T chunk must
        // fit the fast-storage budget — using the candidate schedule's
        // own ring capacity, not the lag schedule's.
        let loaded = tile + 2 * self.r * c.dim_t;
        let slots = c.schedule.schedule().ring_slots(self.r);
        let bytes = self.elem_bytes * slots * c.dim_t * loaded * loaded;
        if bytes > self.cache_bytes {
            return false;
        }
        check_schedule(
            &ScheduleConfig {
                r: self.r,
                c: c.dim_t,
                threads: c.threads,
                nz: self.n,
                ly: loaded,
            },
            &ScheduleModel::for_kind(c.schedule),
        )
        .is_empty()
    }

    /// The hill-climb neighborhood of `c`: tile halved/doubled/±8,
    /// dim_T ± 1, threads halved/doubled, every other schedule — clamped
    /// to the space and filtered through [`SearchSpace::valid`].
    pub fn neighbors(&self, c: &Candidate) -> Vec<Candidate> {
        let mut out = Vec::new();
        let mut push = |cand: Candidate| {
            if cand != *c && self.valid(&cand) && !out.contains(&cand) {
                out.push(cand);
            }
        };
        for tile in [
            c.tile / 2,
            c.tile.saturating_sub(8),
            c.tile + 8,
            c.tile * 2,
            self.n,
        ] {
            push(Candidate {
                tile: tile.min(self.n),
                ..*c
            });
        }
        for dim_t in [c.dim_t.saturating_sub(1), c.dim_t + 1] {
            push(Candidate { dim_t, ..*c });
        }
        for threads in [c.threads / 2, c.threads * 2] {
            push(Candidate { threads, ..*c });
        }
        for schedule in ScheduleKind::ALL {
            push(Candidate { schedule, ..*c });
        }
        out
    }

    /// Seed candidates: every temporal depth the analytical planner can
    /// justify for (γ, Γ) plus the tile the cache simulator predicts
    /// cheapest, plus the whole-plane (temporal-only) point. All at the
    /// full team size — the climb shrinks threads if probing says so.
    pub fn seeds(&self, gamma: f64, big_gamma: f64) -> Vec<Candidate> {
        let schedule = self.schedule.unwrap_or_default();
        let mut out: Vec<Candidate> = Vec::new();
        let mut push = |cand: Candidate| {
            if self.valid(&cand) && !out.contains(&cand) {
                out.push(cand);
            }
        };
        for plan in candidate_plans(
            gamma,
            big_gamma,
            self.cache_bytes,
            self.elem_bytes,
            self.r,
            2,
        ) {
            push(Candidate {
                tile: plan.dim_xy.min(self.n),
                dim_t: plan.dim_t,
                threads: self.max_threads,
                schedule,
            });
        }
        // Cache-simulator seed: smallest predicted DRAM bytes/point over
        // a coarse tile sweep at dim_T = 2.
        let mut best: Option<(f64, usize)> = None;
        for tile in [8usize, 16, 32, 64, 128]
            .into_iter()
            .filter(|&t| t <= self.n)
        {
            let mut cache = CacheSim::llc(self.cache_bytes);
            let tr = blocked35d_trace(
                Dim3::cube(self.n.min(32)),
                self.elem_bytes,
                2,
                tile,
                2,
                true,
                &mut cache,
            );
            let cost = tr.dram_bytes_per_point();
            if best.is_none_or(|(b, _)| cost < b) {
                best = Some((cost, tile));
            }
        }
        if let Some((_, tile)) = best {
            push(Candidate {
                tile,
                dim_t: 2,
                threads: self.max_threads,
                schedule,
            });
        }
        // Temporal-only: whole-plane tiles at the minimum useful depth.
        push(Candidate {
            tile: self.n,
            dim_t: 2,
            threads: self.max_threads,
            schedule,
        });
        out
    }
}

/// Probe/deadline budget for one tuning campaign.
#[derive(Clone, Copy, Debug)]
pub struct ProbeBudget {
    /// Hard cap on timed probes (scalar probe included).
    pub max_probes: usize,
    /// Optional wall-clock deadline for the whole search.
    pub max_duration: Option<Duration>,
}

impl Default for ProbeBudget {
    fn default() -> Self {
        Self {
            max_probes: 32,
            max_duration: Some(Duration::from_secs(60)),
        }
    }
}

/// The result of one hill-climb campaign.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The best candidate that beat the scalar reference, with its MUPS;
    /// `None` when nothing did (persist nothing, fall back to the
    /// analytical plan at run time).
    pub winner: Option<(Candidate, f64)>,
    /// The scalar reference's MUPS — the floor.
    pub scalar_mups: f64,
    /// The first analytical seed's measured MUPS, when one was probed.
    pub analytical_mups: Option<f64>,
    /// Every probed (candidate, MUPS), in probe order — losers included,
    /// for diagnostics; they are never persisted.
    pub history: Vec<(Candidate, f64)>,
    /// Timed probes spent.
    pub probes_used: usize,
}

/// Steepest-ascent hill-climb over `space` from `seeds` under `budget`.
///
/// Invariants:
/// * the best-so-far MUPS is monotonically non-decreasing over the
///   climb (asserted in debug builds);
/// * every probed candidate passed [`SearchSpace::valid`] — the race
///   checker and the Eq. 1 budget gate admission, not persistence;
/// * the returned `winner` beat the measured scalar floor, or is `None`.
///
/// Probe failures on individual candidates are tolerated (the candidate
/// is skipped); a failing scalar probe fails the whole campaign, since
/// without the floor no winner can be trusted.
pub fn hill_climb(
    space: &SearchSpace,
    seeds: &[Candidate],
    prober: &mut dyn Prober,
    budget: &ProbeBudget,
) -> Result<TuneOutcome, String> {
    let t0 = Instant::now();
    let scalar_mups = prober.probe_scalar()?;
    let mut probes_used = 1usize;
    let mut history: Vec<(Candidate, f64)> = Vec::new();
    let mut visited: HashSet<Candidate> = HashSet::new();
    let mut best: Option<(Candidate, f64)> = None;
    let mut analytical_mups = None;

    let out_of_budget = |probes_used: usize| {
        probes_used >= budget.max_probes || budget.max_duration.is_some_and(|d| t0.elapsed() >= d)
    };

    let mut frontier: Vec<Candidate> = seeds.iter().copied().filter(|c| space.valid(c)).collect();
    while !frontier.is_empty() {
        let mut improved = false;
        for c in std::mem::take(&mut frontier) {
            if !visited.insert(c) {
                continue;
            }
            if out_of_budget(probes_used) {
                break;
            }
            let Ok(mups) = prober.probe_blocked(&c) else {
                continue; // an unmeasurable candidate is just skipped
            };
            probes_used += 1;
            history.push((c, mups));
            if analytical_mups.is_none() {
                // The first seed probed is the analytical plan's point.
                analytical_mups = Some(mups);
            }
            if best.is_none_or(|(_, b)| mups > b) {
                if let Some((_, b)) = best {
                    debug_assert!(mups > b, "monotonic best-so-far");
                }
                best = Some((c, mups));
                improved = true;
            }
        }
        if !improved || out_of_budget(probes_used) {
            break;
        }
        // Steepest ascent: expand only around the current best.
        let (champion, _) = best.expect("improved implies a best");
        frontier = space
            .neighbors(&champion)
            .into_iter()
            .filter(|c| !visited.contains(c))
            .collect();
    }

    Ok(TuneOutcome {
        winner: best.filter(|&(_, mups)| mups >= scalar_mups),
        scalar_mups,
        analytical_mups,
        history,
        probes_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        SearchSpace {
            n: 64,
            max_threads: 4,
            cache_bytes: 4 << 20,
            elem_bytes: 4,
            r: 1,
            schedule: None,
        }
    }

    fn cand(tile: usize, dim_t: usize, threads: usize) -> Candidate {
        Candidate {
            tile,
            dim_t,
            threads,
            schedule: ScheduleKind::Lag35d,
        }
    }

    /// A deterministic synthetic landscape: MUPS is a function of the
    /// candidate, peaking at (tile 16, dim_t 3, threads 4).
    struct FakeProber {
        scalar: f64,
        probes: usize,
        fail_on: Option<Candidate>,
    }

    impl Prober for FakeProber {
        fn probe_blocked(&mut self, c: &Candidate) -> Result<f64, String> {
            self.probes += 1;
            if self.fail_on == Some(*c) {
                return Err("synthetic probe failure".into());
            }
            let tile_term = -((c.tile as f64 - 16.0).abs());
            let t_term = -10.0 * (c.dim_t as f64 - 3.0).abs();
            let thr_term = 5.0 * c.threads as f64;
            Ok(200.0 + tile_term + t_term + thr_term)
        }

        fn probe_scalar(&mut self) -> Result<f64, String> {
            self.probes += 1;
            Ok(self.scalar)
        }
    }

    #[test]
    fn climbs_to_the_synthetic_peak() {
        let space = space();
        let seeds = space.seeds(0.5, 0.29);
        assert!(!seeds.is_empty());
        let mut p = FakeProber {
            scalar: 50.0,
            probes: 0,
            fail_on: None,
        };
        let out = hill_climb(
            &space,
            &seeds,
            &mut p,
            &ProbeBudget {
                max_probes: 200,
                max_duration: None,
            },
        )
        .unwrap();
        let (w, mups) = out.winner.expect("peak beats scalar");
        assert_eq!(w.dim_t, 3, "{w:?}");
        assert_eq!(w.threads, 4, "{w:?}");
        assert!((8..=24).contains(&w.tile), "{w:?}");
        assert!(mups > 200.0);
        // Monotonic best-so-far over history.
        let mut best = f64::MIN;
        for &(_, m) in &out.history {
            if m > best {
                best = m;
            }
        }
        assert_eq!(best, mups);
    }

    #[test]
    fn losing_searches_return_no_winner_but_full_history() {
        let space = space();
        // Scalar floor far above anything the landscape can produce.
        let mut p = FakeProber {
            scalar: 1e9,
            probes: 0,
            fail_on: None,
        };
        let out = hill_climb(
            &space,
            &space.seeds(0.5, 0.29),
            &mut p,
            &ProbeBudget::default(),
        )
        .unwrap();
        assert!(out.winner.is_none(), "{:?}", out.winner);
        assert!(!out.history.is_empty(), "losers are recorded in history");
        assert_eq!(out.scalar_mups, 1e9);
    }

    #[test]
    fn probe_budget_is_respected() {
        let space = space();
        let mut p = FakeProber {
            scalar: 50.0,
            probes: 0,
            fail_on: None,
        };
        let out = hill_climb(
            &space,
            &space.seeds(0.5, 0.29),
            &mut p,
            &ProbeBudget {
                max_probes: 3,
                max_duration: None,
            },
        )
        .unwrap();
        assert!(out.probes_used <= 3, "{}", out.probes_used);
        assert!(p.probes <= 3, "{}", p.probes);
    }

    #[test]
    fn failing_candidates_are_skipped_not_fatal() {
        let space = space();
        let seeds = space.seeds(0.5, 0.29);
        let mut p = FakeProber {
            scalar: 50.0,
            probes: 0,
            fail_on: Some(seeds[0]),
        };
        let out = hill_climb(&space, &seeds, &mut p, &ProbeBudget::default()).unwrap();
        assert!(out.winner.is_some());
        assert!(out.history.iter().all(|&(c, _)| c != seeds[0]));
    }

    /// The production prober times real sweeps through the bench
    /// harness: every schedule of both kernels and the scalar floor
    /// measure, and an invalid candidate is an error, not a panic.
    #[test]
    fn bench_prober_measures_every_schedule_and_the_floor() {
        for workload in [ProbeWorkload::Stencil, ProbeWorkload::Lbm] {
            let mut p = BenchProber {
                cfg: BenchConfig::quick(),
                workload,
                n: 12,
                steps: 2,
                precision: Precision::Sp,
            };
            for schedule in ScheduleKind::ALL {
                let c = Candidate {
                    schedule,
                    ..cand(8, 2, 1)
                };
                let mups = p.probe_blocked(&c).unwrap();
                assert!(mups > 0.0, "{workload:?} {schedule}");
            }
            assert!(p.probe_scalar().unwrap() > 0.0, "{workload:?}");
            assert!(p.probe_blocked(&cand(8, 0, 1)).is_err(), "{workload:?}");
        }
    }

    #[test]
    fn space_rejects_degenerate_and_overbudget_candidates() {
        let s = space();
        assert!(!s.valid(&cand(0, 2, 1)));
        assert!(!s.valid(&cand(2, 2, 1)));
        assert!(!s.valid(&cand(16, 0, 1)));
        assert!(!s.valid(&cand(16, 2, 0)));
        assert!(!s.valid(&cand(16, 2, 8)));
        assert!(s.valid(&cand(16, 2, 4)));
        // A tiny budget rejects big tiles via Eq. 1.
        let tiny = SearchSpace {
            cache_bytes: 8 << 10,
            ..s
        };
        assert!(!tiny.valid(&cand(64, 2, 1)));
    }

    #[test]
    fn every_schedule_is_admissible_and_a_pin_excludes_the_others() {
        let s = space();
        for schedule in ScheduleKind::ALL {
            assert!(s.valid(&Candidate {
                schedule,
                ..cand(16, 2, 4)
            }));
        }
        let pinned = SearchSpace {
            schedule: Some(ScheduleKind::Wavefront),
            ..s
        };
        assert!(!pinned.valid(&cand(16, 2, 4)), "lag35d rejected by pin");
        assert!(pinned.valid(&Candidate {
            schedule: ScheduleKind::Wavefront,
            ..cand(16, 2, 4)
        }));
        // Pinned seeds carry the pinned schedule.
        for c in pinned.seeds(0.5, 0.29) {
            assert_eq!(c.schedule, ScheduleKind::Wavefront, "{c:?}");
        }
    }

    #[test]
    fn neighbors_are_valid_and_exclude_self() {
        let s = space();
        let c = cand(16, 2, 2);
        let ns = s.neighbors(&c);
        assert!(!ns.is_empty());
        for n in &ns {
            assert_ne!(n, &c);
            assert!(s.valid(n), "{n:?}");
        }
        // Unpinned, the neighborhood reaches the other two schedules.
        for schedule in [ScheduleKind::Wavefront, ScheduleKind::Diamond] {
            assert!(
                ns.iter().any(|n| n.schedule == schedule),
                "missing {schedule} neighbor in {ns:?}"
            );
        }
        // Pinned, it reaches none of them.
        let pinned = SearchSpace {
            schedule: Some(ScheduleKind::Lag35d),
            ..s
        };
        assert!(pinned
            .neighbors(&c)
            .iter()
            .all(|n| n.schedule == ScheduleKind::Lag35d));
    }

    #[test]
    fn seeds_include_the_analytical_plan() {
        let s = space();
        // 7-point SP on the paper machine: planner picks dim_t = 2 and a
        // 360-edge tile, clamped to the 64-edge grid.
        let seeds = s.seeds(0.5, 0.29);
        assert!(
            seeds.iter().any(|c| c.dim_t == 2 && c.tile == s.n),
            "{seeds:?}"
        );
        for c in &seeds {
            assert!(s.valid(c), "{c:?}");
        }
    }
}
