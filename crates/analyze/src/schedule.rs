//! The symbolic race checker for the engine's temporal-blocking
//! schedules — lag, wavefront and wavefront-diamond.
//!
//! A small abstract interpreter over a schedule's plane arithmetic: for
//! each outer step it computes every thread's read-set and write-set of
//! `(ring, slot, plane, row-strip)` between consecutive barriers —
//! using the *same* pure schedule arithmetic the runtime executes (the
//! [`threefive_core::exec::Schedule`] statics' `level_lag` /
//! `ring_slots` / span, taken as function pointers via
//! [`ScheduleModel::for_kind`] so the model cannot drift from the
//! implementation) — and verifies, per schedule:
//!
//! 1. **no intra-interval overlap** — no W/R or W/W overlap between two
//!    threads on the same ring slot within one barrier interval;
//! 2. **freshness** — every cross-time-level read finds the plane that
//!    was written exactly one level lag earlier, not a stale or
//!    recycled slot;
//! 3. **no premature reuse** — a ring slot is only overwritten after its
//!    last scheduled reader has run.
//!
//! On violation it emits a counterexample trace naming the schedule
//! under test plus the step, ring, slot and the offending
//! `(thread, level, plane, rows)` pair. The model is deliberately
//! conservative about rows (a writer's strip is its whole owned band, a
//! reader's strip is the band expanded by ±R), so a "race-free" verdict
//! is a proof over the model, not a sampling claim; see DESIGN.md §11
//! for what the model does and does not cover.

use threefive_bench::json::Json;
use threefive_core::exec::schedule::{DIAMOND, WAVEFRONT};
use threefive_core::exec::{level_lag, ring_slots, Schedule, ScheduleKind};
use threefive_grid::partition::even_range;

/// Cap on recorded counterexamples per config (one is enough to fail the
/// build; a handful aids debugging; thousands help nobody).
const MAX_PER_CONFIG: usize = 4;
/// Cap on counterexamples across a whole grid sweep.
const MAX_TOTAL: usize = 64;

/// Plane-lag arithmetic `(r, t) → lag`, the shape of `level_lag`.
pub type LagFn = fn(usize, usize) -> usize;

/// Ring-capacity arithmetic `r → slots`, the shape of `ring_slots`.
pub type SlotsFn = fn(usize) -> usize;

/// The schedule arithmetic under test, as function pointers so mutant
/// models (lag off by one, undersized ring, merged barrier intervals)
/// can be built in tests while the defaults bind the engine's own
/// schedule statics.
#[derive(Clone, Copy)]
pub struct ScheduleModel {
    /// Name of the schedule under test, stamped into counterexamples.
    pub name: &'static str,
    /// Plane lag of time level `t` (1-based): the schedule's `level_lag`.
    pub lag: LagFn,
    /// Ring capacity in planes for radius `r`: the schedule's
    /// `ring_slots`.
    pub slots: SlotsFn,
    /// Planes each level advances per outer step (the schedule's span;
    /// level `t` processes plane `z` at step `⌊(z + lag(t)) / span⌋`).
    pub span: usize,
    /// Outer steps between consecutive barriers (the engine runs exactly
    /// one; `> 1` models a missing barrier).
    pub steps_per_barrier: usize,
}

impl ScheduleModel {
    /// The shipped engine's default (3.5-D lag) schedule, bound to the
    /// very functions `tile_stream` executes.
    pub fn engine() -> Self {
        Self::for_kind(ScheduleKind::Lag35d)
    }

    /// The model for one shipped schedule, bound to that schedule's own
    /// arithmetic (the `Schedule` statics in `threefive-core`), so the
    /// proof is over exactly what the engine runs.
    pub fn for_kind(kind: ScheduleKind) -> Self {
        let (lag, slots): (LagFn, SlotsFn) = match kind {
            ScheduleKind::Lag35d => (level_lag, ring_slots),
            ScheduleKind::Wavefront => (
                |r, t| WAVEFRONT.level_lag(r, t),
                |r| WAVEFRONT.ring_slots(r),
            ),
            ScheduleKind::Diamond => (|r, t| DIAMOND.level_lag(r, t), |r| DIAMOND.ring_slots(r)),
        };
        Self {
            name: kind.as_str(),
            lag,
            slots,
            span: kind.schedule().span(),
            steps_per_barrier: 1,
        }
    }

    /// Models for every shipped schedule, in canonical order.
    pub fn all() -> [Self; 3] {
        ScheduleKind::ALL.map(Self::for_kind)
    }
}

/// One point of the checked parameter grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// Stencil radius `R`.
    pub r: usize,
    /// Temporal blocking factor `dim_T` (levels per chunk).
    pub c: usize,
    /// Team size.
    pub threads: usize,
    /// Planes along the streaming axis.
    pub nz: usize,
    /// Loaded tile rows (the partitioned axis).
    pub ly: usize,
}

/// What went wrong, mirroring the three checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two threads touch the same ring slot with overlapping rows inside
    /// one barrier interval, at least one writing.
    IntraStepOverlap,
    /// A read found the wrong plane in its slot (never written, not yet
    /// written, or already recycled).
    StaleRead,
    /// A slot was overwritten no later than its last scheduled reader.
    PrematureReuse,
}

impl ViolationKind {
    fn as_str(self) -> &'static str {
        match self {
            ViolationKind::IntraStepOverlap => "intra-step-overlap",
            ViolationKind::StaleRead => "stale-read",
            ViolationKind::PrematureReuse => "premature-reuse",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "intra-step-overlap" => ViolationKind::IntraStepOverlap,
            "stale-read" => ViolationKind::StaleRead,
            "premature-reuse" => ViolationKind::PrematureReuse,
            _ => return None,
        })
    }
}

/// One side of a counterexample: who touched what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessDesc {
    /// Team member index.
    pub tid: usize,
    /// Time level `t` (1-based).
    pub level: usize,
    /// Global Z plane index the access targets.
    pub plane: usize,
    /// Row strip `[lo, hi)` of the partitioned axis.
    pub rows: (usize, usize),
    /// `true` for a write, `false` for a read.
    pub write: bool,
}

/// A concrete counterexample trace from the checker.
#[derive(Clone, Debug, PartialEq)]
pub struct RaceViolation {
    /// Name of the schedule under test when the check failed.
    pub schedule: String,
    /// Which check failed.
    pub kind: ViolationKind,
    /// The grid point it failed at.
    pub config: ScheduleConfig,
    /// Outer step of the offending access.
    pub step: usize,
    /// Ring index (level `t` writes ring `t-1`).
    pub ring: usize,
    /// Slot within the ring (`plane % slots`).
    pub slot: usize,
    /// The offending access.
    pub a: AccessDesc,
    /// Its conflict partner, when the violation is a pair.
    pub b: Option<AccessDesc>,
    /// Human-readable explanation.
    pub detail: String,
}

impl RaceViolation {
    pub(crate) fn to_json(&self) -> Json {
        let access = |a: &AccessDesc| {
            Json::Obj(vec![
                ("tid".into(), Json::Num(a.tid as f64)),
                ("level".into(), Json::Num(a.level as f64)),
                ("plane".into(), Json::Num(a.plane as f64)),
                (
                    "rows".into(),
                    Json::Arr(vec![Json::Num(a.rows.0 as f64), Json::Num(a.rows.1 as f64)]),
                ),
                ("write".into(), Json::Bool(a.write)),
            ])
        };
        Json::Obj(vec![
            ("schedule".into(), Json::str(&*self.schedule)),
            ("kind".into(), Json::str(self.kind.as_str())),
            (
                "config".into(),
                Json::Obj(vec![
                    ("r".into(), Json::Num(self.config.r as f64)),
                    ("c".into(), Json::Num(self.config.c as f64)),
                    ("threads".into(), Json::Num(self.config.threads as f64)),
                    ("nz".into(), Json::Num(self.config.nz as f64)),
                    ("ly".into(), Json::Num(self.config.ly as f64)),
                ]),
            ),
            ("step".into(), Json::Num(self.step as f64)),
            ("ring".into(), Json::Num(self.ring as f64)),
            ("slot".into(), Json::Num(self.slot as f64)),
            ("a".into(), access(&self.a)),
            (
                "b".into(),
                match &self.b {
                    Some(b) => access(b),
                    None => Json::Null,
                },
            ),
            ("detail".into(), Json::str(&*self.detail)),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<Self, String> {
        fn num(v: &Json, key: &str) -> Result<usize, String> {
            v.req_u64(key).map(|n| n as usize)
        }
        fn access(v: &Json) -> Result<AccessDesc, String> {
            let (lo, hi) = match v.req_arr("rows")? {
                [lo, hi] => lo.as_u64().zip(hi.as_u64()),
                _ => None,
            }
            .ok_or("field 'rows' must be a pair of integers")?;
            Ok(AccessDesc {
                tid: num(v, "tid")?,
                level: num(v, "level")?,
                plane: num(v, "plane")?,
                rows: (lo as usize, hi as usize),
                write: v.req_bool("write")?,
            })
        }
        let kind_s = v.req_str("kind")?;
        let kind = ViolationKind::from_str(&kind_s)
            .ok_or_else(|| format!("unknown violation kind '{kind_s}'"))?;
        let cfg = v.req("config")?;
        let b = match v.get("b") {
            Some(Json::Null) | None => None,
            Some(other) => Some(access(other)?),
        };
        Ok(Self {
            schedule: v.req_str("schedule")?,
            kind,
            config: ScheduleConfig {
                r: num(cfg, "r")?,
                c: num(cfg, "c")?,
                threads: num(cfg, "threads")?,
                nz: num(cfg, "nz")?,
                ly: num(cfg, "ly")?,
            },
            step: num(v, "step")?,
            ring: num(v, "ring")?,
            slot: num(v, "slot")?,
            a: access(v.req("a")?)?,
            b,
            detail: v.req_str("detail")?,
        })
    }
}

/// Aggregate verdict of a grid sweep.
#[derive(Clone, Debug)]
pub struct ScheduleVerdict {
    /// How many grid points were interpreted.
    pub configs_checked: usize,
    /// All counterexamples found (empty ⇔ race-free), capped at
    /// `MAX_TOTAL`.
    pub violations: Vec<RaceViolation>,
}

impl ScheduleVerdict {
    /// `true` iff no check failed anywhere on the grid.
    pub fn race_free(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The full parameter grid the CI gate certifies: R ∈ {1,2,3}, dim_T ∈
/// 1..=4, team sizes 1..=8, plane counts down to the minimum interior
/// and row counts that do not divide evenly among the teams.
pub fn default_grid() -> Vec<ScheduleConfig> {
    let mut grid = Vec::new();
    for r in [1usize, 2, 3] {
        let mut nzs = vec![2 * r + 1, 2 * r + 2, 8, 13];
        nzs.dedup();
        for c in 1..=4usize {
            for threads in 1..=8usize {
                for &nz in &nzs {
                    for ly in [1usize, 7, 13] {
                        grid.push(ScheduleConfig {
                            r,
                            c,
                            threads,
                            nz,
                            ly,
                        });
                    }
                }
            }
        }
    }
    grid
}

/// Interprets every grid point under `model`.
pub fn check_grid(model: &ScheduleModel, grid: &[ScheduleConfig]) -> ScheduleVerdict {
    let mut violations = Vec::new();
    for cfg in grid {
        if violations.len() >= MAX_TOTAL {
            break;
        }
        violations.extend(check_schedule(cfg, model));
        violations.truncate(MAX_TOTAL);
    }
    ScheduleVerdict {
        configs_checked: grid.len(),
        violations,
    }
}

/// One modeled access of a barrier interval.
#[derive(Clone, Copy)]
struct Access {
    step: usize,
    tid: usize,
    level: usize,
    ring: usize,
    slot: usize,
    plane: usize,
    rows: (usize, usize),
    write: bool,
}

impl Access {
    fn desc(&self) -> AccessDesc {
        AccessDesc {
            tid: self.tid,
            level: self.level,
            plane: self.plane,
            rows: self.rows,
            write: self.write,
        }
    }
}

/// Interprets one grid point: walks every barrier interval, collects the
/// per-thread access sets from the schedule arithmetic, and runs the
/// three checks. Returns at most `MAX_PER_CONFIG` counterexamples.
pub fn check_schedule(cfg: &ScheduleConfig, model: &ScheduleModel) -> Vec<RaceViolation> {
    let &ScheduleConfig {
        r,
        c,
        threads,
        nz,
        ly,
    } = cfg;
    assert!(r >= 1 && c >= 1 && threads >= 1 && nz >= 1 && ly >= 1);
    let span = model.span.max(1);
    let total_steps = (nz + (model.lag)(r, c)).div_ceil(span);
    let slots = (model.slots)(r);
    let n_rings = c - 1;
    let bands: Vec<(usize, usize)> = (0..threads)
        .map(|tid| {
            let rng = even_range(ly, threads, tid);
            (rng.start, rng.end)
        })
        .collect();

    let mut violations = Vec::new();
    // Per (ring, slot): which plane it holds and the step that wrote it.
    let mut ring_state: Vec<Vec<Option<(usize, usize)>>> = vec![vec![None; slots]; n_rings];
    let mut accesses: Vec<Access> = Vec::new();

    let mut interval_start = 0;
    while interval_start < total_steps && violations.len() < MAX_PER_CONFIG {
        let interval_end = (interval_start + model.steps_per_barrier.max(1)).min(total_steps);
        accesses.clear();

        // Collect the interval's access sets straight from the schedule.
        for s in interval_start..interval_end {
            for (tid, &(b_lo, b_hi)) in bands.iter().enumerate() {
                if b_lo == b_hi {
                    continue;
                }
                for t in 1..=c {
                    // The schedule's plane window for (step, level):
                    // span planes starting at span·s − lag, clipped to
                    // the grid — the same arithmetic `planes_for_level`
                    // derives from `level_lag` and `span`.
                    let lag = (model.lag)(r, t);
                    let pos = span * s;
                    let z_hi = (pos + span).saturating_sub(lag).min(nz);
                    let z_lo = pos.saturating_sub(lag).min(z_hi);
                    for z in z_lo..z_hi {
                        let interior = z >= r && z + r < nz;
                        if t < c {
                            // Level t writes ring t-1: the stencil result
                            // for interior z, the copied source rim
                            // otherwise — either way the thread's whole
                            // owned band.
                            accesses.push(Access {
                                step: s,
                                tid,
                                level: t,
                                ring: t - 1,
                                slot: z % slots,
                                plane: z,
                                rows: (b_lo, b_hi),
                                write: true,
                            });
                        }
                        if t >= 2 && interior {
                            // Level t reads ring t-2, planes z±R, rows
                            // expanded by the stencil halo.
                            let lo = b_lo.saturating_sub(r);
                            let hi = (b_hi + r).min(ly);
                            for zz in z - r..=z + r {
                                accesses.push(Access {
                                    step: s,
                                    tid,
                                    level: t,
                                    ring: t - 2,
                                    slot: zz % slots,
                                    plane: zz,
                                    rows: (lo, hi),
                                    write: false,
                                });
                            }
                        }
                        // Level c commits to the destination grid:
                        // threads write disjoint owned bands of a buffer
                        // nothing reads during the chunk, so it cannot
                        // conflict and is not modeled.
                    }
                }
            }
        }

        // Check 1 — cross-thread overlap on a ring slot, grouped by
        // (ring, slot) to keep the pairwise work local.
        accesses.sort_by_key(|a| (a.ring, a.slot, a.step, a.tid));
        let mut g = 0;
        while g < accesses.len() && violations.len() < MAX_PER_CONFIG {
            let mut h = g + 1;
            while h < accesses.len()
                && accesses[h].ring == accesses[g].ring
                && accesses[h].slot == accesses[g].slot
            {
                h += 1;
            }
            'pairs: for x in g..h {
                for y in x + 1..h {
                    let (a, b) = (&accesses[x], &accesses[y]);
                    if a.tid == b.tid || !(a.write || b.write) {
                        continue;
                    }
                    if a.rows.0 < b.rows.1 && b.rows.0 < a.rows.1 {
                        violations.push(RaceViolation {
                            schedule: model.name.to_string(),
                            kind: ViolationKind::IntraStepOverlap,
                            config: *cfg,
                            step: a.step.max(b.step),
                            ring: a.ring,
                            slot: a.slot,
                            a: a.desc(),
                            b: Some(b.desc()),
                            detail: format!(
                                "schedule {}: threads {} and {} overlap on ring {} slot {} (planes {} / {}) with no barrier between steps {} and {}",
                                model.name, a.tid, b.tid, a.ring, a.slot, a.plane, b.plane, a.step, b.step
                            ),
                        });
                        if violations.len() >= MAX_PER_CONFIG {
                            break 'pairs;
                        }
                    }
                }
            }
            g = h;
        }

        // Check 2 — freshness: every read must find exactly the plane
        // one level lag behind, written in an earlier interval.
        for a in accesses.iter().filter(|a| !a.write) {
            if violations.len() >= MAX_PER_CONFIG {
                break;
            }
            let expect_step = (a.plane + (model.lag)(r, a.level - 1)) / span;
            let stale = match ring_state[a.ring][a.slot] {
                None => Some("slot never written".to_string()),
                Some((plane, step)) if plane != a.plane => Some(format!(
                    "slot holds plane {plane} (written at step {step}), reader needs plane {} written at step {expect_step}",
                    a.plane
                )),
                Some(_) => None,
            };
            if let Some(why) = stale {
                violations.push(RaceViolation {
                    schedule: model.name.to_string(),
                    kind: ViolationKind::StaleRead,
                    config: *cfg,
                    step: a.step,
                    ring: a.ring,
                    slot: a.slot,
                    a: a.desc(),
                    b: None,
                    detail: why,
                });
            }
        }

        // Check 3 + state update — apply the interval's writes in step
        // order; an overwrite whose old plane still has a scheduled
        // reader at or after this step is a premature reuse.
        for a in accesses.iter().filter(|a| a.write) {
            if let Some((old_plane, old_step)) = ring_state[a.ring][a.slot] {
                if old_plane != a.plane && violations.len() < MAX_PER_CONFIG {
                    if let Some(last) = last_read_step(cfg, model, a.ring, old_plane) {
                        if last >= a.step {
                            violations.push(RaceViolation {
                                schedule: model.name.to_string(),
                                kind: ViolationKind::PrematureReuse,
                                config: *cfg,
                                step: a.step,
                                ring: a.ring,
                                slot: a.slot,
                                a: a.desc(),
                                b: None,
                                detail: format!(
                                    "overwrites plane {old_plane} (written at step {old_step}) whose last scheduled reader runs at step {last} >= {}",
                                    a.step
                                ),
                            });
                        }
                    }
                }
            }
            ring_state[a.ring][a.slot] = Some((a.plane, a.step));
        }

        interval_start = interval_end;
    }
    violations
}

/// The last outer step at which any thread's schedule reads `plane` from
/// ring `ring`, or `None` if that ring is never read (ring `j` feeds
/// level `j+2`) or the plane is outside every reader's halo.
fn last_read_step(
    cfg: &ScheduleConfig,
    model: &ScheduleModel,
    ring: usize,
    plane: usize,
) -> Option<usize> {
    let t_reader = ring + 2;
    if t_reader > cfg.c || cfg.nz < 2 * cfg.r + 1 {
        return None;
    }
    // Level t reads planes [z-R, z+R] at interior z: plane is read while
    // z ∈ [plane-R, plane+R] ∩ [R, nz-R).
    let z_hi = (plane + cfg.r).min(cfg.nz - cfg.r - 1);
    let z_lo = plane.saturating_sub(cfg.r).max(cfg.r);
    if z_lo > z_hi {
        return None;
    }
    Some((z_hi + (model.lag)(cfg.r, t_reader)) / model.span.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use threefive_core::exec::outer_steps;

    fn cfg(r: usize, c: usize, threads: usize, nz: usize, ly: usize) -> ScheduleConfig {
        ScheduleConfig {
            r,
            c,
            threads,
            nz,
            ly,
        }
    }

    #[test]
    fn every_schedule_is_race_free_over_the_full_grid() {
        for model in ScheduleModel::all() {
            let verdict = check_grid(&model, &default_grid());
            assert!(verdict.configs_checked > 1000, "grid unexpectedly small");
            assert!(
                verdict.race_free(),
                "{} schedule flagged: {:?}",
                model.name,
                verdict.violations.first()
            );
        }
    }

    #[test]
    fn model_binds_the_engines_own_arithmetic() {
        // The default model must use the very functions tile_stream
        // runs, so the checked schedule cannot drift from the shipped
        // one.
        let m = ScheduleModel::engine();
        for r in 1..=3 {
            assert_eq!((m.slots)(r), threefive_core::exec::ring_slots(r));
            for t in 1..=4 {
                assert_eq!((m.lag)(r, t), threefive_core::exec::level_lag(r, t));
            }
            assert_eq!(10 + (m.lag)(r, 4), outer_steps(10, r, 4));
        }
        assert_eq!(m.steps_per_barrier, 1);
    }

    #[test]
    fn models_bind_each_schedules_own_arithmetic() {
        // Every model must use the very trait methods the engine
        // dispatches to, so no checked schedule can drift from the
        // shipped one.
        for kind in ScheduleKind::ALL {
            let m = ScheduleModel::for_kind(kind);
            let s = kind.schedule();
            assert_eq!(m.name, kind.as_str());
            assert_eq!(m.span, s.span());
            for r in 1..=3 {
                assert_eq!((m.slots)(r), s.ring_slots(r));
                for t in 1..=4 {
                    assert_eq!((m.lag)(r, t), s.level_lag(r, t));
                }
                assert_eq!(
                    (10 + (m.lag)(r, 4)).div_ceil(m.span),
                    s.outer_steps(10, r, 4)
                );
            }
            assert_eq!(m.steps_per_barrier, 1);
        }
    }

    /// Lag off by one: level `t` lags `2R(t-1) - 1` planes instead of
    /// `2R(t-1)` — the reader's halo now touches the plane its upstream
    /// level writes in the same step.
    fn lag_off_by_one(r: usize, t: usize) -> usize {
        level_lag(r, t).saturating_sub(1)
    }

    #[test]
    fn lag_off_by_one_yields_cross_thread_counterexample() {
        let model = ScheduleModel {
            lag: lag_off_by_one,
            ..ScheduleModel::engine()
        };
        let vs = check_schedule(&cfg(1, 2, 2, 8, 8), &model);
        assert!(
            vs.iter().any(|v| v.kind == ViolationKind::IntraStepOverlap),
            "expected a write/read overlap, got {vs:?}"
        );
        let v = vs
            .iter()
            .find(|v| v.kind == ViolationKind::IntraStepOverlap)
            .unwrap();
        let b = v.b.expect("overlap carries both accesses");
        assert_ne!(v.a.tid, b.tid);
        assert_eq!(v.a.plane, b.plane, "halo touches the freshly written plane");
    }

    #[test]
    fn lag_off_by_one_is_stale_even_single_threaded() {
        let model = ScheduleModel {
            lag: lag_off_by_one,
            ..ScheduleModel::engine()
        };
        let vs = check_schedule(&cfg(1, 2, 1, 8, 4), &model);
        assert!(
            vs.iter().any(|v| v.kind == ViolationKind::StaleRead),
            "reader needs a plane written in the same step: {vs:?}"
        );
    }

    /// Ring sized `3R` instead of `max(2R+2, 3R+1)`: the write head at
    /// `z+2R` lands on the slot the halo still reads.
    #[test]
    fn undersized_ring_is_premature_reuse() {
        let model = ScheduleModel {
            slots: |r| 3 * r,
            ..ScheduleModel::engine()
        };
        for r in [1, 2, 3] {
            let vs = check_schedule(&cfg(r, 3, 2, 13, 8), &model);
            assert!(
                vs.iter().any(|v| v.kind == ViolationKind::PrematureReuse),
                "r={r}: expected premature slot reuse, got {vs:?}"
            );
        }
    }

    #[test]
    fn severely_undersized_ring_also_reads_stale() {
        let model = ScheduleModel {
            slots: |r| 2 * r + 1,
            ..ScheduleModel::engine()
        };
        let vs = check_schedule(&cfg(1, 2, 1, 10, 4), &model);
        assert!(
            vs.iter()
                .any(|v| v.kind == ViolationKind::StaleRead
                    || v.kind == ViolationKind::PrematureReuse),
            "2R+1 slots cannot hold halo plus write head: {vs:?}"
        );
    }

    /// Two outer steps between barriers: the producer's step-`s+1` write
    /// races the consumer's step-`s+1` read of the step-`s` plane.
    #[test]
    fn missing_barrier_is_flagged() {
        let model = ScheduleModel {
            steps_per_barrier: 2,
            ..ScheduleModel::engine()
        };
        let vs = check_schedule(&cfg(1, 2, 2, 8, 8), &model);
        assert!(!vs.is_empty(), "merged barrier intervals must be flagged");
        assert!(vs.iter().any(
            |v| v.kind == ViolationKind::StaleRead || v.kind == ViolationKind::IntraStepOverlap
        ));
    }

    /// Lag off by one breaks every schedule at R=1, where each lag
    /// formula is tight: the reader's halo touches the plane its
    /// upstream level writes in the same step.
    #[test]
    fn lag_off_by_one_is_flagged_for_every_schedule() {
        let cases: [(ScheduleKind, LagFn); 3] = [
            (ScheduleKind::Lag35d, |r, t| {
                level_lag(r, t).saturating_sub(1)
            }),
            (ScheduleKind::Wavefront, |r, t| {
                WAVEFRONT.level_lag(r, t).saturating_sub(1)
            }),
            (ScheduleKind::Diamond, |r, t| {
                DIAMOND.level_lag(r, t).saturating_sub(1)
            }),
        ];
        for (kind, mlag) in cases {
            let model = ScheduleModel {
                lag: mlag,
                ..ScheduleModel::for_kind(kind)
            };
            let vs = check_schedule(&cfg(1, 2, 2, 12, 8), &model);
            assert!(!vs.is_empty(), "{kind}: lag-1 mutant must be flagged");
            assert!(
                vs.iter().all(|v| v.schedule == kind.as_str()),
                "{kind}: counterexamples must name the schedule under test: {vs:?}"
            );
        }
    }

    /// One ring slot too few breaks every schedule: the write head
    /// recycles the slot its last scheduled reader still needs.
    #[test]
    fn shrunk_ring_is_flagged_for_every_schedule() {
        let cases: [(ScheduleKind, SlotsFn); 3] = [
            (ScheduleKind::Lag35d, |r| ring_slots(r) - 1),
            (ScheduleKind::Wavefront, |r| WAVEFRONT.ring_slots(r) - 1),
            (ScheduleKind::Diamond, |r| DIAMOND.ring_slots(r) - 1),
        ];
        for (kind, mslots) in cases {
            let model = ScheduleModel {
                slots: mslots,
                ..ScheduleModel::for_kind(kind)
            };
            let vs = check_schedule(&cfg(1, 2, 2, 13, 8), &model);
            assert!(
                vs.iter().any(|v| v.kind == ViolationKind::PrematureReuse
                    || v.kind == ViolationKind::StaleRead),
                "{kind}: undersized ring must be flagged, got {vs:?}"
            );
            assert!(vs.iter().all(|v| v.schedule == kind.as_str()));
        }
    }

    /// Merged barrier intervals break every schedule: the producer's
    /// next-step write races the consumer's read of the previous plane.
    #[test]
    fn missing_barrier_is_flagged_for_every_schedule() {
        for kind in ScheduleKind::ALL {
            let model = ScheduleModel {
                steps_per_barrier: 2,
                ..ScheduleModel::for_kind(kind)
            };
            // nz large enough that even the span-4 diamond schedule runs
            // several outer steps, so at least two get merged.
            let vs = check_schedule(&cfg(1, 2, 2, 12, 8), &model);
            assert!(!vs.is_empty(), "{kind}: merged barriers must be flagged");
            assert!(vs.iter().all(|v| v.schedule == kind.as_str()));
        }
    }

    #[test]
    fn counterexample_json_round_trips() {
        let model = ScheduleModel {
            lag: lag_off_by_one,
            ..ScheduleModel::engine()
        };
        let vs = check_schedule(&cfg(1, 2, 2, 8, 8), &model);
        let v = vs.first().expect("mutant produces a counterexample");
        let back = RaceViolation::from_json(&v.to_json()).expect("round trip");
        assert_eq!(&back, v);
    }

    #[test]
    fn degenerate_configs_are_trivially_race_free() {
        let m = ScheduleModel::engine();
        // c=1: no rings at all.
        assert!(check_schedule(&cfg(2, 1, 8, 9, 5), &m).is_empty());
        // nz too small for an interior: no reads.
        assert!(check_schedule(&cfg(3, 4, 8, 3, 5), &m).is_empty());
        // more threads than rows: some bands empty.
        assert!(check_schedule(&cfg(1, 3, 8, 8, 3), &m).is_empty());
    }
}
