//! Counter registry and model-vs-measured telemetry.
//!
//! A [`CounterRegistry`] is an ordered name → value map that serializes
//! into the schema-v2 `telemetry` section of a BENCH report. The two
//! builders fill it with the paper's accounting for one measured variant:
//!
//! * **roofline attainment** — the variant's scenario is rebuilt exactly
//!   as `machine::figures` builds it (κ from the planner, base bytes
//!   zeroed when the grid fits the LLC) and evaluated on the paper's
//!   reference [`core_i7`] machine; attainment is measured MUPS over that
//!   prediction. Because the reference machine is fixed, attainment is
//!   comparable across hosts — it answers "how far is this run from the
//!   paper's landscape", not "how efficient is this host".
//! * **κ predicted vs achieved** — the planner's [`kappa_35d`] /
//!   [`kappa_4d`] against `SweepStats::overestimation()`.
//! * **modeled vs simulated DRAM traffic** — the executor's modeled byte
//!   counters next to a `cachesim` replay of the same access pattern
//!   (line fills + write-backs + streamed lines), skipped above
//!   [`CACHESIM_MAX_POINT_STEPS`] where the replay would dominate the
//!   bench run. No trace generator exists for the D3Q19 layout, so LBM
//!   telemetry reports modeled traffic only.
//! * **barrier-wait histogram** — the per-sweep log-4 [`WaitHistogram`]
//!   captured by `Instrument`.

use threefive_cachesim::trace::{blocked35d_trace, naive_sweep_trace, temporal_trace};
use threefive_cachesim::CacheSim;
use threefive_core::exec::StencilExec;
use threefive_core::planner::{kappa_35d, kappa_4d};
use threefive_core::stats::SweepStats;
use threefive_lbm::model::Q;
use threefive_lbm::LbmExec;
use threefive_machine::{
    core_i7, lbm_traffic, predict, roofline::CPU_ALU_EFF, seven_point_traffic, Bound, Machine,
    Scenario,
};
use threefive_sync::{WaitHistogram, WAIT_HIST_BUCKETS};

use crate::json::Json;
use crate::{Measurement, Spec};

/// LBM bandwidth efficiency on the CPU (the paper measures 20.5 GB/s of
/// 22 GB/s achievable for the 39-stream access pattern). Mirrors the
/// private constant in `machine::figures`.
const LBM_BW_EFF: f64 = 20.5 / 22.0;

/// Largest `points × steps` product the cachesim replay will simulate;
/// beyond this the replay is skipped and the cachesim counters are
/// absent from the registry.
pub const CACHESIM_MAX_POINT_STEPS: u64 = 1 << 24;

/// An ordered collection of named f64 counters.
///
/// Insertion order is preserved through JSON round-trips (the writer in
/// [`crate::json`] keeps object order), so reports stay diffable.
/// Non-finite values serialize as `null` and read back as NaN.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterRegistry {
    entries: Vec<(String, f64)>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`, replacing any previous value in place.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.entries.push((name.to_string(), value)),
        }
    }

    /// Looks up a counter by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Iterates counters in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to a JSON object in insertion order.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(n, v)| (n.clone(), Json::num(*v)))
                .collect(),
        )
    }

    /// Reads a registry back from a JSON object; `null` values become NaN.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let Json::Obj(fields) = v else {
            return Err("counters: expected an object".into());
        };
        let mut reg = Self::new();
        for (name, val) in fields {
            let num = match val {
                Json::Null => f64::NAN,
                other => other
                    .as_f64()
                    .ok_or_else(|| format!("counter '{name}': expected a number or null"))?,
            };
            reg.entries.push((name.clone(), num));
        }
        Ok(reg)
    }
}

/// The telemetry block attached to one bench entry in schema v2.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Telemetry {
    /// Reference machine the roofline counters were evaluated on.
    pub machine: String,
    /// Named counters (attainment, κ, DRAM bytes, …).
    pub counters: CounterRegistry,
    /// Barrier-wait histogram of the last timed repetition, when the
    /// variant ran instrumented.
    pub wait_hist: Option<WaitHistogram>,
}

impl Telemetry {
    /// Serializes the block.
    pub fn to_json(&self) -> Json {
        let hist = match &self.wait_hist {
            Some(h) => Json::Arr(h.counts.iter().map(|&c| Json::num(c as f64)).collect()),
            None => Json::Null,
        };
        Json::Obj(vec![
            ("machine".into(), Json::str(&self.machine)),
            ("counters".into(), self.counters.to_json()),
            ("barrier_wait_hist".into(), hist),
        ])
    }

    /// Reads a block back, rejecting missing fields by name.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let machine = v.req_str("machine")?;
        let counters = CounterRegistry::from_json(v.req("counters")?)?;
        let wait_hist = match v.req("barrier_wait_hist")? {
            Json::Null => None,
            Json::Arr(items) => {
                if items.len() != WAIT_HIST_BUCKETS {
                    return Err(format!(
                        "telemetry: 'barrier_wait_hist' must have {WAIT_HIST_BUCKETS} buckets, \
                         got {}",
                        items.len()
                    ));
                }
                let mut h = WaitHistogram::default();
                for (i, item) in items.iter().enumerate() {
                    h.counts[i] = item
                        .as_u64()
                        .ok_or("telemetry: 'barrier_wait_hist' entries must be integers")?;
                }
                Some(h)
            }
            _ => return Err("telemetry: 'barrier_wait_hist' must be an array or null".into()),
        };
        Ok(Self {
            machine,
            counters,
            wait_hist,
        })
    }
}

fn kappa_stencil_35d(tile: usize, dim_t: usize, r: usize, nx: usize, ny: usize) -> f64 {
    if tile >= nx && tile >= ny {
        // Whole-plane tiles clamp their ghost regions at the grid
        // boundary: nothing is recomputed, κ = 1 exactly.
        return 1.0;
    }
    let loaded = tile + 2 * r * dim_t;
    kappa_35d(r, dim_t, loaded, loaded)
}

/// The planner's κ for a stencil rung at the block it actually runs.
fn stencil_kappa(exec: StencilExec, spec: &Spec<'_>) -> f64 {
    let r = seven_point_traffic().radius;
    let block = exec.block(spec.tile);
    match exec {
        StencilExec::Blocked4d => kappa_4d(r, spec.dim_t, block, block, block),
        StencilExec::Parallel35d | StencilExec::TileParallel35d => {
            kappa_stencil_35d(block, spec.dim_t, r, spec.dim.nx, spec.dim.ny)
        }
        // Spatial-only rungs and whole-plane tiles recompute nothing.
        StencilExec::Reference
        | StencilExec::Simd
        | StencilExec::Blocked3d
        | StencilExec::Blocked25d
        | StencilExec::Temporal => 1.0,
    }
}

/// Modeled DRAM traffic and κ of one LBM sweep, which the lattice
/// executors do not count: each dim_T chunk streams all 19 distribution
/// planes in and out once (write-allocate folded into the write stream),
/// and κ is the planner's at the blocking that ran — 1 when the tile
/// covers the plane, as for the stencil.
pub fn lbm_traffic_and_kappa(exec: LbmExec, spec: &Spec<'_>) -> (SweepStats, f64) {
    let lattice_bytes = (spec.dim.len() * Q * spec.precision.elem_bytes()) as u64;
    let (chunks, kappa) = match exec {
        LbmExec::NaiveScalar | LbmExec::NaiveSimd => (spec.steps, 1.0),
        LbmExec::Temporal => (spec.steps.div_ceil(spec.dim_t), 1.0),
        LbmExec::Blocked35d => (
            spec.steps.div_ceil(spec.dim_t),
            kappa_stencil_35d(spec.tile, spec.dim_t, 1, spec.dim.nx, spec.dim.ny),
        ),
    };
    let bytes = lattice_bytes * chunks as u64;
    let stats = SweepStats {
        stencil_updates: 0,
        committed_points: 0,
        dram_bytes_read: bytes,
        dram_bytes_written: bytes,
    };
    (stats, kappa)
}

/// The bandwidth gain of temporal-only blocking: dim_T rings of whole
/// planes of `plane_bytes` must fit in cache (§VII-B), or nothing is won.
fn temporal_gain(m: &Machine, dim_t: usize, plane_bytes: usize) -> f64 {
    if dim_t * 4 * plane_bytes <= m.fast_storage_bytes {
        dim_t as f64
    } else {
        1.0
    }
}

/// Rebuilds the roofline scenario for one stencil rung, using the same
/// per-variant byte/op multipliers as `machine::figures`.
fn stencil_scenario(m: &Machine, exec: StencilExec, spec: &Spec<'_>) -> Scenario {
    let (p, dim, dim_t) = (spec.precision, spec.dim, spec.dim_t);
    let k = seven_point_traffic();
    // Both grids in the LLC → nothing is bandwidth bound (§VII-A).
    let in_cache = 2 * dim.len() * p.elem_bytes() <= 2 * m.fast_storage_bytes;
    let base_bytes = if in_cache {
        0.0
    } else {
        k.blocked_bytes_per_update(p)
    };
    let ops = k.ops_per_update as f64;
    let kappa = stencil_kappa(exec, spec);
    let (bytes_per_update, ops_per_update) = match exec {
        // Roofline ops are post-SIMD-division; scalar forfeits the lanes.
        StencilExec::Reference => (base_bytes, ops * m.simd_width_sp as f64),
        StencilExec::Temporal => {
            let gain = temporal_gain(m, dim_t, dim.nx * dim.ny * k.elem_bytes(p));
            (base_bytes / gain, ops)
        }
        StencilExec::Blocked4d | StencilExec::Parallel35d | StencilExec::TileParallel35d => {
            (base_bytes * kappa / dim_t as f64, ops * kappa)
        }
        // Ideal spatial reuse, no temporal gain, no ghost recomputation.
        StencilExec::Simd | StencilExec::Blocked3d | StencilExec::Blocked25d => (base_bytes, ops),
    };
    Scenario {
        label: exec.label(),
        bytes_per_update,
        ops_per_update,
        alu_eff: CPU_ALU_EFF,
        bw_eff: 1.0,
    }
}

/// Rebuilds the roofline scenario for one LBM rung.
fn lbm_scenario(m: &Machine, exec: LbmExec, spec: &Spec<'_>) -> Scenario {
    let (p, dim, dim_t) = (spec.precision, spec.dim, spec.dim_t);
    let k = lbm_traffic();
    let bytes = k.blocked_bytes_per_update(p);
    let ops = k.ops_per_update as f64;
    let (bytes_per_update, ops_per_update) = match exec {
        LbmExec::NaiveScalar => (bytes, ops * m.simd_width_sp as f64),
        LbmExec::NaiveSimd => (bytes, ops),
        LbmExec::Temporal => {
            let gain = temporal_gain(m, dim_t, dim.nx * dim.ny * k.elem_bytes(p));
            (bytes / gain, ops)
        }
        LbmExec::Blocked35d => {
            let (_, kappa) = lbm_traffic_and_kappa(exec, spec);
            (bytes * kappa / dim_t as f64, ops * kappa)
        }
    };
    Scenario {
        label: exec.label(),
        bytes_per_update,
        ops_per_update,
        alu_eff: CPU_ALU_EFF,
        bw_eff: LBM_BW_EFF,
    }
}

/// The counters every measured rung reports — roofline attainment on
/// `m`, κ model vs measured, modeled traffic, `extra` kernel-specific
/// counters, then the barrier-wait share when the rung ran observed.
fn telemetry(
    m: &Machine,
    spec: &Spec<'_>,
    scenario: &Scenario,
    kappa_model: f64,
    meas: &Measurement,
    extra: impl FnOnce(&mut CounterRegistry),
) -> Telemetry {
    let pred = predict(m, spec.precision, scenario);
    let mut reg = CounterRegistry::new();
    reg.set("mups_measured", meas.mups);
    reg.set("mups_roofline", pred.mups);
    reg.set(
        "roofline_attainment_pct",
        if pred.mups > 0.0 {
            100.0 * meas.mups / pred.mups
        } else {
            0.0
        },
    );
    reg.set(
        "roofline_bound_compute",
        match pred.bound {
            Bound::Compute => 1.0,
            Bound::Bandwidth => 0.0,
        },
    );
    reg.set("kappa_model", kappa_model);
    reg.set("kappa_measured", meas.kappa);
    reg.set("modeled_dram_bytes", meas.stats.dram_bytes() as f64);
    extra(&mut reg);
    if let Some(share) = meas.barrier_share {
        reg.set("barrier_share", share);
    }
    Telemetry {
        machine: m.name.to_string(),
        counters: reg,
        wait_hist: meas.barrier_hist,
    }
}

/// Builds the telemetry block for a measured 7-point stencil rung; κ and
/// the cachesim replay are evaluated at the block the rung actually ran.
pub fn stencil_telemetry(exec: StencilExec, spec: &Spec<'_>, meas: &Measurement) -> Telemetry {
    let m = core_i7();
    let scenario = stencil_scenario(&m, exec, spec);
    telemetry(
        &m,
        spec,
        &scenario,
        stencil_kappa(exec, spec),
        meas,
        |reg| {
            let (dim, steps, dim_t) = (spec.dim, spec.steps, spec.dim_t);
            if (dim.len() as u64).saturating_mul(steps as u64) > CACHESIM_MAX_POINT_STEPS {
                return;
            }
            let mut cache = CacheSim::llc(m.fast_storage_bytes);
            let elem = spec.precision.elem_bytes();
            let ss = seven_point_traffic().streaming_stores;
            let block = exec.block(spec.tile);
            let res = match exec {
                StencilExec::Temporal => temporal_trace(dim, elem, steps, dim_t, ss, &mut cache),
                StencilExec::Blocked4d
                | StencilExec::Parallel35d
                | StencilExec::TileParallel35d => {
                    blocked35d_trace(dim, elem, steps, block, dim_t, ss, &mut cache)
                }
                StencilExec::Reference
                | StencilExec::Simd
                | StencilExec::Blocked3d
                | StencilExec::Blocked25d => naive_sweep_trace(dim, elem, steps, ss, &mut cache),
            };
            reg.set(
                "cachesim_dram_bytes",
                res.stats.dram_bytes(res.line_bytes) as f64,
            );
            reg.set("cachesim_hit_rate", res.stats.hit_rate());
        },
    )
}

/// Builds the telemetry block for a measured LBM rung. The cachesim has
/// no D3Q19 trace generator, so only modeled traffic is reported.
pub fn lbm_telemetry(exec: LbmExec, spec: &Spec<'_>, meas: &Measurement) -> Telemetry {
    let m = core_i7();
    let scenario = lbm_scenario(&m, exec, spec);
    telemetry(&m, spec, &scenario, meas.kappa, meas, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use threefive_sync::ThreadTeam;

    #[test]
    fn registry_preserves_order_and_round_trips() {
        let mut reg = CounterRegistry::new();
        reg.set("zeta", 1.5);
        reg.set("alpha", 2.0);
        reg.set("zeta", 3.0); // replaced in place, order kept
        reg.set("nan_counter", f64::NAN);
        let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["zeta", "alpha", "nan_counter"]);
        assert_eq!(reg.get("zeta"), Some(3.0));

        let text = reg.to_json().to_string();
        let back = CounterRegistry::from_json(&Json::parse(&text).unwrap()).unwrap();
        let back_names: Vec<&str> = back.iter().map(|(n, _)| n).collect();
        assert_eq!(back_names, names);
        assert!(
            back.get("nan_counter").unwrap().is_nan(),
            "null reads as NaN"
        );
        assert_eq!(back.get("alpha"), Some(2.0));
    }

    #[test]
    fn telemetry_round_trips_with_and_without_histogram() {
        let mut h = WaitHistogram::default();
        h.record(2_000);
        h.record(70_000);
        let mut counters = CounterRegistry::new();
        counters.set("mups_measured", 123.0);
        let t = Telemetry {
            machine: "test machine".into(),
            counters,
            wait_hist: Some(h),
        };
        let back = Telemetry::from_json(&Json::parse(&t.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, t);

        let bare = Telemetry {
            machine: "m".into(),
            counters: CounterRegistry::new(),
            wait_hist: None,
        };
        let back =
            Telemetry::from_json(&Json::parse(&bare.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, bare);
    }

    #[test]
    fn telemetry_rejects_missing_and_malformed_fields() {
        let missing = Json::parse(r#"{"machine": "m", "counters": {}}"#).unwrap();
        assert!(Telemetry::from_json(&missing)
            .unwrap_err()
            .contains("barrier_wait_hist"));
        let short = Json::parse(r#"{"machine": "m", "counters": {}, "barrier_wait_hist": [1, 2]}"#)
            .unwrap();
        assert!(Telemetry::from_json(&short)
            .unwrap_err()
            .contains("buckets"));
        let bad_counter = Json::parse(
            r#"{"machine": "m", "counters": {"x": "oops"}, "barrier_wait_hist": null}"#,
        )
        .unwrap();
        assert!(Telemetry::from_json(&bad_counter)
            .unwrap_err()
            .contains("'x'"));
    }

    #[test]
    fn scenarios_mirror_figures_multipliers() {
        let m = core_i7();
        let team = ThreadTeam::new(1);
        let dim_t = 4;
        let big = Spec::sp_cube(&team, 256, 2, 64, dim_t);
        // Out of cache: base bytes are the ideal 8 B/update.
        let no_block = stencil_scenario(&m, StencilExec::Simd, &big);
        assert_eq!(no_block.bytes_per_update, 8.0);
        assert_eq!(no_block.ops_per_update, 16.0);
        // Scalar pays the SIMD width in ops.
        let scalar = stencil_scenario(&m, StencilExec::Reference, &big);
        assert_eq!(scalar.ops_per_update, 16.0 * m.simd_width_sp as f64);
        // 3.5-D divides bytes by dim_T and inflates both sides by κ.
        let kappa = kappa_stencil_35d(64, dim_t, 1, 256, 256);
        let blocked = stencil_scenario(&m, StencilExec::Parallel35d, &big);
        assert!((blocked.bytes_per_update - 8.0 * kappa / dim_t as f64).abs() < 1e-12);
        assert!((blocked.ops_per_update - 16.0 * kappa).abs() < 1e-12);
        // In-cache grids have zero base bytes → compute bound.
        let small = stencil_scenario(
            &m,
            StencilExec::Simd,
            &Spec::sp_cube(&team, 64, 2, 64, dim_t),
        );
        assert_eq!(small.bytes_per_update, 0.0);
    }

    #[test]
    fn stencil_telemetry_reports_attainment_and_cachesim_traffic() {
        let team = ThreadTeam::new(1);
        let meas = Measurement::synthetic("3.5D blocking", 100.0);
        let t = stencil_telemetry(
            StencilExec::Parallel35d,
            &Spec::sp_cube(&team, 32, 2, 16, 2),
            &meas,
        );
        let roof = t.counters.get("mups_roofline").unwrap();
        assert!(roof > 0.0);
        let att = t.counters.get("roofline_attainment_pct").unwrap();
        assert!((att - 100.0 * 100.0 / roof).abs() < 1e-9);
        // 32³×2 steps is far below the cap → cachesim counters present.
        assert!(t.counters.get("cachesim_dram_bytes").unwrap() > 0.0);
        let hr = t.counters.get("cachesim_hit_rate").unwrap();
        assert!((0.0..=1.0).contains(&hr));
        assert_eq!(t.machine, core_i7().name);
    }

    /// 4-D blocking runs at `block(tile)` = 48 for a 64 tile, so its model
    /// κ and cachesim replay must be evaluated there, not at 64.
    #[test]
    fn four_d_telemetry_is_evaluated_at_the_block_that_ran() {
        let team = ThreadTeam::new(1);
        let (n, steps, dim_t) = (64, 2, 2);
        let s = Spec::sp_cube(&team, n, steps, 64, dim_t);
        let meas = Measurement::synthetic("4D blocking", 100.0);
        let t = stencil_telemetry(StencilExec::Blocked4d, &s, &meas);
        assert_eq!(
            t.counters.get("kappa_model"),
            Some(kappa_4d(1, dim_t, 48, 48, 48))
        );
        let mut cache = CacheSim::llc(core_i7().fast_storage_bytes);
        let at_48 = blocked35d_trace(s.dim, 4, steps, 48, dim_t, true, &mut cache);
        assert_eq!(
            t.counters.get("cachesim_dram_bytes"),
            Some(at_48.stats.dram_bytes(at_48.line_bytes) as f64)
        );
    }

    #[test]
    fn lbm_kappa_is_one_on_whole_plane_tiles_and_unchanged_below() {
        let team = ThreadTeam::new(1);
        let dim_t = 2;
        let kappa =
            |exec, tile| lbm_traffic_and_kappa(exec, &Spec::sp_cube(&team, 64, 4, tile, dim_t)).1;
        for tile in [64, 100] {
            assert_eq!(kappa(LbmExec::Blocked35d, tile), 1.0, "tile {tile}");
        }
        let loaded = 32 + 2 * dim_t;
        assert_eq!(
            kappa(LbmExec::Blocked35d, 32),
            kappa_35d(1, dim_t, loaded, loaded)
        );
        // The whole-plane rung stays at κ = 1 whatever tile is requested.
        for tile in [32, 64, 100] {
            assert_eq!(kappa(LbmExec::Temporal, tile), 1.0, "tile {tile}");
        }
    }

    #[test]
    fn cachesim_replay_is_skipped_above_the_cap() {
        let team = ThreadTeam::new(1);
        let meas = Measurement::synthetic("3.5D blocking", 100.0);
        // 512³ × 4 steps ≫ 2^24
        let t = stencil_telemetry(
            StencilExec::Parallel35d,
            &Spec::sp_cube(&team, 512, 4, 64, 4),
            &meas,
        );
        assert!(t.counters.get("cachesim_dram_bytes").is_none());
        assert!(t.counters.get("mups_roofline").is_some());
    }

    #[test]
    fn lbm_telemetry_has_roofline_but_no_cachesim() {
        let team = ThreadTeam::new(1);
        let meas = Measurement::synthetic("3.5D blocking", 50.0);
        let t = lbm_telemetry(
            LbmExec::Blocked35d,
            &Spec::sp_cube(&team, 64, 2, 32, 2),
            &meas,
        );
        assert!(t.counters.get("mups_roofline").is_some());
        assert!(t.counters.get("cachesim_dram_bytes").is_none());
    }
}
