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
use threefive_core::planner::{kappa_35d, kappa_4d};
use threefive_grid::Dim3;
use threefive_machine::{
    core_i7, lbm_traffic, predict, roofline::CPU_ALU_EFF, seven_point_traffic, Bound, Machine,
    Precision, Scenario,
};
use threefive_sync::{WaitHistogram, WAIT_HIST_BUCKETS};

use crate::json::Json;
use crate::Measurement;

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

/// Rebuilds the roofline scenario for one stencil bench variant, using
/// the same per-variant byte/op multipliers as `machine::figures`.
pub fn stencil_scenario(
    m: &Machine,
    p: Precision,
    variant: &'static str,
    dim: Dim3,
    tile: usize,
    dim_t: usize,
) -> Scenario {
    let k = seven_point_traffic();
    let r = k.radius;
    let points = dim.nx * dim.ny * dim.nz;
    // Both grids in the LLC → nothing is bandwidth bound (§VII-A).
    let in_cache = 2 * points * p.elem_bytes() <= 2 * m.fast_storage_bytes;
    let base_bytes = if in_cache {
        0.0
    } else {
        k.blocked_bytes_per_update(p)
    };
    let ops = k.ops_per_update as f64;
    let (bytes_per_update, ops_per_update) = match variant {
        // Roofline ops are post-SIMD-division; scalar forfeits the lanes.
        "scalar" => (base_bytes, ops * m.simd_width_sp as f64),
        "temporal only" => {
            // dim_T rings of full XY planes must fit in cache (§VII-B).
            let ring_bytes = dim_t * 4 * dim.nx * dim.ny * k.elem_bytes(p);
            let gain = if ring_bytes <= m.fast_storage_bytes {
                dim_t as f64
            } else {
                1.0
            };
            (base_bytes / gain, ops)
        }
        "4D blocking" => {
            let kappa = kappa_4d(r, dim_t, tile, tile, tile);
            (base_bytes * kappa / dim_t as f64, ops * kappa)
        }
        "3.5D blocking" | "tile 3.5D" => {
            let kappa = kappa_stencil_35d(tile, dim_t, r, dim.nx, dim.ny);
            (base_bytes * kappa / dim_t as f64, ops * kappa)
        }
        // "simd no-blocking", "3D blocking", "spatial only": ideal spatial
        // reuse, no temporal gain, no ghost recomputation.
        _ => (base_bytes, ops),
    };
    Scenario {
        label: variant,
        bytes_per_update,
        ops_per_update,
        alu_eff: CPU_ALU_EFF,
        bw_eff: 1.0,
    }
}

/// Rebuilds the roofline scenario for one LBM bench variant.
pub fn lbm_scenario(
    m: &Machine,
    p: Precision,
    variant: &'static str,
    n: usize,
    tile: usize,
    dim_t: usize,
) -> Scenario {
    let k = lbm_traffic();
    let bytes = k.blocked_bytes_per_update(p);
    let ops = k.ops_per_update as f64;
    let (bytes_per_update, ops_per_update) = match variant {
        "scalar no-blocking" => (bytes, ops * m.simd_width_sp as f64),
        "temporal only" => {
            let ring_bytes = dim_t * 4 * n * n * k.elem_bytes(p);
            let gain = if ring_bytes <= m.fast_storage_bytes {
                dim_t as f64
            } else {
                1.0
            };
            (bytes / gain, ops)
        }
        "3.5D blocking" => {
            let kappa = kappa_stencil_35d(tile, dim_t, k.radius, n, n);
            (bytes * kappa / dim_t as f64, ops * kappa)
        }
        _ => (bytes, ops), // "simd no-blocking"
    };
    Scenario {
        label: variant,
        bytes_per_update,
        ops_per_update,
        alu_eff: CPU_ALU_EFF,
        bw_eff: LBM_BW_EFF,
    }
}

fn roofline_counters(
    reg: &mut CounterRegistry,
    m: &Machine,
    p: Precision,
    s: &Scenario,
    mups: f64,
) {
    let pred = predict(m, p, s);
    reg.set("mups_measured", mups);
    reg.set("mups_roofline", pred.mups);
    reg.set(
        "roofline_attainment_pct",
        if pred.mups > 0.0 {
            100.0 * mups / pred.mups
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
}

/// Builds the telemetry block for a measured 7-point stencil variant.
pub fn stencil_telemetry(
    p: Precision,
    meas: &Measurement,
    dim: Dim3,
    steps: usize,
    tile: usize,
    dim_t: usize,
) -> Telemetry {
    let m = core_i7();
    let k = seven_point_traffic();
    let mut reg = CounterRegistry::new();
    let scenario = stencil_scenario(&m, p, meas.label, dim, tile, dim_t);
    roofline_counters(&mut reg, &m, p, &scenario, meas.mups);

    let kappa_model = match meas.label {
        "4D blocking" => kappa_4d(k.radius, dim_t, tile, tile, tile),
        "temporal only" | "3.5D blocking" | "tile 3.5D" => {
            kappa_stencil_35d(tile, dim_t, k.radius, dim.nx, dim.ny)
        }
        _ => 1.0,
    };
    reg.set("kappa_model", kappa_model);
    reg.set("kappa_measured", meas.kappa);
    let modeled = meas.stats.dram_bytes_read + meas.stats.dram_bytes_written;
    reg.set("modeled_dram_bytes", modeled as f64);

    let points = (dim.nx * dim.ny * dim.nz) as u64;
    if points.saturating_mul(steps as u64) <= CACHESIM_MAX_POINT_STEPS {
        let mut cache = CacheSim::llc(m.fast_storage_bytes);
        let elem = p.elem_bytes();
        let ss = k.streaming_stores;
        let res = match meas.label {
            "temporal only" => temporal_trace(dim, elem, steps, dim_t, ss, &mut cache),
            "4D blocking" | "3.5D blocking" | "tile 3.5D" => {
                blocked35d_trace(dim, elem, steps, tile, dim_t, ss, &mut cache)
            }
            _ => naive_sweep_trace(dim, elem, steps, ss, &mut cache),
        };
        reg.set(
            "cachesim_dram_bytes",
            res.stats.dram_bytes(res.line_bytes) as f64,
        );
        reg.set("cachesim_hit_rate", res.stats.hit_rate());
    }

    if let Some(share) = meas.barrier_share {
        reg.set("barrier_share", share);
    }
    Telemetry {
        machine: m.name.to_string(),
        counters: reg,
        wait_hist: meas.barrier_hist,
    }
}

/// Builds the telemetry block for a measured LBM variant. The cachesim
/// has no D3Q19 trace generator, so only modeled traffic is reported.
pub fn lbm_telemetry(
    p: Precision,
    meas: &Measurement,
    n: usize,
    tile: usize,
    dim_t: usize,
) -> Telemetry {
    let m = core_i7();
    let mut reg = CounterRegistry::new();
    let scenario = lbm_scenario(&m, p, meas.label, n, tile, dim_t);
    roofline_counters(&mut reg, &m, p, &scenario, meas.mups);
    reg.set("kappa_model", meas.kappa);
    reg.set("kappa_measured", meas.kappa);
    let modeled = meas.stats.dram_bytes_read + meas.stats.dram_bytes_written;
    reg.set("modeled_dram_bytes", modeled as f64);
    if let Some(share) = meas.barrier_share {
        reg.set("barrier_share", share);
    }
    Telemetry {
        machine: m.name.to_string(),
        counters: reg,
        wait_hist: meas.barrier_hist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

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
        let p = Precision::Sp;
        let dim = Dim3::cube(256);
        // Out of cache: base bytes are the ideal 8 B/update.
        let no_block = stencil_scenario(&m, p, "simd no-blocking", dim, 64, 4);
        assert_eq!(no_block.bytes_per_update, 8.0);
        assert_eq!(no_block.ops_per_update, 16.0);
        // Scalar pays the SIMD width in ops.
        let scalar = stencil_scenario(&m, p, "scalar", dim, 64, 4);
        assert_eq!(scalar.ops_per_update, 16.0 * m.simd_width_sp as f64);
        // 3.5-D divides bytes by dim_T and inflates both sides by κ.
        let dim_t = 4;
        let kappa = kappa_stencil_35d(64, dim_t, 1, 256, 256);
        let blocked = stencil_scenario(&m, p, "3.5D blocking", dim, 64, dim_t);
        assert!((blocked.bytes_per_update - 8.0 * kappa / dim_t as f64).abs() < 1e-12);
        assert!((blocked.ops_per_update - 16.0 * kappa).abs() < 1e-12);
        // In-cache grids have zero base bytes → compute bound.
        let small = stencil_scenario(&m, p, "simd no-blocking", Dim3::cube(64), 64, 4);
        assert_eq!(small.bytes_per_update, 0.0);
    }

    #[test]
    fn stencil_telemetry_reports_attainment_and_cachesim_traffic() {
        let dim = Dim3::cube(32);
        let meas = Measurement::synthetic("3.5D blocking", 100.0);
        let t = stencil_telemetry(Precision::Sp, &meas, dim, 2, 16, 2);
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

    #[test]
    fn cachesim_replay_is_skipped_above_the_cap() {
        let dim = Dim3::cube(512); // 512³ × 4 steps ≫ 2^24
        let meas = Measurement::synthetic("3.5D blocking", 100.0);
        let t = stencil_telemetry(Precision::Sp, &meas, dim, 4, 64, 4);
        assert!(t.counters.get("cachesim_dram_bytes").is_none());
        assert!(t.counters.get("mups_roofline").is_some());
    }

    #[test]
    fn lbm_telemetry_has_roofline_but_no_cachesim() {
        let meas = Measurement::synthetic("3.5D blocking", 50.0);
        let t = lbm_telemetry(Precision::Sp, &meas, 64, 32, 2);
        assert!(t.counters.get("mups_roofline").is_some());
        assert!(t.counters.get("cachesim_dram_bytes").is_none());
    }
}
