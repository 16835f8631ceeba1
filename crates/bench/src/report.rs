//! Schema-versioned machine-readable BENCH output.
//!
//! `threefive bench` writes one `BENCH_stencil.json` and one
//! `BENCH_lbm.json` per run so the performance trajectory can be recorded
//! across PRs and diffed by CI. The schema is hand-validated (no serde):
//! [`BenchReport::from_json`] is the single source of truth for what a
//! well-formed report contains, used both by the round-trip tests and by
//! `threefive bench --validate`.
//!
//! **Schema v2** adds a per-entry `telemetry` section (roofline
//! attainment, κ model vs measured, modeled vs cachesim DRAM bytes,
//! barrier-wait histogram — see [`crate::counters`]) and tightens
//! validation: `kappa`, `barrier_share` and `telemetry` must be *present*
//! in every entry (`null` is fine, absence is not), so a truncated or
//! hand-edited report fails `--validate` with the field named instead of
//! silently reading back as NaN.
//!
//! **Schema v3** adds a required `host.fingerprint` — a short stable
//! identifier of the measuring machine (os/arch/cpu-model/thread-count
//! hash). `TUNE.json` keys tuned plans by it, so a plan tuned on one
//! machine is never applied on another.
//!
//! **Schema v4** adds a required per-entry `schedule` — the
//! temporal-blocking schedule the engine-backed variants ran under
//! (`"lag35d"`, `"wavefront"`, `"diamond"`; `"none"` for variants with no
//! schedule) — so head-to-head schedule comparisons carry provenance.

use crate::counters::Telemetry;
use crate::json::Json;

/// Version stamped into every report; bump on breaking schema changes.
pub const BENCH_SCHEMA_VERSION: u64 = 4;

/// Best-effort description of the measuring host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Logical CPUs available to the process.
    pub available_threads: usize,
    /// CPU model string from `/proc/cpuinfo`, or `"unknown"`.
    pub cpu: String,
    /// Stable short identifier of this host (see [`HostInfo::fingerprint_of`]).
    ///
    /// Stored rather than recomputed on load: a report's fingerprint
    /// describes the machine that *produced* it, which is exactly what
    /// the tuning database needs to compare.
    pub fingerprint: String,
}

impl HostInfo {
    /// Detects the current host.
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let os = std::env::consts::OS.to_string();
        let arch = std::env::consts::ARCH.to_string();
        let available_threads = std::thread::available_parallelism().map_or(1, |c| c.get());
        let fingerprint = Self::fingerprint_of(&os, &arch, available_threads, &cpu);
        Self {
            os,
            arch,
            available_threads,
            cpu,
            fingerprint,
        }
    }

    /// Computes the canonical fingerprint for a host description:
    /// `<os>-<arch>-<threads>t-<hash>` where the hash is FNV-1a over all
    /// four fields (so a CPU-model change alone changes the fingerprint
    /// even when os/arch/threads match).
    pub fn fingerprint_of(os: &str, arch: &str, threads: usize, cpu: &str) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for part in [os, arch, cpu, &threads.to_string()] {
            for &b in part.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h ^= 0x7c; // field separator so "ab"+"c" != "a"+"bc"
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{os}-{arch}-{threads}t-{:08x}", (h >> 32) as u32 ^ h as u32)
    }

    /// Serializes to the JSON tree (shared with the service report).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("os".into(), Json::str(&*self.os)),
            ("arch".into(), Json::str(&*self.arch)),
            (
                "available_threads".into(),
                Json::Num(self.available_threads as f64),
            ),
            ("cpu".into(), Json::str(&*self.cpu)),
            ("fingerprint".into(), Json::str(&*self.fingerprint)),
        ])
    }

    /// Deserializes and schema-checks (shared with the service report).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            os: v.req_str("os")?,
            arch: v.req_str("arch")?,
            available_threads: v.req_u64("available_threads")? as usize,
            cpu: v.req_str("cpu")?,
            fingerprint: v.req_str("fingerprint")?,
        })
    }
}

/// One measured (variant × precision × grid) row.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Variant label (e.g. `"3.5D blocking"`).
    pub variant: String,
    /// Temporal-blocking schedule name for engine-backed variants
    /// (`"lag35d"`, `"wavefront"`, `"diamond"`), `"none"` otherwise.
    pub schedule: String,
    /// `"sp"` or `"dp"`.
    pub precision: String,
    /// Grid extents `[nx, ny, nz]`.
    pub grid: [usize; 3],
    /// Time steps per repetition.
    pub steps: usize,
    /// Team size used.
    pub threads: usize,
    /// Untimed warmup repetitions (first-touch exclusion).
    pub warmup: usize,
    /// Timed repetitions.
    pub reps: usize,
    /// Median wall-clock seconds over the timed repetitions.
    pub median_secs: f64,
    /// Fastest repetition.
    pub min_secs: f64,
    /// Slowest repetition.
    pub max_secs: f64,
    /// Median million interior-point updates per second.
    pub mups: f64,
    /// Interior updates per repetition (the MUPS numerator).
    pub interior_updates: u64,
    /// Modeled DRAM traffic per repetition, bytes.
    pub modeled_dram_bytes: u64,
    /// Measured κ (stencil: updates per committed point; LBM: modeled).
    pub kappa: f64,
    /// Fraction of in-region time spent at barriers (instrumented
    /// variants only).
    pub barrier_share: Option<f64>,
    /// Model-vs-measured telemetry (schema v2; `null` when the run did
    /// not compute it).
    pub telemetry: Option<Telemetry>,
}

impl BenchEntry {
    /// Relative spread of the timed repetitions: `(max − min) / median`.
    pub fn spread(&self) -> f64 {
        if self.median_secs > 0.0 {
            (self.max_secs - self.min_secs) / self.median_secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("variant".into(), Json::str(&*self.variant)),
            ("schedule".into(), Json::str(&*self.schedule)),
            ("precision".into(), Json::str(&*self.precision)),
            (
                "grid".into(),
                Json::Arr(self.grid.iter().map(|&g| Json::Num(g as f64)).collect()),
            ),
            ("steps".into(), Json::Num(self.steps as f64)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("warmup".into(), Json::Num(self.warmup as f64)),
            ("reps".into(), Json::Num(self.reps as f64)),
            ("median_secs".into(), Json::num(self.median_secs)),
            ("min_secs".into(), Json::num(self.min_secs)),
            ("max_secs".into(), Json::num(self.max_secs)),
            ("mups".into(), Json::num(self.mups)),
            (
                "interior_updates".into(),
                Json::Num(self.interior_updates as f64),
            ),
            (
                "modeled_dram_bytes".into(),
                Json::Num(self.modeled_dram_bytes as f64),
            ),
            ("kappa".into(), Json::num(self.kappa)),
            (
                "barrier_share".into(),
                match self.barrier_share {
                    Some(s) => Json::num(s),
                    None => Json::Null,
                },
            ),
            (
                "telemetry".into(),
                match &self.telemetry {
                    Some(t) => t.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let grid_arr = v.req_arr("grid")?;
        if grid_arr.len() != 3 {
            return Err(format!(
                "'grid' must have 3 extents, got {}",
                grid_arr.len()
            ));
        }
        let mut grid = [0usize; 3];
        for (slot, g) in grid.iter_mut().zip(grid_arr) {
            *slot = g.as_u64().ok_or("'grid' extent must be an integer")? as usize;
        }
        Ok(Self {
            variant: v.req_str("variant")?,
            schedule: v.req_str("schedule")?,
            precision: v.req_str("precision")?,
            grid,
            steps: v.req_u64("steps")? as usize,
            threads: v.req_u64("threads")? as usize,
            warmup: v.req_u64("warmup")? as usize,
            reps: v.req_u64("reps")? as usize,
            median_secs: v.req_f64("median_secs")?,
            min_secs: v.req_f64("min_secs")?,
            max_secs: v.req_f64("max_secs")?,
            mups: v.req_f64("mups")?,
            interior_updates: v.req_u64("interior_updates")?,
            modeled_dram_bytes: v.req_u64("modeled_dram_bytes")?,
            // `null` is how the writer encodes NaN.
            kappa: v.req_nullable_f64("kappa")?.unwrap_or(f64::NAN),
            barrier_share: v.req_nullable_f64("barrier_share")?,
            telemetry: match v.req("telemetry")? {
                Json::Null => None,
                t => Some(Telemetry::from_json(t)?),
            },
        })
    }
}

/// A full BENCH report: schema version, workload kind, host, entries.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Always [`BENCH_SCHEMA_VERSION`] when produced by this build.
    pub schema_version: u64,
    /// `"stencil"` or `"lbm"`.
    pub kind: String,
    /// The measuring host.
    pub host: HostInfo,
    /// One row per measured variant configuration.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// An empty report for `kind` on the current host.
    pub fn new(kind: impl Into<String>) -> Self {
        Self {
            schema_version: BENCH_SCHEMA_VERSION,
            kind: kind.into(),
            host: HostInfo::detect(),
            entries: Vec::new(),
        }
    }

    /// Serializes to the JSON tree.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("kind".into(), Json::str(&*self.kind)),
            ("host".into(), self.host.to_json()),
            (
                "entries".into(),
                Json::Arr(self.entries.iter().map(BenchEntry::to_json).collect()),
            ),
        ])
    }

    /// Serializes to pretty-printed JSON text (trailing newline included).
    pub fn to_json_string(&self) -> String {
        format!("{}\n", self.to_json())
    }

    /// Deserializes and schema-checks a JSON tree.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let version = v.req_u64("schema_version")?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} unsupported (expected {BENCH_SCHEMA_VERSION}; \
                 v1 reports predate the telemetry section, v2 reports predate the host \
                 fingerprint, v3 reports predate the schedule provenance — regenerate \
                 with `threefive bench`)"
            ));
        }
        let kind = v.req_str("kind")?;
        if kind != "stencil" && kind != "lbm" {
            return Err(format!("unknown report kind '{kind}'"));
        }
        let host = HostInfo::from_json(v.req("host")?)?;
        let entries = v
            .req_arr("entries")?
            .iter()
            .map(BenchEntry::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema_version: version,
            kind,
            host,
            entries,
        })
    }

    /// Parses and schema-checks JSON text — the `--validate` entry point.
    pub fn validate_str(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterRegistry;
    use threefive_sync::WaitHistogram;

    fn sample_entry() -> BenchEntry {
        BenchEntry {
            variant: "3.5D blocking".into(),
            schedule: "lag35d".into(),
            precision: "sp".into(),
            grid: [64, 64, 64],
            steps: 4,
            threads: 8,
            warmup: 1,
            reps: 3,
            median_secs: 0.01,
            min_secs: 0.009,
            max_secs: 0.012,
            mups: 95.3,
            interior_updates: 953312,
            modeled_dram_bytes: 123456,
            kappa: 1.18,
            barrier_share: Some(0.07),
            telemetry: None,
        }
    }

    fn sample_telemetry() -> Telemetry {
        let mut counters = CounterRegistry::new();
        counters.set("mups_measured", 95.3);
        counters.set("roofline_attainment_pct", 2.4);
        let mut hist = WaitHistogram::default();
        hist.record(3_000);
        Telemetry {
            machine: "Core i7 (Nehalem, 4C/3.2GHz)".into(),
            counters,
            wait_hist: Some(hist),
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let mut r = BenchReport::new("stencil");
        let mut e1 = sample_entry();
        e1.telemetry = Some(sample_telemetry());
        r.entries.push(e1);
        let mut e2 = sample_entry();
        e2.variant = "scalar".into();
        e2.barrier_share = None;
        e2.kappa = f64::NAN; // writer maps to null, reader to NaN
        r.entries.push(e2);

        let text = r.to_json_string();
        let back = BenchReport::validate_str(&text).expect("schema-valid");
        assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(back.kind, "stencil");
        assert_eq!(back.entries[0], r.entries[0]);
        assert_eq!(
            back.entries[0].telemetry.as_ref().unwrap(),
            &sample_telemetry()
        );
        assert_eq!(back.entries[1].barrier_share, None);
        assert_eq!(back.entries[1].telemetry, None);
        assert!(back.entries[1].kappa.is_nan());
        assert_eq!(back.host, r.host);
    }

    #[test]
    fn missing_nullable_fields_are_rejected_by_name() {
        // Dropping a required-but-nullable key must fail with the field
        // named — under v1 a missing 'kappa' silently validated as NaN.
        let mut r = BenchReport::new("stencil");
        r.entries.push(sample_entry());
        for key in ["kappa", "barrier_share", "telemetry"] {
            let Json::Obj(mut fields) = r.entries[0].to_json() else {
                unreachable!()
            };
            fields.retain(|(name, _)| name != key);
            let mut doc = r.to_json();
            if let Json::Obj(top) = &mut doc {
                for (name, val) in top.iter_mut() {
                    if name == "entries" {
                        *val = Json::Arr(vec![Json::Obj(fields.clone())]);
                    }
                }
            }
            let err = BenchReport::from_json(&doc).unwrap_err();
            assert!(err.contains(&format!("'{key}'")), "{key}: {err}");
        }
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut r = BenchReport::new("lbm");
        r.schema_version = BENCH_SCHEMA_VERSION + 1;
        let err = BenchReport::validate_str(&r.to_json_string()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn missing_fields_are_rejected() {
        assert!(BenchReport::validate_str("{}").is_err());
        assert!(BenchReport::validate_str("not json").is_err());
        let no_entries = r#"{"schema_version": 4, "kind": "stencil",
            "host": {"os":"l","arch":"x","available_threads":1,"cpu":"c",
                     "fingerprint":"l-x-1t-0"}}"#;
        let err = BenchReport::validate_str(no_entries).unwrap_err();
        assert!(err.contains("entries"), "{err}");
        // A v2-era host object (no fingerprint) names the missing field.
        let no_fp = r#"{"schema_version": 4, "kind": "stencil",
            "host": {"os":"l","arch":"x","available_threads":1,"cpu":"c"},
            "entries": []}"#;
        let err = BenchReport::validate_str(no_fp).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn old_schema_versions_are_rejected_with_guidance() {
        for old in [1u64, 2, 3] {
            let mut r = BenchReport::new("stencil");
            r.schema_version = old;
            let err = BenchReport::validate_str(&r.to_json_string()).unwrap_err();
            assert!(err.contains(&format!("schema_version {old}")), "{err}");
            assert!(err.contains("regenerate"), "{err}");
        }
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let a = HostInfo::fingerprint_of("linux", "x86_64", 8, "Xeon");
        assert_eq!(a, HostInfo::fingerprint_of("linux", "x86_64", 8, "Xeon"));
        assert!(a.starts_with("linux-x86_64-8t-"), "{a}");
        // Every input field participates in the hash.
        assert_ne!(a, HostInfo::fingerprint_of("linux", "x86_64", 8, "EPYC"));
        assert_ne!(a, HostInfo::fingerprint_of("linux", "x86_64", 4, "Xeon"));
        // detect() stamps its own fingerprint consistently.
        let h = HostInfo::detect();
        assert_eq!(
            h.fingerprint,
            HostInfo::fingerprint_of(&h.os, &h.arch, h.available_threads, &h.cpu)
        );
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let r = BenchReport::new("gpu-sim");
        assert!(BenchReport::validate_str(&r.to_json_string()).is_err());
    }

    #[test]
    fn spread_is_relative_to_median() {
        let e = sample_entry();
        assert!((e.spread() - 0.3).abs() < 1e-12);
    }
}
