//! The persistent tuning database: `TUNE.json`.
//!
//! Same conventions as the BENCH/SERVICE schemas in `threefive-bench`:
//! hand-validated JSON (no serde), a `schema_version` gate with
//! regeneration guidance, and required fields that fail validation by
//! name. Entries are keyed by (host fingerprint, kernel, precision,
//! grid); [`TuneDb::record_winner`] enforces the two invariants the
//! whole design hangs on:
//!
//! * **never persist a loser** — an entry whose MUPS is below its own
//!   measured scalar reference is rejected with an error, making the
//!   "tuned plan 100× slower than scalar" failure mode structurally
//!   impossible to store;
//! * **monotonic improvement** — re-tuning an existing key only replaces
//!   the stored plan when the new winner is strictly faster.
//!
//! [`TuneDb::revalidate`] re-checks every stored entry against the
//! symbolic race checker and the structural invariants, so a database
//! carried across builds is detected as stale instead of trusted.

use std::fmt;
use std::path::Path;

use threefive_analyze::schedule::{check_schedule, ScheduleConfig, ScheduleModel};
use threefive_bench::json::Json;
use threefive_bench::probe::ProbeWorkload;
use threefive_core::exec::ScheduleKind;
use threefive_core::planner::PlanSource;

/// Version stamped into every database; bump on breaking schema changes.
///
/// v2 adds a required per-entry `schedule` (the temporal-blocking
/// schedule the winner was probed under); v1 databases are rejected with
/// regeneration guidance.
pub const TUNE_SCHEMA_VERSION: u64 = 2;

/// Stencil radius of both tunable kernels (7-point and D3Q19 LBM).
const R: usize = 1;

/// A winning blocking configuration with its provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TunedPlan {
    /// Block edge (dimX = dimY).
    pub tile: usize,
    /// Temporal depth dim_T.
    pub dim_t: usize,
    /// Team size.
    pub threads: usize,
    /// Temporal-blocking schedule the winner runs under.
    pub schedule: ScheduleKind,
    /// Where the plan came from ("tuned" for measured winners;
    /// "analytical" when the search kept the Eq. 1–4 seed).
    pub source: PlanSource,
}

/// One database row: key, plan, and the measurements that justify it.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneEntry {
    /// Host fingerprint the probes ran on (`HostInfo::fingerprint`).
    pub fingerprint: String,
    /// `"7pt"` or `"lbm"`.
    pub kernel: String,
    /// `"sp"` or `"dp"`.
    pub precision: String,
    /// Cubic grid extents the plan was tuned for.
    pub grid: [usize; 3],
    /// The winning plan.
    pub plan: TunedPlan,
    /// The winner's probe throughput.
    pub mups: f64,
    /// The scalar reference's probe throughput on the same problem —
    /// the floor `mups` must beat for the entry to exist at all.
    pub scalar_mups: f64,
    /// The analytical seed's probe throughput, when it was probed.
    pub analytical_mups: Option<f64>,
    /// Probes spent finding this winner.
    pub probes: u64,
    /// Time steps per probe repetition.
    pub probe_steps: usize,
}

impl TuneEntry {
    fn key(&self) -> (&str, &str, &str, [usize; 3]) {
        (&self.fingerprint, &self.kernel, &self.precision, self.grid)
    }

    /// The schedule-checker configuration this entry's plan executes
    /// under: `ly` is the loaded tile row count (owned rows + the 2R·dim_T
    /// halo the chunk streams in).
    pub fn schedule_config(&self) -> ScheduleConfig {
        ScheduleConfig {
            r: R,
            c: self.plan.dim_t.max(1),
            threads: self.plan.threads.max(1),
            nz: self.grid[2].max(1),
            ly: self.plan.tile.min(self.grid[1]).max(1) + 2 * R * self.plan.dim_t,
        }
    }

    /// Structural + race-freedom validation of one entry. Returns every
    /// problem found (an empty vec means the entry is trustworthy).
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        let label = format!(
            "{} {} {}x{}x{}",
            self.kernel, self.precision, self.grid[0], self.grid[1], self.grid[2]
        );
        if ProbeWorkload::parse(&self.kernel).is_none() {
            out.push(format!("{label}: unknown kernel '{}'", self.kernel));
        }
        if self.precision != "sp" && self.precision != "dp" {
            out.push(format!("{label}: unknown precision '{}'", self.precision));
        }
        if self.grid.contains(&0) {
            out.push(format!("{label}: zero grid extent"));
        }
        let p = &self.plan;
        if p.tile == 0 || p.dim_t == 0 || p.threads == 0 {
            out.push(format!(
                "{label}: degenerate plan tile={} dim_t={} threads={}",
                p.tile, p.dim_t, p.threads
            ));
        }
        if p.tile <= 2 * R && p.tile > 0 {
            out.push(format!(
                "{label}: tile {} has no interior for radius {R}",
                p.tile
            ));
        }
        if !(self.mups.is_finite() && self.mups > 0.0) {
            out.push(format!("{label}: non-positive mups {}", self.mups));
        }
        if !(self.scalar_mups.is_finite() && self.scalar_mups > 0.0) {
            out.push(format!(
                "{label}: non-positive scalar_mups {}",
                self.scalar_mups
            ));
        }
        if self.mups < self.scalar_mups {
            out.push(format!(
                "{label}: stored winner ({:.2} MUPS) loses to its own scalar \
                 reference ({:.2} MUPS) — a loser was persisted",
                self.mups, self.scalar_mups
            ));
        }
        if out.is_empty() {
            let violations = check_schedule(
                &self.schedule_config(),
                &ScheduleModel::for_kind(self.plan.schedule),
            );
            if let Some(v) = violations.first() {
                out.push(format!("{label}: schedule race: {v:?}"));
            }
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("fingerprint".into(), Json::str(&*self.fingerprint)),
            ("kernel".into(), Json::str(&*self.kernel)),
            ("precision".into(), Json::str(&*self.precision)),
            (
                "grid".into(),
                Json::Arr(self.grid.iter().map(|&g| Json::Num(g as f64)).collect()),
            ),
            ("tile".into(), Json::Num(self.plan.tile as f64)),
            ("dim_t".into(), Json::Num(self.plan.dim_t as f64)),
            ("threads".into(), Json::Num(self.plan.threads as f64)),
            ("schedule".into(), Json::str(self.plan.schedule.as_str())),
            ("source".into(), Json::str(self.plan.source.as_str())),
            ("mups".into(), Json::num(self.mups)),
            ("scalar_mups".into(), Json::num(self.scalar_mups)),
            (
                "analytical_mups".into(),
                match self.analytical_mups {
                    Some(m) => Json::num(m),
                    None => Json::Null,
                },
            ),
            ("probes".into(), Json::Num(self.probes as f64)),
            ("probe_steps".into(), Json::Num(self.probe_steps as f64)),
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
        let source_s = v.req_str("source")?;
        let source = PlanSource::parse(&source_s)
            .ok_or_else(|| format!("unknown plan source '{source_s}'"))?;
        let schedule_s = v.req_str("schedule")?;
        let schedule = ScheduleKind::parse(&schedule_s)
            .ok_or_else(|| format!("unknown schedule '{schedule_s}'"))?;
        Ok(Self {
            fingerprint: v.req_str("fingerprint")?,
            kernel: v.req_str("kernel")?,
            precision: v.req_str("precision")?,
            grid,
            plan: TunedPlan {
                tile: v.req_u64("tile")? as usize,
                dim_t: v.req_u64("dim_t")? as usize,
                threads: v.req_u64("threads")? as usize,
                schedule,
                source,
            },
            mups: v.req_f64("mups")?,
            scalar_mups: v.req_f64("scalar_mups")?,
            analytical_mups: v.req_nullable_f64("analytical_mups")?,
            probes: v.req_u64("probes")?,
            probe_steps: v.req_u64("probe_steps")? as usize,
        })
    }
}

/// What [`TuneDb::record_winner`] did with a candidate entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecordOutcome {
    /// No entry existed for the key; the winner was stored.
    Inserted,
    /// The winner beat the stored entry, which it replaced.
    Improved {
        /// The replaced entry's MUPS.
        from: f64,
    },
    /// The stored entry is at least as fast; nothing changed.
    Kept {
        /// The stored entry's MUPS.
        best: f64,
    },
}

impl fmt::Display for RecordOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Inserted => write!(f, "stored (new entry)"),
            Self::Improved { from } => write!(f, "stored (improved on {from:.2} MUPS)"),
            Self::Kept { best } => write!(f, "kept existing entry ({best:.2} MUPS)"),
        }
    }
}

/// The whole `TUNE.json` database.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneDb {
    /// Stored entries, one per (fingerprint, kernel, precision, grid).
    pub entries: Vec<TuneEntry>,
}

impl TuneDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stored entry for a key, if any.
    pub fn lookup(
        &self,
        fingerprint: &str,
        kernel: &str,
        precision: &str,
        grid: [usize; 3],
    ) -> Option<&TuneEntry> {
        self.entries
            .iter()
            .find(|e| e.key() == (fingerprint, kernel, precision, grid))
    }

    /// Records a tuning winner, enforcing the two core invariants.
    ///
    /// Errors when the entry's own measurements show it losing to the
    /// scalar reference or when the plan is structurally degenerate —
    /// such candidates belong in the search history, never in the
    /// database. On success says whether the entry was inserted,
    /// replaced a slower one, or was dropped in favor of a stored
    /// faster one (monotonic improvement).
    pub fn record_winner(&mut self, entry: TuneEntry) -> Result<RecordOutcome, String> {
        if entry.mups < entry.scalar_mups {
            return Err(format!(
                "refusing to persist a losing plan: {:.2} MUPS < scalar reference {:.2} MUPS \
                 (tile={} dim_t={} threads={})",
                entry.mups,
                entry.scalar_mups,
                entry.plan.tile,
                entry.plan.dim_t,
                entry.plan.threads
            ));
        }
        let structural = entry.problems();
        if !structural.is_empty() {
            return Err(format!(
                "refusing to persist an invalid entry: {}",
                structural.join("; ")
            ));
        }
        match self.entries.iter_mut().find(|e| e.key() == entry.key()) {
            Some(existing) if existing.mups >= entry.mups => Ok(RecordOutcome::Kept {
                best: existing.mups,
            }),
            Some(existing) => {
                let from = existing.mups;
                *existing = entry;
                Ok(RecordOutcome::Improved { from })
            }
            None => {
                self.entries.push(entry);
                Ok(RecordOutcome::Inserted)
            }
        }
    }

    /// Re-checks every stored entry (stale-entry detection): structural
    /// invariants, winner-beats-scalar, and the symbolic race checker.
    /// Returns every problem found across the database.
    pub fn revalidate(&self) -> Vec<String> {
        self.entries.iter().flat_map(TuneEntry::problems).collect()
    }

    /// Serializes to the JSON tree.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(TUNE_SCHEMA_VERSION as f64),
            ),
            (
                "entries".into(),
                Json::Arr(self.entries.iter().map(TuneEntry::to_json).collect()),
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
        if version != TUNE_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} unsupported (expected {TUNE_SCHEMA_VERSION}; \
                 v1 databases predate the schedule axis — regenerate with `threefive tune`)"
            ));
        }
        let entries = v
            .req_arr("entries")?
            .iter()
            .map(TuneEntry::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { entries })
    }

    /// Parses and schema-checks JSON text — the `--validate` entry point.
    pub fn validate_str(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }

    /// Loads a database from disk; `Ok(None)` when the file does not
    /// exist (a fresh host), `Err` when it exists but fails validation.
    pub fn load(path: &Path) -> Result<Option<Self>, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::validate_str(&text)
                .map(Some)
                .map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Writes the database to disk, creating parent directories as
    /// needed.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json_string()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(mups: f64, scalar: f64) -> TuneEntry {
        TuneEntry {
            fingerprint: "linux-x86_64-4t-deadbeef".into(),
            kernel: "7pt".into(),
            precision: "sp".into(),
            grid: [64, 64, 64],
            plan: TunedPlan {
                tile: 32,
                dim_t: 2,
                threads: 2,
                schedule: ScheduleKind::Lag35d,
                source: PlanSource::Tuned,
            },
            mups,
            scalar_mups: scalar,
            analytical_mups: Some(90.0),
            probes: 12,
            probe_steps: 2,
        }
    }

    #[test]
    fn round_trips_through_json_text() {
        let mut db = TuneDb::new();
        db.record_winner(entry(120.0, 100.0)).unwrap();
        let mut lbm = entry(80.0, 60.0);
        lbm.kernel = "lbm".into();
        lbm.analytical_mups = None;
        db.record_winner(lbm).unwrap();
        let back = TuneDb::validate_str(&db.to_json_string()).expect("schema-valid");
        assert_eq!(back, db);
        assert!(back.revalidate().is_empty());
    }

    #[test]
    fn losers_are_never_persisted() {
        let mut db = TuneDb::new();
        let err = db.record_winner(entry(50.0, 100.0)).unwrap_err();
        assert!(err.contains("losing plan"), "{err}");
        assert!(db.entries.is_empty());
    }

    #[test]
    fn degenerate_plans_are_never_persisted() {
        let mut db = TuneDb::new();
        let mut e = entry(120.0, 100.0);
        e.plan.dim_t = 0;
        assert!(db.record_winner(e).is_err());
        let mut e = entry(120.0, 100.0);
        e.plan.tile = 2; // no interior at R = 1
        assert!(db.record_winner(e).is_err());
        assert!(db.entries.is_empty());
    }

    #[test]
    fn improvement_is_monotonic() {
        let mut db = TuneDb::new();
        assert_eq!(
            db.record_winner(entry(120.0, 100.0)).unwrap(),
            RecordOutcome::Inserted
        );
        // A slower re-tune keeps the stored entry.
        assert_eq!(
            db.record_winner(entry(110.0, 100.0)).unwrap(),
            RecordOutcome::Kept { best: 120.0 }
        );
        assert_eq!(db.lookup_first().mups, 120.0);
        // A faster re-tune replaces it.
        assert_eq!(
            db.record_winner(entry(150.0, 100.0)).unwrap(),
            RecordOutcome::Improved { from: 120.0 }
        );
        assert_eq!(db.lookup_first().mups, 150.0);
        assert_eq!(db.entries.len(), 1);
    }

    impl TuneDb {
        fn lookup_first(&self) -> &TuneEntry {
            self.lookup("linux-x86_64-4t-deadbeef", "7pt", "sp", [64, 64, 64])
                .expect("entry present")
        }
    }

    #[test]
    fn lookup_is_keyed_on_all_four_fields() {
        let mut db = TuneDb::new();
        db.record_winner(entry(120.0, 100.0)).unwrap();
        assert!(db.lookup_first().mups == 120.0);
        assert!(db.lookup("other-host", "7pt", "sp", [64, 64, 64]).is_none());
        assert!(db
            .lookup("linux-x86_64-4t-deadbeef", "lbm", "sp", [64, 64, 64])
            .is_none());
        assert!(db
            .lookup("linux-x86_64-4t-deadbeef", "7pt", "dp", [64, 64, 64])
            .is_none());
        assert!(db
            .lookup("linux-x86_64-4t-deadbeef", "7pt", "sp", [32, 32, 32])
            .is_none());
    }

    #[test]
    fn revalidate_flags_hand_edited_losers_and_races() {
        let mut db = TuneDb::new();
        db.record_winner(entry(120.0, 100.0)).unwrap();
        // Simulate a hand-edited (or stale) database: flip the stored
        // numbers so the winner now loses.
        db.entries[0].mups = 10.0;
        let problems = db.revalidate();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("loses to its own scalar"),
            "{problems:?}"
        );
    }

    #[test]
    fn wrong_schema_version_is_rejected_with_guidance() {
        let db = TuneDb::new();
        let text = db
            .to_json_string()
            .replace("\"schema_version\": 2", "\"schema_version\": 99");
        let err = TuneDb::validate_str(&text).unwrap_err();
        assert!(err.contains("schema_version 99"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn v1_databases_are_rejected_with_guidance() {
        // A pre-schedule (v1) database: no "schedule" key anywhere.
        let v1 = r#"{"schema_version": 1, "entries": [{
            "fingerprint": "linux-x86_64-4t-deadbeef",
            "kernel": "7pt", "precision": "sp", "grid": [64, 64, 64],
            "tile": 32, "dim_t": 2, "threads": 2, "source": "tuned",
            "mups": 120.0, "scalar_mups": 100.0, "analytical_mups": null,
            "probes": 12, "probe_steps": 2}]}"#;
        let err = TuneDb::validate_str(v1).unwrap_err();
        assert!(err.contains("schema_version 1"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
        // A v2 entry without a schedule is malformed, not defaulted.
        let v2_missing = v1.replace("\"schema_version\": 1", "\"schema_version\": 2");
        let err = TuneDb::validate_str(&v2_missing).unwrap_err();
        assert!(err.contains("schedule"), "{err}");
    }

    #[test]
    fn non_lag_schedules_persist_and_round_trip() {
        let mut db = TuneDb::new();
        for (i, schedule) in ScheduleKind::ALL.into_iter().enumerate() {
            let mut e = entry(120.0, 100.0);
            e.grid = [64, 64, 64 + i]; // distinct keys
            e.plan.schedule = schedule;
            db.record_winner(e).unwrap();
        }
        let back = TuneDb::validate_str(&db.to_json_string()).expect("schema-valid");
        assert_eq!(back, db);
        assert!(back.revalidate().is_empty());
        let schedules: Vec<_> = back.entries.iter().map(|e| e.plan.schedule).collect();
        assert_eq!(schedules, ScheduleKind::ALL.to_vec());
    }

    #[test]
    fn missing_fields_are_rejected_by_name() {
        let mut db = TuneDb::new();
        db.record_winner(entry(120.0, 100.0)).unwrap();
        for key in ["scalar_mups", "source", "analytical_mups", "probe_steps"] {
            let text = db.to_json_string().replace(&format!("\"{key}\""), "\"x\"");
            let err = TuneDb::validate_str(&text).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
    }

    #[test]
    fn load_distinguishes_absent_from_invalid() {
        let dir = std::env::temp_dir().join(format!("tune-db-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("TUNE.json");
        let _ = std::fs::remove_file(&path);
        assert_eq!(TuneDb::load(&path).unwrap(), None);
        let mut db = TuneDb::new();
        db.record_winner(entry(120.0, 100.0)).unwrap();
        db.save(&path).unwrap();
        assert_eq!(TuneDb::load(&path).unwrap(), Some(db));
        std::fs::write(&path, "{ not json").unwrap();
        assert!(TuneDb::load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
