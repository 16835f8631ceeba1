//! Schema-versioned `ANALYZE.json` report: lint findings + schedule
//! verdict in one machine-readable document.
//!
//! Mirrors the `BENCH_*.json` discipline from `threefive-bench`: the
//! report is hand-validated (no serde) and [`AnalyzeReport::validate_str`]
//! is the single source of truth for well-formedness, exercised by the
//! round-trip tests and by CI before archiving the artifact.

use crate::schedule::RaceViolation;
use threefive_bench::json::Json;

/// Version stamped into every report; bump on breaking schema changes.
///
/// v2: the schedule verdict covers every shipped schedule (lag35d,
/// wavefront, diamond); `schedule.per_schedule` records the per-schedule
/// config counts and each violation names its schedule.
///
/// v3: a nullable `model_check` section records the concurrency model
/// checker's per-model explored-state counts and the mutant-suite
/// verdicts (null when `--model-check` was not requested).
pub const ANALYZE_SCHEMA_VERSION: u64 = 3;

/// One lint finding at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `safety-comment`, `hot-path-alloc`).
    pub rule: String,
    /// Path of the offending file, relative to the analysis root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// `None` if the finding counts against `--deny-findings`; otherwise
    /// how it was silenced (`"inline"` or `"baseline"`).
    pub suppressed: Option<String>,
}

impl Finding {
    /// `file:line` prefix used in terminal output.
    pub fn locus(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("rule".into(), Json::str(&*self.rule)),
            ("file".into(), Json::str(&*self.file)),
            ("line".into(), Json::Num(self.line as f64)),
            ("message".into(), Json::str(&*self.message)),
            (
                "suppressed".into(),
                match &self.suppressed {
                    Some(s) => Json::str(&**s),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let suppressed = match v.req("suppressed")? {
            Json::Null => None,
            Json::Str(s) => Some(s.clone()),
            _ => return Err("field 'suppressed' must be a string or null".into()),
        };
        Ok(Self {
            rule: v.req_str("rule")?,
            file: v.req_str("file")?,
            line: v.req_u64("line")? as usize,
            message: v.req_str("message")?,
            suppressed,
        })
    }
}

/// Exploration statistics for one model-checked scenario (one entry per
/// model in `crates/modelcheck`'s catalog).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelCheckEntry {
    /// Model name (e.g. `barrier-wait-2x2`).
    pub name: String,
    /// Deadline semantics the model ran under (`never` or `nondet`).
    pub time_mode: String,
    /// Number of complete schedules explored.
    pub schedules: u64,
    /// Total scheduling decisions taken across all schedules.
    pub steps: u64,
    /// `true` iff the state space was exhausted within budget.
    pub complete: bool,
    /// `true` iff the preemption bound pruned any schedule.
    pub bounded: bool,
    /// `true` iff exploration found a counterexample.
    pub counterexample: bool,
}

impl ModelCheckEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(&*self.name)),
            ("time_mode".into(), Json::str(&*self.time_mode)),
            ("schedules".into(), Json::Num(self.schedules as f64)),
            ("steps".into(), Json::Num(self.steps as f64)),
            ("complete".into(), Json::Bool(self.complete)),
            ("bounded".into(), Json::Bool(self.bounded)),
            ("counterexample".into(), Json::Bool(self.counterexample)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            name: v.req_str("name")?,
            time_mode: v.req_str("time_mode")?,
            schedules: v.req_u64("schedules")?,
            steps: v.req_u64("steps")?,
            complete: v.req_bool("complete")?,
            bounded: v.req_bool("bounded")?,
            counterexample: v.req_bool("counterexample")?,
        })
    }
}

/// One seeded-bug verdict from the model checker's mutant suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutantEntry {
    /// Mutation slug (e.g. `drop-poison-check`).
    pub mutation: String,
    /// Model the mutant ran under.
    pub model: String,
    /// `true` iff exploration produced a counterexample (it must).
    pub caught: bool,
    /// Schedules explored before the verdict.
    pub schedules: u64,
}

impl MutantEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("mutation".into(), Json::str(&*self.mutation)),
            ("model".into(), Json::str(&*self.model)),
            ("caught".into(), Json::Bool(self.caught)),
            ("schedules".into(), Json::Num(self.schedules as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            mutation: v.req_str("mutation")?,
            model: v.req_str("model")?,
            caught: v.req_bool("caught")?,
            schedules: v.req_u64("schedules")?,
        })
    }
}

/// The `model_check` report section: per-model explored-state counts and
/// the mutant-suite verdicts. `None` in [`AnalyzeReport`] when the run
/// did not request `--model-check` (serialized as JSON `null`).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ModelCheckSection {
    /// One entry per catalog model, in catalog order.
    pub models: Vec<ModelCheckEntry>,
    /// One entry per seeded mutant (empty when the mutant suite was
    /// skipped).
    pub mutants: Vec<MutantEntry>,
}

impl ModelCheckSection {
    /// `true` iff every model explored cleanly (no counterexample) and
    /// every mutant that ran was caught.
    pub fn is_clean(&self) -> bool {
        self.models.iter().all(|m| !m.counterexample) && self.mutants.iter().all(|m| m.caught)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "models".into(),
                Json::Arr(self.models.iter().map(ModelCheckEntry::to_json).collect()),
            ),
            (
                "mutants".into(),
                Json::Arr(self.mutants.iter().map(MutantEntry::to_json).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let models = v
            .req_arr("models")?
            .iter()
            .map(ModelCheckEntry::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mutants = v
            .req_arr("mutants")?
            .iter()
            .map(MutantEntry::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { models, mutants })
    }
}

/// The complete output of one `threefive analyze` run.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzeReport {
    /// Schema version ([`ANALYZE_SCHEMA_VERSION`] when freshly produced).
    pub schema_version: u64,
    /// Number of `.rs` files the lint walked.
    pub files_scanned: usize,
    /// Every lint finding, suppressed or not, in walk order.
    pub findings: Vec<Finding>,
    /// Number of (R, dim_t, threads, nz, ly) schedule configs checked,
    /// summed over every schedule.
    pub configs_checked: usize,
    /// Per-schedule config counts, in the canonical schedule order.
    pub schedule_configs: Vec<(String, usize)>,
    /// Schedule-checker counterexamples (empty ⇔ certified race-free).
    pub violations: Vec<RaceViolation>,
    /// Concurrency model-checker verdicts; `None` when `--model-check`
    /// was not requested (serialized as `null`).
    pub model_check: Option<ModelCheckSection>,
}

impl AnalyzeReport {
    /// Findings that count against `--deny-findings`.
    pub fn active_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// `true` iff the tree is clean: no unsuppressed lint finding, a
    /// race-free schedule verdict, and (when the model checker ran) no
    /// concurrency counterexample and every mutant caught.
    pub fn is_clean(&self) -> bool {
        self.active_findings().next().is_none()
            && self.violations.is_empty()
            && self
                .model_check
                .as_ref()
                .is_none_or(ModelCheckSection::is_clean)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("tool".into(), Json::str("threefive-analyze")),
            (
                "lint".into(),
                Json::Obj(vec![
                    ("files_scanned".into(), Json::Num(self.files_scanned as f64)),
                    (
                        "findings".into(),
                        Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
                    ),
                ]),
            ),
            (
                "schedule".into(),
                Json::Obj(vec![
                    (
                        "configs_checked".into(),
                        Json::Num(self.configs_checked as f64),
                    ),
                    (
                        "per_schedule".into(),
                        Json::Obj(
                            self.schedule_configs
                                .iter()
                                .map(|(name, n)| (name.clone(), Json::Num(*n as f64)))
                                .collect(),
                        ),
                    ),
                    ("race_free".into(), Json::Bool(self.violations.is_empty())),
                    (
                        "violations".into(),
                        Json::Arr(self.violations.iter().map(RaceViolation::to_json).collect()),
                    ),
                ]),
            ),
            (
                "model_check".into(),
                match &self.model_check {
                    Some(mc) => mc.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Serializes to the `ANALYZE.json` wire format.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses and schema-checks JSON text — the validation entry point.
    pub fn validate_str(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("parse error: {e}"))?;
        let schema_version = doc.req_u64("schema_version")?;
        if schema_version != ANALYZE_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {schema_version} != {ANALYZE_SCHEMA_VERSION}"
            ));
        }
        let tool = doc.req_str("tool")?;
        if tool != "threefive-analyze" {
            return Err(format!("unexpected tool '{tool}'"));
        }
        let lint = doc.req("lint")?;
        let findings = lint
            .req_arr("findings")?
            .iter()
            .map(Finding::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let schedule = doc.req("schedule")?;
        let schedule_configs = match schedule.req("per_schedule")? {
            Json::Obj(entries) => entries
                .iter()
                .map(|(name, v)| {
                    v.as_u64()
                        .map(|n| (name.clone(), n as usize))
                        .ok_or_else(|| format!("per_schedule.{name}: expected integer"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("field 'per_schedule' must be an object".into()),
        };
        let race_free = schedule.req_bool("race_free")?;
        let violations = schedule
            .req_arr("violations")?
            .iter()
            .map(RaceViolation::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if race_free != violations.is_empty() {
            return Err("schedule: 'race_free' contradicts 'violations'".into());
        }
        // v3: the key must be present so its absence is a schema error,
        // but null is a valid value (model checker not requested).
        let model_check = match doc.req("model_check")? {
            Json::Null => None,
            v => Some(ModelCheckSection::from_json(v)?),
        };
        Ok(Self {
            schema_version,
            files_scanned: lint.req_u64("files_scanned")? as usize,
            findings,
            configs_checked: schedule.req_u64("configs_checked")? as usize,
            schedule_configs,
            violations,
            model_check,
        })
    }
}

/// One `ANALYZE_baseline.json` entry: accept up to `allowed` findings of
/// `rule` in `file` as pre-existing (count-based, so unrelated line churn
/// does not invalidate the baseline).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule identifier the exception applies to.
    pub rule: String,
    /// Path relative to the analysis root.
    pub file: String,
    /// Maximum number of findings of this (rule, file) to suppress.
    pub allowed: usize,
}

/// Parses `ANALYZE_baseline.json` text.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = Json::parse(text).map_err(|e| format!("baseline parse error: {e}"))?;
    let version = doc.req_u64("schema_version")?;
    if version != ANALYZE_SCHEMA_VERSION {
        return Err(format!("baseline schema_version {version} unsupported"));
    }
    doc.req_arr("entries")?
        .iter()
        .map(|e| {
            Ok(BaselineEntry {
                rule: e.req_str("rule")?,
                file: e.req_str("file")?,
                allowed: e.req_u64("allowed")? as usize,
            })
        })
        .collect()
}

/// Marks up to `allowed` findings per baseline (rule, file) pair as
/// `suppressed: "baseline"`, first-come in walk order.
pub fn apply_baseline(findings: &mut [Finding], baseline: &[BaselineEntry]) {
    let mut budget: Vec<(usize, usize)> = baseline.iter().map(|b| (0, b.allowed)).collect();
    for f in findings.iter_mut() {
        if f.suppressed.is_some() {
            continue;
        }
        for (b, (used, allowed)) in baseline.iter().zip(budget.iter_mut()) {
            if *used < *allowed && b.rule == f.rule && b.file == f.file {
                f.suppressed = Some("baseline".into());
                *used += 1;
                break;
            }
        }
    }
}

/// How much of one baseline entry's budget went unused in a run: the
/// entry allows `allowed` findings but only `used` matched. Nonzero
/// slack means the tree improved and the budget can ratchet down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineSlack {
    /// Rule identifier of the baseline entry.
    pub rule: String,
    /// File the entry applies to.
    pub file: String,
    /// The entry's current budget.
    pub allowed: usize,
    /// Findings that actually consumed the budget this run.
    pub used: usize,
}

impl BaselineSlack {
    /// Unused budget (`allowed - used`).
    pub fn slack(&self) -> usize {
        self.allowed - self.used
    }
}

/// Reports every baseline entry whose budget exceeds the findings it
/// suppressed in `findings` (which must already have been through
/// [`apply_baseline`]). Empty ⇔ the baseline is tight.
pub fn baseline_slack(findings: &[Finding], baseline: &[BaselineEntry]) -> Vec<BaselineSlack> {
    baseline
        .iter()
        .filter_map(|b| {
            let used = findings
                .iter()
                .filter(|f| {
                    f.rule == b.rule
                        && f.file == b.file
                        && f.suppressed.as_deref() == Some("baseline")
                })
                .count();
            (used < b.allowed).then(|| BaselineSlack {
                rule: b.rule.clone(),
                file: b.file.clone(),
                allowed: b.allowed,
                used,
            })
        })
        .collect()
}

/// The `--write-baseline` ratchet: lowers every entry's budget to the
/// number of findings it suppressed this run and drops entries that
/// suppressed nothing. Budgets only ever go *down* — a new finding is
/// never absorbed into the baseline by rewriting it, it has to be fixed
/// or explicitly suppressed inline.
pub fn tighten_baseline(baseline: &[BaselineEntry], findings: &[Finding]) -> Vec<BaselineEntry> {
    baseline
        .iter()
        .filter_map(|b| {
            let used = findings
                .iter()
                .filter(|f| {
                    f.rule == b.rule
                        && f.file == b.file
                        && f.suppressed.as_deref() == Some("baseline")
                })
                .count();
            let allowed = used.min(b.allowed);
            (allowed > 0).then(|| BaselineEntry {
                rule: b.rule.clone(),
                file: b.file.clone(),
                allowed,
            })
        })
        .collect()
}

/// Serializes baseline entries to the `ANALYZE_baseline.json` format
/// (round-trips through [`parse_baseline`]).
pub fn baseline_to_json_string(entries: &[BaselineEntry]) -> String {
    Json::Obj(vec![
        (
            "schema_version".into(),
            Json::Num(ANALYZE_SCHEMA_VERSION as f64),
        ),
        (
            "entries".into(),
            Json::Arr(
                entries
                    .iter()
                    .map(|b| {
                        Json::Obj(vec![
                            ("rule".into(), Json::str(&*b.rule)),
                            ("file".into(), Json::str(&*b.file)),
                            ("allowed".into(), Json::Num(b.allowed as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str) -> Finding {
        Finding {
            rule: rule.into(),
            file: file.into(),
            line: 7,
            message: "m".into(),
            suppressed: None,
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let report = AnalyzeReport {
            schema_version: ANALYZE_SCHEMA_VERSION,
            files_scanned: 42,
            findings: vec![
                finding("safety-comment", "crates/x/src/lib.rs"),
                Finding {
                    suppressed: Some("inline".into()),
                    ..finding("hot-path-alloc", "crates/y/src/lib.rs")
                },
            ],
            configs_checked: 9,
            schedule_configs: vec![
                ("lag35d".into(), 3),
                ("wavefront".into(), 3),
                ("diamond".into(), 3),
            ],
            violations: Vec::new(),
            model_check: None,
        };
        let text = report.to_json_string();
        let back = AnalyzeReport::validate_str(&text).expect("schema-valid");
        assert_eq!(back, report);
        assert_eq!(back.active_findings().count(), 1);
        assert!(!back.is_clean());
    }

    #[test]
    fn model_check_section_round_trips_and_gates_cleanliness() {
        let section = ModelCheckSection {
            models: vec![ModelCheckEntry {
                name: "barrier-wait-2x2".into(),
                time_mode: "never".into(),
                schedules: 332,
                steps: 14880,
                complete: true,
                bounded: true,
                counterexample: false,
            }],
            mutants: vec![MutantEntry {
                mutation: "drop-poison-check".into(),
                model: "barrier-poison-mid".into(),
                caught: true,
                schedules: 17,
            }],
        };
        let report = AnalyzeReport {
            schema_version: ANALYZE_SCHEMA_VERSION,
            files_scanned: 1,
            findings: Vec::new(),
            configs_checked: 1,
            schedule_configs: vec![("lag35d".into(), 1)],
            violations: Vec::new(),
            model_check: Some(section),
        };
        let back = AnalyzeReport::validate_str(&report.to_json_string()).expect("schema-valid");
        assert_eq!(back, report);
        assert!(back.is_clean());

        // A counterexample or an escaped mutant makes the tree dirty.
        let mut cex = report.clone();
        cex.model_check.as_mut().unwrap().models[0].counterexample = true;
        assert!(!cex.is_clean());
        let mut escaped = report.clone();
        escaped.model_check.as_mut().unwrap().mutants[0].caught = false;
        assert!(!escaped.is_clean());
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(AnalyzeReport::validate_str("{}").is_err());
        assert!(AnalyzeReport::validate_str("not json").is_err());
        // race_free must agree with the violations list.
        let lie = r#"{"schema_version":3,"tool":"threefive-analyze",
            "lint":{"files_scanned":1,"findings":[]},
            "schedule":{"configs_checked":1,"per_schedule":{"lag35d":1},
            "race_free":false,"violations":[]},"model_check":null}"#;
        assert!(AnalyzeReport::validate_str(lie).is_err());
        // v2 requires the per-schedule config counts.
        let missing = r#"{"schema_version":3,"tool":"threefive-analyze",
            "lint":{"files_scanned":1,"findings":[]},
            "schedule":{"configs_checked":1,"race_free":true,"violations":[]},
            "model_check":null}"#;
        assert!(AnalyzeReport::validate_str(missing).is_err());
        // v3 requires the model_check key (null is fine, absence is not).
        let no_mc = r#"{"schema_version":3,"tool":"threefive-analyze",
            "lint":{"files_scanned":1,"findings":[]},
            "schedule":{"configs_checked":1,"per_schedule":{"lag35d":1},
            "race_free":true,"violations":[]}}"#;
        assert!(AnalyzeReport::validate_str(no_mc).is_err());
        // Old schema versions are rejected outright.
        let v2 = r#"{"schema_version":2,"tool":"threefive-analyze",
            "lint":{"files_scanned":1,"findings":[]},
            "schedule":{"configs_checked":1,"per_schedule":{"lag35d":1},
            "race_free":true,"violations":[]}}"#;
        assert!(AnalyzeReport::validate_str(v2).is_err());
    }

    #[test]
    fn baseline_suppresses_by_count() {
        let mut fs = vec![
            finding("hot-path-sync", "a.rs"),
            finding("hot-path-sync", "a.rs"),
            finding("hot-path-sync", "b.rs"),
        ];
        let baseline = vec![BaselineEntry {
            rule: "hot-path-sync".into(),
            file: "a.rs".into(),
            allowed: 1,
        }];
        apply_baseline(&mut fs, &baseline);
        assert_eq!(fs[0].suppressed.as_deref(), Some("baseline"));
        assert_eq!(fs[1].suppressed, None, "second finding exceeds budget");
        assert_eq!(fs[2].suppressed, None, "different file unaffected");
    }

    #[test]
    fn baseline_parses_and_rejects_bad_versions() {
        let text = r#"{"schema_version":3,"entries":[
            {"rule":"safety-comment","file":"x.rs","allowed":2}]}"#;
        let entries = parse_baseline(text).expect("valid baseline");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].allowed, 2);
        assert!(parse_baseline(r#"{"schema_version":9,"entries":[]}"#).is_err());
    }

    #[test]
    fn ratchet_only_tightens_and_reports_slack() {
        let baseline = vec![
            BaselineEntry {
                rule: "hot-path-sync".into(),
                file: "a.rs".into(),
                allowed: 3,
            },
            BaselineEntry {
                rule: "safety-comment".into(),
                file: "b.rs".into(),
                allowed: 2,
            },
        ];
        // One a.rs finding remains; b.rs is fully fixed.
        let mut fs = vec![finding("hot-path-sync", "a.rs")];
        apply_baseline(&mut fs, &baseline);
        assert_eq!(fs[0].suppressed.as_deref(), Some("baseline"));

        let slack = baseline_slack(&fs, &baseline);
        assert_eq!(slack.len(), 2);
        assert_eq!(
            (slack[0].allowed, slack[0].used, slack[0].slack()),
            (3, 1, 2)
        );
        assert_eq!((slack[1].allowed, slack[1].used), (2, 0));

        // Tightening lowers a.rs to 1 and drops b.rs entirely.
        let tight = tighten_baseline(&baseline, &fs);
        assert_eq!(
            tight,
            vec![BaselineEntry {
                rule: "hot-path-sync".into(),
                file: "a.rs".into(),
                allowed: 1,
            }]
        );
        // Re-tightening a tight baseline is a fixpoint.
        assert_eq!(tighten_baseline(&tight, &fs), tight);
        // The written form round-trips through the parser.
        let text = baseline_to_json_string(&tight);
        assert_eq!(parse_baseline(&text).expect("round-trip"), tight);

        // Budgets never go up: even if findings somehow exceeded the
        // budget, the entry is clamped at its previous allowance.
        let mut many = vec![
            finding("hot-path-sync", "a.rs"),
            finding("hot-path-sync", "a.rs"),
            finding("hot-path-sync", "a.rs"),
            finding("hot-path-sync", "a.rs"),
        ];
        let small = vec![BaselineEntry {
            rule: "hot-path-sync".into(),
            file: "a.rs".into(),
            allowed: 2,
        }];
        apply_baseline(&mut many, &small);
        let kept = tighten_baseline(&small, &many);
        assert_eq!(kept[0].allowed, 2, "ratchet must never raise a budget");
    }
}
