//! Replayable counterexample traces: schema-validated JSON in the same
//! hand-rolled `bench::json` discipline as BENCH/ANALYZE.
//!
//! A trace records the complete decision sequence of one failing
//! schedule plus the op each decision executed (for divergence checking
//! on replay) and the failure it produced. `threefive analyze
//! --model-check` writes one file per counterexample; `--replay FILE`
//! re-executes the schedule step-for-step against the current code.

use threefive_bench::json::Json;

use crate::explore::Counterexample;
use crate::sched::{Decision, TimeMode};

/// Trace schema version; bump on any incompatible layout change.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Document kind tag.
pub const TRACE_KIND: &str = "MODELCHECK_TRACE";

/// A parsed (or freshly built) replay trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Model name the schedule belongs to.
    pub model: String,
    /// Seeded mutation, `None` for the real code.
    pub mutation: Option<String>,
    /// Time mode the model ran under.
    pub time_mode: TimeMode,
    /// The decision sequence.
    pub decisions: Vec<Decision>,
    /// Human-readable op per decision (validated on replay).
    pub op_desc: Vec<String>,
    /// Failure kind tag (`deadlock` / `panic` / `property` /
    /// `divergence`).
    pub failure_kind: String,
    /// Failure message.
    pub failure_message: String,
}

impl Trace {
    /// Builds a trace from an exploration counterexample.
    pub fn from_counterexample(
        model: &str,
        mutation: Option<&str>,
        time_mode: TimeMode,
        cex: &Counterexample,
    ) -> Trace {
        Trace {
            model: model.to_string(),
            mutation: mutation.map(str::to_string),
            time_mode,
            decisions: cex.decisions.clone(),
            op_desc: cex.op_desc.clone(),
            failure_kind: cex.failure.kind().to_string(),
            failure_message: cex.failure.message(),
        }
    }

    /// Serializes to the JSON tree.
    pub fn to_json(&self) -> Json {
        let decisions = self
            .decisions
            .iter()
            .zip(&self.op_desc)
            .enumerate()
            .map(|(step, (d, op))| {
                Json::Obj(vec![
                    ("step".into(), Json::num(step as f64)),
                    ("tid".into(), Json::num(d.tid as f64)),
                    ("variant".into(), Json::num(f64::from(d.variant))),
                    ("timeout".into(), Json::Bool(d.timeout)),
                    ("op".into(), Json::str(op.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::num(TRACE_SCHEMA_VERSION as f64),
            ),
            ("kind".into(), Json::str(TRACE_KIND)),
            ("model".into(), Json::str(self.model.clone())),
            (
                "mutation".into(),
                match &self.mutation {
                    Some(m) => Json::str(m.clone()),
                    None => Json::Null,
                },
            ),
            (
                "time_mode".into(),
                Json::str(match self.time_mode {
                    TimeMode::Never => "never",
                    TimeMode::Nondet => "nondet",
                }),
            ),
            ("decisions".into(), Json::Arr(decisions)),
            (
                "failure".into(),
                Json::Obj(vec![
                    ("kind".into(), Json::str(self.failure_kind.clone())),
                    ("message".into(), Json::str(self.failure_message.clone())),
                ]),
            ),
        ])
    }

    /// Serializes to text, self-validating first (the same discipline as
    /// BENCH/ANALYZE reports: a trace that does not round-trip is a bug).
    pub fn to_text(&self) -> String {
        let text = self.to_json().to_string();
        debug_assert!(
            Trace::parse(&text).is_ok(),
            "emitted trace failed self-validation"
        );
        text
    }

    /// Parses and schema-validates a trace document.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let json = Json::parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
        let version = json.req_u64("schema_version")?;
        if version != TRACE_SCHEMA_VERSION {
            return Err(format!(
                "trace schema_version {version} != supported {TRACE_SCHEMA_VERSION}"
            ));
        }
        let kind = json.req_str("kind")?;
        if kind != TRACE_KIND {
            return Err(format!("kind `{kind}` is not `{TRACE_KIND}`"));
        }
        let model = json.req_str("model")?;
        let mutation = match json.get("mutation") {
            None | Some(Json::Null) => None,
            Some(_) => Some(json.req_str("mutation")?),
        };
        let time_mode = match json.req_str("time_mode")?.as_str() {
            "never" => TimeMode::Never,
            "nondet" => TimeMode::Nondet,
            other => return Err(format!("unknown time_mode `{other}`")),
        };
        let raw = json.req_arr("decisions")?;
        let mut decisions = Vec::with_capacity(raw.len());
        let mut op_desc = Vec::with_capacity(raw.len());
        for (i, entry) in raw.iter().enumerate() {
            let decision = || -> Result<(Decision, String), String> {
                Ok((
                    Decision {
                        tid: entry.req_u64("tid")? as usize,
                        variant: entry.req_u64("variant")? as u32,
                        timeout: entry.req_bool("timeout")?,
                    },
                    entry.req_str("op")?,
                ))
            };
            let (d, op) = decision().map_err(|e| format!("decision {i}: {e}"))?;
            decisions.push(d);
            op_desc.push(op);
        }
        let failure = json.req("failure")?;
        let failure_kind = failure.req_str("kind")?;
        let failure_message = failure.req_str("message")?;
        Ok(Trace {
            model,
            mutation,
            time_mode,
            decisions,
            op_desc,
            failure_kind,
            failure_message,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Failure;

    fn sample() -> Trace {
        Trace::from_counterexample(
            "barrier-wait-2x2",
            Some("drop-poison-check"),
            TimeMode::Never,
            &Counterexample {
                decisions: vec![
                    Decision {
                        tid: 0,
                        variant: 0,
                        timeout: false,
                    },
                    Decision {
                        tid: 1,
                        variant: 2,
                        timeout: true,
                    },
                ],
                op_desc: vec!["start".into(), "cond-wait cv0 m0".into()],
                failure: Failure::Deadlock {
                    detail: "deadlock: t0 spinning".into(),
                },
            },
        )
    }

    #[test]
    fn trace_round_trips() {
        let t = sample();
        let text = t.to_text();
        let back = Trace::parse(&text).expect("round trip");
        assert_eq!(back, t);
    }

    #[test]
    fn bad_schema_version_rejected() {
        let Json::Obj(mut fields) = sample().to_json() else {
            unreachable!()
        };
        for (k, v) in fields.iter_mut() {
            if k == "schema_version" {
                *v = Json::num(99.0);
            }
        }
        let err = Trace::parse(&Json::Obj(fields).to_string()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn missing_failure_rejected() {
        let json = sample().to_json();
        let Json::Obj(fields) = json else {
            unreachable!()
        };
        let stripped: Vec<_> = fields.into_iter().filter(|(k, _)| k != "failure").collect();
        let err = Trace::parse(&Json::Obj(stripped).to_string()).unwrap_err();
        assert!(err.contains("failure"), "{err}");
    }
}
