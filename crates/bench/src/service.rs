//! Schema-versioned machine-readable service load-test output.
//!
//! `threefive loadgen` writes one `SERVICE_load.json` per run so the
//! daemon's saturation behaviour (offered vs completed throughput,
//! latency percentiles, rejection rate, checksum verification) can be
//! recorded across PRs and validated by CI. Same conventions as the
//! BENCH schema ([`crate::report`]): hand-validated, no serde,
//! required-but-nullable fields so a truncated report fails validation
//! with the field named.

use crate::json::Json;
use crate::report::HostInfo;

/// Version stamped into every service report; bump on breaking changes.
/// v2: the shared `host` object gained a required `fingerprint` field.
pub const SERVICE_SCHEMA_VERSION: u64 = 2;

/// Counted job outcomes over one load-generation run. The identity
/// `offered == accepted + rejected` and
/// `accepted == completed + failed + timed_out` both hold for a run
/// whose every request was answered — [`ServiceReport::from_json`]
/// enforces them, so a daemon that silently dropped a job cannot
/// produce a valid report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceTotals {
    /// Solve requests sent.
    pub offered: u64,
    /// Admitted by the daemon.
    pub accepted: u64,
    /// Completed with a checksum.
    pub completed: u64,
    /// Typed admission rejections (QueueFull / GridTooLarge / BadPlan /
    /// ShuttingDown).
    pub rejected: u64,
    /// Admitted but failed (non-deadline reasons).
    pub failed: u64,
    /// Admitted but deadline-expired (including pool exhaustion).
    pub timed_out: u64,
    /// Completed jobs whose checksum was verified against the local
    /// scalar reference.
    pub verified: u64,
    /// Completed jobs whose checksum DID NOT match the reference —
    /// nonzero means cross-tenant corruption and fails validation-aware
    /// consumers immediately.
    pub mismatched: u64,
}

/// Client-observed latency percentiles, milliseconds (admission to final
/// response, including queue wait).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyMs {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Slowest completed job.
    pub max: f64,
}

impl LatencyMs {
    /// Percentiles of a latency sample (sorted internally). Empty
    /// samples give all-zero percentiles.
    ///
    /// Small-N edges are well-defined, not accidental: with one sample
    /// every percentile (and max) is that sample; with two, p50 is the
    /// lower and p90/p99/max the upper — nearest-rank quantiles are
    /// always actual observations, and `p50 <= p90 <= p99 <= max` holds
    /// for every N. Non-finite samples (NaN, ±∞) are sorted to the end
    /// and excluded instead of panicking the comparator.
    pub fn from_samples(samples: &mut [f64]) -> Self {
        samples.sort_by(|a, b| match (a.is_finite(), b.is_finite()) {
            (true, true) => a.partial_cmp(b).unwrap(),
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            (false, false) => std::cmp::Ordering::Equal,
        });
        let finite = match samples.iter().position(|v| !v.is_finite()) {
            Some(end) => &samples[..end],
            None => &samples[..],
        };
        let pick = |q: f64| -> f64 {
            if finite.is_empty() {
                return 0.0;
            }
            // Nearest-rank: the q-quantile is the ⌈q·N⌉-th order statistic.
            let rank = (q * finite.len() as f64).ceil() as usize;
            finite[rank.clamp(1, finite.len()) - 1]
        };
        Self {
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: finite.last().copied().unwrap_or(0.0),
        }
    }
}

/// A full service load-test report.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceReport {
    /// Always [`SERVICE_SCHEMA_VERSION`] when produced by this build.
    pub schema_version: u64,
    /// The measuring host.
    pub host: HostInfo,
    /// Concurrent tenant connections driving load.
    pub tenants: usize,
    /// Whether chaos (fault injection) was armed during the run.
    pub chaos: bool,
    /// Job outcome counts.
    pub totals: ServiceTotals,
    /// Latency percentiles over completed jobs.
    pub latency_ms: LatencyMs,
    /// Wall-clock duration of the whole run, seconds.
    pub wall_secs: f64,
    /// Completed jobs per second of wall clock.
    pub completed_per_sec: f64,
    /// Offered jobs per second of wall clock.
    pub offered_per_sec: f64,
    /// `rejected / offered` (0 when nothing was offered).
    pub rejection_rate: f64,
}

impl ServiceReport {
    /// Serializes to the JSON tree.
    pub fn to_json(&self) -> Json {
        let t = &self.totals;
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("kind".into(), Json::str("service")),
            ("host".into(), self.host.to_json()),
            ("tenants".into(), Json::Num(self.tenants as f64)),
            ("chaos".into(), Json::Bool(self.chaos)),
            (
                "totals".into(),
                Json::Obj(vec![
                    ("offered".into(), Json::Num(t.offered as f64)),
                    ("accepted".into(), Json::Num(t.accepted as f64)),
                    ("completed".into(), Json::Num(t.completed as f64)),
                    ("rejected".into(), Json::Num(t.rejected as f64)),
                    ("failed".into(), Json::Num(t.failed as f64)),
                    ("timed_out".into(), Json::Num(t.timed_out as f64)),
                    ("verified".into(), Json::Num(t.verified as f64)),
                    ("mismatched".into(), Json::Num(t.mismatched as f64)),
                ]),
            ),
            (
                "latency_ms".into(),
                Json::Obj(vec![
                    ("p50".into(), Json::num(self.latency_ms.p50)),
                    ("p90".into(), Json::num(self.latency_ms.p90)),
                    ("p99".into(), Json::num(self.latency_ms.p99)),
                    ("max".into(), Json::num(self.latency_ms.max)),
                ]),
            ),
            ("wall_secs".into(), Json::num(self.wall_secs)),
            (
                "completed_per_sec".into(),
                Json::num(self.completed_per_sec),
            ),
            ("offered_per_sec".into(), Json::num(self.offered_per_sec)),
            ("rejection_rate".into(), Json::num(self.rejection_rate)),
        ])
    }

    /// Serializes to pretty-printed JSON text (trailing newline
    /// included).
    pub fn to_json_string(&self) -> String {
        format!("{}\n", self.to_json())
    }

    /// Deserializes and schema-checks a JSON tree, enforcing the
    /// accounting identities (no silently dropped jobs).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let version = v.req_u64("schema_version")?;
        if version != SERVICE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads v{SERVICE_SCHEMA_VERSION})"
            ));
        }
        let kind = v.req_str("kind")?;
        if kind != "service" {
            return Err(format!("'kind' must be \"service\", got \"{kind}\""));
        }
        let host = HostInfo::from_json(v.req("host")?)?;
        let tv = v.req("totals")?;
        let totals = ServiceTotals {
            offered: tv.req_u64("offered")?,
            accepted: tv.req_u64("accepted")?,
            completed: tv.req_u64("completed")?,
            rejected: tv.req_u64("rejected")?,
            failed: tv.req_u64("failed")?,
            timed_out: tv.req_u64("timed_out")?,
            verified: tv.req_u64("verified")?,
            mismatched: tv.req_u64("mismatched")?,
        };
        if totals.offered != totals.accepted + totals.rejected {
            return Err(format!(
                "accounting violation: offered ({}) != accepted ({}) + rejected ({}) — \
                 some request got no typed answer",
                totals.offered, totals.accepted, totals.rejected
            ));
        }
        if totals.accepted != totals.completed + totals.failed + totals.timed_out {
            return Err(format!(
                "accounting violation: accepted ({}) != completed ({}) + failed ({}) + \
                 timed_out ({}) — some admitted job got no final response",
                totals.accepted, totals.completed, totals.failed, totals.timed_out
            ));
        }
        let lv = v.req("latency_ms")?;
        let latency_ms = LatencyMs {
            p50: lv.req_f64("p50")?,
            p90: lv.req_f64("p90")?,
            p99: lv.req_f64("p99")?,
            max: lv.req_f64("max")?,
        };
        Ok(Self {
            schema_version: version,
            host,
            tenants: v.req_u64("tenants")? as usize,
            chaos: v.req_bool("chaos")?,
            totals,
            latency_ms,
            wall_secs: v.req_f64("wall_secs")?,
            completed_per_sec: v.req_f64("completed_per_sec")?,
            offered_per_sec: v.req_f64("offered_per_sec")?,
            rejection_rate: v.req_f64("rejection_rate")?,
        })
    }

    /// Parses and validates JSON text — the check behind
    /// `threefive loadgen --validate` and the CI `service-smoke` job.
    pub fn validate_str(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ServiceReport {
        ServiceReport {
            schema_version: SERVICE_SCHEMA_VERSION,
            host: HostInfo::detect(),
            tenants: 8,
            chaos: true,
            totals: ServiceTotals {
                offered: 100,
                accepted: 90,
                completed: 80,
                rejected: 10,
                failed: 4,
                timed_out: 6,
                verified: 80,
                mismatched: 0,
            },
            latency_ms: LatencyMs {
                p50: 12.0,
                p90: 30.5,
                p99: 55.0,
                max: 80.25,
            },
            wall_secs: 2.5,
            completed_per_sec: 32.0,
            offered_per_sec: 40.0,
            rejection_rate: 0.1,
        }
    }

    #[test]
    fn round_trips() {
        let r = report();
        let back = ServiceReport::validate_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn accounting_violations_fail_validation() {
        let mut r = report();
        r.totals.completed = 79; // 90 != 79 + 4 + 6
        let err = ServiceReport::validate_str(&r.to_json_string()).unwrap_err();
        assert!(err.contains("accounting violation"), "{err}");
        let mut r = report();
        r.totals.rejected = 11; // 100 != 90 + 11
        let err = ServiceReport::validate_str(&r.to_json_string()).unwrap_err();
        assert!(err.contains("no typed answer"), "{err}");
    }

    #[test]
    fn missing_fields_are_named() {
        let text = report()
            .to_json_string()
            .replace("\"wall_secs\"", "\"wall\"");
        let err = ServiceReport::validate_str(&text).unwrap_err();
        assert!(err.contains("wall_secs"), "{err}");
    }

    #[test]
    fn wrong_version_and_kind_rejected() {
        let text = report()
            .to_json_string()
            .replace("\"schema_version\": 2", "\"schema_version\": 99");
        assert!(ServiceReport::validate_str(&text).is_err());
        let text = report()
            .to_json_string()
            .replace("\"kind\": \"service\"", "\"kind\": \"stencil\"");
        assert!(ServiceReport::validate_str(&text).is_err());
    }

    #[test]
    fn percentiles_from_samples() {
        let mut samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let l = LatencyMs::from_samples(&mut samples);
        assert_eq!(l.p50, 50.0);
        assert_eq!(l.p90, 90.0);
        assert_eq!(l.p99, 99.0);
        assert_eq!(l.max, 100.0);
        let mut empty = Vec::new();
        let l = LatencyMs::from_samples(&mut empty);
        assert_eq!(l.max, 0.0);
    }

    #[test]
    fn one_and_two_sample_percentiles_are_well_defined() {
        let mut one = vec![7.5];
        let l = LatencyMs::from_samples(&mut one);
        assert_eq!((l.p50, l.p90, l.p99, l.max), (7.5, 7.5, 7.5, 7.5));

        let mut two = vec![10.0, 2.0];
        let l = LatencyMs::from_samples(&mut two);
        assert_eq!(l.p50, 2.0, "p50 of two samples is the lower one");
        assert_eq!((l.p90, l.p99, l.max), (10.0, 10.0, 10.0));
    }

    #[test]
    fn percentiles_are_monotone_for_every_small_n() {
        for n in 1..=12 {
            let mut samples: Vec<f64> = (0..n).map(|v| ((v * 37) % 11) as f64).collect();
            let l = LatencyMs::from_samples(&mut samples);
            assert!(
                l.p50 <= l.p90 && l.p90 <= l.p99 && l.p99 <= l.max,
                "N={n}: {l:?}"
            );
        }
    }

    #[test]
    fn non_finite_samples_are_excluded_not_fatal() {
        let mut samples = vec![3.0, f64::NAN, 1.0, f64::INFINITY, 2.0];
        let l = LatencyMs::from_samples(&mut samples);
        assert_eq!((l.p50, l.max), (2.0, 3.0));
        let mut all_nan = vec![f64::NAN, f64::NAN];
        let l = LatencyMs::from_samples(&mut all_nan);
        assert_eq!((l.p50, l.p90, l.p99, l.max), (0.0, 0.0, 0.0, 0.0));
    }
}
