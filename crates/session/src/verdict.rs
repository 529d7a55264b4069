//! Certificate-carrying verdicts: the per-(model, observation) outcome of an
//! inquiry.
//!
//! A [`Verdict`] is the session-level enrichment of the core engine's
//! [`FeasibilityVerdict`]: the same
//! decision and evidence, plus the human-readable model constraints the
//! observation violates (when the inquiry deduced them).  Verdicts serialize
//! to a stable, externally tagged JSON object so reports are diffable CI
//! artifacts.
//!
//! [`FeasibilityVerdict`]: counterpoint_core::FeasibilityVerdict

use counterpoint_core::FeasibilityVerdict;
use serde::{DeError, Deserialize, Serialize, Value};

/// The outcome of testing one observation against one model, with the
/// artifact that proves it.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// The observation's confidence region intersects the model cone.
    Feasible {
        /// A counter-space cone point inside the confidence region (up to
        /// solver tolerance): the μpath-flow combination the LP found.
        witness: Vec<f64>,
    },
    /// The confidence region does not intersect the model cone — the model is
    /// refuted by this observation at the region's confidence level.
    Refuted {
        /// A counter-space separating direction `c` with `c · g ≥ 0` for
        /// every cone generator while the whole region lies on the negative
        /// side: the Farkas certificate of the refutation.  Empty only if
        /// extraction failed numerically.
        farkas_certificate: Vec<f64>,
        /// Renderings of the deduced model constraints the observation
        /// violates (populated only when the inquiry deduced constraints).
        violated_constraints: Vec<String>,
    },
    /// No verdict could be reached (a non-finite observation, or an LP that
    /// failed to converge on both the warm and the cold solve).
    Inconclusive {
        /// Why the decision could not be made.
        reason: String,
    },
}

impl Verdict {
    /// Wraps a core engine verdict, attaching the violated-constraint
    /// renderings to refutations.
    pub fn from_engine(verdict: FeasibilityVerdict, violated_constraints: Vec<String>) -> Verdict {
        match verdict {
            FeasibilityVerdict::Feasible { witness } => Verdict::Feasible { witness },
            FeasibilityVerdict::Refuted { certificate } => Verdict::Refuted {
                farkas_certificate: certificate,
                violated_constraints,
            },
            FeasibilityVerdict::Inconclusive { reason } => Verdict::Inconclusive { reason },
        }
    }

    /// `true` for [`Verdict::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, Verdict::Feasible { .. })
    }

    /// `true` for [`Verdict::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, Verdict::Refuted { .. })
    }

    /// The Farkas certificate of a refutation, if one was extracted.
    pub fn farkas_certificate(&self) -> Option<&[f64]> {
        match self {
            Verdict::Refuted {
                farkas_certificate, ..
            } if !farkas_certificate.is_empty() => Some(farkas_certificate),
            _ => None,
        }
    }

    /// The witness cone point of a feasible verdict, if one was extracted.
    pub fn witness(&self) -> Option<&[f64]> {
        match self {
            Verdict::Feasible { witness } if !witness.is_empty() => Some(witness),
            _ => None,
        }
    }

    /// The violated-constraint renderings of a refutation (empty unless the
    /// inquiry deduced constraints).
    pub fn violated_constraints(&self) -> &[String] {
        match self {
            Verdict::Refuted {
                violated_constraints,
                ..
            } => violated_constraints,
            _ => &[],
        }
    }
}

// The vendored serde derive cannot generate payload-carrying enum impls, so
// the externally tagged representation is spelled out by hand; the `status`
// key leads every object so reports stay scannable.
impl Serialize for Verdict {
    fn to_value(&self) -> Value {
        let tagged = |status: &str, fields: Vec<(String, Value)>| {
            let mut entries = vec![("status".to_string(), Value::String(status.to_string()))];
            entries.extend(fields);
            Value::Object(entries)
        };
        match self {
            Verdict::Feasible { witness } => tagged(
                "feasible",
                vec![("witness".to_string(), witness.to_value())],
            ),
            Verdict::Refuted {
                farkas_certificate,
                violated_constraints,
            } => tagged(
                "refuted",
                vec![
                    (
                        "farkas_certificate".to_string(),
                        farkas_certificate.to_value(),
                    ),
                    (
                        "violated_constraints".to_string(),
                        violated_constraints.to_value(),
                    ),
                ],
            ),
            Verdict::Inconclusive { reason } => tagged(
                "inconclusive",
                vec![("reason".to_string(), reason.to_value())],
            ),
        }
    }
}

impl Deserialize for Verdict {
    fn from_value(value: &Value) -> Result<Verdict, DeError> {
        let field = |name: &str| serde::expect_field(value, name, "Verdict");
        let status = String::from_value(field("status")?)?;
        match status.as_str() {
            "feasible" => Ok(Verdict::Feasible {
                witness: Vec::from_value(field("witness")?)?,
            }),
            "refuted" => Ok(Verdict::Refuted {
                farkas_certificate: Vec::from_value(field("farkas_certificate")?)?,
                violated_constraints: Vec::from_value(field("violated_constraints")?)?,
            }),
            "inconclusive" => Ok(Verdict::Inconclusive {
                reason: String::from_value(field("reason")?)?,
            }),
            other => Err(DeError::custom(format!("unknown verdict status `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_round_trip_through_json() {
        let verdicts = vec![
            Verdict::Feasible {
                witness: vec![1.5, 0.25, 1.0 / 3.0],
            },
            Verdict::Refuted {
                farkas_certificate: vec![1.0, -1.0],
                violated_constraints: vec!["load.pde$_miss <= load.causes_walk".to_string()],
            },
            Verdict::Inconclusive {
                reason: "every LP solve path failed to converge".to_string(),
            },
        ];
        for v in &verdicts {
            let text = serde_json::to_string(v).unwrap();
            let back: Verdict = serde_json::from_str(&text).unwrap();
            assert_eq!(&back, v, "round trip of {text}");
        }
    }

    #[test]
    fn accessors_expose_the_evidence() {
        let refuted = Verdict::Refuted {
            farkas_certificate: vec![0.5, -1.0],
            violated_constraints: vec!["a <= b".to_string()],
        };
        assert!(refuted.is_refuted());
        assert!(!refuted.is_feasible());
        assert_eq!(refuted.farkas_certificate(), Some(&[0.5, -1.0][..]));
        assert_eq!(refuted.violated_constraints(), &["a <= b".to_string()]);
        let feasible = Verdict::Feasible { witness: vec![2.0] };
        assert_eq!(feasible.witness(), Some(&[2.0][..]));
        assert!(feasible.farkas_certificate().is_none());
        assert!(feasible.violated_constraints().is_empty());
        // Empty evidence is reported as absent, not as an empty slice.
        assert!(Verdict::Feasible { witness: vec![] }.witness().is_none());
    }

    #[test]
    fn unknown_status_is_rejected() {
        let err = serde_json::from_str::<Verdict>("{\"status\":\"sideways\"}");
        assert!(err.is_err());
    }

    #[test]
    fn from_engine_attaches_violations_to_refutations_only() {
        use counterpoint_core::FeasibilityVerdict;
        let violations = vec!["x <= y".to_string()];
        let refuted = Verdict::from_engine(
            FeasibilityVerdict::Refuted {
                certificate: vec![1.0],
            },
            violations.clone(),
        );
        assert_eq!(refuted.violated_constraints(), &violations[..]);
        let feasible = Verdict::from_engine(
            FeasibilityVerdict::Feasible { witness: vec![1.0] },
            violations,
        );
        assert!(feasible.violated_constraints().is_empty());
    }
}
