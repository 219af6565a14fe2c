//! Wire encodings (`serde` feature) for the executor's request/outcome
//! envelopes — what a cluster transport ships between nodes. Enum shapes
//! are hand-written (the offline derive shim covers structs only);
//! `Duration` crosses as whole nanoseconds.

use std::time::Duration;

use serde::value::{get, Value};
use serde::{DeError, Deserialize, Serialize};
use stgq_core::{SgqQuery, SolveOutcome, StgqQuery, StopCause};

use crate::request::{ExecError, PlanOutcome, QuerySpec};
use crate::Engine;
use stgq_graph::NodeId;

impl Serialize for QuerySpec {
    fn to_value(&self) -> Value {
        let (tag, inner) = match self {
            QuerySpec::Sgq(q) => ("sgq", q.to_value()),
            QuerySpec::Stgq(q) => ("stgq", q.to_value()),
        };
        Value::Object(vec![(tag.to_string(), inner)])
    }
}

impl Deserialize for QuerySpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::new("expected object for QuerySpec"))?;
        if let Some(inner) = get(entries, "sgq") {
            return Ok(QuerySpec::Sgq(SgqQuery::from_value(inner)?));
        }
        if let Some(inner) = get(entries, "stgq") {
            return Ok(QuerySpec::Stgq(StgqQuery::from_value(inner)?));
        }
        Err(DeError::new("QuerySpec needs an `sgq` or `stgq` key"))
    }
}

impl Serialize for Engine {
    fn to_value(&self) -> Value {
        let entry = |tag: &str, fields: Vec<(String, Value)>| {
            Value::Object(vec![(tag.to_string(), Value::Object(fields))])
        };
        match self {
            Engine::Exact => Value::Str("exact".to_string()),
            Engine::Anytime { frame_budget } => entry(
                "anytime",
                vec![("frame_budget".to_string(), frame_budget.to_value())],
            ),
            Engine::Greedy { restarts } => entry(
                "greedy",
                vec![("restarts".to_string(), restarts.to_value())],
            ),
            Engine::LocalSearch { restarts, passes } => entry(
                "local_search",
                vec![
                    ("restarts".to_string(), restarts.to_value()),
                    ("passes".to_string(), passes.to_value()),
                ],
            ),
        }
    }
}

impl Deserialize for Engine {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if let Value::Str(s) = v {
            return match s.as_str() {
                "exact" => Ok(Engine::Exact),
                other => Err(DeError::new(format!("unknown engine `{other}`"))),
            };
        }
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::new("expected string or object for Engine"))?;
        let [(tag, inner)] = entries else {
            return Err(DeError::new("Engine object must have exactly one key"));
        };
        let fields = inner
            .as_object()
            .ok_or_else(|| DeError::new("expected object for Engine payload"))?;
        let field =
            |name: &str| -> Result<usize, DeError> {
                usize::from_value(get(fields, name).ok_or_else(|| {
                    DeError::new(format!("missing field `{name}` in Engine::{tag}"))
                })?)
            };
        match tag.as_str() {
            "anytime" => Ok(Engine::Anytime {
                frame_budget: field("frame_budget")? as u64,
            }),
            "greedy" => Ok(Engine::Greedy {
                restarts: field("restarts")?,
            }),
            "local_search" => Ok(Engine::LocalSearch {
                restarts: field("restarts")?,
                passes: field("passes")?,
            }),
            other => Err(DeError::new(format!("unknown engine `{other}`"))),
        }
    }
}

impl Serialize for PlanOutcome {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("outcome".to_string(), self.outcome.to_value()),
            ("evaluations".to_string(), self.evaluations.to_value()),
            ("exact".to_string(), self.exact.to_value()),
            ("stop".to_string(), self.stop.to_value()),
            ("engine".to_string(), self.engine.to_value()),
            (
                "elapsed_ns".to_string(),
                (self.elapsed.as_nanos() as u64).to_value(),
            ),
            (
                "feasible_cache_hit".to_string(),
                self.feasible_cache_hit.to_value(),
            ),
            ("collapsed".to_string(), self.collapsed.to_value()),
            (
                "result_cache_hit".to_string(),
                self.result_cache_hit.to_value(),
            ),
        ])
    }
}

impl Deserialize for PlanOutcome {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::new("expected object for PlanOutcome"))?;
        let need = |name: &str| -> Result<&Value, DeError> {
            get(entries, name)
                .ok_or_else(|| DeError::new(format!("missing field `{name}` in PlanOutcome")))
        };
        Ok(PlanOutcome {
            outcome: SolveOutcome::from_value(need("outcome")?)?,
            evaluations: Option::<u64>::from_value(need("evaluations")?)?,
            exact: bool::from_value(need("exact")?)?,
            stop: StopCause::from_value(need("stop")?)?,
            engine: Engine::from_value(need("engine")?)?,
            elapsed: Duration::from_nanos(u64::from_value(need("elapsed_ns")?)?),
            feasible_cache_hit: bool::from_value(need("feasible_cache_hit")?)?,
            collapsed: bool::from_value(need("collapsed")?)?,
            result_cache_hit: bool::from_value(need("result_cache_hit")?)?,
        })
    }
}

impl Serialize for ExecError {
    fn to_value(&self) -> Value {
        match self {
            ExecError::InitiatorOutOfRange {
                initiator,
                node_count,
            } => Value::Object(vec![(
                "initiator_out_of_range".to_string(),
                Value::Object(vec![
                    ("initiator".to_string(), initiator.0.to_value()),
                    ("node_count".to_string(), node_count.to_value()),
                ]),
            )]),
            ExecError::NoSnapshot => Value::Str("no_snapshot".to_string()),
            ExecError::EpochTooOld {
                required,
                available,
            } => Value::Object(vec![(
                "epoch_too_old".to_string(),
                Value::Object(vec![
                    ("required".to_string(), required.to_value()),
                    ("available".to_string(), available.to_value()),
                ]),
            )]),
            ExecError::ShuttingDown => Value::Str("shutting_down".to_string()),
        }
    }
}

impl Deserialize for ExecError {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if let Value::Str(s) = v {
            return match s.as_str() {
                "no_snapshot" => Ok(ExecError::NoSnapshot),
                "shutting_down" => Ok(ExecError::ShuttingDown),
                other => Err(DeError::new(format!("unknown ExecError `{other}`"))),
            };
        }
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::new("expected string or object for ExecError"))?;
        let [(tag, inner)] = entries else {
            return Err(DeError::new("ExecError object must have exactly one key"));
        };
        let fields = inner
            .as_object()
            .ok_or_else(|| DeError::new("expected object for ExecError payload"))?;
        let need = |name: &str| -> Result<&Value, DeError> {
            get(fields, name)
                .ok_or_else(|| DeError::new(format!("missing field `{name}` in {tag}")))
        };
        match tag.as_str() {
            "initiator_out_of_range" => Ok(ExecError::InitiatorOutOfRange {
                initiator: NodeId(u32::from_value(need("initiator")?)?),
                node_count: usize::from_value(need("node_count")?)?,
            }),
            "epoch_too_old" => Ok(ExecError::EpochTooOld {
                required: <(u64, u64)>::from_value(need("required")?)?,
                available: <(u64, u64)>::from_value(need("available")?)?,
            }),
            other => Err(DeError::new(format!("unknown ExecError `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgq_core::{SearchStats, SgqOutcome};

    #[test]
    fn engines_and_specs_roundtrip() {
        for engine in [
            Engine::Exact,
            Engine::Anytime { frame_budget: 99 },
            Engine::Greedy { restarts: 3 },
            Engine::LocalSearch {
                restarts: 2,
                passes: 5,
            },
        ] {
            let back: Engine =
                serde_json::from_str(&serde_json::to_string(&engine).unwrap()).unwrap();
            assert_eq!(back, engine);
        }
        let spec = QuerySpec::Stgq(StgqQuery::new(4, 2, 1, 3).unwrap());
        let back: QuerySpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn retired_exact_parallel_tag_is_a_typed_error() {
        // Intra-query parallelism is gone; a peer or batch file still
        // sending its tag gets a typed refusal, not a panic.
        let wire = Value::Object(vec![(
            "exact_parallel".to_string(),
            Value::Object(vec![("threads".to_string(), 2usize.to_value())]),
        )]);
        assert_eq!(
            Engine::from_value(&wire),
            Err(DeError::new("unknown engine `exact_parallel`"))
        );
        let text = r#"{"exact_parallel":{"threads":2}}"#;
        assert!(serde_json::from_str::<Engine>(text).is_err());
    }

    #[test]
    fn outcomes_and_errors_roundtrip() {
        let outcome = PlanOutcome {
            outcome: SolveOutcome::Sgq(SgqOutcome {
                solution: None,
                stats: SearchStats {
                    frames: 3,
                    ..Default::default()
                },
            }),
            evaluations: Some(17),
            exact: true,
            stop: StopCause::Completed,
            engine: Engine::Exact,
            elapsed: Duration::from_nanos(1234),
            feasible_cache_hit: true,
            collapsed: false,
            result_cache_hit: true,
        };
        let back: PlanOutcome =
            serde_json::from_str(&serde_json::to_string(&outcome).unwrap()).unwrap();
        assert_eq!(back, outcome);

        for err in [
            ExecError::NoSnapshot,
            ExecError::ShuttingDown,
            ExecError::InitiatorOutOfRange {
                initiator: NodeId(9),
                node_count: 5,
            },
            ExecError::EpochTooOld {
                required: (4, 7),
                available: (4, 6),
            },
        ] {
            let back: ExecError =
                serde_json::from_str(&serde_json::to_string(&err).unwrap()).unwrap();
            assert_eq!(back, err);
        }
    }
}
