//! Wire encodings (`serde` feature) of the validated query parameter
//! types. Everything else that crosses the cluster transport derives the
//! serde shim's traits in place; [`SgqQuery`] and [`StgqQuery`] decode
//! through a derived raw struct and then `new()`, so a decoded query can
//! never violate the constructors' invariants (`p ≥ 1`, `s ≥ 1`, `m ≥ 1`,
//! a group total that fits a `Dist`). Both keep the flat
//! `{"p", "s", "k"[, "m"]}` form.

use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};

use crate::{SgqQuery, StgqQuery};

#[derive(Deserialize)]
struct SgqFields {
    p: usize,
    s: usize,
    k: usize,
}

#[derive(Serialize, Deserialize)]
struct StgqFields {
    p: usize,
    s: usize,
    k: usize,
    m: usize,
}

impl Deserialize for SgqQuery {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let SgqFields { p, s, k } = SgqFields::from_value(v)?;
        SgqQuery::new(p, s, k).map_err(|e| DeError::new(format!("invalid SgqQuery: {e}")))
    }
}

impl Serialize for StgqQuery {
    fn to_value(&self) -> Value {
        let (p, s, k, m) = (self.p(), self.s(), self.k(), self.m());
        StgqFields { p, s, k, m }.to_value()
    }
}

impl Deserialize for StgqQuery {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let StgqFields { p, s, k, m } = StgqFields::from_value(v)?;
        StgqQuery::new(p, s, k, m).map_err(|e| DeError::new(format!("invalid StgqQuery: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SearchStats, SgqOutcome, SolveOutcome, StgqOutcome, StgqSolution, StopCause};
    use stgq_graph::NodeId;
    use stgq_schedule::SlotRange;

    #[test]
    fn queries_roundtrip_and_revalidate() {
        let q = StgqQuery::new(4, 2, 1, 3).unwrap();
        let back: StgqQuery = serde_json::from_str(&serde_json::to_string(&q).unwrap()).unwrap();
        assert_eq!(back, q);

        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let back: SgqQuery = serde_json::from_str(&serde_json::to_string(&sgq).unwrap()).unwrap();
        assert_eq!(back, sgq);

        // Decoding goes through the validating constructor.
        assert!(serde_json::from_str::<SgqQuery>(r#"{"p":0,"s":1,"k":0}"#).is_err());
        assert!(serde_json::from_str::<StgqQuery>(r#"{"p":2,"s":1,"k":0,"m":0}"#).is_err());
    }

    #[test]
    fn outcomes_roundtrip_bit_for_bit() {
        let out = SolveOutcome::Stgq(StgqOutcome {
            solution: Some(StgqSolution {
                members: vec![NodeId(0), NodeId(3)],
                total_distance: 7,
                period: SlotRange::new(1, 2),
                pivot: 1,
            }),
            stats: SearchStats {
                frames: 12,
                pivots_skipped: 3,
                truncated: true,
                ..Default::default()
            },
        });
        let json = serde_json::to_string(&out).unwrap();
        let back: SolveOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out);
        assert_eq!(back.stop_cause(), StopCause::FrameBudget);

        // Infeasible outcomes (solution: null) survive too.
        let none = SolveOutcome::Sgq(SgqOutcome {
            solution: None,
            stats: SearchStats::default(),
        });
        let back: SolveOutcome =
            serde_json::from_str(&serde_json::to_string(&none).unwrap()).unwrap();
        assert_eq!(back, none);
    }

    #[test]
    fn a_solution_with_an_inverted_period_does_not_decode() {
        let sol = StgqSolution {
            members: vec![NodeId(0), NodeId(3)],
            total_distance: 7,
            period: SlotRange::new(2, 5),
            pivot: 3,
        };
        let json = serde_json::to_string(&sol).unwrap();
        assert!(json.contains(r#""period":{"lo":2,"hi":5}"#), "{json}");
        assert_eq!(serde_json::from_str::<StgqSolution>(&json).unwrap(), sol);
        let inverted = json.replace(r#""lo":2,"hi":5"#, r#""lo":5,"hi":2"#);
        assert!(serde_json::from_str::<StgqSolution>(&inverted).is_err());
    }

    #[test]
    fn stop_cause_roundtrips() {
        for cause in [
            StopCause::Completed,
            StopCause::FrameBudget,
            StopCause::Cancelled,
        ] {
            let back: StopCause =
                serde_json::from_str(&serde_json::to_string(&cause).unwrap()).unwrap();
            assert_eq!(back, cause);
        }
    }
}
