//! Engine selection and per-entry dispatch (moved here from the service
//! planner — execution policy lives in `stgq-exec`).

use stgq_core::heuristics::{
    greedy_sgq_on, greedy_stgq_on, local_search_sgq_on, local_search_stgq_on,
};
use stgq_core::{
    PivotArena, SelectConfig, SgqOutcome, SolveControl, SolveOutcome, Solver, StgqOutcome,
};
use stgq_graph::FeasibleView;
use stgq_schedule::Cals;

use crate::request::QuerySpec;

/// Which solver answers a planning query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(rename_all = "snake_case"))]
pub enum Engine {
    /// SGSelect / STGSelect — proven optimal.
    Exact,
    /// Budgeted SGSelect / STGSelect: returns the incumbent after at most
    /// `frame_budget` search frames. The report's `exact` flag tells
    /// whether the search actually finished.
    Anytime {
        /// Maximum search frames before returning the incumbent.
        frame_budget: u64,
    },
    /// Greedy construction with restarts — fast, feasible, no optimality
    /// guarantee.
    Greedy {
        /// Forced-first-pick restarts (1 = plain greedy).
        restarts: usize,
    },
    /// Greedy plus first-improvement swap descent.
    LocalSearch {
        /// Forced-first-pick restarts.
        restarts: usize,
        /// Improvement sweeps.
        passes: usize,
    },
}

impl Engine {
    /// Whether this engine produces [`stgq_core::SearchStats`] (the exact
    /// family does; the heuristics report feasibility evaluations
    /// instead).
    pub fn reports_search_stats(&self) -> bool {
        matches!(self, Engine::Exact | Engine::Anytime { .. })
    }

    /// Whether an uninterrupted run of this engine proves its answer
    /// optimal (or proves infeasibility).
    pub fn proves_optimality(&self) -> bool {
        matches!(self, Engine::Exact)
    }
}

/// Run one query spec with the chosen engine on a pre-extracted
/// zero-copy candidate view. Returns the uniform [`SolveOutcome`] plus,
/// for heuristic engines, the feasibility-evaluation count. The exact
/// family runs one [`Solver`] on `arena`.
pub(crate) fn run_spec(
    fg: &FeasibleView,
    calendars: Cals<'_>,
    spec: &QuerySpec,
    engine: Engine,
    cfg: &SelectConfig,
    control: Option<&SolveControl>,
    arena: &mut PivotArena,
) -> (SolveOutcome, Option<u64>) {
    let cfg = match engine {
        Engine::Exact => *cfg,
        Engine::Anytime { frame_budget } => cfg.with_frame_budget(frame_budget),
        Engine::Greedy { restarts } => return run_heuristic(fg, calendars, spec, restarts, None),
        Engine::LocalSearch { restarts, passes } => {
            return run_heuristic(fg, calendars, spec, restarts, Some(passes))
        }
    };
    let solver = Solver::new(fg, &cfg).control(control).arena(arena);
    let outcome = match spec {
        QuerySpec::Sgq(query) => SolveOutcome::Sgq(solver.sgq(query, None)),
        QuerySpec::Stgq(query) => SolveOutcome::Stgq(solver.stgq(calendars, query)),
    };
    (outcome, None)
}

/// The greedy (`passes: None`) or local-search heuristic for `spec`,
/// with its feasibility-evaluation count.
fn run_heuristic(
    fg: &FeasibleView,
    calendars: Cals<'_>,
    spec: &QuerySpec,
    restarts: usize,
    passes: Option<usize>,
) -> (SolveOutcome, Option<u64>) {
    match spec {
        QuerySpec::Sgq(query) => {
            let out = match passes {
                None => greedy_sgq_on(fg, query, None, restarts),
                Some(passes) => local_search_sgq_on(fg, query, None, restarts, passes),
            };
            let outcome = SgqOutcome {
                solution: out.solution,
                stats: Default::default(),
            };
            (SolveOutcome::Sgq(outcome), Some(out.evaluations))
        }
        QuerySpec::Stgq(query) => {
            let out = match passes {
                None => greedy_stgq_on(fg, calendars, query, restarts),
                Some(passes) => local_search_stgq_on(fg, calendars, query, restarts, passes),
            };
            let outcome = StgqOutcome {
                solution: out.solution,
                stats: Default::default(),
            };
            (SolveOutcome::Stgq(outcome), Some(out.evaluations))
        }
    }
}

#[cfg(all(test, feature = "serde"))]
mod tests {
    use super::Engine;
    use serde::value::Value;
    use serde::{DeError, Deserialize, Serialize};

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
            Err(DeError::new(
                "unknown variant `exact_parallel`, expected one of \
                 `exact`, `anytime`, `greedy`, `local_search`"
            ))
        );
        let text = r#"{"exact_parallel":{"threads":2}}"#;
        assert!(serde_json::from_str::<Engine>(text).is_err());
    }
}
