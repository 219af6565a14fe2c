use stgq_graph::{Dist, NodeId};
use stgq_schedule::SlotRange;

use crate::SearchStats;

/// Why a solve returned when it did.
///
/// Derived from the [`SearchStats`] flags; the two inexact causes are
/// deliberately distinct (a budget-exhausted anytime answer and a
/// cancelled answer have very different operational meaning, even though
/// both return the incumbent found so far).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(rename_all = "snake_case"))]
pub enum StopCause {
    /// The search ran to proven optimality (or proven infeasibility).
    Completed,
    /// The [`SelectConfig::frame_budget`](crate::SelectConfig) ran out.
    FrameBudget,
    /// A [`SolveControl`](crate::SolveControl) stopped the search
    /// (cancellation token or deadline).
    Cancelled,
}

/// One batch entry's result: either kind of query, uniformly carrying its
/// [`SearchStats`] and stop provenance. This is the executor-facing
/// envelope — the `stgq-exec` worker pool solves mixed SGQ/STGQ batches
/// and reports every entry through this one type.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(rename_all = "snake_case"))]
pub enum SolveOutcome {
    /// An SGQ entry's result.
    Sgq(SgqOutcome),
    /// An STGQ entry's result.
    Stgq(StgqOutcome),
}

impl SolveOutcome {
    /// The search counters, whichever kind of query ran.
    pub fn stats(&self) -> &SearchStats {
        match self {
            SolveOutcome::Sgq(o) => &o.stats,
            SolveOutcome::Stgq(o) => &o.stats,
        }
    }

    /// The objective value (total social distance) of the solution, if
    /// one was found.
    pub fn objective(&self) -> Option<Dist> {
        match self {
            SolveOutcome::Sgq(o) => o.solution.as_ref().map(|s| s.total_distance),
            SolveOutcome::Stgq(o) => o.solution.as_ref().map(|s| s.total_distance),
        }
    }

    /// The selected group, if a solution was found.
    pub fn members(&self) -> Option<&[NodeId]> {
        match self {
            SolveOutcome::Sgq(o) => o.solution.as_ref().map(|s| s.members.as_slice()),
            SolveOutcome::Stgq(o) => o.solution.as_ref().map(|s| s.members.as_slice()),
        }
    }

    /// Why the solve returned. Cancellation takes precedence over budget
    /// truncation when both flags are set (a cancelled solve is stopped
    /// by the caller, not by its own budget).
    pub fn stop_cause(&self) -> StopCause {
        let stats = self.stats();
        if stats.cancelled {
            StopCause::Cancelled
        } else if stats.truncated {
            StopCause::FrameBudget
        } else {
            StopCause::Completed
        }
    }

    /// Whether the answer is proven optimal (or, when `None`, proven
    /// infeasible): exactly [`StopCause::Completed`]. Budget-exhausted
    /// and cancelled answers are both inexact — the `exact` flag and the
    /// stop cause can never disagree by construction.
    pub fn exact(&self) -> bool {
        self.stop_cause() == StopCause::Completed
    }

    /// The SGQ result, if this entry was an SGQ.
    pub fn as_sgq(&self) -> Option<&SgqOutcome> {
        match self {
            SolveOutcome::Sgq(o) => Some(o),
            SolveOutcome::Stgq(_) => None,
        }
    }

    /// The STGQ result, if this entry was an STGQ.
    pub fn as_stgq(&self) -> Option<&StgqOutcome> {
        match self {
            SolveOutcome::Sgq(_) => None,
            SolveOutcome::Stgq(o) => Some(o),
        }
    }
}

/// An optimal answer to an SGQ: the group and its objective value.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SgqSolution {
    /// The selected attendees, sorted by original id; always contains the
    /// initiator and has exactly `p` members.
    pub members: Vec<NodeId>,
    /// `Σ_{v ∈ F} d_{v,q}` — the minimized total social distance.
    pub total_distance: Dist,
}

/// An optimal answer to an STGQ: group, objective and activity period.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StgqSolution {
    /// The selected attendees, sorted by original id.
    pub members: Vec<NodeId>,
    /// The minimized total social distance.
    pub total_distance: Dist,
    /// The chosen activity period: exactly `m` consecutive slots in which
    /// every member is available.
    pub period: SlotRange,
    /// The pivot time slot (Lemma 4) the period was anchored on. For the
    /// sequential baseline this is derived from the period.
    pub pivot: usize,
}

/// Result of an SGQ engine run: the solution (if the query is feasible)
/// plus the work counters.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SgqOutcome {
    /// `None` ⇔ no group satisfies all constraints ("Failure" in the paper).
    pub solution: Option<SgqSolution>,
    /// Search-effort counters.
    pub stats: SearchStats,
}

/// Result of an STGQ engine run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StgqOutcome {
    /// `None` ⇔ no (group, period) satisfies all constraints.
    pub solution: Option<StgqSolution>,
    /// Search-effort counters (aggregated over pivots/windows).
    pub stats: SearchStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solutions_are_comparable() {
        let a = SgqSolution {
            members: vec![NodeId(0), NodeId(2)],
            total_distance: 9,
        };
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn stop_cause_and_exact_agree() {
        let mut o = SgqOutcome {
            solution: None,
            stats: SearchStats::default(),
        };
        assert_eq!(
            SolveOutcome::Sgq(o.clone()).stop_cause(),
            StopCause::Completed
        );
        assert!(SolveOutcome::Sgq(o.clone()).exact());

        o.stats.truncated = true;
        assert_eq!(
            SolveOutcome::Sgq(o.clone()).stop_cause(),
            StopCause::FrameBudget
        );
        assert!(!SolveOutcome::Sgq(o.clone()).exact());

        // Cancellation outranks budget truncation.
        o.stats.cancelled = true;
        assert_eq!(
            SolveOutcome::Sgq(o.clone()).stop_cause(),
            StopCause::Cancelled
        );
        assert!(!SolveOutcome::Sgq(o).exact());
    }

    #[test]
    fn solve_outcome_accessors() {
        let stgq = StgqOutcome {
            solution: Some(StgqSolution {
                members: vec![NodeId(0), NodeId(3)],
                total_distance: 7,
                period: SlotRange::new(1, 2),
                pivot: 1,
            }),
            stats: SearchStats::default(),
        };
        let out = SolveOutcome::Stgq(stgq);
        assert_eq!(out.objective(), Some(7));
        assert_eq!(out.members(), Some(&[NodeId(0), NodeId(3)][..]));
        assert!(out.as_sgq().is_none());
        assert!(out.as_stgq().is_some());
    }

    #[test]
    fn stgq_solution_carries_period() {
        let s = StgqSolution {
            members: vec![NodeId(0)],
            total_distance: 0,
            period: SlotRange::new(1, 3),
            pivot: 2,
        };
        assert_eq!(s.period.len(), 3);
        assert!(s.period.contains(s.pivot));
    }
}
