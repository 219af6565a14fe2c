//! [`Solver`]: the one way to run the exact engines on an extracted
//! candidate space.

use stgq_graph::{BitSet, CandidateTopology};
use stgq_schedule::Cals;

use crate::{
    sgselect, stgselect, PivotArena, SelectConfig, SgqOutcome, SgqQuery, SolveControl, StgqOutcome,
    StgqQuery,
};

/// One exact solve (SGSelect or STGSelect) over an already-extracted
/// candidate space — a materialized [`FeasibleGraph`] or a zero-copy
/// [`FeasibleView`], any [`CandidateTopology`]; the search is
/// bit-identical on both.
///
/// One solve is one sequential search; a serving deployment runs many
/// solves side by side (the `stgq-exec` worker pool) rather than
/// splitting one. Both knobs are optional:
///
/// * [`control`](Self::control) — a [`SolveControl`] (cancellation token
///   and/or deadline) polled on the frame-counter path and between
///   pivots. A stopped solve returns the incumbent found so far with
///   [`SearchStats::cancelled`] set; a quiet control changes nothing.
/// * [`arena`](Self::arena) — a long-lived [`PivotArena`] whose pivot
///   buffers the STGQ solve reuses, and which receives that solve's
///   [`StageTimings`] and serves its cross-solve run cache. A solve
///   without one runs on a fresh arena; results are identical.
///
/// The flat-graph [`solve_sgq`] / [`solve_stgq`] validate outside input,
/// extract the candidate space and run a default `Solver`.
///
/// ```
/// use stgq_graph::{FeasibleGraph, GraphBuilder, NodeId};
/// use stgq_core::{SelectConfig, SgqQuery, Solver};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(NodeId(0), NodeId(1), 2).unwrap();
/// b.add_edge(NodeId(0), NodeId(2), 3).unwrap();
/// b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
/// b.add_edge(NodeId(0), NodeId(3), 1).unwrap();
/// let graph = b.build();
///
/// let query = SgqQuery::new(3, 1, 0).unwrap();
/// let fg = FeasibleGraph::extract(&graph, NodeId(0), query.s());
/// let cfg = SelectConfig::default();
/// let out = Solver::new(&fg, &cfg).sgq(&query, None);
/// assert_eq!(out.solution.unwrap().total_distance, 5);
/// ```
///
/// [`FeasibleGraph`]: stgq_graph::FeasibleGraph
/// [`FeasibleView`]: stgq_graph::FeasibleView
/// [`SearchStats::cancelled`]: crate::SearchStats::cancelled
/// [`StageTimings`]: crate::StageTimings
/// [`solve_sgq`]: crate::solve_sgq
/// [`solve_stgq`]: crate::solve_stgq
pub struct Solver<'s, G> {
    topology: &'s G,
    cfg: SelectConfig,
    control: Option<&'s SolveControl>,
    arena: Option<&'s mut PivotArena>,
}

impl<'s, G: CandidateTopology> Solver<'s, G> {
    /// A solve of `topology` under `cfg`.
    pub fn new(topology: &'s G, cfg: &SelectConfig) -> Self {
        Solver {
            topology,
            cfg: *cfg,
            control: None,
            arena: None,
        }
    }

    /// Poll `control` (if any) for cooperative cancellation / deadlines.
    pub fn control(mut self, control: Option<&'s SolveControl>) -> Self {
        self.control = control;
        self
    }

    /// Run the STGQ solve on `arena`'s pooled buffers.
    pub fn arena(mut self, arena: &'s mut PivotArena) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Solve the SGQ. `candidate_mask`, when given, restricts `VA` to the
    /// compact indices it contains (the initiator's membership is
    /// implied).
    pub fn sgq(self, query: &SgqQuery, candidate_mask: Option<&BitSet>) -> SgqOutcome {
        let control = self.control.filter(|c| !c.is_noop());
        sgselect::solve(self.topology, query, &self.cfg, candidate_mask, control)
    }

    /// Solve the STGQ over `calendars` — any [`Cals`] source, a flat
    /// `&[Calendar]` slice or the execution layer's shard-partitioned
    /// [`CalendarShards`], indexed by **original** vertex id either way.
    ///
    /// [`CalendarShards`]: stgq_schedule::CalendarShards
    pub fn stgq<'c>(self, calendars: impl Into<Cals<'c>>, query: &StgqQuery) -> StgqOutcome {
        let calendars = calendars.into();
        let control = self.control.filter(|c| !c.is_noop());
        match self.arena {
            Some(arena) => {
                stgselect::solve(self.topology, calendars, query, &self.cfg, arena, control)
            }
            None => stgselect::solve(
                self.topology,
                calendars,
                query,
                &self.cfg,
                &mut PivotArena::new(),
                control,
            ),
        }
    }
}
