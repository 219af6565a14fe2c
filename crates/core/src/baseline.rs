//! The paper's comparison baselines (§5).
//!
//! * **SGQ baseline** — "considering all possible candidate groups": every
//!   `(p−1)`-subset of the feasible graph's candidates is enumerated and
//!   checked against the acquaintance constraint; the cheapest qualifying
//!   group wins. Exponential by design — it is the yardstick SGSelect is
//!   measured against in Figures 1(a)–(d).
//! * **STGQ baseline** — "sequentially considering each time slot and
//!   solving the corresponding SGQ problem": for every window start `t`,
//!   restrict candidates to those available throughout `[t, t+m−1]` and
//!   solve that SGQ (with SGSelect, or exhaustively for cross-validation).
//!   This is Figures 1(e)–(f)'s comparator; pivot slots let STGSelect do
//!   ~`m`× less temporal work.

use stgq_graph::{BitSet, FeasibleGraph, NodeId, SocialGraph};
use stgq_schedule::pivot::pivot_of_window;
use stgq_schedule::{Calendar, SlotRange};

use crate::combinations::Combinations;
use crate::inputs::check_temporal_inputs;
use crate::Solver;
use crate::{
    QueryError, SearchStats, SelectConfig, SgqOutcome, SgqQuery, SgqSolution, StgqOutcome,
    StgqQuery, StgqSolution,
};

/// Which SGQ engine the sequential STGQ baseline runs per window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SgqEngine {
    /// SGSelect per window (the configuration the paper benchmarks).
    SgSelect,
    /// Exhaustive enumeration per window (tiny inputs / cross-validation).
    Exhaustive,
}

/// Exhaustive SGQ: enumerate every candidate group (the `C(f−1, p−1)`
/// groups of §1) and keep the best that satisfies the acquaintance
/// constraint.
pub fn solve_sgq_exhaustive(
    graph: &SocialGraph,
    initiator: NodeId,
    query: &SgqQuery,
) -> Result<SgqOutcome, QueryError> {
    if initiator.index() >= graph.node_count() {
        return Err(QueryError::InitiatorOutOfRange {
            initiator,
            node_count: graph.node_count(),
        });
    }
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(solve_sgq_exhaustive_on(&fg, query, None))
}

/// Exhaustive SGQ on a pre-extracted feasible graph, optionally restricted
/// to a compact-index candidate mask.
pub fn solve_sgq_exhaustive_on(
    fg: &FeasibleGraph,
    query: &SgqQuery,
    candidate_mask: Option<&BitSet>,
) -> SgqOutcome {
    let p = query.p();
    let k = query.k();
    let mut stats = SearchStats::default();

    if p == 1 {
        return SgqOutcome {
            solution: Some(SgqSolution {
                members: vec![fg.origin(0)],
                total_distance: 0,
            }),
            stats,
        };
    }

    let candidates: Vec<u32> = fg
        .candidate_order()
        .iter()
        .copied()
        .filter(|&c| candidate_mask.is_none_or(|m| m.contains(c as usize)))
        .collect();

    let mut best: Option<(u64, Vec<u32>)> = None;
    let mut group: Vec<u32> = Vec::with_capacity(p);
    let mut combos = Combinations::new(candidates.len(), p - 1);
    while let Some(combo) = combos.next_combo() {
        stats.frames += 1; // one "frame" per enumerated candidate group
        group.clear();
        group.push(0);
        group.extend(combo.iter().map(|&i| candidates[i]));

        // Acquaintance constraint: every member misses at most k others.
        let feasible = group.iter().all(|&v| {
            let adj = fg.adj(v);
            let misses = group
                .iter()
                .filter(|&&u| u != v && !adj.contains(u as usize))
                .count();
            misses <= k
        });
        if !feasible {
            continue;
        }
        stats.solutions_recorded += 1;
        let td = fg.group_distance(group.iter().copied());
        if best.as_ref().is_none_or(|(b, _)| td < *b) {
            best = Some((td, group.clone()));
        }
    }

    let solution = best.map(|(total_distance, g)| SgqSolution {
        members: fg.to_origin_group(g),
        total_distance,
    });
    SgqOutcome { solution, stats }
}

/// Number of candidate groups the exhaustive baseline would enumerate for
/// this query (used by the harness to guard against accidental explosions).
pub fn exhaustive_group_count(graph: &SocialGraph, initiator: NodeId, query: &SgqQuery) -> u64 {
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Combinations::count(fg.len().saturating_sub(1), query.p().saturating_sub(1))
}

/// Sequential STGQ baseline: one SGQ per window start.
///
/// Faithful to the paper's description, each window's SGQ is solved **from
/// scratch**, including the radius-graph extraction — that is what "solving
/// the corresponding SGQ problem" per time slot costs. Callers that want a
/// more charitable baseline (extraction hoisted out of the loop) can use
/// [`solve_stgq_sequential_on`] directly.
pub fn solve_stgq_sequential(
    graph: &SocialGraph,
    initiator: NodeId,
    calendars: &[Calendar],
    query: &StgqQuery,
    cfg: &SelectConfig,
    engine: SgqEngine,
) -> Result<StgqOutcome, QueryError> {
    let horizon = check_temporal_inputs(graph, initiator, calendars)?;
    let m = query.m();
    let p = query.p();
    let mut stats = SearchStats::default();
    let mut best: Option<StgqSolution> = None;

    if m > horizon {
        return Ok(StgqOutcome {
            solution: None,
            stats,
        });
    }
    let q_cal = &calendars[initiator.index()];
    for start in 0..=horizon - m {
        if !q_cal.available_in_window(start, m) {
            continue;
        }
        // The per-window SGQ, end to end: radius extraction included.
        let fg = FeasibleGraph::extract(graph, initiator, query.s());
        if p == 1 {
            best = Some(StgqSolution {
                members: vec![initiator],
                total_distance: 0,
                period: SlotRange::new(start, start + m - 1),
                pivot: pivot_of_window(start, m),
            });
            break;
        }
        let mut mask = BitSet::new(fg.len());
        for &c in fg.candidate_order() {
            if calendars[fg.origin(c).index()].available_in_window(start, m) {
                mask.insert(c as usize);
            }
        }
        if mask.len() + 1 < p {
            continue;
        }
        let outcome = match engine {
            SgqEngine::SgSelect => Solver::new(&fg, cfg).sgq(query.social(), Some(&mask)),
            SgqEngine::Exhaustive => solve_sgq_exhaustive_on(&fg, query.social(), Some(&mask)),
        };
        stats.absorb(&outcome.stats);
        if let Some(sol) = outcome.solution {
            if best
                .as_ref()
                .is_none_or(|b| sol.total_distance < b.total_distance)
            {
                best = Some(StgqSolution {
                    members: sol.members,
                    total_distance: sol.total_distance,
                    period: SlotRange::new(start, start + m - 1),
                    pivot: pivot_of_window(start, m),
                });
            }
        }
    }
    Ok(StgqOutcome {
        solution: best,
        stats,
    })
}

/// As [`solve_stgq_sequential`] on a pre-extracted feasible graph.
pub fn solve_stgq_sequential_on(
    fg: &FeasibleGraph,
    calendars: &[Calendar],
    horizon: usize,
    query: &StgqQuery,
    cfg: &SelectConfig,
    engine: SgqEngine,
) -> StgqOutcome {
    let m = query.m();
    let p = query.p();
    let mut stats = SearchStats::default();
    let mut best: Option<StgqSolution> = None;

    if m > horizon {
        return StgqOutcome {
            solution: None,
            stats,
        };
    }
    let q_cal = &calendars[fg.origin(0).index()];

    for start in 0..=horizon - m {
        if !q_cal.available_in_window(start, m) {
            continue;
        }
        if p == 1 {
            // Earliest window where the initiator is free.
            best = Some(StgqSolution {
                members: vec![fg.origin(0)],
                total_distance: 0,
                period: SlotRange::new(start, start + m - 1),
                pivot: pivot_of_window(start, m),
            });
            break;
        }
        // Candidates available throughout the window.
        let mut mask = BitSet::new(fg.len());
        for &c in fg.candidate_order() {
            if calendars[fg.origin(c).index()].available_in_window(start, m) {
                mask.insert(c as usize);
            }
        }
        if mask.len() + 1 < p {
            continue;
        }
        let outcome = match engine {
            SgqEngine::SgSelect => Solver::new(fg, cfg).sgq(query.social(), Some(&mask)),
            SgqEngine::Exhaustive => solve_sgq_exhaustive_on(fg, query.social(), Some(&mask)),
        };
        stats.absorb(&outcome.stats);
        if let Some(sol) = outcome.solution {
            if best
                .as_ref()
                .is_none_or(|b| sol.total_distance < b.total_distance)
            {
                best = Some(StgqSolution {
                    members: sol.members,
                    total_distance: sol.total_distance,
                    period: SlotRange::new(start, start + m - 1),
                    pivot: pivot_of_window(start, m),
                });
            }
        }
    }

    StgqOutcome {
        solution: best,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgselect::solve_sgq;
    use crate::stgselect::solve_stgq;
    use stgq_graph::GraphBuilder;

    fn example2_graph() -> (SocialGraph, NodeId) {
        let mut b = GraphBuilder::new(9);
        b.add_edge(NodeId(7), NodeId(2), 17).unwrap();
        b.add_edge(NodeId(7), NodeId(3), 18).unwrap();
        b.add_edge(NodeId(7), NodeId(4), 27).unwrap();
        b.add_edge(NodeId(7), NodeId(6), 23).unwrap();
        b.add_edge(NodeId(7), NodeId(8), 25).unwrap();
        b.add_edge(NodeId(2), NodeId(4), 14).unwrap();
        b.add_edge(NodeId(2), NodeId(6), 19).unwrap();
        b.add_edge(NodeId(3), NodeId(4), 29).unwrap();
        b.add_edge(NodeId(4), NodeId(6), 20).unwrap();
        (b.build(), NodeId(7))
    }

    #[test]
    fn exhaustive_matches_paper_example2() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let sol = solve_sgq_exhaustive(&g, q, &query)
            .unwrap()
            .solution
            .unwrap();
        assert_eq!(sol.total_distance, 62);
        assert_eq!(
            sol.members,
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(7)]
        );
    }

    #[test]
    fn exhaustive_agrees_with_sgselect_across_k() {
        let (g, q) = example2_graph();
        for k in 0..=4 {
            for p in 2..=6 {
                let query = SgqQuery::new(p, 1, k).unwrap();
                let a = solve_sgq(&g, q, &query, &SelectConfig::default())
                    .unwrap()
                    .solution
                    .map(|s| s.total_distance);
                let b = solve_sgq_exhaustive(&g, q, &query)
                    .unwrap()
                    .solution
                    .map(|s| s.total_distance);
                assert_eq!(a, b, "p={p} k={k}");
            }
        }
    }

    #[test]
    fn group_count_matches_intro_formula() {
        let (g, q) = example2_graph();
        // f = 6 (q + 5 candidates); C(5, 3) = 10 groups for p = 4, as in
        // the paper's Example 1 narration.
        let query = SgqQuery::new(4, 1, 0).unwrap();
        assert_eq!(exhaustive_group_count(&g, q, &query), 10);
        let out = solve_sgq_exhaustive(&g, q, &query).unwrap();
        assert_eq!(out.stats.frames, 10, "one frame per enumerated group");
    }

    #[test]
    fn sequential_stgq_agrees_with_stgselect_on_example3() {
        let (g, q) = example2_graph();
        let horizon = 7;
        let mut cals = vec![Calendar::new(horizon); 9];
        cals[2] = Calendar::from_slots(horizon, 0..7);
        cals[3] = Calendar::from_slots(horizon, [1, 2, 4, 5]);
        cals[4] = Calendar::from_slots(horizon, [0, 1, 2, 3, 4, 6]);
        cals[6] = Calendar::from_slots(horizon, [1, 2, 3, 4, 5, 6]);
        cals[7] = Calendar::from_slots(horizon, [0, 1, 2, 3, 4, 5]);
        cals[8] = Calendar::from_slots(horizon, [0, 2, 4, 5]);

        for m in 1..=4 {
            let query = StgqQuery::new(4, 1, 1, m).unwrap();
            let fast = solve_stgq(&g, q, &cals, &query, &SelectConfig::default())
                .unwrap()
                .solution;
            for engine in [SgqEngine::SgSelect, SgqEngine::Exhaustive] {
                let slow =
                    solve_stgq_sequential(&g, q, &cals, &query, &SelectConfig::default(), engine)
                        .unwrap()
                        .solution;
                assert_eq!(
                    fast.as_ref().map(|s| s.total_distance),
                    slow.as_ref().map(|s| s.total_distance),
                    "m={m} engine={engine:?}"
                );
                // Feasibility of the period must agree too.
                assert_eq!(fast.is_some(), slow.is_some(), "m={m}");
            }
        }
    }

    #[test]
    fn sequential_reports_window_and_pivot() {
        let (g, q) = example2_graph();
        let horizon = 7;
        let mut cals = vec![Calendar::all_available(horizon); 9];
        cals[q.index()] = Calendar::from_slots(horizon, 2..7);
        let query = StgqQuery::new(2, 1, 1, 3).unwrap();
        let sol = solve_stgq_sequential(
            &g,
            q,
            &cals,
            &query,
            &SelectConfig::default(),
            SgqEngine::SgSelect,
        )
        .unwrap()
        .solution
        .unwrap();
        assert_eq!(sol.period, SlotRange::new(2, 4));
        assert!(sol.period.contains(sol.pivot));
    }

    #[test]
    fn m_larger_than_horizon_is_infeasible() {
        let (g, q) = example2_graph();
        let cals = vec![Calendar::all_available(4); 9];
        let query = StgqQuery::new(2, 1, 1, 9).unwrap();
        let out = solve_stgq_sequential(
            &g,
            q,
            &cals,
            &query,
            &SelectConfig::default(),
            SgqEngine::SgSelect,
        )
        .unwrap();
        assert!(out.solution.is_none());
        let fast = solve_stgq(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        assert!(fast.solution.is_none());
    }
}
