//! Algorithm **SGSelect** (§3.2): exact branch-and-bound for SGQ.
//!
//! The frame loop itself is the shared descent in [`crate::descent`],
//! run on the zero-sized [`UnitAxis`]; this module holds what is
//! SGQ-specific around it — the flat-graph entry point, the once-per-solve
//! (p, k)-core peel and the first-fit incumbent seed.

use stgq_graph::{BitSet, CandidateTopology, FeasibleGraph, NodeId, SocialGraph};

use crate::descent::{SearchCtx, Searcher, UnitAxis, VaState};
use crate::incumbent::Incumbent;
use crate::reduce::sgq_peel_preamble;
use crate::{
    QueryError, SearchStats, SelectConfig, SgqOutcome, SgqQuery, SgqSolution, SolveControl, Solver,
};

/// Solve an SGQ with SGSelect, returning the optimal group (or `None` when
/// the query is infeasible) together with search statistics.
///
/// Validates the initiator and extracts the radius-`s` candidate space,
/// then runs a default [`Solver`] on it (use [`Solver`] directly for a
/// pre-extracted candidate space, a candidate mask or a
/// [`SolveControl`]).
pub fn solve_sgq(
    graph: &SocialGraph,
    initiator: NodeId,
    query: &SgqQuery,
    cfg: &SelectConfig,
) -> Result<SgqOutcome, QueryError> {
    if initiator.index() >= graph.node_count() {
        return Err(QueryError::InitiatorOutOfRange {
            initiator,
            node_count: graph.node_count(),
        });
    }
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(Solver::new(&fg, cfg).sgq(query, None))
}

/// The sequential SGSelect solve behind [`Solver::sgq`]. `candidate_mask`,
/// when given, restricts `VA` to the compact indices it contains (the
/// initiator's membership is implied); `control` is already filtered of
/// no-op policies.
pub(crate) fn solve<G: CandidateTopology>(
    fg: &G,
    query: &SgqQuery,
    cfg: &SelectConfig,
    candidate_mask: Option<&BitSet>,
    control: Option<&SolveControl>,
) -> SgqOutcome {
    let p = query.p();
    if p == 1 {
        // The group is just the initiator; every constraint holds trivially.
        return SgqOutcome {
            solution: Some(SgqSolution {
                members: vec![fg.origin(0)],
                total_distance: 0,
            }),
            stats: SearchStats::default(),
        };
    }

    // Fixpoint (p, k)-core peel of the candidate set: the SGQ analog of
    // the STGQ pivot peel, run once per solve. Peeled candidates can belong
    // to no feasible group, so dropping them from `VA` (not just from a
    // floor) is exact; a core below `p` — or an initiator short of
    // `p − 1 − k` acquaintances within it — proves the query infeasible
    // outright.
    let (peeled_candidates, peeled_set) = match sgq_peel_preamble(fg, p, query.k(), candidate_mask)
    {
        Ok(kept) => kept,
        Err(refused) => return *refused,
    };
    let candidate_mask = peeled_set.as_ref().or(candidate_mask);

    let incumbent = Incumbent::new();
    // Incumbent seeding: a feasible solution switches Lemma-2 distance
    // pruning on from the very first frame, and a non-optimal bound never
    // cuts a strictly better solution. The access-ordered descent finds
    // its own first completion within ~p frames, so a full greedy run
    // rarely pays here — only the near-free first-fit probe (the
    // initiator plus the p − 1 nearest candidates, also the instance's
    // distance floor) runs ahead of it.
    if let Some((members, dist)) =
        crate::heuristics::first_fit_sgq_seed(fg, p, query.k(), candidate_mask)
    {
        incumbent.offer(dist, || members);
    }
    let mut stats = SearchStats {
        peeled_candidates,
        ..SearchStats::default()
    };
    let ctx = SearchCtx {
        fg,
        p,
        k: query.k(),
        cfg: *cfg,
        incumbent: &incumbent,
        control,
    };
    let mut va = VaState::init(fg, candidate_mask);
    Searcher::new(ctx, UnitAxis, &mut stats).expand(&mut va, 0);

    let solution = incumbent
        .into_best()
        .map(|(total_distance, group)| SgqSolution {
            members: fg.to_origin_group(group),
            total_distance,
        });
    SgqOutcome { solution, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descent::VaState;
    use stgq_graph::{BitSet, GraphBuilder};

    /// The Figure-3 graph of the paper's Example 2 (weights as listed in
    /// Fig. 3(b); candidate-candidate weights are immaterial at s = 1).
    ///
    /// Adjacency reconstructed from the worked example:
    /// v7 (initiator) — v2, v3, v4, v6, v8; v2—v4, v2—v6, v3—v4, v4—v6.
    pub(crate) fn example2_graph() -> (SocialGraph, NodeId) {
        // indices: 0 unused spacer? Keep natural ids v2..v8 → 2..8 over 9 slots.
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
    fn example2_optimal_group() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let out = solve_sgq(&g, q, &query, &SelectConfig::default()).unwrap();
        let sol = out.solution.expect("example 2 is feasible");
        assert_eq!(
            sol.total_distance, 62,
            "paper: optimal {{v2,v3,v4,v7}} = 62"
        );
        assert_eq!(
            sol.members,
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(7)]
        );
    }

    #[test]
    fn example2_with_k_zero_forces_clique() {
        let (g, q) = example2_graph();
        // k=0 demands a clique containing v7: {v2,v4,v6,v7}? v2-v4 ✓ v2-v6 ✓
        // v4-v6 ✓ and v7 adj all ✓ → distance 17+27+23 = 67.
        let query = SgqQuery::new(4, 1, 0).unwrap();
        let sol = solve_sgq(&g, q, &query, &SelectConfig::default())
            .unwrap()
            .solution
            .expect("clique exists");
        assert_eq!(
            sol.members,
            vec![NodeId(2), NodeId(4), NodeId(6), NodeId(7)]
        );
        assert_eq!(sol.total_distance, 67);
    }

    #[test]
    fn infeasible_when_p_exceeds_reachable() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(8, 1, 7).unwrap(); // only 6 reachable (incl. q)
        let out = solve_sgq(&g, q, &query, &SelectConfig::default()).unwrap();
        assert!(out.solution.is_none());
    }

    #[test]
    fn p_one_returns_singleton_initiator() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(1, 1, 0).unwrap();
        let sol = solve_sgq(&g, q, &query, &SelectConfig::default())
            .unwrap()
            .solution
            .unwrap();
        assert_eq!(sol.members, vec![q]);
        assert_eq!(sol.total_distance, 0);
    }

    #[test]
    fn p_two_picks_closest_friend() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(2, 1, 1).unwrap();
        let sol = solve_sgq(&g, q, &query, &SelectConfig::default())
            .unwrap()
            .solution
            .unwrap();
        assert_eq!(sol.members, vec![NodeId(2), NodeId(7)]);
        assert_eq!(sol.total_distance, 17);
    }

    #[test]
    fn initiator_out_of_range_is_an_error() {
        let (g, _) = example2_graph();
        let query = SgqQuery::new(2, 1, 1).unwrap();
        let err = solve_sgq(&g, NodeId(99), &query, &SelectConfig::default()).unwrap_err();
        assert!(matches!(err, QueryError::InitiatorOutOfRange { .. }));
    }

    #[test]
    fn mask_restricts_candidates() {
        let (g, q) = example2_graph();
        let fg = FeasibleGraph::extract(&g, q, 1);
        let query = SgqQuery::new(2, 1, 1).unwrap();
        // Mask out v2 (the closest): best becomes v3 at 18.
        let mut mask = BitSet::full(fg.len());
        mask.remove(fg.compact(NodeId(2)).unwrap() as usize);
        let out = Solver::new(&fg, &SelectConfig::default()).sgq(&query, Some(&mask));
        let sol = out.solution.unwrap();
        assert_eq!(sol.members, vec![NodeId(3), NodeId(7)]);
        assert_eq!(sol.total_distance, 18);
    }

    #[test]
    fn theta_zero_config_still_optimal() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let a = solve_sgq(&g, q, &query, &SelectConfig::default())
            .unwrap()
            .solution;
        let b = solve_sgq(&g, q, &query, &SelectConfig::RELAXED)
            .unwrap()
            .solution;
        assert_eq!(
            a.as_ref().map(|s| s.total_distance),
            b.as_ref().map(|s| s.total_distance),
            "θ only affects ordering, never the optimum"
        );
    }

    #[test]
    fn stats_reflect_search_effort() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let out = solve_sgq(&g, q, &query, &SelectConfig::default()).unwrap();
        assert!(out.stats.frames >= 1);
        assert!(out.stats.candidates_examined > 0);
        assert!(out.stats.solutions_recorded >= 1);
    }

    #[test]
    fn va_state_counters_stay_consistent() {
        let (g, q) = example2_graph();
        let fg = FeasibleGraph::extract(&g, q, 1);
        let mut va = VaState::init(&fg, None);
        let naive_total = |va: &VaState| -> u64 {
            va.set
                .iter()
                .map(|v| fg.adj(v as u32).intersection_len(&va.set) as u64)
                .sum()
        };
        assert_eq!(va.total_inner, naive_total(&va));
        let members: Vec<u32> = va.set.iter().map(|v| v as u32).collect();
        for u in members {
            va.remove(u, &fg);
            assert_eq!(va.total_inner, naive_total(&va), "after removing {u}");
            for v in va.set.iter() {
                assert_eq!(
                    u64::from(va.cnt_in_a[v]),
                    fg.adj(v as u32).intersection_len(&va.set) as u64
                );
            }
        }
    }

    /// Random remove/rewind sequences restore the state bit-for-bit and
    /// keep every counter consistent at each step — the invariant the
    /// zero-allocation (undo-log) descent rests on.
    #[test]
    fn va_state_undo_log_restores_exactly() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 16;
            let mut b = GraphBuilder::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.4) {
                        b.add_edge(NodeId(u as u32), NodeId(v as u32), 1 + u as u64 + v as u64)
                            .unwrap();
                    }
                }
            }
            let g = b.build();
            let fg = FeasibleGraph::extract(&g, NodeId(0), 3);
            let mut va = VaState::init(&fg, None);
            let snapshot = va.clone();
            let naive_total = |va: &VaState| -> u64 {
                va.set
                    .iter()
                    .map(|v| fg.adj(v as u32).intersection_len(&va.set) as u64)
                    .sum()
            };

            // Nested mark/remove/undo rounds, like a search descent.
            for _ in 0..4 {
                let outer = va.mark();
                let present: Vec<u32> = va.set.iter().map(|v| v as u32).collect();
                for &u in present.iter().take(rng.gen_range(0..=present.len())) {
                    va.remove(u, &fg);
                    let inner = va.mark();
                    // An inner "frame" removes a few more and rewinds.
                    let rest: Vec<u32> = va.set.iter().map(|v| v as u32).collect();
                    for &w in rest.iter().take(rng.gen_range(0..=rest.len().min(3))) {
                        va.remove(w, &fg);
                    }
                    while va.mark() > inner {
                        va.undo_last(&fg);
                    }
                    assert_eq!(va.total_inner, naive_total(&va), "seed {seed}");
                }
                while va.mark() > outer {
                    va.undo_last(&fg);
                }
                assert_eq!(va.set, snapshot.set, "seed {seed}");
                assert_eq!(va.cnt_in_a, snapshot.cnt_in_a, "seed {seed}");
                assert_eq!(va.total_inner, snapshot.total_inner, "seed {seed}");
            }
        }
    }
}
