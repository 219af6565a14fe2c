//! Acceptance tests for the search-reduction layers: the seeded,
//! promise-ordered engines, with the always-on candidate-space
//! reduction, incremental prep and pooled buffers, must return the
//! **identical optimal objective** as the scalar reference engines on
//! random instances, across every surviving `SelectConfig` switch; and
//! the `SearchStats` counters must actually register the reduction.

use proptest::prelude::*;

use stgq::graph::{bounded_distances, FeasibleGraph};
use stgq::prelude::*;
use stgq::query::reference::solve_stgq_reference_on;
use stgq::query::reference::{solve_sgq_reference, solve_stgq_reference};
use stgq::query::validate::validate_stgq;
use stgq::query::{PivotArena, Solver, StgqSolution};

fn arb_graph(max_n: usize) -> impl Strategy<Value = SocialGraph> {
    (3usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(
            (0u32..n as u32, 0u32..n as u32, 1u64..40),
            n - 1..=max_edges,
        )
        .prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v && !b.has_edge(NodeId(u), NodeId(v)) {
                    b.add_edge(NodeId(u), NodeId(v), w).unwrap();
                }
            }
            for i in 0..n as u32 - 1 {
                if !b.has_edge(NodeId(i), NodeId(i + 1)) {
                    b.add_edge(NodeId(i), NodeId(i + 1), 11).unwrap();
                }
            }
            b.build()
        })
    })
}

fn arb_calendars(n: usize, horizon: usize) -> impl Strategy<Value = Vec<Calendar>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0usize..horizon, horizon / 3..horizon),
        n..=n,
    )
    .prop_map(move |sets| {
        sets.into_iter()
            .map(|s| Calendar::from_slots(horizon, s))
            .collect()
    })
}

/// The member sets of every optimal group for `query` from vertex 0,
/// by exhaustive search over groups and periods (`validate_stgq` is the
/// feasibility oracle). Empty when the query is infeasible.
fn optimal_member_sets(g: &SocialGraph, cals: &[Calendar], query: &StgqQuery) -> Vec<Vec<NodeId>> {
    let q = NodeId(0);
    let dists = bounded_distances(g, q, query.s());
    let reachable: Vec<NodeId> = (1..g.node_count() as u32)
        .map(NodeId)
        .filter(|v| dists[v.index()].is_some())
        .collect();
    let (m, horizon) = (query.m(), cals[0].horizon());
    let mut best: Option<Dist> = None;
    let mut optima = Vec::new();
    let mut pick = Vec::new();
    let mut groups = Vec::new();
    subsets(&reachable, query.p() - 1, &mut pick, &mut groups);
    for others in groups {
        let mut members = others;
        members.push(q);
        members.sort_unstable();
        let total = members.iter().map(|v| dists[v.index()].unwrap()).sum();
        if best.is_some_and(|b| total > b) {
            continue;
        }
        let feasible = (0..=horizon - m).any(|lo| {
            let candidate = StgqSolution {
                members: members.clone(),
                total_distance: total,
                period: SlotRange::new(lo, lo + m - 1),
                pivot: lo,
            };
            validate_stgq(g, q, cals, query, &candidate).is_ok()
        });
        if !feasible {
            continue;
        }
        if best != Some(total) {
            best = Some(total);
            optima.clear();
        }
        optima.push(members);
    }
    optima
}

/// Push every `size`-subset of `pool` onto `out`.
fn subsets(pool: &[NodeId], size: usize, pick: &mut Vec<NodeId>, out: &mut Vec<Vec<NodeId>>) {
    if pick.len() == size {
        out.push(pick.clone());
        return;
    }
    for (i, &v) in pool.iter().enumerate() {
        pick.push(v);
        subsets(&pool[i + 1..], size, pick, out);
        pick.pop();
    }
}

/// The always-on candidate-space reduction layer (fixpoint core peel,
/// k-plex bound, per-solve peel memo) crossed with the paper's pruning
/// switches: the default, everything off, and each Lemma off alone —
/// the reduction's incumbent-relative halves are gated on distance
/// pruning, so each corner takes a different path through them.
fn candidate_reduction_grid() -> Vec<SelectConfig> {
    vec![
        SelectConfig::default(),
        SelectConfig::NO_PRUNING,
        SelectConfig::default().with_distance_pruning(false),
        SelectConfig::default().with_acquaintance_pruning(false),
        SelectConfig::default().with_availability_pruning(false),
    ]
}

/// The always-on incremental prep and parent-side completion bound
/// under the default and under the fully relaxed θ/φ start, which
/// changes the order candidates are accepted in.
fn prep_descent_grid() -> Vec<SelectConfig> {
    vec![SelectConfig::default(), SelectConfig::RELAXED]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential STGSelect — seeded, promise-ordered pivots — returns
    /// the reference optimum.
    #[test]
    fn seeded_promise_ordered_stgq_matches_reference(
        (g, cals) in arb_graph(11).prop_flat_map(|g| {
            let n = g.node_count();
            arb_calendars(n, 24).prop_map(move |cals| (g.clone(), cals))
        }),
        p in 2usize..5,
        k in 0usize..3,
        m in 1usize..5,
    ) {
        let q = NodeId(0);
        let query = StgqQuery::new(p, 2, k, m).unwrap();
        let reference =
            solve_stgq_reference(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        let out = solve_stgq(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        prop_assert_eq!(
            out.solution.as_ref().map(|x| x.total_distance),
            reference.solution.as_ref().map(|x| x.total_distance)
        );
        if let Some(sol) = &out.solution {
            prop_assert!(validate_stgq(&g, q, &cals, &query, sol).is_ok());
        }
    }

    /// Sequential STGSelect across the candidate-reduction grid returns
    /// the reference optimum — peeling never removes a member of any
    /// optimal group, and the matching bound never prunes a frame that
    /// leads to an improving solution, with or without the paper's
    /// pruning alongside.
    #[test]
    fn candidate_reduction_grid_stgq_matches_reference(
        (g, cals) in arb_graph(11).prop_flat_map(|g| {
            let n = g.node_count();
            arb_calendars(n, 24).prop_map(move |cals| (g.clone(), cals))
        }),
        p in 2usize..6,
        k in 0usize..3,
        m in 1usize..5,
    ) {
        let q = NodeId(0);
        let query = StgqQuery::new(p, 2, k, m).unwrap();
        let reference =
            solve_stgq_reference(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        for cfg in candidate_reduction_grid() {
            let out = solve_stgq(&g, q, &cals, &query, &cfg).unwrap();
            prop_assert_eq!(
                out.solution.as_ref().map(|x| x.total_distance),
                reference.solution.as_ref().map(|x| x.total_distance),
                "cfg {:?}", cfg
            );
            if let Some(sol) = &out.solution {
                prop_assert!(validate_stgq(&g, q, &cals, &query, sol).is_ok());
            }
        }
    }

    /// The same grid on the SGQ engine (the peel and the matching bound
    /// both fire on the SGSelect path too).
    #[test]
    fn candidate_reduction_grid_sgq_matches_reference(
        g in arb_graph(12),
        p in 2usize..6,
        k in 0usize..3,
    ) {
        let q = NodeId(0);
        let query = SgqQuery::new(p, 2, k).unwrap();
        let reference = solve_sgq_reference(&g, q, &query, &SelectConfig::default()).unwrap();
        for cfg in candidate_reduction_grid() {
            let out = solve_sgq(&g, q, &query, &cfg).unwrap();
            prop_assert_eq!(
                out.solution.as_ref().map(|x| x.total_distance),
                reference.solution.as_ref().map(|x| x.total_distance),
                "cfg {:?}", cfg
            );
        }
    }

    /// Sequential STGSelect across the prep/descent grid returns the
    /// reference optimum — delta-built eligibility and touch-time
    /// availability rows change nothing semantically, and the parent
    /// bound never prunes a child whose subtree holds a strictly better
    /// group, whatever order pivots and candidates come in.
    #[test]
    fn prep_descent_grid_stgq_matches_reference(
        (g, cals) in arb_graph(11).prop_flat_map(|g| {
            let n = g.node_count();
            arb_calendars(n, 24).prop_map(move |cals| (g.clone(), cals))
        }),
        p in 2usize..6,
        k in 0usize..3,
        m in 1usize..5,
    ) {
        let q = NodeId(0);
        let query = StgqQuery::new(p, 2, k, m).unwrap();
        let reference =
            solve_stgq_reference(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        for cfg in prep_descent_grid() {
            let out = solve_stgq(&g, q, &cals, &query, &cfg).unwrap();
            prop_assert_eq!(
                out.solution.as_ref().map(|x| x.total_distance),
                reference.solution.as_ref().map(|x| x.total_distance),
                "cfg {:?}", cfg
            );
            if let Some(sol) = &out.solution {
                prop_assert!(validate_stgq(&g, q, &cals, &query, sol).is_ok());
            }
        }
    }

    /// The same grid on the SGQ engine (the parent bound fires on the
    /// SGSelect expand path too).
    #[test]
    fn prep_descent_grid_sgq_matches_reference(
        g in arb_graph(12),
        p in 2usize..6,
        k in 0usize..3,
    ) {
        let q = NodeId(0);
        let query = SgqQuery::new(p, 2, k).unwrap();
        let reference = solve_sgq_reference(&g, q, &query, &SelectConfig::default()).unwrap();
        for cfg in prep_descent_grid() {
            let out = solve_sgq(&g, q, &query, &cfg).unwrap();
            prop_assert_eq!(
                out.solution.as_ref().map(|x| x.total_distance),
                reference.solution.as_ref().map(|x| x.total_distance),
                "cfg {:?}", cfg
            );
        }
    }

    /// Seeded sequential SGSelect returns the reference optimum.
    #[test]
    fn seeded_sgq_matches_reference(
        g in arb_graph(12),
        p in 2usize..6,
        k in 0usize..3,
    ) {
        let q = NodeId(0);
        let query = SgqQuery::new(p, 2, k).unwrap();
        let cfg = SelectConfig::default();
        let reference = solve_sgq_reference(&g, q, &query, &cfg).unwrap();
        let optimized = solve_sgq(&g, q, &query, &cfg).unwrap();
        prop_assert_eq!(
            optimized.solution.as_ref().map(|x| x.total_distance),
            reference.solution.as_ref().map(|x| x.total_distance)
        );
    }

    /// One arena serving a whole stream of queries returns bit-identical
    /// outcomes to fresh-buffer solves — pooling is allocation-only.
    #[test]
    fn pooled_solves_are_bit_identical_across_a_query_stream(
        (g, cals) in arb_graph(10).prop_flat_map(|g| {
            let n = g.node_count();
            arb_calendars(n, 20).prop_map(move |cals| (g.clone(), cals))
        }),
        k in 0usize..3,
    ) {
        let q = NodeId(0);
        let mut arena = PivotArena::new();
        let cfg = SelectConfig::default();
        // Varying (p, m) across the stream forces the arena to re-size its
        // buffers between queries, like a live planner would.
        for (p, m) in [(2usize, 3usize), (4, 1), (3, 4), (2, 2)] {
            let query = StgqQuery::new(p, 2, k, m).unwrap();
            let fg = FeasibleGraph::extract(&g, q, query.s());
            let pooled = Solver::new(&fg, &cfg).arena(&mut arena).stgq(&cals, &query);
            let fresh = Solver::new(&fg, &cfg).stgq(&cals, &query);
            prop_assert_eq!(pooled.solution, fresh.solution, "p {} m {}", p, m);
            prop_assert_eq!(pooled.stats, fresh.stats, "p {} m {}", p, m);
        }
    }
}

proptest! {
    // Exhaustive search makes each case cheap to check but only about
    // half the draws are feasible, so this property draws more cases.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Peeling is *witness*-preserving, not just objective-preserving: a
    /// peeled vertex belongs to no feasible group, and every other
    /// always-on bound retires only subtrees that cannot strictly beat
    /// the incumbent. So the engine answers with an optimal group of the
    /// unpeeled candidate space, and where that optimum's members are
    /// unique it returns the very members the unpeeled `reference`
    /// engine returns. The period may differ between optimal pivots (the
    /// engine visits pivots in promise order), so it must be a valid
    /// period for those members.
    #[test]
    fn peeling_preserves_the_witness(
        (g, cals) in arb_graph(10).prop_flat_map(|g| {
            let n = g.node_count();
            arb_calendars(n, 20).prop_map(move |cals| (g.clone(), cals))
        }),
        p in 2usize..5,
        k in 0usize..2,
        m in 1usize..4,
    ) {
        let q = NodeId(0);
        let query = StgqQuery::new(p, 2, k, m).unwrap();
        let cfg = SelectConfig::default();
        let fg = FeasibleGraph::extract(&g, q, query.s());
        let peeled = Solver::new(&fg, &cfg).stgq(&cals, &query);
        let unpeeled = solve_stgq_reference_on(&fg, &cals, &query, &cfg);
        let optima = optimal_member_sets(&g, &cals, &query);
        match (&peeled.solution, &unpeeled.solution) {
            (None, None) => prop_assert!(optima.is_empty()),
            (Some(peeled), Some(unpeeled)) => {
                prop_assert!(optima.contains(&peeled.members), "{:?} not in {:?}", peeled, optima);
                prop_assert!(optima.contains(&unpeeled.members));
                if optima.len() == 1 {
                    prop_assert_eq!(&peeled.members, &unpeeled.members);
                }
                prop_assert!(validate_stgq(&g, q, &cals, &query, peeled).is_ok());
            }
            (peeled, unpeeled) => panic!("feasibility differs: {peeled:?} vs {unpeeled:?}"),
        }
    }
}

/// On an easy instance — everyone mutually acquainted and always free —
/// the first-fit seed hits every pivot's distance floor, so the pivot
/// bound retires the entire pivot loop: zero frames examined, all pivots
/// skipped, and the optimum (the p − 1 nearest friends) still proven.
#[test]
fn easy_instances_are_solved_without_opening_a_single_frame() {
    let n = 10usize;
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.add_edge(NodeId(u), NodeId(v), u64::from(u + v)).unwrap();
        }
    }
    let g = b.build();
    let cals = vec![Calendar::all_available(48); n];
    let query = StgqQuery::new(4, 1, 1, 4).unwrap();
    let out = solve_stgq(&g, NodeId(0), &cals, &query, &SelectConfig::default()).unwrap();
    let sol = out.solution.expect("clique instances are feasible");
    // Nearest three friends of v0 are v1, v2, v3: distances 1 + 2 + 3.
    assert_eq!(sol.total_distance, 6);
    assert_eq!(out.stats.frames_examined(), 0, "no frame should open");
    assert!(
        out.stats.pivots_skipped > 0,
        "the bound retires every pivot"
    );
    // With pruning off (so no pivot skip) the same instance pays a real
    // search.
    let old = solve_stgq(&g, NodeId(0), &cals, &query, &SelectConfig::NO_PRUNING).unwrap();
    assert_eq!(
        old.solution.map(|s| s.total_distance),
        Some(sol.total_distance)
    );
    assert!(old.stats.frames_examined() > 0);
    assert_eq!(old.stats.pivots_skipped, 0);
}
