//! Acceptance tests for the search-reduction layers: the seeded,
//! promise-ordered, availability-tie-broken engines, with the always-on
//! candidate-space reduction, incremental prep and pooled buffers, must
//! return the **identical optimal objective** as the scalar reference
//! engines on random instances, across every surviving `SelectConfig`
//! switch; and the `SearchStats` counters must actually register the
//! reduction.

use proptest::prelude::*;

use stgq::graph::FeasibleGraph;
use stgq::prelude::*;
use stgq::query::reference::solve_stgq_reference_on;
use stgq::query::reference::{solve_sgq_reference, solve_stgq_reference};
use stgq::query::validate::validate_stgq;
use stgq::query::{PivotArena, Solver};

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

/// Every on/off combination of the three search-order switches
/// (seeding, promise-ordered pivots, availability tie-breaking).
fn reduction_grid() -> Vec<SelectConfig> {
    let mut grid = Vec::new();
    for seed in [0usize, 2] {
        for promise in [false, true] {
            for avail in [false, true] {
                grid.push(
                    SelectConfig::default()
                        .with_seed_restarts(seed)
                        .with_pivot_promise_order(promise)
                        .with_availability_ordering(avail),
                );
            }
        }
    }
    grid
}

/// The always-on candidate-space reduction layer (fixpoint core peel,
/// k-plex bound, shared peel memo) crossed with the paper's pruning
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
/// crossed with the search-order switches: the default, the whole
/// search-order layer off, and seeding, promise order and availability
/// ordering off one at a time.
fn prep_descent_grid() -> Vec<SelectConfig> {
    vec![
        SelectConfig::default(),
        SelectConfig::NO_SEARCH_REDUCTION,
        SelectConfig::default().with_seed_restarts(0),
        SelectConfig::default().with_pivot_promise_order(false),
        SelectConfig::default().with_availability_ordering(false),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential STGSelect with every combination of the search-order
    /// switches returns the reference optimum.
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
        for cfg in reduction_grid() {
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

    /// Peeling is *witness*-preserving, not just objective-preserving: a
    /// peeled vertex belongs to no feasible group, and every other
    /// always-on bound retires only subtrees that cannot strictly beat
    /// the incumbent. So with the search-order layer off — calendar
    /// pivot order, plain distance order, no seed — the engine returns
    /// the very members and period the unpeeled `reference` engine
    /// returns on the same candidate space.
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
        let cfg = SelectConfig::NO_SEARCH_REDUCTION;
        let fg = FeasibleGraph::extract(&g, q, query.s());
        let peeled = Solver::new(&fg, &cfg).stgq(&cals, &query);
        let unpeeled = solve_stgq_reference_on(&fg, &cals, &query, &cfg);
        prop_assert_eq!(
            peeled.solution.as_ref().map(|s| &s.members),
            unpeeled.solution.as_ref().map(|s| &s.members)
        );
        prop_assert_eq!(
            peeled.solution.as_ref().map(|s| s.period),
            unpeeled.solution.as_ref().map(|s| s.period)
        );
    }

    /// Seeded sequential SGSelect returns the reference optimum.
    #[test]
    fn seeded_sgq_matches_reference(
        g in arb_graph(12),
        p in 2usize..6,
        k in 0usize..3,
        seed_restarts in 0usize..4,
    ) {
        let q = NodeId(0);
        let query = SgqQuery::new(p, 2, k).unwrap();
        let cfg = SelectConfig::default().with_seed_restarts(seed_restarts);
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
    // With the search-order layer off (no seed, calendar-order pivots,
    // so no pivot skip) the same instance pays a real search.
    let old = solve_stgq(
        &g,
        NodeId(0),
        &cals,
        &query,
        &SelectConfig::NO_SEARCH_REDUCTION,
    )
    .unwrap();
    assert_eq!(
        old.solution.map(|s| s.total_distance),
        Some(sol.total_distance)
    );
    assert!(old.stats.frames_examined() > 0);
    assert_eq!(old.stats.pivots_skipped, 0);
}
