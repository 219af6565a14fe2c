//! The word-parallel / zero-allocation engines against the scalar
//! reference engines (`stgq::query::reference`): identical optimal
//! objective on every random instance, across pruning configurations. This is the acceptance gate for the hot-path
//! rework — the reference solvers are the pre-optimization algorithms
//! kept verbatim, so any divergence is a correctness regression in the
//! optimized path.

use proptest::prelude::*;

use stgq::prelude::*;
use stgq::query::reference::{solve_sgq_reference, solve_stgq_reference};
use stgq::query::validate::{validate_sgq, validate_stgq};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimized SGSelect == reference SGSelect on random instances, for
    /// the default and the relaxed ordering configuration.
    #[test]
    fn sgq_matches_reference(
        g in arb_graph(12),
        p in 2usize..6,
        s in 1usize..3,
        k in 0usize..3,
    ) {
        let q = NodeId(0);
        let query = SgqQuery::new(p, s, k).unwrap();
        for cfg in [SelectConfig::default(), SelectConfig::RELAXED, SelectConfig::NO_PRUNING] {
            let reference = solve_sgq_reference(&g, q, &query, &cfg).unwrap();
            let optimized = solve_sgq(&g, q, &query, &cfg).unwrap();
            prop_assert_eq!(
                optimized.solution.as_ref().map(|x| x.total_distance),
                reference.solution.as_ref().map(|x| x.total_distance),
                "cfg {:?}", cfg
            );
            if let Some(sol) = &optimized.solution {
                prop_assert!(validate_sgq(&g, q, &query, sol).is_ok());
            }
        }
    }

    /// Optimized STGSelect == reference STGSelect.
    #[test]
    fn stgq_matches_reference(
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
        let cfg = SelectConfig::default();
        let reference = solve_stgq_reference(&g, q, &cals, &query, &cfg).unwrap();
        let optimized = solve_stgq(&g, q, &cals, &query, &cfg).unwrap();
        prop_assert_eq!(
            optimized.solution.as_ref().map(|x| x.total_distance),
            reference.solution.as_ref().map(|x| x.total_distance)
        );
        if let Some(sol) = &optimized.solution {
            prop_assert!(validate_stgq(&g, q, &cals, &query, sol).is_ok());
        }
    }
}

/// The paper's worked Example 3 through the reference and the optimized
/// engine, pinned to the published answer.
#[test]
fn example3_reference_and_optimized_pin_the_paper_answer() {
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
    let g = b.build();
    let horizon = 7;
    let mut cals = vec![Calendar::new(horizon); 9];
    cals[2] = Calendar::from_slots(horizon, 0..7);
    cals[3] = Calendar::from_slots(horizon, [1, 2, 4, 5]);
    cals[4] = Calendar::from_slots(horizon, [0, 1, 2, 3, 4, 6]);
    cals[6] = Calendar::from_slots(horizon, [1, 2, 3, 4, 5, 6]);
    cals[7] = Calendar::from_slots(horizon, [0, 1, 2, 3, 4, 5]);
    cals[8] = Calendar::from_slots(horizon, [0, 2, 4, 5]);
    let query = StgqQuery::new(4, 1, 1, 3).unwrap();

    for out in [
        solve_stgq_reference(&g, NodeId(7), &cals, &query, &SelectConfig::default()).unwrap(),
        solve_stgq(&g, NodeId(7), &cals, &query, &SelectConfig::default()).unwrap(),
    ] {
        let sol = out.solution.expect("example 3 is feasible");
        assert_eq!(
            sol.members,
            vec![NodeId(2), NodeId(4), NodeId(6), NodeId(7)]
        );
        assert_eq!(sol.total_distance, 67);
        assert_eq!(sol.period, SlotRange::new(1, 3));
    }
}
