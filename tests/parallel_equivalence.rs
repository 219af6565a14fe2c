//! The parallel engines must return the sequential optimum — not a close
//! value, the exact same objective — on arbitrary inputs, thread counts
//! and candidate masks. Witness groups may differ among ties; objectives
//! may not.

use proptest::prelude::*;
use stgq::graph::{BitSet, FeasibleGraph, GraphBuilder, NodeId, SocialGraph};
use stgq::prelude::*;
use stgq::query::validate::{validate_sgq, validate_stgq};
use stgq::query::{SgqOutcome, Solver, StgqOutcome};

/// SGQ on `threads` workers over the radius-`s` candidate space of `q`.
fn parallel_sgq(g: &SocialGraph, q: NodeId, query: &SgqQuery, threads: usize) -> SgqOutcome {
    let fg = FeasibleGraph::extract(g, q, query.s());
    Solver::new(&fg, &SelectConfig::default())
        .threads(threads)
        .sgq(query, None)
}

/// STGQ on `threads` workers over the radius-`s` candidate space of `q`.
fn parallel_stgq(
    g: &SocialGraph,
    q: NodeId,
    cals: &[Calendar],
    query: &StgqQuery,
    threads: usize,
) -> StgqOutcome {
    let fg = FeasibleGraph::extract(g, q, query.s());
    Solver::new(&fg, &SelectConfig::default())
        .threads(threads)
        .stgq(cals, query)
}

fn graph_from(n: u32, edges: &[(u32, u32, u64)]) -> SocialGraph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v, w) in edges {
        if u != v && !b.has_edge(NodeId(u), NodeId(v)) {
            b.add_edge(NodeId(u), NodeId(v), 1 + w % 60).unwrap();
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn sgq_objective_is_thread_count_invariant(
        edges in proptest::collection::vec((0u32..16, 0u32..16, 0u64..60), 0..70),
        p in 2usize..6,
        s in 1usize..3,
        k in 0usize..3,
        threads in 2usize..5,
    ) {
        let g = graph_from(16, &edges);
        let query = SgqQuery::new(p, s, k).unwrap();
        let cfg = SelectConfig::default();
        let seq = solve_sgq(&g, NodeId(0), &query, &cfg).unwrap();
        let par = parallel_sgq(&g, NodeId(0), &query, threads);
        prop_assert_eq!(
            seq.solution.as_ref().map(|x| x.total_distance),
            par.solution.as_ref().map(|x| x.total_distance)
        );
        if let Some(sol) = &par.solution {
            prop_assert!(validate_sgq(&g, NodeId(0), &query, sol).is_ok());
        }
    }

    #[test]
    fn stgq_objective_is_thread_count_invariant(
        edges in proptest::collection::vec((0u32..12, 0u32..12, 0u64..60), 0..50),
        avail in proptest::collection::vec(proptest::collection::vec(proptest::bool::ANY, 18), 12),
        p in 2usize..5,
        k in 0usize..3,
        m in 1usize..4,
        threads in 2usize..5,
    ) {
        let g = graph_from(12, &edges);
        let cals: Vec<Calendar> = avail
            .iter()
            .map(|bits| {
                let mut c = Calendar::new(bits.len());
                for (i, &b) in bits.iter().enumerate() {
                    c.set_available(i, b);
                }
                c
            })
            .collect();
        let query = StgqQuery::new(p, 2, k, m).unwrap();
        let cfg = SelectConfig::default();
        let seq = solve_stgq(&g, NodeId(0), &cals, &query, &cfg).unwrap();
        let par = parallel_stgq(&g, NodeId(0), &cals, &query, threads);
        prop_assert_eq!(
            seq.solution.as_ref().map(|x| x.total_distance),
            par.solution.as_ref().map(|x| x.total_distance)
        );
        if let Some(sol) = &par.solution {
            prop_assert!(validate_stgq(&g, NodeId(0), &cals, &query, sol).is_ok());
        }
    }

    /// Masked solving (the per-period hook the STGQ engines rely on) must
    /// stay equivalent under parallelism too.
    #[test]
    fn masked_sgq_objective_matches(
        edges in proptest::collection::vec((0u32..14, 0u32..14, 0u64..60), 10..60),
        mask_bits in proptest::collection::vec(proptest::bool::ANY, 14),
        p in 2usize..5,
    ) {
        let g = graph_from(14, &edges);
        let fg = FeasibleGraph::extract(&g, NodeId(0), 2);
        let mut mask = BitSet::new(fg.len());
        for c in 0..fg.len() {
            let orig = fg.origin(c as u32);
            if mask_bits[orig.index()] {
                mask.insert(c);
            }
        }
        let query = SgqQuery::new(p, 2, 1).unwrap();
        let cfg = SelectConfig::default();
        let seq = Solver::new(&fg, &cfg).sgq(&query, Some(&mask));
        let par = Solver::new(&fg, &cfg).threads(3).sgq(&query, Some(&mask));
        prop_assert_eq!(
            seq.solution.as_ref().map(|x| x.total_distance),
            par.solution.as_ref().map(|x| x.total_distance)
        );
        // Masked-out members must never appear.
        if let Some(sol) = &par.solution {
            for &v in &sol.members {
                let c = fg.compact(v).unwrap();
                prop_assert!(c == 0 || mask.contains(c as usize));
            }
        }
    }
}

/// A dense fixture where many optimal ties exist: objectives must agree
/// even when witnesses differ run to run.
#[test]
fn tie_rich_instance_agrees_on_objective() {
    let mut b = GraphBuilder::new(10);
    for u in 0..10u32 {
        for v in (u + 1)..10 {
            b.add_edge(NodeId(u), NodeId(v), 5).unwrap();
        }
    }
    let g = b.build();
    let query = SgqQuery::new(6, 1, 2).unwrap();
    let cfg = SelectConfig::default();
    let seq = solve_sgq(&g, NodeId(0), &query, &cfg)
        .unwrap()
        .solution
        .unwrap();
    for threads in [2, 3, 8] {
        let par = parallel_sgq(&g, NodeId(0), &query, threads)
            .solution
            .unwrap();
        assert_eq!(par.total_distance, seq.total_distance);
        assert_eq!(par.members.len(), 6);
    }
}

/// `SelectConfig::frame_budget` caps each parallel worker, not each
/// forced-prefix subtree a worker searches: `threads` workers with a
/// budget of `b` frames enter at most `threads · b` frames in total, and
/// the truncated solve says so.
#[test]
fn frame_budget_caps_each_parallel_worker() {
    let n = 40u32;
    let mut b = GraphBuilder::new(n as usize);
    for i in 0..n {
        for j in i + 1..n {
            if j == i + 1 || (7 * i + 3 * j) % 5 < 2 {
                b.add_edge(NodeId(i), NodeId(j), 1 + u64::from((13 * i + 17 * j) % 40))
                    .unwrap();
            }
        }
    }
    let g = b.build();
    let (threads, budget) = (2usize, 1u64);
    let cfg = SelectConfig::NO_SEARCH_REDUCTION.with_frame_budget(budget);
    let cap = threads as u64 * budget;

    let sgq = SgqQuery::new(6, 2, 2).unwrap();
    let fg = FeasibleGraph::extract(&g, NodeId(0), sgq.s());
    let out = Solver::new(&fg, &cfg).threads(threads).sgq(&sgq, None);
    assert!(out.stats.truncated, "SGQ: the budget stopped the search");
    assert!(
        out.stats.frames <= cap,
        "SGQ: {} frames on {threads} workers with a {budget}-frame budget",
        out.stats.frames
    );

    // Two pivots for two workers: the intra-pivot subtree split.
    let stgq = StgqQuery::new(6, 2, 2, 3).unwrap();
    let cals = vec![Calendar::all_available(6); n as usize];
    let out = Solver::new(&fg, &cfg).threads(threads).stgq(&cals, &stgq);
    assert!(out.stats.truncated, "STGQ: the budget stopped the search");
    assert!(
        out.stats.frames <= cap,
        "STGQ: {} frames on {threads} workers with a {budget}-frame budget",
        out.stats.frames
    );
}
