//! Shard-scoped snapshot publication + delta-scoped cache invalidation,
//! end to end:
//!
//! * **Answer identity** — under random write/query interleavings, a
//!   shard-stamped planner (shards = 8) answers bit-identically to a
//!   full-invalidation planner (shards = 1: every write floods the one
//!   shard) and to solving fresh from the mutable world — the cache is
//!   *never* stale — while hitting at least as often.
//! * **Scale acceptance** — at 10^5 members, a delta confined to one
//!   shard-aligned community rebuilds exactly one sub-snapshot (the
//!   other 31 carry over by `Arc`) and evicts exactly the entries that
//!   read it.
//! * **Determinism on `metropolis`** — the batched executor path equals
//!   sequential solving on the scale dataset.

use proptest::prelude::*;

use stgq::datagen::metropolis::{metropolis, metropolis_with_communities, MetropolisConfig};
use stgq::exec::ExecConfig;
use stgq::graph::{FeasibleGraph, FeasibleView, ShardedGraph};
use stgq::prelude::*;
use stgq::query::{solve_sgq, solve_stgq};
use stgq::service::{Engine, Planner};
use stgq_bench::serving::{
    batch_objectives, hot_workload, planner_from_dataset, sequential_objectives,
};

const N: u32 = 12;
const HORIZON: usize = 8;

fn planner_with_shards(shards: usize) -> Planner {
    let mut p = Planner::with_exec_config(
        HORIZON,
        ExecConfig {
            workers: 1,
            shards,
            ..ExecConfig::default()
        },
    );
    for i in 0..N {
        p.add_person(format!("p{i}"));
    }
    // A ring so every initiator has neighbors from the start.
    for i in 0..N {
        p.connect(NodeId(i), NodeId((i + 1) % N), 2).unwrap();
    }
    for i in 0..N {
        p.set_availability_range(NodeId(i), SlotRange::new(0, 5), true)
            .unwrap();
    }
    p
}

/// One encoded op applied identically to both planners; queries return
/// the two objectives plus the fresh-solve oracle's.
fn apply(
    op: (u8, u8, u8, u64),
    sharded: &mut Planner,
    flood: &mut Planner,
) -> Option<[Option<u64>; 3]> {
    let (kind, a, b, w) = op;
    let (a, b) = (NodeId(a as u32 % N), NodeId(b as u32 % N));
    match kind % 5 {
        0 => {
            let r1 = sharded.connect(a, b, w);
            let r2 = flood.connect(a, b, w);
            assert_eq!(r1.is_ok(), r2.is_ok());
            None
        }
        1 => {
            let r1 = sharded.disconnect(a, b).unwrap();
            let r2 = flood.disconnect(a, b).unwrap();
            assert_eq!(r1, r2);
            None
        }
        2 => {
            let slot = b.index() % HORIZON;
            let avail = w % 2 == 0;
            sharded.set_availability(a, slot, avail).unwrap();
            flood.set_availability(a, slot, avail).unwrap();
            None
        }
        3 => {
            let q = SgqQuery::new(3, 1, 1).unwrap();
            let o1 = sharded
                .plan_sgq(a, &q, Engine::Exact)
                .unwrap()
                .solution
                .map(|s| s.total_distance);
            let o2 = flood
                .plan_sgq(a, &q, Engine::Exact)
                .unwrap()
                .solution
                .map(|s| s.total_distance);
            let oracle = solve_sgq(
                &sharded.network().snapshot(),
                a,
                &q,
                &SelectConfig::default(),
            )
            .unwrap()
            .solution
            .map(|s| s.total_distance);
            Some([o1, o2, oracle])
        }
        _ => {
            let q = StgqQuery::new(3, 1, 1, 2).unwrap();
            let o1 = sharded
                .plan_stgq(a, &q, Engine::Exact)
                .unwrap()
                .solution
                .map(|s| s.total_distance);
            let o2 = flood
                .plan_stgq(a, &q, Engine::Exact)
                .unwrap()
                .solution
                .map(|s| s.total_distance);
            let oracle = solve_stgq(
                &sharded.network().snapshot(),
                a,
                sharded.calendars().calendars(),
                &q,
                &SelectConfig::default(),
            )
            .unwrap()
            .solution
            .map(|s| s.total_distance);
            Some([o1, o2, oracle])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole's safety property: shard-version-keyed caching is
    /// observationally identical to full invalidation (and to no cache
    /// at all), under arbitrary interleavings of graph writes, calendar
    /// writes, SGQ and STGQ queries — and it hits strictly at-least-as
    /// often.
    #[test]
    fn shard_stamped_cache_is_answer_identical_to_full_invalidation(
        ops in proptest::collection::vec((0u8..5, 0u8..32, 0u8..32, 1u64..9), 1..40),
    ) {
        let mut sharded = planner_with_shards(8);
        let mut flood = planner_with_shards(1);
        for op in ops {
            if let Some([o_sharded, o_flood, o_fresh]) = apply(op, &mut sharded, &mut flood) {
                prop_assert_eq!(o_sharded, o_flood, "sharded vs flood diverged");
                prop_assert_eq!(o_sharded, o_fresh, "cached answer is stale");
            }
        }
        let m_sharded = sharded.exec_metrics();
        let m_flood = flood.exec_metrics();
        prop_assert!(
            m_sharded.result_cache_hits >= m_flood.result_cache_hits,
            "delta-scoped stamps must hit at least as often ({} < {})",
            m_sharded.result_cache_hits,
            m_flood.result_cache_hits
        );
    }
}

/// The ISSUE's scale acceptance: at 10^5 members, a WorldDelta confined
/// to one shard-aligned community rebuilds only that community's
/// sub-snapshot and evicts only that community's cache entries.
#[test]
fn a_single_community_delta_rebuilds_and_evicts_one_shard_at_100k_members() {
    const SHARDS: usize = 16;
    let cfg = MetropolisConfig::with_members(100_000);
    let (ds, communities) = metropolis_with_communities(&cfg, 1, 11);
    assert_eq!(
        cfg.shards, SHARDS,
        "world and executor must share the modulus"
    );

    let mut p = Planner::with_exec_config(
        ds.grid.horizon(),
        ExecConfig {
            workers: 1,
            shards: SHARDS,
            ..ExecConfig::default()
        },
    );
    for v in 0..ds.graph.node_count() {
        p.add_person(format!("p{v}"));
    }
    for e in ds.graph.edges() {
        p.connect(e.a, e.b, e.weight).unwrap();
    }
    for (v, cal) in ds.calendars.iter().enumerate() {
        p.set_calendar(NodeId(v as u32), cal.clone()).unwrap();
    }

    // Two communities in different shards, each with at least two
    // members to host an intra-community edge.
    let ca = communities.iter().find(|c| c.len() >= 2).unwrap();
    let shard_a = ca[0] as usize % SHARDS;
    let cb = communities
        .iter()
        .find(|c| c.len() >= 2 && c[0] as usize % SHARDS != shard_a)
        .unwrap();
    let (xa, ya) = (NodeId(ca[0]), NodeId(cb[0]));
    let q = SgqQuery::new(3, 1, 1).unwrap();

    // Warm: first query publishes the initial epoch (all 32 shards
    // rebuilt), both answers enter the result cache.
    assert!(!p.plan_sgq(xa, &q, Engine::Exact).unwrap().result_cache_hit);
    assert!(!p.plan_sgq(ya, &q, Engine::Exact).unwrap().result_cache_hit);
    let m0 = p.exec_metrics();
    assert_eq!(m0.snapshot_shards_rebuilt, 2 * SHARDS as u64);

    // One delta, confined to community A: re-weight an intra-community
    // edge (both endpoints share community A's residue class).
    p.connect(NodeId(ca[0]), NodeId(ca[1]), 4).unwrap();

    // B's repeat republishes: exactly one sub-snapshot (community A's
    // graph segment) is rebuilt, the other 31 carry over by Arc — and
    // B's cached answer survives.
    let rb = p.plan_sgq(ya, &q, Engine::Exact).unwrap();
    assert!(
        rb.result_cache_hit,
        "an untouched community keeps replaying"
    );
    let m1 = p.exec_metrics();
    assert_eq!(m1.snapshot_shards_rebuilt - m0.snapshot_shards_rebuilt, 1);
    assert_eq!(
        m1.snapshot_shards_reused - m0.snapshot_shards_reused,
        2 * SHARDS as u64 - 1
    );

    // A's repeat is the only eviction in the whole cache.
    let ra = p.plan_sgq(xa, &q, Engine::Exact).unwrap();
    assert!(!ra.result_cache_hit, "the touched community re-solves");
    let m2 = p.exec_metrics();
    assert_eq!(m2.result_cache_evicted_stale_shard, 1);
    assert_eq!(m2.result_cache_evicted_capacity, 0);
}

/// `FeasibleView` equals the dense-DP materialized graph over the same
/// sharded world, `compact` checked for every world id.
fn assert_view_matches_materialized(graph: &SocialGraph, initiator: NodeId, s: usize) {
    let sharded = ShardedGraph::from_flat(graph, 16);
    let fg = FeasibleGraph::extract_from(&sharded, initiator, s);
    let view = FeasibleView::extract(&sharded, initiator, s);
    assert_eq!(view.len(), fg.len());
    assert_eq!(view.candidate_order(), fg.candidate_order());
    for i in 0..fg.len() as u32 {
        assert_eq!(view.origin(i), fg.origin(i));
        assert_eq!(view.dist(i), fg.dist(i));
        assert_eq!(view.order_pos(i), fg.order_pos(i));
        assert_eq!(view.adj_words(i), fg.adj_words(i), "row {i}");
    }
    for v in 0..graph.node_count() as u32 {
        assert_eq!(view.compact(NodeId(v)), fg.compact(NodeId(v)), "v{v}");
    }
}

/// The zero-copy extraction reuses one world-sized scratch per thread.
/// After a 10^5-member metropolis extraction, the same thread extracts
/// from a six-member world whose ids the large call touched, then from
/// the metropolis again: nothing one call set may leak into the next.
#[test]
fn feasible_view_scratch_carries_nothing_from_a_metropolis_into_a_six_member_world() {
    let metro = metropolis(&MetropolisConfig::with_members(100_000), 1, 7);
    let mut b = GraphBuilder::new(6);
    for (u, v, w) in [(0, 1, 9), (1, 2, 4), (2, 3, 7), (0, 4, 2), (4, 3, 30)] {
        b.add_edge(NodeId(u), NodeId(v), w).unwrap();
    }
    let six = b.build();

    assert_view_matches_materialized(&metro.graph, NodeId(3), 2);
    assert_view_matches_materialized(&six, NodeId(0), 3);
    assert_view_matches_materialized(&metro.graph, NodeId(4242), 3);
    assert_view_matches_materialized(&six, NodeId(5), 2);
}

/// Batched execution through the worker pool is bit-identical to
/// sequential solving on the `metropolis` scale dataset.
#[test]
fn metropolis_batched_execution_matches_sequential() {
    let cfg = MetropolisConfig {
        members: 2_000,
        shards: 8,
        ..MetropolisConfig::with_members(2_000)
    };
    let ds = metropolis(&cfg, 1, 7);
    let batch = hot_workload(&ds, 3, 1, 1, 2);
    for workers in [1usize, 4] {
        let planner = planner_from_dataset(&ds, workers);
        let sequential = sequential_objectives(&planner, &batch);
        let batched = batch_objectives(&planner, &batch);
        assert_eq!(sequential, batched, "workers = {workers}");
    }
}
