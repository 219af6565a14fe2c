//! White-box behavioural tests for the pruning strategies: crafted
//! instances where a specific pruning rule provably must (or must not)
//! fire, observed through the engines' work counters.

use stgq::prelude::*;
use stgq::query::{solve_sgq, solve_stgq, SgqQuery, StgqQuery};

/// A star of strangers: the initiator knows everyone, nobody else knows
/// anyone. Any group of ≥ k+2 violates the acquaintance constraint, and
/// acquaintance pruning should detect it without enumerating groups.
#[test]
fn acquaintance_pruning_kills_star_instances_fast() {
    let n = 40;
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.add_edge(NodeId(0), NodeId(v), u64::from(v)).unwrap();
    }
    let g = b.build();
    let query = SgqQuery::new(6, 1, 2).unwrap();

    // With the full default stack the fixpoint peel settles it first:
    // every stranger has eligible degree 1 < p − 1 − k = 3, so the
    // whole candidate set is peeled and the query is refused without a
    // single frame.
    let default_run = solve_sgq(&g, NodeId(0), &query, &SelectConfig::default()).unwrap();
    assert!(default_run.solution.is_none());
    assert_eq!(default_run.stats.peeled_candidates, 39, "everyone peeled");
    assert_eq!(default_run.stats.frames, 0, "refused before any search");

    // Lemma 3's own behaviour, on an instance the peel cannot settle:
    // the initiator knows everyone on a ring of 8 where each person
    // knows only their two ring neighbours. Every degree meets the peel
    // threshold p − 1 − k = 3 (two neighbours plus the initiator), but
    // the ring has no triangle, so no 4-clique exists. Once the first
    // root candidate's subtree is exhausted, her neighbours' inner
    // degrees drop and Lemma 3 retires the root frame.
    let ring = 8u32;
    let mut b = GraphBuilder::new(ring as usize + 1);
    for v in 1..=ring {
        b.add_edge(NodeId(0), NodeId(v), u64::from(v)).unwrap();
        b.add_edge(NodeId(v), NodeId(v % ring + 1), 1).unwrap();
    }
    let g = b.build();
    let query = SgqQuery::new(4, 1, 0).unwrap();
    let base = SelectConfig::default();
    let with = solve_sgq(&g, NodeId(0), &query, &base).unwrap();
    assert!(
        with.solution.is_none(),
        "p=4 with k=0 on a triangle-free ring is infeasible"
    );
    assert_eq!(with.stats.peeled_candidates, 0, "the peel keeps the ring");
    let without = solve_sgq(
        &g,
        NodeId(0),
        &query,
        &base.with_acquaintance_pruning(false),
    )
    .unwrap();
    assert!(without.solution.is_none());
    assert!(
        with.stats.acquaintance_prunes > 0,
        "the ring must trigger acquaintance pruning"
    );
    assert!(
        with.stats.candidates_examined <= without.stats.candidates_examined,
        "pruning may only reduce work: {} vs {}",
        with.stats.candidates_examined,
        without.stats.candidates_examined
    );
}

/// Two cliques at very different distances: once the near clique is found,
/// distance pruning must stop the search from ever descending into the far
/// clique's subtree.
#[test]
fn distance_pruning_skips_expensive_subtrees() {
    let mut b = GraphBuilder::new(9);
    // Near clique {1,2,3} at distance 1 each; far clique {4,5,6,7} at 100.
    for v in [1u32, 2, 3] {
        b.add_edge(NodeId(0), NodeId(v), 1).unwrap();
    }
    for v in [4u32, 5, 6, 7] {
        b.add_edge(NodeId(0), NodeId(v), 100).unwrap();
    }
    for (u, v) in [(1, 2), (1, 3), (2, 3)] {
        b.add_edge(NodeId(u), NodeId(v), 1).unwrap();
    }
    for (u, v) in [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)] {
        b.add_edge(NodeId(u), NodeId(v), 1).unwrap();
    }
    let g = b.build();
    let query = SgqQuery::new(4, 1, 0).unwrap();

    // With the default stack the k-plex completion floor (the sum of
    // the `need` cheapest admissible distances, not `need · min`) kills
    // the far-clique frame even earlier — before any far member is
    // expanded at all.
    let default_run = solve_sgq(&g, NodeId(0), &query, &SelectConfig::default()).unwrap();
    assert_eq!(default_run.solution.unwrap().total_distance, 3);
    assert!(
        default_run.stats.distance_prunes + default_run.stats.frames_pruned_by_match > 0,
        "the far clique must die to a distance-flavoured bound"
    );

    // Lemma 2's own behaviour, on the same shape with the near clique
    // at distances 1, 2, 2. The seed finds it (5); once the distance-1
    // member's subtree is done, the root's cheapest remaining candidate
    // costs 2, and 3 · 2 > 5 retires the root on Lemma 2 itself —
    // before the k-plex floor, which is checked after it.
    let mut b = GraphBuilder::new(9);
    for (v, d) in [(1u32, 1u64), (2, 2), (3, 2)] {
        b.add_edge(NodeId(0), NodeId(v), d).unwrap();
    }
    for v in [4u32, 5, 6, 7] {
        b.add_edge(NodeId(0), NodeId(v), 100).unwrap();
    }
    for (u, v) in [(1, 2), (1, 3), (2, 3)] {
        b.add_edge(NodeId(u), NodeId(v), 1).unwrap();
    }
    for (u, v) in [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)] {
        b.add_edge(NodeId(u), NodeId(v), 1).unwrap();
    }
    let g = b.build();
    let base = SelectConfig::default();
    let with = solve_sgq(&g, NodeId(0), &query, &base).unwrap();
    let sol = with.solution.unwrap();
    assert_eq!(sol.total_distance, 5, "near clique wins");
    assert!(
        with.stats.distance_prunes > 0,
        "far clique must be distance-pruned"
    );

    let without = solve_sgq(&g, NodeId(0), &query, &base.with_distance_pruning(false)).unwrap();
    assert_eq!(without.solution.unwrap().total_distance, 5);
    assert!(without.stats.frames >= with.stats.frames);
}

/// Calendars clustered tightly around pivots except one: availability
/// pruning must fire where the common window cannot reach m slots.
#[test]
fn availability_pruning_fires_on_fragmented_calendars() {
    let n = 8;
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.add_edge(NodeId(0), NodeId(v), 1).unwrap();
        for u in 1..v {
            b.add_edge(NodeId(u), NodeId(v), 1).unwrap();
        }
    }
    let g = b.build();
    // Everyone available only in two disconnected single slots around each
    // pivot — no m=3 window can ever form, and around every pivot the
    // unavailability counters must reveal that early.
    let horizon = 12;
    let cals: Vec<Calendar> = (0..n)
        .map(|_| Calendar::from_slots(horizon, [2usize, 5, 8, 11]))
        .collect();
    let query = StgqQuery::new(4, 1, 3, 3).unwrap();
    let out = solve_stgq(&g, NodeId(0), &cals, &query, &SelectConfig::default()).unwrap();
    assert!(out.solution.is_none());
    // Candidates are Def-4 filtered to nothing (no 3-run through pivots),
    // so either the pivot loop never starts a frame or availability
    // pruning fires; both manifest as almost no exploration.
    assert!(
        out.stats.vertices_expanded == 0,
        "nothing should be explored"
    );
}

/// Availability pruning observable on a partially-fragmented instance:
/// enough eligible candidates to start searching, too few to finish.
#[test]
fn availability_pruning_counts_unavailable_members() {
    let n = 10;
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.add_edge(NodeId(0), NodeId(v), u64::from(v)).unwrap();
        for u in 1..v {
            b.add_edge(NodeId(u), NodeId(v), 1).unwrap();
        }
    }
    let g = b.build();
    let horizon = 6;
    let mut cals = Vec::new();
    // q and two friends: fully available. Everyone else: available only in
    // the pivot slot itself (runs of length 1 < m... but Def-4 filters
    // those). To exercise Lemma 5 we need runs ≥ m that die after removals:
    // give the rest availability {0,1,2} (run through pivot 2 of length 3)
    // but NOT slots 3+ — with q needing {2,3,4}? Instead craft directly:
    cals.push(Calendar::from_slots(horizon, 0..6)); // q
    cals.push(Calendar::from_slots(horizon, 0..6));
    cals.push(Calendar::from_slots(horizon, 0..6));
    for _ in 3..n {
        cals.push(Calendar::from_slots(horizon, [0usize, 1, 2]));
    }
    // m=3, pivots at slots 2 and 5. p=5 forces using the fragmented crowd.
    let query = StgqQuery::new(5, 1, 4, 3).unwrap();
    let out = solve_stgq(&g, NodeId(0), &cals, &query, &SelectConfig::default()).unwrap();
    // Groups {q, 1, 2, x, y} with x, y from the crowd share window [0,2]:
    // feasible! Check the solution is found AND valid.
    let sol = out.solution.expect("window [ts1,ts3] works for 5 people");
    assert_eq!(sol.period, stgq::schedule::SlotRange::new(0, 2));
    // Now demand a window the crowd cannot give (m=4 ⇒ needs slots beyond 2).
    let query = StgqQuery::new(5, 1, 4, 4).unwrap();
    let out = solve_stgq(&g, NodeId(0), &cals, &query, &SelectConfig::default()).unwrap();
    assert!(out.solution.is_none());
}

/// The exterior expansibility condition must reject a candidate whose
/// inclusion can never be completed, before any recursion happens.
#[test]
fn exterior_expansibility_rejects_dead_end_candidates() {
    // v1 is closest but isolated from all other candidates; with k=0 and
    // p=3 picking v1 is a dead end. SGSelect must reject it via A() and
    // still find {q, v2, v3}.
    let mut b = GraphBuilder::new(5);
    b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
    b.add_edge(NodeId(0), NodeId(2), 5).unwrap();
    b.add_edge(NodeId(0), NodeId(3), 6).unwrap();
    b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
    let g = b.build();
    let query = SgqQuery::new(3, 1, 0).unwrap();

    // With defaults, v1 never even enters VA: its eligible degree (1,
    // the initiator alone) is below p − 1 − k = 2, so the fixpoint peel
    // removes it before the search starts.
    let default_run = solve_sgq(&g, NodeId(0), &query, &SelectConfig::default()).unwrap();
    assert_eq!(
        default_run.solution.as_ref().unwrap().members,
        vec![NodeId(0), NodeId(2), NodeId(3)]
    );
    assert!(default_run.stats.peeled_candidates >= 1, "v1 is peeled");

    // The exterior condition itself, on an instance the peel keeps
    // whole: the initiator knows everyone on a ring of 6 where each
    // person knows only their two ring neighbours (degree 3 with the
    // initiator, at the peel threshold for p = 4, k = 0). Inside a
    // child frame too few acquaintances remain around some ring member
    // to seat the rest of a 4-clique, so A() rejects her there.
    let ring = 6u32;
    let mut b = GraphBuilder::new(ring as usize + 1);
    for v in 1..=ring {
        b.add_edge(NodeId(0), NodeId(v), u64::from(v)).unwrap();
        b.add_edge(NodeId(v), NodeId(v % ring + 1), 1).unwrap();
    }
    let g = b.build();
    let query = SgqQuery::new(4, 1, 0).unwrap();
    let out = solve_sgq(&g, NodeId(0), &query, &SelectConfig::default()).unwrap();
    assert!(out.solution.is_none(), "the ring holds no 4-clique");
    assert_eq!(out.stats.peeled_candidates, 0, "the peel keeps the ring");
    assert!(
        out.stats.exterior_rejections > 0,
        "dead-end ring members must be A()-rejected"
    );
}

/// Interior unfamiliarity at θ=0 equals the hard constraint: a candidate
/// already violating it must be removed, never explored.
#[test]
fn interior_condition_is_exact_at_theta_zero() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
    b.add_edge(NodeId(0), NodeId(2), 2).unwrap();
    b.add_edge(NodeId(0), NodeId(3), 3).unwrap();
    b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
    let g = b.build();
    // k=0, p=3: {0,2,3} is the only feasible group (v1 knows nobody else).
    let query = SgqQuery::new(3, 1, 0).unwrap();
    let cfg = SelectConfig {
        theta0: 0,
        ..SelectConfig::default()
    };
    let out = solve_sgq(&g, NodeId(0), &query, &cfg).unwrap();
    assert_eq!(out.solution.unwrap().total_distance, 5);
}
