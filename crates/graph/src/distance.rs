use crate::{AdjacencySource, Dist, NodeId, SocialGraph};

/// The largest social distance one tie may carry.
///
/// [`GraphBuilder::add_edge`](crate::GraphBuilder::add_edge) and the
/// serving layer's `connect` reject heavier weights with a typed error,
/// and that is what keeps Definition 1 free of overflow. A relaxation
/// round only continues from vertices whose distance improved in the
/// round before, and an improved distance is the weight of a simple
/// path. Ids are `u32`, so a simple path has fewer than 2^32 edges and
/// the relaxation runs fewer than 2^32 productive rounds; every value it
/// forms is then at most 2^32 · (2^32 − 1) = 2^64 − 2^32, below
/// `Dist::MAX`. The same margin leaves `Dist::MAX` free to mean
/// "unreached" in the zero-copy extraction's scratch.
pub const MAX_DISTANCE: Dist = u32::MAX as Dist;

/// Compute the *s-edge minimum distances* from `source` (Definition 1).
///
/// `d^i_{v,q} = min_{u ∈ N_v} { d^{i-1}_{v,q}, d^{i-1}_{u,q} + c_{u,v} }`
/// with `d^0_{q,q} = 0` and `d^0_{v,q} = ∞` otherwise. This is `s` rounds of
/// Bellman–Ford relaxation; the result for vertex `v` is the total distance
/// of the minimum-distance path from `q` to `v` that uses **at most `s`
/// edges**, or `None` if no such path exists.
///
/// The distinction matters (§3.2.1): the globally shortest path may use more
/// than `s` edges, and the minimum-*edge* path may not have minimum
/// distance, so neither plain Dijkstra nor plain BFS is correct here.
pub fn bounded_distances(graph: &SocialGraph, source: NodeId, s: usize) -> Vec<Option<Dist>> {
    bounded_distances_from(graph, source, s)
}

/// As [`bounded_distances`], over any [`AdjacencySource`] — the sharded
/// snapshot path runs Definition 1 directly on per-shard CSR segments.
pub fn bounded_distances_from<A: AdjacencySource + ?Sized>(
    adj: &A,
    source: NodeId,
    s: usize,
) -> Vec<Option<Dist>> {
    let mut out = Vec::new();
    bounded_distances_into(adj, source, s, &mut out);
    out
}

/// As [`bounded_distances`], reusing `out` as scratch to avoid allocation in
/// hot sweeps (the STGQ baseline recomputes distances for many windows).
pub fn bounded_distances_into<A: AdjacencySource + ?Sized>(
    graph: &A,
    source: NodeId,
    s: usize,
    out: &mut Vec<Option<Dist>>,
) {
    let n = graph.node_count();
    out.clear();
    out.resize(n, None);
    out[source.index()] = Some(0);

    // `frontier` holds vertices whose distance improved in the last round
    // together with that round's value; only their neighbors can improve
    // in this round. Relaxation MUST read the round-start snapshot, not
    // `out` (which this round may already have improved): otherwise a
    // single round could chain two relaxations and admit a path with more
    // than `s` edges — exactly the subtlety Definition 1 exists for.
    let mut frontier: Vec<(u32, Dist)> = vec![(source.0, 0)];
    let mut next: Vec<u32> = Vec::new();
    let mut in_next = vec![false; n];

    for _ in 0..s {
        if frontier.is_empty() {
            break;
        }
        for &(u, du) in &frontier {
            let (nbs, ws) = graph.row_of(NodeId(u));
            for (&v, &w) in nbs.iter().zip(ws) {
                let cand = du + w;
                if out[v as usize].is_none_or(|cur| cand < cur) {
                    out[v as usize] = Some(cand);
                    if !in_next[v as usize] {
                        in_next[v as usize] = true;
                        next.push(v);
                    }
                }
            }
        }
        frontier.clear();
        for &v in &next {
            in_next[v as usize] = false;
            frontier.push((v, out[v as usize].expect("just improved")));
        }
        next.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    /// Line graph 0-1-2-3 with weights 1 each; plus a heavy shortcut 0-3 (10).
    fn line_with_shortcut() -> SocialGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        b.add_edge(NodeId(0), NodeId(3), 10).unwrap();
        b.build()
    }

    #[test]
    fn zero_rounds_reach_only_source() {
        let g = line_with_shortcut();
        let d = bounded_distances(&g, NodeId(0), 0);
        assert_eq!(d, vec![Some(0), None, None, None]);
    }

    #[test]
    fn edge_budget_limits_path_choice() {
        let g = line_with_shortcut();
        // With one edge, v3 only reachable via the heavy shortcut.
        let d1 = bounded_distances(&g, NodeId(0), 1);
        assert_eq!(d1[3], Some(10));
        // With three edges the light path 0-1-2-3 wins.
        let d3 = bounded_distances(&g, NodeId(0), 3);
        assert_eq!(d3[3], Some(3));
        // Two edges: neither the 3-edge light path nor anything better than
        // the shortcut exists.
        let d2 = bounded_distances(&g, NodeId(0), 2);
        assert_eq!(d2[3], Some(10));
    }

    #[test]
    fn same_round_chaining_is_rejected() {
        // Regression for a bug proptest found: 0-1-2-3 (unit weights) plus
        // the heavy 2-hop pair 1-3 (4) and tail 3-4 (1). With s = 3 the
        // only ≤3-edge route to v4 is 0-1-3-4 = 6; a buggy in-place
        // relaxation chains 0-1-2-3-4 = 4 within three rounds.
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 4).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        b.add_edge(NodeId(3), NodeId(4), 1).unwrap();
        let g = b.build();
        let d3 = bounded_distances(&g, NodeId(0), 3);
        assert_eq!(d3[4], Some(6));
        let d4 = bounded_distances(&g, NodeId(0), 4);
        assert_eq!(d4[4], Some(4));
    }

    #[test]
    fn unreachable_stays_none() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 5).unwrap();
        let g = b.build();
        let d = bounded_distances(&g, NodeId(0), 10);
        assert_eq!(d[2], None);
    }

    #[test]
    fn extra_rounds_never_hurt() {
        let g = line_with_shortcut();
        let d3 = bounded_distances(&g, NodeId(0), 3);
        let d9 = bounded_distances(&g, NodeId(0), 9);
        assert_eq!(d3, d9);
    }

    #[test]
    fn maximal_weights_sum_without_overflow() {
        // Every tie at MAX_DISTANCE: a five-edge path sums to 5 · (2^32 − 1).
        let mut b = GraphBuilder::new(6);
        for v in 0..5 {
            b.add_edge(NodeId(v), NodeId(v + 1), MAX_DISTANCE).unwrap();
        }
        let d = bounded_distances(&b.build(), NodeId(0), 5);
        assert_eq!(d[5], Some(5 * MAX_DISTANCE));
    }

    #[test]
    fn reuse_buffer_matches_fresh() {
        let g = line_with_shortcut();
        let mut buf = vec![Some(99); 1];
        bounded_distances_into(&g, NodeId(1), 2, &mut buf);
        assert_eq!(buf, bounded_distances(&g, NodeId(1), 2));
    }

    /// Brute-force reference: minimum distance over all simple-ish walks with
    /// at most `s` edges (walks suffice: repeating vertices never helps with
    /// positive weights, but we enumerate walks for simplicity on tiny graphs).
    fn brute_force(g: &SocialGraph, q: NodeId, s: usize) -> Vec<Option<Dist>> {
        let n = g.node_count();
        // dp[i][v] = min distance using exactly <= i edges
        let mut dp = vec![vec![None; n]; s + 1];
        dp[0][q.index()] = Some(0);
        for i in 1..=s {
            for v in 0..n {
                dp[i][v] = dp[i - 1][v];
                for (u, w) in g.neighbors_weighted(NodeId(v as u32)) {
                    if let Some(du) = dp[i - 1][u.index()] {
                        let cand = du + w;
                        if dp[i][v].is_none_or(|cur| cand < cur) {
                            dp[i][v] = Some(cand);
                        }
                    }
                }
            }
        }
        dp[s].clone()
    }

    fn arb_graph() -> impl Strategy<Value = SocialGraph> {
        (2usize..9).prop_flat_map(|n| {
            let max_edges = n * (n - 1) / 2;
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..20), 0..=max_edges)
                .prop_map(move |edges| {
                    let mut b = GraphBuilder::new(n);
                    for (u, v, w) in edges {
                        if u != v && !b.has_edge(NodeId(u), NodeId(v)) {
                            b.add_edge(NodeId(u), NodeId(v), w).unwrap();
                        }
                    }
                    b.build()
                })
        })
    }

    proptest! {
        /// The frontier-based DP agrees with the textbook full-relaxation DP.
        #[test]
        fn matches_reference_dp(g in arb_graph(), s in 0usize..6) {
            let got = bounded_distances(&g, NodeId(0), s);
            let want = brute_force(&g, NodeId(0), s);
            prop_assert_eq!(got, want);
        }

        /// Monotonicity: allowing more edges never increases any distance.
        #[test]
        fn monotone_in_edge_budget(g in arb_graph(), s in 0usize..5) {
            let d_s = bounded_distances(&g, NodeId(0), s);
            let d_s1 = bounded_distances(&g, NodeId(0), s + 1);
            for (a, b) in d_s.iter().zip(&d_s1) {
                match (a, b) {
                    (Some(x), Some(y)) => prop_assert!(y <= x),
                    (Some(_), None) => prop_assert!(false, "reachability lost"),
                    _ => {}
                }
            }
        }
    }
}
