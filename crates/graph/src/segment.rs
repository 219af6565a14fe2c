//! Shard-partitioned adjacency: CSR [`GraphSegment`]s assembled into a
//! [`ShardedGraph`] view.
//!
//! A world of `n` people is partitioned into `S` shards by residue:
//! vertex `v` lives in shard `v % S` at local row `v / S` — the same
//! modulus the execution layer uses to route initiators, so a mutation
//! touching one person dirties exactly the shard that also keys their
//! cached work. Each shard's adjacency is an independent immutable CSR
//! [`GraphSegment`] (neighbor ids stay **global**); a snapshot
//! publication that only touched shard `s` rebuilds that one segment and
//! `Arc`-reuses the other `S − 1`.
//!
//! The traversal kernels read rows through [`AdjacencySource`] — per
//! vertex, one slice pair whether the graph is a flat [`SocialGraph`] or
//! a [`ShardedGraph`]. The dense kernels ([`bounded_distances_from`] and
//! [`FeasibleGraph::extract_from`]) allocate `node_count`-long arrays per
//! call; they back the flat-graph entry points and the reference engines
//! and are the oracle the serving path is tested against. The serving
//! path, [`FeasibleView::extract`], reads the same rows over a reused
//! per-thread scratch, so its cost follows the rows it reaches, not the
//! world.
//!
//! [`bounded_distances_from`]: crate::bounded_distances_from
//! [`FeasibleGraph::extract_from`]: crate::FeasibleGraph::extract_from
//! [`FeasibleView::extract`]: crate::FeasibleView::extract

use std::sync::Arc;

use crate::{Dist, NodeId, SocialGraph};

/// Anything the traversal kernels can walk: a vertex count plus, per
/// vertex, parallel `(neighbors, weights)` row slices sorted by neighbor
/// id. Implemented by the flat [`SocialGraph`] and by [`ShardedGraph`].
pub trait AdjacencySource {
    /// Number of vertices (`0..node_count()` are valid ids).
    fn node_count(&self) -> usize;
    /// The sorted neighbor ids and parallel weights of `v`.
    fn row_of(&self, v: NodeId) -> (&[u32], &[Dist]);
}

impl AdjacencySource for SocialGraph {
    #[inline]
    fn node_count(&self) -> usize {
        SocialGraph::node_count(self)
    }

    #[inline]
    fn row_of(&self, v: NodeId) -> (&[u32], &[Dist]) {
        self.row_slices(v)
    }
}

/// One shard's immutable CSR adjacency: the rows of every vertex `v`
/// with `v % S == shard`, in ascending `v`, with **global** neighbor ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphSegment {
    /// Row boundaries: `offsets[r]..offsets[r + 1]` indexes row `r`.
    offsets: Vec<u32>,
    /// Global neighbor ids, sorted within each row.
    neighbors: Vec<u32>,
    /// Edge weights parallel to `neighbors`.
    weights: Vec<Dist>,
}

impl GraphSegment {
    /// Build a segment from per-row `(global neighbor, weight)` lists,
    /// one inner iterator per local row, each sorted by neighbor id.
    /// Weights must be positive and at most
    /// [`MAX_DISTANCE`](crate::MAX_DISTANCE), as the validated builders
    /// produce them; the distance kernels' overflow bound rests on it.
    pub fn build<I, R>(rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = (u32, Dist)>,
    {
        let mut offsets = vec![0u32];
        let mut neighbors = Vec::new();
        let mut weights = Vec::new();
        for row in rows {
            for (nb, w) in row {
                assert!(
                    (1..=crate::MAX_DISTANCE).contains(&w),
                    "segment weight {w} outside 1..=MAX_DISTANCE"
                );
                neighbors.push(nb);
                weights.push(w);
            }
            offsets.push(neighbors.len() as u32);
        }
        GraphSegment {
            offsets,
            neighbors,
            weights,
        }
    }

    /// Number of local rows (vertices homed in this shard).
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total row entries (each undirected edge appears once per endpoint
    /// row, possibly in different segments).
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.neighbors.len()
    }

    /// The sorted `(neighbors, weights)` slices of local row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[Dist]) {
        let (s, e) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
        (&self.neighbors[s..e], &self.weights[s..e])
    }
}

/// The assembled cross-shard adjacency view: `S` segment `Arc`s plus the
/// total vertex count. Cloning is `S` refcount bumps — this is how an
/// epoch snapshot exposes one coherent graph without owning (or ever
/// copying) the per-shard storage.
#[derive(Clone, Debug)]
pub struct ShardedGraph {
    segments: Vec<Arc<GraphSegment>>,
    node_count: usize,
}

impl ShardedGraph {
    /// Assemble a view from per-shard segments. The vertex count is the
    /// sum of local rows: residue classes partition `0..n`, so the row
    /// counts add back up to `n` exactly.
    ///
    /// # Panics
    /// Panics if `segments` is empty or the per-shard row counts are
    /// inconsistent with a residue partition (shard `s` of `n` vertices
    /// holds `⌈(n − s) / S⌉` rows).
    pub fn new(segments: Vec<Arc<GraphSegment>>) -> Self {
        assert!(!segments.is_empty(), "at least one shard required");
        let shards = segments.len();
        let node_count: usize = segments.iter().map(|seg| seg.rows()).sum();
        for (s, seg) in segments.iter().enumerate() {
            let expect = node_count.saturating_sub(s).div_ceil(shards);
            assert_eq!(
                seg.rows(),
                expect,
                "shard {s} of {shards} over {node_count} vertices must hold {expect} rows"
            );
        }
        ShardedGraph {
            segments,
            node_count,
        }
    }

    /// Partition a flat graph into `shards` segments (used by tests and
    /// the full-sync/compat publication path).
    pub fn from_flat(graph: &SocialGraph, shards: usize) -> Self {
        let shards = shards.max(1);
        let n = graph.node_count();
        let segments = (0..shards)
            .map(|s| {
                Arc::new(GraphSegment::build((s..n).step_by(shards).map(|v| {
                    let (nbs, ws) = graph.row_slices(NodeId(v as u32));
                    nbs.iter().copied().zip(ws.iter().copied())
                })))
            })
            .collect();
        ShardedGraph::new(segments)
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.segments.len()
    }

    /// The shard homing vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        v.index() % self.segments.len()
    }

    /// One shard's segment.
    #[inline]
    pub fn segment(&self, shard: usize) -> &Arc<GraphSegment> {
        &self.segments[shard]
    }
}

impl AdjacencySource for ShardedGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.node_count
    }

    #[inline]
    fn row_of(&self, v: NodeId) -> (&[u32], &[Dist]) {
        let shards = self.segments.len();
        self.segments[v.index() % shards].row(v.index() / shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bounded_distances, bounded_distances_from, FeasibleGraph, GraphBuilder};

    /// Tiny deterministic generator (splitmix64) — the graph crate has no
    /// rand dev-dependency and doesn't need one for shape tests.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_graph(seed: u64, n: usize, edge_pct: u64) -> SocialGraph {
        let mut state = seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0xE703_7ED1_A0B4_28DB;
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if mix(&mut state) % 100 < edge_pct {
                    let w = 1 + mix(&mut state) % 39;
                    b.add_edge(NodeId(u as u32), NodeId(v as u32), w).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn sharded_rows_match_the_flat_graph() {
        for shards in [1, 2, 3, 7, 16, 64] {
            let g = random_graph(9 + shards as u64, 37, 20);
            let sg = ShardedGraph::from_flat(&g, shards);
            assert_eq!(sg.node_count(), g.node_count());
            assert_eq!(sg.shard_count(), shards);
            for v in 0..g.node_count() as u32 {
                assert_eq!(sg.row_of(NodeId(v)), g.row_of(NodeId(v)), "vertex {v}");
            }
        }
    }

    #[test]
    fn traversals_agree_between_flat_and_sharded() {
        for seed in 0..10u64 {
            let g = random_graph(seed, 24, 25);
            let sg = ShardedGraph::from_flat(&g, 5);
            for s in 1..4usize {
                for q in [0u32, 7, 23] {
                    let flat = bounded_distances(&g, NodeId(q), s);
                    let sharded = bounded_distances_from(&sg, NodeId(q), s);
                    assert_eq!(flat, sharded, "seed {seed} s {s} q {q}");
                    let fg_flat = FeasibleGraph::extract(&g, NodeId(q), s);
                    let fg_sharded = FeasibleGraph::extract_from(&sg, NodeId(q), s);
                    assert_eq!(fg_flat.len(), fg_sharded.len());
                    for c in 0..fg_flat.len() as u32 {
                        assert_eq!(fg_flat.origin(c), fg_sharded.origin(c));
                        assert_eq!(fg_flat.dist(c), fg_sharded.dist(c));
                        assert_eq!(fg_flat.neighbors(c), fg_sharded.neighbors(c));
                        for &nb in fg_flat.neighbors(c) {
                            assert_eq!(fg_flat.edge_weight(c, nb), fg_sharded.edge_weight(c, nb));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn uneven_tail_shards_carry_the_right_rows() {
        // 10 vertices over 4 shards: shards 0/1 hold 3 rows, 2/3 hold 2.
        let g = random_graph(3, 10, 40);
        let sg = ShardedGraph::from_flat(&g, 4);
        assert_eq!(sg.segment(0).rows(), 3);
        assert_eq!(sg.segment(1).rows(), 3);
        assert_eq!(sg.segment(2).rows(), 2);
        assert_eq!(sg.segment(3).rows(), 2);
        assert_eq!(sg.shard_of(NodeId(9)), 1);
        assert_eq!(sg.row_of(NodeId(9)), g.row_of(NodeId(9)));
    }
}
