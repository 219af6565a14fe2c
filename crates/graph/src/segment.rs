//! Shard-partitioned adjacency: chunked CSR [`GraphSegment`]s assembled
//! into a [`ShardedGraph`] view.
//!
//! A world of `n` people is partitioned into `S` shards by residue:
//! vertex `v` lives in shard `v % S` at local row `v / S` — the same
//! modulus the execution layer uses to route initiators, so a mutation
//! touching one person dirties exactly the shard that also keys their
//! cached work. Each shard's adjacency is an immutable [`GraphSegment`]
//! (neighbor ids stay **global**) stored as `Arc`'d CSR chunks of
//! [`CHUNK_ROWS`] rows. A snapshot publication that touched a few
//! people in shard `s` re-assembles that one segment from the previous
//! one's chunks, rebuilding only the chunks holding the touched rows,
//! and `Arc`-reuses the other `S − 1` segments whole. Reading a row is
//! two index steps: the shard's segment, then the row's chunk.
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

/// Rows per [`SegmentChunk`] (and, in `stgq-schedule`, calendars per
/// calendar chunk): the unit a snapshot republication rebuilds. A fixed
/// property of the storage layout, not a tuning knob.
pub const CHUNK_ROWS: usize = 64;

/// Up to [`CHUNK_ROWS`] consecutive rows of one shard in CSR form, with
/// **global** neighbor ids — the unit of copy-on-publish: a write
/// rebuilds the chunks holding the rows it touched, and a republication
/// carries every other chunk over by `Arc`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentChunk {
    /// Row boundaries: `offsets[r]..offsets[r + 1]` indexes row `r`.
    offsets: Vec<u32>,
    /// Global neighbor ids, sorted within each row.
    neighbors: Vec<u32>,
    /// Edge weights parallel to `neighbors`.
    weights: Vec<Dist>,
}

impl SegmentChunk {
    /// Build a chunk from at most [`CHUNK_ROWS`] per-row
    /// `(global neighbor, weight)` lists, each sorted by neighbor id.
    /// Weights must be positive and at most
    /// [`MAX_DISTANCE`](crate::MAX_DISTANCE), as the validated builders
    /// produce them; the distance kernels' overflow bound rests on it.
    /// Rows report their length, so the chunk is allocated once at its
    /// exact size.
    ///
    /// # Panics
    /// Panics on more than [`CHUNK_ROWS`] rows or a weight out of range.
    pub fn build<I, R>(rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = (u32, Dist)>,
        R::IntoIter: ExactSizeIterator,
    {
        let rows: Vec<R::IntoIter> = rows.into_iter().map(IntoIterator::into_iter).collect();
        assert!(
            rows.len() <= CHUNK_ROWS,
            "a chunk holds at most {CHUNK_ROWS} rows"
        );
        let entries = rows.iter().map(ExactSizeIterator::len).sum();
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0u32);
        let mut neighbors = Vec::with_capacity(entries);
        let mut weights = Vec::with_capacity(entries);
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
        SegmentChunk {
            offsets,
            neighbors,
            weights,
        }
    }

    /// Number of rows in this chunk.
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sorted `(neighbors, weights)` slices of chunk-local row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[Dist]) {
        let (s, e) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
        (&self.neighbors[s..e], &self.weights[s..e])
    }
}

/// One shard's immutable adjacency: the rows of every vertex `v` with
/// `v % S == shard`, in ascending `v`, as a vector of `Arc`'d
/// [`SegmentChunk`]s — local row `r` is row `r % CHUNK_ROWS` of chunk
/// `r / CHUNK_ROWS`. Every chunk but the last is full.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphSegment {
    chunks: Vec<Arc<SegmentChunk>>,
    rows: usize,
}

impl GraphSegment {
    /// Build a segment from per-row `(global neighbor, weight)` lists,
    /// one inner iterator per local row, each sorted by neighbor id (see
    /// [`SegmentChunk::build`] for the weight precondition).
    pub fn build<I, R>(rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = (u32, Dist)>,
        R::IntoIter: ExactSizeIterator,
    {
        let mut rows = rows.into_iter().peekable();
        let mut chunks = Vec::new();
        while rows.peek().is_some() {
            chunks.push(Arc::new(SegmentChunk::build(
                rows.by_ref().take(CHUNK_ROWS),
            )));
        }
        GraphSegment::from_chunks(chunks)
    }

    /// Assemble a segment from its chunks, in row order — the
    /// republication path, which passes `Arc`-reused chunks for the
    /// untouched rows and freshly built ones for the rest.
    ///
    /// # Panics
    /// Panics unless every chunk but the last holds exactly
    /// [`CHUNK_ROWS`] rows and the last holds at least one.
    pub fn from_chunks(chunks: Vec<Arc<SegmentChunk>>) -> Self {
        let last = chunks.len().saturating_sub(1);
        let mut rows = 0;
        for (c, chunk) in chunks.iter().enumerate() {
            assert!(
                chunk.rows() == CHUNK_ROWS || (c == last && chunk.rows() > 0),
                "chunk {c} of {} holds {} rows",
                chunks.len(),
                chunk.rows()
            );
            rows += chunk.rows();
        }
        GraphSegment { chunks, rows }
    }

    /// Number of local rows (vertices homed in this shard).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The chunks, in row order (for `Arc`-reuse on republication).
    #[inline]
    pub fn chunks(&self) -> &[Arc<SegmentChunk>] {
        &self.chunks
    }

    /// The sorted `(neighbors, weights)` slices of local row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[Dist]) {
        self.chunks[r / CHUNK_ROWS].row(r % CHUNK_ROWS)
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

    #[test]
    fn segments_span_several_chunks_with_a_partial_last_one() {
        // 300 vertices on 2 shards: 150 rows each = two full chunks plus
        // a 22-row tail.
        let g = random_graph(11, 300, 2);
        let sg = ShardedGraph::from_flat(&g, 2);
        for s in 0..2 {
            let seg = sg.segment(s);
            assert_eq!(seg.rows(), 150);
            let sizes: Vec<usize> = seg.chunks().iter().map(|c| c.rows()).collect();
            assert_eq!(sizes, vec![CHUNK_ROWS, CHUNK_ROWS, 150 - 2 * CHUNK_ROWS]);
        }
        for v in 0..300u32 {
            assert_eq!(sg.row_of(NodeId(v)), g.row_of(NodeId(v)), "vertex {v}");
        }
        // Re-assembling from the same chunks shares them and reads the same.
        let seg = sg.segment(1);
        let again = GraphSegment::from_chunks(seg.chunks().to_vec());
        assert_eq!(&again, seg.as_ref());
        assert!(Arc::ptr_eq(&again.chunks()[1], &seg.chunks()[1]));
    }

    #[test]
    #[should_panic(expected = "chunk 0 of 2 holds 1 rows")]
    fn only_the_last_chunk_may_be_short() {
        let short = Arc::new(SegmentChunk::build([Vec::<(u32, Dist)>::new()]));
        GraphSegment::from_chunks(vec![Arc::clone(&short), short]);
    }
}
