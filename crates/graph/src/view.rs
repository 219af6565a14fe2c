//! Zero-copy candidate view over sharded CSR snapshot segments.
//!
//! [`FeasibleView`] is the hot-path replacement for materializing a
//! [`FeasibleGraph`](crate::FeasibleGraph) per query. Instead of copying
//! every adjacency row out of the snapshot (per-row bitsets, sorted
//! neighbor lists, edge-weight vectors), it builds only the *compact
//! candidate index* — origin/dist/order permutations plus one masked
//! adjacency word matrix — reading the snapshot's CSR
//! [`GraphSegment`](crate::GraphSegment) rows in place. A built view
//! holds no reference to the snapshot, so a cached view never keeps a
//! replaced segment alive.
//!
//! # Cost
//!
//! Extraction costs what the query reaches, not what the world holds.
//! For the `f` vertices within radius `s` it is
//! O(Σ deg(v) + f·⌈f/64⌉ + f log f), the sum over those `f` vertices:
//! a reached row is relaxed once per round in which its distance
//! improved and read once more to mask the word matrix, the matrix has
//! `f·⌈f/64⌉` words, and two sorts order the candidates. No step scans
//! or allocates `node_count` entries. The world-indexed arrays — the
//! Definition-1 distances, the compact numbering, the frontier flags
//! and a reached-vertex bitmap — live in a per-thread scratch reused
//! across calls, and every entry a call sets is reset before it
//! returns. The bitmap's nonzero words, sorted, yield the candidates in
//! ascending id without a world scan.
//!
//! The scratch is sized to the largest `node_count` the thread has
//! extracted from and is never shrunk: 13 B × `node_count` (8 B
//! distance, 4 B compact id, 1 B frontier flag) plus `node_count` / 8
//! bytes of bitmap per extracting thread — about 1.3 MB at 10^5
//! members.
//!
//! The view implements [`CandidateTopology`](crate::CandidateTopology)
//! with bit-for-bit the same candidate set, ordering, and adjacency words
//! as `FeasibleGraph::extract_from` over the same sharded graph — the
//! equivalence the query engines' bit-identity proptests pin down. That
//! path keeps the dense Definition-1 DP
//! ([`bounded_distances_from`](crate::bounded_distances_from)) as the
//! independent oracle this one is tested against.

use std::cell::RefCell;

use crate::id::NodeId;
use crate::segment::{AdjacencySource, ShardedGraph};
use crate::topology::CandidateTopology;
use crate::Dist;

/// A per-query candidate space over a sharded world snapshot.
///
/// Layout mirrors [`FeasibleGraph`](crate::FeasibleGraph)'s index side —
/// compact id `0` is the initiator, candidates follow in ascending
/// original-id order, `candidate_order` sorts by `(distance, id)` — but
/// adjacency lives only as one flat masked word matrix.
#[derive(Clone, Debug)]
pub struct FeasibleView {
    /// compact index → original vertex id; `origin[0]` is the initiator,
    /// `origin[1..]` ascends, so it doubles as the reverse map.
    origin: Vec<NodeId>,
    /// social distance `d_{v,q}` per compact vertex.
    dist: Vec<Dist>,
    /// masked adjacency words over compact ids, `adj_stride` per vertex.
    adj_words: Vec<u64>,
    adj_stride: usize,
    /// compact candidate indices (excluding 0) sorted by (distance, origin).
    order: Vec<u32>,
    /// compact index → position in `order` (`u32::MAX` for the initiator).
    order_pos: Vec<u32>,
    /// the social radius used for the extraction.
    radius: usize,
}

/// Distance sentinel for a vertex no round has reached. No
/// Definition-1 distance reaches it: weights are at most
/// [`MAX_DISTANCE`](crate::MAX_DISTANCE), so no distance exceeds
/// `2^64 − 2^32`.
const UNREACHED: Dist = Dist::MAX;
/// Compact-id sentinel for a vertex outside the candidate set.
const NOT_CANDIDATE: u32 = u32::MAX;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// World-indexed working arrays of one extracting thread. Between calls
/// every entry is at rest: `best` is `UNREACHED`, `compact` is
/// `NOT_CANDIDATE`, `queued` is false and `reached` is zero.
#[derive(Default)]
struct Scratch {
    /// Definition-1 distance per world id, as relaxed so far.
    best: Vec<Dist>,
    /// Compact index per world id.
    compact: Vec<u32>,
    /// Whether a world id already sits in the next round's frontier.
    queued: Vec<bool>,
    /// One bit per world id, set when the id is first reached.
    reached: Vec<u64>,
    /// Set while a call is in flight. A call that unwound midway leaves
    /// it set, and the next call wipes the arrays before using them.
    dirty: bool,
}

impl Scratch {
    /// Make the arrays cover `n` world ids, all at rest.
    fn prepare(&mut self, n: usize) {
        if self.dirty {
            self.best.fill(UNREACHED);
            self.compact.fill(NOT_CANDIDATE);
            self.queued.fill(false);
            self.reached.fill(0);
        }
        if self.best.len() < n {
            self.best.resize(n, UNREACHED);
            self.compact.resize(n, NOT_CANDIDATE);
            self.queued.resize(n, false);
            self.reached.resize(n.div_ceil(64), 0);
        }
    }

    /// Record that `v` was reached; `words` collects the indices of the
    /// `reached` words that turn nonzero.
    #[inline]
    fn mark_reached(&mut self, v: usize, words: &mut Vec<u32>) {
        let word = &mut self.reached[v / 64];
        if *word == 0 {
            words.push((v / 64) as u32);
        }
        *word |= 1u64 << (v % 64);
    }

    fn extract(&mut self, graph: &ShardedGraph, initiator: NodeId, s: usize) -> FeasibleView {
        let n = graph.node_count();
        let q = initiator.index();
        assert!(q < n, "initiator {initiator} outside a {n}-vertex graph");
        self.prepare(n);
        self.dirty = true;

        // Definition 1, frontier-driven: `frontier` holds the vertices
        // whose distance improved last round with that round's value, and
        // relaxation reads those values, not `best`, so one round never
        // chains two edges (see `bounded_distances_into`).
        let mut words = Vec::new();
        self.best[q] = 0;
        self.mark_reached(q, &mut words);
        let mut frontier: Vec<(u32, Dist)> = vec![(initiator.0, 0)];
        let mut next: Vec<u32> = Vec::new();
        for _ in 0..s {
            if frontier.is_empty() {
                break;
            }
            for &(u, du) in &frontier {
                let (nbs, ws) = graph.row_of(NodeId(u));
                for (&v, &w) in nbs.iter().zip(ws) {
                    let v = v as usize;
                    let cand = du + w;
                    if cand < self.best[v] {
                        if self.best[v] == UNREACHED {
                            self.mark_reached(v, &mut words);
                        }
                        self.best[v] = cand;
                        if !self.queued[v] {
                            self.queued[v] = true;
                            next.push(v as u32);
                        }
                    }
                }
            }
            frontier.clear();
            for &v in &next {
                self.queued[v as usize] = false;
                frontier.push((v, self.best[v as usize]));
            }
            next.clear();
        }

        // Candidate index: initiator first, then ascending original id —
        // identical numbering to the materialized path.
        words.sort_unstable();
        let mut origin = vec![initiator];
        let mut dist = vec![0];
        self.compact[q] = 0;
        for &w in &words {
            let mut bits = self.reached[w as usize];
            while bits != 0 {
                let v = w as usize * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if v != q {
                    self.compact[v] = origin.len() as u32;
                    origin.push(NodeId(v as u32));
                    dist.push(self.best[v]);
                }
            }
        }

        // Masked word matrix: each candidate's CSR row, neighbor ids
        // masked against the compact numbering into packed words.
        let f = origin.len();
        let adj_stride = f.div_ceil(64);
        let mut adj_words = vec![0u64; f * adj_stride];
        for (row, &v) in adj_words.chunks_exact_mut(adj_stride).zip(&origin) {
            for &u in graph.row_of(v).0 {
                let cu = self.compact[u as usize];
                if cu != NOT_CANDIDATE {
                    row[cu as usize / 64] |= 1u64 << (cu % 64);
                }
            }
        }

        // Back to rest: every reached vertex is a candidate, so `origin`
        // and `words` name every entry this call set.
        for v in &origin {
            self.best[v.index()] = UNREACHED;
            self.compact[v.index()] = NOT_CANDIDATE;
        }
        for &w in &words {
            self.reached[w as usize] = 0;
        }
        self.dirty = false;

        let mut order: Vec<u32> = (1..f as u32).collect();
        order.sort_unstable_by_key(|&i| (dist[i as usize], origin[i as usize].0));
        let mut order_pos = vec![u32::MAX; f];
        for (pos, &c) in order.iter().enumerate() {
            order_pos[c as usize] = pos as u32;
        }

        FeasibleView {
            origin,
            dist,
            adj_words,
            adj_stride,
            order,
            order_pos,
            radius: s,
        }
    }
}

impl FeasibleView {
    /// Build the radius-`s` candidate view of `initiator` over a sharded
    /// snapshot graph.
    ///
    /// Runs the same Definition-1 bounded-distance DP as
    /// `FeasibleGraph::extract_from` over this thread's scratch, then
    /// masks the candidates' CSR rows into the word matrix. Cost is
    /// O(Σ deg(v) + f·⌈f/64⌉ + f log f) over the `f` reached vertices,
    /// independent of `graph.node_count()`; the first call on a thread
    /// (or the first over a larger world) also grows the thread's
    /// scratch to 13 B × `node_count` + `node_count` / 8 bytes, which
    /// stays allocated for the thread's lifetime.
    ///
    /// # Panics
    /// Panics if `initiator` is not a vertex of `graph`.
    pub fn extract(graph: &ShardedGraph, initiator: NodeId, s: usize) -> Self {
        SCRATCH.with(|scratch| scratch.borrow_mut().extract(graph, initiator, s))
    }

    /// Number of vertices in the view (initiator included).
    #[inline]
    pub fn len(&self) -> usize {
        self.origin.len()
    }

    /// Whether the view holds only the initiator.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.origin.len() <= 1
    }

    /// The social radius `s` this view was extracted with.
    #[inline]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Original id of compact vertex `i`.
    #[inline]
    pub fn origin(&self, i: u32) -> NodeId {
        self.origin[i as usize]
    }

    /// Compact index of original vertex `v`, if it lies within the radius
    /// (a binary search over the ascending candidates).
    #[inline]
    pub fn compact(&self, v: NodeId) -> Option<u32> {
        if v == self.origin[0] {
            return Some(0);
        }
        self.origin[1..]
            .binary_search(&v)
            .ok()
            .map(|pos| pos as u32 + 1)
    }

    /// Social distance `d_{v,q}` of compact vertex `i`.
    #[inline]
    pub fn dist(&self, i: u32) -> Dist {
        self.dist[i as usize]
    }

    /// The packed masked adjacency words of compact vertex `i`.
    #[inline]
    pub fn adj_words(&self, i: u32) -> &[u64] {
        let start = i as usize * self.adj_stride;
        &self.adj_words[start..start + self.adj_stride]
    }

    /// Candidate compact indices sorted by `(distance, original id)`.
    #[inline]
    pub fn candidate_order(&self) -> &[u32] {
        &self.order
    }

    /// Inverse permutation of [`candidate_order`](Self::candidate_order).
    #[inline]
    pub fn order_pos(&self, i: u32) -> u32 {
        self.order_pos[i as usize]
    }

    /// Adjacency words generated for this view — the per-query word
    /// traffic the zero-copy path pays (index build only; CSR rows are
    /// read in place, never copied).
    #[inline]
    pub fn words_generated(&self) -> u64 {
        self.adj_words.len() as u64
    }
}

impl CandidateTopology for FeasibleView {
    #[inline]
    fn len(&self) -> usize {
        FeasibleView::len(self)
    }

    #[inline]
    fn radius(&self) -> usize {
        FeasibleView::radius(self)
    }

    #[inline]
    fn origin(&self, i: u32) -> NodeId {
        FeasibleView::origin(self, i)
    }

    #[inline]
    fn compact(&self, v: NodeId) -> Option<u32> {
        FeasibleView::compact(self, v)
    }

    #[inline]
    fn dist(&self, i: u32) -> Dist {
        FeasibleView::dist(self, i)
    }

    #[inline]
    fn adj_words(&self, i: u32) -> &[u64] {
        FeasibleView::adj_words(self, i)
    }

    #[inline]
    fn candidate_order(&self) -> &[u32] {
        FeasibleView::candidate_order(self)
    }

    #[inline]
    fn order_pos(&self, i: u32) -> u32 {
        FeasibleView::order_pos(self, i)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{FeasibleGraph, GraphBuilder, GraphSegment, SocialGraph, MAX_DISTANCE};
    use proptest::prelude::*;

    fn sample(n: u32, edges: &[(u32, u32, Dist)]) -> SocialGraph {
        let mut b = GraphBuilder::new(n as usize);
        for &(u, v, w) in edges {
            b.add_edge(NodeId(u), NodeId(v), w).unwrap();
        }
        b.build()
    }

    fn assert_view_matches_graph(g: &SocialGraph, shards: usize, initiator: NodeId, s: usize) {
        let sharded = ShardedGraph::from_flat(g, shards);
        let fg = FeasibleGraph::extract_from(&sharded, initiator, s);
        let view = FeasibleView::extract(&sharded, initiator, s);

        assert_eq!(view.len(), fg.len());
        assert_eq!(view.radius(), fg.radius());
        assert_eq!(view.candidate_order(), fg.candidate_order());
        for i in 0..fg.len() as u32 {
            assert_eq!(view.origin(i), fg.origin(i));
            assert_eq!(view.dist(i), fg.dist(i));
            assert_eq!(view.order_pos(i), fg.order_pos(i));
            assert_eq!(view.adj_words(i), fg.adj_words(i), "row {i}");
        }
        for v in 0..g.node_count() as u32 {
            assert_eq!(view.compact(NodeId(v)), fg.compact(NodeId(v)));
        }
    }

    #[test]
    fn view_is_bit_identical_to_the_materialized_graph() {
        let g = sample(
            8,
            &[
                (0, 1, 5),
                (0, 2, 1),
                (1, 2, 1),
                (2, 3, 2),
                (3, 4, 2),
                (4, 6, 1),
                (1, 7, 3),
            ],
        );
        for shards in [1, 2, 3, 4] {
            for s in 0..4 {
                assert_view_matches_graph(&g, shards, NodeId(0), s);
                assert_view_matches_graph(&g, shards, NodeId(3), s);
            }
        }
    }

    #[test]
    fn view_matches_graph_on_a_pseudorandom_world() {
        // Deterministic LCG-built graph: dense enough that shard masking
        // and word boundaries (>64 candidates) are exercised.
        let n: u32 = 90;
        let mut edges = Vec::new();
        let mut state: u64 = 0x5eed_cafe;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..600 {
            let u = next() % n;
            let v = next() % n;
            if u != v {
                edges.push((u.min(v), u.max(v), (next() % 9 + 1) as Dist));
            }
        }
        edges.sort_unstable();
        edges.dedup_by_key(|e| (e.0, e.1));
        let g = sample(n, &edges);
        for shards in [1, 3, 7] {
            assert_view_matches_graph(&g, shards, NodeId(1), 2);
            assert_view_matches_graph(&g, shards, NodeId(42), 1);
        }
    }

    #[test]
    fn words_generated_counts_the_masked_matrix() {
        let g = sample(6, &[(0, 1, 5), (0, 2, 1), (1, 2, 7), (2, 3, 2)]);
        let sharded = ShardedGraph::from_flat(&g, 2);
        let view = FeasibleView::extract(&sharded, NodeId(0), 2);
        assert_eq!(
            view.words_generated(),
            (view.len() * view.len().div_ceil(64)) as u64
        );
    }

    /// splitmix64, as in the segment tests: the graph crate carries no
    /// rand dev-dependency.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random world of `n` members with `ties` random ties per member.
    /// With `hub`, member 0 is tied to everyone, so radius 2 reaches the
    /// whole world from any initiator. About one weight in 16 is
    /// `MAX_DISTANCE`, so sums near the overflow bound are exercised.
    fn random_world(seed: u64, n: u32, ties: u32, hub: bool) -> SocialGraph {
        let mut state = seed;
        let weight = |state: &mut u64| match mix(state) % 16 {
            0 => MAX_DISTANCE,
            r => r + mix(state) % 8,
        };
        let mut b = GraphBuilder::new(n as usize);
        if hub {
            for v in 1..n {
                let w = weight(&mut state);
                b.add_edge(NodeId(0), NodeId(v), w).unwrap();
            }
        }
        for u in 0..n {
            for _ in 0..ties {
                let v = (mix(&mut state) % n as u64) as u32;
                if u != v && !b.has_edge(NodeId(u), NodeId(v)) {
                    let w = weight(&mut state);
                    b.add_edge(NodeId(u), NodeId(v), w).unwrap();
                }
            }
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// One thread's scratch survives worlds of alternating size: a
        /// 65–259-member world whose radius-2 ball spans more than 64
        /// candidates, then a small sparse one with isolated members, then
        /// the large one again, each from several initiators. Every view
        /// must equal the dense-DP materialized graph, `compact` included
        /// for every world id — a stale scratch entry would show up as a
        /// phantom candidate, a wrong distance or a wrong compact id.
        #[test]
        fn scratch_reuse_matches_the_dense_oracle(
            seed in 0u64..1_000_000,
            big in 65u32..260,
            small in 2u32..24,
            shard_pick in 0usize..3,
            s in 0usize..5,
        ) {
            let shards = [1, 3, 16][shard_pick];
            let large = random_world(seed, big, 2, true);
            let sparse = random_world(seed ^ 0xA5A5, small, 1, false);
            let mut state = seed;
            for (g, n) in [(&large, big), (&sparse, small), (&large, big), (&sparse, small)] {
                for q in [0, n - 1, (mix(&mut state) % n as u64) as u32] {
                    assert_view_matches_graph(g, shards, NodeId(q), s);
                }
            }
            if s >= 2 {
                let view = FeasibleView::extract(&ShardedGraph::from_flat(&large, shards), NodeId(1), s);
                prop_assert_eq!(view.len(), big as usize);
            }
        }
    }

    #[test]
    fn a_call_that_unwinds_midway_does_not_poison_the_scratch() {
        // A ten-member line, weight 5 per tie: member 7 sits at 35.
        let edges: Vec<(u32, u32, Dist)> = (0..9).map(|v| (v, v + 1, 5)).collect();
        let line = sample(10, &edges);
        assert_view_matches_graph(&line, 1, NodeId(0), 9);
        // A malformed two-row segment whose member 1 names a neighbor 7
        // outside the world: relaxation reaches 7 at distance 2, then the
        // word matrix reads 7's missing row and panics with the scratch
        // mid-call.
        let segment = GraphSegment::build([vec![(1u32, 1)], vec![(0, 1), (7, 1)]]);
        let broken = ShardedGraph::new(vec![Arc::new(segment)]);
        let unwound = std::panic::catch_unwind(|| FeasibleView::extract(&broken, NodeId(0), 2));
        assert!(unwound.is_err());
        // A stale distance 2 on member 7 would hide its true 35.
        assert_view_matches_graph(&line, 1, NodeId(0), 9);
    }
}
