//! The candidate-topology abstraction the query kernels run against.
//!
//! The exact engines in `stgq-core` never look at the full social network:
//! they see a *candidate space* — the radius-`s` ball around the initiator,
//! renumbered into dense compact ids with a promise order laid over it. Two
//! concrete carriers provide that space:
//!
//! * [`FeasibleGraph`](crate::FeasibleGraph) — the materialized form: every
//!   adjacency row copied out of the snapshot into per-query storage
//!   (bitsets, sorted neighbor lists, edge weights). The reference/compat
//!   path and the bit-identity oracle.
//! * [`FeasibleView`](crate::FeasibleView) — the zero-copy form: a compact
//!   index plus a masked adjacency word matrix generated from the CSR
//!   [`GraphSegment`](crate::GraphSegment) rows in place, with no
//!   row-by-row copies and no work proportional to the world's size.
//!
//! [`CandidateTopology`] is the seam between them. Everything the
//! word-parallel kernels consume — compact↔origin mapping, distances to the
//! initiator, packed adjacency words, the `(dist, id)` candidate order and
//! its inverse permutation — is a required method; the derived forms the
//! engines share (bit tests, word-scan neighbor iteration, row∩set
//! popcounts, group mapping) are provided so both carriers behave
//! *identically* down to iteration order, which is what keeps
//! `SearchStats` bit-identical across the two paths.

use crate::bitset::BitSet;
use crate::id::NodeId;
use crate::Dist;

/// A dense-id candidate space the query kernels can descend over.
///
/// Implementors carry the radius-`s` candidate ball in compact form:
/// compact id `0` is always the initiator, candidates occupy `1..len()`,
/// and adjacency is exposed as packed words over compact ids
/// ([`word_stride`](Self::word_stride) words per row).
///
/// The provided methods are the only neighbor-iteration and intersection
/// forms the engines use; they are defined purely in terms of
/// [`adj_words`](Self::adj_words), so any two implementors with the same
/// bits produce the same visit order and therefore the same search
/// statistics.
pub trait CandidateTopology {
    /// Number of vertices in the candidate space (initiator included).
    fn len(&self) -> usize;

    /// The social radius `s` the space was extracted with.
    fn radius(&self) -> usize;

    /// Original id of compact vertex `i`.
    fn origin(&self, i: u32) -> NodeId;

    /// Compact index of original vertex `v`, if it lies within the radius.
    fn compact(&self, v: NodeId) -> Option<u32>;

    /// Social distance `d_{v,q}` of compact vertex `i`.
    fn dist(&self, i: u32) -> Dist;

    /// The packed adjacency words of compact vertex `i` (bit `j % 64` of
    /// word `j / 64` ⇔ `adjacent(i, j)`), exactly
    /// [`word_stride`](Self::word_stride) words long.
    fn adj_words(&self, i: u32) -> &[u64];

    /// Candidate compact indices (excluding the initiator), ascending by
    /// `(d_{v,q}, original id)` — SGSelect's global access order.
    fn candidate_order(&self) -> &[u32];

    /// Position of compact candidate `i` in
    /// [`candidate_order`](Self::candidate_order) (`u32::MAX` for the
    /// initiator); the precomputed inverse permutation. The exact
    /// engines key their `VA` position bitmap on it: SGQ and every STGQ
    /// pivot run on this one order.
    fn order_pos(&self, i: u32) -> u32;

    /// Whether the space holds only the initiator.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Words per packed adjacency row.
    #[inline]
    fn word_stride(&self) -> usize {
        self.len().div_ceil(64)
    }

    /// Whether compact vertices `i` and `j` are acquainted.
    #[inline]
    fn adjacent(&self, i: u32, j: u32) -> bool {
        let row = self.adj_words(i);
        (row[j as usize / 64] >> (j as usize % 64)) & 1 == 1
    }

    /// `|N(i) ∩ set|` — popcount of the adjacency row masked by `set`.
    #[inline]
    fn row_intersection_len(&self, i: u32, set: &BitSet) -> usize {
        self.adj_words(i)
            .iter()
            .zip(set.words())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Visit the neighbors of compact vertex `i` in ascending compact
    /// order (a word-and-bit scan of the packed row — identical order to
    /// a sorted neighbor list).
    #[inline]
    fn for_each_neighbor(&self, i: u32, mut f: impl FnMut(u32)) {
        for (wi, &word) in self.adj_words(i).iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros();
                f((wi * 64) as u32 + b);
                w &= w - 1;
            }
        }
    }

    /// Map a compact group back to original vertex ids, sorted ascending.
    fn to_origin_group(&self, compact: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = compact.into_iter().map(|i| self.origin(i)).collect();
        out.sort_unstable();
        out
    }

    /// Total social distance of a compact group.
    fn group_distance(&self, compact: impl IntoIterator<Item = u32>) -> Dist {
        compact.into_iter().map(|i| self.dist(i)).sum()
    }
}

impl CandidateTopology for crate::FeasibleGraph {
    #[inline]
    fn len(&self) -> usize {
        crate::FeasibleGraph::len(self)
    }

    #[inline]
    fn radius(&self) -> usize {
        crate::FeasibleGraph::radius(self)
    }

    #[inline]
    fn origin(&self, i: u32) -> NodeId {
        crate::FeasibleGraph::origin(self, i)
    }

    #[inline]
    fn compact(&self, v: NodeId) -> Option<u32> {
        crate::FeasibleGraph::compact(self, v)
    }

    #[inline]
    fn dist(&self, i: u32) -> Dist {
        crate::FeasibleGraph::dist(self, i)
    }

    #[inline]
    fn adj_words(&self, i: u32) -> &[u64] {
        crate::FeasibleGraph::adj_words(self, i)
    }

    #[inline]
    fn candidate_order(&self) -> &[u32] {
        crate::FeasibleGraph::candidate_order(self)
    }

    #[inline]
    fn order_pos(&self, i: u32) -> u32 {
        crate::FeasibleGraph::order_pos(self, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FeasibleGraph, GraphBuilder, SocialGraph};

    fn sample() -> SocialGraph {
        let mut b = GraphBuilder::new(8);
        b.add_edge(NodeId(0), NodeId(1), 5).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 2).unwrap();
        b.add_edge(NodeId(3), NodeId(4), 2).unwrap();
        b.add_edge(NodeId(4), NodeId(6), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(7), 3).unwrap();
        b.build()
    }

    #[test]
    fn trait_surface_agrees_with_inherent_methods() {
        let g = sample();
        let fg = FeasibleGraph::extract(&g, NodeId(0), 2);
        assert_eq!(CandidateTopology::len(&fg), fg.len());
        assert_eq!(CandidateTopology::radius(&fg), fg.radius());
        for i in 0..fg.len() as u32 {
            assert_eq!(CandidateTopology::origin(&fg, i), fg.origin(i));
            assert_eq!(CandidateTopology::dist(&fg, i), fg.dist(i));
            assert_eq!(CandidateTopology::order_pos(&fg, i), fg.order_pos(i));
            for j in 0..fg.len() as u32 {
                assert_eq!(CandidateTopology::adjacent(&fg, i, j), fg.adjacent(i, j));
            }
        }
        assert_eq!(
            CandidateTopology::candidate_order(&fg),
            fg.candidate_order()
        );
    }

    #[test]
    fn word_scan_neighbor_iteration_matches_sorted_lists() {
        let g = sample();
        let fg = FeasibleGraph::extract(&g, NodeId(0), 3);
        for i in 0..fg.len() as u32 {
            let mut scanned = Vec::new();
            CandidateTopology::for_each_neighbor(&fg, i, |nb| scanned.push(nb));
            assert_eq!(scanned.as_slice(), fg.neighbors(i));
        }
    }

    #[test]
    fn row_intersection_matches_bitset_intersection() {
        let g = sample();
        let fg = FeasibleGraph::extract(&g, NodeId(0), 3);
        let mut set = BitSet::new(fg.len());
        set.insert(1);
        set.insert(3);
        if fg.len() > 4 {
            set.insert(4);
        }
        for i in 0..fg.len() as u32 {
            assert_eq!(
                CandidateTopology::row_intersection_len(&fg, i, &set),
                fg.adj(i).intersection_len(&set)
            );
        }
    }
}
