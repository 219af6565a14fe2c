//! Social-graph substrate for the STGQ reproduction.
//!
//! This crate provides everything the query algorithms of
//! *On Social-Temporal Group Query with Acquaintance Constraint* (VLDB 2011)
//! need from the social-network side:
//!
//! * [`SocialGraph`] — an undirected weighted graph in CSR form, where each
//!   vertex is a candidate attendee and each edge weight is an integral
//!   *social distance* (smaller = closer).
//! * [`GraphBuilder`] — ergonomic, validated construction.
//! * [`bounded_distances`] — the paper's Definition 1: the *i-edge minimum
//!   distance* dynamic program (`s` rounds of Bellman–Ford relaxation).
//! * [`FeasibleGraph`] — the radius-graph extraction of §3.2.1: the compact
//!   subgraph of vertices reachable from the initiator within `s` edges,
//!   re-indexed densely with the initiator at index 0, plus neighbor bitsets
//!   and a distance-sorted access order — the exact inputs SGSelect needs.
//! * [`CandidateTopology`] — the trait seam the query kernels descend
//!   over, implemented by both `FeasibleGraph` (materialized
//!   reference/compat path) and [`FeasibleView`] (zero-copy hot path).
//! * [`FeasibleView`] — the zero-copy form of the candidate space: a
//!   compact index plus a masked adjacency word matrix generated from the
//!   snapshot's CSR [`GraphSegment`] rows in place, at a cost that scales
//!   with the candidates rather than the world.
//! * [`BitSet`] — a small dense bitset used pervasively for `VS`/`VA` and
//!   neighborhood operations.
//! * [`kplex`] — acquaintance-constraint predicates (a feasible group is a
//!   `(k+1)`-plex containing the initiator).
//! * [`analysis`] — degree/component statistics used by the data generators
//!   and the benchmark harness.
//!
//! All distances are `u64`, and a single tie weighs at most
//! [`MAX_DISTANCE`], which keeps every Definition-1 distance clear of
//! overflow. "Unreachable" is represented as `Option::None` rather than a
//! sentinel in the public API.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
mod bitset;
mod builder;
mod distance;
mod error;
mod graph;
mod id;
pub mod kplex;
mod radius;
mod segment;
pub mod text;
mod topology;
mod view;

#[cfg(feature = "serde")]
mod io;

pub use bitset::{for_each_zero_bit, BitSet, ZeroIter};
pub use builder::GraphBuilder;
pub use distance::{
    bounded_distances, bounded_distances_from, bounded_distances_into, MAX_DISTANCE,
};
pub use error::GraphError;
pub use graph::{EdgeRef, SocialGraph};
pub use id::NodeId;
pub use radius::FeasibleGraph;
pub use segment::{AdjacencySource, GraphSegment, SegmentChunk, ShardedGraph, CHUNK_ROWS};
pub use topology::CandidateTopology;
pub use view::FeasibleView;

#[cfg(feature = "serde")]
pub use io::GraphData;

/// Social distance type: integral, as in the paper's worked examples.
pub type Dist = u64;
