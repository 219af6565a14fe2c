//! Epoch-swapped immutable world snapshots, published **shard by
//! shard, chunk by chunk**.
//!
//! The executor's read path never sees mutable state: every solve runs
//! against a [`WorldSnapshot`] — the social graph as `S` residue-class
//! segments ([`GraphSegment`], vertex `v` homed in shard `v % S`) plus
//! the calendars partitioned the same way ([`CalendarShard`]), each
//! shard carrying the **version it was last mutated at**. `S` is the
//! same initiator-shard modulus the batch scheduler and both caches use,
//! so a mutation touching one person dirties exactly the shard that also
//! keys their cached work. Inside a shard, rows are stored as `Arc`'d
//! chunks of 64 ([`stgq_graph::CHUNK_ROWS`]), the unit a republication
//! rebuilds.
//!
//! The lifecycle, end to end:
//!
//! ```text
//!   World (stgq-service: the planner's and the cluster writer's, or
//!          a cluster node's replica — one type, one mutation path)
//!   WorldDelta ──apply──▶ per-shard and per-chunk version stamps move
//!                         on the touched shards and chunks only
//!                │ World::snapshot (timed as `snapshot_build`):
//!                │   an unmoved shard  → its Arc, as published
//!                │   a moved shard     → a new chunk vector: unmoved
//!                │                       chunks Arc-reused, the touched
//!                │                       ones rebuilt from the writer
//!                ▼
//!   WorldSnapshot { segments[0..S] = chunks[..], shard versions v[0..S] }
//!                │ one Arc swap into the epoch cell (`snapshot_publish`)
//!                ▼
//!   solve (q, s): extract the feasible graph, note the set R of
//!                 shards its vertices live in
//!                ▼
//!   cache entry stamped { (s, v[s]) | s ∈ R }   — the shard-local
//!   versions the solve actually read; a later lookup is fresh iff
//!   every stamp still matches the current snapshot's vector
//! ```
//!
//! Writers build a fresh snapshot and [`publish`](SnapshotCell::publish)
//! it: one `Arc` swap under a short lock. In-flight solves keep the
//! epoch they started with alive through their own `Arc` and drop it
//! when done — **writers never block in-flight solves, and solves never
//! block writers**. Because untouched shards and untouched chunks are
//! `Arc`-reused, a delta naming a few people republishes in
//! O(touched chunks + chunks of the moved shards' vectors), not O(n) —
//! the property that opens the 10^5–10^6-member regime.
//!
//! The per-shard stamps obey one invariant the caches rely on: **equal
//! shard version ⇒ identical shard content**. Writers maintain it by
//! stamping a shard with the global version counter at its last
//! mutation; [`WorldSnapshot::from_flat`] (the compat path with no dirty
//! tracking) floods every shard with the global stamp, which degrades to
//! whole-world invalidation — correct, just not incremental. Chunk
//! stamps stay with the writer: they decide what a republication
//! rebuilds, never what a cache sees.

use std::sync::Arc;

use parking_lot::Mutex;
use stgq_graph::{AdjacencySource, CandidateTopology, GraphSegment, ShardedGraph, SocialGraph};
use stgq_schedule::{Calendar, CalendarShard, CalendarShards};

/// One immutable epoch of the world: shard-partitioned graph segments
/// and calendar slices, each stamped with the version it was built at,
/// plus the global `(graph_version, calendar_version)` pair.
#[derive(Clone, Debug)]
pub struct WorldSnapshot {
    graph: ShardedGraph,
    calendars: CalendarShards,
    graph_shard_versions: Vec<u64>,
    calendar_shard_versions: Vec<u64>,
    graph_version: u64,
    calendar_version: u64,
}

impl WorldSnapshot {
    /// Assemble an epoch from per-shard parts — the incremental
    /// publication path: the writer passes `Arc`-reused segments and
    /// calendar shards for untouched shards and re-assembled ones for
    /// dirty shards, with each shard's last-mutation version.
    ///
    /// # Panics
    /// Panics if the four per-shard vectors disagree on the shard count,
    /// or the segment row counts are inconsistent with a residue
    /// partition.
    pub fn from_parts(
        segments: Vec<Arc<GraphSegment>>,
        graph_shard_versions: Vec<u64>,
        calendar_shards: Vec<Arc<CalendarShard>>,
        calendar_shard_versions: Vec<u64>,
        graph_version: u64,
        calendar_version: u64,
    ) -> Self {
        let shards = segments.len();
        assert_eq!(graph_shard_versions.len(), shards, "one stamp per shard");
        assert_eq!(
            calendar_shards.len(),
            shards,
            "one calendar slice per shard"
        );
        assert_eq!(calendar_shard_versions.len(), shards, "one stamp per shard");
        WorldSnapshot {
            graph: ShardedGraph::new(segments),
            calendars: CalendarShards::new(calendar_shards),
            graph_shard_versions,
            calendar_shard_versions,
            graph_version,
            calendar_version,
        }
    }

    /// Partition a flat world into `shards` segments, stamping **every**
    /// shard with the global versions. This is the compat path for
    /// callers without per-shard dirty tracking: any version bump makes
    /// every shard look dirty, so caches degrade to whole-world
    /// invalidation (never stale, just not incremental).
    pub fn from_flat(
        graph: &SocialGraph,
        calendars: &[Calendar],
        shards: usize,
        graph_version: u64,
        calendar_version: u64,
    ) -> Self {
        let shards = shards.max(1);
        WorldSnapshot {
            graph: ShardedGraph::from_flat(graph, shards),
            calendars: CalendarShards::from_flat(calendars, shards),
            graph_shard_versions: vec![graph_version; shards],
            calendar_shard_versions: vec![calendar_version; shards],
            graph_version,
            calendar_version,
        }
    }

    /// The shard-partitioned adjacency the traversal kernels walk.
    pub fn graph(&self) -> &ShardedGraph {
        &self.graph
    }

    /// The shard-partitioned calendars (empty for worlds without them).
    pub fn calendars(&self) -> &CalendarShards {
        &self.calendars
    }

    /// Total vertices in the graph.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The shard modulus this snapshot was partitioned with.
    pub fn shard_count(&self) -> usize {
        self.graph.shard_count()
    }

    /// The global network version this epoch reflects.
    pub fn graph_version(&self) -> u64 {
        self.graph_version
    }

    /// The global calendar-store version this epoch reflects.
    pub fn calendar_version(&self) -> u64 {
        self.calendar_version
    }

    /// The `(graph_version, calendar_version)` stamp.
    pub fn versions(&self) -> (u64, u64) {
        (self.graph_version, self.calendar_version)
    }

    /// The version shard `s`'s graph segment was last mutated at.
    pub fn graph_shard_version(&self, shard: usize) -> u64 {
        self.graph_shard_versions[shard]
    }

    /// The version shard `s`'s calendars were last mutated at.
    pub fn calendar_shard_version(&self, shard: usize) -> u64 {
        self.calendar_shard_versions[shard]
    }

    /// The whole graph-axis shard-version vector.
    pub fn graph_shard_versions(&self) -> &[u64] {
        &self.graph_shard_versions
    }

    /// The whole calendar-axis shard-version vector.
    pub fn calendar_shard_versions(&self) -> &[u64] {
        &self.calendar_shard_versions
    }

    /// One shard's graph segment (for `Arc`-reuse on republication).
    pub fn graph_segment(&self, shard: usize) -> &Arc<GraphSegment> {
        self.graph.segment(shard)
    }

    /// One shard's calendars (for `Arc`-reuse on republication).
    pub fn calendar_shard(&self, shard: usize) -> &Arc<CalendarShard> {
        self.calendars.shard(shard)
    }

    /// The shards a solve on `fg` reads, ascending — the read set cache
    /// entries are stamped with. Stamping the feasible graph's vertex
    /// shards is sound: a mutation that changes the extraction for
    /// `(q, s)` necessarily has an endpoint inside the *old* feasible
    /// graph (an edge with both endpoints outside can neither bring a
    /// vertex within distance `s` nor touch fg-internal adjacency), and
    /// every mutation touches its endpoints' shards.
    fn read_shards<G: CandidateTopology>(&self, fg: &G) -> Vec<u32> {
        let shards = self.shard_count();
        let mut seen = vec![false; shards];
        for c in 0..fg.len() as u32 {
            seen[fg.origin(c).index() % shards] = true;
        }
        (0..shards as u32).filter(|&s| seen[s as usize]).collect()
    }

    /// Graph-axis stamps for a cache entry built from `fg`: the
    /// `(shard, version)` pairs of every shard the extraction read.
    pub(crate) fn graph_stamps_for<G: CandidateTopology>(&self, fg: &G) -> Vec<(u32, u64)> {
        self.read_shards(fg)
            .into_iter()
            .map(|s| (s, self.graph_shard_versions[s as usize]))
            .collect()
    }

    /// Calendar-axis stamps for a cache entry built from `fg`: an STGQ
    /// solve reads exactly its feasible graph's calendars, so only those
    /// shards' calendar versions pin the answer.
    pub(crate) fn calendar_stamps_for<G: CandidateTopology>(&self, fg: &G) -> Vec<(u32, u64)> {
        self.read_shards(fg)
            .into_iter()
            .map(|s| (s, self.calendar_shard_versions[s as usize]))
            .collect()
    }
}

/// The executor's current-epoch cell.
#[derive(Default)]
pub(crate) struct SnapshotCell {
    current: Mutex<Option<Arc<WorldSnapshot>>>,
}

impl SnapshotCell {
    /// The current epoch, if one has been published.
    pub(crate) fn current(&self) -> Option<Arc<WorldSnapshot>> {
        self.current.lock().clone()
    }

    /// Swap in a new epoch. Readers holding the previous epoch are
    /// unaffected; the old snapshot is freed when the last of them
    /// finishes.
    pub(crate) fn publish(&self, snapshot: Arc<WorldSnapshot>) {
        *self.current.lock() = Some(snapshot);
    }

    /// Drop the published epoch: subsequent solves refuse with
    /// `NoSnapshot` until a new epoch is published. In-flight solves
    /// keep the epoch they started with.
    pub(crate) fn clear(&self) {
        *self.current.lock() = None;
    }

    /// The `(graph_version, calendar_version)` stamp of the current
    /// epoch.
    pub(crate) fn versions(&self) -> Option<(u64, u64)> {
        self.current.lock().as_ref().map(|s| s.versions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgq_graph::{FeasibleGraph, GraphBuilder, NodeId};

    fn snap(gv: u64, cv: u64) -> Arc<WorldSnapshot> {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        Arc::new(WorldSnapshot::from_flat(
            &b.build(),
            &vec![Calendar::new(4); 2],
            2,
            gv,
            cv,
        ))
    }

    #[test]
    fn publish_swaps_without_touching_held_epochs() {
        let cell = SnapshotCell::default();
        assert!(cell.current().is_none());
        assert_eq!(cell.versions(), None);

        cell.publish(snap(1, 1));
        let held = cell.current().unwrap();
        cell.publish(snap(2, 1));
        assert_eq!(held.graph_version(), 1, "in-flight epoch unchanged");
        assert_eq!(cell.versions(), Some((2, 1)));
    }

    #[test]
    fn from_flat_floods_every_shard_with_the_global_stamp() {
        let snap = snap(7, 3);
        assert_eq!(snap.shard_count(), 2);
        assert_eq!(snap.graph_shard_versions(), &[7, 7]);
        assert_eq!(snap.calendar_shard_versions(), &[3, 3]);
        assert_eq!(snap.node_count(), 2);
        assert_eq!(snap.calendars().len(), 2);
    }

    #[test]
    fn from_parts_keeps_per_shard_stamps_and_content() {
        // 4 people on 2 shards; person 3 (shard 1, row 1) was mutated at
        // version 9, shard 0 untouched since version 4.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 2).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 1).unwrap();
        let flat = WorldSnapshot::from_flat(&b.build(), &vec![Calendar::new(4); 4], 2, 9, 5);
        let parts = WorldSnapshot::from_parts(
            (0..2).map(|s| Arc::clone(flat.graph_segment(s))).collect(),
            vec![4, 9],
            (0..2).map(|s| Arc::clone(flat.calendar_shard(s))).collect(),
            vec![5, 5],
            9,
            5,
        );
        assert_eq!(parts.graph_shard_version(0), 4);
        assert_eq!(parts.graph_shard_version(1), 9);
        assert!(Arc::ptr_eq(parts.graph_segment(0), flat.graph_segment(0)));
        // The assembled views agree with the flat world.
        for v in 0..4u32 {
            assert_eq!(
                parts.graph().row_of(NodeId(v)),
                flat.graph().row_of(NodeId(v))
            );
        }
    }

    #[test]
    fn stamps_cover_exactly_the_feasible_graphs_shards() {
        // Path 0-1-3 on 2 shards; vertex 2 is isolated. An s=2 extraction
        // from 0 reads shards {0, 1}; an s=1 extraction from 3 reads only
        // the odd shard.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 1).unwrap();
        let snap = WorldSnapshot::from_parts(
            {
                let sg = ShardedGraph::from_flat(&b.build(), 2);
                (0..2).map(|s| Arc::clone(sg.segment(s))).collect()
            },
            vec![4, 9],
            (0..2)
                .map(|_| Arc::new(CalendarShard::build(vec![Calendar::new(4); 2])))
                .collect(),
            vec![2, 6],
            9,
            6,
        );
        let both = FeasibleGraph::extract_from(snap.graph(), NodeId(0), 2);
        assert_eq!(snap.graph_stamps_for(&both), vec![(0, 4), (1, 9)]);
        assert_eq!(snap.calendar_stamps_for(&both), vec![(0, 2), (1, 6)]);
        let odd_only = FeasibleGraph::extract_from(snap.graph(), NodeId(3), 1);
        assert_eq!(snap.graph_stamps_for(&odd_only), vec![(1, 9)]);
        assert_eq!(snap.calendar_stamps_for(&odd_only), vec![(1, 6)]);
    }
}
