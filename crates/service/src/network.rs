//! The mutable social network behind the planner.

use std::collections::BTreeMap;

use stgq_graph::{Dist, GraphBuilder, NodeId, SegmentChunk, SocialGraph, CHUNK_ROWS, MAX_DISTANCE};

use crate::ServiceError;

/// An updatable, undirected, weighted social network.
///
/// People keep their [`NodeId`] for the service's lifetime — removing a
/// person tombstones the id (clearing its edges) rather than re-indexing,
/// so calendars and cached results never need to be re-keyed. Version
/// stamps live one level up, in the [`World`](crate::World) that owns
/// the network: every mutation reports what it touched so the world can
/// stamp exactly those shards.
#[derive(Clone, Debug, Default)]
pub struct MutableNetwork {
    /// Adjacency maps: `adj[v][u] = distance`. Symmetric by construction.
    adj: Vec<BTreeMap<u32, Dist>>,
    labels: Vec<String>,
    active: Vec<bool>,
    edge_count: usize,
}

impl MutableNetwork {
    /// An empty network.
    pub fn new() -> Self {
        MutableNetwork::default()
    }

    /// Register a new person; the returned id is stable forever.
    pub fn add_person(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.adj.len() as u32);
        self.adj.push(BTreeMap::new());
        self.labels.push(label.into());
        self.active.push(true);
        id
    }

    /// Total ids ever issued (tombstoned people included).
    pub fn person_count(&self) -> usize {
        self.adj.len()
    }

    /// People currently active.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Current friendship count.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Freeze chunk `chunk` of shard `shard` of `count` — the residue
    /// class `v % count`, rows ordered by `v / count`, local rows
    /// `chunk * CHUNK_ROWS..` — into the immutable CSR form the
    /// executor's sharded snapshots hold.
    pub fn segment_chunk(&self, shard: usize, count: usize, chunk: usize) -> SegmentChunk {
        let first = shard + chunk * CHUNK_ROWS * count;
        SegmentChunk::build(
            (first..self.adj.len())
                .step_by(count)
                .take(CHUNK_ROWS)
                .map(|v| self.adj[v].iter().map(|(&u, &w)| (u, w))),
        )
    }

    /// Every registration label, by id (tombstoned people included).
    pub(crate) fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Whether each id is still active, by id.
    pub(crate) fn activity(&self) -> &[bool] {
        &self.active
    }

    /// The label given at registration.
    pub fn label(&self, person: NodeId) -> Option<&str> {
        self.labels.get(person.index()).map(String::as_str)
    }

    /// Whether `person` exists and has not been removed.
    pub fn is_active(&self, person: NodeId) -> bool {
        self.active.get(person.index()).copied().unwrap_or(false)
    }

    /// Validate that `person` exists and is active.
    pub fn check_person(&self, person: NodeId) -> Result<(), ServiceError> {
        if person.index() >= self.adj.len() {
            return Err(ServiceError::UnknownPerson {
                person,
                person_count: self.adj.len(),
            });
        }
        if !self.active[person.index()] {
            return Err(ServiceError::RemovedPerson { person });
        }
        Ok(())
    }

    /// Create or re-weight the friendship between `a` and `b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, distance: Dist) -> Result<(), ServiceError> {
        self.check_person(a)?;
        self.check_person(b)?;
        if a == b {
            return Err(ServiceError::SelfFriendship { person: a });
        }
        if distance == 0 {
            return Err(ServiceError::ZeroDistance { a, b });
        }
        if distance > MAX_DISTANCE {
            return Err(ServiceError::DistanceTooLarge { a, b, distance });
        }
        let fresh = self.adj[a.index()].insert(b.0, distance).is_none();
        self.adj[b.index()].insert(a.0, distance);
        if fresh {
            self.edge_count += 1;
        }
        Ok(())
    }

    /// Remove the friendship between `a` and `b`; reports whether it existed.
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) -> Result<bool, ServiceError> {
        self.check_person(a)?;
        self.check_person(b)?;
        let existed = self.adj[a.index()].remove(&b.0).is_some();
        self.adj[b.index()].remove(&a.0);
        if existed {
            self.edge_count -= 1;
        }
        Ok(existed)
    }

    /// Tombstone a person: all their friendships disappear, their id
    /// stays. Returns the former friends, whose rows changed too.
    pub fn remove_person(&mut self, person: NodeId) -> Result<Vec<u32>, ServiceError> {
        self.check_person(person)?;
        let neighbors: Vec<u32> = self.adj[person.index()].keys().copied().collect();
        self.adj[person.index()].clear();
        self.active[person.index()] = false;
        for &nb in &neighbors {
            self.adj[nb as usize].remove(&person.0);
            self.edge_count -= 1;
        }
        Ok(neighbors)
    }

    /// Current social distance between `a` and `b`, if they are friends.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<Dist> {
        self.adj.get(a.index())?.get(&b.0).copied()
    }

    /// Number of friends of `person` (0 for tombstoned or unknown ids).
    pub fn degree(&self, person: NodeId) -> usize {
        self.adj.get(person.index()).map_or(0, BTreeMap::len)
    }

    /// Every current friendship as `(a, b, distance)` with `a < b` —
    /// the edge export a full replication sync ships to a fresh replica.
    pub fn edge_list(&self) -> Vec<(u32, u32, Dist)> {
        let mut edges = Vec::with_capacity(self.edge_count);
        for (v, row) in self.adj.iter().enumerate() {
            for (&u, &w) in row {
                if (v as u32) < u {
                    edges.push((v as u32, u, w));
                }
            }
        }
        edges
    }

    /// Freeze the current state into the immutable CSR form the query
    /// engines consume. Ids are preserved; tombstoned people become
    /// isolated vertices (no query can ever select them since every
    /// candidate needs a path to the initiator).
    pub fn snapshot(&self) -> SocialGraph {
        let mut b = GraphBuilder::new(self.adj.len());
        b.set_labels(self.labels.clone());
        for (v, row) in self.adj.iter().enumerate() {
            for (&u, &w) in row {
                if (v as u32) < u {
                    b.add_edge(NodeId(v as u32), NodeId(u), w)
                        .expect("network invariants guarantee valid edges");
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_people() -> (MutableNetwork, NodeId, NodeId, NodeId) {
        let mut net = MutableNetwork::new();
        let a = net.add_person("a");
        let b = net.add_person("b");
        let c = net.add_person("c");
        (net, a, b, c)
    }

    #[test]
    fn connect_and_query_roundtrip() {
        let (mut net, a, b, c) = three_people();
        net.connect(a, b, 5).unwrap();
        net.connect(b, c, 7).unwrap();
        assert_eq!(net.distance(a, b), Some(5));
        assert_eq!(net.distance(b, a), Some(5));
        assert_eq!(net.distance(a, c), None);
        assert_eq!(net.edge_count(), 2);
        assert_eq!(net.degree(b), 2);
    }

    #[test]
    fn reconnect_updates_weight_without_duplicating() {
        let (mut net, a, b, _) = three_people();
        net.connect(a, b, 5).unwrap();
        net.connect(a, b, 9).unwrap();
        assert_eq!(net.distance(a, b), Some(9));
        assert_eq!(net.edge_count(), 1);
    }

    #[test]
    fn disconnect_reports_prior_existence() {
        let (mut net, a, b, c) = three_people();
        net.connect(a, b, 5).unwrap();
        assert!(net.disconnect(a, b).unwrap());
        assert!(!net.disconnect(a, c).unwrap());
        assert_eq!(net.edge_count(), 0);
    }

    #[test]
    fn remove_person_tombstones_and_clears_edges() {
        let (mut net, a, b, c) = three_people();
        net.connect(a, b, 5).unwrap();
        net.connect(b, c, 7).unwrap();
        net.remove_person(b).unwrap();
        assert!(!net.is_active(b));
        assert_eq!(net.edge_count(), 0);
        assert_eq!(net.degree(a), 0);
        assert_eq!(net.person_count(), 3, "ids are never re-issued");
        assert_eq!(net.active_count(), 2);
        assert!(matches!(
            net.connect(a, b, 1),
            Err(ServiceError::RemovedPerson { .. })
        ));
    }

    #[test]
    fn input_validation() {
        let (mut net, a, _, _) = three_people();
        assert!(matches!(
            net.connect(a, NodeId(99), 1),
            Err(ServiceError::UnknownPerson { .. })
        ));
        assert!(matches!(
            net.connect(a, a, 1),
            Err(ServiceError::SelfFriendship { .. })
        ));
        assert!(matches!(
            net.connect(a, NodeId(1), 0),
            Err(ServiceError::ZeroDistance { .. })
        ));
        assert!(matches!(
            net.connect(a, NodeId(1), MAX_DISTANCE + 1),
            Err(ServiceError::DistanceTooLarge { .. })
        ));
        net.connect(a, NodeId(1), MAX_DISTANCE).unwrap();
        assert_eq!(net.distance(a, NodeId(1)), Some(MAX_DISTANCE));
    }

    #[test]
    fn segment_chunks_partition_the_snapshot_by_residue() {
        let mut net = MutableNetwork::new();
        let people: Vec<NodeId> = (0..300).map(|i| net.add_person(format!("p{i}"))).collect();
        for (i, &a) in people.iter().enumerate() {
            net.connect(a, people[(i * 7 + 3) % 300], 1 + (i as Dist % 9))
                .unwrap();
        }
        let flat = net.snapshot();
        for shards in [1usize, 2, 4] {
            for s in 0..shards {
                let rows = 300usize.saturating_sub(s).div_ceil(shards);
                let mut v = s;
                for r in 0..rows {
                    let chunk = net.segment_chunk(s, shards, r / CHUNK_ROWS);
                    let expect_rows = (rows - r / CHUNK_ROWS * CHUNK_ROWS).min(CHUNK_ROWS);
                    assert_eq!(chunk.rows(), expect_rows, "shard {s}/{shards} row {r}");
                    let (nbrs, dists) = chunk.row(r % CHUNK_ROWS);
                    let row: Vec<(u32, Dist)> =
                        nbrs.iter().copied().zip(dists.iter().copied()).collect();
                    let expect: Vec<(u32, Dist)> = flat
                        .neighbors(NodeId(v as u32))
                        .iter()
                        .map(|&u| (u, flat.edge_weight(NodeId(v as u32), NodeId(u)).unwrap()))
                        .collect();
                    assert_eq!(row, expect, "shard {s}/{shards} row {r}");
                    v += shards;
                }
            }
        }
    }

    #[test]
    fn snapshot_matches_network_state() {
        let (mut net, a, b, c) = three_people();
        net.connect(a, b, 5).unwrap();
        net.connect(b, c, 7).unwrap();
        net.remove_person(c).unwrap();
        let g = net.snapshot();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(a, b), Some(5));
        assert_eq!(g.degree(c), 0);
        assert_eq!(g.label(a), "a");
    }
}
