//! The shard-partitioned, **delta-scoped** caches: feasible graphs and
//! finished results, both stamped with the shard-local versions the
//! solve actually read.
//!
//! Radius-graph extraction (§3.2.1) is the per-query fixed cost every
//! engine pays; for a service handling repeated queries from the same
//! initiators it is also the most cacheable: the feasible graph depends
//! only on the social graph, never on calendars, `p`, `k` or `m`.
//! (Moved here from `stgq-service` — the cache is execution policy.)
//!
//! # Stamp → lookup lifecycle
//!
//! Entries are never flushed when the world moves. Instead, each entry
//! records the **read set** of the solve that produced it — the
//! `(shard, shard_version)` pairs of every shard its feasible graph's
//! vertices live in (see `WorldSnapshot::graph_stamps_for`) — and every
//! lookup re-validates those stamps against the *current* snapshot's
//! per-shard version vector:
//!
//! ```text
//!   put:    entry.stamps = { (s, v[s]) | s ∈ shards(fg) }
//!   lookup: fresh  ⇔ shard_count matches ∧ ∀(s, v) ∈ stamps: v == v'[s]
//!           stale  ⇒ evict now (counted), miss
//! ```
//!
//! A mutation confined to one community therefore invalidates only the
//! entries whose solves read that community's shards — everyone else's
//! cached work survives the write. The `from_flat` publication path
//! floods every shard stamp with the global version, which makes this
//! degrade to exactly the old whole-world behaviour.
//!
//! Both caches are partitioned by **initiator shard** — the same
//! partition the batch scheduler groups jobs by — so concurrent workers
//! touching different shards never contend on one lock, and a shard
//! job's back-to-back same-initiator queries hit a warm shard.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use stgq_graph::{FeasibleView, NodeId};

use crate::engine::Engine;
use crate::request::{PlanOutcome, QuerySpec};
use crate::snapshot::WorldSnapshot;

/// Whether an entry's recorded read set is still current: the shard
/// modulus must match (stamps are meaningless across different
/// partitions) and every stamped shard must still be at the stamped
/// version.
fn stamps_fresh(entry_shards: usize, stamps: &[(u32, u64)], current: &[u64]) -> bool {
    entry_shards == current.len() && stamps.iter().all(|&(s, v)| current[s as usize] == v)
}

/// A bounded FIFO cache of feasible graphs keyed by `(initiator, s)`,
/// each entry stamped with the graph-axis shard versions its extraction
/// read.
#[derive(Debug)]
pub(crate) struct FeasibleCache {
    entries: HashMap<(u32, usize), Entry>,
    insertion_order: VecDeque<(u32, usize)>,
    capacity: usize,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

#[derive(Debug)]
struct Entry {
    /// The shard modulus the stamps were taken under.
    shards: usize,
    /// `(shard, graph_shard_version)` for every shard the extraction read.
    stamps: Vec<(u32, u64)>,
    view: Arc<FeasibleView>,
}

impl FeasibleCache {
    pub(crate) fn new(capacity: usize) -> Self {
        FeasibleCache {
            entries: HashMap::new(),
            insertion_order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up `(initiator, s)` against the current graph-axis shard
    /// versions; an entry with a moved stamp is evicted on the spot and
    /// the lookup misses.
    pub(crate) fn get(
        &mut self,
        initiator: u32,
        s: usize,
        current: &[u64],
    ) -> Option<Arc<FeasibleView>> {
        let key = (initiator, s);
        match self.entries.get(&key) {
            Some(e) if stamps_fresh(e.shards, &e.stamps, current) => {
                self.hits += 1;
                Some(Arc::clone(&e.view))
            }
            Some(_) => {
                self.entries.remove(&key);
                self.insertion_order.retain(|k| *k != key);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a fresh extraction with its read-set stamps, evicting
    /// the oldest entry at capacity.
    pub(crate) fn put(
        &mut self,
        initiator: u32,
        s: usize,
        shards: usize,
        stamps: Vec<(u32, u64)>,
        view: Arc<FeasibleView>,
    ) {
        let key = (initiator, s);
        let entry = Entry {
            shards,
            stamps,
            view,
        };
        if self.entries.insert(key, entry).is_none() {
            self.insertion_order.push_back(key);
            if self.insertion_order.len() > self.capacity {
                if let Some(oldest) = self.insertion_order.pop_front() {
                    self.entries.remove(&oldest);
                }
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// [`FeasibleCache`] partitioned by initiator shard.
pub(crate) struct ShardedFeasibleCache {
    shards: Vec<Mutex<FeasibleCache>>,
}

impl ShardedFeasibleCache {
    /// `shards` caches splitting `capacity` entries between them.
    pub(crate) fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards);
        ShardedFeasibleCache {
            shards: (0..shards)
                .map(|_| Mutex::new(FeasibleCache::new(per_shard)))
                .collect(),
        }
    }

    /// The shard owning `initiator` (the batch scheduler must use the
    /// same mapping).
    pub(crate) fn shard_of(&self, initiator: NodeId) -> usize {
        initiator.0 as usize % self.shards.len()
    }

    /// The zero-copy candidate view for `(initiator, s)` on `snapshot`,
    /// extracting (and caching, stamped with the shards the extraction
    /// read) on miss. Returns the view and whether it was a hit.
    /// Extraction happens outside the shard lock.
    pub(crate) fn get_or_extract(
        &self,
        snapshot: &WorldSnapshot,
        initiator: NodeId,
        s: usize,
    ) -> (Arc<FeasibleView>, bool) {
        let shard = &self.shards[self.shard_of(initiator)];
        if let Some(view) = shard
            .lock()
            .get(initiator.0, s, snapshot.graph_shard_versions())
        {
            return (view, true);
        }
        let view = Arc::new(FeasibleView::extract(snapshot.graph(), initiator, s));
        let stamps = snapshot.graph_stamps_for(view.as_ref());
        shard.lock().put(
            initiator.0,
            s,
            snapshot.shard_count(),
            stamps,
            Arc::clone(&view),
        );
        (view, false)
    }

    /// Aggregate `(hits, misses, cached_graphs)` over every shard.
    pub(crate) fn stats(&self) -> (u64, u64, usize) {
        let mut hits = 0;
        let mut misses = 0;
        let mut len = 0;
        for shard in &self.shards {
            let guard = shard.lock();
            hits += guard.hits;
            misses += guard.misses;
            len += guard.len();
        }
        (hits, misses, len)
    }
}

/// The shard-stamped, cross-batch **result cache**: finished
/// [`PlanOutcome`]s keyed by `(initiator, spec, engine)` and stamped with
/// the shard-local versions the solve read on each axis.
///
/// Within-batch request collapsing only shares work between identical
/// entries of *one* shard job; on a serving workload the same hot query
/// recurs across batches (and through the inline
/// [`execute_one`](crate::Executor::execute_one) path), re-solving
/// against an unchanged world every time. Deterministic requests — no
/// per-entry deadline or cancellation token — are safe to answer from a
/// finished outcome as long as every stamped shard is unmoved on **both**
/// axes. The graph stamps cover the feasible graph's shards; the
/// calendar stamps cover the same shards for STGQ and are **empty for
/// SGQ** — a purely social query is immune to calendar edits, so those
/// entries survive every availability change.
///
/// Partitioned by initiator shard exactly like the feasible-graph cache,
/// for the same two reasons: no cross-shard lock contention, and a shard
/// job's repeated initiators stay within one warm shard.
pub(crate) struct ResultCache {
    shards: Vec<Mutex<ResultShard>>,
    /// Zero capacity disables the cache entirely (every lookup misses
    /// without counting, every insert is dropped).
    per_shard: usize,
}

type ResultKey = (u32, QuerySpec, Engine);

#[derive(Default)]
struct ResultShard {
    entries: HashMap<ResultKey, StampedOutcome>,
    insertion_order: VecDeque<ResultKey>,
    hits: u64,
    misses: u64,
    evicted_stale_shard: u64,
    evicted_capacity: u64,
}

struct StampedOutcome {
    /// The shard modulus the stamps were taken under.
    shards: usize,
    /// `(shard, graph_shard_version)` over the feasible graph's shards.
    graph_stamps: Vec<(u32, u64)>,
    /// `(shard, calendar_shard_version)` over the same shards for STGQ;
    /// empty for SGQ (calendars cannot change a purely social answer).
    calendar_stamps: Vec<(u32, u64)>,
    outcome: PlanOutcome,
}

/// Aggregated [`ResultCache`] counters.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ResultCacheStats {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) len: usize,
    pub(crate) evicted_stale_shard: u64,
    pub(crate) evicted_capacity: u64,
}

impl ResultCache {
    /// `shards` shards splitting `capacity` entries between them
    /// (`capacity == 0` disables the cache).
    pub(crate) fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        ResultCache {
            shards: (0..shards)
                .map(|_| Mutex::new(ResultShard::default()))
                .collect(),
            per_shard: capacity.div_ceil(shards),
        }
    }

    fn shard_of(&self, initiator: NodeId) -> usize {
        initiator.0 as usize % self.shards.len()
    }

    /// A finished outcome for `key` whose stamped shards are all unmoved
    /// in `snapshot`, if one is cached. A stale entry is evicted on the
    /// spot (counted as `evicted_stale_shard`) and the lookup misses.
    /// The returned clone has `result_cache_hit` set and zero elapsed
    /// time.
    pub(crate) fn get(
        &self,
        initiator: NodeId,
        spec: QuerySpec,
        engine: Engine,
        snapshot: &WorldSnapshot,
    ) -> Option<PlanOutcome> {
        if self.per_shard == 0 {
            return None;
        }
        let key = (initiator.0, spec, engine);
        let mut shard = self.shards[self.shard_of(initiator)].lock();
        match shard.entries.get(&key) {
            Some(e)
                if stamps_fresh(e.shards, &e.graph_stamps, snapshot.graph_shard_versions())
                    && stamps_fresh(
                        e.shards,
                        &e.calendar_stamps,
                        snapshot.calendar_shard_versions(),
                    ) =>
            {
                let mut outcome = e.outcome.clone();
                outcome.result_cache_hit = true;
                outcome.elapsed = std::time::Duration::ZERO;
                shard.hits += 1;
                Some(outcome)
            }
            Some(_) => {
                shard.entries.remove(&key);
                shard.insertion_order.retain(|k| *k != key);
                shard.evicted_stale_shard += 1;
                shard.misses += 1;
                None
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Remember a finished outcome with the read-set stamps of the solve
    /// that produced it, evicting the oldest key at capacity.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn put(
        &self,
        initiator: NodeId,
        spec: QuerySpec,
        engine: Engine,
        shards: usize,
        graph_stamps: Vec<(u32, u64)>,
        calendar_stamps: Vec<(u32, u64)>,
        outcome: PlanOutcome,
    ) {
        if self.per_shard == 0 {
            return;
        }
        let key = (initiator.0, spec, engine);
        let stamped = StampedOutcome {
            shards,
            graph_stamps,
            calendar_stamps,
            outcome,
        };
        let mut shard = self.shards[self.shard_of(initiator)].lock();
        if shard.entries.insert(key, stamped).is_none() {
            shard.insertion_order.push_back(key);
            if shard.insertion_order.len() > self.per_shard {
                if let Some(oldest) = shard.insertion_order.pop_front() {
                    shard.entries.remove(&oldest);
                    shard.evicted_capacity += 1;
                }
            }
        }
    }

    /// Aggregate counters over every shard.
    pub(crate) fn stats(&self) -> ResultCacheStats {
        let mut total = ResultCacheStats::default();
        for shard in &self.shards {
            let guard = shard.lock();
            total.hits += guard.hits;
            total.misses += guard.misses;
            total.len += guard.entries.len();
            total.evicted_stale_shard += guard.evicted_stale_shard;
            total.evicted_capacity += guard.evicted_capacity;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgq_graph::GraphBuilder;

    fn view() -> Arc<FeasibleView> {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        let snap = WorldSnapshot::from_flat(&b.build(), &[], 1, 0, 0);
        Arc::new(FeasibleView::extract(snap.graph(), NodeId(0), 1))
    }

    /// An entry stamped as having read shard 0 of 2 at version `v`.
    fn stamp0(v: u64) -> Vec<(u32, u64)> {
        vec![(0, v)]
    }

    #[test]
    fn hit_requires_every_stamped_shard_unmoved() {
        let mut c = FeasibleCache::new(4);
        c.put(0, 1, 2, stamp0(7), view());
        assert!(
            c.get(0, 1, &[7, 3]).is_some(),
            "unstamped shard 1 is free to move"
        );
        assert!(c.get(0, 1, &[7, 99]).is_some());
        assert!(c.get(0, 1, &[8, 3]).is_none(), "stamped shard moved: stale");
        assert!(
            c.get(0, 1, &[7, 3]).is_none(),
            "stale entry was evicted, not resurrected"
        );
        assert_eq!((c.hits, c.misses), (2, 2));
    }

    #[test]
    fn shard_count_change_is_stale() {
        let mut c = FeasibleCache::new(4);
        c.put(0, 1, 2, stamp0(7), view());
        assert!(
            c.get(0, 1, &[7, 7, 7]).is_none(),
            "stamps under a different modulus never validate"
        );
    }

    #[test]
    fn capacity_evicts_oldest_key() {
        let mut c = FeasibleCache::new(2);
        c.put(0, 1, 2, stamp0(1), view());
        c.put(1, 1, 2, stamp0(1), view());
        c.put(2, 1, 2, stamp0(1), view());
        assert_eq!(c.len(), 2);
        assert!(c.get(0, 1, &[1, 1]).is_none(), "oldest key evicted");
        assert!(c.get(2, 1, &[1, 1]).is_some());
    }

    #[test]
    fn replacing_a_key_does_not_grow_the_order_queue() {
        let mut c = FeasibleCache::new(2);
        for version in 0..10 {
            c.put(0, 1, 2, stamp0(version), view());
        }
        c.put(1, 1, 2, stamp0(0), view());
        assert_eq!(c.len(), 2);
        assert!(c.get(0, 1, &[9, 0]).is_some());
    }

    #[test]
    fn stale_eviction_then_reinsert_keeps_the_queue_consistent() {
        let mut c = FeasibleCache::new(2);
        c.put(0, 1, 2, stamp0(1), view());
        c.put(1, 1, 2, stamp0(1), view());
        // Shard 0 moves: the first entry goes stale and is evicted.
        assert!(c.get(0, 1, &[2, 1]).is_none());
        assert_eq!(c.len(), 1);
        // Re-inserting it must occupy a real queue slot again.
        c.put(0, 1, 2, stamp0(2), view());
        c.put(2, 1, 2, stamp0(2), view());
        assert_eq!(c.len(), 2, "capacity still enforced");
        assert!(c.get(1, 1, &[2, 1]).is_none(), "oldest (key 1) evicted");
        assert!(c.get(0, 1, &[2, 1]).is_some());
        assert!(c.get(2, 1, &[2, 1]).is_some());
    }

    #[test]
    fn sharded_cache_partitions_by_initiator() {
        let mut b = GraphBuilder::new(6);
        for v in 1..6u32 {
            b.add_edge(NodeId(0), NodeId(v), v.into()).unwrap();
        }
        b.add_edge(NodeId(1), NodeId(3), 2).unwrap();
        let g = b.build();
        let snap = |gv| WorldSnapshot::from_flat(&g, &[], 4, gv, 0);
        let cache = ShardedFeasibleCache::new(4, 8);
        assert_ne!(cache.shard_of(NodeId(0)), cache.shard_of(NodeId(1)));

        let s3 = snap(3);
        let (_, hit) = cache.get_or_extract(&s3, NodeId(0), 1);
        assert!(!hit);
        let (_, hit) = cache.get_or_extract(&s3, NodeId(0), 1);
        assert!(hit);
        let (_, hit) = cache.get_or_extract(&snap(4), NodeId(0), 1);
        assert!(!hit, "a flooded version bump misses");
        let (hits, misses, len) = cache.stats();
        assert_eq!((hits, misses), (1, 2));
        assert_eq!(len, 1, "same key replaced in place");
    }
}
