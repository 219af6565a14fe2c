//! The one mutable world behind the writer and every replica.
//!
//! A [`World`] is the social network plus the calendars, stamped with a
//! version pair and, per shard and per 64-row chunk of a shard, the
//! version of its last mutation. It decides, in one place, how that
//! world is
//!
//! * **mutated and stamped** — [`apply`](World::apply) is the only
//!   mutation path. It validates every person a delta names, and it
//!   bumps the touched axis once and stamps exactly the touched shards;
//! * **captured** — [`state`](World::state) copies it into a
//!   [`WorldState`];
//! * **restored** — [`restore`](World::restore) rebuilds it from a
//!   [`WorldState`], refusing inconsistent ones, with every shard
//!   stamped at the carried versions;
//! * **frozen** — [`snapshot`](World::snapshot) builds the executor's
//!   [`WorldSnapshot`] copy-on-publish: a shard whose stamp has not
//!   moved since the previous snapshot is carried over by `Arc`; a moved
//!   shard gets a new chunk vector that carries over every chunk whose
//!   stamp has not moved and rebuilds only the touched chunks. So a
//!   republication after one delta rebuilds at most the chunks that
//!   delta named (two people for a tie, the person and their former
//!   friends for a removal), whatever the shard size.
//!
//! The [`Planner`](crate::Planner) and a cluster's writer hold a
//! [`Writer`] (a world plus the [`DeltaLog`] of what it accepted); a
//! cluster node holds a bare world it replays the writer's records into.
//! All three therefore mutate, stamp and freeze with the same code.

use std::sync::Arc;

use stgq_exec::WorldSnapshot;
use stgq_graph::{Dist, GraphSegment, NodeId, CHUNK_ROWS};
use stgq_schedule::{Calendar, CalendarShard, SlotRange};

use crate::delta::{DeltaLog, DeltaRecord, WorldDelta, WorldState, DEFAULT_DELTA_LOG_CAPACITY};
use crate::{CalendarStore, MutableNetwork, ServiceError};

// Graph rows and calendars share one chunk geometry, so one stamp
// layout serves both axes.
const _: () = assert!(CHUNK_ROWS == stgq_schedule::CHUNK_ROWS);

/// Rows shard `shard` of `shards` holds over `people` people.
fn shard_rows(people: usize, shard: usize, shards: usize) -> usize {
    people.saturating_sub(shard).div_ceil(shards)
}

/// One shard of the previous snapshot, on one axis: the snapshot's
/// axis version, the shard's stamp there, and its part and chunks.
struct PrevShard<'a, P, C: ?Sized> {
    version: u64,
    stamp: u64,
    part: &'a Arc<P>,
    chunks: &'a [Arc<C>],
}

/// One version axis: a global counter plus, per shard (the residue class
/// `person % shards`) and per chunk of a shard (its local rows
/// `c * CHUNK_ROWS..`), the counter's value at the last mutation there.
/// Equal shard stamp ⇒ identical shard content, the invariant the
/// snapshot's `Arc` reuse and the executor's caches rely on; a chunk's
/// stamp never exceeds its shard's.
#[derive(Debug)]
struct Stamps {
    version: u64,
    shards: Vec<u64>,
    chunks: Vec<Vec<u64>>,
}

impl Stamps {
    /// Every shard and chunk of a world of `people` stamped at
    /// `version`: a fresh world, or a restored one, which has no
    /// per-shard history to trust.
    fn flooded(version: u64, shards: usize, people: usize) -> Self {
        let shards = shards.max(1);
        Stamps {
            version,
            shards: vec![version; shards],
            chunks: (0..shards)
                .map(|s| vec![version; shard_rows(people, s, shards).div_ceil(CHUNK_ROWS)])
                .collect(),
        }
    }

    /// The version the next mutation on this axis stamps, or a typed
    /// refusal when a restored peer state left the counter at
    /// `u64::MAX`.
    fn next(&self, counter: &'static str) -> Result<u64, ServiceError> {
        self.version
            .checked_add(1)
            .ok_or(ServiceError::CounterExhausted { counter })
    }

    /// One mutation at `version` (from [`next`](Self::next)): advance
    /// the counter and stamp each of `people`'s shards and chunks with
    /// it. A registration's chunk may not exist yet; it starts here.
    fn touch(&mut self, version: u64, people: impl IntoIterator<Item = usize>) {
        self.version = version;
        let count = self.shards.len();
        for person in people {
            let row = person / count;
            let (shard, chunk) = (person - row * count, row / CHUNK_ROWS);
            self.shards[shard] = version;
            let chunks = &mut self.chunks[shard];
            if chunk >= chunks.len() {
                chunks.resize(chunk + 1, version);
            }
            chunks[chunk] = version;
        }
    }

    /// Shard `shard`'s parts for a snapshot over `people` people:
    /// `prev`'s part when the shard's stamp has not moved since it was
    /// published; otherwise a new vector of the shard's chunks in which
    /// every chunk unmoved since `prev` is `prev`'s `Arc` and the rest
    /// come from `build`.
    ///
    /// A chunk is unmoved when its stamp is at most the previous shard
    /// stamp: stamps only grow, so a chunk touched after that snapshot
    /// carries a later version. A `prev` newer than this world (a
    /// replica restored to an older state) has no such ordering and
    /// lends no chunks.
    fn shard_parts<P, C: ?Sized>(
        &self,
        shard: usize,
        people: usize,
        prev: Option<PrevShard<'_, P, C>>,
        assemble: impl FnOnce(Vec<Arc<C>>) -> P,
        build: impl Fn(usize) -> Arc<C>,
    ) -> Arc<P> {
        let prev_chunks = match prev {
            Some(p) if p.stamp == self.shards[shard] => return Arc::clone(p.part),
            Some(p) if p.version <= self.version => Some((p.stamp, p.chunks)),
            _ => None,
        };
        let (count, stamps) = (self.shards.len(), &self.chunks[shard]);
        let unmoved = |c: usize, since: u64| stamps.get(c).is_some_and(|&stamp| stamp <= since);
        let chunks = (0..shard_rows(people, shard, count).div_ceil(CHUNK_ROWS))
            .map(|c| match prev_chunks {
                Some((since, old)) if c < old.len() && unmoved(c, since) => Arc::clone(&old[c]),
                _ => build(c),
            })
            .collect();
        Arc::new(assemble(chunks))
    }
}

/// The mutable world: network, calendars and their version stamps over
/// a shard count fixed at construction. See the module docs.
#[derive(Debug)]
pub struct World {
    network: MutableNetwork,
    calendars: CalendarStore,
    graph: Stamps,
    calendar: Stamps,
}

impl World {
    /// An empty world over `horizon` slots, stamped per `shards`
    /// residue classes (the executor's shard modulus, so stamps map
    /// directly onto sub-snapshots).
    pub fn new(horizon: usize, shards: usize) -> Self {
        World {
            network: MutableNetwork::new(),
            calendars: CalendarStore::new(horizon),
            graph: Stamps::flooded(0, shards, 0),
            calendar: Stamps::flooded(0, shards, 0),
        }
    }

    /// Apply one mutation — the only way the world changes. Every person
    /// the delta names must exist and be active, and every version axis
    /// it moves must have room to advance; a refused delta leaves the
    /// world untouched. Returns `false` for an accepted no-op
    /// (disconnecting a missing tie), which moves no stamp.
    pub fn apply(&mut self, delta: &WorldDelta) -> Result<bool, ServiceError> {
        // Each arm takes the next version of every axis it moves before
        // changing anything, so a counter at its maximum refuses the
        // delta with the world untouched.
        let graph = self.graph.next("graph version");
        let calendar = self.calendar.next("calendar version");
        match delta {
            WorldDelta::AddPerson { label } => {
                let (graph, calendar) = (graph?, calendar?);
                let id = self.network.add_person(label.clone()).index();
                self.calendars.ensure_people(id + 1);
                // The calendar axis moves too: the published slices must
                // lengthen even though the new calendar is all-unavailable.
                self.graph.touch(graph, [id]);
                self.calendar.touch(calendar, [id]);
            }
            WorldDelta::Connect { a, b, distance } => {
                let graph = graph?;
                self.network.connect(*a, *b, *distance)?;
                self.graph.touch(graph, [a.index(), b.index()]);
            }
            WorldDelta::Disconnect { a, b } => {
                let graph = graph?;
                if !self.network.disconnect(*a, *b)? {
                    return Ok(false);
                }
                self.graph.touch(graph, [a.index(), b.index()]);
            }
            WorldDelta::RemovePerson { person } => {
                let graph = graph?;
                let former = self.network.remove_person(*person)?;
                self.graph.touch(
                    graph,
                    std::iter::once(person.index()).chain(former.into_iter().map(|v| v as usize)),
                );
            }
            WorldDelta::SetSlot {
                person,
                slot,
                available,
            } => {
                let calendar = calendar?;
                self.network.check_person(*person)?;
                self.calendars.set_slot(person.index(), *slot, *available)?;
                self.calendar.touch(calendar, [person.index()]);
            }
            WorldDelta::SetRange {
                person,
                range,
                available,
            } => {
                let calendar = calendar?;
                self.network.check_person(*person)?;
                self.calendars
                    .set_range(person.index(), *range, *available)?;
                self.calendar.touch(calendar, [person.index()]);
            }
            WorldDelta::SetCalendar {
                person,
                calendar: replacement,
            } => {
                let calendar = calendar?;
                self.network.check_person(*person)?;
                self.calendars
                    .replace(person.index(), replacement.clone())?;
                self.calendar.touch(calendar, [person.index()]);
            }
        }
        Ok(true)
    }

    /// A complete copy of the world at its current versions, tagged with
    /// the delta sequence `seq` it reflects — the full-sync and failover
    /// payload.
    pub fn state(&self, seq: u64) -> WorldState {
        WorldState {
            horizon: self.calendars.horizon(),
            labels: self.network.labels().to_vec(),
            active: self.network.activity().to_vec(),
            edges: self.network.edge_list(),
            calendars: self.calendars.calendars().to_vec(),
            graph_version: self.graph.version,
            calendar_version: self.calendar.version,
            seq,
        }
    }

    /// Rebuild a world from `state` over `shards` residue classes,
    /// **keeping the carried versions**: every shard is stamped at them,
    /// so the world keeps publishing under the cluster's global version
    /// numbering (stamps key every result and feasible-graph cache in the
    /// fleet; restarting from zero would alias old answers onto new
    /// content). A state whose per-person vectors disagree, or whose
    /// edges, tombstones or calendars the mutation path would refuse, is
    /// a typed error.
    pub fn restore(state: &WorldState, shards: usize) -> Result<World, ServiceError> {
        let people = state.labels.len();
        if state.active.len() != people || state.calendars.len() != people {
            return Err(ServiceError::InconsistentState {
                labels: people,
                active: state.active.len(),
                calendars: state.calendars.len(),
            });
        }
        let mut network = MutableNetwork::new();
        for label in &state.labels {
            network.add_person(label.clone());
        }
        for &(a, b, distance) in &state.edges {
            network.connect(NodeId(a), NodeId(b), distance)?;
        }
        // Tombstones last: removal also clears edges, so a tombstoned id
        // with edges in the state would be inconsistent anyway — no world
        // captures one.
        for (id, &active) in state.active.iter().enumerate() {
            if !active {
                network.remove_person(NodeId(id as u32))?;
            }
        }
        Ok(World {
            network,
            calendars: CalendarStore::from_calendars(state.horizon, state.calendars.clone())?,
            graph: Stamps::flooded(state.graph_version, shards, people),
            calendar: Stamps::flooded(state.calendar_version, shards, people),
        })
    }

    /// Freeze the world into an immutable epoch, copy-on-publish from
    /// `prev`: each graph segment and calendar shard of `prev` whose
    /// stamp still matches this world's is carried over by `Arc`, and a
    /// moved one is re-assembled from `prev`'s unmoved chunks plus the
    /// touched chunks rebuilt from this world. A delta naming a few
    /// people therefore re-freezes a few chunks, not a shard or the
    /// world. A `prev` of another shard count is ignored.
    pub fn snapshot(&self, prev: Option<&WorldSnapshot>) -> WorldSnapshot {
        let shards = self.shards();
        let prev = prev.filter(|p| p.shard_count() == shards);
        let people = self.network.person_count();
        let segments = (0..shards)
            .map(|s| {
                self.graph.shard_parts(
                    s,
                    people,
                    prev.map(|p| PrevShard {
                        version: p.graph_version(),
                        stamp: p.graph_shard_version(s),
                        part: p.graph_segment(s),
                        chunks: p.graph_segment(s).chunks(),
                    }),
                    GraphSegment::from_chunks,
                    |c| Arc::new(self.network.segment_chunk(s, shards, c)),
                )
            })
            .collect();
        let calendar_shards = (0..shards)
            .map(|s| {
                self.calendar.shard_parts(
                    s,
                    self.calendars.len(),
                    prev.map(|p| PrevShard {
                        version: p.calendar_version(),
                        stamp: p.calendar_shard_version(s),
                        part: p.calendar_shard(s),
                        chunks: p.calendar_shard(s).chunks(),
                    }),
                    CalendarShard::from_chunks,
                    |c| self.calendars.shard_chunk(s, shards, c),
                )
            })
            .collect();
        WorldSnapshot::from_parts(
            segments,
            self.graph.shards.clone(),
            calendar_shards,
            self.calendar.shards.clone(),
            self.graph.version,
            self.calendar.version,
        )
    }

    /// The `(graph_version, calendar_version)` pair — the world's epoch.
    pub fn versions(&self) -> (u64, u64) {
        (self.graph.version, self.calendar.version)
    }

    /// The shard count stamps are kept for.
    pub fn shards(&self) -> usize {
        self.graph.shards.len()
    }

    /// The social network (read-only).
    pub fn network(&self) -> &MutableNetwork {
        &self.network
    }

    /// The calendars (read-only).
    pub fn calendars(&self) -> &CalendarStore {
        &self.calendars
    }
}

/// The single mutation point of a deployment: a [`World`] plus the
/// bounded [`DeltaLog`] recording every delta it accepted, stamped with
/// the versions it produced. Replicas catch up from this log (or, past
/// its retention, from [`world_state`](Self::world_state)).
pub struct Writer {
    world: World,
    log: DeltaLog,
}

impl Writer {
    /// An empty world over `horizon` slots and `shards` residue classes,
    /// with an empty log.
    pub fn new(horizon: usize, shards: usize) -> Self {
        Writer {
            world: World::new(horizon, shards),
            log: DeltaLog::new(DEFAULT_DELTA_LOG_CAPACITY),
        }
    }

    /// A writer resuming from a captured state — the writer-failover
    /// path. Versions carry over (see [`World::restore`]); the log is
    /// empty but numbered after `state.seq`, so a replica asking for
    /// earlier history sees a gap and full-syncs, which is right: the
    /// promoted writer holds the state, not the history behind it.
    pub fn restore(state: &WorldState, shards: usize) -> Result<Self, ServiceError> {
        Ok(Writer {
            world: World::restore(state, shards)?,
            log: DeltaLog::resume(DEFAULT_DELTA_LOG_CAPACITY, state.seq),
        })
    }

    /// Apply `delta` and record it when it changed something. Returns
    /// what [`World::apply`] returns; a log whose sequence cannot
    /// advance refuses the delta before the world changes.
    pub fn apply(&mut self, delta: WorldDelta) -> Result<bool, ServiceError> {
        let seq = self.log.next_seq()?;
        let changed = self.world.apply(&delta)?;
        if changed {
            let (graph_version, calendar_version) = self.world.versions();
            self.log.record(seq, delta, graph_version, calendar_version);
        }
        Ok(changed)
    }

    /// Register a person (their calendar starts fully unavailable) and
    /// return their id, stable forever.
    pub fn add_person(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.world.network().person_count() as u32);
        self.apply(WorldDelta::AddPerson {
            label: label.into(),
        })
        .expect("registration names no existing person, so it cannot be refused");
        id
    }

    /// Create or re-weight a friendship.
    pub fn connect(&mut self, a: NodeId, b: NodeId, distance: Dist) -> Result<(), ServiceError> {
        self.apply(WorldDelta::Connect { a, b, distance })
            .map(|_| ())
    }

    /// Remove a friendship; reports whether it existed.
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) -> Result<bool, ServiceError> {
        self.apply(WorldDelta::Disconnect { a, b })
    }

    /// Tombstone a person (id stays, edges and eligibility disappear).
    pub fn remove_person(&mut self, person: NodeId) -> Result<(), ServiceError> {
        self.apply(WorldDelta::RemovePerson { person }).map(|_| ())
    }

    /// Mark one slot (un)available.
    pub fn set_availability(
        &mut self,
        person: NodeId,
        slot: usize,
        available: bool,
    ) -> Result<(), ServiceError> {
        self.apply(WorldDelta::SetSlot {
            person,
            slot,
            available,
        })
        .map(|_| ())
    }

    /// Mark a slot range (un)available.
    pub fn set_availability_range(
        &mut self,
        person: NodeId,
        range: SlotRange,
        available: bool,
    ) -> Result<(), ServiceError> {
        self.apply(WorldDelta::SetRange {
            person,
            range,
            available,
        })
        .map(|_| ())
    }

    /// Replace a whole calendar (horizon must match the store).
    pub fn set_calendar(&mut self, person: NodeId, calendar: Calendar) -> Result<(), ServiceError> {
        self.apply(WorldDelta::SetCalendar { person, calendar })
            .map(|_| ())
    }

    /// The world behind this writer (read-only).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The sequence number of the last recorded mutation (0 when none) —
    /// what a fully caught-up replica has applied.
    pub fn delta_seq(&self) -> u64 {
        self.log.last_seq()
    }

    /// Every recorded mutation after `have_seq`, oldest first, or `None`
    /// when the bounded log has already evicted that far back (a **gap**:
    /// the replica needs a [`world_state`](Self::world_state) full sync).
    pub fn deltas_since(&self, have_seq: u64) -> Option<Vec<DeltaRecord>> {
        self.log.since(have_seq)
    }

    /// The full-sync payload: the world at the current versions and
    /// delta sequence.
    pub fn world_state(&self) -> WorldState {
        self.world.state(self.log.last_seq())
    }

    /// Shrink or grow the delta log's retention. Shrinking may evict
    /// history and force attached replicas through a full sync on their
    /// next catch-up — which is exactly what the gap-path tests use it
    /// for.
    pub fn set_delta_log_capacity(&mut self, capacity: usize) {
        self.log.set_capacity(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stgq_graph::AdjacencySource;

    fn stamps(world: &World) -> (Vec<u64>, Vec<u64>) {
        let snap = world.snapshot(None);
        (
            snap.graph_shard_versions().to_vec(),
            snap.calendar_shard_versions().to_vec(),
        )
    }

    fn add(world: &mut World, label: &str) {
        assert!(world
            .apply(&WorldDelta::AddPerson {
                label: label.into()
            })
            .unwrap());
    }

    #[test]
    fn replaying_deltas_mirrors_the_writer() {
        let mut world = World::new(6, 1);
        let deltas = [
            WorldDelta::AddPerson { label: "a".into() },
            WorldDelta::AddPerson { label: "b".into() },
            WorldDelta::Connect {
                a: NodeId(0),
                b: NodeId(1),
                distance: 4,
            },
            WorldDelta::SetRange {
                person: NodeId(0),
                range: SlotRange::new(1, 4),
                available: true,
            },
            WorldDelta::SetSlot {
                person: NodeId(1),
                slot: 2,
                available: true,
            },
        ];
        for d in &deltas {
            assert!(world.apply(d).unwrap());
        }
        assert_eq!(world.network().distance(NodeId(0), NodeId(1)), Some(4));
        assert!(world.calendars().calendar(0).is_available(3));
        assert!(world.calendars().calendar(1).is_available(2));
    }

    #[test]
    fn versions_bump_once_per_accepted_change_only() {
        let mut world = World::new(5, 1);
        add(&mut world, "a");
        add(&mut world, "b");
        add(&mut world, "c");
        let v0 = world.versions();
        assert_eq!(v0, (3, 3), "a registration moves both axes once");
        let connect = WorldDelta::Connect {
            a: NodeId(0),
            b: NodeId(1),
            distance: 5,
        };
        assert!(world.apply(&connect).unwrap());
        assert_eq!(world.versions(), (4, 3));
        let _ = world.snapshot(None);
        let _ = world.state(0);
        assert_eq!(world.versions(), (4, 3), "reads must not invalidate caches");
        // A no-op disconnect is accepted but bumps nothing.
        let missing = WorldDelta::Disconnect {
            a: NodeId(0),
            b: NodeId(2),
        };
        assert!(!world.apply(&missing).unwrap());
        assert_eq!(world.versions(), (4, 3));
        let slot = WorldDelta::SetSlot {
            person: NodeId(2),
            slot: 1,
            available: true,
        };
        assert!(world.apply(&slot).unwrap());
        assert_eq!(
            world.versions(),
            (4, 4),
            "calendar edits move their own axis"
        );
    }

    #[test]
    fn shard_stamps_move_only_for_touched_residue_classes() {
        let mut world = World::new(8, 4);
        for i in 0..8 {
            add(&mut world, &format!("p{i}"));
        }
        let (base, _) = world.versions();
        let (before, cal_before) = stamps(&world);
        // 1-5 touches shards 1 and 1 (5 % 4 == 1): only shard 1 moves.
        let connect = |a, b| WorldDelta::Connect {
            a: NodeId(a),
            b: NodeId(b),
            distance: 3,
        };
        world.apply(&connect(1, 5)).unwrap();
        let (g, _) = stamps(&world);
        assert_eq!(g[1], base + 1);
        for s in [0, 2, 3] {
            assert_eq!(g[s], before[s], "shard {s} untouched");
        }
        // 2-7 touches shards 2 and 3.
        world.apply(&connect(2, 7)).unwrap();
        let (g, _) = stamps(&world);
        assert_eq!((g[2], g[3], g[0]), (base + 2, base + 2, before[0]));
        // Removing 5 touches its shard and every ex-neighbor's shard.
        world
            .apply(&WorldDelta::RemovePerson { person: NodeId(5) })
            .unwrap();
        let (g, cal) = stamps(&world);
        assert_eq!(g[1], base + 3);
        assert_eq!(g[0], before[0], "shard 0 never touched");
        assert_eq!(cal, cal_before, "graph edits leave the calendar axis alone");

        // A calendar edit stamps only the edited person's shard.
        let (_, cal_base) = world.versions();
        world
            .apply(&WorldDelta::SetSlot {
                person: NodeId(6),
                slot: 2,
                available: true,
            })
            .unwrap();
        let (_, cal) = stamps(&world);
        assert_eq!(cal[2], cal_base + 1);
        for s in [0, 1, 3] {
            assert_eq!(cal[s], cal_before[s], "calendar shard {s} untouched");
        }
    }

    #[test]
    fn refused_deltas_leave_the_world_untouched() {
        let mut world = World::new(4, 2);
        add(&mut world, "a");
        add(&mut world, "b");
        world
            .apply(&WorldDelta::RemovePerson { person: NodeId(1) })
            .unwrap();
        let before = (world.versions(), stamps(&world), world.state(0));
        let refused = [
            (
                WorldDelta::SetSlot {
                    person: NodeId(99),
                    slot: 0,
                    available: true,
                },
                ServiceError::UnknownPerson {
                    person: NodeId(99),
                    person_count: 2,
                },
            ),
            (
                WorldDelta::SetRange {
                    person: NodeId(1),
                    range: SlotRange::new(0, 1),
                    available: true,
                },
                ServiceError::RemovedPerson { person: NodeId(1) },
            ),
            (
                WorldDelta::SetCalendar {
                    person: NodeId(7),
                    calendar: Calendar::new(4),
                },
                ServiceError::UnknownPerson {
                    person: NodeId(7),
                    person_count: 2,
                },
            ),
            (
                WorldDelta::SetSlot {
                    person: NodeId(0),
                    slot: 4,
                    available: true,
                },
                ServiceError::SlotOutOfRange {
                    slot: 4,
                    horizon: 4,
                },
            ),
        ];
        for (delta, expected) in refused {
            assert_eq!(world.apply(&delta), Err(expected), "{delta:?}");
            assert_eq!(
                (world.versions(), stamps(&world), world.state(0)),
                before,
                "{delta:?} changed the world"
            );
        }
    }

    #[test]
    fn restore_keeps_tombstones_calendars_and_floods_the_carried_versions() {
        let state = WorldState {
            horizon: 4,
            labels: vec!["a".into(), "b".into(), "c".into()],
            active: vec![true, false, true],
            edges: vec![(0, 2, 7)],
            calendars: vec![
                Calendar::all_available(4),
                Calendar::new(4),
                Calendar::from_slots(4, [1, 2]),
            ],
            graph_version: 42,
            calendar_version: 17,
            seq: 9,
        };
        let world = World::restore(&state, 3).unwrap();
        assert_eq!(world.network().person_count(), 3);
        assert!(!world.network().is_active(NodeId(1)));
        assert_eq!(world.network().distance(NodeId(0), NodeId(2)), Some(7));
        assert!(world.calendars().calendar(2).is_available(1));
        assert_eq!(world.calendars().calendar(0).count_available(), 4);
        assert_eq!(world.versions(), (42, 17));
        assert_eq!(stamps(&world), (vec![42; 3], vec![17; 3]));
        assert_eq!(world.state(9), state, "capture inverts restore");
    }

    #[test]
    fn restore_refuses_inconsistent_states() {
        let good = World::new(4, 1).state(0);
        let mut extra_calendar = good.clone();
        extra_calendar.calendars.push(Calendar::new(4));
        assert_eq!(
            World::restore(&extra_calendar, 1).err(),
            Some(ServiceError::InconsistentState {
                labels: 0,
                active: 0,
                calendars: 1
            })
        );
        let mut missing_flag = good.clone();
        missing_flag.labels.push("a".into());
        missing_flag.calendars.push(Calendar::new(4));
        assert!(matches!(
            World::restore(&missing_flag, 1),
            Err(ServiceError::InconsistentState { active: 0, .. })
        ));
        let mut wrong_horizon = missing_flag.clone();
        wrong_horizon.active.push(true);
        wrong_horizon.calendars[0] = Calendar::new(5);
        assert!(matches!(
            World::restore(&wrong_horizon, 1),
            Err(ServiceError::SlotOutOfRange { .. })
        ));
        let mut dangling_edge = wrong_horizon.clone();
        dangling_edge.calendars[0] = Calendar::new(4);
        dangling_edge.edges.push((0, 5, 1));
        assert!(matches!(
            World::restore(&dangling_edge, 1),
            Err(ServiceError::UnknownPerson { .. })
        ));
    }

    #[test]
    fn snapshots_reuse_exactly_the_unmoved_shards() {
        let mut world = World::new(4, 2);
        for i in 0..4 {
            add(&mut world, &format!("p{i}"));
        }
        let first = world.snapshot(None);
        world
            .apply(&WorldDelta::Connect {
                a: NodeId(0),
                b: NodeId(2),
                distance: 1,
            })
            .unwrap();
        let second = world.snapshot(Some(&first));
        assert!(!Arc::ptr_eq(
            first.graph_segment(0),
            second.graph_segment(0)
        ));
        assert!(Arc::ptr_eq(first.graph_segment(1), second.graph_segment(1)));
        assert!(Arc::ptr_eq(
            first.calendar_shard(0),
            second.calendar_shard(0)
        ));
        assert_eq!(second.versions(), world.versions());
        // A snapshot of another shard count is never reused.
        let other = World::new(4, 3).snapshot(None);
        let third = world.snapshot(Some(&other));
        assert_eq!(third.shard_count(), 2);
    }

    /// The world as [`WorldSnapshot::from_flat`] freezes it: no reuse,
    /// no chunk stamps — the oracle a copy-on-publish snapshot must match.
    fn flat(world: &World) -> WorldSnapshot {
        let (graph_version, calendar_version) = world.versions();
        WorldSnapshot::from_flat(
            &world.network().snapshot(),
            world.calendars().calendars(),
            world.shards(),
            graph_version,
            calendar_version,
        )
    }

    /// Row by row and calendar by calendar, `snap` holds what `flat` does.
    fn assert_same_world(snap: &WorldSnapshot, flat: &WorldSnapshot) {
        assert_eq!(snap.versions(), flat.versions());
        assert_eq!(snap.node_count(), flat.node_count());
        assert_eq!(snap.calendars().len(), flat.calendars().len());
        for v in 0..flat.node_count() {
            let id = NodeId(v as u32);
            assert_eq!(snap.graph().row_of(id), flat.graph().row_of(id), "row {v}");
            assert_eq!(
                snap.calendars().get(v),
                flat.calendars().get(v),
                "calendar {v}"
            );
        }
    }

    /// Shard by shard: an unmoved shard is `prev`'s `Arc`; in a moved
    /// one, exactly the chunks whose stamp is not past `prev`'s shard
    /// stamp are `prev`'s `Arc`s.
    fn assert_shares_unmoved_chunks(world: &World, prev: &WorldSnapshot, next: &WorldSnapshot) {
        for s in 0..world.shards() {
            let (old, new) = (prev.graph_segment(s), next.graph_segment(s));
            let since = prev.graph_shard_version(s);
            assert_eq!(
                Arc::ptr_eq(old, new),
                world.graph.shards[s] == since,
                "graph shard {s}"
            );
            for (c, (a, b)) in old.chunks().iter().zip(new.chunks()).enumerate() {
                let unmoved = world.graph.chunks[s][c] <= since;
                assert_eq!(Arc::ptr_eq(a, b), unmoved, "graph shard {s} chunk {c}");
            }
            let (old, new) = (prev.calendar_shard(s), next.calendar_shard(s));
            let since = prev.calendar_shard_version(s);
            assert_eq!(
                Arc::ptr_eq(old, new),
                world.calendar.shards[s] == since,
                "calendar shard {s}"
            );
            for (c, (a, b)) in old.chunks().iter().zip(new.chunks()).enumerate() {
                let unmoved = world.calendar.chunks[s][c] <= since;
                assert_eq!(Arc::ptr_eq(a, b), unmoved, "calendar shard {s} chunk {c}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Copy-on-publish: random streams of every delta kind over
        /// shards of a little under to a little over two 64-row chunks,
        /// so registrations fill a partial last chunk and open new ones.
        /// After every delta the new snapshot equals a flat rebuild,
        /// every earlier snapshot still equals the flat copy taken when
        /// it was published, and only the touched chunks were rebuilt.
        #[test]
        fn copy_on_publish_matches_flat_rebuilds_and_shares_unmoved_chunks(
            shards in 3usize..=4,
            extra in 0usize..6,
            ops in proptest::collection::vec(
                (0u8..8, 0usize..1 << 16, 0usize..1 << 16, 1u64..=40, proptest::bool::ANY),
                1..40,
            ),
        ) {
            const HORIZON: usize = 12;
            let people = shards * 2 * CHUNK_ROWS - 3 + extra;
            let mut world = World::new(HORIZON, shards);
            for i in 0..people {
                add(&mut world, &format!("p{i}"));
            }
            let tie = |v: usize, n: usize| (v * 7 + 3) % n;
            for v in 0..people {
                let u = tie(v, people);
                if u != v {
                    let (a, b) = (NodeId(v as u32), NodeId(u as u32));
                    world.apply(&WorldDelta::Connect { a, b, distance: 1 + (v % 9) as u64 }).unwrap();
                }
            }
            let mut prev = world.snapshot(None);
            let mut published = vec![(prev.clone(), flat(&world))];
            for (kind, x, y, distance, available) in ops {
                let n = world.network().person_count();
                let (a, b) = (NodeId((x % n) as u32), NodeId((y % n) as u32));
                let (lo, hi) = ((x % HORIZON).min(y % HORIZON), (x % HORIZON).max(y % HORIZON));
                let delta = match kind {
                    0 => WorldDelta::AddPerson { label: format!("n{n}") },
                    1 | 2 => WorldDelta::Connect { a, b, distance },
                    3 => WorldDelta::Disconnect { a, b: NodeId(tie(a.index(), people) as u32) },
                    4 => WorldDelta::RemovePerson { person: a },
                    5 => WorldDelta::SetSlot { person: a, slot: y % HORIZON, available },
                    6 => WorldDelta::SetRange { person: a, range: SlotRange::new(lo, hi), available },
                    _ => WorldDelta::SetCalendar {
                        person: a,
                        calendar: Calendar::from_slots(HORIZON, (lo..=hi).step_by(2)),
                    },
                };
                // Refusals (self-ties, removed people) are part of the
                // stream: they must leave every stamp where it was.
                let _ = world.apply(&delta);
                let next = world.snapshot(Some(&prev));
                assert_same_world(&next, &flat(&world));
                assert_shares_unmoved_chunks(&world, &prev, &next);
                published.push((next.clone(), flat(&world)));
                for (snap, copy) in &published {
                    assert_same_world(snap, copy);
                }
                prev = next;
            }
        }
    }

    /// A replica restored to an older state than the snapshot it last
    /// published must not borrow that snapshot's newer chunks, even
    /// though its flooded stamps are below the newer shard stamps.
    #[test]
    fn a_snapshot_from_a_newer_world_lends_no_chunks() {
        let mut writer = Writer::new(4, 2);
        for i in 0..3 * CHUNK_ROWS {
            writer.add_person(format!("p{i}"));
        }
        let older = writer.world_state();
        writer.connect(NodeId(0), NodeId(2), 5).unwrap();
        writer.set_availability(NodeId(2), 1, true).unwrap();
        let newer = writer.world().snapshot(None);
        let restored = World::restore(&older, 2).unwrap();
        let snap = restored.snapshot(Some(&newer));
        assert_same_world(&snap, &flat(&restored));
        assert!(!Arc::ptr_eq(
            &snap.graph_segment(0).chunks()[1],
            &newer.graph_segment(0).chunks()[1]
        ));
    }

    #[test]
    fn the_delta_feed_replays_into_an_identical_world() {
        let mut writer = Writer::new(12, 4);
        let ids: Vec<NodeId> = (0..5).map(|i| writer.add_person(format!("p{i}"))).collect();
        writer
            .apply(WorldDelta::Connect {
                a: ids[0],
                b: ids[1],
                distance: 2,
            })
            .unwrap();
        writer
            .apply(WorldDelta::Connect {
                a: ids[0],
                b: ids[3],
                distance: 8,
            })
            .unwrap();
        assert!(!writer
            .apply(WorldDelta::Disconnect {
                a: ids[2],
                b: ids[4]
            })
            .unwrap());
        writer
            .apply(WorldDelta::Disconnect {
                a: ids[0],
                b: ids[3],
            })
            .unwrap();
        writer
            .apply(WorldDelta::SetSlot {
                person: ids[4],
                slot: 1,
                available: true,
            })
            .unwrap();

        // A replica attaching from scratch: replay every delta and land
        // on every record's stamps.
        let records = writer.deltas_since(0).expect("fresh log holds everything");
        assert_eq!(
            records.len() as u64,
            writer.delta_seq(),
            "no-ops unrecorded"
        );
        let mut replica = World::new(12, 4);
        for r in &records {
            assert!(replica.apply(&r.delta).unwrap());
            assert_eq!(replica.versions(), (r.graph_version, r.calendar_version));
        }
        assert_eq!(replica.state(writer.delta_seq()), writer.world_state());
        assert_eq!(stamps(&replica), stamps(writer.world()));

        // A full sync restores the same world and the same epoch.
        let restored = World::restore(&writer.world_state(), 4).unwrap();
        assert_eq!(restored.state(writer.delta_seq()), writer.world_state());
    }

    /// A restored state can carry counters at `u64::MAX`: a delta that
    /// would advance one is a typed refusal that leaves the world and
    /// the log untouched, while deltas on the other axis still apply.
    #[test]
    fn exhausted_counters_refuse_deltas_instead_of_overflowing() {
        let mut writer = Writer::new(4, 2);
        let a = writer.add_person("a");
        let b = writer.add_person("b");
        let slot = WorldDelta::SetSlot {
            person: a,
            slot: 0,
            available: true,
        };

        let mut state = writer.world_state();
        state.calendar_version = u64::MAX;
        let mut restored = Writer::restore(&state, 2).unwrap();
        assert_eq!(
            restored.apply(slot.clone()),
            Err(ServiceError::CounterExhausted {
                counter: "calendar version"
            })
        );
        assert_eq!(restored.world_state(), state, "nothing changed");
        assert_eq!(restored.deltas_since(state.seq), Some(Vec::new()));
        // The graph axis has room, so a tie still goes through.
        assert_eq!(
            restored.apply(WorldDelta::Connect { a, b, distance: 1 }),
            Ok(true)
        );
        // A person moves both axes, so the exhausted one refuses it.
        let people = restored.world().network().labels().len();
        assert!(restored
            .apply(WorldDelta::AddPerson { label: "c".into() })
            .is_err());
        assert_eq!(restored.world().network().labels().len(), people);

        let mut state = writer.world_state();
        state.seq = u64::MAX;
        let mut restored = Writer::restore(&state, 2).unwrap();
        assert_eq!(
            restored.apply(slot),
            Err(ServiceError::CounterExhausted {
                counter: "delta sequence"
            })
        );
        assert_eq!(restored.world_state(), state, "nothing changed");
    }

    #[test]
    fn shrinking_the_delta_log_creates_gaps() {
        let mut writer = Writer::new(4, 1);
        for i in 0..5 {
            writer.add_person(format!("p{i}"));
        }
        let seq = writer.delta_seq();
        writer.set_delta_log_capacity(2);
        assert_eq!(writer.deltas_since(0), None, "evicted history is a gap");
        assert!(
            writer.deltas_since(seq - 1).is_some(),
            "recent tail survives"
        );
        // New mutations keep flowing with continuous sequence numbers.
        writer
            .apply(WorldDelta::SetSlot {
                person: NodeId(0),
                slot: 0,
                available: true,
            })
            .unwrap();
        assert_eq!(writer.delta_seq(), seq + 1);
    }

    #[test]
    fn a_restored_writer_resumes_the_sequence_after_a_gap() {
        let mut writer = Writer::new(4, 2);
        writer.add_person("a");
        writer.add_person("b");
        let mut state = writer.world_state();
        state.graph_version += 10;
        let mut promoted = Writer::restore(&state, 2).unwrap();
        assert_eq!(promoted.delta_seq(), 2);
        assert_eq!(promoted.deltas_since(1), None, "history before promotion");
        promoted.add_person("c");
        let records = promoted.deltas_since(2).unwrap();
        assert_eq!(records[0].seq, 3);
        assert_eq!(records[0].graph_version, state.graph_version + 1);
    }
}
