//! One serving node: a replica [`World`] plus a full
//! [`Executor`](stgq_exec::Executor).
//!
//! A node never mutates the world on its own — it *replays* the writer's
//! replication payloads into its own [`World`], the same type behind the
//! writer, through the same [`World::apply`] / [`World::restore`] that
//! validate every person and every state vector. After each replayed
//! record the node checks that its world landed on the record's version
//! stamps; a refused delta, a refused state or a stamp mismatch replies
//! [`NodeReply::Failed`], publishes nothing and drops the node to
//! unattached, so the writer's next round repairs it with a full sync.
//! The executor's snapshot is the world's
//! [`snapshot`](World::snapshot), hence stamped with the **writer's**
//! versions. Everything the single-process executor does per node —
//! shard-partitioned feasible-graph cache, result cache, worker pool,
//! epoch-swapped snapshots — works unchanged; the cluster layer only
//! decides *which* node answers *which* initiator shard.

use std::sync::Arc;

use parking_lot::Mutex;
use stgq_exec::{ExecConfig, Executor, PlanRequest};
use stgq_service::{DeltaRecord, World, WorldState};

use crate::message::{
    Epoch, NodeMsg, NodeObs, NodeReply, NodeStatus, ReplicationPayload, WireRequest,
};

/// The replica world behind one node's executor, with its replication
/// position.
struct Replica {
    world: World,
    /// Last delta sequence applied (0 before first attach).
    seq: u64,
    /// Whether the world tracks the writer: set by a full sync, cleared
    /// by any failed replay. Until then every delta payload is refused
    /// as [`NodeReply::Stale`].
    attached: bool,
    full_syncs: u64,
    delta_batches: u64,
}

impl Replica {
    fn new(shards: usize) -> Self {
        Replica {
            world: World::new(0, shards),
            seq: 0,
            attached: false,
            full_syncs: 0,
            delta_batches: 0,
        }
    }

    fn epoch(&self) -> Epoch {
        let (graph, calendar) = self.world.versions();
        Epoch::new(graph, calendar)
    }

    /// Replay one record: it must follow the last applied sequence,
    /// apply cleanly, and leave the world on the record's stamps.
    fn replay(&mut self, record: &DeltaRecord) -> Result<(), String> {
        if self.seq.checked_add(1) != Some(record.seq) {
            return Err(format!(
                "delta {} does not follow sequence {}",
                record.seq, self.seq
            ));
        }
        self.world
            .apply(&record.delta)
            .map_err(|e| format!("delta {} failed to apply: {e}", record.seq))?;
        let stamped = (record.graph_version, record.calendar_version);
        if self.world.versions() != stamped {
            return Err(format!(
                "delta {} is stamped {stamped:?} but replays to {:?}",
                record.seq,
                self.world.versions()
            ));
        }
        self.seq = record.seq;
        Ok(())
    }
}

/// One cluster serving node. See the module docs.
pub struct ClusterNode {
    id: usize,
    exec: Executor,
    replica: Mutex<Replica>,
}

impl ClusterNode {
    /// A fresh, unattached node. It refuses queries
    /// ([`stgq_exec::ExecError::NoSnapshot`]) until its first full sync.
    pub fn new(id: usize, cfg: ExecConfig) -> Self {
        let exec = Executor::new(cfg);
        ClusterNode {
            id,
            replica: Mutex::new(Replica::new(exec.shards())),
            exec,
        }
    }

    /// This node's index in the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's executor (metrics, direct inspection).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Dispatch one protocol message. This is the entire server side of
    /// the cluster protocol — a network transport would deserialize into
    /// [`NodeMsg`] and call exactly this.
    pub fn handle(&self, msg: NodeMsg) -> NodeReply {
        match msg {
            NodeMsg::Replicate(payload) => self.apply_replication(payload),
            NodeMsg::Execute(requests) => self.execute(requests),
            NodeMsg::Status => NodeReply::Status(self.status()),
            NodeMsg::Metrics => NodeReply::Metrics(self.observability()),
            NodeMsg::Export => NodeReply::State(self.export_state()),
        }
    }

    /// Capture the node's replica world — the failover donor path: a
    /// promoted writer is restored from exactly this state. The capture
    /// is [`World::state`], the same one the writer ships, so a replica
    /// that replayed the full log exports a bit-identical state.
    pub fn export_state(&self) -> WorldState {
        let replica = self.replica.lock();
        replica.world.state(replica.seq)
    }

    /// Forget everything: fresh unattached world, no published snapshot.
    /// Models a crash-and-restart — the "rebooted" node refuses queries
    /// (`NoSnapshot`) and deltas (`Stale`) until its next full sync, just
    /// like a freshly provisioned node.
    pub fn reset(&self) {
        *self.replica.lock() = Replica::new(self.exec.shards());
        self.exec.clear_snapshot();
    }

    /// The node's current status snapshot.
    pub fn status(&self) -> NodeStatus {
        let replica = self.replica.lock();
        let m = self.exec.metrics();
        NodeStatus {
            seq: replica.seq,
            epoch: replica.epoch(),
            attached: replica.attached,
            full_syncs: replica.full_syncs,
            delta_batches: replica.delta_batches,
            queries: m.queries,
            result_cache_hits: m.result_cache_hits,
        }
    }

    /// The node's deep observability report: status plus its executor's
    /// named latency histograms — what crosses the wire for
    /// [`NodeMsg::Metrics`].
    pub fn observability(&self) -> NodeObs {
        NodeObs {
            status: self.status(),
            histograms: self
                .exec
                .obs()
                .histograms()
                .into_iter()
                .map(|(name, snap)| (name.to_string(), snap))
                .collect(),
        }
    }

    fn apply_replication(&self, payload: ReplicationPayload) -> NodeReply {
        let mut replica = self.replica.lock();
        match payload {
            ReplicationPayload::Full(state) => {
                replica.world = match World::restore(&state, self.exec.shards()) {
                    Ok(world) => world,
                    Err(e) => {
                        replica.attached = false;
                        return NodeReply::Failed {
                            reason: format!("full sync failed to restore: {e}"),
                        };
                    }
                };
                replica.seq = state.seq;
                replica.attached = true;
                replica.full_syncs += 1;
                self.publish(&replica.world);
            }
            ReplicationPayload::Deltas { from_seq, records } => {
                if !replica.attached || from_seq != replica.seq {
                    // Out-of-order or never-attached: applying would skip
                    // history. The writer falls back to a full sync.
                    return NodeReply::Stale {
                        have_seq: replica.seq,
                    };
                }
                let before = replica.world.versions();
                for record in &records {
                    if let Err(reason) = replica.replay(record) {
                        // The world no longer tracks the writer: serve the
                        // last published epoch until a full sync repairs it.
                        replica.attached = false;
                        return NodeReply::Failed { reason };
                    }
                }
                if replica.world.versions() != before {
                    replica.delta_batches += 1;
                    self.publish(&replica.world);
                }
            }
        }
        NodeReply::Ack {
            seq: replica.seq,
            epoch: replica.epoch(),
        }
    }

    /// Epoch-swap the executor's snapshot to `world`'s, re-freezing only
    /// the shards whose stamps moved since the published one.
    fn publish(&self, world: &World) {
        let prev = self.exec.snapshot();
        self.exec
            .publish_snapshot(Arc::new(world.snapshot(prev.as_deref())));
    }

    fn execute(&self, requests: Vec<WireRequest>) -> NodeReply {
        let requests: Vec<PlanRequest> = requests
            .into_iter()
            .map(|r| {
                let mut request = PlanRequest::new(r.initiator, r.spec, r.engine);
                if let Some(min) = r.min_epoch {
                    request = request.with_min_epoch(min.graph, min.calendar);
                }
                request
            })
            .collect();
        NodeReply::Outcomes(self.exec.execute_batch(requests))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stgq_core::{solve_sgq, SelectConfig, SgqQuery};
    use stgq_exec::{Engine, ExecError, QuerySpec};
    use stgq_graph::NodeId;
    use stgq_schedule::{Calendar, SlotRange};
    use stgq_service::{Planner, ServiceError, WorldDelta, Writer};

    use crate::{Cluster, ClusterConfig, FailoverError};

    fn writer() -> Writer {
        let mut w = Writer::new(8, 16);
        let ids: Vec<NodeId> = (0..4).map(|i| w.add_person(format!("p{i}"))).collect();
        for (a, b, distance) in [(0, 1, 2), (0, 2, 3), (1, 2, 1)] {
            w.apply(WorldDelta::Connect {
                a: ids[a],
                b: ids[b],
                distance,
            })
            .unwrap();
        }
        for &person in &ids {
            w.apply(WorldDelta::SetRange {
                person,
                range: SlotRange::new(0, 7),
                available: true,
            })
            .unwrap();
        }
        w
    }

    fn exec_cfg() -> ExecConfig {
        ExecConfig {
            workers: 1,
            ..ExecConfig::default()
        }
    }

    /// The node's exact SGQ answer for person 0 (p = 3, s = 1, k = 0).
    fn ask(node: &ClusterNode) -> Option<u64> {
        let NodeReply::Outcomes(mut outcomes) = node.handle(NodeMsg::Execute(vec![WireRequest {
            initiator: NodeId(0),
            spec: QuerySpec::Sgq(SgqQuery::new(3, 1, 0).unwrap()),
            engine: Engine::Exact,
            min_epoch: None,
        }])) else {
            panic!("execute must reply with outcomes");
        };
        outcomes.remove(0).unwrap().outcome.objective()
    }

    /// A node attached to `w` by a full sync.
    fn attached(w: &Writer) -> ClusterNode {
        let node = ClusterNode::new(0, exec_cfg());
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Full(
            w.world_state(),
        )));
        assert!(matches!(reply, NodeReply::Ack { .. }), "{reply:?}");
        node
    }

    #[test]
    fn unattached_node_refuses_queries_and_deltas() {
        let node = ClusterNode::new(0, exec_cfg());
        let sgq = SgqQuery::new(2, 1, 1).unwrap();
        let NodeReply::Outcomes(outcomes) = node.handle(NodeMsg::Execute(vec![WireRequest {
            initiator: NodeId(0),
            spec: QuerySpec::Sgq(sgq),
            engine: Engine::Exact,
            min_epoch: None,
        }])) else {
            panic!("execute must reply with outcomes");
        };
        assert_eq!(outcomes, vec![Err(ExecError::NoSnapshot)]);

        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Deltas {
            from_seq: 0,
            records: Vec::new(),
        }));
        assert_eq!(reply, NodeReply::Stale { have_seq: 0 });
    }

    #[test]
    fn full_sync_then_deltas_track_the_writer() {
        let mut w = writer();
        let node = ClusterNode::new(0, exec_cfg());

        // Attach: full sync.
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Full(
            w.world_state(),
        )));
        let NodeReply::Ack { seq, epoch } = reply else {
            panic!("full sync must ack, got {reply:?}");
        };
        assert_eq!(seq, w.delta_seq());
        let (graph, calendar) = w.world().versions();
        assert_eq!(epoch, Epoch::new(graph, calendar));
        assert!(node.status().attached);
        assert_eq!(node.status().full_syncs, 1);

        // The node answers queries now.
        assert_eq!(ask(&node), Some(5));

        // Writer mutates; catch up via deltas only.
        let have = w.delta_seq();
        for a in [0, 1] {
            w.apply(WorldDelta::Connect {
                a: NodeId(a),
                b: NodeId(3),
                distance: 1,
            })
            .unwrap();
        }
        let records = w.deltas_since(have).unwrap();
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Deltas {
            from_seq: have,
            records,
        }));
        let NodeReply::Ack { seq, epoch } = reply else {
            panic!("delta batch must ack, got {reply:?}");
        };
        assert_eq!(seq, w.delta_seq());
        assert_eq!(epoch.graph, w.world().versions().0);
        assert_eq!(node.status().delta_batches, 1);
        assert_eq!(node.status().full_syncs, 1, "no extra full sync");
        assert_eq!(ask(&node), Some(3), "new epoch, new answer");
        assert_eq!(node.export_state(), w.world_state());

        // Mis-spliced deltas are refused.
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Deltas {
            from_seq: 1,
            records: Vec::new(),
        }));
        assert_eq!(
            reply,
            NodeReply::Stale {
                have_seq: w.delta_seq()
            }
        );
    }

    /// A peer-supplied delta naming a person the replica never registered
    /// is a typed refusal, not an out-of-range index: the node replies
    /// `Failed`, drops to unattached and keeps serving its last epoch.
    #[test]
    fn a_delta_naming_an_unknown_person_is_refused_not_a_panic() {
        let w = writer();
        let node = attached(&w);
        let epoch = node.executor().snapshot_versions();
        let (graph, calendar) = w.world().versions();
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Deltas {
            from_seq: w.delta_seq(),
            records: vec![DeltaRecord {
                seq: w.delta_seq() + 1,
                graph_version: graph,
                calendar_version: calendar + 1,
                delta: WorldDelta::SetSlot {
                    person: NodeId(99),
                    slot: 0,
                    available: true,
                },
            }],
        }));
        let NodeReply::Failed { reason } = reply else {
            panic!("an unknown person must be refused, got {reply:?}");
        };
        assert!(reason.contains("unknown person"), "{reason}");
        assert_eq!(
            node.executor().snapshot_versions(),
            epoch,
            "nothing published"
        );
        assert!(
            !node.status().attached,
            "the next round repairs by full sync"
        );
        assert_eq!(ask(&node), Some(5), "still serving the last epoch");
    }

    /// A full-sync state listing more calendars than people is a typed
    /// refusal; the node keeps its previous world and epoch.
    #[test]
    fn a_full_sync_with_more_calendars_than_people_is_refused() {
        let w = writer();
        let node = attached(&w);
        let epoch = node.executor().snapshot_versions();
        let mut state = w.world_state();
        state.calendars.push(Calendar::new(8));
        state.graph_version += 1;
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Full(state)));
        let NodeReply::Failed { reason } = reply else {
            panic!("an inconsistent state must be refused, got {reply:?}");
        };
        assert!(reason.contains("5 calendars"), "{reason}");
        assert_eq!(
            node.executor().snapshot_versions(),
            epoch,
            "nothing published"
        );
        assert_eq!(node.export_state(), w.world_state(), "world untouched");
        assert_eq!(ask(&node), Some(5));
    }

    /// A record whose stamps the replica's replay does not reproduce is
    /// refused before anything is published, and the cluster's next
    /// replication round repairs the node with exactly one full sync.
    #[test]
    fn a_record_whose_stamps_disagree_is_refused_and_repaired_by_a_full_sync() {
        let shards = 4;
        let mut cluster = Cluster::new(
            8,
            ClusterConfig {
                nodes: 1,
                shards,
                node_exec: ExecConfig {
                    shards,
                    ..exec_cfg()
                },
                ..ClusterConfig::default()
            },
        );
        let ids: Vec<NodeId> = (0..4)
            .map(|i| cluster.add_person(format!("p{i}")))
            .collect();
        cluster.connect(ids[0], ids[1], 2).unwrap();
        cluster.connect(ids[0], ids[2], 3).unwrap();
        cluster.connect(ids[1], ids[2], 1).unwrap();
        assert!(cluster.replicate().iter().all(|(_, r)| r.is_ok()));
        let node = Arc::clone(&cluster.nodes()[0]);
        let published = node.executor().snapshot_versions();
        let full_syncs = cluster.metrics().full_syncs;

        let have = node.status().seq;
        cluster.connect(ids[0], ids[3], 1).unwrap();
        cluster.connect(ids[1], ids[3], 1).unwrap();
        let mut records = cluster.writer().deltas_since(have).unwrap();
        records[0].graph_version = 999;
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Deltas {
            from_seq: have,
            records,
        }));
        let NodeReply::Failed { reason } = reply else {
            panic!("a mis-stamped record must be refused, got {reply:?}");
        };
        assert!(reason.contains("999"), "{reason}");
        assert_eq!(node.executor().snapshot_versions(), published);
        assert!(!node.status().attached);

        assert!(cluster.replicate().iter().all(|(_, r)| r.is_ok()));
        assert_eq!(cluster.metrics().full_syncs, full_syncs + 1);
        assert_eq!(node.export_state(), cluster.writer().world_state());
        let (graph, calendar) = cluster.writer().world().versions();
        assert_eq!(node.executor().snapshot_versions(), Some((graph, calendar)));
        let oracle = solve_sgq(
            &cluster.writer().world().network().snapshot(),
            ids[0],
            &SgqQuery::new(3, 1, 0).unwrap(),
            &SelectConfig::default(),
        )
        .unwrap()
        .solution
        .map(|s| s.total_distance);
        assert_eq!(ask(&node), oracle);
        assert_eq!(oracle, Some(3));
    }

    /// A replicated calendar whose packed words break the calendar
    /// invariant — too few words for its horizon, or a bit set past it —
    /// fails to decode, so the TCP server answers the frame `Failed` and
    /// the world never holds a calendar that a later slot write would
    /// index past. The well-formed frame still decodes and applies.
    #[test]
    fn a_malformed_calendar_on_the_wire_is_a_decode_error_not_a_panic() {
        let w = writer();
        let node = attached(&w);
        let (graph, calendar) = w.world().versions();
        let frame = NodeMsg::Replicate(ReplicationPayload::Deltas {
            from_seq: w.delta_seq(),
            records: vec![DeltaRecord {
                seq: w.delta_seq() + 1,
                graph_version: graph,
                calendar_version: calendar + 1,
                delta: WorldDelta::SetCalendar {
                    person: NodeId(1),
                    calendar: Calendar::from_slots(8, [0, 7]),
                },
            }],
        });
        let json = serde_json::to_string(&frame).unwrap();
        let packed = r#"{"words":[129],"horizon":8}"#;
        assert!(json.contains(packed), "{json}");
        for hostile in [
            r#"{"words":[],"horizon":8}"#,
            r#"{"words":[385],"horizon":8}"#,
        ] {
            let decoded = serde_json::from_str::<NodeMsg>(&json.replace(packed, hostile));
            assert!(decoded.is_err(), "{hostile} must not decode");
        }
        assert_eq!(ask(&node), Some(5), "still serving");

        let decoded = serde_json::from_str::<NodeMsg>(&json).unwrap();
        assert!(matches!(node.handle(decoded), NodeReply::Ack { .. }));
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Deltas {
            from_seq: w.delta_seq() + 1,
            records: vec![DeltaRecord {
                seq: w.delta_seq() + 2,
                graph_version: graph,
                calendar_version: calendar + 2,
                delta: WorldDelta::SetSlot {
                    person: NodeId(1),
                    slot: 3,
                    available: true,
                },
            }],
        }));
        assert!(matches!(reply, NodeReply::Ack { .. }), "{reply:?}");
    }

    /// A full sync at `calendar_version = u64::MAX` followed by one
    /// calendar delta: the replay cannot advance the version, so the
    /// node replies `Failed` (not an overflow panic, and not the wrapped
    /// stamp 0 matching a record that claims it) and keeps serving the
    /// synced epoch.
    #[test]
    fn a_calendar_delta_past_the_maximum_version_is_refused_not_a_panic() {
        let w = writer();
        let node = ClusterNode::new(0, exec_cfg());
        let mut state = w.world_state();
        state.calendar_version = u64::MAX;
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Full(state.clone())));
        assert!(matches!(reply, NodeReply::Ack { .. }), "{reply:?}");
        let epoch = node.executor().snapshot_versions();
        let reply = node.handle(NodeMsg::Replicate(ReplicationPayload::Deltas {
            from_seq: state.seq,
            records: vec![DeltaRecord {
                seq: state.seq + 1,
                graph_version: state.graph_version,
                calendar_version: 0,
                delta: WorldDelta::SetSlot {
                    person: NodeId(0),
                    slot: 0,
                    available: false,
                },
            }],
        }));
        let NodeReply::Failed { reason } = reply else {
            panic!("an exhausted version must be refused, got {reply:?}");
        };
        assert!(reason.contains("calendar version"), "{reason}");
        assert_eq!(node.executor().snapshot_versions(), epoch);
        assert_eq!(node.export_state(), state, "world untouched");
        assert_eq!(ask(&node), Some(5));
    }

    /// Promoting a replica whose calendar version is `u64::MAX` cannot
    /// bump the version past it: failover is a typed refusal and the
    /// old writer stays in place.
    #[test]
    fn a_failover_past_the_maximum_version_is_refused_not_a_panic() {
        let mut cluster = Cluster::new(
            8,
            ClusterConfig {
                nodes: 1,
                node_exec: exec_cfg(),
                ..ClusterConfig::default()
            },
        );
        let a = cluster.add_person("a");
        let b = cluster.add_person("b");
        cluster.connect(a, b, 1).unwrap();
        assert!(cluster.replicate().iter().all(|(_, r)| r.is_ok()));
        let mut state = cluster.writer().world_state();
        state.calendar_version = u64::MAX;
        let reply = cluster.nodes()[0].handle(NodeMsg::Replicate(ReplicationPayload::Full(state)));
        assert!(matches!(reply, NodeReply::Ack { .. }), "{reply:?}");

        let before = cluster.writer().world_state();
        assert_eq!(
            cluster.fail_over(),
            Err(FailoverError::Restore(ServiceError::CounterExhausted {
                counter: "calendar version"
            }))
        );
        assert_eq!(cluster.writer().world_state(), before, "writer kept");
    }

    /// One random mutation, drawn from small ids so that refusals
    /// (unknown or removed people, self ties), no-op disconnects and
    /// tombstones all occur.
    fn delta((kind, a, b, w, slot): (u8, u32, u32, u64, usize)) -> WorldDelta {
        let (person, other, flag) = (NodeId(a), NodeId(b), w % 2 == 0);
        match kind {
            0 => WorldDelta::AddPerson {
                label: format!("n{a}"),
            },
            1 | 2 => WorldDelta::Connect {
                a: person,
                b: other,
                distance: w,
            },
            3 => WorldDelta::Disconnect {
                a: person,
                b: other,
            },
            // Person 0 stays: it is the probe query's initiator.
            4 => WorldDelta::RemovePerson {
                person: NodeId(a.max(1)),
            },
            5 => WorldDelta::SetSlot {
                person,
                slot,
                available: flag,
            },
            6 => WorldDelta::SetRange {
                person,
                range: SlotRange::new(slot.min(b as usize), slot.max(b as usize)),
                available: flag,
            },
            _ => WorldDelta::SetCalendar {
                person,
                calendar: Calendar::from_slots(8, [slot]),
            },
        }
    }

    /// `delta` through the planner's public mutation surface.
    fn drive(p: &mut Planner, delta: WorldDelta) {
        let _ = match delta {
            WorldDelta::AddPerson { label } => {
                p.add_person(label);
                Ok(())
            }
            WorldDelta::Connect { a, b, distance } => p.connect(a, b, distance),
            WorldDelta::Disconnect { a, b } => p.disconnect(a, b).map(|_| ()),
            WorldDelta::RemovePerson { person } => p.remove_person(person),
            WorldDelta::SetSlot {
                person,
                slot,
                available,
            } => p.set_availability(person, slot, available),
            WorldDelta::SetRange {
                person,
                range,
                available,
            } => p.set_availability_range(person, range, available),
            WorldDelta::SetCalendar { person, calendar } => p.set_calendar(person, calendar),
        };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Writer–replica identity: a 4-shard planner and a 4-shard node
        /// fed by `deltas_since` (with one full sync midway) hold the same
        /// world, publish the same epoch and answer alike after every
        /// step. Until the full sync every per-shard stamp matches too;
        /// a full sync floods the replica's stamps to the carried
        /// versions, after which no replica stamp is ever behind the
        /// writer's (equal stamps still mean equal shards).
        #[test]
        fn writer_and_replica_worlds_stay_identical(
            ops in proptest::collection::vec(
                (0u8..8, 0u32..8, 0u32..8, 1u64..6, 0usize..8),
                1..24,
            ),
            sync_at in 0usize..24,
        ) {
            let cfg = ExecConfig { workers: 1, shards: 4, ..ExecConfig::default() };
            let mut p = Planner::with_exec_config(8, cfg);
            // Attach to the empty world, whose stamps are all zero on
            // both sides, then grow it through deltas.
            let node = ClusterNode::new(0, cfg);
            node.handle(NodeMsg::Replicate(ReplicationPayload::Full(p.writer().world_state())));
            for i in 0..5 {
                p.add_person(format!("p{i}"));
            }
            let query = SgqQuery::new(2, 1, 1).unwrap();
            let mut flooded = false;
            for (step, op) in ops.into_iter().enumerate() {
                drive(&mut p, delta(op));
                let payload = if step == sync_at {
                    flooded = true;
                    ReplicationPayload::Full(p.writer().world_state())
                } else {
                    let have = node.status().seq;
                    ReplicationPayload::Deltas {
                        from_seq: have,
                        records: p.writer().deltas_since(have).unwrap(),
                    }
                };
                let reply = node.handle(NodeMsg::Replicate(payload));
                prop_assert!(matches!(reply, NodeReply::Ack { .. }), "{reply:?}");
                prop_assert_eq!(node.export_state(), p.writer().world_state());

                let served = p.plan_sgq(NodeId(0), &query, Engine::Exact).unwrap();
                let NodeReply::Outcomes(mut outcomes) = node.handle(NodeMsg::Execute(vec![WireRequest {
                    initiator: NodeId(0),
                    spec: QuerySpec::Sgq(query),
                    engine: Engine::Exact,
                    min_epoch: None,
                }])) else {
                    panic!("execute must reply with outcomes");
                };
                prop_assert_eq!(
                    outcomes.remove(0).unwrap().outcome.objective(),
                    served.solution.map(|s| s.total_distance)
                );

                let ws = p.executor().snapshot().unwrap();
                let ns = node.executor().snapshot().unwrap();
                prop_assert_eq!(ws.versions(), ns.versions());
                for (w, n) in [
                    (ws.graph_shard_versions(), ns.graph_shard_versions()),
                    (ws.calendar_shard_versions(), ns.calendar_shard_versions()),
                ] {
                    if flooded {
                        prop_assert!(w.iter().zip(n).all(|(w, n)| n >= w), "{w:?} vs {n:?}");
                    } else {
                        prop_assert_eq!(w, n);
                    }
                }
            }
        }
    }
}
