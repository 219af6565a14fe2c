//! Integration tests for the `stgq-cluster` subsystem: determinism of
//! shard-routed multi-node serving, replication fault paths, and
//! read-your-writes epoch gating.
//!
//! * **Cluster determinism** — a mixed SGQ/STGQ batch scattered over
//!   1/2/4 in-process nodes yields bit-identical objectives *and groups*
//!   to a single executor (through the single-planner oracle), on the
//!   coarse-distance scenario where equal-distance ties would expose
//!   ordering bugs.
//! * **Replica catch-up** — a replica cut off from replication misses
//!   deltas beyond the writer's log retention; once healed it recovers
//!   through a **full sync** (gap detection) and serves the same answers.
//! * **Routing rejection** — with read-your-writes on, a lagging
//!   replica's entries fail with `EpochTooOld` instead of serving stale
//!   answers; healthy nodes' entries in the same batch still succeed.
//! * **Drain** — removing a node reassigns its shards and the cluster
//!   keeps answering identically.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use stgq::cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterNode, FaultInjector, InProcessTransport, NodeMsg,
    NodeReply, Suspicion, TcpNodeServer, TcpTransport, Transport, TransportError, WireCodec,
};
use stgq::datagen::scenario::coarse_distance_analog;
use stgq::datagen::Dataset;
use stgq::exec::{ExecConfig, ExecError, QuerySpec};
use stgq::graph::NodeId;
use stgq::prelude::*;
use stgq::service::{BatchQuery, Engine};
use stgq_bench::cluster::{cluster_from_dataset, cluster_objectives};
use stgq_bench::serving::{planner_from_dataset, sequential_objectives};

/// A mixed workload: SGQ and STGQ, several initiators, hot repeats.
fn mixed_batch(ds: &Dataset) -> Vec<BatchQuery> {
    let sgq = SgqQuery::new(4, 2, 2).unwrap();
    let stgq = StgqQuery::new(4, 2, 2, 4).unwrap();
    let n = ds.graph.node_count() as u32;
    let mut batch = Vec::new();
    for i in 0..16u32 {
        let initiator = NodeId((i * 17) % n);
        batch.push(BatchQuery {
            initiator,
            spec: QuerySpec::Sgq(sgq),
            engine: Engine::Exact,
        });
        batch.push(BatchQuery {
            initiator,
            spec: QuerySpec::Stgq(stgq),
            engine: Engine::Exact,
        });
    }
    batch
}

#[test]
fn cluster_matches_single_executor_across_node_counts() {
    let ds = coarse_distance_analog(1, 42, 3);
    let batch = mixed_batch(&ds);

    // Oracle: the single-process planner (one executor).
    let planner = planner_from_dataset(&ds, 1);
    let expected = sequential_objectives(&planner, &batch);
    assert!(
        expected.iter().filter(|o| o.is_some()).count() >= 8,
        "workload must be mostly feasible to be a meaningful oracle"
    );
    let expected_groups: Vec<Option<Vec<NodeId>>> = batch
        .iter()
        .map(|q| match q.spec {
            QuerySpec::Sgq(query) => planner
                .plan_sgq(q.initiator, &query, q.engine)
                .unwrap()
                .solution
                .map(|s| s.members),
            QuerySpec::Stgq(query) => planner
                .plan_stgq(q.initiator, &query, q.engine)
                .unwrap()
                .solution
                .map(|s| s.members),
        })
        .collect();

    for nodes in [1usize, 2, 4] {
        let cluster = cluster_from_dataset(&ds, nodes, 1);
        let replies = cluster.plan_batch(&batch);
        let objectives: Vec<Option<u64>> = replies
            .iter()
            .map(|r| r.as_ref().unwrap().outcome.objective())
            .collect();
        assert_eq!(
            objectives, expected,
            "{nodes}-node cluster must match the single executor bit for bit"
        );
        let groups: Vec<Option<Vec<NodeId>>> = replies
            .iter()
            .map(|r| r.as_ref().unwrap().outcome.members().map(|m| m.to_vec()))
            .collect();
        assert_eq!(groups, expected_groups, "{nodes}-node groups identical");
        // And repeating the batch is stable.
        assert_eq!(cluster_objectives(&cluster, &batch), expected);

        let m = cluster.metrics();
        assert_eq!(m.nodes.len(), nodes);
        assert!(m.full_syncs >= nodes as u64, "every node attached once");
        assert!(
            m.nodes.iter().all(|n| n.seq_lag == 0 && n.graph_lag == 0),
            "after plan_batch every node is caught up"
        );
    }
}

#[test]
fn json_wire_codec_changes_nothing() {
    let ds = coarse_distance_analog(1, 7, 4);
    let batch = mixed_batch(&ds);
    let direct = cluster_from_dataset(&ds, 2, 1);
    let expected = cluster_objectives(&direct, &batch);

    // Same cluster, but every message round-trips through its JSON wire
    // form — the whole protocol is provably network-encodable.
    let cfg = ClusterConfig {
        nodes: 2,
        codec: WireCodec::Json,
        node_exec: ExecConfig {
            workers: 1,
            result_cache_capacity: 0,
            ..ExecConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut json_cluster = Cluster::new(ds.grid.horizon(), cfg);
    for v in 0..ds.graph.node_count() {
        json_cluster.add_person(format!("p{v}"));
    }
    for e in ds.graph.edges() {
        json_cluster.connect(e.a, e.b, e.weight).unwrap();
    }
    for (v, cal) in ds.calendars.iter().enumerate() {
        json_cluster
            .set_calendar(NodeId(v as u32), cal.clone())
            .unwrap();
    }
    assert_eq!(cluster_objectives(&json_cluster, &batch), expected);
}

/// A small hand-built world behind a fault-injecting transport.
fn faulty_cluster(nodes: usize) -> (Cluster, Arc<FaultInjector>, Vec<NodeId>) {
    seeded_faulty_cluster(nodes, 0)
}

/// Same, with the injector's per-node RNG streams derived from `seed` —
/// the handle the chaos tests replay bit-identically.
fn seeded_faulty_cluster(nodes: usize, seed: u64) -> (Cluster, Arc<FaultInjector>, Vec<NodeId>) {
    let mut handle = None;
    let (cluster, ids) = small_cluster(nodes, |inner| {
        let injector = Arc::new(FaultInjector::with_seed(inner, seed));
        handle = Some(Arc::clone(&injector));
        injector
    });
    (cluster, handle.expect("the transport was built"), ids)
}

/// Six people in two communities over `nodes` in-process nodes, reached
/// through the transport `wrap` builds around the in-process one.
fn small_cluster(
    nodes: usize,
    wrap: impl FnOnce(Arc<dyn Transport>) -> Arc<dyn Transport>,
) -> (Cluster, Vec<NodeId>) {
    let cfg = ClusterConfig {
        nodes,
        shards: 8,
        node_exec: ExecConfig {
            workers: 1,
            ..ExecConfig::default()
        },
        ..ClusterConfig::default()
    };
    let node_handles: Vec<Arc<ClusterNode>> = (0..nodes)
        .map(|id| Arc::new(ClusterNode::new(id, cfg.node_exec)))
        .collect();
    let transport = wrap(Arc::new(InProcessTransport::new(node_handles.clone())));
    let mut cluster = Cluster::from_parts(12, cfg, node_handles, transport);

    let ids: Vec<NodeId> = (0..6)
        .map(|i| cluster.add_person(format!("p{i}")))
        .collect();
    cluster.connect(ids[0], ids[1], 2).unwrap();
    cluster.connect(ids[0], ids[2], 3).unwrap();
    cluster.connect(ids[1], ids[2], 1).unwrap();
    cluster.connect(ids[3], ids[4], 2).unwrap();
    for &id in &ids {
        cluster
            .set_availability_range(id, SlotRange::new(2, 9), true)
            .unwrap();
    }
    (cluster, ids)
}

fn everyone_asks(ids: &[NodeId]) -> Vec<BatchQuery> {
    let sgq = SgqQuery::new(3, 1, 0).unwrap();
    ids.iter()
        .map(|&initiator| BatchQuery {
            initiator,
            spec: QuerySpec::Sgq(sgq),
            engine: Engine::Exact,
        })
        .collect()
}

#[test]
fn missed_deltas_beyond_retention_recover_via_full_sync() {
    let (mut cluster, injector, ids) = faulty_cluster(2);
    let batch = everyone_asks(&ids);

    // Round 1: both nodes attach (one full sync each) and answer.
    let healthy: Vec<_> = cluster.plan_batch(&batch);
    assert!(healthy.iter().all(|r| r.is_ok()));
    let status = |cluster: &Cluster, node: usize| cluster.nodes()[node].status();
    assert_eq!(status(&cluster, 0).full_syncs, 1, "attach is a full sync");
    assert_eq!(status(&cluster, 1).full_syncs, 1);

    // Cut node 1 off, then mutate past the log's retention — replicating
    // after each mutation so node 0 keeps up incrementally while node 1
    // accumulates a gap.
    injector.set_drop_replication(1, true);
    cluster.writer_mut().set_delta_log_capacity(2);
    for slot in 0..6 {
        cluster.set_availability(ids[5], slot, true).unwrap();
        let syncs = cluster.replicate();
        assert!(syncs.iter().any(|(node, r)| *node == 1 && r.is_err()));
    }
    assert!(injector.dropped() > 0, "replication to node 1 was dropped");
    assert_eq!(
        status(&cluster, 0).full_syncs,
        1,
        "node 0 caught up via deltas alone"
    );
    assert!(status(&cluster, 0).delta_batches >= 1);
    let m = cluster.metrics();
    let lagging = m.nodes.iter().find(|n| n.node == 1).unwrap();
    assert!(
        lagging.seq_lag > 2,
        "node 1 lags beyond the log's retention"
    );

    // Heal. The writer's next round finds node 1's acked seq evicted
    // from the log (gap) and repairs with a full sync — not by replaying
    // deltas it no longer has.
    injector.set_drop_replication(1, false);
    cluster.replicate();
    assert_eq!(
        status(&cluster, 1).full_syncs,
        2,
        "gap recovery applied as a full sync (attach + repair)"
    );
    let m = cluster.metrics();
    let caught_up = m.nodes.iter().find(|n| n.node == 1).unwrap();
    assert_eq!(caught_up.seq_lag, 0);
    assert!(cluster.plan_batch(&batch).iter().all(|r| r.is_ok()));

    // Small catch-ups inside retention stay incremental on both nodes.
    let node1_deltas = status(&cluster, 1).delta_batches;
    cluster.set_availability(ids[5], 6, true).unwrap();
    cluster.replicate();
    assert_eq!(status(&cluster, 1).delta_batches, node1_deltas + 1);
    assert_eq!(status(&cluster, 1).full_syncs, 2, "no further full sync");
}

#[test]
fn lagging_replica_rejects_read_your_writes_requests() {
    let (mut cluster, injector, ids) = faulty_cluster(2);
    let batch = everyone_asks(&ids);
    assert!(cluster.plan_batch(&batch).iter().all(|r| r.is_ok()));

    // Node 1 stops receiving replication; the writer keeps mutating.
    injector.set_drop_replication(1, true);
    cluster.connect(ids[0], ids[4], 1).unwrap();

    let replies = cluster.plan_batch(&batch);
    let mut rejected = 0;
    let mut served = 0;
    for (query, reply) in batch.iter().zip(&replies) {
        match reply {
            Ok(outcome) => {
                served += 1;
                // Read-your-writes: whoever answered did so at (or past)
                // the writer's epoch.
                assert!(outcome.exact, "{query:?} served exactly");
            }
            Err(ClusterError::Exec(ExecError::EpochTooOld {
                required,
                available,
            })) => {
                rejected += 1;
                assert!(required.0 > available.0, "graph axis is what lags");
            }
            Err(other) => panic!("unexpected failure: {other:?}"),
        }
    }
    assert!(
        rejected > 0,
        "the lagging node must refuse, not serve stale"
    );
    assert!(served > 0, "healthy shards keep serving");

    // Healing clears the rejections.
    injector.set_drop_replication(1, false);
    assert!(cluster.plan_batch(&batch).iter().all(|r| r.is_ok()));
}

#[test]
fn drained_node_hands_its_shards_over() {
    let ds = coarse_distance_analog(1, 11, 3);
    let batch = mixed_batch(&ds);
    let cluster = cluster_from_dataset(&ds, 3, 1);
    let expected = cluster_objectives(&cluster, &batch);

    cluster.drain_node(1).unwrap();
    assert_eq!(cluster.active_nodes(), vec![0, 2]);
    let queries_before = cluster.nodes()[1].executor().metrics().queries;
    assert_eq!(
        cluster_objectives(&cluster, &batch),
        expected,
        "answers identical after drain"
    );
    assert_eq!(
        cluster.nodes()[1].executor().metrics().queries,
        queries_before,
        "a drained node gets no new queries"
    );

    // And it can come back.
    cluster.undrain_node(1).unwrap();
    assert_eq!(cluster_objectives(&cluster, &batch), expected);
    assert_eq!(cluster.active_nodes(), vec![0, 1, 2]);
}

// ---- self-healing ----------------------------------------------------

/// Objectives and groups of one reply set — the bit-identity currency of
/// the self-healing tests.
type Answers = Vec<(Option<u64>, Option<Vec<NodeId>>)>;

fn answers(replies: &[Result<stgq::exec::PlanOutcome, ClusterError>]) -> Answers {
    replies
        .iter()
        .map(|r| {
            let outcome = r.as_ref().expect("entry must be served");
            (
                outcome.outcome.objective(),
                outcome.outcome.members().map(|m| m.to_vec()),
            )
        })
        .collect()
}

#[test]
fn heartbeat_detection_drains_crashed_node_and_recovery_undrains() {
    let (cluster, injector, ids) = faulty_cluster(3);
    let batch = everyone_asks(&ids);
    let expected = answers(&cluster.plan_batch(&batch));

    // Crash node 1: every message to it now fails.
    injector.crash(1);

    // Suspicion accrues one missed heartbeat at a time (default
    // threshold 3) — no premature drain on a single miss.
    let round = |_n: usize| cluster.heartbeat()[1].1;
    assert_eq!(round(1), Suspicion::Accruing { missed: 1 });
    assert_eq!(cluster.active_nodes(), vec![0, 1, 2], "one miss: no drain");
    assert_eq!(round(2), Suspicion::Accruing { missed: 2 });
    assert_eq!(round(3), Suspicion::Suspected, "third miss crosses");
    assert_eq!(
        cluster.active_nodes(),
        vec![0, 2],
        "suspected node auto-drained, zero operator calls"
    );
    let m = cluster.metrics();
    assert_eq!(m.auto_drains, 1);
    assert!(m.heartbeats_missed >= 3);

    // The cluster answers identically without the crashed node.
    assert_eq!(answers(&cluster.plan_batch(&batch)), expected);

    // Restart: the injector reconnects the wires, and the node itself
    // reboots with empty memory (it refuses everything until re-synced).
    injector.restart(1);
    cluster.nodes()[1].reset();
    assert!(!cluster.nodes()[1].status().attached);

    // The next heartbeat sees it alive: full-sync re-attach + undrain,
    // again with zero operator calls.
    let after = cluster.heartbeat();
    assert_eq!(after[1].1, Suspicion::Healthy);
    assert_eq!(cluster.active_nodes(), vec![0, 1, 2]);
    let m = cluster.metrics();
    assert_eq!(m.auto_recoveries, 1);
    let node1 = cluster.nodes()[1].status();
    assert!(node1.attached, "re-attached");
    assert_eq!(node1.full_syncs, 1, "recovery was a full sync after reset");

    // And it genuinely serves again.
    let queries_before = cluster.nodes()[1].executor().metrics().queries;
    assert_eq!(answers(&cluster.plan_batch(&batch)), expected);
    assert!(
        cluster.nodes()[1].executor().metrics().queries > queries_before,
        "recovered node answers its shards again"
    );
}

#[test]
fn killed_replica_mid_batch_stream_redispatches_within_the_call() {
    let (cluster, injector, ids) = faulty_cluster(3);
    let batch = everyone_asks(&ids);
    let expected = answers(&cluster.plan_batch(&batch));

    // A stream of batches; the node dies between rounds 1 and 2. The
    // in-flight round must still answer every entry — the data plane
    // suspects the dead node on its exhausted retry budget, drains it,
    // and re-dispatches the failed entries to the shards' new owners.
    for round in 0..4 {
        if round == 1 {
            injector.crash(1);
        }
        assert_eq!(
            answers(&cluster.plan_batch(&batch)),
            expected,
            "round {round} must be bit-identical despite the crash"
        );
    }
    let m = cluster.metrics();
    assert_eq!(m.auto_drains, 1, "data-plane evidence drained the node");
    assert!(
        m.retries > 0,
        "the retry budget was spent before suspecting"
    );
    assert_eq!(cluster.active_nodes(), vec![0, 2]);
    assert_eq!(
        m.nodes[1].suspicion,
        Suspicion::Suspected,
        "exhausted data-plane budget jumps suspicion to the threshold"
    );
}

/// Where a [`PanicOnExecute`] panics.
#[derive(Clone, Copy)]
enum PanicAt {
    /// Every `Execute` sent to this node.
    Node(usize),
    /// Every `Execute` carrying a request from this initiator, whichever
    /// node it goes to.
    Initiator(NodeId),
}

/// A transport whose exchange thread panics once a fault is armed.
struct PanicOnExecute {
    inner: Arc<dyn Transport>,
    fault: Mutex<Option<PanicAt>>,
}

impl Transport for PanicOnExecute {
    fn send(&self, node: usize, msg: NodeMsg) -> Result<NodeReply, TransportError> {
        if let NodeMsg::Execute(batch) = &msg {
            let hit = match *self.fault.lock().unwrap() {
                Some(PanicAt::Node(n)) => n == node,
                Some(PanicAt::Initiator(q)) => batch.iter().any(|r| r.initiator == q),
                None => false,
            };
            if hit {
                panic!("injected transport panic towards node {node}");
            }
        }
        self.inner.send(node, msg)
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
}

/// Three nodes behind a disarmed [`PanicOnExecute`], the people, and
/// the fault-free answers to [`everyone_asks`].
fn panicking_cluster() -> (Cluster, Arc<PanicOnExecute>, Vec<NodeId>, Answers) {
    let mut handle = None;
    let (cluster, ids) = small_cluster(3, |inner| {
        let transport = Arc::new(PanicOnExecute {
            inner,
            fault: Mutex::new(None),
        });
        handle = Some(Arc::clone(&transport));
        transport
    });
    let expected = answers(&cluster.plan_batch(&everyone_asks(&ids)));
    (
        cluster,
        handle.expect("the transport was built"),
        ids,
        expected,
    )
}

#[test]
fn a_panicking_scatter_thread_fails_its_node_over_instead_of_the_call() {
    let (cluster, transport, ids, expected) = panicking_cluster();
    // The scatter thread towards node 1 panics: its slice fails like a
    // dead node's, the node is drained and its entries are redispatched
    // within the call.
    *transport.fault.lock().unwrap() = Some(PanicAt::Node(1));
    assert_eq!(answers(&cluster.plan_batch(&everyone_asks(&ids))), expected);
    assert_eq!(cluster.metrics().auto_drains, 1);
    assert_eq!(cluster.active_nodes(), vec![0, 2]);
}

#[test]
fn a_panic_that_follows_its_entry_drains_one_node_and_fails_only_that_slice() {
    let (cluster, transport, ids, expected) = panicking_cluster();
    let culprit = ids[0];
    *transport.fault.lock().unwrap() = Some(PanicAt::Initiator(culprit));
    let batch = everyone_asks(&ids);
    let replies = cluster.plan_batch(&batch);
    // The first panic drains the culprit's node and redispatches its
    // slice; the second, on the new owner, answers that slice with the
    // error instead of draining another node.
    assert_eq!(cluster.metrics().auto_drains, 1);
    assert_eq!(cluster.active_nodes().len(), 2);
    for ((query, reply), want) in batch.iter().zip(&replies).zip(&expected) {
        match reply {
            Ok(outcome) => assert_eq!(
                &(
                    outcome.outcome.objective(),
                    outcome.outcome.members().map(|m| m.to_vec())
                ),
                want
            ),
            Err(e) => assert_eq!(e, &ClusterError::Transport(TransportError::Panicked)),
        }
        if query.initiator == culprit {
            assert!(reply.is_err(), "the culprit's entry cannot be answered");
        }
    }
    assert!(
        replies.iter().filter(|r| r.is_ok()).count() > 0,
        "entries away from the culprit's slice keep their answers"
    );

    // Disarmed, the two remaining nodes answer everything.
    *transport.fault.lock().unwrap() = None;
    assert_eq!(answers(&cluster.plan_batch(&batch)), expected);
}

#[test]
fn writer_failover_mid_write_stream_preserves_epochs_and_answers() {
    let (mut cluster, injector, ids) = faulty_cluster(3);
    let batch = everyone_asks(&ids);

    // One-way partition from node 1: replication payloads are APPLIED
    // but the acks are lost — node 1 ends up ahead of the writer's
    // accounting, the classic failover hazard.
    injector.set_partition_from(1, true);

    // Write stream, part 1.
    cluster.connect(ids[0], ids[3], 1).unwrap();
    cluster.connect(ids[2], ids[4], 2).unwrap();
    let replies = cluster.plan_batch(&batch);
    let expected = answers(&replies);
    let epoch_before = cluster.writer_epoch();
    let node1_epoch_before = cluster.nodes()[1].status().epoch;

    // The old writer is lost; promote the best surviving replica.
    let donor = cluster.fail_over().expect("two replicas are reachable");
    assert!(donor == 0 || donor == 2, "partitioned node can't donate");
    let epoch_after = cluster.writer_epoch();
    assert!(
        epoch_after.graph > epoch_before.graph && epoch_after.calendar > epoch_before.calendar,
        "promotion bumps versions past everything ever issued: \
         {epoch_before:?} -> {epoch_after:?}"
    );
    assert_eq!(cluster.metrics().failovers, 1);

    // Read-your-writes across the failover: every entry is served
    // exactly at (or past) the new writer's epoch, and the answers are
    // the same world — nothing acked was lost.
    let replies = cluster.plan_batch(&batch);
    for r in &replies {
        assert!(r.as_ref().unwrap().exact, "served exactly, no staleness");
    }
    assert_eq!(answers(&replies), expected, "the replicated world survived");

    // Write stream, part 2: the promoted writer keeps accepting writes.
    cluster.connect(ids[1], ids[5], 1).unwrap();
    let epoch_stream = cluster.writer_epoch();
    assert!(epoch_stream.graph > epoch_after.graph, "stream continues");
    assert!(cluster.plan_batch(&batch).iter().all(|r| r.is_ok()));

    // Heal the partition. Node 1 was auto-drained when its (dropped)
    // replies exhausted the data-plane retry budget, so healing is a
    // heartbeat-driven recovery: full sync forward, then undrain. The
    // node — which was AHEAD of the old writer's accounting — only ever
    // moves UP to the promoted stamps, never backward.
    injector.set_partition_from(1, false);
    cluster.heartbeat();
    assert_eq!(cluster.active_nodes(), vec![0, 1, 2], "recovered");
    let node1_epoch_after = cluster.nodes()[1].status().epoch;
    assert!(
        node1_epoch_after.covers(node1_epoch_before),
        "no replica ever serves a snapshot older than one it acked: \
         {node1_epoch_before:?} -> {node1_epoch_after:?}"
    );
    assert!(node1_epoch_after.covers(epoch_stream), "fully caught up");
    assert!(cluster.plan_batch(&batch).iter().all(|r| r.is_ok()));
}

/// ROADMAP 3(c): the per-shard version stamps must keep the replicas'
/// result caches serving replays *across a writer failover* — epochs
/// are bumped past everything ever acked, so caches re-key (one miss
/// round at the promoted epoch) and then replay at no worse a rate
/// than before the failover.
#[test]
fn failover_restores_result_cache_replay_hit_rates() {
    let (mut cluster, _injector, ids) = faulty_cluster(3);
    let batch = everyone_asks(&ids);

    let counts = |cluster: &Cluster| -> Vec<(u64, u64)> {
        cluster
            .nodes()
            .iter()
            .map(|n| {
                let s = n.status();
                (s.result_cache_hits, s.queries)
            })
            .collect()
    };
    // Per-node replay hit rate over a window of the repeated stream.
    let window_rates = |cluster: &mut Cluster, batch: &[BatchQuery]| -> Vec<f64> {
        let before = counts(cluster);
        for _ in 0..3 {
            assert!(cluster.plan_batch(batch).iter().all(|r| r.is_ok()));
        }
        let after = counts(cluster);
        before
            .iter()
            .zip(&after)
            .map(|(&(h0, q0), &(h1, q1))| {
                assert!(q1 > q0, "every node serves part of the stream");
                (h1 - h0) as f64 / (q1 - q0) as f64
            })
            .collect()
    };

    // Attach + cold solves, then one warm round: each node's cache now
    // holds every entry of the stream at the current epoch.
    for _ in 0..2 {
        assert!(cluster.plan_batch(&batch).iter().all(|r| r.is_ok()));
    }
    let pre = window_rates(&mut cluster, &batch);
    assert!(
        pre.iter().all(|&r| r > 0.0),
        "the repeated stream must replay before the failover: {pre:?}"
    );

    // Writer lost; the best replica's mirror is promoted. Version
    // stamps jump past every acked epoch, so the first round re-solves
    // (old-epoch cache entries can never alias) and the second warms
    // the caches at the promoted stamps.
    let donor = cluster.fail_over().expect("replicas are reachable");
    assert!(donor < 3);
    for _ in 0..2 {
        assert!(cluster.plan_batch(&batch).iter().all(|r| r.is_ok()));
    }

    // The promoted node and both other replicas replay at least as
    // well as before the failover.
    let post = window_rates(&mut cluster, &batch);
    for (node, (&before, &after)) in pre.iter().zip(&post).enumerate() {
        assert!(
            after >= before,
            "node {node} replay rate degraded across failover: \
             {before:.3} -> {after:.3} (donor {donor})"
        );
    }
}

/// One full chaos campaign: a deterministic fault schedule (probabilistic
/// drops, injected latency, a one-way partition, a crash/restart) driven
/// over a 3-node cluster for 12 rounds. Returns the per-round settled
/// answers plus the final robustness counters — the replay currency.
fn chaos_campaign(seed: u64) -> (Vec<Answers>, Vec<u64>) {
    let (mut cluster, injector, ids) = seeded_faulty_cluster(3, seed);
    let batch = everyone_asks(&ids);

    // Drive one round to a fully-served answer set. Transient faults can
    // outlive one plan_batch (a node that lost replication serves
    // EpochTooOld until the next round's replicate reaches it) — the
    // healing loop is: heartbeat, re-plan. Bounded, and every decision
    // inside is deterministic under the injector's seed.
    let settle = |cluster: &mut Cluster, label: &str| -> Answers {
        for _ in 0..8 {
            cluster.heartbeat();
            let replies = cluster.plan_batch(&batch);
            if replies.iter().all(|r| r.is_ok()) {
                return answers(&replies);
            }
        }
        panic!("{label}: cluster failed to settle within 8 healing rounds");
    };

    let mut trace = Vec::new();
    for round in 0..12 {
        match round {
            1 => injector.set_drop_probability(1, 0.4),
            3 => {
                injector.set_drop_probability(1, 0.0);
                injector.set_delay(2, Duration::from_millis(1));
            }
            5 => {
                injector.set_delay(2, Duration::ZERO);
                injector.set_partition_from(0, true);
            }
            7 => {
                injector.set_partition_from(0, false);
                injector.crash(2);
            }
            9 => {
                injector.restart(2);
                cluster.nodes()[2].reset();
            }
            _ => {}
        }
        // A mutation per round keeps replication genuinely in play.
        cluster
            .set_availability(ids[round % ids.len()], 10, round % 2 == 0)
            .unwrap();
        trace.push(settle(&mut cluster, &format!("round {round}")));
    }

    let m = cluster.metrics();
    let c = injector.counters();
    let counters = vec![
        m.full_syncs,
        m.delta_batches,
        m.failed_sends,
        m.heartbeats_missed,
        m.auto_drains,
        m.auto_recoveries,
        m.retries,
        m.catch_up_deltas,
        c.dropped,
        c.delayed,
    ];
    (trace, counters)
}

#[test]
fn seeded_chaos_settles_to_fault_free_answers_and_replays_bit_identically() {
    // The fault-free oracle: same cluster, same schedule of mutations,
    // no injector activity.
    let oracle = chaos_campaign_oracle();

    let (trace, counters) = chaos_campaign(0xC0FFEE);
    assert_eq!(trace.len(), oracle.len());
    for (round, (got, want)) in trace.iter().zip(&oracle).enumerate() {
        assert_eq!(
            got, want,
            "round {round}: chaos answers must be bit-identical \
             (objectives AND groups) to the fault-free run"
        );
    }
    // The campaign genuinely exercised the machinery.
    assert!(counters[8] > 0, "faults actually dropped messages");
    assert!(counters[9] > 0, "latency was actually injected");
    assert!(counters[4] >= 1, "at least one auto-drain happened");
    assert!(counters[5] >= 1, "at least one auto-recovery happened");

    // Same seed, bit-identical replay — answers AND counters.
    let (trace2, counters2) = chaos_campaign(0xC0FFEE);
    assert_eq!(trace, trace2, "same seed: same answers every round");
    assert_eq!(counters, counters2, "same seed: same fault/heal history");

    // A different seed takes a different path through the faults (the
    // answers still settle to the same oracle — that is the whole
    // point) but the fault history differs.
    let (trace3, counters3) = chaos_campaign(0xBEEF);
    assert_eq!(trace3.len(), oracle.len());
    for (round, (got, want)) in trace3.iter().zip(&oracle).enumerate() {
        assert_eq!(got, want, "round {round}: seed 0xBEEF settles too");
    }
    assert_ne!(
        counters2, counters3,
        "different seed: different deterministic fault history"
    );
}

/// The fault-free twin of [`chaos_campaign`]: identical mutation
/// schedule, no faults — produces the oracle answers.
fn chaos_campaign_oracle() -> Vec<Answers> {
    let (mut cluster, _injector, ids) = faulty_cluster(3);
    let batch = everyone_asks(&ids);
    let mut trace = Vec::new();
    for round in 0..12 {
        cluster
            .set_availability(ids[round % ids.len()], 10, round % 2 == 0)
            .unwrap();
        let replies = cluster.plan_batch(&batch);
        assert!(replies.iter().all(|r| r.is_ok()), "fault-free never fails");
        trace.push(answers(&replies));
    }
    trace
}

// ---- loopback TCP ----------------------------------------------------

#[test]
fn loopback_tcp_serves_identically_to_in_process() {
    let ds = coarse_distance_analog(1, 42, 3);
    let batch = mixed_batch(&ds);

    // Oracle: the in-process cluster on the same dataset.
    let expected = {
        let cluster = cluster_from_dataset(&ds, 2, 1);
        answers(&cluster.plan_batch(&batch))
    };

    // The same cluster with every node behind a real TCP listener: the
    // full protocol — full-sync payloads, delta batches, scatter/gather,
    // status probes — crosses length-prefixed loopback frames.
    let cfg = ClusterConfig {
        nodes: 2,
        node_exec: ExecConfig {
            workers: 1,
            result_cache_capacity: 0,
            ..ExecConfig::default()
        },
        ..ClusterConfig::default()
    };
    let node_handles: Vec<Arc<ClusterNode>> = (0..cfg.nodes)
        .map(|id| Arc::new(ClusterNode::new(id, cfg.node_exec)))
        .collect();
    let servers: Vec<TcpNodeServer> = node_handles
        .iter()
        .map(|n| TcpNodeServer::spawn(Arc::clone(n)).expect("bind loopback"))
        .collect();
    let transport = Arc::new(TcpTransport::new(
        servers.iter().map(|s| s.addr()).collect(),
    ));
    let mut cluster = Cluster::from_parts(ds.grid.horizon(), cfg, node_handles, transport);
    for v in 0..ds.graph.node_count() {
        cluster.add_person(format!("p{v}"));
    }
    for e in ds.graph.edges() {
        cluster.connect(e.a, e.b, e.weight).unwrap();
    }
    for (v, cal) in ds.calendars.iter().enumerate() {
        cluster.set_calendar(NodeId(v as u32), cal.clone()).unwrap();
    }

    assert_eq!(
        answers(&cluster.plan_batch(&batch)),
        expected,
        "TCP and in-process transports serve bit-identical answers"
    );
    // Incremental path over the wire too: mutate, replicate, re-serve.
    let m = cluster.metrics();
    assert!(m.nodes.iter().all(|n| n.reachable && n.seq_lag == 0));
    assert!(m.full_syncs >= 2, "both nodes attached over TCP");
    let delta_batches_before = m.delta_batches;
    let mut cluster = cluster; // explicit: mutations continue on the writer
    cluster.set_availability(NodeId(0), 0, true).unwrap();
    assert!(cluster.plan_batch(&batch).iter().all(|r| r.is_ok()));
    assert!(
        cluster.metrics().delta_batches > delta_batches_before,
        "catch-up after the mutation shipped deltas, not full states"
    );

    // Kill one server mid-stream: the cluster self-heals over TCP just
    // like in-process — exhausted Io retries suspect the node, drain
    // it, and re-dispatch; answers stay identical with zero operator
    // calls.
    let mut servers = servers;
    drop(servers.remove(1));
    assert_eq!(
        answers(&cluster.plan_batch(&batch)),
        expected,
        "TCP node loss mid-stream: identical answers"
    );
    assert_eq!(cluster.active_nodes(), vec![0]);
    assert_eq!(cluster.metrics().auto_drains, 1);
}
