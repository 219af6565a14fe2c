//! The cluster façade: one [`Writer`] (the mutable
//! [`World`](stgq_service::World) plus the delta log) and N serving
//! nodes behind a [`ShardRouter`], all talking through one
//! [`Transport`].
//!
//! # Failure model and the self-healing loop
//!
//! The cluster assumes **transient transport faults** (dropped frames,
//! refused connects, timeouts — retried within
//! [`ClusterConfig::retry`]'s budgets) and **fail-stop nodes** (crash,
//! partition — detected and routed around). It heals in three tiers,
//! each engaging only when the one below was not enough:
//!
//! 1. **Retry** — every send retries with bounded exponential backoff
//!    and deterministic jitter; a blip costs milliseconds and nothing
//!    else.
//! 2. **Auto-drain + re-dispatch** — a node that misses
//!    [`HealthConfig::suspect_after`] consecutive heartbeats (or
//!    exhausts a data-plane retry budget, which counts as reaching the
//!    threshold at once) is *suspected* and drained: its shards move to
//!    the survivors and any in-flight batch entries it failed are
//!    re-dispatched to the new owners inside the same
//!    [`execute`](Cluster::execute) call — the caller sees answers, not
//!    errors. When the node answers heartbeats again it is re-attached
//!    (full sync) and undrained automatically.
//! 3. **Writer failover** ([`Cluster::fail_over`]) — when the *writer*
//!    is lost, the reachable replica with the highest applied sequence
//!    exports its replica world and is promoted. Promotion bumps the
//!    new writer's version stamps past every epoch any replica ever
//!    acknowledged (and past the old writer's last issued floor), so
//!    epochs stay **monotonic fleet-wide**: version-keyed caches never
//!    alias across the promotion, and every read-your-writes floor
//!    handed out before the failover is still coverable after it.
//!
//! ## Detector tuning
//!
//! `suspect_after` trades detection latency against false positives: at
//! the default 3, one lost heartbeat never drains a node, while a real
//! crash is detected within three rounds. Raise it on flaky networks;
//! lower it to 1 only where the transport is reliable (in-process) and
//! failover speed matters most. Heartbeats deliberately do **not**
//! retry (their budget is 1): a retried heartbeat would hide exactly
//! the misses the detector exists to count. Data-plane evidence is
//! stronger — a query send that exhausted its whole retry budget jumps
//! suspicion straight to the threshold.
//!
//! ## Manual-override runbook
//!
//! Self-healing composes with operations rather than replacing them:
//!
//! * **Planned maintenance** — [`drain_node`](Cluster::drain_node),
//!   do the work, [`undrain_node`](Cluster::undrain_node). The detector
//!   never auto-undrains an operator's drain (it tracks whose drain it
//!   was), so a node held down on purpose stays down even if it answers
//!   heartbeats.
//! * **Disable healing** — set [`HealthConfig::auto_drain`] /
//!   [`HealthConfig::auto_recover`] to `false` to run the detector in
//!   observe-only mode: suspicion is tracked and reported in
//!   [`ClusterMetrics`], actions are yours.
//! * **Force re-attach** — drain then undrain a node; the next
//!   replication round full-syncs it if its sequence fell out of the
//!   delta log.
//! * **Promote manually** — [`fail_over`](Cluster::fail_over) picks the
//!   best donor itself; it is safe to call while replicas lag (anything
//!   unacknowledged everywhere is lost by design — it was never
//!   durable).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use stgq_exec::{ExecConfig, ExecError, PlanOutcome};
use stgq_graph::NodeId;
use stgq_schedule::{Calendar, SlotRange};
use stgq_service::{BatchQuery, ServiceError, Writer};

use stgq_obs::prom::PromText;
use stgq_obs::HistogramSnapshot;

use crate::health::{FailureDetector, HealthConfig, Suspicion};
use crate::message::{Epoch, NodeMsg, NodeObs, NodeReply, NodeStatus, WireRequest};
use crate::node::ClusterNode;
use crate::obs::RpcObs;
use crate::replication::{Replicator, SyncError};
use crate::retry::{send_with_retry, MsgClass, RetryPolicy};
use crate::router::{RouterError, ShardRouter};
use crate::transport::{InProcessTransport, Transport, TransportError, WireCodec};

/// Construction-time knobs for a [`Cluster`].
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Serving nodes.
    pub nodes: usize,
    /// Initiator-shard modulus the router distributes over (kept equal
    /// to the per-node executors' shard count so the routing partition
    /// and the nodes' internal cache partitions align).
    pub shards: usize,
    /// Executor sizing applied to every node.
    pub node_exec: ExecConfig,
    /// Stamp every routed request with the writer's current epoch as its
    /// minimum (read-your-writes: a lagging replica refuses rather than
    /// serves stale). Off, requests accept whatever epoch their node has.
    pub read_your_writes: bool,
    /// How the in-process transport moves messages (JSON proves
    /// wire-encodability in tests).
    pub codec: WireCodec,
    /// Retry/backoff schedule applied to every send (replication and
    /// scatter/gather); [`RetryPolicy::none`] restores single-shot
    /// sends.
    pub retry: RetryPolicy,
    /// Failure-detection and self-healing knobs.
    pub health: HealthConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            shards: 16,
            node_exec: ExecConfig::default(),
            read_your_writes: true,
            codec: WireCodec::Direct,
            retry: RetryPolicy::default(),
            health: HealthConfig::default(),
        }
    }
}

/// Why one routed entry failed (entries fail individually; a batch is
/// never poisoned by one node).
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterError {
    /// The answering node's executor refused the entry.
    Exec(ExecError),
    /// The transport could not reach the assigned node.
    Transport(TransportError),
    /// The node answered outside the protocol.
    Protocol,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Exec(e) => write!(f, "{e}"),
            ClusterError::Transport(e) => write!(f, "{e}"),
            ClusterError::Protocol => write!(f, "unexpected reply to execute"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Why a writer failover could not complete. Failover never
/// half-applies: on any error the old writer state is untouched.
#[derive(Clone, Debug, PartialEq)]
pub enum FailoverError {
    /// No reachable, attached replica exists to promote.
    NoCandidate,
    /// The chosen donor could not export its world.
    Export(TransportError),
    /// The donor answered outside the protocol.
    Protocol,
    /// The exported world failed to restore into a writer, or its
    /// versions cannot be bumped past every acknowledged epoch.
    Restore(ServiceError),
}

impl std::fmt::Display for FailoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailoverError::NoCandidate => write!(f, "no reachable attached replica to promote"),
            FailoverError::Export(e) => write!(f, "donor export failed: {e}"),
            FailoverError::Protocol => write!(f, "unexpected reply during failover"),
            FailoverError::Restore(why) => write!(f, "promoted state failed to restore: {why}"),
        }
    }
}

impl std::error::Error for FailoverError {}

/// One node's replication/serving position relative to the writer.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeLag {
    /// The node's index.
    pub node: usize,
    /// Whether the router currently sends it traffic.
    pub active: bool,
    /// The node's own status report (zeroed when unreachable).
    pub status: NodeStatus,
    /// Writer graph version minus the node's (0 = caught up).
    pub graph_lag: u64,
    /// Writer calendar version minus the node's.
    pub calendar_lag: u64,
    /// Writer delta sequence minus the node's.
    pub seq_lag: u64,
    /// Whether the status probe reached the node.
    pub reachable: bool,
    /// The failure detector's current view of the node.
    pub suspicion: Suspicion,
}

/// Point-in-time cluster observability: writer position, per-node lag,
/// replication counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterMetrics {
    /// The writer's current epoch.
    pub writer_epoch: Epoch,
    /// The writer's delta sequence.
    pub writer_seq: u64,
    /// Per node: status and lag.
    pub nodes: Vec<NodeLag>,
    /// Full syncs shipped (first attaches + gap/stale repairs).
    pub full_syncs: u64,
    /// Incremental delta batches shipped.
    pub delta_batches: u64,
    /// Replication sends the transport refused or dropped (after their
    /// whole retry budget).
    pub failed_sends: u64,
    /// Heartbeat probes that went unanswered (includes data-plane
    /// failures fed to the detector as evidence).
    pub heartbeats_missed: u64,
    /// Nodes the failure detector drained.
    pub auto_drains: u64,
    /// Nodes the detector re-attached and undrained.
    pub auto_recoveries: u64,
    /// Individual send retries performed (replication + data plane).
    pub retries: u64,
    /// Writer failovers performed.
    pub failovers: u64,
    /// Delta records shipped to nodes recovering from a failed round.
    pub catch_up_deltas: u64,
}

/// The cluster's full latency spectrum: [`ClusterMetrics`] plus every
/// node's executor histograms, both per node and merged fleet-wide —
/// what [`Cluster::observability`] gathers with [`NodeMsg::Metrics`].
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterObs {
    /// Writer position, per-node status/lag/suspicion, replication
    /// counters (the same report as [`Cluster::metrics`]).
    pub metrics: ClusterMetrics,
    /// Each reachable node's deep report, by node index.
    pub per_node: Vec<(usize, NodeObs)>,
    /// Fleet-wide histograms: every node's same-named executor
    /// histograms merged element-wise (log₂ bucket merge is exact).
    pub merged: Vec<(String, HistogramSnapshot)>,
    /// Cluster-side RPC round-trip histograms, one per message class
    /// (retry backoff included).
    pub rpc: Vec<(&'static str, HistogramSnapshot)>,
}

impl ClusterObs {
    /// Render the fleet's whole spectrum as Prometheus text exposition
    /// format: writer position and replication/healing counters,
    /// per-node lag/suspicion/serving gauges (label `node="i"`), the
    /// fleet-merged histogram families (`stgq_<name>_ns` — same family
    /// names as the single-process planner's exposition, so
    /// dashboards work unchanged against either), per-node histograms
    /// (`stgq_node_<name>_ns{node="i"}` — a separate family so summing
    /// the merged families never double-counts), and the cluster's RPC
    /// round-trip histograms.
    pub fn prometheus_text(&self) -> String {
        use stgq_service::expose::render_histograms;

        let mut text = PromText::new();
        let m = &self.metrics;
        text.gauge(
            "stgq_writer_graph_version",
            "The writer's current graph version (epoch, graph axis).",
            &[],
            m.writer_epoch.graph as f64,
        );
        text.gauge(
            "stgq_writer_calendar_version",
            "The writer's current calendar version (epoch, calendar axis).",
            &[],
            m.writer_epoch.calendar as f64,
        );
        text.gauge(
            "stgq_writer_seq",
            "The writer's delta-log sequence.",
            &[],
            m.writer_seq as f64,
        );
        let cluster_counters: [(&str, &str, u64); 9] = [
            (
                "stgq_cluster_full_syncs",
                "Full syncs shipped (first attaches + gap/stale repairs).",
                m.full_syncs,
            ),
            (
                "stgq_cluster_delta_batches",
                "Incremental delta batches shipped.",
                m.delta_batches,
            ),
            (
                "stgq_cluster_failed_sends",
                "Replication sends dropped after their whole retry budget.",
                m.failed_sends,
            ),
            (
                "stgq_cluster_heartbeats_missed",
                "Unanswered heartbeat probes (incl. data-plane evidence).",
                m.heartbeats_missed,
            ),
            (
                "stgq_cluster_auto_drains",
                "Nodes the failure detector drained.",
                m.auto_drains,
            ),
            (
                "stgq_cluster_auto_recoveries",
                "Nodes the detector re-attached and undrained.",
                m.auto_recoveries,
            ),
            (
                "stgq_cluster_retries",
                "Individual send retries performed (replication + data plane).",
                m.retries,
            ),
            (
                "stgq_cluster_failovers",
                "Writer failovers performed.",
                m.failovers,
            ),
            (
                "stgq_cluster_catch_up_deltas",
                "Delta records shipped to nodes recovering from a failed round.",
                m.catch_up_deltas,
            ),
        ];
        for (name, help, value) in cluster_counters {
            text.counter(name, help, &[], value);
        }
        for lag in &m.nodes {
            let node = lag.node.to_string();
            let labels: [(&str, &str); 1] = [("node", node.as_str())];
            let flags: [(&str, &str, bool); 3] = [
                (
                    "stgq_node_active",
                    "Whether the router currently sends this node traffic.",
                    lag.active,
                ),
                (
                    "stgq_node_reachable",
                    "Whether the status probe reached this node.",
                    lag.reachable,
                ),
                (
                    "stgq_node_attached",
                    "Whether the node has completed its first sync.",
                    lag.status.attached,
                ),
            ];
            for (name, help, value) in flags {
                text.gauge(name, help, &labels, if value { 1.0 } else { 0.0 });
            }
            let gauges: [(&str, &str, u64); 4] = [
                (
                    "stgq_node_seq_lag",
                    "Writer delta sequence minus the node's (0 = caught up).",
                    lag.seq_lag,
                ),
                (
                    "stgq_node_graph_lag",
                    "Writer graph version minus the node's.",
                    lag.graph_lag,
                ),
                (
                    "stgq_node_calendar_lag",
                    "Writer calendar version minus the node's.",
                    lag.calendar_lag,
                ),
                (
                    "stgq_node_seq",
                    "The last delta sequence the node applied.",
                    lag.status.seq,
                ),
            ];
            for (name, help, value) in gauges {
                text.gauge(name, help, &labels, value as f64);
            }
            let (suspected, misses) = match lag.suspicion {
                Suspicion::Healthy => (0.0, 0),
                Suspicion::Accruing { missed } => (0.0, missed),
                Suspicion::Suspected => (1.0, 0),
            };
            text.gauge(
                "stgq_node_suspected",
                "1 while the failure detector suspects this node.",
                &labels,
                suspected,
            );
            text.gauge(
                "stgq_node_suspicion_misses",
                "Consecutive heartbeat misses accrued (0 once healthy or suspected).",
                &labels,
                misses as f64,
            );
            let counters: [(&str, &str, u64); 4] = [
                (
                    "stgq_node_queries",
                    "Queries answered by the node's executor.",
                    lag.status.queries,
                ),
                (
                    "stgq_node_result_cache_hits",
                    "Result-cache hits at the node.",
                    lag.status.result_cache_hits,
                ),
                (
                    "stgq_node_full_syncs",
                    "Full syncs this node went through.",
                    lag.status.full_syncs,
                ),
                (
                    "stgq_node_delta_batches",
                    "Incremental delta batches this node applied.",
                    lag.status.delta_batches,
                ),
            ];
            for (name, help, value) in counters {
                text.counter(name, help, &labels, value);
            }
        }
        render_histograms(&mut text, "stgq", &self.merged, &[]);
        for (node, obs) in &self.per_node {
            let node = node.to_string();
            render_histograms(
                &mut text,
                "stgq_node",
                &obs.histograms,
                &[("node", node.as_str())],
            );
        }
        let rpc: Vec<(String, HistogramSnapshot)> = self
            .rpc
            .iter()
            .map(|(name, snap)| (name.to_string(), *snap))
            .collect();
        render_histograms(&mut text, "stgq", &rpc, &[]);
        text.finish()
    }
}

/// A multi-node serving cluster. See the crate docs for the architecture
/// (router → transport → replication → node executors).
pub struct Cluster {
    writer: Writer,
    nodes: Vec<Arc<ClusterNode>>,
    transport: Arc<dyn Transport>,
    router: Mutex<ShardRouter>,
    replicator: Mutex<Replicator>,
    detector: Mutex<FailureDetector>,
    retry: RetryPolicy,
    read_your_writes: bool,
    /// Data-plane (scatter/gather + heartbeat) send retries performed.
    exec_retries: AtomicU64,
    /// Writer failovers performed.
    failovers: AtomicU64,
    /// Per-message-class RPC round-trip histograms (shared with the
    /// replicator so both planes record into one spectrum).
    rpc: Arc<RpcObs>,
}

impl Cluster {
    /// A cluster over `horizon` time slots with an in-process transport.
    pub fn new(horizon: usize, cfg: ClusterConfig) -> Self {
        let nodes: Vec<Arc<ClusterNode>> = (0..cfg.nodes.max(1))
            .map(|id| Arc::new(ClusterNode::new(id, cfg.node_exec)))
            .collect();
        let transport: Arc<dyn Transport> =
            Arc::new(InProcessTransport::with_codec(nodes.clone(), cfg.codec));
        Cluster::from_parts(horizon, cfg, nodes, transport)
    }

    /// Assemble a cluster from pre-built nodes and an arbitrary
    /// transport (how tests interpose a
    /// [`FaultInjector`](crate::FaultInjector)).
    pub fn from_parts(
        horizon: usize,
        cfg: ClusterConfig,
        nodes: Vec<Arc<ClusterNode>>,
        transport: Arc<dyn Transport>,
    ) -> Self {
        let node_count = nodes.len();
        let rpc = Arc::new(RpcObs::default());
        Cluster {
            // Control plane only: the nodes serve every query, so the
            // writer holds a world and its log, and no executor.
            writer: Writer::new(horizon, cfg.shards),
            nodes,
            transport,
            router: Mutex::new(ShardRouter::new(cfg.shards, node_count)),
            replicator: Mutex::new(Replicator::with_observer(
                node_count,
                cfg.retry,
                Arc::clone(&rpc),
            )),
            detector: Mutex::new(FailureDetector::new(node_count, cfg.health)),
            retry: cfg.retry,
            read_your_writes: cfg.read_your_writes,
            exec_retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            rpc,
        }
    }

    // -- writer (mutations) -------------------------------------------

    /// The writer (read access: world, delta feed).
    pub fn writer(&self) -> &Writer {
        &self.writer
    }

    /// The writer, mutably — the full mutation surface beyond the
    /// helpers below.
    pub fn writer_mut(&mut self) -> &mut Writer {
        &mut self.writer
    }

    /// Register a person (see [`Writer::add_person`]).
    pub fn add_person(&mut self, label: impl Into<String>) -> NodeId {
        self.writer.add_person(label)
    }

    /// Create or re-weight a friendship.
    pub fn connect(&mut self, a: NodeId, b: NodeId, distance: u64) -> Result<(), ServiceError> {
        self.writer.connect(a, b, distance)
    }

    /// Remove a friendship.
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) -> Result<bool, ServiceError> {
        self.writer.disconnect(a, b)
    }

    /// Tombstone a person.
    pub fn remove_person(&mut self, person: NodeId) -> Result<(), ServiceError> {
        self.writer.remove_person(person)
    }

    /// Mark one slot (un)available.
    pub fn set_availability(
        &mut self,
        person: NodeId,
        slot: usize,
        available: bool,
    ) -> Result<(), ServiceError> {
        self.writer.set_availability(person, slot, available)
    }

    /// Mark a slot range (un)available.
    pub fn set_availability_range(
        &mut self,
        person: NodeId,
        range: SlotRange,
        available: bool,
    ) -> Result<(), ServiceError> {
        self.writer.set_availability_range(person, range, available)
    }

    /// Replace a whole calendar.
    pub fn set_calendar(&mut self, person: NodeId, calendar: Calendar) -> Result<(), ServiceError> {
        self.writer.set_calendar(person, calendar)
    }

    /// The writer's current epoch — the read-your-writes floor.
    pub fn writer_epoch(&self) -> Epoch {
        let (graph, calendar) = self.writer.world().versions();
        Epoch::new(graph, calendar)
    }

    // -- replication ---------------------------------------------------

    /// Ship pending state to every **active** node (deltas where the log
    /// reaches, full sync otherwise). Per-node failures are returned,
    /// not raised: an unreachable node simply lags until a later round.
    pub fn replicate(&self) -> Vec<(usize, Result<Epoch, SyncError>)> {
        let active = self.router.lock().active_nodes();
        let mut replicator = self.replicator.lock();
        active
            .into_iter()
            .map(|node| {
                (
                    node,
                    replicator.sync_node(&self.writer, &*self.transport, node),
                )
            })
            .collect()
    }

    // -- serving -------------------------------------------------------

    /// Answer a batch: replicate, stamp (read-your-writes), scatter by
    /// initiator shard, gather in input order.
    pub fn plan_batch(&self, queries: &[BatchQuery]) -> Vec<Result<PlanOutcome, ClusterError>> {
        self.replicate();
        let min_epoch = self.read_your_writes.then(|| self.writer_epoch());
        let requests: Vec<WireRequest> = queries
            .iter()
            .map(|q| WireRequest {
                initiator: q.initiator,
                spec: q.spec,
                engine: q.engine,
                min_epoch,
            })
            .collect();
        self.execute(requests)
    }

    /// The scatter/gather data plane on explicit wire requests (no
    /// implicit replication, no stamping — what [`plan_batch`] builds
    /// on). Self-healing: a node that fails its whole retry budget is
    /// suspected, auto-drained (when [`HealthConfig::auto_drain`] is
    /// on), and its entries **re-dispatched** to the shards' new owners
    /// inside this same call — a mid-batch node loss costs latency, not
    /// answers.
    ///
    /// [`plan_batch`]: Self::plan_batch
    pub fn execute(&self, requests: Vec<WireRequest>) -> Vec<Result<PlanOutcome, ClusterError>> {
        let mut slots: Vec<Option<Result<PlanOutcome, ClusterError>>> =
            (0..requests.len()).map(|_| None).collect();
        // Original-batch positions still unanswered; re-dispatch rounds
        // shrink this. Each healing round drains at least one node, so
        // the loop is bounded by the cluster size.
        let mut pending: Vec<usize> = (0..requests.len()).collect();
        loop {
            let initiators: Vec<NodeId> = pending.iter().map(|&p| requests[p].initiator).collect();
            // Plan positions index into `pending`.
            let plan = self.router.lock().scatter_plan(&initiators);
            // Scatter concurrently — one thread per addressed node, so
            // node executors genuinely run side by side (this is where
            // multi-node beats one node on a multi-core host).
            let replies: Vec<(usize, &Vec<usize>, Result<NodeReply, TransportError>)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = plan
                        .iter()
                        .map(|(node, positions)| {
                            let batch: Vec<WireRequest> =
                                positions.iter().map(|&p| requests[pending[p]]).collect();
                            let transport = Arc::clone(&self.transport);
                            let node = *node;
                            let policy = &self.retry;
                            let retries = &self.exec_retries;
                            let rpc = &self.rpc;
                            scope.spawn(move || {
                                (
                                    node,
                                    send_with_retry(
                                        &*transport,
                                        node,
                                        NodeMsg::Execute(batch),
                                        policy,
                                        MsgClass::Execute,
                                        retries,
                                        rpc,
                                    ),
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .zip(plan.iter())
                        .map(|(h, (_, positions))| {
                            let (node, reply) = h.join().expect("scatter worker never panics");
                            (node, positions, reply)
                        })
                        .collect()
                });
            let mut failed: Vec<(usize, Vec<usize>, TransportError)> = Vec::new();
            for (node, positions, reply) in replies {
                match reply {
                    Ok(NodeReply::Outcomes(outcomes)) if outcomes.len() == positions.len() => {
                        for (&p, outcome) in positions.iter().zip(outcomes) {
                            slots[pending[p]] = Some(outcome.map_err(ClusterError::Exec));
                        }
                    }
                    Ok(_) => {
                        for &p in positions {
                            slots[pending[p]] = Some(Err(ClusterError::Protocol));
                        }
                    }
                    Err(e) => failed.push((node, positions.clone(), e)),
                }
            }
            if failed.is_empty() {
                break;
            }
            // An exhausted retry budget is fail-stop evidence: suspect
            // the node (jumping straight to the threshold), drain it,
            // and re-dispatch its entries to the shards' new owners.
            let auto_drain = self.detector.lock().config().auto_drain;
            let mut healed = false;
            for (node, _, _) in &failed {
                self.detector.lock().note_data_failure(*node);
                if !auto_drain {
                    continue;
                }
                match self.router.lock().drain(*node) {
                    Ok(()) => {
                        self.detector.lock().note_auto_drained(*node);
                        healed = true;
                    }
                    // Lost the race with a concurrent drain: the shards
                    // are already reassigned, so re-dispatch still works.
                    Err(RouterError::AlreadyDrained { .. }) => healed = true,
                    // Last active node, or unknown: nothing to heal with.
                    Err(_) => {}
                }
            }
            if !healed {
                for (_, positions, e) in failed {
                    for p in positions {
                        slots[pending[p]] = Some(Err(ClusterError::Transport(e.clone())));
                    }
                }
                break;
            }
            // Re-dispatch in original submission order (per-node batch
            // order is what within-batch collapsing relies on).
            let mut next: Vec<usize> = failed
                .iter()
                .flat_map(|(_, positions, _)| positions.iter().map(|&p| pending[p]))
                .collect();
            next.sort_unstable();
            pending = next;
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every position answered or failed"))
            .collect()
    }

    // -- self-healing --------------------------------------------------

    /// Run one failure-detection round: probe every node slot with a
    /// status heartbeat (deliberately single-attempt — a retried
    /// heartbeat would hide the misses the detector counts), accrue
    /// suspicion on misses, auto-drain newly suspected nodes, and
    /// re-attach + undrain recovered ones. Returns every node's
    /// suspicion after the round.
    ///
    /// Call this on a timer (or between batches); the cadence times
    /// `suspect_after` is the detection latency.
    pub fn heartbeat(&self) -> Vec<(usize, Suspicion)> {
        let health = self.detector.lock().config();
        let slots = self.transport.node_count();
        for node in 0..slots {
            let reply = send_with_retry(
                &*self.transport,
                node,
                NodeMsg::Status,
                &self.retry,
                MsgClass::Status,
                &self.exec_retries,
                &self.rpc,
            );
            match reply {
                Ok(_) => {
                    let recoverable = self.detector.lock().note_alive(node);
                    if recoverable && health.auto_recover {
                        self.recover_node(node);
                    }
                }
                Err(_) => {
                    let newly_suspected = self.detector.lock().note_missed(node);
                    if newly_suspected && health.auto_drain {
                        // On Err: the operator got there first (the drain
                        // stays theirs), or it is the last active node
                        // (keep serving and surfacing errors rather than
                        // stopping).
                        if self.router.lock().drain(node).is_ok() {
                            self.detector.lock().note_auto_drained(node);
                        }
                    }
                }
            }
        }
        (0..slots)
            .map(|node| (node, self.detector.lock().suspicion(node)))
            .collect()
    }

    /// Re-attach a recovered node: reset its replication accounting (a
    /// crashed node's mirror is gone, so force the full-sync path),
    /// sync it to the writer's state, and undrain it on success. A
    /// failed sync keeps the auto-drain claim, so the next answered
    /// heartbeat retries.
    fn recover_node(&self, node: usize) {
        let mut replicator = self.replicator.lock();
        replicator.reset_node(node);
        if replicator
            .sync_node(&self.writer, &*self.transport, node)
            .is_err()
        {
            return;
        }
        drop(replicator);
        match self.router.lock().undrain(node) {
            Ok(()) => self.detector.lock().note_recovered(node),
            // An operator undrained it meanwhile: the node is serving;
            // just release our claim.
            Err(RouterError::NotDrained { .. }) => self.detector.lock().release_claim(node),
            Err(_) => {}
        }
    }

    /// Promote the best surviving replica to writer.
    ///
    /// The donor is the reachable, attached node with the highest
    /// applied delta sequence (lowest index on ties — deterministic).
    /// Its exported world becomes the new writer state, with the version
    /// stamps **bumped past** every epoch any replica ever acknowledged
    /// and past the old writer's last issued floor: epochs stay
    /// monotonic fleet-wide, version-keyed caches never alias content
    /// across the promotion, and outstanding read-your-writes floors
    /// remain coverable. All replication accounting is reset, so every
    /// replica (even one that was *ahead* of the donor) re-attaches
    /// through a full sync of the promoted state.
    ///
    /// Mutations the old writer never replicated to any acking replica
    /// are lost — they were never durable. On error nothing changes.
    /// Returns the promoted donor's index.
    pub fn fail_over(&mut self) -> Result<usize, FailoverError> {
        let slots = self.transport.node_count();
        // Probe with the data-plane budget: failover is worth retries.
        let mut best: Option<(u64, usize)> = None;
        for node in 0..slots {
            let reply = send_with_retry(
                &*self.transport,
                node,
                NodeMsg::Status,
                &self.retry,
                MsgClass::Execute,
                &self.exec_retries,
                &self.rpc,
            );
            if let Ok(NodeReply::Status(status)) = reply {
                if status.attached && best.is_none_or(|(seq, _)| status.seq > seq) {
                    best = Some((status.seq, node));
                }
            }
        }
        let (_, donor) = best.ok_or(FailoverError::NoCandidate)?;

        let reply = send_with_retry(
            &*self.transport,
            donor,
            NodeMsg::Export,
            &self.retry,
            MsgClass::Execute,
            &self.exec_retries,
            &self.rpc,
        )
        .map_err(FailoverError::Export)?;
        let NodeReply::State(mut state) = reply else {
            return Err(FailoverError::Protocol);
        };

        // Monotonicity bump: past the donor, past every acked epoch
        // (a one-way-partitioned replica can be ahead of the writer's
        // accounting), and past the old writer's own floor.
        let floor = self.writer_epoch();
        let mut graph_max = state.graph_version.max(floor.graph);
        let mut calendar_max = state.calendar_version.max(floor.calendar);
        let mut seq_max = state.seq.max(self.writer.delta_seq());
        {
            let replicator = self.replicator.lock();
            for node in 0..slots {
                let acked = replicator.acked_epoch(node);
                graph_max = graph_max.max(acked.graph);
                calendar_max = calendar_max.max(acked.calendar);
                if let Some(seq) = replicator.acked_seq(node) {
                    seq_max = seq_max.max(seq);
                }
            }
        }
        let exhausted =
            |counter| FailoverError::Restore(ServiceError::CounterExhausted { counter });
        state.graph_version = graph_max
            .checked_add(1)
            .ok_or_else(|| exhausted("graph version"))?;
        state.calendar_version = calendar_max
            .checked_add(1)
            .ok_or_else(|| exhausted("calendar version"))?;
        state.seq = seq_max;

        self.writer = Writer::restore(&state, self.writer.world().shards())
            .map_err(FailoverError::Restore)?;
        self.replicator.lock().reset_all();
        self.failovers.fetch_add(1, Ordering::Relaxed);
        Ok(donor)
    }

    // -- membership ----------------------------------------------------

    /// Operator drain: stop routing to `node` and hand its shards to
    /// the remaining active nodes. The node keeps its state and can be
    /// [`undrained`](Self::undrain_node) later. An operator drain is
    /// never auto-undrained — the failure detector only recovers drains
    /// *it* performed.
    pub fn drain_node(&self, node: usize) -> Result<(), RouterError> {
        self.router.lock().drain(node)
    }

    /// Operator undrain: return a drained node to the shard map (it
    /// catches up through the normal replication path on the next
    /// round). Also releases any auto-drain claim the failure detector
    /// held on the node, so self-healing will not re-run recovery on a
    /// node the operator already brought back.
    pub fn undrain_node(&self, node: usize) -> Result<(), RouterError> {
        self.router.lock().undrain(node)?;
        self.detector.lock().release_claim(node);
        Ok(())
    }

    /// Indices of the nodes currently taking traffic.
    pub fn active_nodes(&self) -> Vec<usize> {
        self.router.lock().active_nodes()
    }

    /// The node slots behind this cluster (for direct metric probes in
    /// benches and tests).
    pub fn nodes(&self) -> &[Arc<ClusterNode>] {
        &self.nodes
    }

    // -- observability -------------------------------------------------

    /// Writer position, per-node status and lag, replication counters.
    pub fn metrics(&self) -> ClusterMetrics {
        let writer_epoch = self.writer_epoch();
        let writer_seq = self.writer.delta_seq();
        let router = self.router.lock();
        let replicator = self.replicator.lock();
        let detector = self.detector.lock();
        let nodes = (0..router.node_slots())
            .map(|node| {
                let (status, reachable) = match self.transport.send(node, NodeMsg::Status) {
                    Ok(NodeReply::Status(status)) => (status, true),
                    _ => (NodeStatus::default(), false),
                };
                NodeLag {
                    node,
                    active: router.is_active(node),
                    graph_lag: writer_epoch.graph.saturating_sub(status.epoch.graph),
                    calendar_lag: writer_epoch.calendar.saturating_sub(status.epoch.calendar),
                    seq_lag: writer_seq.saturating_sub(status.seq),
                    status,
                    reachable,
                    suspicion: detector.suspicion(node),
                }
            })
            .collect();
        ClusterMetrics {
            writer_epoch,
            writer_seq,
            nodes,
            full_syncs: replicator.full_syncs,
            delta_batches: replicator.delta_batches,
            failed_sends: replicator.failed_sends,
            heartbeats_missed: detector.heartbeats_missed,
            auto_drains: detector.auto_drains,
            auto_recoveries: detector.auto_recoveries,
            retries: replicator.retries + self.exec_retries.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            catch_up_deltas: replicator.catch_up_deltas,
        }
    }

    /// Scatter [`NodeMsg::Metrics`] to every node slot and gather the
    /// fleet's latency spectrum: per-node executor histograms, their
    /// fleet-wide merge (same-named histograms added element-wise — the
    /// log₂ bucket merge is exact, so the merged spectrum equals one
    /// histogram that had seen every node's samples), and the cluster's
    /// own per-class RPC round-trip histograms. Unreachable nodes are
    /// simply absent from `per_node` and the merge.
    pub fn observability(&self) -> ClusterObs {
        let slots = self.transport.node_count();
        let mut per_node = Vec::new();
        let mut merged: Vec<(String, HistogramSnapshot)> = Vec::new();
        for node in 0..slots {
            let reply = send_with_retry(
                &*self.transport,
                node,
                NodeMsg::Metrics,
                &self.retry,
                MsgClass::Status,
                &self.exec_retries,
                &self.rpc,
            );
            let Ok(NodeReply::Metrics(obs)) = reply else {
                continue;
            };
            for (name, snap) in &obs.histograms {
                match merged.iter_mut().find(|(n, _)| n == name) {
                    Some((_, acc)) => acc.merge(snap),
                    None => merged.push((name.clone(), *snap)),
                }
            }
            per_node.push((node, obs));
        }
        ClusterObs {
            metrics: self.metrics(),
            per_node,
            merged,
            rpc: self.rpc.histograms(),
        }
    }
}
