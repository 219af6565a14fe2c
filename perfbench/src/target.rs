//! The program under test, seen only through its public API: a
//! single-process [`Planner`], or a [`Cluster`] whose nodes sit behind
//! loopback [`TcpNodeServer`]s.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write as _};
use std::path::PathBuf;
use std::sync::Arc;

use stgq_cluster::{Cluster, ClusterConfig, ClusterNode, TcpNodeServer, TcpTransport};
use stgq_core::{SearchStats, SolveOutcome};
use stgq_datagen::Dataset;
use stgq_exec::{ExecConfig, ExecMetrics, PlanOutcome, QuerySpec, WorldSnapshot};
use stgq_graph::{Dist, NodeId};
use stgq_obs::HistogramSnapshot;
use stgq_schedule::SlotRange;
use stgq_service::{BatchQuery, PlanReply, Planner, SgqReport, StgqReport};

use crate::workload::{Shape, Write};

/// One answered query, as the benchmark keeps it for checking.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Answer {
    /// The minimized total distance; `None` when no plan exists.
    pub objective: Option<Dist>,
    /// The group returned (empty when none).
    pub members: Vec<NodeId>,
    /// The activity period (STGQ only).
    pub period: Option<SlotRange>,
    /// Search counters when an engine actually ran for this answer
    /// (`None` when the result cache replayed it, or a cluster node
    /// collapsed it onto an identical entry).
    pub stats: Option<SearchStats>,
}

/// One read call's outcome: an answer per query, `None` where the entry
/// erred or came back non-exact from the exact engine.
pub type ReadReply = Vec<Option<Answer>>;

/// Read replies spilled to a file in a flat `u32` encoding, so the answers
/// a phase keeps for the verify pass do not grow the process's memory
/// (which `peak_rss_mb` measures).
pub struct Replies {
    out: BufWriter<File>,
    path: PathBuf,
    calls: usize,
}

const FAILED: u32 = 0;
const NO_PLAN: u32 = 1;
const PLAN: u32 = 2;
const NO_PERIOD: u32 = u32::MAX;

impl Replies {
    /// Start a new spill file at `path`.
    pub fn create(path: PathBuf) -> std::io::Result<Replies> {
        Ok(Replies {
            out: BufWriter::new(File::create(&path)?),
            path,
            calls: 0,
        })
    }

    /// Keep one read call's reply (search counters are dropped).
    pub fn push(&mut self, reply: &ReadReply) -> std::io::Result<()> {
        let mut words = vec![reply.len() as u32];
        for entry in reply {
            match entry {
                None => words.push(FAILED),
                Some(Answer {
                    objective: None, ..
                }) => words.push(NO_PLAN),
                Some(a) => {
                    let objective = a.objective.expect("matched above");
                    let (lo, hi) = a
                        .period
                        .map_or((NO_PERIOD, NO_PERIOD), |p| (p.lo as u32, p.hi as u32));
                    words.extend([PLAN, (objective >> 32) as u32, objective as u32, lo, hi]);
                    words.push(a.members.len() as u32);
                    words.extend(a.members.iter().map(|m| m.0));
                }
            }
        }
        self.calls += 1;
        words
            .iter()
            .try_for_each(|w| self.out.write_all(&w.to_le_bytes()))
    }

    /// Read calls kept.
    pub fn len(&self) -> usize {
        self.calls
    }

    /// Whether no call was kept.
    pub fn is_empty(&self) -> bool {
        self.calls == 0
    }

    /// Finish writing and read the replies back in order. The file is
    /// removed when the reader is dropped.
    pub fn read_back(mut self) -> std::io::Result<RepliesReader> {
        self.out.flush()?;
        Ok(RepliesReader {
            input: BufReader::new(File::open(&self.path)?),
            path: self.path,
            left: self.calls,
        })
    }
}

/// Replies read back from their spill file, oldest first.
pub struct RepliesReader {
    input: BufReader<File>,
    path: PathBuf,
    left: usize,
}

impl RepliesReader {
    /// Replies not yet read.
    pub fn remaining(&self) -> usize {
        self.left
    }

    fn word(&mut self) -> std::io::Result<u32> {
        let mut bytes = [0u8; 4];
        self.input.read_exact(&mut bytes)?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// The next reply, `None` once all are read.
    pub fn next_reply(&mut self) -> Option<std::io::Result<ReadReply>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.decode())
    }

    fn decode(&mut self) -> std::io::Result<ReadReply> {
        let entries = self.word()?;
        let mut reply = Vec::with_capacity(entries as usize);
        for _ in 0..entries {
            reply.push(match self.word()? {
                FAILED => None,
                NO_PLAN => Some(Answer::default()),
                _ => {
                    let objective = (u64::from(self.word()?) << 32) | u64::from(self.word()?);
                    let (lo, hi) = (self.word()?, self.word()?);
                    let period =
                        (lo != NO_PERIOD).then(|| SlotRange::new(lo as usize, hi as usize));
                    let members = (0..self.word()?)
                        .map(|_| self.word().map(NodeId))
                        .collect::<std::io::Result<_>>()?;
                    Some(Answer {
                        objective: Some(objective),
                        members,
                        period,
                        ..Answer::default()
                    })
                }
            });
        }
        Ok(reply)
    }
}

impl Drop for RepliesReader {
    fn drop(&mut self) {
        // A leftover spill file is only wasted space; nothing to report.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The counters and histograms the serving layers export, at one moment.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Executor histograms by name (summed over nodes on a cluster).
    pub exec: Vec<(String, HistogramSnapshot)>,
    /// Executor counters (summed over nodes on a cluster).
    pub counters: ExecMetrics,
    /// Cluster RPC round-trip histograms by message class.
    pub rpc: Vec<(String, HistogramSnapshot)>,
    /// Cluster send retries.
    pub retries: u64,
    /// Cluster full syncs.
    pub full_syncs: u64,
}

/// A cluster and the loopback servers its transport dials.
pub struct TcpCluster {
    cluster: Cluster,
    nodes: Vec<Arc<ClusterNode>>,
    // Declared last so the cluster's connections close before the
    // servers stop.
    _servers: Vec<TcpNodeServer>,
}

/// The system under test. A run holds one at a time, so the variants'
/// sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Target {
    /// A single-process planner; reads run inline or through its pool.
    Planner(Planner),
    /// A multi-node cluster over loopback TCP.
    Cluster(TcpCluster),
}

fn exec_config(shape: &Shape) -> ExecConfig {
    ExecConfig {
        workers: shape.workers,
        shards: shape.shards(),
        ..ExecConfig::default()
    }
}

/// Load `ds` into a fresh target of `shape`'s kind through the public
/// write API.
pub fn load(shape: &Shape, ds: &Dataset) -> std::io::Result<Target> {
    if shape.nodes == 0 {
        let mut planner = Planner::with_exec_config(ds.grid.horizon(), exec_config(shape));
        for v in 0..ds.graph.node_count() {
            planner.add_person(format!("p{v}"));
        }
        for e in ds.graph.edges() {
            planner
                .connect(e.a, e.b, e.weight)
                .expect("generated edges join known people");
        }
        for (v, cal) in ds.calendars.iter().enumerate() {
            planner
                .set_calendar(NodeId(v as u32), cal.clone())
                .expect("generated calendars fit the horizon");
        }
        return Ok(Target::Planner(planner));
    }
    let cfg = ClusterConfig {
        nodes: shape.nodes,
        shards: shape.shards(),
        node_exec: exec_config(shape),
        read_your_writes: true,
        ..ClusterConfig::default()
    };
    let nodes: Vec<Arc<ClusterNode>> = (0..shape.nodes)
        .map(|id| Arc::new(ClusterNode::new(id, cfg.node_exec)))
        .collect();
    let servers = nodes
        .iter()
        .map(|n| TcpNodeServer::spawn(Arc::clone(n)))
        .collect::<std::io::Result<Vec<_>>>()?;
    let transport = Arc::new(TcpTransport::new(
        servers.iter().map(|s| s.addr()).collect(),
    ));
    let mut cluster = Cluster::from_parts(ds.grid.horizon(), cfg, nodes.clone(), transport);
    for v in 0..ds.graph.node_count() {
        cluster.add_person(format!("p{v}"));
    }
    for e in ds.graph.edges() {
        cluster
            .connect(e.a, e.b, e.weight)
            .expect("generated edges join known people");
    }
    for (v, cal) in ds.calendars.iter().enumerate() {
        cluster
            .set_calendar(NodeId(v as u32), cal.clone())
            .expect("generated calendars fit the horizon");
    }
    Ok(Target::Cluster(TcpCluster {
        cluster,
        nodes,
        _servers: servers,
    }))
}

fn from_sgq(r: SgqReport) -> Option<Answer> {
    r.exact.then(|| Answer {
        objective: r.solution.as_ref().map(|s| s.total_distance),
        members: r.solution.map(|s| s.members).unwrap_or_default(),
        period: None,
        stats: r.stats.filter(|_| !r.result_cache_hit),
    })
}

fn from_stgq(r: StgqReport) -> Option<Answer> {
    r.exact.then(|| Answer {
        objective: r.solution.as_ref().map(|s| s.total_distance),
        period: r.solution.as_ref().map(|s| s.period),
        members: r.solution.map(|s| s.members).unwrap_or_default(),
        stats: r.stats.filter(|_| !r.result_cache_hit),
    })
}

fn from_outcome(o: PlanOutcome) -> Option<Answer> {
    if !o.exact {
        return None;
    }
    let replayed = o.result_cache_hit || o.collapsed;
    let stats = (!replayed).then(|| *o.outcome.stats());
    Some(match o.outcome {
        SolveOutcome::Sgq(out) => Answer {
            objective: out.solution.as_ref().map(|s| s.total_distance),
            members: out.solution.map(|s| s.members).unwrap_or_default(),
            period: None,
            stats,
        },
        SolveOutcome::Stgq(out) => Answer {
            objective: out.solution.as_ref().map(|s| s.total_distance),
            period: out.solution.as_ref().map(|s| s.period),
            members: out.solution.map(|s| s.members).unwrap_or_default(),
            stats,
        },
    })
}

impl Target {
    /// One read call: inline `plan_sgq`/`plan_stgq` for a single query on
    /// a planner, `plan_batch` otherwise.
    pub fn read(&self, queries: &[BatchQuery]) -> ReadReply {
        match self {
            Target::Planner(planner) if queries.len() == 1 => {
                let q = queries[0];
                let answer = match q.spec {
                    QuerySpec::Sgq(query) => planner
                        .plan_sgq(q.initiator, &query, q.engine)
                        .ok()
                        .and_then(from_sgq),
                    QuerySpec::Stgq(query) => planner
                        .plan_stgq(q.initiator, &query, q.engine)
                        .ok()
                        .and_then(from_stgq),
                };
                vec![answer]
            }
            Target::Planner(planner) => planner
                .plan_batch(queries)
                .into_iter()
                .map(|reply| match reply.ok()? {
                    PlanReply::Sgq(r) => from_sgq(r),
                    PlanReply::Stgq(r) => from_stgq(r),
                })
                .collect(),
            Target::Cluster(c) => c
                .cluster
                .plan_batch(queries)
                .into_iter()
                .map(|reply| reply.ok().and_then(from_outcome))
                .collect(),
        }
    }

    /// One write through the public mutation API; `false` if refused.
    pub fn write(&mut self, write: &Write) -> bool {
        match (self, *write) {
            (Target::Planner(p), Write::Reweight { a, b, distance }) => {
                p.connect(a, b, distance).is_ok()
            }
            (
                Target::Planner(p),
                Write::Slot {
                    person,
                    slot,
                    available,
                },
            ) => p.set_availability(person, slot, available).is_ok(),
            (Target::Cluster(c), Write::Reweight { a, b, distance }) => {
                c.cluster.connect(a, b, distance).is_ok()
            }
            (
                Target::Cluster(c),
                Write::Slot {
                    person,
                    slot,
                    available,
                },
            ) => c.cluster.set_availability(person, slot, available).is_ok(),
        }
    }

    /// The planner (single-process targets only).
    pub fn planner(&self) -> Option<&Planner> {
        match self {
            Target::Planner(p) => Some(p),
            Target::Cluster(_) => None,
        }
    }

    /// The snapshot a serving executor currently publishes (node 0's on a
    /// cluster), for the tracer's own extraction probe.
    pub fn published_snapshot(&self) -> Option<Arc<WorldSnapshot>> {
        match self {
            Target::Planner(p) => p.executor().snapshot(),
            Target::Cluster(c) => c.nodes.first()?.executor().snapshot(),
        }
    }

    /// Read every exported counter and histogram.
    pub fn sample(&self) -> Sample {
        match self {
            Target::Planner(p) => Sample {
                exec: named(p.executor().obs().histograms()),
                counters: p.exec_metrics(),
                ..Sample::default()
            },
            Target::Cluster(c) => {
                let obs = c.cluster.observability();
                let mut counters = ExecMetrics::default();
                for node in &c.nodes {
                    add_counters(&mut counters, &node.executor().metrics());
                }
                Sample {
                    exec: obs.merged,
                    counters,
                    rpc: named(obs.rpc),
                    retries: obs.metrics.retries,
                    full_syncs: obs.metrics.full_syncs,
                }
            }
        }
    }
}

fn named(h: Vec<(&'static str, HistogramSnapshot)>) -> Vec<(String, HistogramSnapshot)> {
    h.into_iter().map(|(n, s)| (n.to_string(), s)).collect()
}

/// Sum the monotone counters the tracer reads.
fn add_counters(acc: &mut ExecMetrics, m: &ExecMetrics) {
    acc.queries += m.queries;
    acc.batched_entries += m.batched_entries;
    acc.collapsed_entries += m.collapsed_entries;
    acc.feasible_cache_hits += m.feasible_cache_hits;
    acc.feasible_cache_misses += m.feasible_cache_misses;
    acc.result_cache_hits += m.result_cache_hits;
    acc.result_cache_misses += m.result_cache_misses;
    acc.snapshot_shards_rebuilt += m.snapshot_shards_rebuilt;
    acc.snapshot_shards_reused += m.snapshot_shards_reused;
    acc.frames_examined += m.frames_examined;
    acc.frames_pruned_by_bound += m.frames_pruned_by_bound;
    acc.pivots_skipped += m.pivots_skipped;
    acc.peeled_candidates += m.peeled_candidates;
    acc.frames_pruned_by_match += m.frames_pruned_by_match;
    acc.children_pruned_by_parent_bound += m.children_pruned_by_parent_bound;
    acc.prep_words_rebuilt += m.prep_words_rebuilt;
    acc.run_cache_cross_solve_hits += m.run_cache_cross_solve_hits;
}
