//! The four serving workloads: what world each one builds, what stream of
//! reads and writes it sends, and why it exists.
//!
//! Everything is a pure function of the workload seed: the world, the
//! query pools and the operation stream. The program under test only ever
//! sees the generated inputs, through its public API.

use stgq_core::{SgqQuery, StgqQuery};
use stgq_datagen::metropolis::{metropolis_with_communities, MetropolisConfig};
use stgq_datagen::scenario::{plaza, real_analog_194};
use stgq_datagen::Dataset;
use stgq_exec::QuerySpec;
use stgq_graph::{Dist, NodeId};
use stgq_service::{BatchQuery, Engine};

use crate::util::Rng;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload::PaperMixed,
    Workload::MetroRw,
    Workload::PlazaBatch,
    Workload::ClusterTcp,
];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own regime: exact SGQ/STGQ on the 194-person analog.
    PaperMixed,
    /// A 10^5-member world under a read/write mix.
    MetroRw,
    /// Batches over the one-hub plaza world through the worker pool.
    PlazaBatch,
    /// Two nodes behind loopback TCP, with read-your-writes.
    ClusterTcp,
}

/// Which generated world a workload serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum World {
    /// `real_analog_194` over `days` days of half-hour slots.
    RealAnalog { days: usize },
    /// `metropolis` with `members` people in shard-aligned communities.
    Metropolis { members: usize, shards: usize },
    /// `plaza`: 1200 people around one hub.
    Plaza { days: usize },
}

/// How a workload calls the program and how big its inputs are.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// The world the planner or cluster is loaded with.
    pub world: World,
    /// Queries per read call: 1 means inline `plan_sgq`/`plan_stgq`,
    /// more means one `plan_batch` call.
    pub batch: usize,
    /// One write after every `write_every` reads (0: no writes).
    pub write_every: usize,
    /// Executor worker threads (per node on the cluster workload).
    pub workers: usize,
    /// Serving nodes behind loopback TCP (0: a single in-process planner).
    pub nodes: usize,
    /// Distinct queries in the seeded pool the stream cycles through
    /// (0: every query is drawn fresh, so the hot set is unbounded).
    pub pool: usize,
}

impl Workload {
    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMixed => "paper-mixed",
            Workload::MetroRw => "metro-rw",
            Workload::PlazaBatch => "plaza-batch",
            Workload::ClusterTcp => "cluster-tcp",
        }
    }

    /// Why the workload exists, in one line: its shape and the layer it
    /// loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperMixed => {
                "real_analog_194, 7 days; inline SGQ/STGQ 50/50 over Figure-1 \
                 (p,s,k,m); no writes. Paper regime: core prep and descent do the \
                 work, result cache misses"
            }
            Workload::MetroRw => {
                "metropolis 10^5 members, 16 shards; zipf community reads, 1 write \
                 per 8 reads. Graph extract and shard rebuild dominate; hot set \
                 exceeds the result cache"
            }
            Workload::PlazaBatch => {
                "plaza 1200 members; plan_batch of 32 radius-2 queries, hub \
                 repeats, 1 worker. Extract and prep over ~1200 rows; only \
                 workload with queue wait and collapsing"
            }
            Workload::ClusterTcp => {
                "real_analog_194 on 2 nodes x 1 worker over loopback TCP, \
                 read-your-writes; batches of 16 to one node in turn, 1 write \
                 per 4 batches. Only workload with RPC, replication, router"
            }
        }
    }

    /// The workload's size and call pattern at benchmark scale.
    pub fn shape(self) -> Shape {
        match self {
            Workload::PaperMixed => Shape {
                world: World::RealAnalog { days: 7 },
                batch: 1,
                write_every: 0,
                workers: 1,
                nodes: 0,
                pool: 2048,
            },
            Workload::MetroRw => Shape {
                world: World::Metropolis {
                    members: 100_000,
                    shards: 16,
                },
                batch: 1,
                write_every: 8,
                workers: 1,
                nodes: 0,
                pool: 0,
            },
            Workload::PlazaBatch => Shape {
                world: World::Plaza { days: 1 },
                batch: 32,
                write_every: 0,
                // One worker: on the two shared vCPUs a second worker added no
                // qps and spread read_p99_us and peak_rss_mb three to six
                // times as much between runs.
                workers: 1,
                nodes: 0,
                pool: 1024,
            },
            Workload::ClusterTcp => Shape {
                world: World::RealAnalog { days: 7 },
                batch: 16,
                write_every: 4,
                workers: 1,
                nodes: 2,
                // Every (asker, shape) pair: 194 people x (12 SGQ + 48
                // STGQ small shapes).
                pool: 194 * 60,
            },
        }
    }
}

impl Shape {
    /// The same call pattern over a smaller world, for tests.
    pub fn with_world(mut self, world: World) -> Shape {
        self.world = world;
        self
    }

    /// Executor shard count: the metropolis alignment modulus, else the
    /// executor default.
    pub fn shards(&self) -> usize {
        match self.world {
            World::Metropolis { shards, .. } => shards,
            _ => 16,
        }
    }
}

/// A write the stream sends through the public mutation API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Write {
    /// Re-weight an existing friendship (`connect` on an existing edge).
    Reweight {
        a: NodeId,
        b: NodeId,
        distance: Dist,
    },
    /// Mark one slot (un)available.
    Slot {
        person: NodeId,
        slot: usize,
        available: bool,
    },
}

/// One operation of a stream: a read call or a write.
#[derive(Clone, Debug)]
pub enum Op {
    /// One read call: inline when it holds one query, else `plan_batch`.
    Read(Vec<BatchQuery>),
    /// One mutation.
    Write(Write),
}

/// A generated world plus what the stream needs to know about it.
pub struct Generated {
    /// The dataset loaded into the program.
    pub dataset: Dataset,
    /// Community member lists (metropolis only; empty otherwise).
    pub communities: Vec<Vec<u32>>,
}

/// The seed every workload's world is generated from. The world stays
/// fixed, as the paper's evaluation fixes its dataset; the workload seed
/// draws the query pool, the stream order, the initiators and the writes.
pub const WORLD_SEED: u64 = 20_110_829;

/// Build the world for `shape`.
pub fn generate(shape: &Shape) -> Generated {
    let seed = WORLD_SEED;
    match shape.world {
        World::RealAnalog { days } => Generated {
            dataset: real_analog_194(days, seed),
            communities: Vec::new(),
        },
        World::Metropolis { members, shards } => {
            let cfg = MetropolisConfig {
                shards,
                ..MetropolisConfig::with_members(members)
            };
            let (dataset, communities) = metropolis_with_communities(&cfg, 1, seed);
            Generated {
                dataset,
                communities,
            }
        }
        World::Plaza { days } => Generated {
            dataset: plaza(days, seed),
            communities: Vec::new(),
        },
    }
}

fn sgq(p: usize, s: usize, k: usize) -> QuerySpec {
    QuerySpec::Sgq(SgqQuery::new(p, s, k).expect("workload queries are valid"))
}

fn stgq(p: usize, s: usize, k: usize, m: usize) -> QuerySpec {
    QuerySpec::Stgq(StgqQuery::new(p, s, k, m).expect("workload queries are valid"))
}

fn exact(initiator: NodeId, spec: QuerySpec) -> BatchQuery {
    BatchQuery {
        initiator,
        spec,
        engine: Engine::Exact,
    }
}

/// The query shapes a workload asks, SGQ and STGQ apart. Streams
/// alternate the two kinds and cycle through each list, so every seed asks
/// every shape equally often; the seed picks who asks.
fn query_shapes(workload: Workload) -> [Vec<QuerySpec>; 2] {
    match workload {
        Workload::PaperMixed => [figure1_shapes(false), figure1_shapes(true)],
        Workload::MetroRw | Workload::ClusterTcp => [small_shapes(false), small_shapes(true)],
        Workload::PlazaBatch => [plaza_shapes(false), plaza_shapes(true)],
    }
}

/// The paper's Figure-1 sweeps, each panel varying one axis around fixed
/// values: 1(a) p in 3..=11 at s=1, k=2; 1(b) s in {1,3,5} at p=4, k=2;
/// 1(c) k in 1..=6 at p=5, s=2; 1(e) m in 2..=24 (even) at p=4, s=2, k=2.
/// STGQ queries off the m panel use Figure 1(f)'s m=4.
fn figure1_shapes(temporal: bool) -> Vec<QuerySpec> {
    let spec = |p, s, k| {
        if temporal {
            stgq(p, s, k, 4)
        } else {
            sgq(p, s, k)
        }
    };
    let mut shapes: Vec<QuerySpec> = (3..=11).map(|p| spec(p, 1, 2)).collect();
    shapes.extend([1, 3, 5].map(|s| spec(4, s, 2)));
    shapes.extend((1..=6).map(|k| spec(5, 2, k)));
    if temporal {
        shapes.extend((1..=12).map(|i| stgq(4, 2, 2, 2 * i)));
    }
    shapes
}

/// Small queries (the metropolis and cluster workloads): groups of 3–5
/// within one or two hops, activities of 1–4 slots.
fn small_shapes(temporal: bool) -> Vec<QuerySpec> {
    let mut shapes = Vec::new();
    for p in 3..=5 {
        for s in 1..=2 {
            for k in 1..=2 {
                if temporal {
                    shapes.extend((1..=4).map(|m| stgq(p, s, k, m)));
                } else {
                    shapes.push(sgq(p, s, k));
                }
            }
        }
    }
    shapes
}

/// Radius-2 plaza queries: everyone within two hops is a candidate, and
/// each member may be unacquainted with all but one other (k = p - 2), so
/// the exact descent seats a group within a few frames.
fn plaza_shapes(temporal: bool) -> Vec<QuerySpec> {
    let mut shapes = Vec::new();
    for p in 3..=4 {
        if temporal {
            shapes.extend((1..=4).map(|m| stgq(p, 2, p - 2, m)));
        } else {
            shapes.push(sgq(p, 2, p - 2));
        }
    }
    shapes
}

/// Salts separating the independent random streams drawn from one seed.
const POOL_SALT: u64 = 0x706f_6f6c;
const STREAM_SALT: u64 = 0x7374_7265;
const WARM_SALT: u64 = 0x7761_726d;

/// What query and write generation needs to know about the world.
struct Sampler {
    workload: Workload,
    shapes: [Vec<QuerySpec>; 2],
    /// Who asks, in a seeded order that query sequences cycle through
    /// (the plaza hub excluded: its repeats are added per batch).
    askers: Vec<NodeId>,
    people: usize,
    horizon: usize,
    /// Metropolis: communities by zipf popularity rank and the rank CDF.
    communities: Vec<Vec<u32>>,
    zipf_cdf: Vec<f64>,
}

impl Sampler {
    /// The `i`-th query of a sequence: its shape and asker by position
    /// (on metro-rw, the asker is drawn by community popularity).
    fn query(&self, rng: &mut Rng, i: usize) -> BatchQuery {
        let shapes = &self.shapes[i % 2];
        let spec = shapes[(i / 2) % shapes.len()];
        let initiator = if self.workload == Workload::MetroRw {
            let members = self.community(rng);
            NodeId(members[rng.below(members.len())])
        } else {
            self.askers[i % self.askers.len()]
        };
        exact(initiator, spec)
    }

    fn write(&self, rng: &mut Rng) -> Write {
        if self.workload != Workload::MetroRw {
            return Write::Slot {
                person: self.person(rng),
                slot: rng.below(self.horizon),
                available: rng.below(2) == 0,
            };
        }
        // Writes stay inside one community, so they dirty one shard.
        let members = self.community(rng);
        if members.len() >= 2 && rng.below(2) == 0 {
            // Consecutive members are always acquainted (the generator's
            // connectivity chain), so this re-weights an existing edge.
            let i = rng.below(members.len() - 1);
            Write::Reweight {
                a: NodeId(members[i]),
                b: NodeId(members[i + 1]),
                distance: 1 + rng.below(60) as Dist,
            }
        } else {
            Write::Slot {
                person: NodeId(members[rng.below(members.len())]),
                slot: rng.below(self.horizon),
                available: rng.below(2) == 0,
            }
        }
    }

    fn person(&self, rng: &mut Rng) -> NodeId {
        NodeId(rng.below(self.people) as u32)
    }

    /// A community drawn by zipf popularity rank.
    fn community(&self, rng: &mut Rng) -> &[u32] {
        let u = rng.unit();
        let rank = self.zipf_cdf.partition_point(|&c| c < u);
        &self.communities[rank.min(self.communities.len() - 1)]
    }
}

/// The deterministic, unbounded operation stream of one workload run.
pub struct Stream {
    shape: Shape,
    sampler: Sampler,
    rng: Rng,
    /// Seeded pool of distinct queries, visited in a seeded cyclic order.
    pool: Vec<BatchQuery>,
    /// Position in the pool, or queries drawn so far without one.
    cursor: usize,
    /// The pool split by initiator shard, with a cursor per shard
    /// (cluster batches draw from one shard per node).
    by_shard: Vec<(Vec<BatchQuery>, usize)>,
    /// Cluster batches sent so far (picks the node a batch goes to).
    batches: usize,
    reads_since_write: usize,
}

impl Stream {
    /// The measured stream for `seed`.
    pub fn new(workload: Workload, shape: Shape, world: &Generated, seed: u64) -> Stream {
        Stream::salted(workload, shape, world, seed, STREAM_SALT)
    }

    /// A warm-up stream over the same pool, in another order and without
    /// writes.
    pub fn warm_up(workload: Workload, shape: Shape, world: &Generated, seed: u64) -> Stream {
        let shape = Shape {
            write_every: 0,
            ..shape
        };
        Stream::salted(workload, shape, world, seed, WARM_SALT)
    }

    fn salted(workload: Workload, shape: Shape, world: &Generated, seed: u64, salt: u64) -> Stream {
        let mut pool_rng = Rng::new(seed ^ POOL_SALT);
        let mut communities = world.communities.clone();
        pool_rng.shuffle(&mut communities);
        let people = world.dataset.graph.node_count() as u32;
        let first = u32::from(workload == Workload::PlazaBatch);
        let mut askers: Vec<NodeId> = (first..people).map(NodeId).collect();
        pool_rng.shuffle(&mut askers);
        let sampler = Sampler {
            workload,
            shapes: query_shapes(workload),
            askers,
            people: people as usize,
            horizon: world.dataset.grid.horizon(),
            zipf_cdf: zipf_cdf(communities.len()),
            communities,
        };
        let mut pool = Vec::with_capacity(shape.pool);
        if workload == Workload::ClusterTcp {
            // Every asker with every shape, so seeds differ only in the
            // order queries come and who shares a batch, not in how hard
            // the run's queries are on the whole.
            for &initiator in &sampler.askers {
                for &spec in sampler.shapes.iter().flatten() {
                    pool.push(exact(initiator, spec));
                }
            }
            debug_assert_eq!(pool.len(), shape.pool);
        }
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 * shape.pool {
            if pool.len() == shape.pool {
                break;
            }
            let q = sampler.query(&mut pool_rng, i);
            if seen.insert(query_key(&q)) {
                pool.push(q);
            }
        }
        // The warm-up and measured streams visit the same pool in
        // different seeded orders.
        let mut rng = Rng::new(seed ^ salt);
        rng.shuffle(&mut pool);
        let shards = shape.shards();
        let mut by_shard = vec![(Vec::new(), 0); shards];
        for q in &pool {
            by_shard[q.initiator.index() % shards].0.push(*q);
        }
        Stream {
            shape,
            sampler,
            rng,
            pool,
            cursor: 0,
            by_shard,
            batches: 0,
            reads_since_write: 0,
        }
    }

    fn next_query(&mut self) -> BatchQuery {
        if self.pool.is_empty() {
            self.cursor += 1;
            return self.sampler.query(&mut self.rng, self.cursor - 1);
        }
        let q = self.pool[self.cursor];
        self.cursor = (self.cursor + 1) % self.pool.len();
        q
    }

    /// The plaza batch: mostly pool entries from distinct initiators,
    /// plus the hub asking one of two queries several times.
    fn plaza_batch(&mut self) -> Vec<BatchQuery> {
        const HUB_ENTRIES: usize = 4;
        let mut batch: Vec<BatchQuery> = (0..self.shape.batch - HUB_ENTRIES)
            .map(|_| self.next_query())
            .collect();
        for _ in 0..HUB_ENTRIES {
            let spec = if self.rng.below(2) == 0 {
                sgq(4, 2, 2)
            } else {
                stgq(4, 2, 2, 2)
            };
            let at = self.rng.below(batch.len() + 1);
            batch.insert(at, exact(NodeId(0), spec));
        }
        batch
    }

    /// The cluster batch: every query from one initiator shard, owned by
    /// one node (the router assigns shard `s` to node `s % nodes`), the
    /// nodes taking turns batch by batch. Each call is one RPC to one
    /// node, so its latency is not the slower of several nodes that share
    /// the host's few cores.
    fn cluster_batch(&mut self) -> Vec<BatchQuery> {
        let nodes = self.shape.nodes;
        let node = self.batches % nodes;
        self.batches += 1;
        let shards = self.by_shard.len();
        let mut shard = node + nodes * self.rng.below(shards.div_ceil(nodes));
        while shard >= shards || self.by_shard[shard].0.is_empty() {
            shard = node + nodes * self.rng.below(shards.div_ceil(nodes));
        }
        let (queries, cursor) = &mut self.by_shard[shard];
        (0..self.shape.batch)
            .map(|_| {
                let q = queries[*cursor];
                *cursor = (*cursor + 1) % queries.len();
                q
            })
            .collect()
    }
}

/// A hashable identity for a query (initiator, kind and parameters).
pub fn query_key(q: &BatchQuery) -> (u32, u8, [usize; 4]) {
    match q.spec {
        QuerySpec::Sgq(s) => (q.initiator.0, 0, [s.p(), s.s(), s.k(), 0]),
        QuerySpec::Stgq(s) => (q.initiator.0, 1, [s.p(), s.s(), s.k(), s.m()]),
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let shape = self.shape;
        if shape.write_every > 0 && self.reads_since_write == shape.write_every {
            self.reads_since_write = 0;
            return Some(Op::Write(self.sampler.write(&mut self.rng)));
        }
        self.reads_since_write += 1;
        let batch = match self.sampler.workload {
            Workload::PlazaBatch => self.plaza_batch(),
            Workload::ClusterTcp => self.cluster_batch(),
            _ => (0..shape.batch).map(|_| self.next_query()).collect(),
        };
        Some(Op::Read(batch))
    }
}

/// Cumulative zipf(1) weights over `n` popularity ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}
