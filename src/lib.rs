//! # stgq — Social-Temporal Group Query
//!
//! A complete Rust implementation of *On Social-Temporal Group Query with
//! Acquaintance Constraint* (Yang, Chen, Lee, Chen — PVLDB 4(6), 2011):
//! optimal activity planning over a social network and its members'
//! calendars.
//!
//! Given an initiator, SGQ picks the `p` socially-closest attendees within
//! `s` hops such that nobody faces more than `k` strangers; STGQ
//! additionally picks `m` consecutive time slots everybody is free.
//! Both are NP-hard; the exact engines here (SGSelect / STGSelect) solve
//! realistic instances in microseconds-to-milliseconds via the paper's
//! pruning strategies.
//!
//! # Performance
//!
//! The exact engines run on a word-parallel, zero-allocation search core:
//! availability bitmaps and Lemma-5 counters are built and maintained
//! whole-`u64`-words at a time, search frames share one undo-logged `VA`
//! state instead of cloning per descent, and the `U`/`A` feasibility
//! conditions are evaluated from incrementally-maintained aggregates (see
//! the `stgq_core` crate docs, "Hot-path architecture"). The serving path
//! is **zero-copy end to end**: per query the executor extracts a
//! borrowed `FeasibleView` — a compact candidate index plus one masked
//! adjacency word matrix generated straight over the snapshot's sharded
//! CSR segments — instead of materializing a `FeasibleGraph` (per-row
//! neighbor/weight vectors and bitsets). The engines consume either
//! carrier through the `CandidateTopology` trait with bit-identical
//! results; the materialized `FeasibleGraph` carries the flat-graph
//! entry points, the baselines and the reference engines. The
//! pre-optimization engines are kept in `stgq::query::reference` and the
//! `hotpath` criterion suite (`cargo bench -p stgq-bench --bench hotpath`)
//! measures one against the other; the committed `BENCH_core.json`
//! baseline shows ~1.8–3.1× on fig1f-style instances, with the largest
//! gains where the temporal counters dominate (long activities, long
//! schedules). Each exact solve is one sequential search; the serving
//! layer uses more cores by answering more queries at once
//! (`stgq::exec::Executor`'s worker pool).
//!
//! This crate is a facade over the workspace:
//!
//! * [`graph`] — weighted social graph, bounded distances, feasible graph;
//! * [`schedule`] — slot grids, calendars, pivot time slots;
//! * [`query`] — the query engines (SGSelect, STGSelect, baselines,
//!   PCArrange, STGArrange, heuristic solvers) and the
//!   solution validator;
//! * [`kplex`] — the k-plex substrate behind the acquaintance constraint
//!   (maximum k-plex, maximal enumeration, the Theorem-1 reduction);
//! * [`mip`] — a from-scratch simplex + branch & bound;
//! * [`ip`] — the paper's Appendix-D Integer Programming formulation;
//! * [`datagen`] — synthetic datasets shaped after the paper's evaluation;
//! * [`exec`] — the sharded, batched query-execution subsystem
//!   (initiator-shard batching → fixed worker pool → epoch-swapped
//!   snapshot read path) serving many concurrent queries over one shared
//!   graph;
//! * [`service`] — a long-lived planning service with incremental updates;
//!   its `Planner` is a thin façade over [`exec`] and emits a replicable
//!   delta feed from its version counters;
//! * [`cluster`] — shard-routed multi-node serving over replicated epoch
//!   snapshots: a shard router scatters batches across per-node
//!   executors, a single writer ships version-stamped deltas (full sync
//!   on attach or gap) through a pluggable transport, and read-your-writes
//!   is enforced via minimum-epoch requirements on requests;
//! * [`obs`] — dependency-free observability primitives: lock-free log₂
//!   latency histograms, the per-query flight recorder, and the
//!   Prometheus text renderer/parser.
//!
//! # Observability
//!
//! Every serving layer records into the same spectrum — lock-free log₂
//! histograms ([`obs::Histogram`]) and a per-query flight recorder
//! ([`obs::FlightRecorder`]) — exposed as Prometheus text by
//! `service::Planner::prometheus_text` (one process) and
//! `cluster::ClusterObs::prometheus_text` (fleet-merged plus per-node),
//! and from the command line by `stgq-plan metrics`. Instrumentation is
//! always compiled in; the only in-solve cost is two clock reads per
//! descended pivot (`query::StageTimings`), gated by the `obs-overhead`
//! bench at ≤ 2%.
//!
//! The counters and histograms map onto the serving pipeline like this
//! (histogram families carry the `_ns` suffix in the exposition):
//!
//! | Pipeline stage | Histograms | Counters (`exec::ExecMetrics`) |
//! |---|---|---|
//! | **queue** — `execute_batch` takes the entry → a worker picks it up | `queue_wait` | `batched_entries` |
//! | **shard batch** — group by initiator shard, collapse repeats | — | `shard_jobs`, `collapsed_entries` (and `queries`) |
//! | **cache** — version-stamped result replay, feasible-graph lookup | `end_to_end` low mode | `result_cache_hits`/`misses`, `result_cache_evicted_*`, `feasible_cache_hits`/`misses` |
//! | **extract** — zero-copy candidate view over the snapshot's CSR segments | `feasible_extract` | `extract_words_borrowed` |
//! | **prepare** — pivot availability buffers from a per-solve run cache | `prep` | `prep_words_delta`, `prep_words_rebuilt` |
//! | **peel** — fixpoint (p, k)-core reduction before descent | inside `solve` | `peeled_candidates`, `pivots_refused_by_core` |
//! | **floor** — pivot-granularity distance bound skipping whole pivots | inside `solve` | `pivots_skipped` |
//! | **descend** — the exact branch & bound itself | `descend`, `solve` | `frames_examined`, `frames_pruned_by_bound`, `frames_pruned_by_match`, `children_pruned_by_parent_bound`, `cancelled`, `solve_panics` |
//! | **publish** — copy-on-publish snapshot build after mutations (touched 64-row chunks rebuilt, the rest `Arc`-reused), then the epoch swap | `snapshot_build`, `snapshot_publish` | `snapshot_publishes`, `snapshot_shards_rebuilt`/`reused` (the exposition adds `mutations`, the writer's delta sequence) |
//!
//! End-to-end latency (`end_to_end`) spans the whole row set: queue wait
//! plus the answer envelope, sampled for every answer including replays.
//! The cluster adds per-message-class RPC round-trip histograms
//! (`rpc_replication`, `rpc_execute`, `rpc_status` — retry backoff
//! included) and per-node lag/suspicion gauges. Solves slower than
//! `exec::ExecConfig::slow_query_threshold` land in the slow-query log
//! with their full stage breakdown (`stgq-plan metrics --slow-log`; the
//! `stgq-plan --help` text walks through a triage).
//!
//! ```
//! use stgq::prelude::*;
//!
//! // Five friends around the initiator v0; plan a 3-person get-together
//! // where everyone knows everyone (k = 0) among direct friends (s = 1).
//! let mut b = GraphBuilder::new(5);
//! b.add_edge(NodeId(0), NodeId(1), 4).unwrap();
//! b.add_edge(NodeId(0), NodeId(2), 6).unwrap();
//! b.add_edge(NodeId(0), NodeId(3), 9).unwrap();
//! b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
//! let graph = b.build();
//!
//! let query = SgqQuery::new(3, 1, 0).unwrap();
//! let out = solve_sgq(&graph, NodeId(0), &query, &SelectConfig::default()).unwrap();
//! assert_eq!(out.solution.unwrap().total_distance, 10);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use stgq_cluster as cluster;
pub use stgq_core as query;
pub use stgq_datagen as datagen;
pub use stgq_exec as exec;
pub use stgq_graph as graph;
pub use stgq_ip as ip;
pub use stgq_kplex as kplex;
pub use stgq_mip as mip;
pub use stgq_obs as obs;
pub use stgq_schedule as schedule;
pub use stgq_service as service;

/// The items nearly every user needs.
pub mod prelude {
    pub use stgq_core::{
        pc_arrange, solve_sgq, solve_sgq_exhaustive, solve_stgq, solve_stgq_sequential,
        stg_arrange, SelectConfig, SgqEngine, SgqQuery, StgqQuery,
    };
    pub use stgq_graph::{Dist, GraphBuilder, NodeId, SocialGraph};
    pub use stgq_schedule::{Calendar, SlotRange, TimeGrid};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_whole_pipeline() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 2).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        let g = b.build();
        let cals = vec![Calendar::all_available(6); 3];
        let q = StgqQuery::new(3, 1, 0, 2).unwrap();
        let out = solve_stgq(&g, NodeId(0), &cals, &q, &SelectConfig::default()).unwrap();
        let sol = out.solution.unwrap();
        assert_eq!(sol.total_distance, 3);
        assert_eq!(sol.period.len(), 2);
    }
}
