//! The executor's observability surface: latency histograms over every
//! serving stage plus the per-query flight recorder (types from
//! [`stgq_obs`]).
//!
//! All recording happens on the *envelope* — after the engine returned,
//! or around whole cache/publish operations — never inside the search
//! loop; the only in-solve cost is the two clock reads per descended
//! pivot that [`stgq_core::StageTimings`] pays (see `crates/core`'s
//! `timings` module). Histograms are lock-free; the recorder takes one
//! short mutex per actual solve.

use std::time::Duration;

use stgq_obs::{FlightRecorder, Histogram, HistogramSnapshot};

/// Names of the executor's histogram families, in exposition order —
/// the keys [`ExecObs::histograms`] returns and the cluster merges
/// fleet-wide. (RPC round-trip histograms are cluster-side and not in
/// this list.)
pub const EXEC_HISTOGRAMS: [&str; 8] = [
    "end_to_end",
    "queue_wait",
    "solve",
    "prep",
    "descend",
    "feasible_extract",
    "snapshot_build",
    "snapshot_publish",
];

/// Latency histograms and the flight recorder, shared by every worker
/// and the inline path. Obtain it from
/// [`Executor::obs`](crate::Executor::obs).
#[derive(Debug)]
pub struct ExecObs {
    /// End-to-end answer latency: job-queue wait plus the whole
    /// answer envelope (validation, cache lookups, extraction, solve,
    /// stamping). Every answered query samples this — result-cache
    /// replays and collapsed clones included, which is what makes the
    /// fast path visible as the distribution's low mode.
    pub end_to_end: Histogram,
    /// Job-queue wait: `execute_batch` took the entry → a worker (or
    /// the helping batch caller) picked it up. Batched entries only;
    /// the inline path has no queue and records no sample.
    pub queue_wait: Histogram,
    /// Engine wall clock, per actual solve (fast-path answers skip it).
    pub solve: Histogram,
    /// Pivot-preparation share of STGQ solves, from
    /// [`stgq_core::StageTimings`]. Engines without a pivot loop (SGQ,
    /// heuristics) record no sample.
    pub prep: Histogram,
    /// Exact-descent share of STGQ solves (same source and
    /// caveats as [`prep`](Self::prep)).
    pub descend: Histogram,
    /// Feasible-graph extraction wall clock, on cache misses (a hit
    /// costs a stamped lookup and records no sample).
    pub feasible_extract: Histogram,
    /// Snapshot assembly: the publisher's `World::snapshot` (the
    /// planner's `sync_snapshot`, a cluster node's publish) — re-using
    /// unmoved shards and chunks, rebuilding the touched chunks. The
    /// executor receives finished snapshots, so only those publishers
    /// record it.
    pub snapshot_build: Histogram,
    /// Snapshot publication: the epoch diff (reused-vs-rebuilt shard
    /// accounting) plus the swap.
    pub snapshot_publish: Histogram,
    /// The per-query flight recorder: recent-trace ring + slowest-N
    /// slow-query log. Only actual solves emit traces.
    pub recorder: FlightRecorder,
}

impl ExecObs {
    /// Build from the executor's recorder knobs (ring capacity, slow-log
    /// size, slow-query threshold).
    pub(crate) fn new(trace_ring: usize, slow_log: usize, slow_threshold: Duration) -> Self {
        let threshold_ns = u64::try_from(slow_threshold.as_nanos()).unwrap_or(u64::MAX);
        ExecObs {
            end_to_end: Histogram::new(),
            queue_wait: Histogram::new(),
            solve: Histogram::new(),
            prep: Histogram::new(),
            descend: Histogram::new(),
            feasible_extract: Histogram::new(),
            snapshot_build: Histogram::new(),
            snapshot_publish: Histogram::new(),
            recorder: FlightRecorder::new(trace_ring, slow_log, threshold_ns),
        }
    }

    /// Prometheus `HELP` text for one of the [`EXEC_HISTOGRAMS`]
    /// families (or the cluster's RPC families) — kept next to the
    /// histogram definitions so the exposition in `stgq-service` and
    /// `stgq-cluster` cannot drift from what is actually recorded.
    pub fn histogram_help(name: &str) -> &'static str {
        match name {
            "end_to_end" => {
                "End-to-end answer latency in ns (queue wait + whole envelope; \
                 cache replays and collapsed clones included)."
            }
            "queue_wait" => {
                "Job-queue wait in ns: from execute_batch taking the entry until a worker \
                 or the batch caller picked it up (batched entries only)."
            }
            "solve" => "Engine wall clock per actual solve in ns (fast-path answers skip it).",
            "prep" => "Pivot-preparation share of STGQ solves in ns (StageTimings).",
            "descend" => "Exact-descent share of STGQ solves in ns (StageTimings).",
            "feasible_extract" => {
                "Feasible-graph extraction wall clock in ns, on feasible-cache misses."
            }
            "snapshot_build" => {
                "Snapshot assembly in ns: re-use unmoved shards and chunks, rebuild touched chunks."
            }
            "snapshot_publish" => {
                "Snapshot publication in ns: epoch diff (shard reuse accounting) plus swap."
            }
            "rpc_replication" => {
                "Cluster replication RPC round-trip in ns, whole retry loop incl. backoff."
            }
            "rpc_execute" => {
                "Cluster execute (scatter) RPC round-trip in ns, whole retry loop incl. backoff."
            }
            "rpc_status" => {
                "Cluster status/metrics probe round-trip in ns, whole retry loop incl. backoff."
            }
            _ => "Latency histogram in ns.",
        }
    }

    /// Snapshots of every histogram, keyed by [`EXEC_HISTOGRAMS`] name —
    /// the unit the cluster ships between nodes and merges fleet-wide.
    pub fn histograms(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        vec![
            ("end_to_end", self.end_to_end.snapshot()),
            ("queue_wait", self.queue_wait.snapshot()),
            ("solve", self.solve.snapshot()),
            ("prep", self.prep.snapshot()),
            ("descend", self.descend.snapshot()),
            ("feasible_extract", self.feasible_extract.snapshot()),
            ("snapshot_build", self.snapshot_build.snapshot()),
            ("snapshot_publish", self.snapshot_publish.snapshot()),
        ]
    }
}
