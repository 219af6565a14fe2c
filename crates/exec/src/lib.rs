//! `stgq-exec` — the query-execution subsystem behind the planning
//! service: a server-side engine that answers *many* SGQ/STGQ queries
//! over one shared social graph, extracted from the monolithic
//! `stgq-service` planner so execution policy (batching, sharding,
//! worker placement, snapshot lifetimes) lives in one crate.
//!
//! # Architecture: shard batching → worker pool → snapshots
//!
//! A query's life through the executor. There are two ways in:
//! [`Executor::execute_one`] answers one [`PlanRequest`] inline on the
//! caller's thread, and [`Executor::execute_batch`] answers a whole
//! batch through the pool:
//!
//! 1. **Shard batching.** `execute_batch` groups its requests by
//!    **initiator shard** (`initiator mod shards`) into per-shard jobs,
//!    preserving input order within a shard. There is no admission
//!    queue and no timer: a batch is exactly what its caller passed,
//!    which the batch-equivalence tests rely on, and the pool's job
//!    queue holds at most `shards` jobs per batch in flight (the caller
//!    blocks until its own jobs are answered). Everything keyed by
//!    initiator — above all the feasible-graph cache — is sharded the
//!    same way, so one job touches one cache shard and same-initiator
//!    queries run back to back against a warm cache entry. Within a
//!    job, *identical* entries (same initiator, query, engine, no
//!    per-entry deadline/cancel) are **collapsed**: solved once, the
//!    outcome cloned to every copy. On a serving workload with hot
//!    queries this is where batching beats a per-query loop even on a
//!    single core. Across batches (and the inline path) the same sharing
//!    continues through the **version-stamped result cache**: finished
//!    outcomes keyed by `(initiator, spec, engine)` and stamped with the
//!    `(graph_version, calendar_version)` epoch they were solved on —
//!    a repeat of a deterministic query on an unchanged world is
//!    replayed, not re-solved
//!    ([`ExecMetrics::result_cache_hits`]/[`ExecMetrics::result_cache_misses`]).
//! 2. **Worker pool.** A fixed set of threads (spawned at construction,
//!    joined on drop) blocks on the job queue. Each worker owns one
//!    [`PivotArena`](stgq_core::PivotArena) reused across every STGQ it
//!    solves — the zero-per-query-allocation property the sequential
//!    planner had, preserved per worker. Batch callers *help drain* the
//!    job queue instead of idling, so a one-core host pays no handoff
//!    tax.
//! 3. **Snapshot read path.** Workers never touch mutable state: they
//!    solve against an immutable [`WorldSnapshot`] (`Arc`-shared CSR
//!    graph + calendars, stamped with the graph/calendar versions it
//!    was built from). Writers publish a fresh snapshot into the
//!    executor's epoch cell ([`Executor::publish_snapshot`]) — an
//!    `Arc` swap, so **mutations never block in-flight solves**:
//!    running queries finish on the epoch they started with and drop
//!    their reference when done.
//!
//! Cancellation and deadlines ride the engines' frame-counter path
//! ([`stgq_core::SolveControl`]): a [`PlanRequest`] may carry a
//! [`CancelToken`](stgq_core::CancelToken) and/or a deadline, and a
//! stopped solve reports [`StopCause::Cancelled`](stgq_core::StopCause)
//! — never conflated with an anytime budget running out
//! ([`StopCause::FrameBudget`](stgq_core::StopCause)).
//!
//! The service crate's `Planner` is now a thin façade over this crate:
//! it owns the *mutable* world (network + calendars), publishes
//! snapshots on drift, and forwards queries one at a time
//! ([`Executor::execute_one`], inline on the caller thread) or in
//! batches ([`Executor::execute_batch`], through the pool).
//!
//! Exactness is engine-scoped, not executor-scoped: the executor never
//! reorders a query's search, so a batch of exact queries yields
//! bit-identical objectives to solving them sequentially — the
//! executor-determinism tests pin that across worker counts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod engine;
mod executor;
mod metrics;
mod obs;
mod queue;
mod request;
#[cfg(feature = "serde")]
mod serde_impls;
mod snapshot;
mod worker;

pub use engine::Engine;
pub use executor::{ExecConfig, Executor};
pub use metrics::ExecMetrics;
pub use obs::{ExecObs, EXEC_HISTOGRAMS};
pub use request::{ExecError, PlanOutcome, PlanRequest, QuerySpec};
pub use snapshot::WorldSnapshot;
