//! The executor front end: shard-batched execution, snapshot
//! publication, metrics.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;
use stgq_core::{PivotArena, SelectConfig};
use stgq_graph::SocialGraph;
use stgq_schedule::Calendar;

use crate::cache::ShardedFeasibleCache;
use crate::metrics::{ExecCounters, ExecMetrics};
use crate::obs::ExecObs;
use crate::queue::{JobQueue, TicketSlot};
use crate::request::{ExecError, PlanOutcome, PlanRequest};
use crate::snapshot::{SnapshotCell, WorldSnapshot};
use crate::worker::{run_entry, run_job, ExecShared, Job, Pending, WorkerPool};

/// Construction-time knobs for an [`Executor`].
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Fixed worker-pool size; `0` means all available parallelism.
    pub workers: usize,
    /// Initiator-shard count: the modulus partitioning both the
    /// feasible-graph cache and the batch scheduler's job grouping.
    pub shards: usize,
    /// Total feasible-graph cache capacity, split across shards.
    pub cache_capacity: usize,
    /// Total version-stamped result-cache capacity, split across shards
    /// (`0` disables cross-batch result caching; within-batch request
    /// collapsing is unaffected).
    pub result_cache_capacity: usize,
    /// Engine configuration queries run with (replaceable at runtime via
    /// [`Executor::set_select_config`]).
    pub select: SelectConfig,
    /// Flight-recorder ring capacity — how many recent
    /// [`QueryTrace`](stgq_obs::QueryTrace)s are kept (`0` disables the
    /// ring; the slow-query log still runs).
    pub trace_ring: usize,
    /// Slow-query log size: the `N` slowest solves at or over
    /// [`slow_query_threshold`](Self::slow_query_threshold) are kept
    /// (`0` disables the log).
    pub slow_log: usize,
    /// End-to-end latency at or above which a solve enters the
    /// slow-query log.
    pub slow_query_threshold: std::time::Duration,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            workers: 0,
            shards: 16,
            cache_capacity: 256,
            result_cache_capacity: 512,
            select: SelectConfig::default(),
            trace_ring: 256,
            slow_log: 16,
            slow_query_threshold: std::time::Duration::from_millis(10),
        }
    }
}

/// The sharded, batched query-execution subsystem. See the crate docs
/// for the architecture (shard batching → worker pool → snapshot read
/// path).
pub struct Executor {
    shared: Arc<ExecShared>,
    snapshot: SnapshotCell,
    select: Mutex<SelectConfig>,
    /// Donation slot for inline ([`execute_one`](Self::execute_one))
    /// solves: taken under a short lock, never held across a solve, so
    /// concurrent inline queries at worst run with a fresh arena.
    inline_arena: Mutex<PivotArena>,
    pool: Mutex<WorkerPool>,
    workers: usize,
    shards: usize,
}

impl Executor {
    /// Spawn an executor (and its worker pool) with the given knobs.
    pub fn new(cfg: ExecConfig) -> Self {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let shards = cfg.shards.max(1);
        let shared = Arc::new(ExecShared {
            cache: ShardedFeasibleCache::new(shards, cfg.cache_capacity),
            results: crate::cache::ResultCache::new(shards, cfg.result_cache_capacity),
            counters: ExecCounters::default(),
            obs: ExecObs::new(cfg.trace_ring, cfg.slow_log, cfg.slow_query_threshold),
            jobs: JobQueue::new(),
        });
        let pool = WorkerPool::spawn(&shared, workers);
        Executor {
            shared,
            snapshot: SnapshotCell::default(),
            select: Mutex::new(cfg.select),
            inline_arena: Mutex::new(PivotArena::new()),
            pool: Mutex::new(pool),
            workers,
            shards,
        }
    }

    // -- snapshots ----------------------------------------------------

    /// Swap in a new world epoch. In-flight solves keep (and finish on)
    /// the epoch they started with; there is nothing to wait for.
    ///
    /// Publication cost is tracked per shard: each of the new epoch's
    /// graph segments and calendar slices counts as *reused* when it is
    /// the same `Arc` the previous epoch carried and *rebuilt* otherwise
    /// ([`ExecMetrics::snapshot_shards_reused`] /
    /// [`ExecMetrics::snapshot_shards_rebuilt`]).
    pub fn publish_snapshot(&self, snapshot: Arc<WorldSnapshot>) {
        let publish_t0 = std::time::Instant::now();
        let previous = self.snapshot.current();
        let mut rebuilt = 0u64;
        let mut reused = 0u64;
        match &previous {
            Some(prev) if prev.shard_count() == snapshot.shard_count() => {
                for s in 0..snapshot.shard_count() {
                    if Arc::ptr_eq(prev.graph_segment(s), snapshot.graph_segment(s)) {
                        reused += 1;
                    } else {
                        rebuilt += 1;
                    }
                    if Arc::ptr_eq(prev.calendar_shard(s), snapshot.calendar_shard(s)) {
                        reused += 1;
                    } else {
                        rebuilt += 1;
                    }
                }
            }
            _ => rebuilt = 2 * snapshot.shard_count() as u64,
        }
        self.snapshot.publish(snapshot);
        let c = &self.shared.counters;
        c.snapshot_publishes.fetch_add(1, Ordering::Relaxed);
        c.snapshot_shards_rebuilt
            .fetch_add(rebuilt, Ordering::Relaxed);
        c.snapshot_shards_reused
            .fetch_add(reused, Ordering::Relaxed);
        self.shared
            .obs
            .snapshot_publish
            .record(publish_t0.elapsed());
    }

    /// Convenience [`publish_snapshot`](Self::publish_snapshot) from a
    /// flat world: partitions by this executor's shard modulus and
    /// stamps every shard with the global versions (no dirty tracking —
    /// each publish rebuilds all shards; incremental writers assemble
    /// [`WorldSnapshot::from_parts`] themselves).
    pub fn publish(
        &self,
        graph: &SocialGraph,
        calendars: &[Calendar],
        graph_version: u64,
        calendar_version: u64,
    ) {
        self.publish_snapshot(Arc::new(WorldSnapshot::from_flat(
            graph,
            calendars,
            self.shards,
            graph_version,
            calendar_version,
        )));
    }

    /// Withdraw the published epoch: subsequent solves refuse with
    /// [`ExecError::NoSnapshot`](crate::ExecError::NoSnapshot) until a
    /// new epoch is published (in-flight solves finish on the epoch they
    /// started with). This is how a crashed-and-restarted cluster node
    /// models its lost memory — it must not serve pre-crash state while
    /// it re-syncs.
    pub fn clear_snapshot(&self) {
        self.snapshot.clear();
    }

    /// The current epoch, if one has been published.
    pub fn snapshot(&self) -> Option<Arc<WorldSnapshot>> {
        self.snapshot.current()
    }

    /// The `(graph_version, calendar_version)` stamp of the current
    /// epoch — what a façade compares against its mutable state to decide
    /// whether to publish.
    pub fn snapshot_versions(&self) -> Option<(u64, u64)> {
        self.snapshot.versions()
    }

    // -- configuration ------------------------------------------------

    /// The engine configuration queries run with.
    pub fn select_config(&self) -> SelectConfig {
        *self.select.lock()
    }

    /// Replace the engine configuration for subsequently drained batches
    /// and inline queries. Exactness is config-independent; only search
    /// effort changes.
    pub fn set_select_config(&self, cfg: SelectConfig) {
        *self.select.lock() = cfg;
    }

    /// Fixed worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Initiator-shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    // -- execution ----------------------------------------------------

    /// Answer one request inline on the calling thread, against the
    /// current epoch. This is the low-latency single-query path (no
    /// queue, no handoff); it still shares the feasible-graph cache,
    /// counters and configuration with the batched path.
    pub fn execute_one(&self, request: PlanRequest) -> Result<PlanOutcome, ExecError> {
        let snapshot = self.snapshot.current().ok_or(ExecError::NoSnapshot)?;
        let select = *self.select.lock();
        let mut arena = std::mem::take(&mut *self.inline_arena.lock());
        let result = run_entry(&self.shared, &mut arena, &snapshot, &select, &request, 0);
        *self.inline_arena.lock() = arena;
        result
    }

    /// Answer a whole batch through the worker pool and wait for every
    /// outcome (in input order).
    ///
    /// The batch is grouped by initiator shard (`initiator mod shards`;
    /// input order is kept within a shard, which request collapsing and
    /// the determinism tests rely on), and each shard's entries become
    /// one job on the pool's queue. The calling thread does not idle
    /// while the pool works: it pops shard jobs from the same queue the
    /// workers block on, so a single-core host (or a pool busy with
    /// another batch) never serialises behind a sleeping caller.
    pub fn execute_batch(&self, requests: Vec<PlanRequest>) -> Vec<Result<PlanOutcome, ExecError>> {
        let Some(snapshot) = self.snapshot.current() else {
            return requests
                .iter()
                .map(|_| Err(ExecError::NoSnapshot))
                .collect();
        };
        let select = *self.select.lock();
        let admitted_at = std::time::Instant::now();
        let slots: Vec<Arc<TicketSlot>> = requests
            .iter()
            .map(|_| Arc::new(TicketSlot::new()))
            .collect();
        let mut by_shard: Vec<Vec<Pending>> = Vec::new();
        by_shard.resize_with(self.shards, Vec::new);
        for (request, slot) in requests.into_iter().zip(&slots) {
            by_shard[request.initiator.0 as usize % self.shards].push(Pending {
                request,
                ticket: Arc::clone(slot),
                admitted_at,
            });
        }
        for entries in by_shard.into_iter().filter(|e| !e.is_empty()) {
            let job = Job {
                snapshot: Arc::clone(&snapshot),
                select,
                entries,
            };
            // The queue only closes in `Drop`, which holds `&mut self` —
            // no `&self` batch can race it.
            let accepted = self.shared.jobs.push(job);
            debug_assert!(accepted, "a batch cannot race shutdown");
        }
        // Help drain: steal whole shard jobs onto this thread.
        let mut arena = std::mem::take(&mut *self.inline_arena.lock());
        while let Some(job) = self.shared.jobs.try_pop() {
            run_job(&self.shared, &mut arena, job);
        }
        *self.inline_arena.lock() = arena;
        slots.iter().map(|slot| slot.wait()).collect()
    }

    // -- observability ------------------------------------------------

    /// Latency histograms and the per-query flight recorder.
    pub fn obs(&self) -> &ExecObs {
        &self.shared.obs
    }

    /// Point-in-time counters.
    pub fn metrics(&self) -> ExecMetrics {
        let c = &self.shared.counters;
        let (hits, misses, cached) = self.shared.cache.stats();
        let r = self.shared.results.stats();
        ExecMetrics {
            queries: c.queries.load(Ordering::Relaxed),
            shard_jobs: c.shard_jobs.load(Ordering::Relaxed),
            batched_entries: c.batched_entries.load(Ordering::Relaxed),
            collapsed_entries: c.collapsed_entries.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            feasible_cache_hits: hits,
            feasible_cache_misses: misses,
            cached_feasible_graphs: cached,
            result_cache_hits: r.hits,
            result_cache_misses: r.misses,
            cached_results: r.len,
            result_cache_evicted_stale_shard: r.evicted_stale_shard,
            result_cache_evicted_capacity: r.evicted_capacity,
            snapshot_publishes: c.snapshot_publishes.load(Ordering::Relaxed),
            snapshot_shards_rebuilt: c.snapshot_shards_rebuilt.load(Ordering::Relaxed),
            snapshot_shards_reused: c.snapshot_shards_reused.load(Ordering::Relaxed),
            frames_examined: c.frames_examined.load(Ordering::Relaxed),
            frames_pruned_by_bound: c.frames_pruned_by_bound.load(Ordering::Relaxed),
            pivots_skipped: c.pivots_skipped.load(Ordering::Relaxed),
            peeled_candidates: c.peeled_candidates.load(Ordering::Relaxed),
            pivots_refused_by_core: c.pivots_refused_by_core.load(Ordering::Relaxed),
            frames_pruned_by_match: c.frames_pruned_by_match.load(Ordering::Relaxed),
            children_pruned_by_parent_bound: c
                .children_pruned_by_parent_bound
                .load(Ordering::Relaxed),
            prep_words_delta: c.prep_words_delta.load(Ordering::Relaxed),
            prep_words_rebuilt: c.prep_words_rebuilt.load(Ordering::Relaxed),
            run_cache_cross_solve_hits: 0,
            extract_words_borrowed: c.extract_words_borrowed.load(Ordering::Relaxed),
            workers: self.workers,
            shards: self.shards,
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.pool.lock().shutdown(&self.shared);
    }
}

// The service wraps a `Planner` holding an `Executor` in
// `Arc<RwLock<…>>`; keep the handles thread-mobile by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Executor>();
    assert_send_sync::<PlanOutcome>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use stgq_core::{CancelToken, SgqQuery, StgqQuery};
    use stgq_graph::{GraphBuilder, NodeId};
    use stgq_schedule::SlotRange;

    use crate::request::QuerySpec;
    use crate::Engine;

    /// A 6-person world: triangle 0-1-2 close together, 3-4 further out,
    /// 5 isolated; everyone free on slots 2..=9 of a 12-slot horizon.
    fn demo_graph() -> SocialGraph {
        let mut b = GraphBuilder::new(6);
        b.add_edge(NodeId(0), NodeId(1), 2).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 3).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(0), NodeId(3), 8).unwrap();
        b.add_edge(NodeId(3), NodeId(4), 2).unwrap();
        b.build()
    }

    fn demo_cals() -> Vec<Calendar> {
        let mut cal = Calendar::new(12);
        cal.set_range(SlotRange::new(2, 9), true);
        vec![cal; 6]
    }

    fn world() -> Arc<WorldSnapshot> {
        Arc::new(WorldSnapshot::from_flat(
            &demo_graph(),
            &demo_cals(),
            4,
            1,
            1,
        ))
    }

    fn executor(workers: usize) -> Executor {
        let exec = Executor::new(ExecConfig {
            workers,
            shards: 4,
            cache_capacity: 32,
            result_cache_capacity: 64,
            ..ExecConfig::default()
        });
        exec.publish_snapshot(world());
        exec
    }

    #[test]
    fn no_snapshot_is_an_error_not_a_hang() {
        let exec = Executor::new(ExecConfig {
            workers: 1,
            ..ExecConfig::default()
        });
        let req = PlanRequest::new(
            NodeId(0),
            QuerySpec::Sgq(SgqQuery::new(3, 1, 0).unwrap()),
            Engine::Exact,
        );
        assert_eq!(exec.execute_one(req.clone()), Err(ExecError::NoSnapshot));
        let results = exec.execute_batch(vec![req]);
        assert_eq!(results, vec![Err(ExecError::NoSnapshot)]);
    }

    #[test]
    fn inline_and_batched_agree() {
        let exec = executor(2);
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let stgq = StgqQuery::new(3, 1, 0, 3).unwrap();
        let reqs: Vec<PlanRequest> = vec![
            PlanRequest::new(NodeId(0), QuerySpec::Sgq(sgq), Engine::Exact),
            PlanRequest::new(NodeId(0), QuerySpec::Stgq(stgq), Engine::Exact),
            PlanRequest::new(
                NodeId(1),
                QuerySpec::Sgq(sgq),
                Engine::Greedy { restarts: 2 },
            ),
        ];
        let inline: Vec<_> = reqs
            .iter()
            .map(|r| exec.execute_one(r.clone()).unwrap())
            .collect();
        let batched = exec.execute_batch(reqs);
        for (a, b) in inline.iter().zip(&batched) {
            let b = b.as_ref().unwrap();
            assert_eq!(a.outcome.objective(), b.outcome.objective());
            assert_eq!(a.exact, b.exact);
        }
        assert_eq!(inline[0].outcome.objective(), Some(5));
        assert!(inline[0].exact);
        assert!(!batched[2].as_ref().unwrap().exact, "greedy is never exact");
    }

    #[test]
    fn batch_collapses_identical_entries() {
        let exec = executor(1);
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let req = PlanRequest::new(NodeId(0), QuerySpec::Sgq(sgq), Engine::Exact);
        let results = exec.execute_batch(vec![req.clone(), req.clone(), req]);
        let outcomes: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        assert!(outcomes.iter().all(|o| o.outcome.objective() == Some(5)));
        assert_eq!(outcomes.iter().filter(|o| o.collapsed).count(), 2);
        assert_eq!(exec.metrics().collapsed_entries, 2);
        assert_eq!(exec.metrics().queries, 3, "collapsed entries still count");
    }

    #[test]
    fn entries_with_controls_are_never_collapsed() {
        let exec = executor(1);
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let plain = PlanRequest::new(NodeId(0), QuerySpec::Sgq(sgq), Engine::Exact);
        let tokened = plain.clone().with_cancel(CancelToken::new());
        let results = exec.execute_batch(vec![plain, tokened]);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(exec.metrics().collapsed_entries, 0);
    }

    #[test]
    fn publish_does_not_disturb_running_epochs() {
        let exec = executor(1);
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let before = exec
            .execute_one(PlanRequest::new(
                NodeId(0),
                QuerySpec::Sgq(sgq),
                Engine::Exact,
            ))
            .unwrap();
        // New epoch: vertex 0 gets a cheaper friend.
        let mut b = GraphBuilder::new(6);
        b.add_edge(NodeId(0), NodeId(1), 2).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 3).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(0), NodeId(4), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(4), 1).unwrap();
        exec.publish(&b.build(), &demo_cals(), 2, 1);
        let after = exec
            .execute_one(PlanRequest::new(
                NodeId(0),
                QuerySpec::Sgq(sgq),
                Engine::Exact,
            ))
            .unwrap();
        assert_eq!(before.outcome.objective(), Some(5));
        // New epoch: {0, 1, 4} is fully acquainted at distance 2 + 1.
        assert_eq!(after.outcome.objective(), Some(3), "new epoch, new answer");
        assert_eq!(exec.metrics().snapshot_publishes, 2);
    }

    #[test]
    fn min_epoch_rejects_stale_snapshots() {
        let exec = executor(1); // publishes the (1, 1) epoch
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let ok =
            PlanRequest::new(NodeId(0), QuerySpec::Sgq(sgq), Engine::Exact).with_min_epoch(1, 1);
        assert!(exec.execute_one(ok).is_ok(), "met requirement is served");

        let stale =
            PlanRequest::new(NodeId(0), QuerySpec::Sgq(sgq), Engine::Exact).with_min_epoch(2, 1);
        assert_eq!(
            exec.execute_one(stale.clone()),
            Err(ExecError::EpochTooOld {
                required: (2, 1),
                available: (1, 1),
            })
        );
        // The batched path refuses per entry, without poisoning others.
        let plain = PlanRequest::new(NodeId(0), QuerySpec::Sgq(sgq), Engine::Exact);
        let results = exec.execute_batch(vec![plain, stale]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(ExecError::EpochTooOld { .. })));

        // Catching up satisfies the requirement.
        exec.publish(&demo_graph(), &demo_cals(), 2, 1);
        let caught_up =
            PlanRequest::new(NodeId(0), QuerySpec::Sgq(sgq), Engine::Exact).with_min_epoch(2, 1);
        assert!(exec.execute_one(caught_up).is_ok());
    }

    #[test]
    fn result_cache_replays_repeats_across_batches_and_inline() {
        let exec = executor(1);
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let req = PlanRequest::new(NodeId(0), QuerySpec::Sgq(sgq), Engine::Exact);

        let first = exec.execute_one(req.clone()).unwrap();
        assert!(!first.result_cache_hit, "first solve is fresh");
        let second = exec.execute_one(req.clone()).unwrap();
        assert!(second.result_cache_hit, "inline repeat is replayed");
        assert_eq!(second.outcome, first.outcome, "replay is bit-identical");

        // Across the batched path: the first entry replays the earlier
        // inline solve, the second collapses within the batch.
        let results = exec.execute_batch(vec![req.clone(), req.clone()]);
        let outcomes: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        assert!(outcomes[0].result_cache_hit && !outcomes[0].collapsed);
        assert!(outcomes[1].collapsed && !outcomes[1].result_cache_hit);
        let m = exec.metrics();
        assert_eq!(m.result_cache_hits, 2);
        assert_eq!(m.collapsed_entries, 1);
        assert!(m.cached_results >= 1);

        // Delta-scoped stamps: an SGQ entry carries no calendar stamps,
        // so a calendar-only epoch bump cannot invalidate it…
        exec.publish(&demo_graph(), &demo_cals(), 1, 2);
        let survived = exec.execute_one(req.clone()).unwrap();
        assert!(
            survived.result_cache_hit,
            "SGQ reads no calendars — a calendar-only bump must not evict it"
        );
        // …while an STGQ entry does read calendars, and misses.
        let stgq = StgqQuery::new(3, 1, 0, 3).unwrap();
        let treq = PlanRequest::new(NodeId(0), QuerySpec::Stgq(stgq), Engine::Exact);
        assert!(!exec.execute_one(treq.clone()).unwrap().result_cache_hit);
        assert!(exec.execute_one(treq.clone()).unwrap().result_cache_hit);
        exec.publish(&demo_graph(), &demo_cals(), 1, 3);
        assert!(
            !exec.execute_one(treq).unwrap().result_cache_hit,
            "an STGQ entry is stamped with calendar shards and must miss"
        );
        // A graph bump moves every stamped graph shard (flat publishes
        // flood the stamps) and invalidates the SGQ replay too.
        exec.publish(&demo_graph(), &demo_cals(), 2, 3);
        let fresh = exec.execute_one(req).unwrap();
        assert!(
            !fresh.result_cache_hit,
            "a graph-version bump must miss the stamp"
        );
        assert!(exec.metrics().result_cache_evicted_stale_shard >= 2);
    }

    #[test]
    fn publish_counts_rebuilt_versus_reused_shards() {
        let exec = executor(1); // first publish: no previous epoch
        let m = exec.metrics();
        assert_eq!(
            (m.snapshot_shards_rebuilt, m.snapshot_shards_reused),
            (8, 0)
        );

        // Next epoch shares every sub-snapshot Arc except graph shard 2,
        // which is rebuilt (content-identical, but a fresh allocation).
        let prev = exec.snapshot().unwrap();
        let segments: Vec<_> = (0..4)
            .map(|s| {
                if s == 2 {
                    let old = prev.graph_segment(2);
                    Arc::new(stgq_graph::GraphSegment::build((0..old.rows()).map(|r| {
                        let (nbrs, dists) = old.row(r);
                        nbrs.iter()
                            .copied()
                            .zip(dists.iter().copied())
                            .collect::<Vec<_>>()
                    })))
                } else {
                    Arc::clone(prev.graph_segment(s))
                }
            })
            .collect();
        let cal_shards: Vec<_> = (0..4).map(|s| Arc::clone(prev.calendar_shard(s))).collect();
        exec.publish_snapshot(Arc::new(WorldSnapshot::from_parts(
            segments,
            vec![1, 1, 2, 1],
            cal_shards,
            vec![1; 4],
            2,
            1,
        )));
        let m = exec.metrics();
        assert_eq!(
            (m.snapshot_shards_rebuilt, m.snapshot_shards_reused),
            (9, 7)
        );
    }

    #[test]
    fn zero_capacity_disables_the_result_cache() {
        let exec = Executor::new(ExecConfig {
            workers: 1,
            result_cache_capacity: 0,
            ..ExecConfig::default()
        });
        exec.publish_snapshot(world());
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let req = PlanRequest::new(NodeId(0), QuerySpec::Sgq(sgq), Engine::Exact);
        assert!(!exec.execute_one(req.clone()).unwrap().result_cache_hit);
        assert!(!exec.execute_one(req).unwrap().result_cache_hit);
        let m = exec.metrics();
        assert_eq!((m.result_cache_hits, m.result_cache_misses), (0, 0));
        assert_eq!(m.cached_results, 0);
    }

    #[test]
    fn out_of_range_initiator_is_rejected_per_entry() {
        let exec = executor(1);
        let sgq = SgqQuery::new(2, 1, 1).unwrap();
        let good = PlanRequest::new(NodeId(0), QuerySpec::Sgq(sgq), Engine::Exact);
        let bad = PlanRequest::new(NodeId(77), QuerySpec::Sgq(sgq), Engine::Exact);
        let results = exec.execute_batch(vec![good, bad]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(ExecError::InitiatorOutOfRange { .. })
        ));
    }

    #[test]
    fn cancelled_exact_engine_reports_cancelled_not_truncated() {
        // The exact engine must honour per-request cancellation under
        // the executor for both query kinds — the solve polls
        // `SolveControl`, and the stop cause is `Cancelled`, never
        // conflated with budget truncation.
        use stgq_core::StopCause;
        let exec = executor(1);
        let stgq = StgqQuery::new(3, 1, 1, 3).unwrap();
        let token = CancelToken::new();
        token.cancel();
        for spec in [
            QuerySpec::Stgq(stgq),
            QuerySpec::Sgq(SgqQuery::new(3, 1, 1).unwrap()),
        ] {
            let req = PlanRequest::new(NodeId(0), spec, Engine::Exact).with_cancel(token.clone());
            let outcome = exec.execute_one(req).unwrap();
            assert_eq!(outcome.stop, StopCause::Cancelled, "{spec:?}");
            assert!(!outcome.exact, "a cancelled answer is not proven optimal");
            assert!(outcome.outcome.stats().cancelled);
            assert!(
                !outcome.outcome.stats().truncated,
                "cancellation must not masquerade as budget truncation"
            );
        }
        assert_eq!(exec.metrics().cancelled, 2);
    }

    #[test]
    fn a_batch_past_the_old_flush_threshold_matches_single_answers() {
        // 100 entries — more than the 64 at which admission once flushed
        // on its own — over all six people (5 is isolated) and both
        // query kinds.
        let sgq = SgqQuery::new(3, 2, 1).unwrap();
        let stgq = StgqQuery::new(3, 2, 1, 3).unwrap();
        let requests: Vec<PlanRequest> = (0..100u32)
            .map(|i| {
                let spec = if i % 2 == 0 {
                    QuerySpec::Sgq(sgq)
                } else {
                    QuerySpec::Stgq(stgq)
                };
                PlanRequest::new(NodeId(i % 6), spec, Engine::Exact)
            })
            .collect();
        let batch = executor(2);
        let batched = batch.execute_batch(requests.clone());
        assert_eq!(batched.len(), requests.len());
        let m = batch.metrics();
        assert_eq!(m.batched_entries, 100);
        assert_eq!(
            m.shard_jobs, 4,
            "one job per initiator shard the batch touched"
        );

        let alone = executor(1);
        for (request, got) in requests.into_iter().zip(batched) {
            let want = alone.execute_one(request).unwrap();
            assert_eq!(got.unwrap().outcome.objective(), want.outcome.objective());
        }
    }
}
