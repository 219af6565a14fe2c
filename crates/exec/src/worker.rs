//! The fixed worker pool and per-entry execution.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stgq_core::{PivotArena, SelectConfig, SolveControl, StageTimings, StopCause};
use stgq_obs::{QueryTrace, StageBreakdown};
use stgq_schedule::{Calendar, Cals};

use crate::cache::{ResultCache, ShardedFeasibleCache};
use crate::engine::{run_spec, Engine};
use crate::metrics::ExecCounters;
use crate::obs::ExecObs;
use crate::queue::{JobQueue, TicketSlot};
use crate::request::{ExecError, PlanOutcome, PlanRequest, QuerySpec};
use crate::snapshot::WorldSnapshot;

/// One batched request awaiting execution.
pub(crate) struct Pending {
    pub(crate) request: PlanRequest,
    pub(crate) ticket: Arc<TicketSlot>,
    /// When [`Executor::execute_batch`](crate::Executor::execute_batch)
    /// took the request — the start of its queue wait.
    pub(crate) admitted_at: Instant,
}

/// One shard's slice of a batch: every entry shares the
/// initiator shard, the snapshot epoch and the engine configuration.
pub(crate) struct Job {
    pub(crate) snapshot: Arc<WorldSnapshot>,
    pub(crate) select: SelectConfig,
    pub(crate) entries: Vec<Pending>,
}

/// State shared by the workers, the executor front end and batch callers
/// helping to drain.
pub(crate) struct ExecShared {
    pub(crate) cache: ShardedFeasibleCache,
    pub(crate) results: ResultCache,
    pub(crate) counters: ExecCounters,
    pub(crate) obs: ExecObs,
    pub(crate) jobs: JobQueue<Job>,
}

/// Nanoseconds of a duration, saturating at `u64::MAX`.
#[inline]
fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Execute every entry of one shard job in submission order, fulfilling
/// tickets as results land. `arena` is the executing thread's pooled
/// pivot buffers (one per worker — a job re-uses it across all of its
/// STGQ entries).
pub(crate) fn run_job(shared: &ExecShared, arena: &mut PivotArena, job: Job) {
    shared.counters.shard_jobs.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .batched_entries
        .fetch_add(job.entries.len() as u64, Ordering::Relaxed);
    // Request collapsing: identical entries (same initiator/spec/engine,
    // no per-entry deadline or token) are deterministic on one snapshot,
    // so solve the first and clone the outcome to the rest. The scan is
    // linear in answered-distinct entries — shard jobs are small.
    let mut solved: Vec<(PlanRequest, PlanOutcome)> = Vec::new();
    for entry in job.entries {
        let request = entry.request;
        let queue_wait_ns = ns(entry.admitted_at.elapsed());
        shared.obs.queue_wait.record_ns(queue_wait_ns);
        if request.collapsible() {
            if let Some((_, prior)) = solved
                .iter()
                .find(|(r, _)| r.collapse_key() == request.collapse_key())
            {
                let mut outcome = prior.clone();
                outcome.collapsed = true;
                // The flags stay disjoint: a clone within the batch is
                // "collapsed", however the first entry was answered.
                outcome.result_cache_hit = false;
                outcome.elapsed = Duration::ZERO;
                shared
                    .counters
                    .collapsed_entries
                    .fetch_add(1, Ordering::Relaxed);
                shared.counters.queries.fetch_add(1, Ordering::Relaxed);
                // The envelope sees every answer: a collapsed clone's
                // end-to-end latency is its queue wait, and its stop
                // cause is counted exactly like a fresh solve's.
                shared.counters.note_stop(outcome.stop);
                shared.obs.end_to_end.record_ns(queue_wait_ns);
                entry.ticket.fulfill(Ok(outcome));
                continue;
            }
        }
        let result = run_entry(
            shared,
            arena,
            &job.snapshot,
            &job.select,
            &request,
            queue_wait_ns,
        );
        if let Ok(outcome) = &result {
            if request.collapsible() {
                solved.push((request, outcome.clone()));
            }
        }
        entry.ticket.fulfill(result);
    }
}

/// An [`Engine::Greedy`] restart count that makes [`answer`] panic,
/// so tests can drive the unwind path through a real batch.
#[cfg(test)]
pub(crate) const PANIC_RESTARTS: usize = 0x5eed_dead;

/// Solve one request against one snapshot epoch. `queue_wait_ns` is the
/// entry's queue wait (0 on the inline path), folded into its
/// end-to-end latency sample and trace.
///
/// A panicking solve is answered, not propagated: the entry gets
/// [`ExecError::SolvePanicked`], the event is counted, and `arena` — which
/// may hold a half-built pivot — is replaced by a fresh one. So a batch
/// never waits on a ticket whose solver unwound, and the thread (a pool
/// worker or a caller helping to drain) keeps serving.
pub(crate) fn run_entry(
    shared: &ExecShared,
    arena: &mut PivotArena,
    snapshot: &WorldSnapshot,
    select: &SelectConfig,
    request: &PlanRequest,
    queue_wait_ns: u64,
) -> Result<PlanOutcome, ExecError> {
    let solve = || answer(shared, arena, snapshot, select, request, queue_wait_ns);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve)).unwrap_or_else(|payload| {
        *arena = PivotArena::new();
        shared.counters.solve_panics.fetch_add(1, Ordering::Relaxed);
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(ExecError::SolvePanicked { message })
    })
}

/// [`run_entry`] without the unwind guard.
fn answer(
    shared: &ExecShared,
    arena: &mut PivotArena,
    snapshot: &WorldSnapshot,
    select: &SelectConfig,
    request: &PlanRequest,
    queue_wait_ns: u64,
) -> Result<PlanOutcome, ExecError> {
    let envelope_t0 = Instant::now();
    let node_count = snapshot.node_count();
    if request.initiator.index() >= node_count {
        return Err(ExecError::InitiatorOutOfRange {
            initiator: request.initiator,
            node_count,
        });
    }
    // Read-your-writes admission: a snapshot older than the request's
    // minimum epoch on either axis must not answer it.
    if let Some(required) = request.min_epoch {
        let available = snapshot.versions();
        if available.0 < required.0 || available.1 < required.1 {
            return Err(ExecError::EpochTooOld {
                required,
                available,
            });
        }
    }
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    // Cross-batch result cache: deterministic requests (no deadline, no
    // token) repeat across batches and inline calls; an identical query
    // whose stamped shards are all unmoved is simply replayed.
    if request.collapsible() {
        if let Some(outcome) =
            shared
                .results
                .get(request.initiator, request.spec, request.engine, snapshot)
        {
            // The replay fast path is still an answered query: it
            // samples end-to-end latency (that is what makes the cache
            // visible as the distribution's low mode) and counts its
            // stop cause at the envelope like every other answer.
            shared.counters.note_stop(outcome.stop);
            shared
                .obs
                .end_to_end
                .record_ns(queue_wait_ns.saturating_add(ns(envelope_t0.elapsed())));
            return Ok(outcome);
        }
    }
    let extract_t0 = Instant::now();
    let (view, feasible_cache_hit) =
        shared
            .cache
            .get_or_extract(snapshot, request.initiator, request.spec.s());
    let extract_ns = if feasible_cache_hit {
        0
    } else {
        shared
            .counters
            .extract_words_borrowed
            .fetch_add(view.words_generated(), Ordering::Relaxed);
        let d = ns(extract_t0.elapsed());
        shared.obs.feasible_extract.record_ns(d);
        d
    };

    let mut control = SolveControl::new();
    if let Some(deadline) = request.deadline {
        control = control.with_deadline(deadline);
    }
    if let Some(token) = &request.cancel {
        control = control.with_cancel(token.clone());
    }
    let control = (!control.is_noop()).then_some(&control);

    let calendars: Cals<'_> = match &request.spec {
        QuerySpec::Stgq(_) => snapshot.calendars().into(),
        QuerySpec::Sgq(_) => (&[] as &[Calendar]).into(),
    };
    // The arena may have last served a different engine family (SGQ
    // solves never touch its timings) — wipe, so the split read below is
    // this solve's or nothing.
    arena.timings = StageTimings::default();
    #[cfg(test)]
    if request.engine
        == (Engine::Greedy {
            restarts: PANIC_RESTARTS,
        })
    {
        panic!("injected solve panic");
    }
    let start = Instant::now();
    let (outcome, evaluations) = run_spec(
        &view,
        calendars,
        &request.spec,
        request.engine,
        select,
        control,
        arena,
    );
    let elapsed = start.elapsed();
    let timings = arena.timings;

    shared.counters.note_search(outcome.stats());
    let stop = outcome.stop_cause();
    shared.counters.note_stop(stop);
    // Consistency by construction: heuristics never claim exactness, and
    // the exact family is exact iff nothing (budget *or* cancellation)
    // stopped the search — `exact` and `stop` cannot disagree.
    let exact = request.engine.reports_search_stats() && stop == StopCause::Completed;
    let plan_outcome = PlanOutcome {
        outcome,
        evaluations,
        exact,
        stop,
        engine: request.engine,
        elapsed,
        feasible_cache_hit,
        collapsed: false,
        result_cache_hit: false,
    };
    if request.collapsible() {
        // Stamp the entry with the shards this solve actually read: the
        // feasible graph's shards on the graph axis, the same shards on
        // the calendar axis for STGQ — and nothing at all for SGQ, which
        // no calendar edit can invalidate.
        let calendar_stamps = match &request.spec {
            QuerySpec::Stgq(_) => snapshot.calendar_stamps_for(view.as_ref()),
            QuerySpec::Sgq(_) => Vec::new(),
        };
        shared.results.put(
            request.initiator,
            request.spec,
            request.engine,
            snapshot.shard_count(),
            snapshot.graph_stamps_for(view.as_ref()),
            calendar_stamps,
            plan_outcome.clone(),
        );
    }

    // Latency spectrum + flight record for the actual solve.
    let total_ns = queue_wait_ns.saturating_add(ns(envelope_t0.elapsed()));
    let obs = &shared.obs;
    obs.solve.record(elapsed);
    obs.end_to_end.record_ns(total_ns);
    if !timings.is_empty() {
        obs.prep.record_ns(timings.prepare_ns);
        obs.descend.record_ns(timings.descend_ns);
    }
    if obs.recorder.enabled() {
        let stats = plan_outcome.outcome.stats();
        obs.recorder.record(QueryTrace {
            initiator: request.initiator.0,
            query: query_label(&request.spec, request.engine),
            stages: StageBreakdown {
                queue_wait_ns,
                extract_ns,
                prepare_ns: timings.prepare_ns,
                descend_ns: timings.descend_ns,
                solve_ns: ns(elapsed),
                total_ns,
            },
            objective: plan_outcome.outcome.objective(),
            stop: stop_label(stop),
            exact: plan_outcome.exact,
            feasible_cache_hit,
            frames: stats.frames_examined(),
            frames_pruned_by_bound: stats.frames_pruned_by_bound(),
            frames_pruned_by_match: stats.frames_pruned_by_match,
            pivots_processed: stats.pivots_processed,
            pivots_skipped: stats.pivots_skipped,
            peeled_candidates: stats.peeled_candidates,
            prep_words_delta: stats.prep_words_delta,
            prep_words_rebuilt: stats.prep_words_rebuilt,
        });
    }
    Ok(plan_outcome)
}

/// Human-readable query + engine label for traces, e.g.
/// `stgq(p=4,s=2,k=2,m=4)/exact`.
fn query_label(spec: &QuerySpec, engine: Engine) -> String {
    let engine = match engine {
        Engine::Exact => "exact",
        Engine::Anytime { .. } => "anytime",
        Engine::Greedy { .. } => "greedy",
        Engine::LocalSearch { .. } => "local_search",
    };
    match spec {
        QuerySpec::Sgq(q) => format!("sgq(p={},s={},k={})/{engine}", q.p(), q.s(), q.k()),
        QuerySpec::Stgq(q) => format!(
            "stgq(p={},s={},k={},m={})/{engine}",
            q.p(),
            q.s(),
            q.k(),
            q.m()
        ),
    }
}

/// Stable string form of a stop cause for traces and reports.
fn stop_label(stop: StopCause) -> &'static str {
    match stop {
        StopCause::Completed => "completed",
        StopCause::FrameBudget => "frame_budget",
        StopCause::Cancelled => "cancelled",
    }
}

/// The fixed worker pool: `workers` threads blocking on the shared job
/// queue, each owning one [`PivotArena`] for its lifetime.
pub(crate) struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    pub(crate) fn spawn(shared: &Arc<ExecShared>, workers: usize) -> Self {
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("stgq-exec-{i}"))
                    .spawn(move || {
                        let mut arena = PivotArena::new();
                        while let Some(job) = shared.jobs.pop_blocking() {
                            run_job(&shared, &mut arena, job);
                        }
                    })
                    .expect("spawning an executor worker")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Workers whose thread is still running.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.handles.iter().filter(|h| !h.is_finished()).count()
    }

    /// Close the queue and join every worker (idempotent on the queue
    /// side; called from the executor's `Drop`).
    pub(crate) fn shutdown(&mut self, shared: &ExecShared) {
        shared.jobs.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
