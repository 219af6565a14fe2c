//! The query front end — since the `stgq-exec` extraction, a **thin
//! façade** over the execution subsystem.
//!
//! The planner owns a [`Writer`] (the mutable [`World`](crate::World)
//! plus its delta log) and an [`Executor`] owning everything about
//! *answering* queries: the epoch-swapped immutable snapshots, the
//! shard-partitioned feasible-graph cache, engine dispatch, the
//! shard batching + fixed worker pool, and the execution counters.
//! Mutations stay planner methods (`&mut self`) that hand the change to
//! the writer, whose world applies it as a
//! [`WorldDelta`](crate::WorldDelta) and whose log records it. Before
//! any query the planner compares the world's versions against the
//! executor's published epoch and, on drift, publishes the world's
//! [`snapshot`](crate::World::snapshot) — an `Arc` swap that never
//! blocks in-flight solves.
//!
//! Single queries ([`plan_sgq`](Planner::plan_sgq) /
//! [`plan_stgq`](Planner::plan_stgq)) run inline on the caller's thread
//! (low latency, shared caches); batches
//! ([`plan_batch`](Planner::plan_batch)) go through shard batching →
//! the worker pool, where identical entries are collapsed and
//! same-initiator entries share cache locality.

use std::sync::Arc;

use parking_lot::Mutex;
use stgq_core::{
    SearchStats, SelectConfig, SgqQuery, SgqSolution, SolveOutcome, StgqQuery, StgqSolution,
};
use stgq_exec::{
    Engine, ExecConfig, ExecError, ExecMetrics, Executor, PlanOutcome, PlanRequest, QuerySpec,
};
use stgq_graph::{Dist, NodeId, SocialGraph};
use stgq_schedule::{Calendar, SlotRange};

use crate::{CalendarStore, MutableNetwork, ServiceError, Writer};

/// An answer to a planning request, with provenance. `S` is the
/// solution type: [`SgqSolution`] for an SGQ, [`StgqSolution`] (group
/// and period) for an STGQ.
#[derive(Clone, Debug)]
pub struct PlanReport<S> {
    /// The solution found, `None` if the engine found none (for exact
    /// engines this proves infeasibility; for heuristics it does not).
    pub solution: Option<S>,
    /// Search counters (exact engines only).
    pub stats: Option<SearchStats>,
    /// Feasibility evaluations (heuristic engines only).
    pub evaluations: Option<u64>,
    /// Whether the answer is proven optimal / proven infeasible.
    pub exact: bool,
    /// The engine that produced it.
    pub engine: Engine,
    /// Wall-clock time inside the engine (excludes cache work).
    pub elapsed: std::time::Duration,
    /// Whether the feasible graph came from the cache.
    pub feasible_cache_hit: bool,
    /// Whether the whole answer was replayed from the version-stamped
    /// result cache (identical earlier query on an unchanged world).
    pub result_cache_hit: bool,
}

/// Answer to an SGQ planning request.
pub type SgqReport = PlanReport<SgqSolution>;

/// Answer to an STGQ planning request.
pub type StgqReport = PlanReport<StgqSolution>;

impl<S> PlanReport<S> {
    /// `outcome`'s provenance around `solution`, taken out of it.
    fn new(outcome: &PlanOutcome, solution: Option<S>) -> Self {
        PlanReport {
            solution,
            stats: outcome
                .engine
                .reports_search_stats()
                .then(|| *outcome.outcome.stats()),
            evaluations: outcome.evaluations,
            exact: outcome.exact,
            engine: outcome.engine,
            elapsed: outcome.elapsed,
            feasible_cache_hit: outcome.feasible_cache_hit,
            result_cache_hit: outcome.result_cache_hit,
        }
    }
}

/// One entry of a [`Planner::plan_batch`] call.
#[derive(Clone, Copy, Debug)]
pub struct BatchQuery {
    /// Who is asking.
    pub initiator: NodeId,
    /// What is being asked (SGQ or STGQ).
    pub spec: QuerySpec,
    /// Which solver answers it.
    pub engine: Engine,
}

/// One entry of a [`Planner::plan_batch`] answer: the matching report
/// kind for the submitted [`QuerySpec`].
#[derive(Clone, Debug)]
pub enum PlanReply {
    /// The entry was an SGQ.
    Sgq(SgqReport),
    /// The entry was an STGQ.
    Stgq(StgqReport),
}

impl PlanReply {
    /// The report of an executor answer, of the answer's own kind.
    fn from_outcome(mut outcome: PlanOutcome) -> Self {
        match &mut outcome.outcome {
            SolveOutcome::Sgq(out) => {
                let solution = out.solution.take();
                PlanReply::Sgq(PlanReport::new(&outcome, solution))
            }
            SolveOutcome::Stgq(out) => {
                let solution = out.solution.take();
                PlanReply::Stgq(PlanReport::new(&outcome, solution))
            }
        }
    }

    /// The objective value, if a solution was found.
    pub fn objective(&self) -> Option<Dist> {
        match self {
            PlanReply::Sgq(r) => r.solution.as_ref().map(|s| s.total_distance),
            PlanReply::Stgq(r) => r.solution.as_ref().map(|s| s.total_distance),
        }
    }

    /// Whether the answer is proven optimal / proven infeasible.
    pub fn exact(&self) -> bool {
        match self {
            PlanReply::Sgq(r) => r.exact,
            PlanReply::Stgq(r) => r.exact,
        }
    }

    /// The SGQ report, if this entry was an SGQ.
    pub fn as_sgq(&self) -> Option<&SgqReport> {
        match self {
            PlanReply::Sgq(r) => Some(r),
            PlanReply::Stgq(_) => None,
        }
    }

    /// The STGQ report, if this entry was an STGQ.
    pub fn as_stgq(&self) -> Option<&StgqReport> {
        match self {
            PlanReply::Sgq(_) => None,
            PlanReply::Stgq(r) => Some(r),
        }
    }
}

/// A long-lived activity-planning service instance.
///
/// Mutations take `&mut self`; planning queries take `&self` (their
/// caching is interior), so a read-write lock around the whole planner —
/// see [`crate::SharedPlanner`] — gives concurrent queries for free.
pub struct Planner {
    writer: Writer,
    exec: Executor,
    /// Serialises snapshot publication so concurrent readers racing the
    /// same version drift rebuild once, not once each.
    publish_lock: Mutex<()>,
}

/// Default bound on distinct `(initiator, s)` feasible graphs kept.
const DEFAULT_CACHE_CAPACITY: usize = 256;

impl Planner {
    /// A fresh service over `horizon` time slots, with the paper's default
    /// engine configuration.
    pub fn new(horizon: usize) -> Self {
        Planner::with_config(horizon, SelectConfig::default(), DEFAULT_CACHE_CAPACITY)
    }

    /// Full-control constructor (engine configuration + feasible-graph
    /// cache capacity, with default executor sizing).
    pub fn with_config(horizon: usize, cfg: SelectConfig, cache_capacity: usize) -> Self {
        Planner::with_exec_config(
            horizon,
            ExecConfig {
                select: cfg,
                cache_capacity,
                ..ExecConfig::default()
            },
        )
    }

    /// Fullest-control constructor: every executor knob (worker count,
    /// shard count, cache capacities, trace recorder) is the caller's.
    pub fn with_exec_config(horizon: usize, cfg: ExecConfig) -> Self {
        let exec = Executor::new(cfg);
        Planner {
            // The world stamps shards by the executor's modulus, so
            // publication maps moved stamps directly onto sub-snapshots.
            writer: Writer::new(horizon, exec.shards()),
            exec,
            publish_lock: Mutex::new(()),
        }
    }

    /// The engine configuration planning queries run with (the
    /// search-reduction knobs — seeding, pivot ordering, access-order
    /// tie-breaking — are [`SelectConfig`] fields, so they are set at construction via
    /// [`with_config`](Self::with_config) and read back here).
    pub fn config(&self) -> SelectConfig {
        self.exec.select_config()
    }

    /// Replace the engine configuration for subsequent queries. Exactness
    /// is config-independent; only search effort changes.
    pub fn set_config(&mut self, cfg: SelectConfig) {
        self.exec.set_select_config(cfg);
    }

    /// The execution subsystem behind this planner — for direct batch
    /// execution with deadlines/cancellation tokens, latency histograms,
    /// or snapshot inspection.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    // -- mutations ----------------------------------------------------

    /// Register a person; their calendar starts fully unavailable.
    pub fn add_person(&mut self, label: impl Into<String>) -> NodeId {
        self.writer.add_person(label)
    }

    /// Create or re-weight a friendship.
    pub fn connect(&mut self, a: NodeId, b: NodeId, distance: Dist) -> Result<(), ServiceError> {
        self.writer.connect(a, b, distance)
    }

    /// Remove a friendship; reports whether it existed.
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) -> Result<bool, ServiceError> {
        self.writer.disconnect(a, b)
    }

    /// Tombstone a person (id stays, edges and eligibility disappear).
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

    /// Replace a whole calendar (horizon must match the store).
    pub fn set_calendar(&mut self, person: NodeId, calendar: Calendar) -> Result<(), ServiceError> {
        self.writer.set_calendar(person, calendar)
    }

    /// The writer behind this planner: its world and the replication
    /// feed of every accepted mutation.
    pub fn writer(&self) -> &Writer {
        &self.writer
    }

    /// The writer, mutably — the full mutation surface beyond the
    /// helpers above. The next query publishes whatever it changed.
    pub fn writer_mut(&mut self) -> &mut Writer {
        &mut self.writer
    }

    // -- reads ----------------------------------------------------------

    /// The underlying network (read-only).
    pub fn network(&self) -> &MutableNetwork {
        self.writer.world().network()
    }

    /// The underlying calendar store (read-only).
    pub fn calendars(&self) -> &CalendarStore {
        self.writer.world().calendars()
    }

    /// The executor's counters. Mutations are counted by the writer
    /// ([`Writer::delta_seq`]).
    pub fn exec_metrics(&self) -> ExecMetrics {
        self.exec.metrics()
    }

    /// A flat CSR export of the current network — a fresh build on every
    /// call (the serving path holds sharded snapshots; this flat view
    /// exists for oracle checks and offline analysis).
    pub fn graph_snapshot(&self) -> Arc<SocialGraph> {
        Arc::new(self.network().snapshot())
    }

    /// Ensure the executor's published epoch matches the world: on
    /// drift, publish the world's snapshot built against the current
    /// epoch, so only the dirty shards are re-frozen.
    fn sync_snapshot(&self) {
        let versions = self.writer.world().versions();
        if self.exec.snapshot_versions() == Some(versions) {
            return;
        }
        let _guard = self.publish_lock.lock();
        // Re-check under the lock: a racing reader may have published.
        let current = self.exec.snapshot();
        if current.as_ref().is_some_and(|s| s.versions() == versions) {
            return;
        }
        let snapshot = self.writer.world().snapshot(current.as_deref());
        self.exec.publish_snapshot(Arc::new(snapshot));
    }

    /// Executor errors the façade's pre-validation should have made
    /// impossible; surface the nearest service error rather than panic.
    fn exec_error(e: ExecError) -> ServiceError {
        match e {
            ExecError::InitiatorOutOfRange {
                initiator,
                node_count,
            } => ServiceError::UnknownPerson {
                person: initiator,
                person_count: node_count,
            },
            ExecError::NoSnapshot | ExecError::EpochTooOld { .. } => {
                ServiceError::ExecutorUnavailable {
                    reason: e.to_string(),
                }
            }
        }
    }

    /// The one query path: validate the initiator, publish on drift,
    /// answer inline on this thread against the current epoch.
    fn plan(
        &self,
        initiator: NodeId,
        spec: QuerySpec,
        engine: Engine,
    ) -> Result<PlanReply, ServiceError> {
        self.network().check_person(initiator)?;
        self.sync_snapshot();
        let request = PlanRequest::new(initiator, spec, engine);
        let outcome = self.exec.execute_one(request).map_err(Self::exec_error)?;
        Ok(PlanReply::from_outcome(outcome))
    }

    /// Answer an SGQ with the chosen engine (inline on this thread,
    /// against the current epoch).
    pub fn plan_sgq(
        &self,
        initiator: NodeId,
        query: &SgqQuery,
        engine: Engine,
    ) -> Result<SgqReport, ServiceError> {
        match self.plan(initiator, QuerySpec::Sgq(*query), engine)? {
            PlanReply::Sgq(report) => Ok(report),
            PlanReply::Stgq(_) => unreachable!("an SGQ is answered with an SGQ outcome"),
        }
    }

    /// Answer an STGQ with the chosen engine (inline on this thread,
    /// against the current epoch).
    pub fn plan_stgq(
        &self,
        initiator: NodeId,
        query: &StgqQuery,
        engine: Engine,
    ) -> Result<StgqReport, ServiceError> {
        match self.plan(initiator, QuerySpec::Stgq(*query), engine)? {
            PlanReply::Stgq(report) => Ok(report),
            PlanReply::Sgq(_) => unreachable!("an STGQ is answered with an STGQ outcome"),
        }
    }

    /// Answer a whole batch of mixed SGQ/STGQ queries through the
    /// executor's batched path: initiator-shard grouping → the fixed
    /// worker pool (identical entries collapsed, same-shard entries
    /// cache-local). Replies come back in input order; entries with an
    /// invalid initiator fail individually without poisoning the batch.
    /// Exact engines return bit-identical objectives to solving the same
    /// queries one by one.
    pub fn plan_batch(&self, queries: &[BatchQuery]) -> Vec<Result<PlanReply, ServiceError>> {
        // Pre-validate so invalid entries never reach the executor, and
        // so valid entries keep batching even when some fail.
        let checked: Vec<Result<(), ServiceError>> = queries
            .iter()
            .map(|q| self.network().check_person(q.initiator))
            .collect();
        if checked.iter().any(|c| c.is_ok()) {
            self.sync_snapshot();
        }
        let requests: Vec<PlanRequest> = queries
            .iter()
            .zip(&checked)
            .filter(|(_, c)| c.is_ok())
            .map(|(q, _)| PlanRequest::new(q.initiator, q.spec, q.engine))
            .collect();
        let mut executed = self.exec.execute_batch(requests).into_iter();
        checked
            .into_iter()
            .map(|check| {
                check.and_then(|()| {
                    let outcome = executed
                        .next()
                        .expect("one executed entry per validated query")
                        .map_err(Self::exec_error)?;
                    Ok(PlanReply::from_outcome(outcome))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgq_core::{solve_sgq, solve_stgq};

    /// A 6-person service: triangle a-b-c close to each other, d-e further
    /// out, f isolated.
    fn demo() -> (Planner, Vec<NodeId>) {
        demo_with(ExecConfig::default())
    }

    /// As [`demo`], with explicit executor sizing (the cache-probing
    /// tests disable the result cache so repeats exercise the layer
    /// under test instead of replaying).
    fn demo_with(cfg: ExecConfig) -> (Planner, Vec<NodeId>) {
        let mut p = Planner::with_exec_config(12, cfg);
        let ids: Vec<NodeId> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|l| p.add_person(*l))
            .collect();
        p.connect(ids[0], ids[1], 2).unwrap();
        p.connect(ids[0], ids[2], 3).unwrap();
        p.connect(ids[1], ids[2], 1).unwrap();
        p.connect(ids[0], ids[3], 8).unwrap();
        p.connect(ids[3], ids[4], 2).unwrap();
        for &id in &ids {
            p.set_availability_range(id, SlotRange::new(2, 9), true)
                .unwrap();
        }
        (p, ids)
    }

    #[test]
    fn exact_sgq_end_to_end() {
        let (p, ids) = demo();
        let q = SgqQuery::new(3, 1, 0).unwrap();
        let report = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        let sol = report.solution.unwrap();
        assert_eq!(sol.total_distance, 5);
        assert!(report.exact);
        assert!(report.stats.is_some());
    }

    /// A tie heavier than `MAX_DISTANCE` is refused at `connect`: stored,
    /// `1 + u64::MAX` would wrap c's radius-2 distance from 50 to 0 and
    /// make `{a, b, c}` (total 1) beat the true optimum `{a, b, d}` = 3.
    #[test]
    fn an_overflowing_distance_is_refused_at_connect() {
        let mut p = Planner::new(4);
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|l| p.add_person(l));
        p.connect(a, b, 1).unwrap();
        assert_eq!(
            p.connect(b, c, u64::MAX),
            Err(ServiceError::DistanceTooLarge {
                a: b,
                b: c,
                distance: u64::MAX
            })
        );
        p.connect(a, d, 10).unwrap();
        p.connect(b, d, 1).unwrap();
        p.connect(c, d, 1).unwrap();
        p.connect(a, c, 50).unwrap();
        let q = SgqQuery::new(3, 2, 0).unwrap();
        let best = |p: &Planner| {
            let sol = p.plan_sgq(a, &q, Engine::Exact).unwrap().solution.unwrap();
            (sol.members, sol.total_distance)
        };
        assert_eq!(best(&p), (vec![a, b, d], 3));

        // The heaviest accepted tie leaves the optimum where it was.
        p.connect(b, c, stgq_graph::MAX_DISTANCE).unwrap();
        assert_eq!(best(&p), (vec![a, b, d], 3));
    }

    #[test]
    fn cache_hits_within_a_version_and_misses_after_mutation() {
        let (mut p, ids) = demo_with(ExecConfig {
            result_cache_capacity: 0,
            ..ExecConfig::default()
        });
        let q = SgqQuery::new(3, 1, 0).unwrap();
        let r1 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(!r1.feasible_cache_hit);
        let r2 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(r2.feasible_cache_hit, "same version must hit");

        p.connect(ids[0], ids[4], 4).unwrap();
        let r3 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(!r3.feasible_cache_hit, "network mutation must invalidate");
    }

    #[test]
    fn answers_match_solving_from_scratch_after_each_mutation() {
        let (mut p, ids) = demo();
        let q = SgqQuery::new(3, 2, 1).unwrap();
        type Mutation = Box<dyn Fn(&mut Planner)>;
        let mutations: Vec<Mutation> = vec![
            Box::new(move |pl| pl.connect(NodeId(0), NodeId(4), 4).map(|_| ()).unwrap()),
            Box::new(move |pl| {
                pl.disconnect(NodeId(1), NodeId(2)).map(|_| ()).unwrap();
            }),
            Box::new(move |pl| pl.connect(NodeId(2), NodeId(3), 2).map(|_| ()).unwrap()),
            Box::new(move |pl| pl.remove_person(NodeId(1)).unwrap()),
        ];
        for m in mutations {
            m(&mut p);
            let via_service = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap().solution;
            let oracle = solve_sgq(
                &p.network().snapshot(),
                ids[0],
                &q,
                &SelectConfig::default(),
            )
            .unwrap()
            .solution;
            assert_eq!(
                via_service.map(|s| s.total_distance),
                oracle.map(|s| s.total_distance),
                "cached path must equal solving from scratch"
            );
        }
    }

    #[test]
    fn calendar_edits_change_stgq_answers_without_touching_graph_cache() {
        let (mut p, ids) = demo();
        let q = StgqQuery::new(3, 1, 0, 3).unwrap();
        let r1 = p.plan_stgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(r1.solution.is_some());

        // Blocking b's whole calendar makes the triangle unschedulable.
        p.set_availability_range(ids[1], SlotRange::new(0, 11), false)
            .unwrap();
        let r2 = p.plan_stgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(
            r2.feasible_cache_hit,
            "calendar edits must not invalidate the feasible-graph cache"
        );
        let d1 = r1.solution.unwrap().total_distance;
        match &r2.solution {
            None => {}
            Some(s) => assert!(s.total_distance > d1, "b was in the only cheap group"),
        }
        // Oracle cross-check.
        let oracle = solve_stgq(
            &p.network().snapshot(),
            ids[0],
            p.calendars().calendars(),
            &q,
            &SelectConfig::default(),
        )
        .unwrap()
        .solution;
        assert_eq!(
            r2.solution.map(|s| s.total_distance),
            oracle.map(|s| s.total_distance)
        );
    }

    #[test]
    fn all_engines_dominate_or_match_the_exact_objective() {
        let (p, ids) = demo();
        let q = SgqQuery::new(3, 2, 1).unwrap();
        let exact = p
            .plan_sgq(ids[0], &q, Engine::Exact)
            .unwrap()
            .solution
            .unwrap()
            .total_distance;
        for engine in [
            Engine::Anytime {
                frame_budget: 1_000_000,
            },
            Engine::Greedy { restarts: 3 },
            Engine::LocalSearch {
                restarts: 3,
                passes: 4,
            },
        ] {
            let r = p.plan_sgq(ids[0], &q, engine).unwrap();
            if let Some(sol) = r.solution {
                assert!(sol.total_distance >= exact, "{engine:?}");
                if matches!(engine, Engine::Anytime { .. }) {
                    assert_eq!(sol.total_distance, exact, "{engine:?} is exact here");
                }
            }
        }
    }

    #[test]
    fn tombstoned_initiator_is_rejected() {
        let (mut p, ids) = demo();
        p.remove_person(ids[5]).unwrap();
        let q = SgqQuery::new(2, 1, 1).unwrap();
        assert!(matches!(
            p.plan_sgq(ids[5], &q, Engine::Exact),
            Err(ServiceError::RemovedPerson { .. })
        ));
        assert!(matches!(
            p.plan_sgq(NodeId(77), &q, Engine::Exact),
            Err(ServiceError::UnknownPerson { .. })
        ));
    }

    #[test]
    fn metrics_reflect_activity() {
        let (p, ids) = demo_with(ExecConfig {
            result_cache_capacity: 0,
            ..ExecConfig::default()
        });
        let q = SgqQuery::new(3, 1, 0).unwrap();
        assert!(p.writer().delta_seq() > 0, "setup mutations counted");
        p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        p.plan_sgq(ids[1], &q, Engine::Exact).unwrap();
        let m = p.exec_metrics();
        assert_eq!(m.queries, 3);
        assert_eq!(m.feasible_cache_hits, 1);
        assert_eq!(m.feasible_cache_misses, 2);
        assert_eq!(m.cached_feasible_graphs, 2);
        assert_eq!(
            m.snapshot_publishes, 1,
            "one snapshot serves both extractions"
        );
    }

    #[test]
    fn result_cache_replays_repeats_and_invalidates_on_mutation() {
        let (mut p, ids) = demo();
        let q = SgqQuery::new(3, 1, 0).unwrap();
        let r1 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(!r1.result_cache_hit);
        let r2 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(r2.result_cache_hit, "identical repeat on one epoch replays");
        assert_eq!(
            r2.solution.as_ref().map(|s| s.total_distance),
            r1.solution.as_ref().map(|s| s.total_distance)
        );
        let m = p.exec_metrics();
        assert_eq!(m.result_cache_hits, 1);
        assert!(m.result_cache_misses >= 1);

        // Delta-scoped stamps sharpen the old "any mutation invalidates"
        // rule: an SGQ reads no calendars, so a calendar edit leaves its
        // entry replayable…
        p.set_availability(ids[0], 11, true).unwrap();
        let r3 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(
            r3.result_cache_hit,
            "a calendar edit cannot stale an SGQ answer"
        );
        // …while a graph edit inside the entry's read set re-solves.
        p.connect(ids[0], ids[4], 4).unwrap();
        let r4 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(!r4.result_cache_hit, "a touched graph shard must re-solve");
    }

    #[test]
    fn a_delta_rebuilds_only_its_own_shards() {
        // Two residue-class communities under 4 shards: people 0,4,8,…
        // (shard 0) and 1,5,9,… (shard 1).
        let mut p = Planner::with_exec_config(
            8,
            ExecConfig {
                workers: 1,
                shards: 4,
                ..ExecConfig::default()
            },
        );
        let ids: Vec<NodeId> = (0..12).map(|i| p.add_person(format!("p{i}"))).collect();
        for c in 0..2u32 {
            let members: Vec<NodeId> = ids.iter().copied().filter(|v| v.0 % 4 == c).collect();
            for w in members.windows(2) {
                p.connect(w[0], w[1], 1).unwrap();
            }
            for &m in &members {
                p.set_availability_range(m, SlotRange::new(0, 7), true)
                    .unwrap();
            }
        }
        let q = SgqQuery::new(3, 1, 0).unwrap();
        p.plan_sgq(ids[0], &q, Engine::Exact).unwrap(); // first publish
        let m0 = p.exec_metrics();

        // A graph delta confined to community 0 (shard 0) republished:
        // exactly one graph segment rebuilds, everything else is reused.
        p.connect(ids[0], ids[8], 2).unwrap();
        p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        let m1 = p.exec_metrics();
        assert_eq!(m1.snapshot_shards_rebuilt - m0.snapshot_shards_rebuilt, 1);
        assert_eq!(m1.snapshot_shards_reused - m0.snapshot_shards_reused, 7);
        let e1 = p.executor().snapshot().unwrap();

        // A calendar delta in community 1 likewise re-slices one shard.
        p.set_availability(ids[1], 3, false).unwrap();
        p.plan_sgq(ids[1], &q, Engine::Exact).unwrap();
        let m2 = p.exec_metrics();
        assert_eq!(m2.snapshot_shards_rebuilt - m1.snapshot_shards_rebuilt, 1);
        assert_eq!(m2.snapshot_shards_reused - m1.snapshot_shards_reused, 7);
        let e2 = p.executor().snapshot().unwrap();
        assert!(
            (0..4).all(|s| Arc::ptr_eq(e1.graph_segment(s), e2.graph_segment(s))),
            "no graph segment moved, so none is rebuilt"
        );

        // The answers stay correct under all that reuse.
        let oracle = solve_sgq(
            &p.network().snapshot(),
            ids[0],
            &q,
            &SelectConfig::default(),
        )
        .unwrap()
        .solution
        .map(|s| s.total_distance);
        let served = p
            .plan_sgq(ids[0], &q, Engine::Exact)
            .unwrap()
            .solution
            .map(|s| s.total_distance);
        assert_eq!(served, oracle);
    }

    #[test]
    fn cache_entries_survive_writes_outside_their_shards() {
        // Community queries keep replaying while an unrelated community
        // churns — the delta-scoped half of the tentpole.
        let mut p = Planner::with_exec_config(
            8,
            ExecConfig {
                workers: 1,
                shards: 4,
                ..ExecConfig::default()
            },
        );
        let ids: Vec<NodeId> = (0..12).map(|i| p.add_person(format!("p{i}"))).collect();
        for c in 0..2u32 {
            let members: Vec<NodeId> = ids.iter().copied().filter(|v| v.0 % 4 == c).collect();
            for w in members.windows(2) {
                p.connect(w[0], w[1], 1).unwrap();
            }
        }
        let q = SgqQuery::new(3, 1, 0).unwrap();
        assert!(
            !p.plan_sgq(ids[0], &q, Engine::Exact)
                .unwrap()
                .result_cache_hit
        );
        assert!(
            !p.plan_sgq(ids[1], &q, Engine::Exact)
                .unwrap()
                .result_cache_hit
        );

        // Churn community 1 (shard 1): community 0's entry must survive,
        // community 1's must be evicted as stale — and nothing else.
        p.connect(ids[1], ids[9], 5).unwrap();
        let r0 = p.plan_sgq(ids[0], &q, Engine::Exact).unwrap();
        assert!(
            r0.result_cache_hit,
            "shard-0 entry outlives a shard-1 write"
        );
        let r1 = p.plan_sgq(ids[1], &q, Engine::Exact).unwrap();
        assert!(!r1.result_cache_hit, "shard-1 entry is stale");
        let m = p.exec_metrics();
        assert_eq!(m.result_cache_evicted_stale_shard, 1);
        assert_eq!(m.result_cache_evicted_capacity, 0);
    }

    #[test]
    fn search_metrics_accumulate_across_exact_queries_only() {
        let (p, ids) = demo();
        let q = StgqQuery::new(3, 1, 0, 3).unwrap();
        let m0 = p.exec_metrics();
        assert_eq!(m0.frames_examined + m0.pivots_skipped, 0);
        p.plan_stgq(ids[0], &q, Engine::Exact).unwrap();
        let m1 = p.exec_metrics();
        assert!(
            m1.frames_examined + m1.pivots_skipped > 0,
            "a feasible exact solve either examines frames or skips pivots"
        );
        p.plan_stgq(ids[0], &q, Engine::Exact).unwrap();
        let m2 = p.exec_metrics();
        assert!(
            m2.frames_examined + m2.pivots_skipped >= m1.frames_examined + m1.pivots_skipped,
            "counters are cumulative"
        );
        // Heuristic engines report no search stats and must not move them.
        p.plan_stgq(ids[0], &q, Engine::Greedy { restarts: 2 })
            .unwrap();
        let m3 = p.exec_metrics();
        assert_eq!(m3.frames_examined, m2.frames_examined);
        assert_eq!(m3.pivots_skipped, m2.pivots_skipped);
    }

    #[test]
    fn config_round_trips_and_is_tunable() {
        let mut p = Planner::with_config(12, SelectConfig::NO_SEARCH_REDUCTION, 8);
        assert_eq!(p.config().seed_restarts, 0);
        assert!(!p.config().pivot_promise_order);
        p.set_config(SelectConfig::default());
        assert_eq!(p.config().seed_restarts, 2);
        assert!(p.config().availability_ordering);
    }

    #[test]
    fn anytime_reports_truncation_honestly() {
        let (p, ids) = demo();
        let q = SgqQuery::new(4, 2, 1).unwrap();
        let r = p
            .plan_sgq(ids[0], &q, Engine::Anytime { frame_budget: 1 })
            .unwrap();
        if let Some(stats) = r.stats {
            assert_eq!(r.exact, !stats.truncated);
            assert!(!stats.cancelled, "a budget stop is not a cancellation");
        }
        let r = p
            .plan_sgq(
                ids[0],
                &q,
                Engine::Anytime {
                    frame_budget: 1_000_000,
                },
            )
            .unwrap();
        assert!(r.exact, "a generous budget finishes this tiny instance");
    }

    #[test]
    fn batch_replies_in_input_order_with_per_entry_errors() {
        let (p, ids) = demo();
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let stgq = StgqQuery::new(3, 1, 0, 3).unwrap();
        let batch = vec![
            BatchQuery {
                initiator: ids[0],
                spec: QuerySpec::Sgq(sgq),
                engine: Engine::Exact,
            },
            BatchQuery {
                initiator: NodeId(99),
                spec: QuerySpec::Sgq(sgq),
                engine: Engine::Exact,
            },
            BatchQuery {
                initiator: ids[0],
                spec: QuerySpec::Stgq(stgq),
                engine: Engine::Exact,
            },
        ];
        let replies = p.plan_batch(&batch);
        assert_eq!(replies.len(), 3);
        let first = replies[0].as_ref().unwrap();
        assert_eq!(first.objective(), Some(5));
        assert!(first.as_sgq().is_some());
        assert!(matches!(
            replies[1],
            Err(ServiceError::UnknownPerson { .. })
        ));
        let third = replies[2].as_ref().unwrap();
        assert!(third.as_stgq().is_some());
        assert!(third.exact());
    }

    #[test]
    fn batch_matches_sequential_planning() {
        let (p, ids) = demo();
        let sgq = SgqQuery::new(3, 2, 1).unwrap();
        let stgq = StgqQuery::new(3, 1, 0, 3).unwrap();
        let batch: Vec<BatchQuery> = (0..3)
            .flat_map(|i| {
                [
                    BatchQuery {
                        initiator: ids[i],
                        spec: QuerySpec::Sgq(sgq),
                        engine: Engine::Exact,
                    },
                    BatchQuery {
                        initiator: ids[i],
                        spec: QuerySpec::Stgq(stgq),
                        engine: Engine::Exact,
                    },
                ]
            })
            .collect();
        let replies = p.plan_batch(&batch);
        for (query, reply) in batch.iter().zip(&replies) {
            let reply = reply.as_ref().unwrap();
            let sequential = match query.spec {
                QuerySpec::Sgq(q) => p
                    .plan_sgq(query.initiator, &q, query.engine)
                    .unwrap()
                    .solution
                    .map(|s| s.total_distance),
                QuerySpec::Stgq(q) => p
                    .plan_stgq(query.initiator, &q, query.engine)
                    .unwrap()
                    .solution
                    .map(|s| s.total_distance),
            };
            assert_eq!(reply.objective(), sequential);
        }
    }
}
