//! A thread-safe, cloneable handle around [`Planner`].

use std::sync::Arc;

use parking_lot::RwLock;
use stgq_core::{SgqQuery, StgqQuery};
use stgq_graph::{Dist, NodeId};
use stgq_schedule::SlotRange;

use crate::{
    BatchQuery, Engine, ExecMetrics, PlanReply, Planner, ServiceError, SgqReport, StgqReport,
};

/// `Arc<RwLock<Planner>>` with a planning-service API: queries take the
/// read lock (so any number run concurrently), mutations take the write
/// lock. Clones share the same underlying service.
///
/// `parking_lot::RwLock` is used instead of `std::sync::RwLock` for its
/// non-poisoning guards — a panicking query thread must not wedge the
/// whole service.
#[derive(Clone)]
pub struct SharedPlanner {
    inner: Arc<RwLock<Planner>>,
}

impl SharedPlanner {
    /// Wrap an existing planner.
    pub fn new(planner: Planner) -> Self {
        SharedPlanner {
            inner: Arc::new(RwLock::new(planner)),
        }
    }

    /// A fresh shared service over `horizon` slots.
    pub fn with_horizon(horizon: usize) -> Self {
        SharedPlanner::new(Planner::new(horizon))
    }

    /// Run an arbitrary batch of mutations under one write lock.
    pub fn update<R>(&self, f: impl FnOnce(&mut Planner) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// Read-only access (metrics, network inspection) under the read lock.
    pub fn inspect<R>(&self, f: impl FnOnce(&Planner) -> R) -> R {
        f(&self.inner.read())
    }

    /// Register a person.
    pub fn add_person(&self, label: impl Into<String>) -> NodeId {
        self.inner.write().add_person(label)
    }

    /// Create or re-weight a friendship.
    pub fn connect(&self, a: NodeId, b: NodeId, distance: Dist) -> Result<(), ServiceError> {
        self.inner.write().connect(a, b, distance)
    }

    /// Mark a slot range (un)available.
    pub fn set_availability_range(
        &self,
        person: NodeId,
        range: SlotRange,
        available: bool,
    ) -> Result<(), ServiceError> {
        self.inner
            .write()
            .set_availability_range(person, range, available)
    }

    /// Answer an SGQ (concurrent with other queries).
    pub fn plan_sgq(
        &self,
        initiator: NodeId,
        query: &SgqQuery,
        engine: Engine,
    ) -> Result<SgqReport, ServiceError> {
        self.inner.read().plan_sgq(initiator, query, engine)
    }

    /// Answer an STGQ (concurrent with other queries).
    pub fn plan_stgq(
        &self,
        initiator: NodeId,
        query: &StgqQuery,
        engine: Engine,
    ) -> Result<StgqReport, ServiceError> {
        self.inner.read().plan_stgq(initiator, query, engine)
    }

    /// Answer a mixed SGQ/STGQ batch through the executor's batched path
    /// (concurrent with other queries — the batch holds the read lock,
    /// so mutations wait exactly as they do for single queries, while
    /// the solves themselves run on the executor's worker pool against
    /// an immutable epoch).
    pub fn plan_batch(&self, queries: &[BatchQuery]) -> Vec<Result<PlanReply, ServiceError>> {
        self.inner.read().plan_batch(queries)
    }

    /// The executor's counters ([`Planner::exec_metrics`]).
    pub fn exec_metrics(&self) -> ExecMetrics {
        self.inner.read().exec_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> (SharedPlanner, Vec<NodeId>) {
        let shared = SharedPlanner::with_horizon(16);
        let ids: Vec<NodeId> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|l| shared.add_person(*l))
            .collect();
        shared.connect(ids[0], ids[1], 2).unwrap();
        shared.connect(ids[0], ids[2], 3).unwrap();
        shared.connect(ids[1], ids[2], 1).unwrap();
        shared.connect(ids[2], ids[3], 5).unwrap();
        for &id in &ids {
            shared
                .set_availability_range(id, SlotRange::new(0, 15), true)
                .unwrap();
        }
        (shared, ids)
    }

    #[test]
    fn concurrent_queries_during_mutations_stay_consistent() {
        let (shared, ids) = demo();
        let q = SgqQuery::new(3, 2, 1).unwrap();

        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = shared.clone();
                let initiator = ids[0];
                let q = &q;
                scope.spawn(move || {
                    for _ in 0..50 {
                        let r = shared.plan_sgq(initiator, q, Engine::Exact).unwrap();
                        // Whatever snapshot the query saw, the answer is
                        // internally consistent: 3 members, initiator in.
                        if let Some(sol) = r.solution {
                            assert_eq!(sol.members.len(), 3);
                            assert!(sol.members.contains(&initiator));
                        }
                    }
                });
            }
            let writer = shared.clone();
            let (d, e) = (ids[3], ids[4]);
            scope.spawn(move || {
                for i in 0..25u64 {
                    writer.connect(d, e, 1 + (i % 9)).unwrap();
                }
            });
        });

        let m = shared.exec_metrics();
        assert_eq!(m.queries, 200);
    }

    #[test]
    fn clones_share_state() {
        let (shared, ids) = demo();
        let other = shared.clone();
        let q = SgqQuery::new(2, 1, 1).unwrap();
        let before = other
            .plan_sgq(ids[0], &q, Engine::Exact)
            .unwrap()
            .solution
            .unwrap();
        assert_eq!(before.total_distance, 2);
        // Mutate through one handle, observe through the other.
        shared.connect(ids[0], ids[4], 1).unwrap();
        let after = other
            .plan_sgq(ids[0], &q, Engine::Exact)
            .unwrap()
            .solution
            .unwrap();
        assert_eq!(after.total_distance, 1);
    }

    #[test]
    fn update_batches_under_one_lock() {
        let (shared, ids) = demo();
        shared.update(|p| {
            p.connect(ids[0], ids[4], 2).unwrap();
            p.set_availability(ids[4], 3, true).unwrap();
        });
        assert!(shared
            .inspect(|p| p.network().distance(ids[0], ids[4]))
            .is_some());
    }
}
