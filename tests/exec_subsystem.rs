//! Integration tests for the `stgq-exec` execution subsystem through the
//! service façade:
//!
//! * **Executor determinism** — a batch of mixed SGQ/STGQ queries
//!   drained through the worker pool yields bit-identical objectives
//!   (and groups) to solving the same queries sequentially through
//!   `Planner::plan_sgq`/`plan_stgq`, across 1/2/4 workers, on both the
//!   paper-shaped dataset and the coarse-distance scenario (where
//!   equal-distance ties make ordering bugs observable).
//! * **Stop provenance** — `Engine::Anytime` budget exhaustion and the
//!   deadline/cancellation path report distinct, consistent `exact`
//!   flags and stop causes (budget-exhausted ≠ cancelled).

use std::time::{Duration, Instant};

use stgq::datagen::scenario::{coarse_distance_analog, sparse_fringe};
use stgq::datagen::Dataset;
use stgq::exec::{PlanRequest, QuerySpec};
use stgq::prelude::*;
use stgq::query::{CancelToken, StopCause};
use stgq::service::{BatchQuery, Engine};
// The shared serving fixtures (also used by the throughput bench) — the
// tested and the benched paths load planners and compare objectives
// through the same code.
use stgq_bench::serving::{batch_objectives, planner_from_dataset, sequential_objectives};

/// A mixed workload: SGQ and STGQ, several initiators, two engines.
fn mixed_batch(ds: &Dataset) -> Vec<BatchQuery> {
    let sgq = SgqQuery::new(4, 2, 2).unwrap();
    let stgq = StgqQuery::new(4, 2, 2, 4).unwrap();
    let n = ds.graph.node_count() as u32;
    let mut batch = Vec::new();
    for i in 0..12u32 {
        let initiator = stgq::graph::NodeId((i * 17) % n);
        batch.push(BatchQuery {
            initiator,
            spec: QuerySpec::Sgq(sgq),
            engine: Engine::Exact,
        });
        batch.push(BatchQuery {
            initiator,
            spec: QuerySpec::Stgq(stgq),
            engine: if i % 3 == 0 {
                Engine::Anytime {
                    frame_budget: 1_000_000,
                }
            } else {
                Engine::Exact
            },
        });
    }
    batch
}

#[test]
fn batched_execution_is_deterministic_across_worker_counts() {
    let ds = coarse_distance_analog(1, 42, 3);
    let batch = mixed_batch(&ds);

    // The oracle: sequential solving through the single-query path.
    let reference_planner = planner_from_dataset(&ds, 1);
    let expected = sequential_objectives(&reference_planner, &batch);
    assert!(
        expected.iter().filter(|o| o.is_some()).count() >= 6,
        "the workload must be mostly feasible to be a meaningful oracle"
    );

    for workers in [1usize, 2, 4] {
        let planner = planner_from_dataset(&ds, workers);
        let got = batch_objectives(&planner, &batch);
        assert_eq!(
            got, expected,
            "{workers}-worker batch must match sequential objectives bit for bit"
        );
        // And batching through the same planner twice is stable.
        let again = batch_objectives(&planner, &batch);
        assert_eq!(got, again, "{workers}-worker batch must be reproducible");
    }
}

#[test]
fn batched_execution_is_deterministic_on_the_sparse_fringe_scenario() {
    // The fringe workload exercises the reduction layer (fans peel away,
    // pivots get refused) — determinism must hold where those paths
    // actually fire, not just on dense graphs where they are vacuous.
    let ds = sparse_fringe(1, 42);
    let sgq = SgqQuery::new(5, 2, 1).unwrap();
    let stgq = StgqQuery::new(5, 2, 1, 4).unwrap();
    let n = ds.graph.node_count() as u32;
    let mut batch = Vec::new();
    for i in 0..10u32 {
        let initiator = stgq::graph::NodeId((i * 19) % n);
        batch.push(BatchQuery {
            initiator,
            spec: QuerySpec::Sgq(sgq),
            engine: Engine::Exact,
        });
        batch.push(BatchQuery {
            initiator,
            spec: QuerySpec::Stgq(stgq),
            engine: Engine::Exact,
        });
    }

    let reference_planner = planner_from_dataset(&ds, 1);
    let expected = sequential_objectives(&reference_planner, &batch);
    assert!(
        expected.iter().filter(|o| o.is_some()).count() >= 4,
        "the workload must be partly feasible to be a meaningful oracle"
    );
    for workers in [1usize, 2, 4] {
        let planner = planner_from_dataset(&ds, workers);
        let got = batch_objectives(&planner, &batch);
        assert_eq!(
            got, expected,
            "{workers}-worker batch must match sequential objectives on sparse_fringe"
        );
    }
    // The reduction layer really fires on this workload.
    let m = reference_planner.exec_metrics();
    assert!(
        m.peeled_candidates > 0,
        "fringe fans must be peeled somewhere in the batch"
    );
}

#[test]
fn batched_groups_match_sequential_groups_exactly() {
    // Members, not just objectives — on the coarse-distance scenario
    // equal-distance ties are where nondeterminism would hide.
    let ds = coarse_distance_analog(1, 7, 4);
    let planner = planner_from_dataset(&ds, 2);
    let sgq = SgqQuery::new(4, 2, 1).unwrap();
    let batch: Vec<BatchQuery> = (0..8u32)
        .map(|i| BatchQuery {
            initiator: stgq::graph::NodeId(i * 11),
            spec: QuerySpec::Sgq(sgq),
            engine: Engine::Exact,
        })
        .collect();
    let replies = planner.plan_batch(&batch);
    for (q, reply) in batch.iter().zip(replies) {
        let batched = reply.unwrap();
        let sequential = planner.plan_sgq(q.initiator, &sgq, Engine::Exact).unwrap();
        let batched = batched.as_sgq().unwrap().solution.clone();
        assert_eq!(
            batched.map(|s| s.members),
            sequential.solution.map(|s| s.members)
        );
    }
}

#[test]
fn budget_exhaustion_and_cancellation_are_distinct_stop_causes() {
    let ds = coarse_distance_analog(1, 42, 3);
    let mut planner = planner_from_dataset(&ds, 1);
    let initiator = stgq::graph::NodeId(0);
    let stgq = StgqQuery::new(5, 2, 2, 4).unwrap();

    // Anytime with a starvation budget: truncated, not cancelled. Pruning
    // is switched off for this query — with the seed and the pivot
    // floors live, tiny instances can legitimately *finish* inside one
    // frame, which would make the truncation assertion vacuous; without
    // Lemma 2 every pivot descends, so one frame cannot finish.
    planner.set_config(SelectConfig::NO_PRUNING);
    let report = planner
        .plan_stgq(initiator, &stgq, Engine::Anytime { frame_budget: 1 })
        .unwrap();
    planner.set_config(SelectConfig::default());
    let stats = report.stats.expect("anytime reports search stats");
    assert!(stats.truncated, "budget of 1 frame cannot finish");
    assert!(!stats.cancelled, "budget exhaustion is not a cancellation");
    assert!(!report.exact, "a truncated answer must not claim exactness");

    // Expired deadline: cancelled, not truncated — submitted through the
    // executor directly (deadlines are a PlanRequest field).
    let request = PlanRequest::new(initiator, QuerySpec::Stgq(stgq), Engine::Exact)
        .with_deadline(Instant::now() - Duration::from_millis(1));
    let outcome = planner.executor().execute_one(request).unwrap();
    assert_eq!(outcome.stop, StopCause::Cancelled);
    assert!(
        !outcome.exact,
        "a cancelled answer must not claim exactness"
    );
    assert!(outcome.outcome.stats().cancelled);
    assert!(
        !outcome.outcome.stats().truncated,
        "cancellation must not masquerade as budget truncation"
    );

    // Tripped token: same provenance as the deadline.
    let token = CancelToken::new();
    token.cancel();
    let request =
        PlanRequest::new(initiator, QuerySpec::Stgq(stgq), Engine::Exact).with_cancel(token);
    let outcome = planner.executor().execute_one(request).unwrap();
    assert_eq!(outcome.stop, StopCause::Cancelled);
    assert!(!outcome.exact);

    // An uninterrupted exact solve of the same query stays exact.
    let report = planner.plan_stgq(initiator, &stgq, Engine::Exact).unwrap();
    assert!(report.exact);
    assert_eq!(
        planner.exec_metrics().cancelled,
        2,
        "both stopped solves counted"
    );
}

#[test]
fn batch_collapsing_preserves_answers_and_counts_queries() {
    let ds = coarse_distance_analog(1, 42, 3);
    let planner = planner_from_dataset(&ds, 2);
    let sgq = SgqQuery::new(4, 2, 1).unwrap();
    let one = BatchQuery {
        initiator: stgq::graph::NodeId(17),
        spec: QuerySpec::Sgq(sgq),
        engine: Engine::Exact,
    };
    let batch: Vec<BatchQuery> = vec![one; 6];
    let replies = planner.plan_batch(&batch);
    let objectives: Vec<_> = replies
        .into_iter()
        .map(|r| r.unwrap().objective())
        .collect();
    assert!(objectives.windows(2).all(|w| w[0] == w[1]));
    let sequential = planner
        .plan_sgq(one.initiator, &sgq, Engine::Exact)
        .unwrap()
        .solution
        .map(|s| s.total_distance);
    assert_eq!(objectives[0], sequential);
    let m = planner.exec_metrics();
    assert_eq!(m.collapsed_entries, 5, "five of six entries collapsed");
    assert_eq!(m.batched_entries, 6);
}
