//! Integration tests for the planning service: incremental updates must be
//! indistinguishable from rebuilding the world from scratch, across both
//! query families, every engine tier, and interleaved mutation patterns.

use stgq::prelude::*;
use stgq::query::validate::{validate_sgq, validate_stgq};
use stgq::service::{Engine, Planner, SharedPlanner};

/// A mutation step applied to the planner under test.
type Step = Box<dyn Fn(&mut Planner, &[NodeId])>;

/// Build a 12-person service and mirror every mutation into plain
/// (graph-builder, calendar-vec) state so we can oracle-check.
struct Mirror {
    planner: Planner,
    ids: Vec<NodeId>,
}

fn build_mirror() -> Mirror {
    let horizon = 24;
    let mut planner = Planner::new(horizon);
    let ids: Vec<NodeId> = (0..12)
        .map(|i| planner.add_person(format!("p{i}")))
        .collect();
    let edges: &[(usize, usize, u64)] = &[
        (0, 1, 3),
        (0, 2, 5),
        (0, 3, 9),
        (1, 2, 2),
        (1, 4, 7),
        (2, 5, 4),
        (3, 4, 1),
        (4, 5, 6),
        (5, 6, 2),
        (6, 7, 3),
        (0, 7, 11),
        (7, 8, 2),
        (8, 9, 4),
        (2, 9, 8),
        (9, 10, 1),
        (10, 11, 5),
        (0, 11, 13),
    ];
    for &(u, v, w) in edges {
        planner.connect(ids[u], ids[v], w).unwrap();
    }
    for (i, &id) in ids.iter().enumerate() {
        // Staggered availability so STGQ answers are non-trivial.
        planner
            .set_availability_range(id, SlotRange::new(i % 4, 16 + (i % 5)), true)
            .unwrap();
    }
    Mirror { planner, ids }
}

fn oracle_sgq(planner: &Planner, initiator: NodeId, q: &SgqQuery) -> Option<u64> {
    solve_sgq(
        &planner_snapshot(planner),
        initiator,
        q,
        &Default::default(),
    )
    .unwrap()
    .solution
    .map(|s| s.total_distance)
}

fn oracle_stgq(planner: &Planner, initiator: NodeId, q: &StgqQuery) -> Option<u64> {
    solve_stgq(
        &planner_snapshot(planner),
        initiator,
        planner.calendars().calendars(),
        q,
        &Default::default(),
    )
    .unwrap()
    .solution
    .map(|s| s.total_distance)
}

fn planner_snapshot(planner: &Planner) -> stgq::graph::SocialGraph {
    planner.network().snapshot()
}

#[test]
fn service_tracks_oracle_through_interleaved_mutations() {
    let Mirror { mut planner, ids } = build_mirror();
    let sgq = SgqQuery::new(4, 2, 1).unwrap();
    let stgq = StgqQuery::new(3, 2, 1, 3).unwrap();

    // Interleave mutations and queries; after every step the cached path
    // must agree with a from-scratch solve.
    let steps: Vec<Step> = vec![
        Box::new(|p, ids| p.connect(ids[3], ids[6], 2).unwrap()),
        Box::new(|p, ids| {
            p.disconnect(ids[0], ids[3]).unwrap();
        }),
        Box::new(|p, ids| p.set_availability(ids[1], 20, true).unwrap()),
        Box::new(|p, ids| p.connect(ids[0], ids[5], 1).unwrap()),
        Box::new(|p, ids| p.remove_person(ids[4]).unwrap()),
        Box::new(|p, ids| {
            p.set_availability_range(ids[2], SlotRange::new(0, 23), false)
                .unwrap()
        }),
        Box::new(|p, ids| p.connect(ids[8], ids[11], 3).unwrap()),
    ];

    for (step, mutate) in steps.into_iter().enumerate() {
        mutate(&mut planner, &ids);
        let got_sgq = planner
            .plan_sgq(ids[0], &sgq, Engine::Exact)
            .unwrap()
            .solution
            .map(|s| s.total_distance);
        assert_eq!(
            got_sgq,
            oracle_sgq(&planner, ids[0], &sgq),
            "SGQ diverged at step {step}"
        );

        let got_stgq = planner
            .plan_stgq(ids[0], &stgq, Engine::Exact)
            .unwrap()
            .solution
            .map(|s| s.total_distance);
        assert_eq!(
            got_stgq,
            oracle_stgq(&planner, ids[0], &stgq),
            "STGQ diverged at step {step}"
        );
    }
}

#[test]
fn every_engine_returns_valid_solutions_through_the_service() {
    let Mirror { planner, ids } = build_mirror();
    let sgq = SgqQuery::new(4, 2, 1).unwrap();
    let stgq = StgqQuery::new(3, 2, 1, 3).unwrap();
    let graph = planner_snapshot(&planner);
    let cals = planner.calendars().calendars().to_vec();

    let engines = [
        Engine::Exact,
        Engine::Anytime {
            frame_budget: 100_000,
        },
        Engine::Greedy { restarts: 4 },
        Engine::LocalSearch {
            restarts: 4,
            passes: 4,
        },
    ];
    let exact_sgq = planner
        .plan_sgq(ids[0], &sgq, Engine::Exact)
        .unwrap()
        .solution
        .unwrap()
        .total_distance;
    let exact_stgq = planner
        .plan_stgq(ids[0], &stgq, Engine::Exact)
        .unwrap()
        .solution
        .unwrap()
        .total_distance;

    for engine in engines {
        if let Some(sol) = planner.plan_sgq(ids[0], &sgq, engine).unwrap().solution {
            validate_sgq(&graph, ids[0], &sgq, &sol)
                .unwrap_or_else(|v| panic!("{engine:?} produced invalid SGQ solution: {v:?}"));
            assert!(sol.total_distance >= exact_sgq, "{engine:?}");
        }
        if let Some(sol) = planner.plan_stgq(ids[0], &stgq, engine).unwrap().solution {
            validate_stgq(&graph, ids[0], &cals, &stgq, &sol)
                .unwrap_or_else(|v| panic!("{engine:?} produced invalid STGQ solution: {v:?}"));
            assert!(sol.total_distance >= exact_stgq, "{engine:?}");
        }
    }
}

#[test]
fn removed_people_never_appear_in_answers() {
    let Mirror { mut planner, ids } = build_mirror();
    let q = SgqQuery::new(4, 2, 2).unwrap();
    let before = planner
        .plan_sgq(ids[0], &q, Engine::Exact)
        .unwrap()
        .solution
        .unwrap();
    // Remove someone from the found group (other than the initiator).
    let victim = *before.members.iter().find(|&&v| v != ids[0]).unwrap();
    planner.remove_person(victim).unwrap();
    let after = planner
        .plan_sgq(ids[0], &q, Engine::Exact)
        .unwrap()
        .solution;
    if let Some(sol) = after {
        assert!(!sol.members.contains(&victim), "tombstoned person selected");
        assert!(sol.total_distance >= before.total_distance);
    }
}

#[test]
fn shared_planner_parallel_readers_see_committed_writes() {
    let Mirror { planner, ids } = build_mirror();
    let shared = SharedPlanner::new(planner);
    let q = SgqQuery::new(3, 1, 1).unwrap();

    let baseline = shared
        .plan_sgq(ids[0], &q, Engine::Exact)
        .unwrap()
        .solution
        .unwrap();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let shared = shared.clone();
            let initiator = ids[0];
            let floor = baseline.total_distance;
            let q = &q;
            scope.spawn(move || {
                for _ in 0..30 {
                    let r = shared.plan_sgq(initiator, q, Engine::Exact).unwrap();
                    let d = r.solution.unwrap().total_distance;
                    // The writer only adds cheaper direct friendships, so
                    // the optimum can only improve over the baseline.
                    assert!(d <= floor);
                }
            });
        }
        let writer = shared.clone();
        let (a, extra) = (ids[0], ids[6]);
        scope.spawn(move || {
            writer.connect(a, extra, 2).unwrap();
        });
    });

    let final_d = shared
        .plan_sgq(ids[0], &q, Engine::Exact)
        .unwrap()
        .solution
        .unwrap()
        .total_distance;
    assert!(final_d <= baseline.total_distance);
}
