//! Exec-layer equivalence suite for the zero-copy query path.
//!
//! The executor extracts each query's candidate space as a borrowed
//! `FeasibleView` over the snapshot's CSR segments. These tests pin the
//! properties that path must keep:
//!
//! 1. **Bit-identity**: for every engine and every surviving
//!    `SelectConfig` switch, the executor returns the same members, the
//!    same objectives *and the same `SearchStats`* as calling the core
//!    engines directly on a materialized `FeasibleGraph` of the same
//!    world — the view changes what extraction costs, never what the
//!    search does — and every exact objective matches `reference`.
//! 2. **Determinism across worker counts**: a batch of exact queries
//!    yields identical outcomes (stats included) on 1, 2 and 4 workers.
//! 3. **Stamped-cache equivalence**: under arbitrary interleavings of
//!    writes (republished epochs) and queries, the long-lived executor
//!    with all caches warm agrees with a cacheless fresh-executor
//!    oracle solving the same world from scratch.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stgq_core::heuristics::{greedy_sgq_on, greedy_stgq_on};
use stgq_core::reference::{solve_sgq_reference, solve_stgq_reference};
use stgq_core::{
    SelectConfig, SgqOutcome, SgqQuery, SolveOutcome, Solver, StgqOutcome, StgqQuery, StopCause,
};
use stgq_exec::{Engine, ExecConfig, Executor, PlanRequest, QuerySpec};
use stgq_graph::{Dist, FeasibleGraph, GraphBuilder, NodeId, SocialGraph};
use stgq_schedule::Calendar;

const HORIZON: usize = 16;

/// A random world: `n` people, ~`edge_pct` of pairs connected with
/// small weights, each person free on ~70% of slots.
fn random_world(seed: u64, n: usize, edge_pct: f64) -> (SocialGraph, Vec<Calendar>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0EC0_11EC);
    let mut b = GraphBuilder::new(n);
    for a in 0..n as u32 {
        for c in (a + 1)..n as u32 {
            if rng.gen_bool(edge_pct) {
                b.add_edge(NodeId(a), NodeId(c), rng.gen_range(1..10) as Dist)
                    .unwrap();
            }
        }
    }
    let calendars = (0..n)
        .map(|_| {
            let mut cal = Calendar::new(HORIZON);
            for slot in 0..HORIZON {
                if rng.gen_bool(0.7) {
                    cal.set_available(slot, true);
                }
            }
            cal
        })
        .collect();
    (b.build(), calendars)
}

fn executor_on(
    workers: usize,
    select: SelectConfig,
    graph: &SocialGraph,
    calendars: &[Calendar],
) -> Executor {
    let exec = Executor::new(ExecConfig {
        workers,
        shards: 4,
        select,
        // Replays would mask a divergence after the first solve; the
        // equivalence tests want every query to hit the engine.
        result_cache_capacity: 0,
        ..ExecConfig::default()
    });
    exec.publish(graph, calendars, 1, 1);
    exec
}

/// The surviving `SelectConfig` switches: the default, the
/// search-order layer off, the paper's pruning off, and the seed,
/// promise-order and availability-order switches one at a time.
fn config_grid() -> Vec<SelectConfig> {
    vec![
        SelectConfig::default(),
        SelectConfig::NO_SEARCH_REDUCTION,
        SelectConfig::NO_PRUNING,
        SelectConfig::default().with_seed_restarts(0),
        SelectConfig::default().with_pivot_promise_order(false),
        SelectConfig::default().with_availability_ordering(false),
    ]
}

/// What the executor should answer for `req`, computed by calling the
/// core engines directly on a materialized `FeasibleGraph` of the same
/// world: the same dispatch as the executor's, but every solve on a
/// fresh arena, so a comparison against the executor's long-lived
/// worker arena also checks that pooling carries nothing between
/// solves. Returns the outcome, the exactness claim and the heuristic
/// evaluation count.
fn direct_solve(
    graph: &SocialGraph,
    calendars: &[Calendar],
    cfg: &SelectConfig,
    req: &PlanRequest,
) -> (SolveOutcome, bool, Option<u64>) {
    let fg = FeasibleGraph::extract(graph, req.initiator, req.spec.s());
    let cfg = match req.engine {
        Engine::Anytime { frame_budget } => cfg.with_frame_budget(frame_budget),
        _ => *cfg,
    };
    let (outcome, evaluations) = match (&req.spec, req.engine) {
        (QuerySpec::Sgq(q), Engine::Greedy { restarts }) => {
            let out = greedy_sgq_on(&fg, q, None, restarts);
            let outcome = SgqOutcome {
                solution: out.solution,
                stats: Default::default(),
            };
            (SolveOutcome::Sgq(outcome), Some(out.evaluations))
        }
        (QuerySpec::Stgq(q), Engine::Greedy { restarts }) => {
            let out = greedy_stgq_on(&fg, calendars, q, restarts);
            let outcome = StgqOutcome {
                solution: out.solution,
                stats: Default::default(),
            };
            (SolveOutcome::Stgq(outcome), Some(out.evaluations))
        }
        (QuerySpec::Sgq(q), _) => (SolveOutcome::Sgq(Solver::new(&fg, &cfg).sgq(q, None)), None),
        (QuerySpec::Stgq(q), _) => (
            SolveOutcome::Stgq(Solver::new(&fg, &cfg).stgq(calendars, q)),
            None,
        ),
    };
    let exact = req.engine.reports_search_stats() && outcome.stop_cause() == StopCause::Completed;
    (outcome, exact, evaluations)
}

/// The `reference` engines' objective for `req` on the same world.
fn reference_objective(
    graph: &SocialGraph,
    calendars: &[Calendar],
    req: &PlanRequest,
) -> Option<Dist> {
    let cfg = SelectConfig::default();
    match &req.spec {
        QuerySpec::Sgq(q) => solve_sgq_reference(graph, req.initiator, q, &cfg)
            .expect("valid initiator")
            .solution
            .map(|s| s.total_distance),
        QuerySpec::Stgq(q) => solve_stgq_reference(graph, req.initiator, calendars, q, &cfg)
            .expect("valid initiator")
            .solution
            .map(|s| s.total_distance),
    }
}

/// A small mixed SGQ/STGQ workload across engines that report stats
/// (plus one heuristic for objective-level agreement).
fn workload(rng: &mut SmallRng, n: usize) -> Vec<PlanRequest> {
    let mut reqs = Vec::new();
    for _ in 0..4 {
        let initiator = NodeId(rng.gen_range(0..n as u32));
        let p = rng.gen_range(2..5usize);
        let s = rng.gen_range(1..4usize);
        let k = rng.gen_range(0..p.min(3));
        let m = rng.gen_range(1..4usize);
        let spec = if rng.gen_bool(0.5) {
            QuerySpec::Sgq(SgqQuery::new(p, s, k).unwrap())
        } else {
            QuerySpec::Stgq(StgqQuery::new(p, s, k, m).unwrap())
        };
        let engine = match rng.gen_range(0..4u8) {
            0 => Engine::Exact,
            1 => Engine::Anytime { frame_budget: 8 },
            2 => Engine::Greedy { restarts: 2 },
            _ => Engine::Exact,
        };
        reqs.push(PlanRequest::new(initiator, spec, engine));
    }
    reqs
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// The tentpole invariant: across random worlds, queries, engines
    /// and every surviving config switch, the executor's zero-copy view
    /// path is **bit-identical** to direct core calls on the
    /// materialized graph — same solutions, same objectives, same
    /// `SearchStats` (the `outcome` comparison covers all three), same
    /// exactness claims and evaluation counts — and every exact
    /// objective is the `reference` optimum.
    #[test]
    fn view_path_is_bit_identical_to_materialized(seed in 0u64..1 << 48) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB17_1DE7);
        let n = rng.gen_range(6..14usize);
        let (graph, calendars) = random_world(seed, n, 0.35);
        for cfg in config_grid() {
            let view = executor_on(1, cfg, &graph, &calendars);
            for req in workload(&mut rng, n) {
                let served = view.execute_one(req.clone()).expect("valid initiators");
                let (outcome, exact, evaluations) = direct_solve(&graph, &calendars, &cfg, &req);
                assert_eq!(
                    served.outcome, outcome,
                    "solution/stats divergence on {req:?}"
                );
                assert_eq!(served.exact, exact);
                assert_eq!(served.evaluations, evaluations);
                if served.exact {
                    assert_eq!(
                        served.outcome.objective(),
                        reference_objective(&graph, &calendars, &req),
                        "exact objective is not the reference optimum on {req:?}"
                    );
                }
            }
            // Extraction paid on the view path only.
            assert!(view.metrics().extract_words_borrowed > 0);
        }
    }
}

#[test]
fn executor_is_deterministic_across_worker_counts() {
    let mut rng = SmallRng::seed_from_u64(0x00D1_7EC7);
    let n = 14;
    let (graph, calendars) = random_world(0xD1CE, n, 0.3);
    // Exact engines only: determinism must hold stats-for-stats.
    let mut reqs = Vec::new();
    for i in 0..12u32 {
        let initiator = NodeId(i % n as u32);
        let p = rng.gen_range(2..5usize);
        let s = rng.gen_range(1..4usize);
        let spec = if i % 2 == 0 {
            QuerySpec::Sgq(SgqQuery::new(p, s, 1.min(p - 1)).unwrap())
        } else {
            QuerySpec::Stgq(StgqQuery::new(p, s, 1.min(p - 1), 2).unwrap())
        };
        reqs.push(PlanRequest::new(initiator, spec, Engine::Exact));
    }
    let mut baseline = None;
    for workers in [1usize, 2, 4] {
        let exec = executor_on(workers, SelectConfig::default(), &graph, &calendars);
        let outcomes: Vec<_> = exec
            .execute_batch(reqs.clone())
            .into_iter()
            .map(|r| r.expect("valid initiators").outcome)
            .collect();
        match &baseline {
            None => baseline = Some(outcomes),
            Some(b) => assert_eq!(&outcomes, b, "divergence at {workers} workers"),
        }
    }
}

#[test]
fn stamped_caches_agree_with_fresh_solves_across_interleavings() {
    let mut rng = SmallRng::seed_from_u64(0x5_7A3B);
    let n = 10usize;
    // Mutable world the "writer" side evolves.
    let mut edges: Vec<(u32, u32, Dist)> = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(0.3) {
                edges.push((a, b, rng.gen_range(1..8) as Dist));
            }
        }
    }
    let mut calendars: Vec<Calendar> = (0..n)
        .map(|_| {
            let mut cal = Calendar::new(HORIZON);
            for slot in 0..HORIZON {
                if rng.gen_bool(0.6) {
                    cal.set_available(slot, true);
                }
            }
            cal
        })
        .collect();
    let build = |edges: &[(u32, u32, Dist)]| {
        let mut b = GraphBuilder::new(n);
        for &(x, y, d) in edges {
            b.add_edge(NodeId(x), NodeId(y), d).unwrap();
        }
        b.build()
    };
    let (mut gv, mut cv) = (1u64, 1u64);
    // Long-lived executor with every cache enabled.
    let long = Executor::new(ExecConfig {
        workers: 1,
        shards: 4,
        ..ExecConfig::default()
    });
    long.publish(&build(&edges), &calendars, gv, cv);

    for step in 0..40 {
        match rng.gen_range(0..3u8) {
            // Graph write: re-weight or add an edge, bump the epoch.
            0 => {
                let a = rng.gen_range(0..n as u32 - 1);
                let b = rng.gen_range(a + 1..n as u32);
                let d = rng.gen_range(1..8) as Dist;
                if let Some(e) = edges.iter_mut().find(|e| e.0 == a && e.1 == b) {
                    e.2 = d;
                } else {
                    edges.push((a, b, d));
                }
                gv += 1;
                long.publish(&build(&edges), &calendars, gv, cv);
            }
            // Calendar write: flip one slot, bump the epoch.
            1 => {
                let person = rng.gen_range(0..n);
                let slot = rng.gen_range(0..HORIZON);
                let now = calendars[person].is_available(slot);
                calendars[person].set_available(slot, !now);
                cv += 1;
                long.publish(&build(&edges), &calendars, gv, cv);
            }
            // Query: the warm stamped caches must agree with a fresh
            // executor solving the current world from scratch.
            _ => {
                let initiator = NodeId(rng.gen_range(0..n as u32));
                let p = rng.gen_range(2..4usize);
                let s = rng.gen_range(1..3usize);
                let spec = if rng.gen_bool(0.5) {
                    QuerySpec::Sgq(SgqQuery::new(p, s, 1).unwrap())
                } else {
                    QuerySpec::Stgq(StgqQuery::new(p, s, 1, 2).unwrap())
                };
                let req = PlanRequest::new(initiator, spec, Engine::Exact);
                let cached = long.execute_one(req.clone()).unwrap();
                let oracle = executor_on(1, SelectConfig::default(), &build(&edges), &calendars)
                    .execute_one(req)
                    .unwrap();
                assert_eq!(
                    cached.outcome, oracle.outcome,
                    "step {step}: stamped caches served a stale answer"
                );
            }
        }
    }
    // The interleaving must have actually exercised the fast paths.
    let m = long.metrics();
    assert!(
        m.feasible_cache_hits + m.result_cache_hits > 0,
        "interleaving never hit a cache — the test lost its point"
    );
}
