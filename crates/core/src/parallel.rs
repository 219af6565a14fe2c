//! Parallel SGSelect and STGSelect — what a [`Solver`](crate::Solver)
//! with more than one worker thread runs.
//!
//! The paper's evaluation (§5.2) notes that the CPLEX comparator exploited
//! all 8 cores of the test machine while SGSelect and STGSelect ran
//! single-threaded. These solvers close that gap without giving up
//! exactness:
//!
//! * **STGQ** parallelises over *pivot time slots* (Lemma 4): pivots are
//!   independent search roots, so workers claim them from a shared counter
//!   and publish improvements into one shared incumbent — exactly the
//!   incumbent-sharing the sequential engine does across its pivot loop,
//!   just concurrent. When the instance has too few pivots to keep every
//!   core busy (`horizon / m` small), each pivot is further split into the
//!   same forced-prefix depth-1/depth-2 subtrees SGQ uses, so parallelism
//!   no longer caps at the pivot count.
//! * **SGQ** parallelises over *forced-prefix subtrees*. Every feasible
//!   group other than `{q}` has an earliest member `u_i` in the access
//!   order (and, for `p ≥ 3`, an earliest pair `u_i, u_j`), so the search
//!   space partitions into subtrees "force the prefix, exclude everything
//!   ordered before it". Depth-1 splitting alone parallelises poorly: the
//!   access order concentrates nearly all work in the *first* subtree (the
//!   optimum usually lives there, and later roots are pruned by its
//!   incumbent). The solver therefore splits the first
//!   [`PAIR_SPLIT_ROOTS`] roots into their depth-2 pair subtrees and keeps
//!   depth-1 tasks for the long cheap tail.
//!
//! Both split the same way, through the descent core's
//! [`vet_roots`] (each forced prefix is vetted with the hard acquaintance
//! check, Lemma 1 and, for STGQ, the hard temporal requirement) and
//! [`search_subtree`] (an ordinary searcher sharing the global incumbent
//! and counting into its worker's stats, so a
//! [`frame_budget`](crate::SelectConfig::frame_budget) caps each worker).
//!
//! Sharing the incumbent is sound in both directions: a racing thread can
//! only ever read a *stale, larger* bound, which weakens Lemma-2 pruning
//! but never cuts a subtree containing a better solution. The returned
//! **objective value is therefore always the sequential optimum**; when
//! several optimal groups tie, which witness is returned may differ from
//! the sequential engine (and between runs).
//!
//! Before spawning, both solvers **seed the incumbent with a greedy
//! solution** ([`crate::heuristics`]). The sequential engines get their
//! first incumbent almost immediately (access ordering finds a feasible
//! group early, and it prunes everything after it); parallel workers
//! starting simultaneously would instead all search unpruned. A feasible
//! seed restores that asymmetry-free: Lemma 2 with a non-optimal bound
//! never cuts a strictly better solution, so exactness is untouched.

use std::sync::atomic::{AtomicUsize, Ordering};

use stgq_graph::{BitSet, CandidateTopology};
use stgq_schedule::{Calendar, Cals, SlotId};

use crate::descent::{search_subtree, vet_roots, SearchCtx, UnitAxis, VaState};
use crate::heuristics::{greedy_sgq_on, greedy_stgq_on};
use crate::incumbent::Incumbent;
use crate::reduce::sgq_peel_preamble;
use crate::stgselect::{
    descend_pivot, finalize_pivot, materialize_pivot, pivot_bound_skips, prepare_pivot,
    promise_ordered_pivots, PivotArena, PivotAxis, PivotJob, PivotPrep, StBest, Unavail,
};
use crate::{
    SearchStats, SelectConfig, SgqOutcome, SgqQuery, SgqSolution, SolveControl, StgqOutcome,
    StgqQuery, StgqSolution,
};

/// How many of the earliest access-order roots are split into depth-2
/// pair tasks. The work distribution over roots is extremely top-heavy,
/// so splitting a small prefix is enough; the bound also caps the task
/// list at `PAIR_SPLIT_ROOTS · f + f` entries regardless of graph size.
const PAIR_SPLIT_ROOTS: usize = 24;

/// Below this many prepared pivots per thread, STGQ tasks are split
/// *within* pivots (forced-prefix subtrees, as in the SGQ solver) instead
/// of one-task-per-pivot. Pivot-level tasks alone cap parallelism at
/// `horizon / m`, which starves cores on small-horizon workloads.
const INTRA_PIVOT_SPLIT_FACTOR: usize = 4;

/// How many of the earliest access-order roots of each pivot get depth-2
/// pair tasks when splitting within pivots (the SGQ rationale applies
/// per pivot: the first subtree holds nearly all the work).
const STGQ_PAIR_SPLIT_ROOTS: usize = 8;

/// One unit of forced-prefix work.
#[derive(Clone, Copy)]
enum RootTask {
    /// Force `order[i]`; exclude everything before it.
    Single(usize),
    /// Force `order[i]` then `order[j]`; exclude everything before `j`
    /// except `order[i]`.
    Pair(usize, usize),
}

impl RootTask {
    /// `(i, forced_j)` as [`search_subtree`] takes it.
    fn forced(self) -> (usize, Option<usize>) {
        match self {
            RootTask::Single(i) => (i, None),
            RootTask::Pair(i, j) => (i, Some(j)),
        }
    }
}

/// Append job `ji`'s forced-prefix tasks: depth-2 pairs for the vetted
/// heavy early roots (the first `split_roots`), depth-1 singles for the
/// tail — or singles only at `p = 2`, where groups are `{q, u_i}`.
fn root_tasks(
    ji: u32,
    root_ok: &[bool],
    p: usize,
    split_roots: usize,
    tasks: &mut Vec<(u32, RootTask)>,
) {
    let n = root_ok.len();
    if p == 2 {
        tasks.extend((0..n).map(|i| (ji, RootTask::Single(i))));
        return;
    }
    let split = split_roots.min(n);
    for (i, ok) in root_ok.iter().enumerate().take(split) {
        if *ok {
            tasks.extend((i + 1..n).map(|j| (ji, RootTask::Pair(i, j))));
        }
    }
    tasks.extend((split..n).map(|i| (ji, RootTask::Single(i))));
}

/// Run `work(i, stats, state)` for every `i < n` on `threads` scoped
/// workers claiming indices from a shared counter, each with its own
/// stats and `init()` state. `control` is polled before every claimed
/// index is worked (unamortised — work between frames, such as pivot
/// preparation or subtree setup, is outside the frame path's check), and
/// a tripped control ends the worker with `cancelled` set. Returns every
/// worker's stats and state.
fn claim<S: Send>(
    threads: usize,
    n: usize,
    control: Option<&SolveControl>,
    init: impl Fn() -> S + Sync,
    work: impl Fn(usize, &mut SearchStats, &mut S) + Sync,
) -> Vec<(SearchStats, S)> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = SearchStats::default();
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if control.is_some_and(SolveControl::should_stop_now) {
                            local.cancelled = true;
                            break;
                        }
                        work(i, &mut local, &mut state);
                    }
                    (local, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("solver workers never panic"))
            .collect()
    })
}

/// Take a claimed pivot through the sequential engine's pre-descent
/// ladder — prepare, the phase-1 bound, finalize, the finalized bound —
/// and materialize it for its first frame. `None` when the pivot is
/// refused or the shared incumbent retires it (its buffers go back to
/// `arena`); a retired pivot never builds its availability rows.
fn admit_pivot<G: CandidateTopology>(
    ctx: SearchCtx<'_, G, StBest>,
    calendars: Cals<'_>,
    prep: &PivotPrep,
    pivot: SlotId,
    stats: &mut SearchStats,
    arena: &mut PivotArena,
) -> Option<PivotJob> {
    let mut job = prepare_pivot(ctx.fg, calendars, prep, pivot, stats, arena)?;
    let skips = |job: &PivotJob| pivot_bound_skips(&ctx.cfg, ctx.incumbent, job.dist_bound);
    let admitted = if skips(&job) {
        stats.pivots_skipped += 1;
        false
    } else if !finalize_pivot(ctx.fg, prep, &mut job, stats, arena) {
        false
    } else if skips(&job) {
        stats.pivots_skipped += 1;
        false
    } else {
        true
    };
    if !admitted {
        arena.recycle(job);
        return None;
    }
    materialize_pivot(ctx.fg, calendars, &mut job, stats);
    Some(job)
}

/// Parallel SGSelect on `threads ≥ 2` workers: identical optimum to the
/// sequential engine. `control` is already filtered of no-op policies.
pub(crate) fn solve_sgq<G: CandidateTopology>(
    fg: &G,
    query: &SgqQuery,
    cfg: &SelectConfig,
    candidate_mask: Option<&BitSet>,
    threads: usize,
    control: Option<&SolveControl>,
) -> SgqOutcome {
    let p = query.p();
    // Fixpoint (p, k)-core peel — the sequential engine's shared helper,
    // computed once here and read by every worker through the peeled
    // `base_va`.
    let (peeled_candidates, peeled_set) = match sgq_peel_preamble(fg, p, query.k(), candidate_mask)
    {
        Ok(kept) => kept,
        Err(refused) => return *refused,
    };
    let candidate_mask = peeled_set.as_ref().or(candidate_mask);

    let order = fg.candidate_order();
    let base_va = VaState::init(fg, candidate_mask);
    let incumbent: Incumbent<Vec<u32>> = Incumbent::new();
    if cfg.seed_restarts > 0 {
        if let Some(seed) = greedy_sgq_on(fg, query, candidate_mask, cfg.seed_restarts).solution {
            let compact: Vec<u32> = seed
                .members
                .iter()
                .map(|&v| {
                    fg.compact(v)
                        .expect("greedy members lie in the feasible graph")
                })
                .collect();
            incumbent.offer(seed.total_distance, || compact);
        }
    }
    let ctx = SearchCtx {
        fg,
        p,
        k: query.k(),
        cfg: *cfg,
        incumbent: &incumbent,
        control,
    };

    // Vet each root once (the check only involves VS = {q}, so it is
    // task-independent) with Lemma 1 against the root's full suffix —
    // sound to skip on, because a pair task's effective VA is a subset of
    // the root's.
    let root_ok = vet_roots(ctx, order, UnitAxis, &base_va);
    let mut tasks = Vec::new();
    root_tasks(0, &root_ok, p, PAIR_SPLIT_ROOTS, &mut tasks);

    let mut stats = SearchStats {
        peeled_candidates,
        ..SearchStats::default()
    };
    let workers = claim(
        threads,
        tasks.len(),
        control,
        || (),
        |t, local, _| {
            let (i, forced_j) = tasks[t].1.forced();
            if root_ok[i] {
                search_subtree(ctx, order, || UnitAxis, &base_va, (i, forced_j), local);
            }
        },
    );
    for (local, ()) in workers {
        stats.absorb(&local);
    }

    let solution = incumbent
        .into_best()
        .map(|(total_distance, group)| SgqSolution {
            members: fg.to_origin_group(group),
            total_distance,
        });
    SgqOutcome { solution, stats }
}

/// Parallel STGSelect on `threads ≥ 2` workers: identical optimum to the
/// sequential engine. `control` is already filtered of no-op policies.
pub(crate) fn solve_stgq<G: CandidateTopology>(
    fg: &G,
    calendars: Cals<'_>,
    query: &StgqQuery,
    cfg: &SelectConfig,
    threads: usize,
    control: Option<&SolveControl>,
) -> StgqOutcome {
    let cfg = cfg.normalized();
    let (p, m) = (query.p(), query.m());
    let horizon = calendars.first().map(Calendar::horizon).unwrap_or(0);
    // Same promise order as the sequential engine (shared helper): pivots
    // the initiator cannot host are dropped, and with promise ordering on
    // the rest are claimed longest-initiator-run first so early workers
    // tighten the shared incumbent for everyone.
    let pivots: Vec<usize> = if horizon == 0 {
        Vec::new()
    } else {
        let q_cal = calendars.get(fg.origin(0).index());
        promise_ordered_pivots(q_cal, horizon, m, cfg.pivot_promise_order)
    };

    let incumbent = Incumbent::new();
    if cfg.seed_restarts > 0 {
        if let Some(seed) = greedy_stgq_on(fg, calendars, query, cfg.seed_restarts).solution {
            let group: Vec<u32> = seed
                .members
                .iter()
                .map(|&v| {
                    fg.compact(v)
                        .expect("greedy members lie in the feasible graph")
                })
                .collect();
            let (period, pivot) = (seed.period, seed.pivot);
            incumbent.offer(seed.total_distance, || StBest {
                group,
                period,
                pivot,
            });
        }
    }
    let mut stats = SearchStats::default();
    // Shared pivot preprocessing: tie blocks, the peel threshold, and
    // the full-candidate peel memo are computed once here and read by
    // every worker — the sequential engine's per-solve prep, lifted
    // above the spawn.
    let prep = PivotPrep::new(fg, p, query.k(), m, horizon, &cfg);
    let ctx = SearchCtx {
        fg,
        p,
        k: query.k(),
        cfg,
        incumbent: &incumbent,
        control,
    };

    if pivots.len() >= threads * INTRA_PIVOT_SPLIT_FACTOR {
        // Plenty of pivots: one task per pivot saturates every core, and
        // skipping the job hand-off keeps preparation fused with search.
        let workers = claim(
            threads,
            pivots.len(),
            control,
            PivotArena::new,
            |i, local, arena| {
                if let Some(mut job) = admit_pivot(ctx, calendars, &prep, pivots[i], local, arena) {
                    descend_pivot(ctx, query, &mut job, local);
                    arena.recycle(job);
                }
            },
        );
        for (local, _) in workers {
            stats.absorb(&local);
        }
    } else {
        // Few pivots: split each pivot into forced-prefix subtrees so all
        // cores stay busy. Jobs are prepared once (concurrently), their
        // roots vetted, and the flattened (pivot, subtree) task list is
        // then claimed exactly like SGQ's root tasks. Jobs outlive the
        // preparation workers (they are searched concurrently below), so
        // only the pivots the ladder retires are recycled.
        let preparers = threads.min(pivots.len().max(1));
        let init = || (PivotArena::new(), Vec::new());
        let workers = claim(preparers, pivots.len(), control, init, |i, local, state| {
            let (arena, found) = state;
            if let Some(job) = admit_pivot(ctx, calendars, &prep, pivots[i], local, arena) {
                let axis = PivotAxis::new(&job, query, &cfg, Unavail::default());
                let ok = vet_roots(ctx, &job.order, axis, &job.va);
                found.push((job, ok));
            }
        });
        let mut jobs = Vec::new();
        for (local, (_, found)) in workers {
            stats.absorb(&local);
            jobs.extend(found);
        }

        // The SGQ partition, instantiated per pivot.
        let mut tasks = Vec::new();
        for (ji, (_, root_ok)) in jobs.iter().enumerate() {
            root_tasks(ji as u32, root_ok, p, STGQ_PAIR_SPLIT_ROOTS, &mut tasks);
        }
        let workers = claim(
            threads,
            tasks.len(),
            control,
            || (),
            |t, local, _| {
                let (ji, task) = tasks[t];
                let (job, root_ok) = &jobs[ji as usize];
                let (i, forced_j) = task.forced();
                // Claim-time pivot bound: the shared incumbent may have
                // tightened past this pivot's floor since its tasks were
                // generated (not counted as a pivot skip — the pivot was
                // admitted).
                if !root_ok[i] || pivot_bound_skips(&cfg, &incumbent, job.dist_bound) {
                    return;
                }
                let axis = || PivotAxis::new(job, query, &cfg, job.unavail.clone());
                search_subtree(ctx, &job.order, axis, &job.va, (i, forced_j), local);
            },
        );
        for (local, ()) in workers {
            stats.absorb(&local);
        }
    }

    let solution = incumbent.into_best().map(|(dist, b)| StgqSolution {
        members: fg.to_origin_group(b.group),
        total_distance: dist,
        period: b.period,
        pivot: b.pivot,
    });
    StgqOutcome { solution, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_sgq, solve_stgq, CancelToken, Solver};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use stgq_graph::{FeasibleGraph, GraphBuilder, NodeId, SocialGraph};

    /// SGQ on `threads` workers over the radius-`s` candidate space.
    fn sgq_on(g: &SocialGraph, query: &SgqQuery, threads: usize) -> SgqOutcome {
        let fg = FeasibleGraph::extract(g, NodeId(0), query.s());
        Solver::new(&fg, &SelectConfig::default())
            .threads(threads)
            .sgq(query, None)
    }

    /// STGQ on `threads` workers over the radius-`s` candidate space.
    fn stgq_on(
        g: &SocialGraph,
        cals: &[Calendar],
        query: &StgqQuery,
        threads: usize,
    ) -> StgqOutcome {
        let fg = FeasibleGraph::extract(g, NodeId(0), query.s());
        Solver::new(&fg, &SelectConfig::default())
            .threads(threads)
            .stgq(cals, query)
    }

    /// Random weighted graph + calendars for equivalence tests.
    fn random_instance(
        seed: u64,
        n: usize,
        edge_prob: f64,
        horizon: usize,
    ) -> (SocialGraph, Vec<Calendar>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(edge_prob) {
                    b.add_edge(NodeId(u as u32), NodeId(v as u32), rng.gen_range(1..=50))
                        .unwrap();
                }
            }
        }
        let graph = b.build();
        let calendars = (0..n)
            .map(|_| {
                let mut c = Calendar::new(horizon);
                for slot in 0..horizon {
                    if rng.gen_bool(0.7) {
                        c.set_available(slot, true);
                    }
                }
                c
            })
            .collect();
        (graph, calendars)
    }

    #[test]
    fn sgq_parallel_matches_sequential_on_random_graphs() {
        let cfg = SelectConfig::default();
        for seed in 0..8 {
            let (g, _) = random_instance(seed, 24, 0.3, 1);
            let query = SgqQuery::new(5, 2, 1).unwrap();
            let seq = solve_sgq(&g, NodeId(0), &query, &cfg).unwrap();
            for threads in [2, 4] {
                let par = sgq_on(&g, &query, threads);
                assert_eq!(
                    par.solution.as_ref().map(|s| s.total_distance),
                    seq.solution.as_ref().map(|s| s.total_distance),
                    "seed {seed}, {threads} threads"
                );
                if let Some(sol) = &par.solution {
                    assert!(crate::validate::validate_sgq(&g, NodeId(0), &query, sol).is_ok());
                }
            }
        }
    }

    #[test]
    fn stgq_parallel_matches_sequential_on_random_instances() {
        let cfg = SelectConfig::default();
        for seed in 100..106 {
            let (g, cals) = random_instance(seed, 20, 0.35, 48);
            let query = StgqQuery::new(4, 2, 1, 4).unwrap();
            let seq = solve_stgq(&g, NodeId(0), &cals, &query, &cfg).unwrap();
            for threads in [2, 4] {
                let par = stgq_on(&g, &cals, &query, threads);
                assert_eq!(
                    par.solution.as_ref().map(|s| s.total_distance),
                    seq.solution.as_ref().map(|s| s.total_distance),
                    "seed {seed}, {threads} threads"
                );
                if let Some(sol) = &par.solution {
                    assert!(
                        crate::validate::validate_stgq(&g, NodeId(0), &cals, &query, sol).is_ok()
                    );
                }
            }
        }
    }

    #[test]
    fn single_thread_request_delegates_to_sequential() {
        let (g, cals) = random_instance(7, 16, 0.4, 24);
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let cfg = SelectConfig::default();
        let seq = solve_stgq(&g, NodeId(0), &cals, &query, &cfg).unwrap();
        let par = stgq_on(&g, &cals, &query, 1);
        assert_eq!(
            par.solution, seq.solution,
            "one worker is literally sequential"
        );
        assert_eq!(par.stats, seq.stats);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let (g, _) = random_instance(11, 16, 0.4, 1);
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let cfg = SelectConfig::default();
        let seq = solve_sgq(&g, NodeId(0), &query, &cfg).unwrap();
        let par = sgq_on(&g, &query, 0);
        assert_eq!(
            par.solution.map(|s| s.total_distance),
            seq.solution.map(|s| s.total_distance)
        );
    }

    #[test]
    fn infeasible_instances_return_none_in_parallel() {
        // A star graph cannot seat 4 people with k = 0 (leaves unacquainted).
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(NodeId(0), NodeId(v), 1).unwrap();
        }
        let g = b.build();
        let query = SgqQuery::new(4, 1, 0).unwrap();
        let out = sgq_on(&g, &query, 4);
        assert!(out.solution.is_none());
    }

    #[test]
    fn more_threads_than_pivots_is_fine() {
        let (g, cals) = random_instance(13, 12, 0.5, 12);
        let query = StgqQuery::new(3, 1, 1, 6).unwrap(); // only 2 pivots
        let cfg = SelectConfig::default();
        let seq = solve_stgq(&g, NodeId(0), &cals, &query, &cfg).unwrap();
        let par = stgq_on(&g, &cals, &query, 16);
        assert_eq!(
            par.solution.map(|s| s.total_distance),
            seq.solution.map(|s| s.total_distance)
        );
    }

    #[test]
    fn cancelled_parallel_solves_report_cancelled_not_truncated() {
        // Regression for the executor's `Engine::ExactParallel` path: the
        // parallel workers must poll `SolveControl` (between tasks and on
        // the frame path), and a stopped solve must surface as
        // *cancelled*, never as budget truncation.
        let (g, cals) = random_instance(21, 20, 0.35, 48);
        let fg = FeasibleGraph::extract(&g, NodeId(0), 2);
        let cfg = SelectConfig::default();
        let token = CancelToken::new();
        token.cancel();
        let control = SolveControl::new().with_cancel(token);

        let sgq = SgqQuery::new(5, 2, 1).unwrap();
        let out = Solver::new(&fg, &cfg)
            .threads(4)
            .control(Some(&control))
            .sgq(&sgq, None);
        assert!(out.stats.cancelled, "SGQ workers must poll the control");
        assert!(!out.stats.truncated, "cancellation is not truncation");

        let stgq = StgqQuery::new(4, 2, 1, 4).unwrap();
        let out = Solver::new(&fg, &cfg)
            .threads(4)
            .control(Some(&control))
            .stgq(&cals, &stgq);
        assert!(out.stats.cancelled, "STGQ pivot workers must poll");
        assert!(!out.stats.truncated);

        // Few pivots ⇒ the intra-pivot split path must poll too.
        let wide = StgqQuery::new(3, 2, 1, 20).unwrap();
        let out = Solver::new(&fg, &cfg)
            .threads(16)
            .control(Some(&control))
            .stgq(&cals, &wide);
        assert!(out.stats.cancelled || out.stats.pivots_processed == 0);
        assert!(!out.stats.truncated);
    }

    #[test]
    fn quiet_control_does_not_change_parallel_results() {
        let (g, cals) = random_instance(22, 18, 0.4, 36);
        let fg = FeasibleGraph::extract(&g, NodeId(0), 2);
        let cfg = SelectConfig::default();
        let control = SolveControl::new().with_cancel(CancelToken::new());

        let sgq = SgqQuery::new(4, 2, 1).unwrap();
        let plain = Solver::new(&fg, &cfg).threads(3).sgq(&sgq, None);
        let quiet = Solver::new(&fg, &cfg)
            .threads(3)
            .control(Some(&control))
            .sgq(&sgq, None);
        assert_eq!(
            plain.solution.map(|s| s.total_distance),
            quiet.solution.map(|s| s.total_distance)
        );
        assert!(!quiet.stats.cancelled);

        let stgq = StgqQuery::new(4, 2, 1, 4).unwrap();
        let plain = Solver::new(&fg, &cfg).threads(3).stgq(&cals, &stgq);
        let quiet = Solver::new(&fg, &cfg)
            .threads(3)
            .control(Some(&control))
            .stgq(&cals, &stgq);
        assert_eq!(
            plain.solution.map(|s| s.total_distance),
            quiet.solution.map(|s| s.total_distance)
        );
        assert!(!quiet.stats.cancelled);
    }
}
