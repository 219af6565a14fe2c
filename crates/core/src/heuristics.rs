//! Inexact solvers: greedy construction and local-search improvement.
//!
//! The paper's engines are exact; these heuristics complement them where
//! exactness is not worth its exponential worst case (very large `p`, or
//! interactive "good answer now" settings):
//!
//! * [`greedy_sgq`] / [`greedy_stgq`] — distance-ordered greedy descent:
//!   repeatedly add the socially-closest candidate that keeps the hard
//!   acquaintance constraint (`U ≤ k`), Lemma 1's expansibility requirement
//!   and (for STGQ) an `m`-slot common run alive. Optional *restarts* force
//!   each of the first `r` candidates as the first pick and keep the best
//!   outcome — the cheapest defence against greedy's myopia.
//! * [`local_search_sgq`] / [`local_search_stgq`] — first-improvement swap
//!   descent from the greedy seed: exchange one member for one outsider
//!   whenever the swap lowers the total distance and keeps the group
//!   feasible, until a local optimum.
//!
//! Everything returned is **feasible by construction** (the full
//! constraint checks run on every accepted move) but only *locally*
//! optimal; the quality-vs-optimal gap is measured in the benchmark
//! harness's heuristic-quality experiment. A third anytime option needs no
//! code here at all: [`crate::SelectConfig::with_frame_budget`] turns the
//! exact engines into anytime solvers that return their incumbent when the
//! budget runs out.
//!
//! PCArrange (§5.1) stays in [`crate::pc_arrange`]: it is the paper's
//! model of *manual* coordination, not a quality-seeking heuristic.

use stgq_graph::{BitSet, CandidateTopology, Dist, FeasibleGraph, NodeId, SocialGraph};
use stgq_schedule::pivot::pivot_slots;
use stgq_schedule::{Calendar, Cals, SlotRange};

use crate::inputs::check_temporal_inputs;
use crate::stgselect::{materialize_pivot, prepare_pivot, PivotArena, PivotJob, PivotPrep};
use crate::{QueryError, SearchStats, SgqQuery, SgqSolution, StgqQuery, StgqSolution};

/// Outcome of a heuristic SGQ run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeuristicSgq {
    /// A feasible (not necessarily optimal) group, or `None` when the
    /// heuristic failed to construct one — which does **not** prove the
    /// query infeasible.
    pub solution: Option<SgqSolution>,
    /// Candidate feasibility evaluations performed (the heuristic
    /// counterpart of [`SearchStats::candidates_examined`]).
    pub evaluations: u64,
}

/// Outcome of a heuristic STGQ run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeuristicStgq {
    /// A feasible (not necessarily optimal) group and period, or `None`
    /// when the heuristic failed — again, not a proof of infeasibility.
    pub solution: Option<StgqSolution>,
    /// Candidate feasibility evaluations performed.
    pub evaluations: u64,
}

// ---------------------------------------------------------------------
// SGQ
// ---------------------------------------------------------------------

/// Greedy SGQ: distance-ordered descent with `restarts` forced first picks
/// (`restarts = 1` is plain greedy; more trade time for quality).
pub fn greedy_sgq(
    graph: &SocialGraph,
    initiator: NodeId,
    query: &SgqQuery,
    restarts: usize,
) -> Result<HeuristicSgq, QueryError> {
    if initiator.index() >= graph.node_count() {
        return Err(QueryError::InitiatorOutOfRange {
            initiator,
            node_count: graph.node_count(),
        });
    }
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(greedy_sgq_on(&fg, query, None, restarts))
}

/// As [`greedy_sgq`] on a pre-extracted feasible graph with an optional
/// candidate mask (compact indices).
pub fn greedy_sgq_on<G: CandidateTopology>(
    fg: &G,
    query: &SgqQuery,
    mask: Option<&BitSet>,
    restarts: usize,
) -> HeuristicSgq {
    let mut ctx = GreedyCtx::new(fg, query.p(), query.k(), mask, None, 0);
    let (best, evaluations) = ctx.run_restarts(restarts.max(1));
    HeuristicSgq {
        solution: best.map(|(members, total_distance)| SgqSolution {
            members: fg.to_origin_group(members),
            total_distance,
        }),
        evaluations,
    }
}

/// Greedy + first-improvement swap descent for SGQ. `max_passes` bounds
/// the improvement sweeps (each pass is O(p · f) swap evaluations).
pub fn local_search_sgq(
    graph: &SocialGraph,
    initiator: NodeId,
    query: &SgqQuery,
    restarts: usize,
    max_passes: usize,
) -> Result<HeuristicSgq, QueryError> {
    if initiator.index() >= graph.node_count() {
        return Err(QueryError::InitiatorOutOfRange {
            initiator,
            node_count: graph.node_count(),
        });
    }
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(local_search_sgq_on(&fg, query, None, restarts, max_passes))
}

/// As [`local_search_sgq`] on a pre-extracted feasible graph.
pub fn local_search_sgq_on<G: CandidateTopology>(
    fg: &G,
    query: &SgqQuery,
    mask: Option<&BitSet>,
    restarts: usize,
    max_passes: usize,
) -> HeuristicSgq {
    let mut ctx = GreedyCtx::new(fg, query.p(), query.k(), mask, None, 0);
    let (seed, mut evaluations) = ctx.run_restarts(restarts.max(1));
    let solution = seed.map(|(mut members, mut dist)| {
        evaluations += ctx.improve(&mut members, &mut dist, max_passes);
        SgqSolution {
            members: fg.to_origin_group(members),
            total_distance: dist,
        }
    });
    HeuristicSgq {
        solution,
        evaluations,
    }
}

// ---------------------------------------------------------------------
// STGQ
// ---------------------------------------------------------------------

/// Greedy STGQ: per pivot time slot, a greedy descent that also keeps an
/// `m`-slot common run alive; the best pivot wins.
pub fn greedy_stgq(
    graph: &SocialGraph,
    initiator: NodeId,
    calendars: &[Calendar],
    query: &StgqQuery,
    restarts: usize,
) -> Result<HeuristicStgq, QueryError> {
    check_temporal_inputs(graph, initiator, calendars)?;
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(run_stgq_heuristic(
        &fg,
        calendars.into(),
        query,
        restarts,
        0,
    ))
}

/// Greedy + swap descent for STGQ (swaps stay within the winning pivot's
/// interval and re-check the common run).
pub fn local_search_stgq(
    graph: &SocialGraph,
    initiator: NodeId,
    calendars: &[Calendar],
    query: &StgqQuery,
    restarts: usize,
    max_passes: usize,
) -> Result<HeuristicStgq, QueryError> {
    check_temporal_inputs(graph, initiator, calendars)?;
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(run_stgq_heuristic(
        &fg,
        calendars.into(),
        query,
        restarts,
        max_passes,
    ))
}

/// As [`greedy_stgq`] on a pre-extracted feasible graph. `calendars` is
/// any [`Cals`] source, indexed by original vertex id.
pub fn greedy_stgq_on<'a, G: CandidateTopology>(
    fg: &G,
    calendars: impl Into<Cals<'a>>,
    query: &StgqQuery,
    restarts: usize,
) -> HeuristicStgq {
    run_stgq_heuristic(fg, calendars.into(), query, restarts, 0)
}

/// As [`local_search_stgq`] on a pre-extracted feasible graph. `calendars`
/// is any [`Cals`] source, indexed by original vertex id.
pub fn local_search_stgq_on<'a, G: CandidateTopology>(
    fg: &G,
    calendars: impl Into<Cals<'a>>,
    query: &StgqQuery,
    restarts: usize,
    max_passes: usize,
) -> HeuristicStgq {
    run_stgq_heuristic(fg, calendars.into(), query, restarts, max_passes)
}

fn run_stgq_heuristic<G: CandidateTopology>(
    fg: &G,
    calendars: Cals<'_>,
    query: &StgqQuery,
    restarts: usize,
    max_passes: usize,
) -> HeuristicStgq {
    let p = query.p();
    let m = query.m();
    let horizon = calendars.first().map(Calendar::horizon).unwrap_or(0);
    let mut evaluations = 0u64;
    let mut best: Option<(Vec<u32>, Dist, SlotRange, usize)> = None;
    let mut scratch = SearchStats::default();
    // The greedy engine pools the pivot buffers like the exact loop
    // does, but preps plainly (no peel): its evaluation counts are
    // pinned by behaviour tests, and it never consults the bound.
    let mut arena = PivotArena::new();
    let prep = PivotPrep::plain(p, m, horizon);

    for pivot in pivot_slots(horizon, m) {
        let Some(mut job) = prepare_pivot(fg, calendars, &prep, pivot, &mut scratch, &mut arena)
        else {
            continue;
        };
        // The greedy engine never bounds, so it skips the peel and floor
        // of `finalize_pivot` and materializes every prepared pivot.
        materialize_pivot(fg, calendars, &mut job, &mut scratch);
        let mut ctx = GreedyCtx::new(fg, p, query.k(), None, Some(&job), m);
        let (found, evals) = ctx.run_restarts(restarts.max(1));
        evaluations += evals;
        let Some((mut members, mut dist)) = found else {
            arena.recycle(job);
            continue;
        };
        if max_passes > 0 {
            evaluations += ctx.improve(&mut members, &mut dist, max_passes);
        }
        let ts = ctx
            .common_run(&members)
            .expect("greedy groups share an m-run");
        if best.as_ref().is_none_or(|(_, d, _, _)| dist < *d) {
            best = Some((members, dist, ts, pivot));
        }
        arena.recycle(job);
    }

    HeuristicStgq {
        solution: best.map(|(members, total_distance, ts, pivot)| StgqSolution {
            members: fg.to_origin_group(members),
            total_distance,
            period: SlotRange::new(ts.lo, ts.lo + m - 1),
            pivot,
        }),
        evaluations,
    }
}

/// Greedy restarts behind the exact STGQ engine's incumbent seed, when
/// the first-fit probe misses.
const SEED_RESTARTS: usize = 2;

/// Greedy descent restricted to one prepared pivot — the exact engine's
/// **incumbent seed**. Reuses the pivot's `PivotJob` (no extra
/// preparation) and returns the compact member set (initiator included),
/// its total distance, and the members' common run through the pivot.
/// `None` means the greedy failed here, not that the pivot is infeasible.
pub(crate) fn greedy_seed_for_pivot<G: CandidateTopology>(
    fg: &G,
    p: usize,
    k: usize,
    m: usize,
    job: &PivotJob,
) -> Option<(Vec<u32>, Dist, SlotRange)> {
    let mut ctx = GreedyCtx::new(fg, p, k, None, Some(job), m);
    // First-fit first: when it lands it realises the pivot's distance
    // floor (`PivotJob::dist_bound`), so the caller's bound check retires
    // the whole pivot for the cost of one feasibility evaluation.
    if let Some((members, dist)) = first_fit_group(&mut ctx) {
        let ts = ctx
            .common_run(&members)
            .expect("feasible groups share an m-run");
        return Some((members, dist, ts));
    }
    let (best, _evaluations) = ctx.run_restarts(SEED_RESTARTS);
    let (members, dist) = best?;
    let ts = ctx.common_run(&members)?;
    Some((members, dist, ts))
}

/// First-fit probe shared by the engines' incumbent seeds: the initiator
/// plus her `p − 1` *nearest* allowed candidates — exactly the distance
/// floor of `ctx`'s candidate set. Returns the compact group and its
/// total distance when it passes the full feasibility check (hard
/// acquaintance constraint, and the `m`-run requirement when `ctx`
/// carries a pivot job); one O(p²) evaluation, no descent.
fn first_fit_group<G: CandidateTopology>(ctx: &mut GreedyCtx<'_, G>) -> Option<(Vec<u32>, Dist)> {
    if ctx.p < 2 || ctx.order.len() < ctx.p - 1 {
        return None;
    }
    let mut members: Vec<u32> = Vec::with_capacity(ctx.p);
    members.push(0);
    members.extend_from_slice(&ctx.order[..ctx.p - 1]);
    if !ctx.feasible_group(&members) {
        return None;
    }
    let dist = members[1..].iter().map(|&c| ctx.fg.dist(c)).sum();
    Some((members, dist))
}

/// The SGQ engines' first-fit incumbent seed (see [`first_fit_group`]):
/// the sequential searcher finds its own first completion within ~`p`
/// frames, so only this near-free probe is worth running ahead of it.
pub(crate) fn first_fit_sgq_seed<G: CandidateTopology>(
    fg: &G,
    p: usize,
    k: usize,
    mask: Option<&BitSet>,
) -> Option<(Vec<u32>, Dist)> {
    let mut ctx = GreedyCtx::new(fg, p, k, mask, None, 0);
    first_fit_group(&mut ctx)
}

// ---------------------------------------------------------------------
// Shared machinery
// ---------------------------------------------------------------------

/// Greedy/local-search working state over one feasible graph (and, for
/// STGQ, one pivot's temporal context).
struct GreedyCtx<'a, G> {
    fg: &'a G,
    p: usize,
    k: i64,
    /// Candidates allowed at all (mask ∩ pivot eligibility), as compact ids
    /// in ascending distance order.
    order: Vec<u32>,
    /// Temporal context when solving STGQ at one pivot.
    job: Option<&'a PivotJob>,
    m: usize,
    evaluations: u64,
}

impl<'a, G: CandidateTopology> GreedyCtx<'a, G> {
    /// `m` is the required activity length; pass 0 (with `job = None`)
    /// for SGQ. It must be supplied explicitly — it cannot be recovered
    /// from the pivot interval, whose nominal `2m − 1` span is clamped at
    /// the horizon edges.
    fn new(
        fg: &'a G,
        p: usize,
        k: usize,
        mask: Option<&BitSet>,
        job: Option<&'a PivotJob>,
        m: usize,
    ) -> Self {
        debug_assert_eq!(job.is_some(), m > 0, "temporal jobs come with their m");
        let order: Vec<u32> = fg
            .candidate_order()
            .iter()
            .copied()
            .filter(|&c| mask.is_none_or(|mk| mk.contains(c as usize)))
            .filter(|&c| job.is_none_or(|j| j.runs[c as usize].is_some()))
            .collect();
        GreedyCtx {
            fg,
            p,
            k: k.min(p.saturating_sub(1)) as i64,
            order,
            job,
            m,
            evaluations: 0,
        }
    }

    /// Common available run (through the pivot) of `members`, if any.
    fn common_run(&self, members: &[u32]) -> Option<SlotRange> {
        let job = self.job?;
        let mut ts = job.q_run;
        for &v in members {
            if v == 0 {
                continue;
            }
            let run = job.runs[v as usize]?;
            ts = ts.intersect(&run)?;
        }
        Some(ts)
    }

    /// `U(group)` directly from the definition (O(p²), p is small).
    fn unfamiliarity(&self, group: &[u32]) -> i64 {
        group
            .iter()
            .map(|&v| {
                group
                    .iter()
                    .filter(|&&u| u != v && !self.fg.adjacent(u, v))
                    .count() as i64
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether `group` (complete or partial) satisfies the hard
    /// acquaintance constraint, and — with a temporal job — shares an
    /// `m`-slot run.
    fn feasible_group(&mut self, group: &[u32]) -> bool {
        self.evaluations += 1;
        if self.unfamiliarity(group) > self.k {
            return false;
        }
        match self.job {
            None => true,
            Some(_) => self.common_run(group).is_some_and(|ts| ts.len() >= self.m),
        }
    }

    /// Lemma 1 check for a partial group: can `group` still be expanded to
    /// `p` members from the unused candidates?
    fn expansible(&mut self, group: &[u32], used: &BitSet) -> bool {
        self.evaluations += 1;
        let remaining = self
            .order
            .iter()
            .filter(|&&c| !used.contains(c as usize))
            .count();
        if group.len() + remaining < self.p {
            return false;
        }
        // A(group) ≥ p − |group| with VA = unused candidates.
        let need = (self.p - group.len()) as i64;
        for &v in group {
            let miss_v = group
                .iter()
                .filter(|&&u| u != v && !self.fg.adjacent(u, v))
                .count() as i64;
            let nb_in_va = self
                .order
                .iter()
                .filter(|&&c| !used.contains(c as usize) && self.fg.adjacent(c, v))
                .count() as i64;
            if nb_in_va + (self.k - miss_v) < need {
                return false;
            }
        }
        true
    }

    /// One greedy descent; `forced` (an index into `order`) fixes the first
    /// pick. Returns the compact member set (initiator included) and its
    /// total distance.
    fn descend(&mut self, forced: Option<usize>) -> Option<(Vec<u32>, Dist)> {
        let mut group: Vec<u32> = vec![0];
        let mut used = BitSet::new(self.fg.len());
        let mut dist: Dist = 0;

        if let Some(i) = forced {
            let u = *self.order.get(i)?;
            group.push(u);
            used.insert(u as usize);
            if !self.feasible_group(&group) || !self.expansible(&group, &used) {
                return None;
            }
            dist += self.fg.dist(u);
        }

        while group.len() < self.p {
            let mut picked = None;
            for idx in 0..self.order.len() {
                let u = self.order[idx];
                if used.contains(u as usize) || group.contains(&u) {
                    continue;
                }
                group.push(u);
                used.insert(u as usize);
                if self.feasible_group(&group) {
                    if self.expansible(&group, &used) {
                        picked = Some(u);
                        break;
                    }
                    // Expansibility depends on how many members are still
                    // needed, which shrinks every level — u may pass later.
                    used.remove(u as usize);
                } else {
                    // U only grows as the group grows: u is dead for good
                    // in this descent. `used` keeps it.
                }
                group.pop();
            }
            match picked {
                Some(u) => dist += self.fg.dist(u),
                None => return None,
            }
        }
        Some((group, dist))
    }

    /// Greedy with `restarts` forced first picks; returns the best group
    /// found plus the evaluation count (consumed from `self`).
    fn run_restarts(&mut self, restarts: usize) -> (Option<(Vec<u32>, Dist)>, u64) {
        if self.p == 1 {
            // Just the initiator — with a job, the q-run is guaranteed.
            return (Some((vec![0], 0)), 0);
        }
        let mut best: Option<(Vec<u32>, Dist)> = None;
        // Plain greedy first, then forced alternatives.
        let plans: Vec<Option<usize>> = std::iter::once(None)
            .chain((0..restarts.saturating_sub(1).min(self.order.len())).map(Some))
            .collect();
        for forced in plans {
            if let Some((members, dist)) = self.descend(forced) {
                if best.as_ref().is_none_or(|(_, d)| dist < *d) {
                    best = Some((members, dist));
                }
            }
        }
        (best, std::mem::take(&mut self.evaluations))
    }

    /// First-improvement swap descent; mutates `members`/`dist` in place
    /// and returns the evaluations spent.
    fn improve(&mut self, members: &mut [u32], dist: &mut Dist, max_passes: usize) -> u64 {
        let mut in_group = BitSet::new(self.fg.len());
        for &v in members.iter() {
            in_group.insert(v as usize);
        }
        for _ in 0..max_passes {
            let mut improved = false;
            'outer: for mi in 0..members.len() {
                let out = members[mi];
                if out == 0 {
                    continue; // never swap the initiator out
                }
                for idx in 0..self.order.len() {
                    let cand = self.order[idx];
                    // Candidates are distance-sorted: once cand is no
                    // cheaper than `out`, no later one improves either.
                    if self.fg.dist(cand) >= self.fg.dist(out) {
                        break;
                    }
                    if in_group.contains(cand as usize) {
                        continue;
                    }
                    members[mi] = cand;
                    if self.feasible_group(members) {
                        in_group.remove(out as usize);
                        in_group.insert(cand as usize);
                        *dist = *dist - self.fg.dist(out) + self.fg.dist(cand);
                        improved = true;
                        continue 'outer;
                    }
                    members[mi] = out;
                }
            }
            if !improved {
                break;
            }
        }
        std::mem::take(&mut self.evaluations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{validate_sgq, validate_stgq};
    use crate::{solve_sgq, solve_stgq, SelectConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use stgq_graph::GraphBuilder;

    /// The Example-2 graph (Figure 3).
    fn example2() -> (SocialGraph, NodeId) {
        let mut b = GraphBuilder::new(9);
        b.add_edge(NodeId(7), NodeId(2), 17).unwrap();
        b.add_edge(NodeId(7), NodeId(3), 18).unwrap();
        b.add_edge(NodeId(7), NodeId(4), 27).unwrap();
        b.add_edge(NodeId(7), NodeId(6), 23).unwrap();
        b.add_edge(NodeId(7), NodeId(8), 25).unwrap();
        b.add_edge(NodeId(2), NodeId(4), 14).unwrap();
        b.add_edge(NodeId(2), NodeId(6), 19).unwrap();
        b.add_edge(NodeId(3), NodeId(4), 29).unwrap();
        b.add_edge(NodeId(4), NodeId(6), 20).unwrap();
        (b.build(), NodeId(7))
    }

    fn example3() -> (SocialGraph, NodeId, Vec<Calendar>) {
        let (g, q) = example2();
        let horizon = 7;
        let mut cals = vec![Calendar::new(horizon); 9];
        cals[2] = Calendar::from_slots(horizon, 0..7);
        cals[3] = Calendar::from_slots(horizon, [1, 2, 4, 5]);
        cals[4] = Calendar::from_slots(horizon, [0, 1, 2, 3, 4, 6]);
        cals[6] = Calendar::from_slots(horizon, [1, 2, 3, 4, 5, 6]);
        cals[7] = Calendar::from_slots(horizon, [0, 1, 2, 3, 4, 5]);
        cals[8] = Calendar::from_slots(horizon, [0, 2, 4, 5]);
        (g, q, cals)
    }

    #[test]
    fn greedy_sgq_is_feasible_and_bounded_by_optimum() {
        let (g, q) = example2();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let opt = solve_sgq(&g, q, &query, &SelectConfig::default())
            .unwrap()
            .solution
            .unwrap();
        let h = greedy_sgq(&g, q, &query, 1).unwrap();
        let sol = h.solution.expect("example 2 is greedy-solvable");
        assert!(validate_sgq(&g, q, &query, &sol).is_ok());
        assert!(sol.total_distance >= opt.total_distance);
        assert!(h.evaluations > 0);
    }

    #[test]
    fn greedy_happens_to_hit_the_example2_optimum() {
        // Unlike SGSelect's θ = 2 walkthrough (which defers v3 and reaches
        // {v2,v4,v6,v7} = 64 first), plain greedy accepts v3 right after v2
        // — U({v7,v2,v3}) = 1 ≤ k — and completes with v4: the optimum 62.
        // Pinned to catch behavioural drift, not as a quality guarantee.
        let (g, q) = example2();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let sol = greedy_sgq(&g, q, &query, 1).unwrap().solution.unwrap();
        assert_eq!(sol.total_distance, 62);
        assert_eq!(
            sol.members,
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(7)]
        );
    }

    #[test]
    fn restarts_never_hurt() {
        let (g, q) = example2();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let one = greedy_sgq(&g, q, &query, 1).unwrap().solution.unwrap();
        let many = greedy_sgq(&g, q, &query, 5).unwrap().solution.unwrap();
        assert!(many.total_distance <= one.total_distance);
    }

    #[test]
    fn local_search_recovers_the_example2_optimum() {
        let (g, q) = example2();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let sol = local_search_sgq(&g, q, &query, 3, 8)
            .unwrap()
            .solution
            .unwrap();
        // Swapping v6 (23) for v3 (18) repairs greedy's miss: 62.
        assert_eq!(sol.total_distance, 62);
        assert!(validate_sgq(&g, q, &query, &sol).is_ok());
    }

    #[test]
    fn greedy_stgq_respects_all_constraints() {
        let (g, q, cals) = example3();
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let opt = solve_stgq(&g, q, &cals, &query, &SelectConfig::default())
            .unwrap()
            .solution
            .unwrap();
        let h = greedy_stgq(&g, q, &cals, &query, 2).unwrap();
        let sol = h.solution.expect("example 3 is greedy-solvable");
        assert!(validate_stgq(&g, q, &cals, &query, &sol).is_ok());
        assert!(sol.total_distance >= opt.total_distance);
    }

    #[test]
    fn stgq_local_search_only_improves() {
        let (g, q, cals) = example3();
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let greedy = greedy_stgq(&g, q, &cals, &query, 1)
            .unwrap()
            .solution
            .unwrap();
        let ls = local_search_stgq(&g, q, &cals, &query, 1, 8)
            .unwrap()
            .solution
            .unwrap();
        assert!(ls.total_distance <= greedy.total_distance);
        assert!(validate_stgq(&g, q, &cals, &query, &ls).is_ok());
    }

    #[test]
    fn p_one_is_trivial() {
        let (g, q) = example2();
        let query = SgqQuery::new(1, 1, 0).unwrap();
        let sol = greedy_sgq(&g, q, &query, 1).unwrap().solution.unwrap();
        assert_eq!(sol.members, vec![q]);
        assert_eq!(sol.total_distance, 0);
    }

    #[test]
    fn impossible_instances_return_none_not_panic() {
        // Star: k = 0 with p = 4 is infeasible.
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(NodeId(0), NodeId(v), 1).unwrap();
        }
        let g = b.build();
        let query = SgqQuery::new(4, 1, 0).unwrap();
        assert!(greedy_sgq(&g, NodeId(0), &query, 4)
            .unwrap()
            .solution
            .is_none());
    }

    #[test]
    fn out_of_range_initiator_is_an_error() {
        let (g, _) = example2();
        let query = SgqQuery::new(2, 1, 1).unwrap();
        assert!(matches!(
            greedy_sgq(&g, NodeId(99), &query, 1).unwrap_err(),
            QueryError::InitiatorOutOfRange { .. }
        ));
    }

    #[test]
    fn random_instances_feasible_and_dominated_by_optimum() {
        let cfg = SelectConfig::default();
        let mut greedy_hits = 0;
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 18;
            let mut b = GraphBuilder::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.35) {
                        b.add_edge(NodeId(u as u32), NodeId(v as u32), rng.gen_range(1..40))
                            .unwrap();
                    }
                }
            }
            let g = b.build();
            let query = SgqQuery::new(5, 2, 1).unwrap();
            let opt = solve_sgq(&g, NodeId(0), &query, &cfg).unwrap().solution;
            let h = greedy_sgq(&g, NodeId(0), &query, 3).unwrap().solution;
            if let Some(sol) = &h {
                greedy_hits += 1;
                assert!(
                    validate_sgq(&g, NodeId(0), &query, sol).is_ok(),
                    "seed {seed}"
                );
                let opt = opt.as_ref().expect("greedy feasible ⇒ query feasible");
                assert!(sol.total_distance >= opt.total_distance, "seed {seed}");
                let ls = local_search_sgq(&g, NodeId(0), &query, 3, 6)
                    .unwrap()
                    .solution
                    .expect("seed succeeded for greedy");
                assert!(ls.total_distance <= sol.total_distance, "seed {seed}");
                assert!(ls.total_distance >= opt.total_distance, "seed {seed}");
            }
        }
        // Greedy with 3 restarts solves a steady fraction of these k = 1
        // instances (the floor guards against constructive regressions; the
        // per-seed assertions above are the correctness substance).
        assert!(
            greedy_hits >= 10,
            "greedy solved only {greedy_hits}/40 instances"
        );
    }

    #[test]
    fn anytime_budget_truncates_and_still_validates() {
        let (g, q) = example2();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let tight = SelectConfig::default().with_frame_budget(1);
        let out = solve_sgq(&g, q, &query, &tight).unwrap();
        assert!(out.stats.truncated, "one frame cannot finish example 2");
        if let Some(sol) = out.solution {
            assert!(validate_sgq(&g, q, &query, &sol).is_ok());
        }
        let loose = SelectConfig::default().with_frame_budget(1_000_000);
        let full = solve_sgq(&g, q, &query, &loose).unwrap();
        assert!(!full.stats.truncated);
        assert_eq!(full.solution.unwrap().total_distance, 62);
    }
}
