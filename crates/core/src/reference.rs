//! Scalar **reference engines**: the pre-word-parallel implementations of
//! SGSelect and STGSelect, kept verbatim-in-spirit for two jobs:
//!
//! 1. **Equivalence testing** — the optimized engines must return the same
//!    optimal objective on every instance; the cross-engine suites check
//!    them against these reference solvers (and the exhaustive baselines).
//! 2. **Benchmark baselining** — the `hotpath` criterion suite measures
//!    the optimized engines *against* these, so the speedup of the
//!    word-parallel/zero-allocation work is a number in `BENCH_core.json`,
//!    not a claim.
//!
//! What makes these "reference": per-frame `VA` **cloning** (one heap
//! allocation per descent), **per-slot** Lemma-5 counter updates (a branch
//! on every interval offset per removal), per-slot availability-bitmap
//! construction in pivot preparation, and a per-candidate rescan of `VS`
//! in the `U`/`A` computation. The optimized engines replace all four —
//! see the crate docs' "Hot-path architecture" section.
//!
//! Exactness is identical (Theorems 2 and 3 apply to both); only the work
//! per search step differs.

// Per-slot counters read clearest with indexed loops.
#![allow(clippy::needless_range_loop)]

use stgq_graph::{BitSet, Dist, FeasibleGraph, NodeId, SocialGraph};
use stgq_schedule::pivot::{pivot_interval, pivot_of_window, pivot_slots};
use stgq_schedule::{Calendar, SlotId, SlotRange};

use crate::incumbent::Incumbent;
use crate::inputs::check_temporal_inputs;
use crate::{
    QueryError, SearchStats, SelectConfig, SgqOutcome, SgqQuery, SgqSolution, StgqOutcome,
    StgqQuery, StgqSolution,
};

// ---------------------------------------------------------------------
// Shared VA state (clone-on-descent semantics)
// ---------------------------------------------------------------------

/// `VA` with inner-degree counters, cloned per frame (the reference cost
/// model: one allocation per descent, no undo log).
#[derive(Clone)]
pub(crate) struct RefVaState {
    pub(crate) set: BitSet,
    pub(crate) cnt_in_a: Vec<u32>,
    pub(crate) total_inner: u64,
}

impl RefVaState {
    pub(crate) fn init(fg: &FeasibleGraph, mask: Option<&BitSet>) -> Self {
        let f = fg.len();
        let mut set = BitSet::new(f);
        for &c in fg.candidate_order() {
            if mask.is_none_or(|m| m.contains(c as usize)) {
                set.insert(c as usize);
            }
        }
        let mut cnt_in_a = vec![0u32; f];
        for v in 0..f as u32 {
            cnt_in_a[v as usize] = fg.adj(v).intersection_len(&set) as u32;
        }
        let total_inner = set.iter().map(|v| cnt_in_a[v] as u64).sum();
        RefVaState {
            set,
            cnt_in_a,
            total_inner,
        }
    }

    fn len(&self) -> usize {
        self.set.len()
    }

    pub(crate) fn remove(&mut self, u: u32, fg: &FeasibleGraph) {
        debug_assert!(self.set.contains(u as usize));
        self.total_inner -= 2 * u64::from(self.cnt_in_a[u as usize]);
        self.set.remove(u as usize);
        for &nb in fg.neighbors(u) {
            self.cnt_in_a[nb as usize] -= 1;
        }
    }

    fn min_inner_degree(&self) -> u64 {
        self.set
            .iter()
            .map(|v| u64::from(self.cnt_in_a[v]))
            .min()
            .unwrap_or(0)
    }
}

/// `VA` plus per-slot Lemma-5 unavailability counters, updated by a
/// branch on **every** interval offset per removal (the reference cost
/// model the word-parallel `PivotAxis` counters are measured against).
#[derive(Clone)]
pub(crate) struct RefStVaState {
    pub(crate) base: RefVaState,
    pub(crate) unavail: Vec<u32>,
}

impl RefStVaState {
    fn len(&self) -> usize {
        self.base.len()
    }

    pub(crate) fn remove(&mut self, u: u32, fg: &FeasibleGraph, avail_u: &BitSet) {
        self.base.remove(u, fg);
        for off in 0..self.unavail.len() {
            if !avail_u.contains(off) {
                self.unavail[off] -= 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// SGQ reference
// ---------------------------------------------------------------------

/// Reference SGSelect: identical optimum to [`crate::solve_sgq`], searched
/// with clone-on-descent frames and per-candidate `VS` rescans.
pub fn solve_sgq_reference(
    graph: &SocialGraph,
    initiator: NodeId,
    query: &SgqQuery,
    cfg: &SelectConfig,
) -> Result<SgqOutcome, QueryError> {
    if initiator.index() >= graph.node_count() {
        return Err(QueryError::InitiatorOutOfRange {
            initiator,
            node_count: graph.node_count(),
        });
    }
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(solve_sgq_reference_on(&fg, query, cfg, None))
}

/// As [`solve_sgq_reference`] on a pre-extracted feasible graph.
pub fn solve_sgq_reference_on(
    fg: &FeasibleGraph,
    query: &SgqQuery,
    cfg: &SelectConfig,
    candidate_mask: Option<&BitSet>,
) -> SgqOutcome {
    let p = query.p();
    if p == 1 {
        return SgqOutcome {
            solution: Some(SgqSolution {
                members: vec![fg.origin(0)],
                total_distance: 0,
            }),
            stats: SearchStats::default(),
        };
    }

    let incumbent = Incumbent::new();
    let mut searcher = RefSearcher::new(fg, p, query.k(), cfg, &incumbent);
    let va = RefVaState::init(fg, candidate_mask);
    searcher.push(0);
    searcher.expand(va, 0);
    let stats = searcher.stats;

    let solution = incumbent
        .into_best()
        .map(|(total_distance, group)| SgqSolution {
            members: fg.to_origin_group(group),
            total_distance,
        });
    SgqOutcome { solution, stats }
}

struct RefSearcher<'a> {
    fg: &'a FeasibleGraph,
    p: usize,
    k: i64,
    cfg: SelectConfig,
    vs: Vec<u32>,
    cnt_in_s: Vec<u32>,
    incumbent: &'a Incumbent<Vec<u32>>,
    stats: SearchStats,
}

impl<'a> RefSearcher<'a> {
    fn new(
        fg: &'a FeasibleGraph,
        p: usize,
        k: usize,
        cfg: &SelectConfig,
        incumbent: &'a Incumbent<Vec<u32>>,
    ) -> Self {
        RefSearcher {
            fg,
            p,
            k: k.min(p - 1) as i64,
            cfg: *cfg,
            vs: Vec::with_capacity(p),
            cnt_in_s: vec![0; fg.len()],
            incumbent,
            stats: SearchStats::default(),
        }
    }

    fn push(&mut self, u: u32) {
        for &nb in self.fg.neighbors(u) {
            self.cnt_in_s[nb as usize] += 1;
        }
        self.vs.push(u);
    }

    fn pop(&mut self, u: u32) {
        let popped = self.vs.pop();
        debug_assert_eq!(popped, Some(u));
        for &nb in self.fg.neighbors(u) {
            self.cnt_in_s[nb as usize] -= 1;
        }
    }

    /// `U(VS ∪ {u})` and `A(VS ∪ {u})` by a full rescan of `VS` with an
    /// adjacency probe per member (the reference cost model).
    fn u_and_a(&self, u: u32, va: &RefVaState) -> (i64, i64) {
        let vs_len = self.vs.len() as i64;
        let adj_u = self.fg.adj(u);
        let miss_u = vs_len - i64::from(self.cnt_in_s[u as usize]);
        let mut u_val = miss_u;
        let mut a_val = i64::from(va.cnt_in_a[u as usize]) + (self.k - miss_u);
        for &v in &self.vs {
            let adj_vu = i64::from(adj_u.contains(v as usize));
            let miss_v = vs_len - i64::from(self.cnt_in_s[v as usize]) - adj_vu;
            u_val = u_val.max(miss_v);
            let term = (i64::from(va.cnt_in_a[v as usize]) - adj_vu) + (self.k - miss_v);
            a_val = a_val.min(term);
        }
        (u_val, a_val)
    }

    fn interior_ok(&self, u_val: i64, theta: u32) -> bool {
        if theta == 0 {
            return u_val <= self.k;
        }
        let ratio = (self.vs.len() + 1) as f64 / self.p as f64;
        (u_val as f64) <= self.k as f64 * ratio.powi(theta as i32) + 1e-9
    }

    fn distance_prune(&mut self, td: Dist, min_dist: Dist) -> bool {
        if !self.cfg.distance_pruning {
            return false;
        }
        let Some(best) = self.incumbent.dist() else {
            return false;
        };
        let need = (self.p - self.vs.len()) as u64;
        let fires = match best.checked_sub(td) {
            None => true,
            Some(slack) => slack < need * min_dist,
        };
        if fires {
            self.stats.distance_prunes += 1;
        }
        fires
    }

    fn acquaintance_prune(&mut self, va: &RefVaState) -> bool {
        if !self.cfg.acquaintance_pruning {
            return false;
        }
        let need = (self.p - self.vs.len()) as i64;
        let rhs = need * (need - 1 - self.k);
        if rhs <= 0 {
            return false;
        }
        let not_extracted = va.len() as i64 - need;
        debug_assert!(not_extracted >= 0);
        let lhs = va.total_inner as i64 - not_extracted * va.min_inner_degree() as i64;
        let fires = lhs < rhs;
        if fires {
            self.stats.acquaintance_prunes += 1;
        }
        fires
    }

    fn record(&mut self, td: Dist) {
        self.stats.solutions_recorded += 1;
        let vs = &self.vs;
        self.incumbent.offer(td, || vs.clone());
    }

    fn expand(&mut self, mut va: RefVaState, td: Dist) {
        if let Some(budget) = self.cfg.frame_budget {
            if self.stats.frames >= budget {
                self.stats.truncated = true;
                return;
            }
        }
        self.stats.frames += 1;
        let order = self.fg.candidate_order();
        let mut theta = self.cfg.theta0;
        let mut cursor = 0usize;
        let mut min_ptr = 0usize;

        loop {
            if self.vs.len() + va.len() < self.p {
                return;
            }
            while min_ptr < order.len() && !va.set.contains(order[min_ptr] as usize) {
                min_ptr += 1;
            }
            debug_assert!(min_ptr < order.len(), "VA non-empty here");
            let min_dist = self.fg.dist(order[min_ptr]);
            if self.distance_prune(td, min_dist) {
                return;
            }
            if self.acquaintance_prune(&va) {
                return;
            }

            while cursor < order.len() && !va.set.contains(order[cursor] as usize) {
                cursor += 1;
            }
            let u = if cursor < order.len() {
                let u = order[cursor];
                cursor += 1;
                u
            } else if theta > 0 {
                theta -= 1;
                cursor = 0;
                continue;
            } else {
                return;
            };
            self.stats.candidates_examined += 1;

            let (u_val, a_val) = self.u_and_a(u, &va);
            if a_val < (self.p - self.vs.len() - 1) as i64 {
                self.stats.exterior_rejections += 1;
                va.remove(u, self.fg);
                continue;
            }
            if !self.interior_ok(u_val, theta) {
                self.stats.interior_rejections += 1;
                if theta == 0 {
                    va.remove(u, self.fg);
                }
                continue;
            }

            let new_td = td + self.fg.dist(u);
            self.push(u);
            if self.vs.len() == self.p {
                self.record(new_td);
                self.pop(u);
                return;
            }
            let mut child = va.clone();
            child.remove(u, self.fg);
            self.stats.vertices_expanded += 1;
            self.expand(child, new_td);
            self.pop(u);
            va.remove(u, self.fg);
        }
    }
}

// ---------------------------------------------------------------------
// STGQ reference
// ---------------------------------------------------------------------

/// Reference STGSelect: identical optimum to [`crate::solve_stgq`], with
/// per-slot counter maintenance and clone-on-descent frames.
pub fn solve_stgq_reference(
    graph: &SocialGraph,
    initiator: NodeId,
    calendars: &[Calendar],
    query: &StgqQuery,
    cfg: &SelectConfig,
) -> Result<StgqOutcome, QueryError> {
    check_temporal_inputs(graph, initiator, calendars)?;
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(solve_stgq_reference_on(&fg, calendars, query, cfg))
}

/// As [`solve_stgq_reference`] on a pre-extracted feasible graph.
pub fn solve_stgq_reference_on(
    fg: &FeasibleGraph,
    calendars: &[Calendar],
    query: &StgqQuery,
    cfg: &SelectConfig,
) -> StgqOutcome {
    let cfg = cfg.normalized();
    let m = query.m();
    let p = query.p();
    let mut stats = SearchStats::default();
    if calendars.is_empty() {
        return StgqOutcome {
            solution: None,
            stats,
        };
    }
    let horizon = calendars[0].horizon();

    let q_cal = &calendars[fg.origin(0).index()];
    if p == 1 {
        let solution = q_cal.windows_of(m).next().map(|start| StgqSolution {
            members: vec![fg.origin(0)],
            total_distance: 0,
            period: SlotRange::new(start, start + m - 1),
            pivot: pivot_of_window(start, m),
        });
        return StgqOutcome { solution, stats };
    }

    let incumbent = Incumbent::new();
    for pivot in pivot_slots(horizon, m) {
        let Some((runs, avail, va, q_run)) =
            prepare_pivot_reference(fg, calendars, p, m, pivot, horizon, &mut stats)
        else {
            continue;
        };
        let mut searcher = RefStSearcher {
            fg,
            p,
            k: query.k().min(p - 1) as i64,
            m,
            cfg,
            pivot,
            interval: pivot_interval(pivot, m, horizon),
            runs: &runs,
            avail: &avail,
            vs: Vec::with_capacity(p),
            cnt_in_s: vec![0; fg.len()],
            ts_stack: Vec::with_capacity(p),
            incumbent: &incumbent,
            stats: &mut stats,
        };
        searcher.push(0, q_run);
        searcher.expand(va, 0);
    }

    let solution = incumbent
        .into_best()
        .map(|(dist, (group, period, pivot))| StgqSolution {
            members: fg.to_origin_group(group),
            total_distance: dist,
            period,
            pivot,
        });
    StgqOutcome { solution, stats }
}

/// Per-slot pivot preparation: probes `is_available` for every (candidate,
/// offset) pair and counts unavailability with a nested scalar loop.
#[allow(clippy::type_complexity)]
pub(crate) fn prepare_pivot_reference(
    fg: &FeasibleGraph,
    calendars: &[Calendar],
    p: usize,
    m: usize,
    pivot: SlotId,
    horizon: usize,
    stats: &mut SearchStats,
) -> Option<(Vec<Option<SlotRange>>, Vec<BitSet>, RefStVaState, SlotRange)> {
    let f = fg.len();
    let q_cal = &calendars[fg.origin(0).index()];
    let interval = pivot_interval(pivot, m, horizon);
    let q_run = q_cal
        .run_containing(pivot, interval)
        .filter(|r| r.len() >= m)?;
    stats.pivots_processed += 1;

    let ilen = interval.len();
    let mut runs: Vec<Option<SlotRange>> = vec![None; f];
    let mut avail: Vec<BitSet> = vec![BitSet::new(0); f];
    runs[0] = Some(q_run);
    let mut eligible = BitSet::new(f);
    for &c in fg.candidate_order() {
        let cal = &calendars[fg.origin(c).index()];
        let run = cal.run_containing(pivot, interval).filter(|r| r.len() >= m);
        runs[c as usize] = run;
        if run.is_some() {
            eligible.insert(c as usize);
            let mut bits = BitSet::new(ilen);
            for (off, slot) in interval.iter().enumerate() {
                if cal.is_available(slot) {
                    bits.insert(off);
                }
            }
            avail[c as usize] = bits;
        }
    }
    if eligible.len() + 1 < p {
        return None;
    }

    let base = RefVaState::init(fg, Some(&eligible));
    let mut unavail = vec![0u32; ilen];
    for v in eligible.iter() {
        for off in 0..ilen {
            if !avail[v].contains(off) {
                unavail[off] += 1;
            }
        }
    }
    Some((runs, avail, RefStVaState { base, unavail }, q_run))
}

struct RefStSearcher<'a> {
    fg: &'a FeasibleGraph,
    p: usize,
    k: i64,
    m: usize,
    cfg: SelectConfig,
    pivot: SlotId,
    interval: SlotRange,
    runs: &'a [Option<SlotRange>],
    avail: &'a [BitSet],
    vs: Vec<u32>,
    cnt_in_s: Vec<u32>,
    ts_stack: Vec<SlotRange>,
    incumbent: &'a Incumbent<(Vec<u32>, SlotRange, SlotId)>,
    stats: &'a mut SearchStats,
}

impl RefStSearcher<'_> {
    fn push(&mut self, u: u32, ts: SlotRange) {
        for &nb in self.fg.neighbors(u) {
            self.cnt_in_s[nb as usize] += 1;
        }
        self.vs.push(u);
        self.ts_stack.push(ts);
    }

    fn pop(&mut self, u: u32) {
        let popped = self.vs.pop();
        debug_assert_eq!(popped, Some(u));
        self.ts_stack.pop();
        for &nb in self.fg.neighbors(u) {
            self.cnt_in_s[nb as usize] -= 1;
        }
    }

    fn current_ts(&self) -> SlotRange {
        *self.ts_stack.last().expect("VS always holds the initiator")
    }

    fn u_and_a(&self, u: u32, va: &RefStVaState) -> (i64, i64) {
        let vs_len = self.vs.len() as i64;
        let adj_u = self.fg.adj(u);
        let miss_u = vs_len - i64::from(self.cnt_in_s[u as usize]);
        let mut u_val = miss_u;
        let mut a_val = i64::from(va.base.cnt_in_a[u as usize]) + (self.k - miss_u);
        for &v in &self.vs {
            let adj_vu = i64::from(adj_u.contains(v as usize));
            let miss_v = vs_len - i64::from(self.cnt_in_s[v as usize]) - adj_vu;
            u_val = u_val.max(miss_v);
            let term = (i64::from(va.base.cnt_in_a[v as usize]) - adj_vu) + (self.k - miss_v);
            a_val = a_val.min(term);
        }
        (u_val, a_val)
    }

    fn interior_ok(&self, u_val: i64, theta: u32) -> bool {
        if theta == 0 {
            return u_val <= self.k;
        }
        let ratio = (self.vs.len() + 1) as f64 / self.p as f64;
        (u_val as f64) <= self.k as f64 * ratio.powi(theta as i32) + 1e-9
    }

    fn temporal_ok(&self, x: i64, phi: u32) -> bool {
        if x < 0 {
            return false;
        }
        if phi >= self.cfg.phi_cap {
            return true;
        }
        let ratio = (self.p - (self.vs.len() + 1)) as f64 / self.p as f64;
        (x as f64) >= (self.m - 1) as f64 * ratio.powi(phi as i32) - 1e-9
    }

    fn distance_prune(&mut self, td: Dist, min_dist: Dist) -> bool {
        if !self.cfg.distance_pruning {
            return false;
        }
        let Some(best) = self.incumbent.dist() else {
            return false;
        };
        let need = (self.p - self.vs.len()) as u64;
        let fires = match best.checked_sub(td) {
            None => true,
            Some(slack) => slack < need * min_dist,
        };
        if fires {
            self.stats.distance_prunes += 1;
        }
        fires
    }

    fn acquaintance_prune(&mut self, va: &RefStVaState) -> bool {
        if !self.cfg.acquaintance_pruning {
            return false;
        }
        let need = (self.p - self.vs.len()) as i64;
        let rhs = need * (need - 1 - self.k);
        if rhs <= 0 {
            return false;
        }
        let not_extracted = va.len() as i64 - need;
        debug_assert!(not_extracted >= 0);
        let lhs = va.base.total_inner as i64 - not_extracted * va.base.min_inner_degree() as i64;
        let fires = lhs < rhs;
        if fires {
            self.stats.acquaintance_prunes += 1;
        }
        fires
    }

    /// Lemma 5 with a scalar scan over per-slot counters.
    fn availability_prune(&mut self, va: &RefStVaState) -> bool {
        if !self.cfg.availability_pruning {
            return false;
        }
        let need = self.p - self.vs.len();
        debug_assert!(va.len() >= need);
        let n = (va.len() - need + 1) as u32;
        let pivot_off = self.pivot - self.interval.lo;
        let len = va.unavail.len();

        let mut t_minus = -1i64;
        for off in (0..pivot_off).rev() {
            if va.unavail[off] >= n {
                t_minus = off as i64;
                break;
            }
        }
        let mut t_plus = len as i64;
        for off in pivot_off + 1..len {
            if va.unavail[off] >= n {
                t_plus = off as i64;
                break;
            }
        }
        let fires = t_plus - t_minus <= self.m as i64;
        if fires {
            self.stats.availability_prunes += 1;
        }
        fires
    }

    fn record(&mut self, td: Dist, ts: SlotRange) {
        self.stats.solutions_recorded += 1;
        debug_assert!(ts.len() >= self.m);
        let period = SlotRange::new(ts.lo, ts.lo + self.m - 1);
        let (vs, pivot) = (&self.vs, self.pivot);
        self.incumbent.offer(td, || (vs.clone(), period, pivot));
    }

    fn expand(&mut self, mut va: RefStVaState, td: Dist) {
        if let Some(budget) = self.cfg.frame_budget {
            if self.stats.frames >= budget {
                self.stats.truncated = true;
                return;
            }
        }
        self.stats.frames += 1;
        let order = self.fg.candidate_order();
        let mut theta = self.cfg.theta0;
        let mut phi = self.cfg.phi0;
        let mut cursor = 0usize;
        let mut min_ptr = 0usize;

        loop {
            if self.vs.len() + va.len() < self.p {
                return;
            }
            while min_ptr < order.len() && !va.base.set.contains(order[min_ptr] as usize) {
                min_ptr += 1;
            }
            debug_assert!(min_ptr < order.len());
            let min_dist = self.fg.dist(order[min_ptr]);
            if self.distance_prune(td, min_dist) {
                return;
            }
            if self.acquaintance_prune(&va) {
                return;
            }
            if self.availability_prune(&va) {
                return;
            }

            while cursor < order.len() && !va.base.set.contains(order[cursor] as usize) {
                cursor += 1;
            }
            let u = if cursor < order.len() {
                let u = order[cursor];
                cursor += 1;
                u
            } else if theta > 0 {
                theta -= 1;
                cursor = 0;
                continue;
            } else if phi < self.cfg.phi_cap {
                phi += 1;
                cursor = 0;
                continue;
            } else {
                return;
            };
            self.stats.candidates_examined += 1;

            let (u_val, a_val) = self.u_and_a(u, &va);
            if a_val < (self.p - self.vs.len() - 1) as i64 {
                self.stats.exterior_rejections += 1;
                let avail_u = &self.avail[u as usize];
                va.remove(u, self.fg, avail_u);
                continue;
            }
            if !self.interior_ok(u_val, theta) {
                self.stats.interior_rejections += 1;
                if theta == 0 {
                    let avail_u = &self.avail[u as usize];
                    va.remove(u, self.fg, avail_u);
                }
                continue;
            }
            let run_u = self.runs[u as usize].expect("VA members are eligible");
            let ts = self.current_ts();
            let new_ts = SlotRange::new(ts.lo.max(run_u.lo), ts.hi.min(run_u.hi));
            let x = new_ts.len() as i64 - self.m as i64;
            if !self.temporal_ok(x, phi) {
                self.stats.temporal_rejections += 1;
                if x < 0 {
                    let avail_u = &self.avail[u as usize];
                    va.remove(u, self.fg, avail_u);
                }
                continue;
            }

            let new_td = td + self.fg.dist(u);
            self.push(u, new_ts);
            if self.vs.len() == self.p {
                self.record(new_td, new_ts);
                self.pop(u);
                let avail_u = &self.avail[u as usize];
                va.remove(u, self.fg, avail_u);
                return;
            }
            let mut child = va.clone();
            child.remove(u, self.fg, &self.avail[u as usize]);
            self.stats.vertices_expanded += 1;
            self.expand(child, new_td);
            self.pop(u);
            let avail_u = &self.avail[u as usize];
            va.remove(u, self.fg, avail_u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_sgq, solve_stgq};
    use stgq_graph::GraphBuilder;

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

    #[test]
    fn reference_sgq_matches_paper_example() {
        let (g, q) = example2();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let a = solve_sgq_reference(&g, q, &query, &SelectConfig::default()).unwrap();
        let b = solve_sgq(&g, q, &query, &SelectConfig::default()).unwrap();
        assert_eq!(a.solution.as_ref().unwrap().total_distance, 62);
        assert_eq!(
            a.solution.map(|s| s.total_distance),
            b.solution.map(|s| s.total_distance)
        );
    }

    #[test]
    fn reference_stgq_matches_paper_example() {
        let (g, q) = example2();
        let horizon = 7;
        let mut cals = vec![Calendar::new(horizon); 9];
        cals[2] = Calendar::from_slots(horizon, 0..7);
        cals[3] = Calendar::from_slots(horizon, [1, 2, 4, 5]);
        cals[4] = Calendar::from_slots(horizon, [0, 1, 2, 3, 4, 6]);
        cals[6] = Calendar::from_slots(horizon, [1, 2, 3, 4, 5, 6]);
        cals[7] = Calendar::from_slots(horizon, [0, 1, 2, 3, 4, 5]);
        cals[8] = Calendar::from_slots(horizon, [0, 2, 4, 5]);
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let a = solve_stgq_reference(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        let b = solve_stgq(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        let sa = a.solution.unwrap();
        assert_eq!(sa.total_distance, 17 + 27 + 23);
        assert_eq!(sa.period, SlotRange::new(1, 3));
        assert_eq!(sa.total_distance, b.solution.unwrap().total_distance);
    }

    #[test]
    fn reference_handles_empty_calendars() {
        let (g, q) = example2();
        let fg = FeasibleGraph::extract(&g, q, 1);
        let query = StgqQuery::new(2, 1, 1, 2).unwrap();
        let out = solve_stgq_reference_on(&fg, &[], &query, &SelectConfig::default());
        assert!(out.solution.is_none());
    }
}
