//! Algorithm **STGSelect** (§4.2): exact branch-and-bound for STGQ.
//!
//! STGSelect extends SGSelect along the temporal dimension:
//!
//! * **Pivot time slots** (Lemma 4): only slots `π ≡ m−1 (mod m)` anchor a
//!   search, each owning the interval `[π−(m−1), π+(m−1)]`. Any feasible
//!   `m`-slot period contains exactly one pivot, so covering the pivots
//!   covers every period — at a fraction of the sequential baseline's cost.
//! * **Per-pivot feasible graph** (Definition 4): a candidate participates
//!   at pivot `π` only if it has ≥ `m` consecutive available slots inside
//!   the interval; since any such run necessarily contains `π`, eligibility
//!   is "the maximal available run through `π` has length ≥ `m`".
//! * **Temporal extensibility** (Definition 5): `X(VS) = |TS| − m`, where
//!   `TS` is the members' common available run through the pivot. `TS` of a
//!   set is the interval intersection of per-member runs, so the condition
//!   check is O(1) per candidate.
//! * **Availability pruning** (Lemma 5): per-slot counts of unavailable
//!   `VA` members locate the nearest blocked slots `t⁻`/`t⁺` around the
//!   pivot; `t⁺ − t⁻ ≤ m` kills the frame.
//!
//! The best solution is shared **across** pivots: a good early incumbent
//! strengthens distance pruning at later pivots without affecting
//! optimality (Theorem 3).
//!
//! # The query pipeline: extract-index → prepare → peel → floor → materialize-on-touch → descend
//!
//! A query flows through six stages — the first once per query, the
//! rest per pivot, every one able to retire its input before the next
//! gets to run (counters in parentheses):
//!
//! ```text
//! extract-index  radius-s candidate space over the world — on the
//!     │          serving path a borrowed zero-copy `FeasibleView`
//!     │          (compact index + one masked word matrix generated
//!     │          segment-wise over the snapshot's CSR rows; nothing
//!     │          copied); the materialized `FeasibleGraph` carries the
//!     │          flat-graph entry points and the reference engines.
//!     │          Engines see either through `CandidateTopology`,
//!     │          bit-identically.          (extract_words_borrowed)
//!     ▼
//!  prepare   Definition-4 eligibility, delta'd from the run cache when
//!     │      a cached calendar run covers the pivot (prep_words_delta),
//!     │      scanned from packed calendar words otherwise; the cache
//!     │      persists *across* solves in the worker's arena under the
//!     │      world-version handshake (run_cache_cross_solve_hits); runs
//!     │      clipped to the initiator's             (pivots_processed)
//!     ▼
//!   peel     fixpoint (p,k)-core over eligible ∪ {q}
//!     │        ├─ sub-core candidates leave VA forever (peeled_candidates)
//!     │        └─ core < p, or q short of p−1−k
//!     │           acquaintances → refuse pivot   (pivots_refused_by_core)
//!     ▼
//!   floor    optimistic distance floor over the core, restricted to
//!     │        candidates covering one common m-slot window
//!     │        └─ incumbent ≤ floor → skip pivot        (pivots_skipped)
//!     ▼
//! materialize-on-touch  availability words + Lemma-5 counters, built
//!     │        only for the post-peel core of a pivot that survived
//!     │        every pre-descent bound and the seed; skipped pivots
//!     │        never touch a calendar word          (prep_words_rebuilt)
//!     ▼
//!  descend   exact branch-and-bound frames              (frames)
//!              ├─ Lemma 2 / 3 / 5 prunes               (distance_prunes, …)
//!              ├─ k-plex matching bound        (frames_pruned_by_match)
//!              └─ parent-side completion bound: children priced
//!                 against the incumbent *before* being opened
//!                                    (children_pruned_by_parent_bound)
//! ```
//!
//! The peel stage is a pure function of `(query, eligible set)`, so its
//! result is **shared**: computed once per candidate-set signature
//! ([`PivotPrep`] for the full-candidate signature, the [`PivotArena`]
//! memo for the last per-pivot one) and reused across the pivot loop
//! and across parallel workers. The run cache behind the prepare stage
//! is likewise per-solve state in the [`PivotArena`] — promise-ordered
//! pivots revisit overlapping intervals, so after the first pivot most
//! candidates' Definition-4 runs are pure arithmetic on the cached
//! calendar-absolute run, with no pointer chase into the calendars at
//! all.

// Parallel per-slot counters are clearer with indexed loops.
#![allow(clippy::needless_range_loop)]

use std::collections::HashMap;
use std::time::Instant;

use stgq_graph::{
    for_each_zero_bit, BitSet, CandidateTopology, Dist, FeasibleGraph, NodeId, SocialGraph,
};
use stgq_schedule::pivot::{pivot_interval, pivot_of_window, pivot_slots};
use stgq_schedule::{Calendar, Cals, SlotId, SlotRange};

use crate::incumbent::Incumbent;
use crate::inputs::check_temporal_inputs;
use crate::reduce::{
    initiator_core_ok, kplex_frame_prune, peel_min_deg, peel_to_core, MatchScratch, ParentFloor,
};
use crate::sgselect::{VaState, VsAggregates};
use crate::timings::StageTimings;
use crate::{
    QueryError, SearchStats, SelectConfig, SolveControl, StgqOutcome, StgqQuery, StgqSolution,
};

/// Nanoseconds of a span, saturating (a span can't realistically exceed
/// `u64::MAX` ns, but the cast must not wrap).
#[inline]
fn span_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX)
}

/// Solve an STGQ with STGSelect.
///
/// `calendars` is indexed by **original** vertex id and must share one
/// horizon. Returns the optimal (group, period) or `None` when infeasible.
pub fn solve_stgq(
    graph: &SocialGraph,
    initiator: NodeId,
    calendars: &[Calendar],
    query: &StgqQuery,
    cfg: &SelectConfig,
) -> Result<StgqOutcome, QueryError> {
    check_temporal_inputs(graph, initiator, calendars)?;
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(solve_stgq_on(&fg, calendars, query, cfg))
}

/// As [`solve_stgq`] on a pre-extracted feasible graph (radius extraction is
/// time-independent, so callers sweeping parameters can reuse it).
///
/// `calendars` is any [`Cals`] source — a flat `&[Calendar]` slice or the
/// execution layer's shard-partitioned
/// [`CalendarShards`](stgq_schedule::CalendarShards) — indexed by
/// **original** vertex id either way.
///
/// `fg` is any [`CandidateTopology`] carrier: the materialized
/// [`FeasibleGraph`] (reference/compat path) or the zero-copy
/// [`FeasibleView`](stgq_graph::FeasibleView) borrowed from a snapshot —
/// the search is bit-identical on both.
pub fn solve_stgq_on<'a, G: CandidateTopology>(
    fg: &G,
    calendars: impl Into<Cals<'a>>,
    query: &StgqQuery,
    cfg: &SelectConfig,
) -> StgqOutcome {
    let mut arena = PivotArena::new();
    solve_stgq_pooled(fg, calendars, query, cfg, &mut arena)
}

/// As [`solve_stgq_on`], reusing `arena`'s pivot buffers. A long-lived
/// caller (the service planner, a benchmark loop) holds one [`PivotArena`]
/// and amortises the flattened availability buffers, bitmaps, undo logs
/// and access-order permutations across queries; within one call the same
/// buffers are already recycled across the pivot loop. Purely an
/// allocation strategy — results are identical to [`solve_stgq_on`].
pub fn solve_stgq_pooled<'a, G: CandidateTopology>(
    fg: &G,
    calendars: impl Into<Cals<'a>>,
    query: &StgqQuery,
    cfg: &SelectConfig,
    arena: &mut PivotArena,
) -> StgqOutcome {
    solve_stgq_controlled(fg, calendars, query, cfg, arena, None)
}

/// As [`solve_stgq_pooled`], with an optional [`SolveControl`]
/// (cooperative cancellation / deadline) polled on the frame-counter path
/// and between pivots. A stopped solve returns the incumbent found so far
/// with [`SearchStats::cancelled`] set; `control: None` is byte-for-byte
/// [`solve_stgq_pooled`].
///
/// [`SearchStats::cancelled`]: crate::SearchStats::cancelled
pub fn solve_stgq_controlled<'a, G: CandidateTopology>(
    fg: &G,
    calendars: impl Into<Cals<'a>>,
    query: &StgqQuery,
    cfg: &SelectConfig,
    arena: &mut PivotArena,
    control: Option<&SolveControl>,
) -> StgqOutcome {
    let calendars: Cals<'a> = calendars.into();
    let control = control.filter(|c| !c.is_noop());
    let cfg = cfg.normalized();
    let m = query.m();
    let p = query.p();
    let mut stats = SearchStats::default();
    // A stale split from the previous solve must never be read as this
    // one's, whichever early return below fires.
    arena.timings = StageTimings::default();

    // No calendars ⇒ nobody (the initiator included) is ever available.
    // `solve_stgq` rejects this earlier with `CalendarCountMismatch`; this
    // entry point takes pre-validated inputs, so degrade to "infeasible"
    // instead of indexing out of bounds.
    if calendars.is_empty() {
        return StgqOutcome {
            solution: None,
            stats,
        };
    }
    let horizon = calendars.get(0).horizon();

    let q_cal = calendars.get(fg.origin(0).index());
    if p == 1 {
        // The initiator alone: earliest window where she is available.
        let solution = q_cal.windows_of(m).next().map(|start| StgqSolution {
            members: vec![fg.origin(0)],
            total_distance: 0,
            period: SlotRange::new(start, start + m - 1),
            pivot: pivot_of_window(start, m),
        });
        return StgqOutcome { solution, stats };
    }

    let pivots = promise_ordered_pivots(q_cal, horizon, m, cfg.pivot_promise_order);
    let prep = PivotPrep::new(fg, p, query.k(), m, horizon, &cfg);
    arena.begin_solve();

    // Stage-timing state (see `crate::timings`). Coarse mode is
    // mark-based: one mark before the loop, advanced only around exact
    // descent — a pivot that never descends costs zero clock reads and
    // folds into the next preparation span. Detail mode clocks each
    // phase call individually instead.
    let timing = arena.record_timings;
    let detail = timing && arena.timing_detail;
    let mut tm = StageTimings {
        pivots: pivots.len() as u64,
        ..StageTimings::default()
    };
    let mut mark = if timing { Some(Instant::now()) } else { None };

    let incumbent = Incumbent::new();
    for pivot in pivots {
        // Cooperative stop between pivots: a cancelled search frame set
        // `stats.cancelled`; a deadline/token may also trip while this
        // thread is outside any frame (preparing a pivot). This path is
        // outside the frame loop, so it uses the unamortised check — the
        // frame-count mask would otherwise let a deadline-only control
        // slip past every remaining pivot preparation.
        if stats.cancelled {
            break;
        }
        if let Some(control) = control {
            if control.should_stop_now() {
                stats.cancelled = true;
                break;
            }
        }
        let prep_t0 = detail.then(Instant::now);
        let prepared = prepare_pivot(fg, calendars, &prep, pivot, &mut stats, arena);
        if let Some(t0) = prep_t0 {
            tm.prepare_ns += span_ns(t0, Instant::now());
        }
        let Some(mut job) = prepared else {
            continue;
        };
        tm.prepared += 1;
        // Pivot-granularity Lemma 2 against the phase-1 plain bound:
        // every group at this pivot spends at least `dist_bound`, so an
        // incumbent at or below it cannot be strictly beaten here — skip
        // the whole pivot before paying for peel, floor or `VA` state.
        if pivot_bound_skips(&cfg, &incumbent, job.dist_bound) {
            stats.pivots_skipped += 1;
            arena.recycle(job);
            continue;
        }
        let fin_t0 = detail.then(Instant::now);
        let finalized = finalize_pivot(fg, &prep, &mut job, &mut stats, arena);
        if let Some(t0) = fin_t0 {
            tm.finalize_ns += span_ns(t0, Instant::now());
        }
        if !finalized {
            arena.recycle(job);
            continue;
        }
        // Re-check against the finalized bound: the sharp floor over the
        // peeled core is never looser than the plain one.
        if pivot_bound_skips(&cfg, &incumbent, job.dist_bound) {
            stats.pivots_skipped += 1;
            arena.recycle(job);
            continue;
        }
        // Seed the incumbent from this pivot's prepared state (no extra
        // preparation): Lemma-2 pruning is active from the very first
        // exact frame, and later pivots inherit the bound. Once any
        // incumbent exists the exact search refines it at least as fast
        // as greedy would, so seeding stops paying and stops running.
        if cfg.seed_restarts > 0 && incumbent.dist().is_none() {
            if let Some((group, dist, ts)) = crate::heuristics::greedy_seed_for_pivot(
                fg,
                p,
                query.k(),
                m,
                &job,
                cfg.seed_restarts,
            ) {
                let period = SlotRange::new(ts.lo, ts.lo + m - 1);
                incumbent.offer(dist, || StBest {
                    group,
                    period,
                    pivot,
                });
            }
            // The seed may already match this pivot's floor.
            if pivot_bound_skips(&cfg, &incumbent, job.dist_bound) {
                stats.pivots_skipped += 1;
                arena.recycle(job);
                continue;
            }
        }
        // First frame touch: the pivot has survived every bound it will
        // face before exact descent, so build its availability rows and
        // Lemma-5 counters now — the skips above paid zero availability
        // word traffic.
        let mat_t0 = detail.then(Instant::now);
        materialize_pivot(fg, calendars, &mut job, &mut stats);
        if let Some(t0) = mat_t0 {
            tm.finalize_ns += span_ns(t0, Instant::now());
        }
        // Coarse split: everything since the last mark was preparation
        // (including skipped pivots and seeding); the descent span is
        // exactly the search call.
        if timing && !detail {
            let now = Instant::now();
            if let Some(m0) = mark {
                tm.prepare_ns += span_ns(m0, now);
            }
            mark = Some(now);
        }
        let search_t0 = detail.then(Instant::now);
        tm.descended += 1;
        search_pivot_controlled(fg, query, &cfg, &mut job, &incumbent, &mut stats, control);
        if let Some(t0) = search_t0 {
            tm.descend_ns += span_ns(t0, Instant::now());
        } else if timing {
            let now = Instant::now();
            if let Some(m0) = mark {
                tm.descend_ns += span_ns(m0, now);
            }
            mark = Some(now);
        }
        arena.recycle(job);
    }
    if timing {
        if !detail {
            // Tail of the loop after the last descent — pivots prepared
            // but skipped, or none at all — is preparation time.
            if let Some(m0) = mark {
                tm.prepare_ns += span_ns(m0, Instant::now());
            }
        }
        arena.timings = tm;
    }

    let solution = incumbent.into_best().map(|(dist, b)| StgqSolution {
        members: fg.to_origin_group(b.group),
        total_distance: dist,
        period: b.period,
        pivot: b.pivot,
    });
    StgqOutcome { solution, stats }
}

/// The pivot slots the initiator can host (her Definition-4 run through
/// the pivot spans ≥ `m` slots — the same check `prepare_pivot` makes, so
/// prefiltering here changes no counter), in **promise order** when
/// requested: descending initiator run length, the idea being that more
/// temporal slack means more eligible candidates and better odds the
/// optimum lives there, so early pivots tighten the incumbent for the
/// pivot-granularity bound. Stable — equal-promise pivots stay in
/// calendar order. Shared by the sequential and parallel engines so the
/// two cannot drift.
pub(crate) fn promise_ordered_pivots(
    q_cal: &Calendar,
    horizon: usize,
    m: usize,
    promise_order: bool,
) -> Vec<SlotId> {
    let mut keyed: Vec<(SlotId, usize)> = pivot_slots(horizon, m)
        .filter_map(|pv| {
            let interval = pivot_interval(pv, m, horizon);
            q_cal
                .run_containing(pv, interval)
                .filter(|r| r.len() >= m)
                .map(|r| (pv, r.len()))
        })
        .collect();
    if promise_order {
        keyed.sort_by_key(|&(_, len)| std::cmp::Reverse(len));
    }
    keyed.into_iter().map(|(pv, _)| pv).collect()
}

/// Equal-distance blocks `(start, end)` (end exclusive) of
/// `fg.candidate_order()` with more than one member — the only stretches
/// availability ordering may permute. Distances are time-independent, so
/// one scan serves every pivot of a solve.
pub(crate) fn dist_tie_blocks<G: CandidateTopology>(fg: &G) -> Vec<(u32, u32)> {
    let order = fg.candidate_order();
    let mut blocks = Vec::new();
    let mut i = 0usize;
    while i < order.len() {
        let d = fg.dist(order[i]);
        let mut j = i + 1;
        while j < order.len() && fg.dist(order[j]) == d {
            j += 1;
        }
        if j - i > 1 {
            blocks.push((i as u32, j as u32));
        }
        i = j;
    }
    blocks
}

/// Per-solve shared pivot preprocessing: everything about pivot
/// preparation that does **not** depend on the pivot slot — the query
/// shape, the distance tie blocks, the peel threshold, and the memoized
/// core peel of the *full* candidate set.
///
/// Built once per `(query, feasible graph)` and shared read-only by the
/// sequential pivot loop and by every parallel worker: on dense
/// instances most pivots' eligible sets equal the full candidate set, so
/// the fixpoint peel is computed exactly once here instead of per pivot
/// per worker. Pivots with a *different* eligible signature fall back to
/// the arena's own one-entry memo ([`PivotArena`]).
pub(crate) struct PivotPrep {
    pub(crate) p: usize,
    pub(crate) m: usize,
    pub(crate) horizon: usize,
    /// Fixpoint peel threshold `p − 1 − k` (`None` when vacuous).
    pub(crate) peel_min_deg: Option<usize>,
    /// Equal-distance order blocks for availability tie-breaking
    /// (`None` when [`SelectConfig::availability_ordering`] is off).
    ///
    /// [`SelectConfig::availability_ordering`]: crate::SelectConfig::availability_ordering
    pub(crate) tie_blocks: Option<Vec<(u32, u32)>>,
    /// The peel memo for the full-candidate eligible signature.
    pub(crate) shared_memo: Option<PrepMemo>,
}

impl PivotPrep {
    /// Preprocessing for one solve of `(p, k, m)` over `fg`.
    pub(crate) fn new<G: CandidateTopology>(
        fg: &G,
        p: usize,
        k: usize,
        m: usize,
        horizon: usize,
        cfg: &SelectConfig,
    ) -> Self {
        let peel_min_deg = peel_min_deg(p, k);
        let shared_memo = peel_min_deg.map(|md| {
            let mut all = BitSet::new(fg.len());
            for &c in fg.candidate_order() {
                all.insert(c as usize);
            }
            let mut memo = PrepMemo::empty();
            memo.recompute(fg, &all, p, md, &mut Vec::new(), &mut Vec::new());
            memo
        });
        PivotPrep {
            p,
            m,
            horizon,
            peel_min_deg,
            tie_blocks: cfg.availability_ordering.then(|| dist_tie_blocks(fg)),
            shared_memo,
        }
    }

    /// A bare prep — no peel, no tie-breaking. The greedy heuristic
    /// prepares its pivots with this (its evaluation counts are pinned
    /// by behaviour tests and it never consults the bound).
    pub(crate) fn plain(p: usize, m: usize, horizon: usize) -> Self {
        PivotPrep {
            p,
            m,
            horizon,
            peel_min_deg: None,
            tie_blocks: None,
            shared_memo: None,
        }
    }
}

/// Memoized fixpoint core peel for one eligible-set signature: the
/// peeled core is a pure function of `(query, eligible set)`, so equal
/// signatures reuse the stored result instead of re-running the degree
/// passes. Buffers are owned and recycled across recomputations — a memo
/// miss costs the degree passes, never an allocation.
pub(crate) struct PrepMemo {
    /// The eligible set this memo was computed for (the cache key).
    eligible: BitSet,
    /// How many eligible candidates the peel removed.
    peeled: u64,
    /// Whether the surviving [`core`](Self::core) leaves fewer than `p`
    /// people or leaves the initiator short of `p − 1 − k`
    /// acquaintances.
    refused: bool,
    /// The surviving core.
    core: BitSet,
}

/// Overwrite `dst` with `src`, reusing `dst`'s words when the
/// capacities match (the steady state across a pivot loop).
fn copy_bitset(dst: &mut BitSet, src: &BitSet) {
    if dst.capacity() == src.capacity() {
        dst.clear();
        dst.union_with(src);
    } else {
        *dst = src.clone();
    }
}

impl PrepMemo {
    fn empty() -> Self {
        PrepMemo {
            eligible: BitSet::new(0),
            peeled: 0,
            refused: false,
            core: BitSet::new(0),
        }
    }

    /// Recompute this memo for `eligible` in place with peel threshold
    /// `min_deg`; `deg` and `queue` are peel scratch.
    fn recompute<G: CandidateTopology>(
        &mut self,
        fg: &G,
        eligible: &BitSet,
        p: usize,
        min_deg: usize,
        deg: &mut Vec<u32>,
        queue: &mut Vec<u32>,
    ) {
        copy_bitset(&mut self.eligible, eligible);
        copy_bitset(&mut self.core, eligible);
        self.peeled = peel_to_core(fg, &mut self.core, min_deg, deg, queue);
        self.refused = self.core.len() + 1 < p || !initiator_core_ok(fg, &self.core, min_deg);
    }
}

/// Whether the pivot-level distance bound proves no solution at this pivot
/// can strictly beat the incumbent. Gated on *both* the promise-order
/// switch (it is that feature's pruning half) and Lemma-2 pruning (a
/// pruning-off ablation must really search everything).
pub(crate) fn pivot_bound_skips(
    cfg: &SelectConfig,
    incumbent: &Incumbent<StBest>,
    dist_bound: Dist,
) -> bool {
    cfg.pivot_promise_order
        && cfg.distance_pruning
        && incumbent.dist().is_some_and(|d| d <= dist_bound)
}

/// The incumbent payload: everything about the best solution except its
/// objective value (which lives in the shared atomic).
pub(crate) struct StBest {
    pub(crate) group: Vec<u32>,
    pub(crate) period: SlotRange,
    pub(crate) pivot: SlotId,
}

/// Everything one pivot's search needs, prepared up front so the sequential
/// loop and the parallel workers share the same setup code.
pub(crate) struct PivotJob {
    pub(crate) pivot: SlotId,
    pub(crate) interval: SlotRange,
    pub(crate) q_run: SlotRange,
    /// Maximal available run through the pivot per compact vertex
    /// (Definition 4), `None` for ineligible vertices.
    pub(crate) runs: Vec<Option<SlotRange>>,
    /// Availability bitmaps over interval offsets, flattened to
    /// `avail_stride` words per compact vertex (one allocation for the
    /// whole pivot; ineligible vertices stay all-zero and are never read).
    pub(crate) avail_words: Vec<u64>,
    pub(crate) avail_stride: usize,
    /// This pivot's access order: the graph's total-distance order with
    /// ties broken by availability overlap with the initiator's run
    /// (descending) — temporally doomed candidates sink to the back of
    /// their tie group. Still non-decreasing by distance, which is all
    /// the search's correctness-sensitive uses rely on.
    pub(crate) order: Vec<u32>,
    /// Optimistic lower bound on any group's total distance at this
    /// pivot: the sum of the `p − 1` smallest incident distances among
    /// pivot-eligible candidates (pivot-granularity Lemma 2).
    pub(crate) dist_bound: Dist,
    /// Pivot-eligible candidates (Definition 4) over compact indices.
    pub(crate) eligible: BitSet,
    /// `VA` restricted to the pivot-eligible candidates, with the Lemma-5
    /// per-slot unavailability counters.
    pub(crate) va: StVaState,
}

impl PivotJob {
    /// The packed availability words of compact vertex `v`.
    #[inline]
    pub(crate) fn avail(&self, v: u32) -> &[u64] {
        let start = v as usize * self.avail_stride;
        &self.avail_words[start..start + self.avail_stride]
    }

    /// An empty shell whose buffers [`prepare_pivot`] (re)fills.
    fn empty() -> PivotJob {
        PivotJob {
            pivot: 0,
            interval: SlotRange::new(0, 0),
            q_run: SlotRange::new(0, 0),
            runs: Vec::new(),
            avail_words: Vec::new(),
            avail_stride: 0,
            order: Vec::new(),
            dist_bound: 0,
            eligible: BitSet::new(0),
            va: StVaState {
                base: VaState::init_empty(),
                unavail: Vec::new(),
                max_unavail_ub: 0,
            },
        }
    }
}

/// Recycler for [`PivotJob`] buffers (flattened availability words,
/// bitmaps, Lemma-5 counters, undo logs, access-order permutations).
///
/// The ROADMAP measured pivot preparation at ~25% of small-`m` STGQ
/// solves, most of it allocation and zeroing; one arena makes the
/// sequential pivot loop — and, via [`solve_stgq_pooled`], a whole stream
/// of planner queries — reuse a single set of buffers. The arena holds at
/// most one spare job, which is exactly what a sequential loop produces;
/// parallel workers each keep their own.
///
/// Pooling is an allocation strategy only: every buffer is fully
/// re-initialised by `prepare_pivot`, so a reused arena and a fresh one
/// give bit-identical results.
///
/// The arena also carries the solve's wall-clock stage split: every
/// sequential STGQ solve run on it refreshes [`timings`](Self::timings)
/// (see [`crate::timings`] for the recording modes and their cost).
pub struct PivotArena {
    /// Wall-clock stage split of the most recent sequential STGQ solve
    /// run on this arena (reset at the top of every such solve; stays
    /// [`StageTimings::default`] when recording is off or the solve
    /// never entered the pivot loop).
    pub timings: StageTimings,
    /// Whether solves record [`timings`](Self::timings) (default on —
    /// coarse mode costs two clock reads per descended pivot; the
    /// instrumentation-overhead bench flips this off for its baseline
    /// arm).
    pub record_timings: bool,
    /// Isolate `prepare_pivot` / `finalize_pivot` / descent with
    /// per-call clocks instead of the coarse span scheme (perf tooling
    /// only; see [`crate::timings`]).
    pub timing_detail: bool,
    spare: Option<PivotJob>,
    /// The arena's own one-entry peel memo: the last distinct
    /// per-pivot eligible signature whose peel result was
    /// computed here (consulted after the shared [`PivotPrep`] memo,
    /// which covers the full-candidate signature). Invalidated by
    /// [`begin_solve`](Self::begin_solve) — arenas outlive queries, and
    /// a signature match is only meaningful within one `(query, graph)`.
    memo: Option<PrepMemo>,
    /// Per-solve cache of each compact vertex's **unclipped** maximal
    /// availability run (calendar-absolute slots) — the incremental
    /// prep's delta state.
    /// Promise-ordered pivots cover overlapping intervals, so once a
    /// vertex's run is cached every later pivot falling inside it gets
    /// its Definition-4 run by pure interval arithmetic. Only runs that
    /// actually contain a probed pivot are stored (a vertex unavailable
    /// at the pivot caches nothing — `run_containing` fails fast
    /// there), and [`begin_solve`](Self::begin_solve) wipes the cache:
    /// arenas outlive queries, and runs are only meaningful within one
    /// `(query, calendars)` pair. Cold-per-solve also keeps pooled and
    /// fresh arenas bit-identical.
    run_cache: Vec<Option<SlotRange>>,
    /// **Cross-solve** run cache: unclipped maximal runs that survived a
    /// previous solve on this arena, keyed by *global* person id and
    /// stamped with the calendar-shard version they were read under.
    /// Inert until the executor's world-version handshake
    /// ([`install_world_versions`](Self::install_world_versions)) — a
    /// plain solve neither reads nor writes it, so library callers see
    /// exactly the per-solve semantics above. With the handshake active,
    /// [`prepare_pivot`] consults it on per-solve cache misses: an entry
    /// whose stamp still matches the person's current shard version is a
    /// run over provably unchanged calendar words, so it seeds the
    /// per-solve cache without touching the calendar
    /// ([`SearchStats::run_cache_cross_solve_hits`]). Stale entries are
    /// simply skipped and overwritten by the fresh scan's result.
    ///
    /// [`SearchStats::run_cache_cross_solve_hits`]: crate::SearchStats::run_cache_cross_solve_hits
    cross_runs: HashMap<u32, (u64, SlotRange)>,
    /// The calendar shard versions the next solve runs under (person
    /// `g`'s shard is `g % len`), or `None` when no handshake happened —
    /// the cross-solve cache is then disabled entirely.
    world_versions: Option<Vec<u64>>,
    /// Peel scratch (degree array + cascade queue).
    deg_scratch: Vec<u32>,
    queue_scratch: Vec<u32>,
}

impl Default for PivotArena {
    /// Timing recording on (coarse mode).
    fn default() -> Self {
        PivotArena {
            timings: StageTimings::default(),
            record_timings: true,
            timing_detail: false,
            spare: None,
            memo: None,
            run_cache: Vec::new(),
            cross_runs: HashMap::new(),
            world_versions: None,
            deg_scratch: Vec::new(),
            queue_scratch: Vec::new(),
        }
    }
}

impl PivotArena {
    /// A fresh arena.
    pub fn new() -> Self {
        PivotArena::default()
    }

    /// Invalidate cross-query state (the reduction memo and the
    /// incremental-prep run cache); buffers stay. Called at the top of
    /// every solve — the planner's long-lived arenas serve many
    /// `(query, graph)` pairs.
    pub(crate) fn begin_solve(&mut self) {
        self.memo = None;
        self.run_cache.clear();
    }

    /// The **world-version handshake**: declare the calendar shard
    /// versions the next solves run under (person `g` lives on shard
    /// `g % versions.len()`), activating the cross-solve run cache.
    ///
    /// The caller vouches that a shard's version changes whenever *any*
    /// calendar on it changes in any way (the executor derives these
    /// from its snapshot's calendar shard stamps, which PR 8's
    /// delta-scoped invalidation already maintains with exactly that
    /// contract). Under that invariant a cached run whose stamp matches
    /// is byte-for-byte what a fresh calendar scan would return, so
    /// answers and pruning are unchanged — only
    /// [`SearchStats::run_cache_cross_solve_hits`] moves. Runs found
    /// under the installed versions are remembered **across**
    /// [`begin_solve`](Self::begin_solve) boundaries and served to later
    /// solves on this arena while their shard version holds.
    ///
    /// Without this call (or with an empty `versions`) the cross-solve
    /// cache is fully inert: plain solves behave exactly as before,
    /// bit-identical counters included.
    ///
    /// [`SearchStats::run_cache_cross_solve_hits`]: crate::SearchStats::run_cache_cross_solve_hits
    pub fn install_world_versions(&mut self, versions: &[u64]) {
        if versions.is_empty() {
            self.world_versions = None;
            self.cross_runs.clear();
            return;
        }
        match &mut self.world_versions {
            Some(v) => {
                // A shard-modulus change re-homes people (`g % len`
                // moves), so stamps taken under the old partition must
                // not validate against the new vector.
                if v.len() != versions.len() {
                    self.cross_runs.clear();
                }
                v.clear();
                v.extend_from_slice(versions);
            }
            None => self.world_versions = Some(versions.to_vec()),
        }
    }

    /// Hand back a spent job's buffers for the next preparation.
    pub(crate) fn recycle(&mut self, job: PivotJob) {
        self.spare = Some(job);
    }

    fn take(&mut self) -> PivotJob {
        self.spare.take().unwrap_or_else(PivotJob::empty)
    }

    /// The peel memo for `eligible` under `prep` with threshold
    /// `min_deg`: the shared full-candidate entry when the signature
    /// matches, else this arena's last entry, else computed fresh and
    /// cached here.
    fn reduction<'a, G: CandidateTopology>(
        &'a mut self,
        fg: &G,
        prep: &'a PivotPrep,
        min_deg: usize,
        eligible: &BitSet,
    ) -> &'a PrepMemo {
        let PivotArena {
            memo,
            deg_scratch,
            queue_scratch,
            ..
        } = self;
        if let Some(shared) = prep.shared_memo.as_ref() {
            if shared.eligible == *eligible {
                return shared;
            }
        }
        if memo.as_ref().is_some_and(|m| m.eligible == *eligible) {
            return memo.as_ref().expect("just matched");
        }
        let memo = memo.get_or_insert_with(PrepMemo::empty);
        memo.recompute(fg, eligible, prep.p, min_deg, deg_scratch, queue_scratch);
        memo
    }
}

/// The calendar-absolute maximal available run through `pivot`, or
/// `None` when the person is busy at the pivot — the unit the per-solve
/// run cache stores. Runs on the
/// calendar's backing words directly ([`Calendar::words`] keeps bits at
/// the horizon and beyond zero, so `run_through_bit`'s packed-form
/// contract holds with no re-basing), which makes a cache miss
/// O(run-length / 64) word scans rather than a per-slot probe walk.
#[inline]
fn unclipped_run(cal: &Calendar, horizon: usize, pivot: SlotId) -> Option<SlotRange> {
    run_through_bit(cal.words(), horizon, pivot).map(|(lo, hi)| SlotRange::new(lo, hi))
}

/// Consult the cross-solve run cache for global person `global`: the
/// stored run, provided the handshake is active, the entry's shard-version
/// stamp still holds, and the run covers `pivot` (a maximal run is maximal
/// through every slot it contains, so any covered pivot may reuse it).
#[inline]
fn cross_solve_run(
    cross: &HashMap<u32, (u64, SlotRange)>,
    versions: Option<&[u64]>,
    global: u32,
    pivot: SlotId,
) -> Option<SlotRange> {
    let versions = versions?;
    let &(stamp, run) = cross.get(&global)?;
    (stamp == versions[global as usize % versions.len()] && run.contains(pivot)).then_some(run)
}

/// Remember a freshly scanned unclipped run for later solves, stamped
/// with its owner's current shard version. No-op without the handshake.
#[inline]
fn store_cross_run(
    cross: &mut HashMap<u32, (u64, SlotRange)>,
    versions: Option<&[u64]>,
    global: u32,
    run: SlotRange,
) {
    if let Some(versions) = versions {
        cross.insert(global, (versions[global as usize % versions.len()], run));
    }
}

/// The maximal run of **set** bits containing bit `pos` within the first
/// `len` bits of `words`, as an inclusive offset pair — Definition 4's
/// "maximal available run through the pivot", computed with word scans
/// (leading/trailing-zero counts) instead of per-slot probes.
fn run_through_bit(words: &[u64], len: usize, pos: usize) -> Option<(usize, usize)> {
    debug_assert!(pos < len);
    let (wi, bi) = (pos / 64, pos % 64);
    if (words[wi] >> bi) & 1 == 0 {
        return None;
    }
    // Leftward: the last zero strictly below `pos`, if any.
    let lo = {
        let mut i = wi;
        let mut z = !words[wi] & ((1u64 << bi) - 1);
        loop {
            if z != 0 {
                break i * 64 + (63 - z.leading_zeros() as usize) + 1;
            }
            if i == 0 {
                break 0;
            }
            i -= 1;
            z = !words[i];
        }
    };
    // Rightward: the first zero strictly above `pos`, if any. Bits at
    // `len` and beyond are zero in the packed form, so the scan always
    // terminates at the range edge without an explicit bound check.
    let hi = {
        let mut i = wi;
        let mut z = !words[wi] & if bi == 63 { 0 } else { u64::MAX << (bi + 1) };
        loop {
            if z != 0 {
                break i * 64 + z.trailing_zeros() as usize - 1;
            }
            i += 1;
            if i >= words.len() {
                break len - 1;
            }
            z = !words[i];
        }
    };
    Some((lo, hi.min(len - 1)))
}

/// **Phase 1** of pivot preparation: Definition-4 eligibility, the
/// (tie-broken) access order, and the plain `p − 1`-smallest-distances
/// bound — everything the promise-order skip check needs, and nothing
/// more. Returns `None` when the pivot cannot host any feasible solution
/// (initiator ineligible or too few eligible candidates);
/// `stats.pivots_processed` counts the pivots that pass the initiator
/// check, as in the sequential engine.
///
/// Definition-4 runs come from the arena's per-solve run cache: the
/// maximal run *within* the pivot interval is the calendar-maximal run
/// through the pivot clipped to it (both contain the pivot), so one
/// cached unclipped run serves every later pivot it covers by interval
/// arithmetic alone. A cache miss scans the calendar's packed words.
/// The flattened availability buffer is not touched here at all.
///
/// The expensive remainder — the fixpoint core peel and the sharp floor
/// ([`finalize_pivot`]), then the availability rows and the `VA` state
/// with its Lemma-5 counters ([`materialize_pivot`]) — runs only for
/// pivots the incumbent bound did **not** retire. On hot dense
/// workloads most pivots are skipped, and skipped pivots pay only this
/// phase.
pub(crate) fn prepare_pivot<G: CandidateTopology>(
    fg: &G,
    calendars: Cals<'_>,
    prep: &PivotPrep,
    pivot: SlotId,
    stats: &mut SearchStats,
    arena: &mut PivotArena,
) -> Option<PivotJob> {
    let f = fg.len();
    let PivotPrep { p, m, horizon, .. } = *prep;
    let tie_blocks = prep.tie_blocks.as_deref();
    let interval = pivot_interval(pivot, m, horizon);
    if arena.run_cache.len() != f {
        arena.run_cache.clear();
        arena.run_cache.resize(f, None);
    }
    // Definition 4 for the initiator: she must support an m-run too.
    let q_run = {
        let full = match arena.run_cache[0] {
            Some(r) if r.contains(pivot) => Some(r),
            _ => {
                let g = fg.origin(0).index() as u32;
                let versions = arena.world_versions.as_deref();
                match cross_solve_run(&arena.cross_runs, versions, g, pivot) {
                    Some(r) => {
                        stats.run_cache_cross_solve_hits += 1;
                        arena.run_cache[0] = Some(r);
                        Some(r)
                    }
                    None => {
                        let r = unclipped_run(calendars.get(g as usize), horizon, pivot);
                        if let Some(r) = r {
                            arena.run_cache[0] = Some(r);
                            store_cross_run(&mut arena.cross_runs, versions, g, r);
                        }
                        r
                    }
                }
            }
        };
        full.map(|r| SlotRange::new(r.lo.max(interval.lo), r.hi.min(interval.hi)))
            .filter(|r| r.len() >= m)?
    };
    stats.pivots_processed += 1;

    // Per-pivot eligibility (Definition 4): a covered pivot costs
    // interval arithmetic only, no calendar pointer chase and no word
    // traffic; with a warm arena no allocation at all.
    let stride = interval.len().div_ceil(64);
    let mut job = arena.take();
    job.pivot = pivot;
    job.interval = interval;
    job.q_run = q_run;
    job.avail_stride = stride;
    job.runs.clear();
    job.runs.resize(f, None);
    job.runs[0] = Some(q_run);
    if job.eligible.capacity() == f {
        job.eligible.clear();
    } else {
        job.eligible = BitSet::new(f);
    }
    {
        let PivotArena {
            run_cache: cache,
            cross_runs,
            world_versions,
            ..
        } = &mut *arena;
        let versions = world_versions.as_deref();
        for &c in fg.candidate_order() {
            let ci = c as usize;
            let full = match cache[ci] {
                Some(r) if r.contains(pivot) => {
                    stats.prep_words_delta += stride as u64;
                    Some(r)
                }
                _ => {
                    let g = fg.origin(c).index() as u32;
                    match cross_solve_run(cross_runs, versions, g, pivot) {
                        Some(r) => {
                            stats.run_cache_cross_solve_hits += 1;
                            cache[ci] = Some(r);
                            Some(r)
                        }
                        None => {
                            let r = unclipped_run(calendars.get(g as usize), horizon, pivot);
                            if let Some(r) = r {
                                cache[ci] = Some(r);
                                store_cross_run(cross_runs, versions, g, r);
                            }
                            r
                        }
                    }
                }
            };
            let Some(full) = full else {
                continue;
            };
            // Maximal run within the interval = the unclipped run ∩ the
            // interval (both contain the pivot).
            let run = SlotRange::new(full.lo.max(interval.lo), full.hi.min(interval.hi));
            if run.len() < m {
                continue;
            }
            // Every group contains the initiator, so its common run is a
            // subset of hers — a candidate whose overlap with `q_run` is
            // under `m` slots can never join any group at this pivot.
            // Clipping here (instead of letting depth-1 temporal checks
            // discover it) keeps such candidates out of `VA` entirely:
            // fewer examinations, smaller Lemma-5 counters, and a tighter
            // pivot distance bound. Both runs contain the pivot, so the
            // intersection is never empty.
            let clipped = SlotRange::new(run.lo.max(q_run.lo), run.hi.min(q_run.hi));
            if clipped.len() >= m {
                job.runs[ci] = Some(clipped);
                job.eligible.insert(ci);
            }
        }
    }
    if job.eligible.len() + 1 < p {
        arena.recycle(job);
        return None;
    }

    // Access order: the graph's total-distance order, optionally with
    // ties re-ranked by availability overlap with the initiator's run
    // (descending). Distances stay non-decreasing — only the relative
    // order *within* an equal-distance block changes — so every
    // correctness-sensitive use (minimum-distance member, cheapest
    // completion break, forced-prefix partitioning) is untouched, while
    // temporally weak candidates are examined last and die to Lemma-5
    // counters before spawning subtrees. The equal-distance blocks are
    // time-independent, so callers compute them once per solve
    // ([`dist_tie_blocks`]) instead of rescanning distances per pivot.
    job.order.clear();
    job.order.extend_from_slice(fg.candidate_order());
    if let Some(blocks) = tie_blocks {
        let runs = &job.runs;
        let order = &mut job.order;
        // Runs are already clipped to the initiator's, so a run's length
        // *is* its usable overlap with her availability.
        let overlap = |c: u32| -> usize { runs[c as usize].map_or(0, |r| r.len()) };
        for &(s, e) in blocks {
            // Stable: equal-overlap candidates keep their original-id
            // tie order.
            order[s as usize..e as usize].sort_by_key(|&c| std::cmp::Reverse(overlap(c)));
        }
    }

    // The optimistic distance bound: the order is distance-ascending, so
    // the p − 1 smallest eligible distances are the first p − 1 eligible
    // entries (eligibility was checked above, so they exist).
    let mut dist_bound: Dist = 0;
    let mut taken = 0usize;
    for &c in &job.order {
        if taken + 1 >= p {
            break;
        }
        if job.eligible.contains(c as usize) {
            dist_bound += fg.dist(c);
            taken += 1;
        }
    }
    job.dist_bound = dist_bound;
    Some(job)
}

/// **Phase 2** of pivot preparation, for pivots that survived the
/// incumbent bound: the fixpoint (p, k)-core peel and the sharp floor.
/// Returns `false` when the pivot is refused outright — its peeled core
/// cannot seat `p` people ([`SearchStats::pivots_refused_by_core`]), or
/// no `m`-slot window is covered by `p − 1` candidate runs — in which
/// case the caller recycles the job. A pivot that passes still needs
/// [`materialize_pivot`] before its first frame.
///
/// `prep.peel_min_deg` is the peel threshold `p − 1 − k`; the peel
/// removes candidates with fewer acquaintances among the eligible set
/// and the initiator from `VA` outright. The floor then becomes the
/// compatibility-restricted distance bound ([`compat_dist_floor`]) —
/// never looser than the plain `p − 1`-smallest-distances floor from
/// phase 1.
///
/// [`SearchStats::pivots_refused_by_core`]: crate::SearchStats::pivots_refused_by_core
pub(crate) fn finalize_pivot<G: CandidateTopology>(
    fg: &G,
    prep: &PivotPrep,
    job: &mut PivotJob,
    stats: &mut SearchStats,
    arena: &mut PivotArena,
) -> bool {
    let PivotPrep { p, m, .. } = *prep;

    // Candidate-space reduction (memoized per eligible-set signature —
    // on dense instances most pivots share the full-candidate signature
    // and hit the shared prep entry): the fixpoint (p, k)-core peel
    // shrinks `eligible` itself (peeled candidates can belong to no
    // feasible group at this pivot, so they never enter `VA` or any
    // floor).
    if let Some(min_deg) = prep.peel_min_deg {
        let memo = arena.reduction(fg, prep, min_deg, &job.eligible);
        stats.peeled_candidates += memo.peeled;
        if memo.refused {
            stats.pivots_refused_by_core += 1;
            return false;
        }
        if memo.peeled > 0 {
            // Peeled vertices lose their runs too, so every consumer
            // keyed on `runs[c].is_some()` (the sharp floor, root
            // vetting) sees the core only.
            for c in job.eligible.iter() {
                if !memo.core.contains(c) {
                    job.runs[c] = None;
                }
            }
            // core ⊆ eligible, so intersecting is assignment without
            // reallocating the pooled bitmap.
            job.eligible.intersect_with(&memo.core);
        }
    }

    match compat_dist_floor(fg, job, p, m) {
        // Never below the unrestricted floor (every window's candidate
        // set is a subset of the eligible set), so taking it wholesale
        // only tightens the bound.
        Some(bound) => {
            job.dist_bound = bound;
            true
        }
        // No m-slot window of the initiator's run is covered by p − 1
        // candidate runs ⇒ no feasible group exists at this pivot at all
        // (not an incumbent-relative prune — absolute infeasibility), so
        // refuse it like the candidate-count check.
        None => false,
    }
}

/// **Phase 3** of pivot preparation — the *first frame touch*: the
/// flattened availability rows (post-peel eligible members only) and
/// the `VA` state with its Lemma-5 per-slot unavailability counters.
/// This is the word-traffic-heavy part of preparation — one calendar row
/// per eligible candidate — and nothing before exact descent reads any
/// of it, so callers run it only once a pivot has survived **every**
/// pre-descent bound (the finalized sharp floor and the seeded
/// incumbent). A pivot retired before that pays zero availability words.
///
/// Must be called exactly once per searched pivot, before
/// [`search_pivot_controlled`] / [`vet_pivot_roots`] /
/// [`search_pivot_subtree`] read `job.va` or the availability rows.
pub(crate) fn materialize_pivot<G: CandidateTopology>(
    fg: &G,
    calendars: Cals<'_>,
    job: &mut PivotJob,
    stats: &mut SearchStats,
) {
    let stride = job.avail_stride;
    let ilen = job.interval.len();

    // Only the post-peel eligible members get a row. Everyone else's
    // row stays zero and is never read: the search, root vetting and
    // subtree splitting all restrict themselves to `VA` members, which
    // are exactly this set.
    job.avail_words.clear();
    job.avail_words.resize(fg.len() * stride, 0);
    let PivotJob {
        interval,
        ref eligible,
        ref mut avail_words,
        ..
    } = *job;
    for v in eligible.iter() {
        let cal = calendars.get(fg.origin(v as u32).index());
        let row = &mut avail_words[v * stride..(v + 1) * stride];
        for (i, w) in cal.range_words(interval).enumerate() {
            row[i] = w;
        }
        stats.prep_words_rebuilt += stride as u64;
    }

    // Lemma-5 counters: members are mostly available inside the interval
    // (they all carry an m-run through the pivot), so iterate only the
    // *zero* offsets of each bitmap — O(words + zeros), not O(ilen).
    job.va.base.fill(fg, Some(&job.eligible), &job.order);
    job.va.unavail.clear();
    job.va.unavail.resize(ilen, 0);
    let unavail = &mut job.va.unavail;
    for v in job.eligible.iter() {
        for_each_zero_bit(
            &job.avail_words[v * stride..(v + 1) * stride],
            ilen,
            |off| {
                unavail[off] += 1;
            },
        );
    }
    job.va.max_unavail_ub = unavail.iter().copied().max().unwrap_or(0);
}

/// The compatibility-restricted per-pivot distance floor.
///
/// Per-pivot runs are intervals that all contain the pivot slot, so by
/// the Helly property of intervals a candidate set shares an `m`-slot
/// common run **iff** some single `m`-window is contained in every
/// member's run. Any feasible group's window also lies inside the
/// initiator's run (candidates are pre-clipped to it), so scanning the
/// ≤ `m` window positions of `q_run` and summing, per window, the `p − 1`
/// cheapest candidates whose run covers it yields a valid lower bound on
/// any group's total distance at this pivot:
/// `min_W Σ(p−1 cheapest run ⊇ W)`. The plain floor relaxes the coverage
/// requirement, so this is never looser. Returns `None` when no window
/// has `p − 1` covering candidates — the pivot is infeasible outright.
///
/// Cost: `O(|q_run| · scan)` where each scan walks the distance-ascending
/// order until `p − 1` covering candidates are found — on dense
/// availabilities that is the first `p − 1` entries, and the whole
/// computation is a vanishing fraction of one search frame.
fn compat_dist_floor<G: CandidateTopology>(
    fg: &G,
    job: &PivotJob,
    p: usize,
    m: usize,
) -> Option<Dist> {
    debug_assert!(p >= 2, "p = 1 never reaches pivot preparation");
    debug_assert!(job.q_run.len() >= m);
    let mut best: Option<Dist> = None;
    for start in job.q_run.lo..=(job.q_run.hi + 1 - m) {
        let end = start + m - 1;
        let mut sum: Dist = 0;
        let mut taken = 0usize;
        for &c in &job.order {
            if taken + 1 >= p {
                break;
            }
            // `runs` is `Some` exactly for pivot-eligible candidates, and
            // already clipped to the initiator's run.
            if let Some(run) = job.runs[c as usize] {
                if run.lo <= start && run.hi >= end {
                    sum += fg.dist(c);
                    taken += 1;
                }
            }
        }
        if taken + 1 >= p {
            best = Some(best.map_or(sum, |b| b.min(sum)));
        }
    }
    best
}

/// Run the STGSelect branch-and-bound for one prepared pivot, recording
/// improvements into the (possibly shared) incumbent, polling `control`
/// (if any) at every frame entry. The job's `VA` state is consumed in
/// place (the caller recycles the buffers through the arena afterwards).
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_pivot_controlled<G: CandidateTopology>(
    fg: &G,
    query: &StgqQuery,
    cfg: &SelectConfig,
    job: &mut PivotJob,
    incumbent: &Incumbent<StBest>,
    stats: &mut SearchStats,
    control: Option<&SolveControl>,
) {
    let PivotJob {
        pivot,
        interval,
        q_run,
        ref runs,
        ref avail_words,
        avail_stride,
        ref order,
        ref mut va,
        ..
    } = *job;
    let mut searcher = StSearcher::new(
        fg,
        query,
        cfg,
        pivot,
        interval,
        runs,
        avail_words,
        avail_stride,
        order,
        incumbent,
        stats,
    );
    searcher.control = control;
    searcher.push(0, q_run);
    searcher.expand(va, 0);
}

/// Vet each access-order position as a depth-1 forced root for `job`'s
/// pivot: `root_ok[pos]` ⇔ pushing `order[pos]` onto `VS = {q}` survives
/// the hard acquaintance check, Lemma 1 against the position's suffix
/// `VA`, and the hard temporal requirement (`|q_run ∩ run_u| ≥ m`).
///
/// Mirrors the SGQ parallel solver's root vetting: sound to skip on,
/// because a deeper forced prefix only shrinks the effective `VA`.
pub(crate) fn vet_pivot_roots<G: CandidateTopology>(
    fg: &G,
    query: &StgqQuery,
    cfg: &SelectConfig,
    job: &PivotJob,
    incumbent: &Incumbent<StBest>,
) -> Vec<bool> {
    let order = &job.order;
    let mut ok = vec![false; order.len()];
    let mut scratch = SearchStats::default();
    let mut probe = StSearcher::new(
        fg,
        query,
        cfg,
        job.pivot,
        job.interval,
        &job.runs,
        &job.avail_words,
        job.avail_stride,
        &job.order,
        incumbent,
        &mut scratch,
    );
    probe.push(0, job.q_run);
    let mut va = job.va.clone();
    for (pos, &u) in order.iter().enumerate() {
        if !va.base.set.contains(u as usize) {
            continue;
        }
        let (u_val, a_val) = probe.u_and_a(u, &va);
        let run_u = job.runs[u as usize].expect("VA members are eligible");
        let ts = job.q_run.intersect(&run_u);
        ok[pos] = probe.hard_feasible(u_val, a_val) && ts.is_some_and(|ts| ts.len() >= query.m());
        va.remove(u, fg, job.avail(u));
    }
    ok
}

/// Search one forced-prefix subtree of `job`'s pivot: force `order[i]`
/// (and `order[j]` for a depth-2 task), exclude everything ordered before
/// the last forced vertex, and expand the rest. The union of the subtrees
/// over all `i` (with the depth-1/depth-2 composition the caller builds)
/// partitions the pivot's search space, so running them concurrently
/// against a shared incumbent preserves the sequential optimum.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_pivot_subtree<G: CandidateTopology>(
    fg: &G,
    query: &StgqQuery,
    cfg: &SelectConfig,
    job: &PivotJob,
    i: usize,
    forced_j: Option<usize>,
    incumbent: &Incumbent<StBest>,
    stats: &mut SearchStats,
    control: Option<&SolveControl>,
) {
    let p = query.p();
    let m = query.m();
    let order = &job.order;
    let last_forced = forced_j.unwrap_or(i);
    if !job.va.base.set.contains(order[last_forced] as usize) {
        return;
    }

    // VA: everything ordered after the last forced vertex (its own
    // feasibility check below extracts it).
    let mut va = job.va.clone();
    for (pos, &w) in order[..=last_forced].iter().enumerate() {
        if pos != last_forced && va.base.set.contains(w as usize) {
            va.remove(w, fg, job.avail(w));
        }
    }
    let forced_members = if forced_j.is_some() { 2 } else { 1 };
    if va.len() + forced_members < p {
        return;
    }

    let mut searcher = StSearcher::new(
        fg,
        query,
        cfg,
        job.pivot,
        job.interval,
        &job.runs,
        &job.avail_words,
        job.avail_stride,
        &job.order,
        incumbent,
        stats,
    );
    searcher.control = control;
    searcher.push(0, job.q_run);
    let u_i = order[i];
    let mut td = fg.dist(u_i);
    let mut ts = job.q_run;
    if forced_j.is_some() {
        // The caller vetted u_i against VS = {q} (root_ok), including the
        // temporal intersection — recompute the narrowed run for the stack.
        let run_i = job.runs[u_i as usize].expect("vetted roots are eligible");
        ts = ts.intersect(&run_i).expect("vetted roots share the pivot");
        searcher.push(u_i, ts);
    }
    let u_last = order[last_forced];
    searcher.stats.candidates_examined += 1;
    let (u_val, a_val) = searcher.u_and_a(u_last, &va);
    let run_last = job.runs[u_last as usize].expect("VA members are eligible");
    let new_ts = ts.intersect(&run_last).filter(|t| t.len() >= m);
    if let Some(new_ts) = new_ts {
        if searcher.hard_feasible(u_val, a_val) {
            if forced_j.is_some() {
                td += fg.dist(u_last);
            }
            searcher.push(u_last, new_ts);
            va.remove(u_last, fg, job.avail(u_last));
            searcher.stats.vertices_expanded += 1;
            if searcher.vs.len() >= p {
                searcher.record(td, new_ts);
            } else {
                searcher.expand(&mut va, td);
            }
        }
    }
}

/// `VA` plus the per-slot unavailability counters for Lemma 5.
///
/// Counter maintenance is **word-parallel**: a member's removal touches
/// only the *zero words* of its availability bitmap (skipped wholesale
/// when all-available), instead of branching on all `2m−1` interval
/// offsets. Removals share the base [`VaState`] undo log, so one state
/// serves the whole pivot search allocation-free.
#[derive(Clone)]
pub(crate) struct StVaState {
    base: VaState,
    /// For each interval offset: how many `VA` members are unavailable there.
    unavail: Vec<u32>,
    /// Upper bound on `max(unavail)`: never undershoots the true maximum
    /// (removals lower counters without shrinking it; undos raise it as
    /// needed). Lemma 5 needs a counter `≥ n` to fire at all, so
    /// `max_unavail_ub < n` skips the blocked-slot scan entirely — the
    /// common case, since pivot-eligible members are mostly available.
    max_unavail_ub: u32,
}

impl StVaState {
    fn len(&self) -> usize {
        self.base.len()
    }

    /// Forwarded mutation version (see [`VaState::version`]).
    #[inline]
    fn version(&self) -> u64 {
        self.base.version
    }

    fn remove<G: CandidateTopology>(&mut self, u: u32, fg: &G, avail_u: &[u64]) {
        self.base.remove(u, fg);
        let len = self.unavail.len();
        for_each_zero_bit(avail_u, len, |off| self.unavail[off] -= 1);
        // max_unavail_ub stays: counters only dropped.
    }

    /// Checkpoint for [`undo_to`](Self::undo_to).
    #[inline]
    fn mark(&self) -> usize {
        self.base.mark()
    }

    /// Rewind every removal after `mark`, restoring the Lemma-5 counters
    /// from each re-inserted member's availability words.
    fn undo_to<G: CandidateTopology>(
        &mut self,
        mark: usize,
        fg: &G,
        avail_words: &[u64],
        stride: usize,
    ) {
        let mut max_ub = self.max_unavail_ub;
        while self.base.log.len() > mark {
            let u = self.base.undo_last(fg) as usize;
            let len = self.unavail.len();
            let unavail = &mut self.unavail;
            for_each_zero_bit(&avail_words[u * stride..(u + 1) * stride], len, |off| {
                unavail[off] += 1;
                max_ub = max_ub.max(unavail[off]);
            });
        }
        self.max_unavail_ub = max_ub;
    }
}

/// One pivot's search state (shares the incumbent across pivots — and, in
/// the parallel solver, across worker threads).
struct StSearcher<'a, G> {
    fg: &'a G,
    p: usize,
    k: i64,
    m: usize,
    cfg: SelectConfig,
    pivot: SlotId,
    interval: SlotRange,
    /// Maximal available run through the pivot, per eligible compact vertex.
    runs: &'a [Option<SlotRange>],
    /// Flattened availability words (`avail_stride` per vertex).
    avail_words: &'a [u64],
    avail_stride: usize,
    /// The pivot's access order (availability-tie-broken; see
    /// [`PivotJob::order`]).
    order: &'a [u32],
    vs: Vec<u32>,
    cnt_in_s: Vec<u32>,
    /// The shared `U`/`A` aggregate caches (see [`VsAggregates`]).
    agg: VsAggregates,
    /// `TS` after each push; `last()` is the current common run.
    ts_stack: Vec<SlotRange>,
    incumbent: &'a Incumbent<StBest>,
    stats: &'a mut SearchStats,
    /// Early-stop policy, polled at frame entry (see [`SolveControl`]).
    control: Option<&'a SolveControl>,
    /// Scratch for the k-plex matching bound (see [`MatchScratch`]).
    match_scratch: MatchScratch,
    /// Per-depth parent-bound admissibility state (see [`ParentFloor`]):
    /// `floors[|VS|]` serves the frame whose member count is `|VS|`,
    /// rebuilt at that frame's entry and maintained across its siblings.
    floors: Vec<ParentFloor>,
}

impl<'a, G: CandidateTopology> StSearcher<'a, G> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        fg: &'a G,
        query: &StgqQuery,
        cfg: &SelectConfig,
        pivot: SlotId,
        interval: SlotRange,
        runs: &'a [Option<SlotRange>],
        avail_words: &'a [u64],
        avail_stride: usize,
        order: &'a [u32],
        incumbent: &'a Incumbent<StBest>,
        stats: &'a mut SearchStats,
    ) -> Self {
        let p = query.p();
        StSearcher {
            fg,
            p,
            // Clamped as in SGSelect: beyond p−1 the constraint is vacuous.
            k: query.k().min(p - 1) as i64,
            m: query.m(),
            cfg: *cfg,
            pivot,
            interval,
            runs,
            avail_words,
            avail_stride,
            order,
            vs: Vec::with_capacity(p),
            cnt_in_s: vec![0; fg.len()],
            agg: VsAggregates::new(fg.len()),
            ts_stack: Vec::with_capacity(p),
            incumbent,
            stats,
            control: None,
            match_scratch: MatchScratch::default(),
            floors: Vec::new(),
        }
    }

    /// Whether the frame with member count `depth` maintains a
    /// [`ParentFloor`] (children are opened only while `|VS| + 1 < p`,
    /// so deeper frames never consult the bound).
    #[inline]
    fn floor_active(&self, depth: usize) -> bool {
        depth + 1 < self.p
    }

    /// Mirror a permanent frame-level `VA` removal into the frame's
    /// floor (position of `u` in the frame's access order).
    #[inline]
    fn floor_remove(&mut self, depth: usize, va: &StVaState, u: u32) {
        if self.floor_active(depth) {
            self.floors[depth].remove(va.base.order_pos[u as usize] as usize);
        }
    }

    /// Hard feasibility of pushing `u` onto the current `VS` (acquaintance
    /// at θ = 0 plus Lemma 1), as in SGSelect's forced-root vetting. The
    /// temporal requirement is checked separately by the callers.
    fn hard_feasible(&self, u_val: i64, a_val: i64) -> bool {
        u_val <= self.k && a_val >= (self.p - self.vs.len() - 1) as i64
    }

    /// The packed availability words of compact vertex `u`.
    #[inline]
    fn avail_of(&self, u: u32) -> &'a [u64] {
        let start = u as usize * self.avail_stride;
        &self.avail_words[start..start + self.avail_stride]
    }

    fn push(&mut self, u: u32, ts: SlotRange) {
        let cnt_in_s = &mut self.cnt_in_s;
        self.fg.for_each_neighbor(u, |nb| {
            cnt_in_s[nb as usize] += 1;
        });
        self.vs.push(u);
        self.ts_stack.push(ts);
        self.agg.on_push(u, &self.vs, &self.cnt_in_s);
    }

    fn pop(&mut self, u: u32) {
        let popped = self.vs.pop();
        debug_assert_eq!(popped, Some(u));
        self.ts_stack.pop();
        let cnt_in_s = &mut self.cnt_in_s;
        self.fg.for_each_neighbor(u, |nb| {
            cnt_in_s[nb as usize] -= 1;
        });
        self.agg.on_pop(u, &self.vs, &self.cnt_in_s);
    }

    /// Remove `u` from `VA`, keeping the slack aggregate incrementally
    /// valid (see [`VsAggregates::note_va_removal`]).
    fn remove_from_va(&mut self, va: &mut StVaState, u: u32) {
        let pre_key = self.agg.key(&va.base);
        va.remove(u, self.fg, self.avail_of(u));
        self.agg
            .note_va_removal(self.fg, u, &self.cnt_in_s, &va.base, pre_key);
    }

    fn current_ts(&self) -> SlotRange {
        *self.ts_stack.last().expect("VS always holds the initiator")
    }

    /// `U(VS ∪ {u})` and `A(VS ∪ {u})` — see [`VsAggregates`] for the
    /// derivation (the temporal engine shares SGSelect's aggregates via
    /// the base [`VaState`]).
    fn u_and_a(&mut self, u: u32, va: &StVaState) -> (i64, i64) {
        self.agg
            .u_and_a(self.fg, u, self.k, &self.vs, &self.cnt_in_s, &va.base)
    }

    fn interior_ok(&self, u_val: i64, theta: u32) -> bool {
        if theta == 0 {
            return u_val <= self.k;
        }
        let ratio = (self.vs.len() + 1) as f64 / self.p as f64;
        (u_val as f64) <= self.k as f64 * ratio.powi(theta as i32) + 1e-9
    }

    /// Temporal extensibility condition:
    /// `X(VS ∪ {u}) ≥ (m−1) · ((p − |VS ∪ {u}|)/p)^φ`, RHS 0 once φ caps.
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

    fn acquaintance_prune(&mut self, va: &StVaState) -> bool {
        if !self.cfg.acquaintance_pruning {
            return false;
        }
        let need = (self.p - self.vs.len()) as i64;
        let rhs = need * (need - 1 - self.k);
        if rhs <= 0 {
            return false;
        }
        let na = va.len() as i64;
        let not_extracted = na - need;
        debug_assert!(not_extracted >= 0);
        // Average-degree quick no-fire test — see SGSelect's derivation.
        if va.base.total_inner as i64 * need >= rhs * na {
            return false;
        }
        let lhs = va.base.total_inner as i64 - not_extracted * va.base.min_inner_degree() as i64;
        let fires = lhs < rhs;
        if fires {
            self.stats.acquaintance_prunes += 1;
        }
        fires
    }

    /// The frame-level k-plex bound, exactly as in SGSelect: the
    /// admissible-completion floor on every re-check, the missing-pair
    /// matching bound at frame entry — see
    /// [`crate::reduce::kplex_frame_prune`] for the shared machinery
    /// (this searcher passes its per-pivot order and the temporal `VA`'s
    /// base bitsets).
    fn kplex_prune(&mut self, va: &StVaState, td: Dist, with_matching: bool) -> bool {
        let fires = kplex_frame_prune(
            self.fg,
            &self.vs,
            &self.cnt_in_s,
            &va.base.pos_set,
            self.order,
            &va.base.set,
            va.len(),
            self.p,
            self.k,
            td,
            self.incumbent.dist(),
            self.cfg.distance_pruning,
            with_matching,
            &mut self.match_scratch,
        );
        if fires {
            self.stats.frames_pruned_by_match += 1;
        }
        fires
    }

    /// Lemma 5. With `n = |VA| − (p − |VS|) + 1`, a slot where ≥ n members
    /// of `VA` are unavailable leaves at most `p − |VS| − 1` usable vertices
    /// — too few — so no feasible period may cross it. If the nearest such
    /// blocked slots around the pivot (interval edges act blocked) leave a
    /// gap of ≤ m slots, the frame is dead.
    fn availability_prune(&mut self, va: &StVaState) -> bool {
        if !self.cfg.availability_pruning {
            return false;
        }
        let need = self.p - self.vs.len();
        debug_assert!(va.len() >= need);
        let n = (va.len() - need + 1) as u32;
        // No counter can reach n ⇒ no blocked slot ⇒ the gap spans the
        // whole interval (`2m−1 ≥ m` slots plus two virtual edges) and the
        // prune cannot fire. This upper bound skips the offset scan on the
        // overwhelming majority of frames.
        if va.max_unavail_ub < n {
            return false;
        }
        let pivot_off = self.pivot - self.interval.lo;
        let len = va.unavail.len();

        let mut t_minus = -1i64; // virtual blocked slot just before the interval
        for off in (0..pivot_off).rev() {
            if va.unavail[off] >= n {
                t_minus = off as i64;
                break;
            }
        }
        let mut t_plus = len as i64; // virtual blocked slot just after
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
        self.incumbent.offer(td, || StBest {
            group: vs.clone(),
            period,
            pivot,
        });
    }

    /// One `ExpandSTG` frame (Algorithm 4). As in SGSelect, `va` is the
    /// pivot search's shared state: removals happen in place and the
    /// caller rewinds to its mark, so descent never allocates.
    fn expand(&mut self, va: &mut StVaState, td: Dist) {
        // Cooperative stop on the frame-counter path (see SGSelect):
        // `cancelled` and `truncated` stay distinct provenance.
        if self.stats.cancelled {
            return;
        }
        if let Some(control) = self.control {
            if control.should_stop(self.stats.frames) {
                self.stats.cancelled = true;
                return;
            }
        }
        if let Some(budget) = self.cfg.frame_budget {
            if self.stats.frames >= budget {
                self.stats.truncated = true;
                return;
            }
        }
        self.stats.frames += 1;
        let order = self.order;
        // Invalidate this frame's admissibility classes for the
        // parent-side completion bound; the first consultations rescan,
        // repeat consultations classify lazily, and the sibling loop
        // below keeps the classes current by mirroring its permanent
        // removals (see [`ParentFloor`]).
        let depth = self.vs.len();
        if self.floor_active(depth) {
            if self.floors.len() <= depth {
                self.floors.resize_with(depth + 1, ParentFloor::default);
            }
            self.floors[depth].invalidate();
        }
        let mut theta = self.cfg.theta0;
        let mut phi = self.cfg.phi0;
        // Access-order scans run on `pos_set` — word-parallel successor
        // queries instead of per-position membership probes (see SGSelect).
        let mut cursor = 0usize;
        // Frame-level checks re-run only when VA mutated — sequentially
        // they are provably no-ops in between; under the parallel solvers
        // a cross-thread incumbent improvement is picked up one mutation
        // later, which weakens pruning momentarily but is always sound
        // (see SGSelect).
        let mut checked_version = u64::MAX;

        loop {
            if va.version() != checked_version {
                let entry_check = checked_version == u64::MAX;
                checked_version = va.version();
                if self.vs.len() + va.len() < self.p {
                    return;
                }
                let min_pos = va.base.pos_set.first().expect("VA non-empty here");
                let min_dist = self.fg.dist(order[min_pos]);
                if self.distance_prune(td, min_dist) {
                    return;
                }
                if self.acquaintance_prune(va) {
                    return;
                }
                if self.kplex_prune(va, td, entry_check) {
                    return;
                }
                if self.availability_prune(va) {
                    return;
                }
            }

            let u = if let Some(pos) = va.base.pos_set.next_set_at_or_after(cursor) {
                cursor = pos + 1;
                order[pos]
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

            let (u_val, a_val) = self.u_and_a(u, va);
            if a_val < (self.p - self.vs.len() - 1) as i64 {
                self.stats.exterior_rejections += 1;
                self.remove_from_va(va, u);
                self.floor_remove(depth, va, u);
                continue;
            }
            if !self.interior_ok(u_val, theta) {
                self.stats.interior_rejections += 1;
                if theta == 0 {
                    self.remove_from_va(va, u);
                    self.floor_remove(depth, va, u);
                }
                continue;
            }
            // Temporal extensibility. Runs both contain the pivot, so the
            // intersection is non-empty and contains it too.
            let run_u = self.runs[u as usize].expect("VA members are eligible");
            let ts = self.current_ts();
            let new_ts = SlotRange::new(ts.lo.max(run_u.lo), ts.hi.min(run_u.hi));
            let x = new_ts.len() as i64 - self.m as i64;
            if !self.temporal_ok(x, phi) {
                self.stats.temporal_rejections += 1;
                if x < 0 {
                    // Adding u can never leave an m-slot common period.
                    self.remove_from_va(va, u);
                    self.floor_remove(depth, va, u);
                }
                continue;
            }

            let new_td = td + self.fg.dist(u);
            // Parent-side completion bound: price the child frame before
            // opening it, from the frame's (lazily-built) admissibility
            // classes. When it fires, the push / undo-mark / frame entry
            // are all skipped, and u is disposed of exactly as if its
            // branch had been descended and exhausted.
            if self.floor_active(depth)
                && self.floors[depth].consult(
                    self.fg,
                    u,
                    depth + 1,
                    &self.cnt_in_s,
                    &va.base.pos_set,
                    order,
                    self.p,
                    self.k,
                    new_td,
                    self.incumbent.dist(),
                    self.cfg.distance_pruning,
                )
            {
                self.stats.children_pruned_by_parent_bound += 1;
                self.remove_from_va(va, u);
                self.floor_remove(depth, va, u);
                continue;
            }
            self.push(u, new_ts);
            if self.vs.len() == self.p {
                self.record(new_td, new_ts);
                self.pop(u);
                self.remove_from_va(va, u);
                return;
            }
            // Descend with u extracted; rewind the child subtree's
            // removals on return (what used to be a full clone).
            let frame_mark = va.mark();
            self.remove_from_va(va, u);
            self.stats.vertices_expanded += 1;
            self.expand(va, new_td);
            va.undo_to(frame_mark, self.fg, self.avail_words, self.avail_stride);
            self.pop(u);
            // The branch containing u is fully explored. (The pre-descend
            // removal above was rewound by the undo, so only this one is
            // mirrored into the floor.)
            self.remove_from_va(va, u);
            self.floor_remove(depth, va, u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgq_graph::GraphBuilder;

    /// Every preparation phase back to back — what the solve loop does
    /// for a pivot the incumbent bound does not retire.
    fn prepare_full(
        fg: &FeasibleGraph,
        calendars: &[Calendar],
        prep: &PivotPrep,
        pivot: SlotId,
        stats: &mut SearchStats,
        arena: &mut PivotArena,
    ) -> Option<PivotJob> {
        let mut job = prepare_pivot(fg, calendars.into(), prep, pivot, stats, arena)?;
        if finalize_pivot(fg, prep, &mut job, stats, arena) {
            materialize_pivot(fg, calendars.into(), &mut job, stats);
            Some(job)
        } else {
            arena.recycle(job);
            None
        }
    }

    /// The paper's Example 3 inputs: the Figure-3 graph plus the Figure-3(c)
    /// schedules (1-based ts1..ts7 → 0-based 0..6).
    pub(crate) fn example3_inputs() -> (SocialGraph, NodeId, Vec<Calendar>) {
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
        let g = b.build();

        let horizon = 7;
        let mut cals = vec![Calendar::new(horizon); 9];
        cals[2] = Calendar::from_slots(horizon, 0..7); // v2: all
        cals[3] = Calendar::from_slots(horizon, [1, 2, 4, 5]);
        cals[4] = Calendar::from_slots(horizon, [0, 1, 2, 3, 4, 6]);
        cals[6] = Calendar::from_slots(horizon, [1, 2, 3, 4, 5, 6]);
        cals[7] = Calendar::from_slots(horizon, [0, 1, 2, 3, 4, 5]);
        cals[8] = Calendar::from_slots(horizon, [0, 2, 4, 5]);
        (g, NodeId(7), cals)
    }

    #[test]
    fn example3_matches_paper() {
        let (g, q, cals) = example3_inputs();
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let out = solve_stgq(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        let sol = out.solution.expect("example 3 is feasible");
        assert_eq!(
            sol.members,
            vec![NodeId(2), NodeId(4), NodeId(6), NodeId(7)],
            "paper: optimal group {{v2,v4,v6,v7}}"
        );
        // Paper reports the period [ts2, ts4] (0-based [1, 3]).
        assert_eq!(sol.period, SlotRange::new(1, 3));
        assert_eq!(sol.total_distance, 17 + 27 + 23);
        assert_eq!(sol.pivot, 2, "anchored on pivot ts3");
    }

    #[test]
    fn stage_timings_track_the_pivot_loop() {
        let (g, q, cals) = example3_inputs();
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let cfg = SelectConfig::default();
        let fg = FeasibleGraph::extract(&g, q, query.s());

        // Coarse mode (the default): the solve fills the split and the
        // spans cover every descended pivot.
        let mut arena = PivotArena::new();
        let out = solve_stgq_pooled(&fg, &cals[..], &query, &cfg, &mut arena);
        assert!(out.solution.is_some());
        let coarse = arena.timings;
        assert_eq!(coarse.pivots, 2, "horizon 7, m=3 → pivot slots {{2, 5}}");
        assert!(coarse.prepared >= 1);
        assert!(coarse.descended <= coarse.prepared);
        assert!(coarse.prepare_ns > 0, "the loop ran, prep time is real");
        assert_eq!(
            coarse.finalize_ns, 0,
            "coarse mode folds finalize into prepare"
        );
        if coarse.descended > 0 {
            assert!(coarse.descend_ns > 0);
        }

        // Detail mode isolates the phases; counters are identical.
        arena.timing_detail = true;
        let detailed_out = solve_stgq_pooled(&fg, &cals[..], &query, &cfg, &mut arena);
        assert_eq!(detailed_out, out, "timing mode never changes the answer");
        let detail = arena.timings;
        assert_eq!(
            (detail.pivots, detail.prepared, detail.descended),
            (coarse.pivots, coarse.prepared, coarse.descended)
        );
        assert!(detail.prepare_ns > 0);
        assert!(detail.prep_ns() >= detail.prepare_ns);

        // Recording off: the split is wiped, not stale.
        arena.timing_detail = false;
        arena.record_timings = false;
        let off_out = solve_stgq_pooled(&fg, &cals[..], &query, &cfg, &mut arena);
        assert_eq!(off_out, out);
        assert!(arena.timings.is_empty(), "off leaves no stale timings");
    }

    #[test]
    fn example3_searches_only_true_pivots() {
        let (g, q, cals) = example3_inputs();
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let out = solve_stgq(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        // Horizon 7, m=3 → pivot slots {2, 5}; at ts6 (slot 5) the Def-4
        // filter leaves too few candidates, but the pivot is still visited.
        assert!(out.stats.pivots_processed <= 2);
        assert!(out.stats.pivots_processed >= 1);
    }

    #[test]
    fn infeasible_when_m_exceeds_common_availability() {
        let (g, q, cals) = example3_inputs();
        let query = StgqQuery::new(4, 1, 1, 6).unwrap();
        let out = solve_stgq(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        assert!(out.solution.is_none());
    }

    #[test]
    fn m_one_degenerates_to_single_slot_meetings() {
        let (g, q, cals) = example3_inputs();
        let query = StgqQuery::new(4, 1, 1, 1).unwrap();
        let sol = solve_stgq(&g, q, &cals, &query, &SelectConfig::default())
            .unwrap()
            .solution
            .expect("m=1 is easiest");
        assert_eq!(sol.period.len(), 1);
        // The socially-optimal group {v2,v3,v4,v7} shares slot ts2 (0-based 1).
        assert_eq!(sol.total_distance, 62);
        assert_eq!(
            sol.members,
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(7)]
        );
    }

    #[test]
    fn p_one_returns_earliest_window() {
        let (g, q, cals) = example3_inputs();
        let query = StgqQuery::new(1, 1, 0, 4).unwrap();
        let sol = solve_stgq(&g, q, &cals, &query, &SelectConfig::default())
            .unwrap()
            .solution
            .unwrap();
        assert_eq!(sol.members, vec![q]);
        assert_eq!(sol.period, SlotRange::new(0, 3));
    }

    #[test]
    fn initiator_unavailable_everywhere_is_infeasible() {
        let (g, q, mut cals) = example3_inputs();
        cals[q.index()] = Calendar::new(7);
        let query = StgqQuery::new(2, 1, 1, 2).unwrap();
        let out = solve_stgq(&g, q, &cals, &query, &SelectConfig::default()).unwrap();
        assert!(out.solution.is_none());
    }

    #[test]
    fn empty_calendars_are_infeasible_not_a_panic() {
        let (g, q, _) = example3_inputs();
        let fg = FeasibleGraph::extract(&g, q, 1);
        for query in [
            StgqQuery::new(1, 1, 0, 2).unwrap(), // p = 1 path
            StgqQuery::new(3, 1, 1, 2).unwrap(), // pivot path
        ] {
            let out = solve_stgq_on(&fg, &[] as &[Calendar], &query, &SelectConfig::default());
            assert!(out.solution.is_none());
            assert_eq!(out.stats.pivots_processed, 0);
        }
    }

    /// The word-parallel `StVaState` (zero-word counter updates, undo log)
    /// agrees with the scalar reference (per-slot branch on every offset)
    /// on random calendars, through interleaved removals and rewinds.
    #[test]
    fn word_level_counters_match_scalar_reference() {
        use crate::reference::prepare_pivot_reference;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use stgq_graph::GraphBuilder;

        for seed in 0..30u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ seed);
            let n = 14;
            let horizon = rng.gen_range(8..80);
            let m = rng.gen_range(1..=6).min(horizon);
            let mut b = GraphBuilder::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.5) {
                        b.add_edge(NodeId(u as u32), NodeId(v as u32), rng.gen_range(1..30))
                            .unwrap();
                    }
                }
            }
            let g = b.build();
            let calendars: Vec<Calendar> = (0..n)
                .map(|_| Calendar::from_slots(horizon, (0..horizon).filter(|_| rng.gen_bool(0.75))))
                .collect();
            let fg = FeasibleGraph::extract(&g, NodeId(0), 2);

            for pivot in stgq_schedule::pivot::pivot_slots(horizon, m) {
                let mut stats_new = SearchStats::default();
                let mut stats_ref = SearchStats::default();
                let mut arena = PivotArena::new();
                let prep = PivotPrep {
                    tie_blocks: Some(dist_tie_blocks(&fg)),
                    ..PivotPrep::plain(2, m, horizon)
                };
                let job = prepare_full(&fg, &calendars, &prep, pivot, &mut stats_new, &mut arena);
                let reference =
                    prepare_pivot_reference(&fg, &calendars, 2, m, pivot, horizon, &mut stats_ref);
                let Some((ref_runs, ref_avail, mut ref_va, ref_q_run)) = reference else {
                    assert!(job.is_none(), "seed {seed} pivot {pivot}");
                    continue;
                };
                // The optimized engine additionally drops candidates whose
                // run overlaps the initiator's by fewer than m slots (they
                // can never join a group containing her) — mirror that
                // filter on the scalar side before comparing counters.
                let doomed: Vec<u32> = ref_va
                    .base
                    .set
                    .iter()
                    .map(|v| v as u32)
                    .filter(|&v| {
                        let run = ref_runs[v as usize].expect("eligible members have runs");
                        run.intersect(&ref_q_run).is_none_or(|r| r.len() < m)
                    })
                    .collect();
                for &v in &doomed {
                    ref_va.remove(v, &fg, &ref_avail[v as usize]);
                }
                if ref_va.base.set.is_empty() {
                    // p = 2 here: no surviving candidate ⇒ the optimized
                    // prepare refuses the pivot outright.
                    assert!(job.is_none(), "seed {seed} pivot {pivot}");
                    continue;
                }
                let job = job.expect("surviving candidates ⇒ prepared job");
                let mut va = job.va.clone();

                // Initial counters must agree (word-parallel vs per-slot build).
                assert_eq!(va.unavail, ref_va.unavail, "seed {seed} pivot {pivot} init");
                let ilen = job.interval.len();
                for v in va.base.set.iter() {
                    let from_words = BitSet::from_words(ilen, job.avail(v as u32).iter().copied());
                    assert_eq!(
                        from_words, ref_avail[v],
                        "seed {seed} pivot {pivot} avail bitmap of {v}"
                    );
                }

                // Interleave removals with a mid-sequence rewind and check
                // counters stay in lock-step with the scalar reference.
                let members: Vec<u32> = va.base.set.iter().map(|v| v as u32).collect();
                let mark = va.mark();
                let keep_from = members.len() / 2;
                for &u in &members {
                    va.remove(u, &fg, job.avail(u));
                }
                va.undo_to(mark, &fg, &job.avail_words, job.avail_stride);
                assert_eq!(va.unavail, job.va.unavail, "seed {seed} pivot {pivot} undo");
                assert_eq!(va.base.set, job.va.base.set);
                assert_eq!(va.base.cnt_in_a, job.va.base.cnt_in_a);
                assert_eq!(va.base.total_inner, job.va.base.total_inner);

                for &u in &members[keep_from..] {
                    va.remove(u, &fg, job.avail(u));
                    ref_va.remove(u, &fg, &ref_avail[u as usize]);
                    assert_eq!(
                        va.unavail, ref_va.unavail,
                        "seed {seed} pivot {pivot} rm {u}"
                    );
                    assert_eq!(va.base.cnt_in_a, ref_va.base.cnt_in_a);
                    assert_eq!(va.base.total_inner, ref_va.base.total_inner);
                }
            }
        }
    }

    #[test]
    fn sharp_floor_dominates_the_plain_floor() {
        // Directly compare the two floors on every prepared pivot of
        // random instances: the phase-1 plain floor against the sharp
        // floor `finalize_pivot` replaces it with. Sharp ≥ plain always,
        // and a sharp-refused pivot admits no feasible window at all.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use stgq_graph::GraphBuilder;

        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(0xF100F ^ seed);
            let n = 12;
            let horizon = rng.gen_range(10..60);
            let m = rng.gen_range(2..=6).min(horizon);
            let p = rng.gen_range(2..=4);
            let mut b = GraphBuilder::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.6) {
                        b.add_edge(NodeId(u as u32), NodeId(v as u32), rng.gen_range(1..20))
                            .unwrap();
                    }
                }
            }
            let g = b.build();
            let calendars: Vec<Calendar> = (0..n)
                .map(|_| Calendar::from_slots(horizon, (0..horizon).filter(|_| rng.gen_bool(0.6))))
                .collect();
            let fg = FeasibleGraph::extract(&g, NodeId(0), 2);
            let prep = PivotPrep::plain(p, m, horizon);

            for pivot in stgq_schedule::pivot::pivot_slots(horizon, m) {
                let mut stats = SearchStats::default();
                let mut arena = PivotArena::new();
                let Some(mut job) = prepare_pivot(
                    &fg,
                    calendars[..].into(),
                    &prep,
                    pivot,
                    &mut stats,
                    &mut arena,
                ) else {
                    continue;
                };
                let plain = job.dist_bound;
                if finalize_pivot(&fg, &prep, &mut job, &mut stats, &mut arena) {
                    assert!(
                        job.dist_bound >= plain,
                        "seed {seed} pivot {pivot}: sharp floor must dominate"
                    );
                    continue;
                }
                // Sharp refused: verify no m-window of q_run is covered
                // by p − 1 candidate runs.
                for a in job.q_run.lo..=(job.q_run.hi + 1 - m) {
                    let covering = job
                        .runs
                        .iter()
                        .enumerate()
                        .skip(1)
                        .filter(|(_, r)| r.is_some_and(|r| r.lo <= a && r.hi >= a + m - 1))
                        .count();
                    assert!(
                        covering + 1 < p,
                        "seed {seed} pivot {pivot}: refused but window {a} feasible"
                    );
                }
            }
        }
    }

    #[test]
    fn pre_cancelled_solve_reports_cancelled_not_truncated() {
        use crate::{CancelToken, SolveControl};
        let (g, q, cals) = example3_inputs();
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let fg = FeasibleGraph::extract(&g, q, 1);
        let token = CancelToken::new();
        token.cancel();
        let control = SolveControl::new().with_cancel(token);
        let mut arena = PivotArena::new();
        let out = solve_stgq_controlled(
            &fg,
            &cals,
            &query,
            &SelectConfig::default(),
            &mut arena,
            Some(&control),
        );
        assert!(out.stats.cancelled, "token was tripped before the solve");
        assert!(
            !out.stats.truncated,
            "cancellation must not masquerade as budget truncation"
        );
        assert_eq!(out.stats.frames, 0, "no frame entered after cancellation");
    }

    #[test]
    fn expired_deadline_stops_before_searching() {
        use crate::SolveControl;
        use std::time::{Duration, Instant};
        let (g, q, cals) = example3_inputs();
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let fg = FeasibleGraph::extract(&g, q, 1);
        let control = SolveControl::new().with_deadline(Instant::now() - Duration::from_millis(1));
        let mut arena = PivotArena::new();
        let out = solve_stgq_controlled(
            &fg,
            &cals,
            &query,
            &SelectConfig::default(),
            &mut arena,
            Some(&control),
        );
        assert!(out.stats.cancelled);
        assert_eq!(out.stats.frames, 0);
    }

    #[test]
    fn uncancelled_control_is_transparent() {
        use crate::{CancelToken, SolveControl};
        let (g, q, cals) = example3_inputs();
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let fg = FeasibleGraph::extract(&g, q, 1);
        let control = SolveControl::new().with_cancel(CancelToken::new());
        let mut arena = PivotArena::new();
        let controlled = solve_stgq_controlled(
            &fg,
            &cals,
            &query,
            &SelectConfig::default(),
            &mut arena,
            Some(&control),
        );
        let plain = solve_stgq_on(&fg, &cals, &query, &SelectConfig::default());
        assert_eq!(controlled, plain, "a quiet control changes nothing");
        assert!(!controlled.stats.cancelled);
    }

    /// The cross-solve run cache serves version-fresh Definition-4 runs
    /// across `begin_solve` boundaries once the world-version handshake
    /// activates it — same answers, hits counted — and stays fully
    /// inert on un-handshaken arenas.
    #[test]
    fn cross_solve_run_cache_hits_under_handshake_only() {
        let (g, q, cals) = example3_inputs();
        let fg = FeasibleGraph::extract(&g, q, 1);
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let cfg = SelectConfig::default();

        // Plain pooled arena: repeat solves never consult the cache.
        let mut plain = PivotArena::new();
        let first_plain = solve_stgq_pooled(&fg, &cals[..], &query, &cfg, &mut plain);
        let second_plain = solve_stgq_pooled(&fg, &cals[..], &query, &cfg, &mut plain);
        assert_eq!(first_plain, second_plain, "pooled repeat solves agree");
        assert_eq!(second_plain.stats.run_cache_cross_solve_hits, 0);

        // Handshaken arena: the second solve re-derives runs from the
        // first solve's cross entries instead of scanning calendars.
        let mut arena = PivotArena::new();
        arena.install_world_versions(&[7, 7]);
        let first = solve_stgq_pooled(&fg, &cals[..], &query, &cfg, &mut arena);
        assert_eq!(first.solution, first_plain.solution);
        assert_eq!(
            first.stats.run_cache_cross_solve_hits, 0,
            "nothing to hit on a cold cross cache"
        );
        let second = solve_stgq_pooled(&fg, &cals[..], &query, &cfg, &mut arena);
        assert_eq!(second.solution, first_plain.solution);
        assert!(
            second.stats.run_cache_cross_solve_hits > 0,
            "warm cross cache must serve runs across solves"
        );
        // Every other counter is untouched: a served run is exactly
        // what the fresh calendar scan would have produced.
        let mut a = second.stats;
        let mut b = second_plain.stats;
        a.run_cache_cross_solve_hits = 0;
        b.run_cache_cross_solve_hits = 0;
        assert_eq!(a, b, "the cache may only move its own counter");

        // Bumping a shard version invalidates its entries — answers
        // hold, the stale shard is rescanned and restamped.
        arena.install_world_versions(&[8, 7]);
        let third = solve_stgq_pooled(&fg, &cals[..], &query, &cfg, &mut arena);
        assert_eq!(third.solution, first_plain.solution);

        // Dropping the handshake deactivates and empties the cache.
        arena.install_world_versions(&[]);
        let fourth = solve_stgq_pooled(&fg, &cals[..], &query, &cfg, &mut arena);
        assert_eq!(fourth, second_plain, "inert again after the reset");
    }

    #[test]
    fn calendar_validation_errors() {
        let (g, q, cals) = example3_inputs();
        let query = StgqQuery::new(2, 1, 1, 2).unwrap();
        let err = solve_stgq(&g, q, &cals[..3], &query, &SelectConfig::default()).unwrap_err();
        assert!(matches!(err, QueryError::CalendarCountMismatch { .. }));
    }

    #[test]
    fn relaxed_config_finds_same_objective() {
        let (g, q, cals) = example3_inputs();
        let query = StgqQuery::new(4, 1, 1, 3).unwrap();
        let a = solve_stgq(&g, q, &cals, &query, &SelectConfig::default())
            .unwrap()
            .solution;
        let b = solve_stgq(&g, q, &cals, &query, &SelectConfig::RELAXED)
            .unwrap()
            .solution;
        assert_eq!(
            a.map(|s| s.total_distance),
            b.map(|s| s.total_distance),
            "θ/φ are ordering heuristics, not correctness knobs"
        );
    }
}
