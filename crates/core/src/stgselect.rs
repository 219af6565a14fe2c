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
//! The frame loop is SGSelect's: [`crate::descent`] holds the one
//! generic descent, and this module's [`PivotAxis`] is the temporal
//! dimension it runs on — `TS` per `VS` member, Definition 5 with φ
//! relaxation, and the Lemma-5 counters and prune. What stays here is
//! the pivot pipeline below, which prepares each pivot's candidate
//! space before one searcher descends it ([`descend_pivot`]).
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
//!  prepare   Definition-4 eligibility, delta'd from the per-solve run
//!     │      cache when a cached calendar run covers the pivot
//!     │      (prep_words_delta), scanned from packed calendar words
//!     │      otherwise; runs clipped to the initiator's; plain floor
//!     │      read off the candidate space's one access order
//!     │        └─ incumbent ≤ plain floor → skip pivot (pivots_skipped)
//!     │                                             (pivots_processed)
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
//! The peel stage is a pure function of `(query, eligible set)`, so the
//! [`PivotArena`] memoizes its last result and consecutive pivots with
//! the same eligible signature reuse it; the first pivot to reach the
//! peel computes it, so a solve whose pivots all fall to the phase-1
//! bound never peels. The run cache behind the prepare stage is likewise
//! per-solve state in the arena — promise-ordered pivots revisit
//! overlapping intervals, so after the first pivot most candidates'
//! Definition-4 runs are pure arithmetic on the cached calendar-absolute
//! run, with no pointer chase into the calendars at all. Nothing in the
//! arena survives into the next solve except buffers.
//!
//! Every stage reads the candidate space's one access order
//! (`candidate_order()`, ascending social distance) and its inverse
//! (`order_pos()`), exactly as SGSelect and the greedy seed do: the
//! plain floor, the sharp floor and the descent walk the same order.

// Parallel per-slot counters are clearer with indexed loops.
#![allow(clippy::needless_range_loop)]

use std::time::Instant;

use stgq_graph::{
    for_each_zero_bit, BitSet, CandidateTopology, Dist, FeasibleGraph, NodeId, SocialGraph,
};
use stgq_schedule::pivot::{pivot_interval, pivot_of_window, pivot_slots};
use stgq_schedule::{Calendar, Cals, SlotId, SlotRange};

use crate::descent::{SearchCtx, Searcher, TemporalAxis, VaState};
use crate::incumbent::Incumbent;
use crate::inputs::check_temporal_inputs;
use crate::reduce::{initiator_core_ok, peel_min_deg, peel_to_core};
use crate::timings::StageTimings;
use crate::{
    QueryError, SearchStats, SelectConfig, SolveControl, Solver, StgqOutcome, StgqQuery,
    StgqSolution,
};

/// Nanoseconds since `mark`, which moves to now. Saturating: a span
/// can't realistically exceed `u64::MAX` ns, but the cast must not wrap.
#[inline]
fn advance(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = u64::try_from((now - *mark).as_nanos()).unwrap_or(u64::MAX);
    *mark = now;
    ns
}

/// Solve an STGQ with STGSelect.
///
/// `calendars` is indexed by **original** vertex id and must share one
/// horizon. Returns the optimal (group, period) or `None` when infeasible.
///
/// Validates the initiator and the calendars, extracts the radius-`s`
/// candidate space, then runs a default [`Solver`] on it (use [`Solver`]
/// directly for a pre-extracted candidate space, shard-partitioned
/// calendars, a pooled [`PivotArena`] or a [`SolveControl`]).
pub fn solve_stgq(
    graph: &SocialGraph,
    initiator: NodeId,
    calendars: &[Calendar],
    query: &StgqQuery,
    cfg: &SelectConfig,
) -> Result<StgqOutcome, QueryError> {
    check_temporal_inputs(graph, initiator, calendars)?;
    let fg = FeasibleGraph::extract(graph, initiator, query.s());
    Ok(Solver::new(&fg, cfg).stgq(calendars, query))
}

/// The sequential STGSelect solve behind [`Solver::stgq`]: the pivot
/// loop on `arena`, which also receives the solve's stage split.
/// `control` is already filtered of no-op policies.
pub(crate) fn solve<G: CandidateTopology>(
    fg: &G,
    calendars: Cals<'_>,
    query: &StgqQuery,
    cfg: &SelectConfig,
    arena: &mut PivotArena,
    control: Option<&SolveControl>,
) -> StgqOutcome {
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

    let pivots = promise_ordered_pivots(q_cal, horizon, m);
    let prep = PivotPrep::new(p, query.k(), m, horizon);
    arena.begin_solve();

    // Stage-timing state (see `crate::timings`): one mark before the
    // loop, advanced only around exact descent — a pivot that never
    // descends costs zero clock reads and folds into the next
    // preparation span.
    let mut tm = StageTimings {
        pivots: pivots.len() as u64,
        ..StageTimings::default()
    };
    let mut mark = arena.record_timings.then(Instant::now);

    let incumbent = Incumbent::new();
    let ctx = SearchCtx {
        fg,
        p,
        k: query.k(),
        cfg,
        incumbent: &incumbent,
        control,
    };
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
        let Some(mut job) = prepare_pivot(fg, calendars, &prep, pivot, &mut stats, arena) else {
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
        if !finalize_pivot(fg, &prep, &mut job, &mut stats, arena) {
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
        if incumbent.dist().is_none() {
            if let Some((group, dist, ts)) =
                crate::heuristics::greedy_seed_for_pivot(fg, p, query.k(), m, &job)
            {
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
        materialize_pivot(fg, calendars, &mut job, &mut stats);
        // Everything since the last mark was preparation (including
        // skipped pivots and seeding); the descent span is exactly the
        // search call.
        if let Some(m0) = mark.as_mut() {
            tm.prepare_ns += advance(m0);
        }
        tm.descended += 1;
        descend_pivot(ctx, query, &mut job, &mut stats);
        if let Some(m0) = mark.as_mut() {
            tm.descend_ns += advance(m0);
        }
        arena.recycle(job);
    }
    if let Some(mut m0) = mark {
        // Tail of the loop after the last descent — pivots prepared but
        // skipped, or none at all — is preparation time.
        tm.prepare_ns += advance(&mut m0);
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
/// prefiltering here changes no counter), in **promise order**:
/// descending initiator run length, the idea being that more temporal
/// slack means more eligible candidates and better odds the optimum lives
/// there, so early pivots tighten the incumbent for the
/// pivot-granularity bound. Stable — equal-promise pivots stay in
/// calendar order.
fn promise_ordered_pivots(q_cal: &Calendar, horizon: usize, m: usize) -> Vec<SlotId> {
    let mut keyed: Vec<(SlotId, usize)> = pivot_slots(horizon, m)
        .filter_map(|pv| {
            let interval = pivot_interval(pv, m, horizon);
            q_cal
                .run_containing(pv, interval)
                .filter(|r| r.len() >= m)
                .map(|r| (pv, r.len()))
        })
        .collect();
    keyed.sort_by_key(|&(_, len)| std::cmp::Reverse(len));
    keyed.into_iter().map(|(pv, _)| pv).collect()
}

/// Per-solve pivot preprocessing: everything about pivot preparation
/// that does **not** depend on the pivot slot — the query shape and the
/// peel threshold.
///
/// Built once per `(query, feasible graph)` and read by every pivot of
/// the loop. The peel itself is memoized per eligible signature in the
/// [`PivotArena`], computed by the first pivot that reaches it.
pub(crate) struct PivotPrep {
    pub(crate) p: usize,
    pub(crate) m: usize,
    pub(crate) horizon: usize,
    /// Fixpoint peel threshold `p − 1 − k` (`None` when vacuous).
    pub(crate) peel_min_deg: Option<usize>,
}

impl PivotPrep {
    /// Preprocessing for one solve of `(p, k, m)` over `fg`.
    pub(crate) fn new(p: usize, k: usize, m: usize, horizon: usize) -> Self {
        PivotPrep {
            p,
            m,
            horizon,
            peel_min_deg: peel_min_deg(p, k),
        }
    }

    /// A bare prep — no peel. The greedy heuristic prepares its pivots
    /// with this (its evaluation counts are pinned by behaviour tests
    /// and it never consults the bound).
    pub(crate) fn plain(p: usize, m: usize, horizon: usize) -> Self {
        PivotPrep {
            p,
            m,
            horizon,
            peel_min_deg: None,
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
/// can strictly beat the incumbent. Gated on Lemma-2 pruning, so a
/// pruning-off ablation really searches every pivot.
fn pivot_bound_skips(cfg: &SelectConfig, incumbent: &Incumbent<StBest>, dist_bound: Dist) -> bool {
    cfg.distance_pruning && incumbent.dist().is_some_and(|d| d <= dist_bound)
}

/// The incumbent payload: everything about the best solution except its
/// objective value (which the [`Incumbent`] keeps beside it).
pub(crate) struct StBest {
    pub(crate) group: Vec<u32>,
    pub(crate) period: SlotRange,
    pub(crate) pivot: SlotId,
}

/// Everything one pivot's search needs, prepared up front (the greedy STGQ
/// heuristic reuses the same setup code).
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
    /// Optimistic lower bound on any group's total distance at this
    /// pivot: the sum of the `p − 1` smallest incident distances among
    /// pivot-eligible candidates (pivot-granularity Lemma 2).
    pub(crate) dist_bound: Dist,
    /// Pivot-eligible candidates (Definition 4) over compact indices.
    pub(crate) eligible: BitSet,
    /// `VA` restricted to the pivot-eligible candidates, over the
    /// candidate space's access order.
    pub(crate) va: VaState,
    /// The Lemma-5 per-slot unavailability counters of [`va`](Self::va).
    pub(crate) unavail: Unavail,
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
            dist_bound: 0,
            eligible: BitSet::new(0),
            va: VaState::default(),
            unavail: Unavail::default(),
        }
    }
}

/// Recycler for the pivot jobs' buffers (flattened availability words,
/// bitmaps, Lemma-5 counters, undo logs),
/// plus the per-solve scratch of pivot preparation (the run cache and
/// the one-entry peel memo).
///
/// The ROADMAP measured pivot preparation at ~25% of small-`m` STGQ
/// solves, most of it allocation and zeroing; one arena makes the
/// sequential pivot loop — and, via [`Solver::arena`], a whole stream
/// of planner queries — reuse a single set of buffers. The arena holds at
/// most one spare job, which is exactly what the pivot loop produces.
///
/// Pooling is an allocation strategy only: every buffer is fully
/// re-initialised by `prepare_pivot`, and the per-solve scratch is wiped
/// at the top of every solve, so a reused arena and a fresh one give
/// bit-identical results, every counter included.
///
/// The arena also carries the solve's wall-clock stage split: every
/// sequential STGQ solve run on it refreshes [`timings`](Self::timings)
/// (see [`crate::timings`] for what recording costs).
pub struct PivotArena {
    /// Wall-clock stage split of the most recent sequential STGQ solve
    /// run on this arena (reset at the top of every such solve; stays
    /// [`StageTimings::default`] when recording is off or the solve
    /// never entered the pivot loop).
    pub timings: StageTimings,
    /// Whether solves record [`timings`](Self::timings) (default on —
    /// two clock reads per descended pivot; the instrumentation-overhead
    /// bench flips this off for its baseline arm).
    pub record_timings: bool,
    spare: Option<PivotJob>,
    /// One-entry peel memo: the last distinct per-pivot eligible
    /// signature whose peel result was computed here. The first pivot
    /// to reach [`finalize_pivot`] fills it, so on dense instances —
    /// where most pivots share the full-candidate signature — the peel
    /// runs once per solve, and a solve whose pivots all fall to the
    /// phase-1 bound never peels. Invalidated by
    /// [`begin_solve`](Self::begin_solve): arenas outlive queries, and
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
    /// `(query, calendars)` pair.
    run_cache: Vec<Option<SlotRange>>,
    /// Peel scratch (degree array + cascade queue).
    deg_scratch: Vec<u32>,
    queue_scratch: Vec<u32>,
}

impl Default for PivotArena {
    /// Timing recording on.
    fn default() -> Self {
        PivotArena {
            timings: StageTimings::default(),
            record_timings: true,
            spare: None,
            memo: None,
            run_cache: Vec::new(),
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

    /// Invalidate the per-solve state (the peel memo and the run
    /// cache); buffers stay. Called at the top of every solve — the
    /// planner's long-lived arenas serve many `(query, graph)` pairs.
    pub(crate) fn begin_solve(&mut self) {
        self.memo = None;
        self.run_cache.clear();
    }

    /// Hand back a spent job's buffers for the next preparation.
    pub(crate) fn recycle(&mut self, job: PivotJob) {
        self.spare = Some(job);
    }

    fn take(&mut self) -> PivotJob {
        self.spare.take().unwrap_or_else(PivotJob::empty)
    }

    /// The peel memo for `eligible` under `prep` with threshold
    /// `min_deg`: this arena's last entry when the signature matches,
    /// else computed fresh and kept here.
    fn reduction<G: CandidateTopology>(
        &mut self,
        fg: &G,
        prep: &PivotPrep,
        min_deg: usize,
        eligible: &BitSet,
    ) -> &PrepMemo {
        let PivotArena {
            memo,
            deg_scratch,
            queue_scratch,
            ..
        } = self;
        if !memo.as_ref().is_some_and(|m| m.eligible == *eligible) {
            memo.get_or_insert_with(PrepMemo::empty).recompute(
                fg,
                eligible,
                prep.p,
                min_deg,
                deg_scratch,
                queue_scratch,
            );
        }
        memo.as_ref().expect("filled above")
    }
}

/// A run-cache miss: scan `cal` for its calendar-absolute maximal
/// available run through `pivot` and store it in `slot`, or return
/// `None` (leaving `slot` as it was) when the person is busy at the
/// pivot. Runs on the calendar's backing words directly
/// ([`Calendar::words`] keeps bits at the horizon and beyond zero, so
/// `run_through_bit`'s packed-form contract holds with no re-basing),
/// which makes a miss O(run-length / 64) word scans rather than a
/// per-slot probe walk.
#[inline]
fn scan_run(
    slot: &mut Option<SlotRange>,
    cal: &Calendar,
    horizon: usize,
    pivot: SlotId,
) -> Option<SlotRange> {
    let (lo, hi) = run_through_bit(cal.words(), horizon, pivot)?;
    let run = SlotRange::new(lo, hi);
    *slot = Some(run);
    Some(run)
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

/// **Phase 1** of pivot preparation: Definition-4 eligibility and the
/// plain `p − 1`-smallest-distances bound — everything the pivot-floor
/// skip check needs, and nothing more. Returns `None` when the pivot cannot host any feasible solution
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
                let cal = calendars.get(fg.origin(0).index());
                scan_run(&mut arena.run_cache[0], cal, horizon, pivot)
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
    for &c in fg.candidate_order() {
        let ci = c as usize;
        let full = match arena.run_cache[ci] {
            Some(r) if r.contains(pivot) => {
                stats.prep_words_delta += stride as u64;
                Some(r)
            }
            _ => {
                let cal = calendars.get(fg.origin(c).index());
                scan_run(&mut arena.run_cache[ci], cal, horizon, pivot)
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
    if job.eligible.len() + 1 < p {
        arena.recycle(job);
        return None;
    }

    // The optimistic distance bound: the access order is
    // distance-ascending, so the p − 1 smallest eligible distances are
    // the first p − 1 eligible entries (eligibility was checked above,
    // so they exist).
    let mut dist_bound: Dist = 0;
    let mut taken = 0usize;
    for &c in fg.candidate_order() {
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
    // and hit the arena's memo): the fixpoint (p, k)-core peel
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
/// [`descend_pivot`] reads `job.va`, `job.unavail` or the availability
/// rows.
pub(crate) fn materialize_pivot<G: CandidateTopology>(
    fg: &G,
    calendars: Cals<'_>,
    job: &mut PivotJob,
    stats: &mut SearchStats,
) {
    let stride = job.avail_stride;
    let ilen = job.interval.len();

    // Only the post-peel eligible members get a row. Everyone else's
    // row stays zero and is never read: the search restricts itself to
    // `VA` members, which are exactly this set.
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
    job.va.fill(fg, Some(&job.eligible));
    let counts = &mut job.unavail.counts;
    counts.clear();
    counts.resize(ilen, 0);
    for v in job.eligible.iter() {
        for_each_zero_bit(
            &job.avail_words[v * stride..(v + 1) * stride],
            ilen,
            |off| {
                counts[off] += 1;
            },
        );
    }
    job.unavail.max_ub = counts.iter().copied().max().unwrap_or(0);
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
        for &c in fg.candidate_order() {
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

/// Run the exact descent for one prepared, materialized pivot, recording
/// improvements into the solve's incumbent. The job's `VA` and
/// Lemma-5 counters are consumed in place (the caller recycles the
/// buffers through the arena afterwards).
fn descend_pivot<G: CandidateTopology>(
    ctx: SearchCtx<'_, G, StBest>,
    query: &StgqQuery,
    job: &mut PivotJob,
    stats: &mut SearchStats,
) {
    let unavail = std::mem::take(&mut job.unavail);
    let mut va = std::mem::take(&mut job.va);
    job.unavail = {
        let axis = PivotAxis::new(job, query, &ctx.cfg, unavail);
        let mut searcher = Searcher::new(ctx, axis, stats);
        searcher.expand(&mut va, 0);
        searcher.axis.unavail
    };
    job.va = va;
}

/// The Lemma-5 per-slot unavailability counters of a pivot's `VA`.
#[derive(Clone, Default)]
pub(crate) struct Unavail {
    /// For each interval offset: how many `VA` members are unavailable there.
    counts: Vec<u32>,
    /// Upper bound on `max(counts)`: never undershoots the true maximum
    /// (removals lower counters without shrinking it; undos raise it as
    /// needed). Lemma 5 needs a counter `≥ n` to fire at all, so
    /// `max_ub < n` skips the blocked-slot scan entirely — the common
    /// case, since pivot-eligible members are mostly available.
    max_ub: u32,
}

/// STGQ's [`TemporalAxis`]: one pivot's temporal dimension on top of the
/// SGSelect descent — the common run `TS` per `VS` member, temporal
/// extensibility (Definition 5) with φ relaxation, and availability
/// pruning (Lemma 5) over the pivot's unavailability counters.
///
/// Counter maintenance is **word-parallel**: a member's removal touches
/// only the *zero words* of its availability bitmap (skipped wholesale
/// when all-available), instead of branching on all `2m−1` interval
/// offsets. Undo is the `VA` undo log's, so one state serves the whole
/// pivot search allocation-free.
pub(crate) struct PivotAxis<'a> {
    job: &'a PivotJob,
    p: usize,
    m: usize,
    phi0: u32,
    phi_cap: u32,
    /// `TS` after each push; `last()` is the current common run.
    ts_stack: Vec<SlotRange>,
    /// The searched `VA`'s counters (a vetting probe, which never
    /// removes through the axis, may pass empty ones).
    unavail: Unavail,
}

impl<'a> PivotAxis<'a> {
    /// The axis of `job`'s pivot for `query` under `cfg` (normalized),
    /// owning `unavail`.
    pub(crate) fn new(
        job: &'a PivotJob,
        query: &StgqQuery,
        cfg: &SelectConfig,
        unavail: Unavail,
    ) -> Self {
        PivotAxis {
            job,
            p: query.p(),
            m: query.m(),
            phi0: cfg.phi0,
            phi_cap: cfg.phi_cap,
            ts_stack: Vec::with_capacity(query.p()),
            unavail,
        }
    }
}

impl TemporalAxis for PivotAxis<'_> {
    type Ts = SlotRange;
    type Best = StBest;

    #[inline]
    fn root_ts(&self) -> SlotRange {
        self.job.q_run
    }

    #[inline]
    fn first_level(&self) -> u32 {
        self.phi0
    }

    #[inline]
    fn next_level(&self, phi: u32) -> Option<u32> {
        (phi < self.phi_cap).then_some(phi + 1)
    }

    /// Temporal extensibility:
    /// `X(VS ∪ {u}) ≥ (m−1) · ((p − |VS ∪ {u}|)/p)^φ`, RHS 0 once φ caps,
    /// with `X = |TS ∩ run_u| − m`. Runs all contain the pivot, so the
    /// intersection is non-empty and contains it too; `X < 0` means `u`
    /// can never leave an `m`-slot common period.
    #[inline]
    fn extend(&self, u: u32, vs_len: usize, phi: u32) -> Result<SlotRange, bool> {
        let run_u = self.job.runs[u as usize].expect("VA members are eligible");
        let ts = *self.ts_stack.last().expect("VS always holds the initiator");
        let new_ts = SlotRange::new(ts.lo.max(run_u.lo), ts.hi.min(run_u.hi));
        let x = new_ts.len() as i64 - self.m as i64;
        let ok = x >= 0
            && (phi >= self.phi_cap || {
                let ratio = (self.p - (vs_len + 1)) as f64 / self.p as f64;
                (x as f64) >= (self.m - 1) as f64 * ratio.powi(phi as i32) - 1e-9
            });
        if ok {
            Ok(new_ts)
        } else {
            Err(x < 0)
        }
    }

    #[inline]
    fn push(&mut self, ts: SlotRange) {
        self.ts_stack.push(ts);
    }

    #[inline]
    fn pop(&mut self) {
        self.ts_stack.pop();
    }

    #[inline]
    fn removed(&mut self, u: u32) {
        let counts = &mut self.unavail.counts;
        let len = counts.len();
        for_each_zero_bit(self.job.avail(u), len, |off| counts[off] -= 1);
        // max_ub stays: counters only dropped.
    }

    #[inline]
    fn restored(&mut self, u: u32) {
        let Unavail { counts, max_ub } = &mut self.unavail;
        let len = counts.len();
        for_each_zero_bit(self.job.avail(u), len, |off| {
            counts[off] += 1;
            *max_ub = (*max_ub).max(counts[off]);
        });
    }

    /// Lemma 5. With `n = |VA| − (p − |VS|) + 1`, a slot where ≥ n members
    /// of `VA` are unavailable leaves at most `p − |VS| − 1` usable vertices
    /// — too few — so no feasible period may cross it. If the nearest such
    /// blocked slots around the pivot (interval edges act blocked) leave a
    /// gap of ≤ m slots, the frame is dead.
    #[inline]
    fn prune(&self, va_len: usize, need: usize) -> bool {
        debug_assert!(va_len >= need);
        let n = (va_len - need + 1) as u32;
        // No counter can reach n ⇒ no blocked slot ⇒ the gap spans the
        // whole interval (`2m−1 ≥ m` slots plus two virtual edges) and the
        // prune cannot fire. This upper bound skips the offset scan on the
        // overwhelming majority of frames.
        if self.unavail.max_ub < n {
            return false;
        }
        let unavail = &self.unavail.counts;
        let pivot_off = self.job.pivot - self.job.interval.lo;
        let len = unavail.len();

        let mut t_minus = -1i64; // virtual blocked slot just before the interval
        for off in (0..pivot_off).rev() {
            if unavail[off] >= n {
                t_minus = off as i64;
                break;
            }
        }
        let mut t_plus = len as i64; // virtual blocked slot just after
        for off in pivot_off + 1..len {
            if unavail[off] >= n {
                t_plus = off as i64;
                break;
            }
        }
        t_plus - t_minus <= self.m as i64
    }

    fn witness(&self, vs: &[u32]) -> StBest {
        let ts = *self.ts_stack.last().expect("VS always holds the initiator");
        debug_assert!(ts.len() >= self.m);
        StBest {
            group: vs.to_vec(),
            period: SlotRange::new(ts.lo, ts.lo + self.m - 1),
            pivot: self.job.pivot,
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

        // Recording on (the default): the solve fills the split and the
        // spans cover every descended pivot.
        let mut arena = PivotArena::new();
        let out = Solver::new(&fg, &cfg)
            .arena(&mut arena)
            .stgq(&cals[..], &query);
        assert!(out.solution.is_some());
        let split = arena.timings;
        assert_eq!(split.pivots, 2, "horizon 7, m=3 → pivot slots {{2, 5}}");
        assert!(split.prepared >= 1);
        assert!(split.descended <= split.prepared);
        assert!(split.prepare_ns > 0, "the loop ran, prep time is real");
        if split.descended > 0 {
            assert!(split.descend_ns > 0);
        }

        // Recording off: the split is wiped, not stale.
        arena.record_timings = false;
        let off_out = Solver::new(&fg, &cfg)
            .arena(&mut arena)
            .stgq(&cals[..], &query);
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
            let out = Solver::new(&fg, &SelectConfig::default()).stgq(&[] as &[Calendar], &query);
            assert!(out.solution.is_none());
            assert_eq!(out.stats.pivots_processed, 0);
        }
    }

    /// The word-parallel `PivotAxis` counters (zero-word updates, undo log)
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
                let prep = PivotPrep::plain(2, m, horizon);
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
                let query = StgqQuery::new(2, 2, 0, m).unwrap();
                let cfg = SelectConfig::default().normalized();
                let mut axis = PivotAxis::new(&job, &query, &cfg, job.unavail.clone());

                // Initial counters must agree (word-parallel vs per-slot build).
                assert_eq!(
                    axis.unavail.counts, ref_va.unavail,
                    "seed {seed} pivot {pivot} init"
                );
                let ilen = job.interval.len();
                for v in va.set.iter() {
                    let from_words = BitSet::from_words(ilen, job.avail(v as u32).iter().copied());
                    assert_eq!(
                        from_words, ref_avail[v],
                        "seed {seed} pivot {pivot} avail bitmap of {v}"
                    );
                }

                // Interleave removals with a mid-sequence rewind and check
                // counters stay in lock-step with the scalar reference.
                let members: Vec<u32> = va.set.iter().map(|v| v as u32).collect();
                let mark = va.mark();
                let keep_from = members.len() / 2;
                for &u in &members {
                    va.remove(u, &fg);
                    axis.removed(u);
                }
                while va.mark() > mark {
                    let u = va.undo_last(&fg);
                    axis.restored(u);
                }
                assert_eq!(
                    axis.unavail.counts, job.unavail.counts,
                    "seed {seed} pivot {pivot} undo"
                );
                assert_eq!(va.set, job.va.set);
                assert_eq!(va.cnt_in_a, job.va.cnt_in_a);
                assert_eq!(va.total_inner, job.va.total_inner);

                for &u in &members[keep_from..] {
                    va.remove(u, &fg);
                    axis.removed(u);
                    ref_va.remove(u, &fg, &ref_avail[u as usize]);
                    assert_eq!(
                        axis.unavail.counts, ref_va.unavail,
                        "seed {seed} pivot {pivot} rm {u}"
                    );
                    assert_eq!(va.cnt_in_a, ref_va.base.cnt_in_a);
                    assert_eq!(va.total_inner, ref_va.base.total_inner);
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
        let out = Solver::new(&fg, &SelectConfig::default())
            .arena(&mut arena)
            .control(Some(&control))
            .stgq(&cals, &query);
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
        let out = Solver::new(&fg, &SelectConfig::default())
            .arena(&mut arena)
            .control(Some(&control))
            .stgq(&cals, &query);
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
        let controlled = Solver::new(&fg, &SelectConfig::default())
            .arena(&mut arena)
            .control(Some(&control))
            .stgq(&cals, &query);
        let plain = Solver::new(&fg, &SelectConfig::default()).stgq(&cals, &query);
        assert_eq!(controlled, plain, "a quiet control changes nothing");
        assert!(!controlled.stats.cancelled);

        // The SGQ search polls the same control.
        let sgq = *query.social();
        let controlled = Solver::new(&fg, &SelectConfig::default())
            .control(Some(&control))
            .sgq(&sgq, None);
        let plain = Solver::new(&fg, &SelectConfig::default()).sgq(&sgq, None);
        assert_eq!(controlled, plain, "a quiet control changes nothing");
        assert!(!controlled.stats.cancelled);
    }

    /// Nothing in a pooled arena outlives its solve but buffers: repeat
    /// solves on one arena — interleaved with other queries that leave
    /// different runs and peel signatures behind — equal a fresh arena's
    /// outcome, every counter included.
    #[test]
    fn repeat_solves_on_one_arena_equal_a_fresh_arenas() {
        let (g, q, cals) = example3_inputs();
        let cfg = SelectConfig::default();
        let fg = FeasibleGraph::extract(&g, q, 1);
        let wide = FeasibleGraph::extract(&g, q, 2);
        // Alternating radii makes consecutive solves see different
        // candidate spaces, runs and peel signatures.
        let queries = [
            StgqQuery::new(4, 1, 1, 3).unwrap(),
            StgqQuery::new(3, 2, 0, 2).unwrap(),
            StgqQuery::new(2, 1, 0, 4).unwrap(),
        ];
        let mut arena = PivotArena::new();
        for round in 0..3 {
            for (i, query) in queries.iter().enumerate() {
                let space = if query.s() == 1 { &fg } else { &wide };
                let fresh = Solver::new(space, &cfg).stgq(&cals[..], query);
                let pooled = Solver::new(space, &cfg)
                    .arena(&mut arena)
                    .stgq(&cals[..], query);
                assert_eq!(pooled, fresh, "round {round}, query {i}");
            }
        }
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
