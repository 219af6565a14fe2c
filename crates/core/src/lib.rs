//! Query engines for *On Social-Temporal Group Query with Acquaintance
//! Constraint* (VLDB 2011).
//!
//! Two NP-hard queries over a weighted social graph:
//!
//! * **SGQ(p, s, k)** — find `p` attendees (initiator included) within `s`
//!   social hops, minimizing total social distance to the initiator, such
//!   that each attendee is unacquainted with at most `k` others
//!   ([`SgqQuery`], solved by [`solve_sgq`]);
//! * **STGQ(p, s, k, m)** — additionally find `m` consecutive time slots in
//!   which all attendees are available ([`StgqQuery`], solved by
//!   [`solve_stgq`]).
//!
//! Engines provided:
//!
//! | engine | function | paper |
//! |--------|----------|-------|
//! | SGSelect | [`solve_sgq`], [`Solver::sgq`] | §3.2 |
//! | STGSelect | [`solve_stgq`], [`Solver::stgq`] | §4.2 |
//! | SGQ exhaustive baseline | [`solve_sgq_exhaustive`] | §5.2 |
//! | STGQ sequential baseline | [`solve_stgq_sequential`] | §5.2 |
//! | PCArrange | [`pc_arrange`] | §5.1 |
//! | STGArrange | [`stg_arrange`] | §5.1 |
//!
//! All engines are exact (the baselines by enumeration, the Select
//! algorithms by sound pruning — Theorems 2 and 3) and return the same
//! optimal objective; cross-checking them is the backbone of this crate's
//! test suite. An independent [`validate`] module re-checks any claimed
//! solution straight from the problem definitions.
//!
//! SGSelect and STGSelect are one branch-and-bound descent, generic over
//! a temporal axis: SGQ runs it on a zero-sized unit axis, STGQ on the
//! pivot axis that adds the common run, temporal extensibility and
//! availability pruning (the paper builds STGSelect as SGSelect plus a
//! temporal dimension). There is one way to call it: [`Solver`] takes an
//! extracted candidate space and the config, optionally a
//! [`SolveControl`] and a pooled [`PivotArena`], and answers
//! [`Solver::sgq`] or [`Solver::stgq`]. The flat-graph [`solve_sgq`] /
//! [`solve_stgq`] validate outside input and run a default `Solver`.
//!
//! # Hot-path architecture
//!
//! The branch-and-bound inner loop *is* the product (the paper's whole
//! contribution is that pruning beats the IP formulation by orders of
//! magnitude), so the exact engines are built around four ideas:
//!
//! * **Word-parallel temporal state.** Pivot preparation stitches each
//!   calendar's packed words onto interval offsets 64 slots at a time
//!   (`Calendar::range_words`), derives the Definition-4 run from
//!   leading/trailing-zero scans, and stores all availability bitmaps in
//!   one flattened buffer. The Lemma-5 unavailability counters are
//!   maintained by iterating only the *zero words* of a member's bitmap —
//!   an all-available member costs one comparison per word instead of a
//!   branch per slot — and a maintained max-counter upper bound skips the
//!   blocked-slot scan entirely on most frames.
//! * **Zero-allocation descent (undo log).** One `VA` state is shared by
//!   the whole search: frames remove candidates in place and parents
//!   rewind to their mark on return (LIFO undo restores every counter
//!   exactly), replacing the old clone-per-descent. Steady-state search
//!   performs no heap allocation.
//! * **Aggregate `U`/`A` conditions.** In the exterior-expansibility term
//!   the per-candidate adjacency contributions cancel algebraically, so
//!   the `VS` part collapses to a cached `min(cnt_a + cnt_s)` aggregate
//!   (maintained incrementally across removals); the interior term needs
//!   only the maximisers of `miss_v`, checked with one word-parallel
//!   subset test against the flattened adjacency. Frame-level prune
//!   checks re-run only when `VA` actually mutated — between mutation-free
//!   iterations they are provably no-ops.
//! * **Access order as a bitmap.** `VA` is mirrored over access-order
//!   positions (owned by the `VA` state, so each pivot may carry its own
//!   permutation), so "next unvisited candidate by distance" and
//!   "minimum-distance member" are find-first-set scans.
//!
//! On top of the constant-factor work, the engines cut *how many*
//! candidates they examine at all (the search-reduction release):
//!
//! * **Incumbent seeding** ([`SelectConfig::seed_restarts`]). Before exact
//!   descent the incumbent is pre-loaded with a cheap feasible solution —
//!   a first-fit probe of the `p − 1` nearest (eligible) candidates,
//!   falling back to the greedy heuristic for STGQ pivots — so Lemma-2
//!   distance pruning is live from the very first frame. A non-optimal
//!   bound never cuts a strictly better solution, so the optimum is
//!   untouched; ties simply return the seed as the optimal witness.
//! * **Promise-ordered pivots with a pivot-granularity bound**
//!   ([`SelectConfig::pivot_promise_order`]). Pivot slots are processed
//!   longest-initiator-run first, and each prepared pivot carries the sum
//!   of its `p − 1` smallest eligible incident distances as an optimistic
//!   floor: an incumbent at or below the floor retires the whole pivot
//!   without opening a frame ([`SearchStats::pivots_skipped`]). On easy
//!   instances the seed hits the first pivot's floor and the entire
//!   pivot loop collapses to zero frames.
//! * **Clipped eligibility + availability-aware ordering**
//!   ([`SelectConfig::availability_ordering`]). A candidate's Definition-4
//!   run is clipped to the initiator's — an overlap under `m` slots can
//!   never serve any group containing her, so such candidates never enter
//!   `VA` at all — and equal-distance access-order ties are broken by
//!   remaining overlap (descending), computed from per-solve tie blocks
//!   so pivots pay only the permutation, not the scan.
//! * **Pivot-arena pooling** ([`PivotArena`]). The flattened
//!   availability buffers, bitmaps, undo logs and order permutations are
//!   recycled across the sequential pivot loop, and — via
//!   [`Solver::arena`] — across whole query streams (the executor's
//!   workers each hold one arena).
//! * **Compatibility-restricted pivot floor.** Per-pivot runs are
//!   intervals all containing the pivot, so (Helly property) a group
//!   shares an `m`-run iff one `m`-window lies inside every member's
//!   run; the pivot's optimistic floor becomes `min` over the ≤ `m`
//!   windows of the initiator's run of the `p − 1` cheapest covering
//!   candidates — never looser than the plain `p − 1`-smallest sum, and
//!   a pivot with no coverable window is refused as infeasible outright.
//!
//! A **candidate-space reduction layer** runs between pivot preparation
//! and exact descent (prepare → peel → floor → materialize → descend;
//! the full pipeline diagram lives in the STGSelect module docs). None
//! of it has a switch: each piece is exact, and each shows its effect
//! through its own [`SearchStats`] counter (the table on
//! [`SelectConfig`] lists them).
//!
//! * **Fixpoint (p, k)-core peeling.** The eligible-degree
//!   `≥ p − 1 − k` filter is iterated to a fixpoint over the
//!   word-parallel adjacency, so whole fringe structures (chains, fans)
//!   cascade out of `VA` before any frame opens; a pivot whose core
//!   cannot seat `p` people is refused outright
//!   ([`SearchStats::pivots_refused_by_core`]). SGQ peels its candidate
//!   set the same way, once per solve. The peeled core depends only on
//!   `(query, eligible-set signature)`, so it is computed once per
//!   signature and shared across the pivot loop.
//! * **Frame-level k-plex bound.** Candidates already missing more
//!   than `k` acquaintances against `VS` are excluded from the
//!   completion floor — whose `need` cheapest *admissible* distances
//!   strictly dominate Lemma 2's `need · min` — and at frame entry a
//!   greedy matching over missing pairs among the remaining candidates
//!   is charged against the group's aggregate `⌊k·p/2⌋`
//!   non-acquaintance budget (a strictly stronger Lemma 3, live on the
//!   SGQ path too; [`SearchStats::frames_pruned_by_match`]).
//! * **Incremental pivot preparation.** Maximal availability runs are
//!   calendar-absolute, so consecutive (promise-ordered) pivots landing
//!   in the same run re-derive eligibility and clipping by interval
//!   arithmetic from a per-solve run cache instead of re-scanning
//!   calendar words; the flattened availability buffer is materialized
//!   only for rows the peel kept, and only once the pivot survives every
//!   pre-descent bound. [`SearchStats::prep_words_delta`] /
//!   [`SearchStats::prep_words_rebuilt`] split the words served from
//!   the cache from those built from calendar words.
//! * **Parent-side completion bound.** Before descending into a child,
//!   the parent charges the child's admissible-completion floor — the
//!   `need` cheapest candidates still k-plex-admissible *after*
//!   adopting the child — against the incumbent, so losing children are
//!   never opened (each skipped child saves a push/undo cycle and a full
//!   frame entry; [`SearchStats::children_pruned_by_parent_bound`]).
//!   Fires on the SGQ expand path too.
//!
//! For serving deployments the engines also stop **cooperatively**: an
//! optional [`SolveControl`] (cancellation token and/or wall-clock
//! deadline, [`Solver::control`])
//! is polled on the same frame-counter path as the anytime budget, and
//! a stopped solve returns the incumbent with
//! [`SearchStats::cancelled`] set — provenance kept distinct from
//! budget truncation, so [`SolveOutcome::stop_cause`] can report
//! `FrameBudget` vs `Cancelled` honestly.
//!
//! Each STGQ solve also splits its own wall clock —
//! preparation vs exact descent — into [`StageTimings`] on the
//! [`PivotArena`] it ran on (two clock reads per descended pivot; see
//! the [`timings`] module), so the serving layer can histogram the
//! prep/descend split live. Wall-clock numbers stay out of
//! [`SearchStats`] and all solve outcomes, which remain deterministic
//! and bit-comparable.
//!
//! The pre-optimization implementations are preserved verbatim in
//! [`reference`](mod@reference); cross-engine tests assert identical optima and the
//! `hotpath` criterion suite in `stgq-bench` tracks the speedup
//! (`BENCH_core.json` at the repo root is the committed baseline: ~4.8–6.3×
//! on the fig1f `m = 4` configs, ≥2.1× everywhere else). Every solve is
//! one sequential search, like the paper's algorithms; a serving
//! deployment uses its cores by running many queries at once (the
//! `stgq-exec` worker pool), not by splitting one.
//!
//! # Quick start
//!
//! ```
//! use stgq_graph::{GraphBuilder, NodeId};
//! use stgq_core::{solve_sgq, SelectConfig, SgqQuery};
//!
//! // A tiny friend circle around the initiator v0.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(NodeId(0), NodeId(1), 2).unwrap();
//! b.add_edge(NodeId(0), NodeId(2), 3).unwrap();
//! b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
//! b.add_edge(NodeId(0), NodeId(3), 1).unwrap();
//! let graph = b.build();
//!
//! // Three people who all know each other (k = 0), one hop away.
//! let query = SgqQuery::new(3, 1, 0).unwrap();
//! let out = solve_sgq(&graph, NodeId(0), &query, &SelectConfig::default()).unwrap();
//! let sol = out.solution.unwrap();
//! assert_eq!(sol.members, vec![NodeId(0), NodeId(1), NodeId(2)]);
//! assert_eq!(sol.total_distance, 5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod baseline;
mod combinations;
mod config;
mod control;
mod descent;
mod error;
pub mod heuristics;
mod incumbent;
mod inputs;
mod manual;
mod query;
mod reduce;
pub mod reference;
mod result;
#[cfg(feature = "serde")]
mod serde_impls;
mod sgselect;
mod solver;
mod stats;
mod stgselect;
pub mod timings;
pub mod validate;

pub use baseline::{
    exhaustive_group_count, solve_sgq_exhaustive, solve_sgq_exhaustive_on, solve_stgq_sequential,
    solve_stgq_sequential_on, SgqEngine,
};
pub use combinations::Combinations;
pub use config::SelectConfig;
pub use control::{CancelToken, SolveControl, DEADLINE_CHECK_INTERVAL};
pub use error::QueryError;
pub use manual::{pc_arrange, stg_arrange, PcArrangeResult, StgArrangeResult};
pub use query::{SgqQuery, StgqQuery};
pub use result::{SgqOutcome, SgqSolution, SolveOutcome, StgqOutcome, StgqSolution, StopCause};
pub use sgselect::solve_sgq;
pub use solver::Solver;
pub use stats::SearchStats;
pub use stgselect::{solve_stgq, PivotArena};
pub use timings::StageTimings;
