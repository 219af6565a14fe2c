//! The one exact branch-and-bound descent behind **SGSelect** (§3.2) and
//! **STGSelect** (§4.2).
//!
//! The search explores the feasible graph `G_F` frame by frame. Each frame
//! owns the intermediate solution `VS` (shared push/pop stack) and the
//! remaining set `VA` (shared, rewound through an undo log), and iterates
//! candidates in ascending social distance (*access ordering*). A
//! candidate `u` must pass:
//!
//! * the **exterior expansibility** condition
//!   `A(VS ∪ {u}) ≥ p − |VS ∪ {u}|` (Definition 3, Lemma 1) — otherwise `u`
//!   can never be part of a feasible completion and is dropped from `VA`;
//! * the **interior unfamiliarity** condition
//!   `U(VS ∪ {u}) ≤ k · (|VS ∪ {u}|/p)^θ` (Definition 2) — a soft ordering
//!   condition: failures are retried after θ decays, and only removed at
//!   `θ = 0` (where the condition degenerates to the hard acquaintance
//!   constraint `U ≤ k`);
//! * whatever its [`TemporalAxis`] adds.
//!
//! Frames are abandoned wholesale by **distance pruning** (Lemma 2),
//! **acquaintance pruning** (Lemma 3), the frame-level k-plex bound and
//! the axis's own prune, all evaluated against the frame's current
//! `(VS, VA)` — each bounds *every* completion of `VS` from `VA`, so
//! abandoning the frame is sound and Theorems 2 and 3 hold.
//!
//! The paper builds STGSelect as SGSelect plus a temporal dimension, and
//! so does this module: [`Searcher`] is generic over a [`TemporalAxis`].
//! SGQ runs on the zero-sized [`UnitAxis`] — no temporal check, no
//! Lemma-5 counters, θ the only relaxation — which monomorphises to the
//! plain SGSelect loop. STGQ runs on
//! [`PivotAxis`](crate::stgselect::PivotAxis), which owns the common run
//! `TS` per `VS` member, the pivot's runs and availability words, the
//! Lemma-5 unavailability counters, φ relaxation (Definition 5) and
//! availability pruning (Lemma 5).

use stgq_graph::{BitSet, CandidateTopology, Dist};

use crate::incumbent::Incumbent;
use crate::reduce::{match_bound, MatchScratch, ParentFloor};
use crate::{SearchStats, SelectConfig, SolveControl};

/// The temporal dimension of a search: everything STGSelect adds to
/// SGSelect's frame loop.
pub(crate) trait TemporalAxis {
    /// What a `VS` push carries besides the member: `()` for SGQ, the
    /// members' common run `TS` for STGQ.
    type Ts: Copy;
    /// The incumbent payload.
    type Best;

    /// The `TS` of `VS = {q}`.
    fn root_ts(&self) -> Self::Ts;
    /// The axis's own relaxation level a frame starts at (φ0).
    fn first_level(&self) -> u32;
    /// The next relaxation level once θ is exhausted, or `None` when the
    /// frame has tried every level.
    fn next_level(&self, level: u32) -> Option<u32>;
    /// Whether `u` may join the current `VS` (of `vs_len` members) at
    /// relaxation `level`: `Ok(ts)` with the new `TS`, or `Err(permanent)`
    /// — `true` when `u` can never join this `VS`.
    fn extend(&self, u: u32, vs_len: usize, level: u32) -> Result<Self::Ts, bool>;
    /// `VS` grew by a member with `ts`.
    fn push(&mut self, ts: Self::Ts);
    /// `VS` lost its last member.
    fn pop(&mut self);
    /// `u` left `VA`.
    fn removed(&mut self, u: u32);
    /// `u` came back to `VA` (undo, LIFO).
    fn restored(&mut self, u: u32);
    /// The axis's frame prune for `|VA| = va_len` and `need = p − |VS|`.
    fn prune(&self, va_len: usize, need: usize) -> bool;
    /// The incumbent payload for `vs`, a complete group.
    fn witness(&self, vs: &[u32]) -> Self::Best;
}

/// SGQ's axis: no temporal dimension. Zero-sized, every hook inlines to
/// nothing.
pub(crate) struct UnitAxis;

impl TemporalAxis for UnitAxis {
    type Ts = ();
    type Best = Vec<u32>;

    #[inline]
    fn root_ts(&self) {}
    #[inline]
    fn first_level(&self) -> u32 {
        0
    }
    #[inline]
    fn next_level(&self, _: u32) -> Option<u32> {
        None
    }
    #[inline]
    fn extend(&self, _: u32, _: usize, _: u32) -> Result<(), bool> {
        Ok(())
    }
    #[inline]
    fn push(&mut self, _: ()) {}
    #[inline]
    fn pop(&mut self) {}
    #[inline]
    fn removed(&mut self, _: u32) {}
    #[inline]
    fn restored(&mut self, _: u32) {}
    #[inline]
    fn prune(&self, _: usize, _: usize) -> bool {
        false
    }
    fn witness(&self, vs: &[u32]) -> Vec<u32> {
        vs.to_vec()
    }
}

/// What every searcher of one solve shares: the candidate space, the
/// query shape, the config, the incumbent and the stop policy.
pub(crate) struct SearchCtx<'a, G, B> {
    pub(crate) fg: &'a G,
    pub(crate) p: usize,
    pub(crate) k: usize,
    pub(crate) cfg: SelectConfig,
    pub(crate) incumbent: &'a Incumbent<B>,
    /// Early-stop policy, polled at frame entry (see [`SolveControl`]).
    pub(crate) control: Option<&'a SolveControl>,
}

impl<G, B> Clone for SearchCtx<'_, G, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<G, B> Copy for SearchCtx<'_, G, B> {}

/// The remaining-vertex set `VA` with incrementally-maintained inner-degree
/// counters and an **undo log**.
///
/// One `VaState` is shared by an entire search: a frame removes candidates
/// in place and the parent rewinds to its [`mark`](Self::mark) when the
/// frame returns, so steady-state descent performs **zero heap
/// allocation**. Undo is LIFO: re-inserting `u` restores exactly the
/// counter increments its removal applied, because any interleaved
/// removals have already been undone by the time `u` is popped.
#[derive(Clone)]
pub(crate) struct VaState {
    /// Membership of `VA` over compact indices.
    pub(crate) set: BitSet,
    /// Membership of `VA` over **access-order positions** — the same set
    /// as `set`, permuted by the candidate space's `order_pos()`. The
    /// expand loop's "next unvisited candidate by distance" and
    /// "minimum-distance member" queries become word-parallel successor
    /// scans on this bitmap instead of per-position membership probes.
    pub(crate) pos_set: BitSet,
    /// `|N_v ∩ VA|` for **every** compact vertex `v` (members of `VS` too —
    /// the exterior expansibility terms need them).
    pub(crate) cnt_in_a: Vec<u32>,
    /// `Σ_{v ∈ VA} |N_v ∩ VA|` — the LHS bulk of Lemma 3.
    pub(crate) total_inner: u64,
    /// Removed vertices, most recent last (rewound by [`undo_last`](Self::undo_last)).
    log: Vec<u32>,
    /// Bumped on every mutation; lets searchers cache VA-derived aggregates.
    pub(crate) version: u64,
}

/// An empty shell; [`fill`](VaState::fill) before use (the pivot-arena
/// recycling path starts from here).
impl Default for VaState {
    fn default() -> Self {
        VaState {
            set: BitSet::new(0),
            pos_set: BitSet::new(0),
            cnt_in_a: Vec::new(),
            total_inner: 0,
            log: Vec::new(),
            version: 0,
        }
    }
}

impl VaState {
    /// `VA = V_F − {q}`, optionally intersected with `mask`.
    pub(crate) fn init<G: CandidateTopology>(fg: &G, mask: Option<&BitSet>) -> Self {
        let mut s = VaState::default();
        s.fill(fg, mask);
        s
    }

    /// (Re)initialise this state in place: membership = `mask` (or all
    /// candidates), counters rebuilt, undo log cleared. Reuses every
    /// buffer whose capacity still fits — the pivot-arena hook.
    pub(crate) fn fill<G: CandidateTopology>(&mut self, fg: &G, mask: Option<&BitSet>) {
        let f = fg.len();
        let order = fg.candidate_order();
        if self.set.capacity() == f {
            self.set.clear();
        } else {
            self.set = BitSet::new(f);
        }
        if self.pos_set.capacity() == order.len() {
            self.pos_set.clear();
        } else {
            self.pos_set = BitSet::new(order.len());
        }
        for (pos, &c) in order.iter().enumerate() {
            if mask.is_none_or(|m| m.contains(c as usize)) {
                self.set.insert(c as usize);
                self.pos_set.insert(pos);
            }
        }
        // Stream the flattened adjacency rows against the membership words
        // — contiguous reads, two popcounts per row on typical graphs.
        self.cnt_in_a.clear();
        self.cnt_in_a.resize(f, 0);
        let (set, cnt_in_a) = (&self.set, &mut self.cnt_in_a);
        for (v, cnt) in cnt_in_a.iter_mut().enumerate() {
            *cnt = fg
                .adj_words(v as u32)
                .iter()
                .zip(set.words())
                .map(|(a, b)| (a & b).count_ones())
                .sum();
        }
        self.total_inner = self.set.iter().map(|v| self.cnt_in_a[v] as u64).sum();
        self.log.clear();
        self.version = 0;
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }

    /// Remove `u` from `VA`, maintaining all counters; logged for undo.
    pub(crate) fn remove<G: CandidateTopology>(&mut self, u: u32, fg: &G) {
        debug_assert!(self.set.contains(u as usize));
        self.total_inner -= 2 * u64::from(self.cnt_in_a[u as usize]);
        self.set.remove(u as usize);
        self.pos_set.remove(fg.order_pos(u) as usize);
        let cnt_in_a = &mut self.cnt_in_a;
        fg.for_each_neighbor(u, |nb| {
            cnt_in_a[nb as usize] -= 1;
        });
        self.log.push(u);
        self.version += 1;
    }

    /// Checkpoint for [`Searcher::undo_to`].
    #[inline]
    pub(crate) fn mark(&self) -> usize {
        self.log.len()
    }

    /// Rewind exactly one removal, returning the re-inserted vertex.
    pub(crate) fn undo_last<G: CandidateTopology>(&mut self, fg: &G) -> u32 {
        let u = self.log.pop().expect("undo_last requires a logged removal");
        let cnt_in_a = &mut self.cnt_in_a;
        fg.for_each_neighbor(u, |nb| {
            cnt_in_a[nb as usize] += 1;
        });
        self.set.insert(u as usize);
        self.pos_set.insert(fg.order_pos(u) as usize);
        // cnt_in_a[u] is already back to its pre-removal value: every
        // neighbor removed after u has been re-inserted first (LIFO).
        self.total_inner += 2 * u64::from(self.cnt_in_a[u as usize]);
        self.version += 1;
        u
    }

    /// `min_{v ∈ VA} |N_v ∩ VA|` (0 for empty `VA`).
    pub(crate) fn min_inner_degree(&self) -> u64 {
        self.set
            .iter()
            .map(|v| u64::from(self.cnt_in_a[v]))
            .min()
            .unwrap_or(0)
    }
}

/// Per-`VS` aggregate caches for the `U`/`A` feasibility conditions.
///
/// With `VS' = VS ∪ {u}` and `VA' = VA − {u}`:
/// for `v ∈ VS`: `miss_v = |VS'| − 1 − |N_v ∩ VS'| = |VS| − cnt_s[v] − adj(v,u)`
/// and the expansibility term is `(cnt_a[v] − adj(v,u)) + (k − miss_v)`;
/// for `u` itself: `miss_u = |VS| − cnt_s[u]`, term `cnt_a[u] + (k − miss_u)`.
///
/// Two algebraic facts replace a per-candidate rescan of `VS`:
///
/// * in the expansibility term the `adj(v,u)` contributions **cancel**
///   (`−adj_vu` from the neighbour count, `+adj_vu` from `−miss_v`), so
///   the `VS` part is `min_v (cnt_a[v] + cnt_s[v]) + k − |VS|` —
///   independent of `u`, cached as `agg_slack_min`, and kept valid
///   *incrementally* across `VA` removals ([`note_va_removal`]);
/// * `max_v miss_v` is either `agg_miss_max` (some maximiser is not
///   adjacent to `u`) or `agg_miss_max − 1` (all are), so one
///   word-parallel subset test against the maximiser set decides it.
///
/// Caches are keyed by `(vs_version, va.version)`, so staleness is
/// impossible by construction.
///
/// [`note_va_removal`]: Self::note_va_removal
pub(crate) struct VsAggregates {
    /// `VS` as a bitset (for word-level `VS ∩ N(u)` queries).
    vs_set: BitSet,
    /// `max_{v ∈ VS} (|VS| − cnt_s[v])`; maintained on push/pop.
    agg_miss_max: i64,
    /// The `VS` members attaining `agg_miss_max`.
    attaining: BitSet,
    /// Cached `min_{v ∈ VS} (cnt_a[v] + cnt_s[v])`, valid for `slack_key`.
    agg_slack_min: i64,
    slack_key: (u64, u64),
    /// Bumped on push/pop, pairs with [`VaState::version`] for cache keys.
    vs_version: u64,
    /// Per-candidate `(key, u_val, a_val)` memo: θ/φ-relaxation passes
    /// re-examine candidates against looser thresholds, and when neither
    /// `VS` nor `VA` mutated in between, `U`/`A` are unchanged.
    uv_cache: Vec<((u64, u64), i64, i64)>,
}

impl VsAggregates {
    pub(crate) fn new(f: usize) -> Self {
        VsAggregates {
            vs_set: BitSet::new(f),
            agg_miss_max: i64::MIN,
            attaining: BitSet::new(f),
            agg_slack_min: i64::MAX,
            slack_key: (u64::MAX, u64::MAX),
            vs_version: 0,
            uv_cache: vec![((u64::MAX, u64::MAX), 0, 0); f],
        }
    }

    /// Record `u` entering `VS` (after `vs`/`cnt_in_s` are updated).
    pub(crate) fn on_push(&mut self, u: u32, vs: &[u32], cnt_in_s: &[u32]) {
        self.vs_set.insert(u as usize);
        self.refresh(vs, cnt_in_s);
    }

    /// Record `u` leaving `VS` (after `vs`/`cnt_in_s` are updated).
    pub(crate) fn on_pop(&mut self, u: u32, vs: &[u32], cnt_in_s: &[u32]) {
        self.vs_set.remove(u as usize);
        self.refresh(vs, cnt_in_s);
    }

    /// Recompute the push/pop-maintained aggregates and invalidate the
    /// VA-dependent ones.
    fn refresh(&mut self, vs: &[u32], cnt_in_s: &[u32]) {
        let vs_len = vs.len() as i64;
        self.agg_miss_max = vs
            .iter()
            .map(|&v| vs_len - i64::from(cnt_in_s[v as usize]))
            .max()
            .unwrap_or(i64::MIN);
        self.attaining.clear();
        for &v in vs {
            if vs_len - i64::from(cnt_in_s[v as usize]) == self.agg_miss_max {
                self.attaining.insert(v as usize);
            }
        }
        self.vs_version += 1;
    }

    /// The current cache key against `va`.
    #[inline]
    pub(crate) fn key(&self, va: &VaState) -> (u64, u64) {
        (self.vs_version, va.version)
    }

    /// Keep `agg_slack_min` exact across the removal of `u` from `VA`
    /// (call *after* the removal, passing the pre-removal [`key`]): a
    /// removal only lowers `cnt_a[v] + cnt_s[v]` for the `VS` members
    /// adjacent to `u`, and a minimum under point-decreases is
    /// `min(old, updated points)` — so folding `VS ∩ N(u)` (a word-level
    /// intersection, usually empty or tiny) avoids the O(|VS|) rescan.
    ///
    /// [`key`]: Self::key
    pub(crate) fn note_va_removal<G: CandidateTopology>(
        &mut self,
        fg: &G,
        u: u32,
        cnt_in_s: &[u32],
        va: &VaState,
        pre_key: (u64, u64),
    ) {
        if self.slack_key == pre_key {
            let adj_u = fg.adj_words(u);
            for (wi, (&vw, &aw)) in self.vs_set.words().iter().zip(adj_u).enumerate() {
                let mut hits = vw & aw;
                while hits != 0 {
                    let v = wi * 64 + hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    let slack = i64::from(va.cnt_in_a[v]) + i64::from(cnt_in_s[v]);
                    self.agg_slack_min = self.agg_slack_min.min(slack);
                }
            }
            self.slack_key = self.key(va);
        }
    }

    /// `U(VS ∪ {u})` and `A(VS ∪ {u})` from the aggregates (see the type
    /// docs for the derivation).
    pub(crate) fn u_and_a<G: CandidateTopology>(
        &mut self,
        fg: &G,
        u: u32,
        k: i64,
        vs: &[u32],
        cnt_in_s: &[u32],
        va: &VaState,
    ) -> (i64, i64) {
        debug_assert!(!vs.is_empty(), "u_and_a requires the initiator in VS");
        let key = self.key(va);
        let cached = &self.uv_cache[u as usize];
        if cached.0 == key {
            return (cached.1, cached.2);
        }
        let vs_len = vs.len() as i64;
        let miss_u = vs_len - i64::from(cnt_in_s[u as usize]);

        if self.slack_key != key {
            self.agg_slack_min = vs
                .iter()
                .map(|&v| i64::from(va.cnt_in_a[v as usize]) + i64::from(cnt_in_s[v as usize]))
                .min()
                .unwrap_or(i64::MAX);
            self.slack_key = key;
        }
        let a_val = (i64::from(va.cnt_in_a[u as usize]) + (k - miss_u))
            .min(self.agg_slack_min + k - vs_len);

        let mut u_val = miss_u.max(self.agg_miss_max - 1);
        if self.agg_miss_max > u_val {
            // Exact only if some maximiser of miss_v is not adjacent to u:
            // one word-parallel subset test on the flattened adjacency.
            let adj_u = fg.adj_words(u);
            let all_adjacent = self
                .attaining
                .words()
                .iter()
                .zip(adj_u)
                .all(|(a, b)| a & !b == 0);
            if !all_adjacent {
                u_val = self.agg_miss_max;
            }
        }
        self.uv_cache[u as usize] = (key, u_val, a_val);
        (u_val, a_val)
    }
}

/// One search over a shared `VA`: one SGSelect run or one STGSelect
/// pivot. The incumbent is shared with every other searcher of the solve
/// (the pivots of one STGQ); the stats are the caller's, so
/// [`SelectConfig::frame_budget`] caps the whole solve, not each pivot.
pub(crate) struct Searcher<'a, G, A: TemporalAxis> {
    fg: &'a G,
    /// The access order `va` runs on: `fg.candidate_order()`.
    order: &'a [u32],
    p: usize,
    k: i64,
    cfg: SelectConfig,
    /// `VS` as a stack of compact indices; `vs[0]` is the initiator.
    vs: Vec<u32>,
    /// `|N_v ∩ VS|` for every compact vertex.
    cnt_in_s: Vec<u32>,
    /// The `U`/`A` aggregate caches (see [`VsAggregates`]).
    agg: VsAggregates,
    pub(crate) axis: A,
    incumbent: &'a Incumbent<A::Best>,
    stats: &'a mut SearchStats,
    control: Option<&'a SolveControl>,
    /// Scratch for the k-plex matching bound (see [`MatchScratch`]).
    match_scratch: MatchScratch,
    /// Per-depth parent-bound admissibility state (see [`ParentFloor`]):
    /// `floors[|VS|]` serves the frame whose member count is `|VS|`,
    /// rebuilt at that frame's entry and maintained across its siblings.
    floors: Vec<ParentFloor>,
}

impl<'a, G: CandidateTopology, A: TemporalAxis> Searcher<'a, G, A> {
    /// A searcher over the candidate space's access order with
    /// `VS = {q}`.
    pub(crate) fn new(ctx: SearchCtx<'a, G, A::Best>, axis: A, stats: &'a mut SearchStats) -> Self {
        let (fg, p) = (ctx.fg, ctx.p);
        let mut s = Searcher {
            fg,
            order: fg.candidate_order(),
            p,
            // k ≥ p−1 makes the acquaintance constraint vacuous (a member
            // has only p−1 co-attendees); clamping keeps the i64 pruning
            // arithmetic overflow-free for absurdly large k.
            k: ctx.k.min(p - 1) as i64,
            cfg: ctx.cfg,
            vs: Vec::with_capacity(p),
            cnt_in_s: vec![0; fg.len()],
            agg: VsAggregates::new(fg.len()),
            axis,
            incumbent: ctx.incumbent,
            stats,
            control: ctx.control,
            match_scratch: MatchScratch::default(),
            floors: Vec::new(),
        };
        let root = s.axis.root_ts();
        s.push(0, root);
        s
    }

    /// Whether the frame with member count `depth` maintains a
    /// [`ParentFloor`] (children are opened only while `|VS| + 1 < p`,
    /// so deeper frames never consult the bound).
    #[inline]
    fn floor_active(&self, depth: usize) -> bool {
        depth + 1 < self.p
    }

    fn push(&mut self, u: u32, ts: A::Ts) {
        let cnt_in_s = &mut self.cnt_in_s;
        self.fg.for_each_neighbor(u, |nb| {
            cnt_in_s[nb as usize] += 1;
        });
        self.vs.push(u);
        self.axis.push(ts);
        self.agg.on_push(u, &self.vs, &self.cnt_in_s);
    }

    fn pop(&mut self, u: u32) {
        let popped = self.vs.pop();
        debug_assert_eq!(popped, Some(u));
        self.axis.pop();
        let cnt_in_s = &mut self.cnt_in_s;
        self.fg.for_each_neighbor(u, |nb| {
            cnt_in_s[nb as usize] -= 1;
        });
        self.agg.on_pop(u, &self.vs, &self.cnt_in_s);
    }

    /// Remove `u` from `VA`, keeping the axis's counters and the slack
    /// aggregate incrementally valid (see
    /// [`VsAggregates::note_va_removal`]).
    fn remove_from_va(&mut self, va: &mut VaState, u: u32) {
        let pre_key = self.agg.key(va);
        va.remove(u, self.fg);
        self.axis.removed(u);
        self.agg
            .note_va_removal(self.fg, u, &self.cnt_in_s, va, pre_key);
    }

    /// A permanent frame-level removal of `u`: out of `VA` and out of the
    /// frame's parent-bound floor.
    fn discard(&mut self, va: &mut VaState, depth: usize, u: u32) {
        self.remove_from_va(va, u);
        if self.floor_active(depth) {
            self.floors[depth].remove(self.fg.order_pos(u) as usize);
        }
    }

    /// Rewind every `VA` removal after `mark` (LIFO), axis counters too.
    fn undo_to(&mut self, va: &mut VaState, mark: usize) {
        while va.mark() > mark {
            let u = va.undo_last(self.fg);
            self.axis.restored(u);
        }
    }

    /// `U(VS ∪ {u})` and `A(VS ∪ {u})` — see [`VsAggregates`] for the
    /// derivation.
    fn u_and_a(&mut self, u: u32, va: &VaState) -> (i64, i64) {
        self.agg
            .u_and_a(self.fg, u, self.k, &self.vs, &self.cnt_in_s, va)
    }

    /// Interior unfamiliarity condition `U ≤ k · (|VS ∪ {u}|/p)^θ`.
    /// At θ = 0 this is exactly the hard acquaintance constraint, and it is
    /// evaluated in integers (no float edge cases on the accept/reject
    /// boundary that matters for correctness).
    fn interior_ok(&self, u_val: i64, theta: u32) -> bool {
        if theta == 0 {
            return u_val <= self.k;
        }
        let ratio = (self.vs.len() + 1) as f64 / self.p as f64;
        (u_val as f64) <= self.k as f64 * ratio.powi(theta as i32) + 1e-9
    }

    /// Lemma 2 against the frame's current `(VS, VA)`: true ⇒ no completion
    /// of `VS` from `VA` beats the incumbent.
    fn distance_prune(&mut self, td: Dist, min_dist: Dist) -> bool {
        if !self.cfg.distance_pruning {
            return false;
        }
        let Some(best) = self.incumbent.dist() else {
            return false;
        };
        let need = (self.p - self.vs.len()) as u64;
        let fires = match best.checked_sub(td) {
            None => true, // td already exceeds the incumbent
            Some(slack) => slack < need * min_dist,
        };
        if fires {
            self.stats.distance_prunes += 1;
        }
        fires
    }

    /// Lemma 3 against the frame's current `(VS, VA)`: true ⇒ `VA` lacks the
    /// internal connectivity for any feasible completion.
    fn acquaintance_prune(&mut self, va: &VaState) -> bool {
        if !self.cfg.acquaintance_pruning {
            return false;
        }
        let need = (self.p - self.vs.len()) as i64;
        let rhs = need * (need - 1 - self.k);
        // The paper's RHS is (p−|VS|)(p−|VS|−k) over vertices extracted from
        // VA; each extracted vertex must be acquainted with at least
        // p−|VS|−1−k of the other extracted vertices (its k quota may be
        // spent inside VS in the worst case is not assumed — the bound
        // counts only VA-internal edges, hence the −1 for the vertex
        // itself). We use the safe bound need·(need−1−k): a vertex among
        // `need` extracted ones has `need−1` others, of which at most k may
        // be strangers.
        if rhs <= 0 {
            return false;
        }
        let na = va.len() as i64;
        let not_extracted = na - need;
        debug_assert!(not_extracted >= 0);
        // Quick no-fire test without the O(|VA|) min-degree scan: the
        // minimum inner degree is at most the average `total_inner / |VA|`,
        // so `lhs ≥ total_inner · need / |VA|`. When that already clears
        // `rhs` the prune cannot fire — the common case by far.
        if va.total_inner as i64 * need >= rhs * na {
            return false;
        }
        let lhs = va.total_inner as i64 - not_extracted * va.min_inner_degree() as i64;
        let fires = lhs < rhs;
        if fires {
            self.stats.acquaintance_prunes += 1;
        }
        fires
    }

    /// The frame-level k-plex bound, two stacked necessary conditions on
    /// any completion of `VS`:
    ///
    /// 1. **Admissible-completion floor** (every call): a candidate already
    ///    missing more than `k` acquaintances against `VS` can join no
    ///    descendant group (its deficit only grows), so fewer than `need`
    ///    admissible candidates kills the frame outright, and the sum of
    ///    the `need` *cheapest admissible* distances is a completion floor
    ///    that strictly dominates Lemma 2's `need · min_dist` — compared
    ///    against the incumbent when `distance_pruning` allows.
    /// 2. **Missing-pair matching bound** (`with_matching` — frame entry
    ///    only): [`match_bound`], a strictly-stronger Lemma 3 against the
    ///    group's aggregate `⌊k·p/2⌋` budget.
    fn kplex_prune(&mut self, va: &VaState, td: Dist, with_matching: bool) -> bool {
        let fires = self.completion_floor_prunes(va, td)
            || (with_matching
                && self.k < (self.p - 1) as i64
                && match_bound(
                    self.fg,
                    &self.vs,
                    &self.cnt_in_s,
                    &va.set,
                    va.len(),
                    self.p,
                    self.k,
                    &mut self.match_scratch,
                ));
        if fires {
            self.stats.frames_pruned_by_match += 1;
        }
        fires
    }

    /// The admissible-completion floor of [`kplex_prune`](Self::kplex_prune).
    fn completion_floor_prunes(&self, va: &VaState, td: Dist) -> bool {
        let best = self.incumbent.dist();
        let vs_len = self.vs.len() as i64;
        let need = self.p - self.vs.len();
        let mut sum: Dist = 0;
        let mut taken = 0usize;
        let mut cursor = 0usize;
        while taken < need {
            let Some(pos) = va.pos_set.next_set_at_or_after(cursor) else {
                break;
            };
            cursor = pos + 1;
            let u = self.order[pos];
            if vs_len - i64::from(self.cnt_in_s[u as usize]) <= self.k {
                sum += self.fg.dist(u);
                taken += 1;
            }
        }
        if taken < need {
            return true;
        }
        match best {
            Some(best) if self.cfg.distance_pruning => match best.checked_sub(td) {
                None => true,
                Some(slack) => slack < sum,
            },
            _ => false,
        }
    }

    /// The axis's frame prune (Lemma 5 for STGQ).
    fn axis_prune(&mut self, va: &VaState) -> bool {
        let fires =
            self.cfg.availability_pruning && self.axis.prune(va.len(), self.p - self.vs.len());
        if fires {
            self.stats.availability_prunes += 1;
        }
        fires
    }

    fn record(&mut self, td: Dist) {
        self.stats.solutions_recorded += 1;
        let (vs, axis) = (&self.vs, &self.axis);
        self.incumbent.offer(td, || axis.witness(vs));
    }

    /// One `ExpandSG` / `ExpandSTG` frame (Algorithms 2 and 4). `va` is
    /// the search's **shared** remaining set: the frame removes
    /// candidates in place and the caller rewinds to its own mark when
    /// this frame returns, so no descent allocates. `td` is
    /// `Σ_{v ∈ VS} d_{v,q}`.
    pub(crate) fn expand(&mut self, va: &mut VaState, td: Dist) {
        // Cooperative stop (cancellation / deadline) rides the same
        // frame-counter path as the anytime budget; once tripped, every
        // in-flight frame returns without opening children. `cancelled`
        // and `truncated` stay distinct provenance.
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
        let mut level = self.axis.first_level();
        // Cursor into `order`: positions before it are "visited" in this
        // frame. Reset when θ (then the axis's level) relaxes, exactly
        // like the pseudo-code's "mark remaining vertices in VA as
        // unvisited". Scans over the access order run on `pos_set` —
        // word-parallel successor queries instead of per-position
        // membership probes.
        let mut cursor = 0usize;
        // The frame-level checks (cardinality, Lemmas 2, 3, the k-plex
        // bound and the axis prune) depend only on (VS, VA, incumbent).
        // The incumbent only moves together with a VA mutation (record →
        // pop → remove), so between mutation-free iterations the checks
        // are provably no-ops and re-running them only on VA-version
        // changes is bit-identical.
        let mut checked_version = u64::MAX;

        loop {
            if va.version != checked_version {
                let entry_check = checked_version == u64::MAX;
                checked_version = va.version;
                if self.vs.len() + va.len() < self.p {
                    return;
                }
                let min_pos = va.pos_set.first().expect("VA non-empty here");
                let min_dist = self.fg.dist(order[min_pos]);
                if self.distance_prune(td, min_dist)
                    || self.acquaintance_prune(va)
                    || self.kplex_prune(va, td, entry_check)
                    || self.axis_prune(va)
                {
                    return;
                }
            }

            // Access ordering: next unvisited vertex of VA by distance.
            let u = if let Some(pos) = va.pos_set.next_set_at_or_after(cursor) {
                cursor = pos + 1;
                order[pos]
            } else if theta > 0 {
                theta -= 1;
                cursor = 0;
                continue;
            } else if let Some(next) = self.axis.next_level(level) {
                level = next;
                cursor = 0;
                continue;
            } else {
                return;
            };
            self.stats.candidates_examined += 1;

            let (u_val, a_val) = self.u_and_a(u, va);
            if a_val < (self.p - self.vs.len() - 1) as i64 {
                // Lemma 1: VS ∪ {u} is not expansible — u is useless here.
                self.stats.exterior_rejections += 1;
                self.discard(va, depth, u);
                continue;
            }
            if !self.interior_ok(u_val, theta) {
                self.stats.interior_rejections += 1;
                if theta == 0 {
                    // U(VS ∪ {u}) > k: u can never join this VS.
                    self.discard(va, depth, u);
                }
                continue;
            }
            let ts = match self.axis.extend(u, self.vs.len(), level) {
                Ok(ts) => ts,
                Err(permanent) => {
                    self.stats.temporal_rejections += 1;
                    if permanent {
                        self.discard(va, depth, u);
                    }
                    continue;
                }
            };

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
                    &va.pos_set,
                    order,
                    self.p,
                    self.k,
                    new_td,
                    self.incumbent.dist(),
                    self.cfg.distance_pruning,
                )
            {
                self.stats.children_pruned_by_parent_bound += 1;
                self.discard(va, depth, u);
                continue;
            }
            self.push(u, ts);
            if self.vs.len() == self.p {
                self.record(new_td);
                self.pop(u);
                // Access ordering makes this the cheapest completion of this
                // frame: any sibling has d ≥ d_u, so stop (pseudo-code BREAK).
                return;
            }
            // Descend with u extracted; the child frame's removals are
            // rewound wholesale when it returns.
            let frame_mark = va.mark();
            self.remove_from_va(va, u);
            self.stats.vertices_expanded += 1;
            self.expand(va, new_td);
            self.undo_to(va, frame_mark);
            self.pop(u);
            // The branch containing u is fully explored. (The pre-descend
            // removal above was rewound by the undo, so only this one is
            // mirrored into the floor.)
            self.discard(va, depth, u);
        }
    }
}
