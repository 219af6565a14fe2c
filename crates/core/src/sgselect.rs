//! Algorithm **SGSelect** (§3.2): exact branch-and-bound for SGQ.
//!
//! The search explores the feasible graph `G_F` frame by frame. Each frame
//! owns the intermediate solution `VS` (shared push/pop stack), a local copy
//! of the remaining set `VA`, and iterates candidates in ascending social
//! distance (*access ordering*). A candidate `u` must pass:
//!
//! * the **exterior expansibility** condition
//!   `A(VS ∪ {u}) ≥ p − |VS ∪ {u}|` (Definition 3, Lemma 1) — otherwise `u`
//!   can never be part of a feasible completion and is dropped from `VA`;
//! * the **interior unfamiliarity** condition
//!   `U(VS ∪ {u}) ≤ k · (|VS ∪ {u}|/p)^θ` (Definition 2) — a soft ordering
//!   condition: failures are retried after θ decays, and only removed at
//!   `θ = 0` (where the condition degenerates to the hard acquaintance
//!   constraint `U ≤ k`).
//!
//! Frames are abandoned wholesale by **distance pruning** (Lemma 2) and
//! **acquaintance pruning** (Lemma 3), both evaluated against the frame's
//! current `(VS, VA)` — each bounds *every* completion of `VS` from `VA`,
//! so abandoning the frame is sound and Theorem 2's optimality holds.

use stgq_graph::{BitSet, CandidateTopology, Dist, FeasibleGraph, NodeId, SocialGraph};

use crate::incumbent::Incumbent;
use crate::reduce::{kplex_frame_prune, sgq_peel_preamble, MatchScratch, ParentFloor};
use crate::{
    QueryError, SearchStats, SelectConfig, SgqOutcome, SgqQuery, SgqSolution, SolveControl,
};

/// Solve an SGQ with SGSelect, returning the optimal group (or `None` when
/// the query is infeasible) together with search statistics.
pub fn solve_sgq(
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
    Ok(solve_sgq_on(&fg, query, cfg, None))
}

/// Solve an SGQ on an already-extracted candidate space (a materialized
/// [`FeasibleGraph`] or a zero-copy
/// [`FeasibleView`](stgq_graph::FeasibleView) — any [`CandidateTopology`]).
///
/// `candidate_mask`, when given, restricts `VA` to the compact indices it
/// contains (the initiator's membership is implied). This is the hook the
/// STGQ engines use: per activity period, only the attendees available
/// throughout the period are candidates.
pub fn solve_sgq_on<G: CandidateTopology>(
    fg: &G,
    query: &SgqQuery,
    cfg: &SelectConfig,
    candidate_mask: Option<&BitSet>,
) -> SgqOutcome {
    solve_sgq_controlled_on(fg, query, cfg, candidate_mask, None)
}

/// As [`solve_sgq_on`], with an optional [`SolveControl`] (cooperative
/// cancellation / deadline) polled on the frame-counter path. A stopped
/// solve returns the incumbent found so far with
/// [`SearchStats::cancelled`] set; `control: None` is byte-for-byte
/// [`solve_sgq_on`].
///
/// [`SearchStats::cancelled`]: crate::SearchStats::cancelled
pub fn solve_sgq_controlled_on<G: CandidateTopology>(
    fg: &G,
    query: &SgqQuery,
    cfg: &SelectConfig,
    candidate_mask: Option<&BitSet>,
    control: Option<&SolveControl>,
) -> SgqOutcome {
    let p = query.p();
    if p == 1 {
        // The group is just the initiator; every constraint holds trivially.
        return SgqOutcome {
            solution: Some(SgqSolution {
                members: vec![fg.origin(0)],
                total_distance: 0,
            }),
            stats: SearchStats::default(),
        };
    }

    // Fixpoint (p, k)-core peel of the candidate set: the SGQ analog of
    // the STGQ pivot peel, run once per solve. Peeled candidates can belong
    // to no feasible group, so dropping them from `VA` (not just from a
    // floor) is exact; a core below `p` — or an initiator short of
    // `p − 1 − k` acquaintances within it — proves the query infeasible
    // outright.
    let (peeled_candidates, peeled_set) = match sgq_peel_preamble(fg, p, query.k(), candidate_mask)
    {
        Ok(kept) => kept,
        Err(refused) => return *refused,
    };
    let candidate_mask = peeled_set.as_ref().or(candidate_mask);

    let incumbent = Incumbent::new();
    // Incumbent seeding: a feasible solution switches Lemma-2 distance
    // pruning on from the very first frame, and a non-optimal bound never
    // cuts a strictly better solution. Sequentially, the access-ordered
    // descent finds its own first completion within ~p frames, so a full
    // greedy run rarely pays here (the parallel solver, whose workers all
    // start simultaneously, does run one) — only the near-free first-fit
    // probe (the initiator plus her p − 1 nearest candidates, also the
    // instance's distance floor) runs ahead of it.
    if cfg.seed_restarts > 0 {
        if let Some((members, dist)) =
            crate::heuristics::first_fit_sgq_seed(fg, p, query.k(), candidate_mask)
        {
            incumbent.offer(dist, || members);
        }
    }
    let mut searcher = Searcher::new(fg, p, query.k(), cfg, &incumbent);
    searcher.control = control.filter(|c| !c.is_noop());
    searcher.stats.peeled_candidates = peeled_candidates;
    let mut va = VaState::init(fg, candidate_mask);
    searcher.push(0);
    searcher.expand(&mut va, 0);
    let stats = searcher.stats;

    let solution = incumbent
        .into_best()
        .map(|(total_distance, group)| SgqSolution {
            members: fg.to_origin_group(group),
            total_distance,
        });
    SgqOutcome { solution, stats }
}

/// The remaining-vertex set `VA` with incrementally-maintained inner-degree
/// counters and an **undo log**.
///
/// One `VaState` is shared by an entire search: a frame removes candidates
/// in place and the parent rewinds to its [`mark`](Self::mark) when the
/// frame returns, so steady-state descent performs **zero heap
/// allocation** (the old design cloned the whole state per frame). Undo
/// is LIFO: re-inserting `u` restores exactly the counter increments its
/// removal applied, because any interleaved removals have already been
/// undone by the time `u` is popped.
#[derive(Clone)]
pub(crate) struct VaState {
    /// Membership of `VA` over compact indices.
    pub(crate) set: BitSet,
    /// Membership of `VA` over **access-order positions** — the same set
    /// as `set`, permuted by [`order_pos`](Self::order_pos). The expand
    /// loop's "next unvisited candidate by distance" and
    /// "minimum-distance member" queries become word-parallel successor
    /// scans on this bitmap instead of per-position membership probes.
    pub(crate) pos_set: BitSet,
    /// Position of each compact candidate in the access order this state
    /// runs on — `fg.candidate_order()` for SGQ, the pivot job's
    /// availability-tie-broken permutation for STGQ (`u32::MAX` for the
    /// initiator). Owned so one `VaState` can serve per-pivot orders.
    pub(crate) order_pos: Vec<u32>,
    /// `|N_v ∩ VA|` for **every** compact vertex `v` (members of `VS` too —
    /// the exterior expansibility terms need them).
    pub(crate) cnt_in_a: Vec<u32>,
    /// `Σ_{v ∈ VA} |N_v ∩ VA|` — the LHS bulk of Lemma 3.
    pub(crate) total_inner: u64,
    /// Removed vertices, most recent last (rewound by [`undo_to`](Self::undo_to)).
    pub(crate) log: Vec<u32>,
    /// Bumped on every mutation; lets searchers cache VA-derived aggregates.
    pub(crate) version: u64,
}

impl VaState {
    /// `VA = V_F − {q}`, optionally intersected with `mask`, over the
    /// graph's global access order.
    pub(crate) fn init<G: CandidateTopology>(fg: &G, mask: Option<&BitSet>) -> Self {
        let mut s = VaState::init_empty();
        s.fill(fg, mask, fg.candidate_order());
        s
    }

    /// An empty shell; [`fill`](Self::fill) before use (the pivot-arena
    /// recycling path starts from here).
    pub(crate) fn init_empty() -> Self {
        VaState {
            set: BitSet::new(0),
            pos_set: BitSet::new(0),
            order_pos: Vec::new(),
            cnt_in_a: Vec::new(),
            total_inner: 0,
            log: Vec::new(),
            version: 0,
        }
    }

    /// (Re)initialise this state in place for the given access `order`
    /// (a permutation of `fg.candidate_order()`): membership = `mask`
    /// (or all candidates), counters rebuilt, undo log cleared. Reuses
    /// every buffer whose capacity still fits — the pivot-arena hook.
    pub(crate) fn fill<G: CandidateTopology>(
        &mut self,
        fg: &G,
        mask: Option<&BitSet>,
        order: &[u32],
    ) {
        let f = fg.len();
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
        self.order_pos.clear();
        self.order_pos.resize(f, u32::MAX);
        for (pos, &c) in order.iter().enumerate() {
            self.order_pos[c as usize] = pos as u32;
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
        self.pos_set.remove(self.order_pos[u as usize] as usize);
        let cnt_in_a = &mut self.cnt_in_a;
        fg.for_each_neighbor(u, |nb| {
            cnt_in_a[nb as usize] -= 1;
        });
        self.log.push(u);
        self.version += 1;
    }

    /// Checkpoint for [`undo_to`](Self::undo_to).
    #[inline]
    pub(crate) fn mark(&self) -> usize {
        self.log.len()
    }

    /// Rewind every removal after `mark` (LIFO).
    pub(crate) fn undo_to<G: CandidateTopology>(&mut self, mark: usize, fg: &G) {
        while self.log.len() > mark {
            self.undo_last(fg);
        }
    }

    /// Rewind exactly one removal, returning the re-inserted vertex.
    pub(crate) fn undo_last<G: CandidateTopology>(&mut self, fg: &G) -> u32 {
        let u = self.log.pop().expect("undo_last requires a logged removal");
        let cnt_in_a = &mut self.cnt_in_a;
        fg.for_each_neighbor(u, |nb| {
            cnt_in_a[nb as usize] += 1;
        });
        self.set.insert(u as usize);
        self.pos_set.insert(self.order_pos[u as usize] as usize);
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

/// Per-`VS` aggregate caches for the `U`/`A` feasibility conditions,
/// shared by SGSelect's and STGSelect's searchers (the STGQ engine passes
/// its `StVaState`'s base [`VaState`]).
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

/// Shared state of one SGSelect run (or of one worker's subtree in the
/// parallel solver — the incumbent reference is what they share).
pub(crate) struct Searcher<'a, G> {
    fg: &'a G,
    p: usize,
    k: i64,
    cfg: SelectConfig,
    /// `VS` as a stack of compact indices; `vs[0]` is the initiator.
    pub(crate) vs: Vec<u32>,
    /// `|N_v ∩ VS|` for every compact vertex.
    cnt_in_s: Vec<u32>,
    /// The shared `U`/`A` aggregate caches (see [`VsAggregates`]).
    agg: VsAggregates,
    incumbent: &'a Incumbent<Vec<u32>>,
    pub(crate) stats: SearchStats,
    /// Early-stop policy, polled at frame entry (see [`SolveControl`]).
    pub(crate) control: Option<&'a SolveControl>,
    /// Scratch for the k-plex matching bound (see [`MatchScratch`]).
    match_scratch: MatchScratch,
    /// Per-depth parent-bound admissibility state (see [`ParentFloor`]):
    /// `floors[|VS|]` serves the frame whose member count is `|VS|`,
    /// rebuilt at that frame's entry and maintained across its siblings.
    floors: Vec<ParentFloor>,
}

impl<'a, G: CandidateTopology> Searcher<'a, G> {
    pub(crate) fn new(
        fg: &'a G,
        p: usize,
        k: usize,
        cfg: &SelectConfig,
        incumbent: &'a Incumbent<Vec<u32>>,
    ) -> Self {
        Searcher {
            fg,
            p,
            // k ≥ p−1 makes the acquaintance constraint vacuous (a member
            // has only p−1 co-attendees); clamping keeps the i64 pruning
            // arithmetic overflow-free for absurdly large k.
            k: k.min(p - 1) as i64,
            cfg: *cfg,
            vs: Vec::with_capacity(p),
            cnt_in_s: vec![0; fg.len()],
            agg: VsAggregates::new(fg.len()),
            incumbent,
            stats: SearchStats::default(),
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
    fn floor_remove(&mut self, depth: usize, va: &VaState, u: u32) {
        if self.floor_active(depth) {
            self.floors[depth].remove(va.order_pos[u as usize] as usize);
        }
    }

    pub(crate) fn push(&mut self, u: u32) {
        let cnt_in_s = &mut self.cnt_in_s;
        self.fg.for_each_neighbor(u, |nb| {
            cnt_in_s[nb as usize] += 1;
        });
        self.vs.push(u);
        self.agg.on_push(u, &self.vs, &self.cnt_in_s);
    }

    fn pop(&mut self, u: u32) {
        let popped = self.vs.pop();
        debug_assert_eq!(popped, Some(u));
        let cnt_in_s = &mut self.cnt_in_s;
        self.fg.for_each_neighbor(u, |nb| {
            cnt_in_s[nb as usize] -= 1;
        });
        self.agg.on_pop(u, &self.vs, &self.cnt_in_s);
    }

    /// Remove `u` from `VA`, keeping the slack aggregate incrementally
    /// valid (see [`VsAggregates::note_va_removal`]).
    fn remove_from_va(&mut self, va: &mut VaState, u: u32) {
        let pre_key = self.agg.key(va);
        va.remove(u, self.fg);
        self.agg
            .note_va_removal(self.fg, u, &self.cnt_in_s, va, pre_key);
    }

    /// `U(VS ∪ {u})` and `A(VS ∪ {u})` — see [`VsAggregates`] for the
    /// derivation.
    pub(crate) fn u_and_a(&mut self, u: u32, va: &VaState) -> (i64, i64) {
        self.agg
            .u_and_a(self.fg, u, self.k, &self.vs, &self.cnt_in_s, va)
    }

    /// Hard feasibility of pushing `u` onto the current `VS`: the interior
    /// unfamiliarity condition at θ = 0 (exactly the acquaintance
    /// constraint) plus Lemma 1's expansibility requirement. The parallel
    /// solver uses this to vet each forced root before searching its
    /// subtree.
    pub(crate) fn hard_feasible(&self, u_val: i64, a_val: i64) -> bool {
        u_val <= self.k && a_val >= (self.p - self.vs.len() - 1) as i64
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

    /// The frame-level k-plex bound: the admissible-completion floor on
    /// every re-check, the missing-pair matching bound at frame entry —
    /// see [`crate::reduce::kplex_frame_prune`] for the shared machinery.
    fn kplex_prune(&mut self, va: &VaState, td: Dist, with_matching: bool) -> bool {
        let fires = kplex_frame_prune(
            self.fg,
            &self.vs,
            &self.cnt_in_s,
            &va.pos_set,
            self.fg.candidate_order(),
            &va.set,
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

    pub(crate) fn record(&mut self, td: Dist) {
        self.stats.solutions_recorded += 1;
        let vs = &self.vs;
        self.incumbent.offer(td, || vs.clone());
    }

    /// One `ExpandSG` frame (Algorithm 2). `va` is the search's **shared**
    /// remaining set: the frame removes candidates in place and the caller
    /// rewinds to its own mark when this frame returns, so no descent
    /// allocates. `td` is `Σ_{v ∈ VS} d_{v,q}`.
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
        let order = self.fg.candidate_order();
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
        // Cursor into `order`: positions before it are "visited" in this
        // frame. Reset when θ decays, exactly like the pseudo-code's
        // "mark remaining vertices in VA as unvisited". Scans over the
        // access order run on `pos_set` — word-parallel successor queries
        // instead of per-position membership probes.
        let mut cursor = 0usize;
        // The frame-level checks (cardinality, Lemma 2, Lemma 3) depend
        // only on (VS, VA, incumbent). Sequentially the incumbent only
        // moves together with a VA mutation (record → pop → remove), so
        // between mutation-free iterations the checks are provably no-ops
        // and re-running them only on VA-version changes is bit-identical.
        // Under the parallel solvers another thread may improve the shared
        // incumbent inside that window; the deferred Lemma-2 check then
        // fires one mutation later — weaker pruning for a bounded moment,
        // never unsound (pruning is optional for correctness).
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
                if self.distance_prune(td, min_dist) {
                    return;
                }
                if self.acquaintance_prune(va) {
                    return;
                }
                if self.kplex_prune(va, td, entry_check) {
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
            } else {
                return;
            };
            self.stats.candidates_examined += 1;

            let (u_val, a_val) = self.u_and_a(u, va);
            if a_val < (self.p - self.vs.len() - 1) as i64 {
                // Lemma 1: VS ∪ {u} is not expansible — u is useless here.
                self.stats.exterior_rejections += 1;
                self.remove_from_va(va, u);
                self.floor_remove(depth, va, u);
                continue;
            }
            if !self.interior_ok(u_val, theta) {
                self.stats.interior_rejections += 1;
                if theta == 0 {
                    // U(VS ∪ {u}) > k: u can never join this VS.
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
                self.remove_from_va(va, u);
                self.floor_remove(depth, va, u);
                continue;
            }
            self.push(u);
            if self.vs.len() == self.p {
                self.record(new_td);
                self.pop(u);
                // Access ordering makes this the cheapest completion of this
                // frame: any sibling has d ≥ d_u, so stop (pseudo-code BREAK).
                return;
            }
            // Descend with u extracted; the child frame's removals are
            // rewound wholesale when it returns (what used to be a clone).
            let frame_mark = va.mark();
            self.remove_from_va(va, u);
            self.stats.vertices_expanded += 1;
            self.expand(va, new_td);
            va.undo_to(frame_mark, self.fg);
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

    /// The Figure-3 graph of the paper's Example 2 (weights as listed in
    /// Fig. 3(b); candidate-candidate weights are immaterial at s = 1).
    ///
    /// Adjacency reconstructed from the worked example:
    /// v7 (initiator) — v2, v3, v4, v6, v8; v2—v4, v2—v6, v3—v4, v4—v6.
    pub(crate) fn example2_graph() -> (SocialGraph, NodeId) {
        // indices: 0 unused spacer? Keep natural ids v2..v8 → 2..8 over 9 slots.
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
    fn example2_optimal_group() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let out = solve_sgq(&g, q, &query, &SelectConfig::default()).unwrap();
        let sol = out.solution.expect("example 2 is feasible");
        assert_eq!(
            sol.total_distance, 62,
            "paper: optimal {{v2,v3,v4,v7}} = 62"
        );
        assert_eq!(
            sol.members,
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(7)]
        );
    }

    #[test]
    fn example2_with_k_zero_forces_clique() {
        let (g, q) = example2_graph();
        // k=0 demands a clique containing v7: {v2,v4,v6,v7}? v2-v4 ✓ v2-v6 ✓
        // v4-v6 ✓ and v7 adj all ✓ → distance 17+27+23 = 67.
        let query = SgqQuery::new(4, 1, 0).unwrap();
        let sol = solve_sgq(&g, q, &query, &SelectConfig::default())
            .unwrap()
            .solution
            .expect("clique exists");
        assert_eq!(
            sol.members,
            vec![NodeId(2), NodeId(4), NodeId(6), NodeId(7)]
        );
        assert_eq!(sol.total_distance, 67);
    }

    #[test]
    fn infeasible_when_p_exceeds_reachable() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(8, 1, 7).unwrap(); // only 6 reachable (incl. q)
        let out = solve_sgq(&g, q, &query, &SelectConfig::default()).unwrap();
        assert!(out.solution.is_none());
    }

    #[test]
    fn p_one_returns_singleton_initiator() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(1, 1, 0).unwrap();
        let sol = solve_sgq(&g, q, &query, &SelectConfig::default())
            .unwrap()
            .solution
            .unwrap();
        assert_eq!(sol.members, vec![q]);
        assert_eq!(sol.total_distance, 0);
    }

    #[test]
    fn p_two_picks_closest_friend() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(2, 1, 1).unwrap();
        let sol = solve_sgq(&g, q, &query, &SelectConfig::default())
            .unwrap()
            .solution
            .unwrap();
        assert_eq!(sol.members, vec![NodeId(2), NodeId(7)]);
        assert_eq!(sol.total_distance, 17);
    }

    #[test]
    fn initiator_out_of_range_is_an_error() {
        let (g, _) = example2_graph();
        let query = SgqQuery::new(2, 1, 1).unwrap();
        let err = solve_sgq(&g, NodeId(99), &query, &SelectConfig::default()).unwrap_err();
        assert!(matches!(err, QueryError::InitiatorOutOfRange { .. }));
    }

    #[test]
    fn mask_restricts_candidates() {
        let (g, q) = example2_graph();
        let fg = FeasibleGraph::extract(&g, q, 1);
        let query = SgqQuery::new(2, 1, 1).unwrap();
        // Mask out v2 (the closest): best becomes v3 at 18.
        let mut mask = BitSet::full(fg.len());
        mask.remove(fg.compact(NodeId(2)).unwrap() as usize);
        let out = solve_sgq_on(&fg, &query, &SelectConfig::default(), Some(&mask));
        let sol = out.solution.unwrap();
        assert_eq!(sol.members, vec![NodeId(3), NodeId(7)]);
        assert_eq!(sol.total_distance, 18);
    }

    #[test]
    fn theta_zero_config_still_optimal() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let a = solve_sgq(&g, q, &query, &SelectConfig::default())
            .unwrap()
            .solution;
        let b = solve_sgq(&g, q, &query, &SelectConfig::RELAXED)
            .unwrap()
            .solution;
        assert_eq!(
            a.as_ref().map(|s| s.total_distance),
            b.as_ref().map(|s| s.total_distance),
            "θ only affects ordering, never the optimum"
        );
    }

    #[test]
    fn stats_reflect_search_effort() {
        let (g, q) = example2_graph();
        let query = SgqQuery::new(4, 1, 1).unwrap();
        let out = solve_sgq(&g, q, &query, &SelectConfig::default()).unwrap();
        assert!(out.stats.frames >= 1);
        assert!(out.stats.candidates_examined > 0);
        assert!(out.stats.solutions_recorded >= 1);
    }

    #[test]
    fn va_state_counters_stay_consistent() {
        let (g, q) = example2_graph();
        let fg = FeasibleGraph::extract(&g, q, 1);
        let mut va = VaState::init(&fg, None);
        let naive_total = |va: &VaState| -> u64 {
            va.set
                .iter()
                .map(|v| fg.adj(v as u32).intersection_len(&va.set) as u64)
                .sum()
        };
        assert_eq!(va.total_inner, naive_total(&va));
        let members: Vec<u32> = va.set.iter().map(|v| v as u32).collect();
        for u in members {
            va.remove(u, &fg);
            assert_eq!(va.total_inner, naive_total(&va), "after removing {u}");
            for v in va.set.iter() {
                assert_eq!(
                    u64::from(va.cnt_in_a[v]),
                    fg.adj(v as u32).intersection_len(&va.set) as u64
                );
            }
        }
    }

    /// Random remove/rewind sequences restore the state bit-for-bit and
    /// keep every counter consistent at each step — the invariant the
    /// zero-allocation (undo-log) descent rests on.
    #[test]
    fn va_state_undo_log_restores_exactly() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 16;
            let mut b = GraphBuilder::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.4) {
                        b.add_edge(NodeId(u as u32), NodeId(v as u32), 1 + u as u64 + v as u64)
                            .unwrap();
                    }
                }
            }
            let g = b.build();
            let fg = FeasibleGraph::extract(&g, NodeId(0), 3);
            let mut va = VaState::init(&fg, None);
            let snapshot = va.clone();
            let naive_total = |va: &VaState| -> u64 {
                va.set
                    .iter()
                    .map(|v| fg.adj(v as u32).intersection_len(&va.set) as u64)
                    .sum()
            };

            // Nested mark/remove/undo rounds, like a search descent.
            for _ in 0..4 {
                let outer = va.mark();
                let present: Vec<u32> = va.set.iter().map(|v| v as u32).collect();
                for &u in present.iter().take(rng.gen_range(0..=present.len())) {
                    va.remove(u, &fg);
                    let inner = va.mark();
                    // An inner "frame" removes a few more and rewinds.
                    let rest: Vec<u32> = va.set.iter().map(|v| v as u32).collect();
                    for &w in rest.iter().take(rng.gen_range(0..=rest.len().min(3))) {
                        va.remove(w, &fg);
                    }
                    va.undo_to(inner, &fg);
                    assert_eq!(va.total_inner, naive_total(&va), "seed {seed}");
                }
                va.undo_to(outer, &fg);
                assert_eq!(va.set, snapshot.set, "seed {seed}");
                assert_eq!(va.cnt_in_a, snapshot.cnt_in_a, "seed {seed}");
                assert_eq!(va.total_inner, snapshot.total_inner, "seed {seed}");
            }
        }
    }
}
