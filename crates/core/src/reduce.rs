//! Candidate-space reduction: fixpoint (p, k)-core peeling and the
//! k-plex matching bound.
//!
//! Both pieces exploit the same structural fact: a feasible group is a
//! **k-plex** of size `p` (every member is acquainted with at least
//! `p − 1 − k` of the others), so candidate sets can be shrunk — and
//! frames refuted — by degree arguments alone, before any distance or
//! temporal reasoning runs.
//!
//! * [`peel_to_core`] iterates the eligible-degree filter to a fixpoint:
//!   removing a low-degree vertex lowers its neighbors' eligible degrees,
//!   which may push *them* below the threshold. A one-pass degree
//!   filter never propagates, which is why it rarely excludes anyone on
//!   dense community graphs; the fixpoint eats whole fringe structures
//!   (chains, fans, stars) whose interior vertices look well-connected
//!   until their support is peeled away.
//! * [`match_bound`] lower-bounds the missing (non-acquainted) pairs any
//!   size-`p` completion of the current frame must absorb. Its three
//!   terms count disjoint pair sets — inside `VS`, between `VS` and the
//!   completion, and inside the completion (via a greedy matching over
//!   missing pairs among the remaining candidates) — so their sum is a
//!   valid lower bound against the aggregate budget `⌊k·p/2⌋` implied by
//!   the per-member constraint.
//!
//! Everything here is a *necessary* feasibility condition: no feasible
//! group is ever excluded, so the exact engines stay exact (the
//! reference oracle equivalence is property-tested in
//! `tests/search_reduction.rs`).

use stgq_graph::{BitSet, CandidateTopology, Dist};

use crate::{SearchStats, SgqOutcome};

/// The (p, k)-core degree threshold `p − 1 − k` for fixpoint peeling, or
/// `None` when peeling is vacuous (`k ≥ p − 1` puts no lower bound on
/// in-group acquaintances, and `p < 2` never peels).
pub(crate) fn peel_min_deg(p: usize, k: usize) -> Option<usize> {
    (p >= 2 && p - 1 > k).then(|| p - 1 - k)
}

/// Peel `set` (compact candidate indices — never the initiator, compact
/// `0`) to the fixpoint where every surviving member has at least
/// `min_deg` acquaintances among the survivors **plus the initiator**.
/// Returns the number of vertices peeled; `deg`/`queue` are caller
/// scratch (cleared and refilled here).
///
/// Soundness: every feasible group is drawn from `set ∪ {initiator}`
/// and gives each member at most its degree within that set as in-group
/// acquaintances. A vertex below `min_deg = p − 1 − k` therefore cannot
/// satisfy the acquaintance constraint in *any* group over the current
/// set — and once it is gone, the same argument applies to the shrunken
/// set, so iterating to the fixpoint removes only provably impossible
/// members (the classic k-core argument).
pub(crate) fn peel_to_core<G: CandidateTopology>(
    fg: &G,
    set: &mut BitSet,
    min_deg: usize,
    deg: &mut Vec<u32>,
    queue: &mut Vec<u32>,
) -> u64 {
    let f = fg.len();
    let min_deg = min_deg as u32;
    deg.clear();
    deg.resize(f, 0);
    queue.clear();
    // Initial eligible degrees: one word-parallel popcount per member
    // against the membership words, plus the initiator adjacency bit.
    for c in set.iter() {
        deg[c] =
            (fg.row_intersection_len(c as u32, set) + usize::from(fg.adjacent(c as u32, 0))) as u32;
        if deg[c] < min_deg {
            queue.push(c as u32);
        }
    }
    for &c in queue.iter() {
        set.remove(c as usize);
    }
    // Cascade: each removal decrements its surviving neighbors' degrees;
    // a neighbor crossing the threshold is removed (and queued) at most
    // once, so the whole fixpoint is O(Σ degree) beyond the init pass.
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        fg.for_each_neighbor(u, |nb| {
            if set.contains(nb as usize) {
                deg[nb as usize] -= 1;
                if deg[nb as usize] < min_deg {
                    set.remove(nb as usize);
                    queue.push(nb);
                }
            }
        });
    }
    queue.len() as u64
}

/// Whether the initiator herself survives against the peeled `core`: she
/// is in every group, so she too needs `min_deg = p − 1 − k`
/// acquaintances among the only people who may join her.
pub(crate) fn initiator_core_ok<G: CandidateTopology>(
    fg: &G,
    core: &BitSet,
    min_deg: usize,
) -> bool {
    fg.row_intersection_len(0, core) >= min_deg
}

/// The SGQ engines' once-per-solve peel preamble: reduce the candidate
/// set (the given `mask`, or all candidates) to its (p, k)-core.
/// Returns `Ok((peeled count, replacement mask))` when a feasible group
/// may still exist — the mask is `Some(core)` when the peel ran, `None`
/// when it is vacuous — or `Err(outcome)` when the query is
/// **refused** outright (the core leaves fewer than `p` people, or
/// leaves the initiator short of `p − 1 − k` acquaintances), carrying
/// the complete infeasible outcome for the caller to return. Shared by
/// the sequential and parallel SGQ solvers so the two cannot diverge.
pub(crate) fn sgq_peel_preamble<G: CandidateTopology>(
    fg: &G,
    p: usize,
    k: usize,
    mask: Option<&BitSet>,
) -> Result<(u64, Option<BitSet>), Box<SgqOutcome>> {
    let Some(min_deg) = peel_min_deg(p, k) else {
        return Ok((0, None));
    };
    let mut set = match mask {
        Some(mask) => {
            debug_assert_eq!(mask.capacity(), fg.len());
            let mut s = mask.clone();
            s.remove(0);
            s
        }
        None => {
            let mut s = BitSet::new(fg.len());
            for &c in fg.candidate_order() {
                s.insert(c as usize);
            }
            s
        }
    };
    let peeled = peel_to_core(fg, &mut set, min_deg, &mut Vec::new(), &mut Vec::new());
    if set.len() + 1 < p || !initiator_core_ok(fg, &set, min_deg) {
        Err(Box::new(SgqOutcome {
            solution: None,
            stats: SearchStats {
                peeled_candidates: peeled,
                ..SearchStats::default()
            },
        }))
    } else {
        Ok((peeled, Some(set)))
    }
}

/// The frame-level k-plex bound shared verbatim by SGSelect's and
/// STGSelect's searchers (which differ only in where their access order
/// and `VA` bitsets live), two stacked necessary conditions on any
/// completion of `VS`:
///
/// 1. **Admissible-completion floor** (every call): a candidate already
///    missing more than `k` acquaintances against `VS` can join no
///    descendant group (its deficit only grows), so fewer than `need`
///    admissible candidates kills the frame outright, and the sum of
///    the `need` *cheapest admissible* distances is a completion floor
///    that strictly dominates Lemma 2's `need · min_dist` — compared
///    against the incumbent when `distance_pruning` allows.
/// 2. **Missing-pair matching bound** (`with_matching` — callers pass
///    it at frame entry only): [`match_bound`], a strictly-stronger
///    Lemma 3 against the group's aggregate `⌊k·p/2⌋` budget.
///
/// `pos_set` mirrors `va_set` over positions of `order`
/// (distance-ascending), `best` is the incumbent objective, and `k` is
/// already clamped to `p − 1`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn kplex_frame_prune<G: CandidateTopology>(
    fg: &G,
    vs: &[u32],
    cnt_in_s: &[u32],
    pos_set: &BitSet,
    order: &[u32],
    va_set: &BitSet,
    va_len: usize,
    p: usize,
    k: i64,
    td: Dist,
    best: Option<Dist>,
    distance_pruning: bool,
    with_matching: bool,
    scratch: &mut MatchScratch,
) -> bool {
    let vs_len = vs.len() as i64;
    let need = p - vs.len();
    let mut sum: Dist = 0;
    let mut taken = 0usize;
    let mut cursor = 0usize;
    while taken < need {
        let Some(pos) = pos_set.next_set_at_or_after(cursor) else {
            break;
        };
        cursor = pos + 1;
        let u = order[pos];
        if vs_len - i64::from(cnt_in_s[u as usize]) <= k {
            sum += fg.dist(u);
            taken += 1;
        }
    }
    if taken < need {
        return true;
    }
    if distance_pruning {
        if let Some(best) = best {
            let fires = match best.checked_sub(td) {
                None => true,
                Some(slack) => slack < sum,
            };
            if fires {
                return true;
            }
        }
    }
    with_matching
        && k < (p - 1) as i64
        && match_bound(fg, vs, cnt_in_s, va_set, va_len, p, k, scratch)
}

/// The parent-side per-candidate completion bound: decide whether the child
/// frame for candidate `u` — the frame that *would* be opened by pushing
/// `u` onto `VS` — is provably not worth opening, **without** pushing.
///
/// Any group in that subtree is `VS ∪ {u}` plus `need = p − |VS| − 1`
/// completions drawn from the current `VA \ {u}`. A completion `v` must
/// stay within its k-plex deficiency budget against the *child's* member
/// set: `|VS ∪ {u}| − (|N_v ∩ VS| + [v ∼ u]) ≤ k` — the frame-level
/// [`kplex_frame_prune`] admissibility sharpened by `u`'s own adjacency
/// row. Deficits only grow as `VS` grows and `VA` only shrinks, so the
/// sum of the `need` cheapest admissible distances is a true floor on
/// the subtree's completion cost. Fires (`true`) when fewer than `need`
/// candidates are admissible at all (the child's entry check would
/// return immediately), or — only with `distance_pruning` on — when
/// `child_td + floor` cannot strictly beat the incumbent.
///
/// `pos_set` mirrors `VA` over positions of `order` (distance-ascending)
/// and still contains `u` itself (the caller has not removed it yet);
/// `child_vs_len = |VS| + 1` and `child_td` already include `u`. `k` is
/// clamped to `p − 1` as everywhere.
#[allow(clippy::too_many_arguments)]
pub(crate) fn parent_completion_prunes<G: CandidateTopology>(
    fg: &G,
    u: u32,
    child_vs_len: usize,
    cnt_in_s: &[u32],
    pos_set: &BitSet,
    order: &[u32],
    p: usize,
    k: i64,
    child_td: Dist,
    best: Option<Dist>,
    distance_pruning: bool,
) -> bool {
    let vs_len = child_vs_len as i64;
    let need = p - child_vs_len;
    let adj_u = fg.adj_words(u);
    let mut sum: Dist = 0;
    let mut taken = 0usize;
    let mut cursor = 0usize;
    while taken < need {
        let Some(pos) = pos_set.next_set_at_or_after(cursor) else {
            break;
        };
        cursor = pos + 1;
        let v = order[pos];
        if v == u {
            continue;
        }
        let vi = v as usize;
        let in_child = i64::from(cnt_in_s[vi]) + (adj_u[vi / 64] >> (vi % 64) & 1) as i64;
        if vs_len - in_child <= k {
            sum += fg.dist(v);
            taken += 1;
        }
    }
    if taken < need {
        return true;
    }
    if distance_pruning {
        if let Some(best) = best {
            return match best.checked_sub(child_td) {
                None => true,
                Some(slack) => slack < sum,
            };
        }
    }
    false
}

/// Incrementally-maintained admissibility state for the parent-side
/// completion bound — the sibling-loop replacement for re-running
/// [`parent_completion_prunes`]'s full `VA` rescan per candidate.
///
/// Within one frame, the quantities the bound's admissibility test reads
/// are sibling-invariant: `child_vs_len = |VS| + 1` is fixed, and
/// `cnt_in_s` returns to its frame-entry values before every sibling
/// check (each descend's push is popped first). Only the candidate's own
/// adjacency row varies. So each `VA` position falls into one of three
/// frame-stable classes by its deficit `child_vs_len − cnt_in_s[v]`:
///
/// * `deficit ≤ k` — admissible for **every** sibling ([`a_pos`]);
/// * `deficit = k + 1` — admissible exactly for siblings **adjacent**
///   to it ([`b_pos`]);
/// * `deficit > k + 1` — admissible for no sibling; dropped at rebuild
///   and never touched again.
///
/// [`rebuild`](Self::rebuild) classifies once per frame entry
/// (O(|VA|)); [`remove`](Self::remove) clears a position when the frame
/// permanently discards its candidate (child-descend removals are
/// rewound by the caller's undo before the next sibling check, so they
/// need no mirroring); [`prunes`](Self::prunes) then walks the merged
/// ascending positions of `a_pos ∪ (b_pos ∩ N(u))` — bit-identical to
/// the rescan's admissible sequence, but skipping the never-admissible
/// class and replacing deficit arithmetic with bit reads.
///
/// [`a_pos`]: Self::a_pos
/// [`b_pos`]: Self::b_pos
pub(crate) struct ParentFloor {
    /// Access-order positions admissible regardless of the sibling.
    a_pos: BitSet,
    /// Positions admissible only when adjacent to the sibling.
    b_pos: BitSet,
    /// Whether the classes reflect the current frame. Frames that the
    /// frame-level bounds prune outright never pay the O(|VA|) classify.
    built: bool,
    /// Bound consultations since frame entry; the first
    /// [`RESCAN_BUDGET`](Self::RESCAN_BUDGET) use the plain rescan
    /// (early-exiting after `need` admissibles), so only frames that
    /// consult the bound repeatedly amortise a classify.
    consults: u32,
}

impl Default for ParentFloor {
    fn default() -> Self {
        ParentFloor {
            a_pos: BitSet::new(0),
            b_pos: BitSet::new(0),
            built: false,
            consults: 0,
        }
    }
}

impl ParentFloor {
    /// Classify every `VA` position for the frame with member count
    /// `child_vs_len − 1` (i.e. every child opened from it has
    /// `child_vs_len` members). `order` maps positions to compact ids;
    /// `k` is clamped to `p − 1` as everywhere.
    pub(crate) fn rebuild(
        &mut self,
        pos_set: &BitSet,
        order: &[u32],
        cnt_in_s: &[u32],
        child_vs_len: usize,
        k: i64,
    ) {
        let cap = pos_set.capacity();
        if self.a_pos.capacity() == cap {
            self.a_pos.clear();
        } else {
            self.a_pos = BitSet::new(cap);
        }
        if self.b_pos.capacity() == cap {
            self.b_pos.clear();
        } else {
            self.b_pos = BitSet::new(cap);
        }
        let vs_len = child_vs_len as i64;
        for pos in pos_set.iter() {
            let deficit = vs_len - i64::from(cnt_in_s[order[pos] as usize]);
            if deficit <= k {
                self.a_pos.insert(pos);
            } else if deficit == k + 1 {
                self.b_pos.insert(pos);
            }
        }
        self.built = true;
    }

    /// Reset at frame entry: the previous frame's classes are stale, and
    /// the new frame starts on the rescan budget (a later
    /// [`consult`](Self::consult) rebuilds lazily from the *current*
    /// `pos_set`, so removals mirrored in between need no bookkeeping).
    #[inline]
    pub(crate) fn invalidate(&mut self) {
        self.built = false;
        self.consults = 0;
    }

    /// Mirror a permanent frame-level `VA` removal (no-op for positions
    /// that were never admissible, and for frames still on the rescan
    /// budget — an eventual rebuild reads the already-shrunk `pos_set`).
    #[inline]
    pub(crate) fn remove(&mut self, pos: usize) {
        if !self.built {
            return;
        }
        self.a_pos.remove(pos);
        self.b_pos.remove(pos);
    }

    /// How many consultations a frame answers with the plain rescan
    /// before paying the O(|VA|) classify. Most frames consult the bound
    /// at most once or twice (the frame-level bounds or the branch caps
    /// cut them short), and for those the rescan's `need`-admissible
    /// early exit is cheaper than classifying all of `VA`.
    const RESCAN_BUDGET: u32 = 2;

    /// The parent-side completion bound for sibling `u` — hybrid entry
    /// point. Bit-identical to [`parent_completion_prunes`] in every
    /// case: the rescan *is* that function, and the class walk matches
    /// it because `cnt_in_s` holds frame-entry values at every
    /// consultation (each descend's push is popped before the next
    /// sibling check) while a lazy rebuild reads the current `pos_set`,
    /// from which permanently-discarded candidates are already absent.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn consult<G: CandidateTopology>(
        &mut self,
        fg: &G,
        u: u32,
        child_vs_len: usize,
        cnt_in_s: &[u32],
        pos_set: &BitSet,
        order: &[u32],
        p: usize,
        k: i64,
        child_td: Dist,
        best: Option<Dist>,
        distance_pruning: bool,
    ) -> bool {
        if !self.built {
            if self.consults < Self::RESCAN_BUDGET {
                self.consults += 1;
                return parent_completion_prunes(
                    fg,
                    u,
                    child_vs_len,
                    cnt_in_s,
                    pos_set,
                    order,
                    p,
                    k,
                    child_td,
                    best,
                    distance_pruning,
                );
            }
            self.rebuild(pos_set, order, cnt_in_s, child_vs_len, k);
        }
        self.prunes(
            fg,
            u,
            order,
            p - child_vs_len,
            child_td,
            best,
            distance_pruning,
        )
    }

    /// The next `b_pos` position at or after `from` whose candidate is
    /// adjacent to the sibling (`adj_u` is the sibling's adjacency row).
    #[inline]
    fn next_adjacent(&self, from: usize, order: &[u32], adj_u: &[u64]) -> Option<usize> {
        let mut cursor = from;
        while let Some(pos) = self.b_pos.next_set_at_or_after(cursor) {
            let v = order[pos] as usize;
            if adj_u[v / 64] >> (v % 64) & 1 == 1 {
                return Some(pos);
            }
            cursor = pos + 1;
        }
        None
    }

    /// [`parent_completion_prunes`] for sibling `u`, from the maintained
    /// classes: sums the first `need = p − child_vs_len` admissible
    /// distances in access order (skipping `u` itself — the caller has
    /// not removed it from `VA` yet) and fires on a short count or,
    /// under `distance_pruning` with an incumbent, on
    /// `child_td + floor ≥ best`. Bit-identical to the rescan.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn prunes<G: CandidateTopology>(
        &self,
        fg: &G,
        u: u32,
        order: &[u32],
        need: usize,
        child_td: Dist,
        best: Option<Dist>,
        distance_pruning: bool,
    ) -> bool {
        let adj_u = fg.adj_words(u);
        let mut sum: Dist = 0;
        let mut taken = 0usize;
        let mut next_a = self.a_pos.first();
        let mut next_b = self.next_adjacent(0, order, adj_u);
        while taken < need {
            // `a_pos` and `b_pos` are disjoint, so strict comparison picks
            // a unique next position of the merged ascending walk.
            let pos = match (next_a, next_b) {
                (None, None) => break,
                (Some(a), None) => {
                    next_a = self.a_pos.next_set_at_or_after(a + 1);
                    a
                }
                (None, Some(b)) => {
                    next_b = self.next_adjacent(b + 1, order, adj_u);
                    b
                }
                (Some(a), Some(b)) => {
                    if a < b {
                        next_a = self.a_pos.next_set_at_or_after(a + 1);
                        a
                    } else {
                        next_b = self.next_adjacent(b + 1, order, adj_u);
                        b
                    }
                }
            };
            let v = order[pos];
            if v == u {
                continue;
            }
            sum += fg.dist(v);
            taken += 1;
        }
        if taken < need {
            return true;
        }
        if distance_pruning {
            if let Some(best) = best {
                return match best.checked_sub(child_td) {
                    None => true,
                    Some(slack) => slack < sum,
                };
            }
        }
        false
    }
}

/// Scratch buffers for [`match_bound`] (one per searcher; reused across
/// every frame of a search so the bound allocates nothing in steady
/// state).
#[derive(Default)]
pub(crate) struct MatchScratch {
    /// Matched-vertex words (capacity of the candidate bitset).
    matched: Vec<u64>,
    /// Counting-sort buckets over missing-pair counts `0..=|VS|`.
    buckets: Vec<u32>,
}

/// The k-plex matching bound for one frame: `true` ⇔ no size-`p`
/// completion of `VS` from `va_set` can satisfy the acquaintance
/// constraint, because the provable missing-pair demand already exceeds
/// the aggregate budget.
///
/// Per member the constraint allows at most `k` non-acquainted
/// co-members, so summed over the group `2 · missing_pairs ≤ p·k`. Three
/// disjoint demands are bounded from below:
///
/// 1. **inside `VS`** — counted exactly from the `cnt_in_s` counters;
/// 2. **`VS` × completion** — every chosen candidate `u` contributes
///    `|VS| − |N_u ∩ VS|` missing pairs against `VS`; any completion
///    takes `need = p − |VS|` candidates, so the sum of the `need`
///    smallest such counts over `va_set` is unavoidable (counting sort
///    over the `0..=|VS|` value range);
/// 3. **inside the completion** — a greedy matching over missing pairs
///    among `va_set`: pairs are disjoint, so excluding one of the
///    `|VA| − need` leftovers breaks at most one pair, leaving at least
///    `t − (|VA| − need)` matched pairs wholly inside any completion,
///    each a distinct missing pair. The matching (the only superlinear
///    part) is only computed when `2·need > |VA|` — otherwise the term
///    is provably zero — which confines it to cheap endgame frames.
///
/// `k` must already be clamped to `p − 1` (the engines' invariant); the
/// caller skips the call entirely when the budget is vacuous
/// (`k ≥ p − 1`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn match_bound<G: CandidateTopology>(
    fg: &G,
    vs: &[u32],
    cnt_in_s: &[u32],
    va_set: &BitSet,
    va_len: usize,
    p: usize,
    k: i64,
    scratch: &mut MatchScratch,
) -> bool {
    let vs_len = vs.len();
    let need = p - vs_len;
    if need == 0 || va_len < need {
        // Nothing left to choose (the frame's own cardinality check
        // handles the short case).
        return false;
    }
    let budget = (p as i64) * k; // 2 · missing_pairs ≤ p·k

    // (1) Missing pairs inside VS, exact: C(|VS|, 2) minus the edges
    // within VS (each endpoint's cnt_in_s counts it once per side).
    let edges_in_vs: u64 = vs.iter().map(|&v| u64::from(cnt_in_s[v as usize])).sum();
    let miss_in_vs = (vs_len * (vs_len - 1) / 2) as i64 - (edges_in_vs / 2) as i64;

    // (2) VS × completion: counting sort of |VS| − cnt_in_s[u] over VA,
    // then the `need` smallest.
    scratch.buckets.clear();
    scratch.buckets.resize(vs_len + 1, 0);
    for u in va_set.iter() {
        let miss = vs_len - (cnt_in_s[u] as usize).min(vs_len);
        scratch.buckets[miss] += 1;
    }
    let mut cross = 0i64;
    let mut taken = 0usize;
    for (miss, &count) in scratch.buckets.iter().enumerate() {
        if taken >= need {
            break;
        }
        let take = (count as usize).min(need - taken);
        cross += (miss * take) as i64;
        taken += take;
    }

    if 2 * (miss_in_vs + cross) > budget {
        return true;
    }
    // (3) can add at most ⌊need/2⌋ pairs, and is provably zero unless
    // the completion must keep more than half of VA.
    if 2 * need <= va_len || 2 * (miss_in_vs + cross + (need / 2) as i64) <= budget {
        return false;
    }

    // Greedy matching over missing pairs among VA, word-parallel: for
    // each unmatched member, the first unmatched non-neighbor above it.
    let words = va_set.words();
    scratch.matched.clear();
    scratch.matched.resize(words.len(), 0);
    let mut t = 0usize;
    for u in va_set.iter() {
        let (wi, bi) = (u / 64, u % 64);
        if scratch.matched[wi] >> bi & 1 == 1 {
            continue;
        }
        let adj = fg.adj_words(u as u32);
        let mut partner = None;
        for i in wi..words.len() {
            let mut w = words[i] & !scratch.matched[i] & !adj[i];
            if i == wi {
                // Only partners strictly above u (each pair found once).
                w &= u64::MAX << bi << 1;
            }
            if w != 0 {
                partner = Some(i * 64 + w.trailing_zeros() as usize);
                break;
            }
        }
        if let Some(v) = partner {
            scratch.matched[wi] |= 1 << bi;
            scratch.matched[v / 64] |= 1 << (v % 64);
            t += 1;
        }
    }
    let internal = t.saturating_sub(va_len - need) as i64;
    2 * (miss_in_vs + cross + internal) > budget
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use stgq_graph::{FeasibleGraph, GraphBuilder, NodeId};

    fn random_fg(seed: u64, n: usize, edge_prob: f64) -> FeasibleGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(edge_prob) {
                    b.add_edge(NodeId(u as u32), NodeId(v as u32), rng.gen_range(1..30))
                        .unwrap();
                }
            }
        }
        for v in 1..n as u32 {
            if !b.has_edge(NodeId(0), NodeId(v)) && rng.gen_bool(0.3) {
                b.add_edge(NodeId(0), NodeId(v), 5).unwrap();
            }
        }
        FeasibleGraph::extract(&b.build(), NodeId(0), 3)
    }

    fn all_candidates(fg: &FeasibleGraph) -> BitSet {
        let mut set = BitSet::new(fg.len());
        for &c in fg.candidate_order() {
            set.insert(c as usize);
        }
        set
    }

    /// The fixpoint really is a fixpoint: every survivor meets the
    /// threshold against the survivors, and every peeled vertex fails it
    /// against the *final* core ∪ {q} — i.e. re-running changes nothing.
    #[test]
    fn peel_reaches_a_fixpoint_and_removes_only_sub_threshold_vertices() {
        for seed in 0..40u64 {
            let fg = random_fg(seed, 14, 0.3);
            for min_deg in 1..5usize {
                let mut set = all_candidates(&fg);
                let before = set.clone();
                let mut deg = Vec::new();
                let mut queue = Vec::new();
                let peeled = peel_to_core(&fg, &mut set, min_deg, &mut deg, &mut queue);
                assert_eq!(peeled as usize, before.len() - set.len());
                for c in set.iter() {
                    let adj = fg.adj(c as u32);
                    let d = adj.intersection_len(&set) + usize::from(adj.contains(0));
                    assert!(d >= min_deg, "seed {seed} min_deg {min_deg}: survivor {c}");
                }
                // Idempotence.
                let mut again = set.clone();
                let re = peel_to_core(&fg, &mut again, min_deg, &mut deg, &mut queue);
                assert_eq!(re, 0, "seed {seed}: peel must be a fixpoint");
            }
        }
    }

    /// A chain hanging off the initiator cascades: the one-pass filter
    /// only removes the tail, the fixpoint eats the whole chain.
    #[test]
    fn peel_cascades_where_one_pass_stops() {
        // q(0) — 1 — 2 — 3 — 4, plus a triangle {5, 6, 7} on q so a core
        // survives. Threshold 2: vertex 4 (deg 1) falls in the first
        // pass, then 3, then 2, then 1.
        let mut b = GraphBuilder::new(8);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (0, 6), (0, 7)] {
            b.add_edge(NodeId(u), NodeId(v), 1).unwrap();
        }
        b.add_edge(NodeId(5), NodeId(6), 1).unwrap();
        b.add_edge(NodeId(5), NodeId(7), 1).unwrap();
        b.add_edge(NodeId(6), NodeId(7), 1).unwrap();
        let fg = FeasibleGraph::extract(&b.build(), NodeId(0), 4);
        let mut set = all_candidates(&fg);
        let peeled = peel_to_core(&fg, &mut set, 2, &mut Vec::new(), &mut Vec::new());
        assert_eq!(peeled, 4, "the whole chain cascades away");
        assert_eq!(set.len(), 3, "the triangle survives");
        assert!(initiator_core_ok(&fg, &set, 2));
    }

    /// `match_bound` never fires on a frame that still has a feasible
    /// completion: brute-force every size-`need` completion and check
    /// the aggregate missing-pair budget the bound reasons about.
    #[test]
    fn match_bound_is_a_valid_lower_bound() {
        for seed in 0..60u64 {
            let mut rng = SmallRng::seed_from_u64(0xBEEF ^ seed);
            let fg = random_fg(seed, 12, 0.4);
            let f = fg.len();
            if f < 6 {
                continue;
            }
            let p = rng.gen_range(3..=5.min(f));
            let k = rng.gen_range(0..p - 1) as i64;
            // A random VS containing the initiator, and a random VA.
            let vs_extra = rng.gen_range(0..p - 1);
            let mut vs = vec![0u32];
            let mut pool: Vec<u32> = (1..f as u32).collect();
            for _ in 0..vs_extra {
                let i = rng.gen_range(0..pool.len());
                vs.push(pool.swap_remove(i));
            }
            let mut va_set = BitSet::new(f);
            for &c in &pool {
                if rng.gen_bool(0.7) {
                    va_set.insert(c as usize);
                }
            }
            let need = p - vs.len();
            let va: Vec<u32> = va_set.iter().map(|v| v as u32).collect();
            if va.len() < need {
                continue;
            }
            let mut cnt_in_s = vec![0u32; f];
            for &v in &vs {
                for &nb in fg.neighbors(v) {
                    cnt_in_s[nb as usize] += 1;
                }
            }
            let fires = match_bound(
                &fg,
                &vs,
                &cnt_in_s,
                &va_set,
                va.len(),
                p,
                k,
                &mut MatchScratch::default(),
            );
            if !fires {
                continue;
            }
            // The bound claims every completion violates the aggregate
            // budget; verify against brute-force enumeration.
            let budget = p as i64 * k;
            let mut choose = vec![0usize; need];
            let mut any_ok = false;
            #[allow(clippy::too_many_arguments)]
            fn rec(
                fg: &FeasibleGraph,
                va: &[u32],
                choose: &mut Vec<usize>,
                depth: usize,
                start: usize,
                vs: &[u32],
                budget: i64,
                any_ok: &mut bool,
            ) {
                if *any_ok {
                    return;
                }
                if depth == choose.len() {
                    let mut group: Vec<u32> = vs.to_vec();
                    group.extend(choose.iter().map(|&i| va[i]));
                    let mut missing = 0i64;
                    for i in 0..group.len() {
                        for j in (i + 1)..group.len() {
                            if !fg.adjacent(group[i], group[j]) {
                                missing += 1;
                            }
                        }
                    }
                    if 2 * missing <= budget {
                        *any_ok = true;
                    }
                    return;
                }
                for i in start..va.len() {
                    choose[depth] = i;
                    rec(fg, va, choose, depth + 1, i + 1, vs, budget, any_ok);
                }
            }
            rec(&fg, &va, &mut choose, 0, 0, &vs, budget, &mut any_ok);
            assert!(
                !any_ok,
                "seed {seed}: bound fired but a completion fits the budget (p={p} k={k})"
            );
        }
    }

    /// Soundness oracle for [`parent_completion_prunes`]: whenever the
    /// bound fires for a child `u`, brute-force enumeration confirms the
    /// pruned subtree holds **no** strictly-better solution — no
    /// size-`need` completion of `VS ∪ {u}` from `VA \ {u}` forms a
    /// valid k-plex (every member ≤ k misses) whose total distance
    /// strictly beats the incumbent (or any valid completion at all,
    /// when the bound fired on the admissible-count floor with no
    /// incumbent in play).
    #[test]
    fn parent_bound_never_prunes_a_better_subtree() {
        let mut fired_with_best = 0u32;
        let mut fired_absolute = 0u32;
        for seed in 0..80u64 {
            let mut rng = SmallRng::seed_from_u64(0xFACE ^ seed);
            let fg = random_fg(seed, 10, 0.45);
            let f = fg.len();
            if f < 6 {
                continue;
            }
            let order: Vec<u32> = fg.candidate_order().to_vec();
            let p = rng.gen_range(3..=5.min(f));
            let k = rng.gen_range(0..p - 1) as i64;
            // A random partial VS containing the initiator (at least one
            // seat left beyond the child u), and a random VA over the
            // rest, mirrored onto access-order positions like the
            // searchers keep it.
            let vs_extra = rng.gen_range(0..p - 2);
            let mut vs = vec![0u32];
            let mut pool = order.clone();
            for _ in 0..vs_extra {
                let i = rng.gen_range(0..pool.len());
                vs.push(pool.swap_remove(i));
            }
            let mut pos_set = BitSet::new(f);
            for (pos, &c) in order.iter().enumerate() {
                if pool.contains(&c) && rng.gen_bool(0.8) {
                    pos_set.insert(pos);
                }
            }
            let va: Vec<u32> = pos_set.iter().map(|pos| order[pos]).collect();
            let mut cnt_in_s = vec![0u32; f];
            for &v in &vs {
                for &nb in fg.neighbors(v) {
                    cnt_in_s[nb as usize] += 1;
                }
            }
            let td: Dist = vs.iter().map(|&v| fg.dist(v)).sum();
            for &u in &va {
                let child_td = td + fg.dist(u);
                let need = p - vs.len() - 1;
                // Exercise both firing conditions: no incumbent (only
                // the absolute admissible-count floor may fire) and a
                // randomized incumbent around plausible magnitudes.
                for best in [None, Some(child_td + rng.gen_range(0..60u64))] {
                    let fires = parent_completion_prunes(
                        &fg,
                        u,
                        vs.len() + 1,
                        &cnt_in_s,
                        &pos_set,
                        &order,
                        p,
                        k,
                        child_td,
                        best,
                        true,
                    );
                    if !fires {
                        continue;
                    }
                    match best {
                        Some(_) => fired_with_best += 1,
                        None => fired_absolute += 1,
                    }
                    // Brute-force every completion S ⊆ VA \ {u} with
                    // |S| = need: none may be a valid k-plex strictly
                    // under the incumbent.
                    let others: Vec<u32> = va.iter().copied().filter(|&v| v != u).collect();
                    for mask in 0u32..(1 << others.len()) {
                        if mask.count_ones() as usize != need {
                            continue;
                        }
                        let mut group = vs.clone();
                        group.push(u);
                        for (i, &v) in others.iter().enumerate() {
                            if mask >> i & 1 == 1 {
                                group.push(v);
                            }
                        }
                        let valid = group.iter().all(|&g| {
                            let misses = group
                                .iter()
                                .filter(|&&o| o != g && !fg.adjacent(g, o))
                                .count() as i64;
                            misses <= k
                        });
                        if !valid {
                            continue;
                        }
                        let dist: Dist = group.iter().map(|&v| fg.dist(v)).sum();
                        let beats = match best {
                            None => true,
                            Some(b) => dist < b,
                        };
                        assert!(
                            !beats,
                            "seed {seed}: parent bound pruned child {u} but completion \
                             {group:?} (dist {dist}) survives (p={p} k={k} best={best:?})"
                        );
                    }
                }
            }
        }
        // The oracle is vacuous if the bound never fires — make sure the
        // instance distribution actually exercises both branches.
        assert!(fired_with_best > 0, "incumbent-relative branch never fired");
        assert!(fired_absolute > 0, "absolute branch never fired");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Bit-identity of [`ParentFloor`] against the re-summing rescan
        /// ([`parent_completion_prunes`]) under the searchers' exact
        /// access pattern: classes rebuilt once at frame entry, then a
        /// sibling walk where each examined candidate is checked with
        /// both paths (against no incumbent and against a randomized
        /// one) and afterwards permanently removed from `VA` *and* the
        /// floor — so the maintained classes are exercised at every
        /// intermediate `VA`, not just the frame-entry one.
        #[test]
        fn parent_floor_is_bit_identical_to_the_rescan(
            seed in 0u64..1 << 48,
            n in 6usize..14,
            edge_pct in 15u64..80,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xF1007);
            let fg = random_fg(seed, n, edge_pct as f64 / 100.0);
            let f = fg.len();
            if f < 5 {
                return;
            }
            let order: Vec<u32> = fg.candidate_order().to_vec();
            let p = rng.gen_range(3..=6.min(f));
            let k = rng.gen_range(0..p) as i64; // includes the vacuous k = p − 1
            let vs_extra = rng.gen_range(0..(p - 2).max(1));
            let mut vs = vec![0u32];
            let mut pool = order.clone();
            for _ in 0..vs_extra {
                let i = rng.gen_range(0..pool.len());
                vs.push(pool.swap_remove(i));
            }
            let mut pos_set = BitSet::new(order.len());
            for (pos, &c) in order.iter().enumerate() {
                if pool.contains(&c) && rng.gen_bool(0.85) {
                    pos_set.insert(pos);
                }
            }
            let mut cnt_in_s = vec![0u32; f];
            for &v in &vs {
                for &nb in fg.neighbors(v) {
                    cnt_in_s[nb as usize] += 1;
                }
            }
            let td: Dist = vs.iter().map(|&v| fg.dist(v)).sum();
            let child_vs_len = vs.len() + 1;
            if child_vs_len >= p {
                return;
            }

            // Frame entry: classify once.
            let mut floor = ParentFloor::default();
            floor.rebuild(&pos_set, &order, &cnt_in_s, child_vs_len, k);
            // The engines' actual entry point: invalidated at frame
            // entry, rescanning through its budget, then classifying
            // lazily from the then-current `VA` — its removals before
            // the rebuild are deliberately dropped (`remove` no-ops
            // while unbuilt) because the rebuild reads the shrunk
            // `pos_set` directly.
            let mut hybrid = ParentFloor::default();
            hybrid.invalidate();

            // Sibling loop: check u with both paths, then remove it.
            let siblings: Vec<(usize, u32)> =
                pos_set.iter().map(|pos| (pos, order[pos])).collect();
            for (pos, u) in siblings {
                let child_td = td + fg.dist(u);
                for best in [None, Some(child_td + rng.gen_range(0..80u64))] {
                    for distance_pruning in [false, true] {
                        let rescan = parent_completion_prunes(
                            &fg, u, child_vs_len, &cnt_in_s, &pos_set, &order,
                            p, k, child_td, best, distance_pruning,
                        );
                        let incremental = floor.prunes(
                            &fg, u, &order, p - child_vs_len, child_td, best,
                            distance_pruning,
                        );
                        proptest::prop_assert_eq!(
                            rescan, incremental,
                            "u={} best={:?} dp={} after removals", u, best, distance_pruning
                        );
                        let consulted = hybrid.consult(
                            &fg, u, child_vs_len, &cnt_in_s, &pos_set, &order,
                            p, k, child_td, best, distance_pruning,
                        );
                        proptest::prop_assert_eq!(
                            rescan, consulted,
                            "hybrid: u={} best={:?} dp={}", u, best, distance_pruning
                        );
                    }
                }
                pos_set.remove(pos);
                floor.remove(pos);
                hybrid.remove(pos);
            }
        }
    }
}
