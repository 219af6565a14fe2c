/// Counters describing how much work a query engine did.
///
/// Every engine (SGSelect, STGSelect, both baselines) fills these in; the
/// benchmark harness reports them next to wall-clock numbers so the pruning
/// effectiveness claimed by the paper (§5.2) is directly observable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SearchStats {
    /// Search frames entered (`ExpandSG`/`ExpandSTG` invocations), or
    /// candidate groups enumerated by the exhaustive baseline.
    pub frames: u64,
    /// Candidate vertices examined against the ordering conditions.
    pub candidates_examined: u64,
    /// Vertices actually moved from `VA` to `VS` (branches descended).
    pub vertices_expanded: u64,
    /// Complete feasible groups encountered.
    pub solutions_recorded: u64,
    /// Frames abandoned by distance pruning (Lemma 2).
    pub distance_prunes: u64,
    /// Frames abandoned by acquaintance pruning (Lemma 3).
    pub acquaintance_prunes: u64,
    /// Frames abandoned by availability pruning (Lemma 5).
    pub availability_prunes: u64,
    /// Candidates dropped by the exterior expansibility condition.
    pub exterior_rejections: u64,
    /// Candidates rejected by the interior unfamiliarity condition.
    pub interior_rejections: u64,
    /// Candidates rejected by the temporal extensibility condition.
    pub temporal_rejections: u64,
    /// Pivot time slots *prepared* — they passed the initiator's
    /// Definition-4 check and had their per-pivot state built
    /// (STGSelect only).
    pub pivots_processed: u64,
    /// The subset of [`pivots_processed`](Self::pivots_processed) whose
    /// optimistic distance floor (the `p − 1` cheapest pivot-eligible
    /// candidates, after the core peel restricted to candidates whose
    /// runs cover one common `m`-slot window) could no longer beat
    /// the incumbent — the pivot was retired after preparation without
    /// opening a search frame (pivot-granularity Lemma 2, STGSelect
    /// only; see [`SelectConfig::pivot_promise_order`]).
    ///
    /// [`SelectConfig::pivot_promise_order`]: crate::SelectConfig::pivot_promise_order
    pub pivots_skipped: u64,
    /// Candidates removed outright by fixpoint (p, k)-core peeling
    /// before exact descent — per pivot for STGQ, once per solve for
    /// SGQ. A vertex counted here was provably in no feasible group of
    /// its candidate set.
    pub peeled_candidates: u64,
    /// Pivots refused during preparation because their fixpoint-peeled
    /// core left fewer than `p` people (or left the initiator short of
    /// `p − 1 − k` acquaintances) — absolute infeasibility, not an
    /// incumbent-relative prune (STGSelect only).
    pub pivots_refused_by_core: u64,
    /// Frames abandoned by the frame-level k-plex bound — either half: the
    /// admissible-completion floor (too few candidates within their `k`
    /// budget against `VS`, or their cheapest completion cannot beat
    /// the incumbent — an incumbent-relative prune like Lemma 2's,
    /// counted here rather than in
    /// [`distance_prunes`](Self::distance_prunes)), or the missing-pair
    /// matching bound against the group's `⌊k·p/2⌋` non-acquaintance
    /// budget.
    pub frames_pruned_by_match: u64,
    /// Children retired at the **parent** frame by the per-candidate
    /// admissible-completion bound: the child's own
    /// completion floor, computed against `VS ∪ {u}` before pushing
    /// `u`, already could not beat the incumbent (or left too few
    /// admissible partners), so the child frame was never opened.
    pub children_pruned_by_parent_bound: u64,
    /// Availability-buffer words whose rebuild was **avoided** by the
    /// incremental prep's per-solve run cache: one stride per candidate
    /// whose Definition-4 run came from a run cached earlier in the same
    /// solve instead of a word scan (STGSelect only). Nothing carries
    /// over between solves, so a pooled arena counts exactly what a
    /// fresh one does.
    pub prep_words_delta: u64,
    /// Availability-buffer words actually built from calendar words —
    /// per post-peel eligible candidate per pivot that reached exact
    /// descent (skipped pivots pay nothing). The ratio against
    /// [`prep_words_delta`](Self::prep_words_delta) is the incremental
    /// path's word-traffic saving.
    pub prep_words_rebuilt: u64,
    /// Whether the search stopped at a [`SelectConfig::frame_budget`]
    /// (anytime mode) instead of running to proven optimality. Never set
    /// by cancellation — see [`cancelled`](Self::cancelled).
    ///
    /// [`SelectConfig::frame_budget`]: crate::SelectConfig::frame_budget
    pub truncated: bool,
    /// Whether the search was stopped by a [`SolveControl`] (cancellation
    /// token tripped or deadline passed) before running to proven
    /// optimality. Kept separate from [`truncated`](Self::truncated):
    /// budget-exhausted and cancelled are different provenance even
    /// though both return the incumbent found so far.
    ///
    /// [`SolveControl`]: crate::SolveControl
    pub cancelled: bool,
}

impl SearchStats {
    /// Merge another stats block into this one (used when aggregating
    /// per-window or per-pivot runs).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.frames += other.frames;
        self.candidates_examined += other.candidates_examined;
        self.vertices_expanded += other.vertices_expanded;
        self.solutions_recorded += other.solutions_recorded;
        self.distance_prunes += other.distance_prunes;
        self.acquaintance_prunes += other.acquaintance_prunes;
        self.availability_prunes += other.availability_prunes;
        self.exterior_rejections += other.exterior_rejections;
        self.interior_rejections += other.interior_rejections;
        self.temporal_rejections += other.temporal_rejections;
        self.pivots_processed += other.pivots_processed;
        self.pivots_skipped += other.pivots_skipped;
        self.peeled_candidates += other.peeled_candidates;
        self.pivots_refused_by_core += other.pivots_refused_by_core;
        self.frames_pruned_by_match += other.frames_pruned_by_match;
        self.children_pruned_by_parent_bound += other.children_pruned_by_parent_bound;
        self.prep_words_delta += other.prep_words_delta;
        self.prep_words_rebuilt += other.prep_words_rebuilt;
        self.truncated |= other.truncated;
        self.cancelled |= other.cancelled;
    }

    /// Total frames abandoned by any pruning rule.
    pub fn total_prunes(&self) -> u64 {
        self.distance_prunes
            + self.acquaintance_prunes
            + self.availability_prunes
            + self.frames_pruned_by_match
    }

    /// Search frames actually entered and examined — the count the
    /// search-reduction work drives down (alias of [`frames`](Self::frames)
    /// under the name the metrics surface uses).
    pub fn frames_examined(&self) -> u64 {
        self.frames
    }

    /// Frames abandoned because the incumbent bound proved no completion
    /// could win (Lemma 2 — alias of
    /// [`distance_prunes`](Self::distance_prunes) under the metrics name).
    pub fn frames_pruned_by_bound(&self) -> u64 {
        self.distance_prunes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_every_field() {
        let mut a = SearchStats {
            frames: 1,
            candidates_examined: 2,
            ..Default::default()
        };
        let b = SearchStats {
            frames: 10,
            candidates_examined: 20,
            vertices_expanded: 30,
            solutions_recorded: 1,
            distance_prunes: 2,
            acquaintance_prunes: 3,
            availability_prunes: 4,
            exterior_rejections: 5,
            interior_rejections: 6,
            temporal_rejections: 7,
            pivots_processed: 8,
            pivots_skipped: 9,
            peeled_candidates: 10,
            pivots_refused_by_core: 11,
            frames_pruned_by_match: 12,
            children_pruned_by_parent_bound: 13,
            prep_words_delta: 14,
            prep_words_rebuilt: 15,
            truncated: true,
            cancelled: true,
        };
        a.absorb(&b);
        assert_eq!(a.frames, 11);
        assert_eq!(a.candidates_examined, 22);
        assert_eq!(a.vertices_expanded, 30);
        assert_eq!(a.total_prunes(), 21);
        assert_eq!(a.pivots_processed, 8);
        assert_eq!(a.pivots_skipped, 9);
        assert_eq!(a.peeled_candidates, 10);
        assert_eq!(a.pivots_refused_by_core, 11);
        assert_eq!(a.frames_pruned_by_match, 12);
        assert_eq!(a.children_pruned_by_parent_bound, 13);
        assert_eq!(a.prep_words_delta, 14);
        assert_eq!(a.prep_words_rebuilt, 15);
        assert!(a.truncated, "truncation is sticky under absorb");
        assert!(a.cancelled, "cancellation is sticky under absorb");
        assert_eq!(a.frames_examined(), a.frames);
        assert_eq!(a.frames_pruned_by_bound(), a.distance_prunes);
    }
}
