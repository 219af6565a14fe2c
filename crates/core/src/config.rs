/// Tuning knobs for the SGSelect/STGSelect access-ordering conditions and
/// pruning strategies.
///
/// The paper leaves the initial exponents as free parameters (Example 2
/// "assume θ = 2", Example 3 "assume φ = 2") and adapts them during the
/// search: θ is *reduced* towards 0 when no candidate passes the interior
/// unfamiliarity condition, and φ is *increased* towards a "predetermined
/// threshold t" (Algorithm 4) when no candidate passes the temporal
/// extensibility condition, after which the condition's right-hand side is
/// treated as 0.
///
/// The three `*_pruning` switches exist for **ablation**: disabling a
/// pruning strategy never changes the optimum (each prunes only provably
/// useless subtrees — Lemmas 2, 3 and 5), only the work done to find it.
/// The benchmark harness's ablation table quantifies each strategy's
/// contribution; production callers should leave them on.
///
/// # Always-on mechanisms
///
/// The engines also run a set of exact reductions and allocation
/// strategies that no switch turns off. Each is either bit-identical to
/// the plain search or retires only subtrees that provably cannot
/// strictly beat the incumbent. Each one that retires work shows it
/// through a [`SearchStats`] counter; the two search-order mechanisms
/// only change which incumbent arms Lemma 2 first:
///
/// | mechanism | counter |
/// |-----------|---------|
/// | greedy incumbent seed before exact descent (SGQ a first-fit probe, STGQ a first-fit probe then 2 greedy restarts per pivot until an incumbent exists) | none: search order only |
/// | promise-ordered pivots (STGQ): descending initiator run length, so early pivots tighten the incumbent for the pivot floor | none: search order only |
/// | fixpoint (p, k)-core peel of the candidate set (SGQ once per solve, STGQ per pivot) | [`peeled_candidates`], [`pivots_refused_by_core`] |
/// | Helly-window pivot floor over the peeled core (STGQ) | [`pivots_skipped`] |
/// | frame-level k-plex bound: admissible-completion floor and missing-pair matching | [`frames_pruned_by_match`] |
/// | parent-side completion bound on each child before it is opened | [`children_pruned_by_parent_bound`] |
/// | incremental pivot prep from a per-solve run cache (STGQ) | [`prep_words_delta`] |
/// | availability rows built only for pivots that reach descent (STGQ) | [`prep_words_rebuilt`] |
/// | pooled pivot buffers and a per-solve one-entry peel memo | none: allocation and caching only |
///
/// Both engines visit candidates in the one access order the paper
/// prescribes: ascending social distance, ties by original member id
/// (`candidate_order()` of the candidate space).
///
/// The distance-relative halves of the pivot floor, the k-plex bound and
/// the parent bound fire only when [`distance_pruning`] is on.
///
/// [`SearchStats`]: crate::SearchStats
/// [`peeled_candidates`]: crate::SearchStats::peeled_candidates
/// [`pivots_refused_by_core`]: crate::SearchStats::pivots_refused_by_core
/// [`pivots_skipped`]: crate::SearchStats::pivots_skipped
/// [`frames_pruned_by_match`]: crate::SearchStats::frames_pruned_by_match
/// [`children_pruned_by_parent_bound`]: crate::SearchStats::children_pruned_by_parent_bound
/// [`prep_words_delta`]: crate::SearchStats::prep_words_delta
/// [`prep_words_rebuilt`]: crate::SearchStats::prep_words_rebuilt
/// [`distance_pruning`]: Self::distance_pruning
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectConfig {
    /// Initial θ for the interior unfamiliarity condition
    /// `U(VS ∪ {v}) ≤ k · (|VS ∪ {v}|/p)^θ`; decays by 1 per relaxation.
    pub theta0: u32,
    /// Initial φ (≥ 1) for the temporal extensibility condition
    /// `X(VS ∪ {u}) ≥ (m−1) · ((p − |VS ∪ {u}|)/p)^φ`; grows by 1 per
    /// relaxation.
    pub phi0: u32,
    /// The paper's threshold `t`: once φ reaches this cap the temporal
    /// RHS is treated as 0 (i.e. only hard feasibility `X ≥ 0` remains).
    pub phi_cap: u32,
    /// Lemma 2: abandon frames that cannot beat the incumbent distance.
    pub distance_pruning: bool,
    /// Lemma 3: abandon frames whose remaining candidates lack the
    /// internal connectivity any feasible completion needs.
    pub acquaintance_pruning: bool,
    /// Lemma 5 (STGSelect only): abandon frames whose remaining candidates
    /// cannot keep any `m`-slot window alive around the pivot.
    pub availability_pruning: bool,
    /// Optional *anytime* budget: stop opening new search frames once this
    /// many have been entered and return the incumbent found so far
    /// (flagged by [`SearchStats::truncated`](crate::SearchStats)). `None`
    /// (the default) searches to proven optimality. The budget caps the
    /// whole solve (every pivot of an STGQ counts into it).
    pub frame_budget: Option<u64>,
}

impl SelectConfig {
    /// The exponents used in the paper's worked examples, all prunings on.
    pub const PAPER_EXAMPLE: SelectConfig = SelectConfig {
        theta0: 2,
        phi0: 2,
        phi_cap: 8,
        distance_pruning: true,
        acquaintance_pruning: true,
        availability_pruning: true,
        frame_budget: None,
    };

    /// Greedy-est ordering: both conditions start fully relaxed. Useful in
    /// tests to confirm the knobs do not affect optimality.
    pub const RELAXED: SelectConfig = SelectConfig {
        theta0: 0,
        phi0: 1,
        phi_cap: 1,
        ..SelectConfig::PAPER_EXAMPLE
    };

    /// Ablation preset: paper ordering, every pruning strategy off.
    pub const NO_PRUNING: SelectConfig = SelectConfig {
        distance_pruning: false,
        acquaintance_pruning: false,
        availability_pruning: false,
        ..SelectConfig::PAPER_EXAMPLE
    };

    /// Ablation helper: this config with distance pruning toggled.
    pub const fn with_distance_pruning(self, on: bool) -> Self {
        SelectConfig {
            distance_pruning: on,
            ..self
        }
    }

    /// Ablation helper: this config with acquaintance pruning toggled.
    pub const fn with_acquaintance_pruning(self, on: bool) -> Self {
        SelectConfig {
            acquaintance_pruning: on,
            ..self
        }
    }

    /// Ablation helper: this config with availability pruning toggled.
    pub const fn with_availability_pruning(self, on: bool) -> Self {
        SelectConfig {
            availability_pruning: on,
            ..self
        }
    }

    /// Anytime helper: this config with the given frame budget.
    pub const fn with_frame_budget(self, budget: u64) -> Self {
        SelectConfig {
            frame_budget: Some(budget),
            ..self
        }
    }

    /// Clamp to the invariants (`phi0 ≥ 1`, `phi_cap ≥ phi0`).
    pub fn normalized(self) -> Self {
        let phi0 = self.phi0.max(1);
        SelectConfig {
            phi0,
            phi_cap: self.phi_cap.max(phi0),
            ..self
        }
    }
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig::PAPER_EXAMPLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_examples() {
        let c = SelectConfig::default();
        assert_eq!(c.theta0, 2);
        assert_eq!(c.phi0, 2);
        assert!(c.distance_pruning && c.acquaintance_pruning && c.availability_pruning);
    }

    #[test]
    fn normalized_enforces_invariants() {
        let c = SelectConfig {
            phi0: 0,
            phi_cap: 0,
            ..SelectConfig::default()
        }
        .normalized();
        assert_eq!(c.phi0, 1);
        assert!(c.phi_cap >= c.phi0);
        let c2 = SelectConfig {
            phi0: 5,
            phi_cap: 2,
            ..SelectConfig::default()
        }
        .normalized();
        assert_eq!(c2.phi_cap, 5);
    }

    #[test]
    fn ablation_presets_and_toggles() {
        let c = SelectConfig::NO_PRUNING;
        assert!(!c.distance_pruning && !c.acquaintance_pruning && !c.availability_pruning);
        assert_eq!(c.theta0, SelectConfig::PAPER_EXAMPLE.theta0);

        let c = SelectConfig::PAPER_EXAMPLE
            .with_distance_pruning(false)
            .with_acquaintance_pruning(false)
            .with_availability_pruning(true);
        assert!(!c.distance_pruning && !c.acquaintance_pruning && c.availability_pruning);
    }
}
