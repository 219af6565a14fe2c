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
/// strictly beat the incumbent, and each shows its effect through a
/// [`SearchStats`] counter:
///
/// | mechanism | counter |
/// |-----------|---------|
/// | fixpoint (p, k)-core peel of the candidate set (SGQ once per solve, STGQ per pivot) | [`peeled_candidates`], [`pivots_refused_by_core`] |
/// | Helly-window pivot floor over the peeled core (STGQ) | [`pivots_skipped`] |
/// | frame-level k-plex bound: admissible-completion floor and missing-pair matching | [`frames_pruned_by_match`] |
/// | parent-side completion bound on each child before it is opened | [`children_pruned_by_parent_bound`] |
/// | incremental pivot prep from a per-solve run cache (STGQ) | [`prep_words_delta`] |
/// | availability rows built only for pivots that reach descent (STGQ) | [`prep_words_rebuilt`] |
/// | pooled pivot buffers and per-signature shared peel results | none: allocation and caching only |
///
/// The distance-relative halves of the pivot floor, the k-plex bound and
/// the parent bound fire only when [`distance_pruning`] is on, and the
/// pivot-floor skip only when [`pivot_promise_order`] is on too.
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
/// [`pivot_promise_order`]: Self::pivot_promise_order
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
    /// Greedy restarts used to **seed the incumbent** before exact descent
    /// (`0` disables seeding). A feasible seed activates Lemma-2 distance
    /// pruning from the very first frame; seeding with a non-optimal bound
    /// never cuts a strictly better solution, so exactness is untouched.
    /// STGSelect seeds per pivot (reusing the pivot's prepared state),
    /// SGSelect once per solve with a first-fit probe.
    pub seed_restarts: usize,
    /// Process pivot time slots **best-first** (descending initiator run
    /// length) and skip any pivot whose optimistic distance floor can no
    /// longer beat the incumbent. The floor is the sum of the `p − 1`
    /// smallest incident distances among its eligible candidates,
    /// sharpened after the core peel to the cheapest `p − 1` candidates
    /// whose runs cover one common `m`-slot window. This is Lemma 2
    /// applied at pivot granularity; skipped pivots are counted in
    /// [`SearchStats::pivots_skipped`](crate::SearchStats). The skip only
    /// fires when [`distance_pruning`](Self::distance_pruning) is also on.
    pub pivot_promise_order: bool,
    /// Break ties in the total-distance access order by availability
    /// overlap with the pivot's initiator run (descending), so temporally
    /// doomed candidates sink to the back of their tie group and Lemma-5
    /// counters kill subtrees earlier. Ordering is a search heuristic:
    /// it never changes the optimum, only how fast it is found.
    pub availability_ordering: bool,
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
        seed_restarts: 2,
        pivot_promise_order: true,
        availability_ordering: true,
    };

    /// Ablation preset: the search-order layer off — no incumbent
    /// seeding, pivots in calendar order (so no pivot-floor skip), pure
    /// distance access order. The always-on mechanisms listed on
    /// [`SelectConfig`] still run. The search-reduction benchmarks and
    /// the stats-regression tests diff against this.
    pub const NO_SEARCH_REDUCTION: SelectConfig = SelectConfig {
        seed_restarts: 0,
        pivot_promise_order: false,
        availability_ordering: false,
        ..SelectConfig::PAPER_EXAMPLE
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

    /// This config with the given greedy incumbent-seed restart budget
    /// (`0` disables seeding).
    pub const fn with_seed_restarts(self, restarts: usize) -> Self {
        SelectConfig {
            seed_restarts: restarts,
            ..self
        }
    }

    /// This config with promise-ordered pivots (and the pivot-granularity
    /// Lemma-2 skip) toggled.
    pub const fn with_pivot_promise_order(self, on: bool) -> Self {
        SelectConfig {
            pivot_promise_order: on,
            ..self
        }
    }

    /// This config with availability-aware access-order tie-breaking toggled.
    pub const fn with_availability_ordering(self, on: bool) -> Self {
        SelectConfig {
            availability_ordering: on,
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

    #[test]
    fn search_reduction_defaults_and_toggles() {
        let c = SelectConfig::default();
        assert_eq!(c.seed_restarts, 2);
        assert!(c.pivot_promise_order && c.availability_ordering);

        let off = SelectConfig::NO_SEARCH_REDUCTION;
        assert_eq!(off.seed_restarts, 0);
        assert!(!off.pivot_promise_order && !off.availability_ordering);
        assert!(
            off.distance_pruning && off.acquaintance_pruning,
            "the baseline keeps the paper's pruning; only the search order is off"
        );

        let c = SelectConfig::PAPER_EXAMPLE
            .with_seed_restarts(5)
            .with_pivot_promise_order(false)
            .with_availability_ordering(false);
        assert_eq!(c.seed_restarts, 5);
        assert!(!c.pivot_promise_order && !c.availability_ordering);
        assert_eq!(c.with_seed_restarts(0), SelectConfig::NO_SEARCH_REDUCTION);
    }
}
