//! Request and response envelopes for the executor.

use std::time::{Duration, Instant};

use stgq_core::{CancelToken, SgqQuery, SolveOutcome, StgqQuery, StopCause};
use stgq_graph::NodeId;

use crate::engine::Engine;

/// Either kind of planning query, uniformly submittable to the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(rename_all = "snake_case"))]
pub enum QuerySpec {
    /// A social-only group query.
    Sgq(SgqQuery),
    /// A social-temporal group query.
    Stgq(StgqQuery),
}

impl QuerySpec {
    /// The social radius `s` (shared by both query kinds; it keys the
    /// feasible-graph cache together with the initiator).
    pub fn s(&self) -> usize {
        match self {
            QuerySpec::Sgq(q) => q.s(),
            QuerySpec::Stgq(q) => q.s(),
        }
    }

    /// Whether this is the temporal variant.
    pub fn is_stgq(&self) -> bool {
        matches!(self, QuerySpec::Stgq(_))
    }
}

/// One query admitted to the executor.
#[derive(Clone, Debug)]
pub struct PlanRequest {
    /// Who is asking (the query's `q` vertex).
    pub initiator: NodeId,
    /// What is being asked.
    pub spec: QuerySpec,
    /// Which solver answers it.
    pub engine: Engine,
    /// Optional wall-clock deadline: the solve stops cooperatively at the
    /// first frame boundary past it and reports
    /// [`StopCause::Cancelled`].
    pub deadline: Option<Instant>,
    /// Optional cancellation token shared with the caller.
    pub cancel: Option<CancelToken>,
    /// Minimum `(graph_version, calendar_version)` epoch this request may
    /// be answered from. A node whose published snapshot is older on
    /// either axis refuses the request with [`ExecError::EpochTooOld`]
    /// instead of serving a stale answer — the read-your-writes guard a
    /// cluster router stamps onto requests that must observe the writer's
    /// latest mutations. `None` (the default) accepts any epoch.
    pub min_epoch: Option<(u64, u64)>,
}

impl PlanRequest {
    /// A request with no deadline and no cancellation token.
    pub fn new(initiator: NodeId, spec: QuerySpec, engine: Engine) -> Self {
        PlanRequest {
            initiator,
            spec,
            engine,
            deadline: None,
            cancel: None,
            min_epoch: None,
        }
    }

    /// This request with a minimum-epoch requirement attached
    /// (read-your-writes: only snapshots at or past both stamps may
    /// answer it).
    pub fn with_min_epoch(mut self, graph_version: u64, calendar_version: u64) -> Self {
        self.min_epoch = Some((graph_version, calendar_version));
        self
    }

    /// This request with a wall-clock deadline attached.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// This request with a cancellation token attached.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether this entry may be answered by another identical entry's
    /// solve within the same batch (request collapsing). Entries with a
    /// deadline or token are never collapsed — their outcome can depend
    /// on when/whether they were stopped.
    pub(crate) fn collapsible(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// The collapse identity: same initiator + spec + engine ⇒ same
    /// deterministic answer on one snapshot. The minimum epoch is part of
    /// the key: entries with different requirements may differ in whether
    /// they are *answered* at all, so they never share an outcome.
    pub(crate) fn collapse_key(&self) -> (u32, QuerySpec, Engine, Option<(u64, u64)>) {
        (self.initiator.0, self.spec, self.engine, self.min_epoch)
    }
}

/// One executed batch entry: the engine's uniform [`SolveOutcome`] plus
/// executor provenance.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlanOutcome {
    /// The solution and its [`stgq_core::SearchStats`].
    pub outcome: SolveOutcome,
    /// Feasibility evaluations (heuristic engines only).
    pub evaluations: Option<u64>,
    /// Whether the answer is proven optimal / proven infeasible. For the
    /// exact family this is [`SolveOutcome::exact`] (false when a budget
    /// or cancellation stopped the search); heuristics are never exact.
    pub exact: bool,
    /// Why the solve returned — [`StopCause::FrameBudget`] (anytime
    /// budget) and [`StopCause::Cancelled`] (deadline/token) are distinct
    /// by construction, and `exact` is `true` iff this is
    /// [`StopCause::Completed`] for engines that can prove optimality.
    pub stop: StopCause,
    /// The engine that produced it.
    pub engine: Engine,
    /// Wall-clock time inside the engine (zero for collapsed entries).
    pub elapsed: Duration,
    /// Whether the feasible graph came from the cache.
    pub feasible_cache_hit: bool,
    /// Whether this entry was answered by cloning an identical entry's
    /// result from the same batch instead of solving again.
    pub collapsed: bool,
    /// Whether this entry was answered from the version-stamped result
    /// cache (a repeat of an identical query solved in an *earlier* batch
    /// or inline call, on the same world epoch) instead of solving again.
    pub result_cache_hit: bool,
}

/// Why the executor refused (rather than answered) a request.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(rename_all = "snake_case"))]
pub enum ExecError {
    /// The initiator does not exist in the published snapshot.
    InitiatorOutOfRange {
        /// The offending vertex id.
        initiator: NodeId,
        /// Vertices in the snapshot.
        node_count: usize,
    },
    /// No [`crate::WorldSnapshot`] has been published yet.
    NoSnapshot,
    /// The published snapshot is older than the request's
    /// [`PlanRequest::min_epoch`] requirement on at least one axis (a
    /// lagging replica must not serve a read-your-writes request).
    EpochTooOld {
        /// The `(graph_version, calendar_version)` the request demanded.
        required: (u64, u64),
        /// The `(graph_version, calendar_version)` actually published.
        available: (u64, u64),
    },
    /// The solve panicked. The executor caught the unwind, so only this
    /// entry failed: the rest of its batch was answered and the thread
    /// that ran it keeps serving.
    SolvePanicked {
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InitiatorOutOfRange {
                initiator,
                node_count,
            } => write!(
                f,
                "initiator {} out of range (snapshot has {} vertices)",
                initiator.0, node_count
            ),
            ExecError::NoSnapshot => write!(f, "no world snapshot published"),
            ExecError::EpochTooOld {
                required,
                available,
            } => write!(
                f,
                "published epoch {available:?} is older than the required minimum {required:?}"
            ),
            ExecError::SolvePanicked { message } => write!(f, "the solve panicked: {message}"),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(all(test, feature = "serde"))]
mod tests {
    use super::*;
    use stgq_core::{SearchStats, SgqOutcome};

    #[test]
    fn engines_and_specs_roundtrip() {
        for engine in [
            Engine::Exact,
            Engine::Anytime { frame_budget: 99 },
            Engine::Greedy { restarts: 3 },
            Engine::LocalSearch {
                restarts: 2,
                passes: 5,
            },
        ] {
            let back: Engine =
                serde_json::from_str(&serde_json::to_string(&engine).unwrap()).unwrap();
            assert_eq!(back, engine);
        }
        let spec = QuerySpec::Stgq(StgqQuery::new(4, 2, 1, 3).unwrap());
        let back: QuerySpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn outcomes_and_errors_roundtrip() {
        let outcome = PlanOutcome {
            outcome: SolveOutcome::Sgq(SgqOutcome {
                solution: None,
                stats: SearchStats {
                    frames: 3,
                    ..Default::default()
                },
            }),
            evaluations: Some(17),
            exact: true,
            stop: StopCause::Completed,
            engine: Engine::Exact,
            elapsed: Duration::from_nanos(1234),
            feasible_cache_hit: true,
            collapsed: false,
            result_cache_hit: true,
        };
        let back: PlanOutcome =
            serde_json::from_str(&serde_json::to_string(&outcome).unwrap()).unwrap();
        assert_eq!(back, outcome);

        for err in [
            ExecError::NoSnapshot,
            ExecError::InitiatorOutOfRange {
                initiator: NodeId(9),
                node_count: 5,
            },
            ExecError::EpochTooOld {
                required: (4, 7),
                available: (4, 6),
            },
            ExecError::SolvePanicked {
                message: "index out of bounds".to_string(),
            },
        ] {
            let back: ExecError =
                serde_json::from_str(&serde_json::to_string(&err).unwrap()).unwrap();
            assert_eq!(back, err);
        }
    }
}
