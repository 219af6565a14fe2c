use std::fmt;

use stgq_core::QueryError;
use stgq_graph::{NodeId, MAX_DISTANCE};

/// Errors surfaced by the planning service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The person id has never been registered.
    UnknownPerson {
        /// The offending id.
        person: NodeId,
        /// How many people the service knows.
        person_count: usize,
    },
    /// The person was removed from the network and cannot participate.
    RemovedPerson {
        /// The removed person.
        person: NodeId,
    },
    /// An edge endpoint pair was invalid (self-friendship).
    SelfFriendship {
        /// The person supplied twice.
        person: NodeId,
    },
    /// Social distances must be positive.
    ZeroDistance {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A social distance above [`MAX_DISTANCE`] was supplied; heavier
    /// ties could overflow the Definition-1 distances.
    DistanceTooLarge {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The rejected distance.
        distance: u64,
    },
    /// A slot index was outside the calendar horizon.
    SlotOutOfRange {
        /// The offending slot.
        slot: usize,
        /// The store's horizon.
        horizon: usize,
    },
    /// A slot range with `lo > hi`. Only a range built field by field
    /// (bypassing `SlotRange::new`) can be inverted; the mutation is
    /// refused instead of being applied as a no-op.
    InvertedRange {
        /// The range's first slot.
        lo: usize,
        /// The range's last slot, below `lo`.
        hi: usize,
    },
    /// A captured [`WorldState`](crate::WorldState) whose per-person
    /// vectors disagree on how many people exist.
    InconsistentState {
        /// Registration labels listed.
        labels: usize,
        /// Activity flags listed.
        active: usize,
        /// Calendars listed.
        calendars: usize,
    },
    /// A version or sequence counter is at `u64::MAX` and cannot
    /// advance. Only a peer-supplied state or record can put it there;
    /// the mutation or promotion that needed it is refused.
    CounterExhausted {
        /// `"graph version"`, `"calendar version"` or `"delta sequence"`.
        counter: &'static str,
    },
    /// The underlying query engine rejected the inputs.
    Query(QueryError),
    /// The execution subsystem refused the request for an
    /// infrastructure reason (no published snapshot, a stale epoch), or
    /// the solve panicked and the executor answered with its message.
    /// The planner façade keeps the first two states unreachable on its
    /// own paths — seeing them means the executor was driven directly in
    /// an unexpected state.
    ExecutorUnavailable {
        /// The executor's own description of the condition.
        reason: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownPerson {
                person,
                person_count,
            } => {
                write!(
                    f,
                    "unknown person {person} (service knows {person_count} people)"
                )
            }
            ServiceError::RemovedPerson { person } => {
                write!(f, "person {person} was removed from the network")
            }
            ServiceError::SelfFriendship { person } => {
                write!(f, "cannot befriend {person} with themselves")
            }
            ServiceError::ZeroDistance { a, b } => {
                write!(f, "social distance between {a} and {b} must be positive")
            }
            ServiceError::DistanceTooLarge { a, b, distance } => write!(
                f,
                "social distance {distance} between {a} and {b} exceeds the maximum {MAX_DISTANCE}"
            ),
            ServiceError::SlotOutOfRange { slot, horizon } => {
                write!(f, "slot {slot} outside horizon {horizon}")
            }
            ServiceError::InvertedRange { lo, hi } => {
                write!(f, "slot range requires lo <= hi, got [{lo}, {hi}]")
            }
            ServiceError::InconsistentState {
                labels,
                active,
                calendars,
            } => write!(
                f,
                "world state lists {labels} people but {active} activity flags and {calendars} calendars"
            ),
            ServiceError::CounterExhausted { counter } => {
                write!(f, "the {counter} is at its maximum and cannot advance")
            }
            ServiceError::Query(e) => write!(f, "query error: {e}"),
            ServiceError::ExecutorUnavailable { reason } => {
                write!(f, "executor unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> Self {
        ServiceError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<ServiceError> = vec![
            ServiceError::UnknownPerson {
                person: NodeId(9),
                person_count: 3,
            },
            ServiceError::RemovedPerson { person: NodeId(1) },
            ServiceError::SelfFriendship { person: NodeId(2) },
            ServiceError::ZeroDistance {
                a: NodeId(0),
                b: NodeId(1),
            },
            ServiceError::DistanceTooLarge {
                a: NodeId(0),
                b: NodeId(1),
                distance: u64::MAX,
            },
            ServiceError::SlotOutOfRange {
                slot: 99,
                horizon: 10,
            },
            ServiceError::InvertedRange { lo: 5, hi: 2 },
            ServiceError::InconsistentState {
                labels: 2,
                active: 2,
                calendars: 3,
            },
            ServiceError::CounterExhausted {
                counter: "delta sequence",
            },
            ServiceError::Query(QueryError::InitiatorOutOfRange {
                initiator: NodeId(5),
                node_count: 2,
            }),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn query_errors_convert() {
        let q = QueryError::CalendarCountMismatch {
            calendars: 1,
            node_count: 2,
        };
        let s: ServiceError = q.clone().into();
        assert_eq!(s, ServiceError::Query(q));
    }
}
