//! The replication vocabulary: every accepted mutation is a
//! [`WorldDelta`], recorded with the sequence number and the version
//! stamps it produced into a bounded [`DeltaLog`]; a [`WorldState`] is a
//! complete copy of the world at one stamp.
//!
//! This module only describes changes. Applying, capturing and restoring
//! them is [`World`](crate::World)'s job — the same code on the writer
//! and on every replica. The writer ([`Writer`](crate::Writer)) records
//! each delta its world accepted; a replica replays the records in
//! order and checks that its own world lands on each record's stamps,
//! so a replica's published snapshot carries exactly the writer's epoch
//! and version-keyed caches stay coherent across nodes. When a replica
//! has missed more history than the log retains (gap detection via
//! [`DeltaLog::since`] returning `None`), it falls back to a
//! [`WorldState`] **full sync** and resumes deltas from there.

use std::collections::VecDeque;

use stgq_graph::{Dist, NodeId};
use stgq_schedule::{Calendar, SlotRange};

use crate::ServiceError;

/// One replicable mutation of the world, exactly mirroring the planner's
/// mutation surface. [`World::apply`](crate::World::apply) is the one
/// place a delta takes effect, so replaying a delta on a faithful mirror
/// bumps its version stamps exactly like the original mutation did.
#[derive(Clone, Debug, PartialEq)]
pub enum WorldDelta {
    /// A person was registered.
    AddPerson {
        /// Their display label.
        label: String,
    },
    /// A friendship was created or re-weighted.
    Connect {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The social distance.
        distance: Dist,
    },
    /// A friendship was removed (recorded only when it existed — no-op
    /// disconnects bump no version and emit no delta).
    Disconnect {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A person was tombstoned.
    RemovePerson {
        /// The id (stays allocated forever).
        person: NodeId,
    },
    /// One availability slot changed.
    SetSlot {
        /// Whose calendar.
        person: NodeId,
        /// Which slot.
        slot: usize,
        /// The new availability.
        available: bool,
    },
    /// A whole slot range changed.
    SetRange {
        /// Whose calendar.
        person: NodeId,
        /// Which slots.
        range: SlotRange,
        /// The new availability.
        available: bool,
    },
    /// A calendar was replaced wholesale.
    SetCalendar {
        /// Whose calendar.
        person: NodeId,
        /// The replacement.
        calendar: Calendar,
    },
}

/// One log entry: the mutation plus the sequence number and the version
/// stamps that resulted from applying it on the writer.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaRecord {
    /// Position in the writer's total mutation order (1-based, dense).
    pub seq: u64,
    /// The network version after applying this delta.
    pub graph_version: u64,
    /// The calendar-store version after applying this delta.
    pub calendar_version: u64,
    /// The mutation itself.
    pub delta: WorldDelta,
}

/// A bounded, ordered log of the writer's recent mutations.
///
/// Replicas request "everything after sequence `n`"; when the log has
/// already evicted records that recent, [`since`](Self::since) reports a
/// **gap** and the caller must fall back to a full [`WorldState`] sync.
#[derive(Debug)]
pub struct DeltaLog {
    records: VecDeque<DeltaRecord>,
    capacity: usize,
    /// The last sequence number handed out (0 when none). Kept instead
    /// of the next one so that resuming after a peer-supplied
    /// `u64::MAX` needs no addition.
    last_seq: u64,
}

/// Default number of mutations the writer's delta log retains.
pub const DEFAULT_DELTA_LOG_CAPACITY: usize = 4096;

impl DeltaLog {
    /// An empty log retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        DeltaLog {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            last_seq: 0,
        }
    }

    /// An empty log whose numbering continues after `last_seq` — how a
    /// promoted writer resumes the cluster's total mutation order after
    /// failover. Everything at or before `last_seq` is unreachable (a
    /// replica asking for it sees a gap and full-syncs), which is exactly
    /// right: the promoted writer only holds the state, not the history.
    pub fn resume(capacity: usize, last_seq: u64) -> Self {
        DeltaLog {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            last_seq,
        }
    }

    /// The sequence number the next record takes, or a typed refusal
    /// when the log resumed at `u64::MAX`.
    pub(crate) fn next_seq(&self) -> Result<u64, ServiceError> {
        self.last_seq
            .checked_add(1)
            .ok_or(ServiceError::CounterExhausted {
                counter: "delta sequence",
            })
    }

    /// Append a mutation at `seq` (from [`next_seq`](Self::next_seq))
    /// with its resulting version stamps.
    pub(crate) fn record(
        &mut self,
        seq: u64,
        delta: WorldDelta,
        graph_version: u64,
        calendar_version: u64,
    ) {
        debug_assert_eq!(self.next_seq(), Ok(seq), "the log is dense in seq");
        self.last_seq = seq;
        self.records.push_back(DeltaRecord {
            seq,
            graph_version,
            calendar_version,
            delta,
        });
        if self.records.len() > self.capacity {
            self.records.pop_front();
        }
    }

    /// The sequence number of the last recorded mutation (0 when none).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Change the retention bound, evicting the oldest records when
    /// shrinking (sequence numbering continues unchanged).
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.records.len() > self.capacity {
            self.records.pop_front();
        }
    }

    /// Every record with `seq > have_seq`, oldest first — or `None` when
    /// the log no longer reaches back that far (gap: the caller needs a
    /// full sync). A fully caught-up replica gets `Some(empty)`.
    pub fn since(&self, have_seq: u64) -> Option<Vec<DeltaRecord>> {
        if have_seq >= self.last_seq {
            return Some(Vec::new());
        }
        // The log is dense in seq: records cover (last_seq - len, last_seq].
        if have_seq < self.last_seq - self.records.len() as u64 {
            return None;
        }
        Some(
            self.records
                .iter()
                .filter(|r| r.seq > have_seq)
                .cloned()
                .collect(),
        )
    }
}

/// A complete, self-contained copy of the writer's world at one version
/// stamp — the full-sync payload for a replica attaching fresh or too
/// far behind the delta log.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldState {
    /// The shared calendar horizon.
    pub horizon: usize,
    /// Labels of every person ever registered, by id.
    pub labels: Vec<String>,
    /// Whether each id is still active (tombstoned people stay listed).
    pub active: Vec<bool>,
    /// Every current friendship as `(a, b, distance)` with `a < b`.
    pub edges: Vec<(u32, u32, Dist)>,
    /// Every person's calendar, by id.
    pub calendars: Vec<Calendar>,
    /// The network version this state was captured at.
    pub graph_version: u64,
    /// The calendar-store version this state was captured at.
    pub calendar_version: u64,
    /// The writer's delta sequence at capture time — where incremental
    /// replication resumes after restoring this state.
    pub seq: u64,
}

#[cfg(feature = "serde")]
mod serde_impls {
    //! Wire encodings for the replication payloads (enum shapes are
    //! hand-written; the struct shapes use explicit field lists so the
    //! format is stable against field reordering).

    use serde::value::{get, Value};
    use serde::{DeError, Deserialize, Serialize};
    use stgq_graph::NodeId;
    use stgq_schedule::{Calendar, SlotRange};

    use super::{DeltaRecord, WorldDelta, WorldState};

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn need<'a>(
        entries: &'a [(String, Value)],
        name: &str,
        ty: &str,
    ) -> Result<&'a Value, DeError> {
        get(entries, name).ok_or_else(|| DeError::new(format!("missing field `{name}` in {ty}")))
    }

    impl Serialize for WorldDelta {
        fn to_value(&self) -> Value {
            match self {
                WorldDelta::AddPerson { label } => {
                    obj(vec![("add_person", obj(vec![("label", label.to_value())]))])
                }
                WorldDelta::Connect { a, b, distance } => obj(vec![(
                    "connect",
                    obj(vec![
                        ("a", a.0.to_value()),
                        ("b", b.0.to_value()),
                        ("distance", distance.to_value()),
                    ]),
                )]),
                WorldDelta::Disconnect { a, b } => obj(vec![(
                    "disconnect",
                    obj(vec![("a", a.0.to_value()), ("b", b.0.to_value())]),
                )]),
                WorldDelta::RemovePerson { person } => obj(vec![(
                    "remove_person",
                    obj(vec![("person", person.0.to_value())]),
                )]),
                WorldDelta::SetSlot {
                    person,
                    slot,
                    available,
                } => obj(vec![(
                    "set_slot",
                    obj(vec![
                        ("person", person.0.to_value()),
                        ("slot", slot.to_value()),
                        ("available", available.to_value()),
                    ]),
                )]),
                WorldDelta::SetRange {
                    person,
                    range,
                    available,
                } => obj(vec![(
                    "set_range",
                    obj(vec![
                        ("person", person.0.to_value()),
                        ("range", range.to_value()),
                        ("available", available.to_value()),
                    ]),
                )]),
                WorldDelta::SetCalendar { person, calendar } => obj(vec![(
                    "set_calendar",
                    obj(vec![
                        ("person", person.0.to_value()),
                        ("calendar", calendar.to_value()),
                    ]),
                )]),
            }
        }
    }

    impl Deserialize for WorldDelta {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            let entries = v
                .as_object()
                .ok_or_else(|| DeError::new("expected object for WorldDelta"))?;
            let [(tag, inner)] = entries else {
                return Err(DeError::new("WorldDelta object must have exactly one key"));
            };
            let fields = inner
                .as_object()
                .ok_or_else(|| DeError::new("expected object for WorldDelta payload"))?;
            match tag.as_str() {
                "add_person" => Ok(WorldDelta::AddPerson {
                    label: String::from_value(need(fields, "label", tag)?)?,
                }),
                "connect" => Ok(WorldDelta::Connect {
                    a: NodeId(u32::from_value(need(fields, "a", tag)?)?),
                    b: NodeId(u32::from_value(need(fields, "b", tag)?)?),
                    distance: u64::from_value(need(fields, "distance", tag)?)?,
                }),
                "disconnect" => Ok(WorldDelta::Disconnect {
                    a: NodeId(u32::from_value(need(fields, "a", tag)?)?),
                    b: NodeId(u32::from_value(need(fields, "b", tag)?)?),
                }),
                "remove_person" => Ok(WorldDelta::RemovePerson {
                    person: NodeId(u32::from_value(need(fields, "person", tag)?)?),
                }),
                "set_slot" => Ok(WorldDelta::SetSlot {
                    person: NodeId(u32::from_value(need(fields, "person", tag)?)?),
                    slot: usize::from_value(need(fields, "slot", tag)?)?,
                    available: bool::from_value(need(fields, "available", tag)?)?,
                }),
                "set_range" => Ok(WorldDelta::SetRange {
                    person: NodeId(u32::from_value(need(fields, "person", tag)?)?),
                    range: SlotRange::from_value(need(fields, "range", tag)?)?,
                    available: bool::from_value(need(fields, "available", tag)?)?,
                }),
                "set_calendar" => Ok(WorldDelta::SetCalendar {
                    person: NodeId(u32::from_value(need(fields, "person", tag)?)?),
                    calendar: Calendar::from_value(need(fields, "calendar", tag)?)?,
                }),
                other => Err(DeError::new(format!("unknown WorldDelta `{other}`"))),
            }
        }
    }

    impl Serialize for DeltaRecord {
        fn to_value(&self) -> Value {
            obj(vec![
                ("seq", self.seq.to_value()),
                ("graph_version", self.graph_version.to_value()),
                ("calendar_version", self.calendar_version.to_value()),
                ("delta", self.delta.to_value()),
            ])
        }
    }

    impl Deserialize for DeltaRecord {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            let entries = v
                .as_object()
                .ok_or_else(|| DeError::new("expected object for DeltaRecord"))?;
            Ok(DeltaRecord {
                seq: u64::from_value(need(entries, "seq", "DeltaRecord")?)?,
                graph_version: u64::from_value(need(entries, "graph_version", "DeltaRecord")?)?,
                calendar_version: u64::from_value(need(
                    entries,
                    "calendar_version",
                    "DeltaRecord",
                )?)?,
                delta: WorldDelta::from_value(need(entries, "delta", "DeltaRecord")?)?,
            })
        }
    }

    impl Serialize for WorldState {
        fn to_value(&self) -> Value {
            obj(vec![
                ("horizon", self.horizon.to_value()),
                ("labels", self.labels.to_value()),
                ("active", self.active.to_value()),
                ("edges", self.edges.to_value()),
                ("calendars", self.calendars.to_value()),
                ("graph_version", self.graph_version.to_value()),
                ("calendar_version", self.calendar_version.to_value()),
                ("seq", self.seq.to_value()),
            ])
        }
    }

    impl Deserialize for WorldState {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            let entries = v
                .as_object()
                .ok_or_else(|| DeError::new("expected object for WorldState"))?;
            Ok(WorldState {
                horizon: usize::from_value(need(entries, "horizon", "WorldState")?)?,
                labels: Vec::from_value(need(entries, "labels", "WorldState")?)?,
                active: Vec::from_value(need(entries, "active", "WorldState")?)?,
                edges: Vec::from_value(need(entries, "edges", "WorldState")?)?,
                calendars: Vec::from_value(need(entries, "calendars", "WorldState")?)?,
                graph_version: u64::from_value(need(entries, "graph_version", "WorldState")?)?,
                calendar_version: u64::from_value(need(
                    entries,
                    "calendar_version",
                    "WorldState",
                )?)?,
                seq: u64::from_value(need(entries, "seq", "WorldState")?)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_is_dense_and_reports_gaps() {
        let mut log = DeltaLog::new(3);
        assert_eq!(log.last_seq(), 0);
        assert_eq!(log.since(0), Some(Vec::new()), "empty log: caught up");
        for i in 0..5u64 {
            log.record(
                i + 1,
                WorldDelta::AddPerson {
                    label: format!("p{i}"),
                },
                i + 1,
                0,
            );
        }
        assert_eq!(log.last_seq(), 5);
        // Only seqs 3..=5 retained: from 2 is servable, from 1 is a gap.
        let tail = log.since(2).expect("within retention");
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), [3, 4, 5]);
        assert_eq!(log.since(1), None, "evicted history is a gap");
        assert_eq!(log.since(5), Some(Vec::new()), "caught up");
        assert_eq!(log.since(9), Some(Vec::new()), "ahead counts as caught up");
    }
}
