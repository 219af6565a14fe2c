//! The cluster protocol: every message and reply that crosses a
//! [`Transport`](crate::Transport), plus their wire encodings.
//!
//! Two planes share one envelope type ([`NodeMsg`]):
//!
//! * **replication** — the writer ships [`ReplicationPayload`]s (ordered
//!   deltas, or a full state for first attach / gap recovery) and nodes
//!   acknowledge with their applied sequence and epoch;
//! * **data** — the router scatters [`WireRequest`] batches and gathers
//!   per-entry outcomes.
//!
//! # Wire encodings
//!
//! Every type here, and every executor, core and service type inside
//! it, derives its JSON form, in upstream serde's default encoding:
//! structs are objects, and enums are externally tagged in snake case —
//! a unit variant is `"status"`, a newtype variant `{"replicate": …}`, a
//! struct variant `{"ack": {"seq": …, "epoch": …}}`. An outcome list is
//! `[{"Ok": …}, {"Err": …}]`, and a `Duration` is
//! `{"secs": …, "nanos": …}`. The one exception is [`NodeObs`]: its
//! histograms are a foreign type, trimmed of trailing empty buckets on
//! the wire. The TCP transport and the in-process transport's
//! codec-exercising mode both ship these encodings, so a transport
//! changes *where* bytes go, not *what* they say.

use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use stgq_exec::{Engine, ExecError, PlanOutcome, QuerySpec};
use stgq_graph::NodeId;
use stgq_obs::{HistogramSnapshot, BUCKETS};
use stgq_service::{DeltaRecord, WorldState};

/// A world version stamp: the `(graph, calendar)` pair identifying one
/// published epoch. Ordered axis-wise — an epoch *covers* a requirement
/// iff it is at least as new on **both** axes (graph and calendar
/// versions advance independently).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Epoch {
    /// The network (graph) version.
    pub graph: u64,
    /// The calendar-store version.
    pub calendar: u64,
}

impl Epoch {
    /// Build from a `(graph_version, calendar_version)` pair.
    pub fn new(graph: u64, calendar: u64) -> Self {
        Epoch { graph, calendar }
    }

    /// Whether this epoch satisfies `min` on both axes.
    pub fn covers(&self, min: Epoch) -> bool {
        self.graph >= min.graph && self.calendar >= min.calendar
    }
}

/// One query as it crosses the transport: the executor request minus the
/// process-local control handles (deadlines and cancellation tokens do
/// not serialize; cluster requests are the deterministic, collapsible
/// kind).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Who is asking.
    pub initiator: NodeId,
    /// What is being asked.
    pub spec: QuerySpec,
    /// Which solver answers it.
    pub engine: Engine,
    /// Read-your-writes floor: the answering node's epoch must cover
    /// this or the request is refused ([`ExecError::EpochTooOld`]).
    pub min_epoch: Option<Epoch>,
}

/// What the writer ships to a replica in one replication round.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ReplicationPayload {
    /// The ordered mutations after the replica's acknowledged sequence.
    /// `from_seq` is the sequence the records splice onto — a replica
    /// whose applied sequence differs replies [`NodeReply::Stale`]
    /// instead of applying out of order.
    Deltas {
        /// The sequence number the first record follows.
        from_seq: u64,
        /// The mutations, oldest first, each with its version stamps.
        records: Vec<DeltaRecord>,
    },
    /// A complete world copy: first attach, or the delta log no longer
    /// reaches back to the replica's sequence (gap).
    Full(WorldState),
}

/// A message to one cluster node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum NodeMsg {
    /// Replication plane: apply this payload and acknowledge.
    Replicate(ReplicationPayload),
    /// Data plane: answer this shard batch against the local epoch.
    Execute(Vec<WireRequest>),
    /// Observability: report sequence, epoch and serving counters. Also
    /// serves as the heartbeat probe — a node that answers *anything* is
    /// alive.
    Status,
    /// Deep observability: report status **plus** the node executor's
    /// latency histograms ([`NodeObs`]) — what
    /// [`Cluster::observability`](crate::Cluster::observability)
    /// scatter/gathers to build the fleet-wide latency spectrum.
    Metrics,
    /// Failover: export the node's replica world ([`WorldState`]),
    /// so a surviving replica can be promoted to writer.
    Export,
}

/// Point-in-time serving counters of one node, as reported by
/// [`NodeMsg::Status`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeStatus {
    /// The last delta sequence applied.
    pub seq: u64,
    /// The epoch of the node's published snapshot.
    pub epoch: Epoch,
    /// Whether the node has completed its first sync.
    pub attached: bool,
    /// Full syncs this node went through (first attach + gap recoveries).
    pub full_syncs: u64,
    /// Incremental delta batches applied.
    pub delta_batches: u64,
    /// Queries answered by the node's executor.
    pub queries: u64,
    /// Result-cache hits at the node.
    pub result_cache_hits: u64,
}

/// One node's deep observability report ([`NodeMsg::Metrics`]): its
/// status plus its executor's named latency histograms
/// ([`stgq_exec::EXEC_HISTOGRAMS`]). Histograms cross the wire as plain
/// bucket arrays, so the cluster can merge them fleet-wide — log₂
/// histograms merge exactly by element-wise addition.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeObs {
    /// The node's serving status (same report as [`NodeMsg::Status`]).
    pub status: NodeStatus,
    /// Named histogram snapshots from the node's executor.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// A node's answer to one [`NodeMsg`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum NodeReply {
    /// Replication applied; the node now stands at this sequence/epoch.
    Ack {
        /// Last applied delta sequence.
        seq: u64,
        /// The epoch now published to the node's executor.
        epoch: Epoch,
    },
    /// The delta payload did not splice onto the node's sequence (the
    /// node missed earlier records, or has never attached): the writer
    /// must fall back to a full sync.
    Stale {
        /// The sequence the node actually stands at.
        have_seq: u64,
    },
    /// Replication failed irrecoverably at the node (corrupt payload).
    Failed {
        /// Human-readable cause.
        reason: String,
    },
    /// Data-plane outcomes, one per [`WireRequest`], in request order.
    Outcomes(Vec<Result<PlanOutcome, ExecError>>),
    /// Status report.
    Status(NodeStatus),
    /// Deep observability report, answering [`NodeMsg::Metrics`].
    Metrics(NodeObs),
    /// The node's replica world, answering [`NodeMsg::Export`].
    State(WorldState),
}

/// `HistogramSnapshot` is foreign to both this crate and the serde shim
/// (and `stgq-obs` is deliberately dependency-free), so [`NodeObs`]
/// crosses the wire through this form: trailing zero buckets are trimmed
/// on encode and padded back on decode — a mostly-empty 64-bucket
/// spectrum costs a few array elements, not 64.
#[derive(Serialize, Deserialize)]
struct WireHistogram {
    name: String,
    count: u64,
    sum_ns: u64,
    buckets: Vec<u64>,
}

#[derive(Serialize, Deserialize)]
struct WireObs {
    status: NodeStatus,
    histograms: Vec<WireHistogram>,
}

impl Serialize for NodeObs {
    fn to_value(&self) -> Value {
        let histograms = self.histograms.iter().map(|(name, h)| {
            let used = BUCKETS - h.buckets.iter().rev().take_while(|&&b| b == 0).count();
            WireHistogram {
                name: name.clone(),
                count: h.count,
                sum_ns: h.sum_ns,
                buckets: h.buckets[..used].to_vec(),
            }
        });
        WireObs {
            status: self.status,
            histograms: histograms.collect(),
        }
        .to_value()
    }
}

impl Deserialize for NodeObs {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let WireObs { status, histograms } = WireObs::from_value(v)?;
        let histograms = histograms.into_iter().map(|h| {
            if h.buckets.len() > BUCKETS {
                return Err(DeError::new(format!(
                    "histogram has {} buckets, max {BUCKETS}",
                    h.buckets.len()
                )));
            }
            let mut buckets = [0u64; BUCKETS];
            buckets[..h.buckets.len()].copy_from_slice(&h.buckets);
            let (count, sum_ns) = (h.count, h.sum_ns);
            Ok((
                h.name,
                HistogramSnapshot {
                    buckets,
                    count,
                    sum_ns,
                },
            ))
        });
        Ok(NodeObs {
            status,
            histograms: histograms.collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Debug;
    use std::time::Duration;
    use stgq_core::{
        SearchStats, SgqOutcome, SgqQuery, SgqSolution, SolveOutcome, StgqOutcome, StgqQuery,
        StgqSolution, StopCause,
    };
    use stgq_schedule::{Calendar, SlotRange};
    use stgq_service::WorldDelta;

    #[test]
    fn epoch_covering_is_axis_wise() {
        let e = Epoch::new(3, 5);
        assert!(e.covers(Epoch::new(3, 5)));
        assert!(e.covers(Epoch::new(2, 5)));
        assert!(!e.covers(Epoch::new(4, 0)), "graph axis behind");
        assert!(!e.covers(Epoch::new(0, 6)), "calendar axis behind");
    }

    #[test]
    fn protocol_messages_roundtrip_through_json() {
        let sgq = SgqQuery::new(3, 1, 0).unwrap();
        let msgs = [
            NodeMsg::Status,
            NodeMsg::Metrics,
            NodeMsg::Export,
            NodeMsg::Execute(vec![WireRequest {
                initiator: NodeId(4),
                spec: QuerySpec::Sgq(sgq),
                engine: Engine::Exact,
                min_epoch: Some(Epoch::new(7, 2)),
            }]),
            NodeMsg::Replicate(ReplicationPayload::Deltas {
                from_seq: 9,
                records: Vec::new(),
            }),
        ];
        for msg in msgs {
            let json = serde_json::to_string(&msg).unwrap();
            let back: NodeMsg = serde_json::from_str(&json).unwrap();
            assert_eq!(back, msg);
        }

        let replies = [
            NodeReply::Ack {
                seq: 12,
                epoch: Epoch::new(3, 4),
            },
            NodeReply::Stale { have_seq: 2 },
            NodeReply::Failed {
                reason: "boom".into(),
            },
            NodeReply::Outcomes(vec![Err(ExecError::NoSnapshot)]),
            NodeReply::Status(NodeStatus {
                seq: 1,
                epoch: Epoch::new(1, 1),
                attached: true,
                full_syncs: 1,
                delta_batches: 2,
                queries: 3,
                result_cache_hits: 4,
            }),
            NodeReply::Metrics(NodeObs {
                status: NodeStatus::default(),
                histograms: vec![("end_to_end".to_string(), {
                    let h = stgq_obs::Histogram::new();
                    h.record_ns(1); // bucket 0
                    h.record_ns(u64::MAX); // bucket 63: trimming must keep it
                    h.snapshot()
                })],
            }),
            NodeReply::State(WorldState {
                horizon: 8,
                labels: vec!["ann".into(), "bob".into()],
                active: vec![true, true],
                edges: vec![(0, 1, 1)],
                calendars: Vec::new(),
                graph_version: 5,
                calendar_version: 6,
                seq: 7,
            }),
        ];
        for reply in replies {
            let json = serde_json::to_string(&reply).unwrap();
            let back: NodeReply = serde_json::from_str(&json).unwrap();
            assert_eq!(back, reply);
        }
    }

    /// Decode `bytes` the way a TCP frame is decoded. The result does
    /// not matter, only that decoding returns.
    fn decode_quietly<T: Deserialize>(bytes: &[u8]) {
        if let Ok(text) = std::str::from_utf8(bytes) {
            let _ = serde_json::from_str::<T>(text);
        }
    }

    /// `value` round-trips to an equal value, and every truncated prefix
    /// and every single-byte flip (`^ mask`) of its encoding decodes to
    /// `Ok` or `Err` without a panic.
    fn survives_hostile_bytes<T: Serialize + Deserialize + PartialEq + Debug>(value: &T, mask: u8) {
        let json = serde_json::to_string(value).unwrap();
        assert_eq!(&serde_json::from_str::<T>(&json).unwrap(), value, "{json}");
        let mut bytes = json.into_bytes();
        for end in 0..bytes.len() {
            decode_quietly::<T>(&bytes[..end]);
        }
        for i in 0..bytes.len() {
            bytes[i] ^= mask;
            decode_quietly::<T>(&bytes);
            bytes[i] ^= mask;
        }
    }

    /// An executor answer built from `n`, feasible or not.
    fn plan_outcome(n: u64, stgq: bool, feasible: bool, engine: Engine) -> PlanOutcome {
        let stats = SearchStats {
            frames: n,
            pivots_skipped: n / 3,
            truncated: feasible,
            ..Default::default()
        };
        let members = vec![NodeId(0), NodeId(n as u32)];
        let outcome = if stgq {
            let solution = StgqSolution {
                members,
                total_distance: n,
                period: SlotRange::new(1, 2),
                pivot: 1,
            };
            SolveOutcome::Stgq(StgqOutcome {
                solution: feasible.then_some(solution),
                stats,
            })
        } else {
            let solution = SgqSolution {
                members,
                total_distance: n,
            };
            SolveOutcome::Sgq(SgqOutcome {
                solution: feasible.then_some(solution),
                stats,
            })
        };
        PlanOutcome {
            outcome,
            evaluations: feasible.then_some(n),
            exact: !feasible,
            stop: [
                StopCause::Completed,
                StopCause::FrameBudget,
                StopCause::Cancelled,
            ][(n % 3) as usize],
            engine,
            elapsed: Duration::new(n, (n % 1_000_000_000) as u32),
            feasible_cache_hit: feasible,
            collapsed: stgq,
            result_cache_hit: !stgq,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every message and reply variant — every engine, query kind,
        /// delta kind, `Ok` and `Err` outcome — round-trips through JSON,
        /// and no truncation or byte flip of its frame panics the decoder.
        #[test]
        fn hostile_frames_decode_without_panicking(
            n in proptest::collection::vec(0u64..=u64::MAX, 4),
            small in proptest::collection::vec(0usize..4, 4),
            flag in proptest::bool::ANY,
            mask in 1u8..128,
        ) {
            let engines = [
                Engine::Exact,
                Engine::Anytime { frame_budget: n[0] },
                Engine::Greedy { restarts: small[0] },
                Engine::LocalSearch { restarts: small[1], passes: small[2] },
            ];
            let (p, s, k, m) = (small[0] + 1, small[1] + 1, small[2], small[3] + 1);
            let specs = [
                QuerySpec::Sgq(SgqQuery::new(p, s, k).unwrap()),
                QuerySpec::Stgq(StgqQuery::new(p, s, k, m).unwrap()),
            ];
            let requests = engines
                .iter()
                .zip(specs.iter().cycle())
                .enumerate()
                .map(|(i, (&engine, &spec))| WireRequest {
                    initiator: NodeId(n[i] as u32),
                    spec,
                    engine,
                    min_epoch: (i % 2 == 0).then(|| Epoch::new(n[1], n[2])),
                })
                .collect();

            let horizon = 64 + small[3];
            let calendar = Calendar::from_slots(horizon, [small[0], horizon - 1]);
            let (a, b) = (NodeId(small[0] as u32), NodeId(small[1] as u32));
            let deltas = [
                WorldDelta::AddPerson { label: format!("p{}\"\\\té", n[0]) },
                WorldDelta::Connect { a, b, distance: n[1] },
                WorldDelta::Disconnect { a, b },
                WorldDelta::RemovePerson { person: a },
                WorldDelta::SetSlot { person: b, slot: small[2], available: flag },
                WorldDelta::SetRange {
                    person: a,
                    range: SlotRange::new(small[0], small[0] + small[1]),
                    available: !flag,
                },
                WorldDelta::SetCalendar { person: b, calendar: calendar.clone() },
            ];
            let records = deltas
                .into_iter()
                .zip(1..)
                .map(|(delta, i)| DeltaRecord {
                    seq: n[2].wrapping_add(i),
                    graph_version: n[3],
                    calendar_version: n[0],
                    delta,
                })
                .collect();
            let state = WorldState {
                horizon,
                labels: vec!["ann".into(), "bob\n".into()],
                active: vec![true, flag],
                edges: vec![(0, 1, n[1])],
                calendars: vec![calendar, Calendar::new(horizon)],
                graph_version: n[0],
                calendar_version: n[1],
                seq: n[2],
            };
            let msgs = [
                NodeMsg::Replicate(ReplicationPayload::Deltas { from_seq: n[2], records }),
                NodeMsg::Replicate(ReplicationPayload::Full(state.clone())),
                NodeMsg::Execute(requests),
                NodeMsg::Status,
                NodeMsg::Metrics,
                NodeMsg::Export,
            ];
            for msg in &msgs {
                survives_hostile_bytes(msg, mask);
            }

            let status = NodeStatus {
                seq: n[0],
                epoch: Epoch::new(n[1], n[2]),
                attached: flag,
                full_syncs: n[3],
                delta_batches: n[0] / 2,
                queries: n[1] / 2,
                result_cache_hits: n[2] / 2,
            };
            let histogram = stgq_obs::Histogram::new();
            histogram.record_ns(n[3] >> small[0]);
            let outcomes = vec![
                Ok(plan_outcome(n[0], flag, true, engines[small[0]])),
                Ok(plan_outcome(n[1], !flag, false, engines[small[1]])),
                Err(ExecError::NoSnapshot),
                Err(ExecError::InitiatorOutOfRange {
                    initiator: NodeId(n[2] as u32),
                    node_count: small[3],
                }),
                Err(ExecError::EpochTooOld { required: (n[0], n[1]), available: (n[2], n[3]) }),
            ];
            let replies = [
                NodeReply::Ack { seq: n[0], epoch: status.epoch },
                NodeReply::Stale { have_seq: n[1] },
                NodeReply::Failed { reason: format!("bad \"frame\" {}", n[2]) },
                NodeReply::Outcomes(outcomes),
                NodeReply::Status(status),
                NodeReply::Metrics(NodeObs {
                    status,
                    histograms: vec![("end_to_end".to_string(), histogram.snapshot())],
                }),
                NodeReply::State(state),
            ];
            for reply in &replies {
                survives_hostile_bytes(reply, mask);
            }
        }
    }

    #[test]
    fn retired_tags_in_a_frame_are_typed_errors() {
        let execute = |engine: &str| {
            format!(
                r#"{{"execute":[{{"initiator":0,"spec":{{"sgq":{{"p":2,"s":1,"k":0}}}},"engine":{engine},"min_epoch":null}}]}}"#
            )
        };
        assert!(serde_json::from_str::<NodeMsg>(&execute(r#""exact""#)).is_ok());
        let err = serde_json::from_str::<NodeMsg>(&execute(r#"{"exact_parallel":{"threads":2}}"#))
            .unwrap_err();
        assert!(
            err.to_string().contains("unknown variant `exact_parallel`"),
            "{err}"
        );

        let outcomes = |error: &str| format!(r#"{{"outcomes":[{{"Err":{error}}}]}}"#);
        assert!(serde_json::from_str::<NodeReply>(&outcomes(r#""no_snapshot""#)).is_ok());
        let err = serde_json::from_str::<NodeReply>(&outcomes(r#""shutting_down""#)).unwrap_err();
        assert!(
            err.to_string().contains("unknown variant `shutting_down`"),
            "{err}"
        );
    }
}
