//! Writer-side replication: tracking what each node has acknowledged
//! and shipping the right payload (deltas when the log still reaches the
//! node's sequence, full state otherwise).
//!
//! The protocol is pull-free and idempotent per round: on every
//! [`sync_node`](Replicator::sync_node) the writer decides
//!
//! 1. **first attach** (node never acked) → full sync;
//! 2. **caught up** (acked == writer seq) → nothing to send;
//! 3. **in retention** (`deltas_since` reaches back) → delta batch;
//! 4. **gap** (log evicted the node's sequence) → full sync;
//!
//! and updates its record from the node's [`NodeReply::Ack`]. A node
//! that answers [`NodeReply::Stale`] (it missed a batch the writer
//! *thought* was delivered, e.g. dropped in flight after accounting, or
//! the node restarted) is repaired with a full sync in the same round.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stgq_service::Writer;

use crate::message::{Epoch, NodeMsg, NodeReply, ReplicationPayload};
use crate::obs::RpcObs;
use crate::retry::{send_with_retry, MsgClass, RetryPolicy};
use crate::transport::{Transport, TransportError};

/// Why one node's replication round failed (the other nodes proceed).
#[derive(Clone, Debug, PartialEq)]
pub enum SyncError {
    /// The transport refused or dropped the payload; the node keeps its
    /// previous epoch and simply lags until a later round reaches it.
    Transport(TransportError),
    /// The node reported an irrecoverable apply failure.
    Node {
        /// The node's reported cause.
        reason: String,
    },
    /// The node answered outside the replication protocol.
    Protocol,
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::Transport(e) => write!(f, "transport: {e}"),
            SyncError::Node { reason } => write!(f, "node failure: {reason}"),
            SyncError::Protocol => write!(f, "unexpected reply to replication"),
        }
    }
}

impl std::error::Error for SyncError {}

/// Writer-side replication state over a fixed set of node slots.
pub struct Replicator {
    /// Per node: the last sequence it acknowledged (`None` = never).
    acked: Vec<Option<u64>>,
    /// Per node: the last epoch it acknowledged.
    epochs: Vec<Epoch>,
    /// Per node: whether the previous round's send failed — the next
    /// successful delta batch to such a node is *catch-up* traffic.
    lagging: Vec<bool>,
    /// Retry schedule for replication sends ([`MsgClass::Replication`]
    /// budget); [`RetryPolicy::none`] restores single-shot sends.
    retry: RetryPolicy,
    /// RPC round-trip histograms — shared with the owning
    /// [`Cluster`](crate::Cluster) so replication and data-plane sends
    /// land in one spectrum.
    rpc: Arc<RpcObs>,
    /// Full syncs shipped (first attaches + gap/stale repairs).
    pub full_syncs: u64,
    /// Incremental delta batches shipped.
    pub delta_batches: u64,
    /// Replication sends that the transport refused or dropped (after
    /// the whole retry budget).
    pub failed_sends: u64,
    /// Individual send retries performed.
    pub retries: u64,
    /// Delta records shipped to nodes recovering from a failed round —
    /// the "how much healing happened incrementally" counter.
    pub catch_up_deltas: u64,
}

impl Replicator {
    /// A replicator for `nodes` slots, all unattached, with single-shot
    /// sends (no retry).
    pub fn new(nodes: usize) -> Self {
        Replicator::with_retry(nodes, RetryPolicy::none())
    }

    /// A replicator whose sends retry per `retry`'s replication budget.
    pub fn with_retry(nodes: usize, retry: RetryPolicy) -> Self {
        Replicator::with_observer(nodes, retry, Arc::new(RpcObs::default()))
    }

    /// A replicator recording its send round-trips into a shared
    /// [`RpcObs`] (the cluster passes its own, so both planes merge).
    pub fn with_observer(nodes: usize, retry: RetryPolicy, rpc: Arc<RpcObs>) -> Self {
        Replicator {
            acked: vec![None; nodes],
            epochs: vec![Epoch::default(); nodes],
            lagging: vec![false; nodes],
            retry,
            rpc,
            full_syncs: 0,
            delta_batches: 0,
            failed_sends: 0,
            retries: 0,
            catch_up_deltas: 0,
        }
    }

    /// The last epoch `node` acknowledged (default zero epoch before its
    /// first ack) — the basis for replica-lag metrics.
    pub fn acked_epoch(&self, node: usize) -> Epoch {
        self.epochs[node]
    }

    /// The last sequence `node` acknowledged (`None` before attach).
    pub fn acked_seq(&self, node: usize) -> Option<u64> {
        self.acked[node]
    }

    /// Forget everything about `node` (it is being removed, or must be
    /// re-attached from scratch).
    pub fn reset_node(&mut self, node: usize) {
        self.acked[node] = None;
        self.epochs[node] = Epoch::default();
        self.lagging[node] = false;
    }

    /// Forget every node's replication state. The writer-failover path:
    /// after a promotion the new writer's delta log starts at the
    /// promoted sequence, so *every* replica (including ones ahead of
    /// the old writer's accounting) must re-attach through a full sync —
    /// which is exactly what an unattached slot gets on its next round.
    pub fn reset_all(&mut self) {
        for node in 0..self.acked.len() {
            self.reset_node(node);
        }
    }

    /// Bring one node up to the writer's current state, choosing deltas
    /// or full sync as the module docs describe. Returns the node's
    /// acknowledged epoch on success. The shipped-payload counters
    /// (`full_syncs`/`delta_batches`) move only on an acknowledged
    /// apply — a dropped send counts as `failed_sends`, nothing else.
    pub fn sync_node(
        &mut self,
        writer: &Writer,
        transport: &dyn Transport,
        node: usize,
    ) -> Result<Epoch, SyncError> {
        let (payload, is_full) = match self.acked[node] {
            None => (ReplicationPayload::Full(writer.world_state()), true),
            Some(have_seq) if have_seq >= writer.delta_seq() => {
                // Caught up: nothing to ship.
                return Ok(self.epochs[node]);
            }
            Some(have_seq) => match writer.deltas_since(have_seq) {
                Some(records) => (
                    ReplicationPayload::Deltas {
                        from_seq: have_seq,
                        records,
                    },
                    false,
                ),
                // Gap: the log no longer reaches the node's sequence.
                None => (ReplicationPayload::Full(writer.world_state()), true),
            },
        };
        let shipped_records = match &payload {
            ReplicationPayload::Deltas { records, .. } => records.len() as u64,
            ReplicationPayload::Full(_) => 0,
        };
        // A delta batch acked by a node whose previous round failed is
        // catch-up traffic (counted on ack, below — not on attempt).
        let catching_up = !is_full && self.lagging[node];
        match self.deliver(transport, node, payload)? {
            NodeReply::Ack { seq, epoch } => {
                if catching_up {
                    self.catch_up_deltas += shipped_records;
                }
                self.lagging[node] = false;
                Ok(self.note_ack(node, seq, epoch, is_full))
            }
            NodeReply::Stale { .. } => {
                // The node and the writer disagree about its history
                // (restart, or an accounted-but-lost batch): repair with
                // a full sync in the same round.
                match self.deliver(
                    transport,
                    node,
                    ReplicationPayload::Full(writer.world_state()),
                )? {
                    NodeReply::Ack { seq, epoch } => {
                        self.lagging[node] = false;
                        Ok(self.note_ack(node, seq, epoch, true))
                    }
                    NodeReply::Failed { reason } => Err(SyncError::Node { reason }),
                    _ => Err(SyncError::Protocol),
                }
            }
            NodeReply::Failed { reason } => Err(SyncError::Node { reason }),
            _ => Err(SyncError::Protocol),
        }
    }

    fn note_ack(&mut self, node: usize, seq: u64, epoch: Epoch, was_full: bool) -> Epoch {
        self.acked[node] = Some(seq);
        self.epochs[node] = epoch;
        if was_full {
            self.full_syncs += 1;
        } else {
            self.delta_batches += 1;
        }
        epoch
    }

    fn deliver(
        &mut self,
        transport: &dyn Transport,
        node: usize,
        payload: ReplicationPayload,
    ) -> Result<NodeReply, SyncError> {
        let retries = AtomicU64::new(0);
        let result = send_with_retry(
            transport,
            node,
            NodeMsg::Replicate(payload),
            &self.retry,
            MsgClass::Replication,
            &retries,
            &self.rpc,
        );
        self.retries += retries.load(Ordering::Relaxed);
        result.map_err(|e| {
            self.failed_sends += 1;
            self.lagging[node] = true;
            SyncError::Transport(e)
        })
    }
}
