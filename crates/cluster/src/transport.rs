//! The pluggable node-to-node transport.
//!
//! Two implementations ship:
//!
//! * [`InProcessTransport`] — every node lives in this process and a send
//!   is a direct dispatch, which makes the whole cluster deterministic
//!   and testable in one process. Its [`WireCodec::Json`] mode
//!   round-trips every message and reply through their JSON wire form
//!   before delivery, so anything that cannot cross a real wire fails
//!   loudly in unit tests.
//! * [`TcpTransport`](crate::TcpTransport) — the real thing: the same
//!   JSON frames over length-prefixed loopback/LAN TCP with per-peer
//!   connection pooling and timeouts (see the `tcp` module).
//!
//! [`FaultInjector`] wraps any transport and injects failures —
//! message drops (targeted, per-class, or probabilistic), added latency,
//! one-way partitions (request delivered, reply lost), and whole-node
//! crashes — all behind **per-node deterministic RNG streams** so a
//! seeded chaos run replays bit-identically regardless of scatter-thread
//! interleaving.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::message::{NodeMsg, NodeReply};
use crate::node::ClusterNode;

/// Why a send did not produce a reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// No node is registered at this index.
    UnknownNode {
        /// The offending index.
        node: usize,
    },
    /// The message was dropped in flight (fault injection; a real
    /// transport surfaces timeouts the same way).
    Dropped,
    /// The message or reply failed to encode/decode on the wire.
    Codec(String),
    /// A socket-level failure: connect refused, read/write timeout,
    /// connection reset. Transient for retry purposes.
    Io(String),
    /// The thread carrying the exchange panicked; the reply is lost.
    Panicked,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownNode { node } => write!(f, "no node registered at {node}"),
            TransportError::Dropped => write!(f, "message dropped in flight"),
            TransportError::Codec(why) => write!(f, "wire codec failure: {why}"),
            TransportError::Io(why) => write!(f, "transport i/o failure: {why}"),
            TransportError::Panicked => write!(f, "the exchange's thread panicked"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Node-to-node messaging: send one [`NodeMsg`] to the node at `node`
/// and wait for its [`NodeReply`] (RPC-shaped, like the network
/// transport it stands in for).
pub trait Transport: Send + Sync {
    /// Deliver `msg` to node `node` and return its reply.
    fn send(&self, node: usize, msg: NodeMsg) -> Result<NodeReply, TransportError>;

    /// How many node slots this transport can address.
    fn node_count(&self) -> usize;
}

/// How the in-process transport moves messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireCodec {
    /// Direct dispatch: the message value is handed to the node as-is.
    #[default]
    Direct,
    /// Serialize → JSON text → deserialize on both the message and the
    /// reply, proving every exchanged value is wire-encodable.
    Json,
}

/// The in-process transport: all nodes live in this process; a send is
/// a (possibly codec-round-tripped) direct call into the node.
pub struct InProcessTransport {
    nodes: Vec<Arc<ClusterNode>>,
    codec: WireCodec,
}

impl InProcessTransport {
    /// A transport over `nodes` with direct dispatch.
    pub fn new(nodes: Vec<Arc<ClusterNode>>) -> Self {
        InProcessTransport {
            nodes,
            codec: WireCodec::Direct,
        }
    }

    /// The same transport with an explicit codec.
    pub fn with_codec(nodes: Vec<Arc<ClusterNode>>, codec: WireCodec) -> Self {
        InProcessTransport { nodes, codec }
    }
}

impl Transport for InProcessTransport {
    fn send(&self, node: usize, msg: NodeMsg) -> Result<NodeReply, TransportError> {
        let target = self
            .nodes
            .get(node)
            .ok_or(TransportError::UnknownNode { node })?;
        match self.codec {
            WireCodec::Direct => Ok(target.handle(msg)),
            WireCodec::Json => {
                let encoded = serde_json::to_string(&msg)
                    .map_err(|e| TransportError::Codec(e.to_string()))?;
                let decoded: NodeMsg = serde_json::from_str(&encoded)
                    .map_err(|e| TransportError::Codec(e.to_string()))?;
                let reply = target.handle(decoded);
                let encoded = serde_json::to_string(&reply)
                    .map_err(|e| TransportError::Codec(e.to_string()))?;
                serde_json::from_str(&encoded).map_err(|e| TransportError::Codec(e.to_string()))
            }
        }
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Per-node fault switches (all default off).
#[derive(Clone, Debug, Default)]
struct NodeFaults {
    /// Drop replication messages only (data/status still flow).
    drop_replication: bool,
    /// Drop every message toward the node (two-way partition, writer
    /// side).
    partition_to: bool,
    /// Deliver the message, drop the **reply** (one-way partition: the
    /// node applies the payload but the sender sees a loss — the
    /// accounted-but-lost case the `Stale` repair path exists for).
    partition_from: bool,
    /// The node has crashed: every message fails (pair with
    /// [`ClusterNode::reset`] to model the lost memory).
    crashed: bool,
    /// Probability in `[0, 1]` of dropping any given message (drawn from
    /// this node's deterministic RNG stream).
    drop_probability: f64,
    /// Added latency before delivery.
    delay: Duration,
    /// SplitMix64 state for this node's probabilistic decisions. Per-node
    /// streams keep seeded runs deterministic even though the router
    /// scatters from one thread per node: each node's decision sequence
    /// depends only on the order of messages *to that node*.
    rng: u64,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counters of what the injector actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages swallowed (all causes: targeted, probabilistic, crash,
    /// partition — replies dropped by one-way partitions included).
    pub dropped: u64,
    /// Messages delivered late.
    pub delayed: u64,
}

/// A decorator injecting transport faults in front of any inner
/// transport — deterministic chaos for the self-healing tests.
///
/// All switches are per-node and can be flipped mid-run. Probabilistic
/// drops draw from per-node SplitMix64 streams derived from one seed, so
/// a chaos test that replays the same seed and the same message order
/// per node makes identical drop decisions.
pub struct FaultInjector {
    inner: Arc<dyn Transport>,
    faults: Mutex<Vec<NodeFaults>>,
    counters: Mutex<FaultCounters>,
}

impl FaultInjector {
    /// Wrap `inner` with no faults active (seed 0).
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        FaultInjector::with_seed(inner, 0)
    }

    /// Wrap `inner` with per-node RNG streams derived from `seed`.
    pub fn with_seed(inner: Arc<dyn Transport>, seed: u64) -> Self {
        let faults = (0..inner.node_count())
            .map(|node| NodeFaults {
                // Distinct, seed-determined stream per node.
                rng: seed ^ (node as u64).wrapping_mul(0xA076_1D64_78BD_642F),
                ..NodeFaults::default()
            })
            .collect();
        FaultInjector {
            inner,
            faults: Mutex::new(faults),
            counters: Mutex::new(FaultCounters::default()),
        }
    }

    fn with_node<R>(&self, node: usize, f: impl FnOnce(&mut NodeFaults) -> R) -> Option<R> {
        self.faults.lock().get_mut(node).map(f)
    }

    /// Start (or stop) dropping **replication** messages to `node`
    /// (data-plane and status messages still flow, so a lagging node
    /// stays observable).
    pub fn set_drop_replication(&self, node: usize, drop: bool) {
        self.with_node(node, |f| f.drop_replication = drop);
    }

    /// Partition the path **toward** `node`: every message to it is
    /// dropped before delivery.
    pub fn set_partition_to(&self, node: usize, on: bool) {
        self.with_node(node, |f| f.partition_to = on);
    }

    /// One-way partition **from** `node`: messages are delivered (the
    /// node applies them) but the replies are lost — the sender observes
    /// a drop. This is the accounting-hazard case: a replica can be ahead
    /// of what the writer believes it acked.
    pub fn set_partition_from(&self, node: usize, on: bool) {
        self.with_node(node, |f| f.partition_from = on);
    }

    /// Crash `node`: every message to it fails until
    /// [`restart`](Self::restart). The injector only severs the wires —
    /// pair with [`ClusterNode::reset`] so the "rebooted" node has also
    /// lost its in-memory world, as a real crash would.
    pub fn crash(&self, node: usize) {
        self.with_node(node, |f| f.crashed = true);
    }

    /// Bring a crashed `node`'s network back. Its state is whatever the
    /// caller left it (reset for a real crash, intact for a zombie).
    pub fn restart(&self, node: usize) {
        self.with_node(node, |f| f.crashed = false);
    }

    /// Drop any message to `node` with probability `p`, drawn from the
    /// node's deterministic stream.
    pub fn set_drop_probability(&self, node: usize, p: f64) {
        self.with_node(node, |f| f.drop_probability = p.clamp(0.0, 1.0));
    }

    /// Delay every message to `node` by `delay` before delivery.
    pub fn set_delay(&self, node: usize, delay: Duration) {
        self.with_node(node, |f| f.delay = delay);
    }

    /// Clear every fault on every node.
    pub fn heal_all(&self) {
        let mut faults = self.faults.lock();
        for f in faults.iter_mut() {
            let rng = f.rng;
            *f = NodeFaults {
                rng,
                ..NodeFaults::default()
            };
        }
    }

    /// Messages swallowed so far (all causes).
    pub fn dropped(&self) -> u64 {
        self.counters.lock().dropped
    }

    /// What the injector has done so far.
    pub fn counters(&self) -> FaultCounters {
        *self.counters.lock()
    }

    fn note_drop(&self) {
        self.counters.lock().dropped += 1;
    }
}

impl Transport for FaultInjector {
    fn send(&self, node: usize, msg: NodeMsg) -> Result<NodeReply, TransportError> {
        // One locked pass decides this message's fate; the actual sleep
        // and delivery happen outside the lock so injected latency on one
        // node never stalls traffic to another.
        let (delay, swallow, drop_reply) = {
            let mut faults = self.faults.lock();
            let Some(f) = faults.get_mut(node) else {
                return self.inner.send(node, msg);
            };
            let targeted = f.crashed
                || f.partition_to
                || (f.drop_replication && matches!(msg, NodeMsg::Replicate(_)));
            let random = f.drop_probability > 0.0 && {
                let draw = (splitmix(&mut f.rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                draw < f.drop_probability
            };
            (f.delay, targeted || random, f.partition_from)
        };
        if !delay.is_zero() {
            self.counters.lock().delayed += 1;
            std::thread::sleep(delay);
        }
        if swallow {
            self.note_drop();
            return Err(TransportError::Dropped);
        }
        let reply = self.inner.send(node, msg);
        if drop_reply && reply.is_ok() {
            self.note_drop();
            return Err(TransportError::Dropped);
        }
        reply
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transport that answers every send with a status reply.
    struct Echo(usize);
    impl Transport for Echo {
        fn send(&self, _node: usize, _msg: NodeMsg) -> Result<NodeReply, TransportError> {
            Ok(NodeReply::Status(crate::message::NodeStatus::default()))
        }
        fn node_count(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn probabilistic_drops_replay_bit_identically_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::with_seed(Arc::new(Echo(2)), seed);
            inj.set_drop_probability(1, 0.5);
            (0..64)
                .map(|_| inj.send(1, NodeMsg::Status).is_err())
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same fate sequence");
        assert_ne!(run(7), run(8), "different seed, different sequence");
        let drops = run(7).iter().filter(|&&d| d).count();
        assert!((10..=54).contains(&drops), "p=0.5 drops roughly half");
    }

    #[test]
    fn node_streams_are_independent() {
        let inj = FaultInjector::with_seed(Arc::new(Echo(3)), 42);
        inj.set_drop_probability(2, 0.5);
        // Traffic to node 0 must not perturb node 2's decision stream.
        let fates: Vec<bool> = (0..16)
            .map(|i| {
                if i % 2 == 0 {
                    let _ = inj.send(0, NodeMsg::Status);
                }
                inj.send(2, NodeMsg::Status).is_err()
            })
            .collect();
        let inj2 = FaultInjector::with_seed(Arc::new(Echo(3)), 42);
        inj2.set_drop_probability(2, 0.5);
        let fates2: Vec<bool> = (0..16)
            .map(|_| inj2.send(2, NodeMsg::Status).is_err())
            .collect();
        assert_eq!(fates, fates2);
    }

    #[test]
    fn crash_partitions_and_restart() {
        let inj = FaultInjector::new(Arc::new(Echo(2)));
        assert!(inj.send(1, NodeMsg::Status).is_ok());
        inj.crash(1);
        assert_eq!(inj.send(1, NodeMsg::Status), Err(TransportError::Dropped));
        inj.restart(1);
        assert!(inj.send(1, NodeMsg::Status).is_ok());

        inj.set_partition_from(1, true);
        assert_eq!(
            inj.send(1, NodeMsg::Status),
            Err(TransportError::Dropped),
            "one-way partition: delivered but reply lost"
        );
        inj.heal_all();
        assert!(inj.send(1, NodeMsg::Status).is_ok());
        assert!(inj.counters().dropped >= 2);
    }
}
