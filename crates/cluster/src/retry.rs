//! Retry with bounded exponential backoff and deterministic jitter.
//!
//! Every send that crosses the transport is wrapped in a
//! [`RetryPolicy`]: a transient failure (dropped frame, connect refused,
//! read timeout) is retried up to a **per-message-class budget** before
//! the failure is surfaced. The classes differ on purpose:
//!
//! * **replication** gets the largest budget — a lost delta batch costs
//!   a full sync later, so spending a few retries is cheap insurance;
//! * **execute** (scatter/gather) gets a small budget — the caller is
//!   waiting, and the self-healing layer re-dispatches to another node
//!   anyway once the budget is exhausted;
//! * **status** (heartbeats) gets exactly one attempt — a heartbeat *is*
//!   the probe; retrying it would hide the misses the failure detector
//!   exists to count.
//!
//! Backoff is exponential from [`base_delay`](RetryPolicy::base_delay)
//! capped at [`max_delay`](RetryPolicy::max_delay), with deterministic
//! jitter: the jitter factor is a pure function of `(seed, class,
//! attempt)` (SplitMix64), so two runs of a seeded chaos test sleep the
//! same schedule and replay bit-identically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::message::{NodeMsg, NodeReply};
use crate::obs::RpcObs;
use crate::transport::{Transport, TransportError};

/// Which plane a message belongs to — each has its own retry budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgClass {
    /// Writer → replica snapshot replication ([`NodeMsg::Replicate`]).
    Replication,
    /// Router → node scatter/gather ([`NodeMsg::Execute`]).
    Execute,
    /// Heartbeat and observability probes: the failure detector's
    /// [`NodeMsg::Status`] and
    /// [`Cluster::observability`](crate::Cluster::observability)'s
    /// [`NodeMsg::Metrics`](crate::NodeMsg::Metrics). Failover's status
    /// probe and its [`NodeMsg::Export`](crate::NodeMsg::Export) take
    /// the [`Execute`](Self::Execute) budget instead: a failover is
    /// worth retries.
    Status,
}

/// Bounded exponential backoff with deterministic jitter and per-class
/// attempt budgets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included) for replication sends.
    pub replication_attempts: u32,
    /// Total attempts for scatter/gather sends.
    pub execute_attempts: u32,
    /// Total attempts for status/heartbeat probes (keep at 1 so missed
    /// heartbeats stay observable).
    pub status_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter seed — the same seed replays the same backoff schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            replication_attempts: 3,
            execute_attempts: 3,
            status_attempts: 1,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never sleeps — restores the
    /// pre-retry behavior for tests that assert on single-send outcomes.
    pub fn none() -> Self {
        RetryPolicy {
            replication_attempts: 1,
            execute_attempts: 1,
            status_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            seed: 0,
        }
    }

    /// The attempt budget for `class` (always at least 1).
    pub fn attempts(&self, class: MsgClass) -> u32 {
        let n = match class {
            MsgClass::Replication => self.replication_attempts,
            MsgClass::Execute => self.execute_attempts,
            MsgClass::Status => self.status_attempts,
        };
        n.max(1)
    }

    /// The backoff before retry number `retry` (1-based): exponential
    /// from `base_delay`, capped at `max_delay`, scaled by a
    /// deterministic jitter factor in `[0.5, 1.0]` drawn from
    /// `(seed, class, retry)`.
    pub fn delay(&self, class: MsgClass, retry: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_delay
            .saturating_mul(1u32 << retry.saturating_sub(1).min(16))
            .min(self.max_delay);
        // SplitMix64 over (seed, class, retry): a pure function, so a
        // replayed chaos run sleeps the identical schedule.
        let class_tag = match class {
            MsgClass::Replication => 1u64,
            MsgClass::Execute => 2,
            MsgClass::Status => 3,
        };
        let mut z = self
            .seed
            .wrapping_add(class_tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((retry as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let jitter = 0.5 + (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * 0.5;
        exp.mul_f64(jitter)
    }
}

/// Send `msg` to `node`, retrying transport failures within the class
/// budget (each retry bumps `retries` — the cluster-wide robustness
/// counter). Protocol-level replies are never retried: a node that
/// *answered* is alive, whatever it said. The whole call — every
/// attempt plus every backoff sleep — is recorded as one round-trip in
/// `rpc`'s class histogram, success or not.
pub(crate) fn send_with_retry(
    transport: &dyn Transport,
    node: usize,
    msg: NodeMsg,
    policy: &RetryPolicy,
    class: MsgClass,
    retries: &AtomicU64,
    rpc: &RpcObs,
) -> Result<NodeReply, TransportError> {
    let t0 = Instant::now();
    let result = send_once_budgeted(transport, node, msg, policy, class, retries);
    rpc.for_class(class).record(t0.elapsed());
    result
}

fn send_once_budgeted(
    transport: &dyn Transport,
    node: usize,
    msg: NodeMsg,
    policy: &RetryPolicy,
    class: MsgClass,
    retries: &AtomicU64,
) -> Result<NodeReply, TransportError> {
    let budget = policy.attempts(class);
    let mut attempt = 1u32;
    loop {
        if attempt == budget {
            // Final (or only) attempt: consume the message — a
            // single-shot policy never pays a clone.
            return transport.send(node, msg);
        }
        match transport.send(node, msg.clone()) {
            Ok(reply) => return Ok(reply),
            Err(TransportError::UnknownNode { node }) => {
                // Misconfiguration, not a transient fault: no retry.
                return Err(TransportError::UnknownNode { node });
            }
            Err(_) => {
                retries.fetch_add(1, Ordering::Relaxed);
                let delay = policy.delay(class, attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_per_class_and_at_least_one() {
        let p = RetryPolicy::default();
        assert_eq!(p.attempts(MsgClass::Replication), 3);
        assert_eq!(p.attempts(MsgClass::Status), 1, "heartbeats never retry");
        let zeroed = RetryPolicy {
            replication_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(zeroed.attempts(MsgClass::Replication), 1);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let p = RetryPolicy {
            base_delay: Duration::from_millis(4),
            max_delay: Duration::from_millis(20),
            seed: 7,
            ..RetryPolicy::default()
        };
        let d1 = p.delay(MsgClass::Execute, 1);
        let d2 = p.delay(MsgClass::Execute, 2);
        let d9 = p.delay(MsgClass::Execute, 9);
        assert_eq!(
            d1,
            p.delay(MsgClass::Execute, 1),
            "pure in (seed, class, retry)"
        );
        assert!(d1 >= Duration::from_millis(2) && d1 <= Duration::from_millis(4));
        assert!(d2 >= Duration::from_millis(4) && d2 <= Duration::from_millis(8));
        assert!(d9 <= Duration::from_millis(20), "capped at max_delay");
        assert_ne!(
            p.delay(MsgClass::Execute, 1),
            p.delay(MsgClass::Replication, 1),
            "classes draw distinct jitter streams"
        );
    }

    #[test]
    fn zero_base_delay_never_sleeps() {
        let p = RetryPolicy::none();
        assert_eq!(p.delay(MsgClass::Replication, 1), Duration::ZERO);
        assert_eq!(p.delay(MsgClass::Replication, 30), Duration::ZERO);
    }
}
