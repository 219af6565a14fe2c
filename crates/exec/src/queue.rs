//! The blocking job queue and completion slots (std `Mutex` + `Condvar`; the
//! workspace's `parking_lot` shim deliberately has no condition
//! variables).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::request::{ExecError, PlanOutcome};

/// A closeable MPMC queue: the worker pool blocks on it, batch callers
/// drain it opportunistically, and `Drop` closes it to release every
/// worker.
pub(crate) struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    cv: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> JobQueue<T> {
    pub(crate) fn new() -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueue; returns `false` (dropping the item) after `close`.
    pub(crate) fn push(&self, item: T) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return false;
        }
        state.items.push_back(item);
        drop(state);
        self.cv.notify_one();
        true
    }

    /// Block until an item is available or the queue is closed (`None`).
    pub(crate) fn pop_blocking(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Take an item without blocking (used by batch callers helping to
    /// drain their own batch).
    pub(crate) fn try_pop(&self) -> Option<T> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .pop_front()
    }

    /// Close the queue: wakes every blocked `pop_blocking` with `None`.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.cv.notify_all();
    }
}

/// One batched request's completion slot: a worker (or the helping
/// batch caller) fulfills it, the batch caller waits on it.
pub(crate) struct TicketSlot {
    state: Mutex<Option<Result<PlanOutcome, ExecError>>>,
    cv: Condvar,
}

impl TicketSlot {
    pub(crate) fn new() -> Self {
        TicketSlot {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Deliver the result (exactly once) and wake the waiter.
    pub(crate) fn fulfill(&self, result: Result<PlanOutcome, ExecError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(state.is_none(), "a ticket is fulfilled exactly once");
        *state = Some(result);
        drop(state);
        self.cv.notify_all();
    }

    /// Block until the result is delivered, then take it.
    pub(crate) fn wait(&self) -> Result<PlanOutcome, ExecError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_is_fifo_and_closeable() {
        let q: JobQueue<u32> = JobQueue::new();
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.pop_blocking(), Some(2));
        q.close();
        assert!(!q.push(3), "closed queue refuses work");
        assert_eq!(q.pop_blocking(), None);
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn closed_queue_releases_blocked_workers() {
        let q: std::sync::Arc<JobQueue<u32>> = std::sync::Arc::new(JobQueue::new());
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_blocking());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }
}
