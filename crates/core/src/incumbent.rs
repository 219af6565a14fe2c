//! The incumbent store shared by the searchers of one exact solve.
//!
//! Distance pruning (Lemma 2) only needs the incumbent's objective value,
//! and it needs it on every frame — so the value sits in its own [`Cell`]
//! read by copy, while the full solution payload sits in a second `Cell`
//! written only on the (rare) improvements and never borrowed. The
//! searchers of one solve (the pivots of an STGQ) all hold `&Incumbent`,
//! so both fields are written through a shared reference.

use std::cell::Cell;

use stgq_graph::Dist;

/// The best feasible solution seen so far: objective value + payload.
pub(crate) struct Incumbent<T> {
    dist: Cell<Option<Dist>>,
    payload: Cell<Option<T>>,
}

impl<T> Incumbent<T> {
    pub(crate) fn new() -> Self {
        Incumbent {
            dist: Cell::new(None),
            payload: Cell::new(None),
        }
    }

    /// Current best objective, if any solution has been recorded.
    #[inline]
    pub(crate) fn dist(&self) -> Option<Dist> {
        self.dist.get()
    }

    /// Record `(td, payload)` if it strictly improves the incumbent; the
    /// payload is built only when it does. Returns whether it was recorded.
    pub(crate) fn offer(&self, td: Dist, make: impl FnOnce() -> T) -> bool {
        // Ties lose: the strict-improvement rule.
        if self.dist.get().is_some_and(|best| best <= td) {
            return false;
        }
        self.dist.set(Some(td));
        self.payload.set(Some(make()));
        true
    }

    /// Consume the store, yielding the best `(objective, payload)`.
    pub(crate) fn into_best(self) -> Option<(Dist, T)> {
        self.dist.get().zip(self.payload.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let inc: Incumbent<Vec<u32>> = Incumbent::new();
        assert_eq!(inc.dist(), None);
        assert!(inc.into_best().is_none());
    }

    #[test]
    fn strict_improvements_only() {
        let inc: Incumbent<&str> = Incumbent::new();
        assert!(inc.offer(10, || "ten"));
        assert!(!inc.offer(10, || "tie"), "ties must lose");
        assert!(!inc.offer(11, || "worse"));
        assert!(inc.offer(3, || "three"));
        assert_eq!(inc.dist(), Some(3));
        assert_eq!(inc.into_best(), Some((3, "three")));
    }

    #[test]
    fn payload_built_lazily() {
        let inc: Incumbent<u32> = Incumbent::new();
        inc.offer(5, || 5);
        let mut built = false;
        inc.offer(9, || {
            built = true;
            9
        });
        assert!(!built, "losing offers must not build their payload");
    }
}
