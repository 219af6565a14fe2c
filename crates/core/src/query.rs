use stgq_graph::{Dist, MAX_DISTANCE};

use crate::QueryError;

/// The largest accepted `(p − 1) · s`: `Dist::MAX / MAX_DISTANCE`
/// (= 2^32 + 1). A candidate's Definition-1 distance is at most
/// `s · MAX_DISTANCE` (at most `s` edges, each at most `MAX_DISTANCE`),
/// and a group's total adds `p − 1` of them, so below this product no
/// group total can wrap a `Dist`. The bound is conservative: a path
/// also has at most `n − 1` edges, but a query is built without knowing
/// the graph's `n`.
const MAX_GROUP_SPAN: u64 = Dist::MAX / MAX_DISTANCE;

/// Parameters of a Social Group Query `SGQ(p, s, k)` (§3.1).
///
/// * `p` — activity size, **including** the initiator (`p ≥ 1`);
/// * `s` — social radius: candidates must be reachable from the initiator by
///   a path of at most `s` edges (`s ≥ 1`);
/// * `k` — acquaintance constraint: each attendee may be unacquainted with
///   at most `k` other attendees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SgqQuery {
    p: usize,
    s: usize,
    k: usize,
}

impl SgqQuery {
    /// Validate and build an SGQ. Besides `p ≥ 1` and `s ≥ 1`, the
    /// group objective must fit a [`Dist`]: `(p − 1) · s` may not exceed
    /// `Dist::MAX / MAX_DISTANCE` (= 2^32 + 1), so that `p − 1`
    /// distances of up to `s` maximal ties each cannot wrap their sum.
    pub fn new(p: usize, s: usize, k: usize) -> Result<Self, QueryError> {
        if p == 0 {
            return Err(QueryError::invalid("activity size p must be at least 1"));
        }
        if s == 0 {
            return Err(QueryError::invalid("social radius s must be at least 1"));
        }
        let span = (p as u64 - 1).checked_mul(s as u64);
        if span.is_none_or(|span| span > MAX_GROUP_SPAN) {
            return Err(QueryError::invalid(format!(
                "(p - 1) * s must be at most {MAX_GROUP_SPAN} so a group's total distance fits"
            )));
        }
        Ok(SgqQuery { p, s, k })
    }

    /// Activity size (initiator included).
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Social radius constraint.
    #[inline]
    pub fn s(&self) -> usize {
        self.s
    }

    /// Acquaintance constraint.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// A copy with a different acquaintance constraint (used by STGArrange's
    /// incremental-k sweep).
    pub fn with_k(&self, k: usize) -> Self {
        SgqQuery { k, ..*self }
    }
}

/// Parameters of a Social-Temporal Group Query `STGQ(p, s, k, m)` (§4.1):
/// an [`SgqQuery`] plus the activity length `m` in time slots (`m ≥ 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StgqQuery {
    social: SgqQuery,
    m: usize,
}

impl StgqQuery {
    /// Validate and build an STGQ.
    pub fn new(p: usize, s: usize, k: usize, m: usize) -> Result<Self, QueryError> {
        if m == 0 {
            return Err(QueryError::invalid("activity length m must be at least 1"));
        }
        Ok(StgqQuery {
            social: SgqQuery::new(p, s, k)?,
            m,
        })
    }

    /// The social part of the query.
    #[inline]
    pub fn social(&self) -> &SgqQuery {
        &self.social
    }

    /// Activity size (initiator included).
    #[inline]
    pub fn p(&self) -> usize {
        self.social.p
    }

    /// Social radius constraint.
    #[inline]
    pub fn s(&self) -> usize {
        self.social.s
    }

    /// Acquaintance constraint.
    #[inline]
    pub fn k(&self) -> usize {
        self.social.k
    }

    /// Activity length in slots.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// A copy with a different acquaintance constraint.
    pub fn with_k(&self, k: usize) -> Self {
        StgqQuery {
            social: self.social.with_k(k),
            m: self.m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgq_validation() {
        assert!(SgqQuery::new(0, 1, 0).is_err());
        assert!(SgqQuery::new(1, 0, 0).is_err());
        let q = SgqQuery::new(4, 2, 1).unwrap();
        assert_eq!((q.p(), q.s(), q.k()), (4, 2, 1));
    }

    #[test]
    fn stgq_validation() {
        assert!(StgqQuery::new(4, 1, 0, 0).is_err());
        assert!(StgqQuery::new(0, 1, 0, 3).is_err());
        let q = StgqQuery::new(6, 2, 2, 3).unwrap();
        assert_eq!((q.p(), q.s(), q.k(), q.m()), (6, 2, 2, 3));
        assert_eq!(q.social().p(), 6);
    }

    #[test]
    fn with_k_keeps_other_params() {
        let q = StgqQuery::new(6, 2, 2, 3).unwrap();
        let q0 = q.with_k(0);
        assert_eq!((q0.p(), q0.s(), q0.k(), q0.m()), (6, 2, 0, 3));
    }

    #[test]
    fn the_group_objective_is_bounded_at_construction() {
        // (p − 1) · s = 2^32 + 1 is the largest accepted product.
        let largest = 1usize << 32;
        assert!(SgqQuery::new(largest + 2, 1, 0).is_ok());
        assert!(SgqQuery::new(2, largest + 1, 0).is_ok());
        assert!(StgqQuery::new(largest + 2, 1, 0, 1).is_ok());
        assert!(StgqQuery::new(2, largest + 1, 0, 1).is_ok());
        // One more in either factor is refused, as is a product that
        // overflows the multiplication itself.
        fn refused<Q>(r: Result<Q, QueryError>) -> bool {
            matches!(r, Err(QueryError::InvalidQuery { .. }))
        }
        assert!(refused(SgqQuery::new(largest + 3, 1, 0)));
        assert!(refused(SgqQuery::new(2, largest + 2, 0)));
        assert!(refused(SgqQuery::new(usize::MAX, usize::MAX, 0)));
        assert!(refused(StgqQuery::new(largest + 3, 1, 0, 1)));
        assert!(refused(StgqQuery::new(2, largest + 2, 0, 1)));
        assert!(refused(StgqQuery::new(usize::MAX, usize::MAX, 0, 1)));
        // p = 1 has no distances to add, whatever the radius.
        assert!(SgqQuery::new(1, usize::MAX, 0).is_ok());
        // The bound is tight: (p − 1) · s maximal ties sum to Dist::MAX.
        assert_eq!(
            (largest as u64 + 1).checked_mul(MAX_DISTANCE),
            Some(Dist::MAX)
        );
    }

    #[test]
    fn k_zero_and_large_k_are_valid() {
        assert!(SgqQuery::new(3, 1, 0).is_ok());
        assert!(SgqQuery::new(3, 1, 100).is_ok());
    }
}
