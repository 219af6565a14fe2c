//! Shard-partitioned calendars and the [`Cals`] access view.
//!
//! The sharded world snapshot stores calendars the same way it stores
//! adjacency: person `v`'s calendar lives in shard `v % S` at local row
//! `v / S`. Each shard is an independently-replaceable
//! `Arc<CalendarShard>`, itself a vector of `Arc`'d chunks of
//! [`CHUNK_ROWS`] calendars. A calendar edit republishes one shard by
//! re-assembling its chunk vector: the chunk holding the edited
//! calendar is rebuilt, every other chunk and the other `S − 1` shards
//! are `Arc`-reused.
//!
//! The STGQ engines index calendars by **original** vertex id. [`Cals`]
//! is the zero-cost view they take: either a flat `&[Calendar]` (tests,
//! oracles, the graph-level entry points) or a `&CalendarShards`
//! (the execution layer reading a sharded snapshot). Both convert via
//! `Into`, so existing call sites pass slices unchanged.

use std::sync::Arc;

use crate::Calendar;

/// Calendars per chunk of a [`CalendarShard`]: the unit a snapshot
/// republication rebuilds. Equal to `stgq_graph::CHUNK_ROWS`, so a
/// person's calendar and adjacency row sit in chunks of the same index.
/// A fixed property of the storage layout, not a tuning knob.
pub const CHUNK_ROWS: usize = 64;

/// One shard's calendars: every person `v` with `v % S == shard`, in
/// ascending `v`, as `Arc`'d chunks — local row `r` is entry
/// `r % CHUNK_ROWS` of chunk `r / CHUNK_ROWS`. Every chunk but the last
/// is full.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CalendarShard {
    chunks: Vec<Arc<[Calendar]>>,
    len: usize,
}

impl CalendarShard {
    /// Chunk a sequence of calendars (local rows in order).
    pub fn build(calendars: impl IntoIterator<Item = Calendar>) -> Self {
        let mut calendars = calendars.into_iter().peekable();
        let mut chunks = Vec::new();
        while calendars.peek().is_some() {
            chunks.push(calendars.by_ref().take(CHUNK_ROWS).collect());
        }
        CalendarShard::from_chunks(chunks)
    }

    /// Assemble a shard from its chunks, in row order — the
    /// republication path, which passes `Arc`-reused chunks for the
    /// untouched calendars and freshly built ones for the rest.
    ///
    /// # Panics
    /// Panics unless every chunk but the last holds exactly
    /// [`CHUNK_ROWS`] calendars and the last holds at least one.
    pub fn from_chunks(chunks: Vec<Arc<[Calendar]>>) -> Self {
        let last = chunks.len().saturating_sub(1);
        let mut len = 0;
        for (c, chunk) in chunks.iter().enumerate() {
            assert!(
                chunk.len() == CHUNK_ROWS || (c == last && !chunk.is_empty()),
                "calendar chunk {c} of {} holds {} calendars",
                chunks.len(),
                chunk.len()
            );
            len += chunk.len();
        }
        CalendarShard { chunks, len }
    }

    /// Number of calendars (people homed in this shard).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the shard holds no calendars.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunks, in row order (for `Arc`-reuse on republication).
    #[inline]
    pub fn chunks(&self) -> &[Arc<[Calendar]>] {
        &self.chunks
    }

    /// The calendar at local row `r`.
    #[inline]
    pub fn get(&self, r: usize) -> &Calendar {
        &self.chunks[r / CHUNK_ROWS][r % CHUNK_ROWS]
    }
}

/// Shard-partitioned calendar storage: `shards[s]` holds the calendars
/// of every person `v` with `v % S == s`, in ascending `v`.
#[derive(Clone, Debug)]
pub struct CalendarShards {
    shards: Vec<Arc<CalendarShard>>,
    len: usize,
}

impl CalendarShards {
    /// Assemble from per-shard calendars. The total count is the sum of
    /// shard lengths (residue classes partition `0..n`).
    ///
    /// # Panics
    /// Panics if `shards` is empty or the per-shard lengths are
    /// inconsistent with a residue partition.
    pub fn new(shards: Vec<Arc<CalendarShard>>) -> Self {
        assert!(!shards.is_empty(), "at least one shard required");
        let count = shards.len();
        let len: usize = shards.iter().map(|s| s.len()).sum();
        for (s, shard) in shards.iter().enumerate() {
            let expect = len.saturating_sub(s).div_ceil(count);
            assert_eq!(
                shard.len(),
                expect,
                "calendar shard {s} of {count} over {len} people must hold {expect} rows"
            );
        }
        CalendarShards { shards, len }
    }

    /// Partition a flat calendar vector into `shards` slices.
    pub fn from_flat(calendars: &[Calendar], shards: usize) -> Self {
        let shards = shards.max(1);
        let parts = (0..shards)
            .map(|s| {
                Arc::new(CalendarShard::build(
                    calendars.iter().skip(s).step_by(shards).cloned(),
                ))
            })
            .collect();
        CalendarShards::new(parts)
    }

    /// Total number of people covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no people are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's calendars.
    #[inline]
    pub fn shard(&self, s: usize) -> &Arc<CalendarShard> {
        &self.shards[s]
    }

    /// Person `v`'s calendar.
    #[inline]
    pub fn get(&self, v: usize) -> &Calendar {
        let s = self.shards.len();
        self.shards[v % s].get(v / s)
    }
}

/// The calendar view the STGQ engines read: flat slice or sharded
/// storage, one `get(person)` either way. `Copy`, so it threads through
/// the solvers (including the scoped-thread parallel engine) like the
/// slice it replaces.
#[derive(Clone, Copy, Debug)]
pub enum Cals<'a> {
    /// A flat per-person vector (index = person id).
    Flat(&'a [Calendar]),
    /// Shard-partitioned storage (`person % S` / `person / S`).
    Sharded(&'a CalendarShards),
}

impl<'a> Cals<'a> {
    /// Person `v`'s calendar.
    #[inline]
    pub fn get(&self, v: usize) -> &'a Calendar {
        match *self {
            Cals::Flat(slice) => &slice[v],
            Cals::Sharded(shards) => shards.get(v),
        }
    }

    /// Number of people covered.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Cals::Flat(slice) => slice.len(),
            Cals::Sharded(shards) => shards.len,
        }
    }

    /// Whether no people are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first calendar, if any — the engines read the shared horizon
    /// off it.
    #[inline]
    pub fn first(&self) -> Option<&'a Calendar> {
        (!self.is_empty()).then(|| self.get(0))
    }
}

impl<'a> From<&'a [Calendar]> for Cals<'a> {
    fn from(slice: &'a [Calendar]) -> Self {
        Cals::Flat(slice)
    }
}

impl<'a> From<&'a Vec<Calendar>> for Cals<'a> {
    fn from(vec: &'a Vec<Calendar>) -> Self {
        Cals::Flat(vec)
    }
}

impl<'a> From<&'a CalendarShards> for Cals<'a> {
    fn from(shards: &'a CalendarShards) -> Self {
        Cals::Sharded(shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize, horizon: usize) -> Vec<Calendar> {
        (0..n)
            .map(|v| Calendar::from_slots(horizon, (0..horizon).filter(|t| (t + v) % 3 == 0)))
            .collect()
    }

    #[test]
    fn sharded_view_matches_the_flat_slice() {
        for shards in [1, 2, 3, 5, 16] {
            for n in [0usize, 1, 7, 33] {
                let flat = pool(n, 12);
                let sharded = CalendarShards::from_flat(&flat, shards);
                assert_eq!(sharded.len(), n);
                let view: Cals<'_> = (&sharded).into();
                let flat_view: Cals<'_> = flat.as_slice().into();
                assert_eq!(view.len(), flat_view.len());
                for v in 0..n {
                    assert_eq!(view.get(v), flat_view.get(v), "shards {shards} person {v}");
                }
                assert_eq!(view.first(), flat.first());
            }
        }
    }

    #[test]
    fn shard_vectors_partition_by_residue() {
        let flat = pool(10, 6);
        let sharded = CalendarShards::from_flat(&flat, 4);
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.shard(0).len(), 3);
        assert_eq!(sharded.shard(1).len(), 3);
        assert_eq!(sharded.shard(2).len(), 2);
        assert_eq!(sharded.shard(3).len(), 2);
        assert_eq!(
            sharded.shard(1).get(2),
            &flat[9],
            "person 9 = shard 1 row 2"
        );
    }

    #[test]
    fn shards_span_several_chunks_with_a_partial_last_one() {
        // 300 people on 2 shards: 150 each = two full chunks plus a tail.
        let flat = pool(300, 8);
        let sharded = CalendarShards::from_flat(&flat, 2);
        for s in 0..2 {
            let sizes: Vec<usize> = sharded.shard(s).chunks().iter().map(|c| c.len()).collect();
            assert_eq!(sizes, vec![CHUNK_ROWS, CHUNK_ROWS, 150 - 2 * CHUNK_ROWS]);
        }
        for (v, calendar) in flat.iter().enumerate() {
            assert_eq!(sharded.get(v), calendar, "person {v}");
        }
    }

    #[test]
    #[should_panic(expected = "calendar chunk 0 of 2 holds 1 calendars")]
    fn only_the_last_calendar_chunk_may_be_short() {
        let short: Arc<[Calendar]> = pool(1, 4).into();
        CalendarShard::from_chunks(vec![Arc::clone(&short), short]);
    }
}
