//! Per-solve wall-clock stage timings.
//!
//! The exact STGQ engines interleave pivot preparation and descent
//! inside one loop, so a profiler sees a single hot blob. Every
//! sequential STGQ solve splits its own wall clock live instead: the
//! [`PivotArena`] it ran on carries a fresh [`StageTimings`] afterwards,
//! separating *preparation* (eligibility, peel, floors, availability
//! words — everything up to opening the first frame of a pivot) from
//! *descent* (exact frame expansion). The execution layer reads the
//! split off its workers' arenas into latency histograms and per-query
//! flight-recorder traces; the `probe` binary in `stgq-bench` reads it
//! for perf reports.
//!
//! Recording ([`PivotArena::record_timings`], on by default) costs two
//! clock reads per *descended* pivot. Skipped and refused pivots fold
//! into the following preparation span, so the spans tile the pivot
//! loop: `prepare_ns + descend_ns` ≈ the loop's wall clock. Cheap enough
//! to leave on in production serving.
//!
//! Timings are wall-clock and therefore never part of [`SearchStats`] or
//! any solve outcome: outcomes stay deterministic and bit-comparable
//! across runs, while timings live on the arena the caller owns.
//!
//! SGQ solves do not fill timings (the arena is an STGQ structure);
//! they leave the arena's timings at [`StageTimings::default`].
//!
//! [`PivotArena`]: crate::PivotArena
//! [`PivotArena::record_timings`]: crate::PivotArena::record_timings
//! [`SearchStats`]: crate::SearchStats

/// Wall-clock split of one sequential STGQ solve, read off the
/// [`PivotArena`](crate::PivotArena) it ran on. See the module docs for
/// what the spans cover and what recording costs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Nanoseconds preparing pivots: Definition-4 eligibility, access
    /// order, peel, floors, availability-word materialization, incumbent
    /// seeding — everything in the pivot loop that is not exact descent.
    pub prepare_ns: u64,
    /// Nanoseconds in exact-search descent (frame expansion).
    pub descend_ns: u64,
    /// Pivot slots probed (the initiator's hostable pivots).
    pub pivots: u64,
    /// Pivots that survived phase 1 (initiator + enough eligible).
    pub prepared: u64,
    /// Pivots that opened at least one search frame.
    pub descended: u64,
}

impl StageTimings {
    /// Whether this solve recorded nothing (recording off, or a path —
    /// SGQ, trivial `p = 1` — that never enters the pivot
    /// loop).
    pub fn is_empty(&self) -> bool {
        *self == StageTimings::default()
    }
}
