//! `stgq-obs` — the observability layer behind the serving stack: latency
//! histograms, a per-query flight recorder, and Prometheus text
//! exposition.
//!
//! The serving counters (`ExecMetrics`) say *how much*
//! work ran; this crate adds the time axis — *where a query's wall clock
//! went* and *what the latency distribution looks like* — without putting
//! a lock or an allocation on the solve hot path:
//!
//! * [`Histogram`] — a lock-free log₂-bucket latency histogram: 64
//!   atomic buckets (bucket *i* holds samples in `[2^i, 2^(i+1))`
//!   nanoseconds), recorded with three relaxed atomic adds. Snapshots
//!   ([`HistogramSnapshot`]) merge by element-wise addition — exactly
//!   associative and commutative, so per-node histograms gathered across
//!   a cluster merge into the same fleet-wide distribution regardless of
//!   arrival order — and answer quantile queries with **proven bounds**:
//!   [`HistogramSnapshot::quantile_bounds`] returns the edges of the
//!   bucket containing the exact order statistic, so the true quantile
//!   always lies within the returned `[lo, hi]` (a factor-of-two band by
//!   construction).
//! * [`QueryTrace`] / [`FlightRecorder`] — each solve emits a trace of
//!   stage spans (queue wait → feasible-graph extraction → prepare →
//!   descend) plus the pruning/cache counters it touched; a
//!   bounded ring buffer keeps the most recent traces and a slowest-N
//!   slow-query log keeps the worst offenders over a configurable
//!   threshold, both dumpable as JSON.
//! * [`prom`] — a Prometheus-text-format renderer ([`prom::PromText`])
//!   and parser ([`prom::PromReport`]), so the exposition round-trips in
//!   tests and CI instead of being write-only.
//!
//! The crate has **zero dependencies** (the same offline constraint as
//! `crates/compat`): everything is `std`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod histogram;
pub mod prom;
mod trace;

pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use trace::{FlightRecorder, QueryTrace, StageBreakdown};
