//! The repository's serving benchmark.
//!
//! Each workload is generated from a seed, driven through the public
//! planner or cluster API by one client thread in a closed loop, and its
//! answers are checked by an untimed verify pass. An untraced phase gives
//! the end-to-end metrics; a separate traced phase over the same stream
//! gives the per-layer metrics from spans the benchmark records around
//! its own calls plus per-call deltas of the counters and histograms the
//! serving layers export. See `README.md` for the metrics, the layers and
//! which end-to-end number each layer metric should move.

pub mod report;
pub mod run;
pub mod target;
pub mod trace;
pub mod util;
pub mod verify;
pub mod workload;
