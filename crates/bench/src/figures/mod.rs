//! One module per panel of the paper's Figure 1, plus shared dataset
//! setups. Every module exposes `run(scale) -> Table`; the tables are what
//! EXPERIMENTS.md quotes.
//!
//! The harness doubles as a cross-check: whenever two exact engines run on
//! the same input, their objectives are asserted equal — a benchmark run
//! that completes *is* an end-to-end correctness certificate.

pub mod ablation;
pub mod ext_kplex;
pub mod ext_quality;
pub mod fig1a;
pub mod fig1b;
pub mod fig1c;
pub mod fig1d;
pub mod fig1e;
pub mod fig1f;
pub mod fig1g;
pub mod fig1h;
mod quality;

use stgq_datagen::scenario::{
    calendar_churn, plaza, real_analog_194, sparse_fringe, synthetic_coauthor,
};
use stgq_datagen::{pick_initiator, Dataset};
use stgq_graph::{NodeId, SocialGraph};

use crate::{Scale, Table, SEED};

/// Target initiator degree: keeps the exhaustive baseline's
/// `C(deg, p−1)` enumeration comparable across datasets (the paper's
/// initiators have ~20–25 direct friends on the 194-person data).
pub const INITIATOR_DEGREE: usize = 20;

/// The SGQ dataset: 194-person real-data analog (calendars unused).
pub fn sgq_dataset() -> (SocialGraph, NodeId) {
    let ds = real_analog_194(1, SEED);
    let q = pick_initiator(&ds.graph, INITIATOR_DEGREE);
    (ds.graph, q)
}

/// The STGQ dataset over `days` days of half-hour slots.
pub fn stgq_dataset(days: usize) -> (Dataset, NodeId) {
    let ds = real_analog_194(days, SEED);
    let q = pick_initiator(&ds.graph, INITIATOR_DEGREE);
    (ds, q)
}

/// The sparse-fringe STGQ dataset over `days` days: community core plus
/// low-degree fans, where candidate peeling actually excludes people
/// (see [`stgq_datagen::scenario::sparse_fringe`]).
pub fn sparse_fringe_dataset(days: usize) -> (Dataset, NodeId) {
    let ds = sparse_fringe(days, SEED);
    let q = pick_initiator(&ds.graph, INITIATOR_DEGREE);
    (ds, q)
}

/// The calendar-churn STGQ dataset over `days` days: dense long-run
/// calendars with per-person jitter, the workload where pivot
/// preparation dominates the solve (see
/// [`stgq_datagen::scenario::calendar_churn`]).
pub fn calendar_churn_dataset(days: usize) -> (Dataset, NodeId) {
    let ds = calendar_churn(days, SEED);
    let q = pick_initiator(&ds.graph, INITIATOR_DEGREE);
    (ds, q)
}

/// The plaza dataset over `days` days: one hub acquainted with all 1200
/// people on the square, heavy CSR rows, shallow descent — the
/// extraction-bound workload (see [`stgq_datagen::scenario::plaza`]).
/// The initiator is the hub itself, not a degree-20 pick: the whole
/// point is the world-sized radius-1 eligible set.
pub fn plaza_dataset(days: usize) -> (Dataset, NodeId) {
    (plaza(days, SEED), NodeId(0))
}

/// The Figure-1(d) coauthorship dataset at size `n`.
pub fn coauthor_dataset(n: usize) -> (SocialGraph, NodeId) {
    let ds = synthetic_coauthor(n, 1, SEED);
    let q = pick_initiator(&ds.graph, INITIATOR_DEGREE);
    (ds.graph, q)
}

/// Run a figure by id (`"fig1a"`…`"fig1h"`).
pub fn run_figure(id: &str, scale: Scale) -> Option<Table> {
    match id {
        "fig1a" => Some(fig1a::run(scale)),
        "fig1b" => Some(fig1b::run(scale)),
        "fig1c" => Some(fig1c::run(scale)),
        "fig1d" => Some(fig1d::run(scale)),
        "fig1e" => Some(fig1e::run(scale)),
        "fig1f" => Some(fig1f::run(scale)),
        "fig1g" => Some(fig1g::run(scale)),
        "fig1h" => Some(fig1h::run(scale)),
        "ablation" => Some(ablation::run(scale)),
        "ext_quality" => Some(ext_quality::run(scale)),
        "ext_kplex" => Some(ext_kplex::run(scale)),
        _ => None,
    }
}

/// All experiment ids: the paper's eight figure panels, the pruning
/// ablation, and the extension experiments (heuristic quality, k-plex
/// substrate).
pub const ALL_FIGURES: [&str; 11] = [
    "fig1a",
    "fig1b",
    "fig1c",
    "fig1d",
    "fig1e",
    "fig1f",
    "fig1g",
    "fig1h",
    "ablation",
    "ext_quality",
    "ext_kplex",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_stable() {
        let (g1, q1) = sgq_dataset();
        let (g2, q2) = sgq_dataset();
        assert_eq!(q1, q2);
        assert_eq!(g1.edge_count(), g2.edge_count());
        let deg = g1.degree(q1);
        assert!(
            (15..=25).contains(&deg),
            "initiator degree {deg} should be near {INITIATOR_DEGREE}"
        );
    }

    #[test]
    fn unknown_figure_is_none() {
        assert!(run_figure("fig9z", Scale::Fast).is_none());
    }
}
