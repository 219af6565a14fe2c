//! Extension experiment: thread scaling of the parallel exact engines.
//!
//! The paper (§5.2) points out that its IP comparator exploited all 8
//! cores of the IBM x3650 while SGSelect/STGSelect ran single-threaded.
//! This sweep measures `stgq_core::Solver` at growing thread counts on
//! hard instances of both query families, asserting at every thread count
//! that the objective equals the sequential optimum.
//!
//! **Read the `cores=` figure in the table title before the speedups.**
//! On a single-core host (the common container case) every speedup is
//! necessarily ≤ 1 and the table measures correctness plus threading
//! overhead, not scaling. Even with real cores, speedups are sublinear by
//! nature: workers start before the incumbent is strong (mitigated by the
//! greedy seed), and pivot/subtree granularity is coarse.

use stgq_core::{solve_sgq, solve_stgq, SelectConfig, SgqQuery, Solver, StgqQuery};
use stgq_graph::FeasibleGraph;

use crate::table::fmt_ns;
use crate::{median_nanos, Scale, Table};

use super::{sgq_dataset, stgq_dataset};

/// Run the sweep.
pub fn run(scale: Scale) -> Table {
    let (graph, q) = sgq_dataset();
    let (ds, tq) = stgq_dataset(7);
    let threads: Vec<usize> = match scale {
        Scale::Fast => vec![1, 2],
        Scale::Paper => vec![1, 2, 4, 8],
    };
    let cfg = SelectConfig::default();
    // Hard enough that parallelism has something to chew on.
    let sgq = SgqQuery::new(8, 2, 2).expect("valid");
    let stgq = StgqQuery::new(6, 2, 2, 8).expect("valid");

    let seq_sgq = solve_sgq(&graph, q, &sgq, &cfg).expect("valid inputs");
    let seq_stgq = solve_stgq(&ds.graph, tq, &ds.calendars, &stgq, &cfg).expect("valid inputs");
    let sgq_opt = seq_sgq.solution.as_ref().map(|s| s.total_distance);
    let stgq_opt = seq_stgq.solution.as_ref().map(|s| s.total_distance);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut t = Table::new(
        format!(
            "Extension: thread scaling (SGQ p={}, s={}, k={}; STGQ p={}, m={}; n=194, cores={})",
            sgq.p(),
            sgq.s(),
            sgq.k(),
            stgq.p(),
            stgq.m(),
            cores,
        ),
        &[
            "threads",
            "SGQ",
            "SGQ speedup",
            "STGQ",
            "STGQ speedup",
            "sgq_dist",
            "stgq_dist",
        ],
    );

    let mut sgq_base = 0u128;
    let mut stgq_base = 0u128;
    for &n in &threads {
        // Extraction stays inside the timed region, as in the flat
        // sequential entry points.
        let (sg_out, sg_ns) = median_nanos(scale.reps(), || {
            let fg = FeasibleGraph::extract(&graph, q, sgq.s());
            Solver::new(&fg, &cfg).threads(n).sgq(&sgq, None)
        });
        let (st_out, st_ns) = median_nanos(scale.reps(), || {
            let fg = FeasibleGraph::extract(&ds.graph, tq, stgq.s());
            Solver::new(&fg, &cfg)
                .threads(n)
                .stgq(&ds.calendars[..], &stgq)
        });
        assert_eq!(
            sg_out.solution.as_ref().map(|s| s.total_distance),
            sgq_opt,
            "parallel SGQ lost optimality at {n} threads"
        );
        assert_eq!(
            st_out.solution.as_ref().map(|s| s.total_distance),
            stgq_opt,
            "parallel STGQ lost optimality at {n} threads"
        );
        if n == 1 {
            sgq_base = sg_ns;
            stgq_base = st_ns;
        }
        t.push_row(vec![
            n.to_string(),
            fmt_ns(sg_ns),
            format!("{:.2}x", sgq_base as f64 / sg_ns.max(1) as f64),
            fmt_ns(st_ns),
            format!("{:.2}x", stgq_base as f64 / st_ns.max(1) as f64),
            sgq_opt.map_or("-".into(), |d| d.to_string()),
            stgq_opt.map_or("-".into(), |d| d.to_string()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objectives_stay_equal_across_thread_counts() {
        // `run` asserts objective equality internally; completing is the test.
        let t = run(Scale::Fast);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "1");
    }
}
