//! Criterion version of the thread-scaling extension experiment.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use stgq_bench::figures::{sgq_dataset, stgq_dataset};
use stgq_core::{SelectConfig, SgqQuery, Solver, StgqQuery};
use stgq_graph::FeasibleGraph;

fn bench(c: &mut Criterion) {
    let (graph, q) = sgq_dataset();
    let (ds, tq) = stgq_dataset(7);
    let cfg = SelectConfig::default();
    let sgq = SgqQuery::new(8, 2, 2).unwrap();
    let stgq = StgqQuery::new(6, 2, 2, 8).unwrap();

    let mut g = c.benchmark_group("ext_parallel");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for threads in [1usize, 2, 4] {
        // Extraction stays inside the measured closure.
        g.bench_function(format!("sgq/t{threads}"), |b| {
            b.iter(|| {
                let fg = FeasibleGraph::extract(&graph, q, sgq.s());
                Solver::new(&fg, &cfg).threads(threads).sgq(&sgq, None)
            })
        });
        g.bench_function(format!("stgq/t{threads}"), |b| {
            b.iter(|| {
                let fg = FeasibleGraph::extract(&ds.graph, tq, stgq.s());
                Solver::new(&fg, &cfg)
                    .threads(threads)
                    .stgq(&ds.calendars[..], &stgq)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
