//! Serving-layer throughput: the `stgq-exec` batched path against the
//! sequential per-query planner loop, on the fig1f workload (194-person
//! community dataset, 3 days of half-hour slots) and on the
//! coarse-distance scenario (few distinct hop values, so equal-distance
//! ties in the access order are the norm).
//!
//! Each benchmark processes the same 64-query hot workload
//! (`stgq_bench::serving::hot_workload`: 24 distinct queries, zipf-ish
//! repetition), so medians compare directly as queries/sec:
//!
//! * `reference-sequential/*` — 64 single-query `plan_sgq`/`plan_stgq`
//!   calls (the pre-executor serving loop). These entries double as the
//!   machine-speed anchors for `bench_gate` (their code path is the
//!   stable planner fast path).
//! * `exec-batch*/1|8|64` — the workload drained through
//!   `Planner::plan_batch` in chunks of 1, 8 and 64. Batch 1 measures
//!   pure executor overhead (admission + ticket per query); batch 64 is
//!   where shard batching and request collapsing win: the acceptance
//!   floor is **≥ 1.5× queries/sec over the sequential loop at batch
//!   64**, which holds even on one core because identical hot queries
//!   are solved once per batch (on multi-core hosts the worker pool
//!   stacks a further speedup on top).
//!
//! Run with `CRITERION_OUT_JSON="$PWD/BENCH_exec.json" cargo bench -p
//! stgq-bench --bench throughput` **from the repo root** to refresh the
//! committed serving baseline (CI gates regressions against it).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use stgq_bench::serving::{
    batch_objectives, hot_workload, planner_from_dataset, sequential_objectives,
};
use stgq_bench::SEED;
use stgq_datagen::scenario::{coarse_distance_analog, real_analog_194};
use stgq_datagen::Dataset;
use stgq_service::{BatchQuery, Planner};

fn bench_workload(c: &mut Criterion, label: &str, ds: &Dataset) {
    let planner = planner_from_dataset(ds, 0);
    // A second planner with the default (enabled) result cache: the
    // `exec-batch-cached` entry measures the replay path the serving
    // deployment actually runs with, without letting it contaminate the
    // solve-throughput entries or the machine-speed anchor.
    let cached_planner = {
        let mut p = stgq_service::Planner::with_exec_config(
            ds.grid.horizon(),
            stgq_exec::ExecConfig::default(),
        );
        for v in 0..ds.graph.node_count() {
            p.add_person(format!("p{v}"));
        }
        for e in ds.graph.edges() {
            p.connect(e.a, e.b, e.weight).unwrap();
        }
        for (v, cal) in ds.calendars.iter().enumerate() {
            p.set_calendar(stgq_graph::NodeId(v as u32), cal.clone())
                .unwrap();
        }
        p
    };
    let workload = hot_workload(ds, 4, 2, 2, 4);

    // The two paths must agree before being compared (and the batched
    // path must agree with itself across chunkings).
    let sequential = sequential_objectives(&planner, &workload);
    for chunk in [1usize, 8, 64] {
        let batched: Vec<Option<u64>> = workload
            .chunks(chunk)
            .flat_map(|queries| batch_objectives(&planner, queries))
            .collect();
        assert_eq!(
            sequential, batched,
            "batched objectives must match sequential ({label}, chunk {chunk})"
        );
    }

    let mut g = c.benchmark_group("throughput");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    g.bench_function(format!("reference-sequential{label}/batch64"), |b| {
        b.iter(|| sequential_objectives(&planner, &workload))
    });
    for chunk in [1usize, 8, 64] {
        g.bench_function(format!("exec-batch{label}/{chunk}"), |b| {
            b.iter(|| {
                workload
                    .chunks(chunk)
                    .map(|queries: &[BatchQuery]| planner.plan_batch(queries).len())
                    .sum::<usize>()
            })
        });
    }
    // The version-stamped result cache's replay path (identical repeat
    // workload, unchanged world — every entry a hit after warmup).
    assert_eq!(
        batch_objectives(&cached_planner, &workload),
        sequential,
        "cached replay must answer identically ({label})"
    );
    g.bench_function(format!("exec-batch-cached{label}/64"), |b| {
        b.iter(|| {
            workload
                .chunks(64)
                .map(|queries: &[BatchQuery]| cached_planner.plan_batch(queries).len())
                .sum::<usize>()
        })
    });
    g.finish();
    drop::<Planner>(planner);
}

fn bench_throughput(c: &mut Criterion) {
    let (fig1f, _) = (real_analog_194(3, SEED), ());
    bench_workload(c, "", &fig1f);

    let coarse = coarse_distance_analog(3, SEED, 3);
    bench_workload(c, "-coarse", &coarse);
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
