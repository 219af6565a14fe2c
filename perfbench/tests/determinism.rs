//! The traced run's work counters are a pure function of the seed, and
//! `BENCHMARK.json` is what the benchmark says it is.

use std::collections::BTreeMap;

use stgq_perfbench::report::manifest;
use stgq_perfbench::run::{run, Budget};
use stgq_perfbench::workload::{Shape, Workload, World};

/// Stream operations per measured phase: enough for writes, pivots and
/// pruning to show up, small enough for a debug build.
const OPS: usize = 120;

fn work_counts(workload: Workload, shape: Shape, seed: u64) -> BTreeMap<String, u64> {
    let spill_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let result =
        run(workload, shape, seed, Budget::Ops(OPS), true, spill_dir).expect("the workload starts");
    if let Err(wrong) = &result.verified {
        panic!("{}: wrong answer: {wrong}", workload.name());
    }
    let traced = result.traced.expect("a traced phase");
    traced
        .trace
        .expect("the traced phase records")
        .0
        .work_counts()
}

fn assert_seeded(workload: Workload, shape: Shape) {
    let first = work_counts(workload, shape, 11);
    let again = work_counts(workload, shape, 11);
    assert_eq!(first, again, "{}: same seed, same work", workload.name());
    let other = work_counts(workload, shape, 12);
    assert_ne!(
        first,
        other,
        "{}: another seed is another stream",
        workload.name()
    );
    assert!(
        first["core.frames"] > 0,
        "{}: the engines ran: {first:?}",
        workload.name()
    );
}

#[test]
fn paper_mixed_counters_repeat_per_seed() {
    assert_seeded(Workload::PaperMixed, Workload::PaperMixed.shape());
}

#[test]
fn metro_rw_counters_repeat_per_seed() {
    let shape = Workload::MetroRw.shape().with_world(World::Metropolis {
        members: 4_000,
        shards: 16,
    });
    let counts = work_counts(Workload::MetroRw, shape, 11);
    assert!(
        counts["service.shards_rebuilt"] > 0,
        "writes dirty shards: {counts:?}"
    );
    assert!(
        counts["service.shards_reused"] > 0,
        "clean shards carry over: {counts:?}"
    );
    assert_seeded(Workload::MetroRw, shape);
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        manifest(),
        "regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json`"
    );
}
