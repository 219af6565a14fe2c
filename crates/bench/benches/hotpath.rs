//! Hot-path microbenchmarks gating the word-parallel / zero-allocation
//! search-core work: the optimized SGSelect/STGSelect against the scalar
//! **reference engines** (`stgq_core::reference` — the pre-optimization
//! implementations kept verbatim) on identical instances.
//!
//! All STGQ cases are fig1f-style (194-person community dataset,
//! multi-day half-hour schedules, schedule-length sweep). Two gates:
//! the **counter-dominated** family — long activities (`m = 12` /
//! `m = 16`, pivot intervals of 23–31 offsets), where the reference
//! burns its budget on per-slot availability bitmaps and Lemma-5 counter
//! branches — must stay ≥ 2× over the matching `reference-stgselect/*`
//! median, and the `m = 4` cases (general search core) must stay ≥ 2.2×
//! since the search-reduction release (incumbent seeding +
//! promise-ordered pivots + pivot bound skipping collapse most of their
//! pivot loops; observed ~4.8–6.3×). CI's `bench_gate` step bounds
//! *regression* against the committed `BENCH_core.json` medians (>25%
//! beyond the machine-speed scale fails); the ratio floors themselves
//! are re-checked whenever the baseline is refreshed, not on every run.
//!
//! Both sides run on a pre-extracted feasible graph (`solve_*_on`):
//! radius extraction is time-independent and hoisted by every real
//! sweep, so including it would only dilute what this suite measures.
//!
//! Run with `CRITERION_OUT_JSON="$PWD/BENCH_core.json" cargo bench -p
//! stgq-bench --bench hotpath` **from the repo root** to refresh the
//! committed perf baseline (the path must be absolute: cargo sets the
//! bench binary's cwd to the package root, not the workspace root).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use stgq_bench::figures::{
    calendar_churn_dataset, plaza_dataset, sgq_dataset, sparse_fringe_dataset, stgq_dataset,
};
use stgq_core::reference::{solve_sgq_reference_on, solve_stgq_reference_on};
use stgq_core::{solve_sgq_on, solve_stgq_on, SelectConfig, SgqQuery, StgqQuery};
use stgq_graph::{CandidateTopology, FeasibleGraph, FeasibleView, ShardedGraph};

fn bench_stgselect(c: &mut Criterion) {
    let cfg = SelectConfig::default();
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    // (label, p, k, m): m = 12/16 are the gated counter-dominated cases,
    // m = 4 the paper's fig1f defaults.
    let cases: [(&str, usize, usize, usize); 3] = [
        ("m4-p4", 4, 2, 4),
        ("m12-p5", 5, 2, 12),
        ("m16-p5", 5, 2, 16),
    ];

    for days in [3usize, 7] {
        let (ds, q) = stgq_dataset(days);
        for (label, p, k, m) in cases {
            let query = StgqQuery::new(p, 2, k, m).expect("valid");
            let fg = FeasibleGraph::extract(&ds.graph, q, query.s());
            let new_out = solve_stgq_on(&fg, &ds.calendars, &query, &cfg);
            let ref_out = solve_stgq_reference_on(&fg, &ds.calendars, &query, &cfg);
            assert_eq!(
                new_out.solution.as_ref().map(|s| s.total_distance),
                ref_out.solution.as_ref().map(|s| s.total_distance),
                "engines must agree before being compared (days={days}, {label})"
            );

            g.bench_function(format!("stgselect/fig1f-days{days}-{label}"), |b| {
                b.iter(|| solve_stgq_on(&fg, &ds.calendars, &query, &cfg))
            });
            g.bench_function(
                format!("reference-stgselect/fig1f-days{days}-{label}"),
                |b| b.iter(|| solve_stgq_reference_on(&fg, &ds.calendars, &query, &cfg)),
            );
        }
    }
    g.finish();
}

/// The sparse-fringe scenario: community core + low-degree fans, where
/// the fixpoint (p, k)-core peel actually removes candidates (the dense
/// fig1f cases keep the suite honest on graphs where it cannot). Gated
/// like the fig1f entries — the committed `BENCH_core.json` medians
/// protect the new scenario from day one.
fn bench_sparse_fringe(c: &mut Criterion) {
    let cfg = SelectConfig::default();
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    let cases: [(&str, usize, usize, usize); 2] = [("m4-p5k1", 5, 1, 4), ("m4-p6k2", 6, 2, 4)];

    for days in [3usize, 7] {
        let (ds, q) = sparse_fringe_dataset(days);
        for (label, p, k, m) in cases {
            let query = StgqQuery::new(p, 2, k, m).expect("valid");
            let fg = FeasibleGraph::extract(&ds.graph, q, query.s());
            let new_out = solve_stgq_on(&fg, &ds.calendars, &query, &cfg);
            let ref_out = solve_stgq_reference_on(&fg, &ds.calendars, &query, &cfg);
            assert_eq!(
                new_out.solution.as_ref().map(|s| s.total_distance),
                ref_out.solution.as_ref().map(|s| s.total_distance),
                "engines must agree before being compared (days={days}, {label})"
            );

            g.bench_function(format!("stgselect/sparse-days{days}-{label}"), |b| {
                b.iter(|| solve_stgq_on(&fg, &ds.calendars, &query, &cfg))
            });
            g.bench_function(
                format!("reference-stgselect/sparse-days{days}-{label}"),
                |b| b.iter(|| solve_stgq_reference_on(&fg, &ds.calendars, &query, &cfg)),
            );
        }
    }
    g.finish();
}

/// The calendar-churn scenario: dense, long-run calendars with
/// per-person jitter — the workload where pivot preparation dominates
/// the solve, and the regime the incremental run cache is built for:
/// covered pivots cost interval arithmetic instead of a word scan per
/// person. Gated
/// like the fig1f entries once its medians land in `BENCH_core.json`.
fn bench_calendar_churn(c: &mut Criterion) {
    let cfg = SelectConfig::default();
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    let cases: [(&str, usize, usize, usize); 2] = [("m4-p4", 4, 2, 4), ("m8-p5", 5, 2, 8)];

    for days in [3usize, 7] {
        let (ds, q) = calendar_churn_dataset(days);
        for (label, p, k, m) in cases {
            let query = StgqQuery::new(p, 2, k, m).expect("valid");
            let fg = FeasibleGraph::extract(&ds.graph, q, query.s());
            let new_out = solve_stgq_on(&fg, &ds.calendars, &query, &cfg);
            let ref_out = solve_stgq_reference_on(&fg, &ds.calendars, &query, &cfg);
            assert_eq!(
                new_out.solution.as_ref().map(|s| s.total_distance),
                ref_out.solution.as_ref().map(|s| s.total_distance),
                "engines must agree before being compared (days={days}, {label})"
            );

            g.bench_function(format!("stgselect/churn-days{days}-{label}"), |b| {
                b.iter(|| solve_stgq_on(&fg, &ds.calendars, &query, &cfg))
            });
            g.bench_function(
                format!("reference-stgselect/churn-days{days}-{label}"),
                |b| b.iter(|| solve_stgq_reference_on(&fg, &ds.calendars, &query, &cfg)),
            );
        }
    }
    g.finish();
}

/// Per-query candidate-space extraction: the zero-copy `FeasibleView`
/// against materializing a `FeasibleGraph` from the same sharded CSR
/// snapshot. Two worlds bracket the regime: fig1f (a ~120-candidate
/// community set, the common case) and plaza (a 1200-candidate
/// world-sized set with heavy rows — extraction-bound serving). Both
/// sides are asserted index-identical before timing, and the plaza pair
/// enforces the acceptance floor — the view must extract at least 2×
/// faster than the materialized path (observed ~5–7×).
fn bench_extract(c: &mut Criterion) {
    let mut g = c.benchmark_group("extract");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    let (fig_ds, fig_q) = stgq_dataset(7);
    let (plaza_ds, plaza_q) = plaza_dataset(1);
    let cases = [
        ("fig1f-days7", &fig_ds, fig_q, 2usize),
        ("plaza", &plaza_ds, plaza_q, 1usize),
    ];
    for (label, ds, q, s) in cases {
        let sharded = ShardedGraph::from_flat(&ds.graph, 16);
        let fg = FeasibleGraph::extract_from(&sharded, q, s);
        let view = FeasibleView::extract(&sharded, q, s);
        assert_eq!(CandidateTopology::len(&view), fg.len());
        assert_eq!(view.candidate_order(), fg.candidate_order());
        for i in 0..fg.len() as u32 {
            assert_eq!(view.adj_words(i), fg.adj_words(i), "{label} row {i}");
        }

        g.bench_function(format!("{label}-view"), |b| {
            b.iter(|| FeasibleView::extract(&sharded, q, s))
        });
        g.bench_function(format!("{label}-materialized"), |b| {
            b.iter(|| FeasibleGraph::extract_from(&sharded, q, s))
        });

        if label == "plaza" {
            // The acceptance floor, measured as a median over repeats so
            // a single descheduled iteration cannot fail the run.
            let median = |f: &dyn Fn() -> u128| {
                let mut xs: Vec<u128> = (0..21).map(|_| f()).collect();
                xs.sort_unstable();
                xs[xs.len() / 2]
            };
            let view_ns = median(&|| {
                let t0 = std::time::Instant::now();
                let _ = FeasibleView::extract(&sharded, q, s);
                t0.elapsed().as_nanos()
            });
            let mat_ns = median(&|| {
                let t0 = std::time::Instant::now();
                let _ = FeasibleGraph::extract_from(&sharded, q, s);
                t0.elapsed().as_nanos()
            });
            println!(
                "extract/plaza: view {view_ns} ns vs materialized {mat_ns} ns ({:.2}x)",
                mat_ns as f64 / view_ns as f64
            );
            assert!(
                view_ns * 2 <= mat_ns,
                "zero-copy extraction must be >= 2x the materialized path \
                 (view {view_ns} ns, materialized {mat_ns} ns)"
            );
        }
    }
    g.finish();
}

fn bench_sgselect(c: &mut Criterion) {
    let cfg = SelectConfig::default();
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    let (graph, q) = sgq_dataset();
    for p in [5usize, 7] {
        let query = SgqQuery::new(p, 2, 2).expect("valid");
        let fg = FeasibleGraph::extract(&graph, q, query.s());
        let new_out = solve_sgq_on(&fg, &query, &cfg, None);
        let ref_out = solve_sgq_reference_on(&fg, &query, &cfg, None);
        assert_eq!(
            new_out.solution.as_ref().map(|s| s.total_distance),
            ref_out.solution.as_ref().map(|s| s.total_distance),
            "engines must agree before being compared (p = {p})"
        );

        g.bench_function(format!("sgselect/p{p}"), |b| {
            b.iter(|| solve_sgq_on(&fg, &query, &cfg, None))
        });
        g.bench_function(format!("reference-sgselect/p{p}"), |b| {
            b.iter(|| solve_sgq_reference_on(&fg, &query, &cfg, None))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_stgselect,
    bench_sparse_fringe,
    bench_calendar_churn,
    bench_sgselect,
    bench_extract
);
criterion_main!(benches);
