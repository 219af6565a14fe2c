//! Instrumentation-overhead gate: proves the compiled-in stage-timing
//! instrumentation (`PivotArena::record_timings`, two clock reads per
//! descended pivot — the only observability cost inside a solve) stays
//! within the ≤ 2% budget the observability layer promises.
//!
//! Unlike the other suites this one measures a **ratio**, not a latency.
//! Both arms run on the **same arena** — identical buffers, identical
//! heap placement, identical code — with only `record_timings` toggled
//! between them, so allocator-placement effects (the dominant
//! systematic noise at the ≤ 2% scale this suite resolves) cancel by
//! construction. Rounds interleave the arms, alternating which runs
//! first so slow drift (frequency scaling, a noisy neighbour) cancels
//! instead of biasing one arm, and the reported statistic is the
//! `on / off` ratio of the two arms' lower envelopes: preemption only
//! ever inflates a round, while the instrumentation cost is paid in
//! every round, so the minimum isolates the true shift.
//!
//! A ratio is machine-independent, so the committed `BENCH_obs.json`
//! baseline is exact parity (`1000.0` per entry — the ratio scaled by
//! 1000 to fit the shim's `median_ns` field) and CI gates it with
//! `bench_gate BENCH_obs.json <fresh> 1.02`: a candidate entry above
//! `1020` means recording costs more than 2% and fails the build.
//!
//! Cases mirror the gated hot-path scenarios: the paper's fig1f `m = 4`
//! defaults (general search core) and the calendar-churn workload
//! (pivot preparation dominated — the regime with the most timed spans
//! per unit of work, hence the worst case for the coarse clocks).
//!
//! Refresh with `CRITERION_OUT_JSON="$PWD/BENCH_obs.json" cargo bench
//! -p stgq-bench --bench obs_overhead` from the repo root (the baseline
//! should stay all-`1000.0`: it encodes "no overhead beyond the gate
//! budget", not a measured machine artifact).

use std::hint::black_box;
use std::time::Instant;

use stgq_bench::figures::{calendar_churn_dataset, stgq_dataset};
use stgq_core::{PivotArena, SelectConfig, Solver, StgqQuery};
use stgq_graph::FeasibleGraph;
use stgq_schedule::Calendar;

/// Interleaved rounds per case (each round times both arms once).
const ROUNDS: usize = 61;
/// Wall-clock budget per arm per round, in nanoseconds (~2 ms keeps a
/// full case near 250 ms while giving each arm thousands of solves).
const ARM_BUDGET_NS: f64 = 2.0e6;

/// Time `iters` back-to-back solves on `arena` with `record_timings`
/// set to `recording`, returning ns/solve.
fn arm_ns(
    fg: &FeasibleGraph,
    cals: &[Calendar],
    query: &StgqQuery,
    cfg: &SelectConfig,
    arena: &mut PivotArena,
    recording: bool,
    iters: u64,
) -> f64 {
    arena.record_timings = recording;
    let start = Instant::now();
    for _ in 0..iters {
        black_box(Solver::new(fg, cfg).arena(arena).stgq(cals, query));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// On/off ratio for one case, scaled by 1000 for the JSON field.
fn overhead_milli_ratio(fg: &FeasibleGraph, cals: &[Calendar], query: &StgqQuery) -> f64 {
    let cfg = SelectConfig::default();
    let mut arena = PivotArena::new();

    // Both arms must agree before being compared — recording never
    // changes the answer, only the clock reads around the pivot loop.
    arena.record_timings = true;
    let on_out = Solver::new(fg, &cfg).arena(&mut arena).stgq(cals, query);
    arena.record_timings = false;
    let off_out = Solver::new(fg, &cfg).arena(&mut arena).stgq(cals, query);
    assert_eq!(
        on_out, off_out,
        "recording mode must not change the solve outcome"
    );

    // Calibrate the per-round iteration count on the cheaper (off) arm.
    let probe = arm_ns(fg, cals, query, &cfg, &mut arena, false, 16);
    let iters = ((ARM_BUDGET_NS / probe.max(1.0)) as u64).clamp(8, 1_000_000);
    // Warm past cold caches (both flag states) before the measured rounds.
    arm_ns(fg, cals, query, &cfg, &mut arena, true, iters / 2 + 1);
    arm_ns(fg, cals, query, &cfg, &mut arena, false, iters / 2 + 1);

    let mut on_samples = Vec::with_capacity(ROUNDS);
    let mut off_samples = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Alternate arm order so drift cancels across rounds.
        if round % 2 == 0 {
            on_samples.push(arm_ns(fg, cals, query, &cfg, &mut arena, true, iters));
            off_samples.push(arm_ns(fg, cals, query, &cfg, &mut arena, false, iters));
        } else {
            off_samples.push(arm_ns(fg, cals, query, &cfg, &mut arena, false, iters));
            on_samples.push(arm_ns(fg, cals, query, &cfg, &mut arena, true, iters));
        }
    }
    let floor = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    floor(&on_samples) / floor(&off_samples) * 1000.0
}

/// `(id, dataset, initiator, (p, s, k, m))`.
type Case<'a> = (
    &'a str,
    &'a stgq_datagen::Dataset,
    stgq_graph::NodeId,
    (usize, usize, usize, usize),
);

fn main() {
    // fig1f m=4 is the general search core; churn m=4/m=8 maximize
    // prepared pivots per solve.
    let (fig1f, fig1f_q) = stgq_dataset(3);
    let (churn, churn_q) = calendar_churn_dataset(3);
    let cases: [Case<'_>; 3] = [
        ("obs-overhead/fig1f-m4", &fig1f, fig1f_q, (4, 2, 2, 4)),
        ("obs-overhead/churn-m4", &churn, churn_q, (4, 2, 2, 4)),
        ("obs-overhead/churn-m8", &churn, churn_q, (5, 2, 2, 8)),
    ];

    let mut results: Vec<(String, f64)> = Vec::new();
    for (id, ds, q, (p, s, k, m)) in cases {
        let query = StgqQuery::new(p, s, k, m).expect("valid query");
        let fg = FeasibleGraph::extract(&ds.graph, q, query.s());
        let milli_ratio = overhead_milli_ratio(&fg, &ds.calendars, &query);
        println!(
            "{id:<48} median {milli_ratio:>12.1} ns (on/off ratio {:.4}, budget 1.02)",
            milli_ratio / 1000.0
        );
        results.push((id.to_string(), milli_ratio));
    }

    // Same export format as the criterion shim so `bench_gate` and the
    // perf-trajectory tooling parse this suite like any other.
    if let Ok(path) = std::env::var("CRITERION_OUT_JSON") {
        if !path.is_empty() {
            let mut out = String::from("[\n");
            for (i, (id, milli_ratio)) in results.iter().enumerate() {
                out.push_str(&format!(
                    "  {{\"id\": \"{id}\", \"median_ns\": {milli_ratio:.1}, \"iters\": {}}}{}\n",
                    ROUNDS,
                    if i + 1 < results.len() { "," } else { "" }
                ));
            }
            out.push_str("]\n");
            if let Err(e) = std::fs::write(&path, out) {
                eprintln!("obs_overhead: cannot write {path}: {e}");
            }
        }
    }
}
