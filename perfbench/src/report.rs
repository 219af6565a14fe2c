//! Metric definitions, `BENCHMARK.json`, and the printed results.

use crate::run::{peak_rss, read_percentiles, RunResult};
use crate::trace::{spans_json, Totals};
use crate::util::median;
use crate::workload::{Workload, World, ALL};

/// Seconds one run measures (each measured phase runs this long).
pub const RUN_SECONDS: u64 = 15;

/// Where the benchmark lives, relative to the repository root.
pub const BENCH_DIR: &str = "perfbench";

/// An end-to-end metric: what a user of the planner sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, each reported on every workload. Timing
/// bounds are the widest allowed: on a shared two-core VM the spread over
/// ten runs is 5–10% in quiet periods and reaches 15–30% when the host's
/// speed drifts or the hypervisor steals time.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p99_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.1,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Names of the per-layer metrics, in `BENCHMARK.json` order: every
/// layer metric of the traced run plus the tracing overhead.
pub fn per_layer_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Totals::default()
        .metrics()
        .iter()
        .map(|(n, _)| *n)
        .collect();
    names.push("trace.overhead_us");
    names
}

/// A per-layer metric's unit, from its name.
pub fn per_layer_unit(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ns_per_candidate") {
        "ns"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The command that runs one benchmark run, from the repository root.
pub fn command() -> Vec<String> {
    [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([format!("{BENCH_DIR}/Cargo.toml"), "--".to_string()])
    .collect()
}

/// `BENCHMARK.json`: workloads with their reasons, metrics with units
/// and bounds.
pub fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n{}\n  ]", items.join(",\n"));
    let command: Vec<String> = command().iter().map(|s| json_str(s)).collect();
    let workloads = ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }),
                m.bound
            )
        })
        .collect();
    let per_layer = per_layer_names()
        .into_iter()
        .map(|n| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(n),
                json_str(per_layer_unit(n)),
                json_str(per_layer_better(n))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        json_str(BENCH_DIR),
        RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// Which direction is better for a per-layer metric: less time and less
/// work are better, more cache hits and more pruning are better.
fn per_layer_better(name: &str) -> &'static str {
    const HIGHER: [&str; 10] = [
        "core.pivots_skipped",
        "core.peeled_candidates",
        "core.frames_pruned_by_match",
        "core.children_pruned_by_parent_bound",
        "core.run_cache_cross_solve_hits",
        "core.frames_pruned_ratio",
        "service.shards_reused",
        "exec.result_cache_hit_ratio",
        "exec.feasible_cache_hit_ratio",
        "exec.collapsed_ratio",
    ];
    if HIGHER.contains(&name) {
        "higher"
    } else {
        "lower"
    }
}

/// The end-to-end values of a run: name, value, unit.
pub fn end_to_end_values(r: &RunResult) -> Vec<(&'static str, f64, &'static str)> {
    let (p50, p99) = read_percentiles(&r.plain);
    END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "qps" => r.plain.qps(),
                "read_p50_us" => p50,
                "read_p99_us" => p99,
                "peak_rss_mb" => peak_rss(&r.plain),
                "setup_s" => median(&r.setup_s),
                other => unreachable!("unknown end-to-end metric {other}"),
            };
            (m.name, v, m.unit)
        })
        .collect()
}

/// The per-layer values of a traced run, by metric name.
pub fn per_layer_values(r: &RunResult) -> Vec<(&'static str, f64)> {
    let traced = r.traced.as_ref().expect("a traced run");
    let (totals, _) = traced.trace.as_ref().expect("the traced phase records");
    let mut values = totals.metrics();
    values.push((
        "trace.overhead_us",
        read_percentiles(traced).0 - read_percentiles(&r.plain).0,
    ));
    values
}

fn describe(w: Workload, r: &RunResult) -> String {
    let s = r.shape;
    let world = match s.world {
        World::RealAnalog { days } => format!("real_analog_194 ({days} days)"),
        World::Metropolis { members, shards } => {
            format!("metropolis ({members} members, {shards} shards)")
        }
        World::Plaza { days } => format!("plaza (1200 members, {days} day)"),
    };
    let serving = if s.nodes > 0 {
        format!("{} nodes x {} worker over loopback TCP", s.nodes, s.workers)
    } else {
        format!("single process, {} executor worker(s)", s.workers)
    };
    let writes = if s.write_every > 0 {
        format!("1 write per {} reads", s.write_every)
    } else {
        "no writes".to_string()
    };
    format!(
        "workload {}: {world}; {serving}; batch {}; {writes}; query pool {}; \
         closed loop, 1 client thread; {} read calls + {} writes in {:.2} s",
        w.name(),
        s.batch,
        if s.pool == 0 {
            "unbounded".to_string()
        } else {
            s.pool.to_string()
        },
        r.plain.read_us.len() + r.plain.fresh_us.len(),
        r.plain.writes,
        r.plain.elapsed.as_secs_f64(),
    )
}

/// Print the human-readable report, write the spans of a traced run to
/// `out_dir`, and return the final JSON line.
pub fn render(
    w: Workload,
    seed: u64,
    r: &RunResult,
    trace: bool,
    out_dir: &std::path::Path,
) -> std::io::Result<String> {
    println!("{}", describe(w, r));
    let (p50, p99) = read_percentiles(&r.plain);
    println!(
        "  setup_s samples (median of {}): {:?}",
        r.setup_s.len(),
        r.setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    for (name, v, unit) in end_to_end_values(r) {
        println!("  {name:<20} {v:>14.3} {unit}");
    }
    if !r.plain.fresh_us.is_empty() {
        println!(
            "  {:<20} {:>14.3} us   (first read after a write; {} samples)",
            "fresh_read_p50_us",
            median(&r.plain.fresh_us),
            r.plain.fresh_us.len()
        );
    }
    println!(
        "  {:<20} {:>14.6}      ({} failed of {} calls)",
        "failed_ratio",
        r.plain.failed as f64 / r.plain.attempted().max(1) as f64,
        r.plain.failed,
        r.plain.attempted()
    );
    println!(
        "  read samples: {} (p50 {p50:.1} us, p99 {p99:.1} us)",
        r.plain.read_us.len()
    );
    match &r.verified {
        Ok(c) => println!(
            "  verified: {} answers checked ({} oracle solves)",
            c.answers, c.oracle_solves
        ),
        Err(e) => println!("  WRONG ANSWER: {e}"),
    }

    let mut attempted = r.plain.attempted();
    let mut failed = r.plain.failed;
    let metrics = if trace {
        let traced = r.traced.as_ref().expect("a traced run");
        let (totals, spans) = traced.trace.as_ref().expect("the traced phase records");
        attempted += traced.attempted();
        failed += traced.failed;
        println!(
            "traced run: {} read calls ({} fresh), {} queries",
            traced.read_us.len() + traced.fresh_us.len(),
            totals.fresh_reads(),
            totals.entries()
        );
        println!("  per-layer metrics (means per read call):");
        let values = per_layer_values(r);
        for (name, v) in &values {
            println!("  {name:<38} {v:>14.3} {}", per_layer_unit(name));
        }
        println!(
            "  tracing overhead: traced read_p50_us {:.1} - untraced {:.1}",
            read_percentiles(traced).0,
            p50
        );
        println!("  reconciliation (per call kind):");
        for line in totals.reconciliation().lines() {
            println!("    {line}");
        }
        std::fs::create_dir_all(out_dir)?;
        let path = out_dir.join(format!("trace-{}-{seed}.json", w.name()));
        std::fs::write(&path, spans_json(spans))?;
        println!("  {} spans written to {}", spans.len(), path.display());
        values
            .into_iter()
            .map(|(n, v)| (n, v, per_layer_unit(n)))
            .collect::<Vec<_>>()
    } else {
        end_to_end_values(r)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_number(*v),
                json_str(u)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.verified.is_ok(),
        attempted,
        failed,
        body.join(", ")
    ))
}

/// A JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
