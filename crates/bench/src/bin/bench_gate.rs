//! Perf-regression gate: compare a freshly measured criterion-shim JSON
//! export against a committed `BENCH_*.json` baseline and fail (exit
//! code 1) when any shared benchmark id's median regressed beyond the
//! threshold, or when a baseline id is missing from the candidate.
//!
//! ```text
//! bench_gate <baseline.json> <candidate.json> [max_ratio]
//! ```
//!
//! `max_ratio` defaults to 1.25 — a 25% regression budget, generous
//! enough for shared-runner noise while still catching real hot-path
//! regressions. A candidate id with no baseline entry is reported as
//! `NEW` and passes. A baseline id missing from the candidate is
//! reported as `DROPPED` and **fails** the gate: a bench that stops
//! producing an entry must remove its baseline in the same change, so
//! a renamed or silently skipped benchmark cannot escape the gate.
//!
//! The budget is applied on top of a **machine-speed scale**: the median
//! candidate/baseline ratio over the `reference-*` entries (whose code
//! is the frozen pre-optimization oracle — if they moved, the machine
//! moved). A runner class uniformly 1.4× slower than the box that
//! produced the committed baseline shifts every entry by the same scale
//! and fails nothing, while a genuine hot-path regression moves only the
//! optimized entries relative to their anchors and still trips the gate.

use std::process::ExitCode;

/// Parse the criterion shim's export: one `{"id": ..., "median_ns": ...}`
/// object per line. Hand-rolled so the gate has zero parsing
/// dependencies (the offline serde shim does not deserialize).
fn parse(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_gate: cannot read {path}: {e}"));
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(id_at) = line.find("\"id\":") else {
            continue;
        };
        let rest = &line[id_at + 5..];
        let Some(open) = rest.find('"') else { continue };
        let rest = &rest[open + 1..];
        let Some(close) = rest.find('"') else {
            continue;
        };
        let id = rest[..close].to_string();
        let Some(med_at) = line.find("\"median_ns\":") else {
            continue;
        };
        let tail = line[med_at + 12..].trim_start();
        let end = tail
            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
            .unwrap_or(tail.len());
        let Ok(median) = tail[..end].parse::<f64>() else {
            continue;
        };
        out.push((id, median));
    }
    assert!(!out.is_empty(), "bench_gate: no entries parsed from {path}");
    out
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args
        .next()
        .expect("usage: bench_gate <baseline> <candidate> [max_ratio]");
    let candidate_path = args
        .next()
        .expect("usage: bench_gate <baseline> <candidate> [max_ratio]");
    let max_ratio: f64 = args
        .next()
        .map(|a| a.parse().expect("max_ratio must be a number"))
        .unwrap_or(1.25);

    let baseline = parse(&baseline_path);
    let candidate = parse(&candidate_path);

    // Machine-speed scale: median ratio over the reference-engine entries
    // (frozen code — any drift there is the machine, not a regression).
    let mut anchor_ratios: Vec<f64> = candidate
        .iter()
        .filter(|(id, _)| id.contains("reference-"))
        .filter_map(|(id, new_median)| {
            baseline
                .iter()
                .find(|(b, _)| b == id)
                .map(|(_, old_median)| new_median / old_median)
        })
        .collect();
    anchor_ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    // Used unclamped: a runner *faster* than the baseline machine tightens
    // the budget proportionally (raw ratios shrink with it), otherwise a
    // genuine regression could hide inside the hardware speed-up.
    let scale = if anchor_ratios.is_empty() {
        1.0
    } else {
        anchor_ratios[anchor_ratios.len() / 2]
    };
    println!("bench_gate: machine-speed scale {scale:.2}x (median over reference-* entries)");

    let mut regressions: Vec<(String, f64, f64, f64)> = Vec::new();
    let mut compared = 0usize;
    for (id, new_median) in &candidate {
        let Some((_, old_median)) = baseline.iter().find(|(b, _)| b == id) else {
            println!("NEW      {id}: {new_median:.0} ns (no baseline entry)");
            continue;
        };
        compared += 1;
        let ratio = new_median / old_median;
        let verdict = if ratio > max_ratio * scale {
            regressions.push((id.clone(), *old_median, *new_median, ratio));
            "REGRESSED"
        } else {
            "ok"
        };
        println!("{verdict:>9} {id}: {old_median:.0} -> {new_median:.0} ns ({ratio:.2}x)");
    }
    let dropped: Vec<&str> = baseline
        .iter()
        .filter(|(id, _)| !candidate.iter().any(|(c, _)| c == id))
        .map(|(id, _)| id.as_str())
        .collect();
    for id in &dropped {
        println!("DROPPED  {id}: present in baseline only");
    }

    println!(
        "bench_gate: {compared} compared, {} regressed beyond {:.2}x ({max_ratio:.2}x budget x {scale:.2}x machine scale), {} dropped",
        regressions.len(),
        max_ratio * scale,
        dropped.len()
    );
    if !dropped.is_empty() {
        println!(
            "bench_gate: baseline entries the candidate no longer produces (remove them from the baseline with the bench):"
        );
        for id in &dropped {
            println!("  {id}");
        }
    }
    // A CI log is read bottom-up after a failure: close with *every*
    // regressed entry (worst first), so a multi-entry regression is
    // never mistaken for a single noisy benchmark.
    if regressions.is_empty() {
        return if dropped.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    regressions.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("ratios are finite"));
    println!("bench_gate: all regressed entries, worst first:");
    for (id, old, new, ratio) in &regressions {
        println!(
            "  {ratio:.2}x  {id}: {old:.0} -> {new:.0} ns (+{:.0}%)",
            (ratio - 1.0) * 100.0
        );
    }
    ExitCode::FAILURE
}
