//! Offline shim for `criterion`: a small wall-clock benchmark runner
//! exposing the API subset the bench suite uses (`benchmark_group`,
//! `sample_size`, `measurement_time`, `warm_up_time`, `bench_function`,
//! `iter`, `criterion_group!`/`criterion_main!`, `black_box`).
//!
//! Methodology: each benchmark warms up for `warm_up_time`, then collects
//! `sample_size` samples (each sample runs the closure enough times to
//! consume roughly `measurement_time / sample_size`) and reports the
//! **median** per-iteration time — the same robust statistic upstream
//! criterion's default report centres on, minus the bootstrap analysis.
//!
//! Results print to stdout and, when `CRITERION_OUT_JSON` names a file,
//! are appended there as one JSON array of
//! `{"id": "<group>/<name>", "median_ns": <f64>, "iters": <u64>}`
//! objects — the hook the repo's perf-trajectory tooling (`BENCH_core.json`)
//! uses.

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier (shim of `criterion::black_box`).
#[inline]
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// One collected measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// `"<group>/<function id>"`.
    pub id: String,
    /// Median per-iteration wall-clock nanoseconds.
    pub median_ns: f64,
    /// Total iterations executed during measurement.
    pub iters: u64,
}

/// Top-level benchmark context (shim of `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
            sample_size: 20,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(300),
        }
    }

    /// Benchmark directly on the context (no group).
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<String>, f: F) {
        let mut g = self.benchmark_group("");
        g.bench_function(id, f);
        g.finish();
    }

    fn record(&mut self, r: BenchResult) {
        println!(
            "{:<48} median {:>12.1} ns ({} iters)",
            r.id, r.median_ns, r.iters
        );
        self.results.push(r);
    }

    /// All results collected so far (used by `criterion_main!` to export).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Write collected results to `CRITERION_OUT_JSON` if set.
    pub fn export(&self) {
        let Ok(path) = std::env::var("CRITERION_OUT_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let mut out = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"id\": \"{}\", \"median_ns\": {:.1}, \"iters\": {}}}{}\n",
                r.id.replace('"', "'"),
                r.median_ns,
                r.iters,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("criterion shim: cannot write {path}: {e}");
        }
    }
}

/// A group of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Total measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up budget per benchmark.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<String>, mut f: F) {
        let id = id.into();
        let full_id = if self.name.is_empty() {
            id
        } else {
            format!("{}/{}", self.name, id)
        };

        let mut b = Bencher {
            mode: Mode::WarmUp {
                until: Instant::now() + self.warm_up_time,
            },
        };
        f(&mut b);
        let per_iter = match b.mode {
            Mode::WarmUp { .. } => {
                // iter() never ran; nothing to measure.
                self.parent.record(BenchResult {
                    id: full_id,
                    median_ns: 0.0,
                    iters: 0,
                });
                return;
            }
            Mode::Measured { per_iter_ns } => per_iter_ns,
            Mode::Sample { .. } => unreachable!("warm-up never enters sample mode"),
        };

        // Choose an iteration count per sample so samples are meaningful
        // but the total stays near measurement_time.
        let budget_ns = self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let iters_per_sample = (budget_ns / per_iter.max(1.0)).clamp(1.0, 1e9) as u64;

        let mut samples = Vec::with_capacity(self.sample_size);
        let mut total_iters = 0u64;
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                mode: Mode::Sample {
                    iters: iters_per_sample,
                    elapsed_ns: 0.0,
                },
            };
            f(&mut b);
            if let Mode::Sample { elapsed_ns, iters } = b.mode {
                samples.push(elapsed_ns / iters as f64);
                total_iters += iters;
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let median = if samples.is_empty() {
            0.0
        } else if samples.len() % 2 == 1 {
            samples[samples.len() / 2]
        } else {
            (samples[samples.len() / 2 - 1] + samples[samples.len() / 2]) / 2.0
        };
        self.parent.record(BenchResult {
            id: full_id,
            median_ns: median,
            iters: total_iters,
        });
    }

    /// End the group (kept for API compatibility; recording is eager).
    pub fn finish(self) {}
}

enum Mode {
    WarmUp { until: Instant },
    Measured { per_iter_ns: f64 },
    Sample { iters: u64, elapsed_ns: f64 },
}

/// Per-benchmark timing harness handed to the closure.
pub struct Bencher {
    mode: Mode,
}

impl Bencher {
    /// Time `routine`, discarding its output through a black box.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        match self.mode {
            Mode::WarmUp { until } => {
                // Run until the warm-up budget elapses, estimating cost.
                let mut iters = 0u64;
                let start = Instant::now();
                loop {
                    black_box(routine());
                    iters += 1;
                    if Instant::now() >= until {
                        break;
                    }
                }
                let per_iter_ns = start.elapsed().as_nanos() as f64 / iters as f64;
                self.mode = Mode::Measured { per_iter_ns };
            }
            Mode::Measured { .. } => {
                black_box(routine());
            }
            Mode::Sample { iters, .. } => {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                let elapsed_ns = start.elapsed().as_nanos() as f64;
                self.mode = Mode::Sample { iters, elapsed_ns };
            }
        }
    }
}

/// Collect benchmark functions into a runner (shim of
/// `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Entry point running the groups and exporting results (shim of
/// `criterion::criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            c.export();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_plausible() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("unit");
            g.sample_size(5)
                .measurement_time(Duration::from_millis(50))
                .warm_up_time(Duration::from_millis(10));
            g.bench_function("sum", |b| b.iter(|| (0..1000u64).sum::<u64>()));
            g.finish();
        }
        let r = &c.results()[0];
        assert_eq!(r.id, "unit/sum");
        assert!(r.median_ns > 0.0);
        assert!(r.iters > 0);
    }

    #[test]
    fn empty_bench_records_zero() {
        let mut c = Criterion::default();
        c.bench_function("noop", |_b| {});
        assert_eq!(c.results()[0].iters, 0);
    }
}
