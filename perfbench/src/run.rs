//! One benchmark run: set up, drive the seeded stream from one client
//! thread in a closed loop, trace on request, verify, and summarize.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::target::{load, Replies, Target};
use crate::trace::{Span, Totals, Tracer};
use crate::util::{median, quantile, rss_mib};
use crate::verify::{verify, Checked, Recorded};
use crate::workload::{generate, Generated, Op, Shape, Stream, Workload, Write};

/// Fewest setups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Setups continue past [`SETUPS`] until they have taken this many
/// seconds together (or [`MAX_SETUPS`] are done), so a world that sets up
/// in milliseconds gets a median over enough samples to be steady.
const SETUP_SECONDS: f64 = 1.0;

/// Most setups per run.
const MAX_SETUPS: usize = 25;

/// How often a measured phase samples the process's resident memory.
const RSS_EVERY: Duration = Duration::from_millis(100);

/// Queries the warm-up asks before timing starts.
const WARM_UP_QUERIES: usize = 256;

/// How long a measured phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Until this much wall time has passed.
    Time(Duration),
    /// Exactly this many stream operations (tests).
    Ops(usize),
}

/// What one measured phase saw.
pub struct Phase {
    /// Stream operations executed (reads and writes).
    pub ops: usize,
    /// Queries answered.
    pub queries: u64,
    /// Calls that erred, were refused, or came back non-exact.
    pub failed: u64,
    /// Latency of each read call not directly after a write, in µs.
    pub read_us: Vec<f64>,
    /// Latency of each first read after a write, in µs.
    pub fresh_us: Vec<f64>,
    /// Write calls made.
    pub writes: u64,
    /// Wall time of the whole phase, writes included.
    pub elapsed: Duration,
    /// Resident memory every [`RSS_EVERY`] of the phase and at its end,
    /// in MiB.
    pub rss_mib: Vec<f64>,
    /// The traced phase's per-layer totals and spans.
    pub trace: Option<(Totals, Vec<Span>)>,
}

impl Phase {
    /// Queries answered per second of the phase.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64()
    }

    /// Read calls plus writes attempted.
    pub fn attempted(&self) -> u64 {
        self.ops as u64
    }
}

/// A full run's results.
pub struct RunResult {
    /// The workload's shape as run.
    pub shape: Shape,
    /// Each setup's wall time in seconds.
    pub setup_s: Vec<f64>,
    /// The untraced phase (end-to-end metrics).
    pub plain: Phase,
    /// The traced phase, when tracing was asked for.
    pub traced: Option<Phase>,
    /// What the verify pass checked, or the first wrong answer.
    pub verified: Result<Checked, String>,
}

/// Build the world and load it, then publish (the first read publishes,
/// or fully syncs every node) and warm up.
fn set_up(workload: Workload, shape: Shape, seed: u64) -> std::io::Result<(Generated, Target)> {
    let world = generate(&shape);
    let target = load(&shape, &world.dataset)?;
    let calls = WARM_UP_QUERIES.div_ceil(shape.batch);
    for op in Stream::warm_up(workload, shape, &world, seed).take(calls) {
        if let Op::Read(queries) = op {
            std::hint::black_box(target.read(&queries));
        }
    }
    Ok((world, target))
}

fn write_name(w: &Write) -> &'static str {
    match w {
        Write::Reweight { .. } => "service.connect",
        Write::Slot { .. } => "service.set_availability",
    }
}

/// Drive the stream against `target` until the budget is spent, keeping
/// every reply in `replies` for the verify pass.
fn measure(
    target: &mut Target,
    mut stream: Stream,
    budget: Budget,
    traced: bool,
    replies: &mut Replies,
) -> std::io::Result<Phase> {
    let mut tracer = traced.then(|| Tracer::new(target));
    let mut phase = Phase {
        ops: 0,
        queries: 0,
        failed: 0,
        read_us: Vec::new(),
        fresh_us: Vec::new(),
        writes: 0,
        elapsed: Duration::ZERO,
        rss_mib: Vec::new(),
        trace: None,
    };
    let start = Instant::now();
    let mut next_rss = start;
    let mut after_write = false;
    loop {
        let done = match budget {
            Budget::Time(d) => start.elapsed() >= d,
            Budget::Ops(n) => phase.ops >= n,
        };
        if done {
            break;
        }
        if Instant::now() >= next_rss {
            phase.rss_mib.extend(rss_mib());
            next_rss += RSS_EVERY;
        }
        let op_id = phase.ops as u64;
        phase.ops += 1;
        match stream.next().expect("streams are unbounded") {
            Op::Write(w) => {
                let t0 = Instant::now();
                let ok = target.write(&w);
                let t1 = Instant::now();
                phase.failed += u64::from(!ok);
                phase.writes += 1;
                if let Some(t) = tracer.as_mut() {
                    t.write(op_id, write_name(&w), t0, t1);
                }
                after_write = true;
            }
            Op::Read(queries) => {
                let t0 = Instant::now();
                let reply = target.read(&queries);
                let t1 = Instant::now();
                let us = t1.duration_since(t0).as_nanos() as f64 / 1e3;
                if after_write {
                    phase.fresh_us.push(us);
                } else {
                    phase.read_us.push(us);
                }
                phase.queries += queries.len() as u64;
                phase.failed += u64::from(reply.iter().any(Option::is_none));
                if let Some(t) = tracer.as_mut() {
                    t.read(target, op_id, &queries, &reply, after_write, t0, t1);
                }
                replies.push(&reply)?;
                after_write = false;
            }
        }
    }
    phase.elapsed = start.elapsed();
    phase.rss_mib.extend(rss_mib());
    phase.trace = tracer.map(|t| (t.totals, t.spans));
    Ok(phase)
}

/// Run `workload` once: [`SETUPS`] or more setups (the first one or two
/// carry the measured phases), an untraced phase, a traced phase when
/// `trace` is set, then the verify pass over every recorded answer.
/// Replies are spilled to files in `spill_dir`, removed once verified.
///
/// The measured phases run on the first setups: what later setups leave
/// behind in the allocator would otherwise count in the resident memory
/// they sample, and that residue varies from run to run with how the
/// threads of each setup happened to be scheduled.
pub fn run(
    workload: Workload,
    shape: Shape,
    seed: u64,
    budget: Budget,
    trace: bool,
    spill_dir: &Path,
) -> std::io::Result<RunResult> {
    let phases = if trace { 2 } else { 1 };
    std::fs::create_dir_all(spill_dir)?;
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let mut measured = Vec::with_capacity(phases);
    let mut recorded = Vec::with_capacity(phases);
    for i in 0..MAX_SETUPS {
        if i >= SETUPS && setup_s.iter().sum::<f64>() >= SETUP_SECONDS {
            break;
        }
        let t0 = Instant::now();
        let (world, mut target) = set_up(workload, shape, seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        // The first `phases` setups each carry one measured phase, so the
        // traced phase starts from a setup like the untraced one's.
        if i < phases {
            let traced = i == 1;
            let name = if traced { "traced" } else { "untraced" };
            let file = format!("replies-{}-{seed}-{name}.bin", workload.name());
            let mut replies = Replies::create(spill_dir.join(file))?;
            let stream = Stream::new(workload, shape, &world, seed);
            measured.push(measure(&mut target, stream, budget, traced, &mut replies)?);
            recorded.push(Recorded {
                phase: name,
                replies: replies.read_back()?,
            });
        }
    }
    let ops = measured.iter().map(|p| p.ops).max().unwrap_or(0);
    let verified = verify(workload, shape, seed, ops, recorded);
    let mut measured = measured.into_iter();
    Ok(RunResult {
        shape,
        setup_s,
        plain: measured.next().expect("one untraced phase"),
        traced: measured.next(),
        verified,
    })
}

/// Consecutive slices of a phase that `read_p99_us` and `peak_rss_mb`
/// take the median over.
const SLICES: usize = 10;

/// The median, over [`SLICES`] consecutive slices of `values`, of `stat`
/// of each slice. A stall of the host, or a passing spike of memory, in
/// one slice then moves that slice's figure, not the one reported.
fn median_of_slices(values: &[f64], stat: impl Fn(&[f64]) -> Option<f64>) -> f64 {
    let slice = values.len().div_ceil(SLICES).max(1);
    let per_slice: Vec<f64> = values.chunks(slice).filter_map(stat).collect();
    median(&per_slice)
}

/// Latency summary of one phase, over reads not after a write: their p50,
/// and their p99 taken per slice of the phase (see [`median_of_slices`]).
pub fn read_percentiles(phase: &Phase) -> (f64, f64) {
    let reads = &phase.read_us;
    (
        median(reads),
        median_of_slices(reads, |c| quantile(c, 0.99)),
    )
}

/// Peak resident memory of one phase in MiB: the highest sample in each
/// slice of the phase, and the median of those.
pub fn peak_rss(phase: &Phase) -> f64 {
    median_of_slices(&phase.rss_mib, |c| c.iter().copied().reduce(f64::max))
}
