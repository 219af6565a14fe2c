//! The traced run's instruments, all outside the program: a span around
//! every public call the benchmark makes, per-call deltas of the counters
//! and histograms the serving layers already export, and a timed
//! `FeasibleView::extract` probe on the published snapshot.
//!
//! Below the public call the program has no spans of its own, so each
//! layer's share of a call is the call's delta of that layer's histogram
//! sum. Those become *derived* child spans: their durations are measured,
//! their start is the parent's start. On a call that runs entries on
//! several threads (a batch, a cluster scatter) a derived duration is
//! busy time summed over threads and can exceed the parent's wall time;
//! the reconciliation table shows that overlap instead of hiding it.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use stgq_graph::FeasibleView;
use stgq_obs::HistogramSnapshot;
use stgq_service::BatchQuery;

use crate::target::{ReadReply, Sample, Target};
use crate::workload::query_key;

/// One span: a timed public call, or a layer's measured share of it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Shared by every span of one operation.
    pub op: u64,
    /// Unique within the run.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// `layer.what`.
    pub name: &'static str,
    /// Nanoseconds since the phase began.
    pub start_ns: u64,
    /// Nanoseconds since the phase began.
    pub end_ns: u64,
    /// Whether the duration is a histogram delta rather than a clock
    /// pair read by the benchmark.
    pub derived: bool,
}

fn find<'a>(list: &'a [(String, HistogramSnapshot)], name: &str) -> Option<&'a HistogramSnapshot> {
    list.iter().find(|(n, _)| n == name).map(|(_, s)| s)
}

/// How much one histogram's sum grew over a call, in µs.
fn growth(
    before: &[(String, HistogramSnapshot)],
    after: &[(String, HistogramSnapshot)],
    name: &str,
) -> f64 {
    let sum = |list| find(list, name).map_or(0, |h: &HistogramSnapshot| h.sum_ns);
    sum(after).saturating_sub(sum(before)) as f64 / 1e3
}

/// Per-call layer times in µs.
#[derive(Clone, Copy, Debug, Default)]
struct CallTimes {
    wall: f64,
    end_to_end: f64,
    queue_wait: f64,
    solve: f64,
    prep: f64,
    descend: f64,
    extract: f64,
    publish: f64,
    rpc_execute: f64,
    rpc_replication: f64,
}

/// Everything the traced phase accumulates, summed over read calls.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    reads: u64,
    inline_reads: u64,
    fresh_reads: u64,
    entries: u64,
    service_self_us: f64,
    fresh_service_self_us: Vec<f64>,
    fresh_wall_us: Vec<f64>,
    unattributed_us: f64,
    transport_us: f64,
    times: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
    probe_ns: f64,
    probe_candidates: u64,
    probes: u64,
    /// Per call kind, its span tree with summed durations and self times.
    kinds: BTreeMap<&'static str, KindTree>,
}

/// One call kind's span tree: `(depth, name, Σ duration µs, Σ self µs)`
/// per span, in tree order, summed over calls.
#[derive(Clone, Debug, Default)]
struct KindTree {
    calls: u64,
    rows: Vec<(usize, &'static str, f64, f64)>,
}

/// The spans of one read call as `(name, parent position, duration µs)`:
/// the call itself first, then each layer's share of it. On a cluster,
/// node-side publication happens while a node applies the replication
/// RPC, and node executors run inside the execute RPC.
fn call_tree(
    call: &'static str,
    clustered: bool,
    c: &CallTimes,
) -> Vec<(&'static str, Option<usize>, f64)> {
    let mut tree = vec![(call, None, c.wall)];
    let exec_parent = if clustered {
        tree.push(("cluster.rpc_replication", Some(0), c.rpc_replication));
        tree.push(("exec.snapshot_publish", Some(1), c.publish));
        tree.push(("cluster.rpc_execute", Some(0), c.rpc_execute));
        3
    } else {
        tree.push(("exec.snapshot_publish", Some(0), c.publish));
        0
    };
    let e2e = tree.len();
    tree.push(("exec.end_to_end", Some(exec_parent), c.end_to_end));
    tree.push(("exec.queue_wait", Some(e2e), c.queue_wait));
    tree.push(("graph.feasible_extract", Some(e2e), c.extract));
    let solve = tree.len();
    tree.push(("core.solve", Some(e2e), c.solve));
    tree.push(("core.prep", Some(solve), c.prep));
    tree.push(("core.descend", Some(solve), c.descend));
    tree
}

/// Depth, name, duration and self time (duration minus the children's
/// durations) of each span of one call, in µs, in recording order —
/// parents are always recorded before their children.
fn self_times(spans: &[Span]) -> Vec<(usize, &'static str, f64, f64)> {
    let base = spans[0].id;
    let mut rows: Vec<(usize, &'static str, f64, f64)> = Vec::with_capacity(spans.len());
    for s in spans {
        let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
        let depth = match s.parent {
            Some(p) => {
                let parent = &mut rows[(p - base) as usize];
                parent.3 -= dur;
                parent.0 + 1
            }
            None => 0,
        };
        rows.push((depth, s.name, dur, dur));
    }
    rows
}

/// The traced phase's recorder.
pub struct Tracer {
    origin: Instant,
    last: Sample,
    next_id: u32,
    /// Every span, kept in memory until the run ends.
    pub spans: Vec<Span>,
    /// The accumulated per-layer totals.
    pub totals: Totals,
}

impl Tracer {
    /// Start tracing `target` from now.
    pub fn new(target: &Target) -> Tracer {
        Tracer {
            origin: Instant::now(),
            last: target.sample(),
            next_id: 0,
            spans: Vec::new(),
            totals: Totals::default(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn span(
        &mut self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        derived: bool,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            derived,
        });
        id
    }

    /// Record a write call.
    pub fn write(&mut self, op: u64, name: &'static str, t0: Instant, t1: Instant) {
        let (s, e) = (self.ns(t0), self.ns(t1));
        self.span(op, None, name, s, e - s, false);
    }

    /// Record a read call: its span, its layers' derived spans, the
    /// counters it moved, and then (outside the call's span) one timed
    /// extraction probe on the published snapshot.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &mut self,
        target: &Target,
        op: u64,
        queries: &[BatchQuery],
        reply: &ReadReply,
        fresh: bool,
        t0: Instant,
        t1: Instant,
    ) {
        let after = target.sample();
        let before = std::mem::take(&mut self.last);
        let g = |name| growth(&before.exec, &after.exec, name);
        let r = |name| growth(&before.rpc, &after.rpc, name);
        let c = CallTimes {
            wall: t1.duration_since(t0).as_nanos() as f64 / 1e3,
            end_to_end: g("end_to_end"),
            queue_wait: g("queue_wait"),
            solve: g("solve"),
            prep: g("prep"),
            descend: g("descend"),
            extract: g("feasible_extract"),
            publish: g("snapshot_publish"),
            rpc_execute: r("rpc_execute"),
            rpc_replication: r("rpc_replication"),
        };
        let clustered = matches!(target, Target::Cluster(_));
        let inline = queries.len() == 1 && !clustered;
        let name = match (clustered, inline) {
            (true, _) => "cluster.plan_batch",
            (false, true) => match queries[0].spec {
                stgq_exec::QuerySpec::Sgq(_) => "service.plan_sgq",
                stgq_exec::QuerySpec::Stgq(_) => "service.plan_stgq",
            },
            (false, false) => "service.plan_batch",
        };

        // Spans: the call, then its layers' measured shares.
        let first = self.spans.len();
        let start = self.ns(t0);
        let mut ids: Vec<u32> = Vec::new();
        for (i, (span, parent, us)) in call_tree(name, clustered, &c).into_iter().enumerate() {
            let parent = parent.map(|p| ids[p]);
            ids.push(self.span(op, parent, span, start, (us * 1e3) as u64, i > 0));
        }
        let tree = self_times(&self.spans[first..]);

        // The executor's envelope minus its timed stages is work no
        // exported timer covers: unattributed. On a planner the call's
        // own remainder is the service layer's self time.
        let unattributed = c.end_to_end - c.queue_wait - c.extract - c.solve;
        if clustered {
            self.totals.transport_us += c.rpc_execute - (c.end_to_end - c.queue_wait);
        } else if inline {
            let service_self = tree[0].3;
            self.totals.inline_reads += 1;
            self.totals.service_self_us += service_self;
            if fresh {
                self.totals.fresh_service_self_us.push(service_self);
                self.totals.fresh_wall_us.push(c.wall);
            }
        }
        let t = &mut self.totals;
        t.reads += 1;
        t.fresh_reads += u64::from(fresh);
        t.entries += queries.len() as u64;
        t.unattributed_us += unattributed;
        let kind = t.kinds.entry(name).or_default();
        kind.calls += 1;
        kind.rows.resize(tree.len(), (0, "", 0.0, 0.0));
        for (row, (depth, span, dur, own)) in kind.rows.iter_mut().zip(tree) {
            *row = (depth, span, row.2 + dur, row.3 + own);
        }
        for (key, v) in [
            ("end_to_end", c.end_to_end),
            ("queue_wait", c.queue_wait),
            ("solve", c.solve),
            ("prep", c.prep),
            ("descend", c.descend),
            ("extract", c.extract),
            ("publish", c.publish),
            ("rpc_execute", c.rpc_execute),
            ("rpc_replication", c.rpc_replication),
        ] {
            *t.times.entry(key).or_default() += v;
        }
        let (b, a) = (&before.counters, &after.counters);
        for (key, v) in [
            ("frames", a.frames_examined - b.frames_examined),
            (
                "frames_pruned_by_bound",
                a.frames_pruned_by_bound - b.frames_pruned_by_bound,
            ),
            ("pivots_skipped", a.pivots_skipped - b.pivots_skipped),
            (
                "peeled_candidates",
                a.peeled_candidates - b.peeled_candidates,
            ),
            (
                "frames_pruned_by_match",
                a.frames_pruned_by_match - b.frames_pruned_by_match,
            ),
            (
                "children_pruned_by_parent_bound",
                a.children_pruned_by_parent_bound - b.children_pruned_by_parent_bound,
            ),
            (
                "prep_words_rebuilt",
                a.prep_words_rebuilt - b.prep_words_rebuilt,
            ),
            (
                "run_cache_cross_solve_hits",
                a.run_cache_cross_solve_hits - b.run_cache_cross_solve_hits,
            ),
            (
                "shards_rebuilt",
                a.snapshot_shards_rebuilt - b.snapshot_shards_rebuilt,
            ),
            (
                "shards_reused",
                a.snapshot_shards_reused - b.snapshot_shards_reused,
            ),
            (
                "result_cache_hits",
                a.result_cache_hits - b.result_cache_hits,
            ),
            (
                "result_cache_misses",
                a.result_cache_misses - b.result_cache_misses,
            ),
            (
                "feasible_cache_hits",
                a.feasible_cache_hits - b.feasible_cache_hits,
            ),
            (
                "feasible_cache_misses",
                a.feasible_cache_misses - b.feasible_cache_misses,
            ),
            ("batched_entries", a.batched_entries - b.batched_entries),
            (
                "collapsed_entries",
                a.collapsed_entries - b.collapsed_entries,
            ),
            ("retries", after.retries - before.retries),
            ("full_syncs", after.full_syncs - before.full_syncs),
            ("pivots_processed", pivots_processed(queries, reply)),
        ] {
            *t.counts.entry(key).or_default() += v;
        }
        self.last = after;

        // The extraction probe: the benchmark's own timed call into the
        // graph layer, on the snapshot the call was answered from.
        if let Some(snapshot) = target.published_snapshot() {
            let q = queries[0];
            let p0 = Instant::now();
            let view = FeasibleView::extract(snapshot.graph(), q.initiator, q.spec.s());
            let p1 = Instant::now();
            let candidates = std::hint::black_box(view).len() as u64;
            let (s, e) = (self.ns(p0), self.ns(p1));
            self.span(op, None, "graph.extract_probe", s, e - s, false);
            self.totals.probe_ns += (e - s) as f64;
            self.totals.probe_candidates += candidates;
            self.totals.probes += 1;
        }
    }
}

/// Pivots prepared by the engine runs behind a reply. A planner batch
/// collapses identical entries without flagging them, so only the first
/// of each distinct query per call is counted; replays carry no stats.
fn pivots_processed(queries: &[BatchQuery], reply: &ReadReply) -> u64 {
    let mut seen = HashSet::new();
    queries
        .iter()
        .zip(reply)
        .filter(|(q, _)| seen.insert(query_key(q)))
        .filter_map(|(_, a)| a.as_ref()?.stats)
        .map(|s| s.pivots_processed)
        .sum()
}

impl Totals {
    fn per_read(&self, v: f64) -> f64 {
        v / self.reads.max(1) as f64
    }

    fn time(&self, key: &str) -> f64 {
        self.per_read(self.times.get(key).copied().unwrap_or(0.0))
    }

    fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// Deterministic work counters (totals, not rates): what the counter
    /// determinism test compares.
    pub fn work_counts(&self) -> BTreeMap<String, u64> {
        [
            ("core.frames", "frames"),
            ("core.pivots_processed", "pivots_processed"),
            ("core.pivots_skipped", "pivots_skipped"),
            ("core.peeled_candidates", "peeled_candidates"),
            ("core.frames_pruned_by_match", "frames_pruned_by_match"),
            (
                "core.children_pruned_by_parent_bound",
                "children_pruned_by_parent_bound",
            ),
            ("core.prep_words_rebuilt", "prep_words_rebuilt"),
            (
                "core.run_cache_cross_solve_hits",
                "run_cache_cross_solve_hits",
            ),
            ("service.shards_rebuilt", "shards_rebuilt"),
            ("service.shards_reused", "shards_reused"),
        ]
        .into_iter()
        .map(|(name, key)| (name.to_string(), self.count(key)))
        .collect()
    }

    /// The per-layer metrics, every one `BENCHMARK.json` names, as
    /// `(name, value)`; times and counts are means per read call.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per = |key: &str| self.per_read(self.count(key) as f64);
        let fresh_self = crate::util::median(&self.fresh_service_self_us);
        vec![
            ("core.prep_us", self.time("prep")),
            ("core.descend_us", self.time("descend")),
            ("core.frames", per("frames")),
            ("core.pivots_processed", per("pivots_processed")),
            ("core.pivots_skipped", per("pivots_skipped")),
            ("core.peeled_candidates", per("peeled_candidates")),
            ("core.frames_pruned_by_match", per("frames_pruned_by_match")),
            (
                "core.children_pruned_by_parent_bound",
                per("children_pruned_by_parent_bound"),
            ),
            ("core.prep_words_rebuilt", per("prep_words_rebuilt")),
            (
                "core.run_cache_cross_solve_hits",
                per("run_cache_cross_solve_hits"),
            ),
            (
                "core.frames_pruned_ratio",
                Self::ratio(
                    self.count("frames_pruned_by_bound") + self.count("frames_pruned_by_match"),
                    self.count("frames"),
                ),
            ),
            ("graph.extract_us", self.time("extract")),
            (
                "graph.candidates",
                self.probe_candidates as f64 / self.probes.max(1) as f64,
            ),
            (
                "graph.extract_ns_per_candidate",
                self.probe_ns / self.probe_candidates.max(1) as f64,
            ),
            (
                "service.self_us",
                self.service_self_us / self.inline_reads.max(1) as f64,
            ),
            ("service.fresh_self_us", fresh_self),
            ("service.shards_rebuilt", per("shards_rebuilt")),
            ("service.shards_reused", per("shards_reused")),
            ("exec.end_to_end_us", self.time("end_to_end")),
            ("exec.queue_wait_us", self.time("queue_wait")),
            ("exec.solve_us", self.time("solve")),
            ("exec.publish_us", self.time("publish")),
            (
                "exec.result_cache_hit_ratio",
                Self::ratio(
                    self.count("result_cache_hits"),
                    self.count("result_cache_hits") + self.count("result_cache_misses"),
                ),
            ),
            (
                "exec.feasible_cache_hit_ratio",
                Self::ratio(
                    self.count("feasible_cache_hits"),
                    self.count("feasible_cache_hits") + self.count("feasible_cache_misses"),
                ),
            ),
            (
                "exec.collapsed_ratio",
                Self::ratio(
                    self.count("collapsed_entries"),
                    self.count("batched_entries"),
                ),
            ),
            ("cluster.rpc_execute_us", self.time("rpc_execute")),
            ("cluster.rpc_replication_us", self.time("rpc_replication")),
            ("cluster.transport_us", self.per_read(self.transport_us)),
            ("cluster.retries", per("retries")),
            ("cluster.full_syncs", per("full_syncs")),
            ("unattributed_us", self.per_read(self.unattributed_us)),
        ]
    }

    /// The reconciliation table: per call kind, each span's mean duration
    /// and self time, and whether the self times add up to the call's
    /// wall time (they do on inline calls; on batch calls the children's
    /// times are summed over entries and can exceed it).
    pub fn reconciliation(&self) -> String {
        let mut out = String::new();
        for (kind, tree) in &self.kinds {
            let n = tree.calls.max(1) as f64;
            let wall = tree.rows.first().map_or(0.0, |r| r.2) / n;
            out += &format!("{kind}: {} calls, mean wall {wall:.1} us\n", tree.calls);
            out += &format!(
                "  {:<34} {:>11} {:>11} {:>8}\n",
                "span", "mean_us", "self_us", "of wall"
            );
            let mut self_sum = 0.0;
            for &(depth, name, dur, own) in &tree.rows {
                self_sum += own / n;
                out += &format!(
                    "  {:<34} {:>11.1} {:>11.1} {:>7.1}%\n",
                    format!("{}{name}", "  ".repeat(depth)),
                    dur / n,
                    own / n,
                    100.0 * dur / n / wall.max(1e-9)
                );
            }
            let negative = tree.rows.iter().any(|r| r.3 < 0.0);
            out += &format!(
                "  self times sum to {self_sum:.1} us = wall{}\n",
                if negative {
                    "; a negative self time marks children summed over a batch's entries (> wall)"
                } else {
                    ""
                }
            );
        }
        if !self.fresh_wall_us.is_empty() {
            let wall = crate::util::median(&self.fresh_wall_us);
            let own = crate::util::median(&self.fresh_service_self_us);
            out += &format!(
                "fresh reads: median wall {wall:.1} us, of which service self {own:.1} us ({:.0}%)\n",
                100.0 * own / wall.max(1e-9)
            );
        }
        out
    }

    /// Fresh reads seen by the traced phase.
    pub fn fresh_reads(&self) -> u64 {
        self.fresh_reads
    }

    /// Queries answered by the traced phase.
    pub fn entries(&self) -> u64 {
        self.entries
    }
}

/// Write the spans as a JSON array (one object per line).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out += &format!(
            "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}{}\n",
            s.op,
            s.id,
            parent,
            s.name,
            s.start_ns,
            s.end_ns,
            s.derived,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out + "]\n"
}
