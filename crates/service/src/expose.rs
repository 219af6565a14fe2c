//! Prometheus text exposition of one planner's counters and latency
//! histograms.
//!
//! The single-process spectrum: the executor's counters
//! ([`ExecMetrics`](stgq_exec::ExecMetrics)) plus the writer's mutation
//! count as Prometheus counter/gauge families, and the executor's seven
//! [`stgq_exec::EXEC_HISTOGRAMS`] as histogram families
//! (`stgq_<name>_ns`). The cluster-wide variant —
//! `stgq_cluster::ClusterObs::prometheus_text` — renders its own
//! counters, and shares [`render_histograms`] with this one so both
//! name and describe the histogram families identically.

use stgq_exec::ExecObs;
use stgq_obs::prom::PromText;
use stgq_obs::HistogramSnapshot;

use crate::planner::Planner;

impl Planner {
    /// Render this planner's full observability surface — the
    /// [`exec_metrics`](Planner::exec_metrics) counters, the writer's
    /// mutation count, the executor's latency histograms and recorder
    /// depth — as Prometheus text exposition format. The output
    /// round-trips through `stgq_obs::prom::PromReport::parse`.
    pub fn prometheus_text(&self) -> String {
        let mut text = PromText::new();
        let m = self.exec_metrics();
        let counters: [(&str, &str, u64); 24] = [
            ("queries", "Planning queries served.", m.queries),
            (
                "mutations",
                "Mutations applied (network + calendar).",
                self.writer().delta_seq(),
            ),
            (
                "feasible_cache_hits",
                "Feasible-graph cache hits.",
                m.feasible_cache_hits,
            ),
            (
                "feasible_cache_misses",
                "Feasible-graph cache misses (each triggered an extraction).",
                m.feasible_cache_misses,
            ),
            (
                "snapshot_publishes",
                "World snapshots published into the executor's epoch cell.",
                m.snapshot_publishes,
            ),
            (
                "frames_examined",
                "Search frames examined by exact engines.",
                m.frames_examined,
            ),
            (
                "frames_pruned_by_bound",
                "Frames abandoned by the incumbent distance bound (Lemma 2).",
                m.frames_pruned_by_bound,
            ),
            (
                "pivots_skipped",
                "Whole pivots skipped by the pivot-granularity distance bound.",
                m.pivots_skipped,
            ),
            (
                "peeled_candidates",
                "Candidates removed by (p,k)-core peeling before exact descent.",
                m.peeled_candidates,
            ),
            (
                "pivots_refused_by_core",
                "Pivots refused because their peeled core could not seat a group.",
                m.pivots_refused_by_core,
            ),
            (
                "frames_pruned_by_match",
                "Frames abandoned by the k-plex matching bound.",
                m.frames_pruned_by_match,
            ),
            (
                "children_pruned_by_parent_bound",
                "Children retired at the parent frame by the completion bound.",
                m.children_pruned_by_parent_bound,
            ),
            (
                "prep_words_delta",
                "Availability words whose rebuild the incremental-prep cache avoided.",
                m.prep_words_delta,
            ),
            (
                "prep_words_rebuilt",
                "Availability words built from calendar words during preparation.",
                m.prep_words_rebuilt,
            ),
            (
                "extract_words_borrowed",
                "Adjacency words generated in place by zero-copy feasible-view extraction.",
                m.extract_words_borrowed,
            ),
            (
                "batched_entries",
                "Entries that went through the batched executor path.",
                m.batched_entries,
            ),
            (
                "collapsed_entries",
                "Batched entries answered by request collapsing.",
                m.collapsed_entries,
            ),
            (
                "result_cache_hits",
                "Whole answers replayed from the version-stamped result cache.",
                m.result_cache_hits,
            ),
            (
                "result_cache_misses",
                "Result-cache lookups that missed (fresh query or moved epoch).",
                m.result_cache_misses,
            ),
            (
                "result_cache_evicted_stale_shard",
                "Result-cache entries evicted because a stamped shard moved.",
                m.result_cache_evicted_stale_shard,
            ),
            (
                "result_cache_evicted_capacity",
                "Result-cache entries evicted to make room at capacity.",
                m.result_cache_evicted_capacity,
            ),
            (
                "snapshot_shards_rebuilt",
                "Per-shard sub-snapshots actually rebuilt at publication.",
                m.snapshot_shards_rebuilt,
            ),
            (
                "snapshot_shards_reused",
                "Per-shard sub-snapshots carried over by Arc reuse.",
                m.snapshot_shards_reused,
            ),
            (
                "cancelled",
                "Solves stopped early by a deadline or cancellation token.",
                m.cancelled,
            ),
        ];
        for (name, help, value) in counters {
            text.counter(&format!("stgq_{name}"), help, &[], value);
        }
        text.gauge(
            "stgq_cached_feasible_graphs",
            "Feasible graphs currently cached.",
            &[],
            m.cached_feasible_graphs as f64,
        );
        let obs = self.executor().obs();
        let hists: Vec<(String, HistogramSnapshot)> = obs
            .histograms()
            .into_iter()
            .map(|(name, snap)| (name.to_string(), snap))
            .collect();
        render_histograms(&mut text, "stgq", &hists, &[]);
        text.gauge(
            "stgq_slow_queries_logged",
            "Entries currently held in the slowest-N slow-query log.",
            &[],
            obs.recorder.slow_queries().len() as f64,
        );
        text.gauge(
            "stgq_traces_buffered",
            "Query traces currently held in the flight-recorder ring.",
            &[],
            obs.recorder.traces().len() as f64,
        );
        text.finish()
    }
}

/// Render named histogram snapshots as `<prefix>_<name>_ns` families
/// with `labels` on every sample. Shared by the planner and cluster
/// expositions; `ExecObs::histogram_help` keys the `HELP` strings so
/// both describe identical families identically.
pub fn render_histograms(
    text: &mut PromText,
    prefix: &str,
    histograms: &[(String, HistogramSnapshot)],
    labels: &[(&str, &str)],
) {
    for (name, snap) in histograms {
        text.histogram(
            &format!("{prefix}_{name}_ns"),
            ExecObs::histogram_help(name),
            labels,
            snap,
        );
    }
}
