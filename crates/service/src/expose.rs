//! Prometheus text exposition of one planner's counters and latency
//! histograms.
//!
//! The single-process spectrum: every [`MetricsSnapshot`] counter as a
//! Prometheus counter/gauge family, plus the executor's seven
//! [`stgq_exec::EXEC_HISTOGRAMS`] as histogram families
//! (`stgq_<name>_ns`). The cluster-wide variant — the same families
//! merged fleet-wide with per-node breakdowns and RPC round-trips — is
//! `stgq_cluster::ClusterObs::prometheus_text`, which reuses
//! [`render_metrics_snapshot`] and [`render_histograms`] so the two
//! expositions cannot drift apart.

use stgq_exec::ExecObs;
use stgq_obs::prom::PromText;
use stgq_obs::HistogramSnapshot;

use crate::planner::{MetricsSnapshot, Planner};

impl Planner {
    /// Render this planner's full observability surface —
    /// [`Planner::metrics`] counters plus the executor's latency
    /// histograms and recorder depth — as Prometheus text exposition
    /// format. The output round-trips through
    /// `stgq_obs::prom::PromReport::parse`.
    pub fn prometheus_text(&self) -> String {
        let mut text = PromText::new();
        render_metrics_snapshot(&mut text, &self.metrics(), &[]);
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

/// Render every [`MetricsSnapshot`] field into `text` under the `stgq_`
/// prefix, attaching `labels` to each sample (the cluster exposition
/// passes `node="i"` here; the single-process exposition passes none).
pub fn render_metrics_snapshot(text: &mut PromText, m: &MetricsSnapshot, labels: &[(&str, &str)]) {
    let counters: [(&str, &str, u64); 24] = [
        ("queries", "Planning queries served.", m.queries),
        (
            "mutations",
            "Mutations applied (network + calendar).",
            m.mutations,
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
            "snapshot_rebuilds",
            "CSR snapshot rebuilds.",
            m.snapshot_rebuilds,
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
        text.counter(&format!("stgq_{name}"), help, labels, value);
    }
    text.gauge(
        "stgq_cached_feasible_graphs",
        "Feasible graphs currently cached.",
        labels,
        m.cached_feasible_graphs as f64,
    );
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
