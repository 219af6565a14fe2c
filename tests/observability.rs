//! Integration tests for the observability layer through the façade:
//!
//! * **Exposition round-trip** — `Planner::prometheus_text` and the
//!   cluster-wide `ClusterObs::prometheus_text` parse back through the
//!   Prometheus text parser, cover the whole histogram spectrum
//!   (end-to-end, queue wait, solve, prep, descend, RPC, …), and agree
//!   with the counter snapshots they were rendered from.
//! * **Fleet merge** — the cluster's merged histograms equal the
//!   element-wise sum of the per-node reports.
//! * **Slow-query log** — a deliberately hard query lands in the log
//!   with a correct stage breakdown (spans nest, counters move).
//! * **Ring determinism** — the flight-recorder ring holds the same
//!   trace set under 1/2/4 executor workers.
//! * **Cancellation provenance** — result-cache replays sample the
//!   end-to-end histogram but never count cancellations, emit traces,
//!   or sample the solve histogram (the envelope-level `StopCause`
//!   accounting).

use std::time::Duration;

use stgq::cluster::{Cluster, ClusterConfig, WireCodec};
use stgq::datagen::scenario::coarse_distance_analog;
use stgq::datagen::Dataset;
use stgq::exec::{ExecConfig, QuerySpec};
use stgq::graph::NodeId;
use stgq::obs::prom::PromReport;
use stgq::prelude::*;
use stgq::service::{BatchQuery, Engine, Planner};

fn planner_with(ds: &Dataset, exec: ExecConfig) -> Planner {
    let mut planner = Planner::with_exec_config(ds.grid.horizon(), exec);
    for v in 0..ds.graph.node_count() {
        planner.add_person(format!("p{v}"));
    }
    for e in ds.graph.edges() {
        planner.connect(e.a, e.b, e.weight).unwrap();
    }
    for (v, cal) in ds.calendars.iter().enumerate() {
        planner.set_calendar(NodeId(v as u32), cal.clone()).unwrap();
    }
    planner
}

/// Mixed SGQ/STGQ workload over `count` distinct initiators.
fn workload(ds: &Dataset, count: u32) -> Vec<BatchQuery> {
    let sgq = SgqQuery::new(4, 2, 2).unwrap();
    let stgq = StgqQuery::new(4, 2, 2, 4).unwrap();
    let n = ds.graph.node_count() as u32;
    (0..count)
        .map(|i| BatchQuery {
            initiator: NodeId((i * 17 + 3) % n),
            spec: if i % 2 == 0 {
                QuerySpec::Stgq(stgq)
            } else {
                QuerySpec::Sgq(sgq)
            },
            engine: Engine::Exact,
        })
        .collect()
}

#[test]
fn planner_exposition_round_trips_and_matches_its_counters() {
    let ds = coarse_distance_analog(1, 42, 3);
    let planner = planner_with(&ds, ExecConfig::default());
    let batch = workload(&ds, 12);
    // Two passes: the second is answered from the result cache, so the
    // exposition shows both the solve mode and the replay fast path.
    for _ in 0..2 {
        for reply in planner.plan_batch(&batch) {
            reply.unwrap();
        }
    }

    let text = planner.prometheus_text();
    let report = PromReport::parse(&text).expect("own exposition must parse");

    let histograms = report.histogram_names();
    for family in [
        "stgq_end_to_end_ns",
        "stgq_queue_wait_ns",
        "stgq_solve_ns",
        "stgq_prep_ns",
        "stgq_descend_ns",
        "stgq_feasible_extract_ns",
        "stgq_snapshot_build_ns",
        "stgq_snapshot_publish_ns",
    ] {
        assert!(histograms.contains(&family), "missing histogram {family}");
    }

    // Every counter and gauge family the planner renders equals the
    // counter it was rendered from, and no family goes unchecked.
    let m = planner.exec_metrics();
    let counters: [(&str, u64); 25] = [
        ("stgq_queries", m.queries),
        ("stgq_mutations", planner.writer().delta_seq()),
        ("stgq_feasible_cache_hits", m.feasible_cache_hits),
        ("stgq_feasible_cache_misses", m.feasible_cache_misses),
        ("stgq_snapshot_publishes", m.snapshot_publishes),
        ("stgq_frames_examined", m.frames_examined),
        ("stgq_frames_pruned_by_bound", m.frames_pruned_by_bound),
        ("stgq_pivots_skipped", m.pivots_skipped),
        ("stgq_peeled_candidates", m.peeled_candidates),
        ("stgq_pivots_refused_by_core", m.pivots_refused_by_core),
        ("stgq_frames_pruned_by_match", m.frames_pruned_by_match),
        (
            "stgq_children_pruned_by_parent_bound",
            m.children_pruned_by_parent_bound,
        ),
        ("stgq_prep_words_delta", m.prep_words_delta),
        ("stgq_prep_words_rebuilt", m.prep_words_rebuilt),
        ("stgq_extract_words_borrowed", m.extract_words_borrowed),
        ("stgq_batched_entries", m.batched_entries),
        ("stgq_collapsed_entries", m.collapsed_entries),
        ("stgq_result_cache_hits", m.result_cache_hits),
        ("stgq_result_cache_misses", m.result_cache_misses),
        (
            "stgq_result_cache_evicted_stale_shard",
            m.result_cache_evicted_stale_shard,
        ),
        (
            "stgq_result_cache_evicted_capacity",
            m.result_cache_evicted_capacity,
        ),
        ("stgq_snapshot_shards_rebuilt", m.snapshot_shards_rebuilt),
        ("stgq_snapshot_shards_reused", m.snapshot_shards_reused),
        ("stgq_cancelled", m.cancelled),
        ("stgq_solve_panics", m.solve_panics),
    ];
    let obs = planner.executor().obs();
    let gauges: [(&str, usize); 3] = [
        ("stgq_cached_feasible_graphs", m.cached_feasible_graphs),
        (
            "stgq_slow_queries_logged",
            obs.recorder.slow_queries().len(),
        ),
        ("stgq_traces_buffered", obs.recorder.traces().len()),
    ];
    for (family, value) in counters {
        assert_eq!(report.family_type(family), Some("counter"), "{family}");
        assert_eq!(
            report.value(family, &[]),
            Some(value as f64),
            "rendered {family} must equal its counter"
        );
    }
    for (family, value) in gauges {
        assert_eq!(report.family_type(family), Some("gauge"), "{family}");
        assert_eq!(report.value(family, &[]), Some(value as f64), "{family}");
    }
    for (family, kind) in &report.families {
        assert!(
            kind == "histogram"
                || counters.iter().any(|(f, _)| f == family)
                || gauges.iter().any(|(f, _)| f == family),
            "{family} is rendered but not checked"
        );
    }
    assert!(m.result_cache_hits >= batch.len() as u64, "pass 2 replays");
    assert!(m.snapshot_publishes >= 1 && planner.writer().delta_seq() > 0);
    // The planner builds every snapshot it publishes, once.
    assert_eq!(
        report.value("stgq_snapshot_build_ns_count", &[]),
        Some(m.snapshot_publishes as f64)
    );

    // Every answer samples end-to-end; only actual solves sample solve.
    let end_to_end = report.value("stgq_end_to_end_ns_count", &[]).unwrap();
    let solve = report.value("stgq_solve_ns_count", &[]).unwrap();
    assert_eq!(end_to_end, m.queries as f64);
    assert!(solve > 0.0 && solve < end_to_end, "replays skip the engine");
    // The prep/descend split only samples exact sequential STGQ solves.
    assert!(report.value("stgq_prep_ns_count", &[]).unwrap() > 0.0);
    assert!(report.value("stgq_descend_ns_count", &[]).unwrap() > 0.0);
    assert_eq!(
        report.value("stgq_queue_wait_ns_count", &[]),
        Some(m.batched_entries as f64),
        "every batched entry waits in the job queue exactly once"
    );
}

#[test]
fn cluster_exposition_merges_per_node_histograms_exactly() {
    let ds = coarse_distance_analog(1, 7, 3);
    let cfg = ClusterConfig {
        nodes: 2,
        // JSON framing: the Metrics scatter/gather crosses a real codec.
        codec: WireCodec::Json,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(ds.grid.horizon(), cfg);
    for v in 0..ds.graph.node_count() {
        cluster.add_person(format!("p{v}"));
    }
    for e in ds.graph.edges() {
        cluster.connect(e.a, e.b, e.weight).unwrap();
    }
    for (v, cal) in ds.calendars.iter().enumerate() {
        cluster.set_calendar(NodeId(v as u32), cal.clone()).unwrap();
    }
    let batch = workload(&ds, 16);
    for _ in 0..2 {
        for reply in cluster.plan_batch(&batch) {
            reply.unwrap();
        }
    }
    cluster.heartbeat();

    let obs = cluster.observability();
    assert_eq!(obs.per_node.len(), 2, "both nodes reachable");
    // The fleet merge is exactly the element-wise sum of the reports.
    for (name, merged) in &obs.merged {
        let mut expected = stgq::obs::HistogramSnapshot::empty();
        for (_, node_obs) in &obs.per_node {
            if let Some((_, snap)) = node_obs.histograms.iter().find(|(n, _)| n == name) {
                expected.merge(snap);
            }
        }
        assert_eq!(merged, &expected, "merge mismatch for {name}");
    }
    let merged_end_to_end = obs
        .merged
        .iter()
        .find(|(n, _)| n == "end_to_end")
        .map(|(_, s)| s.count)
        .unwrap();
    assert_eq!(merged_end_to_end, 2 * batch.len() as u64);

    let text = obs.prometheus_text();
    let report = PromReport::parse(&text).expect("cluster exposition must parse");
    let histograms = report.histogram_names();
    for family in [
        "stgq_end_to_end_ns",
        "stgq_queue_wait_ns",
        "stgq_solve_ns",
        "stgq_prep_ns",
        "stgq_descend_ns",
        "stgq_rpc_replication_ns",
        "stgq_rpc_execute_ns",
        "stgq_rpc_status_ns",
        "stgq_node_end_to_end_ns",
    ] {
        assert!(histograms.contains(&family), "missing histogram {family}");
    }
    // Per-node samples carry the node label and sum to the merge.
    let node0 = report
        .value("stgq_node_end_to_end_ns_count", &[("node", "0")])
        .unwrap();
    let node1 = report
        .value("stgq_node_end_to_end_ns_count", &[("node", "1")])
        .unwrap();
    assert_eq!(node0 + node1, merged_end_to_end as f64);
    assert_eq!(
        report.value("stgq_end_to_end_ns_count", &[]),
        Some(merged_end_to_end as f64)
    );
    // RPC round-trips were recorded (replication + execute + probes).
    assert!(report.value("stgq_rpc_execute_ns_count", &[]).unwrap() > 0.0);
    assert!(report.value("stgq_rpc_replication_ns_count", &[]).unwrap() > 0.0);
    // Per-node lag/suspicion gauges are present for both nodes.
    for node in ["0", "1"] {
        assert_eq!(
            report.value("stgq_node_suspected", &[("node", node)]),
            Some(0.0)
        );
        assert_eq!(
            report.value("stgq_node_seq_lag", &[("node", node)]),
            Some(0.0)
        );
    }
}

#[test]
fn slow_query_log_captures_the_hard_query_with_stage_breakdown() {
    let ds = coarse_distance_analog(1, 42, 3);
    let planner = planner_with(
        &ds,
        ExecConfig {
            workers: 1,
            // Catch everything; the log keeps the slowest, so the hard
            // query must surface at the front regardless of threshold.
            slow_query_threshold: Duration::ZERO,
            // Repeats must re-solve: the measured pass below runs on a
            // warm feasible cache so solve time, not first-touch
            // extraction order, decides the log.
            result_cache_capacity: 0,
            ..ExecConfig::default()
        },
    );
    // Eleven trivial queries and one deliberately hard one: a wide,
    // deep STGQ whose pivot loop dwarfs the SGQ lookups around it.
    let mut batch = workload(&ds, 11)
        .into_iter()
        .map(|mut q| {
            q.spec = QuerySpec::Sgq(SgqQuery::new(3, 1, 2).unwrap());
            q
        })
        .collect::<Vec<_>>();
    let hard = StgqQuery::new(6, 3, 2, 6).unwrap();
    batch.push(BatchQuery {
        initiator: NodeId(0),
        spec: QuerySpec::Stgq(hard),
        engine: Engine::Exact,
    });
    // Warmup fills the feasible-graph cache; the recorder is then
    // cleared so the measured pass ranks pure solve envelopes.
    for reply in planner.plan_batch(&batch) {
        reply.unwrap();
    }
    planner.executor().obs().recorder.clear();
    for reply in planner.plan_batch(&batch) {
        reply.unwrap();
    }

    let slow = planner.executor().obs().recorder.slow_queries();
    assert!(!slow.is_empty(), "threshold 0 logs every solve");
    assert!(
        slow.windows(2)
            .all(|w| w[1].stages.total_ns <= w[0].stages.total_ns),
        "the log is sorted slowest-first"
    );
    // The deliberately hard query must be captured (twelve solves fit
    // the sixteen-entry log, so presence is deterministic; its *rank*
    // is not asserted — under a loaded test host a preempted trivial
    // query can post a larger wall-clock envelope).
    let hard_trace = slow
        .iter()
        .find(|t| t.query.starts_with("stgq(p=6,s=3,k=2,m=6)"))
        .expect("the hard query lands in the slow-query log");
    // Stage spans nest: prep + descent inside the engine call, the
    // engine call inside the end-to-end total.
    let st = &hard_trace.stages;
    assert!(st.solve_ns > 0 && st.solve_ns <= st.total_ns);
    assert!(st.prepare_ns + st.descend_ns <= st.solve_ns);
    assert!(st.descend_ns > 0, "an exact STGQ descends");
    assert!(st.prepare_ns > 0, "an exact STGQ prepares pivots");
    // And the solve's counters came along for triage.
    assert_eq!(hard_trace.stop, "completed");
    assert!(hard_trace.exact);
    assert!(hard_trace.frames > 0);
    assert!(hard_trace.pivots_processed > 0);
    // The JSON dump carries the same records.
    let json = planner.executor().obs().recorder.slow_queries_json();
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"query\":\"stgq(p=6,s=3,k=2,m=6)/exact\""));
    assert!(json.contains("\"descend_ns\":"));
}

/// The scheduling-independent projection of a trace:
/// `(initiator, query, objective, stop, exact, frames, pivots)`.
type TraceKey = (u32, String, Option<u64>, &'static str, bool, u64, u64);

#[test]
fn flight_recorder_ring_is_deterministic_across_worker_counts() {
    let ds = coarse_distance_analog(1, 42, 3);
    let batch = workload(&ds, 20);
    let mut reference: Option<Vec<TraceKey>> = None;
    for workers in [1usize, 2, 4] {
        let planner = planner_with(
            &ds,
            ExecConfig {
                workers,
                ..ExecConfig::default()
            },
        );
        for reply in planner.plan_batch(&batch) {
            reply.unwrap();
        }
        let mut traces: Vec<_> = planner
            .executor()
            .obs()
            .recorder
            .traces()
            .into_iter()
            .map(|t| {
                (
                    t.initiator,
                    t.query,
                    t.objective,
                    t.stop,
                    t.exact,
                    t.frames,
                    t.pivots_processed,
                )
            })
            .collect();
        // Completion order is scheduling-dependent with >1 worker; the
        // trace *set* (and every per-trace counter) must not be.
        traces.sort();
        assert_eq!(traces.len(), batch.len(), "every distinct query traced");
        match &reference {
            None => reference = Some(traces),
            Some(expected) => assert_eq!(
                &traces, expected,
                "{workers}-worker ring must match the 1-worker traces"
            ),
        }
    }
}

#[test]
fn replays_sample_end_to_end_but_never_solve_traces_or_cancellations() {
    let ds = coarse_distance_analog(1, 42, 3);
    let planner = planner_with(&ds, ExecConfig::default());
    let stgq = StgqQuery::new(4, 2, 2, 4).unwrap();
    let initiator = NodeId(3);

    planner.plan_stgq(initiator, &stgq, Engine::Exact).unwrap();
    let obs = planner.executor().obs();
    assert_eq!(obs.end_to_end.count(), 1);
    assert_eq!(obs.solve.count(), 1);
    assert_eq!(obs.recorder.traces().len(), 1);

    // Replay from the result cache: an answer (end-to-end sample), but
    // no engine run — no solve sample, no trace, and `cancelled` must
    // stay untouched by the envelope's StopCause accounting.
    let replay = planner.plan_stgq(initiator, &stgq, Engine::Exact).unwrap();
    assert!(replay.result_cache_hit);
    assert_eq!(obs.end_to_end.count(), 2);
    assert_eq!(obs.solve.count(), 1, "a replay never samples solve");
    assert_eq!(obs.recorder.traces().len(), 1, "a replay never traces");
    assert_eq!(planner.exec_metrics().cancelled, 0);
}
