//! `stgq-plan` — the paper's activity-planning service as a command-line
//! tool: generate a dataset snapshot, then ask SGQ/STGQ queries against it.
//!
//! ```text
//! # 1. generate a 194-person dataset with one week of calendars
//! stgq-plan generate --out team.json --days 7 --seed 42
//!
//! # 2. who should I invite (5 people, friends-of-friends, ≤1 stranger,
//! #    2 hours) and when?
//! stgq-plan query --data team.json --initiator 10 -p 5 -s 2 -k 1 -m 4
//!
//! # 3. the same without the temporal dimension (SGQ):
//! stgq-plan query --data team.json --initiator 10 -p 5 -s 2 -k 1
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use stgq::cluster::{Cluster, ClusterConfig, Suspicion};
use stgq::datagen::io::{load_dataset, save_dataset};
use stgq::datagen::metropolis::{metropolis, MetropolisConfig};
use stgq::datagen::scenario::{real_analog_194, synthetic_coauthor};
use stgq::datagen::Dataset;
use stgq::exec::{ExecConfig, QuerySpec};
use stgq::prelude::*;
use stgq::service::{BatchQuery, Engine, Planner, Writer};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("batch") => batch(&args[1..]),
        Some("cluster") => cluster(&args[1..]),
        Some("metrics") => metrics(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  stgq-plan generate --out FILE [--days N] [--seed N] [--coauthor N]
  stgq-plan query --data FILE --initiator ID -p N [-s N] [-k N] [-m N]
                  [--compare]
  stgq-plan batch --data FILE -p N [-s N] [-k N] [-m N] [--queries N]
                  [--workers N] [--chunk N]
  stgq-plan cluster --data FILE -p N [-s N] [-k N] [-m N] [--queries N]
                    [--max-nodes N]
  stgq-plan metrics [--data FILE | --members N] [--seed N] [-p N] [-s N]
                    [-k N] [-m N] [--queries N] [--nodes N] [--slow-log]
                    [--slow-threshold-us N]

generate  writes a JSON dataset snapshot (194-person community analog by
          default; --coauthor N switches to the coauthorship model).
query     answers an SGQ (no -m) or STGQ (with -m) against a snapshot;
          --compare additionally runs PCArrange for a quality comparison.
batch     drives a hot-query serving workload through the stgq-exec
          executor (shard batching -> worker pool) and
          reports throughput against the sequential per-query loop.
cluster   drives the same workload through stgq-cluster at 1, 2, ...,
          --max-nodes in-process nodes (shard router -> transport ->
          replicated epoch snapshots) and reports scale-out throughput
          plus replication metrics.
metrics   drives the hot workload against a shard-aligned metropolis
          world of --members people (default 2000; --data serves a
          snapshot instead), then prints the full latency spectrum in
          Prometheus text format: end-to-end, queue-wait, solve, prep,
          descend, feasible-extract and snapshot-publish histograms —
          fleet-merged and per node at --nodes >= 1 (default 2), plus
          per-message-class RPC round-trips, per-node lag/suspicion and
          every pipeline counter. --nodes 0 exposes one in-process
          planner instead. --slow-log dumps the flight recorder's
          slowest-N query traces as JSON instead of the exposition.

slow-query triage, worked example:
  1. capture: lower the slow threshold until the suspects land in the log
       stgq-plan metrics --members 4000 -p 6 --slow-threshold-us 200 \\
                         --nodes 0 --slow-log
  2. each trace breaks one solve into its stage spans (ns):
       {\"initiator\":931,\"query\":\"stgq(p=6,s=2,k=5,m=4)\",
        \"queue_wait_ns\":2901,\"extract_ns\":102,\"prepare_ns\":312876,
        \"descend_ns\":501234,\"total_ns\":841303,
        \"frames\":184223,\"frames_pruned_by_bound\":1742,
        \"prep_words_delta\":0,\"prep_words_rebuilt\":96320,...}
  3. read the dominant span against its counters:
       descend_ns dominating, frames_pruned_by_bound low
         -> the distance bounds are not biting: suspect a query shape
            the incumbent cannot tighten (large p, loose k) or a cold
            incumbent right after a write burst.
       prepare_ns dominating, prep_words_rebuilt >> prep_words_delta
         -> calendar churn invalidated the incremental-prep run cache:
            batch mutations between query waves.
       extract_ns large on repeat initiators
         -> feasible-graph cache evictions: raise the cache capacity
            above the distinct-initiator count.
       queue_wait_ns dominating while solve_ns is modest
         -> job-queue backlog: add workers (or nodes) rather than
            tuning the engine.
";

/// Pull `--flag value` (or `-f value`) out of an argument list.
fn take_value(args: &[String], names: &[&str]) -> Result<Option<String>, String> {
    for (i, a) in args.iter().enumerate() {
        if names.contains(&a.as_str()) {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{a} needs a value")),
            };
        }
    }
    Ok(None)
}

fn parse<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid {what}: '{v}'"))
}

/// The value of `name`, or `default` when the flag is absent.
fn value_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match take_value(args, &[name])? {
        Some(v) => parse(&v, name),
        None => Ok(default),
    }
}

/// `-p/-s/-k/-m/--queries`: the query shape every serving command takes,
/// and how many queries to drive.
struct Shape {
    p: usize,
    s: usize,
    /// Defaults to `p − 1` (no acquaintance constraint).
    k: usize,
    /// `None` asks an SGQ; the workload commands default it to 4.
    m: Option<usize>,
    queries: usize,
}

impl Shape {
    /// Parse the shape of `command`'s invocation. `p` is required unless
    /// `default_p` is given.
    fn parse(
        args: &[String],
        command: &str,
        default_p: Option<usize>,
        default_s: usize,
        default_queries: usize,
    ) -> Result<Shape, String> {
        let p = match (take_value(args, &["-p"])?, default_p) {
            (Some(v), _) => parse(&v, "-p")?,
            (None, Some(p)) => p,
            (None, None) => return Err(format!("{command} requires -p N")),
        };
        Ok(Shape {
            p,
            s: value_or(args, "-s", default_s)?,
            k: value_or(args, "-k", p.saturating_sub(1))?,
            m: take_value(args, &["-m"])?
                .map(|v| parse(&v, "-m"))
                .transpose()?,
            queries: value_or(args, "--queries", default_queries)?,
        })
    }

    /// A hot workload of `queries` exact queries, alternating STGQ and
    /// SGQ: they repeat across a small pool of popular initiators, as
    /// server traffic does (~3 occurrences per distinct query — the
    /// repetition request collapsing and the result cache exploit).
    fn hot_workload(&self, people: usize) -> Result<Vec<BatchQuery>, String> {
        let (p, s, k) = (self.p, self.s, self.k);
        let sgq = SgqQuery::new(p, s, k).map_err(|e| e.to_string())?;
        let stgq = StgqQuery::new(p, s, k, self.m.unwrap_or(4)).map_err(|e| e.to_string())?;
        let n = people as u32;
        let distinct = (self.queries / 3).max(1) as u32;
        Ok((0..self.queries as u32)
            .map(|i| {
                let d = (i * 13 + i / 7) % distinct;
                BatchQuery {
                    initiator: NodeId((d * 29 + 7) % n),
                    spec: if d.is_multiple_of(2) {
                        QuerySpec::Stgq(stgq)
                    } else {
                        QuerySpec::Sgq(sgq)
                    },
                    engine: Engine::Exact,
                }
            })
            .collect())
    }
}

/// Load `--data FILE`; `command` names who requires it.
fn load_data(args: &[String], command: &str) -> Result<Dataset, String> {
    let data =
        take_value(args, &["--data", "-d"])?.ok_or(format!("{command} requires --data FILE"))?;
    load_dataset(&PathBuf::from(&data)).map_err(|e| e.to_string())
}

/// Register every person, tie and calendar of `ds` through `writer`.
fn load_world(writer: &mut Writer, ds: &Dataset) -> Result<(), String> {
    for v in 0..ds.graph.node_count() {
        writer.add_person(format!("p{v}"));
    }
    for e in ds.graph.edges() {
        writer
            .connect(e.a, e.b, e.weight)
            .map_err(|e| e.to_string())?;
    }
    for (v, cal) in ds.calendars.iter().enumerate() {
        writer
            .set_calendar(NodeId(v as u32), cal.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A planner serving `ds`.
fn load_planner(ds: &Dataset, exec: ExecConfig) -> Result<Planner, String> {
    let mut planner = Planner::with_exec_config(ds.grid.horizon(), exec);
    load_world(planner.writer_mut(), ds)?;
    Ok(planner)
}

/// A cluster serving `ds`.
fn load_cluster(ds: &Dataset, cfg: ClusterConfig) -> Result<Cluster, String> {
    let mut cluster = Cluster::new(ds.grid.horizon(), cfg);
    load_world(cluster.writer_mut(), ds)?;
    Ok(cluster)
}

fn generate(args: &[String]) -> Result<(), String> {
    let out = take_value(args, &["--out", "-o"])?.ok_or("generate requires --out FILE")?;
    let days: usize = value_or(args, "--days", 7)?;
    let seed: u64 = value_or(args, "--seed", 42)?;
    let ds = match take_value(args, &["--coauthor"])? {
        Some(n) => synthetic_coauthor(parse(&n, "--coauthor size")?, days, seed),
        None => real_analog_194(days, seed),
    };
    save_dataset(&ds, &PathBuf::from(&out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} people, {} relationships, {} days x {} slots",
        ds.graph.node_count(),
        ds.graph.edge_count(),
        ds.grid.days(),
        ds.grid.slots_per_day()
    );
    Ok(())
}

/// Serve a repeated-query workload through the executor and report
/// queries/sec for the batched vs the sequential path.
fn batch(args: &[String]) -> Result<(), String> {
    let ds = load_data(args, "batch")?;
    let shape = Shape::parse(args, "batch", None, 2, 64)?;
    let workers: usize = value_or(args, "--workers", 0)?;
    let chunk = value_or(args, "--chunk", 64usize)?.max(1);

    let planner = load_planner(
        &ds,
        ExecConfig {
            workers,
            // The report compares batching against the sequential loop:
            // with the cross-batch result cache on, both timed passes
            // would be pure replay of the warmup's answers and the
            // comparison would measure cache-lookup overhead instead of
            // solve throughput.
            result_cache_capacity: 0,
            ..ExecConfig::default()
        },
    )?;
    let workload = shape.hot_workload(ds.graph.node_count())?;
    let distinct = (shape.queries / 3).max(1);

    // Untimed warmup of both paths: fills the feasible-graph cache and
    // the worker arenas so the timed comparison measures solving, not
    // first-touch extraction order.
    for q in workload.iter().take(distinct * 2) {
        match q.spec {
            QuerySpec::Sgq(query) => drop(planner.plan_sgq(q.initiator, &query, q.engine)),
            QuerySpec::Stgq(query) => drop(planner.plan_stgq(q.initiator, &query, q.engine)),
        }
    }
    drop(planner.plan_batch(&workload));

    let t0 = std::time::Instant::now();
    let mut sequential_feasible = 0usize;
    for q in &workload {
        let feasible = match q.spec {
            QuerySpec::Sgq(query) => planner
                .plan_sgq(q.initiator, &query, q.engine)
                .map_err(|e| e.to_string())?
                .solution
                .is_some(),
            QuerySpec::Stgq(query) => planner
                .plan_stgq(q.initiator, &query, q.engine)
                .map_err(|e| e.to_string())?
                .solution
                .is_some(),
        };
        sequential_feasible += usize::from(feasible);
    }
    let sequential = t0.elapsed();

    let t0 = std::time::Instant::now();
    let mut batched_feasible = 0usize;
    for queries in workload.chunks(chunk) {
        for reply in planner.plan_batch(queries) {
            batched_feasible +=
                usize::from(reply.map_err(|e| e.to_string())?.objective().is_some());
        }
    }
    let batched = t0.elapsed();

    if sequential_feasible != batched_feasible {
        return Err(format!(
            "paths disagree: sequential found {sequential_feasible} feasible, batched {batched_feasible}"
        ));
    }
    let qps = |d: std::time::Duration| workload.len() as f64 / d.as_secs_f64();
    let metrics = planner.exec_metrics();
    println!(
        "{} queries ({} feasible) over {} people, {} workers, {} shards:",
        workload.len(),
        sequential_feasible,
        ds.graph.node_count(),
        metrics.workers,
        metrics.shards,
    );
    println!(
        "  sequential loop : {:>10.0} queries/sec ({:.1} ms total)",
        qps(sequential),
        sequential.as_secs_f64() * 1e3
    );
    println!(
        "  batched (chunk {chunk}): {:>10.0} queries/sec ({:.1} ms total, {:.2}x)",
        qps(batched),
        batched.as_secs_f64() * 1e3,
        sequential.as_secs_f64() / batched.as_secs_f64()
    );
    println!(
        "  executor: {} shard jobs, {} batched entries, {} collapsed, {} fg-cache hits / {} misses",
        metrics.shard_jobs,
        metrics.batched_entries,
        metrics.collapsed_entries,
        metrics.feasible_cache_hits,
        metrics.feasible_cache_misses,
    );
    println!(
        "  search:   {} frames examined, {} pruned by bound, {} pruned by match, {} pivots skipped",
        metrics.frames_examined,
        metrics.frames_pruned_by_bound,
        metrics.frames_pruned_by_match,
        metrics.pivots_skipped,
    );
    println!(
        "  reduce:   {} candidates peeled, {} pivots refused by core, {} children pruned by parent bound",
        metrics.peeled_candidates,
        metrics.pivots_refused_by_core,
        metrics.children_pruned_by_parent_bound,
    );
    println!(
        "  prep:     {} words delta'd, {} words rebuilt",
        metrics.prep_words_delta, metrics.prep_words_rebuilt,
    );
    println!(
        "  extract:  {} words borrowed (zero-copy view)",
        metrics.extract_words_borrowed,
    );
    println!(
        "  snapshot: {} publishes, {} shards rebuilt / {} reused",
        metrics.snapshot_publishes, metrics.snapshot_shards_rebuilt, metrics.snapshot_shards_reused,
    );
    println!(
        "  replay:   {} result-cache hits / {} misses, {} stale-shard evictions, {} capacity evictions",
        metrics.result_cache_hits,
        metrics.result_cache_misses,
        metrics.result_cache_evicted_stale_shard,
        metrics.result_cache_evicted_capacity,
    );
    Ok(())
}

/// Serve a repeated-query workload through clusters of growing size and
/// report scale-out throughput.
fn cluster(args: &[String]) -> Result<(), String> {
    let ds = load_data(args, "cluster")?;
    let shape = Shape::parse(args, "cluster", None, 2, 64)?;
    let max_nodes = value_or(args, "--max-nodes", 4usize)?.max(1);
    let workload = shape.hot_workload(ds.graph.node_count())?;

    println!(
        "{} queries over {} people; host parallelism {}:",
        workload.len(),
        ds.graph.node_count(),
        std::thread::available_parallelism().map_or(1, |c| c.get()),
    );

    let mut baseline_qps = None;
    let mut nodes = 1usize;
    while nodes <= max_nodes {
        let cfg = ClusterConfig {
            nodes,
            node_exec: ExecConfig {
                workers: 1,
                // Measure solving throughput, not cached replay.
                result_cache_capacity: 0,
                ..ExecConfig::default()
            },
            ..ClusterConfig::default()
        };
        let cluster = load_cluster(&ds, cfg)?;

        // Untimed warmup: attaches the replicas (full sync) and fills the
        // per-node feasible-graph caches.
        let mut feasible = 0usize;
        for reply in cluster.plan_batch(&workload) {
            feasible += usize::from(
                reply
                    .map_err(|e| e.to_string())?
                    .outcome
                    .objective()
                    .is_some(),
            );
        }

        let t0 = std::time::Instant::now();
        let reps = 3usize;
        for _ in 0..reps {
            for reply in cluster.plan_batch(&workload) {
                reply.map_err(|e| e.to_string())?;
            }
        }
        let elapsed = t0.elapsed();
        let qps = (workload.len() * reps) as f64 / elapsed.as_secs_f64();
        let speedup = baseline_qps.map(|b: f64| qps / b).unwrap_or(1.0);
        baseline_qps.get_or_insert(qps);

        let metrics = cluster.metrics();
        let max_lag = metrics.nodes.iter().map(|l| l.seq_lag).max().unwrap_or(0);
        println!(
            "  {nodes} node(s): {qps:>10.0} queries/sec ({feasible} feasible, {:.2}x vs 1 node; \
             {} full syncs, {} delta batches, max seq lag {max_lag})",
            speedup, metrics.full_syncs, metrics.delta_batches,
        );
        let suspected = metrics
            .nodes
            .iter()
            .filter(|l| l.suspicion != Suspicion::Healthy)
            .count();
        println!(
            "             robustness: {} retries, {} heartbeats missed, {} auto-drains, \
             {} auto-recoveries, {} failovers, {} catch-up deltas, {suspected} suspected",
            metrics.retries,
            metrics.heartbeats_missed,
            metrics.auto_drains,
            metrics.auto_recoveries,
            metrics.failovers,
            metrics.catch_up_deltas,
        );
        let (mut rebuilt, mut reused) = (0u64, 0u64);
        for node in cluster.nodes() {
            let em = node.executor().metrics();
            rebuilt += em.snapshot_shards_rebuilt;
            reused += em.snapshot_shards_reused;
        }
        println!(
            "             snapshots: {rebuilt} shards rebuilt / {reused} reused across {nodes} node(s)"
        );
        nodes *= 2;
    }
    Ok(())
}

/// Drive the hot workload against a metropolis world (or a snapshot)
/// and print the latency spectrum as Prometheus text — or, with
/// `--slow-log`, the flight recorder's slowest-N traces as JSON.
fn metrics(args: &[String]) -> Result<(), String> {
    let shape = Shape::parse(args, "metrics", Some(4), 2, 48)?;
    let nodes: usize = value_or(args, "--nodes", 2)?;
    let seed: u64 = value_or(args, "--seed", 42)?;
    let members: usize = value_or(args, "--members", 2_000)?;
    let slow_log = args.iter().any(|a| a == "--slow-log");
    let slow_query_threshold = match take_value(args, &["--slow-threshold-us"])? {
        Some(v) => std::time::Duration::from_micros(parse(&v, "--slow-threshold-us")?),
        None => ExecConfig::default().slow_query_threshold,
    };

    let ds = match take_value(args, &["--data", "-d"])? {
        Some(_) => load_data(args, "metrics")?,
        None => metropolis(&MetropolisConfig::with_members(members), 2, seed),
    };
    let exec = ExecConfig {
        slow_query_threshold,
        ..ExecConfig::default()
    };
    // The same hot workload shape as `batch`/`cluster`: the spectrum
    // shows both the solve mode and the replay/collapse fast path.
    let workload = shape.hot_workload(ds.graph.node_count())?;

    if nodes == 0 {
        // One in-process planner: the single-process spectrum.
        let planner = load_planner(&ds, exec)?;
        // Two passes: the first solves, the second replays — both modes
        // of the end-to-end distribution get samples.
        for _ in 0..2 {
            for reply in planner.plan_batch(&workload) {
                reply.map_err(|e| e.to_string())?;
            }
        }
        if slow_log {
            println!("{}", planner.executor().obs().recorder.slow_queries_json());
        } else {
            print!("{}", planner.prometheus_text());
        }
        return Ok(());
    }

    let cfg = ClusterConfig {
        nodes,
        node_exec: ExecConfig { workers: 1, ..exec },
        ..ClusterConfig::default()
    };
    let cluster = load_cluster(&ds, cfg)?;
    for _ in 0..2 {
        for reply in cluster.plan_batch(&workload) {
            reply.map_err(|e| e.to_string())?;
        }
    }
    // One detection round so suspicion/reachability gauges are live.
    cluster.heartbeat();
    if slow_log {
        // One JSON object per line, keyed by node.
        for node in cluster.nodes() {
            println!(
                "{{\"node\":{},\"slow_queries\":{}}}",
                node.id(),
                node.executor().obs().recorder.slow_queries_json()
            );
        }
    } else {
        print!("{}", cluster.observability().prometheus_text());
    }
    Ok(())
}

fn query(args: &[String]) -> Result<(), String> {
    let ds = load_data(args, "query")?;
    let initiator: u32 = parse(
        &take_value(args, &["--initiator", "-i"])?.ok_or("query requires --initiator ID")?,
        "--initiator",
    )?;
    let Shape { p, s, k, m, .. } = Shape::parse(args, "query", None, 1, 0)?;
    let compare = args.iter().any(|a| a == "--compare");

    let q = NodeId(initiator);
    let cfg = SelectConfig::default();

    match m {
        None => {
            let query = SgqQuery::new(p, s, k).map_err(|e| e.to_string())?;
            let out = solve_sgq(&ds.graph, q, &query, &cfg).map_err(|e| e.to_string())?;
            match out.solution {
                Some(sol) => {
                    println!("SGQ(p={p}, s={s}, k={k}) for initiator {q}:");
                    println!("  invite: {:?}", sol.members);
                    println!("  total social distance: {}", sol.total_distance);
                }
                None => println!("SGQ(p={p}, s={s}, k={k}): no feasible group"),
            }
            println!(
                "  ({} frames, {} pruned, {} candidates peeled, {} children pruned by parent bound)",
                out.stats.frames,
                out.stats.total_prunes(),
                out.stats.peeled_candidates,
                out.stats.children_pruned_by_parent_bound
            );
        }
        Some(m) => {
            let query = StgqQuery::new(p, s, k, m).map_err(|e| e.to_string())?;
            let out =
                solve_stgq(&ds.graph, q, &ds.calendars, &query, &cfg).map_err(|e| e.to_string())?;
            match &out.solution {
                Some(sol) => {
                    println!("STGQ(p={p}, s={s}, k={k}, m={m}) for initiator {q}:");
                    println!("  invite: {:?}", sol.members);
                    println!(
                        "  meet during {} (starting {})",
                        sol.period,
                        ds.grid.label(sol.period.lo)
                    );
                    println!("  total social distance: {}", sol.total_distance);
                }
                None => println!("STGQ(p={p}, s={s}, k={k}, m={m}): no feasible plan"),
            }
            println!(
                "  ({} pivots ({} refused by core), {} frames, {} pruned, {} candidates peeled, {} children pruned by parent bound)",
                out.stats.pivots_processed,
                out.stats.pivots_refused_by_core,
                out.stats.frames,
                out.stats.total_prunes(),
                out.stats.peeled_candidates,
                out.stats.children_pruned_by_parent_bound
            );
            println!(
                "  (prep words: {} delta'd, {} rebuilt)",
                out.stats.prep_words_delta, out.stats.prep_words_rebuilt
            );
            if compare {
                match pc_arrange(&ds.graph, q, &ds.calendars, p, s, m).map_err(|e| e.to_string())? {
                    Some(pc) => {
                        println!("phone-coordination comparison (PCArrange):");
                        println!(
                            "  invite: {:?} — distance {}, observed k_h = {}",
                            pc.members, pc.total_distance, pc.observed_k
                        );
                    }
                    None => println!("PCArrange could not gather {p} people"),
                }
            }
        }
    }
    Ok(())
}
