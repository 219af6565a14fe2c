//! The untimed verify pass: replay the seeded stream on a fresh world and
//! check the answers the measured phases recorded.
//!
//! Planner workloads are checked against `stgq_core::reference` on
//! `Planner::graph_snapshot()` plus the planner's calendars, with every
//! returned group also validated against the query's constraints. On
//! `metro-rw` a seeded sample of reads is checked, since each check needs
//! a fresh flat export of a 10^5-member graph. Cluster answers are
//! compared against a single-process planner fed the same stream.

use std::collections::HashMap;
use std::sync::Arc;

use stgq_core::reference::{solve_sgq_reference, solve_stgq_reference};
use stgq_core::validate::{validate_sgq, validate_stgq};
use stgq_core::{SelectConfig, SgqSolution, StgqSolution};
use stgq_exec::QuerySpec;
use stgq_graph::{Dist, SocialGraph};
use stgq_service::BatchQuery;

use crate::target::{load, Answer, ReadReply, RepliesReader};
use crate::util::Rng;
use crate::workload::{generate, query_key, Op, Shape, Stream, Workload};

/// Reads checked on workloads that sample (`metro-rw`).
const SAMPLED_READS: usize = 48;
const SAMPLE_SALT: u64 = 0x7665_7269;

/// The read replies one measured phase recorded, in stream order.
pub struct Recorded {
    /// Phase name, for error messages.
    pub phase: &'static str,
    /// One reply per read call executed.
    pub replies: RepliesReader,
}

/// What the verify pass checked.
#[derive(Debug, Default)]
pub struct Checked {
    /// Answers compared against the oracle.
    pub answers: u64,
    /// Distinct oracle solves performed.
    pub oracle_solves: u64,
}

/// Replay `ops` operations of the measured stream and check every
/// recorded answer (a seeded sample on `metro-rw`). `Err` names the
/// first mismatch, or why the answers could not be checked.
pub fn verify(
    workload: Workload,
    shape: Shape,
    seed: u64,
    ops: usize,
    mut phases: Vec<Recorded>,
) -> Result<Checked, String> {
    let world = generate(&shape);
    let mirror_shape = Shape { nodes: 0, ..shape };
    let mut mirror = load(&mirror_shape, &world.dataset).map_err(|e| e.to_string())?;
    let stream = Stream::new(workload, shape, &world, seed);
    let reads = phases
        .iter()
        .map(|p| p.replies.remaining())
        .max()
        .unwrap_or(0);
    let sampled = (workload == Workload::MetroRw).then(|| {
        let mut rng = Rng::new(seed ^ SAMPLE_SALT);
        let mut picks: Vec<usize> = (0..SAMPLED_READS.min(reads))
            .map(|_| rng.below(reads))
            .collect();
        picks.sort_unstable();
        picks
    });
    let mut oracle = Oracle::default();
    let mut checked = Checked::default();
    let mut read = 0usize;
    for op in stream.take(ops) {
        let queries = match op {
            Op::Write(w) => {
                if !mirror.write(&w) {
                    return Err(format!("replayed write {w:?} was refused"));
                }
                oracle.world_moved(&w);
                continue;
            }
            Op::Read(queries) => queries,
        };
        let index = read;
        read += 1;
        let mut recorded: Vec<(&str, ReadReply)> = Vec::with_capacity(phases.len());
        for p in &mut phases {
            if let Some(reply) = p.replies.next_reply() {
                let reply =
                    reply.map_err(|e| format!("reading back the {} replies: {e}", p.phase))?;
                recorded.push((p.phase, reply));
            }
        }
        if recorded.is_empty() {
            continue;
        }
        if shape.nodes > 0 {
            // Cluster: a single-process planner fed the same stream.
            let expected = mirror.read(&queries);
            for (phase, reply) in &recorded {
                for (j, (got, want)) in reply.iter().zip(&expected).enumerate() {
                    let (Some(got), Some(want)) = (got, want) else {
                        continue;
                    };
                    checked.answers += 1;
                    if got.objective != want.objective {
                        return Err(format!(
                            "{phase} read {index} entry {j} ({:?}): cluster objective {:?}, \
                             single-process planner {:?}",
                            queries[j], got.objective, want.objective
                        ));
                    }
                }
            }
            continue;
        }
        if let Some(picks) = &sampled {
            if picks.binary_search(&index).is_err() {
                continue;
            }
        }
        let planner = mirror.planner().expect("the mirror is a planner");
        for (j, q) in queries.iter().enumerate() {
            let want = oracle.objective(planner, q)?;
            for (phase, reply) in &recorded {
                let Some(got) = &reply[j] else { continue };
                checked.answers += 1;
                if got.objective != want {
                    return Err(format!(
                        "{phase} read {index} entry {j} ({q:?}): objective {:?}, reference {:?}",
                        got.objective, want
                    ));
                }
                oracle.validate(planner, q, got).map_err(|why| {
                    format!("{phase} read {index} entry {j} ({q:?}): invalid group: {why}")
                })?;
            }
        }
    }
    checked.oracle_solves = oracle.solves;
    Ok(checked)
}

/// Reference answers, memoized while the world stands still.
#[derive(Default)]
struct Oracle {
    graph: Option<Arc<SocialGraph>>,
    memo: HashMap<(u32, u8, [usize; 4]), Option<Dist>>,
    solves: u64,
}

impl Oracle {
    fn world_moved(&mut self, write: &crate::workload::Write) {
        if matches!(write, crate::workload::Write::Reweight { .. }) {
            self.graph = None;
        }
        self.memo.clear();
    }

    fn graph(&mut self, planner: &stgq_service::Planner) -> Arc<SocialGraph> {
        Arc::clone(self.graph.get_or_insert_with(|| planner.graph_snapshot()))
    }

    fn objective(
        &mut self,
        planner: &stgq_service::Planner,
        q: &BatchQuery,
    ) -> Result<Option<Dist>, String> {
        if let Some(&known) = self.memo.get(&query_key(q)) {
            return Ok(known);
        }
        let graph = self.graph(planner);
        let cfg = SelectConfig::default();
        let objective = match q.spec {
            QuerySpec::Sgq(query) => solve_sgq_reference(&graph, q.initiator, &query, &cfg)
                .map_err(|e| e.to_string())?
                .solution
                .map(|s| s.total_distance),
            QuerySpec::Stgq(query) => solve_stgq_reference(
                &graph,
                q.initiator,
                planner.calendars().calendars(),
                &query,
                &cfg,
            )
            .map_err(|e| e.to_string())?
            .solution
            .map(|s| s.total_distance),
        };
        self.solves += 1;
        self.memo.insert(query_key(q), objective);
        Ok(objective)
    }

    fn validate(
        &mut self,
        planner: &stgq_service::Planner,
        q: &BatchQuery,
        got: &Answer,
    ) -> Result<(), String> {
        let Some(total_distance) = got.objective else {
            return Ok(());
        };
        let graph = self.graph(planner);
        let members = got.members.clone();
        match (q.spec, got.period) {
            (QuerySpec::Sgq(query), _) => validate_sgq(
                &graph,
                q.initiator,
                &query,
                &SgqSolution {
                    members,
                    total_distance,
                },
            ),
            (QuerySpec::Stgq(query), Some(period)) => validate_stgq(
                &graph,
                q.initiator,
                planner.calendars().calendars(),
                &query,
                &StgqSolution {
                    members,
                    total_distance,
                    period,
                    pivot: period.lo,
                },
            ),
            (QuerySpec::Stgq(_), None) => return Err("STGQ answer without a period".into()),
        }
        .map_err(|v| format!("{v:?}"))
    }
}
