//! The per-query flight recorder: stage-span traces in a bounded ring
//! buffer plus a slowest-N slow-query log.
//!
//! Each *solve* (engine actually ran — collapsed clones and result-cache
//! replays are answered without one) emits a [`QueryTrace`]: where the
//! wall clock went ([`StageBreakdown`]) and which pruning/cache counters
//! the solve touched. The [`FlightRecorder`] keeps the most recent
//! traces in a ring and the slowest over a threshold in a bounded log,
//! both dumpable as JSON for offline triage.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Where one query's wall clock went, in nanoseconds, stage by stage
/// along the serving pipeline (queue → extraction → prepare →
/// descend).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Job-queue wait: a batch took the entry → a worker picked it up
    /// (0 on the inline path).
    pub queue_wait_ns: u64,
    /// Feasible-graph extraction (0 on a feasible-cache hit).
    pub extract_ns: u64,
    /// Pivot preparation — availability buffers, Definition-4 runs,
    /// peel, floors, seeding: everything in the pivot loop that is not
    /// descent. STGQ exact engines only; 0 elsewhere.
    pub prepare_ns: u64,
    /// Exact-search descent (frame expansion) inside the engine.
    pub descend_ns: u64,
    /// Whole engine call (prep + descent + everything the split cannot
    /// attribute; for SGQ and heuristic engines the split is 0 and this
    /// is the only solve-side number).
    pub solve_ns: u64,
    /// End-to-end: queue wait + envelope (extraction, solve, caches).
    pub total_ns: u64,
}

/// One solved query's flight record: identity, stage spans, and the
/// search/cache counters the solve touched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryTrace {
    /// The initiator vertex.
    pub initiator: u32,
    /// Human-readable query + engine label, e.g.
    /// `stgq(p=4,s=2,k=2,m=4)/exact`.
    pub query: String,
    /// Stage spans.
    pub stages: StageBreakdown,
    /// Objective of the answer (`None` = infeasible).
    pub objective: Option<u64>,
    /// Why the solve returned: `"completed"`, `"frame_budget"` or
    /// `"cancelled"`.
    pub stop: &'static str,
    /// Whether the answer is proven optimal / proven infeasible.
    pub exact: bool,
    /// Whether the feasible graph came from the cache.
    pub feasible_cache_hit: bool,
    /// Search frames entered.
    pub frames: u64,
    /// Frames abandoned by the incumbent distance bound.
    pub frames_pruned_by_bound: u64,
    /// Frames abandoned by the k-plex matching bound.
    pub frames_pruned_by_match: u64,
    /// Pivot slots prepared (STGQ only).
    pub pivots_processed: u64,
    /// Prepared pivots retired without opening a frame.
    pub pivots_skipped: u64,
    /// Candidates removed by fixpoint core peeling.
    pub peeled_candidates: u64,
    /// Availability words answered incrementally instead of rebuilt.
    pub prep_words_delta: u64,
    /// Availability words rebuilt from calendar words.
    pub prep_words_rebuilt: u64,
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

impl QueryTrace {
    /// Render this trace as one JSON object (hand-rolled: the recorder
    /// must not depend on a serializer).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"initiator\":");
        s.push_str(&self.initiator.to_string());
        s.push_str(",\"query\":\"");
        json_escape(&self.query, &mut s);
        s.push_str("\",\"objective\":");
        match self.objective {
            Some(o) => s.push_str(&o.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"stop\":\"");
        s.push_str(self.stop);
        s.push_str("\",\"exact\":");
        s.push_str(if self.exact { "true" } else { "false" });
        s.push_str(",\"feasible_cache_hit\":");
        s.push_str(if self.feasible_cache_hit {
            "true"
        } else {
            "false"
        });
        let st = &self.stages;
        for (name, v) in [
            ("queue_wait_ns", st.queue_wait_ns),
            ("extract_ns", st.extract_ns),
            ("prepare_ns", st.prepare_ns),
            ("descend_ns", st.descend_ns),
            ("solve_ns", st.solve_ns),
            ("total_ns", st.total_ns),
            ("frames", self.frames),
            ("frames_pruned_by_bound", self.frames_pruned_by_bound),
            ("frames_pruned_by_match", self.frames_pruned_by_match),
            ("pivots_processed", self.pivots_processed),
            ("pivots_skipped", self.pivots_skipped),
            ("peeled_candidates", self.peeled_candidates),
            ("prep_words_delta", self.prep_words_delta),
            ("prep_words_rebuilt", self.prep_words_rebuilt),
        ] {
            s.push_str(",\"");
            s.push_str(name);
            s.push_str("\":");
            s.push_str(&v.to_string());
        }
        s.push('}');
        s
    }
}

/// Bounded recent-trace ring plus slowest-N slow-query log.
///
/// One short mutex acquisition per solve — the recorder sits on the
/// *envelope*, after the engine returned, never inside the search.
#[derive(Debug)]
pub struct FlightRecorder {
    ring_capacity: usize,
    slow_keep: usize,
    threshold_ns: u64,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    ring: VecDeque<QueryTrace>,
    slow: Vec<QueryTrace>,
}

impl FlightRecorder {
    /// A recorder keeping the last `ring_capacity` traces and the
    /// `slow_keep` slowest ones at or above `threshold_ns` end-to-end.
    /// A zero `ring_capacity` disables the ring (the slow log still
    /// runs); zero `slow_keep` disables the slow log.
    pub fn new(ring_capacity: usize, slow_keep: usize, threshold_ns: u64) -> Self {
        FlightRecorder {
            ring_capacity,
            slow_keep,
            threshold_ns,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The slow-query threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Whether anything is recorded at all — callers can skip building a
    /// trace when both the ring and the slow log are disabled.
    pub fn enabled(&self) -> bool {
        self.ring_capacity > 0 || self.slow_keep > 0
    }

    /// Record one solved query's trace.
    pub fn record(&self, trace: QueryTrace) {
        if self.ring_capacity == 0 && self.slow_keep == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("recorder poisoned");
        if self.slow_keep > 0 && trace.stages.total_ns >= self.threshold_ns {
            let at = inner
                .slow
                .partition_point(|t| t.stages.total_ns >= trace.stages.total_ns);
            if at < self.slow_keep {
                inner.slow.insert(at, trace.clone());
                inner.slow.truncate(self.slow_keep);
            }
        }
        if self.ring_capacity > 0 {
            if inner.ring.len() == self.ring_capacity {
                inner.ring.pop_front();
            }
            inner.ring.push_back(trace);
        }
    }

    /// The ring's traces, oldest first.
    pub fn traces(&self) -> Vec<QueryTrace> {
        let inner = self.inner.lock().expect("recorder poisoned");
        inner.ring.iter().cloned().collect()
    }

    /// The slow-query log, slowest first.
    pub fn slow_queries(&self) -> Vec<QueryTrace> {
        let inner = self.inner.lock().expect("recorder poisoned");
        inner.slow.clone()
    }

    /// Drop everything recorded so far (the caches' epoch turned over,
    /// or a test wants a clean window).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        inner.ring.clear();
        inner.slow.clear();
    }

    /// The slow-query log as a JSON array (one object per trace,
    /// slowest first).
    pub fn slow_queries_json(&self) -> String {
        let slow = self.slow_queries();
        let mut s = String::from("[");
        for (i, t) in slow.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&t.to_json());
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(initiator: u32, total_ns: u64) -> QueryTrace {
        QueryTrace {
            initiator,
            query: "stgq(p=4,s=2,k=2,m=4)/exact".to_string(),
            stages: StageBreakdown {
                total_ns,
                solve_ns: total_ns / 2,
                ..Default::default()
            },
            objective: Some(10),
            stop: "completed",
            exact: true,
            feasible_cache_hit: false,
            frames: 7,
            frames_pruned_by_bound: 2,
            frames_pruned_by_match: 1,
            pivots_processed: 3,
            pivots_skipped: 1,
            peeled_candidates: 0,
            prep_words_delta: 4,
            prep_words_rebuilt: 9,
        }
    }

    #[test]
    fn ring_is_bounded_and_fifo() {
        let rec = FlightRecorder::new(3, 0, 0);
        for i in 0..5 {
            rec.record(trace(i, 100));
        }
        let got: Vec<u32> = rec.traces().iter().map(|t| t.initiator).collect();
        assert_eq!(got, vec![2, 3, 4]);
        assert!(rec.slow_queries().is_empty(), "slow log disabled");
    }

    #[test]
    fn slow_log_keeps_the_slowest_over_threshold() {
        let rec = FlightRecorder::new(8, 2, 1000);
        rec.record(trace(1, 500)); // under threshold
        rec.record(trace(2, 2000));
        rec.record(trace(3, 9000));
        rec.record(trace(4, 4000));
        let slow: Vec<(u32, u64)> = rec
            .slow_queries()
            .iter()
            .map(|t| (t.initiator, t.stages.total_ns))
            .collect();
        assert_eq!(slow, vec![(3, 9000), (4, 4000)], "slowest two, sorted");
    }

    #[test]
    fn json_dump_is_parseable_shape() {
        let t = trace(7, 1234);
        let json = t.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"initiator\":7"));
        assert!(json.contains("\"total_ns\":1234"));
        assert!(json.contains("\"stop\":\"completed\""));
        let rec = FlightRecorder::new(2, 2, 0);
        rec.record(t);
        assert!(rec.slow_queries_json().starts_with('['));
    }
}
