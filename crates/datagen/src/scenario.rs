//! One-stop dataset assemblies for the harness, examples and tests.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stgq_graph::{Dist, GraphBuilder, NodeId};
use stgq_schedule::TimeGrid;

use crate::coauthor::{coauthor_graph, CoauthorConfig};
use crate::community::{community_graph, CommunityConfig};
use crate::schedules::{archetype_population, pool_sampled_population};
use crate::weights::{sample_distance, Tie};
use crate::Dataset;

/// The 194-person "real dataset" analog (§5.1): community graph +
/// archetype calendars over `days` days of half-hour slots.
pub fn real_analog_194(days: usize, seed: u64) -> Dataset {
    let grid = TimeGrid::half_hour(days).expect("days >= 1");
    let graph = community_graph(&CommunityConfig::paper_194(), seed);
    let calendars = archetype_population(&grid, graph.node_count(), seed ^ 0x5eed);
    let ds = Dataset {
        graph,
        calendars,
        grid,
    };
    debug_assert!(ds.check());
    ds
}

/// The synthetic coauthorship dataset of Figure 1(d): `n` people, per-day
/// schedules sampled from the 194-person pool, exactly as the paper
/// describes.
pub fn synthetic_coauthor(n: usize, days: usize, seed: u64) -> Dataset {
    let grid = TimeGrid::half_hour(days).expect("days >= 1");
    let graph = coauthor_graph(&CoauthorConfig::with_n(n), seed);
    let pool = archetype_population(&grid, 194, seed ^ 0x9001);
    let calendars = pool_sampled_population(&grid, &pool, n, seed ^ 0xca1e);
    let ds = Dataset {
        graph,
        calendars,
        grid,
    };
    debug_assert!(ds.check());
    ds
}

/// The paper-shaped community dataset with **coarse-grained distances**:
/// every edge weight is quantized onto `levels` rungs (hop-count-like
/// values `1..=levels`), so equal-distance ties in the engines' access
/// order are the norm rather than the exception.
///
/// The continuous-ish weights of [`real_analog_194`] leave almost no
/// equal-distance ties after eligibility clipping, which makes the
/// `availability_ordering` tie-break unobservable on fig1f-style runs;
/// real deployments often *only* have a handful of distance values
/// (hop counts, coarse closeness buckets). This scenario makes the
/// tie-break (and any tie-sensitive ordering logic) actually fire in
/// benches and tests.
pub fn coarse_distance_analog(days: usize, seed: u64, levels: Dist) -> Dataset {
    let levels = levels.max(1);
    let base = real_analog_194(days, seed);
    let max_weight = base.graph.edges().map(|e| e.weight).max().unwrap_or(1);
    let mut b = GraphBuilder::new(base.graph.node_count());
    for e in base.graph.edges() {
        // Bucket the weight range onto 1..=levels, preserving order
        // coarsely: equal buckets become genuine ties.
        let rung = 1 + (e.weight - 1) * levels / max_weight;
        b.add_edge(e.a, e.b, rung.min(levels)).unwrap();
    }
    let ds = Dataset {
        graph: b.build(),
        calendars: base.calendars,
        grid: base.grid,
    };
    debug_assert!(ds.check());
    ds
}

/// `sparse_fringe`: a community core plus a **low-degree fringe** —
/// 194 people total, so results are comparable with
/// [`real_analog_194`], but roughly half of them are organised in
/// "fans": small groups whose members all hang off one core anchor
/// with *strong* (socially close) ties, connected to each other only
/// along a path rim. Fan rim ends have two acquaintances, rim
/// interiors three, so for queries with `p − 1 − k ≥ 3` the fixpoint
/// (p, k)-core peel cascades through entire fans (the ends fall first,
/// stranding the interiors) while a one-pass degree filter only ever
/// catches the ends — and the plain engines waste frames expanding rim
/// interiors that can never seat a group.
///
/// The dense community scenarios ([`real_analog_194`],
/// [`coarse_distance_analog`]) exercise none of this — everyone has
/// dozens of acquaintances and degree filters are vacuous — which is
/// exactly why the suite needs a fringe-shaped workload too.
pub fn sparse_fringe(days: usize, seed: u64) -> Dataset {
    const CORE_N: usize = 98;
    const FAN_COUNT: usize = 24;
    const FAN_SIZE: usize = 4;
    let n = CORE_N + FAN_COUNT * FAN_SIZE; // 194, like the paper analog
    let grid = TimeGrid::half_hour(days).expect("days >= 1");

    // The core keeps the paper analog's tiered structure at ~half size.
    let core_cfg = CommunityConfig {
        n: CORE_N,
        communities: 4,
        circle_size: 12,
        circle_p: 0.90,
        intra_p: 0.10,
        inter_p: 0.012,
    };
    let core = community_graph(&core_cfg, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00F2_146E);
    let mut b = GraphBuilder::new(n);
    for e in core.edges() {
        b.add_edge(e.a, e.b, e.weight)
            .expect("core pairs are valid");
    }
    for fan in 0..FAN_COUNT {
        let base = CORE_N + fan * FAN_SIZE;
        let anchor = NodeId(rng.gen_range(0..CORE_N) as u32);
        for i in 0..FAN_SIZE {
            let v = NodeId((base + i) as u32);
            // Every fan member hangs off the same core anchor with a
            // strong tie: the whole fan sits one hop past the anchor
            // (inside radius-2 feasible graphs of the anchor's friends)
            // and its members are socially *close* — early in access
            // order — despite being structurally sparse.
            b.add_edge(anchor, v, sample_distance(&mut rng, Tie::Strong))
                .expect("distinct pair");
            if i > 0 {
                b.add_edge(
                    NodeId((base + i - 1) as u32),
                    v,
                    sample_distance(&mut rng, Tie::Strong),
                )
                .expect("distinct pair");
            }
        }
    }
    let calendars = archetype_population(&grid, n, seed ^ 0x5fe5);
    let ds = Dataset {
        graph: b.build(),
        calendars,
        grid,
    };
    debug_assert!(ds.check());
    ds
}

/// `calendar_churn`: the paper-shaped community graph with **dense,
/// long-run calendars under per-person jitter** — the adversarial
/// workload for pivot preparation itself.
///
/// Every person is available for most of every day in one long block
/// whose start/end are jittered per person per day, punched through by
/// a few per-person busy "churn" holes. The result: per-pivot maximal
/// runs are *long* (tens of slots), they overlap heavily across the
/// population, and neighbouring pivots almost always land inside the
/// same run — so an engine that recomputes each person's run from the
/// calendar words at every pivot pays the full word scan
/// `pivots × people` times, while the incremental run cache answers
/// covered pivots by interval arithmetic and only recomputes at hole
/// boundaries. The archetype calendars of
/// [`real_analog_194`] fragment availability into short blocks, which
/// caps how much prep there is to amortize; this scenario is the
/// regime where the prep loop dominates the solve.
pub fn calendar_churn(days: usize, seed: u64) -> Dataset {
    let grid = TimeGrid::half_hour(days).expect("days >= 1");
    let graph = community_graph(&CommunityConfig::paper_194(), seed);
    let n = graph.node_count();
    let spd = grid.slots_per_day();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00C4_A1C4);
    let mut calendars = Vec::with_capacity(n);
    for _ in 0..n {
        let mut cal = stgq_schedule::Calendar::new(grid.horizon());
        // Per-person jitter bias: some people start late, some leave
        // early, every day — boundaries disagree across the population.
        let bias_lo = rng.gen_range(0..4usize);
        let bias_hi = rng.gen_range(0..4usize);
        for day in 0..days {
            let base = day * spd;
            let lo = base + bias_lo + rng.gen_range(0..3usize);
            let hi = base + spd - 1 - bias_hi - rng.gen_range(0..3usize);
            if lo >= hi {
                continue;
            }
            cal.set_range(stgq_schedule::SlotRange::new(lo, hi), true);
            // Churn holes: 1–3 short busy interruptions split the long
            // block into a handful of still-long overlapping runs.
            for _ in 0..rng.gen_range(1..=3usize) {
                let at = rng.gen_range(lo..=hi);
                cal.set_available(at, false);
            }
        }
        calendars.push(cal);
    }
    let ds = Dataset {
        graph,
        calendars,
        grid,
    };
    debug_assert!(ds.check());
    ds
}

/// `plaza`: one very-high-degree initiator in front of a large, flat,
/// densely-connected eligible set — the **extraction-bound** workload.
///
/// A "plaza" is the regime where the per-query candidate space is huge
/// but the search itself is shallow: think of the organiser of a street
/// festival who is acquainted with everyone on the square. The hub
/// (vertex 0) is directly tied to all other `1200` people, so a radius-1
/// query's eligible set is the whole world; every person additionally
/// carries ~40 random acquaintances, so the CSR rows the extractor must
/// traverse are *heavy*. Descent stays shallow by construction: the
/// hub's 16-person inner circle is a distance-1 clique with the same
/// wide-open calendars as everyone else, so exact engines seat an
/// optimal group within the first few frames and the incumbent bound
/// retires the remaining ~1180 candidates wholesale.
///
/// The result: solve time is dominated by what extraction *costs*, not
/// by search — the scenario that separates the zero-copy
/// `FeasibleView` (one masked word matrix) from materializing a
/// `FeasibleGraph` (per-row neighbor/weight vectors, per-row bitsets,
/// a sort per row) and the reason both serving benches carry plaza
/// entries. The community scenarios above never enter this regime:
/// their eligible sets are a few dozen people, so extraction is noise.
pub fn plaza(days: usize, seed: u64) -> Dataset {
    const N: usize = 1200;
    const INNER: u32 = 16;
    const EXTRA_DEGREE: usize = 40;
    let grid = TimeGrid::half_hour(days).expect("days >= 1");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0071_A2A0);

    // Per-pair deterministic crowd weight: random draws may propose the
    // same pair twice, and `GraphBuilder` rejects *conflicting* repeats
    // but accepts identical ones.
    let crowd_weight = |u: u32, v: u32| -> Dist {
        let (a, b) = (u.min(v) as u64, u.max(v) as u64);
        4 + (a.wrapping_mul(31).wrapping_add(b)) % 6
    };

    let mut b = GraphBuilder::new(N);
    let hub = NodeId(0);
    // The star: everyone on the square knows the organiser. The inner
    // circle is socially close (distance 1), the crowd further out —
    // candidate order therefore leads with the clique.
    for v in 1..N as u32 {
        let w = if v <= INNER { 1 } else { crowd_weight(0, v) };
        b.add_edge(hub, NodeId(v), w).expect("distinct pair");
    }
    // The inner circle: a strong clique, so a p-group seats immediately.
    for i in 1..=INNER {
        for j in (i + 1)..=INNER {
            b.add_edge(NodeId(i), NodeId(j), 1).expect("distinct pair");
        }
    }
    // The crowd: ~EXTRA_DEGREE acquaintances each, so every CSR row the
    // extractor walks is long.
    for v in 1..N as u32 {
        for _ in 0..EXTRA_DEGREE / 2 {
            let u = rng.gen_range(1..N as u32);
            // Skip inner-circle pairs: those already carry the clique's
            // distance-1 ties.
            if u != v && (u > INNER || v > INNER) {
                b.add_edge(NodeId(u.min(v)), NodeId(u.max(v)), crowd_weight(u, v))
                    .expect("crowd weights are per-pair deterministic");
            }
        }
    }

    // Wide-open calendars (one jittered busy slot per day per person):
    // temporal feasibility never deepens the search.
    let mut calendars = Vec::with_capacity(N);
    for _ in 0..N {
        let mut cal = stgq_schedule::Calendar::new(grid.horizon());
        cal.set_range(stgq_schedule::SlotRange::new(0, grid.horizon() - 1), true);
        for day in 0..days {
            let at = day * grid.slots_per_day() + rng.gen_range(0..grid.slots_per_day());
            cal.set_available(at, false);
        }
        calendars.push(cal);
    }
    let ds = Dataset {
        graph: b.build(),
        calendars,
        grid,
    };
    debug_assert!(ds.check());
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_analog_shape() {
        let ds = real_analog_194(7, 1);
        assert!(ds.check());
        assert_eq!(ds.graph.node_count(), 194);
        assert_eq!(ds.grid.horizon(), 336);
        assert_eq!(ds.calendars.len(), 194);
    }

    #[test]
    fn synthetic_sizes_match_figure_1d() {
        for n in [194usize, 800] {
            let ds = synthetic_coauthor(n, 1, 2);
            assert!(ds.check());
            assert_eq!(ds.graph.node_count(), n);
        }
    }

    #[test]
    fn datasets_are_reproducible() {
        let a = real_analog_194(2, 77);
        let b = real_analog_194(2, 77);
        assert_eq!(
            a.graph.edges().collect::<Vec<_>>(),
            b.graph.edges().collect::<Vec<_>>()
        );
        assert_eq!(a.calendars, b.calendars);
    }

    #[test]
    fn coarse_distances_have_few_levels_and_many_ties() {
        use std::collections::BTreeMap;
        let fine = real_analog_194(2, 9);
        let ds = coarse_distance_analog(2, 9, 3);
        assert_eq!(ds.graph.node_count(), fine.graph.node_count());
        assert_eq!(ds.graph.edges().count(), fine.graph.edges().count());
        assert_eq!(ds.calendars, fine.calendars, "schedules are untouched");

        let mut histogram: BTreeMap<u64, usize> = BTreeMap::new();
        for e in ds.graph.edges() {
            assert!((1..=3).contains(&e.weight));
            *histogram.entry(e.weight).or_default() += 1;
        }
        assert!(
            histogram.len() >= 2,
            "quantization must keep at least two rungs, got {histogram:?}"
        );
        let edges = ds.graph.edges().count();
        assert!(
            histogram.values().max().unwrap() * 2 > edges / 2,
            "coarse rungs must create massive tie groups"
        );
    }

    #[test]
    fn coarse_distances_are_reproducible() {
        let a = coarse_distance_analog(1, 5, 4);
        let b = coarse_distance_analog(1, 5, 4);
        assert_eq!(
            a.graph.edges().collect::<Vec<_>>(),
            b.graph.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn sparse_fringe_shape_and_degrees() {
        let ds = sparse_fringe(2, 11);
        assert!(ds.check());
        assert_eq!(ds.graph.node_count(), 194);
        // Fringe members (ids 98..194) have degree 2 (rim ends) or 3
        // (rim interiors) — the structure the fixpoint peel cascades
        // through.
        for v in 98..194u32 {
            let d = ds.graph.degree(stgq_graph::NodeId(v));
            assert!(
                (2..=3).contains(&d),
                "fringe member {v} has degree {d}, expected 2..=3"
            );
        }
        // The core stays community-dense: mean degree well above the
        // fringe's.
        let core_degrees: usize = (0..98u32)
            .map(|v| ds.graph.degree(stgq_graph::NodeId(v)))
            .sum();
        assert!(core_degrees / 98 >= 8, "core must stay dense");
    }

    #[test]
    fn calendar_churn_is_dense_with_long_runs() {
        let ds = calendar_churn(3, 7);
        assert!(ds.check());
        assert_eq!(ds.graph.node_count(), 194);
        let spd = ds.grid.slots_per_day();
        let all = stgq_schedule::SlotRange::new(0, ds.grid.horizon() - 1);
        let mut dense = 0usize;
        let mut long_runs = 0usize;
        for cal in &ds.calendars {
            // Dense: most of each day available despite jitter + holes.
            if cal.count_available() * 10 >= ds.grid.horizon() * 6 {
                dense += 1;
            }
            // Long runs: the churn holes split days into runs still far
            // longer than any fig1f pivot interval (m = 16 ⇒ 31 slots).
            if cal.max_run_in(all) >= spd / 4 {
                long_runs += 1;
            }
        }
        assert!(dense >= 150, "only {dense}/194 calendars are dense");
        assert!(long_runs >= 150, "only {long_runs}/194 have long runs");
    }

    #[test]
    fn calendar_churn_is_reproducible() {
        let a = calendar_churn(2, 5);
        let b = calendar_churn(2, 5);
        assert_eq!(a.calendars, b.calendars);
        assert_eq!(
            a.graph.edges().collect::<Vec<_>>(),
            b.graph.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn sparse_fringe_is_reproducible() {
        let a = sparse_fringe(1, 3);
        let b = sparse_fringe(1, 3);
        assert_eq!(
            a.graph.edges().collect::<Vec<_>>(),
            b.graph.edges().collect::<Vec<_>>()
        );
        assert_eq!(a.calendars, b.calendars);
    }

    #[test]
    fn plaza_hub_sees_the_whole_square() {
        let ds = plaza(2, 13);
        assert!(ds.check());
        let n = ds.graph.node_count();
        assert_eq!(n, 1200);
        // The hub knows everyone: a radius-1 feasible set is the world.
        assert_eq!(ds.graph.degree(stgq_graph::NodeId(0)), n - 1);
        // Crowd rows are heavy — that's what makes extraction the cost.
        let mean_degree: usize = (1..n as u32)
            .map(|v| ds.graph.degree(stgq_graph::NodeId(v)))
            .sum::<usize>()
            / (n - 1);
        assert!(
            mean_degree >= 20,
            "crowd mean degree {mean_degree} too light"
        );
        // Calendars are near-full: descent stays shallow.
        for cal in &ds.calendars {
            assert!(cal.count_available() * 10 >= ds.grid.horizon() * 9);
        }
    }

    #[test]
    fn plaza_is_reproducible() {
        let a = plaza(1, 4);
        let b = plaza(1, 4);
        assert_eq!(
            a.graph.edges().collect::<Vec<_>>(),
            b.graph.edges().collect::<Vec<_>>()
        );
        assert_eq!(a.calendars, b.calendars);
    }

    #[test]
    fn different_seeds_differ() {
        let a = real_analog_194(1, 1);
        let b = real_analog_194(1, 2);
        assert_ne!(
            a.graph.edges().collect::<Vec<_>>(),
            b.graph.edges().collect::<Vec<_>>()
        );
    }
}
