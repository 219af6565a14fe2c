//! Pins the exact engines' work: 54 solves on `real_analog_194(7, 1234)`
//! — p ∈ {3, 5, 7}, (s, k) ∈ {(1, 1), (2, 2)}, as SGQ and as STGQ with
//! m ∈ {2, 4}, under the default, `RELAXED` and `NO_PRUNING` configs —
//! and compares every objective and every `SearchStats` field with
//! recorded values. The SGQ rows date from before the engines' descent
//! cores were merged; the STGQ rows were re-pinned when the
//! availability tie-break inside equal-distance access-order blocks was
//! retired (every objective unchanged). The STGQ half is replayed once
//! more through one long-lived `PivotArena` per config, which must
//! reproduce the same rows: a pooled arena carries only buffers from one
//! solve to the next.
//!
//! A refactor of the search may change how the code is laid out, never
//! which frames it opens or which bound fires: a mismatch here prints the
//! instance and both `Debug` forms.

use stgq::datagen::pick_initiator;
use stgq::datagen::scenario::real_analog_194;
use stgq::graph::FeasibleGraph;
use stgq::prelude::*;
use stgq::query::{PivotArena, SearchStats, Solver};

/// One pinned solve: label, objective, the 18 counters of
/// [`SearchStats`] in declaration order, `truncated`, `cancelled`.
type Row = (&'static str, Option<u64>, [u64; 18], bool, bool);

fn stats_of(row: &Row) -> SearchStats {
    let c = row.2;
    SearchStats {
        frames: c[0],
        candidates_examined: c[1],
        vertices_expanded: c[2],
        solutions_recorded: c[3],
        distance_prunes: c[4],
        acquaintance_prunes: c[5],
        availability_prunes: c[6],
        exterior_rejections: c[7],
        interior_rejections: c[8],
        temporal_rejections: c[9],
        pivots_processed: c[10],
        pivots_skipped: c[11],
        peeled_candidates: c[12],
        pivots_refused_by_core: c[13],
        frames_pruned_by_match: c[14],
        children_pruned_by_parent_bound: c[15],
        prep_words_delta: c[16],
        prep_words_rebuilt: c[17],
        truncated: row.3,
        cancelled: row.4,
    }
}

fn configs() -> [(&'static str, SelectConfig); 3] {
    [
        ("default", SelectConfig::default()),
        ("relaxed", SelectConfig::RELAXED),
        ("no-pruning", SelectConfig::NO_PRUNING),
    ]
}

/// The grid in pinned order: `(label, p, s, k, m)`, `m = 0` for SGQ.
fn instances() -> Vec<(String, usize, usize, usize, usize)> {
    let mut out = Vec::new();
    for (name, _) in configs() {
        for p in [3, 5, 7] {
            for (s, k) in [(1, 1), (2, 2)] {
                for m in [0, 2, 4] {
                    let kind = if m == 0 {
                        "sgq".to_string()
                    } else {
                        format!("stgq m{m}")
                    };
                    out.push((format!("{name} {kind} p{p} s{s} k{k}"), p, s, k, m));
                }
            }
        }
    }
    out
}

#[test]
fn search_stats_match_the_pinned_grid() {
    let ds = real_analog_194(7, 1234);
    let q = pick_initiator(&ds.graph, 20);
    let grid = instances();
    assert_eq!(grid.len(), 54);
    assert_eq!(EXPECTED.len(), grid.len(), "one pinned row per solve");
    let mut mismatches = Vec::new();
    for ((label, p, s, k, m), row) in grid.iter().zip(EXPECTED) {
        assert_eq!(label, row.0, "pinned rows follow the grid order");
        let cfg = configs()
            .into_iter()
            .find(|(name, _)| label.starts_with(name))
            .expect("every label names its config")
            .1;
        let (objective, stats) = if *m == 0 {
            let query = SgqQuery::new(*p, *s, *k).unwrap();
            let out = solve_sgq(&ds.graph, q, &query, &cfg).unwrap();
            (out.solution.map(|s| s.total_distance), out.stats)
        } else {
            let query = StgqQuery::new(*p, *s, *k, *m).unwrap();
            let out = solve_stgq(&ds.graph, q, &ds.calendars, &query, &cfg).unwrap();
            (out.solution.map(|s| s.total_distance), out.stats)
        };
        let expected = stats_of(row);
        if objective != row.1 || stats != expected {
            mismatches.push(format!(
                "{label} (initiator {q:?}):\n  objective {objective:?}, pinned {:?}\n  \
                 actual {stats:?}\n  pinned {expected:?}",
                row.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} solves moved:\n{}",
        mismatches.len(),
        grid.len(),
        mismatches.join("\n")
    );
}

/// The STGQ half replayed in grid order through one long-lived arena per
/// config: every objective and every counter equals the plain solve's
/// pinned row, so nothing a solve leaves in the arena moves the next.
#[test]
fn pooled_arena_replay_matches_the_pinned_grid() {
    let ds = real_analog_194(7, 1234);
    let q = pick_initiator(&ds.graph, 20);
    let stgq: Vec<_> = instances()
        .into_iter()
        .zip(EXPECTED)
        .filter(|((_, _, _, _, m), _)| *m > 0)
        .collect();
    assert_eq!(stgq.len(), 36);
    let mut arena = PivotArena::new();
    let mut current = "";
    let mut mismatches = Vec::new();
    for ((label, p, s, k, m), row) in &stgq {
        let (name, cfg) = configs()
            .into_iter()
            .find(|(name, _)| label.starts_with(name))
            .expect("every label names its config");
        if name != current {
            current = name;
            arena = PivotArena::new();
        }
        let query = StgqQuery::new(*p, *s, *k, *m).unwrap();
        let fg = FeasibleGraph::extract(&ds.graph, q, *s);
        let out = Solver::new(&fg, &cfg)
            .arena(&mut arena)
            .stgq(&ds.calendars[..], &query);
        let expected = stats_of(row);
        let objective = out.solution.map(|s| s.total_distance);
        if objective != row.1 || out.stats != expected {
            mismatches.push(format!(
                "{label} replayed (initiator {q:?}):\n  objective {objective:?}, pinned {:?}\n  \
                 actual {:?}\n  pinned {expected:?}",
                row.1, out.stats
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} replayed solves moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

// One row per solve; kept one line each.
#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    ("default sgq p3 s1 k1", Some(3), [2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("default stgq m2 p3 s1 k1", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66, 66, 0, 0, 0, 0, 444, 0], false, false),
    ("default stgq m4 p3 s1 k1", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 33, 33, 0, 0, 0, 0, 80, 0], false, false),
    ("default sgq p3 s2 k2", Some(3), [2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("default stgq m2 p3 s2 k2", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66, 66, 0, 0, 0, 0, 2839, 0], false, false),
    ("default stgq m4 p3 s2 k2", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 33, 33, 0, 0, 0, 0, 518, 0], false, false),
    ("default sgq p5 s1 k1", Some(8), [12, 52, 11, 4, 0, 0, 0, 8, 25, 0, 0, 0, 6, 0, 7, 4, 0, 0], false, false),
    ("default stgq m2 p5 s1 k1", Some(8), [185, 4005, 161, 39, 10, 2, 0, 81, 682, 2990, 66, 29, 285, 12, 129, 52, 444, 271], false, false),
    ("default stgq m4 p5 s1 k1", Some(8), [42, 563, 34, 8, 1, 0, 0, 35, 86, 386, 33, 16, 137, 9, 30, 14, 80, 79], false, false),
    ("default sgq p5 s2 k2", Some(7), [22, 2107, 21, 11, 1, 0, 0, 0, 2057, 0, 0, 0, 0, 0, 10, 18, 0, 0], false, false),
    ("default stgq m2 p5 s2 k2", Some(7), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66, 66, 3, 0, 0, 0, 2839, 0], false, false),
    ("default stgq m4 p5 s2 k2", Some(7), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 33, 33, 5, 0, 0, 0, 518, 0], false, false),
    ("default sgq p7 s1 k1", Some(17), [26, 72, 25, 11, 0, 0, 0, 0, 32, 0, 0, 0, 11, 0, 9, 4, 0, 0], false, false),
    ("default stgq m2 p7 s1 k1", Some(17), [198, 3136, 182, 57, 21, 0, 0, 5, 473, 2414, 66, 20, 457, 28, 96, 5, 444, 129], false, false),
    ("default stgq m4 p7 s1 k1", Some(17), [8, 191, 6, 0, 1, 0, 0, 0, 12, 172, 33, 10, 224, 20, 7, 1, 80, 15], false, false),
    ("default sgq p7 s2 k2", Some(13), [112, 15680, 111, 7, 10, 0, 0, 19, 15481, 0, 0, 0, 5, 0, 95, 62, 0, 0], false, false),
    ("default stgq m2 p7 s2 k2", Some(13), [955, 117647, 904, 23, 143, 15, 0, 5537, 84907, 25647, 66, 9, 1410, 6, 753, 629, 2839, 2841], false, false),
    ("default stgq m4 p7 s2 k2", Some(13), [554, 42170, 535, 14, 66, 17, 6, 2170, 36570, 2573, 33, 3, 993, 11, 447, 308, 518, 836], false, false),
    ("relaxed sgq p3 s1 k1", Some(3), [2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("relaxed stgq m2 p3 s1 k1", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66, 66, 0, 0, 0, 0, 444, 0], false, false),
    ("relaxed stgq m4 p3 s1 k1", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 33, 33, 0, 0, 0, 0, 80, 0], false, false),
    ("relaxed sgq p3 s2 k2", Some(3), [2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("relaxed stgq m2 p3 s2 k2", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66, 66, 0, 0, 0, 0, 2839, 0], false, false),
    ("relaxed stgq m4 p3 s2 k2", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 33, 33, 0, 0, 0, 0, 518, 0], false, false),
    ("relaxed sgq p5 s1 k1", Some(8), [19, 30, 18, 3, 3, 0, 0, 0, 9, 0, 0, 0, 6, 0, 13, 0, 0, 0], false, false),
    ("relaxed stgq m2 p5 s1 k1", Some(8), [217, 283, 193, 24, 39, 2, 0, 3, 49, 0, 66, 29, 285, 12, 152, 14, 444, 271], false, false),
    ("relaxed stgq m4 p5 s1 k1", Some(8), [58, 73, 50, 5, 10, 0, 0, 0, 13, 0, 33, 16, 137, 9, 43, 5, 80, 79], false, false),
    ("relaxed sgq p5 s2 k2", Some(7), [22, 56, 21, 8, 8, 0, 0, 0, 27, 0, 0, 0, 0, 0, 6, 0, 0, 0], false, false),
    ("relaxed stgq m2 p5 s2 k2", Some(7), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66, 66, 3, 0, 0, 0, 2839, 0], false, false),
    ("relaxed stgq m4 p5 s2 k2", Some(7), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 33, 33, 5, 0, 0, 0, 518, 0], false, false),
    ("relaxed sgq p7 s1 k1", Some(17), [19, 30, 18, 6, 3, 0, 0, 0, 6, 0, 0, 0, 11, 0, 10, 0, 0, 0], false, false),
    ("relaxed stgq m2 p7 s1 k1", Some(17), [189, 273, 173, 50, 24, 0, 0, 2, 48, 0, 66, 20, 457, 28, 102, 0, 444, 129], false, false),
    ("relaxed stgq m4 p7 s1 k1", Some(17), [9, 9, 7, 0, 1, 0, 0, 0, 2, 0, 33, 10, 224, 20, 8, 0, 80, 15], false, false),
    ("relaxed sgq p7 s2 k2", Some(13), [87, 500, 86, 2, 6, 0, 0, 60, 335, 0, 0, 0, 5, 0, 79, 17, 0, 0], false, false),
    ("relaxed stgq m2 p7 s2 k2", Some(13), [932, 3104, 881, 15, 261, 15, 0, 726, 1307, 4, 66, 9, 1410, 6, 639, 171, 2839, 2841], false, false),
    ("relaxed stgq m4 p7 s2 k2", Some(13), [525, 2441, 506, 12, 42, 14, 3, 1047, 732, 20, 33, 3, 993, 11, 449, 124, 518, 836], false, false),
    ("no-pruning sgq p3 s1 k1", Some(3), [20, 38, 19, 19, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("no-pruning stgq m2 p3 s1 k1", Some(3), [747, 3134, 681, 675, 0, 0, 0, 0, 0, 1778, 66, 0, 0, 0, 0, 0, 444, 747], false, false),
    ("no-pruning stgq m4 p3 s1 k1", Some(3), [316, 768, 283, 280, 0, 0, 0, 0, 0, 205, 33, 0, 0, 0, 0, 0, 80, 316], false, false),
    ("no-pruning sgq p3 s2 k2", Some(3), [116, 326, 115, 115, 0, 0, 0, 0, 96, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("no-pruning stgq m2 p3 s2 k2", Some(3), [4664, 23700, 4598, 4543, 0, 0, 0, 0, 3917, 10642, 66, 0, 0, 0, 0, 0, 2839, 4664], false, false),
    ("no-pruning stgq m4 p3 s2 k2", Some(3), [2006, 8059, 1973, 1936, 0, 0, 0, 0, 1690, 2460, 33, 0, 0, 0, 0, 0, 518, 2006], false, false),
    ("no-pruning sgq p5 s1 k1", Some(8), [95, 513, 94, 57, 0, 0, 0, 61, 286, 0, 0, 0, 6, 0, 25, 15, 0, 0], false, false),
    ("no-pruning stgq m2 p5 s1 k1", Some(8), [1647, 19283, 1596, 768, 0, 0, 0, 1074, 4827, 10965, 66, 0, 309, 14, 188, 53, 444, 398], false, false),
    ("no-pruning stgq m4 p5 s1 k1", Some(8), [335, 2016, 311, 125, 0, 0, 0, 201, 528, 829, 33, 0, 148, 9, 46, 22, 80, 147], false, false),
    ("no-pruning sgq p5 s2 k2", Some(7), [2845, 303620, 2844, 1039, 0, 0, 0, 15354, 283172, 0, 0, 0, 0, 0, 1774, 1211, 0, 0], false, false),
    ("no-pruning stgq m2 p5 s2 k2", Some(7), [72836, 4923626, 72770, 17652, 0, 0, 0, 606954, 3832403, 389123, 66, 0, 151, 0, 42184, 4724, 2839, 4513], false, false),
    ("no-pruning stgq m4 p5 s2 k2", Some(7), [19758, 1210390, 19725, 3574, 0, 0, 0, 153037, 1005415, 26090, 33, 0, 107, 0, 13683, 2549, 518, 1899], false, false),
    ("no-pruning sgq p7 s1 k1", Some(17), [95, 258, 94, 36, 0, 0, 0, 0, 126, 0, 0, 0, 11, 0, 17, 2, 0, 0], false, false),
    ("no-pruning stgq m2 p7 s1 k1", Some(17), [895, 12191, 872, 306, 0, 0, 0, 33, 1838, 9120, 66, 0, 558, 41, 29, 22, 444, 174], false, false),
    ("no-pruning stgq m4 p7 s1 k1", Some(17), [78, 613, 71, 11, 0, 0, 0, 9, 111, 411, 33, 0, 265, 25, 2, 0, 80, 46], false, false),
    ("no-pruning sgq p7 s2 k2", Some(13), [1953, 219961, 1952, 282, 0, 0, 0, 7914, 209214, 0, 0, 0, 5, 0, 1653, 599, 0, 0], false, false),
    ("no-pruning stgq m2 p7 s2 k2", Some(13), [20487, 1576369, 20428, 2611, 0, 0, 0, 181304, 1182584, 187446, 66, 0, 1557, 7, 13044, 1996, 2839, 3014], false, false),
    ("no-pruning stgq m4 p7 s2 k2", Some(13), [3241, 233543, 3219, 129, 0, 0, 0, 26207, 196384, 6913, 33, 0, 993, 11, 2623, 691, 518, 893], false, false),
];
