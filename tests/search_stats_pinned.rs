//! Pins the exact engines' work: 72 solves on `real_analog_194(7, 1234)`
//! — p ∈ {3, 5, 7}, (s, k) ∈ {(1, 1), (2, 2)}, as SGQ and as STGQ with
//! m ∈ {2, 4}, under the default, `NO_SEARCH_REDUCTION`, `RELAXED` and
//! `NO_PRUNING` configs — and compares every objective and every
//! `SearchStats` field with values recorded from the engines before their
//! descent cores were merged. The STGQ half is replayed once more through
//! one long-lived `PivotArena` per config, which must reproduce the same
//! rows: a pooled arena carries only buffers from one solve to the next.
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

fn configs() -> [(&'static str, SelectConfig); 4] {
    [
        ("default", SelectConfig::default()),
        ("no-search-reduction", SelectConfig::NO_SEARCH_REDUCTION),
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
    assert_eq!(grid.len(), 72);
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
    assert_eq!(stgq.len(), 48);
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
    ("default stgq m2 p5 s1 k1", Some(8), [185, 4004, 161, 39, 10, 3, 0, 81, 685, 2986, 66, 29, 285, 12, 128, 52, 444, 271], false, false),
    ("default stgq m4 p5 s1 k1", Some(8), [42, 559, 34, 8, 1, 0, 0, 36, 84, 383, 33, 16, 137, 9, 29, 14, 80, 79], false, false),
    ("default sgq p5 s2 k2", Some(7), [22, 2107, 21, 11, 1, 0, 0, 0, 2057, 0, 0, 0, 0, 0, 10, 18, 0, 0], false, false),
    ("default stgq m2 p5 s2 k2", Some(7), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66, 66, 3, 0, 0, 0, 2839, 0], false, false),
    ("default stgq m4 p5 s2 k2", Some(7), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 33, 33, 5, 0, 0, 0, 518, 0], false, false),
    ("default sgq p7 s1 k1", Some(17), [26, 72, 25, 11, 0, 0, 0, 0, 32, 0, 0, 0, 11, 0, 9, 4, 0, 0], false, false),
    ("default stgq m2 p7 s1 k1", Some(17), [198, 3134, 182, 57, 21, 0, 0, 5, 473, 2412, 66, 20, 457, 28, 96, 5, 444, 129], false, false),
    ("default stgq m4 p7 s1 k1", Some(17), [7, 190, 5, 0, 1, 0, 0, 0, 12, 172, 33, 10, 224, 20, 6, 1, 80, 15], false, false),
    ("default sgq p7 s2 k2", Some(13), [112, 15680, 111, 7, 10, 0, 0, 19, 15481, 0, 0, 0, 5, 0, 95, 62, 0, 0], false, false),
    ("default stgq m2 p7 s2 k2", Some(13), [961, 118487, 910, 23, 158, 16, 0, 5454, 85874, 25598, 66, 9, 1410, 6, 743, 628, 2839, 2841], false, false),
    ("default stgq m4 p7 s2 k2", Some(13), [580, 43826, 561, 14, 66, 17, 7, 2299, 38098, 2536, 33, 3, 993, 11, 473, 318, 518, 836], false, false),
    ("no-search-reduction sgq p3 s1 k1", Some(3), [2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("no-search-reduction stgq m2 p3 s1 k1", Some(3), [135, 1320, 69, 68, 64, 0, 0, 0, 0, 1179, 66, 0, 0, 0, 2, 4, 563, 747], false, false),
    ("no-search-reduction stgq m4 p3 s1 k1", Some(3), [67, 199, 34, 33, 32, 0, 0, 0, 0, 130, 33, 0, 0, 0, 1, 2, 200, 316], false, false),
    ("no-search-reduction sgq p3 s2 k2", Some(3), [2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("no-search-reduction stgq m2 p3 s2 k2", Some(3), [142, 6937, 76, 76, 64, 0, 0, 0, 876, 5818, 66, 0, 0, 0, 2, 91, 3491, 4664], false, false),
    ("no-search-reduction stgq m4 p3 s2 k2", Some(3), [71, 841, 38, 37, 33, 0, 0, 0, 150, 573, 33, 0, 0, 0, 1, 43, 1214, 2006], false, false),
    ("no-search-reduction sgq p5 s1 k1", Some(8), [12, 52, 11, 4, 0, 0, 0, 8, 25, 0, 0, 0, 6, 0, 7, 4, 0, 0], false, false),
    ("no-search-reduction stgq m2 p5 s1 k1", Some(8), [300, 4178, 249, 68, 10, 2, 0, 81, 706, 3018, 66, 0, 309, 14, 146, 56, 563, 398], false, false),
    ("no-search-reduction stgq m4 p5 s1 k1", Some(8), [105, 682, 81, 23, 1, 0, 0, 35, 89, 439, 33, 0, 148, 9, 33, 15, 200, 147], false, false),
    ("no-search-reduction sgq p5 s2 k2", Some(7), [22, 2107, 21, 11, 1, 0, 0, 0, 2057, 0, 0, 0, 0, 0, 10, 18, 0, 0], false, false),
    ("no-search-reduction stgq m2 p5 s2 k2", Some(7), [749, 69600, 683, 267, 131, 0, 3, 1319, 51128, 15441, 66, 0, 151, 0, 338, 762, 3491, 4513], false, false),
    ("no-search-reduction stgq m4 p5 s2 k2", Some(7), [334, 22469, 301, 104, 63, 0, 2, 383, 19310, 2067, 33, 0, 107, 0, 160, 304, 1214, 1899], false, false),
    ("no-search-reduction sgq p7 s1 k1", Some(17), [26, 72, 25, 11, 0, 0, 0, 0, 32, 0, 0, 0, 11, 0, 9, 4, 0, 0], false, false),
    ("no-search-reduction stgq m2 p7 s1 k1", Some(17), [226, 3534, 203, 60, 22, 0, 0, 5, 508, 2753, 66, 0, 558, 41, 110, 5, 563, 174], false, false),
    ("no-search-reduction stgq m4 p7 s1 k1", Some(17), [38, 359, 31, 6, 0, 0, 0, 2, 23, 296, 33, 0, 265, 25, 7, 1, 200, 46], false, false),
    ("no-search-reduction sgq p7 s2 k2", Some(13), [112, 15680, 111, 7, 10, 0, 0, 19, 15481, 0, 0, 0, 5, 0, 95, 62, 0, 0], false, false),
    ("no-search-reduction stgq m2 p7 s2 k2", Some(13), [977, 119321, 918, 26, 144, 15, 0, 5660, 85696, 26389, 66, 0, 1557, 7, 766, 632, 3491, 3014], false, false),
    ("no-search-reduction stgq m4 p7 s2 k2", Some(13), [373, 27437, 351, 5, 25, 29, 3, 1910, 22375, 2539, 33, 0, 993, 11, 306, 257, 1214, 893], false, false),
    ("relaxed sgq p3 s1 k1", Some(3), [2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("relaxed stgq m2 p3 s1 k1", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66, 66, 0, 0, 0, 0, 444, 0], false, false),
    ("relaxed stgq m4 p3 s1 k1", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 33, 33, 0, 0, 0, 0, 80, 0], false, false),
    ("relaxed sgq p3 s2 k2", Some(3), [2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("relaxed stgq m2 p3 s2 k2", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66, 66, 0, 0, 0, 0, 2839, 0], false, false),
    ("relaxed stgq m4 p3 s2 k2", Some(3), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 33, 33, 0, 0, 0, 0, 518, 0], false, false),
    ("relaxed sgq p5 s1 k1", Some(8), [19, 30, 18, 3, 3, 0, 0, 0, 9, 0, 0, 0, 6, 0, 13, 0, 0, 0], false, false),
    ("relaxed stgq m2 p5 s1 k1", Some(8), [217, 283, 193, 24, 38, 2, 0, 3, 49, 0, 66, 29, 285, 12, 153, 14, 444, 271], false, false),
    ("relaxed stgq m4 p5 s1 k1", Some(8), [59, 74, 51, 5, 10, 0, 0, 0, 14, 0, 33, 16, 137, 9, 44, 4, 80, 79], false, false),
    ("relaxed sgq p5 s2 k2", Some(7), [22, 56, 21, 8, 8, 0, 0, 0, 27, 0, 0, 0, 0, 0, 6, 0, 0, 0], false, false),
    ("relaxed stgq m2 p5 s2 k2", Some(7), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66, 66, 3, 0, 0, 0, 2839, 0], false, false),
    ("relaxed stgq m4 p5 s2 k2", Some(7), [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 33, 33, 5, 0, 0, 0, 518, 0], false, false),
    ("relaxed sgq p7 s1 k1", Some(17), [19, 30, 18, 6, 3, 0, 0, 0, 6, 0, 0, 0, 11, 0, 10, 0, 0, 0], false, false),
    ("relaxed stgq m2 p7 s1 k1", Some(17), [189, 273, 173, 50, 24, 0, 0, 2, 48, 0, 66, 20, 457, 28, 102, 0, 444, 129], false, false),
    ("relaxed stgq m4 p7 s1 k1", Some(17), [8, 8, 6, 0, 1, 0, 0, 0, 2, 0, 33, 10, 224, 20, 7, 0, 80, 15], false, false),
    ("relaxed sgq p7 s2 k2", Some(13), [87, 500, 86, 2, 6, 0, 0, 60, 335, 0, 0, 0, 5, 0, 79, 17, 0, 0], false, false),
    ("relaxed stgq m2 p7 s2 k2", Some(13), [986, 3441, 935, 15, 257, 15, 0, 668, 1658, 2, 66, 9, 1410, 6, 697, 163, 2839, 2841], false, false),
    ("relaxed stgq m4 p7 s2 k2", Some(13), [611, 2803, 592, 12, 64, 13, 4, 1123, 954, 19, 33, 3, 993, 11, 513, 103, 518, 836], false, false),
    ("no-pruning sgq p3 s1 k1", Some(3), [20, 38, 19, 19, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("no-pruning stgq m2 p3 s1 k1", Some(3), [747, 3133, 681, 675, 0, 0, 0, 0, 0, 1777, 66, 0, 0, 0, 0, 0, 444, 747], false, false),
    ("no-pruning stgq m4 p3 s1 k1", Some(3), [316, 766, 283, 280, 0, 0, 0, 0, 0, 203, 33, 0, 0, 0, 0, 0, 80, 316], false, false),
    ("no-pruning sgq p3 s2 k2", Some(3), [116, 326, 115, 115, 0, 0, 0, 0, 96, 0, 0, 0, 0, 0, 0, 0, 0, 0], false, false),
    ("no-pruning stgq m2 p3 s2 k2", Some(3), [4664, 23700, 4598, 4543, 0, 0, 0, 0, 3917, 10642, 66, 0, 0, 0, 0, 0, 2839, 4664], false, false),
    ("no-pruning stgq m4 p3 s2 k2", Some(3), [2006, 8055, 1973, 1936, 0, 0, 0, 0, 1690, 2456, 33, 0, 0, 0, 0, 0, 518, 2006], false, false),
    ("no-pruning sgq p5 s1 k1", Some(8), [95, 513, 94, 57, 0, 0, 0, 61, 286, 0, 0, 0, 6, 0, 25, 15, 0, 0], false, false),
    ("no-pruning stgq m2 p5 s1 k1", Some(8), [1647, 19286, 1596, 768, 0, 0, 0, 1091, 4884, 10893, 66, 0, 309, 14, 189, 54, 444, 398], false, false),
    ("no-pruning stgq m4 p5 s1 k1", Some(8), [338, 1989, 314, 128, 0, 0, 0, 215, 547, 764, 33, 0, 148, 9, 46, 21, 80, 147], false, false),
    ("no-pruning sgq p5 s2 k2", Some(7), [2845, 303620, 2844, 1039, 0, 0, 0, 15354, 283172, 0, 0, 0, 0, 0, 1774, 1211, 0, 0], false, false),
    ("no-pruning stgq m2 p5 s2 k2", Some(7), [72527, 4933769, 72461, 17652, 0, 0, 0, 601187, 3849501, 388370, 66, 0, 151, 0, 42042, 4598, 2839, 4513], false, false),
    ("no-pruning stgq m4 p5 s2 k2", Some(7), [19611, 1219051, 19578, 3571, 0, 0, 0, 150790, 1016979, 25691, 33, 0, 107, 0, 13617, 2442, 518, 1899], false, false),
    ("no-pruning sgq p7 s1 k1", Some(17), [95, 258, 94, 36, 0, 0, 0, 0, 126, 0, 0, 0, 11, 0, 17, 2, 0, 0], false, false),
    ("no-pruning stgq m2 p7 s1 k1", Some(17), [895, 12167, 872, 306, 0, 0, 0, 33, 1838, 9096, 66, 0, 558, 41, 29, 22, 444, 174], false, false),
    ("no-pruning stgq m4 p7 s1 k1", Some(17), [76, 566, 69, 11, 0, 0, 0, 9, 112, 365, 33, 0, 265, 25, 2, 0, 80, 46], false, false),
    ("no-pruning sgq p7 s2 k2", Some(13), [1953, 219961, 1952, 282, 0, 0, 0, 7914, 209214, 0, 0, 0, 5, 0, 1653, 599, 0, 0], false, false),
    ("no-pruning stgq m2 p7 s2 k2", Some(13), [20548, 1588524, 20489, 2611, 0, 0, 0, 181135, 1196132, 186213, 66, 0, 1557, 7, 13108, 1944, 2839, 3014], false, false),
    ("no-pruning stgq m4 p7 s2 k2", Some(13), [3368, 242096, 3346, 125, 0, 0, 0, 25965, 205358, 6606, 33, 0, 993, 11, 2791, 696, 518, 893], false, false),
];
