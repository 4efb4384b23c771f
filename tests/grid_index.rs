//! Property-based tests of `rumor_graph::geometry::GridIndex` against a
//! brute-force O(n²) oracle, over arbitrary point sets — including the
//! unit-square boundary and exactly duplicated positions — and under
//! arbitrary incremental move sequences.

use proptest::prelude::*;
use rumor_spreading::graph::geometry::GridIndex;
use rumor_spreading::graph::Node;

/// Brute-force radius query: every `u != v` with `dist(u, v) <= r`.
fn brute(pos: &[(f64, f64)], v: usize, r: f64) -> Vec<Node> {
    let (x, y) = pos[v];
    let mut out: Vec<Node> = (0..pos.len())
        .filter(|&u| {
            let (ux, uy) = pos[u];
            u != v && (ux - x).powi(2) + (uy - y).powi(2) <= r * r
        })
        .map(|u| u as Node)
        .collect();
    out.sort_unstable();
    out
}

/// Strategy: a point set in the unit square **plus** adversarial
/// structure — the four corners, a boundary-edge point, and an exact
/// duplicate of the first random point (ties in position must not
/// confuse cell bucketing).
fn point_set() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40).prop_map(|mut pts| {
        let first = pts[0];
        pts.push(first); // exact duplicate
        pts.extend([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 1.0)]);
        pts
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Radius queries match the brute-force scan for every node, at
    /// radii from sub-cell to spanning the whole square.
    #[test]
    fn radius_queries_match_brute_force(pts in point_set(), r in 0.01f64..1.5) {
        let grid = GridIndex::new(pts.clone(), r);
        prop_assert_eq!(grid.node_count(), pts.len());
        prop_assert_eq!(grid.radius(), r);
        let mut near = Vec::new();
        for v in 0..pts.len() {
            grid.within_radius(v as Node, &mut near);
            prop_assert_eq!(&near, &brute(&pts, v, r), "node {}", v);
        }
    }

    /// Duplicated positions see each other (distance 0) and report
    /// symmetric neighborhoods.
    #[test]
    fn duplicates_and_symmetry(pts in point_set(), r in 0.05f64..0.8) {
        let grid = GridIndex::new(pts.clone(), r);
        let mut near = Vec::new();
        let dup = pts.len() - 6; // index of the duplicated first point
        grid.within_radius(0, &mut near);
        prop_assert!(near.contains(&(dup as Node)), "duplicate not found from 0");
        grid.within_radius(dup as Node, &mut near);
        prop_assert!(near.contains(&0), "0 not found from its duplicate");
        // Symmetry on a sample of pairs.
        let mut other = Vec::new();
        for v in 0..pts.len().min(12) {
            grid.within_radius(v as Node, &mut near);
            for &u in &near {
                grid.within_radius(u, &mut other);
                prop_assert!(other.contains(&(v as Node)), "asymmetric pair {} {}", v, u);
            }
        }
    }

    /// Incremental moves (including onto boundaries and onto other
    /// nodes' exact positions) keep the index consistent with the
    /// oracle at every step.
    #[test]
    fn incremental_moves_keep_the_index_consistent(
        pts in point_set(),
        moves in proptest::collection::vec((0usize..64, 0.0f64..1.0, 0.0f64..1.0, 0u8..4), 1..80),
        r in 0.02f64..0.9,
    ) {
        let mut pos = pts.clone();
        let mut grid = GridIndex::new(pts.clone(), r);
        let n = pos.len();
        let mut near = Vec::new();
        for (step, &(vraw, x, y, snap)) in moves.iter().enumerate() {
            let v = vraw % n;
            // Sometimes snap the target onto a boundary or another
            // node's exact position.
            let (x, y) = match snap {
                0 => (x, y),
                1 => (x.round(), y),                  // left/right edge
                2 => (x, y.round()),                  // top/bottom edge
                _ => pos[(vraw / 2) % n],             // collide with a node
            };
            grid.move_to(v as Node, x, y);
            pos[v] = (x, y);
            prop_assert_eq!(grid.position(v as Node), (x, y));
            // Probe the mover, the collided-with node, and one other.
            for probe in [v, (vraw / 2) % n, step % n] {
                grid.within_radius(probe as Node, &mut near);
                prop_assert_eq!(&near, &brute(&pos, probe, r), "step {} node {}", step, probe);
            }
        }
        // Full sweep at the end.
        for v in 0..n {
            grid.within_radius(v as Node, &mut near);
            prop_assert_eq!(&near, &brute(&pos, v, r), "final node {}", v);
        }
        // The proximity edge list agrees with the oracle's pair count.
        let edges = grid.proximity_edges();
        let count: usize = (0..n).map(|v| brute(&pos, v, r).len()).sum();
        prop_assert_eq!(edges.len() * 2, count);
    }
}

/// Every node's radius query against the oracle.
fn assert_all_match_brute(pts: &[(f64, f64)], r: f64) {
    let grid = GridIndex::new(pts.to_vec(), r);
    let mut near = Vec::new();
    for v in 0..pts.len() {
        grid.within_radius(v as Node, &mut near);
        assert_eq!(near, brute(pts, v, r), "r {r} node {v} at {:?}", pts[v]);
    }
}

/// Sixteen filler points keep the grid at `floor(1 / r)` columns (the
/// `sqrt(n)` cap would otherwise shrink it).
fn filler() -> Vec<(f64, f64)> {
    (0..16).map(|i| (0.03 + 0.06 * i as f64, 0.97 - 0.05 * i as f64)).collect()
}

#[test]
fn exact_radius_on_an_axis_is_inside() {
    // r = 0.25 and the offsets are exact in binary, so the four axis
    // neighbors sit at distance exactly r: `<=` keeps them, and a point
    // one ulp further out is dropped.
    let mut pts = vec![(0.5, 0.5), (0.75, 0.5), (0.25, 0.5), (0.5, 0.75), (0.5, 0.25)];
    pts.push((0.75f64.next_up(), 0.5));
    pts.extend(filler());
    assert_all_match_brute(&pts, 0.25);
    let grid = GridIndex::new(pts.clone(), 0.25);
    let mut near = Vec::new();
    grid.within_radius(0, &mut near);
    for u in 1..=4 {
        assert!(near.contains(&u), "axis point {u} at distance exactly r is missing");
    }
    assert!(!near.contains(&5), "the point just beyond r was reported");
}

#[test]
fn cell_borders_and_the_unit_square_edges() {
    // With r = 0.25 the cells are 0.25 wide: put points on every cell
    // border and on the coordinates 0 and 1 (which clamps into the last
    // cell), in every combination.
    let coords = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut pts: Vec<(f64, f64)> =
        coords.iter().flat_map(|&x| coords.iter().map(move |&y| (x, y))).collect();
    pts.extend(filler());
    for r in [0.25, 0.2, 0.3, 0.5] {
        assert_all_match_brute(&pts, r);
    }
}

#[test]
fn duplicates_of_the_query_point_are_reported_and_the_point_is_not() {
    let mut pts = vec![(0.4, 0.6); 4];
    pts.extend([(0.0, 0.0), (1.0, 1.0)]);
    pts.extend(vec![(1.0, 0.0); 3]);
    pts.extend(filler());
    assert_all_match_brute(&pts, 0.1);
    let grid = GridIndex::new(pts, 0.1);
    let mut near = Vec::new();
    grid.within_radius(2, &mut near);
    assert_eq!(&near[..3], &[0, 1, 3], "the three copies at distance 0, not the query itself");
}

#[test]
fn a_single_column_grid() {
    // floor(1 / r) = 1 for r > 0.5, and a lone point caps sqrt(n) at 1:
    // the whole square is one cell, so the 3 x 3 block is that cell.
    let mut pts = filler();
    pts.extend([(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.5, 0.5)]);
    for r in [0.6, 0.9, 1.0, 1.5] {
        assert_all_match_brute(&pts, r);
    }
    assert_all_match_brute(&[(0.3, 0.7)], 0.1);
}
