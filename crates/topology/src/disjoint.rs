//! Node-disjoint parallel paths between hypercube node pairs.
//!
//! The proof of the paper's Theorem 2 leans on the classic hypercube
//! property that two nodes at Hamming distance `h` are joined by `h`
//! node-disjoint optimal paths (and, in `Q_n`, by `n` node-disjoint
//! paths total, the extra `n − h` having length `h + 2`). This module
//! constructs them explicitly; the property tests in `core` use the
//! construction as ground truth.

use crate::addr::{e, NodeId};
use crate::cube::Hypercube;
use crate::paths::Path;
use crate::ports::Topology;

/// The `h = H(s, d)` pairwise node-disjoint *optimal* paths between `s`
/// and `d`: path `i` crosses the preferred dimensions in cyclic order
/// starting from the `i`th one.
///
/// Returns an empty vector when `s == d`.
pub fn disjoint_optimal_paths(cube: Hypercube, s: NodeId, d: NodeId) -> Vec<Path> {
    debug_assert!(cube.contains(s) && cube.contains(d));
    let dims: Vec<u8> = cube.preferred(s, d).collect();
    let h = dims.len();
    let mut paths = Vec::with_capacity(h);
    for start in 0..h {
        let mut nodes = Vec::with_capacity(h + 1);
        let mut cur = s;
        nodes.push(cur);
        for k in 0..h {
            cur = cur.neighbor(dims[(start + k) % h]);
            nodes.push(cur);
        }
        debug_assert_eq!(cur, d);
        paths.push(Path::from_nodes(nodes));
    }
    paths
}

/// All `n` pairwise node-disjoint paths between distinct `s` and `d`:
/// the `h` optimal paths of [`disjoint_optimal_paths`] plus one path of
/// length `h + 2` through each spare dimension `j` (flip `j`, cross all
/// preferred dimensions, flip `j` back).
///
/// Returns an empty vector when `s == d`, matching
/// [`disjoint_optimal_paths`] — a degenerate pair in a batched
/// many-to-many request yields no paths, not a panic.
pub fn disjoint_paths(cube: Hypercube, s: NodeId, d: NodeId) -> Vec<Path> {
    if s == d {
        return Vec::new();
    }
    let mut paths = disjoint_optimal_paths(cube, s, d);
    let dims: Vec<u8> = cube.preferred(s, d).collect();
    for j in cube.spare(s, d) {
        let mut nodes = Vec::with_capacity(dims.len() + 3);
        let mut cur = s.neighbor(j);
        nodes.push(s);
        nodes.push(cur);
        for &p in &dims {
            cur = cur.neighbor(p);
            nodes.push(cur);
        }
        debug_assert_eq!(cur, d.xor(e(j)));
        nodes.push(d);
        paths.push(Path::from_nodes(nodes));
    }
    paths
}

/// Checks that the given paths share no nodes other than their common
/// endpoints. Used by tests and by the Theorem 2 property checker.
pub fn pairwise_internally_disjoint(paths: &[Path]) -> bool {
    let mut inner: Vec<NodeId> = Vec::new();
    for p in paths {
        let nodes = p.nodes();
        if nodes.len() > 2 {
            inner.extend_from_slice(&nodes[1..nodes.len() - 1]);
        }
    }
    let before = inner.len();
    inner.sort();
    inner.dedup();
    inner.len() == before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_paths_count_and_shape() {
        let cube = Hypercube::new(6);
        let s = NodeId::new(0b101010);
        let d = NodeId::new(0b010110);
        let h = s.distance(d);
        let paths = disjoint_optimal_paths(cube, s, d);
        assert_eq!(paths.len() as u32, h);
        for p in &paths {
            assert_eq!(p.start(), s);
            assert_eq!(p.end(), d);
            assert!(p.is_optimal());
        }
        assert!(pairwise_internally_disjoint(&paths));
    }

    #[test]
    fn full_fan_is_n_paths() {
        let cube = Hypercube::new(5);
        let s = NodeId::new(0b00000);
        let d = NodeId::new(0b00011);
        let paths = disjoint_paths(cube, s, d);
        assert_eq!(paths.len(), 5);
        let optimal = paths.iter().filter(|p| p.is_optimal()).count();
        let subopt = paths.iter().filter(|p| p.is_suboptimal()).count();
        assert_eq!(optimal as u32, s.distance(d));
        assert_eq!(subopt as u32, 5 - s.distance(d));
        assert!(pairwise_internally_disjoint(&paths));
    }

    #[test]
    fn adjacent_pair_fan() {
        let cube = Hypercube::new(4);
        let s = NodeId::new(0b0000);
        let d = NodeId::new(0b1000);
        let paths = disjoint_paths(cube, s, d);
        assert_eq!(paths.len(), 4);
        assert!(pairwise_internally_disjoint(&paths));
    }

    #[test]
    fn exhaustive_small_cube() {
        let cube = Hypercube::new(4);
        for s in cube.nodes() {
            for d in cube.nodes() {
                if s == d {
                    continue;
                }
                let paths = disjoint_paths(cube, s, d);
                assert_eq!(paths.len(), 4);
                assert!(pairwise_internally_disjoint(&paths), "s={s} d={d}");
                for p in &paths {
                    assert!(!p.has_repeats());
                }
            }
        }
    }

    #[test]
    fn same_node_yields_no_optimal_paths() {
        let cube = Hypercube::new(3);
        assert!(disjoint_optimal_paths(cube, NodeId::ZERO, NodeId::ZERO).is_empty());
    }

    #[test]
    fn same_node_yields_no_full_fan_either() {
        // Regression: the full fan used to assert on s == d while the
        // optimal fan returned an empty vector — a degenerate pair in
        // a batched many-to-many request must not kill the caller.
        let cube = Hypercube::new(4);
        for s in cube.nodes() {
            assert!(disjoint_paths(cube, s, s).is_empty());
        }
    }

    #[test]
    fn disjointness_checker_catches_overlap() {
        let a = Path::from_nodes(vec![NodeId::new(0), NodeId::new(1), NodeId::new(0b11)]);
        let b = Path::from_nodes(vec![NodeId::new(0), NodeId::new(1), NodeId::new(0b101)]);
        assert!(!pairwise_internally_disjoint(&[a, b]));
    }
}
