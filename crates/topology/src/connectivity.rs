//! Connectivity analysis of faulty hypercubes.
//!
//! The paper's §3.3 studies *disconnected* hypercubes — faulty cubes
//! whose nonfaulty nodes split into two or more parts. These helpers
//! compute components, reachability, and true shortest paths in the
//! faulty cube, which the experiment harness uses as ground truth when
//! judging routing outcomes.

use crate::addr::NodeId;
use crate::faults::{FaultConfig, Faults};
use crate::ports::Topology;
use std::collections::VecDeque;

/// Sentinel for "not reached" in distance arrays.
pub const UNREACHED: u32 = u32::MAX;

/// Breadth-first distances from `src` over the nonfaulty subgraph of
/// `cfg` (faulty nodes and faulty links are impassable). Returns a
/// vector indexed by raw address; unreachable or faulty nodes hold
/// [`UNREACHED`]. A faulty `src` yields all-[`UNREACHED`].
pub fn bfs_distances(cfg: &FaultConfig, src: NodeId) -> Vec<u32> {
    let cube = cfg.cube();
    let mut dist = vec![UNREACHED; cube.num_nodes() as usize];
    if cfg.node_faulty(src) {
        return dist;
    }
    dist[src.raw() as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(a) = queue.pop_front() {
        let da = dist[a.raw() as usize];
        // Every dequeued node was assigned a real distance before being
        // enqueued; if the sentinel ever leaked in here, `da + 1` would
        // silently wrap a poisoned distance into the array.
        debug_assert_ne!(da, UNREACHED, "sentinel distance dequeued for {a}");
        for b in cube.neighbours(a) {
            if cfg.link_usable(a, b) && dist[b.raw() as usize] == UNREACHED {
                dist[b.raw() as usize] = da + 1;
                queue.push_back(b);
            }
        }
    }
    dist
}

/// Length of the shortest fault-free path from `s` to `d`, or `None` if
/// `d` is unreachable from `s` (including either endpoint faulty).
pub fn shortest_path_len(cfg: &FaultConfig, s: NodeId, d: NodeId) -> Option<u32> {
    let dist = bfs_distances(cfg, s);
    let v = dist[d.raw() as usize];
    (v != UNREACHED).then_some(v)
}

/// One shortest fault-free path from `s` to `d` as a node sequence
/// (inclusive of both endpoints), or `None` if unreachable.
pub fn shortest_path(cfg: &FaultConfig, s: NodeId, d: NodeId) -> Option<Vec<NodeId>> {
    let dist = bfs_distances(cfg, s);
    if dist[d.raw() as usize] == UNREACHED {
        return None;
    }
    // Walk backwards from d along strictly decreasing distances.
    let cube = cfg.cube();
    let mut path = vec![d];
    let mut cur = d;
    while cur != s {
        let dc = dist[cur.raw() as usize];
        // `cur` starts at a reached node and only moves to strictly
        // closer reached nodes, so `dc - 1` never touches the sentinel.
        debug_assert_ne!(dc, UNREACHED, "sentinel distance on backwalk at {cur}");
        let prev = cube
            .neighbours(cur)
            .find(|&b| dist[b.raw() as usize] == dc - 1 && cfg.link_usable(cur, b))
            .expect("BFS predecessor must exist");
        path.push(prev);
        cur = prev;
    }
    path.reverse();
    Some(path)
}

/// Whether `s` and `d` are connected in the faulty cube.
pub fn connected(cfg: &FaultConfig, s: NodeId, d: NodeId) -> bool {
    reachable(cfg.cube(), cfg, s, d)
}

/// Whether `s` and `d` are connected over the healthy nodes and usable
/// links of `topo` under `faults`, in either topology: a depth-first
/// search from `s`. Both endpoints must lie in `topo`; a faulty one is
/// connected to nothing.
pub fn reachable<T: Topology, F: Faults<T>>(topo: T, faults: &F, s: T::Node, d: T::Node) -> bool {
    let (nodes, links) = (faults.node_faults(), faults.link_faults());
    let id = |a| NodeId::new(T::raw(a));
    if nodes.contains(id(s)) || nodes.contains(id(d)) {
        return false;
    }
    let mut seen = vec![false; topo.num_nodes() as usize];
    seen[T::raw(s) as usize] = true;
    let mut stack = vec![s];
    while let Some(a) = stack.pop() {
        if a == d {
            return true;
        }
        for b in topo.neighbours(a) {
            let fresh = !seen[T::raw(b) as usize];
            if fresh && !nodes.contains(id(b)) && !links.contains(id(a), id(b)) {
                seen[T::raw(b) as usize] = true;
                stack.push(b);
            }
        }
    }
    false
}

/// Partition of the nonfaulty nodes into connected components.
///
/// Returned components are sorted by their smallest member, and nodes
/// within a component are ascending.
pub fn components(cfg: &FaultConfig) -> Vec<Vec<NodeId>> {
    let cube = cfg.cube();
    let mut seen = vec![false; cube.num_nodes() as usize];
    let mut comps = Vec::new();
    for start in cfg.healthy_nodes() {
        if seen[start.raw() as usize] {
            continue;
        }
        let mut comp = Vec::new();
        let mut queue = VecDeque::new();
        seen[start.raw() as usize] = true;
        queue.push_back(start);
        while let Some(a) = queue.pop_front() {
            comp.push(a);
            for b in cube.neighbours(a) {
                if cfg.link_usable(a, b) && !seen[b.raw() as usize] {
                    seen[b.raw() as usize] = true;
                    queue.push_back(b);
                }
            }
        }
        comp.sort();
        comps.push(comp);
    }
    comps
}

/// Whether the faulty cube is connected: all nonfaulty nodes lie in one
/// component. A cube with no nonfaulty nodes counts as connected
/// (vacuously — there is nothing to disconnect).
pub fn is_connected(cfg: &FaultConfig) -> bool {
    components(cfg).len() <= 1
}

/// Whether the faulty cube is *disconnected* in the paper's sense
/// (§3.3): the nonfaulty nodes split into two or more disjoint parts.
pub fn is_disconnected(cfg: &FaultConfig) -> bool {
    !is_connected(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Hypercube;
    use crate::faults::FaultSet;

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn fault_free_cube_is_connected() {
        let cfg = cfg4(&[]);
        assert!(is_connected(&cfg));
        assert_eq!(components(&cfg).len(), 1);
        // BFS distance equals Hamming distance in the fault-free cube.
        let d = bfs_distances(&cfg, NodeId::ZERO);
        for a in cfg.cube().nodes() {
            assert_eq!(d[a.raw() as usize], a.weight());
        }
    }

    #[test]
    fn fig3_disconnection() {
        // Fig. 3: faults {0110, 1010, 1100, 1111} isolate node 1110.
        let cfg = cfg4(&["0110", "1010", "1100", "1111"]);
        assert!(is_disconnected(&cfg));
        let comps = components(&cfg);
        assert_eq!(comps.len(), 2);
        let small: Vec<NodeId> = vec![NodeId::new(0b1110)];
        assert!(comps.contains(&small), "1110 is its own component");
        assert!(!connected(&cfg, NodeId::new(0b0111), NodeId::new(0b1110)));
        assert!(connected(&cfg, NodeId::new(0b0101), NodeId::new(0b0000)));
    }

    #[test]
    fn shortest_path_detours_around_faults() {
        // Block every optimal path 0000 → 0011 (via 0001 and 0010).
        let cfg = cfg4(&["0001", "0010"]);
        let len = shortest_path_len(&cfg, NodeId::ZERO, NodeId::new(0b0011)).unwrap();
        assert_eq!(len, 4, "H + 2 detour");
        let p = shortest_path(&cfg, NodeId::ZERO, NodeId::new(0b0011)).unwrap();
        assert_eq!(p.len() as u32, len + 1);
        assert_eq!(p[0], NodeId::ZERO);
        assert_eq!(*p.last().unwrap(), NodeId::new(0b0011));
        for w in p.windows(2) {
            assert_eq!(w[0].distance(w[1]), 1);
            assert!(!cfg.node_faulty(w[0]) && !cfg.node_faulty(w[1]));
        }
    }

    #[test]
    fn faulty_source_reaches_nothing() {
        let cfg = cfg4(&["0000"]);
        assert_eq!(shortest_path_len(&cfg, NodeId::ZERO, NodeId::new(1)), None);
        assert!(bfs_distances(&cfg, NodeId::ZERO)
            .iter()
            .all(|&d| d == UNREACHED));
    }

    #[test]
    fn link_fault_forces_detour() {
        let cube = Hypercube::new(3);
        let mut cfg = FaultConfig::fault_free(cube);
        let a = NodeId::new(0b000);
        let b = NodeId::new(0b001);
        cfg.link_faults_mut().insert(a, b);
        assert_eq!(
            shortest_path_len(&cfg, a, b),
            Some(3),
            "around the missing link"
        );
        assert!(is_connected(&cfg));
    }

    #[test]
    fn all_faulty_counts_as_connected() {
        let cube = Hypercube::new(1);
        let mut f = FaultSet::new(cube);
        f.insert(NodeId::new(0));
        f.insert(NodeId::new(1));
        let cfg = FaultConfig::with_node_faults(cube, f);
        assert!(is_connected(&cfg));
        assert!(components(&cfg).is_empty());
    }
}
