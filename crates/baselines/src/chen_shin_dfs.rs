//! Chen–Shin depth-first-search routing (paper's reference \[3\]).
//!
//! The message carries a history of visited nodes; at each node it
//! tries unvisited nonfaulty preferred neighbors first, then unvisited
//! nonfaulty spare neighbors, and *backtracks* along its own trail when
//! everything forward is blocked. Because the search is a DFS of the
//! nonfaulty subgraph, delivery is guaranteed whenever source and
//! destination are connected — at the price of carrying the history in
//! the message and of unbounded path length (the paper's critique:
//! "the length of a routing path is unpredictable in general").

use hypersafe_topology::{FaultConfig, NodeId};

/// Outcome of a DFS routing attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DfsRoute {
    /// Every hop the message physically made, including backtracks.
    pub walk: Vec<NodeId>,
    /// Whether `d` was reached.
    pub delivered: bool,
}

impl DfsRoute {
    /// Total hops traversed (counting backtracking moves).
    pub fn hops(&self) -> u32 {
        (self.walk.len() - 1) as u32
    }
}

/// Routes `s → d` by depth-first search with backtracking.
///
/// `None` is returned only for faulty endpoints; otherwise the DFS
/// always terminates with `delivered` reflecting connectivity.
pub fn dfs_route(cfg: &FaultConfig, s: NodeId, d: NodeId) -> Option<DfsRoute> {
    if cfg.node_faulty(s) || cfg.node_faulty(d) {
        return None;
    }
    let cube = cfg.cube();
    let mut visited = vec![false; cube.num_nodes() as usize];
    visited[s.raw() as usize] = true;
    let mut walk = vec![s];
    // DFS stack of the *current* path (for backtracking).
    let mut stack = vec![s];

    while let Some(&at) = stack.last() {
        if at == d {
            return Some(DfsRoute {
                walk,
                delivered: true,
            });
        }
        // Preferred dimensions first (sorted toward the destination),
        // then spare dimensions — both filtered to usable, unvisited.
        let next = cube
            .preferred_dims(at, d)
            .chain(cube.spare_dims(at, d))
            .map(|i| at.neighbor(i))
            .find(|&b| !cfg.node_faulty(b) && !visited[b.raw() as usize] && cfg.link_usable(at, b));
        match next {
            Some(b) => {
                visited[b.raw() as usize] = true;
                walk.push(b);
                stack.push(b);
            }
            None => {
                // Dead end: physically backtrack one hop.
                stack.pop();
                if let Some(&prev) = stack.last() {
                    walk.push(prev);
                }
            }
        }
    }
    Some(DfsRoute {
        walk,
        delivered: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::connectivity;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn fault_free_routing_is_optimal() {
        // With no faults the DFS takes preferred dimensions straight in.
        let cfg = cfg4(&[]);
        for s in cfg.cube().nodes() {
            for d in cfg.cube().nodes() {
                let r = dfs_route(&cfg, s, d).unwrap();
                assert!(r.delivered);
                assert_eq!(r.hops(), s.distance(d));
            }
        }
    }

    #[test]
    fn delivery_iff_connected_exhaustive() {
        // DFS delivers exactly when the endpoints are connected — for
        // every fault pattern of Q_3.
        let cube = Hypercube::new(3);
        for mask in 0u64..256 {
            let mut f = FaultSet::new(cube);
            for i in 0..8 {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            for s in cfg.healthy_nodes() {
                for d in cfg.healthy_nodes() {
                    let r = dfs_route(&cfg, s, d).unwrap();
                    assert_eq!(
                        r.delivered,
                        connectivity::connected(&cfg, s, d),
                        "mask {mask:#b} {s} → {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn backtracking_shows_in_walk() {
        // Cul-de-sac: 0000 → …; block the straight routes from 0000 to
        // 1111 partially so DFS must back out of a dead end.
        let cfg = cfg4(&["0011", "0101", "1001", "0110", "1010"]);
        let s = NodeId::new(0b0001);
        let d = NodeId::new(0b1111);
        if connectivity::connected(&cfg, s, d) {
            let r = dfs_route(&cfg, s, d).unwrap();
            assert!(r.delivered);
            assert!(r.hops() >= s.distance(d));
        }
    }

    #[test]
    fn works_in_disconnected_cube_within_component() {
        // Fig. 3 faults: DFS can still route inside the big component…
        let cfg = cfg4(&["0110", "1010", "1100", "1111"]);
        let r = dfs_route(&cfg, NodeId::new(0b0101), NodeId::new(0b0000)).unwrap();
        assert!(r.delivered);
        // …but honestly reports failure across the partition (after an
        // exhaustive crawl, unlike safety levels which abort at the
        // source for free).
        let r2 = dfs_route(&cfg, NodeId::new(0b0111), NodeId::new(0b1110)).unwrap();
        assert!(!r2.delivered);
        assert!(
            r2.hops() > 4,
            "crawled the whole component before giving up"
        );
    }

    #[test]
    fn faulty_endpoints_rejected() {
        let cfg = cfg4(&["0011"]);
        assert!(dfs_route(&cfg, NodeId::new(0b0011), NodeId::new(0)).is_none());
    }
}
