//! Progressive (backtrack-free) adaptive routing — the simplified
//! Chen–Shin scheme the paper cites as \[2\].
//!
//! "A simplified version of this approach that tolerates fewer faults
//! was presented in \[2\], where routing is progressive without
//! backtracking. Still routing paths are not optimal in general."
//!
//! At each node the message moves to a nonfaulty preferred neighbor if
//! one exists; otherwise it sidesteps along a nonfaulty spare dimension
//! it did not just cross. Without history or backtracking, the scheme
//! can live-lock around fault clusters, so a hop budget (TTL) bounds
//! the attempt.

use hypersafe_topology::{FaultConfig, NodeId, Path};

/// Routes `s → d` progressively with hop budget `ttl`.
///
/// Returns the realized path with its delivery status; `None` for
/// faulty endpoints.
pub fn progressive_route(
    cfg: &FaultConfig,
    s: NodeId,
    d: NodeId,
    ttl: u32,
) -> Option<(Path, bool)> {
    if cfg.node_faulty(s) || cfg.node_faulty(d) {
        return None;
    }
    let cube = cfg.cube();
    let mut at = s;
    let mut path = Path::starting_at(s);
    let mut last_dim: Option<u8> = None;
    while at != d {
        if path.len() >= ttl {
            return Some((path, false));
        }
        let pick = cube
            .preferred_dims(at, d)
            .map(|i| (i, at.neighbor(i)))
            .find(|&(_, b)| !cfg.node_faulty(b) && cfg.link_usable(at, b))
            .or_else(|| {
                cube.spare_dims(at, d)
                    .filter(|&i| Some(i) != last_dim)
                    .map(|i| (i, at.neighbor(i)))
                    .find(|&(_, b)| !cfg.node_faulty(b) && cfg.link_usable(at, b))
            });
        match pick {
            Some((i, b)) => {
                last_dim = Some(i);
                path.push(b);
                at = b;
            }
            None => return Some((path, false)),
        }
    }
    Some((path, true))
}

/// A sensible default TTL: `H + 2 · (faults + 1)` — each fault can cost
/// at most one two-hop detour in the progressive scheme's best case.
pub fn default_ttl(cfg: &FaultConfig, s: NodeId, d: NodeId) -> u32 {
    s.distance(d) + 2 * (cfg.node_faults().len() as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn fault_free_is_optimal() {
        let cfg = cfg4(&[]);
        for s in cfg.cube().nodes() {
            for d in cfg.cube().nodes() {
                let (p, ok) = progressive_route(&cfg, s, d, 64).unwrap();
                assert!(ok);
                assert!(p.is_optimal());
            }
        }
    }

    #[test]
    fn detours_around_single_fault() {
        let cfg = cfg4(&["0001"]);
        let (p, ok) =
            progressive_route(&cfg, NodeId::new(0b0000), NodeId::new(0b0011), 16).unwrap();
        assert!(ok);
        assert!(p.traversable(&cfg, false));
        assert!(p.len() <= 2 + 2, "one detour at most here");
    }

    #[test]
    fn ttl_exhaustion_reports_failure() {
        let cfg = cfg4(&["0001", "0010", "0100", "1000"]);
        // 0000's every neighbor is faulty: no first hop exists at all.
        let (p, ok) = progressive_route(&cfg, NodeId::new(0), NodeId::new(0b1111), 8).unwrap();
        assert!(!ok);
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn no_backtracking_means_it_can_fail_where_dfs_succeeds() {
        // Chosen so the progressive walker starves while the graph stays
        // connected — the structural weakness [3] fixes with history.
        use crate::chen_shin_dfs::dfs_route;
        use hypersafe_topology::connectivity;
        let cube = Hypercube::new(4);
        let mut found = false;
        // Search a few fault patterns for a witness.
        'outer: for mask in 0u64..(1 << 16) {
            if mask.count_ones() != 5 {
                continue;
            }
            let mut f = FaultSet::new(cube);
            for i in 0..16 {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            for s in cfg.healthy_nodes() {
                for d in cfg.healthy_nodes() {
                    if s == d || !connectivity::connected(&cfg, s, d) {
                        continue;
                    }
                    let (_, ok) = progressive_route(&cfg, s, d, 8).unwrap();
                    if !ok {
                        let r = dfs_route(&cfg, s, d).unwrap();
                        assert!(r.delivered, "DFS must succeed when connected");
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found, "expected a progressive-fails/DFS-succeeds witness");
    }
}
