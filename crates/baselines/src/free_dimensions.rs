//! Free dimensions (paper's reference \[8\], Raghavendra–Yang–Tien).
//!
//! A dimension `i` is *free* when no two faulty nodes are adjacent
//! along it — equivalently, every node pair `(a, a ⊕ eⁱ)` contains at
//! most one fault. Splitting the cube along a free dimension leaves
//! each faulty node with a nonfaulty partner in the opposite half, the
//! structural property \[8\] exploits for fault-tolerant routing.
//!
//! This module implements free-dimension identification exactly and a
//! simplified recursive router over it (cross a free preferred
//! dimension early, then recurse in the remaining subcube), falling
//! back to greedy-with-detour when no free preferred dimension helps.
//! It serves as an E9 comparison point, not a line-by-line port of \[8\].

use hypersafe_topology::{FaultConfig, NodeId, Path};

/// The dimensions of `cfg`'s cube along which no two faults are
/// adjacent, ascending.
pub fn free_dimensions(cfg: &FaultConfig) -> Vec<u8> {
    let cube = cfg.cube();
    (0..cube.dim())
        .filter(|&i| {
            !cfg.node_faults()
                .iter()
                .any(|f| cfg.node_faults().contains(f.neighbor(i)))
        })
        .collect()
}

/// Classic result of \[8\]: with at most `n` faults in an `n`-cube, at
/// least one free dimension exists for `n ≥ 3` unless the faults are
/// pathologically paired. This helper reports whether the instance has
/// one (used by experiments to bucket instances).
pub fn has_free_dimension(cfg: &FaultConfig) -> bool {
    !free_dimensions(cfg).is_empty()
}

/// Simplified free-dimension routing with hop budget `ttl`: at each
/// node, prefer a *free* preferred dimension whose neighbor is
/// nonfaulty, then any nonfaulty preferred dimension, then a free spare
/// dimension detour.
///
/// Returns the realized path with delivery status; `None` for faulty
/// endpoints.
pub fn fd_route(cfg: &FaultConfig, s: NodeId, d: NodeId, ttl: u32) -> Option<(Path, bool)> {
    if cfg.node_faulty(s) || cfg.node_faulty(d) {
        return None;
    }
    let cube = cfg.cube();
    let free = free_dimensions(cfg);
    let is_free = |i: u8| free.contains(&i);
    let mut at = s;
    let mut path = Path::starting_at(s);
    let mut last_dim: Option<u8> = None;
    while at != d {
        if path.len() >= ttl {
            return Some((path, false));
        }
        let usable = |at: NodeId, i: u8| {
            let b = at.neighbor(i);
            (!cfg.node_faulty(b) && cfg.link_usable(at, b)).then_some((i, b))
        };
        let pick = cube
            .preferred_dims(at, d)
            .filter(|&i| is_free(i))
            .filter_map(|i| usable(at, i))
            .next()
            .or_else(|| {
                cube.preferred_dims(at, d)
                    .filter_map(|i| usable(at, i))
                    .next()
            })
            .or_else(|| {
                cube.spare_dims(at, d)
                    .filter(|&i| is_free(i) && Some(i) != last_dim)
                    .filter_map(|i| usable(at, i))
                    .next()
            })
            .or_else(|| {
                cube.spare_dims(at, d)
                    .filter(|&i| Some(i) != last_dim)
                    .filter_map(|i| usable(at, i))
                    .next()
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

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn all_dimensions_free_without_faults() {
        let cfg = cfg4(&[]);
        assert_eq!(free_dimensions(&cfg), vec![0, 1, 2, 3]);
    }

    #[test]
    fn adjacent_faults_block_their_dimension() {
        // 0000 and 0001 differ along dimension 0 → dimension 0 not free.
        let cfg = cfg4(&["0000", "0001"]);
        assert_eq!(free_dimensions(&cfg), vec![1, 2, 3]);
    }

    #[test]
    fn isolated_faults_keep_all_dimensions_free() {
        // Faults pairwise at distance ≥ 2.
        let cfg = cfg4(&["0000", "0011", "1111"]);
        assert_eq!(free_dimensions(&cfg), vec![0, 1, 2, 3]);
        assert!(has_free_dimension(&cfg));
    }

    #[test]
    fn no_free_dimension_possible() {
        // Pair faults along every dimension: (0000,0001) kills dim 0,
        // (0110, 0100) kills dim 1, (1011, 1111) kills dim 2,
        // (0010, 1010) kills dim 3.
        let cfg = cfg4(&[
            "0000", "0001", "0110", "0100", "1011", "1111", "0010", "1010",
        ]);
        assert!(!has_free_dimension(&cfg));
    }

    #[test]
    fn routes_fault_free_optimally() {
        let cfg = cfg4(&[]);
        for s in cfg.cube().nodes() {
            for d in cfg.cube().nodes() {
                let (p, ok) = fd_route(&cfg, s, d, 32).unwrap();
                assert!(ok);
                assert!(p.is_optimal());
            }
        }
    }

    #[test]
    fn routes_around_scattered_faults() {
        let cfg = cfg4(&["0011", "1100"]);
        let mut delivered = 0;
        let mut total = 0;
        for s in cfg.healthy_nodes() {
            for d in cfg.healthy_nodes() {
                if s == d {
                    continue;
                }
                total += 1;
                let (p, ok) = fd_route(&cfg, s, d, 32).unwrap();
                if ok {
                    assert!(p.traversable(&cfg, false));
                    delivered += 1;
                }
            }
        }
        assert!(delivered * 100 >= total * 95, "{delivered}/{total}");
    }
}
