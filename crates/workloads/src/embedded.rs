//! Application-shaped traffic patterns.
//!
//! Uniform random pairs stress routing uniformly, but real hypercube
//! applications communicated along *embedded* structures: a ring
//! embedded by Gray code (each node talks to its ring successor), a
//! 2-D torus embedded by per-axis Gray codes, dimension-wise exchange
//! (the classic hypercube all-to-all step), and transpose-style
//! bit-reversal pairs. These generators give the traffic and multicast
//! experiments workloads with realistic locality.

use hypersafe_topology::{gray, FaultConfig, NodeId, Topology};

/// `(source, destination)` pairs of the Gray-code ring embedding:
/// every healthy node to its nearest healthy ring successor.
pub fn ring_pairs(cfg: &FaultConfig) -> Vec<(NodeId, NodeId)> {
    let cube = cfg.cube();
    let total = cube.num_nodes();
    let mut pairs = Vec::new();
    for r in 0..total {
        let s = gray::gray(r);
        if cfg.node_faulty(s) {
            continue;
        }
        // Next healthy node along the ring.
        for step in 1..total {
            let d = gray::gray((r + step) % total);
            if !cfg.node_faulty(d) {
                if d != s {
                    pairs.push((s, d));
                }
                break;
            }
        }
    }
    pairs
}

/// Pairs of the dimension-`i` exchange step: every healthy node to its
/// dimension-`i` partner (the communication of one butterfly stage).
pub fn exchange_pairs(cfg: &FaultConfig, dim: u8) -> Vec<(NodeId, NodeId)> {
    let cube = cfg.cube();
    assert!(dim < cube.dim());
    cfg.healthy_nodes()
        .filter_map(|s| {
            let d = s.neighbor(dim);
            (!cfg.node_faulty(d)).then_some((s, d))
        })
        .collect()
}

/// Bit-reversal (transpose-style) pairs: node `a` to the node with
/// `a`'s low `n` bits reversed — the classic adversarial permutation
/// for dimension-ordered routing.
pub fn bit_reversal_pairs(cfg: &FaultConfig) -> Vec<(NodeId, NodeId)> {
    let cube = cfg.cube();
    let n = cube.dim();
    cfg.healthy_nodes()
        .filter_map(|s| {
            let mut rev = 0u64;
            for i in 0..n {
                if s.bit(i) {
                    rev |= 1 << (n - 1 - i);
                }
            }
            let d = NodeId::new(rev);
            (d != s && !cfg.node_faulty(d)).then_some((s, d))
        })
        .collect()
}

/// 2-D torus embedding pairs: the address is split into two halves,
/// each Gray-coded into one torus axis; every healthy node talks to
/// its +1 neighbor along each axis (nearest healthy skipped-over).
///
/// # Panics
/// Panics for odd `n` — the split needs two equal halves.
pub fn torus_pairs(cfg: &FaultConfig) -> Vec<(NodeId, NodeId)> {
    let cube = cfg.cube();
    let n = cube.dim();
    assert!(n.is_multiple_of(2), "torus embedding needs even dimension");
    let half = n / 2;
    let side = 1u64 << half;
    let mut pairs = Vec::new();
    let compose = |x: u64, y: u64| -> NodeId {
        NodeId::new(gray::gray(x % side).raw() | (gray::gray(y % side).raw() << half))
    };
    for y in 0..side {
        for x in 0..side {
            let s = compose(x, y);
            if cfg.node_faulty(s) {
                continue;
            }
            for (dx, dy) in [(1u64, 0u64), (0, 1)] {
                // Nearest healthy node in that direction.
                for step in 1..side {
                    let d = compose(x + dx * step, y + dy * step);
                    if !cfg.node_faulty(d) {
                        if d != s {
                            pairs.push((s, d));
                        }
                        break;
                    }
                }
            }
        }
    }
    pairs
}

/// The named pattern set, for sweeping experiments.
pub fn pattern_names() -> &'static [&'static str] {
    &["ring", "exchange", "bit-reversal", "torus"]
}

/// Dispatches a pattern by name (`dim` used by `exchange`).
pub fn pattern_pairs(cfg: &FaultConfig, name: &str, dim: u8) -> Vec<(NodeId, NodeId)> {
    match name {
        "ring" => ring_pairs(cfg),
        "exchange" => exchange_pairs(cfg, dim),
        "bit-reversal" => bit_reversal_pairs(cfg),
        "torus" => torus_pairs(cfg),
        other => panic!("unknown pattern {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn cfg(n: u8, faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(n);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn ring_pairs_are_adjacent_when_fault_free() {
        let cfg = cfg(5, &[]);
        let pairs = ring_pairs(&cfg);
        assert_eq!(pairs.len(), 32);
        for (s, d) in pairs {
            assert_eq!(s.distance(d), 1, "Gray successors are neighbors");
        }
    }

    #[test]
    fn ring_skips_faulty_successors() {
        let cfg = cfg(4, &["0001"]);
        let pairs = ring_pairs(&cfg);
        assert_eq!(pairs.len(), 15);
        for (s, d) in pairs {
            assert!(!cfg.node_faulty(s) && !cfg.node_faulty(d));
        }
    }

    #[test]
    fn exchange_pairs_flip_one_dimension() {
        let cfg = cfg(4, &["0101"]);
        let pairs = exchange_pairs(&cfg, 2);
        for (s, d) in &pairs {
            assert_eq!(s.neighbor(2), *d);
        }
        // 0101 and its partner 0001 drop out of the pattern.
        assert_eq!(pairs.len(), 16 - 2);
    }

    #[test]
    fn bit_reversal_is_involutive() {
        let cfg = cfg(6, &[]);
        let pairs = bit_reversal_pairs(&cfg);
        for (s, d) in &pairs {
            assert!(pairs.contains(&(*d, *s)), "{s} ↔ {d}");
        }
        // Palindromic addresses pair with themselves and are skipped.
        assert!(pairs.len() < 64);
    }

    #[test]
    fn torus_pairs_cover_healthy_nodes() {
        let cfg = cfg(6, &["000000"]);
        let pairs = torus_pairs(&cfg);
        assert!(!pairs.is_empty());
        for (s, d) in pairs {
            assert!(!cfg.node_faulty(s) && !cfg.node_faulty(d));
            assert_ne!(s, d);
        }
    }

    #[test]
    #[should_panic]
    fn torus_needs_even_dimension() {
        let cfg = cfg(5, &[]);
        torus_pairs(&cfg);
    }

    #[test]
    fn dispatcher_knows_all_patterns() {
        let cfg = cfg(4, &[]);
        for name in pattern_names() {
            assert!(!pattern_pairs(&cfg, name, 0).is_empty(), "{name}");
        }
    }
}
