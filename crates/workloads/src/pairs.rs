//! Source/destination pair sampling for unicast experiments.

use hypersafe_topology::{FaultConfig, NodeId, Topology};
use rand::Rng;

/// A uniformly random *healthy* node.
///
/// # Panics
/// Panics if every node is faulty.
pub fn random_healthy<R: Rng + ?Sized>(cfg: &FaultConfig, rng: &mut R) -> NodeId {
    assert!(cfg.healthy_count() > 0, "no healthy nodes to sample");
    let total = cfg.cube().num_nodes();
    loop {
        let a = NodeId::new(rng.gen_range(0..total));
        if !cfg.node_faulty(a) {
            return a;
        }
    }
}

/// A uniformly random ordered pair of distinct healthy nodes.
///
/// # Panics
/// Panics if fewer than two healthy nodes exist.
pub fn random_pair<R: Rng + ?Sized>(cfg: &FaultConfig, rng: &mut R) -> (NodeId, NodeId) {
    assert!(cfg.healthy_count() >= 2, "need two healthy nodes");
    let s = random_healthy(cfg, rng);
    loop {
        let d = random_healthy(cfg, rng);
        if d != s {
            return (s, d);
        }
    }
}

/// A random healthy pair at exactly Hamming distance `h`, or `None` if
/// `max_attempts` samplings found none (dense fault regimes can make
/// some distances rare).
pub fn random_pair_at_distance<R: Rng + ?Sized>(
    cfg: &FaultConfig,
    h: u32,
    max_attempts: u32,
    rng: &mut R,
) -> Option<(NodeId, NodeId)> {
    let n = cfg.cube().dim() as u32;
    assert!(h >= 1 && h <= n);
    for _ in 0..max_attempts {
        let s = random_healthy(cfg, rng);
        // Flip a random h-subset of dimensions.
        let mut dims: Vec<u8> = (0..n as u8).collect();
        // Partial Fisher–Yates for the first h entries.
        for i in 0..h as usize {
            let j = rng.gen_range(i..dims.len());
            dims.swap(i, j);
        }
        let mut d = s;
        for &i in &dims[..h as usize] {
            d = d.neighbor(i);
        }
        if !cfg.node_faulty(d) {
            return Some((s, d));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cfg() -> FaultConfig {
        let cube = Hypercube::new(5);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, &["00000", "10101"]))
    }

    #[test]
    fn healthy_sampling_avoids_faults() {
        let cfg = cfg();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..200 {
            let a = random_healthy(&cfg, &mut rng);
            assert!(!cfg.node_faulty(a));
        }
    }

    #[test]
    fn pairs_are_distinct_and_healthy() {
        let cfg = cfg();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..200 {
            let (s, d) = random_pair(&cfg, &mut rng);
            assert_ne!(s, d);
            assert!(!cfg.node_faulty(s) && !cfg.node_faulty(d));
        }
    }

    #[test]
    fn distance_pairs_hit_exact_distance() {
        let cfg = cfg();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for h in 1..=5 {
            let (s, d) = random_pair_at_distance(&cfg, h, 1000, &mut rng).unwrap();
            assert_eq!(s.distance(d), h);
        }
    }

    #[test]
    fn impossible_distance_returns_none_gracefully() {
        // 1-cube with node 1 faulty: no healthy pair at distance 1.
        let cube = Hypercube::new(1);
        let mut f = FaultSet::new(cube);
        f.insert(NodeId::new(1));
        let cfg = FaultConfig::with_node_faults(cube, f);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert_eq!(random_pair_at_distance(&cfg, 1, 50, &mut rng), None);
    }
}
