//! Percolation-regime fault densities and giant-component routing.
//!
//! The paper's experiments stay below `n` faults, where the cube is
//! (almost) always connected. "Routing Complexity of Faulty Networks"
//! studies the other regime: *independent* random failures with
//! per-node / per-link probability `p`. For `Q_n`, deleting each edge
//! independently with probability `q` keeps a giant connected
//! component asymptotically almost surely while `1 − q > 1/n` (the
//! percolation threshold for hypercubes); past it the cube shatters.
//! In that regime routing *within the giant component* is the
//! scenario, not the exception — a router scored on all-pairs delivery
//! would be graded on pairs no algorithm could connect.
//!
//! Generators here are Bernoulli (each element fails independently),
//! unlike the exact-count samplers in [`crate::fault_gen`]; densities
//! are expressed in basis points (1 bp = 0.01%) so experiment params
//! stay integer and CSV-stable.

use hypersafe_topology::{
    connectivity, FaultConfig, FaultSet, Hypercube, LinkFaultSet, NodeId, Topology,
};
use rand::Rng;

/// The (asymptotic) link-percolation threshold of `Q_n`: failing each
/// link with probability above `1 − 1/n` disconnects the cube a.a.s.;
/// below it a giant component survives. Returned in basis points of
/// failure probability (e.g. `n = 8` → 8750 bp = 87.5%).
pub fn link_threshold_bp(n: u8) -> u32 {
    assert!(n >= 1);
    10_000 - 10_000 / u32::from(n)
}

/// Bernoulli node faults: every node fails independently with
/// probability `p_bp` basis points (`p_bp / 10_000`).
pub fn bernoulli_node_faults<R: Rng + ?Sized>(cube: Hypercube, p_bp: u32, rng: &mut R) -> FaultSet {
    assert!(p_bp <= 10_000, "probability above 1");
    let mut f = FaultSet::new(cube);
    for a in cube.nodes() {
        if rng.gen_range(0..10_000) < p_bp {
            f.insert(a);
        }
    }
    f
}

/// Bernoulli link faults: every (undirected) link fails independently
/// with probability `p_bp` basis points.
pub fn bernoulli_link_faults<R: Rng + ?Sized>(
    cube: Hypercube,
    p_bp: u32,
    rng: &mut R,
) -> LinkFaultSet {
    assert!(p_bp <= 10_000, "probability above 1");
    let mut lf = LinkFaultSet::new();
    for a in cube.nodes() {
        for dim in 0..cube.dim() {
            let b = a.neighbor(dim);
            // Visit each undirected link once, from its lower end.
            if a.raw() < b.raw() && rng.gen_range(0..10_000) < p_bp {
                lf.insert(a, b);
            }
        }
    }
    lf
}

/// The giant (largest) connected component of the faulty cube, sorted
/// ascending; empty when every node is faulty. Ties break toward the
/// component with the smallest member, keeping the choice
/// deterministic.
pub fn giant_component(cfg: &FaultConfig) -> Vec<NodeId> {
    connectivity::components(cfg)
        .into_iter()
        .max_by(|a, b| a.len().cmp(&b.len()).then_with(|| b[0].cmp(&a[0])))
        .unwrap_or_default()
}

/// Fraction of *healthy* nodes inside the giant component, in basis
/// points (10 000 = all of them). The order parameter of the
/// percolation transition; 0 when no node is healthy.
pub fn giant_fraction_bp(cfg: &FaultConfig) -> u32 {
    let healthy = cfg.healthy_count();
    if healthy == 0 {
        return 0;
    }
    let giant = giant_component(cfg).len() as u64;
    (giant * 10_000 / healthy) as u32
}

/// `m` distinct-endpoint pairs sampled uniformly from the giant
/// component — the percolation-regime routing workload. Returns an
/// empty vector when the giant component has fewer than two nodes
/// (nothing is routable).
pub fn giant_component_pairs<R: Rng + ?Sized>(
    cfg: &FaultConfig,
    m: usize,
    rng: &mut R,
) -> Vec<(NodeId, NodeId)> {
    let giant = giant_component(cfg);
    if giant.len() < 2 {
        return Vec::new();
    }
    (0..m)
        .map(|_| {
            let s = giant[rng.gen_range(0..giant.len())];
            loop {
                let d = giant[rng.gen_range(0..giant.len())];
                if d != s {
                    return (s, d);
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn threshold_is_one_minus_one_over_n() {
        assert_eq!(link_threshold_bp(1), 0);
        assert_eq!(link_threshold_bp(2), 5_000);
        assert_eq!(link_threshold_bp(8), 8_750);
        assert_eq!(link_threshold_bp(10), 9_000);
    }

    #[test]
    fn bernoulli_extremes_and_determinism() {
        let cube = Hypercube::new(6);
        assert!(bernoulli_node_faults(cube, 0, &mut rng(1)).is_empty());
        assert_eq!(
            bernoulli_node_faults(cube, 10_000, &mut rng(1)).len() as u64,
            cube.num_nodes()
        );
        assert!(bernoulli_link_faults(cube, 0, &mut rng(1)).is_empty());
        assert_eq!(
            bernoulli_link_faults(cube, 10_000, &mut rng(1)).len() as u64,
            cube.num_links()
        );
        let a = bernoulli_node_faults(cube, 2_000, &mut rng(7));
        let b = bernoulli_node_faults(cube, 2_000, &mut rng(7));
        assert_eq!(a, b, "same seed, same faults");
        // ~20% of 64 nodes with wide slack.
        assert!((2..=30).contains(&a.len()), "got {}", a.len());
    }

    #[test]
    fn giant_component_is_the_largest_and_sorted() {
        // Fig. 3 disconnection: 1110 isolated from an 11-node bulk.
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0110", "1010", "1100", "1111"]),
        );
        let g = giant_component(&cfg);
        assert_eq!(g.len(), 11);
        assert!(!g.contains(&NodeId::new(0b1110)));
        assert!(g.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
        assert_eq!(giant_fraction_bp(&cfg), 11 * 10_000 / 12);
    }

    #[test]
    fn fault_free_giant_is_everything() {
        let cube = Hypercube::new(5);
        let cfg = FaultConfig::fault_free(cube);
        assert_eq!(giant_component(&cfg).len() as u64, cube.num_nodes());
        assert_eq!(giant_fraction_bp(&cfg), 10_000);
    }

    #[test]
    fn pairs_stay_inside_the_giant_component() {
        let cube = Hypercube::new(6);
        let mut r = rng(11);
        // Past-threshold link density: the cube shatters, but pairs
        // must still come from one (the giant) component.
        let lf = bernoulli_link_faults(cube, 8_000, &mut r);
        let mut cfg = FaultConfig::fault_free(cube);
        *cfg.link_faults_mut() = lf;
        let giant = giant_component(&cfg);
        let pairs = giant_component_pairs(&cfg, 50, &mut r);
        if giant.len() < 2 {
            assert!(pairs.is_empty());
        } else {
            assert_eq!(pairs.len(), 50);
            for (s, d) in pairs {
                assert_ne!(s, d);
                assert!(giant.contains(&s) && giant.contains(&d));
                assert!(connectivity::connected(&cfg, s, d));
            }
        }
    }

    #[test]
    fn all_faulty_degenerates_gracefully() {
        let cube = Hypercube::new(3);
        let cfg =
            FaultConfig::with_node_faults(cube, bernoulli_node_faults(cube, 10_000, &mut rng(0)));
        assert!(giant_component(&cfg).is_empty());
        assert_eq!(giant_fraction_bp(&cfg), 0);
        assert!(giant_component_pairs(&cfg, 10, &mut rng(0)).is_empty());
    }
}
