//! Generators for *disconnecting* fault sets (paper §3.3).
//!
//! Disconnected hypercubes are the regime where the paper's scheme is
//! the only applicable one (Theorem 4 kills every safe-node approach).
//! The minimum cut of `Q_n` is `n`, achieved by cutting off a single
//! corner; richer patterns isolate a `k`-subcube.

use hypersafe_topology::{
    connectivity, FaultConfig, FaultSet, Hypercube, NodeId, Subcube, Topology,
};
use rand::Rng;

/// Faults all `n` neighbors of `corner`, isolating it: the canonical
/// minimal disconnection (Fig. 3 is a rotated instance of this shape
/// plus one fault moved outward).
pub fn corner_cut(cube: Hypercube, corner: NodeId) -> FaultSet {
    FaultSet::from_nodes(cube, cube.neighbours(corner))
}

/// Faults the boundary of the `k`-dimensional subcube containing
/// `seed` spanned by dimensions `0..k`: every node at Hamming distance
/// 1 outside the subcube. Costs `(n − k) · 2ᵏ` faults and disconnects
/// the subcube's `2ᵏ` nodes from the rest.
pub fn subcube_cut(cube: Hypercube, seed: NodeId, k: u8) -> FaultSet {
    assert!(k < cube.dim());
    let free: u64 = (1u64 << k) - 1;
    let sc = Subcube {
        fixed_ones: seed.raw() & !free,
        free_mask: free,
    };
    let mut f = FaultSet::new(cube);
    for a in sc.nodes() {
        for (b, dim) in cube.neighbours(a).zip(0..) {
            if dim >= k {
                f.insert(b);
            }
        }
    }
    f
}

/// Random disconnecting fault set: isolates a random corner, then
/// sprinkles `extra` additional uniform faults outside the cut.
pub fn random_disconnecting<R: Rng + ?Sized>(
    cube: Hypercube,
    extra: usize,
    rng: &mut R,
) -> FaultSet {
    let corner = NodeId::new(rng.gen_range(0..cube.num_nodes()));
    let mut f = corner_cut(cube, corner);
    let mut guard = 0;
    while f.len() < cube.dim() as usize + extra {
        let v = NodeId::new(rng.gen_range(0..cube.num_nodes()));
        if v != corner {
            f.insert(v);
        }
        guard += 1;
        if guard > 10_000 {
            break;
        }
    }
    f
}

/// Asserts (in tests/experiments) that a generated set really
/// disconnects the cube.
pub fn is_disconnecting(cube: Hypercube, faults: &FaultSet) -> bool {
    let cfg = FaultConfig::with_node_faults(cube, faults.clone());
    connectivity::is_disconnected(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn corner_cut_isolates_the_corner() {
        let cube = Hypercube::new(5);
        let corner = NodeId::new(0b10110);
        let f = corner_cut(cube, corner);
        assert_eq!(f.len(), 5);
        assert!(is_disconnecting(cube, &f));
        let cfg = FaultConfig::with_node_faults(cube, f);
        let comps = connectivity::components(&cfg);
        assert!(comps.contains(&vec![corner]));
    }

    #[test]
    fn subcube_cut_isolates_the_subcube() {
        let cube = Hypercube::new(5);
        let seed = NodeId::new(0b11000);
        let f = subcube_cut(cube, seed, 2);
        assert_eq!(f.len(), 3 * 4, "(n − k) · 2^k faults");
        assert!(is_disconnecting(cube, &f));
        let cfg = FaultConfig::with_node_faults(cube, f);
        let comps = connectivity::components(&cfg);
        assert!(
            comps.iter().any(|c| c.len() == 4),
            "the 2-subcube is one part"
        );
    }

    #[test]
    fn random_disconnecting_disconnects() {
        let cube = Hypercube::new(6);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..20 {
            let f = random_disconnecting(cube, 3, &mut rng);
            assert!(f.len() >= 6);
            assert!(is_disconnecting(cube, &f));
        }
    }
}
