//! Fault-injection generators.
//!
//! Three spatial patterns drive the experiments: **uniform** random
//! faults (the Fig. 2 methodology), **clustered** faults (contiguous in
//! Gray order — stress for safety levels, which encode fault
//! *distribution*, not just count), and **subcube** faults (a whole
//! `k`-dimensional subcube dies, e.g. a failed board). Link-fault
//! injection supports the §4.1 experiments.

use hypersafe_topology::{gray, FaultSet, Hypercube, LinkFaultSet, NodeId, Subcube, Topology};
use rand::seq::SliceRandom;
use rand::Rng;

/// `m` distinct faulty nodes chosen uniformly at random.
///
/// # Panics
/// Panics if `m` exceeds the node count.
pub fn uniform_faults<R: Rng + ?Sized>(cube: Hypercube, m: usize, rng: &mut R) -> FaultSet {
    let total = cube.num_nodes();
    assert!(m as u64 <= total, "cannot fault {m} of {total} nodes");
    let mut f = FaultSet::new(cube);
    // Rejection sampling is fine for the fault densities the paper
    // studies (m ≪ 2ⁿ); fall back to a shuffle when dense. On big
    // cubes the shuffle would materialize every node id (8 MiB at
    // n = 20), so past 2¹⁶ nodes dense draws use Floyd's sampling
    // instead: O(m) work, no O(2ⁿ) scratch. Cubes up to n = 16 keep
    // the shuffle so every pre-existing golden's RNG stream is
    // byte-identical.
    if (m as u64) * 4 <= total {
        while f.len() < m {
            f.insert(NodeId::new(rng.gen_range(0..total)));
        }
    } else if total > 65536 {
        for j in (total - m as u64)..total {
            let t = rng.gen_range(0..=j);
            if !f.insert(NodeId::new(t)) {
                f.insert(NodeId::new(j));
            }
        }
    } else {
        let mut all: Vec<u64> = (0..total).collect();
        all.shuffle(rng);
        for &v in all.iter().take(m) {
            f.insert(NodeId::new(v));
        }
    }
    f
}

/// `m` faulty nodes forming a contiguous run of the Gray-order
/// Hamiltonian cycle starting at a random offset — a maximally
/// clustered fault region.
pub fn clustered_faults<R: Rng + ?Sized>(cube: Hypercube, m: usize, rng: &mut R) -> FaultSet {
    let total = cube.num_nodes();
    assert!(m as u64 <= total);
    let start = rng.gen_range(0..total);
    let mut f = FaultSet::new(cube);
    for k in 0..m as u64 {
        f.insert(gray::gray((start + k) % total));
    }
    f
}

/// Faults an entire random `k`-dimensional subcube (`2ᵏ` nodes).
pub fn subcube_faults<R: Rng + ?Sized>(cube: Hypercube, k: u8, rng: &mut R) -> FaultSet {
    assert!(k <= cube.dim());
    let n = cube.dim();
    // Choose k free dimensions and fix the rest randomly.
    let mut dims: Vec<u8> = (0..n).collect();
    dims.shuffle(rng);
    let free: u64 = dims[..k as usize].iter().map(|&i| 1u64 << i).sum();
    let fixed_ones = rng.gen_range(0..cube.num_nodes()) & !free;
    let sc = Subcube {
        fixed_ones,
        free_mask: free,
    };
    let mut f = FaultSet::new(cube);
    for a in sc.nodes() {
        f.insert(a);
    }
    f
}

/// `k` distinct faulty links chosen uniformly at random.
pub fn uniform_link_faults<R: Rng + ?Sized>(
    cube: Hypercube,
    k: usize,
    rng: &mut R,
) -> LinkFaultSet {
    assert!(k as u64 <= cube.num_links());
    let mut lf = LinkFaultSet::new();
    while lf.len() < k {
        let a = NodeId::new(rng.gen_range(0..cube.num_nodes()));
        let dim = rng.gen_range(0..cube.dim());
        lf.insert(a, a.neighbor(dim));
    }
    lf
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
    fn uniform_counts_and_determinism() {
        let cube = Hypercube::new(7);
        for m in [0, 1, 6, 40, 100] {
            let f = uniform_faults(cube, m, &mut rng(9));
            assert_eq!(f.len(), m);
        }
        let a = uniform_faults(cube, 12, &mut rng(1));
        let b = uniform_faults(cube, 12, &mut rng(1));
        assert_eq!(a, b, "same seed, same faults");
    }

    #[test]
    fn uniform_dense_path() {
        let cube = Hypercube::new(4);
        let f = uniform_faults(cube, 12, &mut rng(2));
        assert_eq!(f.len(), 12);
    }

    #[test]
    fn uniform_dense_path_on_a_big_cube_uses_floyd_sampling() {
        // n = 17 crosses the 2¹⁶ threshold: a dense request must come
        // back exact and deterministic without the O(2ⁿ) shuffle.
        let cube = Hypercube::new(17);
        let m = 40_000; // 4·m > 2¹⁷ → dense branch
        let a = uniform_faults(cube, m, &mut rng(6));
        assert_eq!(a.len(), m);
        let b = uniform_faults(cube, m, &mut rng(6));
        assert_eq!(a, b, "same seed, same faults");
    }

    #[test]
    fn clustered_faults_are_connected_in_gray_order() {
        let cube = Hypercube::new(6);
        let f = clustered_faults(cube, 7, &mut rng(3));
        assert_eq!(f.len(), 7);
        // The faulty nodes form a path in the cube (consecutive Gray
        // codewords are adjacent), so the faulty subgraph is connected.
        let mut nodes: Vec<NodeId> = f.iter().collect();
        nodes.sort_by_key(|&a| gray::gray_rank(a));
        // Ranks are contiguous mod 2^n.
        let ranks: Vec<u64> = nodes.iter().map(|&a| gray::gray_rank(a)).collect();
        let total = cube.num_nodes();
        let is_contig =
            (0..total).any(|start| (0..7u64).all(|k| ranks.contains(&((start + k) % total))));
        assert!(is_contig);
    }

    #[test]
    fn subcube_faults_form_a_subcube() {
        let cube = Hypercube::new(6);
        let f = subcube_faults(cube, 3, &mut rng(4));
        assert_eq!(f.len(), 8);
        // XOR-closure check: members differ only within a fixed 3-dim mask.
        let nodes: Vec<u64> = f.iter().map(NodeId::raw).collect();
        let base = nodes[0];
        let mask = nodes.iter().fold(0u64, |m, &v| m | (v ^ base));
        assert_eq!(mask.count_ones(), 3);
        for &v in &nodes {
            assert_eq!(v & !mask, base & !mask);
        }
    }

    #[test]
    fn link_faults_counts() {
        let cube = Hypercube::new(5);
        let lf = uniform_link_faults(cube, 9, &mut rng(5));
        assert_eq!(lf.len(), 9);
        for (a, b) in lf.iter() {
            assert_eq!(a.distance(b), 1);
        }
    }

    #[test]
    fn zero_faults_everywhere() {
        let cube = Hypercube::new(3);
        assert!(uniform_faults(cube, 0, &mut rng(0)).is_empty());
        assert!(clustered_faults(cube, 0, &mut rng(0)).is_empty());
        assert!(uniform_link_faults(cube, 0, &mut rng(0)).is_empty());
    }
}
