//! Property tests for the topology substrate: address algebra, Gray
//! codes, subcube membership, fault-set model checking, connectivity
//! invariants.

use hypersafe_topology::{
    connectivity, e, FaultConfig, FaultSet, Hypercube, LinkFaultSet, NodeId, Subcube, Topology,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn dim() -> impl Strategy<Value = u8> {
    3u8..=8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// XOR address algebra: involution, distance symmetry, triangle
    /// inequality (Hamming metric).
    #[test]
    fn address_algebra(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (NodeId::new(a), NodeId::new(b), NodeId::new(c));
        prop_assert_eq!(a.xor(b), b.xor(a));
        prop_assert_eq!(a.xor(b).xor(b), a);
        prop_assert_eq!(a.distance(b), b.distance(a));
        prop_assert_eq!(a.distance(a), 0);
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c));
    }

    /// e(k) flips exactly bit k.
    #[test]
    fn unit_vectors(a in any::<u64>(), k in 0u8..60) {
        let a = NodeId::new(a);
        prop_assert_eq!(a.xor(e(k)), a.neighbor(k));
        prop_assert_eq!(a.neighbor(k).distance(a), 1);
    }

    /// differing_dims enumerates exactly the set bits of the XOR.
    #[test]
    fn differing_dims_complete(a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (NodeId::new(a), NodeId::new(b));
        let dims: Vec<u8> = a.differing_dims(b).collect();
        prop_assert_eq!(dims.len() as u32, a.distance(b));
        let mut rebuilt = a;
        for d in dims {
            rebuilt = rebuilt.neighbor(d);
        }
        prop_assert_eq!(rebuilt, b);
    }

    /// Binary rendering round-trips for in-range addresses.
    #[test]
    fn binary_roundtrip(n in dim(), raw in any::<u64>()) {
        let a = NodeId::new(raw & ((1 << n) - 1));
        prop_assert_eq!(NodeId::from_binary(&a.to_binary(n)), Some(a));
    }

    /// FaultSet behaves exactly like a HashSet<u64> under a random
    /// insert/remove script (model-based check of the bitset).
    #[test]
    fn faultset_model_check(n in dim(), script in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..200)) {
        let cube = Hypercube::new(n);
        let mask = cube.num_nodes() - 1;
        let mut sut = FaultSet::new(cube);
        let mut model: HashSet<u64> = HashSet::new();
        for (insert, raw) in script {
            let v = raw & mask;
            if insert {
                prop_assert_eq!(sut.insert(NodeId::new(v)), model.insert(v));
            } else {
                prop_assert_eq!(sut.remove(NodeId::new(v)), model.remove(&v));
            }
            prop_assert_eq!(sut.len(), model.len());
        }
        let listed: HashSet<u64> = sut.iter().map(NodeId::raw).collect();
        prop_assert_eq!(listed, model);
    }

    /// Gray code: rank inversion and unit adjacency.
    #[test]
    fn gray_code_props(i in 0u64..(1 << 20)) {
        use hypersafe_topology::gray::{gray, gray_rank};
        prop_assert_eq!(gray_rank(gray(i)), i);
        prop_assert_eq!(gray(i).distance(gray(i + 1)), 1);
    }

    /// Subcube membership matches its node enumeration exactly.
    #[test]
    fn subcube_members(n in 3u8..=6, fixed in any::<u64>(), free in any::<u64>()) {
        let mask = (1u64 << n) - 1;
        let free_mask = free & mask;
        let fixed_ones = fixed & mask & !free_mask;
        let sc = Subcube { fixed_ones, free_mask };
        let cube = Hypercube::new(n);
        let members: HashSet<u64> = sc.nodes().map(NodeId::raw).collect();
        prop_assert_eq!(members.len() as u64, sc.len());
        for a in cube.nodes() {
            prop_assert_eq!(sc.contains(a), members.contains(&a.raw()), "{}", a);
        }
    }

    /// Components partition the healthy nodes; BFS distance is finite
    /// exactly within a component and ≥ the Hamming distance.
    #[test]
    fn connectivity_invariants(n in 3u8..=6, faults in proptest::collection::btree_set(0u64..64, 0..20)) {
        let cube = Hypercube::new(n);
        let mask = cube.num_nodes() - 1;
        let f = FaultSet::from_nodes(cube, faults.into_iter().map(|v| NodeId::new(v & mask)));
        let cfg = FaultConfig::with_node_faults(cube, f);
        let comps = connectivity::components(&cfg);
        // Partition: every healthy node in exactly one component.
        let mut seen: HashSet<u64> = HashSet::new();
        for c in &comps {
            for a in c {
                prop_assert!(!cfg.node_faulty(*a));
                prop_assert!(seen.insert(a.raw()), "node in two components");
            }
        }
        prop_assert_eq!(seen.len() as u64, cfg.healthy_count());
        // Distances.
        for c in comps.iter().take(2) {
            let src = c[0];
            let dist = connectivity::bfs_distances(&cfg, src);
            for a in cfg.healthy_nodes() {
                let in_same = c.contains(&a);
                let reached = dist[a.raw() as usize] != connectivity::UNREACHED;
                prop_assert_eq!(in_same, reached);
                if reached {
                    prop_assert!(dist[a.raw() as usize] >= src.distance(a));
                }
            }
        }
    }

    /// Sentinel hygiene on disconnected cubes: no BFS distance other
    /// than [`connectivity::UNREACHED`] itself ever gets near the
    /// sentinel, so `da + 1` arithmetic provably never ran on an
    /// unreached cell (a leak would plant `0` after wraparound, or a
    /// huge near-MAX value — both are caught here), and unreached is
    /// exactly "outside the source's component".
    #[test]
    fn bfs_sentinel_never_enters_arithmetic(
        n in 3u8..=6,
        faults in proptest::collection::btree_set(0u64..64, 8..28),
        link_seeds in proptest::collection::vec((0u64..64, 0u8..6), 0..10),
        src_seed in 0u64..64,
    ) {
        let cube = Hypercube::new(n);
        let mask = cube.num_nodes() - 1;
        let f = FaultSet::from_nodes(cube, faults.into_iter().map(|v| NodeId::new(v & mask)));
        let mut lf = LinkFaultSet::new();
        for (a, d) in link_seeds {
            let a = NodeId::new(a & mask);
            lf.insert(a, a.neighbor(d % n));
        }
        let cfg = FaultConfig::with_faults(cube, f, lf);
        let src = NodeId::new(src_seed & mask);
        let dist = connectivity::bfs_distances(&cfg, src);
        // Longest simple path bounds every true distance; anything
        // between that and the sentinel is a poisoned value.
        let diameter_bound = cube.num_nodes() as u32;
        let comps = connectivity::components(&cfg);
        let src_comp = comps.iter().find(|c| c.contains(&src));
        for a in cube.nodes() {
            let v = dist[a.raw() as usize];
            if v == connectivity::UNREACHED {
                let same = src_comp.is_some_and(|c| c.contains(&a));
                prop_assert!(!same, "{a} reachable from {src} but marked UNREACHED");
            } else {
                prop_assert!(v < diameter_bound, "poisoned distance {v} at {a}");
                prop_assert!(
                    src_comp.is_some_and(|c| c.contains(&a)),
                    "{a} has finite distance but sits outside {src}'s component"
                );
            }
        }
        // shortest_path's backwalk (`dc - 1`) must agree with the
        // distance array end-to-end, reached or not.
        for a in cube.nodes() {
            let p = connectivity::shortest_path(&cfg, src, a);
            match p {
                Some(p) => prop_assert_eq!(p.len() as u32 - 1, dist[a.raw() as usize]),
                None => prop_assert_eq!(dist[a.raw() as usize], connectivity::UNREACHED),
            }
        }
    }

    /// A link fault never disconnects more than a node fault would:
    /// removing one link keeps the cube connected for n ≥ 2.
    #[test]
    fn single_link_fault_keeps_connectivity(n in 2u8..=7, a in any::<u64>(), d in 0u8..7) {
        let cube = Hypercube::new(n);
        let a = NodeId::new(a & (cube.num_nodes() - 1));
        let d = d % n;
        let mut cfg = FaultConfig::fault_free(cube);
        let mut lf = LinkFaultSet::new();
        lf.insert(a, a.neighbor(d));
        *cfg.link_faults_mut() = lf;
        prop_assert!(connectivity::is_connected(&cfg));
    }
}
