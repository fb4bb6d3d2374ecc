//! Property tests for the baseline routing schemes: every returned
//! path must be physically valid, respect its advertised bound, and
//! DFS must match the connectivity oracle.

use hypersafe_baselines::{
    cw_route, default_ttl, dfs_route, fd_route, free_dimensions, lh_route, progressive_route,
    sidetrack_route, LeeHayesStatus, WuFernandezStatus,
};
use hypersafe_topology::{connectivity, FaultConfig, FaultSet, Hypercube, NodeId, Topology};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn instance() -> impl Strategy<Value = (FaultConfig, Vec<NodeId>)> {
    (3u8..=6).prop_flat_map(|n| {
        let cube = Hypercube::new(n);
        let total = cube.num_nodes();
        proptest::collection::btree_set(0..total, 0..(total / 3) as usize).prop_map(move |set| {
            let faults = FaultSet::from_nodes(cube, set.into_iter().map(NodeId::new));
            let cfg = FaultConfig::with_node_faults(cube, faults);
            let healthy: Vec<NodeId> = cfg.healthy_nodes().collect();
            (cfg, healthy)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lee–Hayes routing: any returned path is traversable and within
    /// H + 2.
    #[test]
    fn lh_paths_valid((cfg, healthy) in instance()) {
        prop_assume!(healthy.len() >= 2);
        let st = LeeHayesStatus::compute(&cfg);
        for &s in healthy.iter().take(6) {
            for &d in healthy.iter().rev().take(6) {
                if s == d { continue; }
                if let Some(p) = lh_route(&cfg, &st, s, d) {
                    prop_assert!(p.traversable(&cfg, false));
                    prop_assert_eq!(p.start(), s);
                    prop_assert_eq!(p.end(), d);
                    prop_assert!(p.len() <= s.distance(d) + 2);
                }
            }
        }
    }

    /// Chiu–Wu routing: any returned path is traversable and within
    /// H + 4; never returned on a fully-unsafe cube.
    #[test]
    fn cw_paths_valid((cfg, healthy) in instance()) {
        prop_assume!(healthy.len() >= 2);
        let st = WuFernandezStatus::compute(&cfg);
        for &s in healthy.iter().take(6) {
            for &d in healthy.iter().rev().take(6) {
                if s == d { continue; }
                let r = cw_route(&cfg, &st, s, d);
                if st.fully_unsafe() {
                    prop_assert_eq!(r, None);
                } else if let Some(p) = r {
                    prop_assert!(p.traversable(&cfg, false));
                    prop_assert!(p.len() <= s.distance(d) + 4);
                }
            }
        }
    }

    /// DFS delivers exactly when the endpoints are connected, and its
    /// walk only crosses healthy nodes.
    #[test]
    fn dfs_matches_connectivity_oracle((cfg, healthy) in instance()) {
        prop_assume!(healthy.len() >= 2);
        for &s in healthy.iter().take(5) {
            for &d in healthy.iter().rev().take(5) {
                let r = dfs_route(&cfg, s, d).expect("healthy endpoints");
                prop_assert_eq!(r.delivered, connectivity::connected(&cfg, s, d));
                for node in &r.walk {
                    prop_assert!(!cfg.node_faulty(*node));
                }
                if r.delivered {
                    prop_assert_eq!(*r.walk.last().unwrap(), d);
                }
            }
        }
    }

    /// Progressive and free-dimension routing: returned paths are
    /// traversable; success implies ending at the destination.
    #[test]
    fn progressive_and_fd_paths_valid((cfg, healthy) in instance()) {
        prop_assume!(healthy.len() >= 2);
        for &s in healthy.iter().take(5) {
            for &d in healthy.iter().rev().take(5) {
                if s == d { continue; }
                let ttl = default_ttl(&cfg, s, d);
                let (p, ok) = progressive_route(&cfg, s, d, ttl).expect("healthy");
                prop_assert!(p.traversable(&cfg, false));
                if ok { prop_assert_eq!(p.end(), d); }
                let (p, ok) = fd_route(&cfg, s, d, ttl).expect("healthy");
                prop_assert!(p.traversable(&cfg, false));
                if ok { prop_assert_eq!(p.end(), d); }
            }
        }
    }

    /// Sidetracking with a fixed seed: valid walks; determinism.
    #[test]
    fn sidetrack_paths_valid((cfg, healthy) in instance(), seed in any::<u64>()) {
        prop_assume!(healthy.len() >= 2);
        let s = healthy[0];
        let d = *healthy.last().unwrap();
        prop_assume!(s != d);
        let ttl = 8 * cfg.cube().dim() as u32;
        let mut rng1 = ChaCha8Rng::seed_from_u64(seed);
        let mut rng2 = ChaCha8Rng::seed_from_u64(seed);
        let (p1, ok1) = sidetrack_route(&cfg, s, d, ttl, &mut rng1).expect("healthy");
        let (p2, ok2) = sidetrack_route(&cfg, s, d, ttl, &mut rng2).expect("healthy");
        prop_assert_eq!(p1.nodes(), p2.nodes());
        prop_assert_eq!(ok1, ok2);
        prop_assert!(p1.traversable(&cfg, false));
    }

    /// Free dimensions: a dimension is reported free iff no fault pair
    /// straddles it (checked against a brute-force oracle).
    #[test]
    fn free_dimensions_oracle((cfg, _healthy) in instance()) {
        let cube = cfg.cube();
        let free = free_dimensions(&cfg);
        for i in 0..cube.dim() {
            let straddled = cfg.node_faults().iter().any(|f| cfg.node_faults().contains(f.neighbor(i)));
            prop_assert_eq!(free.contains(&i), !straddled, "dim {}", i);
        }
    }

    /// Safe-set sizes are antitone in the fault set: adding a fault
    /// never grows the LH or WF safe set.
    #[test]
    fn safe_sets_antitone((cfg, healthy) in instance()) {
        prop_assume!(!healthy.is_empty());
        let lh_before = LeeHayesStatus::compute(&cfg).safe_nodes().len();
        let wf_before = WuFernandezStatus::compute(&cfg).safe_nodes().len();
        let mut bigger = cfg.clone();
        bigger.node_faults_mut().insert(healthy[0]);
        let lh_after = LeeHayesStatus::compute(&bigger).safe_nodes().len();
        let wf_after = WuFernandezStatus::compute(&bigger).safe_nodes().len();
        prop_assert!(lh_after <= lh_before);
        prop_assert!(wf_after <= wf_before);
    }
}
