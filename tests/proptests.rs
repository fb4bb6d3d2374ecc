//! Property-based tests over randomized fault configurations: the
//! paper's theorems as invariants, plus representation round-trips.

use hypersafe::baselines::{LeeHayesStatus, WuFernandezStatus};
use hypersafe::safety::{
    check_never_fails_under_n_faults, check_property1, check_property2, check_theorem2,
    check_theorem3, run_gs, run_gs_async, NavVector, SafetyMap,
};
use hypersafe::simkit::RunOptions;
use hypersafe::topology::{
    connectivity, disjoint, FaultConfig, FaultSet, GeneralizedHypercube, Hypercube, NodeId,
    Topology,
};
use proptest::prelude::*;

/// Strategy: an (n, fault set) pair with n in 3..=7 and up to
/// `max_faults(n)` distinct faulty nodes.
fn faulty_cube(max_ratio: f64) -> impl Strategy<Value = (Hypercube, FaultSet)> {
    (3u8..=7).prop_flat_map(move |n| {
        let cube = Hypercube::new(n);
        let total = cube.num_nodes();
        let max_faults = ((total as f64 * max_ratio) as usize).max(1);
        proptest::collection::btree_set(0..total, 0..=max_faults).prop_map(move |set| {
            let faults = FaultSet::from_nodes(cube, set.into_iter().map(NodeId::new));
            (cube, faults)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: sync, async, centralized and constructive computations
    /// agree on arbitrary instances.
    #[test]
    fn theorem1_all_computations_agree((cube, faults) in faulty_cube(0.3)) {
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let central = SafetyMap::compute(&cfg);
        prop_assert_eq!(central.check_fixed_point(&cfg), None);
        let constructive = SafetyMap::compute_constructive(&cfg);
        prop_assert_eq!(central.store(), constructive.store());
        let sync = run_gs(cfg.cube(), &cfg);
        prop_assert_eq!(central.store(), sync.map.store());
        let (run, _) = run_gs_async(&cfg, 3, RunOptions::default());
        prop_assert_eq!(central.store(), run.map.store());
    }

    /// Theorem 2 + Property 1 on arbitrary instances.
    #[test]
    fn theorem2_and_property1((cube, faults) in faulty_cube(0.25)) {
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let map = SafetyMap::compute(&cfg);
        prop_assert_eq!(check_theorem2(&cfg, &map), Ok(()));
        prop_assert_eq!(check_property1(&cfg), Ok(()));
    }

    /// Theorem 3 delivery/length guarantees on arbitrary instances.
    #[test]
    fn theorem3_route_contracts((cube, faults) in faulty_cube(0.2)) {
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let map = SafetyMap::compute(&cfg);
        prop_assert_eq!(check_theorem3(&cfg, &map), Ok(()));
    }

    /// Property 2 and the no-failure guarantee in the < n faults regime.
    #[test]
    fn property2_regime((cube, faults) in faulty_cube(0.12)) {
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let map = SafetyMap::compute(&cfg);
        prop_assert_eq!(check_property2(&cfg, &map), Ok(()));
        if cfg.node_faults().len() < cube.dim() as usize && cube.dim() <= 5 {
            prop_assert_eq!(check_never_fails_under_n_faults(&cfg, &map), Ok(()));
        }
    }

    /// §2.3 containment chain on arbitrary instances.
    #[test]
    fn safe_set_containment((cube, faults) in faulty_cube(0.3)) {
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let lh = LeeHayesStatus::compute(&cfg);
        let wf = WuFernandezStatus::compute(&cfg);
        let sl = SafetyMap::compute(&cfg);
        for a in cube.nodes() {
            if lh.is_safe(a) {
                prop_assert!(wf.is_safe(a));
            }
            if wf.is_safe(a) {
                prop_assert!(sl.is_safe(a));
            }
        }
    }

    /// Theorem 4 on randomized *disconnected* instances.
    #[test]
    fn theorem4_safe_sets_empty_when_disconnected((cube, faults) in faulty_cube(0.35)) {
        let cfg = FaultConfig::with_node_faults(cube, faults);
        if connectivity::is_disconnected(&cfg) {
            prop_assert!(LeeHayesStatus::compute(&cfg).fully_unsafe());
            prop_assert!(WuFernandezStatus::compute(&cfg).fully_unsafe());
        }
    }

    /// Navigation vectors: hop algebra is self-inverse and terminates
    /// exactly at the destination.
    #[test]
    fn navigation_vector_algebra(s in 0u64..256, d in 0u64..256) {
        let s = NodeId::new(s);
        let d = NodeId::new(d);
        let nv = NavVector::new(s, d);
        prop_assert_eq!(nv.remaining(), s.distance(d));
        prop_assert_eq!(nv.destination(s), d);
        for i in 0..8u8 {
            prop_assert_eq!(nv.after_hop(i).after_hop(i), nv);
        }
        // Crossing every preferred dimension exactly once lands at d.
        let mut at = s;
        let mut v = nv;
        for i in nv.preferred_dims() {
            at = at.neighbor(i);
            v = v.after_hop(i);
        }
        prop_assert!(v.is_done());
        prop_assert_eq!(at, d);
    }

    /// Disjoint-path fan: n internally-disjoint paths for any pair.
    #[test]
    fn disjoint_paths_fan(n in 2u8..=6, s_raw in 0u64..64, d_raw in 0u64..64) {
        let cube = Hypercube::new(n);
        let mask = cube.num_nodes() - 1;
        let s = NodeId::new(s_raw & mask);
        let d = NodeId::new(d_raw & mask);
        prop_assume!(s != d);
        let paths = disjoint::disjoint_paths(cube, s, d);
        prop_assert_eq!(paths.len(), n as usize);
        prop_assert!(disjoint::pairwise_internally_disjoint(&paths));
        for p in &paths {
            prop_assert_eq!(p.start(), s);
            prop_assert_eq!(p.end(), d);
            prop_assert!(p.is_optimal() || p.is_suboptimal());
        }
    }

    /// GH with all radices 2 behaves exactly like the binary cube.
    #[test]
    fn gh_binary_reduction((cube, faults) in faulty_cube(0.25)) {
        let n = cube.dim();
        let gh = GeneralizedHypercube::new(&vec![2u16; n as usize]);
        let ghmap = SafetyMap::compute_in(&gh, &faults);
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let qmap = SafetyMap::compute(&cfg);
        prop_assert_eq!(ghmap.to_vec(), qmap.to_vec());
    }

    /// BFS ground truth: the safety-level route is never shorter than
    /// the true shortest path, and equals it when optimal.
    #[test]
    fn routes_respect_bfs_ground_truth((cube, faults) in faulty_cube(0.15)) {
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let map = SafetyMap::compute(&cfg);
        let healthy: Vec<NodeId> = cfg.healthy_nodes().collect();
        for &s in healthy.iter().take(8) {
            for &d in healthy.iter().rev().take(8) {
                if s == d { continue; }
                let res = hypersafe::safety::route(&cfg, &map, s, d);
                if res.delivered {
                    let p = res.path.unwrap();
                    let best = connectivity::shortest_path_len(&cfg, s, d).unwrap();
                    prop_assert!(p.len() >= best);
                    if p.is_optimal() {
                        prop_assert_eq!(p.len(), best);
                    }
                }
            }
        }
    }
}
