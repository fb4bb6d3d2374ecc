//! Differential tests for the §3 routing rule's views that the walk's
//! own tests do not reach.
//!
//! * GH: the distributed protocol (`run_unicast` over a GH map, each
//!   actor reading its clique peers' levels) must take the centralized
//!   `route`'s path hop for hop, on random generalized hypercubes with
//!   radices 2–4, up to four dimensions and random node faults.
//! * EGS: on a map of a cube with faulty links, `route` reads the
//!   source's own level from the map's list of `N2` own levels. The
//!   reference below is the earlier implementation, which cloned the
//!   packed map and wrote the source's own level into the copy; the two
//!   must agree decision for decision and path for path on Q1–Q10 with
//!   mixed node and link faults. The distributed protocol
//!   (`run_unicast`) takes the same map and must deliver along
//!   `route`'s trail between healthy endpoints.
//!
//! `PROPTEST_SEED` widens the reach (CI runs seeds 1–8 in release).

use hypersafe_core::{route, route_traced, run_unicast, RouteResult, SafetyMap};
use hypersafe_simkit::{RunOptions, Trace};
use hypersafe_topology::{
    FaultConfig, FaultSet, GeneralizedHypercube, GhNode, Hypercube, LinkFaultSet, NodeId, Topology,
};
use proptest::prelude::*;

/// The clone-based EGS router: a copy of the advertised store with the
/// source's own level written in, routed by the node-fault walk.
fn route_egs_by_clone(cfg: &FaultConfig, map: &SafetyMap, s: NodeId, d: NodeId) -> RouteResult {
    let mut view = map.store().clone();
    view.set(s.raw(), map.own_level(s));
    let view = SafetyMap::from_store(cfg.cube(), view);
    route_traced(cfg, &view, s, d, &mut Trace::disabled())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gh_distributed_matches_centralized(
        radices in proptest::collection::vec(2u16..=4, 1..=4),
        faults in proptest::collection::vec(any::<u64>(), 0..8),
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..16),
    ) {
        let gh = GeneralizedHypercube::new(&radices);
        let mut set = gh.fault_set();
        for &f in &faults {
            set.insert(NodeId::new(f % gh.num_nodes()));
        }
        let healthy: Vec<GhNode> =
            gh.nodes().filter(|a| !set.contains(NodeId::new(a.raw()))).collect();
        prop_assume!(!healthy.is_empty());
        let map = SafetyMap::compute_in(&gh, &set);
        for &(s, d) in &pairs {
            let s = healthy[(s % healthy.len() as u64) as usize];
            let d = healthy[(d % healthy.len() as u64) as usize];
            let central = route(&set, &map, s, d);
            let dist = run_unicast(&set, &map, s, d, 1, RunOptions::default()).0;
            let pair = format!("{radices:?} {} → {}", gh.format(s), gh.format(d));
            prop_assert_eq!(central.decision, dist.decision, "{}", pair);
            let central_trail = central.path.filter(|_| central.delivered);
            let central_trail = central_trail.map(|p| p.nodes().to_vec());
            prop_assert_eq!(central_trail, dist.trail, "{}", pair);
        }
    }

    #[test]
    fn egs_overlay_matches_the_cloned_map(
        n in 1u8..=10,
        node_faults in proptest::collection::vec(any::<u64>(), 0..12),
        link_faults in proptest::collection::vec((any::<u64>(), any::<u8>()), 0..10),
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..24),
    ) {
        let cube = Hypercube::new(n);
        let nodes = cube.num_nodes();
        let mut links = LinkFaultSet::new();
        // Sources on faulty links (N2 nodes) are where the views differ.
        let mut sources = Vec::new();
        for &(a, dim) in &link_faults {
            let a = NodeId::new(a % nodes);
            links.insert(a, a.neighbor(dim % n));
            sources.push(a);
        }
        let set = FaultSet::from_nodes(cube, node_faults.iter().map(|&a| NodeId::new(a % nodes)));
        let cfg = FaultConfig::with_faults(cube, set, links);
        let map = SafetyMap::compute(&cfg);
        sources.extend(pairs.iter().map(|&(s, _)| NodeId::new(s % nodes)));
        for (&s, &(_, d)) in sources.iter().zip(pairs.iter().cycle()) {
            let d = NodeId::new(d % nodes);
            let got = route(&cfg, &map, s, d);
            let want = route_egs_by_clone(&cfg, &map, s, d);
            prop_assert_eq!(got.decision, want.decision, "Q{} {} → {}", n, s, d);
            prop_assert_eq!(got.delivered, want.delivered, "Q{} {} → {}", n, s, d);
            prop_assert_eq!(
                got.path.as_ref().map(|p| p.nodes().to_vec()),
                want.path.as_ref().map(|p| p.nodes().to_vec()),
                "Q{} {} → {}", n, s, d
            );
            // A faulty endpoint has no actor, so the protocol is only
            // comparable between healthy ones.
            if cfg.node_faulty(s) || cfg.node_faulty(d) {
                continue;
            }
            let dist = run_unicast(&cfg, &map, s, d, 1, RunOptions::default()).0;
            prop_assert_eq!(got.decision, dist.decision, "Q{} {} → {}", n, s, d);
            let trail = got.path.filter(|_| got.delivered).map(|p| p.nodes().to_vec());
            prop_assert_eq!(trail, dist.trail, "Q{} {} → {}", n, s, d);
        }
    }
}
