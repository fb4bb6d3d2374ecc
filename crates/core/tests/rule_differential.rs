//! Differential tests for the §3 routing rule's views that the walk's
//! own tests do not reach.
//!
//! * GH: the distributed protocol (`run_gh_unicast`, each actor
//!   reading its peer table) must take the centralized `gh_route`'s
//!   path hop for hop, on random generalized hypercubes with radices
//!   2–4, up to four dimensions and random node faults.
//! * EGS: `route_egs` reads the advertised map through a source
//!   overlay. The reference below is the earlier implementation, which
//!   cloned the packed map and wrote the source's own level into the
//!   copy; the two must agree decision for decision and path for path
//!   on Q1–Q10 with mixed node and link faults.
//!
//! `PROPTEST_SEED` widens the reach (CI runs seeds 1–8 in release).

use hypersafe_core::{
    gh_route, route_egs, route_traced, run_gh_unicast, ExtendedSafetyMap, GhSafetyMap, RouteResult,
    SafetyMap,
};
use hypersafe_simkit::{RunOptions, Trace};
use hypersafe_topology::{
    FaultConfig, FaultSet, GeneralizedHypercube, GhNode, Hypercube, LinkFaultSet, NodeId,
};
use proptest::prelude::*;

/// The clone-based EGS router: a copy of the advertised store with the
/// source's own level written in, routed by the node-fault walk.
fn route_egs_by_clone(
    cfg: &FaultConfig,
    emap: &ExtendedSafetyMap,
    s: NodeId,
    d: NodeId,
) -> RouteResult {
    let mut view = emap.advertised().store().clone();
    view.set(s.raw(), emap.own_level(s));
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
        let map = GhSafetyMap::compute(&gh, &set);
        for &(s, d) in &pairs {
            let s = healthy[(s % healthy.len() as u64) as usize];
            let d = healthy[(d % healthy.len() as u64) as usize];
            let central = gh_route(&gh, &map, &set, s, d);
            let dist = run_gh_unicast(&gh, &map, &set, s, d, 1, RunOptions::default()).0;
            let pair = format!("{radices:?} {} → {}", gh.format(s), gh.format(d));
            prop_assert_eq!(central.decision, dist.decision, "{}", pair);
            let central_trail = central.delivered.then_some(central.nodes).flatten();
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
        let emap = ExtendedSafetyMap::compute(&cfg);
        sources.extend(pairs.iter().map(|&(s, _)| NodeId::new(s % nodes)));
        for (&s, &(_, d)) in sources.iter().zip(pairs.iter().cycle()) {
            let d = NodeId::new(d % nodes);
            let got = route_egs(&cfg, &emap, s, d);
            let want = route_egs_by_clone(&cfg, &emap, s, d);
            prop_assert_eq!(got.decision, want.decision, "Q{} {} → {}", n, s, d);
            prop_assert_eq!(got.delivered, want.delivered, "Q{} {} → {}", n, s, d);
            prop_assert_eq!(
                got.path.as_ref().map(|p| p.nodes().to_vec()),
                want.path.as_ref().map(|p| p.nodes().to_vec()),
                "Q{} {} → {}", n, s, d
            );
        }
    }
}
