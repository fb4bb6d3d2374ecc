//! Property tests for hypersafe-core beyond the workspace-level suite:
//! broadcasting, EGS dual views, GH routing, dynamic rerouting.

use hypersafe_core::{
    broadcast, route, route_dynamic, run_gs, run_gs_reliable, run_unicast_lossy, Decision,
    DynamicOutcome, FaultEvent, LossyOutcome, SafetyMap,
};
use hypersafe_simkit::{ChannelModel, ReliableConfig, RunOptions};
use hypersafe_topology::{
    connectivity, FaultConfig, FaultSet, GeneralizedHypercube, GhNode, Hypercube, LinkFaultSet,
    NodeId, Topology,
};
use proptest::prelude::*;

fn faulty_cube(max_ratio: f64) -> impl Strategy<Value = FaultConfig> {
    (3u8..=7).prop_flat_map(move |n| {
        let cube = Hypercube::new(n);
        let total = cube.num_nodes();
        let max_faults = ((total as f64 * max_ratio) as usize).max(1);
        proptest::collection::btree_set(0..total, 0..=max_faults).prop_map(move |set| {
            FaultConfig::with_node_faults(
                cube,
                FaultSet::from_nodes(cube, set.into_iter().map(NodeId::new)),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Broadcast guarantee: a safe source always reaches every
    /// nonfaulty node, using exactly one message per non-source node
    /// of the cube.
    #[test]
    fn safe_broadcast_always_complete(cfg in faulty_cube(0.25)) {
        let map = SafetyMap::compute(&cfg);
        for s in cfg.healthy_nodes().filter(|&a| map.is_safe(a)).take(4) {
            let r = broadcast(&cfg, &map, s);
            prop_assert!(r.complete(cfg.node_faults()), "source {}", s);
            prop_assert_eq!(r.messages, cfg.cube().num_nodes() - 1);
            prop_assert!(r.steps <= cfg.cube().dim() as u32);
        }
    }

    /// Broadcast under the < n faults regime is complete from *every*
    /// healthy source (via Property 2 relays).
    #[test]
    fn broadcast_complete_under_n_faults(cfg in faulty_cube(0.1)) {
        prop_assume!(cfg.node_faults().len() < cfg.cube().dim() as usize);
        let map = SafetyMap::compute(&cfg);
        for s in cfg.healthy_nodes().take(6) {
            let r = broadcast(&cfg, &map, s);
            prop_assert!(r.complete(cfg.node_faults()), "source {}", s);
        }
    }

    /// EGS invariants on random node+link fault mixes: N1 views agree
    /// with plain GS over the effective fault set; N2 advertises 0; the
    /// lock-step run passes its checks and reaches the same map in both
    /// views; routing never loses an accepted message except across
    /// faulty links at the last hop.
    #[test]
    fn egs_views_consistent(
        cfg in faulty_cube(0.15),
        link_picks in proptest::collection::vec((any::<u64>(), 0u8..7), 0..4),
    ) {
        let cube = cfg.cube();
        let mut links = LinkFaultSet::new();
        for (raw, d) in link_picks {
            let a = NodeId::new(raw & (cube.num_nodes() - 1));
            links.insert(a, a.neighbor(d % cube.dim()));
        }
        let cfg = FaultConfig::with_faults(cube, cfg.node_faults().clone(), links);
        let map = SafetyMap::compute_in(cube, &cfg);
        let run = run_gs(cube, &cfg);
        prop_assert_eq!(&run.check, &Ok(()));
        prop_assert_eq!(run.map.store(), map.store());
        for a in cube.nodes() {
            prop_assert_eq!(
                (run.map.is_n2(a), run.map.own_level(a)),
                (map.is_n2(a), map.own_level(a)),
                "{}", a
            );
            if map.is_n2(a) {
                prop_assert!(!cfg.node_faulty(a));
                prop_assert_eq!(map.level(a), 0);
            } else {
                prop_assert_eq!(map.own_level(a), map.level(a));
            }
        }
        // Routing spot-check.
        let healthy: Vec<NodeId> = cfg.healthy_nodes().collect();
        for &s in healthy.iter().take(4) {
            for &d in healthy.iter().rev().take(4) {
                if s == d { continue; }
                let res = route(&cfg, &map, s, d);
                if let Some(p) = &res.path {
                    if res.delivered {
                        prop_assert!(p.traversable(&cfg, true), "{} → {}", s, d);
                    }
                }
            }
        }
    }

    /// GH routing: an Optimal decision delivers in exactly H hops over
    /// nonfaulty nodes; a Suboptimal one in H + 2.
    #[test]
    fn gh_routing_contracts(
        radices in proptest::collection::vec(2u16..=4, 2..=4),
        fault_picks in proptest::collection::btree_set(0u64..256, 0..6),
    ) {
        let gh = GeneralizedHypercube::new(&radices);
        let mut f = gh.fault_set();
        for v in fault_picks {
            f.insert(NodeId::new(v % gh.num_nodes()));
        }
        let map = SafetyMap::compute_in(&gh, &f);
        let healthy: Vec<GhNode> = gh
            .nodes()
            .filter(|a| !f.contains(NodeId::new(a.raw())))
            .collect();
        for &s in healthy.iter().take(5) {
            for &d in healthy.iter().rev().take(5) {
                let res = route(&f, &map, s, d);
                let hops = res.path.as_ref().map(|p| p.len());
                match res.decision {
                    Decision::Optimal { .. } => {
                        prop_assert!(res.delivered, "{} → {}", gh.format(s), gh.format(d));
                        prop_assert_eq!(hops, gh.distance(s, d));
                    }
                    Decision::Suboptimal { .. } => {
                        prop_assert!(res.delivered);
                        prop_assert_eq!(hops, gh.distance(s, d).map(|h| h + 2));
                    }
                    Decision::Failure => prop_assert!(!res.delivered),
                    Decision::AlreadyThere => prop_assert_eq!(hops, Some(0)),
                }
            }
        }
    }

    /// Dynamic routing with arrivals that never hit the endpoints:
    /// outcome is always one of the defined terminals, the walk is
    /// physically consistent, and a Delivered walk ends at d having
    /// avoided every node that was faulty *when it was entered*.
    #[test]
    fn dynamic_route_terminates_consistently(
        cfg in faulty_cube(0.1),
        arrivals in proptest::collection::vec((1u32..6, any::<u64>()), 0..4),
    ) {
        let cube = cfg.cube();
        let healthy: Vec<NodeId> = cfg.healthy_nodes().collect();
        prop_assume!(healthy.len() >= 2);
        let s = healthy[0];
        let d = *healthy.last().unwrap();
        prop_assume!(s != d);
        let mut events: Vec<FaultEvent> = arrivals
            .into_iter()
            .map(|(hop, raw)| FaultEvent {
                after_hop: hop,
                node: NodeId::new(raw & (cube.num_nodes() - 1)),
            })
            .filter(|e| e.node != s && e.node != d && !cfg.node_faulty(e.node))
            .collect();
        events.sort_by_key(|e| e.after_hop);
        events.dedup_by_key(|e| e.node);
        let run = route_dynamic(cube, cfg.node_faults(), &events, s, d);
        match run.outcome {
            DynamicOutcome::Delivered => {
                prop_assert_eq!(run.path.end(), d);
                prop_assert!(!run.path.has_repeats() || run.restabilizations > 0);
            }
            DynamicOutcome::AbortedAt(at) => {
                prop_assert_eq!(run.path.end(), at);
                prop_assert!(run.restabilizations >= 1 || connectivity_broken(&cfg, s, d));
            }
            DynamicOutcome::HolderFailed(h) => prop_assert_eq!(run.path.end(), h),
            DynamicOutcome::DestinationFailed => {}
            DynamicOutcome::InfeasibleAtSource => prop_assert!(run.path.is_empty()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Loss-robustness acceptance property (ISSUE): for any seeded
    /// fault set and per-link loss rate in {1%, 5%, 20%}, distributed
    /// GS over the reliable layer goes quiescent at exactly the
    /// centralized `SafetyMap`, and distributed unicast delivers
    /// whenever the centralized `route` says the pair is feasible —
    /// with zero duplicate copies ever surfaced to actors.
    #[test]
    fn lossy_protocols_match_lossless_semantics(
        cfg in small_faulty_cube(0.2),
        seed in any::<u64>(),
    ) {
        let central = SafetyMap::compute(&cfg);
        let healthy: Vec<NodeId> = cfg.healthy_nodes().collect();
        for (k, &loss) in [0.01, 0.05, 0.2].iter().enumerate() {
            let ch = ChannelModel::lossy(seed ^ k as u64, loss).with_jitter(2);
            let (run, _) = run_gs_reliable(&cfg, ReliableConfig::default(), 1, lossy(ch));
            prop_assert!(run.quiescent, "GS budget exhausted at loss {}", loss);
            prop_assert_eq!(run.links_abandoned, 0);
            prop_assert_eq!(run.map.store(), central.store(), "loss {}", loss);

            // Unicast over the converged map: feasible pairs deliver.
            for (i, &s) in healthy.iter().enumerate().take(3) {
                let d = healthy[healthy.len() - 1 - i];
                if s == d || !route(&cfg, &central, s, d).delivered {
                    continue;
                }
                let ch = ChannelModel::lossy(seed ^ (k as u64) << 8 ^ i as u64, loss)
                    .with_jitter(2)
                    .with_duplication(0.05);
                let (run, _) = run_unicast_lossy(
                    &cfg, &central, s, d, 1, ReliableConfig::default(), lossy(ch),
                );
                prop_assert!(
                    matches!(run.outcome, LossyOutcome::Delivered { .. }),
                    "{} → {} at loss {}: {:?}", s, d, loss, run.outcome
                );
                prop_assert_eq!(run.duplicate_deliveries, 0);
                if loss > 0.0 {
                    // Overhead counters are plumbed through.
                    prop_assert!(run.stats.acked > 0);
                }
            }
        }
    }
}

/// A lossy channel with a 5M-event budget.
fn lossy(channel: ChannelModel) -> RunOptions {
    RunOptions {
        channel: Some(channel),
        max_events: 5_000_000,
        ..RunOptions::default()
    }
}

/// Like [`faulty_cube`] but capped at 5 dimensions: the reliable-layer
/// runs simulate every retransmission timer, so the budget matters.
fn small_faulty_cube(max_ratio: f64) -> impl Strategy<Value = FaultConfig> {
    (3u8..=5).prop_flat_map(move |n| {
        let cube = Hypercube::new(n);
        let total = cube.num_nodes();
        let max_faults = ((total as f64 * max_ratio) as usize).max(1);
        proptest::collection::btree_set(0..total, 0..=max_faults).prop_map(move |set| {
            FaultConfig::with_node_faults(
                cube,
                FaultSet::from_nodes(cube, set.into_iter().map(NodeId::new)),
            )
        })
    })
}

/// Helper: whether s and d were already separated in the *initial*
/// configuration (an abort without restabilization is then expected).
fn connectivity_broken(cfg: &FaultConfig, s: NodeId, d: NodeId) -> bool {
    !connectivity::connected(cfg, s, d)
}
