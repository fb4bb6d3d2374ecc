//! `EXTENDED_GLOBAL_STATUS` (EGS) — safety levels in hypercubes with
//! both faulty nodes and faulty links (paper, §4.1).
//!
//! Nonfaulty nodes are split into
//!
//! * `N1` — nonfaulty nodes with no adjacent faulty link, and
//! * `N2` — nonfaulty nodes with at least one adjacent faulty link.
//!
//! Two views coexist. From the view of `N1` (and of the routing
//! algorithm at every other node), each `N2` node *is* faulty: it
//! declares itself 0-safe and the regular GS runs over `N1` with
//! `F ∪ N2` as the faulty set. An `N2` node, however, "considers
//! itself a regular healthy node but treats the other end node(s) of
//! its adjacent faulty link(s) as faulty": in the last round it runs
//! `NODE_STATUS` once over its neighbors' advertised levels (the far
//! ends of faulty links are themselves in `N2`, hence advertised 0).
//!
//! Both views live in the one map type. [`SafetyMap::compute_in`] takes
//! faulty links: [`SafetyMap::level`] is the advertised level, and
//! [`SafetyMap::own_level`] / [`SafetyMap::is_n2`] read a sorted list of
//! the `N2` nodes' own levels. This module classifies `N2` for it and
//! evaluates the last round. [`crate::run_gs`] runs EGS whenever its
//! faults include links: every node runs `NODE_STATUS` every round
//! (faulty links never deliver, so their far ends read 0), and an `N2`
//! node broadcasts 0 throughout. The paper has `N2` evaluate once, in
//! round `n − 1`; re-evaluating every round reaches the same map without
//! synchronized round counters. The §3 rule reads the source's own level
//! at `C1` and advertised levels everywhere else, so [`crate::route`]
//! and every other unicast entry point route §4.1's way on such a map.
//!
//! Footnote 3's special-fault semantics: an `N2` node is never used as
//! an intermediate, but a message destined *to* it is still delivered.
//! An `N2` destination advertises 0 and so, like a faulty one, is only
//! reachable as the final hop; the walk treats entry into it as
//! ordinary arrival because it is not in the node fault set, and a
//! final hop across a faulty link is marked undelivered there.

use crate::safety::{rule_level, Level, Readings, SafetyMap};
use hypersafe_topology::{BitDims, Faults, Topology};

/// The `N2` of `faults` over `space`, ascending, and `F ∪ N2` as fault
/// words, the faulty set the advertised levels are Definition 1's fixed
/// point over; `faulty` is `F`, fitted to `space`. `None` when `N2` is
/// empty, as it is without faulty links (one emptiness test, all a
/// generalized hypercube pays): the advertised levels are then GS's
/// over `F`.
pub(crate) fn split<T: Topology>(
    space: T,
    faults: &impl Faults<T>,
    faulty: &[u64],
) -> Option<(Vec<T::Node>, Vec<u64>)> {
    let links = faults.link_faults();
    if links.is_empty() {
        return None;
    }
    let mut effective = faulty.to_vec();
    for (lo, hi) in links
        .iter()
        .filter(|&(_, hi)| space.contains(T::from_raw(hi.raw())))
    {
        for a in [lo.raw(), hi.raw()] {
            effective[(a / 64) as usize] |= 1 << (a % 64);
        }
    }
    // N2 is the healthy ends: the bits the links added.
    let added = effective
        .iter()
        .zip(faulty)
        .map(|(e, f)| e & !f)
        .enumerate();
    let n2 =
        added.flat_map(|(w, m)| BitDims(m).map(move |j| T::from_raw(w as u64 * 64 + j as u64)));
    let n2: Vec<T::Node> = n2.collect();
    (!n2.is_empty()).then_some((n2, effective))
}

/// EGS's last round: each node of `n2` evaluates `NODE_STATUS` once
/// over `map`'s advertised levels (its faulty-link far ends are in `N2`
/// or `F`, so they advertise 0).
pub(crate) fn own_levels<T: Readings>(map: &SafetyMap<T>, n2: &[T::Node]) -> Vec<(T::Node, Level)> {
    n2.iter()
        .map(|&a| (a, rule_level(map.space(), map.store(), a)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gs::run_gs;
    use crate::unicast::route;
    use hypersafe_topology::{FaultConfig, FaultSet, Hypercube, LinkFaultSet, NodeId};

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
    }

    /// A Fig.-4-shaped instance: four faulty nodes and the faulty link
    /// (1000, 1001). The paper's figure is not machine-readable; the
    /// experiment harness (`repro fig4`) searches for fault sets
    /// consistent with every stated fact and this is one of them —
    /// see `hypersafe-experiments::fig4`.
    fn fig4_like() -> FaultConfig {
        let cube = Hypercube::new(4);
        let nodes = FaultSet::from_binary_strs(cube, &["1100", "0000", "0010", "0101"]);
        let mut links = LinkFaultSet::new();
        links.insert(n("1000"), n("1001"));
        FaultConfig::with_faults(cube, nodes, links)
    }

    /// Asserts that two maps agree in both views: advertised levels,
    /// the `N2` set and the own levels.
    fn assert_same_views(a: &SafetyMap, b: &SafetyMap, what: &str) {
        assert_eq!(a.store(), b.store(), "{what}");
        for v in a.space().nodes() {
            assert_eq!(a.is_n2(v), b.is_n2(v), "{what}: N2 at {v}");
            assert_eq!(a.own_level(v), b.own_level(v), "{what}: own level of {v}");
        }
    }

    /// `map`'s `N2` nodes with their own levels, ascending.
    fn overlay(map: &SafetyMap) -> Vec<(NodeId, Level)> {
        let n2 = map.space().nodes().filter(|&v| map.is_n2(v));
        n2.map(|v| (v, map.own_level(v))).collect()
    }

    #[test]
    fn n2_classification() {
        let cfg = fig4_like();
        let map = SafetyMap::compute(&cfg);
        assert!(map.is_n2(n("1000")));
        assert!(map.is_n2(n("1001")));
        assert!(!map.is_n2(n("1111")));
        // N2 nodes advertise 0 but hold their own nonzero view.
        assert_eq!(map.level(n("1000")), 0);
        assert_eq!(map.level(n("1001")), 0);
        assert!(map.own_level(n("1000")) > 0);
    }

    #[test]
    fn own_view_equals_advertised_for_n1() {
        let cfg = fig4_like();
        let map = SafetyMap::compute(&cfg);
        for a in cfg.cube().nodes() {
            if !map.is_n2(a) {
                assert_eq!(map.own_level(a), map.level(a), "{a}");
            }
        }
    }

    #[test]
    fn no_link_faults_degenerates_to_gs() {
        let cube = Hypercube::new(4);
        let nodes = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
        let cfg = FaultConfig::with_node_faults(cube, nodes);
        let dist = run_gs(cube, &cfg).map;
        assert_same_views(&dist, &SafetyMap::compute(&cfg), "no links");
        assert!(cfg.cube().nodes().all(|a| !dist.is_n2(a)));
    }

    #[test]
    fn message_to_n2_destination_is_delivered() {
        // Deliver to 1001 (an N2 node) from a node whose route's final
        // hop does not cross the faulty link.
        let cfg = fig4_like();
        let map = SafetyMap::compute(&cfg);
        let res = route(&cfg, &map, n("1011"), n("1001"));
        assert!(res.delivered, "{:?}", res);
        assert!(res.path.unwrap().is_optimal());
    }

    #[test]
    fn distributed_egs_matches_centralized() {
        // The message-passing protocol and the centralized evaluation
        // agree on the fig4-like instance and on random node+link fault
        // mixes over Q_4.
        let cfg = fig4_like();
        let run = run_gs(cfg.cube(), &cfg);
        assert_same_views(&SafetyMap::compute(&cfg), &run.map, "fig4-like");
        assert!(run.stats.messages > 0);

        // Randomized mixes: every pair of (node-mask, one faulty link).
        let cube = Hypercube::new(4);
        for seed in 0u64..200 {
            // Cheap LCG over masks and link choices, deterministic.
            let mask = (seed.wrapping_mul(0x9E3779B97F4A7C15) >> 40) & 0xFFFF;
            let a = NodeId::new(seed % 16);
            let dim = (seed / 16 % 4) as u8;
            let b = a.neighbor(dim);
            let mut nodes = FaultSet::new(cube);
            for i in 0..16u64 {
                if (mask >> i) & 1 == 1 && NodeId::new(i) != a && NodeId::new(i) != b {
                    nodes.insert(NodeId::new(i));
                }
            }
            let mut links = LinkFaultSet::new();
            links.insert(a, b);
            let cfg = FaultConfig::with_faults(cube, nodes, links);
            let dist = run_gs(cube, &cfg).map;
            assert_same_views(&SafetyMap::compute(&cfg), &dist, &format!("seed {seed}"));
        }
    }

    #[test]
    fn every_single_link_fault_of_small_cubes() {
        // Every node-fault set of Q1–Q3 and every Q4 node-fault set of
        // size ≤ 2, each with every single faulty link: the centralized
        // map equals the lock-step protocol's in both views, the
        // protocol passes its own checks, the map passes the fixed-point
        // check, and a planted wrong advertised level or own level is
        // reported.
        let mut cases = 0u32;
        for n in 1u8..=4 {
            let cube = Hypercube::new(n);
            let links: Vec<(NodeId, NodeId)> = cube
                .nodes()
                .flat_map(|a| (0..n).map(move |d| (a, a.neighbor(d))))
                .filter(|(a, b)| a < b)
                .collect();
            let masks = (0u64..1 << cube.num_nodes()).filter(|m| n < 4 || m.count_ones() <= 2);
            for mask in masks {
                let nodes = cube.nodes().filter(|a| (mask >> a.raw()) & 1 == 1);
                let nodes = FaultSet::from_nodes(cube, nodes);
                for &(a, b) in &links {
                    let mut link = LinkFaultSet::new();
                    link.insert(a, b);
                    let cfg = FaultConfig::with_faults(cube, nodes.clone(), link);
                    let what = format!("Q{n} mask {mask:#b} link {a}-{b}");
                    let map = SafetyMap::compute_in(cube, &cfg);
                    let run = run_gs(cube, &cfg);
                    assert_eq!(run.check, Ok(()), "{what}");
                    assert_same_views(&map, &run.map, &what);
                    assert_eq!(map.check_fixed_point(&cfg), None, "{what}");

                    // A wrong advertised level makes its node violate,
                    // so the first violator is at or below it.
                    let v = NodeId::new(mask % cube.num_nodes());
                    let mut store = map.store().clone();
                    store.set(v.raw(), (map.level(v) + 1) % (n + 1));
                    let bad = SafetyMap::from_store(cube, store).with_n2(overlay(&map));
                    let first = bad.check_fixed_point(&cfg);
                    assert!(first.is_some_and(|f| f <= v), "{what}: planted at {v}");
                    // A wrong own level leaves the advertised levels
                    // right, so its node is the only violator.
                    for (i, &(v, l)) in overlay(&map).iter().enumerate() {
                        let mut n2 = overlay(&map);
                        n2[i].1 = (l + 1) % (n + 1);
                        let bad = SafetyMap::from_store(cube, map.store().clone()).with_n2(n2);
                        assert_eq!(bad.check_fixed_point(&cfg), Some(v), "{what}: own at {v}");
                    }
                    cases += 1;
                }
            }
        }
        // 1·4 + 4·16 + 12·256 on Q1–Q3, 32·137 on Q4.
        assert_eq!(cases, 4 + 64 + 3072 + 4384);
    }

    #[test]
    fn n2_source_routes_with_own_level() {
        let cfg = fig4_like();
        let map = SafetyMap::compute(&cfg);
        let s = n("1001");
        let own = map.own_level(s);
        assert!(own >= 1);
        // Any destination within own-level distance routes optimally.
        for d in cfg.cube().nodes() {
            let h = s.distance(d);
            if h == 0 || h > own as u32 {
                continue;
            }
            if cfg.node_faulty(d) || map.is_n2(d) && d != s {
                continue; // own-view guarantee excludes special faults
            }
            let res = route(&cfg, &map, s, d);
            assert!(res.delivered, "{s} → {d}: {res:?}");
        }
    }
}
