//! Unicasting in generalized hypercubes (paper §4.2, Theorem 2′).
//!
//! "Routing in `GH_n` is exactly the same as in a regular hypercube,
//! because all the nodes are directly connected along the same
//! dimension": a preferred hop jumps straight to the node carrying the
//! destination's digit in that dimension, resolving the coordinate in
//! one step. The source feasibility conditions mirror `C1`/`C2`/`C3`
//! with the per-neighbor eligibility the paper's Fig. 5 walk uses (a
//! specific preferred neighbor is eligible iff its own level is at
//! least the remaining distance minus one).
//!
//! The rule is [`crate::unicast`]'s one copy, reading the GH's
//! [`SafetyMap`] through the same level view as the cube's map. The map
//! carries its GH, so the entry points take no separate topology and a
//! map cannot be read over a GH it does not describe.

use crate::safety::SafetyMap;
use crate::unicast::{rule_at_hop, rule_at_source, Decision, SourceStep, TieBreak};
use hypersafe_topology::{FaultSet, GeneralizedHypercube, GhNode, NodeId, Topology};

/// Result of routing one GH unicast.
#[derive(Clone, Debug)]
pub struct GhRouteResult {
    /// The source decision; its `first_dim` is the dimension of the
    /// first hop.
    pub decision: Decision,
    /// Node sequence traversed (present unless `Failure`).
    pub nodes: Option<Vec<GhNode>>,
    /// Whether the message reached `d` without entering a faulty node
    /// (other than `d` itself).
    pub delivered: bool,
}

impl GhRouteResult {
    /// Number of hops of the realized route.
    pub fn hops(&self) -> Option<u32> {
        self.nodes.as_ref().map(|p| (p.len() - 1) as u32)
    }
}

/// Source feasibility for a GH unicast over the GH `map` describes. An
/// endpoint outside that GH is a [`Decision::Failure`].
pub fn gh_source_decision(
    map: &SafetyMap<&GeneralizedHypercube>,
    s: GhNode,
    d: GhNode,
) -> Decision {
    rule_at_source(map, s, d, TieBreak::LowestDim)
        .by_dim(|(i, _)| i)
        .decision()
}

/// Routes one GH unicast to completion over the GH `map` describes,
/// judging the physical outcome against `faults` while steering purely
/// by safety levels.
pub fn gh_route(
    map: &SafetyMap<&GeneralizedHypercube>,
    faults: &FaultSet,
    s: GhNode,
    d: GhNode,
) -> GhRouteResult {
    let step = rule_at_source(map, s, d, TieBreak::LowestDim);
    let decision = step.by_dim(|(i, _)| i).decision();
    let mut port = match step {
        SourceStep::AlreadyThere => {
            return GhRouteResult {
                decision,
                nodes: Some(vec![s]),
                delivered: !faults.contains(NodeId::new(s.raw())),
            }
        }
        SourceStep::Failure => {
            return GhRouteResult {
                decision,
                nodes: None,
                delivered: false,
            }
        }
        SourceStep::Leave(_, p) => p,
    };
    let mut at = s;
    let mut nodes = vec![s];
    let delivered = loop {
        at = map.space().across(at, port);
        nodes.push(at);
        if faults.contains(NodeId::new(at.raw())) {
            break at == d;
        }
        match rule_at_hop(map, at, d, TieBreak::LowestDim) {
            Some(p) => port = p,
            None => break true,
        }
    };
    GhRouteResult {
        decision,
        nodes: Some(nodes),
        delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Fig.-5-shaped instance of GH(2, 3, 2) with four faulty nodes,
    /// found by exhaustive search over all C(12, 4) fault sets for the
    /// one consistent with the paper's narration (`repro fig5` rederives
    /// it): exactly four 3-safe nodes, 011 and 100 faulty, the dim-2
    /// neighbor 110 of the source at level 1 (ineligible), and the
    /// narrated optimal route 010 → 000 → 001 → 101.
    fn fig5_like() -> (GeneralizedHypercube, FaultSet) {
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let f = gh.fault_set_from_strs(&["011", "100", "111", "121"]);
        (gh, f)
    }

    #[test]
    fn preferred_port_resolves_digit() {
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let s = gh.parse("010").unwrap();
        let d = gh.parse("101").unwrap();
        let ports: Vec<(u8, u16)> = (&gh).preferred(s, d).collect();
        assert_eq!(ports, vec![(0, 1), (1, 0), (2, 1)]);
        assert_eq!(gh.format(gh.with_digit(s, 1, 0)), "000");
    }

    #[test]
    fn route_in_fault_free_gh_is_optimal() {
        let gh = GeneralizedHypercube::from_product(&[3, 4, 2]);
        let f = gh.fault_set();
        let map = SafetyMap::compute_gh(&gh, &f);
        for s in gh.nodes() {
            for d in gh.nodes() {
                let res = gh_route(&map, &f, s, d);
                assert!(res.delivered);
                assert_eq!(
                    res.hops(),
                    gh.distance(s, d),
                    "{} → {}",
                    gh.format(s),
                    gh.format(d)
                );
            }
        }
    }

    #[test]
    fn fig5_like_walk_010_to_101() {
        let (gh, f) = fig5_like();
        let map = SafetyMap::compute_gh(&gh, &f);
        let s = gh.parse("010").unwrap();
        let d = gh.parse("101").unwrap();
        assert_eq!(gh.distance(s, d), Some(3));
        let res = gh_route(&map, &f, s, d);
        assert!(matches!(res.decision, Decision::Optimal { .. }));
        assert!(res.delivered);
        assert_eq!(res.hops(), Some(3));
        // The realized route is exactly the paper's narrated walk:
        // 010 → 000 (dim 1, ring/clique hop) → 001 (dim 0) → 101 (dim 2).
        let walk: Vec<String> = res.nodes.unwrap().iter().map(|&a| gh.format(a)).collect();
        assert_eq!(walk, vec!["010", "000", "001", "101"]);
        // Exactly four safe nodes, as the paper states.
        assert_eq!(map.safe_nodes().len(), 4);
        // The dim-2 neighbor of the source is at level 1 — "less than
        // 3 − 1 = 2 and again is not eligible".
        assert_eq!(map.level(gh.parse("110").unwrap()), 1);
    }

    #[test]
    fn unsafe_nonfaulty_nodes_have_safe_neighbor_fig5() {
        // §4.2: "each unsafe but nonfaulty node has a safe neighbor" in
        // the Fig. 5 instance.
        let (gh, f) = fig5_like();
        let map = SafetyMap::compute_gh(&gh, &f);
        for a in gh.nodes() {
            if f.contains(NodeId::new(a.raw())) || map.is_safe(a) {
                continue;
            }
            assert!(
                gh.neighbours(a).any(|b| map.is_safe(b)),
                "{} lacks a safe neighbor",
                gh.format(a)
            );
        }
    }

    #[test]
    fn failure_reported_when_surrounded() {
        // GH(2,2): a 4-cycle. Fault both neighbors of node (0,0).
        let gh = GeneralizedHypercube::new(&[2, 2]);
        let mut f = gh.fault_set();
        f.insert(NodeId::new(gh.node_from_digits(&[1, 0]).raw()));
        f.insert(NodeId::new(gh.node_from_digits(&[0, 1]).raw()));
        let map = SafetyMap::compute_gh(&gh, &f);
        let s = gh.node_from_digits(&[0, 0]);
        let d = gh.node_from_digits(&[1, 1]);
        let res = gh_route(&map, &f, s, d);
        assert_eq!(res.decision, Decision::Failure);
        assert!(!res.delivered);
    }

    #[test]
    fn already_there() {
        let (gh, f) = fig5_like();
        let map = SafetyMap::compute_gh(&gh, &f);
        let s = gh.parse("000").unwrap();
        let res = gh_route(&map, &f, s, s);
        assert_eq!(res.decision, Decision::AlreadyThere);
        assert!(res.delivered);
        assert_eq!(res.hops(), Some(0));
    }
}
