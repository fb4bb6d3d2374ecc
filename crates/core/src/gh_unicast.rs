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

use crate::gh_safety::{cliques, GhSafetyMap};
use crate::level_store::LevelStore;
use crate::safety::Level;
use crate::unicast::{
    rule_at_hop, rule_at_source, Decision, LevelView, PortSpace, SourceStep, TieBreak,
};
use hypersafe_topology::{FaultSet, GeneralizedHypercube, GhNode, NodeId};

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

/// A generalized hypercube as a [`PortSpace`]: a port is a
/// `(dimension, digit)` pair, naming the clique peer that carries
/// `digit` in that dimension. The preferred port along a differing
/// dimension is the peer with the destination's digit; the spare ports
/// are every peer along an agreeing dimension.
impl PortSpace for &GeneralizedHypercube {
    type Node = GhNode;
    type Port = (u8, u16);

    fn ceiling(self) -> Level {
        self.dim()
    }

    fn distance(self, at: GhNode, d: GhNode) -> Option<u32> {
        (self.contains(at) && self.contains(d)).then(|| GeneralizedHypercube::distance(self, at, d))
    }

    fn preferred(self, at: GhNode, d: GhNode) -> impl Iterator<Item = (u8, u16)> + Clone {
        (0..self.dim())
            .map(move |i| (i, self.digit(d, i)))
            .filter(move |&(i, v)| self.digit(at, i) != v)
    }

    fn spare(self, at: GhNode, d: GhNode) -> impl Iterator<Item = (u8, u16)> + Clone {
        (0..self.dim())
            .filter(move |&i| self.digit(at, i) == self.digit(d, i))
            .flat_map(move |i| {
                let own = self.digit(at, i);
                (0..self.radix(i))
                    .filter(move |&v| v != own)
                    .map(move |v| (i, v))
            })
    }

    fn across(self, a: GhNode, (i, v): (u8, u16)) -> GhNode {
        self.with_digit(a, i, v)
    }

    fn raw(a: GhNode) -> u64 {
        a.raw()
    }

    fn neighbours(self, a: GhNode) -> impl Iterator<Item = GhNode> {
        cliques(self, a).flat_map(move |c| c.peers(a))
    }

    fn along(self, a: GhNode, i: u8) -> impl Iterator<Item = GhNode> {
        self.neighbors_along(a, i)
    }

    fn readings(self, levels: &LevelStore, a: GhNode) -> impl Iterator<Item = Level> {
        cliques(self, a).map(move |c| c.min_level(levels, a))
    }
}

/// The centralized GH map as the §3 rule reads it.
struct GhMapView<'a> {
    gh: &'a GeneralizedHypercube,
    map: &'a GhSafetyMap,
}

impl<'a> LevelView for GhMapView<'a> {
    type Space = &'a GeneralizedHypercube;

    fn space(&self) -> &'a GeneralizedHypercube {
        self.gh
    }

    fn own_level(&self, at: GhNode) -> Level {
        self.map.level(at)
    }

    fn level_across(&self, at: GhNode, (i, v): (u8, u16)) -> Level {
        self.map.level(self.gh.with_digit(at, i, v))
    }
}

/// What a GH node knows after GS, as the unicast actor
/// ([`crate::UnicastNode`]) reads it: its own level and the level of
/// every clique peer, laid out dimension by dimension, each clique in
/// digit order (the node's own slot in each clique holds its own
/// level).
#[derive(Clone)]
pub(crate) struct PeerLevels<'a> {
    gh: &'a GeneralizedHypercube,
    own: Level,
    by_port: Vec<Level>,
}

impl<'a> PeerLevels<'a> {
    /// The table of `me` after GS converged to `map`.
    pub(crate) fn new(gh: &'a GeneralizedHypercube, map: &GhSafetyMap, me: GhNode) -> Self {
        let by_port = (0..gh.dim())
            .flat_map(|i| (0..gh.radix(i)).map(move |v| (i, v)))
            .map(|(i, v)| map.level(gh.with_digit(me, i, v)))
            .collect();
        PeerLevels {
            gh,
            own: map.level(me),
            by_port,
        }
    }
}

impl<'a> LevelView for PeerLevels<'a> {
    type Space = &'a GeneralizedHypercube;

    fn space(&self) -> &'a GeneralizedHypercube {
        self.gh
    }

    fn own_level(&self, _: GhNode) -> Level {
        self.own
    }

    fn level_across(&self, _: GhNode, (i, v): (u8, u16)) -> Level {
        let start: usize = (0..i).map(|j| self.gh.radix(j) as usize).sum();
        self.by_port[start + v as usize]
    }
}

/// Source feasibility for a GH unicast. An endpoint outside `gh` is a
/// [`Decision::Failure`].
pub fn gh_source_decision(
    gh: &GeneralizedHypercube,
    map: &GhSafetyMap,
    s: GhNode,
    d: GhNode,
) -> Decision {
    rule_at_source(&GhMapView { gh, map }, s, d, TieBreak::LowestDim)
        .by_dim(|(i, _)| i)
        .decision()
}

/// Routes one GH unicast to completion, judging the physical outcome
/// against `faults` while steering purely by safety levels.
pub fn gh_route(
    gh: &GeneralizedHypercube,
    map: &GhSafetyMap,
    faults: &FaultSet,
    s: GhNode,
    d: GhNode,
) -> GhRouteResult {
    let view = GhMapView { gh, map };
    let step = rule_at_source(&view, s, d, TieBreak::LowestDim);
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
        at = gh.with_digit(at, port.0, port.1);
        nodes.push(at);
        if faults.contains(NodeId::new(at.raw())) {
            break at == d;
        }
        match rule_at_hop(&view, at, d, TieBreak::LowestDim) {
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
    fn fig5_like() -> (GeneralizedHypercube, FaultSet, GhSafetyMap) {
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let f = gh.fault_set_from_strs(&["011", "100", "111", "121"]);
        let map = GhSafetyMap::compute(&gh, &f);
        (gh, f, map)
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
        let map = GhSafetyMap::compute(&gh, &f);
        for s in gh.nodes() {
            for d in gh.nodes() {
                let res = gh_route(&gh, &map, &f, s, d);
                assert!(res.delivered);
                assert_eq!(
                    res.hops(),
                    Some(gh.distance(s, d)),
                    "{} → {}",
                    gh.format(s),
                    gh.format(d)
                );
            }
        }
    }

    #[test]
    fn fig5_like_walk_010_to_101() {
        let (gh, f, map) = fig5_like();
        let s = gh.parse("010").unwrap();
        let d = gh.parse("101").unwrap();
        assert_eq!(gh.distance(s, d), 3);
        let res = gh_route(&gh, &map, &f, s, d);
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
        let (gh, f, map) = fig5_like();
        for a in gh.nodes() {
            if f.contains(NodeId::new(a.raw())) || map.is_safe(a) {
                continue;
            }
            assert!(
                gh.neighbors(a).any(|b| map.is_safe(b)),
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
        let map = GhSafetyMap::compute(&gh, &f);
        let s = gh.node_from_digits(&[0, 0]);
        let d = gh.node_from_digits(&[1, 1]);
        let res = gh_route(&gh, &map, &f, s, d);
        assert_eq!(res.decision, Decision::Failure);
        assert!(!res.delivered);
    }

    #[test]
    fn already_there() {
        let (gh, f, map) = fig5_like();
        let s = gh.parse("000").unwrap();
        let res = gh_route(&gh, &map, &f, s, s);
        assert_eq!(res.decision, Decision::AlreadyThere);
        assert!(res.delivered);
        assert_eq!(res.hops(), Some(0));
    }
}
