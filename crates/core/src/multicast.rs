//! Multicasting over safety levels — the one-to-many middle ground
//! between the paper's unicast and reference \[9\]'s broadcast,
//! documented as an extension (DESIGN.md E18).
//!
//! A multicast to destination set `D` could be served by `|D|`
//! independent unicasts, but their paths overlap heavily near the
//! source. This implementation greedily *shares* prefixes: it routes
//! each destination with the paper's unicast algorithm, then merges
//! the hop lists into a tree, counting each shared link once. The
//! guarantees are inherited per destination (each one is reached
//! optimally/suboptimally exactly when its individual feasibility
//! condition holds); the sharing only reduces traffic, never changes
//! paths.

use crate::safety::SafetyMap;
use crate::unicast::{route, Decision};
use hypersafe_topology::{FaultConfig, NodeId};
use std::collections::HashSet;

/// Result of a multicast.
#[derive(Clone, Debug)]
pub struct MulticastResult {
    /// Per-destination outcome `(destination, decision, delivered)`.
    pub outcomes: Vec<(NodeId, Decision, bool)>,
    /// Distinct directed tree edges used (shared prefixes counted
    /// once) — the multicast's traffic.
    pub tree_edges: u64,
    /// Total hops if each destination had been served by an
    /// independent unicast — the savings baseline.
    pub unicast_hops: u64,
}

impl MulticastResult {
    /// Destinations reached.
    pub fn delivered(&self) -> usize {
        self.outcomes.iter().filter(|o| o.2).count()
    }

    /// Fraction of unicast traffic saved by prefix sharing (0 when
    /// nothing was delivered).
    pub fn savings(&self) -> f64 {
        if self.unicast_hops == 0 {
            0.0
        } else {
            1.0 - self.tree_edges as f64 / self.unicast_hops as f64
        }
    }
}

/// Multicasts from `s` to every node in `dests`, sharing common path
/// prefixes.
pub fn multicast(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    dests: &[NodeId],
) -> MulticastResult {
    let mut edges: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut outcomes = Vec::with_capacity(dests.len());
    let mut unicast_hops = 0u64;
    for &d in dests {
        let res = route(cfg, map, s, d);
        if let Some(p) = &res.path {
            if res.delivered {
                unicast_hops += p.len() as u64;
                for w in p.nodes().windows(2) {
                    edges.insert((w[0], w[1]));
                }
            }
        }
        outcomes.push((d, res.decision, res.delivered));
    }
    MulticastResult {
        outcomes,
        tree_edges: edges.len() as u64,
        unicast_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube, Topology};

    fn fig1() -> (FaultConfig, SafetyMap) {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]),
        );
        let map = SafetyMap::compute(&cfg);
        (cfg, map)
    }

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
    }

    #[test]
    fn multicast_shares_prefixes() {
        let (cfg, map) = fig1();
        // Destinations on the far side share the first hops from 1110.
        let dests = [n("0001"), n("0101"), n("1101")];
        let r = multicast(&cfg, &map, n("1110"), &dests);
        assert_eq!(r.delivered(), 3);
        assert!(r.tree_edges < r.unicast_hops, "sharing must save traffic");
        assert!(r.savings() > 0.0);
    }

    #[test]
    fn disjoint_destinations_share_nothing() {
        let (cfg, map) = fig1();
        // Immediate neighbors in different dimensions: no shared edges.
        let dests = [n("1111"), n("1100"), n("1010")];
        let r = multicast(&cfg, &map, n("1110"), &dests);
        assert_eq!(r.delivered(), 3);
        assert_eq!(r.tree_edges, 3);
        assert_eq!(r.unicast_hops, 3);
        assert_eq!(r.savings(), 0.0);
    }

    #[test]
    fn per_destination_guarantees_inherited() {
        let (cfg, map) = fig1();
        let dests: Vec<NodeId> = cfg.healthy_nodes().filter(|&d| d != n("1110")).collect();
        let r = multicast(&cfg, &map, n("1110"), &dests);
        // 1110 is safe → every destination optimal and delivered.
        assert_eq!(r.delivered(), dests.len());
        for (_, dec, ok) in &r.outcomes {
            assert!(matches!(dec, Decision::Optimal { .. }), "{dec:?}");
            assert!(ok);
        }
        // Tree must be a tree-ish subgraph: at most one inbound edge
        // per non-source node.
        assert!(r.tree_edges <= cfg.cube().num_nodes());
    }

    #[test]
    fn infeasible_destinations_reported_individually() {
        // Fig. 3's disconnected cube: multicast from 0111 to a mixed
        // set reports per-destination outcomes.
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0110", "1010", "1100", "1111"]),
        );
        let map = SafetyMap::compute(&cfg);
        let r = multicast(&cfg, &map, n("0111"), &[n("1011"), n("1110")]);
        assert_eq!(r.delivered(), 1);
        let m: Vec<bool> = r.outcomes.iter().map(|o| o.2).collect();
        assert_eq!(m, vec![true, false]);
        assert!(matches!(r.outcomes[1].1, Decision::Failure));
    }

    #[test]
    fn empty_destination_set() {
        let (cfg, map) = fig1();
        let r = multicast(&cfg, &map, n("0000"), &[]);
        assert_eq!(r.delivered(), 0);
        assert_eq!(r.tree_edges, 0);
        assert_eq!(r.savings(), 0.0);
    }
}
