//! Broadcasting in generalized hypercubes — the §4.2 analog of the
//! safety-level broadcast (extension).
//!
//! The binary broadcast hands each child a suffix of the dimension
//! order; in `GH` a dimension is a *clique*, so covering dimension `i`
//! means sending to all `m_i − 1` peers at once, each inheriting the
//! remaining dimension suffix. Ordering dimensions by their
//! **dimension-level** (the clique minimum, Definition 4) descending
//! preserves the guarantee by the same sorted-subsequence argument:
//! a node whose safety level is at least the number of dimensions it
//! owns covers every nonfaulty node of its sub-GH.

use crate::gh_safety::GhSafetyMap;
use crate::safety::Level;
use crate::unicast::PortSpace;
use hypersafe_topology::{FaultSet, GeneralizedHypercube, GhNode, NodeId};

/// Outcome of one GH broadcast.
#[derive(Clone, Debug)]
pub struct GhBroadcastResult {
    received: Vec<bool>,
    /// Messages sent (tree edges, including ones into faulty peers).
    pub messages: u64,
    /// Tree depth in steps.
    pub steps: u32,
    /// Safe relay used by an unsafe source, if any.
    pub relayed_via: Option<GhNode>,
}

impl GhBroadcastResult {
    /// Whether node `a` received the message.
    pub fn received(&self, a: GhNode) -> bool {
        self.received[a.raw() as usize]
    }

    /// Number of covered nodes.
    pub fn coverage(&self) -> u64 {
        self.received.iter().filter(|&&r| r).count() as u64
    }

    /// Whether every nonfaulty node received the message.
    pub fn complete(&self, gh: &GeneralizedHypercube, faults: &FaultSet) -> bool {
        gh.nodes()
            .all(|a| faults.contains(NodeId::new(a.raw())) || self.received(a))
    }
}

/// Broadcasts from `source` over the whole `GH`; unsafe sources relay
/// through a safe neighbor when one exists (the Fig. 5 instance
/// guarantees one for every unsafe node).
pub fn gh_broadcast(
    gh: &GeneralizedHypercube,
    map: &GhSafetyMap,
    faults: &FaultSet,
    source: GhNode,
) -> GhBroadcastResult {
    let mut result = GhBroadcastResult {
        received: vec![false; gh.num_nodes() as usize],
        messages: 0,
        steps: 0,
        relayed_via: None,
    };
    if faults.contains(NodeId::new(source.raw())) {
        return result;
    }
    result.received[source.raw() as usize] = true;

    let all_dims: Vec<u8> = (0..gh.dim()).collect();
    if map.is_safe(source) {
        descend(gh, map, faults, source, &all_dims, 0, &mut result);
        return result;
    }
    if let Some(relay) = gh.neighbors(source).find(|&b| map.is_safe(b)) {
        result.messages += 1;
        result.relayed_via = Some(relay);
        result.received[relay.raw() as usize] = true;
        descend(gh, map, faults, relay, &all_dims, 1, &mut result);
        return result;
    }
    descend(gh, map, faults, source, &all_dims, 0, &mut result);
    result
}

fn descend(
    gh: &GeneralizedHypercube,
    map: &GhSafetyMap,
    faults: &FaultSet,
    at: GhNode,
    dims: &[u8],
    depth: u32,
    result: &mut GhBroadcastResult,
) {
    result.steps = result.steps.max(depth);
    if dims.is_empty() {
        return;
    }
    // Order dimensions by clique-minimum level descending (the
    // dimension-level of Definition 4), lowest dimension on ties.
    let mut ordered: Vec<u8> = dims.to_vec();
    let dim_level: Vec<Level> = gh.readings(map.store(), at).collect();
    ordered.sort_by_key(|&i| (std::cmp::Reverse(dim_level[i as usize]), i));
    for (rank, &dim) in ordered.iter().enumerate() {
        let rest = &ordered[rank + 1..];
        for peer in gh.neighbors_along(at, dim) {
            result.messages += 1;
            if faults.contains(NodeId::new(peer.raw())) {
                continue;
            }
            if !result.received[peer.raw() as usize] {
                result.received[peer.raw() as usize] = true;
                descend(gh, map, faults, peer, rest, depth + 1, result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gh232() -> GeneralizedHypercube {
        GeneralizedHypercube::from_product(&[2, 3, 2])
    }

    #[test]
    fn fault_free_gh_broadcast_covers_all() {
        let gh = gh232();
        let f = gh.fault_set();
        let map = GhSafetyMap::compute(&gh, &f);
        let r = gh_broadcast(&gh, &map, &f, GhNode(0));
        assert!(r.complete(&gh, &f));
        assert_eq!(r.messages, gh.num_nodes() - 1, "spanning tree edge count");
        assert_eq!(r.steps, 3, "one step per dimension");
    }

    #[test]
    fn safe_source_complete_exhaustive_small_fault_sets() {
        let gh = gh232();
        let total = gh.num_nodes();
        for mask in 0u64..(1 << total) {
            if mask.count_ones() > 4 {
                continue;
            }
            let mut f = gh.fault_set();
            for i in 0..total {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let map = GhSafetyMap::compute(&gh, &f);
            for a in gh.nodes() {
                if f.contains(NodeId::new(a.raw())) || !map.is_safe(a) {
                    continue;
                }
                let r = gh_broadcast(&gh, &map, &f, a);
                assert!(
                    r.complete(&gh, &f),
                    "mask {mask:#b} source {}",
                    gh.format(a)
                );
            }
        }
    }

    #[test]
    fn fig5_instance_every_source_covers() {
        // Every unsafe nonfaulty node has a safe neighbor here, so all
        // healthy sources achieve full coverage (relayed or not).
        let gh = gh232();
        let f = gh.fault_set_from_strs(&["011", "100", "111", "121"]);
        let map = GhSafetyMap::compute(&gh, &f);
        for a in gh.nodes() {
            if f.contains(NodeId::new(a.raw())) {
                continue;
            }
            let r = gh_broadcast(&gh, &map, &f, a);
            assert!(r.complete(&gh, &f), "source {}", gh.format(a));
            if !map.is_safe(a) {
                assert!(
                    r.relayed_via.is_some(),
                    "unsafe {} must relay",
                    gh.format(a)
                );
            }
        }
    }

    #[test]
    fn faulty_source_sends_nothing() {
        let gh = gh232();
        let f = gh.fault_set_from_strs(&["011"]);
        let map = GhSafetyMap::compute(&gh, &f);
        let r = gh_broadcast(&gh, &map, &f, gh.parse("011").unwrap());
        assert_eq!(r.coverage(), 0);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn binary_radices_match_q_broadcast_coverage() {
        use crate::broadcast::broadcast;
        use crate::safety::SafetyMap;
        use hypersafe_topology::{FaultConfig, Hypercube};
        // GH(2,2,2,2) with the Fig. 1 faults behaves like Q_4.
        let gh = GeneralizedHypercube::new(&[2, 2, 2, 2]);
        let cube = Hypercube::new(4);
        let faults = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
        let ghmap = GhSafetyMap::compute(&gh, &faults);
        let cfg = FaultConfig::with_node_faults(cube, faults.clone());
        let qmap = SafetyMap::compute(&cfg);
        // Tree shaping differs (per-node levels vs dimension minima),
        // so compare where both carry a guarantee: safe sources must
        // both achieve complete coverage.
        for raw in 0..16u64 {
            if faults.contains(NodeId::new(raw)) || !qmap.is_safe(NodeId::new(raw)) {
                continue;
            }
            let gr = gh_broadcast(&gh, &ghmap, &faults, GhNode(raw));
            let qr = broadcast(&cfg, &qmap, NodeId::new(raw));
            assert!(gr.complete(&gh, &faults), "source {raw:04b}");
            assert!(qr.complete(&cfg), "source {raw:04b}");
            assert_eq!(gr.coverage(), qr.coverage(), "source {raw:04b}");
        }
    }
}
