//! Reliable broadcasting with safety levels — the concept's original
//! application (the paper's reference \[9\], Wu, IEEE TC May 1995), and
//! the foundation §2 builds on.
//!
//! A fault-free hypercube broadcast is a binomial tree: the source
//! sends along every dimension, and the node reached along dimension
//! `d_i` takes responsibility for the subcube spanned by the remaining
//! dimensions. The safety-level version orders each node's outstanding
//! dimensions by the *receiving neighbor's safety level, descending*,
//! so the largest subtrees go to the safest children.
//!
//! **Guarantee** (the broadcast analogue of Theorem 2, proved by the
//! same subset-of-sorted-sequence argument): if a node's safety level
//! is at least the number of dimensions it is responsible for, every
//! nonfaulty node in its subcube receives the message. In particular a
//! *safe* (level-`n`) source reaches every nonfaulty node of the cube
//! in `n` time steps with one message per receiving node; and by
//! Property 2, with fewer than `n` faults an unsafe source can always
//! relay through a safe neighbor at the cost of one extra step.

use crate::safety::SafetyMap;
use hypersafe_topology::{FaultConfig, NodeId};

/// Outcome of one broadcast.
#[derive(Clone, Debug)]
pub struct BroadcastResult {
    /// Whether each node (by raw address) received the message.
    received: Vec<bool>,
    /// Messages sent (every tree edge, including ones lost into faulty
    /// children).
    pub messages: u64,
    /// Depth of the broadcast tree in time steps.
    pub steps: u32,
    /// The safe neighbor used as relay when the source itself was not
    /// safe enough (`None` when the source broadcast directly).
    pub relayed_via: Option<NodeId>,
}

impl BroadcastResult {
    /// Assembles a result from raw parts (used by the distributed
    /// implementation in [`crate::broadcast_distributed`]).
    pub fn from_parts(
        received: Vec<bool>,
        messages: u64,
        steps: u32,
        relayed_via: Option<NodeId>,
    ) -> Self {
        BroadcastResult {
            received,
            messages,
            steps,
            relayed_via,
        }
    }

    /// Whether node `a` received the message.
    pub fn received(&self, a: NodeId) -> bool {
        self.received[a.raw() as usize]
    }

    /// Number of nodes that received the message.
    pub fn coverage(&self) -> u64 {
        self.received.iter().filter(|&&r| r).count() as u64
    }

    /// Whether every nonfaulty node received the message.
    pub fn complete(&self, cfg: &FaultConfig) -> bool {
        cfg.healthy_nodes().all(|a| self.received(a))
    }
}

/// Broadcasts from `source` over all `n` dimensions.
///
/// If the source is safe it broadcasts directly; otherwise, if it has
/// a safe neighbor, it relays through the one with the lowest
/// dimension (Property 2 guarantees such a neighbor when faults `< n`);
/// otherwise it broadcasts best-effort from itself (coverage may be
/// partial — the result reports it honestly).
///
/// # Examples
///
/// ```
/// use hypersafe_topology::{Hypercube, FaultSet, FaultConfig, NodeId};
/// use hypersafe_core::{broadcast, SafetyMap};
///
/// let cube = Hypercube::new(4);
/// let faults = FaultSet::from_binary_strs(cube, &["0011"]);
/// let cfg = FaultConfig::with_node_faults(cube, faults);
/// let map = SafetyMap::compute(&cfg);
/// let r = broadcast(&cfg, &map, NodeId::ZERO);
/// assert!(r.complete(&cfg));
/// assert_eq!(r.messages, 15); // one per non-source node
/// ```
pub fn broadcast(cfg: &FaultConfig, map: &SafetyMap, source: NodeId) -> BroadcastResult {
    let cube = cfg.cube();
    let n = cube.dim();
    let mut result = BroadcastResult {
        received: vec![false; cube.num_nodes() as usize],
        messages: 0,
        steps: 0,
        relayed_via: None,
    };
    if cfg.node_faulty(source) {
        return result;
    }
    result.received[source.raw() as usize] = true;

    let all_dims: Vec<u8> = (0..n).collect();
    if map.is_safe(source) {
        descend(cfg, map, source, &all_dims, 0, &mut result);
        return result;
    }
    // Relay through a safe neighbor: it covers the entire cube
    // (including this source, which already has the message).
    if let Some(relay) = cube.neighbors(source).find(|&b| map.is_safe(b)) {
        result.messages += 1;
        result.relayed_via = Some(relay);
        result.received[relay.raw() as usize] = true;
        descend(cfg, map, relay, &all_dims, 1, &mut result);
        return result;
    }
    // Best effort from an under-safe source.
    descend(cfg, map, source, &all_dims, 0, &mut result);
    result
}

/// Recursive subtree delivery: `at` owns the subcube spanned by `dims`.
fn descend(
    cfg: &FaultConfig,
    map: &SafetyMap,
    at: NodeId,
    dims: &[u8],
    depth: u32,
    result: &mut BroadcastResult,
) {
    result.steps = result.steps.max(depth);
    if dims.is_empty() {
        return;
    }
    // Order children by safety level descending (ties: lower dimension
    // first), so the safest child gets the largest remaining subtree.
    let mut ordered: Vec<u8> = dims.to_vec();
    ordered.sort_by_key(|&i| (std::cmp::Reverse(map.level(at.neighbor(i))), i));
    for (rank, &dim) in ordered.iter().enumerate() {
        let child = at.neighbor(dim);
        let rest = &ordered[rank + 1..];
        result.messages += 1;
        if cfg.node_faulty(child) || cfg.link_faults().contains(at, child) {
            // Fault-stop: the message (and, if `rest` is nonempty, its
            // subtree) is lost here. Under the safety guarantee a
            // faulty child is always assigned an empty subtree.
            continue;
        }
        result.received[child.raw() as usize] = true;
        descend(cfg, map, child, rest, depth + 1, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
    }

    #[test]
    fn fault_free_broadcast_is_binomial() {
        let cube = Hypercube::new(5);
        let cfg = FaultConfig::fault_free(cube);
        let map = SafetyMap::compute(&cfg);
        let r = broadcast(&cfg, &map, NodeId::ZERO);
        assert!(r.complete(&cfg));
        assert_eq!(r.messages, 31, "one message per non-source node");
        assert_eq!(r.steps, 5);
        assert_eq!(r.relayed_via, None);
    }

    #[test]
    fn safe_source_covers_everything_fig1() {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]),
        );
        let map = SafetyMap::compute(&cfg);
        for s in cfg.healthy_nodes().filter(|&a| map.is_safe(a)) {
            let r = broadcast(&cfg, &map, s);
            assert!(r.complete(&cfg), "safe source {s}");
        }
    }

    #[test]
    fn unsafe_source_relays_through_safe_neighbor() {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0011", "0100", "0110"]),
        );
        let map = SafetyMap::compute(&cfg);
        // 0010 has two faulty neighbors (0011, 0110) → unsafe, but
        // < n faults guarantees a safe neighbor (Property 2).
        let s = n("0010");
        assert!(!map.is_safe(s));
        let r = broadcast(&cfg, &map, s);
        assert!(r.relayed_via.is_some());
        assert!(r.complete(&cfg));
        assert!(r.steps <= 5, "n + 1 with relay");
    }

    #[test]
    fn safe_source_complete_exhaustive_q4() {
        // Every fault pattern of Q_4 with ≤ 4 faults: broadcasting from
        // any *safe* source reaches every nonfaulty node.
        let cube = Hypercube::new(4);
        for mask in 0u64..(1 << 16) {
            if mask.count_ones() > 4 {
                continue;
            }
            let mut f = FaultSet::new(cube);
            for i in 0..16 {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            let map = SafetyMap::compute(&cfg);
            for s in cfg.healthy_nodes().filter(|&a| map.is_safe(a)) {
                let r = broadcast(&cfg, &map, s);
                assert!(r.complete(&cfg), "mask {mask:#x} source {s}");
                assert_eq!(r.messages, 15, "binomial edge count");
            }
        }
    }

    #[test]
    fn faulty_source_sends_nothing() {
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, &["000"]));
        let map = SafetyMap::compute(&cfg);
        let r = broadcast(&cfg, &map, NodeId::ZERO);
        assert_eq!(r.coverage(), 0);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn best_effort_reports_partial_coverage() {
        // Isolate the source: no safe neighbor exists, coverage is 1.
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["001", "010", "100"]),
        );
        let map = SafetyMap::compute(&cfg);
        let r = broadcast(&cfg, &map, NodeId::ZERO);
        assert!(!r.complete(&cfg));
        assert_eq!(r.coverage(), 1, "only the source itself");
    }
}
