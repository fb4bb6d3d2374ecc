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
//!
//! **Generalized hypercubes** (§4.2) broadcast with the same tree. A
//! dimension is a clique, so covering dimension `i` sends to all
//! `m_i − 1` peers at once, each inheriting the remaining dimensions;
//! a dimension's reading is its clique minimum (Definition 4), which
//! with radix 2 is the one neighbor's level. The guarantee holds by
//! the same argument. [`broadcast`] takes either topology's map, and
//! [`crate::broadcast_distributed::run_broadcast`] shares its child
//! order and relay choice.

use crate::level_store::LevelStore;
use crate::safety::{Level, Readings, SafetyMap};
use hypersafe_topology::{FaultSet, Faults, GhNode, NodeId, Topology, MAX_DIM};

/// Outcome of one broadcast, over `Q_n` ([`NodeId`]) or a generalized
/// hypercube ([`GhNode`]).
#[derive(Clone, Debug)]
pub struct BroadcastResult<N = NodeId> {
    /// Whether each node (by raw address) received the message.
    received: Vec<bool>,
    /// Messages sent (every tree edge, including ones lost into faulty
    /// children).
    pub messages: u64,
    /// Depth of the broadcast tree in time steps.
    pub steps: u32,
    /// The safe neighbor used as relay when the source itself was not
    /// safe enough (`None` when the source broadcast directly).
    pub relayed_via: Option<N>,
}

impl<N> BroadcastResult<N> {
    /// Assembles a result from raw parts (used by the distributed
    /// implementation in [`crate::broadcast_distributed`]).
    pub fn from_parts(
        received: Vec<bool>,
        messages: u64,
        steps: u32,
        relayed_via: Option<N>,
    ) -> Self {
        BroadcastResult {
            received,
            messages,
            steps,
            relayed_via,
        }
    }

    /// Number of nodes that received the message.
    pub fn coverage(&self) -> u64 {
        self.received.iter().filter(|&&r| r).count() as u64
    }

    /// Whether every node outside the node-fault set received the
    /// message.
    pub fn complete(&self, faults: &FaultSet) -> bool {
        (self.received.iter().enumerate())
            .all(|(i, &r)| r || faults.contains(NodeId::new(i as u64)))
    }

    fn received_raw(&self, raw: u64) -> bool {
        self.received.get(raw as usize).copied().unwrap_or(false)
    }
}

impl BroadcastResult {
    /// Whether node `a` received the message.
    pub fn received(&self, a: NodeId) -> bool {
        self.received_raw(a.raw())
    }
}

impl BroadcastResult<GhNode> {
    /// Whether node `a` received the message.
    pub fn received(&self, a: GhNode) -> bool {
        self.received_raw(a.raw())
    }
}

/// Broadcasts from `source` over every dimension of the topology `map`
/// carries, `Q_n` or a generalized hypercube.
///
/// If the source is safe it broadcasts directly; otherwise, if it has
/// a safe neighbor, it relays through the first one in
/// [`Topology::neighbours`] order (in `Q_n` the lowest dimension;
/// Property 2 guarantees such a neighbor when faults `< n`); otherwise
/// it broadcasts best-effort from itself (coverage may be partial — the
/// result reports it honestly). Messages into faulty nodes or across
/// faulty links are lost. A source outside the topology gets the empty
/// result.
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
/// assert!(r.complete(cfg.node_faults()));
/// assert_eq!(r.messages, 15); // one per non-source node
/// ```
pub fn broadcast<T: Readings, F: Faults<T>>(
    faults: &F,
    map: &SafetyMap<T>,
    source: T::Node,
) -> BroadcastResult<T::Node> {
    let (space, levels) = (map.space(), map.store());
    let mut result = BroadcastResult::from_parts(vec![false; levels.len() as usize], 0, 0, None);
    let id = |a| NodeId::new(T::raw(a));
    let faulty = |a| faults.node_faults().contains(id(a));
    if !space.contains(source) || faulty(source) {
        return result;
    }
    result.received[T::raw(source) as usize] = true;
    // A relay covers the entire topology, including this source, which
    // already has the message.
    let (at, depth) = match relay(space, levels, source) {
        Some(relay) => {
            result.messages += 1;
            result.relayed_via = Some(relay);
            result.received[T::raw(relay) as usize] = true;
            (relay, 1)
        }
        None => (source, 0),
    };
    // A message is lost into a faulty node or across a faulty link.
    let lost = |a, b| faulty(b) || faults.link_faults().contains(id(a), id(b));
    let dims: Vec<u8> = (0..space.dim()).collect();
    descend(space, levels, &lost, at, &dims, depth, &mut result);
    result
}

/// The neighbor an unsafe `source` hands the whole broadcast to: the
/// first safe one in [`Topology::neighbours`] order. `None` when the
/// source is safe itself or has no safe neighbor.
pub(crate) fn relay<S: Topology>(
    space: S,
    levels: &LevelStore,
    source: S::Node,
) -> Option<S::Node> {
    let safe = |a| levels.get(S::raw(a)) == space.dim();
    if safe(source) {
        return None;
    }
    space.neighbours(source).find(|&b| safe(b))
}

/// Orders a node's outstanding dimensions for its children: by the
/// dimension's reading descending, lowest dimension first among ties,
/// so the safest child gets the largest remaining subtree.
pub(crate) fn order_children(dims: &mut [u8], reading: &[Level]) {
    dims.sort_by_key(|&i| (std::cmp::Reverse(reading[i as usize]), i));
}

/// Recursive subtree delivery: `at` owns the sub-topology spanned by
/// `dims`.
fn descend<S: Readings>(
    space: S,
    levels: &LevelStore,
    lost: &impl Fn(S::Node, S::Node) -> bool,
    at: S::Node,
    dims: &[u8],
    depth: u32,
    result: &mut BroadcastResult<S::Node>,
) {
    result.steps = result.steps.max(depth);
    if dims.is_empty() {
        return;
    }
    let mut ordered = dims.to_vec();
    if ordered.len() > 1 {
        let mut reading = [0; MAX_DIM as usize];
        for (r, l) in reading.iter_mut().zip(space.readings(levels, at)) {
            *r = l;
        }
        order_children(&mut ordered, &reading);
    }
    for (rank, &dim) in ordered.iter().enumerate() {
        let rest = &ordered[rank + 1..];
        for child in space.along(at, dim) {
            result.messages += 1;
            if lost(at, child) {
                // Fault-stop: the message (and, if `rest` is nonempty,
                // its subtree) is lost here. Under the safety guarantee
                // a faulty child is always assigned an empty subtree.
                continue;
            }
            result.received[S::raw(child) as usize] = true;
            descend(space, levels, lost, child, rest, depth + 1, result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultConfig, GeneralizedHypercube, Hypercube};

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
    }

    #[test]
    fn fault_free_broadcast_is_binomial() {
        let cube = Hypercube::new(5);
        let cfg = FaultConfig::fault_free(cube);
        let map = SafetyMap::compute(&cfg);
        let r = broadcast(&cfg, &map, NodeId::ZERO);
        assert!(r.complete(cfg.node_faults()));
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
            assert!(r.complete(cfg.node_faults()), "safe source {s}");
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
        assert!(r.complete(cfg.node_faults()));
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
                assert!(r.complete(cfg.node_faults()), "mask {mask:#x} source {s}");
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
        assert!(!r.complete(cfg.node_faults()));
        assert_eq!(r.coverage(), 1, "only the source itself");
    }

    fn gh232() -> GeneralizedHypercube {
        GeneralizedHypercube::from_product(&[2, 3, 2])
    }

    #[test]
    fn fault_free_gh_is_covered_by_one_broadcast() {
        let gh = gh232();
        let f = gh.fault_set();
        let map = SafetyMap::compute_in(&gh, &f);
        let r = broadcast(&f, &map, GhNode(0));
        assert!(r.complete(&f));
        assert_eq!(r.messages, gh.num_nodes() - 1, "spanning tree edge count");
        assert_eq!(r.steps, 3, "one step per dimension");
    }

    #[test]
    fn gh_safe_source_complete_exhaustive_small_fault_sets() {
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
            let map = SafetyMap::compute_in(&gh, &f);
            for a in gh.nodes() {
                if f.contains(NodeId::new(a.raw())) || !map.is_safe(a) {
                    continue;
                }
                let r = broadcast(&f, &map, a);
                assert!(r.complete(&f), "mask {mask:#b} source {}", gh.format(a));
            }
        }
    }

    #[test]
    fn gh_fig5_instance_every_source_covers() {
        // Every unsafe nonfaulty node has a safe neighbor here, so all
        // healthy sources achieve full coverage (relayed or not).
        let gh = gh232();
        let f = gh.fault_set_from_strs(&["011", "100", "111", "121"]);
        let map = SafetyMap::compute_in(&gh, &f);
        for a in gh.nodes() {
            if f.contains(NodeId::new(a.raw())) {
                continue;
            }
            let r = broadcast(&f, &map, a);
            assert!(r.complete(&f), "source {}", gh.format(a));
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
    fn gh_faulty_source_sends_nothing() {
        let gh = gh232();
        let f = gh.fault_set_from_strs(&["011"]);
        let map = SafetyMap::compute_in(&gh, &f);
        let r = broadcast(&f, &map, gh.parse("011").unwrap());
        assert_eq!(r.coverage(), 0);
        assert_eq!(r.messages, 0);
    }

    /// `broadcast` on GH(2, …, 2) equals `broadcast` on `Q_n` with
    /// the same faults: received set, messages, steps and relay. With
    /// radix 2 a clique minimum is the one neighbor's level, so the
    /// trees are the same.
    fn assert_gh_matches_cube(
        cfg: &FaultConfig,
        sources: impl Iterator<Item = NodeId>,
        what: &str,
    ) {
        let cube = cfg.cube();
        let gh = GeneralizedHypercube::new(&vec![2; cube.dim() as usize]);
        let qmap = SafetyMap::compute(cfg);
        let ghmap = SafetyMap::compute_in(&gh, cfg.node_faults());
        for s in sources {
            let q = broadcast(cfg, &qmap, s);
            let g = broadcast(cfg.node_faults(), &ghmap, GhNode(s.raw()));
            let what = format!("{what} source {s}");
            assert!(
                cube.nodes()
                    .all(|a| q.received(a) == g.received(GhNode(a.raw()))),
                "{what}"
            );
            assert_eq!(q.messages, g.messages, "{what}");
            assert_eq!(q.steps, g.steps, "{what}");
            assert_eq!(
                q.relayed_via.map(NodeId::raw),
                g.relayed_via.map(GhNode::raw),
                "{what}"
            );
        }
    }

    #[test]
    fn binary_gh_equals_the_cube_exhaustive_q1_to_q4() {
        for n in 1..=4u8 {
            let cube = Hypercube::new(n);
            for mask in 0u64..(1 << cube.num_nodes()) {
                let f =
                    FaultSet::from_nodes(cube, cube.nodes().filter(|a| mask >> a.raw() & 1 == 1));
                let cfg = FaultConfig::with_node_faults(cube, f);
                assert_gh_matches_cube(&cfg, cfg.healthy_nodes(), &format!("Q{n} mask {mask:#b}"));
            }
        }
    }

    /// A small deterministic generator for the tests' draws.
    fn splitmix(z: &mut u64) -> u64 {
        *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Q1–Q10 with uniform faults on up to 40% of the nodes: GH(2,
        /// …, 2) equals the cube from 32 drawn sources, faulty ones
        /// included.
        #[test]
        fn binary_gh_equals_the_cube(
            n in 1u8..=10,
            share in 0u64..=40,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let cube = Hypercube::new(n);
            let len = cube.num_nodes();
            let mut z = seed;
            let mut f = FaultSet::new(cube);
            for _ in 0..len * share / 100 {
                f.insert(NodeId::new(splitmix(&mut z) % len));
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            let sources: Vec<NodeId> = (0..32).map(|_| NodeId::new(splitmix(&mut z) % len)).collect();
            assert_gh_matches_cube(&cfg, sources.into_iter(), &format!("Q{n} share={share} seed={seed}"));
        }
    }

    #[test]
    fn gh_relayed_sources_cover_every_healthy_node() {
        // Mixed radices 2–4 over 2–4 dimensions with fewer than n
        // faults: a relay is safe, so its tree covers every healthy
        // node, the source's own sub-GH included.
        let mut z = 27;
        let mut relayed = 0;
        for _ in 0..1000 {
            let dims = 2 + (splitmix(&mut z) % 3) as usize;
            let radices: Vec<u16> = (0..dims)
                .map(|_| 2 + (splitmix(&mut z) % 3) as u16)
                .collect();
            let gh = GeneralizedHypercube::new(&radices);
            let mut f = gh.fault_set();
            for _ in 0..splitmix(&mut z) % dims as u64 {
                f.insert(NodeId::new(splitmix(&mut z) % gh.num_nodes()));
            }
            let map = SafetyMap::compute_in(&gh, &f);
            for a in gh.nodes().filter(|a| !f.contains(NodeId::new(a.raw()))) {
                let r = broadcast(&f, &map, a);
                if r.relayed_via.is_some() {
                    relayed += 1;
                    assert!(r.complete(&f), "GH{radices:?} source {}", gh.format(a));
                }
            }
        }
        assert!(relayed > 0);
    }
}
