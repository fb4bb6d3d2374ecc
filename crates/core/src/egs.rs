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
//! Footnote 3's special-fault semantics: an `N2` node is never used as
//! an intermediate, but a message destined *to* it is still delivered.

use crate::gs::GsNode;
use crate::level_store::LevelStore;
use crate::safety::{rule_level, Level, SafetyMap};
use crate::unicast::{route_over, LevelView, Qn, RouteResult, TieBreak};
use hypersafe_simkit::{HypercubeNet, SyncEngine, SyncNode, SyncStats, Trace};
use hypersafe_topology::{FaultConfig, FaultSet, NodeId};

/// Safety state of a hypercube with node and link faults: the
/// advertised (global) view plus each `N2` node's self view. Both
/// views share the packed [`LevelStore`] representation — the self
/// view starts as a clone of the advertised store and diverges only
/// on `N2` nodes, so the extension costs the same ~0.5 bytes/node as
/// the node-fault-only map.
#[derive(Clone, Debug)]
pub struct ExtendedSafetyMap {
    /// Advertised levels: the fixed point over `N1` with `F ∪ N2`
    /// treated as faulty. This is what every *other* node sees.
    advertised: SafetyMap,
    /// Self-view levels: differs from `advertised` only on `N2` nodes.
    own: LevelStore,
    /// Membership of `N2`, by raw address.
    in_n2: Vec<bool>,
}

impl ExtendedSafetyMap {
    /// Runs EGS for `cfg`.
    pub fn compute(cfg: &FaultConfig) -> Self {
        let cube = cfg.cube();

        // Classify N2 and build the effective fault set F ∪ N2.
        let touches = |a| cfg.link_faults().touches(cube, a);
        let in_n2: Vec<bool> = cube
            .nodes()
            .map(|a| !cfg.node_faulty(a) && touches(a))
            .collect();
        let effective = cube.nodes().filter(|&a| cfg.node_faulty(a) || touches(a));
        let n1_cfg = FaultConfig::with_node_faults(cube, FaultSet::from_nodes(cube, effective));
        let advertised = SafetyMap::compute(&n1_cfg);

        // Last round: each N2 node evaluates NODE_STATUS once over the
        // advertised levels (its faulty-link far ends are in N2 or F,
        // so they already advertise 0).
        let mut own = advertised.store().clone();
        for a in cube.nodes().filter(|a| in_n2[a.raw() as usize]) {
            own.set(a.raw(), rule_level(Qn(cube.dim()), advertised.store(), a));
        }
        ExtendedSafetyMap {
            advertised,
            own,
            in_n2,
        }
    }

    /// The advertised (everyone-else's) view.
    pub fn advertised(&self) -> &SafetyMap {
        &self.advertised
    }

    /// Level of `a` as the rest of the network sees it.
    pub fn advertised_level(&self, a: NodeId) -> Level {
        self.advertised.level(a)
    }

    /// Level of `a` in its own view (differs from advertised only for
    /// `N2` nodes).
    pub fn own_level(&self, a: NodeId) -> Level {
        self.own.get(a.raw())
    }

    /// Whether `a` is a nonfaulty node with an adjacent faulty link.
    pub fn is_n2(&self, a: NodeId) -> bool {
        self.in_n2[a.raw() as usize]
    }
}

/// Runs the distributed EGS protocol (`EXTENDED_GLOBAL_STATUS`) to
/// quiescence on the lock-step GS node and returns the resulting map
/// plus engine statistics. Every node runs `NODE_STATUS` every round
/// (faulty links never deliver, so their far ends read 0); `N2` nodes
/// broadcast 0 throughout. The paper has `N2` evaluate once, in round
/// `n − 1`; re-evaluating every round reaches the same fixed point
/// without synchronized round counters.
pub fn run_egs(cfg: &FaultConfig) -> (ExtendedSafetyMap, SyncStats) {
    let cube = cfg.cube();
    let n = cube.dim();
    let net = HypercubeNet::new(cfg);
    let mut eng = SyncEngine::new(&net, |a| {
        let mut node = GsNode::new(n, None);
        node.n2 = cfg.link_faults().touches(cube, a);
        node
    });
    eng.run_until_stable(n as u32 + 1);
    // A faulty node reads 0 in both views; an N2 node advertises 0.
    let view = |f: fn(&_) -> Level| {
        let levels = cube.nodes().map(|a| eng.node(a).map_or(0, f));
        levels.collect::<Vec<_>>()
    };
    let (advertised, own) = (view(SyncNode::broadcast), view(GsNode::level));
    let in_n2 = cube.nodes().map(|a| eng.node(a).is_some_and(|v| v.n2));
    let in_n2 = in_n2.collect();
    let stats = eng.stats().clone();
    (
        ExtendedSafetyMap {
            advertised: SafetyMap::from_levels(cube, advertised),
            own: LevelStore::from_levels(n, &own),
            in_n2,
        },
        stats,
    )
}

/// Routes a unicast in a cube with node and link faults, using the EGS
/// views: the source applies `C1` with its *own* level, every neighbor
/// comparison uses *advertised* levels, and the physical simulation
/// accounts for message loss on faulty links (paper, §4.1).
pub fn route_egs(cfg: &FaultConfig, emap: &ExtendedSafetyMap, s: NodeId, d: NodeId) -> RouteResult {
    route_egs_traced(cfg, emap, s, d, &mut Trace::disabled())
}

/// [`route_egs`] with hop tracing.
pub fn route_egs_traced(
    cfg: &FaultConfig,
    emap: &ExtendedSafetyMap,
    s: NodeId,
    d: NodeId,
    trace: &mut Trace,
) -> RouteResult {
    // The routing rule is the node-fault one, over a view in which
    // only the source reads differently: wherever the walk reads `s`'s
    // level (its C1 test, or a later hop looking back at `s`), it gets
    // `s`'s own level. An N2 destination advertises 0 and so, like a
    // faulty one, is only reachable as the final hop; the walk treats
    // message entry into it as ordinary arrival because it is not in
    // the node fault set, and a final hop across a faulty link is
    // already marked undelivered there.
    let view = SourceOverlay { emap, s };
    route_over(cfg, &view, s, d, TieBreak::LowestDim, trace)
}

/// The advertised map as seen by a route from `s`: `s`'s own level at
/// `s`, the advertised level everywhere else. Reads through, with no
/// copy of the map.
struct SourceOverlay<'a> {
    emap: &'a ExtendedSafetyMap,
    s: NodeId,
}

impl LevelView for SourceOverlay<'_> {
    type Space = Qn;

    #[inline]
    fn space(&self) -> Qn {
        self.emap.advertised.space()
    }

    #[inline]
    fn own_level(&self, a: NodeId) -> Level {
        if a == self.s {
            self.emap.own_level(a)
        } else {
            self.emap.advertised.level(a)
        }
    }

    #[inline]
    fn level_across(&self, at: NodeId, i: u8) -> Level {
        self.own_level(at.neighbor(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{Hypercube, LinkFaultSet};

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

    #[test]
    fn n2_classification() {
        let cfg = fig4_like();
        let emap = ExtendedSafetyMap::compute(&cfg);
        assert!(emap.is_n2(n("1000")));
        assert!(emap.is_n2(n("1001")));
        assert!(!emap.is_n2(n("1111")));
        // N2 nodes advertise 0 but hold their own nonzero view.
        assert_eq!(emap.advertised_level(n("1000")), 0);
        assert_eq!(emap.advertised_level(n("1001")), 0);
        assert!(emap.own_level(n("1000")) > 0);
    }

    #[test]
    fn own_view_equals_advertised_for_n1() {
        let cfg = fig4_like();
        let emap = ExtendedSafetyMap::compute(&cfg);
        for a in cfg.cube().nodes() {
            if !emap.is_n2(a) {
                assert_eq!(emap.own_level(a), emap.advertised_level(a), "{a}");
            }
        }
    }

    #[test]
    fn no_link_faults_degenerates_to_gs() {
        let cube = Hypercube::new(4);
        let nodes = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
        let cfg = FaultConfig::with_node_faults(cube, nodes);
        let emap = ExtendedSafetyMap::compute(&cfg);
        let plain = SafetyMap::compute(&cfg);
        assert_eq!(emap.advertised.store(), plain.store());
        assert!(cfg.cube().nodes().all(|a| !emap.is_n2(a)));
    }

    #[test]
    fn message_to_n2_destination_is_delivered() {
        // Deliver to 1001 (an N2 node) from a node whose route's final
        // hop does not cross the faulty link.
        let cfg = fig4_like();
        let emap = ExtendedSafetyMap::compute(&cfg);
        let res = route_egs(&cfg, &emap, n("1011"), n("1001"));
        assert!(res.delivered, "{:?}", res);
        assert!(res.path.unwrap().is_optimal());
    }

    #[test]
    fn distributed_egs_matches_centralized() {
        // The message-passing protocol and the centralized evaluation
        // agree on the fig4-like instance and on random node+link fault
        // mixes over Q_4.
        let cfg = fig4_like();
        let central = ExtendedSafetyMap::compute(&cfg);
        let (dist, stats) = run_egs(&cfg);
        assert_eq!(central.advertised.store(), dist.advertised.store());
        assert_eq!(central.own, dist.own);
        assert_eq!(central.in_n2, dist.in_n2);
        assert!(stats.messages > 0);

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
            let central = ExtendedSafetyMap::compute(&cfg);
            let (dist, _) = run_egs(&cfg);
            assert_eq!(
                central.advertised.store(),
                dist.advertised.store(),
                "seed {seed}"
            );
            assert_eq!(central.own, dist.own, "seed {seed}");
        }
    }

    #[test]
    fn n2_source_routes_with_own_level() {
        let cfg = fig4_like();
        let emap = ExtendedSafetyMap::compute(&cfg);
        let s = n("1001");
        let own = emap.own_level(s);
        assert!(own >= 1);
        // Any destination within own-level distance routes optimally.
        for d in cfg.cube().nodes() {
            let h = s.distance(d);
            if h == 0 || h > own as u32 {
                continue;
            }
            if cfg.node_faulty(d) || emap.is_n2(d) && d != s {
                continue; // own-view guarantee excludes special faults
            }
            let res = route_egs(&cfg, &emap, s, d);
            assert!(res.delivered, "{s} → {d}: {res:?}");
        }
    }
}
