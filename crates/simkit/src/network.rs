//! Topologies and the lock-step synchronous round engine.
//!
//! A [`Network`] is a port-labeled topology with a fault overlay. It
//! has two implementations: [`HypercubeNet`] (a binary cube, where a
//! port is a dimension, with node and link faults) and [`GhNet`] (a
//! generalized hypercube of §4.2, where a node has `Σ (m_i − 1)`
//! neighbors grouped by dimension, with node faults). Both engines —
//! [`crate::event::EventEngine`] and the [`SyncEngine`] here — learn
//! about faults from the network and nowhere else.
//!
//! The paper's `GLOBAL_STATUS` algorithm (§2.2) is a synchronous
//! iteration: in each round every nonfaulty node sends its current
//! status to all neighbors, then recomputes its own status from the
//! received values (`parbegin NODE_STATUS(a) ∀a parend`). [`SyncEngine`]
//! reproduces that execution model exactly for any protocol
//! expressible as "broadcast my state, absorb neighbor states", on
//! either network: deliveries are strictly round-synchronous, and a
//! node never observes a neighbor's *current*-round update, only last
//! round's value.

use crate::stats::SyncStats;
use hypersafe_topology::{FaultConfig, FaultSet, GeneralizedHypercube, NodeId};

/// A static point-to-point topology: `num_nodes` endpoints, each with
/// `degree(a)` numbered ports; `neighbor(a, p)` is the node at the far
/// end of port `p`.
///
/// Port numbering is *local to each node* and stable; protocols that
/// need structure (e.g. the GH dimension grouping) receive it at node
/// construction time.
///
/// A network also carries the fault model the engines consult
/// ([`Network::node_faulty`], [`Network::link_faulty`]): its two
/// implementations, [`HypercubeNet`] and [`GhNet`], overlay a concrete
/// fault configuration on the pure topologies.
pub trait Network {
    /// Number of nodes; addresses are `0..num_nodes`.
    fn num_nodes(&self) -> u64;

    /// Number of ports of node `a`.
    fn degree(&self, a: u64) -> usize;

    /// The node reached from `a` through port `p` (`p < degree(a)`).
    fn neighbor(&self, a: u64, p: usize) -> u64;

    /// The port of `a` that reaches `b`, or `None` when they are not
    /// adjacent. The default scans `a`'s ports; implementations with
    /// structure (e.g. binary cubes) override it with O(1) lookups.
    fn port_of(&self, a: u64, b: u64) -> Option<usize> {
        (0..self.degree(a)).find(|&p| self.neighbor(a, p) == b)
    }

    /// Whether node `a` is fault-stop dead (no actor, drops arrivals).
    fn node_faulty(&self, a: u64) -> bool;

    /// Whether the link `a ↔ b` is faulty (messages across it vanish).
    /// The default models no link faults.
    fn link_faulty(&self, _a: u64, _b: u64) -> bool {
        false
    }
}

/// A binary hypercube with its fault configuration: the [`Network`]
/// the cube-specific protocols hand to the event engine. Ports are
/// dimensions, so `port_of` is a single XOR.
pub struct HypercubeNet<'a> {
    cfg: &'a FaultConfig,
}

impl<'a> HypercubeNet<'a> {
    /// Wraps a fault configuration as an engine-ready network.
    pub fn new(cfg: &'a FaultConfig) -> Self {
        HypercubeNet { cfg }
    }

    /// The underlying fault configuration.
    pub fn config(&self) -> &'a FaultConfig {
        self.cfg
    }
}

impl Network for HypercubeNet<'_> {
    #[inline]
    fn num_nodes(&self) -> u64 {
        self.cfg.cube().num_nodes()
    }

    #[inline]
    fn degree(&self, _a: u64) -> usize {
        self.cfg.cube().dim() as usize
    }

    #[inline]
    fn neighbor(&self, a: u64, p: usize) -> u64 {
        a ^ (1 << p)
    }

    #[inline]
    fn port_of(&self, a: u64, b: u64) -> Option<usize> {
        let x = a ^ b;
        (x.count_ones() == 1).then(|| x.trailing_zeros() as usize)
    }

    #[inline]
    fn node_faulty(&self, a: u64) -> bool {
        self.cfg.node_faulty(NodeId::new(a))
    }

    #[inline]
    fn link_faulty(&self, a: u64, b: u64) -> bool {
        self.cfg
            .link_faults()
            .contains(NodeId::new(a), NodeId::new(b))
    }
}

/// A generalized hypercube with a node-fault overlay (the GH extension
/// models no link faults, matching §4.2).
pub struct GhNet<'a> {
    gh: &'a GeneralizedHypercube,
    faults: &'a FaultSet,
}

impl<'a> GhNet<'a> {
    /// Wraps a GH and its faulty-node set as an engine-ready network.
    pub fn new(gh: &'a GeneralizedHypercube, faults: &'a FaultSet) -> Self {
        GhNet { gh, faults }
    }

    /// The underlying topology.
    pub fn gh(&self) -> &'a GeneralizedHypercube {
        self.gh
    }
}

impl Network for GhNet<'_> {
    fn num_nodes(&self) -> u64 {
        self.gh.num_nodes()
    }

    fn degree(&self, _a: u64) -> usize {
        self.gh.degree() as usize
    }

    /// Ports are numbered dimension-major: dimension 0's `m_0 − 1`
    /// clique peers first (by ascending digit, skipping the node's own
    /// digit), then dimension 1's, and so on. Protocols that group an
    /// inbox by dimension rely on this order.
    fn neighbor(&self, a: u64, p: usize) -> u64 {
        let mut p = p;
        let node = hypersafe_topology::GhNode(a);
        for i in 0..self.gh.dim() {
            let peers = self.gh.radix(i) as usize - 1;
            if p < peers {
                let own = self.gh.digit(node, i);
                // The p-th peer digit, skipping `own`.
                let digit = if (p as u16) < own {
                    p as u16
                } else {
                    p as u16 + 1
                };
                return self.gh.with_digit(node, i, digit).raw();
            }
            p -= peers;
        }
        panic!("port out of range");
    }

    fn node_faulty(&self, a: u64) -> bool {
        self.faults.contains(NodeId::new(a))
    }
}

/// A per-node state machine driven by the synchronous engine.
pub trait SyncNode {
    /// The value exchanged with neighbors each round.
    type Msg: Clone;

    /// The value this node shares with *all* its neighbors this round.
    fn broadcast(&self) -> Self::Msg;

    /// Absorbs the neighbor values received this round as
    /// `(port, value)` pairs, in port order (only healthy neighbors
    /// behind usable links deliver; on a binary cube a port is a
    /// dimension). Returns `true` iff the node's state changed.
    fn receive(&mut self, inbox: &[(usize, Self::Msg)]) -> bool;
}

/// Fewest nodes in a chunk of a round's absorb. A round that fans out
/// spawns its scoped workers afresh, which costs about 35–60 µs on a
/// 2-vCPU Xeon, while one GS absorb costs 30–140 ns per node (more on
/// larger cubes). Timed per `run_gs` round there, one thread against
/// two: Q9 27 against 80 µs, Q11 124 against 142 µs, Q12 314 against
/// 282 µs. So a round splits only into chunks of at least this many
/// nodes, and smaller networks absorb in one chunk, inline.
const MIN_CHUNK_NODES: usize = 2048;

/// Synchronous round executor over the nonfaulty nodes of a
/// [`Network`].
///
/// Faulty nodes ([`Network::node_faulty`], read once at construction)
/// do not execute and do not send; messages across faulty links
/// ([`Network::link_faulty`], read on every edge) are not delivered.
/// Protocols that must still *account for* faulty neighbors (like GS,
/// where a faulty neighbor reads as safety level 0) read silence as
/// that value.
pub struct SyncEngine<'a, N: Network, S: SyncNode> {
    net: &'a N,
    nodes: Vec<Option<S>>,
    stats: SyncStats,
}

impl<'a, N: Network, S: SyncNode> SyncEngine<'a, N, S> {
    /// Builds the engine, instantiating a state machine for every
    /// nonfaulty node via `init`.
    pub fn new(net: &'a N, mut init: impl FnMut(NodeId) -> S) -> Self {
        let nodes = (0..net.num_nodes())
            .map(|a| (!net.node_faulty(a)).then(|| init(NodeId::new(a))))
            .collect();
        SyncEngine {
            net,
            nodes,
            stats: SyncStats::default(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SyncStats {
        &self.stats
    }

    /// Read access to a node's state machine (`None` for faulty nodes).
    pub fn node(&self, a: NodeId) -> Option<&S> {
        self.nodes[a.raw() as usize].as_ref()
    }

    /// Executes one lock-step round: every nonfaulty node broadcasts,
    /// then every nonfaulty node absorbs. Returns the number of nodes
    /// whose state changed.
    ///
    /// The absorb half is data-parallel by construction — every node
    /// reads only the immutable pre-round snapshot and writes only its
    /// own state — so it fans out across rayon workers in contiguous
    /// node-id chunks of at least `MIN_CHUNK_NODES` nodes (one chunk,
    /// run inline, below that). Results are bitwise-identical to sequential
    /// execution: per-chunk counters are committed in chunk order, and
    /// no node observes another's current-round update either way.
    pub fn run_round(&mut self) -> usize
    where
        N: Sync,
        S: Send,
        S::Msg: Sync,
    {
        use rayon::prelude::*;
        let net = self.net;
        // Snapshot phase: collect every node's outgoing value first so
        // that all receives observe pre-round state (parbegin/parend).
        let outgoing: Vec<Option<S::Msg>> = self
            .nodes
            .iter()
            .map(|n| n.as_ref().map(SyncNode::broadcast))
            .collect();

        let chunk_len = self
            .nodes
            .len()
            .div_ceil(rayon::num_threads())
            .max(MIN_CHUNK_NODES);
        let per_chunk: Vec<(usize, u64)> = self
            .nodes
            .par_chunks_mut(chunk_len)
            .enumerate()
            .map(|(ci, nodes)| {
                let base = ci * chunk_len;
                let mut changed = 0usize;
                let mut messages = 0u64;
                let mut inbox: Vec<(usize, S::Msg)> = Vec::new();
                for (off, slot) in nodes.iter_mut().enumerate() {
                    let Some(node) = slot.as_mut() else {
                        continue;
                    };
                    let a = (base + off) as u64;
                    inbox.clear();
                    for p in 0..net.degree(a) {
                        let b = net.neighbor(a, p);
                        if net.link_faulty(a, b) {
                            continue;
                        }
                        if let Some(msg) = &outgoing[b as usize] {
                            inbox.push((p, msg.clone()));
                            messages += 1;
                        }
                    }
                    if node.receive(&inbox) {
                        changed += 1;
                    }
                }
                (changed, messages)
            })
            .collect();

        let mut changed = 0usize;
        for (c, m) in per_chunk {
            changed += c;
            self.stats.messages += m;
        }
        self.stats.rounds_run += 1;
        if changed > 0 {
            self.stats.active_rounds += 1;
            self.stats.state_changes += changed as u64;
        }
        changed
    }

    /// Runs rounds until a fully quiescent round occurs or `max_rounds`
    /// have executed. Returns the number of *active* rounds (rounds in
    /// which some node changed) — the paper's Fig. 2 metric.
    pub fn run_until_stable(&mut self, max_rounds: u32) -> u32
    where
        N: Sync,
        S: Send,
        S::Msg: Sync,
    {
        for _ in 0..max_rounds {
            if self.run_round() == 0 {
                break;
            }
        }
        self.stats.active_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{GhNode, Hypercube};

    /// Toy protocol: every node computes min(own, neighbors) each round
    /// — converges to the global minimum in diameter rounds.
    struct MinNode {
        value: u64,
    }

    impl SyncNode for MinNode {
        type Msg = u64;

        fn broadcast(&self) -> u64 {
            self.value
        }

        fn receive(&mut self, inbox: &[(usize, u64)]) -> bool {
            let m = inbox.iter().map(|&(_, v)| v).min().unwrap_or(self.value);
            if m < self.value {
                self.value = m;
                true
            } else {
                false
            }
        }
    }

    fn min_engine<N: Network>(net: &N) -> SyncEngine<'_, N, MinNode> {
        SyncEngine::new(net, |a| MinNode { value: a.raw() })
    }

    fn value<N: Network>(eng: &SyncEngine<'_, N, MinNode>, a: u64) -> u64 {
        eng.node(NodeId::new(a)).expect("healthy").value
    }

    #[test]
    fn hypercube_net_ports_are_dimensions() {
        let cfg = FaultConfig::fault_free(Hypercube::new(4));
        let net = HypercubeNet::new(&cfg);
        assert_eq!(net.num_nodes(), 16);
        assert_eq!(net.degree(3), 4);
        assert_eq!(net.neighbor(0b0101, 1), 0b0111);
        assert_eq!(net.port_of(0b0101, 0b0111), Some(1));
        assert_eq!(net.port_of(0b0101, 0b0110), None);
    }

    #[test]
    fn gh_net_port_enumeration() {
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let faults = gh.fault_set();
        let net = GhNet::new(&gh, &faults);
        // degree = 1 + 2 + 1 = 4 ports.
        assert_eq!(net.degree(0), 4);
        let a = gh.parse("010").unwrap().raw();
        let neighbors: Vec<String> = (0..4)
            .map(|p| gh.format(GhNode(net.neighbor(a, p))))
            .collect();
        // Port 0: dim-0 peer; ports 1–2: dim-1 peers by ascending digit
        // (skipping own digit 1); port 3: dim-2 peer.
        assert_eq!(neighbors, vec!["011", "000", "020", "110"]);
    }

    #[test]
    fn min_converges_in_diameter_rounds() {
        let cube = Hypercube::new(5);
        let cfg = FaultConfig::fault_free(cube);
        let net = HypercubeNet::new(&cfg);
        let mut eng = min_engine(&net);
        let rounds = eng.run_until_stable(32);
        assert!(rounds <= 5, "diameter bound, got {rounds}");
        assert!((0..32).all(|a| value(&eng, a) == 0));
        // Message accounting: every active+quiescent round delivers
        // 2 · num_links messages.
        assert_eq!(
            eng.stats().messages,
            u64::from(eng.stats().rounds_run) * 2 * cube.num_links()
        );

        let gh = GeneralizedHypercube::from_product(&[3, 4]);
        let faults = gh.fault_set();
        let net = GhNet::new(&gh, &faults);
        let mut eng = min_engine(&net);
        let rounds = eng.run_until_stable(16);
        assert!(rounds <= 2, "GH diameter = #dims, got {rounds}");
        assert!((0..12).all(|a| value(&eng, a) == 0));
    }

    #[test]
    fn faulty_nodes_do_not_participate() {
        // Node 0 (the global min) is faulty on both overlays: the min
        // among the healthy nodes is 1.
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, &["000"]));
        let net = HypercubeNet::new(&cfg);
        let mut eng = min_engine(&net);
        eng.run_until_stable(16);
        assert!(eng.node(NodeId::new(0)).is_none());
        assert!((1..8).all(|a| value(&eng, a) == 1));

        let gh = GeneralizedHypercube::from_product(&[3, 4]);
        let mut faults = gh.fault_set();
        faults.insert(NodeId::new(0));
        let net = GhNet::new(&gh, &faults);
        let mut eng = min_engine(&net);
        eng.run_until_stable(16);
        assert!(eng.node(NodeId::new(0)).is_none());
        assert!((1..12).all(|a| value(&eng, a) == 1));
    }

    #[test]
    fn link_fault_blocks_exchange() {
        let cube = Hypercube::new(1);
        let mut cfg = FaultConfig::fault_free(cube);
        cfg.link_faults_mut().insert(NodeId::new(0), NodeId::new(1));
        let net = HypercubeNet::new(&cfg);
        let mut eng = min_engine(&net);
        eng.run_until_stable(8);
        // With the only link down, node 1 never learns of value 0.
        assert_eq!(value(&eng, 1), 1);
        assert_eq!(eng.stats().messages, 0);
    }

    #[test]
    fn one_round_is_a_full_exchange() {
        let cfg = FaultConfig::fault_free(Hypercube::new(3));
        let net = HypercubeNet::new(&cfg);
        let mut eng = min_engine(&net);
        eng.run_round();
        assert_eq!(eng.stats().messages, 8 * 3);

        let gh = GeneralizedHypercube::from_product(&[3, 4]);
        let faults = gh.fault_set();
        let net = GhNet::new(&gh, &faults);
        let mut eng = min_engine(&net);
        eng.run_round();
        assert_eq!(eng.stats().messages, 12 * (2 + 3));
    }

    /// Q13 is large enough to absorb in several chunks when the pool
    /// has threads; every round must match a plain sequential sweep.
    #[test]
    fn chunked_rounds_match_a_sequential_sweep() {
        let cube = Hypercube::new(13);
        let faulty = |a: u64| a.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58 == 0;
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_nodes(
                cube,
                (0..cube.num_nodes())
                    .filter(|&a| faulty(a))
                    .map(NodeId::new),
            ),
        );
        let net = HypercubeNet::new(&cfg);
        let start = |a: u64| a.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 40;
        let mut eng = SyncEngine::new(&net, |a| MinNode {
            value: start(a.raw()),
        });
        let mut want: Vec<Option<u64>> = (0..cube.num_nodes())
            .map(|a| (!faulty(a)).then(|| start(a)))
            .collect();
        loop {
            let next: Vec<Option<u64>> = (0..cube.num_nodes())
                .map(|a| {
                    let own = want[a as usize]?;
                    let best = (0..13).filter_map(|i| want[(a ^ 1 << i) as usize]).min();
                    Some(best.map_or(own, |m| m.min(own)))
                })
                .collect();
            let changed = next.iter().zip(&want).filter(|(x, y)| x != y).count();
            assert_eq!(eng.run_round(), changed);
            want = next;
            if changed == 0 {
                break;
            }
        }
        for a in 0..cube.num_nodes() {
            assert_eq!(eng.node(NodeId::new(a)).map(|n| n.value), want[a as usize]);
        }
    }

    #[test]
    fn quiescent_start_reports_zero_active_rounds() {
        let cfg = FaultConfig::fault_free(Hypercube::new(4));
        let net = HypercubeNet::new(&cfg);
        let mut eng = SyncEngine::new(&net, |_| MinNode { value: 7 });
        assert_eq!(eng.run_until_stable(10), 0);
        assert_eq!(eng.stats().rounds_run, 1, "one probe round");

        let gh = GeneralizedHypercube::from_product(&[2, 3]);
        let faults = gh.fault_set();
        let net = GhNet::new(&gh, &faults);
        let mut eng = SyncEngine::new(&net, |_| MinNode { value: 7 });
        assert_eq!(eng.run_until_stable(10), 0);
        assert_eq!(eng.stats().rounds_run, 1, "one probe round");
    }
}
