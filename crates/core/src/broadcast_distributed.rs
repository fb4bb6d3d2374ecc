//! The safety-level broadcast as a real message-passing protocol.
//!
//! [`crate::broadcast::broadcast`] evaluates the broadcast tree
//! centrally; here each node is an actor that receives
//! `(payload, responsibility set)` and forwards sub-ranges to its
//! children ordered by their safety level — the same algorithm, with
//! the centralized builder's child order and relay choice, executed
//! hop by hop on the discrete-event engine. The test suite checks both
//! implementations agree on the received set, message count,
//! completion time and relay.

use crate::broadcast::{order_children, relay, BroadcastResult};
use crate::safety::{Level, SafetyMap};
use crate::unicast_distributed::idle_report;
use hypersafe_simkit::{Actor, Ctx, EventEngine, Net, RunOptions, RunReport, Time};
use hypersafe_topology::{FaultConfig, NodeId, Topology};

/// A broadcast message: the dimension set the receiver becomes
/// responsible for (as a bitmask).
#[derive(Clone, Copy, Debug)]
pub struct BcastMsg {
    /// Remaining responsibility dimensions.
    pub dims: u64,
}

/// Per-node broadcast actor.
pub struct BcastNode {
    /// Neighbor levels by dimension (local knowledge after GS).
    neighbor_levels: Vec<Level>,
    /// Set when the message arrives (virtual time).
    pub received_at: Option<Time>,
    /// Role at start: `Some(dims)` for the origin.
    start: Option<u64>,
    latency: Time,
}

const START_TAG: u64 = 0xB0;

impl BcastNode {
    fn new(map: &SafetyMap, cfg: &FaultConfig, me: NodeId, latency: Time) -> Self {
        BcastNode {
            neighbor_levels: cfg.cube().neighbours(me).map(|b| map.level(b)).collect(),
            received_at: None,
            start: None,
            latency,
        }
    }

    fn fan_out(&self, ctx: &mut Ctx<BcastMsg>, dims: u64) {
        let mut order: Vec<u8> = hypersafe_topology::BitDims(dims).collect();
        order_children(&mut order, &self.neighbor_levels);
        let mut remaining = dims;
        for &i in &order {
            remaining &= !(1u64 << i);
            ctx.send(
                ctx.self_id().neighbor(i),
                BcastMsg { dims: remaining },
                self.latency,
            );
        }
    }
}

impl Actor for BcastNode {
    type Msg = BcastMsg;

    fn on_timer(&mut self, ctx: &mut Ctx<BcastMsg>, tag: u64) {
        if tag != START_TAG {
            return;
        }
        if let Some(dims) = self.start.take() {
            self.received_at = Some(ctx.now());
            self.fan_out(ctx, dims);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<BcastMsg>, _from: NodeId, msg: BcastMsg) {
        if self.received_at.is_none() {
            self.received_at = Some(ctx.now());
        }
        self.fan_out(ctx, msg.dims);
    }
}

/// Runs the broadcast from `source` as a distributed protocol
/// (per-hop `latency`) under `opts`, assuming a converged safety map.
/// Handles the safe-relay case exactly like the centralized version:
/// an unsafe source with a safe neighbor hands the whole dimension set
/// to it. The protocol has no engine invariant, so `opts.check` has
/// nothing to check. A source outside the cube gets the empty result,
/// and no engine is built.
pub fn run_broadcast(
    cfg: &FaultConfig,
    map: &SafetyMap,
    source: NodeId,
    latency: Time,
    opts: RunOptions,
) -> (BroadcastResult, RunReport) {
    let cube = cfg.cube();
    let n = cube.dim();
    if !cube.contains(source) {
        let empty = BroadcastResult::from_parts(vec![false; cube.num_nodes() as usize], 0, 0, None);
        return (empty, idle_report());
    }
    let latency = latency.max(1);
    let all_dims = (1u64 << n) - 1;

    let relayed_via = if cfg.node_faulty(source) {
        None
    } else {
        relay(cube, map.store(), source)
    };
    let origin = relayed_via.unwrap_or(source);

    let net = Net::cube(cfg);
    let init = |a| {
        let mut node = BcastNode::new(map, cfg, a, latency);
        if a == origin && !cfg.node_faulty(origin) {
            node.start = Some(all_dims);
        }
        node
    };
    let start = |eng: &mut EventEngine<'_, _, _>| {
        if !cfg.node_faulty(origin) {
            // The relay handoff costs one message/hop before the tree
            // starts; model it as a delayed start.
            let delay = if relayed_via.is_some() { latency } else { 0 };
            eng.inject(origin, START_TAG, delay);
        }
    };
    let (eng, report) = EventEngine::drive(&net, opts, init, start, None);

    let mut received = vec![false; cube.num_nodes() as usize];
    let mut steps = 0u32;
    for a in cube.nodes() {
        if let Some(node) = eng.actor(a) {
            if let Some(t) = node.received_at {
                received[a.raw() as usize] = true;
                steps = steps.max((t / latency) as u32);
            }
        }
    }
    // The source itself counts as covered (it originated the payload).
    if !cfg.node_faulty(source) {
        received[source.raw() as usize] = true;
    }
    let messages = eng.stats().delivered + eng.stats().dropped + relayed_via.is_some() as u64;
    let result = BroadcastResult::from_parts(received, messages, steps, relayed_via);
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::broadcast;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
    }

    fn fig1() -> (FaultConfig, SafetyMap) {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]),
        );
        let map = SafetyMap::compute(&cfg);
        (cfg, map)
    }

    /// The two broadcasts agree on the received set, messages, steps
    /// and relay.
    fn assert_agree(cfg: &FaultConfig, map: &SafetyMap, s: NodeId, what: &str) {
        let central = broadcast(cfg, map, s);
        let dist = run_broadcast(cfg, map, s, 1, RunOptions::default()).0;
        let got = |r: &BroadcastResult| {
            cfg.cube()
                .nodes()
                .filter(|&a| r.received(a))
                .collect::<Vec<_>>()
        };
        assert_eq!(got(&central), got(&dist), "{what}");
        assert_eq!(central.messages, dist.messages, "{what}");
        assert_eq!(central.steps, dist.steps, "{what}");
        assert_eq!(central.relayed_via, dist.relayed_via, "{what}");
    }

    #[test]
    fn distributed_matches_centralized_on_fig1() {
        let (cfg, map) = fig1();
        for s in cfg.healthy_nodes() {
            assert_agree(&cfg, &map, s, &format!("source {s}"));
        }
    }

    #[test]
    fn distributed_matches_centralized_exhaustive_q3() {
        let cube = Hypercube::new(3);
        for mask in 0u64..256 {
            let mut f = FaultSet::new(cube);
            for i in 0..8 {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            let map = SafetyMap::compute(&cfg);
            for s in cfg.healthy_nodes() {
                assert_agree(&cfg, &map, s, &format!("mask {mask:#b} source {s}"));
            }
        }
    }

    #[test]
    fn arrival_times_respect_tree_depth() {
        let cube = Hypercube::new(5);
        let cfg = FaultConfig::fault_free(cube);
        let map = SafetyMap::compute(&cfg);
        let r = run_broadcast(&cfg, &map, n("00000"), 3, RunOptions::default()).0;
        assert!(r.complete(cfg.node_faults()));
        assert_eq!(r.steps, 5, "binomial depth in latency units");
    }

    #[test]
    fn faulty_source_stays_silent() {
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, &["000"]));
        let map = SafetyMap::compute(&cfg);
        let r = run_broadcast(&cfg, &map, NodeId::ZERO, 1, RunOptions::default()).0;
        assert_eq!(r.coverage(), 0);
    }
}
