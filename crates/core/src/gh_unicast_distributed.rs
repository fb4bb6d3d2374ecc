//! GH unicasting as a distributed protocol on the unified event
//! engine (over [`GhNet`]) — the §4.2 routing run message-by-message,
//! completing the
//! "every algorithm has a centralized evaluation *and* a real
//! protocol execution" invariant of this workspace.
//!
//! Each node holds only local knowledge: the topology handle, its own
//! level, and its neighbors' levels. The message carries the
//! destination (GH has no compact navigation vector; the digit
//! difference *is* the remaining work) plus a hop trail for
//! measurement.

use crate::gh_safety::GhSafetyMap;
use crate::gh_unicast::gh_source_decision;
use crate::safety::Level;
use crate::unicast::{rule_at_hop, rule_at_source, Decision, LevelView, SourceStep, TieBreak};
use hypersafe_simkit::{Actor, Ctx, EventEngine, GhNet, Time};
use hypersafe_topology::{GeneralizedHypercube, GhNode, NodeId};
use std::sync::Arc;

/// A GH unicast in flight.
#[derive(Clone, Debug)]
pub struct GhMsg {
    /// Final destination.
    pub dest: GhNode,
    /// Nodes visited so far, including the source.
    pub trail: Vec<GhNode>,
}

/// Per-node actor.
pub struct GhUnicastNode {
    gh: Arc<GeneralizedHypercube>,
    /// The node's local table after GH-GS.
    levels: GhPeerLevels,
    /// Set when a message for this node arrives.
    pub received: Option<GhMsg>,
    start: Option<GhNode>,
    latency: Time,
}

const START_TAG: u64 = 0x64;

/// A GH node's own level and the level of every clique peer, laid out
/// dimension by dimension, each clique in digit order (the node's own
/// slot in each clique holds its own level).
struct GhPeerLevels {
    own: Level,
    by_port: Vec<Level>,
}

impl GhPeerLevels {
    fn new(gh: &GeneralizedHypercube, map: &GhSafetyMap, me: GhNode) -> Self {
        let by_port = (0..gh.dim())
            .flat_map(|i| (0..gh.radix(i)).map(move |v| (i, v)))
            .map(|(i, v)| map.level(gh.with_digit(me, i, v)))
            .collect();
        GhPeerLevels {
            own: map.level(me),
            by_port,
        }
    }
}

/// An actor's peer table as the §3 rule reads it.
struct GhPeerView<'a> {
    gh: &'a GeneralizedHypercube,
    levels: &'a GhPeerLevels,
}

impl<'a> LevelView for GhPeerView<'a> {
    type Space = &'a GeneralizedHypercube;

    fn space(&self) -> &'a GeneralizedHypercube {
        self.gh
    }

    fn own_level(&self, _: GhNode) -> Level {
        self.levels.own
    }

    fn level_across(&self, _: GhNode, (i, v): (u8, u16)) -> Level {
        let start: usize = (0..i).map(|j| self.gh.radix(j) as usize).sum();
        self.levels.by_port[start + v as usize]
    }
}

impl GhUnicastNode {
    fn new(gh: Arc<GeneralizedHypercube>, map: &GhSafetyMap, me: GhNode, latency: Time) -> Self {
        GhUnicastNode {
            levels: GhPeerLevels::new(&gh, map, me),
            gh,
            received: None,
            start: None,
            latency,
        }
    }

    fn view(&self) -> GhPeerView<'_> {
        GhPeerView {
            gh: &self.gh,
            levels: &self.levels,
        }
    }

    fn forward(&self, ctx: &mut Ctx<GhMsg>, mut msg: GhMsg, at: GhNode, port: (u8, u16)) {
        let next = self.gh.with_digit(at, port.0, port.1);
        msg.trail.push(next);
        ctx.send(NodeId::new(next.raw()), msg, self.latency);
    }
}

impl Actor for GhUnicastNode {
    type Msg = GhMsg;

    fn on_timer(&mut self, ctx: &mut Ctx<GhMsg>, tag: u64) {
        if tag != START_TAG {
            return;
        }
        let Some(d) = self.start.take() else { return };
        let s = GhNode(ctx.self_id().raw());
        let msg = GhMsg {
            dest: d,
            trail: vec![s],
        };
        match rule_at_source(&self.view(), s, d, TieBreak::LowestDim) {
            SourceStep::AlreadyThere => self.received = Some(msg),
            SourceStep::Leave(_, port) => self.forward(ctx, msg, s, port),
            // Local failure, nothing sent.
            SourceStep::Failure => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<GhMsg>, _from: NodeId, msg: GhMsg) {
        let me = GhNode(ctx.self_id().raw());
        match rule_at_hop(&self.view(), me, msg.dest, TieBreak::LowestDim) {
            Some(port) => self.forward(ctx, msg, me, port),
            None => self.received = Some(msg),
        }
    }
}

/// Outcome of a distributed GH unicast.
#[derive(Clone, Debug)]
pub struct GhDistributedRun {
    /// The source's local decision (recomputed for reporting).
    pub decision: Decision,
    /// Trail recorded at the destination, if delivered.
    pub trail: Option<Vec<GhNode>>,
    /// Messages delivered.
    pub messages: u64,
}

/// Runs one GH unicast `s → d` as a distributed protocol. An endpoint
/// outside `gh` gives a `Failure` run with no messages, and no engine
/// is built.
pub fn run_gh_unicast(
    gh: &GeneralizedHypercube,
    map: &GhSafetyMap,
    faults: &hypersafe_topology::FaultSet,
    s: GhNode,
    d: GhNode,
    latency: Time,
) -> GhDistributedRun {
    if !(gh.contains(s) && gh.contains(d)) {
        return GhDistributedRun {
            decision: Decision::Failure,
            trail: None,
            messages: 0,
        };
    }
    let gh_arc = Arc::new(gh.clone());
    let net = GhNet::new(gh, faults);
    let mut eng = EventEngine::new(&net, |a| {
        let mut node = GhUnicastNode::new(gh_arc.clone(), map, GhNode(a.raw()), latency.max(1));
        if a.raw() == s.raw() {
            node.start = Some(d);
        }
        node
    });
    eng.inject(NodeId::new(s.raw()), START_TAG, 0);
    eng.run(u64::MAX);
    GhDistributedRun {
        decision: gh_source_decision(gh, map, s, d),
        trail: eng
            .actor(NodeId::new(d.raw()))
            .and_then(|n| n.received.as_ref())
            .map(|m| m.trail.clone()),
        messages: eng.stats().delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gh_unicast::gh_route;

    fn fig5_like() -> (
        GeneralizedHypercube,
        hypersafe_topology::FaultSet,
        GhSafetyMap,
    ) {
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let f = gh.fault_set_from_strs(&["011", "100", "111", "121"]);
        let map = GhSafetyMap::compute(&gh, &f);
        (gh, f, map)
    }

    #[test]
    fn distributed_matches_centralized_on_fig5_instance() {
        let (gh, f, map) = fig5_like();
        let healthy: Vec<GhNode> = gh
            .nodes()
            .filter(|a| !f.contains(NodeId::new(a.raw())))
            .collect();
        for &s in &healthy {
            for &d in &healthy {
                let central = gh_route(&gh, &map, &f, s, d);
                let dist = run_gh_unicast(&gh, &map, &f, s, d, 1);
                assert_eq!(
                    central.decision,
                    dist.decision,
                    "{} → {}",
                    gh.format(s),
                    gh.format(d)
                );
                match (central.delivered, &dist.trail) {
                    (true, Some(trail)) => {
                        assert_eq!(
                            central.nodes.as_deref().unwrap(),
                            trail.as_slice(),
                            "{} → {}: hop-for-hop agreement",
                            gh.format(s),
                            gh.format(d)
                        );
                    }
                    (false, None) => {}
                    (c, t) => panic!(
                        "{} → {}: centralized={c} distributed={t:?}",
                        gh.format(s),
                        gh.format(d)
                    ),
                }
            }
        }
    }

    #[test]
    fn mixed_radix_fault_free_optimal() {
        let gh = GeneralizedHypercube::new(&[3, 4, 2]);
        let f = gh.fault_set();
        let map = GhSafetyMap::compute(&gh, &f);
        let s = GhNode(0);
        let d = GhNode(gh.num_nodes() - 1);
        let run = run_gh_unicast(&gh, &map, &f, s, d, 1);
        let trail = run.trail.expect("delivered");
        assert_eq!(trail.len() as u32 - 1, gh.distance(s, d));
        assert_eq!(run.messages as u32, gh.distance(s, d));
    }

    #[test]
    fn failure_sends_nothing() {
        // GH(2,2): fault both neighbors of node 0 → every unicast from
        // it fails locally with zero traffic.
        let gh = GeneralizedHypercube::new(&[2, 2]);
        let mut f = gh.fault_set();
        f.insert(NodeId::new(1));
        f.insert(NodeId::new(2));
        let map = GhSafetyMap::compute(&gh, &f);
        let run = run_gh_unicast(&gh, &map, &f, GhNode(0), GhNode(3), 1);
        assert_eq!(run.decision, Decision::Failure);
        assert_eq!(run.trail, None);
        assert_eq!(run.messages, 0);
    }
}
