//! The unicasting algorithm executed as an actual distributed protocol
//! on the discrete-event engine.
//!
//! [`crate::unicast::route`] simulates the algorithm centrally (fast,
//! used by the Monte-Carlo experiments); this module runs it for real:
//! each node is an actor holding only its own safety level and its
//! neighbors' levels (the paper's locality assumption), messages carry
//! `(payload, navigation vector)`, and the destination raises a flag on
//! arrival. The test suite checks the two implementations take the
//! same path hop for hop — evidence that the centralized shortcut is
//! faithful.

use crate::navigation::NavVector;
use crate::properties::{check_exactly_once, Violation, ARQ_EXACTLY_ONCE};
use crate::safety::{Level, SafetyMap};
use crate::unicast::{source_decision, Decision};
use hypersafe_simkit::{
    Actor, Ctx, EventEngine, EventStats, HypercubeNet, Invariant, RelCtx, Reliable, ReliableActor,
    ReliableConfig, RunOptions, RunReport, Time,
};
use hypersafe_topology::{FaultConfig, NodeId};

/// Preferred-dimension choice shared by the lossless and lossy actors:
/// the preferred neighbor with the highest safety level (first such
/// dimension on ties).
fn best_preferred(neighbor_levels: &[Level], nav: NavVector) -> Option<u8> {
    let mut best: Option<(u8, Level)> = None;
    for i in nav.preferred_dims() {
        let lv = neighbor_levels[i as usize];
        match best {
            Some((_, b)) if b >= lv => {}
            _ => best = Some((i, lv)),
        }
    }
    best.map(|(i, _)| i)
}

/// C3's spare choice: the spare neighbor with the highest level, kept
/// only if that level exceeds `h` (level ≥ H + 1).
fn best_spare(neighbor_levels: &[Level], n: u8, nav: NavVector, h: u16) -> Option<u8> {
    let mut best: Option<(u8, Level)> = None;
    for i in nav.spare_dims(n) {
        let lv = neighbor_levels[i as usize];
        if (lv as u16) > h {
            match best {
                Some((_, b)) if b >= lv => {}
                _ => best = Some((i, lv)),
            }
        }
    }
    best.map(|(i, _)| i)
}

/// `UNICASTING_AT_SOURCE_NODE`, evaluated from purely local state:
/// the dimension of the first hop, or `None` when C1–C3 all fail.
fn source_first_dim(
    own_level: Level,
    neighbor_levels: &[Level],
    n: u8,
    nav: NavVector,
) -> Option<u8> {
    let h = nav.remaining() as u16;
    debug_assert!(h > 0);
    let c1 = (own_level as u16) >= h;
    let best_pref = best_preferred(neighbor_levels, nav);
    let c2 = best_pref.is_some_and(|i| (neighbor_levels[i as usize] as u16) + 1 >= h);
    if c1 || c2 {
        return Some(best_pref.expect("h ≥ 1"));
    }
    best_spare(neighbor_levels, n, nav, h)
}

/// A unicast message in flight: the navigation vector plus the hop
/// trail (the trail is measurement instrumentation, not protocol state
/// — the algorithm itself reads only the vector).
#[derive(Clone, Debug)]
pub struct UnicastMsg {
    /// Navigation vector after the hop that delivered this message.
    pub nav: NavVector,
    /// Nodes visited so far, including the source.
    pub trail: Vec<NodeId>,
}

/// Per-node actor: local safety knowledge plus delivery flag.
pub struct UnicastNode {
    n: u8,
    /// Own level and the levels of the `n` neighbors, by dimension —
    /// exactly the information the paper's algorithm requires a node
    /// to hold after GS.
    own_level: Level,
    neighbor_levels: Vec<Level>,
    /// Set when this node receives a message with a zero vector.
    pub received: Option<UnicastMsg>,
    /// Pending unicast to start from this node: `(destination)`.
    start: Option<NodeId>,
    latency: Time,
}

impl UnicastNode {
    fn new(map: &SafetyMap, cfg: &FaultConfig, me: NodeId, latency: Time) -> Self {
        let cube = cfg.cube();
        UnicastNode {
            n: cube.dim(),
            own_level: map.level(me),
            neighbor_levels: cube.neighbors(me).map(|b| map.level(b)).collect(),
            received: None,
            start: None,
            latency,
        }
    }

    fn forward(&self, ctx: &mut Ctx<UnicastMsg>, mut msg: UnicastMsg, dim: u8) {
        let next = ctx.self_id().neighbor(dim);
        msg.nav = msg.nav.after_hop(dim);
        msg.trail.push(next);
        ctx.send(next, msg, self.latency);
    }
}

/// Timer tag used to kick off a unicast at the source.
pub(crate) const START_TAG: u64 = 0xCAFE;

impl Actor for UnicastNode {
    type Msg = UnicastMsg;

    fn on_timer(&mut self, ctx: &mut Ctx<UnicastMsg>, tag: u64) {
        if tag != START_TAG {
            return;
        }
        let Some(d) = self.start.take() else { return };
        let s = ctx.self_id();
        let nav = NavVector::new(s, d);
        if nav.is_done() {
            self.received = Some(UnicastMsg {
                nav,
                trail: vec![s],
            });
            return;
        }
        if let Some(dim) = source_first_dim(self.own_level, &self.neighbor_levels, self.n, nav) {
            self.forward(
                ctx,
                UnicastMsg {
                    nav,
                    trail: vec![s],
                },
                dim,
            );
        }
        // else: failure detected locally; nothing is sent.
    }

    fn on_message(&mut self, ctx: &mut Ctx<UnicastMsg>, _from: NodeId, msg: UnicastMsg) {
        if msg.nav.is_done() {
            // UNICASTING_AT_INTERMEDIATE_NODE: N = 0 → we are the
            // destination.
            self.received = Some(msg);
            return;
        }
        if let Some(dim) = best_preferred(&self.neighbor_levels, msg.nav) {
            self.forward(ctx, msg, dim);
        }
    }
}

/// Outcome of a distributed unicast run.
#[derive(Clone, Debug)]
pub struct DistributedRun {
    /// The source's (purely local) decision, recomputed for reporting.
    pub decision: Decision,
    /// Trail recorded at the destination, if the message arrived.
    pub trail: Option<Vec<NodeId>>,
    /// Virtual time of arrival (hops × latency).
    pub arrival_time: Option<Time>,
    /// Messages delivered in the run.
    pub messages: u64,
}

/// Runs one unicast `s → d` as a distributed protocol over `cfg`,
/// with per-hop `latency`, under `opts`. The safety map must already be
/// converged (run GS first). The actor assumes reliable links:
/// reorder/stretch adversaries only, and lossy channels belong with
/// [`run_unicast_lossy`]. The protocol has no engine invariant, so
/// `opts.check` has nothing to check.
pub fn run_unicast(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    latency: Time,
    opts: RunOptions,
) -> (DistributedRun, RunReport) {
    let latency = latency.max(1);
    let net = HypercubeNet::new(cfg);
    let init = |a| {
        let mut node = UnicastNode::new(map, cfg, a, latency);
        if a == s {
            node.start = Some(d);
        }
        node
    };
    let (eng, report) = EventEngine::drive(&net, opts, init, |e| e.inject(s, START_TAG, 0), None);
    let messages = eng.stats().delivered;
    let arrival = eng.stats().end_time;
    let received = eng
        .actor(d)
        .and_then(|n| n.received.as_ref())
        .map(|m| m.trail.clone());
    let run = DistributedRun {
        decision: source_decision(map, s, d),
        arrival_time: received.as_ref().map(|_| arrival),
        trail: received,
        messages,
    };
    (run, report)
}

/// How a unicast over a lossy channel ended — the widened taxonomy the
/// robustness experiments report on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LossyOutcome {
    /// The destination got exactly one copy.
    Delivered {
        /// Total retransmissions spent across the whole path (data and
        /// forwarded hops alike).
        retransmits: u64,
        /// Virtual time of first arrival at the destination.
        delay: Time,
    },
    /// The event budget ran out with events still queued, before the
    /// run resolved.
    TimedOut,
    /// A node found no feasible continuation (C1–C3 failed at the
    /// source, or no preferred neighbor remained at an intermediate).
    AbortedAt(NodeId),
    /// The reliable layer exhausted its retries handing the message to
    /// this next-hop node: the would-be holder is silent (dead or
    /// unreachable), so the message died with the handoff.
    HolderFailed(NodeId),
}

/// Result of a unicast run over a lossy channel.
#[derive(Clone, Debug)]
pub struct LossyRun {
    /// How the run ended.
    pub outcome: LossyOutcome,
    /// The source's local decision, recomputed for reporting.
    pub decision: Decision,
    /// Trail recorded at the destination, if the message arrived.
    pub trail: Option<Vec<NodeId>>,
    /// Engine statistics: lost / duplicated / retransmitted / acked.
    pub stats: EventStats,
    /// Copies surfaced to actors beyond the first, summed over all
    /// nodes. The reliable layer's duplicate suppression guarantees
    /// this is 0; it is reported so tests can assert it.
    pub duplicate_deliveries: u64,
}

/// [`UnicastNode`]'s logic behind the reliable layer, with the
/// bookkeeping the widened outcome taxonomy needs. Crate-visible so
/// the model checker ([`crate::mc_unicast_arq`]) can inspect it.
#[derive(Clone)]
pub(crate) struct LossyUnicastNode {
    n: u8,
    own_level: Level,
    neighbor_levels: Vec<Level>,
    pub(crate) received: Option<UnicastMsg>,
    pub(crate) received_at: Option<Time>,
    /// Unicast payloads surfaced to this node (≥ 2 would mean the
    /// reliable layer leaked a duplicate).
    pub(crate) receives: u64,
    /// Set when this node found no feasible next hop.
    pub(crate) aborted: bool,
    pub(crate) start: Option<NodeId>,
}

impl LossyUnicastNode {
    pub(crate) fn new(map: &SafetyMap, cfg: &FaultConfig, me: NodeId) -> Self {
        let cube = cfg.cube();
        LossyUnicastNode {
            n: cube.dim(),
            own_level: map.level(me),
            neighbor_levels: cube.neighbors(me).map(|b| map.level(b)).collect(),
            received: None,
            received_at: None,
            receives: 0,
            aborted: false,
            start: None,
        }
    }

    fn forward(&self, ctx: &mut RelCtx<UnicastMsg>, mut msg: UnicastMsg, dim: u8) {
        let next = ctx.self_id().neighbor(dim);
        msg.nav = msg.nav.after_hop(dim);
        msg.trail.push(next);
        ctx.send_reliable(next, msg);
    }
}

impl hypersafe_simkit::StateHash for UnicastMsg {
    fn state_hash(&self, h: &mut hypersafe_simkit::McHasher) {
        h.write_u64(self.nav.0);
        self.trail.state_hash(h);
    }
}

/// Canonical protocol state for the model checker: the delivery /
/// abort / pending-start flags and what was received. `received_at`
/// is a timestamp (timing detail the untimed checker abstracts away)
/// and the level tables are static per safety map — all excluded.
impl hypersafe_simkit::StateHash for LossyUnicastNode {
    fn state_hash(&self, h: &mut hypersafe_simkit::McHasher) {
        self.received.state_hash(h);
        h.write_u64(self.receives);
        h.write_bytes(&[self.aborted as u8]);
        self.start.state_hash(h);
    }
}

impl ReliableActor for LossyUnicastNode {
    type Msg = UnicastMsg;

    fn on_timer(&mut self, ctx: &mut RelCtx<UnicastMsg>, tag: u64) {
        if tag != START_TAG {
            return;
        }
        let Some(d) = self.start.take() else { return };
        let s = ctx.self_id();
        let nav = NavVector::new(s, d);
        if nav.is_done() {
            self.received = Some(UnicastMsg {
                nav,
                trail: vec![s],
            });
            self.received_at = Some(ctx.now());
            return;
        }
        match source_first_dim(self.own_level, &self.neighbor_levels, self.n, nav) {
            Some(dim) => self.forward(
                ctx,
                UnicastMsg {
                    nav,
                    trail: vec![s],
                },
                dim,
            ),
            None => self.aborted = true,
        }
    }

    fn on_message(&mut self, ctx: &mut RelCtx<UnicastMsg>, _from: NodeId, msg: UnicastMsg) {
        self.receives += 1;
        if msg.nav.is_done() {
            if self.received.is_none() {
                self.received_at = Some(ctx.now());
                self.received = Some(msg);
            }
            return;
        }
        if self.receives > 1 {
            // A duplicate surfaced (should never happen): forwarding it
            // again would fork the unicast, so refuse.
            return;
        }
        match best_preferred(&self.neighbor_levels, msg.nav) {
            Some(dim) => self.forward(ctx, msg, dim),
            None => self.aborted = true,
        }
    }
}

/// Engine invariant for reliable unicast: the [`check_exactly_once`]
/// adapter, checked at every quiescent point (not just at the end, so
/// a transient duplicate that a later event would mask still fails the
/// run). The model checker runs the same predicate over every reached
/// state.
pub struct ArqSingleDelivery;

impl ArqSingleDelivery {
    /// [`check_exactly_once`] over the actors of one cut.
    pub(crate) fn check_actors<'x>(
        actors: impl Iterator<Item = (NodeId, &'x Reliable<LossyUnicastNode>)>,
    ) -> Result<(), Violation> {
        check_exactly_once(actors.map(|(a, r)| (a, r.inner.receives.saturating_sub(1))))
    }
}

impl<'n> Invariant<HypercubeNet<'n>, Reliable<LossyUnicastNode>> for ArqSingleDelivery {
    fn name(&self) -> &'static str {
        ARQ_EXACTLY_ONCE
    }

    fn check(
        &mut self,
        eng: &EventEngine<'_, HypercubeNet<'n>, Reliable<LossyUnicastNode>>,
    ) -> Result<(), String> {
        Self::check_actors(eng.actors_iter()).map_err(|v| v.detail)
    }
}

/// Runs one unicast `s → d` with per-hop `latency` and reliable
/// per-hop delivery (`rcfg`) under `opts` (typically a lossy
/// `opts.channel` and an event budget `opts.max_events`), checking
/// [`ArqSingleDelivery`] when `opts.check` is set.
/// The safety map must already be converged — pair with
/// [`crate::gs::run_gs_reliable`] for an end-to-end lossy stack. The
/// ARQ layer absorbs loss/duplication-bursting adversaries too
/// ([`hypersafe_simkit::AdversarialScheduler::from_seed`]).
///
/// Delivery guarantee: whenever the centralized [`crate::unicast::route`]
/// says the pair is feasible and no reliable link exhausts its retries,
/// the outcome is [`LossyOutcome::Delivered`] — each hop's handoff is
/// exactly-once, so the lossless hop-by-hop argument (Theorem 2)
/// carries over unchanged.
///
/// When `opts.observe` is set and the message arrives, the registry's
/// `hops` histogram records the trail length and its `rounds`
/// histogram the end-to-end delay in ticks.
pub fn run_unicast_lossy(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    latency: Time,
    rcfg: ReliableConfig,
    opts: RunOptions,
) -> (LossyRun, RunReport) {
    let latency = latency.max(1);
    let n = cfg.cube().dim();
    let net = HypercubeNet::new(cfg);
    let init = |a| {
        let mut inner = LossyUnicastNode::new(map, cfg, a);
        if a == s {
            inner.start = Some(d);
        }
        Reliable::new(inner, a, n, latency, rcfg)
    };
    let mut once = opts.check.then_some(ArqSingleDelivery);
    let (eng, mut report) = EventEngine::drive(
        &net,
        opts,
        init,
        |e| e.inject(s, START_TAG, 0),
        once.as_mut().map(|i| i as _),
    );
    let run = collect_lossy(cfg, map, s, d, &eng, report.drained);
    if let Some(m) = &mut report.metrics {
        if let Some(trail) = &run.trail {
            m.record_hops(trail.len().saturating_sub(1) as u64);
        }
        if let LossyOutcome::Delivered { delay, .. } = run.outcome {
            m.record_rounds(delay);
        }
    }
    (run, report)
}

/// Resolves a finished (or budget-exhausted) reliable unicast engine
/// into the [`LossyRun`] taxonomy; `drained` is the driver's
/// queue-drained flag.
fn collect_lossy(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    eng: &EventEngine<'_, HypercubeNet<'_>, Reliable<LossyUnicastNode>>,
    drained: bool,
) -> LossyRun {
    let stats = eng.stats().clone();
    let received = eng.actor(d).and_then(|r| r.inner.received.clone());
    let received_at = eng.actor(d).and_then(|r| r.inner.received_at);
    let mut aborted_at = None;
    let mut holder_failed = None;
    let mut duplicate_deliveries = 0;
    for a in cfg.healthy_nodes() {
        let Some(r) = eng.actor(a) else { continue };
        if r.inner.aborted && aborted_at.is_none() {
            aborted_at = Some(a);
        }
        if holder_failed.is_none() {
            if let Some(&dim) = r.endpoint.gave_up_dims().first() {
                holder_failed = Some(a.neighbor(dim));
            }
        }
        // A node killed mid-run *after* it accepted the message (its
        // handoff completed, so no sender ever gives up on it) took the
        // message to its grave — its frozen post-mortem state is the
        // only witness.
        if holder_failed.is_none() && eng.is_dead(a) && r.inner.receives > 0 {
            holder_failed = Some(a);
        }
        duplicate_deliveries += r.inner.receives.saturating_sub(1);
    }

    let outcome = if let Some(delay) = received_at {
        LossyOutcome::Delivered {
            retransmits: stats.retransmitted,
            delay,
        }
    } else if let Some(a) = aborted_at {
        LossyOutcome::AbortedAt(a)
    } else if let Some(h) = holder_failed {
        LossyOutcome::HolderFailed(h)
    } else if !drained {
        LossyOutcome::TimedOut
    } else {
        // Queue drained with no arrival, no abort, no give-up: the
        // start event found nothing to do (s == d handled above).
        LossyOutcome::AbortedAt(s)
    };
    LossyRun {
        outcome,
        decision: source_decision(map, s, d),
        trail: received.map(|m| m.trail),
        stats,
        duplicate_deliveries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unicast::route;
    use hypersafe_simkit::ChannelModel;
    use hypersafe_topology::{FaultSet, Hypercube};

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
    fn distributed_matches_centralized_on_fig1_pairs() {
        let (cfg, map) = fig1();
        for s in cfg.healthy_nodes() {
            for d in cfg.healthy_nodes() {
                let central = route(&cfg, &map, s, d);
                let dist = run_unicast(&cfg, &map, s, d, 1, RunOptions::default()).0;
                assert_eq!(central.decision, dist.decision, "{s} → {d}");
                match (central.delivered, &dist.trail) {
                    (true, Some(trail)) => {
                        assert_eq!(
                            central.path.as_ref().unwrap().nodes(),
                            trail.as_slice(),
                            "{s} → {d}: same hop-for-hop path"
                        );
                    }
                    (false, None) => {}
                    (c, t) => panic!("{s} → {d}: centralized={c} distributed={t:?}"),
                }
            }
        }
    }

    #[test]
    fn arrival_time_is_hops_times_latency() {
        let (cfg, map) = fig1();
        let run = run_unicast(&cfg, &map, n("1110"), n("0001"), 5, RunOptions::default()).0;
        assert_eq!(run.arrival_time, Some(20), "4 hops × latency 5");
        assert_eq!(run.messages, 4);
    }

    #[test]
    fn failure_sends_nothing() {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0110", "1010", "1100", "1111"]),
        );
        let map = SafetyMap::compute(&cfg);
        let run = run_unicast(&cfg, &map, n("1110"), n("0000"), 1, RunOptions::default()).0;
        assert_eq!(run.decision, Decision::Failure);
        assert_eq!(run.trail, None);
        assert_eq!(run.messages, 0, "abort is local — zero network cost");
    }

    #[test]
    fn self_unicast_terminates_immediately() {
        let (cfg, map) = fig1();
        let run = run_unicast(&cfg, &map, n("0000"), n("0000"), 1, RunOptions::default()).0;
        assert_eq!(run.trail, Some(vec![n("0000")]));
        assert_eq!(run.messages, 0);
    }

    fn default_lossy(
        cfg: &FaultConfig,
        map: &SafetyMap,
        s: NodeId,
        d: NodeId,
        channel: ChannelModel,
    ) -> LossyRun {
        let opts = lossy(channel, 5_000_000);
        run_unicast_lossy(cfg, map, s, d, 1, ReliableConfig::default(), opts).0
    }

    fn lossy(channel: ChannelModel, max_events: u64) -> RunOptions {
        RunOptions {
            channel: Some(channel),
            max_events,
            ..RunOptions::default()
        }
    }

    #[test]
    fn lossy_delivery_takes_same_path_as_lossless() {
        let (cfg, map) = fig1();
        let run = default_lossy(
            &cfg,
            &map,
            n("1110"),
            n("0001"),
            ChannelModel::new(0xA11CE)
                .with_loss(0.2)
                .with_jitter(3)
                .with_duplication(0.1),
        );
        let LossyOutcome::Delivered { delay, .. } = run.outcome else {
            panic!("expected delivery, got {:?}", run.outcome);
        };
        assert!(delay >= 4, "at least one tick per hop");
        assert_eq!(
            run.trail.as_deref(),
            Some(&[n("1110"), n("1111"), n("1101"), n("0101"), n("0001")][..]),
            "reliable layer preserves the hop-for-hop path"
        );
        assert_eq!(run.duplicate_deliveries, 0, "no duplicate ever surfaces");
    }

    #[test]
    fn lossy_unicast_delivers_across_loss_rates_when_feasible() {
        let (cfg, map) = fig1();
        for (i, loss) in [0.01, 0.05, 0.2].into_iter().enumerate() {
            for (s, d) in [(n("1110"), n("0001")), (n("0001"), n("1100"))] {
                let ch = ChannelModel::new(0xD0 + i as u64).with_loss(loss);
                let run = default_lossy(&cfg, &map, s, d, ch);
                assert!(
                    matches!(run.outcome, LossyOutcome::Delivered { .. }),
                    "{s} → {d} at loss {loss}: {:?}",
                    run.outcome
                );
                assert_eq!(run.duplicate_deliveries, 0);
            }
        }
    }

    #[test]
    fn infeasible_source_aborts_locally_under_loss_too() {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0110", "1010", "1100", "1111"]),
        );
        let map = SafetyMap::compute(&cfg);
        let run = default_lossy(
            &cfg,
            &map,
            n("1110"),
            n("0000"),
            ChannelModel::lossy(9, 0.05),
        );
        assert_eq!(run.outcome, LossyOutcome::AbortedAt(n("1110")));
        assert_eq!(run.decision, Decision::Failure);
        assert_eq!(run.trail, None);
    }

    #[test]
    fn stale_map_hands_to_dead_node_reports_holder_failed() {
        // Route on a stale (fault-free) map while 0001 is actually
        // dead: the first handoff 0000 → 0001 exhausts its retries.
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, &["0001"]));
        let stale = SafetyMap::compute(&FaultConfig::fault_free(cube));
        let rcfg = ReliableConfig {
            rto: 4,
            rto_cap: 32,
            max_retries: 4,
            ..ReliableConfig::default()
        };
        let opts = lossy(ChannelModel::new(2), 5_000_000);
        let (run, _) = run_unicast_lossy(&cfg, &stale, n("0000"), n("0011"), 1, rcfg, opts);
        assert_eq!(run.outcome, LossyOutcome::HolderFailed(n("0001")));
        assert_eq!(run.stats.retransmitted, 4, "bounded by max_retries");
    }

    #[test]
    fn event_budget_exhaustion_reports_timeout() {
        let (cfg, map) = fig1();
        let opts = lossy(ChannelModel::lossy(5, 0.3), 2); // absurdly small budget
        let rcfg = ReliableConfig::default();
        let (run, _) = run_unicast_lossy(&cfg, &map, n("1110"), n("0001"), 1, rcfg, opts);
        assert_eq!(run.outcome, LossyOutcome::TimedOut);
    }

    #[test]
    fn lossy_self_unicast_is_immediate() {
        let (cfg, map) = fig1();
        let run = default_lossy(
            &cfg,
            &map,
            n("0000"),
            n("0000"),
            ChannelModel::lossy(1, 0.2),
        );
        assert!(matches!(
            run.outcome,
            LossyOutcome::Delivered {
                retransmits: 0,
                delay: 0
            }
        ));
        assert_eq!(run.trail, Some(vec![n("0000")]));
    }
}
