//! The unicasting algorithm executed as an actual distributed protocol
//! on the discrete-event engine, in `Q_n` and in generalized
//! hypercubes.
//!
//! [`crate::unicast::route`] simulates the algorithm centrally (fast,
//! used by the Monte-Carlo experiments); this module runs it for real:
//! each node is an actor that reads only its own safety level and its
//! neighbors' levels (the paper's locality assumption) through a view
//! of the converged map, messages carry `(destination, trail)`, and the
//! destination keeps what arrives.
//! Routing in `GH_n` "is exactly the same as in a regular hypercube"
//! (§4.2), so one actor, `UnicastNode`, serves both topologies, reading
//! a [`SafetyMap`] over `Q_n` or over the GH. The test
//! suite checks the actor takes the centralized path hop for hop —
//! evidence that the centralized shortcut is faithful.

use crate::properties::{check_exactly_once, Violation, ARQ_EXACTLY_ONCE};
use crate::safety::SafetyMap;
use crate::unicast::{
    rule_at_hop, rule_at_source, source_decision, Decision, LevelView, NodeOf, PortOf, SourceStep,
    TieBreak,
};
use hypersafe_simkit::{
    Actor, Ctx, EventEngine, EventStats, Invariant, Net, RelCtx, Reliable, ReliableActor,
    ReliableConfig, RunOptions, RunReport, Time,
};
use hypersafe_topology::{FaultConfig, Faults, Hypercube, NodeId, Topology};

/// The report of a run that built no engine: an endpoint outside the
/// topology.
pub(crate) fn idle_report() -> RunReport {
    RunReport {
        processed: 0,
        drained: true,
        violation: None,
        trace: None,
        metrics: None,
    }
}

/// A unicast message in flight: the destination plus the hop trail (the
/// trail is measurement instrumentation, not protocol state — the
/// algorithm itself reads only the destination; in `Q_n` the paper's
/// navigation vector is the trail's last node XOR the destination).
#[derive(Clone, Debug)]
pub struct UnicastMsg<N = NodeId> {
    /// Final destination.
    pub dest: N,
    /// Nodes visited so far, including the source.
    pub trail: Vec<N>,
}

/// Per-node unicast actor over a view `T` of the converged map, of
/// which the node reads only its own level and its neighbors' levels,
/// exactly the information the paper's algorithm requires a node to
/// hold after GS. Every node applies the §3 rule with the default
/// [`TieBreak::LowestDim`].
///
/// As a plain [`Actor`] it assumes reliable links: it forwards every
/// copy it receives, and the destination keeps the last. Behind the
/// reliable layer, as a [`ReliableActor`], the destination keeps the
/// first copy, a node refuses to forward a duplicate, and the node
/// counts what surfaced for the widened outcome taxonomy.
#[derive(Clone)]
pub(crate) struct UnicastNode<T: LevelView> {
    levels: T,
    me: NodeOf<T>,
    /// The message kept on arrival at its destination.
    pub received: Option<UnicastMsg<NodeOf<T>>>,
    /// Virtual time of the kept arrival (reliable layer only).
    pub(crate) received_at: Option<Time>,
    /// Unicast payloads surfaced to this node behind the reliable layer
    /// (≥ 2 would mean the layer leaked a duplicate).
    pub(crate) receives: u64,
    /// Set when the source found no feasible first hop (reliable layer
    /// only).
    pub(crate) aborted: bool,
    /// The destination of a unicast to start from this node.
    start: Option<NodeOf<T>>,
    latency: Time,
}

/// Timer tag used to kick off a unicast at the source.
pub(crate) const START_TAG: u64 = 0xCAFE;

/// What a node does with a unicast it holds.
enum Step<N> {
    /// Send the message, its trail extended, to the engine's node.
    Send(NodeId, UnicastMsg<N>),
    /// The node is the destination.
    Arrived(UnicastMsg<N>),
    /// C1–C3 all fail at the source: nothing is sent.
    Abort,
}

impl<T: LevelView> UnicastNode<T> {
    /// The actor of `me` over the view `levels`, starting a unicast to
    /// `start` when that is set.
    pub(crate) fn new(levels: T, me: NodeOf<T>, start: Option<NodeOf<T>>, latency: Time) -> Self {
        UnicastNode {
            levels,
            me,
            received: None,
            received_at: None,
            receives: 0,
            aborted: false,
            start,
            latency,
        }
    }

    /// `UNICASTING_AT_SOURCE_NODE` once the start timer fires; `None`
    /// when the timer is not the start or no unicast is pending.
    fn begin(&mut self, tag: u64) -> Option<Step<NodeOf<T>>> {
        if tag != START_TAG {
            return None;
        }
        let d = self.start.take()?;
        let msg = UnicastMsg {
            dest: d,
            trail: vec![self.me],
        };
        Some(
            match rule_at_source(&self.levels, self.me, d, TieBreak::LowestDim) {
                SourceStep::AlreadyThere => Step::Arrived(msg),
                SourceStep::Leave(_, port) => self.forward(msg, port),
                SourceStep::Failure => Step::Abort,
            },
        )
    }

    /// `UNICASTING_AT_INTERMEDIATE_NODE`: on to the preferred neighbor
    /// with the highest level, or arrival when none is left.
    fn hop(&self, msg: UnicastMsg<NodeOf<T>>) -> Step<NodeOf<T>> {
        match rule_at_hop(&self.levels, self.me, msg.dest, TieBreak::LowestDim) {
            Some(port) => self.forward(msg, port),
            None => Step::Arrived(msg),
        }
    }

    fn forward(&self, mut msg: UnicastMsg<NodeOf<T>>, port: PortOf<T>) -> Step<NodeOf<T>> {
        let next = self.levels.space().across(self.me, port);
        msg.trail.push(next);
        Step::Send(NodeId::new(<T::Space as Topology>::raw(next)), msg)
    }

    fn apply(&mut self, ctx: &mut Ctx<UnicastMsg<NodeOf<T>>>, step: Step<NodeOf<T>>) {
        match step {
            Step::Send(next, msg) => ctx.send(next, msg, self.latency),
            Step::Arrived(msg) => self.received = Some(msg),
            Step::Abort => {}
        }
    }

    fn apply_reliable(&mut self, ctx: &mut RelCtx<UnicastMsg<NodeOf<T>>>, step: Step<NodeOf<T>>) {
        match step {
            Step::Send(next, msg) => ctx.send_reliable(next, msg),
            Step::Arrived(msg) => {
                if self.received.is_none() {
                    self.received_at = Some(ctx.now());
                    self.received = Some(msg);
                }
            }
            Step::Abort => self.aborted = true,
        }
    }
}

impl<T: LevelView> Actor for UnicastNode<T> {
    type Msg = UnicastMsg<NodeOf<T>>;

    fn on_timer(&mut self, ctx: &mut Ctx<Self::Msg>, tag: u64) {
        if let Some(step) = self.begin(tag) {
            self.apply(ctx, step);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, _from: NodeId, msg: Self::Msg) {
        let step = self.hop(msg);
        self.apply(ctx, step);
    }
}

/// Outcome of a distributed unicast run, in `Q_n` or (with `N` =
/// [`hypersafe_topology::GhNode`]) in a generalized hypercube.
#[derive(Clone, Debug)]
pub struct DistributedRun<N = NodeId> {
    /// The source's (purely local) decision, recomputed for reporting.
    pub decision: Decision,
    /// Trail recorded at the destination, if the message arrived.
    pub trail: Option<Vec<N>>,
    /// Virtual time of arrival (hops × latency).
    pub arrival_time: Option<Time>,
    /// Messages delivered in the run.
    pub messages: u64,
}

/// The run of a unicast with an endpoint outside the topology.
fn not_run<N>() -> (DistributedRun<N>, RunReport) {
    let run = DistributedRun {
        decision: Decision::Failure,
        trail: None,
        arrival_time: None,
        messages: 0,
    };
    (run, idle_report())
}

/// Reads a finished run off the engine: what the destination `d` kept,
/// and when.
fn collect<S: Topology, T: LevelView>(
    eng: &EventEngine<'_, S, UnicastNode<T>>,
    d: NodeId,
    decision: Decision,
) -> DistributedRun<NodeOf<T>> {
    let trail = eng
        .actor(d)
        .and_then(|n| n.received.as_ref())
        .map(|m| m.trail.clone());
    DistributedRun {
        decision,
        arrival_time: trail.as_ref().map(|_| eng.stats().end_time),
        trail,
        messages: eng.stats().delivered,
    }
}

/// Runs one unicast `s → d` as a distributed protocol over the topology
/// the converged `map` carries, `Q_n` or a generalized hypercube, with
/// the faults `faults` and per-hop `latency`, under `opts`: each node
/// reads its own and its neighbors' levels off the map. The safety map
/// must already be converged (run GS first). The actor assumes reliable
/// links: reorder/stretch adversaries only, and lossy channels belong
/// with [`run_unicast_lossy`]. The protocol has no engine invariant, so
/// `opts.check` has nothing to check. An endpoint outside the topology
/// gives a `Failure` run with no messages, and no engine is built.
pub fn run_unicast<T: Topology, F: Faults<T>>(
    faults: &F,
    map: &SafetyMap<T>,
    s: T::Node,
    d: T::Node,
    latency: Time,
    opts: RunOptions,
) -> (DistributedRun<T::Node>, RunReport) {
    let space = map.space();
    if !(space.contains(s) && space.contains(d)) {
        return not_run();
    }
    let latency = latency.max(1);
    let net = Net::new(space, faults);
    let init = |a: NodeId| {
        let me = T::from_raw(a.raw());
        UnicastNode::new(map, me, (me == s).then_some(d), latency)
    };
    let start = |e: &mut EventEngine<'_, _, _>| e.inject(NodeId::new(T::raw(s)), START_TAG, 0);
    let (eng, report) = EventEngine::drive(&net, opts, init, start, None);
    let run = collect(&eng, NodeId::new(T::raw(d)), source_decision(map, s, d));
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

impl hypersafe_simkit::StateHash for UnicastMsg {
    fn state_hash(&self, h: &mut hypersafe_simkit::McHasher) {
        // The navigation vector, `at ⊕ d`.
        let at = self.trail.last().map_or(0, |a| a.raw());
        h.write_u64(at ^ self.dest.raw());
        self.trail.state_hash(h);
    }
}

/// Canonical protocol state for the model checker: the delivery /
/// abort / pending-start flags and what was received. `received_at`
/// is a timestamp (timing detail the untimed checker abstracts away)
/// and the map is static per run — both excluded.
impl hypersafe_simkit::StateHash for UnicastNode<&SafetyMap> {
    fn state_hash(&self, h: &mut hypersafe_simkit::McHasher) {
        self.received.state_hash(h);
        h.write_u64(self.receives);
        h.write_bytes(&[self.aborted as u8]);
        self.start.state_hash(h);
    }
}

/// The actor behind the reliable layer (see [`UnicastNode`]).
impl<T: LevelView> ReliableActor for UnicastNode<T> {
    type Msg = UnicastMsg<NodeOf<T>>;

    fn on_timer(&mut self, ctx: &mut RelCtx<Self::Msg>, tag: u64) {
        if let Some(step) = self.begin(tag) {
            self.apply_reliable(ctx, step);
        }
    }

    fn on_message(&mut self, ctx: &mut RelCtx<Self::Msg>, _from: NodeId, msg: Self::Msg) {
        self.receives += 1;
        let step = self.hop(msg);
        if self.receives > 1 && matches!(step, Step::Send(..)) {
            // A duplicate surfaced (should never happen): forwarding it
            // again would fork the unicast, so refuse.
            return;
        }
        self.apply_reliable(ctx, step);
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
    pub(crate) fn check_actors<'x, 'm: 'x>(
        actors: impl Iterator<Item = (NodeId, &'x Reliable<UnicastNode<&'m SafetyMap>>)>,
    ) -> Result<(), Violation> {
        check_exactly_once(actors.map(|(a, r)| (a, r.inner.receives.saturating_sub(1))))
    }
}

impl<'m> Invariant<Hypercube, Reliable<UnicastNode<&'m SafetyMap>>> for ArqSingleDelivery {
    fn name(&self) -> &'static str {
        ARQ_EXACTLY_ONCE
    }

    fn check(
        &mut self,
        eng: &EventEngine<'_, Hypercube, Reliable<UnicastNode<&'m SafetyMap>>>,
    ) -> Result<(), String> {
        Self::check_actors(eng.actors_iter()).map_err(|v| v.detail)
    }
}

/// Runs one unicast `s → d` with per-hop `latency` and reliable
/// per-hop delivery (`rcfg`) under `opts` (typically a lossy
/// `opts.channel` and an event budget `opts.max_events`), checking
/// [`ArqSingleDelivery`] when `opts.check` is set. An endpoint outside
/// the cube gives a `Failure` run aborted at `s`, and no engine is
/// built. The safety map must already be converged — pair with
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
    if !(cfg.cube().contains(s) && cfg.cube().contains(d)) {
        let run = LossyRun {
            outcome: LossyOutcome::AbortedAt(s),
            decision: Decision::Failure,
            trail: None,
            stats: EventStats::default(),
            duplicate_deliveries: 0,
        };
        return (run, idle_report());
    }
    let latency = latency.max(1);
    let net = Net::cube(cfg);
    let init = |a| {
        let inner = UnicastNode::new(map, a, (a == s).then_some(d), latency);
        Reliable::new(inner, cfg.cube(), a, latency, rcfg)
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
    eng: &EventEngine<'_, Hypercube, Reliable<UnicastNode<&SafetyMap>>>,
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
    use crate::gs::run_gs;
    use crate::unicast::route;
    use hypersafe_simkit::ChannelModel;
    use hypersafe_topology::{FaultSet, GeneralizedHypercube, GhNode, Hypercube};

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

    fn gh_run(
        map: &SafetyMap<&GeneralizedHypercube>,
        f: &FaultSet,
        s: GhNode,
        d: GhNode,
    ) -> DistributedRun<GhNode> {
        run_unicast(f, map, s, d, 1, RunOptions::default()).0
    }

    #[test]
    fn gh_distributed_matches_centralized_on_fig5_instance() {
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let f = gh.fault_set_from_strs(&["011", "100", "111", "121"]);
        let map = SafetyMap::compute_in(&gh, &f);
        let healthy: Vec<GhNode> = gh
            .nodes()
            .filter(|a| !f.contains(NodeId::new(a.raw())))
            .collect();
        for &s in &healthy {
            for &d in &healthy {
                let central = route(&f, &map, s, d);
                let dist = gh_run(&map, &f, s, d);
                let pair = format!("{} → {}", gh.format(s), gh.format(d));
                assert_eq!(central.decision, dist.decision, "{pair}");
                match (central.delivered, &dist.trail) {
                    (true, Some(trail)) => {
                        let nodes = central.path.as_ref().unwrap().nodes();
                        assert_eq!(nodes, trail.as_slice(), "{pair}: hop-for-hop agreement");
                        let hops = trail.len() as u64 - 1;
                        assert_eq!(dist.arrival_time, Some(hops), "{pair}");
                    }
                    (false, None) => assert_eq!(dist.arrival_time, None, "{pair}"),
                    (c, t) => panic!("{pair}: centralized={c} distributed={t:?}"),
                }
            }
        }
    }

    #[test]
    fn gh_mixed_radix_fault_free_optimal() {
        let gh = GeneralizedHypercube::new(&[3, 4, 2]);
        let f = gh.fault_set();
        let map = SafetyMap::compute_in(&gh, &f);
        let s = GhNode(0);
        let d = GhNode(gh.num_nodes() - 1);
        let run = gh_run(&map, &f, s, d);
        let trail = run.trail.expect("delivered");
        assert_eq!(Some(trail.len() as u32 - 1), gh.distance(s, d));
        assert_eq!(Some(run.messages as u32), gh.distance(s, d));
    }

    #[test]
    fn gh_failure_sends_nothing() {
        // GH(2,2): fault both neighbors of node 0 → every unicast from
        // it fails locally with zero traffic.
        let gh = GeneralizedHypercube::new(&[2, 2]);
        let mut f = gh.fault_set();
        f.insert(NodeId::new(1));
        f.insert(NodeId::new(2));
        let map = SafetyMap::compute_in(&gh, &f);
        let run = gh_run(&map, &f, GhNode(0), GhNode(3));
        assert_eq!(run.decision, Decision::Failure);
        assert_eq!(run.trail, None);
        assert_eq!(run.messages, 0);
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Q1–Q10 with uniform faults on up to 40% of the nodes: on
        /// GH(2, …, 2) the lock-step GS equals the cube's in levels,
        /// rounds and statistics; on 16 drawn pairs, faulty endpoints
        /// included, the unicast actor equals the cube's in decision,
        /// trail, messages and arrival time, and the centralized walk
        /// equals the cube's in decision, trail and delivery.
        #[test]
        fn binary_gh_equals_the_cube(
            n in 1u8..=10,
            share in 0u64..=40,
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 410),
            pairs in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                16,
            ),
        ) {
            let cube = Hypercube::new(n);
            let len = cube.num_nodes();
            let count = (len * share / 100) as usize;
            let f = FaultSet::from_nodes(cube, picks[..count].iter().map(|&a| NodeId::new(a % len)));
            let cfg = FaultConfig::with_node_faults(cube, f.clone());
            let gh = GeneralizedHypercube::new(&vec![2; n as usize]);
            let gs = run_gs(cube, &cfg);
            let gh_run = run_gs(&gh, &f);
            let gh_map = gh_run.map;
            proptest::prop_assert_eq!(gh_map.to_vec(), gs.map.to_vec());
            proptest::prop_assert_eq!(gh_map.rounds(), gs.map.rounds());
            proptest::prop_assert_eq!(&gh_run.stats, &gs.stats);
            proptest::prop_assert_eq!((gh_run.check, gs.check), (Ok(()), Ok(())));
            for &(s, d) in &pairs {
                let (s, d) = (s % len, d % len);
                let opts = RunOptions::default;
                let q = run_unicast(&cfg, &gs.map, NodeId::new(s), NodeId::new(d), 1, opts()).0;
                let g = run_unicast(&f, &gh_map, GhNode(s), GhNode(d), 1, opts()).0;
                let as_cube = |t: &[GhNode]| t.iter().map(|a| NodeId::new(a.raw())).collect::<Vec<_>>();
                proptest::prop_assert_eq!(
                    (g.decision, g.trail.as_deref().map(as_cube), g.messages, g.arrival_time),
                    (q.decision, q.trail, q.messages, q.arrival_time),
                    "Q{} {} → {}", n, s, d
                );
                let qc = route(&cfg, &gs.map, NodeId::new(s), NodeId::new(d));
                let gc = route(&f, &gh_map, GhNode(s), GhNode(d));
                proptest::prop_assert_eq!(
                    (gc.decision, gc.path.map(|p| as_cube(p.nodes())), gc.delivered),
                    (qc.decision, qc.path.map(|p| p.nodes().to_vec()), qc.delivered),
                    "centralized Q{} {} → {}", n, s, d
                );
            }
        }
    }
}
