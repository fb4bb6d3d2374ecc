//! `GLOBAL_STATUS` (GS) — the paper's distributed safety-level
//! computation, executed as an actual message-passing protocol.
//!
//! Every nonfaulty node starts at level `n` (so a fault-free cube costs
//! nothing, §2.2), faulty nodes are 0-safe and silent; each round every
//! node sends its level to all neighbors and re-evaluates Definition 1
//! over the received values (`NODE_STATUS`). A faulty neighbor never
//! speaks, so its dimension reads as level 0 — exactly the paper's
//! convention.
//!
//! [`run_gs`] executes the synchronous version on the lock-step engine
//! and returns the resulting [`SafetyMap`] plus round/message
//! statistics. [`run_gs_async`] executes the asynchronous variant on
//! the discrete-event engine with arbitrary per-link latencies; by
//! Theorem 1 both converge to the same unique fixed point, which the
//! test suite cross-checks against the centralized computation.
//! [`run_gs_reliable`] runs the same actor behind the ACK/retransmit
//! layer, for lossy channels.

use crate::level_store::NeighborLevels;
use crate::properties::{check_level_corridor, check_levels_converged, Violation, GS_CORRIDOR};
use crate::safety::{level_from_unsorted, Level, SafetyMap};
use hypersafe_simkit::{
    Actor, Ctx, EventEngine, EventStats, HypercubeNet, Invariant, RelCtx, Reliable, ReliableActor,
    ReliableConfig, RunOptions, RunReport, SyncEngine, SyncNode, SyncStats,
};
use hypersafe_topology::{FaultConfig, NodeId};

/// Per-node state of the synchronous GS protocol and of EGS
/// ([`crate::egs::run_egs`]), where an `N2` node advertises 0.
#[derive(Clone, Debug)]
pub struct GsNode {
    n: u8,
    level: Level,
    /// Whether the node is in EGS's `N2` and so advertises 0.
    pub(crate) n2: bool,
}

impl GsNode {
    /// Fresh state for a node of an `n`-cube: initially `n`-safe.
    pub fn new(n: u8) -> Self {
        GsNode {
            n,
            level: n,
            n2: false,
        }
    }

    /// Current safety level (for an `N2` node, its private view).
    pub fn level(&self) -> Level {
        self.level
    }
}

impl SyncNode for GsNode {
    type Msg = Level;

    fn broadcast(&self) -> Level {
        if self.n2 {
            0
        } else {
            self.level
        }
    }

    fn receive(&mut self, inbox: &[(usize, Level)]) -> bool {
        // One message per delivering dimension; the dimensions that
        // delivered nothing (faulty neighbor or faulty link) read as
        // level 0.
        let silent = self.n as usize - inbox.len();
        let heard = inbox.iter().map(|&(_, lv)| lv);
        let new = level_from_unsorted(self.n, heard.chain(std::iter::repeat_n(0, silent)));
        let changed = new != self.level;
        self.level = new;
        changed
    }
}

/// Outcome of a distributed GS run.
#[derive(Clone, Debug)]
pub struct GsRun {
    /// The converged safety levels.
    pub map: SafetyMap,
    /// Engine statistics (rounds, messages).
    pub stats: SyncStats,
}

/// Runs synchronous GS with the paper's bound `D = n − 1` (the
/// Corollary to Property 1 guarantees it suffices) plus one
/// quiescence-detection round, so the active-round count is exact.
///
/// # Examples
///
/// ```
/// use hypersafe_topology::{Hypercube, FaultSet, FaultConfig};
/// use hypersafe_core::{run_gs, SafetyMap};
///
/// let cube = Hypercube::new(4);
/// let faults = FaultSet::from_binary_strs(cube, &["0011", "0100"]);
/// let cfg = FaultConfig::with_node_faults(cube, faults);
/// let run = run_gs(&cfg);
/// // The distributed protocol converges to the centralized fixed point.
/// assert_eq!(run.map.store(), SafetyMap::compute(&cfg).store());
/// assert!(run.stats.messages > 0);
/// ```
pub fn run_gs(cfg: &FaultConfig) -> GsRun {
    let n = cfg.cube().dim();
    let net = HypercubeNet::new(cfg);
    let mut eng = SyncEngine::new(&net, |_| GsNode::new(n));
    eng.run_until_stable(n as u32);
    let stats = eng.stats().clone();
    let levels = cfg
        .cube()
        .nodes()
        .map(|a| eng.node(a).map_or(0, GsNode::level))
        .collect();
    GsRun {
        map: SafetyMap::from_levels(cfg.cube(), levels).with_rounds(stats.active_rounds),
        stats,
    }
}

/// Asynchronous GS actor: re-evaluates on every received level and
/// gossips its own level whenever it changes (state-change-driven,
/// §2.2 item 3).
///
/// Initial knowledge follows the paper's assumption 2 ("each node knows
/// exactly the safety status of all its neighbors" via local fault
/// detection): a healthy neighbor is presumed `n`-safe until it says
/// otherwise, a faulty neighbor (or one behind a faulty link) reads 0
/// permanently. Starting from this top element, Definition 1's operator
/// is monotone, so every update strictly *decreases* some level —
/// termination is guaranteed after at most `n · 2ⁿ` announcements and
/// the quiescent state is Theorem 1's unique fixed point.
#[derive(Clone, Debug)]
pub struct AsyncGsNode {
    n: u8,
    level: Level,
    /// Best current knowledge of each neighbor's level, by dimension —
    /// packed 5-bit fields, three words total regardless of `n`.
    heard: NeighborLevels,
    /// Which neighbors are locally known reachable (healthy node behind
    /// a healthy link) — assumption 2's local fault detection. Bit `d`
    /// set means the dimension-`d` neighbor is usable.
    usable: u32,
    latency: u64,
    /// Whether every level change so far was a decrease. Starting from
    /// the top element this must stay `true` (the Definition 1 operator
    /// is monotone); [`GsLevelsDescend`] checks it at every quiescent
    /// point instead of a `debug_assert` so adversarial runs report a
    /// violation rather than abort.
    monotone: bool,
}

impl AsyncGsNode {
    pub(crate) fn new(cfg: &FaultConfig, me: NodeId, latency: u64) -> Self {
        let n = cfg.cube().dim();
        let mut usable = 0u32;
        let mut heard = NeighborLevels::filled(n, 0);
        for (d, b) in cfg.cube().neighbors_with_dims(me) {
            if !cfg.node_faulty(b) && !cfg.link_faults().contains(me, b) {
                usable |= 1 << d;
                heard.set(d, n);
            }
        }
        AsyncGsNode {
            n,
            level: n,
            heard,
            usable,
            latency,
            monotone: true,
        }
    }

    /// Current safety level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// `true` while every level change has been a strict decrease (the
    /// lattice-descent property termination rests on).
    pub fn monotone(&self) -> bool {
        self.monotone
    }

    fn reevaluate(&mut self) -> bool {
        // Histogram evaluation: no clone, no sort (hot path — runs on
        // every received announcement).
        let new = level_from_unsorted(self.n, self.heard.iter(self.n));
        if new != self.level {
            self.monotone &= new < self.level;
            self.level = new;
            true
        } else {
            false
        }
    }

    fn announce(&self, ctx: &mut Ctx<Level>) {
        for i in 0..self.n {
            ctx.send(ctx.self_id().neighbor(i), self.level, self.latency);
        }
    }
}

/// Canonical protocol state for the model checker: own level, per-dim
/// neighbor knowledge, and the descent flag. `n`/`usable` are static
/// per fault configuration and `latency` is timing, so all three are
/// excluded — which is exactly what lets the untimed checker merge
/// engine states that differ only in clock detail.
impl hypersafe_simkit::StateHash for AsyncGsNode {
    fn state_hash(&self, h: &mut hypersafe_simkit::McHasher) {
        h.write_u64(self.level as u64);
        for d in 0..self.n {
            h.write_u64(self.heard.get(d) as u64);
        }
        h.write_bytes(&[self.monotone as u8]);
    }
}

impl Actor for AsyncGsNode {
    type Msg = Level;

    fn on_start(&mut self, ctx: &mut Ctx<Level>) {
        // Nodes whose adjacent faults alone lower their level kick off
        // the wave; everyone else stays silent (zero cost when
        // fault-free, §2.2).
        if self.reevaluate() {
            self.announce(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Level>, from: NodeId, msg: Level) {
        let dim = ctx.self_id().xor(from).set_dims().next().expect("neighbor");
        // Monotone merge: a neighbor's true level only ever decreases,
        // so a value above current knowledge is a stale reordered
        // announcement — ignore it. With plain overwrite a late-arriving
        // high level could resurrect knowledge under an adversarial
        // schedule; the min() makes descent unconditional, which is what
        // the `GsLevelsDescend` corridor checks.
        self.heard.set(dim, self.heard.get(dim).min(msg));
        if self.reevaluate() {
            self.announce(ctx);
        }
    }
}

/// Engine invariant for asynchronous GS, plain or behind the reliable
/// layer: the [`check_level_corridor`] adapter, from the all-`n` start
/// down to Theorem 1's fixed point, checked at every quiescent point.
/// Its violation under message reordering motivated the monotone merge
/// in [`AsyncGsNode`]. The model checker ([`crate::mc_gs`]) runs the
/// same two predicates over every reached state.
pub struct GsLevelsDescend {
    fixed: SafetyMap,
}

impl GsLevelsDescend {
    /// Invariant state for a run over `cfg` (computes the Theorem 1
    /// fixed point once).
    pub fn new(cfg: &FaultConfig) -> Self {
        GsLevelsDescend {
            fixed: SafetyMap::compute(cfg),
        }
    }

    /// [`check_level_corridor`] over the actors of one cut.
    pub fn corridor<'x>(
        &self,
        actors: impl Iterator<Item = (NodeId, &'x AsyncGsNode)>,
    ) -> Result<(), Violation> {
        let n = self.fixed.dim();
        let levels = actors.map(|(a, g)| (a, g.level, g.monotone));
        check_level_corridor(levels, |_| n, |a| self.fixed.level(a), true)
    }

    /// [`check_levels_converged`] over the actors of a quiescent cut.
    pub fn converged<'x>(
        &self,
        actors: impl Iterator<Item = (NodeId, &'x AsyncGsNode)>,
    ) -> Result<(), Violation> {
        check_levels_converged(actors.map(|(a, g)| (a, g.level)), |a| self.fixed.level(a))
    }
}

impl<'n> Invariant<HypercubeNet<'n>, AsyncGsNode> for GsLevelsDescend {
    fn name(&self) -> &'static str {
        GS_CORRIDOR
    }

    fn check(
        &mut self,
        eng: &EventEngine<'_, HypercubeNet<'n>, AsyncGsNode>,
    ) -> Result<(), String> {
        self.corridor(eng.actors_iter()).map_err(|v| v.detail)
    }
}

/// The same corridor under the reliable layer: ARQ changes how levels
/// travel, not the lattice they descend.
impl<'n> Invariant<HypercubeNet<'n>, Reliable<AsyncGsNode>> for GsLevelsDescend {
    fn name(&self) -> &'static str {
        GS_CORRIDOR
    }

    fn check(
        &mut self,
        eng: &EventEngine<'_, HypercubeNet<'n>, Reliable<AsyncGsNode>>,
    ) -> Result<(), String> {
        let actors = eng.actors_iter().map(|(a, r)| (a, &r.inner));
        self.corridor(actors).map_err(|v| v.detail)
    }
}

/// Outcome of an asynchronous GS run.
#[derive(Clone, Debug)]
pub struct GsAsyncRun {
    /// The levels when the run stopped.
    pub map: SafetyMap,
    /// Engine statistics.
    pub stats: EventStats,
    /// Whether every node's level descended monotonically
    /// (see [`AsyncGsNode::monotone`]).
    pub monotone: bool,
}

/// Runs the asynchronous GS protocol with the given per-hop message
/// latency under `opts`, checking
/// [`GsLevelsDescend`] when `opts.check` is set.
///
/// Theorem 1's fixed point is schedule-free, so the returned map must
/// equal the centralized computation under *any* scheduler that only
/// reorders and delays (e.g.
/// [`hypersafe_simkit::AdversarialScheduler::permute`]; the protocol
/// assumes reliable links, so lossy channels and loss-bursting
/// adversaries belong with [`run_gs_reliable`]).
pub fn run_gs_async(cfg: &FaultConfig, latency: u64, opts: RunOptions) -> (GsAsyncRun, RunReport) {
    let net = HypercubeNet::new(cfg);
    let mut descend = opts.check.then(|| GsLevelsDescend::new(cfg));
    let (eng, report) = EventEngine::drive(
        &net,
        opts,
        |a| AsyncGsNode::new(cfg, a, latency.max(1)),
        |_| {},
        descend.as_mut().map(|d| d as _),
    );
    let levels = cfg
        .cube()
        .nodes()
        .map(|a| eng.actor(a).map_or(0, AsyncGsNode::level))
        .collect();
    let monotone = cfg
        .cube()
        .nodes()
        .filter_map(|a| eng.actor(a))
        .all(AsyncGsNode::monotone);
    let run = GsAsyncRun {
        map: SafetyMap::from_levels(cfg.cube(), levels),
        stats: eng.stats().clone(),
        monotone,
    };
    (run, report)
}

/// The same state-change-driven protocol, but every announcement goes
/// through the reliable layer — the shape GS must take when links lose
/// messages. Announcements are only sent to locally-usable neighbors
/// (assumption 2), so no retransmission budget is wasted on peers that
/// are known dead.
impl ReliableActor for AsyncGsNode {
    type Msg = Level;

    fn on_start(&mut self, ctx: &mut RelCtx<Level>) {
        if self.reevaluate() {
            for i in 0..self.n {
                if self.usable >> i & 1 == 1 {
                    ctx.send_reliable(ctx.self_id().neighbor(i), self.level);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut RelCtx<Level>, from: NodeId, msg: Level) {
        let dim = ctx.self_id().xor(from).set_dims().next().expect("neighbor");
        // Same monotone merge as the unreliable actor; the ARQ layer
        // delivers in order per link, so this is belt-and-suspenders
        // there, but it keeps the two actors' semantics identical.
        self.heard.set(dim, self.heard.get(dim).min(msg));
        if self.reevaluate() {
            for i in 0..self.n {
                if self.usable >> i & 1 == 1 {
                    ctx.send_reliable(ctx.self_id().neighbor(i), self.level);
                }
            }
        }
    }
}

/// Outcome of a GS run over a lossy channel.
#[derive(Clone, Debug)]
pub struct GsLossyRun {
    /// The safety levels when the run went quiescent.
    pub map: SafetyMap,
    /// Engine statistics, including loss / retransmission / ACK
    /// counters.
    pub stats: EventStats,
    /// Quiescence detector verdict: `true` when the event queue drained
    /// (every announcement delivered and acknowledged, every
    /// retransmission timer resolved — the distributed computation has
    /// provably stopped), `false` when the event budget ran out first.
    pub quiescent: bool,
    /// Healthy-to-healthy links the reliable layer abandoned after
    /// `max_retries` (0 unless the loss rate is extreme relative to the
    /// retry budget).
    pub links_abandoned: u64,
}

/// Runs GS with per-hop `latency` and reliable delivery per `rcfg`
/// under `opts` (typically a lossy `opts.channel` and an event budget
/// `opts.max_events`), checking
/// [`GsLevelsDescend`] when `opts.check` is set.
///
/// Convergence: each reliable link delivers every announcement with
/// probability `1 − p^(max_retries+1)` (loss rate `p < 1`), and the
/// level lattice is finite and monotone, so the run goes quiescent in
/// finite virtual time and — whenever no link was abandoned —
/// stabilizes to exactly the centralized fixed point of Theorem 1. The
/// quiescence detector is the drained event queue: with ACKs and
/// bounded retries every message chain terminates, so an empty queue
/// *is* global termination (no spurious timers keep the run alive).
///
/// When `opts.observe` is set, the registry's `rounds` histogram gets
/// one observation: the quiescence tick (`stats.end_time`).
pub fn run_gs_reliable(
    cfg: &FaultConfig,
    rcfg: ReliableConfig,
    latency: u64,
    opts: RunOptions,
) -> (GsLossyRun, RunReport) {
    let n = cfg.cube().dim();
    let latency = latency.max(1);
    let net = HypercubeNet::new(cfg);
    let mut descend = opts.check.then(|| GsLevelsDescend::new(cfg));
    let (eng, mut report) = EventEngine::drive(
        &net,
        opts,
        |a| Reliable::new(AsyncGsNode::new(cfg, a, latency), a, n, latency, rcfg),
        |_| {},
        descend.as_mut().map(|d| d as _),
    );
    let levels = cfg
        .cube()
        .nodes()
        .map(|a| eng.actor(a).map_or(0, |r| r.inner.level()))
        .collect();
    let links_abandoned = cfg
        .cube()
        .nodes()
        .filter_map(|a| eng.actor(a))
        .map(|r| r.endpoint.gave_up_dims().len() as u64)
        .sum();
    let stats = eng.stats().clone();
    if let Some(m) = &mut report.metrics {
        m.record_rounds(stats.end_time);
    }
    let run = GsLossyRun {
        map: SafetyMap::from_levels(cfg.cube(), levels),
        stats,
        quiescent: report.drained,
        links_abandoned,
    };
    (run, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_simkit::ChannelModel;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn sync_gs_matches_centralized_fig1() {
        let cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let run = run_gs(&cfg);
        let central = SafetyMap::compute(&cfg);
        assert_eq!(run.map.store(), central.store());
        assert_eq!(run.map.rounds(), 2, "Fig. 1 stabilizes after two rounds");
    }

    #[test]
    fn async_gs_matches_centralized_fig1() {
        let cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let (run, _) = run_gs_async(&cfg, 3, RunOptions::default());
        let central = SafetyMap::compute(&cfg);
        assert_eq!(run.map.store(), central.store());
        assert!(run.stats.delivered > 0);
    }

    #[test]
    fn theorem1_uniqueness_exhaustive_q3() {
        // Sync, async, centralized, and constructive all agree on every
        // fault pattern of Q_3 — Theorem 1 in executable form.
        let cube = Hypercube::new(3);
        for mask in 0u64..256 {
            let mut f = FaultSet::new(cube);
            for i in 0..8 {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            let central = SafetyMap::compute(&cfg);
            let sync = run_gs(&cfg);
            assert_eq!(sync.map.store(), central.store(), "sync mask {mask:#b}");
            let (run, _) = run_gs_async(&cfg, 1, RunOptions::default());
            assert_eq!(run.map.store(), central.store(), "async mask {mask:#b}");
        }
    }

    #[test]
    fn async_with_heterogeneous_latencies_still_converges() {
        // Latency 7 ≫ 1 stresses reordering across rounds.
        let cfg = cfg4(&["0000", "0110", "1111"]);
        let (run, _) = run_gs_async(&cfg, 7, RunOptions::default());
        assert_eq!(run.map.store(), SafetyMap::compute(&cfg).store());
    }

    #[test]
    fn reliable_gs_converges_under_loss_to_centralized_fixed_point() {
        let cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let central = SafetyMap::compute(&cfg);
        for (i, loss) in [0.01, 0.05, 0.2].into_iter().enumerate() {
            let ch = ChannelModel::new(0x6007 + i as u64)
                .with_loss(loss)
                .with_jitter(2);
            let (run, _) =
                run_gs_reliable(&cfg, ReliableConfig::default(), 1, lossy(ch, 5_000_000));
            assert!(run.quiescent, "loss {loss}: run must go quiescent");
            assert_eq!(
                run.links_abandoned, 0,
                "loss {loss}: no healthy link abandoned"
            );
            assert_eq!(run.map.store(), central.store(), "loss {loss}");
            if loss >= 0.2 {
                assert!(
                    run.stats.retransmitted > 0,
                    "heavy loss forces retransmissions"
                );
            }
        }
    }

    #[test]
    fn reliable_gs_on_clean_channel_has_zero_retransmissions() {
        let cfg = cfg4(&["0000", "0110", "1111"]);
        let opts = lossy(ChannelModel::new(1), 5_000_000);
        let (run, _) = run_gs_reliable(&cfg, ReliableConfig::default(), 1, opts);
        assert!(run.quiescent);
        assert_eq!(run.stats.retransmitted, 0);
        assert_eq!(run.stats.lost, 0);
        assert_eq!(run.map.store(), SafetyMap::compute(&cfg).store());
        assert!(run.stats.acked > 0, "every announcement is acknowledged");
    }

    fn lossy(channel: ChannelModel, max_events: u64) -> RunOptions {
        RunOptions {
            channel: Some(channel),
            max_events,
            ..RunOptions::default()
        }
    }

    #[test]
    fn queue_drained_on_the_last_budgeted_event_is_quiescent() {
        // On the Fig. 1 cube this run drains its queue on event 42, so
        // a budget of exactly 42 must report the same quiescent run as
        // any larger budget (a processed < budget test reported it as
        // cut off).
        let cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let rcfg = ReliableConfig::default();
        let (full, report) = run_gs_reliable(&cfg, rcfg, 1, lossy(ChannelModel::new(7), 43));
        assert!(full.quiescent);
        assert_eq!(report.processed, 42);
        let (tight, report) = run_gs_reliable(&cfg, rcfg, 1, lossy(ChannelModel::new(7), 42));
        assert!(report.drained);
        assert!(tight.quiescent, "drained on the last budgeted event");
        assert_eq!(tight.stats, full.stats);
        assert_eq!(tight.map.store(), full.map.store());
        let (cut, _) = run_gs_reliable(&cfg, rcfg, 1, lossy(ChannelModel::new(7), 41));
        assert!(!cut.quiescent, "one event short of draining");
    }

    #[test]
    fn fault_free_costs_zero_active_rounds() {
        let cfg = cfg4(&[]);
        let run = run_gs(&cfg);
        assert_eq!(run.stats.active_rounds, 0);
        assert_eq!(run.stats.rounds_run, 1, "single quiescence probe");
    }

    #[test]
    fn message_count_per_round_is_two_per_usable_link() {
        let cfg = cfg4(&["0011"]);
        let run = run_gs(&cfg);
        // 15 healthy nodes; usable links = 32 − 4 (links of 0011).
        let usable = 28u64;
        assert_eq!(run.stats.messages % (2 * usable), 0);
    }
}
