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
//! over either topology (EGS when the faults include links) and returns
//! the resulting [`SafetyMap`], round/message statistics and the
//! verdict of its own checks. [`run_gs_async`] executes the
//! asynchronous variant on the discrete-event engine with arbitrary
//! per-link latencies; by Theorem 1 both converge to the same unique
//! fixed point, which the test suite cross-checks against the
//! centralized computation.
//! [`run_gs_reliable`] runs the same actor behind the ACK/retransmit
//! layer, for lossy channels, and [`crate::run_delta_gs`] runs it from
//! the fixed point before one churn event instead of from scratch
//! ([`AsyncGsNode`] describes both starts). One adapter,
//! [`GsCorridor`], checks all three.

use crate::level_store::NeighborLevels;
use crate::properties::{
    check_level_corridor, check_levels_converged, gs_fixed_point, Violation, GS_CORRIDOR,
    GS_ROUND_BOUND,
};
use crate::safety::{level_from_low_counts, level_from_unsorted, Level, Readings, SafetyMap};
use crate::safety_delta::ChurnEvent;
use hypersafe_simkit::{
    Actor, Ctx, EventEngine, EventStats, Invariant, InvariantViolation, Net, RelCtx, Reliable,
    ReliableActor, ReliableConfig, RunOptions, RunReport, SyncEngine, SyncNode, SyncStats,
};
use hypersafe_topology::{FaultConfig, Faults, Hypercube, NodeId, Topology, MAX_DIM};

/// Per-node state of the lock-step GS protocol over a topology:
/// `GLOBAL_STATUS` in `Q_n`, its §4.2 form in a generalized hypercube,
/// and EGS, where an `N2` node advertises 0 and keeps its own level
/// ([`SafetyMap::own_level`]). Each round a dimension reads the lowest
/// level its ports heard (Definition 4; one port per dimension in
/// `Q_n`), and a silent port (a faulty node or a faulty link) reads 0;
/// the node then applies Definition 1.
#[derive(Clone, Debug)]
pub struct GsNode<'a> {
    /// The dimension of each port, by port index: the same at every
    /// node, since a topology numbers its ports dimension-major.
    dims: &'a [u8],
    n: u8,
    level: Level,
    /// Whether the node is in EGS's `N2` and so advertises 0.
    n2: bool,
}

impl<'a> GsNode<'a> {
    /// Fresh state for a node of an `n`-dimensional topology whose
    /// ports cross `dims`, in `N2` or not: initially `n`-safe.
    pub(crate) fn new(n: u8, dims: &'a [u8], n2: bool) -> Self {
        GsNode {
            dims,
            n,
            level: n,
            n2,
        }
    }

    /// Current safety level (for an `N2` node, its private view).
    pub fn level(&self) -> Level {
        self.level
    }
}

impl SyncNode for GsNode<'_> {
    type Msg = Level;

    fn broadcast(&self) -> Level {
        if self.n2 {
            0
        } else {
            self.level
        }
    }

    fn receive(&mut self, inbox: &[(usize, Level)]) -> bool {
        let n = self.n;
        // The inbox lists the heard ports in order; the rest are silent.
        let mut readings = [n; MAX_DIM as usize];
        let mut heard = inbox.iter().peekable();
        for (k, &d) in self.dims.iter().enumerate() {
            let lv = heard.next_if(|&&(p, _)| p == k).map_or(0, |&(_, lv)| lv);
            readings[d as usize] = readings[d as usize].min(lv);
        }
        let new = level_from_low_counts(n, readings[..n as usize].iter().copied());
        let changed = new != self.level;
        self.level = new;
        changed
    }
}

/// Outcome of a lock-step GS run.
#[derive(Clone, Debug)]
pub struct GsRun<T: Topology = Hypercube> {
    /// The converged safety levels, with the `N2` nodes' own levels
    /// when the faults include links.
    pub map: SafetyMap<T>,
    /// Engine statistics (rounds, messages).
    pub stats: SyncStats,
    /// The first violation of the run's own checks, if any.
    pub check: Result<(), Violation>,
}

/// Runs the lock-step GS protocol over `space` with `faults` until a
/// round changes nothing: `GLOBAL_STATUS` (§2.2), its generalized
/// hypercube form (§4.2), and EGS (§4.1) when the faults include links,
/// where an `N2` node (one that detects an adjacent faulty link)
/// advertises 0. The run checks every node's own level against
/// [`SafetyMap::compute_in`]'s map: the corridor after every round
/// ([`check_level_corridor`]), convergence at quiescence
/// ([`check_levels_converged`]), and the round bound. The advertised
/// levels settle within `n − 1` active rounds (the Corollary to
/// Property 1, over `F ∪ N2`), but an `N2` own level reads the round
/// before's and can still move in round `n`: so at most `n` active
/// rounds, and a run still active in round `n + 1` is cut there.
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
/// let run = run_gs(cube, &cfg);
/// // The distributed protocol converges to the centralized fixed point.
/// assert_eq!(run.check, Ok(()));
/// assert_eq!(run.map.store(), SafetyMap::compute(&cfg).store());
/// assert!(run.stats.messages > 0);
/// ```
pub fn run_gs<T: Readings + Send + Sync>(space: T, faults: &impl Faults<T>) -> GsRun<T> {
    let (n, len) = (space.dim(), space.num_nodes());
    let central = SafetyMap::compute_in(space, faults);
    let goal = |a: NodeId| central.own_level(T::from_raw(a.raw()));
    let net = Net::new(space, faults);
    let links = !faults.link_faults().is_empty();
    let ports = (0..space.degree()).map(|k| space.port_at(T::from_raw(0), k));
    let dims: Vec<u8> = ports.map(|p| space.port_dim(p)).collect();
    let mut eng = SyncEngine::new(&net, |a| {
        let mut far = space.neighbours(T::from_raw(a.raw())).map(T::raw);
        GsNode::new(n, &dims, links && far.any(|b| net.link_faulty(a.raw(), b)))
    });
    // Each node's own or advertised level; a faulty node reads 0.
    let levels = |eng: &SyncEngine<'_, T, GsNode<'_>>, own: bool| {
        let nodes = (0..len).map(|a| eng.node(NodeId::new(a)));
        let read = |v: &GsNode| if own { v.level } else { v.broadcast() };
        nodes.map(|v| v.map_or(0, read)).collect::<Vec<_>>()
    };
    let mut prev = levels(&eng, true);
    let mut check = Ok(());
    while eng.run_round() != 0 {
        let rounds = eng.stats().active_rounds;
        if rounds > n as u32 {
            let detail = format!("still active after {rounds} rounds with n = {n}");
            check = Err(Violation::new(GS_ROUND_BOUND, Vec::new(), detail));
            break;
        }
        let now = levels(&eng, true);
        let step = now.iter().zip(&prev).enumerate();
        let step = step.map(|(a, (&lv, &p))| (NodeId::new(a as u64), lv, lv <= p));
        check = check.and_then(|()| check_level_corridor(step, |_| n, goal, true));
        prev = now;
    }
    // After the quiet round, `prev` holds the final levels.
    let last = prev
        .iter()
        .enumerate()
        .map(|(a, &lv)| (NodeId::new(a as u64), lv));
    check = check.and_then(|()| check_levels_converged(last, goal));
    // An N2 node advertises 0 and keeps its own level.
    let n2 = (0..len).filter_map(|a| {
        let v = eng.node(NodeId::new(a)).filter(|v| v.n2)?;
        Some((T::from_raw(a), v.level))
    });
    let map = SafetyMap::from_levels(space, levels(&eng, false));
    GsRun {
        map: map
            .with_rounds(eng.stats().active_rounds)
            .with_n2(n2.collect()),
        stats: eng.stats().clone(),
        check,
    }
}

/// Where an event-driven GS run starts. Theorem 1's operator is
/// monotone, so one relaxation reaches the fixed point from either
/// start (DESIGN.md §10).
#[derive(Clone, Copy, Debug)]
pub(crate) enum GsStart<'p> {
    /// From scratch: the top element, every node `n`-safe.
    Scratch,
    /// From `prev`, the fixed point before one churn event: a
    /// pre-fixed point of the new operator after a fault, a post-fixed
    /// point after a recovery.
    After(&'p SafetyMap, ChurnEvent),
}

impl GsStart<'_> {
    /// Whether levels descend from this start (they ascend only after
    /// a recovery).
    fn descending(self) -> bool {
        !matches!(self, GsStart::After(_, ChurnEvent::Recover(_)))
    }
}

/// Asynchronous GS actor: re-evaluates on every received level and
/// gossips its own level whenever it changes (state-change-driven,
/// §2.2 item 3). [`run_gs_async`] and [`run_gs_reliable`] start it from
/// scratch, [`crate::run_delta_gs`] from the fixed point before one
/// churn event; the start is fixed at construction.
///
/// Initial knowledge follows the paper's assumption 2 ("each node knows
/// exactly the safety status of all its neighbors" via local fault
/// detection): a faulty neighbor (or one behind a faulty link) reads 0
/// permanently, a usable one reads its start level until it says
/// otherwise. From scratch that start is the top element, every node
/// `n`-safe, and every node evaluates Definition 1 once: those whose
/// adjacent faults alone lower their level kick off the wave (zero cost
/// when fault-free, §2.2). After an event it is the previous fixed
/// point, and only the event node's neighborhood speaks at start (the
/// `evaluate` and `tell` fields): a fault that demotes nobody costs
/// zero messages.
///
/// Knowledge merges in the run's direction, by `min` while levels
/// descend and by `max` while they ascend, so a stale reordered
/// announcement is a no-op and every change moves one way through a
/// finite lattice: the run terminates after at most `n · 2ⁿ`
/// announcements, and the quiescent state is Theorem 1's unique fixed
/// point.
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
    /// `true` from scratch and after a fault (descend, merge by `min`),
    /// `false` after a recovery (ascend, merge by `max`).
    descending: bool,
    /// Whether the node evaluates Definition 1 at start and announces
    /// if its level changed: from scratch, and next to a fault.
    evaluate: bool,
    /// The dimensions the node tells its level unconditionally at
    /// start: every one for a revived node, the revived neighbor's for
    /// that node's neighbors.
    tell: u32,
    /// Whether every level change so far moved in the run's direction
    /// (the Definition 1 operator is monotone); [`GsCorridor`] checks it
    /// at every quiescent point instead of a `debug_assert` so
    /// adversarial runs report a violation rather than abort.
    monotone: bool,
}

impl AsyncGsNode {
    pub(crate) fn new(cfg: &FaultConfig, start: GsStart, me: NodeId, latency: u64) -> Self {
        let n = cfg.cube().dim();
        let revived = matches!(start, GsStart::After(_, ChurnEvent::Recover(a)) if a == me);
        let (mut usable, mut edge) = (0u32, 0u32);
        let mut heard = NeighborLevels::filled(n, 0);
        for (b, d) in cfg.cube().neighbours(me).zip(0..) {
            // The bit of the edge to the event node, if it is adjacent.
            if matches!(start, GsStart::After(_, event) if event.node() == b) {
                edge = 1 << d;
            }
            if !cfg.node_faulty(b) && !cfg.link_faults().contains(me, b) {
                usable |= 1 << d;
                let known = match start {
                    GsStart::Scratch => n,
                    // The revived node has no memory: its neighbors
                    // read 0 until they tell it their levels.
                    GsStart::After(..) if revived => 0,
                    GsStart::After(prev, _) => prev.level(b),
                };
                heard.set(d, known);
            }
        }
        let (level, evaluate, tell) = match start {
            GsStart::Scratch => (n, true, 0),
            GsStart::After(..) if revived => {
                (level_from_unsorted(n, heard.iter(n)), false, u32::MAX)
            }
            GsStart::After(prev, ChurnEvent::Fault(_)) => (prev.level(me), edge != 0, 0),
            GsStart::After(prev, ChurnEvent::Recover(_)) => (prev.level(me), false, edge),
        };
        AsyncGsNode {
            n,
            level,
            heard,
            usable,
            latency,
            descending: start.descending(),
            evaluate,
            tell,
            monotone: true,
        }
    }

    /// Current safety level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// `true` while every level change has moved in the run's direction
    /// (down from scratch and after a fault, up after a recovery): the
    /// lattice-monotonicity property termination rests on.
    pub fn monotone(&self) -> bool {
        self.monotone
    }

    fn reevaluate(&mut self) -> bool {
        // Histogram evaluation: no clone, no sort (hot path — runs on
        // every received announcement).
        let new = level_from_unsorted(self.n, self.heard.iter(self.n));
        if new != self.level {
            self.monotone &= if self.descending {
                new < self.level
            } else {
                new > self.level
            };
            self.level = new;
            true
        } else {
            false
        }
    }

    /// The dimensions the node tells at start: every one when its
    /// opening evaluation moves its level, else those it tells
    /// unconditionally.
    fn opening(&mut self) -> u32 {
        if self.evaluate && self.reevaluate() {
            u32::MAX
        } else {
            self.tell
        }
    }

    /// Merges `msg` from neighbor `from` in the run's direction and
    /// re-evaluates; `true` when the level moved. A value against the
    /// direction is a stale reordered announcement and is ignored: with
    /// plain overwrite a late-arriving one could resurrect knowledge
    /// under an adversarial schedule, while the directed merge makes
    /// the run monotone unconditionally, which is what [`GsCorridor`]
    /// checks.
    fn hear(&mut self, me: NodeId, from: NodeId, msg: Level) -> bool {
        let dim = me.xor(from).set_dims().next().expect("neighbor");
        let h = self.heard.get(dim);
        let merged = if self.descending {
            h.min(msg)
        } else {
            h.max(msg)
        };
        self.heard.set(dim, merged);
        self.reevaluate()
    }

    /// The dimensions among `dims` below `n`, in order.
    fn dims(&self, dims: u32) -> impl Iterator<Item = u8> {
        (0..self.n).filter(move |&i| dims >> i & 1 == 1)
    }
}

/// Canonical protocol state for the model checker: own level, per-dim
/// neighbor knowledge, and the `monotone` flag. `n`, `usable`,
/// `descending`, `evaluate` and `tell` are static per run and `latency`
/// is timing, so all of them are excluded — which is exactly what lets
/// the untimed checker merge engine states that differ only in clock
/// detail.
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
        let dims = self.opening();
        for i in self.dims(dims) {
            ctx.send(ctx.self_id().neighbor(i), self.level, self.latency);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Level>, from: NodeId, msg: Level) {
        if self.hear(ctx.self_id(), from, msg) {
            for i in self.dims(u32::MAX) {
                ctx.send(ctx.self_id().neighbor(i), self.level, self.latency);
            }
        }
    }
}

/// The same state-change-driven protocol, but every announcement goes
/// through the reliable layer — the shape GS must take when links lose
/// messages. Announcements are only sent to locally-usable neighbors
/// (assumption 2), so no retransmission budget is wasted on peers that
/// are known dead. The ARQ layer delivers in order per link, so the
/// directed merge is belt-and-suspenders there, but it keeps the two
/// forms' semantics identical.
impl ReliableActor for AsyncGsNode {
    type Msg = Level;

    fn on_start(&mut self, ctx: &mut RelCtx<Level>) {
        let dims = self.opening() & self.usable;
        for i in self.dims(dims) {
            ctx.send_reliable(ctx.self_id().neighbor(i), self.level);
        }
    }

    fn on_message(&mut self, ctx: &mut RelCtx<Level>, from: NodeId, msg: Level) {
        if self.hear(ctx.self_id(), from, msg) {
            for i in self.dims(self.usable) {
                ctx.send_reliable(ctx.self_id().neighbor(i), self.level);
            }
        }
    }
}

/// Engine invariant for asynchronous GS from either start, plain or
/// behind the reliable layer: the [`check_level_corridor`] adapter.
/// Every node's level moves only in the run's direction, pinned between
/// the level its actor starts from and Theorem 1's fixed point of the
/// run's configuration, checked at every quiescent point. Its violation
/// under message reordering motivated the directed merge in
/// [`AsyncGsNode`]; after a churn event, a run that leaves the corridor
/// means incremental maintenance is not exact. The model checker
/// ([`crate::mc_gs`], [`crate::mc_delta_gs`]) runs the same two
/// predicates over every reached state.
pub struct GsCorridor {
    /// Each node's start level, by node.
    start: Vec<Level>,
    target: SafetyMap,
    descending: bool,
}

impl GsCorridor {
    /// The corridor of a run from `start` over `cfg` (computes the
    /// Theorem 1 fixed point once), or the
    /// [`crate::properties::GS_CONVERGENCE`] violation that `cfg` has
    /// none: the fixed point is defined for node faults only.
    pub(crate) fn new(cfg: &FaultConfig, start: GsStart) -> Result<Self, Violation> {
        Ok(GsCorridor {
            target: gs_fixed_point(cfg, cfg.cube().dim())?,
            start: cfg
                .cube()
                .nodes()
                .map(|a| AsyncGsNode::new(cfg, start, a, 1).level)
                .collect(),
            descending: start.descending(),
        })
    }

    /// [`check_level_corridor`] over the actors of one cut.
    pub fn corridor<'x>(
        &self,
        actors: impl Iterator<Item = (NodeId, &'x AsyncGsNode)>,
    ) -> Result<(), Violation> {
        check_level_corridor(
            actors.map(|(a, g)| (a, g.level, g.monotone)),
            |a| self.start[a.raw() as usize],
            |a| self.target.level(a),
            self.descending,
        )
    }

    /// [`check_levels_converged`] over the actors of a quiescent cut.
    pub fn converged<'x>(
        &self,
        actors: impl Iterator<Item = (NodeId, &'x AsyncGsNode)>,
    ) -> Result<(), Violation> {
        check_levels_converged(actors.map(|(a, g)| (a, g.level)), |a| self.target.level(a))
    }
}

impl Invariant<Hypercube, AsyncGsNode> for GsCorridor {
    fn name(&self) -> &'static str {
        GS_CORRIDOR
    }

    fn check(&mut self, eng: &EventEngine<'_, Hypercube, AsyncGsNode>) -> Result<(), String> {
        self.corridor(eng.actors_iter()).map_err(|v| v.detail)
    }
}

/// The same corridor under the reliable layer: ARQ changes how levels
/// travel, not the lattice they move through.
impl Invariant<Hypercube, Reliable<AsyncGsNode>> for GsCorridor {
    fn name(&self) -> &'static str {
        GS_CORRIDOR
    }

    fn check(
        &mut self,
        eng: &EventEngine<'_, Hypercube, Reliable<AsyncGsNode>>,
    ) -> Result<(), String> {
        let actors = eng.actors_iter().map(|(a, r)| (a, &r.inner));
        self.corridor(actors).map_err(|v| v.detail)
    }
}

/// Drives `init`'s actors on `net`, the overlay of `cfg`, from `start`
/// under `opts`. With `opts.check`, [`GsCorridor`] is checked at every
/// quiescent point and, when `inner` names the GS actor inside an `A`
/// and the queue drained, the final cut must sit on the fixed point. A run cut by
/// `opts.max_events` is not a convergence failure, nor is one under a
/// kill plan, whose dead nodes stop the waves that cross them. A cube
/// with link faults has no fixed point to check against, so a checked
/// run on one reports [`crate::properties::GS_CONVERGENCE`] at its end.
fn drive<'n, A: Actor>(
    cfg: &FaultConfig,
    net: &'n Net<'n, Hypercube>,
    start: GsStart,
    opts: RunOptions,
    init: impl FnMut(NodeId) -> A,
    inner: Option<fn(&A) -> &AsyncGsNode>,
) -> (EventEngine<'n, Hypercube, A>, RunReport)
where
    GsCorridor: Invariant<Hypercube, A>,
{
    let mut corridor = opts.check.then(|| GsCorridor::new(cfg, start));
    let invariant = corridor.as_mut().and_then(|c| c.as_mut().ok());
    let settled = opts.kills.is_empty();
    let (eng, mut report) = EventEngine::drive(net, opts, init, |_| {}, invariant.map(|c| c as _));
    let settled = settled && report.drained && report.violation.is_none();
    let end = match (corridor, inner) {
        (Some(Err(v)), _) => Some(v),
        (Some(Ok(c)), Some(inner)) if settled => c
            .converged(eng.actors_iter().map(|(a, x)| (a, inner(x))))
            .err(),
        _ => None,
    };
    if let Some(v) = end {
        report.violation = Some(InvariantViolation {
            invariant: v.claim.into(),
            time: eng.stats().end_time,
            events_processed: report.processed,
            detail: v.detail,
        });
    }
    (eng, report)
}

/// Outcome of an asynchronous GS run, from scratch or after one churn
/// event.
#[derive(Clone, Debug)]
pub struct GsAsyncRun {
    /// The levels when the run stopped.
    pub map: SafetyMap,
    /// Engine statistics — after a churn event, `messages` is the
    /// O(affected region) cost to compare against a full GS run's
    /// O(n·2ⁿ).
    pub stats: EventStats,
    /// Whether every node's level moved monotonically in the run's
    /// direction (see [`AsyncGsNode::monotone`]).
    pub monotone: bool,
}

/// The plain actor from `start` with per-hop `latency` under `opts`:
/// the body of [`run_gs_async`] and [`crate::run_delta_gs`].
pub(crate) fn run_gs_from(
    cfg: &FaultConfig,
    start: GsStart,
    latency: u64,
    opts: RunOptions,
) -> (GsAsyncRun, RunReport) {
    let latency = latency.max(1);
    let net = Net::cube(cfg);
    let init = |a| AsyncGsNode::new(cfg, start, a, latency);
    let (eng, report) = drive(cfg, &net, start, opts, init, Some(|g| g));
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

/// Runs the asynchronous GS protocol from scratch with the given
/// per-hop message latency under `opts`, checking [`GsCorridor`] when
/// `opts.check` is set and, once the queue drains, that the run ended
/// on Theorem 1's fixed point.
///
/// Theorem 1's fixed point is schedule-free, so the returned map must
/// equal the centralized computation under *any* scheduler that only
/// reorders and delays (e.g.
/// [`hypersafe_simkit::AdversarialScheduler::permute`]; the protocol
/// assumes reliable links, so lossy channels and loss-bursting
/// adversaries belong with [`run_gs_reliable`]). Link faults are
/// accepted; a checked run on them reports a
/// [`crate::properties::GS_CONVERGENCE`] violation, since the fixed
/// point it checks against is defined for node faults only.
pub fn run_gs_async(cfg: &FaultConfig, latency: u64, opts: RunOptions) -> (GsAsyncRun, RunReport) {
    run_gs_from(cfg, GsStart::Scratch, latency, opts)
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
/// `opts.max_events`), checking [`GsCorridor`] when `opts.check` is
/// set. Link faults are accepted; a checked run on them reports a
/// [`crate::properties::GS_CONVERGENCE`] violation, as
/// [`run_gs_async`] does.
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
    let latency = latency.max(1);
    let net = Net::cube(cfg);
    let start = GsStart::Scratch;
    let init = |a| {
        Reliable::new(
            AsyncGsNode::new(cfg, start, a, latency),
            cfg.cube(),
            a,
            latency,
            rcfg,
        )
    };
    let (eng, mut report) = drive(cfg, &net, start, opts, init, None);
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
        let run = run_gs(cfg.cube(), &cfg);
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
            let sync = run_gs(cfg.cube(), &cfg);
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
    fn a_kill_plan_is_not_a_convergence_failure() {
        // Killing 0000 at start freezes it before its wave moves on,
        // so the drained run ends off the fixed point of the cube it
        // started on: the corridor holds, and convergence is not owed.
        let cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let opts = RunOptions {
            check: true,
            kills: vec![(NodeId::ZERO, 0)],
            ..RunOptions::default()
        };
        let (run, report) = run_gs_async(&cfg, 1, opts);
        assert!(report.drained);
        assert_eq!(report.violation, None);
        assert_ne!(run.map.store(), SafetyMap::compute(&cfg).store());
    }

    #[test]
    fn fault_free_costs_zero_active_rounds() {
        let cfg = cfg4(&[]);
        let run = run_gs(cfg.cube(), &cfg);
        assert_eq!(run.stats.active_rounds, 0);
        assert_eq!(run.stats.rounds_run, 1, "single quiescence probe");
    }

    #[test]
    fn message_count_per_round_is_two_per_usable_link() {
        let cfg = cfg4(&["0011"]);
        let run = run_gs(cfg.cube(), &cfg);
        // 15 healthy nodes; usable links = 32 − 4 (links of 0011).
        let usable = 28u64;
        assert_eq!(run.stats.messages % (2 * usable), 0);
    }
}
