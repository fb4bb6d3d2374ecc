//! Incremental safety-level maintenance — the delta engine.
//!
//! The paper recomputes all `2ⁿ` levels with up to `n − 1` global
//! rounds after every fault event. But a single fault or recovery has
//! *local, monotone* influence on the Theorem 1 fixed point:
//!
//! * **Fault at `a`** — clamp `a` to 0. The old map with `a` clamped is
//!   a pre-fixed point of the new Definition 1 operator (`F(x) ≤ x`),
//!   and the new fixed point lies (pointwise) below the old one, so
//!   chaotic Gauss–Seidel relaxation *descends* monotonically onto it.
//! * **Recovery at `a`** — the old map (with `a` still 0) is a
//!   post-fixed point (`x ≤ F(x)`) of the new operator, so relaxation
//!   *ascends* monotonically onto the new fixed point.
//!
//! Either way, only nodes whose inputs changed can be inconsistent, so
//! a dirty worklist seeded with the event node's neighborhood and
//! extended by the neighbors of every node whose level actually moved
//! reaches quiescence after touching just the affected region —
//! typically a vanishing fraction of the cube (see `results/churn.csv`
//! and DESIGN.md §10 for the cost model).
//!
//! [`SafetyMap::apply_fault`] / [`SafetyMap::apply_recover`] are the
//! centralized form; [`run_delta_gs`] is the distributed form (a
//! delta-GS actor on the unified event engine, where only nodes whose
//! level changed re-broadcast). Both are *exact*: the test suite and
//! the checked runs ([`DeltaGsDirected`]) enforce byte-identity against
//! [`SafetyMap::compute`] after every event.

use std::collections::{HashSet, VecDeque};

use crate::level_store::NeighborLevels;
use crate::properties::{check_level_corridor, check_levels_converged, Violation, GS_CORRIDOR};
use crate::safety::{level_from_unsorted, Level, SafetyMap};
use hypersafe_simkit::{
    Actor, Ctx, EventEngine, EventStats, HypercubeNet, Invariant, InvariantViolation, RunOptions,
    RunReport,
};
use hypersafe_topology::{FaultConfig, NodeId};

/// One topology churn event: a node dies or comes back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Node became faulty.
    Fault(NodeId),
    /// Node recovered.
    Recover(NodeId),
}

impl ChurnEvent {
    /// The node the event is about.
    #[inline]
    pub fn node(self) -> NodeId {
        match self {
            ChurnEvent::Fault(a) | ChurnEvent::Recover(a) => a,
        }
    }
}

/// Work accounting for one incremental update, reported next to the
/// full-recompute cost it replaced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Local level re-evaluations performed (worklist pops). A full
    /// recompute touches `2ⁿ` cells per round.
    pub cells_touched: u64,
    /// Nodes whose level actually changed (including the event node).
    pub cells_changed: u64,
    /// Propagation depth: the largest BFS distance from the event node
    /// at which a level changed (0 when the event affected no one).
    pub waves: u32,
    /// Global rounds avoided versus the paper's `D = n − 1` recompute
    /// bound: `(n − 1) − waves`, saturating at 0.
    pub rounds_saved: u32,
}

impl SafetyMap {
    /// Incrementally folds the fault of node `a` into this map.
    ///
    /// Preconditions: `self` is the Theorem 1 fixed point of the
    /// *pre-event* configuration, and `cfg` is the *post-event*
    /// configuration (with `a` already marked faulty, node faults
    /// only). On return, `self` equals `SafetyMap::compute(cfg)` —
    /// exactly, by the monotone-descent argument in the module docs.
    ///
    /// # Examples
    ///
    /// ```
    /// use hypersafe_topology::{Hypercube, FaultSet, FaultConfig, NodeId};
    /// use hypersafe_core::SafetyMap;
    ///
    /// let cube = Hypercube::new(6);
    /// let mut cfg = FaultConfig::fault_free(cube);
    /// let mut map = SafetyMap::compute(&cfg);
    /// let a = NodeId::new(9);
    /// cfg.node_faults_mut().insert(a);
    /// let stats = map.apply_fault(&cfg, a);
    /// assert_eq!(map.store(), SafetyMap::compute(&cfg).store());
    /// // One fault in a healthy cube lowers no neighbor below n: the
    /// // wave dies in the first shell.
    /// assert_eq!(stats.cells_changed, 1);
    /// assert!(stats.cells_touched <= 6);
    /// ```
    pub fn apply_fault(&mut self, cfg: &FaultConfig, a: NodeId) -> DeltaStats {
        assert_event(self, cfg, ChurnEvent::Fault(a));
        let n = self.dim();
        let mut stats = DeltaStats {
            cells_changed: 1, // the event node itself: level → 0
            ..DeltaStats::default()
        };
        self.set_level(a, 0);
        let mut work = Worklist::new();
        for b in cfg.cube().neighbors(a) {
            work.push(b, 1);
        }
        self.propagate(cfg, work, &mut stats);
        self.set_rounds(stats.waves);
        stats.rounds_saved = u32::from(n.saturating_sub(1)).saturating_sub(stats.waves);
        stats
    }

    /// Incrementally folds the recovery of node `a` into this map —
    /// the ascending twin of [`SafetyMap::apply_fault`]. `cfg` is the
    /// post-event configuration (with `a` already healthy again).
    pub fn apply_recover(&mut self, cfg: &FaultConfig, a: NodeId) -> DeltaStats {
        assert_event(self, cfg, ChurnEvent::Recover(a));
        let n = self.dim();
        let mut stats = DeltaStats::default();
        // Seed with the event node itself (depth 0): re-evaluating it
        // lifts it off 0, which is counted by `propagate` like any
        // other change, and its neighbors join the frontier from there.
        let mut work = Worklist::new();
        work.push(a, 0);
        self.propagate(cfg, work, &mut stats);
        self.set_rounds(stats.waves);
        stats.rounds_saved = u32::from(n.saturating_sub(1)).saturating_sub(stats.waves);
        stats
    }

    /// Drains the worklist: pop a node, re-evaluate Definition 1 over
    /// *current* levels (Gauss–Seidel — fresh values are used as soon
    /// as they exist), and on change push its neighbors one wave
    /// deeper. Terminates because every accepted change moves strictly
    /// in one direction (down after a fault, up after a recovery)
    /// through a finite lattice; quiescence means no node's inputs
    /// changed since it was last evaluated, i.e. the map is a fixed
    /// point — *the* fixed point, by Theorem 1's uniqueness.
    fn propagate(&mut self, cfg: &FaultConfig, mut work: Worklist, stats: &mut DeltaStats) {
        let n = self.dim();
        let cube = cfg.cube();
        while let Some((b, depth)) = work.pop() {
            if cfg.node_faulty(b) {
                continue;
            }
            stats.cells_touched += 1;
            let new = level_from_unsorted(n, cube.neighbors(b).map(|c| self.level(c)));
            if new != self.level(b) {
                self.set_level(b, new);
                stats.cells_changed += 1;
                stats.waves = stats.waves.max(depth);
                for c in cube.neighbors(b) {
                    work.push(c, depth + 1);
                }
            }
        }
    }
}

/// Asserts the preconditions of folding `event` into `prev`, the
/// pre-event fixed point, where `cfg` is the post-event configuration:
/// node faults only, matching dimensions, and the event agreeing with
/// both (a faulted node is faulty in `cfg` and healthy in `prev`, a
/// recovered one the other way round).
fn assert_event(prev: &SafetyMap, cfg: &FaultConfig, event: ChurnEvent) {
    assert!(
        cfg.link_faults().is_empty(),
        "delta updates handle node faults only; use egs for link faults"
    );
    assert_eq!(prev.dim(), cfg.cube().dim(), "cube dimension mismatch");
    let a = event.node();
    assert!(cfg.cube().contains(a), "{a} outside the cube");
    match event {
        ChurnEvent::Fault(_) => {
            assert!(cfg.node_faulty(a), "Fault event: cfg must mark {a} faulty");
            assert_ne!(prev.level(a), 0, "Fault event: {a} was already faulty");
        }
        ChurnEvent::Recover(_) => {
            assert!(
                !cfg.node_faulty(a),
                "Recover event: cfg must mark {a} healthy"
            );
            assert_eq!(prev.level(a), 0, "Recover event: {a} was not faulty");
        }
    }
}

/// FIFO worklist with an in-queue set so each node appears at most
/// once at a time; entries carry their BFS depth from the event node.
///
/// The set is a `HashSet` over the (typically tiny) affected region,
/// *not* a `2ⁿ`-bit array: a dense bitset would cost an O(2ⁿ) zeroing
/// per event — a 1 MiB memset at n=20, dwarfing the actual worklist
/// drain and wrecking the "incremental beats scratch by orders of
/// magnitude" contract the scale experiment measures. FIFO order is
/// carried entirely by the queue, so dedup-set iteration order never
/// influences results (determinism gate: churn.csv across thread
/// counts).
struct Worklist {
    queue: VecDeque<(NodeId, u32)>,
    queued: HashSet<u64>,
}

impl Worklist {
    fn new() -> Self {
        Worklist {
            queue: VecDeque::new(),
            queued: HashSet::new(),
        }
    }

    fn push(&mut self, a: NodeId, depth: u32) {
        if self.queued.insert(a.raw()) {
            self.queue.push_back((a, depth));
        }
    }

    fn pop(&mut self) -> Option<(NodeId, u32)> {
        let (a, d) = self.queue.pop_front()?;
        self.queued.remove(&a.raw());
        Some((a, d))
    }
}

/// Delta-GS actor: the distributed form of the incremental update.
///
/// Nodes keep the levels they learned before the event (the previous
/// fixed point); after the event only the affected region speaks:
///
/// * **Fault** — the dead node's neighbors detect the fault locally
///   (assumption 2), drop that dimension's knowledge to 0, re-evaluate
///   and announce *only if their own level changed*. Unaffected nodes
///   never send. Knowledge merges by `min` (levels only descend after
///   a fault), which makes the descent immune to adversarial
///   reordering.
/// * **Recovery** — the revived node knows which neighbors are healthy
///   but not their levels; it starts from all-zero knowledge and
///   announces its (conservatively low) level unconditionally, while
///   its neighbors courtesy-announce their current levels to it.
///   Knowledge merges by `max` (levels only ascend after a recovery).
///
/// Message count is therefore O(affected region) instead of the full
/// protocol's O(n·2ⁿ); in particular a fault that demotes nobody costs
/// **zero** messages.
#[derive(Clone, Debug)]
pub struct DeltaGsNode {
    n: u8,
    level: Level,
    /// Best current knowledge of each neighbor's level, by dimension —
    /// packed 5 bits per dimension, so actor state stays heap-free
    /// even with a million simulated nodes.
    heard: NeighborLevels,
    latency: u64,
    /// `true` after a fault event (descend / min-merge), `false` after
    /// a recovery (ascend / max-merge).
    descending: bool,
    /// Role flags: the recovered node itself, or a neighbor of the
    /// event node.
    is_event_node: bool,
    event_dim: Option<u8>,
    /// Whether every level change so far moved in the event's
    /// direction; checked by the DST invariant suite rather than
    /// asserted, so adversarial runs report instead of abort.
    monotone: bool,
}

impl DeltaGsNode {
    /// Builds the post-event state of node `me`. `cfg` is the
    /// post-event configuration, `prev` the pre-event fixed point.
    pub fn new(
        cfg: &FaultConfig,
        prev: &SafetyMap,
        event: ChurnEvent,
        me: NodeId,
        latency: u64,
    ) -> Self {
        let n = cfg.cube().dim();
        let is_event_node = me == event.node();
        let event_dim = cfg
            .cube()
            .neighbors_with_dims(me)
            .find(|&(_, b)| b == event.node())
            .map(|(d, _)| d);
        // Retained knowledge: the previous fixed point, overridden by
        // local fault detection (a currently-faulty neighbor reads 0).
        // The revived node has no memory: healthy neighbors read 0 too
        // until they courtesy-announce.
        let mut heard = NeighborLevels::filled(n, 0);
        for (d, b) in cfg.cube().neighbors_with_dims(me) {
            if !cfg.node_faulty(b) && !is_event_node {
                heard.set(d, prev.level(b));
            }
        }
        let level = if is_event_node {
            level_from_unsorted(n, heard.iter(n))
        } else {
            prev.level(me)
        };
        DeltaGsNode {
            n,
            level,
            heard,
            latency,
            descending: matches!(event, ChurnEvent::Fault(_)),
            is_event_node,
            event_dim,
            monotone: true,
        }
    }

    /// Current safety level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// `true` while every level change has moved in the event's
    /// direction (down for fault, up for recovery).
    pub fn monotone(&self) -> bool {
        self.monotone
    }

    fn reevaluate(&mut self) -> bool {
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

    fn announce(&self, ctx: &mut Ctx<Level>) {
        for i in 0..self.n {
            ctx.send(ctx.self_id().neighbor(i), self.level, self.latency);
        }
    }
}

/// Canonical protocol state for the model checker: level, neighbor
/// knowledge, and the direction-monotonicity flag. The event role
/// flags (`descending`, `is_event_node`, `event_dim`) are static per
/// run and `latency` is timing — all excluded.
impl hypersafe_simkit::StateHash for DeltaGsNode {
    fn state_hash(&self, h: &mut hypersafe_simkit::McHasher) {
        h.write_u64(self.level as u64);
        for d in 0..self.n {
            h.write_u64(self.heard.get(d) as u64);
        }
        h.write_bytes(&[self.monotone as u8]);
    }
}

impl Actor for DeltaGsNode {
    type Msg = Level;

    fn on_start(&mut self, ctx: &mut Ctx<Level>) {
        if self.is_event_node {
            // Revived node: its level is conservative (built from zero
            // knowledge), so it must speak even if nothing "changed" —
            // neighbors still hold 0 for its dimension.
            self.announce(ctx);
        } else if let Some(dim) = self.event_dim {
            if self.descending {
                // Local fault detection: that dimension now reads 0.
                self.heard.set(dim, 0);
                if self.reevaluate() {
                    self.announce(ctx);
                }
            } else {
                // Courtesy announcement to the revived neighbor only.
                ctx.send(ctx.self_id().neighbor(dim), self.level, self.latency);
            }
        }
        // Every other node: silent. This is the whole point.
    }

    fn on_message(&mut self, ctx: &mut Ctx<Level>, from: NodeId, msg: Level) {
        let dim = ctx.self_id().xor(from).set_dims().next().expect("neighbor");
        let h = self.heard.get(dim);
        // Direction-aware monotone merge: after a fault true levels
        // only descend, so min(); after a recovery only ascend, so
        // max(). Either way stale reordered announcements are ignored.
        self.heard.set(
            dim,
            if self.descending {
                h.min(msg)
            } else {
                h.max(msg)
            },
        );
        if self.reevaluate() {
            self.announce(ctx);
        }
    }
}

/// Engine invariant for delta-GS runs: the [`check_level_corridor`]
/// adapter. Every node's level moves only in the event's direction
/// (down after a fault, up after a recovery), pinned between the level
/// its actor starts from and the post-event Theorem 1 fixed point —
/// if the delta protocol ever leaves that corridor, incremental
/// maintenance is not exact and the run fails. The model checker
/// ([`crate::mc_delta_gs`]) runs the same two predicates over every
/// reached state.
pub struct DeltaGsDirected {
    start: Vec<Level>,
    target: SafetyMap,
    descending: bool,
}

impl DeltaGsDirected {
    /// Invariant state for a delta-GS run: `cfg` is the post-event
    /// configuration, `prev_map` the pre-event fixed point. Computes
    /// the post-event fixed point once as the far bound; the near bound
    /// is each actor's start level (the pre-event level, except that a
    /// revived node starts from zero knowledge, which Definition 1
    /// evaluates to level 1).
    pub fn new(cfg: &FaultConfig, prev_map: &SafetyMap, event: ChurnEvent) -> Self {
        DeltaGsDirected {
            start: cfg
                .cube()
                .nodes()
                .map(|a| DeltaGsNode::new(cfg, prev_map, event, a, 1).level)
                .collect(),
            target: SafetyMap::compute(cfg),
            descending: matches!(event, ChurnEvent::Fault(_)),
        }
    }

    /// [`check_level_corridor`] over the actors of one cut.
    pub fn corridor<'x>(
        &self,
        actors: impl Iterator<Item = (NodeId, &'x DeltaGsNode)>,
    ) -> Result<(), Violation> {
        check_level_corridor(
            actors.map(|(a, x)| (a, x.level, x.monotone)),
            |a| self.start[a.raw() as usize],
            |a| self.target.level(a),
            self.descending,
        )
    }

    /// [`check_levels_converged`] over the actors of a quiescent cut.
    pub fn converged<'x>(
        &self,
        actors: impl Iterator<Item = (NodeId, &'x DeltaGsNode)>,
    ) -> Result<(), Violation> {
        check_levels_converged(actors.map(|(a, x)| (a, x.level)), |a| self.target.level(a))
    }
}

impl<'n> Invariant<HypercubeNet<'n>, DeltaGsNode> for DeltaGsDirected {
    fn name(&self) -> &'static str {
        GS_CORRIDOR
    }

    fn check(
        &mut self,
        eng: &EventEngine<'_, HypercubeNet<'n>, DeltaGsNode>,
    ) -> Result<(), String> {
        self.corridor(eng.actors_iter()).map_err(|v| v.detail)
    }
}

/// Outcome of a distributed delta-GS run.
#[derive(Clone, Debug)]
pub struct DeltaGsRun {
    /// The post-event safety levels.
    pub map: SafetyMap,
    /// Engine statistics — `messages` here is the O(affected region)
    /// cost to compare against a full GS run's O(n·2ⁿ).
    pub stats: EventStats,
    /// Whether every node's level moved monotonically in the event's
    /// direction (see [`DeltaGsNode::monotone`]).
    pub monotone: bool,
}

/// Runs the delta-GS protocol for one churn event under `opts`. `cfg`
/// is the post-event configuration, `prev` the pre-event fixed point.
/// The fixed point is schedule-free, so the returned map equals
/// [`SafetyMap::compute`] on `cfg` under any reordering adversary —
/// enforced by tests, goldens and the DST suite. The protocol assumes
/// reliable links (reorder/stretch adversaries only).
///
/// With `opts.check` set, [`DeltaGsDirected`] is checked at every
/// quiescent point, and a run that ends off the post-event fixed point
/// reports a [`crate::properties::GS_CONVERGENCE`] violation:
/// incremental exactness as a machine-checked property of a running
/// simulation.
///
/// # Panics
///
/// On every path, checked or not, when `cfg` has link faults, when
/// `prev` and `cfg` differ in dimension, or when `event` disagrees with
/// them: its node must lie in the cube, and a [`ChurnEvent::Fault`]
/// node must be faulty in `cfg` and healthy in `prev`, a
/// [`ChurnEvent::Recover`] node the other way round.
///
/// # Examples
///
/// ```
/// use hypersafe_topology::{Hypercube, FaultSet, FaultConfig, NodeId};
/// use hypersafe_core::{run_delta_gs, run_gs, ChurnEvent, SafetyMap};
/// use hypersafe_simkit::RunOptions;
///
/// let cube = Hypercube::new(5);
/// let mut cfg = FaultConfig::fault_free(cube);
/// let prev = SafetyMap::compute(&cfg);
/// let a = NodeId::new(7);
/// cfg.node_faults_mut().insert(a);
/// let (run, _) = run_delta_gs(&cfg, &prev, ChurnEvent::Fault(a), 1, RunOptions::default());
/// assert_eq!(run.map.store(), SafetyMap::compute(&cfg).store());
/// // A lone fault demotes nobody in a healthy 5-cube: zero messages,
/// // versus a full re-broadcast for the from-scratch protocol.
/// assert_eq!(run.stats.delivered, 0);
/// assert!(run.stats.delivered < run_gs(&cfg).stats.messages);
/// ```
pub fn run_delta_gs(
    cfg: &FaultConfig,
    prev: &SafetyMap,
    event: ChurnEvent,
    latency: u64,
    opts: RunOptions,
) -> (DeltaGsRun, RunReport) {
    assert_event(prev, cfg, event);
    let latency = latency.max(1);
    let net = HypercubeNet::new(cfg);
    let mut directed = opts.check.then(|| DeltaGsDirected::new(cfg, prev, event));
    let (eng, mut report) = EventEngine::drive(
        &net,
        opts,
        |a| DeltaGsNode::new(cfg, prev, event, a, latency),
        |_| {},
        directed.as_mut().map(|d| d as _),
    );
    if let (Some(directed), None) = (&directed, &report.violation) {
        if let Err(v) = directed.converged(eng.actors_iter()) {
            report.violation = Some(InvariantViolation {
                invariant: v.claim.into(),
                time: eng.stats().end_time,
                events_processed: eng.stats().delivered,
                detail: v.detail,
            });
        }
    }
    let levels: Vec<Level> = cfg
        .cube()
        .nodes()
        .map(|a| eng.actor(a).map_or(0, DeltaGsNode::level))
        .collect();
    let monotone = cfg
        .cube()
        .nodes()
        .filter_map(|a| eng.actor(a))
        .all(DeltaGsNode::monotone);
    let run = DeltaGsRun {
        map: SafetyMap::from_levels(cfg.cube(), levels),
        stats: eng.stats().clone(),
        monotone,
    };
    (run, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_simkit::AdversarialScheduler;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
    }

    #[test]
    fn fault_then_recover_roundtrip_fig1() {
        // Start from Fig. 1, fault 0101 (a 2-safe node), recover it.
        let mut cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let mut map = SafetyMap::compute(&cfg);
        let a = n("0101");

        cfg.node_faults_mut().insert(a);
        let fs = map.apply_fault(&cfg, a);
        assert_eq!(map.store(), SafetyMap::compute(&cfg).store());
        assert!(map.check_fixed_point(&cfg).is_none());
        assert!(fs.cells_changed >= 1);

        cfg.node_faults_mut().remove(a);
        let rs = map.apply_recover(&cfg, a);
        assert_eq!(map.store(), SafetyMap::compute(&cfg).store());
        assert!(rs.cells_changed >= 1, "the node itself came back");
    }

    #[test]
    fn exhaustive_single_events_q4() {
        // From every 3-fault configuration of Q_4 (seeded sample of
        // them) apply each possible single fault and single recovery;
        // the incremental map must equal the scratch recompute exactly.
        let cube = Hypercube::new(4);
        for seed in 0u64..40 {
            let mut f = FaultSet::new(cube);
            for i in 0..3u64 {
                f.insert(NodeId::new((seed * 7 + i * 5) % 16));
            }
            let base = FaultConfig::with_node_faults(cube, f.clone());
            let map0 = SafetyMap::compute(&base);
            for x in cube.nodes() {
                let mut cfg = base.clone();
                let mut map = map0.clone();
                if cfg.node_faulty(x) {
                    cfg.node_faults_mut().remove(x);
                    map.apply_recover(&cfg, x);
                } else {
                    cfg.node_faults_mut().insert(x);
                    map.apply_fault(&cfg, x);
                }
                assert_eq!(
                    map.store(),
                    SafetyMap::compute(&cfg).store(),
                    "seed {seed} event at {x}"
                );
            }
        }
    }

    #[test]
    fn lone_fault_in_healthy_cube_touches_only_one_shell() {
        let cube = Hypercube::new(10);
        let mut cfg = FaultConfig::fault_free(cube);
        let mut map = SafetyMap::compute(&cfg);
        let a = NodeId::new(517);
        cfg.node_faults_mut().insert(a);
        let st = map.apply_fault(&cfg, a);
        assert_eq!(st.cells_changed, 1, "only the dead node changes");
        assert_eq!(st.cells_touched, 10, "its n neighbors are probed");
        assert_eq!(st.waves, 0, "no neighbor level moved");
        assert_eq!(st.rounds_saved, 9, "a full recompute budget is n−1");
        assert_eq!(map.store(), SafetyMap::compute(&cfg).store());
    }

    #[test]
    fn delta_gs_matches_centralized_fig1_events() {
        let mut cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let prev = SafetyMap::compute(&cfg);
        let a = n("0101");
        cfg.node_faults_mut().insert(a);
        let (run, _) = run_delta_gs(&cfg, &prev, ChurnEvent::Fault(a), 1, RunOptions::default());
        assert_eq!(run.map.store(), SafetyMap::compute(&cfg).store());
        assert!(run.monotone);

        let prev2 = run.map.clone();
        cfg.node_faults_mut().remove(a);
        let (run2, _) = run_delta_gs(
            &cfg,
            &prev2,
            ChurnEvent::Recover(a),
            1,
            RunOptions::default(),
        );
        assert_eq!(run2.map.store(), SafetyMap::compute(&cfg).store());
        assert!(run2.monotone);
    }

    #[test]
    fn delta_gs_exhaustive_events_q3_under_adversary() {
        // Every single fault / recovery from every 2-fault base of Q_3,
        // under both FIFO and permuting adversarial schedules.
        let cube = Hypercube::new(3);
        for mask in 0u64..64 {
            let mut f = FaultSet::new(cube);
            f.insert(NodeId::new(mask % 8));
            f.insert(NodeId::new((mask / 8) % 8));
            let base = FaultConfig::with_node_faults(cube, f);
            let prev = SafetyMap::compute(&base);
            for x in cube.nodes() {
                let mut cfg = base.clone();
                let ev = if cfg.node_faulty(x) {
                    cfg.node_faults_mut().remove(x);
                    ChurnEvent::Recover(x)
                } else {
                    cfg.node_faults_mut().insert(x);
                    ChurnEvent::Fault(x)
                };
                let want = SafetyMap::compute(&cfg);
                for seed in [1u64, 0xBEEF] {
                    let opts = RunOptions {
                        sched: Box::new(AdversarialScheduler::permute(seed)),
                        ..RunOptions::default()
                    };
                    let (run, _) = run_delta_gs(&cfg, &prev, ev, 1, opts);
                    assert_eq!(
                        run.map.store(),
                        want.store(),
                        "mask {mask:#b} event {ev:?} seed {seed}"
                    );
                    assert!(run.monotone, "mask {mask:#b} event {ev:?} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn delta_gs_message_count_is_local() {
        // n = 8, one far-away fault: the delta protocol is silent while
        // full GS floods every link.
        let cube = Hypercube::new(8);
        let mut cfg = FaultConfig::fault_free(cube);
        let prev = SafetyMap::compute(&cfg);
        let a = NodeId::new(200);
        cfg.node_faults_mut().insert(a);
        let (delta, _) = run_delta_gs(&cfg, &prev, ChurnEvent::Fault(a), 1, RunOptions::default());
        let full = crate::gs::run_gs(&cfg);
        assert_eq!(delta.map.store(), full.map.store());
        assert_eq!(delta.stats.delivered, 0, "nobody demoted → nobody speaks");
        assert!(full.stats.messages > 1000, "full GS floods the cube");
    }

    #[test]
    #[should_panic(expected = "cfg must mark")]
    fn checked_run_rejects_an_event_cfg_does_not_show() {
        // The checked path asserts the preconditions too: a Fault event
        // for a node `cfg` still marks healthy never reaches the engine.
        let cfg = cfg4(&["0011"]);
        let prev = SafetyMap::compute(&cfg);
        let opts = RunOptions {
            check: true,
            ..RunOptions::default()
        };
        run_delta_gs(&cfg, &prev, ChurnEvent::Fault(n("0101")), 1, opts);
    }

    #[test]
    #[should_panic(expected = "node faults only")]
    fn checked_run_rejects_link_faults() {
        let mut cfg = cfg4(&[]);
        let prev = SafetyMap::compute(&cfg);
        cfg.link_faults_mut().insert(n("0000"), n("0001"));
        cfg.node_faults_mut().insert(n("1111"));
        let opts = RunOptions {
            check: true,
            ..RunOptions::default()
        };
        run_delta_gs(&cfg, &prev, ChurnEvent::Fault(n("1111")), 1, opts);
    }

    #[test]
    #[should_panic]
    fn apply_fault_rejects_unmarked_cfg() {
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::fault_free(cube);
        let mut map = SafetyMap::compute(&cfg);
        map.apply_fault(&cfg, NodeId::ZERO); // cfg does not mark it faulty
    }
}
