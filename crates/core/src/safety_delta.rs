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
//! and DESIGN.md §10 for the cost model). The worklist marks queued
//! nodes in a dense bit per node, kept per thread and left clear by
//! every drained event, so an event neither hashes nor allocates; each
//! pop evaluates Definition 1 on the packed store with
//! `safety::rule_level`, which the diff-driven fixed-point check
//! uses too.
//!
//! [`SafetyMap::apply_fault`] / [`SafetyMap::apply_recover`] are the
//! centralized form; [`run_delta_gs`] is the distributed form: the
//! asynchronous GS actor ([`crate::gs::AsyncGsNode`]) started from the
//! previous fixed point instead of from scratch, so only nodes whose
//! level changed re-broadcast. Both are *exact*: the test suite and the
//! checked runs ([`crate::GsCorridor`]) enforce byte-identity against
//! [`SafetyMap::compute`] after every event.

use std::cell::Cell;
use std::collections::VecDeque;

use crate::gs::{run_gs_from, GsAsyncRun, GsStart};
use crate::safety::{rule_level, SafetyMap};
use hypersafe_simkit::{RunOptions, RunReport};
use hypersafe_topology::{FaultConfig, NodeId, Topology};

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
        self.propagate(cfg, cfg.cube().neighbours(a).map(|b| (b, 1)), &mut stats);
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
        self.propagate(cfg, [(a, 0)], &mut stats);
        self.set_rounds(stats.waves);
        stats.rounds_saved = u32::from(n.saturating_sub(1)).saturating_sub(stats.waves);
        stats
    }

    /// Seeds the worklist with `seeds` (node, wave) and drains it: pop
    /// a node, re-evaluate Definition 1 over *current* levels
    /// (Gauss–Seidel — fresh values are used as soon as they exist),
    /// and on change push its neighbors one wave deeper. Terminates
    /// because every accepted change moves strictly in one direction
    /// (down after a fault, up after a recovery) through a finite
    /// lattice; quiescence means no node's inputs changed since it was
    /// last evaluated, i.e. the map is a fixed point — *the* fixed
    /// point, by Theorem 1's uniqueness.
    fn propagate(
        &mut self,
        cfg: &FaultConfig,
        seeds: impl IntoIterator<Item = (NodeId, u32)>,
        stats: &mut DeltaStats,
    ) {
        let n = self.dim();
        let mut work = WORKLIST
            .take()
            .filter(|w| w.n == n)
            .unwrap_or_else(|| Worklist::new(n));
        debug_assert!(work.queue.is_empty(), "a previous call left nodes queued");
        for (b, depth) in seeds {
            work.push(b, depth);
        }
        while let Some((b, depth)) = work.pop() {
            if cfg.node_faulty(b) {
                continue;
            }
            stats.cells_touched += 1;
            let new = rule_level(self.space(), self.store(), b);
            if new != self.level(b) {
                self.set_level(b, new);
                stats.cells_changed += 1;
                stats.waves = stats.waves.max(depth);
                for c in cfg.cube().neighbours(b) {
                    work.push(c, depth + 1);
                }
            }
        }
        WORKLIST.set(Some(work));
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
        "delta updates handle node faults only; recompute with SafetyMap::compute for link faults"
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

/// FIFO worklist with a queued bit per node, so each node appears at
/// most once at a time; entries carry their BFS depth from the event
/// node.
///
/// The queued bits are a dense `2ⁿ`-bit array, one bit per node (a
/// quarter to a fifth of the packed map's size), set on push and cleared on pop. A
/// drained worklist has every bit clear again, so it is kept per thread
/// and reused by the next event without zeroing or allocating: the
/// cost of an event stays proportional to the region it touches. FIFO
/// order is carried entirely by the queue (determinism gate: churn.csv
/// across thread counts). Between events, [`with_clear_marks`] lends the
/// bits to [`SafetyMap::compute`]'s frontier rounds on the same thread.
struct Worklist {
    /// The cube dimension the bits are sized for.
    n: u8,
    queue: VecDeque<(NodeId, u32)>,
    queued: Vec<u64>,
}

thread_local! {
    /// One worklist per thread, kept between events on cubes of the
    /// same dimension and left drained by each. A call that panics
    /// takes it along, and the next call builds a fresh one.
    static WORKLIST: Cell<Option<Worklist>> = const { Cell::new(None) };
}

/// Runs `f` on `len` clear bits, which `f` must leave clear: the first
/// of this thread's queued bits when its worklist holds enough, else a
/// fresh array. The frontier rounds of both topologies mark nodes in
/// them, so a thread that maintains a map by delta keeps one `2ⁿ`-bit
/// scratch for all three, and one that only computes keeps none.
pub(crate) fn with_clear_marks<R>(len: u64, f: impl FnOnce(&mut [u64]) -> R) -> R {
    let words = len.div_ceil(64) as usize;
    let mut work = WORKLIST.take();
    let r = match work.as_mut().filter(|w| w.queued.len() >= words) {
        Some(w) => f(&mut w.queued[..words]),
        None => f(&mut vec![0; words]),
    };
    debug_assert!(
        work.iter().all(|w| w.queued.iter().all(|&m| m == 0)),
        "marks left set"
    );
    WORKLIST.set(work);
    r
}

impl Worklist {
    fn new(n: u8) -> Self {
        Worklist {
            n,
            queue: VecDeque::new(),
            queued: vec![0; (1usize << n).div_ceil(64)],
        }
    }

    #[inline]
    fn push(&mut self, a: NodeId, depth: u32) {
        let (w, bit) = ((a.raw() / 64) as usize, 1u64 << (a.raw() % 64));
        if self.queued[w] & bit == 0 {
            self.queued[w] |= bit;
            self.queue.push_back((a, depth));
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(NodeId, u32)> {
        let (a, d) = self.queue.pop_front()?;
        self.queued[(a.raw() / 64) as usize] &= !(1u64 << (a.raw() % 64));
        Some((a, d))
    }
}

/// Runs the delta-GS protocol for one churn event under `opts`: the
/// asynchronous GS actor ([`crate::gs::AsyncGsNode`]) started from
/// `prev`, the pre-event fixed point, on `cfg`, the post-event
/// configuration. Only the affected region speaks, so the message
/// count is O(affected region) instead of the full protocol's
/// O(n·2ⁿ); a fault that demotes nobody costs zero messages. The fixed
/// point is schedule-free, so the returned map equals
/// [`SafetyMap::compute`] on `cfg` under any reordering adversary —
/// enforced by tests, goldens and the DST suite. The protocol assumes
/// reliable links (reorder/stretch adversaries only).
///
/// With `opts.check` set, [`crate::GsCorridor`] is checked at every
/// quiescent point, and a run that drains off the post-event fixed
/// point reports a [`crate::properties::GS_CONVERGENCE`] violation:
/// incremental exactness as a machine-checked property of a running
/// simulation. A run cut by `opts.max_events` is not checked for
/// convergence.
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
/// assert!(run.stats.delivered < run_gs(cfg.cube(), &cfg).stats.messages);
/// ```
pub fn run_delta_gs(
    cfg: &FaultConfig,
    prev: &SafetyMap,
    event: ChurnEvent,
    latency: u64,
    opts: RunOptions,
) -> (GsAsyncRun, RunReport) {
    assert_event(prev, cfg, event);
    run_gs_from(cfg, GsStart::After(prev, event), latency, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::level_from_unsorted;
    use hypersafe_simkit::AdversarialScheduler;
    use hypersafe_topology::{FaultSet, Hypercube};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The worklist as it was before the per-thread queued bits: a
    /// `HashSet` of queued nodes beside the FIFO, a fresh one per
    /// event.
    #[derive(Default)]
    struct HashWorklist {
        queue: VecDeque<(NodeId, u32)>,
        queued: HashSet<u64>,
    }

    impl HashWorklist {
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

    /// The delta as it was before the per-thread queued bits, over
    /// [`HashWorklist`] and the histogram rule: the reference the delta
    /// must match, map and counters alike.
    fn reference_apply(map: &mut SafetyMap, cfg: &FaultConfig, event: ChurnEvent) -> DeltaStats {
        let cube = cfg.cube();
        let n = cube.dim();
        let mut stats = DeltaStats::default();
        let mut work = HashWorklist::default();
        match event {
            ChurnEvent::Fault(a) => {
                stats.cells_changed = 1;
                map.set_level(a, 0);
                for b in cube.neighbours(a) {
                    work.push(b, 1);
                }
            }
            ChurnEvent::Recover(a) => work.push(a, 0),
        }
        while let Some((b, depth)) = work.pop() {
            if cfg.node_faulty(b) {
                continue;
            }
            stats.cells_touched += 1;
            let new = level_from_unsorted(n, cube.neighbours(b).map(|c| map.level(c)));
            if new != map.level(b) {
                map.set_level(b, new);
                stats.cells_changed += 1;
                stats.waves = stats.waves.max(depth);
                for c in cube.neighbours(b) {
                    work.push(c, depth + 1);
                }
            }
        }
        map.set_rounds(stats.waves);
        stats.rounds_saved = u32::from(n.saturating_sub(1)).saturating_sub(stats.waves);
        stats
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random fault/recover sequences on Q3–Q12, dense enough that
        /// waves run several shells deep: after every event the delta
        /// equals the `HashSet` reference in map, rounds and every
        /// counter, and the map is the scratch fixed point. Cases
        /// alternate dimensions, so the per-thread worklist is rebuilt
        /// and reused across them.
        #[test]
        fn worklist_matches_the_hashset_reference(
            n in 3u8..=12,
            initial in proptest::collection::vec(any::<u64>(), 0..=24),
            events in proptest::collection::vec(any::<u64>(), 1..=32),
        ) {
            let cube = Hypercube::new(n);
            let len = cube.num_nodes();
            let mut cfg = FaultConfig::with_node_faults(
                cube,
                FaultSet::from_nodes(cube, initial.iter().map(|&r| NodeId::new(r % len))),
            );
            let mut map = SafetyMap::compute(&cfg);
            let mut reference = map.clone();
            for r in events {
                // Half the events land next to the previous fault
                // region, where waves are deepest.
                let a = NodeId::new(if r & 1 == 0 { r % len } else { (r >> 1) % (len / 8).max(1) });
                let (got, want) = if cfg.node_faulty(a) {
                    cfg.node_faults_mut().remove(a);
                    (map.apply_recover(&cfg, a), reference_apply(&mut reference, &cfg, ChurnEvent::Recover(a)))
                } else {
                    cfg.node_faults_mut().insert(a);
                    (map.apply_fault(&cfg, a), reference_apply(&mut reference, &cfg, ChurnEvent::Fault(a)))
                };
                prop_assert_eq!(got, want, "event at {}", a);
                prop_assert_eq!(&map, &reference);
                let scratch = SafetyMap::compute(&cfg);
                prop_assert_eq!(map.store(), scratch.store());
            }
        }
    }

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
        let full = crate::gs::run_gs(cfg.cube(), &cfg);
        assert_eq!(delta.map.store(), full.map.store());
        assert_eq!(delta.stats.delivered, 0, "nobody demoted → nobody speaks");
        assert!(full.stats.messages > 1000, "full GS floods the cube");
    }

    #[test]
    fn a_budget_cut_is_not_a_convergence_failure() {
        // The fault of 1001 next to three faults of Q4 settles in ten
        // events. Cut after one, the checked run must report nothing
        // and equal the unchecked cut.
        let mut cfg = cfg4(&["0011", "0100", "0110"]);
        let prev = SafetyMap::compute(&cfg);
        let a = n("1001");
        cfg.node_faults_mut().insert(a);
        let run = |check, max_events| {
            let opts = RunOptions {
                check,
                max_events,
                ..RunOptions::default()
            };
            run_delta_gs(&cfg, &prev, ChurnEvent::Fault(a), 1, opts)
        };
        let (full, report) = run(true, u64::MAX);
        assert_eq!((report.processed, report.drained), (10, true));
        assert_eq!(report.violation, None);
        assert_eq!(full.map.store(), SafetyMap::compute(&cfg).store());
        let (plain, plain_report) = run(false, 1);
        let (cut, report) = run(true, 1);
        assert_eq!(report.violation, None, "a cut run is not unconverged");
        assert!(!report.drained);
        assert_eq!(report.processed, plain_report.processed);
        assert_eq!(cut.map.store(), plain.map.store());
        assert_eq!(cut.stats, plain.stats);
        assert_ne!(cut.map.store(), full.map.store(), "the cut stops short");
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
