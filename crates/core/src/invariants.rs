//! The DST invariant suite: the paper's guarantees as machine-checked
//! properties of *running* simulations.
//!
//! [`crate::properties`] states the theorems over centralized
//! computations; this module restates them against distributed runs
//! under arbitrary schedulers, in two layers:
//!
//! * **Engine invariants** ([`hypersafe_simkit::Invariant`] impls)
//!   checked at every quiescent point of a run —
//!   [`GsLevelsDescend`] (safety levels only ever move down the
//!   lattice, and never below Theorem 1's fixed point) and
//!   [`ArqSingleDelivery`] (no unicast payload ever surfaces twice at
//!   a node).
//! * **Post-run checkers** returning [`Violation`]-style
//!   counterexamples — Theorem-2 path optimality, Theorem-4
//!   infeasibility soundness (against the
//!   [`hypersafe_topology::connectivity`] BFS oracle), GS convergence
//!   to the centralized fixed point, and ARQ exactly-once accounting.
//!
//! The event-driven runners check their protocol's engine invariant
//! when [`hypersafe_simkit::RunOptions::check`] is set:
//! [`GsLevelsDescend`] for [`crate::run_gs_async`] and
//! [`crate::run_gs_reliable`], [`DeltaGsDirected`] for
//! [`crate::run_delta_gs`], [`ArqSingleDelivery`] for
//! [`crate::run_unicast_lossy`] (the lossless [`crate::run_unicast`]
//! has none). `repro dst` sweeps those checked runs over seeds and
//! feeds their results to the post-run checkers.

use crate::gh_safety::{gh_gs_engine, GhGsNode, GhSafetyMap};
use crate::gh_unicast::GhDecision;
use crate::gs::{AsyncGsNode, GsAsyncRun};
use crate::properties::Violation;
use crate::safety::{Level, SafetyMap};
use crate::safety_delta::{ChurnEvent, DeltaGsNode};
use crate::unicast::Decision;
use crate::unicast_distributed::{LossyOutcome, LossyRun, LossyUnicastNode};
use hypersafe_simkit::{EventEngine, GhNet, HypercubeNet, Invariant, Reliable, SyncEngine};
use hypersafe_topology::{
    connectivity, FaultConfig, FaultSet, GeneralizedHypercube, GhNode, NodeId,
};

/// Engine invariant: every node's safety level descends monotonically
/// from the top start and never undershoots the centralized fixed
/// point. Checked at every quiescent point of an asynchronous GS run —
/// this is the "safety-level monotonic convergence" leg of the DST
/// suite, and the property whose violation under message reordering
/// motivated the monotone merge in [`AsyncGsNode`].
pub struct GsLevelsDescend {
    fixed: SafetyMap,
    prev: Vec<Level>,
}

impl GsLevelsDescend {
    /// Invariant state for a run over `cfg` (computes the Theorem 1
    /// fixed point once as the lower bound).
    pub fn new(cfg: &FaultConfig) -> Self {
        let n = cfg.cube().dim();
        GsLevelsDescend {
            fixed: SafetyMap::compute(cfg),
            prev: vec![n; cfg.cube().num_nodes() as usize],
        }
    }

    fn check_nodes<'x>(
        &mut self,
        nodes: impl Iterator<Item = (NodeId, &'x AsyncGsNode)>,
    ) -> Result<(), String> {
        for (a, node) in nodes {
            let lv = node.level();
            let prev = self.prev[a.raw() as usize];
            if lv > prev {
                return Err(format!("{a} rose from level {prev} to {lv}"));
            }
            if lv < self.fixed.level(a) {
                return Err(format!(
                    "{a} undershot the fixed point: {lv} < {}",
                    self.fixed.level(a)
                ));
            }
            if !node.monotone() {
                return Err(format!("{a} recorded a non-monotone internal update"));
            }
            self.prev[a.raw() as usize] = lv;
        }
        Ok(())
    }
}

impl<'n> Invariant<HypercubeNet<'n>, AsyncGsNode> for GsLevelsDescend {
    fn name(&self) -> &'static str {
        "gs-levels-descend"
    }

    fn check(
        &mut self,
        eng: &EventEngine<'_, HypercubeNet<'n>, AsyncGsNode>,
    ) -> Result<(), String> {
        self.check_nodes(eng.actors_iter())
    }
}

/// The same descent under the reliable layer: ARQ changes how levels
/// travel, not the lattice they descend.
impl<'n> Invariant<HypercubeNet<'n>, Reliable<AsyncGsNode>> for GsLevelsDescend {
    fn name(&self) -> &'static str {
        "gs-levels-descend"
    }

    fn check(
        &mut self,
        eng: &EventEngine<'_, HypercubeNet<'n>, Reliable<AsyncGsNode>>,
    ) -> Result<(), String> {
        self.check_nodes(eng.actors_iter().map(|(a, r)| (a, &r.inner)))
    }
}

/// Engine invariant for delta-GS runs: every node's level moves
/// monotonically in the event's direction (down after a fault, up
/// after a recovery), pinned between its pre-event start and the
/// post-event Theorem 1 fixed point. Checked at every quiescent point
/// — the incremental-maintenance leg of the DST suite: if the delta
/// protocol ever leaves the corridor between the old and new fixed
/// points, incremental maintenance is not exact and the run fails.
pub struct DeltaGsDirected {
    target: SafetyMap,
    prev: Vec<Level>,
    descending: bool,
}

impl DeltaGsDirected {
    /// Invariant state for a delta-GS run: `cfg` is the post-event
    /// configuration, `prev_map` the pre-event fixed point. Computes
    /// the post-event fixed point once as the far bound.
    pub fn new(cfg: &FaultConfig, prev_map: &SafetyMap, event: ChurnEvent) -> Self {
        let mut prev = prev_map.to_vec();
        let descending = matches!(event, ChurnEvent::Fault(_));
        if let ChurnEvent::Recover(a) = event {
            // The revived node starts from zero knowledge, which
            // Definition 1 evaluates to level 1 (a healthy node's
            // minimum) — not its pre-event level 0.
            prev[a.raw() as usize] = 1;
        }
        DeltaGsDirected {
            target: SafetyMap::compute(cfg),
            prev,
            descending,
        }
    }
}

impl<'n> Invariant<HypercubeNet<'n>, DeltaGsNode> for DeltaGsDirected {
    fn name(&self) -> &'static str {
        "delta-gs-directed"
    }

    fn check(
        &mut self,
        eng: &EventEngine<'_, HypercubeNet<'n>, DeltaGsNode>,
    ) -> Result<(), String> {
        for (a, node) in eng.actors_iter() {
            let lv = node.level();
            let prev = self.prev[a.raw() as usize];
            let goal = self.target.level(a);
            if self.descending {
                if lv > prev {
                    return Err(format!("{a} rose from level {prev} to {lv} after a fault"));
                }
                if lv < goal {
                    return Err(format!("{a} undershot the new fixed point: {lv} < {goal}"));
                }
            } else {
                if lv < prev {
                    return Err(format!(
                        "{a} fell from level {prev} to {lv} after a recovery"
                    ));
                }
                if lv > goal {
                    return Err(format!("{a} overshot the new fixed point: {lv} > {goal}"));
                }
            }
            if !node.monotone() {
                return Err(format!(
                    "{a} recorded a direction-violating internal update"
                ));
            }
            self.prev[a.raw() as usize] = lv;
        }
        Ok(())
    }
}

/// Engine invariant: the reliable layer never surfaces a unicast
/// payload twice at any node — the "ARQ exactly-once" leg, checked at
/// every quiescent point (not just at the end, so a transient
/// duplicate that a later event would mask still fails the run).
pub struct ArqSingleDelivery;

impl<'n> Invariant<HypercubeNet<'n>, Reliable<LossyUnicastNode>> for ArqSingleDelivery {
    fn name(&self) -> &'static str {
        "arq-single-delivery"
    }

    fn check(
        &mut self,
        eng: &EventEngine<'_, HypercubeNet<'n>, Reliable<LossyUnicastNode>>,
    ) -> Result<(), String> {
        for (a, r) in eng.actors_iter() {
            if r.inner.receives > 1 {
                return Err(format!(
                    "{a} had {} payload deliveries surface",
                    r.inner.receives
                ));
            }
        }
        Ok(())
    }
}

/// **GS convergence.** A quiescent asynchronous GS run must sit exactly
/// on Theorem 1's unique fixed point, having descended monotonically.
pub fn check_gs_convergence(cfg: &FaultConfig, run: &GsAsyncRun) -> Result<(), Violation> {
    if !run.monotone {
        return Err(Violation {
            claim: "gs-monotone-convergence",
            witness: vec![],
            detail: "some node's level increased during the run".into(),
        });
    }
    let fixed = SafetyMap::compute(cfg);
    for a in cfg.cube().nodes() {
        if run.map.level(a) != fixed.level(a) {
            return Err(Violation {
                claim: "gs-monotone-convergence",
                witness: vec![a],
                detail: format!(
                    "converged to level {} but the fixed point is {}",
                    run.map.level(a),
                    fixed.level(a)
                ),
            });
        }
    }
    Ok(())
}

/// Structural validity of a delivered trail: starts at `s`, ends at
/// `d`, hops are cube neighbors over usable links, and no intermediate
/// node is faulty (footnote 3: a faulty *destination* still counts as
/// delivered).
fn check_trail(cfg: &FaultConfig, s: NodeId, d: NodeId, trail: &[NodeId]) -> Result<(), Violation> {
    let bad = |detail: String| {
        Err(Violation {
            claim: "unicast-trail-valid",
            witness: trail.to_vec(),
            detail,
        })
    };
    if trail.first() != Some(&s) || trail.last() != Some(&d) {
        return bad(format!("trail does not run {s} → {d}"));
    }
    for w in trail.windows(2) {
        if w[0].distance(w[1]) != 1 {
            return bad(format!("{} → {} is not a cube edge", w[0], w[1]));
        }
        if !cfg.link_usable(w[0], w[1]) {
            return bad(format!("{} → {} crosses a faulty link", w[0], w[1]));
        }
    }
    for &v in &trail[1..trail.len().saturating_sub(1)] {
        if cfg.node_faulty(v) {
            return bad(format!("intermediate {v} is faulty"));
        }
    }
    Ok(())
}

/// **Theorem 2 / Theorem 3 optimality.** Given the source's decision
/// and the trail the destination recorded (if any): an `Optimal`
/// verdict must realize exactly `H` hops, `Suboptimal` exactly
/// `H + 2`, `Failure` must deliver nothing, and every delivered trail
/// must be structurally valid. `delivery_guaranteed` is false when the
/// run was perturbed outside the theorems' model (mid-run kills, an
/// exhausted event budget) — then a missing delivery is excused but a
/// *wrong* delivery still fails.
pub fn check_unicast_optimality(
    cfg: &FaultConfig,
    s: NodeId,
    d: NodeId,
    decision: Decision,
    trail: Option<&[NodeId]>,
    delivery_guaranteed: bool,
) -> Result<(), Violation> {
    let h = s.distance(d) as usize;
    let expect_hops = |trail: Option<&[NodeId]>, hops: usize| -> Result<(), Violation> {
        match trail {
            None if !delivery_guaranteed => Ok(()),
            None => Err(Violation {
                claim: "theorem2-optimal-delivery",
                witness: vec![s, d],
                detail: format!("{decision:?} accepted but nothing was delivered"),
            }),
            Some(t) => {
                check_trail(cfg, s, d, t)?;
                if t.len() != hops + 1 {
                    return Err(Violation {
                        claim: "theorem2-optimal-delivery",
                        witness: t.to_vec(),
                        detail: format!(
                            "{decision:?} promised {hops} hops, trail has {}",
                            t.len() - 1
                        ),
                    });
                }
                Ok(())
            }
        }
    };
    match decision {
        Decision::AlreadyThere => Ok(()),
        Decision::Optimal { .. } => expect_hops(trail, h),
        Decision::Suboptimal { .. } => expect_hops(trail, h + 2),
        Decision::Failure => match trail {
            None => Ok(()),
            Some(t) => Err(Violation {
                claim: "theorem4-failure-is-final",
                witness: t.to_vec(),
                detail: "source aborted yet something was delivered".into(),
            }),
        },
    }
}

/// **Theorem 4 soundness.** The infeasibility verdict, checked against
/// the BFS connectivity oracle:
///
/// * a disconnected healthy pair **must** be refused (an accept would
///   promise a delivery that cannot happen — Theorems 2/3 make accepts
///   unconditional guarantees);
/// * a `Failure` verdict is only legitimate when the pair is truly
///   disconnected **or** the fault count reaches `n` (below that,
///   Theorem 3 guarantees feasibility, so refusing a connected pair
///   would be a false negative).
pub fn check_theorem4_soundness(
    cfg: &FaultConfig,
    s: NodeId,
    d: NodeId,
    decision: Decision,
) -> Result<(), Violation> {
    let n = cfg.cube().dim() as usize;
    let reachable = connectivity::connected(cfg, s, d);
    let faults = cfg.node_faults().len() + cfg.link_faults().len();
    match decision {
        Decision::Failure => {
            if reachable && faults < n {
                return Err(Violation {
                    claim: "theorem4-soundness",
                    witness: vec![s, d],
                    detail: format!(
                        "refused a connected pair with only {faults} fault(s) < n = {n}"
                    ),
                });
            }
        }
        Decision::AlreadyThere => {}
        _ => {
            if !reachable {
                return Err(Violation {
                    claim: "theorem4-soundness",
                    witness: vec![s, d],
                    detail: "accepted a pair the BFS oracle says is disconnected".into(),
                });
            }
        }
    }
    Ok(())
}

/// **ARQ exactly-once, end of run.** No duplicate ever surfaced, and a
/// clean run (no kills, accept verdict, quiescent) must have delivered.
pub fn check_lossy_outcome(
    cfg: &FaultConfig,
    s: NodeId,
    d: NodeId,
    run: &LossyRun,
    kills: u64,
) -> Result<(), Violation> {
    if run.duplicate_deliveries > 0 {
        return Err(Violation {
            claim: "arq-exactly-once",
            witness: vec![d],
            detail: format!("{} duplicate deliveries surfaced", run.duplicate_deliveries),
        });
    }
    let delivery_guaranteed = kills == 0 && !matches!(run.outcome, LossyOutcome::TimedOut);
    check_unicast_optimality(
        cfg,
        s,
        d,
        run.decision,
        run.trail.as_deref(),
        delivery_guaranteed,
    )?;
    check_theorem4_soundness(cfg, s, d, run.decision)
}

// ---------------------------------------------------------------------
// Generalized-hypercube coverage (§4.2): the same two guarantee layers
// restated for GH topologies.
// ---------------------------------------------------------------------

/// BFS connectivity over the healthy part of a generalized hypercube —
/// the GH analogue of [`hypersafe_topology::connectivity::connected`].
fn gh_connected(gh: &GeneralizedHypercube, faults: &FaultSet, s: GhNode, d: GhNode) -> bool {
    if faults.contains(NodeId::new(s.raw())) || faults.contains(NodeId::new(d.raw())) {
        return false;
    }
    if s == d {
        return true;
    }
    let mut seen = vec![false; gh.num_nodes() as usize];
    seen[s.raw() as usize] = true;
    let mut stack = vec![s];
    while let Some(a) = stack.pop() {
        for b in gh.neighbors(a) {
            if seen[b.raw() as usize] || faults.contains(NodeId::new(b.raw())) {
                continue;
            }
            if b == d {
                return true;
            }
            seen[b.raw() as usize] = true;
            stack.push(b);
        }
    }
    false
}

/// Checked runner for the distributed GH `GLOBAL_STATUS`: steps the
/// lock-step engine round by round and verifies, after every round,
/// that no node's level ever rises (monotone descent from the all-`n`
/// start) or undershoots the centralized Definition 4 fixed point, that
/// the round count stays within the paper's `n − 1` bound (`+1` for
/// the final no-change confirmation round), and that the quiescent
/// levels equal [`GhSafetyMap::compute`] exactly.
pub fn run_gh_gs_checked(
    gh: &GeneralizedHypercube,
    faults: &FaultSet,
) -> Result<GhSafetyMap, Violation> {
    let n = gh.dim();
    let central = GhSafetyMap::compute(gh, faults);
    let net = GhNet::new(gh, faults);
    let mut eng = gh_gs_engine(&net);
    let level_at = |eng: &SyncEngine<'_, GhNet<'_>, GhGsNode>, a: u64| {
        eng.node(NodeId::new(a)).map_or(0, GhGsNode::level)
    };
    let mut prev: Vec<Level> = (0..gh.num_nodes()).map(|a| level_at(&eng, a)).collect();
    let mut rounds = 0u32;
    while eng.run_round() != 0 {
        rounds += 1;
        if rounds > n as u32 {
            return Err(Violation {
                claim: "gh-gs-round-bound",
                witness: Vec::new(),
                detail: format!("still active after {rounds} rounds on an n = {n} GH"),
            });
        }
        for a in 0..gh.num_nodes() {
            let lv = level_at(&eng, a);
            if lv > prev[a as usize] {
                return Err(Violation {
                    claim: "gh-gs-monotone-descent",
                    witness: vec![NodeId::new(a)],
                    detail: format!("rose from {} to {lv} in round {rounds}", prev[a as usize]),
                });
            }
            if lv < central.level(GhNode(a)) {
                return Err(Violation {
                    claim: "gh-gs-monotone-descent",
                    witness: vec![NodeId::new(a)],
                    detail: format!(
                        "undershot the fixed point: {lv} < {}",
                        central.level(GhNode(a))
                    ),
                });
            }
            prev[a as usize] = lv;
        }
    }
    for a in 0..gh.num_nodes() {
        let lv = level_at(&eng, a);
        if lv != central.level(GhNode(a)) {
            return Err(Violation {
                claim: "gh-gs-convergence",
                witness: vec![NodeId::new(a)],
                detail: format!(
                    "quiescent at {lv}, centralized says {}",
                    central.level(GhNode(a))
                ),
            });
        }
    }
    Ok(central)
}

/// **Theorem 4 soundness on GH topologies.** Same contract as
/// [`check_theorem4_soundness`], against the GH BFS oracle: `Failure`
/// is only legitimate for a disconnected pair or at `n`-or-more
/// faults; any accept of a disconnected pair is unsound.
pub fn check_gh_theorem4_soundness(
    gh: &GeneralizedHypercube,
    faults: &FaultSet,
    s: GhNode,
    d: GhNode,
    decision: GhDecision,
) -> Result<(), Violation> {
    let n = gh.dim() as usize;
    let reachable = gh_connected(gh, faults, s, d);
    let nf = faults.len();
    match decision {
        GhDecision::Failure => {
            if reachable && nf < n {
                return Err(Violation {
                    claim: "gh-theorem4-soundness",
                    witness: vec![NodeId::new(s.raw()), NodeId::new(d.raw())],
                    detail: format!("refused a connected pair with only {nf} fault(s) < n = {n}"),
                });
            }
        }
        GhDecision::AlreadyThere => {}
        GhDecision::Optimal | GhDecision::Suboptimal => {
            if !reachable {
                return Err(Violation {
                    claim: "gh-theorem4-soundness",
                    witness: vec![NodeId::new(s.raw()), NodeId::new(d.raw())],
                    detail: "accepted a pair the BFS oracle says is disconnected".into(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unicast::route;
    use crate::{run_delta_gs, run_gs_async, run_gs_reliable, run_unicast_lossy};
    use hypersafe_simkit::{
        AdversarialScheduler, ChannelModel, FifoScheduler, InvariantViolation, ReliableConfig,
        RunOptions, RunReport, Scheduler,
    };
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

    /// Options for a checked run under `sched`.
    fn checked(sched: Box<dyn Scheduler>) -> RunOptions {
        RunOptions {
            sched,
            check: true,
            ..RunOptions::default()
        }
    }

    fn ok<R>((run, report): (R, RunReport)) -> Result<R, InvariantViolation> {
        report.violation.map_or(Ok(run), Err)
    }

    #[test]
    fn checked_gs_passes_under_fifo_and_adversary() {
        let (cfg, _) = fig1();
        for sched in [
            Box::new(FifoScheduler) as Box<dyn Scheduler>,
            Box::new(AdversarialScheduler::permute(3)),
            Box::new(AdversarialScheduler::permute(0xBEEF)),
        ] {
            let run = ok(run_gs_async(&cfg, 2, checked(sched))).expect("no violation");
            check_gs_convergence(&cfg, &run).expect("fixed point reached");
        }
    }

    #[test]
    fn reordering_adversary_preserves_descent_and_convergence() {
        // Exercises the monotone-merge guard: a latency-stretching
        // adversary reorders announcements on these seeds, and descent
        // plus fixed-point convergence must survive every schedule.
        let (cfg, _) = fig1();
        for seed in 0..32 {
            let sched = AdversarialScheduler::permute(seed).with_stretch(5);
            let run = ok(run_gs_async(&cfg, 1, checked(Box::new(sched))))
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            check_gs_convergence(&cfg, &run).unwrap();
        }
    }

    #[test]
    fn checked_reliable_gs_descends_under_loss() {
        let (cfg, _) = fig1();
        for seed in 0..8 {
            let opts = RunOptions {
                channel: Some(ChannelModel::lossy(seed, 0.2)),
                ..checked(Box::new(AdversarialScheduler::permute(seed)))
            };
            let run = ok(run_gs_reliable(&cfg, ReliableConfig::default(), 1, opts))
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert!(run.quiescent, "seed {seed}");
            assert_eq!(run.map.store(), SafetyMap::compute(&cfg).store());
        }
    }

    #[test]
    fn checked_delta_gs_passes_under_fifo_and_adversary() {
        let (cfg0, _) = fig1();
        let prev = SafetyMap::compute(&cfg0);
        let a = n("0101");
        let mut cfg = cfg0.clone();
        cfg.node_faults_mut().insert(a);
        for seed in 0..16 {
            let sched = AdversarialScheduler::permute(seed).with_stretch(5);
            let run = ok(run_delta_gs(
                &cfg,
                &prev,
                ChurnEvent::Fault(a),
                1,
                checked(Box::new(sched)),
            ))
            .unwrap_or_else(|v| panic!("fault seed {seed}: {v}"));
            assert_eq!(run.map.store(), SafetyMap::compute(&cfg).store());

            // And the reverse event, from the post-fault fixed point.
            let mut back = cfg.clone();
            back.node_faults_mut().remove(a);
            let sched = AdversarialScheduler::permute(seed ^ 0xA5).with_stretch(5);
            let run2 = ok(run_delta_gs(
                &back,
                &run.map,
                ChurnEvent::Recover(a),
                1,
                checked(Box::new(sched)),
            ))
            .unwrap_or_else(|v| panic!("recover seed {seed}: {v}"));
            assert_eq!(run2.map.store(), prev.store());
        }
    }

    #[test]
    fn delta_invariant_flags_a_corrupted_start() {
        // Feed the checker a *wrong* pre-event map: the run quiesces
        // off the fixed point and must be reported, not absorbed.
        let (cfg0, _) = fig1();
        let mut wrong = SafetyMap::compute(&cfg0).store().to_vec();
        let victim = n("1000");
        wrong[victim.raw() as usize] = 1; // truly 4-safe in fig. 1
        let wrong_map = SafetyMap::from_levels(cfg0.cube(), wrong);
        let a = n("0101");
        let mut cfg = cfg0.clone();
        cfg.node_faults_mut().insert(a);
        let opts = checked(Box::new(FifoScheduler));
        let res = ok(run_delta_gs(
            &cfg,
            &wrong_map,
            ChurnEvent::Fault(a),
            1,
            opts,
        ));
        assert!(res.is_err(), "corrupted prior must be detected");
    }

    #[test]
    fn checked_unicast_delivers_under_full_adversary() {
        let (cfg, map) = fig1();
        for seed in 0..16 {
            let opts = RunOptions {
                max_events: 5_000_000,
                ..checked(Box::new(AdversarialScheduler::from_seed(seed)))
            };
            let rcfg = ReliableConfig::default();
            let run = ok(run_unicast_lossy(
                &cfg,
                &map,
                n("1110"),
                n("0001"),
                1,
                rcfg,
                opts,
            ))
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            check_lossy_outcome(&cfg, n("1110"), n("0001"), &run, 0)
                .unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
            assert!(
                matches!(run.outcome, LossyOutcome::Delivered { .. }),
                "seed {seed}: {:?}",
                run.outcome
            );
        }
    }

    #[test]
    fn kill_on_path_is_excused_but_checked() {
        let (cfg, map) = fig1();
        // Kill the first-hop holder the moment the run starts.
        let victim = n("1111");
        let opts = RunOptions {
            max_events: 5_000_000,
            kills: vec![(victim, 0)],
            ..checked(Box::new(FifoScheduler))
        };
        let rcfg = ReliableConfig::default();
        let run = ok(run_unicast_lossy(
            &cfg,
            &map,
            n("1110"),
            n("0001"),
            1,
            rcfg,
            opts,
        ))
        .expect("exactly-once still holds");
        check_lossy_outcome(&cfg, n("1110"), n("0001"), &run, 1).expect("kill excuses delivery");
    }

    #[test]
    fn theorem4_rejects_accepting_disconnected_pairs() {
        // Isolate 0001 in a 3-cube: its three neighbors are faulty.
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["000", "011", "101"]),
        );
        let map = SafetyMap::compute(&cfg);
        let s = n("111");
        let d = n("001");
        assert!(!connectivity::connected(&cfg, s, d));
        let res = route(&cfg, &map, s, d);
        // The real algorithm refuses; soundness accepts the refusal.
        check_theorem4_soundness(&cfg, s, d, res.decision).unwrap();
        // A hypothetical accept on the same pair must be flagged.
        let bogus = Decision::Optimal {
            condition: crate::unicast::Condition::C1,
            first_dim: 0,
        };
        assert!(check_theorem4_soundness(&cfg, s, d, bogus).is_err());
    }

    #[test]
    fn theorem4_rejects_refusing_easy_pairs() {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, &["0011"]));
        let err = check_theorem4_soundness(&cfg, n("0000"), n("1111"), Decision::Failure)
            .expect_err("one fault cannot justify a refusal");
        assert_eq!(err.claim, "theorem4-soundness");
    }

    #[test]
    fn optimality_checker_flags_wrong_lengths() {
        let (cfg, map) = fig1();
        let s = n("1110");
        let d = n("0001");
        let res = route(&cfg, &map, s, d);
        let path: Vec<NodeId> = res.path.unwrap().nodes().to_vec();
        check_unicast_optimality(&cfg, s, d, res.decision, Some(&path), true).unwrap();
        // Truncating the trail must be caught.
        assert!(check_unicast_optimality(
            &cfg,
            s,
            d,
            res.decision,
            Some(&path[..path.len() - 1]),
            true
        )
        .is_err());
        // Dropping the delivery entirely must be caught when guaranteed.
        assert!(check_unicast_optimality(&cfg, s, d, res.decision, None, true).is_err());
        assert!(check_unicast_optimality(&cfg, s, d, res.decision, None, false).is_ok());
    }

    #[test]
    fn trail_through_faulty_node_is_invalid() {
        let (cfg, _) = fig1();
        // 1110 → 0110 → 0100: both intermediates faulty in fig. 1.
        let trail = [n("1110"), n("0110"), n("0100")];
        let err = check_trail(&cfg, n("1110"), n("0100"), &trail).unwrap_err();
        assert_eq!(err.claim, "unicast-trail-valid");
    }
}
