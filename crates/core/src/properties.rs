//! The spec: each of the paper's guarantees written once as a
//! predicate that returns `Ok(())` or a [`Violation`].
//!
//! * Centralized: [`check_theorem2`], [`check_property1`],
//!   [`check_property2`], [`check_theorem3`],
//!   [`check_never_fails_under_n_faults`].
//! * One cut of a distributed run: [`check_level_corridor`],
//!   [`check_levels_converged`], [`check_exactly_once`].
//! * Outcomes: [`check_unicast_optimality`] (the decision implies the
//!   delivered trail) and Theorem 4 soundness, one rule over two
//!   reachability oracles ([`check_theorem4_soundness`],
//!   [`check_gh_theorem4_soundness`]).
//!
//! Everything else that checks these claims is a thin adapter that
//! loops over actors, rounds or runs and calls a predicate here under
//! its one name: the engine invariants ([`crate::GsLevelsDescend`],
//! [`crate::DeltaGsDirected`], [`crate::ArqSingleDelivery`]), the model
//! checker ([`crate::mc`]), the DST post-run checks
//! ([`check_gs_convergence`], [`check_lossy_outcome`]) and
//! [`crate::run_gh_gs_checked`]. Bad input — a node outside the cube, a
//! trail that leaves it — is reported as a [`Violation`], not a panic.

use crate::gh_unicast::GhDecision;
use crate::gs::GsAsyncRun;
use crate::navigation::NavVector;
use crate::safety::{Level, SafetyMap};
use crate::unicast::{intermediate_dim, route, Decision};
use crate::unicast_distributed::{LossyOutcome, LossyRun};
use hypersafe_topology::{
    connectivity, FaultConfig, FaultSet, GeneralizedHypercube, GhNode, Hypercube, NodeId, Path,
};

/// A counterexample to one of the paper's claims.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which claim failed.
    pub claim: &'static str,
    /// Offending node(s).
    pub witness: Vec<NodeId>,
    /// Human-readable detail.
    pub detail: String,
}

impl Violation {
    fn new(claim: &'static str, witness: Vec<NodeId>, detail: String) -> Self {
        Violation {
            claim,
            witness,
            detail,
        }
    }
}

/// Name of [`check_level_corridor`] in every checker.
pub const GS_CORRIDOR: &str = "gs-corridor";
/// Name of [`check_levels_converged`] in every checker.
pub const GS_CONVERGENCE: &str = "gs-convergence";
/// Name of [`check_exactly_once`] in every checker.
pub const ARQ_EXACTLY_ONCE: &str = "arq-exactly-once";
/// Name of [`check_unicast_optimality`] in every checker.
pub const UNICAST_OUTCOME: &str = "unicast-outcome";
/// Name of [`check_theorem4_soundness`] and
/// [`check_gh_theorem4_soundness`] in every checker.
pub const THEOREM4_SOUNDNESS: &str = "theorem4-soundness";

/// `Err` under `claim` for the first of `nodes` outside `cube`.
fn in_cube(claim: &'static str, cube: Hypercube, nodes: &[NodeId]) -> Result<(), Violation> {
    match nodes.iter().find(|a| a.raw() >= cube.num_nodes()) {
        Some(&a) => Err(Violation::new(
            claim,
            vec![a],
            format!("{a} is not a node of Q{}", cube.dim()),
        )),
        None => Ok(()),
    }
}

/// **Theorem 2.** If `S(a) = k > 0`, greedy max-safety preferred-
/// neighbor forwarding reaches every node within Hamming distance `k`
/// of `a` along an optimal path whose intermediate nodes are nonfaulty.
///
/// Checks all destinations within distance `k` of `a`.
pub fn check_theorem2_at(cfg: &FaultConfig, map: &SafetyMap, a: NodeId) -> Result<(), Violation> {
    let cube = cfg.cube();
    in_cube("Theorem 2", cube, &[a])?;
    let k = map.level(a);
    if k == 0 {
        return Ok(());
    }
    for d in cube.nodes() {
        let h = a.distance(d);
        if h == 0 || h > k as u32 {
            continue;
        }
        // Greedy walk driven purely by safety levels.
        let mut nv = NavVector::new(a, d);
        let mut at = a;
        let mut path = Path::starting_at(a);
        while !nv.is_done() {
            let dim = intermediate_dim(map, at, nv).expect("nv non-zero has preferred dims");
            nv = nv.after_hop(dim);
            at = at.neighbor(dim);
            path.push(at);
            if cfg.node_faulty(at) && !nv.is_done() {
                return Err(Violation::new(
                    "Theorem 2",
                    vec![a, d, at],
                    format!(
                        "greedy walk from {a} (level {k}) to {d} (H = {h}) entered faulty {at}"
                    ),
                ));
            }
        }
        debug_assert_eq!(at, d);
        if !path.is_optimal() {
            return Err(Violation::new(
                "Theorem 2",
                vec![a, d],
                format!("walk length {} ≠ H = {h}", path.len()),
            ));
        }
    }
    Ok(())
}

/// **Theorem 2** over every nonfaulty node of the instance.
pub fn check_theorem2(cfg: &FaultConfig, map: &SafetyMap) -> Result<(), Violation> {
    for a in cfg.healthy_nodes() {
        check_theorem2_at(cfg, map, a)?;
    }
    Ok(())
}

/// **Property 1.** The GS algorithm identifies a `k`-safe (`k ≠ n`)
/// node in `k` rounds: replaying the synchronous iteration, every node
/// with final level `k < n` holds that level from round `k` onward,
/// and the whole map is stable after `n − 1` rounds (the Corollary).
pub fn check_property1(cfg: &FaultConfig) -> Result<(), Violation> {
    let cube = cfg.cube();
    let n = cube.dim();
    // Replay Jacobi iteration, recording each round's snapshot.
    let mut snapshots: Vec<Vec<Level>> = Vec::new();
    let mut levels: Vec<Level> = cube
        .nodes()
        .map(|a| if cfg.node_faulty(a) { 0 } else { n })
        .collect();
    snapshots.push(levels.clone());
    let mut scratch = vec![0 as Level; n as usize];
    loop {
        let mut next = levels.clone();
        let mut changed = false;
        for a in cube.nodes() {
            if cfg.node_faulty(a) {
                continue;
            }
            for (i, b) in cube.neighbors(a).enumerate() {
                scratch[i] = levels[b.raw() as usize];
            }
            let lv = crate::safety::level_from_neighbors(n, &mut scratch);
            changed |= lv != levels[a.raw() as usize];
            next[a.raw() as usize] = lv;
        }
        if !changed {
            break;
        }
        levels = next;
        snapshots.push(levels.clone());
    }
    let active_rounds = snapshots.len() as u32 - 1;
    if active_rounds > (n - 1) as u32 {
        return Err(Violation::new(
            "Property 1 Corollary",
            vec![],
            format!("GS needed {active_rounds} rounds > n − 1 = {}", n - 1),
        ));
    }
    let final_levels = snapshots.last().expect("≥ 1 snapshot");
    for a in cube.nodes() {
        let idx = a.raw() as usize;
        let k = final_levels[idx];
        if k == n || cfg.node_faulty(a) {
            continue;
        }
        // From round k (snapshot index min(k, last)) onward the value
        // must equal the final one.
        for (r, snap) in snapshots.iter().enumerate().skip(k as usize) {
            if snap[idx] != k {
                return Err(Violation::new(
                    "Property 1",
                    vec![a],
                    format!(
                        "node {a} final level {k} but level {} at round {r}",
                        snap[idx]
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// **Property 2.** In a faulty `n`-cube with fewer than `n` faulty
/// nodes, every nonfaulty but unsafe node has a safe neighbor.
///
/// Returns `Ok` vacuously when the instance has `≥ n` faults.
pub fn check_property2(cfg: &FaultConfig, map: &SafetyMap) -> Result<(), Violation> {
    let cube = cfg.cube();
    let n = cube.dim();
    if cfg.node_faults().len() >= n as usize {
        return Ok(());
    }
    for a in cfg.healthy_nodes() {
        if map.is_safe(a) {
            continue;
        }
        if !cube.neighbors(a).any(|b| map.is_safe(b)) {
            return Err(Violation::new(
                "Property 2",
                vec![a],
                format!(
                    "unsafe node {a} (level {}) has no safe neighbor with {} < n faults",
                    map.level(a),
                    cfg.node_faults().len()
                ),
            ));
        }
    }
    Ok(())
}

/// **Theorem 3.** For every healthy source/destination pair, the
/// centralized router's decision implies its path: exactly `H` hops
/// under `C1`/`C2`, exactly `H + 2` under `C3`, avoiding faulty nodes
/// and links ([`check_unicast_optimality`] with delivery guaranteed).
pub fn check_theorem3(cfg: &FaultConfig, map: &SafetyMap) -> Result<(), Violation> {
    for s in cfg.healthy_nodes() {
        for d in cfg.healthy_nodes() {
            if s == d {
                continue;
            }
            let res = route(cfg, map, s, d);
            let trail = res.path.as_ref().filter(|_| res.delivered);
            check_unicast_optimality(cfg, s, d, res.decision, trail.map(Path::nodes), true)?;
        }
    }
    Ok(())
}

/// Combination of **Property 2** and **Theorem 3**: with fewer than `n`
/// faults the unicast algorithm *never fails* — every healthy
/// source/destination pair gets at least a suboptimal route (§3.1).
pub fn check_never_fails_under_n_faults(
    cfg: &FaultConfig,
    map: &SafetyMap,
) -> Result<(), Violation> {
    let n = cfg.cube().dim();
    if cfg.node_faults().len() >= n as usize {
        return Ok(());
    }
    for s in cfg.healthy_nodes() {
        for d in cfg.healthy_nodes() {
            if s == d {
                continue;
            }
            let res = route(cfg, map, s, d);
            if matches!(res.decision, Decision::Failure) || !res.delivered {
                return Err(Violation::new(
                    "no-failure under n−1 faults",
                    vec![s, d],
                    format!("decision {:?}, delivered {}", res.decision, res.delivered),
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Run-state predicates: one cut of a distributed safety-level run.
// ---------------------------------------------------------------------

/// **Level corridor.** Every node's level has moved only in its run's
/// direction and sits between the node's start level and the fixed
/// point the run converges to: `[goal, start]` when `descending` (GS
/// from the all-`n` start, delta-GS after a fault), `[start, goal]`
/// otherwise (delta-GS after a recovery).
///
/// Each item is `(node, level, directed)`, where `directed` says every
/// change so far moved in the run's direction (an actor's `monotone`
/// flag, or `level ≤ previous round` for a lock-step run). A directed
/// node inside the corridor at every cut never moved backwards between
/// cuts either, so this one path-free form serves the engine's
/// per-checkpoint test and the model checker's per-state test alike.
pub fn check_level_corridor(
    levels: impl IntoIterator<Item = (NodeId, Level, bool)>,
    start: impl Fn(NodeId) -> Level,
    goal: impl Fn(NodeId) -> Level,
    descending: bool,
) -> Result<(), Violation> {
    for (a, lv, directed) in levels {
        let (lo, hi) = if descending {
            (goal(a), start(a))
        } else {
            (start(a), goal(a))
        };
        if !directed {
            let way = if descending { "rose" } else { "fell" };
            return Err(Violation::new(
                GS_CORRIDOR,
                vec![a],
                format!("{a} {way} against the run's direction (now at level {lv})"),
            ));
        }
        if lv < lo || lv > hi {
            return Err(Violation::new(
                GS_CORRIDOR,
                vec![a],
                format!("{a} at level {lv}, outside its corridor [{lo}, {hi}]"),
            ));
        }
    }
    Ok(())
}

/// **Convergence (Theorem 1).** Quiescent levels equal the unique fixed
/// point: each `(node, level)` item must equal `fixed(node)`.
pub fn check_levels_converged(
    levels: impl IntoIterator<Item = (NodeId, Level)>,
    fixed: impl Fn(NodeId) -> Level,
) -> Result<(), Violation> {
    for (a, lv) in levels {
        let want = fixed(a);
        if lv != want {
            return Err(Violation::new(
                GS_CONVERGENCE,
                vec![a],
                format!("{a} quiescent at level {lv}, the fixed point is {want}"),
            ));
        }
    }
    Ok(())
}

/// **ARQ exactly-once.** The reliable layer never surfaces a payload
/// twice: each `(node, duplicates)` item counts the copies beyond the
/// first that reached the node's protocol actor, and must be 0.
pub fn check_exactly_once(
    duplicates: impl IntoIterator<Item = (NodeId, u64)>,
) -> Result<(), Violation> {
    for (a, dups) in duplicates {
        if dups > 0 {
            return Err(Violation::new(
                ARQ_EXACTLY_ONCE,
                vec![a],
                format!("{a}: {dups} duplicate payload deliveries surfaced"),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Outcome predicates: what a source decision promises.
// ---------------------------------------------------------------------

/// Structural validity of a delivered trail: runs `s → d` inside the
/// cube over nonfaulty nodes, and every hop is a cube edge over a
/// nonfaulty link. The destination must be nonfaulty too: a run
/// records a trail only at a live actor.
fn check_trail(cfg: &FaultConfig, s: NodeId, d: NodeId, trail: &[NodeId]) -> Result<(), Violation> {
    let bad = |detail: String| Err(Violation::new(UNICAST_OUTCOME, trail.to_vec(), detail));
    if let Err(v) = in_cube(UNICAST_OUTCOME, cfg.cube(), trail) {
        return bad(v.detail);
    }
    if trail.first() != Some(&s) || trail.last() != Some(&d) {
        return bad(format!("trail does not run {s} → {d}"));
    }
    for w in trail.windows(2) {
        if w[0].distance(w[1]) != 1 {
            return bad(format!("{} → {} is not a cube edge", w[0], w[1]));
        }
        if cfg.link_faults().contains(w[0], w[1]) {
            return bad(format!("{} → {} crosses a faulty link", w[0], w[1]));
        }
    }
    match trail.iter().find(|&&v| cfg.node_faulty(v)) {
        Some(v) => bad(format!("{v} is faulty")),
        None => Ok(()),
    }
}

/// **Theorems 2 and 3: the decision implies the delivered trail.**
/// Given the source's decision and the trail the destination recorded
/// (if any): `Optimal` must realize exactly `H` hops, `Suboptimal`
/// exactly `H + 2`, `AlreadyThere` exactly 0, `Failure` must deliver
/// nothing, and every delivered trail must be structurally valid.
/// `delivery_guaranteed` is false when the run was perturbed outside
/// the theorems' model (mid-run kills, an exhausted event budget or
/// retry budget) — then a missing delivery is excused but a *wrong*
/// delivery still fails.
pub fn check_unicast_optimality(
    cfg: &FaultConfig,
    s: NodeId,
    d: NodeId,
    decision: Decision,
    trail: Option<&[NodeId]>,
    delivery_guaranteed: bool,
) -> Result<(), Violation> {
    let bad = |witness: Vec<NodeId>, detail: String| {
        Err(Violation::new(UNICAST_OUTCOME, witness, detail))
    };
    let hops = match decision {
        Decision::AlreadyThere => 0,
        Decision::Optimal { .. } => s.distance(d) as usize,
        Decision::Suboptimal { .. } => s.distance(d) as usize + 2,
        Decision::Failure => {
            return match trail {
                None => Ok(()),
                Some(t) => bad(
                    t.to_vec(),
                    "source aborted yet something was delivered".into(),
                ),
            }
        }
    };
    match trail {
        None if !delivery_guaranteed => Ok(()),
        None => bad(
            vec![s, d],
            format!("{decision:?} accepted but nothing was delivered"),
        ),
        Some(t) => {
            check_trail(cfg, s, d, t)?;
            if t.len() != hops + 1 {
                return bad(
                    t.to_vec(),
                    format!(
                        "{decision:?} promised {hops} hops, trail has {}",
                        t.len() - 1
                    ),
                );
            }
            Ok(())
        }
    }
}

/// The one Theorem 4 rule, over either topology's reachability oracle.
/// `refused` is `None` for `AlreadyThere`, which promises nothing.
fn theorem4_rule(
    pair: [NodeId; 2],
    refused: Option<bool>,
    reachable: bool,
    faults: usize,
    n: usize,
) -> Result<(), Violation> {
    let detail = match refused {
        Some(true) if reachable && faults < n => {
            format!("refused a connected pair with only {faults} fault(s) < n = {n}")
        }
        Some(false) if !reachable => "accepted a pair the BFS oracle says is disconnected".into(),
        _ => return Ok(()),
    };
    Err(Violation::new(THEOREM4_SOUNDNESS, pair.to_vec(), detail))
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
    let cube = cfg.cube();
    in_cube(THEOREM4_SOUNDNESS, cube, &[s, d])?;
    let refused = match decision {
        Decision::AlreadyThere => None,
        Decision::Failure => Some(true),
        Decision::Optimal { .. } | Decision::Suboptimal { .. } => Some(false),
    };
    theorem4_rule(
        [s, d],
        refused,
        connectivity::connected(cfg, s, d),
        cfg.node_faults().len() + cfg.link_faults().len(),
        cube.dim() as usize,
    )
}

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

/// **Theorem 4 soundness on GH topologies.** The rule of
/// [`check_theorem4_soundness`], against the GH BFS oracle.
pub fn check_gh_theorem4_soundness(
    gh: &GeneralizedHypercube,
    faults: &FaultSet,
    s: GhNode,
    d: GhNode,
    decision: GhDecision,
) -> Result<(), Violation> {
    let pair = [NodeId::new(s.raw()), NodeId::new(d.raw())];
    if let Some(a) = [s, d].into_iter().find(|&a| !gh.contains(a)) {
        return Err(Violation::new(
            THEOREM4_SOUNDNESS,
            pair.to_vec(),
            format!(
                "{} is not a node of the {}-node GH",
                a.raw(),
                gh.num_nodes()
            ),
        ));
    }
    let refused = match decision {
        GhDecision::AlreadyThere => None,
        GhDecision::Failure => Some(true),
        GhDecision::Optimal | GhDecision::Suboptimal => Some(false),
    };
    theorem4_rule(
        pair,
        refused,
        gh_connected(gh, faults, s, d),
        faults.len(),
        gh.dim() as usize,
    )
}

// ---------------------------------------------------------------------
// Post-run adapters for the DST sweep.
// ---------------------------------------------------------------------

/// **GS convergence, end of run.** A quiescent asynchronous GS run
/// stayed in its corridor (the run-wide `monotone` flag is every
/// node's direction bit) and sits exactly on Theorem 1's fixed point,
/// which is defined for node faults only.
pub fn check_gs_convergence(cfg: &FaultConfig, run: &GsAsyncRun) -> Result<(), Violation> {
    if !cfg.link_faults().is_empty() || run.map.dim() != cfg.cube().dim() {
        return Err(Violation::new(
            GS_CONVERGENCE,
            vec![],
            "Theorem 1's fixed point needs a node-fault-only cube of the run's size".into(),
        ));
    }
    let fixed = SafetyMap::compute(cfg);
    let n = cfg.cube().dim();
    let levels = || cfg.cube().nodes().map(|a| (a, run.map.level(a)));
    check_level_corridor(
        levels().map(|(a, lv)| (a, lv, run.monotone)),
        |_| n,
        |a| fixed.level(a),
        true,
    )?;
    check_levels_converged(levels(), |a| fixed.level(a))
}

/// **ARQ exactly-once and the unicast outcome, end of run.** No
/// duplicate ever surfaced, the decision's promise holds (a clean run —
/// no kills, not timed out — must have delivered), and the verdict is
/// sound.
pub fn check_lossy_outcome(
    cfg: &FaultConfig,
    s: NodeId,
    d: NodeId,
    run: &LossyRun,
    kills: u64,
) -> Result<(), Violation> {
    check_exactly_once([(d, run.duplicate_deliveries)])?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety_delta::ChurnEvent;
    use crate::unicast::Condition;
    use crate::{mc_delta_gs, run_delta_gs, run_gs_async, run_gs_reliable, run_unicast_lossy};
    use hypersafe_simkit::{
        AdversarialScheduler, ChannelModel, FifoScheduler, InvariantViolation, McConfig,
        ReliableConfig, RunOptions, RunReport, Scheduler,
    };

    fn cfg_n(n: u8, faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(n);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn all_claims_hold_on_fig1() {
        let cfg = cfg_n(4, &["0011", "0100", "0110", "1001"]);
        let map = SafetyMap::compute(&cfg);
        assert_eq!(check_theorem2(&cfg, &map), Ok(()));
        assert_eq!(check_property1(&cfg), Ok(()));
        assert_eq!(check_property2(&cfg, &map), Ok(()));
        assert_eq!(check_theorem3(&cfg, &map), Ok(()));
    }

    #[test]
    fn all_claims_hold_on_fig3_disconnected() {
        let cfg = cfg_n(4, &["0110", "1010", "1100", "1111"]);
        let map = SafetyMap::compute(&cfg);
        assert_eq!(check_theorem2(&cfg, &map), Ok(()));
        assert_eq!(check_property1(&cfg), Ok(()));
        assert_eq!(check_theorem3(&cfg, &map), Ok(()));
    }

    #[test]
    fn exhaustive_q3_all_fault_patterns() {
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
            assert_eq!(check_theorem2(&cfg, &map), Ok(()), "mask {mask:#b}");
            assert_eq!(check_property1(&cfg), Ok(()), "mask {mask:#b}");
            assert_eq!(check_property2(&cfg, &map), Ok(()), "mask {mask:#b}");
            assert_eq!(check_theorem3(&cfg, &map), Ok(()), "mask {mask:#b}");
            assert_eq!(
                check_never_fails_under_n_faults(&cfg, &map),
                Ok(()),
                "mask {mask:#b}"
            );
        }
    }

    #[test]
    fn property2_example_from_section23() {
        // §2.3: faults {0000, 0110, 1101} — "all nonfaulty but unsafe
        // nodes have at least one safe neighbor".
        let cfg = cfg_n(4, &["0000", "0110", "1101"]);
        let map = SafetyMap::compute(&cfg);
        assert_eq!(check_property2(&cfg, &map), Ok(()));
    }

    #[test]
    fn violation_renders_detail() {
        let v = Violation::new("X", vec![NodeId::new(3)], "boom".into());
        assert_eq!(v.claim, "X");
        assert_eq!(v.witness, vec![NodeId::new(3)]);
        assert!(v.detail.contains("boom"));
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
        assert_eq!(err.claim, UNICAST_OUTCOME);
    }

    /// Every case the model checker's old unicast check accepted, and
    /// the one the DST checker accepted for `AlreadyThere`: the one
    /// trail predicate rejects each under one name.
    #[test]
    fn unicast_outcome_rejects_what_the_old_checkers_accepted() {
        let (mut cfg, map) = fig1();
        cfg.link_faults_mut().insert(n("1000"), n("1010"));
        let (s, d) = (n("1110"), n("0001"));
        let opt = route(&cfg, &map, s, d).decision;
        assert!(matches!(opt, Decision::Optimal { .. }));
        let sub = Decision::Suboptimal { first_dim: 0 };
        let t = |v: &[&str]| v.iter().map(|b| n(b)).collect::<Vec<_>>();
        let cases = [
            (
                "promised 5 hops",
                n("1000"),
                n("1111"),
                sub,
                t(&["1000", "1100", "1110", "1111"]),
            ),
            (
                "110 is faulty",
                n("0111"),
                n("0000"),
                opt,
                t(&["0111", "0110", "0010", "0000"]),
            ),
            (
                "faulty link",
                n("1000"),
                n("1011"),
                opt,
                t(&["1000", "1010", "1011"]),
            ),
            (
                "not a cube edge",
                s,
                d,
                opt,
                t(&["1110", "1101", "1111", "0111", "0001"]),
            ),
            (
                "promised 0 hops",
                s,
                s,
                Decision::AlreadyThere,
                t(&["1110", "1111", "1110"]),
            ),
            ("aborted", s, d, Decision::Failure, t(&["1110", "1111"])),
        ];
        for (why, s, d, decision, trail) in cases {
            let err =
                check_unicast_optimality(&cfg, s, d, decision, Some(&trail), false).expect_err(why);
            assert_eq!(err.claim, UNICAST_OUTCOME, "{why}");
            assert!(err.detail.contains(why), "{why}: {}", err.detail);
        }
        // The same shapes done right pass: a detour of exactly H + 2
        // hops, and `AlreadyThere` delivered where it stands.
        let detour = t(&["1000", "0000", "0001", "0101", "0111", "1111"]);
        check_unicast_optimality(&cfg, n("1000"), n("1111"), sub, Some(&detour), true).unwrap();
        let here = [s];
        check_unicast_optimality(&cfg, s, s, Decision::AlreadyThere, Some(&here), true).unwrap();
    }

    /// A pre-event map that puts a node's start level on the wrong side
    /// of the post-event fixed point leaves it no corridor: the engine
    /// adapter and the model checker both reject the first cut under
    /// [`GS_CORRIDOR`].
    #[test]
    fn corrupted_start_breaks_the_corridor_in_engine_and_mc() {
        let cube = Hypercube::new(3);
        let mut wrong = vec![3; 8];
        wrong[0b010] = 2; // truly 3-safe in a fault-free Q3
        let wrong = SafetyMap::from_levels(cube, wrong);
        let a = NodeId::new(0b101);
        let mut cfg = FaultConfig::fault_free(cube);
        cfg.node_faults_mut().insert(a);
        let (_, rep) = run_delta_gs(
            &cfg,
            &wrong,
            ChurnEvent::Fault(a),
            1,
            checked(Box::new(FifoScheduler)),
        );
        assert_eq!(rep.violation.expect("engine").invariant, GS_CORRIDOR);
        let rep = mc_delta_gs(&cfg, &wrong, ChurnEvent::Fault(a), &McConfig::default());
        assert_eq!(rep.violation.expect("mc").property, GS_CORRIDOR);
    }

    /// A start level inside the corridor but off the fixed point, at a
    /// node no announcement reaches, quiesces there: both adapters
    /// reject the quiescent cut under [`GS_CONVERGENCE`].
    #[test]
    fn corrupted_start_misses_the_fixed_point_in_engine_and_mc() {
        let cube = Hypercube::new(3);
        let a = NodeId::new(0b101);
        let mut wrong = vec![3; 8];
        wrong[a.raw() as usize] = 0;
        wrong[0b010] = 2; // antipodal to `a`: the recovery wave stops short
        let wrong = SafetyMap::from_levels(cube, wrong);
        let cfg = FaultConfig::fault_free(cube);
        let (run, rep) = run_delta_gs(
            &cfg,
            &wrong,
            ChurnEvent::Recover(a),
            1,
            checked(Box::new(FifoScheduler)),
        );
        assert_eq!(run.map.level(NodeId::new(0b010)), 2);
        assert_eq!(rep.violation.expect("engine").invariant, GS_CONVERGENCE);
        let rep = mc_delta_gs(&cfg, &wrong, ChurnEvent::Recover(a), &McConfig::default());
        assert_eq!(rep.violation.expect("mc").property, GS_CONVERGENCE);
    }

    /// Inputs outside the cube are violations, not panics.
    #[test]
    fn out_of_cube_inputs_are_reported() {
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::fault_free(cube);
        let map = SafetyMap::compute(&cfg);
        let far = NodeId::new(9);
        let v = check_theorem4_soundness(&cfg, NodeId::new(0), far, Decision::Failure);
        assert_eq!(v.unwrap_err().witness, vec![far]);
        assert!(check_theorem2_at(&cfg, &map, far).is_err());
        let opt = Decision::Optimal {
            condition: Condition::C1,
            first_dim: 0,
        };
        let trail = [NodeId::new(0), NodeId::new(1), far];
        let v = check_unicast_optimality(&cfg, NodeId::new(0), far, opt, Some(&trail), true);
        assert_eq!(v.unwrap_err().claim, UNICAST_OUTCOME);
        let gh = GeneralizedHypercube::new(&[3, 3, 3]);
        let faults = gh.fault_set();
        let v =
            check_gh_theorem4_soundness(&gh, &faults, GhNode(0), GhNode(50), GhDecision::Failure);
        assert_eq!(v.unwrap_err().claim, THEOREM4_SOUNDNESS);
    }
}
