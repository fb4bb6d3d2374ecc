//! Model-checking entry points for the protocol kernel: exhaustive
//! verification of GS convergence, delta-GS exactness, and ARQ
//! exactly-once unicast on small cubes.
//!
//! Each function wires one protocol into the explicit-state checker
//! ([`hypersafe_simkit::mc`]) with the *path-free* reformulation of
//! the corresponding `core::invariants` property — a condition on a
//! single reached state, so it can be checked at every state of the
//! BFS rather than along one schedule:
//!
//! * **GS** ([`mc_gs`]): at every state every healthy node's level has
//!   only descended and sits at or above the centralized fixed point
//!   (the "corridor" the monotone Definition 1 operator guarantees);
//!   at every quiescent state it *equals* the fixed point (Theorem 1 /
//!   convergence, now proven over *all* delivery orders, not sampled
//!   ones).
//! * **Delta-GS** ([`mc_delta_gs`]): levels stay inside the directed
//!   corridor between the pre-event fixed point and the post-event
//!   one, and land exactly on the post-event map at quiescence —
//!   distributed incremental maintenance ≡ centralized recompute.
//! * **ARQ unicast** ([`mc_unicast_arq`]): no node's inner actor ever
//!   sees a payload twice (exactly-once through the reliable layer,
//!   under adversarial loss/duplication within the configured
//!   budgets), and quiescent outcomes obey Theorems 2–4: feasible
//!   decisions deliver on a path of the promised length, `Failure` is
//!   only ever declared soundly.
//!
//! The GS legs run with no-op closure enabled (their merges are
//! monotone, so a stale announcement stays a no-op forever — see
//! DESIGN.md §14); the ARQ leg runs with closure disabled (a buffered
//! out-of-order segment makes a later redelivery ack-effectful, which
//! breaks the stability requirement).

use crate::gs::AsyncGsNode;
use crate::invariants::check_theorem4_soundness;
use crate::navigation::NavVector;
use crate::safety::{Level, SafetyMap};
use crate::safety_delta::{ChurnEvent, DeltaGsNode};
use crate::unicast::{source_decision, Decision};
use crate::unicast_distributed::{LossyUnicastNode, START_TAG};
use hypersafe_simkit::{
    engine_projection, explore, EventEngine, HypercubeNet, McCheck, McConfig, McReport, McSnapshot,
    Reliable, ReliableConfig, RunOptions, Scheduler,
};
use hypersafe_topology::{FaultConfig, NodeId};

/// Runs asynchronous GS on a real [`EventEngine`] under `sched` and
/// records the actor-projection hash after the initial `on_start`
/// round and after every delivered event, through quiescence. The
/// cross-validation suite asserts every hash in this sequence is a
/// member of the checker's reachable projection set
/// ([`mc_gs`] with [`McConfig::collect_projections`]): any timed
/// engine schedule is one interleaving of the untimed model.
pub fn gs_engine_projections(cfg: &FaultConfig, sched: Box<dyn Scheduler>) -> Vec<u128> {
    let net = HypercubeNet::new(cfg);
    let opts = RunOptions {
        sched,
        ..RunOptions::default()
    };
    let mut eng = EventEngine::with_options(&net, opts, |a| AsyncGsNode::new(cfg, a, 1));
    let mut seen = vec![engine_projection(&eng)];
    while eng.step() {
        seen.push(engine_projection(&eng));
    }
    seen
}

/// Exhaustively checks asynchronous GS on `cfg`: monotone descent and
/// the fixed-point corridor at every reachable state, exact
/// convergence at every quiescent one. Forces no-op closure on (sound
/// for GS's min-merge; see module docs).
pub fn mc_gs(cfg: &FaultConfig, mcfg: &McConfig) -> McReport {
    let mut mcfg = mcfg.clone();
    mcfg.closure = true;
    let fixed = SafetyMap::compute(cfg);
    let net = HypercubeNet::new(cfg);
    let corridor = fixed.clone();
    let checks = [
        McCheck {
            name: "gs-monotone-descent",
            terminal_only: false,
            check: Box::new(move |s: &McSnapshot<'_, AsyncGsNode>| {
                for (v, a) in s.actors.iter().enumerate() {
                    let Some(a) = a else { continue };
                    if !a.monotone() {
                        return Err(format!("node {v}: level rose during descent"));
                    }
                    let floor = corridor.level(NodeId::new(v as u64));
                    if a.level() < floor {
                        return Err(format!(
                            "node {v}: level {} fell below the fixed point {floor}",
                            a.level()
                        ));
                    }
                }
                Ok(())
            }),
        },
        McCheck {
            name: "gs-convergence",
            terminal_only: true,
            check: Box::new(move |s: &McSnapshot<'_, AsyncGsNode>| {
                if !s.quiescent {
                    return Ok(());
                }
                for (v, a) in s.actors.iter().enumerate() {
                    let Some(a) = a else { continue };
                    let want = fixed.level(NodeId::new(v as u64));
                    if a.level() != want {
                        return Err(format!(
                            "node {v}: quiescent at level {}, centralized says {want}",
                            a.level()
                        ));
                    }
                }
                Ok(())
            }),
        },
    ];
    explore(&net, |a| AsyncGsNode::new(cfg, a, 1), &[], &mcfg, &checks)
}

/// Exhaustively checks distributed delta-GS for one churn `event`:
/// every reachable state keeps each node inside the directed corridor
/// between its pre-event start level and the post-event fixed point,
/// and every quiescent state equals the centralized recompute exactly.
/// `cfg` is the post-event configuration, `prev` the pre-event fixed
/// point. Forces no-op closure on (the direction-fixed merge is
/// monotone).
pub fn mc_delta_gs(
    cfg: &FaultConfig,
    prev: &SafetyMap,
    event: ChurnEvent,
    mcfg: &McConfig,
) -> McReport {
    let mut mcfg = mcfg.clone();
    mcfg.closure = true;
    let target = SafetyMap::compute(cfg);
    let net = HypercubeNet::new(cfg);
    let descending = matches!(event, ChurnEvent::Fault(_));
    // Each node's corridor entry point: the level its actor is built
    // with (prev fixed point, adjusted by local event detection).
    let start: Vec<Level> = (0..cfg.cube().num_nodes())
        .map(|v| DeltaGsNode::new(cfg, prev, event, NodeId::new(v), 1).level())
        .collect();
    let corridor_target = target.clone();
    let checks = [
        McCheck {
            name: "delta-gs-corridor",
            terminal_only: false,
            check: Box::new(move |s: &McSnapshot<'_, DeltaGsNode>| {
                for (v, a) in s.actors.iter().enumerate() {
                    let Some(a) = a else { continue };
                    if !a.monotone() {
                        return Err(format!("node {v}: level moved against the event direction"));
                    }
                    let goal = corridor_target.level(NodeId::new(v as u64));
                    let (lo, hi) = if descending {
                        (goal, start[v])
                    } else {
                        (start[v], goal)
                    };
                    if a.level() < lo || a.level() > hi {
                        return Err(format!(
                            "node {v}: level {} outside corridor [{lo}, {hi}]",
                            a.level()
                        ));
                    }
                }
                Ok(())
            }),
        },
        McCheck {
            name: "delta-gs-exact",
            terminal_only: true,
            check: Box::new(move |s: &McSnapshot<'_, DeltaGsNode>| {
                if !s.quiescent {
                    return Ok(());
                }
                for (v, a) in s.actors.iter().enumerate() {
                    let Some(a) = a else { continue };
                    let want = target.level(NodeId::new(v as u64));
                    if a.level() != want {
                        return Err(format!(
                            "node {v}: quiescent at level {}, recompute says {want}",
                            a.level()
                        ));
                    }
                }
                Ok(())
            }),
        },
    ];
    explore(
        &net,
        |a| DeltaGsNode::new(cfg, prev, event, a, 1),
        &[],
        &mcfg,
        &checks,
    )
}

/// Exhaustively checks one reliable unicast `s → d` over `map` (which
/// must be the converged map for `cfg`) under adversarial delivery
/// order plus the loss/duplication budgets in `mcfg`:
///
/// * **exactly-once** at every state: no inner actor's `receives`
///   exceeds 1 (the reliable layer never leaks a duplicate to the
///   protocol);
/// * at every quiescent state, the **outcome taxonomy** of Theorems
///   2–4: a feasible decision with no mid-run kills and no exhausted
///   link must have delivered, on a trail of the promised length
///   (Hamming for `Optimal`, ≤ H+2 for `Suboptimal`); a `Failure`
///   decision must be sound against the connectivity oracle and sends
///   nothing.
///
/// Forces no-op closure **off** — the ARQ layer's reorder buffer makes
/// no-op-ness unstable (see module docs). Keep `rcfg.max_retries`
/// small: it bounds the retransmission state space.
pub fn mc_unicast_arq(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    rcfg: ReliableConfig,
    mcfg: &McConfig,
) -> McReport {
    let mut mcfg = mcfg.clone();
    mcfg.closure = false;
    let net = HypercubeNet::new(cfg);
    let n = cfg.cube().dim();
    let decision = source_decision(map, s, d);
    let hamming = NavVector::new(s, d).remaining() as usize;
    let cfg_owned = cfg.clone();
    let checks = [
        McCheck {
            name: "arq-exactly-once",
            terminal_only: false,
            check: Box::new(move |st: &McSnapshot<'_, Reliable<LossyUnicastNode>>| {
                for (v, a) in st.actors.iter().enumerate() {
                    let Some(a) = a else { continue };
                    if a.inner.receives > 1 {
                        return Err(format!(
                            "node {v}: {} deliveries surfaced to the actor",
                            a.inner.receives
                        ));
                    }
                }
                Ok(())
            }),
        },
        McCheck {
            name: "unicast-outcome",
            terminal_only: true,
            check: Box::new(move |st: &McSnapshot<'_, Reliable<LossyUnicastNode>>| {
                if !st.quiescent {
                    return Ok(());
                }
                let delivered = st.actors[d.raw() as usize]
                    .as_ref()
                    .and_then(|a| a.inner.received.as_ref());
                let killed = st.dead.iter().any(|&k| k);
                // In the untimed model a retransmission timer may fire
                // any number of times while its own segment is still in
                // flight, so a link can exhaust its retries even with
                // zero losses — give-up is always a legal explanation
                // for non-delivery, never a violation by itself.
                let gave_up = st
                    .actors
                    .iter()
                    .flatten()
                    .any(|a| !a.endpoint.gave_up_dims().is_empty());
                if let Some(msg) = delivered {
                    let hops = msg.trail.len().saturating_sub(1);
                    match decision {
                        Decision::Optimal { .. } | Decision::AlreadyThere => {
                            if hops != hamming {
                                return Err(format!(
                                    "optimal decision but delivered in {hops} hops (H = {hamming})"
                                ));
                            }
                        }
                        Decision::Suboptimal { .. } => {
                            if hops > hamming + 2 {
                                return Err(format!(
                                    "suboptimal decision but {hops} hops > H+2 = {}",
                                    hamming + 2
                                ));
                            }
                        }
                        Decision::Failure => {
                            return Err("delivered although the source declared Failure".into())
                        }
                    }
                } else if !killed && !gave_up {
                    // Nothing was lost for good, yet the message never
                    // arrived: only a sound local Failure explains it.
                    if !matches!(decision, Decision::Failure) {
                        return Err(format!(
                            "feasible decision {decision:?} but the message never arrived"
                        ));
                    }
                    if let Err(v) = check_theorem4_soundness(&cfg_owned, s, d, decision) {
                        return Err(v.detail);
                    }
                }
                Ok(())
            }),
        },
    ];
    explore(
        &net,
        |a| {
            let mut inner = LossyUnicastNode::new(map, cfg, a);
            if a == s {
                inner.start = Some(d);
            }
            Reliable::new(inner, a, n, 1, rcfg)
        },
        &[(s, START_TAG)],
        &mcfg,
        &checks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn q3(faults: &[u64]) -> FaultConfig {
        let cube = Hypercube::new(3);
        let mut set = FaultSet::new(cube);
        for &f in faults {
            set.insert(NodeId::new(f));
        }
        FaultConfig::with_node_faults(cube, set)
    }

    #[test]
    fn gs_q3_two_faults_is_clean_and_exhaustive() {
        // One fault leaves every healthy Q_3 node 3-safe (neighbor
        // levels (0,3,3) dominate (0,1,2)), so nothing announces; two
        // faults actually lower levels and start a wave.
        let cfg = q3(&[0, 3]);
        let rep = mc_gs(&cfg, &McConfig::default());
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
        assert!(!rep.truncated);
        assert!(rep.states > 1);
        assert!(rep.terminals >= 1);
    }

    #[test]
    fn gs_fault_free_q3_is_trivially_quiescent() {
        let cfg = q3(&[]);
        let rep = mc_gs(&cfg, &McConfig::default());
        assert!(rep.violation.is_none());
        // Nobody's level drops, nobody announces: one state, terminal.
        assert_eq!(rep.states, 1);
        assert_eq!(rep.terminals, 1);
    }

    #[test]
    fn delta_gs_q3_fault_event_is_exact() {
        let before = q3(&[]);
        let prev = SafetyMap::compute(&before);
        let after = q3(&[5]);
        let rep = mc_delta_gs(
            &after,
            &prev,
            ChurnEvent::Fault(NodeId::new(5)),
            &McConfig::default(),
        );
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
        assert!(!rep.truncated);
    }

    #[test]
    fn arq_unicast_q3_with_loss_and_dup_is_exactly_once() {
        // Hamming-2 pair: full-distance pairs with both budgets take
        // minutes in debug mode and belong to `repro mc` (release).
        let cfg = q3(&[3]);
        let map = SafetyMap::compute(&cfg);
        let rcfg = ReliableConfig {
            max_retries: 2,
            ..ReliableConfig::default()
        };
        let mcfg = McConfig {
            loss_budget: 1,
            dup_budget: 1,
            ..McConfig::default()
        };
        let rep = mc_unicast_arq(&cfg, &map, NodeId::new(0), NodeId::new(6), rcfg, &mcfg);
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
        assert!(!rep.truncated);
        assert!(rep.terminals >= 1);
    }

    #[test]
    fn arq_infeasible_pair_fails_soundly() {
        // Fault every neighbor of 0 on Q_3: the source must declare
        // Failure, and the checker must accept that as sound.
        let cfg = q3(&[1, 2, 4]);
        let map = SafetyMap::compute(&cfg);
        let rep = mc_unicast_arq(
            &cfg,
            &map,
            NodeId::new(0),
            NodeId::new(7),
            ReliableConfig::default(),
            &McConfig::default(),
        );
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
    }
}
