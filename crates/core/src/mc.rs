//! Model-checking entry points for the protocol kernel: exhaustive
//! verification of GS convergence, delta-GS exactness, and ARQ
//! exactly-once unicast on small cubes.
//!
//! Each function wires one protocol into the explicit-state checker
//! ([`hypersafe_simkit::mc`]); every [`McCheck`] calls the predicate of
//! [`crate::properties`] that the engine invariants call, under the
//! same name, over the live actors of one reached state. The
//! predicates are path-free — a condition on a single state — so they
//! are checked at every state of the BFS rather than along one
//! schedule:
//!
//! * **GS** ([`mc_gs`]): at every state every healthy node's level has
//!   only descended and sits at or above the centralized fixed point
//!   ([`GS_CORRIDOR`]); at every quiescent state it *equals* the fixed
//!   point ([`GS_CONVERGENCE`], Theorem 1 over *all* delivery orders,
//!   not sampled ones).
//! * **Delta-GS** ([`mc_delta_gs`]): levels stay inside the directed
//!   corridor between each actor's start level and the post-event
//!   fixed point, and land exactly on the post-event map at quiescence
//!   — distributed incremental maintenance ≡ centralized recompute.
//! * **ARQ unicast** ([`mc_unicast_arq`]): no node's inner actor ever
//!   sees a payload twice ([`ARQ_EXACTLY_ONCE`], under adversarial
//!   loss/duplication within the configured budgets); at quiescent
//!   states the delivered trail is valid and exactly `H` hops long for
//!   `Optimal`, exactly `H + 2` for `Suboptimal`, and `Failure` sends
//!   nothing ([`UNICAST_OUTCOME`]); and the source's verdict is sound
//!   against the connectivity oracle ([`THEOREM4_SOUNDNESS`]).
//!
//! The GS legs run with no-op closure enabled (their merges are
//! monotone, so a stale announcement stays a no-op forever — see
//! DESIGN.md §14); the ARQ leg runs with closure disabled (a buffered
//! out-of-order segment makes a later redelivery ack-effectful, which
//! breaks the stability requirement).

use crate::gs::{AsyncGsNode, GsCorridor, GsStart};
use crate::properties::{
    check_theorem4_soundness, check_unicast_optimality, Violation, ARQ_EXACTLY_ONCE,
    GS_CONVERGENCE, GS_CORRIDOR, THEOREM4_SOUNDNESS, UNICAST_OUTCOME,
};
use crate::safety::SafetyMap;
use crate::safety_delta::ChurnEvent;
use crate::unicast::source_decision;
use crate::unicast_distributed::{ArqSingleDelivery, UnicastNode, START_TAG};
use hypersafe_simkit::{
    engine_projection, explore, EventEngine, McCheck, McConfig, McReport, McSnapshot, Net,
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
    let net = Net::cube(cfg);
    let opts = RunOptions {
        sched,
        ..RunOptions::default()
    };
    let init = |a| AsyncGsNode::new(cfg, GsStart::Scratch, a, 1);
    let mut eng = EventEngine::with_options(&net, opts, init);
    let mut seen = vec![engine_projection(&eng)];
    while eng.step() {
        seen.push(engine_projection(&eng));
    }
    seen
}

/// The live actors of one reached state, as the engine's
/// `actors_iter` lists them.
fn live<'s, A>(s: &McSnapshot<'s, A>) -> impl Iterator<Item = (NodeId, &'s A)> {
    let actors = s.actors.iter().enumerate();
    actors.filter_map(|(v, a)| a.as_ref().map(|a| (NodeId::new(v as u64), a)))
}

/// The [`McCheck`] named `name` that runs `pred` at every reached state
/// or, with `terminal_only`, at every quiescent one.
fn check<'p, A>(
    name: &'static str,
    terminal_only: bool,
    pred: impl Fn(&McSnapshot<'_, A>) -> Result<(), Violation> + 'p,
) -> McCheck<'p, A> {
    McCheck {
        name,
        terminal_only,
        check: Box::new(move |s: &McSnapshot<'_, A>| {
            if terminal_only && !s.quiescent {
                return Ok(());
            }
            pred(s).map_err(|v| v.detail)
        }),
    }
}

/// Exhaustively checks asynchronous GS on `cfg`: the level corridor at
/// every reachable state, exact convergence at every quiescent one.
pub fn mc_gs(cfg: &FaultConfig, mcfg: &McConfig) -> McReport {
    mc_gs_from(cfg, GsStart::Scratch, mcfg)
}

/// Exhaustively checks distributed delta-GS for one churn `event`:
/// every reachable state keeps each node inside the directed corridor
/// between its start level and the post-event fixed point, and every
/// quiescent state equals the centralized recompute exactly. `cfg` is
/// the post-event configuration, `prev` the pre-event fixed point.
pub fn mc_delta_gs(
    cfg: &FaultConfig,
    prev: &SafetyMap,
    event: ChurnEvent,
    mcfg: &McConfig,
) -> McReport {
    mc_gs_from(cfg, GsStart::After(prev, event), mcfg)
}

/// The GS actor and its corridor from `start`, explored with no-op
/// closure forced on (the directed merge is monotone; see module
/// docs). A cube with link faults has no fixed point to check
/// against: its first quiescent state reports [`GS_CONVERGENCE`].
fn mc_gs_from(cfg: &FaultConfig, start: GsStart, mcfg: &McConfig) -> McReport {
    let mut mcfg = mcfg.clone();
    mcfg.closure = true;
    let net = Net::cube(cfg);
    let corridor = GsCorridor::new(cfg, start);
    let checks = [
        check(GS_CORRIDOR, false, |s| match &corridor {
            Ok(c) => c.corridor(live(s)),
            Err(_) => Ok(()),
        }),
        check(GS_CONVERGENCE, true, |s| match &corridor {
            Ok(c) => c.converged(live(s)),
            Err(v) => Err(v.clone()),
        }),
    ];
    let init = |a| AsyncGsNode::new(cfg, start, a, 1);
    explore(&net, init, &[], &mcfg, &checks)
}

/// Exhaustively checks one reliable unicast `s → d` over `map` (which
/// must be the converged map for `cfg`) under adversarial delivery
/// order plus the loss/duplication budgets in `mcfg`:
///
/// * [`ARQ_EXACTLY_ONCE`] at every state: no inner actor's `receives`
///   exceeds 1 (the reliable layer never leaks a duplicate to the
///   protocol);
/// * [`UNICAST_OUTCOME`] at every quiescent state: the source's
///   decision implies the trail the destination recorded. A feasible
///   decision with no mid-run kill and no exhausted link must have
///   delivered, on a valid trail of exactly the promised length;
///   `Failure` delivers nothing;
/// * [`THEOREM4_SOUNDNESS`] of the source's verdict against the
///   connectivity oracle (the decision is fixed before the first
///   event, so it is evaluated once).
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
    let net = Net::cube(cfg);
    let decision = source_decision(map, s, d);
    let sound = check_theorem4_soundness(cfg, s, d, decision);
    let outcome = |st: &McSnapshot<'_, Reliable<UnicastNode<&SafetyMap>>>| {
        let delivered = st.actors[d.raw() as usize]
            .as_ref()
            .and_then(|a| a.inner.received.as_ref());
        let killed = st.dead.iter().any(|&k| k);
        // In the untimed model a retransmission timer may fire any
        // number of times while its own segment is still in flight, so
        // a link can exhaust its retries even with zero losses —
        // give-up is always a legal explanation for non-delivery, never
        // a violation by itself.
        let gave_up = live(st).any(|(_, a)| !a.endpoint.gave_up_dims().is_empty());
        let trail = delivered.map(|m| m.trail.as_slice());
        check_unicast_optimality(cfg, s, d, decision, trail, !killed && !gave_up)
    };
    let checks = [
        check(ARQ_EXACTLY_ONCE, false, |st| {
            ArqSingleDelivery::check_actors(live(st))
        }),
        check(UNICAST_OUTCOME, true, outcome),
        check(THEOREM4_SOUNDNESS, false, |_| sound.clone()),
    ];
    explore(
        &net,
        |a| {
            let inner = UnicastNode::new(map, a, (a == s).then_some(d), 1);
            Reliable::new(inner, cfg.cube(), a, 1, rcfg)
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
    fn gs_with_a_link_fault_reports_instead_of_panicking() {
        // Theorem 1's fixed point is defined for node faults only, so
        // the first quiescent state has nothing to converge to.
        let mut cfg = q3(&[]);
        cfg.link_faults_mut().insert(NodeId::new(0), NodeId::new(1));
        let rep = mc_gs(&cfg, &McConfig::default());
        assert_eq!(rep.violation.expect("violation").property, GS_CONVERGENCE);
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
