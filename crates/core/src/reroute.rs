//! Unicasting under *dynamic* faults — the §2.2 demand-driven remark
//! made executable:
//!
//! > "in case of occurrence of a new faulty node that affects a
//! > unicast, this unicast might either be aborted or be re-routed
//! > from the current node after all the safety levels are stabilized."
//!
//! A message is in flight while new nodes fail. Each hop, the holder
//! checks its chosen next hop against its *locally detectable* truth
//! (a node always knows its own neighbors' fault status — the paper's
//! assumption 2). On a mismatch it triggers a GS re-stabilization and
//! re-runs the full source decision from its own position, exactly as
//! the paper prescribes.

use crate::gs::run_gs;
use crate::safety::SafetyMap;
use crate::unicast::{source_decision, Decision};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Path};

/// A scheduled mid-flight fault: after the message has completed
/// `after_hop` hops, `node` fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Hop count after which the fault materializes.
    pub after_hop: u32,
    /// The node that fails.
    pub node: NodeId,
}

/// Why a dynamic unicast ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DynamicOutcome {
    /// Delivered to the destination.
    Delivered,
    /// A re-decision at an intermediate holder found no feasible
    /// continuation (C1–C3 all failed there).
    AbortedAt(NodeId),
    /// The node holding the message failed — fault-stop drops the
    /// message with it.
    HolderFailed(NodeId),
    /// The destination itself failed mid-flight.
    DestinationFailed,
    /// The initial source decision already failed.
    InfeasibleAtSource,
}

/// Result of a dynamic-fault unicast.
#[derive(Clone, Debug)]
pub struct DynamicRun {
    /// How it ended.
    pub outcome: DynamicOutcome,
    /// The realized walk.
    pub path: Path,
    /// Number of GS re-stabilizations triggered.
    pub restabilizations: u32,
    /// Safety-exchange messages spent on re-stabilizations.
    pub gs_messages: u64,
}

/// Routes `s → d` on `cube` starting from `initial_faults`, while the
/// `events` (sorted by `after_hop`) inject new faults mid-flight. A
/// fault striking the current message holder loses the message
/// (fault-stop), reported as [`DynamicOutcome::HolderFailed`].
///
/// # Panics
/// Panics if `events` are not sorted by `after_hop`.
pub fn route_dynamic(
    cube: Hypercube,
    initial_faults: &hypersafe_topology::FaultSet,
    events: &[FaultEvent],
    s: NodeId,
    d: NodeId,
) -> DynamicRun {
    assert!(
        events.windows(2).all(|w| w[0].after_hop <= w[1].after_hop),
        "events must be sorted by after_hop"
    );
    let mut cfg = FaultConfig::with_node_faults(cube, initial_faults.clone());
    let mut map = SafetyMap::compute(&cfg);
    let mut run = DynamicRun {
        outcome: DynamicOutcome::Delivered,
        path: Path::starting_at(s),
        restabilizations: 0,
        gs_messages: 0,
    };
    let mut next_event = 0usize;
    let mut hops = 0u32;
    let mut at = s;

    // The initial source decision fixes the first-hop dimension (a
    // suboptimal decision starts with a *spare* hop, which plain
    // intermediate forwarding would never take).
    let mut pending_dim = match source_decision(&map, s, d) {
        Decision::Failure => {
            run.outcome = DynamicOutcome::InfeasibleAtSource;
            return run;
        }
        Decision::AlreadyThere => {
            run.outcome = DynamicOutcome::Delivered;
            return run;
        }
        Decision::Optimal { first_dim, .. } | Decision::Suboptimal { first_dim } => Some(first_dim),
    };

    loop {
        // Apply all faults scheduled at this hop count.
        while next_event < events.len() && events[next_event].after_hop <= hops {
            let ev = events[next_event];
            next_event += 1;
            cfg.node_faults_mut().insert(ev.node);
            if ev.node == at {
                run.outcome = DynamicOutcome::HolderFailed(at);
                return run;
            }
        }
        if at == d {
            run.outcome = DynamicOutcome::Delivered;
            return run;
        }
        if cfg.node_faulty(d) {
            run.outcome = DynamicOutcome::DestinationFailed;
            return run;
        }
        // Next hop: the pending (re)decision dimension, or ordinary
        // intermediate forwarding on the current map.
        let nv = crate::navigation::NavVector::new(at, d);
        let dim = pending_dim.take().unwrap_or_else(|| {
            crate::unicast::intermediate_dim(&map, at, nv).expect("nv non-zero")
        });
        let next = at.neighbor(dim);
        if cfg.node_faulty(next) {
            // Local detection: the holder knows its neighbors' true
            // status. If the map believed this neighbor healthy, the
            // levels are stale → demand-driven GS re-stabilization.
            if map.level(next) != 0 {
                let gs = run_gs(cfg.cube(), &cfg);
                run.restabilizations += 1;
                run.gs_messages += gs.stats.messages;
                map = gs.map;
            }
            // Re-decide from this node as the new source. On fresh
            // levels a non-failure decision never picks a faulty next
            // hop for H ≥ 2 (Theorem 2), and the H = 1 faulty-
            // destination case was handled above.
            match source_decision(&map, at, d) {
                Decision::Failure => {
                    run.outcome = DynamicOutcome::AbortedAt(at);
                    return run;
                }
                Decision::AlreadyThere => unreachable!("at ≠ d here"),
                Decision::Optimal { first_dim, .. } | Decision::Suboptimal { first_dim } => {
                    pending_dim = Some(first_dim);
                    continue;
                }
            }
        }
        run.path.push(next);
        at = next;
        hops += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::FaultSet;

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
    }

    fn q4() -> Hypercube {
        Hypercube::new(4)
    }

    #[test]
    fn no_events_behaves_like_static_route() {
        let cube = q4();
        let faults = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
        let run = route_dynamic(cube, &faults, &[], n("1110"), n("0001"));
        assert_eq!(run.outcome, DynamicOutcome::Delivered);
        assert_eq!(run.restabilizations, 0);
        assert_eq!(run.path.render(4), "1110 → 1111 → 1101 → 0101 → 0001");
    }

    #[test]
    fn mid_flight_fault_triggers_restabilize_and_reroute() {
        let cube = q4();
        let faults = FaultSet::new(cube);
        // Static route 0000 → 1111 under lowest-dim tiebreak goes via
        // 0001; kill 0011 (two hops ahead) after the first hop.
        let events = [FaultEvent {
            after_hop: 1,
            node: n("0011"),
        }];
        let run = route_dynamic(cube, &faults, &events, n("0000"), n("1111"));
        assert_eq!(run.outcome, DynamicOutcome::Delivered);
        assert_eq!(run.restabilizations, 1);
        assert!(run.gs_messages > 0);
        // Still optimal: enough alternatives exist.
        assert_eq!(run.path.len(), 4);
        assert!(!run.path.nodes().contains(&n("0011")));
    }

    #[test]
    fn destination_failure_is_reported() {
        let cube = q4();
        let faults = FaultSet::new(cube);
        let events = [FaultEvent {
            after_hop: 1,
            node: n("1111"),
        }];
        let run = route_dynamic(cube, &faults, &events, n("0000"), n("1111"));
        assert_eq!(run.outcome, DynamicOutcome::DestinationFailed);
    }

    #[test]
    fn surrounded_holder_aborts() {
        let cube = q4();
        // Start fault-free; after hop 1 the message is at 0001 heading
        // for 0111. Fault all of 0001's useful continuations so the
        // re-decision fails there.
        let faults = FaultSet::new(cube);
        let events = [
            FaultEvent {
                after_hop: 1,
                node: n("0011"),
            },
            FaultEvent {
                after_hop: 1,
                node: n("0101"),
            },
            FaultEvent {
                after_hop: 1,
                node: n("0000"),
            },
            FaultEvent {
                after_hop: 1,
                node: n("1001"),
            },
        ];
        let run = route_dynamic(cube, &faults, &events, n("0000"), n("0111"));
        // 0001 is walled in: every neighbor is faulty → abort there.
        assert_eq!(run.outcome, DynamicOutcome::AbortedAt(n("0001")));
        assert!(run.restabilizations >= 1);
    }

    #[test]
    fn infeasible_at_source_short_circuits() {
        let cube = q4();
        let faults = FaultSet::from_binary_strs(cube, &["0110", "1010", "1100", "1111"]);
        let run = route_dynamic(cube, &faults, &[], n("1110"), n("0000"));
        assert_eq!(run.outcome, DynamicOutcome::InfeasibleAtSource);
        assert!(run.path.is_empty());
    }

    #[test]
    fn holder_failure_loses_the_message() {
        let cube = q4();
        let faults = FaultSet::new(cube);
        // Route 0000 → 1111 passes through 0001 after hop 1; kill it.
        let events = [FaultEvent {
            after_hop: 1,
            node: n("0001"),
        }];
        let run = route_dynamic(cube, &faults, &events, n("0000"), n("1111"));
        assert_eq!(run.outcome, DynamicOutcome::HolderFailed(n("0001")));
    }

    #[test]
    fn destination_fails_one_hop_before_arrival() {
        let cube = q4();
        let faults = FaultSet::new(cube);
        // Lowest-dim tiebreak walks 0000 → 0001 → 0011 → 0111 → 1111;
        // the destination dies while the message sits at 0111.
        let events = [FaultEvent {
            after_hop: 3,
            node: n("1111"),
        }];
        let run = route_dynamic(cube, &faults, &events, n("0000"), n("1111"));
        assert_eq!(run.outcome, DynamicOutcome::DestinationFailed);
        assert_eq!(
            run.path.end(),
            n("0111"),
            "message stops where the bad news arrived"
        );
        assert_eq!(
            run.restabilizations, 0,
            "no reroute can save a dead destination"
        );
    }

    #[test]
    fn holder_fails_on_final_hop() {
        let cube = q4();
        let faults = FaultSet::new(cube);
        // Kill the penultimate node exactly when it holds the message,
        // one hop short of the destination.
        let events = [FaultEvent {
            after_hop: 3,
            node: n("0111"),
        }];
        let run = route_dynamic(cube, &faults, &events, n("0000"), n("1111"));
        assert_eq!(run.outcome, DynamicOutcome::HolderFailed(n("0111")));
        assert_eq!(run.path.end(), n("0111"));
    }

    #[test]
    fn fault_at_arrival_tick_takes_the_holder() {
        let cube = q4();
        let faults = FaultSet::new(cube);
        // The destination fails at the same tick the message completes
        // its final hop. Fault-stop wins the race: the node (now the
        // holder) dies with the message, it is not "delivered first".
        let events = [FaultEvent {
            after_hop: 4,
            node: n("1111"),
        }];
        let run = route_dynamic(cube, &faults, &events, n("0000"), n("1111"));
        assert_eq!(run.outcome, DynamicOutcome::HolderFailed(n("1111")));
    }

    #[test]
    #[should_panic]
    fn unsorted_events_rejected() {
        let cube = q4();
        let faults = FaultSet::new(cube);
        let events = [
            FaultEvent {
                after_hop: 2,
                node: n("0011"),
            },
            FaultEvent {
                after_hop: 1,
                node: n("0101"),
            },
        ];
        route_dynamic(cube, &faults, &events, n("0000"), n("1111"));
    }
}
