//! Every public predicate of the spec module (`properties`) accepts
//! every input its types allow. Nodes outside the cube, trails that
//! leave it or are empty, and any decision come back as `Ok` or a
//! `Violation`, never as a panic. A checker that panics on bad input
//! would turn a counterexample into an abort, so each call here runs
//! under `catch_unwind`.
//!
//! The routing entry points are held to the same standard: an
//! endpoint outside the topology is a typed `Failure`, never a panic
//! or an alias of a node inside it. A broadcast from a source outside
//! the topology is the empty result: no coverage, no message, no
//! relay.

use hypersafe_core::{
    broadcast, check_exactly_once, check_gh_theorem4_soundness, check_gs_convergence,
    check_level_corridor, check_levels_converged, check_lossy_outcome,
    check_never_fails_under_n_faults, check_property1, check_property2, check_theorem2,
    check_theorem2_at, check_theorem3, check_theorem4_soundness, check_unicast_optimality,
    gh_broadcast, gh_route, gh_source_decision, intermediate_dim, intermediate_dim_tb, route,
    route_dynamic, route_egs, route_light, route_many_seq, run_broadcast, run_gh_gs,
    run_gh_unicast, run_unicast, run_unicast_lossy, source_decision, BroadcastResult, Condition,
    Decision, DynamicOutcome, ExtendedSafetyMap, GhSafetyMap, GsAsyncRun, Level, LossyOutcome,
    LossyRun, NavVector, SafetyMap, TieBreak,
};
use hypersafe_simkit::{EventStats, ReliableConfig, RunOptions};
use hypersafe_topology::{FaultConfig, FaultSet, GeneralizedHypercube, GhNode, Hypercube, NodeId};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Decision `k % 6`, covering every variant and condition.
fn decision(k: u8, dim: u8) -> Decision {
    match k % 6 {
        0 => Decision::Optimal {
            condition: Condition::C1,
            first_dim: dim,
        },
        1 => Decision::Optimal {
            condition: Condition::C2,
            first_dim: dim,
        },
        2 => Decision::Optimal {
            condition: Condition::C3,
            first_dim: dim,
        },
        3 => Decision::Suboptimal { first_dim: dim },
        4 => Decision::Failure,
        _ => Decision::AlreadyThere,
    }
}

/// An `n`-cube with the given node faults (taken modulo the cube) and
/// a link fault at every listed node's dimension-0 link.
fn faulty_cube(n: u8, nodes: &[u64], links: &[u64]) -> FaultConfig {
    let cube = Hypercube::new(n);
    let mut cfg = FaultConfig::fault_free(cube);
    for &a in nodes {
        cfg.node_faults_mut()
            .insert(NodeId::new(a % cube.num_nodes()));
    }
    for &a in links {
        let a = NodeId::new(a % cube.num_nodes());
        cfg.link_faults_mut().insert(a, a.neighbor(0));
    }
    cfg
}

/// Runs `f`, failing the case with `what` if it panics.
fn total<R>(what: &str, f: impl FnOnce() -> R) -> Result<(), TestCaseError> {
    let res = catch_unwind(AssertUnwindSafe(f));
    prop_assert!(res.is_ok(), "{what} panicked");
    Ok(())
}

/// Runs `f`, failing the case with `what` if it panics or, when an
/// endpoint is `outside` the topology, if `failed` rejects its result.
fn fails_outside<R: std::fmt::Debug>(
    what: &str,
    outside: bool,
    f: impl FnOnce() -> R,
    failed: impl FnOnce(&R) -> bool,
) -> Result<(), TestCaseError> {
    let res = catch_unwind(AssertUnwindSafe(f));
    prop_assert!(res.is_ok(), "{what} panicked");
    let res = res.unwrap();
    prop_assert!(
        !outside || failed(&res),
        "{what} outside the topology gave {res:?}"
    );
    Ok(())
}

/// A broadcast's coverage, messages and relay: `(0, 0, None)` is the
/// empty result.
fn sent<N: Copy>(r: BroadcastResult<N>) -> (u64, u64, Option<N>) {
    (r.coverage(), r.messages, r.relayed_via)
}

/// An address drawn over four times the topology, or far outside it.
fn endpoint(v: u64, nodes: u64) -> u64 {
    if v % 9 == 8 {
        1 << 40
    } else {
        v % (4 * nodes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Node ids and trail entries range over twice the cube, so about
    /// half of them lie outside it.
    #[test]
    fn cube_predicates_report_instead_of_panicking(
        cube in (
            1u8..=5,
            proptest::collection::vec(0u64..64, 0..6),
            proptest::collection::vec(0u64..64, 0..3),
        ),
        pair in (0u64..64, 0u64..64),
        trail in proptest::collection::vec(0u64..64, 0..8),
        kd in (0u8..6, 0u8..8),
        flags in (any::<bool>(), any::<bool>()),
        levels in proptest::collection::vec((0u64..64, 0u8..8, any::<bool>()), 0..8),
    ) {
        let ((n, node_faults, link_faults), (s, d)) = (cube, pair);
        let ((k, dim), (delivered, guaranteed)) = (kd, flags);
        let cfg = faulty_cube(n, &node_faults, &link_faults);
        // Definition 1's map ignores link faults (EGS covers them).
        let map = SafetyMap::compute(&faulty_cube(n, &node_faults, &[]));
        let span = 2 * cfg.cube().num_nodes();
        let (s, d) = (NodeId::new(s % span), NodeId::new(d % span));
        let trail: Vec<NodeId> = trail.iter().map(|&v| NodeId::new(v % span)).collect();
        let decision = decision(k, dim);
        let sent = delivered.then_some(trail.as_slice());

        total("check_theorem2_at", || check_theorem2_at(&cfg, &map, s))?;
        total("check_theorem2", || check_theorem2(&cfg, &map))?;
        total("check_property1", || check_property1(&cfg))?;
        total("check_property2", || check_property2(&cfg, &map))?;
        total("check_theorem3", || check_theorem3(&cfg, &map))?;
        total("check_never_fails_under_n_faults", || {
            check_never_fails_under_n_faults(&cfg, &map)
        })?;
        total("check_unicast_optimality", || {
            check_unicast_optimality(&cfg, s, d, decision, sent, guaranteed)
        })?;
        total("check_theorem4_soundness", || check_theorem4_soundness(&cfg, s, d, decision))?;
        let run = LossyRun {
            outcome: if delivered { LossyOutcome::TimedOut } else { LossyOutcome::AbortedAt(s) },
            decision,
            trail: delivered.then(|| trail.clone()),
            stats: EventStats::default(),
            duplicate_deliveries: dim as u64 % 2,
        };
        total("check_lossy_outcome", || check_lossy_outcome(&cfg, s, d, &run, k as u64 % 2))?;
        let run = GsAsyncRun { map: map.clone(), stats: EventStats::default(), monotone: guaranteed };
        total("check_gs_convergence", || check_gs_convergence(&cfg, &run))?;

        let cut = || levels.iter().map(|&(v, lv, dir)| (NodeId::new(v % span), lv as Level, dir));
        let at = |a: NodeId| (a.raw() % 8) as Level;
        total("check_level_corridor", || check_level_corridor(cut(), at, |_| n, guaranteed))?;
        total("check_levels_converged", || {
            check_levels_converged(cut().map(|(a, lv, _)| (a, lv)), at)
        })?;
        total("check_exactly_once", || {
            check_exactly_once(cut().map(|(a, lv, _)| (a, lv as u64)))
        })?;
    }

    #[test]
    fn cube_routing_fails_outside_the_cube(
        cube in (
            1u8..=5,
            proptest::collection::vec(0u64..64, 0..6),
            proptest::collection::vec(0u64..64, 0..3),
        ),
        pair in (0u64..1000, 0u64..1000),
    ) {
        let ((n, node_faults, link_faults), (s, d)) = (cube, pair);
        let cfg = faulty_cube(n, &node_faults, &link_faults);
        let node_cfg = faulty_cube(n, &node_faults, &[]);
        let map = SafetyMap::compute(&node_cfg);
        let emap = ExtendedSafetyMap::compute(&cfg);
        let cube = cfg.cube();
        let nodes = cube.num_nodes();
        let (s, d) = (NodeId::new(endpoint(s, nodes)), NodeId::new(endpoint(d, nodes)));
        let outside = !(cube.contains(s) && cube.contains(d));
        let failure = |dec: &Decision| *dec == Decision::Failure;

        fails_outside("source_decision", outside, || source_decision(&map, s, d), failure)?;
        fails_outside("route", outside, || route(&cfg, &map, s, d).decision, failure)?;
        fails_outside("route_light", outside, || {
            route_light(&cfg, &map, s, d, TieBreak::HighestDim).decision
        }, failure)?;
        fails_outside("route_many_seq", outside, || {
            route_many_seq(&cfg, &map, &[(s, d)])[0].decision
        }, failure)?;
        fails_outside("route_egs", outside, || route_egs(&cfg, &emap, s, d).decision, failure)?;
        fails_outside("intermediate_dim", outside, || {
            intermediate_dim(&map, s, NavVector::new(s, d))
        }, Option::is_none)?;
        fails_outside("intermediate_dim_tb", outside, || {
            intermediate_dim_tb(&map, s, NavVector::new(s, d), TieBreak::Hashed { salt: 7 })
        }, Option::is_none)?;
        fails_outside("run_unicast", outside, || {
            let run = run_unicast(&node_cfg, &map, s, d, 1, RunOptions::default()).0;
            (run.decision, run.trail)
        }, |(dec, trail)| failure(dec) && trail.is_none())?;
        fails_outside("run_unicast_lossy", outside, || {
            let rcfg = ReliableConfig::default();
            let run = run_unicast_lossy(&node_cfg, &map, s, d, 1, rcfg, RunOptions::default()).0;
            (run.decision, run.trail)
        }, |(dec, trail)| failure(dec) && trail.is_none())?;
        fails_outside("route_dynamic", outside, || {
            route_dynamic(cube, node_cfg.node_faults(), &[], s, d).outcome
        }, |o| *o == DynamicOutcome::InfeasibleAtSource)?;
        let empty = |r: &(u64, u64, Option<NodeId>)| *r == (0, 0, None);
        fails_outside("broadcast", !cube.contains(s), || sent(broadcast(&cfg, &map, s)), empty)?;
        fails_outside("run_broadcast", !cube.contains(s), || {
            sent(run_broadcast(&node_cfg, &map, s, 1, RunOptions::default()).0)
        }, empty)?;
    }

    /// The fault set's capacity is drawn below, at or above the node
    /// count: a narrower set leaves the nodes past it healthy, and a
    /// wider one's members past the last node are ignored.
    #[test]
    fn gh_routing_fails_outside_the_topology(
        radices in proptest::collection::vec(2u16..=4, 1..=3),
        faults in proptest::collection::vec(0u64..64, 0..5),
        pair in (0u64..1000, 0u64..1000),
        width in 0u8..3,
    ) {
        let gh = GeneralizedHypercube::new(&radices);
        let nodes = gh.num_nodes();
        let capacity = match width {
            0 => (nodes / 2).max(1),
            1 => nodes,
            _ => 2 * nodes + 64,
        };
        let mut set = FaultSet::with_capacity(capacity);
        for &f in &faults {
            set.insert(NodeId::new(f % capacity));
        }
        let mut map = None;
        total("GhSafetyMap::compute", || map = Some(GhSafetyMap::compute(&gh, &set)))?;
        let map = map.unwrap();
        total("run_gh_gs", || run_gh_gs(&gh, &set))?;
        let (s, d) = (GhNode(endpoint(pair.0, nodes)), GhNode(endpoint(pair.1, nodes)));
        let outside = !(gh.contains(s) && gh.contains(d));
        let failure = |dec: &Decision| *dec == Decision::Failure;

        fails_outside("gh_source_decision", outside, || {
            gh_source_decision(&gh, &map, s, d)
        }, failure)?;
        fails_outside("gh_route", outside, || {
            let res = gh_route(&gh, &map, &set, s, d);
            (res.decision, res.nodes)
        }, |(dec, nodes)| failure(dec) && nodes.is_none())?;
        fails_outside("run_gh_unicast", outside, || {
            let run = run_gh_unicast(&gh, &map, &set, s, d, 1, RunOptions::default()).0;
            (run.decision, run.trail)
        }, |(dec, trail)| failure(dec) && trail.is_none())?;
        fails_outside("gh_broadcast", !gh.contains(s), || {
            sent(gh_broadcast(&gh, &map, &set, s))
        }, |r| *r == (0, 0, None))?;
    }

    #[test]
    fn gh_theorem4_reports_instead_of_panicking(
        radices in proptest::collection::vec(2u16..=4, 1..=3),
        faults in proptest::collection::vec(0u64..64, 0..5),
        s in 0u64..128,
        d in 0u64..128,
        k in 0u8..6,
    ) {
        let gh = GeneralizedHypercube::new(&radices);
        let mut set: FaultSet = gh.fault_set();
        for &f in &faults {
            set.insert(NodeId::new(f % gh.num_nodes()));
        }
        let span = 2 * gh.num_nodes();
        let (s, d) = (GhNode(s % span), GhNode(d % span));
        total("check_gh_theorem4_soundness", || {
            check_gh_theorem4_soundness(&gh, &set, s, d, decision(k, 0))
        })?;
    }
}
