//! Every public predicate of the spec module (`properties`) accepts
//! every input its types allow. Nodes outside the cube, trails that
//! leave it or are empty, and any decision come back as `Ok` or a
//! `Violation`, never as a panic. A checker that panics on bad input
//! would turn a counterexample into an abort, so each call here runs
//! under `catch_unwind`.

use hypersafe_core::{
    check_exactly_once, check_gh_theorem4_soundness, check_gs_convergence, check_level_corridor,
    check_levels_converged, check_lossy_outcome, check_never_fails_under_n_faults, check_property1,
    check_property2, check_theorem2, check_theorem2_at, check_theorem3, check_theorem4_soundness,
    check_unicast_optimality, Condition, Decision, GhDecision, GsAsyncRun, Level, LossyOutcome,
    LossyRun, SafetyMap,
};
use hypersafe_simkit::EventStats;
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

fn gh_decision(k: u8) -> GhDecision {
    [
        GhDecision::Optimal,
        GhDecision::Suboptimal,
        GhDecision::Failure,
        GhDecision::AlreadyThere,
    ][k as usize % 4]
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
    fn gh_theorem4_reports_instead_of_panicking(
        radices in proptest::collection::vec(2u16..=4, 1..=3),
        faults in proptest::collection::vec(0u64..64, 0..5),
        s in 0u64..128,
        d in 0u64..128,
        k in 0u8..4,
    ) {
        let gh = GeneralizedHypercube::new(&radices);
        let mut set: FaultSet = gh.fault_set();
        for &f in &faults {
            set.insert(NodeId::new(f % gh.num_nodes()));
        }
        let span = 2 * gh.num_nodes();
        let (s, d) = (GhNode(s % span), GhNode(d % span));
        total("check_gh_theorem4_soundness", || {
            check_gh_theorem4_soundness(&gh, &set, s, d, gh_decision(k))
        })?;
    }
}
