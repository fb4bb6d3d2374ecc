//! GH-topology coverage for the invariant suite on GH(3,3,3): the
//! distributed `GLOBAL_STATUS` run through the lock-step runner's own
//! checks (monotone descent, fixed-point corridor, round bound, exact
//! convergence), and Theorem-4 soundness of the GH source decision
//! against the BFS connectivity oracle — exhaustively over every
//! fault set of size ≤ 2 and every ordered (s, d) pair.

use hypersafe::safety::{check_theorem4_soundness, run_gs, source_decision, SafetyMap};
use hypersafe::topology::{FaultSet, GeneralizedHypercube, NodeId, Topology};

fn gh333() -> GeneralizedHypercube {
    GeneralizedHypercube::new(&[3, 3, 3])
}

/// All fault sets of GH(3,3,3) with at most two faulty nodes.
fn fault_sets_up_to_two(gh: &GeneralizedHypercube) -> Vec<FaultSet> {
    let total = gh.num_nodes();
    let mut sets = vec![gh.fault_set()];
    for a in 0..total {
        let mut f = gh.fault_set();
        f.insert(NodeId::new(a));
        sets.push(f);
        for b in (a + 1)..total {
            let mut f = gh.fault_set();
            f.insert(NodeId::new(a));
            f.insert(NodeId::new(b));
            sets.push(f);
        }
    }
    sets
}

#[test]
fn gh333_checked_runner_descends_monotonically_and_converges() {
    let gh = gh333();
    for (k, f) in fault_sets_up_to_two(&gh).iter().enumerate() {
        let run = run_gs(&gh, f);
        run.check.unwrap_or_else(|v| panic!("fault set {k}: {v:?}"));
        let central = SafetyMap::compute_in(&gh, f);
        assert_eq!(run.map.store(), central.store(), "fault set {k}");
    }
}

#[test]
fn gh333_theorem4_soundness_is_exhaustive_under_two_faults() {
    let gh = gh333();
    let mut failures = 0u64;
    let mut accepts = 0u64;
    for (k, f) in fault_sets_up_to_two(&gh).iter().enumerate() {
        let map = SafetyMap::compute_in(&gh, f);
        for s in gh.nodes() {
            if f.contains(NodeId::new(s.raw())) {
                continue;
            }
            for d in gh.nodes() {
                if s == d || f.contains(NodeId::new(d.raw())) {
                    continue;
                }
                let decision = source_decision(&map, s, d);
                check_theorem4_soundness(&gh, f, s, d, decision)
                    .unwrap_or_else(|v| panic!("fault set {k} {s:?}→{d:?}: {v:?}"));
                match decision {
                    hypersafe::safety::Decision::Failure => failures += 1,
                    _ => accepts += 1,
                }
            }
        }
    }
    // Below n = 3 faults the decision procedure must accept every
    // healthy pair (the soundness check above would have caught a
    // spurious Failure, but make the aggregate explicit too).
    assert_eq!(failures, 0, "spurious Failure below the fault bound");
    assert!(accepts > 0);
}

#[test]
fn gh_surrounded_node_fails_soundly() {
    // GH(2,2) is a 4-cycle; faulting both neighbors of (0,0) isolates
    // it. Failure is then doubly legitimate: the pair is disconnected
    // and the fault count reaches n = 2.
    let gh = GeneralizedHypercube::new(&[2, 2]);
    let mut f = gh.fault_set();
    f.insert(NodeId::new(gh.node_from_digits(&[1, 0]).raw()));
    f.insert(NodeId::new(gh.node_from_digits(&[0, 1]).raw()));
    let map = SafetyMap::compute_in(&gh, &f);
    let s = gh.node_from_digits(&[0, 0]);
    let d = gh.node_from_digits(&[1, 1]);
    let decision = source_decision(&map, s, d);
    assert_eq!(decision, hypersafe::safety::Decision::Failure);
    assert_eq!(check_theorem4_soundness(&gh, &f, s, d, decision), Ok(()));
    // And the checked GS runner still converges on the isolated cube.
    run_gs(&gh, &f).check.expect("GS must still converge");
}
