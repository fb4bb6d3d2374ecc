//! Differential tests for the epoch fixed-point check: the
//! word-parallel full scan (`check_fixed_point`) and the diff-driven
//! check against a verified epoch (`check_fixed_point_since`) must
//! report exactly the node a scalar per-node Definition-1 scan reports
//! first, on clean and on corrupted maps; and `SafetyService` must
//! keep reporting a corrupt epoch until a clean one is published, and
//! route its next attempt on an epoch published from outside.

use hypersafe_core::service::{SafetyService, SafetyState};
use hypersafe_core::{level_from_unsorted, route, SafetyMap};
use hypersafe_simkit::service::{AttemptVerdict, DeliveryRung, RouteProvider};
use hypersafe_topology::{FaultConfig, FaultSet, Hypercube, NodeId, Topology};
use proptest::prelude::*;

/// The reference: Definition 1 evaluated node by node in ascending
/// address order (faulty nodes must be 0, healthy nodes must equal the
/// histogram rule over their neighbors' levels).
fn scalar_first_violation(map: &SafetyMap, cfg: &FaultConfig) -> Option<NodeId> {
    let cube = cfg.cube();
    let n = cube.dim();
    cube.nodes().find(|&a| {
        let want = if cfg.node_faulty(a) {
            0
        } else {
            level_from_unsorted(n, cube.neighbours(a).map(|b| map.level(b)))
        };
        map.level(a) != want
    })
}

/// One churn step: the node to toggle, then 1–3 corruptions of the
/// resulting map, each `(kind, pick, level)`.
type Step = (u64, Vec<(u8, u64, u8)>);

fn churn_run() -> impl Strategy<Value = (u8, Vec<u64>, Vec<Step>)> {
    (
        3u8..=10,
        proptest::collection::vec(any::<u64>(), 0..=4),
        proptest::collection::vec(
            (
                any::<u64>(),
                proptest::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1..=3),
            ),
            1..=16,
        ),
    )
}

/// Applies the step's corruptions to a copy of `map`. Kind 0 hits a
/// random node, kind 1 a faulty node (a nonzero level where Definition
/// 1 pins 0), kind 2 the node antipodal to the churned one (far from
/// everything the delta touched). Each corrupted level differs from
/// the one it replaces.
fn corrupt(
    map: &SafetyMap,
    cfg: &FaultConfig,
    churned: NodeId,
    corruptions: &[(u8, u64, u8)],
) -> SafetyMap {
    let cube = cfg.cube();
    let (n, len) = (cube.dim(), cube.num_nodes());
    let mut store = map.store().clone();
    for &(kind, pick, l) in corruptions {
        let faulty: Vec<NodeId> = cfg.node_faults().iter().collect();
        let i = match kind {
            1 if !faulty.is_empty() => faulty[(pick % faulty.len() as u64) as usize].raw(),
            2 => churned.raw() ^ (len - 1),
            _ => pick % len,
        };
        let cur = store.get(i);
        store.set(i, (cur + 1 + l % n) % (n + 1));
    }
    SafetyMap::from_store(cube, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random churn through `apply_fault`/`apply_recover` on Q3–Q10.
    /// At every step the clean map passes all three checks, and a copy
    /// with 1–3 corrupted cells gets the same first violator from all
    /// three — diffing against the previous epoch and against epoch 0
    /// (a wider diff that can take the full-scan fallback). A stale map
    /// checked against the new config (the fault bit changed, no level
    /// did) is covered too.
    #[test]
    fn all_checks_report_the_same_first_violator((n, initial, steps) in churn_run()) {
        let cube = Hypercube::new(n);
        let len = cube.num_nodes();
        let mut cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_nodes(cube, initial.iter().map(|&r| NodeId::new(r % len))),
        );
        let mut map = SafetyMap::compute(&cfg);
        prop_assert_eq!(scalar_first_violation(&map, &cfg), None);
        prop_assert_eq!(map.check_fixed_point(&cfg), None);
        let (map0, cfg0) = (map.clone(), cfg.clone());
        for (node, corruptions) in steps {
            let (prev_map, prev_cfg) = (map.clone(), cfg.clone());
            let a = NodeId::new(node % len);
            if cfg.node_faulty(a) {
                cfg.node_faults_mut().remove(a);
                map.apply_recover(&cfg, a);
            } else {
                cfg.node_faults_mut().insert(a);
                map.apply_fault(&cfg, a);
            }
            prop_assert_eq!(scalar_first_violation(&map, &cfg), None);
            prop_assert_eq!(map.check_fixed_point(&cfg), None);
            prop_assert_eq!(map.check_fixed_point_since(&cfg, &prev_map, &prev_cfg), None);

            let stale = scalar_first_violation(&prev_map, &cfg);
            prop_assert!(stale.is_some(), "toggling a fault always breaks the old map");
            prop_assert_eq!(prev_map.check_fixed_point(&cfg), stale);
            prop_assert_eq!(prev_map.check_fixed_point_since(&cfg, &prev_map, &prev_cfg), stale);

            let bad = corrupt(&map, &cfg, a, &corruptions);
            let want = scalar_first_violation(&bad, &cfg);
            prop_assert_eq!(bad.check_fixed_point(&cfg), want);
            prop_assert_eq!(bad.check_fixed_point_since(&cfg, &prev_map, &prev_cfg), want);
            prop_assert_eq!(bad.check_fixed_point_since(&cfg, &map0, &cfg0), want);
        }
    }
}

#[test]
fn wide_diff_falls_back_to_the_same_answer() {
    // Q10 with 200 faults against the fault-free epoch: far more
    // changed nodes than the diff path takes, so the full scan runs.
    let cube = Hypercube::new(10);
    let clean = FaultConfig::fault_free(cube);
    let clean_map = SafetyMap::compute(&clean);
    let cfg = FaultConfig::with_node_faults(
        cube,
        FaultSet::from_nodes(cube, (0..200u64).map(|i| NodeId::new(i * 5 % 1024))),
    );
    let map = SafetyMap::compute(&cfg);
    assert_eq!(map.check_fixed_point_since(&cfg, &clean_map, &clean), None);
    let mut store = map.store().clone();
    store.set(1000, (store.get(1000) + 1) % 11);
    let bad = SafetyMap::from_store(cube, store);
    let want = scalar_first_violation(&bad, &cfg);
    assert!(want.is_some());
    assert_eq!(bad.check_fixed_point_since(&cfg, &clean_map, &clean), want);
}

fn violation_text(epoch: u64, node: NodeId) -> String {
    format!("epoch {epoch}: published map is not the fixed point of its config at node {node}")
}

#[test]
fn service_reports_a_planted_corruption_until_a_clean_epoch() {
    let cube = Hypercube::new(8);
    let mut svc = SafetyService::new(FaultConfig::fault_free(cube));
    assert_eq!(svc.check_invariants(), Ok(()));
    assert!(svc.apply_churn(NodeId::new(0), true));
    assert_eq!(svc.publish_next(), Some(1));
    assert_eq!(svc.check_invariants(), Ok(()));

    // Plant a wrong level at node 255, antipodal to the churn.
    let snap = svc.snapshot();
    let mut store = snap.data.map.store().clone();
    store.set(255, 7);
    let bad = SafetyState {
        cfg: snap.data.cfg.clone(),
        map: SafetyMap::from_store(cube, store),
    };
    let e = svc.epochs().publish(bad.clone());
    let first = bad.map.check_fixed_point(&bad.cfg).expect("planted cell");
    assert_eq!(first, NodeId::new(255));
    assert_eq!(svc.check_invariants(), Err(violation_text(e, first)));

    // A correct delta on top of the corrupt epoch leaves the planted
    // cell in place. A diff against the parent would miss it; the
    // service diffs against the last verified epoch and still fails.
    assert!(svc.apply_churn(NodeId::new(3), true));
    let e = svc.publish_next().expect("pending delta");
    let snap = svc.snapshot();
    assert_eq!(
        snap.data
            .map
            .check_fixed_point_since(&snap.data.cfg, &bad.map, &bad.cfg),
        None,
        "the delta itself is correct"
    );
    let first = snap
        .data
        .map
        .check_fixed_point(&snap.data.cfg)
        .expect("still corrupt");
    assert_eq!(first, NodeId::new(255));
    assert_eq!(svc.check_invariants(), Err(violation_text(e, first)));

    // Republishing a clean epoch passes, and so do deltas after it.
    let live = svc.live_cfg().clone();
    svc.epochs().publish(SafetyState {
        map: SafetyMap::compute(&live),
        cfg: live,
    });
    assert_eq!(svc.check_invariants(), Ok(()));
    assert!(svc.apply_churn(NodeId::new(0), false));
    svc.publish_next();
    assert_eq!(svc.check_invariants(), Ok(()));
}

#[test]
fn the_lowest_of_two_violators_around_a_changed_node_is_reported() {
    // Node 129 dies, and a delta that stopped after clamping it leaves
    // its neighbours 1 (next to fault 33) and 131 (next to fault 163)
    // at their old levels, though each now has two faulty neighbours.
    // The check meets 131 first, among 129's higher neighbours, and
    // must still report the lower 1, met last.
    let cube = Hypercube::new(8);
    let faults = |extra: &[u64]| {
        FaultConfig::with_node_faults(
            cube,
            FaultSet::from_nodes(cube, [33, 163].iter().chain(extra).map(|&r| NodeId::new(r))),
        )
    };
    let (cfg0, cfg) = (faults(&[]), faults(&[129]));
    let map0 = SafetyMap::compute(&cfg0);
    let mut store = map0.store().clone();
    store.set(129, 0);
    let stalled = SafetyMap::from_store(cube, store);

    let violators: Vec<u64> = cube
        .nodes()
        .filter(|&a| {
            let want = if cfg.node_faulty(a) {
                0
            } else {
                level_from_unsorted(8, cube.neighbours(a).map(|b| stalled.level(b)))
            };
            stalled.level(a) != want
        })
        .map(NodeId::raw)
        .collect();
    assert_eq!(violators, [1, 131]);
    let first = Some(NodeId::new(1));
    assert_eq!(stalled.check_fixed_point_since(&cfg, &map0, &cfg0), first);
    assert_eq!(stalled.check_fixed_point(&cfg), first);
}

#[test]
fn an_external_publish_reaches_the_next_attempt() {
    // Live set: fault-free Q4. Published from outside: Fig. 1's
    // configuration and map, whose levels send some pair over a
    // detour of H + 2 hops where epoch 0 routes it optimally.
    let cube = Hypercube::new(4);
    let live = FaultConfig::fault_free(cube);
    let mut svc = SafetyService::new(live.clone());
    let fig1 = FaultConfig::with_node_faults(
        cube,
        FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]),
    );
    let fig1_map = SafetyMap::compute(&fig1);
    let (s, d, detour) = cube
        .nodes()
        .flat_map(|s| cube.nodes().map(move |d| (s, d)))
        .find_map(|(s, d)| {
            let r = route(&live, &fig1_map, s, d);
            let path = r.path.filter(|p| r.delivered && !p.is_optimal())?;
            Some((s, d, path.nodes().to_vec()))
        })
        .expect("Fig. 1 sends some pair over a detour");

    let mut trail = Vec::new();
    let out = svc.attempt_traced(s, d, &mut trail);
    assert_eq!(out.epoch, 0);
    assert!(matches!(
        out.verdict,
        AttemptVerdict::Delivered {
            rung: DeliveryRung::Optimal,
            ..
        }
    ));

    let e = svc.epochs().publish(SafetyState {
        cfg: fig1,
        map: fig1_map,
    });
    let out = svc.attempt_traced(s, d, &mut trail);
    assert_eq!(out.epoch, e);
    assert_eq!(
        out.verdict,
        AttemptVerdict::Delivered {
            rung: DeliveryRung::Suboptimal,
            hops: detour.len() as u32 - 1,
        }
    );
    assert_eq!(trail, detour);
    assert_eq!(svc.current_epoch(), e);
}
