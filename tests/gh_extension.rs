//! Generalized-hypercube stack, end to end through the public API:
//! distributed GS ≡ centralized, routing contracts, broadcast
//! coverage, binary-radix reduction — across radix shapes.

use hypersafe::safety::{broadcast, route, run_gs, Decision, SafetyMap};
use hypersafe::topology::{GeneralizedHypercube, GhNode, NodeId, Topology};
use hypersafe::workloads::Sweep;
use rand::Rng;

fn random_faults(
    gh: &GeneralizedHypercube,
    m: usize,
    rng: &mut impl Rng,
) -> hypersafe::topology::FaultSet {
    let mut f = gh.fault_set();
    while f.len() < m {
        f.insert(NodeId::new(rng.gen_range(0..gh.num_nodes())));
    }
    f
}

#[test]
fn distributed_gs_matches_centralized_across_shapes() {
    let shapes: Vec<GeneralizedHypercube> = vec![
        GeneralizedHypercube::from_product(&[2, 3, 2]),
        GeneralizedHypercube::from_product(&[4, 4, 4]),
        GeneralizedHypercube::from_product(&[3, 2, 5]),
        GeneralizedHypercube::new(&[2; 7]),
    ];
    let sweep = Sweep::new(12, 0x64EE);
    for gh in &shapes {
        let mismatch: u32 = sweep
            .run_seq(|i, rng| {
                let m = (i as usize) % (gh.num_nodes() as usize / 4).max(2);
                let f = random_faults(gh, m, rng);
                let central = SafetyMap::compute_in(gh, &f);
                let run = run_gs(gh, &f);
                (run.check.is_err() || central.store() != run.map.store()) as u32
            })
            .iter()
            .sum();
        assert_eq!(mismatch, 0, "shape {:?}", gh);
    }
}

#[test]
fn routing_contracts_on_random_gh_instances() {
    let gh = GeneralizedHypercube::from_product(&[3, 3, 3]);
    let sweep = Sweep::new(15, 0x64EF);
    let violations: u32 = sweep
        .run(|i, rng| {
            let f = random_faults(&gh, (i % 6) as usize, rng);
            let map = SafetyMap::compute_in(&gh, &f);
            let healthy: Vec<GhNode> = gh
                .nodes()
                .filter(|a| !f.contains(NodeId::new(a.raw())))
                .collect();
            let mut bad = 0u32;
            for &s in healthy.iter().take(8) {
                for &d in healthy.iter().rev().take(8) {
                    let res = route(&f, &map, s, d);
                    let hops = res.path.as_ref().map(|p| p.len());
                    match res.decision {
                        Decision::Optimal { .. }
                            if (!res.delivered || hops != gh.distance(s, d)) =>
                        {
                            bad += 1;
                        }
                        Decision::Suboptimal { .. }
                            if (!res.delivered || hops != gh.distance(s, d).map(|h| h + 2)) =>
                        {
                            bad += 1;
                        }
                        _ => {}
                    }
                }
            }
            bad
        })
        .iter()
        .sum();
    assert_eq!(violations, 0);
}

#[test]
fn gh_safe_sources_broadcast_to_everything() {
    let gh = GeneralizedHypercube::from_product(&[2, 4, 3]);
    let sweep = Sweep::new(15, 0x64F0);
    let failures: u32 = sweep
        .run(|i, rng| {
            let f = random_faults(&gh, (i % 5) as usize, rng);
            let map = SafetyMap::compute_in(&gh, &f);
            let mut bad = 0u32;
            for a in gh.nodes() {
                if f.contains(NodeId::new(a.raw())) || !map.is_safe(a) {
                    continue;
                }
                if !broadcast(&f, &map, a).complete(&f) {
                    bad += 1;
                }
            }
            bad
        })
        .iter()
        .sum();
    assert_eq!(failures, 0);
}

#[test]
fn gh_rounds_never_exceed_dims_minus_one() {
    let gh = GeneralizedHypercube::from_product(&[3, 4, 2, 3]);
    let sweep = Sweep::new(20, 0x64F1);
    let worst: u32 = sweep
        .run(|i, rng| {
            let f = random_faults(&gh, (3 * i % 20) as usize, rng);
            SafetyMap::compute_in(&gh, &f).rounds()
        })
        .into_iter()
        .max()
        .unwrap();
    assert!(worst <= 3, "n − 1 bound for GH (§4.2): got {worst}");
}
