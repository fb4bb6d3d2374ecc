//! Bench target for E8: generalized-hypercube safety computation and
//! routing across radix shapes (§4.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypersafe_core::gh_safety::GhSafetyMap;
use hypersafe_core::gh_unicast::gh_route;
use hypersafe_topology::{GeneralizedHypercube, GhNode, NodeId, Topology};
use hypersafe_workloads::Sweep;
use rand::Rng;
use std::hint::black_box;

fn shapes() -> Vec<(&'static str, GeneralizedHypercube)> {
    vec![
        ("2x3x2", GeneralizedHypercube::from_product(&[2, 3, 2])),
        ("4x4x4", GeneralizedHypercube::from_product(&[4, 4, 4])),
        ("8x8x8", GeneralizedHypercube::from_product(&[8, 8, 8])),
        ("binary_q9", GeneralizedHypercube::new(&[2; 9])),
    ]
}

fn bench_gh_safety(c: &mut Criterion) {
    let mut g = c.benchmark_group("gh_safety_compute");
    for (name, gh) in shapes() {
        let mut rng = Sweep::new(1, 0x6E0).trial_rng(0);
        let mut faults = gh.fault_set();
        let m = (gh.num_nodes() / 16).max(2);
        while (faults.len() as u64) < m {
            faults.insert(NodeId::new(rng.gen_range(0..gh.num_nodes())));
        }
        g.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(gh, faults),
            |b, (gh, f)| b.iter(|| black_box(GhSafetyMap::compute(gh, f))),
        );
    }
    g.finish();
}

fn bench_gh_route(c: &mut Criterion) {
    let mut g = c.benchmark_group("gh_route");
    for (name, gh) in shapes() {
        let mut rng = Sweep::new(1, 0x6E1).trial_rng(0);
        let mut faults = gh.fault_set();
        let m = (gh.num_nodes() / 16).max(2);
        while (faults.len() as u64) < m {
            faults.insert(NodeId::new(rng.gen_range(0..gh.num_nodes())));
        }
        let map = GhSafetyMap::compute(&gh, &faults);
        let pairs: Vec<(GhNode, GhNode)> = (0..128)
            .map(|_| loop {
                let s = GhNode(rng.gen_range(0..gh.num_nodes()));
                let d = GhNode(rng.gen_range(0..gh.num_nodes()));
                if s != d
                    && !faults.contains(NodeId::new(s.raw()))
                    && !faults.contains(NodeId::new(d.raw()))
                {
                    break (s, d);
                }
            })
            .collect();
        g.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(gh, faults, map, pairs),
            |b, (gh, f, map, pairs)| {
                let mut i = 0usize;
                b.iter(|| {
                    let (s, d) = pairs[i % pairs.len()];
                    i += 1;
                    black_box(gh_route(gh, map, f, s, d).delivered)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_gh_safety, bench_gh_route);
criterion_main!(benches);
