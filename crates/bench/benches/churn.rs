//! Bench target for E24: the incremental safety-level engine vs a
//! from-scratch recompute (single-fault update at n = 12 — the ≥5×
//! acceptance bar) and the batched routing path, parallel vs
//! sequential on a million pairs (the ≥2× bar at 4 threads).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypersafe_core::{route_many, route_many_seq, SafetyMap};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Topology};
use hypersafe_workloads::{random_pair, uniform_faults, Sweep};
use rand::Rng;
use std::hint::black_box;

/// A faulted cube plus a rotation of healthy victims so repeated
/// iterations fault a fresh node each time (apply_fault requires a
/// genuine healthy→faulty transition).
struct Fixture {
    cfg: FaultConfig,
    map: SafetyMap,
    victims: Vec<NodeId>,
}

fn fixture(n: u8, m: usize) -> Fixture {
    let cube = Hypercube::new(n);
    let mut rng = Sweep::new(1, 0xC8A1).trial_rng(0);
    let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, m, &mut rng));
    let map = SafetyMap::compute(&cfg);
    let victims = (0..64)
        .map(|_| loop {
            let v = NodeId::new(rng.gen_range(0..cube.num_nodes()));
            if !cfg.node_faulty(v) {
                break v;
            }
        })
        .collect();
    Fixture { cfg, map, victims }
}

fn bench_single_fault_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("churn_single_fault");
    for (n, m) in [(10u8, 9usize), (12, 11), (14, 13)] {
        let fx = fixture(n, m);
        g.bench_with_input(BenchmarkId::new("incremental", n), &fx, |b, fx| {
            let mut i = 0usize;
            b.iter(|| {
                let v = fx.victims[i % fx.victims.len()];
                i += 1;
                let mut cfg = fx.cfg.clone();
                cfg.node_faults_mut().insert(v);
                let mut map = fx.map.clone();
                black_box(map.apply_fault(&cfg, v))
            })
        });
        g.bench_with_input(BenchmarkId::new("scratch", n), &fx, |b, fx| {
            let mut i = 0usize;
            b.iter(|| {
                let v = fx.victims[i % fx.victims.len()];
                i += 1;
                let mut cfg = fx.cfg.clone();
                cfg.node_faults_mut().insert(v);
                black_box(SafetyMap::compute(&cfg))
            })
        });
    }
    g.finish();
}

fn bench_route_many(c: &mut Criterion) {
    let n = 12u8;
    let fx = fixture(n, 11);
    let mut rng = Sweep::new(1, 0xBA7C).trial_rng(0);
    let pairs: Vec<(NodeId, NodeId)> = (0..1_000_000)
        .map(|_| random_pair(&fx.cfg, &mut rng))
        .collect();
    let mut g = c.benchmark_group("churn_route_many_1m");
    g.sample_size(10);
    g.bench_function(format!("par_t{}", rayon::num_threads()), |b| {
        b.iter(|| black_box(route_many(&fx.cfg, &fx.map, &pairs).len()))
    });
    g.bench_function("seq", |b| {
        b.iter(|| black_box(route_many_seq(&fx.cfg, &fx.map, &pairs).len()))
    });
    g.finish();
}

criterion_group!(benches, bench_single_fault_update, bench_route_many);
criterion_main!(benches);
