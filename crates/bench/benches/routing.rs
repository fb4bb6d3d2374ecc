//! Bench target for E1/E4/E5: the unicasting hot path — source
//! decision, full centralized route, and the distributed protocol run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypersafe_core::unicast_distributed::run_unicast;
use hypersafe_core::{route, source_decision, SafetyMap};
use hypersafe_simkit::RunOptions;
use hypersafe_topology::{FaultConfig, Hypercube, NodeId};
use hypersafe_workloads::{random_pair, uniform_faults, Sweep};
use std::hint::black_box;

struct Fixture {
    cfg: FaultConfig,
    map: SafetyMap,
    pairs: Vec<(NodeId, NodeId)>,
}

fn fixture(n: u8, m: usize) -> Fixture {
    let cube = Hypercube::new(n);
    let mut rng = Sweep::new(1, 0xF1D0).trial_rng(0);
    let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, m, &mut rng));
    let map = SafetyMap::compute(&cfg);
    let pairs = (0..256).map(|_| random_pair(&cfg, &mut rng)).collect();
    Fixture { cfg, map, pairs }
}

fn bench_source_decision(c: &mut Criterion) {
    let fx = fixture(10, 9);
    c.bench_function("source_decision_n10", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (s, d) = fx.pairs[i % fx.pairs.len()];
            i += 1;
            black_box(source_decision(&fx.map, s, d))
        })
    });
}

fn bench_route(c: &mut Criterion) {
    let mut g = c.benchmark_group("route_centralized");
    for (n, m) in [(7u8, 6usize), (10, 9), (10, 40)] {
        let fx = fixture(n, m);
        g.bench_with_input(BenchmarkId::new(format!("n{n}"), m), &fx, |b, fx| {
            let mut i = 0usize;
            b.iter(|| {
                let (s, d) = fx.pairs[i % fx.pairs.len()];
                i += 1;
                black_box(route(&fx.cfg, &fx.map, s, d).delivered)
            })
        });
    }
    g.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let fx = fixture(7, 6);
    let mut g = c.benchmark_group("route_distributed");
    g.sample_size(20);
    g.bench_function("n7_event_engine", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (s, d) = fx.pairs[i % fx.pairs.len()];
            i += 1;
            black_box(
                run_unicast(&fx.cfg, &fx.map, s, d, 1, RunOptions::default())
                    .0
                    .messages,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_source_decision,
    bench_route,
    bench_distributed
);
criterion_main!(benches);
