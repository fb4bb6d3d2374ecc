//! Bench target for E2 (Fig. 2): cost of the GS safety-level
//! computation as cube size and fault density grow — both the
//! centralized fixed point and the message-accurate synchronous
//! protocol.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypersafe_core::{run_gs, SafetyMap};
use hypersafe_topology::{FaultConfig, Hypercube, Topology};
use hypersafe_workloads::{uniform_faults, Sweep};
use std::hint::black_box;

fn instances(n: u8, m: usize, count: u32) -> Vec<FaultConfig> {
    let cube = Hypercube::new(n);
    Sweep::new(count, 0xBE_ACE)
        .run_seq(|_, rng| FaultConfig::with_node_faults(cube, uniform_faults(cube, m, rng)))
}

/// Deterministic link-fault injection: `count` links spread over the
/// cube by a fixed stride, so before/after comparisons see identical
/// instances.
fn with_link_faults(mut cfg: FaultConfig, count: usize) -> FaultConfig {
    let cube = cfg.cube();
    let nodes = cube.num_nodes();
    let n = cube.dim() as u64;
    let mut inserted = 0usize;
    let mut k = 0u64;
    while inserted < count {
        let a = hypersafe_topology::NodeId::new((k.wrapping_mul(0x9E37_79B9)) % nodes);
        let b = a.neighbor((k % n) as u8);
        if cfg.link_faults_mut().insert(a, b) {
            inserted += 1;
        }
        k += 1;
    }
    cfg
}

fn bench_centralized(c: &mut Criterion) {
    let mut g = c.benchmark_group("gs_centralized");
    for n in [7u8, 10] {
        for m in [0usize, n as usize - 1, 4 * n as usize] {
            let cfgs = instances(n, m, 8);
            g.bench_with_input(BenchmarkId::new(format!("n{n}"), m), &cfgs, |b, cfgs| {
                let mut i = 0usize;
                b.iter(|| {
                    let cfg = &cfgs[i % cfgs.len()];
                    i += 1;
                    black_box(SafetyMap::compute(cfg))
                })
            });
        }
    }
    g.finish();
}

fn bench_protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("gs_protocol");
    g.sample_size(20);
    for m in [0usize, 6, 28] {
        let cfgs = instances(7, m, 4);
        g.bench_with_input(BenchmarkId::new("n7", m), &cfgs, |b, cfgs| {
            let mut i = 0usize;
            b.iter(|| {
                let cfg = &cfgs[i % cfgs.len()];
                i += 1;
                black_box(run_gs(cfg).map.rounds())
            })
        });
    }
    g.finish();
}

/// The `n = 14` scaling target: the synchronous protocol's inner loop
/// (one link-fault membership probe per node-dimension per round) and
/// the centralized fixed point, with and without link faults present.
fn bench_large(c: &mut Criterion) {
    let mut g = c.benchmark_group("gs_large");
    g.sample_size(10);
    let n = 14u8;
    for m in [0usize, 13, 56] {
        let cfgs = instances(n, m, 2);
        g.bench_with_input(BenchmarkId::new("protocol_n14", m), &cfgs, |b, cfgs| {
            let mut i = 0usize;
            b.iter(|| {
                let cfg = &cfgs[i % cfgs.len()];
                i += 1;
                black_box(run_gs(cfg).map.rounds())
            })
        });
    }
    {
        let base = instances(n, 13, 1).pop().expect("one instance");
        let cfg = with_link_faults(base, 64);
        g.bench_with_input(
            BenchmarkId::new("protocol_n14_links", 64),
            &cfg,
            |b, cfg| b.iter(|| black_box(run_gs(cfg).map.rounds())),
        );
    }
    {
        let cfgs = instances(n, 13, 2);
        g.bench_with_input(BenchmarkId::new("centralized_n14", 13), &cfgs, |b, cfgs| {
            let mut i = 0usize;
            b.iter(|| {
                let cfg = &cfgs[i % cfgs.len()];
                i += 1;
                black_box(SafetyMap::compute(cfg))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_centralized, bench_protocol, bench_large);
criterion_main!(benches);
