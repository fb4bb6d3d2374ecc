//! Bench target for the reliability layer (E22): what the ACK/
//! retransmit machinery costs on the hot path. Distributed GS over a
//! raw channel versus the reliable layer on a clean channel (pure
//! protocol overhead) versus the reliable layer under 5% and 20% loss
//! (retransmission cost), plus the channel fate draw in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypersafe_core::{run_gs_async, run_gs_reliable};
use hypersafe_simkit::{ChannelModel, ReliableConfig, RunOptions};
use hypersafe_topology::{FaultConfig, Hypercube};
use hypersafe_workloads::{uniform_faults, Sweep};
use std::hint::black_box;

fn bench_gs_transport(c: &mut Criterion) {
    let cube = Hypercube::new(7);
    let mut rng = Sweep::new(1, 0x5E11).trial_rng(0);
    let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, 6, &mut rng));

    let mut g = c.benchmark_group("gs_transport");
    g.bench_function("raw_channel", |b| {
        b.iter(|| {
            black_box(
                run_gs_async(&cfg, 1, RunOptions::default())
                    .0
                    .stats
                    .delivered,
            )
        })
    });
    for loss in [0.0, 0.05, 0.2] {
        g.bench_with_input(
            BenchmarkId::new("reliable", format!("loss_{loss}")),
            &loss,
            |b, &loss| {
                b.iter(|| {
                    let opts = RunOptions {
                        channel: Some(ChannelModel::lossy(0xC4A1, loss)),
                        ..RunOptions::default()
                    };
                    let (run, _) = run_gs_reliable(&cfg, ReliableConfig::default(), 1, opts);
                    black_box(run.stats.delivered)
                })
            },
        );
    }
    g.finish();
}

fn bench_channel_fate(c: &mut Criterion) {
    // The per-message cost the channel adds to every enqueue.
    let mut ch = ChannelModel::lossy(0xFA7E, 0.05)
        .with_jitter(3)
        .with_duplication(0.01);
    c.bench_function("channel_fate_draw", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(ch.fate(i, i ^ 1))
        })
    });
}

criterion_group!(benches, bench_gs_transport, bench_channel_fate);
criterion_main!(benches);
