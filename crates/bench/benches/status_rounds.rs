//! Bench target for E10/E11: maintenance-cycle cost — one full GS
//! refresh after a fault event, under different cube sizes (the unit
//! of work every §2.2 strategy pays per refresh).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypersafe_core::{replay, run_gs_async, Strategy, Timeline, TimelineEvent};
use hypersafe_simkit::RunOptions;
use hypersafe_topology::{FaultConfig, Hypercube, NodeId};
use hypersafe_workloads::{uniform_faults, Sweep};
use std::hint::black_box;

fn bench_async_gs(c: &mut Criterion) {
    let mut g = c.benchmark_group("async_gs_refresh");
    g.sample_size(20);
    for n in [6u8, 8] {
        let cube = Hypercube::new(n);
        let cfgs: Vec<FaultConfig> = Sweep::new(4, 0x1DEA).run_seq(|_, rng| {
            FaultConfig::with_node_faults(cube, uniform_faults(cube, n as usize - 1, rng))
        });
        g.bench_with_input(BenchmarkId::new("n", n), &cfgs, |b, cfgs| {
            let mut i = 0usize;
            b.iter(|| {
                let cfg = &cfgs[i % cfgs.len()];
                i += 1;
                black_box(
                    run_gs_async(cfg, 1, RunOptions::default())
                        .0
                        .stats
                        .delivered,
                )
            })
        });
    }
    g.finish();
}

fn bench_strategy_replay(c: &mut Criterion) {
    // A fixed timeline replayed under each strategy.
    let cube = Hypercube::new(6);
    let mut t = Timeline::new();
    let mut rng = Sweep::new(1, 0xD0_0D).trial_rng(0);
    let faults = uniform_faults(cube, 5, &mut rng);
    let list: Vec<NodeId> = faults.iter().collect();
    let mut clock = 0;
    for (i, &f) in list.iter().enumerate() {
        clock += 10;
        t.push(clock, TimelineEvent::Fault(f));
        clock += 10;
        t.push(
            clock,
            TimelineEvent::Unicast(
                NodeId::new((i as u64 * 7 + 1) % 64),
                NodeId::new(63 - i as u64),
            ),
        );
    }
    let mut g = c.benchmark_group("maintenance_replay");
    g.sample_size(30);
    for (name, strat) in [
        ("demand", Strategy::DemandDriven),
        ("periodic", Strategy::Periodic { period: 15 }),
        ("state_change", Strategy::StateChangeDriven),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(replay(cube, &t, strat).gs_messages))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_async_gs, bench_strategy_replay);
criterion_main!(benches);
