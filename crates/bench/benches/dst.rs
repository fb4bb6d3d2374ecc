//! Bench targets for the deterministic simulation-testing subsystem:
//! what the adversarial scheduler, the quiescent-point invariant
//! checks, and the ddmin shrinker cost on top of a plain engine run.
//! Run with `BENCH_JSON=results/BENCH_dst.json` to record the summary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypersafe_core::run_gs_async;
use hypersafe_simkit::{
    shrink_injections, AdversarialScheduler, FifoScheduler, RunOptions, Scheduler,
};
use hypersafe_topology::{FaultConfig, Hypercube};
use hypersafe_workloads::{uniform_faults, Sweep};
use std::hint::black_box;

fn instances(n: u8, m: usize, count: u32) -> Vec<FaultConfig> {
    let cube = Hypercube::new(n);
    Sweep::new(count, 0xD57_BEAC)
        .run_seq(|_, rng| FaultConfig::with_node_faults(cube, uniform_faults(cube, m, rng)))
}

/// FIFO vs adversarial scheduling of the same asynchronous GS run:
/// the cost of the order-key permutation and latency stretch.
fn bench_scheduler_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("dst_sched");
    let cfgs = instances(7, 6, 4);
    for kind in ["fifo", "adversarial"] {
        g.bench_with_input(BenchmarkId::new(kind, 7), &cfgs, |b, cfgs| {
            let mut i = 0usize;
            b.iter(|| {
                let cfg = &cfgs[i % cfgs.len()];
                i += 1;
                let sched: Box<dyn Scheduler> = match kind {
                    "fifo" => Box::new(FifoScheduler),
                    _ => Box::new(AdversarialScheduler::permute(i as u64).with_stretch(3)),
                };
                let opts = RunOptions {
                    sched,
                    ..RunOptions::default()
                };
                black_box(run_gs_async(cfg, 1, opts))
            })
        });
    }
    g.finish();
}

/// The same adversarial run with the invariant suite evaluated at
/// every quiescent point — the steady-state price of `repro dst`.
fn bench_invariant_checks(c: &mut Criterion) {
    let mut g = c.benchmark_group("dst_checked");
    for n in [5u8, 7] {
        let cfgs = instances(n, n as usize - 1, 4);
        g.bench_with_input(BenchmarkId::new("gs", n), &cfgs, |b, cfgs| {
            let mut i = 0usize;
            b.iter(|| {
                let cfg = &cfgs[i % cfgs.len()];
                i += 1;
                let opts = RunOptions {
                    sched: Box::new(AdversarialScheduler::permute(i as u64)),
                    check: true,
                    ..RunOptions::default()
                };
                let (run, report) = run_gs_async(cfg, 1, opts);
                assert!(report.violation.is_none(), "invariants hold");
                black_box(run)
            })
        });
    }
    g.finish();
}

/// ddmin itself, isolated from the engine: shrinking a 64-event list
/// whose failure needs one specific event (the common DST outcome).
fn bench_shrinker(c: &mut Criterion) {
    let mut g = c.benchmark_group("dst_shrink");
    let events: Vec<u32> = (0..64).collect();
    g.bench_with_input(BenchmarkId::new("ddmin", 64), &events, |b, events| {
        b.iter(|| black_box(shrink_injections(events, |s| s.contains(&23))))
    });
    g.finish();
}

criterion_group!(
    dst,
    bench_scheduler_overhead,
    bench_invariant_checks,
    bench_shrinker
);
criterion_main!(dst);
