//! Bench target for the observability layer (E25): what the metrics
//! hooks cost. The headline pair is the same reliable-GS run with the
//! registry absent vs installed — the absent side is the configuration
//! every existing experiment runs in, and the acceptance bar is that
//! it stays within noise of the pre-hook engine (`gs_rounds` tracks
//! the absolute engine numbers; `results/obs_overhead.md` records the
//! comparison). The smaller groups isolate the per-event primitives:
//! histogram recording, the flight-recorder ring, and snapshot
//! serialization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypersafe_core::run_gs_reliable;
use hypersafe_simkit::{
    ChannelModel, FlightRecorder, Metrics, ReliableConfig, RunOptions, Severity, TraceEvent,
    TraceSink,
};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId};
use hypersafe_workloads::{uniform_faults, Sweep, STANDARD_PROFILES};
use std::hint::black_box;

fn instances(n: u8, m: usize, count: u32) -> Vec<FaultConfig> {
    let cube = Hypercube::new(n);
    Sweep::new(count, 0xB5BE)
        .run_seq(|_, rng| FaultConfig::with_node_faults(cube, uniform_faults(cube, m, rng)))
}

/// The headline comparison: identical reliable-GS executions (same
/// instances, same channel seeds — the hooks never perturb the event
/// stream) with metrics off and on.
fn bench_observed_vs_not(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_engine");
    g.sample_size(20);
    let prof = STANDARD_PROFILES
        .iter()
        .find(|p| p.name == "moderate")
        .expect("standard profile");
    let rcfg = ReliableConfig::default();
    let opts = |channel: ChannelModel, observe| RunOptions {
        channel: Some(channel),
        max_events: 2_000_000,
        observe,
        ..RunOptions::default()
    };
    for n in [6u8, 8] {
        let cfgs = instances(n, n as usize - 2, 4);
        g.bench_with_input(BenchmarkId::new("unobserved", n), &cfgs, |b, cfgs| {
            let mut i = 0usize;
            b.iter(|| {
                let cfg = &cfgs[i % cfgs.len()];
                i += 1;
                black_box(run_gs_reliable(
                    cfg,
                    rcfg,
                    1,
                    opts(prof.channel(i as u64), false),
                ))
            })
        });
        g.bench_with_input(BenchmarkId::new("observed", n), &cfgs, |b, cfgs| {
            let mut i = 0usize;
            b.iter(|| {
                let cfg = &cfgs[i % cfgs.len()];
                i += 1;
                black_box(run_gs_reliable(
                    cfg,
                    rcfg,
                    1,
                    opts(prof.channel(i as u64), true),
                ))
            })
        });
    }
    g.finish();
}

/// The per-observation primitives the hooks bottom out in.
fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_primitives");
    g.bench_function("hist_record", |b| {
        let mut m = Metrics::new(1, 1);
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.record_hops(black_box(v >> 48));
        });
        black_box(m);
    });
    g.bench_function("flight_recorder_push", |b| {
        // A full ring, so every push pays the eviction too (the
        // steady state of a long run).
        let mut fr = FlightRecorder::new(256).with_min_severity(Severity::Debug);
        let ev = TraceEvent::Hop {
            from: NodeId::new(3),
            to: NodeId::new(7),
            dim: Some(2),
            word: 0b101,
        };
        b.iter(|| fr.record(black_box(ev.clone())));
        black_box(fr.seen());
    });
    g.bench_function("flight_recorder_filtered_out", |b| {
        // The rejection path: hop-severity events against a Warn bar
        // never touch the ring.
        let mut fr = FlightRecorder::new(256).with_min_severity(Severity::Warn);
        let ev = TraceEvent::Hop {
            from: NodeId::new(3),
            to: NodeId::new(7),
            dim: Some(2),
            word: 0b101,
        };
        b.iter(|| fr.record(black_box(ev.clone())));
        black_box(fr.seen());
    });
    g.finish();
}

/// Snapshot + serialization of a populated registry (the export path
/// `repro obs` and the per-experiment `*_obs.json` writers share).
fn bench_export(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_export");
    let prof = STANDARD_PROFILES
        .iter()
        .find(|p| p.name == "moderate")
        .expect("standard profile");
    let cfgs = instances(8, 6, 1);
    let opts = RunOptions {
        channel: Some(prof.channel(1)),
        max_events: 2_000_000,
        observe: true,
        ..RunOptions::default()
    };
    let (_, report) = run_gs_reliable(&cfgs[0], ReliableConfig::default(), 1, opts);
    let m = report.metrics.expect("observed");
    g.bench_function("snapshot", |b| b.iter(|| black_box(m.snapshot())));
    let snap = m.snapshot();
    g.bench_function("to_json", |b| b.iter(|| black_box(snap.to_json())));
    g.bench_function("to_csv", |b| b.iter(|| black_box(snap.to_csv())));
    g.finish();
}

criterion_group!(
    benches,
    bench_observed_vs_not,
    bench_primitives,
    bench_export
);
criterion_main!(benches);
