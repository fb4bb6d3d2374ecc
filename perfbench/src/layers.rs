//! Direct replays for the traced run: layers timed by calling their
//! public functions in a loop, on inputs the workloads generated.

use crate::stats::{median, ns};
use hypersafe_core::{SafetyMap, SafetyService};
use hypersafe_simkit::service::Injection;
use hypersafe_topology::{FaultConfig, Hypercube};
use std::hint::black_box;
use std::time::Instant;

/// `core::safety_delta` over a churn sequence, from a fault-free cube:
/// per-event `apply_fault`/`apply_recover` time, mean cells touched,
/// and the final configuration and map.
pub struct DeltaReplay {
    /// Each event's apply time in ns.
    pub apply: Vec<u64>,
    pub cells_touched_per_event: f64,
    pub cfg: FaultConfig,
    pub map: SafetyMap,
}

/// Replays every churn event of each stream in order, each stream from
/// a fault-free cube, repeating the streams until at least
/// `min_samples` events were timed.
pub fn delta_replay(cube: Hypercube, streams: &[&[Injection]], min_samples: usize) -> DeltaReplay {
    let mut apply = Vec::new();
    let mut touched = 0u64;
    let mut cfg = FaultConfig::fault_free(cube);
    let mut map = SafetyMap::compute(&cfg);
    for injections in streams.iter().cycle() {
        cfg = FaultConfig::fault_free(cube);
        map = SafetyMap::compute(&cfg);
        for inj in *injections {
            let Injection::Churn { node, fault, .. } = *inj else {
                continue;
            };
            if fault {
                cfg.node_faults_mut().insert(node);
            } else {
                cfg.node_faults_mut().remove(node);
            }
            let t = Instant::now();
            let stats = if fault {
                map.apply_fault(&cfg, node)
            } else {
                map.apply_recover(&cfg, node)
            };
            apply.push(ns(t.elapsed()));
            touched += stats.cells_touched;
        }
        if apply.len() >= min_samples {
            break;
        }
    }
    let events = apply.len().max(1) as f64;
    DeltaReplay {
        apply,
        cells_touched_per_event: touched as f64 / events,
        cfg,
        map,
    }
}

/// Median of `reps` timed calls of `f`, in seconds.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// `EpochHandle::load` through `SafetyService::snapshot`, in ns per load:
/// the median over `batches` batches of 1000 loads.
pub fn epoch_load_ns(cube: Hypercube, batches: usize) -> f64 {
    let svc = SafetyService::new(FaultConfig::fault_free(cube));
    median_time(batches, || {
        for _ in 0..1000 {
            black_box(svc.snapshot());
        }
    }) * 1e9
        / 1000.0
}

/// The executor's fixed cost: one `for_each_chunk_pair` call over two
/// one-element chunks, in µs, median over `batches` batches of 100.
pub fn chunk_pair_call_us(batches: usize) -> f64 {
    let input = [1u64, 2];
    let mut output = [0u64; 2];
    median_time(batches, || {
        for _ in 0..100 {
            rayon::for_each_chunk_pair(&input, &mut output, 1, |i, o| o[0] = black_box(i[0]));
        }
    }) * 1e6
        / 100.0
}
