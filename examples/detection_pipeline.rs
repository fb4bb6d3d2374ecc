//! The full stack the paper assumes, end to end: heartbeat fault
//! detection (assumption 2, built not assumed) → distributed GS →
//! unicast + broadcast, all as message-passing protocols with costs
//! accounted.
//!
//! ```text
//! cargo run --example detection_pipeline [seed]
//! ```

use hypersafe::safety::broadcast_distributed::run_broadcast;
use hypersafe::safety::unicast_distributed::run_unicast;
use hypersafe::safety::{detect, run_gs, DetectorParams, SafetyMap};
use hypersafe::simkit::RunOptions;
use hypersafe::topology::{FaultConfig, Hypercube, NodeId};
use hypersafe::workloads::{random_pair, uniform_faults, Sweep};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    let cube = Hypercube::new(6);
    let mut rng = Sweep::new(1, seed).trial_rng(0);
    let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, 5, &mut rng));
    println!(
        "6-cube, faults: {:?}",
        cfg.node_faults()
            .iter()
            .map(|a| a.to_binary(6))
            .collect::<Vec<_>>()
    );

    // Stage 1 — detection: every node learns its neighbors' status by
    // heartbeats alone.
    let det = detect(&cfg, DetectorParams::default());
    let (fneg, fpos) = det.accuracy(&cfg);
    println!(
        "\nstage 1 · heartbeat detection: {} messages over {} ticks, \
         false negatives {fneg}, false positives {fpos}",
        det.messages, det.duration
    );

    // Stage 2 — GLOBAL_STATUS: levels converge by neighbor exchange.
    let gs = run_gs(&cfg);
    println!(
        "stage 2 · GS: {} active rounds, {} messages; safe nodes: {}",
        gs.map.rounds(),
        gs.stats.messages,
        gs.map.safe_count()
    );

    // Stage 3 — traffic: distributed unicasts and one broadcast.
    let map = SafetyMap::compute(&cfg);
    let mut delivered = 0;
    let mut msgs = 0;
    for _ in 0..50 {
        let (s, d) = random_pair(&cfg, &mut rng);
        let (run, _) = run_unicast(&cfg, &map, s, d, 1, RunOptions::default());
        delivered += run.trail.is_some() as u32;
        msgs += run.messages;
    }
    println!("stage 3 · unicast: {delivered}/50 delivered, {msgs} messages");

    let src = cfg
        .healthy_nodes()
        .find(|&a| map.is_safe(a))
        .unwrap_or(NodeId::ZERO);
    let b = run_broadcast(&cfg, &map, src, 1, RunOptions::default()).0;
    println!(
        "stage 3 · broadcast from safe {}: coverage {}/{} in {} steps, {} messages",
        src.to_binary(6),
        b.coverage(),
        cfg.healthy_count(),
        b.steps,
        b.messages
    );
}
