//! Unicast over a lossy channel: the paper's reliable-link assumption
//! relaxed. Every link drops 5% of its messages (plus jitter and the
//! occasional duplicate); the ACK/retransmit layer in
//! `hypersafe-simkit` restores exactly-once in-order delivery, and the
//! paper's routing walks the same path it would on clean links.
//!
//! ```text
//! cargo run --example lossy_unicast
//! ```

use hypersafe::safety::{route, run_gs_reliable, run_unicast_lossy, LossyOutcome, SafetyMap};
use hypersafe::simkit::{ChannelModel, ReliableConfig, RunOptions};
use hypersafe::topology::{FaultConfig, FaultSet, Hypercube, NodeId};

fn main() {
    // The paper's Fig. 1 instance again: 4-cube, four faulty nodes.
    let cube = Hypercube::new(4);
    let faults = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
    let cfg = FaultConfig::with_node_faults(cube, faults);

    // A channel that loses 5% of messages, delays by up to 2 extra
    // ticks, and duplicates 1% — seeded, so every run is identical.
    let channel = ChannelModel::lossy(42, 0.05)
        .with_jitter(2)
        .with_duplication(0.01);
    let lossy = |channel| RunOptions {
        channel: Some(channel),
        max_events: 1_000_000,
        ..RunOptions::default()
    };

    // 1. Distributed GS over the lossy channel: the ACK/retransmit
    //    layer makes it converge to the same fixed point the
    //    centralized evaluator computes.
    let (gs, _) = run_gs_reliable(&cfg, ReliableConfig::default(), 1, lossy(channel.clone()));
    assert!(gs.quiescent);
    assert_eq!(gs.map.store(), SafetyMap::compute(&cfg).store());
    println!(
        "GS converged under 5% loss: {} messages delivered, {} lost in transit, \
         {} retransmitted, {} ACKs",
        gs.stats.delivered, gs.stats.lost, gs.stats.retransmitted, gs.stats.acked
    );

    // 2. The paper's first worked unicast, 1110 → 0001 (H = 4), driven
    //    over the same lossy channel.
    let s = NodeId::from_binary("1110").unwrap();
    let d = NodeId::from_binary("0001").unwrap();
    let rcfg = ReliableConfig::default();
    let (run, _) = run_unicast_lossy(&cfg, &gs.map, s, d, 1, rcfg, lossy(channel));
    match run.outcome {
        LossyOutcome::Delivered { retransmits, delay } => {
            let trail = run.trail.expect("delivered runs record the trail");
            let rendered: Vec<String> = trail.iter().map(|a| a.to_binary(4)).collect();
            println!("delivered via {}", rendered.join(" → "));
            println!("  {} retransmissions, virtual delay {}", retransmits, delay);
        }
        other => panic!("feasible unicast must survive 5% loss, got {other:?}"),
    }
    assert_eq!(run.duplicate_deliveries, 0, "actors never see duplicates");

    // The walk matches the lossless route hop for hop.
    let lossless = route(&cfg, &gs.map, s, d);
    println!(
        "same path as on clean links: {}",
        lossless.path.expect("feasible").render(4)
    );
}
