//! Cross-validation between the centralized algorithm evaluations and
//! their message-passing executions on the simulator — evidence that
//! the fast Monte-Carlo paths measure the real protocol.

use hypersafe::safety::unicast_distributed::run_unicast;
use hypersafe::safety::{route, run_gs, run_gs_async, SafetyMap};
use hypersafe::simkit::RunOptions;
use hypersafe::topology::{FaultConfig, Hypercube};
use hypersafe::workloads::{random_pair, uniform_faults, Sweep};

#[test]
fn gs_three_ways_on_random_6_cubes() {
    let cube = Hypercube::new(6);
    let sweep = Sweep::new(40, 0xDEC0DE);
    let mismatches: u32 = sweep
        .run(|i, rng| {
            let m = (i % 16) as usize;
            let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, m, rng));
            let central = SafetyMap::compute(&cfg);
            let sync = run_gs(cfg.cube(), &cfg);
            let (run, _) = run_gs_async(&cfg, 1 + (i as u64 % 5), RunOptions::default());
            let async_map = run.map;
            (central.store() != sync.map.store() || central.store() != async_map.store()) as u32
        })
        .iter()
        .sum();
    assert_eq!(mismatches, 0);
}

#[test]
fn distributed_unicast_matches_centralized_on_random_instances() {
    let cube = Hypercube::new(6);
    let sweep = Sweep::new(30, 0xFACADE);
    let mismatches: u32 = sweep
        .run(|i, rng| {
            let m = (i % 10) as usize;
            let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, m, rng));
            let map = SafetyMap::compute(&cfg);
            let mut bad = 0u32;
            for _ in 0..10 {
                let (s, d) = random_pair(&cfg, rng);
                let central = route(&cfg, &map, s, d);
                let (dist, _) = run_unicast(&cfg, &map, s, d, 1, RunOptions::default());
                match (central.delivered, &dist.trail) {
                    (true, Some(trail)) => {
                        if central.path.as_ref().unwrap().nodes() != trail.as_slice() {
                            bad += 1;
                        }
                    }
                    (false, None) => {}
                    _ => bad += 1,
                }
            }
            bad
        })
        .iter()
        .sum();
    assert_eq!(mismatches, 0, "hop-for-hop agreement required");
}

#[test]
fn message_cost_scales_with_hops_only() {
    // The unicast protocol sends exactly one message per hop — no
    // flooding, no acknowledgements. Checked across random pairs.
    let cube = Hypercube::new(7);
    let sweep = Sweep::new(10, 0xBEEF);
    let violations: u32 = sweep
        .run(|_, rng| {
            let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, 5, rng));
            let map = SafetyMap::compute(&cfg);
            let mut bad = 0u32;
            for _ in 0..10 {
                let (s, d) = random_pair(&cfg, rng);
                let (run, _) = run_unicast(&cfg, &map, s, d, 1, RunOptions::default());
                if let Some(trail) = &run.trail {
                    if run.messages != (trail.len() - 1) as u64 {
                        bad += 1;
                    }
                }
            }
            bad
        })
        .iter()
        .sum();
    assert_eq!(violations, 0);
}
