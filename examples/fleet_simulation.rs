//! A longer-running scenario: a 7-cube "fleet" under continuous fault
//! churn, comparing the three §2.2 maintenance strategies and routing
//! live traffic over the discrete-event engine.
//!
//! ```text
//! cargo run --release --example fleet_simulation [seed]
//! ```

use hypersafe::safety::unicast_distributed::run_unicast;
use hypersafe::safety::{replay, run_gs, SafetyMap, Strategy};
use hypersafe::simkit::RunOptions;
use hypersafe::topology::{FaultConfig, Hypercube};
use hypersafe::workloads::{random_pair, uniform_faults, Sweep};
use hypersafe_experiments::maintenance_exp::{random_timeline, MaintenanceParams};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2026);
    let cube = Hypercube::new(7);

    // Phase 1: a static snapshot — inject faults, converge GS, then
    // push real unicast traffic through the event engine.
    println!("phase 1: static snapshot (7-cube, 6 faults, 200 unicasts)");
    let sweep = Sweep::new(1, seed);
    let mut rng = sweep.trial_rng(0);
    let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, 6, &mut rng));
    let gs = run_gs(cfg.cube(), &cfg);
    println!(
        "  GS converged in {} rounds, {} messages",
        gs.map.rounds(),
        gs.stats.messages
    );
    let map = SafetyMap::compute(&cfg);
    let mut delivered = 0u32;
    let mut total_hops = 0u64;
    let mut messages = 0u64;
    for _ in 0..200 {
        let (s, d) = random_pair(&cfg, &mut rng);
        let (run, _) = run_unicast(&cfg, &map, s, d, 1, RunOptions::default());
        if let Some(trail) = &run.trail {
            delivered += 1;
            total_hops += (trail.len() - 1) as u64;
        }
        messages += run.messages;
    }
    println!(
        "  delivered {delivered}/200 unicasts · {total_hops} hops · {messages} network messages"
    );

    // Phase 2: fault churn — replay one random timeline under each
    // maintenance strategy.
    println!("\nphase 2: fault churn (400 events, 20% churn)");
    let params = MaintenanceParams {
        n: 7,
        events: 400,
        churn_pct: 20,
        period: 40,
        trials: 1,
        seed,
    };
    let mut rng = Sweep::new(1, seed ^ 0xC0FFEE).trial_rng(0);
    let timeline = random_timeline(&params, &mut rng);
    println!(
        "  timeline: {} events over {} ticks",
        timeline.events().len(),
        timeline.duration()
    );
    for (name, strat) in [
        ("demand-driven ", Strategy::DemandDriven),
        ("periodic T=40 ", Strategy::Periodic { period: 40 }),
        ("state-change  ", Strategy::StateChangeDriven),
    ] {
        let r = replay(cube, &timeline, strat);
        println!(
            "  {name}: {:>3} GS runs · {:>8} GS messages · {:>3} stale unicasts · {}/{} delivered",
            r.gs_runs, r.gs_messages, r.stale_unicasts, r.delivered, r.unicasts
        );
    }
}
