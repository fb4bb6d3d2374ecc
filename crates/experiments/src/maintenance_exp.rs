//! E10 — maintenance-strategy ablation (paper §2.2): demand-driven vs
//! periodic vs state-change-driven safety-level upkeep under a random
//! fault/recovery/unicast timeline.

use crate::table::{pct, Report};
use hypersafe_core::{replay, Strategy, Timeline, TimelineEvent};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Topology};
use hypersafe_workloads::{random_pair, Sweep};
use rand::Rng;

/// Parameters for the maintenance ablation.
#[derive(Clone, Copy, Debug)]
pub struct MaintenanceParams {
    /// Cube dimension.
    pub n: u8,
    /// Timeline length in events.
    pub events: u32,
    /// Probability (in percent) that an event is a fault/recovery
    /// rather than a unicast.
    pub churn_pct: u32,
    /// Periodic strategy's refresh interval.
    pub period: u64,
    /// Timelines per strategy.
    pub trials: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for MaintenanceParams {
    fn default() -> Self {
        MaintenanceParams {
            n: 7,
            events: 200,
            churn_pct: 15,
            period: 50,
            trials: 50,
            seed: 0xAB1E,
        }
    }
}

/// Generates a random, replayable timeline: faults arrive and recover
/// (never exceeding `n − 1` live faults, the guarantee regime) with
/// unicasts interleaved.
pub fn random_timeline<R: Rng + ?Sized>(p: &MaintenanceParams, rng: &mut R) -> Timeline {
    let cube = Hypercube::new(p.n);
    let mut cfg = FaultConfig::fault_free(cube);
    let mut t = Timeline::new();
    let mut clock = 0u64;
    for _ in 0..p.events {
        clock += rng.gen_range(1..10);
        let churn = rng.gen_range(0..100) < p.churn_pct;
        if churn {
            let live = cfg.node_faults().len();
            let recover = live > 0 && (live >= (p.n - 1) as usize || rng.gen_bool(0.4));
            if recover {
                let victims: Vec<NodeId> = cfg.node_faults().iter().collect();
                let v = victims[rng.gen_range(0..victims.len())];
                cfg.node_faults_mut().remove(v);
                t.push(clock, TimelineEvent::Recover(v));
            } else {
                // Fault a currently-healthy node.
                let v = loop {
                    let v = NodeId::new(rng.gen_range(0..cube.num_nodes()));
                    if !cfg.node_faulty(v) {
                        break v;
                    }
                };
                cfg.node_faults_mut().insert(v);
                t.push(clock, TimelineEvent::Fault(v));
            }
        } else if cfg.healthy_count() >= 2 {
            let (s, d) = random_pair(&cfg, rng);
            t.push(clock, TimelineEvent::Unicast(s, d));
        }
    }
    t
}

/// Runs the ablation.
pub fn run(p: &MaintenanceParams) -> Report {
    let cube = Hypercube::new(p.n);
    let mut rep = Report::new(
        "maintenance",
        format!(
            "maintenance strategies, {}-cube, {} events × {} timelines (churn {}%)",
            p.n, p.events, p.trials, p.churn_pct
        ),
        &[
            "strategy",
            "gs_runs",
            "gs_messages",
            "cells_touched",
            "stale_unicasts",
            "delivery",
        ],
    );
    let strategies = [
        ("demand-driven", Strategy::DemandDriven),
        ("periodic", Strategy::Periodic { period: p.period }),
        ("state-change", Strategy::StateChangeDriven),
        ("incremental", Strategy::Incremental),
    ];
    for (name, strat) in strategies {
        let sweep = Sweep::new(p.trials, p.seed);
        let reports: Vec<_> = sweep.run(|_, rng| {
            let t = random_timeline(p, rng);
            replay(cube, &t, strat)
        });
        let sum = |f: fn(&hypersafe_core::MaintenanceReport) -> u64| -> u64 {
            reports.iter().map(f).sum()
        };
        let unicasts = sum(|r| r.unicasts);
        rep.row(vec![
            name.into(),
            (sum(|r| r.gs_runs) / p.trials as u64).to_string(),
            (sum(|r| r.gs_messages) / p.trials as u64).to_string(),
            (sum(|r| r.cells_touched) / p.trials as u64).to_string(),
            pct(sum(|r| r.stale_unicasts), unicasts),
            pct(sum(|r| r.delivered), unicasts),
        ]);
    }
    rep.note("demand-driven and state-change-driven never route on stale levels".to_string());
    rep.note(format!(
        "periodic (T = {}) trades staleness for a fixed exchange budget — the paper's \
         'exchanges are wasted when status is stable' critique in numbers",
        p.period
    ));
    rep.note(
        "incremental is always-fresh like state-change but each event runs delta-GS: \
         only the affected region re-broadcasts (gs_messages) and only touched cells \
         re-evaluate (cells_touched)"
            .to_string(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MaintenanceParams {
        MaintenanceParams {
            n: 5,
            events: 60,
            churn_pct: 20,
            period: 30,
            trials: 10,
            seed: 4,
        }
    }

    #[test]
    fn timelines_are_deterministic_per_seed() {
        let p = small();
        let sweep = Sweep::new(2, 7);
        let mut rng_a = sweep.trial_rng(0);
        let mut rng_b = sweep.trial_rng(0);
        assert_eq!(
            random_timeline(&p, &mut rng_a).events(),
            random_timeline(&p, &mut rng_b).events()
        );
    }

    #[test]
    fn lazy_strategies_never_stale_and_always_deliver() {
        let rep = run(&small());
        let row = |name: &str| rep.rows.iter().find(|r| r[0] == name).unwrap().clone();
        assert_eq!(row("demand-driven")[4], "0.0%");
        assert_eq!(row("state-change")[4], "0.0%");
        assert_eq!(row("incremental")[4], "0.0%");
        // In the < n faults regime with fresh maps, delivery is total.
        assert_eq!(row("demand-driven")[5], "100.0%");
        assert_eq!(row("state-change")[5], "100.0%");
        assert_eq!(row("incremental")[5], "100.0%");
    }

    #[test]
    fn incremental_bills_fewer_messages_than_state_change() {
        let rep = run(&small());
        let col = |name: &str, i: usize| -> u64 {
            rep.rows.iter().find(|r| r[0] == name).unwrap()[i]
                .parse()
                .unwrap()
        };
        assert_eq!(col("incremental", 1), col("state-change", 1));
        assert!(col("incremental", 2) < col("state-change", 2));
        assert!(col("incremental", 3) > 0, "cells_touched is reported");
        assert_eq!(col("state-change", 3), 0);
    }

    #[test]
    fn state_change_runs_gs_most() {
        let rep = run(&small());
        let runs = |name: &str| -> u64 {
            rep.rows.iter().find(|r| r[0] == name).unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(runs("state-change") >= runs("demand-driven"));
    }
}
