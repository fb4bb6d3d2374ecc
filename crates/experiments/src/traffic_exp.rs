//! E17 — traffic concentration. The paper's introduction notes that
//! local-information schemes cannot do "global optimization, such as
//! time and traffic in routing"; safety levels are *limited global*
//! information, so how evenly do they spread load? This experiment
//! routes an all-to-all-ish workload over one faulty instance, counts
//! per-link usage, and compares algorithms and tie-break policies by
//! their maximum and dispersion of link load.

use crate::table::{f2, Report};
use hypersafe_baselines::{dfs_route, sidetrack_route};
use hypersafe_core::{route_tb, SafetyMap, TieBreak};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Topology};
use hypersafe_workloads::{random_pair, uniform_faults, Sweep};
use std::collections::HashMap;

/// Parameters for the traffic sweep.
#[derive(Clone, Copy, Debug)]
pub struct TrafficParams {
    /// Cube dimension.
    pub n: u8,
    /// Fault count per instance.
    pub faults: usize,
    /// Unicast pairs routed per instance.
    pub pairs: u32,
    /// Instances averaged.
    pub trials: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for TrafficParams {
    fn default() -> Self {
        TrafficParams {
            n: 7,
            faults: 5,
            pairs: 2000,
            trials: 20,
            seed: 0x7AFF,
        }
    }
}

/// Link-load statistics for one routed workload.
#[derive(Clone, Copy, Debug, Default)]
struct Load {
    max: u64,
    mean: f64,
    /// Coefficient of variation (stddev / mean) over used links.
    cv: f64,
    delivered: u64,
}

fn load_stats(counts: &HashMap<(NodeId, NodeId), u64>, delivered: u64) -> Load {
    if counts.is_empty() {
        return Load::default();
    }
    let values: Vec<f64> = counts.values().map(|&v| v as f64).collect();
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    Load {
        max: counts.values().copied().max().unwrap_or(0),
        mean,
        cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        delivered,
    }
}

fn record(counts: &mut HashMap<(NodeId, NodeId), u64>, nodes: &[NodeId]) {
    for w in nodes.windows(2) {
        let key = if w[0] <= w[1] {
            (w[0], w[1])
        } else {
            (w[1], w[0])
        };
        *counts.entry(key).or_insert(0) += 1;
    }
}

/// Runs the sweep.
pub fn run(p: &TrafficParams) -> Report {
    let cube = Hypercube::new(p.n);
    let mut rep = Report::new(
        "traffic",
        format!(
            "link-load balance, {}-cube, {} faults, {} pairs × {} instances",
            p.n, p.faults, p.pairs, p.trials
        ),
        &[
            "router",
            "max_link_load",
            "mean_link_load",
            "load_cv",
            "delivered",
        ],
    );

    let routers: Vec<(&str, TieBreak)> = vec![
        ("sl/lowest-dim", TieBreak::LowestDim),
        ("sl/highest-dim", TieBreak::HighestDim),
        ("sl/hashed", TieBreak::Hashed { salt: 0 }),
    ];

    for (name, tb) in routers {
        let sweep = Sweep::new(p.trials, p.seed);
        let loads: Vec<Load> = sweep.run(|_, rng| {
            let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, p.faults, rng));
            let map = SafetyMap::compute(&cfg);
            let mut counts = HashMap::new();
            let mut delivered = 0u64;
            for k in 0..p.pairs {
                let (s, d) = random_pair(&cfg, rng);
                let tb = match tb {
                    TieBreak::Hashed { .. } => TieBreak::Hashed { salt: k as u64 },
                    other => other,
                };
                let res = route_tb(&cfg, &map, s, d, tb);
                if res.delivered {
                    delivered += 1;
                    record(&mut counts, res.path.as_ref().expect("delivered").nodes());
                }
            }
            load_stats(&counts, delivered)
        });
        push_row(&mut rep, name, &loads);
    }

    // Baselines for context.
    for name in ["dfs", "sidetrack"] {
        let sweep = Sweep::new(p.trials, p.seed);
        let loads: Vec<Load> = sweep.run(|_, rng| {
            let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, p.faults, rng));
            let mut counts = HashMap::new();
            let mut delivered = 0u64;
            for _ in 0..p.pairs {
                let (s, d) = random_pair(&cfg, rng);
                match name {
                    "dfs" => {
                        let r = dfs_route(&cfg, s, d).expect("healthy");
                        if r.delivered {
                            delivered += 1;
                            record(&mut counts, &r.walk);
                        }
                    }
                    _ => {
                        let ttl = 8 * cube.dim() as u32;
                        let (path, ok) = sidetrack_route(&cfg, s, d, ttl, rng).expect("healthy");
                        if ok {
                            delivered += 1;
                            record(&mut counts, path.nodes());
                        }
                    }
                }
            }
            load_stats(&counts, delivered)
        });
        push_row(&mut rep, name, &loads);
    }

    rep.note(
        "load_cv: coefficient of variation of per-link message counts (lower = more even)"
            .to_string(),
    );
    rep.note(
        "hashed tie-breaking spreads equally-guaranteed routes without any extra state".to_string(),
    );
    rep
}

fn push_row(rep: &mut Report, name: &str, loads: &[Load]) {
    let t = loads.len() as f64;
    let max = loads.iter().map(|l| l.max as f64).sum::<f64>() / t;
    let mean = loads.iter().map(|l| l.mean).sum::<f64>() / t;
    let cv = loads.iter().map(|l| l.cv).sum::<f64>() / t;
    let delivered = loads.iter().map(|l| l.delivered).sum::<u64>();
    rep.row(vec![
        name.to_string(),
        f2(max),
        f2(mean),
        f2(cv),
        delivered.to_string(),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashed_tiebreak_spreads_load() {
        let p = TrafficParams {
            n: 6,
            faults: 3,
            pairs: 600,
            trials: 12,
            seed: 12,
        };
        let rep = run(&p);
        let get = |name: &str, col: usize| -> f64 {
            rep.rows.iter().find(|r| r[0] == name).unwrap()[col]
                .parse()
                .unwrap()
        };
        // Deterministic lowest-dim concentrates more than hashed.
        assert!(
            get("sl/hashed", 1) <= get("sl/lowest-dim", 1) + 1.0,
            "hashed max load should not exceed deterministic by much"
        );
        assert!(
            get("sl/hashed", 3) <= get("sl/lowest-dim", 3),
            "cv strictly improves"
        );
    }

    #[test]
    fn all_rows_present() {
        let p = TrafficParams {
            n: 5,
            faults: 2,
            pairs: 200,
            trials: 4,
            seed: 13,
        };
        let rep = run(&p);
        assert_eq!(rep.rows.len(), 5);
    }
}
