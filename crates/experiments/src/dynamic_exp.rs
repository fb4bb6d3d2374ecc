//! E13 — unicasting under mid-flight fault arrivals (§2.2's
//! demand-driven reroute, made quantitative): how often an in-flight
//! message survives `k` random fault arrivals, and what the
//! re-stabilizations cost.

use crate::table::{f2, pct, Report};
use hypersafe_core::{route_dynamic, DynamicOutcome, FaultEvent};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Topology};
use hypersafe_workloads::{mean, random_pair, uniform_faults, Sweep};
use rand::Rng;

/// Parameters for the dynamic-fault sweep.
#[derive(Clone, Copy, Debug)]
pub struct DynamicParams {
    /// Cube dimension.
    pub n: u8,
    /// Initial (static) fault count.
    pub initial_faults: usize,
    /// Largest number of mid-flight fault arrivals.
    pub max_arrivals: usize,
    /// Trials per arrival count.
    pub trials: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for DynamicParams {
    fn default() -> Self {
        DynamicParams {
            n: 7,
            initial_faults: 3,
            max_arrivals: 4,
            trials: 400,
            seed: 0xD14A,
        }
    }
}

/// Runs the sweep.
pub fn run(p: &DynamicParams) -> Report {
    let cube = Hypercube::new(p.n);
    let mut rep = Report::new(
        "dynamic",
        format!(
            "mid-flight fault arrivals, {}-cube with {} initial faults, {} trials/point",
            p.n, p.initial_faults, p.trials
        ),
        &[
            "arrivals",
            "delivered",
            "aborted",
            "lost_to_fault",
            "mean_restab",
            "mean_gs_msgs",
            "mean_detour",
        ],
    );
    for k in 0..=p.max_arrivals {
        let sweep = Sweep::new(p.trials, p.seed.wrapping_add(k as u64));
        let rows: Vec<(u32, u32, u32, f64, f64, f64)> = sweep.run(|_, rng| {
            let faults = uniform_faults(cube, p.initial_faults, rng);
            let cfg = FaultConfig::with_node_faults(cube, faults.clone());
            let (s, d) = random_pair(&cfg, rng);
            // k fault arrivals at random hop offsets, striking random
            // currently-healthy nodes other than s and d.
            let mut events: Vec<FaultEvent> = Vec::with_capacity(k);
            let mut struck: Vec<NodeId> = Vec::new();
            for _ in 0..k {
                let node = loop {
                    let v = NodeId::new(rng.gen_range(0..cube.num_nodes()));
                    if v != s && v != d && !cfg.node_faulty(v) && !struck.contains(&v) {
                        break v;
                    }
                };
                struck.push(node);
                events.push(FaultEvent {
                    after_hop: rng.gen_range(1..=p.n as u32),
                    node,
                });
            }
            events.sort_by_key(|e| e.after_hop);
            let run = route_dynamic(cube, &faults, &events, s, d);
            match run.outcome {
                DynamicOutcome::Delivered => {
                    let detour = run.path.len() as f64 - s.distance(d) as f64;
                    (
                        1,
                        0,
                        0,
                        run.restabilizations as f64,
                        run.gs_messages as f64,
                        detour,
                    )
                }
                DynamicOutcome::AbortedAt(_) | DynamicOutcome::InfeasibleAtSource => (
                    0,
                    1,
                    0,
                    run.restabilizations as f64,
                    run.gs_messages as f64,
                    0.0,
                ),
                DynamicOutcome::DestinationFailed | DynamicOutcome::HolderFailed(_) => (
                    0,
                    0,
                    1,
                    run.restabilizations as f64,
                    run.gs_messages as f64,
                    0.0,
                ),
            }
        });
        let delivered: u64 = rows.iter().map(|r| r.0 as u64).sum();
        let aborted: u64 = rows.iter().map(|r| r.1 as u64).sum();
        let dest: u64 = rows.iter().map(|r| r.2 as u64).sum();
        let total = delivered + aborted + dest;
        let restab = mean(&rows.iter().map(|r| r.3).collect::<Vec<_>>());
        let gsmsg = mean(&rows.iter().map(|r| r.4).collect::<Vec<_>>());
        let detours: Vec<f64> = rows.iter().filter(|r| r.0 == 1).map(|r| r.5).collect();
        rep.row(vec![
            k.to_string(),
            pct(delivered, total),
            pct(aborted, total),
            pct(dest, total),
            f2(restab),
            f2(gsmsg),
            f2(mean(&detours)),
        ]);
    }
    rep.note("each re-stabilization is one full GS run, charged in exchange messages".to_string());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_arrivals_matches_static_guarantees() {
        let p = DynamicParams {
            n: 6,
            initial_faults: 3,
            max_arrivals: 0,
            trials: 50,
            seed: 1,
        };
        let rep = run(&p);
        assert_eq!(
            rep.rows[0][1], "100.0%",
            "static < n faults regime never fails"
        );
        assert_eq!(rep.rows[0][4], "0.00", "no restabilizations without churn");
    }

    #[test]
    fn survival_degrades_gracefully() {
        let p = DynamicParams {
            n: 6,
            initial_faults: 2,
            max_arrivals: 3,
            trials: 80,
            seed: 2,
        };
        let rep = run(&p);
        let first: f64 = rep.rows[0][1].trim_end_matches('%').parse().unwrap();
        let last: f64 = rep.rows.last().unwrap()[1]
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(first >= last, "more churn, no better delivery");
        assert!(last > 50.0, "rerouting keeps most messages alive");
    }
}
