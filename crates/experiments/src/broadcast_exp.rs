//! E12 — safety-level broadcasting (the paper's reference \[9\], the
//! origin of the concept): coverage and message cost as fault density
//! grows, split by source kind (safe / relayed-unsafe / stranded).

use crate::table::{f2, pct, Report};
use hypersafe_core::{broadcast, SafetyMap};
use hypersafe_topology::{FaultConfig, Hypercube};
use hypersafe_workloads::{mean, random_healthy, uniform_faults, Sweep};

/// Parameters for the broadcast sweep.
#[derive(Clone, Copy, Debug)]
pub struct BroadcastParams {
    /// Cube dimension.
    pub n: u8,
    /// Largest fault count (inclusive).
    pub max_faults: usize,
    /// Fault-count step.
    pub step: usize,
    /// Instances per fault count.
    pub trials: u32,
    /// Broadcast sources per instance.
    pub sources_per_instance: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for BroadcastParams {
    fn default() -> Self {
        BroadcastParams {
            n: 7,
            max_faults: 18,
            step: 3,
            trials: 200,
            sources_per_instance: 4,
            seed: 0xB04D,
        }
    }
}

/// Runs the broadcast sweep.
pub fn run(p: &BroadcastParams) -> Report {
    let cube = Hypercube::new(p.n);
    let mut rep = Report::new(
        "broadcast",
        format!(
            "safety-level broadcast, {}-cube, {} instances × {} sources per point",
            p.n, p.trials, p.sources_per_instance
        ),
        &[
            "faults",
            "complete",
            "relayed",
            "mean_steps",
            "mean_msgs",
            "safe_src_incomplete",
        ],
    );
    let mut m = 0usize;
    loop {
        let sweep = Sweep::new(p.trials, p.seed.wrapping_add(m as u64));
        let rows: Vec<(u32, u32, f64, f64, u32, u32)> = sweep.run(|_, rng| {
            let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, m, rng));
            let map = SafetyMap::compute(&cfg);
            let mut complete = 0u32;
            let mut relayed = 0u32;
            let mut steps = Vec::new();
            let mut msgs = Vec::new();
            let mut safe_incomplete = 0u32;
            for _ in 0..p.sources_per_instance {
                let s = random_healthy(&cfg, rng);
                let r = broadcast(&cfg, &map, s);
                let ok = r.complete(cfg.node_faults());
                complete += ok as u32;
                relayed += r.relayed_via.is_some() as u32;
                steps.push(r.steps as f64);
                msgs.push(r.messages as f64);
                if map.is_safe(s) && !ok {
                    safe_incomplete += 1;
                }
            }
            (
                complete,
                relayed,
                mean(&steps),
                mean(&msgs),
                safe_incomplete,
                p.sources_per_instance,
            )
        });
        let complete: u64 = rows.iter().map(|r| r.0 as u64).sum();
        let relayed: u64 = rows.iter().map(|r| r.1 as u64).sum();
        let steps = mean(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
        let msgs = mean(&rows.iter().map(|r| r.3).collect::<Vec<_>>());
        let safe_bad: u32 = rows.iter().map(|r| r.4).sum();
        let total: u64 = rows.iter().map(|r| r.5 as u64).sum();
        assert_eq!(
            safe_bad, 0,
            "a safe source must always achieve full coverage"
        );
        rep.row(vec![
            m.to_string(),
            pct(complete, total),
            pct(relayed, total),
            f2(steps),
            f2(msgs),
            safe_bad.to_string(),
        ]);
        if m >= p.max_faults {
            break;
        }
        m = (m + p.step).min(p.max_faults);
    }
    rep.note("safe sources achieved complete coverage in every sampled instance".to_string());
    rep.note(
        "with < n faults, unsafe sources relay through a safe neighbor (Property 2)".to_string(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_broadcast_row() {
        let p = BroadcastParams {
            n: 5,
            max_faults: 0,
            step: 1,
            trials: 10,
            sources_per_instance: 2,
            seed: 8,
        };
        let rep = run(&p);
        assert_eq!(rep.rows.len(), 1);
        assert_eq!(rep.rows[0][1], "100.0%");
        assert_eq!(rep.rows[0][2], "0.0%", "no relays without faults");
        assert_eq!(rep.rows[0][4], "31.00", "binomial edge count");
    }

    #[test]
    fn guarantee_regime_is_fully_covered() {
        let p = BroadcastParams {
            n: 6,
            max_faults: 5,
            step: 5,
            trials: 60,
            sources_per_instance: 3,
            seed: 9,
        };
        let rep = run(&p);
        for row in &rep.rows {
            let m: usize = row[0].parse().unwrap();
            if m < 6 {
                assert_eq!(
                    row[1], "100.0%",
                    "complete coverage under n faults: {row:?}"
                );
            }
            assert_eq!(row[5], "0");
        }
    }
}
