//! E11 — status-identification cost: rounds of neighbor information
//! exchange needed by safety levels (Definition 1, bound `n − 1`)
//! versus the Lee–Hayes and Wu–Fernandez demotion processes (bound
//! `O(n²)` per the paper).

use crate::table::{f2, Report};
use hypersafe_baselines::{LeeHayesStatus, WuFernandezStatus};
use hypersafe_core::run_gs;
use hypersafe_topology::{FaultConfig, Hypercube};
use hypersafe_workloads::{mean, uniform_faults, Sweep};

/// Parameters for the rounds comparison.
#[derive(Clone, Copy, Debug)]
pub struct RoundsParams {
    /// Cube dimension.
    pub n: u8,
    /// Largest fault count (inclusive).
    pub max_faults: usize,
    /// Trials per fault count.
    pub trials: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for RoundsParams {
    fn default() -> Self {
        RoundsParams {
            n: 7,
            max_faults: 21,
            trials: 300,
            seed: 0xC0DE,
        }
    }
}

/// Runs the comparison.
pub fn run(p: &RoundsParams) -> Report {
    let cube = Hypercube::new(p.n);
    let mut rep = Report::new(
        "rounds_compare",
        format!(
            "status rounds: GS vs LH vs WF, {}-cube, {} trials/point",
            p.n, p.trials
        ),
        &[
            "faults", "gs_mean", "gs_max", "lh_mean", "lh_max", "wf_mean", "wf_max",
        ],
    );
    let mut gs_overall_max = 0u32;
    for m in 0..=p.max_faults {
        let sweep = Sweep::new(p.trials, p.seed.wrapping_add(m as u64));
        let results: Vec<(u32, u32, u32)> = sweep.run(|_, rng| {
            let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, m, rng));
            let gs = run_gs(cfg.cube(), &cfg).map.rounds();
            let lh = LeeHayesStatus::compute(&cfg).rounds();
            let wf = WuFernandezStatus::compute(&cfg).rounds();
            (gs, lh, wf)
        });
        let col = |f: fn(&(u32, u32, u32)) -> u32| -> (f64, u32) {
            let xs: Vec<f64> = results.iter().map(|r| f(r) as f64).collect();
            (mean(&xs), xs.iter().cloned().fold(0.0, f64::max) as u32)
        };
        let (gs_m, gs_x) = col(|r| r.0);
        let (lh_m, lh_x) = col(|r| r.1);
        let (wf_m, wf_x) = col(|r| r.2);
        gs_overall_max = gs_overall_max.max(gs_x);
        rep.row(vec![
            m.to_string(),
            f2(gs_m),
            gs_x.to_string(),
            f2(lh_m),
            lh_x.to_string(),
            f2(wf_m),
            wf_x.to_string(),
        ]);
    }
    assert!(
        gs_overall_max <= (p.n - 1) as u32,
        "GS round bound n − 1 (Corollary to Property 1)"
    );
    rep.note(format!("GS never exceeded its n − 1 = {} bound", p.n - 1));
    rep.note("LH/WF demotion rounds are unbounded by n − 1 (paper: O(n²) worst case)".to_string());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gs_bounded_lh_can_exceed() {
        let p = RoundsParams {
            n: 6,
            max_faults: 12,
            trials: 80,
            seed: 77,
        };
        let rep = run(&p);
        // GS max column never exceeds 5.
        for row in &rep.rows {
            let gs_max: u32 = row[2].parse().unwrap();
            assert!(gs_max <= 5);
        }
    }

    #[test]
    fn fault_free_row_is_all_zero() {
        let p = RoundsParams {
            n: 5,
            max_faults: 0,
            trials: 4,
            seed: 1,
        };
        let rep = run(&p);
        assert_eq!(
            rep.rows[0],
            vec!["0", "0.00", "0", "0.00", "0", "0.00", "0"]
        );
    }
}
