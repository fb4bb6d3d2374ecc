//! E2 — the paper's Fig. 2: average number of rounds of information
//! exchange (GS) for seven-cubes with various numbers of faults.
//!
//! Paper claims reproduced here:
//! * the average is far below the worst case `n − 1`;
//! * with fewer than `n` faults the average is below 2.

use crate::table::{f2, Report};
use hypersafe_core::run_gs;
use hypersafe_topology::{FaultConfig, Hypercube};
use hypersafe_workloads::{ci95, mean, uniform_faults, Sweep};

/// Parameters for the Fig. 2 sweep.
#[derive(Clone, Copy, Debug)]
pub struct Fig2Params {
    /// Cube dimension (paper: 7).
    pub n: u8,
    /// Largest fault count to sweep (inclusive).
    pub max_faults: usize,
    /// Trials per fault count.
    pub trials: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for Fig2Params {
    fn default() -> Self {
        Fig2Params {
            n: 7,
            max_faults: 32,
            trials: 1000,
            seed: 0x5AFE,
        }
    }
}

/// One sweep point: fault count → (mean rounds, ci95, max observed).
pub fn rounds_at(p: &Fig2Params, m: usize) -> (f64, f64, u32) {
    let cube = Hypercube::new(p.n);
    let sweep = Sweep::new(p.trials, p.seed.wrapping_add(m as u64));
    let rounds: Vec<f64> = sweep.run(|_, rng| {
        let faults = uniform_faults(cube, m, rng);
        let cfg = FaultConfig::with_node_faults(cube, faults);
        run_gs(cfg.cube(), &cfg).map.rounds() as f64
    });
    let max = rounds.iter().cloned().fold(0.0f64, f64::max) as u32;
    (mean(&rounds), ci95(&rounds), max)
}

/// Regenerates Fig. 2.
pub fn run(p: &Fig2Params) -> Report {
    let mut rep = Report::new(
        "fig2",
        format!(
            "Fig. 2 — average GS rounds, {}-cubes, {} trials/point",
            p.n, p.trials
        ),
        &["faults", "mean_rounds", "ci95", "max_rounds"],
    );
    let mut below2_under_n = true;
    let mut overall_max = 0u32;
    for m in 0..=p.max_faults {
        let (mu, ci, max) = rounds_at(p, m);
        overall_max = overall_max.max(max);
        if m < p.n as usize && mu >= 2.0 {
            below2_under_n = false;
        }
        rep.row(vec![m.to_string(), f2(mu), f2(ci), max.to_string()]);
    }
    rep.note(format!(
        "worst-case bound n − 1 = {}; observed max = {}",
        p.n - 1,
        overall_max
    ));
    rep.note(format!(
        "paper claim 'mean < 2 when faults < n': {}",
        if below2_under_n { "HOLDS" } else { "VIOLATED" }
    ));
    assert!(overall_max <= (p.n - 1) as u32, "Corollary to Property 1");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fig2Params {
        Fig2Params {
            n: 7,
            max_faults: 10,
            trials: 60,
            seed: 42,
        }
    }

    #[test]
    fn zero_faults_zero_rounds() {
        let (mu, _, max) = rounds_at(&small(), 0);
        assert_eq!(mu, 0.0);
        assert_eq!(max, 0);
    }

    #[test]
    fn mean_below_two_under_n_faults() {
        let p = small();
        for m in 1..7 {
            let (mu, _, max) = rounds_at(&p, m);
            assert!(mu < 2.0, "m = {m}: mean {mu}");
            assert!(max <= 6);
        }
    }

    #[test]
    fn rounds_grow_with_density_but_stay_bounded() {
        let p = small();
        let (mu_light, _, _) = rounds_at(&p, 2);
        let (mu_heavy, _, max) = rounds_at(&p, 10);
        assert!(mu_heavy >= mu_light);
        assert!(max <= 6, "n − 1 bound");
    }

    #[test]
    fn full_report_renders() {
        let rep = run(&Fig2Params {
            n: 6,
            max_faults: 6,
            trials: 30,
            seed: 7,
        });
        assert_eq!(rep.rows.len(), 7);
        assert!(rep.notes.iter().any(|s| s.contains("HOLDS")));
    }
}
