//! E15 — faulty links at scale (§4.1 beyond the Fig. 4 example):
//! sweeping the number of faulty links, how large does the `N2` class
//! grow, how much of the cube still advertises useful levels, and how
//! do EGS unicasts fare.

use crate::table::{f2, pct, Report};
use hypersafe_core::{route, run_gs, Decision};
use hypersafe_topology::{FaultConfig, Hypercube, Topology};
use hypersafe_workloads::{mean, random_pair, uniform_faults, uniform_link_faults, Sweep};

/// Parameters for the link-fault sweep.
#[derive(Clone, Copy, Debug)]
pub struct LinkFaultParams {
    /// Cube dimension.
    pub n: u8,
    /// Fixed number of faulty nodes per instance.
    pub node_faults: usize,
    /// Largest number of faulty links (inclusive).
    pub max_links: usize,
    /// Link-count step.
    pub step: usize,
    /// Instances per point.
    pub trials: u32,
    /// Unicast pairs per instance.
    pub pairs_per_instance: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for LinkFaultParams {
    fn default() -> Self {
        LinkFaultParams {
            n: 7,
            node_faults: 2,
            max_links: 12,
            step: 2,
            trials: 200,
            pairs_per_instance: 8,
            seed: 0x11C5,
        }
    }
}

/// Runs the sweep.
pub fn run(p: &LinkFaultParams) -> Report {
    let cube = Hypercube::new(p.n);
    let mut rep = Report::new(
        "linkfaults",
        format!(
            "faulty links (EGS), {}-cube with {} node faults, {} instances/point",
            p.n, p.node_faults, p.trials
        ),
        &[
            "links",
            "n2_mean",
            "adv_safe_frac",
            "delivered",
            "aborted",
            "lost",
        ],
    );
    let mut l = 0usize;
    loop {
        let sweep = Sweep::new(p.trials, p.seed.wrapping_add(l as u64));
        let rows: Vec<(f64, f64, u32, u32, u32)> = sweep.run(|_, rng| {
            let nodes = uniform_faults(cube, p.node_faults, rng);
            let links = uniform_link_faults(cube, l, rng);
            let cfg = FaultConfig::with_faults(cube, nodes, links);
            let map = run_gs(cube, &cfg).map;
            let n2 = cube.nodes().filter(|&a| map.is_n2(a)).count() as f64;
            let healthy = cfg.healthy_count() as f64;
            let adv_safe = cfg
                .healthy_nodes()
                .filter(|&a| map.level(a) == cube.dim())
                .count() as f64
                / healthy;
            let mut delivered = 0u32;
            let mut aborted = 0u32;
            let mut lost = 0u32;
            for _ in 0..p.pairs_per_instance {
                let (s, d) = random_pair(&cfg, rng);
                let res = route(&cfg, &map, s, d);
                if matches!(res.decision, Decision::Failure) {
                    aborted += 1;
                } else if res.delivered {
                    delivered += 1;
                } else {
                    lost += 1;
                }
            }
            (n2, adv_safe, delivered, aborted, lost)
        });
        let n2 = mean(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let adv = mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
        let delivered: u64 = rows.iter().map(|r| r.2 as u64).sum();
        let aborted: u64 = rows.iter().map(|r| r.3 as u64).sum();
        let lost: u64 = rows.iter().map(|r| r.4 as u64).sum();
        let total = delivered + aborted + lost;
        rep.row(vec![
            l.to_string(),
            f2(n2),
            f2(adv),
            pct(delivered, total),
            pct(aborted, total),
            pct(lost, total),
        ]);
        if l >= p.max_links {
            break;
        }
        l = (l + p.step).min(p.max_links);
    }
    rep.note(
        "each faulty link converts up to two healthy nodes into N2 (advertised level 0)"
            .to_string(),
    );
    rep.note(
        "treating link-fault ends as node faults is conservative: feasibility detection \
              stays local, at the cost of refusing some servable pairs"
            .to_string(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_links_matches_plain_gs_world() {
        let p = LinkFaultParams {
            n: 5,
            node_faults: 2,
            max_links: 0,
            step: 1,
            trials: 30,
            pairs_per_instance: 4,
            seed: 6,
        };
        let rep = run(&p);
        assert_eq!(rep.rows[0][1], "0.00", "no N2 nodes without link faults");
        assert_eq!(
            rep.rows[0][3], "100.0%",
            "n−1 node faults regime delivers everything"
        );
    }

    #[test]
    fn n2_grows_with_link_count() {
        let p = LinkFaultParams {
            n: 6,
            node_faults: 1,
            max_links: 6,
            step: 3,
            trials: 40,
            pairs_per_instance: 4,
            seed: 7,
        };
        let rep = run(&p);
        let n2_first: f64 = rep.rows[0][1].parse().unwrap();
        let n2_last: f64 = rep.rows.last().unwrap()[1].parse().unwrap();
        assert!(n2_last > n2_first);
    }
}
