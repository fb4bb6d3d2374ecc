//! E22 — loss robustness: the paper assumes reliable links; this
//! experiment drops that assumption and measures what the reliable
//! delivery layer costs. Sweeping per-link loss (the standard workload
//! profiles) against fault count: does distributed GS still converge to
//! the centralized fixed point, how long does it take, what message
//! overhead does ACK/retransmit add over the lossless baseline, and do
//! feasible unicasts still deliver.

use crate::gate::{export, GateRun};
use crate::table::{f2, pct, Report};
use hypersafe_core::{route, run_gs_reliable, run_unicast_lossy, LossyOutcome, SafetyMap};
use hypersafe_simkit::{ChannelModel, Metrics, ReliableConfig, RunOptions};
use hypersafe_topology::{FaultConfig, Hypercube};
use hypersafe_workloads::{
    mean, random_pair, uniform_faults, LossProfile, Sweep, STANDARD_PROFILES,
};
use rand::Rng;
use std::path::PathBuf;

/// Parameters for the loss sweep.
#[derive(Clone, Debug)]
pub struct LossParams {
    /// Cube dimension.
    pub n: u8,
    /// Largest fault count (inclusive).
    pub max_faults: usize,
    /// Fault-count step.
    pub step: usize,
    /// Instances per (profile, fault count) point.
    pub trials: u32,
    /// Unicast pairs per instance.
    pub pairs_per_instance: u32,
    /// Event budget per protocol run (quiescence detector's horizon).
    pub event_budget: u64,
    /// Master seed.
    pub seed: u64,
    /// When set, `loss.csv` and the merged metrics snapshot of every
    /// lossy run (`loss_obs.json` / `loss_obs.csv`) land here.
    pub out_dir: Option<PathBuf>,
}

impl Default for LossParams {
    fn default() -> Self {
        LossParams {
            n: 6,
            max_faults: 4,
            step: 2,
            trials: 40,
            pairs_per_instance: 4,
            event_budget: 2_000_000,
            seed: 0x1055,
            out_dir: None,
        }
    }
}

/// Per-trial measurements, aggregated into one report row per point.
struct Trial {
    gs_ok: bool,
    gs_time: f64,
    gs_overhead: f64,
    feasible: u32,
    delivered: u32,
    retransmits: u64,
    duplicates_surfaced: u64,
    obs: Metrics,
}

fn run_point(p: &LossParams, prof: &LossProfile, m: usize, point: u64) -> Vec<Trial> {
    let cube = Hypercube::new(p.n);
    let rcfg = ReliableConfig::default();
    let sweep = Sweep::new(p.trials, p.seed.wrapping_add(point));
    sweep.run(|_, rng| {
        let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, m, rng));
        let central = SafetyMap::compute(&cfg);
        let chseed: u64 = rng.gen();

        // Observed runs: same execution (metrics hooks are passive),
        // plus the per-node/per-dimension registry that the
        // `loss_obs.json` snapshot aggregates.
        let opts = |channel: ChannelModel, observe| RunOptions {
            channel: Some(channel),
            max_events: p.event_budget,
            observe,
            ..RunOptions::default()
        };
        let (run, report) = run_gs_reliable(&cfg, rcfg, 1, opts(prof.channel(chseed), true));
        let mut obs = report.metrics.expect("observed");
        // The engine's corrected send counter: every injection attempt,
        // counted once, regardless of its fate. (An earlier accounting
        // reconstructed this from delivered + lost + dropped, which
        // double-counted channel duplicates on the lossy side and so
        // overstated the overhead of duplicating profiles.)
        let gs_sent = run.stats.sends as f64;
        // Lossless baseline: the same protocol over a clean channel.
        // The overhead ratio then isolates what the *loss* costs
        // (retransmissions and the ACKs they provoke).
        let clean = LossProfile {
            name: "base",
            loss: 0.0,
            jitter: 0,
            duplicate: 0.0,
        };
        let (base, _) = run_gs_reliable(&cfg, rcfg, 1, opts(clean.channel(chseed), false));
        let base_sent = base.stats.sends as f64;
        // GS is state-change-driven: fault placements that lower no
        // level exchange no messages at all, so both counts are 0 and
        // the overhead of reliability is exactly 1.
        let gs_overhead = if base_sent == 0.0 {
            1.0
        } else {
            gs_sent / base_sent
        };

        let mut t = Trial {
            gs_ok: run.quiescent && run.links_abandoned == 0 && run.map.store() == central.store(),
            gs_time: run.stats.end_time as f64,
            gs_overhead,
            feasible: 0,
            delivered: 0,
            retransmits: 0,
            duplicates_surfaced: 0,
            obs: Metrics::new(0, 0),
        };
        for _ in 0..p.pairs_per_instance {
            let (s, d) = random_pair(&cfg, rng);
            if s == d || !route(&cfg, &central, s, d).delivered {
                continue;
            }
            t.feasible += 1;
            let observed = opts(prof.channel(rng.gen()), true);
            let (urun, report) = run_unicast_lossy(&cfg, &central, s, d, 1, rcfg, observed);
            obs.merge(&report.metrics.expect("observed"));
            if let LossyOutcome::Delivered { retransmits, .. } = urun.outcome {
                t.delivered += 1;
                t.retransmits += retransmits;
            }
            t.duplicates_surfaced += urun.duplicate_deliveries;
        }
        t.obs = obs;
        t
    })
}

/// Runs the sweep; with `p.out_dir` set, writes `loss.csv` and the obs
/// snapshot pair there. A failed write is the only failure.
pub fn run(p: &LossParams) -> GateRun {
    let mut rep = Report::new(
        "loss",
        format!(
            "loss robustness: reliable GS + unicast, {}-cube, {} instances/point",
            p.n, p.trials
        ),
        &[
            "profile",
            "loss",
            "faults",
            "gs_converged",
            "gs_time",
            "msg_overhead",
            "delivery",
            "retx_per_msg",
        ],
    );
    let mut point = 0u64;
    let mut agg = Metrics::new(0, 0);
    for prof in &STANDARD_PROFILES {
        let mut m = 0usize;
        loop {
            let trials = run_point(p, prof, m, point * 0x9E37);
            point += 1;
            for t in &trials {
                agg.merge(&t.obs);
            }
            let converged = trials.iter().filter(|t| t.gs_ok).count() as u64;
            let times: Vec<f64> = trials.iter().map(|t| t.gs_time).collect();
            let overheads: Vec<f64> = trials.iter().map(|t| t.gs_overhead).collect();
            let feasible: u64 = trials.iter().map(|t| t.feasible as u64).sum();
            let delivered: u64 = trials.iter().map(|t| t.delivered as u64).sum();
            let retx: u64 = trials.iter().map(|t| t.retransmits).sum();
            let dups: u64 = trials.iter().map(|t| t.duplicates_surfaced).sum();
            assert_eq!(dups, 0, "reliable layer leaked a duplicate to an actor");
            rep.row(vec![
                prof.name.to_string(),
                format!("{:.2}", prof.loss),
                m.to_string(),
                pct(converged, trials.len() as u64),
                f2(mean(&times)),
                f2(mean(&overheads)),
                pct(delivered, feasible),
                f2(if delivered == 0 {
                    0.0
                } else {
                    retx as f64 / delivered as f64
                }),
            ]);
            if m >= p.max_faults {
                break;
            }
            m = (m + p.step).min(p.max_faults);
        }
    }
    rep.note(
        "gs_converged: runs that went quiescent at exactly the centralized fixed point \
         with no link abandoned by the retry budget"
            .to_string(),
    );
    rep.note(
        "msg_overhead: messages injected (data + ACKs + retransmissions) relative to the \
         same protocol on a lossless channel — the price of reliability under that loss rate"
            .to_string(),
    );
    rep.note(
        "delivery: fraction of unicasts the centralized algorithm calls feasible that the \
         lossy distributed run actually delivered; duplicates surfaced to actors are \
         asserted to be zero"
            .to_string(),
    );
    let snap = (
        &agg.snapshot(),
        "every lossy run, all profiles × fault counts",
    );
    let failures = p
        .out_dir
        .as_deref()
        .map_or_else(Vec::new, |dir| export(&mut rep, dir, Some(snap)));
    GateRun {
        report: rep,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LossParams {
        LossParams {
            n: 4,
            max_faults: 2,
            step: 2,
            trials: 6,
            pairs_per_instance: 2,
            event_budget: 500_000,
            seed: 9,
            out_dir: None,
        }
    }

    #[test]
    fn clean_profile_is_the_baseline() {
        let rep = run(&tiny()).report;
        // First rows belong to the "clean" profile: unit overhead,
        // full convergence, full delivery.
        assert_eq!(rep.rows[0][0], "clean");
        assert_eq!(rep.rows[0][3], "100.0%");
        assert_eq!(rep.rows[0][5], "1.00");
        assert_eq!(rep.rows[0][6], "100.0%");
    }

    #[test]
    fn every_profile_converges_and_delivers() {
        let rep = run(&tiny()).report;
        for row in &rep.rows {
            assert_eq!(row[3], "100.0%", "profile {} faults {}", row[0], row[2]);
            assert_eq!(row[6], "100.0%", "profile {} faults {}", row[0], row[2]);
        }
        // Heavy loss must actually cost retransmissions somewhere.
        let heavy_retx: f64 = rep
            .rows
            .iter()
            .filter(|r| r[0] == "heavy")
            .map(|r| r[7].parse::<f64>().unwrap())
            .sum();
        assert!(heavy_retx > 0.0, "20% loss with zero retransmissions");
    }
}
