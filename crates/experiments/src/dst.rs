//! E23 — deterministic simulation testing (`repro dst`): sweep seeded
//! adversarial schedules over cube sizes, fault densities and loss
//! profiles, checking the full invariant suite
//! ([`hypersafe_core::properties`]) on every run. Each seed fully
//! determines its scenario — fault placement, source/destination pair,
//! channel noise, scheduler permutation and kill plan — so any
//! violation replays exactly from the coordinates printed in the
//! artifact, and the kill plan is delta-debugged
//! ([`hypersafe_simkit::shrink_injections`]) down to a 1-minimal
//! reproducer before it is written out.

use crate::gate::{export, write, GateRun};
use crate::table::{pct, Report};
use hypersafe_core::properties::{check_gs_convergence, check_lossy_outcome};
use hypersafe_core::{
    run_delta_gs, run_gs_async, run_gs_reliable, run_unicast_lossy, ChurnEvent, Decision,
    GsAsyncRun, LossyOutcome, LossyRun, SafetyMap,
};
use hypersafe_simkit::{
    shrink_injections, AdversarialScheduler, Metrics, ReliableConfig, RunOptions, RunReport, Time,
};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Topology};
use hypersafe_workloads::{random_pair, uniform_faults, Sweep, STANDARD_PROFILES};
use rand::Rng;
use std::path::PathBuf;

/// Parameters for the DST sweep.
#[derive(Clone, Debug)]
pub struct DstParams {
    /// Cube dimensions to sweep.
    pub dims: Vec<u8>,
    /// Seeds (= independent scenarios) per (dimension, fault count).
    pub seeds: u32,
    /// Event budget per unicast run.
    pub event_budget: u64,
    /// Master seed; every scenario derives from it deterministically.
    pub seed: u64,
    /// Where `dst.csv` and violation artifacts land.
    pub out_dir: PathBuf,
}

impl Default for DstParams {
    fn default() -> Self {
        DstParams {
            dims: vec![3, 4, 5, 6, 7, 8],
            seeds: 256,
            event_budget: 2_000_000,
            seed: 0xD57,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// Fault counts swept per dimension: fault-free, half-loaded, the
/// Theorem-3 boundary (`n - 1` faults still guarantees feasibility),
/// and past it (`n + 1`, where `Failure` verdicts become legitimate
/// and only their *soundness* is checked).
fn densities(n: u8) -> Vec<usize> {
    let n = n as usize;
    let mut ms = vec![0, n / 2, n - 1, n + 1];
    ms.dedup();
    ms
}

/// Everything one seed does, reconstructible from `(params, n, m, i)`
/// alone — the sweep runs it blind, and a violation re-runs it traced.
struct Scenario {
    cfg: FaultConfig,
    map: SafetyMap,
    gs_seed: u64,
    gs_stretch: Time,
    s: NodeId,
    d: NodeId,
    profile: usize,
    uni_seed: u64,
    kills: Vec<(NodeId, Time)>,
    delta_event: ChurnEvent,
    delta_seed: u64,
}

impl Scenario {
    fn build(sweep: &Sweep, n: u8, m: usize, i: u32) -> Scenario {
        let mut rng = sweep.trial_rng(i);
        let cube = Hypercube::new(n);
        let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, m, &mut rng));
        let map = SafetyMap::compute(&cfg);
        let gs_seed: u64 = rng.gen();
        let gs_stretch = 1 + gs_seed % 7;
        let (mut s, mut d) = random_pair(&cfg, &mut rng);
        while s == d {
            let (s2, d2) = random_pair(&cfg, &mut rng);
            s = s2;
            d = d2;
        }
        let profile = (i as usize) % STANDARD_PROFILES.len();
        let uni_seed: u64 = rng.gen();
        let mut kills = Vec::new();
        if rng.gen_bool(0.25) {
            for _ in 0..rng.gen_range(1..=2) {
                let victim = NodeId::new(rng.gen_range(0..cube.num_nodes()));
                if victim != s && !cfg.node_faulty(victim) {
                    kills.push((victim, rng.gen_range(0..30)));
                }
            }
        }
        // Delta-GS leg: one churn event from this configuration (drawn
        // last so the earlier scenario coordinates stay stable).
        let delta_seed: u64 = rng.gen();
        let delta_event = if !cfg.node_faults().is_empty() && rng.gen_bool(0.5) {
            let victims: Vec<NodeId> = cfg.node_faults().iter().collect();
            ChurnEvent::Recover(victims[rng.gen_range(0..victims.len())])
        } else {
            loop {
                let v = NodeId::new(rng.gen_range(0..cube.num_nodes()));
                if !cfg.node_faulty(v) {
                    break ChurnEvent::Fault(v);
                }
            }
        };
        Scenario {
            cfg,
            map,
            gs_seed,
            gs_stretch,
            s,
            d,
            profile,
            uni_seed,
            kills,
            delta_event,
            delta_seed,
        }
    }

    /// The delta-GS leg: apply the scenario's churn event through the
    /// distributed delta protocol under a reorder/stretch adversary
    /// (checked runner: corridor invariant + final exactness) and
    /// cross-check the centralized worklist engine against it.
    fn delta_violation(&self) -> Option<String> {
        let mut cfg2 = self.cfg.clone();
        match self.delta_event {
            ChurnEvent::Fault(a) => {
                cfg2.node_faults_mut().insert(a);
            }
            ChurnEvent::Recover(a) => {
                cfg2.node_faults_mut().remove(a);
            }
        }
        let opts = RunOptions {
            sched: Box::new(
                AdversarialScheduler::permute(self.delta_seed)
                    .with_stretch(1 + self.delta_seed % 7),
            ),
            check: true,
            ..RunOptions::default()
        };
        let (run, report) = run_delta_gs(&cfg2, &self.map, self.delta_event, 1, opts);
        match report.violation {
            Some(v) => Some(v.to_string()),
            None => {
                let mut central = self.map.clone();
                match self.delta_event {
                    ChurnEvent::Fault(a) => central.apply_fault(&cfg2, a),
                    ChurnEvent::Recover(a) => central.apply_recover(&cfg2, a),
                };
                (central.store() != run.map.store()).then(|| {
                    format!(
                        "centralized incremental update diverged from delta-GS for {:?}",
                        self.delta_event
                    )
                })
            }
        }
    }

    /// The GS leg, checked: async GS under a reorder/stretch adversary
    /// (the plain protocol assumes reliable links, so no
    /// loss/duplication here).
    fn gs_run(&self, trace: bool) -> (GsAsyncRun, RunReport) {
        let sched = AdversarialScheduler::permute(self.gs_seed).with_stretch(self.gs_stretch);
        let opts = RunOptions {
            sched: Box::new(sched),
            trace,
            check: true,
            ..RunOptions::default()
        };
        run_gs_async(&self.cfg, 1, opts)
    }

    /// The unicast leg, checked, under the full adversary: channel loss
    /// from the workload profile plus seeded reorder/loss/duplication
    /// bursts — the ARQ layer is expected to absorb all of it — and
    /// the kill plan `kills`.
    fn uni_run(&self, budget: u64, kills: &[(NodeId, Time)], trace: bool) -> (LossyRun, RunReport) {
        let opts = RunOptions {
            sched: Box::new(AdversarialScheduler::from_seed(self.uni_seed)),
            channel: self.channel(),
            max_events: budget,
            kills: kills.to_vec(),
            trace,
            check: true,
            ..RunOptions::default()
        };
        let rcfg = ReliableConfig::default();
        run_unicast_lossy(&self.cfg, &self.map, self.s, self.d, 1, rcfg, opts)
    }

    fn channel(&self) -> Option<hypersafe_simkit::ChannelModel> {
        let prof = &STANDARD_PROFILES[self.profile];
        if prof.loss == 0.0 && prof.jitter == 0 && prof.duplicate == 0.0 {
            None
        } else {
            Some(prof.channel(self.uni_seed))
        }
    }

    /// The unicast leg as a pass/fail predicate over an arbitrary kill
    /// plan — exactly the shape [`shrink_injections`] minimizes.
    fn unicast_violation(&self, budget: u64, kills: &[(NodeId, Time)]) -> Option<String> {
        let (run, report) = self.uni_run(budget, kills, false);
        match report.violation {
            Some(v) => Some(v.to_string()),
            None => check_lossy_outcome(&self.cfg, self.s, self.d, &run, kills.len() as u64)
                .err()
                .map(|v| format!("{v:?}")),
        }
    }
}

/// One seed's verdicts.
struct SeedOutcome {
    gs_violation: Option<String>,
    delta_violation: Option<String>,
    uni_violation: Option<String>,
    delivered: bool,
    refused: bool,
    kills: usize,
}

impl SeedOutcome {
    fn violated(&self) -> bool {
        self.gs_violation.is_some()
            || self.delta_violation.is_some()
            || self.uni_violation.is_some()
    }
}

fn run_seed(sweep: &Sweep, n: u8, m: usize, i: u32, budget: u64) -> SeedOutcome {
    let sc = Scenario::build(sweep, n, m, i);
    let (gs_run, gs_report) = sc.gs_run(false);
    let gs_violation = match gs_report.violation {
        Some(v) => Some(v.to_string()),
        None => check_gs_convergence(&sc.cfg, &gs_run)
            .err()
            .map(|v| format!("{v:?}")),
    };
    let delta_violation = sc.delta_violation();
    let mut delivered = false;
    let mut refused = false;
    let (uni_run, uni_report) = sc.uni_run(budget, &sc.kills, false);
    let uni_violation = match uni_report.violation {
        Some(v) => Some(v.to_string()),
        None => {
            delivered = matches!(uni_run.outcome, LossyOutcome::Delivered { .. });
            refused = matches!(uni_run.decision, Decision::Failure);
            check_lossy_outcome(&sc.cfg, sc.s, sc.d, &uni_run, sc.kills.len() as u64)
                .err()
                .map(|v| format!("{v:?}"))
        }
    };
    SeedOutcome {
        gs_violation,
        delta_violation,
        uni_violation,
        delivered,
        refused,
        kills: sc.kills.len(),
    }
}

/// Replays a violating seed with tracing on, shrinks its kill plan to
/// a 1-minimal reproducer, and renders the replay artifact.
fn artifact(p: &DstParams, sweep: &Sweep, n: u8, m: usize, i: u32, out: &SeedOutcome) -> String {
    let sc = Scenario::build(sweep, n, m, i);
    let faults: Vec<String> = sc.cfg.node_faults().iter().map(|a| a.to_string()).collect();
    let mut art = String::new();
    art.push_str("== DST violation ==\n");
    art.push_str(&format!(
        "replay: repro dst --seed {} (n={n} faults={m} seed-index={i})\n",
        p.seed
    ));
    art.push_str(&format!("fault set: [{}]\n", faults.join(", ")));
    art.push_str(&format!(
        "pair: {} -> {}  profile: {}  gs_seed: {:#x}  uni_seed: {:#x}\n",
        sc.s, sc.d, STANDARD_PROFILES[sc.profile].name, sc.gs_seed, sc.uni_seed
    ));
    if let Some(v) = &out.gs_violation {
        art.push_str(&format!("gs violation: {v}\n"));
        let trace = sc.gs_run(true).1.trace.expect("traced");
        art.push_str("-- gs replay trace --\n");
        art.push_str(&trace.render());
    }
    if let Some(v) = &out.delta_violation {
        art.push_str(&format!(
            "delta-gs violation: {v}\n  event: {:?}  delta_seed: {:#x}\n",
            sc.delta_event, sc.delta_seed
        ));
    }
    if let Some(v) = &out.uni_violation {
        art.push_str(&format!("unicast violation: {v}\n"));
        let shrunk = shrink_injections(&sc.kills, |ks| {
            sc.unicast_violation(p.event_budget, ks).is_some()
        });
        art.push_str(&format!(
            "kill plan: {:?} shrunk to {:?}\n",
            sc.kills, shrunk
        ));
        let trace = sc
            .uni_run(p.event_budget, &shrunk, true)
            .1
            .trace
            .expect("traced");
        art.push_str("-- unicast replay trace --\n");
        art.push_str(&trace.render());
    }
    art
}

/// Runs the sweep; writes `dst.csv`, the obs snapshot pair and any
/// violation artifacts into `p.out_dir`. Any invariant violation is a
/// failure.
pub fn run(p: &DstParams) -> GateRun {
    let mut rep = Report::new(
        "dst",
        format!(
            "deterministic simulation testing: {} seeds per point, full invariant suite",
            p.seeds
        ),
        &[
            "n",
            "faults",
            "seeds",
            "gs_viol",
            "delta_viol",
            "uni_viol",
            "delivered",
            "refused",
            "killed_runs",
        ],
    );
    let mut violations = 0u64;
    let mut artifacts: Vec<PathBuf> = Vec::new();
    let mut failures = Vec::new();
    let mut obs = Metrics::new(0, 0);
    for &n in &p.dims {
        for m in densities(n) {
            let sweep = Sweep::new(p.seeds, p.seed ^ ((n as u64) << 32) ^ ((m as u64) << 16));
            let outcomes = sweep.run(|i, _| run_seed(&sweep, n, m, i, p.event_budget));
            // One representative observed replay per point (seed 0's
            // scenario, FIFO order): the checked adversarial runs stay
            // untouched, and the aggregated registry still samples
            // every dimension × density of the sweep for dst_obs.json.
            let sc = Scenario::build(&sweep, n, m, 0);
            let prof = &STANDARD_PROFILES[sc.profile];
            let observed = |seed| RunOptions {
                channel: Some(prof.channel(seed)),
                max_events: p.event_budget,
                observe: true,
                ..RunOptions::default()
            };
            let rcfg = ReliableConfig::default();
            let (_, gs) = run_gs_reliable(&sc.cfg, rcfg, 1, observed(sc.gs_seed));
            obs.merge(&gs.metrics.expect("observed"));
            if sc.s != sc.d {
                let (_, uni) =
                    run_unicast_lossy(&sc.cfg, &sc.map, sc.s, sc.d, 1, rcfg, observed(sc.uni_seed));
                obs.merge(&uni.metrics.expect("observed"));
            }
            let gs_viol = outcomes.iter().filter(|o| o.gs_violation.is_some()).count();
            let delta_viol = outcomes
                .iter()
                .filter(|o| o.delta_violation.is_some())
                .count();
            let uni_viol = outcomes
                .iter()
                .filter(|o| o.uni_violation.is_some())
                .count();
            let delivered = outcomes.iter().filter(|o| o.delivered).count();
            let refused = outcomes.iter().filter(|o| o.refused).count();
            let killed = outcomes.iter().filter(|o| o.kills > 0).count();
            violations += (gs_viol + delta_viol + uni_viol) as u64;
            // Shrink and dump the first violating seed of this point;
            // one minimal reproducer per point keeps artifacts readable.
            if let Some((i, out)) = outcomes.iter().enumerate().find(|(_, o)| o.violated()) {
                let text = artifact(p, &sweep, n, m, i as u32, out);
                let path = p.out_dir.join(format!("dst_violation_n{n}_m{m}.txt"));
                match write(&path, &text) {
                    Ok(()) => artifacts.push(path),
                    Err(e) => failures.push(format!("dst: {e}")),
                }
            }
            rep.row(vec![
                n.to_string(),
                m.to_string(),
                p.seeds.to_string(),
                gs_viol.to_string(),
                delta_viol.to_string(),
                uni_viol.to_string(),
                pct(delivered as u64, p.seeds as u64),
                refused.to_string(),
                killed.to_string(),
            ]);
        }
    }
    rep.note(
        "every seed runs async GS under a reorder/stretch adversary (levels must descend \
         monotonically to the Theorem 1 fixed point) and one reliable unicast under channel \
         loss + seeded loss/dup bursts + mid-run kills (exactly-once, trail validity, \
         Theorem 2/3 hop counts, Theorem 4 soundness)"
            .to_string(),
    );
    rep.note(
        "refused counts source-side Failure verdicts (legal only when disconnected or \
         faults >= n — the soundness checker verifies each one); killed_runs had mid-run \
         fault injections, which excuse missing deliveries but nothing else"
            .to_string(),
    );
    rep.note(
        "delta_viol: each seed also replays one churn event (fault or recovery) through \
         delta-GS under its own reorder/stretch adversary — levels must stay inside the \
         [target, previous] corridor, land exactly on the recomputed fixed point, and \
         match the centralized incremental worklist byte-for-byte"
            .to_string(),
    );
    for path in &artifacts {
        rep.note(format!("violation artifact: {}", path.display()));
    }
    if violations > 0 {
        failures.push(format!(
            "dst: {violations} invariant violation(s) — see artifacts above"
        ));
    }
    let about = "one observed FIFO replay per point";
    failures.extend(export(&mut rep, &p.out_dir, Some((&obs.snapshot(), about))));
    GateRun {
        report: rep,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DstParams {
        DstParams {
            dims: vec![3, 4],
            seeds: 8,
            event_budget: 500_000,
            seed: 11,
            out_dir: std::env::temp_dir().join("hypersafe_dst_test"),
        }
    }

    #[test]
    fn tiny_sweep_is_clean() {
        let run = run(&tiny());
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        // Four densities per dimension (0, n/2, n-1, n+1).
        assert_eq!(
            run.report.rows.len(),
            densities(3).len() + densities(4).len()
        );
        let _ = std::fs::remove_dir_all(tiny().out_dir);
    }

    #[test]
    fn scenarios_are_reproducible() {
        let sweep = Sweep::new(8, 42);
        let a = Scenario::build(&sweep, 4, 2, 3);
        let b = Scenario::build(&sweep, 4, 2, 3);
        assert_eq!(a.gs_seed, b.gs_seed);
        assert_eq!(a.uni_seed, b.uni_seed);
        assert_eq!((a.s, a.d), (b.s, b.d));
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.delta_event, b.delta_event);
        assert_eq!(a.delta_seed, b.delta_seed);
        assert_eq!(
            a.cfg.node_faults().iter().collect::<Vec<_>>(),
            b.cfg.node_faults().iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn densities_cover_the_theorem3_boundary() {
        assert_eq!(densities(3), vec![0, 1, 2, 4]);
        assert_eq!(densities(8), vec![0, 4, 7, 9]);
    }
}
