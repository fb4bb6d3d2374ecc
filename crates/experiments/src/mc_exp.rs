//! E28 — explicit-state model checking (`repro mc`): exhaustively
//! verify the GS / delta-GS / ARQ protocol kernel on small cubes.
//!
//! Unlike the sampled adversaries of E23 (`dst`), this gate enumerates
//! *every* delivery order the untimed asynchronous model admits
//! ([`hypersafe_simkit::mc`]) and checks the path-free reformulations
//! of the paper's theorems ([`hypersafe_core::mc`]) at every reachable
//! state:
//!
//! * **GS leg** — monotone descent plus the fixed-point corridor at
//!   every state and exact Theorem-1 convergence at every quiescent
//!   one, over all fault sets of size ≤ 2 on `Q_3` and one
//!   representative per automorphism orbit on `Q_4`.
//! * **Delta-GS leg** — the directed corridor between the pre- and
//!   post-event fixed points, landing exactly on the centralized
//!   recompute, for fault and recovery events on `Q_3` and `Q_4`.
//! * **ARQ leg** — exactly-once delivery through the reliable layer
//!   under adversarial loss/duplication budgets, plus the Theorem 2–4
//!   outcome taxonomy at every terminal state, on `Q_3` pairs.
//!
//! Every row reports the exploration size (states, transitions,
//! sleep-set reduction, frontier peak, terminals, depth) and a
//! verdict; any violation or truncated search fails the gate. The
//! scope is scenario-enumerated rather than seed-sampled, so the run
//! is fully deterministic — no `--seed` knob.

use crate::gate::{export, GateRun};
use crate::table::Report;
use hypersafe_core::{mc_delta_gs, mc_gs, mc_unicast_arq, run_gs_reliable, ChurnEvent, SafetyMap};
use hypersafe_simkit::{McConfig, McReport, Metrics, ReliableConfig, RunOptions};
use hypersafe_topology::{FaultConfig, FaultSet, Hypercube, NodeId};
use hypersafe_workloads::STANDARD_PROFILES;
use std::path::PathBuf;

/// Parameters for the model-checking gate.
#[derive(Clone, Debug)]
pub struct McParams {
    /// CI-sized scope: `Q_3` only, single-fault GS sets, one delta
    /// event, and a lossless ARQ pair.
    pub quick: bool,
    /// Hard cap on distinct states per exploration; exceeding it marks
    /// the scenario `TRUNCATED` and fails the gate (never silent).
    pub max_states: u64,
    /// Adversarial loss budget for the lossy ARQ scenarios.
    pub arq_loss_budget: u32,
    /// Adversarial duplication budget for the lossy ARQ scenarios.
    pub arq_dup_budget: u32,
    /// Where `mc.csv` and the metrics snapshot land.
    pub out_dir: PathBuf,
}

impl Default for McParams {
    fn default() -> Self {
        McParams {
            quick: false,
            max_states: 20_000_000,
            arq_loss_budget: 1,
            arq_dup_budget: 1,
            out_dir: PathBuf::from("results"),
        }
    }
}

fn cube_cfg(n: u8, faults: &[u64]) -> FaultConfig {
    let cube = Hypercube::new(n);
    let mut set = FaultSet::new(cube);
    for &f in faults {
        set.insert(NodeId::new(f));
    }
    FaultConfig::with_node_faults(cube, set)
}

fn fault_label(faults: &[u64]) -> String {
    let inner: Vec<String> = faults.iter().map(|f| f.to_string()).collect();
    format!("{{{}}}", inner.join(","))
}

/// All fault sets of `Q_3` up to the given size (1 empty + 8 singles
/// + 28 pairs = 37 at size 2).
fn q3_fault_sets(max_size: usize) -> Vec<Vec<u64>> {
    let mut sets = vec![vec![]];
    for a in 0..8u64 {
        sets.push(vec![a]);
    }
    if max_size >= 2 {
        for a in 0..8u64 {
            for b in (a + 1)..8 {
                sets.push(vec![a, b]);
            }
        }
    }
    sets
}

/// One representative per automorphism orbit of `Q_4` fault sets of
/// size ≤ 2: the hypercube's symmetry group (translations × dimension
/// permutations) acts transitively on nodes, and classifies pairs by
/// the Hamming weight of their XOR — so `{0}`, and `{0, 2^w - 1}` for
/// `w = 1..4`, cover every ≤ 2-fault configuration up to isomorphism.
fn q4_orbit_reps() -> Vec<Vec<u64>> {
    vec![
        vec![],
        vec![0],
        vec![0, 1],
        vec![0, 3],
        vec![0, 7],
        vec![0, 15],
    ]
}

/// A scenario's verdict: clean, a property violation, or a search that
/// hit the state cap (not exhaustive, so it fails the gate too).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Violation,
    Truncated,
}

/// Appends one scenario row and returns its verdict.
fn record(rep: &mut Report, leg: &str, n: u8, scenario: &str, r: &McReport) -> Verdict {
    let (verdict, cell) = if let Some(v) = &r.violation {
        (
            Verdict::Violation,
            format!("VIOLATION: {} ({})", v.property, v.detail),
        )
    } else if r.truncated {
        (Verdict::Truncated, "TRUNCATED".to_string())
    } else {
        (Verdict::Ok, "ok".to_string())
    };
    rep.row(vec![
        leg.to_string(),
        n.to_string(),
        scenario.to_string(),
        r.states.to_string(),
        r.transitions.to_string(),
        r.pruned.to_string(),
        format!("{:.1}%", 100.0 * r.reduction_ratio()),
        r.closed.to_string(),
        r.frontier_peak.to_string(),
        r.terminals.to_string(),
        r.max_depth.to_string(),
        cell,
    ]);
    verdict
}

/// Runs the gate; writes `mc.csv` plus `mc_obs.json` / `mc_obs.csv`
/// into `p.out_dir`. Any property violation or truncated search is a
/// failure.
pub fn run(p: &McParams) -> GateRun {
    let mut rep = Report::new(
        "mc",
        format!(
            "explicit-state model checking of GS / delta-GS / ARQ ({} scope)",
            if p.quick { "quick" } else { "full" }
        ),
        &[
            "leg",
            "n",
            "scenario",
            "states",
            "transitions",
            "pruned",
            "reduction",
            "closed",
            "frontier",
            "terminals",
            "depth",
            "verdict",
        ],
    );
    let mut verdicts = Vec::new();
    let base = McConfig {
        max_states: p.max_states,
        ..McConfig::default()
    };

    // -- GS leg ----------------------------------------------------
    let gs_scenarios: Vec<(u8, Vec<u64>)> = if p.quick {
        q3_fault_sets(1).into_iter().map(|f| (3, f)).collect()
    } else {
        q3_fault_sets(2)
            .into_iter()
            .map(|f| (3, f))
            .chain(q4_orbit_reps().into_iter().map(|f| (4, f)))
            .collect()
    };
    for (n, faults) in &gs_scenarios {
        let cfg = cube_cfg(*n, faults);
        let r = mc_gs(&cfg, &base);
        let label = format!("faults={}", fault_label(faults));
        verdicts.push(record(&mut rep, "gs", *n, &label, &r));
    }

    // -- Delta-GS leg ----------------------------------------------
    // (n, pre-event faults, event); the post-event configuration is
    // derived by applying the event.
    let delta_scenarios: Vec<(u8, Vec<u64>, ChurnEvent)> = if p.quick {
        vec![(3, vec![], ChurnEvent::Fault(NodeId::new(5)))]
    } else {
        vec![
            (3, vec![], ChurnEvent::Fault(NodeId::new(5))),
            (3, vec![0], ChurnEvent::Fault(NodeId::new(5))),
            (3, vec![5], ChurnEvent::Recover(NodeId::new(5))),
            (3, vec![0, 5], ChurnEvent::Recover(NodeId::new(5))),
            (4, vec![0], ChurnEvent::Fault(NodeId::new(3))),
            (4, vec![0, 3], ChurnEvent::Recover(NodeId::new(3))),
        ]
    };
    for (n, pre, event) in &delta_scenarios {
        let prev = SafetyMap::compute(&cube_cfg(*n, pre));
        let mut post = pre.clone();
        match event {
            ChurnEvent::Fault(a) => post.push(a.raw()),
            ChurnEvent::Recover(a) => post.retain(|&v| v != a.raw()),
        }
        post.sort_unstable();
        let cfg = cube_cfg(*n, &post);
        let r = mc_delta_gs(&cfg, &prev, *event, &base);
        let label = match event {
            ChurnEvent::Fault(a) => format!("fault({}) from {}", a.raw(), fault_label(pre)),
            ChurnEvent::Recover(a) => format!("recover({}) from {}", a.raw(), fault_label(pre)),
        };
        verdicts.push(record(&mut rep, "delta-gs", *n, &label, &r));
    }

    // -- ARQ leg ---------------------------------------------------
    // (faults, s, d, loss budget, dup budget) on Q_3; the infeasible
    // scenario (every neighbor of the source faulty) needs no budgets
    // because the sound Failure verdict sends nothing.
    let arq_scenarios: Vec<(Vec<u64>, u64, u64, u32, u32)> = if p.quick {
        vec![(vec![3], 0, 6, 0, 0)]
    } else {
        vec![
            (vec![], 0, 7, p.arq_loss_budget, p.arq_dup_budget),
            (vec![3], 0, 7, p.arq_loss_budget, p.arq_dup_budget),
            (vec![3, 5], 0, 7, p.arq_loss_budget, p.arq_dup_budget),
            (vec![1, 2, 4], 0, 7, 0, 0),
        ]
    };
    let rcfg = ReliableConfig {
        max_retries: 2,
        ..ReliableConfig::default()
    };
    for (faults, s, d, loss, dup) in &arq_scenarios {
        let cfg = cube_cfg(3, faults);
        let map = SafetyMap::compute(&cfg);
        let mcfg = McConfig {
            loss_budget: *loss,
            dup_budget: *dup,
            ..base.clone()
        };
        let r = mc_unicast_arq(&cfg, &map, NodeId::new(*s), NodeId::new(*d), rcfg, &mcfg);
        let label = format!(
            "{s}->{d} faults={} loss={loss} dup={dup}",
            fault_label(faults)
        );
        verdicts.push(record(&mut rep, "arq", 3, &label, &r));
    }

    rep.note(
        "gs leg: every delivery interleaving of asynchronous GLOBAL_STATUS — levels must \
         descend monotonically, never undershoot the Theorem 1 fixed point, and equal it \
         at every quiescent state; no-op closure is sound here (monotone min-merge)"
            .to_string(),
    );
    rep.note(
        "delta-gs leg: one churn event per scenario — every interleaving keeps levels in \
         the directed corridor between the pre-event start and the post-event fixed point \
         and lands exactly on the centralized recompute"
            .to_string(),
    );
    rep.note(
        "arq leg: closure off (the reorder buffer makes redelivery ack-effectful); \
         exactly-once at every state, a valid trail of exactly H / H+2 hops on delivery, \
         Theorem 4 soundness of the verdict; in the untimed model a retransmit timer may fire while its \
         segment is in flight, so link give-up legally explains non-delivery"
            .to_string(),
    );
    rep.note(
        "coverage bounds (explicit, not silent): Q_3 is exhaustive to 2 faults; Q_4 GS \
         covers one representative per automorphism orbit (sufficient by symmetry); Q_4 \
         ARQ and 3-fault sets exceed the state budget of this gate and are covered by the \
         seeded DST sweep (E23) instead"
            .to_string(),
    );
    if p.quick {
        rep.note(
            "quick scope: Q_3 single-fault GS, one delta event, lossless ARQ — run \
             without --quick for the exhaustive gate"
                .to_string(),
        );
    }
    // Observed FIFO replays of the checked GS configurations feed the
    // schema-gated metrics snapshot (one per cube dimension covered).
    let mut obs = Metrics::new(0, 0);
    let obs_dims: &[u8] = if p.quick { &[3] } else { &[3, 4] };
    for &n in obs_dims {
        let cfg = cube_cfg(n, &[0, 3]);
        let opts = RunOptions {
            channel: Some(STANDARD_PROFILES[0].channel(0xE28)),
            max_events: 500_000,
            observe: true,
            ..RunOptions::default()
        };
        let (_, report) = run_gs_reliable(&cfg, ReliableConfig::default(), 1, opts);
        obs.merge(&report.metrics.expect("observed"));
    }
    let count = |v| verdicts.iter().filter(|&&x| x == v).count();
    let mut failures = Vec::new();
    let violations = count(Verdict::Violation);
    if violations > 0 {
        failures.push(format!(
            "mc: {violations} property violation(s) — see the verdict column"
        ));
    }
    let truncated = count(Verdict::Truncated);
    if truncated > 0 {
        failures.push(format!(
            "mc: {truncated} truncated search(es) — raise the state cap (--trials, in millions)"
        ));
    }
    let about = "observed FIFO replays of checked configs";
    failures.extend(export(&mut rep, &p.out_dir, Some((&obs.snapshot(), about))));
    GateRun {
        report: rep,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scope_is_clean_and_exhaustive() {
        let p = McParams {
            quick: true,
            out_dir: std::env::temp_dir().join("hypersafe_mc_test"),
            ..McParams::default()
        };
        let run = run(&p);
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        // 9 GS rows (Q_3, <= 1 fault) + 1 delta + 1 ARQ.
        assert_eq!(run.report.rows.len(), 11);
        assert!(p.out_dir.join("mc.csv").exists());
        assert!(p.out_dir.join("mc_obs.json").exists());
        let _ = std::fs::remove_dir_all(&p.out_dir);
    }

    #[test]
    fn scenario_enumerations_are_stable() {
        assert_eq!(q3_fault_sets(1).len(), 9);
        assert_eq!(q3_fault_sets(2).len(), 37);
        assert_eq!(q4_orbit_reps().len(), 6);
    }
}
