//! E24 — incremental churn throughput (`repro churn`): drive random
//! fault/recovery churn through the incremental worklist engine
//! ([`SafetyMap::apply_fault`] / [`SafetyMap::apply_recover`]),
//! cross-checking every step against a from-scratch
//! [`SafetyMap::compute`], then push a batched routing workload
//! through [`route_many`] and cross-check it against the sequential
//! path. Every reported number is a deterministic function of the
//! parameters — counts and checksums, never wall-clock — so CI can
//! diff `churn.csv` across `RAYON_NUM_THREADS` settings and fail on
//! any byte difference.

use crate::gate::{batch_outcome_word, export, fnv1a, GateRun, FNV_OFFSET};
use crate::table::{f2, Report};
use hypersafe_core::{route_many, route_many_seq, DeltaStats, SafetyMap};
use hypersafe_simkit::Metrics;
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Topology};
use hypersafe_workloads::{random_pair, Sweep};
use rand::Rng;
use std::path::PathBuf;

/// Parameters for the churn sweep.
#[derive(Clone, Debug)]
pub struct ChurnParams {
    /// Cube dimensions to sweep.
    pub dims: Vec<u8>,
    /// Churn-rate points: events per timeline.
    pub rates: Vec<u32>,
    /// Independent timelines per (dimension, rate) point.
    pub trials: u32,
    /// Source/destination pairs routed in one `route_many` batch per
    /// timeline (over the post-churn fault configuration).
    pub pairs: usize,
    /// Master seed.
    pub seed: u64,
    /// Where `churn.csv` lands.
    pub out_dir: PathBuf,
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams {
            dims: vec![8, 9, 10, 11, 12, 13, 14],
            rates: vec![8, 32, 128],
            trials: 3,
            pairs: 20_000,
            seed: 0xC8A1,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// One timeline's deterministic outcome.
struct TrialOutcome {
    stats: DeltaStats,
    /// Cells a from-scratch recompute would have evaluated instead
    /// (`2^n × rounds`, summed over the same events).
    cells_scratch: u64,
    waves_max: u32,
    rounds_saved: u64,
    delivered: u64,
    checksum: u64,
    /// Incremental-vs-scratch or par-vs-seq divergences (CI gate).
    mismatches: u64,
    /// Histograms only (no engine here): per-event update waves in
    /// `rounds`, per-delivery batch-route hops in `hops`. Counts, so
    /// the merged export stays thread-count independent like the CSV.
    obs: Metrics,
}

fn run_trial<R: Rng + ?Sized>(n: u8, events: u32, pairs: usize, rng: &mut R) -> TrialOutcome {
    let cube = Hypercube::new(n);
    let mut cfg = FaultConfig::fault_free(cube);
    let mut map = SafetyMap::compute(&cfg);
    let mut out = TrialOutcome {
        stats: DeltaStats::default(),
        cells_scratch: 0,
        waves_max: 0,
        rounds_saved: 0,
        delivered: 0,
        checksum: FNV_OFFSET,
        mismatches: 0,
        obs: Metrics::new(0, 0),
    };
    for _ in 0..events {
        // Stay below n live faults (the paper's guarantee regime) so
        // the routing batch afterwards exercises real deliveries.
        let live = cfg.node_faults().len();
        let recover = live > 0 && (live >= (n - 1) as usize || rng.gen_bool(0.4));
        let stats = if recover {
            let victims: Vec<NodeId> = cfg.node_faults().iter().collect();
            let v = victims[rng.gen_range(0..victims.len())];
            cfg.node_faults_mut().remove(v);
            map.apply_recover(&cfg, v)
        } else {
            let v = loop {
                let v = NodeId::new(rng.gen_range(0..cube.num_nodes()));
                if !cfg.node_faulty(v) {
                    break v;
                }
            };
            cfg.node_faults_mut().insert(v);
            map.apply_fault(&cfg, v)
        };
        out.stats.cells_touched += stats.cells_touched;
        out.stats.cells_changed += stats.cells_changed;
        out.obs.record_rounds(stats.waves as u64);
        out.waves_max = out.waves_max.max(stats.waves);
        out.rounds_saved += stats.rounds_saved as u64;
        // Exactness gate — a real assert (not debug_assert) plus a
        // counted mismatch so `repro churn` can exit nonzero.
        let scratch = SafetyMap::compute(&cfg);
        out.cells_scratch += cube.num_nodes() * scratch.rounds().max(1) as u64;
        if map.store() != scratch.store() {
            out.mismatches += 1;
        }
    }
    let batch: Vec<(NodeId, NodeId)> = (0..pairs).map(|_| random_pair(&cfg, rng)).collect();
    let par = route_many(&cfg, &map, &batch);
    let seq = route_many_seq(&cfg, &map, &batch);
    if par != seq {
        out.mismatches += 1;
    }
    for o in &par {
        out.delivered += o.delivered as u64;
        if o.delivered {
            out.obs.record_hops(o.hops as u64);
        }
        out.checksum = fnv1a(out.checksum, batch_outcome_word(o));
    }
    out
}

/// Runs the sweep; writes `churn.csv` and the obs snapshot pair into
/// `p.out_dir`. Any incremental-vs-scratch or parallel-vs-sequential
/// divergence is a failure.
pub fn run(p: &ChurnParams) -> GateRun {
    let mut rep = Report::new(
        "churn",
        format!(
            "incremental churn + batched routing: {} timelines × {} pairs per point",
            p.trials, p.pairs
        ),
        &[
            "n",
            "events",
            "cells_touched",
            "cells_scratch",
            "scratch/incr",
            "waves_max",
            "rounds_saved",
            "pairs",
            "delivered",
            "route_checksum",
            "mismatches",
        ],
    );
    let mut mismatches = 0u64;
    let mut obs = Metrics::new(0, 0);
    for &n in &p.dims {
        for &events in &p.rates {
            let sweep = Sweep::new(
                p.trials,
                p.seed ^ ((n as u64) << 32) ^ ((events as u64) << 16),
            );
            let outcomes = sweep.run(|_, rng| run_trial(n, events, p.pairs, rng));
            let touched: u64 = outcomes.iter().map(|o| o.stats.cells_touched).sum();
            let scratch: u64 = outcomes.iter().map(|o| o.cells_scratch).sum();
            let saved: u64 = outcomes.iter().map(|o| o.rounds_saved).sum();
            let delivered: u64 = outcomes.iter().map(|o| o.delivered).sum();
            let bad: u64 = outcomes.iter().map(|o| o.mismatches).sum();
            let checksum = outcomes.iter().fold(0u64, |h, o| fnv1a(h, o.checksum));
            mismatches += bad;
            for o in &outcomes {
                obs.merge(&o.obs);
            }
            rep.row(vec![
                n.to_string(),
                events.to_string(),
                touched.to_string(),
                scratch.to_string(),
                f2(scratch as f64 / touched.max(1) as f64),
                outcomes
                    .iter()
                    .map(|o| o.waves_max)
                    .max()
                    .unwrap_or(0)
                    .to_string(),
                (saved / (p.trials as u64 * events as u64).max(1)).to_string(),
                (p.pairs as u64 * p.trials as u64).to_string(),
                delivered.to_string(),
                format!("{checksum:016x}"),
                bad.to_string(),
            ]);
        }
    }
    rep.note(
        "every churn event runs the incremental worklist and is checked byte-for-byte \
         against a from-scratch recompute; cells_scratch is what those recomputes \
         evaluated (2^n x rounds), so scratch/incr is the work ratio the delta engine wins"
            .to_string(),
    );
    rep.note(
        "every batch routes through route_many (vendored-rayon par_chunks) and is \
         compared against the sequential path; all columns are counts/checksums — \
         rerun with a different RAYON_NUM_THREADS and the csv must be byte-identical"
            .to_string(),
    );
    let mut failures = Vec::new();
    if mismatches > 0 {
        failures.push(format!(
            "churn: {mismatches} incremental/batched mismatch(es) — see the mismatches column"
        ));
    }
    let about = "update-wave + batch-route-hop histograms, thread-count independent like the csv";
    failures.extend(export(&mut rep, &p.out_dir, Some((&obs.snapshot(), about))));
    GateRun {
        report: rep,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChurnParams {
        ChurnParams {
            dims: vec![4, 6],
            rates: vec![4, 12],
            trials: 2,
            pairs: 200,
            seed: 9,
            out_dir: std::env::temp_dir().join("hypersafe_churn_test"),
        }
    }

    #[test]
    fn tiny_sweep_is_clean_and_deterministic() {
        let a = run(&tiny());
        let b = run(&tiny());
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.report.rows, b.report.rows);
        let _ = std::fs::remove_dir_all(tiny().out_dir);
    }

    #[test]
    fn incremental_beats_scratch_on_every_row() {
        let run = run(&tiny());
        for row in &run.report.rows {
            let touched: u64 = row[2].parse().unwrap();
            let scratch: u64 = row[3].parse().unwrap();
            assert!(
                scratch > touched,
                "scratch {scratch} should exceed incremental {touched}"
            );
        }
        let _ = std::fs::remove_dir_all(tiny().out_dir);
    }

    #[test]
    fn routing_batches_deliver_in_the_guarantee_regime() {
        let run = run(&tiny());
        for row in &run.report.rows {
            let pairs: u64 = row[7].parse().unwrap();
            let delivered: u64 = row[8].parse().unwrap();
            assert!(delivered * 10 >= pairs * 9, "row {row:?}");
        }
        let _ = std::fs::remove_dir_all(tiny().out_dir);
    }
}
