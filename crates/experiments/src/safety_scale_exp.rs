//! E27 — packed safety storage at scale (`repro safety-scale`): run
//! the bit-plane safety kernels on million-node cubes and hold them to
//! the paper's semantics byte-for-byte.
//!
//! For each dimension the experiment times [`SafetyMap::compute`]
//! (Jacobi rounds over the fault frontier, sweeping the bit-planes when
//! a round's changes are many) and
//! [`SafetyMap::compute_constructive`], cross-checks the two stores
//! against each other, and — up to `reference_max_dim` — against the
//! scalar [`SafetyMap::compute_reference_levels`] oracle. It then
//! drives a fault/recover churn tail through the incremental worklist
//! ([`SafetyMap::apply_fault`] / [`SafetyMap::apply_recover`]), timing
//! each single-event update and periodically recomputing from scratch
//! to confirm the packed store landed on the identical fixed point.
//! Finally it replays a batched routing workload sequentially and
//! through [`route_many`]'s chunked fan-out, as the before/after for
//! the `for_each_chunk_pair` rewrite.
//!
//! The CSV contains only deterministic columns (counts, rounds,
//! bytes/node, checksums) so reruns diff clean at any thread count;
//! wall-clock numbers go only to the report notes.

use crate::gate::{batch_outcome_word, export, fnv1a, GateRun, FNV_OFFSET};
use crate::table::Report;
use hypersafe_core::{route_many, route_many_seq, SafetyMap};
use hypersafe_simkit::Metrics;
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Topology};
use hypersafe_workloads::{random_pair, uniform_faults, Sweep};
use rand::Rng;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Parameters for the scale run.
#[derive(Clone, Debug)]
pub struct SafetyScaleParams {
    /// Cube dimensions to sweep (2²⁰ = 1,048,576 nodes at the top).
    pub dims: Vec<u8>,
    /// Faulty nodes per instance, as a multiple of `n`.
    pub fault_factor: usize,
    /// Churn events in the incremental tail per dimension.
    pub events: u32,
    /// Largest dimension the scalar reference oracle cross-checks
    /// (it walks every (node, neighbor) pair per round, so letting it
    /// loose at n = 20 would dominate the run).
    pub reference_max_dim: u8,
    /// Dimension for the batched-routing before/after.
    pub route_dim: u8,
    /// Pairs in the batched-routing workload.
    pub route_pairs: usize,
    /// Master seed.
    pub seed: u64,
    /// Where the CSV and obs snapshot land.
    pub out_dir: PathBuf,
}

impl Default for SafetyScaleParams {
    fn default() -> Self {
        SafetyScaleParams {
            dims: vec![14, 16, 18, 20],
            fault_factor: 2,
            events: 16,
            reference_max_dim: 16,
            route_dim: 14,
            route_pairs: 1_000_000,
            seed: 0x5CA1E,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// Mean nanoseconds per call of `f`, over `reps` calls.
fn time_ns<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

/// One dimension's outcome.
struct DimOutcome {
    faults: usize,
    rounds: u32,
    bytes_per_node: f64,
    level_checksum: u64,
    /// Equivalence failures: constructive vs Jacobi, packed vs scalar
    /// reference, incremental vs scratch.
    mismatches: u64,
    /// Whether the scalar oracle ran at this dimension.
    referenced: bool,
    jacobi_ns: f64,
    constructive_ns: f64,
    reference_ns: Option<f64>,
    incr_fault_ns: f64,
    incr_recover_ns: f64,
}

fn run_dim<R: Rng + ?Sized>(p: &SafetyScaleParams, n: u8, reps: u32, rng: &mut R) -> DimOutcome {
    let cube = Hypercube::new(n);
    let faults = uniform_faults(cube, p.fault_factor * n as usize, rng);
    let m = faults.len();
    let cfg = FaultConfig::with_node_faults(cube, faults);

    let jacobi_ns = time_ns(reps, || SafetyMap::compute(&cfg));
    let constructive_ns = time_ns(reps, || SafetyMap::compute_constructive(&cfg));

    let mut map = SafetyMap::compute(&cfg);
    let cons = SafetyMap::compute_constructive(&cfg);
    let mut mismatches = (map.store() != cons.store()) as u64;

    let referenced = n <= p.reference_max_dim;
    let reference_ns = if referenced {
        let ns = time_ns(1, || SafetyMap::compute_reference_levels(&cfg));
        if map.to_vec() != SafetyMap::compute_reference_levels(&cfg) {
            mismatches += 1;
        }
        Some(ns)
    } else {
        None
    };

    let bytes_per_node = map.store().memory_bytes() as f64 / cube.num_nodes() as f64;
    let level_checksum = map
        .store()
        .to_vec()
        .iter()
        .fold(FNV_OFFSET, |h, &l| fnv1a(h, l as u64));
    let rounds = map.rounds();

    // Incremental tail: single-event updates on the packed store,
    // periodically pinned against a from-scratch plane recompute.
    let mut cfg = cfg;
    let mut fault_total = 0f64;
    let mut fault_events = 0u32;
    let mut recover_total = 0f64;
    let mut recover_events = 0u32;
    for ev in 0..p.events {
        let live = cfg.node_faults().len();
        let recover = live > 0 && (live >= (n as usize * p.fault_factor + 4) || ev % 3 == 2);
        if recover {
            let victims: Vec<NodeId> = cfg.node_faults().iter().collect();
            let v = victims[rng.gen_range(0..victims.len())];
            cfg.node_faults_mut().remove(v);
            let t = Instant::now();
            black_box(map.apply_recover(&cfg, v));
            recover_total += t.elapsed().as_nanos() as f64;
            recover_events += 1;
        } else {
            let v = loop {
                let v = NodeId::new(rng.gen_range(0..cube.num_nodes()));
                if !cfg.node_faulty(v) {
                    break v;
                }
            };
            cfg.node_faults_mut().insert(v);
            let t = Instant::now();
            black_box(map.apply_fault(&cfg, v));
            fault_total += t.elapsed().as_nanos() as f64;
            fault_events += 1;
        }
        if ev % 8 == 7 && map.store() != SafetyMap::compute(&cfg).store() {
            mismatches += 1;
        }
    }
    if map.store() != SafetyMap::compute(&cfg).store() {
        mismatches += 1;
    }

    DimOutcome {
        faults: m,
        rounds,
        bytes_per_node,
        level_checksum,
        mismatches,
        referenced,
        jacobi_ns,
        constructive_ns,
        reference_ns,
        incr_fault_ns: fault_total / fault_events.max(1) as f64,
        incr_recover_ns: recover_total / recover_events.max(1) as f64,
    }
}

/// Batched-routing before/after at `route_dim`: sequential loop vs the
/// chunked fan-out, equivalence-checked element-for-element.
struct RouteOutcome {
    seq_ns_per_route: f64,
    chunked_ns_per_route: f64,
    delivered: u64,
    checksum: u64,
    mismatches: u64,
}

fn run_route<R: Rng + ?Sized>(p: &SafetyScaleParams, rng: &mut R) -> RouteOutcome {
    let cube = Hypercube::new(p.route_dim);
    let faults = uniform_faults(cube, p.fault_factor * p.route_dim as usize, rng);
    let cfg = FaultConfig::with_node_faults(cube, faults);
    let map = SafetyMap::compute(&cfg);
    let pairs: Vec<(NodeId, NodeId)> = (0..p.route_pairs).map(|_| random_pair(&cfg, rng)).collect();

    let seq_ns = time_ns(1, || route_many_seq(&cfg, &map, &pairs));
    let chunked_ns = time_ns(1, || route_many(&cfg, &map, &pairs));
    let seq = route_many_seq(&cfg, &map, &pairs);
    let par = route_many(&cfg, &map, &pairs);

    let mut out = RouteOutcome {
        seq_ns_per_route: seq_ns / pairs.len() as f64,
        chunked_ns_per_route: chunked_ns / pairs.len() as f64,
        delivered: 0,
        checksum: FNV_OFFSET,
        mismatches: (par != seq) as u64,
    };
    for o in &par {
        out.delivered += o.delivered as u64;
        out.checksum = fnv1a(out.checksum, batch_outcome_word(o));
    }
    out
}

/// Runs the scale experiment; writes `safety_scale.csv` and the obs
/// snapshot into `p.out_dir`. Any packed-vs-reference mismatch, and a
/// store above 1 byte/node, is a failure.
pub fn run(p: &SafetyScaleParams) -> GateRun {
    let mut rep = Report::new(
        "safety_scale",
        format!(
            "packed bit-plane safety storage at scale: full compute + {}-event \
             incremental tail per dimension",
            p.events
        ),
        &[
            "n",
            "nodes",
            "faults",
            "rounds",
            "bytes/node",
            "level_checksum",
            "ref_checked",
            "mismatches",
        ],
    );
    let mut mismatches = 0u64;
    let mut max_bpn = 0f64;
    let mut obs = Metrics::new(0, 0);

    for &n in &p.dims {
        // Enough reps to steady the small dims without letting the
        // million-node computes repeat eight times.
        let reps = match n {
            0..=14 => 8,
            15..=16 => 4,
            17..=18 => 2,
            _ => 1,
        };
        let sweep = Sweep::new(1, p.seed ^ ((n as u64) << 32));
        let mut rng = sweep.trial_rng(0);
        let o = run_dim(p, n, reps, &mut rng);
        let nodes = 1u64 << n;
        mismatches += o.mismatches;
        max_bpn = max_bpn.max(o.bytes_per_node);
        obs.record_rounds(o.rounds as u64);
        rep.row(vec![
            n.to_string(),
            nodes.to_string(),
            o.faults.to_string(),
            o.rounds.to_string(),
            format!("{:.4}", o.bytes_per_node),
            format!("{:016x}", o.level_checksum),
            o.referenced.to_string(),
            o.mismatches.to_string(),
        ]);
        rep.note(format!(
            "n={n}: jacobi {:.2} ms ({:.1} ns/node), constructive {:.2} ms, \
             incremental fault {:.1} us, recover {:.1} us{}",
            o.jacobi_ns / 1e6,
            o.jacobi_ns / nodes as f64,
            o.constructive_ns / 1e6,
            o.incr_fault_ns / 1e3,
            o.incr_recover_ns / 1e3,
            match o.reference_ns {
                Some(r) => format!(", scalar reference {:.2} ms", r / 1e6),
                None => String::new(),
            },
        ));
    }

    let sweep = Sweep::new(1, p.seed ^ 0xB007);
    let mut rng = sweep.trial_rng(0);
    let r = run_route(p, &mut rng);
    mismatches += r.mismatches;
    rep.note(format!(
        "route_many n={} x {} pairs: seq {:.1} ns/route, chunked {:.1} ns/route \
         (threads={}), delivered {}, checksum {:016x}",
        p.route_dim,
        p.route_pairs,
        r.seq_ns_per_route,
        r.chunked_ns_per_route,
        rayon::num_threads(),
        r.delivered,
        r.checksum,
    ));

    rep.note(
        "every dimension cross-checks constructive vs Jacobi plane stores, the \
         packed map vs the scalar reference (up to ref_checked), and the \
         incremental tail vs from-scratch recomputes — mismatches must be 0"
            .to_string(),
    );
    rep.note(format!(
        "bytes/node ceiling across the sweep: {max_bpn:.4} (gate: <= 1.0; the \
         packed store is 4 bits/node up to n = 15 plus a fifth plane above)"
    ));
    rep.note("csv columns are counts and checksums only; timings live in these notes".to_string());
    let mut failures = Vec::new();
    if mismatches > 0 {
        failures.push(format!(
            "safety-scale: {mismatches} packed-vs-reference mismatch(es)"
        ));
    }
    if max_bpn > 1.0 {
        failures.push(format!(
            "safety-scale: store exceeds 1 byte/node ({max_bpn:.4})"
        ));
    }
    let about = "compute-round histogram";
    failures.extend(export(&mut rep, &p.out_dir, Some((&obs.snapshot(), about))));
    GateRun {
        report: rep,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::files_in;

    fn tiny(dir: &str) -> SafetyScaleParams {
        SafetyScaleParams {
            dims: vec![6, 8],
            fault_factor: 2,
            events: 6,
            reference_max_dim: 8,
            route_dim: 6,
            route_pairs: 500,
            seed: 11,
            out_dir: std::env::temp_dir().join(dir),
        }
    }

    #[test]
    fn tiny_run_is_clean() {
        let p = tiny("hypersafe_safety_scale_test");
        let _ = std::fs::remove_dir_all(&p.out_dir);
        let run = run(&p);
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        assert_eq!(
            files_in(&p.out_dir),
            [
                "safety_scale.csv",
                "safety_scale_obs.csv",
                "safety_scale_obs.json"
            ],
            "the gate writes its CSV and snapshot and nothing else"
        );
        let _ = std::fs::remove_dir_all(p.out_dir);
    }

    #[test]
    fn csv_rows_are_deterministic() {
        let p = tiny("hypersafe_safety_scale_determinism_test");
        let a = run(&p);
        let b = run(&p);
        assert_eq!(a.report.rows, b.report.rows);
        let _ = std::fs::remove_dir_all(p.out_dir);
    }
}
