//! E29 — k-disjoint multi-path unicast (`repro multipath`): path
//! diversity against the Menger bound, message/hop overhead against
//! the single-path router, and tail latency under hotspot load.
//!
//! Three regimes, all gated:
//!
//! * **fault sweep** — `f = 0 .. n−1` uniform node faults on `Q_n`.
//!   Every pair is routed by [`route_disjoint_many`] and cross-checked
//!   against the scalar [`route_disjoint`]; every result must pass
//!   [`check_disjoint_delivery`] (pairwise disjoint, fault-free,
//!   correct endpoints). Gates: on the fault-free cube the fan is
//!   exactly `n` paths (`h` optimal + `n − h` detours); under `f < n`
//!   faults the delivered count reaches the Menger bound
//!   `min(k, n − f)` (unit vertex cuts: `f` faults kill at most `f` of
//!   the `n` disjoint paths), and multi-path delivers on ≥ 1 path
//!   whenever the single-path router does.
//! * **hotspot / incast** — every message aims at one hot node, the
//!   per-link queues of [`LinkLoad`] model head-of-line blocking, and
//!   the multi-path router picks spare dimensions by live queue depth
//!   ([`hypersafe_core::route_disjoint_ranked`]). The CSV reports
//!   first-copy tail latency (p50/p99/max) next to the single-path
//!   router's — queue replay is sequential and seeded, so the
//!   quantiles are exact counts, not wall-clock.
//! * **percolation** — Bernoulli node *and* link failures swept up to
//!   and past the `1 − 1/n` connectivity threshold; pairs are sampled
//!   inside the giant component only. Gate: a giant-component pair is
//!   connected by construction, so `route_disjoint` (a max-flow) must
//!   deliver on ≥ 1 path — a zero there is a routing bug, not a
//!   disconnection.
//!
//! Every CSV column is a count or a checksum; the whole run is a pure
//! function of the seed and is byte-identical at any
//! `RAYON_NUM_THREADS` (CI diffs 1 vs 4).

use crate::gate::{export, fnv1a, GateRun, FNV_OFFSET};
use crate::table::Report;
use hypersafe_core::{
    check_disjoint_delivery, outcome_of, route, route_disjoint, route_disjoint_many,
    route_disjoint_ranked, route_light, MultiOutcome, SafetyMap, TieBreak,
};
use hypersafe_simkit::Metrics;
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Topology};
use hypersafe_workloads::{
    bernoulli_link_faults, bernoulli_node_faults, giant_component_pairs, giant_fraction_bp,
    incast_pairs, link_threshold_bp, uniform_faults, LinkLoad, Sweep,
};
use std::path::PathBuf;

/// Parameters for the multi-path experiment.
#[derive(Clone, Debug)]
pub struct MultipathParams {
    /// Cube dimension for the fault sweep and the hotspot regime.
    pub n: u8,
    /// Requested redundancy (`k`; clamped to `n` by the router).
    pub k: u8,
    /// Random pairs per fault-sweep point.
    pub pairs: usize,
    /// Messages in the incast batch.
    pub hotspot_messages: usize,
    /// Node/link Bernoulli fault densities for the percolation sweep,
    /// in basis points of the cube's link threshold `1 − 1/n` (10 000
    /// = exactly at threshold, values above cross it).
    pub percolation_of_threshold_bp: Vec<u32>,
    /// Pairs per percolation point.
    pub percolation_pairs: usize,
    /// Master seed.
    pub seed: u64,
    /// Where the CSV and the obs snapshot land.
    pub out_dir: PathBuf,
}

impl Default for MultipathParams {
    fn default() -> Self {
        MultipathParams {
            n: 8,
            k: 8,
            pairs: 2_000,
            hotspot_messages: 4_000,
            percolation_of_threshold_bp: vec![2_500, 5_000, 7_500, 10_000, 11_000],
            percolation_pairs: 600,
            seed: 0x000D_1570 ^ 0x2929,
            out_dir: PathBuf::from("results"),
        }
    }
}

fn outcome_word(o: &MultiOutcome) -> u64 {
    (u64::from(o.delivered) << 56)
        | (u64::from(o.optimal) << 48)
        | (u64::from(o.detour) << 40)
        | (u64::from(o.reroute) << 32)
        | (u64::from(o.best_hops) << 16)
        | u64::from(o.total_hops & 0xFFFF)
}

/// Aggregates of one fault-sweep point.
#[derive(Default)]
struct SweepPoint {
    delivered_pairs: u64,
    paths_total: u64,
    optimal: u64,
    detour: u64,
    reroute: u64,
    multi_hops: u64,
    single_hops: u64,
    single_delivered: u64,
    checksum: u64,
    mismatches: u64,
}

fn run_sweep_point(
    p: &MultipathParams,
    f: usize,
    obs: &mut Metrics,
    rng: &mut impl rand::Rng,
) -> SweepPoint {
    let cube = Hypercube::new(p.n);
    let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, f, rng));
    let map = SafetyMap::compute(&cfg);
    let pairs: Vec<(NodeId, NodeId)> = (0..p.pairs)
        .map(|_| hypersafe_workloads::random_pair(&cfg, rng))
        .collect();

    let batch = route_disjoint_many(&cfg, &map, &pairs, p.k);
    let mut out = SweepPoint {
        checksum: FNV_OFFSET,
        ..SweepPoint::default()
    };
    let bound = u64::from(p.k.min(p.n)).min(p.n as u64 - f as u64);
    for (o, &(s, d)) in batch.iter().zip(&pairs) {
        // Batch vs scalar: byte-identical outcomes, and the scalar
        // result passes the structural delivery check.
        let scalar = route_disjoint(&cfg, &map, s, d, p.k);
        if *o != outcome_of(&scalar) {
            out.mismatches += 1;
        }
        if let Err(e) = check_disjoint_delivery(&cfg, s, d, &scalar) {
            out.mismatches += 1;
            eprintln!("multipath: delivery check failed {s} → {d}: {e}");
        }
        // Menger bound: f faults kill at most f of the n disjoint
        // paths between healthy endpoints, so min(k, n − f) always
        // survives. On the fault-free cube this is the exact full fan.
        if u64::from(o.delivered) < bound {
            out.mismatches += 1;
        }
        if f == 0 {
            let h = s.distance(d);
            if u32::from(o.optimal) != h || u32::from(o.detour) != u32::from(p.n) - h {
                out.mismatches += 1;
            }
        }
        // Delivery dominance over the single-path router.
        let single = route_light(&cfg, &map, s, d, TieBreak::LowestDim);
        if single.delivered && o.delivered == 0 {
            out.mismatches += 1;
        }
        out.delivered_pairs += u64::from(o.delivered > 0);
        out.paths_total += u64::from(o.delivered);
        out.optimal += u64::from(o.optimal);
        out.detour += u64::from(o.detour);
        out.reroute += u64::from(o.reroute);
        out.multi_hops += u64::from(o.total_hops);
        out.single_hops += u64::from(single.hops) * u64::from(single.delivered);
        out.single_delivered += u64::from(single.delivered);
        out.checksum = fnv1a(out.checksum, outcome_word(o));
        obs.record_rounds(u64::from(o.delivered));
        if o.delivered > 0 {
            obs.record_hops(u64::from(o.best_hops));
        }
    }
    out
}

/// One hotspot pattern's queueing outcome (all counts are ticks).
struct HotspotPoint {
    delivered: u64,
    p50: u64,
    p99: u64,
    max: u64,
    max_depth: u32,
    hops: u64,
    checksum: u64,
}

/// Replays the incast batch through per-link queues, either on the
/// single-path router or on the congestion-ranked multi-path fan
/// (first-copy latency; every copy consumes queue capacity).
fn run_hotspot(
    p: &MultipathParams,
    multi: bool,
    k: u8,
    obs: &mut Metrics,
    rng: &mut impl rand::Rng,
) -> HotspotPoint {
    let cube = Hypercube::new(p.n);
    let cfg = FaultConfig::fault_free(cube);
    let map = SafetyMap::compute(&cfg);
    let hot = NodeId::new((cube.num_nodes() - 1) / 3);
    let pairs = incast_pairs(&cfg, hot, p.hotspot_messages, rng);

    let mut load = LinkLoad::new(cube, 1);
    let mut hist = hypersafe_simkit::QuantileHist::new();
    let mut delivered = 0u64;
    let mut hops = 0u64;
    let mut checksum = FNV_OFFSET;
    for &(s, d) in &pairs {
        let arrival = if multi {
            let res = route_disjoint_ranked(&cfg, &map, s, d, k, &|a, j| load.cost(a, j));
            hops += u64::from(res.total_hops());
            res.paths.iter().map(|dp| load.traverse(&dp.path, 0)).min()
        } else {
            let res = route(&cfg, &map, s, d);
            res.path.as_ref().filter(|_| res.delivered).map(|path| {
                hops += u64::from(path.len());
                load.traverse(path, 0)
            })
        };
        if let Some(t) = arrival {
            delivered += 1;
            hist.record(t);
            if multi {
                obs.latency.record(t);
            }
            checksum = fnv1a(checksum, t);
        }
    }
    let q = hist.quantiles();
    HotspotPoint {
        delivered,
        p50: q.p50,
        p99: q.p99,
        max: q.max,
        max_depth: load.max_depth(),
        hops,
        checksum,
    }
}

/// One percolation point's aggregates.
struct PercoPoint {
    fault_bp: u32,
    giant_bp: u32,
    routable: usize,
    delivered_pairs: u64,
    paths_total: u64,
    single_delivered: u64,
    checksum: u64,
    mismatches: u64,
}

fn run_percolation_point(
    p: &MultipathParams,
    of_threshold_bp: u32,
    obs: &mut Metrics,
    rng: &mut impl rand::Rng,
) -> PercoPoint {
    let cube = Hypercube::new(p.n);
    // Scale both failure processes off the link threshold so the sweep
    // brackets the transition: node failures at a tenth of the link
    // rate (nodes are far deadlier — one node kills n links).
    let link_bp = (u64::from(link_threshold_bp(p.n)) * u64::from(of_threshold_bp) / 10_000) as u32;
    let node_bp = link_bp / 10;
    let nodes = bernoulli_node_faults(cube, node_bp, rng);
    let links = bernoulli_link_faults(cube, link_bp, rng);
    // Safety levels are defined over node faults (EGS is the link
    // extension); here the map only orders fan candidates, while the
    // max-flow itself checks the full fault config link by link.
    let map = SafetyMap::compute(&FaultConfig::with_node_faults(cube, nodes.clone()));
    let cfg = FaultConfig::with_faults(cube, nodes, links);
    let pairs = giant_component_pairs(&cfg, p.percolation_pairs, rng);

    let batch = route_disjoint_many(&cfg, &map, &pairs, p.k);
    let mut out = PercoPoint {
        fault_bp: link_bp,
        giant_bp: giant_fraction_bp(&cfg),
        routable: pairs.len(),
        delivered_pairs: 0,
        paths_total: 0,
        single_delivered: 0,
        checksum: FNV_OFFSET,
        mismatches: 0,
    };
    for (o, &(s, d)) in batch.iter().zip(&pairs) {
        // A giant-component pair is connected, and route_disjoint is a
        // max-flow over the faulty graph: zero delivered paths would
        // be a router bug, not a disconnection.
        if o.delivered == 0 {
            out.mismatches += 1;
            eprintln!("multipath: giant-component pair {s} → {d} undelivered");
        }
        let single = route_light(&cfg, &map, s, d, TieBreak::LowestDim);
        out.delivered_pairs += u64::from(o.delivered > 0);
        out.paths_total += u64::from(o.delivered);
        out.single_delivered += u64::from(single.delivered);
        out.checksum = fnv1a(out.checksum, outcome_word(o));
        obs.record_rounds(u64::from(o.delivered));
    }
    out
}

/// Runs E29; writes `multipath.csv` and `multipath_obs.{json,csv}`
/// into `p.out_dir`. Any contract violation is a failure.
pub fn run(p: &MultipathParams) -> GateRun {
    let mut rep = Report::new(
        "multipath",
        format!(
            "k-disjoint multi-path unicast (k = {}, Q_{}): diversity vs the Menger \
             bound, hop overhead vs single-path, hotspot tail latency, percolation",
            p.k, p.n
        ),
        &[
            "regime",
            "point",
            "pairs",
            "delivered",
            "paths",
            "optimal",
            "detour",
            "reroute",
            "multi_hops",
            "single_hops",
            "single_delivered",
            "p50",
            "p99",
            "max",
            "checksum",
            "mismatches",
        ],
    );
    let mut mismatches = 0u64;
    let mut obs = Metrics::new(0, 0);

    // -- fault sweep ------------------------------------------------------
    for f in 0..p.n as usize {
        let sweep = Sweep::new(1, p.seed ^ ((f as u64) << 24));
        let mut rng = sweep.trial_rng(0);
        let o = run_sweep_point(p, f, &mut obs, &mut rng);
        mismatches += o.mismatches;
        rep.row(vec![
            "faults".into(),
            f.to_string(),
            p.pairs.to_string(),
            o.delivered_pairs.to_string(),
            o.paths_total.to_string(),
            o.optimal.to_string(),
            o.detour.to_string(),
            o.reroute.to_string(),
            o.multi_hops.to_string(),
            o.single_hops.to_string(),
            o.single_delivered.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{:016x}", o.checksum),
            o.mismatches.to_string(),
        ]);
    }

    // -- hotspot / incast -------------------------------------------------
    // k = 2 for the latency race: one optimal copy plus one
    // queue-depth-ranked spare detour per message.
    for (label, multi, k) in [
        ("single", false, 1u8),
        ("multi_k2", true, 2),
        (&*format!("multi_k{}", p.k), true, p.k),
    ] {
        let sweep = Sweep::new(1, p.seed ^ 0x0007_5F07);
        let mut rng = sweep.trial_rng(0);
        let h = run_hotspot(p, multi, k, &mut obs, &mut rng);
        rep.row(vec![
            "hotspot".into(),
            label.into(),
            p.hotspot_messages.to_string(),
            h.delivered.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            h.hops.to_string(),
            "-".into(),
            "-".into(),
            h.p50.to_string(),
            h.p99.to_string(),
            h.max.to_string(),
            format!("{:016x}", h.checksum),
            0.to_string(),
        ]);
        rep.note(format!(
            "hotspot/{label}: max queue depth {} across {} directed links",
            h.max_depth,
            u64::from(p.n) << p.n,
        ));
    }

    // -- percolation ------------------------------------------------------
    for &bp in &p.percolation_of_threshold_bp {
        let sweep = Sweep::new(1, p.seed ^ (u64::from(bp) << 16) ^ 0x9E37);
        let mut rng = sweep.trial_rng(0);
        let o = run_percolation_point(p, bp, &mut obs, &mut rng);
        mismatches += o.mismatches;
        rep.row(vec![
            "percolation".into(),
            format!("{bp}bp_of_thr"),
            o.routable.to_string(),
            o.delivered_pairs.to_string(),
            o.paths_total.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            o.single_delivered.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{:016x}", o.checksum),
            o.mismatches.to_string(),
        ]);
        rep.note(format!(
            "percolation {bp} bp of threshold: link faults {} bp, giant component \
             holds {} bp of healthy nodes",
            o.fault_bp, o.giant_bp
        ));
    }

    rep.note(
        "gates: batch == scalar per pair, structural disjoint-delivery check, \
         delivered >= min(k, n - f) under f < n faults (exact full fan at f = 0), \
         multi delivers whenever single-path does, and every giant-component \
         percolation pair delivers on >= 1 path — mismatches must be 0"
            .to_string(),
    );
    rep.note(
        "all columns are counts/checksums; hotspot latency quantiles are virtual \
         queue ticks from a sequential seeded replay — byte-identical at any \
         RAYON_NUM_THREADS"
            .to_string(),
    );
    let mut failures = Vec::new();
    if mismatches > 0 {
        failures.push(format!(
            "multipath: {mismatches} contract violation(s) — see the mismatches column"
        ));
    }
    let about = "diversity in rounds, best-copy hops, hotspot latency";
    failures.extend(export(&mut rep, &p.out_dir, Some((&obs.snapshot(), about))));
    GateRun {
        report: rep,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MultipathParams {
        MultipathParams {
            n: 5,
            k: 5,
            pairs: 150,
            hotspot_messages: 200,
            percolation_of_threshold_bp: vec![5_000, 10_000],
            percolation_pairs: 80,
            seed: 23,
            out_dir: std::env::temp_dir().join("hypersafe_multipath_test"),
        }
    }

    #[test]
    fn tiny_run_is_clean() {
        let run = run(&tiny());
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        let _ = std::fs::remove_dir_all(tiny().out_dir);
    }

    #[test]
    fn csv_rows_are_deterministic() {
        let a = run(&tiny());
        let b = run(&tiny());
        assert_eq!(a.report.rows, b.report.rows);
        let _ = std::fs::remove_dir_all(tiny().out_dir);
    }
}
