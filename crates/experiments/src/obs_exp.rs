//! E25 — observability snapshot (`repro obs`): run the reliable
//! GS + unicast stack with the [`hypersafe_simkit::obs`] metrics
//! registry installed, aggregate per-node / per-dimension counters and
//! the latency/hop/quiescence histograms across a seeded sweep, and
//! export the merged [`MetricsSnapshot`] as `obs_metrics.json` /
//! `obs_metrics.csv` — the machine-readable companion to the other
//! experiments' CSVs (CI validates the JSON against
//! `tests/goldens/obs_schema.json`). Also demonstrates the
//! [`FlightRecorder`]: a bounded ring that keeps the *last N* trace
//! events of a run instead of an unbounded trace.

use crate::gate::{export, GateRun};
use crate::table::{f2, Report};
use hypersafe_core::{route, run_gs_reliable, run_unicast_lossy, SafetyMap};
use hypersafe_simkit::{
    Actor, Ctx, EventEngine, FlightRecorder, Metrics, MetricsSnapshot, Net, Quantiles,
    ReliableConfig, RunOptions, Severity,
};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Topology};
use hypersafe_workloads::{random_pair, uniform_faults, Sweep, STANDARD_PROFILES};
use rand::Rng;
use std::path::PathBuf;

/// Parameters for the observability sweep.
#[derive(Clone, Debug)]
pub struct ObsParams {
    /// Cube dimension.
    pub n: u8,
    /// Faults per instance.
    pub faults: usize,
    /// Instances (one GS convergence each).
    pub trials: u32,
    /// Unicast pairs per instance.
    pub pairs_per_instance: u32,
    /// Event budget per protocol run.
    pub event_budget: u64,
    /// Master seed.
    pub seed: u64,
    /// When set, `obs.csv` and the snapshot (`obs_metrics.json` /
    /// `obs_metrics.csv`) land here.
    pub out_dir: Option<PathBuf>,
}

impl Default for ObsParams {
    fn default() -> Self {
        ObsParams {
            n: 6,
            faults: 4,
            trials: 12,
            pairs_per_instance: 4,
            event_budget: 2_000_000,
            seed: 0x0B5,
            out_dir: None,
        }
    }
}

/// Flood used for the flight-recorder demonstration: enough traffic to
/// overflow a small ring, with kills mixed in so the severity filter
/// has something to keep.
struct Flood {
    neighbors: Vec<NodeId>,
    seen: bool,
}

impl Actor for Flood {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Ctx<()>) {
        if ctx.self_id() == NodeId::ZERO {
            self.seen = true;
            for i in 0..self.neighbors.len() {
                ctx.send(self.neighbors[i], (), 1);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<()>, _from: NodeId, _msg: ()) {
        if !self.seen {
            self.seen = true;
            for i in 0..self.neighbors.len() {
                ctx.send(self.neighbors[i], (), 1);
            }
        }
    }
}

/// Floods an `n`-cube with a [`FlightRecorder`] of capacity `cap`
/// attached (Warn-and-above only, so the ring keeps kill notes rather
/// than drowning in per-hop Debug noise), killing a couple of nodes
/// mid-flood. Returns the recovered recorder.
fn flight_recorder_demo(n: u8, cap: usize) -> FlightRecorder {
    let cube = Hypercube::new(n);
    let cfg = FaultConfig::fault_free(cube);
    let net = Net::cube(&cfg);
    let mut eng = EventEngine::new(&net, |a| Flood {
        neighbors: (0..net.degree())
            .map(|p| NodeId::new(net.neighbor(a.raw(), p)))
            .collect(),
        seen: false,
    });
    // Every hop is recorded as Debug; keep everything so the ring
    // demonstrably overflows, then read back what survived.
    eng.set_trace(Box::new(
        FlightRecorder::new(cap).with_min_severity(Severity::Debug),
    ));
    eng.inject_kill(NodeId::new(1), 1);
    eng.inject_kill(NodeId::new(2), 2);
    eng.run(u64::MAX);
    eng.take_trace()
        .expect("recorder installed")
        .into_flight_recorder()
        .expect("FlightRecorder sink")
}

fn hist_row(rep: &mut Report, name: &str, q: &Quantiles) {
    rep.row(vec![
        name.to_string(),
        q.count.to_string(),
        f2(q.mean),
        q.p50.to_string(),
        q.p95.to_string(),
        q.p99.to_string(),
        q.max.to_string(),
    ]);
}

/// Runs the sweep; with `p.out_dir` set, writes `obs.csv`,
/// `obs_metrics.json` and `obs_metrics.csv` there. A failed write is
/// the only failure.
pub fn run(p: &ObsParams) -> GateRun {
    let (mut report, snapshot) = measure(p);
    let snap = (&snapshot, "merged reliable GS + unicast registry");
    let failures = p
        .out_dir
        .as_deref()
        .map_or_else(Vec::new, |dir| export(&mut report, dir, Some(snap)));
    GateRun { report, failures }
}

/// The sweep itself: the summary table (one row per histogram, notes
/// carrying totals, per-dimension balance, and the flight-recorder
/// demonstration) and the merged cross-trial snapshot.
fn measure(p: &ObsParams) -> (Report, MetricsSnapshot) {
    let cube = Hypercube::new(p.n);
    let rcfg = ReliableConfig::default();
    // The "moderate" profile: loss + jitter + duplication all nonzero,
    // so every counter and histogram gets exercised.
    let prof = STANDARD_PROFILES
        .iter()
        .find(|pr| pr.name == "moderate")
        .expect("standard profile");
    let sweep = Sweep::new(p.trials, p.seed);
    let per_trial: Vec<Metrics> = sweep.run(|_, rng| {
        let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, p.faults, rng));
        let central = SafetyMap::compute(&cfg);
        let observed = |channel| RunOptions {
            channel: Some(channel),
            max_events: p.event_budget,
            observe: true,
            ..RunOptions::default()
        };
        let (_, report) = run_gs_reliable(&cfg, rcfg, 1, observed(prof.channel(rng.gen())));
        let mut m = report.metrics.expect("observed");
        for _ in 0..p.pairs_per_instance {
            let (s, d) = random_pair(&cfg, rng);
            if s == d || !route(&cfg, &central, s, d).delivered {
                continue;
            }
            let opts = observed(prof.channel(rng.gen()));
            let (_, report) = run_unicast_lossy(&cfg, &central, s, d, 1, rcfg, opts);
            m.merge(&report.metrics.expect("observed"));
        }
        m
    });
    let mut agg = Metrics::new(cube.num_nodes() as usize, p.n as usize);
    for m in &per_trial {
        agg.merge(m);
    }
    let snapshot = agg.snapshot();

    let mut rep = Report::new(
        "obs",
        format!(
            "observability snapshot: reliable GS + unicast, {}-cube, {} faults, {} instances, \
             '{}' channel profile",
            p.n, p.faults, p.trials, prof.name
        ),
        &["histogram", "count", "mean", "p50", "p95", "p99", "max"],
    );
    hist_row(&mut rep, "transit_latency(ticks)", &snapshot.latency);
    hist_row(&mut rep, "unicast_hops", &snapshot.hops);
    hist_row(&mut rep, "time_to_done(ticks)", &snapshot.rounds);
    let t = &snapshot.totals;
    rep.note(format!(
        "totals: sends={} delivered={} dropped={} lost={} duplicated={} retransmitted={} \
         acked={} timers={} (channel drew {} fate decisions)",
        t.sends,
        t.delivered,
        t.dropped,
        t.lost,
        t.duplicated,
        t.retransmitted,
        t.acked,
        t.timers,
        snapshot.channel_decisions
    ));
    let dim_sent: Vec<u64> = snapshot.per_dim.iter().map(|(_, d)| d.sent).collect();
    if let (Some(&max), Some(&min)) = (dim_sent.iter().max(), dim_sent.iter().min()) {
        rep.note(format!(
            "per-dimension send balance: min {min}, max {max} across {} dimensions \
             (GS announcements are symmetric; unicast load follows the fault geometry)",
            dim_sent.len()
        ));
    }
    rep.note(format!(
        "conservation check: delivered + dropped + lost = {} vs sends + duplicated = {}",
        t.delivered + t.dropped + t.lost,
        t.sends + t.duplicated
    ));
    let fr = flight_recorder_demo(p.n.min(5), 48);
    rep.note(format!(
        "flight recorder (cap 48, {}-cube flood with 2 kills): admitted {} events, kept the \
         last {}, evicted {}",
        p.n.min(5),
        fr.seen(),
        fr.seen() - fr.evicted(),
        fr.evicted()
    ));
    (rep, snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ObsParams {
        ObsParams {
            n: 4,
            faults: 2,
            trials: 3,
            pairs_per_instance: 2,
            event_budget: 500_000,
            seed: 5,
            out_dir: Some(std::env::temp_dir().join("hypersafe_obs_test")),
        }
    }

    #[test]
    fn snapshot_respects_conservation_and_is_deterministic() {
        let (a_rep, a) = measure(&tiny());
        let (b_rep, b) = measure(&tiny());
        let t = &a.totals;
        assert_eq!(
            t.delivered + t.dropped + t.lost,
            t.sends + t.duplicated,
            "conservation law over the merged sweep"
        );
        assert!(t.sends > 0);
        assert!(a.latency.count > 0);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a_rep.rows, b_rep.rows);
    }

    #[test]
    fn snapshot_files_are_written() {
        let p = tiny();
        let dir = p.out_dir.clone().unwrap();
        assert!(run(&p).failures.is_empty());
        let json = std::fs::read_to_string(dir.join("obs_metrics.json")).unwrap();
        let csv = std::fs::read_to_string(dir.join("obs_metrics.csv")).unwrap();
        assert!(json.starts_with("{\"schema\":\"hypersafe.obs.v1\""));
        assert!(csv.starts_with("scope,index,field,value\n"));
        hypersafe_simkit::parse_json(&json).expect("exported JSON parses");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn flight_recorder_overflows_and_keeps_the_tail() {
        let fr = flight_recorder_demo(4, 8);
        assert!(fr.seen() > 8, "the flood must overflow the ring");
        assert_eq!(fr.seen() - fr.evicted(), 8, "exactly cap events kept");
    }
}
