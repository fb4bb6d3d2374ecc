//! E21 — routing *time* under load. The paper's introduction motivates
//! limited-global information with "global optimization, such as time
//! and traffic in routing"; E17 measured traffic, this experiment
//! measures time: a queueing simulation where each node serves one
//! message per service interval, so concentrated routes create
//! head-of-line blocking. Compares tie-break policies by delivered
//! latency under increasing load.

use crate::table::{f2, Report};
use hypersafe_core::{
    intermediate_dim_tb, source_decision_tb, Decision, NavVector, SafetyMap, TieBreak,
};
use hypersafe_simkit::{Actor, Ctx, EventEngine, Net, Time};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId};
use hypersafe_workloads::{mean, random_pair, uniform_faults, Sweep};

/// A routed job in flight.
#[derive(Clone, Copy, Debug)]
struct Job {
    nav: NavVector,
    id: u32,
    started: Time,
}

/// Queueing router node: one message per `service` ticks.
struct QueueNode<'m> {
    map: &'m SafetyMap,
    tb: TieBreak,
    service: Time,
    busy_until: Time,
    /// The burst: job `i` goes from `pairs[i].0` to `pairs[i].1`, and
    /// its source starts it on the timer tagged `i`.
    pairs: &'m [(NodeId, NodeId)],
    /// Completions observed at this node: (id, end_time, start_time).
    completed: Vec<(u32, Time, Time)>,
}

impl QueueNode<'_> {
    /// The policy for one job: `Hashed` is salted by the job id.
    fn tie_break(&self, job: &Job) -> TieBreak {
        match self.tb {
            TieBreak::Hashed { .. } => TieBreak::Hashed {
                salt: job.id as u64,
            },
            other => other,
        }
    }

    /// Sends `job` across `dim`, or records its arrival here.
    fn forward(&mut self, ctx: &mut Ctx<Job>, mut job: Job, dim: Option<u8>) {
        let at = ctx.self_id();
        if job.nav.is_done() {
            self.completed.push((job.id, ctx.now(), job.started));
            return;
        }
        let Some(dim) = dim else {
            return;
        };
        job.nav = job.nav.after_hop(dim);
        // Head-of-line blocking: the node has a single injection
        // channel (not per-port), so any send frees up only after the
        // previous one finished its service interval.
        let depart = self.busy_until.max(ctx.now()) + self.service;
        self.busy_until = depart;
        ctx.send(at.neighbor(dim), job, depart - ctx.now());
    }
}

impl Actor for QueueNode<'_> {
    type Msg = Job;

    fn on_timer(&mut self, ctx: &mut Ctx<Job>, tag: u64) {
        let (s, d) = self.pairs[tag as usize];
        let job = Job {
            nav: NavVector::new(s, d),
            id: tag as u32,
            started: ctx.now(),
        };
        // The source decision: a Failure pair is aborted here, a C3
        // pair leaves on its spare dimension.
        let dim = match source_decision_tb(self.map, s, d, self.tie_break(&job)) {
            Decision::Optimal { first_dim, .. } | Decision::Suboptimal { first_dim } => {
                Some(first_dim)
            }
            Decision::Failure | Decision::AlreadyThere => None,
        };
        self.forward(ctx, job, dim);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Job>, _from: NodeId, job: Job) {
        let dim = intermediate_dim_tb(self.map, ctx.self_id(), job.nav, self.tie_break(&job));
        self.forward(ctx, job, dim);
    }
}

/// Simulation summary for one load point.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Jobs delivered.
    pub delivered: u64,
    /// Mean end-to-end latency (ticks).
    pub mean_latency: f64,
    /// 100th-percentile latency.
    pub max_latency: u64,
    /// Mean latency divided by the job's Hamming distance × service —
    /// the queueing slowdown factor (1.0 = no contention).
    pub slowdown: f64,
}

/// Runs `jobs` unicasts injected in a burst at t = 0 over one faulty
/// instance, with per-node service time 1.
pub fn simulate_burst(
    cfg: &FaultConfig,
    map: &SafetyMap,
    pairs: &[(NodeId, NodeId)],
    tb: TieBreak,
) -> LatencySummary {
    let completed = run_burst(cfg, map, pairs, tb);
    let mut latencies = Vec::new();
    let mut slowdowns = Vec::new();
    for &(id, end, start) in &completed {
        let lat = end - start;
        latencies.push(lat as f64);
        let (s, d) = pairs[id as usize];
        slowdowns.push(lat as f64 / s.distance(d).max(1) as f64);
    }
    LatencySummary {
        delivered: latencies.len() as u64,
        mean_latency: mean(&latencies),
        max_latency: latencies.iter().cloned().fold(0.0, f64::max) as u64,
        slowdown: mean(&slowdowns),
    }
}

/// [`simulate_burst`]'s completions `(job, end, start)`, by
/// destination node and, within a node, in arrival order; `job`
/// indexes `pairs`, and an undelivered job has no entry.
pub fn run_burst(
    cfg: &FaultConfig,
    map: &SafetyMap,
    pairs: &[(NodeId, NodeId)],
    tb: TieBreak,
) -> Vec<(u32, Time, Time)> {
    let net = Net::cube(cfg);
    let mut eng = EventEngine::new(&net, |_| QueueNode {
        map,
        tb,
        service: 1,
        busy_until: 0,
        pairs,
        completed: Vec::new(),
    });
    // Inject by ascending source, each source's jobs in burst order:
    // the engine breaks same-time ties by insertion sequence.
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_by_key(|&i| pairs[i].0.raw());
    for i in order {
        eng.inject(pairs[i].0, i as u64, 0);
    }
    eng.run(u64::MAX);
    cfg.cube()
        .nodes()
        .filter_map(|a| eng.actor(a))
        .flat_map(|node| node.completed.iter().copied())
        .collect()
}

/// Parameters for the congestion sweep.
#[derive(Clone, Copy, Debug)]
pub struct CongestionParams {
    /// Cube dimension.
    pub n: u8,
    /// Fault count per instance.
    pub faults: usize,
    /// Burst sizes to sweep.
    pub loads: [usize; 4],
    /// Instances per point.
    pub trials: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for CongestionParams {
    fn default() -> Self {
        CongestionParams {
            n: 7,
            faults: 4,
            loads: [32, 128, 512, 2048],
            trials: 10,
            seed: 0xC047,
        }
    }
}

/// Runs the sweep.
pub fn run(p: &CongestionParams) -> Report {
    let cube = Hypercube::new(p.n);
    let mut rep = Report::new(
        "congestion",
        format!(
            "queueing latency under burst load, {}-cube, {} faults, service 1 tick/node",
            p.n, p.faults
        ),
        &[
            "burst",
            "tiebreak",
            "delivered",
            "mean_latency",
            "max_latency",
            "slowdown",
        ],
    );
    for &load in &p.loads {
        for (name, tb) in [
            ("lowest-dim", TieBreak::LowestDim),
            ("hashed", TieBreak::Hashed { salt: 0 }),
        ] {
            let sweep = Sweep::new(p.trials, p.seed.wrapping_add(load as u64));
            let sums: Vec<LatencySummary> = sweep.run(|_, rng| {
                let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, p.faults, rng));
                let map = SafetyMap::compute(&cfg);
                let pairs: Vec<(NodeId, NodeId)> =
                    (0..load).map(|_| random_pair(&cfg, rng)).collect();
                simulate_burst(&cfg, &map, &pairs, tb)
            });
            let t = sums.len() as f64;
            rep.row(vec![
                load.to_string(),
                name.to_string(),
                f2(sums.iter().map(|s| s.delivered as f64).sum::<f64>() / t),
                f2(sums.iter().map(|s| s.mean_latency).sum::<f64>() / t),
                f2(sums.iter().map(|s| s.max_latency as f64).sum::<f64>() / t),
                f2(sums.iter().map(|s| s.slowdown).sum::<f64>() / t),
            ]);
        }
    }
    rep.note("slowdown = latency / (H × service); 1.00 means contention-free".to_string());
    rep.note("burst injection at t = 0 is the worst case for head-of-line blocking".to_string());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::FaultSet;

    #[test]
    fn single_job_has_no_queueing() {
        let cube = Hypercube::new(5);
        let cfg = FaultConfig::fault_free(cube);
        let map = SafetyMap::compute(&cfg);
        let pairs = [(NodeId::new(0), NodeId::new(0b11111))];
        let s = simulate_burst(&cfg, &map, &pairs, TieBreak::LowestDim);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.mean_latency, 5.0, "H hops × service 1");
        assert!((s.slowdown - 1.0).abs() < 1e-9);
    }

    #[test]
    fn contention_raises_latency() {
        let cube = Hypercube::new(5);
        let cfg = FaultConfig::fault_free(cube);
        let map = SafetyMap::compute(&cfg);
        // Everyone sends to the same destination: maximal contention.
        let pairs: Vec<(NodeId, NodeId)> = cube
            .nodes()
            .filter(|&a| a != NodeId::new(0b11111))
            .map(|a| (a, NodeId::new(0b11111)))
            .collect();
        let s = simulate_burst(&cfg, &map, &pairs, TieBreak::LowestDim);
        assert_eq!(s.delivered as usize, pairs.len());
        assert!(s.slowdown > 1.5, "hot-spot must queue: {s:?}");
    }

    #[test]
    fn faulty_instance_still_delivers_burst() {
        let cube = Hypercube::new(5);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["00011", "10100"]),
        );
        let map = SafetyMap::compute(&cfg);
        let sweep = Sweep::new(1, 3);
        let mut rng = sweep.trial_rng(0);
        let pairs: Vec<(NodeId, NodeId)> = (0..64).map(|_| random_pair(&cfg, &mut rng)).collect();
        let s = simulate_burst(&cfg, &map, &pairs, TieBreak::Hashed { salt: 0 });
        assert_eq!(
            s.delivered as usize,
            pairs.len(),
            "under n faults nothing is lost"
        );
    }

    #[test]
    fn report_structure() {
        let p = CongestionParams {
            n: 5,
            faults: 2,
            loads: [8, 16, 32, 64],
            trials: 3,
            seed: 1,
        };
        let rep = run(&p);
        assert_eq!(rep.rows.len(), 8);
        // Latency grows with load for each policy.
        let lat = |load: &str, tb: &str| -> f64 {
            rep.rows
                .iter()
                .find(|r| r[0] == load && r[1] == tb)
                .unwrap()[3]
                .parse()
                .unwrap()
        };
        assert!(lat("64", "lowest-dim") >= lat("8", "lowest-dim"));
    }
}
