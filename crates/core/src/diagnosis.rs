//! Local fault detection — the substrate behind the paper's
//! assumption 2.
//!
//! > "Fault detection and diagnosis algorithms exist, but we do not
//! > require such algorithms to be perfect. We do assume that each
//! > node knows exactly the safety status of all its neighbors."
//!
//! This module builds that assumption instead of hand-waving it: a
//! heartbeat protocol on the discrete-event engine. Every node pings
//! its neighbors each period; under fault-stop semantics a dead
//! neighbor simply never answers, so `k` consecutive missed replies
//! mark it faulty locally. Detection latency and accuracy follow from
//! the protocol parameters (period, timeout multiplier), giving the
//! maintenance-strategy experiments a physically grounded detection
//! delay instead of an oracle.

use hypersafe_simkit::{Actor, Ctx, EventEngine, Net, Time};
use hypersafe_topology::{FaultConfig, NodeId, Topology};

/// Heartbeat message: a ping or its echo.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Heartbeat {
    /// "Are you alive?"
    Ping,
    /// "I am."
    Pong,
}

/// Detector parameters.
#[derive(Clone, Copy, Debug)]
pub struct DetectorParams {
    /// Interval between ping rounds, in ticks.
    pub period: Time,
    /// Message latency per hop.
    pub latency: Time,
    /// Missed replies before a neighbor is declared faulty.
    pub misses_allowed: u32,
    /// Number of ping rounds to run.
    pub rounds: u32,
}

impl Default for DetectorParams {
    fn default() -> Self {
        DetectorParams {
            period: 10,
            latency: 1,
            misses_allowed: 2,
            rounds: 8,
        }
    }
}

/// Per-node heartbeat detector state.
pub struct DetectorNode {
    n: u8,
    params: DetectorParams,
    /// Replies received since the last ping round, by dimension.
    answered: Vec<bool>,
    /// Consecutive missed replies, by dimension.
    misses: Vec<u32>,
    /// Local verdict: neighbor along dimension `i` is faulty.
    pub suspected: Vec<bool>,
    rounds_done: u32,
}

const TICK: u64 = 1;

impl DetectorNode {
    fn new(n: u8, params: DetectorParams) -> Self {
        DetectorNode {
            n,
            params,
            answered: vec![false; n as usize],
            misses: vec![0; n as usize],
            suspected: vec![false; n as usize],
            rounds_done: 0,
        }
    }

    fn ping_all(&mut self, ctx: &mut Ctx<Heartbeat>) {
        for i in 0..self.n {
            ctx.send(
                ctx.self_id().neighbor(i),
                Heartbeat::Ping,
                self.params.latency,
            );
        }
        self.answered.iter_mut().for_each(|a| *a = false);
        // Collect verdicts after replies had time to arrive.
        ctx.set_timer(self.params.period, TICK);
    }
}

impl Actor for DetectorNode {
    type Msg = Heartbeat;

    fn on_start(&mut self, ctx: &mut Ctx<Heartbeat>) {
        self.ping_all(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Heartbeat>, from: NodeId, msg: Heartbeat) {
        let dim = ctx.self_id().xor(from).set_dims().next().expect("neighbor");
        match msg {
            Heartbeat::Ping => {
                ctx.send(from, Heartbeat::Pong, self.params.latency);
            }
            Heartbeat::Pong => {
                self.answered[dim as usize] = true;
                self.misses[dim as usize] = 0;
                // A previously suspected neighbor that answers again has
                // recovered (the paper's recovery case, §2.2).
                self.suspected[dim as usize] = false;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Heartbeat>, _tag: u64) {
        for i in 0..self.n as usize {
            if !self.answered[i] {
                self.misses[i] += 1;
                if self.misses[i] >= self.params.misses_allowed {
                    self.suspected[i] = true;
                }
            }
        }
        self.rounds_done += 1;
        if self.rounds_done < self.params.rounds {
            self.ping_all(ctx);
        }
    }
}

/// Result of a detection run: each healthy node's local view of its
/// neighborhood.
pub struct DetectionResult {
    /// `views[a][i]` — node `a` suspects its dimension-`i` neighbor.
    views: Vec<Option<Vec<bool>>>,
    /// Heartbeat messages exchanged.
    pub messages: u64,
    /// Virtual time at completion.
    pub duration: Time,
}

impl DetectionResult {
    /// Whether healthy node `a` suspects its neighbor along `dim`.
    pub fn suspects(&self, a: NodeId, dim: u8) -> Option<bool> {
        self.views[a.raw() as usize]
            .as_ref()
            .map(|v| v[dim as usize])
    }

    /// Checks the run against ground truth: returns
    /// `(false_negatives, false_positives)` summed over all healthy
    /// nodes' views.
    pub fn accuracy(&self, cfg: &FaultConfig) -> (u64, u64) {
        let cube = cfg.cube();
        let mut fneg = 0;
        let mut fpos = 0;
        for a in cfg.healthy_nodes() {
            let Some(view) = &self.views[a.raw() as usize] else {
                continue;
            };
            for (i, b) in cube.neighbours(a).enumerate() {
                let truly_bad = cfg.node_faulty(b) || cfg.link_faults().contains(a, b);
                match (truly_bad, view[i]) {
                    (true, false) => fneg += 1,
                    (false, true) => fpos += 1,
                    _ => {}
                }
            }
        }
        (fneg, fpos)
    }
}

/// Runs the heartbeat detector over `cfg` and returns every healthy
/// node's local fault view.
///
/// Under fault-stop semantics with reliable links the detector is
/// *exact* once `misses_allowed` rounds have elapsed: no false
/// positives (healthy neighbors always answer) and no false negatives
/// (dead ones never do) — which is precisely the paper's assumption,
/// now derived rather than assumed. Faulty links likewise surface,
/// since pings across them are lost.
pub fn detect(cfg: &FaultConfig, params: DetectorParams) -> DetectionResult {
    let n = cfg.cube().dim();
    assert!(
        params.rounds > params.misses_allowed,
        "not enough rounds to convict"
    );
    let net = Net::cube(cfg);
    let mut eng = EventEngine::new(&net, |_| DetectorNode::new(n, params));
    eng.run(u64::MAX);
    let views = cfg
        .cube()
        .nodes()
        .map(|a| eng.actor(a).map(|d| d.suspected.clone()))
        .collect();
    DetectionResult {
        views,
        messages: eng.stats().delivered,
        duration: eng.stats().end_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube, LinkFaultSet};

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
    }

    #[test]
    fn detection_is_exact_on_fig1() {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]),
        );
        let r = detect(&cfg, DetectorParams::default());
        assert_eq!(r.accuracy(&cfg), (0, 0), "no false verdicts");
        // Spot-check: 0001 suspects exactly 0011 (dim 1) and 1001 (dim 3).
        assert_eq!(r.suspects(n("0001"), 1), Some(true));
        assert_eq!(r.suspects(n("0001"), 3), Some(true));
        assert_eq!(r.suspects(n("0001"), 0), Some(false));
        assert_eq!(r.suspects(n("0001"), 2), Some(false));
    }

    #[test]
    fn faulty_links_detected_too() {
        let cube = Hypercube::new(4);
        let mut cfg = FaultConfig::fault_free(cube);
        cfg.link_faults_mut().insert(n("1000"), n("1001"));
        let r = detect(&cfg, DetectorParams::default());
        assert_eq!(r.accuracy(&cfg), (0, 0));
        assert_eq!(
            r.suspects(n("1000"), 0),
            Some(true),
            "link loss looks like death"
        );
        assert_eq!(r.suspects(n("1001"), 0), Some(true));
    }

    #[test]
    fn fault_free_cube_all_clear() {
        let cube = Hypercube::new(5);
        let cfg = FaultConfig::fault_free(cube);
        let r = detect(&cfg, DetectorParams::default());
        assert_eq!(r.accuracy(&cfg), (0, 0));
        for a in cube.nodes() {
            for i in 0..5 {
                assert_eq!(r.suspects(a, i), Some(false));
            }
        }
    }

    #[test]
    fn message_cost_scales_with_rounds() {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::fault_free(cube);
        let short = detect(
            &cfg,
            DetectorParams {
                rounds: 3,
                ..DetectorParams::default()
            },
        );
        let long = detect(
            &cfg,
            DetectorParams {
                rounds: 8,
                ..DetectorParams::default()
            },
        );
        assert!(long.messages > short.messages);
        // Fault-free: per round each undirected link carries two pings
        // (one per direction) and two pongs.
        assert_eq!(short.messages, 3 * 4 * cube.num_links());
    }

    #[test]
    fn detector_views_feed_gs_initialization() {
        // End-to-end: detect → derive each node's faulty-neighbor view
        // → confirm it matches what GS initialization assumes.
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0101", "1010"]),
        );
        let r = detect(&cfg, DetectorParams::default());
        for a in cfg.healthy_nodes() {
            for (i, b) in cube.neighbours(a).enumerate() {
                assert_eq!(
                    r.suspects(a, i as u8),
                    Some(cfg.node_faulty(b)),
                    "{a} dim {i}"
                );
            }
        }
        let _ = LinkFaultSet::new();
    }

    #[test]
    #[should_panic]
    fn too_few_rounds_rejected() {
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::fault_free(cube);
        detect(
            &cfg,
            DetectorParams {
                rounds: 2,
                misses_allowed: 2,
                ..Default::default()
            },
        );
    }
}
