//! Hotspot / incast traffic with per-link queue accounting.
//!
//! Uniform random pairs spread load evenly — the regime where the
//! paper's single-path router is already enough. Real workloads
//! concentrate: an incast (everyone talks to one server) funnels every
//! message into the hotspot's `n` incoming links, and queueing — not
//! path length — dominates latency. [`LinkLoad`] keeps a per-directed-
//! link queue model (one message per service interval per link,
//! head-of-line blocking), which plays two roles in E29:
//!
//! * **measurement** — [`LinkLoad::traverse`] walks a path through the
//!   queues and returns its departure time, so tail latency under
//!   incast is observable;
//! * **control** — [`LinkLoad::cost`] has exactly the signature of
//!   `route_disjoint_ranked`'s spare-cost hook, so the multi-path
//!   router can prefer the least-loaded healthy spare dimension when
//!   picking detours.

use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Path, Topology};
use rand::Rng;

use crate::pairs::random_healthy;

/// `m` incast pairs: distinct-from-destination healthy sources, all
/// aimed at the single healthy `hotspot` node.
///
/// # Panics
/// Panics if `hotspot` is faulty or fewer than two healthy nodes
/// exist.
pub fn incast_pairs<R: Rng + ?Sized>(
    cfg: &FaultConfig,
    hotspot: NodeId,
    m: usize,
    rng: &mut R,
) -> Vec<(NodeId, NodeId)> {
    assert!(!cfg.node_faulty(hotspot), "hotspot must be healthy");
    assert!(
        cfg.healthy_count() >= 2,
        "need a source besides the hotspot"
    );
    (0..m)
        .map(|_| loop {
            let s = random_healthy(cfg, rng);
            if s != hotspot {
                return (s, hotspot);
            }
        })
        .collect()
}

/// `m` pairs of which (approximately) `hot_pct`% are incast onto
/// `hotspot` and the rest are uniform healthy pairs — the standard
/// hotspot-traffic mix.
///
/// # Panics
/// Panics if `hotspot` is faulty, fewer than two healthy nodes exist,
/// or `hot_pct > 100`.
pub fn hotspot_mix<R: Rng + ?Sized>(
    cfg: &FaultConfig,
    hotspot: NodeId,
    hot_pct: u32,
    m: usize,
    rng: &mut R,
) -> Vec<(NodeId, NodeId)> {
    assert!(hot_pct <= 100, "hot_pct is a percentage");
    assert!(!cfg.node_faulty(hotspot), "hotspot must be healthy");
    assert!(cfg.healthy_count() >= 2, "need two healthy nodes");
    (0..m)
        .map(|_| {
            if rng.gen_range(0..100) < hot_pct {
                loop {
                    let s = random_healthy(cfg, rng);
                    if s != hotspot {
                        return (s, hotspot);
                    }
                }
            } else {
                crate::pairs::random_pair(cfg, rng)
            }
        })
        .collect()
}

/// Per-directed-link queue accounting for a hypercube.
///
/// Each directed link `a → a ⊕ eᵢ` is a FIFO server that forwards one
/// message per [`LinkLoad::service`] interval; a message arriving at a
/// busy link waits behind the queue (head-of-line blocking). Two
/// counters per link: `depth` (messages ever enqueued — the congestion
/// signal fed back into routing) and `busy_until` (the queue-clearing
/// time — the latency model).
#[derive(Clone, Debug)]
pub struct LinkLoad {
    n: u8,
    service: u64,
    depth: Vec<u32>,
    busy_until: Vec<u64>,
}

impl LinkLoad {
    /// An empty load model over `cube` with the given service interval
    /// (ticks per message per link; must be ≥ 1).
    pub fn new(cube: Hypercube, service: u64) -> Self {
        assert!(service >= 1, "a link forwards at most one message per tick");
        let links = (cube.num_nodes() as usize) * cube.dim() as usize;
        LinkLoad {
            n: cube.dim(),
            service,
            depth: vec![0; links],
            busy_until: vec![0; links],
        }
    }

    /// Service interval (ticks per message per link).
    pub fn service(&self) -> u64 {
        self.service
    }

    fn idx(&self, a: NodeId, dim: u8) -> usize {
        debug_assert!(dim < self.n);
        (a.raw() as usize) * self.n as usize + dim as usize
    }

    /// Messages ever enqueued on the directed link `a → a ⊕ e_dim`.
    pub fn depth(&self, a: NodeId, dim: u8) -> u32 {
        self.depth[self.idx(a, dim)]
    }

    /// The spare-cost signal for `route_disjoint_ranked`: the current
    /// queue depth of the first-hop link through spare dimension `dim`.
    /// Lower is better, so the router prefers the least-loaded healthy
    /// spare.
    pub fn cost(&self, s: NodeId, dim: u8) -> u64 {
        u64::from(self.depth(s, dim))
    }

    /// Walks `path` through the queues starting at `start`: every hop
    /// waits for its link to free up, then occupies it for one service
    /// interval. Returns the delivery (departure-from-last-link) time
    /// and updates both counters — callers replay a whole batch in
    /// submission order to get a deterministic queueing trace.
    pub fn traverse(&mut self, path: &Path, start: u64) -> u64 {
        let mut now = start;
        let nodes = path.nodes();
        for w in nodes.windows(2) {
            let dim = w[0].differing_dims(w[1]).next().expect("adjacent hop");
            let i = self.idx(w[0], dim);
            self.depth[i] += 1;
            let depart = self.busy_until[i].max(now) + self.service;
            self.busy_until[i] = depart;
            now = depart;
        }
        now
    }

    /// Largest queue depth across all directed links (the congestion
    /// hot spot's magnitude).
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Total messages enqueued across all links (= total hops routed
    /// through the model).
    pub fn total_enqueued(&self) -> u64 {
        self.depth.iter().map(|&d| u64::from(d)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn incast_aims_everything_at_the_hotspot() {
        let cube = Hypercube::new(5);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["00001", "10000"]),
        );
        let hot = NodeId::new(0b00111);
        let pairs = incast_pairs(&cfg, hot, 64, &mut rng(1));
        assert_eq!(pairs.len(), 64);
        for (s, d) in pairs {
            assert_eq!(d, hot);
            assert_ne!(s, hot);
            assert!(!cfg.node_faulty(s));
        }
    }

    #[test]
    fn hotspot_mix_respects_the_percentage_roughly() {
        let cube = Hypercube::new(6);
        let cfg = FaultConfig::fault_free(cube);
        let hot = NodeId::new(0);
        let pairs = hotspot_mix(&cfg, hot, 50, 400, &mut rng(2));
        let hits = pairs.iter().filter(|&&(_, d)| d == hot).count();
        // 50% of 400 with generous slack; uniform pairs can also hit
        // the hotspot by chance, so only gross deviation fails.
        assert!((120..=280).contains(&hits), "hot hits {hits} of 400");
        assert_eq!(
            hotspot_mix(&cfg, hot, 50, 40, &mut rng(3)),
            hotspot_mix(&cfg, hot, 50, 40, &mut rng(3)),
            "same seed, same mix"
        );
    }

    #[test]
    fn queueing_is_head_of_line_per_link() {
        let cube = Hypercube::new(3);
        let mut load = LinkLoad::new(cube, 1);
        let p = Path::from_nodes(vec![NodeId::new(0), NodeId::new(1), NodeId::new(0b11)]);
        // Two messages on the same 2-hop path: the second waits one
        // tick behind the first at the first link, then pipelines.
        assert_eq!(load.traverse(&p, 0), 2);
        assert_eq!(load.traverse(&p, 0), 3);
        assert_eq!(load.depth(NodeId::new(0), 0), 2);
        assert_eq!(load.max_depth(), 2);
        assert_eq!(load.total_enqueued(), 4);
        // A disjoint link is unaffected.
        let q = Path::from_nodes(vec![NodeId::new(0), NodeId::new(0b100)]);
        assert_eq!(load.traverse(&q, 0), 1);
    }

    #[test]
    fn cost_reflects_depth_for_the_router_hook() {
        let cube = Hypercube::new(4);
        let mut load = LinkLoad::new(cube, 2);
        let s = NodeId::new(0);
        assert_eq!(load.cost(s, 2), 0);
        let p = Path::from_nodes(vec![s, s.neighbor(2)]);
        load.traverse(&p, 0);
        load.traverse(&p, 0);
        assert_eq!(load.cost(s, 2), 2);
        assert_eq!(load.cost(s, 1), 0, "other spares stay cheap");
    }
}
