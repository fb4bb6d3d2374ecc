//! Gordon–Stout random sidetracking (paper's reference \[5\]).
//!
//! "A message is rerouted to a randomly chosen fault-free neighboring
//! node when there exists no fault-free neighbor along optimal paths to
//! the destination node." Purely local, purely heuristic: no status
//! information at all, so the path length is unpredictable and the walk
//! can live-lock — a TTL bounds it.

use hypersafe_topology::{FaultConfig, NodeId, Path, Topology};
use rand::Rng;

/// Routes `s → d` by random sidetracking with hop budget `ttl`,
/// drawing choices from `rng`.
///
/// Returns the realized walk with delivery status; `None` for faulty
/// endpoints.
pub fn sidetrack_route<R: Rng + ?Sized>(
    cfg: &FaultConfig,
    s: NodeId,
    d: NodeId,
    ttl: u32,
    rng: &mut R,
) -> Option<(Path, bool)> {
    if cfg.node_faulty(s) || cfg.node_faulty(d) {
        return None;
    }
    let cube = cfg.cube();
    let mut at = s;
    let mut path = Path::starting_at(s);
    let mut preferred: Vec<NodeId> = Vec::with_capacity(cube.dim() as usize);
    let mut spare: Vec<NodeId> = Vec::with_capacity(cube.dim() as usize);
    while at != d {
        if path.len() >= ttl {
            return Some((path, false));
        }
        preferred.clear();
        spare.clear();
        for i in cube.preferred(at, d) {
            let b = at.neighbor(i);
            if !cfg.node_faulty(b) && cfg.link_usable(at, b) {
                preferred.push(b);
            }
        }
        if preferred.is_empty() {
            for i in cube.spare(at, d) {
                let b = at.neighbor(i);
                if !cfg.node_faulty(b) && cfg.link_usable(at, b) {
                    spare.push(b);
                }
            }
        }
        let pool = if preferred.is_empty() {
            &spare
        } else {
            &preferred
        };
        if pool.is_empty() {
            return Some((path, false));
        }
        let next = pool[rng.gen_range(0..pool.len())];
        path.push(next);
        at = next;
    }
    Some((path, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn fault_free_is_optimal() {
        // With no faults there is always a fault-free preferred
        // neighbor, so every hop makes progress.
        let cfg = cfg4(&[]);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for s in cfg.cube().nodes() {
            for d in cfg.cube().nodes() {
                let (p, ok) = sidetrack_route(&cfg, s, d, 64, &mut rng).unwrap();
                assert!(ok);
                assert!(p.is_optimal());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = cfg4(&["0011", "0101"]);
        let run = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            sidetrack_route(&cfg, NodeId::new(0), NodeId::new(0b1111), 32, &mut rng)
                .map(|(p, ok)| (p.nodes().to_vec(), ok))
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn ttl_bounds_the_walk() {
        let cfg = cfg4(&["0011", "0101", "0110", "1001", "1010", "1100"]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // 0000 → 1111 with the entire middle layer faulty: impossible.
        let (p, ok) =
            sidetrack_route(&cfg, NodeId::new(0), NodeId::new(0b1111), 20, &mut rng).unwrap();
        assert!(!ok);
        assert!(p.len() <= 20);
    }

    #[test]
    fn usually_delivers_with_few_faults() {
        let cfg = cfg4(&["0011", "0100"]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut delivered = 0;
        let trials = 100;
        for _ in 0..trials {
            let (_, ok) =
                sidetrack_route(&cfg, NodeId::new(0b0001), NodeId::new(0b1110), 32, &mut rng)
                    .unwrap();
            delivered += ok as u32;
        }
        assert!(
            delivered > 90,
            "random sidetracking should mostly succeed: {delivered}/100"
        );
    }
}
