//! Safety levels in generalized hypercubes — Definition 4 (paper §4.2).
//!
//! In `GH(m_{n-1}, …, m_0)` every node still carries an `n`-vector of
//! per-dimension safety values, but the value for dimension `i` is the
//! **minimum** safety level over the `m_i − 1` other nodes of the
//! node's dimension-`i` clique. Definition 1's rule is then applied to
//! the sorted `n`-vector unchanged. With all radices 2 this reduces
//! exactly to the binary Definition 1 (property-tested).
//!
//! Because the clique nodes are directly connected, one exchange step
//! suffices to learn the dimension minimum, so the fixed point is still
//! reached in `n − 1` rounds.

use crate::properties::{check_level_corridor, check_levels_converged, Violation};
use crate::safety::{level_from_neighbors, Level};
use hypersafe_simkit::{gh_port_dim, GhNet, SyncEngine, SyncNode, SyncStats};
use hypersafe_topology::{FaultSet, GeneralizedHypercube, GhNode, NodeId, MAX_DIM};
use std::sync::Arc;

/// Safety levels of every node of a faulty generalized hypercube.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GhSafetyMap {
    levels: Vec<Level>,
    n: u8,
    rounds: u32,
}

impl GhSafetyMap {
    /// Computes the fixed point of Definition 4 for `gh` with the given
    /// faulty nodes, by synchronous Jacobi iteration from the all-`n`
    /// start (faulty nodes 0).
    ///
    /// Each Jacobi round is data-parallel (every node reads only the
    /// previous round's levels), so the per-round sweep fans out over
    /// rayon workers; the result is bitwise-identical to sequential
    /// execution regardless of thread count.
    pub fn compute(gh: &GeneralizedHypercube, faults: &FaultSet) -> Self {
        use rayon::prelude::*;
        let n = gh.dim();
        let mut levels: Vec<Level> = gh
            .nodes()
            .map(|a| {
                if faults.contains(NodeId::new(a.raw())) {
                    0
                } else {
                    n
                }
            })
            .collect();
        let mut rounds = 0u32;
        loop {
            let prev = &levels;
            let next: Vec<Level> = (0..gh.num_nodes())
                .into_par_iter()
                .map(|raw| {
                    let a = GhNode(raw);
                    if faults.contains(NodeId::new(raw)) {
                        return 0;
                    }
                    let mut scratch: Vec<Level> = (0..n)
                        .map(|i| {
                            // S_i = min level among the rest of the
                            // dimension-i clique (m_i − 1 nodes, all
                            // directly connected).
                            gh.neighbors_along(a, i)
                                .map(|b| prev[b.raw() as usize])
                                .min()
                                .expect("radix ≥ 2 gives ≥ 1 clique peer")
                        })
                        .collect();
                    level_from_neighbors(n, &mut scratch)
                })
                .collect();
            if next == levels {
                break;
            }
            levels = next;
            rounds += 1;
        }
        GhSafetyMap { levels, n, rounds }
    }

    /// Number of dimensions `n`.
    pub fn dim(&self) -> u8 {
        self.n
    }

    /// Safety level of node `a`.
    #[inline]
    pub fn level(&self, a: GhNode) -> Level {
        self.levels[a.raw() as usize]
    }

    /// Whether `a` is safe (level `n`).
    pub fn is_safe(&self, a: GhNode) -> bool {
        self.level(a) == self.n
    }

    /// Active rounds used by the computation.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// All safe nodes, ascending by index.
    pub fn safe_nodes(&self) -> Vec<GhNode> {
        self.levels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == self.n)
            .map(|(i, _)| GhNode(i as u64))
            .collect()
    }

    /// Raw level array indexed by node index.
    pub fn as_slice(&self) -> &[Level] {
        &self.levels
    }
}

/// Per-node state of the distributed GH `GLOBAL_STATUS`
/// (`EXTENDED_NODE_STATUS` of §4.2 run on the lock-step engine): each
/// round the node hears every clique peer's level, takes the
/// per-dimension minimum (`S_i = min{S(aⁱ)}`), and applies
/// Definition 1's rule. Silent ports (faulty peers) read as level 0.
#[derive(Clone, Debug)]
pub struct GhGsNode {
    ports: Arc<GhPorts>,
    n: u8,
    level: Level,
}

/// The port layout every node of one GH shares, computed once per run.
#[derive(Debug)]
struct GhPorts {
    /// Dimension of each port.
    dims: Box<[u8]>,
    /// Clique peers per dimension (`m_i − 1`).
    peers: Box<[u16]>,
}

impl GhGsNode {
    /// Current safety level.
    pub fn level(&self) -> Level {
        self.level
    }
}

impl SyncNode for GhGsNode {
    type Msg = Level;

    fn broadcast(&self) -> Level {
        self.level
    }

    fn receive(&mut self, inbox: &[(usize, Level)]) -> bool {
        // Per-dimension minimum over the clique; a dimension with any
        // silent (faulty) peer reads 0.
        let n = self.n as usize;
        let mut mins = [self.n; MAX_DIM as usize];
        let mut heard = [0u16; MAX_DIM as usize];
        for &(port, lv) in inbox {
            let d = self.ports.dims[port] as usize;
            heard[d] += 1;
            mins[d] = mins[d].min(lv);
        }
        for (min, (&h, &peers)) in mins.iter_mut().zip(heard.iter().zip(&*self.ports.peers)) {
            if h < peers {
                *min = 0;
            }
        }
        let new = level_from_neighbors(self.n, &mut mins[..n]);
        let changed = new != self.level;
        self.level = new;
        changed
    }
}

/// The lock-step engine running GH `GLOBAL_STATUS` over `net`, every
/// healthy node starting `n`-safe.
pub(crate) fn gh_gs_engine<'a, 'g>(net: &'a GhNet<'g>) -> SyncEngine<'a, GhNet<'g>, GhGsNode> {
    let gh = net.gh();
    let n = gh.dim();
    let ports = Arc::new(GhPorts {
        dims: (0..gh.degree() as usize)
            .map(|p| gh_port_dim(gh, p))
            .collect(),
        peers: (0..n).map(|i| gh.radix(i) - 1).collect(),
    });
    SyncEngine::new(net, |_| GhGsNode {
        ports: ports.clone(),
        n,
        level: n,
    })
}

/// Runs the distributed GH `GLOBAL_STATUS` to quiescence on the
/// lock-step engine and returns the converged map plus engine
/// statistics. Agrees with [`GhSafetyMap::compute`] (tested).
pub fn run_gh_gs(gh: &GeneralizedHypercube, faults: &FaultSet) -> (GhSafetyMap, SyncStats) {
    let n = gh.dim();
    let net = GhNet::new(gh, faults);
    let mut eng = gh_gs_engine(&net);
    let rounds = eng.run_until_stable(n as u32 + 1);
    let levels = (0..gh.num_nodes())
        .map(|a| eng.node(NodeId::new(a)).map_or(0, GhGsNode::level))
        .collect();
    let stats = eng.stats().clone();
    (GhSafetyMap { levels, n, rounds }, stats)
}

/// Checked runner for the distributed GH `GLOBAL_STATUS`: steps the
/// lock-step engine round by round and, after every round, checks
/// [`check_level_corridor`] from the all-`n` start down to the
/// centralized Definition 4 fixed point (`GhGsNode` keeps no direction
/// flag, so a node's direction bit is "no higher than last round"),
/// that the round count stays within the paper's `n − 1` bound (`+1`
/// for the final no-change confirmation round), and at quiescence
/// [`check_levels_converged`] against [`GhSafetyMap::compute`].
pub fn run_gh_gs_checked(
    gh: &GeneralizedHypercube,
    faults: &FaultSet,
) -> Result<GhSafetyMap, Violation> {
    let n = gh.dim();
    let central = GhSafetyMap::compute(gh, faults);
    let fixed = |a: NodeId| central.level(GhNode(a.raw()));
    let net = GhNet::new(gh, faults);
    let mut eng = gh_gs_engine(&net);
    let levels = |eng: &SyncEngine<'_, GhNet<'_>, GhGsNode>| -> Vec<Level> {
        (0..gh.num_nodes())
            .map(|a| eng.node(NodeId::new(a)).map_or(0, GhGsNode::level))
            .collect()
    };
    let mut prev = levels(&eng);
    let mut rounds = 0u32;
    while eng.run_round() != 0 {
        rounds += 1;
        if rounds > n as u32 {
            return Err(Violation {
                claim: "gh-gs-round-bound",
                witness: Vec::new(),
                detail: format!("still active after {rounds} rounds on an n = {n} GH"),
            });
        }
        let now = levels(&eng);
        let cut = now.iter().zip(&prev).enumerate();
        let cut = cut.map(|(a, (&lv, &was))| (NodeId::new(a as u64), lv, lv <= was));
        check_level_corridor(cut, |_| n, fixed, true)?;
        prev = now;
    }
    let cut = levels(&eng).into_iter().enumerate();
    check_levels_converged(cut.map(|(a, lv)| (NodeId::new(a as u64), lv)), fixed)?;
    Ok(central)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::SafetyMap;
    use hypersafe_topology::{FaultConfig, Hypercube};

    #[test]
    fn binary_radices_reduce_to_definition1() {
        // GH(2,2,2,2) with the Fig. 1 fault set must equal the binary map.
        let gh = GeneralizedHypercube::new(&[2, 2, 2, 2]);
        let cube = Hypercube::new(4);
        let faults = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
        let ghmap = GhSafetyMap::compute(&gh, &faults);
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let qmap = SafetyMap::compute(&cfg);
        assert_eq!(ghmap.as_slice(), qmap.to_vec());
        assert_eq!(ghmap.rounds(), qmap.rounds());
    }

    #[test]
    fn fault_free_gh_is_all_safe() {
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let map = GhSafetyMap::compute(&gh, &gh.fault_set());
        assert_eq!(map.rounds(), 0);
        assert!(gh.nodes().all(|a| map.is_safe(a)));
    }

    #[test]
    fn rounds_bounded_by_n_minus_1() {
        // Exhaustive over all fault subsets of GH(2,3,2) of size ≤ 4.
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let total = gh.num_nodes();
        for mask in 0u64..(1 << total) {
            if mask.count_ones() > 4 {
                continue;
            }
            let mut f = gh.fault_set();
            for i in 0..total {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let map = GhSafetyMap::compute(&gh, &f);
            assert!(map.rounds() <= 2, "mask {mask:#b}: rounds {}", map.rounds());
        }
    }

    #[test]
    fn distributed_gh_gs_matches_centralized() {
        // Exhaustive over all ≤ 4-fault subsets of GH(2,3,2), plus the
        // Fig. 5 instance: the message-passing protocol and the Jacobi
        // evaluation agree.
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let total = gh.num_nodes();
        for mask in 0u64..(1 << total) {
            if mask.count_ones() > 4 {
                continue;
            }
            let mut f = gh.fault_set();
            for i in 0..total {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let central = GhSafetyMap::compute(&gh, &f);
            let (dist, stats) = run_gh_gs(&gh, &f);
            assert_eq!(central.as_slice(), dist.as_slice(), "mask {mask:#b}");
            assert_eq!(central.rounds(), dist.rounds(), "mask {mask:#b}");
            if mask == 0 {
                assert_eq!(stats.active_rounds, 0, "fault-free costs nothing");
            }
        }
    }

    #[test]
    fn distributed_gh_gs_on_mixed_radices() {
        let gh = GeneralizedHypercube::new(&[3, 2, 4]);
        let mut f = gh.fault_set();
        f.insert(NodeId::new(0));
        f.insert(NodeId::new(7));
        f.insert(NodeId::new(13));
        let central = GhSafetyMap::compute(&gh, &f);
        let (dist, _) = run_gh_gs(&gh, &f);
        assert_eq!(central.as_slice(), dist.as_slice());
    }

    #[test]
    fn single_fault_keeps_everyone_safe_when_radix_large() {
        // In GH(4,4): one faulty node leaves each survivor with at most
        // one 0 in its dimension-min vector → everyone stays safe.
        let gh = GeneralizedHypercube::new(&[4, 4]);
        let mut f = gh.fault_set();
        f.insert(NodeId::new(0));
        let map = GhSafetyMap::compute(&gh, &f);
        for a in gh.nodes() {
            if a.raw() == 0 {
                assert_eq!(map.level(a), 0);
            } else {
                assert!(map.is_safe(a), "{}", gh.format(a));
            }
        }
    }

    #[test]
    fn dimension_reads_zero_if_any_clique_member_faulty() {
        // GH with radices lsb-first [2, 3]. A *single* faulty node in
        // node (0,0)'s dimension-1 clique already zeroes that
        // dimension's reading (min semantics); combined with a faulty
        // dim-0 peer the node drops to level 1.
        let gh = GeneralizedHypercube::new(&[2, 3]);
        let a00 = gh.node_from_digits(&[0, 0]);

        // One faulty clique peer alone: the sorted vector is (0, x)
        // with x ≥ 1, which Definition 1 tolerates → still safe.
        let mut f1 = gh.fault_set();
        f1.insert(NodeId::new(gh.node_from_digits(&[0, 1]).raw()));
        let m1 = GhSafetyMap::compute(&gh, &f1);
        assert_eq!(m1.level(a00), 2);

        // Faulty clique peer in dim 1 *and* faulty dim-0 peer: both
        // dimensions read 0 → level 1.
        let mut f2 = gh.fault_set();
        f2.insert(NodeId::new(gh.node_from_digits(&[0, 1]).raw()));
        f2.insert(NodeId::new(gh.node_from_digits(&[1, 0]).raw()));
        let m2 = GhSafetyMap::compute(&gh, &f2);
        assert_eq!(m2.level(a00), 1);

        // The min is over the whole clique: faulting the *other* dim-1
        // peer instead changes nothing about (0,0)'s reading.
        let mut f3 = gh.fault_set();
        f3.insert(NodeId::new(gh.node_from_digits(&[0, 2]).raw()));
        f3.insert(NodeId::new(gh.node_from_digits(&[1, 0]).raw()));
        let m3 = GhSafetyMap::compute(&gh, &f3);
        assert_eq!(m3.level(a00), 1);
    }
}
