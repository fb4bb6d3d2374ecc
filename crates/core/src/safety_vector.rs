//! Safety **vectors** — the follow-on refinement of safety levels
//! (Wu's later TPDS line of work), implemented here as an extension
//! (DESIGN.md E20).
//!
//! The scalar safety level compresses a node's optimal-reachability
//! profile into its longest guaranteed prefix; a safety vector keeps
//! one bit per distance:
//!
//! * a faulty node's vector is all-zero;
//! * `u_1(a) = 1` for every nonfaulty `a` (a neighbor is always
//!   directly reachable);
//! * for `k ≥ 2`: `u_k(a) = 1` iff at least `n − k + 1` of `a`'s
//!   neighbors have `u_{k−1} = 1`.
//!
//! **Soundness** (tested against the exact oracle): `u_k(a) = 1`
//! implies every node at Hamming distance exactly `k` is reachable by
//! an optimal path — among the `k` preferred neighbors of any such
//! destination, at most `k − 1` can miss from a set of `n − k + 1`
//! good neighbors, so one preferred neighbor carries `u_{k−1} = 1`
//! and induction closes the hop. Unlike the scalar level, the vector
//! can have *holes* (`u_k = 0` but `u_{k+1} = 1`), so it admits
//! strictly more optimal unicasts.
//!
//! Bit `k` depends only on bit `k − 1`, so the whole vector is
//! computed in `n − 1` rounds of neighbor exchange — the same cost as
//! the scalar GS.

use crate::safety::SafetyMap;
use hypersafe_topology::{FaultConfig, NodeId, Topology};

/// Safety vectors of every node: bit `k − 1` of `vectors[a]` is
/// `u_k(a)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SafetyVectorMap {
    n: u8,
    vectors: Vec<u32>,
}

impl SafetyVectorMap {
    /// Computes all vectors, distance level by distance level
    /// (`n − 1` exchange rounds in the distributed reading).
    pub fn compute(cfg: &FaultConfig) -> Self {
        assert!(cfg.link_faults().is_empty(), "node faults only");
        let cube = cfg.cube();
        let n = cube.dim();
        let mut vectors = vec![0u32; cube.num_nodes() as usize];
        // u_1: every nonfaulty node.
        for a in cfg.healthy_nodes() {
            vectors[a.raw() as usize] = 1;
        }
        for k in 2..=n {
            let bit_prev = 1u32 << (k - 2);
            let need = (n - k + 1) as usize;
            let updates: Vec<(usize, bool)> = cfg
                .healthy_nodes()
                .map(|a| {
                    let good = cube
                        .neighbours(a)
                        .filter(|&b| vectors[b.raw() as usize] & bit_prev != 0)
                        .count();
                    (a.raw() as usize, good >= need)
                })
                .collect();
            let bit_k = 1u32 << (k - 1);
            for (idx, set) in updates {
                if set {
                    vectors[idx] |= bit_k;
                }
            }
        }
        SafetyVectorMap { n, vectors }
    }

    /// Dimension of the underlying cube.
    pub fn dim(&self) -> u8 {
        self.n
    }

    /// Whether `u_k(a) = 1` (distance-`k` coverage guaranteed).
    #[inline]
    pub fn covers(&self, a: NodeId, k: u8) -> bool {
        debug_assert!(k >= 1 && k <= self.n);
        self.vectors[a.raw() as usize] & (1 << (k - 1)) != 0
    }

    /// The raw bit vector of `a`.
    pub fn vector(&self, a: NodeId) -> u32 {
        self.vectors[a.raw() as usize]
    }

    /// The scalar level implied by the vector: its all-ones prefix
    /// length. Always comparable against [`SafetyMap::level`].
    pub fn prefix_level(&self, a: NodeId) -> u8 {
        (!self.vectors[a.raw() as usize])
            .trailing_zeros()
            .min(self.n as u32) as u8
    }

    /// Whether the vector-based source test admits an *optimal*
    /// unicast `s → d`: `u_H(s) = 1`, or some preferred neighbor `b`
    /// has `u_{H−1}(b) = 1` (with `H = 1` always feasible).
    pub fn admits_optimal(&self, cfg: &FaultConfig, s: NodeId, d: NodeId) -> bool {
        let h = s.distance(d) as u8;
        if h == 0 || h == 1 {
            return true;
        }
        if self.covers(s, h) {
            return true;
        }
        cfg.cube()
            .preferred(s, d)
            .map(|i| s.neighbor(i))
            .any(|b| !cfg.node_faulty(b) && self.covers(b, h - 1))
    }

    /// Routes `s → d` optimally under the vector guarantee: at each
    /// hop with `j` preferred dimensions left, forward to a nonfaulty
    /// preferred neighbor with `u_{j−1} = 1` (any neighbor for
    /// `j = 1`). Returns the path if the guarantee chain holds.
    pub fn route_optimal(
        &self,
        cfg: &FaultConfig,
        s: NodeId,
        d: NodeId,
    ) -> Option<hypersafe_topology::Path> {
        if !self.admits_optimal(cfg, s, d) {
            return None;
        }
        let cube = cfg.cube();
        let mut at = s;
        let mut path = hypersafe_topology::Path::starting_at(s);
        while at != d {
            let j = at.distance(d) as u8;
            let next = if j == 1 {
                Some(d)
            } else {
                cube.preferred(at, d)
                    .map(|i| at.neighbor(i))
                    .find(|&b| !cfg.node_faulty(b) && self.covers(b, j - 1))
            };
            let next = next?;
            path.push(next);
            at = next;
        }
        Some(path)
    }
}

/// Relationship check used by tests and E20: the vector's all-ones
/// prefix dominates the scalar level on every node (the vector is at
/// least as informative).
pub fn vector_dominates_level(cfg: &FaultConfig, map: &SafetyMap, vmap: &SafetyVectorMap) -> bool {
    cfg.healthy_nodes()
        .all(|a| vmap.prefix_level(a) >= map.level(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactReach;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn fault_free_vectors_all_ones() {
        let cfg = cfg4(&[]);
        let v = SafetyVectorMap::compute(&cfg);
        for a in cfg.cube().nodes() {
            assert_eq!(v.vector(a), 0b1111);
            assert_eq!(v.prefix_level(a), 4);
        }
    }

    #[test]
    fn soundness_against_oracle_exhaustive_q4() {
        // u_k(a) = 1 ⇒ every distance-k destination optimally
        // reachable — for every ≤ 5-fault pattern of Q_4.
        let cube = Hypercube::new(4);
        for mask in 0u64..(1 << 16) {
            if mask.count_ones() > 5 {
                continue;
            }
            let mut f = FaultSet::new(cube);
            for i in 0..16 {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            let v = SafetyVectorMap::compute(&cfg);
            let ex = ExactReach::compute(&cfg);
            for a in cfg.healthy_nodes() {
                let exact = ex.reach_vector(a);
                for k in 1..=4u8 {
                    if v.covers(a, k) {
                        assert!(
                            exact[k as usize - 1],
                            "mask {mask:#x}: u_{k}({a}) set but oracle disagrees"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vector_dominates_scalar_exhaustive_q4() {
        let cube = Hypercube::new(4);
        for mask in 0u64..(1 << 16) {
            if mask.count_ones() > 5 {
                continue;
            }
            let mut f = FaultSet::new(cube);
            for i in 0..16 {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            let map = SafetyMap::compute(&cfg);
            let v = SafetyVectorMap::compute(&cfg);
            assert!(vector_dominates_level(&cfg, &map, &v), "mask {mask:#x}");
        }
    }

    #[test]
    fn vector_routing_realizes_optimal_paths() {
        let cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let v = SafetyVectorMap::compute(&cfg);
        for s in cfg.healthy_nodes() {
            for d in cfg.healthy_nodes() {
                if let Some(p) = v.route_optimal(&cfg, s, d) {
                    assert!(p.is_optimal(), "{s} → {d}");
                    assert!(p.traversable(&cfg, false), "{s} → {d}");
                }
            }
        }
    }

    #[test]
    fn vectors_admit_more_than_scalar_levels() {
        // Find an instance + pair where the vector test admits an
        // optimal unicast the scalar C1/C2 test refuses.
        use crate::unicast::{source_decision, Decision};
        let cube = Hypercube::new(4);
        let mut found = false;
        'outer: for mask in 0u64..(1 << 16) {
            if !(4..=6).contains(&mask.count_ones()) {
                continue;
            }
            let mut f = FaultSet::new(cube);
            for i in 0..16 {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            let map = SafetyMap::compute(&cfg);
            let v = SafetyVectorMap::compute(&cfg);
            for s in cfg.healthy_nodes() {
                for d in cfg.healthy_nodes() {
                    if s == d {
                        continue;
                    }
                    let scalar_optimal =
                        matches!(source_decision(&map, s, d), Decision::Optimal { .. });
                    if !scalar_optimal && v.admits_optimal(&cfg, s, d) {
                        // The vector promise must be real.
                        let p = v.route_optimal(&cfg, s, d).expect("admitted");
                        assert!(p.is_optimal());
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            found,
            "vectors should strictly extend scalar optimal coverage"
        );
    }

    #[test]
    fn faulty_nodes_have_zero_vectors() {
        let cfg = cfg4(&["1010"]);
        let v = SafetyVectorMap::compute(&cfg);
        assert_eq!(v.vector(NodeId::new(0b1010)), 0);
        assert_eq!(v.prefix_level(NodeId::new(0b1010)), 0);
    }
}
