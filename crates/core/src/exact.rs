//! Exact optimal-reachability oracle — ground truth for Theorem 2.
//!
//! The safety level is an *approximation* "of the number and
//! distribution of faulty nodes": a `k`-safe node is guaranteed
//! optimal paths within distance `k`, but the converse does not hold —
//! a node may reach further optimally than its level promises. This
//! module computes the exact predicate
//!
//! > `OPT(a, d)` — "an optimal (Hamming-length) path from `a` to `d`
//! > with nonfaulty intermediate nodes exists"
//!
//! by dynamic programming over navigation masks, and from it each
//! node's exact *guaranteed radius* `r(a) = max{k : OPT(a, d) for all
//! d within k}`. Theorem 2 says `S(a) ≤ r(a)` everywhere (tested
//! exhaustively and by property); the E16 experiment measures the gap,
//! i.e. the price the paper's `n − 1`-round computability costs
//! relative to perfect information.
//!
//! Complexity is `Θ(n · 4ⁿ)` time and `4ⁿ` bits of memory — exact
//! oracles do not come cheap; practical for `n ≤ 10` in release
//! builds, and exactly why the paper's cheap approximation matters.

use crate::safety::{Level, SafetyMap};
use hypersafe_topology::{e, BitDims, FaultConfig, NodeId, Topology};

/// The exact reachability table for one faulty-cube instance.
pub struct ExactReach {
    n: u8,
    /// `table[a * 2ⁿ + m]` — whether an optimal path from `a` exists
    /// for navigation mask `m` (destination `a ⊕ m`).
    table: Vec<bool>,
}

impl ExactReach {
    /// # Examples
    ///
    /// ```
    /// use hypersafe_topology::{Hypercube, FaultSet, FaultConfig, NodeId};
    /// use hypersafe_core::{ExactReach, SafetyMap, tightness};
    ///
    /// let cube = Hypercube::new(4);
    /// let faults = FaultSet::from_binary_strs(cube, &["0001", "0010"]);
    /// let cfg = FaultConfig::with_node_faults(cube, faults);
    /// let ex = ExactReach::compute(&cfg);
    /// // Both optimal intermediates to 0011 are dead:
    /// assert!(!ex.optimal_path_exists(NodeId::ZERO, NodeId::new(0b0011)));
    /// // …and the safety level never over-promises:
    /// let map = SafetyMap::compute(&cfg);
    /// assert_eq!(tightness(&cfg, &map, &ex).violations, 0);
    /// ```
    ///
    /// Builds the full table.
    ///
    /// # Panics
    /// Panics for `n > 12` (the table would exceed 16M entries; use
    /// sampling approaches beyond that).
    pub fn compute(cfg: &FaultConfig) -> Self {
        let cube = cfg.cube();
        let n = cube.dim();
        assert!(n <= 12, "exact oracle limited to n ≤ 12 (4ⁿ table)");
        assert!(cfg.link_faults().is_empty(), "node faults only");
        let size = cube.num_nodes() as usize;
        let mut table = vec![false; size * size];

        // Masks in increasing popcount so every OPT(b, m ⊕ eᵢ) is
        // already final when OPT(a, m) is evaluated.
        let mut masks: Vec<u64> = (0..cube.num_nodes()).collect();
        masks.sort_by_key(|m| m.count_ones());
        for &m in &masks {
            if m == 0 {
                // Trivially "there" for every a.
                for a in 0..size {
                    table[a * size + m as usize] = true;
                }
                continue;
            }
            for a in 0..size as u64 {
                let ok = if m.count_ones() == 1 {
                    // A neighbor is always reachable directly, faulty
                    // or not (Theorem 2's base case / footnote 3).
                    true
                } else {
                    BitDims(m).any(|i| {
                        let b = a ^ e(i).raw();
                        !cfg.node_faulty(NodeId::new(b))
                            && table[(b as usize) * size + (m ^ e(i).raw()) as usize]
                    })
                };
                table[(a as usize) * size + m as usize] = ok;
            }
        }
        ExactReach { n, table }
    }

    /// Whether an optimal path `a → d` with nonfaulty intermediates
    /// exists.
    #[inline]
    pub fn optimal_path_exists(&self, a: NodeId, d: NodeId) -> bool {
        let size = 1usize << self.n;
        self.table[(a.raw() as usize) * size + a.xor(d).raw() as usize]
    }

    /// The exact guaranteed radius of `a`: the largest `k` such that
    /// *every* node within Hamming distance `k` is optimally
    /// reachable. 0 for a faulty node by convention.
    pub fn radius(&self, cfg: &FaultConfig, a: NodeId) -> Level {
        if cfg.node_faulty(a) {
            return 0;
        }
        let size = 1u64 << self.n;
        let mut best = self.n;
        for m in 1..size {
            if !self.table[(a.raw() as usize) * size as usize + m as usize] {
                best = best.min(m.count_ones() as u8 - 1);
            }
        }
        best
    }

    /// Per-node exact radii as a [`SafetyMap`]-shaped vector (handy for
    /// comparisons with the real map).
    pub fn radii(&self, cfg: &FaultConfig) -> Vec<Level> {
        cfg.cube().nodes().map(|a| self.radius(cfg, a)).collect()
    }

    /// The exact per-distance *reach vector* of `a`: `v[k − 1]` is
    /// true iff **every** node at Hamming distance exactly `k` is
    /// optimally reachable. The safety level compresses this vector to
    /// its longest all-true prefix; the follow-on "safety vector" line
    /// of work keeps the whole thing — this is its exact (perfect-
    /// information) counterpart.
    pub fn reach_vector(&self, a: NodeId) -> Vec<bool> {
        let size = 1u64 << self.n;
        let mut v = vec![true; self.n as usize];
        for m in 1..size {
            let k = m.count_ones() as usize;
            if !self.table[(a.raw() as usize) * size as usize + m as usize] {
                v[k - 1] = false;
            }
        }
        v
    }
}

/// Summary of the safety-level vs exact-radius comparison for one
/// instance — the paper's approximation quality, quantified.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TightnessSummary {
    /// Nonfaulty nodes examined.
    pub nodes: u64,
    /// Nodes where `S(a) = r(a)` (the approximation is tight).
    pub tight: u64,
    /// Mean slack `r(a) − S(a)`.
    pub mean_slack: f64,
    /// Maximum slack observed.
    pub max_slack: u8,
    /// Nodes where `S(a) > r(a)` — a Theorem 2 violation; always 0.
    pub violations: u64,
}

/// Compares a safety map against the exact oracle.
pub fn tightness(cfg: &FaultConfig, map: &SafetyMap, exact: &ExactReach) -> TightnessSummary {
    let mut s = TightnessSummary::default();
    let mut slack_sum = 0u64;
    for a in cfg.healthy_nodes() {
        let lv = map.level(a);
        let r = exact.radius(cfg, a);
        s.nodes += 1;
        if lv == r {
            s.tight += 1;
        }
        if lv > r {
            s.violations += 1;
        } else {
            let slack = r - lv;
            slack_sum += slack as u64;
            s.max_slack = s.max_slack.max(slack);
        }
    }
    s.mean_slack = if s.nodes == 0 {
        0.0
    } else {
        slack_sum as f64 / s.nodes as f64
    };
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn fault_free_everything_reachable() {
        let cfg = cfg4(&[]);
        let ex = ExactReach::compute(&cfg);
        for a in cfg.cube().nodes() {
            for d in cfg.cube().nodes() {
                assert!(ex.optimal_path_exists(a, d));
            }
            assert_eq!(ex.radius(&cfg, a), 4);
        }
    }

    #[test]
    fn theorem2_lower_bound_exhaustive_q4() {
        // For every ≤ 5-fault pattern of Q_4: S(a) ≤ r(a), and the
        // greedy guarantee matches the oracle within the level.
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
            let ex = ExactReach::compute(&cfg);
            let t = tightness(&cfg, &map, &ex);
            assert_eq!(t.violations, 0, "mask {mask:#x}: S(a) > r(a) somewhere");
        }
    }

    #[test]
    fn fig1_exact_radii() {
        let cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let map = SafetyMap::compute(&cfg);
        let ex = ExactReach::compute(&cfg);
        // Safe nodes are exactly radius-4 here.
        for a in cfg.healthy_nodes() {
            assert!(map.level(a) <= ex.radius(&cfg, a), "{a}");
        }
        // 0001 is 1-safe but can actually reach optimally further to
        // *some* nodes — yet its guaranteed radius is larger than its
        // level (slack), e.g. both distance-2 destinations via 0000 and
        // 0101 work.
        let t = tightness(&cfg, &map, &ex);
        assert_eq!(t.violations, 0);
        assert!(t.nodes == 12);
    }

    #[test]
    fn blocked_pair_detected() {
        // Both optimal intermediates 0001/0010 dead → 0000 cannot reach
        // 0011 optimally.
        let cfg = cfg4(&["0001", "0010"]);
        let ex = ExactReach::compute(&cfg);
        assert!(!ex.optimal_path_exists(NodeId::new(0), NodeId::new(0b0011)));
        assert!(ex.optimal_path_exists(NodeId::new(0), NodeId::new(0b1100)));
        assert_eq!(ex.radius(&cfg, NodeId::new(0)), 1);
    }

    #[test]
    fn faulty_destination_at_distance_one_counts() {
        let cfg = cfg4(&["0001"]);
        let ex = ExactReach::compute(&cfg);
        assert!(
            ex.optimal_path_exists(NodeId::new(0), NodeId::new(1)),
            "footnote 3"
        );
    }

    #[test]
    fn reach_vector_prefix_is_radius() {
        let cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let ex = ExactReach::compute(&cfg);
        for a in cfg.healthy_nodes() {
            let v = ex.reach_vector(a);
            let prefix = v.iter().take_while(|&&b| b).count() as Level;
            assert_eq!(prefix, ex.radius(&cfg, a), "{a}");
        }
    }

    #[test]
    fn reach_vector_can_have_holes() {
        // A node can fail distance k yet cover distance k + 1 — the
        // information the scalar safety level throws away. Search a
        // small instance exhibiting a hole.
        let cube = Hypercube::new(4);
        let mut found = false;
        'outer: for mask in 0u64..(1 << 16) {
            if mask.count_ones() != 3 {
                continue;
            }
            let mut f = FaultSet::new(cube);
            for i in 0..16 {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            let ex = ExactReach::compute(&cfg);
            for a in cfg.healthy_nodes() {
                let v = ex.reach_vector(a);
                if (0..v.len() - 1).any(|k| !v[k] && v[k + 1]) {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "a reach-vector hole exists in some 3-fault Q_4");
    }

    #[test]
    fn radius_of_faulty_node_is_zero() {
        let cfg = cfg4(&["0011"]);
        let ex = ExactReach::compute(&cfg);
        assert_eq!(ex.radius(&cfg, NodeId::new(0b0011)), 0);
    }
}
