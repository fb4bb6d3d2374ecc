//! Lee–Hayes safe nodes (paper's Definition 2, from \[7\]) and a routing
//! baseline built on them.
//!
//! > A nonfaulty node is *unsafe* if and only if there are at least two
//! > unsafe or faulty neighbors.
//!
//! The safe set is the **greatest** fixed point of that rule: start
//! from "every nonfaulty node is safe" and demote until stable. The
//! paper notes this takes `O(n²)` rounds of neighbor exchange in the
//! worst case (vs. `n − 1` for safety levels) and yields the smallest
//! safe set of the three definitions — both facts are measured by the
//! E3/E11 experiments.

use hypersafe_topology::{FaultConfig, NodeId, Path, Topology};

/// Boolean safe/unsafe status for every node, Lee–Hayes style.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeeHayesStatus {
    safe: Vec<bool>,
    rounds: u32,
}

impl LeeHayesStatus {
    /// Computes the greatest fixed point of Definition 2 by synchronous
    /// demotion rounds (each round every node re-evaluates against the
    /// previous round's statuses, mirroring a real exchange protocol).
    ///
    /// # Examples
    ///
    /// ```
    /// use hypersafe_topology::{Hypercube, FaultSet, FaultConfig};
    /// use hypersafe_baselines::LeeHayesStatus;
    ///
    /// // §2.3: three faults already empty the Lee–Hayes safe set.
    /// let cube = Hypercube::new(4);
    /// let faults = FaultSet::from_binary_strs(cube, &["0000", "0110", "1111"]);
    /// let cfg = FaultConfig::with_node_faults(cube, faults);
    /// assert!(LeeHayesStatus::compute(&cfg).fully_unsafe());
    /// ```
    pub fn compute(cfg: &FaultConfig) -> Self {
        assert!(
            cfg.link_faults().is_empty(),
            "Definition 2 covers node faults only"
        );
        let cube = cfg.cube();
        let mut safe: Vec<bool> = cube.nodes().map(|a| !cfg.node_faulty(a)).collect();
        let mut rounds = 0u32;
        loop {
            let prev = safe.clone();
            let mut changed = false;
            for a in cube.nodes() {
                let idx = a.raw() as usize;
                if cfg.node_faulty(a) || !prev[idx] {
                    continue;
                }
                let bad = cube
                    .neighbours(a)
                    .filter(|&b| cfg.node_faulty(b) || !prev[b.raw() as usize])
                    .count();
                if bad >= 2 {
                    safe[idx] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            rounds += 1;
        }
        LeeHayesStatus { safe, rounds }
    }

    /// Whether `a` is safe.
    #[inline]
    pub fn is_safe(&self, a: NodeId) -> bool {
        self.safe[a.raw() as usize]
    }

    /// Demotion rounds until stability.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The safe nodes, ascending.
    pub fn safe_nodes(&self) -> Vec<NodeId> {
        self.safe
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(i, _)| NodeId::new(i as u64))
            .collect()
    }

    /// Whether the cube is *fully unsafe* (empty safe set) — the
    /// condition under which Lee–Hayes routing is inapplicable.
    pub fn fully_unsafe(&self) -> bool {
        !self.safe.iter().any(|&s| s)
    }
}

/// Routes `s → d` with a Lee–Hayes-style strategy: prefer safe
/// preferred neighbors, fall back to any nonfaulty preferred neighbor,
/// detour via a safe spare neighbor when blocked. The hop budget is
/// `H + 2` (the bound claimed in \[7\]); exceeding it is a failure.
///
/// This is a faithful-to-claims reconstruction, not a line-by-line port
/// of \[7\] (see DESIGN.md §5): it requires a non-fully-unsafe cube and
/// achieves `≤ H + 2` when safe nodes steer the detour.
pub fn lh_route(cfg: &FaultConfig, status: &LeeHayesStatus, s: NodeId, d: NodeId) -> Option<Path> {
    if status.fully_unsafe() || cfg.node_faulty(s) || cfg.node_faulty(d) {
        return None;
    }
    let cube = cfg.cube();
    let budget = s.distance(d) + 2;
    let mut at = s;
    let mut path = Path::starting_at(s);
    let mut last_dim: Option<u8> = None;
    while at != d {
        if path.len() >= budget {
            return None;
        }
        // Deliver directly when adjacent.
        if at.distance(d) == 1 {
            path.push(d);
            break;
        }
        // Safe preferred neighbor > nonfaulty preferred > safe spare.
        let pick = cube
            .preferred(at, d)
            .map(|i| (i, at.neighbor(i)))
            .filter(|&(_, b)| !cfg.node_faulty(b))
            .max_by_key(|&(i, b)| (status.is_safe(b), std::cmp::Reverse(i)))
            .filter(|&(_, b)| status.is_safe(b))
            .or_else(|| {
                cube.preferred(at, d)
                    .map(|i| (i, at.neighbor(i)))
                    .find(|&(_, b)| !cfg.node_faulty(b))
            })
            .or_else(|| {
                cube.spare(at, d)
                    .filter(|&i| Some(i) != last_dim)
                    .map(|i| (i, at.neighbor(i)))
                    .find(|&(_, b)| !cfg.node_faulty(b) && status.is_safe(b))
            });
        match pick {
            Some((i, b)) => {
                last_dim = Some(i);
                path.push(b);
                at = b;
            }
            None => return None,
        }
    }
    Some(path)
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
    fn section23_example_lh_safe_set_is_empty() {
        // §2.3: faults {0000, 0110, 1111} → "The safe node set is empty
        // using Definition 2."
        let cfg = cfg4(&["0000", "0110", "1111"]);
        let st = LeeHayesStatus::compute(&cfg);
        assert!(st.fully_unsafe());
        assert_eq!(st.safe_nodes(), vec![]);
    }

    #[test]
    fn fault_free_cube_all_safe() {
        let cfg = cfg4(&[]);
        let st = LeeHayesStatus::compute(&cfg);
        assert_eq!(st.safe_nodes().len(), 16);
        assert_eq!(st.rounds(), 0);
    }

    #[test]
    fn single_fault_keeps_rest_safe() {
        let cfg = cfg4(&["0101"]);
        let st = LeeHayesStatus::compute(&cfg);
        assert_eq!(st.safe_nodes().len(), 15);
    }

    #[test]
    fn unsafe_cascade() {
        // Two faults adjacent to a common node make it unsafe, which can
        // cascade.
        let cfg = cfg4(&["0001", "0010"]);
        let st = LeeHayesStatus::compute(&cfg);
        assert!(!st.is_safe(NodeId::new(0b0000)), "two faulty neighbors");
        assert!(!st.is_safe(NodeId::new(0b0011)), "two faulty neighbors");
    }

    #[test]
    fn routing_in_lightly_faulty_cube() {
        let cfg = cfg4(&["0100"]);
        let st = LeeHayesStatus::compute(&cfg);
        for s in cfg.healthy_nodes() {
            for dnode in cfg.healthy_nodes() {
                if s == dnode {
                    continue;
                }
                let p = lh_route(&cfg, &st, s, dnode);
                let p = p.expect("one fault must be routable");
                assert!(p.traversable(&cfg, false));
                assert!(p.len() <= s.distance(dnode) + 2, "{s} → {dnode}");
            }
        }
    }

    #[test]
    fn routing_refuses_fully_unsafe_cube() {
        let cfg = cfg4(&["0000", "0110", "1111"]);
        let st = LeeHayesStatus::compute(&cfg);
        assert_eq!(lh_route(&cfg, &st, NodeId::new(1), NodeId::new(2)), None);
    }
}
