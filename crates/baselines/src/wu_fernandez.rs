//! Wu–Fernandez enhanced safe nodes (paper's Definition 3, from \[10\]).
//!
//! > A nonfaulty node is *unsafe* if and only if one of the following
//! > conditions is true: there are two faulty neighbors, or there are
//! > at least three unsafe or faulty neighbors.
//!
//! Relaxing Lee–Hayes' rule enlarges the safe set (LH-safe ⊆ WF-safe ⊆
//! level-`n` nodes — property-tested in this crate) while the status
//! identification still needs `O(n²)` rounds in the worst case.

use hypersafe_topology::{FaultConfig, NodeId};

/// Boolean safe/unsafe status for every node, Wu–Fernandez style.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WuFernandezStatus {
    safe: Vec<bool>,
    rounds: u32,
}

impl WuFernandezStatus {
    /// Computes the greatest fixed point of Definition 3 by synchronous
    /// demotion rounds.
    pub fn compute(cfg: &FaultConfig) -> Self {
        assert!(
            cfg.link_faults().is_empty(),
            "Definition 3 covers node faults only"
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
                let faulty = cube.neighbors(a).filter(|&b| cfg.node_faulty(b)).count();
                let bad = cube
                    .neighbors(a)
                    .filter(|&b| cfg.node_faulty(b) || !prev[b.raw() as usize])
                    .count();
                if faulty >= 2 || bad >= 3 {
                    safe[idx] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            rounds += 1;
        }
        WuFernandezStatus { safe, rounds }
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

    /// Whether the cube is fully unsafe under Definition 3.
    pub fn fully_unsafe(&self) -> bool {
        !self.safe.iter().any(|&s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lee_hayes::LeeHayesStatus;
    use hypersafe_core::SafetyMap;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    #[test]
    fn section23_example_wf_safe_set() {
        // §2.3: faults {0000, 0110, 1111}. The paper lists the WF set as
        // the SL set "with the absence of node 1100" — but under
        // Definition 3 *as the paper states it*, 1100 is safe: it has
        // zero faulty and exactly two unsafe neighbors (1110, 0100),
        // the same profile as 0101, which the paper keeps. The unique
        // greatest fixed point of the stated rule therefore includes
        // 1100; we pin that and record the discrepancy in
        // EXPERIMENTS.md (E3).
        let cfg = cfg4(&["0000", "0110", "1111"]);
        let st = WuFernandezStatus::compute(&cfg);
        let names: Vec<String> = st.safe_nodes().iter().map(|a| a.to_binary(4)).collect();
        assert_eq!(
            names,
            vec!["0001", "0011", "0101", "1000", "1001", "1010", "1011", "1100", "1101"]
        );
        // The paper's listed members are all present (its set minus the
        // disputed 1100 is a subset of ours).
        for want in [
            "0001", "0011", "0101", "1000", "1001", "1010", "1011", "1101",
        ] {
            assert!(names.iter().any(|s| s == want), "{want} missing");
        }
    }

    #[test]
    fn containment_chain_exhaustive_q4_small_fault_sets() {
        // For every fault distribution: LH-safe ⊆ WF-safe ⊆ SL-safe
        // (the paper's §2.3 comparison). Exhaustive over all fault sets
        // of Q_4 with ≤ 4 faults.
        let cube = Hypercube::new(4);
        for mask in 0u64..(1 << 16) {
            if mask.count_ones() > 4 {
                continue;
            }
            let mut f = FaultSet::new(cube);
            for i in 0..16 {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            let lh = LeeHayesStatus::compute(&cfg);
            let wf = WuFernandezStatus::compute(&cfg);
            let sl = SafetyMap::compute(&cfg);
            for a in cube.nodes() {
                if lh.is_safe(a) {
                    assert!(wf.is_safe(a), "mask {mask:#x}: LH ⊄ WF at {a}");
                }
                if wf.is_safe(a) {
                    assert!(sl.is_safe(a), "mask {mask:#x}: WF ⊄ SL at {a}");
                }
            }
        }
    }

    #[test]
    fn two_faulty_neighbors_demote_immediately() {
        let cfg = cfg4(&["0001", "0010"]);
        let st = WuFernandezStatus::compute(&cfg);
        assert!(!st.is_safe(NodeId::new(0b0000)));
        assert!(!st.is_safe(NodeId::new(0b0011)));
    }

    #[test]
    fn wf_strictly_larger_than_lh_on_section23_instance() {
        // Nodes with two unsafe (but nonfaulty) neighbors survive under
        // Definition 3 while Definition 2 demotes them: on the §2.3
        // instance LH collapses to ∅ while WF keeps 9 nodes.
        let cfg = cfg4(&["0000", "0110", "1111"]);
        let lh = LeeHayesStatus::compute(&cfg);
        let wf = WuFernandezStatus::compute(&cfg);
        assert!(lh.fully_unsafe());
        assert_eq!(wf.safe_nodes().len(), 9);
    }

    #[test]
    fn fault_free_zero_rounds() {
        let cfg = cfg4(&[]);
        let st = WuFernandezStatus::compute(&cfg);
        assert_eq!(st.rounds(), 0);
        assert!(!st.fully_unsafe());
    }
}
