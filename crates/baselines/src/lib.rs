//! # hypersafe-baselines
//!
//! The fault-tolerant routing schemes the paper positions safety levels
//! against, implemented as runnable baselines:
//!
//! * [`lee_hayes`] — safe nodes per Definition 2 (\[7\]) + routing.
//! * [`wu_fernandez`] — enhanced safe nodes per Definition 3 (\[10\]).
//! * [`chiu_wu`] — routing over WF status with the `H + 4` bound (\[4\],
//!   faithful-to-claims reconstruction; see DESIGN.md §5).
//! * [`chen_shin_dfs`] — DFS routing with backtracking and message
//!   history (\[3\]).
//! * [`chen_shin_progressive`] — backtrack-free adaptive routing (\[2\]).
//! * [`sidetrack`] — Gordon–Stout random sidetracking (\[5\]).
//! * [`free_dimensions`](mod@free_dimensions) — Raghavendra et al. free dimensions (\[8\]).
//!
//! The crate-level tests pin the paper's §2.3 comparison: for every
//! fault distribution, LH-safe ⊆ WF-safe ⊆ {level-n nodes}, and both
//! boolean safe sets are empty in every disconnected cube (Theorem 4).
#![warn(missing_docs)]

pub mod chen_shin_dfs;
pub mod chen_shin_progressive;
pub mod chiu_wu;
pub mod free_dimensions;
pub mod lee_hayes;
pub mod sidetrack;
pub mod wu_fernandez;

pub use chen_shin_dfs::{dfs_route, DfsRoute};
pub use chen_shin_progressive::{default_ttl, progressive_route};
pub use chiu_wu::cw_route;
pub use free_dimensions::{fd_route, free_dimensions, has_free_dimension};
pub use lee_hayes::{lh_route, LeeHayesStatus};
pub use sidetrack::sidetrack_route;
pub use wu_fernandez::WuFernandezStatus;

#[cfg(test)]
mod theorem4_tests {
    use super::*;
    use hypersafe_topology::{connectivity, FaultConfig, FaultSet, Hypercube, NodeId};

    /// Theorem 4 exhaustively on Q_4 with ≤ 6 faults: every disconnected
    /// instance has empty LH and WF safe sets.
    #[test]
    fn theorem4_exhaustive_q4() {
        let cube = Hypercube::new(4);
        let mut disconnected_seen = 0u32;
        for mask in 0u64..(1 << 16) {
            let ones = mask.count_ones();
            if !(4..=6).contains(&ones) {
                continue; // fewer than 4 faults cannot disconnect Q_4
            }
            let mut f = FaultSet::new(cube);
            for i in 0..16 {
                if (mask >> i) & 1 == 1 {
                    f.insert(NodeId::new(i));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            if !connectivity::is_disconnected(&cfg) {
                continue;
            }
            disconnected_seen += 1;
            let lh = LeeHayesStatus::compute(&cfg);
            let wf = WuFernandezStatus::compute(&cfg);
            assert!(lh.fully_unsafe(), "mask {mask:#x}: LH safe set nonempty");
            assert!(wf.fully_unsafe(), "mask {mask:#x}: WF safe set nonempty");
        }
        assert!(disconnected_seen > 0, "test exercised real disconnections");
    }

    /// The flip side that makes safety levels strictly stronger: in the
    /// Fig. 3 disconnected cube, safety levels still enable optimal
    /// routing inside the large component while LH/WF are inapplicable.
    #[test]
    fn safety_levels_survive_where_safe_sets_die() {
        use hypersafe_core::{route, Decision, SafetyMap};
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0110", "1010", "1100", "1111"]),
        );
        assert!(connectivity::is_disconnected(&cfg));
        let lh = LeeHayesStatus::compute(&cfg);
        let wf = WuFernandezStatus::compute(&cfg);
        assert!(lh.fully_unsafe());
        assert!(wf.fully_unsafe());

        let map = SafetyMap::compute(&cfg);
        let s = NodeId::from_binary("0101").unwrap();
        let d = NodeId::from_binary("0000").unwrap();
        let res = route(&cfg, &map, s, d);
        assert!(matches!(res.decision, Decision::Optimal { .. }));
        assert!(res.delivered);
    }
}
