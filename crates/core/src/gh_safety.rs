//! Safety levels in generalized hypercubes — Definition 4 (paper §4.2).
//!
//! In `GH(m_{n-1}, …, m_0)` every node still carries an `n`-vector of
//! per-dimension safety values, but the value for dimension `i` is the
//! **minimum** safety level over the `m_i − 1` other nodes of the
//! node's dimension-`i` clique. Definition 1's rule is then applied to
//! the sorted `n`-vector unchanged. With all radices 2 this reduces
//! exactly to the binary Definition 1 (tested against the cube's scalar
//! oracle).
//!
//! Because the clique nodes are directly connected, one exchange step
//! suffices to learn the dimension minimum, so the fixed point is still
//! reached in `n − 1` rounds. This module gives `&GeneralizedHypercube`
//! its [`Readings`]: Definition 4's readings and the round kernel that
//! [`SafetyMap::compute_in`] runs on it, the cube's frontier rounds and
//! Definition-1 rule ([`crate::safety`]) with a sweep in place of the
//! planes. The lock-step protocol is [`crate::run_gs`], over either
//! topology. The map is the cube's [`SafetyMap`] over
//! `&GeneralizedHypercube`: it carries the GH it describes, so the
//! routing entry points take the map alone.

use crate::level_store::LevelStore;
use crate::safety::{frontier_round, rule_level, Kernel, Level, Readings, SafetyMap};
use crate::safety_delta::with_clear_marks;
use hypersafe_topology::{GeneralizedHypercube, GhNode, Topology};

/// A round runs on the frontier while the last round's changes times
/// the degree (the peers it visits) stay at or below this many per
/// node, else it sweeps. Measured per round on a 2-vCPU Xeon (best of
/// three; GH(2¹⁴), GH(3⁹), GH(4⁸), GH(8⁵); 2–20% uniform faults), a
/// sweep cost 150–190 ns per node still at `n` and 3–5 ns per other
/// node, a visit 40–110 ns. Over those eight instances this bound came
/// within 1% of the cheaper kind every round; ½, 2 and 4 cost 6%, 3%
/// and 20% more.
const SWEEP_VISITS_PER_NODE: u64 = 1;

/// Definition 4's readings: dimension `i` of `a` reads the lowest
/// level among the other members of `a`'s dimension-`i` clique.
impl Readings for &GeneralizedHypercube {
    fn readings(self, levels: &LevelStore, a: GhNode) -> impl Iterator<Item = Level> {
        (0..self.dim()).map(move |i| {
            let peers = self.along(a, i).map(|c| levels.get(c.raw()));
            peers.min().expect("radix ≥ 2 gives ≥ 1 clique peer")
        })
    }

    /// The Jacobi rounds from the all-`n` start (faulty nodes 0), each
    /// on the frontier of the last round's changes (the faults first)
    /// or, when those are many, as a sweep (DESIGN.md §13). Members of
    /// `faulty` past the last node are neither set nor seeded.
    fn fixed_point(self, faulty: &[u64], _: Kernel) -> SafetyMap<Self> {
        let len = self.num_nodes();
        let mut levels = LevelStore::ceiling_except(self.dim(), len, faulty);
        let mut frontier: Vec<GhNode> = levels.iter_eq(0).map(GhNode).collect();
        let mut changes = Vec::new();
        let mut rounds = 0u32;
        with_clear_marks(len, |marks| loop {
            let sparse =
                frontier.len() as u64 * self.degree() as u64 <= SWEEP_VISITS_PER_NODE * len;
            let changed = if sparse {
                frontier_round(
                    self,
                    &mut levels,
                    faulty,
                    marks,
                    &mut frontier,
                    &mut changes,
                )
            } else {
                sweep(self, &mut levels, &mut frontier)
            };
            if changed == 0 {
                break;
            }
            rounds += 1;
        });
        SafetyMap::from_store(self, levels).with_rounds(rounds)
    }
}

/// One Jacobi round over every node still at `n` (no other can change,
/// DESIGN.md §13), in index order, against the levels before the round;
/// `frontier` ends up holding the changed nodes. Returns their number.
fn sweep(gh: &GeneralizedHypercube, levels: &mut LevelStore, frontier: &mut Vec<GhNode>) -> u64 {
    let n = gh.dim();
    let mut next = levels.clone();
    frontier.clear();
    for a in (0..levels.len()).map(GhNode) {
        if levels.get(a.raw()) == n {
            let level = rule_level(gh, levels, a);
            if level != n {
                next.set(a.raw(), level);
                frontier.push(a);
            }
        }
    }
    *levels = next;
    frontier.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gs::{run_gs, GsNode};
    use hypersafe_simkit::{Net, SyncEngine};
    use hypersafe_topology::{BitDims, FaultConfig, FaultSet, Hypercube, NodeId};

    /// `compute_in` agrees with the lock-step protocol (the engine
    /// [`run_gs`] runs) in levels and `rounds()`, and on an
    /// all-radix-2 GH with the cube's scalar oracle. Both oracles step
    /// round by round as fact (a) of DESIGN.md §13 says: after round
    /// `r` a node holds its final level if that is `r` or less, else
    /// `n`. So round `r + 1` follows the nodes of final level `r` (the
    /// faults for `r = 0`), and the returned schedule says, per round,
    /// whether `compute` ran it on the frontier.
    fn assert_matches_protocol<'a>(
        gh: &'a GeneralizedHypercube,
        faults: &FaultSet,
        what: &str,
    ) -> (SafetyMap<&'a GeneralizedHypercube>, Vec<bool>) {
        let map = SafetyMap::compute_in(gh, faults);
        let n = gh.dim();
        let after = |r: u32| -> Vec<Level> {
            let cap = |l: Level| if u32::from(l) <= r { l } else { n };
            map.to_vec().into_iter().map(cap).collect()
        };
        let net = Net::new(gh, faults);
        let dims: Vec<u8> = (0..gh.degree())
            .map(|k| gh.port_at(GhNode(0), k).0)
            .collect();
        let mut eng = SyncEngine::new(&net, |_| GsNode::new(n, &dims, false));
        let mut rounds = 0;
        let levels = |eng: &SyncEngine<'_, _, GsNode<'_>>| {
            let nodes = gh.nodes().map(|a| eng.node(NodeId::new(a.raw())));
            nodes
                .map(|v| v.map_or(0, GsNode::level))
                .collect::<Vec<_>>()
        };
        assert_eq!(levels(&eng), after(0), "{what}");
        while eng.run_round() != 0 {
            rounds += 1;
            assert_eq!(levels(&eng), after(rounds), "{what} round {rounds}");
        }
        assert_eq!(map.rounds(), rounds, "{what}");
        if (0..n).all(|i| gh.radix(i) == 2) {
            let cube = Hypercube::new(n);
            let cfg = FaultConfig::with_node_faults(cube, faults.clone());
            let (_, trace) = SafetyMap::compute_reference_trace(&cfg);
            assert_eq!(trace, (0..=rounds).map(after).collect::<Vec<_>>(), "{what}");
        }
        let schedule = (0..=rounds).map(|r| {
            let changed = map.store().count_eq(r as Level);
            changed * gh.degree() as u64 <= SWEEP_VISITS_PER_NODE * gh.num_nodes()
        });
        let schedule = schedule.collect();
        (map, schedule)
    }

    /// Every node-fault set of `gh`.
    fn every_fault_set(gh: &GeneralizedHypercube) -> impl Iterator<Item = FaultSet> + '_ {
        let len = gh.num_nodes();
        (0u64..1 << len).map(move |mask| {
            let mut f = gh.fault_set();
            for a in BitDims(mask) {
                f.insert(NodeId::new(a as u64));
            }
            f
        })
    }

    #[test]
    fn matches_the_protocol_on_every_fault_set_of_gh_3_3() {
        let gh = GeneralizedHypercube::new(&[3, 3]);
        for (mask, f) in every_fault_set(&gh).enumerate() {
            assert_matches_protocol(&gh, &f, &format!("GH(3,3) mask={mask:#b}"));
        }
    }

    #[test]
    fn matches_the_protocol_on_every_fault_set_of_gh_4_2_2() {
        let gh = GeneralizedHypercube::from_product(&[4, 2, 2]);
        for (mask, f) in every_fault_set(&gh).enumerate() {
            assert_matches_protocol(&gh, &f, &format!("GH(4,2,2) mask={mask:#b}"));
        }
    }

    #[test]
    fn matches_the_protocol_and_the_cube_on_every_fault_set_of_gh_2_2_2_2() {
        let gh = GeneralizedHypercube::new(&[2, 2, 2, 2]);
        for (mask, f) in every_fault_set(&gh).enumerate() {
            assert_matches_protocol(&gh, &f, &format!("GH(2,2,2,2) mask={mask:#b}"));
        }
    }

    #[test]
    fn faults_past_the_last_node_are_ignored() {
        // A set sized for 200 nodes on the 36-node GH(3,3,4), with
        // members past 36 in the GH's last word and in later words: the
        // map is the one of the in-range members alone, and the
        // frontier is seeded with those only (a member past the end
        // would index the mark bits out of range).
        //
        // On Q8, one fitting rule for both: a set sized for Q6 (one
        // word where the rounds read four; the nodes past it are
        // healthy) and one sized for Q10, each handed in bare and
        // swapped into a configuration, give the map of the fitted set,
        // and the lock-step run agrees and passes its checks.
        let cube = Hypercube::new(8);
        let members = [3u64, 5, 63].map(NodeId::new);
        let want = SafetyMap::compute_in(cube, &FaultSet::from_nodes(cube, members));
        for capacity in [64, 1 << 10] {
            let mut set = FaultSet::with_capacity(capacity);
            for a in members {
                set.insert(a);
            }
            if capacity > cube.num_nodes() {
                for a in [256u64, 300, 700] {
                    set.insert(NodeId::new(a));
                }
            }
            let mut cfg = FaultConfig::fault_free(cube);
            *cfg.node_faults_mut() = set.clone();
            let what = format!("Q8, a set of capacity {capacity}");
            assert_eq!(SafetyMap::compute_in(cube, &set), want, "{what}");
            assert_eq!(SafetyMap::compute(&cfg), want, "{what}");
            let run = run_gs(cube, &set);
            assert_eq!((run.check, run.map), (Ok(()), want.clone()), "{what}");
        }

        let gh = GeneralizedHypercube::new(&[3, 3, 4]);
        let mut wide = FaultSet::with_capacity(200);
        let mut fitted = gh.fault_set();
        for a in [0u64, 4, 13, 35] {
            wide.insert(NodeId::new(a));
            fitted.insert(NodeId::new(a));
        }
        for a in [36u64, 40, 63, 64, 130, 199] {
            wide.insert(NodeId::new(a));
        }
        let (map, _) = assert_matches_protocol(&gh, &wide, "wide set");
        assert_eq!(map, SafetyMap::compute_in(&gh, &fitted));
    }

    #[test]
    fn every_schedule_occurs() {
        let faults = |gh: &GeneralizedHypercube, nodes: &[u64]| {
            let mut f = gh.fault_set();
            for &a in nodes {
                f.insert(NodeId::new(a));
            }
            f
        };
        // Fig. 1's faults on GH(2,2,2,2): four faults times degree four
        // stay within the 16-node budget, and so do the rounds after.
        let gh = GeneralizedHypercube::new(&[2, 2, 2, 2]);
        let f = faults(&gh, &[0b0011, 0b0100, 0b0110, 0b1001]);
        let (map, s) = assert_matches_protocol(&gh, &f, "fig1 on GH(2,2,2,2)");
        assert_eq!((map.rounds(), s), (2, vec![true, true, true]));
        // Ten faults in the 27-node GH(3,3,3), degree six (a budget of
        // four changes per round): every round sweeps.
        let gh = GeneralizedHypercube::new(&[3, 3, 3]);
        let f = faults(&gh, &[0, 6, 7, 8, 9, 10, 11, 12, 16, 24]);
        let (map, s) = assert_matches_protocol(&gh, &f, "ten faults on GH(3,3,3)");
        assert_eq!((map.rounds(), s), (2, vec![false, false, false]));
        // Four faults: round 1 runs on the frontier (24 visits) but
        // changes more than four nodes, over the budget, so round 2
        // sweeps; it changes four or fewer, so the quiet round 3 runs
        // on the frontier again.
        let f = faults(&gh, &[1, 8, 13, 14]);
        let (map, s) = assert_matches_protocol(&gh, &f, "four faults on GH(3,3,3)");
        assert_eq!((map.rounds(), s), (2, vec![true, false, true]));
    }

    /// A small deterministic generator for the proptest's draws.
    fn splitmix(z: &mut u64) -> u64 {
        *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Radices 2–8 over 1–5 dimensions with uniform faults on up to
        /// 60% of the nodes: the trace equals the lock-step protocol's
        /// round by round. Low shares run every round on the frontier,
        /// high shares and single cliques sweep every round, and the
        /// shares in between switch mid-run ([`every_schedule_occurs`]
        /// pins one instance of each).
        #[test]
        fn frontier_rounds_match_the_protocol_round_by_round(
            dims in 1usize..=5,
            share in 0u64..=60,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut z = seed;
            let radices: Vec<u16> = (0..dims).map(|_| 2 + (splitmix(&mut z) % 7) as u16).collect();
            let gh = GeneralizedHypercube::new(&radices);
            let len = gh.num_nodes();
            let mut f = gh.fault_set();
            for _ in 0..len * share / 100 {
                f.insert(NodeId::new(splitmix(&mut z) % len));
            }
            assert_matches_protocol(&gh, &f, &format!("GH{radices:?} share={share} seed={seed}"));
        }
    }

    #[test]
    fn binary_radices_reduce_to_definition1() {
        // GH(2,2,2,2) with the Fig. 1 fault set must equal the binary map.
        let gh = GeneralizedHypercube::new(&[2, 2, 2, 2]);
        let cube = Hypercube::new(4);
        let faults = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
        let ghmap = SafetyMap::compute_in(&gh, &faults);
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let qmap = SafetyMap::compute(&cfg);
        assert_eq!(ghmap.to_vec(), qmap.to_vec());
        assert_eq!(ghmap.rounds(), qmap.rounds());
    }

    #[test]
    fn fault_free_gh_is_all_safe() {
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let map = SafetyMap::compute_in(&gh, &gh.fault_set());
        assert_eq!(map.rounds(), 0);
        assert!(gh.nodes().all(|a| map.is_safe(a)));
        // GH(2,6) and GH(3,4) both have 12 nodes, n = 2, every level 2
        // and no round: the same levels, but each map is tied to its GH.
        let (g26, g34) = (
            GeneralizedHypercube::new(&[2, 6]),
            GeneralizedHypercube::new(&[3, 4]),
        );
        let (m26, m34) = (
            SafetyMap::compute_in(&g26, &g26.fault_set()),
            SafetyMap::compute_in(&g34, &g34.fault_set()),
        );
        assert_eq!((m26.store(), m26.rounds()), (m34.store(), m34.rounds()));
        assert_ne!(m26, m34);
        assert_eq!((m26.space(), m34.space()), (&g26, &g34));
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
            let map = SafetyMap::compute_in(&gh, &f);
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
            let central = SafetyMap::compute_in(&gh, &f);
            let run = run_gs(&gh, &f);
            assert_eq!(run.check, Ok(()), "mask {mask:#b}");
            assert_eq!(central.store(), run.map.store(), "mask {mask:#b}");
            assert_eq!(central.rounds(), run.map.rounds(), "mask {mask:#b}");
            if mask == 0 {
                assert_eq!(run.stats.active_rounds, 0, "fault-free costs nothing");
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
        let central = SafetyMap::compute_in(&gh, &f);
        let run = run_gs(&gh, &f);
        assert_eq!(central.store(), run.map.store());
    }

    #[test]
    fn single_fault_keeps_everyone_safe_when_radix_large() {
        // In GH(4,4): one faulty node leaves each survivor with at most
        // one 0 in its dimension-min vector → everyone stays safe.
        let gh = GeneralizedHypercube::new(&[4, 4]);
        let mut f = gh.fault_set();
        f.insert(NodeId::new(0));
        let map = SafetyMap::compute_in(&gh, &f);
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
        let m1 = SafetyMap::compute_in(&gh, &f1);
        assert_eq!(m1.level(a00), 2);

        // Faulty clique peer in dim 1 *and* faulty dim-0 peer: both
        // dimensions read 0 → level 1.
        let mut f2 = gh.fault_set();
        f2.insert(NodeId::new(gh.node_from_digits(&[0, 1]).raw()));
        f2.insert(NodeId::new(gh.node_from_digits(&[1, 0]).raw()));
        let m2 = SafetyMap::compute_in(&gh, &f2);
        assert_eq!(m2.level(a00), 1);

        // The min is over the whole clique: faulting the *other* dim-1
        // peer instead changes nothing about (0,0)'s reading.
        let mut f3 = gh.fault_set();
        f3.insert(NodeId::new(gh.node_from_digits(&[0, 2]).raw()));
        f3.insert(NodeId::new(gh.node_from_digits(&[1, 0]).raw()));
        let m3 = SafetyMap::compute_in(&gh, &f3);
        assert_eq!(m3.level(a00), 1);
    }
}
