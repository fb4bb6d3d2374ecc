//! Differential tests for the §3 neighbour choice. The router reads
//! each candidate's below-ceiling bit first and stops scanning a
//! node's candidate dimensions once, under `TieBreak::LowestDim`, the
//! best level seen equals the store's ceiling `n`; the other
//! tie-breaks always scan every candidate. The reference here decodes
//! every candidate's level for every policy, so an exit taken too
//! early (below the ceiling) or for a policy whose winner among ties
//! is not the first one seen changes some answer.
//!
//! Level maps are arbitrary (not Definition 1 fixed points), built
//! with `SafetyMap::from_levels` and biased so that several preferred
//! neighbours of a node sit at `n` and `n − 1`, on Q1–Q17, so that
//! maps at n ≥ 16 carry the fifth level bit. Nodes at level 0 are the
//! faulty ones, which only judges delivery; a stale judge, whose
//! faults differ from the map's level-0 nodes as a service snapshot's
//! do, shows that the levels alone steer and the judge alone judges.

use hypersafe_core::{
    intermediate_dim_tb, route_light, route_many, route_many_seq, route_tb, source_decision_tb,
    BatchOutcome, Condition, Decision, Level, NavVector, SafetyMap, TieBreak,
};
use hypersafe_topology::{FaultConfig, FaultSet, Hypercube, NodeId, Topology};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The full-scan argmax: every candidate is read, ties are collected
/// in ascending dimension order and resolved per `tb` (the `Hashed`
/// draw is the router's documented SplitMix64 over `(node, salt)`).
fn reference_argmax(
    map: &SafetyMap,
    at: NodeId,
    dims: impl Iterator<Item = u8>,
    tb: TieBreak,
) -> Option<(u8, Level)> {
    let cands: Vec<(u8, Level)> = dims.map(|i| (i, map.level(at.neighbor(i)))).collect();
    let best = cands.iter().map(|&(_, lv)| lv).max()?;
    let ties: Vec<u8> = cands
        .iter()
        .filter(|&&(_, lv)| lv == best)
        .map(|&(i, _)| i)
        .collect();
    let dim = match tb {
        TieBreak::LowestDim => ties[0],
        TieBreak::HighestDim => ties[ties.len() - 1],
        TieBreak::Hashed { salt } => {
            let mut z = at.raw() ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            ties[(z % ties.len() as u64) as usize]
        }
    };
    Some((dim, best))
}

/// The §3 source rule (C1/C2/C3) over [`reference_argmax`].
fn reference_decision(map: &SafetyMap, s: NodeId, d: NodeId, tb: TieBreak) -> Decision {
    let nv = NavVector::new(s, d);
    let h = nv.remaining() as u16;
    if h == 0 {
        return Decision::AlreadyThere;
    }
    let c1 = map.level(s) as u16 >= h;
    let preferred = reference_argmax(map, s, nv.preferred_dims(), tb);
    let c2 = preferred.is_some_and(|(_, lv)| lv as u16 + 1 >= h);
    if c1 || c2 {
        let (first_dim, _) = preferred.unwrap();
        let condition = if c1 { Condition::C1 } else { Condition::C2 };
        return Decision::Optimal {
            condition,
            first_dim,
        };
    }
    match reference_argmax(map, s, nv.spare_dims(map.dim()), tb) {
        Some((first_dim, lv)) if lv as u16 > h => Decision::Suboptimal { first_dim },
        _ => Decision::Failure,
    }
}

/// The full walk over [`reference_argmax`]: the nodes visited and
/// whether the message was delivered (same rules as `route_light`).
fn reference_walk(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    tb: TieBreak,
) -> (Decision, Vec<NodeId>, bool) {
    let decision = reference_decision(map, s, d, tb);
    let mut dim = match decision {
        Decision::AlreadyThere => return (decision, vec![s], !cfg.node_faulty(s)),
        Decision::Failure => return (decision, Vec::new(), false),
        Decision::Optimal { first_dim, .. } | Decision::Suboptimal { first_dim } => first_dim,
    };
    let mut nv = NavVector::new(s, d);
    let mut path = vec![s];
    let mut at = s;
    loop {
        at = at.neighbor(dim);
        nv = nv.after_hop(dim);
        path.push(at);
        if cfg.node_faulty(at) || nv.is_done() {
            return (decision, path, nv.is_done());
        }
        match reference_argmax(map, at, nv.preferred_dims(), tb) {
            Some((i, _)) => dim = i,
            None => return (decision, path, false),
        }
    }
}

/// [`reference_walk`] as the batch routers report it.
fn reference_outcome(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    tb: TieBreak,
) -> BatchOutcome {
    let (decision, path, delivered) = reference_walk(cfg, map, s, d, tb);
    BatchOutcome {
        decision,
        hops: path.len().saturating_sub(1) as u32,
        delivered,
    }
}

/// A level map on `Q_n` where about half the nodes sit at `n`, a
/// quarter at `n − 1` and the rest anywhere in `0..=n`; level-0 nodes
/// are the faults.
fn level_map(n: u8, seed: u64) -> (FaultConfig, SafetyMap) {
    let cube = Hypercube::new(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let levels: Vec<Level> = (0..cube.num_nodes())
        .map(|_| match rng.gen_range(0..4u8) {
            0 | 1 => n,
            2 => n - 1,
            _ => rng.gen_range(0..=n),
        })
        .collect();
    let faults = FaultSet::from_nodes(
        cube,
        (0..cube.num_nodes())
            .filter(|&a| levels[a as usize] == 0)
            .map(NodeId::new),
    );
    let cfg = FaultConfig::with_node_faults(cube, faults);
    (cfg, SafetyMap::from_levels(cube, levels))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Source decisions, intermediate choices and whole walks agree
    /// with the full scan under every tie-break policy, and the batch
    /// routers agree with it too, under a judge that matches the map
    /// and under a stale one.
    #[test]
    fn neighbour_choice_matches_full_scan(
        n in 1u8..=17,
        seed in any::<u64>(),
        salt in any::<u64>(),
        probes in proptest::collection::vec((any::<u64>(), any::<u64>()), 32),
        flips in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let (cfg, map) = level_map(n, seed);
        let mask = (1u64 << n) - 1;
        let pairs: Vec<(NodeId, NodeId)> = probes
            .iter()
            .map(|&(a, b)| (NodeId::new(a & mask), NodeId::new(b & mask)))
            .collect();
        // A judge out of step with the map: some faults recovered and
        // some healthy nodes faulty, with the levels left as they were.
        let mut stale = cfg.clone();
        for &f in &flips {
            let a = NodeId::new(f & mask);
            if stale.node_faulty(a) {
                stale.node_faults_mut().remove(a);
            } else {
                stale.node_faults_mut().insert(a);
            }
        }
        for judge in [&cfg, &stale] {
            let want: Vec<BatchOutcome> = pairs
                .iter()
                .map(|&(s, d)| reference_outcome(judge, &map, s, d, TieBreak::LowestDim))
                .collect();
            prop_assert_eq!(&route_many_seq(judge, &map, &pairs), &want);
            prop_assert_eq!(&route_many(judge, &map, &pairs), &want);
            for (&(s, d), w) in pairs.iter().zip(&want) {
                let tb = TieBreak::Hashed { salt };
                prop_assert_eq!(route_light(judge, &map, s, d, tb), reference_outcome(judge, &map, s, d, tb));
                prop_assert_eq!(route_light(judge, &map, s, d, TieBreak::LowestDim), *w);
            }
        }
        for tb in [TieBreak::LowestDim, TieBreak::HighestDim, TieBreak::Hashed { salt }] {
            for &(a, b) in &probes {
                let (s, d) = (NodeId::new(a & mask), NodeId::new(b & mask));
                prop_assert_eq!(
                    source_decision_tb(&map, s, d, tb),
                    reference_decision(&map, s, d, tb),
                    "source {:?} -> {:?}, {:?}", s, d, tb
                );
                let nv = NavVector::new(s, d);
                prop_assert_eq!(
                    intermediate_dim_tb(&map, s, nv, tb),
                    reference_argmax(&map, s, nv.preferred_dims(), tb).map(|(i, _)| i),
                    "intermediate {:?} with {:?}, {:?}", s, nv, tb
                );
                let (decision, path, delivered) = reference_walk(&cfg, &map, s, d, tb);
                let light = route_light(&cfg, &map, s, d, tb);
                prop_assert_eq!(light.decision, decision);
                prop_assert_eq!(light.hops as usize, path.len().saturating_sub(1));
                prop_assert_eq!(light.delivered, delivered);
                let full = route_tb(&cfg, &map, s, d, tb);
                prop_assert_eq!(full.path.map(|p| p.nodes().to_vec()).unwrap_or_default(), path);
            }
        }
    }
}
