//! Oracle property tests for `core::multipath`: the k-disjoint router
//! promises to deliver exactly `min(k, F(s, d))` pairwise node-disjoint
//! paths, where `F` is the vertex-disjoint Menger bound of the faulty
//! cube. `F` is recomputed here by an *independent* Edmonds-Karp
//! max-flow (dense capacity matrix, shortest augmenting paths) that
//! shares no code with the router's greedy-fan + augmentation pipeline,
//! so an off-by-one in either implementation breaks the comparison.
//!
//! Alongside the count: every returned fan must pass the structural
//! [`check_disjoint_delivery`] contract, and multi-path delivery must
//! dominate the single-path router on healthy destinations (whenever
//! `route` delivers to a healthy `d`, the fan delivers on at least one
//! path; a faulty `d` gets no disjoint path at all).

use hypersafe_core::{check_disjoint_delivery, route, route_disjoint, SafetyMap};
use hypersafe_topology::{FaultConfig, FaultSet, Hypercube, LinkFaultSet, NodeId, Topology};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Vertex-disjoint Menger bound between healthy `s` and `d` via
/// Edmonds-Karp on the node-split graph: every healthy node becomes
/// `in → out` with capacity 1, every usable link `u – v` becomes
/// `u.out → v.in` (both directions) with capacity 1; the answer is the
/// max flow from `s.out` to `d.in`.
fn menger_bound(cfg: &FaultConfig, s: NodeId, d: NodeId) -> u32 {
    let cube = cfg.cube();
    let states = 2 * cube.num_nodes() as usize;
    let sin = |v: NodeId| 2 * v.raw() as usize;
    let sout = |v: NodeId| 2 * v.raw() as usize + 1;
    let mut cap = vec![vec![0i32; states]; states];
    for v in cfg.healthy_nodes() {
        cap[sin(v)][sout(v)] = 1;
    }
    for u in cube.nodes() {
        for dim in 0..cube.dim() {
            let v = u.neighbor(dim);
            if cfg.link_usable(u, v) {
                cap[sout(u)][sin(v)] = 1;
            }
        }
    }
    let (src, snk) = (sout(s), sin(d));
    let mut flow = 0;
    loop {
        let mut parent = vec![usize::MAX; states];
        parent[src] = src;
        let mut queue = VecDeque::from([src]);
        'bfs: while let Some(u) = queue.pop_front() {
            for v in 0..states {
                if parent[v] == usize::MAX && cap[u][v] > 0 {
                    parent[v] = u;
                    if v == snk {
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if parent[snk] == usize::MAX {
            return flow;
        }
        let mut v = snk;
        while v != src {
            let u = parent[v];
            cap[u][v] -= 1;
            cap[v][u] += 1;
            v = u;
        }
        flow += 1;
    }
}

/// Safety levels are node-fault-defined; with link faults in play the
/// map is computed on the node faults alone (it only orders the fan
/// candidates — the router checks the full config link by link).
fn map_of(cfg: &FaultConfig) -> SafetyMap {
    SafetyMap::compute(&FaultConfig::with_node_faults(
        cfg.cube(),
        cfg.node_faults().clone(),
    ))
}

/// Asserts the full contract for one `(s, d, k)`: oracle-exact count,
/// structural disjointness, and dominance over the single-path router.
fn assert_contract(cfg: &FaultConfig, map: &SafetyMap, s: NodeId, d: NodeId, k: u8) {
    let res = route_disjoint(cfg, map, s, d, k);
    let oracle = menger_bound(cfg, s, d);
    assert_eq!(
        res.delivered() as u32,
        oracle.min(u32::from(k.min(cfg.cube().dim()))),
        "{s} -> {d} k={k}: delivered {} vs Menger bound {oracle}",
        res.delivered()
    );
    if let Err(e) = check_disjoint_delivery(cfg, s, d, &res) {
        panic!("{s} -> {d} k={k}: structural check failed: {e}");
    }
    if k >= 1 && route(cfg, map, s, d).delivered {
        assert!(
            res.delivered() >= 1,
            "{s} -> {d} k={k}: single-path delivered but the fan did not"
        );
    }
}

/// A cube of dimension `nmin..=nmax` with up to a quarter of its nodes
/// and a handful of links faulty.
fn faulty_cfg(nmin: u8, nmax: u8) -> impl Strategy<Value = FaultConfig> {
    (nmin..=nmax).prop_flat_map(|n| {
        let cube = Hypercube::new(n);
        let total = cube.num_nodes();
        (
            proptest::collection::btree_set(0..total, 0..=(total as usize / 4).max(1)),
            proptest::collection::vec((0..total, 0..n), 0..6),
        )
            .prop_map(move |(nodes, links)| {
                let mut lf = LinkFaultSet::new();
                for (raw, dim) in links {
                    let a = NodeId::new(raw);
                    lf.insert(a, a.neighbor(dim));
                }
                FaultConfig::with_faults(
                    cube,
                    FaultSet::from_nodes(cube, nodes.into_iter().map(NodeId::new)),
                    lf,
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random cubes up to `Q_6` with mixed node + link faults: the
    /// delivered count is oracle-exact for a spread of `k` values.
    #[test]
    fn delivered_matches_menger_oracle(cfg in faulty_cfg(3, 6), salt in any::<u64>()) {
        let map = map_of(&cfg);
        let n = cfg.cube().dim();
        let healthy: Vec<NodeId> = cfg.healthy_nodes().collect();
        prop_assume!(healthy.len() >= 2);
        for probe in 0..4u64 {
            let s = healthy[(salt.wrapping_add(probe) % healthy.len() as u64) as usize];
            let d = healthy[(salt.wrapping_mul(31).wrapping_add(7 * probe) % healthy.len() as u64) as usize];
            if s == d {
                continue;
            }
            for k in [1, n / 2, n, n + 2] {
                assert_contract(&cfg, &map, s, d, k);
            }
        }
    }
}

/// Exhaustive sweep on small cubes: `Q_3` and `Q_4` under a battery of
/// hand-picked and seeded fault sets, checking *every* ordered healthy
/// pair at full redundancy against the oracle.
#[test]
fn exhaustive_small_cubes_match_oracle_for_every_pair() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0A11_D15C);
    for n in [3u8, 4] {
        let cube = Hypercube::new(n);
        let total = cube.num_nodes();
        let mut configs: Vec<FaultConfig> = vec![
            FaultConfig::fault_free(cube),
            FaultConfig::with_node_faults(cube, FaultSet::from_nodes(cube, [NodeId::new(1)])),
        ];
        for _ in 0..12 {
            let mut nodes = FaultSet::new(cube);
            for _ in 0..rng.gen_range(0..=n as usize) {
                nodes.insert(NodeId::new(rng.gen_range(0..total)));
            }
            let mut links = LinkFaultSet::new();
            for _ in 0..rng.gen_range(0..=3) {
                let a = NodeId::new(rng.gen_range(0..total));
                links.insert(a, a.neighbor(rng.gen_range(0..n)));
            }
            configs.push(FaultConfig::with_faults(cube, nodes, links));
        }
        for cfg in &configs {
            let map = map_of(cfg);
            let healthy: Vec<NodeId> = cfg.healthy_nodes().collect();
            for &s in &healthy {
                for &d in &healthy {
                    if s != d {
                        assert_contract(cfg, &map, s, d, n);
                    }
                }
            }
        }
    }
}

/// The fault-free cube is the paper's classic result: exactly `n`
/// disjoint paths between any two nodes — `H(s, d)` optimal ones and
/// `n − H` two-hop detours — for every ordered pair of `Q_3..Q_5`.
#[test]
fn fault_free_fan_is_exact_everywhere() {
    for n in 3u8..=5 {
        let cube = Hypercube::new(n);
        let cfg = FaultConfig::fault_free(cube);
        let map = SafetyMap::compute(&cfg);
        for s in cube.nodes() {
            for d in cube.nodes() {
                if s == d {
                    continue;
                }
                let res = route_disjoint(&cfg, &map, s, d, n);
                let h = s.distance(d);
                assert_eq!(res.delivered() as u32, u32::from(n));
                let optimal = res.paths.iter().filter(|p| p.path.len() == h).count() as u32;
                let detour = res.paths.iter().filter(|p| p.path.len() == h + 2).count() as u32;
                assert_eq!(optimal, h, "{s} -> {d}");
                assert_eq!(detour, u32::from(n) - h, "{s} -> {d}");
                assert_eq!(menger_bound(&cfg, s, d), u32::from(n));
            }
        }
    }
}
