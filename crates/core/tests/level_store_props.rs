//! Property tests for the packed level store: the packed
//! representation must be observationally identical to a plain
//! `Vec<Level>` — element-for-element, plane-for-plane, and round by
//! round through the bit-plane safety kernels. Its below-ceiling plane
//! must equal a scalar `level < max_level` scan after every
//! constructor, every write, every incremental update and every
//! compute.

use hypersafe_core::{Level, LevelStore, PlaneView, SafetyMap};
use hypersafe_topology::{
    FaultConfig, FaultSet, GeneralizedHypercube, Hypercube, NodeId, Topology,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random `(max_level, levels)` including the boundary levels 0 and
/// `max_level`, with lengths that straddle nibble-word (16) and
/// plane-word (64) boundaries.
fn levels_input() -> impl Strategy<Value = (u8, Vec<Level>)> {
    // Word-boundary lengths (16 nibbles / 64 plane bits per word) are
    // where the tail masks live, so they get their own slots.
    const LENS: [usize; 10] = [1, 5, 15, 16, 17, 63, 64, 65, 128, 200];
    (1u8..=30, 0usize..LENS.len()).prop_flat_map(|(max, li)| {
        let len = LENS[li];
        // Sample past the ceiling, then fold the overflow onto the
        // boundary levels so 0 and max_level appear often.
        proptest::collection::vec(0u8..=max.saturating_add(2), len..=len).prop_map(move |raw| {
            let v = raw
                .iter()
                .map(|&x| {
                    if x > max {
                        if x % 2 == 0 {
                            0
                        } else {
                            max
                        }
                    } else {
                        x
                    }
                })
                .collect();
            (max, v)
        })
    })
}

/// Uniform faults, up to a quarter of the cube.
fn uniform_faults(n: u8, rng: &mut ChaCha8Rng) -> FaultConfig {
    let cube = Hypercube::new(n);
    let total = cube.num_nodes();
    let count = rng.gen_range(0..=(total / 4).max(1));
    let faults: Vec<u64> = (0..count).map(|_| rng.gen_range(0..total)).collect();
    FaultConfig::with_node_faults(
        cube,
        FaultSet::from_nodes(cube, faults.into_iter().map(NodeId::new)),
    )
}

/// A faulty subcube of random dimension and position, each of its
/// nodes faulty with probability 1, 1/2 or 1/4, plus up to `n` sparse
/// faults anywhere. In and around the subcube levels climb well above
/// 1 and words run deep into the kernel's `k` loop; away from it a
/// word holds few unsafe lanes and leaves the loop early, which is
/// where an exit bound off by one drops an assignment.
fn clustered_faults(n: u8, rng: &mut ChaCha8Rng) -> FaultConfig {
    let cube = Hypercube::new(n);
    let total = cube.num_nodes();
    let m = rng.gen_range(0..=n) as u32;
    let mut free = 0u64;
    while free.count_ones() < m {
        free |= 1 << rng.gen_range(0..n);
    }
    let base = rng.gen_range(0..total) & !free;
    let sparsity = rng.gen_range(0..3u32);
    let mut faults = Vec::new();
    // Every subset of `free`, via the carry-rippling subset walk.
    let mut sub = 0u64;
    loop {
        if rng.gen_range(0..1u32 << sparsity) == 0 {
            faults.push(base | sub);
        }
        sub = sub.wrapping_sub(free) & free;
        if sub == 0 {
            break;
        }
    }
    for _ in 0..rng.gen_range(0..=n) {
        faults.push(rng.gen_range(0..total));
    }
    FaultConfig::with_node_faults(
        cube,
        FaultSet::from_nodes(cube, faults.into_iter().map(NodeId::new)),
    )
}

/// Q1–Q9, half the cases uniform and half clustered.
fn faulty_cube() -> impl Strategy<Value = FaultConfig> {
    (any::<bool>(), 1u8..=9, any::<u64>()).prop_map(|(clustered, n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        if clustered {
            clustered_faults(n, &mut rng)
        } else {
            uniform_faults(n, &mut rng)
        }
    })
}

/// Clustered Q16–Q17: five level planes and up to 16 `k` iterations.
fn large_faulty_cube() -> impl Strategy<Value = FaultConfig> {
    (16u8..=17, any::<u64>())
        .prop_map(|(n, seed)| clustered_faults(n, &mut ChaCha8Rng::seed_from_u64(seed)))
}

/// The below-ceiling plane against a scalar `level < max_level` scan.
fn assert_plane_exact(s: &LevelStore, what: &str) -> Result<(), TestCaseError> {
    for i in 0..s.len() {
        prop_assert_eq!(
            s.below(i),
            s.get(i) < s.max_level(),
            "{} at index {}",
            what,
            i
        );
    }
    prop_assert_eq!(
        s.count_eq(s.max_level()),
        (0..s.len()).filter(|&i| s.get(i) == s.max_level()).count() as u64,
        "{}: count at the ceiling",
        what
    );
    Ok(())
}

/// The plane Jacobi kernel against the scalar reference after every
/// round (shared by the two round-by-round tests).
fn assert_same_rounds(cfg: &FaultConfig) -> Result<(), TestCaseError> {
    let (map, trace) = SafetyMap::compute_trace(cfg);
    let (refmap, reftrace) = SafetyMap::compute_reference_trace(cfg);
    prop_assert_eq!(map.rounds(), refmap.rounds());
    prop_assert_eq!(map.to_vec(), refmap.to_vec());
    prop_assert_eq!(trace.len(), reftrace.len());
    for (r, (a, b)) in trace.iter().zip(&reftrace).enumerate() {
        prop_assert_eq!(a, b, "round {}", r);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packing then unpacking is the identity, and random point
    /// lookups agree with the unpacked vector at every index —
    /// including the first and last node of each nibble/plane word.
    #[test]
    fn pack_unpack_roundtrip((max, levels) in levels_input()) {
        let store = LevelStore::from_levels(max, &levels);
        prop_assert_eq!(store.len(), levels.len() as u64);
        prop_assert_eq!(store.to_vec(), levels.clone());
        for i in [0, levels.len() - 1, levels.len() / 2, 15.min(levels.len() - 1), 64.min(levels.len() - 1)] {
            prop_assert_eq!(store.get(i as u64), levels[i], "index {}", i);
        }
    }

    /// Random point writes behave exactly like writes to a
    /// `Vec<Level>` model, and equality between stores is level
    /// equality (trailing padding never leaks in).
    #[test]
    fn set_matches_vec_model(
        (max, mut levels) in levels_input(),
        writes in proptest::collection::vec((0u16..512, 0u8..=30), 1..40),
    ) {
        let mut store = LevelStore::from_levels(max, &levels);
        for (i, l) in writes {
            let i = i as usize % levels.len();
            let l = l.min(max);
            levels[i] = l;
            store.set(i as u64, l);
        }
        prop_assert_eq!(store.to_vec(), levels.clone());
        prop_assert_eq!(&store, &LevelStore::from_levels(max, &levels));
    }

    /// Counting and iterating a level class agrees with a scalar scan
    /// — the primitives `safe_count` / `safe_nodes_iter` sit on.
    #[test]
    fn count_and_iter_match_scan((max, levels) in levels_input(), probe in 0u8..=30) {
        let probe = probe.min(max);
        let store = LevelStore::from_levels(max, &levels);
        let expect: Vec<u64> = levels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == probe)
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(store.count_eq(probe), expect.len() as u64);
        prop_assert_eq!(store.iter_eq(probe).collect::<Vec<u64>>(), expect);
    }

    /// Every constructor and every write leaves the below-ceiling
    /// plane equal to a scalar scan of the levels.
    #[test]
    fn below_plane_tracks_constructors_and_writes(
        (max, mut levels) in levels_input(),
        writes in proptest::collection::vec((0u16..512, 0u8..=30), 1..40),
        zero in proptest::collection::vec(any::<u64>(), 0..5),
    ) {
        let len = levels.len() as u64;
        assert_plane_exact(&LevelStore::zeroed(max, len), "zeroed")?;
        assert_plane_exact(&LevelStore::ceiling_except(max, len, &zero), "ceiling_except")?;
        let mut store = LevelStore::from_levels(max, &levels);
        assert_plane_exact(&store, "from_levels")?;
        for (i, l) in writes {
            let i = i as usize % levels.len();
            let l = l.min(max);
            levels[i] = l;
            store.set(i as u64, l);
            assert_plane_exact(&store, "set")?;
        }
        let back = PlaneView::from_store(&store).to_store();
        assert_plane_exact(&back, "to_store")?;
        prop_assert_eq!(&back, &store);
    }

    /// The bit-plane view round-trips through the packed store and
    /// reads back the same levels bit by bit.
    #[test]
    fn plane_view_roundtrip((max, levels) in levels_input()) {
        let store = LevelStore::from_levels(max, &levels);
        let view = PlaneView::from_store(&store);
        for (i, &l) in levels.iter().enumerate() {
            prop_assert_eq!(view.get(i as u64), l, "index {}", i);
        }
        prop_assert_eq!(&view.to_store(), &store);
    }

    /// The plane Jacobi kernel equals the scalar reference not just at
    /// the fixed point but after *every* round — the packed compute is
    /// the same iteration, not merely the same limit. This also pins
    /// the kernel's early exit (a word leaves the `k` loop once no
    /// unassigned lane has more than `k` neighbours below `n`): a bound
    /// of `k + 1` drops level-`k` assignments and fails here. Dropping
    /// `!assigned` from the exit test is an equivalent mutant: already
    /// assigned lanes only keep the loop running longer.
    #[test]
    fn plane_kernel_matches_reference_round_by_round(cfg in faulty_cube()) {
        assert_same_rounds(&cfg)?;
    }

    /// The constructive kernel lands on the identical packed store.
    #[test]
    fn constructive_matches_jacobi_store(cfg in faulty_cube()) {
        let jacobi = SafetyMap::compute(&cfg);
        let cons = SafetyMap::compute_constructive(&cfg);
        prop_assert_eq!(jacobi.store(), cons.store());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random node fault and recovery sequences on Q3–Q16, applied by
    /// delta, keep the below-ceiling plane exact after every event, and
    /// the store equal to a from-scratch compute's at the end.
    #[test]
    fn below_plane_tracks_churn(
        n in 3u8..=16,
        seed in any::<u64>(),
        events in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let mut cfg = uniform_faults(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut map = SafetyMap::compute(&cfg);
        assert_plane_exact(map.store(), "compute")?;
        for r in events {
            let a = NodeId::new(r % cfg.cube().num_nodes());
            if cfg.node_faulty(a) {
                cfg.node_faults_mut().remove(a);
                map.apply_recover(&cfg, a);
            } else {
                cfg.node_faults_mut().insert(a);
                map.apply_fault(&cfg, a);
            }
            assert_plane_exact(map.store(), "after an event")?;
        }
        let scratch = SafetyMap::compute(&cfg);
        prop_assert_eq!(map.store(), scratch.store());
    }

    /// A GH's compute fills the plane as the cube's does: radices 2–8,
    /// one to four dimensions, up to a third of the nodes faulty.
    #[test]
    fn below_plane_is_exact_after_a_gh_compute(
        radices in proptest::collection::vec(2u16..=8, 1..=4),
        seed in any::<u64>(),
    ) {
        let gh = GeneralizedHypercube::new(&radices);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut faults = gh.fault_set();
        let total = (&gh).num_nodes();
        for _ in 0..rng.gen_range(0..=total / 3) {
            faults.insert(NodeId::new(rng.gen_range(0..total)));
        }
        let map = SafetyMap::compute_in(&gh, &faults);
        assert_plane_exact(map.store(), "GH compute_in")?;
        for a in gh.nodes() {
            prop_assert_eq!(map.is_safe(a), map.level(a) == (&gh).dim());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The round-by-round check on cubes wide enough for the fifth
    /// level plane.
    #[test]
    fn plane_kernel_matches_reference_on_five_planes(cfg in large_faulty_cube()) {
        assert_same_rounds(&cfg)?;
    }
}
