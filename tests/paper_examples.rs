//! End-to-end regression of every worked example in the paper, driven
//! through the public API exactly as a downstream user would.

use hypersafe::experiments::{fig1, fig2, fig3, fig4, fig5, safesets};
use hypersafe::safety::{route, run_gs, Condition, Decision, SafetyMap};
use hypersafe::topology::{
    connectivity, FaultConfig, FaultSet, GeneralizedHypercube, Hypercube, LinkFaultSet, NodeId,
    Topology,
};

fn n(s: &str) -> NodeId {
    NodeId::from_binary(s).unwrap()
}

#[test]
fn figure1_full_regeneration() {
    let rep = fig1::run();
    assert_eq!(rep.name, "fig1");
    assert_eq!(rep.rows.len(), 16);
    // Four faulty rows, levels as in the figure.
    assert_eq!(rep.rows.iter().filter(|r| r[2] == "faulty").count(), 4);
}

#[test]
fn figure2_claims_hold_at_ci_scale() {
    let p = fig2::Fig2Params {
        n: 7,
        max_faults: 8,
        trials: 120,
        seed: 0xA11CE,
    };
    let rep = fig2::run(&p);
    assert!(rep.notes.iter().any(|s| s.contains("HOLDS")));
    // Mean rounds grow monotonically enough to be plotted but never
    // reach the worst case at this density.
    let last_mean: f64 = rep.rows.last().unwrap()[1].parse().unwrap();
    assert!(last_mean < 4.0);
}

#[test]
fn figure3_disconnection_behaviour() {
    let rep = fig3::run();
    assert_eq!(rep.rows.len(), 3);
    assert!(rep.rows[2][3].contains("FAILURE"));
}

#[test]
fn figure4_reconstruction_is_unique_enough() {
    let found = fig4::search();
    assert!(!found.is_empty());
    // Every reconstruction satisfies all the stated facts by
    // construction; spot-check one against the EGS API directly.
    let cfg = fig4::instance(&found[0]);
    assert!(fig4::consistent(&cfg));
}

#[test]
fn figure5_reconstruction_and_walk() {
    let rep = fig5::run();
    let notes = rep.notes.join("\n");
    assert!(notes.contains("010"));
    assert!(
        notes.contains("discrepancies"),
        "paper inconsistencies are documented"
    );
}

#[test]
fn section23_three_safe_sets() {
    let rep = safesets::run_example();
    // LH = ∅, SL = 9 members; WF sits between.
    assert_eq!(rep.rows[0][2], "0");
    let wf: usize = rep.rows[1][2].parse().unwrap();
    let sl: usize = rep.rows[2][2].parse().unwrap();
    assert!(wf <= sl && wf >= 8);
    assert_eq!(sl, 9);
}

#[test]
fn paper_narrated_paths_via_public_api() {
    // The two §3.2 walks, driven through the façade crate.
    let cube = Hypercube::new(4);
    let cfg = FaultConfig::with_node_faults(
        cube,
        FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]),
    );
    let map = SafetyMap::compute(&cfg);

    let r1 = route(&cfg, &map, n("1110"), n("0001"));
    assert!(matches!(
        r1.decision,
        Decision::Optimal {
            condition: Condition::C1,
            ..
        }
    ));
    assert_eq!(
        r1.path.unwrap().render(4),
        "1110 → 1111 → 1101 → 0101 → 0001"
    );

    let r2 = route(&cfg, &map, n("0001"), n("1100"));
    assert!(matches!(
        r2.decision,
        Decision::Optimal {
            condition: Condition::C2,
            ..
        }
    ));
    assert_eq!(r2.path.unwrap().render(4), "0001 → 0000 → 1000 → 1100");
}

/// §4.1 worked example: Fig. 1's cube with one *faulty link* added
/// (0101–0111). Both endpoints join `N2`: to everyone else they
/// advertise level 0 (they "are" faulty), while each keeps a healthier
/// self view. The narrated 1110 → 0001 walk, which used to pass
/// through 0101, reroutes around the link — still optimal — and a
/// message destined *to* an `N2` node is nevertheless delivered
/// (footnote 3's special-fault semantics).
#[test]
fn section41_egs_faulty_link_worked_example() {
    let cube = Hypercube::new(4);
    let nodes = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
    let mut links = LinkFaultSet::new();
    links.insert(n("0101"), n("0111"));
    let cfg = FaultConfig::with_faults(cube, nodes, links);

    let map = SafetyMap::compute(&cfg);
    for a in [n("0101"), n("0111")] {
        assert!(map.is_n2(a), "{a} touches the faulty link");
        assert_eq!(map.level(a), 0, "N2 advertises 0 to N1");
        assert_eq!(map.own_level(a), 1, "its self view stays healthier");
    }
    // The fully safe corner of Fig. 1 is untouched by the link fault.
    for a in ["1000", "1010", "1100", "1110"].map(n) {
        assert!(!map.is_n2(a));
        assert_eq!(map.level(a), 4);
    }

    // The §3.2 walk detours around 0101 yet keeps its optimality class.
    let r = route(&cfg, &map, n("1110"), n("0001"));
    assert!(matches!(
        r.decision,
        Decision::Optimal {
            condition: Condition::C1,
            ..
        }
    ));
    let path = r.path.expect("delivered");
    assert_eq!(path.render(4), "1110 → 1100 → 1000 → 0000 → 0001");
    assert!(
        !path.nodes().iter().any(|&a| map.is_n2(a)),
        "N2 nodes are never intermediates"
    );

    // Footnote 3: 0101 is unusable as an intermediate but reachable as
    // a destination.
    let to_n2 = route(&cfg, &map, n("1101"), n("0101"));
    assert!(to_n2.delivered);
    assert_eq!(to_n2.path.unwrap().render(4), "1101 → 0101");

    // The distributed EGS protocol reaches the same two-view fixed
    // point as the centralized construction.
    let run = run_gs(cube, &cfg);
    assert_eq!(run.check, Ok(()));
    let (dmap, stats) = (run.map, run.stats);
    for a in cube.nodes() {
        assert_eq!(dmap.level(a), map.level(a), "{a}");
        assert_eq!(dmap.own_level(a), map.own_level(a), "{a}");
    }
    assert_eq!(stats.rounds_run, 3, "n - 1 rounds, as for plain GS");
}

/// §4.2 worked example on GH(3,3,3) — Def. 4 run on a generalized
/// hypercube none of whose radices is 2. Three faults placed at the
/// mutual-distance-2 triple {011, 101, 110} dent the safety levels of
/// exactly the five nodes adjacent to ≥ 2 of them; everything else
/// stays fully safe, routing from a safe source is optimal, and the
/// distributed protocol agrees with the centralized fixed point.
#[test]
fn section42_gh333_worked_example() {
    let gh = GeneralizedHypercube::from_product(&[3, 3, 3]);
    assert_eq!(gh.num_nodes(), 27);
    assert_eq!(gh.degree(), 6, "each node has (3-1)·3 neighbors");

    let faults = gh.fault_set_from_strs(&["011", "101", "110"]);
    let map = SafetyMap::compute_in(&gh, &faults);

    // The dented nodes, by Def. 4's digit counting: 000 sees two
    // faulty neighbors in *every* pair of dimensions (level 2), while
    // 001/010/100/111 each lose one level.
    let expect = [("000", 2), ("001", 1), ("010", 1), ("100", 1), ("111", 1)];
    for (s, lvl) in expect {
        assert_eq!(map.level(gh.parse(s).unwrap()), lvl, "{s}");
    }
    // Everyone else (27 − 3 faulty − 5 dented = 19) is fully safe.
    assert_eq!(map.safe_nodes().len(), 19);
    for a in gh.nodes() {
        let s = gh.format(a);
        if !faults.contains(NodeId::new(a.raw())) && !expect.iter().any(|(e, _)| *e == s) {
            assert_eq!(map.level(a), 3, "{s}");
        }
    }

    // A safe source routes optimally straight through the dent.
    let r = route(
        &faults,
        &map,
        gh.parse("222").unwrap(),
        gh.parse("000").unwrap(),
    );
    assert!(matches!(r.decision, Decision::Optimal { .. }));
    assert!(r.delivered);
    let walk: Vec<String> = r
        .path
        .unwrap()
        .nodes()
        .iter()
        .map(|&a| gh.format(a))
        .collect();
    assert_eq!(walk, ["222", "220", "200", "000"], "H = 3 hops, no detour");

    // Distributed GH-GS reaches the same fixed point.
    let run = run_gs(&gh, &faults);
    assert_eq!(run.check, Ok(()));
    let (dmap, stats) = (run.map, run.stats);
    for a in gh.nodes() {
        assert_eq!(dmap.level(a), map.level(a), "{}", gh.format(a));
    }
    assert_eq!(stats.rounds_run, 3);
}

#[test]
fn fig3_cross_partition_is_source_detected_not_lost() {
    let cube = Hypercube::new(4);
    let cfg = FaultConfig::with_node_faults(
        cube,
        FaultSet::from_binary_strs(cube, &["0110", "1010", "1100", "1111"]),
    );
    let map = SafetyMap::compute(&cfg);
    assert!(connectivity::is_disconnected(&cfg));
    for s in cfg.healthy_nodes() {
        for d in cfg.healthy_nodes() {
            if s == d {
                continue;
            }
            let res = route(&cfg, &map, s, d);
            if !connectivity::connected(&cfg, s, d) {
                assert_eq!(res.decision, Decision::Failure, "{s} → {d}");
            } else if !matches!(res.decision, Decision::Failure) {
                // With m = n faults the source may legitimately abort
                // even for connected pairs (the guarantee needs < n
                // faults); but whenever it *accepts*, it must deliver.
                assert!(res.delivered, "{s} → {d}");
            }
        }
    }
}
