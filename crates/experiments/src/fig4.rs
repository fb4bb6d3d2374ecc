//! E7 — the paper's Fig. 4: a 4-cube with four faulty nodes and one
//! faulty link, routed with the EGS dual-view machinery (§4.1).
//!
//! The figure itself is not machine-readable in the supplied text, so
//! this experiment *reconstructs* it (DESIGN.md §5 item 2): exhaustive
//! search over all C(14, 4) placements of four faulty nodes (the link
//! (1000, 1001) is fixed by the narration) for instances satisfying
//! every stated fact:
//!
//! * node 1000 is 1-safe and node 1001 is 2-safe *in their own view*,
//!   while both advertise 0 (treated as faulty by everyone else);
//! * for the unicast 1101 → 1000 (H = 2) both preferred neighbors of
//!   the source read as faulty, the spare neighbor 1111 has level
//!   4 > H + 1, and the resulting suboptimal route delivers in 4 hops;
//! * the paper's narrated path 1101 → 1111 → 1011 → 1010 → 1000 is
//!   physically traversable.

use crate::table::Report;
use hypersafe_core::{route, Decision, SafetyMap};
use hypersafe_topology::{FaultConfig, FaultSet, Hypercube, LinkFaultSet, NodeId, Path};

fn n(s: &str) -> NodeId {
    NodeId::from_binary(s).unwrap()
}

/// Builds the Fig. 4 instance for a given set of four faulty nodes
/// (always with the faulty link (1000, 1001)).
pub fn instance(faulty: &[NodeId]) -> FaultConfig {
    let cube = Hypercube::new(4);
    let mut links = LinkFaultSet::new();
    links.insert(n("1000"), n("1001"));
    FaultConfig::with_faults(
        cube,
        FaultSet::from_nodes(cube, faulty.iter().copied()),
        links,
    )
}

/// Whether `cfg` satisfies every fact the paper states about Fig. 4.
pub fn consistent(cfg: &FaultConfig) -> bool {
    let map = SafetyMap::compute(cfg);
    // Stated safety levels in the nodes' own views.
    if map.own_level(n("1000")) != 1 || map.own_level(n("1001")) != 2 {
        return false;
    }
    if map.level(n("1000")) != 0 || map.level(n("1001")) != 0 {
        return false;
    }
    // The 1101 → 1000 walk: both preferred neighbors (1100, 1001) read
    // as faulty; spare 1111 has level 4.
    if !cfg.node_faulty(n("1100")) {
        return false; // 1001 reads faulty via N2 automatically
    }
    if map.level(n("1111")) != 4 {
        return false;
    }
    let res = route(cfg, &map, n("1101"), n("1000"));
    if !matches!(res.decision, Decision::Suboptimal { .. }) || !res.delivered {
        return false;
    }
    if res.path.as_ref().map(Path::len) != Some(4) {
        return false;
    }
    // The narrated alternative must be physically walkable.
    let narrated = Path::from_nodes(vec![n("1101"), n("1111"), n("1011"), n("1010"), n("1000")]);
    narrated.traversable(cfg, false)
}

/// Exhaustively enumerates all consistent fault placements.
pub fn search() -> Vec<Vec<NodeId>> {
    let cube = Hypercube::new(4);
    // Candidate faulty nodes: anything but the faulty link's endpoints.
    let candidates: Vec<NodeId> = cube
        .nodes()
        .filter(|&a| a != n("1000") && a != n("1001"))
        .collect();
    let mut found = Vec::new();
    let k = candidates.len();
    for a in 0..k {
        for b in a + 1..k {
            for c in b + 1..k {
                for d in c + 1..k {
                    let faults = vec![candidates[a], candidates[b], candidates[c], candidates[d]];
                    let cfg = instance(&faults);
                    if consistent(&cfg) {
                        found.push(faults);
                    }
                }
            }
        }
    }
    found
}

/// Regenerates Fig. 4: reports every consistent reconstruction and the
/// EGS levels + routing walk of the first one.
pub fn run() -> Report {
    let found = search();
    let mut rep = Report::new(
        "fig4",
        "Fig. 4 — 4-cube, four faulty nodes + faulty link (1000,1001), EGS views",
        &["node", "advertised", "own_view", "class"],
    );
    assert!(
        !found.is_empty(),
        "at least one consistent reconstruction exists"
    );
    let pinned = &found[0];
    let cfg = instance(pinned);
    let map = SafetyMap::compute(&cfg);
    for a in cfg.cube().nodes() {
        let class = if cfg.node_faulty(a) {
            "faulty"
        } else if map.is_n2(a) {
            "N2"
        } else {
            "N1"
        };
        rep.row(vec![
            a.to_binary(4),
            map.level(a).to_string(),
            map.own_level(a).to_string(),
            class.into(),
        ]);
    }
    rep.note(format!(
        "{} consistent fault placements; pinned {:?}",
        found.len(),
        pinned.iter().map(|a| a.to_binary(4)).collect::<Vec<_>>()
    ));
    let res = route(&cfg, &map, n("1101"), n("1000"));
    rep.note(format!(
        "unicast 1101 → 1000 (H = 2): suboptimal via spare 1111, {}",
        res.path.as_ref().expect("delivered").render(4)
    ));
    rep.note(
        "paper's narrated path 1101 → 1111 → 1011 → 1010 → 1000 verified traversable".to_string(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_finds_consistent_instances() {
        let found = search();
        assert!(!found.is_empty());
        // The hand-picked instance used in hypersafe-core's unit tests
        // is among them.
        let hand: Vec<NodeId> = ["0000", "0010", "0101", "1100"]
            .iter()
            .map(|s| n(s))
            .collect();
        assert!(
            found.iter().any(|f| {
                let mut a = f.clone();
                a.sort();
                a == hand
            }),
            "hand instance should be rediscovered"
        );
    }

    #[test]
    fn report_classifies_n2() {
        let rep = run();
        let row_1000 = rep.rows.iter().find(|r| r[0] == "1000").unwrap();
        assert_eq!(row_1000[1], "0", "advertised 0");
        assert_eq!(row_1000[2], "1", "own view 1-safe");
        assert_eq!(row_1000[3], "N2");
        let row_1001 = rep.rows.iter().find(|r| r[0] == "1001").unwrap();
        assert_eq!(row_1001[2], "2", "own view 2-safe");
    }
}
