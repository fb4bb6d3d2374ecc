//! Faulty links and the EGS dual view (paper §4.1, Fig. 4).
//!
//! A node touching a faulty link advertises itself as faulty (the `N2`
//! class) yet keeps a private safety level for its own unicasts; the
//! rest of the network detours around it automatically.
//!
//! ```text
//! cargo run --example faulty_links
//! ```

use hypersafe::safety::{route, Decision, SafetyMap};
use hypersafe::topology::{FaultConfig, FaultSet, Hypercube, LinkFaultSet, NodeId};

fn n(s: &str) -> NodeId {
    NodeId::from_binary(s).unwrap()
}

fn main() {
    // One of the 18 Fig.-4 reconstructions found by `repro fig4`'s
    // exhaustive search (the harness pins a different, equally valid
    // one): four faulty nodes plus the faulty link (1000, 1001).
    let cube = Hypercube::new(4);
    let nodes = FaultSet::from_binary_strs(cube, &["0000", "0010", "0101", "1100"]);
    let mut links = LinkFaultSet::new();
    links.insert(n("1000"), n("1001"));
    let cfg = FaultConfig::with_faults(cube, nodes, links);

    let map = SafetyMap::compute(&cfg);
    println!("node  advertised  own  class");
    for a in cube.nodes() {
        let class = if cfg.node_faulty(a) {
            "faulty"
        } else if map.is_n2(a) {
            "N2 (touches faulty link)"
        } else {
            "N1"
        };
        println!(
            "{}        {}      {}  {}",
            a.to_binary(4),
            map.level(a),
            map.own_level(a),
            class
        );
    }

    // The paper's walk: 1101 → 1000 has both preferred neighbors
    // reading as faulty; the spare neighbor 1111 (level 4 ≥ H + 1)
    // admits a suboptimal route of length H + 2 = 4.
    let res = route(&cfg, &map, n("1101"), n("1000"));
    println!("\nunicast 1101 → 1000 (H = 2):");
    match res.decision {
        Decision::Suboptimal { .. } => println!("  suboptimal via a spare neighbor (C3)"),
        other => println!("  decision {other:?}"),
    }
    let p = res.path.expect("routed");
    println!("  path {} (length {})", p.render(4), p.len());
    println!("  delivered: {}", res.delivered);

    // An N2 node still originates unicasts using its own view.
    let res = route(&cfg, &map, n("1001"), n("1011"));
    println!(
        "\nunicast 1001 → 1011 from the N2 node (own level {}): delivered = {}, path {}",
        map.own_level(n("1001")),
        res.delivered,
        res.path.expect("routed").render(4)
    );
}
