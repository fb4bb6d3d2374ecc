//! Safety levels and routing in a generalized hypercube (paper §4.2,
//! Fig. 5): a 2 × 3 × 2 `GH` where every dimension-`i` "row" of `m_i`
//! nodes is a clique and a preferred hop resolves a whole coordinate.
//!
//! ```text
//! cargo run --example generalized_hypercube
//! ```

use hypersafe::safety::{route, Decision, SafetyMap};
use hypersafe::topology::{GeneralizedHypercube, NodeId, Topology};

fn main() {
    // The Fig.-5 reconstruction pinned by `repro fig5`.
    let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
    let faults = gh.fault_set_from_strs(&["011", "100", "111", "121"]);
    let map = SafetyMap::compute_in(&gh, &faults);

    println!(
        "GH(2,3,2): {} nodes, degree {}",
        gh.num_nodes(),
        gh.degree()
    );
    println!("\nnode  level  status");
    for a in gh.nodes() {
        let status = if faults.contains(NodeId::new(a.raw())) {
            "faulty"
        } else if map.is_safe(a) {
            "safe"
        } else {
            "unsafe"
        };
        println!(" {}     {}    {}", gh.format(a), map.level(a), status);
    }

    // The paper's walk: 010 → 101 differ in all three coordinates.
    let s = gh.parse("010").unwrap();
    let d = gh.parse("101").unwrap();
    println!(
        "\nunicast 010 → 101 (distance {}):",
        gh.distance(s, d).expect("both nodes lie in the GH")
    );
    // The same `route` as in a binary cube: the map carries its GH.
    let res = route(&faults, &map, s, d);
    assert!(matches!(res.decision, Decision::Optimal { .. }));
    let walk: Vec<String> = res
        .path
        .expect("routed")
        .nodes()
        .iter()
        .map(|&a| gh.format(a))
        .collect();
    println!("  optimal walk: {}", walk.join(" → "));
    println!("  delivered: {}", res.delivered);

    // Eligibility narration, as in the paper: the dimension-0 neighbor
    // is faulty, the dimension-2 neighbor is under-safe, dimension 1
    // carries the message.
    println!("\nsource's neighbor eligibility (need level ≥ H − 1 = 2):");
    for i in 0..gh.dim() {
        for b in gh.along(s, i) {
            println!(
                "  dim {}: {} level {}{}",
                i,
                gh.format(b),
                map.level(b),
                if map.level(b) >= 2 {
                    "  ← eligible"
                } else {
                    ""
                }
            );
        }
    }
}
