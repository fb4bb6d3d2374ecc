//! The [`Topology`] contract on `Q_1`–`Q_12` and on generalized
//! hypercubes with radices 2–8, checked against plain digit arithmetic
//! written out here: ports round-trip, `port_of` names no port outside
//! the topology, neighbours come in the port order the engines and the
//! goldens rely on (a cube's port is its dimension; a GH numbers its
//! ports dimension-major, each clique by ascending digit, skipping the
//! node's own), a port's `port_dim` is the one dimension its neighbour
//! differs in, `along` is the rest of a clique, the preferred and spare
//! ports are the ones §3 and §4.2 name (a partition of the ports in
//! `Q_n`), and `distance` counts differing digits.

use hypersafe_topology::{GeneralizedHypercube, GhNode, Hypercube, NodeId, Topology};
use proptest::prelude::*;
use std::fmt::Debug;

/// `a`'s digits, least significant first, by repeated division.
fn digits(radices: &[u64], mut a: u64) -> Vec<u64> {
    radices
        .iter()
        .map(|&m| {
            let d = a % m;
            a /= m;
            d
        })
        .collect()
}

/// The node with `digits`, least significant first.
fn undigits(radices: &[u64], digits: &[u64]) -> u64 {
    radices
        .iter()
        .zip(digits)
        .rev()
        .fold(0, |acc, (&m, &d)| acc * m + d)
}

/// The neighbours of `a` in port order, from the digits alone.
fn reference_neighbours(radices: &[u64], a: u64) -> Vec<u64> {
    let own = digits(radices, a);
    let mut out = Vec::new();
    for (i, &m) in radices.iter().enumerate() {
        for v in (0..m).filter(|&v| v != own[i]) {
            let mut d = own.clone();
            d[i] = v;
            out.push(undigits(radices, &d));
        }
    }
    out
}

/// Checks the contract of `t`, whose dimension `i` has radix
/// `radices[i]`, at node `a` against node `b` and two nodes past the
/// last one, picked with `past`.
fn check<T: Topology>(t: T, radices: &[u64], a: u64, b: u64, past: u64) -> Result<(), TestCaseError>
where
    T::Node: Debug,
    T::Port: Debug + PartialEq,
{
    let node = T::from_raw;
    let len: u64 = radices.iter().product();
    prop_assert_eq!(t.num_nodes(), len);
    prop_assert_eq!(t.dim() as usize, radices.len());
    prop_assert_eq!(
        t.degree() as u64,
        radices.iter().map(|m| m - 1).sum::<u64>()
    );
    let (da, db) = (digits(radices, a), digits(radices, b));
    let differ = da.iter().zip(&db).filter(|(x, y)| x != y).count() as u32;
    prop_assert_eq!(t.distance(node(a), node(b)), Some(differ));

    // Ports round-trip, in the reference order.
    let want = reference_neighbours(radices, a);
    let got: Vec<u64> = t.neighbours(node(a)).map(T::raw).collect();
    prop_assert_eq!(&got, &want);
    let ports: Vec<T::Port> = (0..t.degree()).map(|k| t.port_at(node(a), k)).collect();
    for (k, &p) in ports.iter().enumerate() {
        let c = t.across(node(a), p);
        prop_assert_eq!(T::raw(c), want[k]);
        prop_assert_eq!(t.port_of(node(a), c), Some(p));
        prop_assert_eq!(t.port_index(node(a), p), k);
    }

    // Not adjacent, or outside: no port.
    let port = t.port_of(node(a), node(b));
    prop_assert_eq!(port.is_some(), differ == 1);
    if let Some(p) = port {
        prop_assert_eq!(T::raw(t.across(node(a), p)), b);
    }
    // `a + len` agrees with `a` on every digit of the topology.
    for out in [len + past, a + len * (1 + past % 4)].map(node) {
        prop_assert!(!t.contains(out));
        prop_assert_eq!(t.port_of(node(a), out), None);
        prop_assert_eq!(t.port_of(out, node(a)), None);
        prop_assert_eq!(t.distance(node(a), out), None);
        prop_assert_eq!(t.distance(out, node(a)), None);
    }

    // `along` is the rest of each clique, by ascending digit.
    for (i, &m) in radices.iter().enumerate() {
        let clique: Vec<u64> = (0..m)
            .filter(|&v| v != da[i])
            .map(|v| {
                let mut d = da.clone();
                d[i] = v;
                undigits(radices, &d)
            })
            .collect();
        let got: Vec<u64> = t.along(node(a), i as u8).map(T::raw).collect();
        prop_assert_eq!(got, clique);
    }

    // The preferred ports of (a, b) are one per differing dimension, the
    // peer with b's digit; the spare ones are every port along an agreeing
    // dimension. So they are disjoint, and with radix 2 everywhere they
    // partition the ports.
    let preferred: Vec<T::Port> = t.preferred(node(a), node(b)).collect();
    let spare: Vec<T::Port> = t.spare(node(a), node(b)).collect();
    prop_assert_eq!(preferred.len() as u32, differ);
    for (k, p) in ports.iter().enumerate() {
        let mut d = digits(radices, want[k]);
        let i = (0..d.len())
            .find(|&i| d[i] != da[i])
            .expect("a neighbour differs");
        prop_assert_eq!(t.port_dim(*p) as usize, i, "port {:?}", p);
        let is_preferred = d[i] == db[i];
        let is_spare = da[i] == db[i];
        prop_assert_eq!(preferred.contains(p), is_preferred, "port {:?}", p);
        prop_assert_eq!(spare.contains(p), is_spare, "port {:?}", p);
        d[i] = da[i];
        prop_assert_eq!(undigits(radices, &d), a);
    }
    if radices.iter().all(|&m| m == 2) {
        prop_assert_eq!(preferred.len() + spare.len(), ports.len());
    }
    for &p in &preferred {
        let c = T::raw(t.across(node(a), p));
        prop_assert_eq!(t.distance(node(c), node(b)), Some(differ - 1));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_cube_keeps_the_contract(
        n in 1u8..=12,
        a in any::<u64>(),
        b in any::<u64>(),
        past in 0u64..1 << 20,
    ) {
        let len = 1u64 << n;
        check(Hypercube::new(n), &vec![2; n as usize], a % len, b % len, past)?;
        // A cube's port is its dimension.
        let cube = Hypercube::new(n);
        let at = NodeId::new(a % len);
        let ports: Vec<u8> = (0..cube.degree()).map(|k| cube.port_at(at, k)).collect();
        prop_assert_eq!(ports, (0..n).collect::<Vec<u8>>());
    }

    #[test]
    fn the_generalized_hypercube_keeps_the_contract(
        radices in proptest::collection::vec(2u16..=8, 1..=5),
        a in any::<u64>(),
        b in any::<u64>(),
        past in 0u64..1 << 20,
    ) {
        let gh = GeneralizedHypercube::new(&radices);
        let wide: Vec<u64> = radices.iter().map(|&m| m as u64).collect();
        let len = gh.num_nodes();
        check(&gh, &wide, a % len, b % len, past)?;
        // A GH port names its clique peer's digit.
        let at = GhNode(a % len);
        for k in 0..gh.degree() {
            let (i, v) = gh.port_at(at, k);
            prop_assert_eq!(gh.digit(gh.across(at, (i, v)), i), v);
            prop_assert_ne!(gh.digit(at, i), v);
        }
    }
}
