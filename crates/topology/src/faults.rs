//! Fault state of a hypercube: faulty nodes and faulty links.
//!
//! The paper's main development (§2–§3) assumes *fault-stop node faults*
//! only; §4.1 extends to faulty links. [`FaultSet`] is a dense bitset of
//! faulty node addresses; [`LinkFaultSet`] packs faulty undirected links
//! into one bit per (lower endpoint, dimension) pair so the per-hop
//! usability test stays branch-cheap; [`FaultConfig`] combines both and
//! is what algorithms consume.

use crate::addr::NodeId;
use crate::cube::Hypercube;

/// A set of faulty nodes of a hypercube, stored as a dense bitset over
/// the `2ⁿ` addresses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSet {
    bits: Vec<u64>,
    len: usize,
    capacity: u64,
}

impl FaultSet {
    /// Empty fault set for the given cube.
    pub fn new(cube: Hypercube) -> Self {
        Self::with_capacity(cube.num_nodes())
    }

    /// Empty fault set able to hold addresses `0..capacity`.
    pub fn with_capacity(capacity: u64) -> Self {
        let words = capacity.div_ceil(64) as usize;
        FaultSet {
            bits: vec![0; words],
            len: 0,
            capacity,
        }
    }

    /// Builds a fault set from an iterator of faulty addresses.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(cube: Hypercube, nodes: I) -> Self {
        let mut f = Self::new(cube);
        for a in nodes {
            f.insert(a);
        }
        f
    }

    /// Convenience constructor from binary-string addresses, as the
    /// paper's figures list them (e.g. `["0011", "0100"]`).
    ///
    /// # Panics
    /// Panics on an unparsable address — figure instances are static
    /// data, so a typo should fail loudly.
    pub fn from_binary_strs(cube: Hypercube, strs: &[&str]) -> Self {
        Self::from_nodes(
            cube,
            strs.iter().map(|s| {
                NodeId::from_binary(s).unwrap_or_else(|| panic!("bad binary address {s:?}"))
            }),
        )
    }

    /// Number of faulty nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node is faulty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether node `a` is faulty; `false` for an address past the
    /// set's capacity, which the set cannot hold.
    #[inline]
    pub fn contains(&self, a: NodeId) -> bool {
        let i = a.raw();
        self.bits
            .get((i / 64) as usize)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Marks `a` faulty; returns `true` if it was previously nonfaulty.
    pub fn insert(&mut self, a: NodeId) -> bool {
        let i = a.raw();
        assert!(i < self.capacity, "address {i} out of range");
        let (w, b) = ((i / 64) as usize, i % 64);
        let fresh = (self.bits[w] >> b) & 1 == 0;
        if fresh {
            self.bits[w] |= 1 << b;
            self.len += 1;
        }
        fresh
    }

    /// Marks `a` nonfaulty again (fault recovery, §2.2); returns `true`
    /// if it was previously faulty.
    pub fn remove(&mut self, a: NodeId) -> bool {
        let i = a.raw();
        assert!(i < self.capacity, "address {i} out of range");
        let (w, b) = ((i / 64) as usize, i % 64);
        let present = (self.bits[w] >> b) & 1 == 1;
        if present {
            self.bits[w] &= !(1 << b);
            self.len -= 1;
        }
        present
    }

    /// The backing bitset words, 64 addresses per word ascending —
    /// the same bit order as a safety bit-plane, so the plane kernels
    /// in `hypersafe-core` can use the fault set directly as their
    /// "level is 0 and pinned" mask without re-packing.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Iterator over the faulty node addresses, ascending.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            crate::addr::BitDims(word).map(move |b| NodeId::new((w as u64) * 64 + b as u64))
        })
    }

    /// Number of faulty neighbors of `a` in `cube`.
    pub fn faulty_neighbor_count(&self, cube: Hypercube, a: NodeId) -> usize {
        cube.neighbors(a).filter(|&b| self.contains(b)).count()
    }
}

/// A set of faulty undirected links, stored as a packed bitset: one
/// 64-bit word per lower endpoint, with bit `d` set when the link
/// along dimension `d` (the single differing bit of the endpoints) is
/// faulty. A hypercube has at most 64 dimensions, so a word per node
/// always suffices, and the membership test in the engines' per-hop
/// hot path is two shifts and a mask instead of a hash lookup.
///
/// The backing vector grows lazily with the highest inserted lower
/// endpoint, so the empty set stays allocation-free and equality is
/// defined on set contents, not backing-store length.
#[derive(Clone, Debug, Default)]
pub struct LinkFaultSet {
    bits: Vec<u64>,
    len: usize,
}

impl LinkFaultSet {
    /// Empty link-fault set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical form of the undirected link `a`–`b`: the lower
    /// endpoint and the dimension the endpoints differ in.
    #[inline]
    fn key(a: NodeId, b: NodeId) -> (usize, u32) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        (lo.raw() as usize, (lo.raw() ^ hi.raw()).trailing_zeros())
    }

    /// Marks the link between `a` and `b` faulty.
    ///
    /// # Panics
    /// Panics if `a` and `b` are not adjacent (`H(a,b) ≠ 1`).
    pub fn insert(&mut self, a: NodeId, b: NodeId) -> bool {
        assert_eq!(a.distance(b), 1, "({a}, {b}) is not a hypercube link");
        let (lo, d) = Self::key(a, b);
        if lo >= self.bits.len() {
            self.bits.resize(lo + 1, 0);
        }
        let fresh = (self.bits[lo] >> d) & 1 == 0;
        if fresh {
            self.bits[lo] |= 1 << d;
            self.len += 1;
        }
        fresh
    }

    /// Restores the link between `a` and `b`.
    pub fn remove(&mut self, a: NodeId, b: NodeId) -> bool {
        let (lo, d) = Self::key(a, b);
        let present = lo < self.bits.len() && (self.bits[lo] >> d) & 1 == 1;
        if present {
            self.bits[lo] &= !(1 << d);
            self.len -= 1;
        }
        present
    }

    /// Whether the link between `a` and `b` is faulty.
    #[inline]
    pub fn contains(&self, a: NodeId, b: NodeId) -> bool {
        let x = a.raw() ^ b.raw();
        if !x.is_power_of_two() {
            return false;
        }
        let lo = a.raw().min(b.raw()) as usize;
        lo < self.bits.len() && (self.bits[lo] >> x.trailing_zeros()) & 1 == 1
    }

    /// Number of faulty links.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no link is faulty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterator over faulty links as `(low, high)` pairs, ascending by
    /// lower endpoint then dimension.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.bits.iter().enumerate().flat_map(|(lo, &word)| {
            crate::addr::BitDims(word)
                .map(move |d| (NodeId::new(lo as u64), NodeId::new(lo as u64 | (1 << d))))
        })
    }

    /// Whether node `a` has at least one adjacent faulty link — i.e.
    /// whether `a` belongs to the paper's set `N2` (§4.1).
    pub fn touches(&self, cube: Hypercube, a: NodeId) -> bool {
        cube.neighbors(a).any(|b| self.contains(a, b))
    }

    /// Iterator over the far endpoints of `a`'s adjacent faulty links.
    pub fn faulty_ends_of<'a>(
        &'a self,
        cube: Hypercube,
        a: NodeId,
    ) -> impl Iterator<Item = NodeId> + 'a {
        cube.neighbors(a).filter(move |&b| self.contains(a, b))
    }
}

impl PartialEq for LinkFaultSet {
    fn eq(&self, other: &Self) -> bool {
        // Backing vectors grow lazily, so equal sets may differ in
        // trailing zero words; compare contents, not storage.
        let (short, long) = if self.bits.len() <= other.bits.len() {
            (&self.bits, &other.bits)
        } else {
            (&other.bits, &self.bits)
        };
        self.len == other.len
            && short[..] == long[..short.len()]
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for LinkFaultSet {}

/// Complete fault state of one faulty hypercube instance: the cube, its
/// faulty nodes, and its faulty links.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    cube: Hypercube,
    nodes: FaultSet,
    links: LinkFaultSet,
}

impl FaultConfig {
    /// A fault-free instance of `cube`.
    pub fn fault_free(cube: Hypercube) -> Self {
        FaultConfig {
            cube,
            nodes: FaultSet::new(cube),
            links: LinkFaultSet::new(),
        }
    }

    /// An instance with the given faulty nodes and no faulty links.
    /// The set is sized to `cube` (see [`FaultConfig::with_faults`]).
    pub fn with_node_faults(cube: Hypercube, nodes: FaultSet) -> Self {
        Self::with_faults(cube, nodes, LinkFaultSet::new())
    }

    /// An instance with both faulty nodes and faulty links (§4.1).
    /// A node set built for another size is fitted to `cube`: it grows
    /// to cover every node, and members outside `cube` are dropped.
    pub fn with_faults(cube: Hypercube, nodes: FaultSet, links: LinkFaultSet) -> Self {
        let nodes = if nodes.capacity == cube.num_nodes() {
            nodes
        } else {
            FaultSet::from_nodes(cube, nodes.iter().filter(|&a| cube.contains(a)))
        };
        FaultConfig { cube, nodes, links }
    }

    /// The underlying topology.
    #[inline]
    pub fn cube(&self) -> Hypercube {
        self.cube
    }

    /// The faulty-node set.
    #[inline]
    pub fn node_faults(&self) -> &FaultSet {
        &self.nodes
    }

    /// Mutable access to the faulty-node set (fault injection/recovery).
    #[inline]
    pub fn node_faults_mut(&mut self) -> &mut FaultSet {
        &mut self.nodes
    }

    /// The faulty-link set.
    #[inline]
    pub fn link_faults(&self) -> &LinkFaultSet {
        &self.links
    }

    /// Mutable access to the faulty-link set.
    #[inline]
    pub fn link_faults_mut(&mut self) -> &mut LinkFaultSet {
        &mut self.links
    }

    /// Whether node `a` is faulty.
    #[inline]
    pub fn node_faulty(&self, a: NodeId) -> bool {
        self.nodes.contains(a)
    }

    /// Whether the link `a`–`b` is usable: both endpoints nonfaulty and
    /// the link itself nonfaulty.
    #[inline]
    pub fn link_usable(&self, a: NodeId, b: NodeId) -> bool {
        !self.nodes.contains(a) && !self.nodes.contains(b) && !self.links.contains(a, b)
    }

    /// Iterator over the nonfaulty nodes.
    pub fn healthy_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.cube.nodes().filter(move |&a| !self.nodes.contains(a))
    }

    /// Number of nonfaulty nodes.
    pub fn healthy_count(&self) -> u64 {
        self.cube.num_nodes() - self.nodes.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q4() -> Hypercube {
        Hypercube::new(4)
    }

    #[test]
    fn a_fault_set_sized_for_another_cube_is_fitted() {
        let q8 = Hypercube::new(8);
        let members = [NodeId::new(3), NodeId::new(40)];
        let mut short = FaultSet::with_capacity(64);
        let mut long = FaultSet::with_capacity(1 << 10);
        for a in members {
            short.insert(a);
            long.insert(a);
        }
        long.insert(NodeId::new(700));
        let want = FaultConfig::with_node_faults(q8, FaultSet::from_nodes(q8, members));
        for set in [short, long] {
            let cfg = FaultConfig::with_faults(q8, set, LinkFaultSet::new());
            assert_eq!(cfg, want);
            assert!(!cfg.node_faulty(NodeId::new(200)));
            assert_eq!(cfg.node_faults().len(), 2);
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut f = FaultSet::new(q4());
        let a = NodeId::new(0b0110);
        assert!(!f.contains(a));
        assert!(f.insert(a));
        assert!(!f.insert(a), "double insert is a no-op");
        assert!(f.contains(a));
        assert_eq!(f.len(), 1);
        assert!(f.remove(a));
        assert!(!f.remove(a));
        assert!(f.is_empty());
    }

    #[test]
    fn fig1_fault_set() {
        // Fig. 1: faults {0011, 0100, 0110, 1001}.
        let f = FaultSet::from_binary_strs(q4(), &["0011", "0100", "0110", "1001"]);
        assert_eq!(f.len(), 4);
        assert!(f.contains(NodeId::new(0b0011)));
        assert!(!f.contains(NodeId::new(0b0000)));
        let listed: Vec<u64> = f.iter().map(NodeId::raw).collect();
        assert_eq!(listed, vec![0b0011, 0b0100, 0b0110, 0b1001]);
    }

    #[test]
    fn faulty_neighbor_count_matches_fig1() {
        // In Fig. 1, node 0010 has faulty neighbors 0011, 0110 → count 2.
        let f = FaultSet::from_binary_strs(q4(), &["0011", "0100", "0110", "1001"]);
        assert_eq!(f.faulty_neighbor_count(q4(), NodeId::new(0b0010)), 2);
        assert_eq!(f.faulty_neighbor_count(q4(), NodeId::new(0b1111)), 0);
    }

    #[test]
    fn link_faults_are_undirected() {
        let mut lf = LinkFaultSet::new();
        let a = NodeId::new(0b1000);
        let b = NodeId::new(0b1001);
        assert!(lf.insert(b, a));
        assert!(lf.contains(a, b));
        assert!(lf.contains(b, a));
        assert!(lf.touches(q4(), a));
        assert!(lf.touches(q4(), b));
        assert!(!lf.touches(q4(), NodeId::new(0b0000)));
        assert_eq!(lf.faulty_ends_of(q4(), a).collect::<Vec<_>>(), vec![b]);
        assert!(lf.remove(a, b));
        assert!(lf.is_empty());
    }

    #[test]
    fn link_iteration_is_sorted_and_complete() {
        let mut lf = LinkFaultSet::new();
        // Insert in scrambled order; iteration must come out sorted by
        // (low endpoint, dimension).
        lf.insert(NodeId::new(0b1110), NodeId::new(0b1111));
        lf.insert(NodeId::new(0b0001), NodeId::new(0b0000));
        lf.insert(NodeId::new(0b0100), NodeId::new(0b0000));
        lf.insert(NodeId::new(0b0010), NodeId::new(0b0000));
        assert_eq!(lf.len(), 4);
        let listed: Vec<(u64, u64)> = lf.iter().map(|(a, b)| (a.raw(), b.raw())).collect();
        assert_eq!(
            listed,
            vec![(0, 1), (0, 0b10), (0, 0b100), (0b1110, 0b1111)]
        );
    }

    #[test]
    fn link_set_equality_ignores_backing_growth() {
        let a = NodeId::new(0b0000);
        let b = NodeId::new(0b0001);
        let hi = NodeId::new(0b1110);
        let mut grown = LinkFaultSet::new();
        grown.insert(a, b);
        grown.insert(hi, NodeId::new(0b1111));
        grown.remove(hi, NodeId::new(0b1111));
        let mut small = LinkFaultSet::new();
        small.insert(a, b);
        assert_eq!(grown, small, "trailing zero words must not matter");
        assert_eq!(small, grown);
        small.remove(a, b);
        assert_eq!(small, LinkFaultSet::new());
        assert_ne!(grown, small);
    }

    #[test]
    fn link_contains_rejects_non_links_quietly() {
        let mut lf = LinkFaultSet::new();
        lf.insert(NodeId::new(0b0000), NodeId::new(0b0001));
        // Queries about node pairs that are not links (H ≠ 1) are
        // simply absent, matching the old set-of-pairs semantics.
        assert!(!lf.contains(NodeId::new(0b0000), NodeId::new(0b0011)));
        assert!(!lf.contains(NodeId::new(0b0101), NodeId::new(0b0101)));
        // Out-of-range endpoints (beyond anything inserted) are absent.
        assert!(!lf.contains(NodeId::new(0b1000_0000), NodeId::new(0b1000_0001)));
    }

    #[test]
    #[should_panic]
    fn link_faults_reject_non_links() {
        let mut lf = LinkFaultSet::new();
        lf.insert(NodeId::new(0b0000), NodeId::new(0b0011));
    }

    #[test]
    fn config_link_usable_accounts_for_everything() {
        let cube = q4();
        let mut cfg = FaultConfig::fault_free(cube);
        let a = NodeId::new(0b0000);
        let b = NodeId::new(0b0001);
        assert!(cfg.link_usable(a, b));
        cfg.link_faults_mut().insert(a, b);
        assert!(!cfg.link_usable(a, b));
        cfg.link_faults_mut().remove(a, b);
        cfg.node_faults_mut().insert(b);
        assert!(!cfg.link_usable(a, b));
        assert_eq!(cfg.healthy_count(), 15);
        assert!(cfg.healthy_nodes().all(|x| x != b));
    }
}
