//! The binary hypercube topology `Q_n`.

use crate::addr::{BitDims, NodeId, MAX_DIM};
use crate::ports::Topology;

/// The `n`-dimensional binary hypercube `Q_n`: `2ⁿ` nodes, each adjacent
/// to the `n` nodes whose addresses differ from it in exactly one bit.
///
/// `Hypercube` is a pure topology descriptor — it carries no fault state
/// (see [`crate::faults`]) and is `Copy`-cheap to pass around.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Hypercube {
    n: u8,
}

impl Hypercube {
    /// Creates `Q_n`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > MAX_DIM`: a zero-dimensional cube has
    /// no links and none of the paper's machinery applies to it.
    pub fn new(n: u8) -> Self {
        assert!(
            (1..=MAX_DIM).contains(&n),
            "dimension must be in 1..={MAX_DIM}, got {n}"
        );
        Hypercube { n }
    }

    /// Number of (undirected) links, `n · 2ⁿ⁻¹`.
    #[inline]
    pub const fn num_links(self) -> u64 {
        (self.n as u64) << (self.n - 1)
    }

    /// Iterator over all node addresses, ascending.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId::new)
    }

    /// Iterator over all undirected links as `(low, high)` node pairs,
    /// each link reported exactly once.
    pub fn links(self) -> impl Iterator<Item = (NodeId, NodeId)> {
        let n = self.n;
        self.nodes().flat_map(move |a| {
            (0..n).filter_map(move |i| {
                let b = a.neighbor(i);
                (a < b).then_some((a, b))
            })
        })
    }
}

/// `Q_n` as a [`Topology`]: a port is a dimension, and its linear
/// index is the dimension itself. The preferred ports of `(s, d)` are
/// the dimensions in which `s` and `d` differ, which any optimal path
/// crosses exactly once (paper, §2.1); the spare ones are the other
/// `n − H(s, d)`.
///
/// Every method is inlined: the routing rule and the safety-level
/// rounds in `hypersafe-core` call them per hop and per node.
impl Topology for Hypercube {
    type Node = NodeId;
    type Port = u8;

    #[inline]
    fn num_nodes(self) -> u64 {
        1 << self.n
    }

    #[inline]
    fn degree(self) -> usize {
        self.n as usize
    }

    #[inline]
    fn dim(self) -> u8 {
        self.n
    }

    #[inline]
    fn contains(self, a: NodeId) -> bool {
        a.raw() >> self.n == 0
    }

    #[inline]
    fn distance(self, a: NodeId, b: NodeId) -> Option<u32> {
        ((a.raw() | b.raw()) >> self.n == 0).then(|| a.distance(b))
    }

    #[inline]
    fn across(self, a: NodeId, i: u8) -> NodeId {
        a.neighbor(i)
    }

    #[inline]
    fn port_of(self, a: NodeId, b: NodeId) -> Option<u8> {
        let x = a.raw() ^ b.raw();
        ((a.raw() | b.raw()) >> self.n == 0 && x.count_ones() == 1)
            .then(|| x.trailing_zeros() as u8)
    }

    #[inline]
    fn along(self, a: NodeId, i: u8) -> impl Iterator<Item = NodeId> {
        std::iter::once(a.neighbor(i))
    }

    #[inline(always)]
    fn neighbours(self, a: NodeId) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(move |i| a.neighbor(i))
    }

    #[inline]
    fn preferred(self, at: NodeId, d: NodeId) -> impl Iterator<Item = u8> + Clone {
        at.differing_dims(d)
    }

    #[inline]
    fn spare(self, at: NodeId, d: NodeId) -> impl Iterator<Item = u8> + Clone {
        BitDims(!at.xor(d).raw() & ((1u64 << self.n) - 1))
    }

    #[inline]
    fn port_dim(self, i: u8) -> u8 {
        i
    }

    #[inline]
    fn port_index(self, _: NodeId, i: u8) -> usize {
        i as usize
    }

    #[inline]
    fn port_at(self, _: NodeId, k: usize) -> u8 {
        k as u8
    }

    #[inline]
    fn raw(a: NodeId) -> u64 {
        a.raw()
    }

    #[inline]
    fn from_raw(i: u64) -> NodeId {
        NodeId::new(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q4_counts() {
        let q = Hypercube::new(4);
        assert_eq!(q.num_nodes(), 16);
        assert_eq!(q.num_links(), 32);
        assert_eq!(q.nodes().count(), 16);
        assert_eq!(q.links().count(), 32);
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        Hypercube::new(0);
    }

    #[test]
    fn neighbors_are_distance_one() {
        let q = Hypercube::new(5);
        let a = NodeId::new(0b10110);
        let ns: Vec<NodeId> = q.neighbours(a).collect();
        assert_eq!(ns.len(), 5);
        for b in &ns {
            assert_eq!(a.distance(*b), 1);
            assert!(q.contains(*b));
        }
        // All distinct.
        let mut sorted = ns.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn preferred_and_spare_partition_dimensions() {
        let q = Hypercube::new(6);
        let s = NodeId::new(0b101010);
        let d = NodeId::new(0b011010);
        let mut dims: Vec<u8> = q.preferred(s, d).chain(q.spare(s, d)).collect();
        dims.sort();
        assert_eq!(dims, (0..6).collect::<Vec<u8>>());
        assert_eq!(Some(q.preferred(s, d).count() as u32), q.distance(s, d));
    }

    #[test]
    fn preferred_neighbors_move_closer() {
        let q = Hypercube::new(7);
        let s = NodeId::new(0b1010101);
        let d = NodeId::new(0b0110011);
        for p in q.preferred(s, d).map(|i| q.across(s, i)) {
            assert_eq!(p.distance(d) + 1, s.distance(d));
        }
        for sp in q.spare(s, d).map(|i| q.across(s, i)) {
            assert_eq!(sp.distance(d), s.distance(d) + 1);
        }
    }

    #[test]
    fn links_each_once_and_valid() {
        let q = Hypercube::new(3);
        for (a, b) in q.links() {
            assert!(a < b);
            assert_eq!(a.distance(b), 1);
        }
    }

    #[test]
    fn port_of_names_no_port_outside_the_cube() {
        let q = Hypercube::new(3);
        assert_eq!(q.port_of(NodeId::new(0b101), NodeId::new(0b111)), Some(1));
        assert_eq!(q.port_of(NodeId::new(0b101), NodeId::new(0b110)), None);
        assert_eq!(q.port_of(NodeId::new(0), NodeId::new(8)), None);
        assert_eq!(q.port_of(NodeId::new(8), NodeId::new(0)), None);
    }
}
