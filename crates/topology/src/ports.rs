//! The one port-labelled view of a topology that the routing rule, the
//! safety-level fixed point and both simulation engines read.
//!
//! A node of either topology reaches its neighbours through numbered
//! ports. In `Q_n` ([`crate::Hypercube`]) a port is a dimension. In a
//! generalized hypercube ([`crate::GeneralizedHypercube`], §4.2) a port
//! is a `(dimension, digit)` pair naming the clique peer that carries
//! `digit` along that dimension. Each port also has a linear index in
//! `0..degree`, the number the engines use, and that numbering is a
//! contract: a cube's port index is its dimension, and a GH numbers its
//! ports dimension-major, each clique by ascending digit, skipping the
//! node's own digit. [`Topology::neighbours`] lists the neighbours in
//! that order.

/// A regular topology with port-labelled links: the neighbour
/// arithmetic of `Q_n` and of §4.2's generalized hypercubes, written
/// once per topology.
///
/// Methods that take a node expect it inside the topology, except
/// [`Topology::contains`], [`Topology::distance`] and
/// [`Topology::port_of`], which answer for any node.
pub trait Topology: Copy {
    /// A node address.
    type Node: Copy + Eq + std::fmt::Debug;
    /// A neighbour of a node, named relative to it: a dimension in
    /// `Q_n`, a `(dimension, digit)` pair in a generalized hypercube.
    type Port: Copy;

    /// Number of nodes; their linear indices are `0..num_nodes`.
    fn num_nodes(self) -> u64;

    /// Number of ports of every node.
    fn degree(self) -> usize;

    /// The dimension `n`, also the highest safety level a node can hold.
    fn dim(self) -> u8;

    /// Whether `a` is a node of this topology.
    fn contains(self, a: Self::Node) -> bool;

    /// The number of coordinates in which `a` and `b` differ, or `None`
    /// when either lies outside the topology.
    fn distance(self, a: Self::Node, b: Self::Node) -> Option<u32>;

    /// The neighbour of `a` across port `p`.
    fn across(self, a: Self::Node, p: Self::Port) -> Self::Node;

    /// The port of `a` that reaches `b`, or `None` when the two are not
    /// adjacent or either lies outside the topology.
    fn port_of(self, a: Self::Node, b: Self::Node) -> Option<Self::Port>;

    /// The neighbours of `a` along dimension `i`: one in `Q_n`, the rest
    /// of the dimension-`i` clique, by ascending digit, in a generalized
    /// hypercube.
    fn along(self, a: Self::Node, i: u8) -> impl Iterator<Item = Self::Node>;

    /// Every neighbour of `a`, in port order.
    fn neighbours(self, a: Self::Node) -> impl Iterator<Item = Self::Node>;

    /// The ports of `at` that resolve a coordinate toward `d` (the
    /// preferred ones), by ascending dimension.
    fn preferred(self, at: Self::Node, d: Self::Node) -> impl Iterator<Item = Self::Port> + Clone;

    /// The other ports of `at` (the spare ones), by ascending dimension.
    fn spare(self, at: Self::Node, d: Self::Node) -> impl Iterator<Item = Self::Port> + Clone;

    /// The dimension port `p` crosses: the port itself in `Q_n`, the
    /// first of the pair in a generalized hypercube.
    fn port_dim(self, p: Self::Port) -> u8;

    /// The linear index of port `p` of `a`, in `0..degree`.
    fn port_index(self, a: Self::Node, p: Self::Port) -> usize;

    /// The port of `a` with linear index `k < degree`.
    fn port_at(self, a: Self::Node, k: usize) -> Self::Port;

    /// The linear index of a node: the engines' node id.
    fn raw(a: Self::Node) -> u64;

    /// The node with linear index `i`.
    fn from_raw(i: u64) -> Self::Node;
}
