//! Generalized hypercubes `GH(m_{n-1}, …, m_0)` (Bhuyan & Agrawal),
//! the paper's §4.2 extension target.
//!
//! A node is an `n`-vector `(a_{n-1}, …, a_0)` with `0 ≤ a_i < m_i`;
//! two nodes are linked iff they differ in exactly one coordinate, so
//! all `m_i` nodes that agree everywhere except coordinate `i` form a
//! clique ("all the nodes along the same dimension are directly
//! connected"). Distance is the number of differing coordinates.

use crate::addr::NodeId;
use crate::faults::FaultSet;
use crate::ports::Topology;

/// Node of a generalized hypercube: a linear mixed-radix index. The
/// owning [`GeneralizedHypercube`] decodes it into digits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct GhNode(pub u64);

impl GhNode {
    /// The raw linear index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// The generalized hypercube topology `GH(m_{n-1}, …, m_0)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneralizedHypercube {
    /// Radix per dimension, index 0 = least significant (paper's `m_0`).
    radices: Vec<u16>,
    /// Mixed-radix strides: `strides[i] = m_0 · … · m_{i-1}`.
    strides: Vec<u64>,
    /// Port `k` of every node as `(dimension, rank)`: the port reaches
    /// the `rank`-th digit of that dimension other than the node's own.
    /// Dimension-major, ranks ascending.
    ports: Vec<(u8, u16)>,
    num_nodes: u64,
}

impl GeneralizedHypercube {
    /// Builds `GH(m_{n-1}, …, m_0)` from radices listed least-significant
    /// first: `radices[i] = m_i`.
    ///
    /// # Panics
    /// Panics if empty, if any radix is < 2, or if the node count
    /// overflows practical limits (> 2³⁰ nodes).
    pub fn new(radices: &[u16]) -> Self {
        assert!(!radices.is_empty(), "need at least one dimension");
        let mut strides = Vec::with_capacity(radices.len());
        let mut total: u64 = 1;
        for &m in radices {
            assert!(m >= 2, "radix must be ≥ 2, got {m}");
            strides.push(total);
            total = total.checked_mul(m as u64).expect("node count overflow");
            assert!(total <= 1 << 30, "node count too large");
        }
        let ports = (0u8..)
            .zip(radices)
            .flat_map(|(i, &m)| (0..m - 1).map(move |rank| (i, rank)))
            .collect();
        GeneralizedHypercube {
            radices: radices.to_vec(),
            strides,
            ports,
            num_nodes: total,
        }
    }

    /// Convenience constructor matching the paper's `m_{n-1} × … × m_0`
    /// product notation: `from_product(&[2, 3, 2])` is the Fig. 5 cube
    /// `GH(2, 3, 2)` with `m_2 = 2, m_1 = 3, m_0 = 2`.
    pub fn from_product(radices_msb_first: &[u16]) -> Self {
        let lsb: Vec<u16> = radices_msb_first.iter().rev().copied().collect();
        Self::new(&lsb)
    }

    /// Radix `m_i` of dimension `i`.
    #[inline]
    pub fn radix(&self, i: u8) -> u16 {
        self.radices[i as usize]
    }

    /// Iterator over all nodes, ascending by index.
    pub fn nodes(&self) -> impl Iterator<Item = GhNode> {
        (0..self.num_nodes).map(GhNode)
    }

    /// Coordinate `a_i` of node `a`.
    #[inline]
    pub fn digit(&self, a: GhNode, i: u8) -> u16 {
        ((a.0 / self.strides[i as usize]) % self.radices[i as usize] as u64) as u16
    }

    /// The node equal to `a` everywhere except coordinate `i`, which is
    /// set to `v`.
    ///
    /// # Panics
    /// Panics if `v ≥ m_i`.
    #[inline]
    pub fn with_digit(&self, a: GhNode, i: u8, v: u16) -> GhNode {
        let m = self.radices[i as usize] as u64;
        assert!((v as u64) < m, "digit {v} out of range for radix {m}");
        let stride = self.strides[i as usize];
        let old = (a.0 / stride) % m;
        GhNode(a.0 - old * stride + v as u64 * stride)
    }

    /// The members of `a`'s dimension-`i` clique other than `a`, by
    /// ascending digit: one digit read for the whole clique.
    #[inline]
    fn peers(&self, a: GhNode, i: u8) -> impl Iterator<Item = GhNode> {
        let (stride, own) = (self.strides[i as usize], self.digit(a, i) as u64);
        let base = a.0 - own * stride;
        let digit = move |rank| rank + u64::from(rank >= own);
        (0..self.radix(i) as u64 - 1).map(move |rank| GhNode(base + digit(rank) * stride))
    }

    /// The neighbour of `a` across port `k`, from the port table.
    #[inline]
    fn peer(&self, a: GhNode, k: usize) -> GhNode {
        let (i, rank) = self.ports[k];
        let (stride, own) = (self.strides[i as usize], self.digit(a, i));
        let v = rank + u16::from(rank >= own);
        GhNode(a.0 - own as u64 * stride + v as u64 * stride)
    }

    /// Builds a node from its digit vector, least-significant first.
    pub fn node_from_digits(&self, digits: &[u16]) -> GhNode {
        assert_eq!(digits.len(), self.radices.len());
        let mut v = 0u64;
        for (i, &d) in digits.iter().enumerate() {
            assert!(d < self.radices[i], "digit out of range");
            v += d as u64 * self.strides[i];
        }
        GhNode(v)
    }

    /// Digit vector of `a`, least-significant first.
    pub fn digits(&self, a: GhNode) -> Vec<u16> {
        (0..self.dim()).map(|i| self.digit(a, i)).collect()
    }

    /// Parses a node written MSB-first with one character per digit
    /// (radices ≤ 10), the way the paper's Fig. 5 labels nodes
    /// (e.g. `"010"` in `GH(2,3,2)` = `(a_2, a_1, a_0) = (0, 1, 0)`).
    pub fn parse(&self, s: &str) -> Option<GhNode> {
        if s.len() != self.radices.len() {
            return None;
        }
        let mut digits = Vec::with_capacity(s.len());
        for (c, &m) in s.chars().rev().zip(self.radices.iter()) {
            let d = c.to_digit(10)? as u16;
            if d >= m {
                return None;
            }
            digits.push(d);
        }
        Some(self.node_from_digits(&digits))
    }

    /// Renders a node MSB-first with one character per digit.
    pub fn format(&self, a: GhNode) -> String {
        (0..self.dim())
            .rev()
            .map(|i| char::from_digit(self.digit(a, i) as u32, 10).expect("radix ≤ 10"))
            .collect()
    }

    /// An empty fault set sized for this topology. GH nodes share the
    /// dense-bitset [`FaultSet`] with binary cubes via their linear
    /// index.
    pub fn fault_set(&self) -> FaultSet {
        FaultSet::with_capacity(self.num_nodes)
    }

    /// Builds a fault set from MSB-first digit strings, as Fig. 5 lists.
    pub fn fault_set_from_strs(&self, strs: &[&str]) -> FaultSet {
        let mut f = self.fault_set();
        for s in strs {
            let node = self
                .parse(s)
                .unwrap_or_else(|| panic!("bad GH address {s:?}"));
            f.insert(NodeId::new(node.0));
        }
        f
    }
}

/// A generalized hypercube as a [`Topology`]: a port is a
/// `(dimension, digit)` pair, naming the clique peer that carries
/// `digit` in that dimension. The preferred port along a differing
/// dimension is the peer with the destination's digit, which resolves
/// the coordinate in one hop; the spare ports are every peer along an
/// agreeing dimension. Port `k` is the `ports[k]` entry of the table
/// built in [`GeneralizedHypercube::new`].
impl Topology for &GeneralizedHypercube {
    type Node = GhNode;
    type Port = (u8, u16);

    #[inline]
    fn num_nodes(self) -> u64 {
        self.num_nodes
    }

    #[inline]
    fn degree(self) -> usize {
        self.ports.len()
    }

    #[inline]
    fn dim(self) -> u8 {
        self.radices.len() as u8
    }

    #[inline]
    fn contains(self, a: GhNode) -> bool {
        a.0 < self.num_nodes
    }

    fn distance(self, a: GhNode, b: GhNode) -> Option<u32> {
        let differ = (0..self.dim()).filter(|&i| self.digit(a, i) != self.digit(b, i));
        (self.contains(a) && self.contains(b)).then(|| differ.count() as u32)
    }

    #[inline]
    fn across(self, a: GhNode, (i, v): (u8, u16)) -> GhNode {
        self.with_digit(a, i, v)
    }

    fn port_of(self, a: GhNode, b: GhNode) -> Option<(u8, u16)> {
        if !(self.contains(a) && self.contains(b)) {
            return None;
        }
        let mut port = None;
        for i in 0..self.dim() {
            let v = self.digit(b, i);
            if self.digit(a, i) != v {
                if port.is_some() {
                    return None;
                }
                port = Some((i, v));
            }
        }
        port
    }

    #[inline]
    fn along(self, a: GhNode, i: u8) -> impl Iterator<Item = GhNode> {
        self.peers(a, i)
    }

    #[inline]
    fn neighbours(self, a: GhNode) -> impl Iterator<Item = GhNode> {
        (0..self.ports.len()).map(move |k| self.peer(a, k))
    }

    fn preferred(self, at: GhNode, d: GhNode) -> impl Iterator<Item = (u8, u16)> + Clone {
        (0..self.dim())
            .map(move |i| (i, self.digit(d, i)))
            .filter(move |&(i, v)| self.digit(at, i) != v)
    }

    fn spare(self, at: GhNode, d: GhNode) -> impl Iterator<Item = (u8, u16)> + Clone {
        (0..self.dim())
            .filter(move |&i| self.digit(at, i) == self.digit(d, i))
            .flat_map(move |i| {
                let own = self.digit(at, i);
                (0..self.radix(i))
                    .filter(move |&v| v != own)
                    .map(move |v| (i, v))
            })
    }

    #[inline]
    fn port_dim(self, (i, _): (u8, u16)) -> u8 {
        i
    }

    fn port_index(self, a: GhNode, (i, v): (u8, u16)) -> usize {
        let first = self.ports.partition_point(|&(j, _)| j < i);
        first + v as usize - usize::from(v > self.digit(a, i))
    }

    fn port_at(self, a: GhNode, k: usize) -> (u8, u16) {
        let (i, rank) = self.ports[k];
        (i, rank + u16::from(rank >= self.digit(a, i)))
    }

    #[inline]
    fn raw(a: GhNode) -> u64 {
        a.0
    }

    #[inline]
    fn from_raw(i: u64) -> GhNode {
        GhNode(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gh232() -> GeneralizedHypercube {
        // Fig. 5: a 2 × 3 × 2 generalized hypercube.
        GeneralizedHypercube::from_product(&[2, 3, 2])
    }

    #[test]
    fn counts() {
        let gh = gh232();
        assert_eq!(gh.num_nodes(), 12);
        assert_eq!(gh.dim(), 3);
        assert_eq!(gh.radix(0), 2);
        assert_eq!(gh.radix(1), 3);
        assert_eq!(gh.radix(2), 2);
        assert_eq!(gh.degree(), 1 + 2 + 1);
    }

    #[test]
    fn parse_format_roundtrip() {
        let gh = gh232();
        for a in gh.nodes() {
            let s = gh.format(a);
            assert_eq!(gh.parse(&s), Some(a));
        }
        assert_eq!(gh.parse("020").map(|a| gh.digits(a)), Some(vec![0, 2, 0]));
        assert_eq!(gh.parse("030"), None, "digit ≥ radix rejected");
        assert_eq!(gh.parse("01"), None, "wrong length rejected");
    }

    #[test]
    fn neighbors_differ_in_one_coordinate() {
        let gh = gh232();
        let a = gh.parse("010").unwrap();
        let ns: Vec<GhNode> = gh.neighbours(a).collect();
        assert_eq!(ns.len(), gh.degree());
        for b in &ns {
            assert_eq!(gh.distance(a, *b), Some(1));
        }
        // Fig. 5 walk: 010's neighbors along dimension 1 are 000 and 020.
        let along1: Vec<String> = gh.along(a, 1).map(|b| gh.format(b)).collect();
        assert_eq!(along1, vec!["000", "020"]);
        // Neighbor along dimension 0 is 011; along dimension 2 is 110.
        assert_eq!(
            gh.along(a, 0).map(|b| gh.format(b)).collect::<Vec<_>>(),
            vec!["011"]
        );
        assert_eq!(
            gh.along(a, 2).map(|b| gh.format(b)).collect::<Vec<_>>(),
            vec!["110"]
        );
    }

    #[test]
    fn fig5_pair_distance() {
        let gh = gh232();
        let s = gh.parse("010").unwrap();
        let d = gh.parse("101").unwrap();
        assert_eq!(
            gh.distance(s, d),
            Some(3),
            "differ in all three coordinates"
        );
    }

    #[test]
    fn with_digit_is_inverse_consistent() {
        let gh = GeneralizedHypercube::new(&[4, 3, 5]);
        for a in gh.nodes() {
            for i in 0..gh.dim() {
                for v in 0..gh.radix(i) {
                    let b = gh.with_digit(a, i, v);
                    assert_eq!(gh.digit(b, i), v);
                    for j in 0..gh.dim() {
                        if j != i {
                            assert_eq!(gh.digit(b, j), gh.digit(a, j));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn binary_radices_match_hypercube() {
        // GH(2,2,2,2) is Q_4: same distances, same degree.
        let gh = GeneralizedHypercube::new(&[2, 2, 2, 2]);
        assert_eq!(gh.num_nodes(), 16);
        assert_eq!(gh.degree(), 4);
        for a in gh.nodes() {
            for b in gh.nodes() {
                let qa = NodeId::new(a.0);
                let qb = NodeId::new(b.0);
                assert_eq!(gh.distance(a, b), Some(qa.distance(qb)));
            }
        }
    }

    #[test]
    fn fault_set_from_strs_works() {
        let gh = gh232();
        let f = gh.fault_set_from_strs(&["011", "110"]);
        assert_eq!(f.len(), 2);
        assert!(f.contains(NodeId::new(gh.parse("011").unwrap().0)));
    }

    #[test]
    #[should_panic]
    fn radix_one_rejected() {
        GeneralizedHypercube::new(&[2, 1]);
    }
}
