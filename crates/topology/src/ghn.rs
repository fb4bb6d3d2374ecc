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
        GeneralizedHypercube {
            radices: radices.to_vec(),
            strides,
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

    /// Number of dimensions `n`.
    #[inline]
    pub fn dim(&self) -> u8 {
        self.radices.len() as u8
    }

    /// Radix `m_i` of dimension `i`.
    #[inline]
    pub fn radix(&self, i: u8) -> u16 {
        self.radices[i as usize]
    }

    /// Total number of nodes `∏ m_i`.
    #[inline]
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// Whether `a` is a valid node index.
    #[inline]
    pub fn contains(&self, a: GhNode) -> bool {
        a.0 < self.num_nodes
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
    pub fn with_digit(&self, a: GhNode, i: u8, v: u16) -> GhNode {
        let m = self.radices[i as usize] as u64;
        assert!((v as u64) < m, "digit {v} out of range for radix {m}");
        let stride = self.strides[i as usize];
        let old = (a.0 / stride) % m;
        GhNode(a.0 - old * stride + v as u64 * stride)
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

    /// Number of differing coordinates — the GH distance.
    pub fn distance(&self, a: GhNode, b: GhNode) -> u32 {
        (0..self.dim())
            .filter(|&i| self.digit(a, i) != self.digit(b, i))
            .count() as u32
    }

    /// The `m_i − 1` neighbors of `a` along dimension `i` (the rest of
    /// its dimension-`i` clique).
    pub fn neighbors_along<'a>(&'a self, a: GhNode, i: u8) -> impl Iterator<Item = GhNode> + 'a {
        let cur = self.digit(a, i);
        (0..self.radix(i))
            .filter(move |&v| v != cur)
            .map(move |v| self.with_digit(a, i, v))
    }

    /// All neighbors of `a`: `Σ (m_i − 1)` nodes.
    pub fn neighbors<'a>(&'a self, a: GhNode) -> impl Iterator<Item = GhNode> + 'a {
        (0..self.dim()).flat_map(move |i| self.neighbors_along(a, i))
    }

    /// Node degree `Σ (m_i − 1)`.
    pub fn degree(&self) -> u32 {
        self.radices.iter().map(|&m| m as u32 - 1).sum()
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
        let ns: Vec<GhNode> = gh.neighbors(a).collect();
        assert_eq!(ns.len() as u32, gh.degree());
        for b in &ns {
            assert_eq!(gh.distance(a, *b), 1);
        }
        // Fig. 5 walk: 010's neighbors along dimension 1 are 000 and 020.
        let along1: Vec<String> = gh.neighbors_along(a, 1).map(|b| gh.format(b)).collect();
        assert_eq!(along1, vec!["000", "020"]);
        // Neighbor along dimension 0 is 011; along dimension 2 is 110.
        assert_eq!(
            gh.neighbors_along(a, 0)
                .map(|b| gh.format(b))
                .collect::<Vec<_>>(),
            vec!["011"]
        );
        assert_eq!(
            gh.neighbors_along(a, 2)
                .map(|b| gh.format(b))
                .collect::<Vec<_>>(),
            vec!["110"]
        );
    }

    #[test]
    fn fig5_pair_distance() {
        let gh = gh232();
        let s = gh.parse("010").unwrap();
        let d = gh.parse("101").unwrap();
        assert_eq!(gh.distance(s, d), 3, "differ in all three coordinates");
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
                assert_eq!(gh.distance(a, b), qa.distance(qb));
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
