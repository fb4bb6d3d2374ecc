//! Gray codes and subcube enumeration.
//!
//! Utility machinery for the workload generators: reflected Gray codes
//! give Hamiltonian orderings of `Q_n` (used by clustered fault
//! injection to pick *contiguous* fault regions), and subcube
//! enumeration supports subcube-shaped fault patterns.

use crate::addr::NodeId;
use crate::cube::Hypercube;
use crate::ports::Topology;

/// The `i`th codeword of the reflected binary Gray code: consecutive
/// indices map to adjacent hypercube nodes.
#[inline]
pub const fn gray(i: u64) -> NodeId {
    NodeId(i ^ (i >> 1))
}

/// Inverse of [`gray`]: the rank of a codeword in the Gray sequence.
pub const fn gray_rank(a: NodeId) -> u64 {
    let mut v = a.0;
    let mut shift = 1;
    while shift < 64 {
        v ^= v >> shift;
        shift <<= 1;
    }
    v
}

/// Iterator over a Hamiltonian cycle of `cube` in Gray order, starting
/// at node 0.
pub fn hamiltonian_cycle(cube: Hypercube) -> impl Iterator<Item = NodeId> {
    (0..cube.num_nodes()).map(gray)
}

/// A subcube of `Q_n`, written in the usual ternary-string style: each
/// dimension is fixed to 0, fixed to 1, or free (`*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Subcube {
    /// Bits fixed to one.
    pub fixed_ones: u64,
    /// Mask of free (don't-care) dimensions.
    pub free_mask: u64,
}

impl Subcube {
    /// Subcube from a ternary string over `{'0','1','*'}`, MSB first.
    ///
    /// # Panics
    /// Panics on other characters — subcube specs are static data.
    pub fn parse(s: &str) -> Subcube {
        let mut fixed_ones = 0u64;
        let mut free_mask = 0u64;
        for c in s.chars() {
            fixed_ones <<= 1;
            free_mask <<= 1;
            match c {
                '0' => {}
                '1' => fixed_ones |= 1,
                '*' => free_mask |= 1,
                _ => panic!("bad subcube char {c:?}"),
            }
        }
        Subcube {
            fixed_ones,
            free_mask,
        }
    }

    /// Number of free dimensions (the subcube's own dimension).
    pub fn dim(self) -> u32 {
        self.free_mask.count_ones()
    }

    /// Number of member nodes, `2^dim`.
    pub fn len(self) -> u64 {
        1 << self.dim()
    }

    /// Whether the subcube has dimension 0 (a single node). Subcubes are
    /// never empty, so this mirrors `len() == 1`.
    pub fn is_empty(self) -> bool {
        false
    }

    /// Whether `a` lies inside this subcube.
    pub fn contains(self, a: NodeId) -> bool {
        a.raw() & !self.free_mask == self.fixed_ones
    }

    /// Iterator over the member nodes, in Gray order within the free
    /// dimensions (so consecutive members are cube-adjacent).
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        let free_dims: Vec<u8> = crate::addr::BitDims(self.free_mask).collect();
        let base = self.fixed_ones;
        (0..(1u64 << free_dims.len())).map(move |i| {
            let g = gray(i).raw();
            let mut v = base;
            for (k, &dim) in free_dims.iter().enumerate() {
                if (g >> k) & 1 == 1 {
                    v |= 1 << dim;
                }
            }
            NodeId::new(v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_adjacency() {
        let cube = Hypercube::new(6);
        let cyc: Vec<NodeId> = hamiltonian_cycle(cube).collect();
        assert_eq!(cyc.len(), 64);
        for w in cyc.windows(2) {
            assert_eq!(w[0].distance(w[1]), 1);
        }
        // It is a cycle: last and first are adjacent too.
        assert_eq!(cyc[0].distance(cyc[63]), 1);
        // It is Hamiltonian: all nodes distinct.
        let mut sorted = cyc.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
    }

    #[test]
    fn gray_rank_inverts_gray() {
        for i in 0..1024u64 {
            assert_eq!(gray_rank(gray(i)), i);
        }
    }

    #[test]
    fn subcube_parse_and_membership() {
        let sc = Subcube::parse("1*0*");
        assert_eq!(sc.dim(), 2);
        assert_eq!(sc.len(), 4);
        let members: Vec<u64> = sc.nodes().map(NodeId::raw).collect();
        assert_eq!(members.len(), 4);
        for &m in &members {
            assert!(sc.contains(NodeId::new(m)));
            assert_eq!(m & 0b1000, 0b1000);
            assert_eq!(m & 0b0010, 0);
        }
        assert!(!sc.contains(NodeId::new(0b0000)));
    }

    #[test]
    fn subcube_nodes_gray_adjacent() {
        let sc = Subcube::parse("*1**0");
        let nodes: Vec<NodeId> = sc.nodes().collect();
        assert_eq!(nodes.len(), 8);
        for w in nodes.windows(2) {
            assert_eq!(w[0].distance(w[1]), 1);
        }
    }

    #[test]
    fn point_subcube() {
        let sc = Subcube::parse("101");
        assert_eq!(sc.dim(), 0);
        assert_eq!(sc.nodes().collect::<Vec<_>>(), vec![NodeId::new(0b101)]);
        assert!(!sc.is_empty());
    }
}
