//! Path representation and validation.
//!
//! Routing algorithms in this workspace return a [`Path`], over `Q_n`
//! or (with `N` = [`crate::GhNode`]) a generalized hypercube; the cube
//! checks here are the single source of truth for what "optimal"
//! (Hamming distance, paper §2.1) and "suboptimal" (Hamming distance
//! plus two, paper footnote 2) mean, and for verifying that a produced
//! path is actually traversable in a given faulty cube.

use crate::addr::NodeId;
use crate::faults::FaultConfig;
use crate::ports::Topology;
use std::fmt;

/// A walk through a topology: the visited node sequence, inclusive of
/// source and destination. A single node is a valid zero-length path.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path<N = NodeId> {
    nodes: Vec<N>,
}

impl<N: Copy> Path<N> {
    /// A path starting (and so far ending) at `src`.
    pub fn starting_at(src: N) -> Self {
        Path { nodes: vec![src] }
    }

    /// Extends the path by one hop of `topo` to `next`.
    ///
    /// # Panics
    /// Panics if `next` is not a neighbour of the current endpoint in
    /// `topo`.
    pub fn push_in<T: Topology<Node = N>>(&mut self, topo: T, next: N) {
        assert_eq!(topo.distance(self.end(), next), Some(1), "non-adjacent hop");
        self.nodes.push(next);
    }

    /// The source node.
    #[inline]
    pub fn start(&self) -> N {
        self.nodes[0]
    }

    /// The current endpoint.
    #[inline]
    pub fn end(&self) -> N {
        *self.nodes.last().expect("non-empty")
    }

    /// Number of hops (links traversed), i.e. `nodes − 1`.
    #[inline]
    pub fn len(&self) -> u32 {
        (self.nodes.len() - 1) as u32
    }

    /// Whether the path has zero hops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The visited node sequence.
    #[inline]
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }
}

impl Path {
    /// Builds a path from a node sequence.
    ///
    /// # Panics
    /// Panics on an empty sequence or any non-adjacent consecutive pair:
    /// those are construction bugs, not routing outcomes.
    pub fn from_nodes(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "a path has at least its source");
        for w in nodes.windows(2) {
            assert_eq!(
                w[0].distance(w[1]),
                1,
                "non-adjacent hop {} → {}",
                w[0],
                w[1]
            );
        }
        Path { nodes }
    }

    /// Extends the path by one hop to `next`.
    ///
    /// # Panics
    /// Panics if `next` is not adjacent to the current endpoint.
    pub fn push(&mut self, next: NodeId) {
        assert_eq!(self.end().distance(next), 1, "non-adjacent hop");
        self.nodes.push(next);
    }

    /// Whether this is an *optimal path* for its endpoints: length equal
    /// to the Hamming distance (paper §2.1).
    pub fn is_optimal(&self) -> bool {
        self.len() == self.start().distance(self.end())
    }

    /// Whether this is a *suboptimal path* in the paper's sense:
    /// length exactly Hamming distance plus two (footnote 2).
    pub fn is_suboptimal(&self) -> bool {
        self.len() == self.start().distance(self.end()) + 2
    }

    /// Hops above the Hamming distance of the endpoints.
    pub fn detour(&self) -> u32 {
        self.len() - self.start().distance(self.end())
    }

    /// Whether every node and link of the path is usable in `cfg`,
    /// except that the final node may be faulty when `allow_faulty_dest`
    /// is set (paper footnote 3: a message must still be *delivered to*
    /// a destination that is the far end of a faulty link or faulty).
    pub fn traversable(&self, cfg: &FaultConfig, allow_faulty_dest: bool) -> bool {
        let last = self.nodes.len() - 1;
        for (i, &a) in self.nodes.iter().enumerate() {
            if cfg.node_faulty(a) && !(allow_faulty_dest && i == last) {
                return false;
            }
        }
        for w in self.nodes.windows(2) {
            if cfg.link_faults().contains(w[0], w[1]) {
                return false;
            }
        }
        true
    }

    /// Renders the path with `n`-bit zero-padded addresses, the way the
    /// paper's figures write walks (e.g. `1110 → 1111 → 1101`).
    pub fn render(&self, n: u8) -> String {
        self.nodes
            .iter()
            .map(|a| a.to_binary(n))
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// Whether the path ever revisits a node.
    pub fn has_repeats(&self) -> bool {
        let mut seen = self.nodes.clone();
        seen.sort();
        seen.windows(2).any(|w| w[0] == w[1])
    }
}

impl<N: fmt::Debug> fmt::Debug for Path<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path")?;
        f.debug_list().entries(&self.nodes).finish()
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path[")?;
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Hypercube;
    use crate::faults::FaultSet;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn fig1_first_unicast_path_is_optimal() {
        // Paper §3.2: 1110 → 1111 → 1101 → 0101 → 0001 (H = 4).
        let p = Path::from_nodes(vec![n(0b1110), n(0b1111), n(0b1101), n(0b0101), n(0b0001)]);
        assert_eq!(p.len(), 4);
        assert!(p.is_optimal());
        assert!(!p.is_suboptimal());
        assert_eq!(p.detour(), 0);
        assert!(!p.has_repeats());
    }

    #[test]
    fn fig4_route_is_suboptimal() {
        // Paper §4.1: 1101 → 1111 → 1011 → 1010 → 1000, H = 2, length 4.
        let p = Path::from_nodes(vec![n(0b1101), n(0b1111), n(0b1011), n(0b1010), n(0b1000)]);
        assert!(p.is_suboptimal());
        assert_eq!(p.detour(), 2);
    }

    #[test]
    #[should_panic]
    fn rejects_teleport() {
        Path::from_nodes(vec![n(0b0000), n(0b0011)]);
    }

    #[test]
    fn push_extends() {
        let mut p = Path::starting_at(n(0));
        p.push(n(1));
        p.push(n(0b11));
        assert_eq!(p.len(), 2);
        assert_eq!(p.end(), n(0b11));
        assert!(p.is_optimal());
    }

    #[test]
    fn traversable_respects_faults() {
        let cube = Hypercube::new(4);
        let p = Path::from_nodes(vec![n(0b0000), n(0b0001), n(0b0011)]);
        let ok = FaultConfig::fault_free(cube);
        assert!(p.traversable(&ok, false));
        let mid_faulty =
            FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, &["0001"]));
        assert!(
            !p.traversable(&mid_faulty, true),
            "faulty intermediate is fatal"
        );
        let dest_faulty =
            FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, &["0011"]));
        assert!(
            p.traversable(&dest_faulty, true),
            "faulty destination allowed"
        );
        assert!(!p.traversable(&dest_faulty, false));
    }

    #[test]
    fn traversable_respects_link_faults() {
        let cube = Hypercube::new(4);
        let p = Path::from_nodes(vec![n(0b0000), n(0b0001)]);
        let mut cfg = FaultConfig::fault_free(cube);
        cfg.link_faults_mut().insert(n(0b0000), n(0b0001));
        assert!(!p.traversable(&cfg, true));
    }

    #[test]
    fn zero_length_path() {
        let p = Path::starting_at(n(5));
        assert!(p.is_empty());
        assert!(p.is_optimal());
        assert_eq!(p.start(), p.end());
    }

    #[test]
    fn repeats_detected() {
        let p = Path::from_nodes(vec![n(0), n(1), n(0)]);
        assert!(p.has_repeats());
    }

    #[test]
    fn display_renders_arrows() {
        let p = Path::from_nodes(vec![n(0b10), n(0b11)]);
        assert_eq!(format!("{p}"), "Path[10 → 11]");
    }
}
