//! k-disjoint multi-path unicast.
//!
//! The paper routes each unicast on a single safety-level-guided path;
//! its Theorem 2 machinery already leans on the classic fan of `n`
//! node-disjoint Hamming paths ([`hypersafe_topology::disjoint`]).
//! This module turns that fan into a *routing* primitive: a message is
//! replicated across up to `k ≤ n` pairwise node-disjoint, fault-free
//! paths, so a single further fault (or a congested link) can kill at
//! most one copy.
//!
//! ## Path selection
//!
//! 1. **Fan phase** — the `h = H(s, d)` optimal rotations and the
//!    `n − h` spare-dimension detours of the classic fan are tried in
//!    a safety-guided order: optimal rotations sorted by the safety
//!    level of their first-hop neighbor (descending), then detours by
//!    a caller-supplied spare cost (ascending — the congestion
//!    workloads pass per-link queue depths here, so the least-loaded
//!    healthy spare wins) with safety level as the tie-break. Each
//!    candidate is accepted iff every interior node is nonfaulty and
//!    every link usable; fan members are pairwise internally disjoint
//!    by construction, so acceptance never needs a cross-check.
//! 2. **Reroute phase** — when faults cut fan candidates and fewer
//!    than `k` survive, the survivors are converted into a unit flow
//!    on the node-split residual graph of the live faulty cube and
//!    augmented until either `k` paths exist or no augmenting path
//!    remains. Unit vertex capacities make the result *maximum*: the
//!    delivered count equals `min(k, F(s, d))` where `F` is the max
//!    number of pairwise internally-disjoint fault-free `s → d` paths
//!    (the max-flow / Menger bound) — property-tested against an
//!    independent oracle in `tests/multipath_props.rs`. The usable
//!    degrees of `s` and of `d` are cuts, so augmentation stops once
//!    the flow reaches either; when the surviving fan already fills
//!    one, no residual graph is built and the survivors are returned
//!    in the order the flow decomposition would list them (ascending
//!    first dimension).
//!
//!    Each augmenting path comes from a level-synchronous BFS over
//!    per-dimension bit-planes of the residual graph (64 nodes per
//!    word, neighbours moved with the `level_store` shuffle), run from
//!    both ends: forward from `s_out`, backward from `d_in` over the
//!    reversed edges, always extending the side with the smaller last
//!    level, until a new level overlaps what the other side reached.
//!    Levels alternate between out- and in-states; faulty states,
//!    `s_in` and `d_out` are never entered. If the forward search
//!    stopped at depth `m` and the backward one at depth `b`, the
//!    shortest augmenting paths have length `L = m + b`, and their
//!    layer `j` is forward level `j` ∩ backward level `L − j`.
//!
//!    A FIFO BFS that visits edges in a fixed order lists every level
//!    in the lexicographic order of its tree paths, so the path it
//!    finds is the lexicographically first shortest path. A forward
//!    walk from `s_out` through the layers recovers exactly that path
//!    by taking the first edge into the next layer in the FIFO visiting
//!    order (ascending dimension, internal edge last at an out-state
//!    and first at an in-state). Up to layer `m`, the layers come from
//!    a prune backward from the meeting states through the forward
//!    levels, so only shortest-path states are expanded twice; past
//!    it, the next layer is simply what the backward search reached in
//!    the right number of steps. Clearing a deeper level's marks first
//!    leaves only that level marked. The paths, and so every outcome,
//!    equal those of a scalar one-state-at-a-time FIFO BFS, which the
//!    unit tests keep as a differential reference. Each thread keeps
//!    one residual graph for reuse and zeroes only the words a call
//!    set.
//!
//! On the fault-free cube the fan phase alone returns exactly `n`
//! disjoint delivered paths for distinct endpoints (`h` optimal +
//! `n − h` detours of length `h + 2`); whenever the single-path router
//! ([`crate::route`]) delivers to a healthy destination, a fault-free
//! walk exists, so the flow bound is ≥ 1 and multi-path delivers on at
//! least one path.
//!
//! Interior nodes must be healthy and links usable. Unlike
//! [`crate::route`], which delivers to a faulty destination's doorstep
//! (footnote 3), multi-path delivery needs a *healthy* destination: a
//! path's last link must be usable, so a faulty `d` gets no path (its
//! usable in-degree is 0, which stops the reroute phase at once). A
//! faulty *source* cannot transmit and yields an empty result, as does
//! an endpoint outside the cube.

use crate::level_store::delta_swap;
use crate::safety::SafetyMap;
use hypersafe_topology::{e, FaultConfig, NodeId, Path, Topology, MAX_DIM};
use std::cell::Cell;
use std::ops::Range;

/// Length class of one delivered path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathKind {
    /// Hamming length `H` (an optimal fan rotation, or a reroute that
    /// happened to land on one).
    Optimal,
    /// Length `H + 2` (a spare-dimension detour).
    Detour,
    /// Longer than `H + 2`: only the reroute phase produces these,
    /// snaking around dense fault regions.
    Reroute,
}

/// One delivered path of a multi-path unicast.
#[derive(Clone, Debug)]
pub struct DisjointPath {
    /// The fault-free realized path.
    pub path: Path,
    /// Its length class.
    pub kind: PathKind,
}

/// Outcome of [`route_disjoint`]: the delivered paths are pairwise
/// internally disjoint and individually fault-free.
#[derive(Clone, Debug)]
pub struct MultipathResult {
    /// Delivered paths, shortest first (ties: fan acceptance order).
    pub paths: Vec<DisjointPath>,
    /// Paths requested (`k`, clamped to `n`).
    pub requested: u8,
    /// Paths accepted straight from the fan before any reroute.
    pub fan_accepted: u8,
    /// Whether the reroute (augmentation) phase ran.
    pub rerouted: bool,
}

impl MultipathResult {
    /// Number of delivered paths.
    pub fn delivered(&self) -> usize {
        self.paths.len()
    }

    /// Total hops across all delivered copies (message overhead).
    pub fn total_hops(&self) -> u32 {
        self.paths.iter().map(|p| p.path.len()).sum()
    }

    /// Hops of the shortest delivered copy (first-copy latency), or
    /// `None` when nothing was delivered.
    pub fn best_hops(&self) -> Option<u32> {
        self.paths.iter().map(|p| p.path.len()).min()
    }

    fn empty(requested: u8) -> Self {
        MultipathResult {
            paths: Vec::new(),
            requested,
            fan_accepted: 0,
            rerouted: false,
        }
    }
}

/// Compact per-pair outcome of [`route_disjoint_many`] — everything
/// the E29 experiment aggregates, with no path allocation retained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiOutcome {
    /// Delivered path count.
    pub delivered: u8,
    /// Delivered paths of Hamming length.
    pub optimal: u8,
    /// Delivered paths of length `H + 2`.
    pub detour: u8,
    /// Delivered paths longer than `H + 2`.
    pub reroute: u8,
    /// Total hops across all delivered copies.
    pub total_hops: u32,
    /// Hops of the shortest delivered copy (0 when none delivered).
    pub best_hops: u32,
}

/// `H` interior nodes + endpoints is the longest fan candidate; the
/// reroute phase can exceed it, so paths are built from raw node vecs.
fn fan_path_ok(cfg: &FaultConfig, nodes: &[NodeId]) -> bool {
    let last = nodes.len() - 1;
    for &v in &nodes[1..last] {
        if cfg.node_faulty(v) {
            return false;
        }
    }
    for w in nodes.windows(2) {
        if !cfg.link_usable(w[0], w[1]) {
            return false;
        }
    }
    true
}

/// The fan candidate that crosses the preferred dimensions in cyclic
/// order starting at `dims[start]`.
fn optimal_candidate(s: NodeId, dims: &[u8], start: usize) -> Vec<NodeId> {
    let h = dims.len();
    let mut nodes = Vec::with_capacity(h + 1);
    let mut cur = s;
    nodes.push(cur);
    for k in 0..h {
        cur = cur.neighbor(dims[(start + k) % h]);
        nodes.push(cur);
    }
    nodes
}

/// The fan candidate that detours through spare dimension `j`.
fn detour_candidate(s: NodeId, d: NodeId, dims: &[u8], j: u8) -> Vec<NodeId> {
    let mut nodes = Vec::with_capacity(dims.len() + 3);
    let mut cur = s.neighbor(j);
    nodes.push(s);
    nodes.push(cur);
    for &p in dims {
        cur = cur.neighbor(p);
        nodes.push(cur);
    }
    debug_assert_eq!(cur, d.xor(e(j)));
    nodes.push(d);
    nodes
}

fn kind_of(len: u32, h: u32) -> PathKind {
    if len == h {
        PathKind::Optimal
    } else if len == h + 2 {
        PathKind::Detour
    } else {
        PathKind::Reroute
    }
}

/// Routes `s → d` across up to `k` pairwise node-disjoint fault-free
/// paths, safety-guided, with spare-dimension detours ordered by
/// safety level alone. See the module docs for the selection rule and
/// the `min(k, F(s, d))` delivery guarantee.
///
/// # Examples
///
/// ```
/// use hypersafe_topology::{Hypercube, FaultConfig, NodeId, disjoint};
/// use hypersafe_core::{route_disjoint, SafetyMap};
///
/// let cube = Hypercube::new(4);
/// let cfg = FaultConfig::fault_free(cube);
/// let map = SafetyMap::compute(&cfg);
/// let res = route_disjoint(&cfg, &map,
///     NodeId::from_binary("0000").unwrap(),
///     NodeId::from_binary("0011").unwrap(), 4);
/// // Fault-free: the full fan — H optimal paths + (n − H) detours.
/// assert_eq!(res.delivered(), 4);
/// let paths: Vec<_> = res.paths.iter().map(|p| p.path.clone()).collect();
/// assert!(disjoint::pairwise_internally_disjoint(&paths));
/// ```
pub fn route_disjoint(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    k: u8,
) -> MultipathResult {
    route_disjoint_ranked(cfg, map, s, d, k, &|_, _| 0)
}

/// [`route_disjoint`] with a caller-supplied cost on spare first-hop
/// links: `spare_cost(s, j)` ranks the detour through spare dimension
/// `j` (lower is better; safety level breaks ties). The hotspot
/// workload passes live per-link queue depths here so the least-loaded
/// healthy spare is preferred.
pub fn route_disjoint_ranked(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    k: u8,
    spare_cost: &dyn Fn(NodeId, u8) -> u64,
) -> MultipathResult {
    let cube = cfg.cube();
    let k = k.min(cube.dim());
    let outside = |v: NodeId| v.raw() >= cube.num_nodes();
    if s == d || k == 0 || outside(s) || outside(d) || cfg.node_faulty(s) {
        return MultipathResult::empty(k);
    }

    let dims: Vec<u8> = cube.preferred(s, d).collect();
    let h = dims.len();

    // Safety-guided candidate order: optimal rotations first (by
    // first-hop level, descending), then spare detours (by cost, then
    // level). All keys are deterministic, so so is the whole route.
    let mut rot_order: Vec<usize> = (0..h).collect();
    rot_order.sort_by_key(|&i| (std::cmp::Reverse(map.level(s.neighbor(dims[i]))), dims[i]));
    let mut spare_order: Vec<u8> = cube.spare(s, d).collect();
    spare_order.sort_by_key(|&j| {
        (
            spare_cost(s, j),
            std::cmp::Reverse(map.level(s.neighbor(j))),
            j,
        )
    });

    let mut accepted: Vec<Vec<NodeId>> = Vec::with_capacity(k as usize);
    let mut candidates_cut = false;
    for &i in &rot_order {
        if accepted.len() == k as usize {
            break;
        }
        let cand = optimal_candidate(s, &dims, i);
        if fan_path_ok(cfg, &cand) {
            accepted.push(cand);
        } else {
            candidates_cut = true;
        }
    }
    for &j in &spare_order {
        if accepted.len() == k as usize {
            break;
        }
        let cand = detour_candidate(s, d, &dims, j);
        if fan_path_ok(cfg, &cand) {
            accepted.push(cand);
        } else {
            candidates_cut = true;
        }
    }

    let fan_accepted = accepted.len() as u8;
    let mut rerouted = false;
    if (accepted.len() as u8) < k && candidates_cut {
        // Live reroute: grow the surviving fan flow to the maximum
        // set of disjoint fault-free paths through the faulty cube.
        accepted = augment_to_max(cfg, s, d, accepted, k);
        rerouted = true;
    }

    let mut paths: Vec<DisjointPath> = accepted
        .into_iter()
        .map(|nodes| {
            let path = Path::from_nodes(nodes);
            let kind = kind_of(path.len(), h as u32);
            DisjointPath { path, kind }
        })
        .collect();
    paths.sort_by_key(|p| p.path.len());
    MultipathResult {
        paths,
        requested: k,
        fan_accepted,
        rerouted,
    }
}

/// Node-split max-flow augmentation from an initial set of disjoint
/// fault-free paths to a maximum one (capped at `k`).
///
/// Each node `v` splits into an *in* and an *out* state; interior
/// vertex capacity is 1, links are unit in each direction, and `s`/`d`
/// are uncapacitated. Every augmenting path is the one a FIFO BFS with
/// ascending-dimension edge order would find (see [`Residual`]), and
/// the flow decomposes into paths by ascending first dimension.
fn augment_to_max(
    cfg: &FaultConfig,
    s: NodeId,
    d: NodeId,
    mut initial: Vec<Vec<NodeId>>,
    k: u8,
) -> Vec<Vec<NodeId>> {
    let (sr, dr) = (s.raw() as usize, d.raw() as usize);
    // `s_out` and `d_in` are cuts: once the flow fills every usable
    // link out of `s` or into `d`, no augmenting path exists.
    let cap = usize::from(k).min(degree(cfg, s)).min(degree(cfg, d));
    if initial.len() >= cap {
        // Already maximum: these are the paths the flow decomposes
        // into, and this is the order it lists them in.
        initial.sort_by_key(|p| dim(sr, p[1].raw() as usize));
        return initial;
    }
    let n = cfg.cube().dim();
    let mut r = SCRATCH
        .take()
        .filter(|r| r.g.n == n)
        .unwrap_or_else(|| Residual::new(n));
    debug_assert!(r.is_clear(), "a previous call left state behind");
    r.g.load(cfg, &initial);
    let faulty = cfg.node_faults().words();
    let mut flows = initial.len();
    while flows < cap && r.search(faulty, sr, dr) {
        r.augment(sr);
        flows += 1;
    }
    let paths = r.g.decompose(s, d);
    debug_assert_eq!(paths.len(), flows);
    r.g.reset();
    SCRATCH.set(Some(r));
    paths
}

thread_local! {
    /// One residual per thread, kept between calls on cubes of the same
    /// dimension. Each call leaves it as it found it: all flow, block,
    /// use and visit bits zero. A call that panics takes it along, and
    /// the next call builds a fresh one.
    static SCRATCH: Cell<Option<Residual>> = const { Cell::new(None) };
}

/// Usable links at `v`: both endpoints healthy and the link not faulty
/// (so 0 at a faulty node).
fn degree(cfg: &FaultConfig, v: NodeId) -> usize {
    (0..cfg.cube().dim())
        .filter(|&i| cfg.link_usable(v, v.neighbor(i)))
        .count()
}

/// Word index that plane word `w`'s dimension-`i` neighbours live in.
#[inline]
fn nbr_word(w: usize, i: u8) -> usize {
    if i < 6 {
        w
    } else {
        w ^ (1 << (i - 6))
    }
}

/// Moves the lanes of a word read at [`nbr_word`]`(w, i)` across
/// dimension `i`, so lane `j` lands on lane `j ^ 2^i`: the push form of
/// [`gather_neighbor_word`](crate::level_store::gather_neighbor_word).
#[inline]
fn cross(x: u64, i: u8) -> u64 {
    if i < 6 {
        delta_swap(x, i)
    } else {
        x
    }
}

#[inline]
fn bit(plane: &[u64], v: usize) -> bool {
    (plane[v / 64] >> (v % 64)) & 1 == 1
}

/// The dimension adjacent nodes `a` and `b` differ in.
#[inline]
fn dim(a: usize, b: usize) -> u8 {
    (a ^ b).trailing_zeros() as u8
}

#[inline]
fn put(word: &mut u64, v: usize, on: bool) {
    if on {
        *word |= 1 << (v % 64);
    } else {
        *word &= !(1 << (v % 64));
    }
}

/// Clears `bits` and calls `f` with the index of each bit that was set,
/// ascending.
fn drain_bits(bits: &mut [u64], mut f: impl FnMut(usize)) {
    for (i, word) in bits.iter_mut().enumerate() {
        let mut m = std::mem::take(word);
        while m != 0 {
            f(i * 64 + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// `n` bit-planes over the cube's nodes, stored word-interleaved: the
/// `n` dimension words covering node word `w` sit together at
/// `bits[w * n..][..n]`, so one frontier word reads one short row.
struct Planes {
    n: usize,
    bits: Vec<u64>,
}

impl Planes {
    fn new(n: u8, words: usize) -> Self {
        Planes {
            n: n as usize,
            bits: vec![0; n as usize * words],
        }
    }

    #[inline]
    fn row(&self, w: usize) -> &[u64] {
        &self.bits[w * self.n..][..self.n]
    }

    /// Word `w` of plane `i`.
    #[inline]
    fn word(&self, i: u8, w: usize) -> u64 {
        self.bits[w * self.n + i as usize]
    }

    #[inline]
    fn get(&self, i: u8, v: usize) -> bool {
        (self.word(i, v / 64) >> (v % 64)) & 1 == 1
    }

    fn put(&mut self, i: u8, v: usize, on: bool) {
        put(&mut self.bits[v / 64 * self.n + i as usize], v, on);
    }

    fn clear_row(&mut self, w: usize) {
        self.bits[w * self.n..][..self.n].fill(0);
    }
}

/// The two sides of a split node, as indices into per-side planes.
const IN: usize = 0;
const OUT: usize = 1;

/// The side of level `j` of a search: the forward search starts at
/// `s_out`, the backward one at `d_in`, and every edge changes side.
#[inline]
fn side(forward: bool, j: usize) -> usize {
    if j.is_multiple_of(2) == forward {
        OUT
    } else {
        IN
    }
}

/// One state of the node-split residual graph: node and side.
#[derive(Clone, Copy)]
struct State {
    v: usize,
    out: bool,
}

/// The residual graph of a unit-vertex-capacity flow on the faulty
/// cube, in bit-planes of 64 nodes per word.
struct Graph {
    n: u8,
    /// Bit `v` of plane `i` when one unit of flow runs on `v → v ⊕ eᵢ`.
    flow: Planes,
    /// Bit `v` of plane `i` when the link `v – v ⊕ eᵢ` has no forward
    /// residual capacity (faulty, or flow on it either way); symmetric,
    /// so both endpoints carry the bit.
    blocked: Planes,
    /// Interior vertices on a path.
    used: Vec<u64>,
    /// One bit per node word that a flow, block or use has touched
    /// since the last [`Graph::reset`].
    dirty: Vec<u64>,
}

impl Graph {
    fn new(n: u8, words: usize) -> Self {
        Graph {
            n,
            flow: Planes::new(n, words),
            blocked: Planes::new(n, words),
            used: vec![0; words],
            dirty: vec![0; words.div_ceil(64)],
        }
    }

    /// Blocks the faulty links and lays the flow of `paths` on the
    /// empty graph.
    fn load(&mut self, cfg: &FaultConfig, paths: &[Vec<NodeId>]) {
        // A link set may name links beyond this cube; no path uses them.
        let nodes = cfg.cube().num_nodes();
        let inside = |&(_, hi): &(NodeId, NodeId)| hi.raw() < nodes;
        for (lo, hi) in cfg.link_faults().iter().filter(inside) {
            self.block(lo.raw() as usize, hi.raw() as usize, true);
        }
        for path in paths {
            for w in path.windows(2) {
                let (a, b) = (w[0].raw() as usize, w[1].raw() as usize);
                self.flow.put(dim(a, b), a, true);
                self.block(a, b, true);
            }
            for &v in &path[1..path.len() - 1] {
                self.set_used(v.raw() as usize, true);
            }
        }
    }

    /// Marks the link `a – b` blocked (or open again) at both ends.
    fn block(&mut self, a: usize, b: usize, on: bool) {
        self.blocked.put(dim(a, b), a, on);
        self.blocked.put(dim(a, b), b, on);
        self.touch(a);
        self.touch(b);
    }

    fn set_used(&mut self, v: usize, on: bool) {
        put(&mut self.used[v / 64], v, on);
        self.touch(v);
    }

    fn touch(&mut self, v: usize) {
        let w = v / 64;
        self.dirty[w / 64] |= 1 << (w % 64);
    }

    /// Zeroes the words touched since the last reset, which leaves the
    /// graph of the fault-free cube with no flow.
    fn reset(&mut self) {
        let (flow, blocked, used) = (&mut self.flow, &mut self.blocked, &mut self.used);
        drain_bits(&mut self.dirty, |w| {
            flow.clear_row(w);
            blocked.clear_row(w);
            used[w] = 0;
        });
    }

    /// Pushes into `fr` the states one residual edge away from each
    /// level entry `(w, c)`, states `c` of word `w` on side `side`:
    /// their successors if `forward`, else their predecessors.
    fn expand(&self, fr: &mut Frontier, level: &[(usize, u64)], side: usize, forward: bool) {
        for &(w, c) in level {
            let used = c & self.used[w];
            if (side == OUT) == forward {
                // The link edges v_out → x_in (the in-word dimensions
                // gathered into one word), then the residual internal
                // edge v_out → v_in of a used vertex. Blocking is
                // symmetric, so backwards the same words give an
                // in-state's predecessors.
                let row = self.blocked.row(w);
                let near = row.len().min(6);
                let mut here = used;
                for (i, &b) in row[..near].iter().enumerate() {
                    here |= delta_swap(c & !b, i as u8);
                }
                fr.push(w, here);
                for (i, &b) in row[near..].iter().enumerate() {
                    fr.push(w ^ (1 << i), c & !b);
                }
            } else if forward {
                // The internal edge v_in → v_out of an unused vertex; a
                // used one instead cancels the flow x → v that enters
                // it, v_in → x_out.
                fr.push(w, c & !used);
                if used != 0 {
                    for i in 0..self.n {
                        let t = nbr_word(w, i);
                        fr.push(t, cross(used, i) & self.flow.word(i, t));
                    }
                }
            } else {
                // Into v_out: v_in of an unused vertex, and x_in of the
                // used vertex its flow v → x enters.
                fr.push(w, c & !used);
                for (i, &f) in self.flow.row(w).iter().enumerate() {
                    let i = i as u8;
                    if c & f != 0 {
                        let t = nbr_word(w, i);
                        fr.push(t, cross(c & f, i) & self.used[t]);
                    }
                }
            }
        }
    }

    /// The dimension of `v`'s outgoing flow edge.
    fn out_dim(&self, v: usize) -> u8 {
        let row = self.flow.row(v / 64);
        debug_assert_eq!(
            row.iter().filter(|&&f| (f >> (v % 64)) & 1 == 1).count(),
            1,
            "interior vertex capacity violated"
        );
        row.iter()
            .position(|&f| (f >> (v % 64)) & 1 == 1)
            .expect("flow conservation") as u8
    }

    /// Decomposes the flow into paths: from `s`, follow each outgoing
    /// flow edge (ascending dimension for determinism); every interior
    /// vertex carries exactly one outgoing unit.
    fn decompose(&self, s: NodeId, d: NodeId) -> Vec<Vec<NodeId>> {
        let (sr, dr) = (s.raw() as usize, d.raw() as usize);
        let mut nodes = Vec::new();
        (0..self.n)
            .filter(|&i| self.flow.get(i, sr))
            .map(|i| {
                nodes.clear();
                nodes.push(s);
                let mut v = sr ^ (1 << i);
                while v != dr {
                    nodes.push(NodeId::new(v as u64));
                    debug_assert!(nodes.len() <= self.used.len() * 64, "flow cycle");
                    v ^= 1 << self.out_dim(v);
                }
                nodes.push(d);
                nodes.clone()
            })
            .collect()
    }
}

/// The next level's accumulator: all zero between uses, with one bit
/// per word of `acc` marking the words a level touched.
struct Frontier {
    acc: Vec<u64>,
    touched: Vec<u64>,
}

impl Frontier {
    /// ORs `x` into word `w` of the next level.
    #[inline]
    fn push(&mut self, w: usize, x: u64) {
        self.acc[w] |= x;
        self.touched[w / 64] |= 1 << (w % 64);
    }

    /// Calls `f` with each touched word and its bits, ascending, and
    /// zeroes them again.
    fn drain(&mut self, mut f: impl FnMut(usize, u64)) {
        let acc = &mut self.acc;
        drain_bits(&mut self.touched, |w| f(w, std::mem::take(&mut acc[w])));
    }
}

/// BFS levels as `(word, bits)` entries: level `j` is
/// `entries[starts[j]..starts[j + 1]]`, the last one running to the end.
#[derive(Default)]
struct Levels {
    entries: Vec<(usize, u64)>,
    starts: Vec<usize>,
}

impl Levels {
    /// Starts over with the one state `bits` of word `w` as level 0.
    fn reset(&mut self, w: usize, bits: u64) {
        self.entries.clear();
        self.entries.push((w, bits));
        self.starts.clear();
        self.starts.push(0);
    }

    /// Opens the next level; entries pushed from now on belong to it.
    fn open(&mut self) {
        self.starts.push(self.entries.len());
    }

    /// Index of the last level.
    fn depth(&self) -> usize {
        self.starts.len() - 1
    }

    fn level(&self, j: usize) -> &[(usize, u64)] {
        let end = self
            .starts
            .get(j + 1)
            .copied()
            .unwrap_or(self.entries.len());
        &self.entries[self.starts[j]..end]
    }

    fn top(&self) -> &[(usize, u64)] {
        self.level(self.depth())
    }
}

/// Indices of the two searches' visit planes in [`Residual::seen`].
const FWD: usize = 0;
const BWD: usize = 1;

/// The residual graph and the search that finds its augmenting paths
/// (the module docs give why the path is the scalar FIFO BFS's):
/// [`Residual::search`] grows levels from `s_out` and, over reversed
/// edges, from `d_in` until they meet, and [`Residual::augment`] walks
/// the first edges that stay on a shortest path.
struct Residual {
    g: Graph,
    fr: Frontier,
    /// Levels of the forward search (even levels hold out-states) and
    /// of the backward one (even levels hold in-states).
    fwd: Levels,
    bwd: Levels,
    /// `seen[FWD]` and `seen[BWD]`: per side, the states each search
    /// has reached. Both are all zero between searches.
    seen: [[Vec<u64>; 2]; 2],
    /// The shortest-path layers up to the meeting layer: layer `j`
    /// holds the states `j` steps from `s_out` on a shortest path to
    /// `d_in`, at `kept[layers[j]]`. A search leaves in `kept` where
    /// the two searches met.
    kept: Vec<(usize, u64)>,
    layers: Vec<Range<usize>>,
}

impl Residual {
    fn new(n: u8) -> Self {
        let words = (1usize << n).div_ceil(64);
        let plane = || vec![0; words];
        Residual {
            g: Graph::new(n, words),
            fr: Frontier {
                acc: plane(),
                touched: vec![0; words.div_ceil(64)],
            },
            fwd: Levels::default(),
            bwd: Levels::default(),
            seen: [[plane(), plane()], [plane(), plane()]],
            kept: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Whether every flow, block, use, visit and accumulator bit is
    /// zero, as between calls.
    fn is_clear(&self) -> bool {
        let g = &self.g;
        let planes = [&g.flow.bits, &g.blocked.bits, &g.used, &g.dirty];
        let scratch = [&self.fr.acc, &self.fr.touched];
        planes
            .into_iter()
            .chain(scratch)
            .chain(self.seen.iter().flatten())
            .all(|p| p.iter().all(|&x| x == 0))
    }

    /// Bidirectional level-synchronous BFS: one search from `s_out`,
    /// one from `d_in` over the reversed edges, and each step extends
    /// whichever has the shorter last level. No edge enters a faulty
    /// state, `s_in` or `d_out`. A new level is checked against
    /// everything the other search reached: the first nonempty
    /// overlap is where they meet (in `kept`), and then the two last
    /// levels' depths add up to the length of a shortest augmenting
    /// path. Returns `false`, with every visit mark cleared, when
    /// either search runs dry first.
    fn search(&mut self, faulty: &[u64], s: usize, d: usize) -> bool {
        let (sw, sbit, dw, dbit) = (s / 64, 1 << (s % 64), d / 64, 1 << (d % 64));
        self.fwd.reset(sw, sbit);
        self.bwd.reset(dw, dbit);
        self.seen[FWD][OUT][sw] |= sbit;
        self.seen[BWD][IN][dw] |= dbit;
        // Per side, the one healthy state no edge enters.
        let never = [(sw, sbit), (dw, dbit)];
        self.kept.clear();
        while self.kept.is_empty() {
            let (f, b) = (self.fwd.top().len(), self.bwd.top().len());
            if f == 0 || b == 0 {
                for (dir, levels) in [(FWD, &self.fwd), (BWD, &self.bwd)] {
                    for j in 0..=levels.depth() {
                        forget(&mut self.seen[dir], levels, dir == FWD, j);
                    }
                }
                return false;
            }
            let forward = f <= b;
            let [seen_fwd, seen_bwd] = &mut self.seen;
            let (levels, mine, theirs) = if forward {
                (&mut self.fwd, seen_fwd, &*seen_bwd)
            } else {
                (&mut self.bwd, seen_bwd, &*seen_fwd)
            };
            let j = levels.depth();
            self.g
                .expand(&mut self.fr, levels.top(), side(forward, j), forward);
            let side = side(forward, j + 1);
            let (mine, theirs, (nw, nbit)) = (&mut mine[side], &theirs[side], never[side]);
            levels.open();
            let kept = &mut self.kept;
            self.fr.drain(|w, x| {
                let mut fresh = x & !mine[w] & !faulty[w];
                if w == nw {
                    fresh &= !nbit;
                }
                if fresh != 0 {
                    mine[w] |= fresh;
                    levels.entries.push((w, fresh));
                    if fresh & theirs[w] != 0 {
                        kept.push((w, fresh & theirs[w]));
                    }
                }
            });
        }
        true
    }

    /// Builds the layers up to the meeting layer `m`, and clears the
    /// forward search's marks. With the backward search at depth `b`,
    /// a shortest path has length `L = m + b`, and its layer `j` is
    /// forward level `j` ∩ backward level `L − j`. Layer `m` is where
    /// the searches met; each earlier layer `j` is the predecessors of
    /// layer `j + 1` that the forward search reached. No predecessor is
    /// fewer than `j` steps from `s_out`, so once the deeper levels'
    /// marks are cleared, the marks left select forward level `j`.
    fn prune(&mut self) {
        let m = self.fwd.depth();
        self.layers.clear();
        self.layers.resize(m + 1, 0..0);
        self.layers[m] = 0..self.kept.len();
        for j in (0..m).rev() {
            forget(&mut self.seen[FWD], &self.fwd, true, j + 1);
            let next = self.layers[j + 1].clone();
            self.g
                .expand(&mut self.fr, &self.kept[next], side(true, j + 1), false);
            let start = self.kept.len();
            let (kept, seen) = (&mut self.kept, &self.seen[FWD][side(true, j)]);
            self.fr.drain(|w, x| {
                if x & seen[w] != 0 {
                    kept.push((w, x & seen[w]));
                }
            });
            self.layers[j] = start..self.kept.len();
        }
        forget(&mut self.seen[FWD], &self.fwd, true, 0);
    }

    /// Writes layer `j` into `acc` (`on`), or zeroes its words again.
    fn scatter(&mut self, j: usize, on: bool) {
        for &(w, c) in &self.kept[self.layers[j].clone()] {
            self.fr.acc[w] = if on { c } else { 0 };
        }
    }

    /// The successor of `st` in the next layer `t`, in the order a FIFO
    /// BFS visits edges: at an out-state the forward links by
    /// ascending dimension, then the internal edge; at an in-state the
    /// internal edge, then the cancel edges by ascending dimension
    /// (flow conservation leaves an in-state only one of them).
    fn step(&self, st: State, t: &[u64]) -> State {
        let (g, v) = (&self.g, st.v);
        if st.out {
            let i = (0..g.n).find(|&i| !g.blocked.get(i, v) && bit(t, v ^ (1 << i)));
            debug_assert!(i.is_some() || (bit(&g.used, v) && bit(t, v)));
            State {
                v: i.map_or(v, |i| v ^ (1 << i)),
                out: false,
            }
        } else if !bit(&g.used, v) && bit(t, v) {
            State { v, out: true }
        } else {
            let i = (0..g.n)
                .find(|&i| g.flow.get(i, v ^ (1 << i)) && bit(t, v ^ (1 << i)))
                .expect("a layer state has a successor in the next layer");
            State {
                v: v ^ (1 << i),
                out: true,
            }
        }
    }

    /// Walks the lexicographically first shortest augmenting path from
    /// `s_out` and applies it to the flow; clears every visit mark. Up
    /// to the meeting layer, [`Residual::prune`] gives the next layer.
    /// Past it, layer `j + 1` is what the backward search reached in
    /// `L − j − 1` steps: no successor of a layer-`j` state is fewer
    /// steps from `d_in`, so clearing the deeper levels' marks is
    /// enough.
    fn augment(&mut self, s: usize) {
        self.prune();
        let (m, l) = (self.fwd.depth(), self.fwd.depth() + self.bwd.depth());
        let mut path = vec![State { v: s, out: true }];
        for j in 0..l {
            let next = if j < m {
                self.scatter(j + 1, true);
                let next = self.step(path[j], &self.fr.acc);
                self.scatter(j + 1, false);
                next
            } else {
                forget(&mut self.seen[BWD], &self.bwd, false, l - j);
                self.step(path[j], &self.seen[BWD][side(true, j + 1)])
            };
            path.push(next);
        }
        forget(&mut self.seen[BWD], &self.bwd, false, 0);
        let g = &mut self.g;
        for e in path.windows(2) {
            let (a, b) = (e[0], e[1]);
            if a.v == b.v {
                // Internal edge: forward in→out claims the vertex,
                // residual out→in releases it.
                g.set_used(a.v, b.out);
            } else if a.out {
                // Forward link a → b.
                g.flow.put(dim(a.v, b.v), a.v, true);
                g.block(a.v, b.v, true);
            } else {
                // Residual link edge: cancel flow b → a.
                g.flow.put(dim(a.v, b.v), b.v, false);
                g.block(a.v, b.v, false);
            }
        }
    }
}

/// Clears the visit marks of level `j` of the forward or backward
/// search in its plane of `seen`.
fn forget(seen: &mut [Vec<u64>; 2], levels: &Levels, forward: bool, j: usize) {
    let plane = &mut seen[side(forward, j)];
    for &(w, c) in levels.level(j) {
        plane[w] &= !c;
    }
}

/// Routes every pair across up to `k` disjoint paths, in parallel,
/// preserving input order — the many-to-many batch variant on the
/// vendored-rayon chunked executor. Each outcome is a pure function of
/// `(cfg, map, pair, k)`, and chunks commit in order, so the result is
/// bitwise identical at any `RAYON_NUM_THREADS` (CI diffs 1 vs 4).
///
/// Degenerate `s == d` pairs, faulty sources and endpoints outside the
/// cube yield an all-zero outcome, so no pair can kill a batch.
pub fn route_disjoint_many(
    cfg: &FaultConfig,
    map: &SafetyMap,
    pairs: &[(NodeId, NodeId)],
    k: u8,
) -> Vec<MultiOutcome> {
    if pairs.is_empty() {
        return Vec::new();
    }
    if rayon::num_threads() <= 1 {
        return pairs
            .iter()
            .map(|&(s, d)| outcome_of(&route_disjoint(cfg, map, s, d, k)))
            .collect();
    }
    const FILLER: MultiOutcome = MultiOutcome {
        delivered: 0,
        optimal: 0,
        detour: 0,
        reroute: 0,
        total_hops: 0,
        best_hops: 0,
    };
    let mut out = vec![FILLER; pairs.len()];
    let chunk = pairs.len().div_ceil(rayon::num_threads()).max(1);
    rayon::for_each_chunk_pair(pairs, &mut out, chunk, |ins, outs| {
        map.store().warm();
        for (o, &(s, d)) in outs.iter_mut().zip(ins) {
            *o = outcome_of(&route_disjoint(cfg, map, s, d, k));
        }
    });
    out
}

/// Folds a full result into the compact batch outcome.
pub fn outcome_of(res: &MultipathResult) -> MultiOutcome {
    let mut o = MultiOutcome {
        delivered: res.delivered() as u8,
        optimal: 0,
        detour: 0,
        reroute: 0,
        total_hops: res.total_hops(),
        best_hops: res.best_hops().unwrap_or(0),
    };
    for p in &res.paths {
        match p.kind {
            PathKind::Optimal => o.optimal += 1,
            PathKind::Detour => o.detour += 1,
            PathKind::Reroute => o.reroute += 1,
        }
    }
    o
}

/// Debug-check used by tests and the E29 gate: all paths share no
/// interior node, each is fault-free end to end, and each runs
/// `s → d`.
pub fn check_disjoint_delivery(
    cfg: &FaultConfig,
    s: NodeId,
    d: NodeId,
    res: &MultipathResult,
) -> Result<(), String> {
    let mut interior: Vec<NodeId> = Vec::new();
    for p in &res.paths {
        if p.path.start() != s || p.path.end() != d {
            return Err(format!("path endpoints are not {s} → {d}: {}", p.path));
        }
        let nodes = p.path.nodes();
        if let Some(v) = nodes.iter().find(|v| v.raw() >= cfg.cube().num_nodes()) {
            return Err(format!("path leaves the cube at {v}: {}", p.path));
        }
        if !fan_path_ok(cfg, nodes) {
            return Err(format!("path not fault-free: {}", p.path));
        }
        if p.path.has_repeats() {
            return Err(format!("path revisits a node: {}", p.path));
        }
        interior.extend_from_slice(&nodes[1..nodes.len() - 1]);
    }
    let before = interior.len();
    interior.sort();
    interior.dedup();
    if interior.len() != before {
        return Err("paths share an interior node".to_string());
    }
    if res.delivered() > res.requested as usize {
        return Err(format!(
            "delivered {} > requested {}",
            res.delivered(),
            res.requested
        ));
    }
    if usize::from(MAX_DIM) < res.delivered() {
        return Err("more paths than dimensions".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unicast::route;
    use hypersafe_topology::{disjoint, FaultSet, Hypercube, LinkFaultSet};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
    }

    /// The scalar augmentation [`augment_to_max`] replaced, kept as
    /// its differential reference: a FIFO BFS over the node-split
    /// residual graph, one state at a time, restarted per augmenting
    /// path. States are `2v` (the *in* copy of node `v`) and `2v + 1` (*out*);
    /// interior vertex capacity is 1, links are unit in each direction,
    /// and `s`/`d` are uncapacitated. The flow is kept in two flat maps:
    /// `out_flow[v]` has bit `i` set when the edge `v → v ⊕ eᵢ` carries
    /// flow, and `node_used[v]` marks interior vertices on a path.
    fn reference_augment(
        cfg: &FaultConfig,
        s: NodeId,
        d: NodeId,
        initial: Vec<Vec<NodeId>>,
        k: u8,
    ) -> Vec<Vec<NodeId>> {
        let cube = cfg.cube();
        let n = cube.dim();
        let total = cube.num_nodes() as usize;
        let mut out_flow = vec![0u32; total];
        let mut node_used = vec![false; total];
        let mut flows = initial.len();
        for path in &initial {
            for w in path.windows(2) {
                let dim = w[0].differing_dims(w[1]).next().expect("adjacent");
                out_flow[w[0].raw() as usize] |= 1 << dim;
            }
            for &v in &path[1..path.len() - 1] {
                node_used[v.raw() as usize] = true;
            }
        }

        let sr = s.raw() as usize;
        let dr = d.raw() as usize;
        let mut parent = vec![u32::MAX; 2 * total];
        let mut queue: Vec<u32> = Vec::with_capacity(total);
        while flows < k as usize {
            parent.iter_mut().for_each(|p| *p = u32::MAX);
            queue.clear();
            let start = (2 * sr + 1) as u32; // s_out
            parent[start as usize] = start;
            queue.push(start);
            let mut head = 0;
            let mut found = false;
            while head < queue.len() && !found {
                let st = queue[head];
                head += 1;
                let v = (st as usize) >> 1;
                let is_out = st & 1 == 1;
                let node = NodeId::new(v as u64);
                if is_out {
                    // Forward link edges v_out → w_in (no flow yet), and
                    // the residual internal edge v_out → v_in when v
                    // carries flow.
                    for i in 0..n {
                        if out_flow[v] & (1 << i) != 0 {
                            continue;
                        }
                        let w = node.neighbor(i);
                        let wr = w.raw() as usize;
                        // A link with opposing flow is cancelled via the
                        // w_in residual rule, not traversed forward.
                        if out_flow[wr] & (1 << i) != 0 {
                            continue;
                        }
                        if !cfg.link_usable(node, w) {
                            continue;
                        }
                        if wr != dr && (cfg.node_faulty(w) || wr == sr) {
                            continue;
                        }
                        let wst = (2 * wr) as u32;
                        if parent[wst as usize] == u32::MAX {
                            parent[wst as usize] = st;
                            if wr == dr {
                                found = true;
                                break;
                            }
                            queue.push(wst);
                        }
                    }
                    if !found && node_used[v] {
                        let ist = (st - 1) as usize;
                        if parent[ist] == u32::MAX {
                            parent[ist] = st;
                            queue.push(ist as u32);
                        }
                    }
                } else {
                    // v_in: pass through an unused interior vertex, or
                    // cancel an incoming flow edge w → v.
                    if !node_used[v] {
                        let ost = st + 1;
                        if parent[ost as usize] == u32::MAX {
                            parent[ost as usize] = st;
                            queue.push(ost);
                        }
                    }
                    for i in 0..n {
                        let w = node.neighbor(i);
                        let wr = w.raw() as usize;
                        if out_flow[wr] & (1 << i) == 0 {
                            continue; // no flow w → v to cancel
                        }
                        let wst = (2 * wr + 1) as u32;
                        if parent[wst as usize] == u32::MAX {
                            parent[wst as usize] = st;
                            queue.push(wst);
                        }
                    }
                }
            }
            if !found {
                break;
            }
            // Apply the augmenting path by walking parents from d_in.
            let mut st = (2 * dr) as u32;
            while st != start {
                let pr = parent[st as usize];
                let (pv, p_out) = ((pr as usize) >> 1, pr & 1 == 1);
                let (cv, c_out) = ((st as usize) >> 1, st & 1 == 1);
                if pv == cv {
                    // Internal edge: forward in→out claims the vertex,
                    // residual out→in releases it.
                    node_used[cv] = c_out;
                } else if p_out && !c_out {
                    // Forward link edge pv → cv.
                    let dim = NodeId::new(pv as u64)
                        .differing_dims(NodeId::new(cv as u64))
                        .next()
                        .expect("adjacent");
                    out_flow[pv] |= 1 << dim;
                } else {
                    // Residual link edge: cancel flow cv → pv.
                    debug_assert!(!p_out && c_out);
                    let dim = NodeId::new(cv as u64)
                        .differing_dims(NodeId::new(pv as u64))
                        .next()
                        .expect("adjacent");
                    out_flow[cv] &= !(1 << dim);
                }
                st = pr;
            }
            flows += 1;
        }

        // Decompose the flow into paths: from s, follow each outgoing
        // flow bit (ascending dimension for determinism); every interior
        // vertex carries exactly one outgoing unit.
        let mut paths = Vec::with_capacity(flows);
        for i in 0..n {
            if out_flow[sr] & (1 << i) == 0 {
                continue;
            }
            let mut nodes = vec![s];
            let mut cur = s.neighbor(i);
            nodes.push(cur);
            while cur != d {
                let bits = out_flow[cur.raw() as usize];
                debug_assert_eq!(bits.count_ones(), 1, "interior vertex capacity violated");
                let dim = bits.trailing_zeros() as u8;
                cur = cur.neighbor(dim);
                nodes.push(cur);
            }
            paths.push(nodes);
        }
        debug_assert_eq!(paths.len(), flows);
        paths
    }

    /// One differential case: `(n, seed, fault density, pin faulty
    /// neighbours of s and d, prefix pick)`.
    fn diff_case() -> impl Strategy<Value = (u8, u64, u8, bool, u8)> {
        (1u8..=10, any::<u64>(), 0u8..4, any::<bool>(), any::<u8>())
    }

    /// A random configuration for the case: node faults up to half the
    /// cube, link faults up to a quarter of the nodes, a healthy `s`
    /// and any `d ≠ s`; with `pin`, one neighbour each of `s` and `d`
    /// is faulty, so the degree cap binds at `k = n`.
    fn diff_instance(
        n: u8,
        seed: u64,
        density: u8,
        pin: bool,
    ) -> Option<(FaultConfig, NodeId, NodeId)> {
        let cube = Hypercube::new(n);
        let len = cube.num_nodes();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let node_max = [0, u64::from(n), len / 8, len / 2][density as usize];
        let link_max = [0, u64::from(n), len / 4, 0][density as usize];
        let mut faults = FaultSet::new(cube);
        for _ in 0..rng.gen_range(0..=node_max) {
            faults.insert(NodeId::new(rng.gen_range(0..len)));
        }
        let mut links = LinkFaultSet::new();
        for _ in 0..rng.gen_range(0..=link_max) {
            let a = NodeId::new(rng.gen_range(0..len));
            links.insert(a, a.neighbor(rng.gen_range(0..n)));
        }
        let s = NodeId::new(rng.gen_range(0..len));
        let d = NodeId::new(rng.gen_range(0..len));
        if pin {
            for v in [s, d] {
                let w = v.neighbor(rng.gen_range(0..n));
                if w != s && w != d {
                    faults.insert(w);
                }
            }
        }
        faults.remove(s);
        (s != d).then(|| (FaultConfig::with_faults(cube, faults, links), s, d))
    }

    /// The fan candidates that survive the faults, rotations first,
    /// at most `k` — the flow `route_disjoint` seeds augmentation with,
    /// which (unlike a max-flow prefix) often blocks the maximum and
    /// needs cancelling.
    fn fan_survivors(cfg: &FaultConfig, s: NodeId, d: NodeId, k: u8) -> Vec<Vec<NodeId>> {
        let dims: Vec<u8> = cfg.cube().preferred(s, d).collect();
        let rotations = (0..dims.len()).map(|i| optimal_candidate(s, &dims, i));
        let detours = cfg
            .cube()
            .spare(s, d)
            .map(|j| detour_candidate(s, d, &dims, j));
        rotations
            .chain(detours)
            .filter(|c| fan_path_ok(cfg, c))
            .take(usize::from(k))
            .collect()
    }

    /// Up to `k` disjoint paths found one after another by randomized
    /// depth-first search: long, winding paths that block the maximum
    /// flow, so augmenting from them walks backwards along several
    /// vertices of a path (the residual internal out→in edges).
    fn winding_flow(
        cfg: &FaultConfig,
        s: NodeId,
        d: NodeId,
        k: u8,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<NodeId>> {
        let n = cfg.cube().dim();
        let mut blocked = vec![false; cfg.cube().num_nodes() as usize];
        blocked[s.raw() as usize] = true;
        let mut direct_used = false;
        let mut paths = Vec::new();
        while paths.len() < usize::from(k) {
            let mut seen = blocked.clone();
            let mut stack = vec![s];
            let found = loop {
                let Some(&v) = stack.last() else { break false };
                let mut dims: Vec<u8> = (0..n).collect();
                for i in (1..dims.len()).rev() {
                    dims.swap(i, rng.gen_range(0..=i));
                }
                let next = dims.into_iter().map(|i| v.neighbor(i)).find(|&w| {
                    cfg.link_usable(v, w)
                        && if w == d {
                            !(v == s && direct_used)
                        } else {
                            !seen[w.raw() as usize]
                        }
                });
                match next {
                    Some(w) if w == d => break true,
                    Some(w) => {
                        seen[w.raw() as usize] = true;
                        stack.push(w);
                    }
                    None => {
                        stack.pop();
                    }
                }
            };
            if !found {
                break;
            }
            direct_used |= stack.len() == 1;
            for &v in &stack[1..] {
                blocked[v.raw() as usize] = true;
            }
            stack.push(d);
            paths.push(stack);
        }
        paths
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The plane BFS returns exactly the reference's paths for
        /// every `k`, from an empty flow, from a prefix of the
        /// reference's own maximum flow, from a winding flow that
        /// blocks it and from the surviving fan.
        #[test]
        fn augmentation_matches_scalar_reference(
            (n, seed, density, pin, pick) in diff_case()
        ) {
            let Some((cfg, s, d)) = diff_instance(n, seed, density, pin) else {
                return Ok(());
            };
            let max = reference_augment(&cfg, s, d, Vec::new(), n);
            let mut rng = ChaCha8Rng::seed_from_u64(!seed);
            for k in 1..=n {
                prop_assert_eq!(
                    augment_to_max(&cfg, s, d, Vec::new(), k),
                    reference_augment(&cfg, s, d, Vec::new(), k),
                    "empty flow, k = {}", k
                );
                let p = usize::from(pick) % (max.len().min(usize::from(k)) + 1);
                let initial = max[..p].to_vec();
                prop_assert_eq!(
                    augment_to_max(&cfg, s, d, initial.clone(), k),
                    reference_augment(&cfg, s, d, initial, k),
                    "prefix of {} paths, k = {}", p, k
                );
                let winding = winding_flow(&cfg, s, d, k, &mut rng);
                prop_assert_eq!(
                    augment_to_max(&cfg, s, d, winding.clone(), k),
                    reference_augment(&cfg, s, d, winding, k),
                    "winding flow, k = {}", k
                );
                let fan = fan_survivors(&cfg, s, d, k);
                prop_assert_eq!(
                    augment_to_max(&cfg, s, d, fan.clone(), k),
                    reference_augment(&cfg, s, d, fan, k),
                    "fan flow, k = {}", k
                );
            }
        }
    }

    fn fig1() -> (FaultConfig, SafetyMap) {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]),
        );
        let map = SafetyMap::compute(&cfg);
        (cfg, map)
    }

    #[test]
    fn fault_free_full_fan_every_pair() {
        for nn in 2u8..=5 {
            let cube = Hypercube::new(nn);
            let cfg = FaultConfig::fault_free(cube);
            let map = SafetyMap::compute(&cfg);
            for s in cube.nodes() {
                for d in cube.nodes() {
                    if s == d {
                        continue;
                    }
                    let res = route_disjoint(&cfg, &map, s, d, nn);
                    assert_eq!(res.delivered(), nn as usize, "{s} → {d}");
                    assert_eq!(res.fan_accepted, nn, "{s} → {d}");
                    assert!(!res.rerouted);
                    let h = s.distance(d);
                    let o = outcome_of(&res);
                    assert_eq!(o.optimal as u32, h, "{s} → {d}");
                    assert_eq!(o.detour as u32, nn as u32 - h, "{s} → {d}");
                    assert_eq!(o.reroute, 0);
                    assert_eq!(o.best_hops, h);
                    check_disjoint_delivery(&cfg, s, d, &res).unwrap();
                    let paths: Vec<Path> = res.paths.iter().map(|p| p.path.clone()).collect();
                    assert!(disjoint::pairwise_internally_disjoint(&paths));
                }
            }
        }
    }

    #[test]
    fn degenerate_and_clamped_requests() {
        let (cfg, map) = fig1();
        let a = n("0000");
        assert_eq!(route_disjoint(&cfg, &map, a, a, 4).delivered(), 0);
        assert_eq!(route_disjoint(&cfg, &map, a, n("0001"), 0).delivered(), 0);
        // k > n clamps to n.
        let res = route_disjoint(&cfg, &map, a, n("0001"), 200);
        assert_eq!(res.requested, 4);
        // A faulty source cannot transmit.
        assert_eq!(route_disjoint(&cfg, &map, n("0011"), a, 4).delivered(), 0);
    }

    #[test]
    fn k_limits_the_fan_and_prefers_optimal() {
        let cube = Hypercube::new(5);
        let cfg = FaultConfig::fault_free(cube);
        let map = SafetyMap::compute(&cfg);
        let (s, d) = (n("00000"), n("00111"));
        let res = route_disjoint(&cfg, &map, s, d, 2);
        assert_eq!(res.delivered(), 2);
        assert!(res.paths.iter().all(|p| p.kind == PathKind::Optimal));
    }

    #[test]
    fn fig1_multipath_delivers_when_single_path_does() {
        let (cfg, map) = fig1();
        for s in cfg.healthy_nodes() {
            for d in cfg.healthy_nodes() {
                if s == d {
                    continue;
                }
                let single = route(&cfg, &map, s, d);
                let multi = route_disjoint(&cfg, &map, s, d, 4);
                check_disjoint_delivery(&cfg, s, d, &multi).unwrap();
                if single.delivered {
                    assert!(
                        multi.delivered() >= 1,
                        "{s} → {d}: single-path delivered but multipath got 0"
                    );
                }
            }
        }
    }

    #[test]
    fn cut_fan_reroutes_around_the_fault() {
        // 0000 → 0011 in Q_4 with both optimal intermediates dead:
        // the fan's optimal rotations are cut, detours survive, and
        // the flow still reaches the max disjoint count.
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0001", "0010"]),
        );
        let map = SafetyMap::compute(&cfg);
        let res = route_disjoint(&cfg, &map, n("0000"), n("0011"), 4);
        check_disjoint_delivery(&cfg, n("0000"), n("0011"), &res).unwrap();
        assert_eq!(res.delivered(), 2, "two spare-dimension detours survive");
        assert!(res.paths.iter().all(|p| p.kind == PathKind::Detour));
    }

    #[test]
    fn congestion_rank_steers_the_spare_choice() {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::fault_free(cube);
        let map = SafetyMap::compute(&cfg);
        let (s, d) = (n("0000"), n("0001"));
        // One detour requested; make spare dimension 3 free and the
        // rest expensive — the chosen detour must leave through dim 3.
        let res = route_disjoint_ranked(&cfg, &map, s, d, 2, &|_, j| u64::from(j != 3));
        assert_eq!(res.delivered(), 2);
        let detour = res
            .paths
            .iter()
            .find(|p| p.kind == PathKind::Detour)
            .expect("one optimal + one detour");
        assert_eq!(detour.path.nodes()[1], s.neighbor(3));
    }

    #[test]
    fn batch_matches_scalar_and_handles_degenerates() {
        let (cfg, map) = fig1();
        let mut pairs: Vec<(NodeId, NodeId)> = cfg
            .healthy_nodes()
            .flat_map(|s| cfg.healthy_nodes().map(move |d| (s, d)))
            .collect();
        pairs.push((n("0000"), n("0000"))); // degenerate pair must not kill the batch
        let batch = route_disjoint_many(&cfg, &map, &pairs, 4);
        assert_eq!(batch.len(), pairs.len());
        for (o, &(s, d)) in batch.iter().zip(&pairs) {
            assert_eq!(*o, outcome_of(&route_disjoint(&cfg, &map, s, d, 4)));
        }
        assert_eq!(batch.last().unwrap().delivered, 0);
        assert!(route_disjoint_many(&cfg, &map, &[], 4).is_empty());
    }

    #[test]
    fn link_faults_beyond_the_cube_are_ignored() {
        let cube = Hypercube::new(3);
        let mut links = LinkFaultSet::new();
        links.insert(n("001"), n("011"));
        links.insert(NodeId::new(8), NodeId::new(9));
        links.insert(NodeId::new(1), NodeId::new(17));
        let cfg = FaultConfig::with_faults(cube, FaultSet::from_binary_strs(cube, &["010"]), links);
        let (s, d) = (n("000"), n("011"));
        for k in 1..=3 {
            assert_eq!(
                augment_to_max(&cfg, s, d, Vec::new(), k),
                reference_augment(&cfg, s, d, Vec::new(), k)
            );
        }
    }

    #[test]
    fn faulty_destination_gets_no_disjoint_paths() {
        // Single-path routing delivers to a faulty destination's
        // doorstep; multi-path delivery needs a healthy one. The
        // destination's usable in-degree is 0, so the reroute phase
        // stops before its first search.
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, &["0011"]));
        let map = SafetyMap::compute(&cfg);
        let d = n("0011");
        for s in ["0000", "0001", "1111"].map(n) {
            assert!(route(&cfg, &map, s, d).delivered, "{s} → {d}");
            let res = route_disjoint(&cfg, &map, s, d, 4);
            assert_eq!(res.delivered(), 0, "{s} → {d}");
            assert!(res.rerouted, "{s} → {d}");
        }
    }

    /// `n − 1` distinct uniform node faults on `Q_n`, as in the
    /// fan-dense workload, and a healthy pair `s ≠ d`.
    fn sparse_instance(n: u8, rng: &mut ChaCha8Rng) -> (FaultConfig, NodeId, NodeId) {
        let cube = Hypercube::new(n);
        let mut faults = FaultSet::new(cube);
        while faults.len() < usize::from(n) - 1 {
            faults.insert(NodeId::new(rng.gen_range(0..cube.num_nodes())));
        }
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let healthy = |rng: &mut ChaCha8Rng| loop {
            let v = NodeId::new(rng.gen_range(0..cube.num_nodes()));
            if !cfg.node_faulty(v) {
                break v;
            }
        };
        let s = healthy(rng);
        let d = loop {
            let d = healthy(rng);
            if d != s {
                break d;
            }
        };
        (cfg, s, d)
    }

    #[test]
    fn reroutes_match_the_reference_at_the_workload_size() {
        // With k = n, route_disjoint seeds the flow with every fan
        // survivor; the reference augments the same set.
        for nn in [11u8, 12] {
            let mut rng = ChaCha8Rng::seed_from_u64(u64::from(nn));
            // Until six calls have grown the fan by augmentation.
            let mut grown = 0;
            while grown < 6 {
                let (cfg, s, d) = sparse_instance(nn, &mut rng);
                let map = SafetyMap::compute(&cfg);
                let res = route_disjoint(&cfg, &map, s, d, nn);
                check_disjoint_delivery(&cfg, s, d, &res).unwrap();
                if !res.rerouted {
                    continue;
                }
                let mut want = reference_augment(&cfg, s, d, fan_survivors(&cfg, s, d, nn), nn);
                want.sort_by_key(Vec::len);
                let got: Vec<_> = res.paths.iter().map(|p| p.path.nodes().to_vec()).collect();
                assert_eq!(got, want, "Q{nn}: {s} → {d}");
                grown += usize::from(res.delivered() > usize::from(res.fan_accepted));
            }
        }
    }

    /// `Q_8` with `v`'s only healthy neighbour `v ⊕ e₀`, whose other
    /// neighbours are faulty: a pocket of two nodes.
    fn pocket(v: NodeId) -> FaultConfig {
        let cube = Hypercube::new(8);
        let u = v.neighbor(0);
        let walls = (1..8).flat_map(|i| [v.neighbor(i), u.neighbor(i)]);
        FaultConfig::with_node_faults(cube, FaultSet::from_nodes(cube, walls))
    }

    #[test]
    fn a_pocket_stops_the_search_from_its_side() {
        let (s, d) = (NodeId::new(0), NodeId::new(255));
        // Forward: s_out, 1_in, 1_out, then nothing, while the backward
        // search has not moved. Backward: d_in, 254_out, 254_in, then
        // nothing, after one forward level of three words.
        for (cfg, forward_dry) in [(pocket(s), true), (pocket(d), false)] {
            assert_eq!(
                augment_to_max(&cfg, s, d, Vec::new(), 8),
                Vec::<Vec<NodeId>>::new()
            );
            assert_eq!(reference_augment(&cfg, s, d, Vec::new(), 8).len(), 0);
            let mut r = Residual::new(8);
            r.g.load(&cfg, &[]);
            assert!(!r.search(cfg.node_faults().words(), 0, 255));
            let (dry, other) = if forward_dry {
                (&r.fwd, &r.bwd)
            } else {
                (&r.bwd, &r.fwd)
            };
            assert!(dry.top().is_empty());
            assert_eq!((dry.depth(), other.depth()), (3, usize::from(!forward_dry)));
            assert!(r.is_clear(), "a failed search clears its marks");
        }
    }

    #[test]
    fn a_full_fan_is_returned_in_decomposition_order() {
        let mut early = 0;
        for (nn, seed) in (3u8..=8).flat_map(|nn| (0..64).map(move |seed| (nn, seed))) {
            let Some((cfg, s, d)) = diff_instance(nn, seed, 1, true) else {
                continue;
            };
            let mut fan = fan_survivors(&cfg, s, d, nn);
            let cap = degree(&cfg, s).min(degree(&cfg, d));
            if fan.is_empty() || fan.len() < cap {
                continue;
            }
            // The fan in acceptance order is not sorted by first
            // dimension; the early return must sort it.
            fan.reverse();
            let mut g = Graph::new(nn, (1usize << nn).div_ceil(64));
            g.load(&cfg, &fan);
            assert_eq!(augment_to_max(&cfg, s, d, fan, nn), g.decompose(s, d));
            early += 1;
        }
        assert!(early > 50, "{early} early returns");
    }

    #[test]
    fn out_of_cube_endpoints_get_no_paths() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::fault_free(cube);
        let map = SafetyMap::compute(&cfg);
        let (a, far) = (n("0000"), NodeId::new(1 << 40));
        let pairs = [
            (a, NodeId::new(16)),
            (NodeId::new(16), a),
            (a, far),
            (far, a),
        ];
        for (s, d) in pairs {
            let res = catch_unwind(AssertUnwindSafe(|| route_disjoint(&cfg, &map, s, d, 4)))
                .unwrap_or_else(|_| panic!("{s} → {d} panicked"));
            assert_eq!((res.delivered(), res.rerouted), (0, false), "{s} → {d}");
        }
        let batch = catch_unwind(AssertUnwindSafe(|| {
            route_disjoint_many(&cfg, &map, &pairs, 4)
        }))
        .expect("the batch does not panic");
        assert!(batch.iter().all(|o| o.delivered == 0));

        // A delivered path through nodes 16 and 17, which Q_4 lacks.
        let d = n("0001");
        let path = Path::from_nodes(vec![a, NodeId::new(16), NodeId::new(17), d]);
        let res = MultipathResult {
            paths: vec![DisjointPath {
                path,
                kind: PathKind::Reroute,
            }],
            ..MultipathResult::empty(4)
        };
        let err = catch_unwind(AssertUnwindSafe(|| {
            check_disjoint_delivery(&cfg, a, d, &res)
        }))
        .expect("the check does not panic")
        .unwrap_err();
        assert!(err.contains("leaves the cube"), "{err}");
    }
}
