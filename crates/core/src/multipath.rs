//! k-disjoint multi-path unicast (ROADMAP open item 1).
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
//!    independent oracle in `tests/multipath_props.rs`.
//!
//!    Each augmenting path comes from a level-synchronous BFS over
//!    per-dimension bit-planes of the residual graph (64 nodes per
//!    word, neighbours gathered with the `level_store` shuffle): the
//!    levels alternate between out-states and in-states from `s_out`
//!    until one holds `d_in`. A FIFO BFS that visits edges in a fixed
//!    order lists every level in the lexicographic order of its tree
//!    paths, so the path it finds is the lexicographically first
//!    shortest path. The plane BFS recovers exactly that path: a
//!    backward pass keeps the level states with a layered path to
//!    `d_in`, and a forward walk from `s_out` takes the first
//!    surviving edge in the FIFO visiting order (ascending dimension,
//!    internal edge last at an out-state and first at an in-state).
//!    The paths, and so every outcome, equal those of a scalar
//!    one-state-at-a-time FIFO BFS, which the unit tests keep as a
//!    differential reference. Augmentation stops as soon as the flow
//!    reaches the usable degree of `s` or of `d`: those are cuts, so
//!    no augmenting path can exist past them.
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
//! faulty *source* cannot transmit and yields an empty result.

use crate::level_store::{delta_swap, gather_neighbor_word};
use crate::safety::SafetyMap;
use hypersafe_topology::{e, FaultConfig, NodeId, Path, MAX_DIM};

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
    let n = cfg.cube().dim();
    let k = k.min(n);
    if s == d || k == 0 || cfg.node_faulty(s) {
        return MultipathResult::empty(k);
    }

    let dims: Vec<u8> = cfg.cube().preferred_dims(s, d).collect();
    let h = dims.len();

    // Safety-guided candidate order: optimal rotations first (by
    // first-hop level, descending), then spare detours (by cost, then
    // level). All keys are deterministic, so so is the whole route.
    let mut rot_order: Vec<usize> = (0..h).collect();
    rot_order.sort_by_key(|&i| (std::cmp::Reverse(map.level(s.neighbor(dims[i]))), dims[i]));
    let mut spare_order: Vec<u8> = cfg.cube().spare_dims(s, d).collect();
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
        accepted = augment_to_max(cfg, s, d, &accepted, k);
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
    initial: &[Vec<NodeId>],
    k: u8,
) -> Vec<Vec<NodeId>> {
    let mut r = Residual::new(cfg, s, initial);
    let (sr, dr) = (s.raw() as usize, d.raw() as usize);
    // `s_out` and `d_in` are cuts: once the flow fills every usable
    // link out of `s` or into `d`, no augmenting path exists.
    let cap = usize::from(k).min(degree(cfg, s)).min(degree(cfg, d));
    let mut flows = initial.len();
    while flows < cap && r.search(sr, dr) {
        r.prune(dr);
        r.augment(sr);
        flows += 1;
    }

    // Decompose the flow into paths: from s, follow each outgoing
    // flow edge (ascending dimension for determinism); every interior
    // vertex carries exactly one outgoing unit.
    let mut paths = Vec::with_capacity(flows);
    let mut nodes = Vec::new();
    for i in (0..r.n).filter(|&i| r.flow.get(i, sr)) {
        nodes.clear();
        nodes.push(s);
        let mut v = sr ^ (1 << i);
        while v != dr {
            nodes.push(NodeId::new(v as u64));
            v ^= 1 << r.out_dim(v);
        }
        nodes.push(d);
        paths.push(nodes.clone());
    }
    debug_assert_eq!(paths.len(), flows);
    paths
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
/// [`gather_neighbor_word`] (`gather_neighbor_word(p, w, i)` is
/// `cross(p[nbr_word(w, i)], i)`).
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
}

/// One state of the node-split residual graph: node and side.
#[derive(Clone, Copy)]
struct State {
    v: usize,
    out: bool,
}

/// The residual graph of a unit-vertex-capacity flow on the faulty
/// cube, in bit-planes of 64 nodes per word, and the level-synchronous
/// BFS that finds its augmenting paths (the module docs give why the
/// path is the scalar FIFO BFS's): [`Residual::search`] builds the
/// levels, [`Residual::prune`] keeps the states on a layered path to
/// `d_in`, and [`Residual::augment`] walks the first surviving edges.
struct Residual {
    n: u8,
    /// Bit `v` of plane `i` when one unit of flow runs on `v → v ⊕ eᵢ`.
    flow: Planes,
    /// Bit `v` of plane `i` when the link `v – v ⊕ eᵢ` has no forward
    /// residual capacity (faulty, or flow on it either way); symmetric,
    /// so both endpoints carry the bit.
    blocked: Planes,
    /// Interior vertices on a path.
    used: Vec<u64>,
    /// In-states already reached, preset with the in-states no edge
    /// may enter (faulty nodes and `s`); a search clears its own bits
    /// when it ends.
    seen_in: Vec<u64>,
    seen_out: Vec<u64>,
    /// All zero between uses: the next level's accumulator during a
    /// search, the surviving next level while pruning and walking.
    acc: Vec<u64>,
    /// One bit per word of `acc`: the words a search level touched.
    touched: Vec<u64>,
    /// BFS levels as `(word, bits)` entries; level `j` is
    /// `levels[starts[j]..starts[j + 1]]`, the last one running to the
    /// end. Even levels hold out-states, odd levels in-states.
    levels: Vec<(usize, u64)>,
    starts: Vec<usize>,
    /// After [`Residual::prune`], level `j`'s survivors are
    /// `levels[starts[j]..live[j]]`.
    live: Vec<usize>,
}

impl Residual {
    fn new(cfg: &FaultConfig, s: NodeId, initial: &[Vec<NodeId>]) -> Self {
        let cube = cfg.cube();
        let n = cube.dim();
        let words = cube.num_nodes().div_ceil(64) as usize;
        let mut seen_in = cfg.node_faults().words().to_vec();
        put(&mut seen_in[s.raw() as usize / 64], s.raw() as usize, true);
        let mut r = Residual {
            n,
            flow: Planes::new(n, words),
            blocked: Planes::new(n, words),
            used: vec![0; words],
            seen_in,
            seen_out: vec![0; words],
            acc: vec![0; words],
            touched: vec![0; words.div_ceil(64)],
            levels: Vec::new(),
            starts: Vec::new(),
            live: Vec::new(),
        };
        // A link set may name links beyond this cube; no path uses them.
        let inside = |&(_, hi): &(NodeId, NodeId)| hi.raw() < cube.num_nodes();
        for (lo, hi) in cfg.link_faults().iter().filter(inside) {
            r.block(lo.raw() as usize, hi.raw() as usize, true);
        }
        for path in initial {
            for w in path.windows(2) {
                let (a, b) = (w[0].raw() as usize, w[1].raw() as usize);
                r.flow.put(dim(a, b), a, true);
                r.block(a, b, true);
            }
            for &v in &path[1..path.len() - 1] {
                let v = v.raw() as usize;
                put(&mut r.used[v / 64], v, true);
            }
        }
        r
    }

    /// Marks the link `a – b` blocked (or open again) at both ends.
    fn block(&mut self, a: usize, b: usize, on: bool) {
        self.blocked.put(dim(a, b), a, on);
        self.blocked.put(dim(a, b), b, on);
    }

    /// ORs `x` into word `w` of the next level.
    #[inline]
    fn push(acc: &mut [u64], touched: &mut [u64], w: usize, x: u64) {
        acc[w] |= x;
        touched[w / 64] |= 1 << (w % 64);
    }

    /// Level-synchronous BFS from `s_out`. Returns whether `d_in` was
    /// reached; the levels are left in `self.levels`, the last one
    /// holding `d_in` (and possibly only part of the rest of its level).
    fn search(&mut self, s: usize, d: usize) -> bool {
        self.levels.clear();
        self.starts.clear();
        self.starts.push(0);
        self.levels.push((s / 64, 1 << (s % 64)));
        put(&mut self.seen_out[s / 64], s, true);
        let (dw, dbit) = (d / 64, 1 << (d % 64));
        let mut found = false;
        while !found {
            let j = self.starts.len() - 1;
            let (lo, hi) = (self.starts[j], self.levels.len());
            if lo == hi {
                break;
            }
            let out_level = j.is_multiple_of(2);
            let (acc, touched) = (&mut self.acc, &mut self.touched);
            for &(w, c) in &self.levels[lo..hi] {
                let used = c & self.used[w];
                if out_level {
                    // Forward links v_out → x_in (the in-word
                    // dimensions gathered into one word), then the
                    // residual internal edge v_out → v_in of a used
                    // vertex.
                    let row = self.blocked.row(w);
                    let near = row.len().min(6);
                    let mut here = used;
                    for (i, &b) in row[..near].iter().enumerate() {
                        here |= delta_swap(c & !b, i as u8);
                    }
                    Self::push(acc, touched, w, here);
                    for (i, &b) in row[near..].iter().enumerate() {
                        Self::push(acc, touched, w ^ (1 << i), c & !b);
                    }
                    if acc[dw] & !self.seen_in[dw] & dbit != 0 {
                        // Only d_in matters from this level on.
                        break;
                    }
                } else {
                    // The internal edge v_in → v_out of an unused
                    // vertex; a used one instead cancels the flow
                    // x → v that enters it, v_in → x_out.
                    Self::push(acc, touched, w, c & !used);
                    if used != 0 {
                        for i in 0..self.n {
                            let t = nbr_word(w, i);
                            Self::push(acc, touched, t, cross(used, i) & self.flow.word(i, t));
                        }
                    }
                }
            }
            self.starts.push(self.levels.len());
            let seen = if out_level {
                &mut self.seen_in
            } else {
                &mut self.seen_out
            };
            for (tw, touched) in self.touched.iter_mut().enumerate() {
                let mut m = std::mem::take(touched);
                while m != 0 {
                    let w = tw * 64 + m.trailing_zeros() as usize;
                    m &= m - 1;
                    let fresh = std::mem::take(&mut self.acc[w]) & !seen[w];
                    if fresh != 0 {
                        seen[w] |= fresh;
                        self.levels.push((w, fresh));
                        found |= out_level && w == dw && fresh & dbit != 0;
                    }
                }
            }
        }
        // Forget this search's visits; the preset in-states stay.
        for j in 0..self.starts.len() {
            let range = self.level(j);
            let seen = if j.is_multiple_of(2) {
                &mut self.seen_out
            } else {
                &mut self.seen_in
            };
            for &(w, c) in &self.levels[range] {
                seen[w] &= !c;
            }
        }
        found
    }

    fn level(&self, j: usize) -> std::ops::Range<usize> {
        let end = self.starts.get(j + 1).copied().unwrap_or(self.levels.len());
        self.starts[j]..end
    }

    /// Writes level `j`'s survivors into `acc` (`on`), or zeroes their
    /// words again.
    fn scatter(&mut self, j: usize, on: bool) {
        for e in self.starts[j]..self.live[j] {
            let (w, c) = self.levels[e];
            self.acc[w] = if on { c } else { 0 };
        }
    }

    /// Keeps only the level states with a layered path to `d_in`: the
    /// last level shrinks to `d_in`, and each earlier one to the states
    /// with an edge into the survivors of the next. Each level's
    /// nonzero survivor words are compacted, in place, to the front of
    /// its range, ending at `live[j]`.
    fn prune(&mut self, d: usize) {
        let top = self.starts.len() - 1;
        self.live.clear();
        self.live.resize(top + 1, 0);
        self.levels.truncate(self.starts[top]);
        self.levels.push((d / 64, 1 << (d % 64)));
        self.live[top] = self.levels.len();
        self.scatter(top, true);
        for j in (0..top).rev() {
            let mut kept = self.starts[j];
            for e in self.level(j) {
                let (w, c) = self.levels[e];
                let (t, used) = (&self.acc, self.used[w]);
                let mut keep;
                if j.is_multiple_of(2) {
                    keep = used & t[w];
                    for (i, &b) in self.blocked.row(w).iter().enumerate() {
                        keep |= !b & gather_neighbor_word(t, w, i as u8);
                    }
                } else {
                    keep = !used & t[w];
                    if c & used != 0 {
                        for i in 0..self.n {
                            let x = nbr_word(w, i);
                            keep |= cross(self.flow.word(i, x) & t[x], i);
                        }
                    }
                }
                if c & keep != 0 {
                    self.levels[kept] = (w, c & keep);
                    kept += 1;
                }
            }
            self.live[j] = kept;
            self.scatter(j + 1, false);
            self.scatter(j, true);
        }
        self.scatter(0, false);
    }

    /// The successor of `st` on the first surviving layered path, in
    /// the order a FIFO BFS visits edges: at an out-state the forward
    /// links by ascending dimension, then the internal edge; at an
    /// in-state the internal edge, then the cancel edges by ascending
    /// dimension (flow conservation leaves an in-state only one of
    /// them). `acc` holds the surviving next level.
    fn step(&self, st: State) -> State {
        let (v, t) = (st.v, &self.acc);
        if st.out {
            let i = (0..self.n).find(|&i| !self.blocked.get(i, v) && bit(t, v ^ (1 << i)));
            debug_assert!(i.is_some() || (bit(&self.used, v) && bit(t, v)));
            State {
                v: i.map_or(v, |i| v ^ (1 << i)),
                out: false,
            }
        } else if !bit(&self.used, v) && bit(t, v) {
            State { v, out: true }
        } else {
            let i = (0..self.n)
                .find(|&i| self.flow.get(i, v ^ (1 << i)) && bit(t, v ^ (1 << i)))
                .expect("a surviving in-state has a layered successor");
            State {
                v: v ^ (1 << i),
                out: true,
            }
        }
    }

    /// Walks the lexicographically first shortest augmenting path
    /// through the pruned levels and applies it to the flow.
    fn augment(&mut self, s: usize) {
        let mut path = vec![State { v: s, out: true }];
        for j in 0..self.starts.len() - 1 {
            self.scatter(j + 1, true);
            path.push(self.step(path[j]));
            self.scatter(j + 1, false);
        }
        for e in path.windows(2) {
            let (a, b) = (e[0], e[1]);
            if a.v == b.v {
                // Internal edge: forward in→out claims the vertex,
                // residual out→in releases it.
                put(&mut self.used[a.v / 64], a.v, b.out);
            } else if a.out {
                // Forward link a → b.
                self.flow.put(dim(a.v, b.v), a.v, true);
                self.block(a.v, b.v, true);
            } else {
                // Residual link edge: cancel flow b → a.
                self.flow.put(dim(a.v, b.v), b.v, false);
                self.block(a.v, b.v, false);
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
}

/// Routes every pair across up to `k` disjoint paths, in parallel,
/// preserving input order — the many-to-many batch variant on the
/// vendored-rayon chunked executor. Each outcome is a pure function of
/// `(cfg, map, pair, k)`, and chunks commit in order, so the result is
/// bitwise identical at any `RAYON_NUM_THREADS` (CI diffs 1 vs 4).
///
/// Degenerate `s == d` pairs yield an all-zero outcome — the
/// `disjoint_paths` contract fix this PR exists so such pairs cannot
/// kill a batch.
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
        let dims: Vec<u8> = cfg.cube().preferred_dims(s, d).collect();
        let rotations = (0..dims.len()).map(|i| optimal_candidate(s, &dims, i));
        let detours = cfg
            .cube()
            .spare_dims(s, d)
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
                    augment_to_max(&cfg, s, d, &[], k),
                    reference_augment(&cfg, s, d, Vec::new(), k),
                    "empty flow, k = {}", k
                );
                let p = usize::from(pick) % (max.len().min(usize::from(k)) + 1);
                let initial = max[..p].to_vec();
                prop_assert_eq!(
                    augment_to_max(&cfg, s, d, &initial, k),
                    reference_augment(&cfg, s, d, initial, k),
                    "prefix of {} paths, k = {}", p, k
                );
                let winding = winding_flow(&cfg, s, d, k, &mut rng);
                prop_assert_eq!(
                    augment_to_max(&cfg, s, d, &winding, k),
                    reference_augment(&cfg, s, d, winding, k),
                    "winding flow, k = {}", k
                );
                let fan = fan_survivors(&cfg, s, d, k);
                prop_assert_eq!(
                    augment_to_max(&cfg, s, d, &fan, k),
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
                augment_to_max(&cfg, s, d, &[], k),
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
}
