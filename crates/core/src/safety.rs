//! Safety levels — Definition 1 and Theorem 1 of the paper.
//!
//! Each node of a faulty `n`-cube carries a *safety level*
//! `0 ≤ k ≤ n`: faulty nodes are 0-safe; a nonfaulty node's level is
//! determined by the nondecreasing sequence `(S_0, …, S_{n-1})` of its
//! neighbors' levels:
//!
//! > if `(S_0, …, S_{n-1}) ≥ (0, 1, …, n−1)` then `S(a) = n`
//! > else if `(S_0, …, S_{k-1}) ≥ (0, …, k−1) ∧ S_k = k−1` then `S(a) = k`.
//!
//! Equivalently (and the form used by [`level_from_sorted`]):
//! `S(a)` is the least index `k` with `S_k < k`, or `n` when no such
//! index exists. The two forms agree on every reachable state because
//! the sequence is sorted: `S_{k-1} ≥ k−1` and `S_k < k` force
//! `S_k = k−1`.
//!
//! Theorem 1 states the fixed point exists and is unique; this module
//! computes it two independent ways (Jacobi iteration from the all-`n`
//! start, and the constructive round-by-round assignment from the
//! theorem's proof), which the test suite cross-checks.
//!
//! ## Bit-plane kernels
//!
//! Both computations run on the packed [`PlaneView`] representation
//! from [`crate::level_store`] (see DESIGN.md §13): levels live as
//! ⌈log₂(n+1)⌉ bit-planes, a neighbor's levels along dimension `d`
//! are one word shuffle per plane (an in-word delta swap for `d < 6`,
//! an XOR-indexed word load above), and Definition 1's "more than `k`
//! neighbors below `k`" test runs branchlessly for 64 nodes at a time
//! via bit-sliced counters. The historical byte-per-node scalar sweep
//! survives as [`SafetyMap::compute_reference`], the differential
//! oracle the plane kernels are checked against (exhaustively on
//! small cubes, on goldens and random instances above).
//!
//! ## Frontier rounds
//!
//! [`SafetyMap::compute`] runs the Jacobi rounds but evaluates only
//! what can change. Round 1 needs only the fault bitmap: a healthy node
//! drops to 1 iff two or more of its neighbors are faulty. After that,
//! a node's next level can differ only if a neighbor's level changed,
//! and one that does change has at least two neighbors that changed in
//! the round before (DESIGN.md §13). So each round visits the
//! neighbours of the last round's changes and evaluates those met
//! twice and still at `n`, one `rule_level` each on the packed store,
//! against the old levels, applying the changes after. While the
//! changes are many for the cube's size a round sweeps the planes
//! instead. Either way a round changes exactly the nodes a full sweep
//! would, so every round's levels and the round count are those of
//! the full sweep. A generalized hypercube's map runs the same frontier
//! rounds, generic over the topology's ports, and sweeps in place of
//! the planes: [`SafetyMap::compute_in`] takes either topology, whose
//! type picks the kernel ([`Readings`]).
//!
//! ## Faulty links
//!
//! [`SafetyMap::compute_in`] takes faulty links (§4.1, [`crate::egs`]):
//! the levels are then the *advertised* ones, the fixed point over
//! `F ∪ N2`, and the map keeps a sorted list of each `N2` node's *own*
//! level ([`SafetyMap::own_level`]). The list is empty without faulty
//! links, for a generalized hypercube and for a map built from levels.

use crate::egs;
use crate::level_store::{
    gather_neighbor_word, sliced_add, sliced_gt_const, tail_mask, LevelStore, PlaneView,
};
use crate::safety_delta::with_clear_marks;
use hypersafe_topology::{BitDims, FaultConfig, Faults, Hypercube, NodeId, Topology, MAX_DIM};
use std::borrow::Cow;

/// Safety level of one node: `0..=n`. `n` means *safe*; anything less
/// is *unsafe*; `0` is the level of a faulty node.
pub type Level = u8;

/// Applies Definition 1 to an already-sorted (nondecreasing) neighbor
/// level sequence of length `n`. Returns the node's safety level.
/// # Examples
///
/// ```
/// use hypersafe_core::level_from_sorted;
/// // Two faulty neighbors → 1-safe; the borderline (0,1,2,3) → safe.
/// assert_eq!(level_from_sorted(4, &[0, 0, 4, 4]), 1);
/// assert_eq!(level_from_sorted(4, &[0, 1, 2, 3]), 4);
/// ```
#[inline]
pub fn level_from_sorted(n: u8, sorted: &[Level]) -> Level {
    debug_assert_eq!(sorted.len(), n as usize);
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "sequence must be sorted"
    );
    for (i, &s) in sorted.iter().enumerate() {
        if (s as usize) < i {
            return i as Level;
        }
    }
    n
}

/// Applies Definition 1 to an unsorted neighbor level stream without
/// sorting or allocating: builds a level histogram on the stack and
/// returns the least `k` with more than `k` neighbors of level `< k`
/// (else `n`). Equivalent to [`level_from_sorted`] on the sorted
/// sequence because, with the sequence sorted nondecreasingly,
/// `S_k < k` holds iff at least `k + 1` entries are below `k`.
///
/// # Examples
///
/// ```
/// use hypersafe_core::{level_from_sorted, level_from_unsorted};
/// assert_eq!(level_from_unsorted(4, [4, 0, 4, 0]), 1);
/// assert_eq!(level_from_unsorted(4, [3, 1, 0, 2]), 4);
/// assert_eq!(level_from_unsorted(4, [4, 4, 0, 4]), 4);
/// ```
#[inline]
pub fn level_from_unsorted<I: IntoIterator<Item = Level>>(n: u8, levels: I) -> Level {
    // Levels are 0..=n ≤ MAX_DIM, so a small fixed histogram suffices.
    let mut counts = [0u32; MAX_DIM as usize + 1];
    for l in levels {
        counts[l as usize] += 1;
    }
    let mut below = 0u32; // #neighbors with level < k
    for k in 0..n as u32 {
        if below > k {
            return k as Level;
        }
        below += counts[k as usize];
    }
    n
}

/// [`level_from_unsorted`] with less work per call, for [`rule_level`]:
/// the histogram is 32 bytes (one store to clear), neighbours at the
/// ceiling `n` are not counted (the scan never reads them), and the
/// scan stops once `k` reaches the number `low` of neighbours below
/// `n`, which bounds every "neighbours below `k`".
#[inline(always)]
pub(crate) fn level_from_low_counts(n: u8, levels: impl IntoIterator<Item = Level>) -> Level {
    let mut counts = [0u8; 32];
    let mut low = 0u8;
    for l in levels {
        if l < n {
            counts[l as usize & 31] += 1;
            low += 1;
        }
    }
    let mut below = 0u8; // #neighbors with level < k
    for k in 0..low.min(n) {
        if below > k {
            return k;
        }
        below += counts[k as usize];
    }
    n
}

/// The safety level of every node of one faulty topology instance,
/// indexed by the node's linear index: a binary cube (the default) or,
/// with `T = &GeneralizedHypercube`, a generalized hypercube. The map
/// carries its topology, so a map of one topology cannot be read as
/// another's, and two maps are equal only over the same topology.
/// Levels are held packed (0.625–0.75 bytes/node, [`LevelStore`]) — an
/// n=20 cube's map is 768 KiB instead of 1 MiB, and the compute kernels
/// below never materialize a byte per node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SafetyMap<T: Topology = Hypercube> {
    space: T,
    /// Advertised levels: what every other node reads.
    levels: LevelStore,
    /// Each `N2` node's own level (§4.1), ascending by node: `N2` is
    /// exactly the keys. Every other node's own level is its advertised
    /// one.
    n2: Vec<(T::Node, Level)>,
    /// Active rounds the computation needed (Fig. 2's metric); 0 for a
    /// map built directly from levels.
    rounds: u32,
}

/// One Jacobi round on planes: for every 64-node word, gather the
/// `n` neighbor words per plane, run Definition 1's histogram rule as
/// bit-sliced arithmetic, and write the next round's planes. Returns
/// how many levels changed (a popcount of the word-XOR instead of a
/// per-node compare).
///
/// A word leaves the `k` loop as soon as its outcome is fixed: no
/// unassigned lane has more than `k` neighbors below `n` (DESIGN.md
/// §13). At sparse fault densities most words stop at `k = 1`.
///
/// Inlined into both callers ([`SafetyMap::compute`] and
/// [`SafetyMap::check_fixed_point`]): called out of line, Q20
/// `compute` ran 4–14% slower (best and median of ten runs).
#[inline(always)]
fn jacobi_round_planes(n: u8, cur: &PlaneView, faulty: &[u64], next: &mut PlaneView) -> u64 {
    let bits = cur.bits() as usize;
    let mut changed = 0u64;
    for (w, &faulty_w) in faulty.iter().enumerate().take(cur.words()) {
        let valid = cur.valid_mask(w);
        // Neighbor plane words, dimension-major: g[d][b] bit j is bit
        // b of the level of node (64w + j) ^ 2^d.
        let mut g = [[0u64; 5]; MAX_DIM as usize];
        for (d, gd) in g.iter_mut().enumerate().take(n as usize) {
            for (b, lane) in gd.iter_mut().enumerate().take(bits) {
                *lane = gather_neighbor_word(cur.plane(b), w, d as u8);
            }
        }
        // "#neighbors with level ≠ n" bounds every "#neighbors below k"
        // from above, so a lane with at most k of them can be assigned
        // neither at k nor later: once no unassigned lane beats k, the
        // word's outcome is fixed and the rest get n below.
        let mut below_n = [0u64; 5];
        for gd in g.iter().take(n as usize) {
            sliced_add(&mut below_n, !lanes_at_level(gd, bits, n as u32));
        }
        // Walk k = 1..n accumulating "#neighbors with level < k" in a
        // bit-sliced counter; the first k that exceeds k wins (faulty
        // nodes are pre-assigned 0 and never re-enter).
        let mut cnt = [0u64; 5];
        let mut assigned = faulty_w;
        let mut res = [0u64; 5];
        for k in 1..n as u32 {
            if sliced_gt_const(&below_n, k) & !assigned & valid == 0 {
                break;
            }
            for gd in g.iter().take(n as usize) {
                sliced_add(&mut cnt, lanes_at_level(gd, bits, k - 1));
            }
            let new = sliced_gt_const(&cnt, k) & !assigned & valid;
            if new != 0 {
                assigned |= new;
                for (b, lane) in res.iter_mut().enumerate().take(bits) {
                    if (k >> b) & 1 == 1 {
                        *lane |= new;
                    }
                }
            }
        }
        // Survivors of every test are safe (level n).
        let rem = !assigned & valid;
        for (b, lane) in res.iter_mut().enumerate().take(bits) {
            if ((n as u32) >> b) & 1 == 1 {
                *lane |= rem;
            }
        }
        let mut diff = 0u64;
        for (b, &lane) in res.iter().enumerate().take(bits) {
            diff |= lane ^ cur.plane(b)[w];
            next.plane_mut(b)[w] = lane;
        }
        changed += diff.count_ones() as u64;
    }
    changed
}

/// Lanes of one gathered neighbor word (`bits` level planes) whose
/// level is `l`.
#[inline(always)]
fn lanes_at_level(planes: &[u64; 5], bits: usize, l: u32) -> u64 {
    let mut eq = !0u64;
    for (b, lane) in planes.iter().enumerate().take(bits) {
        eq &= if (l >> b) & 1 == 1 { *lane } else { !*lane };
    }
    eq
}

/// Bit `j` is set iff node `64w + j` has different levels in `a` and
/// `b`.
fn plane_diff_word(a: &PlaneView, b: &PlaneView, w: usize) -> u64 {
    (0..a.bits() as usize).fold(0, |acc, p| acc | (a.plane(p)[w] ^ b.plane(p)[w]))
}

/// Round 1 of the Jacobi iteration from the fault bitmap alone. In the
/// initial state every neighbor is at 0 (faulty) or at `n`, so the
/// only count Definition 1 can see is "faulty neighbors", and a
/// healthy node drops to 1 iff it has two or more of them; every other
/// node keeps its level. Writes those nodes into `ones` (64 per word)
/// and returns their number: `n` gathers of one plane per word into a
/// two-bit saturating count.
fn first_round(n: u8, len: u64, faulty: &[u64], ones: &mut [u64]) -> u64 {
    let mut count = 0u64;
    for (w, out) in ones.iter_mut().enumerate() {
        let (mut one, mut two) = (0u64, 0u64);
        for d in 0..n {
            let g = gather_neighbor_word(faulty, w, d);
            two |= one & g;
            one |= g;
        }
        *out = two & !faulty[w] & tail_mask(len - w as u64 * 64);
        count += out.count_ones() as u64;
    }
    count
}

/// The state after round 1 as planes: faulty nodes 0, the nodes in
/// `ones` 1, every other node `n`. Clears `ones` as it reads it.
fn first_round_planes(n: u8, len: u64, faulty: &[u64], ones: &mut [u64]) -> PlaneView {
    let mut v = PlaneView::zeroed(n, len);
    for (w, one) in ones.iter_mut().enumerate() {
        let one = std::mem::take(one);
        let ceiling = !faulty[w] & !one & v.valid_mask(w);
        for b in 0..v.bits() as usize {
            let mut lane = if ((n as u32) >> b) & 1 == 1 {
                ceiling
            } else {
                0
            };
            if b == 0 {
                lane |= one;
            }
            v.plane_mut(b)[w] = lane;
        }
    }
    v
}

/// Frontier visits per plane word at which a frontier round costs
/// about what a plane round does: a round runs on the frontier while
/// the last round's changes times `n` (the neighbours it visits) stay
/// at or below this many per word. Measured per round on a 2-vCPU
/// Xeon from Q10 to Q20, a plane round costs 130–650 ns per word, more
/// as the levels spread, and a visit 10–50 ns: a mark-bit test, plus
/// one [`rule_level`] for a node met twice. Where the
/// frontier is near this size, on uniform faults, a word cost 11–23
/// visits; only the first rounds of one compact cluster, where nearly
/// every node visited is met twice and few words hold any change, came
/// out at 2.5–4, and those rounds are cheap either way.
const FRONTIER_VISITS_PER_WORD: u64 = 12;

/// Whether the round after one that changed `changed` nodes of an
/// `n`-cube of `len` nodes runs on the frontier rather than the planes.
fn frontier_is_sparse(changed: u64, n: u8, len: u64) -> bool {
    changed * n as u64 <= FRONTIER_VISITS_PER_WORD * len.div_ceil(64)
}

/// What [`SafetyMap::compute_trace`] records.
#[derive(Default)]
struct Trace {
    /// The levels before round 1 and after every active round.
    levels: Vec<Vec<Level>>,
    /// For every round after the first, the last (quiescent) one
    /// included, whether it ran on the frontier rather than the planes.
    frontier: Vec<bool>,
}

/// Where the rounds of [`SafetyMap::compute`] hold the levels between
/// rounds.
enum Rounds {
    /// Every word is swept: `cur` holds the levels, `prev` the levels
    /// one round before (then the next round's output buffer).
    Planes { cur: PlaneView, prev: PlaneView },
    /// Only the neighbours of `frontier`, the nodes the last round
    /// changed, are visited, on the packed store.
    Nodes {
        levels: LevelStore,
        frontier: Vec<NodeId>,
    },
}

impl Rounds {
    fn to_vec(&self) -> Vec<Level> {
        match self {
            Rounds::Planes { cur, .. } => cur.to_store().to_vec(),
            Rounds::Nodes { levels, .. } => levels.to_vec(),
        }
    }
}

/// Definition 1 (Definition 4 in a generalized hypercube) at `a` over
/// the packed store, from `a`'s readings; pinning a faulty `a` to 0 is
/// the caller's part. Both topologies' frontier rounds, the delta and
/// [`SafetyMap::check_fixed_point_since`] evaluate the rule here;
/// [`SafetyMap::compute_reference`] keeps its own histogram copy as
/// the independent oracle.
#[inline(always)]
pub(crate) fn rule_level<S: Readings>(space: S, levels: &LevelStore, a: S::Node) -> Level {
    level_from_low_counts(space.dim(), space.readings(levels, a))
}

/// What Definition 1 reads at a node over a topology, one level per
/// dimension: in `Q_n` the neighbour's level (Definition 1); in a
/// generalized hypercube the lowest level in the rest of the clique
/// (Definition 4, implemented in [`crate::gh_safety`]). The topologies
/// a safety map is computed and broadcast over.
pub trait Readings: Topology {
    /// The level each dimension of `a` reads from `levels`, by
    /// ascending dimension.
    fn readings(self, levels: &LevelStore, a: Self::Node) -> impl Iterator<Item = Level>;

    /// [`SafetyMap::compute_in`]'s rounds over the faulty nodes
    /// `faulty` (one bit per node, fitted): the topology's own kernel,
    /// the faster one on it. No caller outside the crate can name
    /// [`Kernel`], so none can call or implement this.
    #[doc(hidden)]
    fn fixed_point(self, faulty: &[u64], _: Kernel) -> SafetyMap<Self>;
}

pub(crate) mod sealed {
    /// Seals [`super::Readings::fixed_point`].
    pub struct Kernel;
}
pub(crate) use sealed::Kernel;

impl Readings for Hypercube {
    #[inline(always)]
    fn readings(self, levels: &LevelStore, a: NodeId) -> impl Iterator<Item = Level> {
        self.neighbours(a).map(move |b| levels.get(b.raw()))
    }

    /// The planes-plus-frontier rounds (the module's *Frontier rounds*).
    fn fixed_point(self, faulty: &[u64], _: Kernel) -> SafetyMap {
        SafetyMap::cube_rounds(self, faulty, None)
    }
}

/// A node set's fault words fitted to `len` nodes: a narrower set is
/// padded with clear words (the nodes past it are healthy), and a wider
/// one is borrowed (no round reads its members past the last node).
fn fitted(words: &[u64], len: u64) -> Cow<'_, [u64]> {
    let pad = (len.div_ceil(64) as usize).saturating_sub(words.len());
    match pad {
        0 => Cow::Borrowed(words),
        _ => Cow::Owned([words, &vec![0; pad]].concat()),
    }
}

/// One Jacobi round over the open neighbourhoods of `frontier`, the
/// nodes the last round changed (round 0 sets the faults to 0): no
/// other node can change. By DESIGN.md §13, a node changes at most
/// once, from `n`, and only if two of its neighbours changed in the
/// round before, so only nodes at `n` met twice are evaluated, against
/// the levels before the round; the changes land after. Faulty nodes
/// are skipped as they are met, which keeps the list short. `marks`,
/// left clear, records the healthy nodes met once. On return
/// `frontier` holds the nodes this round changed; returns their number.
pub(crate) fn frontier_round<S: Readings>(
    space: S,
    levels: &mut LevelStore,
    faulty: &[u64],
    marks: &mut [u64],
    frontier: &mut Vec<S::Node>,
    changes: &mut Vec<(S::Node, Level)>,
) -> u64 {
    let bit_of = |c: S::Node| ((S::raw(c) / 64) as usize, 1u64 << (S::raw(c) % 64));
    changes.clear();
    for c in frontier.iter().flat_map(|&v| space.neighbours(v)) {
        let (w, bit) = bit_of(c);
        if faulty[w] & bit != 0 {
            continue;
        }
        if marks[w] & bit != 0 {
            changes.push((c, 0));
        }
        marks[w] |= bit;
    }
    // A node met three times or more is listed more than once; its
    // first entry evaluates it and clears its mark.
    changes.retain_mut(|(c, level)| {
        let (w, bit) = bit_of(*c);
        if marks[w] & bit == 0 {
            return false;
        }
        marks[w] &= !bit;
        if levels.get(S::raw(*c)) != space.dim() {
            return false;
        }
        *level = rule_level(space, levels, *c);
        *level != space.dim()
    });
    for c in frontier.iter().flat_map(|&v| space.neighbours(v)) {
        let (w, bit) = bit_of(c);
        marks[w] &= !bit;
    }
    frontier.clear();
    for &(c, level) in changes.iter() {
        levels.set(S::raw(c), level);
        frontier.push(c);
    }
    changes.len() as u64
}

impl<T: Topology> SafetyMap<T> {
    /// Wraps precomputed levels, one per node by linear index (packs
    /// them into the [`LevelStore`]).
    ///
    /// # Panics
    ///
    /// If `levels` does not hold exactly one level per node of `space`.
    pub fn from_levels(space: T, levels: Vec<Level>) -> Self {
        Self::from_store(space, LevelStore::from_levels(space.dim(), &levels))
    }

    /// Wraps an already-packed store (the zero-copy counterpart of
    /// [`SafetyMap::from_levels`], used by consumers that edit a
    /// cloned store).
    ///
    /// # Panics
    ///
    /// If `store` does not hold one level per node of `space`, or its
    /// ceiling is not `space`'s dimension.
    pub fn from_store(space: T, store: LevelStore) -> Self {
        assert_eq!(store.len(), space.num_nodes());
        assert_eq!(store.max_level(), space.dim());
        SafetyMap {
            space,
            levels: store,
            n2: Vec::new(),
            rounds: 0,
        }
    }

    /// Number of dimensions `n`, also the safe level.
    #[inline]
    pub fn dim(&self) -> u8 {
        self.space.dim()
    }

    /// The topology the levels describe.
    #[inline]
    pub fn space(&self) -> T {
        self.space
    }

    /// Safety level of node `a`: in a cube with faulty links, the
    /// level `a` advertises to the rest of the network (§4.1).
    #[inline]
    pub fn level(&self, a: T::Node) -> Level {
        self.levels.get(T::raw(a))
    }

    /// Safety level of `a` in its own view: its advertised level,
    /// except at an `N2` node (§4.1), which advertises 0 but evaluates
    /// Definition 1 once over its neighbours' advertised levels. The
    /// source applies `C1` with it.
    #[inline(always)]
    pub fn own_level(&self, a: T::Node) -> Level {
        // Maps without faulty links pay this one branch. The search
        // stays out of line: inlined, it kept the walks from inlining
        // this, and batch-route's routes took a call each.
        if self.n2.is_empty() {
            return self.level(a);
        }
        self.n2_level(a).unwrap_or(self.level(a))
    }

    /// Whether `a`'s own level is below `n`: its bit in the store's
    /// below-ceiling plane, unless `a` is an `N2` node, whose own level
    /// differs from the 0 it advertises.
    #[inline(always)]
    pub(crate) fn own_below(&self, a: T::Node) -> bool {
        if self.n2.is_empty() {
            return self.levels.below(T::raw(a));
        }
        self.n2_level(a)
            .map_or_else(|| self.levels.below(T::raw(a)), |l| l < self.dim())
    }

    /// Whether `a` is a nonfaulty node with an adjacent faulty link.
    pub fn is_n2(&self, a: T::Node) -> bool {
        self.n2_level(a).is_some()
    }

    /// `a`'s own level if `a` is an `N2` node.
    #[cold]
    fn n2_level(&self, a: T::Node) -> Option<Level> {
        let i = self
            .n2
            .binary_search_by_key(&T::raw(a), |&(b, _)| T::raw(b));
        Some(self.n2[i.ok()?].1)
    }

    /// Whether `a` is *safe* (level `n`): one bit of the store's
    /// below-ceiling plane.
    #[inline]
    pub fn is_safe(&self, a: T::Node) -> bool {
        !self.levels.below(T::raw(a))
    }

    /// Active rounds the producing computation used.
    #[inline]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Overrides the recorded round count (used by the distributed
    /// engines that measure rounds themselves).
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }

    /// All safe nodes, ascending.
    pub fn safe_nodes(&self) -> Vec<T::Node> {
        self.safe_nodes_iter().collect()
    }

    /// Iterator over the safe nodes, ascending — the allocation-free
    /// form of [`SafetyMap::safe_nodes`] for hot paths that only scan
    /// or count (one packed equality mask per 64 nodes).
    pub fn safe_nodes_iter(&self) -> impl Iterator<Item = T::Node> + '_ {
        self.levels.iter_eq(self.dim()).map(T::from_raw)
    }

    /// Number of safe nodes (no allocation — popcount over the store).
    pub fn safe_count(&self) -> usize {
        self.levels.count_eq(self.dim()) as usize
    }

    /// The packed store of the advertised levels — the seam every
    /// consumer reads levels through. Clone it to edit a what-if copy
    /// and rewrap with [`SafetyMap::from_store`]. The `N2` nodes' own
    /// levels are not in it ([`SafetyMap::own_level`]).
    #[inline]
    pub fn store(&self) -> &LevelStore {
        &self.levels
    }

    /// Unpacks into a byte-per-level vector, indexed by node (the
    /// bridge for code that wants plain bytes; prefer
    /// [`SafetyMap::store`] or [`SafetyMap::level`] on hot paths).
    pub fn to_vec(&self) -> Vec<Level> {
        self.levels.to_vec()
    }

    /// Overwrites one level (incremental maintenance only — see
    /// `safety_delta`).
    #[inline]
    pub(crate) fn set_level(&mut self, a: T::Node, l: Level) {
        self.levels.set(T::raw(a), l);
    }

    /// Overwrites the recorded round count in place.
    #[inline]
    pub(crate) fn set_rounds(&mut self, rounds: u32) {
        self.rounds = rounds;
    }
}

impl<T: Readings> SafetyMap<T> {
    /// Computes the unique fixed point of Definition 1 (Definition 4
    /// in a generalized hypercube) over `space` with the faulty nodes
    /// and links of `faults` (a cube's [`FaultConfig`], or a bare node
    /// set): Jacobi rounds from the paper's initial state (faulty = 0,
    /// nonfaulty = `n`), the centralized shadow of `GLOBAL_STATUS`, on
    /// the topology's own kernel ([`Readings`]). A node set narrower
    /// than `space` leaves the nodes past it healthy, and members past
    /// the last node are ignored. With faulty links this is EGS (§4.1):
    /// the rounds run over `F ∪ N2`, and each `N2` node then evaluates
    /// its own level once. [`crate::run_gs`] reaches the same map.
    pub fn compute_in(space: T, faults: &impl Faults<T>) -> Self {
        Self::compute_with(space, faults, |faulty| space.fixed_point(faulty, Kernel))
    }

    /// [`SafetyMap::compute_in`] with `rounds` as the kernel.
    fn compute_with(space: T, faults: &impl Faults<T>, run: impl FnOnce(&[u64]) -> Self) -> Self {
        let faulty = fitted(faults.node_faults().words(), space.num_nodes());
        let Some((n2, effective)) = egs::split(space, faults, &faulty) else {
            return run(&faulty);
        };
        let map = run(&effective);
        let own = egs::own_levels(&map, &n2);
        map.with_n2(own)
    }

    /// Sets the `N2` nodes' own levels, ascending by node.
    pub(crate) fn with_n2(mut self, n2: Vec<(T::Node, Level)>) -> Self {
        debug_assert!(n2.windows(2).all(|w| T::raw(w[0].0) < T::raw(w[1].0)));
        self.n2 = n2;
        self
    }
}

impl SafetyMap {
    /// `compute_in(cfg.cube(), cfg)`, the cube's shorthand.
    /// Byte-identical to [`SafetyMap::compute_reference`] (same rounds,
    /// same levels) by construction and by differential test.
    ///
    /// Each round evaluates only nodes that can change (the module's
    /// *Frontier rounds*): round 1 reads the fault bitmap alone, and
    /// each later round evaluates the nodes next to two or more of the
    /// round before's changes, on the packed store, or sweeps every
    /// 64-node word on bit-planes when those changes are many. With
    /// sparse faults the work after round 1 is proportional to the
    /// nodes near the faults, not to `2ⁿ`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hypersafe_topology::{Hypercube, FaultSet, FaultConfig, NodeId};
    /// use hypersafe_core::SafetyMap;
    ///
    /// // Fig. 1: the faulty 4-cube of the paper.
    /// let cube = Hypercube::new(4);
    /// let faults = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
    /// let cfg = FaultConfig::with_node_faults(cube, faults);
    /// let map = SafetyMap::compute(&cfg);
    /// assert_eq!(map.level(NodeId::from_binary("0101").unwrap()), 2);
    /// assert_eq!(map.rounds(), 2); // stable after two rounds
    /// ```
    pub fn compute(cfg: &FaultConfig) -> Self {
        Self::compute_in(cfg.cube(), cfg)
    }

    /// [`SafetyMap::compute`] that also snapshots the unpacked level
    /// vector after every active round (the differential-testing hook
    /// behind "round-by-round equality" in the proptests). The first
    /// entry is the initial state, the last the fixed point. A snapshot
    /// is the whole level vector whether its round swept the planes or
    /// evaluated a frontier, so it equals the scalar sweep's
    /// ([`SafetyMap::compute_reference_trace`]) entry for entry. With
    /// faulty links the snapshots are of the advertised levels.
    pub fn compute_trace(cfg: &FaultConfig) -> (Self, Vec<Vec<Level>>) {
        let mut trace = Trace::default();
        let map = Self::compute_with(cfg.cube(), cfg, |f| {
            Self::cube_rounds(cfg.cube(), f, Some(&mut trace))
        });
        (map, trace.levels)
    }

    /// The Jacobi rounds of [`SafetyMap::compute`] over the faulty
    /// nodes `faulty`, one bit per node.
    fn cube_rounds(cube: Hypercube, faulty: &[u64], mut trace: Option<&mut Trace>) -> Self {
        let len = cube.num_nodes();
        let start =
            || SafetyMap::from_store(cube, LevelStore::ceiling_except(cube.dim(), len, faulty));
        if let Some(t) = trace.as_deref_mut() {
            t.levels.push(start().to_vec());
        }
        // The frontier buffers hold the largest frontier a frontier
        // round starts from, so they rarely grow and every compute on a
        // cube asks for the same two sizes. Grown round by round, they
        // left small freed blocks that later large allocations could
        // not reuse: fan-dense peaked 0.12 MB higher in 6 of 16 seeds.
        let cap = (FRONTIER_VISITS_PER_WORD * len.div_ceil(64) / cube.dim() as u64) as usize;
        with_clear_marks(len, |marks| {
            let n = cube.dim();
            let ones = first_round(n, len, faulty, marks);
            if ones == 0 {
                return start();
            }
            let mut state = if frontier_is_sparse(ones, n, len) {
                let mut levels = start().levels;
                let mut frontier = Vec::with_capacity(cap);
                for (w, m) in marks.iter_mut().enumerate() {
                    for j in BitDims(std::mem::take(m)) {
                        let a = w as u64 * 64 + j as u64;
                        levels.set(a, 1);
                        frontier.push(NodeId::new(a));
                    }
                }
                Rounds::Nodes { levels, frontier }
            } else {
                Rounds::Planes {
                    cur: first_round_planes(n, len, faulty, marks),
                    prev: PlaneView::zeroed(n, len),
                }
            };
            let mut changed = ones;
            let mut active = 1u32;
            let mut changes = Vec::with_capacity(cap);
            loop {
                if let Some(t) = trace.as_deref_mut() {
                    t.levels.push(state.to_vec());
                }
                // Each round runs where the last one's changes make it
                // cheaper; either kind changes exactly the nodes a full
                // Jacobi round would.
                let sparse = frontier_is_sparse(changed, n, len);
                state = match state {
                    Rounds::Planes { cur, prev } if sparse => {
                        let mut frontier = Vec::with_capacity(cap);
                        frontier.extend((0..cur.words()).flat_map(|w| {
                            BitDims(plane_diff_word(&cur, &prev, w))
                                .map(move |j| NodeId::new(w as u64 * 64 + j as u64))
                        }));
                        Rounds::Nodes {
                            frontier,
                            levels: cur.to_store(),
                        }
                    }
                    Rounds::Nodes { levels, .. } if !sparse => Rounds::Planes {
                        cur: PlaneView::from_store(&levels),
                        prev: PlaneView::zeroed(n, len),
                    },
                    r => r,
                };
                if let Some(t) = trace.as_deref_mut() {
                    t.frontier.push(matches!(state, Rounds::Nodes { .. }));
                }
                changed = match &mut state {
                    Rounds::Planes { cur, prev } => {
                        let c = jacobi_round_planes(n, cur, faulty, prev);
                        if c != 0 {
                            std::mem::swap(cur, prev);
                        }
                        c
                    }
                    Rounds::Nodes { levels, frontier } => {
                        frontier_round(cube, levels, faulty, marks, frontier, &mut changes)
                    }
                };
                if changed == 0 {
                    break;
                }
                active += 1;
            }
            let levels = match state {
                Rounds::Planes { cur, .. } => cur.to_store(),
                Rounds::Nodes { levels, .. } => levels,
            };
            SafetyMap::from_store(cube, levels).with_rounds(active)
        })
    }

    /// The historical byte-per-node Jacobi sweep, kept as the
    /// differential oracle for the plane kernels (and as the honest
    /// scalar baseline E27 times them against). Returns the raw level
    /// vector; [`SafetyMap::compute_reference`] wraps it.
    ///
    /// # Panics
    ///
    /// If `cfg` holds a faulty link.
    pub fn compute_reference_levels(cfg: &FaultConfig) -> Vec<Level> {
        Self::reference_inner(cfg, None).0
    }

    /// Scalar counterpart of [`SafetyMap::compute_trace`] — snapshots
    /// the level vector after every active round.
    ///
    /// # Panics
    ///
    /// If `cfg` holds a faulty link.
    pub fn compute_reference_trace(cfg: &FaultConfig) -> (Self, Vec<Vec<Level>>) {
        let mut trace = Vec::new();
        let (levels, rounds) = Self::reference_inner(cfg, Some(&mut trace));
        let map = SafetyMap::from_levels(cfg.cube(), levels).with_rounds(rounds);
        (map, trace)
    }

    /// [`SafetyMap::compute_reference_levels`] packaged as a map
    /// (packs the result; `rounds()` matches [`SafetyMap::compute`]).
    ///
    /// # Panics
    ///
    /// If `cfg` holds a faulty link.
    pub fn compute_reference(cfg: &FaultConfig) -> Self {
        let (levels, rounds) = Self::reference_inner(cfg, None);
        SafetyMap::from_levels(cfg.cube(), levels).with_rounds(rounds)
    }

    fn reference_inner(
        cfg: &FaultConfig,
        mut trace: Option<&mut Vec<Vec<Level>>>,
    ) -> (Vec<Level>, u32) {
        assert!(
            cfg.link_faults().is_empty(),
            "the reference handles node faults only; SafetyMap::compute takes link faults"
        );
        let cube = cfg.cube();
        let n = cube.dim();
        let mut levels: Vec<Level> = cube
            .nodes()
            .map(|a| if cfg.node_faulty(a) { 0 } else { n })
            .collect();
        if let Some(t) = trace.as_deref_mut() {
            t.push(levels.clone());
        }
        let mut rounds = 0u32;
        let mut next = levels.clone();
        loop {
            let mut changed = false;
            for a in cube.nodes() {
                let idx = a.raw() as usize;
                if cfg.node_faulty(a) {
                    continue;
                }
                let lv =
                    level_from_unsorted(n, cube.neighbours(a).map(|b| levels[b.raw() as usize]));
                next[idx] = lv;
                changed |= lv != levels[idx];
            }
            if !changed {
                break;
            }
            std::mem::swap(&mut levels, &mut next);
            rounds += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.push(levels.clone());
            }
        }
        (levels, rounds)
    }

    /// Computes the same fixed point by the constructive assignment in
    /// the proof of Theorem 1: at round `k`, every still-unassigned
    /// nonfaulty node with `k + 1` or more neighbors of level `≤ k − 1`
    /// receives level `k`; after round `n − 1`, survivors receive `n`.
    /// The rounds stop early at the first one that assigns no node (no
    /// later one could), but `rounds()` reports `n − 1`, the schedule's
    /// length.
    ///
    /// On planes this is even simpler than the Jacobi round: "neighbor
    /// with level below `k`" is exactly "neighbor already assigned"
    /// (faulty or claimed by an earlier round), so round `k` is one
    /// gather-and-count over the single `assigned` plane — no per-level
    /// equality masks at all. Cost over all `n − 1` rounds is
    /// `O(n² / 64)` word ops per node.
    ///
    /// # Panics
    ///
    /// If `cfg` holds a faulty link.
    pub fn compute_constructive(cfg: &FaultConfig) -> Self {
        assert!(cfg.link_faults().is_empty(), "node faults only");
        let cube = cfg.cube();
        let n = cube.dim();
        let len = cube.num_nodes();
        let mut res = PlaneView::zeroed(n, len);
        let bits = res.bits() as usize;
        let words = res.words();
        // Round k reads only levels assigned in earlier rounds;
        // `snapshot` pins the pre-round state so in-round assignments
        // (which land in `assigned`) can't feed back into the count.
        let mut assigned: Vec<u64> = cfg.node_faults().words().to_vec();
        let mut snapshot = vec![0u64; words];
        for k in 1..n as u32 {
            snapshot.copy_from_slice(&assigned);
            let mut any = false;
            for (w, assigned_w) in assigned.iter_mut().enumerate() {
                let mut cnt = [0u64; 5];
                for d in 0..n {
                    sliced_add(&mut cnt, gather_neighbor_word(&snapshot, w, d));
                }
                let new = sliced_gt_const(&cnt, k) & !*assigned_w & res.valid_mask(w);
                if new != 0 {
                    any = true;
                    *assigned_w |= new;
                    for b in 0..bits {
                        if (k >> b) & 1 == 1 {
                            res.plane_mut(b)[w] |= new;
                        }
                    }
                }
            }
            // A round that assigns nobody leaves the assigned set as it
            // was, and the next round's threshold is higher, so no later
            // round can assign anyone either.
            if !any {
                break;
            }
        }
        for (w, &assigned_w) in assigned.iter().enumerate().take(words) {
            let rem = !assigned_w & res.valid_mask(w);
            for b in 0..bits {
                if ((n as u32) >> b) & 1 == 1 {
                    res.plane_mut(b)[w] |= rem;
                }
            }
        }
        SafetyMap::from_store(cube, res.to_store()).with_rounds((n - 1) as u32)
    }

    /// Verifies that this map satisfies Definition 1 for `cfg` — i.e.
    /// that it is *the* fixed point promised by Theorem 1. Returns the
    /// first (lowest-addressed) violating node, if any. With faulty
    /// links the advertised levels are judged over `F ∪ N2`, and the
    /// map's `N2` nodes must be `cfg`'s, each holding the own level
    /// Definition 1 gives it over the advertised levels (§4.1).
    ///
    /// Word-parallel: the store is transposed to planes and one plane
    /// Jacobi round is run from it. The map is a fixed point iff that
    /// round changes nothing (the round pins faulty nodes to 0, so a
    /// nonzero level on a faulty node shows as a change too), and the
    /// lowest changed bit is the node an ascending per-node scan would
    /// report first.
    ///
    /// # Panics
    ///
    /// If `cfg`'s cube is not of this map's dimension.
    pub fn check_fixed_point(&self, cfg: &FaultConfig) -> Option<NodeId> {
        assert_eq!(
            cfg.cube().dim(),
            self.dim(),
            "map and config of different cubes"
        );
        let fitted = fitted(cfg.node_faults().words(), self.levels.len());
        let split = egs::split(self.space, cfg, &fitted);
        let faulty = split.as_ref().map_or(&*fitted, |(_, f)| f);
        let cur = PlaneView::from_store(&self.levels);
        let mut next = PlaneView::zeroed(self.dim(), self.levels.len());
        let advertised = if jacobi_round_planes(self.dim(), &cur, faulty, &mut next) == 0 {
            None
        } else {
            (0..cur.words()).find_map(|w| {
                let diff = plane_diff_word(&cur, &next, w);
                (diff != 0).then(|| NodeId::new(w as u64 * 64 + diff.trailing_zeros() as u64))
            })
        };
        // A node is right iff its entry, if any, is in both lists.
        let want = split.map_or(Vec::new(), |(n2, _)| egs::own_levels(self, &n2));
        let both = |e| want.binary_search(e).is_ok() && self.n2.binary_search(e).is_ok();
        let overlay = want.iter().chain(&self.n2).filter(|e| !both(e));
        advertised.into_iter().chain(overlay.map(|e| e.0)).min()
    }

    /// [`SafetyMap::check_fixed_point`] in time proportional to what
    /// changed since `verified_map`, which must already have passed
    /// the check against `verified_cfg`. Returns the same answer.
    ///
    /// Definition 1 is local: a node's level depends only on its own
    /// fault bit and its `n` neighbors' levels. The candidates are the
    /// nodes whose level or fault bit differs from the verified epoch,
    /// plus their neighbors. Any other node has exactly the inputs and
    /// level it had in a verified fixed point, so it passes; every
    /// violator is therefore a candidate, and the lowest failing
    /// candidate is the first violator. Each changed node's closed
    /// neighbourhood is evaluated in place, skipping candidates at or
    /// above the lowest failure found so far, so nothing is collected
    /// or sorted. The diff is found by XOR over the packed level and
    /// fault words and is not taken from any record of what the
    /// producer touched.
    ///
    /// Falls back to the full word-parallel scan when the verified
    /// epoch is of another cube, or differs in so many nodes that
    /// scanning every word is cheaper, or when either configuration
    /// has a faulty link or this map an `N2` node.
    ///
    /// # Panics
    ///
    /// If `cfg`'s cube is not of this map's dimension.
    pub fn check_fixed_point_since(
        &self,
        cfg: &FaultConfig,
        verified_map: &SafetyMap,
        verified_cfg: &FaultConfig,
    ) -> Option<NodeId> {
        assert_eq!(
            cfg.cube().dim(),
            self.dim(),
            "map and config of different cubes"
        );
        let other_cube =
            verified_map.dim() != self.dim() || verified_cfg.cube().dim() != self.dim();
        let links = !cfg.link_faults().is_empty() || !verified_cfg.link_faults().is_empty();
        if other_cube || links || !self.n2.is_empty() {
            return self.check_fixed_point(cfg);
        }
        // One mask per 64 nodes: a level or a fault bit differs. A node
        // that changed both comes up once.
        let fault_diff = cfg
            .node_faults()
            .words()
            .iter()
            .zip(verified_cfg.node_faults().words())
            .map(|(&a, &b)| a ^ b)
            .chain(std::iter::repeat(0));
        let changed = self
            .levels
            .diff_words(&verified_map.levels)
            .zip(fault_diff)
            .enumerate()
            .flat_map(|(w, (l, f))| BitDims(l | f).map(move |j| w as u64 * 64 + j as u64));
        // A changed node costs about n² level reads (itself and its n
        // neighbors), the full scan a few word ops per 64 nodes: past
        // one changed node per 64 nodes the full scan is the cheaper.
        // Small cubes keep a floor of 64, where either is cheap.
        let budget = (self.levels.len() / 64).max(64) as usize;
        let mut first = u64::MAX;
        for (k, i) in changed.enumerate() {
            if k == budget {
                return self.check_fixed_point(cfg);
            }
            for c in std::iter::once(i).chain((0..self.dim()).map(|d| i ^ (1 << d))) {
                if c >= first {
                    continue;
                }
                let a = NodeId::new(c);
                let want = if cfg.node_faulty(a) {
                    0
                } else {
                    rule_level(self.space, &self.levels, a)
                };
                if self.level(a) != want {
                    first = c;
                }
            }
        }
        (first != u64::MAX).then(|| NodeId::new(first))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::FaultSet;

    fn cfg4(faults: &[&str]) -> FaultConfig {
        let cube = Hypercube::new(4);
        FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, faults))
    }

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
    }

    #[test]
    fn a_short_fault_set_gives_the_same_map() {
        // A set sized for Q6 used to make `compute` on Q8 read past it.
        let cube = Hypercube::new(8);
        let members = [0u64, 1, 2, 3, 17, 40, 63].map(NodeId::new);
        let mut short = FaultSet::with_capacity(64);
        for a in members {
            short.insert(a);
        }
        let short = SafetyMap::compute(&FaultConfig::with_node_faults(cube, short));
        let full = SafetyMap::compute(&FaultConfig::with_node_faults(
            cube,
            FaultSet::from_nodes(cube, members),
        ));
        assert_eq!(short.store(), full.store());
    }

    #[test]
    fn low_count_rule_matches_the_histogram_rule() {
        // Every sequence for n ≤ 5, then random ones up to MAX_DIM,
        // half of them drawn near the stair (0, 1, …, n − 1) where the
        // answer is decided.
        for n in 1..=5u8 {
            let mut seq = vec![0 as Level; n as usize];
            for code in 0..(n as u64 + 1).pow(n as u32) {
                let mut c = code;
                for l in seq.iter_mut() {
                    *l = (c % (n as u64 + 1)) as Level;
                    c /= n as u64 + 1;
                }
                let want = level_from_unsorted(n, seq.iter().copied());
                assert_eq!(
                    level_from_low_counts(n, seq.iter().copied()),
                    want,
                    "{seq:?}"
                );
            }
        }
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            z >> 33
        };
        for n in 1..=MAX_DIM {
            for i in 0..4000 {
                let seq: Vec<Level> = (0..n as u64)
                    .map(|j| {
                        let l = if i % 2 == 0 {
                            next() % (n as u64 + 1)
                        } else {
                            (j + next() % 3).saturating_sub(1).min(n as u64)
                        };
                        l as Level
                    })
                    .collect();
                let want = level_from_unsorted(n, seq.iter().copied());
                assert_eq!(
                    level_from_low_counts(n, seq.iter().copied()),
                    want,
                    "n {n} {seq:?}"
                );
            }
        }
    }

    #[test]
    fn definition_rule_examples() {
        // A node all of whose neighbors are safe is safe.
        assert_eq!(level_from_sorted(4, &[4, 4, 4, 4]), 4);
        // Two faulty neighbors → 1-safe (first round of Thm 1's proof).
        assert_eq!(level_from_sorted(4, &[0, 0, 4, 4]), 1);
        // Three neighbors of level ≤ 1 → 2-safe.
        assert_eq!(level_from_sorted(4, &[0, 1, 1, 4]), 2);
        // Exactly the borderline sequence (0,1,2,3) → safe.
        assert_eq!(level_from_sorted(4, &[0, 1, 2, 3]), 4);
        // One faulty neighbor alone does not lower the level.
        assert_eq!(level_from_sorted(4, &[0, 4, 4, 4]), 4);
    }

    #[test]
    fn fig1_levels_exact() {
        // Fig. 1: faults {0011, 0100, 0110, 1001}. The paper narrates:
        //   0001, 0010, 0111, 1011 become 1-safe after round one;
        //   0101 and 0000 become 2-safe after round two;
        //   1010, 1100, 1111, 1110 (and the rest) are 4-safe;
        //   stability after two rounds.
        let cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let m = SafetyMap::compute(&cfg);
        // Faulty nodes.
        for f in ["0011", "0100", "0110", "1001"] {
            assert_eq!(m.level(n(f)), 0, "{f}");
        }
        // Narrated levels.
        for u in ["0001", "0010", "0111", "1011"] {
            assert_eq!(m.level(n(u)), 1, "{u}");
        }
        assert_eq!(m.level(n("0101")), 2);
        assert_eq!(m.level(n("0000")), 2);
        // §3.2 uses these levels for the worked unicasts.
        assert_eq!(m.level(n("1110")), 4);
        assert_eq!(m.level(n("1111")), 4);
        assert_eq!(m.level(n("1010")), 4);
        assert_eq!(m.level(n("1100")), 4);
        assert_eq!(m.level(n("1101")), 4);
        assert_eq!(m.level(n("1000")), 4);
        // "The safety level of each node remains stable after two rounds."
        assert_eq!(m.rounds(), 2);
        assert_eq!(m.check_fixed_point(&cfg), None);
    }

    #[test]
    fn histogram_rule_matches_sorted_rule_exhaustively() {
        // Every neighbor-level sequence of Q_4 (5^4 of them): the
        // sort-free histogram evaluation agrees with Definition 1's
        // sorted form.
        let n = 4u8;
        for code in 0u32..5u32.pow(4) {
            let mut seq = [0 as Level; 4];
            let mut c = code;
            for s in seq.iter_mut() {
                *s = (c % 5) as Level;
                c /= 5;
            }
            let mut sorted = seq;
            sorted.sort_unstable();
            assert_eq!(
                level_from_unsorted(n, seq.iter().copied()),
                level_from_sorted(n, &sorted),
                "seq {seq:?}"
            );
        }
    }

    #[test]
    fn safe_nodes_iter_matches_vec_form() {
        let cfg = cfg4(&["0000", "0110", "1111"]);
        let m = SafetyMap::compute(&cfg);
        assert_eq!(m.safe_nodes_iter().collect::<Vec<_>>(), m.safe_nodes());
        assert_eq!(m.safe_count(), m.safe_nodes().len());
    }

    #[test]
    fn fault_free_cube_needs_no_rounds() {
        let cfg = cfg4(&[]);
        let m = SafetyMap::compute(&cfg);
        assert_eq!(m.rounds(), 0, "no extra overhead without faults (§2.2)");
        assert!(cfg.cube().nodes().all(|a| m.is_safe(a)));
    }

    #[test]
    fn constructive_matches_iterative_fig1() {
        let cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let a = SafetyMap::compute(&cfg);
        let b = SafetyMap::compute_constructive(&cfg);
        assert_eq!(a.store(), b.store());
    }

    /// `compute`'s trace equals the scalar oracle's round by round, so
    /// rounds and fixed point match too, and each round ran where the
    /// rule puts it given the round before's change count. Returns the
    /// map and, for each round after the first, whether it ran on the
    /// frontier.
    fn assert_matches_reference(cfg: &FaultConfig, what: &str) -> (SafetyMap, Vec<bool>) {
        let mut trace = Trace::default();
        let run = |f: &[u64]| SafetyMap::cube_rounds(cfg.cube(), f, Some(&mut trace));
        let map = SafetyMap::compute_with(cfg.cube(), cfg, run);
        let (rmap, rtrace) = SafetyMap::compute_reference_trace(cfg);
        assert_eq!(trace.levels, rtrace, "{what}");
        assert_eq!(map, rmap, "{what}");
        let (n, len) = (cfg.cube().dim(), cfg.cube().num_nodes());
        let rule: Vec<bool> = rtrace
            .windows(2)
            .map(|w| {
                let changed = w[0].iter().zip(&w[1]).filter(|(a, b)| a != b).count();
                frontier_is_sparse(changed as u64, n, len)
            })
            .collect();
        assert_eq!(trace.frontier, rule, "{what}");
        (map, trace.frontier)
    }

    fn fault_set(cube: Hypercube, nodes: impl IntoIterator<Item = u64>) -> FaultConfig {
        FaultConfig::with_node_faults(
            cube,
            FaultSet::from_nodes(cube, nodes.into_iter().map(NodeId::new)),
        )
    }

    #[test]
    fn frontier_rounds_match_the_reference_on_every_fault_set_to_q4() {
        // Every node-fault set of Q1–Q4 (65,536 on Q4): the trace equals
        // the scalar oracle's round by round, Theorem 1's two
        // constructions agree, the result is a fixed point, and it took
        // at most n − 1 rounds (the Corollary).
        for n in 1u8..=4 {
            let cube = Hypercube::new(n);
            for mask in 0u64..1 << cube.num_nodes() {
                let cfg = fault_set(cube, (0..cube.num_nodes()).filter(|i| (mask >> i) & 1 == 1));
                let what = format!("n={n} mask={mask:#b}");
                let (a, _) = assert_matches_reference(&cfg, &what);
                let b = SafetyMap::compute_constructive(&cfg);
                assert_eq!(a.store(), b.store(), "{what}");
                assert_eq!(b.rounds(), u32::from(n - 1), "{what}");
                assert_eq!(a.check_fixed_point(&cfg), None, "{what}");
                assert!(
                    a.rounds() < u32::from(n),
                    "Corollary: ≤ n − 1 rounds, {what}"
                );
            }
        }
    }

    #[test]
    fn every_schedule_occurs() {
        let fig1 = ["0011", "0100", "0110", "1001"].map(|s| n(s).raw());
        // Fig. 1: four nodes change in round 1, above Q4's budget of
        // three, so round 2 sweeps; two change in round 2, so the last
        // round runs on the frontier.
        let cfg = fault_set(Hypercube::new(4), fig1);
        assert_eq!(
            assert_matches_reference(&cfg, "fig1 on Q4").1,
            [false, true]
        );
        // The same faults in Q12: the frontier stays small.
        let cfg = fault_set(Hypercube::new(12), fig1);
        assert_eq!(
            assert_matches_reference(&cfg, "fig1 on Q12").1,
            [true, true]
        );
        // Eight faults in Q5 keep every round above the budget.
        let cfg = fault_set(Hypercube::new(5), [0, 5, 8, 12, 13, 18, 23, 27]);
        let s = assert_matches_reference(&cfg, "eight faults on Q5").1;
        assert_eq!(s, [false, false, false]);
        // A faulty node and nine of its neighbours in Q12: the nodes at
        // distance j drop to level j − 1 in round j − 1, shell by shell,
        // C(9, j) of them, so the frontier grows past the budget and
        // shrinks below it again.
        let cfg = fault_set(Hypercube::new(12), (0..9).map(|d| 1 << d).chain([0]));
        let s = assert_matches_reference(&cfg, "star on Q12").1;
        assert!(s.windows(2).any(|w| w == [true, false]), "{s:?}");
        assert!(s.windows(2).any(|w| w == [false, true]), "{s:?}");
    }

    /// A small deterministic generator for the proptest's placements.
    fn splitmix(z: &mut u64) -> u64 {
        *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Q1–Q14 with uniform faults on up to 40% of the nodes, plus up to
        /// three Hamming balls of radius up to 3 within random subcubes,
        /// which keep the frontier dense for several rounds: the trace equals the
        /// scalar oracle's round by round. Small cubes and low shares
        /// run every round on the frontier, high shares sweep every
        /// round, and balls switch between the two mid-run
        /// ([`every_schedule_occurs`] pins one instance of each).
        #[test]
        fn frontier_rounds_match_the_reference_round_by_round(
            n in 1u8..=14,
            share in 0u64..=40,
            balls in 0u32..=3,
            radius in 1u32..=3,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let cube = Hypercube::new(n);
            let len = cube.num_nodes();
            let mut z = seed;
            let mut f = FaultSet::new(cube);
            // Quadratic in `share`, so half the cases have under 10%.
            for _ in 0..len * share * share / 4000 {
                f.insert(NodeId::new(splitmix(&mut z) % len));
            }
            // Each ball spans a random set of dimensions: spanning few,
            // a radius-1 ball is a star whose shells grow round by round.
            for _ in 0..balls {
                let (c, dims) = (splitmix(&mut z) % len, splitmix(&mut z) % len);
                for a in (0..len).filter(|a| (a ^ c) & !dims == 0 && (a ^ c).count_ones() <= radius) {
                    f.insert(NodeId::new(a));
                }
            }
            let cfg = FaultConfig::with_node_faults(cube, f);
            assert_matches_reference(&cfg, &format!("n={n} share={share} balls={balls} r={radius} seed={seed}"));
        }
    }

    #[test]
    fn plane_kernel_matches_reference_round_by_round() {
        // Fig. 1 plus a denser 5-cube instance: the plane Jacobi's
        // per-round snapshots are byte-identical to the scalar sweep's
        // at every round, not just at the fixed point.
        let cfg = cfg4(&["0011", "0100", "0110", "1001"]);
        let (pm, pt) = SafetyMap::compute_trace(&cfg);
        let (rm, rt) = SafetyMap::compute_reference_trace(&cfg);
        assert_eq!(pt, rt);
        assert_eq!(pm, rm);

        let cube = Hypercube::new(5);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(
                cube,
                &["00000", "00011", "00101", "01001", "10001", "11111"],
            ),
        );
        let (pm, pt) = SafetyMap::compute_trace(&cfg);
        let (rm, rt) = SafetyMap::compute_reference_trace(&cfg);
        assert_eq!(pt, rt);
        assert_eq!(pm.rounds(), rm.rounds());
    }

    #[test]
    fn plane_kernel_matches_reference_on_a_big_cube() {
        // n = 12: 4096 nodes, multi-word planes with every gather kind
        // (in-word d < 6 and XOR-indexed d ≥ 6).
        let cube = Hypercube::new(12);
        let mut f = FaultSet::new(cube);
        for i in 0..11u64 {
            f.insert(NodeId::new(i * 373 % 4096));
        }
        let cfg = FaultConfig::with_node_faults(cube, f);
        let plane = SafetyMap::compute(&cfg);
        let reference = SafetyMap::compute_reference(&cfg);
        assert_eq!(plane, reference);
        assert_eq!(plane.to_vec(), SafetyMap::compute_reference_levels(&cfg));
        assert!(plane.rounds() <= 11);
    }

    #[test]
    fn tiny_cubes_use_partial_words_correctly() {
        // n < 6 leaves a partial plane word; exhaust Q_1 and Q_2 fault
        // sets and sample Q_4/Q_5 to pin the tail-mask handling.
        for n in 1u8..=2 {
            let cube = Hypercube::new(n);
            for mask in 0u64..(1 << cube.num_nodes()) {
                let mut f = FaultSet::new(cube);
                for i in 0..cube.num_nodes() {
                    if (mask >> i) & 1 == 1 {
                        f.insert(NodeId::new(i));
                    }
                }
                let cfg = FaultConfig::with_node_faults(cube, f);
                let a = SafetyMap::compute(&cfg);
                assert_eq!(
                    a.to_vec(),
                    SafetyMap::compute_reference_levels(&cfg),
                    "n={n} mask={mask:#b}"
                );
                assert_eq!(
                    a.store(),
                    SafetyMap::compute_constructive(&cfg).store(),
                    "n={n} mask={mask:#b}"
                );
            }
        }
        for (n, faults) in [(4u8, vec![1u64, 6, 11]), (5, vec![0, 7, 19, 30])] {
            let cube = Hypercube::new(n);
            let cfg = FaultConfig::with_node_faults(
                cube,
                FaultSet::from_nodes(cube, faults.into_iter().map(NodeId::new)),
            );
            let a = SafetyMap::compute(&cfg);
            assert_eq!(
                a.to_vec(),
                SafetyMap::compute_reference_levels(&cfg),
                "n={n}"
            );
        }
    }

    #[test]
    fn safe_node_set_section23_example() {
        // §2.3: faults {0000, 0110, 1111} → SL-safe set is
        // {0001, 0011, 0101, 1000, 1001, 1010, 1011, 1100, 1101}.
        let cfg = cfg4(&["0000", "0110", "1111"]);
        let m = SafetyMap::compute(&cfg);
        let safe: Vec<String> = m.safe_nodes().iter().map(|a| a.to_binary(4)).collect();
        assert_eq!(
            safe,
            vec!["0001", "0011", "0101", "1000", "1001", "1010", "1011", "1100", "1101"]
        );
    }

    #[test]
    fn all_faulty_map() {
        let cube = Hypercube::new(2);
        let mut f = FaultSet::new(cube);
        for a in cube.nodes() {
            f.insert(a);
        }
        let cfg = FaultConfig::with_node_faults(cube, f);
        let m = SafetyMap::compute(&cfg);
        assert!(m.to_vec().iter().all(|&l| l == 0));
    }

    #[test]
    fn check_fixed_point_catches_corruption() {
        let cfg = cfg4(&["0011"]);
        let m = SafetyMap::compute(&cfg);
        let mut levels = m.to_vec();
        levels[0] = 1; // corrupt node 0000
        let bad = SafetyMap::from_levels(cfg.cube(), levels);
        assert_eq!(bad.check_fixed_point(&cfg), Some(NodeId::ZERO));
    }
}
