//! The paper's unicasting algorithm (§3.1–§3.2).
//!
//! At the **source** `s` with destination `d`, `H = H(s, d)`:
//!
//! * `C1`: `S(s) ≥ H` — the source itself is safe enough; **or**
//! * `C2`: some *preferred* neighbor `sⁱ` has `S(sⁱ) ≥ H − 1`
//!   → **optimal** unicasting: forward to the preferred neighbor with
//!   the highest safety level; the path has length exactly `H`.
//! * else `C3`: some *spare* neighbor has `S ≥ H + 1`
//!   → **suboptimal** unicasting: forward to the spare neighbor with
//!   the highest safety level; the path has length exactly `H + 2`.
//! * else the unicast **fails** — detected locally at the source
//!   (too many nearby faults, or `d` lies in another component of a
//!   disconnected cube, §3.3).
//!
//! At every **intermediate** node the rule is uniform: forward to the
//! preferred neighbor (w.r.t. the navigation vector) with the highest
//! safety level; stop when the vector is zero.
//!
//! Tie-breaking: the paper chooses arbitrarily among equal-level
//! neighbors ("say 1111 along dimension 0"); we deterministically take
//! the lowest dimension among the maxima, which reproduces the paper's
//! narrated routes exactly.
//!
//! No level exceeds `n`, so under that default the scan of candidate
//! neighbors stops at the first one at level `n`: no later candidate
//! can beat it, and a tie keeps the first one seen. At sparse fault
//! densities that is usually the first candidate. The other tie-break
//! policies read every candidate, because their winner among tied
//! neighbors is not the first one seen.
//!
//! The rule itself — the source decision and the hop choice — is
//! written once, over a level view: what one node reads of its own
//! level and its neighbors' levels. The packed [`SafetyMap`], over
//! `Q_n` or a generalized hypercube (also what a unicast actor reads),
//! and EGS's source overlay (§4.1) are its views; §4.2's GH
//! routing "is exactly the same as in a regular hypercube", so the
//! rule is generic over the topology as well: it reads distances and
//! preferred and spare ports through [`Topology`], which `Q_n` and the
//! generalized hypercube implement.
//! An endpoint outside the topology fails at the source, before any
//! level is read.
//!
//! One walk runs the hops for [`route`] and its variants,
//! [`crate::route_light`] / [`crate::route_many`], EGS routing and the
//! routing service's attempt; each caller only chooses what to record
//! per hop. Other hop loops stay separate on purpose:
//!
//! * `properties::check_theorem2_at` states Theorem 2 itself, as an
//!   independent greedy walk for the checker to compare against;
//! * `reroute::route_dynamic` re-decides at the source whenever a
//!   fault arrives mid-flight, which one walk over a fixed map cannot;
//! * the distributed unicast takes one hop per delivered message: one
//!   actor, `UnicastNode`, for both topologies, generic over the level
//!   view it reads, forwarding across a port with [`Topology::across`];
//!   `congestion_exp` takes one hop per simulated event with queueing
//!   between hops; both apply the rule at each hop;
//! * `gh_route` walks GH addresses, which the cube walk's navigation
//!   vector cannot carry, over the same rule. A walk generic over the
//!   topology, with node and link judges and `at == d` as its exit,
//!   passed every test and golden in a prototype, but it added 41
//!   lines to delete a 25-line loop, and over six alternating 8 s
//!   benchmark pairs on a 2-vCPU host its request rate read 1.00, 0.99
//!   and 1.00 of the loop's (batch routing, the quiet and the churning
//!   service), so the loop stays.

use crate::navigation::NavVector;
use crate::safety::{Level, SafetyMap};
use hypersafe_simkit::Trace;
use hypersafe_topology::{FaultConfig, Hypercube, NodeId, Path, Topology};

/// The source-side routing decision, in `Q_n` or a generalized
/// hypercube (where `first_dim` is the dimension of the first port).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// `C1 ∨ C2` holds: an optimal (Hamming-length) path is guaranteed.
    Optimal {
        /// Which condition fired (`C1` may hold together with `C2`;
        /// `C1` is reported when it holds).
        condition: Condition,
        /// First-hop dimension.
        first_dim: u8,
    },
    /// Only `C3` holds: a suboptimal (`H + 2`) path is guaranteed.
    Suboptimal {
        /// First-hop (spare) dimension.
        first_dim: u8,
    },
    /// All three conditions fail; the unicast is aborted at the source.
    Failure,
    /// `s == d`: nothing to route.
    AlreadyThere,
}

/// Which feasibility condition admitted the unicast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Condition {
    /// `S(s) ≥ H`.
    C1,
    /// `∃ i: S(sⁱ) ≥ H − 1 ∧ N(i) = 1`.
    C2,
    /// `∃ i: S(sⁱ) ≥ H + 1 ∧ N(i) = 0`.
    C3,
}

/// Full outcome of routing one unicast to completion.
#[derive(Clone, Debug)]
pub struct RouteResult {
    /// The source decision taken.
    pub decision: Decision,
    /// The realized path (present unless the decision was `Failure`;
    /// for `AlreadyThere` it is the zero-length path).
    pub path: Option<Path>,
    /// Whether the message reached `d` over nonfaulty intermediate
    /// nodes and usable links. (`true` even if `d` itself is faulty —
    /// footnote 3: delivery to a faulty destination is still delivery.)
    pub delivered: bool,
}

/// How to break ties among equally-safe candidate neighbors.
///
/// The paper chooses arbitrarily ("say 1111 along dimension 0"); the
/// policy only affects *which* of several equally-guaranteed routes is
/// taken, never feasibility or length — but it does affect how traffic
/// spreads over links (measured by the E17 experiment).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Lowest dimension among the maxima — the workspace default,
    /// which reproduces the paper's narrated walks.
    #[default]
    LowestDim,
    /// Highest dimension among the maxima.
    HighestDim,
    /// Pseudo-random among the maxima, seeded by `(node, salt)` so the
    /// choice is deterministic per hop yet decorrelated across sources
    /// — spreads load without carrying an RNG through the router.
    Hashed {
        /// Per-unicast salt (e.g. a message id).
        salt: u64,
    },
}

/// The levels one node reads when it applies the §3 rule: its own and
/// its neighbors' across each port of its topology. The packed
/// [`SafetyMap`] of either topology and EGS's source overlay each
/// implement it, and so does a reference to any view, so the rule is
/// written once for all of them.
pub(crate) trait LevelView {
    /// The topology the levels live on.
    type Space: Topology;
    /// The topology.
    fn space(&self) -> Self::Space;
    /// The level of `at` itself.
    fn own_level(&self, at: NodeOf<Self>) -> Level;
    /// The level of `at`'s neighbor across `p`.
    fn level_across(&self, at: NodeOf<Self>, p: PortOf<Self>) -> Level;
}

/// A view's node address type.
pub(crate) type NodeOf<V> = <<V as LevelView>::Space as Topology>::Node;
/// A view's port type.
pub(crate) type PortOf<V> = <<V as LevelView>::Space as Topology>::Port;

impl<V: LevelView> LevelView for &V {
    type Space = V::Space;

    #[inline]
    fn space(&self) -> V::Space {
        (**self).space()
    }

    #[inline]
    fn own_level(&self, at: NodeOf<V>) -> Level {
        (**self).own_level(at)
    }

    #[inline]
    fn level_across(&self, at: NodeOf<V>, p: PortOf<V>) -> Level {
        (**self).level_across(at, p)
    }
}

impl<T: Topology> LevelView for SafetyMap<T> {
    type Space = T;

    #[inline]
    fn space(&self) -> T {
        SafetyMap::space(self)
    }

    #[inline]
    fn own_level(&self, at: T::Node) -> Level {
        self.level(at)
    }

    #[inline]
    fn level_across(&self, at: T::Node, p: T::Port) -> Level {
        self.level(SafetyMap::space(self).across(at, p))
    }
}

/// The rule's verdict at the source, over any topology's ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SourceStep<P> {
    /// Leave across the port: optimally under `C1`/`C2`, over the
    /// `H + 2` detour under `C3`.
    Leave(Condition, P),
    /// C1–C3 all fail, or an endpoint lies outside the topology.
    Failure,
    /// `s == d`.
    AlreadyThere,
}

impl<P> SourceStep<P> {
    /// The verdict with its port named by the port's dimension,
    /// `dim(port)`: the form [`SourceStep::decision`] reads.
    pub(crate) fn by_dim(self, dim: impl FnOnce(P) -> u8) -> SourceStep<u8> {
        match self {
            SourceStep::Leave(condition, p) => SourceStep::Leave(condition, dim(p)),
            SourceStep::Failure => SourceStep::Failure,
            SourceStep::AlreadyThere => SourceStep::AlreadyThere,
        }
    }
}

impl SourceStep<u8> {
    /// The public form of the verdict, for both topologies.
    pub(crate) fn decision(self) -> Decision {
        match self {
            SourceStep::Leave(Condition::C3, first_dim) => Decision::Suboptimal { first_dim },
            SourceStep::Leave(condition, first_dim) => Decision::Optimal {
                condition,
                first_dim,
            },
            SourceStep::Failure => Decision::Failure,
            SourceStep::AlreadyThere => Decision::AlreadyThere,
        }
    }
}

/// `UNICASTING_AT_SOURCE_NODE`, the one copy: checks that both
/// endpoints lie in the topology (before any level is read), then
/// `C1`/`C2`/`C3`, and names the first port.
#[inline(always)]
pub(crate) fn rule_at_source<V: LevelView>(
    v: &V,
    s: NodeOf<V>,
    d: NodeOf<V>,
    tb: TieBreak,
) -> SourceStep<PortOf<V>> {
    let space = v.space();
    let Some(h) = space.distance(s, d) else {
        return SourceStep::Failure;
    };
    let h = h as u16;
    if h == 0 {
        return SourceStep::AlreadyThere;
    }
    let c1 = (v.own_level(s) as u16) >= h;
    let preferred_best = best_port(v, s, space.preferred(s, d), tb);
    let c2 = preferred_best.is_some_and(|(_, lv)| (lv as u16) + 1 >= h);
    if c1 || c2 {
        let (port, _) = preferred_best.expect("H ≥ 1 gives ≥ 1 preferred port");
        let condition = if c1 { Condition::C1 } else { Condition::C2 };
        return SourceStep::Leave(condition, port);
    }
    match best_port(v, s, space.spare(s, d), tb) {
        Some((port, lv)) if (lv as u16) > h => SourceStep::Leave(Condition::C3, port),
        _ => SourceStep::Failure,
    }
}

/// `UNICASTING_AT_INTERMEDIATE_NODE`, the one copy: the preferred
/// port of `at` toward `d` with the highest level. `None` when
/// `at == d`. The caller keeps `at` and `d` in the topology.
#[inline(always)]
pub(crate) fn rule_at_hop<V: LevelView>(
    v: &V,
    at: NodeOf<V>,
    d: NodeOf<V>,
    tb: TieBreak,
) -> Option<PortOf<V>> {
    best_port(v, at, v.space().preferred(at, d), tb).map(|(p, _)| p)
}

/// The port among `ports` whose neighbor has the highest level,
/// breaking ties per `tb`, with that level.
///
/// Under [`TieBreak::LowestDim`] the scan stops at the first neighbor
/// at the ceiling: a later one could only win with a strictly higher
/// level, and none exists. `HighestDim` takes the last of the tied
/// ports; `Hashed` counts them and, in a second pass, takes the one
/// its hash names.
#[inline(always)]
fn best_port<V: LevelView>(
    v: &V,
    at: NodeOf<V>,
    ports: impl Iterator<Item = PortOf<V>> + Clone,
    tb: TieBreak,
) -> Option<(PortOf<V>, Level)> {
    let ceiling = v.space().dim();
    // (first port at the best level, last port at it, tie count, level)
    let mut best: Option<(PortOf<V>, PortOf<V>, u64, Level)> = None;
    for p in ports.clone() {
        let lv = v.level_across(at, p);
        match &mut best {
            Some((_, _, _, b)) if *b > lv => {}
            Some((_, last, ties, b)) if *b == lv => {
                *last = p;
                *ties += 1;
            }
            _ => best = Some((p, p, 1, lv)),
        }
        if lv == ceiling && matches!(tb, TieBreak::LowestDim) {
            break;
        }
    }
    let (first, last, ties, lv) = best?;
    let port = match tb {
        TieBreak::LowestDim => first,
        TieBreak::HighestDim => last,
        TieBreak::Hashed { salt } => {
            // SplitMix64 over (node, salt): cheap, stateless, uniform.
            let mut z = <V::Space as Topology>::raw(at) ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            ports
                .filter(|&p| v.level_across(at, p) == lv)
                .nth((z % ties) as usize)
                .expect("the first pass counted the tied ports")
        }
    };
    Some((port, lv))
}

/// `UNICASTING_AT_SOURCE_NODE`: evaluates `C1`/`C2`/`C3` and returns
/// the decision, without forwarding. An endpoint outside the cube is
/// a [`Decision::Failure`].
pub fn source_decision(map: &SafetyMap, s: NodeId, d: NodeId) -> Decision {
    source_decision_tb(map, s, d, TieBreak::LowestDim)
}

/// [`source_decision`] with an explicit tie-break policy.
pub fn source_decision_tb(map: &SafetyMap, s: NodeId, d: NodeId, tb: TieBreak) -> Decision {
    rule_at_source(map, s, d, tb).decision()
}

/// `UNICASTING_AT_INTERMEDIATE_NODE`: the forwarding dimension chosen
/// at `at` for navigation vector `nv` — the preferred neighbor with
/// the highest safety level. `None` when `nv` is zero, or when `at` or
/// the destination `nv` implies lies outside the cube.
pub fn intermediate_dim(map: &SafetyMap, at: NodeId, nv: NavVector) -> Option<u8> {
    intermediate_dim_tb(map, at, nv, TieBreak::LowestDim)
}

/// [`intermediate_dim`] with an explicit tie-break policy.
pub fn intermediate_dim_tb(map: &SafetyMap, at: NodeId, nv: NavVector, tb: TieBreak) -> Option<u8> {
    let d = nv.destination(at);
    map.space().distance(at, d)?;
    rule_at_hop(map, at, d, tb)
}

/// Routes one unicast from `s` to `d` to completion, simulating every
/// hop, with an optional trace of the hops taken.
///
/// The route is driven purely by safety levels, exactly as the
/// distributed algorithm would run; `cfg` is consulted only to *judge*
/// the outcome (was a faulty node entered?), never to steer. If the
/// message enters a faulty node before the navigation vector empties,
/// the unicast is recorded as undelivered (fault-stop nodes drop
/// traffic) — with a correct safety map this can only happen when the
/// source decision was already `Failure` and the caller forced routing
/// anyway, or when `d` itself is faulty.
///
/// # Examples
///
/// ```
/// use hypersafe_topology::{Hypercube, FaultSet, FaultConfig, NodeId};
/// use hypersafe_core::{route, SafetyMap, Decision};
///
/// let cube = Hypercube::new(4);
/// let faults = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
/// let cfg = FaultConfig::with_node_faults(cube, faults);
/// let map = SafetyMap::compute(&cfg);
/// let res = route(&cfg, &map,
///     NodeId::from_binary("1110").unwrap(),
///     NodeId::from_binary("0001").unwrap());
/// assert!(res.delivered);
/// assert!(res.path.unwrap().is_optimal());
/// ```
pub fn route(cfg: &FaultConfig, map: &SafetyMap, s: NodeId, d: NodeId) -> RouteResult {
    route_traced(cfg, map, s, d, &mut Trace::disabled())
}

/// [`route`] with an explicit tie-break policy (default routing uses
/// [`TieBreak::LowestDim`]). Feasibility and path length are policy-
/// independent; only the choice among equally-guaranteed routes moves.
pub fn route_tb(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    tb: TieBreak,
) -> RouteResult {
    route_traced_tb(cfg, map, s, d, tb, &mut Trace::disabled())
}

/// [`route`] with hop tracing.
pub fn route_traced(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    trace: &mut Trace,
) -> RouteResult {
    route_traced_tb(cfg, map, s, d, TieBreak::LowestDim, trace)
}

/// [`route_tb`] with hop tracing.
pub fn route_traced_tb(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    tb: TieBreak,
    trace: &mut Trace,
) -> RouteResult {
    route_over(cfg, map, s, d, tb, trace)
}

/// [`route_traced_tb`] over any cube level view (EGS routes over its
/// source overlay).
pub(crate) fn route_over<V: LevelView<Space = Hypercube>>(
    cfg: &FaultConfig,
    view: &V,
    s: NodeId,
    d: NodeId,
    tb: TieBreak,
    trace: &mut Trace,
) -> RouteResult {
    let mut sink = PathSink {
        path: Path::starting_at(s),
        trace,
    };
    let out = walk(cfg, view, s, d, tb, &mut sink);
    RouteResult {
        decision: out.decision,
        path: (out.decision != Decision::Failure).then_some(sink.path),
        delivered: out.delivered,
    }
}

/// Compact outcome of one walk: the source decision, the hop count
/// actually walked, and delivery — everything the batched experiments
/// aggregate, with no allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchOutcome {
    /// The source decision taken.
    pub decision: Decision,
    /// Hops walked before the route ended (0 for `AlreadyThere` and
    /// source-side `Failure`).
    pub hops: u32,
    /// Same delivery semantics as [`RouteResult::delivered`].
    pub delivered: bool,
}

/// What a caller of [`walk`] records per hop. The no-op sink is `()`.
pub(crate) trait HopSink {
    /// The message crossed the usable link `at → next` along `dim`,
    /// leaving navigation vector `nv`. Called before `next` is judged.
    fn hop(&mut self, at: NodeId, next: NodeId, dim: u8, nv: NavVector);
}

impl HopSink for () {
    #[inline(always)]
    fn hop(&mut self, _: NodeId, _: NodeId, _: u8, _: NavVector) {}
}

/// Records the walked trail, `s` first; stays empty when no hop is
/// taken.
impl HopSink for Vec<NodeId> {
    fn hop(&mut self, at: NodeId, next: NodeId, _: u8, _: NavVector) {
        if self.is_empty() {
            self.push(at);
        }
        self.push(next);
    }
}

/// [`route_traced_tb`]'s sink: the realized path and the hop trace.
struct PathSink<'a> {
    path: Path,
    trace: &'a mut Trace,
}

impl HopSink for PathSink<'_> {
    fn hop(&mut self, at: NodeId, next: NodeId, dim: u8, nv: NavVector) {
        self.trace.hop(at, next, dim, nv.0);
        self.path.push(next);
    }
}

/// The §3 hop walk, the one loop behind [`route`] and its variants,
/// [`crate::route_light`] / [`crate::route_many`] and the routing
/// service's attempt.
///
/// The route is planned purely on `map`, exactly as the distributed
/// algorithm would run; `judge` is consulted only to judge each hop,
/// never to steer:
///
/// * a faulty link drops the message (undelivered, the hop not taken);
/// * entering a faulty node ends the walk — delivered if that node is
///   `d` (footnote 3: the physical link delivered it to the dead
///   node's doorstep), lost otherwise (fault-stop nodes drop traffic);
/// * entering a healthy `d` delivers.
///
/// With a map that is the fixed point of `judge`, a faulty
/// intermediate can only be entered when the source decision was
/// `Failure` and the walk was forced anyway, or when the map was
/// computed without `judge`'s link faults.
///
/// Always inlined: each caller gets its own copy, so the service folds
/// its verdict into the walk's exits instead of decoding a returned
/// outcome. Called out of line, the walk cost the service about 3 ns
/// of a 70 ns attempt on Q12 (2-vCPU Xeon under KVM).
#[inline(always)]
pub(crate) fn walk<V: LevelView<Space = Hypercube>, S: HopSink>(
    judge: &FaultConfig,
    map: &V,
    s: NodeId,
    d: NodeId,
    tb: TieBreak,
    sink: &mut S,
) -> BatchOutcome {
    let decision = rule_at_source(map, s, d, tb).decision();
    let mut dim = match decision {
        Decision::AlreadyThere => {
            return BatchOutcome {
                decision,
                hops: 0,
                delivered: !judge.node_faulty(s),
            }
        }
        Decision::Failure => {
            return BatchOutcome {
                decision,
                hops: 0,
                delivered: false,
            }
        }
        Decision::Optimal { first_dim, .. } | Decision::Suboptimal { first_dim } => first_dim,
    };
    // Most fault sets have no link faults: test that once, not per hop.
    let links = judge.link_faults();
    let check_links = !links.is_empty();
    let mut nv = NavVector::new(s, d);
    let mut at = s;
    let mut hops = 0u32;
    let delivered = loop {
        let next = at.neighbor(dim);
        if check_links && links.contains(at, next) {
            break false;
        }
        nv = nv.after_hop(dim);
        hops += 1;
        sink.hop(at, next, dim, nv);
        at = next;
        if judge.node_faulty(at) {
            break nv.is_done();
        }
        if nv.is_done() {
            break true;
        }
        match rule_at_hop(map, at, d, tb) {
            Some(i) => dim = i,
            None => break false,
        }
    };
    BatchOutcome {
        decision,
        hops,
        delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::FaultSet;

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
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
    fn fig1_unicast_1110_to_0001_is_the_narrated_path() {
        // §3.2 first worked example: optimal via C1 (S(1110) = 4 = H),
        // route 1110 → 1111 → 1101 → 0101 → 0001.
        let (cfg, map) = fig1();
        let s = n("1110");
        let d = n("0001");
        let res = route(&cfg, &map, s, d);
        assert!(matches!(
            res.decision,
            Decision::Optimal {
                condition: Condition::C1,
                first_dim: 0
            }
        ));
        assert!(res.delivered);
        let p = res.path.unwrap();
        assert!(p.is_optimal());
        let expected: Vec<NodeId> = ["1110", "1111", "1101", "0101", "0001"]
            .iter()
            .map(|s| n(s))
            .collect();
        assert_eq!(p.nodes(), expected.as_slice());
    }

    #[test]
    fn fig1_unicast_0001_to_1100_uses_c2() {
        // §3.2 second worked example: S(0001) = 1 < H = 3, but preferred
        // neighbors 0000 and 0101 have level 2 = H − 1 → optimal via C2,
        // route 0001 → 0000 → 1000 → 1100.
        let (cfg, map) = fig1();
        let s = n("0001");
        let d = n("1100");
        assert_eq!(map.level(s), 1);
        let res = route(&cfg, &map, s, d);
        assert!(matches!(
            res.decision,
            Decision::Optimal {
                condition: Condition::C2,
                ..
            }
        ));
        assert!(res.delivered);
        let p = res.path.unwrap();
        assert!(p.is_optimal());
        let expected: Vec<NodeId> = ["0001", "0000", "1000", "1100"]
            .iter()
            .map(|s| n(s))
            .collect();
        assert_eq!(p.nodes(), expected.as_slice());
    }

    #[test]
    fn safe_source_always_optimal() {
        // "If the source node is safe, optimality is automatically
        // guaranteed for any unicasting." Check every destination from
        // each safe node in Fig. 1.
        let (cfg, map) = fig1();
        for s in cfg.healthy_nodes().filter(|&a| map.is_safe(a)) {
            for d in cfg.healthy_nodes() {
                if s == d {
                    continue;
                }
                let res = route(&cfg, &map, s, d);
                assert!(
                    matches!(res.decision, Decision::Optimal { .. }),
                    "{s} → {d}"
                );
                assert!(res.delivered, "{s} → {d}");
                assert!(res.path.unwrap().is_optimal(), "{s} → {d}");
            }
        }
    }

    #[test]
    fn optimal_paths_avoid_faulty_intermediates() {
        let (cfg, map) = fig1();
        for s in cfg.healthy_nodes() {
            for d in cfg.healthy_nodes() {
                let res = route(&cfg, &map, s, d);
                if let Some(p) = &res.path {
                    if res.delivered {
                        assert!(p.traversable(&cfg, false), "{s} → {d}: {p}");
                        match res.decision {
                            Decision::Optimal { .. } => assert!(p.is_optimal(), "{s} → {d}"),
                            Decision::Suboptimal { .. } => {
                                assert!(p.is_suboptimal(), "{s} → {d}")
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn already_there_is_trivial() {
        let (cfg, map) = fig1();
        let res = route(&cfg, &map, n("0000"), n("0000"));
        assert_eq!(res.decision, Decision::AlreadyThere);
        assert!(res.delivered);
        assert!(res.path.unwrap().is_empty());
    }

    #[test]
    fn delivery_to_adjacent_faulty_destination() {
        // Footnote 3 semantics: H = 1 to a faulty destination is
        // "delivered" (the physical link carries it out).
        let (cfg, map) = fig1();
        let res = route(&cfg, &map, n("0010"), n("0011"));
        assert!(matches!(res.decision, Decision::Optimal { .. }));
        assert!(res.delivered);
    }

    #[test]
    fn trace_records_hops() {
        let (cfg, map) = fig1();
        let mut trace = Trace::enabled();
        let res = route_traced(&cfg, &map, n("1110"), n("0001"), &mut trace);
        assert!(res.delivered);
        assert_eq!(trace.events().len(), 4, "one event per hop");
        let rendered = trace.render();
        assert!(rendered.contains("1110 → 1111"));
    }

    #[test]
    fn tiebreak_changes_route_not_contract() {
        // All tie-break policies keep the decision, delivery and length
        // identical; only the realized route may differ.
        let (cfg, map) = fig1();
        let policies = [
            TieBreak::LowestDim,
            TieBreak::HighestDim,
            TieBreak::Hashed { salt: 1 },
            TieBreak::Hashed { salt: 99 },
        ];
        for s in cfg.healthy_nodes() {
            for d in cfg.healthy_nodes() {
                if s == d {
                    continue;
                }
                let base = route(&cfg, &map, s, d);
                for tb in policies {
                    let r = route_tb(&cfg, &map, s, d, tb);
                    assert_eq!(
                        std::mem::discriminant(&base.decision),
                        std::mem::discriminant(&r.decision),
                        "{s} → {d} {tb:?}"
                    );
                    assert_eq!(base.delivered, r.delivered, "{s} → {d} {tb:?}");
                    if let (Some(a), Some(b)) = (&base.path, &r.path) {
                        assert_eq!(a.len(), b.len(), "{s} → {d} {tb:?}");
                        assert!(b.traversable(&cfg, true), "{s} → {d} {tb:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn highest_dim_takes_a_different_fig1_route() {
        let (cfg, map) = fig1();
        let s = n("1110");
        let d = n("0001");
        let low = route_tb(&cfg, &map, s, d, TieBreak::LowestDim);
        let high = route_tb(&cfg, &map, s, d, TieBreak::HighestDim);
        assert_ne!(low.path.unwrap().nodes(), high.path.unwrap().nodes());
        assert!(high.delivered);
    }

    #[test]
    fn failure_when_surrounded() {
        // Isolate 1110 as in Fig. 3; routing from it must fail at the
        // source for any destination.
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0110", "1010", "1100", "1111"]),
        );
        let map = SafetyMap::compute(&cfg);
        for d in cfg.healthy_nodes() {
            if d == n("1110") {
                continue;
            }
            let res = route(&cfg, &map, n("1110"), d);
            assert_eq!(res.decision, Decision::Failure, "→ {d}");
            assert!(!res.delivered);
        }
    }
}
