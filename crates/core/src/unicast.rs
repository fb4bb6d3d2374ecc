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
//! `Q_n` or a generalized hypercube, is the view, read directly or
//! through a reference (as a unicast actor does). In a cube with
//! faulty links the source reads its own level, which differs from the
//! advertised one at an `N2` node (§4.1), and every neighbor's
//! advertised level, so every entry point below routes §4.1's way.
//! The rule reads distances and preferred and spare ports through
//! [`Topology`], which `Q_n` and the generalized hypercube implement.
//! [`route`], [`route_tb`], [`source_decision`] and
//! [`source_decision_tb`] take either topology's map; the traced and
//! navigation-vector entry points are the cube's. An endpoint outside
//! the topology fails at the source, before any level is read.
//!
//! **Generalized hypercubes** (§4.2, Theorem 2′). "Routing in `GH_n`
//! is exactly the same as in a regular hypercube, because all the
//! nodes are directly connected along the same dimension": a preferred
//! hop jumps straight to the node carrying the destination's digit in
//! that dimension, resolving the coordinate in one step. The source
//! feasibility conditions mirror `C1`/`C2`/`C3` with the per-neighbor
//! eligibility the paper's Fig. 5 walk uses (a specific preferred
//! neighbor is eligible iff its own level is at least the remaining
//! distance minus one). The map carries its GH, so the entry points
//! take no separate topology and a map cannot be read over a GH it does
//! not describe; a bare [`hypersafe_topology::FaultSet`] judges the
//! walk, as a GH has no faulty link.
//!
//! One walk, `walk`, runs the hops for [`route`] and its variants
//! over either topology, [`crate::route_light`] /
//! [`crate::route_many`] and the routing service's attempt; each
//! caller only chooses what to record per hop. Other hop loops stay
//! separate on purpose:
//!
//! * `properties::check_theorem2_at` states Theorem 2 itself, as an
//!   independent greedy walk for the checker to compare against;
//! * `reroute::route_dynamic` re-decides at the source whenever a
//!   fault arrives mid-flight, which one walk over a fixed map cannot;
//! * the distributed unicast takes one hop per delivered message: one
//!   actor, `UnicastNode`, for both topologies, generic over the level
//!   view it reads, forwarding across a port with [`Topology::across`];
//!   `congestion_exp` takes one hop per simulated event with queueing
//!   between hops; both apply the rule at each hop.

use crate::navigation::NavVector;
use crate::safety::{Level, SafetyMap};
use hypersafe_simkit::Trace;
use hypersafe_topology::{FaultConfig, Faults, NodeId, Path, Topology};

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

/// Full outcome of routing one unicast to completion, in `Q_n` or
/// (with `N` = [`hypersafe_topology::GhNode`]) in a generalized
/// hypercube.
#[derive(Clone, Debug)]
pub struct RouteResult<N = NodeId> {
    /// The source decision taken.
    pub decision: Decision,
    /// The realized path (present unless the decision was `Failure`;
    /// for `AlreadyThere` it is the zero-length path).
    pub path: Option<Path<N>>,
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
/// [`SafetyMap`] of either topology implements it, and so does a
/// reference to any view, so the rule is written once for all of them.
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

    #[inline(always)]
    fn own_level(&self, at: T::Node) -> Level {
        SafetyMap::own_level(self, at)
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
    /// The public form of the verdict, for both topologies: the port
    /// named by the dimension it crosses in `space`.
    pub(crate) fn decision<T: Topology<Port = P>>(self, space: T) -> Decision {
        match self {
            SourceStep::Leave(Condition::C3, p) => Decision::Suboptimal {
                first_dim: space.port_dim(p),
            },
            SourceStep::Leave(condition, p) => Decision::Optimal {
                condition,
                first_dim: space.port_dim(p),
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
/// the decision, without forwarding, over the topology `map` carries.
/// An endpoint outside that topology is a [`Decision::Failure`].
pub fn source_decision<T: Topology>(map: &SafetyMap<T>, s: T::Node, d: T::Node) -> Decision {
    source_decision_tb(map, s, d, TieBreak::LowestDim)
}

/// [`source_decision`] with an explicit tie-break policy.
pub fn source_decision_tb<T: Topology>(
    map: &SafetyMap<T>,
    s: T::Node,
    d: T::Node,
    tb: TieBreak,
) -> Decision {
    rule_at_source(map, s, d, tb).decision(map.space())
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

/// Routes one unicast from `s` to `d` to completion over the topology
/// `map` carries, `Q_n` or a generalized hypercube, simulating every
/// hop.
///
/// The route is driven purely by safety levels, exactly as the
/// distributed algorithm would run; `faults` is consulted only to
/// *judge* the outcome (was a faulty node entered?), never to steer. If
/// the message enters a faulty node other than `d`, the unicast is
/// recorded as undelivered (fault-stop nodes drop traffic) — with a
/// correct safety map this can only happen when the source decision
/// was already `Failure` and the caller forced routing anyway. A cube
/// is judged by its [`FaultConfig`], a GH by its faulty-node set.
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
pub fn route<T: Topology, F: Faults<T>>(
    faults: &F,
    map: &SafetyMap<T>,
    s: T::Node,
    d: T::Node,
) -> RouteResult<T::Node> {
    route_tb(faults, map, s, d, TieBreak::LowestDim)
}

/// [`route`] with an explicit tie-break policy (default routing uses
/// [`TieBreak::LowestDim`]). Feasibility and path length are policy-
/// independent; only the choice among equally-guaranteed routes moves.
pub fn route_tb<T: Topology, F: Faults<T>>(
    faults: &F,
    map: &SafetyMap<T>,
    s: T::Node,
    d: T::Node,
    tb: TieBreak,
) -> RouteResult<T::Node> {
    route_over(faults, map, s, d, tb, &mut Trace::disabled())
}

/// [`route`] in a cube, with hop tracing.
pub fn route_traced(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    trace: &mut Trace,
) -> RouteResult {
    route_traced_tb(cfg, map, s, d, TieBreak::LowestDim, trace)
}

/// [`route_tb`] in a cube, with hop tracing.
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

/// [`route_tb`] recording the hops into `trace`: the one body of
/// [`route_tb`] (either topology) and [`route_traced_tb`] (the cube's).
fn route_over<T: Topology, F: Faults<T>>(
    faults: &F,
    map: &SafetyMap<T>,
    s: T::Node,
    d: T::Node,
    tb: TieBreak,
    trace: &mut Trace,
) -> RouteResult<T::Node> {
    let mut sink = PathSink {
        space: map.space(),
        d,
        path: Path::starting_at(s),
        trace,
    };
    let out = walk(faults, map, s, d, tb, &mut sink);
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
pub(crate) trait HopSink<T: Topology> {
    /// The message crossed the usable link `at → next` across `at`'s
    /// port `port`. Called before `next` is judged.
    fn hop(&mut self, at: T::Node, next: T::Node, port: T::Port);
}

impl<T: Topology> HopSink<T> for () {
    #[inline(always)]
    fn hop(&mut self, _: T::Node, _: T::Node, _: T::Port) {}
}

/// Records the walked trail, `s` first; stays empty when no hop is
/// taken.
impl<T: Topology> HopSink<T> for Vec<T::Node> {
    fn hop(&mut self, at: T::Node, next: T::Node, _: T::Port) {
        if self.is_empty() {
            self.push(at);
        }
        self.push(next);
    }
}

/// [`route_over`]'s sink: the realized path and the hop trace. A hop's
/// trace word is the XOR of the next node's and `d`'s linear indices:
/// in `Q_n`, the one topology traced, the navigation vector left after
/// the hop.
struct PathSink<'a, T: Topology> {
    space: T,
    d: T::Node,
    path: Path<T::Node>,
    trace: &'a mut Trace,
}

impl<T: Topology> HopSink<T> for PathSink<'_, T> {
    fn hop(&mut self, at: T::Node, next: T::Node, port: T::Port) {
        let id = |a| NodeId::new(T::raw(a));
        let nv = T::raw(next) ^ T::raw(self.d);
        let dim = self.space.port_dim(port);
        self.trace.hop(id(at), id(next), dim, nv);
        self.path.push_in(self.space, next);
    }
}

/// The §3 hop walk, the one loop behind [`route`] and its variants in
/// either topology, [`crate::route_light`] / [`crate::route_many`] and
/// the routing service's attempt.
///
/// The route is planned purely on `map`, exactly as the distributed
/// algorithm would run; `judge` is consulted only to judge each hop,
/// never to steer:
///
/// * a faulty link drops the message (undelivered, the hop not taken);
/// * entering `d` delivers, even a faulty `d` (footnote 3: the physical
///   link delivered it to the dead node's doorstep);
/// * entering any other faulty node ends the walk undelivered
///   (fault-stop nodes drop traffic).
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
pub(crate) fn walk<V: LevelView, F: Faults<V::Space>, S: HopSink<V::Space>>(
    judge: &F,
    map: &V,
    s: NodeOf<V>,
    d: NodeOf<V>,
    tb: TieBreak,
    sink: &mut S,
) -> BatchOutcome {
    let space = map.space();
    let id = |a| NodeId::new(<V::Space as Topology>::raw(a));
    let nodes = judge.node_faults();
    let step = rule_at_source(map, s, d, tb);
    let decision = step.decision(space);
    let mut port = match step {
        SourceStep::Leave(_, port) => port,
        SourceStep::AlreadyThere => {
            return BatchOutcome {
                decision,
                hops: 0,
                delivered: !nodes.contains(id(s)),
            }
        }
        SourceStep::Failure => {
            return BatchOutcome {
                decision,
                hops: 0,
                delivered: false,
            }
        }
    };
    // Most fault sets have no link faults: test that once, not per hop.
    let links = judge.link_faults();
    let check_links = !links.is_empty();
    let mut at = s;
    let mut hops = 0u32;
    let delivered = loop {
        let next = space.across(at, port);
        if check_links && links.contains(id(at), id(next)) {
            break false;
        }
        hops += 1;
        sink.hop(at, next, port);
        at = next;
        if at == d {
            break true;
        }
        if nodes.contains(id(at)) {
            break false;
        }
        match rule_at_hop(map, at, d, tb) {
            Some(p) => port = p,
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
    use hypersafe_topology::{FaultSet, GeneralizedHypercube, GhNode, Hypercube};

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

    /// A Fig.-5-shaped instance of GH(2, 3, 2) with four faulty nodes,
    /// found by exhaustive search over all C(12, 4) fault sets for the
    /// one consistent with the paper's narration (`repro fig5` rederives
    /// it): exactly four 3-safe nodes, 011 and 100 faulty, the dim-2
    /// neighbor 110 of the source at level 1 (ineligible), and the
    /// narrated optimal route 010 → 000 → 001 → 101.
    fn fig5_like() -> (GeneralizedHypercube, FaultSet) {
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let f = gh.fault_set_from_strs(&["011", "100", "111", "121"]);
        (gh, f)
    }

    fn hops(res: &RouteResult<GhNode>) -> Option<u32> {
        res.path.as_ref().map(|p| p.len())
    }

    #[test]
    fn gh_preferred_port_resolves_digit() {
        let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
        let s = gh.parse("010").unwrap();
        let d = gh.parse("101").unwrap();
        let ports: Vec<(u8, u16)> = (&gh).preferred(s, d).collect();
        assert_eq!(ports, vec![(0, 1), (1, 0), (2, 1)]);
        assert_eq!(gh.format(gh.with_digit(s, 1, 0)), "000");
    }

    #[test]
    fn routes_in_a_fault_free_gh_are_optimal() {
        let gh = GeneralizedHypercube::from_product(&[3, 4, 2]);
        let f = gh.fault_set();
        let map = SafetyMap::compute_in(&gh, &f);
        for s in gh.nodes() {
            for d in gh.nodes() {
                let res = route(&f, &map, s, d);
                assert!(res.delivered);
                let (hs, hd) = (gh.format(s), gh.format(d));
                assert_eq!(hops(&res), gh.distance(s, d), "{hs} → {hd}");
            }
        }
    }

    #[test]
    fn fig5_like_walk_010_to_101() {
        let (gh, f) = fig5_like();
        let map = SafetyMap::compute_in(&gh, &f);
        let s = gh.parse("010").unwrap();
        let d = gh.parse("101").unwrap();
        assert_eq!(gh.distance(s, d), Some(3));
        let res = route(&f, &map, s, d);
        assert!(matches!(res.decision, Decision::Optimal { .. }));
        assert!(res.delivered);
        assert_eq!(hops(&res), Some(3));
        // The realized route is exactly the paper's narrated walk:
        // 010 → 000 (dim 1, ring/clique hop) → 001 (dim 0) → 101 (dim 2).
        let walk: Vec<String> = res
            .path
            .unwrap()
            .nodes()
            .iter()
            .map(|&a| gh.format(a))
            .collect();
        assert_eq!(walk, vec!["010", "000", "001", "101"]);
        // Exactly four safe nodes, as the paper states.
        assert_eq!(map.safe_nodes().len(), 4);
        // The dim-2 neighbor of the source is at level 1 — "less than
        // 3 − 1 = 2 and again is not eligible".
        assert_eq!(map.level(gh.parse("110").unwrap()), 1);
    }

    #[test]
    fn unsafe_nonfaulty_nodes_have_safe_neighbor_fig5() {
        // §4.2: "each unsafe but nonfaulty node has a safe neighbor" in
        // the Fig. 5 instance.
        let (gh, f) = fig5_like();
        let map = SafetyMap::compute_in(&gh, &f);
        for a in gh.nodes() {
            if f.contains(NodeId::new(a.raw())) || map.is_safe(a) {
                continue;
            }
            assert!(
                gh.neighbours(a).any(|b| map.is_safe(b)),
                "{} lacks a safe neighbor",
                gh.format(a)
            );
        }
    }

    #[test]
    fn gh_failure_reported_when_surrounded() {
        // GH(2,2): a 4-cycle. Fault both neighbors of node (0,0).
        let gh = GeneralizedHypercube::new(&[2, 2]);
        let mut f = gh.fault_set();
        f.insert(NodeId::new(gh.node_from_digits(&[1, 0]).raw()));
        f.insert(NodeId::new(gh.node_from_digits(&[0, 1]).raw()));
        let map = SafetyMap::compute_in(&gh, &f);
        let s = gh.node_from_digits(&[0, 0]);
        let d = gh.node_from_digits(&[1, 1]);
        let res = route(&f, &map, s, d);
        assert_eq!(res.decision, Decision::Failure);
        assert!(!res.delivered);
    }

    #[test]
    fn gh_already_there() {
        let (gh, f) = fig5_like();
        let map = SafetyMap::compute_in(&gh, &f);
        let s = gh.parse("000").unwrap();
        let res = route(&f, &map, s, s);
        assert_eq!(res.decision, Decision::AlreadyThere);
        assert!(res.delivered);
        assert_eq!(hops(&res), Some(0));
    }
}
