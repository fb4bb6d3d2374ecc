//! Explicit-state model checking over the [`crate::event`] actor
//! abstractions.
//!
//! Where the DST layer ([`crate::sim`]) *samples* schedules, this
//! module *enumerates* them: a state is (per-actor protocol states ×
//! the in-flight message multiset × armed timers × remaining adversary
//! budgets), a transition is one atomic choice (deliver an envelope,
//! fire a timer, drop or duplicate an envelope, kill a node), and
//! exploration is breadth-first over canonically hashed states. Every
//! interleaving a timed engine schedule can produce is a path here —
//! the checker abstracts time away entirely and delivers in arbitrary
//! causal order, which strictly subsumes any latency/jitter assignment.
//!
//! Two reductions keep small instances tractable without losing
//! states:
//!
//! * **Sleep sets** (Godefroid-style): two enabled transitions that
//!   commute — deliveries to different nodes, timer fires on different
//!   nodes, budgeted choices without contention — need not be explored
//!   in both orders from the same state. The reduction prunes
//!   *transition executions* but provably preserves the *reachable
//!   state set* (we cache visited states and re-explore with the
//!   intersection of sleep sets when a state is re-reached with a
//!   different one), so the cross-validation property "every sampled
//!   DST state is in the checker's reachable set" survives it.
//! * **No-op closure** (optional, [`McConfig::closure`]): an envelope
//!   whose delivery provably changes nothing (actor hash unchanged, no
//!   sends, no timers, no halt) is consumed eagerly instead of being
//!   kept as a pending choice, collapsing the 2^k lattice of "which
//!   stale announcements are still in flight" into one state. Sound
//!   only for protocols where a no-op *stays* a no-op after any other
//!   transition (monotone merges: GS and delta-GS qualify, the ARQ
//!   layer does not — see DESIGN.md §14) — callers flip the flag per
//!   protocol.
//!
//! Properties are checked at every newly discovered state; a violation
//! stops the search and is reported as a canonical *choice-index path*
//! from the initial state, replayable deterministically (and rendered
//! byte-identically) by [`replay`] — no seeds, no clocks.

use crate::event::{Actor, Ctx, Time, TimerTag};
use crate::network::Net;
use hypersafe_topology::{NodeId, Topology};
use std::collections::{HashMap, HashSet, VecDeque};

// ---------------------------------------------------------------------------
// Canonical state hashing
// ---------------------------------------------------------------------------

/// 128-bit FNV-1a accumulator used for canonical state hashing. Not a
/// cryptographic hash: the checker identifies states by hash alone
/// (standard explicit-state practice), and 128 bits make an accidental
/// collision across even billions of states vanishingly unlikely.
#[derive(Clone, Copy, Debug)]
pub struct McHasher {
    h: u128,
}

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c590;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

impl McHasher {
    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        McHasher { h: FNV128_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= b as u128;
            self.h = self.h.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorbs one `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs one `u128` (little-endian).
    pub fn write_u128(&mut self, v: u128) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u128 {
        self.h
    }
}

impl Default for McHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Canonical protocol-state hashing for model checking.
///
/// Implementations must absorb exactly the *protocol-relevant* state:
/// include everything a transition function reads, exclude static
/// configuration (latencies, topology constants) and observational
/// counters (retransmit tallies, arrival timestamps) — two states that
/// differ only in excluded fields are merged by the checker, which is
/// what makes the untimed abstraction collapse timing detail.
pub trait StateHash {
    /// Absorbs this value's canonical representation into `h`.
    fn state_hash(&self, h: &mut McHasher);
}

macro_rules! impl_statehash_int {
    ($($t:ty),*) => {$(
        impl StateHash for $t {
            fn state_hash(&self, h: &mut McHasher) {
                h.write_bytes(&(*self as u128).to_le_bytes()[..core::mem::size_of::<$t>()]);
            }
        }
    )*};
}
impl_statehash_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl StateHash for u128 {
    fn state_hash(&self, h: &mut McHasher) {
        h.write_u128(*self);
    }
}

impl StateHash for bool {
    fn state_hash(&self, h: &mut McHasher) {
        h.write_bytes(&[*self as u8]);
    }
}

impl<T: StateHash> StateHash for Option<T> {
    fn state_hash(&self, h: &mut McHasher) {
        match self {
            None => h.write_bytes(&[0]),
            Some(v) => {
                h.write_bytes(&[1]);
                v.state_hash(h);
            }
        }
    }
}

impl<T: StateHash> StateHash for [T] {
    fn state_hash(&self, h: &mut McHasher) {
        h.write_u64(self.len() as u64);
        for v in self {
            v.state_hash(h);
        }
    }
}

impl<T: StateHash> StateHash for Vec<T> {
    fn state_hash(&self, h: &mut McHasher) {
        self.as_slice().state_hash(h);
    }
}

impl<A: StateHash, B: StateHash> StateHash for (A, B) {
    fn state_hash(&self, h: &mut McHasher) {
        self.0.state_hash(h);
        self.1.state_hash(h);
    }
}

impl StateHash for NodeId {
    fn state_hash(&self, h: &mut McHasher) {
        h.write_u64(self.raw());
    }
}

impl StateHash for TimerTag {
    fn state_hash(&self, h: &mut McHasher) {
        match self {
            TimerTag::Actor(t) => {
                h.write_bytes(&[0]);
                h.write_u64(*t);
            }
            TimerTag::Arq { port, seq } => {
                h.write_bytes(&[1]);
                h.write_u64(*port as u64);
                h.write_u64(*seq);
            }
        }
    }
}

fn hash_of<T: StateHash + ?Sized>(v: &T) -> u128 {
    let mut h = McHasher::new();
    v.state_hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// States and transitions
// ---------------------------------------------------------------------------

/// One in-flight message with its cached canonical key.
#[derive(Clone)]
struct Env<M> {
    from: u64,
    to: u64,
    msg: M,
    /// Canonical hash of `msg`, cached so sorting and state hashing
    /// never re-walk the payload.
    mh: u128,
}

impl<M> Env<M> {
    /// Canonical multiset key: destination-major so same-target
    /// deliveries (always dependent) are adjacent.
    fn key(&self) -> (u64, u64, u128) {
        (self.to, self.from, self.mh)
    }
}

/// A full checker state. Envelope and timer lists are kept canonically
/// sorted so the multiset hash is order-insensitive.
struct St<A: Actor> {
    actors: Vec<Option<A>>,
    /// Killed mid-exploration (post-mortem state retained, like the
    /// engine's `dead` vector). Pre-run faulty nodes have no actor.
    dead: Vec<bool>,
    inflight: Vec<Env<A::Msg>>,
    timers: Vec<(u64, TimerTag)>,
    loss: u32,
    dup: u32,
    kills: u32,
    halted: bool,
}

impl<A: Actor + Clone> Clone for St<A> {
    fn clone(&self) -> Self {
        St {
            actors: self.actors.clone(),
            dead: self.dead.clone(),
            inflight: self.inflight.clone(),
            timers: self.timers.clone(),
            loss: self.loss,
            dup: self.dup,
            kills: self.kills,
            halted: self.halted,
        }
    }
}

impl<A: Actor + StateHash> St<A> {
    fn hash(&self) -> u128 {
        let mut h = McHasher::new();
        for a in &self.actors {
            match a {
                None => h.write_bytes(&[0]),
                Some(a) => {
                    h.write_bytes(&[1]);
                    a.state_hash(&mut h);
                }
            }
        }
        for &d in &self.dead {
            h.write_bytes(&[d as u8]);
        }
        h.write_u64(self.inflight.len() as u64);
        for e in &self.inflight {
            h.write_u64(e.from);
            h.write_u64(e.to);
            h.write_u128(e.mh);
        }
        h.write_u64(self.timers.len() as u64);
        for (v, tag) in &self.timers {
            h.write_u64(*v);
            tag.state_hash(&mut h);
        }
        h.write_u64(self.loss as u64);
        h.write_u64(self.dup as u64);
        h.write_u64(self.kills as u64);
        h.write_bytes(&[self.halted as u8]);
        h.finish()
    }

    fn projection(&self) -> u128 {
        projection_hash(&self.actors, &self.dead)
    }
}

/// Hash of the *actor projection* of a state: per-node protocol states
/// plus mid-run death flags, excluding in-flight messages, timers and
/// budgets. This is the surface on which engine runs and checker
/// states are compared — see [`engine_projection`].
pub fn projection_hash<A: StateHash>(actors: &[Option<A>], dead: &[bool]) -> u128 {
    let mut h = McHasher::new();
    for a in actors {
        match a {
            None => h.write_bytes(&[0]),
            Some(a) => {
                h.write_bytes(&[1]);
                a.state_hash(&mut h);
            }
        }
    }
    for &d in dead {
        h.write_bytes(&[d as u8]);
    }
    h.finish()
}

/// The actor projection of a live [`crate::event::EventEngine`],
/// hashable against a checker run's [`McReport::projections`] set:
/// cross-validation asserts every projection an engine schedule passes
/// through is one the exhaustive search also reached.
pub fn engine_projection<T: Topology, A: Actor + StateHash>(
    eng: &crate::event::EventEngine<'_, T, A>,
) -> u128 {
    let n = eng.network().num_nodes();
    let mut h = McHasher::new();
    for v in 0..n {
        match eng.actor(NodeId::new(v)) {
            None => h.write_bytes(&[0]),
            Some(a) => {
                h.write_bytes(&[1]);
                a.state_hash(&mut h);
            }
        }
    }
    for v in 0..n {
        h.write_bytes(&[eng.is_dead(NodeId::new(v)) as u8]);
    }
    h.finish()
}

/// One atomic exploration choice, by position in the canonical
/// enumeration of the source state (see [`McReport`] paths).
#[derive(Clone, Copy, Debug)]
enum Choice {
    Deliver(usize),
    Fire(usize),
    Drop(usize),
    Dup(usize),
    Kill(u64),
}

/// Transition metadata used for the independence relation and as sleep
/// set entries. `fp` uniquely fingerprints the transition across
/// states (same envelope key / timer / victim ⇒ same fingerprint).
#[derive(Clone, Copy, Debug, PartialEq)]
struct TMeta {
    fp: u128,
    /// 0 deliver, 1 fire, 2 drop, 3 dup, 4 kill.
    kind: u8,
    /// Actor whose state the transition touches (deliver/fire target,
    /// kill victim), or `u64::MAX` for budget-only choices.
    target: u64,
    /// Envelope key for deliver/drop/dup.
    ekey: Option<(u64, u64, u128)>,
}

/// Conservative independence: `true` only when executing either
/// transition first provably commutes *from the given state* (budgets
/// matter: two drops contend when only one loss remains).
fn indep<A: Actor>(a: &TMeta, b: &TMeta, st: &St<A>) -> bool {
    if a.fp == b.fp {
        return false;
    }
    if a.kind == 4 || b.kind == 4 {
        let (k, o) = if a.kind == 4 { (a, b) } else { (b, a) };
        if o.kind == 4 {
            return st.kills >= 2 && k.target != o.target;
        }
        // A kill purges envelopes to and timers on the victim; anything
        // addressing the victim is therefore order-sensitive.
        return o.target != k.target && o.ekey.is_none_or(|e| e.0 != k.target);
    }
    if a.kind <= 1 && b.kind <= 1 {
        // Two actor-touching transitions commute iff they touch
        // different actors (each only reads/writes its own target and
        // appends fresh effects).
        return a.target != b.target;
    }
    if let (Some(x), Some(y)) = (a.ekey, b.ekey) {
        if x == y {
            // Same envelope key: consuming/duplicating copies of the
            // same message — conservatively ordered.
            return false;
        }
    }
    if a.kind == 2 && b.kind == 2 {
        return st.loss >= 2;
    }
    if a.kind == 3 && b.kind == 3 {
        return st.dup >= 2;
    }
    true
}

// ---------------------------------------------------------------------------
// Configuration, properties, reports
// ---------------------------------------------------------------------------

/// Exploration bounds and reductions for one checker run.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Messages the adversary may silently drop along any path.
    pub loss_budget: u32,
    /// Messages the adversary may duplicate along any path.
    pub dup_budget: u32,
    /// Nodes the adversary may fault-stop mid-run.
    pub kill_budget: u32,
    /// Which nodes a kill may target (empty = kills disabled even with
    /// budget). Restricting victims keeps the branching factor scoped
    /// to the scenario under test.
    pub kill_victims: Vec<u64>,
    /// Hard cap on distinct visited states; exceeding it stops the
    /// search and sets [`McReport::truncated`] (never silent).
    pub max_states: u64,
    /// Enables the sleep-set reduction (state coverage is identical
    /// either way; this only prunes redundant transition executions).
    pub sleep_sets: bool,
    /// Enables no-op closure — only sound for protocols whose no-op
    /// deliveries are *stable* (GS/delta-GS yes, ARQ no; DESIGN.md §14).
    pub closure: bool,
    /// Collects the actor-projection hash of every reached state into
    /// [`McReport::projections`] for cross-validation against engine
    /// runs.
    pub collect_projections: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            loss_budget: 0,
            dup_budget: 0,
            kill_budget: 0,
            kill_victims: Vec::new(),
            max_states: 20_000_000,
            sleep_sets: true,
            closure: false,
            collect_projections: false,
        }
    }
}

/// A read-only view of one reached state handed to property checks.
pub struct McSnapshot<'s, A> {
    /// Per-node actor states (`None` = faulty before the run started).
    pub actors: &'s [Option<A>],
    /// Nodes fault-stopped mid-run (post-mortem actor state retained).
    pub dead: &'s [bool],
    /// `true` when nothing is in flight and no timer is armed — the
    /// states a real execution can end in.
    pub quiescent: bool,
}

/// One safety property: checked at every newly discovered state, or —
/// with [`McCheck::terminal_only`] — only at quiescent/halted states.
pub struct McCheck<'p, A> {
    /// Property name reported on violation.
    pub name: &'static str,
    /// Restricts the check to quiescent (or halted) states.
    pub terminal_only: bool,
    /// Returns `Err(detail)` on violation.
    #[allow(clippy::type_complexity)]
    pub check: Box<dyn Fn(&McSnapshot<'_, A>) -> Result<(), String> + 'p>,
}

/// A property violation with its replayable counterexample.
#[derive(Clone, Debug)]
pub struct McViolation {
    /// Name of the violated [`McCheck`].
    pub property: String,
    /// Checker-supplied detail string.
    pub detail: String,
    /// BFS depth (number of transitions from the initial state).
    pub depth: u32,
    /// Canonical choice indices from the initial state: replay with
    /// [`replay`] re-executes exactly this path, seedlessly.
    pub path: Vec<u32>,
    /// Human-readable rendering of the path (one line per step),
    /// byte-identical to what [`replay`] reproduces.
    pub rendered: String,
}

/// Outcome of one [`explore`] run.
#[derive(Clone, Debug, Default)]
pub struct McReport {
    /// Distinct states visited (after reductions).
    pub states: u64,
    /// Transitions actually executed.
    pub transitions: u64,
    /// Transitions skipped by the sleep-set reduction.
    pub pruned: u64,
    /// No-op envelopes/timers consumed by closure.
    pub closed: u64,
    /// Peak BFS frontier length.
    pub frontier_peak: u64,
    /// Quiescent states reached (where a real run can end).
    pub terminals: u64,
    /// Longest path explored, in transitions.
    pub max_depth: u32,
    /// `true` when [`McConfig::max_states`] stopped the search early —
    /// verdicts from a truncated run are not exhaustive.
    pub truncated: bool,
    /// First property violation found, if any (the search stops on it).
    pub violation: Option<McViolation>,
    /// Actor-projection hashes of every reached state, when
    /// [`McConfig::collect_projections`] was set.
    pub projections: Option<HashSet<u128>>,
}

impl McReport {
    /// Fraction of candidate transitions the sleep-set reduction
    /// skipped: `pruned / (executed + pruned)`.
    pub fn reduction_ratio(&self) -> f64 {
        let tot = self.transitions + self.pruned;
        if tot == 0 {
            0.0
        } else {
            self.pruned as f64 / tot as f64
        }
    }
}

/// Result of replaying a counterexample path.
#[derive(Clone, Debug)]
pub struct McReplay {
    /// One line per replayed step, byte-identical across replays of
    /// the same path.
    pub rendered: String,
    /// Canonical state hash after every step (initial state first).
    pub state_hashes: Vec<u128>,
    /// First `(property, detail)` violation encountered during replay.
    pub violation: Option<(String, String)>,
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

struct Mc<'a, T: Topology, A: Actor> {
    net: &'a Net<'a, T>,
    cfg: &'a McConfig,
    report: McReport,
    _ph: std::marker::PhantomData<A>,
}

impl<'a, T, A> Mc<'a, T, A>
where
    T: Topology,
    A: Actor + Clone + StateHash,
    A::Msg: Clone + StateHash + std::fmt::Debug,
{
    /// Runs `f` as an actor callback on node `v` of `st` and absorbs
    /// the effects, mirroring the engine's `absorb_ctx`: sends to
    /// non-neighbors panic, sends into faulty nodes / across faulty
    /// links / to killed nodes vanish.
    fn run_callback(&self, st: &mut St<A>, v: u64, f: impl FnOnce(&mut A, &mut Ctx<A::Msg>)) {
        let mut ctx = Ctx::detached(NodeId::new(v), 0 as Time);
        let actor = st.actors[v as usize]
            .as_mut()
            .expect("callback on a node with no actor");
        f(actor, &mut ctx);
        let (sends, timers, halt) = ctx.into_effects();
        for (_t, dst, msg) in sends {
            let d = dst.raw();
            assert!(
                self.net.port_of(v, d).is_some(),
                "{v} may only message neighbors, not {d}"
            );
            if self.net.node_faulty(d) || self.net.link_faulty(v, d) || st.dead[d as usize] {
                continue;
            }
            let mh = hash_of(&msg);
            st.inflight.push(Env {
                from: v,
                to: d,
                msg,
                mh,
            });
        }
        for (_t, tag) in timers {
            st.timers.push((v, tag));
        }
        st.halted |= halt;
    }

    fn normalize(&mut self, st: &mut St<A>) {
        st.inflight.sort_by_key(|e| e.key());
        st.timers.sort_unstable();
        if self.cfg.closure {
            self.close_noops(st);
        }
    }

    /// No-op closure: consumes envelopes/timers whose handling leaves
    /// the target actor hash-identical and produces no effects, to a
    /// fixpoint. See the module docs for the stability requirement.
    fn close_noops(&mut self, st: &mut St<A>) {
        loop {
            let mut removed = false;
            let mut i = 0;
            while i < st.inflight.len() {
                // Identical envelopes share the verdict; test one copy.
                if i > 0 && st.inflight[i].key() == st.inflight[i - 1].key() {
                    i += 1;
                    continue;
                }
                let e = &st.inflight[i];
                if self.is_noop(st, e.to, |a, ctx| {
                    let (from, msg) = (NodeId::new(e.from), e.msg.clone());
                    a.on_message(ctx, from, msg)
                }) {
                    st.inflight.remove(i);
                    self.report.closed += 1;
                    removed = true;
                } else {
                    i += 1;
                }
            }
            let mut j = 0;
            while j < st.timers.len() {
                if j > 0 && st.timers[j] == st.timers[j - 1] {
                    j += 1;
                    continue;
                }
                let (v, tag) = st.timers[j];
                if self.is_noop(st, v, |a, ctx| a.on_timer_tag(ctx, tag)) {
                    st.timers.remove(j);
                    self.report.closed += 1;
                    removed = true;
                } else {
                    j += 1;
                }
            }
            if !removed {
                break;
            }
        }
    }

    fn is_noop(&self, st: &St<A>, v: u64, f: impl FnOnce(&mut A, &mut Ctx<A::Msg>)) -> bool {
        let Some(actor) = st.actors[v as usize].as_ref() else {
            return false;
        };
        let before = hash_of(actor);
        let mut probe = actor.clone();
        let mut ctx = Ctx::detached(NodeId::new(v), 0 as Time);
        f(&mut probe, &mut ctx);
        let (sends, timers, halt) = ctx.into_effects();
        sends.is_empty() && timers.is_empty() && !halt && hash_of(&probe) == before
    }

    /// Canonical transition enumeration. The index into the returned
    /// vector is the canonical choice index used in violation paths.
    fn choices(&self, st: &St<A>) -> Vec<(Choice, TMeta)> {
        let mut out = Vec::new();
        if st.halted {
            return out;
        }
        let per_env = |kind: u8, mk: fn(usize) -> Choice, out: &mut Vec<(Choice, TMeta)>| {
            for i in 0..st.inflight.len() {
                if i > 0 && st.inflight[i].key() == st.inflight[i - 1].key() {
                    continue; // identical copies yield identical successors
                }
                let e = &st.inflight[i];
                let mut h = McHasher::new();
                h.write_bytes(&[kind]);
                h.write_u64(e.from);
                h.write_u64(e.to);
                h.write_u128(e.mh);
                out.push((
                    mk(i),
                    TMeta {
                        fp: h.finish(),
                        kind,
                        target: if kind == 0 { e.to } else { u64::MAX },
                        ekey: Some(e.key()),
                    },
                ));
            }
        };
        per_env(0, Choice::Deliver, &mut out);
        for i in 0..st.timers.len() {
            if i > 0 && st.timers[i] == st.timers[i - 1] {
                continue;
            }
            let (v, tag) = st.timers[i];
            let mut h = McHasher::new();
            h.write_bytes(&[1]);
            h.write_u64(v);
            tag.state_hash(&mut h);
            out.push((
                Choice::Fire(i),
                TMeta {
                    fp: h.finish(),
                    kind: 1,
                    target: v,
                    ekey: None,
                },
            ));
        }
        if st.loss > 0 {
            per_env(2, Choice::Drop, &mut out);
        }
        if st.dup > 0 {
            per_env(3, Choice::Dup, &mut out);
        }
        if st.kills > 0 {
            for &v in &self.cfg.kill_victims {
                let alive = st.actors[v as usize].is_some() && !st.dead[v as usize];
                if !alive {
                    continue;
                }
                let mut h = McHasher::new();
                h.write_bytes(&[4]);
                h.write_u64(v);
                out.push((
                    Choice::Kill(v),
                    TMeta {
                        fp: h.finish(),
                        kind: 4,
                        target: v,
                        ekey: None,
                    },
                ));
            }
        }
        out
    }

    /// Executes one choice on a copy of `st` and canonicalizes the
    /// successor.
    fn exec(&mut self, st: &St<A>, c: Choice) -> St<A> {
        let mut nx = st.clone();
        match c {
            Choice::Deliver(i) => {
                let e = nx.inflight.remove(i);
                if !nx.dead[e.to as usize] {
                    self.run_callback(&mut nx, e.to, |a, ctx| {
                        a.on_message(ctx, NodeId::new(e.from), e.msg)
                    });
                }
            }
            Choice::Fire(i) => {
                let (v, tag) = nx.timers.remove(i);
                if !nx.dead[v as usize] {
                    self.run_callback(&mut nx, v, |a, ctx| a.on_timer_tag(ctx, tag));
                }
            }
            Choice::Drop(i) => {
                nx.inflight.remove(i);
                nx.loss -= 1;
            }
            Choice::Dup(i) => {
                let e = nx.inflight[i].clone();
                nx.inflight.push(e);
                nx.dup -= 1;
            }
            Choice::Kill(v) => {
                nx.dead[v as usize] = true;
                nx.kills -= 1;
                nx.inflight.retain(|e| e.to != v);
                nx.timers.retain(|&(t, _)| t != v);
            }
        }
        self.report.transitions += 1;
        self.normalize(&mut nx);
        nx
    }

    fn render_choice(&self, st: &St<A>, c: Choice) -> String {
        match c {
            Choice::Deliver(i) => {
                let e = &st.inflight[i];
                format!("deliver {} -> {}  {:?}", e.from, e.to, e.msg)
            }
            Choice::Fire(i) => {
                let (v, tag) = st.timers[i];
                format!("fire   {v}  {tag:?}")
            }
            Choice::Drop(i) => {
                let e = &st.inflight[i];
                format!("drop   {} -> {}  {:?}", e.from, e.to, e.msg)
            }
            Choice::Dup(i) => {
                let e = &st.inflight[i];
                format!("dup    {} -> {}  {:?}", e.from, e.to, e.msg)
            }
            Choice::Kill(v) => format!("kill   {v}"),
        }
    }

    fn initial(
        &mut self,
        mut init: impl FnMut(NodeId) -> A,
        injections: &[(NodeId, u64)],
    ) -> St<A> {
        let n = self.net.num_nodes();
        let mut st = St {
            actors: (0..n)
                .map(|v| {
                    if self.net.node_faulty(v) {
                        None
                    } else {
                        Some(init(NodeId::new(v)))
                    }
                })
                .collect(),
            dead: vec![false; n as usize],
            inflight: Vec::new(),
            timers: Vec::new(),
            loss: self.cfg.loss_budget,
            dup: self.cfg.dup_budget,
            kills: self.cfg.kill_budget,
            halted: false,
        };
        for v in 0..n {
            if st.actors[v as usize].is_some() {
                self.run_callback(&mut st, v, |a, ctx| a.on_start(ctx));
            }
        }
        for &(node, tag) in injections {
            assert!(
                st.actors[node.raw() as usize].is_some(),
                "injection into a faulty node"
            );
            st.timers.push((node.raw(), TimerTag::Actor(tag)));
        }
        self.normalize(&mut st);
        st
    }

    fn check_state(
        &self,
        st: &St<A>,
        checks: &[McCheck<'_, A>],
        quiescent: bool,
        terminal: bool,
    ) -> Option<(String, String)> {
        let snap = McSnapshot {
            actors: &st.actors,
            dead: &st.dead,
            quiescent,
        };
        for c in checks {
            if c.terminal_only && !terminal {
                continue;
            }
            if let Err(detail) = (c.check)(&snap) {
                return Some((c.name.to_string(), detail));
            }
        }
        None
    }
}

struct VisitedEntry {
    sleep: Vec<TMeta>,
    /// `true` once the state has been expanded with (at least) the
    /// current sleep set; re-reaching it with a strictly smaller one
    /// re-queues it.
    expanded: bool,
    parent: Option<(u128, u32)>,
    depth: u32,
}

fn sleep_superset(a: &[TMeta], b: &[TMeta]) -> bool {
    // Both sorted by fp: is `a` ⊇ `b`?
    b.iter()
        .all(|t| a.binary_search_by(|x| x.fp.cmp(&t.fp)).is_ok())
}

fn sleep_intersect(a: &[TMeta], b: &[TMeta]) -> Vec<TMeta> {
    a.iter()
        .filter(|t| b.binary_search_by(|x| x.fp.cmp(&t.fp)).is_ok())
        .cloned()
        .collect()
}

/// Exhaustively explores every reachable state of the protocol
/// `init` spawns on `net`, checking `checks` at each one.
///
/// `injections` are initial actor-timer events (node, tag) — the
/// checker explores every position in the schedule for them, exactly
/// like engine-injected timers race with protocol traffic.
///
/// On violation the search stops and [`McReport::violation`] carries a
/// canonical choice-index path from the initial state plus its
/// rendering; [`replay`] re-executes it deterministically.
pub fn explore<T, A>(
    net: &Net<'_, T>,
    init: impl FnMut(NodeId) -> A,
    injections: &[(NodeId, u64)],
    cfg: &McConfig,
    checks: &[McCheck<'_, A>],
) -> McReport
where
    T: Topology,
    A: Actor + Clone + StateHash,
    A::Msg: Clone + StateHash + std::fmt::Debug,
{
    let mut mc = Mc::<'_, T, A> {
        net,
        cfg,
        report: McReport::default(),
        _ph: std::marker::PhantomData,
    };
    if cfg.collect_projections {
        mc.report.projections = Some(HashSet::new());
    }

    let init_st = mc.initial(init, injections);
    let h0 = init_st.hash();
    let mut visited: HashMap<u128, VisitedEntry> = HashMap::new();
    visited.insert(
        h0,
        VisitedEntry {
            sleep: Vec::new(),
            expanded: false,
            parent: None,
            depth: 0,
        },
    );
    mc.report.states = 1;
    if let Some(p) = mc.report.projections.as_mut() {
        p.insert(init_st.projection());
    }

    let mut frontier: VecDeque<(St<A>, u128)> = VecDeque::new();
    let mut violation_at: Option<(u128, String, String)> = None;

    // Check the initial state before exploring from it.
    {
        let quiescent = init_st.inflight.is_empty() && init_st.timers.is_empty();
        let terminal = quiescent || init_st.halted;
        if let Some((p, d)) = mc.check_state(&init_st, checks, quiescent, terminal) {
            violation_at = Some((h0, p, d));
        }
        if quiescent {
            mc.report.terminals += 1;
        }
    }
    if violation_at.is_none() {
        frontier.push_back((init_st, h0));
    }

    'search: while let Some((st, h)) = frontier.pop_front() {
        mc.report.frontier_peak = mc.report.frontier_peak.max(frontier.len() as u64 + 1);
        let (sleep, depth) = {
            let e = visited.get_mut(&h).expect("frontier state is visited");
            if e.expanded {
                continue; // a fresher queue entry already covered this sleep set
            }
            e.expanded = true;
            (e.sleep.clone(), e.depth)
        };
        let cs = mc.choices(&st);
        let mut explored: Vec<TMeta> = Vec::new();
        for (i, (c, m)) in cs.iter().enumerate() {
            if cfg.sleep_sets && sleep.binary_search_by(|x| x.fp.cmp(&m.fp)).is_ok() {
                mc.report.pruned += 1;
                continue;
            }
            let succ = mc.exec(&st, *c);
            let hs = succ.hash();
            let mut next_sleep: Vec<TMeta> = if cfg.sleep_sets {
                sleep
                    .iter()
                    .chain(explored.iter())
                    .filter(|t| indep::<A>(t, m, &st))
                    .cloned()
                    .collect()
            } else {
                Vec::new()
            };
            next_sleep.sort_by_key(|t| t.fp);
            next_sleep.dedup_by(|a, b| a.fp == b.fp);
            explored.push(*m);

            match visited.get_mut(&hs) {
                None => {
                    let quiescent = succ.inflight.is_empty() && succ.timers.is_empty();
                    let terminal = quiescent || succ.halted;
                    if quiescent {
                        mc.report.terminals += 1;
                    }
                    visited.insert(
                        hs,
                        VisitedEntry {
                            sleep: next_sleep,
                            expanded: false,
                            parent: Some((h, i as u32)),
                            depth: depth + 1,
                        },
                    );
                    mc.report.states += 1;
                    mc.report.max_depth = mc.report.max_depth.max(depth + 1);
                    if let Some(p) = mc.report.projections.as_mut() {
                        p.insert(succ.projection());
                    }
                    if let Some((prop, det)) = mc.check_state(&succ, checks, quiescent, terminal) {
                        violation_at = Some((hs, prop, det));
                        break 'search;
                    }
                    if mc.report.states >= cfg.max_states {
                        mc.report.truncated = true;
                        break 'search;
                    }
                    frontier.push_back((succ, hs));
                }
                Some(e) => {
                    if sleep_superset(&next_sleep, &e.sleep) {
                        // Arriving with a bigger (or equal) sleep set:
                        // everything we would explore is already
                        // covered.
                        continue;
                    }
                    e.sleep = sleep_intersect(&e.sleep, &next_sleep);
                    if e.expanded {
                        e.expanded = false;
                        frontier.push_back((succ, hs));
                    }
                }
            }
        }
    }

    if let Some((hv, prop, detail)) = violation_at {
        // Walk the parent chain back to the root to get the canonical
        // index path, then replay it once for the rendering.
        let mut path: Vec<u32> = Vec::new();
        let mut cur = hv;
        let mut depth = 0;
        while let Some(e) = visited.get(&cur) {
            depth = depth.max(e.depth);
            match e.parent {
                Some((ph, idx)) => {
                    path.push(idx);
                    cur = ph;
                }
                None => break,
            }
        }
        path.reverse();
        mc.report.violation = Some(McViolation {
            property: prop,
            detail,
            depth,
            rendered: String::new(),
            path,
        });
    }
    mc.report
}

/// Deterministically re-executes a canonical choice-index `path` from
/// the initial state of the same system, re-running `checks` along the
/// way. Two replays of the same path produce byte-identical
/// [`McReplay::rendered`] text — the artifact format counterexamples
/// are pinned in.
pub fn replay<T, A>(
    net: &Net<'_, T>,
    init: impl FnMut(NodeId) -> A,
    injections: &[(NodeId, u64)],
    cfg: &McConfig,
    checks: &[McCheck<'_, A>],
    path: &[u32],
) -> McReplay
where
    T: Topology,
    A: Actor + Clone + StateHash,
    A::Msg: Clone + StateHash + std::fmt::Debug,
{
    let mut mc = Mc::<'_, T, A> {
        net,
        cfg,
        report: McReport::default(),
        _ph: std::marker::PhantomData,
    };
    let mut st = mc.initial(init, injections);
    let mut rendered = String::new();
    let mut hashes = vec![st.hash()];
    let mut violation = None;
    let check_here = |mc: &Mc<'_, T, A>, st: &St<A>| {
        let quiescent = st.inflight.is_empty() && st.timers.is_empty();
        mc.check_state(st, checks, quiescent, quiescent || st.halted)
    };
    if violation.is_none() {
        violation = check_here(&mc, &st);
    }
    for (step, &idx) in path.iter().enumerate() {
        let cs = mc.choices(&st);
        assert!(
            (idx as usize) < cs.len(),
            "replay step {step}: choice {idx} out of range ({} enabled)",
            cs.len()
        );
        let (c, _) = cs[idx as usize];
        use std::fmt::Write as _;
        let _ = writeln!(
            rendered,
            "step {:>3}: choice {:>2}  {}",
            step + 1,
            idx,
            mc.render_choice(&st, c)
        );
        st = mc.exec(&st, c);
        hashes.push(st.hash());
        if violation.is_none() {
            violation = check_here(&mc, &st);
        }
    }
    McReplay {
        rendered,
        state_hashes: hashes,
        violation,
    }
}

/// Renders a violation into the trace-artifact text format used under
/// `tests/corpus/`: a header naming the property, then the replayed
/// step lines. Byte-stable across runs.
pub fn render_artifact(v: &McViolation) -> String {
    format!(
        "mc counterexample\nproperty: {}\ndetail: {}\ndepth: {}\npath: {}\n--\n{}",
        v.property,
        v.detail,
        v.depth,
        v.path
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(","),
        v.rendered
    )
}

/// Parses the `path:` line back out of a [`render_artifact`] trace.
pub fn parse_artifact_path(text: &str) -> Option<Vec<u32>> {
    let line = text.lines().find(|l| l.starts_with("path: "))?;
    let body = line.trim_start_matches("path: ").trim();
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|s| s.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Net;
    use hypersafe_topology::{FaultConfig, Hypercube};

    /// A toy flood: node 0 holds a token and announces it; every node
    /// that first receives it re-announces once. Monotone (a holder
    /// never un-holds, re-deliveries are no-ops), so no-op closure is
    /// sound, and the total message count is bounded by 2 per node —
    /// the whole state space stays tiny even without reductions.
    #[derive(Clone)]
    struct Flood {
        me: u64,
        have: bool,
        n: u8,
    }

    impl StateHash for Flood {
        fn state_hash(&self, h: &mut McHasher) {
            h.write_bytes(&[self.have as u8]);
        }
    }

    impl Actor for Flood {
        type Msg = u8;

        fn on_start(&mut self, ctx: &mut Ctx<u8>) {
            if self.have {
                for d in 0..self.n {
                    ctx.send(ctx.self_id().neighbor(d), 1, 1);
                }
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<u8>, _from: NodeId, _msg: u8) {
            if !self.have {
                self.have = true;
                for d in 0..self.n {
                    ctx.send(ctx.self_id().neighbor(d), 1, 1);
                }
            }
        }
    }

    fn gossip_init(v: NodeId) -> Flood {
        Flood {
            me: v.raw(),
            have: v.raw() == 0,
            n: 2,
        }
    }

    fn q2() -> FaultConfig {
        FaultConfig::fault_free(Hypercube::new(2))
    }

    fn full_knowledge_check<'p>() -> McCheck<'p, Flood> {
        McCheck {
            name: "flood-complete",
            terminal_only: true,
            check: Box::new(|s: &McSnapshot<'_, Flood>| {
                if !s.quiescent {
                    return Ok(());
                }
                for a in s.actors.iter().flatten() {
                    if !a.have {
                        return Err(format!("node {} never got the token", a.me));
                    }
                }
                Ok(())
            }),
        }
    }

    #[test]
    fn gossip_on_q2_converges_everywhere() {
        let cfg = q2();
        let net = Net::cube(&cfg);
        let mcfg = McConfig {
            closure: true,
            ..McConfig::default()
        };
        let rep = explore(&net, gossip_init, &[], &mcfg, &[full_knowledge_check()]);
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
        assert!(!rep.truncated);
        assert!(rep.states > 1);
        assert!(rep.terminals >= 1);
    }

    #[test]
    fn sleep_sets_preserve_the_reachable_state_set() {
        let cfg = q2();
        let net = Net::cube(&cfg);
        let base = McConfig {
            collect_projections: true,
            sleep_sets: false,
            ..McConfig::default()
        };
        let slept = McConfig {
            sleep_sets: true,
            ..base.clone()
        };
        let a = explore(&net, gossip_init, &[], &base, &[]);
        let b = explore(&net, gossip_init, &[], &slept, &[]);
        assert_eq!(a.projections, b.projections);
        assert_eq!(a.states, b.states);
        assert!(b.pruned > 0, "sleep sets should prune something");
        assert!(b.transitions < a.transitions);
    }

    #[test]
    fn closure_collapses_noop_deliveries_without_changing_projections() {
        let cfg = q2();
        let net = Net::cube(&cfg);
        let open = McConfig {
            collect_projections: true,
            closure: false,
            ..McConfig::default()
        };
        let closed = McConfig {
            closure: true,
            ..open.clone()
        };
        let a = explore(&net, gossip_init, &[], &open, &[]);
        let b = explore(&net, gossip_init, &[], &closed, &[]);
        assert!(b.closed > 0, "closure should consume stale announcements");
        assert!(b.states < a.states);
        // Every actor projection reachable with closure is reachable
        // without it (closure only removes no-effect transitions).
        let (pa, pb) = (a.projections.unwrap(), b.projections.unwrap());
        assert!(pb.is_subset(&pa));
        // And the full-knowledge projections agree.
        assert!(a.violation.is_none() && b.violation.is_none());
    }

    #[test]
    fn violation_paths_replay_byte_identically() {
        // Plant a violation: the all-ones state is reported as an
        // error, so the checker must find a path to convergence.
        let cfg = q2();
        let net = Net::cube(&cfg);
        let trap = McCheck {
            name: "trap",
            terminal_only: false,
            check: Box::new(|s: &McSnapshot<'_, Flood>| {
                let holders = s.actors.iter().flatten().filter(|a| a.have).count();
                if holders >= 3 {
                    Err(format!("{holders} nodes hold the token"))
                } else {
                    Ok(())
                }
            }),
        };
        let mcfg = McConfig::default();
        let rep = explore(&net, gossip_init, &[], &mcfg, &[trap]);
        let v = rep.violation.expect("trap must spring");
        assert!(!v.path.is_empty());
        let r1 = replay(&net, gossip_init, &[], &mcfg, &[], &v.path);
        let r2 = replay(&net, gossip_init, &[], &mcfg, &[], &v.path);
        assert_eq!(r1.rendered, r2.rendered);
        assert_eq!(r1.state_hashes, r2.state_hashes);
        assert!(!r1.rendered.is_empty());
    }

    #[test]
    fn loss_budget_reaches_partially_informed_terminals() {
        let cfg = q2();
        let net = Net::cube(&cfg);
        let lossy = McConfig {
            loss_budget: 4,
            ..McConfig::default()
        };
        let lossless = McConfig::default();
        // Losslessly the flood always completes ...
        let a = explore(&net, gossip_init, &[], &lossless, &[full_knowledge_check()]);
        assert!(a.violation.is_none(), "{:?}", a.violation);
        assert_eq!(a.terminals, 1, "lossless flood has one quiescent state");
        // ... but an adversary that may drop messages can strand nodes,
        // which the terminal check must catch with a replayable path.
        let b = explore(&net, gossip_init, &[], &lossy, &[full_knowledge_check()]);
        let v = b.violation.expect("a dropped token must strand a node");
        assert!(!v.path.is_empty());
        let r = replay(&net, gossip_init, &[], &lossy, &[], &v.path);
        assert!(r.rendered.contains("drop"));
    }

    #[test]
    fn kill_choices_purge_and_are_bounded() {
        let cfg = q2();
        let net = Net::cube(&cfg);
        let mcfg = McConfig {
            kill_budget: 1,
            kill_victims: vec![3],
            ..McConfig::default()
        };
        let rep = explore(&net, gossip_init, &[], &mcfg, &[]);
        assert!(rep.violation.is_none());
        assert!(!rep.truncated);
        // Killing node 3 must be reachable; with it dead the others
        // may still converge among themselves.
        assert!(rep.states > 0);
    }

    #[test]
    fn artifact_roundtrips_path() {
        let v = McViolation {
            property: "p".into(),
            detail: "d".into(),
            depth: 3,
            path: vec![0, 2, 1],
            rendered: "step 1\n".into(),
        };
        let text = render_artifact(&v);
        assert_eq!(parse_artifact_path(&text).unwrap(), vec![0, 2, 1]);
    }

    #[test]
    fn injections_race_with_protocol_traffic() {
        let cfg = q2();
        let net = Net::cube(&cfg);
        let mcfg = McConfig::default();
        // An injected timer on node 0 (ignored by Gossip::on_timer
        // default) must still appear as an explorable choice.
        let rep = explore(&net, gossip_init, &[(NodeId::new(0), 7)], &mcfg, &[]);
        assert!(rep.violation.is_none());
        assert!(rep.states > 1);
    }

    /// Node 0 of Q2 announcing along a third dimension sends to node 4,
    /// outside the cube: the checker rejects it as a non-neighbor send.
    #[test]
    #[should_panic(expected = "may only message neighbors")]
    fn sending_outside_the_cube_panics() {
        let cfg = q2();
        let net = Net::cube(&cfg);
        let init = |v: NodeId| Flood {
            n: 3,
            ..gossip_init(v)
        };
        explore(&net, init, &[], &McConfig::default(), &[]);
    }
}
