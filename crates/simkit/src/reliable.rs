//! Reliable delivery over lossy links: per-neighbor sequence numbers,
//! cumulative ACKs, retransmission timers with exponential backoff, and
//! duplicate suppression.
//!
//! The protocols in `hypersafe-core` are specified against the paper's
//! reliable-link model. To run them over a noisy
//! [`crate::channel::ChannelModel`] without touching their logic, this
//! module provides a shim layer in the style of a minimal transport:
//!
//! * [`ReliableActor`] — what a protocol implements: the same three
//!   callbacks as [`Actor`], but sends go through
//!   [`RelCtx::send_reliable`].
//! * [`Reliable<A>`] — the wrapper that is the actual [`Actor`]: it
//!   owns a [`ReliableEndpoint`] doing sequencing/ACK/retransmit and
//!   surfaces to the inner actor only fresh, in-order messages.
//!
//! Per link (one per neighbor port; on a binary cube, port ≡
//! dimension) the endpoint keeps an outgoing stream with sequence
//! numbers starting at 1 and an incoming cursor `cum` = highest
//! sequence delivered in order. Every arriving `Data` is answered with
//! a cumulative `Ack { cum }`; data at or below `cum` (channel
//! duplicates or retransmissions that crossed an ACK) are suppressed,
//! data above `cum + 1` is buffered until the gap fills, so the inner
//! actor sees each message exactly once, in send order.
//! Unacknowledged messages are retransmitted individually on a
//! per-sequence timer whose period doubles each attempt up to
//! [`ReliableConfig::rto_cap`], plus a seeded jitter of up to
//! [`ReliableConfig::jitter_max`] ticks (a pure function of the seed,
//! port, sequence, and attempt — so runs stay deterministic while
//! retry storms desynchronize instead of thundering in lockstep). An
//! ACK that acknowledges anything new resets the backoff of the
//! sequences still outstanding on that link back to the base
//! [`ReliableConfig::rto`]: fresh proof the peer is alive makes the
//! grown ladder stale evidence (duplicate ACKs keep it). After
//! [`ReliableConfig::max_retries`] attempts the link is declared dead
//! (the peer is fault-stop silent — indistinguishable from total
//! loss) and recorded in [`ReliableEndpoint::gave_up_dims`].
//!
//! Retransmission timers live in their own [`TimerTag::Arq`] tag
//! space, so inner actors may use any `u64` tag without colliding with
//! the transport. Retransmission and ACK counts are folded into the
//! engine's [`crate::stats::EventStats`] via
//! [`Ctx::note_retransmit_on`] / [`Ctx::note_acks`] (the former also
//! attributes each retransmission to its outgoing port when a
//! [`crate::obs::Metrics`] registry is installed), so experiment code
//! can read total overhead from one place.

use crate::channel::{mix, uniform_inclusive};
use crate::event::{Actor, Ctx, Time, TimerTag};
use crate::mc::{McHasher, StateHash};
use hypersafe_topology::{NodeId, Topology};
use std::collections::BTreeMap;

/// Tuning knobs for the retransmission machinery.
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// Initial retransmission timeout, in ticks. Should comfortably
    /// exceed one round trip (2 × latency + jitter).
    pub rto: Time,
    /// Upper bound the exponential backoff saturates at.
    pub rto_cap: Time,
    /// Retransmission attempts per message before the link is declared
    /// dead. With loss rate p the residual failure probability is
    /// p^(max_retries + 1).
    pub max_retries: u32,
    /// Extra delay added to every retransmission, uniform in
    /// `0..=jitter_max` ticks. Zero disables jitter and makes the
    /// backoff chain exact.
    pub jitter_max: Time,
    /// Seed of the jitter stream. The jitter of one retransmission is
    /// a pure function of `(jitter_seed, port, seq, attempt)`, so the
    /// same configuration replays tick-identically.
    pub jitter_seed: u64,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            rto: 8,
            rto_cap: 256,
            max_retries: 12,
            jitter_max: 2,
            jitter_seed: 0xB0FF_5EED,
        }
    }
}

/// Wire format of the reliable layer.
#[derive(Clone, Debug)]
pub enum ReliableMsg<M> {
    /// A sequenced payload.
    Data {
        /// Per-link sequence number, starting at 1.
        seq: u64,
        /// The inner actor's message.
        payload: M,
    },
    /// Cumulative acknowledgement: every sequence `≤ cum` arrived.
    Ack {
        /// Highest in-order sequence received on this link.
        cum: u64,
    },
}

#[derive(Clone)]
struct OutLink<M> {
    next_seq: u64,
    /// seq → (payload, attempts so far, current rto).
    unacked: BTreeMap<u64, (M, u32, Time)>,
    dead: bool,
}

impl<M> Default for OutLink<M> {
    fn default() -> Self {
        OutLink {
            next_seq: 1,
            unacked: BTreeMap::new(),
            dead: false,
        }
    }
}

#[derive(Clone)]
struct InLink<M> {
    cum: u64,
    buffer: BTreeMap<u64, M>,
}

impl<M> Default for InLink<M> {
    fn default() -> Self {
        InLink {
            cum: 0,
            buffer: BTreeMap::new(),
        }
    }
}

/// Per-node transport state: one outgoing stream and one incoming
/// cursor per neighbor port.
#[derive(Clone)]
pub struct ReliableEndpoint<M> {
    /// The node at port `p`'s far end, fixed at construction.
    neighbors: Vec<NodeId>,
    latency: Time,
    cfg: ReliableConfig,
    out: Vec<OutLink<M>>,
    inn: Vec<InLink<M>>,
    retransmits: u64,
    acks_sent: u64,
    duplicates_suppressed: u64,
    gave_up: Vec<u8>,
}

impl<M: Clone> ReliableEndpoint<M> {
    /// Fresh endpoint for node `me` of `topo`: port `p` reaches the
    /// neighbour across the port with linear index `p` (on a cube, the
    /// dimension-`p` neighbour). `latency` is the per-hop send latency
    /// used for both data and ACKs.
    pub fn new<T: Topology>(topo: T, me: NodeId, latency: Time, cfg: ReliableConfig) -> Self {
        assert!(cfg.rto > 0, "rto must be positive");
        let neighbors: Vec<NodeId> = topo
            .neighbours(T::from_raw(me.raw()))
            .map(|b| NodeId::new(T::raw(b)))
            .collect();
        let ports = neighbors.len();
        ReliableEndpoint {
            neighbors,
            latency: latency.max(1),
            cfg,
            out: (0..ports).map(|_| OutLink::default()).collect(),
            inn: (0..ports).map(|_| InLink::default()).collect(),
            retransmits: 0,
            acks_sent: 0,
            duplicates_suppressed: 0,
            gave_up: Vec::new(),
        }
    }

    /// Total retransmissions performed by this endpoint.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Total acknowledgements sent.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }

    /// Arrivals suppressed as duplicates (never shown to the actor).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// Messages sent but not yet acknowledged, across all links.
    pub fn in_flight(&self) -> usize {
        self.out.iter().map(|o| o.unacked.len()).sum()
    }

    /// Ports on which delivery was abandoned after `max_retries`
    /// attempts (dead or unreachable peer). On a binary cube a port is
    /// exactly a dimension, hence the name.
    pub fn gave_up_dims(&self) -> &[u8] {
        &self.gave_up
    }

    fn port_of(&self, peer: NodeId) -> usize {
        self.neighbors
            .iter()
            .position(|&b| b == peer)
            .expect("peer must be a neighbor")
    }

    fn send(&mut self, raw: &mut Ctx<ReliableMsg<M>>, port: usize, payload: M) {
        let link = &mut self.out[port];
        if link.dead {
            return; // peer already declared dead; don't queue behind it
        }
        let seq = link.next_seq;
        link.next_seq += 1;
        link.unacked.insert(seq, (payload.clone(), 0, self.cfg.rto));
        raw.send(
            self.neighbors[port],
            ReliableMsg::Data { seq, payload },
            self.latency,
        );
        raw.set_arq_timer(self.cfg.rto, port as u32, seq);
    }

    fn handle_message(
        &mut self,
        raw: &mut Ctx<ReliableMsg<M>>,
        from: NodeId,
        msg: ReliableMsg<M>,
    ) -> Vec<(NodeId, M)> {
        let port = self.port_of(from);
        match msg {
            ReliableMsg::Ack { cum } => {
                self.on_ack(port, cum);
                Vec::new()
            }
            ReliableMsg::Data { seq, payload } => {
                let link = &mut self.inn[port];
                let mut delivered = Vec::new();
                if seq <= link.cum || link.buffer.contains_key(&seq) {
                    self.duplicates_suppressed += 1;
                } else {
                    link.buffer.insert(seq, payload);
                    while let Some(m) = link.buffer.remove(&(link.cum + 1)) {
                        link.cum += 1;
                        delivered.push((from, m));
                    }
                }
                // Always (re-)acknowledge: a lost ACK is recovered by
                // the retransmission this answer belongs to.
                let cum = link.cum;
                raw.send(from, ReliableMsg::Ack { cum }, self.latency);
                raw.note_acks(1);
                self.acks_sent += 1;
                delivered
            }
        }
    }

    /// Processes a cumulative acknowledgement on `port`: drops every
    /// sequence at or below `cum`, and — if that acknowledged anything
    /// new — resets the backoff of the sequences still outstanding to
    /// the base timeout. A duplicate ACK acknowledges nothing and
    /// keeps the grown ladder (it is not evidence of forward
    /// progress). Attempt counts are deliberately *not* reset, so the
    /// per-message give-up bound survives a half-alive peer.
    fn on_ack(&mut self, port: usize, cum: u64) {
        let link = &mut self.out[port];
        let before = link.unacked.len();
        link.unacked.retain(|&seq, _| seq > cum);
        if link.unacked.len() < before {
            for entry in link.unacked.values_mut() {
                entry.2 = self.cfg.rto;
            }
        }
    }

    fn handle_timer(&mut self, raw: &mut Ctx<ReliableMsg<M>>, port: u32, seq: u64) {
        let link = &mut self.out[port as usize];
        let Some((payload, attempts, rto)) = link.unacked.get_mut(&seq) else {
            return; // acknowledged in the meantime — stale timer
        };
        if *attempts >= self.cfg.max_retries {
            // The peer never answered across the whole backoff ladder:
            // treat the link as dead and stop spending messages on it.
            link.dead = true;
            link.unacked.clear();
            self.gave_up.push(port as u8);
            return;
        }
        *attempts += 1;
        *rto = (*rto * 2).min(self.cfg.rto_cap);
        let jitter = uniform_inclusive(
            mix(self
                .cfg
                .jitter_seed
                .wrapping_add((port as u64) << 48)
                .wrapping_add(seq.rotate_left(16))
                .wrapping_add(*attempts as u64)),
            self.cfg.jitter_max,
        );
        let delay = *rto + jitter;
        let msg = ReliableMsg::Data {
            seq,
            payload: payload.clone(),
        };
        raw.send(self.neighbors[port as usize], msg, self.latency);
        raw.set_arq_timer(delay, port, seq);
        raw.note_retransmit_on(port as usize);
        self.retransmits += 1;
    }
}

/// Context handed to a [`ReliableActor`]: like [`Ctx`], but sends are
/// sequenced/acknowledged.
pub struct RelCtx<'a, M: Clone> {
    raw: &'a mut Ctx<ReliableMsg<M>>,
    ep: &'a mut ReliableEndpoint<M>,
}

impl<M: Clone> RelCtx<'_, M> {
    /// The node executing the current callback.
    pub fn self_id(&self) -> NodeId {
        self.raw.self_id()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.raw.now()
    }

    /// Sends `msg` to neighbor `dst` with exactly-once, in-order
    /// delivery (as long as the peer is alive and the loss rate is
    /// below 1).
    pub fn send_reliable(&mut self, dst: NodeId, msg: M) {
        let port = self.ep.port_of(dst);
        self.ep.send(self.raw, port, msg);
    }

    /// Arms a timer for the inner actor. Any tag is fine:
    /// retransmission timers live in their own [`TimerTag::Arq`]
    /// space, so collisions are impossible by construction.
    pub fn set_timer(&mut self, delay: Time, tag: u64) {
        self.raw.set_timer(delay, tag);
    }

    /// Requests the whole simulation to stop after this callback.
    pub fn halt(&mut self) {
        self.raw.halt();
    }

    /// Read access to the transport state (retransmit counters,
    /// dead links, in-flight count).
    pub fn endpoint(&self) -> &ReliableEndpoint<M> {
        self.ep
    }
}

/// A per-node event handler whose sends are reliable. Mirror of
/// [`Actor`] over [`RelCtx`].
pub trait ReliableActor: Sized {
    /// The message type exchanged between nodes.
    type Msg: Clone;

    /// Called once per node before any event is processed.
    fn on_start(&mut self, _ctx: &mut RelCtx<Self::Msg>) {}

    /// Called when a fresh in-order message from neighbor `from` is
    /// delivered (duplicates never reach this).
    fn on_message(&mut self, ctx: &mut RelCtx<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer armed via [`RelCtx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut RelCtx<Self::Msg>, _tag: u64) {}
}

/// The [`Actor`] adapter running a [`ReliableActor`] over the reliable
/// layer. Construct with [`Reliable::new`] and hand to
/// [`crate::event::EventEngine`] as usual.
#[derive(Clone)]
pub struct Reliable<A: ReliableActor> {
    /// The wrapped protocol actor.
    pub inner: A,
    /// Transport state for this node.
    pub endpoint: ReliableEndpoint<A::Msg>,
}

impl<A: ReliableActor> Reliable<A> {
    /// Wraps `inner` for node `me` of `topo`.
    pub fn new<T: Topology>(
        inner: A,
        topo: T,
        me: NodeId,
        latency: Time,
        cfg: ReliableConfig,
    ) -> Self {
        Reliable {
            inner,
            endpoint: ReliableEndpoint::new(topo, me, latency, cfg),
        }
    }
}

impl<A: ReliableActor> Actor for Reliable<A> {
    type Msg = ReliableMsg<A::Msg>;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>) {
        let Reliable { inner, endpoint } = self;
        inner.on_start(&mut RelCtx {
            raw: ctx,
            ep: endpoint,
        });
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: NodeId, msg: Self::Msg) {
        let delivered = self.endpoint.handle_message(ctx, from, msg);
        for (src, m) in delivered {
            let Reliable { inner, endpoint } = self;
            inner.on_message(
                &mut RelCtx {
                    raw: ctx,
                    ep: endpoint,
                },
                src,
                m,
            );
        }
    }

    fn on_timer_tag(&mut self, ctx: &mut Ctx<Self::Msg>, tag: TimerTag) {
        match tag {
            TimerTag::Arq { port, seq } => self.endpoint.handle_timer(ctx, port, seq),
            TimerTag::Actor(t) => {
                let Reliable { inner, endpoint } = self;
                inner.on_timer(
                    &mut RelCtx {
                        raw: ctx,
                        ep: endpoint,
                    },
                    t,
                );
            }
        }
    }
}

impl<M: StateHash> StateHash for ReliableMsg<M> {
    fn state_hash(&self, h: &mut McHasher) {
        match self {
            ReliableMsg::Data { seq, payload } => {
                h.write_bytes(&[0]);
                h.write_u64(*seq);
                payload.state_hash(h);
            }
            ReliableMsg::Ack { cum } => {
                h.write_bytes(&[1]);
                h.write_u64(*cum);
            }
        }
    }
}

/// Canonical transport state for model checking: sequence cursors,
/// unacked payloads with their attempt counts, reorder buffers, dead
/// links and give-ups. Excludes the timing ladder (per-entry RTO) and
/// the observational counters — two endpoints that differ only in
/// backoff or tallies are protocol-equivalent.
impl<M: StateHash> StateHash for ReliableEndpoint<M> {
    fn state_hash(&self, h: &mut McHasher) {
        h.write_u64(self.out.len() as u64);
        for link in &self.out {
            h.write_u64(link.next_seq);
            h.write_bytes(&[link.dead as u8]);
            h.write_u64(link.unacked.len() as u64);
            for (seq, (payload, attempts, _rto)) in &link.unacked {
                h.write_u64(*seq);
                payload.state_hash(h);
                h.write_u64(*attempts as u64);
            }
        }
        for link in &self.inn {
            h.write_u64(link.cum);
            h.write_u64(link.buffer.len() as u64);
            for (seq, payload) in &link.buffer {
                h.write_u64(*seq);
                payload.state_hash(h);
            }
        }
        // Give-up order is schedule noise; the *set* is the state.
        let mut gave: Vec<u8> = self.gave_up.clone();
        gave.sort_unstable();
        gave.state_hash(h);
    }
}

impl<A> StateHash for Reliable<A>
where
    A: ReliableActor + StateHash,
    A::Msg: StateHash,
{
    fn state_hash(&self, h: &mut McHasher) {
        self.inner.state_hash(h);
        self.endpoint.state_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelModel;
    use crate::event::EventEngine;
    use crate::network::Net;
    use hypersafe_topology::{FaultConfig, FaultSet, Hypercube};

    /// Node 0 streams `count` numbered messages to node 1; node 1 logs
    /// what the reliable layer surfaces.
    struct Stream {
        count: u64,
        log: Vec<u64>,
    }

    impl ReliableActor for Stream {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut RelCtx<u64>) {
            if ctx.self_id() == NodeId::ZERO {
                for k in 0..self.count {
                    ctx.send_reliable(ctx.self_id().neighbor(0), k);
                }
            }
        }

        fn on_message(&mut self, _ctx: &mut RelCtx<u64>, _from: NodeId, msg: u64) {
            self.log.push(msg);
        }
    }

    fn stream_run(
        channel: Option<ChannelModel>,
        count: u64,
    ) -> (Vec<u64>, crate::stats::EventStats) {
        let cube = Hypercube::new(1);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let init = |a: NodeId| {
            Reliable::new(
                Stream { count, log: vec![] },
                net.topology(),
                a,
                1,
                ReliableConfig::default(),
            )
        };
        let opts = crate::event::RunOptions {
            channel,
            ..Default::default()
        };
        let mut eng = EventEngine::with_options(&net, opts, init);
        eng.run(1_000_000);
        let stats = eng.stats().clone();
        (eng.actor(NodeId::new(1)).unwrap().inner.log.clone(), stats)
    }

    #[test]
    fn clean_channel_no_retransmits() {
        let (log, stats) = stream_run(None, 10);
        assert_eq!(log, (0..10).collect::<Vec<_>>());
        assert_eq!(
            stats.retransmitted, 0,
            "ACKs beat every timer on a clean link"
        );
        assert_eq!(stats.acked, 10);
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn lossy_jittery_duplicating_channel_delivers_exactly_once_in_order() {
        let ch = ChannelModel::new(0xBEEF)
            .with_loss(0.3)
            .with_jitter(4)
            .with_duplication(0.15);
        let (log, stats) = stream_run(Some(ch), 25);
        assert_eq!(log, (0..25).collect::<Vec<_>>(), "exactly once, in order");
        assert!(stats.lost > 0, "the channel did lose messages");
        assert!(stats.retransmitted > 0, "losses forced retransmissions");
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let mk = || ChannelModel::new(7).with_loss(0.2).with_jitter(3);
        let a = stream_run(Some(mk()), 15);
        let b = stream_run(Some(mk()), 15);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "identical stats, tick for tick");
    }

    #[test]
    fn dead_peer_makes_sender_give_up_bounded() {
        let cube = Hypercube::new(2);
        let mut faults = FaultSet::new(cube);
        faults.insert(NodeId::new(1));
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let rcfg = ReliableConfig {
            rto: 2,
            rto_cap: 16,
            max_retries: 5,
            jitter_max: 0,
            jitter_seed: 0,
        };
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |a| {
            Reliable::new(
                Stream {
                    count: if a == NodeId::ZERO { 1 } else { 0 },
                    log: vec![],
                },
                net.topology(),
                a,
                1,
                rcfg,
            )
        });
        let events = eng.run(100_000);
        assert!(events < 100_000, "run drains: give-up bounds the retries");
        let ep = &eng.actor(NodeId::ZERO).unwrap().endpoint;
        assert_eq!(ep.gave_up_dims(), &[0], "dimension 0 declared dead");
        assert_eq!(ep.retransmits(), 5, "exactly max_retries attempts");
        assert_eq!(ep.in_flight(), 0, "abandoned messages are cleared");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        // With rto 2 and cap 8, retransmissions of an unreachable peer
        // happen at t = 2, then +4, +8, +8... — verify via end_time.
        let cube = Hypercube::new(1);
        let mut faults = FaultSet::new(cube);
        faults.insert(NodeId::new(1));
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let rcfg = ReliableConfig {
            rto: 2,
            rto_cap: 8,
            max_retries: 4,
            jitter_max: 0,
            jitter_seed: 0,
        };
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |a| {
            Reliable::new(
                Stream {
                    count: 1,
                    log: vec![],
                },
                net.topology(),
                a,
                1,
                rcfg,
            )
        });
        eng.run(u64::MAX);
        // Timer chain: 2, 2+4=6, 6+8=14, 14+8=22, give-up check at 30.
        assert_eq!(eng.stats().end_time, 30);
    }

    /// One retransmission chain against a silent peer, with jitter:
    /// end time lands inside the exact-chain-plus-jitter envelope,
    /// replays tick-identically under the same seed, and moves when
    /// the seed moves.
    #[test]
    fn retransmit_jitter_is_seeded_bounded_and_deterministic() {
        let run = |jitter_seed: u64| {
            let cube = Hypercube::new(1);
            let mut faults = FaultSet::new(cube);
            faults.insert(NodeId::new(1));
            let cfg = FaultConfig::with_node_faults(cube, faults);
            let rcfg = ReliableConfig {
                rto: 2,
                rto_cap: 8,
                max_retries: 4,
                jitter_max: 3,
                jitter_seed,
            };
            let net = Net::cube(&cfg);
            let mut eng = EventEngine::new(&net, |a| {
                Reliable::new(
                    Stream {
                        count: 1,
                        log: vec![],
                    },
                    net.topology(),
                    a,
                    1,
                    rcfg,
                )
            });
            eng.run(u64::MAX);
            eng.stats().end_time
        };
        // The zero-jitter chain ends at 30 (see backoff_doubles_and_caps);
        // each of the 4 re-arms plus the give-up check adds 0..=3 ticks.
        let ends: Vec<Time> = (0..4).map(run).collect();
        for &e in &ends {
            assert!((30..=45).contains(&e), "inside the jitter envelope: {e}");
        }
        assert_eq!(run(0), ends[0], "same seed, same ticks");
        assert!(
            ends.iter().any(|&e| e != ends[0]),
            "jitter responds to the seed: {ends:?}"
        );
    }

    /// An ACK that acknowledges progress collapses the grown backoff
    /// of the sequences still outstanding back to the base rto; a
    /// duplicate ACK (no progress) leaves the ladder alone.
    #[test]
    fn ack_resets_backoff_of_outstanding_sequences() {
        let rcfg = ReliableConfig {
            rto: 2,
            rto_cap: 64,
            max_retries: 10,
            jitter_max: 0,
            jitter_seed: 0,
        };
        let mut ep: ReliableEndpoint<u64> =
            ReliableEndpoint::new(Hypercube::new(1), NodeId::ZERO, 1, rcfg);
        // Two messages mid-ladder on port 0: both backed off to 16.
        ep.out[0].next_seq = 3;
        ep.out[0].unacked.insert(1, (10, 3, 16));
        ep.out[0].unacked.insert(2, (20, 3, 16));
        // Duplicate ACK: cum 0 acknowledges nothing — ladder kept.
        ep.on_ack(0, 0);
        assert_eq!(ep.out[0].unacked[&1].2, 16, "duplicate ACK keeps backoff");
        // Progress: seq 1 acknowledged — seq 2's rto resets, its
        // attempt count (the give-up budget) does not.
        ep.on_ack(0, 1);
        assert!(!ep.out[0].unacked.contains_key(&1));
        let (_, attempts, rto) = ep.out[0].unacked[&2];
        assert_eq!(rto, rcfg.rto, "outstanding seq resets to base rto");
        assert_eq!(attempts, 3, "attempts survive the reset");
    }

    /// The old reserved-bit convention made tags like `1 << 63`
    /// collide with retransmission timers; the typed [`TimerTag`]
    /// spaces make every `u64` safe for inner actors.
    #[test]
    fn any_inner_timer_tag_is_safe() {
        struct EdgeTags {
            fired: Vec<u64>,
        }
        impl ReliableActor for EdgeTags {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut RelCtx<()>) {
                ctx.set_timer(1, u64::MAX);
                ctx.set_timer(2, 1 << 63);
                ctx.set_timer(3, 0);
            }
            fn on_message(&mut self, _: &mut RelCtx<()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut RelCtx<()>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let cube = Hypercube::new(1);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |a| {
            Reliable::new(
                EdgeTags { fired: vec![] },
                net.topology(),
                a,
                1,
                ReliableConfig::default(),
            )
        });
        eng.run(u64::MAX);
        assert_eq!(
            eng.actor(NodeId::ZERO).unwrap().inner.fired,
            vec![u64::MAX, 1 << 63, 0],
            "high-bit tags reach the inner actor untouched"
        );
        assert_eq!(
            eng.actor(NodeId::ZERO).unwrap().endpoint.retransmits(),
            0,
            "no tag was mistaken for an ARQ timer"
        );
    }
}
