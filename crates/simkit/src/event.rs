//! The discrete-event engine: asynchronous protocol execution over any
//! topology's fault overlay, a [`Net`].
//!
//! The paper remarks that `GLOBAL_STATUS` "can be implemented
//! asynchronously" and that the demand-driven / state-change-driven
//! maintenance modes are naturally asynchronous (§2.2). This engine
//! provides the substrate: virtual-time message delivery between
//! adjacent nodes with per-message latency, plus node-local timers —
//! on binary cubes (with link faults) and generalized hypercubes
//! (§4.2) alike, so one actor implementation serves every topology the
//! workspace models.
//!
//! Determinism: events at equal virtual times are processed in the
//! order decided by the installed [`Scheduler`] (the default
//! [`crate::sim::FifoScheduler`] uses the monotone sequence number, so
//! equal-time events run in scheduling order), and ties on the
//! scheduler's key fall back to the sequence number — a run is a pure
//! function of the initial state, the actors' logic, and the
//! scheduler/channel seeds. Channel noise ([`ChannelModel`]) is itself
//! seeded, keeping lossy runs reproducible.

use crate::channel::ChannelModel;
use crate::network::Net;
use crate::obs::Metrics;
use crate::queue::EventQueue;
use crate::sim::{FifoScheduler, Invariant, InvariantViolation, Scheduler};
use crate::stats::EventStats;
use crate::trace::{Trace, TraceEvent, TraceSink};
use hypersafe_topology::{NodeId, Topology};

/// Virtual time, in abstract ticks.
pub type Time = u64;

/// Who armed a timer. Protocol actors arm [`TimerTag::Actor`] tags via
/// [`Ctx::set_timer`]; the reliable ARQ layer ([`crate::reliable`])
/// arms [`TimerTag::Arq`] retransmission timers. The two spaces are
/// disjoint by construction, so a wrapped actor can use any `u64` tag
/// without colliding with the transport (this replaces an earlier
/// reserved-high-bit convention).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerTag {
    /// An actor-armed timer carrying an opaque protocol tag.
    Actor(u64),
    /// A retransmission timer of the reliable layer: the pending
    /// sequence number on one outgoing port.
    Arq {
        /// The port whose link the timer watches.
        port: u32,
        /// The sequence number awaiting acknowledgement.
        seq: u64,
    },
}

/// What an actor may do in response to an event: collected by the
/// [`Ctx`] handed to every callback.
pub struct Ctx<M> {
    /// The node this context belongs to.
    self_id: NodeId,
    now: Time,
    sends: Vec<(Time, NodeId, M)>,
    timers: Vec<(Time, TimerTag)>,
    retransmits: u64,
    acks: u64,
    /// Ports of individual retransmissions, for per-dimension metrics
    /// attribution. Only filled while a metrics registry is installed
    /// (`obs_on`), so the disabled path never allocates.
    retx_ports: Vec<usize>,
    obs_on: bool,
    halt: bool,
}

impl<M> Ctx<M> {
    /// Builds a context detached from any engine, for callers (the
    /// model checker in [`crate::mc`]) that execute actor callbacks
    /// outside an [`EventEngine`] and absorb the effects themselves.
    pub(crate) fn detached(self_id: NodeId, now: Time) -> Self {
        Ctx {
            self_id,
            now,
            sends: Vec::new(),
            timers: Vec::new(),
            retransmits: 0,
            acks: 0,
            retx_ports: Vec::new(),
            obs_on: false,
            halt: false,
        }
    }

    /// Tears the context apart into its raw effects `(sends, timers,
    /// halt)` for out-of-engine absorption (crate-internal; the engine
    /// itself uses `absorb_ctx`). Send and timer entries carry the
    /// absolute times the engine would have enqueued them at.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_effects(self) -> (Vec<(Time, NodeId, M)>, Vec<(Time, TimerTag)>, bool) {
        (self.sends, self.timers, self.halt)
    }

    /// The node executing the current callback.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to neighbor `dst`, arriving after `latency` ticks
    /// (latency 0 is delivered at the current time, after all
    /// already-queued same-time events).
    pub fn send(&mut self, dst: NodeId, msg: M, latency: Time) {
        self.sends
            .push((self.now.saturating_add(latency), dst, msg));
    }

    /// Arms a timer on this node firing after `delay` ticks, carrying an
    /// opaque `tag`.
    pub fn set_timer(&mut self, delay: Time, tag: u64) {
        self.timers
            .push((self.now.saturating_add(delay), TimerTag::Actor(tag)));
    }

    /// Arms a reliable-layer retransmission timer (crate-internal: only
    /// [`crate::reliable`] may occupy the ARQ tag space).
    pub(crate) fn set_arq_timer(&mut self, delay: Time, port: u32, seq: u64) {
        self.timers
            .push((self.now.saturating_add(delay), TimerTag::Arq { port, seq }));
    }

    /// Records `n` retransmissions into [`EventStats::retransmitted`]
    /// — called by the reliable layer ([`crate::reliable`]) so the
    /// engine's statistics reflect protocol-level recovery work.
    pub fn note_retransmits(&mut self, n: u64) {
        self.retransmits += n;
    }

    /// Records one retransmission attributed to outgoing `port` — like
    /// [`Ctx::note_retransmits`], but additionally feeds the
    /// per-dimension metrics row when a registry is installed.
    pub fn note_retransmit_on(&mut self, port: usize) {
        self.retransmits += 1;
        if self.obs_on {
            self.retx_ports.push(port);
        }
    }

    /// Records `n` acknowledgements into [`EventStats::acked`].
    pub fn note_acks(&mut self, n: u64) {
        self.acks += n;
    }

    /// Requests the whole simulation to stop after this callback.
    pub fn halt(&mut self) {
        self.halt = true;
    }
}

/// A per-node event handler.
pub trait Actor: Sized {
    /// The message type exchanged between nodes. `Clone` lets the
    /// channel model inject duplicate copies.
    type Msg: Clone;

    /// Called once per node before any event is processed.
    fn on_start(&mut self, _ctx: &mut Ctx<Self::Msg>) {}

    /// Called when a message from neighbor `from` is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer armed via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<Self::Msg>, _tag: u64) {}

    /// Full-tag dispatch. Plain actors keep the default, which routes
    /// [`TimerTag::Actor`] to [`Actor::on_timer`] and ignores ARQ
    /// timers (only the reliable wrapper arms those, and it overrides
    /// this method to claim them).
    fn on_timer_tag(&mut self, ctx: &mut Ctx<Self::Msg>, tag: TimerTag) {
        match tag {
            TimerTag::Actor(t) => self.on_timer(ctx, t),
            TimerTag::Arq { .. } => {
                debug_assert!(false, "ARQ timer delivered to an unwrapped actor");
            }
        }
    }
}

enum Payload<M> {
    Message {
        from: NodeId,
        msg: M,
        /// Virtual time of the send, kept so delivery can report the
        /// transit time (latency + jitter) into the metrics registry.
        sent: Time,
    },
    Timer {
        tag: TimerTag,
    },
    /// An externally injected fault: the destination node fault-stops
    /// the moment this event is processed (see
    /// [`EventEngine::inject_kill`]).
    Kill,
}

/// The discrete-event executor over any topology's [`Net`].
pub struct EventEngine<'a, T: Topology, A: Actor> {
    net: &'a Net<'a, T>,
    actors: Vec<Option<A>>,
    /// `dead[i]` marks a node fault-stopped *mid-run* via
    /// [`EventEngine::inject_kill`]: it processes no further events, but
    /// its final state stays inspectable (post-mortem) through
    /// [`EventEngine::actor`] — unlike pre-run faults, which never had
    /// an actor at all.
    dead: Vec<bool>,
    /// Pending events toward their destination, ordered by `(time,
    /// key, seq)`: the [`Scheduler`]'s key breaks same-tick ties (the
    /// FIFO scheduler returns `seq`, so the order degenerates to the
    /// historical `(time, seq)`).
    queue: EventQueue<(NodeId, Payload<A::Msg>)>,
    seq: u64,
    now: Time,
    stats: EventStats,
    channel: Option<ChannelModel>,
    sched: Box<dyn Scheduler>,
    halted: bool,
    trace: Option<Box<dyn TraceSink>>,
    /// Metrics registry ([`crate::obs`]); `None` keeps every hook a
    /// single branch with no allocation or arithmetic.
    metrics: Option<Metrics>,
}

/// How to drive one event-driven protocol run: every setting a
/// protocol runner takes besides the protocol's own parameters.
/// `RunOptions::default()` is the paper's model: perfect links, FIFO
/// order, no event budget, nothing recorded or checked.
pub struct RunOptions {
    /// Same-tick ordering and adversarial perturbation ([`FifoScheduler`]
    /// by default).
    pub sched: Box<dyn Scheduler>,
    /// Loss, jitter and duplication on every usable link; `None` keeps
    /// links perfect.
    pub channel: Option<ChannelModel>,
    /// Event budget (`u64::MAX`: run until the queue drains).
    pub max_events: u64,
    /// `(node, delay)` fault-stops ([`EventEngine::inject_kill`]),
    /// injected after the protocol's start event.
    pub kills: Vec<(NodeId, Time)>,
    /// Install a metrics registry before `on_start`, so the start-up
    /// sends are attributed too; returned in [`RunReport::metrics`].
    pub observe: bool,
    /// Record every delivery into a [`Trace`], returned in
    /// [`RunReport::trace`] even when the run stops on a violation.
    pub trace: bool,
    /// Check the protocol's engine invariant at every quiescent point
    /// ([`EventEngine::run_checked`]); the first failure stops the run.
    pub check: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            sched: Box::new(FifoScheduler),
            channel: None,
            max_events: u64::MAX,
            kills: Vec::new(),
            observe: false,
            trace: false,
            check: false,
        }
    }
}

/// What [`EventEngine::drive`] reports besides the engine itself.
#[derive(Debug)]
pub struct RunReport {
    /// Events processed.
    pub processed: u64,
    /// Whether the event queue was empty when the run stopped: the
    /// protocol went quiescent within the budget.
    pub drained: bool,
    /// The first invariant failure (only when [`RunOptions::check`]).
    pub violation: Option<InvariantViolation>,
    /// Every delivery (only when [`RunOptions::trace`]).
    pub trace: Option<Trace>,
    /// The registry, channel decisions included (only when
    /// [`RunOptions::observe`]).
    pub metrics: Option<Metrics>,
}

impl<'a, T: Topology, A: Actor> EventEngine<'a, T, A> {
    /// Builds the engine with one actor per nonfaulty node and runs
    /// every actor's `on_start`, over perfect links in FIFO order.
    pub fn new(net: &'a Net<'a, T>, init: impl FnMut(NodeId) -> A) -> Self {
        Self::with_options(net, RunOptions::default(), init)
    }

    /// Like [`EventEngine::new`], but with `opts.sched`, `opts.channel`
    /// and (when `opts.observe`) a metrics registry installed before
    /// the actors' `on_start` runs, so they order, shape and count the
    /// start-up sends too. The other fields describe a run, not an
    /// engine: [`EventEngine::drive`] applies them.
    pub fn with_options(
        net: &'a Net<'a, T>,
        opts: RunOptions,
        mut init: impl FnMut(NodeId) -> A,
    ) -> Self {
        let actors: Vec<Option<A>> = (0..net.num_nodes())
            .map(|a| (!net.node_faulty(a)).then(|| init(NodeId::new(a))))
            .collect();
        let dead = vec![false; net.num_nodes() as usize];
        let mut eng = EventEngine {
            net,
            actors,
            dead,
            queue: EventQueue::default(),
            seq: 0,
            now: 0,
            stats: EventStats::default(),
            channel: opts.channel,
            sched: opts.sched,
            halted: false,
            trace: None,
            // Sized for the network: engine, channel and ARQ layers
            // report per-node / per-dimension counters into it.
            metrics: opts
                .observe
                .then(|| Metrics::new(net.num_nodes() as usize, net.degree())),
        };
        for a in 0..eng.net.num_nodes() {
            if eng.actors[a as usize].is_some() {
                let id = NodeId::new(a);
                let mut ctx = eng.ctx_for(id);
                eng.actors[a as usize]
                    .as_mut()
                    .expect("present")
                    .on_start(&mut ctx);
                eng.absorb_ctx(id, ctx);
            }
        }
        eng
    }

    /// Runs one protocol under `opts`, in this order: build the engine
    /// ([`EventEngine::with_options`]), let `start` inject the
    /// protocol's start event, install the trace, inject `opts.kills`,
    /// then process up to `opts.max_events` events, checking
    /// `invariant` at every quiescent point when `opts.check` is set.
    /// Returns the engine in its final state and the [`RunReport`].
    pub fn drive(
        net: &'a Net<'a, T>,
        mut opts: RunOptions,
        init: impl FnMut(NodeId) -> A,
        start: impl FnOnce(&mut Self),
        invariant: Option<&mut dyn Invariant<T, A>>,
    ) -> (Self, RunReport) {
        let (max_events, trace, check) = (opts.max_events, opts.trace, opts.check);
        let kills = std::mem::take(&mut opts.kills);
        let mut eng = Self::with_options(net, opts, init);
        start(&mut eng);
        if trace {
            eng.set_trace(Box::new(Trace::enabled()));
        }
        for (node, delay) in kills {
            eng.inject_kill(node, delay);
        }
        let (processed, violation) = if check {
            let mut invariants: Vec<&mut dyn Invariant<T, A>> = invariant.into_iter().collect();
            match eng.run_checked(max_events, &mut invariants) {
                Ok(n) => (n, None),
                Err(v) => (v.events_processed, Some(v)),
            }
        } else {
            (eng.run(max_events), None)
        };
        let report = RunReport {
            processed,
            drained: eng.queue.is_empty(),
            violation,
            trace: eng.take_trace().and_then(|t| t.into_trace()),
            metrics: eng.take_metrics(),
        };
        (eng, report)
    }

    /// Records every delivered message as a [`TraceEvent::Hop`] into
    /// `sink` (dimension = sender's port, word = engine sequence
    /// number). Reclaim the sink with [`EventEngine::take_trace`].
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detaches the trace sink installed via [`EventEngine::set_trace`].
    pub fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Detaches the metrics registry, folding in the channel's
    /// decision counter so the snapshot reports channel traffic.
    fn take_metrics(&mut self) -> Option<Metrics> {
        let mut m = self.metrics.take()?;
        if let Some(ch) = &self.channel {
            m.channel_decisions += ch.decisions();
        }
        Some(m)
    }

    fn ctx_for(&self, a: NodeId) -> Ctx<A::Msg> {
        Ctx {
            self_id: a,
            now: self.now,
            sends: Vec::new(),
            timers: Vec::new(),
            retransmits: 0,
            acks: 0,
            retx_ports: Vec::new(),
            obs_on: self.metrics.is_some(),
            halt: false,
        }
    }

    fn enqueue(&mut self, time: Time, dst: NodeId, payload: Payload<A::Msg>) {
        self.seq += 1;
        let key = self.sched.order_key(self.seq, dst.raw());
        self.queue.push(time, key, self.seq, (dst, payload));
    }

    fn absorb_ctx(&mut self, src: NodeId, ctx: Ctx<A::Msg>) {
        for (time, dst, msg) in ctx.sends {
            let Some(port) = self.net.port_of(src.raw(), dst.raw()) else {
                panic!("{src} may only message neighbors, not {dst}");
            };
            // Every send attempt is counted exactly once here, before
            // any fate is decided — the anchor of the conservation law
            // delivered + dropped + lost == sends + duplicated.
            self.stats.sends += 1;
            if let Some(m) = &mut self.metrics {
                m.on_send(src.raw(), port);
            }
            // Messages into faulty nodes or across faulty links vanish
            // (fault-stop model: no malicious behaviour, just silence).
            if self.net.node_faulty(dst.raw()) || self.net.link_faulty(src.raw(), dst.raw()) {
                self.stats.dropped += 1;
                if let Some(m) = &mut self.metrics {
                    m.on_fault_drop(src.raw());
                }
                continue;
            }
            // A usable link may still be noisy: the channel model
            // decides loss, extra delay, and duplication per message,
            // and the scheduler may pile its own adversarial fate on
            // top (extra stretch, burst loss/duplication).
            let mut fate = match &mut self.channel {
                Some(ch) => ch.fate(src.raw(), dst.raw()),
                None => crate::channel::LinkFate::CLEAN,
            };
            if !fate.lost {
                let adv = self.sched.perturb(self.now, src.raw(), dst.raw());
                fate.lost |= adv.lost;
                fate.jitter += adv.jitter;
                if fate.duplicate.is_none() {
                    fate.duplicate = adv.duplicate;
                }
            }
            if fate.lost {
                self.stats.lost += 1;
                if let Some(m) = &mut self.metrics {
                    m.on_lost(src.raw(), port);
                }
                continue;
            }
            if let Some(dup_jitter) = fate.duplicate {
                self.stats.duplicated += 1;
                if let Some(m) = &mut self.metrics {
                    m.on_duplicated(port);
                }
                self.enqueue(
                    time.saturating_add(dup_jitter),
                    dst,
                    Payload::Message {
                        from: src,
                        msg: msg.clone(),
                        sent: self.now,
                    },
                );
            }
            self.enqueue(
                time.saturating_add(fate.jitter),
                dst,
                Payload::Message {
                    from: src,
                    msg,
                    sent: self.now,
                },
            );
        }
        self.stats.retransmitted += ctx.retransmits;
        self.stats.acked += ctx.acks;
        if let Some(m) = &mut self.metrics {
            m.on_arq(src.raw(), ctx.retransmits, ctx.acks, &ctx.retx_ports);
        }
        for (time, tag) in ctx.timers {
            self.enqueue(time, src, Payload::Timer { tag });
        }
        if ctx.halt {
            self.halted = true;
        }
    }

    /// The network this engine runs over.
    pub fn network(&self) -> &'a Net<'a, T> {
        self.net
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &EventStats {
        &self.stats
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Read access to a node's actor (`None` for pre-run faulty
    /// nodes). A node killed mid-run still returns its frozen
    /// post-mortem state — pair with [`EventEngine::is_dead`] to tell
    /// the two apart.
    pub fn actor(&self, a: NodeId) -> Option<&A> {
        self.actors[a.raw() as usize].as_ref()
    }

    /// Whether `a` was fault-stopped mid-run by [`EventEngine::inject_kill`].
    pub fn is_dead(&self, a: NodeId) -> bool {
        self.dead[a.raw() as usize]
    }

    /// Processes a single event. Returns `false` when the queue is
    /// empty or an actor requested a halt.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some((time, seq, (dst, payload))) = self.queue.pop() else {
            return false;
        };
        self.now = time;
        self.stats.end_time = self.now;
        let idx = dst.raw() as usize;
        // Kills are handled before the liveness check so they stay
        // idempotent: re-killing a dead node — or one that was faulty
        // from the start — is a no-op that touches no counter. (An
        // earlier ordering ran the liveness check first, so double
        // kills and kills racing initial faults inflated the
        // message-drop counter.)
        if let Payload::Kill = payload {
            if self.actors[idx].is_some() && !self.dead[idx] {
                // The node fault-stops: it processes no further events,
                // and everything already queued toward it drops on
                // delivery. Its state is frozen rather than discarded
                // so the run's outcome collectors and invariant
                // checkers can still read what it knew at the instant
                // of death (e.g. a destination killed *after* delivery
                // still shows `received_at`).
                self.dead[idx] = true;
                self.stats.killed += 1;
                if let Some(m) = &mut self.metrics {
                    m.on_kill(dst.raw());
                }
                if let Some(sink) = &mut self.trace {
                    sink.record(TraceEvent::Note(format!(
                        "t={}: node {} killed",
                        self.now, dst
                    )));
                }
            }
            return !self.halted;
        }
        // Destination may have become faulty after the send: pending
        // messages drop (they are in-flight traffic the fault ate);
        // pending timers are quashed silently — a timer is node-local
        // control state, not a message, and counting it as `dropped`
        // would break the send/fate balance.
        if self.actors[idx].is_none() || self.dead[idx] {
            match payload {
                Payload::Message { .. } => {
                    self.stats.dropped += 1;
                    if let Some(m) = &mut self.metrics {
                        m.on_dead_drop(dst.raw());
                    }
                }
                Payload::Timer { .. } => self.stats.timers_quashed += 1,
                Payload::Kill => unreachable!("handled above"),
            }
            return true;
        }
        let mut ctx = self.ctx_for(dst);
        match payload {
            Payload::Message { from, msg, sent } => {
                self.stats.delivered += 1;
                if self.trace.is_some() || self.metrics.is_some() {
                    let port = self.net.port_of(from.raw(), dst.raw());
                    if let Some(m) = &mut self.metrics {
                        m.on_delivered(dst.raw(), port, self.now - sent);
                    }
                    if let Some(sink) = &mut self.trace {
                        sink.record(TraceEvent::Hop {
                            from,
                            to: dst,
                            dim: port.and_then(|p| u8::try_from(p).ok()),
                            word: seq,
                        });
                    }
                }
                self.actors[idx]
                    .as_mut()
                    .expect("present")
                    .on_message(&mut ctx, from, msg);
            }
            Payload::Timer { tag } => {
                self.stats.timers += 1;
                if let Some(m) = &mut self.metrics {
                    m.on_timer(dst.raw());
                }
                self.actors[idx]
                    .as_mut()
                    .expect("present")
                    .on_timer_tag(&mut ctx, tag);
            }
            Payload::Kill => unreachable!("handled above"),
        }
        self.absorb_ctx(dst, ctx);
        !self.halted
    }

    /// Runs until the event queue drains, an actor halts, or
    /// `max_events` have been processed. Returns the number of events
    /// processed.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Virtual time of the earliest queued event, if any.
    pub fn next_event_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Whether the engine is at a quiescent point: no event remains at
    /// the current virtual time, so every node's state is a consistent
    /// cut (nothing is "mid-tick").
    pub fn is_quiescent(&self) -> bool {
        self.next_event_time().is_none_or(|t| t > self.now)
    }

    /// Like [`EventEngine::run`], but evaluates every [`Invariant`] at
    /// each quiescent point — once before the first event, after the
    /// last event of every virtual tick, and when the run ends. Stops
    /// at the first violation and reports when and why.
    pub fn run_checked(
        &mut self,
        max_events: u64,
        invariants: &mut [&mut dyn Invariant<T, A>],
    ) -> Result<u64, InvariantViolation> {
        let mut n = 0;
        let mut check = |eng: &Self, n: u64| -> Result<(), InvariantViolation> {
            for inv in invariants.iter_mut() {
                if let Err(detail) = inv.check(eng) {
                    return Err(InvariantViolation {
                        invariant: inv.name().to_string(),
                        time: eng.now,
                        events_processed: n,
                        detail,
                    });
                }
            }
            Ok(())
        };
        if self.is_quiescent() {
            check(self, n)?;
        }
        while n < max_events && self.step() {
            n += 1;
            if self.is_quiescent() {
                check(self, n)?;
            }
        }
        Ok(n)
    }

    /// Iterates the actors as `(node, actor)` pairs — the view an
    /// [`Invariant`] inspects at a quiescent point. Nodes killed
    /// mid-run are included with their frozen post-mortem state (an
    /// invariant over them keeps holding trivially, since the state no
    /// longer changes); pre-run faulty nodes are not.
    pub fn actors_iter(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.actors
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref().map(|a| (NodeId::new(i as u64), a)))
    }

    /// Injects an external message to `dst` from outside the network
    /// (e.g. the "host" handing a unicast request to the source node),
    /// delivered as an actor timer with `tag` after `delay` ticks.
    pub fn inject(&mut self, dst: NodeId, tag: u64, delay: Time) {
        self.enqueue(
            self.now.saturating_add(delay),
            dst,
            Payload::Timer {
                tag: TimerTag::Actor(tag),
            },
        );
    }

    /// Injects a fault: after `delay` ticks node `dst` fault-stops —
    /// it processes no further events and all its queued and future
    /// traffic is silently dropped, exactly like a node that was faulty
    /// from the start (its last state stays readable post-mortem). This
    /// is the DST adversary's "fault burst" primitive; killing an
    /// already-dead node is a no-op.
    pub fn inject_kill(&mut self, dst: NodeId, delay: Time) {
        self.enqueue(self.now.saturating_add(delay), dst, Payload::Kill);
    }

    /// Extracts all actors as `(node, actor)` pairs.
    pub fn into_actors(self) -> Vec<(NodeId, A)> {
        self.actors
            .into_iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|a| (NodeId::new(i as u64), a)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Net;
    use crate::trace::Trace;
    use hypersafe_topology::{FaultConfig, FaultSet, GeneralizedHypercube, GhNode, Hypercube};

    /// Flood protocol: on start, node 0 floods a token; every node
    /// remembers the earliest time it saw it and forwards once on all
    /// its ports (topology-agnostic).
    struct Flood {
        neighbors: Vec<NodeId>,
        seen_at: Option<Time>,
        origin: bool,
    }

    impl Flood {
        fn new<T: Topology>(net: &Net<'_, T>, a: NodeId, origin: NodeId) -> Self {
            Flood {
                neighbors: (0..net.degree())
                    .map(|p| NodeId::new(net.neighbor(a.raw(), p)))
                    .collect(),
                seen_at: None,
                origin: a == origin,
            }
        }

        fn flood<M: Clone + Default>(&self, ctx: &mut Ctx<M>) {
            for &b in &self.neighbors {
                ctx.send(b, M::default(), 1);
            }
        }
    }

    impl Actor for Flood {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            if self.origin {
                self.seen_at = Some(0);
                self.flood(ctx);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<()>, _from: NodeId, _msg: ()) {
            if self.seen_at.is_none() {
                self.seen_at = Some(ctx.now());
                self.flood(ctx);
            }
        }
    }

    #[test]
    fn flood_reaches_everyone_at_hamming_time() {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |a| Flood::new(&net, a, NodeId::ZERO));
        eng.run(u64::MAX);
        for a in cube.nodes() {
            // With unit latency the first arrival equals BFS distance.
            assert_eq!(
                eng.actor(a).unwrap().seen_at,
                Some(a.weight() as u64),
                "node {a}"
            );
        }
        assert!(eng.stats().delivered > 0);
    }

    #[test]
    fn faulty_node_blocks_flood_component() {
        let cube = Hypercube::new(2);
        // 2-cube path: 00 - 01/10 - 11. Make 01 and 10 faulty → 11 unreachable.
        let cfg =
            FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, &["01", "10"]));
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |a| Flood::new(&net, a, NodeId::ZERO));
        eng.run(u64::MAX);
        assert_eq!(eng.actor(NodeId::new(0b11)).unwrap().seen_at, None);
        assert_eq!(eng.stats().dropped, 2, "two sends into faulty neighbors");
    }

    #[test]
    fn link_fault_drops_messages() {
        let cube = Hypercube::new(2);
        let mut cfg = FaultConfig::fault_free(cube);
        cfg.link_faults_mut()
            .insert(NodeId::new(0b00), NodeId::new(0b01));
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |a| Flood::new(&net, a, NodeId::ZERO));
        eng.run(u64::MAX);
        // 01 still hears the flood via the 00→10→11→01 detour.
        assert_eq!(eng.actor(NodeId::new(0b01)).unwrap().seen_at, Some(3));
        assert!(eng.stats().dropped >= 1, "the faulty link ate a send");
    }

    #[test]
    fn flood_arrival_equals_gh_distance() {
        let gh = GeneralizedHypercube::from_product(&[3, 4]);
        let faults = gh.fault_set();
        let net = Net::new(&gh, &faults);
        let mut eng = EventEngine::new(&net, |a| Flood::new(&net, a, NodeId::ZERO));
        eng.run(u64::MAX);
        for a in 0..net.num_nodes() {
            let d = gh.distance(GhNode(0), GhNode(a));
            assert_eq!(
                eng.actor(NodeId::new(a)).unwrap().seen_at,
                d.map(u64::from),
                "node {a}"
            );
        }
    }

    #[test]
    fn gh_faulty_nodes_drop_messages() {
        let gh = GeneralizedHypercube::from_product(&[2, 2]);
        let mut faults = gh.fault_set();
        faults.insert(NodeId::new(1));
        faults.insert(NodeId::new(2));
        let net = Net::new(&gh, &faults);
        let mut eng = EventEngine::new(&net, |a| Flood::new(&net, a, NodeId::ZERO));
        eng.run(u64::MAX);
        assert_eq!(
            eng.actor(NodeId::new(3)).unwrap().seen_at,
            None,
            "cut off by faults"
        );
        assert_eq!(eng.stats().dropped, 2);
    }

    #[test]
    fn timers_fire_in_order() {
        struct T {
            fired: Vec<u64>,
        }
        impl Actor for T {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.set_timer(5, 5);
                ctx.set_timer(1, 1);
                ctx.set_timer(3, 3);
            }
            fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<()>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let cube = Hypercube::new(1);
        let mut faults = FaultSet::new(cube);
        faults.insert(NodeId::new(1));
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |_| T { fired: vec![] });
        eng.run(u64::MAX);
        assert_eq!(eng.actor(NodeId::new(0)).unwrap().fired, vec![1, 3, 5]);
        assert_eq!(eng.stats().timers, 3);
        assert_eq!(eng.stats().end_time, 5);
    }

    #[test]
    fn halt_stops_the_run() {
        struct H;
        impl Actor for H {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.set_timer(1, 0);
                ctx.set_timer(2, 1);
            }
            fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<()>, tag: u64) {
                if tag == 0 {
                    ctx.halt();
                }
            }
        }
        let cube = Hypercube::new(1);
        let mut faults = FaultSet::new(cube);
        faults.insert(NodeId::new(1));
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |_| H);
        eng.run(u64::MAX);
        assert_eq!(eng.stats().timers, 1, "second timer never fires");
    }

    #[test]
    fn inject_delivers_as_timer() {
        struct I {
            tags: Vec<u64>,
        }
        impl Actor for I {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<()>, tag: u64) {
                self.tags.push(tag);
            }
        }
        let cube = Hypercube::new(2);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |_| I { tags: vec![] });
        eng.inject(NodeId::new(2), 42, 0);
        eng.inject(NodeId::new(2), 7, 5);
        eng.run(u64::MAX);
        assert_eq!(
            eng.actor(NodeId::new(2)).unwrap().tags,
            vec![42, 7],
            "time order respected"
        );
        assert_eq!(eng.stats().end_time, 5);
    }

    #[test]
    fn delays_past_time_max_saturate() {
        struct S {
            fired: Vec<u64>,
        }
        impl Actor for S {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.set_timer(5, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<()>, tag: u64) {
                self.fired.push(tag);
                if tag == 0 {
                    // Wrapping would land at t = 4, before `now`.
                    ctx.set_timer(Time::MAX, 1);
                    ctx.set_timer(1, 2);
                }
            }
        }
        let cube = Hypercube::new(1);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |_| S { fired: vec![] });
        eng.run(3);
        assert_eq!(eng.now(), 6);
        eng.inject(NodeId::new(1), 3, Time::MAX);
        eng.inject_kill(NodeId::new(1), Time::MAX);
        eng.run(u64::MAX);
        assert_eq!(eng.actor(NodeId::new(0)).unwrap().fired, vec![0, 2, 1]);
        assert_eq!(eng.actor(NodeId::new(1)).unwrap().fired, vec![0, 2, 1, 3]);
        assert!(eng.is_dead(NodeId::new(1)));
        assert_eq!(eng.stats().end_time, Time::MAX);
    }

    #[test]
    fn order_key_is_drawn_once_per_push() {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let seqs = std::rc::Rc::default();
        let opts = RunOptions {
            sched: Box::new(crate::sim::Recording(std::rc::Rc::clone(&seqs))),
            ..RunOptions::default()
        };
        let mut eng = EventEngine::with_options(&net, opts, |a| Flood::new(&net, a, NodeId::ZERO));
        eng.inject(NodeId::new(3), 9, 200);
        eng.inject_kill(NodeId::new(5), 2);
        let processed = eng.run(u64::MAX);
        // Every push pops exactly once, so the pushes number the events
        // processed, and their keys were drawn in push order.
        assert_eq!(*seqs.borrow(), (1..=processed).collect::<Vec<_>>());
    }

    #[test]
    fn trace_sink_records_hops() {
        let cube = Hypercube::new(2);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |a| Flood::new(&net, a, NodeId::ZERO));
        eng.set_trace(Box::new(Trace::enabled()));
        eng.run(u64::MAX);
        let delivered = eng.stats().delivered;
        let sink = eng.take_trace().expect("sink installed");
        let trace = sink.into_trace().expect("Trace sink");
        assert_eq!(trace.events().len() as u64, delivered);
        assert!(trace
            .events()
            .iter()
            .all(|e| matches!(e, TraceEvent::Hop { .. })));
    }

    #[test]
    fn adversarial_permutation_preserves_flood_reachability() {
        use crate::sim::AdversarialScheduler;
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        for seed in 0..8 {
            let opts = RunOptions {
                sched: Box::new(AdversarialScheduler::permute(seed)),
                ..RunOptions::default()
            };
            let mut eng =
                EventEngine::with_options(&net, opts, |a| Flood::new(&net, a, NodeId::ZERO));
            eng.run(u64::MAX);
            for a in cube.nodes() {
                let seen = eng.actor(a).unwrap().seen_at;
                assert!(seen.is_some(), "seed {seed}: node {a} never flooded");
                // Stretch only delays; BFS distance is a lower bound.
                assert!(seen.unwrap() >= a.weight() as u64);
            }
        }
    }

    #[test]
    fn same_seed_same_adversarial_run() {
        use crate::sim::AdversarialScheduler;
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let run = |seed| {
            let opts = RunOptions {
                sched: Box::new(AdversarialScheduler::from_seed(seed)),
                ..RunOptions::default()
            };
            let mut eng =
                EventEngine::with_options(&net, opts, |a| Flood::new(&net, a, NodeId::ZERO));
            eng.set_trace(Box::new(Trace::enabled()));
            eng.run(u64::MAX);
            let trace = eng.take_trace().unwrap().into_trace().unwrap().render();
            (trace, eng.stats().clone())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7).0,
            run(8).0,
            "different seeds should schedule differently"
        );
    }

    #[test]
    fn inject_kill_fault_stops_a_node() {
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |a| Flood::new(&net, a, NodeId::ZERO));
        // Kill node 001 before the tick-1 deliveries reach it.
        eng.inject_kill(NodeId::new(0b001), 0);
        eng.run(u64::MAX);
        // The corpse is dead but its last state stays inspectable: it
        // died before any delivery, so it never saw the flood.
        assert!(eng.is_dead(NodeId::new(0b001)));
        assert!(eng.actor(NodeId::new(0b001)).unwrap().seen_at.is_none());
        assert_eq!(eng.stats().killed, 1);
        // Everyone else still hears the flood via other dimensions.
        for a in cube.nodes().filter(|a| a.raw() != 0b001) {
            assert!(eng.actor(a).unwrap().seen_at.is_some(), "node {a}");
        }
        assert!(eng.stats().dropped > 0, "traffic into the corpse dropped");
    }

    #[test]
    fn double_kill_counts_once_and_drops_nothing() {
        // Regression: the liveness check used to run before the Kill
        // branch, so the second kill of an already-dead node was
        // counted as a dropped *message*.
        let cube = Hypercube::new(2);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |_| Idle);
        eng.inject_kill(NodeId::new(0b01), 0);
        eng.inject_kill(NodeId::new(0b01), 1);
        eng.inject_kill(NodeId::new(0b01), 2);
        eng.run(u64::MAX);
        assert!(eng.is_dead(NodeId::new(0b01)));
        assert_eq!(eng.stats().killed, 1, "kill is idempotent");
        assert_eq!(eng.stats().dropped, 0, "no message was dropped");
    }

    #[test]
    fn kill_of_pre_run_faulty_node_is_a_noop() {
        // Regression: a kill racing an initial fault used to inflate
        // the message-drop counter.
        let cube = Hypercube::new(2);
        let cfg = FaultConfig::with_node_faults(cube, FaultSet::from_binary_strs(cube, &["10"]));
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |_| Idle);
        eng.inject_kill(NodeId::new(0b10), 0);
        eng.run(u64::MAX);
        assert!(!eng.is_dead(NodeId::new(0b10)), "never ran, never killed");
        assert_eq!(eng.stats().killed, 0);
        assert_eq!(eng.stats().dropped, 0);
    }

    /// An actor that does nothing (kill/timer accounting fixtures).
    struct Idle;
    impl Actor for Idle {
        type Msg = ();
        fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: ()) {}
    }

    #[test]
    fn timer_to_dead_node_is_quashed_not_dropped() {
        struct Arm;
        impl Actor for Arm {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.set_timer(10, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: ()) {}
        }
        let cube = Hypercube::new(1);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |_| Arm);
        // Both nodes arm a t=10 timer; node 1 dies at t=5.
        eng.inject_kill(NodeId::new(1), 5);
        eng.run(u64::MAX);
        assert_eq!(eng.stats().timers, 1, "only the survivor's timer fires");
        assert_eq!(eng.stats().timers_quashed, 1);
        assert_eq!(eng.stats().dropped, 0, "a quashed timer is not a message");
    }

    #[test]
    fn sends_counter_balances_fates() {
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let channel = crate::channel::ChannelModel::new(11)
            .with_loss(0.2)
            .with_jitter(3)
            .with_duplication(0.1);
        let opts = RunOptions {
            channel: Some(channel),
            ..RunOptions::default()
        };
        let mut eng = EventEngine::with_options(&net, opts, |a| Flood::new(&net, a, NodeId::ZERO));
        eng.inject_kill(NodeId::new(0b101), 1);
        eng.run(u64::MAX);
        let s = eng.stats();
        assert!(s.sends > 0);
        assert_eq!(
            s.delivered + s.dropped + s.lost,
            s.sends + s.duplicated,
            "every send attempt meets exactly one fate: {s:?}"
        );
    }

    #[test]
    fn metrics_do_not_perturb_the_run_and_agree_with_stats() {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let channel = crate::channel::ChannelModel::new(9)
            .with_loss(0.1)
            .with_jitter(2)
            .with_duplication(0.05);
        let run = |observe: bool| {
            let opts = RunOptions {
                channel: Some(channel.clone()),
                kills: vec![(NodeId::new(0b0110), 2)],
                observe,
                trace: true,
                ..RunOptions::default()
            };
            let init = |a| Flood::new(&net, a, NodeId::ZERO);
            let (eng, report) = EventEngine::drive(&net, opts, init, |_| {}, None);
            let trace = report.trace.expect("traced").render();
            (trace, eng.stats().clone(), report.metrics)
        };
        let (trace_off, stats_off, none) = run(false);
        let (trace_on, stats_on, metrics) = run(true);
        assert!(none.is_none());
        assert_eq!(trace_off, trace_on, "observability must not perturb");
        assert_eq!(stats_off, stats_on);
        // The registry's totals are a refinement of the flat stats.
        let snap = metrics.expect("installed").snapshot();
        assert_eq!(snap.totals.sends, stats_on.sends);
        assert_eq!(snap.totals.delivered, stats_on.delivered);
        assert_eq!(snap.totals.dropped, stats_on.dropped);
        assert_eq!(snap.totals.lost, stats_on.lost);
        assert_eq!(snap.totals.duplicated, stats_on.duplicated);
        assert_eq!(snap.totals.timers, stats_on.timers);
        assert_eq!(snap.totals.killed, stats_on.killed);
        assert_eq!(snap.latency.count, stats_on.delivered);
        assert!(snap.channel_decisions > 0);
        // Per-dimension sends on a fault-free flood are symmetric:
        // every node sends once on every port.
        let per_dim: u64 = metrics_dim_sent(&snap);
        assert_eq!(per_dim, stats_on.sends);
    }

    fn metrics_dim_sent(snap: &crate::obs::MetricsSnapshot) -> u64 {
        snap.per_dim.iter().map(|(_, d)| d.sent).sum()
    }

    #[test]
    fn run_checked_reports_violations_at_quiescence() {
        use crate::sim::Invariant;
        struct NobodyAtDistanceThree;
        impl Invariant<Hypercube, Flood> for NobodyAtDistanceThree {
            fn name(&self) -> &'static str {
                "nobody-at-distance-3"
            }
            fn check(&mut self, eng: &EventEngine<'_, Hypercube, Flood>) -> Result<(), String> {
                for (a, f) in eng.actors_iter() {
                    if a.weight() == 3 && f.seen_at.is_some() {
                        return Err(format!("{a} saw the flood"));
                    }
                }
                Ok(())
            }
        }
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |a| Flood::new(&net, a, NodeId::ZERO));
        let mut inv = NobodyAtDistanceThree;
        let err = eng
            .run_checked(u64::MAX, &mut [&mut inv])
            .expect_err("the flood must reach 111 and trip the invariant");
        assert_eq!(err.invariant, "nobody-at-distance-3");
        assert_eq!(err.time, 3, "violation surfaces at the tick it happens");
    }

    #[test]
    fn run_checked_passes_clean_invariants() {
        use crate::sim::Invariant;
        struct SeenAtMostOnce;
        impl Invariant<Hypercube, Flood> for SeenAtMostOnce {
            fn name(&self) -> &'static str {
                "seen-at-most-once"
            }
            fn check(&mut self, eng: &EventEngine<'_, Hypercube, Flood>) -> Result<(), String> {
                // seen_at is monotone: once set it never changes.
                for (a, f) in eng.actors_iter() {
                    if let Some(t) = f.seen_at {
                        if t > eng.now() {
                            return Err(format!("{a} saw the future"));
                        }
                    }
                }
                Ok(())
            }
        }
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let mut eng = EventEngine::new(&net, |a| Flood::new(&net, a, NodeId::ZERO));
        let mut inv = SeenAtMostOnce;
        let n = eng.run_checked(u64::MAX, &mut [&mut inv]).unwrap();
        assert!(n > 0);
    }

    #[test]
    #[should_panic]
    fn sending_to_non_neighbor_panics() {
        struct Bad;
        impl Actor for Bad {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                if ctx.self_id() == NodeId::ZERO {
                    ctx.send(NodeId::new(0b11), (), 1);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: ()) {}
        }
        let cube = Hypercube::new(2);
        let cfg = FaultConfig::fault_free(cube);
        let net = Net::cube(&cfg);
        let _ = EventEngine::new(&net, |_| Bad);
    }

    /// Node 8 lies outside Q3: a send to it is a send to a non-neighbor,
    /// not a send across a fourth port.
    #[test]
    #[should_panic(expected = "may only message neighbors")]
    fn sending_outside_the_cube_panics() {
        struct Bad;
        impl Actor for Bad {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                if ctx.self_id() == NodeId::ZERO {
                    ctx.send(NodeId::new(8), (), 1);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: ()) {}
        }
        let cfg = FaultConfig::fault_free(Hypercube::new(3));
        let net = Net::cube(&cfg);
        let _ = EventEngine::new(&net, |_| Bad);
    }
}
