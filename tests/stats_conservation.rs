//! Property tests for the event engine's message-accounting
//! conservation law (see `EventStats`): every send attempt meets
//! exactly one fate, so at any quiescent point
//!
//! `delivered + dropped + lost == sends + duplicated`
//!
//! and control events stay out of the balance (`killed` never exceeds
//! the kills injected; quashed timers are not `dropped`). The law is
//! exercised three ways: a raw flood on faulty `Q_n` under channel
//! noise, an adversarial scheduler and mid-run kills; the same flood on
//! generalized hypercubes; and the full reliable GS + unicast protocol
//! stack over the standard loss profiles.
//!
//! The lock-step engine (see `SyncStats`) has its own law: every round
//! delivers one message per ordered pair of healthy neighbors joined by
//! a usable link, so
//!
//! `messages == rounds_run × usable ordered pairs`
//!
//! and every active round changes at least one node. It is exercised
//! with min-propagation on `Q_n` with node and link faults and on
//! generalized hypercubes with node faults.

use hypersafe::safety::{run_gs_reliable, run_unicast_lossy, SafetyMap};
use hypersafe::simkit::{
    Actor, AdversarialScheduler, ChannelModel, Ctx, EventEngine, EventStats, Net, ReliableConfig,
    RunOptions, SyncEngine, SyncNode,
};
use hypersafe::topology::{
    FaultConfig, FaultSet, GeneralizedHypercube, Hypercube, NodeId, Topology,
};
use proptest::prelude::*;

fn assert_conserved(stats: &EventStats, kills_injected: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        stats.delivered + stats.dropped + stats.lost,
        stats.sends + stats.duplicated,
        "conservation law violated: {:?}",
        stats
    );
    prop_assert!(
        stats.killed <= kills_injected,
        "{} nodes killed but only {} kills injected: {:?}",
        stats.killed,
        kills_injected,
        stats
    );
    Ok(())
}

/// Rebroadcast-once flood: enough traffic to exercise every link in
/// both directions without ever quiescing early.
struct Flood {
    neighbors: Vec<NodeId>,
    origin: bool,
    seen: bool,
}

impl Flood {
    fn new<T: Topology>(net: &Net<'_, T>, a: NodeId, origin: NodeId) -> Self {
        Flood {
            neighbors: (0..net.degree())
                .map(|p| NodeId::new(net.neighbor(a.raw(), p)))
                .collect(),
            origin: a == origin,
            seen: false,
        }
    }

    fn burst(&mut self, ctx: &mut Ctx<()>) {
        self.seen = true;
        for i in 0..self.neighbors.len() {
            ctx.send(self.neighbors[i], (), 1);
        }
    }
}

impl Actor for Flood {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Ctx<()>) {
        if self.origin {
            self.burst(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<()>, _from: NodeId, _msg: ()) {
        if !self.seen {
            self.burst(ctx);
        }
    }
}

/// Floods `net` from its lowest live node under the given channel,
/// an adversarial (reorder + stretch) scheduler, and a kill plan;
/// returns the final stats and the number of kills injected.
fn flood_stats<T: Topology>(
    net: &Net<'_, T>,
    live: impl Fn(u64) -> bool,
    channel: ChannelModel,
    sched_seed: u64,
    kills: &[(u64, u64)],
) -> (EventStats, u64) {
    let origin = NodeId::new(
        (0..net.num_nodes())
            .find(|&a| live(a))
            .expect("at least one live node"),
    );
    let opts = RunOptions {
        sched: Box::new(AdversarialScheduler::permute(sched_seed).with_stretch(1 + sched_seed % 5)),
        channel: Some(channel),
        ..RunOptions::default()
    };
    let mut eng = EventEngine::with_options(net, opts, |a| Flood::new(net, a, origin));
    for &(victim, delay) in kills {
        eng.inject_kill(NodeId::new(victim % net.num_nodes()), delay);
    }
    eng.run(500_000);
    (eng.stats().clone(), kills.len() as u64)
}

/// A lossy channel with a 2M-event budget.
fn lossy(channel: ChannelModel) -> RunOptions {
    RunOptions {
        channel: Some(channel),
        max_events: 2_000_000,
        ..RunOptions::default()
    }
}

/// Min-propagation: each round a node keeps the least of its own and
/// every delivered value.
struct MinNode(u64);

impl SyncNode for MinNode {
    type Msg = u64;

    fn broadcast(&self) -> u64 {
        self.0
    }

    fn receive(&mut self, inbox: &[(usize, u64)]) -> bool {
        let m = inbox.iter().map(|&(_, v)| v).min().unwrap_or(self.0);
        let changed = m < self.0;
        self.0 = self.0.min(m);
        changed
    }
}

/// Runs min-propagation on `net` for at most `max_rounds` lock-step
/// rounds and checks the engine's accounting against the network's
/// usable edges, counted independently of the engine.
fn check_lockstep<T: Topology + Sync>(
    net: &Net<'_, T>,
    seed: u64,
    max_rounds: u32,
) -> Result<(), TestCaseError> {
    let mut eng = SyncEngine::new(net, |a| {
        MinNode((a.raw() ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    });
    let mut quiescent = false;
    for _ in 0..max_rounds {
        if eng.run_round() == 0 {
            quiescent = true;
            break;
        }
    }
    let usable: u64 = (0..net.num_nodes())
        .filter(|&a| !net.node_faulty(a))
        .map(|a| {
            (0..net.degree())
                .map(|p| net.neighbor(a, p))
                .filter(|&b| !net.node_faulty(b) && !net.link_faulty(a, b))
                .count() as u64
        })
        .sum();
    let stats = eng.stats();
    prop_assert_eq!(
        stats.messages,
        u64::from(stats.rounds_run) * usable,
        "{:?}",
        stats
    );
    prop_assert!(
        stats.state_changes >= u64::from(stats.active_rounds),
        "{:?}",
        stats
    );
    prop_assert_eq!(
        stats.active_rounds < stats.rounds_run,
        quiescent,
        "{:?}",
        stats
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The raw engine on faulty `Q_n`: loss, duplication, jitter,
    /// reordering and mid-run kills all at once.
    #[test]
    fn flood_on_faulty_cubes_conserves(
        n in 3u8..=6,
        fault_picks in proptest::collection::btree_set(0u64..64, 0..6),
        (loss_pct, dup_pct, jitter) in (0u32..30, 0u32..20, 0u64..4),
        seed in any::<u64>(),
        kills in proptest::collection::vec((any::<u64>(), 0u64..20), 0..3),
    ) {
        let cube = Hypercube::new(n);
        let total = cube.num_nodes();
        // Keep node 0 alive as the flood origin.
        let faults = FaultSet::from_nodes(
            cube,
            fault_picks.iter().map(|&a| NodeId::new(1 + a % (total - 1))),
        );
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let net = Net::cube(&cfg);
        let channel = ChannelModel::new(seed)
            .with_loss(loss_pct as f64 / 100.0)
            .with_jitter(jitter)
            .with_duplication(dup_pct as f64 / 100.0);
        let (stats, injected) =
            flood_stats(&net, |a| !cfg.node_faulty(NodeId::new(a)), channel, seed, &kills);
        // Faults or kills can isolate the origin, so only the burst
        // itself is guaranteed.
        prop_assert!(stats.sends > 0, "origin never burst: {:?}", stats);
        assert_conserved(&stats, injected)?;
    }

    /// The same flood on generalized hypercubes (mixed radices, higher
    /// degree, same engine): the law is topology-independent.
    #[test]
    fn flood_on_generalized_hypercubes_conserves(
        radices in proptest::collection::vec(2u16..=4, 2..=3),
        fault_picks in proptest::collection::btree_set(0u64..64, 0..4),
        loss_pct in 0u32..30,
        dup_pct in 0u32..20,
        seed in any::<u64>(),
        kills in proptest::collection::vec((any::<u64>(), 0u64..20), 0..3),
    ) {
        let gh = GeneralizedHypercube::new(&radices);
        let total = gh.num_nodes();
        let mut faults = FaultSet::with_capacity(total);
        for &a in &fault_picks {
            faults.insert(NodeId::new(1 + a % (total - 1)));
        }
        let net = Net::new(&gh, &faults);
        let channel = ChannelModel::new(seed)
            .with_loss(loss_pct as f64 / 100.0)
            .with_duplication(dup_pct as f64 / 100.0);
        let (stats, injected) =
            flood_stats(&net, |a| !faults.contains(NodeId::new(a)), channel, seed, &kills);
        // Faults or kills can isolate the origin, so only the burst
        // itself is guaranteed.
        prop_assert!(stats.sends > 0, "origin never burst: {:?}", stats);
        assert_conserved(&stats, injected)?;
    }

    /// The full protocol stack: reliable GS convergence and a reliable
    /// unicast on the same faulty cube over a noisy channel. Timers and
    /// retransmissions churn underneath; the balance must still close,
    /// and no kills are injected so `killed` must be 0.
    #[test]
    fn reliable_protocols_conserve(
        n in 3u8..=5,
        fault_picks in proptest::collection::btree_set(0u64..32, 0..4),
        loss_pct in 0u32..20,
        dup_pct in 0u32..10,
        seed in any::<u64>(),
    ) {
        let cube = Hypercube::new(n);
        let total = cube.num_nodes();
        let faults = FaultSet::from_nodes(
            cube,
            fault_picks.iter().map(|&a| NodeId::new(1 + a % (total - 1))),
        );
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let channel = || {
            ChannelModel::new(seed)
                .with_loss(loss_pct as f64 / 100.0)
                .with_jitter(2)
                .with_duplication(dup_pct as f64 / 100.0)
        };
        let rcfg = ReliableConfig::default();

        let (gs, _) = run_gs_reliable(&cfg, rcfg, 1, lossy(channel()));
        prop_assert!(gs.quiescent, "GS ran out of event budget");
        assert_conserved(&gs.stats, 0)?;

        let map = SafetyMap::compute(&cfg);
        let s = NodeId::new(0);
        let d = NodeId::new(total - 1);
        if !cfg.node_faulty(d) {
            let (uni, _) = run_unicast_lossy(&cfg, &map, s, d, 1, rcfg, lossy(channel()));
            assert_conserved(&uni.stats, 0)?;
        }
    }

    /// The lock-step engine on faulty `Q_n` with node and link faults.
    #[test]
    fn lockstep_on_faulty_cubes_conserves(
        n in 3u8..=6,
        fault_picks in proptest::collection::btree_set(0u64..64, 0..6),
        link_picks in proptest::collection::btree_set((0u64..64, 0u8..6), 0..8),
        seed in any::<u64>(),
        max_rounds in 1u32..=8,
    ) {
        let cube = Hypercube::new(n);
        let total = cube.num_nodes();
        let faults = FaultSet::from_nodes(
            cube,
            fault_picks.iter().map(|&a| NodeId::new(a % total)),
        );
        let mut cfg = FaultConfig::with_node_faults(cube, faults);
        for &(a, dim) in &link_picks {
            let a = NodeId::new(a % total);
            cfg.link_faults_mut().insert(a, a.neighbor(dim % n));
        }
        check_lockstep(&Net::cube(&cfg), seed, max_rounds)?;
    }

    /// The same engine on mixed-radix generalized hypercubes.
    #[test]
    fn lockstep_on_generalized_hypercubes_conserves(
        radices in proptest::collection::vec(2u16..=4, 2..=3),
        fault_picks in proptest::collection::btree_set(0u64..64, 0..4),
        seed in any::<u64>(),
        max_rounds in 1u32..=4,
    ) {
        let gh = GeneralizedHypercube::new(&radices);
        let total = gh.num_nodes();
        let mut faults = FaultSet::with_capacity(total);
        for &a in &fault_picks {
            faults.insert(NodeId::new(a % total));
        }
        check_lockstep(&Net::new(&gh, &faults), seed, max_rounds)?;
    }
}
